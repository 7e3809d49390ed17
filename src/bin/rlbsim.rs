//! `rlbsim` — run a custom lossless-DCN simulation from the command line.
//!
//! ```sh
//! cargo run --release --bin rlbsim -- \
//!     --scheme drill --rlb --workload websearch --load 0.6 \
//!     --leaves 4 --spines 4 --hosts 8 --horizon-ms 10 --seed 1
//! ```
//!
//! Flags (all optional):
//!
//! ```text
//!   --scheme <ecmp|presto|letflow|hermes|drill|conga>   (default drill)
//!   --rlb                       enable the RLB building block
//!   --no-recirculation          RLB without packet recirculation (Fig. 9)
//!   --no-pfc                    disable PFC (lossy fabric)
//!   --workload <webserver|cachefollower|websearch|datamining>
//!   --load <0..1>               offered core load        (default 0.6)
//!   --leaves/--spines/--hosts   fabric shape             (default 4/4/8)
//!   --asymmetric <frac>         degrade this fraction of links to 10G
//!   --incast <degree>           run the incast scenario instead
//!   --horizon-ms <ms>           traffic injection window (default 10)
//!   --seed <n>                  RNG seed                 (default 1)
//!   --monitor                   collect and print a fabric time series
//!   --cdf                       print the FCT CDF
//! ```

use rlb::core::RlbConfig;
use rlb::engine::{SimDuration, SimTime};
use rlb::lb::Scheme;
use rlb::metrics::{ms, pct, Table};
use rlb::net::scenario::{asymmetric_topo, IncastScenarioConfig, Scenario, SteadyStateConfig};
use rlb::net::{MonitorConfig, TopoConfig};
use rlb::workloads::Workload;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.value(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|e| panic!("bad value for {name}: {v} ({e:?})")),
            None => default,
        }
    }
}

fn parse_scheme(s: &str) -> Scheme {
    match s.to_ascii_lowercase().as_str() {
        "ecmp" => Scheme::Ecmp,
        "presto" => Scheme::Presto,
        "letflow" => Scheme::LetFlow,
        "hermes" => Scheme::Hermes,
        "drill" => Scheme::Drill,
        "conga" => Scheme::Conga,
        other => panic!("unknown scheme: {other}"),
    }
}

fn parse_workload(s: &str) -> Workload {
    match s.to_ascii_lowercase().as_str() {
        "webserver" | "web-server" => Workload::WebServer,
        "cachefollower" | "cache-follower" => Workload::CacheFollower,
        "websearch" | "web-search" => Workload::WebSearch,
        "datamining" | "data-mining" => Workload::DataMining,
        other => panic!("unknown workload: {other}"),
    }
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    let scheme = parse_scheme(args.value("--scheme").unwrap_or("drill"));
    let workload = parse_workload(args.value("--workload").unwrap_or("websearch"));
    let load: f64 = args.parse("--load", 0.6);
    let horizon_ms: u64 = args.parse("--horizon-ms", 10);
    let seed: u64 = args.parse("--seed", 1);

    let mut topo = TopoConfig {
        n_leaves: args.parse("--leaves", 4),
        n_spines: args.parse("--spines", 4),
        hosts_per_leaf: args.parse("--hosts", 8),
        ..TopoConfig::default()
    };
    if let Some(frac) = args.value("--asymmetric") {
        let frac: f64 = frac.parse().expect("bad --asymmetric fraction");
        topo = asymmetric_topo(&topo, frac, seed ^ 0xA5);
    }

    let rlb = args.flag("--rlb").then(|| RlbConfig {
        enable_recirculation: !args.flag("--no-recirculation"),
        ..RlbConfig::default()
    });

    let mut scenario = if let Some(degree) = args.value("--incast") {
        Scenario::incast(
            &IncastScenarioConfig {
                topo: topo.clone(),
                degree: degree.parse().expect("bad --incast degree"),
                requests: (horizon_ms as u32).max(1),
                request_interval: SimDuration::from_ms(1),
                background_load: load.min(0.4),
                seed,
                ..IncastScenarioConfig::default()
            },
            scheme,
            rlb,
        )
    } else {
        Scenario::steady_state(
            &SteadyStateConfig {
                topo: topo.clone(),
                workload,
                load,
                horizon: SimTime::from_ms(horizon_ms),
                seed,
            },
            scheme,
            rlb,
        )
    };
    if args.flag("--no-pfc") {
        scenario.cfg.switch.pfc_enabled = false;
    }
    if args.flag("--monitor") {
        scenario.cfg.monitor = Some(MonitorConfig::default());
    }

    let label = scenario.cfg.label();
    println!(
        "fabric {}x{}x{} | {} | {} @ {:.0}% | seed {} | horizon {} ms | PFC {}",
        topo.n_leaves,
        topo.n_spines,
        topo.hosts_per_leaf,
        label,
        workload.name(),
        load * 100.0,
        seed,
        horizon_ms,
        if args.flag("--no-pfc") { "off" } else { "on" },
    );

    // lint:allow(wall-clock) -- CLI progress timing only, never fed to the sim
    let t0 = std::time::Instant::now();
    let res = scenario.run();
    let s = res.summary();

    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["flows completed".to_string(), format!("{}/{}", s.flows_completed, s.flows_total)]);
    t.row(vec!["avg FCT (ms)".to_string(), ms(s.avg_fct_ms)]);
    t.row(vec!["p50 FCT (ms)".to_string(), ms(s.p50_fct_ms)]);
    t.row(vec!["p99 FCT (ms)".to_string(), ms(s.p99_fct_ms)]);
    t.row(vec!["out-of-order packets".to_string(), pct(s.ooo_ratio)]);
    {
        let base_rtt_ps = 2 * topo.base_one_way_ps(1048);
        let overhead = 1048.0 / 1000.0;
        let (sd_avg, sd_p99) = rlb::metrics::slowdown_summary(
            &res.records,
            topo.host_link_rate_bps as f64,
            base_rtt_ps,
            overhead,
        );
        t.row(vec!["avg FCT slowdown".to_string(), format!("{sd_avg:.2}x")]);
        t.row(vec!["p99 FCT slowdown".to_string(), format!("{sd_p99:.2}x")]);
    }
    t.row(vec!["p99 OOD (pkts)".to_string(), format!("{:.0}", s.p99_ood)]);
    t.row(vec!["NAKs".to_string(), s.total_naks.to_string()]);
    t.row(vec!["PFC PAUSE frames".to_string(), res.counters.pause_frames.to_string()]);
    t.row(vec!["CNM warnings".to_string(), res.counters.cnm_generated.to_string()]);
    t.row(vec!["RLB reroutes".to_string(), res.counters.reroutes.to_string()]);
    t.row(vec!["RLB recirculations".to_string(), res.counters.recirculations.to_string()]);
    t.row(vec!["buffer drops".to_string(), res.counters.buffer_drops.to_string()]);
    t.row(vec!["events processed".to_string(), res.events_processed.to_string()]);
    println!("\n{}", t.render());

    let icts = res.group_completion_ms();
    if !icts.is_empty() {
        let times: Vec<f64> = icts.iter().map(|(_, v)| *v).collect();
        let avg = rlb::metrics::mean(&times);
        println!("incast completion time (avg over {} requests): {:.3} ms", icts.len(), avg);
    }

    if args.flag("--cdf") {
        println!("\n# FCT CDF (ms, cumulative probability)");
        for (x, p) in rlb::metrics::downsample_cdf(&rlb::metrics::fct_cdf(&res.records), 20) {
            println!("{x:.4} {p:.3}");
        }
    }
    if args.flag("--monitor") {
        println!("\n{}", res.timeseries.render());
    }
    eprintln!("wall time: {:?}", t0.elapsed());
}
