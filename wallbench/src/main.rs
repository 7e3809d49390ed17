//! Worker process of the wall-clock benchmark; `run.py` drives it.
//!
//! ```text
//! wallbench batch --workload W --seed N [--trace DIR]
//! wallbench setup --workload W --seed N
//! ```
//!
//! `batch` runs the workload's points as one job set through the figure
//! runner (cache off, progress off, one worker per core), reduces and
//! reports them the way the figure binaries do, and prints one JSON object
//! with a digest and an invariant verdict per point. With `--trace` it also
//! records spans around each layer's entry points, writes them to DIR, runs
//! the shard and layer probes, and adds the per-layer metrics.
//!
//! `setup` times scenario construction plus `Simulation::new` for every
//! point, repeatedly, and prints the per-repetition sums.

mod check;
mod points;
mod probe;
mod trace;

use points::Point;
use rlb_bench::cli::BenchCli;
use rlb_bench::drive::build_report;
use rlb_bench::figures::common::{reduce, RunRow};
use rlb_bench::json::Json;
use rlb_bench::runner::{run_jobs, Job, JobOutcome, RunnerConfig};
use rlb_engine::SimDuration;
use rlb_lb::Scheme;
use rlb_metrics::FctSummary;
use rlb_net::Simulation;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use trace::{now, Scope, Tracer};

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("usage: wallbench <batch|setup> --workload W --seed N")?;
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: 0,
        trace: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--trace" => args.trace = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|a| match a.mode.as_str() {
        "batch" => batch(&a),
        "setup" => setup(&a),
        other => Err(format!("unknown mode `{other}`")),
    });
    match result {
        Ok(out) => println!("{}", out.pretty()),
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Set up every point, again and again until `SETUP_REPS` repetitions
/// and `SETUP_BUDGET_S` seconds have passed, so the median is steady even
/// when one set-up takes well under a millisecond.
fn setup(a: &Args) -> Result<Json, String> {
    const SETUP_REPS: usize = 5;
    const SETUP_BUDGET_S: f64 = 0.1;
    let pts = points::points(&a.workload, a.seed)?;
    let mut sums = Vec::new();
    let start = now();
    while sums.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let mut total_ns = 0u128;
        for p in &pts {
            let t = now();
            let sc = p.scenario(&Scope::default())?;
            let sim = Simulation::new(sc.cfg, sc.flows);
            total_ns += t.elapsed().as_nanos();
            drop(sim);
        }
        sums.push(Json::F64(total_ns as f64 / 1e9));
    }
    Ok(Json::obj([("setup_s", Json::Arr(sums))]))
}

fn summary_json(s: &FctSummary) -> Json {
    Json::obj([
        ("flows_total", Json::U64(s.flows_total as u64)),
        ("flows_completed", Json::U64(s.flows_completed as u64)),
        ("avg_fct_ms", Json::F64(s.avg_fct_ms)),
        ("p50_fct_ms", Json::F64(s.p50_fct_ms)),
        ("p99_fct_ms", Json::F64(s.p99_fct_ms)),
        ("max_fct_ms", Json::F64(s.max_fct_ms)),
        ("ooo_ratio", Json::F64(s.ooo_ratio)),
        ("p99_ood", Json::F64(s.p99_ood)),
    ])
}

/// Schemes that keep per-flow state in a `FlowTable` on every decision
/// (RLB's reroute overrides do too).
fn keeps_flow_table(scheme: Scheme, rlb: bool) -> bool {
    rlb || !matches!(scheme, Scheme::Ecmp | Scheme::Drill)
}

/// Simulate one point and reduce it to the metrics object the report reads,
/// plus the benchmark's own `bench` block.
fn simulate(p: &Point, s: &Scope) -> Result<Json, String> {
    let sc = p.scenario(s)?;
    let cfg = &sc.cfg;
    let (scheme, pfc, rlb) = (cfg.scheme, cfg.switch.pfc_enabled, cfg.rlb.clone());
    let topo = cfg.topo.clone();
    let flows = sc.flows.len();
    let sim = s.span("net.sim_new", |_| Simulation::new(sc.cfg, sc.flows));
    let res = s.span("net.run", |_| sim.run());
    let (digest, verdict) = s.span("check.digest", |_| {
        (check::digest(&res), check::invariants(&res, pfc))
    });
    let c = &res.counters;
    let perf = &res.perf;
    let sent: u64 = res.records.iter().map(|r| r.packets_sent).sum();
    let retx: u64 = res.records.iter().map(|r| r.retransmitted_packets()).sum();
    let end_s = res.end_time.as_secs_f64();
    let pause_rate = c.pause_frames as f64 / end_s.max(1e-12);
    let ood_p99 = res.ood_histogram.quantile_upper_bound(0.99);
    let mut bench = Json::obj([
        ("id", Json::U64(p.id as u64)),
        ("ok", Json::Bool(verdict.is_ok())),
        ("digest", Json::Str(format!("{digest:016x}"))),
        ("events", Json::U64(res.events_processed)),
        ("flows", Json::U64(flows as u64)),
        ("scheme", Json::Str(scheme.name().to_string())),
        ("rlb", Json::Bool(rlb.is_some())),
        (
            "flow_table",
            Json::Bool(keeps_flow_table(scheme, rlb.is_some())),
        ),
        ("spines", Json::U64(topo.n_spines as u64)),
        (
            "leaf_ports",
            Json::U64((topo.hosts_per_leaf + topo.n_spines) as u64),
        ),
        (
            "switches",
            Json::U64((topo.n_leaves + topo.n_spines) as u64),
        ),
        (
            "predictor_dt_s",
            Json::F64(
                rlb.as_ref()
                    .map_or(0.0, |r| SimDuration::from_ps(r.dt_ps).as_secs_f64()),
            ),
        ),
        ("end_s", Json::F64(end_s)),
        ("decisions", Json::U64(perf.decisions)),
        ("snapshot_refreshes", Json::U64(perf.snapshot_refreshes)),
        (
            "dirty_spines",
            Json::U64(perf.snapshot_dirty_queue_spines + perf.snapshot_dirty_sig_spines),
        ),
        ("arena_high_water", Json::U64(perf.arena_high_water)),
        ("cnm_generated", Json::U64(c.cnm_generated)),
        ("cnm_relayed", Json::U64(c.cnm_relayed)),
        ("reroutes", Json::U64(c.reroutes)),
        ("recirculations", Json::U64(c.recirculations)),
        (
            "recirc_exhausted",
            Json::U64(c.recirculation_budget_exhausted),
        ),
        ("forwards_unwarned", Json::U64(c.forwards_unwarned)),
        ("switch_packets", Json::U64(c.switch_packets)),
        ("packets_sent", Json::U64(sent)),
        ("retransmitted", Json::U64(retx)),
        ("pause_rate_per_sec", Json::F64(pause_rate)),
        ("p99_ood", Json::U64(ood_p99)),
    ]);
    if let Err(e) = verdict {
        bench.set("error", Json::Str(e));
    }
    let row: RunRow = s.span("bench.summary", |_| reduce(p.label.clone(), res));
    bench.set("p99_fct_ms", Json::F64(row.all.p99_fct_ms));
    Ok(Json::obj([
        ("scheme", Json::Str(scheme.name().to_string())),
        ("pfc", Json::Bool(pfc)),
        ("variant", Json::Str(row.label.clone())),
        ("all", summary_json(&row.all)),
        ("background", summary_json(&row.background)),
        ("pause_rate_per_sec", Json::F64(pause_rate)),
        ("sim_seconds", Json::F64(row.sim_seconds)),
        (
            "fct_cdf",
            Json::Arr(
                row.fct_cdf
                    .iter()
                    .map(|&(x, q)| Json::Arr(vec![Json::F64(x), Json::F64(q)]))
                    .collect(),
            ),
        ),
        ("bench", bench),
    ]))
}

/// A point that panics or cannot be built is recorded as failed; the
/// batch goes on.
fn run_point(p: &Point, scope: &Scope) -> Json {
    let s = scope.for_point(p.id);
    s.span("runner.point", |s| {
        let out = catch_unwind(AssertUnwindSafe(|| simulate(p, s)));
        let err = match out {
            Ok(Ok(metrics)) => return metrics,
            Ok(Err(e)) => e,
            Err(panic) => panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|m| m.to_string()))
                .unwrap_or_else(|| "panic".to_string()),
        };
        Json::obj([(
            "bench",
            Json::obj([
                ("id", Json::U64(p.id as u64)),
                ("ok", Json::Bool(false)),
                ("error", Json::Str(err)),
            ]),
        )])
    })
}

fn bench_of(o: &JobOutcome) -> &Json {
    o.metrics
        .get("bench")
        .expect("every point carries a bench block")
}

fn num(o: &JobOutcome, key: &str) -> f64 {
    bench_of(o).get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn is_ok(o: &JobOutcome) -> bool {
    bench_of(o).get("ok").and_then(Json::as_bool) == Some(true)
}

fn batch(a: &Args) -> Result<Json, String> {
    let pts = points::points(&a.workload, a.seed)?;
    let workers = workers();
    let tracer = a.trace.as_ref().map(|_| Arc::new(Tracer::new()));
    let root = Scope::new(tracer.clone());
    let start = now();
    let outcomes = root.span("bench.batch", |s| -> Result<Vec<JobOutcome>, String> {
        let jobs = pts
            .iter()
            .map(|p| {
                let (p, s) = (p.clone(), s.clone());
                Job {
                    fig: "wallbench",
                    label: p.label.clone(),
                    seed: p.traffic_seed,
                    spec: p.job_spec(),
                    run: Box::new(move || run_point(&p, &s)),
                }
            })
            .collect();
        let cfg = RunnerConfig {
            threads: Some(workers),
            cache_dir: None,
            progress: false,
        };
        let summary = s.span("runner.run_jobs", |_| run_jobs(jobs, &cfg))?;
        s.span("bench.report", |_| {
            std::hint::black_box(build_report(&BenchCli::default(), &[], &summary).pretty())
        });
        Ok(summary.outcomes)
    })?;
    let batch_s = start.elapsed().as_secs_f64();

    let point_rows: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            let b = bench_of(o);
            let mut row = Json::obj([("label", Json::Str(o.label.clone()))]);
            for k in [
                "id",
                "ok",
                "error",
                "digest",
                "events",
                "p99_fct_ms",
                "p99_ood",
                "pause_rate_per_sec",
            ] {
                if let Some(v) = b.get(k) {
                    row.set(k, v.clone());
                }
            }
            row
        })
        .collect();
    let mut out = Json::obj([
        ("workload", Json::Str(a.workload.clone())),
        ("seed", Json::U64(a.seed)),
        ("workers", Json::U64(workers as u64)),
        ("batch_s", Json::F64(batch_s)),
        ("points", Json::Arr(point_rows)),
    ]);
    if let (Some(dir), Some(tracer)) = (&a.trace, &tracer) {
        let spans = tracer.spans();
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}-{}.json", a.workload, a.seed));
        std::fs::write(&path, trace::spans_json(&spans).pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let (shard_metrics, shard_report) = shard_probe(&pts[0], workers);
        let ok: Vec<&JobOutcome> = outcomes.iter().filter(|o| is_ok(o)).collect();
        let (shape, schemes) = workload_shape(&ok);
        let probes = probe::measure(&shape, &schemes);
        let mut layers = layer_metrics(&spans, &outcomes, workers, &probes);
        layers.extend(shard_metrics);
        out.set(
            "layers",
            Json::Obj(
                layers
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::F64(v)))
                    .collect(),
            ),
        );
        out.set("shard", shard_report);
        out.set(
            "self_ms",
            Json::Obj(
                trace::self_ns_by_name(&spans)
                    .into_iter()
                    .map(|(name, ns)| (name.to_string(), Json::F64(ms(ns))))
                    .collect(),
            ),
        );
    }
    Ok(out)
}

const SHARD_METRICS: [&str; 4] = [
    "shard.wall_ratio",
    "shard.window_advances",
    "shard.cross_msgs_per_event",
    "shard.barrier_stalls",
];

/// Run one point sequentially and on one shard per core: the metrics named
/// in `SHARD_METRICS` (zeros if the probe failed) and a report whose two
/// digests must both match the point's batch digest.
fn shard_probe(p: &Point, shards: usize) -> (Vec<(&'static str, f64)>, Json) {
    let probe = || -> Result<(Vec<f64>, u64, u64), String> {
        let sc = p.scenario(&Scope::default())?;
        let t = now();
        let seq = sc.clone().run();
        let seq_ns = t.elapsed().as_nanos() as f64;
        let t = now();
        let sharded = sc.run_with_shards(shards as u16);
        let sharded_ns = t.elapsed().as_nanos() as f64;
        let perf = &sharded.perf;
        let values = vec![
            sharded_ns / seq_ns.max(1.0),
            perf.window_advances as f64,
            perf.cross_shard_messages as f64 / sharded.events_processed.max(1) as f64,
            perf.barrier_stalls as f64,
        ];
        Ok((values, check::digest(&seq), check::digest(&sharded)))
    };
    let mut report = Json::obj([
        ("id", Json::U64(p.id as u64)),
        ("shards", Json::U64(shards as u64)),
    ]);
    let values = match catch_unwind(AssertUnwindSafe(probe)) {
        Ok(Ok((values, seq, sharded))) => {
            report.set("sequential_digest", Json::Str(format!("{seq:016x}")));
            report.set("sharded_digest", Json::Str(format!("{sharded:016x}")));
            values
        }
        Ok(Err(e)) => {
            report.set("error", Json::Str(e));
            vec![0.0; SHARD_METRICS.len()]
        }
        Err(_) => {
            report.set("error", Json::Str("shard probe panicked".to_string()));
            vec![0.0; SHARD_METRICS.len()]
        }
    };
    (SHARD_METRICS.into_iter().zip(values).collect(), report)
}

/// Probe inputs sized from the workload: its widest fabric, largest point,
/// peak arena occupancy, the share of RLB decisions that saw a warning, and
/// the schemes its points run.
fn workload_shape(ok: &[&JobOutcome]) -> (probe::Shape, Vec<Scheme>) {
    let max_of = |key: &str| ok.iter().map(|o| num(o, key) as usize).max().unwrap_or(1);
    let rlb: Vec<&&JobOutcome> = ok
        .iter()
        .filter(|o| bench_of(o).get("rlb").and_then(Json::as_bool) == Some(true))
        .collect();
    let decisions: u64 = rlb.iter().map(|o| num(o, "decisions") as u64).sum();
    let unwarned: u64 = rlb.iter().map(|o| num(o, "forwards_unwarned") as u64).sum();
    let warned_share = if decisions > 0 {
        decisions.saturating_sub(unwarned) as f64 / decisions as f64
    } else {
        0.0
    };
    let mut schemes: Vec<Scheme> = Vec::new();
    for o in ok {
        let name = bench_of(o).str_of("scheme");
        let scheme = probe::SCHEMES
            .into_iter()
            .find(|s| s.name() == name)
            .expect("scheme names round-trip");
        if !schemes.contains(&scheme) {
            schemes.push(scheme);
        }
    }
    let shape = probe::Shape {
        spines: max_of("spines"),
        ports: max_of("leaf_ports"),
        flows: max_of("flows"),
        arena_high_water: max_of("arena_high_water"),
        warned_share,
    };
    (shape, schemes)
}

/// Per-layer metrics from the spans, the points' counters and the probes.
fn layer_metrics(
    spans: &[trace::Span],
    outcomes: &[JobOutcome],
    workers: usize,
    probes: &probe::Probes,
) -> Vec<(&'static str, f64)> {
    let self_ns = trace::self_ns_by_name(spans);
    let self_ms = |name: &str| ms(self_ns.get(name).copied().unwrap_or(0));
    let ok: Vec<&JobOutcome> = outcomes.iter().filter(|o| is_ok(o)).collect();
    let total = |key: &str| -> f64 { ok.iter().map(|o| num(o, key) as u64).sum::<u64>() as f64 };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // Runner: busy share of the workers, and the tail after the last point
    // started, from the first point to end after that start.
    let point_spans: Vec<&trace::Span> =
        spans.iter().filter(|s| s.name == "runner.point").collect();
    let busy_ns: u64 = point_spans.iter().map(|s| s.dur_ns()).sum();
    let jobs_ns = spans
        .iter()
        .find(|s| s.name == "runner.run_jobs")
        .map_or(0, |s| s.dur_ns());
    let last_start = point_spans.iter().map(|s| s.start_ns).max().unwrap_or(0);
    let last_end = point_spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let first_idle = point_spans
        .iter()
        .map(|s| s.end_ns)
        .filter(|&e| e >= last_start)
        .min()
        .unwrap_or(last_end);

    let events = total("events");
    let decisions = total("decisions");
    let run_ms = self_ms("net.run");

    // Estimated ms of each probed layer: probe ns/op x the program's count.
    let (mut select_w, mut decide_w, mut decision_ns, mut table_ops, mut ticks) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for o in &ok {
        let b = bench_of(o);
        let (sel, dec) = probes
            .per_scheme
            .get(b.str_of("scheme"))
            .copied()
            .unwrap_or_default();
        let d = num(o, "decisions");
        select_w += sel * d;
        decide_w += dec * d;
        let rlb = b.get("rlb").and_then(Json::as_bool) == Some(true);
        decision_ns += if rlb { dec } else { sel } * d;
        if b.get("flow_table").and_then(Json::as_bool) == Some(true) {
            table_ops += d;
        }
        // Upper bound: every switch ticks every interval for the whole run.
        let dt = num(o, "predictor_dt_s");
        if dt > 0.0 {
            ticks += num(o, "switches") * num(o, "end_s") / dt;
        }
    }
    let share = |est_ns: f64| ratio(est_ns / 1e6, run_ms);
    let wheel = share(probes.wheel * events);
    let arena = share(probes.arena * total("switch_packets"));
    let decision = share(decision_ns);
    let flowtable = share(probes.flowtable * table_ops);
    let predictor = share(probes.predictor * ticks);
    let gbn = share(probes.gbn * total("packets_sent"));

    vec![
        (
            "runner.busy_share",
            ratio(busy_ns as f64, jobs_ns as f64 * workers as f64),
        ),
        ("runner.tail_ms", ms(last_end.saturating_sub(first_idle))),
        (
            "bench.reduce_ms",
            self_ms("bench.summary") + self_ms("bench.report"),
        ),
        ("bench.check_ms", self_ms("check.digest")),
        ("net.spec_parse_ms", self_ms("net.spec_parse")),
        ("net.scenario_build_ms", self_ms("net.scenario_build")),
        ("workloads.flows", total("flows")),
        ("net.sim_new_ms", self_ms("net.sim_new")),
        ("net.run_ms", run_ms),
        ("net.events", events),
        ("net.run_ns_per_event", ratio(run_ms * 1e6, events)),
        (
            "engine.arena_high_water",
            ok.iter()
                .map(|o| num(o, "arena_high_water") as u64)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("engine.wheel_ns_per_op", probes.wheel),
        ("engine.arena_ns_per_op", probes.arena),
        ("engine.flowtable_ns_per_op", probes.flowtable),
        ("lb.decisions_per_event", ratio(decisions, events)),
        (
            "lb.snapshot_refresh_share",
            ratio(total("snapshot_refreshes"), decisions),
        ),
        (
            "lb.dirty_spines_per_refresh",
            ratio(total("dirty_spines"), total("snapshot_refreshes")),
        ),
        ("lb.select_ns", ratio(select_w, decisions)),
        (
            "core.rlb_intervention_ratio",
            ratio(total("reroutes") + total("recirculations"), decisions),
        ),
        (
            "core.recirc_wasted_ratio",
            ratio(total("recirc_exhausted"), total("recirculations")),
        ),
        ("core.cnm_generated", total("cnm_generated")),
        ("core.cnm_relayed", total("cnm_relayed")),
        ("core.rlb_decide_ns", ratio(decide_w, decisions)),
        ("core.predictor_tick_ns", probes.predictor),
        (
            "transport.retx_share",
            ratio(total("retransmitted"), total("packets_sent")),
        ),
        ("transport.gbn_cycle_ns", probes.gbn),
        ("attr.wheel_share", wheel),
        ("attr.arena_share", arena),
        ("attr.decision_share", decision),
        ("attr.flowtable_share", flowtable),
        ("attr.predictor_share", predictor),
        ("attr.gbn_share", gbn),
        (
            "attr.unattributed_share",
            1.0 - (wheel + arena + decision + predictor + gbn),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// run.py adds the tracing overhead; everything else comes from here.
    const ADDED_BY_RUN_PY: [&str; 1] = ["trace.overhead_s"];

    #[test]
    fn every_declared_per_layer_metric_is_computed() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the root");
        let spec = rlb_bench::json::parse(&text).expect("BENCHMARK.json parses");
        let mut declared: Vec<&str> = spec
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer list")
            .iter()
            .map(|m| m.str_of("name"))
            .collect();
        let mut ours: Vec<&str> = layer_metrics(&[], &[], 2, &probe::Probes::default())
            .into_iter()
            .map(|(name, _)| name)
            .chain(SHARD_METRICS)
            .chain(ADDED_BY_RUN_PY)
            .collect();
        declared.sort_unstable();
        ours.sort_unstable();
        assert_eq!(ours, declared);
    }
}
