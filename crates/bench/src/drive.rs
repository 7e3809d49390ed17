//! The driver behind the `bench` binary: resolve the requested
//! figures from the registry, expand them into one job batch, run it
//! through the cached parallel runner, reduce per figure, print the
//! tables, and (with `--json`) write the schema-versioned
//! `BENCH_<fig>_<scale>.json` report.

use crate::cli::BenchCli;
use crate::figures::common::{run_metrics, Fold, PERF};
use crate::figures::{by_name, registry, Figure, FigureReport};
use crate::json::Json;
use crate::runner::{run_jobs, Job, JobOutcome, RunSummary, CACHE_SCHEMA_VERSION};
use rlb_net::ScenarioSpec;
use std::path::Path;

/// Resolve the figure list: `--figs` if given, else the whole registry.
/// Unknown names are an error listing what exists.
pub fn resolve_figures(cli: &BenchCli) -> Result<Vec<&'static dyn Figure>, String> {
    let names: Vec<String> = match &cli.figs {
        Some(figs) => figs.clone(),
        None => registry().iter().map(|f| f.name().to_string()).collect(),
    };
    names
        .iter()
        .map(|n| {
            by_name(n).ok_or_else(|| {
                format!(
                    "unknown figure `{n}` — known figures: {}",
                    registry()
                        .iter()
                        .map(|f| f.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
        })
        .collect()
}

/// Run the figures selected by `cli` end to end. Returns the per-figure
/// reports (in run order) alongside the batch summary, after printing
/// tables and writing the JSON report if requested.
pub fn drive(cli: &BenchCli) -> Result<Vec<(&'static dyn Figure, FigureReport)>, String> {
    if let Some(path) = cli.scenario.clone() {
        drive_scenario(cli, &path)?;
        return Ok(Vec::new());
    }
    let figures = resolve_figures(cli)?;
    let offsets = cli.seed_offsets();

    // One flat batch: the runner interleaves jobs from all figures across
    // the worker pool, so a slow figure can't serialize the rest.
    let mut jobs = Vec::new();
    let mut ranges = Vec::new();
    for fig in &figures {
        let start = jobs.len();
        jobs.append(&mut fig.jobs(cli.scale, &offsets, cli.shards));
        ranges.push(start..jobs.len());
    }
    let summary = run_jobs(jobs, &cli.runner_config(true))?;

    let mut reports = Vec::new();
    for (fig, range) in figures.iter().zip(ranges) {
        let outcomes = &summary.outcomes[range];
        let report = fig.reduce(outcomes);
        for (title, table) in &report.sections {
            println!("{title}\n{table}");
        }
        if cli.cdf {
            for dump in &report.cdf_dumps {
                println!("{dump}");
            }
        }
        reports.push((*fig, report));
    }
    println!(
        "{} point(s): {} executed, {} cached, {:.1}s wall",
        summary.outcomes.len(),
        summary.executed,
        summary.cache_hits,
        summary.total_wall_ms / 1e3
    );

    if let Some(path) = &cli.json {
        let report = build_report(cli, &reports, &summary);
        std::fs::write(path, report.pretty())
            .map_err(|e| format!("cannot write report {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(reports)
}

/// Expand a parsed spec into runner jobs, one per seed offset. The job's
/// cache identity is the canonical spec text (seed included), so editing
/// any field of the file — or bumping the seed — re-keys the point while
/// untouched specs stay warm in the cache.
pub fn scenario_jobs(
    spec: &ScenarioSpec,
    offsets: &[u64],
    shards: u16,
) -> Result<Vec<Job>, String> {
    // Surface semantic errors (bad topology ranges, unsorted timelines)
    // before any job runs.
    spec.build()
        .map_err(|e| format!("scenario `{}`: {e}", spec.label()))?;
    let mut jobs = Vec::new();
    for &offset in offsets {
        let mut s = spec.clone();
        s.seed += offset;
        jobs.push(Job {
            fig: "scenario",
            label: s.label(),
            seed: s.seed,
            spec: format!("shards={shards}|{}", s.to_spec_text()),
            run: Box::new(move || {
                let sc = s.build().expect("spec validated before job expansion");
                run_metrics(s.label(), sc, shards, vec![("seed", Json::U64(s.seed))])
            }),
        });
    }
    Ok(jobs)
}

/// `--scenario PATH`: parse + validate the spec file (span-quality errors
/// verbatim from the parser), run it through the cached runner, print a
/// summary table, and honor `--json`/`--stable-json` like any figure run.
pub fn drive_scenario(cli: &BenchCli, path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read scenario spec {}: {e}", path.display()))?;
    let spec =
        ScenarioSpec::parse(&text).map_err(|e| format!("in {}:\n{e}", path.display()))?;
    let jobs = scenario_jobs(&spec, &cli.seed_offsets(), cli.shards)?;
    let summary = run_jobs(jobs, &cli.runner_config(true))?;

    let mut t = rlb_metrics::Table::new(vec![
        "scenario",
        "seed",
        "flows",
        "avg_fct_ms",
        "p99_fct_ms",
        "ooo_packets",
        "faults_applied",
    ]);
    let num = |o: &JobOutcome, p: &[&str]| {
        o.metrics.path(p).and_then(Json::as_f64).unwrap_or(f64::NAN)
    };
    for o in &summary.outcomes {
        t.row(vec![
            o.label.clone(),
            o.seed.to_string(),
            format!("{:.0}", num(o, &["all", "flows_total"])),
            rlb_metrics::ms(num(o, &["all", "avg_fct_ms"])),
            rlb_metrics::ms(num(o, &["all", "p99_fct_ms"])),
            rlb_metrics::pct(num(o, &["all", "ooo_ratio"])),
            format!("{:.0}", num(o, &["counters", "faults_applied"])),
        ]);
    }
    println!("scenario {} ({})\n{}", spec.label(), path.display(), t.render());
    println!(
        "{} point(s): {} executed, {} cached, {:.1}s wall",
        summary.outcomes.len(),
        summary.executed,
        summary.cache_hits,
        summary.total_wall_ms / 1e3
    );

    if let Some(out) = &cli.json {
        let report = build_report(cli, &[], &summary);
        std::fs::write(out, report.pretty())
            .map_err(|e| format!("cannot write report {}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }
    Ok(())
}

fn point_json(o: &JobOutcome, stable: bool) -> Json {
    let mut metrics = o.metrics.clone();
    if stable {
        // The per-job perf block is wall-clock telemetry; two byte-identical
        // stable reports must not differ because one machine was slower.
        metrics.remove("perf");
    }
    let mut p = Json::obj([
        ("fig", Json::Str(o.fig.to_string())),
        ("label", Json::Str(o.label.clone())),
        ("seed", Json::U64(o.seed)),
        ("metrics", metrics),
    ]);
    if !stable {
        // The cache key hashes the full job spec, which includes the shard
        // count — a cache-layout detail, not simulation output. Stable
        // reports omit it so `--shards 1` and `--shards N` byte-compare.
        p.set("key", Json::Str(o.key_hex.clone()));
        p.set("wall_ms", Json::F64(o.wall_ms));
        p.set("cached", Json::Bool(o.cached));
    }
    p
}

/// Aggregate the per-job `perf` blocks into the report-level summary by
/// folding each [`PERF`] key as the listing says: totals, peaks, and the
/// batch events/sec rate. Cached jobs contribute the numbers recorded when
/// they originally executed, so the rate describes simulator speed rather
/// than cache luck; jobs_executed / jobs_cached disambiguate.
fn perf_aggregate(summary: &RunSummary) -> Json {
    let blocks: Vec<&Json> = summary
        .outcomes
        .iter()
        .filter_map(|o| o.metrics.get("perf"))
        .collect();
    let values = |key: &'static str| blocks.iter().filter_map(move |p| p.get(key));
    let mut out = Json::Obj(Vec::new());
    for (key, _, fold) in PERF {
        match fold {
            // Counters stay exact u64 sums; the wall-time sum is a float.
            Fold::Sum(name) => out.set(
                name,
                values(key).fold(Json::U64(0), |acc, v| match (acc, v) {
                    (Json::U64(a), Json::U64(b)) => Json::U64(a + b),
                    (acc, v) => Json::F64(acc.as_f64().unwrap_or(0.0) + v.as_f64().unwrap_or(0.0)),
                }),
            ),
            Fold::Max(name) => out.set(
                name,
                Json::U64(values(key).filter_map(Json::as_u64).max().unwrap_or(0)),
            ),
            Fold::Rate => {
                let total = |k| out.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                let (events, wall_ms) =
                    (total("events_processed_total"), total("sim_wall_ms_total"));
                let rate = if wall_ms > 0.0 {
                    events / (wall_ms / 1e3)
                } else {
                    0.0
                };
                out.set(key, Json::F64(rate));
            }
        }
    }
    out.set("jobs_executed", Json::U64(summary.executed as u64));
    out.set("jobs_cached", Json::U64(summary.cache_hits as u64));
    out
}

/// The schema-versioned report object. With `--stable-json`, wall-clock
/// and cache fields are omitted so byte-identical inputs yield
/// byte-identical reports (the determinism tests rely on this).
pub fn build_report(
    cli: &BenchCli,
    reports: &[(&'static dyn Figure, FigureReport)],
    summary: &RunSummary,
) -> Json {
    let mut out = Json::obj([
        ("schema_version", Json::U64(CACHE_SCHEMA_VERSION as u64)),
        ("generator", Json::Str("rlb-bench".to_string())),
        ("scale", Json::Str(cli.scale.name().to_string())),
        ("seeds", Json::U64(cli.seeds as u64)),
        (
            "figures",
            Json::Arr(
                reports
                    .iter()
                    .map(|(f, _)| {
                        Json::obj([
                            ("name", Json::Str(f.name().to_string())),
                            ("description", Json::Str(f.description().to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rows",
            Json::Obj(
                reports
                    .iter()
                    .map(|(f, r)| (f.name().to_string(), r.rows.clone()))
                    .collect(),
            ),
        ),
        (
            "points",
            Json::Arr(
                summary
                    .outcomes
                    .iter()
                    .map(|o| point_json(o, cli.stable_json))
                    .collect(),
            ),
        ),
    ]);
    if !cli.stable_json {
        out.set(
            "timing",
            Json::obj([
                ("executed", Json::U64(summary.executed as u64)),
                ("cache_hits", Json::U64(summary.cache_hits as u64)),
                ("total_wall_ms", Json::F64(summary.total_wall_ms)),
            ]),
        );
        out.set("perf", perf_aggregate(summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_defaults_and_rejects_unknown() {
        let cli = BenchCli::default();
        let all = resolve_figures(&cli).expect("all figures");
        assert_eq!(all.len(), registry().len());
        let cli = BenchCli {
            figs: Some(vec!["fig6".into()]),
            ..BenchCli::default()
        };
        let subset = resolve_figures(&cli).expect("subset");
        assert_eq!(subset.len(), 1);
        assert_eq!(subset[0].name(), "fig6");

        let cli = BenchCli {
            figs: Some(vec!["fig3".into(), "nope".into()]),
            ..BenchCli::default()
        };
        let err = match resolve_figures(&cli) {
            Err(e) => e,
            Ok(_) => panic!("unknown figure must be rejected"),
        };
        assert!(err.contains("nope") && err.contains("fig3"), "{err}");
    }

    #[test]
    fn perf_aggregate_keeps_key_names_and_order() {
        let point = |n: u64| JobOutcome {
            fig: "fig3",
            label: "x".into(),
            seed: n,
            key_hex: "00".into(),
            metrics: Json::obj([(
                "perf",
                Json::Obj(
                    PERF.iter()
                        .map(|(k, _, _)| (k.to_string(), Json::U64(n)))
                        .collect(),
                ),
            )]),
            wall_ms: 0.0,
            cached: false,
        };
        let summary = RunSummary {
            outcomes: vec![point(1), point(2)],
            cache_hits: 0,
            executed: 2,
            total_wall_ms: 0.0,
        };
        let agg = perf_aggregate(&summary);
        let Json::Obj(members) = &agg else {
            panic!("aggregate must be an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "events_processed_total",
                "sim_wall_ms_total",
                "events_per_sec",
                "decisions_total",
                "snapshot_reuses_total",
                "snapshot_refreshes_total",
                "snapshot_rebuilds_total",
                "snapshot_dirty_queue_spines_total",
                "snapshot_dirty_sig_spines_total",
                "arena_high_water_max",
                "arena_capacity_max",
                "shards_max",
                "window_advances_total",
                "cross_shard_messages_total",
                "barrier_stalls_total",
                "jobs_executed",
                "jobs_cached",
            ]
        );
        let num = |k| agg.get(k).and_then(Json::as_f64).expect(k);
        assert_eq!(num("decisions_total").to_bits(), 3f64.to_bits());
        assert_eq!(num("shards_max").to_bits(), 2f64.to_bits());
        // 3 events over 3 ms of loop time.
        assert!((num("events_per_sec") - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn stable_report_omits_timing_fields() {
        let outcome = JobOutcome {
            fig: "fig3",
            label: "x".into(),
            seed: 1,
            key_hex: "00".into(),
            metrics: Json::obj([
                ("m", Json::U64(1)),
                (
                    "perf",
                    Json::obj([
                        ("events_processed", Json::U64(5000)),
                        ("wall_ms", Json::F64(250.0)),
                        ("events_per_sec", Json::F64(20_000.0)),
                    ]),
                ),
            ]),
            wall_ms: 12.0,
            cached: true,
        };
        let summary = RunSummary {
            outcomes: vec![outcome],
            cache_hits: 1,
            executed: 0,
            total_wall_ms: 12.0,
        };
        let mut cli = BenchCli::default();
        let full = build_report(&cli, &[], &summary);
        assert!(full.get("timing").is_some());
        let p = &full.path(&["points"]).unwrap().as_arr().unwrap()[0];
        assert!(p.get("wall_ms").is_some());
        assert!(p.path(&["metrics", "perf", "events_per_sec"]).is_some());
        // Aggregate: 5000 events over 250 ms = 20k events/sec.
        assert_eq!(
            full.path(&["perf", "events_processed_total"])
                .and_then(Json::as_u64),
            Some(5000)
        );
        let rate = full
            .path(&["perf", "events_per_sec"])
            .and_then(Json::as_f64)
            .expect("aggregate rate");
        assert!((rate - 20_000.0).abs() < 1e-9, "rate={rate}");

        cli.stable_json = true;
        let stable = build_report(&cli, &[], &summary);
        assert!(stable.get("timing").is_none());
        assert!(stable.get("perf").is_none());
        let p = &stable.path(&["points"]).unwrap().as_arr().unwrap()[0];
        assert!(p.get("wall_ms").is_none() && p.get("cached").is_none());
        assert!(p.path(&["metrics", "perf"]).is_none());
        assert!(p.path(&["metrics", "m"]).is_some());
        assert_eq!(
            stable.get("schema_version").and_then(Json::as_u64),
            Some(CACHE_SCHEMA_VERSION as u64)
        );
    }
}
