//! Output checks: a digest of everything a point simulated, and the
//! invariants every point must hold.

use rlb_bench::runner::fnv1a_64;
use rlb_net::RunResult;

/// FNV-1a over the simulated outputs: every flow record (finish times
/// included), the flow groups, the fabric counters, the per-port PFC pause
/// ledger, the OOD histogram and the end time. Host-time telemetry (`perf`)
/// and `events_processed` are left out: the sharded driver replicates some
/// global ticks per shard, so its event count legitimately differs.
pub fn digest(res: &RunResult) -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        res.records,
        res.groups,
        res.counters,
        res.pfc_pauses_by_port,
        res.ood_histogram,
        res.end_time
    );
    fnv1a_64(text.as_bytes())
}

/// The invariants of a correct run: every flow finishes, and with PFC on
/// the fabric is lossless and every PAUSE is matched by a RESUME.
pub fn invariants(res: &RunResult, pfc: bool) -> Result<(), String> {
    let c = &res.counters;
    if pfc && c.buffer_drops != 0 {
        return Err(format!("{} buffer drops with PFC on", c.buffer_drops));
    }
    if pfc && c.pause_frames != c.resume_frames {
        return Err(format!(
            "{} PAUSE frames but {} RESUME frames",
            c.pause_frames, c.resume_frames
        ));
    }
    let unfinished = res.records.iter().filter(|r| !r.completed()).count();
    if unfinished != 0 {
        return Err(format!(
            "{unfinished} of {} flows did not complete",
            res.records.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_engine::SimTime;
    use rlb_lb::Scheme;
    use rlb_net::{SimConfig, Simulation, TopoConfig};
    use rlb_workloads::FlowSpec;

    fn small_run() -> RunResult {
        let cfg = SimConfig {
            topo: TopoConfig {
                n_leaves: 2,
                n_spines: 2,
                hosts_per_leaf: 4,
                ..TopoConfig::default()
            },
            scheme: Scheme::Drill,
            hard_stop: SimTime::from_ms(50),
            ..SimConfig::default()
        };
        // Four senders converge on one receiver so PFC engages.
        let flows = (0..4)
            .map(|s| FlowSpec::new(SimTime::ZERO, s, 4, 400_000))
            .collect();
        Simulation::new(cfg, flows).run()
    }

    #[test]
    fn a_correct_run_passes() {
        let res = small_run();
        assert!(
            res.counters.pause_frames > 0,
            "the check must see PFC at work"
        );
        assert_eq!(invariants(&res, true), Ok(()));
        assert_eq!(digest(&res), digest(&small_run()), "replay is exact");
    }

    #[test]
    fn broken_invariants_fail_the_point() {
        let mut res = small_run();
        res.counters.buffer_drops = 1;
        assert!(invariants(&res, true).is_err());
        assert!(
            invariants(&res, false).is_ok(),
            "drops are legal without PFC"
        );

        let mut res = small_run();
        res.counters.resume_frames += 1;
        assert!(invariants(&res, true).is_err());

        let mut res = small_run();
        res.records[0].finish_ps = None;
        assert!(invariants(&res, true).is_err());
    }

    #[test]
    fn the_digest_sees_simulated_outputs_but_not_host_telemetry() {
        let res = small_run();
        let base = digest(&res);
        let mut r = small_run();
        r.records[0].finish_ps = r.records[0].finish_ps.map(|t| t + 1);
        assert_ne!(digest(&r), base);
        let mut r = small_run();
        r.counters.cnm_relayed += 1;
        assert_ne!(digest(&r), base);
        let mut r = small_run();
        r.perf.wall_ms += 1.0;
        r.events_processed += 1;
        assert_eq!(digest(&r), base);
    }
}
