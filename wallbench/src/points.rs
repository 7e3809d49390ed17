//! The benchmark's workloads as closed batches of experiment points,
//! generated from the benchmark's seed.
//!
//! The seed never re-draws a workload's flow set or fault timeline. A
//! re-drawn web-search mix moves the event volume of a batch by 15-30% from
//! seed to seed, and moving the outages to other links by about 5%, which
//! would swamp the run-to-run differences the benchmark exists to detect.
//! Instead the seed re-seeds every switch: ECN marking and the load
//! balancers' random choices. Every packet's path and timing therefore
//! differ between seeds while the offered bytes stay the same.
//!
//! Both workloads are single points, so a batch keeps one core busy. There
//! is no multi-point sweep that keeps both cores busy: on a shared 2-core
//! host such a sweep's wall time spread by more than a quarter from run to
//! run, more than any bound the benchmark may set.

use crate::trace::Scope;
use rlb_net::{hash_u64, Scenario, ScenarioSpec};

pub const WORKLOADS: [&str; 2] = ["paper_outage", "incast_storm"];

const PAPER_OUTAGE: &str = include_str!("../specs/paper_outage.toml");
const INCAST_STORM: &str = include_str!("../specs/incast_storm.toml");

/// One experiment point: the program's whole input for one simulation.
#[derive(Debug, Clone)]
pub struct Point {
    pub id: usize,
    pub label: String,
    /// Seed of the point's flow set (fixed per workload).
    pub traffic_seed: u64,
    /// Seed of the switches' random streams (from the benchmark's seed).
    pub sim_seed: u64,
    /// Scenario spec text, parsed by the simulator's spec reader.
    pub spec: String,
}

impl Point {
    /// Build the runnable scenario through the layers a user goes through:
    /// `ScenarioSpec::parse` and `build`.
    pub fn scenario(&self, scope: &Scope) -> Result<Scenario, String> {
        let spec = scope
            .span("net.spec_parse", |_| ScenarioSpec::parse(&self.spec))
            .map_err(|e| e.to_string())?;
        let mut sc = scope.span("net.scenario_build", |_| spec.build())?;
        sc.cfg.seed = self.sim_seed;
        Ok(sc)
    }

    /// The point's identity in the runner's job table.
    pub fn job_spec(&self) -> String {
        format!("sim_seed={}|{}", self.sim_seed, self.spec)
    }
}

pub fn points(workload: &str, seed: u64) -> Result<Vec<Point>, String> {
    match workload {
        "paper_outage" => Ok(vec![spec_point(PAPER_OUTAGE, seed)?]),
        "incast_storm" => Ok(vec![spec_point(INCAST_STORM, seed)?]),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn spec_point(text: &str, seed: u64) -> Result<Point, String> {
    let spec = ScenarioSpec::parse(text).map_err(|e| e.to_string())?;
    Ok(Point {
        id: 0,
        label: spec.label(),
        traffic_seed: spec.seed,
        sim_seed: hash_u64(seed),
        spec: text.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(workload: &str, seed: u64) -> String {
        points(workload, seed)
            .expect("known workload")
            .iter()
            .map(|p| {
                let sc = p.scenario(&Scope::default()).expect("valid input");
                format!("{:?}|{:?}", sc.cfg, sc.flows)
            })
            .collect()
    }

    #[test]
    fn the_seed_changes_every_workloads_inputs() {
        for w in WORKLOADS {
            assert_eq!(
                fingerprint(w, 1),
                fingerprint(w, 1),
                "{w}: same seed, same inputs"
            );
            assert_ne!(
                fingerprint(w, 1),
                fingerprint(w, 2),
                "{w}: new seed, new inputs"
            );
        }
    }

    #[test]
    fn the_seed_keeps_the_offered_flow_set() {
        for w in WORKLOADS {
            let flows = |seed| -> Vec<String> {
                points(w, seed)
                    .expect("known workload")
                    .iter()
                    .map(|p| format!("{:?}", p.scenario(&Scope::default()).expect("valid").flows))
                    .collect()
            };
            assert_eq!(flows(1), flows(2), "{w}");
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(points("nope", 1).is_err());
    }
}
