//! Hermes (Zhang et al., SIGCOMM 2017): resilient, *deliberate* rerouting.
//!
//! Hermes senses each path with end-to-end signals (ECN fraction and RTT),
//! classifies paths as good / grey / bad, and reroutes a flow only when
//! that visibly pays off: the current path has turned bad, a clearly better
//! path exists, and the flow has sent enough bytes since its last reroute
//! that switching cannot thrash. This caution limits reordering in lossy
//! fabrics — but the signals are end-to-end and therefore *lag* hop-by-hop
//! PFC pausing (§2.2.1: "the ECN and RTT signals employed in Hermes are
//! difficult to feedback hop-by-hop PFC pausing in time").
//!
//! The classification thresholds follow the Hermes paper's structure,
//! parameterized on the fabric's base RTT.

use crate::api::{Ctx, LoadBalancer, PathIdx, PathInfo};
use rand::Rng;
use rlb_engine::{FlowTable, SimRng};

#[derive(Debug, Clone)]
pub struct HermesConfig {
    /// Uncongested fabric round-trip, ns.
    pub base_rtt_ns: f64,
    /// Path is "good" if ECN fraction below this and RTT below
    /// `rtt_good_factor * base_rtt`.
    pub ecn_good: f64,
    /// Path is "bad" if ECN fraction above this or RTT above
    /// `rtt_bad_factor * base_rtt`.
    pub ecn_bad: f64,
    pub rtt_good_factor: f64,
    pub rtt_bad_factor: f64,
    /// Minimum RTT advantage (ns) a candidate must show before a reroute.
    pub delta_rtt_ns: f64,
    /// A flow must have sent this many bytes since its last (re)route
    /// before Hermes will consider moving it again.
    pub min_bytes_between_reroutes: u64,
}

impl Default for HermesConfig {
    fn default() -> Self {
        let base = 10_000.0; // 10 µs
        HermesConfig {
            base_rtt_ns: base,
            ecn_good: 0.1,
            ecn_bad: 0.4,
            rtt_good_factor: 2.0,
            rtt_bad_factor: 4.0,
            delta_rtt_ns: base * 0.5,
            min_bytes_between_reroutes: 32 * 1024,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathClass {
    Good,
    Grey,
    Bad,
}

#[derive(Debug, Clone, Copy)]
struct FlowState {
    path: PathIdx,
    bytes_since_reroute: u64,
}

pub struct Hermes {
    cfg: HermesConfig,
    flows: FlowTable<FlowState>,
    rng: SimRng,
    pub reroutes: u64,
}

impl Hermes {
    pub fn new(rng: SimRng) -> Hermes {
        Hermes::with_config(rng, HermesConfig::default())
    }

    pub fn with_config(rng: SimRng, cfg: HermesConfig) -> Hermes {
        Hermes {
            cfg,
            flows: FlowTable::new(),
            rng,
            reroutes: 0,
        }
    }

    fn classify(&self, p: &PathInfo) -> PathClass {
        if p.ecn_fraction > self.cfg.ecn_bad
            || p.rtt_ns > self.cfg.rtt_bad_factor * self.cfg.base_rtt_ns
        {
            PathClass::Bad
        } else if p.ecn_fraction < self.cfg.ecn_good
            && p.rtt_ns < self.cfg.rtt_good_factor * self.cfg.base_rtt_ns
        {
            PathClass::Good
        } else {
            PathClass::Grey
        }
    }

    /// Best candidate: good paths first, then grey; within a class the
    /// lowest RTT wins, queue length breaking ties.
    fn best_path(&mut self, ctx: &Ctx<'_>) -> PathIdx {
        let mut best: Option<(PathClass, f64, u64, PathIdx)> = None;
        for (i, p) in ctx.paths.iter().enumerate() {
            let class = self.classify(p);
            let key = (class, p.rtt_ns, p.queue_bytes, i);
            let better = match &best {
                None => true,
                Some((bc, brtt, bq, _)) => {
                    let rank = |c: PathClass| match c {
                        PathClass::Good => 0,
                        PathClass::Grey => 1,
                        PathClass::Bad => 2,
                    };
                    (rank(class), p.rtt_ns, p.queue_bytes) < (rank(*bc), *brtt, *bq)
                }
            };
            if better {
                best = Some(key);
            }
        }
        let (best_class, best_rtt, _, best_idx) = best.expect("non-empty path set");
        // Random tie-break among equivalent best paths so new flows spread.
        let ties: Vec<PathIdx> = ctx
            .paths
            .iter()
            .enumerate()
            .filter(|(_, p)| self.classify(p) == best_class && (p.rtt_ns - best_rtt).abs() < 1e-9)
            .map(|(i, _)| i)
            .collect();
        if ties.len() > 1 {
            ties[self.rng.gen_range(0..ties.len())]
        } else {
            best_idx
        }
    }
}

impl LoadBalancer for Hermes {
    fn name(&self) -> &'static str {
        "Hermes"
    }

    fn select(&mut self, ctx: &Ctx<'_>) -> PathIdx {
        let n = ctx.paths.len();
        match self.flows.get(ctx.flow_id).copied() {
            None => {
                let path = self.best_path(ctx);
                self.flows.insert(
                    ctx.flow_id,
                    FlowState {
                        path,
                        bytes_since_reroute: ctx.pkt_bytes as u64,
                    },
                );
                path
            }
            Some(mut st) => {
                if st.path >= n {
                    st.path %= n;
                }
                let current = &ctx.paths[st.path];
                let mut chosen = st.path;
                if self.classify(current) == PathClass::Bad
                    && st.bytes_since_reroute >= self.cfg.min_bytes_between_reroutes
                {
                    let cand = self.best_path(ctx);
                    let cp = &ctx.paths[cand];
                    // Deliberate switch: only to a good path with a clear
                    // RTT advantage (Hermes: reroute only if it gains).
                    if cand != st.path
                        && self.classify(cp) == PathClass::Good
                        && current.rtt_ns - cp.rtt_ns > self.cfg.delta_rtt_ns
                    {
                        chosen = cand;
                        self.reroutes += 1;
                        st.bytes_since_reroute = 0;
                    }
                }
                st.path = chosen;
                st.bytes_since_reroute += ctx.pkt_bytes as u64;
                self.flows.insert(ctx.flow_id, st);
                chosen
            }
        }
    }

    fn on_flow_complete(&mut self, flow_id: u64) {
        self.flows.remove(flow_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_engine::substream;

    fn ctx(paths: &[PathInfo], flow_id: u64) -> Ctx<'_> {
        Ctx {
            now_ps: 0,
            flow_id,
            dst_leaf: 0,
            seq: 0,
            pkt_bytes: 1000,
            paths,
        }
    }

    fn lb() -> Hermes {
        Hermes::new(substream(3, b"hermes-test", 0))
    }

    fn congested(rtt_ns: f64, ecn: f64) -> PathInfo {
        PathInfo {
            rtt_ns,
            ecn_fraction: ecn,
            ..PathInfo::default()
        }
    }

    #[test]
    fn new_flow_picks_a_good_low_rtt_path() {
        let mut paths = vec![congested(100_000.0, 0.9); 4]; // all bad
        paths[2] = congested(12_000.0, 0.0); // good
        let mut h = lb();
        assert_eq!(h.select(&ctx(&paths, 1)), 2);
    }

    #[test]
    fn flow_sticks_to_its_path_while_it_stays_healthy() {
        let paths = vec![PathInfo::default(); 4];
        let mut h = lb();
        let p = h.select(&ctx(&paths, 1));
        for _ in 0..200 {
            assert_eq!(h.select(&ctx(&paths, 1)), p);
        }
        assert_eq!(h.reroutes, 0);
    }

    #[test]
    fn reroutes_away_from_bad_path_after_enough_bytes() {
        let mut paths = vec![PathInfo::default(); 4];
        let mut h = lb();
        let p = h.select(&ctx(&paths, 1));
        // Turn the chosen path bad; others stay good.
        paths[p].rtt_ns = 100_000.0;
        paths[p].ecn_fraction = 0.9;
        // Below the byte threshold Hermes must not thrash.
        let early = h.select(&ctx(&paths, 1));
        assert_eq!(early, p, "rerouted before sending enough bytes");
        // Push enough bytes through.
        for _ in 0..40 {
            h.select(&ctx(&paths, 1));
        }
        let late = h.select(&ctx(&paths, 1));
        assert_ne!(late, p, "never escaped the bad path");
        assert!(h.reroutes >= 1);
    }

    #[test]
    fn no_reroute_without_clear_gain() {
        // Current path is bad, but every alternative is bad too.
        let paths = vec![congested(100_000.0, 0.9); 4];
        let mut h = lb();
        let p = h.select(&ctx(&paths, 1));
        for _ in 0..100 {
            assert_eq!(h.select(&ctx(&paths, 1)), p);
        }
        assert_eq!(h.reroutes, 0);
    }

    #[test]
    fn grey_paths_preferred_over_bad_for_new_flows() {
        let mut paths = vec![congested(100_000.0, 0.9); 3]; // bad
        paths[1] = congested(25_000.0, 0.2); // grey
        let mut h = lb();
        assert_eq!(h.select(&ctx(&paths, 7)), 1);
    }

    #[test]
    fn classification_thresholds() {
        let h = lb();
        assert_eq!(h.classify(&congested(12_000.0, 0.05)), PathClass::Good);
        assert_eq!(h.classify(&congested(12_000.0, 0.2)), PathClass::Grey);
        assert_eq!(h.classify(&congested(12_000.0, 0.6)), PathClass::Bad);
        assert_eq!(h.classify(&congested(45_000.0, 0.0)), PathClass::Bad);
        assert_eq!(h.classify(&congested(25_000.0, 0.0)), PathClass::Grey);
    }

    #[test]
    fn new_flows_spread_across_equivalent_paths() {
        let paths = vec![PathInfo::default(); 8];
        let mut h = lb();
        let mut used = std::collections::HashSet::new();
        for f in 0..64 {
            used.insert(h.select(&ctx(&paths, f)));
        }
        assert!(used.len() >= 4, "tie-break should spread: {used:?}");
    }
}
