//! Bounded-window parallel driver for sharded simulations.
//!
//! The topology is partitioned into shards — shard 0 owns every spine,
//! each remaining shard owns a contiguous band of leaves plus their hosts
//! (see `Simulation::shard_for`) — and each shard runs its own
//! [`Simulation`] replica over the events of the entities it owns.
//! Synchronization is a conservative bounded-window protocol: with every
//! cross-shard interaction (leaf↔spine `LinkArrive`, `PauseFrame`)
//! carrying at least one link propagation delay, a window of width
//! `W = link_delay` starting at the global minimum pending time `g` can be
//! dispatched by every shard independently — nothing produced inside
//! `[g, g+W)` can affect another shard before `g+W`.
//!
//! One round per window:
//!
//! 1. every thread redundantly reads all shard statuses and computes the
//!    same decision (continue / complete / drained / hard-stop) — no
//!    coordinator thread, no communication beyond the statuses;
//! 2. each shard dispatches its local events in `[g, min(g+W, stop))` and
//!    publishes its cross-shard sends into per-(dst, src) mailboxes;
//! 3. barrier; each shard drains its mailboxes into its event queue and
//!    publishes a fresh status (next pending time, completions, audit
//!    cut);
//! 4. barrier; next round.
//!
//! Determinism is inherited, not synchronized-for: events are keyed by
//! `(sched_ps, entity rank, per-entity counter)` — identical regardless of
//! which shard executes the entity or how messages are routed — so each
//! shard's dispatch order equals the restriction of the sequential order
//! to its entities, and the merged result is byte-identical to
//! `--shards 1`, which is byte-identical to the sequential engine by
//! construction (it uses the same keys). Output-visible side effects that
//! a shard applies to *shared* aggregates (fabric counters, per-flow
//! recirculations) are journaled with their canonical key and folded at
//! the round barrier; on the completion round the fold is trimmed to the
//! globally-last completion key so counter totals match the sequential
//! prefix exactly.
//!
//! `events_processed` is the one value that legitimately differs from a
//! sequential run: global ticks are replicated per shard and the final
//! window may dispatch events past the last completion, so the figure
//! pipeline keeps it out of stable output.

use crate::config::SimConfig;
use crate::monitor::FabricTimeSeries;
use crate::sim::{PerfStats, RunResult, ShardParts, Simulation, WireMsg};
use crate::trace::FlowTraces;
use rlb_engine::SimTime;
use rlb_metrics::{FabricCounters, LogHistogram};
use rlb_workloads::FlowSpec;
use std::sync::{Barrier, Mutex};

/// Per-shard state published at each round barrier; every thread reads all
/// of them to compute the (identical) window decision.
#[derive(Debug, Default, Clone, Copy)]
struct Status {
    /// Earliest pending local event, `None` if the shard's queue drained.
    next: Option<SimTime>,
    /// Local clock (time of the last dispatched event).
    now: SimTime,
    /// Flows completed so far (completion is detected on the src shard).
    completed: usize,
    /// `(t_ps, key)` of this shard's canonically-last flow completion.
    last_completion: Option<(u64, u128)>,
    /// Cumulative `(injected, arrived, dropped, in_fabric)` audit cut.
    #[cfg(feature = "audit")]
    cut: (u64, u64, u64, u64),
}

/// What each worker thread hands back for the merge.
#[derive(Debug, Clone, Copy)]
struct ShardOutcome {
    dispatched: u64,
    cross_msgs: u64,
    stalls: u64,
    windows: u64,
    decision: Decision,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Decision {
    /// Dispatch the window `[g, end)`.
    Advance { end: SimTime },
    /// All flows finished; `k` is the globally-last completion `(t, key)`.
    Complete { k: (u64, u128) },
    /// Every shard's queue is empty; `end` is the last event time.
    Drained { end: SimTime },
    /// The earliest pending event lies past the horizon; `end` is its
    /// time, matching the sequential engine (which pops it, advancing the
    /// clock, before breaking).
    HardStop { end: SimTime },
}

/// Pure function of the published statuses — every thread evaluates it on
/// the same snapshot and must reach the same decision.
fn decide(st: &[Status], n_flows: usize, hard_stop: SimTime, w_ps: u64) -> Decision {
    let completed: usize = st.iter().map(|s| s.completed).sum();
    if n_flows > 0 && completed == n_flows {
        let k = st
            .iter()
            .filter_map(|s| s.last_completion)
            .max()
            .expect("completed flows imply a completion record");
        return Decision::Complete { k };
    }
    match st.iter().filter_map(|s| s.next).min() {
        None => Decision::Drained {
            end: st.iter().map(|s| s.now).max().unwrap_or(SimTime(0)),
        },
        Some(g) if g > hard_stop => Decision::HardStop { end: g },
        Some(g) => Decision::Advance {
            // +1 so `pop_before`'s strict bound still dispatches events at
            // exactly `hard_stop`, like the sequential engine does.
            end: SimTime(
                g.as_ps()
                    .saturating_add(w_ps)
                    .min(hard_stop.as_ps().saturating_add(1)),
            ),
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn worker(
    sim: &mut Simulation,
    me: usize,
    n_flows: usize,
    hard_stop: SimTime,
    w_ps: u64,
    statuses: &[Mutex<Status>],
    mailbox: &[Vec<Mutex<Vec<WireMsg>>>],
    barrier: &Barrier,
) -> ShardOutcome {
    let publish = |sim: &mut Simulation| {
        let mut st = statuses[me].lock().expect("status lock");
        st.next = sim.next_event_time();
        st.now = sim.local_now();
        st.completed = sim.completed_flows();
        st.last_completion = sim.last_completion();
        #[cfg(feature = "audit")]
        {
            st.cut = sim.audit_partial(false);
        }
    };
    publish(sim);
    barrier.wait();

    let mut out = ShardOutcome {
        dispatched: 0,
        cross_msgs: 0,
        stalls: 0,
        windows: 0,
        decision: Decision::Drained { end: SimTime(0) },
    };
    loop {
        let decision = {
            let snap: Vec<Status> =
                statuses.iter().map(|m| *m.lock().expect("status lock")).collect();
            // A single shard only sees its side of each flow, so packet
            // conservation is asserted here, over the summed cuts, once
            // per round.
            #[cfg(feature = "audit")]
            {
                let injected: u64 = snap.iter().map(|s| s.cut.0).sum();
                let accounted: u64 = snap.iter().map(|s| s.cut.1 + s.cut.2 + s.cut.3).sum();
                assert_eq!(
                    injected, accounted,
                    "sharded audit violation [packet-conservation]: \
                     {injected} injected vs {accounted} accounted"
                );
            }
            decide(&snap, n_flows, hard_stop, w_ps)
        };
        // The journal now holds exactly the previous window's effects. On
        // every non-terminal round (and on drain/hard-stop, whose
        // dispatched sets equal the sequential engine's) they are all part
        // of the sequential prefix; on completion, trim to the
        // globally-last completion key.
        match decision {
            Decision::Advance { end } => {
                sim.fold_journal(None);
                let d = sim.dispatch_window(end);
                out.dispatched += d;
                out.windows += 1;
                if d == 0 {
                    out.stalls += 1;
                }
                for (dst, dst_boxes) in mailbox.iter().enumerate() {
                    if dst == me {
                        continue;
                    }
                    let msgs = sim.take_outbox(dst as u16);
                    if !msgs.is_empty() {
                        out.cross_msgs += msgs.len() as u64;
                        dst_boxes[me].lock().expect("mailbox lock").extend(msgs);
                    }
                }
                barrier.wait();
                for src_box in &mailbox[me] {
                    let msgs = std::mem::take(&mut *src_box.lock().expect("mailbox lock"));
                    sim.deliver(msgs);
                }
                publish(sim);
                barrier.wait();
            }
            Decision::Complete { k } => {
                sim.fold_journal(Some(k));
                out.decision = decision;
                break;
            }
            Decision::Drained { .. } | Decision::HardStop { .. } => {
                sim.fold_journal(None);
                out.decision = decision;
                break;
            }
        }
    }

    // Terminal sweep: per-shard drain checks (PFC pairing, buffer books)
    // plus one last global conservation balance over the final cuts.
    #[cfg(feature = "audit")]
    {
        barrier.wait(); // everyone is past the terminal decision reads
        statuses[me].lock().expect("status lock").cut = sim.audit_partial(true);
        barrier.wait();
        let (mut injected, mut accounted) = (0u64, 0u64);
        for m in statuses {
            let s = m.lock().expect("status lock");
            injected += s.cut.0;
            accounted += s.cut.1 + s.cut.2 + s.cut.3;
        }
        assert_eq!(
            injected, accounted,
            "sharded audit violation [packet-conservation] at drain: \
             {injected} injected vs {accounted} accounted"
        );
    }
    out
}

/// Run `specs` under `cfg` on `shards` shards and merge the results.
///
/// Falls back to the sequential engine when sharding cannot help or is not
/// supported: `shards <= 1`, fabric monitoring (timeseries sampling reads
/// global state mid-run), or per-flow packet traces. The shard count is
/// clamped to `1 + n_leaves` (spine shard + one shard per leaf).
pub(crate) fn run_sharded(cfg: SimConfig, specs: Vec<FlowSpec>, shards: u16) -> RunResult {
    let n_shards = shards.min(1 + cfg.topo.n_leaves as u16);
    if n_shards <= 1 || cfg.monitor.is_some() || !cfg.trace_flows.is_empty() {
        return Simulation::new(cfg, specs).run();
    }
    let n = n_shards as usize;
    let n_flows = specs.len();
    let hard_stop = cfg.hard_stop;
    let w_ps = cfg.link_delay().as_ps();
    assert!(w_ps > 0, "bounded-window sharding needs a nonzero link delay");

    let mut sims: Vec<Simulation> = (0..n_shards)
        .map(|s| Simulation::new_shard(cfg.clone(), specs.clone(), s, n_shards))
        .collect();
    let statuses: Vec<Mutex<Status>> = (0..n).map(|_| Mutex::new(Status::default())).collect();
    let mailbox: Vec<Vec<Mutex<Vec<WireMsg>>>> = (0..n)
        .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let barrier = Barrier::new(n);

    let wall_start = std::time::Instant::now(); // lint:allow(wall-clock)
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let (statuses, mailbox, barrier) = (&statuses, &mailbox, &barrier);
        let handles: Vec<_> = sims
            .iter_mut()
            .enumerate()
            .map(|(me, sim)| {
                scope.spawn(move || {
                    worker(
                        sim, me, n_flows, hard_stop, w_ps, statuses, mailbox, barrier,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    let wall = wall_start.elapsed();

    let (end_time, events_processed) = {
        let total: u64 = outcomes.iter().map(|o| o.dispatched).sum();
        let end = match outcomes[0].decision {
            Decision::Complete { k } => SimTime(k.0),
            Decision::Advance { .. } => unreachable!("terminal decision"),
            Decision::Drained { end } | Decision::HardStop { end } => end,
        };
        (end, total)
    };

    let endpoints: Vec<(u16, u16)> = (0..n_flows)
        .map(|i| sims[0].flow_endpoint_shards(i))
        .collect();
    let parts: Vec<ShardParts> = sims.into_iter().map(Simulation::into_parts).collect();

    // Per-flow records: sender-side fields live on the src shard, OOO
    // reception on the dst shard, and recirculations accumulate on
    // whichever shards own the recirculating switches.
    let mut records = Vec::with_capacity(n_flows);
    for (i, &(src_s, dst_s)) in endpoints.iter().enumerate() {
        let mut rec = parts[src_s as usize].records[i].clone();
        let dst = &parts[dst_s as usize].records[i];
        rec.ooo_packets = dst.ooo_packets;
        rec.max_ood = dst.max_ood;
        rec.recirculations = parts.iter().map(|p| p.records[i].recirculations).sum();
        records.push(rec);
    }

    let mut counters = FabricCounters::default();
    let mut ood_histogram = LogHistogram::default();
    let mut pfc_pauses_by_port = std::collections::BTreeMap::new();
    for p in &parts {
        counters.merge(&p.counters);
        ood_histogram.merge(&p.ood_histogram);
        for (&k, &v) in &p.pfc_pauses_by_port {
            *pfc_pauses_by_port.entry(k).or_insert(0) += v;
        }
    }

    let eps = if wall.as_secs_f64() > 0.0 {
        events_processed as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    let perf = PerfStats {
        wall_ms: wall.as_secs_f64() * 1e3,
        events_per_sec: eps,
        decisions: parts.iter().map(|p| p.perf_decisions).sum(),
        snapshot_reuses: parts.iter().map(|p| p.snap_reuses).sum(),
        snapshot_refreshes: parts.iter().map(|p| p.snap_refreshes).sum(),
        snapshot_rebuilds: parts.iter().map(|p| p.snap_rebuilds).sum(),
        snapshot_dirty_queue_spines: parts.iter().map(|p| p.snap_dirty_q_spines).sum(),
        snapshot_dirty_sig_spines: parts.iter().map(|p| p.snap_dirty_sig_spines).sum(),
        arena_high_water: parts.iter().map(|p| p.arena_high_water).max().unwrap_or(0),
        arena_capacity: parts.iter().map(|p| p.arena_capacity).max().unwrap_or(0),
        shards: n as u64,
        window_advances: outcomes[0].windows,
        cross_shard_messages: outcomes.iter().map(|o| o.cross_msgs).sum(),
        barrier_stalls: outcomes.iter().map(|o| o.stalls).sum(),
    };

    RunResult {
        records,
        counters,
        ood_histogram,
        end_time,
        events_processed,
        groups: parts[0].groups.clone(),
        timeseries: FabricTimeSeries::default(),
        traces: FlowTraces::default(),
        pfc_pauses_by_port,
        perf,
    }
}
