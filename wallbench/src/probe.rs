//! Layer probes: each times one layer's public calls in isolation, with the
//! call shapes of the criterion groups in `crates/bench/benches/components.rs`
//! and inputs sized from the workload being measured.

use crate::trace::now;
use rlb_core::{PfcPredictor, Prediction, Rlb, RlbConfig};
use rlb_engine::{substream, EventQueue, FlowTable, PacketArena, SimTime};
use rlb_lb::{build, Ctx, PathInfo, Scheme};
use rlb_transport::{GbnReceiver, GbnSender, RxAction};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Every scheme the simulator can deploy.
pub const SCHEMES: [Scheme; 6] = [
    Scheme::Ecmp,
    Scheme::Presto,
    Scheme::LetFlow,
    Scheme::Hermes,
    Scheme::Drill,
    Scheme::Conga,
];

/// The workload properties a probe is sized from.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Paths per decision: the fabric's spine count.
    pub spines: usize,
    /// Ports sampled by one predictor tick: a leaf's port count.
    pub ports: usize,
    /// Flows of the largest point.
    pub flows: usize,
    /// Peak packets parked in the arena.
    pub arena_high_water: usize,
    /// Share of paths a decision sees warned.
    pub warned_share: f64,
}

/// Probe results, ns per operation.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub wheel: f64,
    pub arena: f64,
    pub flowtable: f64,
    pub predictor: f64,
    pub gbn: f64,
    /// Per scheme name: (`select`, full RLB decision).
    pub per_scheme: BTreeMap<&'static str, (f64, f64)>,
}

pub fn measure(shape: &Shape, schemes: &[Scheme]) -> Probes {
    Probes {
        wheel: wheel_ns(shape),
        arena: arena_ns(shape),
        flowtable: flowtable_ns(shape),
        predictor: predictor_tick_ns(shape),
        gbn: gbn_packet_ns(),
        per_scheme: schemes
            .iter()
            .map(|&s| (s.name(), (select_ns(s, shape), rlb_decide_ns(s, shape))))
            .collect(),
    }
}

/// Median ns per operation over `REPEATS` timed rounds of `ops` operations.
fn ns_per_op(ops: u64, mut round: impl FnMut(u64) -> u64) -> f64 {
    const REPEATS: usize = 5;
    black_box(round(ops / 4)); // warm caches and allocator
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = now();
            black_box(round(ops));
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPEATS / 2]
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One pop plus one reschedule on a wheel holding one pending event per
/// parked packet and flow, with serialization-scale deltas (<= 3 us).
fn wheel_ns(shape: &Shape) -> f64 {
    let pending = (shape.arena_high_water + shape.flows).max(1) as u64;
    ns_per_op(400_000, |ops| {
        let mut q = EventQueue::new();
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..pending {
            q.schedule(SimTime(1 + xorshift(&mut s) % 3_000_000), i);
        }
        let mut acc = 0u64;
        for _ in 0..ops {
            let (t, e) = q.pop().expect("hold model never drains");
            acc = acc.wrapping_add(e);
            q.schedule(SimTime(t.as_ps() + 1 + xorshift(&mut s) % 3_000_000), e);
        }
        acc
    })
}

/// Stand-in for a queued packet, roughly `rlb_net::Packet`-sized.
#[derive(Clone, Copy)]
struct FatPacket {
    size_bytes: u32,
    flow: u32,
    _cold: [u64; 7],
}

/// One alloc plus one free in FIFO order at the workload's peak occupancy.
fn arena_ns(shape: &Shape) -> f64 {
    let live = shape.arena_high_water.max(1);
    ns_per_op(400_000, |ops| {
        let mut arena: PacketArena<FatPacket> = PacketArena::with_capacity(live);
        let mut fifo = std::collections::VecDeque::with_capacity(live);
        let pkt = |i: u64| FatPacket {
            size_bytes: 1_000 + (i % 512) as u32,
            flow: i as u32,
            _cold: [i; 7],
        };
        for i in 0..live as u64 {
            let p = pkt(i);
            fifo.push_back(arena.alloc(p.size_bytes, p.flow, false, i, p));
        }
        let mut acc = 0u64;
        for i in 0..ops {
            let h = fifo.pop_front().expect("arena kept at peak occupancy");
            let (out, size) = arena.free_sized(h);
            acc = acc.wrapping_add(out.flow as u64 + size as u64);
            let p = pkt(i);
            fifo.push_back(arena.alloc(p.size_bytes, p.flow, false, i, p));
        }
        acc
    })
}

/// One lookup-or-insert on a flow table holding the workload's flow count,
/// with the criterion group's churn: a removal every 64 operations and an
/// expiry sweep every 4096.
fn flowtable_ns(shape: &Shape) -> f64 {
    let flows = shape.flows.max(1) as u64;
    // Mostly dense ids with a sparse tail, as real runs produce.
    let key = |i: u64| if i % 8 == 7 { (1 << 40) + i * 131 } else { i };
    ns_per_op(400_000, |ops| {
        let mut t: FlowTable<u64> = FlowTable::new();
        let mut s = 0x5851_f42d_4c95_7f2du64;
        let mut acc = 0u64;
        for n in 0..ops {
            let k = key(xorshift(&mut s) % flows);
            match t.get_mut(k) {
                Some(v) => {
                    *v = v.wrapping_add(1);
                    acc ^= *v;
                }
                None => {
                    t.insert(k, n);
                }
            }
            if n % 64 == 0 {
                t.remove(key(xorshift(&mut s) % flows));
            }
            if n % 4096 == 0 {
                t.retain(|_, v| *v % 7 != 0);
            }
        }
        acc.wrapping_add(t.len() as u64)
    })
}

fn paths(shape: &Shape) -> Vec<PathInfo> {
    let warned_every = if shape.warned_share > 0.0 {
        (1.0 / shape.warned_share).round().max(1.0) as usize
    } else {
        usize::MAX
    };
    (0..shape.spines.max(1))
        .map(|i| PathInfo {
            warned: i % warned_every == 0,
            rtt_ns: 10_000.0 + i as f64 * 100.0,
            queue_bytes: (i * 5_000) as u64,
            ..PathInfo::default()
        })
        .collect()
}

fn ctx(seq: u32, flows: u64, paths: &[PathInfo]) -> Ctx<'_> {
    Ctx {
        now_ps: seq as u64 * 200_000,
        flow_id: seq as u64 % flows,
        dst_leaf: 0,
        seq,
        pkt_bytes: 1000,
        paths,
    }
}

/// One `select` of the scheme over the workload's path count.
fn select_ns(scheme: Scheme, shape: &Shape) -> f64 {
    let paths = paths(shape);
    let flows = shape.flows.max(1) as u64;
    ns_per_op(400_000, |ops| {
        let mut lb = build(scheme, 1000, substream(1, b"wallbench", scheme as u64));
        let mut acc = 0u64;
        for seq in 0..ops as u32 {
            acc = acc.wrapping_add(lb.select(&ctx(seq, flows, &paths)) as u64);
        }
        acc
    })
}

/// One full RLB decision (inner select plus Algorithm 1) with the
/// workload's share of warned paths.
fn rlb_decide_ns(scheme: Scheme, shape: &Shape) -> f64 {
    let paths = paths(shape);
    let flows = shape.flows.max(1) as u64;
    ns_per_op(400_000, |ops| {
        let inner = build(scheme, 1000, substream(1, b"wallbench", scheme as u64));
        let mut rlb = Rlb::new(inner, RlbConfig::default());
        let mut acc = 0u64;
        for seq in 0..ops as u32 {
            acc = acc.wrapping_add(match rlb.decide(&ctx(seq, flows, &paths), 0) {
                rlb_core::Decision::Forward(p) => p as u64,
                _ => 1 << 20,
            });
        }
        acc
    })
}

/// One coalesced predictor tick: sample every port of one switch.
fn predictor_tick_ns(shape: &Shape) -> f64 {
    let ports = shape.ports.max(1);
    ns_per_op(100_000, |ops| {
        let mut preds: Vec<PfcPredictor> = (0..ports)
            .map(|_| PfcPredictor::new(64_000, 256_000, 4_000_000))
            .collect();
        let mut warns = 0u64;
        for tick in 1..=ops {
            let t = tick * 2_000_000;
            for (i, p) in preds.iter_mut().enumerate() {
                let q = (t / 500 + i as u64 * 7_000) % 300_000;
                if p.on_sample(t, q) == Prediction::Warn {
                    warns += 1;
                }
            }
        }
        warns
    })
}

/// Go-back-N sender and receiver cost per data packet, over 64-packet
/// flows as in the criterion group.
fn gbn_packet_ns() -> f64 {
    const PKTS: u32 = 64;
    ns_per_op(640_000, |ops| {
        let mut done = 0u64;
        for _ in 0..ops / PKTS as u64 {
            let mut tx = GbnSender::new(PKTS);
            let mut rx = GbnReceiver::new(PKTS);
            while let Some(psn) = tx.take_next() {
                if let RxAction::Deliver { ack_psn } = rx.on_packet(psn) {
                    tx.on_ack(ack_psn);
                }
            }
            done += tx.is_complete() as u64;
        }
        done
    })
}
