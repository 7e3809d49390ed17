//! The predicting module (§3.2.1): per-ingress-queue PFC prediction from
//! the queue-length derivative.
//!
//! Every Δt the switch feeds the predictor the ingress queue's byte count.
//! The predictor computes the growth rate over the interval and warns when
//! all of the following hold:
//!
//! 1. the queue is already past the warning threshold Qth (the paper
//!    "first checks whether the ingress queue length exceeds a certain
//!    threshold ... and only performs prediction when there is congestion");
//! 2. the queue is growing (positive derivative);
//! 3. at the current rate the PFC threshold will be reached within the
//!    prediction horizon — `(Q_PFC − Q) / dQ/dt ≤ horizon`;
//! 4. PFC has not actually fired yet (once `Q ≥ Q_PFC` the real PAUSE
//!    supersedes any warning).
//!
//! The predictor also reports when the danger has passed (queue back below
//! Qth or shrinking), which lets the switch stop refreshing warnings so
//! they expire upstream.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// PFC is predicted to trigger within the horizon: emit/refresh a CNM.
    Warn,
    /// No danger at this sample.
    Clear,
}

/// Per-ingress-port PFC predictor state.
#[derive(Debug, Clone)]
pub struct PfcPredictor {
    qth_bytes: u64,
    q_pfc_bytes: u64,
    horizon_ps: u64,
    last_sample: Option<(u64, u64)>, // (time_ps, queue_bytes)
    pub warns_issued: u64,
}

impl PfcPredictor {
    pub fn new(qth_bytes: u64, q_pfc_bytes: u64, horizon_ps: u64) -> PfcPredictor {
        assert!(qth_bytes <= q_pfc_bytes, "Qth must not exceed Q_PFC");
        assert!(horizon_ps > 0);
        PfcPredictor {
            qth_bytes,
            q_pfc_bytes,
            horizon_ps,
            last_sample: None,
            warns_issued: 0,
        }
    }

    pub fn qth_bytes(&self) -> u64 {
        self.qth_bytes
    }

    /// Feed one queue-length sample. Call once per Δt per ingress port.
    pub fn on_sample(&mut self, now_ps: u64, queue_bytes: u64) -> Prediction {
        let prev = self.last_sample.replace((now_ps, queue_bytes));
        // Condition 1: congestion gate.
        if queue_bytes < self.qth_bytes {
            return Prediction::Clear;
        }
        // Condition 4: PFC already fired — the real PAUSE handles it. The
        // warning is still useful (the path *is* dangerous), and the paper
        // keeps warning until the queue drains, so we warn here too.
        if queue_bytes >= self.q_pfc_bytes {
            self.warns_issued += 1;
            return Prediction::Warn;
        }
        let Some((t0, q0)) = prev else {
            return Prediction::Clear;
        };
        let dt = now_ps.saturating_sub(t0);
        if dt == 0 {
            return Prediction::Clear;
        }
        // Condition 2: growth.
        if queue_bytes <= q0 {
            return Prediction::Clear;
        }
        // Condition 3: time to threshold within horizon.
        // (q_pfc - q) / ((q - q0)/dt) <= horizon  ⇔
        // (q_pfc - q) * dt <= horizon * (q - q0)   — integer-exact.
        let headroom = (self.q_pfc_bytes - queue_bytes) as u128;
        let growth = (queue_bytes - q0) as u128;
        if headroom * dt as u128 <= self.horizon_ps as u128 * growth {
            self.warns_issued += 1;
            Prediction::Warn
        } else {
            Prediction::Clear
        }
    }

    /// Drop derivative history (e.g. after the port goes idle), so the next
    /// sample can't compute a rate against a stale baseline.
    pub fn reset(&mut self) {
        self.last_sample = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QTH: u64 = 64_000;
    const QPFC: u64 = 256_000;
    const H: u64 = 4_000_000; // 4 µs horizon
    const DT: u64 = 2_000_000; // 2 µs sampling

    fn pred() -> PfcPredictor {
        PfcPredictor::new(QTH, QPFC, H)
    }

    #[test]
    fn quiet_queue_never_warns() {
        let mut p = pred();
        for i in 0..100 {
            assert_eq!(p.on_sample(i * DT, 1_000), Prediction::Clear);
        }
        assert_eq!(p.warns_issued, 0);
    }

    #[test]
    fn fast_growth_above_qth_warns() {
        let mut p = pred();
        // 100 KB → 180 KB in 2 µs: rate 40 KB/µs, headroom 76 KB → 1.9 µs
        // to PFC, well inside the 4 µs horizon.
        assert_eq!(p.on_sample(0, 100_000), Prediction::Clear); // first sample: no rate yet
        assert_eq!(p.on_sample(DT, 180_000), Prediction::Warn);
    }

    #[test]
    fn growth_below_qth_is_gated_out() {
        let mut p = pred();
        // Steep growth but still under Qth: condition 1 gates it.
        assert_eq!(p.on_sample(0, 1_000), Prediction::Clear);
        assert_eq!(p.on_sample(DT, 50_000), Prediction::Clear);
    }

    #[test]
    fn slow_growth_far_from_threshold_stays_clear() {
        let mut p = pred();
        // Above Qth but creeping: 70 KB → 71 KB per 2 µs. Headroom 185 KB /
        // 0.5 KB/µs = 370 µs ≫ horizon.
        assert_eq!(p.on_sample(0, 70_000), Prediction::Clear);
        assert_eq!(p.on_sample(DT, 71_000), Prediction::Clear);
    }

    #[test]
    fn shrinking_queue_clears_even_when_high() {
        let mut p = pred();
        p.on_sample(0, 200_000);
        assert_eq!(p.on_sample(DT, 150_000), Prediction::Clear);
    }

    #[test]
    fn at_or_above_pfc_threshold_always_warns() {
        let mut p = pred();
        assert_eq!(p.on_sample(0, QPFC), Prediction::Warn);
        assert_eq!(p.on_sample(DT, QPFC + 10_000), Prediction::Warn);
    }

    #[test]
    fn boundary_exactly_at_horizon_warns() {
        let mut p = pred();
        // growth 40 KB per 2 µs; pick q so headroom/rate == horizon exactly:
        // headroom = H * growth / dt = 4 µs * 40 KB / 2 µs = 80 KB.
        let q = QPFC - 80_000;
        p.on_sample(0, q - 40_000);
        assert_eq!(p.on_sample(DT, q), Prediction::Warn);
        // One byte more headroom → just outside the horizon.
        let mut p2 = pred();
        let q2 = QPFC - 80_001;
        p2.on_sample(0, q2 - 40_000);
        assert_eq!(p2.on_sample(DT, q2), Prediction::Clear);
    }

    #[test]
    fn reset_forgets_rate_baseline() {
        let mut p = pred();
        p.on_sample(0, 100_000);
        p.reset();
        // After reset this is a "first" sample again: no derivative.
        assert_eq!(p.on_sample(DT, 200_000), Prediction::Clear);
        // But the next one warns.
        assert_eq!(p.on_sample(2 * DT, 240_000), Prediction::Warn);
    }

    #[test]
    fn irregular_sampling_intervals_are_handled() {
        let mut p = pred();
        p.on_sample(0, 100_000);
        // 10 µs gap with the same total growth: rate is 5× lower.
        // 100→180 KB over 10 µs = 8 KB/µs; headroom 76 KB → 9.5 µs > horizon.
        assert_eq!(p.on_sample(10 * 1_000_000, 180_000), Prediction::Clear);
    }

    #[test]
    #[should_panic(expected = "Qth must not exceed")]
    fn qth_above_qpfc_rejected() {
        PfcPredictor::new(QPFC + 1, QPFC, H);
    }
}
