//! Time-varying offered load: a piecewise-constant multiplier curve.
//!
//! Scenario specs use this to shape Poisson arrival intensity over the run
//! (diurnal ramps, bursts, quiet tails) without touching the base load
//! calibration. Multipliers are integer permille (parts-per-thousand), so
//! curves are exactly representable in spec files, `Eq`-comparable, and
//! deterministic to re-parse.

use rlb_engine::SimTime;

/// Piecewise-constant offered-load multiplier over time.
///
/// Each point `(from, permille)` sets the multiplier from that instant
/// until the next point; before the first point the multiplier is 1000
/// (nominal). An empty curve is the flat nominal curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadCurve {
    points: Vec<(SimTime, u32)>,
}

impl LoadCurve {
    /// The identity curve: 1000‰ everywhere.
    pub fn flat() -> LoadCurve {
        LoadCurve { points: Vec::new() }
    }

    /// Build from `(from, permille)` segments. Rejects unsorted points and
    /// zero multipliers (a zero-rate segment would stall arrival generation
    /// forever instead of pausing it).
    pub fn new(points: Vec<(SimTime, u32)>) -> Result<LoadCurve, String> {
        for (i, w) in points.windows(2).enumerate() {
            if w[1].0 < w[0].0 {
                return Err(format!(
                    "load curve point {} at {} ps precedes point {} at {} ps \
                     (points must be sorted by time)",
                    i + 1,
                    w[1].0.as_ps(),
                    i,
                    w[0].0.as_ps()
                ));
            }
        }
        if let Some((i, _)) = points.iter().enumerate().find(|(_, p)| p.1 == 0) {
            return Err(format!("load curve point {i} has zero multiplier"));
        }
        Ok(LoadCurve { points })
    }

    pub fn is_flat(&self) -> bool {
        self.points.is_empty() || self.points.iter().all(|p| p.1 == 1000)
    }

    /// The multiplier in effect at instant `t`, in permille.
    pub fn permille_at(&self, t: SimTime) -> u32 {
        let mut m = 1000;
        for &(from, permille) in &self.points {
            if from > t {
                break;
            }
            m = permille;
        }
        m
    }

    pub fn points(&self) -> &[(SimTime, u32)] {
        &self.points
    }
}

impl Default for LoadCurve {
    fn default() -> Self {
        LoadCurve::flat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_curve_is_nominal_everywhere() {
        let c = LoadCurve::flat();
        assert!(c.is_flat());
        assert_eq!(c.permille_at(SimTime::ZERO), 1000);
        assert_eq!(c.permille_at(SimTime::from_ms(100)), 1000);
    }

    #[test]
    fn segments_apply_from_their_start() {
        let c = LoadCurve::new(vec![
            (SimTime::from_us(10), 500),
            (SimTime::from_us(20), 2000),
        ])
        .unwrap();
        assert!(!c.is_flat());
        assert_eq!(c.permille_at(SimTime::ZERO), 1000);
        assert_eq!(c.permille_at(SimTime::from_us(10)), 500);
        assert_eq!(c.permille_at(SimTime::from_us(15)), 500);
        assert_eq!(c.permille_at(SimTime::from_us(20)), 2000);
        assert_eq!(c.permille_at(SimTime::from_ms(5)), 2000);
    }

    #[test]
    fn unsorted_and_zero_points_are_rejected() {
        assert!(LoadCurve::new(vec![
            (SimTime::from_us(20), 500),
            (SimTime::from_us(10), 800),
        ])
        .unwrap_err()
        .contains("sorted"));
        assert!(LoadCurve::new(vec![(SimTime::ZERO, 0)])
            .unwrap_err()
            .contains("zero multiplier"));
    }
}
