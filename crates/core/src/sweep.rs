//! Parameter sweeps — the experiment grids behind the paper's figures.
//!
//! Every QBone figure (7–12) is a sweep of token rate for two bucket
//! depths at a fixed clip/encoding; the local-testbed figures sweep the
//! same parameters for the WMT server configurations. These helpers run
//! those grids and collect `(rate, depth) → outcome` points.

use serde::{Deserialize, Serialize};

use crate::experiment::RunOutcome;
use crate::local::LocalConfig;
use crate::qbone::QboneConfig;
use crate::runner::Runner;

/// One grid point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Token rate, bps.
    pub token_rate_bps: u64,
    /// Bucket depth, bytes.
    pub bucket_depth_bytes: u32,
    /// What happened.
    pub outcome: RunOutcome,
}

/// A full sweep with its provenance label.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Human-readable description ("QBone / Lost / 1.7 Mbps").
    pub label: String,
    /// All points, in (depth, rate) iteration order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The curve for one bucket depth, ordered by token rate:
    /// `(rate, quality, frame_loss)`.
    pub fn curve(&self, depth: u32) -> Vec<(u64, f64, f64)> {
        let mut pts: Vec<(u64, f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.bucket_depth_bytes == depth)
            .map(|p| (p.token_rate_bps, p.outcome.quality, p.outcome.frame_loss))
            .collect();
        pts.sort_by_key(|p| p.0);
        pts
    }

    /// Pair outcomes in the runner's depth-major grid order (see
    /// [`crate::runner::Runner::qbone_sweep`]) with their `(rate, depth)`.
    pub(crate) fn assemble(
        outcomes: Vec<RunOutcome>,
        rates: &[u64],
        depths: &[u32],
        label: impl Into<String>,
    ) -> SweepResult {
        let points = depths
            .iter()
            .flat_map(|&depth| rates.iter().map(move |&rate| (rate, depth)))
            .zip(outcomes)
            .map(
                |((token_rate_bps, bucket_depth_bytes), outcome)| SweepPoint {
                    token_rate_bps,
                    bucket_depth_bytes,
                    outcome,
                },
            )
            .collect();
        SweepResult {
            label: label.into(),
            points,
        }
    }

    /// Depths present in the sweep.
    pub fn depths(&self) -> Vec<u32> {
        let mut d: Vec<u32> = self.points.iter().map(|p| p.bucket_depth_bytes).collect();
        d.sort_unstable();
        d.dedup();
        d
    }
}

/// A standard token-rate grid for an encoding: from 0.85× the nominal rate
/// up to 1.45×, concentrated where the paper sampled (around and above
/// the average rate). Grid values round to the nearest bps, so the
/// endpoints are exactly `0.85×` and `1.45×` the nominal rate (truncation
/// used to shave up to 1 bps off every point, including both endpoints).
pub fn default_rate_grid(nominal_bps: u64, steps: usize) -> Vec<u64> {
    assert!(steps >= 2);
    let lo = 0.85 * nominal_bps as f64;
    let hi = 1.45 * nominal_bps as f64;
    (0..steps)
        .map(|i| (lo + (hi - lo) * i as f64 / (steps - 1) as f64).round() as u64)
        .collect()
}

/// Run a QBone figure's grid: `rates × depths` for one clip/encoding.
///
/// Executes through [`Runner::from_env`]: points fan out across worker
/// threads and hit the persistent result cache (see [`crate::runner`]);
/// the result is identical to a serial, uncached run.
pub fn qbone_sweep(
    base: &QboneConfig,
    rates: &[u64],
    depths: &[u32],
    label: impl Into<String>,
) -> SweepResult {
    Runner::from_env().qbone_sweep(base, rates, depths, label)
}

/// Run a local-testbed grid. Same execution model as [`qbone_sweep`].
pub fn local_sweep(
    base: &LocalConfig,
    rates: &[u64],
    depths: &[u32],
    label: impl Into<String>,
) -> SweepResult {
    Runner::from_env().local_sweep(base, rates, depths, label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{EfProfile, DEPTH_2MTU, DEPTH_3MTU};
    use crate::qbone::ClipId2;

    #[test]
    fn grid_spans_the_paper_range() {
        let g = default_rate_grid(1_700_000, 9);
        assert_eq!(g.len(), 9);
        assert!(g[0] < 1_700_000, "starts below the encoding rate");
        assert!(*g.last().unwrap() > 2_047_496, "ends above the max rate");
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn grid_endpoints_are_exact() {
        // 0.85 × 1.7M and 1.45 × 1.7M are whole bps values; rounding (not
        // truncation) must reproduce them exactly at both ends.
        let g = default_rate_grid(1_700_000, 9);
        assert_eq!(g[0], 1_445_000);
        assert_eq!(*g.last().unwrap(), 2_465_000);
        // A nominal rate that makes the endpoints non-integral rounds to
        // the nearest bps instead of truncating toward zero.
        let g = default_rate_grid(999_999, 2);
        assert_eq!(g[0], (0.85f64 * 999_999.0).round() as u64);
        assert_eq!(g[1], (1.45f64 * 999_999.0).round() as u64);
    }

    #[test]
    fn sweep_collects_all_points_and_curves() {
        // Tiny 2×2 grid to keep the test fast.
        let base = QboneConfig::new(
            ClipId2::Lost,
            1_000_000,
            EfProfile::new(1_000_000, DEPTH_2MTU),
        );
        let rates = vec![900_000u64, 1_400_000];
        let res = qbone_sweep(&base, &rates, &[DEPTH_2MTU, DEPTH_3MTU], "test");
        assert_eq!(res.points.len(), 4);
        assert_eq!(res.depths(), vec![DEPTH_2MTU, DEPTH_3MTU]);
        let c = res.curve(DEPTH_2MTU);
        assert_eq!(c.len(), 2);
        assert!(c[0].0 < c[1].0);
        // Starved should be worse than generous.
        assert!(c[0].1 > c[1].1, "curve {:?}", c);
    }
}
