//! Golden-backed experiment results for the paper-finding tests.
//!
//! The paper-finding tests assert qualitative claims (monotonicity,
//! crossings, cutoffs) over grids of simulation runs. Re-simulating the
//! grids on every `cargo test` made the suite's cold-cache cost dominate
//! CI; [`golden_outcomes`] instead loads a committed `results/<name>.json`
//! when one exists and only re-simulates when
//!
//! * the file is missing (first run — the file is then written), or
//! * `DSV_REGEN=1` is set (explicit regeneration), or
//! * never silently: if the committed file was generated from *different*
//!   job configurations than the test now requests, the checksum guard
//!   fails loudly instead of returning stale outcomes.
//!
//! The checksum is FNV-1a over every job's `(kind, config JSON)`, so any
//! change to a tested configuration (grid points, seeds, profiles)
//! invalidates the golden by construction.
//!
//! One loader body serves every testbed family: [`golden_outcomes`],
//! [`golden_aggregate`] and [`golden_flows`] differ only in the outcome
//! type they return.

use std::fs;
use std::path::PathBuf;

use serde::{Deserialize, Serialize, Value};

use crate::aggregate::{AggregateConfig, AggregateOutcome};
use crate::experiment::RunOutcome;
use crate::flows::FlowsOutcome;
use crate::keys::fnv1a64;
use crate::local::LocalConfig;
use crate::qbone::QboneConfig;
use crate::runner::{local_grid, qbone_grid, FlowJob, GridPoint, Job, Runner};
use crate::sweep::SweepResult;

/// On-disk format of a golden results file, whatever the outcome type.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenFile {
    /// FNV-1a (hex) over the generating jobs' kinds + config JSON.
    config_fnv: String,
    /// Number of jobs (redundant with `outcomes.len()`, kept for diffs).
    jobs: usize,
    /// One outcome per job, in job order.
    outcomes: Vec<Value>,
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn regen_requested() -> bool {
    matches!(
        std::env::var("DSV_REGEN").ok().as_deref(),
        Some("1") | Some("true") | Some("on")
    )
}

/// Checksum over the jobs that generate a golden file.
fn config_fnv<P: GridPoint>(jobs: &[P]) -> String {
    let mut bytes = Vec::new();
    for job in jobs {
        bytes.extend_from_slice(job.kind().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(job.config_json().as_bytes());
        bytes.push(0xff);
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// Outcomes for `jobs`, loaded from `results/<name>.json` when the
/// committed golden matches, otherwise simulated (and the golden
/// rewritten). See module docs for the exact rules.
fn golden<P: GridPoint>(name: &str, jobs: &[P]) -> Vec<P::Outcome> {
    let path = results_dir().join(format!("{name}.json"));
    let sum = config_fnv(jobs);
    let unreadable = |e: serde::Error| -> ! {
        panic!(
            "golden {} is unreadable ({e}); regenerate with DSV_REGEN=1",
            path.display()
        )
    };

    if !regen_requested() {
        if let Ok(text) = fs::read_to_string(&path) {
            let file: GoldenFile = serde_json::from_str(&text).unwrap_or_else(|e| unreadable(e));
            assert_eq!(
                file.config_fnv,
                sum,
                "stale golden {}: it was generated from different job \
                 configurations (checksum {} on disk, {} expected). The tested \
                 grid changed — rerun with DSV_REGEN=1 and commit the result.",
                path.display(),
                file.config_fnv,
                sum
            );
            assert_eq!(
                file.outcomes.len(),
                jobs.len(),
                "golden {}: outcome count mismatch despite matching checksum",
                path.display()
            );
            return file
                .outcomes
                .iter()
                .map(|v| P::Outcome::from_value(v).unwrap_or_else(|e| unreadable(e)))
                .collect();
        }
    }

    let outcomes = Runner::from_env().outcomes(jobs);
    let file = GoldenFile {
        config_fnv: sum,
        jobs: jobs.len(),
        outcomes: outcomes.iter().map(Serialize::to_value).collect(),
    };
    let text = serde_json::to_string_pretty(&file).expect("golden serializes");
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    // Atomic replace so a parallel reader never sees a half-written file.
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, &text).expect("write golden temp file");
    fs::rename(&tmp, &path).expect("publish golden file");
    outcomes
}

/// Golden-backed outcomes for `jobs` (see module docs).
///
/// # Panics
/// Panics if the committed golden was generated from different job
/// configurations (stale golden) or cannot be parsed — both cases need a
/// deliberate `DSV_REGEN=1` rerun, never a silent re-bless.
pub fn golden_outcomes(name: &str, jobs: &[Job]) -> Vec<RunOutcome> {
    golden(name, jobs)
}

/// A golden-backed QBone sweep: the same `rates × depths` grid
/// [`crate::sweep::qbone_sweep`] runs, with outcomes served through
/// [`golden_outcomes`] under the same staleness rules.
pub fn golden_qbone_sweep(
    name: &str,
    base: &QboneConfig,
    rates: &[u64],
    depths: &[u32],
    label: &str,
) -> SweepResult {
    let jobs = qbone_grid(base, rates, depths);
    SweepResult::assemble(golden_outcomes(name, &jobs), rates, depths, label)
}

/// A golden-backed local-testbed sweep (see [`golden_qbone_sweep`]).
pub fn golden_local_sweep(
    name: &str,
    base: &LocalConfig,
    rates: &[u64],
    depths: &[u32],
    label: &str,
) -> SweepResult {
    let jobs = local_grid(base, rates, depths);
    SweepResult::assemble(golden_outcomes(name, &jobs), rates, depths, label)
}

/// Golden-backed EF-aggregate outcomes, under the [`golden_outcomes`]
/// rules.
///
/// # Panics
/// Panics on a stale or unreadable golden — regenerate deliberately with
/// `DSV_REGEN=1`.
pub fn golden_aggregate(name: &str, cfgs: &[AggregateConfig]) -> Vec<AggregateOutcome> {
    golden(name, cfgs)
}

/// Golden-backed transport-level outcomes, under the
/// [`golden_outcomes`] rules.
///
/// # Panics
/// Panics on a stale or unreadable golden — regenerate deliberately with
/// `DSV_REGEN=1`.
pub fn golden_flows(name: &str, jobs: &[FlowJob]) -> Vec<FlowsOutcome> {
    golden(name, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::af_tcp::AfTcpConfig;
    use crate::experiment::{EfProfile, DEPTH_2MTU, DEPTH_3MTU};
    use crate::qbone::{ClipId2, QboneConfig};
    use crate::smoothing::{SmoothingConfig, SmoothingServer};

    #[test]
    fn checksum_tracks_configuration() {
        let a = Job::Qbone(QboneConfig::new(
            ClipId2::Lost,
            1_500_000,
            EfProfile::new(1_600_000, DEPTH_2MTU),
        ));
        let b = Job::Qbone(QboneConfig::new(
            ClipId2::Lost,
            1_500_000,
            EfProfile::new(1_600_000, DEPTH_3MTU),
        ));
        assert_eq!(
            config_fnv(std::slice::from_ref(&a)),
            config_fnv(std::slice::from_ref(&a))
        );
        assert_ne!(
            config_fnv(std::slice::from_ref(&a)),
            config_fnv(std::slice::from_ref(&b))
        );
        assert_ne!(config_fnv(&[a.clone(), b.clone()]), config_fnv(&[b, a]));
    }

    #[test]
    fn flow_checksum_tracks_configuration() {
        let a = FlowJob::Smoothing(SmoothingConfig::new(
            ClipId2::Lost,
            1_500_000,
            SmoothingServer::Tcp,
            EfProfile::new(1_600_000, DEPTH_2MTU),
        ));
        let b = FlowJob::AfTcp(AfTcpConfig::new(vec![1_000_000; 2], vec![0, 20]));
        let mut c = AfTcpConfig::new(vec![1_000_000; 2], vec![0, 20]);
        c.trtcm = true;
        let c = FlowJob::AfTcp(c);
        assert_eq!(
            config_fnv(std::slice::from_ref(&a)),
            config_fnv(std::slice::from_ref(&a))
        );
        assert_ne!(
            config_fnv(std::slice::from_ref(&b)),
            config_fnv(std::slice::from_ref(&c)),
            "the marker kind is part of the tested configuration"
        );
        assert_ne!(config_fnv(&[a.clone(), b.clone()]), config_fnv(&[b, a]));
    }
}
