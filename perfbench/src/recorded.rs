//! The committed recordings under `results/`, read as the expected
//! outcome of every grid point at the committed seed.
//!
//! Each file is parsed into the program's own outcome types and must
//! re-serialize to exactly its committed bytes, so comparing one point's
//! outcome JSON with the re-serialized recording is a byte-for-byte
//! comparison with what is committed. The golden files' `config_fnv`
//! checksum must also match the benchmark's grid, so a drifted grid is
//! caught rather than compared against the wrong points.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use dsv_core::aggregate::AggregateOutcome;
use dsv_core::flows::FlowsOutcome;
use dsv_core::keys::fnv1a64;
use dsv_core::sweep::SweepResult;
use serde::{Deserialize, Serialize};

use crate::grid::{Batch, Point, Recording};

/// A `findings_*` golden holding per-flow transport outcomes.
#[derive(Serialize, Deserialize)]
struct FlowsGolden {
    config_fnv: String,
    jobs: usize,
    outcomes: Vec<FlowsOutcome>,
}

/// The aggregate golden.
#[derive(Serialize, Deserialize)]
struct AggregateGolden {
    config_fnv: String,
    jobs: usize,
    outcomes: Vec<AggregateOutcome>,
}

/// Read `results/<name>.json`, parse it, and check it re-serializes to
/// its committed bytes.
fn load<T: Serialize + Deserialize>(results: &Path, name: &str) -> Result<T, String> {
    let path = results.join(format!("{name}.json"));
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value: T = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let again = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
    if again != text {
        return Err(format!(
            "{} does not re-serialize to its committed bytes",
            path.display()
        ));
    }
    Ok(value)
}

fn compact<T: Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

/// The golden checksum over `points`: FNV-1a over every config's kind
/// and JSON, as the golden loaders compute it.
fn config_fnv(points: &[&Point]) -> String {
    let mut bytes = Vec::new();
    for p in points {
        bytes.extend_from_slice(p.kind().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(p.config_json().as_bytes());
        bytes.push(0xff);
    }
    format!("{:016x}", fnv1a64(&bytes))
}

fn check_fnv(name: &str, on_disk: &str, points: &[&Point]) -> Result<(), String> {
    let ours = config_fnv(points);
    if on_disk != ours {
        return Err(format!(
            "{name}: recorded for other configs (checksum {on_disk}, grid {ours})"
        ));
    }
    Ok(())
}

/// The expected outcome JSON of every point of `batches`, in order.
pub fn expected(results: &Path, batches: &[Batch]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for batch in batches {
        let n = batch.points.len();
        match batch.recording {
            Recording::Sweep(name) => {
                let sweep: SweepResult = load(results, name)?;
                if sweep.points.len() != n {
                    return Err(format!(
                        "{name}: {} points, grid has {n}",
                        sweep.points.len()
                    ));
                }
                for (point, rec) in batch.points.iter().zip(&sweep.points) {
                    let profile = match point {
                        Point::Qbone(c) => c.profile,
                        Point::Local(c) => c.profile,
                        _ => return Err(format!("{name}: not a sweep grid")),
                    };
                    if (rec.token_rate_bps, rec.bucket_depth_bytes)
                        != (profile.token_rate_bps, profile.bucket_depth_bytes)
                    {
                        return Err(format!("{name}: grid order differs from the recording"));
                    }
                    out.push(compact(&rec.outcome)?);
                }
            }
            Recording::Flows(name) => {
                let golden: FlowsGolden = load(results, name)?;
                let points: Vec<&Point> = batch.points.iter().collect();
                check_fnv(name, &golden.config_fnv, &points)?;
                for rec in &golden.outcomes {
                    out.push(compact(rec)?);
                }
            }
            Recording::Rotations(name) => {
                let golden: AggregateGolden = load(results, name)?;
                let base: Vec<&Point> = batch
                    .points
                    .iter()
                    .filter(|p| matches!(p, Point::Aggregate(c) if c.rotation == 0))
                    .collect();
                check_fnv(name, &golden.config_fnv, &base)?;
                let index: HashMap<String, usize> = base
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.config_json(), i))
                    .collect();
                for point in &batch.points {
                    let Point::Aggregate(cfg) = point else {
                        return Err(format!("{name}: not an aggregate grid"));
                    };
                    let unrotated = Point::Aggregate(cfg.clone().with_rotation(0)).config_json();
                    let rec = &golden.outcomes[index[&unrotated]];
                    // The pairs are identical and in phase: the outcome at
                    // each declaration position is the unrotated run's,
                    // and label `l` sits at position `(l - rotation) mod n`.
                    let n = cfg.flows as usize;
                    let r = cfg.rotation as usize % n;
                    let per_flow = (0..n)
                        .map(|l| rec.per_flow[(l + n - r) % n].clone())
                        .collect();
                    out.push(compact(&AggregateOutcome { per_flow })?);
                }
            }
        }
    }
    Ok(out)
}
