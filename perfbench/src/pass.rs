//! One timed pass: every batch of a workload through the program's own
//! `Runner`, whose workers each take the next point only when their
//! previous point is done (a closed loop of `workers` clients).

use std::path::Path;
use std::time::{Duration, Instant};

use dsv_core::prelude::*;
use dsv_core::profile::{self, ProfileSnapshot};
use dsv_core::runner::ClusterPoint;

use crate::grid::{Batch, Point};

/// A runner configured explicitly, so no `DSV_*` setting reaches it:
/// `workers` threads, the result cache in `cache`, exact clustering.
pub fn runner(workers: usize, cache: &Path) -> Runner {
    Runner::serial()
        .with_threads(workers)
        .with_cache(Some(cache.to_path_buf()))
        .with_progress(false)
        .with_cluster(ClusterMode::Exact)
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time inside the runner calls.
    pub wall: Duration,
    /// Each point's outcome JSON, in grid order.
    pub outcomes: Vec<String>,
    /// Points simulated in this pass.
    pub simulated: u64,
    /// Points served from the result cache.
    pub cached: u64,
    /// Points transplanted from their symmetry class's representative.
    pub reused: u64,
    /// The program's own stage profile over the pass.
    pub profile: ProfileSnapshot,
}

/// Run every batch through `runner`, timing only the runner calls.
pub fn run_pass(runner: &Runner, batches: &[Batch]) -> Pass {
    let before = profile::snapshot();
    let mut pass = Pass::default();
    for batch in batches {
        let (wall, points) = run_batch(runner, &batch.points);
        pass.wall += wall;
        for (json, source) in points {
            match source {
                PointSource::Simulated => pass.simulated += 1,
                PointSource::Cached => pass.cached += 1,
                PointSource::Reused { .. } => pass.reused += 1,
                PointSource::Interpolated { .. } => unreachable!("exact mode never interpolates"),
            }
            pass.outcomes.push(json);
        }
    }
    pass.profile = profile::snapshot().since(&before);
    pass
}

/// One runner call over `points` (all of one runner family), timed.
pub fn run_batch(runner: &Runner, points: &[Point]) -> (Duration, Vec<(String, PointSource)>) {
    match points.first() {
        None => (Duration::ZERO, Vec::new()),
        Some(Point::Qbone(_) | Point::Local(_)) => {
            let jobs: Vec<Job> = points
                .iter()
                .map(|p| match p {
                    Point::Qbone(c) => Job::Qbone(c.clone()),
                    Point::Local(c) => Job::Local(c.clone()),
                    _ => unreachable!("a batch holds one runner family"),
                })
                .collect();
            timed(|| runner.run_clustered(&jobs))
        }
        Some(Point::Aggregate(_)) => {
            let cfgs: Vec<AggregateConfig> = points
                .iter()
                .map(|p| match p {
                    Point::Aggregate(c) => c.clone(),
                    _ => unreachable!("a batch holds one runner family"),
                })
                .collect();
            timed(|| runner.run_aggregate_clustered(&cfgs))
        }
        Some(Point::Smoothing(_) | Point::AfTcp(_)) => {
            let jobs: Vec<FlowJob> = points
                .iter()
                .map(|p| match p {
                    Point::Smoothing(c) => FlowJob::Smoothing(c.clone()),
                    Point::AfTcp(c) => FlowJob::AfTcp(c.clone()),
                    _ => unreachable!("a batch holds one runner family"),
                })
                .collect();
            timed(|| runner.run_flows_clustered(&jobs))
        }
    }
}

fn timed<O: serde::Serialize>(
    run: impl FnOnce() -> Vec<ClusterPoint<O>>,
) -> (Duration, Vec<(String, PointSource)>) {
    let t = Instant::now();
    let points = run();
    let wall = t.elapsed();
    let out = points
        .into_iter()
        .map(|p| {
            let json = serde_json::to_string(&p.outcome).expect("outcome serializes");
            (json, p.source)
        })
        .collect();
    (wall, out)
}
