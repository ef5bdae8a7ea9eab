//! Parallel, cached, symmetry-clustered execution of experiment grids.
//!
//! Every figure in the paper's evaluation is a grid of independent
//! experiment runs (token rate × bucket depth, or a list of ablation
//! configurations). Each run is a *pure function of its configuration*:
//! all randomness is drawn from seeds stored in the config, so a point's
//! outcome does not depend on which thread computed it or in which order.
//!
//! Every testbed family — [`Job`] (QBone, local, AF), [`AggregateConfig`]
//! and [`FlowJob`] (smoothing, AF-TCP) — runs through **one** engine. A
//! point is its scenario spec plus its scoring parameters (the private
//! `GridPoint` trait); the engine builds each spec once, canonicalizes it
//! once, and from that one identity drives all three layers:
//!
//! * **Parallelism** — grid points fan out over a scoped thread pool
//!   (work-stealing by atomic index). Results land in per-point slots, so
//!   the output order is the input order and a parallel run is
//!   bit-identical to a serial one.
//! * **Caching** — each point is content-addressed by an FNV-1a hash of
//!   its kind tag and the **canonical** (symmetry-normal, see
//!   [`dsv_scenario::canonicalize`]) JSON of its compiled scenario spec
//!   plus scoring parameters (built on [`crate::keys`]), so any topology
//!   or profile change changes the address. Outcomes persist under
//!   `results/cache/` in **canonical flow order**, so re-running
//!   `all_figures` (or any figure binary) skips every already-computed
//!   point, and any member of a symmetry class can load its class's
//!   entry. The stored address is compared byte-for-byte on load to guard
//!   against hash collisions and stale schema.
//! * **Clustering** — before simulating, the grid is partitioned into
//!   equivalence classes by the very same canonical address. In `exact`
//!   mode (the default) only one representative per class is simulated
//!   and every other member's outcome is transplanted from it — sound
//!   because equal canonical forms mean the specs are relabellings of
//!   one another and the engine's dynamics are label-blind (validated by
//!   `aggregate::tests::rotated_declarations_permute_per_flow_outcomes_exactly`).
//!   Per-flow outcomes transplant through canonical-rank maps
//!   ([`crate::aggregate::media_flow_ranks`]); single-stream outcomes are
//!   flow-agnostic and transplant by clone.
//!
//! Executing a point is the one simulate step every testbed shares
//! ([`crate::experiment::simulate`]) followed by the family's scoring.
//!
//! The cache deliberately does **not** hash the simulator code itself:
//! after changing simulation behaviour, delete `results/cache/` (or run
//! with `DSV_CACHE=0`) to force cold recomputation.
//!
//! Environment knobs (read by [`Runner::from_env`]):
//!
//! | variable       | effect                                              |
//! |----------------|-----------------------------------------------------|
//! | `DSV_THREADS`  | worker count (`1` = serial; default: all cores; `0`/garbage warn on stderr and use the default) |
//! | `DSV_CACHE`    | `0`/`off` disables; a path overrides the cache dir  |
//! | `DSV_PROGRESS` | `1`/`0` forces the progress meter on/off (default: on when stderr is a TTY) |
//! | `DSV_CLUSTER`  | `off` disables clustering; `exact` (default) merges provably symmetric points |

use std::collections::HashMap;
use std::fs;
use std::io::{IsTerminal, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

use crate::af::{af_spec, score_af, AfConfig};
use crate::af_tcp::{af_tcp_spec, score_af_tcp, AfTcpConfig};
use crate::aggregate::{
    aggregate_spec, from_canonical_order, media_flow_ranks, score_aggregate, to_canonical_order,
    AggregateConfig, AggregateOutcome,
};
use crate::experiment::{simulate, EfProfile, RunOutcome, SimRun};
use crate::flows::FlowsOutcome;
use crate::keys;
use crate::local::{local_spec, score_local, LocalConfig};
use crate::profile;
use crate::qbone::{qbone_spec, score_qbone, QboneConfig};
use crate::qoe::stamp_scoring;
use crate::smoothing::{score_smoothing, smoothing_spec, SmoothingConfig};
use crate::sweep::SweepResult;
use dsv_scenario::{canonicalize, ScenarioSpec};

/// One unit of grid work: a fully specified experiment configuration.
#[derive(Debug, Clone)]
pub enum Job {
    /// A QBone wide-area run.
    Qbone(QboneConfig),
    /// A local Frame-Relay testbed run.
    Local(LocalConfig),
    /// An AF PHB run.
    Af(AfConfig),
}

/// One unit of transport-level grid work: an experiment reporting
/// per-flow [`FlowsOutcome`]s instead of a VQM-scored [`RunOutcome`].
/// Runs through the same engine as [`Job`] grids.
#[derive(Debug, Clone)]
pub enum FlowJob {
    /// A TCP-smoothing run on the QBone path (one media flow).
    Smoothing(SmoothingConfig),
    /// An AF-TCP rate-guarantee run (N bulk flows).
    AfTcp(AfTcpConfig),
}

/// One grid point of any testbed family, as the engine sees it: a
/// scenario spec, the scoring parameters that shape the outcome but live
/// outside the topology, and the family's scoring of a finished run.
pub(crate) trait GridPoint: Sync {
    /// What scoring one run produces.
    type Outcome: PointOutcome;
    /// Short tag naming the testbed; part of the cache key.
    fn kind(&self) -> &'static str;
    /// JSON of the configuration (the golden checksums hash this; see
    /// [`crate::golden`]).
    fn config_json(&self) -> String;
    /// The point's compiled scenario spec.
    fn spec(&self) -> ScenarioSpec;
    /// The scoring parameters. A VQM-scored family stamps a non-default
    /// `DSV_QOE` estimator in (see [`crate::qoe::stamp_scoring`]), since
    /// it changes outcome values; transport outcomes are the same bytes
    /// under every estimator, so those families stamp nothing.
    fn scoring(&self) -> Value;
    /// How many per-flow outcomes the point reports (0: the outcome is
    /// flow-agnostic).
    fn flows(&self) -> u32;
    /// Score a finished run of [`GridPoint::spec`].
    fn score(&self, run: SimRun) -> Self::Outcome;
}

/// What the engine needs of an outcome: serde for the cache and the
/// goldens, canonical-order transplants, and drop counts for the
/// progress line.
pub(crate) trait PointOutcome: Clone + Send + Sync + Serialize + Deserialize {
    /// Reorder label order into canonical order (`canon[rank[i]] =
    /// self[i]`).
    fn canonical_order(&self, rank: &[usize]) -> Self;
    /// Reorder canonical order back into label order, or `None` when
    /// the outcome's shape does not fit `rank` (a stale cache entry).
    fn label_order(&self, rank: &[usize]) -> Option<Self>;
    /// `(policer, queue, shaper)` drop totals.
    fn drops(&self) -> (u64, u64, u64);
}

impl GridPoint for Job {
    type Outcome = RunOutcome;

    fn kind(&self) -> &'static str {
        match self {
            Job::Qbone(_) => "qbone",
            Job::Local(_) => "local",
            Job::Af(_) => "af",
        }
    }

    fn config_json(&self) -> String {
        match self {
            Job::Qbone(cfg) => serde_json::to_string(cfg),
            Job::Local(cfg) => serde_json::to_string(cfg),
            Job::Af(cfg) => serde_json::to_string(cfg),
        }
        .expect("config serializes")
    }

    fn spec(&self) -> ScenarioSpec {
        match self {
            Job::Qbone(cfg) => qbone_spec(cfg),
            Job::Local(cfg) => local_spec(cfg),
            Job::Af(cfg) => af_spec(cfg),
        }
    }

    fn scoring(&self) -> Value {
        let field = |k: &str, v: Value| (k.to_string(), v);
        stamp_scoring(Value::Object(match self {
            Job::Qbone(cfg) => vec![
                field("clip", cfg.clip.to_value()),
                field("encoding_bps", cfg.encoding_bps.to_value()),
                field("score_vs_best", cfg.score_vs_best.to_value()),
            ],
            Job::Local(cfg) => vec![
                field("clip", cfg.clip.to_value()),
                field("cap_bps", cfg.cap_bps.to_value()),
            ],
            Job::Af(cfg) => vec![
                field("clip", cfg.clip.to_value()),
                field("encoding_bps", cfg.encoding_bps.to_value()),
            ],
        }))
    }

    fn flows(&self) -> u32 {
        0
    }

    fn score(&self, run: SimRun) -> RunOutcome {
        match self {
            Job::Qbone(cfg) => score_qbone(cfg, run).0,
            Job::Local(cfg) => score_local(cfg, run).0,
            Job::Af(cfg) => score_af(cfg, run).0,
        }
    }
}

impl GridPoint for AggregateConfig {
    type Outcome = AggregateOutcome;

    fn kind(&self) -> &'static str {
        "aggregate"
    }

    fn config_json(&self) -> String {
        serde_json::to_string(self).expect("config serializes")
    }

    fn spec(&self) -> ScenarioSpec {
        aggregate_spec(self)
    }

    fn scoring(&self) -> Value {
        stamp_scoring(Value::Object(vec![
            ("clip".to_string(), self.clip.to_value()),
            ("encoding_bps".to_string(), self.encoding_bps.to_value()),
        ]))
    }

    fn flows(&self) -> u32 {
        self.flows
    }

    fn score(&self, run: SimRun) -> AggregateOutcome {
        score_aggregate(self, run).0
    }
}

impl GridPoint for FlowJob {
    type Outcome = FlowsOutcome;

    fn kind(&self) -> &'static str {
        match self {
            FlowJob::Smoothing(_) => "smoothing",
            FlowJob::AfTcp(_) => "af_tcp",
        }
    }

    fn config_json(&self) -> String {
        match self {
            FlowJob::Smoothing(cfg) => serde_json::to_string(cfg),
            FlowJob::AfTcp(cfg) => serde_json::to_string(cfg),
        }
        .expect("config serializes")
    }

    fn spec(&self) -> ScenarioSpec {
        match self {
            FlowJob::Smoothing(cfg) => smoothing_spec(cfg),
            FlowJob::AfTcp(cfg) => af_tcp_spec(cfg),
        }
    }

    fn scoring(&self) -> Value {
        match self {
            FlowJob::Smoothing(cfg) => Value::Object(vec![
                ("clip".to_string(), cfg.clip.to_value()),
                ("encoding_bps".to_string(), cfg.encoding_bps.to_value()),
            ]),
            FlowJob::AfTcp(_) => Value::Object(Vec::new()),
        }
    }

    fn flows(&self) -> u32 {
        match self {
            FlowJob::Smoothing(_) => 1,
            FlowJob::AfTcp(cfg) => cfg.flows(),
        }
    }

    fn score(&self, run: SimRun) -> FlowsOutcome {
        match self {
            FlowJob::Smoothing(cfg) => score_smoothing(cfg, run),
            FlowJob::AfTcp(cfg) => score_af_tcp(cfg, run),
        }
    }
}

impl PointOutcome for RunOutcome {
    fn canonical_order(&self, _rank: &[usize]) -> RunOutcome {
        self.clone()
    }

    fn label_order(&self, _rank: &[usize]) -> Option<RunOutcome> {
        Some(self.clone())
    }

    fn drops(&self) -> (u64, u64, u64) {
        (self.policer_drops, self.queue_drops, self.shaper_drops)
    }
}

impl PointOutcome for AggregateOutcome {
    fn canonical_order(&self, rank: &[usize]) -> AggregateOutcome {
        AggregateOutcome {
            per_flow: to_canonical_order(&self.per_flow, rank),
        }
    }

    fn label_order(&self, rank: &[usize]) -> Option<AggregateOutcome> {
        (self.per_flow.len() == rank.len()).then(|| AggregateOutcome {
            per_flow: from_canonical_order(&self.per_flow, rank),
        })
    }

    fn drops(&self) -> (u64, u64, u64) {
        (
            self.per_flow.iter().map(|f| f.policer_drops).sum(),
            self.per_flow.iter().map(|f| f.queue_drops).sum(),
            self.per_flow.iter().map(|f| f.shaper_drops).sum(),
        )
    }
}

impl PointOutcome for FlowsOutcome {
    fn canonical_order(&self, rank: &[usize]) -> FlowsOutcome {
        FlowsOutcome {
            per_flow: to_canonical_order(&self.per_flow, rank),
        }
    }

    fn label_order(&self, rank: &[usize]) -> Option<FlowsOutcome> {
        (self.per_flow.len() == rank.len()).then(|| FlowsOutcome {
            per_flow: from_canonical_order(&self.per_flow, rank),
        })
    }

    fn drops(&self) -> (u64, u64, u64) {
        (self.total_policer_drops(), self.total_queue_drops(), 0)
    }
}

/// A point's identity, from one spec build and one canonicalization: the
/// spec it runs, its content address (the cache key and, with the kind
/// tag, its exact-cluster class) and its flow-rank map.
struct Identity {
    spec: ScenarioSpec,
    address: String,
    rank: Vec<usize>,
}

impl Identity {
    fn of<P: GridPoint>(point: &P) -> Identity {
        let spec = point.spec();
        let canon = canonicalize(&spec);
        Identity {
            address: keys::cache_address(canon.spec.to_value(), point.scoring()),
            rank: media_flow_ranks(&canon, point.flows()),
            spec,
        }
    }
}

/// Simulate `spec` — the point's own — and score the run.
fn execute<P: GridPoint>(point: &P, spec: &ScenarioSpec) -> P::Outcome {
    let run = simulate(spec).unwrap_or_else(|e| panic!("{} spec compiles: {e}", point.kind()));
    point.score(run)
}

/// How the cluster layer treats a grid before simulating it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterMode {
    /// Simulate every point; the determinism reference.
    Off,
    /// Partition the grid by canonical spec identity and simulate one
    /// representative per class; members get transplanted outcomes.
    /// Byte-identical to [`ClusterMode::Off`] wherever symmetry is
    /// provable — which is the only time points merge.
    Exact,
}

/// Where a grid point's outcome came from.
#[derive(Debug, Clone)]
pub enum PointSource {
    /// Simulated in this batch.
    Simulated,
    /// Loaded from the persistent result cache.
    Cached,
    /// Transplanted from the simulated representative of this point's
    /// exact symmetry class (index into the batch's input order).
    Reused {
        /// Input index of the class representative.
        representative: usize,
    },
    /// Never produced: no cluster mode interpolates. The variant remains
    /// only because `perfbench` matches this enum exhaustively; delete it
    /// with the next change to the benchmark.
    Interpolated,
}

impl PointSource {
    /// True for outcomes an actual simulation (or its cached result)
    /// produced, false for transplants.
    pub fn is_direct(&self) -> bool {
        matches!(self, PointSource::Simulated | PointSource::Cached)
    }
}

/// One grid point's outcome plus its provenance.
#[derive(Debug, Clone)]
pub struct ClusterPoint<O> {
    /// The outcome, whatever its source.
    pub outcome: O,
    /// Where it came from.
    pub source: PointSource,
}

/// One persisted cache record, whatever the family: the outcome in
/// canonical flow order, plus the address JSON so a load can verify it
/// addressed the right content (collision/staleness guard).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheEntry {
    kind: String,
    config: String,
    outcome: Value,
}

/// Live progress across worker threads: points done, throughput, ETA and
/// aggregate drop counters, reported on stderr.
///
/// The throughput/ETA estimate counts **simulation slots**
/// (`sims_done / planned_sims`), not grid points: cluster-reused
/// points land in microseconds, so folding them into the
/// rate would first overestimate the remaining time (reused points
/// pending at the simulated points' rate) and then whipsaw the rate
/// upward when they all land at once.
struct Progress {
    total: usize,
    planned_sims: usize,
    done: AtomicUsize,
    sims_done: AtomicUsize,
    cached: AtomicUsize,
    reused: AtomicUsize,
    policer_drops: AtomicU64,
    queue_drops: AtomicU64,
    shaper_drops: AtomicU64,
    /// QoE counter totals when the batch started; the line shows the
    /// delta, so concurrent batches only ever over-attribute, never
    /// double-print.
    qoe_start: crate::qoe::QoeSnapshot,
    start: Instant,
    enabled: bool,
}

impl Progress {
    fn new(total: usize, planned_sims: usize, enabled: bool) -> Progress {
        Progress {
            total,
            planned_sims,
            done: AtomicUsize::new(0),
            sims_done: AtomicUsize::new(0),
            cached: AtomicUsize::new(0),
            reused: AtomicUsize::new(0),
            policer_drops: AtomicU64::new(0),
            queue_drops: AtomicU64::new(0),
            shaper_drops: AtomicU64::new(0),
            qoe_start: crate::qoe::snapshot(),
            start: Instant::now(),
            enabled,
        }
    }

    /// Record a landed point given its drop counters `(policer, queue,
    /// shaper)` and where it came from.
    fn record(&self, drops: (u64, u64, u64), source: &PointSource) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        match source {
            PointSource::Reused { .. } => &self.reused,
            _ => &self.sims_done,
        }
        .fetch_add(1, Ordering::Relaxed);
        if let PointSource::Cached = source {
            self.cached.fetch_add(1, Ordering::Relaxed);
        }
        self.policer_drops.fetch_add(drops.0, Ordering::Relaxed);
        self.queue_drops.fetch_add(drops.1, Ordering::Relaxed);
        self.shaper_drops.fetch_add(drops.2, Ordering::Relaxed);
        if self.enabled {
            self.print(done, false);
        }
    }

    fn print(&self, done: usize, final_line: bool) {
        let sims_done = self.sims_done.load(Ordering::Relaxed);
        let cached = self.cached.load(Ordering::Relaxed);
        let reused = self.reused.load(Ordering::Relaxed);
        let (rate, eta) = throughput_eta(
            sims_done,
            self.planned_sims,
            self.start.elapsed().as_secs_f64(),
        );
        let eta = match eta {
            Some(secs) => format!("{secs:.0}s"),
            None => "?".to_string(),
        };
        let qoe = qoe_progress_segment(&crate::qoe::snapshot().since(&self.qoe_start))
            .unwrap_or_default();
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r[runner] {done}/{} points ({} simulated, {cached} cached, {reused} reused) | \
             {rate:.2} sims/s | ETA {eta}{qoe} | drops: policer {}, queue {}, shaper {}",
            self.total,
            sims_done.saturating_sub(cached),
            self.policer_drops.load(Ordering::Relaxed),
            self.queue_drops.load(Ordering::Relaxed),
            self.shaper_drops.load(Ordering::Relaxed),
        );
        if final_line {
            let _ = writeln!(err);
        }
        let _ = err.flush();
    }

    fn finish(&self) {
        if self.enabled && self.total > 0 {
            self.print(self.done.load(Ordering::Relaxed), true);
        }
    }
}

/// The estimator-mix segment of a progress line, from the batch's QoE
/// counter delta: how many flows the proxy scored, how many full VQM
/// scored, and how many proxy scores were sampled-checked (with the live
/// error bound once checks have landed). `None` — print nothing — when
/// every score came from full VQM, so the default mode's line is
/// byte-identical to what it always printed.
fn qoe_progress_segment(d: &crate::qoe::QoeSnapshot) -> Option<String> {
    if d.proxy_scored == 0 && d.sampled_checked == 0 {
        return None;
    }
    let mut seg = format!(
        " | qoe: {} proxy, {} full, {} checked",
        d.proxy_scored, d.full_scored, d.sampled_checked
    );
    if let Some(mae) = d.live_mae() {
        seg.push_str(&format!(" (live MAE {mae:.4})"));
    }
    Some(seg)
}

/// Throughput and remaining-time estimate for a progress line.
///
/// Callers pass **simulation** counts (`sims_done`, `planned_sims`), not
/// grid-point counts — see [`Progress`] — so cluster-reused points never
/// inflate the ETA. Returns `(sims_per_sec, Some(eta_secs))`; the ETA is
/// `None` until the first slot lands (with `done == 0` there is no rate
/// to extrapolate from, and `total / ε` would print astronomical
/// nonsense). An instantly-served grid (all cache hits, elapsed ≈ 0)
/// yields a huge but finite rate and a zero ETA, never a division by
/// zero or `NaN`.
fn throughput_eta(done: usize, total: usize, elapsed_secs: f64) -> (f64, Option<f64>) {
    if done == 0 {
        return (0.0, None);
    }
    let rate = done as f64 / elapsed_secs.max(1e-9);
    let eta = total.saturating_sub(done) as f64 / rate;
    (rate, Some(eta))
}

/// The grid-execution engine: fans grid points over threads, with an
/// optional persistent result cache and a symmetry-cluster pre-pass. See
/// the module docs for semantics.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    cache_dir: Option<PathBuf>,
    progress: bool,
    cluster: ClusterMode,
}

/// Default cache location: `results/cache/` at the repository root.
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/cache")
}

impl Default for Runner {
    fn default() -> Runner {
        Runner {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_dir: Some(default_cache_dir()),
            progress: std::io::stderr().is_terminal(),
            cluster: ClusterMode::Exact,
        }
    }
}

impl Runner {
    /// A runner configured from the environment (`DSV_THREADS`,
    /// `DSV_CACHE`, `DSV_PROGRESS`, `DSV_CLUSTER`); the defaults are all
    /// cores, the persistent cache, a progress meter when stderr is a
    /// TTY, and exact clustering.
    pub fn from_env() -> Runner {
        let mut r = Runner::default();
        r.threads = dsv_sim::env::count_from_env("DSV_THREADS", r.threads);
        if let Ok(v) = std::env::var("DSV_CACHE") {
            let v = v.trim();
            r.cache_dir = match v {
                "0" | "off" | "" => None,
                path => Some(PathBuf::from(path)),
            };
        }
        if let Ok(v) = std::env::var("DSV_PROGRESS") {
            r.progress = v.trim() != "0";
        }
        if let Ok(v) = std::env::var("DSV_CLUSTER") {
            r.cluster = cluster_mode_from_str(v.trim());
        }
        r
    }

    /// A single-threaded runner with no cache, no progress output and no
    /// clustering — the reference configuration for determinism
    /// comparisons (every point individually simulated).
    pub fn serial() -> Runner {
        Runner {
            threads: 1,
            cache_dir: None,
            progress: false,
            cluster: ClusterMode::Off,
        }
    }

    /// Set the worker-thread count (1 = serial execution).
    pub fn with_threads(mut self, threads: usize) -> Runner {
        self.threads = threads.max(1);
        self
    }

    /// Set the cache directory, or disable caching with `None`.
    pub fn with_cache(mut self, dir: Option<PathBuf>) -> Runner {
        self.cache_dir = dir;
        self
    }

    /// Force the progress meter on or off.
    pub fn with_progress(mut self, on: bool) -> Runner {
        self.progress = on;
        self
    }

    /// Set the cluster mode.
    pub fn with_cluster(mut self, mode: ClusterMode) -> Runner {
        self.cluster = mode;
        self
    }

    /// Run every job, in parallel, returning outcomes **in job order**.
    ///
    /// Outcomes are pure functions of each job's config (every RNG in a
    /// run is seeded from it), so the result is identical for any thread
    /// count — parallel output is byte-for-byte the serial output. Under
    /// exact clustering (the default) symmetric points share one
    /// simulation, which is byte-identical too; use
    /// [`Runner::run_clustered`] to also see each point's provenance.
    pub fn run(&self, jobs: &[Job]) -> Vec<RunOutcome> {
        self.outcomes(jobs)
    }

    /// [`Runner::run`] with provenance: each outcome carries whether it
    /// was simulated, cache-served or cluster-reused.
    pub fn run_clustered(&self, jobs: &[Job]) -> Vec<ClusterPoint<RunOutcome>> {
        self.run_points(jobs)
    }

    /// Run a batch of aggregate configurations, outcomes in input order,
    /// through the same engine as [`Runner::run`].
    pub fn run_aggregate_batch(&self, cfgs: &[AggregateConfig]) -> Vec<AggregateOutcome> {
        self.outcomes(cfgs)
    }

    /// [`Runner::run_aggregate_batch`] with provenance.
    pub fn run_aggregate_clustered(
        &self,
        cfgs: &[AggregateConfig],
    ) -> Vec<ClusterPoint<AggregateOutcome>> {
        self.run_points(cfgs)
    }

    /// Run a batch of transport-level jobs, outcomes in input order,
    /// through the same engine as [`Runner::run`].
    pub fn run_flows_batch(&self, jobs: &[FlowJob]) -> Vec<FlowsOutcome> {
        self.outcomes(jobs)
    }

    /// [`Runner::run_flows_batch`] with provenance.
    pub fn run_flows_clustered(&self, jobs: &[FlowJob]) -> Vec<ClusterPoint<FlowsOutcome>> {
        self.run_points(jobs)
    }

    /// [`Runner::run_points`] without the provenance.
    pub(crate) fn outcomes<P: GridPoint>(&self, points: &[P]) -> Vec<P::Outcome> {
        self.run_points(points)
            .into_iter()
            .map(|p| p.outcome)
            .collect()
    }

    /// The engine behind every batch entry point. In exact mode every
    /// point's identity is computed up front and the grid partitions into
    /// classes by first occurrence; only class representatives run (each
    /// served from the cache or simulated), and every other member gets
    /// its representative's outcome transplanted through the two flow-rank
    /// maps (representative label order → canonical order → member label
    /// order). With clustering off every point is its own class, and an
    /// identity is computed only if the cache needs one.
    pub(crate) fn run_points<P: GridPoint>(&self, points: &[P]) -> Vec<ClusterPoint<P::Outcome>> {
        let n = points.len();
        if n == 0 {
            return Vec::new();
        }
        let ids: Vec<Option<Identity>> = match self.cluster {
            ClusterMode::Off => points.iter().map(|_| None).collect(),
            ClusterMode::Exact => points.iter().map(|p| Some(Identity::of(p))).collect(),
        };
        let mut seen: HashMap<(&str, &str), usize> = HashMap::new();
        let rep_of: Vec<usize> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| match id {
                Some(id) => *seen
                    .entry((points[i].kind(), id.address.as_str()))
                    .or_insert(i),
                None => i,
            })
            .collect();
        let reps: Vec<usize> = (0..n).filter(|&i| rep_of[i] == i).collect();
        let mut slot_of = vec![usize::MAX; n];
        for (slot, &i) in reps.iter().enumerate() {
            slot_of[i] = slot;
        }

        let stages_before = profile::snapshot();
        let progress = Progress::new(n, reps.len(), self.progress);
        let results = self.fan_out(reps.len(), &progress, |slot| {
            let i = reps[slot];
            self.run_one(&points[i], ids[i].as_ref())
        });
        let rank = |i: usize| {
            &ids[i]
                .as_ref()
                .expect("a transplant implies exact mode, which keys every point")
                .rank
        };
        let out = (0..n)
            .map(|i| {
                let rep = rep_of[i];
                let (outcome, source) = &results[slot_of[rep]];
                if rep == i {
                    return ClusterPoint {
                        outcome: outcome.clone(),
                        source: source.clone(),
                    };
                }
                let outcome = outcome
                    .canonical_order(rank(rep))
                    .label_order(rank(i))
                    .expect("one canonical form, one flow count");
                let source = PointSource::Reused {
                    representative: rep,
                };
                progress.record(outcome.drops(), &source);
                ClusterPoint { outcome, source }
            })
            .collect();
        progress.finish();
        profile::report(&format!("batch of {n}"), &stages_before);
        out
    }

    /// The thread pool: `n` points, each produced by `exec(i) ->
    /// (outcome, cache_hit)`, fanned over scoped workers with results
    /// (and their provenance) returned **in index order** regardless of
    /// thread count.
    fn fan_out<O: PointOutcome>(
        &self,
        n: usize,
        progress: &Progress,
        exec: impl Fn(usize) -> (O, bool) + Sync,
    ) -> Vec<(O, PointSource)> {
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<OnceLock<(O, PointSource)>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.clamp(1, n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let (outcome, cache_hit) = exec(i);
                    let source = if cache_hit {
                        PointSource::Cached
                    } else {
                        PointSource::Simulated
                    };
                    progress.record(outcome.drops(), &source);
                    if slots[i].set((outcome, source)).is_err() {
                        panic!("each slot is filled once");
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("worker filled every slot"))
            .collect()
    }

    /// Run one point, consulting the cache; returns `(outcome,
    /// cache_hit)`. `id` is the point's identity when the cluster pass
    /// already computed it.
    fn run_one<P: GridPoint>(&self, point: &P, id: Option<&Identity>) -> (P::Outcome, bool) {
        let Some(dir) = &self.cache_dir else {
            let outcome = match id {
                Some(id) => execute(point, &id.spec),
                None => execute(point, &point.spec()),
            };
            return (outcome, false);
        };
        let computed;
        let id = match id {
            Some(id) => id,
            None => {
                computed = Identity::of(point);
                &computed
            }
        };
        let kind = point.kind();
        let path = keys::cache_path(dir, kind, &id.address);
        let cached = load_cached::<P::Outcome>(&path, kind, &id.address)
            .and_then(|canon| canon.label_order(&id.rank));
        if let Some(outcome) = cached {
            return (outcome, true);
        }
        let outcome = execute(point, &id.spec);
        store_cached(
            dir,
            &path,
            &CacheEntry {
                kind: kind.to_string(),
                config: id.address.clone(),
                outcome: outcome.canonical_order(&id.rank).to_value(),
            },
        );
        (outcome, false)
    }

    /// Run a QBone figure's grid (`rates × depths`) through this runner.
    pub fn qbone_sweep(
        &self,
        base: &QboneConfig,
        rates: &[u64],
        depths: &[u32],
        label: impl Into<String>,
    ) -> SweepResult {
        let outcomes = self.run(&qbone_grid(base, rates, depths));
        SweepResult::assemble(outcomes, rates, depths, label)
    }

    /// Run a local-testbed grid through this runner.
    pub fn local_sweep(
        &self,
        base: &LocalConfig,
        rates: &[u64],
        depths: &[u32],
        label: impl Into<String>,
    ) -> SweepResult {
        let outcomes = self.run(&local_grid(base, rates, depths));
        SweepResult::assemble(outcomes, rates, depths, label)
    }

    /// Run a batch of QBone configurations, outcomes in input order.
    pub fn run_qbone_batch(&self, cfgs: &[QboneConfig]) -> Vec<RunOutcome> {
        let jobs: Vec<Job> = cfgs.iter().cloned().map(Job::Qbone).collect();
        self.run(&jobs)
    }

    /// Run a batch of local-testbed configurations, outcomes in input order.
    pub fn run_local_batch(&self, cfgs: &[LocalConfig]) -> Vec<RunOutcome> {
        let jobs: Vec<Job> = cfgs.iter().cloned().map(Job::Local).collect();
        self.run(&jobs)
    }

    /// Run a batch of AF configurations, outcomes in input order.
    pub fn run_af_batch(&self, cfgs: &[AfConfig]) -> Vec<RunOutcome> {
        let jobs: Vec<Job> = cfgs.iter().cloned().map(Job::Af).collect();
        self.run(&jobs)
    }
}

/// Parse a `DSV_CLUSTER` value; unrecognized input warns on stderr and
/// falls back to the exact default rather than silently changing
/// semantics.
fn cluster_mode_from_str(v: &str) -> ClusterMode {
    match v {
        "off" | "0" => ClusterMode::Off,
        "" | "exact" | "1" => ClusterMode::Exact,
        _ => {
            eprintln!(
                "[runner] DSV_CLUSTER={v:?} not recognized \
                 (expected off or exact); using exact clustering"
            );
            ClusterMode::Exact
        }
    }
}

/// The depth-major job grid of a QBone sweep (the order `SweepResult`
/// documents): `base` at every `(rate, depth)` profile.
pub(crate) fn qbone_grid(base: &QboneConfig, rates: &[u64], depths: &[u32]) -> Vec<Job> {
    profile_grid(rates, depths, |profile| {
        Job::Qbone(QboneConfig {
            profile,
            ..base.clone()
        })
    })
}

/// The depth-major job grid of a local-testbed sweep.
pub(crate) fn local_grid(base: &LocalConfig, rates: &[u64], depths: &[u32]) -> Vec<Job> {
    profile_grid(rates, depths, |profile| {
        Job::Local(LocalConfig {
            profile,
            ..base.clone()
        })
    })
}

fn profile_grid(rates: &[u64], depths: &[u32], make: impl Fn(EfProfile) -> Job) -> Vec<Job> {
    depths
        .iter()
        .flat_map(|&depth| rates.iter().map(move |&rate| EfProfile::new(rate, depth)))
        .map(make)
        .collect()
}

/// Read `path` and run `parse` over its contents, re-reading once if the
/// first attempt does not yield a value.
///
/// `store_cached` publishes entries with a tmp-file write + rename, which
/// is atomic on POSIX — but when *another process* is recomputing the
/// same grid (two figure binaries sharing `results/cache/`), some
/// filesystems (overlay and network mounts in particular) expose a window
/// where a read racing the rename returns truncated or stale bytes. Every
/// writer of a given path serializes the same pure-function outcome, so
/// the content is never wrong, only possibly torn; one re-read after a
/// failed parse (or a guard mismatch) lands after the rename and
/// recovers the entry. A second failure means a genuinely absent or
/// corrupt entry, which degrades to recomputation as before.
fn retry_torn_read<T>(path: &Path, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    for attempt in 0..2 {
        // A missing file is a plain cache miss: nothing to retry.
        let text = fs::read_to_string(path).ok()?;
        if let Some(v) = parse(&text) {
            return Some(v);
        }
        if attempt == 0 {
            std::thread::yield_now();
        }
    }
    None
}

/// Load a cache entry if it exists *and* addresses exactly this config.
fn load_cached<O: Deserialize>(path: &Path, kind: &str, config: &str) -> Option<O> {
    retry_torn_read(path, |text| {
        let entry: CacheEntry = serde_json::from_str(text).ok()?;
        if entry.kind != kind || entry.config != config {
            return None;
        }
        O::from_value(&entry.outcome).ok()
    })
}

/// Persist a cache entry atomically (tmp file + rename), best-effort:
/// a read-only results directory degrades to "no cache", not a panic.
fn store_cached(dir: &Path, path: &Path, entry: &CacheEntry) {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let json = serde_json::to_string_pretty(entry).expect("cache entry serializes");
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if fs::write(&tmp, json).is_ok() && fs::rename(&tmp, path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DEPTH_2MTU, DEPTH_3MTU};
    use crate::qbone::ClipId2;

    fn tiny_base() -> QboneConfig {
        QboneConfig::new(
            ClipId2::Lost,
            1_000_000,
            EfProfile::new(1_000_000, DEPTH_2MTU),
        )
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let base = tiny_base();
        let rates = [900_000u64, 1_400_000];
        let depths = [DEPTH_2MTU, DEPTH_3MTU];
        let serial = Runner::serial().qbone_sweep(&base, &rates, &depths, "d");
        let parallel = Runner::serial()
            .with_threads(4)
            .qbone_sweep(&base, &rates, &depths, "d");
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }

    #[test]
    fn duplicate_jobs_cluster_to_one_simulation() {
        // Three jobs, two identical: exact mode simulates the two
        // distinct points and transplants the duplicate, with the
        // provenance saying so — and the outcomes byte-match a full
        // unclustered run.
        let mut other = tiny_base();
        other.profile = EfProfile::new(1_400_000, DEPTH_3MTU);
        let jobs = [
            Job::Qbone(tiny_base()),
            Job::Qbone(other),
            Job::Qbone(tiny_base()),
        ];
        let clustered = Runner::serial()
            .with_cluster(ClusterMode::Exact)
            .run_clustered(&jobs);
        assert!(matches!(clustered[0].source, PointSource::Simulated));
        assert!(matches!(clustered[1].source, PointSource::Simulated));
        assert!(matches!(
            clustered[2].source,
            PointSource::Reused { representative: 0 }
        ));
        let full = Runner::serial().run(&jobs);
        for (c, f) in clustered.iter().zip(&full) {
            assert_eq!(
                serde_json::to_string(&c.outcome).unwrap(),
                serde_json::to_string(f).unwrap()
            );
        }
    }

    #[test]
    fn cluster_mode_parsing_warns_and_defaults() {
        assert_eq!(cluster_mode_from_str("off"), ClusterMode::Off);
        assert_eq!(cluster_mode_from_str("0"), ClusterMode::Off);
        assert_eq!(cluster_mode_from_str("exact"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str("1"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str(""), ClusterMode::Exact);
        // Garbage — including an `approx:<eps>` tolerance — warns
        // and falls back to the exact default.
        assert_eq!(cluster_mode_from_str("approx:0.05"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str("fast"), ClusterMode::Exact);
    }

    #[test]
    fn cache_round_trips_and_guards_config() {
        let dir = std::env::temp_dir().join(format!("dsv-runner-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let runner = Runner::serial().with_cache(Some(dir.clone()));
        let job = Job::Qbone(tiny_base());
        let (cold, hit0) = runner.run_one(&job, None);
        assert!(!hit0, "first run must be a miss");
        let (warm, hit1) = runner.run_one(&job, None);
        assert!(hit1, "second run must hit");
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );
        // A different profile is a different address: no false hit.
        let mut other = tiny_base();
        other.profile = EfProfile::new(1_100_000, DEPTH_3MTU);
        let (_, hit2) = runner.run_one(&Job::Qbone(other), None);
        assert!(!hit2, "changed config must miss");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The cache file name one point of a family addresses.
    fn cache_file<P: GridPoint>(point: &P) -> String {
        let path = keys::cache_path(Path::new(""), point.kind(), &Identity::of(point).address);
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn cache_file_names_are_pinned_per_family() {
        // One figure-grid point per testbed family. Cache files on disk
        // are named by these addresses, so a change to any of them
        // orphans every cached entry of that family.
        use crate::smoothing::SmoothingServer;
        let _full = crate::qoe::force_mode(crate::qoe::QoeMode::Full);
        let qbone = QboneConfig::new(
            ClipId2::Lost,
            1_700_000,
            EfProfile::new(1_496_000, DEPTH_2MTU),
        );
        let local = LocalConfig::new(
            ClipId2::Lost,
            EfProfile::new(700_000, DEPTH_2MTU),
            crate::local::LocalTransport::Tcp,
        );
        let af = AfConfig::new(ClipId2::Lost, 1_500_000, 0);
        let aggregate = AggregateConfig::new(
            ClipId2::Lost,
            1_000_000,
            2,
            EfProfile::new(2_000_000, DEPTH_2MTU),
        );
        let smoothing = SmoothingConfig::new(
            ClipId2::Lost,
            1_500_000,
            SmoothingServer::Tcp,
            EfProfile::new(800_000, DEPTH_2MTU),
        );
        let af_tcp = AfTcpConfig::new(vec![450_000; 4], vec![0; 4]);
        let names = [
            cache_file(&Job::Qbone(qbone)),
            cache_file(&Job::Local(local)),
            cache_file(&Job::Af(af)),
            cache_file(&aggregate.clone().with_rotation(1)),
            cache_file(&aggregate),
            cache_file(&FlowJob::Smoothing(smoothing)),
            cache_file(&FlowJob::AfTcp(af_tcp)),
        ];
        assert_eq!(
            names,
            [
                "qbone-59efef2fb6b45f65.json",
                "local-def89f5a6affa17c.json",
                "af-e562520b90a15b9c.json",
                "aggregate-605b72f6c8e0d2c6.json",
                "aggregate-605b72f6c8e0d2c6.json",
                "smoothing-1d169b25da3d1320.json",
                "af_tcp-8999ce1b7c6595ed.json",
            ]
        );
    }

    /// Store `twin`'s outcome in a fresh cache, then run `rotated` on it:
    /// the rotated point must hit its twin's entry and return exactly
    /// what its own uncached run returns.
    fn assert_rotation_hits_twin_entry<P: GridPoint>(tag: &str, twin: &P, rotated: &P) {
        let dir = std::env::temp_dir().join(format!("dsv-runner-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let runner = Runner::serial().with_cache(Some(dir.clone()));
        let json = |o: &P::Outcome| serde_json::to_string(o).unwrap();
        let (twin_out, twin_hit) = runner.run_one(twin, None);
        assert!(!twin_hit, "the twin fills an empty cache");
        assert_eq!(
            cache_file(twin),
            cache_file(rotated),
            "one class, one entry"
        );
        let (served, hit) = runner.run_one(rotated, None);
        assert!(hit, "the rotated point must hit its twin's entry");
        let uncached = Runner::serial().outcomes(std::slice::from_ref(rotated));
        assert_eq!(json(&served), json(&uncached[0]));
        // Non-vacuity: the rotation moved per-flow outcomes between labels.
        assert_ne!(json(&served), json(&twin_out));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotated_aggregate_round_trips_through_its_twins_cache_entry() {
        // A starved point, where declaration positions see different
        // outcomes, so the canonical-order round trip is not an identity.
        let cfg = AggregateConfig::new(
            ClipId2::Lost,
            1_000_000,
            2,
            EfProfile::new(1_800_000, DEPTH_2MTU),
        );
        assert_rotation_hits_twin_entry("agg-rot", &cfg, &cfg.clone().with_rotation(1));
    }

    #[test]
    fn rotated_af_tcp_round_trips_through_its_twins_cache_entry() {
        // Heterogeneous targets attach to declaration positions, so the
        // rotated run reports them under different flow labels.
        let mut cfg = AfTcpConfig::new(vec![250_000, 500_000, 750_000, 1_350_000], vec![0; 4]);
        cfg.duration_us = 5_000_000;
        let rotated = FlowJob::AfTcp(cfg.clone().with_rotation(1));
        assert_rotation_hits_twin_entry("af-tcp-rot", &FlowJob::AfTcp(cfg), &rotated);
    }

    #[test]
    fn corrupt_cache_entries_fall_back_to_execution() {
        let dir = std::env::temp_dir().join(format!("dsv-runner-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let runner = Runner::serial().with_cache(Some(dir.clone()));
        let job = Job::Qbone(tiny_base());
        // Poison the exact cache path this job addresses.
        let path = keys::cache_path(&dir, job.kind(), &Identity::of(&job).address);
        fs::write(&path, "{not json").unwrap();
        let (_, hit) = runner.run_one(&job, None);
        assert!(!hit, "corrupt entry must not count as a hit");
        // And it must have been repaired in place.
        let (_, hit2) = runner.run_one(&job, None);
        assert!(hit2, "repaired entry hits");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_reads_are_retried_exactly_once() {
        let dir = std::env::temp_dir().join(format!("dsv-runner-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");
        fs::write(&path, "payload").unwrap();

        // A parse that fails once (as if racing a rename) succeeds on the
        // re-read.
        let calls = std::cell::Cell::new(0usize);
        let got = retry_torn_read(&path, |text| {
            calls.set(calls.get() + 1);
            (calls.get() == 2).then(|| text.to_string())
        });
        assert_eq!(got.as_deref(), Some("payload"));
        assert_eq!(calls.get(), 2);

        // A persistently bad entry is read twice, no more.
        let calls = std::cell::Cell::new(0usize);
        let got: Option<()> = retry_torn_read(&path, |_| {
            calls.set(calls.get() + 1);
            None
        });
        assert_eq!(got, None);
        assert_eq!(calls.get(), 2);

        // A missing file is a plain miss: zero parse attempts, no retry.
        let calls = std::cell::Cell::new(0usize);
        let got: Option<()> = retry_torn_read(&dir.join("absent.json"), |_| {
            calls.set(calls.get() + 1);
            Some(())
        });
        assert_eq!(got, None);
        assert_eq!(calls.get(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_corrupt_a_read() {
        // Several "processes" recomputing the same point store the same
        // entry while readers poll it: every successful load must return
        // the one true outcome, and failed loads only mean "miss".
        let dir = std::env::temp_dir().join(format!("dsv-runner-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let job = Job::Qbone(tiny_base());
        let id = Identity::of(&job);
        let config = id.address.clone();
        let path = keys::cache_path(&dir, job.kind(), &config);
        let entry = CacheEntry {
            kind: job.kind().to_string(),
            config: config.clone(),
            outcome: execute(&job, &id.spec).to_value(),
        };
        let expected = serde_json::to_string(&entry.outcome).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..40 {
                        store_cached(&dir, &path, &entry);
                    }
                });
            }
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        if let Some(outcome) = load_cached::<RunOutcome>(&path, job.kind(), &config)
                        {
                            assert_eq!(serde_json::to_string(&outcome).unwrap(), expected);
                        }
                    }
                });
            }
        });
        // Once the writers are done the entry is durably published. (Readers
        // may finish polling before any writer is scheduled, so this is
        // checked after the scope joins every thread.)
        assert!(
            load_cached::<RunOutcome>(&path, job.kind(), &config).is_some(),
            "entry should become visible to readers"
        );
        // No temp files leak from the racing writers.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_count_env_policy_warns_and_defaults() {
        // `from_env` routes DSV_THREADS through the shared dsv-sim parser:
        // valid values apply, garbage falls back to the default (with a
        // stderr warning) instead of being silently ignored.
        let default_threads = Runner::default().threads;
        std::env::set_var("DSV_THREADS", "3");
        assert_eq!(Runner::from_env().threads, 3);
        std::env::set_var("DSV_THREADS", "0");
        assert_eq!(Runner::from_env().threads, default_threads);
        std::env::set_var("DSV_THREADS", "many");
        assert_eq!(Runner::from_env().threads, default_threads);
        std::env::remove_var("DSV_THREADS");
        assert_eq!(Runner::from_env().threads, default_threads);
    }

    #[test]
    fn progress_eta_is_sane_on_edge_cases() {
        // Before any point lands there is no rate to extrapolate from:
        // no ETA rather than `total / ε` nonsense.
        let (rate, eta) = throughput_eta(0, 100, 0.0);
        assert_eq!(rate, 0.0);
        assert_eq!(eta, None);
        // An instantly-cached grid (elapsed ≈ 0) must stay finite.
        let (rate, eta) = throughput_eta(100, 100, 0.0);
        assert!(rate.is_finite() && rate > 0.0);
        assert_eq!(eta, Some(0.0));
        // Normal mid-flight estimate: 10 done in 5 s, 30 to go → 15 s.
        let (rate, eta) = throughput_eta(10, 40, 5.0);
        assert!((rate - 2.0).abs() < 1e-12);
        assert!((eta.unwrap() - 15.0).abs() < 1e-12);
        // done > total (caller bug or re-counted cache hits) saturates
        // to zero remaining rather than going negative.
        let (_, eta) = throughput_eta(5, 3, 1.0);
        assert_eq!(eta, Some(0.0));
    }

    #[test]
    fn eta_counts_simulation_slots_not_reused_points() {
        // A 40-point grid clustering down to 30 simulations, 10 of them
        // done after 5 s: the reused points land for free, so the honest
        // remaining time is the 20 pending *simulations* (10 s). Feeding
        // the ETA grid-point totals instead would promise 15 s — a 50%
        // overestimate that grows with the reuse ratio.
        let (_, eta_sims) = throughput_eta(10, 30, 5.0);
        assert!((eta_sims.unwrap() - 10.0).abs() < 1e-12);
        let (_, eta_points) = throughput_eta(10, 40, 5.0);
        assert!(eta_points.unwrap() > eta_sims.unwrap());
    }

    #[test]
    fn progress_qoe_segment_counts_estimators_not_points() {
        use crate::qoe::QoeSnapshot;
        // The default full-VQM path adds nothing: the progress line must
        // stay byte-identical to what it printed before the estimator
        // split existed.
        let full_only = QoeSnapshot {
            full_scored: 24,
            ..QoeSnapshot::default()
        };
        assert_eq!(qoe_progress_segment(&full_only), None);
        assert_eq!(qoe_progress_segment(&QoeSnapshot::default()), None);
        // A proxy batch reports the estimator mix; no checks yet, so no
        // live bound to print.
        let proxy = QoeSnapshot {
            proxy_scored: 24,
            ..QoeSnapshot::default()
        };
        assert_eq!(
            qoe_progress_segment(&proxy).unwrap(),
            " | qoe: 24 proxy, 0 full, 0 checked"
        );
        // A sampled batch adds the live MAE once comparisons land:
        // 3 checks, 6 comparisons, 0.012 total error -> MAE 0.002.
        let sampled = QoeSnapshot {
            proxy_scored: 24,
            sampled_checked: 3,
            sampled_errs: 6,
            err_sum_micro: 12_000,
            err_max_micro: 5_000,
            ..QoeSnapshot::default()
        };
        assert_eq!(
            qoe_progress_segment(&sampled).unwrap(),
            " | qoe: 24 proxy, 0 full, 3 checked (live MAE 0.0020)"
        );
    }

    #[test]
    fn empty_grid_produces_no_output_and_no_panic() {
        // An empty job list returns early: no progress line, no division
        // by the zero elapsed time, just an empty result.
        let out = Runner::serial().with_progress(true).run(&[]);
        assert!(out.is_empty());
        let out = Runner::serial()
            .with_cluster(ClusterMode::Exact)
            .with_progress(true)
            .run(&[]);
        assert!(out.is_empty());
    }
}
