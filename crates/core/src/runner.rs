//! Parallel, cached, symmetry-clustered execution of experiment grids.
//!
//! Every figure in the paper's evaluation is a grid of independent
//! experiment runs (token rate × bucket depth, or a list of ablation
//! configurations). Each run is a *pure function of its configuration*:
//! all randomness is drawn from seeds stored in the config, so a point's
//! [`RunOutcome`] does not depend on which thread computed it or in which
//! order. The [`Runner`] exploits that three ways:
//!
//! * **Parallelism** — grid points fan out over a scoped thread pool
//!   (work-stealing by atomic index). Results land in per-point slots, so
//!   the output order is the input order and a parallel run is
//!   bit-identical to a serial one.
//! * **Caching** — each point is content-addressed by an FNV-1a hash of
//!   its kind tag and the **canonical** (symmetry-normal, see
//!   [`dsv_scenario::canonicalize`]) JSON of its compiled scenario spec
//!   plus scoring parameters (`Job::cache_json`, built on
//!   [`crate::keys`]), so any topology or profile change changes the
//!   address. Outcomes persist under `results/cache/`, so re-running
//!   `all_figures` (or any figure binary) skips every already-computed
//!   point. A config change — different rate, depth, seed, clip,
//!   horizon — changes the hash and misses the cache; the stored config
//!   is compared byte-for-byte on load to guard against hash collisions
//!   and stale schema.
//! * **Clustering** — before simulating, the grid is partitioned into
//!   equivalence classes by the very same canonical address. In `exact`
//!   mode (the default) only one representative per class is simulated
//!   and every other member's outcome is transplanted from it — sound
//!   because equal canonical forms mean the specs are relabellings of
//!   one another and the engine's dynamics are label-blind (validated by
//!   `aggregate::tests::rotated_declarations_permute_per_flow_outcomes_exactly`).
//!   Aggregate outcomes transplant through per-flow canonical-rank maps
//!   ([`crate::aggregate::media_flow_ranks`]); single-stream outcomes are
//!   flow-agnostic and transplant by clone. In `approx:<eps>` mode,
//!   representatives that differ *only* in their single policer token
//!   rate are additionally bisected: if the outcomes at two bracketing
//!   rates agree within `eps` on every headline metric, the points
//!   between them inherit the nearest anchor's outcome, with the
//!   recorded [`ErrorBound`] (anchor spread plus a wobble allowance)
//!   riding along in the point's [`PointSource`].
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
//! | `DSV_CLUSTER`  | `off` disables clustering; `exact` (default) merges provably symmetric points; `approx:<eps>` additionally interpolates across rate neighbours within `eps` |

use std::collections::HashMap;
use std::fs;
use std::io::{IsTerminal, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

use crate::af::{af_spec, run_af, AfConfig};
use crate::af_tcp::{af_tcp_spec, run_af_tcp, AfTcpConfig};
use crate::aggregate::{
    aggregate_spec, from_canonical_order, media_flow_ranks, run_aggregate, to_canonical_order,
    AggregateConfig, AggregateOutcome,
};
use crate::experiment::{EfProfile, RunOutcome};
use crate::flows::{flows_from_canonical_order, flows_to_canonical_order, FlowsOutcome};
use crate::keys;
use crate::local::{local_spec, run_local, LocalConfig};
use crate::profile;
use crate::qbone::{qbone_spec, run_qbone, QboneConfig};
use crate::smoothing::{run_smoothing, smoothing_spec, SmoothingConfig};
use crate::sweep::{SweepPoint, SweepResult};
use dsv_scenario::{canonicalize, ActionSpec, ScenarioSpec};

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

impl Job {
    /// Short tag naming the testbed; part of the cache key.
    pub fn kind(&self) -> &'static str {
        match self {
            Job::Qbone(_) => "qbone",
            Job::Local(_) => "local",
            Job::Af(_) => "af",
        }
    }

    /// Canonical JSON of the configuration (the golden checksums hash
    /// this; see [`crate::golden`]).
    pub(crate) fn config_json(&self) -> String {
        match self {
            Job::Qbone(cfg) => serde_json::to_string(cfg),
            Job::Local(cfg) => serde_json::to_string(cfg),
            Job::Af(cfg) => serde_json::to_string(cfg),
        }
        .expect("config serializes")
    }

    /// The job's compiled scenario spec and the scoring parameters that
    /// shape the outcome but live outside the topology — together, the
    /// full semantic identity of the point.
    pub(crate) fn spec_scoring(&self) -> (ScenarioSpec, Value) {
        match self {
            Job::Qbone(cfg) => (
                qbone_spec(cfg),
                Value::Object(vec![
                    ("clip".to_string(), cfg.clip.to_value()),
                    ("encoding_bps".to_string(), cfg.encoding_bps.to_value()),
                    ("score_vs_best".to_string(), cfg.score_vs_best.to_value()),
                ]),
            ),
            Job::Local(cfg) => (
                local_spec(cfg),
                Value::Object(vec![
                    ("clip".to_string(), cfg.clip.to_value()),
                    ("cap_bps".to_string(), cfg.cap_bps.to_value()),
                ]),
            ),
            Job::Af(cfg) => (
                af_spec(cfg),
                Value::Object(vec![
                    ("clip".to_string(), cfg.clip.to_value()),
                    ("encoding_bps".to_string(), cfg.encoding_bps.to_value()),
                ]),
            ),
        }
    }

    /// The content the result cache addresses: the **symmetry-normal**
    /// form of the job's compiled scenario spec plus its scoring
    /// parameters (see [`crate::keys`]). Keying the cache off the
    /// canonical spec means two configs that lower to relabellings of
    /// one simulation *and* the same scoring share an entry, and any
    /// topology change — even one the config struct cannot express —
    /// changes the address. This string is also the exact-cluster class
    /// identity, by construction: one module computes both.
    pub(crate) fn cache_json(&self) -> String {
        let (spec, scoring) = self.spec_scoring();
        // A non-default `DSV_QOE` estimator changes outcome values, so it
        // is part of the identity; full mode stamps nothing, keeping
        // every historical address byte-identical.
        keys::canonical_address(&spec, crate::qoe::stamp_scoring(scoring))
    }

    /// Run the experiment this job describes.
    fn execute(&self) -> RunOutcome {
        match self {
            Job::Qbone(cfg) => run_qbone(cfg),
            Job::Local(cfg) => run_local(cfg),
            Job::Af(cfg) => run_af(cfg),
        }
    }
}

/// One unit of transport-level grid work: an experiment reporting
/// per-flow [`FlowsOutcome`]s instead of a VQM-scored [`RunOutcome`].
/// Runs through the same thread pool, persistent cache and exact-cluster
/// pre-pass as [`Job`] grids.
#[derive(Debug, Clone)]
pub enum FlowJob {
    /// A TCP-smoothing run on the QBone path (one media flow).
    Smoothing(SmoothingConfig),
    /// An AF-TCP rate-guarantee run (N bulk flows).
    AfTcp(AfTcpConfig),
}

impl FlowJob {
    /// Short tag naming the experiment; part of the cache key.
    pub fn kind(&self) -> &'static str {
        match self {
            FlowJob::Smoothing(_) => "smoothing",
            FlowJob::AfTcp(_) => "af_tcp",
        }
    }

    /// Canonical JSON of the configuration (the golden checksums hash
    /// this; see [`crate::golden::golden_flows`]).
    pub(crate) fn config_json(&self) -> String {
        match self {
            FlowJob::Smoothing(cfg) => serde_json::to_string(cfg),
            FlowJob::AfTcp(cfg) => serde_json::to_string(cfg),
        }
        .expect("config serializes")
    }

    /// The job's compiled scenario spec plus the scoring parameters
    /// living outside the topology (see [`Job::spec_scoring`]).
    pub(crate) fn spec_scoring(&self) -> (ScenarioSpec, Value) {
        match self {
            FlowJob::Smoothing(cfg) => (
                smoothing_spec(cfg),
                Value::Object(vec![
                    ("clip".to_string(), cfg.clip.to_value()),
                    ("encoding_bps".to_string(), cfg.encoding_bps.to_value()),
                ]),
            ),
            FlowJob::AfTcp(cfg) => (af_tcp_spec(cfg), Value::Object(Vec::new())),
        }
    }

    /// How many per-flow outcomes this job reports.
    fn flows(&self) -> u32 {
        match self {
            FlowJob::Smoothing(_) => 1,
            FlowJob::AfTcp(cfg) => cfg.flows(),
        }
    }

    /// Run the experiment this job describes.
    fn execute(&self) -> FlowsOutcome {
        match self {
            FlowJob::Smoothing(cfg) => run_smoothing(cfg),
            FlowJob::AfTcp(cfg) => run_af_tcp(cfg),
        }
    }
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
    /// [`ClusterMode::Exact`], plus: representatives differing only in
    /// their single policer token rate are bisected, and points whose
    /// bracketing anchors agree within the tolerance on every headline
    /// metric inherit the nearest anchor's outcome with a recorded
    /// [`ErrorBound`]. Trades exactness for fewer simulations.
    Approx(f64),
}

/// Slack added to an interpolated point's error bound beyond the anchor
/// spread, covering the "mostly" in the sweeps' mostly-monotone loss
/// curves (see `crate::analysis::mostly_monotone_decreasing`): loss-like
/// metrics may wobble this far against the trend between anchors.
pub const WOBBLE_LOSS: f64 = 0.02;
/// [`WOBBLE_LOSS`]'s counterpart for VQM quality metrics, which ride on
/// top of loss and wobble a little harder.
pub const WOBBLE_QUALITY: f64 = 0.05;

/// Per-metric bound on how far an interpolated outcome may sit from the
/// ground truth a real simulation would produce: the spread between the
/// two bracketing anchors (truth lies between them when the segment is
/// monotone) plus the wobble allowance for non-monotone jitter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBound {
    /// Bound on `quality`.
    pub quality: f64,
    /// Bound on `frame_loss`.
    pub frame_loss: f64,
    /// Bound on `packet_loss`.
    pub packet_loss: f64,
    /// Bound on `quality_vs_best`, when both anchors scored it.
    pub quality_vs_best: Option<f64>,
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
    /// Inherited from the nearest of two bracketing rate anchors that
    /// agreed within the approx tolerance.
    Interpolated {
        /// Input index of the lower-rate anchor.
        lo: usize,
        /// Input index of the higher-rate anchor.
        hi: usize,
        /// Recorded per-metric distance bound to ground truth.
        bound: ErrorBound,
    },
}

impl PointSource {
    /// True for outcomes an actual simulation (or its cached result)
    /// produced, false for transplants and interpolations.
    pub fn is_direct(&self) -> bool {
        matches!(self, PointSource::Simulated | PointSource::Cached)
    }
}

impl Serialize for PointSource {
    fn to_value(&self) -> Value {
        let kind = |k: &str| ("kind".to_string(), Value::Str(k.to_string()));
        match self {
            PointSource::Simulated => Value::Object(vec![kind("simulated")]),
            PointSource::Cached => Value::Object(vec![kind("cached")]),
            PointSource::Reused { representative } => Value::Object(vec![
                kind("reused"),
                ("representative".to_string(), representative.to_value()),
            ]),
            PointSource::Interpolated { lo, hi, bound } => Value::Object(vec![
                kind("interpolated"),
                ("lo".to_string(), lo.to_value()),
                ("hi".to_string(), hi.to_value()),
                ("bound".to_string(), bound.to_value()),
            ]),
        }
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

/// One persisted cache record. The address JSON rides along so a load
/// can verify it addressed the right content (collision/staleness
/// guard).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheEntry {
    kind: String,
    config: String,
    outcome: RunOutcome,
}

/// A persisted aggregate-run cache record (same guard discipline as
/// [`CacheEntry`], different outcome shape). The per-flow outcomes are
/// stored in **canonical flow order** so any config in the entry's
/// symmetry class can load it and transplant back through its own rank
/// map.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AggregateCacheEntry {
    kind: String,
    config: String,
    outcome: AggregateOutcome,
}

/// A persisted transport-run cache record (same guard discipline as
/// [`AggregateCacheEntry`]; per-flow outcomes stored in canonical flow
/// order so any member of the symmetry class can load the entry).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FlowsCacheEntry {
    kind: String,
    config: String,
    outcome: FlowsOutcome,
}

/// Live progress across worker threads: points done, throughput, ETA and
/// aggregate drop counters, reported on stderr.
///
/// The throughput/ETA estimate counts **simulation slots**
/// (`sims_done / planned_sims`), not grid points: cluster-reused and
/// interpolated points land in microseconds, so folding them into the
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
    interpolated: AtomicUsize,
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
            interpolated: AtomicUsize::new(0),
            policer_drops: AtomicU64::new(0),
            queue_drops: AtomicU64::new(0),
            shaper_drops: AtomicU64::new(0),
            qoe_start: crate::qoe::snapshot(),
            start: Instant::now(),
            enabled,
        }
    }

    fn add_drops(&self, drops: (u64, u64, u64)) {
        self.policer_drops.fetch_add(drops.0, Ordering::Relaxed);
        self.queue_drops.fetch_add(drops.1, Ordering::Relaxed);
        self.shaper_drops.fetch_add(drops.2, Ordering::Relaxed);
    }

    /// Record a directly-produced point (simulated, or served from the
    /// persistent cache) given its aggregate drop counters
    /// `(policer, queue, shaper)`.
    fn record_counts(&self, drops: (u64, u64, u64), cache_hit: bool) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.sims_done.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            self.cached.fetch_add(1, Ordering::Relaxed);
        }
        self.add_drops(drops);
        if self.enabled {
            self.print(done, false);
        }
    }

    /// Record a point transplanted from its symmetry-class representative.
    fn record_reused(&self, drops: (u64, u64, u64)) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.reused.fetch_add(1, Ordering::Relaxed);
        self.add_drops(drops);
        if self.enabled {
            self.print(done, false);
        }
    }

    /// Record a point inherited from a rate anchor in approx mode.
    fn record_interpolated(&self, drops: (u64, u64, u64)) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.interpolated.fetch_add(1, Ordering::Relaxed);
        self.add_drops(drops);
        if self.enabled {
            self.print(done, false);
        }
    }

    fn print(&self, done: usize, final_line: bool) {
        let sims_done = self.sims_done.load(Ordering::Relaxed);
        let cached = self.cached.load(Ordering::Relaxed);
        let reused = self.reused.load(Ordering::Relaxed);
        let interpolated = self.interpolated.load(Ordering::Relaxed);
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
            "\r[runner] {done}/{} points ({} simulated, {cached} cached, {reused} reused, \
             {interpolated} interpolated) | {rate:.2} sims/s | ETA {eta}{qoe} | \
             drops: policer {}, queue {}, shaper {}",
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

/// The grid-execution engine: fans [`Job`]s over threads, with an
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
        self.run_clustered(jobs)
            .into_iter()
            .map(|p| p.outcome)
            .collect()
    }

    /// Run a batch of aggregate configurations, outcomes in input order,
    /// through the same thread pool, persistent cache and cluster
    /// pre-pass as [`run`].
    ///
    /// [`run`]: Runner::run
    pub fn run_aggregate_batch(&self, cfgs: &[AggregateConfig]) -> Vec<AggregateOutcome> {
        self.run_aggregate_clustered(cfgs)
            .into_iter()
            .map(|p| p.outcome)
            .collect()
    }

    /// [`Runner::run`] with provenance: each outcome carries whether it
    /// was simulated, cache-served, cluster-reused or interpolated.
    pub fn run_clustered(&self, jobs: &[Job]) -> Vec<ClusterPoint<RunOutcome>> {
        let counts = |o: &RunOutcome| (o.policer_drops, o.queue_drops, o.shaper_drops);
        match self.cluster {
            ClusterMode::Off => self.run_direct(jobs.len(), |i| self.run_one(&jobs[i]), counts),
            ClusterMode::Exact => self.run_jobs_merged(jobs, None),
            ClusterMode::Approx(eps) => self.run_jobs_merged(jobs, Some(eps)),
        }
    }

    /// [`Runner::run_aggregate_batch`] with provenance. Approx mode
    /// falls back to exact transplanting here: rate interpolation is
    /// only defined for the single-stream sweeps whose monotone rate
    /// response the metamorphic oracles certify.
    pub fn run_aggregate_clustered(
        &self,
        cfgs: &[AggregateConfig],
    ) -> Vec<ClusterPoint<AggregateOutcome>> {
        let counts = |o: &AggregateOutcome| {
            (
                o.per_flow.iter().map(|f| f.policer_drops).sum(),
                o.per_flow.iter().map(|f| f.queue_drops).sum(),
                o.per_flow.iter().map(|f| f.shaper_drops).sum(),
            )
        };
        let n = cfgs.len();
        if n == 0 {
            return Vec::new();
        }
        if self.cluster == ClusterMode::Off {
            return self.run_direct(n, |i| self.run_one_aggregate(&cfgs[i]), counts);
        }

        // Exact classes over the shared canonical address, with each
        // config's flow-rank map retained to bridge per-flow outcomes
        // between members of one class.
        let canons: Vec<_> = cfgs
            .iter()
            .map(|c| canonicalize(&aggregate_spec(c)))
            .collect();
        let ranks: Vec<Vec<usize>> = canons
            .iter()
            .zip(cfgs)
            .map(|(canon, cfg)| media_flow_ranks(canon, cfg.flows))
            .collect();
        let keys: Vec<String> = canons
            .iter()
            .zip(cfgs)
            .map(|(canon, cfg)| {
                format!(
                    "{}\0{}",
                    AGGREGATE_KIND,
                    keys::cache_address(canon.spec.to_value(), aggregate_scoring(cfg))
                )
            })
            .collect();
        let rep_of = first_seen(&keys);
        let reps: Vec<usize> = (0..n).filter(|&i| rep_of[i] == i).collect();
        let mut slot_of = vec![usize::MAX; n];
        for (slot, &i) in reps.iter().enumerate() {
            slot_of[i] = slot;
        }

        let stages_before = profile::snapshot();
        let progress = Progress::new(n, reps.len(), self.progress);
        let rep_results = self.fan_out(
            reps.len(),
            &progress,
            |slot| self.run_one_aggregate(&cfgs[reps[slot]]),
            counts,
        );
        let out = (0..n)
            .map(|i| {
                let rep = rep_of[i];
                let (outcome, hit) = &rep_results[slot_of[rep]];
                if rep == i {
                    ClusterPoint {
                        outcome: outcome.clone(),
                        source: if *hit {
                            PointSource::Cached
                        } else {
                            PointSource::Simulated
                        },
                    }
                } else {
                    // Same canonical form ⟹ same flow count; transplant
                    // the representative's per-flow outcomes through the
                    // two rank maps (rep label order → canonical order →
                    // member label order).
                    let transplanted =
                        from_canonical_order(&to_canonical_order(outcome, &ranks[rep]), &ranks[i]);
                    progress.record_reused(counts(&transplanted));
                    ClusterPoint {
                        outcome: transplanted,
                        source: PointSource::Reused {
                            representative: rep,
                        },
                    }
                }
            })
            .collect();
        progress.finish();
        profile::report(&format!("batch of {n}"), &stages_before);
        out
    }

    /// Run a batch of transport-level jobs, outcomes in input order,
    /// through the same thread pool, persistent cache and cluster
    /// pre-pass as [`run`].
    ///
    /// [`run`]: Runner::run
    pub fn run_flows_batch(&self, jobs: &[FlowJob]) -> Vec<FlowsOutcome> {
        self.run_flows_clustered(jobs)
            .into_iter()
            .map(|p| p.outcome)
            .collect()
    }

    /// [`Runner::run_flows_batch`] with provenance. Approx mode falls
    /// back to exact transplanting (rate interpolation is certified only
    /// for the single-stream VQM sweeps).
    pub fn run_flows_clustered(&self, jobs: &[FlowJob]) -> Vec<ClusterPoint<FlowsOutcome>> {
        let counts = |o: &FlowsOutcome| {
            (
                o.per_flow.iter().map(|f| f.policer_drops).sum(),
                o.per_flow.iter().map(|f| f.queue_drops).sum(),
                0,
            )
        };
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        if self.cluster == ClusterMode::Off {
            return self.run_direct(n, |i| self.run_one_flows(&jobs[i]), counts);
        }

        // Exact classes over the canonical address, with each job's
        // flow-rank map retained to bridge per-flow outcomes between
        // members of one class (the aggregate path's exact discipline).
        let canons: Vec<_> = jobs
            .iter()
            .map(|j| canonicalize(&j.spec_scoring().0))
            .collect();
        let ranks: Vec<Vec<usize>> = canons
            .iter()
            .zip(jobs)
            .map(|(canon, job)| media_flow_ranks(canon, job.flows()))
            .collect();
        let keys: Vec<String> = canons
            .iter()
            .zip(jobs)
            .map(|(canon, job)| {
                format!(
                    "{}\0{}",
                    job.kind(),
                    keys::cache_address(canon.spec.to_value(), job.spec_scoring().1)
                )
            })
            .collect();
        let rep_of = first_seen(&keys);
        let reps: Vec<usize> = (0..n).filter(|&i| rep_of[i] == i).collect();
        let mut slot_of = vec![usize::MAX; n];
        for (slot, &i) in reps.iter().enumerate() {
            slot_of[i] = slot;
        }

        let stages_before = profile::snapshot();
        let progress = Progress::new(n, reps.len(), self.progress);
        let rep_results = self.fan_out(
            reps.len(),
            &progress,
            |slot| self.run_one_flows(&jobs[reps[slot]]),
            counts,
        );
        let out = (0..n)
            .map(|i| {
                let rep = rep_of[i];
                let (outcome, hit) = &rep_results[slot_of[rep]];
                if rep == i {
                    ClusterPoint {
                        outcome: outcome.clone(),
                        source: if *hit {
                            PointSource::Cached
                        } else {
                            PointSource::Simulated
                        },
                    }
                } else {
                    let transplanted = flows_from_canonical_order(
                        &flows_to_canonical_order(outcome, &ranks[rep]),
                        &ranks[i],
                    );
                    progress.record_reused(counts(&transplanted));
                    ClusterPoint {
                        outcome: transplanted,
                        source: PointSource::Reused {
                            representative: rep,
                        },
                    }
                }
            })
            .collect();
        progress.finish();
        profile::report(&format!("batch of {n}"), &stages_before);
        out
    }

    /// Cluster-free execution: every point produced directly (simulated
    /// or cache-served), fanned over the thread pool.
    fn run_direct<O: Send + Sync + Clone>(
        &self,
        n: usize,
        exec: impl Fn(usize) -> (O, bool) + Sync,
        counts: impl Fn(&O) -> (u64, u64, u64) + Sync,
    ) -> Vec<ClusterPoint<O>> {
        if n == 0 {
            return Vec::new();
        }
        let stages_before = profile::snapshot();
        let progress = Progress::new(n, n, self.progress);
        let results = self.fan_out(n, &progress, exec, counts);
        progress.finish();
        profile::report(&format!("batch of {n}"), &stages_before);
        results
            .into_iter()
            .map(|(outcome, hit)| ClusterPoint {
                outcome,
                source: if hit {
                    PointSource::Cached
                } else {
                    PointSource::Simulated
                },
            })
            .collect()
    }

    /// The exact/approx cluster engine for [`Job`] grids: partition by
    /// canonical address, simulate representatives (bisecting rate
    /// families when `eps` is given), transplant members.
    fn run_jobs_merged(&self, jobs: &[Job], eps: Option<f64>) -> Vec<ClusterPoint<RunOutcome>> {
        let counts = |o: &RunOutcome| (o.policer_drops, o.queue_drops, o.shaper_drops);
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let keys: Vec<String> = jobs
            .iter()
            .map(|j| format!("{}\0{}", j.kind(), j.cache_json()))
            .collect();
        let rep_of = first_seen(&keys);
        let reps: Vec<usize> = (0..n).filter(|&i| rep_of[i] == i).collect();
        let mut slot_of = vec![usize::MAX; n];
        for (slot, &i) in reps.iter().enumerate() {
            slot_of[i] = slot;
        }

        // Approx mode: group representatives whose canonical specs
        // differ only in their single policer token rate. Families of at
        // least three points have an interior to interpolate; everything
        // else simulates directly.
        let mut singles: Vec<usize> = Vec::new();
        let mut families: Vec<Vec<(u64, usize)>> = Vec::new();
        if let Some(_eps) = eps {
            let mut by_family: HashMap<String, Vec<(u64, usize)>> = HashMap::new();
            for (slot, &i) in reps.iter().enumerate() {
                match rate_family(&jobs[i]) {
                    Some((fam, rate)) => by_family.entry(fam).or_default().push((rate, slot)),
                    None => singles.push(slot),
                }
            }
            // Deterministic order: families by their lowest member slot.
            let mut fams: Vec<Vec<(u64, usize)>> = by_family.into_values().collect();
            fams.sort_by_key(|f| f.iter().map(|&(_, slot)| slot).min());
            for mut fam in fams {
                if fam.len() < 3 {
                    singles.extend(fam.iter().map(|&(_, slot)| slot));
                } else {
                    fam.sort_unstable();
                    families.push(fam);
                }
            }
            singles.sort_unstable();
        } else {
            singles = (0..reps.len()).collect();
        }

        let stages_before = profile::snapshot();
        // `planned_sims` is the exact-mode upper bound; interpolation
        // only ever retires slots early, so the ETA stays conservative.
        let progress = Progress::new(n, reps.len(), self.progress);
        let mut rep_points: Vec<Option<ClusterPoint<RunOutcome>>> = vec![None; reps.len()];

        let single_results = self.fan_out(
            singles.len(),
            &progress,
            |k| self.run_one(&jobs[reps[singles[k]]]),
            counts,
        );
        for (&slot, (outcome, hit)) in singles.iter().zip(single_results) {
            rep_points[slot] = Some(ClusterPoint {
                outcome,
                source: if hit {
                    PointSource::Cached
                } else {
                    PointSource::Simulated
                },
            });
        }

        if let Some(eps) = eps {
            for fam in &families {
                self.bisect_family(jobs, &reps, fam, eps, &mut rep_points, &progress);
            }
        }

        let out = (0..n)
            .map(|i| {
                let rep = rep_of[i];
                let point = rep_points[slot_of[rep]]
                    .as_ref()
                    .expect("every representative resolved");
                if rep == i {
                    point.clone()
                } else {
                    progress.record_reused(counts(&point.outcome));
                    ClusterPoint {
                        outcome: point.outcome.clone(),
                        source: PointSource::Reused {
                            representative: rep,
                        },
                    }
                }
            })
            .collect();
        progress.finish();
        profile::report(&format!("batch of {n}"), &stages_before);
        out
    }

    /// Recursive (explicit-stack) bisection of one rate family, sorted
    /// by rate: simulate the endpoints; where two bracketing anchors
    /// agree within `eps` on every headline metric, the interior points
    /// inherit the nearest anchor's outcome with a recorded bound;
    /// otherwise split at the middle point and recurse on both halves.
    fn bisect_family(
        &self,
        jobs: &[Job],
        reps: &[usize],
        fam: &[(u64, usize)],
        eps: f64,
        rep_points: &mut [Option<ClusterPoint<RunOutcome>>],
        progress: &Progress,
    ) {
        let counts = |o: &RunOutcome| (o.policer_drops, o.queue_drops, o.shaper_drops);
        let simulate = |idx: usize, rep_points: &mut [Option<ClusterPoint<RunOutcome>>]| {
            let slot = fam[idx].1;
            if rep_points[slot].is_none() {
                let (outcome, hit) = self.run_one(&jobs[reps[slot]]);
                progress.record_counts(counts(&outcome), hit);
                rep_points[slot] = Some(ClusterPoint {
                    outcome,
                    source: if hit {
                        PointSource::Cached
                    } else {
                        PointSource::Simulated
                    },
                });
            }
        };
        simulate(0, rep_points);
        simulate(fam.len() - 1, rep_points);
        let mut stack = vec![(0usize, fam.len() - 1)];
        while let Some((lo, hi)) = stack.pop() {
            if hi - lo <= 1 {
                continue;
            }
            let olo = rep_points[fam[lo].1].as_ref().expect("lo anchor simulated");
            let ohi = rep_points[fam[hi].1].as_ref().expect("hi anchor simulated");
            if anchors_agree(&olo.outcome, &ohi.outcome, eps) {
                let bound = error_bound(&olo.outcome, &ohi.outcome);
                let (olo, ohi) = (olo.clone(), ohi.clone());
                for k in lo + 1..hi {
                    // Nearest anchor by token-rate distance, ties to the
                    // lower anchor.
                    let nearest = if fam[k].0 - fam[lo].0 <= fam[hi].0 - fam[k].0 {
                        &olo
                    } else {
                        &ohi
                    };
                    progress.record_interpolated(counts(&nearest.outcome));
                    rep_points[fam[k].1] = Some(ClusterPoint {
                        outcome: nearest.outcome.clone(),
                        source: PointSource::Interpolated {
                            lo: reps[fam[lo].1],
                            hi: reps[fam[hi].1],
                            bound: bound.clone(),
                        },
                    });
                }
            } else {
                let mid = (lo + hi) / 2;
                simulate(mid, rep_points);
                stack.push((lo, mid));
                stack.push((mid, hi));
            }
        }
    }

    /// The shared fan-out engine behind every batch entry point: `n`
    /// points, each produced by `exec(i) -> (outcome, cache_hit)`, fanned
    /// over the scoped thread pool with results returned **in index
    /// order** regardless of thread count. `counts` extracts the drop
    /// counters the live progress line accumulates.
    fn fan_out<O: Send + Sync>(
        &self,
        n: usize,
        progress: &Progress,
        exec: impl Fn(usize) -> (O, bool) + Sync,
        counts: impl Fn(&O) -> (u64, u64, u64) + Sync,
    ) -> Vec<(O, bool)> {
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<OnceLock<(O, bool)>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.clamp(1, n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = exec(i);
                    progress.record_counts(counts(&result.0), result.1);
                    if slots[i].set(result).is_err() {
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

    /// Run one job, consulting the cache; returns `(outcome, cache_hit)`.
    fn run_one(&self, job: &Job) -> (RunOutcome, bool) {
        let Some(dir) = &self.cache_dir else {
            return (job.execute(), false);
        };
        let config = job.cache_json();
        let path = keys::cache_path(dir, job.kind(), &config);
        if let Some(outcome) = load_cached(&path, job.kind(), &config) {
            return (outcome, true);
        }
        let outcome = job.execute();
        store_cached(
            dir,
            &path,
            &CacheEntry {
                kind: job.kind().to_string(),
                config,
                outcome: outcome.clone(),
            },
        );
        (outcome, false)
    }

    /// Run one aggregate config, consulting the cache. Entries are
    /// addressed by the config's canonical spec and stored in canonical
    /// flow order, so every member of a symmetry class shares one entry;
    /// outcomes are transplanted back through this config's rank map.
    fn run_one_aggregate(&self, cfg: &AggregateConfig) -> (AggregateOutcome, bool) {
        let Some(dir) = &self.cache_dir else {
            return (run_aggregate(cfg), false);
        };
        let canon = canonicalize(&aggregate_spec(cfg));
        let rank = media_flow_ranks(&canon, cfg.flows);
        let config = keys::cache_address(canon.spec.to_value(), aggregate_scoring(cfg));
        let path = keys::cache_path(dir, AGGREGATE_KIND, &config);
        if let Some(canon_out) = load_cached_aggregate(&path, AGGREGATE_KIND, &config) {
            // Flow-count guard against a stale entry shape; the address
            // fixes the canonical spec, so the count always matches in
            // practice.
            if canon_out.per_flow.len() == cfg.flows as usize {
                return (from_canonical_order(&canon_out, &rank), true);
            }
        }
        let outcome = run_aggregate(cfg);
        store_cached_aggregate(
            dir,
            &path,
            &AggregateCacheEntry {
                kind: AGGREGATE_KIND.to_string(),
                config,
                outcome: to_canonical_order(&outcome, &rank),
            },
        );
        (outcome, false)
    }

    /// Run one transport-level job, consulting the cache. Entries are
    /// addressed by the canonical spec + scoring and stored in canonical
    /// flow order (the aggregate path's discipline).
    fn run_one_flows(&self, job: &FlowJob) -> (FlowsOutcome, bool) {
        let Some(dir) = &self.cache_dir else {
            return (job.execute(), false);
        };
        let (spec, scoring) = job.spec_scoring();
        let canon = canonicalize(&spec);
        let rank = media_flow_ranks(&canon, job.flows());
        let config = keys::cache_address(canon.spec.to_value(), scoring);
        let path = keys::cache_path(dir, job.kind(), &config);
        if let Some(canon_out) = load_cached_flows(&path, job.kind(), &config) {
            if canon_out.per_flow.len() == job.flows() as usize {
                return (flows_from_canonical_order(&canon_out, &rank), true);
            }
        }
        let outcome = job.execute();
        store_cached_flows(
            dir,
            &path,
            &FlowsCacheEntry {
                kind: job.kind().to_string(),
                config,
                outcome: flows_to_canonical_order(&outcome, &rank),
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
        let jobs = grid_jobs(rates, depths, |rate, depth| {
            let mut cfg = base.clone();
            cfg.profile = EfProfile::new(rate, depth);
            Job::Qbone(cfg)
        });
        self.collect_sweep(jobs, rates, depths, label)
    }

    /// Run a local-testbed grid through this runner.
    pub fn local_sweep(
        &self,
        base: &LocalConfig,
        rates: &[u64],
        depths: &[u32],
        label: impl Into<String>,
    ) -> SweepResult {
        let jobs = grid_jobs(rates, depths, |rate, depth| {
            let mut cfg = base.clone();
            cfg.profile = EfProfile::new(rate, depth);
            Job::Local(cfg)
        });
        self.collect_sweep(jobs, rates, depths, label)
    }

    fn collect_sweep(
        &self,
        jobs: Vec<Job>,
        rates: &[u64],
        depths: &[u32],
        label: impl Into<String>,
    ) -> SweepResult {
        let outcomes = self.run(&jobs);
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

/// The cache/cluster kind tag of aggregate runs.
const AGGREGATE_KIND: &str = "aggregate";

/// The scoring parameters of an aggregate run (its cache address pairs
/// these with the canonical spec).
fn aggregate_scoring(cfg: &AggregateConfig) -> Value {
    // Stamped like `Job::cache_json`: a non-default QoE estimator is part
    // of the identity (full mode adds nothing).
    crate::qoe::stamp_scoring(Value::Object(vec![
        ("clip".to_string(), cfg.clip.to_value()),
        ("encoding_bps".to_string(), cfg.encoding_bps.to_value()),
    ]))
}

/// Parse a `DSV_CLUSTER` value; unrecognized input warns on stderr and
/// falls back to the exact default rather than silently changing
/// semantics.
fn cluster_mode_from_str(v: &str) -> ClusterMode {
    match v {
        "off" | "0" => ClusterMode::Off,
        "" | "exact" | "1" => ClusterMode::Exact,
        _ => {
            if let Some(eps) = v.strip_prefix("approx:") {
                match eps.trim().parse::<f64>() {
                    Ok(e) if e.is_finite() && e >= 0.0 => return ClusterMode::Approx(e),
                    _ => eprintln!(
                        "[runner] DSV_CLUSTER={v:?}: tolerance must be a finite number >= 0; \
                         using exact clustering"
                    ),
                }
            } else {
                eprintln!(
                    "[runner] DSV_CLUSTER={v:?} not recognized \
                     (expected off, exact or approx:<eps>); using exact clustering"
                );
            }
            ClusterMode::Exact
        }
    }
}

/// Map each index to the first index carrying the same key (itself for
/// class representatives).
fn first_seen(keys: &[String]) -> Vec<usize> {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    keys.iter()
        .enumerate()
        .map(|(i, k)| *seen.entry(k.as_str()).or_insert(i))
        .collect()
}

/// The approx-mode rate-family key of a job: its canonical spec with the
/// single distinct policer token rate masked out (in the policer actions
/// and the matching audit bounds), paired with that rate. Two jobs in one
/// family differ **only** in that rate — the one independent variable
/// the paper's rate sweeps move — so interpolating between them walks a
/// curve the metamorphic monotonicity oracles certify as mostly
/// monotone. Jobs with zero or several distinct policer rates have no
/// family and always simulate.
fn rate_family(job: &Job) -> Option<(String, u64)> {
    let (spec, scoring) = job.spec_scoring();
    let mut canon = canonicalize(&spec).spec;
    let mut rates: Vec<u64> = canon
        .conditioners
        .iter()
        .flat_map(|c| c.rules.iter())
        .filter_map(|r| match r.action {
            ActionSpec::Police { rate_bps, .. } => Some(rate_bps),
            _ => None,
        })
        .collect();
    rates.sort_unstable();
    rates.dedup();
    if rates.len() != 1 || rates[0] == 0 {
        return None;
    }
    let rate = rates[0];
    for c in &mut canon.conditioners {
        for r in &mut c.rules {
            if let ActionSpec::Police { rate_bps, .. } = &mut r.action {
                *rate_bps = 0;
            }
        }
    }
    for b in &mut canon.bounds {
        if b.rate_bps == rate {
            b.rate_bps = 0;
        }
    }
    Some((
        format!(
            "{}\0{}",
            job.kind(),
            keys::cache_address(canon.to_value(), scoring)
        ),
        rate,
    ))
}

/// True when two anchors agree within `eps` on every headline metric
/// (and broke down the same way) — the gate for interpolating between
/// them.
fn anchors_agree(a: &RunOutcome, b: &RunOutcome, eps: f64) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= eps;
    close(a.quality, b.quality)
        && close(a.frame_loss, b.frame_loss)
        && close(a.packet_loss, b.packet_loss)
        && match (a.quality_vs_best, b.quality_vs_best) {
            (None, None) => true,
            (Some(x), Some(y)) => close(x, y),
            _ => false,
        }
        && a.broken == b.broken
}

/// The recorded bound for points interpolated between two anchors: the
/// anchor spread (monotone truth lies between the anchors) plus the
/// wobble allowance for the curves' residual non-monotonicity.
fn error_bound(a: &RunOutcome, b: &RunOutcome) -> ErrorBound {
    ErrorBound {
        quality: (a.quality - b.quality).abs() + WOBBLE_QUALITY,
        frame_loss: (a.frame_loss - b.frame_loss).abs() + WOBBLE_LOSS,
        packet_loss: (a.packet_loss - b.packet_loss).abs() + WOBBLE_LOSS,
        quality_vs_best: match (a.quality_vs_best, b.quality_vs_best) {
            (Some(x), Some(y)) => Some((x - y).abs() + WOBBLE_QUALITY),
            _ => None,
        },
    }
}

/// Build the depth-major job grid (the order `SweepResult` documents).
fn grid_jobs(rates: &[u64], depths: &[u32], mut make: impl FnMut(u64, u32) -> Job) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(rates.len() * depths.len());
    for &depth in depths {
        for &rate in rates {
            jobs.push(make(rate, depth));
        }
    }
    jobs
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
fn load_cached(path: &Path, kind: &str, config: &str) -> Option<RunOutcome> {
    retry_torn_read(path, |text| {
        let entry: CacheEntry = serde_json::from_str(text).ok()?;
        (entry.kind == kind && entry.config == config).then_some(entry.outcome)
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

/// Load a transport-run cache entry if it addresses exactly this config.
fn load_cached_flows(path: &Path, kind: &str, config: &str) -> Option<FlowsOutcome> {
    retry_torn_read(path, |text| {
        let entry: FlowsCacheEntry = serde_json::from_str(text).ok()?;
        (entry.kind == kind && entry.config == config).then_some(entry.outcome)
    })
}

/// Persist a transport-run cache entry atomically, best-effort.
fn store_cached_flows(dir: &Path, path: &Path, entry: &FlowsCacheEntry) {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let json = serde_json::to_string_pretty(entry).expect("cache entry serializes");
    let tmp = dir.join(format!(
        ".tmp-flows-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if fs::write(&tmp, json).is_ok() && fs::rename(&tmp, path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

/// Load an aggregate cache entry if it addresses exactly this config.
fn load_cached_aggregate(path: &Path, kind: &str, config: &str) -> Option<AggregateOutcome> {
    retry_torn_read(path, |text| {
        let entry: AggregateCacheEntry = serde_json::from_str(text).ok()?;
        (entry.kind == kind && entry.config == config).then_some(entry.outcome)
    })
}

/// Persist an aggregate cache entry atomically, best-effort.
fn store_cached_aggregate(dir: &Path, path: &Path, entry: &AggregateCacheEntry) {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let json = serde_json::to_string_pretty(entry).expect("cache entry serializes");
    let tmp = dir.join(format!(
        ".tmp-agg-{}-{}",
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
        assert_eq!(
            cluster_mode_from_str("approx:0.05"),
            ClusterMode::Approx(0.05)
        );
        // Garbage (including non-finite or negative tolerances) warns
        // and falls back to the exact default.
        assert_eq!(cluster_mode_from_str("approx:"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str("approx:-1"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str("approx:inf"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str("fast"), ClusterMode::Exact);
    }

    #[test]
    fn rate_families_group_rate_neighbours_only() {
        // Two qbone configs differing only in policer token rate share a
        // family and carry their own rates; a different bucket depth is
        // a different family.
        let mut a = tiny_base();
        a.profile = EfProfile::new(1_000_000, DEPTH_2MTU);
        let mut b = tiny_base();
        b.profile = EfProfile::new(1_200_000, DEPTH_2MTU);
        let mut c = tiny_base();
        c.profile = EfProfile::new(1_000_000, DEPTH_3MTU);
        let (fam_a, rate_a) = rate_family(&Job::Qbone(a)).unwrap();
        let (fam_b, rate_b) = rate_family(&Job::Qbone(b)).unwrap();
        let (fam_c, _) = rate_family(&Job::Qbone(c)).unwrap();
        assert_eq!(fam_a, fam_b);
        assert_eq!((rate_a, rate_b), (1_000_000, 1_200_000));
        assert_ne!(fam_a, fam_c);
    }

    #[test]
    fn error_bounds_cover_anchor_spread_plus_wobble() {
        let a = RunOutcome {
            quality: 0.30,
            frame_loss: 0.10,
            packet_loss: 0.05,
            ..Default::default()
        };
        let mut b = RunOutcome {
            quality: 0.20,
            frame_loss: 0.12,
            packet_loss: 0.05,
            ..Default::default()
        };
        assert!(anchors_agree(&a, &b, 0.1));
        assert!(!anchors_agree(&a, &b, 0.05));
        let bound = error_bound(&a, &b);
        assert!((bound.quality - (0.10 + WOBBLE_QUALITY)).abs() < 1e-12);
        assert!((bound.frame_loss - (0.02 + WOBBLE_LOSS)).abs() < 1e-12);
        assert!((bound.packet_loss - WOBBLE_LOSS).abs() < 1e-12);
        assert!(bound.quality_vs_best.is_none());
        // A broken session never merges with a healthy one, however
        // close the numbers.
        b.broken = true;
        assert!(!anchors_agree(&a, &b, 1.0));
    }

    #[test]
    fn cache_round_trips_and_guards_config() {
        let dir = std::env::temp_dir().join(format!("dsv-runner-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let runner = Runner::serial().with_cache(Some(dir.clone()));
        let job = Job::Qbone(tiny_base());
        let (cold, hit0) = runner.run_one(&job);
        assert!(!hit0, "first run must be a miss");
        let (warm, hit1) = runner.run_one(&job);
        assert!(hit1, "second run must hit");
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );
        // A different profile is a different address: no false hit.
        let mut other = tiny_base();
        other.profile = EfProfile::new(1_100_000, DEPTH_3MTU);
        let (_, hit2) = runner.run_one(&Job::Qbone(other));
        assert!(!hit2, "changed config must miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_fall_back_to_execution() {
        let dir = std::env::temp_dir().join(format!("dsv-runner-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let runner = Runner::serial().with_cache(Some(dir.clone()));
        let job = Job::Qbone(tiny_base());
        // Poison the exact cache path this job addresses.
        let path = keys::cache_path(&dir, job.kind(), &job.cache_json());
        fs::write(&path, "{not json").unwrap();
        let (_, hit) = runner.run_one(&job);
        assert!(!hit, "corrupt entry must not count as a hit");
        // And it must have been repaired in place.
        let (_, hit2) = runner.run_one(&job);
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
        let config = job.cache_json();
        let path = keys::cache_path(&dir, job.kind(), &config);
        let entry = CacheEntry {
            kind: job.kind().to_string(),
            config: config.clone(),
            outcome: job.execute(),
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
                        if let Some(outcome) = load_cached(&path, job.kind(), &config) {
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
            load_cached(&path, job.kind(), &config).is_some(),
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
