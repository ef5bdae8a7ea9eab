//! The workloads: the paper's figure grids, built from the public config
//! types exactly as the figure binaries submit them to the runner.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsv_core::artifacts::{self, ArtifactStore, Codec};
use dsv_core::prelude::*;
use dsv_core::smoothing::{DEPTH_10MTU, DEPTH_40MTU};
use dsv_media::encoder::EncodedClip;
use dsv_scenario::{compile, ClipStore, CodecSpec, CompileOptions, ScenarioSpec};
use serde::{Serialize, Value};

/// The committed seed of each testbed: the config constructors' default,
/// the seed every `results/` recording was made with.
const QBONE_SEED: u64 = 7;
const LOCAL_SEED: u64 = 11;
const AGGREGATE_SEED: u64 = 7;
const SMOOTHING_SEED: u64 = 7;
const AF_TCP_SEED: u64 = 23;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop paced UDP video behind EF policers: the figs 7–12 QBone
    /// sweeps plus the fig16 aggregate rotation sweep.
    UdpPoliced,
    /// The closed-loop TCP grids: fig15 local TCP (unshaped and shaped),
    /// fig17 smoothing and fig18 AF-TCP.
    TcpClosedLoop,
    /// Both grids above, replayed against a result cache set-up filled.
    WarmRerun,
}

impl Workload {
    /// Parse a workload name as `BENCHMARK.json` lists it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "udp_policed" => Some(Workload::UdpPoliced),
            "tcp_closed_loop" => Some(Workload::TcpClosedLoop),
            "warm_rerun" => Some(Workload::WarmRerun),
            _ => None,
        }
    }

    /// Whether every timed pass starts from an empty result cache.
    pub fn cold(self) -> bool {
        self != Workload::WarmRerun
    }

    /// The workload's batches, in the order the figure binaries run them,
    /// with every config's seed moved `seed` past its committed value.
    pub fn batches(self, seed: u64) -> Vec<Batch> {
        match self {
            Workload::UdpPoliced => udp_batches(seed),
            Workload::TcpClosedLoop => tcp_batches(seed),
            Workload::WarmRerun => {
                let mut all = udp_batches(seed);
                all.extend(tcp_batches(seed));
                all
            }
        }
    }
}

/// One grid point, whatever its testbed.
#[derive(Debug, Clone)]
pub enum Point {
    /// A QBone wide-area run (figs 7–12).
    Qbone(QboneConfig),
    /// A local Frame-Relay testbed run (fig15).
    Local(LocalConfig),
    /// An N-flow EF aggregate run (fig16 and its rotation sweep).
    Aggregate(AggregateConfig),
    /// A TCP-smoothing run (fig17).
    Smoothing(SmoothingConfig),
    /// An AF-TCP rate-guarantee run (fig18).
    AfTcp(AfTcpConfig),
}

impl Point {
    /// The testbed tag (the runner's cache kind).
    pub fn kind(&self) -> &'static str {
        match self {
            Point::Qbone(_) => "qbone",
            Point::Local(_) => "local",
            Point::Aggregate(_) => "aggregate",
            Point::Smoothing(_) => "smoothing",
            Point::AfTcp(_) => "af_tcp",
        }
    }

    /// The point's scenario, from its testbed's spec producer.
    pub fn spec(&self) -> ScenarioSpec {
        match self {
            Point::Qbone(c) => dsv_core::qbone::qbone_spec(c),
            Point::Local(c) => dsv_core::local::local_spec(c),
            Point::Aggregate(c) => dsv_core::aggregate::aggregate_spec(c),
            Point::Smoothing(c) => dsv_core::smoothing::smoothing_spec(c),
            Point::AfTcp(c) => dsv_core::af_tcp::af_tcp_spec(c),
        }
    }

    /// The scoring parameters that live outside the topology; with the
    /// canonical spec they make the point's identity.
    pub fn scoring(&self) -> Value {
        let field = |k: &str, v: Value| (k.to_string(), v);
        Value::Object(match self {
            Point::Qbone(c) => vec![
                field("clip", c.clip.to_value()),
                field("encoding_bps", c.encoding_bps.to_value()),
                field("score_vs_best", c.score_vs_best.to_value()),
            ],
            Point::Local(c) => vec![
                field("clip", c.clip.to_value()),
                field("cap_bps", c.cap_bps.to_value()),
            ],
            Point::Aggregate(c) => vec![
                field("clip", c.clip.to_value()),
                field("encoding_bps", c.encoding_bps.to_value()),
            ],
            Point::Smoothing(c) => vec![
                field("clip", c.clip.to_value()),
                field("encoding_bps", c.encoding_bps.to_value()),
            ],
            Point::AfTcp(_) => Vec::new(),
        })
    }

    /// The config's own JSON (what the golden checksums hash).
    pub fn config_json(&self) -> String {
        match self {
            Point::Qbone(c) => serde_json::to_string(c),
            Point::Local(c) => serde_json::to_string(c),
            Point::Aggregate(c) => serde_json::to_string(c),
            Point::Smoothing(c) => serde_json::to_string(c),
            Point::AfTcp(c) => serde_json::to_string(c),
        }
        .expect("config serializes")
    }

    /// The encoding whose reference features score the point's video
    /// sessions, as `(clip, codec, rate)`; `None` for transport-only
    /// testbeds.
    pub fn reference(&self) -> Option<(ClipId, Codec, u64)> {
        match self {
            Point::Qbone(c) => Some((c.clip.into(), Codec::Mpeg1, c.encoding_bps)),
            Point::Local(c) => Some((c.clip.into(), Codec::Wmv, c.cap_bps)),
            Point::Aggregate(c) => Some((c.clip.into(), Codec::Mpeg1, c.encoding_bps)),
            Point::Smoothing(_) | Point::AfTcp(_) => None,
        }
    }
}

/// Where a batch's committed outcomes live under `results/`.
#[derive(Debug, Clone, Copy)]
pub enum Recording {
    /// A figure sweep file (`SweepResult`), one point per config.
    Sweep(&'static str),
    /// A transport golden (`findings_*`), one outcome per config.
    Flows(&'static str),
    /// The aggregate golden: outcomes of the unrotated configs; rotated
    /// members permute them by declaration position.
    Rotations(&'static str),
}

/// The points one runner call receives, as a figure binary submits them.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The points, all of one runner family.
    pub points: Vec<Point>,
    /// Their committed recording.
    pub recording: Recording,
}

/// The figs 7–12 QBone sweeps and the fig16 rotation sweep.
fn udp_batches(seed: u64) -> Vec<Batch> {
    let mut batches = Vec::new();
    for (clip, enc, file) in [
        (ClipId2::Lost, 1_700_000u64, "fig07_qbone_lost_1700k"),
        (ClipId2::Lost, 1_500_000, "fig08_qbone_lost_1500k"),
        (ClipId2::Lost, 1_000_000, "fig09_qbone_lost_1000k"),
        (ClipId2::Dark, 1_700_000, "fig10_qbone_dark_1700k"),
        (ClipId2::Dark, 1_500_000, "fig11_qbone_dark_1500k"),
        (ClipId2::Dark, 1_000_000, "fig12_qbone_dark_1000k"),
    ] {
        let mut points = Vec::new();
        for depth in [DEPTH_2MTU, DEPTH_3MTU] {
            for rate in dsv_bench::figures::qbone_grid(enc) {
                let mut cfg = QboneConfig::new(clip, enc, EfProfile::new(rate, depth));
                cfg.seed = QBONE_SEED.wrapping_add(seed);
                points.push(Point::Qbone(cfg));
            }
        }
        batches.push(Batch {
            points,
            recording: Recording::Sweep(file),
        });
    }

    // The fig16 grid, each config re-declared at up to four rotations
    // (rotation 0 first): 110 members in 40 symmetry classes.
    const ENC: u64 = 1_000_000;
    let mut points = Vec::new();
    for depth in [DEPTH_2MTU, DEPTH_3MTU] {
        for n in [1u32, 2, 4, 8] {
            for frac in [0.9, 1.0, 1.1, 1.25, 1.4] {
                let rate = (ENC as f64 * n as f64 * frac) as u64;
                let mut cfg =
                    AggregateConfig::new(ClipId2::Lost, ENC, n, EfProfile::new(rate, depth));
                cfg.seed = AGGREGATE_SEED.wrapping_add(seed);
                for rot in 0..n.min(4) {
                    points.push(Point::Aggregate(cfg.clone().with_rotation(rot)));
                }
            }
        }
    }
    batches.push(Batch {
        points,
        recording: Recording::Rotations("findings_aggregate"),
    });
    batches
}

/// The fig15 local TCP grids, the fig17 smoothing grid and the fig18
/// AF-TCP grid.
fn tcp_batches(seed: u64) -> Vec<Batch> {
    let mut batches = Vec::new();
    let rates: Vec<u64> = (0..10)
        .map(|i| (700_000.0 + i as f64 * 150_000.0) as u64)
        .collect();
    for (shaped, file) in [(false, "fig15_local_tcp"), (true, "fig15_local_tcp_shaped")] {
        let mut points = Vec::new();
        for depth in [DEPTH_2MTU, DEPTH_3MTU] {
            for &rate in &rates {
                let mut cfg = LocalConfig::new(
                    ClipId2::Lost,
                    EfProfile::new(rate, depth),
                    LocalTransport::Tcp,
                );
                cfg.shaped = shaped;
                cfg.seed = LOCAL_SEED.wrapping_add(seed);
                points.push(Point::Local(cfg));
            }
        }
        batches.push(Batch {
            points,
            recording: Recording::Sweep(file),
        });
    }

    let mut points = Vec::new();
    for server in [
        SmoothingServer::Bursty,
        SmoothingServer::Tcp,
        SmoothingServer::Abr,
    ] {
        for rate in [800_000u64, 1_650_000, 5_000_000] {
            for depth in [DEPTH_2MTU, DEPTH_10MTU, DEPTH_40MTU] {
                let mut cfg = SmoothingConfig::new(
                    ClipId2::Lost,
                    1_500_000,
                    server,
                    EfProfile::new(rate, depth),
                );
                cfg.seed = SMOOTHING_SEED.wrapping_add(seed);
                points.push(Point::Smoothing(cfg));
            }
        }
    }
    batches.push(Batch {
        points,
        recording: Recording::Flows("findings_tcp_smoothing"),
    });

    const BOTTLENECK: u64 = 6_000_000;
    let mut cfgs = Vec::new();
    for trtcm in [false, true] {
        for frac in [0.3, 0.5, 0.7, 0.85, 0.95] {
            let per_flow = (BOTTLENECK as f64 * frac / 4.0) as u64;
            let mut cfg = AfTcpConfig::new(vec![per_flow; 4], vec![0; 4]);
            cfg.trtcm = trtcm;
            cfgs.push(cfg);
        }
    }
    cfgs.push(AfTcpConfig::new(vec![1_050_000; 4], vec![0, 0, 40, 40]));
    cfgs.push(AfTcpConfig::new(
        vec![250_000, 500_000, 750_000, 1_350_000],
        vec![0; 4],
    ));
    cfgs.push(AfTcpConfig::new(
        vec![500_000, 1_000_000, 1_500_000, 2_700_000],
        vec![0; 4],
    ));
    let points = cfgs
        .into_iter()
        .map(|mut cfg| {
            cfg.seed = AF_TCP_SEED.wrapping_add(seed);
            Point::AfTcp(cfg)
        })
        .collect();
    batches.push(Batch {
        points,
        recording: Recording::Flows("findings_af_tcp"),
    });
    batches
}

/// A [`ClipStore`] that forwards to the shared artifact store and counts
/// the encodes the requests it serves actually run.
#[derive(Default)]
struct CountingStore {
    encodes: AtomicU64,
}

impl CountingStore {
    /// Run `acquire`, charging it the encodes it ran for `(clip, codec, rate)`.
    fn count<T>(&self, clip: ClipId, codec: Codec, rate: u64, acquire: impl FnOnce() -> T) -> T {
        let before = artifacts::encode_runs(clip, codec, rate);
        let out = acquire();
        let ran = artifacts::encode_runs(clip, codec, rate) - before;
        self.encodes.fetch_add(ran, Ordering::Relaxed);
        out
    }
}

impl ClipStore for CountingStore {
    fn encoding(&self, clip: ClipId2, codec: CodecSpec, rate_bps: u64) -> Arc<EncodedClip> {
        let artifact_codec = match codec {
            CodecSpec::Mpeg1 => Codec::Mpeg1,
            CodecSpec::Wmv => Codec::Wmv,
        };
        self.count(clip.into(), artifact_codec, rate_bps, || {
            ArtifactStore.encoding(clip, codec, rate_bps)
        })
    }
}

/// Fill the shared artifact store with everything `batches` read — every
/// encoding their scenarios bind and every reference feature set their
/// scoring uses — and return how many encodes that ran.
pub fn warm_artifacts(batches: &[Batch]) -> u64 {
    let store = CountingStore::default();
    for point in batches.iter().flat_map(|b| &b.points) {
        compile(
            &point.spec(),
            CompileOptions {
                store: Some(&store),
                wrap: None,
            },
        )
        .expect("figure spec compiles");
        if let Some((clip, codec, rate)) = point.reference() {
            store.count(clip, codec, rate, || {
                artifacts::source_features(clip);
                artifacts::reference_features(clip, codec, rate);
            });
        }
    }
    store.encodes.into_inner()
}
