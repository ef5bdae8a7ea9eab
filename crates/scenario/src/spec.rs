//! The serializable scenario IR.
//!
//! A [`ScenarioSpec`] is a complete, declarative description of one
//! simulation: named nodes (hosts carry an [`AppSpec`], routers carry
//! none), links with per-direction rates and queue disciplines,
//! conditioner tables with named fault taps, and measurement bounds for
//! the audit oracles. Every cross-reference is **by node name**, never by
//! `NodeId` — the compiler ([`crate::compile()`]) assigns ids positionally
//! and resolves names, so specs cannot break when creation order changes.
//!
//! All types serialize to the vendored serde's canonical JSON (object
//! fields in declaration order), which makes a spec's JSON byte-stable:
//! the sweep runner content-addresses its cache with exactly that string.
//! Data-carrying enums implement serde by hand (the offline derive only
//! handles named-field structs and fieldless enums); each serializes as
//! an object with a `"kind"` discriminant followed by its fields.

use dsv_media::scene::ClipId;
use dsv_net::packet::{Dscp, Proto};
use serde::{de_field, Deserialize, Error, Serialize, Value};

/// Serializable mirror of [`ClipId`] (keeps `dsv-media` serde-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ClipId2 {
    Lost,
    Dark,
    Talk,
}

impl From<ClipId2> for ClipId {
    fn from(c: ClipId2) -> ClipId {
        match c {
            ClipId2::Lost => ClipId::Lost,
            ClipId2::Dark => ClipId::Dark,
            ClipId2::Talk => ClipId::Talk,
        }
    }
}

impl From<ClipId> for ClipId2 {
    fn from(c: ClipId) -> ClipId2 {
        match c {
            ClipId::Lost => ClipId2::Lost,
            ClipId::Dark => ClipId2::Dark,
            ClipId::Talk => ClipId2::Talk,
        }
    }
}

/// Serializable mirror of the media codecs the experiment layer encodes
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum CodecSpec {
    Mpeg1,
    Wmv,
}

/// Serializable DSCP marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum DscpSpec {
    BestEffort,
    Ef,
    EfQbone,
}

impl DscpSpec {
    /// The wire code point this name stands for.
    pub fn to_dscp(self) -> Dscp {
        match self {
            DscpSpec::BestEffort => Dscp::BEST_EFFORT,
            DscpSpec::Ef => Dscp::EF,
            DscpSpec::EfQbone => Dscp::EF_QBONE,
        }
    }
}

/// Serializable transport tag for match rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ProtoSpec {
    Udp,
    Tcp,
}

impl ProtoSpec {
    /// The `dsv-net` transport tag.
    pub fn to_proto(self) -> Proto {
        match self {
            ProtoSpec::Udp => Proto::Udp,
            ProtoSpec::Tcp => Proto::Tcp,
        }
    }
}

/// Client transport discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum TransportSpec {
    Udp,
    Tcp,
}

/// A reference to an encoded clip: which clip, which codec, what rate.
/// The compiler resolves this against a [`crate::compile::ClipStore`], so
/// the (expensive) encoding artifact never lives in the spec itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaRef {
    /// Which clip.
    pub clip: ClipId2,
    /// Which codec encodes it.
    pub codec: CodecSpec,
    /// Encoder rate parameter, bps (CBR target or bandwidth cap).
    pub rate_bps: u64,
}

/// The application bound to a host node. All node references are names.
#[derive(Debug, Clone, PartialEq)]
pub enum AppSpec {
    /// A Video-Charger-style paced media server.
    PacedServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// What it streams.
        media: MediaRef,
    },
    /// A NetShow-Theater-style large-datagram server.
    BurstyServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// What it streams.
        media: MediaRef,
        /// Wait for the client's PLAY before streaming.
        wait_for_play: bool,
    },
    /// A paced server with multi-rate content selection.
    MultiRatePacedServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// Encoding tiers to choose between.
        tiers: Vec<MediaRef>,
        /// The server's estimate of deliverable bandwidth, bps.
        estimate_bps: u64,
    },
    /// The adaptive (WMT-style) UDP server.
    AdaptiveServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// Encoding tiers (highest last).
        tiers: Vec<MediaRef>,
    },
    /// The mini-TCP streaming server.
    TcpServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// What it streams.
        media: MediaRef,
    },
    /// The buffer-driven ABR origin server (serves whatever ladder rung
    /// each segment request names, over one mini-TCP stream).
    AbrServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// Ladder of encoding rates, ascending, bps.
        rungs_bps: Vec<u64>,
        /// Segment duration, µs.
        segment_us: u64,
    },
    /// The buffer-driven ABR client: fetches segments over mini-TCP,
    /// choosing the ladder rung from buffer occupancy and measured
    /// throughput.
    AbrClient {
        /// Server node name.
        server: String,
        /// Flow id of client→server traffic (requests and ACKs).
        up_flow: u32,
        /// Ladder of encoding rates, ascending, bps (must match the
        /// server's).
        rungs_bps: Vec<u64>,
        /// Buffered µs required per ladder step.
        step_us: u64,
        /// Segment duration, µs.
        segment_us: u64,
        /// Segments in the session.
        segments: u32,
        /// Buffer high-water mark, µs.
        max_buffer_us: u64,
    },
    /// A greedy bulk TCP sender (the AF throughput-guarantee flows).
    BulkTcpSender {
        /// Sink node name.
        client: String,
        /// Flow id of the data segments.
        flow: u32,
        /// DSCP pre-marking of data segments.
        dscp: DscpSpec,
        /// Application bytes to transfer.
        total_bytes: u64,
    },
    /// The ACKing sink of a bulk TCP transfer.
    BulkTcpSink {
        /// Sender node name.
        server: String,
        /// Flow id of the ACK traffic.
        up_flow: u32,
    },
    /// The streaming client / playback model.
    StreamClient {
        /// Server node name.
        server: String,
        /// Flow id of client→server traffic.
        up_flow: u32,
        /// The clip it expects (frame count, kind function, and — for
        /// TCP — per-frame sizes come from this).
        media: MediaRef,
        /// Transport mode.
        transport: TransportSpec,
        /// Feedback-report interval, µs (UDP adaptive control loop).
        feedback_us: Option<u64>,
    },
    /// A bursty on/off background source.
    OnOffSource {
        /// Sink node name.
        dst: String,
        /// Flow id.
        flow: u32,
        /// Wire size of each packet, bytes.
        packet_size: u32,
        /// Peak (ON-state) rate, bps.
        peak_rate_bps: u64,
        /// Mean ON duration, µs.
        mean_on_us: u64,
        /// Mean OFF duration, µs.
        mean_off_us: u64,
        /// DSCP marking.
        dscp: DscpSpec,
        /// Stop offering traffic at this absolute time, µs.
        stop_at_us: u64,
        /// Label for the RNG fork deriving this source's stream from the
        /// scenario seed.
        rng_fork: u64,
    },
    /// A sink that counts what it receives.
    CountingSink,
    /// A constant-rate test source (the self-test chains' `Pump`).
    Pump {
        /// Sink node name.
        dst: String,
        /// Flow id.
        flow: u32,
        /// Packets to offer.
        count: u32,
        /// Wire size of each packet, bytes.
        size: u32,
        /// Inter-packet gap, ns.
        gap_ns: u64,
    },
    /// A sink recording delivered packet ids in arrival order.
    IdSink,
}

impl AppSpec {
    /// The one TCP streaming-server fragment every testbed shares: the
    /// figure builders and the smoothing sweep construct their server
    /// through this, so the configuration (and the pacing lead baked into
    /// the compiled `TcpServerConfig`) cannot drift between them.
    pub fn tcp_server(client: &str, flow: u32, dscp: DscpSpec, media: MediaRef) -> AppSpec {
        AppSpec::TcpServer {
            client: client.to_string(),
            flow,
            dscp,
            media,
        }
    }
}

fn obj(kind: &str, fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("kind".to_string(), Value::Str(kind.to_string()))];
    all.extend(fields);
    Value::Object(all)
}

fn f(name: &str, v: impl Serialize) -> (String, Value) {
    (name.to_string(), v.to_value())
}

impl Serialize for AppSpec {
    fn to_value(&self) -> Value {
        match self {
            AppSpec::PacedServer {
                client,
                flow,
                dscp,
                media,
            } => obj(
                "paced_server",
                vec![
                    f("client", client),
                    f("flow", flow),
                    f("dscp", dscp),
                    f("media", media),
                ],
            ),
            AppSpec::BurstyServer {
                client,
                flow,
                dscp,
                media,
                wait_for_play,
            } => obj(
                "bursty_server",
                vec![
                    f("client", client),
                    f("flow", flow),
                    f("dscp", dscp),
                    f("media", media),
                    f("wait_for_play", wait_for_play),
                ],
            ),
            AppSpec::MultiRatePacedServer {
                client,
                flow,
                dscp,
                tiers,
                estimate_bps,
            } => obj(
                "multi_rate_paced_server",
                vec![
                    f("client", client),
                    f("flow", flow),
                    f("dscp", dscp),
                    f("tiers", tiers),
                    f("estimate_bps", estimate_bps),
                ],
            ),
            AppSpec::AdaptiveServer {
                client,
                flow,
                dscp,
                tiers,
            } => obj(
                "adaptive_server",
                vec![
                    f("client", client),
                    f("flow", flow),
                    f("dscp", dscp),
                    f("tiers", tiers),
                ],
            ),
            AppSpec::TcpServer {
                client,
                flow,
                dscp,
                media,
            } => obj(
                "tcp_server",
                vec![
                    f("client", client),
                    f("flow", flow),
                    f("dscp", dscp),
                    f("media", media),
                ],
            ),
            AppSpec::AbrServer {
                client,
                flow,
                dscp,
                rungs_bps,
                segment_us,
            } => obj(
                "abr_server",
                vec![
                    f("client", client),
                    f("flow", flow),
                    f("dscp", dscp),
                    f("rungs_bps", rungs_bps),
                    f("segment_us", segment_us),
                ],
            ),
            AppSpec::AbrClient {
                server,
                up_flow,
                rungs_bps,
                step_us,
                segment_us,
                segments,
                max_buffer_us,
            } => obj(
                "abr_client",
                vec![
                    f("server", server),
                    f("up_flow", up_flow),
                    f("rungs_bps", rungs_bps),
                    f("step_us", step_us),
                    f("segment_us", segment_us),
                    f("segments", segments),
                    f("max_buffer_us", max_buffer_us),
                ],
            ),
            AppSpec::BulkTcpSender {
                client,
                flow,
                dscp,
                total_bytes,
            } => obj(
                "bulk_tcp_sender",
                vec![
                    f("client", client),
                    f("flow", flow),
                    f("dscp", dscp),
                    f("total_bytes", total_bytes),
                ],
            ),
            AppSpec::BulkTcpSink { server, up_flow } => obj(
                "bulk_tcp_sink",
                vec![f("server", server), f("up_flow", up_flow)],
            ),
            AppSpec::StreamClient {
                server,
                up_flow,
                media,
                transport,
                feedback_us,
            } => obj(
                "stream_client",
                vec![
                    f("server", server),
                    f("up_flow", up_flow),
                    f("media", media),
                    f("transport", transport),
                    f("feedback_us", feedback_us),
                ],
            ),
            AppSpec::OnOffSource {
                dst,
                flow,
                packet_size,
                peak_rate_bps,
                mean_on_us,
                mean_off_us,
                dscp,
                stop_at_us,
                rng_fork,
            } => obj(
                "on_off_source",
                vec![
                    f("dst", dst),
                    f("flow", flow),
                    f("packet_size", packet_size),
                    f("peak_rate_bps", peak_rate_bps),
                    f("mean_on_us", mean_on_us),
                    f("mean_off_us", mean_off_us),
                    f("dscp", dscp),
                    f("stop_at_us", stop_at_us),
                    f("rng_fork", rng_fork),
                ],
            ),
            AppSpec::CountingSink => obj("counting_sink", vec![]),
            AppSpec::Pump {
                dst,
                flow,
                count,
                size,
                gap_ns,
            } => obj(
                "pump",
                vec![
                    f("dst", dst),
                    f("flow", flow),
                    f("count", count),
                    f("size", size),
                    f("gap_ns", gap_ns),
                ],
            ),
            AppSpec::IdSink => obj("id_sink", vec![]),
        }
    }
}

impl Deserialize for AppSpec {
    fn from_value(v: &Value) -> Result<AppSpec, Error> {
        let kind: String = de_field(v, "kind")?;
        match kind.as_str() {
            "paced_server" => Ok(AppSpec::PacedServer {
                client: de_field(v, "client")?,
                flow: de_field(v, "flow")?,
                dscp: de_field(v, "dscp")?,
                media: de_field(v, "media")?,
            }),
            "bursty_server" => Ok(AppSpec::BurstyServer {
                client: de_field(v, "client")?,
                flow: de_field(v, "flow")?,
                dscp: de_field(v, "dscp")?,
                media: de_field(v, "media")?,
                wait_for_play: de_field(v, "wait_for_play")?,
            }),
            "multi_rate_paced_server" => Ok(AppSpec::MultiRatePacedServer {
                client: de_field(v, "client")?,
                flow: de_field(v, "flow")?,
                dscp: de_field(v, "dscp")?,
                tiers: de_field(v, "tiers")?,
                estimate_bps: de_field(v, "estimate_bps")?,
            }),
            "adaptive_server" => Ok(AppSpec::AdaptiveServer {
                client: de_field(v, "client")?,
                flow: de_field(v, "flow")?,
                dscp: de_field(v, "dscp")?,
                tiers: de_field(v, "tiers")?,
            }),
            "tcp_server" => Ok(AppSpec::TcpServer {
                client: de_field(v, "client")?,
                flow: de_field(v, "flow")?,
                dscp: de_field(v, "dscp")?,
                media: de_field(v, "media")?,
            }),
            "abr_server" => Ok(AppSpec::AbrServer {
                client: de_field(v, "client")?,
                flow: de_field(v, "flow")?,
                dscp: de_field(v, "dscp")?,
                rungs_bps: de_field(v, "rungs_bps")?,
                segment_us: de_field(v, "segment_us")?,
            }),
            "abr_client" => Ok(AppSpec::AbrClient {
                server: de_field(v, "server")?,
                up_flow: de_field(v, "up_flow")?,
                rungs_bps: de_field(v, "rungs_bps")?,
                step_us: de_field(v, "step_us")?,
                segment_us: de_field(v, "segment_us")?,
                segments: de_field(v, "segments")?,
                max_buffer_us: de_field(v, "max_buffer_us")?,
            }),
            "bulk_tcp_sender" => Ok(AppSpec::BulkTcpSender {
                client: de_field(v, "client")?,
                flow: de_field(v, "flow")?,
                dscp: de_field(v, "dscp")?,
                total_bytes: de_field(v, "total_bytes")?,
            }),
            "bulk_tcp_sink" => Ok(AppSpec::BulkTcpSink {
                server: de_field(v, "server")?,
                up_flow: de_field(v, "up_flow")?,
            }),
            "stream_client" => Ok(AppSpec::StreamClient {
                server: de_field(v, "server")?,
                up_flow: de_field(v, "up_flow")?,
                media: de_field(v, "media")?,
                transport: de_field(v, "transport")?,
                feedback_us: de_field(v, "feedback_us")?,
            }),
            "on_off_source" => Ok(AppSpec::OnOffSource {
                dst: de_field(v, "dst")?,
                flow: de_field(v, "flow")?,
                packet_size: de_field(v, "packet_size")?,
                peak_rate_bps: de_field(v, "peak_rate_bps")?,
                mean_on_us: de_field(v, "mean_on_us")?,
                mean_off_us: de_field(v, "mean_off_us")?,
                dscp: de_field(v, "dscp")?,
                stop_at_us: de_field(v, "stop_at_us")?,
                rng_fork: de_field(v, "rng_fork")?,
            }),
            "counting_sink" => Ok(AppSpec::CountingSink),
            "pump" => Ok(AppSpec::Pump {
                dst: de_field(v, "dst")?,
                flow: de_field(v, "flow")?,
                count: de_field(v, "count")?,
                size: de_field(v, "size")?,
                gap_ns: de_field(v, "gap_ns")?,
            }),
            "id_sink" => Ok(AppSpec::IdSink),
            other => Err(Error::msg(format!("unknown app kind `{other}`"))),
        }
    }
}

/// One node. Hosts carry an application; routers carry `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Unique node name; every other part of the spec refers to it.
    pub name: String,
    /// The application, or `None` for a router.
    pub app: Option<AppSpec>,
}

impl NodeSpec {
    /// A router node.
    pub fn router(name: &str) -> NodeSpec {
        NodeSpec {
            name: name.to_string(),
            app: None,
        }
    }

    /// A host node running `app`.
    pub fn host(name: &str, app: AppSpec) -> NodeSpec {
        NodeSpec {
            name: name.to_string(),
            app: Some(app),
        }
    }
}

/// Per-direction physical link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Serialization rate, bps.
    pub rate_bps: u64,
    /// Propagation delay, ns.
    pub propagation_ns: u64,
}

impl LinkParams {
    /// From a `dsv-net` link.
    pub fn from_link(l: dsv_net::link::Link) -> LinkParams {
        LinkParams {
            rate_bps: l.rate_bps,
            propagation_ns: l.propagation.as_nanos(),
        }
    }

    /// 10 Mbps Ethernet (5 µs propagation).
    pub fn ethernet_10mbps() -> LinkParams {
        LinkParams::from_link(dsv_net::link::Link::ethernet_10mbps())
    }

    /// 100 Mbps Fast Ethernet (5 µs propagation).
    pub fn fast_ethernet() -> LinkParams {
        LinkParams::from_link(dsv_net::link::Link::fast_ethernet())
    }
}

/// Queue-limit pair; `None` means unbounded on that axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LimitsSpec {
    /// Maximum queued packets.
    pub max_packets: Option<u64>,
    /// Maximum queued bytes.
    pub max_bytes: Option<u64>,
}

impl LimitsSpec {
    /// No limits at all.
    pub const UNBOUNDED: LimitsSpec = LimitsSpec {
        max_packets: None,
        max_bytes: None,
    };

    /// Packet-count limit only.
    pub fn packets(n: u64) -> LimitsSpec {
        LimitsSpec {
            max_packets: Some(n),
            max_bytes: None,
        }
    }

    /// Byte limit only.
    pub fn bytes(n: u64) -> LimitsSpec {
        LimitsSpec {
            max_packets: None,
            max_bytes: Some(n),
        }
    }
}

/// The queue discipline on one port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QdiscSpec {
    /// FIFO drop-tail.
    DropTail {
        /// Queue limits.
        limits: LimitsSpec,
    },
    /// Two-band strict priority with EF in the high band.
    StrictPriorityEf {
        /// Limits of the EF band.
        ef: LimitsSpec,
        /// Limits of the best-effort band.
        be: LimitsSpec,
    },
    /// Three-drop-precedence WRED (AF PHB default curves).
    Wred {
        /// Buffer capacity, bytes.
        capacity_bytes: u64,
        /// Seed of the WRED probability stream.
        seed: u64,
    },
}

impl Serialize for QdiscSpec {
    fn to_value(&self) -> Value {
        match self {
            QdiscSpec::DropTail { limits } => obj("drop_tail", vec![f("limits", limits)]),
            QdiscSpec::StrictPriorityEf { ef, be } => {
                obj("strict_priority_ef", vec![f("ef", ef), f("be", be)])
            }
            QdiscSpec::Wred {
                capacity_bytes,
                seed,
            } => obj(
                "wred",
                vec![f("capacity_bytes", capacity_bytes), f("seed", seed)],
            ),
        }
    }
}

impl Deserialize for QdiscSpec {
    fn from_value(v: &Value) -> Result<QdiscSpec, Error> {
        let kind: String = de_field(v, "kind")?;
        match kind.as_str() {
            "drop_tail" => Ok(QdiscSpec::DropTail {
                limits: de_field(v, "limits")?,
            }),
            "strict_priority_ef" => Ok(QdiscSpec::StrictPriorityEf {
                ef: de_field(v, "ef")?,
                be: de_field(v, "be")?,
            }),
            "wred" => Ok(QdiscSpec::Wred {
                capacity_bytes: de_field(v, "capacity_bytes")?,
                seed: de_field(v, "seed")?,
            }),
            other => Err(Error::msg(format!("unknown qdisc kind `{other}`"))),
        }
    }
}

/// One bidirectional connection between two named nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// First endpoint (direction `ab` leaves here).
    pub a: String,
    /// Second endpoint.
    pub b: String,
    /// Physical parameters of the a→b direction.
    pub ab: LinkParams,
    /// Physical parameters of the b→a direction.
    pub ba: LinkParams,
    /// Queue discipline on `a`'s port toward `b`.
    pub qdisc_ab: QdiscSpec,
    /// Queue discipline on `b`'s port toward `a`.
    pub qdisc_ba: QdiscSpec,
}

impl LinkSpec {
    /// A symmetric link with unbounded drop-tail queues (the default
    /// `NetworkBuilder::connect` behaviour).
    pub fn simple(a: &str, b: &str, params: LinkParams) -> LinkSpec {
        LinkSpec {
            a: a.to_string(),
            b: b.to_string(),
            ab: params,
            ba: params,
            qdisc_ab: QdiscSpec::DropTail {
                limits: LimitsSpec::UNBOUNDED,
            },
            qdisc_ba: QdiscSpec::DropTail {
                limits: LimitsSpec::UNBOUNDED,
            },
        }
    }

    /// A symmetric link with the same qdisc in both directions.
    pub fn symmetric(a: &str, b: &str, params: LinkParams, qdisc: QdiscSpec) -> LinkSpec {
        LinkSpec {
            a: a.to_string(),
            b: b.to_string(),
            ab: params,
            ba: params,
            qdisc_ab: qdisc,
            qdisc_ba: qdisc,
        }
    }
}

/// A packet-matching profile over node **names** (mirrors
/// `dsv_diffserv::classifier::MatchRule`; absent fields are wildcards).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchSpec {
    /// Match the originating host, by name.
    pub src: Option<String>,
    /// Match the destination host, by name.
    pub dst: Option<String>,
    /// Match the flow label.
    pub flow: Option<u32>,
    /// Match the current DSCP marking.
    pub dscp: Option<DscpSpec>,
    /// Match the transport tag.
    pub proto: Option<ProtoSpec>,
}

impl MatchSpec {
    /// Matches everything.
    pub const ANY: MatchSpec = MatchSpec {
        src: None,
        dst: None,
        flow: None,
        dscp: None,
        proto: None,
    };

    /// The paper's router-1 profile: source and destination host.
    pub fn src_dst(src: &str, dst: &str) -> MatchSpec {
        MatchSpec {
            src: Some(src.to_string()),
            dst: Some(dst.to_string()),
            ..MatchSpec::ANY
        }
    }

    /// Match one flow id.
    pub fn flow(flow: u32) -> MatchSpec {
        MatchSpec {
            flow: Some(flow),
            ..MatchSpec::ANY
        }
    }

    /// Match one DSCP marking.
    pub fn dscp(dscp: DscpSpec) -> MatchSpec {
        MatchSpec {
            dscp: Some(dscp),
            ..MatchSpec::ANY
        }
    }
}

/// What a conditioner does with a matched packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActionSpec {
    /// Token-bucket police; non-conformant packets drop. `conform_mark`
    /// re-marks conformant packets (the paper's router-1 EF marking);
    /// `None` leaves the DSCP alone (Cisco CAR at the QBone border).
    Police {
        /// Token rate, bps.
        rate_bps: u64,
        /// Bucket depth, bytes.
        depth_bytes: u32,
        /// DSCP to set on conformant packets.
        conform_mark: Option<DscpSpec>,
    },
    /// Token-bucket shape (delay) with a bounded queue.
    Shape {
        /// Token rate, bps.
        rate_bps: u64,
        /// Bucket depth, bytes.
        depth_bytes: u32,
        /// Shaper queue bound, bytes.
        max_queue_bytes: u64,
    },
    /// srTCM-meter into an AF class (green/yellow/red).
    MeterAf {
        /// Committed information rate, bps.
        cir_bps: u64,
        /// Committed burst size, bytes.
        cbs_bytes: u32,
        /// Excess burst size, bytes.
        ebs_bytes: u32,
        /// AF class (1–4).
        class: u8,
    },
    /// trTCM-meter (two-rate, RFC 2698) into an AF class.
    MeterTrtcm {
        /// Peak information rate, bps.
        pir_bps: u64,
        /// Peak burst size, bytes.
        pbs_bytes: u32,
        /// Committed information rate, bps.
        cir_bps: u64,
        /// Committed burst size, bytes.
        cbs_bytes: u32,
        /// AF class (1–4).
        class: u8,
    },
    /// Set the DSCP.
    Mark {
        /// The new marking.
        dscp: DscpSpec,
    },
    /// Explicitly pass untouched.
    Pass,
}

impl Serialize for ActionSpec {
    fn to_value(&self) -> Value {
        match self {
            ActionSpec::Police {
                rate_bps,
                depth_bytes,
                conform_mark,
            } => obj(
                "police",
                vec![
                    f("rate_bps", rate_bps),
                    f("depth_bytes", depth_bytes),
                    f("conform_mark", conform_mark),
                ],
            ),
            ActionSpec::Shape {
                rate_bps,
                depth_bytes,
                max_queue_bytes,
            } => obj(
                "shape",
                vec![
                    f("rate_bps", rate_bps),
                    f("depth_bytes", depth_bytes),
                    f("max_queue_bytes", max_queue_bytes),
                ],
            ),
            ActionSpec::MeterAf {
                cir_bps,
                cbs_bytes,
                ebs_bytes,
                class,
            } => obj(
                "meter_af",
                vec![
                    f("cir_bps", cir_bps),
                    f("cbs_bytes", cbs_bytes),
                    f("ebs_bytes", ebs_bytes),
                    f("class", class),
                ],
            ),
            ActionSpec::MeterTrtcm {
                pir_bps,
                pbs_bytes,
                cir_bps,
                cbs_bytes,
                class,
            } => obj(
                "meter_trtcm",
                vec![
                    f("pir_bps", pir_bps),
                    f("pbs_bytes", pbs_bytes),
                    f("cir_bps", cir_bps),
                    f("cbs_bytes", cbs_bytes),
                    f("class", class),
                ],
            ),
            ActionSpec::Mark { dscp } => obj("mark", vec![f("dscp", dscp)]),
            ActionSpec::Pass => obj("pass", vec![]),
        }
    }
}

impl Deserialize for ActionSpec {
    fn from_value(v: &Value) -> Result<ActionSpec, Error> {
        let kind: String = de_field(v, "kind")?;
        match kind.as_str() {
            "police" => Ok(ActionSpec::Police {
                rate_bps: de_field(v, "rate_bps")?,
                depth_bytes: de_field(v, "depth_bytes")?,
                conform_mark: de_field(v, "conform_mark")?,
            }),
            "shape" => Ok(ActionSpec::Shape {
                rate_bps: de_field(v, "rate_bps")?,
                depth_bytes: de_field(v, "depth_bytes")?,
                max_queue_bytes: de_field(v, "max_queue_bytes")?,
            }),
            "meter_af" => Ok(ActionSpec::MeterAf {
                cir_bps: de_field(v, "cir_bps")?,
                cbs_bytes: de_field(v, "cbs_bytes")?,
                ebs_bytes: de_field(v, "ebs_bytes")?,
                class: de_field(v, "class")?,
            }),
            "meter_trtcm" => Ok(ActionSpec::MeterTrtcm {
                pir_bps: de_field(v, "pir_bps")?,
                pbs_bytes: de_field(v, "pbs_bytes")?,
                cir_bps: de_field(v, "cir_bps")?,
                cbs_bytes: de_field(v, "cbs_bytes")?,
                class: de_field(v, "class")?,
            }),
            "mark" => Ok(ActionSpec::Mark {
                dscp: de_field(v, "dscp")?,
            }),
            "pass" => Ok(ActionSpec::Pass),
            other => Err(Error::msg(format!("unknown action kind `{other}`"))),
        }
    }
}

/// One entry of a conditioner's policy table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleSpec {
    /// What to match.
    pub matches: MatchSpec,
    /// What to do with matches.
    pub action: ActionSpec,
}

/// The traffic conditioner installed on one router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConditionerSpec {
    /// Router node name.
    pub node: String,
    /// Fault-tap name: fault plans address this conditioner by it. The
    /// compiler's tap hook wraps the built conditioner when set.
    pub tap: Option<String>,
    /// Policy table, first match wins.
    pub rules: Vec<RuleSpec>,
}

/// One conformance bound for the audit oracles (a measurement tap): flow
/// `flow` leaving `node` must conform to `(rate_bps, depth_bytes)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundSpec {
    /// Router node name.
    pub node: String,
    /// Flow id the bound applies to.
    pub flow: u32,
    /// Token rate of the bound, bps.
    pub rate_bps: u64,
    /// Bucket depth of the bound, bytes.
    pub depth_bytes: u32,
}

/// A complete scenario: everything the compiler needs to build a
/// `Network` plus run metadata (seed, horizon, measurement bounds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable scenario name.
    pub name: String,
    /// Master seed; every stochastic app forks from it (see
    /// [`AppSpec::OnOffSource::rng_fork`]).
    pub seed: u64,
    /// All nodes. **Creation order is id order**: node `i` gets
    /// `NodeId(i)`.
    pub nodes: Vec<NodeSpec>,
    /// All links, in creation order (port order follows it).
    pub links: Vec<LinkSpec>,
    /// Conditioners to install on routers.
    pub conditioners: Vec<ConditionerSpec>,
    /// Audit conformance bounds.
    pub bounds: Vec<BoundSpec>,
    /// Run horizon from time zero, ns (`None`: run to quiescence).
    pub horizon_ns: Option<u64>,
}

impl ScenarioSpec {
    /// An empty scenario shell.
    pub fn new(name: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            seed,
            nodes: Vec::new(),
            links: Vec::new(),
            conditioners: Vec::new(),
            bounds: Vec::new(),
            horizon_ns: None,
        }
    }

    /// Canonical JSON of this spec — the string the runner's cache and
    /// any other content-addressing hashes. Field order is declaration
    /// order, so the bytes are stable across runs and platforms.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("spec serializes")
    }
}

/// A reusable cross-traffic fragment: a counting sink and a bursty
/// on/off source attached to two (usually distinct) routers of an
/// existing topology. The same fragment serves the QBone backbone load,
/// the local testbed's pre-policer jitter source and the AF experiment's
/// colored background — cross-traffic is a property of a scenario, not
/// of one testbed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossTrafficSpec {
    /// Name for the sink node.
    pub sink_name: String,
    /// Name for the source node.
    pub src_name: String,
    /// Router the sink hangs off.
    pub sink_attach: String,
    /// Router the source hangs off.
    pub src_attach: String,
    /// Both access links.
    pub link: LinkParams,
    /// Flow id of the cross traffic.
    pub flow: u32,
    /// Wire size of each packet, bytes.
    pub packet_size: u32,
    /// Peak (ON-state) rate, bps.
    pub peak_rate_bps: u64,
    /// Mean ON duration, µs.
    pub mean_on_us: u64,
    /// Mean OFF duration, µs.
    pub mean_off_us: u64,
    /// Stop offering traffic at this absolute time, µs.
    pub stop_at_us: u64,
    /// RNG fork label.
    pub rng_fork: u64,
}

impl CrossTrafficSpec {
    /// Append this fragment's nodes and links to `spec` (sink first,
    /// then source — the order every legacy testbed used).
    pub fn attach(&self, spec: &mut ScenarioSpec) {
        spec.nodes
            .push(NodeSpec::host(&self.sink_name, AppSpec::CountingSink));
        spec.nodes.push(NodeSpec::host(
            &self.src_name,
            AppSpec::OnOffSource {
                dst: self.sink_name.clone(),
                flow: self.flow,
                packet_size: self.packet_size,
                peak_rate_bps: self.peak_rate_bps,
                mean_on_us: self.mean_on_us,
                mean_off_us: self.mean_off_us,
                dscp: DscpSpec::BestEffort,
                stop_at_us: self.stop_at_us,
                rng_fork: self.rng_fork,
            },
        ));
        spec.links.push(LinkSpec::simple(
            &self.sink_name,
            &self.sink_attach,
            self.link,
        ));
        spec.links.push(LinkSpec::simple(
            &self.src_name,
            &self.src_attach,
            self.link,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_spec() -> ScenarioSpec {
        let mut s = ScenarioSpec::new("chain", 1);
        s.nodes.push(NodeSpec::host("rx", AppSpec::IdSink));
        s.nodes.push(NodeSpec::router("tap"));
        s.nodes.push(NodeSpec::host(
            "tx",
            AppSpec::Pump {
                dst: "rx".to_string(),
                flow: 1,
                count: 10,
                size: 1500,
                gap_ns: 1_000_000,
            },
        ));
        let link = LinkParams {
            rate_bps: 100_000_000,
            propagation_ns: 50_000,
        };
        s.links.push(LinkSpec::simple("tx", "tap", link));
        s.links.push(LinkSpec::simple("tap", "rx", link));
        s.conditioners.push(ConditionerSpec {
            node: "tap".to_string(),
            tap: Some("ingress".to_string()),
            rules: vec![RuleSpec {
                matches: MatchSpec::flow(1),
                action: ActionSpec::Police {
                    rate_bps: 20_000_000,
                    depth_bytes: 4500,
                    conform_mark: None,
                },
            }],
        });
        s.bounds.push(BoundSpec {
            node: "tap".to_string(),
            flow: 1,
            rate_bps: 20_000_000,
            depth_bytes: 4500,
        });
        s
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = chain_spec();
        let json = spec.canonical_json();
        let back: ScenarioSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.canonical_json(), json, "canonical form is a fixpoint");
    }

    #[test]
    fn canonical_json_is_stable() {
        // Two structurally identical specs produce identical bytes.
        assert_eq!(chain_spec().canonical_json(), chain_spec().canonical_json());
    }

    #[test]
    fn every_app_kind_round_trips() {
        let media = MediaRef {
            clip: ClipId2::Lost,
            codec: CodecSpec::Mpeg1,
            rate_bps: 1_500_000,
        };
        let apps = vec![
            AppSpec::PacedServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::EfQbone,
                media,
            },
            AppSpec::BurstyServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::Ef,
                media,
                wait_for_play: true,
            },
            AppSpec::MultiRatePacedServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::EfQbone,
                tiers: vec![media],
                estimate_bps: 1_300_000,
            },
            AppSpec::AdaptiveServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::BestEffort,
                tiers: vec![media],
            },
            AppSpec::TcpServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::BestEffort,
                media,
            },
            AppSpec::AbrServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::BestEffort,
                rungs_bps: vec![300_000, 700_000, 1_500_000],
                segment_us: 2_000_000,
            },
            AppSpec::AbrClient {
                server: "s".into(),
                up_flow: 2,
                rungs_bps: vec![300_000, 700_000, 1_500_000],
                step_us: 4_000_000,
                segment_us: 2_000_000,
                segments: 30,
                max_buffer_us: 16_000_000,
            },
            AppSpec::BulkTcpSender {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::BestEffort,
                total_bytes: 10_000_000,
            },
            AppSpec::BulkTcpSink {
                server: "s".into(),
                up_flow: 2,
            },
            AppSpec::StreamClient {
                server: "s".into(),
                up_flow: 2,
                media,
                transport: TransportSpec::Tcp,
                feedback_us: Some(1_000_000),
            },
            AppSpec::OnOffSource {
                dst: "sink".into(),
                flow: 100,
                packet_size: 1000,
                peak_rate_bps: 30_000_000,
                mean_on_us: 200_000,
                mean_off_us: 200_000,
                dscp: DscpSpec::BestEffort,
                stop_at_us: 200_000_000,
                rng_fork: 1,
            },
            AppSpec::CountingSink,
            AppSpec::Pump {
                dst: "rx".into(),
                flow: 1,
                count: 200,
                size: 1500,
                gap_ns: 1_000_000,
            },
            AppSpec::IdSink,
        ];
        for app in apps {
            let v = app.to_value();
            let back = AppSpec::from_value(&v).expect("round trip");
            assert_eq!(back, app);
        }
    }

    #[test]
    fn every_action_kind_round_trips() {
        let actions = vec![
            ActionSpec::Police {
                rate_bps: 1,
                depth_bytes: 2,
                conform_mark: Some(DscpSpec::Ef),
            },
            ActionSpec::Shape {
                rate_bps: 1,
                depth_bytes: 2,
                max_queue_bytes: 3,
            },
            ActionSpec::MeterAf {
                cir_bps: 1,
                cbs_bytes: 2,
                ebs_bytes: 3,
                class: 1,
            },
            ActionSpec::MeterTrtcm {
                pir_bps: 4,
                pbs_bytes: 3,
                cir_bps: 2,
                cbs_bytes: 1,
                class: 2,
            },
            ActionSpec::Mark {
                dscp: DscpSpec::BestEffort,
            },
            ActionSpec::Pass,
        ];
        for a in actions {
            assert_eq!(ActionSpec::from_value(&a.to_value()).unwrap(), a);
        }
    }

    #[test]
    fn cross_traffic_fragment_appends_nodes_and_links() {
        let mut spec = chain_spec();
        let n = spec.nodes.len();
        CrossTrafficSpec {
            sink_name: "ct-sink".into(),
            src_name: "ct-src".into(),
            sink_attach: "tap".into(),
            src_attach: "tap".into(),
            link: LinkParams::fast_ethernet(),
            flow: 100,
            packet_size: 1000,
            peak_rate_bps: 30_000_000,
            mean_on_us: 200_000,
            mean_off_us: 200_000,
            stop_at_us: 200_000_000,
            rng_fork: 1,
        }
        .attach(&mut spec);
        assert_eq!(spec.nodes.len(), n + 2);
        assert_eq!(spec.nodes[n].name, "ct-sink");
        assert!(matches!(
            spec.nodes[n + 1].app,
            Some(AppSpec::OnOffSource { .. })
        ));
    }
}
