//! Lowering a [`ScenarioSpec`] onto `dsv-net`'s `NetworkBuilder`.
//!
//! The compiler resolves every node reference **by name** before any node
//! is instantiated: pass one assigns `NodeId(i)` to the `i`-th entry of
//! `spec.nodes` (the builder's own positional rule) and builds the
//! name→id map; pass two instantiates applications, links, conditioners
//! and bounds against that map. Applications that point at nodes created
//! later (a client naming its server) therefore need no creation-order
//! gymnastics and no `assert_eq!(…, NodeId(5))` tripwires.
//!
//! Determinism contract: the compiler performs builder calls in exactly
//! the spec's declaration order — nodes first (forking the scenario RNG
//! at each stochastic app, in node order), then links (port order and
//! route tie-breaking follow link order), then conditioners. Two compiles
//! of the same spec produce byte-identical simulations.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use dsv_diffserv::classifier::MatchRule;
use dsv_diffserv::meter::{SrTcm, TrTcm};
use dsv_diffserv::policer::{ExceedAction, Policer};
use dsv_diffserv::policy::{PolicyAction, PolicyTable};
use dsv_diffserv::shaper::Shaper;
use dsv_diffserv::token_bucket::TokenBucket;
use dsv_media::encoder::{mpeg1, wmv, EncodedClip};
use dsv_net::app::{Application, Handle, Shared};
use dsv_net::conditioner::Conditioner;
use dsv_net::link::Link;
use dsv_net::network::{Network, NetworkBuilder};
use dsv_net::packet::{FlowId, NodeId};
use dsv_net::qdisc::{DropTailQueue, Qdisc, QueueLimits, StrictPriorityQueue};
use dsv_net::traffic::{CountingSink, OnOffSource};
use dsv_net::wred::WredQueue;
use dsv_sim::{SimDuration, SimRng, SimTime};
use dsv_stream::abr::{AbrClient, AbrClientConfig, AbrPolicy, AbrServer, AbrServerConfig};
use dsv_stream::bulk::{BulkTcpConfig, BulkTcpSender, BulkTcpSink};
use dsv_stream::client::{ClientConfig, ClientMode, StreamClient};
use dsv_stream::payload::StreamPayload;
use dsv_stream::playback::PlaybackConfig;
use dsv_stream::server::adaptive::{AdaptiveConfig, AdaptiveServer};
use dsv_stream::server::bursty::{BurstyConfig, BurstyServer};
use dsv_stream::server::paced::{PacedConfig, PacedServer};
use dsv_stream::server::tcp_server::{TcpServerConfig, TcpStreamServer};

use crate::apps::{IdSink, Pump};
use crate::spec::{
    ActionSpec, AppSpec, ClipId2, CodecSpec, LimitsSpec, MatchSpec, QdiscSpec, ScenarioSpec,
    TransportSpec,
};

/// A boxed conditioner over the stream payload — the type the compiler
/// installs and the tap hook wraps.
pub type BoxConditioner = Box<dyn Conditioner<StreamPayload>>;

/// Resolves [`crate::spec::MediaRef`]s to encoded clips. The experiment
/// layer implements this over its memoized artifact store; specs stay
/// free of multi-megabyte encodings.
pub trait ClipStore {
    /// The encoding of `clip` under `codec` at `rate_bps`.
    fn encoding(&self, clip: ClipId2, codec: CodecSpec, rate_bps: u64) -> Arc<EncodedClip>;
}

/// Compile-time services a caller can provide.
///
/// Both are optional: a media-free spec needs no [`ClipStore`], and a
/// scenario without fault injection needs no tap hook.
#[derive(Clone, Copy, Default)]
pub struct CompileOptions<'a> {
    /// Resolves media references (required iff the spec binds media apps).
    pub store: Option<&'a dyn ClipStore>,
    /// Wraps a named conditioner tap — the fault-injection seam. Called
    /// once per conditioner with a `tap` name, in spec order.
    #[allow(clippy::type_complexity)]
    pub wrap: Option<&'a dyn Fn(&str, BoxConditioner) -> BoxConditioner>,
}

/// A spec error found during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    msg: String,
}

impl CompileError {
    fn new(msg: impl Into<String>) -> CompileError {
        CompileError { msg: msg.into() }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario compile error: {}", self.msg)
    }
}

impl std::error::Error for CompileError {}

/// The compiled scenario: the network plus every handle the experiment
/// layer needs to read results back after the run.
pub struct CompiledScenario {
    /// The built network (hand to `Simulation`).
    pub net: Network<StreamPayload>,
    /// Name → id for every node, in case a caller needs an id directly.
    pub ids: HashMap<String, NodeId>,
    /// Stream clients, by node name, in creation order.
    pub clients: Vec<(String, Handle<StreamClient>)>,
    /// Adaptive servers, by node name, in creation order.
    pub adaptives: Vec<(String, Handle<AdaptiveServer>)>,
    /// ABR clients, by node name, in creation order.
    pub abr_clients: Vec<(String, Handle<AbrClient>)>,
    /// Bulk TCP sinks, by node name, in creation order.
    pub bulk_sinks: Vec<(String, Handle<BulkTcpSink>)>,
    /// Id-recording sinks, by node name, in creation order.
    pub id_sinks: Vec<(String, Handle<IdSink>)>,
    /// Audit conformance bounds, resolved to node ids.
    pub bounds: Vec<(NodeId, FlowId, u64, u32)>,
    /// Run horizon, when the spec declares one.
    pub horizon: Option<SimDuration>,
}

impl CompiledScenario {
    /// The id of a named node.
    pub fn node(&self, name: &str) -> NodeId {
        self.ids[name]
    }

    /// The (single) stream client's handle, if the scenario has exactly
    /// one.
    pub fn sole_client(&self) -> Option<&Handle<StreamClient>> {
        match self.clients.as_slice() {
            [(_, h)] => Some(h),
            _ => None,
        }
    }
}

fn to_limits(l: &LimitsSpec) -> QueueLimits {
    QueueLimits {
        max_packets: l.max_packets.map(|n| n as usize).unwrap_or(usize::MAX),
        max_bytes: l.max_bytes.unwrap_or(u64::MAX),
    }
}

/// Reject a zero in any of `fields`: each is a rate, size or count the
/// component divides by or needs at least one of. `what` names the
/// component in the error (formatted only on the error path).
fn require_positive(
    what: impl FnOnce() -> String,
    fields: &[(&str, u64)],
) -> Result<(), CompileError> {
    match fields.iter().find(|&&(_, value)| value == 0) {
        Some((field, _)) => Err(CompileError::new(format!(
            "{} has `{field}` 0; it must be positive",
            what()
        ))),
        None => Ok(()),
    }
}

/// Reject an ABR ladder the rung policy cannot climb: empty or not
/// ascending.
fn check_ladder(what: impl FnOnce() -> String, rungs: &[u64]) -> Result<(), CompileError> {
    if rungs.is_empty() || rungs.windows(2).any(|w| w[0] > w[1]) {
        return Err(CompileError::new(format!(
            "{} has `rungs_bps` {rungs:?}; a ladder needs at least one rung, ascending",
            what()
        )));
    }
    Ok(())
}

/// `what` names the link direction in an error.
fn build_qdisc(
    q: &QdiscSpec,
    what: impl FnOnce() -> String,
) -> Result<Box<dyn Qdisc<StreamPayload>>, CompileError> {
    Ok(match q {
        QdiscSpec::DropTail { limits } => Box::new(DropTailQueue::new(to_limits(limits))),
        QdiscSpec::StrictPriorityEf { ef, be } => Box::new(StrictPriorityQueue::ef_default(
            to_limits(ef),
            to_limits(be),
        )),
        QdiscSpec::Wred {
            capacity_bytes,
            seed,
        } => {
            require_positive(
                || format!("the wred queue on {}", what()),
                &[("capacity_bytes", *capacity_bytes)],
            )?;
            Box::new(WredQueue::af_default(*capacity_bytes, *seed))
        }
    })
}

fn kind_fn(codec: CodecSpec) -> fn(u32) -> dsv_media::frame::FrameKind {
    match codec {
        CodecSpec::Mpeg1 => mpeg1::frame_kind,
        CodecSpec::Wmv => wmv::frame_kind,
    }
}

struct Resolver<'s> {
    ids: HashMap<&'s str, NodeId>,
}

impl<'s> Resolver<'s> {
    fn new(spec: &'s ScenarioSpec) -> Result<Resolver<'s>, CompileError> {
        let mut ids = HashMap::with_capacity(spec.nodes.len());
        for (i, node) in spec.nodes.iter().enumerate() {
            if ids.insert(node.name.as_str(), NodeId(i as u32)).is_some() {
                return Err(CompileError::new(format!(
                    "duplicate node name `{}`",
                    node.name
                )));
            }
        }
        Ok(Resolver { ids })
    }

    fn get(&self, name: &str) -> Result<NodeId, CompileError> {
        self.ids
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::new(format!("unknown node name `{name}`")))
    }

    fn get_opt(&self, name: &Option<String>) -> Result<Option<NodeId>, CompileError> {
        name.as_deref().map(|n| self.get(n)).transpose()
    }
}

struct AppBuilder<'a> {
    store: Option<&'a dyn ClipStore>,
    clients: Vec<(String, Handle<StreamClient>)>,
    adaptives: Vec<(String, Handle<AdaptiveServer>)>,
    abr_clients: Vec<(String, Handle<AbrClient>)>,
    bulk_sinks: Vec<(String, Handle<BulkTcpSink>)>,
    id_sinks: Vec<(String, Handle<IdSink>)>,
}

impl AppBuilder<'_> {
    fn store(&self, name: &str) -> Result<&dyn ClipStore, CompileError> {
        self.store.ok_or_else(|| {
            CompileError::new(format!(
                "node `{name}` binds media but no ClipStore was provided"
            ))
        })
    }

    fn build(
        &mut self,
        name: &str,
        app: &AppSpec,
        ids: &Resolver<'_>,
        rng: &mut SimRng,
    ) -> Result<Box<dyn Application<StreamPayload>>, CompileError> {
        Ok(match app {
            AppSpec::PacedServer {
                client,
                flow,
                dscp,
                media,
            } => {
                let clip = self
                    .store(name)?
                    .encoding(media.clip, media.codec, media.rate_bps);
                Box::new(PacedServer::new(
                    PacedConfig::new(ids.get(client)?, FlowId(*flow), dscp.to_dscp()),
                    &clip,
                ))
            }
            AppSpec::BurstyServer {
                client,
                flow,
                dscp,
                media,
                wait_for_play,
            } => {
                let clip = self
                    .store(name)?
                    .encoding(media.clip, media.codec, media.rate_bps);
                Box::new(BurstyServer::new(
                    BurstyConfig {
                        client: ids.get(client)?,
                        flow: FlowId(*flow),
                        dscp: dscp.to_dscp(),
                        wait_for_play: *wait_for_play,
                    },
                    &clip,
                ))
            }
            AppSpec::MultiRatePacedServer {
                client,
                flow,
                dscp,
                tiers,
                estimate_bps,
            } => {
                let store = self.store(name)?;
                let encoded: Vec<Arc<EncodedClip>> = tiers
                    .iter()
                    .map(|t| store.encoding(t.clip, t.codec, t.rate_bps))
                    .collect();
                let refs: Vec<&EncodedClip> = encoded.iter().map(|t| t.as_ref()).collect();
                Box::new(PacedServer::new_multi_rate_shared(
                    PacedConfig::new(ids.get(client)?, FlowId(*flow), dscp.to_dscp()),
                    &refs,
                    *estimate_bps,
                ))
            }
            AppSpec::AdaptiveServer {
                client,
                flow,
                dscp,
                tiers,
            } => {
                let store = self.store(name)?;
                let encoded: Vec<EncodedClip> = tiers
                    .iter()
                    .map(|t| (*store.encoding(t.clip, t.codec, t.rate_bps)).clone())
                    .collect();
                let (h, app) = Shared::new(AdaptiveServer::new(
                    AdaptiveConfig::new(ids.get(client)?, FlowId(*flow), dscp.to_dscp()),
                    encoded,
                ));
                self.adaptives.push((name.to_string(), h));
                Box::new(app)
            }
            AppSpec::TcpServer {
                client,
                flow,
                dscp,
                media,
            } => {
                let clip = self
                    .store(name)?
                    .encoding(media.clip, media.codec, media.rate_bps);
                Box::new(TcpStreamServer::new(
                    TcpServerConfig::new(ids.get(client)?, FlowId(*flow), dscp.to_dscp()),
                    &clip,
                ))
            }
            AppSpec::AbrServer {
                client,
                flow,
                dscp,
                rungs_bps,
                segment_us,
            } => {
                check_ladder(|| format!("abr_server `{name}`"), rungs_bps)?;
                Box::new(AbrServer::new(AbrServerConfig {
                    client: ids.get(client)?,
                    flow: FlowId(*flow),
                    dscp: dscp.to_dscp(),
                    rungs: rungs_bps.clone(),
                    segment_us: *segment_us,
                }))
            }
            AppSpec::AbrClient {
                server,
                up_flow,
                rungs_bps,
                step_us,
                segment_us,
                segments,
                max_buffer_us,
            } => {
                let what = || format!("abr_client `{name}`");
                check_ladder(what, rungs_bps)?;
                require_positive(
                    what,
                    &[("step_us", *step_us), ("segments", u64::from(*segments))],
                )?;
                let (h, app) = Shared::new(AbrClient::new(AbrClientConfig {
                    server: ids.get(server)?,
                    up_flow: FlowId(*up_flow),
                    policy: AbrPolicy::new(rungs_bps.clone(), *step_us),
                    segment_us: *segment_us,
                    segments: *segments,
                    max_buffer_us: *max_buffer_us,
                }));
                self.abr_clients.push((name.to_string(), h));
                Box::new(app)
            }
            AppSpec::BulkTcpSender {
                client,
                flow,
                dscp,
                total_bytes,
            } => Box::new(BulkTcpSender::new(BulkTcpConfig {
                client: ids.get(client)?,
                flow: FlowId(*flow),
                dscp: dscp.to_dscp(),
                total_bytes: *total_bytes,
            })),
            AppSpec::BulkTcpSink { server, up_flow } => {
                let (h, app) = Shared::new(BulkTcpSink::new(ids.get(server)?, FlowId(*up_flow)));
                self.bulk_sinks.push((name.to_string(), h));
                Box::new(app)
            }
            AppSpec::StreamClient {
                server,
                up_flow,
                media,
                transport,
                feedback_us,
            } => {
                let clip = self
                    .store(name)?
                    .encoding(media.clip, media.codec, media.rate_bps);
                let mode = match transport {
                    TransportSpec::Udp => ClientMode::Udp,
                    TransportSpec::Tcp => ClientMode::Tcp {
                        frame_bytes: clip.frames.iter().map(|f| f.bytes).collect(),
                        fidelities: clip.frames.iter().map(|f| f.fidelity).collect(),
                    },
                };
                let (h, app) = Shared::new(StreamClient::new(ClientConfig {
                    server: ids.get(server)?,
                    up_flow: FlowId(*up_flow),
                    frames: clip.frames.len() as u32,
                    kind_fn: kind_fn(media.codec),
                    playback: PlaybackConfig::default(),
                    feedback_interval: feedback_us.map(SimDuration::from_micros),
                    mode,
                    media_rate_bps: media.rate_bps,
                }));
                self.clients.push((name.to_string(), h));
                Box::new(app)
            }
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
            } => {
                // A zero here means a source that never stops sending
                // empty packets, one whose packets take forever to send,
                // or an exponential with no mean.
                require_positive(
                    || format!("on_off_source `{name}`"),
                    &[
                        ("packet_size", u64::from(*packet_size)),
                        ("peak_rate_bps", *peak_rate_bps),
                        ("mean_on_us", *mean_on_us),
                        ("mean_off_us", *mean_off_us),
                    ],
                )?;
                Box::new(OnOffSource::new(
                    ids.get(dst)?,
                    FlowId(*flow),
                    *packet_size,
                    *peak_rate_bps,
                    SimDuration::from_micros(*mean_on_us),
                    SimDuration::from_micros(*mean_off_us),
                    dscp.to_dscp(),
                    SimTime::from_micros(*stop_at_us),
                    rng.fork(*rng_fork),
                ))
            }
            AppSpec::CountingSink => Box::new(CountingSink::default()),
            AppSpec::Pump {
                dst,
                flow,
                count,
                size,
                gap_ns,
            } => {
                // Either zero makes a silent zero-traffic run.
                require_positive(
                    || format!("pump `{name}`"),
                    &[("count", u64::from(*count)), ("size", u64::from(*size))],
                )?;
                Box::new(Pump {
                    dst: ids.get(dst)?,
                    flow: FlowId(*flow),
                    count: *count,
                    size: *size,
                    gap: SimDuration::from_nanos(*gap_ns),
                    sent: 0,
                })
            }
            AppSpec::IdSink => {
                let (h, app) = Shared::new(IdSink::default());
                self.id_sinks.push((name.to_string(), h));
                Box::new(app)
            }
        })
    }
}

fn build_match(m: &MatchSpec, ids: &Resolver<'_>) -> Result<MatchRule, CompileError> {
    Ok(MatchRule {
        src: ids.get_opt(&m.src)?,
        dst: ids.get_opt(&m.dst)?,
        flow: m.flow.map(FlowId),
        dscp: m.dscp.map(|d| d.to_dscp()),
        proto: m.proto.map(|p| p.to_proto()),
    })
}

/// Lower one conditioner rule's action; `node` names the conditioner in
/// an error. Token buckets and meters need a positive rate and depth.
fn build_action(a: &ActionSpec, node: &str) -> Result<PolicyAction<StreamPayload>, CompileError> {
    let what = |kind: &str| format!("the {kind} rule at `{node}`");
    Ok(match a {
        ActionSpec::Police {
            rate_bps,
            depth_bytes,
            conform_mark,
        } => {
            require_positive(
                || what("police"),
                &[
                    ("rate_bps", *rate_bps),
                    ("depth_bytes", u64::from(*depth_bytes)),
                ],
            )?;
            PolicyAction::Police(Policer::new(
                TokenBucket::new(*rate_bps, *depth_bytes),
                conform_mark.map(|d| d.to_dscp()),
                ExceedAction::Drop,
            ))
        }
        ActionSpec::Shape {
            rate_bps,
            depth_bytes,
            max_queue_bytes,
        } => {
            require_positive(
                || what("shape"),
                &[
                    ("rate_bps", *rate_bps),
                    ("depth_bytes", u64::from(*depth_bytes)),
                ],
            )?;
            PolicyAction::Shape(Shaper::new(*rate_bps, *depth_bytes, *max_queue_bytes))
        }
        ActionSpec::MeterAf {
            cir_bps,
            cbs_bytes,
            ebs_bytes,
            class,
        } => {
            require_positive(
                || what("meter_af"),
                &[("cir_bps", *cir_bps), ("cbs_bytes", u64::from(*cbs_bytes))],
            )?;
            PolicyAction::MeterAf {
                meter: SrTcm::new(*cir_bps, *cbs_bytes, *ebs_bytes),
                class: *class,
            }
        }
        ActionSpec::MeterTrtcm {
            pir_bps,
            pbs_bytes,
            cir_bps,
            cbs_bytes,
            class,
        } => {
            require_positive(
                || what("meter_trtcm"),
                &[
                    ("pir_bps", *pir_bps),
                    ("pbs_bytes", u64::from(*pbs_bytes)),
                    ("cir_bps", *cir_bps),
                    ("cbs_bytes", u64::from(*cbs_bytes)),
                ],
            )?;
            if pir_bps < cir_bps {
                return Err(CompileError::new(format!(
                    "{} has `pir_bps` {pir_bps} below `cir_bps` {cir_bps}",
                    what("meter_trtcm")
                )));
            }
            PolicyAction::MeterTrtcm {
                meter: TrTcm::new(*pir_bps, *pbs_bytes, *cir_bps, *cbs_bytes),
                class: *class,
            }
        }
        ActionSpec::Mark { dscp } => PolicyAction::Mark(dscp.to_dscp()),
        ActionSpec::Pass => PolicyAction::Pass,
    })
}

/// Reject the topologies `NetworkBuilder::build` cannot route: a host
/// needs exactly one access link, and every node must reach every host.
/// `peers` is the adjacency list of the spec's links, by node index.
fn check_topology(spec: &ScenarioSpec, peers: &[Vec<usize>]) -> Result<(), CompileError> {
    for (node, links) in spec.nodes.iter().zip(peers) {
        if node.app.is_some() && links.len() != 1 {
            return Err(CompileError::new(format!(
                "host `{}` has {} links; a host needs exactly one access link",
                node.name,
                links.len()
            )));
        }
    }
    if spec.nodes.iter().any(|n| n.app.is_some()) {
        let mut reached = vec![false; peers.len()];
        let mut stack = vec![0];
        reached[0] = true;
        while let Some(u) = stack.pop() {
            for &v in &peers[u] {
                if !reached[v] {
                    reached[v] = true;
                    stack.push(v);
                }
            }
        }
        if let Some(i) = reached.iter().position(|&r| !r) {
            return Err(CompileError::new(format!(
                "node `{}` is not connected to `{}`: every node must reach every host",
                spec.nodes[i].name, spec.nodes[0].name
            )));
        }
    }
    Ok(())
}

/// Lower `spec` to a built network plus result handles.
///
/// Builder calls happen in spec order: all nodes (forking the scenario
/// RNG per stochastic app), then all links, then all conditioners — see
/// the module docs for why that order is the determinism contract.
pub fn compile(
    spec: &ScenarioSpec,
    opts: CompileOptions<'_>,
) -> Result<CompiledScenario, CompileError> {
    let ids = Resolver::new(spec)?;
    if spec.horizon_ns == Some(0) {
        return Err(CompileError::new(
            "`horizon_ns` is 0: the run would end before anything is sent",
        ));
    }
    let mut rng = SimRng::seed_from_u64(spec.seed);
    let mut b = NetworkBuilder::<StreamPayload>::new();
    let mut apps = AppBuilder {
        store: opts.store,
        clients: Vec::new(),
        adaptives: Vec::new(),
        abr_clients: Vec::new(),
        bulk_sinks: Vec::new(),
        id_sinks: Vec::new(),
    };

    for node in &spec.nodes {
        match &node.app {
            None => {
                b.add_router(&node.name);
            }
            Some(app) => {
                let built = apps.build(&node.name, app, &ids, &mut rng)?;
                b.add_host(&node.name, built);
            }
        }
    }

    let mut peers = vec![Vec::new(); spec.nodes.len()];
    for link in &spec.links {
        let a = ids.get(&link.a)?;
        let z = ids.get(&link.b)?;
        if a == z {
            return Err(CompileError::new(format!(
                "link connects `{}` to itself",
                link.a
            )));
        }
        for (dir, params) in [("ab", &link.ab), ("ba", &link.ba)] {
            if params.rate_bps == 0 {
                return Err(CompileError::new(format!(
                    "link `{}`-`{}` has `{dir}.rate_bps` 0: no packet could ever cross it",
                    link.a, link.b
                )));
            }
        }
        // An on-off source faster than its access link would pile its ON
        // bursts into its own host's queue without bound.
        for (host, out_bps) in [(a, link.ab.rate_bps), (z, link.ba.rate_bps)] {
            let node = &spec.nodes[host.0 as usize];
            if let Some(AppSpec::OnOffSource { peak_rate_bps, .. }) = &node.app {
                if *peak_rate_bps > out_bps {
                    return Err(CompileError::new(format!(
                        "on_off_source `{}` has `peak_rate_bps` {peak_rate_bps}, above its \
                         {out_bps} bps access link",
                        node.name
                    )));
                }
            }
        }
        peers[a.0 as usize].push(z.0 as usize);
        peers[z.0 as usize].push(a.0 as usize);
        b.connect_with(
            a,
            z,
            Link::new(
                link.ab.rate_bps,
                SimDuration::from_nanos(link.ab.propagation_ns),
            ),
            Link::new(
                link.ba.rate_bps,
                SimDuration::from_nanos(link.ba.propagation_ns),
            ),
            build_qdisc(&link.qdisc_ab, || format!("`{}`-`{}` ab", link.a, link.b))?,
            build_qdisc(&link.qdisc_ba, || format!("`{}`-`{}` ba", link.a, link.b))?,
        );
    }

    check_topology(spec, &peers)?;

    for cond in &spec.conditioners {
        let node = ids.get(&cond.node)?;
        if spec.nodes[node.0 as usize].app.is_some() {
            return Err(CompileError::new(format!(
                "conditioner target `{}` is a host; conditioners attach to routers",
                cond.node
            )));
        }
        let mut table = PolicyTable::new();
        for rule in &cond.rules {
            table.push(
                build_match(&rule.matches, &ids)?,
                build_action(&rule.action, &cond.node)?,
            );
        }
        let mut boxed: BoxConditioner = Box::new(table);
        if let (Some(tap), Some(wrap)) = (&cond.tap, opts.wrap) {
            boxed = wrap(tap, boxed);
        }
        b.set_conditioner(node, boxed);
    }

    let mut bounds = Vec::with_capacity(spec.bounds.len());
    for bound in &spec.bounds {
        bounds.push((
            ids.get(&bound.node)?,
            FlowId(bound.flow),
            bound.rate_bps,
            bound.depth_bytes,
        ));
    }

    let ids_owned = ids
        .ids
        .iter()
        .map(|(name, id)| (name.to_string(), *id))
        .collect();

    Ok(CompiledScenario {
        net: b.build(),
        ids: ids_owned,
        clients: apps.clients,
        adaptives: apps.adaptives,
        abr_clients: apps.abr_clients,
        bulk_sinks: apps.bulk_sinks,
        id_sinks: apps.id_sinks,
        bounds,
        horizon: spec.horizon_ns.map(SimDuration::from_nanos),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        ActionSpec, AppSpec, BoundSpec, ConditionerSpec, LinkParams, LinkSpec, MatchSpec, NodeSpec,
        RuleSpec,
    };
    use dsv_net::network::Simulation;
    use proptest::prelude::*;
    use serde::{Deserialize, Num, Value};

    fn expect_err(r: Result<CompiledScenario, CompileError>) -> CompileError {
        match r {
            Ok(_) => panic!("expected a compile error"),
            Err(e) => e,
        }
    }

    fn chain_spec(rate_bps: u64) -> ScenarioSpec {
        let mut s = ScenarioSpec::new("chain", 1);
        s.nodes.push(NodeSpec::host("rx", AppSpec::IdSink));
        s.nodes.push(NodeSpec::router("tap"));
        s.nodes.push(NodeSpec::host(
            "tx",
            AppSpec::Pump {
                dst: "rx".to_string(),
                flow: 1,
                count: 200,
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
                    rate_bps,
                    depth_bytes: 4500,
                    conform_mark: None,
                },
            }],
        });
        s.bounds.push(BoundSpec {
            node: "tap".to_string(),
            flow: 1,
            rate_bps,
            depth_bytes: 4500,
        });
        s
    }

    fn run_chain(spec: &ScenarioSpec) -> (Vec<u64>, dsv_sim::SimTime, u64) {
        let compiled = compile(spec, CompileOptions::default()).expect("compiles");
        let sink = compiled.id_sinks[0].1.clone();
        let mut sim = Simulation::new(compiled.net);
        let stats = sim.run();
        let ids = sink.borrow().ids.clone();
        (ids, stats.end_time, stats.dispatched)
    }

    #[test]
    fn name_resolution_replaces_creation_order() {
        let compiled =
            compile(&chain_spec(20_000_000), CompileOptions::default()).expect("compiles");
        assert_eq!(compiled.node("rx"), NodeId(0));
        assert_eq!(compiled.node("tap"), NodeId(1));
        assert_eq!(compiled.node("tx"), NodeId(2));
        assert_eq!(
            compiled.bounds,
            vec![(NodeId(1), FlowId(1), 20_000_000, 4500)]
        );
    }

    #[test]
    fn compile_twice_is_byte_identical() {
        let spec = chain_spec(2_000_000);
        let a = run_chain(&spec);
        let b = run_chain(&spec);
        assert_eq!(a, b, "same spec must produce the same simulation");
    }

    #[test]
    fn clean_chain_delivers_everything() {
        let (ids, _, _) = run_chain(&chain_spec(20_000_000));
        assert_eq!(ids.len(), 200);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tap_hook_sees_named_taps() {
        use std::cell::RefCell;
        let seen: RefCell<Vec<String>> = RefCell::new(Vec::new());
        let wrap = |tap: &str, inner: BoxConditioner| -> BoxConditioner {
            seen.borrow_mut().push(tap.to_string());
            inner
        };
        let opts = CompileOptions {
            store: None,
            wrap: Some(&wrap),
        };
        compile(&chain_spec(20_000_000), opts).expect("compiles");
        assert_eq!(seen.into_inner(), vec!["ingress".to_string()]);
    }

    const CHAIN: &str = "scenario_policed_chain";
    const AF_TCP: &str = "scenario_af_tcp";
    const ABR: &str = "scenario_abr_qbone";

    /// A committed example spec, as a JSON tree.
    fn example_tree(name: &str) -> Value {
        let path = format!("{}/../../examples/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("the committed example exists");
        serde_json::parse_value(&text).expect("the committed example parses")
    }

    /// The committed policed-chain example, parsed.
    fn policed_chain_example() -> ScenarioSpec {
        ScenarioSpec::from_value(&example_tree(CHAIN)).expect("the committed example parses")
    }

    /// What a mutant does to the value at its path.
    #[derive(Debug, Clone, Copy)]
    enum Mutation {
        /// Numbers become 0, arrays empty, strings empty.
        Zero,
        /// Numbers become the largest `u32`.
        MaxU32,
        /// Numbers become the largest `u64`.
        MaxU64,
        /// The field (or array element) is removed.
        Drop,
    }

    /// The value under `v` at `step`: an object field, or an array element.
    fn child_mut<'v>(v: &'v mut Value, step: &str) -> &'v mut Value {
        match v {
            Value::Object(fields) => {
                &mut fields
                    .iter_mut()
                    .find(|(k, _)| k == step)
                    .expect("path exists")
                    .1
            }
            Value::Array(items) => &mut items[step.parse::<usize>().expect("an index")],
            _ => panic!("no `{step}` under a scalar"),
        }
    }

    /// Every path into `v`: its steps are object keys and array indices.
    fn paths(v: &Value, prefix: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        let children: Vec<(String, &Value)> = match v {
            Value::Object(fields) => fields.iter().map(|(k, c)| (k.clone(), c)).collect(),
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, c)| (i.to_string(), c))
                .collect(),
            _ => Vec::new(),
        };
        for (step, child) in children {
            prefix.push(step);
            out.push(prefix.clone());
            paths(child, prefix, out);
            prefix.pop();
        }
    }

    /// `tree` with `mutation` applied at `path`.
    fn mutate(tree: &Value, path: &[String], mutation: Mutation) -> Value {
        let mut tree = tree.clone();
        let (last, parents) = path.split_last().expect("paths are non-empty");
        let parent = parents.iter().fold(&mut tree, |v, step| child_mut(v, step));
        match (mutation, parent) {
            (Mutation::Drop, Value::Object(fields)) => fields.retain(|(k, _)| k != last),
            (Mutation::Drop, Value::Array(items)) => {
                items.remove(last.parse::<usize>().expect("an index"));
            }
            (mutation, parent) => {
                let target = child_mut(parent, last);
                *target = match (mutation, &*target) {
                    (Mutation::Zero, Value::Num(_)) => Value::Num(Num::U(0)),
                    (Mutation::Zero, Value::Array(_)) => Value::Array(Vec::new()),
                    (Mutation::Zero, Value::Str(_)) => Value::Str(String::new()),
                    (Mutation::MaxU32, Value::Num(_)) => Value::Num(Num::U(u32::MAX.into())),
                    (Mutation::MaxU64, Value::Num(_)) => Value::Num(Num::U(u64::MAX)),
                    (_, other) => other.clone(),
                };
            }
        }
        tree
    }

    /// Apply `mutation` at the `/`-separated `path` of example `name` and
    /// expect a compile error containing `needle`.
    fn assert_rejected(name: &str, path: &str, mutation: Mutation, needle: &str) {
        let path: Vec<String> = path.split('/').map(String::from).collect();
        let mutant = mutate(&example_tree(name), &path, mutation);
        let spec = ScenarioSpec::from_value(&mutant).expect("the mutant parses");
        let err = expect_err(compile(&spec, CompileOptions::default()));
        assert!(err.to_string().contains(needle), "{err}");
    }

    #[test]
    fn example_without_links_is_rejected() {
        assert_rejected(CHAIN, "links", Mutation::Zero, "has 0 links");
    }

    #[test]
    fn example_with_zero_horizon_is_rejected() {
        let mut spec = policed_chain_example();
        spec.horizon_ns = Some(0);
        let err = expect_err(compile(&spec, CompileOptions::default()));
        assert!(err.to_string().contains("`horizon_ns` is 0"), "{err}");
    }

    #[test]
    fn example_with_a_detached_router_is_rejected() {
        let mut spec = policed_chain_example();
        spec.nodes.push(NodeSpec::router("island"));
        let err = expect_err(compile(&spec, CompileOptions::default()));
        assert!(
            err.to_string().contains("`island` is not connected"),
            "{err}"
        );
    }

    #[test]
    fn example_with_a_zero_rate_link_is_rejected() {
        for dir in ["ab", "ba"] {
            let needle = format!("`edge`-`out` has `{dir}.rate_bps` 0");
            assert_rejected(
                CHAIN,
                &format!("links/2/{dir}/rate_bps"),
                Mutation::Zero,
                &needle,
            );
        }
    }

    /// Zero one field of the example's on-off source `bg` and expect the
    /// compiler to name it.
    fn assert_on_off_field_rejected(field: &str) {
        let needle = format!("on_off_source `bg` has `{field}` 0");
        assert_rejected(
            CHAIN,
            &format!("nodes/5/app/{field}"),
            Mutation::Zero,
            &needle,
        );
    }

    #[test]
    fn example_with_a_zero_peak_rate_is_rejected() {
        assert_on_off_field_rejected("peak_rate_bps");
    }

    #[test]
    fn example_with_a_zero_mean_period_is_rejected() {
        assert_on_off_field_rejected("mean_on_us");
        assert_on_off_field_rejected("mean_off_us");
    }

    #[test]
    fn example_with_empty_packets_is_rejected() {
        assert_on_off_field_rejected("packet_size");
    }

    #[test]
    fn example_with_a_zero_police_rate_is_rejected() {
        let needle = "the police rule at `edge` has `rate_bps` 0";
        assert_rejected(
            CHAIN,
            "conditioners/0/rules/0/action/rate_bps",
            Mutation::Zero,
            needle,
        );
    }

    #[test]
    fn example_with_a_zero_police_depth_is_rejected() {
        let needle = "the police rule at `edge` has `depth_bytes` 0";
        let path = "conditioners/0/rules/0/action/depth_bytes";
        assert_rejected(CHAIN, path, Mutation::Zero, needle);
    }

    #[test]
    fn example_with_a_zero_meter_cir_is_rejected() {
        let needle = "the meter_af rule at `edge` has `cir_bps` 0";
        assert_rejected(
            AF_TCP,
            "conditioners/0/rules/0/action/cir_bps",
            Mutation::Zero,
            needle,
        );
    }

    #[test]
    fn example_with_a_zero_meter_cbs_is_rejected() {
        let needle = "the meter_af rule at `edge` has `cbs_bytes` 0";
        let path = "conditioners/0/rules/0/action/cbs_bytes";
        assert_rejected(AF_TCP, path, Mutation::Zero, needle);
    }

    #[test]
    fn example_with_a_zero_capacity_wred_queue_is_rejected() {
        let needle = "the wred queue on `edge`-`egress` ab has `capacity_bytes` 0";
        assert_rejected(
            AF_TCP,
            "links/8/qdisc_ab/capacity_bytes",
            Mutation::Zero,
            needle,
        );
    }

    #[test]
    fn example_with_an_empty_abr_ladder_is_rejected() {
        let needle = "abr_client `client` has `rungs_bps` []";
        assert_rejected(ABR, "nodes/0/app/rungs_bps", Mutation::Zero, needle);
    }

    #[test]
    fn example_with_a_zero_abr_step_is_rejected() {
        let needle = "abr_client `client` has `step_us` 0";
        assert_rejected(ABR, "nodes/0/app/step_us", Mutation::Zero, needle);
    }

    #[test]
    fn example_with_zero_abr_segments_is_rejected() {
        let needle = "abr_client `client` has `segments` 0";
        assert_rejected(ABR, "nodes/0/app/segments", Mutation::Zero, needle);
    }

    #[test]
    fn example_with_an_unbounded_peak_rate_is_rejected() {
        let needle = "on_off_source `bg` has `peak_rate_bps` 18446744073709551615, \
                      above its 100000000 bps access link";
        assert_rejected(CHAIN, "nodes/5/app/peak_rate_bps", Mutation::MaxU64, needle);
    }

    #[test]
    fn example_with_empty_pump_packets_is_rejected() {
        assert_rejected(
            CHAIN,
            "nodes/4/app/size",
            Mutation::Zero,
            "pump `tx` has `size` 0",
        );
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut spec = chain_spec(20_000_000);
        spec.links[0].b = "no-such-node".to_string();
        let err = expect_err(compile(&spec, CompileOptions::default()));
        assert!(err.to_string().contains("no-such-node"), "{err}");
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut spec = chain_spec(20_000_000);
        spec.nodes.push(NodeSpec::router("tap"));
        assert!(compile(&spec, CompileOptions::default()).is_err());
    }

    #[test]
    fn media_specs_require_a_store() {
        let mut spec = chain_spec(20_000_000);
        spec.nodes.push(NodeSpec::host(
            "client",
            AppSpec::StreamClient {
                server: "tx".to_string(),
                up_flow: 2,
                media: crate::spec::MediaRef {
                    clip: ClipId2::Lost,
                    codec: CodecSpec::Mpeg1,
                    rate_bps: 1_500_000,
                },
                transport: TransportSpec::Udp,
                feedback_us: None,
            },
        ));
        let err = expect_err(compile(&spec, CompileOptions::default()));
        assert!(err.to_string().contains("ClipStore"), "{err}");
    }

    proptest! {
        /// Zero, extreme and dropped-field mutants of every committed
        /// example either fail to parse, fail to compile with a
        /// `CompileError`, or compile and survive a short run: never a
        /// panic, never a hang.
        #[test]
        fn mutated_examples_compile_or_fail_cleanly(pick in 0u64..u64::MAX, kind in 0usize..4) {
            let mutation = [Mutation::Zero, Mutation::MaxU32, Mutation::MaxU64, Mutation::Drop][kind];
            for name in [CHAIN, AF_TCP, ABR] {
                let tree = example_tree(name);
                let mut all = Vec::new();
                paths(&tree, &mut Vec::new(), &mut all);
                let path = &all[(pick % all.len() as u64) as usize];
                let Ok(spec) = ScenarioSpec::from_value(&mutate(&tree, path, mutation)) else {
                    continue;
                };
                if let Ok(compiled) = compile(&spec, CompileOptions::default()) {
                    let mut sim = Simulation::new(compiled.net);
                    sim.run_until(dsv_sim::SimTime::from_millis(200));
                }
            }
        }
    }
}
