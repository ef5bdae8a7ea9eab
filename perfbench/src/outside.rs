//! The serial pipeline driven from outside the program: each point goes
//! through the layers' public calls — spec producer, canonical address,
//! compile, `Simulation::new`, the dispatch loop, scoring — and each call
//! is timed from here. The traced variant replaces `run_until` with this
//! file's own loop over `pop_at_or_before` + `World::handle`, classifying
//! every `NetEvent`; the fidelity tests prove both loops run the same
//! program.

use std::collections::HashMap;
use std::time::Instant;

use dsv_core::aggregate::AggregateOutcome;
use dsv_core::artifacts::{self, ArtifactStore};
use dsv_core::experiment::{run_horizon, RunOutcome};
use dsv_core::flows::{FlowOutcome, FlowsOutcome};
use dsv_core::prelude::*;
use dsv_net::network::{NetEvent, Network, Simulation};
use dsv_net::packet::DropReason;
use dsv_scenario::{compile, CompileOptions};
use dsv_sim::{SimDuration, SimTime, World};

use crate::grid::Point;

/// Event kinds, in [`EVENT_KINDS`] order.
pub const EVENT_KINDS: [&str; 5] = ["start", "timer", "arrive", "port_ready", "cond_poll"];

fn kind_index(ev: &NetEvent) -> usize {
    match ev {
        NetEvent::Start(_) => 0,
        NetEvent::Timer { .. } => 1,
        NetEvent::Arrive { .. } => 2,
        NetEvent::PortReady { .. } => 3,
        NetEvent::CondPoll(_) => 4,
    }
}

/// Counts and times gathered at the layer boundaries of a serial run.
/// Times are nanoseconds; the event split is filled by the traced loop
/// only.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Grid points driven (members included).
    pub points: u64,
    /// Points simulated (one per symmetry class).
    pub simulations: u64,
    /// Spec producers.
    pub spec_ns: u64,
    /// `canonical_address` (canonicalize + address JSON).
    pub canonical_ns: u64,
    /// `compile`.
    pub compile_ns: u64,
    /// `Simulation::new`.
    pub sim_new_ns: u64,
    /// `pop_at_or_before`, traced loop only.
    pub pop_ns: u64,
    /// `World::handle` self time per event kind, traced loop only.
    pub handle_ns: [u64; 5],
    /// Events dispatched per kind, traced loop only.
    pub events: [u64; 5],
    /// Events dispatched, either loop.
    pub dispatched: u64,
    /// Packets delivered to hosts.
    pub delivered_packets: u64,
    /// Drops by token-bucket policers.
    pub policer_drops: u64,
    /// Largest per-point event-queue high-water mark.
    pub queue_high_water: u64,
    /// Largest per-point packet-pool high-water mark.
    pub pool_high_water: u64,
    /// Sessions scored.
    pub sessions: u64,
    /// `score_session`.
    pub score_ns: u64,
    /// Wall time of each simulated point, whole pipeline.
    pub point_ns: Vec<u64>,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Drive `points` serially through the pipeline; members of a symmetry
/// class already simulated take its outcome by transplant, as the
/// runner's exact clustering does. Returns each point's outcome JSON.
pub fn run_points(points: &[Point], traced: bool, layers: &mut Layers) -> Vec<String> {
    let mut reps: HashMap<String, (usize, String)> = HashMap::new();
    let mut out = Vec::with_capacity(points.len());
    for (i, point) in points.iter().enumerate() {
        let t_point = Instant::now();
        layers.points += 1;
        let t = Instant::now();
        let spec = point.spec();
        layers.spec_ns += ns_since(t);
        let t = Instant::now();
        let address = format!(
            "{}\0{}",
            point.kind(),
            dsv_core::keys::canonical_address(&spec, point.scoring())
        );
        layers.canonical_ns += ns_since(t);
        if let Some((rep, rep_json)) = reps.get(&address) {
            out.push(transplant(&points[*rep], rep_json, point));
            continue;
        }
        let json = simulate(point, &spec, traced, layers);
        layers.simulations += 1;
        layers.point_ns.push(ns_since(t_point));
        reps.insert(address, (i, json.clone()));
        out.push(json);
    }
    out
}

/// A class member's outcome from its representative's. Only the
/// aggregate rotation members share a class in the figure grids: their
/// pairs are identical and in phase, so the outcome at each declaration
/// position carries over and only the flow labels move.
fn transplant(rep: &Point, rep_json: &str, member: &Point) -> String {
    let (Point::Aggregate(rc), Point::Aggregate(mc)) = (rep, member) else {
        // Single-flow testbeds report flow-agnostic outcomes.
        assert!(
            !matches!(member, Point::AfTcp(_)),
            "an AF-TCP member would need its flows re-ordered"
        );
        return rep_json.to_string();
    };
    let rep_out: AggregateOutcome = serde_json::from_str(rep_json).expect("outcome parses");
    let n = mc.flows as usize;
    // Label `l` sits at declaration position `(l - rotation) mod n`.
    let at_position = |p: usize| &rep_out.per_flow[(p + rc.rotation as usize) % n];
    let per_flow = (0..n)
        .map(|l| at_position((l + n - mc.rotation as usize % n) % n).clone())
        .collect();
    serde_json::to_string(&AggregateOutcome { per_flow }).expect("outcome serializes")
}

/// Compile, simulate and score one point; returns its outcome JSON.
fn simulate(
    point: &Point,
    spec: &dsv_scenario::ScenarioSpec,
    traced: bool,
    l: &mut Layers,
) -> String {
    let t = Instant::now();
    let compiled = compile(
        spec,
        CompileOptions {
            store: Some(&ArtifactStore),
            wrap: None,
        },
    )
    .expect("figure spec compiles");
    l.compile_ns += ns_since(t);
    let horizon = SimTime::ZERO + compiled.horizon.expect("figure specs set a horizon");
    match point {
        Point::Qbone(_) => {
            let client = compiled.sole_client().expect("one client").clone();
            let sim = drive(compiled.net, horizon, traced, l);
            let report = client.borrow().report();
            let media = sim.net.stats.flow(dsv_core::qbone::MEDIA_FLOW);
            let score = score(l, point, &report);
            json(&RunOutcome::assemble(&report, &media, &score, 0, 0, false))
        }
        Point::Local(_) => {
            let client = compiled.sole_client().expect("one client").clone();
            let adaptive = compiled.adaptives.first().map(|(_, h)| h.clone());
            let sim = drive(compiled.net, horizon, traced, l);
            let report = client.borrow().report();
            let media = sim.net.stats.flow(dsv_core::local::MEDIA_FLOW);
            let shaper_drops = media.drops_for(DropReason::ShaperOverflow);
            let (collapses, broken) = adaptive
                .map(|h| {
                    let s = h.borrow();
                    (s.collapses, s.broken)
                })
                .unwrap_or((0, false));
            let score = score(l, point, &report);
            json(&RunOutcome::assemble(
                &report,
                &media,
                &score,
                shaper_drops,
                collapses,
                broken,
            ))
        }
        Point::Aggregate(cfg) => {
            let clients: Vec<_> = (0..cfg.flows)
                .map(|i| {
                    let name = format!("client-{i}");
                    let (_, h) = compiled
                        .clients
                        .iter()
                        .find(|(n, _)| *n == name)
                        .expect("every pair label has a client");
                    h.clone()
                })
                .collect();
            let sim = drive(compiled.net, horizon, traced, l);
            let per_flow = clients
                .iter()
                .enumerate()
                .map(|(i, client)| {
                    let report = client.borrow().report();
                    let media = sim.net.stats.flow(AggregateConfig::media_flow(i as u32));
                    let score = score(l, point, &report);
                    RunOutcome::assemble(&report, &media, &score, 0, 0, false)
                })
                .collect();
            json(&AggregateOutcome { per_flow })
        }
        Point::Smoothing(cfg) => {
            let abr = compiled.abr_clients.first().map(|(_, h)| h.clone());
            let sim = drive(compiled.net, horizon, traced, l);
            let media = sim.net.stats.flow(dsv_core::qbone::MEDIA_FLOW);
            // The clip's play length: the run horizon minus its drain slack.
            let span = run_horizon(cfg.clip.into()) - SimDuration::from_secs(30);
            let mut out = FlowOutcome {
                target_bps: cfg.encoding_bps,
                achieved_bps: media.goodput_bps(span),
                delivered_bytes: media.rx_bytes,
                packet_loss: media.loss_fraction(),
                policer_drops: media.drops_for(DropReason::PolicerNonConformant),
                queue_drops: media.drops_for(DropReason::QueueOverflow),
                mean_delay_ms: media.delay.mean().as_millis_f64(),
                ..Default::default()
            };
            if let Some(handle) = abr {
                let report = handle.borrow().report();
                out.startup_s = report.startup.as_secs_f64();
                out.stall_s = report.stall.as_secs_f64();
                out.rebuffers = report.rebuffers;
                out.mean_rung = report.mean_rung();
                out.segments_completed = report.segments_completed;
                out.broken = !report.done;
            }
            json(&FlowsOutcome {
                per_flow: vec![out],
            })
        }
        Point::AfTcp(cfg) => {
            let sinks: Vec<_> = (0..cfg.flows())
                .map(|i| {
                    let name = format!("sink-{i}");
                    let (_, h) = compiled
                        .bulk_sinks
                        .iter()
                        .find(|(n, _)| *n == name)
                        .expect("every pair label has a sink");
                    h.clone()
                })
                .collect();
            let sim = drive(compiled.net, horizon, traced, l);
            let span = SimDuration::from_micros(cfg.duration_us);
            let n = cfg.flows();
            let per_flow = sinks
                .iter()
                .enumerate()
                .map(|(i, sink)| {
                    let i = i as u32;
                    let delivered = sink.borrow().delivered();
                    let counters = sim.net.stats.flow(AfTcpConfig::media_flow(i));
                    // Targets are per declaration position; label `i`
                    // sits at `(i - rotation) mod n`.
                    let position = ((i + n - cfg.rotation % n) % n) as usize;
                    FlowOutcome {
                        target_bps: cfg.targets_bps[position],
                        achieved_bps: delivered as f64 * 8.0 / span.as_secs_f64(),
                        delivered_bytes: delivered,
                        packet_loss: counters.loss_fraction(),
                        policer_drops: counters.drops_for(DropReason::PolicerNonConformant),
                        queue_drops: counters.drops_for(DropReason::QueueOverflow),
                        mean_delay_ms: counters.delay.mean().as_millis_f64(),
                        ..Default::default()
                    }
                })
                .collect();
            json(&FlowsOutcome { per_flow })
        }
    }
}

fn json<T: serde::Serialize>(outcome: &T) -> String {
    serde_json::to_string(outcome).expect("outcome serializes")
}

/// Score one session of `point` against its own encoding's reference
/// (the figure grids never ask for `score_vs_best`).
fn score(
    l: &mut Layers,
    point: &Point,
    report: &dsv_stream::client::ClientReport,
) -> dsv_vqm::qoe::QoeEstimate {
    let (clip, codec, rate) = point.reference().expect("a scored testbed");
    let source = artifacts::source_features(clip);
    let reference = artifacts::reference_features(clip, codec, rate);
    let t = Instant::now();
    let estimate = dsv_core::qoe::score_session(&source, &reference, report, None);
    l.score_ns += ns_since(t);
    l.sessions += 1;
    estimate
}

/// Build the simulation and run it to `horizon`, through `run_until` or
/// the traced loop, recording the point's high-water marks and delivery
/// and policing totals.
fn drive<P: Send + 'static>(
    net: Network<P>,
    horizon: SimTime,
    traced: bool,
    l: &mut Layers,
) -> Simulation<P> {
    let t = Instant::now();
    let mut sim = Simulation::new(net);
    l.sim_new_ns += ns_since(t);
    l.dispatched += if traced {
        traced_loop(&mut sim, horizon, l)
    } else {
        sim.run_until(horizon).dispatched
    };
    l.queue_high_water = l.queue_high_water.max(sim.queue.high_water() as u64);
    l.pool_high_water = l.pool_high_water.max(sim.net.pool_high_water() as u64);
    for (_, flow) in sim.net.stats.flows() {
        l.delivered_packets += flow.rx_packets;
        l.policer_drops += flow.drops_for(DropReason::PolicerNonConformant);
    }
    sim
}

/// The engine's dispatch loop, run from here with every queue pop and
/// every handler call timed and every event classified. Each span starts
/// where the previous one ended, so two clock reads cost one event.
pub fn traced_loop<P: Send + 'static>(
    sim: &mut Simulation<P>,
    horizon: SimTime,
    l: &mut Layers,
) -> u64 {
    let mut dispatched = 0;
    let mut mark = Instant::now();
    loop {
        let next = sim.queue.pop_at_or_before(horizon);
        let popped = Instant::now();
        l.pop_ns += (popped - mark).as_nanos() as u64;
        let Some((now, event)) = next else {
            break;
        };
        let kind = kind_index(&event);
        sim.net.handle(now, event, &mut sim.queue);
        mark = Instant::now();
        l.handle_ns[kind] += (mark - popped).as_nanos() as u64;
        l.events[kind] += 1;
        dispatched += 1;
    }
    dispatched
}

/// Replay `points` one at a time through a serial `runner` over a warm
/// result cache. Traced, the spec producer and canonical address are
/// also driven and timed from here, as the runner's key path runs them.
pub fn replay_points(
    runner: &dsv_core::runner::Runner,
    points: &[Point],
    traced: bool,
    l: &mut Layers,
) -> Vec<String> {
    points
        .iter()
        .map(|point| {
            l.points += 1;
            if traced {
                let t = Instant::now();
                let spec = point.spec();
                l.spec_ns += ns_since(t);
                let t = Instant::now();
                dsv_core::keys::canonical_address(&spec, point.scoring());
                l.canonical_ns += ns_since(t);
            }
            let (wall, mut out) = crate::pass::run_batch(runner, std::slice::from_ref(point));
            l.point_ns.push(wall.as_nanos() as u64);
            let (json, source) = out.pop().expect("one outcome per point");
            if matches!(source, dsv_core::runner::PointSource::Simulated) {
                l.simulations += 1;
            }
            json
        })
        .collect()
}
