//! Mini-TCP edge cases the AF and smoothing suites lean on.
//!
//! Three regimes that the happy-path transfer tests never visit:
//!
//! * **Total blackout** — no ACK ever returns. The RTO must back off
//!   exponentially to its 60 s ceiling, retransmit go-back-N from
//!   `snd_una`, and collapse the window to one segment.
//! * **Hostile remarking** — every data segment enters a congested WRED
//!   queue at the highest drop precedence. The transfer must crawl, not
//!   wedge: the sender keeps probing and whatever is delivered is
//!   delivered in order.
//! * **ACK reordering** — the return path reorders packets through a
//!   fault-injection tap ([`dsv_check::fault`]). Cumulative ACKs make
//!   reordering harmless: the transfer completes byte-for-byte as if the
//!   path were clean.

use dsv_check::fault::{FaultKind, FaultPlan};
use dsv_net::app::{Handle, Shared};
use dsv_net::conditioner::PassThrough;
use dsv_net::link::Link;
use dsv_net::network::{NetworkBuilder, Simulation};
use dsv_net::packet::{Dscp, FlowId, NodeId};
use dsv_net::wred::WredQueue;
use dsv_sim::{SimDuration, SimTime};
use dsv_stream::bulk::{BulkTcpConfig, BulkTcpSender, BulkTcpSink};
use dsv_stream::payload::StreamPayload;
use dsv_stream::tcp::{TcpSender, MSS};

#[test]
fn blackout_backs_off_exponentially_to_the_rto_ceiling() {
    let mut s = TcpSender::new();
    s.write(1_000_000);
    let mut now = SimTime::ZERO;
    let first = s.poll_send(now);
    assert!(!first.segments.is_empty(), "initial window sends");
    let initial_rto = first.arm_rto.expect("first send arms the timer");
    assert_eq!(initial_rto, SimDuration::from_secs(1));

    // Fire every armed timer with no ACK ever arriving: each timeout must
    // double the RTO (clamped at 60 s), retransmit exactly the first
    // unacknowledged segment, and never advance snd_una.
    let mut rtos = Vec::new();
    let mut rto = initial_rto;
    for _ in 0..10 {
        now += rto;
        let acts = s.on_rto_timer(now);
        assert_eq!(
            acts.segments,
            vec![(0, MSS)],
            "go-back-N retransmits from snd_una"
        );
        rto = acts.arm_rto.expect("timeout re-arms the timer");
        rtos.push(rto);
        assert_eq!(s.snd_una(), 0, "nothing was acknowledged");
        assert_eq!(s.cwnd(), u64::from(MSS), "window collapses to one MSS");
    }
    assert_eq!(s.timeouts, 10);
    // 2 s, 4 s, … doubling, then pinned at the 60 s ceiling forever.
    for (i, pair) in rtos.windows(2).enumerate() {
        let doubled = pair[0] * 2;
        let expected = doubled.min(SimDuration::from_secs(60));
        assert_eq!(pair[1], expected, "backoff step {i} wrong: {rtos:?}");
    }
    assert_eq!(*rtos.last().unwrap(), SimDuration::from_secs(60));
}

/// A two-host + router fixture for transfer-level edge cases. Returns
/// the simulation and a handle to the sink; the data flow is
/// `FlowId(1)`, ACKs `FlowId(2)`.
fn bulk_fixture(
    total: u64,
    dscp: Dscp,
    wire: impl FnOnce(&mut NetworkBuilder<StreamPayload>, NodeId, NodeId, NodeId),
) -> (Simulation<StreamPayload>, Handle<BulkTcpSink>) {
    let mut b = NetworkBuilder::new();
    let r = b.add_router("r");
    let sender_guess = NodeId(2);
    let (sink_handle, sink_app) = Shared::new(BulkTcpSink::new(sender_guess, FlowId(2)));
    let sink = b.add_host("sink", Box::new(sink_app));
    let sender = b.add_host(
        "sender",
        Box::new(BulkTcpSender::new(BulkTcpConfig {
            client: sink,
            flow: FlowId(1),
            dscp,
            total_bytes: total,
        })),
    );
    assert_eq!(sender, sender_guess, "node id layout assumption");
    wire(&mut b, sender, sink, r);
    (Simulation::new(b.build()), sink_handle)
}

#[test]
fn reordered_acks_do_not_break_the_byte_stream() {
    // Clean reference run, then the same transfer with two packets held
    // back 5 ms each at the router. The router conditions *all*
    // forwarded traffic, so the held packets interleave data and ACKs —
    // the property is that the cumulative-ACK byte stream is immune
    // either way: same contiguous delivery as the clean run.
    let total = 400_000u64;
    let run = |plan: FaultPlan| {
        let (mut sim, sink) = bulk_fixture(total, Dscp::BEST_EFFORT, |b, sender, sink, r| {
            b.connect(sender, r, Link::fast_ethernet());
            b.connect(sink, r, Link::fast_ethernet());
            b.set_conditioner(r, plan.wrap("ack-path", Box::new(PassThrough)));
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let delivered = sink.borrow().delivered();
        (delivered, sim.net.stats.flow(FlowId(1)).rx_bytes)
    };

    let clean = run(FaultPlan::none());
    assert!(clean.0 >= total, "clean transfer must complete");

    let hold = SimDuration::from_millis(5);
    let faulty = run(FaultPlan::new(11)
        .with("ack-path", FaultKind::Reorder { nth: 4, hold })
        .with("ack-path", FaultKind::Reorder { nth: 9, hold }));
    assert!(faulty.0 >= total, "reordered transfer must still complete");
    assert_eq!(
        clean.0, faulty.0,
        "contiguous delivery must match the clean run"
    );
}

#[test]
fn hostile_remarking_crawls_but_never_wedges() {
    // Every data segment enters a WRED bottleneck pre-marked at the
    // highest drop precedence (AF13): the early-drop band for that
    // precedence bites well before the queue fills, so the flow takes
    // sustained loss. The edge case is liveness — RTO recovery must
    // keep the transfer moving even when fast retransmit rarely fires.
    let total = 300_000u64;
    let (mut sim, sink) = bulk_fixture(total, Dscp::af(1, 3), |b, sender, sink, r| {
        b.connect(sender, r, Link::fast_ethernet());
        // A slow bottleneck with a small WRED buffer.
        let link = Link::new(1_000_000, SimDuration::from_millis(5));
        b.connect_with(
            r,
            sink,
            link,
            link,
            Box::new(WredQueue::af_default(20_000, 99)),
            Box::new(WredQueue::af_default(20_000, 99)),
        );
    });
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));

    let delivered = sink.borrow().delivered();
    let media = sim.net.stats.flow(FlowId(1));
    assert!(media.total_drops() > 0, "the hostile marking must bite");
    assert!(
        delivered >= total / 10,
        "transfer must keep crawling under red marking, got {delivered}"
    );
    // In-order contiguous delivery never exceeds what arrived on the wire.
    assert!(delivered <= media.rx_bytes);
}
