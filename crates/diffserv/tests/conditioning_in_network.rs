//! Conditioners driven by the real event loop: policers and shapers
//! attached to routers, fed by live traffic sources. These tests pin the
//! end-to-end semantics the experiment layer relies on (drop accounting,
//! shaped-release timing, EF marking downstream of the policer).

use dsv_diffserv::prelude::*;
use dsv_net::prelude::*;
use dsv_sim::{SimDuration, SimTime};

const FLOW: FlowId = FlowId(1);

fn build(
    rate_bps: u64,
    cond: Box<dyn Conditioner<()>>,
    send_rate_bps: u64,
    secs: u64,
) -> Simulation<()> {
    let mut b = NetworkBuilder::<()>::new();
    let sink = b.add_host("sink", Box::new(CountingSink::default()));
    let r = b.add_router("r");
    let src = b.add_host(
        "src",
        Box::new(CbrSource {
            dst: sink,
            flow: FLOW,
            packet_size: 1500,
            rate_bps: send_rate_bps,
            dscp: Dscp::BEST_EFFORT,
            stop_at: SimTime::from_secs(secs),
        }),
    );
    b.connect(src, r, Link::fast_ethernet());
    b.connect(
        r,
        sink,
        Link::new(rate_bps.max(10_000_000), SimDuration::from_micros(100)),
    );
    b.set_conditioner(r, cond);
    Simulation::new(b.build())
}

#[test]
fn policer_passes_exactly_the_token_rate() {
    // CBR at 2 Mbps through a 1 Mbps policer for 20 s: accepted bytes must
    // equal rate·t/8 + depth within one packet.
    let policer = Policer::ef_drop(1_000_000, 3000);
    let table: PolicyTable<()> =
        PolicyTable::new().with(MatchRule::ANY, PolicyAction::Police(policer));
    let mut sim = build(10_000_000, Box::new(table), 2_000_000, 20);
    sim.run();
    let c = sim.net.stats.flow(FLOW);
    let expected_bytes = 1_000_000.0 * 20.0 / 8.0 + 3000.0;
    let delivered = c.rx_bytes as f64;
    assert!(
        (delivered - expected_bytes).abs() < 3_000.0,
        "delivered {delivered} vs expected {expected_bytes}"
    );
    assert_eq!(
        c.drops_for(DropReason::PolicerNonConformant) + c.rx_packets,
        c.tx_packets
    );
    // Every packet dropped for exactly one reason; none vanished.
    assert!(c.drops_for(DropReason::QueueOverflow) == 0);
}

#[test]
fn policer_marks_survivors_ef() {
    // The EF marking applied at the policer is visible at delivery — the
    // premise for the downstream priority queues.
    let mut b = NetworkBuilder::<()>::new();
    struct MarkCheck {
        ef: u64,
        other: u64,
    }
    impl Application<()> for MarkCheck {
        fn on_start(&mut self, _ctx: &mut AppCtx<()>) {}
        fn on_packet(&mut self, _ctx: &mut AppCtx<()>, pkt: Packet<()>) {
            if pkt.dscp.is_ef() {
                self.ef += 1;
            } else {
                self.other += 1;
            }
        }
        fn on_timer(&mut self, _ctx: &mut AppCtx<()>, _token: u64) {}
    }
    let (handle, app) = Shared::new(MarkCheck { ef: 0, other: 0 });
    let sink = b.add_host("sink", Box::new(app));
    let r = b.add_router("r");
    let src = b.add_host(
        "src",
        Box::new(CbrSource {
            dst: sink,
            flow: FLOW,
            packet_size: 1000,
            rate_bps: 800_000,
            dscp: Dscp::BEST_EFFORT,
            stop_at: SimTime::from_secs(2),
        }),
    );
    b.connect(src, r, Link::fast_ethernet());
    b.connect(r, sink, Link::fast_ethernet());
    let table: PolicyTable<()> = PolicyTable::new().with(
        MatchRule::ANY,
        PolicyAction::Police(Policer::ef_drop(1_000_000, 3000)),
    );
    b.set_conditioner(r, Box::new(table));
    let mut sim = Simulation::new(b.build());
    sim.run();
    let mc = handle.borrow();
    assert!(
        mc.ef > 100,
        "conformant packets arrive EF-marked: {}",
        mc.ef
    );
    assert_eq!(mc.other, 0, "nothing arrives unmarked");
}

#[test]
fn shaper_in_network_delays_instead_of_dropping() {
    // Same overload as the policer test, but shaping: everything within
    // the (large) delay queue arrives, at the shaped rate.
    let shaper: Shaper<()> = Shaper::new(1_000_000, 3000, 50_000_000);
    let table: PolicyTable<()> =
        PolicyTable::new().with(MatchRule::ANY, PolicyAction::Shape(shaper));
    let mut sim = build(10_000_000, Box::new(table), 2_000_000, 10);
    sim.run();
    let c = sim.net.stats.flow(FLOW);
    assert_eq!(c.total_drops(), 0, "nothing dropped");
    assert_eq!(c.rx_packets, c.tx_packets, "everything delivered");
    // The tail of the stream waited for the 1 Mbps drain: 10 s of input at
    // 2 Mbps takes ~20 s to drain, so max delay ≈ 10 s.
    assert!(
        c.delay.max > SimDuration::from_secs(8),
        "max delay {:?}",
        c.delay.max
    );
    // Delivered arrival rate never exceeded the shaper rate: the last
    // packet lands no earlier than total_bytes / rate.
    let drain_secs = c.rx_bytes as f64 * 8.0 / 1_000_000.0;
    assert!(drain_secs > 19.0, "drain {drain_secs}");
}

#[test]
fn shaper_overflow_is_accounted() {
    // A small delay queue under the same overload sheds the excess as
    // ShaperOverflow, not silently.
    let shaper: Shaper<()> = Shaper::new(1_000_000, 3000, 30_000);
    let table: PolicyTable<()> =
        PolicyTable::new().with(MatchRule::ANY, PolicyAction::Shape(shaper));
    let mut sim = build(10_000_000, Box::new(table), 2_000_000, 10);
    sim.run();
    let c = sim.net.stats.flow(FLOW);
    assert!(c.drops_for(DropReason::ShaperOverflow) > 0);
    assert_eq!(
        c.rx_packets + c.drops_for(DropReason::ShaperOverflow),
        c.tx_packets
    );
    // Goodput still pinned at the shaper rate: the source sends for 10 s
    // and the (small) queue drains moments later, so delivered bytes ≈
    // 1 Mbps × 10 s.
    let expected = 1_000_000.0 * 10.0 / 8.0;
    assert!(
        (c.rx_bytes as f64 - expected).abs() < 0.08 * expected,
        "delivered {} vs expected {expected}",
        c.rx_bytes
    );
}

#[test]
fn wred_core_sheds_by_color_end_to_end() {
    // AF edge marking + WRED core queue: under congestion the red-marked
    // flow loses far more than the green-marked flow.
    let mut b = NetworkBuilder::<()>::new();
    let sink = b.add_host("sink", Box::new(CountingSink::default()));
    let core = b.add_router("core");
    let edge = b.add_router("edge");
    let green_src = b.add_host(
        "green",
        Box::new(CbrSource {
            dst: sink,
            flow: FlowId(1),
            packet_size: 1200,
            rate_bps: 2_000_000,
            dscp: Dscp::af(1, 1),
            stop_at: SimTime::from_secs(10),
        }),
    );
    let red_src = b.add_host(
        "red",
        Box::new(CbrSource {
            dst: sink,
            flow: FlowId(2),
            packet_size: 1200,
            rate_bps: 2_000_000,
            dscp: Dscp::af(1, 3),
            stop_at: SimTime::from_secs(10),
        }),
    );
    b.connect(green_src, edge, Link::fast_ethernet());
    b.connect(red_src, edge, Link::fast_ethernet());
    // 3 Mbps bottleneck for 4 Mbps of offered load.
    b.connect_with(
        edge,
        core,
        Link::new(3_000_000, SimDuration::from_micros(500)),
        Link::new(3_000_000, SimDuration::from_micros(500)),
        Box::new(WredQueue::af_default(60_000, 99)),
        Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
    );
    b.connect(core, sink, Link::fast_ethernet());
    let mut sim = Simulation::new(b.build());
    sim.run();
    let green = sim.net.stats.flow(FlowId(1));
    let red = sim.net.stats.flow(FlowId(2));
    assert!(
        red.loss_fraction() > 2.0 * green.loss_fraction() + 0.05,
        "red {:.3} vs green {:.3}",
        red.loss_fraction(),
        green.loss_fraction()
    );
    // Combined goodput saturates the bottleneck.
    let total = (green.rx_bytes + red.rx_bytes) as f64 * 8.0 / 10.0;
    assert!(total > 2_500_000.0, "bottleneck utilization {total}");
}
