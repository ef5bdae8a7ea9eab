//! The traced run measures the same program: on one point per testbed,
//! the benchmark's own dispatch loop dispatches exactly as many events as
//! `Simulation::run_until` and yields the same outcome bytes, and the
//! outside pipeline reproduces the program's own `run_*` outcome.

use std::path::Path;

use dsv_core::prelude::*;
use dsv_core::smoothing::DEPTH_10MTU;
use dsv_perfbench::grid::{Point, Workload};
use dsv_perfbench::outside::{run_points, Layers};
use dsv_perfbench::recorded;

/// Outcome JSON of `point` through the program's own entry point.
fn program_outcome(point: &Point) -> String {
    match point {
        Point::Qbone(c) => serde_json::to_string(&run_qbone(c)),
        Point::Local(c) => serde_json::to_string(&run_local(c)),
        Point::Aggregate(c) => serde_json::to_string(&run_aggregate(c)),
        Point::Smoothing(c) => serde_json::to_string(&run_smoothing(c)),
        Point::AfTcp(c) => serde_json::to_string(&run_af_tcp(c)),
    }
    .expect("outcome serializes")
}

fn check(point: Point) {
    let mut plain = Layers::default();
    let mut traced = Layers::default();
    let by_run_until = run_points(std::slice::from_ref(&point), false, &mut plain);
    let by_traced_loop = run_points(std::slice::from_ref(&point), true, &mut traced);
    assert!(
        plain.dispatched > 0,
        "{} point dispatched nothing",
        point.kind()
    );
    assert_eq!(traced.dispatched, plain.dispatched, "{}", point.kind());
    assert_eq!(
        traced.events.iter().sum::<u64>(),
        traced.dispatched,
        "every dispatched event is classified"
    );
    assert_eq!(by_traced_loop, by_run_until, "{}", point.kind());
    assert_eq!(by_run_until[0], program_outcome(&point), "{}", point.kind());
}

#[test]
fn qbone_point() {
    check(Point::Qbone(QboneConfig::new(
        ClipId2::Lost,
        1_500_000,
        EfProfile::new(1_550_000, DEPTH_2MTU),
    )));
}

#[test]
fn local_tcp_point() {
    let mut cfg = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(1_300_000, DEPTH_3MTU),
        LocalTransport::Tcp,
    );
    cfg.shaped = true;
    check(Point::Local(cfg));
}

#[test]
fn aggregate_point() {
    let cfg = AggregateConfig::new(
        ClipId2::Lost,
        1_000_000,
        4,
        EfProfile::new(5_600_000, DEPTH_3MTU),
    );
    check(Point::Aggregate(cfg.with_rotation(1)));
}

#[test]
fn smoothing_point() {
    check(Point::Smoothing(SmoothingConfig::new(
        ClipId2::Lost,
        1_500_000,
        SmoothingServer::Abr,
        EfProfile::new(1_650_000, DEPTH_10MTU),
    )));
}

#[test]
fn af_tcp_point() {
    let mut cfg = AfTcpConfig::new(vec![750_000; 4], vec![0, 0, 40, 40]).with_rotation(1);
    cfg.duration_us = 10_000_000;
    check(Point::AfTcp(cfg));
}

#[test]
fn rotated_members_transplant_like_the_program() {
    // The starved point, where declaration position decides who loses
    // policer ties, so the transplant is not an identity map.
    let cfg = AggregateConfig::new(
        ClipId2::Lost,
        1_000_000,
        4,
        EfProfile::new(4_000_000, DEPTH_2MTU),
    );
    let members: Vec<Point> = (0..4)
        .map(|r| Point::Aggregate(cfg.clone().with_rotation(r)))
        .collect();
    let mut layers = Layers::default();
    let outcomes = run_points(&members, false, &mut layers);
    assert_eq!(layers.simulations, 1, "one class, one simulation");
    for (member, outcome) in members.iter().zip(&outcomes) {
        assert_eq!(*outcome, program_outcome(member));
    }
    assert_ne!(outcomes[0], outcomes[1]);
}

#[test]
fn recordings_cover_every_grid() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    for workload in [Workload::UdpPoliced, Workload::TcpClosedLoop] {
        let batches = workload.batches(0);
        let points: usize = batches.iter().map(|b| b.points.len()).sum();
        let expected = recorded::expected(&results, &batches).expect("recordings load");
        assert_eq!(expected.len(), points);
    }
}
