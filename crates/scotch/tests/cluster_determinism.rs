//! Controller-cluster determinism: a replicated control plane must not
//! cost the engine its core contract. Failover handoffs are attributed in
//! the journey stream, and a cluster of size 1 degenerates byte-for-byte
//! to the single-controller engine on the golden scenario shapes.

use scotch::scenario::Scenario;
use scotch_sim::fault::{FaultKind, FaultPlan};
use scotch_sim::journey::JourneyPoint;
use scotch_sim::{SimDuration, SimTime};
use scotch_switch::SwitchProfile;

#[test]
fn failover_marks_handoffs_and_replicas_in_journeys() {
    // A deliberately slow coordination channel: the replica crash lands
    // mid-partition, so mastership stays in flux for tens of
    // milliseconds and in-flight Packet-Ins park (and journey-annotate)
    // across the handoff.
    let mut plan = FaultPlan::new();
    plan.push(
        SimTime::from_millis(100),
        FaultKind::CtrlPartition {
            duration: SimDuration::from_millis(50),
        },
    );
    plan.push(
        // Replica 1 masters the busy ingress switches in this shape —
        // crashing it is what actually strands Packet-Ins mid-flight.
        SimTime::from_millis(110),
        FaultKind::ReplicaCrash {
            target: 1,
            restart_after: None,
        },
    );
    let report = Scenario::multirack(4, 1)
        .with_interrack_propagation(SimDuration::from_micros(200))
        .with_rack_clients(150.0)
        .with_attack(400.0)
        .with_clients(80.0)
        .with_controllers(3)
        .with_sync_latency(SimDuration::from_millis(25))
        .with_fault_plan(plan)
        .with_journey_rate(1.0)
        .run(SimTime::from_millis(400), 20141202);
    let views = report.journey_views();
    assert!(!views.is_empty());
    // Every settled control decision is attributed: `CtrlRx` marks carry
    // `replica + 1`, and at least one mid-flight flow crosses a handoff.
    let attributed = views
        .iter()
        .flat_map(|v| v.marks.iter())
        .filter(|m| m.point == JourneyPoint::CtrlRx && m.info > 0)
        .count();
    assert!(attributed > 0, "no journey attributed to a replica");
    let handoffs: Vec<u64> = views
        .iter()
        .flat_map(|v| v.marks.iter())
        .filter(|m| m.point == JourneyPoint::Handoff)
        .map(|m| m.info)
        .collect();
    assert!(
        !handoffs.is_empty(),
        "no journey recorded a mastership handoff annotation"
    );
    for info in handoffs {
        let (from, to) = (info >> 32, info & 0xffff_ffff);
        assert_ne!(from, to, "handoff annotation must change the master");
        assert!(from < 3 && to < 3, "replica ids out of range: {from}->{to}");
    }
}

/// A cluster of size 1 is the single-controller engine, byte-for-byte:
/// same canonical report, same trace, on the golden scenario shapes.
#[test]
fn single_replica_cluster_degenerates_to_the_engine() {
    let seed = 20141202;
    type Shape = (&'static str, Box<dyn Fn() -> Scenario>, SimTime);
    let shapes: Vec<Shape> = vec![
        (
            "fig3_single_switch",
            Box::new(|| {
                Scenario::single_switch(SwitchProfile::pica8_pronto_3780())
                    .with_clients(100.0)
                    .with_attack(1000.0)
            }),
            SimTime::from_secs(2),
        ),
        (
            "scotch_eval_overlay",
            Box::new(|| {
                Scenario::overlay_datacenter(2)
                    .with_clients(80.0)
                    .with_attack(1000.0)
            }),
            SimTime::from_secs(2),
        ),
        (
            "multirack_parallel",
            Box::new(|| {
                Scenario::multirack(4, 1)
                    .with_interrack_propagation(SimDuration::from_micros(200))
                    .with_rack_clients(150.0)
                    .with_clients(80.0)
                    .with_attack(400.0)
            }),
            SimTime::from_millis(400),
        ),
    ];
    for (name, make, until) in shapes {
        let plain = make().run(until, seed);
        let one = make().with_controllers(1).run(until, seed);
        assert_eq!(
            one.canonical_json(),
            plain.canonical_json(),
            "{name}: --controllers 1 changed the canonical report"
        );
        assert_eq!(
            one.trace_jsonl(),
            plain.trace_jsonl(),
            "{name}: --controllers 1 changed the trace"
        );
        assert!(
            one.metrics.get("ctrl.cluster.replicas").is_none(),
            "{name}: a size-1 cluster must not publish cluster metrics"
        );
    }
}
