//! Journey-stream invariants: every reconstructed timeline must telescope
//! exactly to its end-to-end latency, and no journey may leak an open
//! span — even under the pinned chaos plan.

use proptest::prelude::*;
use scotch::scenario::Scenario;
use scotch_sim::fault::FaultPlan;
use scotch_sim::journey::{JourneyConfig, JourneyPoint, Span};
use scotch_sim::{SimDuration, SimTime};

fn overlay_scenario() -> Scenario {
    Scenario::overlay_datacenter(4)
        .with_attack(800.0)
        .with_clients(100.0)
        .with_journey_rate(0.25)
}

#[test]
fn segments_telescope_exactly_to_setup_latency() {
    let report = overlay_scenario().run(SimTime::from_secs(2), 42);
    let views = report.journey_views();
    assert!(!views.is_empty());
    let mut delivered = 0usize;
    for view in &views {
        let segments = view.segments();
        let sum: SimDuration = segments
            .iter()
            .map(Span::duration)
            .fold(SimDuration::ZERO, |acc, d| acc + d);
        assert_eq!(
            sum,
            view.total(),
            "journey {:#x}: stage spans do not telescope to the total",
            view.id
        );
        // Spans must partition the timeline: each closes where the next
        // opens, starting at the first mark.
        let mut cursor = view.start();
        for span in &segments {
            assert_eq!(span.open, cursor, "journey {:#x}: gap in spans", view.id);
            cursor = span.close;
        }
        if view.is_delivered() {
            delivered += 1;
            assert!(
                !segments.is_empty(),
                "delivered journey {:#x} has no spans",
                view.id
            );
        }
    }
    assert!(delivered > 0, "no delivered journeys to check");
}

#[test]
fn every_journey_opens_with_emit_and_marks_are_canonical() {
    let report = overlay_scenario().run(SimTime::from_secs(2), 11);
    for view in report.journey_views() {
        assert_eq!(
            view.marks[0].point,
            JourneyPoint::Emit,
            "journey {:#x} does not open with an emit mark",
            view.id
        );
        for pair in view.marks.windows(2) {
            assert!(
                (pair[0].at, pair[0].point as u8) <= (pair[1].at, pair[1].point as u8),
                "journey {:#x}: marks out of canonical order",
                view.id
            );
        }
    }
    // The canonical stream is a pure function of (scenario, seed, rate).
    let replay = overlay_scenario().run(SimTime::from_secs(2), 11);
    assert_eq!(report.journeys_jsonl(), replay.journeys_jsonl());
}

/// Shared postcondition: every journey is closed — it carries at least one
/// terminal mark (deliver, drop, or the horizon-synthesized cancel). A
/// journey may terminate more than once only when control-plane chaos
/// duplicated or delayed its Packet-In, and such journeys must carry the
/// inline fault annotation explaining the extra tail; unperturbed journeys
/// must end in exactly one terminal with nothing recorded after it.
fn assert_no_leaked_spans(report: &scotch::Report, label: &str) {
    let views = report.journey_views();
    assert!(!views.is_empty(), "{label}: no journeys traced");
    for view in &views {
        let terminals = view.marks.iter().filter(|m| m.point.is_terminal()).count();
        assert!(
            terminals >= 1,
            "{label}: journey {:#x} was opened but never closed",
            view.id
        );
        let perturbed = view.annotations().any(|m| m.point == JourneyPoint::Fault);
        if !perturbed {
            assert_eq!(
                terminals, 1,
                "{label}: unperturbed journey {:#x} has {terminals} terminal marks",
                view.id
            );
            let last = view.marks.last().unwrap();
            assert!(
                last.point.is_terminal(),
                "{label}: journey {:#x} records {:?} after its terminal mark",
                view.id,
                last.point
            );
        }
    }
}

fn pinned_plan() -> FaultPlan {
    FaultPlan::parse(include_str!("golden/chaos_pinned.plan")).expect("pinned chaos plan parses")
}

#[test]
fn pinned_chaos_plan_closes_every_journey() {
    let report = Scenario::overlay_datacenter(4)
        .with_attack(800.0)
        .with_clients(100.0)
        .with_journey_rate(0.25)
        .with_fault_plan(pinned_plan())
        .run(SimTime::from_secs(6), 42);
    assert_no_leaked_spans(&report, "pinned chaos");
    // The plan kills vSwitches and links while journeys are in flight, so
    // at least one traced journey should carry an inline fault annotation.
    let annotated = report
        .journey_views()
        .iter()
        .filter(|v| v.annotations().next().is_some())
        .count();
    assert!(annotated > 0, "chaos run produced no fault annotations");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 5, // each case is a full chaos simulation run
        .. ProptestConfig::default()
    })]

    /// Randomized span-hygiene property: under the pinned chaos plan, for
    /// arbitrary seeds and sampling rates, every opened journey is closed
    /// or cancelled — no leaked spans, ever.
    #[test]
    fn prop_chaos_never_leaks_spans(
        seed in 0u64..1_000_000,
        rate_steps in 1u32..16,
    ) {
        let rate = f64::from(rate_steps) / 16.0;
        let report = Scenario::overlay_datacenter(3)
            .with_attack(600.0)
            .with_clients(80.0)
            .with_journeys(JourneyConfig { rate, ..JourneyConfig::default() })
            .with_fault_plan(pinned_plan())
            .run(SimTime::from_secs(3), seed);
        let views = report.journey_views();
        prop_assert!(!views.is_empty(), "seed {seed} rate {rate}: nothing traced");
        for view in &views {
            let terminals = view.marks.iter().filter(|m| m.point.is_terminal()).count();
            prop_assert!(
                terminals >= 1,
                "seed {} rate {}: journey {:#x} was opened but never closed",
                seed, rate, view.id
            );
            if view.annotations().all(|m| m.point != JourneyPoint::Fault) {
                prop_assert_eq!(
                    terminals, 1,
                    "seed {} rate {}: unperturbed journey {:#x} has {} terminals",
                    seed, rate, view.id, terminals
                );
                prop_assert!(
                    view.marks.last().unwrap().point.is_terminal(),
                    "seed {} rate {}: journey {:#x} has marks after its terminal",
                    seed, rate, view.id
                );
            }
        }
    }
}
