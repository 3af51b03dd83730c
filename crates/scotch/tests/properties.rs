//! Cross-crate property-based tests: invariants of the full simulation and
//! of the composition of its parts.

use proptest::prelude::*;
use scotch::scenario::Scenario;
use scotch_sim::SimTime;
use scotch_switch::SwitchProfile;

/// Short, cheap simulation runs for property testing.
fn short_run(attack: f64, clients: f64, n_mesh: usize, seed: u64) -> scotch::Report {
    Scenario::overlay_datacenter(n_mesh)
        .with_clients(clients)
        .with_attack(attack)
        .run(SimTime::from_secs(3), seed)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case is a full simulation
        .. ProptestConfig::default()
    })]

    /// Conservation: no flow delivers more packets than were emitted, and
    /// emissions never exceed the intended flow size.
    #[test]
    fn prop_packet_conservation(
        attack in 200.0f64..3000.0,
        clients in 20.0f64..150.0,
        seed in 0u64..1000,
    ) {
        let report = short_run(attack, clients, 3, seed);
        for f in &report.flows {
            prop_assert!(f.emitted <= f.intended, "{} emitted>intended", f.key);
            prop_assert!(
                f.delivered <= f.emitted,
                "{} delivered {} > emitted {}",
                f.key, f.delivered, f.emitted
            );
        }
    }

    /// Causality: deliveries never precede flow start.
    #[test]
    fn prop_delivery_causality(seed in 0u64..1000) {
        let report = short_run(1000.0, 50.0, 3, seed);
        for f in &report.flows {
            if let Some(first) = f.first_delivered() {
                prop_assert!(first >= f.started_at);
            }
            if let (Some(first), Some(last)) = (f.first_delivered(), f.last_delivered()) {
                prop_assert!(last >= first);
            }
        }
    }

    /// Accounting: controller admission counters cover every flow outcome
    /// (each flow is admitted at most once; dropped + admitted ≤ flows).
    #[test]
    fn prop_admission_accounting(seed in 0u64..1000) {
        let report = short_run(1500.0, 60.0, 4, seed);
        let admitted = report.app.physical_admitted + report.app.overlay_admitted;
        let handled = admitted + report.app.dropped + report.app.unroutable
            + report.app.overlay_undeliverable;
        // Flows can also be lost before the controller sees them (OFA
        // drops) or still be pending at the end, so `handled` is a lower
        // bound on flow count, never more than flows + duplicates.
        prop_assert!(
            handled <= report.flows.len() as u64 + report.app.duplicate_packet_ins,
            "handled {handled} flows {}",
            report.flows.len()
        );
    }

    /// Determinism across the whole parameter space.
    #[test]
    fn prop_determinism(
        attack in 200.0f64..2500.0,
        n_mesh in 1usize..6,
        seed in 0u64..50,
    ) {
        let a = short_run(attack, 40.0, n_mesh, seed);
        let b = short_run(attack, 40.0, n_mesh, seed);
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(a.app, b.app);
        prop_assert_eq!(a.flows.len(), b.flows.len());
    }

    /// The data plane is never the bottleneck in control-plane attacks
    /// (the paper's core observation): hardware switch interaction drops
    /// stay zero because the controller keeps inserts below the knee.
    #[test]
    fn prop_no_dataplane_collapse_under_scotch(
        attack in 500.0f64..3000.0,
        seed in 0u64..200,
    ) {
        let report = short_run(attack, 50.0, 4, seed);
        for s in &report.switches {
            prop_assert_eq!(
                s.dataplane.dropped_interaction, 0,
                "budgeted inserts must not trip the Fig. 10 knee"
            );
        }
    }

    /// Monotone overlay benefit: with enough vSwitches, the steady-state
    /// client failure under attack is always small.
    #[test]
    fn prop_overlay_protects(seed in 0u64..100) {
        let report = Scenario::overlay_datacenter(4)
            .with_clients(50.0)
            .with_attack(2000.0)
            .run(SimTime::from_secs(5), seed);
        let steady = report.client_failure_fraction_between(
            SimTime::from_secs(1),
            SimTime::from_secs(4),
        );
        prop_assert!(steady < 0.05, "steady failure {steady}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Fig. 3 monotonicity: on the baseline single switch, client failure
    /// is (weakly) increasing in attack rate.
    #[test]
    fn prop_baseline_failure_monotone_in_attack(seed in 0u64..100) {
        let run = |attack: f64| {
            Scenario::single_switch(SwitchProfile::pica8_pronto_3780())
                .with_clients(100.0)
                .with_attack(attack)
                .run(SimTime::from_secs(4), seed)
                .client_failure_fraction()
        };
        let low = run(150.0);
        let high = run(3000.0);
        // Allow a little sampling noise at the low end.
        prop_assert!(high + 0.05 >= low, "low={low} high={high}");
        prop_assert!(high > 0.5, "high attack must hurt: {high}");
    }

    /// Device ordering from Fig. 3 holds for any seed: OVS < HP < Pica8
    /// failure under identical load.
    #[test]
    fn prop_device_ordering(seed in 0u64..100) {
        let run = |profile: SwitchProfile| {
            Scenario::single_switch(profile)
                .with_clients(100.0)
                .with_attack(1500.0)
                .run(SimTime::from_secs(4), seed)
                .client_failure_fraction()
        };
        let pica = run(SwitchProfile::pica8_pronto_3780());
        let hp = run(SwitchProfile::hp_procurve_6600());
        let ovs = run(SwitchProfile::open_vswitch());
        prop_assert!(ovs <= hp + 0.02, "ovs={ovs} hp={hp}");
        prop_assert!(hp < pica, "hp={hp} pica={pica}");
    }
}
