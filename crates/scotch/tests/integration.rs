//! Cross-crate integration tests: full simulations through the public API.

use scotch::app::ControllerMode;
use scotch::scenario::Scenario;
use scotch::ScotchConfig;
use scotch_sim::SimTime;
use scotch_switch::SwitchProfile;

#[test]
fn quiet_network_delivers_all_client_flows() {
    // 50 flows/s is well within the Pica8 OFA capacity: everything works
    // even without Scotch.
    let report = Scenario::single_switch(SwitchProfile::pica8_pronto_3780())
        .with_clients(50.0)
        .run(SimTime::from_secs(5), 1);
    assert!(report.client_flows() >= 240, "{}", report.summary());
    assert!(
        report.client_failure_fraction() < 0.02,
        "{}",
        report.summary()
    );
}

#[test]
fn ddos_breaks_baseline_single_switch() {
    // The paper's §3.2 finding: at high attack rates the client flows fail
    // because the OFA saturates, even though the data plane is idle.
    let report = Scenario::single_switch(SwitchProfile::pica8_pronto_3780())
        .with_clients(100.0)
        .with_attack(2_000.0)
        .run(SimTime::from_secs(5), 2);
    assert!(
        report.client_failure_fraction() > 0.5,
        "attack should break the baseline: {}",
        report.summary()
    );
    // And the bottleneck is the control plane, not the data plane.
    assert!(report.drops.ofa_overload > 0);
    assert_eq!(report.drops.dataplane, 0);
}

#[test]
fn open_vswitch_dut_survives_the_same_attack() {
    // Fig. 3's third curve: the software switch's agent absorbs the load.
    let report = Scenario::single_switch(SwitchProfile::open_vswitch())
        .with_clients(100.0)
        .with_attack(2_000.0)
        .run(SimTime::from_secs(5), 3);
    assert!(
        report.client_failure_fraction() < 0.05,
        "{}",
        report.summary()
    );
}

#[test]
fn scotch_overlay_protects_clients_under_ddos() {
    // The headline result: same attack, Scotch on -> clients survive.
    let report = Scenario::overlay_datacenter(4)
        .with_clients(100.0)
        .with_attack(2_000.0)
        .run(SimTime::from_secs(10), 4);
    assert!(report.app.activations >= 1, "{}", report.summary());
    // Steady state (post-activation, pre-cutoff): clients unharmed.
    assert!(
        report.client_failure_fraction_between(SimTime::from_secs(1), SimTime::from_secs(9)) < 0.02,
        "{}",
        report.summary()
    );
    // Including the activation transient, losses stay modest.
    assert!(
        report.client_failure_fraction() < 0.15,
        "{}",
        report.summary()
    );
    // The overlay carried the surge.
    assert!(report.app.overlay_admitted > 0, "{}", report.summary());
}

#[test]
fn scotch_withdraws_after_attack_stops() {
    let report = Scenario::overlay_datacenter(4)
        .with_clients(50.0)
        .with_attack_window(2_000.0, SimTime::from_secs(1), SimTime::from_secs(4))
        .run(SimTime::from_secs(12), 5);
    assert!(report.app.activations >= 1, "{}", report.summary());
    assert!(report.app.withdrawals >= 1, "{}", report.summary());
    // Clients keep working after withdrawal too.
    assert!(
        report.client_failure_fraction_between(SimTime::from_secs(7), SimTime::from_secs(11))
            < 0.05,
        "{}",
        report.summary()
    );
}

#[test]
fn elephants_migrate_to_physical_paths() {
    let report = Scenario::overlay_datacenter(4)
        .with_clients(50.0)
        .with_attack(2_000.0)
        .with_elephants(3, 1000.0, 8000, SimTime::from_secs(2))
        .run(SimTime::from_secs(12), 6);
    assert!(
        report.app.migrations >= 1,
        "elephants should migrate: {}",
        report.summary()
    );
    // Elephants complete (mostly) despite the attack.
    let eleph: Vec<_> = report.flows.iter().filter(|f| f.intended >= 8000).collect();
    assert_eq!(eleph.len(), 3);
    for e in eleph {
        assert!(
            e.delivered as f64 >= 0.9 * e.intended as f64,
            "elephant delivered only {}/{}",
            e.delivered,
            e.intended
        );
    }
}

#[test]
fn middlebox_policy_is_consistent_across_migration() {
    // Flows to server 0 must cross the stateful firewall on both overlay
    // and physical paths; migration must not bypass or break it.
    let report = Scenario::overlay_datacenter(4)
        .with_middlebox()
        .with_clients(50.0)
        .with_attack(2_000.0)
        .with_elephants(2, 800.0, 5000, SimTime::from_secs(2))
        .run(SimTime::from_secs(10), 7);
    assert!(report.app.migrations >= 1, "{}", report.summary());
    assert_eq!(
        report.middlebox_rejections,
        0,
        "no mid-flow packet may hit the firewall without state: {}",
        report.summary()
    );
    let eleph: Vec<_> = report.flows.iter().filter(|f| f.intended >= 5000).collect();
    for e in eleph {
        assert!(
            e.delivered as f64 >= 0.9 * e.intended as f64,
            "elephant through firewall delivered {}/{}",
            e.delivered,
            e.intended
        );
    }
}

#[test]
fn vswitch_failure_heals_via_heartbeats() {
    let report = Scenario::overlay_datacenter(3)
        .with_backups(1)
        .with_clients(100.0)
        .with_attack(2_000.0)
        .with_vswitch_failure(1, SimTime::from_secs(4))
        .run(SimTime::from_secs(12), 8);
    assert!(report.app.failovers >= 1, "{}", report.summary());
    // Flows arriving well after the failover must still succeed.
    let late: Vec<_> = report
        .flows
        .iter()
        .filter(|f| !f.is_attack && f.started_at > SimTime::from_secs(9))
        .collect();
    let late_fail = late.iter().filter(|f| !f.succeeded()).count();
    assert!(late.len() > 50);
    assert!(
        (late_fail as f64) < 0.1 * late.len() as f64,
        "late failures {late_fail}/{}: {}",
        late.len(),
        report.summary()
    );
}

#[test]
fn ingress_differentiation_protects_the_client_port() {
    use scotch_controller::flowdb::FlowPath;
    // §5.2: per-ingress-port queues give the client port its fair share of
    // the switch's rule budget R, so client flows reach the *physical*
    // network; a shared queue lets the flood starve them onto the overlay.
    let run = |differentiated: bool| {
        let config = ScotchConfig {
            ingress_differentiation: differentiated,
            ..Default::default()
        };
        Scenario::overlay_datacenter(4)
            .with_config(config)
            .with_clients(80.0)
            .with_attack(2_000.0)
            .run(SimTime::from_secs(10), 9)
    };
    let physical_fraction = |r: &scotch::Report| {
        let legit: Vec<_> = r.flows.iter().filter(|f| !f.is_attack).collect();
        let phys = legit
            .iter()
            .filter(|f| f.served_by == Some(FlowPath::Physical))
            .count();
        phys as f64 / legit.len().max(1) as f64
    };
    let with_diff = run(true);
    let without = run(false);
    // Clients survive either way (the overlay absorbs the surge)...
    let settled = |r: &scotch::Report| {
        r.client_failure_fraction_between(SimTime::from_secs(1), SimTime::from_secs(9))
    };
    assert!(settled(&with_diff) < 0.05, "{}", with_diff.summary());
    assert!(settled(&without) < 0.05, "{}", without.summary());
    // ...but only differentiation gives them fair physical access.
    let f_with = physical_fraction(&with_diff);
    let f_without = physical_fraction(&without);
    assert!(
        f_with > 0.6,
        "with differentiation most client flows should be physical, got {f_with:.2}"
    );
    assert!(
        f_without < f_with / 2.0,
        "shared queue should starve clients off the physical net: {f_without:.2} vs {f_with:.2}"
    );
}

#[test]
fn determinism_same_seed_same_report() {
    let run = || {
        Scenario::overlay_datacenter(3)
            .with_clients(100.0)
            .with_attack(1_500.0)
            .run(SimTime::from_secs(5), 1234)
    };
    let a = run();
    let b = run();
    assert_eq!(a.flows.len(), b.flows.len());
    assert_eq!(a.client_failure_fraction(), b.client_failure_fraction());
    assert_eq!(a.app, b.app);
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        Scenario::overlay_datacenter(3)
            .with_clients(100.0)
            .with_attack(1_500.0)
            .run(SimTime::from_secs(3), seed)
    };
    let a = run(1);
    let b = run(2);
    // Spoofed addresses differ, so flow keys differ.
    assert_ne!(
        a.flows.iter().map(|f| f.key).collect::<Vec<_>>(),
        b.flows.iter().map(|f| f.key).collect::<Vec<_>>()
    );
}

#[test]
fn baseline_mode_in_datacenter_topology_still_fails() {
    // Same topology, Scotch off: the attack wins. This is the paper's
    // with/without comparison on identical hardware.
    let report = Scenario::overlay_datacenter(4)
        .with_mode(ControllerMode::Baseline)
        .with_clients(100.0)
        .with_attack(2_000.0)
        .run(SimTime::from_secs(10), 10);
    assert!(
        report.client_failure_fraction() > 0.5,
        "{}",
        report.summary()
    );
}

#[test]
fn flash_crowd_triggers_and_releases_overlay() {
    use scotch_workload::flash::RateProfile;
    let profile = RateProfile {
        base: 20.0,
        peak: 1_500.0,
        surge_start: SimTime::from_secs(2),
        peak_start: SimTime::from_secs(3),
        peak_end: SimTime::from_secs(6),
        surge_end: SimTime::from_secs(7),
    };
    let report = Scenario::overlay_datacenter(4)
        .with_flash_crowd(profile)
        .run(SimTime::from_secs(15), 11);
    assert!(report.app.activations >= 1, "{}", report.summary());
    assert!(report.app.withdrawals >= 1, "{}", report.summary());
    // A flash crowd is legitimate traffic: it must be served, not dropped
    // (a small transient loss during the activation ramp is expected —
    // the monitor's 1 s window lags the surge).
    assert!(
        report.client_failure_fraction() < 0.10,
        "{}",
        report.summary()
    );
}

#[test]
fn elastic_scale_out_absorbs_growing_attack() {
    // §5.6: "We may also need to add new vSwitches to increase the Scotch
    // overlay capacity." One mesh vSwitch (~10k Packet-In/s) cannot absorb
    // a 15k flows/s flood; joining a second at t=4s fixes it live.
    let run = |join: bool| {
        let s = Scenario::overlay_datacenter(1)
            .with_backups(1)
            .with_clients(100.0)
            .with_attack(15_000.0);
        let s = if join {
            s.with_vswitch_join(0, SimTime::from_secs(4))
        } else {
            s
        };
        s.run(SimTime::from_secs(8), 13)
    };
    let without = run(false);
    let with_join = run(true);
    let late = |r: &scotch::Report| {
        r.client_failure_fraction_between(SimTime::from_secs(5), SimTime::from_secs(7))
    };
    // Undersized overlay: a meaningful share of clients still fail late.
    assert!(
        late(&without) > 0.2,
        "one vSwitch should be overloaded: {:.3}",
        late(&without)
    );
    // After the join, client failure collapses.
    assert!(
        late(&with_join) < late(&without) / 3.0,
        "join should fix it: {:.3} vs {:.3}",
        late(&with_join),
        late(&without)
    );
}

#[test]
fn multirack_scotch_protects_cross_fabric_traffic() {
    // Leaf-spine: attacker + client in rack 0, victim server in rack 2;
    // attack flows cross tor0 -> spine -> tor2. Scotch activates at the
    // congested ingress ToR and the overlay carries the surge.
    let report = Scenario::multirack(3, 2)
        .with_clients(100.0)
        .with_attack(2_000.0)
        .run(SimTime::from_secs(10), 21);
    assert!(report.app.activations >= 1, "{}", report.summary());
    assert!(
        report.client_failure_fraction_between(SimTime::from_secs(1), SimTime::from_secs(9)) < 0.05,
        "{}",
        report.summary()
    );
    // The overlay carries flows across racks (mesh vSwitches in several
    // racks see traffic).
    let active_mesh = report
        .vswitches
        .iter()
        .filter(|v| v.name.starts_with("mesh") && v.dataplane.forwarded > 0)
        .count();
    assert!(active_mesh >= 3, "overlay should span racks: {active_mesh}");
}

#[test]
fn multirack_baseline_collapses() {
    let report = Scenario::multirack(3, 2)
        .with_mode(ControllerMode::Baseline)
        .with_clients(100.0)
        .with_attack(2_000.0)
        .run(SimTime::from_secs(8), 21);
    assert!(
        report.client_failure_fraction() > 0.5,
        "{}",
        report.summary()
    );
}

#[test]
fn overlay_forwarding_avoids_destination_rule_hotspot() {
    // §1: "even if we spread the new flows arriving at the first hop
    // hardware switch to multiple vswitches, the switch close to the
    // destination will still be overloaded since rules have to be inserted
    // there for each new flow. To alleviate this problem, Scotch forwards
    // new flows on the overlay so that new rules are initially only
    // inserted at the vSwitches."
    //
    // The strawman ("spread Packet-Ins but admit everything physically")
    // is Scotch with an effectively infinite overlay threshold: flows
    // queue for physical admission at rate R instead of riding the
    // overlay.
    // The paper's §4 strawman (a dedicated data-plane port to the
    // controller) has no ingress fairness either, so differentiation is
    // off.
    let strawman_cfg = ScotchConfig {
        overlay_threshold: 1_000_000,
        drop_threshold: 2_000_000,
        ingress_differentiation: false,
        ..Default::default()
    };
    let strawman = Scenario::multirack(2, 2)
        .with_config(strawman_cfg)
        .with_clients(100.0)
        .with_attack(2_000.0)
        .run(SimTime::from_secs(8), 22);
    let scotch = Scenario::multirack(2, 2)
        .with_clients(100.0)
        .with_attack(2_000.0)
        .run(SimTime::from_secs(8), 22);

    // With overlay forwarding, hardware switches hold few rules (shared
    // default rules + the budgeted physical admissions); the strawman
    // pushes every admitted flow's rules into the fabric and still leaves
    // a huge backlog waiting.
    let late = |r: &scotch::Report| {
        r.client_failure_fraction_between(SimTime::from_secs(4), SimTime::from_secs(7))
    };
    assert!(late(&scotch) < 0.05, "scotch: {}", scotch.summary());
    assert!(
        late(&strawman) > 0.5,
        "physical-only admission must drown in the queue: {:.3} — {}",
        late(&strawman),
        strawman.summary()
    );
}

#[test]
fn scotch_tolerates_lossy_links() {
    // smoltcp-style fault injection: 0.5% random loss on every link. The
    // control-plane machinery (rule installs ride the lossless management
    // channel, as in the testbed) keeps working; only a loss-proportional
    // share of single-packet probes disappears.
    let report = Scenario::overlay_datacenter(4)
        .with_clients(100.0)
        .with_attack(1_500.0)
        .with_link_loss(0.005)
        .run(SimTime::from_secs(8), 31);
    assert!(report.drops.link_faults > 0, "faults must fire");
    let steady =
        report.client_failure_fraction_between(SimTime::from_secs(1), SimTime::from_secs(7));
    // A probe crosses at most ~8 links on the overlay path; failure stays
    // within a small multiple of the per-link loss.
    assert!(
        steady < 0.05,
        "lossy-link failure {steady}: {}",
        report.summary()
    );
}

#[test]
fn recovered_vswitch_rejoins_as_backup() {
    // §5.6: fail a vSwitch (no backup available -> its bucket goes dead),
    // recover it later, then fail another one: the recovered node must be
    // promoted into the dead bucket.
    let mut sim = Scenario::overlay_datacenter(3)
        .with_clients(100.0)
        .with_attack(2_000.0)
        .build(33);
    let mesh = sim.app.overlay.mesh.clone();
    sim.fail_vswitch_at(mesh[0], SimTime::from_secs(2));
    sim.recover_vswitch_at(mesh[0], SimTime::from_secs(5));
    sim.fail_vswitch_at(mesh[1], SimTime::from_secs(7));
    let report = sim.run(SimTime::from_secs(12));
    assert!(report.app.failovers >= 2, "{}", report.summary());
    // Clients still fine at the end.
    let late =
        report.client_failure_fraction_between(SimTime::from_secs(9), SimTime::from_secs(11));
    assert!(late < 0.1, "late failure {late}: {}", report.summary());
}

#[test]
fn pcap_capture_records_delivered_traffic() {
    use scotch::pcap::PCAP_MAGIC;
    let mut sim = Scenario::overlay_datacenter(2)
        .with_clients(100.0)
        .build(55);
    let server = sim
        .topo
        .nodes_of_kind(scotch_net::NodeKind::Host)
        .into_iter()
        .find(|n| sim.topo.name(*n) == "server0")
        .unwrap();
    sim.capture_at(server);
    let report = sim.run(SimTime::from_secs(3));
    let cap = &report.captures[&server];
    // Every delivered packet to server0 was captured.
    let delivered: u64 = report
        .flows
        .iter()
        .filter(|f| f.key.dst == scotch::scenario::Scenario::server_ip(0))
        .map(|f| f.delivered as u64)
        .sum();
    assert!(delivered > 100);
    assert_eq!(cap.records(), delivered);
    assert_eq!(
        u32::from_le_bytes(cap.bytes()[0..4].try_into().unwrap()),
        PCAP_MAGIC
    );
    // Pin the capture bytes: the frame encoder must not drift.
    assert_eq!(
        fnv1a(cap.bytes()),
        0x49c2_c890_4921_fbc9,
        "server0 capture bytes changed"
    );

    // A mesh vSwitch under a flood sees the overlay's MPLS-labelled
    // tunnel frames; pin those bytes too.
    let mut sim = Scenario::overlay_datacenter(2)
        .with_clients(100.0)
        .with_attack(2_000.0)
        .build(55);
    let vswitch = sim.app.overlay.mesh[0];
    sim.capture_at(vswitch);
    let report = sim.run(SimTime::from_secs(3));
    let cap = &report.captures[&vswitch];
    let mpls_frames = pcap_frames(cap.bytes())
        .filter(|f| f[12..14] == 0x8847u16.to_be_bytes())
        .count();
    assert!(mpls_frames > 100, "{mpls_frames} MPLS frames");
    assert_eq!(
        fnv1a(cap.bytes()),
        0x59f9_5aa9_3319_55d7,
        "mesh vSwitch capture bytes changed"
    );
}

/// FNV-1a over a byte string (the hash the report uses for captures).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The captured frames of a libpcap byte stream, in record order.
fn pcap_frames(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = &bytes[24..];
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let incl = u32::from_le_bytes(rest[8..12].try_into().unwrap()) as usize;
        let frame = &rest[16..16 + incl];
        rest = &rest[16 + incl..];
        Some(frame)
    })
}

#[test]
fn undersized_controller_gate_drops_messages() {
    // §2's assumption quantified (A5 in the harness): cap the controller
    // at 1k Packet-In/s under an 8k flood and it becomes the bottleneck.
    let choked = Scenario::overlay_datacenter(4)
        .with_config(ScotchConfig {
            controller_capacity: Some(1_000.0),
            ..Default::default()
        })
        .with_clients(100.0)
        .with_attack(8_000.0)
        .run(SimTime::from_secs(5), 17);
    assert!(choked.controller_dropped > 0, "{}", choked.summary());
    assert!(
        choked.client_failure_fraction_between(SimTime::from_secs(1), SimTime::from_secs(4)) > 0.3,
        "{}",
        choked.summary()
    );
    // The default (unbounded, per the paper) never drops.
    let ample = Scenario::overlay_datacenter(4)
        .with_clients(100.0)
        .with_attack(8_000.0)
        .run(SimTime::from_secs(5), 17);
    assert_eq!(ample.controller_dropped, 0);
    assert!(
        ample.client_failure_fraction_between(SimTime::from_secs(1), SimTime::from_secs(4)) < 0.05,
        "{}",
        ample.summary()
    );
}

#[test]
fn customer_blocks_fairness_isolates_a_spoofing_flood() {
    // §5.2's customer grouping, done right: known customer blocks get
    // their own queues; a whole-address-space spoofing flood lands in the
    // shared default queue and can only starve its own share. This works
    // even though the flood's random sources touch every /8 (which is why
    // plain SourcePrefix grouping would degenerate here).
    use scotch::config::FairnessPolicy;
    use scotch_controller::flowdb::FlowPath;
    use scotch_net::IpAddr;

    let customers = FairnessPolicy::Customers(vec![(IpAddr::new(10, 0, 0, 0), 8)]);
    let report = Scenario::overlay_datacenter(4)
        .with_config(ScotchConfig {
            fairness: customers,
            ..Default::default()
        })
        .with_clients(80.0) // probes spoof within 10/8
        .with_attack(2_000.0)
        .run(SimTime::from_secs(8), 19);

    let settled =
        report.client_failure_fraction_between(SimTime::from_secs(1), SimTime::from_secs(7));
    assert!(settled < 0.05, "{}", report.summary());
    let legit: Vec<_> = report.flows.iter().filter(|f| !f.is_attack).collect();
    let phys = legit
        .iter()
        .filter(|f| f.served_by == Some(FlowPath::Physical))
        .count() as f64
        / legit.len().max(1) as f64;
    assert!(
        phys > 0.6,
        "the customer's block must keep its physical share: {phys:.2}"
    );
}

#[test]
fn tcam_clear_preserves_middlebox_policy() {
    // TCAM-triggered activation clears the switch's tables to make room
    // for the overlay defaults — the shared policy green rules must be
    // re-installed or every overlay-routed policy flow would bypass (and
    // be rejected by) the stateful firewall.
    let mut profile = scotch_switch::SwitchProfile::pica8_pronto_3780();
    profile.flow_table_capacity = 300;
    let report = Scenario::overlay_datacenter(4)
        .with_profile(profile)
        .with_middlebox()
        .with_config(ScotchConfig {
            exact_match_rules: true,
            ..Default::default()
        })
        .with_client_flows(
            80.0,
            scotch_workload::clients::FlowSize::Fixed(5),
            scotch_sim::SimDuration::from_millis(50),
        )
        .run(SimTime::from_secs(10), 23);
    assert!(report.app.activations >= 1, "{}", report.summary());
    assert_eq!(
        report.middlebox_rejections,
        0,
        "policy must hold across the table clear: {}",
        report.summary()
    );
    let late = report
        .flows
        .iter()
        .filter(|f| !f.is_attack && f.started_at >= SimTime::from_secs(5))
        .collect::<Vec<_>>();
    let completed = late.iter().filter(|f| f.completed()).count();
    assert!(
        completed as f64 > 0.9 * late.len() as f64,
        "flows must complete after the clear: {completed}/{}",
        late.len()
    );
}

#[test]
#[should_panic(expected = "has no uplink port")]
fn host_without_uplink_is_a_scenario_error() {
    // A registered host with no attached link used to silently fall back to
    // PortId(0); it is now rejected up front as a scenario-construction bug.
    use scotch::app::ScotchApp;
    use scotch::{OverlayManager, Simulation};
    use scotch_controller::AddressBook;
    use scotch_net::{IpAddr, NodeKind, Topology};

    let mut topo = Topology::new();
    let stranded = topo.add_node(NodeKind::Host, "stranded");
    let app = ScotchApp::new(
        ControllerMode::Scotch,
        ScotchConfig::default(),
        AddressBook::default(),
        OverlayManager::default(),
    );
    let mut sim = Simulation::new(topo, app);
    sim.add_host(stranded, IpAddr::new(10, 0, 0, 1));
    sim.run(SimTime::from_secs(1));
}
