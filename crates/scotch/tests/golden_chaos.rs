//! Golden chaos run: the committed pinned plan must replay bit-identically,
//! exercise every fault kind, and pass every invariant — plus regression
//! coverage for the invariant checker itself and for standby exhaustion.

use scotch::chaos;
use scotch::scenario::Scenario;
use scotch::{ChaosConfig, Report, ScotchConfig};
use scotch_sim::fault::{FaultPlan, FAULT_KIND_COUNT, FAULT_KIND_NAMES};
use scotch_sim::trace::TraceEvent;
use scotch_sim::{SimDuration, SimTime};

const PINNED_PLAN: &str = include_str!("golden/chaos_pinned.plan");
const SEED: u64 = 42;

fn golden_scenario() -> Scenario {
    // Mirrors `scotch-cli chaos --duration 10 --seed 42 --controllers 3
    // --sync-latency-us 500 --plan …` on the default datacenter scenario.
    // The cluster is what gives the replica_crash / ctrl_partition entries
    // of the pinned plan a live target.
    Scenario::overlay_datacenter(4)
        .with_servers(2)
        .with_clients(100.0)
        .with_controllers(3)
        .with_sync_latency(SimDuration::from_micros(500))
}

fn run_pinned() -> Report {
    let plan = FaultPlan::parse(PINNED_PLAN).expect("pinned plan parses");
    golden_scenario()
        .with_fault_plan(plan)
        .run(SimTime::from_secs(10), SEED)
}

#[test]
fn pinned_chaos_plan_replays_bit_identically() {
    let a = run_pinned();
    let b = run_pinned();
    assert_eq!(
        a.canonical_json(),
        b.canonical_json(),
        "chaos replay must be byte-identical"
    );
    assert_eq!(
        a.trace_jsonl(),
        b.trace_jsonl(),
        "chaos trace must be byte-identical"
    );
    assert_eq!(a.metrics, b.metrics, "chaos metrics must be identical");
}

#[test]
fn pinned_chaos_plan_exercises_every_fault_kind() {
    let report = run_pinned();
    assert_eq!(FAULT_KIND_NAMES.len(), FAULT_KIND_COUNT);
    for name in FAULT_KIND_NAMES {
        let n = report
            .metrics
            .get(&format!("chaos.injected.{name}"))
            .unwrap_or(0.0);
        assert!(n >= 1.0, "fault kind {name} never injected (got {n})");
    }
    assert_eq!(report.metrics.get("chaos.skipped"), Some(0.0));
}

/// The pinned plan's replica crashes actually migrate mastership: the run
/// records handoffs, conserves pending Packet-Ins across them (the metric
/// form of I5), and every handoff lands within the sync-delay bound (I6).
#[test]
fn pinned_chaos_plan_exercises_the_cluster() {
    let report = run_pinned();
    assert_eq!(report.metrics.get("ctrl.cluster.replicas"), Some(3.0));
    assert!(
        report.metrics.get("ctrl.cluster.handoffs").unwrap_or(0.0) >= 1.0,
        "replica crashes must trigger mastership handoffs"
    );
    assert_eq!(
        report.metrics.get("ctrl.cluster.handoff_exceeded"),
        Some(0.0),
        "I6: every handoff must finish within the sync-delay bound"
    );
    let enq = report
        .metrics
        .get("ctrl.cluster.pending_enq")
        .unwrap_or(0.0);
    let rel = report
        .metrics
        .get("ctrl.cluster.pending_rel")
        .unwrap_or(0.0);
    let held = report.metrics.get("ctrl.cluster.pending").unwrap_or(0.0);
    assert_eq!(enq, rel + held, "I5: parked Packet-Ins must be conserved");
    assert_eq!(report.metrics.get("ctrl.cluster.crashes"), Some(2.0));
    assert_eq!(report.metrics.get("ctrl.cluster.recoveries"), Some(1.0));
    assert_eq!(report.metrics.get("ctrl.cluster.partitions"), Some(1.0));
}

#[test]
fn pinned_chaos_plan_passes_all_invariants() {
    let plan = FaultPlan::parse(PINNED_PLAN).expect("pinned plan parses");
    let report = run_pinned();
    let cfg = ChaosConfig::for_scotch(&ScotchConfig::default());
    let violations = chaos::check(&report, &plan, &cfg);
    assert!(
        violations.is_empty(),
        "golden chaos run violated invariants:\n{}",
        chaos::render_violations(&violations)
    );
}

/// Regression: an attached but empty fault plan is a fault-free run and
/// must pass every invariant. The FlowMod and Packet-In ledgers count from
/// the moment a plan is attached, so the in-flight tally and the
/// `chaos.*` export must follow the same gate. A mismatch breaks I4's
/// FlowMod check at 2 s and its Packet-In check at 0.5 s.
#[test]
fn empty_fault_plan_passes_all_invariants() {
    let plan = FaultPlan::new();
    let cfg = ChaosConfig::for_scotch(&ScotchConfig::default());
    for until in [SimTime::from_millis(500), SimTime::from_secs(2)] {
        let outcome = chaos::run_plan(
            &|| {
                Scenario::overlay_datacenter(4)
                    .with_servers(2)
                    .with_clients(100.0)
            },
            1,
            until,
            &plan,
            &cfg,
        );
        assert!(
            outcome.violations.is_empty(),
            "empty plan violated invariants at {until:?}:\n{}",
            chaos::render_violations(&outcome.violations)
        );
        assert!(
            outcome
                .report
                .metrics
                .get("chaos.flowmod_add.sent")
                .unwrap_or(0.0)
                > 0.0,
            "the FlowMod ledger must be exported so the check is not vacuous"
        );
    }
}

/// Regression: a deliberately impossible failover bound must be *caught* —
/// the checker itself is under test here, not the simulator.
#[test]
fn zero_failover_bound_is_reported() {
    let plan = FaultPlan::parse(PINNED_PLAN).expect("pinned plan parses");
    let report = run_pinned();
    let cfg = ChaosConfig {
        failover_bound: SimDuration::ZERO,
        ..ChaosConfig::for_scotch(&ScotchConfig::default())
    };
    let violations = chaos::check(&report, &plan, &cfg);
    assert!(
        !violations.is_empty(),
        "failover bound 0 must produce violations"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == "I2-failover-bound"),
        "expected an I2 violation, got:\n{}",
        chaos::render_violations(&violations)
    );
    // The report carries enough trace context to debug from the artifact
    // alone.
    assert!(violations.iter().all(|v| !v.trace_window.is_empty()));
}

/// Regression for the per-flow setup-latency invariant (I7): an impossible
/// bound must be caught, with trace-window context, while the default
/// (unchecked) config stays clean on the same run.
#[test]
fn impossible_setup_bound_is_reported() {
    let plan = FaultPlan::parse(PINNED_PLAN).expect("pinned plan parses");
    let report = run_pinned();
    let cfg = ChaosConfig {
        setup_latency_bound: Some(SimDuration::from_nanos(1)),
        ..ChaosConfig::for_scotch(&ScotchConfig::default())
    };
    let violations = chaos::check(&report, &plan, &cfg);
    assert!(
        violations.iter().any(|v| v.invariant == "I7-setup-latency"),
        "expected I7 violations under a 1ns setup bound, got:\n{}",
        chaos::render_violations(&violations)
    );
    assert!(violations
        .iter()
        .filter(|v| v.invariant == "I7-setup-latency")
        .all(|v| !v.trace_window.is_empty()));
    // A generous bound on the same report is clean.
    let cfg = ChaosConfig {
        setup_latency_bound: Some(SimDuration::from_secs(60)),
        ..ChaosConfig::for_scotch(&ScotchConfig::default())
    };
    assert!(chaos::check(&report, &plan, &cfg)
        .iter()
        .all(|v| v.invariant != "I7-setup-latency"));
}

/// Satellite: crash more vSwitches than there are standbys. The mesh must
/// degrade to dropping — failovers still execute (with no replacement),
/// the run completes, and nothing panics or stalls.
#[test]
fn standby_exhaustion_degrades_to_dropping() {
    let mut plan = FaultPlan::new();
    // Three crashes against a 2-mesh with a single standby: the first
    // promotion drains the pool, the rest must come up empty.
    plan.push(
        SimTime::from_secs(1),
        scotch_sim::fault::FaultKind::VSwitchCrash {
            target: 0,
            restart_after: None,
        },
    );
    plan.push(
        SimTime::from_millis(1500),
        scotch_sim::fault::FaultKind::VSwitchCrash {
            target: 1,
            restart_after: None,
        },
    );
    plan.push(
        SimTime::from_secs(7),
        scotch_sim::fault::FaultKind::VSwitchCrash {
            target: 0,
            restart_after: None,
        },
    );
    let report = Scenario::overlay_datacenter(2)
        .with_backups(1)
        .with_clients(200.0)
        .with_fault_plan(plan)
        .run(SimTime::from_secs(20), 7);

    let failovers: Vec<(u32, u32)> = report
        .trace
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::FailoverExecuted { dead, replacement } => Some((dead, replacement)),
            _ => None,
        })
        .collect();
    assert!(
        failovers.len() >= 2,
        "expected at least two failovers, got {failovers:?}"
    );
    assert!(
        failovers.iter().any(|(_, r)| *r == u32::MAX),
        "expected an exhausted-pool failover (replacement=MAX), got {failovers:?}"
    );
    assert!(
        failovers.iter().any(|(_, r)| *r != u32::MAX),
        "expected the lone standby to be promoted first, got {failovers:?}"
    );
    // All three injections found a live target.
    assert_eq!(
        report.metrics.get("chaos.injected.vswitch_crash"),
        Some(3.0)
    );
    // With the whole mesh dead the overlay degrades to dropping rather
    // than wedging: packets for unrouteable flows are counted as drops and
    // late client flows fail, while the run still reaches the horizon.
    let no_route = report.metrics.get("drops.no_route").unwrap_or(0.0);
    assert!(
        no_route > 0.0,
        "expected no-route drops after mesh exhaustion"
    );
    let late_failure =
        report.client_failure_fraction_between(SimTime::from_secs(12), SimTime::from_secs(19));
    assert!(
        late_failure > 0.25,
        "expected degraded late-flow delivery, got failure fraction {late_failure}"
    );
}
