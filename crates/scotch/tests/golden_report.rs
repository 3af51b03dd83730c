//! Golden-report regression tests.
//!
//! The engine's contract is that a `(scenario, seed)` pair reproduces a
//! bit-identical report. These tests pin that contract across refactors of
//! the hot path (event queue, packet layout, table internals): each runs
//! one fixed scenario and compares the canonical-JSON rendering of the
//! full report byte-for-byte against a committed fixture.
//!
//! Regenerate fixtures (after an *intended* behaviour change only) with:
//!
//! ```text
//! SCOTCH_UPDATE_GOLDEN=1 cargo test -p scotch --test golden_report
//! ```

use scotch::scenario::Scenario;
use scotch_sim::fault::FaultPlan;
use scotch_sim::{SimDuration, SimTime};
use scotch_switch::SwitchProfile;

/// Matches the bench crate's `DEFAULT_SEED`.
const SEED: u64 = 20141202;

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Compare `got` against the committed fixture, or rewrite the fixture when
/// `SCOTCH_UPDATE_GOLDEN` is set. On mismatch the actual bytes are saved
/// next to the fixture as `<name>.actual.json` for diffing.
fn check_golden(name: &str, got: &str) {
    let path = fixture_path(name);
    if std::env::var_os("SCOTCH_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             run `SCOTCH_UPDATE_GOLDEN=1 cargo test -p scotch --test golden_report`",
            path.display()
        )
    });
    if want != got {
        let actual = path.with_extension("actual.json");
        std::fs::write(&actual, got).unwrap();
        let line = want
            .lines()
            .zip(got.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| want.lines().count().min(got.lines().count()) + 1);
        panic!(
            "{name}: report is not byte-identical to fixture {} \
             (first difference at line {line}; actual saved to {})",
            path.display(),
            actual.display()
        );
    }
}

/// Fig. 3 point: one hardware switch under a spoofed-source flood plus
/// probe clients, baseline controller.
#[test]
fn fig3_single_switch_report_is_bit_identical() {
    let report = Scenario::single_switch(SwitchProfile::pica8_pronto_3780())
        .with_clients(100.0)
        .with_attack(1000.0)
        .run(SimTime::from_secs(2), SEED);
    check_golden("fig3_single_switch", &report.canonical_json());
}

/// Scotch-eval point (Fig. 11/13 regime): the overlay datacenter under
/// flood, Scotch controller with activation/withdrawal running.
#[test]
fn scotch_eval_overlay_report_is_bit_identical() {
    let report = Scenario::overlay_datacenter(2)
        .with_clients(80.0)
        .with_attack(1000.0)
        .run(SimTime::from_secs(2), SEED);
    check_golden("scotch_eval_overlay", &report.canonical_json());
}

/// Multi-rack fabric with per-rack clients, a 3-replica controller cluster,
/// the pinned fault plan and a scripted mid-run failover of replica 0:
/// pins the multirack topology, cluster mastership and chaos paths at once.
#[test]
fn multirack_cluster_chaos_report_is_bit_identical() {
    let plan = FaultPlan::parse(include_str!("golden/chaos_pinned.plan")).expect("plan parses");
    let report = Scenario::multirack(4, 1)
        .with_interrack_propagation(SimDuration::from_micros(200))
        .with_rack_clients(150.0)
        .with_clients(80.0)
        .with_attack(400.0)
        .with_controllers(3)
        .with_sync_latency(SimDuration::from_micros(500))
        .with_fault_plan(plan)
        .with_failover_at(0, SimTime::from_secs_f64(0.5))
        .run(SimTime::from_secs(2), SEED);
    check_golden("multirack_cluster_chaos", &report.canonical_json());
}
