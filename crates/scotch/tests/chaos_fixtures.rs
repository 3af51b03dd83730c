//! Replay every promoted chaos fixture (`scotch-cli chaos --promote`)
//! committed under `tests/fixtures/`. A fixture is a minimal failing plan
//! plus a comment header recording how to reproduce it; the regression
//! contract is that the replay still produces exactly the recorded
//! invariant violations, bit-identically. A fixture whose fault has been
//! mended records `violations: none`: its replay must stay clean.

use std::collections::BTreeSet;

use scotch::chaos;
use scotch::scenario::Scenario;
use scotch::{ChaosConfig, ScotchConfig};
use scotch_sim::fault::FaultPlan;
use scotch_sim::{SimDuration, SimTime};

/// A fixture's parsed comment header.
#[derive(Debug)]
struct Header {
    seed: u64,
    duration_s: f64,
    scenario: String,
    attack: Option<f64>,
    controllers: u32,
    sync_latency_us: Option<u64>,
    failover_bound_s: Option<f64>,
    max_undeliverable: u64,
    /// `None` when the header has no `violations:` line.
    violations: Option<BTreeSet<String>>,
}

fn parse_header(text: &str) -> Header {
    let mut h = Header {
        seed: 1,
        duration_s: 10.0,
        scenario: "datacenter".into(),
        attack: None,
        controllers: 1,
        sync_latency_us: None,
        failover_bound_s: None,
        max_undeliverable: 0,
        violations: None,
    };
    for line in text.lines().take_while(|l| l.starts_with('#')) {
        let line = line.trim_start_matches('#').trim();
        if let Some(rest) = line.strip_prefix("violations:") {
            h.violations = Some(
                rest.split_whitespace()
                    .filter(|&v| v != "none")
                    .map(String::from)
                    .collect(),
            );
        } else if let Some((k, v)) = line.split_once('=') {
            match k {
                "seed" => h.seed = v.parse().unwrap(),
                "duration_s" => h.duration_s = v.parse().unwrap(),
                "scenario" => h.scenario = v.into(),
                "attack" => h.attack = Some(v.parse().unwrap()),
                "controllers" => h.controllers = v.parse().unwrap(),
                "sync_latency_us" => h.sync_latency_us = Some(v.parse().unwrap()),
                "failover_bound_s" => h.failover_bound_s = Some(v.parse().unwrap()),
                "max_undeliverable" => h.max_undeliverable = v.parse().unwrap(),
                _ => {}
            }
        }
    }
    h
}

/// Rebuild the scenario a fixture was promoted from. Mirrors the CLI's
/// `build_scenario` for the shapes `--promote` records.
fn build(h: &Header) -> Scenario {
    let mut s = match h.scenario.as_str() {
        "single" => Scenario::single_switch(scotch_switch::SwitchProfile::pica8_pronto_3780()),
        "multirack" => Scenario::multirack(3, 1),
        _ => Scenario::overlay_datacenter(4).with_servers(2),
    };
    if let Some(rate) = h.attack {
        s = s.with_attack(rate);
    }
    s = s.with_clients(100.0);
    if h.controllers > 1 {
        s = s.with_controllers(h.controllers);
    }
    if let Some(us) = h.sync_latency_us {
        s = s.with_sync_latency(SimDuration::from_micros(us));
    }
    s
}

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn promoted_fixtures_still_reproduce_their_violations() {
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(fixture_dir())
        .expect("tests/fixtures/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "plan"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).unwrap();
        let h = parse_header(&text);
        let want = h.violations.clone().unwrap_or_else(|| {
            panic!(
                "{}: fixture header has no `violations:` line",
                path.display()
            )
        });
        let plan =
            FaultPlan::parse(&text).unwrap_or_else(|e| panic!("{}: bad plan: {e}", path.display()));
        let mut cfg = ChaosConfig::for_scotch(&ScotchConfig::default());
        if let Some(secs) = h.failover_bound_s {
            cfg.failover_bound = SimDuration::from_secs_f64(secs);
        }
        cfg.max_undeliverable = h.max_undeliverable;
        let horizon = SimTime::from_secs_f64(h.duration_s);
        let run = || chaos::run_plan(&|| build(&h), h.seed, horizon, &plan, &cfg);
        let outcome = run();
        let got: BTreeSet<String> = outcome
            .violations
            .iter()
            .map(|v| v.invariant.to_string())
            .collect();
        assert_eq!(
            got,
            want,
            "{}: replay produced different violations:\n{}",
            path.display(),
            chaos::render_violations(&outcome.violations)
        );
        // The replay itself must be deterministic.
        let again = run();
        assert_eq!(
            outcome.report.canonical_json(),
            again.report.canonical_json(),
            "{}: fixture replay is not byte-identical",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 1, "no fixtures found under tests/fixtures/");
}
