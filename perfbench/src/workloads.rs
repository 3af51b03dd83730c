//! The benchmark's workloads: what each one builds, how far it runs, and
//! what its output must look like.
//!
//! Every workload is open-loop Poisson traffic at the stated rates and runs
//! on the default sequential `Simulation::run`, in one thread.

use scotch::{Report, Scenario};
use scotch_sim::SimTime;
use scotch_switch::SwitchProfile;

/// A workload the benchmark can run: one scenario, built with
/// `Scenario::build_until` and run to `horizon` with `Simulation::run`.
pub struct Workload {
    pub name: &'static str,
    /// One line on why it is in the benchmark (`BENCHMARK.json`).
    pub why: &'static str,
    pub build: fn() -> Scenario,
    pub horizon: SimTime,
    /// A property of the paper's regime the report must show on any seed;
    /// returns what failed.
    pub shape: fn(&Report) -> Result<(), String>,
    /// FNV-1a of `Report::canonical_json()` at `scotch_bench::DEFAULT_SEED`.
    pub reference: u64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "ddos_punt",
        why: "Fig. 3 regime: one switch, baseline controller, 20k flows/s spoofed flood; \
              flow generation and the switch data path dominate, the controller path is small",
        build: ddos_punt,
        horizon: SimTime::from_secs(10),
        shape: |r| {
            check(r.drops.ofa_overload > 0, "the OFA drops no Packet-Ins")?;
            check(
                r.client_failure_fraction() > 0.5,
                "fewer than half the client flows fail under the flood",
            )
        },
        reference: 0x4f4a_2a47_8e6f_9a7c,
    },
    Workload {
        name: "overlay_flood",
        why: "Scotch overlay under an 8k flows/s flood: Packet-In decisions, FlowMod installs \
              and tunnel transit dominate, and per-flow state grows",
        build: overlay_flood,
        horizon: SimTime::from_secs(5),
        shape: |r| {
            check(
                r.app.overlay_admitted > 0,
                "no flow is admitted to the overlay",
            )?;
            let failed =
                r.client_failure_fraction_between(SimTime::from_secs(2), SimTime::from_secs(4));
            check(
                failed < 0.05,
                &format!(
                    "{:.1}% of client flows started in [2 s, 4 s) fail with Scotch on",
                    failed * 100.0
                ),
            )
        },
        reference: 0x9148_d179_d3a6_a503,
    },
];

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn ddos_punt() -> Scenario {
    Scenario::single_switch(SwitchProfile::pica8_pronto_3780())
        .with_clients(100.0)
        .with_attack(20_000.0)
}

fn overlay_flood() -> Scenario {
    Scenario::overlay_datacenter(4)
        .with_clients(100.0)
        .with_attack(8_000.0)
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
