#![warn(missing_docs)]

//! # scotch
//!
//! A full reproduction of **"Scotch: Elastically Scaling up SDN
//! Control-Plane using vSwitch based Overlay"** (Wang, Guo, Hao, Lakshman,
//! Chen — CoNEXT 2014) as a deterministic discrete-event simulation.
//!
//! The paper's problem: the OpenFlow Agent (OFA) on hardware switches
//! saturates at a few hundred Packet-In messages per second, so a reactive
//! SDN network collapses under new-flow surges (flash crowds, spoofed-source
//! DDoS) even while its data plane idles. Scotch's answer: tunnel new flows
//! *in the data plane* to a mesh of Open vSwitches whose software control
//! agents are 1–2 orders of magnitude faster, let those emit the Packet-Ins,
//! forward small flows entirely over the vSwitch overlay, and migrate
//! elephants back to physical paths.
//!
//! ## Crate layout
//!
//! * [`config`] — all tunables ([`config::ScotchConfig`]), paper-calibrated
//!   defaults.
//! * [`overlay`] — the overlay fabric: load-balancing, mesh, and delivery
//!   tunnels ([`overlay::OverlayManager`], §4.1, §5.6).
//! * [`queues`] — the controller's per-switch rule scheduler: admitted >
//!   migration > ingress-port round-robin, served at the safe budget `R`
//!   ([`queues::RuleScheduler`], §5.2–5.3, Fig. 7).
//! * [`migration`] — elephant detection from vSwitch flow stats
//!   ([`migration::ElephantDetector`], §5.3).
//! * [`app`] — the Scotch controller application ([`app::ScotchApp`]):
//!   activation/withdrawal, overlay routing, policy-consistent middlebox
//!   traversal (§5.4), vSwitch fail-over (§5.6).
//! * [`scenario`] — topology builders for the paper's testbed shapes.
//! * [`sim`] — the composition root: [`sim::Simulation`] wires topology,
//!   devices, controller, and workloads into one event loop and produces a
//!   [`report::Report`].
//!
//! ## Quickstart
//!
//! ```
//! use scotch::scenario::Scenario;
//! use scotch_sim::SimTime;
//!
//! // The paper's headline experiment: a DDoS flood against one Pica8
//! // switch, with and without the Scotch overlay.
//! let report = Scenario::overlay_datacenter(4)     // 4 mesh vSwitches
//!     .with_attack(2_000.0)                        // 2000 spoofed flows/s
//!     .with_clients(100.0)                         // the paper's client rate
//!     .run(SimTime::from_secs(10), 42);
//! // With Scotch, legitimate flows survive the flood (measured after the
//! // one-second activation transient).
//! let steady = report.client_failure_fraction_between(
//!     SimTime::from_secs(1),
//!     SimTime::from_secs(9),
//! );
//! assert!(steady < 0.05, "steady-state failure {steady}");
//! ```

pub mod app;
pub mod chaos;
pub mod config;
pub mod migration;
pub mod overlay;
pub mod pcap;
pub mod queues;
pub mod report;
pub mod scenario;
pub mod sim;
pub mod slo;
pub mod telemetry;

pub use app::ScotchApp;
pub use chaos::{ChaosConfig, ChaosOutcome, Violation};
pub use config::{ScotchConfig, TelemetryConfig};
pub use overlay::OverlayManager;
pub use report::Report;
pub use scenario::Scenario;
pub use sim::Simulation;
pub use slo::{SloOutcome, SloTable};
