#![warn(missing_docs)]

//! # scotch-switch
//!
//! Device models for the Scotch reproduction:
//!
//! * [`profile::SwitchProfile`] — calibrated capacities of the testbed
//!   devices (Pica8 Pronto 3780, HP Procurve 6600, Open vSwitch), taken
//!   from the paper's measurements in §3 and §6.1–6.2.
//! * [`ofa::Ofa`] — the OpenFlow Agent model: a rate-limited Packet-In
//!   path, the rule-insertion success curve of Fig. 9, and the
//!   data-plane/control-path interaction knee of Fig. 10.
//! * [`physical::PhysicalSwitch`] — hardware switch: line-rate multi-table
//!   data plane + group table + slow OFA.
//! * [`vswitch::VSwitch`] — Open vSwitch: fast software control agent,
//!   pps-bounded software data plane, tunnel decapsulation and Packet-In
//!   metadata tagging (§5.2).
//! * [`middlebox`] — stateful firewall and load balancer used by the
//!   policy-consistency mechanism (§5.4).
//! * [`sampler::PacketSampler`] — deterministic geometric-skip packet
//!   sampler backing the NetFlow-style sampled telemetry mode.
//!
//! All models are passive state machines: methods take `now` and inputs,
//! and return [`Output`]s that the composition root (the `scotch` crate)
//! turns into scheduled events.

pub mod middlebox;
pub mod ofa;
pub mod physical;
pub mod profile;
pub mod sampler;
pub mod vswitch;

pub use ofa::Ofa;
pub use physical::PhysicalSwitch;
pub use profile::SwitchProfile;
pub use sampler::PacketSampler;
pub use vswitch::VSwitch;

use scotch_net::{Packet, PortId};
use scotch_openflow::SwitchToController;
use scotch_sim::SimTime;

/// Why a switch dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Table-miss packet lost because the OFA's Packet-In queue overflowed
    /// — the failure mode behind Fig. 3.
    OfaOverload,
    /// The data-plane capacity collapsed under rule-insertion load
    /// (Fig. 10).
    DataPlaneOverload,
    /// A rule said to drop.
    Policy,
    /// No route for the packet (e.g. select group with all buckets dead,
    /// or a pipeline that ends with no output).
    NoRoute,
}

/// An effect produced by a device model, to be realized by the composition
/// root.
#[derive(Debug, Clone)]
pub enum Output {
    /// Emit `packet` on local port `out_port` (data plane; the root applies
    /// link bandwidth/latency).
    Forward {
        /// Egress port.
        out_port: PortId,
        /// Packet to transmit.
        packet: Packet,
    },
    /// Deliver a message to the controller at `at` (the OFA's service delay
    /// is already folded in; the root adds control-channel latency).
    ToController {
        /// Earliest emission time computed by the OFA model.
        at: SimTime,
        /// The message.
        msg: SwitchToController,
    },
    /// The packet was dropped.
    Dropped {
        /// Why.
        reason: DropReason,
        /// The dropped packet.
        packet: Packet,
    },
}
