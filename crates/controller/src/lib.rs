#![warn(missing_docs)]

//! # scotch-controller
//!
//! The OpenFlow controller runtime the Scotch application sits on. The
//! paper implements Scotch "as an application on the Ryu OpenFlow
//! controller" (§6); this crate is the Ryu-equivalent substrate:
//!
//! * [`addressbook::AddressBook`] — where hosts live (IP → node, host →
//!   attachment switch/port), the global view a controller has;
//! * [`flowdb::FlowInfoDatabase`] — §5.2's "Flow Info Database": per-flow
//!   first-hop physical switch and ingress port, used by large-flow
//!   migration;
//! * [`monitor::PacketInMonitor`] — per-switch Packet-In rate tracking,
//!   the congestion signal for overlay activation/withdrawal;
//! * [`monitor::HeartbeatTracker`] — vSwitch liveness via Echo (§5.6);
//! * [`cluster::ClusterState`] — controller-cluster mastership: N
//!   replicas, per-switch masters and standbys, deterministic failover
//!   with parked-message migration (DESIGN.md §16);
//! * [`baseline::plan_flow_rules`] — per-flow rule planning along a
//!   physical path, shared by admission and migration.
//!
//! The controller itself is deliberately *not* rate-limited: "a single
//! node multi-threaded controller can handle millions of Packet-In/sec"
//! (§2) — the bottleneck the paper studies, and that we reproduce, is the
//! switch-side control path.

pub mod addressbook;
pub mod baseline;
pub mod cluster;
pub mod flowdb;
pub mod monitor;

pub use addressbook::AddressBook;
pub use cluster::{ClusterConfig, ClusterState, MasterView, NO_REPLICA};
pub use flowdb::{FlowInfo, FlowInfoDatabase};
pub use monitor::{HeartbeatTracker, PacketInMonitor};

use scotch_net::NodeId;
use scotch_openflow::ControllerToSwitch;

/// A controller decision: send `msg` to switch `to` (the composition root
/// applies that switch's control-channel latency).
#[derive(Debug, Clone)]
pub struct Command {
    /// Destination switch (physical or vSwitch).
    pub to: NodeId,
    /// The message.
    pub msg: ControllerToSwitch,
}

impl Command {
    /// Convenience constructor.
    pub fn new(to: NodeId, msg: ControllerToSwitch) -> Self {
        Command { to, msg }
    }
}
