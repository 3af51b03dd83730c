#![warn(missing_docs)]

//! # scotch-openflow
//!
//! A typed model of the OpenFlow 1.3 subset that Scotch relies on. No wire
//! format is implemented — the paper's contribution is an overlay
//! architecture, not a codec — but the *semantics* the design depends on
//! are all here:
//!
//! * priority-ordered [`table::FlowTable`]s with idle/hard timeouts, bounded
//!   capacity (the TCAM limit of §3.3) and match counters;
//! * a multi-table pipeline ([`table::Pipeline`]): Scotch needs two tables
//!   at the physical switch, "the first table contains the rule for setting
//!   the ingress port; and the second table contains the rule for load
//!   balancing" (§5.2);
//! * [`group::GroupTable`] with the *select* group type used for
//!   load-balancing across vSwitch tunnels (§5.1), including bucket
//!   liveness for vSwitch fail-over (§5.6);
//! * the control-channel [`messages`] exchanged with the controller.

pub mod group;
pub mod messages;
pub mod ofmatch;
pub mod table;
pub mod wire;

pub use group::{Bucket, GroupEntry, GroupId, GroupTable, GroupType, SelectionPolicy};
pub use messages::{ControllerToSwitch, FlowModCommand, PacketInReason, SwitchToController};
pub use ofmatch::{Action, ActionList, Match};
pub use table::{FlowEntry, FlowRule, FlowTable, Pipeline, RuleShape, Sampled, TableId};
