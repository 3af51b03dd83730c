//! Control-channel messages.
//!
//! Typed equivalents of the OpenFlow 1.3 messages Scotch uses. The paper's
//! step numbering (Fig. 6) maps as: Packet-In = step 1/2, FlowMod = step 3,
//! FlowStats request/reply drive large-flow migration (§5.3), Echo
//! request/reply is the vSwitch heartbeat (§5.6).

use crate::group::GroupEntry;
use crate::ofmatch::Match;
use crate::table::{FlowRule, TableId};
use scotch_net::{Packet, PortId, TunnelId};
use scotch_sim::SimDuration;

/// Why a Packet-In was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketInReason {
    /// Table-miss: no rule matched (a new flow in reactive mode).
    NoMatch,
    /// An explicit `ToController` action fired.
    Action,
}

/// Per-flow statistics carried in a FlowStatsReply.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStat {
    /// Table the entry lives in.
    pub table: TableId,
    /// The entry's match.
    pub matcher: Match,
    /// The entry's cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Time since installation.
    pub duration: SimDuration,
}

/// Messages from a switch's agent to the controller.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchToController {
    /// A packet punted to the controller.
    ///
    /// Scotch configures vSwitches "to forward the entire packet to the
    /// controller, so that the controller can have more flexibility in
    /// deciding how to forward the packet" (§4.2) — hence the message
    /// carries the whole [`Packet`]. For a packet that arrived through an
    /// overlay tunnel, the vSwitch strips the labels and reports them in
    /// `via_tunnel` / `ingress_label` (§5.2).
    PacketIn {
        /// The punted packet, labels already stripped.
        packet: Packet,
        /// Local ingress port at the sending switch.
        in_port: PortId,
        /// Why the packet was punted.
        reason: PacketInReason,
        /// Tunnel the packet arrived on (vSwitch Packet-Ins only); the
        /// controller maps it back to the originating physical switch.
        via_tunnel: Option<TunnelId>,
        /// Inner label: ingress port at the originating physical switch.
        ingress_label: Option<u16>,
    },
    /// An entry timed out or was evicted.
    FlowRemoved {
        /// Table it was removed from.
        table: TableId,
        /// Its match.
        matcher: Match,
        /// Its cookie.
        cookie: u64,
        /// Final packet count.
        packet_count: u64,
        /// Final byte count.
        byte_count: u64,
    },
    /// Response to a FlowStatsRequest.
    FlowStatsReply {
        /// One record per installed entry in the queried tables.
        stats: Vec<FlowStat>,
    },
    /// Heartbeat response.
    EchoReply {
        /// Echoed nonce.
        nonce: u64,
    },
    /// Barrier acknowledgement: all earlier messages are fully processed.
    BarrierReply {
        /// Echoed transaction id.
        xid: u64,
    },
    /// Something failed on the switch (e.g. a FlowMod against a full
    /// table, §3.3, or one lost to OFA overload, §6.1).
    Error {
        /// What failed.
        kind: OfError,
    },
}

/// Error kinds a switch reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfError {
    /// FlowMod rejected: table at capacity.
    TableFull,
    /// FlowMod lost in the OFA (insertion-rate overload, Fig. 9).
    FlowModOverload,
}

/// FlowMod sub-commands.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowModCommand {
    /// Install a rule (or replace the identical-match-and-priority entry).
    Add(FlowRule),
    /// Remove all entries carrying this cookie.
    DeleteByCookie(u64),
    /// Remove entries whose match equals this exactly (OFPFC_DELETE_STRICT).
    DeleteExact(Match),
    /// Remove every entry in the table (OFPFC_DELETE with an empty match —
    /// the spec's non-strict delete). Used by TCAM-triggered activation to
    /// make room for the overlay default rules.
    DeleteAll,
}

/// GroupMod sub-commands.
#[derive(Debug, Clone)]
pub enum GroupModCommand {
    /// Install or replace the group.
    Install(GroupEntry),
    /// Remove the group.
    Remove,
    /// Toggle one bucket's liveness (vSwitch fail-over, §5.6).
    SetBucketAlive {
        /// Bucket index within the group.
        bucket: usize,
        /// New liveness.
        alive: bool,
    },
}

/// Messages from the controller to a switch's agent.
#[derive(Debug, Clone)]
pub enum ControllerToSwitch {
    /// Modify a flow table.
    FlowMod {
        /// Target table.
        table: TableId,
        /// Operation.
        command: FlowModCommand,
    },
    /// Modify the group table.
    GroupMod {
        /// Target group.
        group: crate::group::GroupId,
        /// Operation.
        command: GroupModCommand,
    },
    /// Inject a packet out of a port (the controller returning the first
    /// packet of an admitted flow to the data plane).
    PacketOut {
        /// Packet to emit.
        packet: Packet,
        /// Port to emit it on.
        out_port: PortId,
    },
    /// Query installed flow statistics.
    FlowStatsRequest,
    /// Heartbeat probe.
    EchoRequest {
        /// Nonce to echo.
        nonce: u64,
    },
    /// Barrier: ask for a BarrierReply once all earlier messages have been
    /// processed (used to order migration rule installs, §5.3).
    Barrier {
        /// Transaction id.
        xid: u64,
    },
}

impl SwitchToController {
    /// Stable snake_case message-kind name, used as the metrics-registry
    /// key for per-message-type counters (`controller.rx.<kind>`).
    pub const fn kind_name(&self) -> &'static str {
        match self {
            SwitchToController::PacketIn { .. } => "packet_in",
            SwitchToController::FlowRemoved { .. } => "flow_removed",
            SwitchToController::FlowStatsReply { .. } => "flow_stats_reply",
            SwitchToController::EchoReply { .. } => "echo_reply",
            SwitchToController::BarrierReply { .. } => "barrier_reply",
            SwitchToController::Error { .. } => "error",
        }
    }
}

impl ControllerToSwitch {
    /// Stable snake_case message-kind name, used as the metrics-registry
    /// key for per-message-type counters (`controller.tx.<kind>`).
    pub const fn kind_name(&self) -> &'static str {
        match self {
            ControllerToSwitch::FlowMod { .. } => "flow_mod",
            ControllerToSwitch::GroupMod { .. } => "group_mod",
            ControllerToSwitch::PacketOut { .. } => "packet_out",
            ControllerToSwitch::FlowStatsRequest => "flow_stats_request",
            ControllerToSwitch::EchoRequest { .. } => "echo_request",
            ControllerToSwitch::Barrier { .. } => "barrier",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofmatch::Action;
    use scotch_net::{FlowId, FlowKey, IpAddr};
    use scotch_sim::SimTime;

    #[test]
    fn packet_in_carries_tunnel_metadata() {
        let key = FlowKey::tcp(IpAddr::new(1, 1, 1, 1), 1, IpAddr::new(2, 2, 2, 2), 80);
        let m = SwitchToController::PacketIn {
            packet: Packet::flow_start(key, FlowId(1), SimTime::ZERO),
            in_port: PortId(0),
            reason: PacketInReason::NoMatch,
            via_tunnel: Some(TunnelId(3)),
            ingress_label: Some(5),
        };
        match m {
            SwitchToController::PacketIn {
                via_tunnel,
                ingress_label,
                ..
            } => {
                assert_eq!(via_tunnel, Some(TunnelId(3)));
                assert_eq!(ingress_label, Some(5));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn flow_mod_commands_construct() {
        let e = FlowRule::apply(Match::ANY, 1, &[Action::Drop]);
        let add = FlowModCommand::Add(e.clone());
        assert_eq!(add, FlowModCommand::Add(e));
        assert_ne!(
            FlowModCommand::DeleteByCookie(1),
            FlowModCommand::DeleteByCookie(2)
        );
    }
}
