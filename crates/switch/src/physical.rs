//! The hardware OpenFlow switch model (Pica8 / HP class).
//!
//! Data plane: a multi-table [`Pipeline`] plus a [`GroupTable`], processing
//! at line rate (links are the only bandwidth constraint) — *except* when
//! heavy rule-insertion load starves the shared switch CPU, reproducing
//! Fig. 10.
//!
//! Control plane: an [`Ofa`] with the calibrated Packet-In and
//! rule-insertion limits.

use crate::ofa::Ofa;
use crate::profile::SwitchProfile;
use crate::{DropReason, Output};
use scotch_net::{NodeId, Packet, PortId};
use scotch_openflow::messages::{FlowStat, GroupModCommand, OfError};
use scotch_openflow::{
    Action, ControllerToSwitch, FlowModCommand, GroupTable, PacketInReason, Pipeline,
    SwitchToController, TableId,
};
use scotch_sim::rate::Ewma;
use scotch_sim::{SimDuration, SimRng, SimTime};

/// Data-plane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets forwarded by the data plane.
    pub forwarded: u64,
    /// Packets dropped by the Fig. 10 interaction collapse.
    pub dropped_interaction: u64,
    /// Table-miss packets lost in the OFA.
    pub dropped_ofa: u64,
    /// Packets dropped by policy, dead groups or an action set with no
    /// output.
    pub dropped_other: u64,
}

impl SwitchStats {
    /// Register these counters into a
    /// [`MetricsRegistry`](scotch_sim::MetricsRegistry) under
    /// `<prefix>.<field>` (see [`crate::ofa::OfaStats::register_metrics`]).
    pub fn register_metrics(&self, prefix: &str, reg: &mut scotch_sim::MetricsRegistry) {
        reg.add(&format!("{prefix}.forwarded"), self.forwarded);
        reg.add(
            &format!("{prefix}.dropped_interaction"),
            self.dropped_interaction,
        );
        reg.add(&format!("{prefix}.dropped_ofa"), self.dropped_ofa);
        reg.add(&format!("{prefix}.dropped_other"), self.dropped_other);
    }
}

/// A hardware OpenFlow switch.
#[derive(Debug, Clone)]
pub struct PhysicalSwitch {
    /// The switch's node in the topology.
    pub node: NodeId,
    profile: SwitchProfile,
    pipeline: Pipeline,
    groups: GroupTable,
    ofa: Ofa,
    /// Offered data-plane rate estimate, for the interaction model.
    data_rate: Ewma,
    rng: SimRng,
    stats: SwitchStats,
    /// Reusable per-packet action scratch (steady-state zero allocation).
    action_buf: Vec<Action>,
    /// Reusable scratch for group-selected actions.
    group_buf: Vec<Action>,
}

impl PhysicalSwitch {
    /// Build a switch at topology node `node` with the given profile.
    pub fn new(node: NodeId, profile: SwitchProfile, mut rng: SimRng) -> Self {
        let ofa_rng = rng.fork(0x0FA);
        PhysicalSwitch {
            node,
            pipeline: Pipeline::new(profile.n_tables, profile.flow_table_capacity),
            groups: GroupTable::new(),
            ofa: Ofa::new(&profile, ofa_rng),
            data_rate: Ewma::new(SimDuration::from_millis(500)),
            rng,
            profile,
            stats: SwitchStats::default(),
            action_buf: Vec::new(),
            group_buf: Vec::new(),
        }
    }

    /// The device profile.
    pub fn profile(&self) -> &SwitchProfile {
        &self.profile
    }

    /// The flow-table pipeline (tests and stats).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable pipeline access (test setup without the OFA path).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// The group table.
    pub fn groups(&self) -> &GroupTable {
        &self.groups
    }

    /// OFA counters.
    pub fn ofa_stats(&self) -> crate::ofa::OfaStats {
        self.ofa.stats()
    }

    /// Data-plane counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// One-way control-channel latency to the controller.
    pub fn control_latency(&self) -> SimDuration {
        self.profile.control_latency
    }

    /// Set the OFA's service-time multiplier (fault injection: OFA
    /// slowdown). `1.0` restores the healthy agent.
    pub fn set_ofa_slowdown(&mut self, factor: f64) {
        self.ofa.set_slowdown(factor);
    }

    /// Fig. 10: does the shared CPU drop this data packet? Consumes one
    /// observation of the offered data rate either way.
    fn interaction_drops(&mut self, now: SimTime) -> bool {
        let offered = self.data_rate.observe(now).max(1e-9);
        let Some(knee) = self.profile.interaction_knee else {
            return false;
        };
        if !self.ofa.insert_rate_reaches(now, knee) {
            return false;
        }
        let p_drop = (1.0 - self.profile.collapsed_pps / offered).clamp(0.0, 1.0);
        self.rng.chance(p_drop)
    }

    /// Process a data-plane packet arriving on `in_port`.
    ///
    /// Convenience wrapper over [`PhysicalSwitch::handle_packet_into`]
    /// (tests and one-shot callers; the simulation loop reuses a buffer).
    pub fn handle_packet(&mut self, now: SimTime, in_port: PortId, packet: Packet) -> Vec<Output> {
        let mut out = Vec::new();
        self.handle_packet_into(now, in_port, packet, &mut out);
        out
    }

    /// Process a data-plane packet, appending outputs to `out` (the hot
    /// path: no per-packet allocation with a reused buffer).
    pub fn handle_packet_into(
        &mut self,
        now: SimTime,
        in_port: PortId,
        packet: Packet,
        out: &mut Vec<Output>,
    ) {
        if self.interaction_drops(now) {
            self.stats.dropped_interaction += 1;
            out.push(Output::Dropped {
                reason: DropReason::DataPlaneOverload,
                packet,
            });
            return;
        }
        // Run the pipeline into the reusable scratch buffer: no per-packet
        // allocation on the forwarding path.
        let mut actions = std::mem::take(&mut self.action_buf);
        let matched = self
            .pipeline
            .process_into(now, &packet, in_port, &mut actions);
        if matched {
            if !self.execute_actions(now, in_port, packet, &actions, 0, out) {
                // OpenFlow drops a packet whose action set has no output
                // or group: e.g. table 0 labelled it and sent it on to a
                // table with no matching entry, such as a lost overlay
                // default rule. Count it, or the loss is silent.
                self.stats.dropped_other += 1;
                out.push(Output::Dropped {
                    reason: DropReason::NoRoute,
                    packet,
                });
            }
        } else {
            self.punt_to_controller(now, in_port, packet, out);
        }
        self.action_buf = actions;
    }

    fn punt_to_controller(
        &mut self,
        now: SimTime,
        in_port: PortId,
        packet: Packet,
        out: &mut Vec<Output>,
    ) {
        match self.ofa.offer_packet_in(now) {
            Some(at) => out.push(Output::ToController {
                at,
                msg: SwitchToController::PacketIn {
                    packet,
                    in_port,
                    reason: PacketInReason::NoMatch,
                    via_tunnel: None,
                    ingress_label: None,
                },
            }),
            None => {
                self.stats.dropped_ofa += 1;
                out.push(Output::Dropped {
                    reason: DropReason::OfaOverload,
                    packet,
                });
            }
        }
    }

    /// Apply `actions` to `packet`; returns whether the packet left: was
    /// forwarded, punted or dropped.
    fn execute_actions(
        &mut self,
        now: SimTime,
        in_port: PortId,
        packet: Packet,
        actions: &[Action],
        depth: u8,
        out: &mut Vec<Output>,
    ) -> bool {
        let mut pkt = packet;
        let mut left = false;
        for action in actions {
            match action {
                Action::Output(p) => {
                    left = true;
                    self.stats.forwarded += 1;
                    out.push(Output::Forward {
                        out_port: *p,
                        packet: pkt,
                    });
                }
                Action::ToController => {
                    left = true;
                    self.punt_to_controller(now, in_port, pkt, out);
                }
                Action::PushLabel(l) => pkt.push_label(*l),
                Action::PopLabel => {
                    pkt.pop_label();
                }
                Action::Drop => {
                    self.stats.dropped_other += 1;
                    out.push(Output::Dropped {
                        reason: DropReason::Policy,
                        packet: pkt,
                    });
                    return true;
                }
                Action::Group(g) => {
                    // One level of group indirection (OpenFlow forbids
                    // group→group chains on most hardware; Scotch needs one
                    // level only).
                    if depth == 0 {
                        let mut acts = std::mem::take(&mut self.group_buf);
                        acts.clear();
                        let found = match self.groups.select(*g, &pkt.key) {
                            Some(chosen) => {
                                acts.extend_from_slice(chosen);
                                true
                            }
                            None => false,
                        };
                        if found {
                            left |= self.execute_actions(now, in_port, pkt, &acts, 1, out);
                        } else {
                            left = true;
                            self.stats.dropped_other += 1;
                            out.push(Output::Dropped {
                                reason: DropReason::NoRoute,
                                packet: pkt,
                            });
                        }
                        self.group_buf = acts;
                    }
                }
            }
        }
        left
    }

    /// Process a controller message arriving over the control channel,
    /// appending its effects to `out` (the simulation reuses one buffer:
    /// no per-message allocation).
    pub fn handle_controller_msg(
        &mut self,
        now: SimTime,
        msg: ControllerToSwitch,
        out: &mut Vec<Output>,
    ) {
        match msg {
            ControllerToSwitch::FlowMod { table, command } => {
                self.handle_flow_mod(now, table, command, out)
            }
            ControllerToSwitch::GroupMod { group, command } => match command {
                GroupModCommand::Install(entry) => self.groups.install(group, entry),
                GroupModCommand::Remove => {
                    self.groups.remove(group);
                }
                GroupModCommand::SetBucketAlive { bucket, alive } => {
                    if let Some(g) = self.groups.get_mut(group) {
                        if let Some(b) = g.buckets.get_mut(bucket) {
                            b.alive = alive;
                        }
                    }
                }
            },
            ControllerToSwitch::PacketOut { packet, out_port } => {
                self.stats.forwarded += 1;
                out.push(Output::Forward { out_port, packet });
            }
            ControllerToSwitch::FlowStatsRequest => {
                let mut stats = Vec::with_capacity(self.pipeline.total_entries());
                for t in 0..self.pipeline.table_count() {
                    let tid = TableId(t as u8);
                    for e in self.pipeline.table(tid).iter() {
                        stats.push(FlowStat {
                            table: tid,
                            matcher: e.matcher,
                            cookie: e.cookie,
                            packet_count: e.packet_count,
                            byte_count: e.byte_count,
                            duration: now.duration_since(e.installed_at),
                        });
                    }
                }
                out.push(Output::ToController {
                    at: now + SimDuration::from_millis(1),
                    msg: SwitchToController::FlowStatsReply { stats },
                });
            }
            ControllerToSwitch::EchoRequest { nonce } => out.push(Output::ToController {
                at: now + SimDuration::from_micros(500),
                msg: SwitchToController::EchoReply { nonce },
            }),
            ControllerToSwitch::Barrier { xid } => out.push(Output::ToController {
                at: now + SimDuration::from_millis(1),
                msg: SwitchToController::BarrierReply { xid },
            }),
        }
    }

    fn handle_flow_mod(
        &mut self,
        now: SimTime,
        table: TableId,
        command: FlowModCommand,
        out: &mut Vec<Output>,
    ) {
        let error = |kind| Output::ToController {
            at: now + SimDuration::from_millis(1),
            msg: SwitchToController::Error { kind },
        };
        match command {
            FlowModCommand::Add(entry) => {
                let Some(at) = self.ofa.offer_rule_insert(now) else {
                    out.push(error(OfError::FlowModOverload));
                    return;
                };
                if self.pipeline.table_mut(table).insert(at, entry).is_err() {
                    out.push(error(OfError::TableFull));
                }
            }
            FlowModCommand::DeleteByCookie(cookie) => {
                self.pipeline.table_mut(table).remove_by_cookie(cookie);
            }
            FlowModCommand::DeleteExact(matcher) => {
                self.pipeline.table_mut(table).remove_exact(&matcher);
            }
            FlowModCommand::DeleteAll => {
                self.pipeline.table_mut(table).clear();
            }
        }
    }

    /// Expire timed-out entries, emitting FlowRemoved notifications.
    pub fn expire_flows(&mut self, now: SimTime) -> Vec<Output> {
        self.pipeline
            .expire(now)
            .into_iter()
            .map(|(table, e)| Output::ToController {
                at: now + SimDuration::from_millis(1),
                msg: SwitchToController::FlowRemoved {
                    table,
                    matcher: e.matcher,
                    cookie: e.cookie,
                    packet_count: e.packet_count,
                    byte_count: e.byte_count,
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_net::{FlowId, FlowKey, IpAddr};
    use scotch_openflow::{FlowRule, Match};

    fn sw() -> PhysicalSwitch {
        PhysicalSwitch::new(
            NodeId(0),
            SwitchProfile::pica8_pronto_3780(),
            SimRng::new(7),
        )
    }

    fn pkt(sport: u16) -> Packet {
        Packet::flow_start(
            FlowKey::tcp(IpAddr::new(1, 0, 0, 1), sport, IpAddr::new(2, 0, 0, 2), 80),
            FlowId(sport as u64),
            SimTime::ZERO,
        )
    }

    /// Deliver one controller message; returns the switch's outputs.
    fn ctrl(sw: &mut PhysicalSwitch, now: SimTime, msg: ControllerToSwitch) -> Vec<Output> {
        let mut out = Vec::new();
        sw.handle_controller_msg(now, msg, &mut out);
        out
    }

    fn add_rule(sw: &mut PhysicalSwitch, entry: FlowRule) {
        let outs = ctrl(
            sw,
            SimTime::ZERO,
            ControllerToSwitch::FlowMod {
                table: TableId(0),
                command: FlowModCommand::Add(entry),
            },
        );
        assert!(outs.is_empty(), "flow mod should succeed: {outs:?}");
    }

    #[test]
    fn table_miss_becomes_packet_in() {
        let mut s = sw();
        let outs = s.handle_packet(SimTime::ZERO, PortId(0), pkt(1));
        assert_eq!(outs.len(), 1);
        match &outs[0] {
            Output::ToController {
                msg: SwitchToController::PacketIn { in_port, .. },
                ..
            } => assert_eq!(*in_port, PortId(0)),
            o => panic!("expected PacketIn, got {o:?}"),
        }
    }

    #[test]
    fn installed_rule_forwards() {
        let mut s = sw();
        add_rule(
            &mut s,
            FlowRule::apply(Match::exact(pkt(1).key), 10, &[Action::Output(PortId(2))]),
        );
        let outs = s.handle_packet(SimTime::from_millis(10), PortId(0), pkt(1));
        match &outs[0] {
            Output::Forward { out_port, .. } => assert_eq!(*out_port, PortId(2)),
            o => panic!("expected Forward, got {o:?}"),
        }
        assert_eq!(s.stats().forwarded, 1);
    }

    #[test]
    fn ofa_overload_drops_new_flows() {
        // Slam 10k new flows in one instant: only the queue depth + a few
        // survive.
        let mut s = sw();
        let mut punted = 0;
        let mut dropped = 0;
        for i in 0..10_000u16 {
            match &s.handle_packet(SimTime::ZERO, PortId(0), pkt(i))[0] {
                Output::ToController { .. } => punted += 1,
                Output::Dropped { reason, .. } => {
                    assert_eq!(*reason, DropReason::OfaOverload);
                    dropped += 1;
                }
                _ => panic!(),
            }
        }
        assert_eq!(punted, 64); // queue depth
        assert_eq!(dropped, 10_000 - 64);
    }

    #[test]
    fn flow_mod_overload_reports_error() {
        let mut s = sw();
        // Blast inserts at effectively infinite rate until one fails.
        let mut failures = 0;
        for i in 0..2000u16 {
            let outs = ctrl(
                &mut s,
                SimTime::ZERO,
                ControllerToSwitch::FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add(FlowRule::apply(Match::exact(pkt(i).key), 1, &[])),
                },
            );
            if let Some(Output::ToController {
                msg: SwitchToController::Error { kind },
                ..
            }) = outs.first()
            {
                assert_eq!(*kind, OfError::FlowModOverload);
                failures += 1;
            }
        }
        assert!(failures > 0, "overload should fail some inserts");
    }

    #[test]
    fn table_full_reports_error() {
        let mut profile = SwitchProfile::pica8_pronto_3780();
        profile.flow_table_capacity = 2;
        // Avoid insertion-rate failures: spread inserts out in time.
        let mut s = PhysicalSwitch::new(NodeId(0), profile, SimRng::new(1));
        let mut saw_full = false;
        for i in 0..3u16 {
            let outs = ctrl(
                &mut s,
                SimTime::from_secs(i as u64),
                ControllerToSwitch::FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add(FlowRule::apply(Match::exact(pkt(i).key), 1, &[])),
                },
            );
            if let Some(Output::ToController {
                msg:
                    SwitchToController::Error {
                        kind: OfError::TableFull,
                    },
                ..
            }) = outs.first()
            {
                saw_full = true;
            }
        }
        assert!(saw_full);
    }

    #[test]
    fn group_action_load_balances() {
        use scotch_openflow::{Bucket, GroupEntry, GroupId, SelectionPolicy};
        let mut s = sw();
        ctrl(
            &mut s,
            SimTime::ZERO,
            ControllerToSwitch::GroupMod {
                group: GroupId(1),
                command: GroupModCommand::Install(GroupEntry::select(
                    SelectionPolicy::FlowHash,
                    vec![
                        Bucket::new(vec![Action::Output(PortId(10))]),
                        Bucket::new(vec![Action::Output(PortId(11))]),
                    ],
                )),
            },
        );
        add_rule(
            &mut s,
            FlowRule::apply(Match::ANY, 1, &[Action::Group(GroupId(1))]),
        );
        let mut ports = scotch_sim::FxHashSet::default();
        for i in 0..64u16 {
            for o in s.handle_packet(SimTime::from_millis(i as u64 + 10), PortId(0), pkt(i)) {
                if let Output::Forward { out_port, .. } = o {
                    ports.insert(out_port);
                }
            }
        }
        assert_eq!(ports.len(), 2, "both buckets should be used");
    }

    #[test]
    fn packet_out_forwards_without_table() {
        let mut s = sw();
        let outs = ctrl(
            &mut s,
            SimTime::ZERO,
            ControllerToSwitch::PacketOut {
                packet: pkt(1),
                out_port: PortId(5),
            },
        );
        assert!(matches!(
            outs[0],
            Output::Forward {
                out_port: PortId(5),
                ..
            }
        ));
    }

    #[test]
    fn stats_request_reports_counters() {
        let mut s = sw();
        add_rule(
            &mut s,
            FlowRule::apply(Match::exact(pkt(1).key), 5, &[Action::Output(PortId(1))])
                .with_cookie(42),
        );
        s.handle_packet(SimTime::from_millis(5), PortId(0), pkt(1).with_size(500));
        let outs = ctrl(
            &mut s,
            SimTime::from_millis(10),
            ControllerToSwitch::FlowStatsRequest,
        );
        match &outs[0] {
            Output::ToController {
                msg: SwitchToController::FlowStatsReply { stats },
                ..
            } => {
                let st = stats.iter().find(|f| f.cookie == 42).unwrap();
                assert_eq!(st.packet_count, 1);
                assert_eq!(st.byte_count, 500);
            }
            o => panic!("expected stats reply, got {o:?}"),
        }
    }

    #[test]
    fn echo_and_barrier_reply() {
        let mut s = sw();
        let outs = ctrl(
            &mut s,
            SimTime::ZERO,
            ControllerToSwitch::EchoRequest { nonce: 9 },
        );
        assert!(matches!(
            outs[0],
            Output::ToController {
                msg: SwitchToController::EchoReply { nonce: 9 },
                ..
            }
        ));
        let outs = ctrl(
            &mut s,
            SimTime::ZERO,
            ControllerToSwitch::Barrier { xid: 3 },
        );
        assert!(matches!(
            outs[0],
            Output::ToController {
                msg: SwitchToController::BarrierReply { xid: 3 },
                ..
            }
        ));
    }

    #[test]
    fn expiry_emits_flow_removed() {
        use scotch_sim::SimDuration;
        let mut s = sw();
        add_rule(
            &mut s,
            FlowRule::apply(Match::exact(pkt(1).key), 5, &[])
                .with_hard_timeout(SimDuration::from_secs(10))
                .with_cookie(7),
        );
        assert!(s.expire_flows(SimTime::from_secs(5)).is_empty());
        let outs = s.expire_flows(SimTime::from_secs(11));
        assert!(matches!(
            outs[0],
            Output::ToController {
                msg: SwitchToController::FlowRemoved { cookie: 7, .. },
                ..
            }
        ));
    }

    #[test]
    fn fig10_interaction_collapses_data_plane() {
        let mut s = sw();
        // Pre-install a forwarding rule so data packets hit the fast path.
        add_rule(
            &mut s,
            FlowRule::apply(Match::ANY, 1, &[Action::Output(PortId(1))]),
        );
        // Warm up: 1000 pps data, no insertion load -> no loss.
        let mut lost_before = 0;
        for i in 0..2000u64 {
            let now = SimTime::from_nanos(i * 1_000_000);
            let outs = s.handle_packet(now, PortId(0), pkt((i % 500) as u16));
            if matches!(
                outs[0],
                Output::Dropped {
                    reason: DropReason::DataPlaneOverload,
                    ..
                }
            ) {
                lost_before += 1;
            }
        }
        assert_eq!(lost_before, 0);

        // Now add 2000 attempted inserts/s (past the 1300 knee) alongside
        // 1000 pps of data; data-plane loss should exceed 90 %.
        let mut lost = 0;
        let mut total = 0;
        let t0 = 2_000_000_000u64;
        for i in 0..8000u64 {
            let now = SimTime::from_nanos(t0 + i * 500_000); // 2000/s inserts
            ctrl(
                &mut s,
                now,
                ControllerToSwitch::FlowMod {
                    table: TableId(1),
                    command: FlowModCommand::Add(FlowRule::apply(
                        Match::exact(pkt((i % 60000) as u16).key),
                        2,
                        &[],
                    )),
                },
            );
            if i % 2 == 0 {
                // 1000 pps of data interleaved.
                total += 1;
                let outs = s.handle_packet(now, PortId(0), pkt((i % 500) as u16));
                if matches!(
                    outs[0],
                    Output::Dropped {
                        reason: DropReason::DataPlaneOverload,
                        ..
                    }
                ) {
                    lost += 1;
                }
            }
        }
        let ratio = lost as f64 / total as f64;
        assert!(ratio > 0.8, "interaction loss ratio {ratio}, want > 0.8");
    }
}
