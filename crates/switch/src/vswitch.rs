//! The Open vSwitch model.
//!
//! §4: "The vSwitches have higher control plane capacity but lower data
//! plane throughput compared to the physical switches." A [`VSwitch`] has:
//!
//! * a fast software control agent (the OVS profile's Packet-In and
//!   insertion rates),
//! * a pps-bounded software data plane (DPDK-less OVS forwards a few
//!   hundred kpps per core),
//! * tunnel termination: when a tunneled packet arrives at the vSwitch
//!   that is the tunnel's endpoint, it decapsulates, recovers the inner
//!   ingress-port label, and — on table miss — reports both in the
//!   Packet-In metadata (§5.2), which is how the controller recovers the
//!   originating physical switch and ingress port.

use crate::ofa::Ofa;
use crate::profile::SwitchProfile;
use crate::sampler::PacketSampler;
use crate::{DropReason, Output};
use scotch_net::{Label, NodeId, Packet, PortId, TunnelId};
use scotch_openflow::messages::{FlowStat, GroupModCommand, OfError};
use scotch_openflow::{
    Action, ControllerToSwitch, FlowModCommand, FlowTable, GroupTable, PacketInReason,
    SwitchToController, TableId,
};
use scotch_sim::rate::{Admission, FifoServer};
use scotch_sim::{SimDuration, SimRng, SimTime};

/// vSwitch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VSwitchStats {
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped at the software data plane's pps bound.
    pub dropped_dataplane: u64,
    /// Table-miss packets lost in the (fast, but finite) agent.
    pub dropped_agent: u64,
    /// Tunneled packets decapsulated here.
    pub decapsulated: u64,
    /// Controller messages silently absorbed while failed (the conservation
    /// invariant of the chaos harness accounts FlowMods against this).
    pub ctrl_absorbed: u64,
    /// Flow records exported by the *sampled* telemetry path (zero in
    /// exhaustive mode).
    pub sampled_exported: u64,
    /// Accumulated estimation error of exported sampled records, in parts
    /// per million of the true packet count — a simulator-side oracle
    /// comparing `sampled × 1/rate` against the ground-truth counter at
    /// export time. Divide by `sampled_exported` for the mean.
    pub est_error_ppm: u64,
}

impl VSwitchStats {
    /// Register these counters into a
    /// [`MetricsRegistry`](scotch_sim::MetricsRegistry) under
    /// `<prefix>.<field>` (see [`crate::ofa::OfaStats::register_metrics`]).
    pub fn register_metrics(&self, prefix: &str, reg: &mut scotch_sim::MetricsRegistry) {
        reg.add(&format!("{prefix}.forwarded"), self.forwarded);
        reg.add(
            &format!("{prefix}.dropped_dataplane"),
            self.dropped_dataplane,
        );
        reg.add(&format!("{prefix}.dropped_agent"), self.dropped_agent);
        reg.add(&format!("{prefix}.decapsulated"), self.decapsulated);
        reg.add(&format!("{prefix}.ctrl_absorbed"), self.ctrl_absorbed);
        reg.add(&format!("{prefix}.sampled_exported"), self.sampled_exported);
        reg.add(&format!("{prefix}.est_error_ppm"), self.est_error_ppm);
    }
}

/// An Open vSwitch participating in the Scotch overlay (mesh or host
/// vSwitch) or standing alone (the Fig. 3 comparison).
#[derive(Debug, Clone)]
pub struct VSwitch {
    /// The vSwitch's node in the topology.
    pub node: NodeId,
    profile: SwitchProfile,
    table: FlowTable,
    groups: GroupTable,
    ofa: Ofa,
    /// Software data-plane server (pps bound).
    dataplane: FifoServer,
    dataplane_service: SimDuration,
    stats: VSwitchStats,
    /// When true the vSwitch is failed: it forwards nothing and answers no
    /// heartbeats (§5.6 failure experiments).
    pub failed: bool,
    /// Reusable per-packet action scratch (steady-state zero allocation).
    action_buf: Vec<Action>,
    /// Reusable scratch for group-selected actions.
    group_buf: Vec<Action>,
    /// Telemetry sampler (`None` = exhaustive stats export).
    sampler: Option<PacketSampler>,
}

impl VSwitch {
    /// Build a vSwitch with the standard OVS profile.
    pub fn new(node: NodeId, rng: SimRng) -> Self {
        Self::with_profile(node, SwitchProfile::open_vswitch(), rng)
    }

    /// Build with a custom profile (tests, slower/faster hosts).
    pub fn with_profile(node: NodeId, profile: SwitchProfile, mut rng: SimRng) -> Self {
        let pps = profile.dataplane_pps.unwrap_or(1e9);
        VSwitch {
            node,
            table: FlowTable::new(profile.flow_table_capacity),
            groups: GroupTable::new(),
            ofa: Ofa::new(&profile, rng.fork(0x0FA)),
            dataplane: FifoServer::new(4096),
            dataplane_service: FifoServer::service_time(pps),
            profile,
            stats: VSwitchStats::default(),
            failed: false,
            action_buf: Vec::new(),
            group_buf: Vec::new(),
            sampler: None,
        }
    }

    /// Switch the stats-export path to sampled telemetry: count only
    /// packets the sampler picks, and export only flows with sampled
    /// traffic (plus, at `rate ≥ 1.0`, every installed flow — that is
    /// what makes rate 1.0 reproduce exhaustive replies exactly). `rng`
    /// must be forked deterministically per vSwitch from the scenario
    /// seed so replays see the identical pick sequence.
    pub fn enable_sampling(&mut self, rate: f64, rng: SimRng) {
        self.sampler = Some(PacketSampler::new(rate, rng));
    }

    /// The configured sampling rate, if sampled telemetry is enabled.
    pub fn sampling_rate(&self) -> Option<f64> {
        self.sampler.as_ref().map(|s| s.rate())
    }

    /// The device profile.
    pub fn profile(&self) -> &SwitchProfile {
        &self.profile
    }

    /// The flow table (tests, stats collection).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Agent counters.
    pub fn ofa_stats(&self) -> crate::ofa::OfaStats {
        self.ofa.stats()
    }

    /// Data-plane counters.
    pub fn stats(&self) -> VSwitchStats {
        self.stats
    }

    /// One-way control-channel latency.
    pub fn control_latency(&self) -> SimDuration {
        self.profile.control_latency
    }

    /// Set the agent's service-time multiplier (fault injection: OFA
    /// slowdown). `1.0` restores the healthy agent.
    pub fn set_ofa_slowdown(&mut self, factor: f64) {
        self.ofa.set_slowdown(factor);
    }

    /// Process a data-plane packet.
    ///
    /// `terminates_tunnel` tells the vSwitch whether it is the endpoint of
    /// the packet's outer tunnel (the composition root knows the tunnel
    /// table); if so the packet is decapsulated before table lookup.
    pub fn handle_packet(
        &mut self,
        now: SimTime,
        in_port: PortId,
        packet: Packet,
        terminates_tunnel: bool,
    ) -> Vec<Output> {
        let mut out = Vec::new();
        self.handle_packet_into(now, in_port, packet, terminates_tunnel, &mut out);
        out
    }

    /// Process a data-plane packet, appending outputs to `out` (the hot
    /// path: no per-packet allocation with a reused buffer).
    pub fn handle_packet_into(
        &mut self,
        now: SimTime,
        in_port: PortId,
        mut packet: Packet,
        terminates_tunnel: bool,
        out: &mut Vec<Output>,
    ) {
        if self.failed {
            self.stats.dropped_dataplane += 1;
            out.push(Output::Dropped {
                reason: DropReason::NoRoute,
                packet,
            });
            return;
        }
        // Software data plane: per-packet CPU cost.
        match self.dataplane.offer(now, self.dataplane_service) {
            Admission::Accepted { .. } => {}
            Admission::Rejected => {
                self.stats.dropped_dataplane += 1;
                out.push(Output::Dropped {
                    reason: DropReason::DataPlaneOverload,
                    packet,
                });
                return;
            }
        }

        // Tunnel termination: strip outer tunnel label and inner
        // ingress-port label, remembering both for Packet-In metadata.
        let mut via_tunnel: Option<TunnelId> = None;
        let mut ingress_label: Option<u16> = None;
        if terminates_tunnel {
            if let Some(Label::Tunnel(t)) = packet.top_label() {
                packet.pop_label();
                via_tunnel = Some(t);
                self.stats.decapsulated += 1;
                if let Some(Label::IngressPort(p)) = packet.top_label() {
                    packet.pop_label();
                    ingress_label = Some(p);
                }
            }
        }

        // Copy the matched entry's actions into the reusable scratch
        // buffer (actions are `Copy`): no per-packet allocation, and the
        // table borrow ends before `execute_actions` needs `&mut self`.
        let mut actions = std::mem::take(&mut self.action_buf);
        actions.clear();
        // Telemetry sampling: the sampler advances once per matched
        // packet; a pick lands on the matched entry's sampled counters
        // (one predicted branch when disabled).
        let sampler = &mut self.sampler;
        let pick = || sampler.as_mut().is_some_and(|s| s.tick());
        let matched = match self
            .table
            .match_packet_sampling(now, &packet, in_port, pick)
        {
            Some((_, shape)) => {
                actions.extend_from_slice(&shape.apply);
                true
            }
            None => false,
        };
        if matched {
            self.execute_actions(now, in_port, packet, &actions, 0, out);
        } else {
            self.punt_to_controller(now, in_port, packet, via_tunnel, ingress_label, out);
        }
        self.action_buf = actions;
    }

    #[allow(clippy::too_many_arguments)]
    fn punt_to_controller(
        &mut self,
        now: SimTime,
        in_port: PortId,
        packet: Packet,
        via_tunnel: Option<TunnelId>,
        ingress_label: Option<u16>,
        out: &mut Vec<Output>,
    ) {
        match self.ofa.offer_packet_in(now) {
            Some(at) => out.push(Output::ToController {
                at,
                msg: SwitchToController::PacketIn {
                    packet,
                    in_port,
                    reason: PacketInReason::NoMatch,
                    via_tunnel,
                    ingress_label,
                },
            }),
            None => {
                self.stats.dropped_agent += 1;
                out.push(Output::Dropped {
                    reason: DropReason::OfaOverload,
                    packet,
                });
            }
        }
    }

    fn execute_actions(
        &mut self,
        now: SimTime,
        in_port: PortId,
        packet: Packet,
        actions: &[Action],
        depth: u8,
        out: &mut Vec<Output>,
    ) {
        let mut pkt = packet;
        for action in actions {
            match action {
                Action::Output(p) => {
                    self.stats.forwarded += 1;
                    out.push(Output::Forward {
                        out_port: *p,
                        packet: pkt,
                    });
                }
                Action::ToController => {
                    self.punt_to_controller(now, in_port, pkt, None, None, out);
                }
                Action::PushLabel(l) => pkt.push_label(*l),
                Action::PopLabel => {
                    pkt.pop_label();
                }
                Action::Drop => {
                    out.push(Output::Dropped {
                        reason: DropReason::Policy,
                        packet: pkt,
                    });
                    return;
                }
                Action::Group(g) => {
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
                            self.execute_actions(now, in_port, pkt, &acts, 1, out);
                        } else {
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
    }

    /// Process a controller message, appending its effects to `out` (the
    /// simulation reuses one buffer: no per-message allocation). A failed
    /// vSwitch is silent (heartbeat detection relies on this, §5.6).
    pub fn handle_controller_msg(
        &mut self,
        now: SimTime,
        msg: ControllerToSwitch,
        out: &mut Vec<Output>,
    ) {
        if self.failed {
            self.stats.ctrl_absorbed += 1;
            return;
        }
        let error = |kind| Output::ToController {
            at: now + SimDuration::from_millis(1),
            msg: SwitchToController::Error { kind },
        };
        match msg {
            ControllerToSwitch::FlowMod { command, .. } => match command {
                FlowModCommand::Add(entry) => {
                    let Some(at) = self.ofa.offer_rule_insert(now) else {
                        out.push(error(OfError::FlowModOverload));
                        return;
                    };
                    if self.table.insert(at, entry).is_err() {
                        out.push(error(OfError::TableFull));
                    }
                }
                FlowModCommand::DeleteByCookie(c) => {
                    self.table.remove_by_cookie(c);
                }
                FlowModCommand::DeleteExact(m) => {
                    self.table.remove_exact(&m);
                }
                FlowModCommand::DeleteAll => {
                    self.table.clear();
                }
            },
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
                // The table's length bounds the reply (exactly, when
                // exhaustive): reserve it once instead of regrowing.
                let mut stats = Vec::with_capacity(self.table.len());
                match &self.sampler {
                    None => stats.extend(self.table.iter().map(|e| FlowStat {
                        table: TableId(0),
                        matcher: e.matcher,
                        cookie: e.cookie,
                        packet_count: e.packet_count,
                        byte_count: e.byte_count,
                        duration: now.duration_since(e.installed_at),
                    })),
                    Some(s) => {
                        // Sampled export: only flows with sampled traffic,
                        // and never the cookie-0 infrastructure rules
                        // (labels, overlay defaults — the monitor cannot
                        // resolve them to a flow anyway). At rate ≥ 1.0
                        // the activity filter is disabled so the record
                        // set matches the exhaustive reply on every flow
                        // the monitor can resolve — zero-count entries
                        // included — which keeps rate-1.0 runs
                        // byte-identical to exhaustive mode.
                        let all = s.rate() >= 1.0;
                        let scale = 1.0 / s.rate();
                        let acc = &mut self.stats;
                        stats.extend(
                            self.table
                                .iter_sampled()
                                .filter(|(e, s)| e.cookie != 0 && (all || s.packets > 0))
                                .map(|(e, s)| {
                                    acc.sampled_exported += 1;
                                    let est = s.packets as f64 * scale;
                                    let truth = e.packet_count as f64;
                                    acc.est_error_ppm +=
                                        ((est - truth).abs() / truth.max(1.0) * 1e6) as u64;
                                    FlowStat {
                                        table: TableId(0),
                                        matcher: e.matcher,
                                        cookie: e.cookie,
                                        packet_count: s.packets,
                                        byte_count: s.bytes,
                                        duration: now.duration_since(e.installed_at),
                                    }
                                }),
                        );
                    }
                }
                out.push(Output::ToController {
                    at: now + SimDuration::from_micros(500),
                    msg: SwitchToController::FlowStatsReply { stats },
                });
            }
            ControllerToSwitch::EchoRequest { nonce } => out.push(Output::ToController {
                at: now + SimDuration::from_micros(200),
                msg: SwitchToController::EchoReply { nonce },
            }),
            ControllerToSwitch::Barrier { xid } => out.push(Output::ToController {
                at: now + SimDuration::from_micros(500),
                msg: SwitchToController::BarrierReply { xid },
            }),
        }
    }

    /// Expire timed-out entries, emitting FlowRemoved notifications.
    pub fn expire_flows(&mut self, now: SimTime) -> Vec<Output> {
        self.table
            .expire(now)
            .into_iter()
            .map(|e| Output::ToController {
                at: now + SimDuration::from_micros(500),
                msg: SwitchToController::FlowRemoved {
                    table: TableId(0),
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

    fn vs() -> VSwitch {
        VSwitch::new(NodeId(1), SimRng::new(3))
    }

    fn pkt(sport: u16) -> Packet {
        Packet::flow_start(
            FlowKey::tcp(IpAddr::new(1, 0, 0, 1), sport, IpAddr::new(2, 0, 0, 2), 80),
            FlowId(sport as u64),
            SimTime::ZERO,
        )
    }

    /// Deliver one controller message; returns the switch's outputs.
    fn ctrl(sw: &mut VSwitch, now: SimTime, msg: ControllerToSwitch) -> Vec<Output> {
        let mut out = Vec::new();
        sw.handle_controller_msg(now, msg, &mut out);
        out
    }

    #[test]
    fn decapsulates_and_reports_tunnel_metadata() {
        let mut v = vs();
        let mut p = pkt(1);
        p.push_label(Label::IngressPort(4));
        p.push_label(Label::Tunnel(TunnelId(9)));
        let outs = v.handle_packet(SimTime::ZERO, PortId(0), p, true);
        match &outs[0] {
            Output::ToController {
                msg:
                    SwitchToController::PacketIn {
                        packet,
                        via_tunnel,
                        ingress_label,
                        ..
                    },
                ..
            } => {
                assert_eq!(*via_tunnel, Some(TunnelId(9)));
                assert_eq!(*ingress_label, Some(4));
                assert!(packet.labels.is_empty(), "labels must be stripped");
            }
            o => panic!("expected PacketIn, got {o:?}"),
        }
        assert_eq!(v.stats().decapsulated, 1);
    }

    #[test]
    fn non_terminating_keeps_labels() {
        let mut v = vs();
        let mut p = pkt(1);
        p.push_label(Label::Tunnel(TunnelId(9)));
        let outs = v.handle_packet(SimTime::ZERO, PortId(0), p, false);
        match &outs[0] {
            Output::ToController {
                msg:
                    SwitchToController::PacketIn {
                        packet, via_tunnel, ..
                    },
                ..
            } => {
                assert_eq!(*via_tunnel, None);
                assert_eq!(packet.labels.len(), 1);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn installed_rule_forwards_into_next_tunnel() {
        let mut v = vs();
        ctrl(
            &mut v,
            SimTime::ZERO,
            ControllerToSwitch::FlowMod {
                table: TableId(0),
                command: FlowModCommand::Add(FlowRule::apply(
                    Match::exact(pkt(1).key),
                    10,
                    &[Action::push_tunnel(TunnelId(2)), Action::Output(PortId(1))],
                )),
            },
        );
        let outs = v.handle_packet(SimTime::from_millis(1), PortId(0), pkt(1), false);
        match &outs[0] {
            Output::Forward { out_port, packet } => {
                assert_eq!(*out_port, PortId(1));
                assert_eq!(packet.top_label(), Some(Label::Tunnel(TunnelId(2))));
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn high_packet_in_capacity() {
        // 5000 new flows/s is fatal for the Pica8 OFA but trivial for OVS.
        let mut v = vs();
        let mut ok = 0;
        for i in 0..5000u64 {
            let now = SimTime::from_nanos(i * 200_000);
            if matches!(
                v.handle_packet(now, PortId(0), pkt((i % 60000) as u16), false)[0],
                Output::ToController { .. }
            ) {
                ok += 1;
            }
        }
        assert_eq!(ok, 5000, "OVS agent should absorb 5000 flows/s");
    }

    #[test]
    fn dataplane_pps_bound_drops() {
        // Offer far beyond 300k pps in one burst: the 4096-deep queue fills.
        let mut v = vs();
        let mut dropped = 0;
        for i in 0..10_000u16 {
            let outs = v.handle_packet(SimTime::ZERO, PortId(0), pkt(i), false);
            if matches!(
                outs[0],
                Output::Dropped {
                    reason: DropReason::DataPlaneOverload,
                    ..
                }
            ) {
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        assert_eq!(v.stats().dropped_dataplane, dropped);
    }

    #[test]
    fn failed_vswitch_is_silent() {
        let mut v = vs();
        v.failed = true;
        assert!(ctrl(
            &mut v,
            SimTime::ZERO,
            ControllerToSwitch::EchoRequest { nonce: 1 }
        )
        .is_empty());
        let outs = v.handle_packet(SimTime::ZERO, PortId(0), pkt(1), false);
        assert!(matches!(outs[0], Output::Dropped { .. }));
    }

    #[test]
    fn stats_reply_covers_table() {
        let mut v = vs();
        ctrl(
            &mut v,
            SimTime::ZERO,
            ControllerToSwitch::FlowMod {
                table: TableId(0),
                command: FlowModCommand::Add(
                    FlowRule::apply(Match::exact(pkt(1).key), 1, &[]).with_cookie(5),
                ),
            },
        );
        let outs = ctrl(
            &mut v,
            SimTime::from_secs(1),
            ControllerToSwitch::FlowStatsRequest,
        );
        match &outs[0] {
            Output::ToController {
                msg: SwitchToController::FlowStatsReply { stats },
                ..
            } => assert_eq!(stats.len(), 1),
            o => panic!("unexpected {o:?}"),
        }
    }

    fn install(v: &mut VSwitch, sport: u16, cookie: u64) {
        ctrl(
            v,
            SimTime::ZERO,
            ControllerToSwitch::FlowMod {
                table: TableId(0),
                command: FlowModCommand::Add(
                    FlowRule::apply(
                        Match::exact(pkt(sport).key),
                        10,
                        &[Action::Output(PortId(1))],
                    )
                    .with_cookie(cookie),
                ),
            },
        );
    }

    fn stats_reply(v: &mut VSwitch, now: SimTime) -> Vec<FlowStat> {
        let outs = ctrl(v, now, ControllerToSwitch::FlowStatsRequest);
        match outs.into_iter().next() {
            Some(Output::ToController {
                msg: SwitchToController::FlowStatsReply { stats },
                ..
            }) => stats,
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn sampled_export_skips_unsampled_and_infra_rules() {
        let mut v = vs();
        // Rate small enough that 3 packets are (with this seed) never
        // sampled; a cookie-0 "infra" rule must be excluded regardless.
        v.enable_sampling(1.0 / 1024.0, SimRng::new(99));
        install(&mut v, 1, 7);
        install(&mut v, 2, 0); // infra rule
        for _ in 0..3 {
            v.handle_packet(SimTime::from_millis(1), PortId(0), pkt(1), false);
            v.handle_packet(SimTime::from_millis(1), PortId(0), pkt(2), false);
        }
        let stats = stats_reply(&mut v, SimTime::from_secs(1));
        assert!(
            stats.iter().all(|s| s.cookie != 0),
            "infra rules must never be exported by the sampled path"
        );
        for s in &stats {
            assert!(s.packet_count > 0, "zero-sample flows must be filtered");
        }
    }

    #[test]
    fn rate_one_reply_matches_exhaustive_on_resolvable_flows() {
        let build = |sampled: bool| {
            let mut v = vs();
            if sampled {
                v.enable_sampling(1.0, SimRng::new(5));
            }
            install(&mut v, 1, 7);
            install(&mut v, 2, 8); // installed but never hit
            install(&mut v, 3, 0); // infra
            for i in 0..5u64 {
                v.handle_packet(SimTime::from_millis(i), PortId(0), pkt(1), false);
            }
            stats_reply(&mut v, SimTime::from_secs(1))
        };
        let exhaustive: Vec<FlowStat> =
            build(false).into_iter().filter(|s| s.cookie != 0).collect();
        let sampled = build(true);
        assert_eq!(
            sampled, exhaustive,
            "rate 1.0 must reproduce the exhaustive record set exactly \
             (zero-count entries included)"
        );
        assert!(sampled.iter().any(|s| s.packet_count == 0));
    }
}
