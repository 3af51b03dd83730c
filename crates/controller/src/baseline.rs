//! The baseline reactive controller (no Scotch).
//!
//! Equivalent to the plain Ryu behaviour in the paper's §3 experiments:
//! every table-miss Packet-In triggers path computation, per-flow rule
//! installation along the path (match on source+destination IP, §3.2,
//! 10-second timeout, §6.1) and a Packet-Out returning the first packet to
//! the data plane.

use crate::addressbook::AddressBook;
use crate::flowdb::{FlowInfoDatabase, FlowPath};
use crate::monitor::PacketInMonitor;
use crate::Command;
use scotch_net::{NodeId, NodeKind, Packet, PortId, Topology};
use scotch_openflow::{Action, ControllerToSwitch, FlowModCommand, FlowRule, Match, TableId};
use scotch_sim::{SimDuration, SimTime};

/// Priority of per-flow physical-path rules. Must exceed Scotch's overlay
/// rules (the paper's red-over-green priority ordering, Fig. 8).
pub const PHYSICAL_RULE_PRIORITY: u16 = 100;

/// Baseline behaviour knobs.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Idle timeout on installed per-flow rules (the paper uses 10 s in
    /// §6.1).
    pub rule_idle_timeout: SimDuration,
    /// Also install the reverse-direction rules at admission (needed for
    /// request/response workloads; the paper's DDoS experiments are
    /// one-directional).
    pub install_reverse: bool,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            rule_idle_timeout: SimDuration::from_secs(10),
            install_reverse: false,
        }
    }
}

/// Counters for the baseline controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineStats {
    /// Packet-Ins processed.
    pub packet_ins: u64,
    /// Flows admitted onto the physical network.
    pub admitted: u64,
    /// Packet-Ins for destinations the controller cannot place.
    pub unroutable: u64,
}

/// A plain reactive controller.
#[derive(Debug, Clone)]
pub struct BaselineController {
    /// Behaviour configuration.
    pub config: BaselineConfig,
    /// Host directory.
    pub book: AddressBook,
    /// Flow provenance records.
    pub flowdb: FlowInfoDatabase,
    /// Packet-In rate monitoring.
    pub monitor: PacketInMonitor,
    stats: BaselineStats,
    cookie_seq: u64,
}

impl BaselineController {
    /// A controller over the given host directory.
    pub fn new(book: AddressBook, config: BaselineConfig) -> Self {
        BaselineController {
            config,
            book,
            flowdb: FlowInfoDatabase::new(),
            monitor: PacketInMonitor::new(SimDuration::from_secs(1)),
            stats: BaselineStats::default(),
            cookie_seq: 1,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BaselineStats {
        self.stats
    }

    /// Allocate a fresh rule cookie.
    pub fn next_cookie(&mut self) -> u64 {
        let c = self.cookie_seq;
        self.cookie_seq += 1;
        c
    }

    /// Handle a table-miss Packet-In from `from_switch`.
    pub fn handle_packet_in(
        &mut self,
        now: SimTime,
        topo: &Topology,
        from_switch: NodeId,
        in_port: PortId,
        packet: Packet,
    ) -> Vec<Command> {
        self.stats.packet_ins += 1;
        self.monitor.record(from_switch, now);

        let Some(att) = self.book.locate(packet.key.dst) else {
            self.stats.unroutable += 1;
            return Vec::new();
        };
        // Prefer the full host-to-host path (so reverse rules reach the
        // first-hop switch); spoofed/unknown sources fall back to a path
        // from the punting switch.
        let path = self
            .book
            .locate(packet.key.src)
            .filter(|src_att| src_att.switch == from_switch)
            .and_then(|src_att| topo.shortest_path(src_att.host, att.host))
            .or_else(|| topo.shortest_path(from_switch, att.host));
        let Some(path) = path else {
            self.stats.unroutable += 1;
            return Vec::new();
        };

        let cookie = self.next_cookie();
        let mut commands = plan_flow_rules(
            topo,
            &path,
            Match::src_dst(packet.key.src, packet.key.dst),
            cookie,
            self.config.rule_idle_timeout,
        );
        if self.config.install_reverse {
            let mut rev = path.clone();
            rev.reverse();
            commands.extend(plan_flow_rules(
                topo,
                &rev,
                Match::src_dst(packet.key.dst, packet.key.src),
                cookie,
                self.config.rule_idle_timeout,
            ));
        }

        // Return the buffered first packet to the data plane at the
        // punting switch.
        if let Some(pos) = path.iter().position(|n| *n == from_switch) {
            if let Some(next) = path.get(pos + 1) {
                if let Some(out_port) = topo.port_towards(from_switch, *next) {
                    commands.push(Command::new(
                        from_switch,
                        ControllerToSwitch::PacketOut { packet, out_port },
                    ));
                }
            }
        }

        self.flowdb
            .record(packet.key, from_switch, in_port, now, FlowPath::Physical);
        self.stats.admitted += 1;
        commands
    }
}

/// Plan the per-switch FlowMods that pin `matcher` along `path`.
///
/// Rules are emitted for every switch-kind node on the path; middlebox and
/// host nodes forward implicitly (a middlebox's output port is its other
/// port; hosts consume). When a switch appears more than once on the path
/// (middlebox hairpin, §5.4: traffic leaves to the middlebox and comes
/// back), each occurrence's rule additionally matches the arrival port and
/// gets a higher priority, so the hairpin cannot loop. Shared by the
/// baseline controller and Scotch's migration planner (§5.3) — migration
/// reverses the emission order so the first-hop rule lands last.
pub fn plan_flow_rules(
    topo: &Topology,
    path: &[NodeId],
    matcher: Match,
    cookie: u64,
    idle_timeout: SimDuration,
) -> Vec<Command> {
    let mut commands = Vec::new();
    let mut seen = scotch_sim::FxHashMap::default();
    for (i, node) in path.iter().enumerate() {
        if !matches!(
            topo.kind(*node),
            NodeKind::PhysicalSwitch | NodeKind::VSwitch
        ) {
            continue;
        }
        let Some(next) = path.get(i + 1) else {
            continue;
        };
        let Some(out_port) = topo.port_towards(*node, *next) else {
            continue;
        };
        let occurrence = *seen.entry(*node).and_modify(|c| *c += 1).or_insert(0u16);
        let mut m = matcher;
        if occurrence > 0 {
            // Hairpin re-entry: disambiguate by arrival port. A middlebox
            // is entered on the switch's first link to it and returns on
            // the last (the middlebox exits on its other port).
            if let Some(prev) = i.checked_sub(1).map(|j| path[j]) {
                if let Some(in_port) = topo.ports_towards(*node, prev).last().copied() {
                    m = m.with_in_port(in_port);
                }
            }
        }
        let entry = FlowRule::apply(
            m,
            PHYSICAL_RULE_PRIORITY + occurrence,
            &[Action::Output(out_port)],
        )
        .with_cookie(cookie)
        .with_idle_timeout(idle_timeout);
        commands.push(Command::new(
            *node,
            ControllerToSwitch::FlowMod {
                table: TableId(0),
                command: FlowModCommand::Add(entry),
            },
        ));
    }
    commands
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_net::{FlowId, FlowKey, IpAddr, LinkSpec};

    /// client - s1 - s2 - server
    fn setup() -> (Topology, AddressBook, NodeId, NodeId, NodeId, NodeId) {
        let mut topo = Topology::new();
        let client = topo.add_node(NodeKind::Host, "client");
        let s1 = topo.add_node(NodeKind::PhysicalSwitch, "s1");
        let s2 = topo.add_node(NodeKind::PhysicalSwitch, "s2");
        let server = topo.add_node(NodeKind::Host, "server");
        topo.add_duplex_link(client, s1, LinkSpec::gig());
        topo.add_duplex_link(s1, s2, LinkSpec::tengig());
        topo.add_duplex_link(s2, server, LinkSpec::gig());
        let mut book = AddressBook::new();
        book.register(&topo, IpAddr::new(10, 0, 0, 1), client, s1);
        book.register(&topo, IpAddr::new(10, 0, 0, 2), server, s2);
        (topo, book, client, s1, s2, server)
    }

    fn pkt() -> Packet {
        Packet::flow_start(
            FlowKey::tcp(IpAddr::new(10, 0, 0, 1), 1234, IpAddr::new(10, 0, 0, 2), 80),
            FlowId(1),
            SimTime::ZERO,
        )
    }

    #[test]
    fn packet_in_installs_path_and_packets_out() {
        let (topo, book, _c, s1, s2, _srv) = setup();
        let mut ctl = BaselineController::new(book, BaselineConfig::default());
        let in_port = topo.port_towards(s1, NodeId(0)).unwrap();
        let cmds = ctl.handle_packet_in(SimTime::ZERO, &topo, s1, in_port, pkt());
        // Two FlowMods (s1, s2) + one PacketOut at s1.
        let flowmods: Vec<_> = cmds
            .iter()
            .filter(|c| matches!(c.msg, ControllerToSwitch::FlowMod { .. }))
            .collect();
        let packet_outs: Vec<_> = cmds
            .iter()
            .filter(|c| matches!(c.msg, ControllerToSwitch::PacketOut { .. }))
            .collect();
        assert_eq!(flowmods.len(), 2);
        assert_eq!(flowmods[0].to, s1);
        assert_eq!(flowmods[1].to, s2);
        assert_eq!(packet_outs.len(), 1);
        assert_eq!(packet_outs[0].to, s1);
        assert_eq!(ctl.stats().admitted, 1);
        assert_eq!(ctl.flowdb.len(), 1);
    }

    #[test]
    fn reverse_rules_double_the_flowmods() {
        let (topo, book, _c, s1, _s2, _srv) = setup();
        let mut ctl = BaselineController::new(
            book,
            BaselineConfig {
                install_reverse: true,
                ..Default::default()
            },
        );
        let cmds = ctl.handle_packet_in(SimTime::ZERO, &topo, s1, PortId(0), pkt());
        let flowmods = cmds
            .iter()
            .filter(|c| matches!(c.msg, ControllerToSwitch::FlowMod { .. }))
            .count();
        assert_eq!(flowmods, 4);
    }

    #[test]
    fn unknown_destination_is_unroutable() {
        let (topo, book, _c, s1, _s2, _srv) = setup();
        let mut ctl = BaselineController::new(book, BaselineConfig::default());
        let mut p = pkt();
        p.key.dst = IpAddr::new(99, 99, 99, 99);
        let cmds = ctl.handle_packet_in(SimTime::ZERO, &topo, s1, PortId(0), p);
        assert!(cmds.is_empty());
        assert_eq!(ctl.stats().unroutable, 1);
    }

    #[test]
    fn monitor_sees_packet_ins() {
        let (topo, book, _c, s1, _s2, _srv) = setup();
        let mut ctl = BaselineController::new(book, BaselineConfig::default());
        for i in 0..50 {
            let mut p = pkt();
            p.key.sport = 2000 + i;
            ctl.handle_packet_in(SimTime::from_millis(i as u64 * 10), &topo, s1, PortId(0), p);
        }
        assert_eq!(ctl.monitor.rate(s1, SimTime::from_millis(500)), 50.0);
    }

    #[test]
    fn plan_flow_rules_emits_correct_ports() {
        let (topo, _book, client, s1, s2, server) = setup();
        let path = vec![client, s1, s2, server];
        let cmds = plan_flow_rules(&topo, &path, Match::ANY, 7, SimDuration::from_secs(10));
        assert_eq!(cmds.len(), 2);
        for c in &cmds {
            let ControllerToSwitch::FlowMod {
                command: FlowModCommand::Add(e),
                ..
            } = &c.msg
            else {
                panic!()
            };
            assert_eq!(e.cookie, 7);
            let Action::Output(p) = e.first_output().unwrap() else {
                panic!()
            };
            // Port leads to the next node on the path.
            let pos = path.iter().position(|n| *n == c.to).unwrap();
            assert_eq!(topo.port_towards(c.to, path[pos + 1]).unwrap(), p);
        }
    }

    #[test]
    fn cookies_are_unique_per_flow() {
        let (topo, book, _c, s1, _s2, _srv) = setup();
        let mut ctl = BaselineController::new(book, BaselineConfig::default());
        let c1 = ctl.handle_packet_in(SimTime::ZERO, &topo, s1, PortId(0), pkt());
        let mut p2 = pkt();
        p2.key.sport = 1235;
        let c2 = ctl.handle_packet_in(SimTime::ZERO, &topo, s1, PortId(0), p2);
        let cookie = |cmds: &[Command]| -> u64 {
            cmds.iter()
                .find_map(|c| match &c.msg {
                    ControllerToSwitch::FlowMod {
                        command: FlowModCommand::Add(e),
                        ..
                    } => Some(e.cookie),
                    _ => None,
                })
                .unwrap()
        };
        assert_ne!(cookie(&c1), cookie(&c2));
    }
}
