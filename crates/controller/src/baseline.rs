//! Per-flow rule planning along a physical path.
//!
//! The plain Ryu behaviour of the paper's §3 experiments (the reactive
//! baseline, no Scotch) installs per-flow rules along the path of every
//! table-miss Packet-In (match on source+destination IP, §3.2, 10-second
//! timeout, §6.1). The simulator runs that behaviour as `ScotchApp` in
//! `ControllerMode::Baseline`; this module holds the rule planner it
//! shares with Scotch's physical admission and migration (§5.3).

use crate::Command;
use scotch_net::{NodeId, NodeKind, Topology};
use scotch_openflow::{Action, ControllerToSwitch, FlowModCommand, FlowRule, Match, TableId};
use scotch_sim::SimDuration;

/// Priority of per-flow physical-path rules. Must exceed Scotch's overlay
/// rules (the paper's red-over-green priority ordering, Fig. 8).
pub const PHYSICAL_RULE_PRIORITY: u16 = 100;

/// Plan the per-switch FlowMods that pin `matcher` along `path`.
///
/// Rules are emitted for every switch-kind node on the path; middlebox and
/// host nodes forward implicitly (a middlebox's output port is its other
/// port; hosts consume). When a switch appears more than once on the path
/// (middlebox hairpin, §5.4: traffic leaves to the middlebox and comes
/// back), each occurrence's rule additionally matches the arrival port and
/// gets a higher priority, so the hairpin cannot loop. Shared by physical
/// admission (baseline and Scotch) and the migration planner (§5.3) —
/// migration reverses the emission order so the first-hop rule lands last.
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
    use scotch_net::LinkSpec;

    #[test]
    fn plan_flow_rules_emits_correct_ports() {
        // client - s1 - s2 - server
        let mut topo = Topology::new();
        let client = topo.add_node(NodeKind::Host, "client");
        let s1 = topo.add_node(NodeKind::PhysicalSwitch, "s1");
        let s2 = topo.add_node(NodeKind::PhysicalSwitch, "s2");
        let server = topo.add_node(NodeKind::Host, "server");
        topo.add_duplex_link(client, s1, LinkSpec::gig());
        topo.add_duplex_link(s1, s2, LinkSpec::tengig());
        topo.add_duplex_link(s2, server, LinkSpec::gig());
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
}
