//! Match fields, actions, and rule action lists.
//!
//! Every field of a [`Match`] is optional — `None` wildcards it. The
//! paper's experiments install rules keyed on (source IP, destination IP);
//! Scotch's default overlay rule is an all-wildcard match at the lowest
//! priority; the ingress-labelling rules of §5.2 match on `in_port`.

use scotch_net::{FlowKey, IpAddr, Label, Packet, PortId, Protocol, TunnelId};

/// A wildcardable OpenFlow match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Match {
    /// Ingress port at this switch.
    pub in_port: Option<PortId>,
    /// Source IPv4 address (exact).
    pub src: Option<IpAddr>,
    /// Destination IPv4 address (exact).
    pub dst: Option<IpAddr>,
    /// Transport protocol.
    pub proto: Option<Protocol>,
    /// Source transport port.
    pub sport: Option<u16>,
    /// Destination transport port.
    pub dport: Option<u16>,
    /// Top-of-stack label. `Some(None)` matches "no label present";
    /// `Some(Some(l))` matches exactly `l`; `None` wildcards the stack.
    pub top_label: Option<Option<Label>>,
}

impl Match {
    /// Match anything (the table-miss / default rule).
    pub const ANY: Match = Match {
        in_port: None,
        src: None,
        dst: None,
        proto: None,
        sport: None,
        dport: None,
        top_label: None,
    };

    /// Exact match on a flow's full 5-tuple.
    pub fn exact(key: FlowKey) -> Match {
        Match {
            src: Some(key.src),
            dst: Some(key.dst),
            proto: Some(key.proto),
            sport: Some(key.sport),
            dport: Some(key.dport),
            ..Match::ANY
        }
    }

    /// The (src, dst) pair match the paper's controller installs ("the
    /// OpenFlow controller installs the flow rules at the switch using both
    /// the source and destination IP addresses", §3.2).
    pub fn src_dst(src: IpAddr, dst: IpAddr) -> Match {
        Match {
            src: Some(src),
            dst: Some(dst),
            ..Match::ANY
        }
    }

    /// Match packets entering through one port.
    pub fn on_port(port: PortId) -> Match {
        Match {
            in_port: Some(port),
            ..Match::ANY
        }
    }

    /// Builder: additionally require the given ingress port.
    pub fn with_in_port(mut self, port: PortId) -> Match {
        self.in_port = Some(port);
        self
    }

    /// Builder: additionally require the given top-of-stack label.
    pub fn with_top_label(mut self, label: Option<Label>) -> Match {
        self.top_label = Some(label);
        self
    }

    /// Does this match cover `packet` arriving on `in_port`?
    pub fn matches(&self, packet: &Packet, in_port: PortId) -> bool {
        if let Some(p) = self.in_port {
            if p != in_port {
                return false;
            }
        }
        if let Some(s) = self.src {
            if s != packet.key.src {
                return false;
            }
        }
        if let Some(d) = self.dst {
            if d != packet.key.dst {
                return false;
            }
        }
        if let Some(pr) = self.proto {
            if pr != packet.key.proto {
                return false;
            }
        }
        if let Some(sp) = self.sport {
            if sp != packet.key.sport {
                return false;
            }
        }
        if let Some(dp) = self.dport {
            if dp != packet.key.dport {
                return false;
            }
        }
        if let Some(want) = self.top_label {
            if want != packet.top_label() {
                return false;
            }
        }
        true
    }

    /// Number of specified (non-wildcard) fields; used only in diagnostics.
    pub fn specificity(&self) -> u32 {
        self.in_port.is_some() as u32
            + self.src.is_some() as u32
            + self.dst.is_some() as u32
            + self.proto.is_some() as u32
            + self.sport.is_some() as u32
            + self.dport.is_some() as u32
            + self.top_label.is_some() as u32
    }
}

/// An action applied to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Emit on the given local port.
    Output(PortId),
    /// Punt to the controller (becomes a Packet-In through the OFA).
    ToController,
    /// Hand to a group-table entry (Scotch's load-balancing select group).
    Group(super::group::GroupId),
    /// Push a label (tunnel encapsulation / ingress-port labelling).
    PushLabel(Label),
    /// Pop the top label (tunnel decapsulation).
    PopLabel,
    /// Explicitly drop.
    Drop,
}

impl Action {
    /// Convenience: push the outer label for a tunnel.
    pub fn push_tunnel(id: TunnelId) -> Action {
        Action::PushLabel(Label::Tunnel(id))
    }

    /// Convenience: push the inner ingress-port label of §5.2.
    pub fn push_ingress(port: PortId) -> Action {
        Action::PushLabel(Label::IngressPort(port.0))
    }
}

/// A rule's apply-actions list, inline and fixed-capacity.
///
/// Scotch's longest rule action list is two actions (push a tunnel label,
/// output), so four slots stored by value cover every rule with room to
/// spare: installing a rule never heap-allocates its actions and a
/// [`crate::FlowEntry`] stays a flat value. Like the packet label stack,
/// pushing past the capacity panics — it is a planning bug, not a resource
/// limit. The wire decoder checks a decoded list's length against
/// [`ActionList::CAPACITY`] first and reports an error instead.
#[derive(Clone, Copy)]
pub struct ActionList {
    len: u8,
    slots: [Action; ActionList::CAPACITY],
}

impl ActionList {
    /// Maximum number of actions one list holds.
    pub const CAPACITY: usize = 4;

    /// An empty list.
    pub const fn new() -> Self {
        ActionList {
            len: 0,
            slots: [Action::Drop; ActionList::CAPACITY],
        }
    }

    /// A list holding `actions`. Panics beyond [`ActionList::CAPACITY`].
    pub fn from_slice(actions: &[Action]) -> Self {
        let mut list = ActionList::new();
        for a in actions {
            list.push(*a);
        }
        list
    }

    /// Append an action. Panics beyond [`ActionList::CAPACITY`].
    fn push(&mut self, action: Action) {
        assert!(
            (self.len as usize) < ActionList::CAPACITY,
            "action list overflow: a rule holds at most {} actions",
            ActionList::CAPACITY
        );
        self.slots[self.len as usize] = action;
        self.len += 1;
    }

    /// The actions in order.
    pub fn as_slice(&self) -> &[Action] {
        &self.slots[..self.len as usize]
    }
}

impl Default for ActionList {
    fn default() -> Self {
        ActionList::new()
    }
}

impl core::ops::Deref for ActionList {
    type Target = [Action];

    fn deref(&self) -> &[Action] {
        self.as_slice()
    }
}

impl PartialEq for ActionList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ActionList {}

impl core::fmt::Debug for ActionList {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_net::{FlowId, TunnelId};
    use scotch_sim::SimTime;

    fn pkt() -> Packet {
        Packet::flow_start(
            FlowKey::tcp(IpAddr::new(1, 0, 0, 1), 1000, IpAddr::new(2, 0, 0, 2), 80),
            FlowId(1),
            SimTime::ZERO,
        )
    }

    #[test]
    fn any_matches_everything() {
        assert!(Match::ANY.matches(&pkt(), PortId(0)));
        assert!(Match::ANY.matches(&pkt(), PortId(9)));
        assert_eq!(Match::ANY.specificity(), 0);
    }

    #[test]
    fn exact_matches_only_its_flow() {
        let p = pkt();
        let m = Match::exact(p.key);
        assert!(m.matches(&p, PortId(0)));
        let mut other = p;
        other.key.sport = 1001;
        assert!(!m.matches(&other, PortId(0)));
        assert_eq!(m.specificity(), 5);
    }

    #[test]
    fn src_dst_ignores_ports() {
        let p = pkt();
        let m = Match::src_dst(p.key.src, p.key.dst);
        let mut other = p;
        other.key.sport = 9999;
        assert!(m.matches(&other, PortId(3)));
        let mut wrong_dst = p;
        wrong_dst.key.dst = IpAddr::new(9, 9, 9, 9);
        assert!(!m.matches(&wrong_dst, PortId(3)));
    }

    #[test]
    fn in_port_discriminates() {
        let m = Match::on_port(PortId(2));
        assert!(m.matches(&pkt(), PortId(2)));
        assert!(!m.matches(&pkt(), PortId(3)));
    }

    #[test]
    fn label_matching_three_ways() {
        let mut labelled = pkt();
        labelled.push_label(Label::Tunnel(TunnelId(4)));
        let bare = pkt();

        // Wildcard: matches both.
        assert!(Match::ANY.matches(&labelled, PortId(0)));
        assert!(Match::ANY.matches(&bare, PortId(0)));

        // Require no label.
        let no_label = Match::ANY.with_top_label(None);
        assert!(!no_label.matches(&labelled, PortId(0)));
        assert!(no_label.matches(&bare, PortId(0)));

        // Require a specific label.
        let tun = Match::ANY.with_top_label(Some(Label::Tunnel(TunnelId(4))));
        assert!(tun.matches(&labelled, PortId(0)));
        assert!(!tun.matches(&bare, PortId(0)));
        let other = Match::ANY.with_top_label(Some(Label::Tunnel(TunnelId(5))));
        assert!(!other.matches(&labelled, PortId(0)));
    }

    #[test]
    fn builders_compose() {
        let m = Match::src_dst(IpAddr::new(1, 0, 0, 1), IpAddr::new(2, 0, 0, 2))
            .with_in_port(PortId(1))
            .with_top_label(None);
        assert_eq!(m.specificity(), 4);
        assert!(m.matches(&pkt(), PortId(1)));
        assert!(!m.matches(&pkt(), PortId(0)));
    }

    #[test]
    fn action_list_holds_four_inline() {
        let mut l = ActionList::new();
        assert!(l.is_empty());
        for p in 0..4 {
            l.push(Action::Output(PortId(p)));
        }
        assert_eq!(l.len(), 4);
        assert_eq!(l[3], Action::Output(PortId(3)));
        assert_eq!(
            ActionList::from_slice(&[Action::PopLabel, Action::Drop]),
            ActionList::from_slice(&[Action::PopLabel, Action::Drop])
        );
        assert_ne!(
            ActionList::from_slice(&[Action::Drop]),
            ActionList::from_slice(&[])
        );
        assert_eq!(
            format!("{:?}", ActionList::from_slice(&[Action::Drop])),
            "[Drop]"
        );
    }

    #[test]
    #[should_panic(expected = "action list overflow")]
    fn action_list_panics_on_a_fifth_action() {
        ActionList::from_slice(&[Action::Drop; 5]);
    }

    #[test]
    fn action_helpers() {
        assert_eq!(
            Action::push_tunnel(TunnelId(3)),
            Action::PushLabel(Label::Tunnel(TunnelId(3)))
        );
        assert_eq!(
            Action::push_ingress(PortId(7)),
            Action::PushLabel(Label::IngressPort(7))
        );
    }
}
