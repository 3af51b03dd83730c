//! Match fields, actions, and rule action lists.
//!
//! Every field of a [`Match`] is optional — an unset field wildcards it. The
//! paper's experiments install rules keyed on (source IP, destination IP);
//! Scotch's default overlay rule is an all-wildcard match at the lowest
//! priority; the ingress-labelling rules of §5.2 match on `in_port`.

use scotch_net::{FlowKey, IpAddr, Label, Packet, PortId, Protocol, TunnelId};

/// A wildcardable OpenFlow match, packed into 24 bytes.
///
/// The fields are stored raw next to a presence bitmask instead of as
/// `Option`s (which would double most of them). A wildcarded field is always
/// stored as its zero value, so the derived `Eq`/`Hash` compare exactly the
/// specified fields. Read fields through the `Option`-returning accessors and
/// set them with the `with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Match {
    src: IpAddr,
    dst: IpAddr,
    /// The required top-of-stack label when [`Match::TOP_LABEL`] is set:
    /// `None` requires an unlabelled packet.
    top_label: Option<Label>,
    in_port: PortId,
    sport: u16,
    dport: u16,
    proto: Protocol,
    /// Which fields are specified (the `Match::IN_PORT`.. bits).
    present: u8,
}

impl Match {
    const IN_PORT: u8 = 1 << 0;
    const SRC: u8 = 1 << 1;
    const DST: u8 = 1 << 2;
    const PROTO: u8 = 1 << 3;
    const SPORT: u8 = 1 << 4;
    const DPORT: u8 = 1 << 5;
    const TOP_LABEL: u8 = 1 << 6;

    /// Match anything (the table-miss / default rule).
    pub const ANY: Match = Match {
        src: IpAddr(0),
        dst: IpAddr(0),
        top_label: None,
        in_port: PortId(0),
        sport: 0,
        dport: 0,
        proto: Protocol::Tcp,
        present: 0,
    };

    /// Exact match on a flow's full 5-tuple.
    pub fn exact(key: FlowKey) -> Match {
        Match::src_dst(key.src, key.dst)
            .with_proto(key.proto)
            .with_sport(key.sport)
            .with_dport(key.dport)
    }

    /// The (src, dst) pair match the paper's controller installs ("the
    /// OpenFlow controller installs the flow rules at the switch using both
    /// the source and destination IP addresses", §3.2).
    pub fn src_dst(src: IpAddr, dst: IpAddr) -> Match {
        Match::ANY.with_src(src).with_dst(dst)
    }

    /// Match packets entering through one port.
    pub fn on_port(port: PortId) -> Match {
        Match::ANY.with_in_port(port)
    }

    /// Builder: additionally require the given ingress port.
    pub fn with_in_port(mut self, port: PortId) -> Match {
        self.in_port = port;
        self.present |= Match::IN_PORT;
        self
    }

    /// Builder: additionally require the given source address.
    pub fn with_src(mut self, src: IpAddr) -> Match {
        self.src = src;
        self.present |= Match::SRC;
        self
    }

    /// Builder: additionally require the given destination address.
    pub fn with_dst(mut self, dst: IpAddr) -> Match {
        self.dst = dst;
        self.present |= Match::DST;
        self
    }

    /// Builder: additionally require the given transport protocol.
    pub fn with_proto(mut self, proto: Protocol) -> Match {
        self.proto = proto;
        self.present |= Match::PROTO;
        self
    }

    /// Builder: additionally require the given source transport port.
    pub fn with_sport(mut self, port: u16) -> Match {
        self.sport = port;
        self.present |= Match::SPORT;
        self
    }

    /// Builder: additionally require the given destination transport port.
    pub fn with_dport(mut self, port: u16) -> Match {
        self.dport = port;
        self.present |= Match::DPORT;
        self
    }

    /// Builder: additionally require the given top-of-stack label (`None`
    /// requires an unlabelled packet).
    pub fn with_top_label(mut self, label: Option<Label>) -> Match {
        self.top_label = label;
        self.present |= Match::TOP_LABEL;
        self
    }

    fn has(&self, bit: u8) -> bool {
        self.present & bit != 0
    }

    fn field<T>(&self, bit: u8, value: T) -> Option<T> {
        self.has(bit).then_some(value)
    }

    /// Required ingress port, if specified.
    pub fn in_port(&self) -> Option<PortId> {
        self.field(Match::IN_PORT, self.in_port)
    }

    /// Required source address, if specified.
    pub fn src(&self) -> Option<IpAddr> {
        self.field(Match::SRC, self.src)
    }

    /// Required destination address, if specified.
    pub fn dst(&self) -> Option<IpAddr> {
        self.field(Match::DST, self.dst)
    }

    /// Required transport protocol, if specified.
    pub fn proto(&self) -> Option<Protocol> {
        self.field(Match::PROTO, self.proto)
    }

    /// Required source transport port, if specified.
    pub fn sport(&self) -> Option<u16> {
        self.field(Match::SPORT, self.sport)
    }

    /// Required destination transport port, if specified.
    pub fn dport(&self) -> Option<u16> {
        self.field(Match::DPORT, self.dport)
    }

    /// Required top-of-stack label. `Some(None)` matches "no label
    /// present"; `Some(Some(l))` matches exactly `l`; `None` wildcards the
    /// stack.
    pub fn top_label(&self) -> Option<Option<Label>> {
        self.field(Match::TOP_LABEL, self.top_label)
    }

    /// The `(src, dst)` pair when both addresses are specified (the flow
    /// table's index key).
    pub(crate) fn src_dst_key(&self) -> Option<(IpAddr, IpAddr)> {
        const BOTH: u8 = Match::SRC | Match::DST;
        (self.present & BOTH == BOTH).then_some((self.src, self.dst))
    }

    /// Does this match cover `packet` arriving on `in_port`?
    pub fn matches(&self, packet: &Packet, in_port: PortId) -> bool {
        let k = &packet.key;
        (!self.has(Match::IN_PORT) || self.in_port == in_port)
            && (!self.has(Match::SRC) || self.src == k.src)
            && (!self.has(Match::DST) || self.dst == k.dst)
            && (!self.has(Match::PROTO) || self.proto == k.proto)
            && (!self.has(Match::SPORT) || self.sport == k.sport)
            && (!self.has(Match::DPORT) || self.dport == k.dport)
            && (!self.has(Match::TOP_LABEL) || self.top_label == packet.top_label())
    }

    /// Number of specified (non-wildcard) fields; used only in diagnostics.
    pub fn specificity(&self) -> u32 {
        self.present.count_ones()
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
/// [`crate::FlowRule`] stays a flat value. Like the packet label stack,
/// pushing past the capacity panics — it is a planning bug, not a resource
/// limit.
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

impl core::hash::Hash for ActionList {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl core::fmt::Debug for ActionList {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scotch_net::FlowId;
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

    /// The `Option`-per-field match the packed [`Match`] replaced: the
    /// reference its accessors and predicate must reproduce.
    #[derive(Debug, Clone, Copy)]
    struct OptionMatch {
        in_port: Option<PortId>,
        src: Option<IpAddr>,
        dst: Option<IpAddr>,
        proto: Option<Protocol>,
        sport: Option<u16>,
        dport: Option<u16>,
        top_label: Option<Option<Label>>,
    }

    impl OptionMatch {
        fn matches(&self, packet: &Packet, in_port: PortId) -> bool {
            let k = &packet.key;
            self.in_port.is_none_or(|p| p == in_port)
                && self.src.is_none_or(|s| s == k.src)
                && self.dst.is_none_or(|d| d == k.dst)
                && self.proto.is_none_or(|p| p == k.proto)
                && self.sport.is_none_or(|p| p == k.sport)
                && self.dport.is_none_or(|p| p == k.dport)
                && self.top_label.is_none_or(|l| l == packet.top_label())
        }

        fn packed(&self) -> Match {
            let mut m = Match::ANY;
            if let Some(p) = self.in_port {
                m = m.with_in_port(p);
            }
            if let Some(ip) = self.src {
                m = m.with_src(ip);
            }
            if let Some(ip) = self.dst {
                m = m.with_dst(ip);
            }
            if let Some(p) = self.proto {
                m = m.with_proto(p);
            }
            if let Some(p) = self.sport {
                m = m.with_sport(p);
            }
            if let Some(p) = self.dport {
                m = m.with_dport(p);
            }
            if let Some(l) = self.top_label {
                m = m.with_top_label(l);
            }
            m
        }
    }

    fn proto_of(sel: u8) -> Protocol {
        [Protocol::Tcp, Protocol::Udp, Protocol::Icmp][sel as usize % 3]
    }

    fn label_of(sel: u8) -> Option<Label> {
        match sel {
            0 => None,
            1 => Some(Label::Tunnel(TunnelId(0))),
            2 => Some(Label::Tunnel(TunnelId(1))),
            _ => Some(Label::IngressPort(0)),
        }
    }

    proptest! {
        /// The packed match reads back the fields it was built from,
        /// decides every packet exactly like the `Option`-field predicate,
        /// and compares equal exactly when the fields do. Small field
        /// domains make hits and near misses common.
        #[test]
        fn prop_packed_match_equals_option_fields(
            ports in (proptest::option::of(0u16..3), proptest::option::of(0u16..3), proptest::option::of(0u16..3)),
            addrs in (proptest::option::of(0u32..3), proptest::option::of(0u32..3)),
            proto in proptest::option::of(0u8..3),
            label in proptest::option::of(0u8..4),
            other_sel in 0u8..7,
            probes in proptest::collection::vec((0u16..3, 0u32..3, 0u32..3, 0u8..3, 0u16..9, 0u8..4), 1..24),
        ) {
            let reference = OptionMatch {
                in_port: ports.0.map(PortId),
                src: addrs.0.map(IpAddr),
                dst: addrs.1.map(IpAddr),
                proto: proto.map(proto_of),
                sport: ports.1,
                dport: ports.2,
                top_label: label.map(label_of),
            };
            let m = reference.packed();
            prop_assert_eq!(m.in_port(), reference.in_port);
            prop_assert_eq!(m.src(), reference.src);
            prop_assert_eq!(m.dst(), reference.dst);
            prop_assert_eq!(m.proto(), reference.proto);
            prop_assert_eq!(m.sport(), reference.sport);
            prop_assert_eq!(m.dport(), reference.dport);
            prop_assert_eq!(m.top_label(), reference.top_label);
            let both = reference.src.zip(reference.dst);
            prop_assert_eq!(m.src_dst_key(), both);
            prop_assert_eq!(m.specificity() as usize, [
                reference.in_port.is_some(), reference.src.is_some(), reference.dst.is_some(),
                reference.proto.is_some(), reference.sport.is_some(), reference.dport.is_some(),
                reference.top_label.is_some(),
            ].iter().filter(|&&b| b).count());
            for (in_port, src, dst, proto, ports, label) in probes {
                let mut key = FlowKey::tcp(IpAddr(src), ports % 3, IpAddr(dst), ports / 3);
                key.proto = proto_of(proto);
                let mut packet = Packet::flow_start(key, FlowId(1), SimTime::ZERO);
                if let Some(l) = label_of(label) {
                    packet.push_label(l);
                }
                prop_assert_eq!(
                    m.matches(&packet, PortId(in_port)),
                    reference.matches(&packet, PortId(in_port))
                );
            }
            // Dropping or changing one field breaks equality; rebuilding
            // the same fields restores it (wildcards hold no stale value).
            prop_assert_eq!(reference.packed(), m);
            let mut other = reference;
            match other_sel {
                0 => other.in_port = other.in_port.xor(Some(PortId(0))),
                1 => other.src = other.src.xor(Some(IpAddr(0))),
                2 => other.dst = other.dst.xor(Some(IpAddr(0))),
                3 => other.proto = other.proto.xor(Some(Protocol::Tcp)),
                4 => other.sport = other.sport.xor(Some(0)),
                5 => other.dport = other.dport.xor(Some(0)),
                _ => other.top_label = other.top_label.xor(Some(None)),
            }
            prop_assert_ne!(other.packed(), m);
        }
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
