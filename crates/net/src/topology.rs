//! The network graph: nodes, ports, links, and path computation.
//!
//! The topology is the substrate both for the *physical* SDN network and
//! for the Scotch overlay's tunnels (which ride the same links). The
//! OpenFlow controller is **not** a topology node: per the testbed setup
//! (Fig. 2) it hangs off each switch's management port, which we model as a
//! dedicated control channel in `scotch-switch` rather than as data-plane
//! links.

use crate::link::{LinkId, LinkSpec, LinkState, TxResult};
use scotch_sim::{FxHashMap, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Identifier of a node (switch, vSwitch, host, middlebox).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a port local to one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u16);

/// What kind of device a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Hardware OpenFlow switch (Pica8 / HP class): fast data plane, slow
    /// OFA.
    PhysicalSwitch,
    /// Open vSwitch on a server: fast control agent, slower data plane.
    VSwitch,
    /// An end host (client, server, attacker).
    Host,
    /// A middlebox (firewall, load balancer).
    Middlebox,
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    name: String,
    /// Port table: port index -> attached outgoing link.
    ports: Vec<Option<LinkId>>,
}

/// One directed link's endpoints.
#[derive(Debug, Clone, Copy)]
struct Ends {
    from: NodeId,
    from_port: PortId,
    to: NodeId,
    to_port: PortId,
}

/// The network graph. Owns all dynamic link state.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<(Ends, LinkState)>,
    /// adjacency[from] = list of (neighbor, out_port, link)
    adjacency: FxHashMap<NodeId, Vec<(NodeId, PortId, LinkId)>>,
    /// Fault-injection RNG; random link loss is active only when set.
    fault_rng: Option<SimRng>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a node of the given kind; returns its id.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            name: name.into(),
            ports: Vec::new(),
        });
        self.adjacency.entry(id).or_default();
        id
    }

    /// Node kind lookup. Panics on unknown id (ids only come from
    /// `add_node`).
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.0 as usize].kind
    }

    /// Human-readable node name.
    pub fn name(&self, node: NodeId) -> &str {
        &self.nodes[node.0 as usize].name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|n| self.kind(*n) == kind)
            .collect()
    }

    /// All control-plane-attached switches (physical switches and
    /// vSwitches), in ascending id order — the set a controller cluster
    /// assigns mastership over.
    pub fn switch_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|n| matches!(self.kind(*n), NodeKind::PhysicalSwitch | NodeKind::VSwitch))
            .collect()
    }

    fn alloc_port(&mut self, node: NodeId, link: LinkId) -> PortId {
        let ports = &mut self.nodes[node.0 as usize].ports;
        let id = PortId(ports.len() as u16);
        ports.push(Some(link));
        id
    }

    /// Connect `a` and `b` with a duplex link; returns the two directed
    /// link ids `(a→b, b→a)`. Fresh ports are allocated on both nodes.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        assert_ne!(a, b, "self-links are not allowed");
        let ab = LinkId(self.links.len() as u32);
        let a_port = self.alloc_port(a, ab);
        let ba = LinkId(self.links.len() as u32 + 1);
        let b_port = self.alloc_port(b, ba);

        self.links.push((
            Ends {
                from: a,
                from_port: a_port,
                to: b,
                to_port: b_port,
            },
            LinkState::new(spec),
        ));
        self.links.push((
            Ends {
                from: b,
                from_port: b_port,
                to: a,
                to_port: a_port,
            },
            LinkState::new(spec),
        ));
        self.adjacency.get_mut(&a).unwrap().push((b, a_port, ab));
        self.adjacency.get_mut(&b).unwrap().push((a, b_port, ba));
        (ab, ba)
    }

    /// The far end of the link attached to `(node, port)`, if any.
    pub fn neighbor(&self, node: NodeId, port: PortId) -> Option<(NodeId, PortId)> {
        let link = self.nodes[node.0 as usize]
            .ports
            .get(port.0 as usize)
            .copied()
            .flatten()?;
        let ends = self.links[link.0 as usize].0;
        Some((ends.to, ends.to_port))
    }

    /// The local port on `from` whose link leads to neighbor `to` (first
    /// match wins; parallel links are rare in our topologies).
    pub fn port_towards(&self, from: NodeId, to: NodeId) -> Option<PortId> {
        self.adjacency
            .get(&from)?
            .iter()
            .find(|(nbr, _, _)| *nbr == to)
            .map(|(_, port, _)| *port)
    }

    /// All local ports on `from` whose links lead to neighbor `to`, in
    /// port order. Parallel links (e.g. the two legs of a middlebox
    /// hairpin) return multiple entries; by convention the first is the
    /// "entry" leg and the last the "return" leg.
    pub fn ports_towards(&self, from: NodeId, to: NodeId) -> Vec<PortId> {
        self.adjacency
            .get(&from)
            .map(|v| {
                v.iter()
                    .filter(|(nbr, _, _)| *nbr == to)
                    .map(|(_, port, _)| *port)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All connected ports of a node, in port order.
    pub fn ports(&self, node: NodeId) -> Vec<PortId> {
        self.port_iter(node).collect()
    }

    /// Connected ports of a node, in port order, without allocating (the
    /// per-packet emit path needs only the first port).
    pub fn port_iter(&self, node: NodeId) -> impl Iterator<Item = PortId> + '_ {
        self.nodes[node.0 as usize]
            .ports
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_some())
            .map(|(i, _)| PortId(i as u16))
    }

    /// Direct neighbors of a node.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.adjacency
            .get(&node)
            .map(|v| v.iter().map(|(n, _, _)| *n).collect())
            .unwrap_or_default()
    }

    /// Enable random link loss (smoltcp-style fault injection): links with
    /// a nonzero `loss` probability drop packets using this seeded RNG.
    pub fn enable_fault_injection(&mut self, rng: SimRng) {
        self.fault_rng = Some(rng);
    }

    /// Offer a packet to the link attached to `(from, out_port)`.
    ///
    /// On success returns where and when the packet lands.
    pub fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        out_port: PortId,
        size_bytes: u32,
    ) -> Option<(NodeId, PortId, SimTime)> {
        let link = self.nodes[from.0 as usize]
            .ports
            .get(out_port.0 as usize)
            .copied()
            .flatten()?;
        let (ends, state) = &mut self.links[link.0 as usize];
        if state.spec().loss > 0.0 {
            if let Some(rng) = self.fault_rng.as_mut() {
                if rng.chance(state.spec().loss) {
                    state.record_fault();
                    return None;
                }
            }
        }
        match state.transmit(now, size_bytes) {
            TxResult::Delivered { arrives_at } => Some((ends.to, ends.to_port, arrives_at)),
            TxResult::Dropped => None,
        }
    }

    /// Total packets lost to injected link faults.
    pub fn total_link_faults(&self) -> u64 {
        self.links.iter().map(|(_, s)| s.faulted()).sum()
    }

    /// Immutable access to a directed link's state (for metrics).
    pub fn link_state(&self, link: LinkId) -> &LinkState {
        &self.links[link.0 as usize].1
    }

    /// Set one directed link's administrative state (fault injection).
    /// Packets offered to a down link are dropped and counted as faults.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.links[link.0 as usize].1.set_up(up);
    }

    /// Set one directed link's extra one-way latency (fault injection:
    /// degraded link). [`SimDuration::ZERO`] restores the link.
    pub fn set_link_extra_delay(&mut self, link: LinkId, d: SimDuration) {
        self.links[link.0 as usize].1.set_extra_delay(d);
    }

    /// A directed link's endpoints as `(from, from_port, to, to_port)`.
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, PortId, NodeId, PortId) {
        let e = self.links[link.0 as usize].0;
        (e.from, e.from_port, e.to, e.to_port)
    }

    /// Total packets dropped across all link queues.
    pub fn total_link_drops(&self) -> u64 {
        self.links.iter().map(|(_, s)| s.drops()).sum()
    }

    /// Unweighted shortest path (BFS by hop count) from `src` to `dst`,
    /// inclusive of both endpoints. Ties break toward lower node ids, so
    /// paths are deterministic.
    ///
    /// `permit` filters which nodes may be *transited* (endpoints are always
    /// permitted); the controller uses it to keep host-bound traffic from
    /// being routed "through" another host and, in Scotch, to route around
    /// control-plane-congested switches.
    pub fn shortest_path_filtered(
        &self,
        src: NodeId,
        dst: NodeId,
        permit: impl Fn(NodeId) -> bool,
    ) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut prev: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        let mut queue = VecDeque::new();
        queue.push_back(src);
        prev.insert(src, src);
        while let Some(n) = queue.pop_front() {
            let mut nbrs = self.neighbors(n);
            nbrs.sort_unstable();
            for nbr in nbrs {
                if prev.contains_key(&nbr) {
                    continue;
                }
                if nbr != dst && !permit(nbr) {
                    continue;
                }
                prev.insert(nbr, n);
                if nbr == dst {
                    // Reconstruct.
                    let mut path = vec![dst];
                    let mut cur = dst;
                    while cur != src {
                        cur = prev[&cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(nbr);
            }
        }
        None
    }

    /// Unweighted shortest path permitting transit through switches only
    /// (hosts and middleboxes are never transit nodes).
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.shortest_path_filtered(src, dst, |n| {
            matches!(self.kind(n), NodeKind::PhysicalSwitch | NodeKind::VSwitch)
        })
    }

    /// Shortest path visiting the given waypoints in order (middlebox
    /// chaining, §5.4). Concatenates per-segment shortest paths, permitting
    /// transit through switches; the waypoints themselves are endpoints of
    /// their segments.
    pub fn path_via(&self, src: NodeId, waypoints: &[NodeId], dst: NodeId) -> Option<Vec<NodeId>> {
        let mut full: Vec<NodeId> = vec![src];
        let mut cur = src;
        for &wp in waypoints.iter().chain(std::iter::once(&dst)) {
            let seg = self.shortest_path(cur, wp)?;
            full.extend_from_slice(&seg[1..]);
            cur = wp;
        }
        Some(full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let s = t.add_node(NodeKind::PhysicalSwitch, "s");
        let b = t.add_node(NodeKind::Host, "b");
        t.add_duplex_link(a, s, LinkSpec::gig());
        t.add_duplex_link(s, b, LinkSpec::gig());
        (t, a, s, b)
    }

    #[test]
    fn nodes_and_links_register() {
        let (t, a, s, b) = line3();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 4); // two duplex pairs
        assert_eq!(t.kind(s), NodeKind::PhysicalSwitch);
        assert_eq!(t.name(a), "a");
        assert_eq!(t.nodes_of_kind(NodeKind::Host), vec![a, b]);
    }

    #[test]
    fn neighbor_lookup() {
        let (t, a, s, _b) = line3();
        let p = t.port_towards(a, s).unwrap();
        let (peer, peer_port) = t.neighbor(a, p).unwrap();
        assert_eq!(peer, s);
        // The far end's reverse lookup comes back to us.
        let (back, back_port) = t.neighbor(peer, peer_port).unwrap();
        assert_eq!(back, a);
        assert_eq!(back_port, p);
    }

    #[test]
    fn shortest_path_goes_through_switch() {
        let (t, a, s, b) = line3();
        assert_eq!(t.shortest_path(a, b).unwrap(), vec![a, s, b]);
    }

    #[test]
    fn hosts_are_not_transit() {
        // a - h - b where h is a host: no path a->b through it.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let h = t.add_node(NodeKind::Host, "h");
        let b = t.add_node(NodeKind::Host, "b");
        t.add_duplex_link(a, h, LinkSpec::gig());
        t.add_duplex_link(h, b, LinkSpec::gig());
        assert_eq!(t.shortest_path(a, b), None);
        // But a path to the host itself is fine.
        assert_eq!(t.shortest_path(a, h).unwrap(), vec![a, h]);
    }

    #[test]
    fn bfs_prefers_fewer_hops() {
        // Diamond: a-s1-b and a-s2-s3-b; expect the 2-hop route.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let s1 = t.add_node(NodeKind::PhysicalSwitch, "s1");
        let s2 = t.add_node(NodeKind::PhysicalSwitch, "s2");
        let s3 = t.add_node(NodeKind::PhysicalSwitch, "s3");
        let b = t.add_node(NodeKind::Host, "b");
        t.add_duplex_link(a, s1, LinkSpec::gig());
        t.add_duplex_link(s1, b, LinkSpec::gig());
        t.add_duplex_link(a, s2, LinkSpec::gig());
        t.add_duplex_link(s2, s3, LinkSpec::gig());
        t.add_duplex_link(s3, b, LinkSpec::gig());
        assert_eq!(t.shortest_path(a, b).unwrap(), vec![a, s1, b]);
    }

    #[test]
    fn filtered_path_avoids_nodes() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let s1 = t.add_node(NodeKind::PhysicalSwitch, "s1");
        let s2 = t.add_node(NodeKind::PhysicalSwitch, "s2");
        let s3 = t.add_node(NodeKind::PhysicalSwitch, "s3");
        let b = t.add_node(NodeKind::Host, "b");
        t.add_duplex_link(a, s1, LinkSpec::gig());
        t.add_duplex_link(s1, b, LinkSpec::gig());
        t.add_duplex_link(a, s2, LinkSpec::gig());
        t.add_duplex_link(s2, s3, LinkSpec::gig());
        t.add_duplex_link(s3, b, LinkSpec::gig());
        let p = t
            .shortest_path_filtered(a, b, |n| n != s1 && n != a && n != b)
            .unwrap();
        assert_eq!(p, vec![a, s2, s3, b]);
    }

    #[test]
    fn path_via_waypoints() {
        // a - su - fw - sd - b with a direct su-sd shortcut; via fw must
        // cross the firewall.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let su = t.add_node(NodeKind::PhysicalSwitch, "su");
        let fw = t.add_node(NodeKind::Middlebox, "fw");
        let sd = t.add_node(NodeKind::PhysicalSwitch, "sd");
        let b = t.add_node(NodeKind::Host, "b");
        t.add_duplex_link(a, su, LinkSpec::gig());
        t.add_duplex_link(su, fw, LinkSpec::gig());
        t.add_duplex_link(fw, sd, LinkSpec::gig());
        t.add_duplex_link(su, sd, LinkSpec::gig());
        t.add_duplex_link(sd, b, LinkSpec::gig());
        let direct = t.shortest_path(a, b).unwrap();
        assert_eq!(direct, vec![a, su, sd, b]);
        let via = t.path_via(a, &[fw], b).unwrap();
        assert_eq!(via, vec![a, su, fw, sd, b]);
    }

    #[test]
    fn transmit_moves_packets_between_nodes() {
        let (mut t, a, s, _b) = line3();
        let p = t.port_towards(a, s).unwrap();
        let (to, _in_port, at) = t.transmit(SimTime::ZERO, a, p, 1500).unwrap();
        assert_eq!(to, s);
        assert!(at > SimTime::ZERO);
    }

    #[test]
    fn transmit_counts_drops() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Host, "b");
        t.add_duplex_link(a, b, LinkSpec::gig().with_queue(1));
        let p = t.port_towards(a, b).unwrap();
        assert!(t.transmit(SimTime::ZERO, a, p, 1500).is_some());
        assert!(t.transmit(SimTime::ZERO, a, p, 1500).is_none());
        assert_eq!(t.total_link_drops(), 1);
    }

    #[test]
    fn path_to_self_is_trivial() {
        let (t, a, _s, _b) = line3();
        assert_eq!(t.shortest_path(a, a).unwrap(), vec![a]);
    }

    #[test]
    fn no_path_in_disconnected_graph() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Host, "b");
        assert_eq!(t.shortest_path(a, b), None);
    }
}
