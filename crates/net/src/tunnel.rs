//! Tunnels: pre-installed label-switched paths over the data plane.
//!
//! The Scotch overlay (§4.1) is three classes of tunnels:
//!
//! 1. physical switch → mesh vSwitch (load-distribution tunnels),
//! 2. mesh vSwitch ↔ mesh vSwitch (the full mesh),
//! 3. mesh vSwitch → host vSwitch (delivery tunnels).
//!
//! "Configuration is done largely offline" (§5.6): tunnel label-forwarding
//! entries are installed in switch data planes before the experiment and
//! never consume OFA capacity, so a [`TunnelTable`] lives beside the
//! topology rather than inside the per-switch OpenFlow tables.

use crate::topology::{NodeId, Topology};
use scotch_sim::FxHashMap;

/// Identifier of a (unidirectional) tunnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TunnelId(pub u32);

/// A unidirectional tunnel: an ordered node path from `src()` to `dst()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tunnel {
    /// The tunnel's label / identifier.
    pub id: TunnelId,
    /// Node path, inclusive of both endpoints. Always ≥ 2 nodes.
    pub path: Vec<NodeId>,
}

impl Tunnel {
    /// Entry endpoint.
    pub fn src(&self) -> NodeId {
        self.path[0]
    }

    /// Exit endpoint.
    pub fn dst(&self) -> NodeId {
        *self.path.last().unwrap()
    }

    /// The node after `at` on the tunnel path, or `None` at (or off) the
    /// end.
    pub fn next_hop(&self, at: NodeId) -> Option<NodeId> {
        let idx = self.path.iter().position(|&n| n == at)?;
        self.path.get(idx + 1).copied()
    }
}

/// Registry of all tunnels, with label-forwarding lookup.
#[derive(Debug, Clone, Default)]
pub struct TunnelTable {
    tunnels: Vec<Tunnel>,
    /// (tunnel, current node) -> next hop, precomputed for O(1) forwarding.
    hops: FxHashMap<(TunnelId, NodeId), NodeId>,
}

impl TunnelTable {
    /// An empty table.
    pub fn new() -> Self {
        TunnelTable::default()
    }

    /// Register a tunnel along the shortest path between `src` and `dst`.
    /// Returns `None` if the endpoints are not connected.
    pub fn add_shortest(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<TunnelId> {
        let path = topo.shortest_path(src, dst)?;
        Some(self.add_path(path))
    }

    /// Register a tunnel along an explicit node path. Panics on paths of
    /// fewer than 2 nodes.
    pub fn add_path(&mut self, path: Vec<NodeId>) -> TunnelId {
        assert!(path.len() >= 2, "a tunnel needs two endpoints");
        let id = TunnelId(self.tunnels.len() as u32);
        for w in path.windows(2) {
            self.hops.insert((id, w[0]), w[1]);
        }
        self.tunnels.push(Tunnel { id, path });
        id
    }

    /// Tunnel lookup by id.
    pub fn get(&self, id: TunnelId) -> Option<&Tunnel> {
        self.tunnels.get(id.0 as usize)
    }

    /// Label-forwarding: the next hop for tunnel `id` at node `at`.
    pub fn next_hop(&self, id: TunnelId, at: NodeId) -> Option<NodeId> {
        self.hops.get(&(id, at)).copied()
    }

    /// The tunnel's exit node.
    pub fn endpoint(&self, id: TunnelId) -> Option<NodeId> {
        self.get(id).map(|t| t.dst())
    }

    /// Number of registered tunnels.
    pub fn len(&self) -> usize {
        self.tunnels.len()
    }

    /// True when no tunnels are registered.
    pub fn is_empty(&self) -> bool {
        self.tunnels.is_empty()
    }

    /// Iterate over all tunnels.
    pub fn iter(&self) -> impl Iterator<Item = &Tunnel> {
        self.tunnels.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::topology::NodeKind;

    fn topo() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let s = t.add_node(NodeKind::PhysicalSwitch, "s");
        let m = t.add_node(NodeKind::PhysicalSwitch, "mid");
        let v = t.add_node(NodeKind::VSwitch, "v");
        t.add_duplex_link(s, m, LinkSpec::tengig());
        t.add_duplex_link(m, v, LinkSpec::gig());
        (t, s, m, v)
    }

    #[test]
    fn shortest_tunnel_follows_topology() {
        let (t, s, m, v) = topo();
        let mut tab = TunnelTable::new();
        let id = tab.add_shortest(&t, s, v).unwrap();
        let tun = tab.get(id).unwrap();
        assert_eq!(tun.path, vec![s, m, v]);
        assert_eq!(tun.src(), s);
        assert_eq!(tun.dst(), v);
    }

    #[test]
    fn hop_by_hop_forwarding() {
        let (t, s, m, v) = topo();
        let mut tab = TunnelTable::new();
        let id = tab.add_shortest(&t, s, v).unwrap();
        assert_eq!(tab.next_hop(id, s), Some(m));
        assert_eq!(tab.next_hop(id, m), Some(v));
        assert_eq!(tab.next_hop(id, v), None);
        assert_eq!(tab.endpoint(id), Some(v));
    }

    #[test]
    fn unknown_tunnel_is_none() {
        let tab = TunnelTable::new();
        assert!(tab.get(TunnelId(0)).is_none());
        assert!(tab.next_hop(TunnelId(0), NodeId(0)).is_none());
        assert!(tab.is_empty());
    }

    #[test]
    fn disconnected_endpoints_yield_none() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::PhysicalSwitch, "a");
        let b = t.add_node(NodeKind::VSwitch, "b");
        let mut tab = TunnelTable::new();
        assert!(tab.add_shortest(&t, a, b).is_none());
    }

    #[test]
    fn tunnel_ids_are_sequential() {
        let (t, s, m, v) = topo();
        let mut tab = TunnelTable::new();
        let a = tab.add_shortest(&t, s, v).unwrap();
        let b = tab.add_shortest(&t, v, s).unwrap();
        let c = tab.add_shortest(&t, s, m).unwrap();
        assert_eq!((a, b, c), (TunnelId(0), TunnelId(1), TunnelId(2)));
        assert_eq!(tab.len(), 3);
        assert_eq!(tab.iter().count(), 3);
    }

    #[test]
    fn next_hop_off_path_is_none() {
        let (t, s, _m, v) = topo();
        let mut tab = TunnelTable::new();
        let id = tab.add_shortest(&t, s, v).unwrap();
        let stranger = NodeId(99);
        assert_eq!(tab.next_hop(id, stranger), None);
        assert_eq!(tab.get(id).unwrap().next_hop(stranger), None);
    }
}
