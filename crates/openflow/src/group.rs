//! Group tables: OpenFlow 1.3 *select* groups for load balancing.
//!
//! §5.1: "To achieve load balancing, we use *select* group type, which
//! chooses one bucket in the action buckets to be executed. The bucket
//! selection algorithm is not defined in the spec … it is conceivable that
//! using a hash function based on the flow id may be a likely choice for
//! many vendors. We define one action bucket for each tunnel that connects
//! the physical switch with a vSwitch."
//!
//! We implement both flow-hash and round-robin selection (the A2 ablation
//! compares them) and bucket liveness so the controller can swap a failed
//! vSwitch's bucket for its backup (§5.6).

use crate::ofmatch::Action;
use scotch_net::FlowKey;
use scotch_sim::hash::FxHashMap;

/// Group table entry identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

/// Group semantics. Only *select* is needed by Scotch; *all* is included
/// for completeness (it is the spec's flooding/multicast type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupType {
    /// Execute one bucket chosen by the selection policy.
    Select,
    /// Execute every live bucket (packet replication).
    All,
}

/// How a *select* group picks its bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// ECMP-style: `flow_key.hash64() % live_buckets`. Per-flow sticky.
    FlowHash,
    /// Rotate across live buckets per packet. Not flow-sticky; exists for
    /// the A2 ablation.
    RoundRobin,
}

/// One action bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Actions executed when this bucket is selected (for Scotch: push the
    /// tunnel label and output toward the tunnel's first hop).
    pub actions: Vec<Action>,
    /// Liveness flag, toggled by the controller on vSwitch failure.
    pub alive: bool,
    /// Packets that selected this bucket.
    pub packet_count: u64,
}

impl Bucket {
    /// A live bucket with the given actions.
    pub fn new(actions: Vec<Action>) -> Self {
        Bucket {
            actions,
            alive: true,
            packet_count: 0,
        }
    }
}

/// One group entry.
#[derive(Debug, Clone)]
pub struct GroupEntry {
    /// Semantics.
    pub group_type: GroupType,
    /// Selection policy (meaningful for [`GroupType::Select`]).
    pub policy: SelectionPolicy,
    /// Action buckets.
    pub buckets: Vec<Bucket>,
    rr_cursor: usize,
}

impl GroupEntry {
    /// A select group with the given policy and buckets.
    pub fn select(policy: SelectionPolicy, buckets: Vec<Bucket>) -> Self {
        GroupEntry {
            group_type: GroupType::Select,
            policy,
            buckets,
            rr_cursor: 0,
        }
    }

    /// Select a bucket for `key` and return its actions. `None` if every
    /// bucket is dead.
    pub fn select_bucket(&mut self, key: &FlowKey) -> Option<&[Action]> {
        // Live buckets are selected by rank without materializing an index
        // vector: bucket counts are tiny and this runs once per packet.
        let live_count = self.buckets.iter().filter(|b| b.alive).count();
        if live_count == 0 {
            return None;
        }
        let nth = match self.policy {
            SelectionPolicy::FlowHash => (key.hash64() % live_count as u64) as usize,
            SelectionPolicy::RoundRobin => {
                let i = self.rr_cursor % live_count;
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                i
            }
        };
        let idx = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.alive)
            .nth(nth)
            .map(|(i, _)| i)
            .expect("nth < live_count");
        self.buckets[idx].packet_count += 1;
        Some(&self.buckets[idx].actions)
    }
}

/// The switch's group table.
#[derive(Debug, Clone, Default)]
pub struct GroupTable {
    groups: FxHashMap<GroupId, GroupEntry>,
}

impl GroupTable {
    /// An empty group table.
    pub fn new() -> Self {
        GroupTable::default()
    }

    /// Install or replace a group (GroupMod ADD/MODIFY).
    pub fn install(&mut self, id: GroupId, entry: GroupEntry) {
        self.groups.insert(id, entry);
    }

    /// Remove a group (GroupMod DELETE). Returns true if it existed.
    pub fn remove(&mut self, id: GroupId) -> bool {
        self.groups.remove(&id).is_some()
    }

    /// Look up a group immutably.
    pub fn get(&self, id: GroupId) -> Option<&GroupEntry> {
        self.groups.get(&id)
    }

    /// Look up a group mutably (bucket liveness updates).
    pub fn get_mut(&mut self, id: GroupId) -> Option<&mut GroupEntry> {
        self.groups.get_mut(&id)
    }

    /// Run a packet's flow key through group `id`; returns the chosen
    /// bucket's actions, borrowed (the hot path copies them into a caller
    /// scratch buffer instead of allocating per packet).
    pub fn select(&mut self, id: GroupId, key: &FlowKey) -> Option<&[Action]> {
        let entry = self.groups.get_mut(&id)?;
        entry.select_bucket(key)
    }

    /// Number of installed groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no groups are installed.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scotch_net::{IpAddr, PortId};

    fn key(sport: u16) -> FlowKey {
        FlowKey::tcp(IpAddr::new(1, 1, 1, 1), sport, IpAddr::new(2, 2, 2, 2), 80)
    }

    fn buckets(n: usize) -> Vec<Bucket> {
        (0..n)
            .map(|i| Bucket::new(vec![Action::Output(PortId(i as u16))]))
            .collect()
    }

    #[test]
    fn flow_hash_is_sticky() {
        let mut g = GroupEntry::select(SelectionPolicy::FlowHash, buckets(4));
        let k = key(42);
        let first = g.select_bucket(&k).unwrap().to_vec();
        for _ in 0..10 {
            assert_eq!(g.select_bucket(&k).unwrap(), first.as_slice());
        }
    }

    #[test]
    fn flow_hash_spreads_flows() {
        let mut g = GroupEntry::select(SelectionPolicy::FlowHash, buckets(4));
        for s in 0..400 {
            g.select_bucket(&key(s));
        }
        for b in &g.buckets {
            // Perfectly uniform would be 100 per bucket.
            assert!(
                (40..=180).contains(&(b.packet_count as i64)),
                "skewed: {}",
                b.packet_count
            );
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut g = GroupEntry::select(SelectionPolicy::RoundRobin, buckets(3));
        let k = key(1);
        let a = g.select_bucket(&k).unwrap().to_vec();
        let b = g.select_bucket(&k).unwrap().to_vec();
        let c = g.select_bucket(&k).unwrap().to_vec();
        let a2 = g.select_bucket(&k).unwrap().to_vec();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, a2);
    }

    #[test]
    fn dead_buckets_are_skipped() {
        let mut g = GroupEntry::select(SelectionPolicy::FlowHash, buckets(2));
        g.buckets[0].alive = false;
        for s in 0..50 {
            let acts = g.select_bucket(&key(s)).unwrap();
            assert_eq!(acts, &[Action::Output(PortId(1))]);
        }
        assert_eq!(g.buckets[0].packet_count, 0);
    }

    #[test]
    fn all_dead_yields_none() {
        let mut g = GroupEntry::select(SelectionPolicy::FlowHash, buckets(2));
        g.buckets[0].alive = false;
        g.buckets[1].alive = false;
        assert!(g.select_bucket(&key(1)).is_none());
    }

    #[test]
    fn table_install_select_remove() {
        let mut t = GroupTable::new();
        assert!(t.is_empty());
        t.install(
            GroupId(1),
            GroupEntry::select(SelectionPolicy::FlowHash, buckets(2)),
        );
        assert_eq!(t.len(), 1);
        assert!(t.select(GroupId(1), &key(1)).is_some());
        assert!(t.select(GroupId(2), &key(1)).is_none());
        assert!(t.remove(GroupId(1)));
        assert!(!t.remove(GroupId(1)));
    }

    #[test]
    fn failover_rewires_existing_flows() {
        // Simulates §5.6: kill a vSwitch's bucket; flows previously hashed
        // to it land on live buckets afterwards.
        let mut t = GroupTable::new();
        t.install(
            GroupId(7),
            GroupEntry::select(SelectionPolicy::FlowHash, buckets(3)),
        );
        let k = key(9);
        let before = t.select(GroupId(7), &k).unwrap().to_vec();
        // Find which port that was and kill it.
        let Action::Output(port) = before[0] else {
            panic!()
        };
        t.get_mut(GroupId(7)).unwrap().buckets[port.0 as usize].alive = false;
        let after = t.select(GroupId(7), &k).unwrap();
        assert_ne!(before, after);
    }

    proptest! {
        /// Selection never returns a dead bucket's actions.
        #[test]
        fn prop_never_selects_dead(alive_mask in 1u8..15, sport: u16) {
            let mut bs = buckets(4);
            for (i, b) in bs.iter_mut().enumerate() {
                b.alive = alive_mask & (1 << i) != 0;
            }
            let mut g = GroupEntry::select(SelectionPolicy::FlowHash, bs);
            if let Some(acts) = g.select_bucket(&key(sport)) {
                let Action::Output(p) = acts[0] else { panic!() };
                prop_assert!(alive_mask & (1 << p.0) != 0);
            }
        }

        /// Round-robin visits every live bucket within one rotation.
        #[test]
        fn prop_rr_covers_live(n in 1usize..8) {
            let mut g = GroupEntry::select(SelectionPolicy::RoundRobin, buckets(n));
            let mut seen = scotch_sim::FxHashSet::default();
            for _ in 0..n {
                let acts = g.select_bucket(&key(0)).unwrap();
                seen.insert(acts[0]);
            }
            prop_assert_eq!(seen.len(), n);
        }
    }
}
