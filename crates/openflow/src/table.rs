//! Flow tables and the multi-table pipeline.
//!
//! A [`FlowTable`] holds priority-ordered [`FlowEntry`]s with idle and hard
//! timeouts and a bounded capacity (a full table rejects insertions — the
//! TCAM-exhaustion failure mode of §3.3: "a new flow rule won't be
//! installed at the flow table if it becomes full").
//!
//! A [`Pipeline`] chains tables OpenFlow-1.3 style: matching starts in
//! table 0 and a matched entry's goto-table continues it. Scotch's physical
//! switch uses two tables (§5.2): table 0 pushes the inner ingress-port
//! label, table 1 holds the per-flow rules and the overlay default rule.

use crate::ofmatch::{Action, ActionList, Match};
use scotch_net::{Packet, PortId};
use scotch_sim::{SimDuration, SimTime};
use std::collections::hash_map::Entry;

/// Index of a flow table within a switch's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u8);

/// One installed rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// Match condition.
    pub matcher: Match,
    /// Higher wins; ties break toward the earlier-installed entry.
    pub priority: u16,
    /// Actions applied on match (the entry's APPLY_ACTIONS instruction;
    /// empty = none). Inline, so installing a rule allocates nothing.
    pub apply: ActionList,
    /// Table to continue matching in (the entry's GOTO_TABLE instruction).
    /// OpenFlow 1.3 allows at most one instruction of each type per entry,
    /// so these two fields are the whole instruction set.
    pub goto: Option<TableId>,
    /// Controller-chosen opaque id (used for deletion and stats
    /// correlation).
    pub cookie: u64,
    /// Remove if unmatched for this long (`None` = no idle timeout).
    pub idle_timeout: Option<SimDuration>,
    /// Remove unconditionally this long after installation.
    pub hard_timeout: Option<SimDuration>,
    /// Installation time (set by the table).
    pub installed_at: SimTime,
    /// Last time a packet hit this entry.
    pub last_hit: SimTime,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Packets matched *and* picked by the telemetry sampler (zero unless
    /// the owning switch samples; see the switch crate's `PacketSampler`).
    /// Living on the entry means sampled state is evicted, replaced and
    /// reset exactly when the entry itself is — no side-table bookkeeping.
    pub sampled_packets: u64,
    /// Bytes of sampled packets.
    pub sampled_bytes: u64,
}

impl FlowEntry {
    /// A rule applying `actions` on match; no goto, no timeouts. Panics
    /// beyond [`ActionList::CAPACITY`] actions.
    pub fn apply(matcher: Match, priority: u16, actions: &[Action]) -> Self {
        FlowEntry {
            matcher,
            priority,
            apply: ActionList::from_slice(actions),
            goto: None,
            cookie: 0,
            idle_timeout: None,
            hard_timeout: None,
            installed_at: SimTime::ZERO,
            last_hit: SimTime::ZERO,
            packet_count: 0,
            byte_count: 0,
            sampled_packets: 0,
            sampled_bytes: 0,
        }
    }

    /// Builder: continue matching in `table` after applying the actions.
    pub fn with_goto(mut self, table: TableId) -> Self {
        self.goto = Some(table);
        self
    }

    /// Builder: set the cookie.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    /// Builder: set the idle timeout.
    pub fn with_idle_timeout(mut self, t: SimDuration) -> Self {
        self.idle_timeout = Some(t);
        self
    }

    /// Builder: set the hard timeout.
    pub fn with_hard_timeout(mut self, t: SimDuration) -> Self {
        self.hard_timeout = Some(t);
        self
    }

    /// The entry's first `Output` action, if any (handy for inspecting
    /// where a rule forwards).
    pub fn first_output(&self) -> Option<Action> {
        self.apply
            .iter()
            .find(|a| matches!(a, Action::Output(_)))
            .copied()
    }

    /// Earliest time this entry *could* expire given its current state
    /// (`None` = no timeouts). A later hit pushes the idle part forward, so
    /// this is a lower bound, never an exact prediction.
    fn deadline(&self) -> Option<SimTime> {
        let hard = self.hard_timeout.map(|h| self.installed_at + h);
        let idle = self.idle_timeout.map(|i| self.last_hit + i);
        match (hard, idle) {
            (Some(h), Some(i)) => Some(h.min(i)),
            (Some(h), None) => Some(h),
            (None, Some(i)) => Some(i),
            (None, None) => None,
        }
    }

    fn expired(&self, now: SimTime) -> bool {
        if let Some(h) = self.hard_timeout {
            if now.duration_since(self.installed_at) >= h {
                return true;
            }
        }
        if let Some(i) = self.idle_timeout {
            if now.duration_since(self.last_hit) >= i {
                return true;
            }
        }
        false
    }
}

/// Why an insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The table is at capacity (TCAM full).
    TableFull,
}

/// A bounded, priority-ordered flow table.
///
/// Internally a slab plus a `(src, dst)` hash index: per-flow rules (the
/// overwhelming majority — both the paper's src/dst rules and microflow
/// rules specify both addresses) are found in O(1); only the handful of
/// "generic" rules (port-labelling defaults, label rules, wildcards) are
/// scanned. Semantics are identical to a full priority scan. An index
/// bucket holds its first slot inline ([`Bucket`]), so the common one rule
/// per key costs no allocation beyond the hash-map entry itself.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// Slab of entries; `None` marks a free slot.
    slots: Vec<Option<FlowEntry>>,
    /// Install order per slot, parallel to `slots`.
    seqs: Vec<u64>,
    /// Position of each slot within its index bucket, parallel to `slots`
    /// (meaningful only while the slot is occupied). Lets `unlink` use
    /// `swap_remove` instead of an O(bucket) `retain`.
    pos: Vec<usize>,
    /// Free slot indices for reuse.
    free: Vec<usize>,
    /// Slots of entries whose matcher specifies both `src` and `dst`.
    by_src_dst: scotch_sim::FxHashMap<(scotch_net::IpAddr, scotch_net::IpAddr), Bucket>,
    /// Slots of all other (wildcard-ish) entries.
    generic: Vec<usize>,
    len: usize,
    capacity: usize,
    /// Monotone counter for deterministic tie-breaks.
    install_seq: u64,
    /// Conservative lower bound on the earliest time any entry can expire
    /// (`None` = nothing has a timeout). Idle-timeout hits only push real
    /// deadlines later, so the bound stays valid without per-hit updates;
    /// `expire` before the bound is a constant-time no-op.
    next_deadline: Option<SimTime>,
}

/// The slots indexed under one `(src, dst)` key: one slot inline, spilling
/// to a `Vec` only when a second rule shares the key (hairpin rules, pins,
/// microflow rules between one host pair). A spilled bucket that shrinks
/// back to one slot returns inline, so `Many` always holds two or more.
#[derive(Debug, Clone)]
enum Bucket {
    One(usize),
    Many(Vec<usize>),
}

impl Bucket {
    fn as_slice(&self) -> &[usize] {
        match self {
            Bucket::One(s) => std::slice::from_ref(s),
            Bucket::Many(v) => v,
        }
    }

    /// Append `slot`; returns its position in the bucket.
    fn push(&mut self, slot: usize) -> usize {
        match self {
            Bucket::One(first) => {
                *self = Bucket::Many(vec![*first, slot]);
                1
            }
            Bucket::Many(v) => {
                v.push(slot);
                v.len() - 1
            }
        }
    }

    /// Remove the slot at position `p` of a spilled bucket by
    /// `swap_remove`; returns the slot moved into `p`, if any. A bucket
    /// left with one slot returns inline (that slot is then at position 0).
    fn swap_remove(&mut self, p: usize) -> Option<usize> {
        let Bucket::Many(v) = self else {
            unreachable!("a one-slot bucket is removed whole");
        };
        v.swap_remove(p);
        let moved = v.get(p).copied();
        if let [only] = v[..] {
            *self = Bucket::One(only);
        }
        moved
    }
}

fn index_key(m: &Match) -> Option<(scotch_net::IpAddr, scotch_net::IpAddr)> {
    match (m.src, m.dst) {
        (Some(s), Some(d)) => Some((s, d)),
        _ => None,
    }
}

impl FlowTable {
    /// A table holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flow table must hold at least one entry");
        FlowTable {
            slots: Vec::new(),
            seqs: Vec::new(),
            pos: Vec::new(),
            free: Vec::new(),
            by_src_dst: scotch_sim::FxHashMap::default(),
            generic: Vec::new(),
            len: 0,
            capacity,
            install_seq: 0,
            next_deadline: None,
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn bucket(&self, m: &Match) -> &[usize] {
        match index_key(m) {
            Some(k) => self.by_src_dst.get(&k).map_or(&[], Bucket::as_slice),
            None => &self.generic,
        }
    }

    /// Append `slot` to its index bucket, recording its position.
    fn link(&mut self, slot: usize, matcher: &Match) {
        self.pos[slot] = match index_key(matcher) {
            Some(k) => match self.by_src_dst.entry(k) {
                Entry::Occupied(mut e) => e.get_mut().push(slot),
                Entry::Vacant(e) => {
                    e.insert(Bucket::One(slot));
                    0
                }
            },
            None => {
                self.generic.push(slot);
                self.generic.len() - 1
            }
        };
    }

    /// Remove `slot` from its index bucket in O(1) via `swap_remove` at the
    /// tracked position, fixing up the moved slot's position.
    fn unlink(&mut self, slot: usize, matcher: &Match) {
        let p = self.pos[slot];
        match index_key(matcher) {
            Some(k) => {
                if let Some(b) = self.by_src_dst.get_mut(&k) {
                    debug_assert_eq!(b.as_slice().get(p), Some(&slot));
                    if let Bucket::One(_) = b {
                        self.by_src_dst.remove(&k);
                    } else if let Some(moved) = b.swap_remove(p) {
                        self.pos[moved] = p;
                    }
                }
            }
            None => {
                debug_assert_eq!(self.generic.get(p), Some(&slot));
                self.generic.swap_remove(p);
                if let Some(&moved) = self.generic.get(p) {
                    self.pos[moved] = p;
                }
            }
        }
    }

    fn take_slot(&mut self, slot: usize) -> FlowEntry {
        let e = self.slots[slot].take().expect("occupied slot");
        self.unlink(slot, &e.matcher);
        self.free.push(slot);
        self.len -= 1;
        e
    }

    /// Install an entry at `now`. Identical (match, priority) replaces the
    /// existing entry, OpenFlow-style; otherwise a full table rejects.
    pub fn insert(&mut self, now: SimTime, mut entry: FlowEntry) -> Result<(), InsertError> {
        entry.installed_at = now;
        entry.last_hit = now;
        // Replacement: same (match, priority).
        let existing = self.bucket(&entry.matcher).iter().copied().find(|&s| {
            let e = self.slots[s].as_ref().expect("indexed slot occupied");
            e.matcher == entry.matcher && e.priority == entry.priority
        });
        if let Some(slot) = existing {
            self.note_deadline(entry.deadline());
            self.slots[slot] = Some(entry);
            return Ok(());
        }
        if self.len >= self.capacity {
            return Err(InsertError::TableFull);
        }
        self.note_deadline(entry.deadline());
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some(entry);
                self.seqs[s] = self.install_seq;
                s
            }
            None => {
                self.slots.push(Some(entry));
                self.seqs.push(self.install_seq);
                self.pos.push(0);
                self.slots.len() - 1
            }
        };
        self.install_seq += 1;
        self.len += 1;
        let matcher = self.slots[slot].as_ref().unwrap().matcher;
        self.link(slot, &matcher);
        Ok(())
    }

    /// Lower `next_deadline` to cover a (possibly `None`) entry deadline.
    fn note_deadline(&mut self, d: Option<SimTime>) {
        if let Some(d) = d {
            self.next_deadline = Some(match self.next_deadline {
                Some(cur) => cur.min(d),
                None => d,
            });
        }
    }

    /// Remove all entries with the given cookie; returns how many were
    /// removed.
    pub fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        let mut removed = 0;
        for slot in 0..self.slots.len() {
            if self.slots[slot]
                .as_ref()
                .is_some_and(|e| e.cookie == cookie)
            {
                self.take_slot(slot);
                removed += 1;
            }
        }
        removed
    }

    /// Remove entries whose match equals `matcher` exactly; returns count.
    pub fn remove_exact(&mut self, matcher: &Match) -> usize {
        // Walk the matcher's bucket in place: on removal, `unlink`'s
        // `swap_remove` pulls a new candidate into position `i`, so only
        // advance on a non-match.
        let mut removed = 0;
        let mut i = 0;
        while let Some(&slot) = self.bucket(matcher).get(i) {
            if self.slots[slot]
                .as_ref()
                .is_some_and(|e| &e.matcher == matcher)
            {
                self.take_slot(slot);
                removed += 1;
            } else {
                i += 1;
            }
        }
        removed
    }

    /// Remove every entry (non-strict delete with an empty match);
    /// returns how many were removed.
    pub fn clear(&mut self) -> usize {
        let n = self.len;
        self.slots.clear();
        self.seqs.clear();
        self.pos.clear();
        self.free.clear();
        self.by_src_dst.clear();
        self.generic.clear();
        self.len = 0;
        self.next_deadline = None;
        n
    }

    /// Drop expired entries; returns the removed entries (so the switch can
    /// emit FlowRemoved messages).
    pub fn expire(&mut self, now: SimTime) -> Vec<FlowEntry> {
        // Nothing can have expired before the tracked bound: the periodic
        // sweep is then a constant-time no-op on idle tables.
        match self.next_deadline {
            Some(d) if now >= d => {}
            _ => return Vec::new(),
        }
        let mut removed = Vec::new();
        let mut next: Option<SimTime> = None;
        for slot in 0..self.slots.len() {
            let Some(e) = self.slots[slot].as_ref() else {
                continue;
            };
            if e.expired(now) {
                removed.push(self.take_slot(slot));
            } else if let Some(d) = e.deadline() {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        }
        self.next_deadline = next;
        removed
    }

    /// Best-match lookup without mutating counters.
    pub fn lookup(&self, packet: &Packet, in_port: PortId) -> Option<&FlowEntry> {
        self.best_slot(packet, in_port)
            .map(|i| self.slots[i].as_ref().unwrap())
    }

    fn best_slot(&self, packet: &Packet, in_port: PortId) -> Option<usize> {
        let mut best: Option<usize> = None;
        let indexed = self
            .by_src_dst
            .get(&(packet.key.src, packet.key.dst))
            .map_or(&[][..], Bucket::as_slice);
        for &i in indexed.iter().chain(self.generic.iter()) {
            let Some(e) = self.slots[i].as_ref() else {
                continue;
            };
            if !e.matcher.matches(packet, in_port) {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    let eb = self.slots[b].as_ref().unwrap();
                    if e.priority > eb.priority
                        || (e.priority == eb.priority && self.seqs[i] < self.seqs[b])
                    {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// Best-match lookup, bumping hit counters and the idle-timeout clock.
    pub fn match_packet(
        &mut self,
        now: SimTime,
        packet: &Packet,
        in_port: PortId,
    ) -> Option<&FlowEntry> {
        let idx = self.best_slot(packet, in_port)?;
        let e = self.slots[idx].as_mut().unwrap();
        e.packet_count += 1;
        e.byte_count += packet.size as u64;
        e.last_hit = now;
        Some(self.slots[idx].as_ref().unwrap())
    }

    /// [`FlowTable::match_packet`] returning a mutable entry, for callers
    /// that update per-entry state beyond the hit counters (the vSwitch
    /// telemetry sampler bumps `sampled_packets`/`sampled_bytes` here).
    pub fn match_packet_mut(
        &mut self,
        now: SimTime,
        packet: &Packet,
        in_port: PortId,
    ) -> Option<&mut FlowEntry> {
        let idx = self.best_slot(packet, in_port)?;
        let e = self.slots[idx].as_mut().unwrap();
        e.packet_count += 1;
        e.byte_count += packet.size as u64;
        e.last_hit = now;
        Some(e)
    }

    /// Iterate over installed entries (stats collection).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.slots.iter().filter_map(|e| e.as_ref())
    }
}

/// An ordered chain of flow tables, processed OpenFlow-1.3 style.
#[derive(Debug, Clone)]
pub struct Pipeline {
    tables: Vec<FlowTable>,
}

impl Pipeline {
    /// A pipeline of `n` tables, each with the given capacity.
    pub fn new(n_tables: usize, capacity_per_table: usize) -> Self {
        assert!(n_tables > 0);
        Pipeline {
            tables: (0..n_tables)
                .map(|_| FlowTable::new(capacity_per_table))
                .collect(),
        }
    }

    /// Access one table.
    pub fn table(&self, id: TableId) -> &FlowTable {
        &self.tables[id.0 as usize]
    }

    /// Mutable access to one table.
    pub fn table_mut(&mut self, id: TableId) -> &mut FlowTable {
        &mut self.tables[id.0 as usize]
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total entries across all tables.
    pub fn total_entries(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Expire entries in every table; returns removed entries tagged with
    /// their table.
    pub fn expire(&mut self, now: SimTime) -> Vec<(TableId, FlowEntry)> {
        let mut all = Vec::new();
        for (i, t) in self.tables.iter_mut().enumerate() {
            for e in t.expire(now) {
                all.push((TableId(i as u8), e));
            }
        }
        all
    }

    /// Run `packet` through the pipeline starting at table 0, following
    /// goto-table links and accumulating the applied actions into a
    /// caller-owned (typically reused) buffer, which is cleared first.
    /// Returns whether any table matched (`false` = table-miss).
    ///
    /// A goto may only move forward (OpenFlow forbids loops); a backwards
    /// goto terminates processing with whatever actions have been gathered.
    pub fn process_into(
        &mut self,
        now: SimTime,
        packet: &Packet,
        in_port: PortId,
        actions: &mut Vec<Action>,
    ) -> bool {
        actions.clear();
        let mut table = 0usize;
        let mut matched_any = false;
        while let Some(entry) = self.tables[table].match_packet(now, packet, in_port) {
            matched_any = true;
            actions.extend_from_slice(&entry.apply);
            match entry.goto.map(|t| t.0 as usize) {
                Some(t) if t > table && t < self.tables.len() => table = t,
                _ => break,
            }
        }
        matched_any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scotch_net::{FlowId, FlowKey, IpAddr};

    fn pkt(sport: u16) -> Packet {
        Packet::flow_start(
            FlowKey::tcp(IpAddr::new(1, 0, 0, 1), sport, IpAddr::new(2, 0, 0, 2), 80),
            FlowId(sport as u64),
            SimTime::ZERO,
        )
    }

    #[test]
    fn highest_priority_wins() {
        let mut t = FlowTable::new(10);
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::ANY, 1, &[Action::Drop]),
        )
        .unwrap();
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::exact(pkt(5).key), 10, &[Action::Output(PortId(1))]),
        )
        .unwrap();
        let hit = t.lookup(&pkt(5), PortId(0)).unwrap();
        assert_eq!(hit.priority, 10);
        // Non-matching flow falls to the wildcard.
        let miss = t.lookup(&pkt(6), PortId(0)).unwrap();
        assert_eq!(miss.priority, 1);
    }

    #[test]
    fn equal_priority_prefers_earlier_install() {
        let mut t = FlowTable::new(10);
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::ANY, 5, &[Action::Output(PortId(1))]).with_cookie(1),
        )
        .unwrap();
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::on_port(PortId(0)), 5, &[Action::Drop]).with_cookie(2),
        )
        .unwrap();
        assert_eq!(t.lookup(&pkt(1), PortId(0)).unwrap().cookie, 1);
    }

    #[test]
    fn capacity_rejects_and_replacement_does_not() {
        let mut t = FlowTable::new(2);
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::exact(pkt(1).key), 1, &[]),
        )
        .unwrap();
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::exact(pkt(2).key), 1, &[]),
        )
        .unwrap();
        assert_eq!(
            t.insert(
                SimTime::ZERO,
                FlowEntry::apply(Match::exact(pkt(3).key), 1, &[])
            ),
            Err(InsertError::TableFull)
        );
        // Same (match, priority) replaces in place even when full.
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::exact(pkt(1).key), 1, &[Action::Drop]),
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new(4);
        t.insert(SimTime::ZERO, FlowEntry::apply(Match::ANY, 1, &[]))
            .unwrap();
        t.match_packet(SimTime::from_secs(1), &pkt(1).with_size(100), PortId(0));
        t.match_packet(SimTime::from_secs(2), &pkt(1).with_size(200), PortId(0));
        let e = t.iter().next().unwrap();
        assert_eq!(e.packet_count, 2);
        assert_eq!(e.byte_count, 300);
        assert_eq!(e.last_hit, SimTime::from_secs(2));
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::new(4);
        t.insert(
            SimTime::from_secs(10),
            FlowEntry::apply(Match::ANY, 1, &[]).with_hard_timeout(SimDuration::from_secs(10)),
        )
        .unwrap();
        assert!(t.expire(SimTime::from_secs(15)).is_empty());
        let removed = t.expire(SimTime::from_secs(20));
        assert_eq!(removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_resets_on_hit() {
        let mut t = FlowTable::new(4);
        t.insert(
            SimTime::ZERO,
            FlowEntry::apply(Match::ANY, 1, &[]).with_idle_timeout(SimDuration::from_secs(5)),
        )
        .unwrap();
        // A hit at t=4 pushes expiry to t=9.
        t.match_packet(SimTime::from_secs(4), &pkt(1), PortId(0));
        assert!(t.expire(SimTime::from_secs(8)).is_empty());
        assert_eq!(t.expire(SimTime::from_secs(9)).len(), 1);
    }

    #[test]
    fn remove_by_cookie_and_exact() {
        let mut t = FlowTable::new(8);
        for i in 0..4 {
            t.insert(
                SimTime::ZERO,
                FlowEntry::apply(Match::exact(pkt(i).key), 1, &[]).with_cookie(i as u64 % 2),
            )
            .unwrap();
        }
        assert_eq!(t.remove_by_cookie(0), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove_exact(&Match::exact(pkt(1).key)), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pipeline_two_table_scotch_shape() {
        // Table 0: label the ingress port, goto table 1.
        // Table 1: default rule sends to the group.
        let mut p = Pipeline::new(2, 100);
        p.table_mut(TableId(0))
            .insert(
                SimTime::ZERO,
                FlowEntry::apply(
                    Match::on_port(PortId(3)),
                    1,
                    &[Action::push_ingress(PortId(3))],
                )
                .with_goto(TableId(1)),
            )
            .unwrap();
        p.table_mut(TableId(1))
            .insert(
                SimTime::ZERO,
                FlowEntry::apply(Match::ANY, 0, &[Action::Group(crate::group::GroupId(1))]),
            )
            .unwrap();
        let mut a = Vec::new();
        assert!(p.process_into(SimTime::ZERO, &pkt(1), PortId(3), &mut a));
        assert_eq!(
            a,
            vec![
                Action::push_ingress(PortId(3)),
                Action::Group(crate::group::GroupId(1))
            ]
        );
    }

    #[test]
    fn pipeline_miss_when_nothing_matches() {
        let mut p = Pipeline::new(1, 10);
        // A stale buffer is cleared even on a miss.
        let mut a = vec![Action::Drop];
        assert!(!p.process_into(SimTime::ZERO, &pkt(1), PortId(0), &mut a));
        assert!(a.is_empty());
    }

    #[test]
    fn pipeline_ignores_backward_goto() {
        let mut p = Pipeline::new(2, 10);
        p.table_mut(TableId(1))
            .insert(
                SimTime::ZERO,
                FlowEntry::apply(Match::ANY, 1, &[]).with_goto(TableId(0)),
            )
            .unwrap();
        p.table_mut(TableId(0))
            .insert(
                SimTime::ZERO,
                FlowEntry::apply(Match::ANY, 1, &[Action::Output(PortId(1))]).with_goto(TableId(1)),
            )
            .unwrap();
        // Must terminate (no loop) and keep the applied action.
        let mut a = Vec::new();
        assert!(p.process_into(SimTime::ZERO, &pkt(1), PortId(0), &mut a));
        assert_eq!(a, vec![Action::Output(PortId(1))]);
    }

    proptest! {
        /// The matched entry always has the maximal priority among matching
        /// entries.
        #[test]
        fn prop_lookup_maximal_priority(
            prios in proptest::collection::vec(0u16..100, 1..50),
            probe in 0u16..50,
        ) {
            let mut t = FlowTable::new(prios.len());
            for (i, p) in prios.iter().enumerate() {
                // Half the entries match only one sport, half match all.
                let m = if i % 2 == 0 {
                    Match::ANY
                } else {
                    Match { sport: Some(i as u16), ..Match::ANY }
                };
                t.insert(SimTime::ZERO, FlowEntry::apply(m, *p, &[])).unwrap();
            }
            let packet = pkt(probe);
            if let Some(hit) = t.lookup(&packet, PortId(0)) {
                let max = t
                    .iter()
                    .filter(|e| e.matcher.matches(&packet, PortId(0)))
                    .map(|e| e.priority)
                    .max()
                    .unwrap();
                prop_assert_eq!(hit.priority, max);
            }
        }

        /// The indexed lookup agrees with a naive full scan on arbitrary
        /// rule sets under arbitrary churn (the index is an optimization,
        /// never a semantic change). Inserts interleave with exact removal,
        /// removal by cookie and timeout expiry; rules spread over three
        /// `(src, dst)` keys so index buckets move between one inline slot
        /// and a spilled list in both directions.
        #[test]
        fn prop_index_equals_full_scan(
            ops in proptest::collection::vec(
                (0u8..10, 0u16..5, 0u16..6, 0u8..3, 0u16..3, 0u16..8),
                1..80,
            ),
        ) {
            const CAPACITY: usize = 16;
            let probe = |sport: u16, host: u8| {
                let mut p = pkt(sport);
                p.key.dst = IpAddr::new(2, 0, 0, host);
                p
            };
            // Oracle rows in install order: (match, priority, cookie,
            // installed at, hard timeout), all times in seconds.
            let mut naive: Vec<(Match, u16, u64, u64, Option<u64>)> = Vec::new();
            let mut t = FlowTable::new(CAPACITY);
            for (step, (op, kind, sport, host, port, prio)) in ops.iter().enumerate() {
                let now = step as u64;
                let key = probe(*sport, *host).key;
                let m = match kind {
                    0 => Match::exact(key),
                    1 => Match::src_dst(key.src, key.dst),
                    2 => Match::src_dst(key.src, key.dst).with_in_port(PortId(*port)),
                    3 => Match::on_port(PortId(*port)),
                    _ => Match { sport: Some(*sport), ..Match::ANY },
                };
                let cookie = u64::from(*sport % 3);
                match op {
                    0..=5 => {
                        let hard = match (kind + sport + prio) % 4 {
                            0 => None,
                            h => Some(u64::from(h)),
                        };
                        let mut e = FlowEntry::apply(m, *prio, &[]).with_cookie(cookie);
                        if let Some(h) = hard {
                            e = e.with_hard_timeout(SimDuration::from_secs(h));
                        }
                        let got = t.insert(SimTime::from_secs(now), e);
                        // Replacement keeps the install position.
                        if let Some(row) = naive.iter_mut().find(|r| r.0 == m && r.1 == *prio) {
                            *row = (m, *prio, cookie, now, hard);
                            prop_assert_eq!(got, Ok(()));
                        } else if naive.len() < CAPACITY {
                            naive.push((m, *prio, cookie, now, hard));
                            prop_assert_eq!(got, Ok(()));
                        } else {
                            prop_assert_eq!(got, Err(InsertError::TableFull));
                        }
                    }
                    6 => {
                        let before = naive.len();
                        naive.retain(|r| r.0 != m);
                        prop_assert_eq!(t.remove_exact(&m), before - naive.len());
                    }
                    7 => {
                        let before = naive.len();
                        naive.retain(|r| r.2 != cookie);
                        prop_assert_eq!(t.remove_by_cookie(cookie), before - naive.len());
                    }
                    _ => {
                        let before = naive.len();
                        naive.retain(|r| r.4.is_none_or(|h| now - r.3 < h));
                        prop_assert_eq!(t.expire(SimTime::from_secs(now)).len(), before - naive.len());
                    }
                }
                prop_assert_eq!(t.len(), naive.len());
                prop_assert_eq!(t.iter().count(), naive.len());
                // Probe every packet shape the rules can distinguish.
                for (s, h, p) in (0..6).flat_map(|s| (0..3).flat_map(move |h| (0..3).map(move |p| (s, h, p)))) {
                    let packet = probe(s, h);
                    let got = t
                        .lookup(&packet, PortId(p))
                        .map(|e| (e.matcher, e.priority, e.cookie));
                    // Oracle: max priority; ties break toward the earliest
                    // install (`naive`'s order IS install order).
                    let want = naive
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.0.matches(&packet, PortId(p)))
                        .max_by(|(ia, a), (ib, b)| a.1.cmp(&b.1).then(ib.cmp(ia)))
                        .map(|(_, r)| (r.0, r.1, r.2));
                    prop_assert_eq!(got, want);
                }
            }
        }

        /// Inserting then removing by cookie leaves no trace of that cookie.
        #[test]
        fn prop_remove_by_cookie_complete(cookies in proptest::collection::vec(0u64..5, 1..40)) {
            let mut t = FlowTable::new(cookies.len());
            for (i, c) in cookies.iter().enumerate() {
                let m = Match { sport: Some(i as u16), ..Match::ANY };
                t.insert(SimTime::ZERO, FlowEntry::apply(m, 1, &[]).with_cookie(*c)).unwrap();
            }
            let removed = t.remove_by_cookie(3);
            prop_assert_eq!(removed, cookies.iter().filter(|&&c| c == 3).count());
            prop_assert!(t.iter().all(|e| e.cookie != 3));
        }
    }
}
