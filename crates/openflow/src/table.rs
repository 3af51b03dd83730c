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
use scotch_net::{IpAddr, Packet, PortId};
use scotch_sim::{FxHashMap, SimDuration, SimTime};

/// Index of a flow table within a switch's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u8);

/// What a FlowMod installs: match, priority, instructions, cookie and
/// timeouts. Like OpenFlow's `flow_mod` it carries no counters; the table
/// wraps it in a [`FlowEntry`] row that adds them.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRule {
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
    /// Remove if unmatched for this long ([`NO_TIMEOUT`] = never).
    idle_timeout: SimDuration,
    /// Remove unconditionally this long after installation
    /// ([`NO_TIMEOUT`] = never).
    hard_timeout: SimDuration,
}

/// The stored timeout meaning "none": half the size of an
/// `Option<SimDuration>`, and a duration this long (~584 years) never
/// elapses in a simulation anyway.
const NO_TIMEOUT: SimDuration = SimDuration(u64::MAX);

fn timeout(t: SimDuration) -> Option<SimDuration> {
    (t != NO_TIMEOUT).then_some(t)
}

impl FlowRule {
    /// A rule applying `actions` on match; no goto, no timeouts. Panics
    /// beyond [`ActionList::CAPACITY`] actions.
    pub fn apply(matcher: Match, priority: u16, actions: &[Action]) -> Self {
        FlowRule {
            matcher,
            priority,
            apply: ActionList::from_slice(actions),
            goto: None,
            cookie: 0,
            idle_timeout: NO_TIMEOUT,
            hard_timeout: NO_TIMEOUT,
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
        self.idle_timeout = t;
        self
    }

    /// Builder: set the hard timeout.
    pub fn with_hard_timeout(mut self, t: SimDuration) -> Self {
        self.hard_timeout = t;
        self
    }

    /// Remove if unmatched for this long (`None` = no idle timeout).
    pub fn idle_timeout(&self) -> Option<SimDuration> {
        timeout(self.idle_timeout)
    }

    /// Remove unconditionally this long after installation (`None` = no
    /// hard timeout).
    pub fn hard_timeout(&self) -> Option<SimDuration> {
        timeout(self.hard_timeout)
    }

    /// The rule's first `Output` action, if any (handy for inspecting
    /// where a rule forwards).
    pub fn first_output(&self) -> Option<Action> {
        self.apply
            .iter()
            .find(|a| matches!(a, Action::Output(_)))
            .copied()
    }
}

/// What an installed rule does on a match and when it times out: the
/// parts of a [`FlowRule`] that many rules of one table share. Scotch
/// installs thousands of per-flow rules at a vSwitch but only a handful of
/// distinct action lists (one per output port or tunnel), all with the
/// same timeouts, so each [`FlowTable`] interns its shapes once and a
/// [`FlowEntry`] row refers to its shape by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuleShape {
    /// Actions applied on match (APPLY_ACTIONS).
    pub apply: ActionList,
    /// Table to continue matching in (GOTO_TABLE).
    pub goto: Option<TableId>,
    /// Idle timeout ([`NO_TIMEOUT`] = never).
    idle_timeout: SimDuration,
    /// Hard timeout ([`NO_TIMEOUT`] = never).
    hard_timeout: SimDuration,
}

impl RuleShape {
    fn of(rule: &FlowRule) -> Self {
        RuleShape {
            apply: rule.apply,
            goto: rule.goto,
            idle_timeout: rule.idle_timeout,
            hard_timeout: rule.hard_timeout,
        }
    }

    fn idle_timeout(&self) -> Option<SimDuration> {
        timeout(self.idle_timeout)
    }

    fn hard_timeout(&self) -> Option<SimDuration> {
        timeout(self.hard_timeout)
    }
}

/// One installed rule as its table stores it: the per-rule fields of the
/// [`FlowRule`] (match, priority, cookie) plus the counters the table keeps
/// for it, and the id of its [`RuleShape`] in the table's dictionary.
/// [`FlowTable::rule`] rebuilds the full rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// Match condition.
    pub matcher: Match,
    /// Priority; higher wins.
    pub priority: u16,
    /// Controller-chosen opaque id.
    pub cookie: u64,
    /// Installation time.
    pub installed_at: SimTime,
    /// Last time a packet hit this entry.
    pub last_hit: SimTime,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Index of the entry's shape in its table's dictionary.
    shape: u32,
}

impl FlowEntry {
    /// Earliest time this entry *could* expire given its current state and
    /// its `shape` (`None` = no timeouts). A later hit pushes the idle part
    /// forward, so this is a lower bound, never an exact prediction.
    fn deadline(&self, shape: &RuleShape) -> Option<SimTime> {
        let hard = shape.hard_timeout().map(|h| self.installed_at + h);
        let idle = shape.idle_timeout().map(|i| self.last_hit + i);
        match (hard, idle) {
            (Some(h), Some(i)) => Some(h.min(i)),
            (h, i) => h.or(i),
        }
    }

    fn expired(&self, shape: &RuleShape, now: SimTime) -> bool {
        shape
            .hard_timeout()
            .is_some_and(|h| now.duration_since(self.installed_at) >= h)
            || shape
                .idle_timeout()
                .is_some_and(|i| now.duration_since(self.last_hit) >= i)
    }
}

/// Packets and bytes an entry matched *and* the telemetry sampler picked
/// (see the switch crate's `PacketSampler`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sampled {
    /// Sampled packets.
    pub packets: u64,
    /// Bytes of sampled packets.
    pub bytes: u64,
}

/// Why an insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The table is at capacity (TCAM full).
    TableFull,
}

/// End of an index chain.
const NIL: u32 = u32::MAX;

/// A bounded, priority-ordered flow table.
///
/// Internally a slab plus a `(src, dst)` hash index: per-flow rules (the
/// overwhelming majority — both the paper's src/dst rules and microflow
/// rules specify both addresses) are found in O(1); only the handful of
/// "generic" rules (port-labelling defaults, label rules, wildcards) are
/// scanned. Semantics are identical to a full priority scan.
///
/// The index maps a key to the first slot of an intrusive doubly linked
/// chain threaded through `next`/`prev`; the generic slots form one more
/// chain. A slot's index cost is its install sequence plus two links (16
/// bytes), a key costs one 12-byte map entry, and unlinking is O(1) however
/// long a chain grows (exact-match rules for one host pair share a chain).
/// Chain order is irrelevant: lookup picks the maximal priority, then the
/// earliest install, over the whole chain.
///
/// Rows hold only per-rule fields; actions, goto and timeouts live in a
/// per-table dictionary of [`RuleShape`]s, interned on insert. A chain walk
/// reads match and priority inline and touches the dictionary only for the
/// winning entry.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// Slab of entries; `None` marks a free slot.
    slots: Vec<Option<FlowEntry>>,
    /// The distinct rule shapes installed since the last `clear`, indexed
    /// by [`FlowEntry`]'s shape id. Append-only: a table sees only a few
    /// shapes, so ids are never recycled.
    shapes: Vec<RuleShape>,
    /// Shape → id, for interning.
    shape_ids: FxHashMap<RuleShape, u32>,
    /// The shape interned last: consecutive installs usually share it.
    last_shape: u32,
    /// Install order per slot, parallel to `slots`.
    seqs: Vec<u64>,
    /// Next and previous slot in the same chain (`NIL` ends it), parallel
    /// to `slots`; meaningful only for occupied slots.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Sampled counters per slot, grown on the first sample: tables of
    /// switches that never sample keep it empty. Reset when a slot is
    /// (re)filled, so sampled state lives and dies with its entry.
    sampled: Vec<Sampled>,
    /// Free slot indices for reuse.
    free: Vec<u32>,
    /// First slot of the chain of entries whose matcher specifies both
    /// `src` and `dst`.
    by_src_dst: FxHashMap<(IpAddr, IpAddr), u32>,
    /// First slot of the chain of all other (wildcard-ish) entries.
    generic: u32,
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

impl FlowTable {
    /// A table holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flow table must hold at least one entry");
        assert!(
            capacity < NIL as usize,
            "flow table slots are indexed by u32"
        );
        FlowTable {
            slots: Vec::new(),
            shapes: Vec::new(),
            shape_ids: FxHashMap::default(),
            last_shape: 0,
            seqs: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            sampled: Vec::new(),
            free: Vec::new(),
            by_src_dst: FxHashMap::default(),
            generic: NIL,
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

    /// Number of distinct rule shapes interned since the last `clear`.
    pub fn shape_count(&self) -> usize {
        self.shapes.len()
    }

    fn entry(&self, slot: usize) -> &FlowEntry {
        self.slots[slot].as_ref().expect("indexed slot occupied")
    }

    /// The full rule an entry of this table was installed from (stats,
    /// tests and diagnostics; the data path reads the shape directly).
    pub fn rule(&self, e: &FlowEntry) -> FlowRule {
        let s = &self.shapes[e.shape as usize];
        FlowRule {
            matcher: e.matcher,
            priority: e.priority,
            apply: s.apply,
            goto: s.goto,
            cookie: e.cookie,
            idle_timeout: s.idle_timeout,
            hard_timeout: s.hard_timeout,
        }
    }

    /// The id of `shape` in the dictionary, adding it if new.
    fn intern(&mut self, shape: RuleShape) -> u32 {
        if self.shapes.get(self.last_shape as usize) == Some(&shape) {
            return self.last_shape;
        }
        let shapes = &mut self.shapes;
        let id = *self.shape_ids.entry(shape).or_insert_with(|| {
            shapes.push(shape);
            (shapes.len() - 1) as u32
        });
        self.last_shape = id;
        id
    }

    /// The slots of the chain starting at `head`.
    fn chain(&self, head: u32) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors((head != NIL).then_some(head), |&s| {
            let n = self.next[s as usize];
            (n != NIL).then_some(n)
        })
        .map(|s| s as usize)
    }

    fn head(&self, key: (IpAddr, IpAddr)) -> u32 {
        self.by_src_dst.get(&key).copied().unwrap_or(NIL)
    }

    /// The head of the chain a rule with matcher `m` is indexed under.
    fn head_of(&self, m: &Match) -> u32 {
        match m.src_dst_key() {
            Some(k) => self.head(k),
            None => self.generic,
        }
    }

    /// Push `slot` onto the head of its chain.
    fn link(&mut self, slot: usize, matcher: &Match) {
        let head = match matcher.src_dst_key() {
            Some(k) => self.by_src_dst.entry(k).or_insert(NIL),
            None => &mut self.generic,
        };
        let after = std::mem::replace(head, slot as u32);
        self.next[slot] = after;
        self.prev[slot] = NIL;
        if after != NIL {
            self.prev[after as usize] = slot as u32;
        }
    }

    /// Remove `slot` from its chain in O(1).
    fn unlink(&mut self, slot: usize, matcher: &Match) {
        let (before, after) = (self.prev[slot], self.next[slot]);
        if after != NIL {
            self.prev[after as usize] = before;
        }
        if before != NIL {
            self.next[before as usize] = after;
            return;
        }
        // `slot` was its chain's head.
        match matcher.src_dst_key() {
            Some(k) if after == NIL => {
                self.by_src_dst.remove(&k);
            }
            Some(k) => *self.by_src_dst.get_mut(&k).expect("indexed key") = after,
            None => self.generic = after,
        }
    }

    fn take_slot(&mut self, slot: usize) -> FlowEntry {
        let e = self.slots[slot].take().expect("occupied slot");
        self.unlink(slot, &e.matcher);
        self.free.push(slot as u32);
        self.len -= 1;
        e
    }

    /// Fill `slot` with a fresh row for `rule`, zeroing its counters.
    fn fill(&mut self, slot: usize, now: SimTime, rule: &FlowRule) {
        let shape = RuleShape::of(rule);
        let e = FlowEntry {
            matcher: rule.matcher,
            priority: rule.priority,
            cookie: rule.cookie,
            installed_at: now,
            last_hit: now,
            packet_count: 0,
            byte_count: 0,
            shape: self.intern(shape),
        };
        self.note_deadline(e.deadline(&shape));
        self.slots[slot] = Some(e);
        if let Some(s) = self.sampled.get_mut(slot) {
            *s = Sampled::default();
        }
    }

    /// Install a rule at `now`. Identical (match, priority) replaces the
    /// existing entry, OpenFlow-style, counters included; otherwise a full
    /// table rejects.
    pub fn insert(&mut self, now: SimTime, rule: FlowRule) -> Result<(), InsertError> {
        let existing = self.chain(self.head_of(&rule.matcher)).find(|&s| {
            let e = self.entry(s);
            e.matcher == rule.matcher && e.priority == rule.priority
        });
        if let Some(slot) = existing {
            self.fill(slot, now, &rule);
            return Ok(());
        }
        if self.len >= self.capacity {
            return Err(InsertError::TableFull);
        }
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.slots.push(None);
                self.seqs.push(0);
                self.next.push(NIL);
                self.prev.push(NIL);
                self.slots.len() - 1
            }
        };
        self.fill(slot, now, &rule);
        self.seqs[slot] = self.install_seq;
        self.install_seq += 1;
        self.len += 1;
        self.link(slot, &rule.matcher);
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
        let mut removed = 0;
        let mut cur = self.head_of(matcher);
        while cur != NIL {
            let after = self.next[cur as usize];
            if self.entry(cur as usize).matcher == *matcher {
                self.take_slot(cur as usize);
                removed += 1;
            }
            cur = after;
        }
        removed
    }

    /// Remove every entry (non-strict delete with an empty match);
    /// returns how many were removed.
    pub fn clear(&mut self) -> usize {
        let n = self.len;
        self.slots.clear();
        self.shapes.clear();
        self.shape_ids.clear();
        self.last_shape = 0;
        self.seqs.clear();
        self.next.clear();
        self.prev.clear();
        self.sampled.clear();
        self.free.clear();
        self.by_src_dst.clear();
        self.generic = NIL;
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
            let shape = &self.shapes[e.shape as usize];
            if e.expired(shape, now) {
                removed.push(self.take_slot(slot));
            } else if let Some(d) = e.deadline(shape) {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        }
        self.next_deadline = next;
        removed
    }

    /// Best-match lookup without mutating counters.
    pub fn lookup(&self, packet: &Packet, in_port: PortId) -> Option<&FlowEntry> {
        self.best_slot(packet, in_port).map(|i| self.entry(i))
    }

    fn best_slot(&self, packet: &Packet, in_port: PortId) -> Option<usize> {
        // (slot, priority) of the best match so far. Install sequences
        // are read only to break a priority tie.
        let mut best: Option<(usize, u16)> = None;
        let indexed = self.chain(self.head((packet.key.src, packet.key.dst)));
        for i in indexed.chain(self.chain(self.generic)) {
            let e = self.entry(i);
            if !e.matcher.matches(packet, in_port) {
                continue;
            }
            if best.is_none_or(|(b, p)| {
                e.priority > p || (e.priority == p && self.seqs[i] < self.seqs[b])
            }) {
                best = Some((i, e.priority));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Best-match lookup, bumping hit counters and the idle-timeout clock.
    /// Returns the matched entry with its shape (actions and goto).
    pub fn match_packet(
        &mut self,
        now: SimTime,
        packet: &Packet,
        in_port: PortId,
    ) -> Option<(&FlowEntry, &RuleShape)> {
        self.match_packet_sampling(now, packet, in_port, || false)
    }

    /// [`FlowTable::match_packet`] for a sampling switch: on a match,
    /// `pick` says whether the telemetry sampler picks the packet, and a
    /// picked packet also lands on the entry's [`Sampled`] counters.
    pub fn match_packet_sampling(
        &mut self,
        now: SimTime,
        packet: &Packet,
        in_port: PortId,
        pick: impl FnOnce() -> bool,
    ) -> Option<(&FlowEntry, &RuleShape)> {
        let idx = self.best_slot(packet, in_port)?;
        if pick() {
            if self.sampled.len() <= idx {
                self.sampled.resize(self.slots.len(), Sampled::default());
            }
            let s = &mut self.sampled[idx];
            s.packets += 1;
            s.bytes += packet.size as u64;
        }
        let e = self.slots[idx].as_mut().expect("matched slot occupied");
        e.packet_count += 1;
        e.byte_count += packet.size as u64;
        e.last_hit = now;
        Some((e, &self.shapes[e.shape as usize]))
    }

    /// Iterate over installed entries (stats collection).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.slots.iter().filter_map(|e| e.as_ref())
    }

    /// Iterate over installed entries with their sampled counters, in
    /// [`FlowTable::iter`] order.
    pub fn iter_sampled(&self) -> impl Iterator<Item = (&FlowEntry, Sampled)> {
        self.slots.iter().enumerate().filter_map(|(i, e)| {
            let sampled = self.sampled.get(i).copied().unwrap_or_default();
            e.as_ref().map(|e| (e, sampled))
        })
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
        while let Some((_, shape)) = self.tables[table].match_packet(now, packet, in_port) {
            matched_any = true;
            actions.extend_from_slice(&shape.apply);
            match shape.goto.map(|t| t.0 as usize) {
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
    use scotch_net::{FlowId, FlowKey, IpAddr, Label, TunnelId};

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
            FlowRule::apply(Match::ANY, 1, &[Action::Drop]),
        )
        .unwrap();
        t.insert(
            SimTime::ZERO,
            FlowRule::apply(Match::exact(pkt(5).key), 10, &[Action::Output(PortId(1))]),
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
            FlowRule::apply(Match::ANY, 5, &[Action::Output(PortId(1))]).with_cookie(1),
        )
        .unwrap();
        t.insert(
            SimTime::ZERO,
            FlowRule::apply(Match::on_port(PortId(0)), 5, &[Action::Drop]).with_cookie(2),
        )
        .unwrap();
        assert_eq!(t.lookup(&pkt(1), PortId(0)).unwrap().cookie, 1);
    }

    #[test]
    fn capacity_rejects_and_replacement_does_not() {
        let mut t = FlowTable::new(2);
        t.insert(
            SimTime::ZERO,
            FlowRule::apply(Match::exact(pkt(1).key), 1, &[]),
        )
        .unwrap();
        t.insert(
            SimTime::ZERO,
            FlowRule::apply(Match::exact(pkt(2).key), 1, &[]),
        )
        .unwrap();
        assert_eq!(
            t.insert(
                SimTime::ZERO,
                FlowRule::apply(Match::exact(pkt(3).key), 1, &[])
            ),
            Err(InsertError::TableFull)
        );
        // Same (match, priority) replaces in place even when full.
        t.insert(
            SimTime::ZERO,
            FlowRule::apply(Match::exact(pkt(1).key), 1, &[Action::Drop]),
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new(4);
        t.insert(SimTime::ZERO, FlowRule::apply(Match::ANY, 1, &[]))
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
            FlowRule::apply(Match::ANY, 1, &[]).with_hard_timeout(SimDuration::from_secs(10)),
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
            FlowRule::apply(Match::ANY, 1, &[]).with_idle_timeout(SimDuration::from_secs(5)),
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
                FlowRule::apply(Match::exact(pkt(i).key), 1, &[]).with_cookie(i as u64 % 2),
            )
            .unwrap();
        }
        assert_eq!(t.remove_by_cookie(0), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove_exact(&Match::exact(pkt(1).key)), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn long_chain_unlinks_anywhere() {
        // Exact-match rules for one host pair share one index chain:
        // remove from its middle, then expire the rest in two sweeps.
        const N: u16 = 300;
        let mut t = FlowTable::new(N as usize);
        for sport in 0..N {
            let idle = SimDuration::from_secs(u64::from(sport % 2) + 1);
            let r = FlowRule::apply(Match::exact(pkt(sport).key), 1, &[]).with_idle_timeout(idle);
            t.insert(SimTime::ZERO, r).unwrap();
        }
        for sport in (0..N).step_by(3) {
            assert_eq!(t.remove_exact(&Match::exact(pkt(sport).key)), 1);
        }
        assert_eq!(t.expire(SimTime::from_secs(1)).len(), 100);
        for sport in 0..N {
            let hit = t.lookup(&pkt(sport), PortId(0)).is_some();
            assert_eq!(hit, sport % 3 != 0 && sport % 2 == 1, "sport {sport}");
        }
        assert_eq!(t.expire(SimTime::from_secs(2)).len(), 100);
        assert!(t.is_empty() && t.by_src_dst.is_empty());
        // Freed slots are reused and indexed afresh.
        t.insert(
            SimTime::from_secs(2),
            FlowRule::apply(Match::exact(pkt(7).key), 1, &[]),
        )
        .unwrap();
        assert!(t.lookup(&pkt(7), PortId(0)).is_some());
        assert!(t.lookup(&pkt(8), PortId(0)).is_none());
    }

    #[test]
    fn pipeline_two_table_scotch_shape() {
        // Table 0: label the ingress port, goto table 1.
        // Table 1: default rule sends to the group.
        let mut p = Pipeline::new(2, 100);
        p.table_mut(TableId(0))
            .insert(
                SimTime::ZERO,
                FlowRule::apply(
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
                FlowRule::apply(Match::ANY, 0, &[Action::Group(crate::group::GroupId(1))]),
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
                FlowRule::apply(Match::ANY, 1, &[]).with_goto(TableId(0)),
            )
            .unwrap();
        p.table_mut(TableId(0))
            .insert(
                SimTime::ZERO,
                FlowRule::apply(Match::ANY, 1, &[Action::Output(PortId(1))]).with_goto(TableId(1)),
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
                    Match::ANY.with_sport(i as u16)
                };
                t.insert(SimTime::ZERO, FlowRule::apply(m, *p, &[])).unwrap();
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
        /// removal by cookie, sampled hits, hard/idle timeout expiry and
        /// `clear`; rules spread over three `(src, dst)` keys so index
        /// chains grow and shrink from both ends, and label rules require
        /// either no label or a specific one. Per-entry hit and sampled
        /// counters must follow the oracle too: a replaced entry or a
        /// reused slot starts from zero.
        ///
        /// Shapes (actions, goto, timeouts) come from a small shared pool
        /// whose members differ in one field only, plus one-off shapes, so
        /// the table's shape dictionary must tell every field apart: each
        /// installed entry rebuilds exactly the rule it was installed
        /// from, and expires on that rule's timeouts.
        #[test]
        fn prop_index_equals_full_scan(
            ops in proptest::collection::vec(
                (0u8..11, 0u16..7, 0u16..6, 0u8..3, 0u16..3, (0u16..8, 0u8..8)),
                1..80,
            ),
        ) {
            const CAPACITY: usize = 16;
            let probe = |sport: u16, host: u8, label: u16| {
                let mut p = pkt(sport);
                p.key.dst = IpAddr::new(2, 0, 0, host);
                if label > 0 {
                    p.push_label(Label::Tunnel(TunnelId(u32::from(label - 1))));
                }
                p
            };
            let secs = SimDuration::from_secs;
            // Pool shapes 1, 3, 4 and 5 share their actions and differ
            // only in goto or timeouts; draws past the pool are one-off.
            let shaped = |m: Match, prio: u16, cookie: u64, pick: u8, step: u64| {
                let out = [Action::Output(PortId(1))];
                let r = match pick {
                    0 => FlowRule::apply(m, prio, &[]),
                    1 => FlowRule::apply(m, prio, &out).with_idle_timeout(secs(2)),
                    2 => FlowRule::apply(m, prio, &[Action::push_tunnel(TunnelId(1)), out[0]])
                        .with_hard_timeout(secs(3)),
                    3 => FlowRule::apply(m, prio, &out)
                        .with_idle_timeout(secs(2))
                        .with_goto(TableId(1)),
                    4 => FlowRule::apply(m, prio, &out)
                        .with_idle_timeout(secs(2))
                        .with_hard_timeout(secs(3)),
                    5 => FlowRule::apply(m, prio, &out).with_idle_timeout(secs(4)),
                    _ => FlowRule::apply(m, prio, &[Action::Output(PortId(100 + step as u16))])
                        .with_idle_timeout(secs(step % 3 + 1))
                        .with_hard_timeout(secs(step % 5 + 1)),
                };
                r.with_cookie(cookie)
            };
            /// An oracle row; all times in seconds.
            #[derive(Clone)]
            struct Row {
                rule: FlowRule,
                m: Match,
                prio: u16,
                cookie: u64,
                installed: u64,
                last_hit: u64,
                hard: Option<u64>,
                idle: Option<u64>,
                packets: u64,
                sampled: u64,
                sampled_bytes: u64,
            }
            impl Row {
                fn expired(&self, now: u64) -> bool {
                    self.hard.is_some_and(|h| now - self.installed >= h)
                        || self.idle.is_some_and(|i| now - self.last_hit >= i)
                }
            }
            // Oracle: max priority; ties break toward the earliest install
            // (`naive`'s order IS install order).
            let winner = |naive: &[Row], packet: &Packet, port: PortId| {
                naive
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.m.matches(packet, port))
                    .max_by(|(ia, a), (ib, b)| a.prio.cmp(&b.prio).then(ib.cmp(ia)))
                    .map(|(i, _)| i)
            };
            let mut naive: Vec<Row> = Vec::new();
            let mut t = FlowTable::new(CAPACITY);
            for (step, (op, kind, sport, host, port, (prio, pick))) in ops.iter().enumerate() {
                let now = step as u64;
                let key = probe(*sport, *host, 0).key;
                let m = match kind {
                    0 => Match::exact(key),
                    1 => Match::src_dst(key.src, key.dst),
                    2 => Match::src_dst(key.src, key.dst).with_in_port(PortId(*port)),
                    3 => Match::on_port(PortId(*port)),
                    4 => Match::ANY.with_sport(*sport),
                    5 => Match::src_dst(key.src, key.dst).with_top_label(None),
                    _ => Match::on_port(PortId(*port))
                        .with_top_label(Some(Label::Tunnel(TunnelId(u32::from(*port % 2))))),
                };
                let cookie = u64::from(*sport % 3);
                match op {
                    0..=5 => {
                        let r = shaped(m, *prio, cookie, *pick, now);
                        let whole_secs = |d: SimDuration| d.as_nanos() / 1_000_000_000;
                        let hard = r.hard_timeout().map(whole_secs);
                        let idle = r.idle_timeout().map(whole_secs);
                        let got = t.insert(SimTime::from_secs(now), r.clone());
                        let row = Row {
                            rule: r,
                            m,
                            prio: *prio,
                            cookie,
                            installed: now,
                            last_hit: now,
                            hard,
                            idle,
                            packets: 0,
                            sampled: 0,
                            sampled_bytes: 0,
                        };
                        // Replacement keeps the install position.
                        if let Some(old) = naive.iter_mut().find(|r| r.m == m && r.prio == *prio) {
                            *old = row;
                            prop_assert_eq!(got, Ok(()));
                        } else if naive.len() < CAPACITY {
                            naive.push(row);
                            prop_assert_eq!(got, Ok(()));
                        } else {
                            prop_assert_eq!(got, Err(InsertError::TableFull));
                        }
                    }
                    6 => {
                        let before = naive.len();
                        naive.retain(|r| r.m != m);
                        prop_assert_eq!(t.remove_exact(&m), before - naive.len());
                    }
                    7 => {
                        let before = naive.len();
                        naive.retain(|r| r.cookie != cookie);
                        prop_assert_eq!(t.remove_by_cookie(cookie), before - naive.len());
                    }
                    8 => {
                        // A hit, sampled on even source ports.
                        let packet = probe(*sport, *host, *port);
                        let pick = sport % 2 == 0;
                        let got = t
                            .match_packet_sampling(SimTime::from_secs(now), &packet, PortId(*port), || pick)
                            .map(|(e, _)| (e.matcher, e.priority));
                        let want = winner(&naive, &packet, PortId(*port)).map(|i| {
                            let r = &mut naive[i];
                            r.last_hit = now;
                            r.packets += 1;
                            if pick {
                                r.sampled += 1;
                                r.sampled_bytes += u64::from(packet.size);
                            }
                            (r.m, r.prio)
                        });
                        prop_assert_eq!(got, want);
                    }
                    9 => {
                        let before = naive.len();
                        naive.retain(|r| !r.expired(now));
                        prop_assert_eq!(t.expire(SimTime::from_secs(now)).len(), before - naive.len());
                    }
                    _ => {
                        prop_assert_eq!(t.clear(), naive.len());
                        prop_assert_eq!(t.shape_count(), 0);
                        naive.clear();
                    }
                }
                prop_assert_eq!(t.len(), naive.len());
                prop_assert_eq!(t.iter().count(), naive.len());
                // Counters live and die with their entry.
                for r in &naive {
                    let (e, sampled) = t
                        .iter_sampled()
                        .find(|(e, _)| e.matcher == r.m && e.priority == r.prio)
                        .expect("oracle row installed");
                    prop_assert_eq!(&t.rule(e), &r.rule);
                    prop_assert_eq!(e.packet_count, r.packets);
                    prop_assert_eq!(sampled.packets, r.sampled);
                    prop_assert_eq!(sampled.bytes, r.sampled_bytes);
                }
                // Probe every packet shape the rules can distinguish.
                for s in 0..6 {
                    for h in 0..3 {
                        for p in 0..3 {
                            for l in 0..3 {
                                let packet = probe(s, h, l);
                                let got = t
                                    .lookup(&packet, PortId(p))
                                    .map(|e| (e.matcher, e.priority, e.cookie));
                                let want = winner(&naive, &packet, PortId(p))
                                    .map(|i| (naive[i].m, naive[i].prio, naive[i].cookie));
                                prop_assert_eq!(got, want);
                            }
                        }
                    }
                }
            }
        }

        /// Inserting then removing by cookie leaves no trace of that cookie.
        #[test]
        fn prop_remove_by_cookie_complete(cookies in proptest::collection::vec(0u64..5, 1..40)) {
            let mut t = FlowTable::new(cookies.len());
            for (i, c) in cookies.iter().enumerate() {
                let m = Match::ANY.with_sport(i as u16);
                t.insert(SimTime::ZERO, FlowRule::apply(m, 1, &[]).with_cookie(*c)).unwrap();
            }
            let removed = t.remove_by_cookie(3);
            prop_assert_eq!(removed, cookies.iter().filter(|&&c| c == 3).count());
            prop_assert!(t.iter().all(|e| e.cookie != 3));
        }
    }
}
