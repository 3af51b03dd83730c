//! Controller-cluster mastership: N replicas, per-switch masters, and
//! deterministic failover (DESIGN.md §16).
//!
//! The paper's deployments shard the control plane across controller
//! replicas (following Yazıcı et al., "Controlling a Software-Defined
//! Network via Distributed Controllers"); this module models that cluster
//! *logically*: one [`ClusterState`] tracks which replica masters each
//! switch, which replicas are alive, and the coordination-channel state.
//! The replicas share the flowdb / address book — the shared state's
//! staleness is bounded by the configured sync latency, which is exactly
//! the delay a mastership handoff pays before the new master may act.
//!
//! Determinism rules:
//!
//! * Mastership is a pure function of `(switch id, replica count,
//!   crash/recovery history)` — the default master of switch `s` is
//!   `s % replicas`, standbys follow in rotation, and failover always
//!   picks the *first live standby* in rotation order.
//! * Pending control messages parked during a migration are kept in
//!   per-switch FIFOs inside a `BTreeMap`, so a completed handoff releases
//!   switches in ascending id order and each switch's messages in arrival
//!   order — independent of hash-map iteration order.
//! * The state machine itself never reads a clock; the composition root
//!   (the `scotch` crate's simulation) drives every transition through its
//!   event queue, so `(scenario, seed, plan)` replays bit-identically.
//!
//! A cluster of size 1 is never constructed (the simulation keeps
//! `Option<ClusterState>` = `None`), so the single-controller engine is
//! byte-for-byte unchanged.

use std::collections::{BTreeMap, VecDeque};

use scotch_net::NodeId;
use scotch_openflow::SwitchToController;
use scotch_sim::metrics::Histogram;
use scotch_sim::{SimDuration, SimTime};

/// Sentinel replica id meaning "no replica" (orphaned switch, unknown
/// previous master).
pub const NO_REPLICA: u32 = u32::MAX;

/// Static cluster shape: replica count and coordination-channel latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of controller replicas (≥ 2 for an active cluster).
    pub replicas: u32,
    /// One-way state-sync latency of the coordination channel: the delay
    /// between a mastership change being initiated and the new master
    /// holding the switch's full state.
    pub sync_latency: SimDuration,
}

/// Mastership status of one switch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mastership {
    /// `replica` masters the switch and processes its messages directly.
    Settled(u32),
    /// Mastership is moving to `to`; messages park until `deadline`.
    Migrating {
        /// Previous master ([`NO_REPLICA`] when adopted from orphanhood).
        from: u32,
        /// Target replica.
        to: u32,
        /// When the migration was (first) initiated.
        started: SimTime,
        /// When the handoff is due to complete (sync delay paid, partition
        /// respected). Re-targeting on a second crash pushes this forward.
        deadline: SimTime,
    },
    /// Every replica is dead; messages park until one recovers.
    Orphaned,
}

/// What a caller should do with an inbound switch message right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterView {
    /// Process directly; the replica id is the current master.
    Master(u32),
    /// Park the message: mastership is mid-handoff or orphaned.
    Park,
}

/// One completed per-switch handoff, returned by [`ClusterState::settle`].
#[derive(Debug)]
pub struct Handoff {
    /// The switch whose mastership moved.
    pub switch: NodeId,
    /// Previous master ([`NO_REPLICA`] when adopted from orphanhood).
    pub from: u32,
    /// New master.
    pub to: u32,
    /// When the migration was first initiated.
    pub started: SimTime,
    /// The deadline it had to meet (I6).
    pub deadline: SimTime,
    /// Parked messages released to the new master, in arrival order.
    pub released: Vec<(NodeId, SwitchToController)>,
}

/// Aggregate counters exported as `ctrl.cluster.*` metrics.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Completed mastership handoffs.
    pub handoffs: u64,
    /// Handoffs that settled after their deadline (I6 violations).
    pub handoff_exceeded: u64,
    /// Control messages parked during migrations/orphanhood.
    pub pending_enq: u64,
    /// Parked messages released to a new master.
    pub pending_rel: u64,
    /// Replica crashes injected.
    pub crashes: u64,
    /// Replica recoveries.
    pub recoveries: u64,
    /// Coordination-channel partitions injected.
    pub partitions: u64,
}

/// The cluster: replica liveness, per-switch mastership, parked messages,
/// and the coordination-channel partition window.
#[derive(Debug, Clone)]
pub struct ClusterState {
    config: ClusterConfig,
    alive: Vec<bool>,
    /// Switches whose mastership ever diverged from the static default.
    assignments: BTreeMap<u32, Mastership>,
    /// Per-switch parked messages, drained in ascending switch-id order.
    pending: BTreeMap<u32, VecDeque<(NodeId, SwitchToController)>>,
    /// The coordination channel is partitioned until this instant.
    partition_until: SimTime,
    /// Per-replica decision counts (messages processed as master).
    decisions: Vec<u64>,
    /// Handoff durations (initiation → settle), ns.
    handoff_ns: Histogram,
    stats: ClusterStats,
}

impl ClusterState {
    /// Build a cluster of `config.replicas` live replicas.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.replicas >= 2, "a cluster needs at least 2 replicas");
        ClusterState {
            alive: vec![true; config.replicas as usize],
            assignments: BTreeMap::new(),
            pending: BTreeMap::new(),
            partition_until: SimTime::ZERO,
            decisions: vec![0; config.replicas as usize],
            handoff_ns: Histogram::new(),
            stats: ClusterStats::default(),
            config,
        }
    }

    /// Configured replica count.
    pub fn replicas(&self) -> u32 {
        self.config.replicas
    }

    /// Configured coordination-channel sync latency.
    pub fn sync_latency(&self) -> SimDuration {
        self.config.sync_latency
    }

    /// Replicas currently alive.
    pub fn live_replicas(&self) -> u32 {
        self.alive.iter().filter(|a| **a).count() as u32
    }

    /// True while the coordination channel is partitioned.
    pub fn is_partitioned(&self, now: SimTime) -> bool {
        now < self.partition_until
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Per-replica decision counts.
    pub fn decisions(&self) -> &[u64] {
        &self.decisions
    }

    /// Handoff-duration histogram (ns).
    pub fn handoff_histogram(&self) -> &Histogram {
        &self.handoff_ns
    }

    /// Messages still parked (I5's horizon term).
    pub fn pending_now(&self) -> u64 {
        self.pending.values().map(|q| q.len() as u64).sum()
    }

    /// The default (configuration-time) master of a switch.
    fn default_master(&self, switch: NodeId) -> u32 {
        switch.0 % self.config.replicas
    }

    /// First live replica in the standby rotation starting at `start`.
    fn first_live_from(&self, start: u32) -> Option<u32> {
        let r = self.config.replicas;
        (0..r)
            .map(|i| (start + i) % r)
            .find(|c| self.alive[*c as usize])
    }

    /// Resolve an abstract fault-plan target to a concrete live replica
    /// (index modulo the live set), `None` when every replica is dead.
    pub fn resolve_target(&self, target: u32) -> Option<u32> {
        let live: Vec<u32> = (0..self.config.replicas)
            .filter(|r| self.alive[*r as usize])
            .collect();
        if live.is_empty() {
            None
        } else {
            Some(live[target as usize % live.len()])
        }
    }

    /// How to treat an inbound message from `switch` right now.
    pub fn master_view(&self, switch: NodeId) -> MasterView {
        match self.assignments.get(&switch.0) {
            Some(Mastership::Settled(m)) => MasterView::Master(*m),
            Some(Mastership::Migrating { .. }) | Some(Mastership::Orphaned) => MasterView::Park,
            None => match self.first_live_from(self.default_master(switch)) {
                Some(m) => MasterView::Master(m),
                None => MasterView::Park,
            },
        }
    }

    /// Count one processed message against `replica`'s load.
    pub fn record_decision(&mut self, replica: u32) {
        if let Some(d) = self.decisions.get_mut(replica as usize) {
            *d += 1;
        }
    }

    /// Park an inbound message until `switch`'s mastership settles.
    pub fn park(&mut self, switch: NodeId, from: NodeId, msg: SwitchToController) {
        self.stats.pending_enq += 1;
        self.pending
            .entry(switch.0)
            .or_default()
            .push_back((from, msg));
        // A switch with no explicit assignment parks only when every
        // replica is dead; materialize Orphaned so a later recovery
        // adopts it.
        self.assignments
            .entry(switch.0)
            .or_insert(Mastership::Orphaned);
    }

    /// A handoff initiated at `now` completes once the sync delay has been
    /// paid *after* any active partition heals. Handoffs already in flight
    /// when a partition starts are unaffected (their sync traffic is
    /// already on the wire) — the ordering rule documented in DESIGN.md
    /// §16.
    fn handoff_deadline(&self, now: SimTime) -> SimTime {
        let base = if self.is_partitioned(now) {
            self.partition_until
        } else {
            now
        };
        base + self.config.sync_latency
    }

    /// Crash `replica` at `now`: every switch it masters (or was migrating
    /// toward) re-targets to its first live standby. Returns the number of
    /// switches that entered migration and the deadline at which the
    /// resulting handoffs complete (`None` when no switch moved, or when
    /// every replica is now dead and the affected switches are orphaned).
    ///
    /// `switches` is the full switch universe, in ascending id order.
    pub fn crash(
        &mut self,
        now: SimTime,
        replica: u32,
        switches: &[NodeId],
    ) -> (u32, Option<SimTime>) {
        if !self.alive[replica as usize] {
            return (0, None);
        }
        self.alive[replica as usize] = false;
        self.stats.crashes += 1;
        let mut moved = 0u32;
        let mut deadline = None;
        for &sw in switches {
            let current = self
                .assignments
                .get(&sw.0)
                .copied()
                .unwrap_or(Mastership::Settled(self.default_master(sw)));
            let (affected, from, started) = match current {
                Mastership::Settled(m) if m == replica => (true, m, now),
                // Migration target died mid-handoff: keep the original
                // initiation time (I6 measures first-initiation → settle)
                // but pay a fresh sync delay toward the new target.
                Mastership::Migrating {
                    from, to, started, ..
                } if to == replica => (true, from, started),
                _ => (false, 0, now),
            };
            if !affected {
                continue;
            }
            moved += 1;
            let next = match current {
                Mastership::Settled(_) => {
                    self.first_live_from((replica + 1) % self.config.replicas)
                }
                Mastership::Migrating { to, .. } => {
                    self.first_live_from((to + 1) % self.config.replicas)
                }
                Mastership::Orphaned => None,
            };
            let state = match next {
                Some(to) => {
                    let d = self.handoff_deadline(now);
                    deadline = Some(deadline.map_or(d, |x: SimTime| x.max(d)));
                    Mastership::Migrating {
                        from,
                        to,
                        started,
                        deadline: d,
                    }
                }
                None => Mastership::Orphaned,
            };
            self.assignments.insert(sw.0, state);
        }
        (moved, deadline)
    }

    /// Recover `replica` at `now`: it rejoins as a standby (no failback),
    /// and adopts every orphaned switch. Returns the deadline of the
    /// adoption handoffs, `None` when nothing was orphaned.
    pub fn recover(&mut self, now: SimTime, replica: u32) -> Option<SimTime> {
        if self.alive[replica as usize] {
            return None;
        }
        self.alive[replica as usize] = true;
        self.stats.recoveries += 1;
        let d = self.handoff_deadline(now);
        let mut deadline = None;
        for (_, state) in self.assignments.iter_mut() {
            if *state == Mastership::Orphaned {
                deadline = Some(d);
                *state = Mastership::Migrating {
                    from: NO_REPLICA,
                    to: replica,
                    started: now,
                    deadline: d,
                };
            }
        }
        deadline
    }

    /// Partition the coordination channel for `duration` (extends any
    /// active window). Returns the heal instant.
    pub fn partition(&mut self, now: SimTime, duration: SimDuration) -> SimTime {
        self.stats.partitions += 1;
        self.partition_until = self.partition_until.max(now + duration);
        self.partition_until
    }

    /// Settle every migration whose deadline has passed and whose target
    /// is still alive, releasing parked messages. Handoffs are returned in
    /// ascending switch-id order; each switch's messages in arrival order.
    pub fn settle(&mut self, now: SimTime) -> Vec<Handoff> {
        let mut out = Vec::new();
        let due: Vec<(u32, u32, u32, SimTime, SimTime)> = self
            .assignments
            .iter()
            .filter_map(|(&sw, state)| match *state {
                Mastership::Migrating {
                    from,
                    to,
                    started,
                    deadline,
                } if deadline <= now && self.alive[to as usize] => {
                    Some((sw, from, to, started, deadline))
                }
                _ => None,
            })
            .collect();
        for (sw, from, to, started, deadline) in due {
            self.assignments.insert(sw, Mastership::Settled(to));
            let released: Vec<(NodeId, SwitchToController)> = self
                .pending
                .remove(&sw)
                .map(|q| q.into_iter().collect())
                .unwrap_or_default();
            self.stats.pending_rel += released.len() as u64;
            self.stats.handoffs += 1;
            if now > deadline {
                self.stats.handoff_exceeded += 1;
            }
            self.handoff_ns.record_duration(now.duration_since(started));
            out.push(Handoff {
                switch: NodeId(sw),
                from,
                to,
                started,
                deadline,
                released,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_openflow::SwitchToController;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn cluster(replicas: u32) -> ClusterState {
        ClusterState::new(ClusterConfig {
            replicas,
            sync_latency: SimDuration::from_micros(500),
        })
    }

    fn switches(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn echo() -> SwitchToController {
        SwitchToController::EchoReply { nonce: 7 }
    }

    #[test]
    fn default_mastership_is_modular() {
        let c = cluster(3);
        assert_eq!(c.master_view(NodeId(0)), MasterView::Master(0));
        assert_eq!(c.master_view(NodeId(4)), MasterView::Master(1));
        assert_eq!(c.master_view(NodeId(5)), MasterView::Master(2));
    }

    #[test]
    fn crash_migrates_to_first_live_standby_after_sync_delay() {
        let mut c = cluster(3);
        let sw = switches(6);
        let (moved, deadline) = c.crash(t(0), 1, &sw);
        assert_eq!(moved, 2); // switches 1 and 4
        assert_eq!(deadline, Some(t(500)));
        assert_eq!(c.master_view(NodeId(1)), MasterView::Park);
        // Not yet due.
        assert!(c.settle(t(499)).is_empty());
        let handoffs = c.settle(t(500));
        assert_eq!(handoffs.len(), 2);
        assert_eq!(handoffs[0].switch, NodeId(1));
        assert_eq!(handoffs[0].to, 2); // standby rotation: 1 → 2
        assert_eq!(handoffs[1].switch, NodeId(4));
        assert_eq!(c.master_view(NodeId(1)), MasterView::Master(2));
        assert_eq!(c.stats().handoffs, 2);
        assert_eq!(c.stats().handoff_exceeded, 0);
    }

    #[test]
    fn parked_messages_release_in_arrival_order() {
        let mut c = cluster(2);
        let sw = switches(4);
        c.crash(t(0), 1, &sw);
        c.park(NodeId(1), NodeId(1), echo());
        c.park(NodeId(1), NodeId(9), echo());
        c.park(NodeId(3), NodeId(3), echo());
        assert_eq!(c.pending_now(), 3);
        let handoffs = c.settle(t(500));
        assert_eq!(handoffs.len(), 2);
        assert_eq!(handoffs[0].released.len(), 2);
        assert_eq!(handoffs[0].released[0].0, NodeId(1));
        assert_eq!(handoffs[0].released[1].0, NodeId(9));
        assert_eq!(c.pending_now(), 0);
        assert_eq!(c.stats().pending_enq, 3);
        assert_eq!(c.stats().pending_rel, 3);
    }

    #[test]
    fn all_dead_orphans_then_recovery_adopts() {
        let mut c = cluster(2);
        let sw = switches(2);
        c.crash(t(0), 0, &sw);
        let (_, d) = c.crash(t(100), 1, &sw);
        assert_eq!(d, None, "no live standby: switches orphan");
        assert_eq!(c.master_view(NodeId(0)), MasterView::Park);
        c.park(NodeId(0), NodeId(0), echo());
        // Nothing settles while everyone is dead.
        assert!(c.settle(t(10_000)).is_empty());
        let d = c.recover(t(20_000), 0);
        assert_eq!(d, Some(t(20_500)));
        let handoffs = c.settle(t(20_500));
        assert_eq!(handoffs.len(), 2);
        assert_eq!(handoffs[0].from, NO_REPLICA);
        assert_eq!(handoffs[0].to, 0);
        assert_eq!(handoffs[0].released.len(), 1);
        assert_eq!(c.master_view(NodeId(1)), MasterView::Master(0));
    }

    #[test]
    fn partition_delays_handoffs_initiated_inside_it() {
        let mut c = cluster(3);
        let sw = switches(3);
        let heal = c.partition(t(0), SimDuration::from_micros(2_000));
        assert_eq!(heal, t(2_000));
        let (_, d) = c.crash(t(100), 0, &sw);
        // Sync can only start once the partition heals.
        assert_eq!(d, Some(t(2_500)));
        assert!(c.settle(t(2_499)).is_empty());
        assert_eq!(c.settle(t(2_500)).len(), 1);
    }

    #[test]
    fn second_crash_retargets_in_flight_migration() {
        let mut c = cluster(3);
        let sw = switches(3);
        c.crash(t(0), 0, &sw); // switch 0: migrating 0 → 1, due t(500)
        let (moved, d) = c.crash(t(200), 1, &sw);
        // Both switch 1 (settled on 1) and switch 0 (migrating toward 1).
        assert_eq!(moved, 2);
        assert_eq!(d, Some(t(700)));
        // The original deadline passes without settling (target dead).
        assert!(c.settle(t(500)).is_empty());
        let handoffs = c.settle(t(700));
        assert_eq!(handoffs.len(), 2);
        for h in &handoffs {
            assert_eq!(h.to, 2);
        }
        // Switch 0's handoff measures from its first initiation.
        assert_eq!(handoffs[0].started, t(0));
        assert_eq!(c.stats().handoff_exceeded, 0);
    }

    #[test]
    fn resolve_target_wraps_over_live_set() {
        let mut c = cluster(3);
        assert_eq!(c.resolve_target(4), Some(1));
        c.crash(t(0), 1, &switches(3));
        assert_eq!(c.resolve_target(4), Some(0)); // live = [0, 2]
        c.crash(t(0), 0, &switches(3));
        c.crash(t(0), 2, &switches(3));
        assert_eq!(c.resolve_target(0), None);
    }

    #[test]
    fn joins_after_crash_attach_to_first_live_replica() {
        let mut c = cluster(3);
        // Switch 7 defaults to replica 1; crash it before the switch ever
        // sends a message.
        c.crash(t(0), 1, &switches(4));
        assert_eq!(c.master_view(NodeId(7)), MasterView::Master(2));
    }
}
