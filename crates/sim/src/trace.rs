//! Flight-recorder tracing: a deterministic record of *why* a run produced
//! its numbers.
//!
//! The final [`Report`](../../scotch/struct.Report.html) aggregates say *what*
//! happened; this module records the individual control-plane decisions that
//! produced those aggregates — overlay activations, queue-threshold
//! crossings, migrations, group rebalances — into a bounded ring buffer.
//!
//! Determinism rules (DESIGN.md §10):
//!
//! * Records carry [`SimTime`] only, never wall-clock, so a trace is a pure
//!   function of `(scenario, seed)` and bit-reproducible across runs and
//!   machines.
//! * Event payloads are compact `Copy` structs of raw integer ids — the sim
//!   crate sits below `scotch-net`, so node ids appear as the raw `u32`
//!   behind `NodeId`.
//! * When disabled (the default), [`TraceRecorder::record`] is a single
//!   predictable branch — cheap enough to leave call sites in the hot path.

use crate::time::SimTime;

/// Verbosity of a trace category.
///
/// Levels are ordered: a recorder configured at [`TraceLevel::Brief`] keeps
/// `Brief` events and drops `Verbose` ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing in this category.
    #[default]
    Off = 0,
    /// Record state transitions only (activations, migrations, failovers).
    Brief = 1,
    /// Additionally record per-flow / per-rule events (admissions, installs).
    Verbose = 2,
}

/// Category of a trace event, used for per-category level filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceCategory {
    /// Overlay activation / withdrawal state machine.
    Overlay,
    /// OFA queue threshold crossings and sheds.
    Queue,
    /// Per-flow admission, migration, drop decisions.
    Flow,
    /// Flow-table rule installs.
    Rule,
    /// Packet-In arrivals at the controller.
    PacketIn,
    /// Group-table builds and rebalances.
    Group,
    /// vSwitch liveness: failures, joins, recoveries, failovers.
    Health,
    /// Injected faults (chaos harness) and their restorations.
    Fault,
    /// Controller-cluster mastership: replica crashes, recoveries,
    /// coordination-channel partitions, and per-switch mastership handoffs.
    Cluster,
}

/// Number of trace categories (size of the per-category level table).
pub const TRACE_CATEGORIES: usize = 9;

impl TraceCategory {
    /// All categories, in a fixed order matching [`TraceCategory::index`].
    pub const ALL: [TraceCategory; TRACE_CATEGORIES] = [
        TraceCategory::Overlay,
        TraceCategory::Queue,
        TraceCategory::Flow,
        TraceCategory::Rule,
        TraceCategory::PacketIn,
        TraceCategory::Group,
        TraceCategory::Health,
        TraceCategory::Fault,
        TraceCategory::Cluster,
    ];

    /// Dense index into the per-category level table.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name (used by the CLI `--filter` flag and JSONL).
    pub const fn name(self) -> &'static str {
        match self {
            TraceCategory::Overlay => "overlay",
            TraceCategory::Queue => "queue",
            TraceCategory::Flow => "flow",
            TraceCategory::Rule => "rule",
            TraceCategory::PacketIn => "packet_in",
            TraceCategory::Group => "group",
            TraceCategory::Health => "health",
            TraceCategory::Fault => "fault",
            TraceCategory::Cluster => "cluster",
        }
    }

    /// Parse a category from its [`name`](TraceCategory::name).
    pub fn from_name(s: &str) -> Option<TraceCategory> {
        TraceCategory::ALL.iter().copied().find(|c| c.name() == s)
    }
}

/// Why a group table was (re)built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceReason {
    /// Initial build when the overlay activates for a switch.
    Activation,
    /// A member vSwitch died; its bucket was replaced or disabled.
    Failover,
    /// A new vSwitch joined the pool and was added to the group.
    Join,
}

impl RebalanceReason {
    /// Stable lowercase name for JSONL export.
    pub const fn name(self) -> &'static str {
        match self {
            RebalanceReason::Activation => "activation",
            RebalanceReason::Failover => "failover",
            RebalanceReason::Join => "join",
        }
    }
}

/// A typed, compact trace event.
///
/// Node ids are the raw `u32` behind `scotch-net`'s `NodeId` (this crate
/// sits below the network layer). Payloads are small and `Copy` so recording
/// is a handful of register moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// The controller activated the vSwitch overlay for a switch (§5.2).
    OverlayActivated {
        /// Switch whose Packet-In load crossed the activation threshold.
        switch: u32,
        /// Number of vSwitch buckets in the load-balancing group.
        buckets: u32,
        /// True when triggered by TCAM TableFull pressure rather than rate.
        tcam_triggered: bool,
    },
    /// The controller withdrew the overlay for a switch (§5.5).
    OverlayWithdrawn {
        /// Switch whose load fell below the withdrawal threshold.
        switch: u32,
        /// Overlay flows pinned in place during the withdrawal.
        pinned: u32,
    },
    /// A switch's OFA queue crossed the overlay or drop threshold.
    QueueThresholdCrossed {
        /// Switch whose admission queue crossed the threshold.
        switch: u32,
        /// Queue backlog at the crossing.
        backlog: u32,
        /// True when the drop threshold was crossed (flows are discarded);
        /// false for the overlay threshold (flows shed to the overlay).
        dropping: bool,
    },
    /// A flow was admitted (rules installed, first packet released).
    FlowAdmitted {
        /// Switch the flow entered at.
        switch: u32,
        /// True when routed over the vSwitch overlay.
        via_overlay: bool,
    },
    /// A flow's packets were dropped at admission (queue full).
    FlowDropped {
        /// Switch the flow entered at.
        switch: u32,
    },
    /// An elephant flow was migrated from the overlay to the physical
    /// network (§5.3), or the migration was deferred.
    FlowMigrated {
        /// First-hop switch of the migrated flow.
        switch: u32,
        /// True when the migration was deferred (budget exhausted).
        deferred: bool,
    },
    /// The controller sent a FlowMod Add to a switch.
    RuleInstalled {
        /// Target switch.
        switch: u32,
        /// Target table id.
        table: u32,
        /// Rule priority.
        priority: u32,
    },
    /// A Packet-In reached the controller.
    PacketInEmitted {
        /// Origin switch the Packet-In is attributed to (§5.4).
        switch: u32,
        /// True when it arrived through a vSwitch tunnel.
        via_overlay: bool,
        /// True when a copy of this flow's Packet-In was already seen.
        duplicate: bool,
    },
    /// A switch's load-balancing group was built or rebalanced.
    GroupRebalanced {
        /// Switch owning the group.
        switch: u32,
        /// Live buckets after the operation.
        buckets: u32,
        /// What prompted the rebalance.
        reason: RebalanceReason,
    },
    /// Heartbeat monitoring declared a vSwitch dead and repaired groups.
    FailoverExecuted {
        /// The vSwitch declared dead.
        dead: u32,
        /// Replacement vSwitch id, or `u32::MAX` when none was available
        /// (the bucket was disabled instead).
        replacement: u32,
    },
    /// A vSwitch joined the overlay pool.
    VSwitchJoined {
        /// The joining vSwitch.
        node: u32,
    },
    /// A failed vSwitch recovered and rejoined.
    VSwitchRecovered {
        /// The recovering vSwitch.
        node: u32,
    },
    /// A fault from a [`FaultPlan`](crate::fault::FaultPlan) was injected.
    FaultInjected {
        /// Fault-kind index into [`FAULT_KIND_NAMES`](crate::fault::FAULT_KIND_NAMES).
        kind: u32,
        /// Resolved concrete target (node id, directed link id, or
        /// `u32::MAX` for untargeted faults like a controller stall).
        target: u32,
    },
    /// A bounded fault's effect was restored (link back up, slowdown
    /// lifted, stall ended, vSwitch restarted).
    FaultCleared {
        /// Fault-kind index into [`FAULT_KIND_NAMES`](crate::fault::FAULT_KIND_NAMES).
        kind: u32,
        /// Resolved concrete target, `u32::MAX` when untargeted.
        target: u32,
    },
    /// A control-channel message was perturbed by an active fault window.
    CtrlMsgPerturbed {
        /// Perturbation: 0 = dropped rx, 1 = dropped tx, 2 = duplicated,
        /// 3 = delayed (reorder).
        kind: u32,
    },
    /// A controller replica crashed; its switches enter mastership
    /// migration toward their standbys.
    ReplicaCrashed {
        /// The crashed replica index.
        replica: u32,
        /// Switches whose mastership must migrate off the replica.
        switches: u32,
    },
    /// A crashed controller replica rejoined the cluster as a standby.
    ReplicaRecovered {
        /// The recovering replica index.
        replica: u32,
    },
    /// The inter-controller coordination channel was partitioned; handoffs
    /// initiated during the window cannot complete until it heals.
    ClusterPartitioned {
        /// Partition window length in sim-time ns.
        duration_ns: u64,
    },
    /// The inter-controller coordination channel healed.
    ClusterHealed {},
    /// One switch's mastership handoff completed: the new master took over
    /// and the switch's pending Packet-Ins were released to it.
    MastershipHandoff {
        /// The switch whose mastership moved.
        switch: u32,
        /// Previous master replica (`u32::MAX` when unknown/orphaned).
        from: u32,
        /// New master replica.
        to: u32,
        /// Pending control messages released to the new master.
        released: u32,
    },
}

impl TraceEvent {
    /// The category this event belongs to.
    pub const fn category(self) -> TraceCategory {
        match self {
            TraceEvent::OverlayActivated { .. } | TraceEvent::OverlayWithdrawn { .. } => {
                TraceCategory::Overlay
            }
            TraceEvent::QueueThresholdCrossed { .. } => TraceCategory::Queue,
            TraceEvent::FlowAdmitted { .. }
            | TraceEvent::FlowDropped { .. }
            | TraceEvent::FlowMigrated { .. } => TraceCategory::Flow,
            TraceEvent::RuleInstalled { .. } => TraceCategory::Rule,
            TraceEvent::PacketInEmitted { .. } => TraceCategory::PacketIn,
            TraceEvent::GroupRebalanced { .. } => TraceCategory::Group,
            TraceEvent::FailoverExecuted { .. }
            | TraceEvent::VSwitchJoined { .. }
            | TraceEvent::VSwitchRecovered { .. } => TraceCategory::Health,
            TraceEvent::FaultInjected { .. }
            | TraceEvent::FaultCleared { .. }
            | TraceEvent::CtrlMsgPerturbed { .. } => TraceCategory::Fault,
            TraceEvent::ReplicaCrashed { .. }
            | TraceEvent::ReplicaRecovered { .. }
            | TraceEvent::ClusterPartitioned { .. }
            | TraceEvent::ClusterHealed {}
            | TraceEvent::MastershipHandoff { .. } => TraceCategory::Cluster,
        }
    }

    /// The minimum recorder level at which this event is kept.
    ///
    /// State transitions are `Brief`; per-flow and per-rule events are
    /// `Verbose` (they dominate volume under a flood).
    pub const fn level(self) -> TraceLevel {
        match self {
            TraceEvent::FlowAdmitted { .. }
            | TraceEvent::FlowDropped { .. }
            | TraceEvent::RuleInstalled { .. }
            | TraceEvent::PacketInEmitted { .. }
            | TraceEvent::CtrlMsgPerturbed { .. } => TraceLevel::Verbose,
            _ => TraceLevel::Brief,
        }
    }

    /// Stable snake_case event-kind name for JSONL export and summaries.
    pub const fn kind_name(self) -> &'static str {
        match self {
            TraceEvent::OverlayActivated { .. } => "overlay_activated",
            TraceEvent::OverlayWithdrawn { .. } => "overlay_withdrawn",
            TraceEvent::QueueThresholdCrossed { .. } => "queue_threshold_crossed",
            TraceEvent::FlowAdmitted { .. } => "flow_admitted",
            TraceEvent::FlowDropped { .. } => "flow_dropped",
            TraceEvent::FlowMigrated { .. } => "flow_migrated",
            TraceEvent::RuleInstalled { .. } => "rule_installed",
            TraceEvent::PacketInEmitted { .. } => "packet_in_emitted",
            TraceEvent::GroupRebalanced { .. } => "group_rebalanced",
            TraceEvent::FailoverExecuted { .. } => "failover_executed",
            TraceEvent::VSwitchJoined { .. } => "vswitch_joined",
            TraceEvent::VSwitchRecovered { .. } => "vswitch_recovered",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::FaultCleared { .. } => "fault_cleared",
            TraceEvent::CtrlMsgPerturbed { .. } => "ctrl_msg_perturbed",
            TraceEvent::ReplicaCrashed { .. } => "replica_crashed",
            TraceEvent::ReplicaRecovered { .. } => "replica_recovered",
            TraceEvent::ClusterPartitioned { .. } => "cluster_partitioned",
            TraceEvent::ClusterHealed {} => "cluster_healed",
            TraceEvent::MastershipHandoff { .. } => "mastership_handoff",
        }
    }

    /// The event payload as `(field_name, value)` pairs, in declaration
    /// order. Booleans render as 0/1; enum fields as their dense index.
    /// This keeps JSONL export and summaries free of per-variant code.
    pub fn fields(self) -> Vec<(&'static str, u64)> {
        match self {
            TraceEvent::OverlayActivated {
                switch,
                buckets,
                tcam_triggered,
            } => vec![
                ("switch", switch as u64),
                ("buckets", buckets as u64),
                ("tcam_triggered", tcam_triggered as u64),
            ],
            TraceEvent::OverlayWithdrawn { switch, pinned } => {
                vec![("switch", switch as u64), ("pinned", pinned as u64)]
            }
            TraceEvent::QueueThresholdCrossed {
                switch,
                backlog,
                dropping,
            } => vec![
                ("switch", switch as u64),
                ("backlog", backlog as u64),
                ("dropping", dropping as u64),
            ],
            TraceEvent::FlowAdmitted {
                switch,
                via_overlay,
            } => vec![
                ("switch", switch as u64),
                ("via_overlay", via_overlay as u64),
            ],
            TraceEvent::FlowDropped { switch } => vec![("switch", switch as u64)],
            TraceEvent::FlowMigrated { switch, deferred } => {
                vec![("switch", switch as u64), ("deferred", deferred as u64)]
            }
            TraceEvent::RuleInstalled {
                switch,
                table,
                priority,
            } => vec![
                ("switch", switch as u64),
                ("table", table as u64),
                ("priority", priority as u64),
            ],
            TraceEvent::PacketInEmitted {
                switch,
                via_overlay,
                duplicate,
            } => vec![
                ("switch", switch as u64),
                ("via_overlay", via_overlay as u64),
                ("duplicate", duplicate as u64),
            ],
            TraceEvent::GroupRebalanced {
                switch,
                buckets,
                reason,
            } => vec![
                ("switch", switch as u64),
                ("buckets", buckets as u64),
                ("reason", reason as u64),
            ],
            TraceEvent::FailoverExecuted { dead, replacement } => {
                vec![("dead", dead as u64), ("replacement", replacement as u64)]
            }
            TraceEvent::VSwitchJoined { node } => vec![("node", node as u64)],
            TraceEvent::VSwitchRecovered { node } => vec![("node", node as u64)],
            TraceEvent::FaultInjected { kind, target } => {
                vec![("kind", kind as u64), ("target", target as u64)]
            }
            TraceEvent::FaultCleared { kind, target } => {
                vec![("kind", kind as u64), ("target", target as u64)]
            }
            TraceEvent::CtrlMsgPerturbed { kind } => vec![("kind", kind as u64)],
            TraceEvent::ReplicaCrashed { replica, switches } => {
                vec![("replica", replica as u64), ("switches", switches as u64)]
            }
            TraceEvent::ReplicaRecovered { replica } => vec![("replica", replica as u64)],
            TraceEvent::ClusterPartitioned { duration_ns } => {
                vec![("duration_ns", duration_ns)]
            }
            TraceEvent::ClusterHealed {} => vec![],
            TraceEvent::MastershipHandoff {
                switch,
                from,
                to,
                released,
            } => vec![
                ("switch", switch as u64),
                ("from", from as u64),
                ("to", to as u64),
                ("released", released as u64),
            ],
        }
    }
}

/// One recorded trace entry: global sequence number, sim-time, payload.
///
/// `seq` counts every event *accepted* by the recorder (including ones later
/// overwritten by ring wraparound), so gaps in a dumped trace reveal exactly
/// how much history the ring evicted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Global sequence number, starting at 0.
    pub seq: u64,
    /// Simulation time of the event.
    pub at: SimTime,
    /// The event payload.
    pub event: TraceEvent,
}

/// Configuration for a [`TraceRecorder`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring-buffer capacity in records. Oldest records are overwritten once
    /// the ring is full.
    pub capacity: usize,
    /// Per-category verbosity, indexed by [`TraceCategory::index`].
    pub levels: [TraceLevel; TRACE_CATEGORIES],
}

impl Default for TraceConfig {
    /// 64 Ki records, every category at [`TraceLevel::Brief`] — the
    /// "enabled-at-default-level" configuration benchmarked by CI.
    fn default() -> Self {
        TraceConfig {
            capacity: 65_536,
            levels: [TraceLevel::Brief; TRACE_CATEGORIES],
        }
    }
}

impl TraceConfig {
    /// Every category at [`TraceLevel::Verbose`] (per-flow events included).
    pub fn verbose() -> Self {
        TraceConfig {
            levels: [TraceLevel::Verbose; TRACE_CATEGORIES],
            ..TraceConfig::default()
        }
    }

    /// Set one category's level.
    pub fn with_level(mut self, cat: TraceCategory, level: TraceLevel) -> Self {
        self.levels[cat.index()] = level;
        self
    }

    /// Set the ring-buffer capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        self.capacity = capacity;
        self
    }
}

/// Bounded ring-buffer recorder for [`TraceEvent`]s.
///
/// The disabled recorder ([`TraceRecorder::disabled`], the default) costs a
/// single well-predicted branch per [`record`](TraceRecorder::record) call
/// and allocates nothing, so call sites stay in the hot path unconditionally.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    enabled: bool,
    levels: [TraceLevel; TRACE_CATEGORIES],
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Index of the next slot to write (wraps at `capacity`).
    head: usize,
    /// Sequence number of the next accepted record.
    next_seq: u64,
}

impl TraceRecorder {
    /// A recorder that keeps nothing (the default for every run).
    pub fn disabled() -> Self {
        TraceRecorder::default()
    }

    /// An enabled recorder with the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        assert!(config.capacity > 0, "trace capacity must be positive");
        TraceRecorder {
            enabled: true,
            levels: config.levels,
            buf: Vec::with_capacity(config.capacity.min(4096)),
            capacity: config.capacity,
            head: 0,
            next_seq: 0,
        }
    }

    /// True when this recorder keeps any events at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// True when an event of `cat` at `level` would currently be kept.
    #[inline]
    pub fn wants(&self, cat: TraceCategory, level: TraceLevel) -> bool {
        self.enabled && self.levels[cat.index()] >= level
    }

    /// Record `event` at sim-time `now`, subject to category filtering.
    ///
    /// On a disabled recorder this is one branch and an immediate return.
    #[inline]
    pub fn record(&mut self, now: SimTime, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.record_slow(now, event);
    }

    #[inline(never)]
    fn record_slow(&mut self, now: SimTime, event: TraceEvent) {
        if self.levels[event.category().index()] < event.level() {
            return;
        }
        let rec = TraceRecord {
            seq: self.next_seq,
            at: now,
            event,
        };
        self.next_seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
            self.head = self.buf.len() % self.capacity;
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records accepted over the run (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Records evicted by ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.buf.len() as u64
    }

    /// The retained records in chronological (sequence) order.
    pub fn records(&self) -> Vec<TraceRecord> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(switch: u32) -> TraceEvent {
        TraceEvent::OverlayActivated {
            switch,
            buckets: 4,
            tcam_triggered: false,
        }
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = TraceRecorder::disabled();
        r.record(SimTime::from_secs(1), ev(1));
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 0);
    }

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let mut r = TraceRecorder::new(TraceConfig::default());
        for i in 0..5 {
            r.record(SimTime::from_millis(i * 10), ev(i as u32));
        }
        let recs = r.records();
        assert_eq!(recs.len(), 5);
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.at, SimTime::from_millis(i as u64 * 10));
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let mut r = TraceRecorder::new(TraceConfig::default().with_capacity(4));
        for i in 0..10 {
            r.record(SimTime::from_millis(i), ev(i as u32));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let recs = r.records();
        // The newest four, still in sequence order.
        let seqs: Vec<u64> = recs.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn wraparound_is_stable_over_many_laps() {
        let mut r = TraceRecorder::new(TraceConfig::default().with_capacity(3));
        for i in 0..3 * 7 + 2 {
            r.record(SimTime::from_millis(i), ev(i as u32));
        }
        let seqs: Vec<u64> = r.records().iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![20, 21, 22]);
    }

    #[test]
    fn level_filtering_drops_verbose_events_at_brief() {
        let mut r = TraceRecorder::new(TraceConfig::default());
        // FlowAdmitted is Verbose; default config is Brief everywhere.
        r.record(
            SimTime::from_secs(1),
            TraceEvent::FlowAdmitted {
                switch: 1,
                via_overlay: false,
            },
        );
        assert!(r.is_empty());
        r.record(SimTime::from_secs(1), ev(1)); // Brief event is kept.
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn per_category_levels_are_independent() {
        let cfg = TraceConfig::default()
            .with_level(TraceCategory::Flow, TraceLevel::Verbose)
            .with_level(TraceCategory::Overlay, TraceLevel::Off);
        let mut r = TraceRecorder::new(cfg);
        r.record(SimTime::ZERO, ev(1)); // Overlay: off → dropped.
        r.record(
            SimTime::ZERO,
            TraceEvent::FlowAdmitted {
                switch: 2,
                via_overlay: true,
            },
        ); // Flow: verbose → kept.
        assert_eq!(r.len(), 1);
        assert_eq!(r.records()[0].event.category(), TraceCategory::Flow);
    }

    #[test]
    fn wants_reflects_enabled_and_level() {
        let r = TraceRecorder::disabled();
        assert!(!r.wants(TraceCategory::Overlay, TraceLevel::Brief));
        let r = TraceRecorder::new(TraceConfig::default());
        assert!(r.wants(TraceCategory::Overlay, TraceLevel::Brief));
        assert!(!r.wants(TraceCategory::Flow, TraceLevel::Verbose));
    }

    #[test]
    fn category_names_round_trip() {
        for cat in TraceCategory::ALL {
            assert_eq!(TraceCategory::from_name(cat.name()), Some(cat));
        }
        assert_eq!(TraceCategory::from_name("bogus"), None);
    }

    #[test]
    fn fields_match_variant_payload() {
        let f = TraceEvent::RuleInstalled {
            switch: 3,
            table: 1,
            priority: 50,
        }
        .fields();
        assert_eq!(f, vec![("switch", 3), ("table", 1), ("priority", 50)]);
    }
}
