//! The Scotch controller application (§4.2, §5).
//!
//! [`ScotchApp`] runs on the controller substrate and implements the
//! paper's mechanisms end to end:
//!
//! * Packet-In attribution through tunnel metadata (§5.2);
//! * ingress-port differentiated admission at the safe budget `R` with
//!   overlay/dropping thresholds (§5.2, Fig. 7);
//! * overlay routing over the vSwitch mesh (§4.1/4.2);
//! * large-flow migration back to physical paths (§5.3);
//! * policy-consistent middlebox traversal with shared green rules and
//!   per-flow red rules (§5.4, Fig. 8);
//! * overlay activation & withdrawal on Packet-In rate (§4.2, §5.5);
//! * vSwitch heartbeat fail-over via group-bucket replacement (§5.6).
//!
//! In [`ControllerMode::Baseline`] the app degenerates to the plain
//! reactive controller of §3 (immediate admission, no overlay), which is
//! the "without Scotch" arm of every comparison.

use crate::config::ScotchConfig;
use crate::migration::ElephantDetector;
use crate::overlay::OverlayManager;
use crate::queues::{EnqueueOutcome, GrantedWork, MigrationJob, PendingFlow, RuleScheduler};
use crate::telemetry::TelemetryCache;
use scotch_controller::baseline::{plan_flow_rules, PHYSICAL_RULE_PRIORITY};
use scotch_controller::flowdb::FlowPath;
use scotch_controller::{
    AddressBook, ClusterConfig, ClusterState, Command, FlowInfoDatabase, HeartbeatTracker,
    PacketInMonitor,
};
use scotch_net::{FlowKey, IpAddr, NodeId, Packet, PortId, Topology, TunnelId};
use scotch_openflow::messages::{GroupModCommand, OfError};
use scotch_openflow::{
    Action, ActionList, Bucket, ControllerToSwitch, FlowModCommand, FlowRule, GroupEntry, GroupId,
    Match, SwitchToController, TableId,
};
use scotch_sim::journey::{
    JourneyPoint, JourneyRecorder, VERDICT_DIRECT, VERDICT_DROP, VERDICT_DUPLICATE,
    VERDICT_OVERLAY, VERDICT_UNROUTABLE,
};
use scotch_sim::trace::{RebalanceReason, TraceEvent, TraceRecorder};
use scotch_sim::{FxHashMap, FxHashSet};
use scotch_sim::{SimDuration, SimTime};

/// Priority of the pinned keep-on-overlay rules installed during
/// withdrawal (§5.5) — below red physical rules, above the port-labelling
/// default rules.
pub const PIN_RULE_PRIORITY: u16 = 50;
/// Priority of the activation port-labelling rules (table 0).
pub const PORT_RULE_PRIORITY: u16 = 10;
/// Priority of the shared policy "green" rules at middlebox switches.
pub const GREEN_RULE_PRIORITY: u16 = 70;

/// Baseline (plain reactive) or full Scotch behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerMode {
    /// §3's plain reactive controller.
    Baseline,
    /// The Scotch application.
    Scotch,
}

/// A middlebox policy chain for one destination (§5.4). One middlebox per
/// chain in this implementation; `upstream == downstream` models the
/// attached-to-one-switch configuration the paper calls out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyChain {
    /// The middlebox node.
    pub middlebox: NodeId,
    /// S_U: switch feeding the middlebox.
    pub upstream: NodeId,
    /// S_D: switch receiving from the middlebox.
    pub downstream: NodeId,
    /// Aggregation vSwitch on the pre-middlebox side.
    pub agg_in: NodeId,
    /// Aggregation vSwitch on the post-middlebox side.
    pub agg_out: NodeId,
}

/// Controller-application counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppStats {
    /// Packet-Ins handled.
    pub packet_ins: u64,
    /// Packet-Ins for flows already known (setup race duplicates).
    pub duplicate_packet_ins: u64,
    /// Flows admitted onto physical paths.
    pub physical_admitted: u64,
    /// Flows routed over the overlay.
    pub overlay_admitted: u64,
    /// Flows dropped at the dropping threshold.
    pub dropped: u64,
    /// Flows with unresolvable destinations.
    pub unroutable: u64,
    /// Overlay activations.
    pub activations: u64,
    /// Overlay withdrawals.
    pub withdrawals: u64,
    /// Elephants migrated.
    pub migrations: u64,
    /// Migrations deferred because a path switch's control plane was hot.
    pub migrations_deferred: u64,
    /// vSwitch fail-overs executed.
    pub failovers: u64,
    /// FlowMod failures reported by switches.
    pub rule_failures: u64,
    /// Overlay-routed flows whose destination has no host vSwitch.
    pub overlay_undeliverable: u64,
    /// Elephant decisions made (newly flagged flows).
    pub elephant_decisions: u64,
    /// Summed migration-decision latency (ns): for each newly flagged
    /// elephant, the age of its exporting rule at decision time — how
    /// long the flow ran before the monitor called it an elephant.
    /// Divide by `elephant_decisions` for the mean; the sampling-rate
    /// ablation sweep plots exactly this.
    pub decision_latency_ns: u64,
}

impl AppStats {
    /// Register these counters into a [`scotch_sim::MetricsRegistry`] under
    /// `<prefix>.<field>` — the unified export surface for reports and
    /// sweep manifests.
    pub fn register_metrics(&self, prefix: &str, reg: &mut scotch_sim::MetricsRegistry) {
        reg.add(&format!("{prefix}.packet_ins"), self.packet_ins);
        reg.add(
            &format!("{prefix}.duplicate_packet_ins"),
            self.duplicate_packet_ins,
        );
        reg.add(
            &format!("{prefix}.physical_admitted"),
            self.physical_admitted,
        );
        reg.add(&format!("{prefix}.overlay_admitted"), self.overlay_admitted);
        reg.add(&format!("{prefix}.dropped"), self.dropped);
        reg.add(&format!("{prefix}.unroutable"), self.unroutable);
        reg.add(&format!("{prefix}.activations"), self.activations);
        reg.add(&format!("{prefix}.withdrawals"), self.withdrawals);
        reg.add(&format!("{prefix}.migrations"), self.migrations);
        reg.add(
            &format!("{prefix}.migrations_deferred"),
            self.migrations_deferred,
        );
        reg.add(&format!("{prefix}.failovers"), self.failovers);
        reg.add(&format!("{prefix}.rule_failures"), self.rule_failures);
        reg.add(
            &format!("{prefix}.overlay_undeliverable"),
            self.overlay_undeliverable,
        );
        reg.add(
            &format!("{prefix}.elephant_decisions"),
            self.elephant_decisions,
        );
        reg.add(
            &format!("{prefix}.decision_latency_ns"),
            self.decision_latency_ns,
        );
    }
}

#[derive(Debug, Clone)]
struct SwitchCtl {
    scheduler: RuleScheduler,
    active: bool,
    below_since: Option<SimTime>,
    /// Ports labelled at activation (to delete at withdrawal).
    labelled_ports: Vec<PortId>,
    /// Last enqueue outcome was over a threshold (shed or drop) — used to
    /// trace threshold *crossings* rather than every shed flow.
    over_threshold: bool,
}

/// The Scotch controller application.
#[derive(Debug, Clone)]
pub struct ScotchApp {
    /// Operating mode.
    pub mode: ControllerMode,
    /// Tunables.
    pub config: ScotchConfig,
    /// Host directory.
    pub book: AddressBook,
    /// §5.2's Flow Info Database.
    pub flowdb: FlowInfoDatabase,
    /// Packet-In rate monitor (per originating physical switch, including
    /// overlay-borne Packet-Ins — the activation/withdrawal signal).
    pub monitor: PacketInMonitor,
    /// Packet-Ins emitted by physical switches' own OFAs (excluding
    /// overlay-borne ones) — the actual control-path load, used by the
    /// migration hot-path check (§5.3).
    pub direct_monitor: PacketInMonitor,
    /// TableFull errors per switch. §3.3: "A limited amount of TCAM at a
    /// switch can also cause new flows being dropped ... the solution
    /// proposed in this paper is applicable to the TCAM bottleneck
    /// scenario as well" — a sustained TableFull rate activates the
    /// overlay exactly like Packet-In congestion does.
    pub tcam_monitor: PacketInMonitor,
    /// vSwitch liveness.
    pub heartbeats: HeartbeatTracker,
    /// The overlay fabric.
    pub overlay: OverlayManager,
    switches: FxHashMap<NodeId, SwitchCtl>,
    /// Destination-indexed middlebox policies.
    policies: FxHashMap<IpAddr, PolicyChain>,
    detector: ElephantDetector,
    /// NetFlow-style aggregation cache turning stats records into rate
    /// estimates (exact in exhaustive mode, inverse-probability-scaled
    /// under sampling). Public so the composition root can export its
    /// `monitor.*` metrics and cache-size gauge.
    pub telemetry: TelemetryCache,
    /// Flow key per issued cookie. Cookies are handed out sequentially
    /// from 1, so cookie `c` lives at index `c - 1` — a dense `Vec` instead
    /// of a map that grows by one entry per installed flow.
    cookie_keys: Vec<FlowKey>,
    /// Journey id per flow key, for *traced* flows only (populated at
    /// decision time). Lets key-addressed control events — migrations,
    /// perturbed FlowMods — land on the right journey timeline.
    pub(crate) journey_keys: FxHashMap<FlowKey, u64>,
    /// Flows sitting in ingress queues (for duplicate-Packet-In detection).
    pending: FxHashSet<FlowKey>,
    stats: AppStats,
    /// Flight recorder for control-plane decisions. Disabled by default;
    /// a disabled recorder costs one branch per site (DESIGN.md §10).
    pub trace: TraceRecorder,
    /// Causal flow-journey recorder (DESIGN.md §14). Disabled by default;
    /// journey marks are canonical output, re-sorted at report time.
    pub journeys: JourneyRecorder,
    /// Controller-cluster mastership state (DESIGN.md §16). `None` (the
    /// default, `controllers: 1`) keeps the single-controller engine on
    /// exactly its old code path — every cluster hook is gated on this.
    pub cluster: Option<ClusterState>,
}

impl ScotchApp {
    /// Build the app. `overlay` may be empty (baseline mode ignores it).
    pub fn new(
        mode: ControllerMode,
        config: ScotchConfig,
        book: AddressBook,
        overlay: OverlayManager,
    ) -> Self {
        config.validate();
        let detector = ElephantDetector::new(config.elephant_pps);
        let heartbeats =
            HeartbeatTracker::new(config.heartbeat_period, config.heartbeat_miss_limit);
        let cluster = (config.controllers > 1).then(|| {
            ClusterState::new(ClusterConfig {
                replicas: config.controllers,
                sync_latency: config.sync_latency,
            })
        });
        ScotchApp {
            mode,
            monitor: PacketInMonitor::new(SimDuration::from_secs(1)),
            direct_monitor: PacketInMonitor::new(SimDuration::from_secs(1)),
            tcam_monitor: PacketInMonitor::new(SimDuration::from_secs(1)),
            heartbeats,
            detector,
            telemetry: TelemetryCache::new(),
            config,
            book,
            flowdb: FlowInfoDatabase::new(),
            overlay,
            switches: FxHashMap::default(),
            policies: FxHashMap::default(),
            cookie_keys: Vec::new(),
            journey_keys: FxHashMap::default(),
            pending: FxHashSet::default(),
            stats: AppStats::default(),
            trace: TraceRecorder::disabled(),
            journeys: JourneyRecorder::disabled(),
            cluster,
        }
    }

    /// Pre-size the per-flow state for about `flows` concurrent flows
    /// (`expected arrival rate × rule idle timeout`, derived from the
    /// workload spec by `Scenario`). Avoids rehash churn while a surge
    /// grows the flow database.
    pub fn reserve_flow_capacity(&mut self, flows: usize) {
        self.flowdb.reserve(flows);
        self.pending.reserve(flows.min(1 << 16));
        self.cookie_keys.reserve(flows);
    }

    /// Register a physical switch with its safe rule budget `R`.
    pub fn register_switch(&mut self, node: NodeId, rule_budget: f64) {
        let sched = RuleScheduler::new(
            self.config.rule_budget.unwrap_or(rule_budget),
            self.config.overlay_threshold,
            self.config.drop_threshold,
            self.config.effective_fairness(),
        );
        self.switches.insert(
            node,
            SwitchCtl {
                scheduler: sched,
                active: false,
                below_since: None,
                labelled_ports: Vec::new(),
                over_threshold: false,
            },
        );
    }

    /// Register a middlebox policy for destination `dst` and emit the
    /// shared green rules (§5.4) at the sandwich switches. Call once at
    /// configuration time; returns the setup commands.
    pub fn register_policy(
        &mut self,
        topo: &Topology,
        dst: IpAddr,
        chain: PolicyChain,
    ) -> Vec<Command> {
        self.policies.insert(dst, chain);
        self.policy_green_rules(topo, &chain)
    }

    /// The shared green rules for one policy chain (emitted at
    /// registration, and re-emitted after a TCAM-triggered table clear).
    fn policy_green_rules(&self, topo: &Topology, chain: &PolicyChain) -> Vec<Command> {
        let mut cmds = Vec::new();

        // Green rule G1 at S_U: packets arriving on the policy-in tunnel
        // (label still on stack — S_U is the tunnel endpoint) are
        // decapsulated and handed to the middlebox. Shared by all flows.
        if let (Some(&tin), Some(mb_in_port)) = (
            self.overlay
                .policy_in_tunnels
                .get(&(chain.agg_in, chain.upstream)),
            topo.port_towards(chain.upstream, chain.middlebox),
        ) {
            let g1 = FlowRule::apply(
                Match::ANY.with_top_label(Some(scotch_net::Label::Tunnel(tin))),
                GREEN_RULE_PRIORITY + 10,
                &[Action::PopLabel, Action::Output(mb_in_port)],
            );
            cmds.push(Command::new(
                chain.upstream,
                ControllerToSwitch::FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add(g1),
                },
            ));
        }

        // Green rule G2 at S_D: packets coming back from the middlebox are
        // re-encapsulated toward the aggregation vSwitch. Shared.
        if let (Some(&tout), Some(mb_return_port)) = (
            self.overlay
                .policy_out_tunnels
                .get(&(chain.downstream, chain.agg_out)),
            // The middlebox returns on the switch's *last* link to it (it
            // was entered on the first).
            topo.ports_towards(chain.downstream, chain.middlebox)
                .last()
                .copied(),
        ) {
            if let Some(tunnel) = self.overlay.tunnels.get(tout) {
                if let Some(out_port) =
                    topo.port_towards(chain.downstream, tunnel.next_hop(chain.downstream).unwrap())
                {
                    let g2 = FlowRule::apply(
                        Match::on_port(mb_return_port).with_top_label(None),
                        GREEN_RULE_PRIORITY,
                        &[
                            Action::PushLabel(scotch_net::Label::Tunnel(tout)),
                            Action::Output(out_port),
                        ],
                    );
                    cmds.push(Command::new(
                        chain.downstream,
                        ControllerToSwitch::FlowMod {
                            table: TableId(0),
                            command: FlowModCommand::Add(g2),
                        },
                    ));
                }
            }
        }
        cmds
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AppStats {
        self.stats
    }

    /// Is the overlay currently active at `switch`?
    pub fn is_active(&self, switch: NodeId) -> bool {
        self.switches
            .get(&switch)
            .map(|s| s.active)
            .unwrap_or(false)
    }

    /// Scheduler backlog at a switch (diagnostics).
    pub fn ingress_backlog(&self, switch: NodeId) -> usize {
        self.switches
            .get(&switch)
            .map(|s| s.scheduler.ingress_backlog())
            .unwrap_or(0)
    }

    /// Total scheduler backlog summed over every registered switch
    /// (sampled periodically into the metrics registry).
    pub fn total_backlog(&self) -> usize {
        self.switches
            .values()
            .map(|s| s.scheduler.ingress_backlog())
            .sum()
    }

    fn next_cookie(&mut self, key: FlowKey) -> u64 {
        self.cookie_keys.push(key);
        self.cookie_keys.len() as u64
    }

    pub(crate) fn cookie_key(&self, cookie: u64) -> Option<FlowKey> {
        let idx = cookie.checked_sub(1)?;
        self.cookie_keys.get(idx as usize).copied()
    }

    /// Record a `Decision` journey mark for a traced first packet, and
    /// remember its key → journey binding for later key-addressed events
    /// (migration, perturbed FlowMods).
    #[inline]
    fn journey_decision(&mut self, now: SimTime, packet: &Packet, node: NodeId, verdict: u64) {
        if packet.kind == scotch_net::PacketKind::FlowStart && self.journeys.wants(packet.flow_id.0)
        {
            self.journeys.record(
                packet.flow_id.0,
                now,
                JourneyPoint::Decision,
                node.0,
                verdict,
            );
            self.journey_keys.insert(packet.key, packet.flow_id.0);
        }
    }

    /// The policy chain's middlebox waypoints for a destination.
    fn waypoints(&self, dst: IpAddr) -> Vec<NodeId> {
        self.policies
            .get(&dst)
            .map(|c| vec![c.middlebox])
            .unwrap_or_default()
    }

    /// The match used for this flow's rules: the paper's (src, dst) pair
    /// by default, or the full 5-tuple under microflow granularity.
    fn flow_matcher(&self, key: &FlowKey) -> Match {
        if self.config.exact_match_rules {
            Match::exact(*key)
        } else {
            Match::src_dst(key.src, key.dst)
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Process one message from a switch or vSwitch, appending the
    /// commands it triggers to `out`. The simulation passes one reused
    /// buffer, so the Packet-In path allocates no command list.
    pub fn handle_switch_msg(
        &mut self,
        now: SimTime,
        topo: &Topology,
        from: NodeId,
        msg: SwitchToController,
        out: &mut Vec<Command>,
    ) {
        match msg {
            SwitchToController::PacketIn {
                packet,
                in_port,
                via_tunnel,
                ingress_label,
                ..
            } => self.on_packet_in(
                now,
                topo,
                from,
                in_port,
                packet,
                via_tunnel,
                ingress_label,
                out,
            ),
            SwitchToController::FlowStatsReply { stats } => self.on_stats_reply(now, from, &stats),
            SwitchToController::EchoReply { .. } => {
                self.heartbeats.on_reply(from, now);
            }
            SwitchToController::FlowRemoved { cookie, .. } => {
                if let Some(key) = self.cookie_key(cookie) {
                    if let Some(info) = self.flowdb.get(&key) {
                        let ends_flow = match info.path {
                            FlowPath::Physical => info.first_hop == from,
                            FlowPath::Overlay => true,
                        };
                        if ends_flow {
                            self.flowdb.remove(&key);
                        }
                    }
                }
            }
            SwitchToController::Error { kind } => {
                if matches!(kind, OfError::FlowModOverload | OfError::TableFull) {
                    self.stats.rule_failures += 1;
                }
                if kind == OfError::TableFull && self.switches.contains_key(&from) {
                    self.tcam_monitor.record(from, now);
                }
            }
            SwitchToController::BarrierReply { .. } => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_packet_in(
        &mut self,
        now: SimTime,
        topo: &Topology,
        from: NodeId,
        in_port: PortId,
        packet: Packet,
        via_tunnel: Option<TunnelId>,
        ingress_label: Option<u16>,
        out: &mut Vec<Command>,
    ) {
        self.stats.packet_ins += 1;

        // §5.2: recover the originating physical switch and ingress port.
        let (origin, origin_port) = match via_tunnel {
            Some(t) => (
                self.overlay.tunnel_origin.get(&t).copied().unwrap_or(from),
                PortId(ingress_label.unwrap_or(0)),
            ),
            None => (from, in_port),
        };
        self.monitor.record(origin, now);
        if via_tunnel.is_none() && self.switches.contains_key(&origin) {
            self.direct_monitor.record(origin, now);
        }

        // Setup-race duplicate: the flow is known (or waiting in an
        // ingress queue); relay the packet directly — the real controller
        // buffers these.
        let duplicate =
            self.flowdb.get(&packet.key).is_some() || self.pending.contains(&packet.key);
        self.trace.record(
            now,
            TraceEvent::PacketInEmitted {
                switch: origin.0,
                via_overlay: via_tunnel.is_some(),
                duplicate,
            },
        );
        if duplicate {
            self.stats.duplicate_packet_ins += 1;
            self.journey_decision(now, &packet, origin, VERDICT_DUPLICATE);
            self.deliver_direct(topo, &packet, out);
            return;
        }

        match self.mode {
            ControllerMode::Baseline => {
                let pf = PendingFlow {
                    key: packet.key,
                    packet,
                    punted_by: from,
                    origin,
                    origin_port,
                    enqueued_at: now,
                };
                self.admit_physical(now, topo, pf, out)
            }
            ControllerMode::Scotch => {
                let pf = PendingFlow {
                    key: packet.key,
                    packet,
                    punted_by: from,
                    origin,
                    origin_port,
                    enqueued_at: now,
                };
                let Some(ctl) = self.switches.get_mut(&origin) else {
                    // Packet-in from an unmanaged switch (e.g. a host
                    // vSwitch acting reactively): admit immediately.
                    self.admit_physical(now, topo, pf, out);
                    return;
                };
                let key = pf.key;
                let journey = (pf.packet.kind == scotch_net::PacketKind::FlowStart)
                    .then_some(pf.packet.flow_id.0);
                let (outcome, shed) = ctl.scheduler.enqueue_flow(pf);
                // Trace threshold *crossings* (not every shed flow): the
                // transition from under-threshold service to shedding or
                // dropping is the interesting control-plane decision.
                let was_over = ctl.over_threshold;
                ctl.over_threshold = !matches!(outcome, EnqueueOutcome::Queued);
                if ctl.over_threshold && !was_over {
                    let backlog = ctl.scheduler.ingress_backlog() as u32;
                    self.trace.record(
                        now,
                        TraceEvent::QueueThresholdCrossed {
                            switch: origin.0,
                            backlog,
                            dropping: matches!(outcome, EnqueueOutcome::Dropped),
                        },
                    );
                }
                match (outcome, shed) {
                    (EnqueueOutcome::Queued, _) => {
                        self.pending.insert(key);
                    }
                    (EnqueueOutcome::RouteOnOverlay, Some(pf)) => {
                        self.route_on_overlay(now, topo, pf, out)
                    }
                    (EnqueueOutcome::Dropped, _) => {
                        self.stats.dropped += 1;
                        self.trace
                            .record(now, TraceEvent::FlowDropped { switch: origin.0 });
                        if let Some(j) = journey {
                            if self.journeys.wants(j) {
                                self.journeys.record(
                                    j,
                                    now,
                                    JourneyPoint::Decision,
                                    origin.0,
                                    VERDICT_DROP,
                                );
                            }
                        }
                    }
                    (EnqueueOutcome::RouteOnOverlay, None) => unreachable!(),
                }
            }
        }
    }

    /// Relay a packet out of the switch adjacent to its destination
    /// (controller-buffered delivery for setup-race duplicates).
    ///
    /// A policy-bound *first* packet must still traverse the middlebox —
    /// relaying it around the firewall would leave the firewall stateless
    /// and break every later packet of the flow (§5.4) — so those are
    /// injected at the middlebox's upstream switch instead.
    fn deliver_direct(&mut self, topo: &Topology, packet: &Packet, out: &mut Vec<Command>) {
        // Only overlay-routed flows are re-injected through the middlebox:
        // their downstream per-flow vSwitch rules are (about to be) in
        // place, so the packet drains. Re-injecting a flow *without* those
        // rules would bounce straight back here as another Packet-In.
        let on_overlay = self
            .flowdb
            .get(&packet.key)
            .map(|i| i.path == FlowPath::Overlay)
            .unwrap_or(false);
        if packet.kind == scotch_net::PacketKind::FlowStart && on_overlay {
            if let Some(chain) = self.policies.get(&packet.key.dst) {
                if let Some(mb_in) = topo.port_towards(chain.upstream, chain.middlebox) {
                    out.push(Command::new(
                        chain.upstream,
                        ControllerToSwitch::PacketOut {
                            packet: *packet,
                            out_port: mb_in,
                        },
                    ));
                    return;
                }
            }
        }
        if let Some(att) = self.book.locate(packet.key.dst) {
            out.push(Command::new(
                att.switch,
                ControllerToSwitch::PacketOut {
                    packet: *packet,
                    out_port: att.switch_port,
                },
            ));
        }
    }

    // ------------------------------------------------------------------
    // Physical admission
    // ------------------------------------------------------------------

    /// Install the flow on the physical network: per-switch red rules along
    /// the (policy-respecting) path + a PacketOut for the buffered packet.
    fn admit_physical(
        &mut self,
        now: SimTime,
        topo: &Topology,
        pf: PendingFlow,
        out: &mut Vec<Command>,
    ) {
        self.pending.remove(&pf.key);
        let Some(dst_att) = self.book.locate(pf.key.dst) else {
            self.stats.unroutable += 1;
            self.journey_decision(now, &pf.packet, pf.origin, VERDICT_UNROUTABLE);
            return;
        };
        let waypoints = self.waypoints(pf.key.dst);
        let start = self
            .book
            .locate(pf.key.src)
            .filter(|s| s.switch == pf.origin)
            .map(|s| s.host)
            .unwrap_or(pf.origin);
        let Some(path) = topo.path_via(start, &waypoints, dst_att.host) else {
            self.stats.unroutable += 1;
            self.journey_decision(now, &pf.packet, pf.origin, VERDICT_UNROUTABLE);
            return;
        };

        let cookie = self.next_cookie(pf.key);
        let rules = plan_flow_rules(
            topo,
            &path,
            self.flow_matcher(&pf.key),
            cookie,
            self.config.rule_idle_timeout,
        );
        let mut origin_rules_sent = 0;
        for cmd in rules {
            if self.mode == ControllerMode::Baseline {
                // Baseline has no budgeting: blast everything (the Fig. 9
                // overload behaviour is exactly what this produces).
                out.push(cmd);
            } else if cmd.to == pf.origin {
                // The granted token covers ONE rule at the origin switch;
                // additional origin rules (middlebox hairpins need two)
                // ride the admitted queue and spend their own tokens.
                if origin_rules_sent == 0 {
                    out.push(cmd);
                } else if let Some(ctl) = self.switches.get_mut(&pf.origin) {
                    ctl.scheduler.push_admitted(cmd);
                } else {
                    out.push(cmd);
                }
                origin_rules_sent += 1;
            } else if let Some(ctl) = self.switches.get_mut(&cmd.to) {
                ctl.scheduler.push_admitted(cmd);
            } else {
                // vSwitches / host vSwitches have ample budget.
                out.push(cmd);
            }
        }

        // First packet: policy flows are injected at the origin toward the
        // next path hop so middlebox state is established (§5.4). Under
        // Scotch, plain flows are injected at the destination-adjacent
        // switch, which avoids racing the mid-path rules still waiting in
        // other switches' budgeted admitted queues; the baseline behaves
        // like Ryu and packets-out at the punting switch.
        if waypoints.is_empty() && self.mode == ControllerMode::Scotch {
            out.push(Command::new(
                dst_att.switch,
                ControllerToSwitch::PacketOut {
                    packet: pf.packet,
                    out_port: dst_att.switch_port,
                },
            ));
        } else if let Some(pos) = path.iter().position(|n| *n == pf.origin) {
            if let Some(next) = path.get(pos + 1) {
                if let Some(out_port) = topo.port_towards(pf.origin, *next) {
                    out.push(Command::new(
                        pf.origin,
                        ControllerToSwitch::PacketOut {
                            packet: pf.packet,
                            out_port,
                        },
                    ));
                }
            }
        }

        self.flowdb
            .record(pf.key, pf.origin, pf.origin_port, now, FlowPath::Physical);
        self.journey_decision(now, &pf.packet, pf.origin, VERDICT_DIRECT);
        self.stats.physical_admitted += 1;
        self.trace.record(
            now,
            TraceEvent::FlowAdmitted {
                switch: pf.origin.0,
                via_overlay: false,
            },
        );
    }

    // ------------------------------------------------------------------
    // Overlay routing
    // ------------------------------------------------------------------

    /// Route the flow over the vSwitch overlay (§4.2 steps 3–5; §5.4 for
    /// policy-bound destinations).
    fn route_on_overlay(
        &mut self,
        now: SimTime,
        topo: &Topology,
        pf: PendingFlow,
        out: &mut Vec<Command>,
    ) {
        self.pending.remove(&pf.key);
        let Some(dst_att) = self.book.locate(pf.key.dst) else {
            self.stats.unroutable += 1;
            self.journey_decision(now, &pf.packet, pf.origin, VERDICT_UNROUTABLE);
            return;
        };
        let Some(w) = self.overlay.host_vswitch_of(dst_att.host) else {
            // Destination not covered by a host vSwitch: cannot deliver on
            // the overlay.
            self.stats.overlay_undeliverable += 1;
            self.journey_decision(now, &pf.packet, pf.origin, VERDICT_UNROUTABLE);
            return;
        };
        // V: the vSwitch holding the packet, or the destination's local
        // mesh vSwitch when the physical switch itself punted the flow.
        let v = if self.overlay.bucket_of(pf.punted_by).is_some() {
            pf.punted_by
        } else {
            match self.overlay.local_mesh_of(dst_att.host) {
                Some(m) => m,
                None => {
                    self.stats.overlay_undeliverable += 1;
                    self.journey_decision(now, &pf.packet, pf.origin, VERDICT_UNROUTABLE);
                    return;
                }
            }
        };

        // Build the chain of (vSwitch, tunnel-to-next) segments: at most
        // four (V, agg_in, agg_out, W on a policy path), held inline.
        let mut chain_buf = [(NodeId(0), None::<TunnelId>); 4];
        let mut len = 0;
        let mut push = |segment| {
            chain_buf[len] = segment;
            len += 1;
        };
        if let Some(chain) = self.policies.get(&pf.key.dst).copied() {
            // V -> agg_in -> S_U -> MB -> S_D -> agg_out -> W -> host.
            if v != chain.agg_in {
                let t = self.overlay.mesh_tunnels.get(&(v, chain.agg_in)).copied();
                push((v, t));
            }
            let tin = self
                .overlay
                .policy_in_tunnels
                .get(&(chain.agg_in, chain.upstream))
                .copied();
            push((chain.agg_in, tin));
            // S_U / S_D carry shared green rules — no per-flow rule there.
            if chain.agg_out != w {
                let t = self
                    .overlay
                    .delivery_tunnels
                    .get(&(chain.agg_out, w))
                    .copied();
                push((chain.agg_out, t));
            }
            push((w, None));
        } else {
            let m2 = self.overlay.local_mesh_of(dst_att.host).unwrap_or(v);
            if v != m2 && v != w {
                let t = self.overlay.mesh_tunnels.get(&(v, m2)).copied();
                push((v, t));
            }
            if m2 != w {
                let t = self.overlay.delivery_tunnels.get(&(m2, w)).copied();
                if v == m2 || v != w {
                    push((m2, t));
                }
            }
            push((w, None));
        }

        // Every non-terminal segment needs its tunnel; a miss means the
        // fabric is mis-wired for this path — count it rather than
        // silently stranding the flow.
        let segments = &chain_buf[..len];
        let terminal = segments.len().saturating_sub(1);
        if segments.iter().take(terminal).any(|(_, t)| t.is_none()) {
            self.stats.overlay_undeliverable += 1;
            self.journey_decision(now, &pf.packet, pf.origin, VERDICT_UNROUTABLE);
            return;
        }
        let cookie = self.next_cookie(pf.key);
        let matcher = self.flow_matcher(&pf.key);
        for (node, tunnel) in segments {
            let actions = match tunnel {
                Some(t) => {
                    let Some(tun) = self.overlay.tunnels.get(*t) else {
                        continue;
                    };
                    let Some(next) = tun.next_hop(*node) else {
                        continue;
                    };
                    let Some(port) = topo.port_towards(*node, next) else {
                        continue;
                    };
                    ActionList::from_slice(&[Action::push_tunnel(*t), Action::Output(port)])
                }
                None => {
                    // Last hop: the host vSwitch delivers to the host.
                    let Some(port) = topo.port_towards(*node, dst_att.host) else {
                        continue;
                    };
                    ActionList::from_slice(&[Action::Output(port)])
                }
            };
            let entry = FlowRule::apply(matcher, PHYSICAL_RULE_PRIORITY, &actions)
                .with_cookie(cookie)
                .with_idle_timeout(self.config.rule_idle_timeout);
            out.push(Command::new(
                *node,
                ControllerToSwitch::FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add(entry),
                },
            ));
        }

        // Launch the buffered first packet along the first segment.
        if let Some((first_node, first_tunnel)) = segments.first() {
            let mut pkt = pf.packet;
            let out_port = match first_tunnel {
                Some(t) => {
                    pkt.push_label(scotch_net::Label::Tunnel(*t));
                    self.overlay
                        .tunnels
                        .get(*t)
                        .and_then(|tun| tun.next_hop(*first_node))
                        .and_then(|next| topo.port_towards(*first_node, next))
                }
                None => topo.port_towards(*first_node, dst_att.host),
            };
            if let Some(port) = out_port {
                out.push(Command::new(
                    *first_node,
                    ControllerToSwitch::PacketOut {
                        packet: pkt,
                        out_port: port,
                    },
                ));
            }
        }

        self.flowdb
            .record(pf.key, pf.origin, pf.origin_port, now, FlowPath::Overlay);
        self.journey_decision(now, &pf.packet, pf.origin, VERDICT_OVERLAY);
        self.stats.overlay_admitted += 1;
        self.trace.record(
            now,
            TraceEvent::FlowAdmitted {
                switch: pf.origin.0,
                via_overlay: true,
            },
        );
    }

    // ------------------------------------------------------------------
    // Migration (§5.3)
    // ------------------------------------------------------------------

    fn serve_migration(
        &mut self,
        now: SimTime,
        topo: &Topology,
        job: MigrationJob,
        out: &mut Vec<Command>,
    ) {
        let Some(info) = self.flowdb.get(&job.key).copied() else {
            return;
        };
        if info.path != FlowPath::Overlay || info.migrated {
            return;
        }
        let Some(dst_att) = self.book.locate(job.key.dst) else {
            return;
        };
        // "checks the message rate of all switches on the path to make
        // sure their control plane is not overloaded". The relevant load
        // is the switch's own OFA traffic — overlay-borne Packet-Ins are
        // handled by vSwitches and do not burden this switch.
        let hot = self.direct_monitor.rate(info.first_hop, now) > self.config.activation_threshold;
        if hot {
            self.stats.migrations_deferred += 1;
            self.trace.record(
                now,
                TraceEvent::FlowMigrated {
                    switch: info.first_hop.0,
                    deferred: true,
                },
            );
            if let Some(&j) = self.journey_keys.get(&job.key) {
                self.journeys
                    .record(j, now, JourneyPoint::Migration, info.first_hop.0, 1);
            }
            if let Some(ctl) = self.switches.get_mut(&info.first_hop) {
                ctl.scheduler.push_migration(job);
            }
            return;
        }

        let waypoints = self.waypoints(job.key.dst);
        let start = self
            .book
            .locate(job.key.src)
            .filter(|s| s.switch == info.first_hop)
            .map(|s| s.host)
            .unwrap_or(info.first_hop);
        let Some(path) = topo.path_via(start, &waypoints, dst_att.host) else {
            return;
        };
        let cookie = self.next_cookie(job.key);
        let rules = plan_flow_rules(
            topo,
            &path,
            self.flow_matcher(&job.key),
            cookie,
            self.config.rule_idle_timeout,
        );
        // "the forwarding rule on the first hop switch is added at last":
        // non-origin rules go out immediately; the origin's own rule rides
        // its admitted queue and lands on a later tick.
        let mut origin_rules = Vec::new();
        for cmd in rules {
            if cmd.to == info.first_hop {
                origin_rules.push(cmd);
            } else {
                out.push(cmd);
            }
        }
        if let Some(ctl) = self.switches.get_mut(&info.first_hop) {
            for cmd in origin_rules {
                ctl.scheduler.push_admitted(cmd);
            }
        } else {
            out.extend(origin_rules);
        }
        self.flowdb.mark_migrated(&job.key);
        if let Some(&j) = self.journey_keys.get(&job.key) {
            self.journeys
                .record(j, now, JourneyPoint::Migration, info.first_hop.0, 0);
        }
        self.stats.migrations += 1;
        self.trace.record(
            now,
            TraceEvent::FlowMigrated {
                switch: info.first_hop.0,
                deferred: false,
            },
        );
    }

    // ------------------------------------------------------------------
    // Activation & withdrawal (§4.2 / §5.5)
    // ------------------------------------------------------------------

    fn activate(&mut self, now: SimTime, topo: &Topology, switch: NodeId, out: &mut Vec<Command>) {
        let gid = GroupId(switch.0);

        // §3.3 TCAM case: the table is full of per-flow rules, so the
        // activation defaults would be rejected. Clear the per-flow rules
        // first (non-strict delete) — "Scotch can also help reduce the
        // number of routing entries in the physical switches by routing
        // short flows over the overlay" (§2). Evicted flows fall onto the
        // overlay default path installed right below.
        let tcam_triggered =
            self.tcam_monitor.rate(switch, now) > self.config.tcam_activation_threshold;
        if tcam_triggered {
            for t in [TableId(0), TableId(1)] {
                out.push(Command::new(
                    switch,
                    ControllerToSwitch::FlowMod {
                        table: t,
                        command: FlowModCommand::DeleteAll,
                    },
                ));
            }
            // The clear also removed any shared policy green rules at this
            // switch (§5.4); re-install them right away.
            let chains: Vec<PolicyChain> = self
                .policies
                .values()
                .filter(|c| c.upstream == switch || c.downstream == switch)
                .cloned()
                .collect();
            for chain in chains {
                out.extend(self.policy_green_rules(topo, &chain));
            }
        }

        // Select group: one bucket per load-distribution tunnel.
        let mut buckets = Vec::new();
        if let Some(tunnels) = self.overlay.lb_tunnels.get(&switch) {
            for (i, t) in tunnels.iter().enumerate() {
                let Some(tun) = self.overlay.tunnels.get(*t) else {
                    continue;
                };
                let Some(next) = tun.next_hop(switch) else {
                    continue;
                };
                let Some(port) = topo.port_towards(switch, next) else {
                    continue;
                };
                let mut b = Bucket::new(vec![Action::push_tunnel(*t), Action::Output(port)]);
                b.alive = *self.overlay.alive.get(i).unwrap_or(&true);
                buckets.push(b);
            }
        }
        if buckets.is_empty() {
            return; // no overlay reachable from this switch
        }
        let bucket_count = buckets.len() as u32;
        out.push(Command::new(
            switch,
            ControllerToSwitch::GroupMod {
                group: gid,
                command: GroupModCommand::Install(GroupEntry::select(
                    self.config.lb_policy,
                    buckets,
                )),
            },
        ));

        // Table 0: per-port ingress labelling (skip ports that lead to
        // overlay/host vSwitches' tunnels? No — tunnelled packets transit
        // before tables or match higher-priority label rules).
        let mut labelled = Vec::new();
        for port in topo.ports(switch) {
            let entry = FlowRule::apply(
                Match::on_port(port).with_top_label(None),
                PORT_RULE_PRIORITY,
                &[Action::push_ingress(port)],
            )
            .with_goto(TableId(1));
            out.push(Command::new(
                switch,
                ControllerToSwitch::FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add(entry),
                },
            ));
            labelled.push(port);
        }

        // Table 1: the default load-balancing rule.
        out.push(Command::new(
            switch,
            ControllerToSwitch::FlowMod {
                table: TableId(1),
                command: FlowModCommand::Add(FlowRule::apply(Match::ANY, 0, &[Action::Group(gid)])),
            },
        ));

        if let Some(ctl) = self.switches.get_mut(&switch) {
            ctl.active = true;
            ctl.below_since = None;
            ctl.labelled_ports = labelled;
        }
        self.stats.activations += 1;
        self.trace.record(
            now,
            TraceEvent::OverlayActivated {
                switch: switch.0,
                buckets: bucket_count,
                tcam_triggered,
            },
        );
        self.trace.record(
            now,
            TraceEvent::GroupRebalanced {
                switch: switch.0,
                buckets: bucket_count,
                reason: RebalanceReason::Activation,
            },
        );
    }

    fn withdraw(&mut self, now: SimTime, switch: NodeId) {
        // Pin rules for flows *currently being routed* over the overlay
        // (§5.5 step 1): keep forwarding them to the overlay after the
        // default rule goes away. Liveness comes from the stats polls —
        // pinning every flow ever seen would flood the rule budget with
        // rules for long-dead one-packet flows. The horizon derives from
        // the telemetry config: under sparse sampling a live flow is only
        // *observed* every ~1/rate polls, so the window stretches
        // accordingly instead of spuriously expiring it.
        let live_horizon = self
            .config
            .telemetry
            .live_horizon(self.config.stats_poll_interval);
        let pins: Vec<(FlowKey, PortId)> = self
            .flowdb
            .overlay_flows()
            .filter(|(_, info)| info.first_hop == switch)
            .filter(|(_, info)| now.duration_since(info.last_active) < live_horizon)
            .map(|(k, info)| (*k, info.ingress_port))
            .collect();
        let ports = self
            .switches
            .get(&switch)
            .map(|c| c.labelled_ports.clone())
            .unwrap_or_default();

        let mut deferred = Vec::new();
        for (key, ingress) in pins {
            let entry = FlowRule::apply(
                self.flow_matcher(&key),
                PIN_RULE_PRIORITY,
                &[Action::push_ingress(ingress)],
            )
            .with_goto(TableId(1))
            .with_idle_timeout(self.config.rule_idle_timeout);
            deferred.push(Command::new(
                switch,
                ControllerToSwitch::FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add(entry),
                },
            ));
        }
        // Step 2: remove the default port-labelling rules (after the pins:
        // the admitted queue preserves order). The table-1 group rule is
        // unreachable once they are gone, but remove it too.
        for port in ports {
            deferred.push(Command::new(
                switch,
                ControllerToSwitch::FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::DeleteExact(Match::on_port(port).with_top_label(None)),
                },
            ));
        }
        deferred.push(Command::new(
            switch,
            ControllerToSwitch::FlowMod {
                table: TableId(1),
                command: FlowModCommand::DeleteExact(Match::ANY),
            },
        ));

        let pinned = deferred
            .iter()
            .filter(|c| {
                matches!(
                    c.msg,
                    ControllerToSwitch::FlowMod {
                        command: FlowModCommand::Add(_),
                        ..
                    }
                )
            })
            .count() as u32;
        if let Some(ctl) = self.switches.get_mut(&switch) {
            for cmd in deferred {
                ctl.scheduler.push_admitted(cmd);
            }
            ctl.active = false;
            ctl.below_since = None;
            ctl.labelled_ports.clear();
        }
        self.stats.withdrawals += 1;
        self.trace.record(
            now,
            TraceEvent::OverlayWithdrawn {
                switch: switch.0,
                pinned,
            },
        );
    }

    // ------------------------------------------------------------------
    // Periodic work
    // ------------------------------------------------------------------

    /// One controller tick: serve schedulers, check activation /
    /// withdrawal, handle vSwitch failures. Appends the resulting commands
    /// to `out` (a buffer the simulation reuses).
    pub fn tick(&mut self, now: SimTime, topo: &Topology, out: &mut Vec<Command>) {
        if self.mode == ControllerMode::Baseline {
            return;
        }

        // Failure handling first: dead vSwitches must leave the buckets
        // before queue service plans more overlay routes.
        for dead in self.heartbeats.dead_nodes(now) {
            if let Some(bucket) = self.overlay.bucket_of(dead) {
                self.heartbeats.unregister(dead);
                let replacement = self.overlay.fail_vswitch(dead);
                if let Some(r) = replacement {
                    // The promoted standby needs its mesh + delivery
                    // tunnels before it can carry overlay flows.
                    self.overlay.wire_mesh_tunnels(topo, r);
                }
                self.stats.failovers += 1;
                self.trace.record(
                    now,
                    TraceEvent::FailoverExecuted {
                        dead: dead.0,
                        replacement: replacement.map(|r| r.0).unwrap_or(u32::MAX),
                    },
                );
                let switches: Vec<NodeId> = self.switches.keys().copied().collect();
                for s in switches {
                    if !self.is_active(s) {
                        continue;
                    }
                    match replacement {
                        Some(_) => {
                            // Rebuild the whole group with the promoted
                            // backup's tunnel. Simplest correct GroupMod.
                            out.push(self.rebuild_group(now, topo, s, RebalanceReason::Failover));
                        }
                        None => {
                            out.push(Command::new(
                                s,
                                ControllerToSwitch::GroupMod {
                                    group: GroupId(s.0),
                                    command: GroupModCommand::SetBucketAlive {
                                        bucket,
                                        alive: false,
                                    },
                                },
                            ));
                            let live = self.overlay.alive.iter().filter(|a| **a).count() as u32;
                            self.trace.record(
                                now,
                                TraceEvent::GroupRebalanced {
                                    switch: s.0,
                                    buckets: live,
                                    reason: RebalanceReason::Failover,
                                },
                            );
                        }
                    }
                }
                if let Some(r) = replacement {
                    self.heartbeats.register(r, now);
                }
            }
        }

        // Activation / withdrawal state machine per switch.
        let switch_ids: Vec<NodeId> = {
            let mut v: Vec<NodeId> = self.switches.keys().copied().collect();
            v.sort_unstable();
            v
        };
        for s in &switch_ids {
            let rate = self.monitor.rate(*s, now);
            let tcam_rate = self.tcam_monitor.rate(*s, now);
            let (active, below_since) = {
                let ctl = self.switches.get(s).unwrap();
                (ctl.active, ctl.below_since)
            };
            if !active
                && (rate > self.config.activation_threshold
                    || tcam_rate > self.config.tcam_activation_threshold)
            {
                self.activate(now, topo, *s, out);
            } else if active {
                if rate < self.config.withdrawal_threshold {
                    match below_since {
                        None => {
                            self.switches.get_mut(s).unwrap().below_since = Some(now);
                        }
                        Some(t) if now.duration_since(t) >= self.config.withdrawal_hold => {
                            self.withdraw(now, *s);
                        }
                        Some(_) => {}
                    }
                } else {
                    self.switches.get_mut(s).unwrap().below_since = None;
                }
            }
        }

        // Serve the schedulers.
        for s in &switch_ids {
            let work = self.switches.get_mut(s).unwrap().scheduler.service(now);
            for item in work {
                match item {
                    GrantedWork::Admitted(cmd) => out.push(cmd),
                    GrantedWork::Migrate(job) => self.serve_migration(now, topo, job, out),
                    GrantedWork::Admit(pf) => {
                        // §3.3 TCAM case: while the switch keeps rejecting
                        // inserts with TableFull, physical admission is
                        // futile — route the flow over the overlay instead
                        // ("the solution proposed in this paper is
                        // applicable to the TCAM bottleneck scenario").
                        if self.tcam_monitor.rate(pf.origin, now)
                            > self.config.tcam_activation_threshold
                        {
                            self.route_on_overlay(now, topo, pf, out);
                        } else {
                            self.admit_physical(now, topo, pf, out);
                        }
                    }
                }
            }
        }

        self.detector.expire(now, SimDuration::from_secs(60));
        self.telemetry.expire(now, SimDuration::from_secs(60));
    }

    fn rebuild_group(
        &mut self,
        now: SimTime,
        topo: &Topology,
        switch: NodeId,
        reason: RebalanceReason,
    ) -> Command {
        // Rebuild LB tunnels for the new mesh membership, then re-install
        // the group.
        let mesh = self.overlay.mesh.clone();
        let mut tunnels = Vec::new();
        for &v in &mesh {
            // Reuse an existing tunnel when present; otherwise lay a new
            // one (the promoted backup).
            let existing = self.overlay.lb_tunnels.get(&switch).and_then(|ts| {
                ts.iter()
                    .find(|t| self.overlay.tunnels.endpoint(**t) == Some(v))
                    .copied()
            });
            let t = match existing {
                Some(t) => t,
                None => match self.overlay.tunnels.add_shortest(topo, switch, v) {
                    Some(t) => {
                        self.overlay.tunnel_origin.insert(t, switch);
                        t
                    }
                    None => continue,
                },
            };
            tunnels.push(t);
        }
        self.overlay.lb_tunnels.insert(switch, tunnels.clone());

        let mut buckets = Vec::new();
        for (i, t) in tunnels.iter().enumerate() {
            let Some(tun) = self.overlay.tunnels.get(*t) else {
                continue;
            };
            let Some(next) = tun.next_hop(switch) else {
                continue;
            };
            let Some(port) = topo.port_towards(switch, next) else {
                continue;
            };
            let mut b = Bucket::new(vec![Action::push_tunnel(*t), Action::Output(port)]);
            b.alive = *self.overlay.alive.get(i).unwrap_or(&true);
            buckets.push(b);
        }
        self.trace.record(
            now,
            TraceEvent::GroupRebalanced {
                switch: switch.0,
                buckets: buckets.len() as u32,
                reason,
            },
        );
        Command::new(
            switch,
            ControllerToSwitch::GroupMod {
                group: GroupId(switch.0),
                command: GroupModCommand::Install(GroupEntry::select(
                    self.config.lb_policy,
                    buckets,
                )),
            },
        )
    }

    /// Elastic scale-out (§5.6): join a new vSwitch to the overlay mesh.
    /// Lays its tunnels, starts heartbeating it, and re-installs the
    /// load-balancing group at every switch whose overlay is active so the
    /// new bucket takes traffic immediately.
    pub fn join_vswitch(&mut self, now: SimTime, topo: &Topology, v: NodeId) -> Vec<Command> {
        if self.mode == ControllerMode::Baseline {
            return Vec::new();
        }
        self.overlay.add_mesh_vswitch(topo, v);
        self.heartbeats.register(v, now);
        self.trace
            .record(now, TraceEvent::VSwitchJoined { node: v.0 });
        let mut out = Vec::new();
        let switches: Vec<NodeId> = self.switches.keys().copied().collect();
        for s in switches {
            // Rebuilding lays the switch's tunnel to the new vSwitch either
            // way; only active switches need the GroupMod sent now (an
            // inactive switch gets a fresh group at its next activation).
            let cmd = self.rebuild_group(now, topo, s, RebalanceReason::Join);
            if self.is_active(s) {
                out.push(cmd);
            }
        }
        out
    }

    /// §5.6: "When recovered, the failed vSwitch can join back Scotch as
    /// a new or backup vSwitch." A recovered node that is not currently a
    /// mesh member becomes a standby backup for the next fail-over.
    pub fn recover_vswitch(&mut self, now: SimTime, node: NodeId) {
        if self.mode == ControllerMode::Baseline {
            return;
        }
        self.trace
            .record(now, TraceEvent::VSwitchRecovered { node: node.0 });
        if let Some(idx) = self.overlay.bucket_of(node) {
            // Still holds its bucket (it failed with no backup available):
            // revive it in place.
            self.overlay.alive[idx] = true;
            self.heartbeats.register(node, now);
        } else if !self.overlay.backups.contains(&node) {
            self.overlay.backups.push(node);
        }
    }

    /// Emit FlowStats polls to all live mesh vSwitches (§5.3).
    pub fn poll_stats(&mut self) -> Vec<Command> {
        if self.mode == ControllerMode::Baseline || !self.config.migration_enabled {
            return Vec::new();
        }
        self.overlay
            .live_mesh()
            .into_iter()
            .map(|v| Command::new(v, ControllerToSwitch::FlowStatsRequest))
            .collect()
    }

    fn on_stats_reply(
        &mut self,
        now: SimTime,
        from: NodeId,
        stats: &[scotch_openflow::messages::FlowStat],
    ) {
        if !self.config.migration_enabled {
            return;
        }
        // Aggregate the records into rate estimates (exact in exhaustive
        // mode; Horvitz–Thompson-scaled under sampling), then touch the
        // liveness clock of every active flow *before* judging elephants —
        // the migration path below reads flow state the touches update.
        let scale = self.config.telemetry.scale();
        let cookie_keys = &self.cookie_keys;
        let estimates = self.telemetry.ingest(now, from, stats, scale, |st| {
            let idx = st.cookie.checked_sub(1)?;
            cookie_keys.get(idx as usize).copied()
        });
        for est in &estimates {
            if est.active {
                self.flowdb.touch(&est.key, now);
            }
        }
        for est in &estimates {
            if !self.detector.observe(now, est) {
                continue;
            }
            self.stats.elephant_decisions += 1;
            self.stats.decision_latency_ns += est.duration.0;
            let key = est.key;
            if let Some(info) = self.flowdb.get(&key) {
                if info.path == FlowPath::Overlay && !info.migrated {
                    let first_hop = info.first_hop;
                    if let Some(ctl) = self.switches.get_mut(&first_hop) {
                        ctl.scheduler.push_migration(MigrationJob { key });
                    }
                }
            }
        }
    }

    /// Emit heartbeat probes to all live mesh vSwitches (§5.6). Registers
    /// first-time targets.
    pub fn heartbeat(&mut self, now: SimTime) -> Vec<Command> {
        if self.mode == ControllerMode::Baseline {
            return Vec::new();
        }
        let mut out = Vec::new();
        for v in self.overlay.live_mesh() {
            if !self.heartbeats.tracked().contains(&v) {
                self.heartbeats.register(v, now);
            }
            let nonce = self.heartbeats.next_nonce();
            out.push(Command::new(v, ControllerToSwitch::EchoRequest { nonce }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_net::{FlowId, LinkSpec, NodeKind, Packet};
    use scotch_openflow::PacketInReason;

    /// attacker, client - ps - {mesh0, mesh1} + server behind hostvsw.
    struct Fixture {
        topo: Topology,
        app: ScotchApp,
        ps: NodeId,
        mesh: Vec<NodeId>,
        server_ip: IpAddr,
    }

    impl Fixture {
        /// Deliver one switch message; returns the commands it triggers.
        fn handle(&mut self, now: SimTime, from: NodeId, msg: SwitchToController) -> Vec<Command> {
            let mut out = Vec::new();
            self.app
                .handle_switch_msg(now, &self.topo, from, msg, &mut out);
            out
        }

        /// Run one controller tick; returns the commands it emits.
        fn tick(&mut self, now: SimTime) -> Vec<Command> {
            let mut out = Vec::new();
            self.app.tick(now, &self.topo, &mut out);
            out
        }
    }

    fn fixture(mode: ControllerMode) -> Fixture {
        let mut topo = Topology::new();
        let ps = topo.add_node(NodeKind::PhysicalSwitch, "ps");
        let attacker = topo.add_node(NodeKind::Host, "attacker");
        let client = topo.add_node(NodeKind::Host, "client");
        topo.add_duplex_link(attacker, ps, LinkSpec::tengig());
        topo.add_duplex_link(client, ps, LinkSpec::tengig());
        let w = topo.add_node(NodeKind::VSwitch, "hostvsw0");
        topo.add_duplex_link(ps, w, LinkSpec::gig());
        let server = topo.add_node(NodeKind::Host, "server");
        topo.add_duplex_link(w, server, LinkSpec::gig());
        let mesh: Vec<NodeId> = (0..2)
            .map(|i| {
                let v = topo.add_node(NodeKind::VSwitch, format!("mesh{i}"));
                topo.add_duplex_link(ps, v, LinkSpec::gig());
                v
            })
            .collect();

        let server_ip = IpAddr::new(10, 0, 1, 0);
        let mut book = AddressBook::new();
        book.register(&topo, IpAddr::new(10, 0, 0, 1), client, ps);
        book.register(&topo, server_ip, server, w);
        let overlay = crate::overlay::OverlayManager::build(&topo, &[ps], &mesh, &[(server, w)]);
        let mut app = ScotchApp::new(mode, ScotchConfig::default(), book, overlay);
        app.register_switch(ps, 200.0);
        Fixture {
            topo,
            app,
            ps,
            mesh,
            server_ip,
        }
    }

    fn packet_in(key: FlowKey, port: u16) -> SwitchToController {
        SwitchToController::PacketIn {
            packet: Packet::flow_start(key, FlowId(1), SimTime::ZERO),
            in_port: PortId(port),
            reason: PacketInReason::NoMatch,
            via_tunnel: None,
            ingress_label: None,
        }
    }

    fn key(sport: u16, dst: IpAddr) -> FlowKey {
        FlowKey::tcp(IpAddr::new(10, 0, 0, 1), sport, dst, 80)
    }

    #[test]
    fn baseline_mode_admits_immediately() {
        let mut f = fixture(ControllerMode::Baseline);
        let k = key(1, f.server_ip);
        let cmds = f.handle(SimTime::ZERO, f.ps, packet_in(k, 1));
        assert_eq!(f.app.stats().physical_admitted, 1);
        // client -> ps -> hostvsw0 -> server: one FlowMod per path switch,
        // each on the src/dst match with the 10 s idle timeout, output
        // toward the next hop.
        let named = |kind, name| {
            f.topo
                .nodes_of_kind(kind)
                .into_iter()
                .find(|n| f.topo.name(*n) == name)
                .unwrap()
        };
        let hostvsw = named(NodeKind::VSwitch, "hostvsw0");
        let server = named(NodeKind::Host, "server");
        let rules: Vec<(NodeId, &FlowRule)> = cmds
            .iter()
            .filter_map(|c| match &c.msg {
                ControllerToSwitch::FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add(rule),
                } => Some((c.to, rule)),
                _ => None,
            })
            .collect();
        assert_eq!(rules.len(), 2, "{cmds:?}");
        for ((to, rule), next) in rules.iter().zip([hostvsw, server]) {
            assert_eq!(rule.matcher, Match::src_dst(k.src, k.dst));
            assert_eq!(rule.idle_timeout(), Some(SimDuration::from_secs(10)));
            assert_eq!(
                rule.first_output(),
                Some(Action::Output(f.topo.port_towards(*to, next).unwrap()))
            );
        }
        assert_eq!((rules[0].0, rules[1].0), (f.ps, hostvsw));
        // The PacketOut returns the first packet at the punting switch,
        // out the port toward the next hop.
        let packet_outs: Vec<_> = cmds
            .iter()
            .filter_map(|c| match c.msg {
                ControllerToSwitch::PacketOut { out_port, .. } => Some((c.to, out_port)),
                _ => None,
            })
            .collect();
        assert_eq!(
            packet_outs,
            [(f.ps, f.topo.port_towards(f.ps, hostvsw).unwrap())]
        );
        // A second flow gets its own cookie.
        let cookie = |cmds: &[Command]| {
            cmds.iter().find_map(|c| match &c.msg {
                ControllerToSwitch::FlowMod {
                    command: FlowModCommand::Add(rule),
                    ..
                } => Some(rule.cookie),
                _ => None,
            })
        };
        let second = f.handle(SimTime::ZERO, f.ps, packet_in(key(2, f.server_ip), 1));
        assert!(cookie(&cmds).is_some());
        assert_ne!(cookie(&cmds), cookie(&second));
        // The monitor saw both Packet-Ins.
        assert_eq!(f.app.monitor.total(f.ps), 2);
    }

    #[test]
    fn scotch_mode_queues_until_tick() {
        let mut f = fixture(ControllerMode::Scotch);
        let cmds = f.handle(SimTime::ZERO, f.ps, packet_in(key(1, f.server_ip), 1));
        assert!(cmds.is_empty(), "queued, not admitted: {cmds:?}");
        assert_eq!(f.app.ingress_backlog(f.ps), 1);
        // Tick with budget grants admission.
        let cmds = f.tick(SimTime::from_millis(100));
        assert!(!cmds.is_empty());
        assert_eq!(f.app.stats().physical_admitted, 1);
        assert_eq!(f.app.ingress_backlog(f.ps), 0);
    }

    #[test]
    fn activation_installs_group_port_rules_and_default() {
        let mut f = fixture(ControllerMode::Scotch);
        // Drive the monitor over the activation threshold.
        for i in 0..200u64 {
            f.app.monitor.record(f.ps, SimTime::from_millis(i * 5));
        }
        let cmds = f.tick(SimTime::from_secs(1));
        assert!(f.app.is_active(f.ps));
        assert_eq!(f.app.stats().activations, 1);
        let group_mods = cmds
            .iter()
            .filter(|c| matches!(c.msg, ControllerToSwitch::GroupMod { .. }))
            .count();
        assert_eq!(group_mods, 1);
        // One labelling rule per connected port + the table-1 default.
        let flow_mods = cmds
            .iter()
            .filter(|c| matches!(c.msg, ControllerToSwitch::FlowMod { .. }))
            .count();
        assert_eq!(flow_mods, f.topo.ports(f.ps).len() + 1);
        // All addressed to the activated switch.
        assert!(cmds.iter().all(|c| c.to == f.ps));
    }

    #[test]
    fn overlay_packet_in_attributes_to_origin_switch() {
        let mut f = fixture(ControllerMode::Scotch);
        let tunnel = f.app.overlay.lb_tunnels[&f.ps][0];
        let v = f.mesh[0];
        let msg = SwitchToController::PacketIn {
            packet: Packet::flow_start(key(7, f.server_ip), FlowId(9), SimTime::ZERO),
            in_port: PortId(0),
            reason: PacketInReason::NoMatch,
            via_tunnel: Some(tunnel),
            ingress_label: Some(3),
        };
        f.handle(SimTime::from_millis(1), v, msg);
        // Attributed to ps (not the vSwitch), on the labelled port.
        assert!(f.app.monitor.rate(f.ps, SimTime::from_millis(2)) > 0.0);
        assert_eq!(f.app.ingress_backlog(f.ps), 1);
        // Direct-OFA monitor must NOT see overlay-borne Packet-Ins.
        assert_eq!(
            f.app.direct_monitor.rate(f.ps, SimTime::from_millis(2)),
            0.0
        );
    }

    #[test]
    fn duplicate_packet_in_is_relayed_to_destination_edge() {
        let mut f = fixture(ControllerMode::Scotch);
        let k = key(2, f.server_ip);
        f.handle(SimTime::ZERO, f.ps, packet_in(k, 1));
        // Same flow again while pending.
        let cmds = f.handle(SimTime::from_millis(1), f.ps, packet_in(k, 1));
        assert_eq!(f.app.stats().duplicate_packet_ins, 1);
        assert_eq!(cmds.len(), 1);
        assert!(matches!(cmds[0].msg, ControllerToSwitch::PacketOut { .. }));
    }

    #[test]
    fn unroutable_destination_counts() {
        let mut f = fixture(ControllerMode::Baseline);
        let cmds = f.handle(
            SimTime::ZERO,
            f.ps,
            packet_in(key(1, IpAddr::new(99, 9, 9, 9)), 1),
        );
        assert!(cmds.is_empty());
        assert_eq!(f.app.stats().unroutable, 1);
    }

    #[test]
    fn heartbeat_probes_live_mesh_and_failure_disables_bucket() {
        let mut f = fixture(ControllerMode::Scotch);
        let cmds = f.app.heartbeat(SimTime::ZERO);
        assert_eq!(cmds.len(), 2); // two mesh vSwitches
        assert!(cmds
            .iter()
            .all(|c| matches!(c.msg, ControllerToSwitch::EchoRequest { .. })));
        // Activate so failure handling issues GroupMods.
        for i in 0..200u64 {
            f.app
                .monitor
                .record(f.ps, SimTime::from_millis(900 + i.min(5)));
        }
        f.tick(SimTime::from_secs(1));
        assert!(f.app.is_active(f.ps));
        // mesh0 keeps answering heartbeats; mesh1 goes silent.
        for sec in 1..=4u64 {
            f.handle(
                SimTime::from_secs(sec),
                f.mesh[0],
                SwitchToController::EchoReply { nonce: sec },
            );
        }
        // Keep the monitor hot so no withdrawal interferes.
        for i in 0..200u64 {
            f.app.monitor.record(f.ps, SimTime::from_millis(4400 + i));
        }
        // mesh1 is now well past the miss limit.
        let cmds = f.tick(SimTime::from_millis(4600));
        assert!(f.app.stats().failovers >= 1);
        assert!(
            cmds.iter().any(|c| matches!(
                c.msg,
                ControllerToSwitch::GroupMod {
                    command: scotch_openflow::messages::GroupModCommand::SetBucketAlive {
                        alive: false,
                        ..
                    },
                    ..
                }
            )),
            "expected a bucket disable: {cmds:?}"
        );
    }

    #[test]
    fn stats_poll_targets_live_mesh_only() {
        let mut f = fixture(ControllerMode::Scotch);
        assert_eq!(f.app.poll_stats().len(), 2);
        f.app.overlay.fail_vswitch(f.mesh[0]);
        assert_eq!(f.app.poll_stats().len(), 1);
        // Baseline mode never polls.
        let b = fixture(ControllerMode::Baseline);
        let mut b = b;
        assert!(b.app.poll_stats().is_empty());
    }

    #[test]
    fn flow_matcher_respects_granularity_config() {
        let f = fixture(ControllerMode::Scotch);
        let k = key(5, f.server_ip);
        let m = f.app.flow_matcher(&k);
        assert_eq!(m, Match::src_dst(k.src, k.dst));
        let mut f2 = fixture(ControllerMode::Scotch);
        f2.app.config.exact_match_rules = true;
        assert_eq!(f2.app.flow_matcher(&k), Match::exact(k));
    }

    #[test]
    fn error_messages_count_rule_failures() {
        let mut f = fixture(ControllerMode::Scotch);
        f.handle(
            SimTime::ZERO,
            f.ps,
            SwitchToController::Error {
                kind: OfError::FlowModOverload,
            },
        );
        f.handle(
            SimTime::ZERO,
            f.ps,
            SwitchToController::Error {
                kind: OfError::TableFull,
            },
        );
        assert_eq!(f.app.stats().rule_failures, 2);
    }

    #[test]
    fn withdrawal_pins_live_overlay_flows_then_removes_defaults() {
        let mut f = fixture(ControllerMode::Scotch);
        // Activate.
        for i in 0..200u64 {
            f.app
                .monitor
                .record(f.ps, SimTime::from_millis(900 + i.min(5)));
        }
        f.tick(SimTime::from_secs(1));
        assert!(f.app.is_active(f.ps));
        // One overlay flow, kept alive via stats-poll touches.
        let k = key(77, f.server_ip);
        let tunnel = f.app.overlay.lb_tunnels[&f.ps][0];
        let msg = SwitchToController::PacketIn {
            packet: Packet::flow_start(k, FlowId(1), SimTime::from_secs(1)),
            in_port: PortId(0),
            reason: PacketInReason::NoMatch,
            via_tunnel: Some(tunnel),
            ingress_label: Some(2),
        };
        f.handle(SimTime::from_millis(1100), f.mesh[0], msg);
        // Force it onto the overlay via the scheduler path: shed directly.
        // (Simpler: mark it in flowdb as an overlay flow.)
        f.app.flowdb.record(
            k,
            f.ps,
            PortId(2),
            SimTime::from_millis(1100),
            FlowPath::Overlay,
        );
        f.app.flowdb.touch(&k, SimTime::from_secs(10));

        // Silence: rate decays below the withdrawal threshold; hold for 2s.
        let mut cmds = Vec::new();
        for t in [9_000u64, 9_010, 11_020, 11_030] {
            cmds.extend(f.tick(SimTime::from_millis(t)));
        }
        assert!(!f.app.is_active(f.ps));
        assert_eq!(f.app.stats().withdrawals, 1);
        // Pins + deletions ride the admitted queue: service a later tick.
        let cmds2 = f.tick(SimTime::from_millis(12_000));
        let all: Vec<&Command> = cmds.iter().chain(cmds2.iter()).collect();
        let pins = all
            .iter()
            .filter(|c| {
                matches!(
                    &c.msg,
                    ControllerToSwitch::FlowMod {
                        command: FlowModCommand::Add(e),
                        ..
                    } if e.priority == PIN_RULE_PRIORITY
                )
            })
            .count();
        let deletes = all
            .iter()
            .filter(|c| {
                matches!(
                    &c.msg,
                    ControllerToSwitch::FlowMod {
                        command: FlowModCommand::DeleteExact(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pins, 1, "one live overlay flow -> one pin");
        // Port-label rules + the table-1 default.
        assert!(deletes >= 2, "default rules must be deleted: {deletes}");
        // Order within the queue: pin precedes the deletions.
        let order: Vec<u16> = all
            .iter()
            .filter_map(|c| match &c.msg {
                ControllerToSwitch::FlowMod {
                    command: FlowModCommand::Add(e),
                    ..
                } if e.priority == PIN_RULE_PRIORITY => Some(0),
                ControllerToSwitch::FlowMod {
                    command: FlowModCommand::DeleteExact(_),
                    ..
                } => Some(1),
                _ => None,
            })
            .collect();
        assert!(
            order.windows(2).all(|w| w[0] <= w[1]),
            "pins first: {order:?}"
        );
    }

    /// Drive activation, park one overlay flow last-touched at t=10 s,
    /// then withdraw around t=50 s; returns how many pin rules were
    /// installed for it.
    fn pins_after_late_withdrawal(telemetry: crate::config::TelemetryConfig) -> usize {
        let mut f = fixture(ControllerMode::Scotch);
        f.app.config.telemetry = telemetry;
        for i in 0..200u64 {
            f.app
                .monitor
                .record(f.ps, SimTime::from_millis(900 + i.min(5)));
        }
        f.tick(SimTime::from_secs(1));
        assert!(f.app.is_active(f.ps));
        let k = key(78, f.server_ip);
        f.app.flowdb.record(
            k,
            f.ps,
            PortId(2),
            SimTime::from_millis(1100),
            FlowPath::Overlay,
        );
        // Last observed activity: a stats sighting at t = 10 s. Under
        // sparse sampling the flow may simply not have been sampled since.
        f.app.flowdb.touch(&k, SimTime::from_secs(10));
        let mut cmds = Vec::new();
        for t in [48_000u64, 48_010, 50_020, 50_030] {
            cmds.extend(f.tick(SimTime::from_millis(t)));
        }
        assert_eq!(f.app.stats().withdrawals, 1);
        cmds.extend(f.tick(SimTime::from_millis(51_000)));
        cmds.iter()
            .filter(|c| {
                matches!(
                    &c.msg,
                    ControllerToSwitch::FlowMod {
                        command: FlowModCommand::Add(e),
                        ..
                    } if e.priority == PIN_RULE_PRIORITY
                )
            })
            .count()
    }

    #[test]
    fn sparse_sampling_stretches_withdrawal_liveness_horizon() {
        use crate::config::TelemetryConfig;
        // ~40 s since the last sighting. Exhaustive polling would have
        // observed a live flow every second, so 40 s of silence means
        // dead: no pin. At rate 1/64 a live-but-slow flow is only
        // *observed* every ~64 polls — the horizon stretches to 128 s and
        // the flow must still be pinned, not spuriously expired.
        assert_eq!(pins_after_late_withdrawal(TelemetryConfig::Exhaustive), 0);
        assert_eq!(
            pins_after_late_withdrawal(TelemetryConfig::Sampled { rate: 1.0 / 64.0 }),
            1,
            "sparsely-sampled live overlay flow was spuriously expired"
        );
    }

    #[test]
    fn baseline_tick_is_inert() {
        let mut f = fixture(ControllerMode::Baseline);
        assert!(f.tick(SimTime::from_secs(1)).is_empty());
        assert!(f.app.heartbeat(SimTime::from_secs(1)).is_empty());
    }
}
