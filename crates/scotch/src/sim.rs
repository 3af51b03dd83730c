//! The composition root: one event loop wiring topology, devices,
//! controller, and workloads together.
//!
//! Follows the smoltcp-style event-driven design: every device is a
//! passive state machine; this module owns the [`EventQueue`] and converts
//! device outputs into scheduled events. All randomness is seeded, all
//! ties deterministic — a `(scenario, seed)` pair reproduces bit-identical
//! reports.

use crate::app::{ControllerMode, ScotchApp};
use crate::report::{DropCounts, FlowLedger, Report, SwitchReport, VSwitchReport};
use scotch_controller::{Command, MasterView};
use scotch_net::{IpAddr, Label, LinkId, NodeId, NodeKind, NodeMap, Packet, PortId, Topology};
use scotch_openflow::{ControllerToSwitch, FlowModCommand, SwitchToController};
use scotch_sim::fault::{FaultEvent, FaultKind, FaultPlan, FAULT_KIND_COUNT, FAULT_KIND_NAMES};
use scotch_sim::journey::{
    JourneyPoint, JourneyRecorder, LatencyDecomposition, DROP_CTRL_REJECT, DROP_LINK,
};
use scotch_sim::metrics::Histogram;
use scotch_sim::trace::{TraceEvent, TraceRecorder};
use scotch_sim::{
    DispatchProfiler, EventQueue, FxHashMap, MetricsRegistry, SimDuration, SimRng, SimTime,
};
use scotch_switch::middlebox::{MbVerdict, Middlebox};
use scotch_switch::{DropReason, Output, PhysicalSwitch, VSwitch};
use scotch_workload::{ArrivalFeed, FlowArrival, FlowSource, FlowSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Discrete events.
pub(crate) enum Event {
    /// A packet lands on `(node, port)` after link transit.
    Arrive {
        node: NodeId,
        port: PortId,
        packet: Packet,
    },
    /// Host `src_host` emits packet `seq` of flow `flow_idx`. The event
    /// carries the flow's spec, so emission reads no flow record beyond
    /// bumping its `emitted` count.
    EmitPacket {
        flow_idx: u32,
        seq: u32,
        src_host: NodeId,
        spec: FlowSpec,
    },
    /// Pull the first arrival from workload source `source_idx` (the t = 0
    /// seed; every later arrival is drawn by a [`Event::FlowStart`]).
    SourceNext { source_idx: usize },
    /// Flow `flow_idx` of workload source `source_idx` starts: emit its
    /// packet 0, then pull the source's next arrival. One event for what
    /// would otherwise be an `EmitPacket` seq 0 and a `SourceNext` pushed
    /// back to back for the same instant, so the pop order is the same.
    FlowStart {
        source_idx: u32,
        flow_idx: u32,
        src_host: NodeId,
        spec: FlowSpec,
    },
    /// A switch→controller message arrives at the controller (subject to
    /// the optional controller-capacity gate).
    ///
    /// Control messages are boxed to keep the `Event` enum at the size of
    /// its hot variant (`Arrive`): the queue's payload slab holds one
    /// `Event` per slot, so the max variant size sets how densely pending
    /// events pack, while control events are comparatively rare.
    CtrlFromSwitch {
        from: NodeId,
        msg: Box<SwitchToController>,
    },
    /// A gated message whose controller service time has elapsed.
    CtrlProcessed {
        from: NodeId,
        msg: Box<SwitchToController>,
    },
    /// A burst of controller→switch commands arrives, each at its own
    /// switch, in dispatch order. `dispatch_commands` groups consecutive
    /// commands with one delivery time into one event: their queue keys
    /// would be adjacent anyway, so the pop order is unchanged (DESIGN.md
    /// §9, "Control path").
    CtrlToSwitch { burst: Burst },
    /// Periodic controller work (queue service, monitoring).
    ControllerTick,
    /// Periodic FlowStats poll (§5.3).
    StatsPoll,
    /// Periodic heartbeat probes (§5.6).
    Heartbeat,
    /// Periodic flow-table expiry sweep.
    ExpirySweep,
    /// Scripted fault injection: kill a vSwitch.
    FailVSwitch { node: NodeId },
    /// Scripted elastic scale-out: join a vSwitch to the overlay (§5.6).
    JoinVSwitch { node: NodeId },
    /// Scripted recovery of a previously failed vSwitch (§5.6).
    RecoverVSwitch { node: NodeId },
    /// Inject entry `idx` of the attached fault plan (chaos harness).
    InjectFault { idx: u32 },
    /// Toggle a directed link's administrative state; `finale` marks the
    /// last toggle of a bounded fault (traced as `FaultCleared`).
    SetLinkUp {
        link: LinkId,
        up: bool,
        kind: u8,
        finale: bool,
    },
    /// Restore a degraded link's latency.
    ClearLinkDegrade { link: LinkId },
    /// Restore a slowed OFA's service times.
    ClearOfaSlowdown { node: NodeId },
    /// End of a controller stall window (trace marker; the stall itself
    /// expires by timestamp comparison).
    ClearControllerStall,
    /// A cluster mastership-handoff deadline: settle every due migration
    /// and release the affected switches' parked messages to their new
    /// master replicas (DESIGN.md §16).
    ClusterHandoffDone,
    /// A crashed controller replica rejoins the cluster as a standby.
    RecoverReplica { replica: u32 },
    /// End of an inter-controller partition window (trace marker; the
    /// partition itself expires by timestamp comparison).
    ClearCtrlPartition,
}

/// Controller→switch commands that arrive at one instant, in dispatch
/// order. Boxed on purpose: the `Event` variant carrying it stays one thin
/// pointer. An inline `Vec` changes the enum's layout and the compiled
/// queue push/pop, and in a measured prototype slowed `ddos_punt` by
/// 11–17%.
#[allow(clippy::box_collection)]
type Burst = Box<Vec<Command>>;

/// Dispatch-profile row labels: the 21 [`Event`] kinds plus refined rows
/// that split the hottest variants by what actually happened inside them.
/// An `Arrive` that label-switches through a tunnel takes a very different
/// path from one that hits a device table; a `CtrlFromSwitch` carrying a
/// PacketIn is the controller's hot path while an echo is bookkeeping.
/// Handlers reclassify by overwriting [`Simulation::profile_kind`].
const PROFILE_KIND_NAMES: [&str; 24] = [
    "arrive",
    "emit_packet",
    "source_next",
    "ctrl_from_switch",
    "ctrl_processed",
    "ctrl_to_switch",
    "controller_tick",
    "stats_poll",
    "heartbeat",
    "expiry_sweep",
    "fail_vswitch",
    "join_vswitch",
    "recover_vswitch",
    "inject_fault",
    "set_link_up",
    "clear_link_degrade",
    "clear_ofa_slowdown",
    "clear_controller_stall",
    "cluster_handoff_done",
    "recover_replica",
    "clear_ctrl_partition",
    "arrive_tunnel_transit",
    "ctrl_packet_in",
    "ctrl_flowmod",
];

/// Refined profile row: `Arrive` resolved by tunnel label switching.
const PROFILE_KIND_TUNNEL_TRANSIT: usize = 21;
/// Refined profile row: `CtrlFromSwitch` carrying a PacketIn.
const PROFILE_KIND_PACKET_IN: usize = 22;
/// Refined profile row: `CtrlToSwitch` carrying a FlowMod.
const PROFILE_KIND_FLOWMOD: usize = 23;
/// Profile row of a `CtrlToSwitch` command other than a FlowMod.
const PROFILE_KIND_CTRL_TO_SWITCH: usize = 5;

impl Event {
    /// Profile row of the event's variant (one of the first 21 rows of
    /// [`PROFILE_KIND_NAMES`]). `FlowStart` shares the `source_next` row:
    /// it is the arrival draw with packet 0's emission folded in.
    fn kind(&self) -> usize {
        match self {
            Event::Arrive { .. } => 0,
            Event::EmitPacket { .. } => 1,
            Event::SourceNext { .. } | Event::FlowStart { .. } => 2,
            Event::CtrlFromSwitch { .. } => 3,
            Event::CtrlProcessed { .. } => 4,
            Event::CtrlToSwitch { .. } => 5,
            Event::ControllerTick => 6,
            Event::StatsPoll => 7,
            Event::Heartbeat => 8,
            Event::ExpirySweep => 9,
            Event::FailVSwitch { .. } => 10,
            Event::JoinVSwitch { .. } => 11,
            Event::RecoverVSwitch { .. } => 12,
            Event::InjectFault { .. } => 13,
            Event::SetLinkUp { .. } => 14,
            Event::ClearLinkDegrade { .. } => 15,
            Event::ClearOfaSlowdown { .. } => 16,
            Event::ClearControllerStall => 17,
            Event::ClusterHandoffDone => 18,
            Event::RecoverReplica { .. } => 19,
            Event::ClearCtrlPartition => 20,
        }
    }

    /// Model events this queue event stands for: 2 for a `FlowStart` (the
    /// packet-0 emission plus the arrival draw), one per command for a
    /// `CtrlToSwitch` burst, 1 for everything else.
    /// `Report::events_processed` counts these, so fusing several model
    /// events into one queue event leaves the canonical report unchanged.
    fn model_events(&self) -> u64 {
        match self {
            Event::FlowStart { .. } => 2,
            Event::CtrlToSwitch { burst } => burst.len() as u64,
            _ => 1,
        }
    }
}

/// Control-channel perturbation kinds for
/// [`TraceEvent::CtrlMsgPerturbed`] (`0` dropped rx, `1` dropped tx,
/// `2` duplicated, `3` delayed).
const PERTURB_DROP_RX: u32 = 0;
const PERTURB_DROP_TX: u32 = 1;
const PERTURB_DUP: u32 = 2;
const PERTURB_DELAY: u32 = 3;

/// Mutable chaos-harness state: active fault windows plus the exact
/// message accounting the invariant checker reconciles after the run.
///
/// Everything here is exported under `chaos.*` in the metrics snapshot
/// (never in the canonical report), and only when a fault plan is attached.
#[derive(Default)]
pub(crate) struct ChaosState {
    /// Faults injected, by [`FaultKind::index`].
    pub(crate) injected: [u64; FAULT_KIND_COUNT],
    /// Plan entries skipped because no candidate target existed.
    pub(crate) skipped: u64,
    /// Control-channel loss window (drop probability, end of window).
    pub(crate) loss_p: f64,
    pub(crate) loss_until: SimTime,
    /// Switch→controller duplication window.
    pub(crate) dup_p: f64,
    pub(crate) dup_until: SimTime,
    /// Reordering window (extra uniform delay in `[0, jitter]`).
    pub(crate) reorder_p: f64,
    pub(crate) reorder_jitter: SimDuration,
    pub(crate) reorder_until: SimTime,
    /// Controller outage: inbound messages and periodic work defer until
    /// this instant.
    pub(crate) stall_until: SimTime,
    /// Switch→controller messages dropped by loss, by rx message kind.
    pub(crate) rx_dropped: [u64; 6],
    /// Controller→switch messages dropped by loss, by tx message kind.
    pub(crate) tx_dropped: [u64; 6],
    /// Switch→controller messages duplicated, by rx message kind.
    pub(crate) duplicated: [u64; 6],
    /// Messages given extra reorder delay (both directions).
    pub(crate) delayed: u64,
    /// Messages deferred past a controller stall window.
    pub(crate) deferred: u64,
    /// Controller→switch messages absorbed by a failed vSwitch, by kind.
    pub(crate) absorbed: [u64; 6],
    /// FlowMod-Add commands sent / lost in transit / absorbed while the
    /// target vSwitch was failed (the FlowMod conservation ledger).
    pub(crate) flowmod_add_sent: u64,
    pub(crate) flowmod_add_dropped: u64,
    pub(crate) flowmod_add_absorbed: u64,
    /// Events still queued when the horizon hit, tallied so conservation
    /// checks are exact rather than tolerance-based.
    pub(crate) in_flight_rx: [u64; 6],
    pub(crate) in_flight_tx: [u64; 6],
    pub(crate) in_flight_flowmod_add: u64,
    pub(crate) in_flight_packets: u64,
}

impl ChaosState {
    fn tally_in_flight(&mut self, ev: &Event) {
        match ev {
            Event::Arrive { .. } | Event::EmitPacket { .. } | Event::FlowStart { .. } => {
                self.in_flight_packets += 1
            }
            Event::CtrlFromSwitch { msg, .. } | Event::CtrlProcessed { msg, .. } => {
                self.in_flight_rx[ctrl_rx_kind(msg)] += 1;
            }
            Event::CtrlToSwitch { burst } => {
                for cmd in burst.iter() {
                    self.in_flight_tx[ctrl_tx_kind(&cmd.msg)] += 1;
                    if is_flowmod_add(&cmd.msg) {
                        self.in_flight_flowmod_add += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Dense index for [`ControllerToSwitch`] message kinds (see
/// [`ControllerToSwitch::kind_name`]), used for the per-message-type
/// command counters exported through the metrics registry.
fn ctrl_tx_kind(msg: &ControllerToSwitch) -> usize {
    match msg {
        ControllerToSwitch::FlowMod { .. } => 0,
        ControllerToSwitch::GroupMod { .. } => 1,
        ControllerToSwitch::PacketOut { .. } => 2,
        ControllerToSwitch::FlowStatsRequest => 3,
        ControllerToSwitch::EchoRequest { .. } => 4,
        ControllerToSwitch::Barrier { .. } => 5,
    }
}

/// Whether `msg` is a FlowMod Add (the FlowMod conservation ledger's unit).
fn is_flowmod_add(msg: &ControllerToSwitch) -> bool {
    matches!(
        msg,
        ControllerToSwitch::FlowMod {
            command: FlowModCommand::Add(_),
            ..
        }
    )
}

const CTRL_TX_KIND_NAMES: [&str; 6] = [
    "flow_mod",
    "group_mod",
    "packet_out",
    "flow_stats_request",
    "echo_request",
    "barrier",
];

/// Dense index for [`SwitchToController`] message kinds (see
/// [`SwitchToController::kind_name`]).
fn ctrl_rx_kind(msg: &SwitchToController) -> usize {
    match msg {
        SwitchToController::PacketIn { .. } => 0,
        SwitchToController::FlowRemoved { .. } => 1,
        SwitchToController::FlowStatsReply { .. } => 2,
        SwitchToController::EchoReply { .. } => 3,
        SwitchToController::BarrierReply { .. } => 4,
        SwitchToController::Error { .. } => 5,
    }
}

const CTRL_RX_KIND_NAMES: [&str; 6] = [
    "packet_in",
    "flow_removed",
    "flow_stats_reply",
    "echo_reply",
    "barrier_reply",
    "error",
];

/// Flow-id → ledger-index map. `FlowId` encodes `stream << 48 | seq`
/// with both halves handed out contiguously by `FlowIdAllocator`, so two
/// levels of `Vec` replace hashing on the per-packet delivery path (and the
/// rehash churn of growing a map by hundreds of thousands of flows).
/// Stored values are `index + 1`; 0 marks an empty slot. An id far beyond
/// the dense range — any `FlowId` a custom source may pick — goes to a
/// hash-map spill instead of growing a `Vec` to its sequence number.
#[derive(Default)]
pub(crate) struct FlowIndex {
    streams: Vec<Vec<u32>>,
    spill: FxHashMap<u64, u32>,
}

impl FlowIndex {
    const SEQ_MASK: u64 = (1 << 48) - 1;
    /// Streams below this are dense (`FlowIdAllocator` numbers them from 0).
    const DENSE_STREAMS: usize = 1 << 10;
    /// Largest jump past a stream's dense end that still grows its `Vec`.
    const DENSE_GAP: usize = 1 << 16;

    #[inline]
    fn get(&self, id: scotch_net::FlowId) -> Option<usize> {
        let stream = (id.0 >> 48) as usize;
        let seq = (id.0 & Self::SEQ_MASK) as usize;
        match self.streams.get(stream).and_then(|v| v.get(seq)) {
            Some(&v) if v != 0 => Some((v - 1) as usize),
            _ if self.spill.is_empty() => None,
            _ => self.spill.get(&id.0).map(|&v| v as usize),
        }
    }

    fn insert(&mut self, id: scotch_net::FlowId, idx: u32) {
        let stream = (id.0 >> 48) as usize;
        let seq = (id.0 & Self::SEQ_MASK) as usize;
        if stream >= Self::DENSE_STREAMS {
            self.spill.insert(id.0, idx);
            return;
        }
        if stream >= self.streams.len() {
            self.streams.resize_with(stream + 1, Vec::new);
        }
        let v = &mut self.streams[stream];
        if seq >= v.len() {
            if seq - v.len() > Self::DENSE_GAP {
                self.spill.insert(id.0, idx);
                return;
            }
            v.resize(seq + 1, 0);
        }
        v[seq] = idx + 1;
    }
}

/// Per-origin chaos stream, forked lazily from the plan seed exactly like
/// [`SimRng::fork`] derives child streams: mixing the origin id keeps every
/// origin's draw sequence independent of all others.
fn chaos_stream(streams: &mut FxHashMap<u32, SimRng>, seed: u64, origin: u32) -> &mut SimRng {
    streams
        .entry(origin)
        .or_insert_with(|| SimRng::new(seed ^ (origin as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// A free list of message boxes. Control events carry their payload boxed
/// (see [`Event::CtrlFromSwitch`] and [`Event::CtrlToSwitch`]); recycling
/// the box of each delivered message or burst means steady-state control
/// traffic allocates nothing.
struct BoxPool<T> {
    free: Vec<Box<T>>,
}

impl<T> Default for BoxPool<T> {
    fn default() -> Self {
        BoxPool { free: Vec::new() }
    }
}

impl<T> BoxPool<T> {
    /// Most boxes kept for reuse; about the number of messages in flight
    /// at once (rate × control latency) with ample margin.
    const CAP: usize = 1024;

    /// Box `msg`, reusing a recycled allocation when one is free.
    fn boxed(&mut self, msg: T) -> Box<T> {
        match self.free.pop() {
            Some(mut b) => {
                *b = msg;
                b
            }
            None => Box::new(msg),
        }
    }

    /// Move the message out of a delivered box, leaving the cheap `vacant`
    /// value in it, and keep the box for reuse.
    fn unboxed(&mut self, mut b: Box<T>, vacant: T) -> T {
        let msg = std::mem::replace(&mut *b, vacant);
        self.recycle(b);
        msg
    }

    /// Keep a delivered box for reuse.
    fn recycle(&mut self, b: Box<T>) {
        if self.free.len() < Self::CAP {
            self.free.push(b);
        }
    }
}

impl BoxPool<Vec<Command>> {
    /// An empty command burst, reusing a drained box and its capacity when
    /// one is free.
    fn burst(&mut self) -> Burst {
        self.free.pop().unwrap_or_default()
    }
}

/// Placeholder left in a recycled box once its message is moved out: a
/// heap-free variant, so the swap costs a few stores.
const VACANT_FROM_SWITCH: SwitchToController = SwitchToController::EchoReply { nonce: 0 };

/// How a run draws its workload arrivals. [`Simulation::run`] always
/// passes `Auto`; tests force either path to compare them.
#[derive(Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) enum Draw {
    /// On a helper thread if a core is spare, else inline.
    Auto,
    /// Inline, on the simulation thread.
    Inline,
    /// On a helper thread.
    Prefetch,
}

/// Every simulation thread of the process, and the arrival helpers they
/// run. A run takes a helper only while the count leaves a core spare:
/// where the runner pool already fills every core, a helper would only
/// steal time from another simulation.
static SIM_THREADS: SimThreads = SimThreads::new(0);

/// A count of threads busy running a simulation or drawing arrivals for
/// one, against the cores they share.
pub(crate) struct SimThreads {
    /// `Relaxed` throughout: the count publishes no other data.
    busy: AtomicUsize,
    /// Core count; 0 for the host's.
    cores: usize,
}

impl SimThreads {
    /// No thread busy yet, on `cores` cores (0: the host's).
    pub(crate) const fn new(cores: usize) -> Self {
        SimThreads {
            busy: AtomicUsize::new(0),
            cores,
        }
    }

    fn cores(&self) -> usize {
        static HOST: OnceLock<usize> = OnceLock::new();
        match self.cores {
            0 => *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            n => n,
        }
    }

    /// Threads busy now.
    #[cfg(test)]
    pub(crate) fn busy(&self) -> usize {
        self.busy.load(Ordering::Relaxed)
    }

    /// Count the calling thread busy, plus a helper if `draw` asks for
    /// one or, for `Auto`, if a core is left for it.
    fn claim(&self, draw: Draw) -> ThreadClaim<'_> {
        let cores = self.cores();
        let want = |busy: usize| match draw {
            Draw::Auto if busy + 2 <= cores => 2,
            Draw::Auto | Draw::Inline => 1,
            Draw::Prefetch => 2,
        };
        let before = self
            .busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                Some(busy + want(busy))
            })
            .expect("the update always applies");
        ThreadClaim {
            threads: self,
            held: want(before),
        }
    }
}

/// Threads a run counts busy; released on drop.
struct ThreadClaim<'a> {
    threads: &'a SimThreads,
    held: usize,
}

impl ThreadClaim<'_> {
    /// True if the run may start an arrival helper.
    fn helper(&self) -> bool {
        self.held == 2
    }
}

impl Drop for ThreadClaim<'_> {
    fn drop(&mut self) {
        self.threads.busy.fetch_sub(self.held, Ordering::Relaxed);
    }
}

/// The simulation.
pub struct Simulation {
    /// The network graph (public for inspection in tests/benches).
    pub topo: Topology,
    /// The controller application.
    pub app: ScotchApp,
    pub(crate) physical: NodeMap<PhysicalSwitch>,
    pub(crate) vswitches: NodeMap<VSwitch>,
    pub(crate) middleboxes: NodeMap<Middlebox>,
    pub(crate) host_ip: NodeMap<IpAddr>,
    pub(crate) ip_host: FxHashMap<IpAddr, NodeId>,
    /// Workload sources, drawn inline or on a helper thread (see
    /// [`Simulation::run`]).
    feed: ArrivalFeed,
    /// Per source, the host that emits flows whose source address is not
    /// a registered host.
    source_hosts: Vec<NodeId>,
    /// The flow ledger: one entry per generated flow, in creation order,
    /// moved into [`Report::flows`] as is.
    pub(crate) flows: FlowLedger,
    /// Expected concurrent flows, from the scenario's workload spec. The
    /// controller's per-flow state is reserved to this size when the run
    /// starts rather than when the scenario is built, so building touches
    /// no run-sized memory (DESIGN.md §9, "Flow ledger").
    pub(crate) flow_capacity_hint: usize,
    pub(crate) flow_index: FlowIndex,
    pub(crate) tracked: FxHashMap<scotch_net::FlowId, Vec<(SimTime, SimDuration)>>,
    pub(crate) captures: NodeMap<crate::pcap::PcapCapture>,
    pub(crate) events: EventQueue<Event>,
    /// Optional controller processing gate (see
    /// `ScotchConfig::controller_capacity`).
    pub(crate) controller_gate: Option<(scotch_sim::rate::FifoServer, SimDuration)>,
    pub(crate) controller_dropped: u64,
    pub(crate) drops: DropCounts,
    pub(crate) latency: Histogram,
    pub(crate) misrouted: u64,
    /// Reusable device-output buffer: one allocation for the whole run
    /// instead of one `Vec<Output>` per packet or control event.
    out_buf: Vec<Output>,
    /// Reusable controller-command buffer: the controller appends to it
    /// and `dispatch_commands` drains it, so a Packet-In allocates no
    /// command list.
    cmd_buf: Vec<Command>,
    /// Recycled control-message boxes (see [`BoxPool`]): a delivered
    /// message's box carries the next switch→controller message, and a
    /// delivered burst's box the next controller→switch burst.
    bursts: BoxPool<Vec<Command>>,
    from_switch_boxes: BoxPool<SwitchToController>,
    pub(crate) sweep_interval: SimDuration,
    /// Unified metrics registry: periodic series are sampled during the
    /// run, everything else is populated from the stats structs at report
    /// time (so hot-path increments stay plain `+= 1`s).
    pub(crate) registry: MetricsRegistry,
    /// Optional wall-clock dispatch-cost profiler (`bench hotpath
    /// --profile`). Never enabled on golden-report paths.
    pub(crate) profiler: Option<DispatchProfiler>,
    /// Profile row for the event being dispatched. Seeded with the event's
    /// kind; handlers overwrite it with a refined row (tunnel transit,
    /// PacketIn, FlowMod). Only written when the profiler is active.
    pub(crate) profile_kind: usize,
    /// Controller→switch messages sent, by message kind (dense arrays on
    /// the dispatch path; exported as `controller.tx.<kind>` at report
    /// time).
    pub(crate) ctrl_tx: [u64; 6],
    /// Switch→controller messages received, by message kind
    /// (`controller.rx.<kind>`).
    pub(crate) ctrl_rx: [u64; 6],
    /// Attached fault plan (empty = chaos harness inactive).
    pub(crate) fault_plan: Vec<FaultEvent>,
    /// Seed for the probabilistic fault draws (loss/dup/reorder), drawn
    /// from the RNG the scenario forked for the chaos harness. `Some` marks
    /// the harness active. Each perturbation *origin* (emitting node, or
    /// the controller) lazily forks its own stream from this seed, so one
    /// origin's draws never shift another's.
    pub(crate) chaos_seed: Option<u64>,
    /// Lazily forked per-origin chaos streams (see [`chaos_stream`]).
    pub(crate) chaos_streams: FxHashMap<u32, SimRng>,
    /// Live fault windows and the chaos accounting ledger.
    pub(crate) chaos: ChaosState,
}

impl Simulation {
    /// Build a simulation over a wired topology and controller app.
    pub fn new(topo: Topology, app: ScotchApp) -> Self {
        let controller_gate = app.config.controller_capacity.map(|cap| {
            (
                scotch_sim::rate::FifoServer::new(4096),
                scotch_sim::rate::FifoServer::service_time(cap),
            )
        });
        Simulation {
            controller_gate,
            controller_dropped: 0,
            topo,
            app,
            physical: NodeMap::new(),
            vswitches: NodeMap::new(),
            middleboxes: NodeMap::new(),
            host_ip: NodeMap::new(),
            ip_host: FxHashMap::default(),
            feed: ArrivalFeed::new(),
            source_hosts: Vec::new(),
            flows: FlowLedger::default(),
            flow_capacity_hint: 0,
            flow_index: FlowIndex::default(),
            tracked: FxHashMap::default(),
            captures: NodeMap::new(),
            events: EventQueue::new(),
            drops: DropCounts::default(),
            latency: Histogram::new(),
            misrouted: 0,
            out_buf: Vec::new(),
            cmd_buf: Vec::new(),
            bursts: BoxPool::default(),
            from_switch_boxes: BoxPool::default(),
            sweep_interval: SimDuration::from_secs(1),
            registry: MetricsRegistry::new(),
            profiler: None,
            profile_kind: 0,
            ctrl_tx: [0; 6],
            ctrl_rx: [0; 6],
            fault_plan: Vec::new(),
            chaos_seed: None,
            chaos_streams: FxHashMap::default(),
            chaos: ChaosState::default(),
        }
    }

    /// Turn on per-event-type wall-clock dispatch profiling. The profile is
    /// observability-only output ([`Report::profile`]); it never feeds the
    /// canonical report, so enabling it cannot perturb golden fixtures.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(DispatchProfiler::new(PROFILE_KIND_NAMES.to_vec()));
    }

    /// Attach a physical switch device at its node.
    pub fn add_physical(&mut self, sw: PhysicalSwitch) {
        self.physical.insert(sw.node, sw);
    }

    /// Attach a vSwitch device at its node.
    pub fn add_vswitch(&mut self, vs: VSwitch) {
        self.vswitches.insert(vs.node, vs);
    }

    /// Attach a middlebox at its node.
    pub fn add_middlebox(&mut self, node: NodeId, mb: Middlebox) {
        self.middleboxes.insert(node, mb);
    }

    /// Register a host's address (the emitting/receiving identity).
    pub fn add_host(&mut self, node: NodeId, ip: IpAddr) {
        self.host_ip.insert(node, ip);
        self.ip_host.insert(ip, node);
    }

    /// Attach a workload source. `default_host` emits flows whose source
    /// address is not a registered host (spoofed traffic).
    pub fn add_source(&mut self, default_host: NodeId, source: Box<dyn FlowSource>) {
        self.feed.push(source);
        self.source_hosts.push(default_host);
    }

    /// Record every delivery timestamp for this flow (per-flow throughput
    /// series in the migration experiments).
    pub fn track_flow(&mut self, id: scotch_net::FlowId) {
        self.tracked.entry(id).or_default();
    }

    /// Tap a node: every packet arriving there is appended to a libpcap
    /// capture available in [`Report::captures`](crate::Report) after the
    /// run (smoltcp-style `--pcap` debugging).
    pub fn capture_at(&mut self, node: NodeId) {
        self.captures.entry_or_default(node);
    }

    /// Schedule a vSwitch failure (§5.6 fault injection).
    pub fn fail_vswitch_at(&mut self, node: NodeId, at: SimTime) {
        self.events.push(at, Event::FailVSwitch { node });
    }

    /// Schedule a vSwitch to join the overlay mesh at `at` (§5.6 elastic
    /// scale-out). The node must already be wired into the topology and
    /// have a device attached.
    pub fn join_vswitch_at(&mut self, node: NodeId, at: SimTime) {
        self.events.push(at, Event::JoinVSwitch { node });
    }

    /// Schedule recovery of a failed vSwitch at `at` (§5.6: it rejoins as
    /// a backup, or revives in place if its bucket was never replaced).
    pub fn recover_vswitch_at(&mut self, node: NodeId, at: SimTime) {
        self.events.push(at, Event::RecoverVSwitch { node });
    }

    /// Attach a declarative fault plan (chaos harness). Every entry is
    /// scheduled through the ordinary event queue, so a
    /// `(scenario, seed, plan)` triple replays bit-identically. `rng` seeds
    /// the probabilistic faults (loss/duplication/reordering draws) and
    /// should be forked from the scenario seed.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan, mut rng: SimRng) {
        for (i, ev) in plan.events.iter().enumerate() {
            self.events
                .push(ev.at, Event::InjectFault { idx: i as u32 });
        }
        self.fault_plan = plan.events.clone();
        // One seed, per-origin streams forked from it on demand — the same
        // fork discipline as workload streams, chosen so a draw sequence
        // belongs to its origin rather than to a global interleaving.
        self.chaos_seed = Some(rng.u64());
    }

    /// Resolve and apply fault-plan entry `idx` at `now`.
    fn on_inject_fault(&mut self, now: SimTime, idx: u32) {
        let kind = self.fault_plan[idx as usize].kind;
        let kind_idx = kind.index();
        match kind {
            FaultKind::VSwitchCrash {
                target,
                restart_after,
            } => {
                // Candidates: live mesh members whose device is not already
                // failed (re-crashing a corpse is a no-op we skip instead).
                let candidates: Vec<NodeId> = self
                    .app
                    .overlay
                    .live_mesh()
                    .into_iter()
                    .filter(|&n| self.vswitches.get(n).map(|v| !v.failed).unwrap_or(false))
                    .collect();
                if candidates.is_empty() {
                    self.chaos.skipped += 1;
                    return;
                }
                let node = candidates[target as usize % candidates.len()];
                if let Some(vs) = self.vswitches.get_mut(node) {
                    vs.failed = true;
                }
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: node.0,
                    },
                );
                if let Some(delay) = restart_after {
                    self.events
                        .push(now + delay, Event::RecoverVSwitch { node });
                }
            }
            FaultKind::LinkDown { target, duration } => {
                let n = self.topo.link_count();
                if n == 0 {
                    self.chaos.skipped += 1;
                    return;
                }
                let link = LinkId(target % n as u32);
                self.topo.set_link_up(link, false);
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: link.0,
                    },
                );
                self.events.push(
                    now + duration,
                    Event::SetLinkUp {
                        link,
                        up: true,
                        kind: kind_idx as u8,
                        finale: true,
                    },
                );
            }
            FaultKind::LinkFlap {
                target,
                cycles,
                period,
            } => {
                let n = self.topo.link_count();
                if n == 0 || cycles == 0 {
                    self.chaos.skipped += 1;
                    return;
                }
                let link = LinkId(target % n as u32);
                self.topo.set_link_up(link, false);
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: link.0,
                    },
                );
                for k in 0..cycles {
                    let last = k + 1 == cycles;
                    self.events.push(
                        now + period.mul(u64::from(2 * k + 1)),
                        Event::SetLinkUp {
                            link,
                            up: true,
                            kind: kind_idx as u8,
                            finale: last,
                        },
                    );
                    if !last {
                        self.events.push(
                            now + period.mul(u64::from(2 * k + 2)),
                            Event::SetLinkUp {
                                link,
                                up: false,
                                kind: kind_idx as u8,
                                finale: false,
                            },
                        );
                    }
                }
            }
            FaultKind::LinkDegrade {
                target,
                extra_latency,
                duration,
            } => {
                let n = self.topo.link_count();
                if n == 0 {
                    self.chaos.skipped += 1;
                    return;
                }
                let link = LinkId(target % n as u32);
                self.topo.set_link_extra_delay(link, extra_latency);
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: link.0,
                    },
                );
                self.events
                    .push(now + duration, Event::ClearLinkDegrade { link });
            }
            FaultKind::CtrlLoss { p, duration } => {
                self.chaos.loss_p = p;
                self.chaos.loss_until = now + duration;
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: u32::MAX,
                    },
                );
            }
            FaultKind::CtrlDup { p, duration } => {
                self.chaos.dup_p = p;
                self.chaos.dup_until = now + duration;
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: u32::MAX,
                    },
                );
            }
            FaultKind::CtrlReorder {
                p,
                jitter,
                duration,
            } => {
                self.chaos.reorder_p = p;
                self.chaos.reorder_jitter = jitter;
                self.chaos.reorder_until = now + duration;
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: u32::MAX,
                    },
                );
            }
            FaultKind::OfaSlowdown {
                target,
                factor,
                duration,
            } => {
                // Candidates: every device with an OFA, physical switches
                // first then vSwitches, both in ascending node-id order.
                let mut candidates: Vec<NodeId> = Vec::new();
                for i in 0..self.physical.id_bound() {
                    let n = NodeId(i);
                    if self.physical.get(n).is_some() {
                        candidates.push(n);
                    }
                }
                for i in 0..self.vswitches.id_bound() {
                    let n = NodeId(i);
                    if self.vswitches.get(n).is_some() {
                        candidates.push(n);
                    }
                }
                if candidates.is_empty() {
                    self.chaos.skipped += 1;
                    return;
                }
                let node = candidates[target as usize % candidates.len()];
                // `FaultPlan::parse` rejects non-positive factors, but a plan
                // built in code is unchecked and the OFA asserts the factor
                // is finite and positive, so clamp before applying.
                let factor = if factor.is_finite() {
                    factor.max(1e-3)
                } else {
                    1.0
                };
                self.set_ofa_slowdown(node, factor);
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: node.0,
                    },
                );
                self.events
                    .push(now + duration, Event::ClearOfaSlowdown { node });
            }
            FaultKind::ControllerStall { duration } => {
                let until = now + duration;
                self.chaos.stall_until = self.chaos.stall_until.max(until);
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: u32::MAX,
                    },
                );
                self.events
                    .push(self.chaos.stall_until, Event::ClearControllerStall);
            }
            FaultKind::ReplicaCrash {
                target,
                restart_after,
            } => {
                // Candidates: live replicas; a single-controller run (or a
                // fully dead cluster) has none and skips the entry.
                let Some(replica) = self
                    .app
                    .cluster
                    .as_ref()
                    .and_then(|c| c.resolve_target(target))
                else {
                    self.chaos.skipped += 1;
                    return;
                };
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: replica,
                    },
                );
                self.crash_replica(now, replica);
                if let Some(delay) = restart_after {
                    self.events
                        .push(now + delay, Event::RecoverReplica { replica });
                }
            }
            FaultKind::CtrlPartition { duration } => {
                let Some(cluster) = self.app.cluster.as_mut() else {
                    self.chaos.skipped += 1;
                    return;
                };
                let heal = cluster.partition(now, duration);
                self.chaos.injected[kind_idx] += 1;
                self.app.trace.record(
                    now,
                    TraceEvent::FaultInjected {
                        kind: kind_idx as u32,
                        target: u32::MAX,
                    },
                );
                self.app.trace.record(
                    now,
                    TraceEvent::ClusterPartitioned {
                        duration_ns: duration.as_nanos(),
                    },
                );
                self.events.push(heal, Event::ClearCtrlPartition);
            }
        }
    }

    /// Crash controller replica `replica`: every switch it masters starts
    /// migrating to its first live standby, and the handoff completion is
    /// scheduled through the event queue so the failover replays
    /// bit-identically. No-op without a cluster.
    fn crash_replica(&mut self, now: SimTime, replica: u32) {
        let Some(cluster) = self.app.cluster.as_mut() else {
            return;
        };
        let switches = self.topo.switch_ids();
        let (moved, deadline) = cluster.crash(now, replica, &switches);
        self.app.trace.record(
            now,
            TraceEvent::ReplicaCrashed {
                replica,
                switches: moved,
            },
        );
        if let Some(at) = deadline {
            self.events.push(at, Event::ClusterHandoffDone);
        }
    }

    /// Settle every due mastership migration: the new masters take over
    /// and each affected switch's parked messages are re-processed in
    /// arrival order, with `Handoff` journey annotations linking the
    /// failover into affected flows' timelines.
    fn on_cluster_handoff_done(&mut self, now: SimTime) {
        let Some(cluster) = self.app.cluster.as_mut() else {
            return;
        };
        let handoffs = cluster.settle(now);
        for h in handoffs {
            self.app.trace.record(
                now,
                TraceEvent::MastershipHandoff {
                    switch: h.switch.0,
                    from: h.from,
                    to: h.to,
                    released: h.released.len() as u32,
                },
            );
            let annotation = (u64::from(h.from) << 32) | u64::from(h.to);
            for (from, msg) in h.released {
                if let Some(j) = self.journey_of_msg(&msg) {
                    self.app
                        .journeys
                        .record(j, now, JourneyPoint::Handoff, h.switch.0, annotation);
                }
                if let Some(c) = self.app.cluster.as_mut() {
                    c.record_decision(h.to);
                }
                self.controller_handle(now, from, msg);
            }
        }
    }

    fn set_ofa_slowdown(&mut self, node: NodeId, factor: f64) {
        if let Some(sw) = self.physical.get_mut(node) {
            sw.set_ofa_slowdown(factor);
        } else if let Some(vs) = self.vswitches.get_mut(node) {
            vs.set_ofa_slowdown(factor);
        }
    }

    /// Send initial controller commands (e.g. policy green rules) at t=0.
    pub fn bootstrap_commands(&mut self, commands: Vec<Command>) {
        if commands.is_empty() {
            return;
        }
        // Bootstrap bypasses `dispatch_commands` (no ctrl_tx counting, no
        // fault perturbation: it models pre-loaded state, not live control
        // traffic), but the FlowMod-conservation ledger must still see its
        // Adds or the chaos invariant would not balance.
        let adds = commands.iter().filter(|c| is_flowmod_add(&c.msg)).count();
        self.chaos.flowmod_add_sent += adds as u64;
        // All of them arrive at t = 0: one burst.
        self.events.push(
            SimTime::ZERO,
            Event::CtrlToSwitch {
                burst: Box::new(commands),
            },
        );
    }

    fn control_latency(&self, node: NodeId) -> SimDuration {
        if let Some(s) = self.physical.get(node) {
            s.control_latency()
        } else if let Some(v) = self.vswitches.get(node) {
            v.control_latency()
        } else {
            SimDuration::from_millis(1)
        }
    }

    /// Run the controller on one switch message and dispatch what it
    /// emits, through the reused command buffer.
    fn controller_handle(&mut self, now: SimTime, from: NodeId, msg: SwitchToController) {
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        self.app
            .handle_switch_msg(now, &self.topo, from, msg, &mut cmds);
        self.dispatch_commands(now, &mut cmds);
        self.cmd_buf = cmds;
    }

    /// Send every command in `commands` (leaving it empty for reuse).
    ///
    /// Consecutive commands with the same delivery time (after the chaos
    /// drop and delay draws) travel as one [`Event::CtrlToSwitch`] burst.
    /// Pushed one by one they would hold adjacent `(at, seq)` queue keys,
    /// and whatever a delivered command schedules gets a later `seq`, so
    /// delivering the burst in order at `at` pops exactly as they would.
    fn dispatch_commands(&mut self, now: SimTime, commands: &mut Vec<Command>) {
        let mut open: Option<(SimTime, Burst)> = None;
        for cmd in commands.drain(..) {
            let kind = ctrl_tx_kind(&cmd.msg);
            self.ctrl_tx[kind] += 1;
            let add = is_flowmod_add(&cmd.msg);
            if self.chaos_seed.is_some() && add {
                self.chaos.flowmod_add_sent += 1;
            }
            if self.app.trace.is_enabled() {
                if let ControllerToSwitch::FlowMod {
                    table,
                    command: FlowModCommand::Add(entry),
                } = &cmd.msg
                {
                    self.app.trace.record(
                        now,
                        TraceEvent::RuleInstalled {
                            switch: cmd.to.0,
                            table: table.0 as u32,
                            priority: entry.priority as u32,
                        },
                    );
                }
            }
            let mut at = now + self.control_latency(cmd.to);
            if let Some(seed) = self.chaos_seed {
                // All controller→switch perturbations draw from the
                // controller's own stream.
                let journey = self.journey_of_cmd(&cmd.msg);
                let rng = chaos_stream(&mut self.chaos_streams, seed, u32::MAX);
                if now < self.chaos.loss_until && rng.chance(self.chaos.loss_p) {
                    self.chaos.tx_dropped[kind] += 1;
                    if add {
                        self.chaos.flowmod_add_dropped += 1;
                    }
                    self.app.trace.record(
                        now,
                        TraceEvent::CtrlMsgPerturbed {
                            kind: PERTURB_DROP_TX,
                        },
                    );
                    if let Some(j) = journey {
                        self.app.journeys.record(
                            j,
                            now,
                            JourneyPoint::Fault,
                            cmd.to.0,
                            u64::from(PERTURB_DROP_TX),
                        );
                    }
                    continue;
                }
                if now < self.chaos.reorder_until
                    && self.chaos.reorder_jitter > SimDuration::ZERO
                    && rng.chance(self.chaos.reorder_p)
                {
                    let extra = rng.range_u64(0, self.chaos.reorder_jitter.as_nanos());
                    at += SimDuration::from_nanos(extra);
                    self.chaos.delayed += 1;
                    self.app.trace.record(
                        now,
                        TraceEvent::CtrlMsgPerturbed {
                            kind: PERTURB_DELAY,
                        },
                    );
                    if let Some(j) = journey {
                        self.app.journeys.record(
                            j,
                            now,
                            JourneyPoint::Fault,
                            cmd.to.0,
                            u64::from(PERTURB_DELAY),
                        );
                    }
                }
            }
            match &mut open {
                Some((burst_at, burst)) if *burst_at == at => burst.push(cmd),
                _ => {
                    let mut burst = self.bursts.burst();
                    burst.push(cmd);
                    if let Some((burst_at, burst)) = open.replace((at, burst)) {
                        self.events.push(burst_at, Event::CtrlToSwitch { burst });
                    }
                }
            }
        }
        if let Some((burst_at, burst)) = open {
            self.events.push(burst_at, Event::CtrlToSwitch { burst });
        }
    }

    /// Record a journey mark for a first packet in flight. One compare per
    /// packet event when tracing is off (`wants` checks its enable flag
    /// first); hash + compare for `FlowStart` packets when on.
    #[inline]
    fn journey_mark(
        &mut self,
        now: SimTime,
        packet: &Packet,
        point: JourneyPoint,
        node: u32,
        info: u64,
    ) {
        if packet.kind == scotch_net::PacketKind::FlowStart
            && self.app.journeys.wants(packet.flow_id.0)
        {
            self.app
                .journeys
                .record(packet.flow_id.0, now, point, node, info);
        }
    }

    /// The traced journey a switch→controller message carries, if any.
    #[inline]
    fn journey_of_msg(&self, msg: &SwitchToController) -> Option<u64> {
        if !self.app.journeys.is_enabled() {
            return None;
        }
        match msg {
            SwitchToController::PacketIn { packet, .. }
                if packet.kind == scotch_net::PacketKind::FlowStart
                    && self.app.journeys.wants(packet.flow_id.0) =>
            {
                Some(packet.flow_id.0)
            }
            _ => None,
        }
    }

    /// The traced journey a controller→switch command affects, if any.
    /// PacketOuts carry the packet itself; FlowMod Adds resolve through
    /// the controller's cookie → key → journey maps.
    #[inline]
    fn journey_of_cmd(&self, msg: &ControllerToSwitch) -> Option<u64> {
        if !self.app.journeys.is_enabled() {
            return None;
        }
        match msg {
            ControllerToSwitch::PacketOut { packet, .. }
                if packet.kind == scotch_net::PacketKind::FlowStart
                    && self.app.journeys.wants(packet.flow_id.0) =>
            {
                Some(packet.flow_id.0)
            }
            ControllerToSwitch::FlowMod {
                command: FlowModCommand::Add(entry),
                ..
            } => self
                .app
                .cookie_key(entry.cookie)
                .and_then(|k| self.app.journey_keys.get(&k).copied()),
            _ => None,
        }
    }

    fn transmit(&mut self, now: SimTime, from: NodeId, out_port: PortId, packet: Packet) {
        match self.topo.transmit(now, from, out_port, packet.size) {
            Some((to, in_port, at)) => {
                self.events.push(
                    at,
                    Event::Arrive {
                        node: to,
                        port: in_port,
                        packet,
                    },
                );
            }
            None => {
                self.drops.link_queue += 1;
                self.journey_mark(now, &packet, JourneyPoint::Drop, from.0, DROP_LINK);
            }
        }
    }

    fn handle_outputs(&mut self, now: SimTime, node: NodeId, outputs: &mut Vec<Output>) {
        for out in outputs.drain(..) {
            match out {
                Output::Forward { out_port, packet } => {
                    self.transmit(now, node, out_port, packet);
                }
                Output::ToController { at, msg } => {
                    // The OFA stamps its own emission time `at` (service
                    // delay included); `max(now)` is the instant the
                    // message actually leaves the switch.
                    let journey = self.journey_of_msg(&msg);
                    if let Some(j) = journey {
                        let via_overlay = matches!(
                            &msg,
                            SwitchToController::PacketIn {
                                via_tunnel: Some(_),
                                ..
                            }
                        );
                        self.app.journeys.record(
                            j,
                            at.max(now),
                            JourneyPoint::OfaOut,
                            node.0,
                            u64::from(via_overlay),
                        );
                    }
                    let mut deliver = at.max(now) + self.control_latency(node);
                    let mut duplicate = false;
                    if let Some(seed) = self.chaos_seed {
                        // Switch→controller perturbations draw from the
                        // emitting node's own stream.
                        let rng = chaos_stream(&mut self.chaos_streams, seed, node.0);
                        let kind = ctrl_rx_kind(&msg);
                        if now < self.chaos.loss_until && rng.chance(self.chaos.loss_p) {
                            self.chaos.rx_dropped[kind] += 1;
                            self.app.trace.record(
                                now,
                                TraceEvent::CtrlMsgPerturbed {
                                    kind: PERTURB_DROP_RX,
                                },
                            );
                            if let Some(j) = journey {
                                self.app.journeys.record(
                                    j,
                                    now,
                                    JourneyPoint::Fault,
                                    node.0,
                                    u64::from(PERTURB_DROP_RX),
                                );
                            }
                            continue;
                        }
                        if now < self.chaos.reorder_until
                            && self.chaos.reorder_jitter > SimDuration::ZERO
                            && rng.chance(self.chaos.reorder_p)
                        {
                            let extra = rng.range_u64(0, self.chaos.reorder_jitter.as_nanos());
                            deliver += SimDuration::from_nanos(extra);
                            self.chaos.delayed += 1;
                            self.app.trace.record(
                                now,
                                TraceEvent::CtrlMsgPerturbed {
                                    kind: PERTURB_DELAY,
                                },
                            );
                            if let Some(j) = journey {
                                self.app.journeys.record(
                                    j,
                                    now,
                                    JourneyPoint::Fault,
                                    node.0,
                                    u64::from(PERTURB_DELAY),
                                );
                            }
                        }
                        if now < self.chaos.dup_until && rng.chance(self.chaos.dup_p) {
                            self.chaos.duplicated[kind] += 1;
                            self.app
                                .trace
                                .record(now, TraceEvent::CtrlMsgPerturbed { kind: PERTURB_DUP });
                            if let Some(j) = journey {
                                self.app.journeys.record(
                                    j,
                                    now,
                                    JourneyPoint::Fault,
                                    node.0,
                                    u64::from(PERTURB_DUP),
                                );
                            }
                            duplicate = true;
                        }
                    }
                    if duplicate {
                        let copy = self.from_switch_boxes.boxed(msg.clone());
                        self.events.push(
                            deliver,
                            Event::CtrlFromSwitch {
                                from: node,
                                msg: copy,
                            },
                        );
                    }
                    let msg = self.from_switch_boxes.boxed(msg);
                    self.events
                        .push(deliver, Event::CtrlFromSwitch { from: node, msg });
                }
                Output::Dropped { reason, packet } => {
                    let code = match reason {
                        DropReason::OfaOverload => {
                            self.drops.ofa_overload += 1;
                            0
                        }
                        DropReason::DataPlaneOverload => {
                            self.drops.dataplane += 1;
                            1
                        }
                        DropReason::Policy => {
                            self.drops.policy += 1;
                            2
                        }
                        DropReason::NoRoute => {
                            self.drops.no_route += 1;
                            3
                        }
                    };
                    self.journey_mark(now, &packet, JourneyPoint::Drop, node.0, code);
                }
            }
        }
    }

    fn on_arrive(&mut self, now: SimTime, node: NodeId, port: PortId, packet: Packet) {
        if let Some(cap) = self.captures.get_mut(node) {
            cap.record(now, &packet);
        }
        let kind = self.topo.kind(node);
        if kind != NodeKind::Host {
            // Journey milestone: first-packet arrival at a forwarding
            // element. info bit 0 = rode an overlay tunnel, bit 1 = the
            // node is a middlebox.
            let info =
                u64::from(packet.is_tunneled()) | if kind == NodeKind::Middlebox { 2 } else { 0 };
            self.journey_mark(now, &packet, JourneyPoint::Arrive, node.0, info);
        }
        match kind {
            NodeKind::Host => self.deliver(now, node, packet),
            NodeKind::Middlebox => {
                let Some(mb) = self.middleboxes.get_mut(node) else {
                    return;
                };
                match mb.process(packet) {
                    MbVerdict::Pass(p) => {
                        // Two-port device: exit on the other port.
                        let other = self.topo.port_iter(node).find(|p2| *p2 != port);
                        if let Some(out) = other {
                            self.transmit(now, node, out, p);
                        }
                    }
                    MbVerdict::RejectNoState(p) => {
                        // Counted via the middlebox's own counter; also in
                        // policy drops.
                        self.drops.policy += 1;
                        self.journey_mark(now, &p, JourneyPoint::Drop, node.0, 2);
                    }
                }
            }
            NodeKind::PhysicalSwitch | NodeKind::VSwitch => {
                // Tunnel transit: label-switched in the data plane, no
                // table lookup, no OFA (§4.1).
                if let Some(Label::Tunnel(t)) = packet.top_label() {
                    let endpoint = self.app.overlay.tunnels.endpoint(t);
                    if endpoint != Some(node) {
                        if let Some(next) = self.app.overlay.tunnels.next_hop(t, node) {
                            if let Some(out) = self.topo.port_towards(node, next) {
                                if self.profiler.is_some() {
                                    self.profile_kind = PROFILE_KIND_TUNNEL_TRANSIT;
                                }
                                self.transmit(now, node, out, packet);
                                return;
                            }
                        }
                        // Unknown tunnel at this node: fall through to the
                        // device (its tables may still match).
                    }
                }
                let mut buf = std::mem::take(&mut self.out_buf);
                if let Some(sw) = self.physical.get_mut(node) {
                    sw.handle_packet_into(now, port, packet, &mut buf);
                    self.handle_outputs(now, node, &mut buf);
                } else if let Some(vs) = self.vswitches.get_mut(node) {
                    let terminates = matches!(packet.top_label(), Some(Label::Tunnel(t))
                        if self.app.overlay.tunnels.endpoint(t) == Some(node));
                    vs.handle_packet_into(now, port, packet, terminates, &mut buf);
                    self.handle_outputs(now, node, &mut buf);
                }
                self.out_buf = buf;
            }
        }
    }

    fn deliver(&mut self, now: SimTime, host: NodeId, packet: Packet) {
        if self.app.journeys.is_enabled() && self.host_ip.get(host) == Some(&packet.key.dst) {
            self.journey_mark(now, &packet, JourneyPoint::Deliver, host.0, 0);
        }
        let expected = self.host_ip.get(host);
        if expected != Some(&packet.key.dst) {
            self.misrouted += 1;
            return;
        }
        if let Some(idx) = self.flow_index.get(packet.flow_id) {
            // The flowdb lookup only matters on first delivery; keeping it
            // out of the per-packet path saves a hash per event.
            let is_attack = self.flows.record_delivery(idx, now, packet.size, || {
                self.app.flowdb.get(&packet.key).map(|i| i.path)
            });
            if !is_attack {
                self.latency
                    .record(now.duration_since(packet.born_at).as_nanos() as f64);
            }
            // `tracked` is empty unless a test opted specific flows in;
            // skip the per-packet hash in that common case.
            if !self.tracked.is_empty() {
                if let Some(ts) = self.tracked.get_mut(&packet.flow_id) {
                    ts.push((now, now.duration_since(packet.born_at)));
                }
            }
        }
    }

    /// Pull the next arrival from source `source_idx`, open its ledger
    /// entry and schedule its `FlowStart`.
    fn on_source_next(&mut self, source_idx: usize) {
        let Some(FlowArrival { at, flow }) = self.feed.next(source_idx) else {
            return;
        };
        let src_host = self
            .ip_host
            .get(&flow.key.src)
            .copied()
            .unwrap_or(self.source_hosts[source_idx]);
        let flow_idx = self.flows.start(&flow, at);
        self.flow_index.insert(flow.id, flow_idx);
        self.events.push(
            at,
            Event::FlowStart {
                source_idx: source_idx as u32,
                flow_idx,
                src_host,
                spec: flow,
            },
        );
    }

    fn on_emit(&mut self, now: SimTime, flow_idx: u32, seq: u32, src_host: NodeId, spec: FlowSpec) {
        let mut packet = if seq == 0 {
            Packet::flow_start(spec.key, spec.id, now).with_size(spec.packet_size)
        } else {
            Packet::data(spec.key, spec.id, now, seq, spec.packet_size)
        };
        packet.is_attack = spec.is_attack;
        self.flows.record_emit(flow_idx as usize);
        self.journey_mark(now, &packet, JourneyPoint::Emit, src_host.0, 0);
        // Hosts have exactly one uplink; `run()` validated its existence at
        // startup, so a miss here is an internal invariant violation.
        let uplink = self
            .topo
            .port_iter(src_host)
            .next()
            .expect("scenario error: emitting host has no uplink port");
        self.transmit(now, src_host, uplink, packet);
        if seq + 1 < spec.packets {
            self.events.push(
                now + spec.packet_interval,
                Event::EmitPacket {
                    flow_idx,
                    seq: seq + 1,
                    src_host,
                    spec,
                },
            );
        }
    }

    /// Most Packet-Ins the switch agents can admit over `secs` of simulated
    /// time: the sum of their sustained Packet-In capacities (§3.2).
    pub(crate) fn packet_in_admission_bound(&self, secs: f64) -> usize {
        let physical = self.physical.values().map(|s| s.profile());
        let virt = self.vswitches.values().map(|v| v.profile());
        let rate: f64 = physical.chain(virt).map(|p| p.packet_in_capacity).sum();
        (rate * secs).ceil() as usize
    }

    /// Validate the scenario and seed the initial events.
    ///
    /// # Panics
    ///
    /// Panics if any registered host (or workload default host) has no
    /// uplink port — that is a scenario construction error, not a runtime
    /// condition, and silently misdirecting its traffic would corrupt
    /// every downstream metric.
    fn start(&mut self) {
        if self.flow_capacity_hint > 0 {
            self.app.reserve_flow_capacity(self.flow_capacity_hint);
        }
        for (host, _) in self.host_ip.iter() {
            assert!(
                self.topo.port_iter(host).next().is_some(),
                "scenario error: host {} ({:?}) has no uplink port",
                self.topo.name(host),
                host
            );
        }
        for default_host in &self.source_hosts {
            assert!(
                self.topo.port_iter(*default_host).next().is_some(),
                "scenario error: workload default host {} ({:?}) has no uplink port",
                self.topo.name(*default_host),
                default_host
            );
        }
        // Seed periodic events and sources.
        let tick = self.app.config.tick_interval;
        let poll = self.app.config.stats_poll_interval;
        let hb = self.app.config.heartbeat_period;
        self.events
            .push(SimTime::ZERO + tick, Event::ControllerTick);
        if self.app.mode == ControllerMode::Scotch {
            self.events.push(SimTime::ZERO + poll, Event::StatsPoll);
            self.events.push(SimTime::ZERO + hb, Event::Heartbeat);
        }
        self.events
            .push(SimTime::ZERO + self.sweep_interval, Event::ExpirySweep);
        for i in 0..self.source_hosts.len() {
            self.events
                .push(SimTime::ZERO, Event::SourceNext { source_idx: i });
        }
    }

    /// Run until `until`, returning the report.
    ///
    /// The workload's arrivals are drawn on a helper thread when the
    /// process has a core that no simulation thread is using, and inline
    /// otherwise; the report is the same either way (DESIGN.md §9,
    /// "Arrival prefetch").
    ///
    /// # Panics
    ///
    /// Panics if any registered host (or workload default host) has no
    /// uplink port (see `Simulation::start`), or with a workload source's
    /// panic.
    pub fn run(self, until: SimTime) -> Report {
        self.run_drawing(until, &SIM_THREADS, Draw::Auto)
    }

    /// [`run`](Self::run), counting its threads in `threads` and drawing
    /// arrivals as `draw` says.
    pub(crate) fn run_drawing(self, until: SimTime, threads: &SimThreads, draw: Draw) -> Report {
        let draw = if self.feed.is_empty() {
            Draw::Inline
        } else {
            draw
        };
        // Bound before `sim`, so released after it: after the helper is
        // joined, also when a panic unwinds the run.
        let claim = threads.claim(draw);
        let mut sim = self;
        if claim.helper() {
            sim.feed.prefetch();
        }
        sim.start();
        let mut processed = 0u64;
        let mut overflow_event: Option<Event> = None;
        while let Some((now, ev)) = sim.events.pop() {
            if now > until {
                // Keep the one popped-but-unprocessed event so the chaos
                // in-flight accounting below stays exact.
                overflow_event = Some(ev);
                break;
            }
            processed += ev.model_events();
            sim.process_event(now, ev);
        }
        // Stop the helper, if any: no arrival is read past the horizon.
        sim.feed = ArrivalFeed::new();

        if sim.chaos_seed.is_some() {
            // Tally everything still queued past the horizon so the chaos
            // conservation invariants reconcile exactly (messages in flight
            // are neither delivered nor lost — they are accounted).
            if let Some(ev) = overflow_event.take() {
                sim.chaos.tally_in_flight(&ev);
            }
            sim.tally_remaining();
        }

        sim.into_report(until, processed)
    }

    /// Drain the queue into the chaos in-flight tally (end-of-run
    /// reconciliation for fault-plan scenarios).
    fn tally_remaining(&mut self) {
        while let Some((_, ev)) = self.events.pop() {
            self.chaos.tally_in_flight(&ev);
        }
    }

    /// Process one event.
    fn process_event(&mut self, now: SimTime, ev: Event) {
        // The profiler is `None` on every measured path; the stamp is a
        // single well-predicted branch per event when disabled.
        let prof = self.profiler.as_ref().map(|_| std::time::Instant::now());
        if prof.is_some() {
            self.profile_kind = ev.kind();
        }
        match ev {
            Event::Arrive { node, port, packet } => self.on_arrive(now, node, port, packet),
            Event::EmitPacket {
                flow_idx,
                seq,
                src_host,
                spec,
            } => self.on_emit(now, flow_idx, seq, src_host, spec),
            Event::SourceNext { source_idx } => self.on_source_next(source_idx),
            Event::FlowStart {
                source_idx,
                flow_idx,
                src_host,
                spec,
            } => {
                self.on_emit(now, flow_idx, 0, src_host, spec);
                self.on_source_next(source_idx as usize);
            }
            Event::CtrlFromSwitch { from, msg } => {
                if now < self.chaos.stall_until {
                    // Controller outage: defer the message (order among
                    // deferred messages is preserved by insertion seq).
                    self.chaos.deferred += 1;
                    self.events
                        .push(self.chaos.stall_until, Event::CtrlFromSwitch { from, msg });
                    return;
                }
                let rx_kind = ctrl_rx_kind(&msg);
                self.ctrl_rx[rx_kind] += 1;
                if rx_kind == 0 && self.profiler.is_some() {
                    self.profile_kind = PROFILE_KIND_PACKET_IN;
                }
                let journey = self.journey_of_msg(&msg);
                if let Some(j) = journey {
                    // With a cluster, `info` attributes the receiving
                    // master replica as `replica + 1` (0 = single
                    // controller, or mastership in flux).
                    let info = self
                        .app
                        .cluster
                        .as_ref()
                        .map_or(0, |c| match c.master_view(from) {
                            MasterView::Master(m) => u64::from(m) + 1,
                            MasterView::Park => 0,
                        });
                    self.app
                        .journeys
                        .record(j, now, JourneyPoint::CtrlRx, from.0, info);
                }
                // Mastership in flux (crash mid-handoff, or every replica
                // dead): park the message; the completing handoff releases
                // it to the new master in arrival order (I5).
                if let Some(cluster) = self.app.cluster.as_mut() {
                    if cluster.master_view(from) == MasterView::Park {
                        let msg = self.from_switch_boxes.unboxed(msg, VACANT_FROM_SWITCH);
                        cluster.park(from, from, msg);
                        return;
                    }
                }
                match &mut self.controller_gate {
                    Some((server, service)) => match server.offer(now, *service) {
                        scotch_sim::rate::Admission::Accepted { departs_at } => {
                            self.events
                                .push(departs_at, Event::CtrlProcessed { from, msg });
                        }
                        scotch_sim::rate::Admission::Rejected => {
                            self.controller_dropped += 1;
                            if let Some(j) = journey {
                                self.app.journeys.record(
                                    j,
                                    now,
                                    JourneyPoint::Drop,
                                    from.0,
                                    DROP_CTRL_REJECT,
                                );
                            }
                        }
                    },
                    None => {
                        if let Some(cluster) = self.app.cluster.as_mut() {
                            if let MasterView::Master(m) = cluster.master_view(from) {
                                cluster.record_decision(m);
                            }
                        }
                        let msg = self.from_switch_boxes.unboxed(msg, VACANT_FROM_SWITCH);
                        self.controller_handle(now, from, msg);
                    }
                }
            }
            Event::CtrlProcessed { from, msg } => {
                if now < self.chaos.stall_until {
                    self.chaos.deferred += 1;
                    self.events
                        .push(self.chaos.stall_until, Event::CtrlProcessed { from, msg });
                    return;
                }
                if let Some(j) = self.journey_of_msg(&msg) {
                    self.app
                        .journeys
                        .record(j, now, JourneyPoint::CtrlDeq, from.0, 0);
                }
                // Mastership may have moved while the message sat in the
                // capacity gate; re-check before processing.
                if let Some(cluster) = self.app.cluster.as_mut() {
                    match cluster.master_view(from) {
                        MasterView::Park => {
                            let msg = self.from_switch_boxes.unboxed(msg, VACANT_FROM_SWITCH);
                            cluster.park(from, from, msg);
                            return;
                        }
                        MasterView::Master(m) => cluster.record_decision(m),
                    }
                }
                let msg = self.from_switch_boxes.unboxed(msg, VACANT_FROM_SWITCH);
                self.controller_handle(now, from, msg);
            }
            Event::CtrlToSwitch { burst } => {
                // Each command is its own profile sample (see
                // `deliver_burst`), so the per-event sample below is skipped.
                self.deliver_burst(now, burst, prof);
                return;
            }
            Event::ControllerTick => {
                // During a controller stall the periodic work is skipped
                // but the timer keeps re-arming, so the cadence resumes
                // as soon as the stall window ends.
                if now >= self.chaos.stall_until {
                    let mut cmds = std::mem::take(&mut self.cmd_buf);
                    self.app.tick(now, &self.topo, &mut cmds);
                    self.dispatch_commands(now, &mut cmds);
                    self.cmd_buf = cmds;
                }
                self.events
                    .push(now + self.app.config.tick_interval, Event::ControllerTick);
            }
            Event::StatsPoll => {
                if now >= self.chaos.stall_until {
                    let mut cmds = self.app.poll_stats();
                    self.dispatch_commands(now, &mut cmds);
                }
                self.events
                    .push(now + self.app.config.stats_poll_interval, Event::StatsPoll);
            }
            Event::Heartbeat => {
                if now >= self.chaos.stall_until {
                    let mut cmds = self.app.heartbeat(now);
                    self.dispatch_commands(now, &mut cmds);
                }
                self.events
                    .push(now + self.app.config.heartbeat_period, Event::Heartbeat);
            }
            Event::ExpirySweep => {
                // Ascending-id walks (no key collection): dense stores
                // make the sweep order deterministic by construction.
                for i in 0..self.physical.id_bound() {
                    let n = NodeId(i);
                    if let Some(sw) = self.physical.get_mut(n) {
                        let mut outs = sw.expire_flows(now);
                        self.handle_outputs(now, n, &mut outs);
                    }
                }
                for i in 0..self.vswitches.id_bound() {
                    let n = NodeId(i);
                    if let Some(vs) = self.vswitches.get_mut(n) {
                        let mut outs = vs.expire_flows(now);
                        self.handle_outputs(now, n, &mut outs);
                    }
                }
                // Once-per-sweep (1 Hz sim-time) gauge sampling: cheap,
                // deterministic, and off the per-packet path entirely.
                self.registry
                    .sample("controller.flowdb.size", now, self.app.flowdb.len() as f64);
                self.registry
                    .sample("controller.backlog", now, self.app.total_backlog() as f64);
                self.registry
                    .sample("sim.event_queue.len", now, self.events.len() as f64);
                self.registry.sample(
                    "overlay.mesh_live",
                    now,
                    self.app.overlay.alive.iter().filter(|a| **a).count() as f64,
                );
                self.registry.sample(
                    "overlay.standby_remaining",
                    now,
                    self.app.overlay.backups.len() as f64,
                );
                self.registry
                    .sample("monitor.cache_size", now, self.app.telemetry.len() as f64);
                self.events
                    .push(now + self.sweep_interval, Event::ExpirySweep);
            }
            Event::FailVSwitch { node } => {
                if let Some(vs) = self.vswitches.get_mut(node) {
                    vs.failed = true;
                }
            }
            Event::JoinVSwitch { node } => {
                let mut cmds = self.app.join_vswitch(now, &self.topo, node);
                self.dispatch_commands(now, &mut cmds);
            }
            Event::RecoverVSwitch { node } => {
                if let Some(vs) = self.vswitches.get_mut(node) {
                    vs.failed = false;
                }
                self.app.recover_vswitch(now, node);
                if self.chaos_seed.is_some() {
                    // Restart half of a VSwitchCrash fault.
                    self.app.trace.record(
                        now,
                        TraceEvent::FaultCleared {
                            kind: 0,
                            target: node.0,
                        },
                    );
                }
            }
            Event::InjectFault { idx } => self.on_inject_fault(now, idx),
            Event::SetLinkUp {
                link,
                up,
                kind,
                finale,
            } => {
                self.topo.set_link_up(link, up);
                if finale {
                    self.app.trace.record(
                        now,
                        TraceEvent::FaultCleared {
                            kind: u32::from(kind),
                            target: link.0,
                        },
                    );
                }
            }
            Event::ClearLinkDegrade { link } => {
                self.topo.set_link_extra_delay(link, SimDuration::ZERO);
                self.app.trace.record(
                    now,
                    TraceEvent::FaultCleared {
                        kind: 3,
                        target: link.0,
                    },
                );
            }
            Event::ClearOfaSlowdown { node } => {
                self.set_ofa_slowdown(node, 1.0);
                self.app.trace.record(
                    now,
                    TraceEvent::FaultCleared {
                        kind: 7,
                        target: node.0,
                    },
                );
            }
            Event::ClearControllerStall => {
                // Stall windows can extend; only the final marker (at or
                // past the latest `stall_until`) traces the clear.
                if now >= self.chaos.stall_until {
                    self.app.trace.record(
                        now,
                        TraceEvent::FaultCleared {
                            kind: 8,
                            target: u32::MAX,
                        },
                    );
                }
            }
            Event::ClusterHandoffDone => self.on_cluster_handoff_done(now),
            Event::RecoverReplica { replica } => {
                let Some(cluster) = self.app.cluster.as_mut() else {
                    return;
                };
                if let Some(at) = cluster.recover(now, replica) {
                    self.events.push(at, Event::ClusterHandoffDone);
                }
                self.app
                    .trace
                    .record(now, TraceEvent::ReplicaRecovered { replica });
                self.app.trace.record(
                    now,
                    TraceEvent::FaultCleared {
                        kind: 9,
                        target: replica,
                    },
                );
            }
            Event::ClearCtrlPartition => {
                // Partition windows can extend; only the final marker (at
                // or past the latest heal instant) traces the clear.
                let healed = self
                    .app
                    .cluster
                    .as_ref()
                    .is_some_and(|c| !c.is_partitioned(now));
                if healed {
                    self.app.trace.record(now, TraceEvent::ClusterHealed {});
                    self.app.trace.record(
                        now,
                        TraceEvent::FaultCleared {
                            kind: 10,
                            target: u32::MAX,
                        },
                    );
                }
            }
        }
        if let Some(t0) = prof {
            let kind = self.profile_kind;
            if let Some(p) = self.profiler.as_mut() {
                p.record(kind, t0.elapsed().as_nanos() as f64);
            }
        }
    }

    /// Deliver a controller→switch burst in dispatch order, then recycle
    /// its box. With the profiler on, `stamp` is the instant the burst's
    /// dispatch began; each command is timed as if it had arrived alone
    /// (its own start and end stamps, the recording outside them) and
    /// booked under its own `ctrl_flowmod` or `ctrl_to_switch` row.
    fn deliver_burst(
        &mut self,
        now: SimTime,
        mut burst: Burst,
        mut stamp: Option<std::time::Instant>,
    ) {
        for Command { to, msg } in burst.drain(..) {
            let t0 = stamp
                .take()
                .or_else(|| self.profiler.as_ref().map(|_| std::time::Instant::now()));
            let row = if ctrl_tx_kind(&msg) == 0 {
                PROFILE_KIND_FLOWMOD
            } else {
                PROFILE_KIND_CTRL_TO_SWITCH
            };
            self.deliver_command(now, to, msg);
            if let (Some(t0), Some(p)) = (t0, self.profiler.as_mut()) {
                p.record(row, t0.elapsed().as_nanos() as f64);
            }
        }
        self.bursts.recycle(burst);
    }

    /// One controller→switch command arrives at switch `to`.
    fn deliver_command(&mut self, now: SimTime, to: NodeId, msg: ControllerToSwitch) {
        if self.chaos_seed.is_some() {
            // A failed vSwitch absorbs the command (its own ctrl_absorbed
            // counter also ticks); so does a node with no attached device.
            // Tallied so the FlowMod conservation ledger balances exactly.
            let dead_vs = self.vswitches.get(to).map(|v| v.failed).unwrap_or(false);
            let no_device = self.physical.get(to).is_none() && self.vswitches.get(to).is_none();
            if dead_vs || no_device {
                self.chaos.absorbed[ctrl_tx_kind(&msg)] += 1;
                if is_flowmod_add(&msg) {
                    self.chaos.flowmod_add_absorbed += 1;
                }
            }
        }
        let mut buf = std::mem::take(&mut self.out_buf);
        if let Some(sw) = self.physical.get_mut(to) {
            sw.handle_controller_msg(now, msg, &mut buf);
        } else if let Some(vs) = self.vswitches.get_mut(to) {
            vs.handle_controller_msg(now, msg, &mut buf);
        }
        self.handle_outputs(now, to, &mut buf);
        self.out_buf = buf;
    }

    fn into_report(mut self, until: SimTime, events_processed: u64) -> Report {
        let mut drops = self.drops;
        drops.link_queue += self.topo.total_link_drops();
        drops.link_faults = self.topo.total_link_faults();
        let switches: Vec<SwitchReport> = self
            .physical
            .iter()
            .map(|(n, s)| SwitchReport {
                node: n,
                name: self.topo.name(n).to_string(),
                ofa: s.ofa_stats(),
                dataplane: s.stats(),
            })
            .collect();
        let vswitches: Vec<VSwitchReport> = self
            .vswitches
            .iter()
            .map(|(n, v)| VSwitchReport {
                node: n,
                name: self.topo.name(n).to_string(),
                ofa: v.ofa_stats(),
                dataplane: v.stats(),
            })
            .collect();

        let middlebox_rejections = self.middleboxes.values().map(|m| m.rejected()).sum();

        // Populate the unified registry from the per-component stats
        // structs. They stay the hot-path increment sites; the registry is
        // the one external, name-sorted surface over all of them.
        let mut reg = std::mem::take(&mut self.registry);
        self.app.stats().register_metrics("app", &mut reg);
        for s in &switches {
            s.ofa
                .register_metrics(&format!("switch.{}.ofa", s.name), &mut reg);
            s.dataplane
                .register_metrics(&format!("switch.{}.dataplane", s.name), &mut reg);
        }
        for v in &vswitches {
            v.ofa
                .register_metrics(&format!("vswitch.{}.ofa", v.name), &mut reg);
            v.dataplane
                .register_metrics(&format!("vswitch.{}.dataplane", v.name), &mut reg);
        }
        reg.add("drops.ofa_overload", drops.ofa_overload);
        reg.add("drops.dataplane", drops.dataplane);
        reg.add("drops.policy", drops.policy);
        reg.add("drops.no_route", drops.no_route);
        reg.add("drops.link_queue", drops.link_queue);
        reg.add("drops.link_faults", drops.link_faults);
        reg.add("controller.dropped", self.controller_dropped);
        reg.add("middlebox.rejections", middlebox_rejections);
        reg.add("sim.misrouted", self.misrouted);
        reg.add("sim.events_processed", events_processed);
        // High-water pending count of the event queue: the operating point
        // the heap queue is sized for.
        reg.add("sim.event_queue.peak", self.events.peak_len() as u64);
        for (i, &n) in self.ctrl_tx.iter().enumerate() {
            reg.add(&format!("controller.tx.{}", CTRL_TX_KIND_NAMES[i]), n);
        }
        for (i, &n) in self.ctrl_rx.iter().enumerate() {
            reg.add(&format!("controller.rx.{}", CTRL_RX_KIND_NAMES[i]), n);
        }
        for (node, total) in self.app.monitor.totals() {
            reg.add(
                &format!("controller.packet_in.{}", self.topo.name(node)),
                total,
            );
        }
        // Monitor (telemetry pipeline) surface: message/record load on the
        // controller side, plus the estimation-error oracle the sampled
        // vSwitch export paths accumulate against ground truth.
        reg.add("monitor.stats_msgs", self.app.telemetry.stats_msgs);
        reg.add("monitor.sampled_records", self.app.telemetry.records);
        let (err_sum, err_n) = vswitches.iter().fold((0u64, 0u64), |(s, n), v| {
            (
                s + v.dataplane.est_error_ppm,
                n + v.dataplane.sampled_exported,
            )
        });
        reg.sample(
            "monitor.est_error",
            until,
            if err_n > 0 {
                err_sum as f64 / err_n as f64
            } else {
                0.0
            },
        );
        let lat = reg.histogram("flow.latency_ns");
        *reg.histogram_mut(lat) = self.latency.clone();
        reg.add("trace.recorded", self.app.trace.total_recorded());
        reg.add("trace.dropped", self.app.trace.dropped());
        // Causal journey stream (DESIGN.md §14): close every open journey
        // at the horizon, then fold the per-stage latency decomposition
        // into the registry. Like trace/metrics, the mark stream itself is
        // report output excluded from `canonical_json()`.
        let mut journeys = std::mem::replace(&mut self.app.journeys, JourneyRecorder::disabled());
        if journeys.is_enabled() {
            journeys.close_open(until);
            reg.add("journey.marks", journeys.total_recorded());
            reg.add("journey.marks_dropped", journeys.dropped());
            let d = LatencyDecomposition::from_marks(journeys.marks());
            reg.add("journey.count", d.journeys);
            reg.add("journey.delivered", d.delivered);
            reg.add("journey.dropped", d.dropped);
            reg.add("journey.cancelled", d.cancelled);
            let id = reg.histogram("journey.setup_ns");
            *reg.histogram_mut(id) = d.setup.clone();
            for (stage, h) in &d.stages {
                if h.count() > 0 {
                    let id = reg.histogram(&format!("journey.stage.{}_ns", stage.name()));
                    *reg.histogram_mut(id) = h.clone();
                }
            }
        }
        if self.chaos_seed.is_some() {
            // Chaos ledger: only exported when a fault plan was attached, so
            // fault-free golden runs keep their exact metric surface.
            let c = &self.chaos;
            for (i, &n) in c.injected.iter().enumerate() {
                reg.add(&format!("chaos.injected.{}", FAULT_KIND_NAMES[i]), n);
            }
            reg.add("chaos.skipped", c.skipped);
            for (i, name) in CTRL_RX_KIND_NAMES.iter().enumerate() {
                reg.add(&format!("chaos.rx_dropped.{name}"), c.rx_dropped[i]);
                reg.add(&format!("chaos.duplicated.{name}"), c.duplicated[i]);
                reg.add(&format!("chaos.in_flight_rx.{name}"), c.in_flight_rx[i]);
            }
            for (i, name) in CTRL_TX_KIND_NAMES.iter().enumerate() {
                reg.add(&format!("chaos.tx_dropped.{name}"), c.tx_dropped[i]);
                reg.add(&format!("chaos.absorbed.{name}"), c.absorbed[i]);
                reg.add(&format!("chaos.in_flight_tx.{name}"), c.in_flight_tx[i]);
            }
            reg.add("chaos.delayed", c.delayed);
            reg.add("chaos.deferred", c.deferred);
            reg.add("chaos.flowmod_add.sent", c.flowmod_add_sent);
            reg.add("chaos.flowmod_add.dropped", c.flowmod_add_dropped);
            reg.add("chaos.flowmod_add.absorbed", c.flowmod_add_absorbed);
            reg.add("chaos.flowmod_add.in_flight", c.in_flight_flowmod_add);
            reg.add("chaos.in_flight.packets", c.in_flight_packets);
        }
        if let Some(cluster) = &self.app.cluster {
            // Cluster ledger: only exported when a cluster is configured, so
            // single-controller golden runs keep their exact metric surface.
            let s = cluster.stats();
            reg.add("ctrl.cluster.replicas", u64::from(cluster.replicas()));
            reg.add("ctrl.cluster.live", u64::from(cluster.live_replicas()));
            for (i, &n) in cluster.decisions().iter().enumerate() {
                reg.add(&format!("ctrl.cluster.decisions.replica{i}"), n);
            }
            reg.add("ctrl.cluster.handoffs", s.handoffs);
            reg.add("ctrl.cluster.handoff_exceeded", s.handoff_exceeded);
            reg.add("ctrl.cluster.pending_enq", s.pending_enq);
            reg.add("ctrl.cluster.pending_rel", s.pending_rel);
            reg.add("ctrl.cluster.pending", cluster.pending_now());
            reg.add("ctrl.cluster.crashes", s.crashes);
            reg.add("ctrl.cluster.recoveries", s.recoveries);
            reg.add("ctrl.cluster.partitions", s.partitions);
            let id = reg.histogram("ctrl.cluster.handoff_ns");
            *reg.histogram_mut(id) = cluster.handoff_histogram().clone();
        }
        let metrics = reg.snapshot();

        let profile = self
            .profiler
            .as_ref()
            .map(|p| p.entries())
            .unwrap_or_default();
        let trace = std::mem::replace(&mut self.app.trace, TraceRecorder::disabled());

        Report {
            duration: until.duration_since(SimTime::ZERO),
            flows: self.flows,
            app: self.app.stats(),
            switches,
            vswitches,
            drops,
            latency: self.latency,
            middlebox_rejections,
            misrouted: self.misrouted,
            controller_dropped: self.controller_dropped,
            events_processed,
            tracked: self.tracked,
            captures: self.captures.into_iter().collect(),
            metrics,
            trace,
            journeys: journeys.take_marks(),
            profile,
        }
    }
}

#[cfg(test)]
mod prefetch_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn event_stays_72_bytes() {
        // The queue's payload slab holds one `Event` per pending event;
        // `EmitPacket` and `FlowStart` carry a whole `FlowSpec` and must not
        // outgrow `Arrive`.
        assert!(std::mem::size_of::<Event>() <= 72);
    }

    #[test]
    fn flow_rule_types_stay_compact() {
        use scotch_openflow::{FlowEntry, FlowRule, Match};
        use std::mem::size_of;
        // Every installed rule is one table row, and every FlowMod copies
        // its rule through the command buffer, a message box and the row.
        // A row keeps only per-rule fields; its actions, goto and timeouts
        // are interned per table, and a slab slot costs no more than a row.
        assert!(size_of::<Match>() <= 24);
        assert!(size_of::<FlowRule>() <= 88);
        assert!(size_of::<FlowEntry>() <= 72);
        assert!(size_of::<Option<FlowEntry>>() <= 72);
        assert!(size_of::<ControllerToSwitch>() <= 96);
    }

    #[test]
    fn overlay_flood_tables_intern_few_rule_shapes() {
        // The overlay flood installs ~94k per-flow rules, nearly all at
        // vSwitches, yet they share a handful of shapes: one action list
        // per output port or tunnel, one set of timeouts. The measured
        // maximum is 9 (the physical switch's table 0); every vSwitch
        // table holds one.
        use scotch_openflow::TableId;
        let horizon = SimTime::from_secs(5);
        let mut sim = Scenario::overlay_datacenter(4)
            .with_clients(100.0)
            .with_attack(8_000.0)
            .build_until(20141202, horizon);
        sim.start();
        while let Some((now, ev)) = sim.events.pop() {
            if now > horizon {
                break;
            }
            sim.process_event(now, ev);
        }
        let vswitch_tables = sim.vswitches.values().map(|v| v.table());
        let pipelines = sim.physical.values().map(|p| p.pipeline());
        let physical_tables =
            pipelines.flat_map(|p| (0..p.table_count()).map(|t| p.table(TableId(t as u8))));
        let tables: Vec<_> = vswitch_tables.chain(physical_tables).collect();
        let rules: usize = tables.iter().map(|t| t.len()).sum();
        assert!(rules > 80_000, "only {rules} rules installed");
        let most = tables.iter().map(|t| t.shape_count()).max().unwrap();
        assert!(most <= 16, "a table interned {most} rule shapes");
    }

    #[test]
    fn flow_index_spills_ids_beyond_the_dense_range() {
        use scotch_net::FlowId;
        let mut index = FlowIndex::default();
        let ids = [
            FlowId(0),
            FlowId(5),
            FlowId(1 << 32),
            FlowId(u64::MAX),
            FlowId((2 << 48) | 1),
        ];
        for (i, &id) in ids.iter().enumerate() {
            index.insert(id, i as u32);
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(index.get(id), Some(i), "{id:?}");
        }
        assert_eq!(index.get(FlowId(1)), None);
        assert_eq!(index.get(FlowId((1 << 32) + 1)), None);
        assert_eq!(index.get(FlowId(u64::MAX - 1)), None);
        // Only the two far ids spilled; the dense `Vec`s stayed small.
        assert_eq!(index.spill.len(), 2);
        assert!(index.streams.iter().map(Vec::len).sum::<usize>() <= 8);

        // A spilled id that the dense range grows over later: the newest
        // insert wins, as it does for a dense id inserted twice.
        let late = FlowId(70_000);
        index.insert(late, 10);
        assert_eq!(index.get(late), Some(10));
        for seq in 6..=70_000 {
            index.insert(FlowId(seq), 20);
        }
        assert_eq!(index.get(late), Some(20));
    }

    /// The controller-stream reorder draws `dispatch_commands` makes for
    /// `n` commands with the loss window closed: `Some(extra ns)` for each
    /// delayed command.
    fn reorder_draws(seed: u64, p: f64, jitter: SimDuration, n: usize) -> Vec<Option<u64>> {
        let mut streams = FxHashMap::default();
        let rng = chaos_stream(&mut streams, seed, u32::MAX);
        (0..n)
            .map(|_| rng.chance(p).then(|| rng.range_u64(0, jitter.as_nanos())))
            .collect()
    }

    #[test]
    fn dispatch_bursts_break_where_the_delivery_time_changes() {
        let mut sim = Scenario::overlay_datacenter(2).build(7);
        while sim.events.pop().is_some() {}
        let phys = sim.physical.keys().next().unwrap();
        let vs: Vec<NodeId> = sim.vswitches.keys().take(2).collect();
        let (v1, v2) = (vs[0], vs[1]);
        assert_ne!(sim.control_latency(phys), sim.control_latency(v1));
        assert_eq!(sim.control_latency(v1), sim.control_latency(v2));

        // Command 2 alone draws a reorder delay, between equal-time ones.
        let dests = [v1, v2, v2, v2, v2, phys, phys, v1];
        let (p, jitter) = (0.5, SimDuration::from_millis(1));
        let delayed = |d: &[Option<u64>]| {
            d.iter()
                .enumerate()
                .all(|(i, x)| (i == 2) == x.is_some_and(|e| e > 0))
        };
        let seed = (0..10_000u64)
            .find(|&s| delayed(&reorder_draws(s, p, jitter, dests.len())))
            .expect("a seed that delays only command 2");
        let draws = reorder_draws(seed, p, jitter, dests.len());
        let now = SimTime::from_millis(10);
        let at: Vec<SimTime> = dests
            .iter()
            .zip(&draws)
            .map(|(&d, x)| now + sim.control_latency(d) + SimDuration::from_nanos(x.unwrap_or(0)))
            .collect();
        // Runs of consecutive equal delivery times: {0,1} {2} {3,4} {5,6} {7}.
        let runs = 1 + at.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(runs, 5);

        sim.chaos_seed = Some(seed);
        sim.chaos.reorder_p = p;
        sim.chaos.reorder_jitter = jitter;
        sim.chaos.reorder_until = now + SimDuration::from_nanos(1);
        let mut cmds: Vec<Command> = dests
            .iter()
            .enumerate()
            .map(|(i, &to)| Command::new(to, ControllerToSwitch::EchoRequest { nonce: i as u64 }))
            .collect();
        sim.dispatch_commands(now, &mut cmds);
        assert!(cmds.is_empty());
        assert_eq!(sim.chaos.delayed, 1);
        assert_eq!(sim.events.len(), runs, "one queue event per run");
        // The replies travel without perturbation.
        sim.chaos.reorder_until = SimTime::ZERO;

        // Deliver everything; each echo reply marks its command's delivery.
        let (mut bursts, mut processed) = (0, 0);
        let mut replies: Vec<(SimTime, NodeId, u64)> = Vec::new();
        while let Some((t, ev)) = sim.events.pop() {
            match ev {
                Event::CtrlToSwitch { .. } => {
                    bursts += 1;
                    processed += ev.model_events();
                    sim.process_event(t, ev);
                }
                Event::CtrlFromSwitch { from, msg } => match *msg {
                    SwitchToController::EchoReply { nonce } => replies.push((t, from, nonce)),
                    _ => panic!("unexpected reply"),
                },
                _ => panic!("unexpected event"),
            }
        }
        assert_eq!(bursts, runs);
        assert_eq!(
            processed,
            dests.len() as u64,
            "events_processed counts commands"
        );

        // Each command delivered once, at its own switch and time: the reply
        // lag behind the command's delivery time is one constant per switch.
        let mut nonces: Vec<u64> = replies.iter().map(|r| r.2).collect();
        nonces.sort_unstable();
        assert_eq!(nonces, (0..dests.len() as u64).collect::<Vec<_>>());
        for &(t, from, nonce) in &replies {
            let i = nonce as usize;
            assert_eq!(from, dests[i]);
            let lag = t.duration_since(at[i]);
            for &(t2, _, n2) in replies.iter().filter(|r| r.1 == from) {
                assert_eq!(
                    t2.duration_since(at[n2 as usize]),
                    lag,
                    "command {i} vs {n2}"
                );
            }
        }
        // Commands delivered at one instant reply in dispatch order.
        for w in replies.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].2 < w[1].2, "replies {:?}", replies);
            }
        }
        assert!(replies.windows(2).filter(|w| w[0].0 == w[1].0).count() >= 4);
    }

    #[test]
    fn profiled_bursts_book_each_command_under_its_own_row() {
        let until = SimTime::from_secs(1);
        let mut sim = Scenario::overlay_datacenter(4)
            .with_attack(2000.0)
            .build_until(11, until);
        sim.enable_profiling();
        sim.start();
        let (mut bursts, mut flowmods, mut others) = (0u64, 0u64, 0u64);
        while let Some((now, ev)) = sim.events.pop() {
            if now > until {
                break;
            }
            if let Event::CtrlToSwitch { burst } = &ev {
                bursts += 1;
                for cmd in burst.iter() {
                    match cmd.msg {
                        ControllerToSwitch::FlowMod { .. } => flowmods += 1,
                        _ => others += 1,
                    }
                }
            }
            sim.process_event(now, ev);
        }
        assert!(flowmods > 1000 && others > 100, "{flowmods} / {others}");
        assert!(bursts < flowmods + others, "no burst held two commands");
        let rows = sim.profiler.as_ref().unwrap().entries();
        let count = |name| rows.iter().find(|r| r.name == name).map_or(0, |r| r.count);
        assert_eq!(count("ctrl_flowmod"), flowmods);
        assert_eq!(count("ctrl_to_switch"), others);
    }
}
