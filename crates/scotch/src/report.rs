//! Simulation results.

use crate::app::AppStats;
use scotch_controller::flowdb::FlowPath;
use scotch_net::{FlowId, FlowKey, NodeId};
use scotch_sim::journey::{JourneyMark, JourneyView, LatencyDecomposition};
use scotch_sim::metrics::Histogram;
use scotch_sim::trace::TraceRecorder;
use scotch_sim::{MetricsSnapshot, ProfileEntry, SimDuration, SimTime};
use scotch_switch::ofa::OfaStats;
use scotch_switch::physical::SwitchStats;
use scotch_switch::vswitch::VSwitchStats;

/// Outcome of one flow: a read-only view of one [`FlowLedger`] entry,
/// assembled by value from the flow's record and, if it delivered
/// anything, its delivery counters (DESIGN.md §9, "Flow ledger").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowOutcome {
    /// The flow's accounting id.
    pub id: FlowId,
    /// The 5-tuple.
    pub key: FlowKey,
    /// Attack traffic?
    pub is_attack: bool,
    /// Packets the source emitted.
    pub emitted: u32,
    /// Packets the flow was supposed to carry.
    pub intended: u32,
    /// Packets that reached the destination host.
    pub delivered: u32,
    /// Bytes that reached the destination host.
    pub delivered_bytes: u64,
    /// First packet emission time.
    pub started_at: SimTime,
    /// First delivery; meaningful only when `delivered > 0` (read it
    /// through [`FlowOutcome::first_delivered`]).
    pub(crate) first_delivered: SimTime,
    /// Last delivery; meaningful only when `delivered > 0` (read it
    /// through [`FlowOutcome::last_delivered`]).
    pub(crate) last_delivered: SimTime,
    /// Which network served the flow at first delivery (None when the
    /// flow was relayed by the controller before any rule existed).
    pub served_by: Option<FlowPath>,
}

impl FlowOutcome {
    /// First delivery, if any.
    pub fn first_delivered(&self) -> Option<SimTime> {
        (self.delivered > 0).then_some(self.first_delivered)
    }

    /// Last delivery, if any.
    pub fn last_delivered(&self) -> Option<SimTime> {
        (self.delivered > 0).then_some(self.last_delivered)
    }

    /// The paper's Fig. 3 success criterion: the flow "passed through the
    /// switch and reached the server".
    pub fn succeeded(&self) -> bool {
        self.delivered > 0
    }

    /// All packets arrived.
    pub fn completed(&self) -> bool {
        self.delivered >= self.intended
    }

    /// Time from first emission to last delivery (flow completion time),
    /// if the flow completed.
    pub fn completion_time(&self) -> Option<SimDuration> {
        if self.completed() {
            self.last_delivered()
                .map(|t| t.duration_since(self.started_at))
        } else {
            None
        }
    }

    /// Setup latency: first emission to first delivery.
    pub fn setup_latency(&self) -> Option<SimDuration> {
        self.first_delivered()
            .map(|t| t.duration_since(self.started_at))
    }
}

/// The flow ledger: one entry per generated flow, in generation order
/// (DESIGN.md §9, "Flow ledger").
///
/// Under a spoofed flood every packet is a new flow and almost none of
/// them deliver, so an entry is stored in two parts: a 48-byte
/// `FlowRecord` for every flow, and a 32-byte `FlowDelivery` appended
/// only when the flow delivers its first packet. Reading the ledger
/// assembles each entry into a [`FlowOutcome`] by value.
#[derive(Debug, Clone, Default)]
pub struct FlowLedger {
    records: Vec<FlowRecord>,
    deliveries: Vec<FlowDelivery>,
}

/// What the ledger stores for every flow.
#[derive(Debug, Clone)]
struct FlowRecord {
    id: FlowId,
    key: FlowKey,
    is_attack: bool,
    intended: u32,
    emitted: u32,
    started_at: SimTime,
    /// One more than the index of the flow's [`FlowDelivery`]; 0 while
    /// the flow has delivered nothing.
    delivery: u32,
}

/// What the ledger stores for a flow that delivered at least one packet.
#[derive(Debug, Clone)]
struct FlowDelivery {
    delivered: u32,
    delivered_bytes: u64,
    first: SimTime,
    last: SimTime,
    served_by: Option<FlowPath>,
}

impl FlowDelivery {
    /// The counters of a flow that delivered nothing.
    const NONE: FlowDelivery = FlowDelivery {
        delivered: 0,
        delivered_bytes: 0,
        first: SimTime::ZERO,
        last: SimTime::ZERO,
        served_by: None,
    };
}

impl FlowLedger {
    /// Flows generated.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// No flow was generated.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The outcome of the `i`-th generated flow.
    pub fn get(&self, i: usize) -> Option<FlowOutcome> {
        self.records.get(i).map(|r| self.outcome(r))
    }

    /// Every flow's outcome, in generation order.
    pub fn iter(&self) -> FlowIter<'_> {
        FlowIter {
            ledger: self,
            records: self.records.iter(),
        }
    }

    fn outcome(&self, r: &FlowRecord) -> FlowOutcome {
        let d = match r.delivery {
            0 => &FlowDelivery::NONE,
            slot => &self.deliveries[slot as usize - 1],
        };
        FlowOutcome {
            id: r.id,
            key: r.key,
            is_attack: r.is_attack,
            emitted: r.emitted,
            intended: r.intended,
            delivered: d.delivered,
            delivered_bytes: d.delivered_bytes,
            started_at: r.started_at,
            first_delivered: d.first,
            last_delivered: d.last,
            served_by: d.served_by,
        }
    }

    /// Open the entry of `spec`, first emitted at `at`; returns its index.
    pub(crate) fn start(&mut self, spec: &scotch_workload::FlowSpec, at: SimTime) -> u32 {
        let idx = u32::try_from(self.records.len()).expect("flow ledger index fits u32");
        self.records.push(FlowRecord {
            id: spec.id,
            key: spec.key,
            is_attack: spec.is_attack,
            intended: spec.packets,
            emitted: 0,
            started_at: at,
            delivery: 0,
        });
        idx
    }

    /// Account one packet emitted by flow `idx`.
    pub(crate) fn record_emit(&mut self, idx: usize) {
        self.records[idx].emitted += 1;
    }

    /// Account one packet of `bytes` that flow `idx` delivered at `now`.
    /// On the flow's first delivery `served_by` is asked which network
    /// served it. Returns whether the flow is attack traffic.
    pub(crate) fn record_delivery(
        &mut self,
        idx: usize,
        now: SimTime,
        bytes: u32,
        served_by: impl FnOnce() -> Option<FlowPath>,
    ) -> bool {
        let r = &mut self.records[idx];
        match r.delivery {
            0 => {
                self.deliveries.push(FlowDelivery {
                    delivered: 1,
                    delivered_bytes: u64::from(bytes),
                    first: now,
                    last: now,
                    served_by: served_by(),
                });
                r.delivery = u32::try_from(self.deliveries.len()).expect("delivery index fits u32");
            }
            slot => {
                let d = &mut self.deliveries[slot as usize - 1];
                d.delivered += 1;
                d.delivered_bytes += u64::from(bytes);
                d.last = now;
            }
        }
        r.is_attack
    }
}

/// Iterator over a [`FlowLedger`]'s outcomes, in generation order.
pub struct FlowIter<'a> {
    ledger: &'a FlowLedger,
    records: std::slice::Iter<'a, FlowRecord>,
}

impl Iterator for FlowIter<'_> {
    type Item = FlowOutcome;

    fn next(&mut self) -> Option<FlowOutcome> {
        self.records.next().map(|r| self.ledger.outcome(r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for FlowIter<'_> {}

impl<'a> IntoIterator for &'a FlowLedger {
    type Item = FlowOutcome;
    type IntoIter = FlowIter<'a>;

    fn into_iter(self) -> FlowIter<'a> {
        self.iter()
    }
}

/// Per-physical-switch counters.
#[derive(Debug, Clone)]
pub struct SwitchReport {
    /// The switch's node.
    pub node: NodeId,
    /// Its name in the topology.
    pub name: String,
    /// OFA counters.
    pub ofa: OfaStats,
    /// Data-plane counters.
    pub dataplane: SwitchStats,
}

/// Per-vSwitch counters.
#[derive(Debug, Clone)]
pub struct VSwitchReport {
    /// The vSwitch's node.
    pub node: NodeId,
    /// Its name in the topology.
    pub name: String,
    /// Agent counters.
    pub ofa: OfaStats,
    /// Data-plane counters.
    pub dataplane: VSwitchStats,
}

/// Aggregate drop counters across the fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Table-miss packets lost to OFA overload.
    pub ofa_overload: u64,
    /// Packets lost to the Fig. 10 interaction collapse or vSwitch pps
    /// bounds.
    pub dataplane: u64,
    /// Policy drops.
    pub policy: u64,
    /// No-route drops (dead group buckets etc.).
    pub no_route: u64,
    /// Link queue drops.
    pub link_queue: u64,
    /// Packets lost to injected link faults.
    pub link_faults: u64,
}

/// Everything a simulation run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Per-flow outcomes, in generation order: the simulation's flow
    /// ledger, moved here without conversion. Iterating it (or calling
    /// [`FlowLedger::get`]) yields each flow's [`FlowOutcome`] by value.
    pub flows: FlowLedger,
    /// Controller-application counters.
    pub app: AppStats,
    /// Per-physical-switch counters.
    pub switches: Vec<SwitchReport>,
    /// Per-vSwitch counters.
    pub vswitches: Vec<VSwitchReport>,
    /// Drop counters.
    pub drops: DropCounts,
    /// End-to-end delivery latency of legitimate packets (ns).
    pub latency: Histogram,
    /// Packets rejected by stateful middleboxes for missing state.
    pub middlebox_rejections: u64,
    /// Packets that arrived at a host that is not their destination.
    pub misrouted: u64,
    /// Messages dropped at the controller's processing capacity gate
    /// (always 0 with the default unbounded controller).
    pub controller_dropped: u64,
    /// Model events processed (engine diagnostic). Counts what the model
    /// did, not queue pops: a `FlowStart` pop — a flow's packet-0 emission
    /// fused with its source's next arrival draw — counts 2, every other
    /// pop 1. The number therefore does not depend on how the engine
    /// batches work into queue events.
    pub events_processed: u64,
    /// Delivery `(time, end-to-end latency)` samples of explicitly
    /// tracked flows (see [`crate::Simulation::track_flow`]).
    pub tracked: scotch_sim::FxHashMap<scotch_net::FlowId, Vec<(SimTime, SimDuration)>>,
    /// libpcap captures of tapped nodes (see
    /// [`crate::Simulation::capture_at`]).
    pub captures: scotch_sim::FxHashMap<NodeId, crate::pcap::PcapCapture>,
    /// Name-sorted snapshot of the unified metrics registry. NOT part of
    /// [`Report::canonical_json`] — golden fixtures pin the canonical
    /// report, the registry is the wider observability surface around it.
    pub metrics: MetricsSnapshot,
    /// The flight-recorder trace ring (empty when tracing was disabled).
    /// Timestamps are sim-time, so the trace is bit-reproducible per
    /// `(scenario, seed)`. Also excluded from the canonical report.
    pub trace: TraceRecorder,
    /// Canonical causal journey-mark stream (DESIGN.md §14), empty unless
    /// journey tracing was enabled. Sorted `(journey, time, point, node,
    /// info)`; bit-reproducible per `(scenario, seed, rate)`. Excluded from
    /// the canonical report like `trace`/`metrics`.
    pub journeys: Vec<JourneyMark>,
    /// Per-event-type wall-clock dispatch profile, non-empty only when
    /// [`crate::Simulation::enable_profiling`] was called. Wall-clock ⇒
    /// machine-dependent ⇒ never in the canonical report.
    pub profile: Vec<ProfileEntry>,
}

impl Report {
    fn flows_where(&self, attack: bool) -> impl Iterator<Item = FlowOutcome> + '_ {
        self.flows.iter().filter(move |f| f.is_attack == attack)
    }

    /// Legitimate flows generated.
    pub fn client_flows(&self) -> usize {
        self.flows_where(false).count()
    }

    /// Attack flows generated.
    pub fn attack_flows(&self) -> usize {
        self.flows_where(true).count()
    }

    /// Fig. 3's metric: fraction of legitimate flows that failed to reach
    /// their destination.
    pub fn client_failure_fraction(&self) -> f64 {
        let total = self.client_flows();
        if total == 0 {
            return 0.0;
        }
        let failed = self.flows_where(false).filter(|f| !f.succeeded()).count();
        failed as f64 / total as f64
    }

    /// [`Report::client_failure_fraction`] restricted to flows that
    /// started in `[from, to)` — used to separate steady-state behaviour
    /// from the activation transient and the end-of-run cutoff.
    pub fn client_failure_fraction_between(&self, from: SimTime, to: SimTime) -> f64 {
        let window: Vec<_> = self
            .flows_where(false)
            .filter(|f| f.started_at >= from && f.started_at < to)
            .collect();
        if window.is_empty() {
            return 0.0;
        }
        let failed = window.iter().filter(|f| !f.succeeded()).count();
        failed as f64 / window.len() as f64
    }

    /// Mean flow completion time of completed legitimate flows, seconds.
    pub fn mean_client_fct(&self) -> Option<f64> {
        let fcts: Vec<f64> = self
            .flows_where(false)
            .filter_map(|f| f.completion_time())
            .map(|d| d.as_secs_f64())
            .collect();
        if fcts.is_empty() {
            None
        } else {
            Some(fcts.iter().sum::<f64>() / fcts.len() as f64)
        }
    }

    /// Mean setup latency of successful legitimate flows, seconds.
    pub fn mean_client_setup_latency(&self) -> Option<f64> {
        let ls: Vec<f64> = self
            .flows_where(false)
            .filter_map(|f| f.setup_latency())
            .map(|d| d.as_secs_f64())
            .collect();
        if ls.is_empty() {
            None
        } else {
            Some(ls.iter().sum::<f64>() / ls.len() as f64)
        }
    }

    /// Render the full report as canonical JSON: a fixed field order, map
    /// entries sorted by key, and shortest-roundtrip float formatting, so
    /// two byte-identical strings mean two identical reports. This is the
    /// format the golden-report regression tests diff; any engine change
    /// that alters event ordering shows up here as a byte difference.
    pub fn canonical_json(&self) -> String {
        use scotch_runner::json::write_str;
        use scotch_runner::Json;

        fn time(t: SimTime) -> Json {
            Json::Num(t.as_nanos() as f64)
        }
        fn ofa_json(o: &OfaStats) -> Json {
            Json::obj()
                .set("packet_in_sent", o.packet_in_sent)
                .set("packet_in_dropped", o.packet_in_dropped)
                .set("rules_attempted", o.rules_attempted)
                .set("rules_inserted", o.rules_inserted)
                .set("rules_failed", o.rules_failed)
        }

        let switches: Vec<Json> = self
            .switches
            .iter()
            .map(|s| {
                Json::obj()
                    .set("node", s.node.0 as u64)
                    .set("name", s.name.clone())
                    .set("ofa", ofa_json(&s.ofa))
                    .set(
                        "dataplane",
                        Json::obj()
                            .set("forwarded", s.dataplane.forwarded)
                            .set("dropped_interaction", s.dataplane.dropped_interaction)
                            .set("dropped_ofa", s.dataplane.dropped_ofa)
                            .set("dropped_other", s.dataplane.dropped_other),
                    )
            })
            .collect();

        let vswitches: Vec<Json> = self
            .vswitches
            .iter()
            .map(|v| {
                Json::obj()
                    .set("node", v.node.0 as u64)
                    .set("name", v.name.clone())
                    .set("ofa", ofa_json(&v.ofa))
                    .set(
                        "dataplane",
                        Json::obj()
                            .set("forwarded", v.dataplane.forwarded)
                            .set("dropped_dataplane", v.dataplane.dropped_dataplane)
                            .set("dropped_agent", v.dataplane.dropped_agent)
                            .set("decapsulated", v.dataplane.decapsulated),
                    )
            })
            .collect();

        let latency = Json::obj()
            .set("count", self.latency.count())
            .set("zero_count", self.latency.zero_count())
            .set("sum", self.latency.sum())
            .set("min", self.latency.min())
            .set("max", self.latency.max())
            .set(
                "buckets",
                Json::Arr(
                    self.latency
                        .nonzero_buckets()
                        .into_iter()
                        .map(|(d, s, n)| {
                            Json::Arr(vec![
                                Json::Num(d as f64),
                                Json::Num(s as f64),
                                Json::Num(n as f64),
                            ])
                        })
                        .collect(),
                ),
            );

        let mut tracked_ids: Vec<_> = self.tracked.keys().copied().collect();
        tracked_ids.sort();
        let tracked: Vec<Json> = tracked_ids
            .iter()
            .map(|id| {
                let samples = &self.tracked[id];
                Json::obj().set("flow", id.0).set(
                    "samples",
                    Json::Arr(
                        samples
                            .iter()
                            .map(|&(t, d)| Json::Arr(vec![time(t), Json::Num(d.as_nanos() as f64)]))
                            .collect(),
                    ),
                )
            })
            .collect();

        let mut capture_nodes: Vec<_> = self.captures.keys().copied().collect();
        capture_nodes.sort();
        let captures: Vec<Json> = capture_nodes
            .iter()
            .map(|n| {
                let cap = &self.captures[n];
                // FNV-1a over the raw pcap bytes pins the capture content
                // without inflating the report with a hex dump.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &b in cap.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                Json::obj()
                    .set("node", n.0 as u64)
                    .set("records", cap.records())
                    .set("bytes", cap.bytes().len())
                    .set("fnv1a", format!("{h:016x}"))
            })
            .collect();

        let head = Json::obj()
            .set("duration_ns", self.duration.as_nanos())
            .set("events_processed", self.events_processed)
            .set(
                "app",
                Json::obj()
                    .set("packet_ins", self.app.packet_ins)
                    .set("duplicate_packet_ins", self.app.duplicate_packet_ins)
                    .set("physical_admitted", self.app.physical_admitted)
                    .set("overlay_admitted", self.app.overlay_admitted)
                    .set("dropped", self.app.dropped)
                    .set("unroutable", self.app.unroutable)
                    .set("activations", self.app.activations)
                    .set("withdrawals", self.app.withdrawals)
                    .set("migrations", self.app.migrations)
                    .set("migrations_deferred", self.app.migrations_deferred)
                    .set("failovers", self.app.failovers)
                    .set("rule_failures", self.app.rule_failures)
                    .set("overlay_undeliverable", self.app.overlay_undeliverable),
            )
            .set(
                "drops",
                Json::obj()
                    .set("ofa_overload", self.drops.ofa_overload)
                    .set("dataplane", self.drops.dataplane)
                    .set("policy", self.drops.policy)
                    .set("no_route", self.drops.no_route)
                    .set("link_queue", self.drops.link_queue)
                    .set("link_faults", self.drops.link_faults),
            )
            .set("middlebox_rejections", self.middlebox_rejections)
            .set("misrouted", self.misrouted)
            .set("controller_dropped", self.controller_dropped)
            .set("latency", latency)
            .set("switches", Json::Arr(switches))
            .set("vswitches", Json::Arr(vswitches));
        let tail = Json::obj()
            .set("tracked", Json::Arr(tracked))
            .set("captures", Json::Arr(captures));

        // The document is `head`, then `flows`, then `tail`, rendered as
        // one object exactly like `Json::pretty`. The flows array (one
        // object per generated flow, the bulk of the text) is written
        // straight into the output instead of through a `Json` tree.
        let mut out = String::with_capacity(64 * 1024 + 512 * self.flows.len());
        out.push('{');
        let key = |out: &mut String, name: &str| {
            // Only the opening brace precedes the first field.
            if out.len() > 1 {
                out.push(',');
            }
            out.push_str("\n  ");
            write_str(out, name);
            out.push_str(": ");
        };
        let fields = |out: &mut String, doc: &Json| {
            let Json::Obj(fields) = doc else {
                unreachable!("head and tail are objects");
            };
            for (name, value) in fields {
                key(out, name);
                value.write_pretty(out, 1);
            }
        };
        fields(&mut out, &head);
        key(&mut out, "flows");
        write_flows(&mut out, &self.flows);
        fields(&mut out, &tail);
        out.push_str("\n}\n");
        out
    }

    /// Render the recorded trace as JSONL: one compact object per record
    /// with `seq`, `t_ns`, `cat`, `kind`, then the event's own fields.
    /// Deterministic per `(scenario, seed)`: sim-time timestamps only.
    pub fn trace_jsonl(&self) -> String {
        use scotch_runner::Json;
        let mut out = String::new();
        for rec in self.trace.records() {
            let mut line = Json::obj()
                .set("seq", rec.seq)
                .set("t_ns", rec.at.as_nanos())
                .set("cat", rec.event.category().name())
                .set("kind", rec.event.kind_name());
            for (name, value) in rec.event.fields() {
                line = line.set(name, value);
            }
            out.push_str(&line.compact());
            out.push('\n');
        }
        out
    }

    /// Per-journey timeline views reconstructed from the canonical mark
    /// stream (empty unless journey tracing was enabled).
    pub fn journey_views(&self) -> Vec<JourneyView> {
        JourneyView::split(&self.journeys)
    }

    /// Per-stage latency decomposition over the recorded journeys.
    pub fn journey_decomposition(&self) -> LatencyDecomposition {
        LatencyDecomposition::from_marks(&self.journeys)
    }

    /// Render the journey-mark stream as JSONL: one compact object per
    /// mark with `journey`, `t_ns`, `point`, `node`, `info`.
    pub fn journeys_jsonl(&self) -> String {
        use scotch_runner::Json;
        let mut out = String::new();
        for m in &self.journeys {
            let line = Json::obj()
                .set("journey", m.journey)
                .set("t_ns", m.at.as_nanos())
                .set("point", m.point.name())
                .set("node", u64::from(m.node))
                .set("info", m.info);
            out.push_str(&line.compact());
            out.push('\n');
        }
        out
    }

    /// The metrics snapshot as a flat JSON object, sorted by name (the
    /// form embedded in sweep manifests and `results/` artifacts).
    pub fn metrics_json(&self) -> String {
        use scotch_runner::Json;
        let mut doc = Json::obj();
        for (name, value) in &self.metrics.entries {
            doc = doc.set(name, *value);
        }
        doc.pretty()
    }

    /// A one-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} flows ({} legit / {} attack) over {}: client failure {:.1}%, \
             physical admissions {}, overlay admissions {}, migrations {}, \
             activations {}, withdrawals {}, drops(ofa/data/link) {}/{}/{}",
            self.flows.len(),
            self.client_flows(),
            self.attack_flows(),
            self.duration,
            self.client_failure_fraction() * 100.0,
            self.app.physical_admitted,
            self.app.overlay_admitted,
            self.app.migrations,
            self.app.activations,
            self.app.withdrawals,
            self.drops.ofa_overload,
            self.drops.dataplane,
            self.drops.link_queue,
        )
    }
}

/// Append the canonical `flows` array, as `Json::pretty` renders it one
/// level deep, without building a per-flow `Json` tree. IP addresses,
/// protocol and path names contain nothing JSON escapes, so they are
/// written between quotes as they format.
fn write_flows(out: &mut String, flows: impl IntoIterator<Item = FlowOutcome>) {
    use scotch_runner::json::write_num;
    use std::fmt::Write as _;

    fn opt_time(out: &mut String, t: Option<SimTime>) {
        match t {
            Some(t) => write_num(out, t.as_nanos() as f64),
            None => out.push_str("null"),
        }
    }

    out.push('[');
    let mut empty = true;
    for f in flows {
        if !empty {
            out.push(',');
        }
        empty = false;
        out.push_str("\n    {\n      \"id\": ");
        write_num(out, f.id.0 as f64);
        let _ = write!(
            out,
            ",\n      \"key\": {{\n        \"src\": \"{}\",\n        \"dst\": \"{}\",\n        \"proto\": \"{:?}\",\n        \"sport\": ",
            f.key.src, f.key.dst, f.key.proto
        );
        write_num(out, f64::from(f.key.sport));
        out.push_str(",\n        \"dport\": ");
        write_num(out, f64::from(f.key.dport));
        out.push_str("\n      },\n      \"is_attack\": ");
        out.push_str(if f.is_attack { "true" } else { "false" });
        out.push_str(",\n      \"emitted\": ");
        write_num(out, f64::from(f.emitted));
        out.push_str(",\n      \"intended\": ");
        write_num(out, f64::from(f.intended));
        out.push_str(",\n      \"delivered\": ");
        write_num(out, f64::from(f.delivered));
        out.push_str(",\n      \"delivered_bytes\": ");
        write_num(out, f.delivered_bytes as f64);
        out.push_str(",\n      \"started_at\": ");
        write_num(out, f.started_at.as_nanos() as f64);
        out.push_str(",\n      \"first_delivered\": ");
        opt_time(out, f.first_delivered());
        out.push_str(",\n      \"last_delivered\": ");
        opt_time(out, f.last_delivered());
        out.push_str(",\n      \"served_by\": ");
        match f.served_by {
            Some(p) => {
                let _ = write!(out, "\"{p:?}\"");
            }
            None => out.push_str("null"),
        }
        out.push_str("\n    }");
    }
    out.push_str(if empty { "]" } else { "\n  ]" });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scotch_net::IpAddr;
    use scotch_workload::FlowSpec;

    fn spec(packets: u32) -> FlowSpec {
        FlowSpec {
            id: FlowId(7),
            key: FlowKey::tcp(IpAddr(1), 1000, IpAddr(2), 80),
            packets,
            packet_size: 100,
            packet_interval: SimDuration::from_millis(1),
            is_attack: false,
        }
    }

    /// The oracle ledger entry: one flat 72-byte outcome per flow,
    /// updated in place.
    fn oracle_start(spec: &FlowSpec, at: SimTime) -> FlowOutcome {
        FlowOutcome {
            id: spec.id,
            key: spec.key,
            is_attack: spec.is_attack,
            emitted: 0,
            intended: spec.packets,
            delivered: 0,
            delivered_bytes: 0,
            started_at: at,
            first_delivered: SimTime::ZERO,
            last_delivered: SimTime::ZERO,
            served_by: None,
        }
    }

    /// The oracle's delivery: `served_by` is recorded at the first one.
    fn oracle_deliver(f: &mut FlowOutcome, now: SimTime, bytes: u32, served_by: Option<FlowPath>) {
        if f.delivered == 0 {
            f.first_delivered = now;
            f.served_by = served_by;
        }
        f.delivered += 1;
        f.delivered_bytes += u64::from(bytes);
        f.last_delivered = now;
    }

    fn rendered(flows: impl IntoIterator<Item = FlowOutcome>) -> String {
        let mut out = String::new();
        write_flows(&mut out, flows);
        out
    }

    /// The direct `flows` writer renders exactly what a `Json` tree of the
    /// same flows renders one level deep (the form golden reports pin).
    #[test]
    fn write_flows_matches_the_json_tree_rendering() {
        use scotch_runner::Json;

        fn tree(flows: &[FlowOutcome]) -> String {
            let time = |t: Option<SimTime>| t.map_or(Json::Null, |t| Json::Num(t.0 as f64));
            let items = flows
                .iter()
                .map(|f| {
                    let key = Json::obj()
                        .set("src", f.key.src.to_string())
                        .set("dst", f.key.dst.to_string())
                        .set("proto", format!("{:?}", f.key.proto))
                        .set("sport", u64::from(f.key.sport))
                        .set("dport", u64::from(f.key.dport));
                    Json::obj()
                        .set("id", f.id.0)
                        .set("key", key)
                        .set("is_attack", f.is_attack)
                        .set("emitted", u64::from(f.emitted))
                        .set("intended", u64::from(f.intended))
                        .set("delivered", u64::from(f.delivered))
                        .set("delivered_bytes", f.delivered_bytes)
                        .set("started_at", time(Some(f.started_at)))
                        .set("first_delivered", time(f.first_delivered()))
                        .set("last_delivered", time(f.last_delivered()))
                        .set(
                            "served_by",
                            f.served_by.map_or(Json::Null, |p| format!("{p:?}").into()),
                        )
                })
                .collect();
            let mut out = String::new();
            Json::Arr(items).write_pretty(&mut out, 1);
            out
        }

        // Flows that never deliver, deliver after a controller relay (no
        // path), and deliver over each network.
        let flows = [
            (false, None),
            (true, None),
            (true, Some(FlowPath::Physical)),
            (true, Some(FlowPath::Overlay)),
        ];
        for n in [0, 1, flows.len()] {
            let mut ledger = FlowLedger::default();
            for (i, &(delivers, served_by)) in flows[..n].iter().enumerate() {
                let mut s = spec(2);
                s.is_attack = i == 1;
                let idx = ledger.start(&s, SimTime::from_nanos(10_000 + i as u64)) as usize;
                ledger.record_emit(idx);
                ledger.record_emit(idx);
                if delivers {
                    ledger.record_delivery(idx, SimTime::from_nanos(40_000), 100, || served_by);
                    ledger.record_delivery(
                        idx,
                        SimTime::from_nanos(70_000 + i as u64),
                        100,
                        || unreachable!("asked only on the first delivery"),
                    );
                }
            }
            let views: Vec<FlowOutcome> = ledger.iter().collect();
            assert_eq!(views.len(), n);
            assert_eq!(rendered(&ledger), tree(&views), "{n} flows");
        }
    }

    #[test]
    fn flow_outcome_stays_72_bytes() {
        assert!(std::mem::size_of::<FlowOutcome>() <= 72);
    }

    /// Every generated flow costs a record; only delivering flows add
    /// delivery counters.
    #[test]
    fn ledger_storage_stays_compact() {
        assert!(std::mem::size_of::<FlowRecord>() <= 48);
        assert!(std::mem::size_of::<FlowDelivery>() <= 32);
    }

    #[test]
    fn delivery_times_are_none_iff_nothing_was_delivered() {
        let start = SimTime::from_millis(5);
        let mut ledger = FlowLedger::default();
        let idx = ledger.start(&spec(3), start) as usize;
        let f = ledger.get(idx).unwrap();
        assert_eq!(f.delivered, 0);
        assert_eq!((f.first_delivered(), f.last_delivered()), (None, None));
        assert_eq!(f.setup_latency(), None);
        assert_eq!(f.completion_time(), None);
        assert_eq!(f.served_by, None);

        let t1 = SimTime::from_millis(6);
        assert!(!ledger.record_delivery(idx, t1, 100, || Some(FlowPath::Overlay)));
        let f = ledger.get(idx).unwrap();
        assert_eq!(
            (f.first_delivered(), f.last_delivered()),
            (Some(t1), Some(t1))
        );
        assert_eq!(f.served_by, Some(FlowPath::Overlay));

        let t2 = SimTime::from_millis(8);
        let later = || unreachable!("served_by is asked only on the first delivery");
        assert!(!ledger.record_delivery(idx, t2, 100, later));
        assert!(!ledger.record_delivery(idx, t2, 100, later));
        let f = ledger.get(idx).unwrap();
        assert_eq!(f.delivered, 3);
        assert_eq!(f.delivered_bytes, 300);
        assert_eq!(
            (f.first_delivered(), f.last_delivered()),
            (Some(t1), Some(t2))
        );
        assert_eq!(f.setup_latency(), Some(SimDuration::from_millis(1)));
        assert_eq!(f.completion_time(), Some(SimDuration::from_millis(3)));
        assert_eq!(f.served_by, Some(FlowPath::Overlay));
        assert_eq!(ledger.get(idx + 1), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Random start / emit / deliver sequences, each delivery offering
        /// a random `served_by`, leave the two-part ledger reading exactly
        /// like flat 72-byte outcomes updated the same way: equal views
        /// and byte-identical `flows` JSON after every step.
        #[test]
        fn prop_ledger_equals_flat_oracle(
            ops in proptest::collection::vec(
                (0u8..4, 0usize..16, 0u64..1_000_000_000, 0u32..3000, 0usize..3, 0u8..2),
                1..120,
            ),
        ) {
            let paths = [None, Some(FlowPath::Physical), Some(FlowPath::Overlay)];
            let mut ledger = FlowLedger::default();
            let mut oracle: Vec<FlowOutcome> = Vec::new();
            for (step, &(op, pick, t, n, path, attack)) in ops.iter().enumerate() {
                let at = SimTime::from_nanos(t);
                if op == 0 || oracle.is_empty() {
                    let s = FlowSpec {
                        id: FlowId(((step as u64) << 40) | t),
                        key: FlowKey::tcp(IpAddr(t as u32), n as u16, IpAddr(step as u32), 80),
                        packets: n,
                        packet_size: 100,
                        packet_interval: SimDuration::from_millis(1),
                        is_attack: attack == 1,
                    };
                    let idx = ledger.start(&s, at) as usize;
                    prop_assert_eq!(idx, oracle.len());
                    oracle.push(oracle_start(&s, at));
                } else if op == 1 {
                    let i = pick % oracle.len();
                    ledger.record_emit(i);
                    oracle[i].emitted += 1;
                } else {
                    let i = pick % oracle.len();
                    let mut asked = false;
                    let is_attack = ledger.record_delivery(i, at, n, || {
                        asked = true;
                        paths[path]
                    });
                    prop_assert_eq!(asked, oracle[i].delivered == 0, "step {}", step);
                    prop_assert_eq!(is_attack, oracle[i].is_attack);
                    oracle_deliver(&mut oracle[i], at, n, paths[path]);
                }
                prop_assert_eq!(ledger.len(), oracle.len());
                prop_assert_eq!(ledger.iter().len(), oracle.len());
                let views: Vec<FlowOutcome> = ledger.iter().collect();
                prop_assert_eq!(&views, &oracle, "step {}", step);
                for (i, o) in oracle.iter().enumerate() {
                    prop_assert_eq!(ledger.get(i), Some(*o));
                }
                prop_assert_eq!(ledger.get(oracle.len()), None);
                prop_assert_eq!(rendered(&ledger), rendered(oracle.iter().copied()));
            }
        }
    }
}
