//! Conservative sharded execution of a [`Simulation`].
//!
//! The topology is partitioned by region (rack) into per-shard *lanes* —
//! each lane owns a slice of the device maps, its own event
//! queue, and the workload sources whose hosts live there. Lanes advance in
//! lockstep epochs whose length is bounded by the partition *lookahead*:
//! the minimum over (a) the propagation delay of every link crossing the
//! cut and (b) the control latency of every attached device. No event
//! generated inside an epoch can be due at another shard before the epoch
//! ends, so each lane runs its epoch with no locks and no peeking.
//!
//! ## Bit-determinism across shard counts
//!
//! The non-negotiable invariant: `(scenario, seed)` produces the identical
//! canonical report for every shard count, including the sequential run.
//! Three mechanisms carry it:
//!
//! 1. **Canonical inter-shard ordering.** Every cross-lane event (and every
//!    control-plane event, even shard-local ones) is captured in an outbox
//!    instead of being pushed directly. At each barrier the driver
//!    concatenates all outboxes, stable-sorts on
//!    `(deliver, gen, class, origin)` — a key that never mentions the shard
//!    — and pushes entries into the destination queues in that order, so
//!    the event queue's insertion-order tie-break is reproduced exactly.
//! 2. **Per-origin chaos streams.** Probabilistic fault draws come from
//!    per-origin RNG streams forked from one seed (see
//!    [`Simulation::apply_fault_plan`]), so a node's draw sequence does not
//!    depend on which shard it runs on.
//! 3. **Centralized accounting.** Flow delivery, the latency histogram, and
//!    the flow-creation order are global, order-sensitive state; lanes
//!    defer them (delivery buffers, `(source, seq)` labels, the hub's
//!    flowdb journal) and the driver replays them in global time order.
//!
//! Scenarios that cannot shard deterministically — no regions, random link
//! loss (the topology clone would fork the loss RNG), or a fault-plan entry
//! at t=0 racing the seed events — transparently fall back to the
//! sequential run.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::report::{FlowOutcome, Report};
use crate::sim::{Event, OutboxEntry, ShardCtx, Simulation};
use scotch_controller::flowdb::FlowPath;
use scotch_net::{FlowId, FlowKey, IpAddr, NodeId, NodeMap, Packet, Partition};
use scotch_sim::fault::{FaultEvent, FaultKind};
use scotch_sim::metrics::Histogram;
use scotch_sim::trace::{TraceEvent, TraceRecorder};
use scotch_sim::{EpochProfiler, FxHashMap, SimDuration, SimTime};

impl Simulation {
    /// Run until `until` on up to `shards` conservative shards, using up to
    /// `threads` worker threads (`0` means one per shard), returning the
    /// same canonical report as [`Simulation::run`] byte-for-byte.
    ///
    /// Falls back to the sequential run when the scenario cannot shard
    /// (no regions, effective shard count 1, random link loss, or a
    /// fault-plan entry at t=0).
    ///
    /// # Panics
    ///
    /// Panics if an inter-shard link's propagation is below
    /// [`scotch_net::partition::MIN_LOOKAHEAD`] — a scenario construction
    /// error (see [`Partition::validate_lookahead`]).
    pub fn run_sharded(self, until: SimTime, shards: usize, threads: usize) -> Report {
        run(self, until, shards, threads)
    }
}

/// Delivery accounting accumulated by the driver per flow, joined onto the
/// merged flow records at the end of the run.
#[derive(Default)]
struct DeliveryStub {
    delivered: u32,
    delivered_bytes: u64,
    first: SimTime,
    last: SimTime,
    served_by: Option<FlowPath>,
}

/// The driver's own schedule of *central* events — scripted faults, plan
/// injections, and their follow-ups. These mutate cross-lane state (the
/// hub's controller app, device flags on owning lanes, broadcast fault
/// windows), so the driver applies them at barriers instead of letting any
/// single lane race ahead with them. Ties at one instant apply in insertion
/// order, mirroring the sequential event queue.
#[derive(Default)]
struct Timeline {
    entries: Vec<(SimTime, u64, Event)>,
    next_seq: u64,
}

impl Timeline {
    fn push(&mut self, at: SimTime, ev: Event) {
        self.entries.push((at, self.next_seq, ev));
        self.next_seq += 1;
    }

    fn peek(&self) -> Option<SimTime> {
        self.entries.iter().map(|e| e.0).min()
    }

    /// Remove and return the lowest-seq entry due exactly at `t`.
    fn pop_at(&mut self, t: SimTime) -> Option<Event> {
        let mut best: Option<(usize, u64)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.0 == t && best.is_none_or(|(_, s)| e.1 < s) {
                best = Some((i, e.1));
            }
        }
        best.map(|(i, _)| self.entries.swap_remove(i).2)
    }
}

struct Driver {
    part: Arc<Partition>,
    lookahead: SimDuration,
    until: SimTime,
    node_count: usize,
    fault_plan: Vec<FaultEvent>,
    timeline: Timeline,
    /// Authoritative host → address map for misroute checks.
    host_ip: NodeMap<IpAddr>,
    /// Global end-to-end latency histogram (f64 sums are order-sensitive,
    /// so deliveries feed it in global time order).
    latency: Histogram,
    tracked: FxHashMap<FlowId, Vec<(SimTime, SimDuration)>>,
    misrouted: u64,
    ledger: FxHashMap<FlowId, DeliveryStub>,
    /// Chronological flowdb state per key, drained from the hub lane's
    /// journal — replays `served_by` resolution without a live flowdb.
    journal: FxHashMap<FlowKey, Vec<(SimTime, Option<FlowPath>)>>,
    overlay_version: u64,
    /// No lane has any event earlier than this; flushed outbox entries are
    /// asserted against it (a violation means the lookahead bound was
    /// unsound).
    watermark: SimTime,
    /// Central events applied (they count toward `events_processed` exactly
    /// like their sequential pops).
    centrals: u64,
    /// Epochs granted so far (each `Some(end)` from [`Driver::barrier`]).
    epochs: u64,
    /// Sim-time width of each granted epoch, ns. Deterministic per
    /// `(scenario, seed, shard count)` — folded into the metrics registry.
    epoch_width: Histogram,
    /// Inter-shard message matrix, `src * shards + dst`, counting outbox
    /// entries generated on one shard and delivered to another (diagonal
    /// entries — shard-local canonical re-enqueues — are not counted).
    xmsgs: Vec<u64>,
    /// Total lane pops at the last closed epoch (for per-epoch deltas).
    last_pops: u64,
    /// Wall-clock per-lane busy/stall profile, present only under
    /// `--profile-shards`. Never touches simulation state.
    profiler: Option<EpochProfiler>,
}

impl Driver {
    /// The barrier: exchange everything, then either apply due central
    /// events (and re-barrier) or name the next epoch bound. `None` ends
    /// the run.
    fn barrier(&mut self, lanes: &mut [Simulation]) -> Option<SimTime> {
        if self.epochs > 0 {
            self.close_epoch(lanes);
        }
        loop {
            self.flush_outboxes(lanes);
            self.drain_journal(lanes);
            self.apply_deliveries(lanes);
            self.refresh_overlay(lanes);

            let lane_min = lanes.iter().filter_map(|l| l.events.peek_time()).min();
            let central = self.timeline.peek();
            let t = match (lane_min, central) {
                (None, None) => return None,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            if t > self.until {
                return None;
            }
            if central == Some(t) && lane_min.is_none_or(|lm| t <= lm) {
                // Central events due now and no lane event earlier: apply
                // them all (insertion order), then re-barrier — they may
                // have scheduled more work or emitted control traffic.
                self.watermark = t;
                while let Some(ev) = self.timeline.pop_at(t) {
                    self.apply_central(lanes, t, ev);
                    self.centrals += 1;
                }
                continue;
            }
            let lm = lane_min.expect("epoch start requires a lane event");
            let mut end = lm + self.lookahead;
            if let Some(c) = central {
                end = end.min(c);
            }
            end = end.min(self.until + SimDuration::from_nanos(1));
            self.watermark = end;
            let width = end.duration_since(lm);
            self.epoch_width.record(width.as_nanos() as f64);
            lanes[0].app.trace.record(
                lm,
                TraceEvent::EpochOpened {
                    epoch: self.epochs as u32,
                    width: width.as_nanos(),
                },
            );
            self.epochs += 1;
            return Some(end);
        }
    }

    /// Book-keeping for the epoch that ended at the current watermark:
    /// a per-epoch event-count trace record, and (under `--profile-shards`)
    /// one wall-clock busy sample per lane.
    fn close_epoch(&mut self, lanes: &mut [Simulation]) {
        let pops: u64 = lanes
            .iter()
            .map(|l| l.shard.as_ref().expect("lane has shard ctx").pops)
            .sum();
        let delta = pops - self.last_pops;
        self.last_pops = pops;
        lanes[0].app.trace.record(
            self.watermark,
            TraceEvent::EpochClosed {
                epoch: (self.epochs - 1) as u32,
                events: delta,
            },
        );
        if let Some(p) = self.profiler.as_mut() {
            let busy: Vec<f64> = lanes
                .iter_mut()
                .map(|l| {
                    let ctx = l.shard.as_mut().expect("lane has shard ctx");
                    std::mem::replace(&mut ctx.epoch_busy_ns, 0.0)
                })
                .collect();
            p.record_epoch(&busy);
        }
    }

    /// Concatenate all lanes' outboxes, order canonically, and push into
    /// the destination queues. The sort key omits the shard, and a stable
    /// sort preserves each origin's generation order, so the resulting
    /// insertion order is identical for every shard count.
    fn flush_outboxes(&mut self, lanes: &mut [Simulation]) {
        let mut entries: Vec<OutboxEntry> = Vec::new();
        for lane in lanes.iter_mut() {
            let ctx = lane.shard.as_mut().expect("lane has shard ctx");
            entries.append(&mut ctx.outbox);
        }
        entries.sort_by(|a, b| {
            (a.deliver, a.gen, a.class, a.origin).cmp(&(b.deliver, b.gen, b.class, b.origin))
        });
        let m = self.part.shards() as usize;
        // Per-flush (src, dst) handoff tallies, recorded as Verbose trace
        // events only when the hub recorder wants them.
        let trace_handoffs = lanes[0].app.trace.wants(
            scotch_sim::trace::TraceCategory::Shard,
            scotch_sim::trace::TraceLevel::Verbose,
        );
        let mut flush_matrix = vec![0u32; if trace_handoffs { m * m } else { 0 }];
        for e in entries {
            debug_assert!(
                e.deliver >= self.watermark,
                "outbox entry due {:?} before watermark {:?}: lookahead unsound",
                e.deliver,
                self.watermark
            );
            let dest = match &e.ev {
                Event::Arrive { node, .. } => self.part.shard_of(*node),
                // All control traffic terminates at the hub's controller.
                Event::CtrlFromSwitch { .. } => 0,
                Event::CtrlToSwitch { to, .. } => self.part.shard_of(*to),
                _ => unreachable!("only packet/control events cross shards"),
            } as usize;
            let src = if e.origin == u32::MAX {
                0
            } else {
                self.part.shard_of(NodeId(e.origin)) as usize
            };
            if src != dest {
                self.xmsgs[src * m + dest] += 1;
                if trace_handoffs {
                    flush_matrix[src * m + dest] += 1;
                }
            }
            lanes[dest].events.push(e.deliver, e.ev);
        }
        if trace_handoffs {
            for src in 0..m {
                for dst in 0..m {
                    let events = flush_matrix[src * m + dst];
                    if events > 0 {
                        lanes[0].app.trace.record(
                            self.watermark,
                            TraceEvent::ShardHandoff {
                                src: src as u32,
                                dst: dst as u32,
                                events,
                            },
                        );
                    }
                }
            }
        }
    }

    fn drain_journal(&mut self, lanes: &mut [Simulation]) {
        let journal = lanes[0]
            .app
            .flow_journal
            .as_mut()
            .expect("hub lane journals flowdb mutations");
        for (t, key, path) in journal.drain(..) {
            self.journal.entry(key).or_default().push((t, path));
        }
    }

    /// Apply all lanes' deferred host deliveries in global time order
    /// against the single accounting state. Within one barrier all
    /// deliveries fall inside the same epoch window, so sorting the batch
    /// by time yields the global order across barriers too.
    fn apply_deliveries(&mut self, lanes: &mut [Simulation]) {
        let mut batch: Vec<(SimTime, NodeId, Packet)> = Vec::new();
        for lane in lanes.iter_mut() {
            let ctx = lane.shard.as_mut().expect("lane has shard ctx");
            batch.append(&mut ctx.deliveries);
        }
        batch.sort_by_key(|d| d.0);
        for (now, host, packet) in batch {
            self.apply_delivery(now, host, packet);
        }
    }

    /// Mirror of the sequential `Simulation::deliver` accounting.
    fn apply_delivery(&mut self, now: SimTime, host: NodeId, packet: Packet) {
        if self.host_ip.get(host) != Some(&packet.key.dst) {
            self.misrouted += 1;
            return;
        }
        let stub = self.ledger.entry(packet.flow_id).or_default();
        if stub.delivered == 0 {
            stub.first = now;
            stub.served_by = resolve_path(&self.journal, &packet.key, now);
        }
        stub.delivered += 1;
        stub.delivered_bytes += packet.size as u64;
        stub.last = now;
        if !packet.is_attack {
            self.latency
                .record(now.duration_since(packet.born_at).as_nanos() as f64);
        }
        if !self.tracked.is_empty() {
            if let Some(ts) = self.tracked.get_mut(&packet.flow_id) {
                ts.push((now, now.duration_since(packet.born_at)));
            }
        }
    }

    /// Re-clone the hub's overlay onto the other lanes when it changed.
    /// Overlay mutations happen at the hub's controller; their effects
    /// cannot reach a remote device in under one lookahead, so refreshing
    /// replicas at the next barrier is exact.
    fn refresh_overlay(&mut self, lanes: &mut [Simulation]) {
        let v = lanes[0].app.overlay.version;
        if v != self.overlay_version {
            self.overlay_version = v;
            let (hub, rest) = lanes.split_first_mut().expect("at least one lane");
            for lane in rest {
                lane.app.overlay = hub.app.overlay.clone();
            }
        }
    }

    /// Apply one central event. Mirrors the matching `process_event` arms,
    /// split across lanes: device flags mutate on the owning lane,
    /// controller/trace/counter state on the hub, topology link state and
    /// fault windows on every lane (broadcast replicas).
    fn apply_central(&mut self, lanes: &mut [Simulation], now: SimTime, ev: Event) {
        match ev {
            Event::FailVSwitch { node } => {
                let lane = &mut lanes[self.part.shard_of(node) as usize];
                if let Some(vs) = lane.vswitches.get_mut(node) {
                    vs.failed = true;
                }
            }
            Event::JoinVSwitch { .. } => {
                // Pure controller-side work: the hub processes it verbatim
                // (its commands leave through the hub's outbox).
                lanes[0].process_event(now, ev);
            }
            Event::RecoverVSwitch { node } => {
                let lane = &mut lanes[self.part.shard_of(node) as usize];
                if let Some(vs) = lane.vswitches.get_mut(node) {
                    vs.failed = false;
                }
                lanes[0].app.recover_vswitch(now, node);
                if lanes[0].chaos_seed.is_some() {
                    lanes[0].app.trace.record(
                        now,
                        TraceEvent::FaultCleared {
                            kind: 0,
                            target: node.0,
                        },
                    );
                }
            }
            Event::InjectFault { idx } => self.inject_fault(lanes, now, idx),
            Event::SetLinkUp {
                link,
                up,
                kind,
                finale,
            } => {
                for lane in lanes.iter_mut() {
                    lane.topo.set_link_up(link, up);
                }
                if finale {
                    lanes[0].app.trace.record(
                        now,
                        TraceEvent::FaultCleared {
                            kind: u32::from(kind),
                            target: link.0,
                        },
                    );
                }
            }
            Event::ClearLinkDegrade { link } => {
                for lane in lanes.iter_mut() {
                    lane.topo.set_link_extra_delay(link, SimDuration::ZERO);
                }
                lanes[0].app.trace.record(
                    now,
                    TraceEvent::FaultCleared {
                        kind: 3,
                        target: link.0,
                    },
                );
            }
            Event::ClearOfaSlowdown { node } => {
                let lane = self.part.shard_of(node) as usize;
                lanes[lane].set_ofa_slowdown(node, 1.0);
                lanes[0].app.trace.record(
                    now,
                    TraceEvent::FaultCleared {
                        kind: 7,
                        target: node.0,
                    },
                );
            }
            Event::ClearControllerStall => {
                if now >= lanes[0].chaos.stall_until {
                    lanes[0].app.trace.record(
                        now,
                        TraceEvent::FaultCleared {
                            kind: 8,
                            target: u32::MAX,
                        },
                    );
                }
            }
            Event::ClusterHandoffDone | Event::ClearCtrlPartition => {
                // Pure controller-side work: the hub processes it verbatim
                // (released messages leave through the hub's outbox).
                lanes[0].process_event(now, ev);
            }
            Event::RecoverReplica { replica } => {
                // Mirrors the sequential arm, but the handoff completion is
                // a central follow-up (the timeline, not a lane queue).
                if let Some(at) = lanes[0]
                    .app
                    .cluster
                    .as_mut()
                    .and_then(|c| c.recover(now, replica))
                {
                    self.timeline.push(at, Event::ClusterHandoffDone);
                }
                lanes[0]
                    .app
                    .trace
                    .record(now, TraceEvent::ReplicaRecovered { replica });
                lanes[0].app.trace.record(
                    now,
                    TraceEvent::FaultCleared {
                        kind: 9,
                        target: replica,
                    },
                );
            }
            _ => unreachable!("not a central event"),
        }
    }

    /// Sharded mirror of the sequential `on_inject_fault`.
    fn inject_fault(&mut self, lanes: &mut [Simulation], now: SimTime, idx: u32) {
        let kind = self.fault_plan[idx as usize].kind;
        let kind_idx = kind.index();
        let trace_injected = |lanes: &mut [Simulation], target: u32| {
            lanes[0].chaos.injected[kind_idx] += 1;
            lanes[0].app.trace.record(
                now,
                TraceEvent::FaultInjected {
                    kind: kind_idx as u32,
                    target,
                },
            );
        };
        match kind {
            FaultKind::VSwitchCrash {
                target,
                restart_after,
            } => {
                let candidates: Vec<NodeId> = lanes[0]
                    .app
                    .overlay
                    .live_mesh()
                    .into_iter()
                    .filter(|&n| {
                        lanes[self.part.shard_of(n) as usize]
                            .vswitches
                            .get(n)
                            .map(|v| !v.failed)
                            .unwrap_or(false)
                    })
                    .collect();
                if candidates.is_empty() {
                    lanes[0].chaos.skipped += 1;
                    return;
                }
                let node = candidates[target as usize % candidates.len()];
                let lane = &mut lanes[self.part.shard_of(node) as usize];
                if let Some(vs) = lane.vswitches.get_mut(node) {
                    vs.failed = true;
                }
                trace_injected(lanes, node.0);
                if let Some(delay) = restart_after {
                    self.timeline
                        .push(now + delay, Event::RecoverVSwitch { node });
                }
            }
            FaultKind::LinkDown { target, duration } => {
                let n = lanes[0].topo.link_count();
                if n == 0 {
                    lanes[0].chaos.skipped += 1;
                    return;
                }
                let link = scotch_net::LinkId(target % n as u32);
                for lane in lanes.iter_mut() {
                    lane.topo.set_link_up(link, false);
                }
                trace_injected(lanes, link.0);
                self.timeline.push(
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
                let n = lanes[0].topo.link_count();
                if n == 0 || cycles == 0 {
                    lanes[0].chaos.skipped += 1;
                    return;
                }
                let link = scotch_net::LinkId(target % n as u32);
                for lane in lanes.iter_mut() {
                    lane.topo.set_link_up(link, false);
                }
                trace_injected(lanes, link.0);
                for k in 0..cycles {
                    let last = k + 1 == cycles;
                    self.timeline.push(
                        now + period.mul(u64::from(2 * k + 1)),
                        Event::SetLinkUp {
                            link,
                            up: true,
                            kind: kind_idx as u8,
                            finale: last,
                        },
                    );
                    if !last {
                        self.timeline.push(
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
                let n = lanes[0].topo.link_count();
                if n == 0 {
                    lanes[0].chaos.skipped += 1;
                    return;
                }
                let link = scotch_net::LinkId(target % n as u32);
                for lane in lanes.iter_mut() {
                    lane.topo.set_link_extra_delay(link, extra_latency);
                }
                trace_injected(lanes, link.0);
                self.timeline
                    .push(now + duration, Event::ClearLinkDegrade { link });
            }
            FaultKind::CtrlLoss { p, duration } => {
                for lane in lanes.iter_mut() {
                    lane.chaos.loss_p = p;
                    lane.chaos.loss_until = now + duration;
                }
                trace_injected(lanes, u32::MAX);
            }
            FaultKind::CtrlDup { p, duration } => {
                for lane in lanes.iter_mut() {
                    lane.chaos.dup_p = p;
                    lane.chaos.dup_until = now + duration;
                }
                trace_injected(lanes, u32::MAX);
            }
            FaultKind::CtrlReorder {
                p,
                jitter,
                duration,
            } => {
                for lane in lanes.iter_mut() {
                    lane.chaos.reorder_p = p;
                    lane.chaos.reorder_jitter = jitter;
                    lane.chaos.reorder_until = now + duration;
                }
                trace_injected(lanes, u32::MAX);
            }
            FaultKind::OfaSlowdown {
                target,
                factor,
                duration,
            } => {
                // Global candidate order: physical switches then vSwitches,
                // ascending node id — identical to the sequential scan over
                // the unpartitioned device maps.
                let mut candidates: Vec<NodeId> = Vec::new();
                for i in 0..self.node_count as u32 {
                    let n = NodeId(i);
                    if lanes[self.part.shard_of(n) as usize]
                        .physical
                        .get(n)
                        .is_some()
                    {
                        candidates.push(n);
                    }
                }
                for i in 0..self.node_count as u32 {
                    let n = NodeId(i);
                    if lanes[self.part.shard_of(n) as usize]
                        .vswitches
                        .get(n)
                        .is_some()
                    {
                        candidates.push(n);
                    }
                }
                if candidates.is_empty() {
                    lanes[0].chaos.skipped += 1;
                    return;
                }
                let node = candidates[target as usize % candidates.len()];
                let factor = if factor.is_finite() {
                    factor.max(1e-3)
                } else {
                    1.0
                };
                lanes[self.part.shard_of(node) as usize].set_ofa_slowdown(node, factor);
                trace_injected(lanes, node.0);
                self.timeline
                    .push(now + duration, Event::ClearOfaSlowdown { node });
            }
            FaultKind::ControllerStall { duration } => {
                let stall_until = lanes[0].chaos.stall_until.max(now + duration);
                for lane in lanes.iter_mut() {
                    lane.chaos.stall_until = stall_until;
                }
                trace_injected(lanes, u32::MAX);
                self.timeline.push(stall_until, Event::ClearControllerStall);
            }
            FaultKind::ReplicaCrash {
                target,
                restart_after,
            } => {
                let Some(replica) = lanes[0]
                    .app
                    .cluster
                    .as_ref()
                    .and_then(|c| c.resolve_target(target))
                else {
                    lanes[0].chaos.skipped += 1;
                    return;
                };
                trace_injected(lanes, replica);
                let switches = lanes[0].topo.switch_ids();
                let (moved, deadline) = lanes[0]
                    .app
                    .cluster
                    .as_mut()
                    .expect("resolve_target implies a cluster")
                    .crash(now, replica, &switches);
                lanes[0].app.trace.record(
                    now,
                    TraceEvent::ReplicaCrashed {
                        replica,
                        switches: moved,
                    },
                );
                if let Some(at) = deadline {
                    self.timeline.push(at, Event::ClusterHandoffDone);
                }
                if let Some(delay) = restart_after {
                    self.timeline
                        .push(now + delay, Event::RecoverReplica { replica });
                }
            }
            FaultKind::CtrlPartition { duration } => {
                let Some(cluster) = lanes[0].app.cluster.as_mut() else {
                    lanes[0].chaos.skipped += 1;
                    return;
                };
                let heal = cluster.partition(now, duration);
                trace_injected(lanes, u32::MAX);
                lanes[0].app.trace.record(
                    now,
                    TraceEvent::ClusterPartitioned {
                        duration_ns: duration.as_nanos(),
                    },
                );
                self.timeline.push(heal, Event::ClearCtrlPartition);
            }
        }
    }
}

/// Last journaled flowdb state for `key` at or before `now`.
fn resolve_path(
    journal: &FxHashMap<FlowKey, Vec<(SimTime, Option<FlowPath>)>>,
    key: &FlowKey,
    now: SimTime,
) -> Option<FlowPath> {
    let entries = journal.get(key)?;
    entries
        .iter()
        .rev()
        .find(|(t, _)| *t <= now)
        .and_then(|(_, p)| *p)
}

/// Sharded run entry point (see [`Simulation::run_sharded`]).
fn run(mut sim: Simulation, until: SimTime, shards: usize, threads: usize) -> Report {
    // Clamps: scenarios that cannot shard deterministically run sequentially.
    if shards <= 1
        || sim.regions.is_empty()
        || sim.topo.has_fault_injection()
        || sim.fault_plan.iter().any(|e| e.at == SimTime::ZERO)
    {
        return sim.run(until);
    }
    let part = Partition::by_regions(sim.topo.node_count(), &sim.regions, shards);
    if part.is_trivial() {
        return sim.run(until);
    }
    let cut = part
        .validate_lookahead(&sim.topo)
        .unwrap_or_else(|e| panic!("sharded run rejected: {e}"));
    let mut lookahead = cut;
    for (_, s) in sim.physical.iter() {
        let l = s.control_latency();
        lookahead = Some(lookahead.map_or(l, |m| m.min(l)));
    }
    for (_, v) in sim.vswitches.iter() {
        let l = v.control_latency();
        lookahead = Some(lookahead.map_or(l, |m| m.min(l)));
    }
    let Some(lookahead) = lookahead else {
        return sim.run(until);
    };
    if lookahead == SimDuration::ZERO {
        return sim.run(until);
    }

    // Snapshot every node's control-channel latency while the full device
    // set is still in one place: after partitioning, the controller lane
    // must schedule command deliveries to switches it does not own.
    let ctrl_latency: Arc<Vec<SimDuration>> = Arc::new(
        (0..sim.topo.node_count() as u32)
            .map(|i| sim.control_latency(NodeId(i)))
            .collect(),
    );

    // Drain the pre-run queue: bootstrap control deliveries go straight to
    // their destination lanes (before `start()`, preserving the t=0 tie
    // order); scripted faults become the driver's central timeline.
    let mut timeline = Timeline::default();
    let mut bootstraps: Vec<(SimTime, NodeId, Event)> = Vec::new();
    while let Some((at, ev)) = sim.events.pop() {
        match ev {
            Event::CtrlToSwitch { to, msg } => {
                bootstraps.push((at, to, Event::CtrlToSwitch { to, msg }));
            }
            Event::FailVSwitch { .. }
            | Event::JoinVSwitch { .. }
            | Event::RecoverVSwitch { .. }
            | Event::InjectFault { .. } => timeline.push(at, ev),
            _ => unreachable!("unexpected pre-run event kind"),
        }
    }

    // Dismantle the simulation into per-shard lanes.
    let m = part.shards() as usize;
    let part = Arc::new(part);
    let node_count = sim.topo.node_count();
    let topo = sim.topo;
    let mut app = sim.app;
    let host_ip = sim.host_ip;
    let ip_host = sim.ip_host;
    let physical = sim.physical;
    let vswitches = sim.vswitches;
    let middleboxes = sim.middleboxes;
    let sources = sim.sources;
    let tracked = sim.tracked;
    let captures = sim.captures;
    let chaos = sim.chaos;
    let chaos_seed = sim.chaos_seed;
    let fault_plan = sim.fault_plan;
    let sweep_interval = sim.sweep_interval;
    let registry = sim.registry;
    let profiler = sim.profiler;
    let shard_profiling = sim.shard_profiling;
    let latency = sim.latency;
    let flow_capacity_hint = sim.flow_capacity_hint;

    let mut clones = Vec::with_capacity(m - 1);
    for _ in 1..m {
        let mut a = app.clone();
        // Trace and flow journal are hub-only: the trace recorder is not
        // canonical output and device-side records from remote lanes are
        // deliberately dropped; the journal exists to feed the driver.
        // The journey recorder stays ENABLED on every lane — journey marks
        // are canonical output, absorbed into the hub and re-sorted before
        // the report is built.
        a.trace = TraceRecorder::disabled();
        a.flow_journal = None;
        clones.push(a);
    }
    app.flow_journal = Some(Vec::new());

    let mut lanes: Vec<Simulation> = Vec::with_capacity(m);
    for (s, a) in std::iter::once(app).chain(clones).enumerate() {
        let mut lane = Simulation::new(topo.clone(), a);
        lane.app.journeys.set_shard(s as u16);
        lane.host_ip = host_ip.clone();
        lane.ip_host = ip_host.clone();
        lane.sweep_interval = sweep_interval;
        lane.flow_capacity_hint = flow_capacity_hint;
        lane.chaos_seed = chaos_seed;
        lane.shard = Some(ShardCtx {
            shard: s as u32,
            part: part.clone(),
            outbox: Vec::new(),
            deliveries: Vec::new(),
            sweep_pops: 0,
            pops: 0,
            ctrl_latency: ctrl_latency.clone(),
            epoch_busy_ns: 0.0,
            profile: shard_profiling,
        });
        lanes.push(lane);
    }
    lanes[0].chaos = chaos;
    lanes[0].fault_plan = fault_plan.clone();
    lanes[0].registry = registry;
    lanes[0].profiler = profiler;

    for (n, d) in physical.into_iter() {
        lanes[part.shard_of(n) as usize].physical.insert(n, d);
    }
    for (n, d) in vswitches.into_iter() {
        lanes[part.shard_of(n) as usize].vswitches.insert(n, d);
    }
    for (n, d) in middleboxes.into_iter() {
        lanes[part.shard_of(n) as usize].middleboxes.insert(n, d);
    }
    for (n, c) in captures.into_iter() {
        lanes[part.shard_of(n) as usize].captures.insert(n, c);
    }
    for (gid, (host, src)) in sources.into_iter().enumerate() {
        let lane = &mut lanes[part.shard_of(host) as usize];
        lane.source_ids.push(gid as u32);
        lane.source_seq.push(0);
        lane.sources.push((host, src));
    }
    for (at, to, ev) in bootstraps {
        lanes[part.shard_of(to) as usize].events.push(at, ev);
    }
    for lane in &mut lanes {
        lane.start();
    }

    let mut driver = Driver {
        part: part.clone(),
        lookahead,
        until,
        node_count,
        fault_plan,
        timeline,
        host_ip,
        latency,
        tracked,
        misrouted: 0,
        ledger: FxHashMap::default(),
        journal: FxHashMap::default(),
        overlay_version: lanes[0].app.overlay.version,
        watermark: SimTime::ZERO,
        centrals: 0,
        epochs: 0,
        epoch_width: Histogram::new(),
        xmsgs: vec![0u64; m * m],
        last_pops: 0,
        profiler: shard_profiling.then(|| EpochProfiler::new(m)),
    };

    let threads = if threads == 0 { m } else { threads.min(m) };
    let (mut lanes, stats) = scotch_runner::lockstep_timed(
        lanes,
        threads,
        |lanes| driver.barrier(lanes),
        |_, lane, bound| {
            let t0 = lane
                .shard
                .as_ref()
                .is_some_and(|c| c.profile)
                .then(std::time::Instant::now);
            let n = lane.run_epoch(bound);
            if let Some(ctx) = lane.shard.as_mut() {
                ctx.pops += n;
                if let Some(t0) = t0 {
                    ctx.epoch_busy_ns += t0.elapsed().as_nanos() as f64;
                }
            }
        },
    );
    if let Some(p) = driver.profiler.as_mut() {
        p.set_walls(
            stats.barrier_wall.as_nanos() as f64,
            (stats.barrier_wall + stats.epoch_wall).as_nanos() as f64,
        );
    }

    // End of run: reconcile chaos in-flight tallies, then fold every lane
    // back into the hub and emit the canonical report from there.
    if !driver.fault_plan.is_empty() {
        for lane in lanes.iter_mut() {
            lane.tally_remaining();
        }
    }
    let mut lane_pops = 0u64;
    let mut dup_sweeps = 0u64;
    let mut lane_events = vec![0u64; m];
    for (s, lane) in lanes.iter().enumerate() {
        let ctx = lane.shard.as_ref().expect("lane has shard ctx");
        lane_pops += ctx.pops;
        lane_events[s] = ctx.pops;
        if s > 0 {
            dup_sweeps += ctx.sweep_pops;
        }
    }
    let events_processed = lane_pops - dup_sweeps + driver.centrals;

    let rest = lanes.split_off(1);
    let mut hub = lanes.pop().expect("hub lane");
    let mut all_flows = std::mem::take(&mut hub.flows);
    let mut all_tags = std::mem::take(&mut hub.flow_tags);
    for (i, mut lane) in rest.into_iter().enumerate() {
        let s = (i + 1) as u32;
        hub.app.journeys.absorb(&mut lane.app.journeys);
        hub.chaos.absorb_counters(&lane.chaos);
        hub.topo
            .adopt_link_states(&lane.topo, |n| driver.part.shard_of(n) == s);
        hub.drops.ofa_overload += lane.drops.ofa_overload;
        hub.drops.dataplane += lane.drops.dataplane;
        hub.drops.policy += lane.drops.policy;
        hub.drops.no_route += lane.drops.no_route;
        hub.drops.link_queue += lane.drops.link_queue;
        hub.drops.link_faults += lane.drops.link_faults;
        hub.controller_dropped += lane.controller_dropped;
        for k in 0..6 {
            hub.ctrl_tx[k] += lane.ctrl_tx[k];
            hub.ctrl_rx[k] += lane.ctrl_rx[k];
        }
        all_flows.append(&mut lane.flows);
        all_tags.append(&mut lane.flow_tags);
        for (n, d) in lane.physical.into_iter() {
            hub.physical.insert(n, d);
        }
        for (n, d) in lane.vswitches.into_iter() {
            hub.vswitches.insert(n, d);
        }
        for (n, d) in lane.middleboxes.into_iter() {
            hub.middleboxes.insert(n, d);
        }
        for (n, c) in lane.captures.into_iter() {
            hub.captures.insert(n, c);
        }
    }

    let mut all_flows = sort_flows_into_creation_order(all_flows, all_tags);
    for r in &mut all_flows {
        if let Some(stub) = driver.ledger.remove(&r.id) {
            r.delivered = stub.delivered;
            r.delivered_bytes = stub.delivered_bytes;
            r.first_delivered = stub.first;
            r.last_delivered = stub.last;
            r.served_by = stub.served_by;
        }
    }
    hub.flows = all_flows;
    hub.latency = driver.latency;
    hub.tracked = driver.tracked;
    hub.misrouted += driver.misrouted;
    hub.shard = None;

    // Execution-plane telemetry: sim-time shard accounting, deterministic
    // per `(scenario, seed, shard count)`. Folded only here, so sequential
    // runs never export `shard.*` keys (mirroring the `chaos.*` gating) and
    // the canonical report — which excludes the registry — is untouched.
    {
        let reg = &mut hub.registry;
        reg.add("shard.lanes", m as u64);
        reg.add("shard.epochs", driver.epochs);
        reg.add("shard.centrals", driver.centrals);
        // Hub-shard control-work share, in parts per million of all lane
        // pops (the hub runs the controller, so this is the serial-bottleneck
        // indicator of a scaling report).
        if let Some(ppm) = (lane_events[0] * 1_000_000).checked_div(lane_pops) {
            reg.add("shard.hub_share_ppm", ppm);
        }
        for (s, &ev) in lane_events.iter().enumerate() {
            reg.add(&format!("shard.lane.{s}.events"), ev);
        }
        let mut handoffs = 0u64;
        for src in 0..m {
            for dst in 0..m {
                let n = driver.xmsgs[src * m + dst];
                if src != dst && n > 0 {
                    handoffs += n;
                    reg.add(&format!("shard.xmsgs.{src}.{dst}"), n);
                }
            }
        }
        reg.add("shard.handoffs", handoffs);
        let h = reg.histogram("shard.epoch_width_ns");
        *reg.histogram_mut(h) = driver.epoch_width;
        // Cluster placement plan: replica `r` is assigned lane `r % lanes`
        // (round-robin off the hub), and each lane's share of controller
        // decisions under that plan. Today every replica still executes on
        // the hub; these keys quantify how much control work the placement
        // would move off lane 0 — the sizing input for hub offload.
        if let Some(cluster) = &hub.app.cluster {
            let mut lane_decisions = vec![0u64; m];
            for (r, &n) in cluster.decisions().iter().enumerate() {
                let lane = r % m;
                reg.add(&format!("ctrl.cluster.replica_lane.{r}"), lane as u64);
                lane_decisions[lane] += n;
            }
            for (lane, &n) in lane_decisions.iter().enumerate() {
                reg.add(&format!("ctrl.cluster.lane_decisions.{lane}"), n);
            }
        }
    }
    hub.epoch_profiler = driver.profiler;
    hub.into_report(until, events_processed)
}

/// Reorder per-lane flow ledgers into the sequential creation order.
/// `tags[i]` is the `(source, ordinal)` creation tag of `flows[i]`.
///
/// A flow `(source s, ordinal j)` is created when the event scheduled at
/// `fire(s, j)` pops, where `fire(s, j)` is the previous flow's
/// `started_at` (that flow's `FlowStart` draws the next arrival) and `t=0`
/// for `j = 0` (the `SourceNext` seeds planted by `start()`).
/// Two flows order by those pop times; a tie recurses into the *parents'*
/// creation order (the event queue breaks ties by insertion order, and the
/// tied events were inserted while their parent flows were being
/// created). At the ground, seeds were inserted in global source order,
/// before any mid-run insertion.
fn sort_flows_into_creation_order(
    flows: Vec<FlowOutcome>,
    tags: Vec<(u32, u32)>,
) -> Vec<FlowOutcome> {
    assert_eq!(flows.len(), tags.len(), "one creation tag per flow");
    let mut history: FxHashMap<u32, Vec<SimTime>> = FxHashMap::default();
    for (&(source, seq), f) in tags.iter().zip(&flows) {
        let h = history.entry(source).or_default();
        let idx = seq as usize;
        if h.len() <= idx {
            h.resize(idx + 1, SimTime::ZERO);
        }
        h[idx] = f.started_at;
    }
    let fire = |source: u32, seq: u32| -> SimTime {
        if seq == 0 {
            SimTime::ZERO
        } else {
            history[&source][(seq - 1) as usize]
        }
    };
    let mut tagged: Vec<((u32, u32), FlowOutcome)> = tags.into_iter().zip(flows).collect();
    tagged.sort_by(|&((sa, mut ja), _), &((sb, mut jb), _)| {
        if sa == sb {
            return ja.cmp(&jb);
        }
        loop {
            match fire(sa, ja).cmp(&fire(sb, jb)) {
                Ordering::Equal => {}
                o => return o,
            }
            match (ja, jb) {
                (0, 0) => return sa.cmp(&sb),
                (0, _) => return Ordering::Less,
                (_, 0) => return Ordering::Greater,
                _ => {
                    ja -= 1;
                    jb -= 1;
                }
            }
        }
    });
    tagged.into_iter().map(|(_, f)| f).collect()
}
