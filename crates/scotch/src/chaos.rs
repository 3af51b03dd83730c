//! Chaos harness: invariant checking over fault-injected runs, random
//! fault-plan generation, and delta-debugging shrinking.
//!
//! A chaos run is a `(scenario, seed, plan)` triple: the
//! [`FaultPlan`] is attached with [`Scenario::with_fault_plan`], the run
//! replays bit-identically, and [`check`] reconciles the resulting
//! [`Report`] against four invariants after the fact:
//!
//! * **I1 — no silent flow loss.** Every emitted-but-undelivered packet is
//!   accounted for by a drop counter, a chaos perturbation counter, or the
//!   in-flight ledger. Faults may destroy packets, but never invisibly.
//! * **I2 — bounded failover.** Every injected vSwitch crash is answered by
//!   a `FailoverExecuted` trace event within the configured bound (the
//!   heartbeat detection latency plus slack).
//! * **I3 — no stranded overlay flows.** Overlay withdrawal never routes a
//!   flow to a destination with no delivery tunnel
//!   (`AppStats::overlay_undeliverable` stays within its budget).
//! * **I4 — message conservation.** Packet-In and FlowMod-Add counts
//!   balance *exactly*: every message is received, dropped by an injected
//!   fault, absorbed by a dead device, or still in flight at the horizon.
//! * **I5 — no flow setup lost across failover.** Every switch→controller
//!   message parked during a mastership migration is released to the new
//!   master or still parked at the horizon: the cluster's pending ledger
//!   balances exactly (cluster runs only).
//! * **I6 — bounded mastership handoff.** Every handoff settles within the
//!   configured inter-replica sync delay of becoming due (cluster runs
//!   only).
//! * **I7 — bounded setup latency.** Optional: every flow that completes
//!   setup under faults does so within `setup_latency_bound` of its first
//!   emission.
//!
//! Violations carry the flight-recorder trace window around them, so a
//! failing run reads as a story, not a boolean. [`generate_plan`] draws
//! random plans from a seed and [`shrink`] reduces a failing plan to a
//! (locally) minimal one by delta debugging — the `scotch-cli chaos`
//! subcommand wires these into a search loop.

use crate::config::ScotchConfig;
use crate::report::Report;
use crate::scenario::Scenario;
use proptest::Gen;
use scotch_sim::fault::{FaultKind, FaultPlan};
use scotch_sim::trace::{TraceEvent, TraceRecord};
use scotch_sim::{SimDuration, SimTime};

/// Tunables for the invariant checker.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Maximum time from an injected vSwitch crash to its
    /// `FailoverExecuted` trace event (I2). Derive it from the scenario's
    /// heartbeat settings with [`ChaosConfig::for_scotch`]; set it to
    /// [`SimDuration::ZERO`] to deliberately break I2 (regression tests).
    pub failover_bound: SimDuration,
    /// Maximum tolerated `overlay_undeliverable` count (I3). Default 0.
    pub max_undeliverable: u64,
    /// Per-flow setup-latency bound (I7): a flow whose first packet *is*
    /// delivered must have been delivered within this much of its first
    /// emission. `None` (the default) disables the check — faults may
    /// legitimately delay setup arbitrarily unless the scenario promises a
    /// bound.
    pub setup_latency_bound: Option<SimDuration>,
    /// Trace records captured on each side of a violation.
    pub window: usize,
}

impl ChaosConfig {
    /// Derive the failover bound from a scenario's heartbeat settings:
    /// detection takes `heartbeat_period × (miss_limit + 1)` in the worst
    /// phase, plus one period of slack for the tick that executes the
    /// promotion.
    pub fn for_scotch(config: &ScotchConfig) -> Self {
        let detect = config
            .heartbeat_period
            .mul(u64::from(config.heartbeat_miss_limit) + 1);
        ChaosConfig {
            failover_bound: detect + SimDuration::from_secs(1),
            max_undeliverable: 0,
            setup_latency_bound: None,
            window: 8,
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::for_scotch(&ScotchConfig::default())
    }
}

/// One invariant violation, with the trace context around it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Short invariant identifier (`"I1-flow-loss"`, ...).
    pub invariant: &'static str,
    /// Sim-time anchor of the violation.
    pub at: SimTime,
    /// Human-readable account of what failed to reconcile.
    pub detail: String,
    /// Rendered flight-recorder records around the anchor.
    pub trace_window: Vec<String>,
}

impl Violation {
    /// Multi-line rendering: the claim, then the trace window indented.
    pub fn render(&self) -> String {
        let mut s = format!(
            "violation {} at t={}ns: {}\n",
            self.invariant,
            self.at.as_nanos(),
            self.detail
        );
        for line in &self.trace_window {
            s.push_str("    ");
            s.push_str(line);
            s.push('\n');
        }
        s
    }
}

/// Render a full violation report (deterministic; empty string when clean).
pub fn render_violations(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&v.render());
    }
    out
}

fn render_record(r: &TraceRecord) -> String {
    let mut s = format!(
        "[{}] t={}ns {}/{}",
        r.seq,
        r.at.as_nanos(),
        r.event.category().name(),
        r.event.kind_name()
    );
    for (k, v) in r.event.fields() {
        s.push_str(&format!(" {k}={v}"));
    }
    s
}

/// Up to `w` rendered trace records on each side of `at`.
fn window_around(records: &[TraceRecord], at: SimTime, w: usize) -> Vec<String> {
    let pos = records.partition_point(|r| r.at < at);
    let lo = pos.saturating_sub(w);
    let hi = (pos + w).min(records.len());
    records[lo..hi].iter().map(render_record).collect()
}

fn metric(report: &Report, name: &str) -> u64 {
    report.metrics.get(name).unwrap_or(0.0) as u64
}

/// Check all chaos invariants over a finished run. Empty result = clean.
///
/// `plan` is consulted for crash restart delays (a vSwitch that restarts
/// before the detection bound legitimately needs no failover).
pub fn check(report: &Report, plan: &FaultPlan, cfg: &ChaosConfig) -> Vec<Violation> {
    let mut violations = Vec::new();
    let records = report.trace.records();
    let horizon = SimTime::ZERO + report.duration;

    // I1 — no silent flow loss. Sum every emitted-but-undelivered packet
    // and demand the loss be covered by known causes. Causes may overlap
    // (link_queue double-counts by construction), which only ever makes the
    // bound looser — the invariant catches packets that vanish with *no*
    // cause, not over-attribution.
    let mut emitted: u64 = 0;
    let mut lost: u64 = 0;
    for f in &report.flows {
        emitted += u64::from(f.emitted);
        lost += u64::from(f.emitted.saturating_sub(f.delivered));
    }
    let d = &report.drops;
    let accounted = d.ofa_overload
        + d.dataplane
        + d.policy
        + d.no_route
        + d.link_queue
        + d.link_faults
        + report.misrouted
        + report.controller_dropped
        + report.middlebox_rejections
        + metric(report, "chaos.rx_dropped.packet_in")
        + metric(report, "chaos.tx_dropped.packet_out")
        + metric(report, "chaos.absorbed.packet_out")
        + metric(report, "chaos.in_flight_rx.packet_in")
        + metric(report, "chaos.in_flight_tx.packet_out")
        + metric(report, "chaos.in_flight.packets")
        + metric(report, "controller.backlog.last")
        // Messages still parked behind an unsettled mastership migration at
        // the horizon are held, not lost.
        + metric(report, "ctrl.cluster.pending");
    let slack = 1000.max(emitted / 100);
    if lost > accounted + slack {
        violations.push(Violation {
            invariant: "I1-flow-loss",
            at: horizon,
            detail: format!(
                "{lost} of {emitted} emitted packets undelivered but only \
                 {accounted} accounted for (slack {slack})"
            ),
            trace_window: window_around(&records, horizon, cfg.window),
        });
    }

    // I2 — bounded failover. Every VSwitchCrash injection must be answered
    // by a FailoverExecuted for the same node within the bound, unless the
    // plan restarts the vSwitch before detection could complete or the run
    // ended inside the bound.
    for rec in &records {
        let TraceEvent::FaultInjected { kind: 0, target } = rec.event else {
            continue;
        };
        let deadline = rec.at + cfg.failover_bound;
        if deadline > horizon {
            continue; // bound extends past the run: not judgeable
        }
        let restarts_early = plan.events.iter().any(|e| {
            e.at == rec.at
                && matches!(e.kind,
                    FaultKind::VSwitchCrash { restart_after: Some(r), .. }
                        if r < cfg.failover_bound)
        });
        if restarts_early {
            continue;
        }
        let answered = records.iter().any(|r2| {
            r2.at > rec.at
                && r2.at <= deadline
                && matches!(r2.event,
                    TraceEvent::FailoverExecuted { dead, .. } if dead == target)
        });
        if !answered {
            violations.push(Violation {
                invariant: "I2-failover-bound",
                at: rec.at,
                detail: format!(
                    "vSwitch node {} crashed at t={}ns; no FailoverExecuted \
                     within {}ns",
                    target,
                    rec.at.as_nanos(),
                    cfg.failover_bound.as_nanos()
                ),
                trace_window: window_around(&records, rec.at, cfg.window),
            });
        }
    }

    // I3 — overlay withdrawal never strands flows.
    if report.app.overlay_undeliverable > cfg.max_undeliverable {
        violations.push(Violation {
            invariant: "I3-overlay-stranded",
            at: horizon,
            detail: format!(
                "{} overlay flows had no delivery tunnel (budget {})",
                report.app.overlay_undeliverable, cfg.max_undeliverable
            ),
            trace_window: window_around(&records, horizon, cfg.window),
        });
    }

    // I4a — Packet-In conservation (exact). Every Packet-In an OFA sent is
    // either received by the controller, dropped by injected loss, or still
    // in flight; injected duplication adds receptions.
    let pi_sent: u64 = report
        .switches
        .iter()
        .map(|s| s.ofa.packet_in_sent)
        .chain(report.vswitches.iter().map(|v| v.ofa.packet_in_sent))
        .sum();
    let pi_rx = metric(report, "controller.rx.packet_in");
    let pi_expected = pi_sent + metric(report, "chaos.duplicated.packet_in")
        - metric(report, "chaos.rx_dropped.packet_in")
        - metric(report, "chaos.in_flight_rx.packet_in");
    if pi_rx != pi_expected {
        violations.push(Violation {
            invariant: "I4-packet-in-conservation",
            at: horizon,
            detail: format!(
                "controller received {pi_rx} Packet-Ins, expected {pi_expected} \
                 (sent {pi_sent} - dropped {} + duplicated {} - in-flight {})",
                metric(report, "chaos.rx_dropped.packet_in"),
                metric(report, "chaos.duplicated.packet_in"),
                metric(report, "chaos.in_flight_rx.packet_in"),
            ),
            trace_window: window_around(&records, horizon, cfg.window),
        });
    }

    // I4b — FlowMod-Add conservation (exact). Every Add the controller sent
    // (including bootstrap rules) reached an OFA as an insertion attempt,
    // was dropped by injected loss, was absorbed by a dead/absent device,
    // or is still in flight.
    let fm_sent = metric(report, "chaos.flowmod_add.sent");
    let fm_attempted: u64 = report
        .switches
        .iter()
        .map(|s| s.ofa.rules_attempted)
        .chain(report.vswitches.iter().map(|v| v.ofa.rules_attempted))
        .sum();
    let fm_expected = fm_attempted
        + metric(report, "chaos.flowmod_add.dropped")
        + metric(report, "chaos.flowmod_add.absorbed")
        + metric(report, "chaos.flowmod_add.in_flight");
    if fm_sent != fm_expected {
        violations.push(Violation {
            invariant: "I4-flowmod-conservation",
            at: horizon,
            detail: format!(
                "{fm_sent} FlowMod-Adds sent but {fm_expected} accounted for \
                 (attempted {fm_attempted} + dropped {} + absorbed {} + in-flight {})",
                metric(report, "chaos.flowmod_add.dropped"),
                metric(report, "chaos.flowmod_add.absorbed"),
                metric(report, "chaos.flowmod_add.in_flight"),
            ),
            trace_window: window_around(&records, horizon, cfg.window),
        });
    }

    // I5 — no flow setup lost across failover (cluster runs only). Every
    // switch→controller message parked during a mastership migration must be
    // released to the new master or still parked at the horizon: the
    // pending ledger balances *exactly*, like I4.
    if metric(report, "ctrl.cluster.replicas") >= 2 {
        let enq = metric(report, "ctrl.cluster.pending_enq");
        let rel = metric(report, "ctrl.cluster.pending_rel");
        let held = metric(report, "ctrl.cluster.pending");
        if enq != rel + held {
            violations.push(Violation {
                invariant: "I5-failover-loss",
                at: horizon,
                detail: format!(
                    "{enq} messages parked during mastership migrations but \
                     only {rel} released + {held} still parked"
                ),
                trace_window: window_around(&records, horizon, cfg.window),
            });
        }

        // I6 — bounded mastership handoff. The engine stamps
        // `handoff_exceeded` for any handoff that settled later than its
        // sync-delay deadline; a clean run has none. Each late handoff is
        // anchored at its trace record for the window.
        if metric(report, "ctrl.cluster.handoff_exceeded") > 0 {
            let mut anchored = false;
            for rec in &records {
                if let TraceEvent::MastershipHandoff {
                    switch, from, to, ..
                } = rec.event
                {
                    anchored = true;
                    violations.push(Violation {
                        invariant: "I6-handoff-bound",
                        at: rec.at,
                        detail: format!(
                            "mastership of switch {switch} moved {from}->{to} in a run \
                             where {} handoff(s) exceeded the sync-delay bound",
                            metric(report, "ctrl.cluster.handoff_exceeded")
                        ),
                        trace_window: window_around(&records, rec.at, cfg.window),
                    });
                    break;
                }
            }
            if !anchored {
                violations.push(Violation {
                    invariant: "I6-handoff-bound",
                    at: horizon,
                    detail: format!(
                        "{} mastership handoff(s) exceeded the sync-delay bound",
                        metric(report, "ctrl.cluster.handoff_exceeded")
                    ),
                    trace_window: window_around(&records, horizon, cfg.window),
                });
            }
        }
    }

    // I7 — bounded setup latency (opt-in). A flow whose first packet was
    // delivered must have completed setup within the bound; flows that
    // never deliver are I1's concern, and attack flows are policed by
    // design.
    if let Some(bound) = cfg.setup_latency_bound {
        for f in &report.flows {
            let Some(first) = f.first_delivered() else {
                continue;
            };
            if f.is_attack {
                continue;
            }
            let setup = first.duration_since(f.started_at);
            if setup > bound {
                violations.push(Violation {
                    invariant: "I7-setup-latency",
                    at: first,
                    detail: format!(
                        "flow {} completed setup in {}ns, over the {}ns bound",
                        f.id.0,
                        setup.as_nanos(),
                        bound.as_nanos()
                    ),
                    trace_window: window_around(&records, first, cfg.window),
                });
            }
        }
    }

    violations
}

/// Draw a random fault plan: `n_events` faults uniformly placed over
/// `[0, horizon)`, kinds and parameters drawn from ranges wide enough to
/// stress every subsystem but bounded so a single fault cannot trivially
/// exceed the run. Deterministic in `(seed, horizon, n_events)`.
pub fn generate_plan(seed: u64, horizon: SimDuration, n_events: usize) -> FaultPlan {
    let mut g = Gen::new(seed);
    let mut plan = FaultPlan::new();
    let span = horizon.as_nanos().max(1);
    for _ in 0..n_events {
        let at = SimTime::ZERO + SimDuration::from_nanos(g.below(span));
        let dur = SimDuration::from_millis(50 + g.below(1950));
        let p = 0.05 + 0.45 * g.f64();
        let target = g.below(u64::from(u32::MAX)) as u32;
        let kind = match g.below(11) {
            0 => FaultKind::VSwitchCrash {
                target,
                restart_after: if g.below(2) == 0 {
                    None
                } else {
                    Some(SimDuration::from_millis(100 + g.below(4900)))
                },
            },
            1 => FaultKind::LinkDown {
                target,
                duration: dur,
            },
            2 => FaultKind::LinkFlap {
                target,
                cycles: 1 + g.below(4) as u32,
                period: SimDuration::from_millis(10 + g.below(190)),
            },
            3 => FaultKind::LinkDegrade {
                target,
                extra_latency: SimDuration::from_micros(100 + g.below(9900)),
                duration: dur,
            },
            4 => FaultKind::CtrlLoss { p, duration: dur },
            5 => FaultKind::CtrlDup { p, duration: dur },
            6 => FaultKind::CtrlReorder {
                p,
                jitter: SimDuration::from_micros(100 + g.below(49_900)),
                duration: dur,
            },
            7 => FaultKind::OfaSlowdown {
                target,
                factor: 2.0 + 18.0 * g.f64(),
                duration: dur,
            },
            8 => FaultKind::ControllerStall {
                duration: SimDuration::from_millis(50 + g.below(950)),
            },
            9 => FaultKind::ReplicaCrash {
                target,
                restart_after: if g.below(2) == 0 {
                    None
                } else {
                    Some(SimDuration::from_millis(100 + g.below(4900)))
                },
            },
            _ => FaultKind::CtrlPartition { duration: dur },
        };
        plan.push(at, kind);
    }
    plan.sort();
    plan
}

/// Halved-parameter simplification of one fault, or `None` when the fault
/// is already minimal. Shrinking never changes a fault's time or kind —
/// only its magnitude — so a shrunk plan stays within the original's shape.
fn simplify(kind: FaultKind) -> Option<FaultKind> {
    let half = |d: SimDuration| SimDuration::from_nanos(d.as_nanos() / 2);
    match kind {
        FaultKind::VSwitchCrash {
            target,
            restart_after: Some(_),
        } => Some(FaultKind::VSwitchCrash {
            target,
            restart_after: None,
        }),
        FaultKind::LinkDown { target, duration } if duration > SimDuration::from_millis(10) => {
            Some(FaultKind::LinkDown {
                target,
                duration: half(duration),
            })
        }
        FaultKind::LinkFlap {
            target,
            cycles,
            period,
        } if cycles > 1 => Some(FaultKind::LinkFlap {
            target,
            cycles: cycles / 2,
            period,
        }),
        FaultKind::LinkDegrade {
            target,
            extra_latency,
            duration,
        } if duration > SimDuration::from_millis(10) => Some(FaultKind::LinkDegrade {
            target,
            extra_latency: half(extra_latency),
            duration: half(duration),
        }),
        FaultKind::CtrlLoss { p, duration } if p > 0.02 => Some(FaultKind::CtrlLoss {
            p: p / 2.0,
            duration,
        }),
        FaultKind::CtrlDup { p, duration } if p > 0.02 => Some(FaultKind::CtrlDup {
            p: p / 2.0,
            duration,
        }),
        FaultKind::CtrlReorder {
            p,
            jitter,
            duration,
        } if p > 0.02 => Some(FaultKind::CtrlReorder {
            p: p / 2.0,
            jitter: half(jitter),
            duration,
        }),
        FaultKind::OfaSlowdown {
            target,
            factor,
            duration,
        } if factor > 2.0 => Some(FaultKind::OfaSlowdown {
            target,
            factor: factor / 2.0,
            duration,
        }),
        FaultKind::ControllerStall { duration } if duration > SimDuration::from_millis(10) => {
            Some(FaultKind::ControllerStall {
                duration: half(duration),
            })
        }
        FaultKind::ReplicaCrash {
            target,
            restart_after: Some(_),
        } => Some(FaultKind::ReplicaCrash {
            target,
            restart_after: None,
        }),
        FaultKind::CtrlPartition { duration } if duration > SimDuration::from_millis(10) => {
            Some(FaultKind::CtrlPartition {
                duration: half(duration),
            })
        }
        _ => None,
    }
}

/// Delta-debugging shrink: reduce a failing plan to a locally minimal one.
///
/// `still_fails` re-runs the candidate plan and reports whether it still
/// violates an invariant; it is called at most `max_runs` times. Two loops
/// alternate to a fixpoint: drop event subsets (halving granularity, the
/// classic ddmin sweep), then halve individual fault magnitudes. Returns
/// the smallest failing plan found and the number of runs spent.
pub fn shrink<F>(plan: &FaultPlan, mut still_fails: F, max_runs: usize) -> (FaultPlan, usize)
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut best = plan.clone();
    let mut runs = 0usize;
    let mut try_candidate = |cand: &FaultPlan, runs: &mut usize| -> bool {
        if *runs >= max_runs {
            return false;
        }
        *runs += 1;
        still_fails(cand)
    };

    let mut progress = true;
    while progress && runs < max_runs {
        progress = false;

        // Pass 1: ddmin over the event list.
        let mut chunk = best.len().div_ceil(2).max(1);
        while chunk >= 1 && best.len() > 1 && runs < max_runs {
            let mut removed_any = false;
            let mut start = 0;
            while start < best.len() && runs < max_runs {
                let mut cand = FaultPlan::new();
                for (i, ev) in best.events.iter().enumerate() {
                    if i < start || i >= start + chunk {
                        cand.push(ev.at, ev.kind);
                    }
                }
                if !cand.is_empty() && try_candidate(&cand, &mut runs) {
                    best = cand;
                    progress = true;
                    removed_any = true;
                    // Retry the same offset: the list shifted left.
                } else {
                    start += chunk;
                }
            }
            if !removed_any {
                if chunk == 1 {
                    break;
                }
                chunk /= 2;
            }
        }

        // Pass 2: halve individual fault magnitudes.
        for i in 0..best.len() {
            while runs < max_runs {
                let Some(simpler) = simplify(best.events[i].kind) else {
                    break;
                };
                let mut cand = best.clone();
                cand.events[i].kind = simpler;
                if try_candidate(&cand, &mut runs) {
                    best = cand;
                    progress = true;
                } else {
                    break;
                }
            }
        }
    }
    (best, runs)
}

/// Outcome of one chaos run: the full report plus its violations.
pub struct ChaosOutcome {
    /// The run's report (trace, metrics, flows).
    pub report: Report,
    /// Invariant violations (empty = clean run).
    pub violations: Vec<Violation>,
}

/// Run `plan` against a scenario and check every invariant.
pub fn run_plan(
    make: &dyn Fn() -> Scenario,
    seed: u64,
    until: SimTime,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
) -> ChaosOutcome {
    let report = make().with_fault_plan(plan.clone()).run(until, seed);
    let violations = check(&report, plan, cfg);
    ChaosOutcome { report, violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_plan_is_deterministic_and_sorted() {
        let horizon = SimDuration::from_secs(10);
        let a = generate_plan(7, horizon, 12);
        let b = generate_plan(7, horizon, 12);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.len(), 12);
        let times: Vec<u64> = a.events.iter().map(|e| e.at.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        let c = generate_plan(8, horizon, 12);
        assert_ne!(a.render(), c.render());
    }

    #[test]
    fn shrink_drops_irrelevant_events() {
        // Failure depends only on the presence of a ControllerStall; the
        // shrinker should strip everything else and halve the stall.
        let horizon = SimDuration::from_secs(10);
        let plan = generate_plan(3, horizon, 16);
        assert!(plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::ControllerStall { .. })));
        let fails = |p: &FaultPlan| {
            p.events
                .iter()
                .any(|e| matches!(e.kind, FaultKind::ControllerStall { .. }))
        };
        let (small, runs) = shrink(&plan, fails, 500);
        assert!(runs > 0);
        assert_eq!(small.len(), 1, "minimal plan is a single stall");
        assert!(matches!(
            small.events[0].kind,
            FaultKind::ControllerStall { duration } if duration <= SimDuration::from_millis(10)
        ));
    }

    #[test]
    fn simplify_reaches_fixpoint() {
        // Every fault kind must stop shrinking eventually (no infinite
        // shrink loops).
        let plan = generate_plan(11, SimDuration::from_secs(5), 40);
        for ev in &plan.events {
            let mut k = ev.kind;
            let mut steps = 0;
            while let Some(next) = simplify(k) {
                k = next;
                steps += 1;
                assert!(steps < 100, "simplify({:?}) does not terminate", ev.kind);
            }
        }
    }
}
