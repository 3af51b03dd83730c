//! Scotch configuration.

use scotch_openflow::SelectionPolicy;
use scotch_sim::SimDuration;

/// How new flows are grouped into the controller's fair-share queues
/// (§5.2: "we can classify the flows into different groups and enforce
/// fair sharing of the SDN network across groups").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FairnessPolicy {
    /// One queue per (switch, ingress port) — the paper's worked example
    /// ("if a DDoS attack comes from one or a few ports, we can limit its
    /// impact to those ports only").
    IngressPort,
    /// One queue per source-address prefix of the given length. Useful
    /// when sources cannot spoof (ingress-filtered networks); against a
    /// whole-address-space spoofing flood it degenerates, because the
    /// attacker claims every queue — prefer [`FairnessPolicy::Customers`]
    /// there.
    SourcePrefix(u8),
    /// One queue per *known* customer block `(address, prefix_len)`, plus
    /// one shared default queue for every unknown source — the paper's
    /// "group the flows according to which customer it belongs to".
    /// Spoofed floods from arbitrary addresses all land in the default
    /// queue and can starve only its share.
    Customers(Vec<(scotch_net::IpAddr, u8)>),
    /// A single shared queue (no fairness; the E11 ablation arm).
    None,
}

/// How the monitor learns per-flow counters from the mesh vSwitches
/// (§5.3, plus the NetFlow-style sampling extension — see DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryConfig {
    /// Every stats poll returns the full per-flow table (the paper's
    /// design). Accurate, but at millions of flows the monitor drowns in
    /// records.
    Exhaustive,
    /// Each vSwitch samples forwarded packets with probability `rate`
    /// from a dedicated per-vSwitch RNG stream (geometric skip counter,
    /// so the per-packet cost is one decrement) and exports only flows
    /// with sampled traffic; the monitor scales counts by `1/rate`
    /// (Horvitz–Thompson estimation). `rate: 1.0` samples every packet
    /// and exports every installed flow, reproducing exhaustive-mode
    /// canonical reports byte-for-byte.
    Sampled {
        /// Per-packet sampling probability in `(0, 1]`.
        rate: f64,
    },
}

impl TelemetryConfig {
    /// The sampling rate, or `None` in exhaustive mode.
    pub fn sampling_rate(&self) -> Option<f64> {
        match self {
            TelemetryConfig::Exhaustive => None,
            TelemetryConfig::Sampled { rate } => Some(*rate),
        }
    }

    /// The inverse-probability factor the monitor multiplies sampled
    /// counts by. Exactly 1.0 in exhaustive mode and at `rate: 1.0`.
    pub fn scale(&self) -> f64 {
        match self {
            TelemetryConfig::Exhaustive => 1.0,
            TelemetryConfig::Sampled { rate } => 1.0 / rate,
        }
    }

    /// How long an overlay flow stays "live" after its last observed
    /// activity before withdrawal may tear it down. Exhaustive polling
    /// observes every flow every poll, so two poll intervals (plus a
    /// nanosecond so an exactly-on-time reply still counts) suffice.
    /// Under sampling a flow is only *observed* when one of its packets
    /// is sampled — roughly every `1/rate` polls for a slow flow — so
    /// the horizon stretches by `ceil(1/rate)`. At `rate: 1.0` the
    /// factor is 1 and this reproduces the exhaustive horizon exactly.
    pub fn live_horizon(&self, poll: SimDuration) -> SimDuration {
        let base = poll.0 * 2 + 1;
        match self {
            TelemetryConfig::Exhaustive => SimDuration(base),
            TelemetryConfig::Sampled { rate } => {
                SimDuration(base.saturating_mul((1.0 / rate).ceil() as u64))
            }
        }
    }

    /// Panic on nonsensical rates (programmer error, not runtime input).
    pub fn validate(&self) {
        if let TelemetryConfig::Sampled { rate } = self {
            assert!(
                *rate > 0.0 && *rate <= 1.0,
                "sampling rate must be in (0, 1], got {rate}"
            );
        }
    }
}

/// All Scotch tunables, with paper-calibrated defaults.
#[derive(Debug, Clone)]
pub struct ScotchConfig {
    /// Packet-In rate (per switch, flows/s) above which the overlay is
    /// activated (§4.2: the controller "monitors the rate of Packet-In
    /// messages ... to determine if the control path is congested").
    /// Default 160/s — 80 % of the Pica8 OFA capacity.
    pub activation_threshold: f64,
    /// New-flow rate below which withdrawal begins (§5.5). Must be well
    /// under the activation threshold to avoid flapping.
    pub withdrawal_threshold: f64,
    /// Consecutive seconds under the withdrawal threshold before
    /// withdrawing.
    pub withdrawal_hold: SimDuration,
    /// Per-switch rule budget `R`, rules/s. `None` uses each switch
    /// profile's lossless insertion rate (§6.1: "the OpenFlow controller
    /// should only insert the flow rules at a rate that does not cause
    /// installation failure").
    pub rule_budget: Option<f64>,
    /// Ingress queue length beyond which new flows are routed over the
    /// overlay (§5.2's *overlay threshold*).
    pub overlay_threshold: usize,
    /// Ingress queue length beyond which Packet-Ins are dropped (§5.2's
    /// *dropping threshold*).
    pub drop_threshold: usize,
    /// Enable per-ingress-port queues (disable for the E11 ablation: one
    /// shared queue per switch). Shorthand: `true` ≡
    /// [`FairnessPolicy::IngressPort`], `false` ≡ [`FairnessPolicy::None`];
    /// `fairness` overrides when set to `SourcePrefix`.
    pub ingress_differentiation: bool,
    /// Flow-grouping policy for the fair-share queues (§5.2).
    pub fairness: FairnessPolicy,
    /// Bucket selection for the load-balancing select group (§5.1).
    pub lb_policy: SelectionPolicy,
    /// Interval between FlowStats polls of the mesh vSwitches (§5.3).
    pub stats_poll_interval: SimDuration,
    /// A flow is an elephant once a poll sees it exceed this rate
    /// (packets/s) since the previous poll.
    pub elephant_pps: f64,
    /// Enable large-flow migration (disable for the A1 ablation).
    pub migration_enabled: bool,
    /// Idle timeout for per-flow rules (physical and vSwitch).
    pub rule_idle_timeout: SimDuration,
    /// Heartbeat probe period for vSwitch liveness (§5.6).
    pub heartbeat_period: SimDuration,
    /// Missed heartbeats before a vSwitch is declared failed.
    pub heartbeat_miss_limit: u32,
    /// Controller tick granularity (queue service, monitoring checks).
    pub tick_interval: SimDuration,
    /// TableFull-error rate (per switch, errors/s) that also activates the
    /// overlay — the §3.3 TCAM-exhaustion trigger.
    pub tcam_activation_threshold: f64,
    /// Optional controller Packet-In processing capacity (messages/s).
    /// `None` models the paper's assumption that "a single node
    /// multi-threaded controller can handle millions of PacketIn/sec"
    /// (§2) — i.e. the controller is never the bottleneck. Setting it
    /// exposes what happens when it is.
    pub controller_capacity: Option<f64>,
    /// Flow-telemetry mode for the §5.3 monitor: exhaustive per-flow
    /// stats polling (the paper's design) or sampled measurement with
    /// inverse-probability scaling.
    pub telemetry: TelemetryConfig,
    /// Match per-flow rules on the full 5-tuple (microflow rules, original
    /// Ethane/NOX style) instead of the paper's (source IP, destination
    /// IP) pair (§3.2). Microflow granularity makes *every* flow between a
    /// host pair reactive, which is what trace-driven workloads need.
    pub exact_match_rules: bool,
    /// Number of controller replicas in the cluster (DESIGN.md §16).
    /// `1` (the default) runs the single-controller engine byte-for-byte
    /// unchanged; `>= 2` activates per-switch mastership and failover.
    pub controllers: u32,
    /// One-way state-sync latency of the inter-controller coordination
    /// channel — the delay a mastership handoff pays before the new
    /// master may act, and the staleness bound on the shared flowdb /
    /// address book. Ignored when `controllers == 1`.
    pub sync_latency: SimDuration,
}

impl Default for ScotchConfig {
    fn default() -> Self {
        ScotchConfig {
            activation_threshold: 160.0,
            withdrawal_threshold: 80.0,
            withdrawal_hold: SimDuration::from_secs(2),
            rule_budget: None,
            overlay_threshold: 20,
            drop_threshold: 200,
            ingress_differentiation: true,
            fairness: FairnessPolicy::IngressPort,
            lb_policy: SelectionPolicy::FlowHash,
            stats_poll_interval: SimDuration::from_secs(1),
            elephant_pps: 300.0,
            migration_enabled: true,
            rule_idle_timeout: SimDuration::from_secs(10),
            heartbeat_period: SimDuration::from_secs(1),
            heartbeat_miss_limit: 3,
            tick_interval: SimDuration::from_millis(10),
            tcam_activation_threshold: 10.0,
            controller_capacity: None,
            telemetry: TelemetryConfig::Exhaustive,
            exact_match_rules: false,
            controllers: 1,
            sync_latency: SimDuration::from_micros(500),
        }
    }
}

impl ScotchConfig {
    /// The effective fairness policy, reconciling the legacy boolean with
    /// the richer enum.
    pub fn effective_fairness(&self) -> FairnessPolicy {
        if self.ingress_differentiation {
            self.fairness.clone()
        } else {
            FairnessPolicy::None
        }
    }

    /// Sanity-check invariants between thresholds. Called by the app at
    /// construction; panics on nonsensical configs (these are programmer
    /// errors, not runtime conditions).
    pub fn validate(&self) {
        assert!(
            self.withdrawal_threshold < self.activation_threshold,
            "withdrawal threshold must sit below activation (hysteresis)"
        );
        assert!(
            self.overlay_threshold < self.drop_threshold,
            "overlay threshold must sit below the dropping threshold"
        );
        assert!(self.tick_interval > SimDuration::ZERO);
        assert!(self.stats_poll_interval > SimDuration::ZERO);
        assert!(self.controllers >= 1, "need at least one controller");
        if self.controllers > 1 {
            assert!(
                self.sync_latency > SimDuration::ZERO,
                "a cluster needs a positive sync latency"
            );
        }
        self.telemetry.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ScotchConfig::default().validate();
    }

    #[test]
    fn defaults_match_paper_calibration() {
        let c = ScotchConfig::default();
        assert!(
            c.activation_threshold < 200.0,
            "must trip before OFA saturates"
        );
        assert!(c.withdrawal_threshold < c.activation_threshold);
        assert!(c.migration_enabled);
        assert!(c.ingress_differentiation);
        assert_eq!(c.rule_idle_timeout, SimDuration::from_secs(10));
    }

    #[test]
    fn telemetry_scale_is_exact_at_rate_one() {
        let t = TelemetryConfig::Sampled { rate: 1.0 };
        assert_eq!(t.scale(), 1.0);
        assert_eq!(t.sampling_rate(), Some(1.0));
        assert_eq!(TelemetryConfig::Exhaustive.scale(), 1.0);
        assert_eq!(TelemetryConfig::Exhaustive.sampling_rate(), None);
    }

    #[test]
    fn live_horizon_scales_with_inverse_rate() {
        let poll = SimDuration::from_secs(1);
        let base = TelemetryConfig::Exhaustive.live_horizon(poll);
        assert_eq!(base, SimDuration(poll.0 * 2 + 1));
        // rate: 1.0 must reproduce the exhaustive horizon exactly.
        assert_eq!(
            TelemetryConfig::Sampled { rate: 1.0 }.live_horizon(poll),
            base
        );
        // rate 1/64 → a slow flow is observed every ~64 polls.
        let sparse = TelemetryConfig::Sampled { rate: 1.0 / 64.0 }.live_horizon(poll);
        assert_eq!(sparse, SimDuration(base.0 * 64));
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn zero_sampling_rate_panics() {
        let c = ScotchConfig {
            telemetry: TelemetryConfig::Sampled { rate: 0.0 },
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn oversized_sampling_rate_panics() {
        TelemetryConfig::Sampled { rate: 1.5 }.validate();
    }

    #[test]
    #[should_panic(expected = "at least one controller")]
    fn zero_controllers_panics() {
        let c = ScotchConfig {
            controllers: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sync latency")]
    fn cluster_without_sync_latency_panics() {
        let c = ScotchConfig {
            controllers: 3,
            sync_latency: SimDuration::ZERO,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_panic() {
        let c = ScotchConfig {
            withdrawal_threshold: 500.0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "dropping")]
    fn inverted_queue_thresholds_panic() {
        let c = ScotchConfig {
            overlay_threshold: 300,
            drop_threshold: 200,
            ..Default::default()
        };
        c.validate();
    }
}
