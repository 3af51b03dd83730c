//! The OpenFlow Agent (OFA) model.
//!
//! §3.1: "One problem with the current OpenFlow switch implementation is
//! that the OFA typically runs on a low end CPU that has limited processing
//! power." The OFA is the control-path bottleneck Scotch works around; its
//! three measured behaviours are modelled here:
//!
//! 1. **Packet-In generation** (Fig. 3/4): a FIFO served at
//!    `packet_in_capacity` messages/s with a bounded queue. Overflowing
//!    table-miss packets are lost — the "client flow failure" of Fig. 3.
//! 2. **Rule insertion** (Fig. 9): lossless up to `rule_insert_lossless`;
//!    past that, per-request success probability follows a calibrated
//!    saturation curve that plateaus at `rule_insert_ceiling`. We measured
//!    the aggregate curve (the paper's Fig. 9) and apply it per request
//!    using an EWMA of the attempted rate — mechanistic enough to respond
//!    to time-varying load, simple enough to document.
//! 3. **Data/control interaction** (Fig. 10): the attempted-insertion EWMA
//!    is exported so the switch's data plane can model the shared-CPU
//!    collapse past the knee.

use crate::profile::SwitchProfile;
use scotch_sim::rate::{Admission, Ewma, FifoServer};
use scotch_sim::{SimDuration, SimRng, SimTime};

/// Counters the OFA keeps (read by benchmarks and the controller's
/// monitoring, Fig. 4's three series come from these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OfaStats {
    /// Packet-In messages successfully generated.
    pub packet_in_sent: u64,
    /// Table-miss packets lost to Packet-In queue overflow.
    pub packet_in_dropped: u64,
    /// FlowMod insertions attempted by the controller.
    pub rules_attempted: u64,
    /// FlowMod insertions that took effect.
    pub rules_inserted: u64,
    /// FlowMod insertions lost to OFA overload.
    pub rules_failed: u64,
}

impl OfaStats {
    /// Register these counters into a
    /// [`MetricsRegistry`](scotch_sim::MetricsRegistry) under
    /// `<prefix>.<field>` — the unified export surface for reports and
    /// sweep manifests (the struct itself stays the hot-path increment
    /// site).
    pub fn register_metrics(&self, prefix: &str, reg: &mut scotch_sim::MetricsRegistry) {
        reg.add(&format!("{prefix}.packet_in_sent"), self.packet_in_sent);
        reg.add(
            &format!("{prefix}.packet_in_dropped"),
            self.packet_in_dropped,
        );
        reg.add(&format!("{prefix}.rules_attempted"), self.rules_attempted);
        reg.add(&format!("{prefix}.rules_inserted"), self.rules_inserted);
        reg.add(&format!("{prefix}.rules_failed"), self.rules_failed);
    }
}

/// The software agent of one switch.
#[derive(Debug, Clone)]
pub struct Ofa {
    /// Packet-In pipeline.
    packet_in: FifoServer,
    packet_in_service: SimDuration,
    /// Attempted rule-insertion rate estimate (drives Fig. 9 & Fig. 10
    /// behaviour).
    insert_rate: Ewma,
    /// Insertion completion pipeline (delay only; success is decided by the
    /// curve).
    insert_server: FifoServer,
    insert_service: SimDuration,
    lossless: f64,
    ceiling: f64,
    /// Saturation curve time constant, rules/s.
    tau: f64,
    /// Service-time multiplier (fault injection: OFA slowdown). 1.0 is the
    /// healthy agent; larger values slow both pipelines proportionally.
    slowdown: f64,
    stats: OfaStats,
    rng: SimRng,
}

impl Ofa {
    /// Build an OFA from a device profile. `rng` decides individual
    /// insertion successes in the overloaded regime.
    pub fn new(profile: &SwitchProfile, rng: SimRng) -> Self {
        // τ = (ceiling − lossless) keeps the curve's initial slope at 1, so
        // success never exceeds the attempted rate (Fig. 9 stays concave
        // and below the identity line).
        let tau = (profile.rule_insert_ceiling - profile.rule_insert_lossless).max(1.0);
        Ofa {
            packet_in: FifoServer::new(profile.packet_in_queue),
            packet_in_service: FifoServer::service_time(profile.packet_in_capacity),
            insert_rate: Ewma::new(SimDuration::from_millis(250)),
            insert_server: FifoServer::new(usize::MAX >> 1),
            insert_service: FifoServer::service_time(profile.rule_insert_ceiling),
            lossless: profile.rule_insert_lossless,
            ceiling: profile.rule_insert_ceiling,
            tau,
            slowdown: 1.0,
            stats: OfaStats::default(),
            rng,
        }
    }

    /// Set the service-time multiplier (fault injection). `1.0` restores
    /// the healthy agent; `k > 1` makes Packet-In generation and rule
    /// insertion `k`× slower.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "OFA slowdown factor must be positive, got {factor}"
        );
        self.slowdown = factor;
    }

    /// Current service-time multiplier (1.0 when healthy).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// A service time scaled by the active slowdown factor.
    fn scaled(&self, d: SimDuration) -> SimDuration {
        if self.slowdown == 1.0 {
            d
        } else {
            SimDuration::from_nanos((d.as_nanos() as f64 * self.slowdown).round() as u64)
        }
    }

    /// Offer a table-miss packet to the Packet-In path. Returns the time
    /// the Packet-In message leaves the OFA, or `None` if the queue
    /// overflowed and the packet is lost.
    pub fn offer_packet_in(&mut self, now: SimTime) -> Option<SimTime> {
        let service = self.scaled(self.packet_in_service);
        match self.packet_in.offer(now, service) {
            Admission::Accepted { departs_at } => {
                self.stats.packet_in_sent += 1;
                Some(departs_at)
            }
            Admission::Rejected => {
                self.stats.packet_in_dropped += 1;
                None
            }
        }
    }

    /// The aggregate successful-insertion rate at attempted rate `lambda`
    /// (the Fig. 9 curve).
    ///
    /// * `lambda ≤ lossless`: everything succeeds.
    /// * above: `lossless + (ceiling − lossless)·(1 − e^−(λ−lossless)/τ)`,
    ///   a concave rise flattening at the ceiling, matching the measured
    ///   plot.
    pub fn insertion_success_rate(&self, lambda: f64) -> f64 {
        if lambda <= self.lossless {
            lambda
        } else {
            let curve = self.lossless
                + (self.ceiling - self.lossless)
                    * (1.0 - (-(lambda - self.lossless) / self.tau).exp());
            curve.min(lambda)
        }
    }

    /// Offer one FlowMod insertion. Returns the time the rule takes effect,
    /// or `None` if the OFA lost it (Fig. 9's failed insertions).
    pub fn offer_rule_insert(&mut self, now: SimTime) -> Option<SimTime> {
        self.stats.rules_attempted += 1;
        let lambda = self.insert_rate.observe(now).max(1e-9);
        let p_success = (self.insertion_success_rate(lambda) / lambda).clamp(0.0, 1.0);
        if !self.rng.chance(p_success) {
            self.stats.rules_failed += 1;
            return None;
        }
        let service = self.scaled(self.insert_service);
        match self.insert_server.offer(now, service) {
            Admission::Accepted { departs_at } => {
                self.stats.rules_inserted += 1;
                Some(departs_at)
            }
            Admission::Rejected => {
                self.stats.rules_failed += 1;
                None
            }
        }
    }

    /// Current attempted-insertion rate estimate (rules/s) — the quantity
    /// Fig. 10's x-axis sweeps.
    pub fn attempted_insert_rate(&self, now: SimTime) -> f64 {
        self.insert_rate.value(now)
    }

    /// Whether [`Ofa::attempted_insert_rate`] at `now` is at least `knee`.
    /// Decay only lowers the estimate, so an undecayed rate already below
    /// the knee answers without computing the decay.
    pub fn insert_rate_reaches(&self, now: SimTime, knee: f64) -> bool {
        self.insert_rate.undecayed() >= knee && self.insert_rate.value(now) >= knee
    }

    /// Counter snapshot.
    pub fn stats(&self) -> OfaStats {
        self.stats
    }

    /// Current Packet-In backlog (diagnostic).
    pub fn packet_in_backlog(&mut self, now: SimTime) -> usize {
        self.packet_in.backlog(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SwitchProfile;

    fn pica8() -> Ofa {
        Ofa::new(&SwitchProfile::pica8_pronto_3780(), SimRng::new(1))
    }

    /// Drive `n` table-miss packets at `rate`/s; return achieved Packet-In
    /// rate.
    fn drive_packet_in(ofa: &mut Ofa, rate: f64, seconds: f64) -> f64 {
        let n = (rate * seconds) as u64;
        let gap = 1e9 / rate;
        let mut sent = 0u64;
        for i in 0..n {
            let now = SimTime::from_nanos((i as f64 * gap) as u64);
            if ofa.offer_packet_in(now).is_some() {
                sent += 1;
            }
        }
        sent as f64 / seconds
    }

    #[test]
    fn packet_in_underload_is_lossless() {
        let mut ofa = pica8();
        let achieved = drive_packet_in(&mut ofa, 100.0, 10.0);
        assert_eq!(achieved, 100.0);
        assert_eq!(ofa.stats().packet_in_dropped, 0);
    }

    #[test]
    fn packet_in_saturates_at_capacity() {
        // Fig. 4: achieved Packet-In rate tops out at the OFA capacity.
        let mut ofa = pica8();
        let achieved = drive_packet_in(&mut ofa, 2000.0, 10.0);
        assert!(
            (achieved - 200.0).abs() < 15.0,
            "achieved {achieved}/s, want ~200/s"
        );
        assert!(ofa.stats().packet_in_dropped > 0);
    }

    #[test]
    fn packet_in_departures_are_ordered() {
        let mut ofa = pica8();
        let a = ofa.offer_packet_in(SimTime::ZERO).unwrap();
        let b = ofa.offer_packet_in(SimTime::ZERO).unwrap();
        assert!(b > a);
        assert_eq!(b.duration_since(a), SimDuration::from_millis(5)); // 200/s
    }

    #[test]
    fn fig9_curve_shape() {
        let ofa = pica8();
        // Lossless region: identity.
        assert_eq!(ofa.insertion_success_rate(100.0), 100.0);
        assert_eq!(ofa.insertion_success_rate(200.0), 200.0);
        // Overload region: concave, below attempted, plateauing.
        let s600 = ofa.insertion_success_rate(600.0);
        let s1000 = ofa.insertion_success_rate(1000.0);
        let s3000 = ofa.insertion_success_rate(3000.0);
        assert!(s600 > 200.0 && s600 < 600.0);
        assert!(s1000 > s600);
        assert!(s3000 > s1000);
        assert!(s3000 <= 1000.0 + 1e-6);
        assert!(s3000 > 950.0, "plateau ≈ ceiling, got {s3000}");
    }

    /// Drive insertions at `rate`/s for `seconds`; return successful rate.
    fn drive_inserts(ofa: &mut Ofa, rate: f64, seconds: f64) -> f64 {
        let n = (rate * seconds) as u64;
        let gap = 1e9 / rate;
        let mut ok = 0u64;
        for i in 0..n {
            let now = SimTime::from_nanos((i as f64 * gap) as u64);
            if ofa.offer_rule_insert(now).is_some() {
                ok += 1;
            }
        }
        ok as f64 / seconds
    }

    #[test]
    fn insertions_lossless_below_budget() {
        let mut ofa = pica8();
        let ok = drive_inserts(&mut ofa, 150.0, 10.0);
        assert_eq!(ok, 150.0);
        assert_eq!(ofa.stats().rules_failed, 0);
    }

    #[test]
    fn insertions_saturate_like_fig9() {
        // At 2000 attempted/s the successful rate should sit near the
        // 1000/s plateau.
        let mut ofa = pica8();
        let ok = drive_inserts(&mut ofa, 2000.0, 10.0);
        assert!((850.0..1100.0).contains(&ok), "successful rate {ok}/s");
    }

    #[test]
    fn insert_rate_reaches_agrees_with_the_decayed_estimate() {
        let mut ofa = pica8();
        let knees = [0.0, 1.0, 400.0, 999.0, 1000.0, 1300.0, 1e6];
        for i in 0..2000u64 {
            // 1000 inserts/s for 2 s, probed at and after each insert.
            let now = SimTime::from_nanos(i * 1_000_000);
            ofa.offer_rule_insert(now);
            for probe in [now, now + SimDuration::from_micros(700)] {
                for knee in knees {
                    assert_eq!(
                        ofa.insert_rate_reaches(probe, knee),
                        ofa.attempted_insert_rate(probe) >= knee,
                        "knee {knee} at {probe:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn attempted_rate_estimator_tracks() {
        let mut ofa = pica8();
        for i in 0..2000u64 {
            // 1000 inserts/s for 2 s.
            ofa.offer_rule_insert(SimTime::from_nanos(i * 1_000_000));
        }
        let est = ofa.attempted_insert_rate(SimTime::from_secs(2));
        assert!((est - 1000.0).abs() < 150.0, "est={est}");
    }

    #[test]
    fn vswitch_ofa_is_much_faster() {
        let mut hw = pica8();
        let mut sw = Ofa::new(&SwitchProfile::open_vswitch(), SimRng::new(2));
        let hw_rate = drive_packet_in(&mut hw, 20_000.0, 5.0);
        let sw_rate = drive_packet_in(&mut sw, 20_000.0, 5.0);
        assert!(sw_rate > 40.0 * hw_rate, "hw={hw_rate} sw={sw_rate}");
    }

    #[test]
    fn slowdown_scales_packet_in_service() {
        let mut ofa = pica8();
        ofa.set_slowdown(4.0);
        let a = ofa.offer_packet_in(SimTime::ZERO).unwrap();
        let b = ofa.offer_packet_in(SimTime::ZERO).unwrap();
        // 200/s healthy → 5 ms; 4× slowdown → 20 ms between departures.
        assert_eq!(b.duration_since(a), SimDuration::from_millis(20));
        ofa.set_slowdown(1.0);
        assert_eq!(ofa.slowdown(), 1.0);
    }

    #[test]
    fn slowdown_cuts_achieved_packet_in_rate() {
        let mut ofa = pica8();
        ofa.set_slowdown(10.0);
        let achieved = drive_packet_in(&mut ofa, 2000.0, 10.0);
        // Healthy plateau ~200/s; 10× slowdown → ~20/s served, plus the
        // one-time 64-slot queue fill (64/10 s = 6.4/s of admissions).
        let expected = 20.0 + 64.0 / 10.0;
        assert!((achieved - expected).abs() < 5.0, "achieved {achieved}/s");
    }

    #[test]
    fn stats_are_consistent() {
        let mut ofa = pica8();
        drive_inserts(&mut ofa, 1000.0, 2.0);
        let s = ofa.stats();
        assert_eq!(s.rules_attempted, s.rules_inserted + s.rules_failed);
    }
}
