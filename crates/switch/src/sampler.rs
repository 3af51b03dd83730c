//! Deterministic per-packet telemetry sampling.
//!
//! NetFlow-style sampled measurement ("Reinventing NetFlow for OpenFlow
//! Software-Defined Networks"): instead of counting every packet into the
//! exported stats, the vSwitch picks each forwarded packet independently
//! with probability `rate` and counts only the picks. The monitor then
//! multiplies sampled counts by `1/rate` (Horvitz–Thompson) to estimate
//! true volumes.
//!
//! The per-packet decision stream is drawn from a dedicated [`SimRng`]
//! forked off the scenario seed per vSwitch (the same forking discipline
//! as the fault engine), so the full sample sequence is bit-reproducible
//! per `(scenario, seed, rate)` and one vSwitch's draws never depend on
//! another's traffic.
//!
//! Rather than drawing one uniform per packet, the sampler draws a
//! *geometric skip*: the number of consecutive non-sampled packets before
//! the next sample (`P(gap = k) = rate·(1−rate)^k`). The steady-state
//! per-packet cost is a single counter decrement, and one RNG draw per
//! *sampled* packet — at rate 1/64 that is ~64× fewer draws than naive
//! per-packet Bernoulli. At `rate ≥ 1.0` every packet is sampled with no
//! RNG draw at all, which is what makes `sampled { rate: 1.0 }` degrade
//! exactly (bit-for-bit) to exhaustive counting.

use scotch_sim::SimRng;

/// A geometric-skip packet sampler owned by one vSwitch.
#[derive(Debug, Clone)]
pub struct PacketSampler {
    rate: f64,
    /// Packets still to pass un-sampled before the next sampled one.
    skip: u64,
    rng: SimRng,
}

impl PacketSampler {
    /// A sampler picking each packet with probability `rate ∈ (0, 1]`.
    pub fn new(rate: f64, rng: SimRng) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "sampling rate must be in (0, 1], got {rate}"
        );
        let mut s = PacketSampler { rate, skip: 0, rng };
        if s.rate < 1.0 {
            s.skip = s.draw_gap();
        }
        s
    }

    /// The configured sampling probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Inverse-transform sample of the geometric gap before the next pick.
    fn draw_gap(&mut self) -> u64 {
        let u = self.rng.f64();
        // u ∈ [0,1) ⇒ ln(1−u) ∈ (−∞, 0]; ln(1−rate) < 0 for rate < 1.
        // u = 0 gives gap 0 (sample immediately); the `as` cast saturates
        // the (unreachable in practice) +∞ case.
        ((1.0 - u).ln() / (1.0 - self.rate).ln()).floor() as u64
    }

    /// Advance past one forwarded packet; `true` means *sample it*.
    pub fn tick(&mut self) -> bool {
        if self.rate >= 1.0 {
            return true;
        }
        if self.skip == 0 {
            self.skip = self.draw_gap();
            true
        } else {
            self.skip -= 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_one_samples_every_packet() {
        let mut s = PacketSampler::new(1.0, SimRng::new(7));
        assert!((0..10_000).all(|_| s.tick()));
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = PacketSampler::new(1.0 / 16.0, SimRng::new(42));
        let mut b = PacketSampler::new(1.0 / 16.0, SimRng::new(42));
        for _ in 0..50_000 {
            assert_eq!(a.tick(), b.tick());
        }
    }

    #[test]
    fn empirical_frequency_tracks_rate() {
        for &rate in &[0.5, 0.25, 1.0 / 64.0] {
            let mut s = PacketSampler::new(rate, SimRng::new(1234));
            let n = 400_000;
            let picked = (0..n).filter(|_| s.tick()).count();
            let observed = picked as f64 / n as f64;
            assert!(
                (observed - rate).abs() < rate * 0.1,
                "rate {rate}: observed {observed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn zero_rate_panics() {
        PacketSampler::new(0.0, SimRng::new(1));
    }
}
