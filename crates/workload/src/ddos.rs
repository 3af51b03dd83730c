//! The spoofed-source DDoS attacker.
//!
//! §3.2: "a DDoS attacker generates SYN attack packets using spoofed
//! source IP addresses. The switch treats each spoofed packet as a new
//! flow … in our experiment, the flow rate, i.e., the number of new flows
//! per second, is equivalent to the packet rate." Generated with hping3 at
//! constant rate in the paper; we default to constant spacing with an
//! optional Poisson mode.

use crate::{FlowArrival, FlowIdStream, FlowSource, FlowSpec};
use scotch_net::{FlowKey, IpAddr};
use scotch_sim::{SimDuration, SimRng, SimTime};

/// Packet spacing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spacing {
    /// Constant inter-arrival (hping3 `-i` style).
    Constant,
    /// Poisson process at the same mean rate.
    Poisson,
}

/// A spoofed-source flood towards one victim.
#[derive(Debug, Clone)]
pub struct DdosAttacker {
    /// Attack rate: new flows (= packets) per second.
    pub rate: f64,
    /// Victim address.
    pub target: IpAddr,
    /// Victim port.
    pub target_port: u16,
    /// Attack packet size (64 B SYNs by default; the paper notes even
    /// 1.5 KB packets leave the data plane idle).
    pub packet_size: u32,
    spacing: Spacing,
    /// Activation start (kept for introspection; arrivals begin here).
    #[allow(dead_code)]
    start: SimTime,
    end: SimTime,
    next_at: Option<SimTime>,
    ids: FlowIdStream,
    rng: SimRng,
}

impl DdosAttacker {
    /// A flood of `rate` flows/s against `target`, active `[start, end)`.
    pub fn new(
        rate: f64,
        target: IpAddr,
        start: SimTime,
        end: SimTime,
        ids: FlowIdStream,
        rng: SimRng,
    ) -> Self {
        assert!(rate > 0.0, "attack rate must be positive");
        DdosAttacker {
            rate,
            target,
            target_port: 80,
            packet_size: 64,
            spacing: Spacing::Constant,
            start,
            end,
            next_at: Some(start),
            ids,
            rng,
        }
    }

    /// Builder: Poisson spacing instead of constant.
    pub fn poisson(mut self) -> Self {
        self.spacing = Spacing::Poisson;
        self
    }

    fn gap(&mut self) -> SimDuration {
        match self.spacing {
            Spacing::Constant => SimDuration::from_secs_f64(1.0 / self.rate),
            Spacing::Poisson => SimDuration::from_secs_f64(self.rng.exp(1.0 / self.rate)),
        }
    }
}

impl FlowSource for DdosAttacker {
    fn next_arrival(&mut self) -> Option<FlowArrival> {
        let at = self.next_at?;
        if at >= self.end {
            self.next_at = None;
            return None;
        }
        let gap = self.gap();
        self.next_at = Some(at + gap.max(SimDuration::from_nanos(1)));

        // Spoofed source: uniform over the IPv4 space; the ephemeral port
        // varies too, as hping3 does.
        let src = IpAddr(self.rng.u32());
        let sport = 1024 + (self.rng.u32() % 60_000) as u16;
        let key = FlowKey::tcp(src, sport, self.target, self.target_port);
        Some(FlowArrival {
            at,
            flow: FlowSpec {
                id: self.ids.next_id(),
                key,
                packets: 1,
                packet_size: self.packet_size,
                packet_interval: SimDuration::from_millis(1),
                is_attack: true,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowIdAllocator;

    fn attacker(rate: f64) -> DdosAttacker {
        let mut alloc = FlowIdAllocator::new();
        DdosAttacker::new(
            rate,
            IpAddr::new(10, 0, 0, 2),
            SimTime::ZERO,
            SimTime::from_secs(1),
            alloc.stream(),
            SimRng::new(5),
        )
    }

    #[test]
    fn constant_rate_produces_expected_count() {
        let mut a = attacker(1000.0);
        let flows: Vec<_> = std::iter::from_fn(|| a.next_arrival()).collect();
        assert_eq!(flows.len(), 1000);
        // Evenly spaced by 1 ms.
        assert_eq!(flows[1].at - flows[0].at, SimDuration::from_millis(1));
    }

    #[test]
    fn every_packet_is_a_new_flow() {
        let mut a = attacker(500.0);
        let mut keys = scotch_sim::FxHashSet::default();
        let mut n = 0;
        while let Some(f) = a.next_arrival() {
            assert_eq!(f.flow.packets, 1);
            assert!(f.flow.is_attack);
            keys.insert(f.flow.key);
            n += 1;
        }
        // Spoofed sources: virtually all keys distinct.
        assert!(keys.len() as f64 > 0.99 * n as f64);
    }

    #[test]
    fn arrivals_are_monotone_and_bounded() {
        let mut a = attacker(2000.0).poisson();
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(f) = a.next_arrival() {
            assert!(f.at >= last);
            assert!(f.at < SimTime::from_secs(1));
            last = f.at;
            count += 1;
        }
        // Poisson at 2000/s over 1 s: expect ~2000 ± 5σ.
        assert!((1700..2300).contains(&count), "count={count}");
    }

    #[test]
    fn targets_the_victim() {
        let mut a = attacker(100.0);
        let f = a.next_arrival().unwrap();
        assert_eq!(f.flow.key.dst, IpAddr::new(10, 0, 0, 2));
        assert_eq!(f.flow.key.dport, 80);
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = || {
            let mut a = attacker(300.0);
            std::iter::from_fn(move || a.next_arrival())
                .map(|f| (f.at, f.flow.key))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }
}
