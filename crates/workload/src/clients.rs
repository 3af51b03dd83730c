//! Legitimate client traffic.
//!
//! §3.2's client "attempts to initiate new flows to the server" at a fixed
//! rate (100 flows/s in the paper, each new flow one spoof-free packet —
//! "we simulate the new flows by spoofing each packet's source IP address"
//! applies to both client and attacker in the testbed; we keep the client's
//! source fixed and vary its ephemeral port, which creates a fresh 5-tuple
//! per flow all the same).

use crate::{FlowArrival, FlowIdStream, FlowSource, FlowSpec};
use scotch_net::{FlowKey, IpAddr};
use scotch_sim::{SimDuration, SimRng, SimTime};

/// How many packets a generated flow carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowSize {
    /// Every flow has exactly `n` packets (the paper's new-flow-per-packet
    /// probes are `Fixed(1)`).
    Fixed(u32),
    /// Bounded Pareto over `[lo, hi]` packets with shape `alpha` — the
    /// heavy-tailed mice/elephants mix.
    Pareto {
        /// Minimum packets.
        lo: u32,
        /// Maximum packets.
        hi: u32,
        /// Tail index (1.1–1.3 is typical of DC measurements).
        alpha: f64,
    },
}

impl FlowSize {
    /// Draw a flow size.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        match self {
            FlowSize::Fixed(n) => (*n).max(1),
            FlowSize::Pareto { lo, hi, alpha } => {
                rng.bounded_pareto(*lo as f64, *hi as f64, *alpha).round() as u32
            }
        }
    }
}

/// A client opening flows to one server at a constant rate.
#[derive(Debug, Clone)]
pub struct ClientWorkload {
    /// New-flow rate, flows/s.
    pub rate: f64,
    /// Client address.
    pub src: IpAddr,
    /// Server address.
    pub dst: IpAddr,
    /// Server port.
    pub dport: u16,
    /// Flow size distribution.
    pub size: FlowSize,
    /// Packet size within flows.
    pub packet_size: u32,
    /// Intra-flow packet gap.
    pub packet_interval: SimDuration,
    /// When set, each flow's source address is drawn from
    /// `src + [0, spoof_range)` — the paper's probe methodology: "we
    /// simulate the new flows by spoofing each packet's source IP
    /// address" (§3.2), which applies to the client as well as the
    /// attacker, so every probe is a fresh (src, dst) rule.
    pub spoof_range: Option<u32>,
    poisson: bool,
    /// Activation start (kept for introspection; arrivals begin here).
    #[allow(dead_code)]
    start: SimTime,
    end: SimTime,
    next_at: Option<SimTime>,
    next_sport: u16,
    next_spoof: u32,
    ids: FlowIdStream,
    rng: SimRng,
}

impl ClientWorkload {
    /// A client sending `rate` new flows/s from `src` to `dst`, active
    /// `[start, end)`. Defaults: single-packet 64 B flows (the paper's
    /// probe traffic).
    pub fn new(
        rate: f64,
        src: IpAddr,
        dst: IpAddr,
        start: SimTime,
        end: SimTime,
        ids: FlowIdStream,
        rng: SimRng,
    ) -> Self {
        assert!(rate > 0.0, "client rate must be positive");
        ClientWorkload {
            rate,
            src,
            dst,
            dport: 80,
            size: FlowSize::Fixed(1),
            packet_size: 64,
            packet_interval: SimDuration::from_millis(1),
            spoof_range: None,
            poisson: false,
            start,
            end,
            next_at: Some(start),
            next_sport: 1024,
            next_spoof: 0,
            ids,
            rng,
        }
    }

    /// Builder: spoof the source address over a range of `n` addresses
    /// starting at `src` (round-robin, so flow keys stay deterministic).
    pub fn with_spoofed_sources(mut self, n: u32) -> Self {
        assert!(n >= 1);
        self.spoof_range = Some(n);
        self
    }

    /// Builder: Poisson flow inter-arrivals instead of constant spacing.
    /// Constant spacing phase-locks with deterministic service periods in
    /// the switch models (an artifact a real client's OS jitter destroys),
    /// so measurement scenarios should prefer this.
    pub fn poisson(mut self) -> Self {
        self.poisson = true;
        self
    }

    /// Builder: flow size distribution.
    pub fn with_size(mut self, size: FlowSize) -> Self {
        self.size = size;
        self
    }

    /// Builder: packet size.
    pub fn with_packet_size(mut self, bytes: u32) -> Self {
        self.packet_size = bytes;
        self
    }

    /// Builder: intra-flow packet interval.
    pub fn with_packet_interval(mut self, gap: SimDuration) -> Self {
        self.packet_interval = gap;
        self
    }
}

impl FlowSource for ClientWorkload {
    fn next_arrival(&mut self) -> Option<FlowArrival> {
        let at = self.next_at?;
        if at >= self.end {
            self.next_at = None;
            return None;
        }
        let gap = if self.poisson {
            self.rng.exp(1.0 / self.rate)
        } else {
            1.0 / self.rate
        };
        self.next_at = Some(at + SimDuration::from_secs_f64(gap).max(SimDuration::from_nanos(1)));

        let sport = self.next_sport;
        // Walk the ephemeral range, skipping the reserved low ports on
        // wrap.
        self.next_sport = if sport == u16::MAX { 1024 } else { sport + 1 };
        let src = match self.spoof_range {
            Some(n) => {
                let s = IpAddr(self.src.0 + self.next_spoof);
                self.next_spoof = (self.next_spoof + 1) % n;
                s
            }
            None => self.src,
        };
        let key = FlowKey::tcp(src, sport, self.dst, self.dport);
        let packets = self.size.sample(&mut self.rng);
        Some(FlowArrival {
            at,
            flow: FlowSpec {
                id: self.ids.next_id(),
                key,
                packets,
                packet_size: self.packet_size,
                packet_interval: self.packet_interval,
                is_attack: false,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowIdAllocator;

    fn client(rate: f64, secs: u64) -> ClientWorkload {
        let mut alloc = FlowIdAllocator::new();
        ClientWorkload::new(
            rate,
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 0, 2),
            SimTime::ZERO,
            SimTime::from_secs(secs),
            alloc.stream(),
            SimRng::new(11),
        )
    }

    #[test]
    fn paper_rate_100_flows_per_second() {
        let mut c = client(100.0, 2);
        let flows: Vec<_> = std::iter::from_fn(|| c.next_arrival()).collect();
        assert_eq!(flows.len(), 200);
        assert!(flows.iter().all(|f| !f.flow.is_attack));
    }

    #[test]
    fn each_flow_has_fresh_five_tuple() {
        let mut c = client(500.0, 1);
        let keys: scotch_sim::FxHashSet<_> = std::iter::from_fn(|| c.next_arrival())
            .map(|f| f.flow.key)
            .collect();
        assert_eq!(keys.len(), 500);
    }

    #[test]
    fn pareto_sizes_are_heavy_tailed() {
        let mut c = client(2000.0, 5).with_size(FlowSize::Pareto {
            lo: 1,
            hi: 100_000,
            alpha: 1.2,
        });
        let mut sizes: Vec<u64> = std::iter::from_fn(|| c.next_arrival())
            .map(|f| f.flow.packets as u64)
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sizes.iter().sum();
        let top10: u64 = sizes.iter().take(sizes.len() / 10).sum();
        assert!(
            top10 as f64 / total as f64 > 0.5,
            "top-10% flows carry {:.2} of bytes",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn sport_wraps_into_ephemeral_range() {
        let mut c = client(10.0, 1);
        c.next_sport = u16::MAX;
        let a = c.next_arrival().unwrap();
        let b = c.next_arrival().unwrap();
        assert_eq!(a.flow.key.sport, u16::MAX);
        assert_eq!(b.flow.key.sport, 1024);
    }

    #[test]
    fn fixed_size_zero_clamps_to_one() {
        let mut rng = SimRng::new(1);
        assert_eq!(FlowSize::Fixed(0).sample(&mut rng), 1);
    }
}
