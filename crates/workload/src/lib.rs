#![warn(missing_docs)]

//! # scotch-workload
//!
//! Traffic generators reproducing the paper's workloads:
//!
//! * [`ddos::DdosAttacker`] — the hping3 spoofed-source SYN flood of §3.2:
//!   every packet is a fresh flow ("the flow rate … is equivalent to the
//!   packet rate").
//! * [`clients::ClientWorkload`] — the legitimate client initiating new
//!   flows at a fixed rate (100 flows/s in the paper's experiments).
//! * [`flash::FlashCrowd`] — a legitimate load surge: the arrival rate
//!   ramps up to a peak and back down.
//! * [`trace::TraceWorkload`] — a synthetic data-center trace with Poisson
//!   flow arrivals and bounded-Pareto flow sizes, matching the measurement
//!   the paper leans on ("the majority of link capacity is consumed by a
//!   small fraction of large flows", paper reference 1).
//!
//! All generators implement [`FlowSource`]: a pull-based iterator of
//! [`FlowArrival`]s, so the composition root can lazily interleave any
//! number of sources in one deterministic event stream. The sources are
//! open loop, so [`feed::ArrivalFeed`] can draw them ahead of the
//! simulation on a helper thread.

pub mod clients;
pub mod ddos;
pub mod feed;
pub mod flash;
pub mod trace;

pub use feed::ArrivalFeed;

use scotch_net::{FlowId, FlowKey};
use scotch_sim::{SimDuration, SimTime};

/// A flow to be injected by a source host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Accounting id (unique across generators).
    pub id: FlowId,
    /// The 5-tuple.
    pub key: FlowKey,
    /// Number of packets in the flow (≥ 1; the first is the
    /// `FlowStart`).
    pub packets: u32,
    /// Size of each packet in bytes.
    pub packet_size: u32,
    /// Inter-packet gap within the flow.
    pub packet_interval: SimDuration,
    /// True for attack traffic (metrics-only marker).
    pub is_attack: bool,
}

impl FlowSpec {
    /// Total bytes the flow will carry.
    pub fn total_bytes(&self) -> u64 {
        self.packets as u64 * self.packet_size as u64
    }

    /// Duration from first to last packet emission.
    pub fn duration(&self) -> SimDuration {
        SimDuration(self.packet_interval.0 * self.packets.saturating_sub(1) as u64)
    }
}

/// One flow arrival produced by a generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowArrival {
    /// When the flow's first packet is emitted.
    pub at: SimTime,
    /// The flow.
    pub flow: FlowSpec,
}

/// A pull-based stream of flow arrivals with non-decreasing timestamps.
///
/// Sources are open loop: the stream depends only on the source's own
/// state, never on the simulation. `Send` lets [`ArrivalFeed`] draw it on
/// a helper thread.
pub trait FlowSource: Send {
    /// The next arrival, or `None` when the source is exhausted.
    fn next_arrival(&mut self) -> Option<FlowArrival>;
}

/// Allocates globally unique flow ids to generators.
///
/// Each generator gets a distinct 16-bit stream id; the low 48 bits count
/// flows within the stream.
#[derive(Debug, Clone, Default)]
pub struct FlowIdAllocator {
    next_stream: u16,
}

impl FlowIdAllocator {
    /// A fresh allocator.
    pub fn new() -> Self {
        FlowIdAllocator::default()
    }

    /// Reserve the next stream id.
    pub fn stream(&mut self) -> FlowIdStream {
        let s = self.next_stream;
        self.next_stream += 1;
        FlowIdStream {
            base: (s as u64) << 48,
            next: 0,
        }
    }
}

/// Per-generator flow id counter.
#[derive(Debug, Clone)]
pub struct FlowIdStream {
    base: u64,
    next: u64,
}

impl FlowIdStream {
    /// The next unique flow id.
    pub fn next_id(&mut self) -> FlowId {
        let id = FlowId(self.base | self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_net::IpAddr;

    #[test]
    fn flow_spec_accounting() {
        let f = FlowSpec {
            id: FlowId(1),
            key: FlowKey::tcp(IpAddr::new(1, 1, 1, 1), 1, IpAddr::new(2, 2, 2, 2), 80),
            packets: 10,
            packet_size: 1500,
            packet_interval: SimDuration::from_millis(1),
            is_attack: false,
        };
        assert_eq!(f.total_bytes(), 15_000);
        assert_eq!(f.duration(), SimDuration::from_millis(9));
    }

    #[test]
    fn allocator_streams_do_not_collide() {
        let mut alloc = FlowIdAllocator::new();
        let mut a = alloc.stream();
        let mut b = alloc.stream();
        let ids: scotch_sim::FxHashSet<_> =
            (0..100).flat_map(|_| [a.next_id(), b.next_id()]).collect();
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn single_packet_flow_duration_is_zero() {
        let f = FlowSpec {
            id: FlowId(1),
            key: FlowKey::tcp(IpAddr::new(1, 1, 1, 1), 1, IpAddr::new(2, 2, 2, 2), 80),
            packets: 1,
            packet_size: 64,
            packet_interval: SimDuration::from_millis(1),
            is_attack: true,
        };
        assert_eq!(f.duration(), SimDuration::ZERO);
    }
}
