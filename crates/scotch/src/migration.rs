//! Large-flow identification (§5.3).
//!
//! "The controller sends the flow-stats query messages to the vSwitches,
//! and collects the flow stats including packet counts. The large flow
//! identifier selects the flows with high packet counts, and puts the large
//! flow migration requests into the large flow migration queue."
//!
//! Detection is rate-based and consumes the monitor's estimated-rate
//! stream ([`crate::telemetry::TelemetryCache`]): a flow whose *estimated*
//! rate — delta between sightings, or lifetime rate on first sighting —
//! reaches `elephant_pps` is an elephant. Under sampled telemetry the
//! estimates are inverse-probability-scaled sampled counts, so the same
//! threshold applies unchanged at any sampling rate; in exhaustive mode
//! the estimates are exact and the decisions are bit-identical to the
//! original count-based detector.

use crate::telemetry::FlowEstimate;
use scotch_net::FlowKey;
use scotch_sim::{FxHashMap, SimDuration, SimTime};

/// Flags elephants from the monitor's [`FlowEstimate`] stream.
#[derive(Debug, Clone)]
pub struct ElephantDetector {
    /// Estimated packets/second above which a flow is an elephant.
    pub threshold_pps: f64,
    /// Flows already flagged (do not flag twice).
    flagged: FxHashMap<FlowKey, SimTime>,
}

impl ElephantDetector {
    /// A detector with the given rate threshold.
    pub fn new(threshold_pps: f64) -> Self {
        assert!(threshold_pps > 0.0);
        ElephantDetector {
            threshold_pps,
            flagged: FxHashMap::default(),
        }
    }

    /// Judge one estimate; `true` means the flow is a *newly* flagged
    /// elephant (the caller queues the migration).
    pub fn observe(&mut self, now: SimTime, est: &FlowEstimate) -> bool {
        if est.pps >= self.threshold_pps && !self.flagged.contains_key(&est.key) {
            self.flagged.insert(est.key, now);
            true
        } else {
            false
        }
    }

    /// Forget flows flagged more than `ttl` ago (their rules have expired;
    /// a returning flow may be flagged again).
    pub fn expire(&mut self, now: SimTime, ttl: SimDuration) {
        self.flagged.retain(|_, t| now.duration_since(*t) < ttl);
    }

    /// Number of flows currently flagged.
    pub fn flagged_count(&self) -> usize {
        self.flagged.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryCache;
    use scotch_net::{IpAddr, NodeId};
    use scotch_openflow::messages::FlowStat;
    use scotch_openflow::{Match, TableId};

    fn key(sport: u16) -> FlowKey {
        FlowKey::tcp(IpAddr::new(1, 1, 1, 1), sport, IpAddr::new(2, 2, 2, 2), 80)
    }

    fn stat(cookie: u64, packets: u64, secs: u64) -> FlowStat {
        FlowStat {
            table: TableId(0),
            matcher: Match::ANY,
            cookie,
            packet_count: packets,
            byte_count: packets * 1000,
            duration: SimDuration::from_secs(secs),
        }
    }

    fn key_of_cookie(st: &FlowStat) -> Option<FlowKey> {
        Some(key(st.cookie as u16))
    }

    /// Run one poll round through cache + detector, as the app does.
    fn poll(
        cache: &mut TelemetryCache,
        det: &mut ElephantDetector,
        now: SimTime,
        from: NodeId,
        stats: &[FlowStat],
        scale: f64,
    ) -> Vec<FlowKey> {
        cache
            .ingest(now, from, stats, scale, key_of_cookie)
            .iter()
            .filter(|e| det.observe(now, e))
            .map(|e| e.key)
            .collect()
    }

    #[test]
    fn steady_elephant_is_detected_on_second_poll() {
        let mut c = TelemetryCache::new();
        let mut d = ElephantDetector::new(300.0);
        // Poll 1: entry just installed, 100 pkts over 1 s of life — mouse.
        let e1 = poll(
            &mut c,
            &mut d,
            SimTime::from_secs(1),
            NodeId(5),
            &[stat(1, 100, 1)],
            1.0,
        );
        assert!(e1.is_empty());
        // Poll 2: +500 pkts in 1 s -> 500 pps elephant.
        let e2 = poll(
            &mut c,
            &mut d,
            SimTime::from_secs(2),
            NodeId(5),
            &[stat(1, 600, 2)],
            1.0,
        );
        assert_eq!(e2, vec![key(1)]);
        // Poll 3: still fast, but already flagged.
        let e3 = poll(
            &mut c,
            &mut d,
            SimTime::from_secs(3),
            NodeId(5),
            &[stat(1, 1200, 3)],
            1.0,
        );
        assert!(e3.is_empty());
        assert_eq!(d.flagged_count(), 1);
    }

    #[test]
    fn first_sighting_with_high_lifetime_rate_flags_immediately() {
        let mut c = TelemetryCache::new();
        let mut d = ElephantDetector::new(300.0);
        // 2000 pkts over a 2 s lifetime = 1000 pps on first sighting.
        let e = poll(
            &mut c,
            &mut d,
            SimTime::from_secs(5),
            NodeId(5),
            &[stat(2, 2000, 2)],
            1.0,
        );
        assert_eq!(e, vec![key(2)]);
    }

    #[test]
    fn sampled_estimates_cross_the_same_threshold() {
        let mut c = TelemetryCache::new();
        let mut d = ElephantDetector::new(300.0);
        // At rate 1/64 the vSwitch exports *sampled* counts; 16 sampled
        // pkts over a 2 s lifetime estimate to 16·64/2 = 512 pps.
        let e = poll(
            &mut c,
            &mut d,
            SimTime::from_secs(5),
            NodeId(5),
            &[stat(2, 16, 2)],
            64.0,
        );
        assert_eq!(e, vec![key(2)]);
        // A mouse with 1 sampled packet estimates to 64/2 = 32 pps.
        let m = poll(
            &mut c,
            &mut d,
            SimTime::from_secs(5),
            NodeId(5),
            &[stat(3, 1, 2)],
            64.0,
        );
        assert!(m.is_empty());
    }

    #[test]
    fn mice_are_never_flagged() {
        let mut c = TelemetryCache::new();
        let mut d = ElephantDetector::new(300.0);
        for round in 1..10u64 {
            let e = poll(
                &mut c,
                &mut d,
                SimTime::from_secs(round),
                NodeId(5),
                &[stat(3, round * 10, round)], // 10 pps
                1.0,
            );
            assert!(e.is_empty(), "poll {round} flagged a mouse");
        }
    }

    #[test]
    fn expiry_allows_reflagging() {
        let mut c = TelemetryCache::new();
        let mut d = ElephantDetector::new(300.0);
        poll(
            &mut c,
            &mut d,
            SimTime::from_secs(1),
            NodeId(5),
            &[stat(1, 0, 1)],
            1.0,
        );
        let e = poll(
            &mut c,
            &mut d,
            SimTime::from_secs(2),
            NodeId(5),
            &[stat(1, 1000, 2)],
            1.0,
        );
        assert_eq!(e.len(), 1);
        d.expire(SimTime::from_secs(100), SimDuration::from_secs(30));
        assert_eq!(d.flagged_count(), 0);
        let e2 = poll(
            &mut c,
            &mut d,
            SimTime::from_secs(101),
            NodeId(5),
            &[stat(1, 2000, 101)],
            1.0,
        );
        // Delta 1000 pkts over 99 s ≈ 10 pps: not an elephant now.
        assert!(e2.is_empty());
    }
}
