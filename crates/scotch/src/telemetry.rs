//! NetFlow-style flow-telemetry aggregation (monitor side).
//!
//! The §5.3 monitor originally ingested exhaustive `FlowStatsReply`
//! payloads straight into the elephant detector. With sampled telemetry
//! (DESIGN.md §13) the vSwitches export *sampled* counters instead, so
//! the monitor needs an aggregation stage: the [`TelemetryCache`] keeps
//! one slot per `(vSwitch, cookie)`, scales each incoming record by the
//! inverse sampling probability (Horvitz–Thompson), and turns successive
//! sightings into per-flow **rate estimates** — the
//! [`FlowEstimate`] stream that the elephant detector and the
//! withdrawal liveness filter consume.
//!
//! In exhaustive mode the same cache runs with `scale = 1.0` and exact
//! counts, and its arithmetic is engineered to be bit-identical to the
//! pre-sampling detector: estimates are `count as f64 × 1.0` (exact),
//! deltas are `max(est − prev, 0)` (equals the old `saturating_sub` for
//! integer-valued estimates), and first sightings are judged by lifetime
//! rate exactly as before. That is what lets `sampled { rate: 1.0 }`
//! reproduce exhaustive-mode canonical reports byte-for-byte.

use scotch_net::{FlowKey, NodeId};
use scotch_openflow::messages::FlowStat;
use scotch_sim::{FxHashMap, SimDuration, SimTime};

/// One per-flow observation derived from a stats record: the monitor's
/// estimate of the flow's recent packet rate, plus the liveness signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEstimate {
    /// The flow.
    pub key: FlowKey,
    /// Estimated traffic since the previous sighting (feeds the §5.5
    /// withdrawal liveness filter via `flowdb.touch`).
    pub active: bool,
    /// Estimated packets/second: delta-rate between sightings, or
    /// lifetime rate on a first sighting old enough to judge (0.0 for a
    /// just-installed rule — one sampled packet is not a 1000 pps
    /// elephant).
    pub pps: f64,
    /// Age of the exporting rule at observation time — the flow's time
    /// from installation to *this* observation, i.e. the
    /// migration-decision latency if the detector flags it now.
    pub duration: SimDuration,
}

/// Aggregates sampled (or exhaustive) flow records into rate estimates.
#[derive(Debug, Clone, Default)]
pub struct TelemetryCache {
    /// Last sighting per `(vSwitch, cookie)`: time and scaled estimate.
    entries: FxHashMap<(NodeId, u64), (SimTime, f64)>,
    /// When the last full expiry sweep ran (sweeps are throttled to once
    /// per TTL — see [`TelemetryCache::expire`]).
    last_sweep: SimTime,
    /// FlowStatsReply messages ingested.
    pub stats_msgs: u64,
    /// Flow records ingested (exported by vSwitches and received here).
    pub records: u64,
}

impl TelemetryCache {
    /// An empty cache.
    pub fn new() -> Self {
        TelemetryCache::default()
    }

    /// Ingest one FlowStatsReply from vSwitch `from`, producing one
    /// estimate per resolvable record, in record order. `scale` is the
    /// inverse sampling probability (`TelemetryConfig::scale()`); `key_of`
    /// recovers the flow key from a record (cookie-indexed; infra rules
    /// resolve to `None` and are skipped).
    pub fn ingest(
        &mut self,
        now: SimTime,
        from: NodeId,
        stats: &[FlowStat],
        scale: f64,
        key_of: impl Fn(&FlowStat) -> Option<FlowKey>,
    ) -> Vec<FlowEstimate> {
        self.stats_msgs += 1;
        self.records += stats.len() as u64;
        let mut out = Vec::with_capacity(stats.len());
        for st in stats {
            let Some(key) = key_of(st) else { continue };
            let est = st.packet_count as f64 * scale;
            let slot = (from, st.cookie);
            let (prev_t, prev_est) = self.entries.insert(slot, (now, est)).unwrap_or((now, 0.0));
            let dt = now.duration_since(prev_t).as_secs_f64();
            if dt <= 0.0 {
                // First sighting within this poll round: judge by the
                // estimated rate over the entry's lifetime — but only
                // once it has lived long enough for a meaningful rate.
                let life = st.duration.as_secs_f64();
                out.push(FlowEstimate {
                    key,
                    active: est > 0.0,
                    pps: if life >= 0.5 { est / life } else { 0.0 },
                    duration: st.duration,
                });
                continue;
            }
            out.push(FlowEstimate {
                key,
                active: est > prev_est,
                pps: (est - prev_est).max(0.0) / dt,
                duration: st.duration,
            });
        }
        out
    }

    /// Drop slots not sighted within `ttl` (their rules idled out at the
    /// vSwitch, or — under sparse sampling — the flow went quiet long
    /// enough that a fresh sighting should be judged as new). Cookies are
    /// never reused, so an expired slot can only "return" via the
    /// first-sighting path, which is exactly the conservative judgement.
    ///
    /// Called from the controller tick, so the full sweep is throttled to
    /// once per TTL: walking every slot each tick is measurable on the
    /// bench hot path, and a slot lingering up to `2*ttl` only makes its
    /// next delta *more* accurate (the previous sighting is still the
    /// same flow — cookies are never reused). Expiry bounds memory; it is
    /// not load-bearing for estimates.
    pub fn expire(&mut self, now: SimTime, ttl: SimDuration) {
        if now.duration_since(self.last_sweep) < ttl {
            return;
        }
        self.last_sweep = now;
        self.entries
            .retain(|_, (t, _)| now.duration_since(*t) < ttl);
    }

    /// Number of tracked `(vSwitch, cookie)` slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no slots are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scotch_net::IpAddr;
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

    #[test]
    fn delta_rate_between_sightings() {
        let mut c = TelemetryCache::new();
        let e1 = c.ingest(
            SimTime::from_secs(1),
            NodeId(5),
            &[stat(1, 100, 1)],
            1.0,
            key_of_cookie,
        );
        // First sighting, 100 pkts over 1 s of life.
        assert_eq!(e1[0].pps, 100.0);
        assert!(e1[0].active);
        let e2 = c.ingest(
            SimTime::from_secs(2),
            NodeId(5),
            &[stat(1, 600, 2)],
            1.0,
            key_of_cookie,
        );
        // +500 pkts in 1 s.
        assert_eq!(e2[0].pps, 500.0);
        assert!(e2[0].active);
    }

    #[test]
    fn inverse_probability_scaling_applies() {
        let mut c = TelemetryCache::new();
        // 10 sampled packets at rate 1/64 ⇒ estimate 640 over 2 s = 320/s.
        let e = c.ingest(
            SimTime::from_secs(5),
            NodeId(5),
            &[stat(1, 10, 2)],
            64.0,
            key_of_cookie,
        );
        assert_eq!(e[0].pps, 320.0);
    }

    #[test]
    fn young_first_sighting_has_zero_rate() {
        let mut c = TelemetryCache::new();
        let e = c.ingest(
            SimTime::from_secs(1),
            NodeId(5),
            &[FlowStat {
                duration: SimDuration::from_millis(100),
                ..stat(1, 50, 0)
            }],
            1.0,
            key_of_cookie,
        );
        assert_eq!(e[0].pps, 0.0, "a just-installed rule has no rate yet");
        assert!(e[0].active);
    }

    #[test]
    fn idle_flow_is_inactive() {
        let mut c = TelemetryCache::new();
        c.ingest(
            SimTime::from_secs(1),
            NodeId(5),
            &[stat(1, 100, 1)],
            1.0,
            key_of_cookie,
        );
        let e = c.ingest(
            SimTime::from_secs(2),
            NodeId(5),
            &[stat(1, 100, 2)],
            1.0,
            key_of_cookie,
        );
        assert!(!e[0].active);
        assert_eq!(e[0].pps, 0.0);
    }

    #[test]
    fn slots_are_per_vswitch() {
        let mut c = TelemetryCache::new();
        c.ingest(
            SimTime::from_secs(1),
            NodeId(5),
            &[stat(1, 50, 1)],
            1.0,
            key_of_cookie,
        );
        // Same cookie on another vSwitch gets its own first-sighting
        // baseline, not a delta continuation.
        let e = c.ingest(
            SimTime::from_secs(1),
            NodeId(6),
            &[stat(1, 50, 1)],
            1.0,
            key_of_cookie,
        );
        assert_eq!(e[0].pps, 50.0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn unresolvable_records_are_skipped_but_counted() {
        let mut c = TelemetryCache::new();
        let e = c.ingest(
            SimTime::from_secs(1),
            NodeId(5),
            &[stat(0, 10_000, 1)],
            1.0,
            |_| None,
        );
        assert!(e.is_empty());
        assert_eq!(c.records, 1);
        assert_eq!(c.stats_msgs, 1);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn expiry_drops_stale_slots() {
        let mut c = TelemetryCache::new();
        c.ingest(
            SimTime::from_secs(1),
            NodeId(5),
            &[stat(1, 100, 1)],
            1.0,
            key_of_cookie,
        );
        c.expire(SimTime::from_secs(30), SimDuration::from_secs(60));
        assert_eq!(c.len(), 1);
        c.expire(SimTime::from_secs(100), SimDuration::from_secs(60));
        assert!(c.is_empty());
    }

    #[test]
    fn expiry_sweeps_are_throttled_to_once_per_ttl() {
        let mut c = TelemetryCache::new();
        let ttl = SimDuration::from_secs(60);
        c.ingest(
            SimTime::from_secs(2),
            NodeId(5),
            &[stat(1, 100, 1)],
            1.0,
            key_of_cookie,
        );
        // First sweep: the slot is 59 s old, kept.
        c.expire(SimTime::from_secs(61), ttl);
        assert_eq!(c.len(), 1);
        // The slot is now stale, but we are within one TTL of the last
        // sweep — the walk is skipped entirely (the tick-path hot case).
        c.expire(SimTime::from_secs(63), ttl);
        assert_eq!(c.len(), 1);
        // The next due sweep drops it.
        c.expire(SimTime::from_secs(121), ttl);
        assert!(c.is_empty());
    }
}
