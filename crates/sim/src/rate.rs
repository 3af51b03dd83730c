//! Rate models shared by the simulated devices.
//!
//! Two building blocks:
//!
//! * [`FifoServer`] — a virtual-clock model of a FIFO queue drained at a
//!   fixed service rate with a bounded backlog. This is exact for
//!   deterministic service and is how we model the OFA's Packet-In path,
//!   the rule-insertion pipeline, and link transmission without per-packet
//!   timer events.
//! * [`Ewma`] — exponentially weighted moving average of an event rate,
//!   used where a device's behaviour depends on the *offered* rate (the
//!   Pica8 rule-insertion success curve of Fig. 9).

use crate::time::{SimDuration, SimTime};

/// Admission result from a [`FifoServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The job was queued and will complete at the given time.
    Accepted {
        /// Completion (departure) time of the job.
        departs_at: SimTime,
    },
    /// The backlog bound was exceeded; the job is dropped.
    Rejected,
}

impl Admission {
    /// True if the job was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Admission::Accepted { .. })
    }

    /// Departure time if accepted.
    pub fn departure(&self) -> Option<SimTime> {
        match self {
            Admission::Accepted { departs_at } => Some(*departs_at),
            Admission::Rejected => None,
        }
    }
}

/// A work-conserving FIFO server with deterministic service times and a
/// bounded queue, modelled with a virtual clock.
///
/// `offer(now, service_time)` computes the job's departure were it queued
/// now; if the implied queue *length* would exceed `max_queue`, the job is
/// rejected instead. Because service is FIFO and deterministic, tracking
/// only the virtual "server free at" time plus departure times of queued
/// jobs reproduces exactly what a per-event simulation of the queue would.
#[derive(Debug, Clone)]
pub struct FifoServer {
    /// Time at which the server finishes all currently accepted work.
    busy_until: SimTime,
    /// Departure times of jobs accepted but not yet departed.
    in_flight: std::collections::VecDeque<SimTime>,
    /// Maximum number of queued-or-in-service jobs.
    max_queue: usize,
    accepted: u64,
    rejected: u64,
}

impl FifoServer {
    /// A server with the given queue bound (jobs, including the one in
    /// service).
    pub fn new(max_queue: usize) -> Self {
        assert!(max_queue > 0, "queue must hold at least one job");
        FifoServer {
            busy_until: SimTime::ZERO,
            in_flight: std::collections::VecDeque::new(),
            max_queue,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Convenience: a server draining `rate_per_sec` uniform jobs/second.
    /// Returns the per-job service time to pass to [`FifoServer::offer`].
    pub fn service_time(rate_per_sec: f64) -> SimDuration {
        assert!(rate_per_sec > 0.0, "service rate must be positive");
        SimDuration::from_secs_f64(1.0 / rate_per_sec)
    }

    fn purge(&mut self, now: SimTime) {
        while let Some(&d) = self.in_flight.front() {
            if d <= now {
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
    }

    /// Offer a job needing `service_time` of server time at `now`.
    pub fn offer(&mut self, now: SimTime, service_time: SimDuration) -> Admission {
        self.purge(now);
        if self.in_flight.len() >= self.max_queue {
            self.rejected += 1;
            return Admission::Rejected;
        }
        let start = self.busy_until.max(now);
        let departs_at = start + service_time;
        self.busy_until = departs_at;
        self.in_flight.push_back(departs_at);
        self.accepted += 1;
        Admission::Accepted { departs_at }
    }

    /// Current backlog (jobs queued or in service) at `now`.
    pub fn backlog(&mut self, now: SimTime) -> usize {
        self.purge(now);
        self.in_flight.len()
    }

    /// Queueing + service delay a job offered at `now` would experience,
    /// ignoring the queue bound.
    pub fn delay_if_offered(&self, now: SimTime, service_time: SimDuration) -> SimDuration {
        let start = self.busy_until.max(now);
        (start + service_time).duration_since(now)
    }

    /// Jobs accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Jobs rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// True if the server is idle at `now`.
    pub fn is_idle(&mut self, now: SimTime) -> bool {
        self.backlog(now) == 0
    }
}

/// Exponentially weighted moving average of an event *rate* (events/sec).
///
/// Each `observe(now)` call counts one event; the estimate decays with time
/// constant `tau`. The estimator is exact for Poisson-ish streams and reacts
/// within a few `tau` to rate steps, which is what we need to drive the
/// offered-rate-dependent OFA behaviours.
#[derive(Debug, Clone)]
pub struct Ewma {
    tau: f64,
    rate: f64,
    last: Option<SimTime>,
}

impl Ewma {
    /// An estimator with time constant `tau`.
    pub fn new(tau: SimDuration) -> Self {
        assert!(tau > SimDuration::ZERO, "tau must be positive");
        Ewma {
            tau: tau.as_secs_f64(),
            rate: 0.0,
            last: None,
        }
    }

    /// Record one event at `now` and return the updated rate estimate.
    pub fn observe(&mut self, now: SimTime) -> f64 {
        match self.last {
            None => {
                // First event: seed with a neutral small estimate.
                self.rate = 1.0 / self.tau;
            }
            Some(prev) => {
                let dt = now.duration_since(prev).as_secs_f64();
                if dt <= 0.0 {
                    // Simultaneous events: instantaneous bump.
                    self.rate += 1.0 / self.tau;
                } else {
                    let w = (-dt / self.tau).exp();
                    // Standard EWMA rate estimator: blend 1/dt instantaneous
                    // rate with the running estimate.
                    self.rate = w * self.rate + (1.0 - w) / dt;
                }
            }
        }
        self.last = Some(now);
        self.rate
    }

    /// The estimate as of the last recorded event, before any decay: an
    /// upper bound on [`Ewma::value`] at every later instant.
    pub fn undecayed(&self) -> f64 {
        self.rate
    }

    /// The rate estimate decayed to `now` without recording an event.
    pub fn value(&self, now: SimTime) -> f64 {
        match self.last {
            None => 0.0,
            Some(prev) => {
                let dt = now.duration_since(prev).as_secs_f64();
                self.rate * (-dt / self.tau).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_departures_are_spaced_by_service_time() {
        let mut s = FifoServer::new(100);
        let st = FifoServer::service_time(10.0); // 100 ms per job
        let a = s.offer(SimTime::ZERO, st).departure().unwrap();
        let b = s.offer(SimTime::ZERO, st).departure().unwrap();
        assert_eq!(a, SimTime::from_millis(100));
        assert_eq!(b, SimTime::from_millis(200));
    }

    #[test]
    fn fifo_idle_server_starts_immediately() {
        let mut s = FifoServer::new(10);
        let st = SimDuration::from_millis(10);
        let d = s.offer(SimTime::from_secs(5), st).departure().unwrap();
        assert_eq!(d, SimTime::from_secs(5) + st);
    }

    #[test]
    fn fifo_rejects_when_full() {
        let mut s = FifoServer::new(2);
        let st = SimDuration::from_secs(1);
        assert!(s.offer(SimTime::ZERO, st).is_accepted());
        assert!(s.offer(SimTime::ZERO, st).is_accepted());
        assert_eq!(s.offer(SimTime::ZERO, st), Admission::Rejected);
        assert_eq!(s.accepted(), 2);
        assert_eq!(s.rejected(), 1);
    }

    #[test]
    fn fifo_drains_over_time() {
        let mut s = FifoServer::new(2);
        let st = SimDuration::from_secs(1);
        s.offer(SimTime::ZERO, st);
        s.offer(SimTime::ZERO, st);
        // After the first departure there is room again.
        assert!(s.offer(SimTime::from_millis(1500), st).is_accepted());
        assert_eq!(s.backlog(SimTime::from_millis(1500)), 2);
        assert!(s.is_idle(SimTime::from_secs(10)));
    }

    #[test]
    fn fifo_throughput_saturates_at_service_rate() {
        // Offer 1000 jobs/sec to a 200/sec server for 10 simulated seconds;
        // accepted throughput must be ~200/sec plus the queue capacity.
        let mut s = FifoServer::new(50);
        let st = FifoServer::service_time(200.0);
        let mut accepted = 0u64;
        for i in 0..10_000 {
            let now = SimTime::from_nanos(i * 1_000_000); // 1 ms apart
            if s.offer(now, st).is_accepted() {
                accepted += 1;
            }
        }
        let rate = accepted as f64 / 10.0;
        assert!(
            (rate - 200.0).abs() < 15.0,
            "accepted rate {rate}/s, expected ~200/s"
        );
    }

    #[test]
    fn fifo_underload_accepts_everything() {
        let mut s = FifoServer::new(10);
        let st = FifoServer::service_time(1000.0);
        for i in 0..1000 {
            // 100 jobs/sec offered to a 1000/sec server.
            let now = SimTime::from_nanos(i * 10_000_000);
            assert!(s.offer(now, st).is_accepted());
        }
        assert_eq!(s.rejected(), 0);
    }

    #[test]
    fn delay_if_offered_reflects_backlog() {
        let mut s = FifoServer::new(100);
        let st = SimDuration::from_secs(1);
        s.offer(SimTime::ZERO, st);
        s.offer(SimTime::ZERO, st);
        let d = s.delay_if_offered(SimTime::ZERO, st);
        assert_eq!(d, SimDuration::from_secs(3));
    }

    #[test]
    fn ewma_converges_to_constant_rate() {
        let mut e = Ewma::new(SimDuration::from_millis(500));
        // 100 events/sec for 5 seconds.
        let mut last = 0.0;
        for i in 0..500 {
            last = e.observe(SimTime::from_nanos(i * 10_000_000));
        }
        assert!((last - 100.0).abs() < 10.0, "ewma={last}");
    }

    #[test]
    fn ewma_decays_without_events() {
        let mut e = Ewma::new(SimDuration::from_millis(100));
        for i in 0..200 {
            e.observe(SimTime::from_nanos(i * 1_000_000));
        }
        let busy = e.value(SimTime::from_millis(200));
        let quiet = e.value(SimTime::from_millis(1200));
        assert!(quiet < busy / 100.0, "busy={busy} quiet={quiet}");
    }

    #[test]
    fn ewma_empty_is_zero() {
        let e = Ewma::new(SimDuration::from_secs(1));
        assert_eq!(e.value(SimTime::from_secs(9)), 0.0);
    }

    proptest! {
        /// Departures from a FIFO server are non-decreasing.
        #[test]
        fn prop_fifo_departures_monotone(
            offsets in proptest::collection::vec(0u64..1_000_000u64, 1..100),
            svc_us in 1u64..10_000,
        ) {
            let mut s = FifoServer::new(usize::MAX >> 1);
            let st = SimDuration::from_micros(svc_us);
            let mut t = 0u64;
            let mut last_dep = SimTime::ZERO;
            for off in offsets {
                t += off;
                if let Admission::Accepted { departs_at } = s.offer(SimTime::from_nanos(t), st) {
                    prop_assert!(departs_at >= last_dep);
                    prop_assert!(departs_at >= SimTime::from_nanos(t));
                    last_dep = departs_at;
                }
            }
        }

        /// Backlog never exceeds the configured bound.
        #[test]
        fn prop_fifo_backlog_bounded(
            offsets in proptest::collection::vec(0u64..100_000u64, 1..200),
            cap in 1usize..16,
        ) {
            let mut s = FifoServer::new(cap);
            let st = SimDuration::from_millis(50);
            let mut t = 0u64;
            for off in offsets {
                t += off;
                let now = SimTime::from_nanos(t);
                s.offer(now, st);
                prop_assert!(s.backlog(now) <= cap);
            }
        }
    }
}
