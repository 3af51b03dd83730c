//! Unified metrics registry and self-profiling instruments.
//!
//! Components across the stack historically kept ad-hoc stats structs
//! (`OfaStats`, `SwitchStats`, `VSwitchStats`, `AppStats`). Those structs
//! remain the hot-path increment sites — a plain `+= 1` on a local field is
//! as cheap as instrumentation gets — but the [`MetricsRegistry`] unifies
//! their *external* surface: every figure a run produces is registered under
//! a canonical dotted name and exported through one deterministic
//! [`MetricsSnapshot`], embedded in the `Report` and in sweep manifests.
//!
//! The registry also hosts the live instruments that need history rather
//! than a final value: [`TimeSeries`] sampled periodically from the event
//! loop, and [`Histogram`]s for distributions.
//!
//! [`DispatchProfiler`] is the one deliberate exception to the sim-time-only
//! rule: it measures *wall-clock* dispatch cost per event type for
//! `scotch-cli bench hotpath`. Its output is observability-only and must
//! never feed a golden report (DESIGN.md §10).

use crate::metrics::{Counter, Histogram, RateMeter, TimeSeries};
use crate::time::{SimDuration, SimTime};

/// Handle to a registered [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered [`RateMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateId(usize);

/// Handle to a registered [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Handle to a registered [`TimeSeries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// A named collection of measurement instruments.
///
/// Registration returns a dense handle; instrument access through a handle
/// is an array index, so periodic sampling from the event loop stays cheap.
/// Names are free-form dotted paths (`"app.packet_ins"`,
/// `"switch.ps0.ofa.packet_in_sent"`).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, Counter)>,
    rates: Vec<(String, RateMeter)>,
    histograms: Vec<(String, Histogram)>,
    series: Vec<(String, TimeSeries)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn find<T>(store: &[(String, T)], name: &str) -> Option<usize> {
        store.iter().position(|(n, _)| n == name)
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = Self::find(&self.counters, name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), Counter::new()));
        CounterId(self.counters.len() - 1)
    }

    /// Register (or look up) a rate meter by name.
    pub fn rate_meter(&mut self, name: &str, window: SimDuration) -> RateId {
        if let Some(i) = Self::find(&self.rates, name) {
            return RateId(i);
        }
        self.rates.push((name.to_string(), RateMeter::new(window)));
        RateId(self.rates.len() - 1)
    }

    /// Register (or look up) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = Self::find(&self.histograms, name) {
            return HistogramId(i);
        }
        self.histograms.push((name.to_string(), Histogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Register (or look up) a time series by name.
    pub fn time_series(&mut self, name: &str) -> SeriesId {
        if let Some(i) = Self::find(&self.series, name) {
            return SeriesId(i);
        }
        self.series.push((name.to_string(), TimeSeries::new()));
        SeriesId(self.series.len() - 1)
    }

    /// The counter behind a handle.
    pub fn counter_mut(&mut self, id: CounterId) -> &mut Counter {
        &mut self.counters[id.0].1
    }

    /// The rate meter behind a handle.
    pub fn rate_mut(&mut self, id: RateId) -> &mut RateMeter {
        &mut self.rates[id.0].1
    }

    /// The histogram behind a handle.
    pub fn histogram_mut(&mut self, id: HistogramId) -> &mut Histogram {
        &mut self.histograms[id.0].1
    }

    /// The series behind a handle.
    pub fn series_mut(&mut self, id: SeriesId) -> &mut TimeSeries {
        &mut self.series[id.0].1
    }

    /// Register-or-get a counter and add `n` to it — the idiom for
    /// snapshot-time population from an existing stats struct.
    pub fn add(&mut self, name: &str, n: u64) {
        let id = self.counter(name);
        self.counter_mut(id).add(n);
    }

    /// Register-or-get a series and push one sample.
    pub fn sample(&mut self, name: &str, now: SimTime, value: f64) {
        let id = self.time_series(name);
        self.series_mut(id).push(now, value);
    }

    /// Flatten every instrument into a sorted, deterministic snapshot.
    ///
    /// Counters export their value; rate meters their lifetime total;
    /// histograms expand to `.count` / `.mean` / `.p50` / `.p99` / `.max`;
    /// series to `.samples` / `.mean` / `.last`. Entries are sorted by name
    /// so the snapshot is byte-stable regardless of registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(String, f64)> = Vec::new();
        for (name, c) in &self.counters {
            entries.push((name.clone(), c.get() as f64));
        }
        for (name, r) in &self.rates {
            entries.push((format!("{name}.total"), r.total() as f64));
        }
        for (name, h) in &self.histograms {
            entries.push((format!("{name}.count"), h.count() as f64));
            if h.count() > 0 {
                entries.push((format!("{name}.mean"), h.mean()));
                entries.push((format!("{name}.p50"), h.quantile(0.5)));
                entries.push((format!("{name}.p99"), h.quantile(0.99)));
                entries.push((format!("{name}.max"), h.max()));
            }
        }
        for (name, s) in &self.series {
            entries.push((format!("{name}.samples"), s.len() as f64));
            if !s.is_empty() {
                entries.push((format!("{name}.mean"), s.mean_value()));
                entries.push((format!("{name}.last"), s.points()[s.len() - 1].1));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { entries }
    }

    /// The registered time series, for full-resolution export.
    pub fn all_series(&self) -> &[(String, TimeSeries)] {
        &self.series
    }
}

/// A flattened, name-sorted view of a [`MetricsRegistry`].
///
/// Values are `f64` (counters convert exactly below 2^53). The snapshot is
/// deterministic: same instruments, same values → byte-identical rendering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs sorted by name.
    pub entries: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// Look up a value by exact name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Per-event-type wall-clock dispatch-cost profiler.
///
/// Wraps the composition root's dispatch match: the caller stamps
/// `std::time::Instant` around each event and feeds the elapsed nanoseconds
/// here, keyed by a dense event-kind index. Wall-clock means the output is
/// machine-dependent — it exists for `bench hotpath` only and is excluded
/// from golden reports.
#[derive(Debug, Clone)]
pub struct DispatchProfiler {
    names: Vec<&'static str>,
    hists: Vec<Histogram>,
}

/// One row of a [`DispatchProfiler`] report.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Event-kind name.
    pub name: &'static str,
    /// Number of dispatches observed.
    pub count: u64,
    /// Mean cost in nanoseconds.
    pub mean_ns: f64,
    /// Median cost in nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile cost in nanoseconds.
    pub p99_ns: f64,
    /// Worst observed cost in nanoseconds.
    pub max_ns: f64,
    /// Total time in this event kind, nanoseconds.
    pub total_ns: f64,
}

impl DispatchProfiler {
    /// A profiler with one histogram per event-kind name.
    pub fn new(names: Vec<&'static str>) -> Self {
        let hists = names.iter().map(|_| Histogram::new()).collect();
        DispatchProfiler { names, hists }
    }

    /// Record one dispatch of kind `kind` costing `nanos` wall-clock ns.
    #[inline]
    pub fn record(&mut self, kind: usize, nanos: f64) {
        self.hists[kind].record(nanos);
    }

    /// Per-kind summary rows, sorted by descending total time.
    pub fn entries(&self) -> Vec<ProfileEntry> {
        let mut out: Vec<ProfileEntry> = self
            .names
            .iter()
            .zip(&self.hists)
            .filter(|(_, h)| h.count() > 0)
            .map(|(&name, h)| ProfileEntry {
                name,
                count: h.count(),
                mean_ns: h.mean(),
                p50_ns: h.quantile(0.5),
                p99_ns: h.quantile(0.99),
                max_ns: h.max(),
                total_ns: h.sum(),
            })
            .collect();
        out.sort_by(|a, b| b.total_ns.partial_cmp(&a.total_ns).unwrap());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_are_deduplicated_by_name() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("app.packet_ins");
        let b = reg.counter("app.packet_ins");
        assert_eq!(a, b);
        reg.counter_mut(a).add(3);
        reg.counter_mut(b).incr();
        assert_eq!(reg.snapshot().get("app.packet_ins"), Some(4.0));
    }

    #[test]
    fn snapshot_is_sorted_and_registration_order_independent() {
        let mut a = MetricsRegistry::new();
        a.add("zeta", 1);
        a.add("alpha", 2);
        a.sample("mid.series", SimTime::from_secs(1), 5.0);

        let mut b = MetricsRegistry::new();
        b.sample("mid.series", SimTime::from_secs(1), 5.0);
        b.add("alpha", 2);
        b.add("zeta", 1);

        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa, sb);
        let names: Vec<&str> = sa.entries.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn snapshot_expands_histograms_and_series() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [10.0, 20.0, 30.0] {
            reg.histogram_mut(h).record(v);
        }
        let s = reg.time_series("queue");
        reg.series_mut(s).push(SimTime::from_secs(1), 4.0);
        reg.series_mut(s).push(SimTime::from_secs(2), 8.0);
        let snap = reg.snapshot();
        assert_eq!(snap.get("lat.count"), Some(3.0));
        assert_eq!(snap.get("lat.mean"), Some(20.0));
        assert_eq!(snap.get("queue.samples"), Some(2.0));
        assert_eq!(snap.get("queue.last"), Some(8.0));
        assert_eq!(snap.get("queue.mean"), Some(6.0));
    }

    #[test]
    fn empty_histogram_exports_count_only() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("empty");
        let snap = reg.snapshot();
        assert_eq!(snap.get("empty.count"), Some(0.0));
        assert_eq!(snap.get("empty.mean"), None);
    }

    #[test]
    fn profiler_reports_by_descending_total() {
        let mut p = DispatchProfiler::new(vec!["arrive", "tick", "idle"]);
        for _ in 0..100 {
            p.record(0, 50.0);
        }
        p.record(1, 10_000.0);
        let rows = p.entries();
        assert_eq!(rows.len(), 2); // "idle" never fired.
        assert_eq!(rows[0].name, "tick");
        assert_eq!(rows[1].name, "arrive");
        assert_eq!(rows[1].count, 100);
    }
}
