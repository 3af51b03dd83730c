//! Measurement loops: repeat one workload for a wall-clock window, check
//! every run's output, and reduce the runs to medians.

use crate::workloads::{fnv1a, Workload};
use crate::{layers, reference, spec};
use scotch::Report;
use scotch_bench::DEFAULT_SEED;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What one invocation measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed run.
    pub errors: Vec<String>,
    /// Output hash every successful run agreed on.
    pub hash: Option<u64>,
    /// `(name, value)` in the order the spec lists them.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines on the samples behind the medians.
    pub notes: Vec<String>,
}

/// Tracks run outcomes and the output hash they must share.
struct Ledger {
    seed: u64,
    reference: u64,
    out: Outcome,
}

impl Ledger {
    fn new(w: &Workload, seed: u64) -> Self {
        Ledger {
            seed,
            reference: w.reference,
            out: Outcome {
                attempted: 0,
                failed: 0,
                errors: Vec::new(),
                hash: None,
                metrics: Vec::new(),
                notes: Vec::new(),
            },
        }
    }

    /// Record one run; returns it when it ran and its output hash matches
    /// every other run's (and the stored reference at the default seed).
    fn record(&mut self, run: Result<SimRun, String>) -> Option<SimRun> {
        self.out.attempted += 1;
        let err = match run {
            Ok(r) => {
                let agreed = *self.out.hash.get_or_insert(r.hash);
                if r.hash != agreed {
                    format!(
                        "output hash {:016x} differs from the set's {agreed:016x}",
                        r.hash
                    )
                } else if self.seed == DEFAULT_SEED && r.hash != self.reference {
                    format!(
                        "output hash {:016x} differs from the reference {:016x}",
                        r.hash, self.reference
                    )
                } else {
                    return Some(r);
                }
            }
            Err(e) => e,
        };
        self.fail(err);
        None
    }

    /// Count the last recorded run as failed after all, for `err`.
    fn fail(&mut self, err: String) {
        self.out.failed += 1;
        self.out
            .errors
            .push(format!("run {}: {err}", self.out.attempted));
    }
}

/// Median of a non-empty sample (lower middle for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// `name: n=.. min=.. median=.. max=..` over a sample, in run order.
fn spread(name: &str, values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0, f64::max);
    let all: Vec<String> = values.iter().map(|v| format!("{v:.3e}")).collect();
    format!(
        "{name}: n={} min={min:.6} median={:.6} max={max:.6} runs=[{}]",
        values.len(),
        median(values),
        all.join(" ")
    )
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One checked run: timings, output hash and the report.
struct SimRun {
    setup_s: f64,
    run_s: f64,
    /// Peak resident memory once `Simulation::run` returned, before the
    /// output check renders the report.
    rss_mb: f64,
    json_ms: f64,
    hash: u64,
    report: Report,
}

/// Build, run and check `w` once; a panic is a failed run.
fn once(w: &Workload, seed: u64, profile: bool) -> Result<SimRun, String> {
    let run = || {
        let t = Instant::now();
        let mut sim = (w.build)().build_until(seed, w.horizon);
        let setup_s = t.elapsed().as_secs_f64();
        if profile {
            sim.enable_profiling();
        }
        let t = Instant::now();
        let report = sim.run(w.horizon);
        let run_s = t.elapsed().as_secs_f64();
        let rss_mb = peak_rss_mb();
        let t = Instant::now();
        let json = report.canonical_json();
        let json_ms = t.elapsed().as_secs_f64() * 1e3;
        (w.shape)(&report).map_err(|e| format!("output check: {e}"))?;
        Ok(SimRun {
            setup_s,
            run_s,
            rss_mb,
            json_ms,
            hash: fnv1a(json.as_bytes()),
            report,
        })
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Untraced runs for `window`: the end-to-end metrics. Each simulator run
/// is followed by a reference-kernel run, and its times are scaled by
/// `reference::NOMINAL_S` over that kernel time before the medians, so a
/// host that slows down for a while slows both and the ratio stays.
pub fn untraced(w: &Workload, seed: u64, window: Duration) -> Outcome {
    let mut ledger = Ledger::new(w, seed);
    let (mut setup, mut run, mut rss) = (Vec::new(), Vec::new(), None);
    let (mut raw_setup, mut raw_run, mut kernel) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while ledger.out.attempted == 0 || start.elapsed() < window {
        let Some(r) = ledger.record(once(w, seed, false)) else {
            continue;
        };
        let k = match reference::time() {
            Ok(k) => k,
            Err(e) => {
                ledger.fail(e);
                continue;
            }
        };
        let scale = reference::NOMINAL_S / k;
        setup.push(r.setup_s * scale);
        run.push(r.run_s * scale);
        raw_setup.push(r.setup_s);
        raw_run.push(r.run_s);
        kernel.push(k);
        // The high-water mark only grows: later readings would include
        // the earlier runs' output checks and the reference kernel.
        rss.get_or_insert(r.rss_mb);
    }
    let mut out = ledger.out;
    if let Some(rss) = rss {
        out.notes = vec![
            spread("setup_s", &setup),
            spread("run_s", &run),
            spread("wall setup_s", &raw_setup),
            spread("wall run_s", &raw_run),
            spread("reference kernel s", &kernel),
        ];
        out.metrics = vec![
            ("setup_s".into(), median(&setup)),
            ("run_s".into(), median(&run)),
            ("peak_rss_mb".into(), rss),
        ];
    }
    out
}

/// Plain and profiled runs in alternation for `window`, so both see the
/// same machine, each pair followed by a reference-kernel run. The
/// per-layer table comes from the profiled run of median wall time, in raw
/// wall time; `trace.overhead` is the profiled median over the plain one,
/// and `host.reference_kernel_ms` says how fast the host ran meanwhile.
pub fn traced(w: &Workload, seed: u64, window: Duration) -> Outcome {
    let mut ledger = Ledger::new(w, seed);
    let mut plain = Vec::new();
    let mut profiled: Vec<(f64, Vec<(String, f64)>)> = Vec::new();
    let mut kernel = Vec::new();
    let start = Instant::now();
    while ledger.out.attempted == 0 || start.elapsed() < window {
        if let Some(r) = ledger.record(once(w, seed, false)) {
            plain.push(r.run_s);
        }
        if let Some(r) = ledger.record(once(w, seed, true)) {
            match layer_metrics(&r) {
                Ok(m) => profiled.push((r.run_s, m)),
                Err(e) => ledger.fail(e),
            }
        }
        match reference::time() {
            Ok(k) => kernel.push(k),
            Err(e) => ledger.fail(e),
        }
    }
    let mut out = ledger.out;
    if plain.is_empty() || profiled.is_empty() || kernel.is_empty() {
        return out;
    }
    let walls: Vec<f64> = profiled.iter().map(|p| p.0).collect();
    let mid = median(&walls);
    let at = walls
        .iter()
        .position(|&w| w == mid)
        .expect("the median is one of the samples");
    let mut metrics = profiled.swap_remove(at).1;
    for (name, value) in [
        ("trace.overhead", mid / median(&plain)),
        ("trace.runs", walls.len() as f64),
        ("host.reference_kernel_ms", median(&kernel) * 1e3),
    ] {
        let slot = metrics
            .iter_mut()
            .find(|(n, _)| n == name)
            .expect("layer_metrics lists every trace metric");
        slot.1 = value;
    }
    out.notes = vec![spread("run_s", &plain), spread("traced_run_s", &walls)];
    out.metrics = metrics;
    out
}

/// The per-layer metrics of one profiled run, in spec order.
/// `trace.overhead`, `trace.runs` and `host.reference_kernel_ms` are filled
/// in once every run is in.
fn layer_metrics(r: &SimRun) -> Result<Vec<(String, f64)>, String> {
    let table = layers::fold(&r.report.profile)?;
    let run_ms = r.run_s * 1e3;
    let unattributed = run_ms - table.busy_ms;
    if unattributed < 0.0 {
        return Err(format!(
            "profiled rows sum to {:.3} ms, more than the run's {run_ms:.3} ms",
            table.busy_ms
        ));
    }
    let rep = &r.report;
    let metric = |name: &str| rep.metrics.get(name).unwrap_or(0.0);
    let (sent, offered) = rep
        .switches
        .iter()
        .map(|s| &s.ofa)
        .chain(rep.vswitches.iter().map(|v| &v.ofa))
        .fold((0u64, 0u64), |(s, o), ofa| {
            (
                s + ofa.packet_in_sent,
                o + ofa.packet_in_sent + ofa.packet_in_dropped,
            )
        });
    let events = rep.events_processed as f64;
    let values: [f64; spec::TRACE_METRICS.len()] = [
        run_ms,
        0.0,
        0.0,
        0.0,
        unattributed,
        events,
        events / r.run_s,
        r.json_ms,
        metric("controller.rx.packet_in"),
        metric("controller.tx.flow_mod"),
        if offered > 0 {
            sent as f64 / offered as f64
        } else {
            0.0
        },
        rep.drops.ofa_overload as f64,
        rep.drops.link_queue as f64,
        rep.controller_dropped as f64,
        metric("monitor.stats_msgs"),
        rep.flows.len() as f64,
        rep.client_failure_fraction(),
        rep.mean_client_setup_latency().unwrap_or(0.0) * 1e3,
    ];
    let mut out = Vec::new();
    for (layer, stats) in &table.rows {
        for ((stat, _), value) in layers::LAYER_STATS.iter().zip(stats) {
            out.push((format!("{}.{stat}", layer.name), *value));
        }
    }
    out.extend(
        spec::TRACE_METRICS
            .iter()
            .map(|(n, _, _)| n.to_string())
            .zip(values),
    );
    Ok(out)
}
