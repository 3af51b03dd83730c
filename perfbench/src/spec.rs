//! The benchmark's definition: workload names, metric names with their units
//! and regression bounds. `--spec` renders it as `BENCHMARK.json`, and every
//! run checks the committed file against it, so the two cannot drift.

use crate::layers::{LAYERS, LAYER_STATS};
use crate::workloads::WORKLOADS;
use scotch_runner::Json;

/// How long one run measures, in seconds (the `--seconds` default).
pub const RUN_SECONDS: u64 = 50;

/// One metric as `BENCHMARK.json` lists it.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// End-to-end metrics: medians over the untraced runs of one workload, the
/// two times read at the reference kernel's nominal host speed
/// (`reference::NOMINAL_S`). `setup_s` has the widest bound, so work moved
/// into set-up still shows; `run_s` shares it because the host's speed
/// drifts by up to 1.7x over minutes (NOTES.md, "Steadiness").
pub fn end_to_end() -> Vec<Metric> {
    [
        ("setup_s", "s", 0.25),
        ("run_s", "s", 0.25),
        ("peak_rss_mb", "MB", 0.15),
    ]
    .into_iter()
    .map(|(name, unit, bound)| Metric {
        name: name.to_string(),
        unit,
        better: "lower",
        bound: Some(bound),
    })
    .collect()
}

/// Per-layer metrics after the layer table: `(name, unit, better)`. The
/// wall-clock figures come from the traced run; the counts are read from
/// its `Report` and repeat exactly for a given seed.
pub const TRACE_METRICS: [(&str, &str, &str); 18] = [
    ("trace.run_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.runs", "count", "higher"),
    ("host.reference_kernel_ms", "ms", "lower"),
    ("sim.unattributed_ms", "ms", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("report.canonical_json_ms", "ms", "lower"),
    ("ctrl.packet_in_rx", "count", "lower"),
    ("ctrl.flow_mod_tx", "count", "lower"),
    ("ofa.admit_ratio", "ratio", "higher"),
    ("drops.ofa_overload", "count", "lower"),
    ("drops.link_queue", "count", "lower"),
    ("controller.dropped", "count", "lower"),
    ("monitor.stats_msgs", "count", "lower"),
    ("flows.total", "count", "higher"),
    ("client_failure_frac", "ratio", "lower"),
    ("setup_latency_ms", "ms", "lower"),
];

/// Per-layer metrics, in output order: four per layer row, then the trace
/// and report figures.
pub fn per_layer() -> Vec<Metric> {
    let mut out = Vec::new();
    for layer in LAYERS {
        for (stat, unit) in LAYER_STATS {
            out.push(Metric {
                name: format!("{}.{stat}", layer.name),
                unit,
                better: "lower",
                bound: None,
            });
        }
    }
    for (name, unit, better) in TRACE_METRICS {
        out.push(Metric {
            name: name.to_string(),
            unit,
            better,
            bound: None,
        });
    }
    out
}

/// The names a run must print: every end-to-end metric untraced, every
/// per-layer metric traced.
pub fn expected(traced: bool) -> Vec<Metric> {
    if traced {
        per_layer()
    } else {
        end_to_end()
    }
}

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    let metrics = |list: Vec<Metric>| {
        Json::Arr(
            list.into_iter()
                .map(|m| {
                    let j = Json::obj()
                        .set("name", m.name)
                        .set("unit", m.unit)
                        .set("better", m.better);
                    match m.bound {
                        Some(b) => j.set("bound", b),
                        None => j,
                    }
                })
                .collect(),
        )
    };
    Json::obj()
        .set(
            "command",
            Json::Arr(command.iter().map(|&s| Json::from(s)).collect()),
        )
        .set("paths", Json::Arr(vec![Json::from("perfbench")]))
        .set("run_seconds", RUN_SECONDS)
        .set(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj().set("name", w.name).set("why", w.why))
                    .collect(),
            ),
        )
        .set("end_to_end", metrics(end_to_end()))
        .set("per_layer", metrics(per_layer()))
}

/// A metric or workload name: starts with a letter or digit, at most 64
/// characters of `[A-Za-z0-9_.-]`.
pub fn check_name(name: &str) -> Result<(), String> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    if ok {
        Ok(())
    } else {
        Err(format!(
            "metric name `{name}` is outside [A-Za-z0-9_.-]{{1,64}}"
        ))
    }
}

/// Check that the committed `BENCHMARK.json` is what [`benchmark_json`]
/// renders, and that every name in it is well-formed and used once.
pub fn check_committed(committed: &str) -> Result<(), String> {
    let all = end_to_end().into_iter().chain(per_layer());
    let mut seen = std::collections::BTreeSet::new();
    for name in all
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.name.to_string()))
    {
        check_name(&name)?;
        if !seen.insert(name.clone()) {
            return Err(format!("name `{name}` is used twice"));
        }
    }
    if committed != benchmark_json().pretty() {
        return Err(
            "BENCHMARK.json differs from the harness's tables; regenerate it with `--spec`"
                .to_string(),
        );
    }
    Ok(())
}
