//! End-to-end and per-layer benchmark of the Scotch simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload overlay_flood [--seed N] [--seconds N] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --all
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --spec > BENCHMARK.json
//! ```
//!
//! One workload per process. Untraced (`--trace 0`) it prints the
//! end-to-end metrics; traced (`--trace 1`) it alternates plain and
//! profiled runs and prints the per-layer table. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. `--all`
//! runs every workload both ways, each in its own process. See NOTES.md.

mod layers;
mod measure;
mod reference;
mod spec;
mod workloads;

use scotch_runner::Json;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench (--workload NAME | --all | --spec) \
[--seed N] [--seconds N] [--trace 0|1]";

/// `BENCHMARK.json` as committed; every run checks it against the tables.
const COMMITTED_SPEC: &str = include_str!("../../BENCHMARK.json");

enum Mode {
    One(&'static Workload),
    All,
    Spec,
}

struct Opts {
    mode: Mode,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut mode = None;
    let mut opts = Opts {
        mode: Mode::Spec,
        seed: scotch_bench::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workloads::find(&name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?;
                mode = Some(Mode::One(w));
            }
            "--all" => mode = Some(Mode::All),
            "--spec" => mode = Some(Mode::Spec),
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds `{v}` (a whole number >= 1)"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    opts.mode = mode.ok_or("no --workload, --all or --spec given")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match opts.mode {
        Mode::Spec => {
            print!("{}", spec::benchmark_json().pretty());
            ExitCode::SUCCESS
        }
        Mode::All => run_all(&opts),
        Mode::One(w) => run_one(w, &opts),
    }
}

/// Every workload, untraced then traced, each in a child process so peak
/// memory is per workload.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .status();
            if !status.is_ok_and(|s| s.success()) {
                failed.push(format!("{} --trace {trace}", w.name));
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_one(w: &Workload, opts: &Opts) -> ExitCode {
    if let Err(e) = spec::check_committed(COMMITTED_SPEC) {
        eprintln!("perfbench: self-check failed: {e}");
        return ExitCode::from(3);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} {}",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        fingerprint()
    );
    let window = Duration::from_secs(opts.seconds);
    let out = if opts.trace {
        measure::traced(w, opts.seed, window)
    } else {
        measure::untraced(w, opts.seed, window)
    };
    for e in &out.errors {
        println!("# error: {e}");
    }
    for n in &out.notes {
        println!("# {n}");
    }
    let expected = spec::expected(opts.trace);
    let names: Vec<&str> = out.metrics.iter().map(|(n, _)| n.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
    if !out.metrics.is_empty() && names != wanted {
        let missing: Vec<_> = wanted.iter().filter(|n| !names.contains(n)).collect();
        let extra: Vec<_> = names.iter().filter(|n| !wanted.contains(n)).collect();
        eprintln!(
            "perfbench: self-check failed: {} reports metrics out of spec \
             (missing {missing:?}, unlisted {extra:?}, or out of order)",
            w.name
        );
        return ExitCode::from(3);
    }
    if opts.trace && !out.metrics.is_empty() {
        print_layer_table(&out.metrics);
    }
    let mut doc = Json::obj();
    for ((name, value), m) in out.metrics.iter().zip(&expected) {
        println!("{name:<34} {value:>20.6} {}", m.unit);
        doc = doc.set(name, Json::obj().set("value", *value).set("unit", m.unit));
    }
    let correct = out.failed == 0 && !out.metrics.is_empty();
    println!(
        "{:<34} {:>20.6} ratio   ({} of {} runs failed)",
        "failed_frac",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    if let Some(h) = out.hash {
        println!("# output_hash={h:016x}");
    }
    let result = Json::obj()
        .set("correct", correct)
        .set("attempted", out.attempted)
        .set("failed", out.failed)
        .set("metrics", doc);
    println!("{}", result.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Busy time per layer as a share of the traced run, with the end-to-end
/// metric each layer should move.
fn print_layer_table(metrics: &[(String, f64)]) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let run_ms = get("trace.run_ms");
    let share = |ms: f64| {
        if run_ms > 0.0 {
            100.0 * ms / run_ms
        } else {
            0.0
        }
    };
    println!(
        "# {:<24} {:>12} {:>7}  should move",
        "layer", "busy_ms", "share"
    );
    for layer in layers::LAYERS {
        let busy = get(&format!("{}.busy_ms", layer.name));
        println!(
            "# {:<24} {busy:>12.3} {:>6.1}%  {}",
            layer.name,
            share(busy),
            layer.moves
        );
    }
    let rest = get("sim.unattributed_ms");
    println!(
        "# {:<24} {rest:>12.3} {:>6.1}%  event queue and dispatch loop",
        "sim.unattributed",
        share(rest)
    );
}

/// `nproc`, CPU model and source revision, so results are never compared
/// across machines by mistake.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .filter(|l| l.starts_with("model name"))
                .find_map(|l| l.split_once(':').map(|(_, m)| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} cpu=\"{cpu}\" rev={}", git_rev())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => read(r).map(|h| h.trim().to_string()).or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == r).then(|| hash.to_string())
            })
        }),
    };
    hash.map_or("unknown".to_string(), |h| h.chars().take(12).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = parse(&args("--workload ddos_punt --seed 7 --seconds 3 --trace 1")).unwrap();
        assert!(matches!(o.mode, Mode::One(w) if w.name == "ddos_punt"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload ddos_punt --trace 2",
            "--workload ddos_punt --seconds 0",
            "--workload ddos_punt --seed -1",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn committed_spec_matches_the_tables() {
        spec::check_committed(COMMITTED_SPEC).unwrap();
    }
}
