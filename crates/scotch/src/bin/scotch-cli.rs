//! Command-line front end for the Scotch simulator.
//!
//! ```text
//! scotch-cli [OPTIONS]
//! scotch-cli trace [OPTIONS] [TRACE OPTIONS]
//! scotch-cli explain [OPTIONS] [EXPLAIN OPTIONS]
//! scotch-cli sweep [SWEEP OPTIONS]
//! scotch-cli bench hotpath [BENCH OPTIONS]
//! scotch-cli chaos [SCENARIO OPTIONS] [CHAOS OPTIONS]
//!
//! Topology:
//!   --scenario <datacenter|single|multirack>   (default: datacenter)
//!   --mesh <N>          mesh vSwitches (per rack for multirack); 0 only
//!                       with --baseline                 (default: 4)
//!   --racks <N>         racks for multirack             (default: 3)
//!   --servers <N>       servers (datacenter)            (default: 2)
//!   --middlebox         stateful firewall on server 0
//!
//! Workload:
//!   --attack <RATE>     spoofed flood, flows/s
//!   --attack-window <START> <END>   restrict the flood to [start, end) s
//!   --clients <RATE>    probe clients, flows/s          (default: 100)
//!   --trace <RATE>      Poisson/Pareto DC trace, flows/s
//!   --elephants <N> <PPS> <PKTS>    inject N paced elephants at t=2s
//!   --link-loss <P>     random per-packet loss on every link
//!
//! Control:
//!   --baseline          plain reactive controller (no Scotch)
//!   --sampling-rate <P> sampled flow telemetry at per-packet probability
//!                       P in (0, 1]; 1.0 reproduces exhaustive reports
//!                       byte-for-byte (default: exhaustive polling)
//!   --controllers <N>   controller-cluster replicas behind per-switch
//!                       mastership (DESIGN.md §16); 1 = the single-
//!                       controller engine, byte-for-byte (default: 1)
//!   --sync-latency-us <N>  inter-replica state-sync latency in µs — the
//!                       mastership-handoff bound (default: 500)
//!   --failover <SECS>   crash replica 0 at the given time, no restart
//!                       (scripted failover; requires --controllers >= 2)
//!   --seed <N>          RNG seed                        (default: 1)
//!   --duration <SECS>   simulated seconds               (default: 10)
//!   --json              machine-readable summary on stdout
//!   --pcap <NODE> <FILE>  capture packets arriving at the named node
//!
//! Multirack fabric (ignored by the other topologies):
//!   --interrack-us <N>  ToR-spine propagation in µs
//!   --rack-clients <RATE>  per-rack probe clients, flows/s each
//!
//! Sweep (multi-seed batches on the shared parallel runner):
//!   --smoke             CI preset: tiny horizons, 2 seeds, all scenarios
//!   --scenario <NAME>   one scenario instead of all three
//!   --seeds <N>         seeds per scenario                (default: 3)
//!   --seed-base <N>     first seed                        (default: 1)
//!   --duration <SECS>   simulated seconds per job         (default: 4)
//!   --attack <RATE>     flood rate for every job          (default: 1500)
//!   --clients <RATE>    client rate for every job         (default: 100)
//!   --threads <N>       worker threads; 0 = all cores     (default: 0)
//!   --out <DIR>         manifest directory                (default: results)
//!   --sampling-rate <P> run every job with sampled telemetry at rate P
//!   --sampling-ablation replace the grid with the sampled-telemetry
//!                       ablation: exhaustive + rates {1, 1/4, 1/16, 1/64,
//!                       1/256} x seeds on the elephant/DDoS datacenter
//!                       scenario; KPIs cover migration-decision latency
//!                       and monitor load (the DESIGN.md §13 figure data)
//!   --quiet             suppress per-job progress lines
//! ```
//!
//! Trace (flight-recorder dump of one run; accepts every top-level
//! scenario/workload/control option above, plus):
//! ```text
//!   --out <FILE>        write JSONL here instead of stdout
//!   --filter <CATS>     comma-separated categories to keep
//!                       (overlay,queue,flow,rule,packet_in,group,health)
//!   --verbose           record per-flow events too (admissions, drops,
//!                       rule installs, Packet-Ins)
//!   --capacity <N>      trace ring capacity in records   (default: 65536)
//!   --limit <N>         emit only the first N records     (default: all)
//!   --summary           print per-category/per-kind counts to stderr
//! ```
//!
//! Explain (causal journey timelines with latency decomposition; accepts
//! every top-level scenario/workload/control option above, plus):
//! ```text
//!   --rate <P>          journey sampling rate in (0, 1]  (default: 1/64)
//!   --journey <ID>      always trace this flow id (decimal or 0x hex) and
//!                       print its timeline; repeatable
//!   --slowest <N>       print the N slowest delivered journeys
//!                       (default: 5; ignored when --journey is given)
//!   --stage-summary     per-stage latency table (count, p50/p95/p99)
//!   --export <FILE>     write the canonical journey-mark stream as JSONL
//!   --slo               check the built-in SLO table; exit 1 on violation
//!   --slo-table <FILE>  check a table file instead (see scotch::slo)
//! ```
//!
//! `explain` output is a pure function of `(scenario, seed, rate)`:
//! journey selection is a stateless hash of the flow id.
//!
//! Bench (single-process hot-path throughput on a fixed scenario set):
//! ```text
//!   --out <FILE>        where to write the fresh numbers
//!                       (default: BENCH_hotpath.fresh.json)
//!   --baseline <FILE>   committed BENCH_hotpath.json to diff against
//!                       (prints a delta; warns, never fails, on regression)
//!   --label <NAME>      run label recorded in the JSON      (default: dev)
//!   --iters <N>         iterations per scenario, best wall time wins
//!                       (default: 3)
//!   --profile           per-event-type dispatch-cost histograms (wall
//!                       clock, observability-only)
//!   --trace-overhead    measure flight-recorder tracing (warn >5%) and
//!                       journey tracing at the default sampled rate
//!                       (warn >2%, exit 1 above 5%) against an
//!                       observability-off baseline
//!   --sampling-rate <P> rate for the `monitor_sampled_smoke` scenario
//!                       (default: 1/64; the exhaustive twin always runs)
//!   --gate              exit 1 when any scenario regresses more than 10%
//!                       vs the baseline (soft perf gate; without this
//!                       flag regressions only warn)
//!   --quiet             suppress per-scenario progress lines
//! ```
//!
//! Chaos (deterministic fault injection + invariant checking; accepts the
//! top-level scenario/workload/control options above, plus):
//! ```text
//!   --plan <FILE>       run a pinned fault-plan file instead of generating
//!   --events <N>        faults per generated plan        (default: 12)
//!   --search <N>        try N consecutive seeds, stop at the first plan
//!                       that violates an invariant, then shrink it
//!   --shrink-runs <N>   shrink budget in re-runs          (default: 200)
//!   --failover-bound <SECS>  override the I2 failover bound (0 breaks I2
//!                       deliberately; default derives from the heartbeat)
//!   --setup-bound <SECS>  per-flow setup-latency bound (I7): flows that
//!                       complete setup under faults must do so within
//!                       this bound                   (default: unchecked)
//!   --max-undeliverable <N>  I3 stranded-flow budget       (default: 0)
//!   --report <FILE>     write the violation report (with trace windows)
//!   --plan-out <FILE>   write the (shrunk) failing plan
//!   --promote <NAME>    commit the failing plan (shrunk, in `--search`
//!                       mode) as a regression fixture at
//!                       `crates/scotch/tests/fixtures/<NAME>.plan`
//! ```
//!
//! `chaos` exits 0 on a clean run, 1 when an invariant was violated
//! (or `--search` found a failing plan), 2 on usage errors.
//!
//! `sweep` fans each `(scenario, seed)` pair out on the work-stealing
//! runner, prints one progress line per finished job, and writes a
//! machine-readable run manifest (`<out>/<name>.manifest.json`) whose
//! non-timing fields are byte-identical across reruns.

use scotch::app::ControllerMode;
use scotch::scenario::Scenario;
use scotch::slo::SloTable;
use scotch_sim::journey::{
    JourneyConfig, JourneyPoint, JourneyView, DEFAULT_JOURNEY_RATE, STAGES, VERDICT_NAMES,
};
use scotch_sim::trace::{TraceCategory, TraceConfig, TraceLevel};
use scotch_sim::SimDuration;
use scotch_sim::SimTime;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    scenario: String,
    mesh: usize,
    racks: usize,
    servers: usize,
    middlebox: bool,
    attack: Option<f64>,
    attack_window: Option<(f64, f64)>,
    clients: f64,
    trace: Option<f64>,
    elephants: Option<(usize, f64, u32)>,
    link_loss: f64,
    baseline: bool,
    sampling_rate: Option<f64>,
    seed: u64,
    duration: f64,
    json: bool,
    pcap: Option<(String, String)>,
    interrack_us: Option<u64>,
    rack_clients: Option<f64>,
    controllers: u32,
    sync_latency_us: Option<u64>,
    failover: Option<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scenario: "datacenter".into(),
            mesh: 4,
            racks: 3,
            servers: 2,
            middlebox: false,
            attack: None,
            attack_window: None,
            clients: 100.0,
            trace: None,
            elephants: None,
            link_loss: 0.0,
            baseline: false,
            sampling_rate: None,
            seed: 1,
            duration: 10.0,
            json: false,
            pcap: None,
            interrack_us: None,
            rack_clients: None,
            controllers: 1,
            sync_latency_us: None,
            failover: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut i = 0;
    let next = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => o.scenario = next(&mut i)?,
            "--mesh" => o.mesh = next(&mut i)?.parse().map_err(|e| format!("--mesh: {e}"))?,
            "--racks" => o.racks = parse_count("--racks", &next(&mut i)?, 2)?,
            "--servers" => o.servers = parse_count("--servers", &next(&mut i)?, 1)?,
            "--middlebox" => o.middlebox = true,
            "--attack" => o.attack = Some(parse_rate("--attack", &next(&mut i)?, false)?),
            "--attack-window" => {
                let start = next(&mut i)?;
                let end = next(&mut i)?;
                o.attack_window = Some(parse_window(&start, &end)?);
            }
            "--clients" => o.clients = parse_rate("--clients", &next(&mut i)?, true)?,
            "--trace" => o.trace = Some(parse_rate("--trace", &next(&mut i)?, false)?),
            "--elephants" => {
                let n: usize = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("elephants: {e}"))?;
                let pps = parse_rate("--elephants pps", &next(&mut i)?, false)?;
                let pkts: u32 = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("elephants: {e}"))?;
                o.elephants = Some((n, pps, pkts));
            }
            "--link-loss" => o.link_loss = parse_probability("--link-loss", &next(&mut i)?)?,
            "--baseline" => o.baseline = true,
            "--sampling-rate" => {
                o.sampling_rate = Some(parse_sampling_rate(&next(&mut i)?)?);
            }
            "--seed" => o.seed = next(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--duration" => o.duration = parse_duration(&next(&mut i)?)?,
            "--json" => o.json = true,
            "--interrack-us" => {
                o.interrack_us = Some(
                    next(&mut i)?
                        .parse()
                        .map_err(|e| format!("--interrack-us: {e}"))?,
                )
            }
            "--rack-clients" => {
                o.rack_clients = Some(parse_rate("--rack-clients", &next(&mut i)?, false)?)
            }
            "--controllers" => {
                o.controllers = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("--controllers: {e}"))?;
                if o.controllers == 0 {
                    return Err("--controllers must be at least 1".into());
                }
            }
            "--sync-latency-us" => {
                let us: u64 = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("--sync-latency-us: {e}"))?;
                if us == 0 {
                    return Err("--sync-latency-us must be positive".into());
                }
                o.sync_latency_us = Some(us);
            }
            "--failover" => {
                let at: f64 = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("--failover: {e}"))?;
                if !(at.is_finite() && at > 0.0) {
                    return Err("--failover time must be positive".into());
                }
                o.failover = Some(at);
            }
            "--pcap" => {
                let node = next(&mut i)?;
                let file = next(&mut i)?;
                o.pcap = Some((node, file));
            }
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    if !matches!(o.scenario.as_str(), "datacenter" | "single" | "multirack") {
        return Err(format!("unknown scenario '{}'", o.scenario));
    }
    if o.failover.is_some() && o.controllers < 2 {
        return Err("--failover requires --controllers >= 2".into());
    }
    // Scotch with no mesh vSwitch has nowhere to divert a flood to; it would
    // run as an unprotected baseline under Scotch's name.
    if o.mesh == 0 && !o.baseline && o.scenario != "single" {
        return Err(
            "--mesh 0 leaves Scotch no overlay; use --mesh >= 1, or --baseline \
             to run without Scotch"
                .into(),
        );
    }
    Ok(o)
}

/// Parse and range-check a `--duration` value in simulated seconds (shared
/// by every front end that takes one). It must be finite and round to at
/// least 1 ns, and its nanosecond count must fit the `u64` clock: anything
/// else would run an empty simulation or saturate the horizon and never end.
fn parse_duration(text: &str) -> Result<f64, String> {
    let secs: f64 = text.parse().map_err(|e| format!("--duration: {e}"))?;
    let nanos = (secs * 1e9).round();
    if !(nanos >= 1.0 && nanos < u64::MAX as f64) {
        return Err(format!(
            "--duration must be finite seconds, at least 1 ns and below 2^64 ns (~1.8e10 s), got {text}"
        ));
    }
    Ok(secs)
}

/// Parse a rate (flows or packets per second) given to `flag`: finite and
/// positive, or finite and non-negative when `zero_ok` (a zero client rate
/// switches the clients off).
fn parse_rate(flag: &str, text: &str, zero_ok: bool) -> Result<f64, String> {
    let rate: f64 = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !rate.is_finite() || rate < 0.0 || (rate == 0.0 && !zero_ok) {
        let want = if zero_ok {
            "a finite rate >= 0"
        } else {
            "a positive finite rate"
        };
        return Err(format!("{flag} must be {want}, got {text}"));
    }
    Ok(rate)
}

/// Parse a probability given to `flag`: a number in `[0, 1]`.
fn parse_probability(flag: &str, text: &str) -> Result<f64, String> {
    let p: f64 = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{flag} must be in [0, 1], got {text}"));
    }
    Ok(p)
}

/// Parse a count given to `flag` that must be at least `min`.
fn parse_count(flag: &str, text: &str, min: usize) -> Result<usize, String> {
    let n: usize = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    if n < min {
        return Err(format!("{flag} must be at least {min}, got {n}"));
    }
    Ok(n)
}

/// Parse an `--attack-window START END` pair in seconds: finite, with
/// `0 <= START < END`.
fn parse_window(start: &str, end: &str) -> Result<(f64, f64), String> {
    let s: f64 = start.parse().map_err(|e| format!("--attack-window: {e}"))?;
    let e: f64 = end.parse().map_err(|e| format!("--attack-window: {e}"))?;
    if !(s >= 0.0 && s < e && e.is_finite()) {
        return Err(format!(
            "--attack-window needs finite 0 <= START < END, got {start} {end}"
        ));
    }
    Ok((s, e))
}

/// Parse and range-check a `--sampling-rate` value (shared by the run,
/// sweep, and bench front ends).
fn parse_sampling_rate(text: &str) -> Result<f64, String> {
    let rate: f64 = text.parse().map_err(|e| format!("--sampling-rate: {e}"))?;
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(format!("--sampling-rate must be in (0, 1], got {rate}"));
    }
    Ok(rate)
}

fn build_scenario(o: &Options) -> Scenario {
    let mut s = match o.scenario.as_str() {
        "single" => Scenario::single_switch(scotch_switch::SwitchProfile::pica8_pronto_3780()),
        "multirack" => Scenario::multirack(o.racks, o.mesh),
        _ => Scenario::overlay_datacenter(o.mesh).with_servers(o.servers),
    };
    if o.middlebox {
        s = s.with_middlebox();
    }
    match (o.attack, o.attack_window) {
        (Some(rate), Some((start, end))) => {
            s = s.with_attack_window(
                rate,
                SimTime::from_secs_f64(start),
                SimTime::from_secs_f64(end),
            )
        }
        (Some(rate), None) => s = s.with_attack(rate),
        _ => {}
    }
    if o.clients > 0.0 {
        s = s.with_clients(o.clients);
    }
    if let Some(rate) = o.trace {
        s = s.with_trace(rate);
    }
    if let Some((n, pps, pkts)) = o.elephants {
        s = s.with_elephants(n, pps, pkts, SimTime::from_secs(2));
    }
    if o.link_loss > 0.0 {
        s = s.with_link_loss(o.link_loss);
    }
    if let Some(us) = o.interrack_us {
        s = s.with_interrack_propagation(SimDuration::from_micros(us));
    }
    if let Some(rate) = o.rack_clients {
        s = s.with_rack_clients(rate);
    }
    if let Some(rate) = o.sampling_rate {
        s = s.with_sampling_rate(rate);
    }
    if o.controllers > 1 {
        s = s.with_controllers(o.controllers);
    }
    if let Some(us) = o.sync_latency_us {
        s = s.with_sync_latency(SimDuration::from_micros(us));
    }
    if let Some(at) = o.failover {
        s = s.with_failover_at(0, SimTime::from_secs_f64(at));
    }
    if o.baseline {
        s = s.with_mode(ControllerMode::Baseline);
    }
    s
}

/// Parsed trace-specific flags (everything else is forwarded to
/// [`parse_args`]).
#[derive(Debug, Clone, PartialEq)]
struct TraceOptions {
    out: Option<String>,
    filter: Option<String>,
    verbose: bool,
    capacity: usize,
    limit: usize,
    summary: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            out: None,
            filter: None,
            verbose: false,
            capacity: 65_536,
            limit: 0,
            summary: false,
        }
    }
}

/// Split a `trace` command line into trace flags and scenario flags.
fn parse_trace_args(args: &[String]) -> Result<(TraceOptions, Vec<String>), String> {
    let mut t = TraceOptions::default();
    let mut rest = Vec::new();
    let mut i = 0;
    let next = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--out" => t.out = Some(next(&mut i)?),
            "--filter" => t.filter = Some(next(&mut i)?),
            "--verbose" => t.verbose = true,
            "--capacity" => {
                t.capacity = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
                if t.capacity == 0 {
                    return Err("--capacity must be at least 1".into());
                }
            }
            "--limit" => t.limit = next(&mut i)?.parse().map_err(|e| format!("--limit: {e}"))?,
            "--summary" => t.summary = true,
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    Ok((t, rest))
}

/// Resolve a [`TraceConfig`] from the parsed trace flags: `--verbose`
/// raises every category to Verbose, `--filter` silences everything not
/// listed.
fn trace_config(t: &TraceOptions) -> Result<TraceConfig, String> {
    let mut config = if t.verbose {
        TraceConfig::verbose()
    } else {
        TraceConfig::default()
    };
    config = config.with_capacity(t.capacity);
    if let Some(filter) = &t.filter {
        let mut keep = [false; scotch_sim::trace::TRACE_CATEGORIES];
        for name in filter.split(',').filter(|s| !s.is_empty()) {
            let cat = TraceCategory::from_name(name.trim())
                .ok_or_else(|| format!("--filter: unknown category '{name}'"))?;
            keep[cat.index()] = true;
        }
        for cat in TraceCategory::ALL {
            if !keep[cat.index()] {
                config = config.with_level(cat, TraceLevel::Off);
            }
        }
    }
    Ok(config)
}

fn trace_main(args: &[String]) -> i32 {
    let usage = || {
        eprintln!("usage: scotch-cli trace [SCENARIO OPTIONS] [--out FILE] [--filter CATS]");
        eprintln!("                        [--verbose] [--capacity N] [--limit N] [--summary]");
    };
    let (topts, rest) = match parse_trace_args(args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return 2;
        }
    };
    let opts = match parse_args(&rest) {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            usage();
            return if e == "help" { 0 } else { 2 };
        }
    };
    let config = match trace_config(&topts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    let horizon = SimTime::from_secs_f64(opts.duration);
    let report = build_scenario(&opts)
        .with_tracing(config)
        .run(horizon, opts.seed);

    let jsonl = report.trace_jsonl();
    let emitted: String = if topts.limit > 0 {
        jsonl
            .lines()
            .take(topts.limit)
            .map(|l| format!("{l}\n"))
            .collect()
    } else {
        jsonl
    };
    match &topts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &emitted) {
                eprintln!("error: failed to write {path}: {e}");
                return 1;
            }
            eprintln!(
                "wrote {} trace record(s) to {path}",
                emitted.lines().count()
            );
        }
        None => print!("{emitted}"),
    }

    if topts.summary {
        let records = report.trace.records();
        let mut by_kind: Vec<(&'static str, &'static str, u64)> = Vec::new();
        for rec in &records {
            let kind = rec.event.kind_name();
            match by_kind.iter_mut().find(|(k, ..)| *k == kind) {
                Some(slot) => slot.2 += 1,
                None => by_kind.push((kind, rec.event.category().name(), 1)),
            }
        }
        by_kind.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        eprintln!(
            "trace summary: {} recorded, {} overwritten (ring capacity {})",
            report.trace.total_recorded(),
            report.trace.dropped(),
            topts.capacity
        );
        for (kind, cat, n) in by_kind {
            eprintln!("  {n:>8}  {kind} [{cat}]");
        }
    }
    0
}

/// Parsed `explain` subcommand flags (everything else is forwarded to
/// [`parse_args`]).
#[derive(Debug, Clone, PartialEq)]
struct ExplainOptions {
    rate: f64,
    journeys: Vec<u64>,
    slowest: usize,
    stage_summary: bool,
    export: Option<String>,
    slo: bool,
    slo_table: Option<String>,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions {
            rate: DEFAULT_JOURNEY_RATE,
            journeys: Vec::new(),
            slowest: 5,
            stage_summary: false,
            export: None,
            slo: false,
            slo_table: None,
        }
    }
}

/// Parse a journey id: decimal or `0x`-prefixed hex.
fn parse_journey_id(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("--journey: bad id '{text}': {e}"))
}

/// Split an `explain` command line into explain flags and scenario flags.
fn parse_explain_args(args: &[String]) -> Result<(ExplainOptions, Vec<String>), String> {
    let mut e = ExplainOptions::default();
    let mut rest = Vec::new();
    let mut i = 0;
    let next = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--rate" => {
                let rate: f64 = next(&mut i)?.parse().map_err(|e| format!("--rate: {e}"))?;
                if !(rate > 0.0 && rate <= 1.0) {
                    return Err(format!("--rate must be in (0, 1], got {rate}"));
                }
                e.rate = rate;
            }
            "--journey" => e.journeys.push(parse_journey_id(&next(&mut i)?)?),
            "--slowest" => {
                e.slowest = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("--slowest: {e}"))?
            }
            "--stage-summary" => e.stage_summary = true,
            "--export" => e.export = Some(next(&mut i)?),
            "--slo" => e.slo = true,
            "--slo-table" => {
                e.slo = true;
                e.slo_table = Some(next(&mut i)?);
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    Ok((e, rest))
}

/// Human duration from integer nanoseconds — a pure function of sim time,
/// so `explain` output is byte-deterministic.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_dur(d: SimDuration) -> String {
    fmt_ns(d.as_nanos())
}

fn fmt_at(t: SimTime) -> String {
    fmt_ns(t.as_nanos())
}

/// Name a `Drop` mark's `info` code (the `DropReason` dense index plus the
/// journey-layer extensions).
fn drop_reason_name(info: u64) -> &'static str {
    match info {
        0 => "ofa_overload",
        1 => "dataplane_overload",
        2 => "policy",
        3 => "no_route",
        x if x == scotch_sim::journey::DROP_LINK => "link_queue",
        x if x == scotch_sim::journey::DROP_CTRL_REJECT => "ctrl_reject",
        _ => "unknown",
    }
}

/// Name a `Fault` mark's `info` code (the `PERTURB_*` kinds).
fn perturb_name(info: u64) -> &'static str {
    match info {
        0 => "ctrl_rx_dropped",
        1 => "ctrl_tx_dropped",
        2 => "ctrl_msg_duplicated",
        3 => "ctrl_msg_delayed",
        _ => "unknown",
    }
}

fn node_name(names: &[String], node: u32) -> &str {
    names.get(node as usize).map(String::as_str).unwrap_or("-")
}

/// Print one journey's per-stage timeline.
fn print_timeline(view: &JourneyView, names: &[String]) {
    let outcome = match view.terminal() {
        Some(m) if m.point == JourneyPoint::Deliver => "delivered".to_string(),
        Some(m) if m.point == JourneyPoint::Cancel => "cancelled at horizon".to_string(),
        Some(m) => format!("dropped: {}", drop_reason_name(m.info)),
        None => "incomplete".to_string(),
    };
    let verdict = view
        .marks
        .iter()
        .find(|m| m.point == JourneyPoint::Decision)
        .map(|m| VERDICT_NAMES.get(m.info as usize).copied().unwrap_or("?"))
        .unwrap_or("none");
    // A `CtrlRx` mark carries `replica + 1` when a controller cluster is
    // settled (0 means the single-controller engine or mastership in flux).
    let replica = view
        .marks
        .iter()
        .find(|m| m.point == JourneyPoint::CtrlRx && m.info > 0)
        .map(|m| format!(", replica {}", m.info - 1))
        .unwrap_or_default();
    println!(
        "journey {:#x} ({outcome}, verdict {verdict}{replica}) start t={} total {}",
        view.id,
        fmt_at(view.start()),
        fmt_dur(view.total()),
    );
    let segments = view.segments();
    for span in &segments {
        let path = if span.from_node == span.to_node {
            node_name(names, span.to_node).to_string()
        } else {
            format!(
                "{} -> {}",
                node_name(names, span.from_node),
                node_name(names, span.to_node)
            )
        };
        println!(
            "  {:<14} {:>12}  {path}",
            span.stage.name(),
            fmt_dur(span.duration()),
        );
    }
    for ann in view.annotations() {
        match ann.point {
            JourneyPoint::Fault => println!(
                "  ! fault {} at t={} ({})",
                perturb_name(ann.info),
                fmt_at(ann.at),
                node_name(names, ann.node),
            ),
            JourneyPoint::Handoff => println!(
                "  ! handoff replica {} -> {} at t={} (switch {})",
                ann.info >> 32,
                ann.info & 0xffff_ffff,
                fmt_at(ann.at),
                node_name(names, ann.node),
            ),
            _ => println!(
                "  ! migration{} at t={} (first hop {})",
                if ann.info == 1 { " deferred" } else { "" },
                fmt_at(ann.at),
                node_name(names, ann.node),
            ),
        }
    }
    println!(
        "  {:<14} {:>12}  (sum of {} stage span(s))",
        "total",
        fmt_dur(view.total()),
        segments.len()
    );
}

fn explain_main(args: &[String]) -> i32 {
    let usage = || {
        eprintln!("usage: scotch-cli explain [SCENARIO OPTIONS] [--rate P] [--journey ID]");
        eprintln!("                          [--slowest N] [--stage-summary] [--export FILE]");
        eprintln!("                          [--slo] [--slo-table FILE]");
    };
    let (eopts, rest) = match parse_explain_args(args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return 2;
        }
    };
    let opts = match parse_args(&rest) {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            usage();
            return if e == "help" { 0 } else { 2 };
        }
    };
    let table = match &eopts.slo_table {
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match SloTable::parse(&text) {
                Ok(t) => Some(t),
                Err(e) => {
                    eprintln!("error: bad SLO table {path}: {e}");
                    return 2;
                }
            },
            Err(e) => {
                eprintln!("error: cannot read SLO table {path}: {e}");
                return 2;
            }
        },
        None if eopts.slo => Some(SloTable::builtin()),
        None => None,
    };

    let horizon = SimTime::from_secs_f64(opts.duration);
    let config = JourneyConfig {
        rate: eopts.rate,
        always: eopts.journeys.clone(),
        ..JourneyConfig::default()
    };
    let sim = build_scenario(&opts)
        .with_journeys(config)
        .build_until(opts.seed, horizon);
    let names: Vec<String> = (0..sim.topo.node_count() as u32)
        .map(|n| sim.topo.name(scotch_net::NodeId(n)).to_string())
        .collect();
    let report = sim.run(horizon);

    let views = report.journey_views();
    let d = report.journey_decomposition();
    if !eopts.journeys.is_empty() {
        for id in &eopts.journeys {
            match views.iter().find(|v| v.id == *id) {
                Some(view) => print_timeline(view, &names),
                None => eprintln!("warning: journey {id:#x} produced no marks in this run"),
            }
        }
    } else if eopts.slowest > 0 {
        // Slowest delivered journeys by end-to-end setup latency; journey
        // id breaks ties so the listing is deterministic.
        let mut delivered: Vec<&JourneyView> = views.iter().filter(|v| v.is_delivered()).collect();
        delivered.sort_by(|a, b| b.total().cmp(&a.total()).then(a.id.cmp(&b.id)));
        println!(
            "slowest {} of {} delivered journey(s) ({} traced):",
            eopts.slowest.min(delivered.len()),
            delivered.len(),
            views.len()
        );
        for view in delivered.iter().take(eopts.slowest) {
            print_timeline(view, &names);
        }
    }

    if eopts.stage_summary {
        println!(
            "stage summary: {} journey(s): {} delivered, {} dropped, {} cancelled",
            d.journeys, d.delivered, d.dropped, d.cancelled
        );
        println!(
            "  {:<14} {:>8} {:>12} {:>12} {:>12}",
            "stage", "count", "p50", "p95", "p99"
        );
        for stage in STAGES {
            let h = &d.stages[stage as usize].1;
            if h.count() == 0 {
                continue;
            }
            let (p50, p95, p99) = d.stage_quantiles(stage);
            println!(
                "  {:<14} {:>8} {:>12} {:>12} {:>12}",
                stage.name(),
                h.count(),
                fmt_ns(p50 as u64),
                fmt_ns(p95 as u64),
                fmt_ns(p99 as u64)
            );
        }
        if d.setup.count() > 0 {
            println!(
                "  {:<14} {:>8} {:>12} {:>12} {:>12}",
                "setup (e2e)",
                d.setup.count(),
                fmt_ns(d.setup.quantile(0.50) as u64),
                fmt_ns(d.setup.quantile(0.95) as u64),
                fmt_ns(d.setup.quantile(0.99) as u64)
            );
        }
    }

    if let Some(path) = &eopts.export {
        let jsonl = report.journeys_jsonl();
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("error: failed to write {path}: {e}");
            return 1;
        }
        eprintln!("wrote {} journey mark(s) to {path}", jsonl.lines().count());
    }

    if let Some(table) = table {
        let outcome = table.check(&opts.scenario, &d);
        print!("{}", outcome.render());
        return outcome.exit_code();
    }
    0
}

/// Parsed `sweep` subcommand line.
#[derive(Debug, Clone, PartialEq)]
struct SweepOptions {
    smoke: bool,
    scenario: Option<String>,
    seeds: u64,
    seed_base: u64,
    duration: f64,
    attack: f64,
    clients: f64,
    threads: usize,
    out: String,
    sampling_rate: Option<f64>,
    sampling_ablation: bool,
    quiet: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            smoke: false,
            scenario: None,
            seeds: 3,
            seed_base: 1,
            duration: 4.0,
            attack: 1500.0,
            clients: 100.0,
            threads: 0,
            out: "results".into(),
            sampling_rate: None,
            sampling_ablation: false,
            quiet: false,
        }
    }
}

fn parse_sweep_args(args: &[String]) -> Result<SweepOptions, String> {
    let mut o = SweepOptions::default();
    let mut i = 0;
    let next = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                o.smoke = true;
                o.seeds = 2;
                o.duration = 2.0;
                o.attack = 1000.0;
            }
            "--scenario" => o.scenario = Some(next(&mut i)?),
            "--seeds" => o.seeds = next(&mut i)?.parse().map_err(|e| format!("--seeds: {e}"))?,
            "--seed-base" => {
                o.seed_base = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seed-base: {e}"))?
            }
            "--duration" => o.duration = parse_duration(&next(&mut i)?)?,
            "--attack" => o.attack = parse_rate("--attack", &next(&mut i)?, false)?,
            "--clients" => o.clients = parse_rate("--clients", &next(&mut i)?, true)?,
            "--threads" => {
                o.threads = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--out" => o.out = next(&mut i)?,
            "--sampling-rate" => {
                o.sampling_rate = Some(parse_sampling_rate(&next(&mut i)?)?);
            }
            "--sampling-ablation" => o.sampling_ablation = true,
            "--quiet" => o.quiet = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown sweep option {other}")),
        }
        i += 1;
    }
    if o.seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if let Some(s) = &o.scenario {
        if !matches!(s.as_str(), "datacenter" | "single" | "multirack") {
            return Err(format!("unknown scenario '{s}'"));
        }
    }
    Ok(o)
}

/// Build the `(scenario, seed)` job grid for a sweep.
fn sweep_jobs(o: &SweepOptions) -> Vec<scotch_runner::Job<()>> {
    let scenarios: Vec<String> = match &o.scenario {
        Some(s) => vec![s.clone()],
        None => vec!["datacenter".into(), "single".into(), "multirack".into()],
    };
    let horizon = SimTime::from_secs_f64(o.duration);
    let mut jobs = Vec::new();
    for scenario in &scenarios {
        for k in 0..o.seeds {
            let seed = o.seed_base + k;
            let base = Options {
                scenario: scenario.clone(),
                mesh: if o.smoke { 2 } else { 4 },
                racks: 2,
                attack: Some(o.attack),
                clients: o.clients,
                sampling_rate: o.sampling_rate,
                seed,
                duration: o.duration,
                ..Options::default()
            };
            jobs.push(scotch_runner::Job::new(
                format!("{scenario}/s{seed}"),
                seed,
                move |ctx: &mut scotch_runner::JobCtx| {
                    // Journey tracing at the default sampled rate feeds the
                    // manifest's latency KPIs and SLO check verdicts; the
                    // mark stream is deterministic in (scenario, seed), so
                    // normalized manifests stay rerun-stable.
                    let report = build_scenario(&base)
                        .with_journey_rate(DEFAULT_JOURNEY_RATE)
                        .run(horizon, seed);
                    ctx.add_units(report.events_processed);
                    ctx.kpi("flows", report.flows.len() as f64);
                    ctx.kpi("client_failure", report.client_failure_fraction());
                    ctx.kpi(
                        "client_failure_steady",
                        report.client_failure_fraction_between(
                            SimTime::from_secs(1),
                            horizon.saturating_sub(SimDuration::from_secs(1)),
                        ),
                    );
                    ctx.kpi("physical_admitted", report.app.physical_admitted as f64);
                    ctx.kpi("overlay_admitted", report.app.overlay_admitted as f64);
                    ctx.kpi("activations", report.app.activations as f64);
                    let d = report.journey_decomposition();
                    ctx.kpi("journeys", d.journeys as f64);
                    ctx.kpi("journeys_delivered", d.delivered as f64);
                    if d.setup.count() > 0 {
                        ctx.kpi("journey_setup_p99_ms", d.setup.quantile(0.99) / 1e6);
                    }
                    for check in SloTable::builtin().check(&base.scenario, &d).checks {
                        let verdict = match check.pass {
                            Some(true) => "ok",
                            Some(false) => "violated",
                            None => "skipped",
                        };
                        ctx.check(&format!("slo: {}", check.rule.render()), verdict);
                    }
                    // Full metrics-registry snapshot into the manifest, so
                    // archived runs are comparable in every dimension.
                    ctx.metrics_snapshot(
                        report
                            .metrics
                            .entries
                            .iter()
                            .map(|(name, value)| (name.as_str(), *value)),
                    );
                },
            ));
        }
    }
    jobs
}

/// The rate ladder the sampled-telemetry ablation measures (besides the
/// exhaustive-polling reference).
const ABLATION_RATES: [f64; 5] = [1.0, 1.0 / 4.0, 1.0 / 16.0, 1.0 / 64.0, 1.0 / 256.0];

/// Build the `--sampling-ablation` job grid: exhaustive plus every rate in
/// [`ABLATION_RATES`], each across the seed range, on the elephant/DDoS
/// datacenter scenario. The manifest's KPI columns are the DESIGN.md §13
/// figure data — sampling rate vs migration-decision latency vs monitor
/// load vs estimate error.
fn ablation_jobs(o: &SweepOptions) -> Vec<scotch_runner::Job<()>> {
    let mut modes: Vec<(String, Option<f64>)> = vec![("exhaustive".into(), None)];
    modes.extend(
        ABLATION_RATES
            .iter()
            .map(|&r| (format!("r{}", (1.0 / r).round() as u64), Some(r))),
    );
    let horizon = SimTime::from_secs_f64(o.duration);
    let mut jobs = Vec::new();
    for (label, rate) in modes {
        for k in 0..o.seeds {
            let seed = o.seed_base + k;
            let attack = o.attack;
            let clients = o.clients;
            jobs.push(scotch_runner::Job::new(
                format!("ablation/{label}/s{seed}"),
                seed,
                move |ctx: &mut scotch_runner::JobCtx| {
                    let mut s = Scenario::overlay_datacenter(4)
                        .with_clients(clients)
                        .with_attack(attack)
                        .with_elephants(4, 1_000.0, 50_000, SimTime::from_secs(1));
                    if let Some(rate) = rate {
                        s = s.with_sampling_rate(rate);
                    }
                    let report = s.run(horizon, seed);
                    ctx.add_units(report.events_processed);
                    ctx.kpi("sampling_rate", rate.unwrap_or(1.0));
                    ctx.kpi("elephant_decisions", report.app.elephant_decisions as f64);
                    // Mean flow age at flag time — how long an elephant ran
                    // before the monitor noticed it.
                    ctx.kpi(
                        "decision_latency_ms",
                        report.app.decision_latency_ns as f64
                            / report.app.elephant_decisions.max(1) as f64
                            / 1e6,
                    );
                    ctx.kpi("migrations", report.app.migrations as f64);
                    let metric = |name: &str| report.metrics.get(name).unwrap_or(0.0);
                    ctx.kpi("stats_msgs", metric("monitor.stats_msgs"));
                    ctx.kpi("sampled_records", metric("monitor.sampled_records"));
                    ctx.kpi("est_error_ppm", metric("monitor.est_error.last"));
                    ctx.metrics_snapshot(
                        report
                            .metrics
                            .entries
                            .iter()
                            .map(|(name, value)| (name.as_str(), *value)),
                    );
                },
            ));
        }
    }
    jobs
}

fn sweep_main(args: &[String]) -> i32 {
    let opts = match parse_sweep_args(args) {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!("usage: scotch-cli sweep [--smoke] [--scenario NAME] [--seeds N] ...");
            eprintln!("       [--threads N]  worker threads; 0 = all cores (the default)");
            eprintln!("       (full flag list in the doc comment at the top of scotch-cli.rs)");
            return if e == "help" { 0 } else { 2 };
        }
    };
    let name = if opts.sampling_ablation {
        "sweep-sampling-ablation"
    } else if opts.smoke {
        "sweep-smoke"
    } else {
        "sweep"
    };
    let jobs = if opts.sampling_ablation {
        ablation_jobs(&opts)
    } else {
        sweep_jobs(&opts)
    };
    if opts.sampling_ablation {
        eprintln!(
            "sweep '{name}': {} job(s), {} telemetry mode(s) x {} seed(s)",
            jobs.len(),
            ABLATION_RATES.len() + 1,
            opts.seeds
        );
    } else {
        eprintln!(
            "sweep '{name}': {} job(s), {} scenario(s) x {} seed(s)",
            jobs.len(),
            if opts.scenario.is_some() { 1 } else { 3 },
            opts.seeds
        );
    }
    let sweep = scotch_runner::SweepRunner::new()
        .threads(opts.threads)
        .progress(!opts.quiet)
        .run(name, jobs);
    let manifest = sweep.manifest();
    let dir = std::path::PathBuf::from(&opts.out);
    match scotch_runner::manifest::write(&dir, name, &manifest) {
        Ok(path) => eprintln!(
            "{} ok, {} failed in {:.1}s ({:.1} jobs/s); manifest: {}",
            sweep.completed.get(),
            sweep.failed.get(),
            sweep.wall.as_secs_f64(),
            sweep.jobs_per_sec(),
            path.display()
        ),
        Err(e) => {
            eprintln!("error: failed to write manifest: {e}");
            return 1;
        }
    }
    if sweep.failed.get() > 0 {
        1
    } else {
        0
    }
}

/// Parsed `bench hotpath` subcommand line.
#[derive(Debug, Clone, PartialEq)]
struct BenchOptions {
    out: String,
    baseline: Option<String>,
    label: String,
    iters: u32,
    profile: bool,
    trace_overhead: bool,
    sampling_rate: f64,
    gate: bool,
    quiet: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            out: "BENCH_hotpath.fresh.json".into(),
            baseline: None,
            label: "dev".into(),
            iters: 3,
            profile: false,
            trace_overhead: false,
            sampling_rate: 1.0 / 64.0,
            gate: false,
            quiet: false,
        }
    }
}

fn parse_bench_args(args: &[String]) -> Result<BenchOptions, String> {
    let mut o = BenchOptions::default();
    let mut i = 0;
    let next = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--out" => o.out = next(&mut i)?,
            "--baseline" => o.baseline = Some(next(&mut i)?),
            "--label" => o.label = next(&mut i)?,
            "--iters" => o.iters = next(&mut i)?.parse().map_err(|e| format!("--iters: {e}"))?,
            "--profile" => o.profile = true,
            "--trace-overhead" => o.trace_overhead = true,
            "--sampling-rate" => o.sampling_rate = parse_sampling_rate(&next(&mut i)?)?,
            "--gate" => o.gate = true,
            "--quiet" => o.quiet = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown bench option {other}")),
        }
        i += 1;
    }
    if o.iters == 0 {
        return Err("--iters must be at least 1".into());
    }
    Ok(o)
}

/// Seed shared by every hot-path bench scenario (the bench crate's
/// `DEFAULT_SEED`; duplicated here so the CLI builds without the bench
/// crate).
const HOTPATH_SEED: u64 = 20141202;

/// The monitor-heavy bench shape: a dense 25 ms stats poll over an overlay
/// fabric whose flow tables keep growing under flood, so every exhaustive
/// poll walks and ships thousands of flow records and telemetry dominates
/// the run. Measured in both telemetry modes — the pair is the DESIGN.md
/// §13 headline comparison.
fn monitor_bench_scenario() -> Scenario {
    Scenario::overlay_datacenter(4)
        .with_config(scotch::ScotchConfig {
            stats_poll_interval: SimDuration::from_millis(25),
            ..scotch::ScotchConfig::default()
        })
        .with_clients(100.0)
        .with_attack(6_000.0)
        .with_elephants(4, 800.0, 50_000, SimTime::from_secs(1))
}

/// The fixed `(scenario, seed)` set the hot-path bench measures. Factories
/// because [`Scenario`] is single-use; each returns `(name, builder,
/// horizon)`. `sampling_rate` only affects the `monitor_sampled_smoke`
/// row — every other scenario keeps exhaustive telemetry.
#[allow(clippy::type_complexity)]
fn hotpath_scenarios(
    sampling_rate: f64,
) -> Vec<(&'static str, Box<dyn Fn() -> Scenario>, SimTime)> {
    vec![
        (
            // The paper's Fig. 3 regime: spoofed-source DDoS against one
            // hardware switch — the event-count worst case per switch.
            "ddos_smoke",
            Box::new(|| {
                Scenario::single_switch(scotch_switch::SwitchProfile::pica8_pronto_3780())
                    .with_clients(100.0)
                    .with_attack(20_000.0)
            }) as Box<dyn Fn() -> Scenario>,
            SimTime::from_secs(10),
        ),
        (
            // Scotch overlay under flood: exercises tunnels, vSwitch mesh
            // and the controller application.
            "overlay_ddos_smoke",
            Box::new(|| {
                Scenario::overlay_datacenter(4)
                    .with_clients(100.0)
                    .with_attack(8_000.0)
            }),
            SimTime::from_secs(5),
        ),
        (
            // Leaf-spine fabric with mostly-legitimate load: multi-hop
            // forwarding dominates over punts.
            "multirack_smoke",
            Box::new(|| {
                Scenario::multirack(2, 2)
                    .with_clients(200.0)
                    .with_attack(4_000.0)
            }),
            SimTime::from_secs(5),
        ),
        (
            // Telemetry worst case, exhaustive polling: the reference
            // side of the sampled-vs-exhaustive monitor comparison.
            "monitor_exhaustive_smoke",
            Box::new(monitor_bench_scenario),
            SimTime::from_secs(4),
        ),
        (
            // Same fabric and workload with sampled telemetry — the
            // monitor ingests only flows the sampler actually saw.
            "monitor_sampled_smoke",
            Box::new(move || monitor_bench_scenario().with_sampling_rate(sampling_rate)),
            SimTime::from_secs(4),
        ),
    ]
}

/// One measured scenario result.
struct BenchResult {
    name: &'static str,
    sim_seconds: f64,
    events: u64,
    wall_seconds: f64,
    events_per_sec: f64,
}

fn run_hotpath(iters: u32, quiet: bool, sampling_rate: f64) -> Vec<BenchResult> {
    let mut results = Vec::new();
    for (name, make, horizon) in hotpath_scenarios(sampling_rate) {
        let mut best: Option<(u64, f64)> = None; // (events, wall)
        for _ in 0..iters {
            let sim = make().build_until(HOTPATH_SEED, horizon);
            let start = std::time::Instant::now();
            let report = sim.run(horizon);
            let wall = start.elapsed().as_secs_f64();
            let events = report.events_processed;
            if let Some((prev_events, _)) = best {
                // Determinism sanity: the same (scenario, seed) must
                // process the same event count every iteration.
                assert_eq!(prev_events, events, "{name}: nondeterministic event count");
            }
            if best.map(|(_, w)| wall < w).unwrap_or(true) {
                best = Some((events, wall));
            }
        }
        let (events, wall) = best.unwrap();
        let eps = events as f64 / wall.max(1e-9);
        if !quiet {
            eprintln!("{name}: {events} events in {wall:.3}s ({:.0} ev/s)", eps);
        }
        results.push(BenchResult {
            name,
            sim_seconds: horizon.as_secs_f64(),
            events,
            wall_seconds: wall,
            events_per_sec: eps,
        });
    }
    results
}

/// Render one bench run as the `BENCH_hotpath.json` `runs[]` entry.
fn hotpath_run_json(label: &str, results: &[BenchResult]) -> scotch_runner::Json {
    use scotch_runner::Json;
    Json::obj().set("label", label).set(
        "scenarios",
        Json::Arr(
            results
                .iter()
                .map(|r| {
                    Json::obj()
                        .set("name", r.name)
                        .set("seed", HOTPATH_SEED)
                        .set("sim_seconds", r.sim_seconds)
                        .set("events", r.events)
                        .set("wall_seconds", r.wall_seconds)
                        .set("events_per_sec", r.events_per_sec)
                })
                .collect(),
        ),
    )
}

/// Extract `(name, events_per_sec)` pairs from a `BENCH_hotpath.json`
/// produced by [`hotpath_run_json`]. A full JSON parser is overkill for a
/// file we also write: scan for the `"name"`/`"events_per_sec"` lines and
/// let the last run in the file win.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            current = rest.split('"').next().map(String::from);
        } else if let Some(rest) = line.strip_prefix("\"events_per_sec\": ") {
            let val: f64 = match rest.trim_end_matches(',').parse() {
                Ok(v) => v,
                Err(_) => continue,
            };
            if let Some(name) = current.take() {
                if let Some(slot) = out.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = val;
                } else {
                    out.push((name, val));
                }
            }
        }
    }
    out
}

fn bench_main(args: &[String]) -> i32 {
    if args.first().map(String::as_str) != Some("hotpath") {
        eprintln!("usage: scotch-cli bench hotpath [--out FILE] [--baseline FILE]");
        eprintln!("                                [--label NAME] [--iters N] [--quiet]");
        return 2;
    }
    let opts = match parse_bench_args(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!("usage: scotch-cli bench hotpath [--out FILE] [--baseline FILE]");
            eprintln!("                                [--label NAME] [--iters N] [--quiet]");
            return if e == "help" { 0 } else { 2 };
        }
    };

    let results = run_hotpath(opts.iters, opts.quiet, opts.sampling_rate);
    let doc = scotch_runner::Json::obj()
        .set("bench", "hotpath")
        .set(
            "runs",
            scotch_runner::Json::Arr(vec![hotpath_run_json(&opts.label, &results)]),
        )
        .pretty();
    if let Err(e) = std::fs::write(&opts.out, doc) {
        eprintln!("error: failed to write {}: {e}", opts.out);
        return 1;
    }
    eprintln!("wrote {}", opts.out);

    let mut regressed = false;
    if let Some(path) = &opts.baseline {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let base = parse_baseline(&text);
                eprintln!("hotpath delta vs {path} (last run in file):");
                for r in &results {
                    match base.iter().find(|(n, _)| n == r.name) {
                        Some((_, b)) if *b > 0.0 => {
                            let ratio = r.events_per_sec / b;
                            eprintln!(
                                "  {}: {ratio:.2}x ({:.0} ev/s vs baseline {:.0} ev/s)",
                                r.name, r.events_per_sec, b
                            );
                            if ratio < 0.9 {
                                // A soft gate: a >10% drop fails only when
                                // --gate is set (same runner class as the
                                // committed baseline); otherwise CI runner
                                // clock noise makes this a warning.
                                regressed = true;
                                eprintln!(
                                    "warning: hotpath regression on {}: {ratio:.2}x vs baseline",
                                    r.name
                                );
                            }
                        }
                        _ => eprintln!("  {}: no baseline entry", r.name),
                    }
                }
            }
            Err(e) => eprintln!("warning: cannot read baseline {path}: {e}"),
        }
    }

    if opts.profile {
        eprintln!("dispatch-cost profile (wall clock; observability-only, never golden):");
        for (name, make, horizon) in hotpath_scenarios(opts.sampling_rate) {
            let mut sim = make().build_until(HOTPATH_SEED, horizon);
            sim.enable_profiling();
            let report = sim.run(horizon);
            eprintln!("{name}:");
            eprintln!(
                "  {:<22} {:>10} {:>9} {:>9} {:>9} {:>10}",
                "event", "count", "mean_ns", "p50_ns", "p99_ns", "total_ms"
            );
            for e in &report.profile {
                eprintln!(
                    "  {:<22} {:>10} {:>9.0} {:>9.0} {:>9.0} {:>10.2}",
                    e.name,
                    e.count,
                    e.mean_ns,
                    e.p50_ns,
                    e.p99_ns,
                    e.total_ns / 1e6
                );
            }
            // Top cost centers at a glance, including the refined rows
            // (tunnel transit, PacketIn, FlowMod) that split the hottest
            // dispatch kinds by what actually happened inside them.
            let mut by_total: Vec<_> = report.profile.iter().filter(|e| e.count > 0).collect();
            by_total.sort_by(|a, b| b.total_ns.total_cmp(&a.total_ns));
            let top: Vec<String> = by_total
                .iter()
                .take(3)
                .map(|e| format!("{} {:.2}ms", e.name, e.total_ns / 1e6))
                .collect();
            eprintln!("  top kinds by total: {}", top.join(", "));
        }
    }

    if opts.trace_overhead {
        eprintln!(
            "observability overhead (everything off vs flight-recorder tracing at the \
             default level vs journey sampling at rate {:.6}):",
            DEFAULT_JOURNEY_RATE
        );
        let mut worst_trace: f64 = 0.0;
        let mut worst_journey: f64 = 0.0;
        for (name, make, horizon) in hotpath_scenarios(opts.sampling_rate) {
            let ([off, trace, journey], [trace_ratio, journey_ratio]) =
                overhead_walls(&*make, horizon, opts.iters.max(7));
            let trace_pct = (trace_ratio - 1.0) * 100.0;
            let journey_pct = (journey_ratio - 1.0) * 100.0;
            worst_trace = worst_trace.max(trace_pct);
            worst_journey = worst_journey.max(journey_pct);
            eprintln!(
                "  {name}: {off:.3}s off, {trace:.3}s trace ({trace_pct:+.1}%), \
                 {journey:.3}s journeys ({journey_pct:+.1}%)"
            );
        }
        if worst_trace > 5.0 {
            eprintln!("warning: tracing overhead {worst_trace:.1}% exceeds the 5% budget");
        }
        if worst_journey > 5.0 {
            eprintln!(
                "error: journey-tracing overhead {worst_journey:.1}% exceeds the 5% hard budget"
            );
            return 1;
        } else if worst_journey > 2.0 {
            eprintln!(
                "warning: journey-tracing overhead {worst_journey:.1}% exceeds the 2% budget"
            );
        }
    }

    if opts.gate && regressed {
        eprintln!("error: --gate set and at least one scenario regressed >10%");
        return 1;
    }
    0
}

/// Interleaved overhead measurement for one bench scenario in three
/// configurations: `[everything off, flight recorder on, journey sampling
/// at the default rate]`. Returns the best wall time per configuration
/// (for display) and the **median paired ratio** of trace/off and
/// journeys/off (for gating): the three configurations run back-to-back
/// inside each iteration, so a slow phase (CPU frequency shift, noisy
/// neighbour) inflates numerator and denominator of that iteration's
/// ratio together instead of biasing whichever configuration happened to
/// run during it, and the median discards the remaining outliers.
fn overhead_walls(
    make: &dyn Fn() -> Scenario,
    horizon: SimTime,
    iters: u32,
) -> ([f64; 3], [f64; 2]) {
    const CONFIGS: [(bool, Option<f64>); 3] = [
        (false, None),
        (true, None),
        (false, Some(DEFAULT_JOURNEY_RATE)),
    ];
    let mut best = [f64::INFINITY; 3];
    let mut ratios: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..iters {
        let mut wall = [0.0f64; 3];
        for (slot, (tracing, journey_rate)) in CONFIGS.into_iter().enumerate() {
            let mut s = make();
            if tracing {
                s = s.with_tracing(TraceConfig::default());
            }
            if let Some(rate) = journey_rate {
                s = s.with_journey_rate(rate);
            }
            let sim = s.build_until(HOTPATH_SEED, horizon);
            let start = std::time::Instant::now();
            let _ = sim.run(horizon);
            wall[slot] = start.elapsed().as_secs_f64();
            best[slot] = best[slot].min(wall[slot]);
        }
        ratios[0].push(wall[1] / wall[0].max(1e-9));
        ratios[1].push(wall[2] / wall[0].max(1e-9));
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let [trace_ratios, journey_ratios] = ratios;
    (best, [median(trace_ratios), median(journey_ratios)])
}

/// Parsed chaos-specific flags (everything else is forwarded to
/// [`parse_args`]).
#[derive(Debug, Clone, PartialEq)]
struct ChaosOptions {
    plan: Option<String>,
    events: usize,
    search: Option<u64>,
    shrink_runs: usize,
    failover_bound: Option<f64>,
    setup_bound: Option<f64>,
    max_undeliverable: u64,
    report: Option<String>,
    plan_out: Option<String>,
    promote: Option<String>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            plan: None,
            events: 12,
            search: None,
            shrink_runs: 200,
            failover_bound: None,
            setup_bound: None,
            max_undeliverable: 0,
            report: None,
            plan_out: None,
            promote: None,
        }
    }
}

/// Parse an invariant bound in seconds: finite and non-negative (0 is
/// allowed and deliberately breaks the invariant it bounds).
fn parse_bound(flag: &str, text: &str) -> Result<f64, String> {
    let secs: f64 = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !(secs.is_finite() && secs >= 0.0) {
        return Err(format!(
            "{flag} must be finite, non-negative seconds, got {text}"
        ));
    }
    Ok(secs)
}

fn parse_chaos_args(args: &[String]) -> Result<(ChaosOptions, Vec<String>), String> {
    let mut c = ChaosOptions::default();
    let mut rest = Vec::new();
    let mut i = 0;
    let next = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--plan" => c.plan = Some(next(&mut i)?),
            "--events" => {
                c.events = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("--events: {e}"))?
            }
            "--search" => {
                c.search = Some(
                    next(&mut i)?
                        .parse()
                        .map_err(|e| format!("--search: {e}"))?,
                )
            }
            "--shrink-runs" => {
                c.shrink_runs = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("--shrink-runs: {e}"))?
            }
            "--failover-bound" => {
                c.failover_bound = Some(parse_bound("--failover-bound", &next(&mut i)?)?)
            }
            "--setup-bound" => c.setup_bound = Some(parse_bound("--setup-bound", &next(&mut i)?)?),
            "--max-undeliverable" => {
                c.max_undeliverable = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("--max-undeliverable: {e}"))?
            }
            "--report" => c.report = Some(next(&mut i)?),
            "--plan-out" => c.plan_out = Some(next(&mut i)?),
            "--promote" => {
                let name = next(&mut i)?;
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    return Err(format!("--promote: bad fixture name `{name}`"));
                }
                c.promote = Some(name);
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    Ok((c, rest))
}

/// One line per fault kind actually injected, from the chaos metrics.
fn injected_summary(report: &scotch::Report) -> String {
    let mut parts = Vec::new();
    for name in scotch_sim::fault::FAULT_KIND_NAMES {
        let n = report
            .metrics
            .get(&format!("chaos.injected.{name}"))
            .unwrap_or(0.0) as u64;
        if n > 0 {
            parts.push(format!("{name}={n}"));
        }
    }
    let skipped = report.metrics.get("chaos.skipped").unwrap_or(0.0) as u64;
    if skipped > 0 {
        parts.push(format!("skipped={skipped}"));
    }
    if parts.is_empty() {
        "none".into()
    } else {
        parts.join(" ")
    }
}

/// Write the violation report (plan + rendered violations) for artifacts.
fn write_chaos_report(
    path: &str,
    plan: &scotch_sim::fault::FaultPlan,
    seed: u64,
    violations: &[scotch::Violation],
) {
    let mut body = format!("# chaos violation report (seed {seed})\n# plan:\n");
    for line in plan.render().lines() {
        body.push_str("#   ");
        body.push_str(line);
        body.push('\n');
    }
    body.push_str(&scotch::chaos::render_violations(violations));
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: failed to write {path}: {e}");
    }
}

/// Commit a failing plan as a regression fixture under
/// `crates/scotch/tests/fixtures/`. The header comment records everything
/// a replay needs — seed, horizon, and the knobs that differ from their
/// defaults — and `FaultPlan::parse` skips it, so the fixture file is
/// also a valid `--plan` input.
fn promote_fixture(
    name: &str,
    plan: &scotch_sim::fault::FaultPlan,
    seed: u64,
    opts: &Options,
    copts: &ChaosOptions,
    violations: &[scotch::Violation],
) {
    let dir = std::path::Path::new("crates/scotch/tests/fixtures");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let mut body = format!("# chaos fixture `{name}` (promoted minimal failing plan)\n");
    body.push_str(&format!("# seed={seed}\n"));
    body.push_str(&format!("# duration_s={}\n", opts.duration));
    body.push_str(&format!("# scenario={}\n", opts.scenario));
    if let Some(rate) = opts.attack {
        body.push_str(&format!("# attack={rate}\n"));
    }
    body.push_str(&format!("# controllers={}\n", opts.controllers));
    if let Some(us) = opts.sync_latency_us {
        body.push_str(&format!("# sync_latency_us={us}\n"));
    }
    if let Some(secs) = copts.failover_bound {
        body.push_str(&format!("# failover_bound_s={secs}\n"));
    }
    if copts.max_undeliverable > 0 {
        body.push_str(&format!(
            "# max_undeliverable={}\n",
            copts.max_undeliverable
        ));
    }
    let mut names: Vec<&str> = violations.iter().map(|v| v.invariant).collect();
    names.dedup();
    body.push_str(&format!("# violations: {}\n", names.join(" ")));
    body.push_str(&plan.render());
    let path = dir.join(format!("{name}.plan"));
    match std::fs::write(&path, body) {
        Ok(()) => println!("chaos: promoted failing plan to {}", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
}

fn chaos_main(args: &[String]) -> i32 {
    let usage = || {
        eprintln!("usage: scotch-cli chaos [SCENARIO OPTIONS] [--plan FILE | --events N]");
        eprintln!("                        [--search N] [--shrink-runs N] [--failover-bound S]");
        eprintln!(
            "                        [--setup-bound S] [--max-undeliverable N] [--report FILE]"
        );
        eprintln!("                        [--plan-out FILE] [--promote NAME]");
    };
    let (copts, rest) = match parse_chaos_args(args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return 2;
        }
    };
    let opts = match parse_args(&rest) {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            usage();
            return if e == "help" { 0 } else { 2 };
        }
    };

    let horizon = SimTime::from_secs_f64(opts.duration);
    let horizon_dur = SimDuration::from_secs_f64(opts.duration);
    let mut cfg = scotch::ChaosConfig::default();
    if let Some(secs) = copts.failover_bound {
        cfg.failover_bound = SimDuration::from_secs_f64(secs);
    }
    if let Some(secs) = copts.setup_bound {
        cfg.setup_latency_bound = Some(SimDuration::from_secs_f64(secs));
    }
    cfg.max_undeliverable = copts.max_undeliverable;

    let run_one = |plan: &scotch_sim::fault::FaultPlan, seed: u64| {
        scotch::chaos::run_plan(&|| build_scenario(&opts), seed, horizon, plan, &cfg)
    };

    // Pinned-plan mode, or a single generated plan when --search is absent.
    let Some(tries) = copts.search else {
        let plan = match &copts.plan {
            Some(path) => {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: cannot read plan {path}: {e}");
                        return 2;
                    }
                };
                match scotch_sim::fault::FaultPlan::parse(&text) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("error: bad plan {path}: {e}");
                        return 2;
                    }
                }
            }
            None => scotch::chaos::generate_plan(opts.seed, horizon_dur, copts.events),
        };
        let outcome = run_one(&plan, opts.seed);
        println!(
            "chaos: seed={} plan={} events, injected: {}",
            opts.seed,
            plan.len(),
            injected_summary(&outcome.report)
        );
        if let Some(path) = &copts.plan_out {
            if let Err(e) = std::fs::write(path, plan.render()) {
                eprintln!("warning: failed to write {path}: {e}");
            }
        }
        if outcome.violations.is_empty() {
            println!("chaos: all invariants hold");
            return 0;
        }
        println!("chaos: {} violation(s)", outcome.violations.len());
        print!("{}", scotch::chaos::render_violations(&outcome.violations));
        if let Some(path) = &copts.report {
            write_chaos_report(path, &plan, opts.seed, &outcome.violations);
        }
        if let Some(name) = &copts.promote {
            promote_fixture(name, &plan, opts.seed, &opts, &copts, &outcome.violations);
        }
        return 1;
    };

    // Search mode: generate a fresh plan per seed until one violates an
    // invariant, then shrink it to a (locally) minimal failing plan.
    for seed in opts.seed..opts.seed.saturating_add(tries) {
        let plan = scotch::chaos::generate_plan(seed, horizon_dur, copts.events);
        let outcome = run_one(&plan, seed);
        if outcome.violations.is_empty() {
            println!(
                "chaos: seed={seed} clean ({})",
                injected_summary(&outcome.report)
            );
            continue;
        }
        println!(
            "chaos: seed={seed} FAILS with {} violation(s); shrinking (budget {} runs)",
            outcome.violations.len(),
            copts.shrink_runs
        );
        let (small, runs) = scotch::chaos::shrink(
            &plan,
            |cand| !run_one(cand, seed).violations.is_empty(),
            copts.shrink_runs,
        );
        let final_outcome = run_one(&small, seed);
        println!(
            "chaos: shrunk {} -> {} events in {} runs; minimal plan:",
            plan.len(),
            small.len(),
            runs
        );
        print!("{}", small.render());
        print!(
            "{}",
            scotch::chaos::render_violations(&final_outcome.violations)
        );
        if let Some(path) = &copts.plan_out {
            if let Err(e) = std::fs::write(path, small.render()) {
                eprintln!("warning: failed to write {path}: {e}");
            }
        }
        if let Some(path) = &copts.report {
            write_chaos_report(path, &small, seed, &final_outcome.violations);
        }
        if let Some(name) = &copts.promote {
            promote_fixture(name, &small, seed, &opts, &copts, &final_outcome.violations);
        }
        return 1;
    }
    println!("chaos: {tries} seed(s) searched, no invariant violations");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        std::process::exit(trace_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("explain") {
        std::process::exit(explain_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("chaos") {
        std::process::exit(chaos_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("sweep") {
        std::process::exit(sweep_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("bench") {
        std::process::exit(bench_main(&args[1..]));
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            eprintln!("usage: see the doc comment at the top of scotch-cli.rs, or README.md");
            std::process::exit(if e == "help" { 0 } else { 2 });
        }
    };

    let horizon = SimTime::from_secs_f64(opts.duration);
    let mut sim = build_scenario(&opts).build_until(opts.seed, horizon);
    let pcap_node = opts.pcap.as_ref().and_then(|(name, _)| {
        let found = (0..sim.topo.node_count() as u32)
            .map(scotch_net::NodeId)
            .find(|n| sim.topo.name(*n) == name);
        if let Some(n) = found {
            sim.capture_at(n);
        } else {
            eprintln!("warning: no node named '{name}'; capture disabled");
        }
        found
    });

    let report = sim.run(horizon);

    if let (Some(node), Some((_, file))) = (pcap_node, opts.pcap.as_ref()) {
        if let Some(cap) = report.captures.get(&node) {
            if let Err(e) = std::fs::write(file, cap.bytes()) {
                eprintln!("warning: failed to write {file}: {e}");
            } else {
                eprintln!("wrote {} packets to {file}", cap.records());
            }
        }
    }

    let steady = report.client_failure_fraction_between(
        SimTime::from_secs(1),
        horizon.saturating_sub(SimDuration::from_secs(1)),
    );
    if opts.json {
        // Hand-rolled JSON keeps the CLI dependency-free; the bench crate
        // offers full serde output.
        println!(
            "{{\"flows\":{},\"client_flows\":{},\"attack_flows\":{},\
             \"client_failure\":{:.6},\"client_failure_steady\":{:.6},\
             \"physical_admitted\":{},\"overlay_admitted\":{},\"migrations\":{},\
             \"activations\":{},\"withdrawals\":{},\"failovers\":{},\
             \"drops_ofa\":{},\"drops_dataplane\":{},\"drops_link\":{},\
             \"events\":{}}}",
            report.flows.len(),
            report.client_flows(),
            report.attack_flows(),
            report.client_failure_fraction(),
            steady,
            report.app.physical_admitted,
            report.app.overlay_admitted,
            report.app.migrations,
            report.app.activations,
            report.app.withdrawals,
            report.app.failovers,
            report.drops.ofa_overload,
            report.drops.dataplane,
            report.drops.link_queue,
            report.events_processed,
        );
    } else {
        println!("{}", report.summary());
        println!(
            "steady-state client failure (excluding first/last second): {:.2}%",
            steady * 100.0
        );
        if let Some(fct) = report.mean_client_fct() {
            println!("mean client flow completion time: {:.4}s", fct);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Options, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn defaults() {
        let o = parse("").unwrap();
        assert_eq!(o, Options::default());
    }

    #[test]
    fn full_flag_set() {
        let o = parse(
            "--scenario multirack --racks 4 --mesh 2 --attack 2500 --clients 80 \
             --elephants 3 1000 5000 --link-loss 0.01 --seed 9 --duration 12 --json",
        )
        .unwrap();
        assert_eq!(o.scenario, "multirack");
        assert_eq!(o.racks, 4);
        assert_eq!(o.mesh, 2);
        assert_eq!(o.attack, Some(2500.0));
        assert_eq!(o.clients, 80.0);
        assert_eq!(o.elephants, Some((3, 1000.0, 5000)));
        assert_eq!(o.link_loss, 0.01);
        assert_eq!(o.seed, 9);
        assert_eq!(o.duration, 12.0);
        assert!(o.json);
    }

    #[test]
    fn mesh_zero_without_baseline_is_rejected() {
        // Scotch with no mesh vSwitch: 0 activations, an unprotected run.
        let err = parse("--mesh 0 --attack 2000").unwrap_err();
        assert!(err.contains("--mesh 0"), "{err}");
    }

    #[test]
    fn multirack_mesh_zero_is_rejected() {
        // Not silently sized up to one mesh vSwitch per rack.
        let err = parse("--scenario multirack --mesh 0").unwrap_err();
        assert!(err.contains("--mesh 0"), "{err}");
        let o = parse("--scenario multirack --mesh 0 --baseline").unwrap();
        assert_eq!(o.mesh, 0);
    }

    #[test]
    fn mesh_zero_with_baseline_is_accepted() {
        let o = parse("--mesh 0 --baseline --attack 2000").unwrap();
        assert_eq!((o.mesh, o.baseline), (0, true));
        // The single-switch topology has no mesh to size.
        assert!(parse("--scenario single --mesh 0").is_ok());
    }

    #[test]
    fn shard_flags_parse() {
        // The multi-rack model knobs outlive the engine flags they once sat beside.
        let o =
            parse("--scenario multirack --racks 4 --interrack-us 200 --rack-clients 150").unwrap();
        assert_eq!(o.racks, 4);
        assert_eq!(o.interrack_us, Some(200));
        assert_eq!(o.rack_clients, Some(150.0));
        assert!(parse("--interrack-us").is_err());
        assert!(parse("--rack-clients").is_err());
    }

    #[test]
    fn attack_window_pairs() {
        let o = parse("--attack 2000 --attack-window 1 4").unwrap();
        assert_eq!(o.attack_window, Some((1.0, 4.0)));
    }

    #[test]
    fn scenario_knobs_reject_out_of_range_values() {
        for bad in [
            "--attack -5",
            "--attack 0",
            "--attack nan",
            "--attack inf",
            "--trace -3",
            "--trace 0",
            "--clients -1",
            "--clients nan",
            "--rack-clients -2",
            "--elephants 2 0 100",
            "--link-loss 2",
            "--link-loss -1",
            "--link-loss nan",
            "--servers 0",
            "--scenario multirack --racks 0",
            "--racks 1",
            "--attack 500 --attack-window 5 1",
            "--attack 500 --attack-window 2 2",
            "--attack 500 --attack-window -1 3",
            "--attack 500 --attack-window 1 inf",
            "--attack 500 --attack-window nan 3",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
        let o =
            parse("--clients 0 --link-loss 1 --servers 1 --racks 2 --attack-window 0 1").unwrap();
        assert_eq!(
            (o.clients, o.link_loss, o.servers, o.racks),
            (0.0, 1.0, 1, 2)
        );
        assert_eq!(o.attack_window, Some((0.0, 1.0)));
    }

    #[test]
    fn sweep_rates_reject_out_of_range_values() {
        for bad in [
            "--attack -5",
            "--attack 0",
            "--attack nan",
            "--attack inf",
            "--clients -1",
            "--clients inf",
        ] {
            let args: Vec<String> = bad.split_whitespace().map(String::from).collect();
            assert!(parse_sweep_args(&args).is_err(), "sweep accepted `{bad}`");
        }
        let args: Vec<String> = vec!["--clients".into(), "0".into()];
        assert_eq!(parse_sweep_args(&args).unwrap().clients, 0.0);
    }

    #[test]
    fn cluster_flags_parse() {
        let o = parse("--controllers 3 --sync-latency-us 750 --failover 1.5").unwrap();
        assert_eq!(o.controllers, 3);
        assert_eq!(o.sync_latency_us, Some(750));
        assert_eq!(o.failover, Some(1.5));
        let d = parse("").unwrap();
        assert_eq!(d.controllers, 1);
        assert_eq!(d.sync_latency_us, None);
        assert_eq!(d.failover, None);
    }

    #[test]
    fn rejects_bad_cluster_flags() {
        assert!(parse("--controllers 0").is_err());
        assert!(parse("--sync-latency-us 0").is_err());
        assert!(parse("--controllers 3 --failover 0").is_err());
        // A scripted failover needs a standby to fail over to.
        assert!(parse("--failover 1.0").is_err());
        assert!(parse("--controllers 1 --failover 1.0").is_err());
    }

    #[test]
    fn cluster_flags_reach_the_scenario() {
        let o = parse("--controllers 3 --sync-latency-us 750 --failover 0.5").unwrap();
        let sim = build_scenario(&o).build(1);
        let cluster = sim.app.cluster.as_ref().expect("cluster built");
        assert_eq!(cluster.replicas(), 3);
        assert_eq!(cluster.sync_latency(), SimDuration::from_micros(750));
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse("--bogus").is_err());
        // Worker threads belong to the sweep runner; a single run has none.
        assert!(parse("--threads 2").is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse("--attack").is_err());
    }

    #[test]
    fn rejects_unknown_scenario() {
        assert!(parse("--scenario ring").is_err());
    }

    #[test]
    fn build_scenarios_do_not_panic() {
        for s in ["single", "datacenter", "multirack"] {
            let o = Options {
                scenario: s.into(),
                attack: Some(500.0),
                ..Options::default()
            };
            let _sim = build_scenario(&o).build(1);
        }
    }

    fn parse_trace(s: &str) -> Result<(TraceOptions, Vec<String>), String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_trace_args(&args)
    }

    #[test]
    fn trace_flags_split_from_scenario_flags() {
        let (t, rest) = parse_trace(
            "--scenario single --attack 500 --out t.jsonl --filter overlay,queue \
             --verbose --capacity 1024 --limit 50 --summary",
        )
        .unwrap();
        assert_eq!(t.out.as_deref(), Some("t.jsonl"));
        assert_eq!(t.filter.as_deref(), Some("overlay,queue"));
        assert!(t.verbose);
        assert_eq!(t.capacity, 1024);
        assert_eq!(t.limit, 50);
        assert!(t.summary);
        // Scenario flags pass through untouched, in order.
        assert_eq!(rest, vec!["--scenario", "single", "--attack", "500"]);
        let o = parse_args(&rest).unwrap();
        assert_eq!(o.scenario, "single");
        assert_eq!(o.attack, Some(500.0));
    }

    #[test]
    fn trace_config_filter_silences_unlisted_categories() {
        let (t, _) = parse_trace("--filter overlay,health").unwrap();
        let config = trace_config(&t).unwrap();
        assert_eq!(
            config.levels[TraceCategory::Overlay.index()],
            TraceLevel::Brief
        );
        assert_eq!(
            config.levels[TraceCategory::Health.index()],
            TraceLevel::Brief
        );
        assert_eq!(config.levels[TraceCategory::Flow.index()], TraceLevel::Off);
        assert_eq!(config.levels[TraceCategory::Queue.index()], TraceLevel::Off);
    }

    #[test]
    fn trace_config_verbose_raises_kept_categories() {
        let (t, _) = parse_trace("--verbose --filter flow").unwrap();
        let config = trace_config(&t).unwrap();
        assert_eq!(
            config.levels[TraceCategory::Flow.index()],
            TraceLevel::Verbose
        );
        assert_eq!(
            config.levels[TraceCategory::Overlay.index()],
            TraceLevel::Off
        );
    }

    #[test]
    fn trace_rejects_bad_input() {
        assert!(parse_trace("--capacity 0").is_err());
        assert!(parse_trace("--out").is_err());
        let (t, _) = parse_trace("--filter bogus").unwrap();
        assert!(trace_config(&t).is_err());
    }

    fn parse_explain(s: &str) -> Result<(ExplainOptions, Vec<String>), String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_explain_args(&args)
    }

    #[test]
    fn explain_flags_split_from_scenario_flags() {
        let (e, rest) = parse_explain(
            "--scenario datacenter --attack 2000 --rate 0.25 --journey 42 --journey 0x2a \
             --slowest 3 --stage-summary --export j.jsonl",
        )
        .unwrap();
        assert_eq!(e.rate, 0.25);
        assert_eq!(e.journeys, vec![42, 42]);
        assert_eq!(e.slowest, 3);
        assert!(e.stage_summary);
        assert_eq!(e.export.as_deref(), Some("j.jsonl"));
        assert!(!e.slo);
        assert_eq!(rest, vec!["--scenario", "datacenter", "--attack", "2000"]);
        assert!(parse_args(&rest).is_ok());
    }

    #[test]
    fn explain_defaults_and_slo_flags() {
        let (e, _) = parse_explain("").unwrap();
        assert_eq!(e, ExplainOptions::default());
        assert_eq!(e.rate, DEFAULT_JOURNEY_RATE);
        assert_eq!(e.slowest, 5);
        let (e, _) = parse_explain("--slo").unwrap();
        assert!(e.slo && e.slo_table.is_none());
        let (e, _) = parse_explain("--slo-table slo.txt").unwrap();
        assert!(e.slo);
        assert_eq!(e.slo_table.as_deref(), Some("slo.txt"));
    }

    #[test]
    fn explain_rejects_bad_input() {
        assert!(parse_explain("--rate 0").is_err());
        assert!(parse_explain("--rate 1.5").is_err());
        assert!(parse_explain("--journey zz").is_err());
        assert!(parse_explain("--journey").is_err());
        assert!(parse_explain("--slowest x").is_err());
    }

    #[test]
    fn journey_ids_parse_decimal_and_hex() {
        assert_eq!(parse_journey_id("42").unwrap(), 42);
        assert_eq!(parse_journey_id("0xff").unwrap(), 255);
        assert!(parse_journey_id("0x").is_err());
        assert!(parse_journey_id("-1").is_err());
    }

    #[test]
    fn explain_duration_formatting_is_stable() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.500us");
        assert_eq!(fmt_ns(2_345_000), "2.345ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.210s");
    }

    #[test]
    fn bench_profile_and_overhead_flags() {
        let o = parse_bench("--profile --trace-overhead").unwrap();
        assert!(o.profile);
        assert!(o.trace_overhead);
    }

    /// `--duration` goes through one checked parser on every front end:
    /// values that would run an empty simulation or saturate the `u64`
    /// nanosecond horizon are errors, never silent runs.
    #[test]
    fn bad_durations_are_rejected_by_every_parser() {
        for bad in ["-1", "0", "nan", "inf", "-inf", "1e30", "1e-10", "ten"] {
            let flag = format!("--duration {bad}");
            assert!(parse(&flag).is_err(), "run --duration {bad}");
            assert!(parse_sweep(&flag).is_err(), "sweep --duration {bad}");
        }
        assert_eq!(parse_duration("1e-9"), Ok(1e-9));
        assert_eq!(parse_duration("1.5e10"), Ok(1.5e10));
        assert!(parse_duration("1.9e10").is_err());
    }

    #[test]
    fn sampling_rate_flags_parse() {
        // Run front end: optional, defaults to exhaustive.
        assert_eq!(parse("").unwrap().sampling_rate, None);
        let o = parse("--sampling-rate 0.015625").unwrap();
        assert_eq!(o.sampling_rate, Some(0.015625));
        assert!(parse("--sampling-rate 0").is_err());
        assert!(parse("--sampling-rate 1.5").is_err());
        assert!(parse("--sampling-rate -0.1").is_err());
        assert!(parse("--sampling-rate").is_err());
        // Bench front end: defaults to 1/64, only shapes the sampled row.
        assert_eq!(parse_bench("").unwrap().sampling_rate, 1.0 / 64.0);
        assert_eq!(
            parse_bench("--sampling-rate 0.25").unwrap().sampling_rate,
            0.25
        );
        assert!(parse_bench("--sampling-rate 2").is_err());
        // Sweep front end: per-job override plus the ablation preset.
        let s = parse_sweep("--sampling-rate 0.5").unwrap();
        assert_eq!(s.sampling_rate, Some(0.5));
        assert!(!s.sampling_ablation);
        assert!(
            parse_sweep("--sampling-ablation")
                .unwrap()
                .sampling_ablation
        );
        assert!(parse_sweep("--sampling-rate 0").is_err());
    }

    #[test]
    fn ablation_grid_covers_every_mode_and_seed() {
        let o = parse_sweep("--sampling-ablation --seeds 2 --seed-base 5").unwrap();
        let jobs = ablation_jobs(&o);
        // exhaustive + 5 rates, 2 seeds each.
        assert_eq!(jobs.len(), (ABLATION_RATES.len() + 1) * 2);
        assert_eq!(jobs[0].id, "ablation/exhaustive/s5");
        assert_eq!(jobs[1].id, "ablation/exhaustive/s6");
        assert_eq!(jobs[2].id, "ablation/r1/s5");
        assert_eq!(jobs.last().unwrap().id, "ablation/r256/s6");
    }

    #[test]
    fn chaos_flags_split_and_parse() {
        let args: Vec<String> =
            "--setup-bound 0.25 --promote repro-1 --plan p.plan --controllers 3"
                .split_whitespace()
                .map(String::from)
                .collect();
        let (c, rest) = parse_chaos_args(&args).unwrap();
        assert_eq!(c.setup_bound, Some(0.25));
        assert_eq!(c.promote.as_deref(), Some("repro-1"));
        assert_eq!(c.plan.as_deref(), Some("p.plan"));
        assert_eq!(rest, ["--controllers", "3"]);
        // Invariant bounds are finite, non-negative seconds.
        for flag in ["--failover-bound", "--setup-bound"] {
            for bad in ["nan", "-1", "inf", "-inf", "x"] {
                let args: Vec<String> = vec![flag.into(), bad.into()];
                assert!(parse_chaos_args(&args).is_err(), "accepted {flag} {bad}");
            }
        }
        // 0 is a documented value: it deliberately breaks the invariant.
        let args: Vec<String> = "--failover-bound 0 --setup-bound 0"
            .split_whitespace()
            .map(String::from)
            .collect();
        let (c, _) = parse_chaos_args(&args).unwrap();
        assert_eq!((c.failover_bound, c.setup_bound), (Some(0.0), Some(0.0)));
    }

    #[test]
    fn chaos_promote_rejects_path_like_names() {
        let args: Vec<String> = vec!["--promote".into(), "../evil".into()];
        assert!(parse_chaos_args(&args).is_err());
    }

    fn parse_sweep(s: &str) -> Result<SweepOptions, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_sweep_args(&args)
    }

    #[test]
    fn sweep_defaults() {
        let o = parse_sweep("").unwrap();
        assert_eq!(o, SweepOptions::default());
        // Default grid: 3 scenarios x 3 seeds.
        assert_eq!(sweep_jobs(&o).len(), 9);
    }

    #[test]
    fn sweep_smoke_presets() {
        let o = parse_sweep("--smoke").unwrap();
        assert!(o.smoke);
        assert_eq!(o.seeds, 2);
        assert_eq!(o.duration, 2.0);
        assert_eq!(sweep_jobs(&o).len(), 6);
    }

    #[test]
    fn sweep_scenario_and_seed_flags() {
        let o = parse_sweep("--scenario multirack --seeds 5 --seed-base 10 --threads 2").unwrap();
        assert_eq!(o.scenario.as_deref(), Some("multirack"));
        assert_eq!(o.threads, 2);
        let jobs = sweep_jobs(&o);
        assert_eq!(jobs.len(), 5);
        assert_eq!(jobs[0].id, "multirack/s10");
        assert_eq!(jobs[4].id, "multirack/s14");
    }

    #[test]
    fn sweep_threads_zero_means_all_cores() {
        // 0 is the default and leaves the runner at its all-cores count.
        assert_eq!(parse_sweep("").unwrap().threads, 0);
        assert_eq!(parse_sweep("--smoke --threads 0").unwrap().threads, 0);
    }

    #[test]
    fn sweep_rejects_bad_input() {
        assert!(parse_sweep("--scenario ring").is_err());
        assert!(parse_sweep("--seeds 0").is_err());
        assert!(parse_sweep("--bogus").is_err());
        assert!(parse_sweep("--seeds").is_err());
        assert!(parse_sweep("--scaling").is_err());
    }

    fn parse_bench(s: &str) -> Result<BenchOptions, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_bench_args(&args)
    }

    #[test]
    fn bench_defaults_and_flags() {
        assert_eq!(parse_bench("").unwrap(), BenchOptions::default());
        let o =
            parse_bench("--out x.json --baseline BENCH_hotpath.json --label ci --iters 1").unwrap();
        assert_eq!(o.out, "x.json");
        assert_eq!(o.baseline.as_deref(), Some("BENCH_hotpath.json"));
        assert_eq!(o.label, "ci");
        assert_eq!(o.iters, 1);
    }

    #[test]
    fn bench_shards_and_gate_flags() {
        assert!(!parse_bench("").unwrap().gate);
        assert!(parse_bench("--gate").unwrap().gate);
        assert!(parse_bench("--gate --iters 2").unwrap().gate);
    }

    #[test]
    fn bench_rejects_bad_input() {
        assert!(parse_bench("--iters 0").is_err());
        assert!(parse_bench("--bogus").is_err());
    }

    #[test]
    fn bench_scenarios_build() {
        let scenarios = hotpath_scenarios(1.0 / 64.0);
        for (name, make, horizon) in &scenarios {
            assert!(!name.is_empty());
            assert!(*horizon > SimTime::ZERO);
            let _sim = make().build(HOTPATH_SEED);
        }
        // The monitor pair is present: exhaustive reference + sampled twin.
        let names: Vec<_> = scenarios.iter().map(|(n, _, _)| *n).collect();
        assert!(names.contains(&"monitor_exhaustive_smoke"));
        assert!(names.contains(&"monitor_sampled_smoke"));
    }

    #[test]
    fn baseline_parser_takes_last_run() {
        let text = hotpath_run_json(
            "before",
            &[BenchResult {
                name: "ddos_smoke",
                sim_seconds: 2.0,
                events: 10,
                wall_seconds: 0.5,
                events_per_sec: 20.0,
            }],
        )
        .pretty();
        let doc = format!(
            "{{\n\"runs\": [\n{text},\n{}\n]\n}}\n",
            hotpath_run_json(
                "after",
                &[BenchResult {
                    name: "ddos_smoke",
                    sim_seconds: 2.0,
                    events: 10,
                    wall_seconds: 0.25,
                    events_per_sec: 40.0,
                }],
            )
            .pretty()
        );
        let base = parse_baseline(&doc);
        assert_eq!(base, vec![("ddos_smoke".to_string(), 40.0)]);
    }
}
