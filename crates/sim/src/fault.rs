//! Declarative, seed-deterministic fault plans.
//!
//! A [`FaultPlan`] is a schedule of typed fault events that a composition
//! root (the `scotch` crate's `Simulation`) injects through its ordinary
//! event queue. Because injection rides the same deterministic queue as
//! every other event, any (scenario, seed, plan) triple replays
//! bit-identically.
//!
//! Targets are abstract `u32` indices, resolved *at injection time* modulo
//! the set of live candidates (mesh vSwitches, links, switches). This keeps
//! randomly generated plans robust: any index is valid against any topology,
//! and shrinking an unrelated event never invalidates the rest of the plan.
//!
//! Plans have a stable line-based text form (see [`FaultPlan::render`])
//! so they can be pinned as golden fixtures and passed on the command line.

use crate::time::{SimDuration, SimTime};

/// Number of distinct fault kinds.
pub const FAULT_KIND_COUNT: usize = 11;

/// Canonical names for each fault kind, indexed by [`FaultKind::index`].
pub const FAULT_KIND_NAMES: [&str; FAULT_KIND_COUNT] = [
    "vswitch_crash",
    "link_down",
    "link_flap",
    "link_degrade",
    "ctrl_loss",
    "ctrl_dup",
    "ctrl_reorder",
    "ofa_slowdown",
    "controller_stall",
    "replica_crash",
    "ctrl_partition",
];

/// A typed fault to inject at some instant.
///
/// Durations bound the fault's effect; the injector schedules the matching
/// restore event itself. Probabilities are in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Crash a live mesh vSwitch (index modulo the live mesh set), with an
    /// optional restart after the given delay.
    VSwitchCrash {
        /// Abstract target index (resolved modulo live mesh vSwitches).
        target: u32,
        /// Delay until the vSwitch rejoins; `None` means it stays dead.
        restart_after: Option<SimDuration>,
    },
    /// Take one directed link down for `duration`.
    LinkDown {
        /// Abstract target index (resolved modulo directed link count).
        target: u32,
        /// How long the link stays down.
        duration: SimDuration,
    },
    /// Flap one directed link: `cycles` down/up pairs, each half-cycle
    /// lasting `period`.
    LinkFlap {
        /// Abstract target index (resolved modulo directed link count).
        target: u32,
        /// Number of down/up cycles.
        cycles: u32,
        /// Length of each half-cycle (down period == up period).
        period: SimDuration,
    },
    /// Add `extra_latency` to every transmission on one directed link for
    /// `duration`.
    LinkDegrade {
        /// Abstract target index (resolved modulo directed link count).
        target: u32,
        /// Additional one-way latency while degraded.
        extra_latency: SimDuration,
        /// How long the degradation lasts.
        duration: SimDuration,
    },
    /// Drop each control-channel message (both directions) with probability
    /// `p` for `duration`.
    CtrlLoss {
        /// Per-message drop probability.
        p: f64,
        /// Window length.
        duration: SimDuration,
    },
    /// Duplicate each switch-to-controller message with probability `p`
    /// for `duration`.
    CtrlDup {
        /// Per-message duplication probability.
        p: f64,
        /// Window length.
        duration: SimDuration,
    },
    /// Delay each control-channel message by a uniform extra latency in
    /// `[0, jitter]` with probability `p` for `duration`, reordering
    /// messages relative to each other.
    CtrlReorder {
        /// Per-message perturbation probability.
        p: f64,
        /// Maximum extra delay.
        jitter: SimDuration,
        /// Window length.
        duration: SimDuration,
    },
    /// Multiply one switch's OFA service times (Packet-In handling and rule
    /// insertion) by `factor` for `duration`.
    OfaSlowdown {
        /// Abstract target index (resolved modulo switches with an OFA).
        target: u32,
        /// Service-time multiplier (>= 1 slows the agent down).
        factor: f64,
        /// How long the slowdown lasts.
        duration: SimDuration,
    },
    /// Stall the controller completely for `duration`: inbound messages and
    /// periodic ticks are deferred until the stall ends.
    ControllerStall {
        /// Stall window length.
        duration: SimDuration,
    },
    /// Crash one controller replica (index modulo live replicas), migrating
    /// every switch it masters to the first live standby. Only meaningful
    /// when a controller cluster is configured; skipped otherwise.
    ReplicaCrash {
        /// Abstract target index (resolved modulo live replicas).
        target: u32,
        /// Delay until the replica rejoins as a standby; `None` = stays dead.
        restart_after: Option<SimDuration>,
    },
    /// Partition the inter-controller coordination channel for `duration`:
    /// mastership handoffs initiated while partitioned cannot complete until
    /// the partition heals. Only meaningful with a controller cluster.
    CtrlPartition {
        /// Partition window length.
        duration: SimDuration,
    },
}

impl FaultKind {
    /// Index of this kind into [`FAULT_KIND_NAMES`].
    pub fn index(&self) -> usize {
        match self {
            FaultKind::VSwitchCrash { .. } => 0,
            FaultKind::LinkDown { .. } => 1,
            FaultKind::LinkFlap { .. } => 2,
            FaultKind::LinkDegrade { .. } => 3,
            FaultKind::CtrlLoss { .. } => 4,
            FaultKind::CtrlDup { .. } => 5,
            FaultKind::CtrlReorder { .. } => 6,
            FaultKind::OfaSlowdown { .. } => 7,
            FaultKind::ControllerStall { .. } => 8,
            FaultKind::ReplicaCrash { .. } => 9,
            FaultKind::CtrlPartition { .. } => 10,
        }
    }

    /// Canonical name of this kind.
    pub fn name(&self) -> &'static str {
        FAULT_KIND_NAMES[self.index()]
    }
}

/// One scheduled fault: a [`FaultKind`] at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When to inject.
    pub at: SimTime,
    /// What to inject.
    pub kind: FaultKind,
}

/// A schedule of fault events.
///
/// The plan itself is inert data; the `scotch` crate's simulation applies
/// it by scheduling one injection event per entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults, in schedule order after [`FaultPlan::sort`].
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Append a fault at `at`.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sort events by injection time, preserving insertion order on ties.
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }

    /// Count of events per fault kind, indexed by [`FaultKind::index`].
    pub fn kind_counts(&self) -> [usize; FAULT_KIND_COUNT] {
        let mut counts = [0usize; FAULT_KIND_COUNT];
        for e in &self.events {
            counts[e.kind.index()] += 1;
        }
        counts
    }

    /// Render the plan in its stable line-based text form.
    ///
    /// One event per line: `<at_ns> <kind> key=value ...`. Blank lines and
    /// `#` comments are accepted by [`FaultPlan::parse`]. The rendering is
    /// canonical: `parse(render(p)) == p` for any plan.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let at = e.at.as_nanos();
            match e.kind {
                FaultKind::VSwitchCrash {
                    target,
                    restart_after,
                } => {
                    out.push_str(&format!("{at} vswitch_crash target={target}"));
                    if let Some(d) = restart_after {
                        out.push_str(&format!(" restart_after_ns={}", d.as_nanos()));
                    }
                }
                FaultKind::LinkDown { target, duration } => {
                    out.push_str(&format!(
                        "{at} link_down target={target} duration_ns={}",
                        duration.as_nanos()
                    ));
                }
                FaultKind::LinkFlap {
                    target,
                    cycles,
                    period,
                } => {
                    out.push_str(&format!(
                        "{at} link_flap target={target} cycles={cycles} period_ns={}",
                        period.as_nanos()
                    ));
                }
                FaultKind::LinkDegrade {
                    target,
                    extra_latency,
                    duration,
                } => {
                    out.push_str(&format!(
                        "{at} link_degrade target={target} extra_ns={} duration_ns={}",
                        extra_latency.as_nanos(),
                        duration.as_nanos()
                    ));
                }
                FaultKind::CtrlLoss { p, duration } => {
                    out.push_str(&format!(
                        "{at} ctrl_loss p={p} duration_ns={}",
                        duration.as_nanos()
                    ));
                }
                FaultKind::CtrlDup { p, duration } => {
                    out.push_str(&format!(
                        "{at} ctrl_dup p={p} duration_ns={}",
                        duration.as_nanos()
                    ));
                }
                FaultKind::CtrlReorder {
                    p,
                    jitter,
                    duration,
                } => {
                    out.push_str(&format!(
                        "{at} ctrl_reorder p={p} jitter_ns={} duration_ns={}",
                        jitter.as_nanos(),
                        duration.as_nanos()
                    ));
                }
                FaultKind::OfaSlowdown {
                    target,
                    factor,
                    duration,
                } => {
                    out.push_str(&format!(
                        "{at} ofa_slowdown target={target} factor={factor} duration_ns={}",
                        duration.as_nanos()
                    ));
                }
                FaultKind::ControllerStall { duration } => {
                    out.push_str(&format!(
                        "{at} controller_stall duration_ns={}",
                        duration.as_nanos()
                    ));
                }
                FaultKind::ReplicaCrash {
                    target,
                    restart_after,
                } => {
                    out.push_str(&format!("{at} replica_crash target={target}"));
                    if let Some(d) = restart_after {
                        out.push_str(&format!(" restart_after_ns={}", d.as_nanos()));
                    }
                }
                FaultKind::CtrlPartition { duration } => {
                    out.push_str(&format!(
                        "{at} ctrl_partition duration_ns={}",
                        duration.as_nanos()
                    ));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parse the text form produced by [`FaultPlan::render`].
    ///
    /// Blank lines and lines starting with `#` are ignored. Unknown kinds,
    /// missing or malformed fields, and out-of-range probabilities are
    /// errors naming the offending line.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx + 1;
            let mut tokens = line.split_whitespace();
            let at_tok = tokens.next().ok_or_else(|| err(lineno, "empty line"))?;
            let at_ns: u64 = at_tok
                .parse()
                .map_err(|_| err(lineno, &format!("bad timestamp `{at_tok}`")))?;
            let at = SimTime::from_nanos(at_ns);
            let kind_tok = tokens
                .next()
                .ok_or_else(|| err(lineno, "missing fault kind"))?;
            let fields = Fields::parse(lineno, tokens)?;
            let kind = match kind_tok {
                "vswitch_crash" => FaultKind::VSwitchCrash {
                    target: fields.req_u32("target")?,
                    restart_after: fields
                        .opt_u64("restart_after_ns")?
                        .map(SimDuration::from_nanos),
                },
                "link_down" => FaultKind::LinkDown {
                    target: fields.req_u32("target")?,
                    duration: fields.req_dur("duration_ns")?,
                },
                "link_flap" => FaultKind::LinkFlap {
                    target: fields.req_u32("target")?,
                    cycles: fields.req_u32("cycles")?,
                    period: fields.req_dur("period_ns")?,
                },
                "link_degrade" => FaultKind::LinkDegrade {
                    target: fields.req_u32("target")?,
                    extra_latency: fields.req_dur("extra_ns")?,
                    duration: fields.req_dur("duration_ns")?,
                },
                "ctrl_loss" => FaultKind::CtrlLoss {
                    p: fields.req_prob("p")?,
                    duration: fields.req_dur("duration_ns")?,
                },
                "ctrl_dup" => FaultKind::CtrlDup {
                    p: fields.req_prob("p")?,
                    duration: fields.req_dur("duration_ns")?,
                },
                "ctrl_reorder" => FaultKind::CtrlReorder {
                    p: fields.req_prob("p")?,
                    jitter: fields.req_dur("jitter_ns")?,
                    duration: fields.req_dur("duration_ns")?,
                },
                "ofa_slowdown" => FaultKind::OfaSlowdown {
                    target: fields.req_u32("target")?,
                    factor: fields.req_positive("factor")?,
                    duration: fields.req_dur("duration_ns")?,
                },
                "controller_stall" => FaultKind::ControllerStall {
                    duration: fields.req_dur("duration_ns")?,
                },
                "replica_crash" => FaultKind::ReplicaCrash {
                    target: fields.req_u32("target")?,
                    restart_after: fields
                        .opt_u64("restart_after_ns")?
                        .map(SimDuration::from_nanos),
                },
                "ctrl_partition" => FaultKind::CtrlPartition {
                    duration: fields.req_dur("duration_ns")?,
                },
                other => return Err(err(lineno, &format!("unknown fault kind `{other}`"))),
            };
            plan.push(at, kind);
        }
        plan.sort();
        Ok(plan)
    }
}

fn err(lineno: usize, msg: &str) -> String {
    format!("fault plan line {lineno}: {msg}")
}

/// Parsed `key=value` fields of one plan line.
struct Fields {
    lineno: usize,
    pairs: Vec<(String, String)>,
}

impl Fields {
    fn parse<'a>(lineno: usize, tokens: impl Iterator<Item = &'a str>) -> Result<Fields, String> {
        let mut pairs = Vec::new();
        for tok in tokens {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| err(lineno, &format!("expected key=value, got `{tok}`")))?;
            pairs.push((k.to_string(), v.to_string()));
        }
        Ok(Fields { lineno, pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn req_u64(&self, key: &str) -> Result<u64, String> {
        let v = self
            .get(key)
            .ok_or_else(|| err(self.lineno, &format!("missing field `{key}`")))?;
        v.parse()
            .map_err(|_| err(self.lineno, &format!("bad integer `{key}={v}`")))
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| err(self.lineno, &format!("bad integer `{key}={v}`"))),
        }
    }

    fn req_u32(&self, key: &str) -> Result<u32, String> {
        let n = self.req_u64(key)?;
        u32::try_from(n).map_err(|_| err(self.lineno, &format!("`{key}` out of range")))
    }

    fn req_dur(&self, key: &str) -> Result<SimDuration, String> {
        Ok(SimDuration::from_nanos(self.req_u64(key)?))
    }

    fn req_f64(&self, key: &str) -> Result<f64, String> {
        let v = self
            .get(key)
            .ok_or_else(|| err(self.lineno, &format!("missing field `{key}`")))?;
        let f: f64 = v
            .parse()
            .map_err(|_| err(self.lineno, &format!("bad number `{key}={v}`")))?;
        if !f.is_finite() {
            return Err(err(self.lineno, &format!("non-finite `{key}={v}`")));
        }
        Ok(f)
    }

    fn req_positive(&self, key: &str) -> Result<f64, String> {
        let f = self.req_f64(key)?;
        if f <= 0.0 {
            return Err(err(self.lineno, &format!("`{key}={f}` must be positive")));
        }
        Ok(f)
    }

    fn req_prob(&self, key: &str) -> Result<f64, String> {
        let f = self.req_f64(key)?;
        if !(0.0..=1.0).contains(&f) {
            return Err(err(
                self.lineno,
                &format!("probability `{key}={f}` outside [0, 1]"),
            ));
        }
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        let mut p = FaultPlan::new();
        p.push(
            SimTime::from_secs(2),
            FaultKind::VSwitchCrash {
                target: 1,
                restart_after: Some(SimDuration::from_secs(3)),
            },
        );
        p.push(
            SimTime::from_secs(1),
            FaultKind::LinkFlap {
                target: 7,
                cycles: 3,
                period: SimDuration::from_millis(200),
            },
        );
        p.push(
            SimTime::from_millis(1500),
            FaultKind::CtrlLoss {
                p: 0.25,
                duration: SimDuration::from_secs(1),
            },
        );
        p.push(
            SimTime::from_secs(4),
            FaultKind::OfaSlowdown {
                target: 0,
                factor: 8.5,
                duration: SimDuration::from_secs(2),
            },
        );
        p.push(
            SimTime::from_secs(5),
            FaultKind::ControllerStall {
                duration: SimDuration::from_millis(750),
            },
        );
        p.push(
            SimTime::from_secs(6),
            FaultKind::ReplicaCrash {
                target: 1,
                restart_after: Some(SimDuration::from_secs(2)),
            },
        );
        p.push(
            SimTime::from_secs(7),
            FaultKind::CtrlPartition {
                duration: SimDuration::from_millis(400),
            },
        );
        p.sort();
        p
    }

    #[test]
    fn render_parse_roundtrip() {
        let plan = sample_plan();
        let text = plan.render();
        let parsed = FaultPlan::parse(&text).unwrap();
        assert_eq!(parsed, plan);
        // Canonical: re-rendering is byte-identical.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let text = "# a pinned plan\n\n1000 link_down target=0 duration_ns=500\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(
            plan.events[0].kind,
            FaultKind::LinkDown {
                target: 0,
                duration: SimDuration::from_nanos(500)
            }
        );
    }

    #[test]
    fn parse_sorts_by_time() {
        let text = "2000 controller_stall duration_ns=10\n1000 controller_stall duration_ns=20\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.events[0].at, SimTime::from_nanos(1000));
        assert_eq!(plan.events[1].at, SimTime::from_nanos(2000));
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            "x link_down target=0 duration_ns=1",       // bad timestamp
            "10 no_such_fault target=0",                // unknown kind
            "10 link_down duration_ns=1",               // missing target
            "10 link_down target=0",                    // missing duration
            "10 ctrl_loss p=1.5 duration_ns=1",         // probability out of range
            "10 ctrl_loss p=nope duration_ns=1",        // malformed number
            "10 link_down target=0 duration_ns=1 zing", // not key=value
            "10 ofa_slowdown target=0 factor=-3 duration_ns=1", // negative factor
            "10 ofa_slowdown target=0 factor=0 duration_ns=1", // zero factor
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn crash_without_restart_roundtrips() {
        let mut p = FaultPlan::new();
        p.push(
            SimTime::from_secs(1),
            FaultKind::VSwitchCrash {
                target: 2,
                restart_after: None,
            },
        );
        let parsed = FaultPlan::parse(&p.render()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn kind_counts_cover_all_kinds() {
        let plan = sample_plan();
        let counts = plan.kind_counts();
        assert_eq!(counts.iter().sum::<usize>(), plan.len());
        assert_eq!(counts[0], 1); // vswitch_crash
        assert_eq!(counts[2], 1); // link_flap
        assert_eq!(counts[4], 1); // ctrl_loss
        assert_eq!(counts[7], 1); // ofa_slowdown
        assert_eq!(counts[8], 1); // controller_stall
        assert_eq!(counts[9], 1); // replica_crash
        assert_eq!(counts[10], 1); // ctrl_partition
    }

    #[test]
    fn replica_crash_without_restart_roundtrips() {
        let mut p = FaultPlan::new();
        p.push(
            SimTime::from_secs(1),
            FaultKind::ReplicaCrash {
                target: 0,
                restart_after: None,
            },
        );
        let parsed = FaultPlan::parse(&p.render()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn kind_names_match_indices() {
        let plan = sample_plan();
        for e in &plan.events {
            assert_eq!(FAULT_KIND_NAMES[e.kind.index()], e.kind.name());
        }
    }

    /// Fragments of plan lines, valid and not, for the never-panic fuzzer:
    /// timestamps, kinds, `key=value` fields and line endings.
    const TIMES: &[&str] = &[
        "1000",
        "0",
        "250000000",
        "18446744073709551615",
        "7",
        "42",
        "-5",
        "18446744073709551616",
        "#",
    ];
    const KINDS: &[&str] = &[
        "vswitch_crash",
        "link_down",
        "link_flap",
        "link_degrade",
        "ctrl_loss",
        "ctrl_dup",
        "ctrl_reorder",
        "ofa_slowdown",
        "controller_stall",
        "replica_crash",
        "ctrl_partition",
        "bogus_kind",
        "",
    ];
    const FIELDS: &[&str] = &[
        "target=1",
        "target=4294967296",
        "target=-1",
        "duration_ns=500",
        "duration_ns=",
        "restart_after_ns=7",
        "cycles=2",
        "period_ns=100",
        "extra_ns=9",
        "jitter_ns=3",
        "p=0.5",
        "p=1.5",
        "p=NaN",
        "p=-0",
        "factor=2",
        "factor=0",
        "factor=inf",
        "factor=NaN",
        "factor=1e400",
        "=",
        "key",
        "é=",
        "#",
    ];
    /// Every field any kind requires, valid. Fields drawn before it win
    /// (the first occurrence of a key counts), so a line that ends with it
    /// usually parses unless a drawn field spoils it.
    const ALL_FIELDS: &str = "target=1 duration_ns=500 restart_after_ns=7 cycles=2 \
        period_ns=100 extra_ns=9 jitter_ns=3 p=0.5 factor=2";
    const ENDINGS: &[&str] = &["\n", "\n", "\n", "\r\n", " ", ""];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 2048,
            ..proptest::ProptestConfig::default()
        })]

        /// Random token streams never panic the parser: each parses to an
        /// error or to a valid plan (probabilities in [0, 1], finite
        /// positive factors, sorted) whose rendering parses back to the
        /// same plan.
        #[test]
        fn prop_parse_never_panics(
            lines in proptest::collection::vec(
                (
                    0usize..TIMES.len(),
                    0usize..KINDS.len(),
                    proptest::collection::vec(0usize..FIELDS.len(), 0..3),
                    0u8..4,
                    0usize..ENDINGS.len(),
                ),
                0..4,
            ),
        ) {
            let mut text = String::new();
            for (t, k, fields, complete, end) in &lines {
                text.push_str(TIMES[*t]);
                text.push(' ');
                text.push_str(KINDS[*k]);
                for f in fields {
                    text.push(' ');
                    text.push_str(FIELDS[*f]);
                }
                if *complete > 0 {
                    text.push(' ');
                    text.push_str(ALL_FIELDS);
                }
                text.push_str(ENDINGS[*end]);
            }
            if let Ok(plan) = FaultPlan::parse(&text) {
                proptest::prop_assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
                for e in &plan.events {
                    match e.kind {
                        FaultKind::CtrlLoss { p, .. }
                        | FaultKind::CtrlDup { p, .. }
                        | FaultKind::CtrlReorder { p, .. } => {
                            proptest::prop_assert!((0.0..=1.0).contains(&p), "p={p}");
                        }
                        FaultKind::OfaSlowdown { factor, .. } => {
                            proptest::prop_assert!(factor > 0.0 && factor.is_finite());
                        }
                        _ => {}
                    }
                }
                proptest::prop_assert_eq!(FaultPlan::parse(&plan.render()), Ok(plan));
            }
        }
    }
}
