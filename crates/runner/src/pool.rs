//! The work-stealing sweep pool.
//!
//! Jobs are dealt round-robin onto per-worker deques; a worker serves its
//! own deque front-to-back and steals from the back of a sibling's deque
//! when it runs dry. Each job's result lands in the slot matching its
//! position in the input iterator, so output order is deterministic no
//! matter which worker ran what, and a panicking job fails only itself.

use crate::manifest;
use scotch_sim::metrics::{Counter, Histogram};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-job context handed to the work closure: the seed it should use plus
/// channels for reporting work volume and KPIs into the run manifest.
#[derive(Debug)]
pub struct JobCtx {
    /// The seed this job was scheduled with.
    pub seed: u64,
    units: u64,
    kpis: Vec<(String, f64)>,
    metrics: Vec<(String, f64)>,
    checks: Vec<(String, String)>,
}

impl JobCtx {
    /// Report `n` units of work done (simulated events, rows, packets —
    /// whatever throughput should be measured in).
    pub fn add_units(&mut self, n: u64) {
        self.units += n;
    }

    /// Record a named result metric for the run manifest. KPIs must be
    /// deterministic in `(job, seed)`; timing goes in [`JobResult::wall`]
    /// instead.
    pub fn kpi(&mut self, name: &str, value: f64) {
        self.kpis.push((name.to_string(), value));
    }

    /// Record one entry of the run's full metrics-registry snapshot.
    ///
    /// Where KPIs are the handful of curated headline numbers, this channel
    /// carries the complete flattened registry so archived `results/` runs
    /// are comparable in every dimension without re-running. Same
    /// determinism rule as KPIs: values must be pure in `(job, seed)`.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Record a whole metrics snapshot (an iterator of `(name, value)`).
    pub fn metrics_snapshot<'a>(&mut self, entries: impl IntoIterator<Item = (&'a str, f64)>) {
        for (name, value) in entries {
            self.metric(name, value);
        }
    }

    /// Record a named post-run check verdict (e.g. one SLO rule's
    /// "ok"/"violated"/"skipped") for the manifest's `checks` object.
    /// Verdicts must be deterministic in `(job, seed)` like KPIs.
    pub fn check(&mut self, name: &str, verdict: impl Into<String>) {
        self.checks.push((name.to_string(), verdict.into()));
    }
}

/// One schedulable unit of a sweep.
pub struct Job<T> {
    /// Stable identifier carried into results, progress lines, manifests.
    pub id: String,
    /// The seed recorded for this job.
    pub seed: u64,
    work: Box<dyn FnOnce(&mut JobCtx) -> T + Send>,
}

impl<T> Job<T> {
    /// A job named `id`, running `work` with `seed`.
    pub fn new(
        id: impl Into<String>,
        seed: u64,
        work: impl FnOnce(&mut JobCtx) -> T + Send + 'static,
    ) -> Self {
        Job {
            id: id.into(),
            seed,
            work: Box::new(work),
        }
    }
}

/// The outcome of one job.
pub struct JobResult<T> {
    /// Job id as given to [`Job::new`].
    pub id: String,
    /// Seed the job ran with.
    pub seed: u64,
    /// Wall-clock execution time of the work closure.
    pub wall: Duration,
    /// `Ok(value)` or `Err(panic message)`.
    pub outcome: Result<T, String>,
    /// Work units reported via [`JobCtx::add_units`].
    pub units: u64,
    /// KPIs reported via [`JobCtx::kpi`].
    pub kpis: Vec<(String, f64)>,
    /// Full metrics-registry snapshot reported via [`JobCtx::metric`].
    pub metrics: Vec<(String, f64)>,
    /// Named check verdicts reported via [`JobCtx::check`].
    pub checks: Vec<(String, String)>,
}

impl<T> JobResult<T> {
    /// Units per second of this job, 0 when no units were reported.
    pub fn units_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.units as f64 / secs
        } else {
            0.0
        }
    }
}

/// A completed sweep: per-job results in input order plus aggregate metrics.
pub struct Sweep<T> {
    /// Sweep name (manifest header, progress prefix).
    pub name: String,
    /// Worker threads the pool ran with.
    pub threads: usize,
    /// Per-job results, in the order the jobs were submitted.
    pub results: Vec<JobResult<T>>,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Per-job wall-times in microseconds.
    pub timing_us: Histogram,
    /// Jobs that returned normally.
    pub completed: Counter,
    /// Jobs that panicked.
    pub failed: Counter,
    /// Jobs taken from a sibling worker's deque rather than the owner's.
    pub steals: Counter,
    /// Own-deque depth observed at each local pop (scheduling pressure:
    /// a persistently deep own queue with zero steals means the deal was
    /// balanced; shallow queues with many steals mean workers ran dry).
    pub queue_depth: Histogram,
}

impl<T> Sweep<T> {
    /// Jobs per wall-clock second over the whole sweep.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.results.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Sum of all reported work units.
    pub fn total_units(&self) -> u64 {
        self.results.iter().map(|r| r.units).sum()
    }

    /// The values of all successful jobs, in input order, dropping failed
    /// ones.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.results.iter().filter_map(|r| r.outcome.as_ref().ok())
    }

    /// Unwrap every job value in input order; panics with the offending
    /// job ids if any job failed.
    pub fn into_values(self) -> Vec<T> {
        let failures: Vec<String> = self
            .results
            .iter()
            .filter_map(|r| {
                r.outcome
                    .as_ref()
                    .err()
                    .map(|e| format!("{} (seed {}): {e}", r.id, r.seed))
            })
            .collect();
        assert!(
            failures.is_empty(),
            "sweep '{}': {} job(s) failed: {}",
            self.name,
            failures.len(),
            failures.join("; ")
        );
        self.results
            .into_iter()
            .map(|r| r.outcome.unwrap_or_else(|_| unreachable!()))
            .collect()
    }

    /// The machine-readable run manifest, including timing fields.
    pub fn manifest(&self) -> crate::json::Json {
        manifest::build(self, true)
    }

    /// The manifest with every timing-dependent field stripped; two sweeps
    /// over the same jobs and seeds produce identical normalized manifests.
    pub fn manifest_normalized(&self) -> crate::json::Json {
        manifest::build(self, false)
    }
}

/// Sweep execution policy: thread count and progress reporting.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    progress: bool,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            progress: false,
        }
    }
}

impl SweepRunner {
    /// A runner with the default thread count and no progress output.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the worker count (0 means "default").
    pub fn threads(mut self, n: usize) -> Self {
        if n > 0 {
            self.threads = n;
        }
        self
    }

    /// Emit a progress line to stderr as each job finishes.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Run `jobs` to completion and collect a [`Sweep`].
    pub fn run<T: Send>(&self, name: &str, jobs: Vec<Job<T>>) -> Sweep<T> {
        let total = jobs.len();
        let threads = self.threads.min(total.max(1));
        let started = Instant::now();

        // Deal jobs round-robin onto per-worker deques. Each entry carries
        // the job's input index so results land in their original slot.
        type WorkQueue<T> = Mutex<VecDeque<(usize, Job<T>)>>;
        let queues: Vec<WorkQueue<T>> = (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            queues[i % threads].lock().unwrap().push_back((i, job));
        }

        let slots: Vec<Mutex<Option<JobResult<T>>>> =
            (0..total).map(|_| Mutex::new(None)).collect();
        let done = AtomicUsize::new(0);
        let total_steals = AtomicUsize::new(0);
        let depth_slots: Vec<Mutex<Vec<f64>>> =
            (0..threads).map(|_| Mutex::new(Vec::new())).collect();

        std::thread::scope(|scope| {
            for me in 0..threads {
                let queues = &queues;
                let slots = &slots;
                let done = &done;
                let total_steals = &total_steals;
                let depth_slots = &depth_slots;
                scope.spawn(move || {
                    let mut steals = 0usize;
                    let mut depths = Vec::new();
                    loop {
                        // Own queue first (front), then steal (back).
                        let next = {
                            let mut own = queues[me].lock().unwrap();
                            let job = own.pop_front();
                            if job.is_some() {
                                depths.push(own.len() as f64);
                            }
                            job
                        }
                        .or_else(|| {
                            (1..threads).map(|k| (me + k) % threads).find_map(|victim| {
                                let stolen = queues[victim].lock().unwrap().pop_back();
                                if stolen.is_some() {
                                    steals += 1;
                                }
                                stolen
                            })
                        });
                        let Some((slot, job)) = next else {
                            total_steals.fetch_add(steals, Ordering::Relaxed);
                            depth_slots[me].lock().unwrap().append(&mut depths);
                            break;
                        };
                        let result = execute(job);
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if self.progress {
                            eprintln!(
                                "[{finished}/{total}] {name}: {} seed={} {} in {:.2}s",
                                result.id,
                                result.seed,
                                if result.outcome.is_ok() {
                                    "ok"
                                } else {
                                    "FAILED"
                                },
                                result.wall.as_secs_f64()
                            );
                        }
                        *slots[slot].lock().unwrap() = Some(result);
                    }
                });
            }
        });

        let mut timing_us = Histogram::new();
        let mut completed = Counter::new();
        let mut failed = Counter::new();
        let results: Vec<JobResult<T>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every slot filled"))
            .collect();
        for r in &results {
            timing_us.record(r.wall.as_secs_f64() * 1e6);
            if r.outcome.is_ok() {
                completed.incr();
            } else {
                failed.incr();
            }
        }
        let mut steals = Counter::new();
        steals.add(total_steals.load(Ordering::Relaxed) as u64);
        let mut queue_depth = Histogram::new();
        for slot in depth_slots {
            for d in slot.into_inner().unwrap() {
                queue_depth.record(d);
            }
        }
        Sweep {
            name: name.to_string(),
            threads,
            results,
            wall: started.elapsed(),
            timing_us,
            completed,
            failed,
            steals,
            queue_depth,
        }
    }
}

fn execute<T>(job: Job<T>) -> JobResult<T> {
    let Job { id, seed, work } = job;
    let mut ctx = JobCtx {
        seed,
        units: 0,
        kpis: Vec::new(),
        metrics: Vec::new(),
        checks: Vec::new(),
    };
    let begun = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| work(&mut ctx))).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "job panicked".to_string()
        }
    });
    JobResult {
        id,
        seed,
        wall: begun.elapsed(),
        outcome,
        units: ctx.units,
        kpis: ctx.kpis,
        metrics: ctx.metrics,
        checks: ctx.checks,
    }
}
