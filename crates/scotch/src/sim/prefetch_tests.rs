//! Arrival prefetch (DESIGN.md §9): a run reads the same arrivals, and
//! reports the same bytes, whether its sources are drawn inline or on a
//! helper thread; a source's panic surfaces from `run` either way; and the
//! busy-thread count that picks the path is released after every run.

use super::{Draw, SimThreads, Simulation};
use crate::scenario::{Scenario, ScriptedSource};
use scotch_net::{FlowId, FlowKey, NodeId, NodeKind};
use scotch_sim::fault::FaultPlan;
use scotch_sim::{SimDuration, SimRng, SimTime};
use scotch_switch::SwitchProfile;
use scotch_workload::clients::{ClientWorkload, FlowSize};
use scotch_workload::ddos::DdosAttacker;
use scotch_workload::feed::BATCH;
use scotch_workload::flash::{FlashCrowd, RateProfile};
use scotch_workload::trace::TraceWorkload;
use scotch_workload::{
    ArrivalFeed, FlowArrival, FlowIdAllocator, FlowIdStream, FlowSource, FlowSpec,
};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

fn spec(id: FlowId, i: u32, packets: u32) -> FlowSpec {
    FlowSpec {
        id,
        key: FlowKey::tcp(
            Scenario::client_ip(),
            1024 + i as u16,
            Scenario::server_ip(0),
            80,
        ),
        packets,
        packet_size: 100,
        packet_interval: SimDuration::from_millis(1),
        is_attack: false,
    }
}

/// `n` scripted arrivals 1 ms apart, as the scenario's elephants are
/// injected.
fn scripted(n: usize, ids: &mut FlowIdStream) -> Box<dyn FlowSource> {
    let arrivals = (0..n as u32)
        .map(|i| FlowArrival {
            at: ms(u64::from(i)),
            flow: spec(ids.next_id(), i, 50),
        })
        .collect();
    Box::new(ScriptedSource::new(arrivals))
}

/// A custom source with sparse ids (sequence numbers far apart, up to the
/// largest id), `n` arrivals long.
struct SparseIds {
    left: u32,
    at: SimTime,
}

impl FlowSource for SparseIds {
    fn next_arrival(&mut self) -> Option<FlowArrival> {
        self.left = self.left.checked_sub(1)?;
        self.at += SimDuration::from_micros(700);
        let id = FlowId(u64::MAX - u64::from(self.left) * (1 << 33));
        Some(FlowArrival {
            at: self.at,
            flow: spec(id, self.left, 2),
        })
    }
}

/// One source of every kind, fresh from fixed seeds. The scripted and
/// sparse-id streams end exactly on a batch boundary; the others do not.
fn every_kind() -> Vec<(&'static str, Box<dyn FlowSource>)> {
    let mut alloc = FlowIdAllocator::new();
    let (client, server) = (Scenario::client_ip(), Scenario::server_ip(0));
    let mut rng = SimRng::new(20141202);
    let surge = RateProfile {
        base: 200.0,
        peak: 5_000.0,
        surge_start: ms(200),
        peak_start: ms(400),
        peak_end: ms(600),
        surge_end: ms(800),
    };
    let hosts = (0..4).map(Scenario::server_ip).collect();
    vec![
        (
            "clients",
            Box::new(ClientWorkload::new(
                100.0,
                client,
                server,
                SimTime::ZERO,
                SimTime::from_secs(25),
                alloc.stream(),
                rng.fork(1),
            )),
        ),
        (
            "clients, spoofed range",
            Box::new(
                ClientWorkload::new(
                    3_000.0,
                    client,
                    server,
                    ms(5),
                    SimTime::from_secs(1),
                    alloc.stream(),
                    rng.fork(2),
                )
                .with_spoofed_sources(200)
                .with_size(FlowSize::Pareto {
                    lo: 1,
                    hi: 100,
                    alpha: 1.2,
                })
                .poisson(),
            ),
        ),
        (
            "ddos, constant",
            Box::new(DdosAttacker::new(
                4_000.0,
                server,
                SimTime::ZERO,
                SimTime::from_secs(1),
                alloc.stream(),
                rng.fork(3),
            )),
        ),
        (
            "ddos, poisson",
            Box::new(
                DdosAttacker::new(
                    2_500.0,
                    server,
                    ms(100),
                    SimTime::from_secs(1),
                    alloc.stream(),
                    rng.fork(4),
                )
                .poisson(),
            ),
        ),
        (
            "flash crowd",
            Box::new(FlashCrowd::new(
                surge,
                server,
                SimTime::ZERO,
                SimTime::from_secs(1),
                alloc.stream(),
                rng.fork(5),
            )),
        ),
        (
            "trace",
            Box::new(
                TraceWorkload::new(
                    1_500.0,
                    hosts,
                    SimTime::ZERO,
                    SimTime::from_secs(2),
                    alloc.stream(),
                    rng.fork(6),
                )
                .with_sizes(1, 2_000, 1.2),
            ),
        ),
        ("scripted, one batch", scripted(BATCH, &mut alloc.stream())),
        (
            "scripted, two batches",
            scripted(2 * BATCH, &mut alloc.stream()),
        ),
        (
            "scripted, mid-batch",
            scripted(BATCH + 17, &mut alloc.stream()),
        ),
        (
            "scripted, one short",
            scripted(BATCH - 1, &mut alloc.stream()),
        ),
        ("scripted, single", scripted(1, &mut alloc.stream())),
        ("scripted, empty", scripted(0, &mut alloc.stream())),
        (
            "sparse ids",
            Box::new(SparseIds {
                left: 3 * BATCH as u32,
                at: SimTime::ZERO,
            }),
        ),
    ]
}

/// Every arrival of every source, read in an uneven interleaving until
/// each is exhausted (and read once more after).
fn drain(mut feed: ArrivalFeed) -> Vec<Vec<FlowArrival>> {
    let n = feed.len();
    let mut got = vec![Vec::new(); n];
    let mut ended = vec![false; n];
    let mut round = 0;
    while ended.contains(&false) {
        for (s, ended) in ended.iter_mut().enumerate() {
            for _ in 0..1 + (round * 7 + s * 3) % 11 {
                match feed.next(s) {
                    Some(a) => {
                        assert!(!*ended, "source {s} resumed after its end");
                        got[s].push(a);
                    }
                    None => *ended = true,
                }
            }
        }
        round += 1;
    }
    got
}

fn feed_of_every_kind(prefetch: bool) -> ArrivalFeed {
    let mut feed = ArrivalFeed::new();
    for (_, source) in every_kind() {
        feed.push(source);
    }
    if prefetch {
        assert!(feed.prefetch());
    }
    feed
}

#[test]
fn every_source_kind_reads_the_same_prefetched_as_inline() {
    let names: Vec<_> = every_kind().into_iter().map(|(name, _)| name).collect();
    let inline = drain(feed_of_every_kind(false));
    let prefetched = drain(feed_of_every_kind(true));
    for ((name, a), b) in names.iter().zip(&inline).zip(&prefetched) {
        assert_eq!(a.len(), b.len(), "{name}: stream lengths");
        assert!(a == b, "{name}: arrivals differ");
    }
    let lens: Vec<_> = inline.iter().map(Vec::len).collect();
    // Streams that end mid-batch, on a batch boundary, and at once.
    assert!(lens.iter().any(|l| l % BATCH != 0), "{lens:?}");
    assert!(lens.iter().any(|&l| l > 0 && l % BATCH == 0), "{lens:?}");
    assert!(lens.contains(&0), "{lens:?}");
    // Every stream but the four scripted ones of a batch or less spans
    // batches.
    assert_eq!(
        lens.iter().filter(|&&l| l > BATCH).count(),
        lens.len() - 4,
        "{lens:?}"
    );
}

/// The committed golden scenarios (tests/golden_report.rs), built afresh.
fn golden_scenarios() -> Vec<(&'static str, Simulation, SimTime)> {
    const SEED: u64 = 20141202;
    let horizon = SimTime::from_secs(2);
    let plan = FaultPlan::parse(include_str!("../../tests/golden/chaos_pinned.plan"))
        .expect("plan parses");
    vec![
        (
            "fig3_single_switch",
            Scenario::single_switch(SwitchProfile::pica8_pronto_3780())
                .with_clients(100.0)
                .with_attack(1000.0)
                .build_until(SEED, horizon),
            horizon,
        ),
        (
            "scotch_eval_overlay",
            Scenario::overlay_datacenter(2)
                .with_clients(80.0)
                .with_attack(1000.0)
                .build_until(SEED, horizon),
            horizon,
        ),
        (
            "multirack_cluster_chaos",
            Scenario::multirack(4, 1)
                .with_interrack_propagation(SimDuration::from_micros(200))
                .with_rack_clients(150.0)
                .with_clients(80.0)
                .with_attack(400.0)
                .with_controllers(3)
                .with_sync_latency(SimDuration::from_micros(500))
                .with_fault_plan(plan)
                .with_failover_at(0, SimTime::from_secs_f64(0.5))
                .build_until(SEED, horizon),
            horizon,
        ),
    ]
}

#[test]
fn golden_reports_are_byte_identical_on_both_paths() {
    let threads = SimThreads::new(0);
    let inline = golden_scenarios();
    let prefetched = golden_scenarios();
    for ((name, a, until), (_, b, _)) in inline.into_iter().zip(prefetched) {
        let a = a
            .run_drawing(until, &threads, Draw::Inline)
            .canonical_json();
        let b = b
            .run_drawing(until, &threads, Draw::Prefetch)
            .canonical_json();
        assert!(a == b, "{name}: prefetched report differs from inline");
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.json"));
        let want = std::fs::read_to_string(&fixture).expect("golden fixture");
        assert!(
            a == want,
            "{name}: report differs from {}",
            fixture.display()
        );
    }
    assert_eq!(threads.busy(), 0);
}

/// Arrivals to a registered host 1 ms apart; panics on draw `panic_at`,
/// if any. Records the thread of every draw.
struct Probe {
    drawn: u32,
    panic_at: Option<u32>,
    threads: Arc<Mutex<Vec<ThreadId>>>,
    ids: FlowIdStream,
}

impl FlowSource for Probe {
    fn next_arrival(&mut self) -> Option<FlowArrival> {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        assert!(
            Some(self.drawn) != self.panic_at,
            "probe source failed at draw {}",
            self.drawn
        );
        self.drawn += 1;
        Some(FlowArrival {
            at: ms(u64::from(self.drawn)),
            flow: spec(self.ids.next_id(), self.drawn, 1),
        })
    }
}

/// A single-switch run over one [`Probe`]: the draws' threads, and the
/// outcome of 200 ms of simulation (200 arrivals read).
fn probe_run(
    threads: &SimThreads,
    draw: Draw,
    panic_at: Option<u32>,
) -> (Vec<ThreadId>, std::thread::Result<String>) {
    let mut sim = Scenario::single_switch(SwitchProfile::pica8_pronto_3780()).build(1);
    let client: NodeId = sim
        .topo
        .nodes_of_kind(NodeKind::Host)
        .into_iter()
        .find(|n| sim.topo.name(*n) == "client")
        .unwrap();
    let drew = Arc::new(Mutex::new(Vec::new()));
    sim.add_source(
        client,
        Box::new(Probe {
            drawn: 0,
            panic_at,
            threads: Arc::clone(&drew),
            ids: FlowIdAllocator::new().stream(),
        }),
    );
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_drawing(ms(200), threads, draw).canonical_json()
    }));
    let drew = drew.lock().unwrap().clone();
    (drew, out)
}

fn panic_message(out: std::thread::Result<String>) -> String {
    let payload = out.expect_err("the run panics");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("a message")
}

#[test]
fn a_source_panic_on_the_helper_fails_the_run_and_releases_its_threads() {
    let me = std::thread::current().id();
    let (inline_draws, inline) = probe_run(&SimThreads::new(2), Draw::Inline, Some(150));
    assert!(inline_draws.iter().all(|&t| t == me));
    let expected = panic_message(inline);
    assert_eq!(expected, "probe source failed at draw 150");

    // Two cores, none busy: the run takes the helper, which draws.
    let threads = SimThreads::new(2);
    let (draws, out) = probe_run(&threads, Draw::Auto, Some(150));
    assert!(draws.iter().all(|&t| t != me), "drawn inline");
    assert_eq!(panic_message(out), expected);
    assert_eq!(threads.busy(), 0, "the panicking run kept its threads");

    // So the next run takes the helper again, and matches inline.
    let (draws, out) = probe_run(&threads, Draw::Auto, None);
    assert!(draws.iter().all(|&t| t != me), "drawn inline");
    let (_, want) = probe_run(&threads, Draw::Inline, None);
    assert_eq!(out.expect("runs"), want.expect("runs"));
    assert_eq!(threads.busy(), 0);
}

#[test]
fn a_panic_past_the_horizon_is_not_the_runs() {
    // Draw 250 is past the 200 arrivals the run reads: inline never makes
    // it, and the helper's panic there must not fail the run either.
    let threads = SimThreads::new(2);
    let (_, prefetched) = probe_run(&threads, Draw::Prefetch, Some(250));
    let (_, inline) = probe_run(&threads, Draw::Inline, Some(250));
    assert_eq!(prefetched.expect("runs"), inline.expect("runs"));
    assert_eq!(threads.busy(), 0);
}

#[test]
fn a_run_takes_the_helper_only_with_a_core_spare() {
    let two = SimThreads::new(2);
    let first = two.claim(Draw::Auto);
    assert!(first.helper());
    let second = two.claim(Draw::Auto);
    assert!(!second.helper(), "both cores are busy");
    assert_eq!(two.busy(), 3);
    drop(first);
    let third = two.claim(Draw::Auto);
    assert!(!third.helper(), "the second run still holds a core");
    drop((second, third));
    assert!(two.claim(Draw::Auto).helper());
    assert_eq!(two.busy(), 0);

    let one = SimThreads::new(1);
    assert!(!one.claim(Draw::Auto).helper());
    assert!(one.claim(Draw::Prefetch).helper(), "forced");
    assert_eq!(one.busy(), 0);
}

#[test]
fn a_run_without_sources_never_takes_the_helper() {
    let threads = SimThreads::new(4);
    let sim = Scenario::single_switch(SwitchProfile::pica8_pronto_3780()).build(1);
    assert!(sim.feed.is_empty());
    let report = sim.run_drawing(ms(100), &threads, Draw::Prefetch);
    assert!(report.flows.is_empty());
    assert_eq!(threads.busy(), 0);
}
