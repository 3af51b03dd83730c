//! Micro-benchmarks of the hot paths, plus an end-to-end simulated-second
//! benchmark, on a small self-contained timing harness (`harness = false`;
//! the build is offline so criterion is not available).
//!
//! ```text
//! cargo bench -p scotch-bench [-- <name-filter>]
//! ```

use scotch::scenario::Scenario;
use scotch_net::{FlowId, FlowKey, IpAddr, Packet, PortId};
use scotch_openflow::{
    Action, Bucket, FlowRule, GroupEntry, Match, Pipeline, SelectionPolicy, TableId,
};
use scotch_sim::rate::FifoServer;
use scotch_sim::{EventQueue, SimDuration, SimRng, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measure `f`: calibrate an iteration count to ~50 ms per sample, take
/// five samples, and report the best and median ns/iter.
fn bench<R>(filter: &Option<String>, name: &str, mut f: impl FnMut() -> R) {
    if let Some(pat) = filter {
        if !name.contains(pat.as_str()) {
            return;
        }
    }
    // Warm up and estimate the per-iteration cost.
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters =
        (Duration::from_millis(50).as_nanos() / once.as_nanos()).clamp(1, 10_000_000) as u64;

    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "{name:<40} {:>12.0} ns/iter (best {:>12.0}, {iters} iters/sample)",
        samples[samples.len() / 2],
        samples[0]
    );
}

fn key(i: u32) -> FlowKey {
    FlowKey::tcp(IpAddr(0x0a00_0000 + i), 1024, IpAddr::new(10, 0, 1, 1), 80)
}

fn bench_flow_table(filter: &Option<String>) {
    for n_rules in [16usize, 256, 2000] {
        let mut pipeline = Pipeline::new(1, n_rules + 1);
        for i in 0..n_rules as u32 {
            pipeline
                .table_mut(TableId(0))
                .insert(
                    SimTime::ZERO,
                    FlowRule::apply(
                        Match::src_dst(key(i).src, key(i).dst),
                        100,
                        &[Action::Output(PortId(1))],
                    ),
                )
                .unwrap();
        }
        let pkt = Packet::flow_start(key(n_rules as u32 / 2), FlowId(1), SimTime::ZERO);
        let mut actions = Vec::new();
        bench(filter, &format!("flow_table_lookup/{n_rules}"), || {
            pipeline.process_into(SimTime::ZERO, black_box(&pkt), PortId(0), &mut actions)
        });
    }
}

fn bench_group_select(filter: &Option<String>) {
    let mut table = scotch_openflow::GroupTable::new();
    table.install(
        scotch_openflow::GroupId(1),
        GroupEntry::select(
            SelectionPolicy::FlowHash,
            (0..8)
                .map(|i| Bucket::new(vec![Action::Output(PortId(i))]))
                .collect(),
        ),
    );
    let mut i = 0u32;
    bench(filter, "group_select_hash_8_buckets", || {
        i = i.wrapping_add(1);
        // `select` returns a borrow of the chosen bucket's actions; reduce
        // to an owned value so the closure result can escape.
        table
            .select(scotch_openflow::GroupId(1), black_box(&key(i)))
            .map(|acts| acts.len())
    });
}

fn bench_flow_hash(filter: &Option<String>) {
    let k = key(12345);
    bench(filter, "flowkey_hash64", || black_box(&k).hash64());
}

/// The engine's access pattern (the hold model): with `pending` events
/// queued, each iteration pops the earliest and pushes one a random delay
/// later. The 72-byte payload matches the simulator's event size. 64 pending
/// is the engine's operating point; 32768 shows the other side of the
/// heap-versus-wheel crossover (DESIGN.md §9).
fn bench_event_queue(filter: &Option<String>) {
    for pending in [64u64, 32_768] {
        let mut rng = SimRng::new(7);
        let mut q = EventQueue::new();
        for i in 0..pending {
            q.push(SimTime::from_nanos(rng.range_u64(0, 1_000_000)), [i; 9]);
        }
        bench(filter, &format!("event_queue_hold/{pending}"), || {
            let (at, payload) = q.pop().unwrap();
            q.push(
                at + SimDuration::from_nanos(rng.range_u64(1, 1_000_000)),
                payload,
            );
            at
        });
    }
    for backlog in [64u64, 4096] {
        bench_near_chain(filter, backlog);
    }
}

/// The engine's shape under a spoofed flood (`ddos_punt`): a backlog of
/// far events (Packet-Ins waiting out the switch agent's queue and the
/// control latency) plus one chain of near events (flow start, arrival,
/// next flow start) that pops what it has just pushed. Each iteration pops
/// the earliest event and pushes its successor: a chain event 1–100 µs
/// later, a backlog event 8–24 chain steps per backlog event later, so
/// about one pop in sixteen is a backlog event and the pending count stays
/// `backlog + 1`.
fn bench_near_chain(filter: &Option<String>, backlog: u64) {
    const NEAR: u64 = 0;
    const FAR: u64 = 1;
    let step = |rng: &mut SimRng, kind: u64| match kind {
        NEAR => rng.range_u64(1_000, 100_000),
        _ => rng.range_u64(8 * backlog * 50_000, 24 * backlog * 50_000),
    };
    let mut rng = SimRng::new(7);
    let mut q = EventQueue::new();
    q.push(SimTime::ZERO, [NEAR; 9]);
    for _ in 0..backlog {
        let at = step(&mut rng, FAR);
        q.push(SimTime::from_nanos(at), [FAR; 9]);
    }
    bench(filter, &format!("event_queue_near_chain/{backlog}"), || {
        let (at, payload) = q.pop().unwrap();
        let delay = step(&mut rng, payload[0]);
        q.push(at + SimDuration::from_nanos(delay), payload);
        at
    });
}

fn bench_fifo_server(filter: &Option<String>) {
    let mut server = FifoServer::new(64);
    let st = FifoServer::service_time(200.0);
    let mut t = 0u64;
    bench(filter, "fifo_server_offer", || {
        t += 1_000_000;
        server.offer(SimTime::from_nanos(t), st)
    });
}

fn bench_rng(filter: &Option<String>) {
    let mut rng = SimRng::new(1);
    bench(filter, "rng_bounded_pareto", || {
        rng.bounded_pareto(1.0, 100_000.0, 1.2)
    });
}

fn bench_wire_codec(filter: &Option<String>) {
    use scotch_openflow::wire::{decode_message, encode_message, OfMessage};
    use scotch_openflow::{ControllerToSwitch, FlowModCommand, FlowRule};
    let entry = FlowRule::apply(Match::exact(key(7)), 100, &[Action::Output(PortId(3))]);
    let msg = OfMessage::ToSwitch(ControllerToSwitch::FlowMod {
        table: TableId(0),
        command: FlowModCommand::Add(entry),
    });
    let bytes = encode_message(&msg, 1).unwrap();
    bench(filter, "wire_encode_flow_mod", || {
        encode_message(black_box(&msg), 1).unwrap()
    });
    bench(filter, "wire_decode_flow_mod", || {
        decode_message(black_box(&bytes)).unwrap()
    });
}

fn bench_end_to_end(filter: &Option<String>) {
    // One simulated second of the full Scotch data-center scenario under
    // a 2000 flows/s flood: the throughput figure of the whole engine.
    bench(filter, "simulated_second_ddos_2k", || {
        Scenario::overlay_datacenter(4)
            .with_clients(100.0)
            .with_attack(2_000.0)
            .run(SimTime::from_secs(1), 42)
            .events_processed
    });
    bench(filter, "simulated_second_baseline_quiet", || {
        Scenario::single_switch(scotch_switch::SwitchProfile::pica8_pronto_3780())
            .with_clients(100.0)
            .run(SimTime::from_secs(1), 42)
            .events_processed
    });
}

fn main() {
    // `cargo bench` passes --bench; a bare string argument filters by name.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .filter(|a| !a.is_empty());
    bench_flow_table(&filter);
    bench_group_select(&filter);
    bench_flow_hash(&filter);
    bench_event_queue(&filter);
    bench_fifo_server(&filter);
    bench_rng(&filter);
    bench_wire_codec(&filter);
    bench_end_to_end(&filter);
}
