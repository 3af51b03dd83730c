//! Allocation budget of the controller path (DESIGN.md §9, "Control path").
//!
//! Under Scotch's overlay flood every punted flow costs a Packet-In
//! decision plus a few FlowMods. Rule actions are inline, flow-table index
//! buckets hold their first slot inline, the controller writes into a
//! reused command buffer and the simulation recycles message boxes, so the
//! steady-state cycle allocates next to nothing. This test pins that with
//! a counting global allocator (this test binary only): heap allocations
//! made inside `Simulation::run`, per Packet-In the controller received,
//! must stay within a small budget. Before the allocation-free control
//! path the same run made about 16 per Packet-In.

use scotch::scenario::Scenario;
use scotch_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made on
/// the calling thread, so the test harness's own threads never leak into
/// the measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator can run while the thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Most heap allocations `Simulation::run` may make per Packet-In the
/// controller receives (report construction included).
const BUDGET_PER_PACKET_IN: f64 = 4.0;

#[test]
fn overlay_flood_controller_path_stays_within_allocation_budget() {
    let horizon = SimTime::from_secs(2);
    let sim = Scenario::overlay_datacenter(4)
        .with_clients(100.0)
        .with_attack(8_000.0)
        .build_until(20141202, horizon);
    let before = allocs();
    let report = sim.run(horizon);
    let during = allocs() - before;
    let packet_ins = report.metrics.get("controller.rx.packet_in").unwrap_or(0.0);
    // The flood must actually drive the controller path.
    assert!(
        packet_ins > 5_000.0,
        "only {packet_ins} Packet-Ins reached the controller"
    );
    let per = during as f64 / packet_ins;
    assert!(
        per <= BUDGET_PER_PACKET_IN,
        "{during} allocations in Simulation::run for {packet_ins} Packet-Ins \
         = {per:.2} per Packet-In (budget {BUDGET_PER_PACKET_IN})"
    );
}
