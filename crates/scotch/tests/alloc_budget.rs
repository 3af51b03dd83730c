//! Allocation budgets of the simulation's hot paths (DESIGN.md §9,
//! "Event queue", "Control path" and "Flow ledger").
//!
//! Under Scotch's overlay flood every punted flow costs a Packet-In
//! decision plus a few FlowMods. Rule actions are inline, flow-table index
//! chains are threaded through the table's slots, the controller writes into a
//! reused command buffer and the simulation recycles message boxes, so the
//! steady-state cycle allocates next to nothing. Before the allocation-free
//! control path the same run made about 16 allocations per Packet-In.
//!
//! Under the Fig. 3 spoofed flood every packet is a new flow, so the
//! per-flow ledger is what grows: one 48-byte record per flow, plus its
//! slot in the flow-id index; only the ~1% of flows that deliver add 32
//! bytes of delivery counters. Before the sparse ledger each flow held a
//! 72-byte outcome, and before the lean ledger a 120-byte record that was
//! copied into an 88-byte outcome at report time. Each of those flows
//! also passes a flow start and an arrival through the event queue, which
//! must not allocate per event ("Event queue").
//!
//! Under the overlay flood the installed rules are the largest state: one
//! 72-byte table row and a 16-byte index slot each; actions, goto and
//! timeouts are interned once per table.
//!
//! A counting global allocator (this test binary only) measures these:
//! allocation calls, and live heap bytes with their high-water mark.
use scotch::scenario::Scenario;
use scotch_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and live
/// heap bytes with their high-water mark, all on the calling thread, so the
/// test harness's own threads never leak into the measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Record an allocation call that changes live bytes by `delta`.
fn bump(delta: i64) {
    // `try_with`: the allocator can run while the thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    resize(delta);
}

fn resize(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Restart the high-water mark at the current live bytes; returns them.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// Most heap allocations `Simulation::run` may make per Packet-In the
/// controller receives (report construction included). The run measures
/// about 0.68 (6,811 allocations for 9,991 Packet-Ins): controller→switch
/// command bursts travel in pooled boxes.
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

/// Most heap allocations `Simulation::run` may make per flow the spoofed
/// flood generates (report construction included). Every flow costs a
/// flow start and an arrival through the event queue, whose front buffer
/// is an inline array and whose slab recycles slots. The run measures
/// about 0.092 (18,460 allocations for 201,191 flows): nearly all are the
/// path computation for the ~2,000 Packet-Ins the switch agent admits,
/// the rest growth of the flow ledger and index. One allocation per flow
/// or per event would read above 1.
const BUDGET_ALLOCS_PER_FLOW: f64 = 0.12;

#[test]
fn ddos_flood_run_allocations_per_flow_stay_within_budget() {
    let horizon = SimTime::from_secs(10);
    let sim = Scenario::single_switch(scotch_switch::SwitchProfile::pica8_pronto_3780())
        .with_clients(100.0)
        .with_attack(20_000.0)
        .build_until(20141202, horizon);
    let before = allocs();
    let report = sim.run(horizon);
    let during = allocs() - before;
    let flows = report.flows.len() as f64;
    // The flood must actually generate a flow per spoofed packet.
    assert!(flows > 150_000.0, "only {flows} flows generated");
    let per = during as f64 / flows;
    assert!(
        per <= BUDGET_ALLOCS_PER_FLOW,
        "{during} allocations in Simulation::run for {flows} flows \
         = {per:.5} per flow (budget {BUDGET_ALLOCS_PER_FLOW})"
    );
}

/// Most heap bytes live at once from building the scenario to the
/// finished report, above what was live before, per flow the run
/// generated. The flow ledger's `Vec` doubles, so its capacity is up to 2x
/// its length; the 48-byte records come to about 71 bytes per flow here.
/// Storing a flat 72-byte outcome for every flow cost about 102 bytes per
/// flow, sizing the controller's flow state by the offered rate rather
/// than by what the switch agent can admit 182, and the 120-byte records
/// the outcomes replaced about 245.
const BUDGET_PEAK_BYTES_PER_FLOW: f64 = 75.0;

#[test]
fn ddos_flood_peak_heap_per_flow_stays_within_budget() {
    let horizon = SimTime::from_secs(10);
    let base = reset_peak();
    let sim = Scenario::single_switch(scotch_switch::SwitchProfile::pica8_pronto_3780())
        .with_clients(100.0)
        .with_attack(20_000.0)
        .build_until(20141202, horizon);
    let report = sim.run(horizon);
    let peak = (peak() - base) as f64;
    let flows = report.flows.len() as f64;
    // The flood must actually generate a flow per spoofed packet.
    assert!(flows > 150_000.0, "only {flows} flows generated");
    let per = peak / flows;
    assert!(
        per <= BUDGET_PEAK_BYTES_PER_FLOW,
        "{peak} peak live heap bytes building and running the scenario for \
         {flows} flows = {per:.1} per flow (budget {BUDGET_PEAK_BYTES_PER_FLOW})"
    );
}

/// Most heap bytes live at once from building the scenario to the
/// finished report, above what was live before, per flow rule installed
/// in the fabric. Under the overlay flood every punted flow leaves a rule
/// at up to three vSwitches, and with a 10 s idle timeout none expires in
/// 5 s, so rules are the largest state. Each costs a 72-byte table row,
/// a 16-byte index slot and a share of the `(src, dst)` index map; the
/// run measures about 329 bytes per rule. Rows that stored their own
/// actions, goto and timeouts (120 bytes) measured 422, and 548 before
/// rules were split from their table rows.
const BUDGET_PEAK_BYTES_PER_RULE: f64 = 350.0;

#[test]
fn overlay_flood_peak_heap_per_rule_stays_within_budget() {
    let horizon = SimTime::from_secs(5);
    let base = reset_peak();
    let sim = Scenario::overlay_datacenter(4)
        .with_clients(100.0)
        .with_attack(8_000.0)
        .build_until(20141202, horizon);
    let report = sim.run(horizon);
    let peak = (peak() - base) as f64;
    let physical = report.switches.iter().map(|s| s.ofa.rules_inserted);
    let virt = report.vswitches.iter().map(|v| v.ofa.rules_inserted);
    let rules = physical.chain(virt).sum::<u64>() as f64;
    // The flood must actually fill the vSwitch tables.
    assert!(rules > 80_000.0, "only {rules} rules installed");
    let per = peak / rules;
    assert!(
        per <= BUDGET_PEAK_BYTES_PER_RULE,
        "{peak} peak live heap bytes building and running the scenario for \
         {rules} installed rules = {per:.1} per rule (budget {BUDGET_PEAK_BYTES_PER_RULE})"
    );
}
