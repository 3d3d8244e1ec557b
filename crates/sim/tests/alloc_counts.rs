//! Heap allocations of a reused flow-simulator run, counted exactly.
//!
//! A reused `FlowSimInstance` keeps its event list, server deques and
//! message table warm, so a run that stays within the storage an
//! earlier run grew allocates only the result it returns, whatever its
//! message count. This binary
//! holds a single test so that no other test's allocations can land in
//! the count; the counting allocator also counts only on the thread
//! that asked for it.

use hmcs_core::config::SystemConfig;
use hmcs_core::scenario::Scenario;
use hmcs_sim::config::SimConfig;
use hmcs_sim::flow::{FlowSimInstance, HopDelays};
use hmcs_topology::latmatrix::{LatencyBand, SyntheticSpec};
use hmcs_topology::transmission::Architecture;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations and reallocations made
/// on a thread while its `COUNTING` flag is set.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Allocations of an instance's run of `seed`.
fn run(instance: &mut FlowSimInstance<'_>, seed: u64) -> u64 {
    allocations(|| {
        instance.run(seed);
    })
}

#[test]
fn a_reused_flow_run_allocates_only_its_result() {
    // 8 × 32 Case 1 at the paper's λ, 11,000 delivered messages.
    let sys = SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking).unwrap();
    let cfg = SimConfig::new(sys).with_messages(10_000).with_warmup(1_000).with_seed(2005);
    let mut instance = FlowSimInstance::new(&cfg).unwrap();
    run(&mut instance, cfg.seed);
    // Replaying the warm-up seed follows the same sample path within
    // the same storage: the one allocation is the result's per-cluster
    // utilization vector.
    let plain = run(&mut instance, cfg.seed);
    assert_eq!(plain, 1, "a replayed flow run's allocations");
    // A new seed's run outgrows the warm-up's high-water marks twice.
    assert_eq!(run(&mut instance, cfg.seed + 1), 3, "a new seed's flow run's allocations");

    // The replay modulated by a two-level matrix allocates no more:
    // each message's offset lives in the warm message table.
    let intra = LatencyBand::new(50.0, 4.0).unwrap();
    let inter = LatencyBand::new(400.0, 30.0).unwrap();
    let matrix = SyntheticSpec::uniform(8, 32, intra, inter, 5).source().unwrap();
    let partition = matrix.partition();
    let hops = HopDelays {
        source: &matrix,
        intra_centre_us: 50.0,
        inter_centre_us: 400.0,
        partition: &partition,
    };
    let mut instance = FlowSimInstance::with_hops(&cfg, hops).unwrap();
    run(&mut instance, cfg.seed);
    let modulated = run(&mut instance, cfg.seed);
    assert!(modulated <= plain, "modulated run allocates {modulated}, plain {plain}");
}
