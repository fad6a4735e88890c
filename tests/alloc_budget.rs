//! Allocation budget of the data plane.
//!
//! Every answer crosses a duplicate check at every node it passes (§3.1:
//! "detection of duplicates is necessary to allow loops to terminate"),
//! so what that check allocates is paid per message. This binary counts
//! heap allocations with its own global allocator while one transitive
//! closure query runs on the FIFO simulator, and holds the count per
//! logical message (every binding, answer and end counted once, however
//! framed) under a fixed budget. It prints the figure as
//! `allocs/message: …`; run it with
//! `cargo test --release --test alloc_budget -- --nocapture` to see it.

use mp_engine::Engine;
use mp_workloads::scenarios;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts every call that asks the system allocator for memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per logical message the data plane may spend. Storing
/// a new tuple allocates its row and a frame allocates once however many
/// items it packs; a duplicate, the common case on a dense graph, should
/// cost nothing.
const BUDGET: f64 = 1.8;

#[test]
fn a_fanout_query_stays_within_its_allocation_budget() {
    // A 400-node, 6000-edge random graph: `path(0, Z)` reaches nearly
    // every node along many paths, so most derived tuples are duplicates.
    let w = scenarios::tc_random(400, 6000, 7);
    let engine = Engine::new(w.program, w.db);
    let before = ALLOCATIONS.load(Relaxed);
    let result = engine.evaluate().expect("evaluation succeeds");
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    let messages = result.stats.logical_messages();
    assert!(result.answers.len() > 300, "the query fans out");
    let per_message = allocations as f64 / messages as f64;
    println!("allocs/message: {per_message:.2} ({allocations} allocations, {messages} messages)");
    assert!(
        per_message <= BUDGET,
        "{per_message:.2} allocations per message exceeds the budget of {BUDGET}"
    );
}
