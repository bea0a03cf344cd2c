//! What the period edge allocates. Each period wipes the external systems
//! and refills the sources from the cached snapshot; the tables and the
//! snapshot share their rows, so a refill and the wipe after it hand rows
//! over by reference and allocate per table, not per row.
//!
//! This binary's global allocator counts the allocations of the calling
//! thread (the edge runs on it). Its counter is a const-initialized
//! thread local without a destructor, so counting never allocates.

use dipbench::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn counted() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator, so
// each method keeps the contract its caller relies on; counting touches
// only a thread-local integer and neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A refill and the wipe after it allocate once per batch they insert: the
/// row-pointer vector of the batch, its shared rows handed over by
/// reference. A refill's batches are the snapshot's; a wipe's are the
/// reference tables it preloads again, which the wipe leaves filled.
#[test]
fn a_cache_hit_refill_and_the_wipe_after_it_allocate_per_table() {
    let scale = ScaleFactors::new(0.1, 1.0, Distribution::Uniform);
    let env = BenchEnvironment::new(BenchConfig::new(scale).with_seed(7)).unwrap();
    let snapshot = env.generator.source_snapshot(0);
    let (rows, batches) = (snapshot.row_count(), snapshot.batches() as u64);
    // the first fill generates the snapshot and grows every table to its
    // size; the edge measured is the next one, as every later period runs
    env.initialize_sources(0).unwrap();
    env.uninitialize().unwrap();
    let refill = allocations_of(|| env.initialize_sources(0).unwrap());
    let wipe = allocations_of(|| env.uninitialize().unwrap());
    let preloaded: u64 = (env.world.database_names().iter())
        .map(|name| {
            let db = env.db(name);
            let names = db.table_names();
            let filled = names
                .iter()
                .filter(|t| db.table(t).unwrap().row_count() > 0);
            filled.count() as u64
        })
        .sum();
    assert!(rows > 6_000, "{rows} source rows");
    assert!(
        refill <= batches && wipe <= preloaded,
        "refill {refill} allocations for {batches} batches, wipe {wipe} for \
         {preloaded} preloaded tables ({rows} rows)"
    );
}
