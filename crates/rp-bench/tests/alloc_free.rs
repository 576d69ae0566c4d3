//! The allocation-free steady state, asserted rather than inspected:
//! once their buffers are warm, every Section 6 heuristic on a reused
//! `HeuristicState`, `MixedBest::full_sweep` on the pooled `MixedBest`
//! the parallel sweep pins per worker, and the walk over every client's
//! ancestor path perform zero heap allocations per call.
//!
//! A wrapping global allocator counts the allocations of the calling
//! thread only, so the test harness's own threads (and the tests of
//! this file running in parallel) cannot perturb a count.

#![allow(clippy::disallowed_methods)] // test code may unwrap freely

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use rp_bench::{bench_instance, MICRO_SIZES};
use rp_core::heuristics::HeuristicState;
use rp_core::{Heuristic, MixedBest, ProblemInstance};
use rp_workloads::platform::PlatformKind;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the slot is unavailable while a thread tears down its
    // locals, and those late allocations belong to no measured call.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only a const-initialised thread-local `Cell<u64>`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations made by ten calls of `f` on this thread, after three
/// warm-up calls have grown any lazily sized buffer.
fn steady_allocations(mut f: impl FnMut()) -> u64 {
    for _ in 0..3 {
        f();
    }
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..10 {
        f();
    }
    ALLOCATIONS.with(Cell::get) - before
}

/// Every micro-benchmark instance: `MICRO_SIZES` on both platforms.
fn instances() -> Vec<(String, ProblemInstance)> {
    let mut out = Vec::new();
    for (platform, name) in [
        (PlatformKind::default_homogeneous(), "homogeneous"),
        (PlatformKind::default_heterogeneous(), "heterogeneous"),
    ] {
        for size in MICRO_SIZES {
            let problem = bench_instance(size, 0.5, platform, 1234 + size as u64);
            out.push((format!("{name}/{size}"), problem));
        }
    }
    out
}

#[test]
fn heuristics_on_a_reused_state_do_not_allocate() {
    for (label, problem) in instances() {
        let mut state = HeuristicState::new(&problem);
        for heuristic in Heuristic::BASE {
            let allocations = steady_allocations(|| {
                state.reset();
                black_box(heuristic.run_with(&mut state));
            });
            assert_eq!(
                allocations,
                0,
                "{} on {label} allocated in the steady state",
                heuristic.acronym()
            );
        }
    }
}

#[test]
fn pooled_full_sweep_does_not_allocate() {
    for (label, problem) in instances() {
        let mut pooled = MixedBest::new();
        let allocations = steady_allocations(|| {
            black_box(pooled.full_sweep(black_box(&problem)));
        });
        assert_eq!(allocations, 0, "MixedBest::full_sweep on {label} allocated");
    }
}

#[test]
fn ancestor_walk_does_not_allocate() {
    for (label, problem) in instances() {
        let tree = problem.tree();
        let allocations = steady_allocations(|| {
            let mut acc = 0usize;
            for client in tree.client_ids() {
                for node in tree.ancestors_of_client(client) {
                    acc += node.index();
                }
            }
            black_box(acc);
        });
        assert_eq!(allocations, 0, "the ancestor walk on {label} allocated");
    }
}
