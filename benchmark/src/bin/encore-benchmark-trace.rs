//! The trace binary: the same program as `encore-benchmark`, plus a
//! counting `#[global_allocator]` so the probes can report allocations
//! per fetch and per visit. The harness runs the traced rep and the
//! probes in this binary and everything it reports end to end in the
//! other one, which keeps the system allocator.
//!
//! Only the probes role counts. A traced rep pays one relaxed load per
//! allocation: two shard threads bumping one shared counter would cost
//! the x2 workloads several percent and show up as tracing overhead.

use encore_benchmark::harness::{ROLE_ENV, ROLE_PROBES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, with every allocation and reallocation counted.
struct CountingAlloc;

/// A statistic: it publishes no other data, so `Relaxed` is enough.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Set once, before any thread is spawned, and only read afterwards.
static COUNTING: AtomicBool = AtomicBool::new(false);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size`
        // obligations pass straight through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() -> std::process::ExitCode {
    let probes = std::env::var(ROLE_ENV).as_deref() == Ok(ROLE_PROBES);
    COUNTING.store(probes, Ordering::Relaxed);
    encore_benchmark::app::main(Some(allocations))
}
