//! # alloc-count — a per-thread counting allocator for allocation bounds
//!
//! Each allocation-bound test binary in the workspace installs
//! [`Counting`] and wraps the code under test in [`measure`]:
//!
//! ```
//! #[global_allocator]
//! static ALLOC: alloc_count::Counting = alloc_count::Counting;
//!
//! fn main() {
//!     let (v, allocs) = alloc_count::measure(|| vec![0u8; 64]);
//!     assert_eq!((allocs.count, allocs.largest), (1, 64));
//!     drop(v);
//! }
//! ```
//!
//! The tally is per thread, so the bounds of one test binary run side by
//! side without reading each other's allocations; work a measured closure
//! hands to another thread is not counted. This is the workspace's one
//! crate with an `unsafe` block, and only ever a `[dev-dependencies]`
//! entry: every other crate keeps `#![forbid(unsafe_code)]`, and no
//! binary the benchmark builds links it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What a [`measure`]d closure asked the allocator for, on its own thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`; a `realloc` counts
    /// once, however `System` serves it.
    pub count: u64,
    /// The largest single request in bytes: a layout's size, or a
    /// `realloc`'s new size.
    pub largest: usize,
}

thread_local! {
    /// This thread's running tally. Const-initialised and free of drop
    /// glue, so the allocator reads it without allocating and without a
    /// teardown state to trip over.
    static TALLY: Cell<Allocs> = const { Cell::new(Allocs { count: 0, largest: 0 }) };
}

fn note(size: usize) {
    let t = TALLY.get();
    TALLY.set(Allocs {
        count: t.count + 1,
        largest: t.largest.max(size),
    });
}

/// Run `f`, returning its value and what it allocated on this thread.
///
/// Calls nest: an outer `measure` also sees what an inner one counted.
/// Reads zero unless [`Counting`] is the binary's `#[global_allocator]`.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let outer = TALLY.replace(Allocs::default());
    let out = f();
    let inner = TALLY.get();
    TALLY.set(Allocs {
        count: outer.count + inner.count,
        largest: outer.largest.max(inner.largest),
    });
    (out, inner)
}

/// The system allocator, counting each request on the calling thread.
pub struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `layout` is `System`'s, and
        // `System` receives that layout unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`: the caller's `layout`, passed unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block handed out here came from `System`, so the
        // caller's `ptr` and `layout` describe a `System` block.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` describe a `System` block (see
        // `dealloc`), and the caller upholds the contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
