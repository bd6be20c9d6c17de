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
//! Beside the count, [`Allocs`] follows the bytes: `live` is the net of
//! what the closure allocated and freed (negative when it freed more than
//! it took, as a consuming pass over a pre-existing buffer does), and
//! `peak` is the high-water mark `live` reached — a peak-memory reading
//! that is exact and repeats run to run:
//!
//! ```
//! #[global_allocator]
//! static ALLOC: alloc_count::Counting = alloc_count::Counting;
//!
//! fn main() {
//!     let old = vec![0u8; 1_000];
//!     let ((), allocs) = alloc_count::measure(|| {
//!         let new = vec![0u8; 400];
//!         drop(old);
//!         drop(new);
//!     });
//!     assert_eq!((allocs.live, allocs.peak), (-1_000, 400));
//! }
//! ```
//!
//! The tally is per thread, so the bounds of one test binary run side by
//! side without reading each other's allocations; work a measured closure
//! hands to another thread is not counted, and a block freed on another
//! thread than the one that allocated it counts as freed there.
//!
//! Calls to [`measure`] nest. The outer tally goes on as if the inner
//! call were not there: it adds the inner `count`, its `largest` is the
//! larger of the two, its `live` grows by the inner `live`, and its
//! `peak` becomes `max(outer.peak, outer.live + inner.peak)`, with
//! `outer.live` read at the inner call's entry. This is the workspace's one
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
    /// Bytes allocated minus bytes freed: a `realloc` adds its new size
    /// and takes off its old one.
    pub live: i64,
    /// The largest value `live` took, and so never below zero: the
    /// closure's peak memory, over what was live when it began.
    pub peak: i64,
}

thread_local! {
    /// This thread's running tally. Const-initialised and free of drop
    /// glue, so the allocator reads it without allocating and without a
    /// teardown state to trip over.
    static TALLY: Cell<Allocs> = const {
        Cell::new(Allocs {
            count: 0,
            largest: 0,
            live: 0,
            peak: 0,
        })
    };
}

/// Record a request for `size` bytes that frees `freed` (a `realloc`'s
/// old block; zero otherwise).
fn note(size: usize, freed: usize) {
    let t = TALLY.get();
    let live = t.live + size as i64 - freed as i64;
    TALLY.set(Allocs {
        count: t.count + 1,
        largest: t.largest.max(size),
        live,
        peak: t.peak.max(live),
    });
}

/// Record a block of `size` bytes given back.
fn note_free(size: usize) {
    let t = TALLY.get();
    TALLY.set(Allocs {
        live: t.live - size as i64,
        ..t
    });
}

/// Run `f`, returning its value and what it allocated on this thread.
///
/// Calls nest (see the crate doc): an outer `measure` also sees what an
/// inner one counted. Reads zero unless [`Counting`] is the binary's
/// `#[global_allocator]`.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let outer = TALLY.replace(Allocs::default());
    let out = f();
    let inner = TALLY.get();
    TALLY.set(Allocs {
        count: outer.count + inner.count,
        largest: outer.largest.max(inner.largest),
        live: outer.live + inner.live,
        peak: outer.peak.max(outer.live + inner.peak),
    });
    (out, inner)
}

/// The system allocator, counting each request on the calling thread.
pub struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's contract for `layout` is `System`'s, and
        // `System` receives that layout unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: as for `alloc`: the caller's `layout`, passed unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: every block handed out here came from `System`, so the
        // caller's `ptr` and `layout` describe a `System` block.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: `ptr` and `layout` describe a `System` block (see
        // `dealloc`), and the caller upholds the contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
