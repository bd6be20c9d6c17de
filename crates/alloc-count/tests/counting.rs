//! The counter itself: exact counts and byte tallies for known
//! allocation patterns, the nesting rule, and a per-thread tally that
//! another thread's allocations cannot reach.

use alloc_count::{measure, Allocs, Counting};
use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn counts_allocations_and_reallocations_with_the_largest_request() {
    let grow = || {
        let mut v = Vec::<u8>::with_capacity(100);
        v.reserve_exact(400);
        v
    };
    let (v, allocs) = measure(grow);
    assert_eq!(v.capacity(), 400);
    let exact = Allocs {
        count: 2,
        largest: 400,
        live: 400,
        peak: 400,
    };
    assert_eq!(allocs, exact);
    assert_eq!(measure(|| black_box(2) + 2), (4, Allocs::default()));
    // Calls nest: the outer tally includes the inner one's.
    let ((_, inner), outer) = measure(|| (Vec::<u8>::with_capacity(500), measure(grow).1));
    assert_eq!((inner, outer.count, outer.largest), (exact, 3, 500));
}

#[test]
fn live_bytes_follow_alloc_free_and_realloc_and_peak_keeps_their_high_water_mark() {
    // Allocated and freed inside: nothing live, the block at the peak.
    let ((), allocs) = measure(|| drop(black_box(Vec::<u8>::with_capacity(300))));
    assert_eq!((allocs.count, allocs.live, allocs.peak), (1, 0, 300));

    // A shrinking `realloc` gives back the difference: the peak stays.
    let (v, allocs) = measure(|| {
        let mut v = Vec::<u8>::with_capacity(1_000);
        v.extend_from_slice(&[7; 100]);
        v.shrink_to_fit();
        v
    });
    assert_eq!(v.capacity(), 100);
    let shrunk = Allocs {
        count: 2,
        largest: 1_000,
        live: 100,
        peak: 1_000,
    };
    assert_eq!(allocs, shrunk);

    // Freeing what was live before the call: live goes negative, and the
    // peak never falls below zero.
    let old = vec![0u8; 2_000];
    let ((), allocs) = measure(move || drop(old));
    let freed = Allocs {
        count: 0,
        largest: 0,
        live: -2_000,
        peak: 0,
    };
    assert_eq!(allocs, freed);

    // A consuming pass: the new buffer is taken before the old one goes,
    // so the peak is both, and the net is their difference.
    let old = Vec::<u8>::with_capacity(1_500);
    let (new, allocs) = measure(move || {
        let new = Vec::<u8>::with_capacity(600);
        drop(old);
        new
    });
    assert_eq!((allocs.live, allocs.peak), (-900, 600));
    drop((v, new));
}

#[test]
fn a_nested_measure_lifts_the_outer_peak_from_where_the_outer_live_stood() {
    let inner_pass = || {
        drop(black_box(Vec::<u8>::with_capacity(700)));
        Vec::<u8>::with_capacity(50)
    };
    let inner_tally = Allocs {
        count: 2,
        largest: 700,
        live: 50,
        peak: 700,
    };

    // The inner peak sits on top of the outer's 100 live bytes.
    let ((kept, inner), outer) = measure(|| {
        let held = Vec::<u8>::with_capacity(100);
        (held, measure(inner_pass))
    });
    assert_eq!(inner.1, inner_tally);
    let on_top = Allocs {
        count: 3,
        largest: 700,
        live: 150,
        peak: 800,
    };
    assert_eq!(outer, on_top);
    drop((kept, inner.0));

    // Entered with the outer live at -400 (600 taken, 1,000 freed), the
    // inner peak of 700 reaches only 300: the outer's own 600 stands.
    let before = Vec::<u8>::with_capacity(1_000);
    let (inner, outer) = measure(move || {
        let taken = Vec::<u8>::with_capacity(600);
        drop(before);
        let inner = measure(inner_pass);
        drop(taken);
        inner
    });
    assert_eq!(inner.1, inner_tally);
    let below = Allocs {
        count: 3,
        largest: 700,
        live: -950,
        peak: 600,
    };
    assert_eq!(outer, below);
    drop(inner.0);
}

#[test]
fn another_threads_allocations_are_not_counted_here() {
    let stop = AtomicBool::new(false);
    let rounds = AtomicU64::new(0);
    let counts: Vec<u64> = thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                drop(black_box(Vec::<u8>::with_capacity(64)));
                rounds.fetch_add(1, Ordering::Release);
            }
        });
        let counts = (0..1_000)
            .map(|_| {
                // Allocates nothing itself, but waits for two more rounds
                // of the other thread: at least one of its allocations
                // falls inside every measured window.
                let ((), allocs) = measure(|| {
                    let seen = rounds.load(Ordering::Acquire);
                    while rounds.load(Ordering::Acquire) < seen + 2 {
                        spin_loop();
                    }
                });
                allocs.count
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        counts
    });
    let read = counts.iter().filter(|&&n| n > 0).count();
    assert_eq!(read, 0, "{read} of 1,000 measures read the other thread");
}
