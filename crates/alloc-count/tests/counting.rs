//! The counter itself: exact counts for a known allocation pattern, and
//! a per-thread tally that another thread's allocations cannot reach.

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
    };
    assert_eq!(allocs, exact);
    assert_eq!(measure(|| black_box(2) + 2), (4, Allocs::default()));
    // Calls nest: the outer tally includes the inner one's.
    let ((_, inner), outer) = measure(|| (Vec::<u8>::with_capacity(500), measure(grow).1));
    assert_eq!((inner, outer.count, outer.largest), (exact, 3, 500));
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
