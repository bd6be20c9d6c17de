//! Counting-allocator proof that a frame header buys no payload buffer
//! on its own word: `read_frame` sizes its buffer by the bytes that
//! arrive, not by the length the header declares.
//!
//! The coordinator of a sharded run reads one worker stream per fold
//! thread, so "up to the 64 MiB cap per header" would be "per header,
//! per concurrent fold".
//!
//! This file holds exactly one `#[test]`: the `#[global_allocator]`
//! high-water mark is process-wide, so a concurrent test in the same
//! binary would pollute it.

use sim_core::frame::{encode_frame, read_frame, FrameError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest single request.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

#[test]
fn a_header_declaring_64_mib_allocates_for_the_bytes_that_arrive() {
    const MIB: usize = 1 << 20;
    let declared = 64 * MIB;
    let mut header = encode_frame(3, b"");
    header[8..12].copy_from_slice(&(declared as u32).to_le_bytes());

    // Header, then EOF: the same ShortRead as ever, on at most the
    // bounded initial capacity.
    LARGEST.store(0, Ordering::Relaxed);
    let result = read_frame(&mut &header[..], declared as u32);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(
        result,
        Err(FrameError::ShortRead {
            needed: declared,
            got: 0
        })
    );
    assert!(
        largest <= MIB,
        "a bare header cost a {largest}-byte allocation"
    );

    // Header, 3 MiB of the promised 64, then EOF: the buffer follows the
    // bytes (amortised doubling), never the promise.
    let wire = [header, vec![0xAB; 3 * MIB]].concat();
    LARGEST.store(0, Ordering::Relaxed);
    let result = read_frame(&mut &wire[..], declared as u32);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(
        result,
        Err(FrameError::ShortRead {
            needed: declared - 3 * MIB,
            got: 3 * MIB
        })
    );
    assert!(
        (3 * MIB..=8 * MIB).contains(&largest),
        "3 MiB of payload cost a {largest}-byte allocation"
    );
}
