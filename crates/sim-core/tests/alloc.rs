//! Counting-allocator proof that a frame header buys no payload buffer
//! on its own word: `read_frame` sizes its buffer by the bytes that
//! arrive, not by the length the header declares.
//!
//! The coordinator of a sharded run reads one worker stream per fold
//! thread, so "up to the 64 MiB cap per header" would be "per header,
//! per concurrent fold".

use alloc_count::{measure, Allocs, Counting};
use sim_core::frame::{encode_frame, read_frame, FrameError};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_header_declaring_64_mib_allocates_for_the_bytes_that_arrive() {
    const MIB: usize = 1 << 20;
    let declared = 64 * MIB;
    let mut header = encode_frame(3, b"");
    header[8..12].copy_from_slice(&(declared as u32).to_le_bytes());

    // Header, then EOF: the same ShortRead as ever, on at most the
    // bounded initial capacity.
    let (result, Allocs { largest, .. }) =
        measure(|| read_frame(&mut &header[..], declared as u32));
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
    let (result, Allocs { largest, .. }) = measure(|| read_frame(&mut &wire[..], declared as u32));
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
