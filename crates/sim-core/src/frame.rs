//! Length-prefixed, checksummed binary frame codec — the wire format of
//! the distributed world engine.
//!
//! A frame is a 16-byte header followed by an opaque payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic       b"ENCF"
//! 4       1     version     FRAME_VERSION (currently 3)
//! 5       1     kind        application-defined frame kind
//! 6       2     reserved    must be zero (little-endian)
//! 8       4     payload len little-endian u32
//! 12      4     CRC-32      little-endian u32, IEEE polynomial, over
//!                           bytes 4..12 of the header plus the payload
//! 16      len   payload     opaque bytes (the transport layer encodes
//!                           vendored-serde binary — `serde::bin` — here)
//! ```
//!
//! The codec is deliberately paranoid, because frames cross a process
//! boundary in the distributed shard engine
//! (`population::transport`):
//!
//! * the declared payload length is validated against a caller-supplied
//!   cap **before** any allocation, and an in-cap one still buys no
//!   more than 1 MiB of buffer until payload bytes arrive to fill it,
//!   so a corrupt or hostile length prefix cannot balloon memory or
//!   over-read;
//! * the checksum covers everything after the magic (version, kind,
//!   reserved bits, length, payload), so any single bit flip surfaces
//!   as a typed [`FrameError`] — never a mis-parsed payload;
//! * truncation anywhere — mid-header or mid-payload — is a typed
//!   [`FrameError::ShortRead`], while EOF exactly on a frame boundary
//!   is the clean `Ok(None)` end-of-stream;
//! * every failure mode is a [`FrameError`] value; the codec never
//!   panics on wire input (property-tested below over arbitrary
//!   payloads, truncation points, and bit flips).

use std::fmt;
use std::io::{self, Read, Write};

/// The four magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"ENCF";

/// Current wire-format version. Bump on any incompatible layout change;
/// readers reject other versions with [`FrameError::UnsupportedVersion`].
pub const FRAME_VERSION: u8 = 3;

/// Size of the fixed frame header in bytes.
pub const FRAME_HEADER_LEN: usize = 16;

/// A decoded frame: an application-defined kind plus an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Application-defined frame kind (the transport layer's opcode).
    pub kind: u8,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Every way decoding a frame can fail. All variants are recoverable
/// values — the codec never panics on wire input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended mid-frame (inside the header or the payload).
    ShortRead {
        /// Bytes the current section still required.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The first four bytes were not [`FRAME_MAGIC`].
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 4],
    },
    /// The version byte named a layout this reader does not speak.
    UnsupportedVersion {
        /// The version byte found on the wire.
        found: u8,
    },
    /// The reserved header bits were non-zero (a forward-compat error
    /// or corruption — either way the frame is not trustworthy).
    ReservedNonZero {
        /// The reserved field's value.
        found: u16,
    },
    /// The declared payload length exceeds the caller's cap. Raised
    /// before any allocation.
    Oversized {
        /// The declared payload length.
        len: u32,
        /// The cap the caller imposed.
        max: u32,
    },
    /// The checksum over header-after-magic plus payload did not match.
    Corrupt {
        /// Checksum declared in the header.
        expected: u32,
        /// Checksum computed over the received bytes.
        found: u32,
    },
    /// The underlying reader or writer failed.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::ShortRead { needed, got } => {
                write!(f, "frame truncated: needed {needed} more bytes, got {got}")
            }
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected \"ENCF\")")
            }
            FrameError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported frame version {found} (this reader speaks {FRAME_VERSION})"
                )
            }
            FrameError::ReservedNonZero { found } => {
                write!(f, "reserved frame header bits set: {found:#06x}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload length {len} exceeds cap {max}")
            }
            FrameError::Corrupt { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch: header says {expected:#010x}, payload hashes to {found:#010x}"
                )
            }
            FrameError::Io(detail) => write!(f, "frame I/O error: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(err: io::Error) -> FrameError {
        FrameError::Io(err.to_string())
    }
}

/// CRC-32 lookup tables for the IEEE 802.3 polynomial (reflected
/// 0xEDB88320), built at compile time. `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which is what lets
/// [`Crc32::update`] consume eight bytes per step (slicing-by-8).
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Streaming CRC-32 (IEEE) over byte slices.
#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Slicing-by-8: each 8-byte block costs eight independent table
    /// loads XORed together instead of eight dependent ones, so every
    /// payload byte — each crosses this twice, once per end of the pipe
    /// — is checked at a few bytes per cycle. Same polynomial, same
    /// value as the byte-at-a-time loop that finishes the tail.
    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(8);
        for b in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// The checksum a frame with this kind and payload must carry: CRC-32
/// over version, kind, reserved bits, the length field, and the payload.
fn frame_checksum(kind: u8, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[FRAME_VERSION, kind, 0, 0]);
    crc.update(&(payload.len() as u32).to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// Encode one frame into a fresh byte vector.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes — a programming error
/// on the sending side, not a wire condition.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    assert!(
        u32::try_from(payload.len()).is_ok(),
        "frame payload too large to encode: {} bytes",
        payload.len()
    );
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.push(kind);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(kind, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write one frame to `w`. The frame is encoded into a single buffer
/// first so short interleavings from concurrent writers cannot tear a
/// header from its payload.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), FrameError> {
    let bytes = encode_frame(kind, payload);
    w.write_all(&bytes)?;
    Ok(())
}

/// Fill `buf` from `r`, tolerating short reads. Returns the number of
/// bytes read, which is less than `buf.len()` only at EOF.
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

/// The most payload buffer a length prefix is trusted for before any
/// payload byte has arrived. Frames up to this size — every data frame
/// the transport sends — are still read into one exact allocation.
const PAYLOAD_PREALLOC: usize = 1 << 20;

/// Read one frame from `r`, capping the payload at `max_payload` bytes.
///
/// Returns `Ok(None)` only when the stream ends cleanly on a frame
/// boundary (EOF before any header byte). EOF anywhere inside a frame is
/// [`FrameError::ShortRead`]; every other malformation is its own typed
/// [`FrameError`]. The length prefix is validated against `max_payload`
/// **before** the payload buffer is allocated, and that buffer starts at
/// no more than 1 MiB however much the prefix declares.
pub fn read_frame<R: Read>(r: &mut R, max_payload: u32) -> Result<Option<Frame>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let got = fill(r, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    if got < FRAME_HEADER_LEN {
        return Err(FrameError::ShortRead {
            needed: FRAME_HEADER_LEN - got,
            got,
        });
    }

    let magic: [u8; 4] = header[0..4].try_into().expect("slice length is 4");
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version = header[4];
    if version != FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion { found: version });
    }
    let kind = header[5];
    let reserved = u16::from_le_bytes(header[6..8].try_into().expect("slice length is 2"));
    if reserved != 0 {
        return Err(FrameError::ReservedNonZero { found: reserved });
    }
    let len = u32::from_le_bytes(header[8..12].try_into().expect("slice length is 4"));
    if len > max_payload {
        return Err(FrameError::Oversized {
            len,
            max: max_payload,
        });
    }
    let expected = u32::from_le_bytes(header[12..16].try_into().expect("slice length is 4"));

    // The header alone earns at most `PAYLOAD_PREALLOC` bytes; past that
    // the buffer grows only as payload bytes actually arrive.
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_PREALLOC));
    let got = r.take(len as u64).read_to_end(&mut payload)?;
    if got < len {
        return Err(FrameError::ShortRead {
            needed: len - got,
            got,
        });
    }

    let found = frame_checksum(kind, &payload);
    if found != expected {
        return Err(FrameError::Corrupt { expected, found });
    }

    Ok(Some(Frame { kind, payload }))
}

/// Decode one frame from the front of `bytes`, returning the frame and
/// the number of bytes consumed. Same validation and typed errors as
/// [`read_frame`]; `Ok(None)` on an empty slice.
pub fn decode_frame(bytes: &[u8], max_payload: u32) -> Result<Option<(Frame, usize)>, FrameError> {
    let mut cursor = io::Cursor::new(bytes);
    let frame = read_frame(&mut cursor, max_payload)?;
    Ok(frame.map(|f| {
        let consumed = usize::try_from(cursor.position()).expect("cursor fits in usize");
        (f, consumed)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A reader that hands out one byte at a time, to exercise the
    /// short-read tolerance of `fill`.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    const MAX: u32 = 1 << 20;

    /// CRC-32 (IEEE 802.3) of `bytes` in one call.
    fn crc32(bytes: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(bytes);
        crc.finish()
    }

    #[test]
    fn known_crc_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time table CRC that `Crc32::update` used to be,
    /// kept as the reference the sliced one is checked against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Every length 0..=4096 at every start offset within an 8-byte
    /// block: each mix of whole blocks and tail bytes, wherever the
    /// slice happens to start in memory.
    #[test]
    fn sliced_crc_matches_bytewise_at_every_length_and_alignment() {
        let mut rng = crate::SimRng::new(0xC4C32);
        let buf: Vec<u8> = (0..4096 + 8).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        for start in 0..8 {
            for len in 0..=4096 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let mut empty: &[u8] = &[];
        assert_eq!(read_frame(&mut empty, MAX), Ok(None));
        assert_eq!(decode_frame(&[], MAX), Ok(None));
    }

    #[test]
    fn roundtrip_smoke() {
        let bytes = encode_frame(7, b"hello world");
        let (frame, consumed) = decode_frame(&bytes, MAX).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame.kind, 7);
        assert_eq!(frame.payload, b"hello world");
    }

    #[test]
    fn consecutive_frames_stream_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b"first").unwrap();
        write_frame(&mut wire, 2, b"").unwrap();
        write_frame(&mut wire, 3, b"third").unwrap();
        let mut r: &[u8] = &wire;
        assert_eq!(read_frame(&mut r, MAX).unwrap().unwrap().kind, 1);
        assert_eq!(read_frame(&mut r, MAX).unwrap().unwrap().payload, b"");
        assert_eq!(read_frame(&mut r, MAX).unwrap().unwrap().kind, 3);
        assert_eq!(read_frame(&mut r, MAX).unwrap(), None);
    }

    #[test]
    fn dribbling_reader_still_decodes() {
        let wire = encode_frame(9, &[0xAB; 300]);
        let mut r = Dribble(&wire);
        let frame = read_frame(&mut r, MAX).unwrap().unwrap();
        assert_eq!(frame.payload, vec![0xAB; 300]);
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // Hand-craft a header declaring a 4 GiB-ish payload. The cap
        // check must fire on the header alone — no payload bytes exist.
        let mut wire = encode_frame(1, b"x");
        wire[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r: &[u8] = &wire;
        match read_frame(&mut r, MAX) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    /// A header may declare up to the cap with no payload behind it:
    /// the error names the whole declared length as missing, exactly as
    /// when the buffer was allocated up front (the allocation itself is
    /// measured in `tests/alloc.rs`).
    #[test]
    fn in_cap_length_prefix_with_no_payload_is_a_short_read() {
        let declared = 64u32 << 20;
        let mut wire = encode_frame(1, b"");
        wire[8..12].copy_from_slice(&declared.to_le_bytes());
        assert_eq!(
            decode_frame(&wire, declared),
            Err(FrameError::ShortRead {
                needed: declared as usize,
                got: 0
            })
        );
        wire.extend_from_slice(&[7; 100]);
        assert_eq!(
            read_frame(&mut Dribble(&wire), declared),
            Err(FrameError::ShortRead {
                needed: declared as usize - 100,
                got: 100
            })
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut wire = encode_frame(1, b"payload");
        wire[4] = FRAME_VERSION + 1;
        match decode_frame(&wire, MAX) {
            Err(FrameError::UnsupportedVersion { found }) => {
                assert_eq!(found, FRAME_VERSION + 1)
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn reserved_bits_rejected() {
        let mut wire = encode_frame(1, b"payload");
        wire[6] = 1;
        assert!(matches!(
            decode_frame(&wire, MAX),
            Err(FrameError::ReservedNonZero { found: 1 })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `update` is streaming: a buffer fed in two pieces, cut at any
        /// offset (so the second piece starts mid-block), hashes like
        /// one call — and like the reference.
        #[test]
        fn crc_update_split_anywhere_equals_one_call(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            let whole = crc32(&bytes);
            prop_assert_eq!(whole, crc32_bytewise(&bytes));
            for cut in 0..=bytes.len() {
                let mut crc = Crc32::new();
                crc.update(&bytes[..cut]);
                crc.update(&bytes[cut..]);
                prop_assert_eq!(crc.finish(), whole, "cut at {}", cut);
            }
        }

        #[test]
        fn roundtrip_arbitrary_payloads(
            kind in 0u8..=255,
            payload in proptest::collection::vec(0u8..=255, 0..2048),
        ) {
            let wire = encode_frame(kind, &payload);
            let (frame, consumed) = decode_frame(&wire, MAX).unwrap().unwrap();
            prop_assert_eq!(consumed, wire.len());
            prop_assert_eq!(frame.kind, kind);
            prop_assert_eq!(frame.payload, payload);
        }

        #[test]
        fn truncation_is_a_typed_error_never_a_panic(
            payload in proptest::collection::vec(0u8..=255, 0..512),
            cut_seed in 0usize..4096,
        ) {
            let wire = encode_frame(3, &payload);
            // Cut strictly inside the frame (index 0 is clean EOF).
            let cut = 1 + cut_seed % (wire.len() - 1);
            let result = decode_frame(&wire[..cut], MAX);
            prop_assert!(
                matches!(result, Err(FrameError::ShortRead { .. })),
                "cut at {} of {} gave {:?}",
                cut,
                wire.len(),
                result
            );
        }

        #[test]
        fn single_bit_flip_is_a_typed_error_never_a_panic(
            payload in proptest::collection::vec(0u8..=255, 1..512),
            byte_seed in 0usize..4096,
            bit in 0u8..8,
        ) {
            let mut wire = encode_frame(3, &payload);
            let byte = byte_seed % wire.len();
            wire[byte] ^= 1 << bit;
            match decode_frame(&wire, MAX) {
                // Every flip must surface as a typed error...
                Err(
                    FrameError::BadMagic { .. }
                    | FrameError::UnsupportedVersion { .. }
                    | FrameError::ReservedNonZero { .. }
                    | FrameError::Oversized { .. }
                    | FrameError::Corrupt { .. }
                    | FrameError::ShortRead { .. },
                ) => {}
                // ...never a silently different frame.
                Ok(decoded) => prop_assert!(
                    false,
                    "bit flip at byte {byte} bit {bit} decoded as {decoded:?}"
                ),
                Err(FrameError::Io(detail)) => {
                    prop_assert!(false, "unexpected io error: {detail}")
                }
            }
        }

        #[test]
        fn arbitrary_garbage_never_panics_or_overreads(
            garbage in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            // Whatever the bytes, decoding returns; it never panics and
            // never reads past the slice (decode_frame can't — but the
            // cap also keeps allocation bounded by the declared max).
            let _ = decode_frame(&garbage, 1024);
        }
    }
}
