//! SWAR byte scanning for hot-path parsers.
//!
//! The simulator's visit hot path scans the same URL bytes several
//! times per request (host extraction, path dispatch, query parsing,
//! percent decoding). `Iterator::position` walks a byte at a time; the
//! helpers here examine eight bytes per iteration using the classic
//! "SIMD within a register" zero-byte trick, which cuts the scan cost
//! several-fold on the ~200-byte URLs the simulation moves around. No
//! platform SIMD, no `unsafe` — just word loads via `from_le_bytes`.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Bitmask with the high bit set in every byte of `w` that is zero.
#[inline]
fn zero_bytes(w: u64) -> u64 {
    w.wrapping_sub(LO) & !w & HI
}

/// Index of the first occurrence of `needle` in `haystack`.
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let pat = u64::from(needle) * LO;
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let w = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte window"));
        let hits = zero_bytes(w ^ pat);
        if hits != 0 {
            return Some(i + (hits.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    while i < haystack.len() {
        if haystack[i] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index of the first occurrence of either `a` or `b` in `haystack`.
#[inline]
pub fn find_either(haystack: &[u8], a: u8, b: u8) -> Option<usize> {
    let pat_a = u64::from(a) * LO;
    let pat_b = u64::from(b) * LO;
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let w = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte window"));
        let hits = zero_bytes(w ^ pat_a) | zero_bytes(w ^ pat_b);
        if hits != 0 {
            return Some(i + (hits.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    while i < haystack.len() {
        if haystack[i] == a || haystack[i] == b {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index of the first occurrence of `a`, `b`, or `c` in `haystack`.
#[inline]
pub fn find_any3(haystack: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
    let pat_a = u64::from(a) * LO;
    let pat_b = u64::from(b) * LO;
    let pat_c = u64::from(c) * LO;
    let mut i = 0;
    while i + 8 <= haystack.len() {
        let w = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte window"));
        let hits = zero_bytes(w ^ pat_a) | zero_bytes(w ^ pat_b) | zero_bytes(w ^ pat_c);
        if hits != 0 {
            return Some(i + (hits.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    while i < haystack.len() {
        if haystack[i] == a || haystack[i] == b || haystack[i] == c {
            return Some(i);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation.
    fn naive(h: &[u8], n: u8) -> Option<usize> {
        h.iter().position(|&b| b == n)
    }

    #[test]
    fn matches_naive_search_on_many_inputs() {
        // Exercise every alignment and position around the 8-byte
        // window boundaries, plus absent needles.
        for len in 0..40 {
            let hay: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37)).collect();
            for needle in 0..=255u8 {
                assert_eq!(
                    find_byte(&hay, needle),
                    naive(&hay, needle),
                    "len={len} needle={needle}"
                );
            }
        }
    }

    #[test]
    fn finds_first_of_repeated_needles() {
        let hay = b"a=1&b=2&c=3&d=4&e=5&f=6";
        assert_eq!(find_byte(hay, b'&'), Some(3));
        assert_eq!(find_byte(&hay[4..], b'&'), Some(3));
    }

    #[test]
    fn either_returns_earliest_of_both() {
        let hay = b"path/to?query&frag";
        assert_eq!(find_either(hay, b'?', b'&'), Some(7));
        assert_eq!(find_either(hay, b'&', b'?'), Some(7));
        assert_eq!(find_either(hay, b'&', b'z'), Some(13));
        assert_eq!(find_either(hay, b'z', b'!'), None);
        for len in 0..40 {
            let hay: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(53)).collect();
            for (a, b) in [(0u8, 255u8), (7, 212), (106, 106)] {
                let expect = hay.iter().position(|&x| x == a || x == b);
                assert_eq!(find_either(&hay, a, b), expect, "len={len} a={a} b={b}");
            }
        }
    }

    #[test]
    fn any3_matches_naive() {
        let hay = b"http://host.example:8080/path?q#f";
        assert_eq!(find_any3(hay, b'/', b'?', b'#'), Some(5));
        assert_eq!(find_any3(&hay[7..], b'/', b'?', b'#'), Some(17));
        for len in 0..40 {
            let hay: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(29)).collect();
            for (a, b, c) in [(0u8, 128u8, 255u8), (3, 87, 203), (29, 29, 58)] {
                let expect = hay.iter().position(|&x| x == a || x == b || x == c);
                assert_eq!(find_any3(&hay, a, b, c), expect, "len={len}");
            }
        }
    }
}
