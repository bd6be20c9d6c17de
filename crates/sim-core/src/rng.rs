//! Seedable, forkable randomness.
//!
//! All randomness in the workspace flows from a single root seed through
//! [`SimRng`]. Subsystems obtain *forked* child generators via
//! [`SimRng::fork`], keyed by a string label: the child stream depends only
//! on `(root seed, label)`, so adding random draws to one subsystem never
//! shifts the stream seen by another. This is the property that keeps the
//! experiment harness reproducible as the codebase grows.
//!
//! For multi-core work there is a second derivation axis: *stream
//! splitting*. [`SimRng::split`] hands out a sequence of generators whose
//! raw streams occupy disjoint 2^192-draw blocks of the xoshiro256++
//! sequence (via [`SimRng::long_jump`]) and whose fork namespaces are
//! re-keyed, so parallel shards can each fork their own subsystem streams
//! without ever colliding with a sibling or with the parent's
//! continuation. The first child of a `split` sequence is an exact
//! snapshot of the parent, which is what lets a one-shard parallel run
//! reproduce a serial run bit for bit.
//!
//! The generator is a self-contained xoshiro256++ (seeded via splitmix64),
//! so the workspace carries no external randomness dependency and the
//! stream is identical on every platform.

/// FNV-1a 64-bit hash, used to mix fork labels into seeds. A cryptographic
/// hash is unnecessary: we only need stable, well-spread derivation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The splitmix64 avalanche — the canonical finalizer that turns a
/// structured 64-bit input (a counter, an xor of keys) into well-mixed
/// bits. Public because every derived-seed scheme in the workspace
/// (case-seed derivation, the adaptive censor's deterministic draws)
/// must use *this* copy of the constants rather than re-typing them.
pub fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded byte-string hash: FNV-1a folded over `bytes` starting from a
/// mix of `seed`, finalized through [`splitmix_mix`] for full avalanche.
/// This is the row-hash primitive behind the count-min sketches in
/// `encore` — each sketch row uses a different seed, and two sketches
/// built with the same seed hash identically on every shard, which is
/// what makes element-wise sketch merging sound. Not cryptographic;
/// stable across platforms and runs.
pub fn seeded_hash(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ splitmix_mix(seed);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix_mix(h)
}

/// Splitmix64 step — expands a seed into well-mixed state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    splitmix_mix(*state)
}

/// Deterministic random number generator with labelled forking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Create a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { seed, state }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fork a child generator whose stream depends only on this generator's
    /// seed and `label` — not on how many values have been drawn so far.
    pub fn fork(&self, label: &str) -> SimRng {
        let child = self.seed ^ fnv1a(label.as_bytes()).rotate_left(17);
        SimRng::new(child)
    }

    /// Fork a child generator keyed by a label and an index (e.g. one stream
    /// per simulated client).
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        let child = self.seed
            ^ fnv1a(label.as_bytes()).rotate_left(17)
            ^ fnv1a(&index.to_le_bytes()).rotate_left(31);
        SimRng::new(child)
    }

    /// Jump far ahead in the raw stream: equivalent to 2^192 calls of
    /// [`SimRng::next_u64`] (the canonical xoshiro256++ long-jump
    /// polynomial). Also re-keys the fork namespace, so labelled forks
    /// taken *after* the jump are disjoint from forks of the pre-jump
    /// generator — a jumped generator is a genuinely independent stream
    /// on both derivation axes.
    pub fn long_jump(&mut self) {
        const LONG_JUMP: [u64; 4] = [
            0x76E1_5D3E_FEFD_CBBF,
            0xC500_4E44_1C52_2FB3,
            0x7771_0069_854E_E241,
            0x3910_9BB0_2ACB_E635,
        ];
        let mut acc = [0u64; 4];
        for &poly in &LONG_JUMP {
            for bit in 0..64 {
                if poly & (1u64 << bit) != 0 {
                    acc[0] ^= self.state[0];
                    acc[1] ^= self.state[1];
                    acc[2] ^= self.state[2];
                    acc[3] ^= self.state[3];
                }
                self.next_u64();
            }
        }
        self.state = acc;
        // Re-key the fork namespace. A plain xor would cancel after two
        // jumps; a splitmix64 walk never revisits earlier keys within any
        // realistic shard count.
        let mut sm = self.seed ^ 0xA076_1D64_78BD_642F;
        self.seed = splitmix64(&mut sm);
    }

    /// Split off an independent child generator. The child is an exact
    /// snapshot of `self` (same raw stream, same fork namespace); `self`
    /// then [`long_jump`](SimRng::long_jump)s past it. Calling `split` N
    /// times therefore yields N generators occupying disjoint 2^192-draw
    /// blocks, with the parent's own continuation beyond all of them —
    /// and the *first* child reproduces the original stream exactly,
    /// which is what makes a one-shard parallel run bit-identical to a
    /// serial run.
    pub fn split(&mut self) -> SimRng {
        let child = self.clone();
        self.long_jump();
        child
    }

    /// Next raw 64 random bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi");
        lo + self.uniform_below(hi - lo)
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        self.uniform_below(n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64 requires lo < hi");
        lo + self.unit() * (hi - lo)
    }

    /// Unbiased uniform draw in `[0, bound)` (Lemire's method).
    fn uniform_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Standard normal draw (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - self.unit();
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Pick an index according to non-negative weights. Returns `None` if
    /// all weights are zero or the slice is empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        self.pick_weighted_with_total(weights, total)
    }

    /// [`SimRng::pick_weighted`] with the positive-weight total supplied
    /// by the caller. The total must equal the sum this function's
    /// sibling computes (same values, same order) — callers that sample
    /// the same weight table repeatedly precompute it once instead of
    /// re-summing per draw. Draw-for-draw identical to
    /// [`SimRng::pick_weighted`] given a faithful total.
    pub fn pick_weighted_with_total(&mut self, weights: &[f64], total: f64) -> Option<usize> {
        if total <= 0.0 {
            return None;
        }
        let mut x = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                x -= w;
                if x <= 0.0 {
                    return Some(i);
                }
            }
        }
        // Floating-point slack: return the last positive-weight index.
        weights.iter().rposition(|w| w.is_finite() && *w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent_of_draw_position() {
        let root = SimRng::new(7);
        let mut before = root.fork("net");
        let mut consumed = SimRng::new(7);
        for _ in 0..10 {
            consumed.next_u64();
        }
        let mut after = consumed.fork("net");
        for _ in 0..16 {
            assert_eq!(before.next_u64(), after.next_u64());
        }
    }

    #[test]
    fn fork_labels_give_distinct_streams() {
        let root = SimRng::new(7);
        let mut a = root.fork("dns");
        let mut b = root.fork("tcp");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_indexed_distinct_per_index() {
        let root = SimRng::new(7);
        let mut a = root.fork_indexed("client", 0);
        let mut b = root.fork_indexed("client", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn first_split_child_reproduces_parent_stream() {
        let reference = SimRng::new(42);
        let mut parent = SimRng::new(42);
        let child = parent.split();
        assert_eq!(child, reference, "first child must snapshot the parent");
        let mut a = child;
        let mut b = reference;
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_children_and_parent_continuation_all_differ() {
        let mut parent = SimRng::new(7);
        let mut kids: Vec<SimRng> = (0..4).map(|_| parent.split()).collect();
        let mut firsts: Vec<u64> = kids.iter_mut().map(|k| k.next_u64()).collect();
        firsts.push(parent.next_u64());
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 5, "split streams must not collide");
    }

    #[test]
    fn long_jump_rekeys_fork_namespace() {
        let mut jumped = SimRng::new(9);
        jumped.long_jump();
        let pre = SimRng::new(9);
        let mut a = pre.fork("subsystem");
        let mut b = jumped.fork("subsystem");
        assert_ne!(
            a.next_u64(),
            b.next_u64(),
            "forks across a jump must be disjoint"
        );
    }

    #[test]
    fn long_jump_is_deterministic() {
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(11);
        a.long_jump();
        b.long_jump();
        assert_eq!(a, b);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut r = SimRng::new(17);
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..8_000 {
            counts[r.pick_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((2.5..3.6).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn pick_weighted_all_zero_is_none() {
        let mut r = SimRng::new(19);
        assert_eq!(r.pick_weighted(&[0.0, 0.0]), None);
        assert_eq!(r.pick_weighted(&[]), None);
        assert_eq!(r.pick_weighted(&[f64::NAN]), None);
    }
}
