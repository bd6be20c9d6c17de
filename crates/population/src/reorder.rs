//! Canonical reorder buffer: fold indexed shard outputs **in arrival
//! order** while producing exactly the shard-index-order merge.
//!
//! The sharded coordinator used to collect every shard's output into a
//! `Vec` and fold at the end — O(shards × outcome) resident state. The
//! reorder buffer makes the streaming merge real: each output is folded
//! the moment it arrives. Because the [`Merge`] path is associative
//! (property-tested here and enforced over generated worlds by
//! simcheck's merge-algebra oracle), adjacent index runs can be
//! compacted eagerly — output 3 arriving after 2 folds into the `2..=3`
//! run immediately, without waiting for 0 and 1. Resident state is one
//! folded aggregate **per discontiguous run**, not one per shard: in the
//! common case (roughly index-ordered completion) that is O(1), and it
//! is bounded by ⌈shards/2⌉ even under adversarial arrival order.
//!
//! The invariant, property-tested below over arbitrary arrival
//! permutations: [`ReorderBuffer::finish`] returns exactly
//! `merge_in_order([v₀, v₁, …, vₙ₋₁])` — the shard-index-order fold —
//! no matter the order in which `accept` saw the values.

use crate::analytics::Merge;
use std::collections::BTreeMap;

/// An arrival-order folding buffer over `expected` indexed values.
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    expected: usize,
    accepted: usize,
    /// Discontiguous runs: start index → (length, fold of that run).
    runs: BTreeMap<usize, (usize, T)>,
    peak_runs: usize,
}

impl<T: Merge> ReorderBuffer<T> {
    /// A buffer expecting values for indices `0..expected`.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is zero — an empty merge has no identity
    /// element in the [`Merge`] algebra.
    pub fn new(expected: usize) -> ReorderBuffer<T> {
        assert!(expected >= 1, "reorder buffer needs at least one slot");
        ReorderBuffer {
            expected,
            accepted: 0,
            runs: BTreeMap::new(),
            peak_runs: 0,
        }
    }

    /// Fold in the value for `index`, compacting with any adjacent run
    /// on either side.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or duplicate index — both are
    /// coordinator bugs, not data conditions.
    pub fn accept(&mut self, index: usize, value: T) {
        assert!(
            index < self.expected,
            "index {index} out of range 0..{}",
            self.expected
        );
        // Find the run covering or preceding `index` to detect overlap
        // and left-adjacency in one lookup.
        let left = self
            .runs
            .range(..=index)
            .next_back()
            .map(|(&start, &(len, _))| (start, len));
        if let Some((start, len)) = left {
            assert!(
                start + len <= index,
                "duplicate shard output for index {index}"
            );
        }

        let (start, mut folded) = match left {
            // Left run ends exactly at `index`: extend it rightward.
            Some((start, len)) if start + len == index => {
                let (_, run) = self.runs.remove(&start).expect("run exists");
                (start, run.merge(value))
            }
            _ => (index, value),
        };
        let mut len = index - start + 1;

        // Right-adjacent run starts exactly where the grown run ends.
        if let Some((right_len, right)) = self.runs.remove(&(start + len)) {
            folded = folded.merge(right);
            len += right_len;
        }

        self.runs.insert(start, (len, folded));
        self.accepted += 1;
        self.peak_runs = self.peak_runs.max(self.runs.len());
    }

    /// Number of values folded in so far.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Discontiguous runs currently resident — the buffer's live memory
    /// in units of folded aggregates.
    pub fn pending_runs(&self) -> usize {
        self.runs.len()
    }

    /// The largest number of runs ever simultaneously resident — the
    /// peak-memory figure the coordinator's memory bound is stated on.
    pub fn peak_runs(&self) -> usize {
        self.peak_runs
    }

    /// Consume the buffer and return the index-order fold.
    ///
    /// Returns `None` unless every one of the `expected` indices was
    /// accepted (a shard died or the coordinator lost an output).
    pub fn finish(mut self) -> Option<T> {
        if self.accepted != self.expected {
            return None;
        }
        let (start, (len, folded)) = self.runs.pop_first()?;
        debug_assert_eq!((start, len), (0, self.expected), "runs not compacted");
        Some(folded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::merge_in_order;
    use proptest::prelude::*;

    /// Concatenation — associative but *not* commutative, so any
    /// ordering mistake in the buffer shows up as a reordered vector.
    impl Merge for Vec<u32> {
        fn merge(mut self, other: Vec<u32>) -> Vec<u32> {
            self.extend(other);
            self
        }
    }

    fn fold_permutation(n: usize, order: &[usize]) -> (Vec<u32>, usize) {
        let mut buf: ReorderBuffer<Vec<u32>> = ReorderBuffer::new(n);
        for &i in order {
            buf.accept(i, vec![i as u32]);
        }
        let peak = buf.peak_runs();
        (buf.finish().expect("all indices accepted"), peak)
    }

    #[test]
    fn in_order_arrival_is_single_run() {
        let (folded, peak) = fold_permutation(5, &[0, 1, 2, 3, 4]);
        assert_eq!(folded, vec![0, 1, 2, 3, 4]);
        assert_eq!(peak, 1, "ordered arrival must compact eagerly");
    }

    #[test]
    fn reverse_arrival_still_index_order() {
        let (folded, peak) = fold_permutation(5, &[4, 3, 2, 1, 0]);
        assert_eq!(folded, vec![0, 1, 2, 3, 4]);
        // Reverse order keeps exactly one (growing) run resident plus
        // nothing else: 4 | 3..=4 | 2..=4 | ...
        assert_eq!(peak, 1);
    }

    #[test]
    fn alternating_arrival_bounded_by_half() {
        let (folded, peak) = fold_permutation(8, &[0, 2, 4, 6, 1, 3, 5, 7]);
        assert_eq!(folded, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(peak <= 4, "adversarial order exceeded ⌈n/2⌉ runs: {peak}");
    }

    #[test]
    fn incomplete_buffer_refuses_to_finish() {
        let mut buf: ReorderBuffer<Vec<u32>> = ReorderBuffer::new(3);
        buf.accept(0, vec![0]);
        buf.accept(2, vec![2]);
        assert_eq!(buf.accepted(), 2);
        assert_eq!(buf.pending_runs(), 2);
        assert_eq!(buf.finish(), None);
    }

    #[test]
    #[should_panic(expected = "duplicate shard output")]
    fn duplicate_index_panics() {
        let mut buf: ReorderBuffer<Vec<u32>> = ReorderBuffer::new(2);
        buf.accept(1, vec![1]);
        buf.accept(1, vec![1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let mut buf: ReorderBuffer<Vec<u32>> = ReorderBuffer::new(2);
        buf.accept(2, vec![2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The satellite guarantee: any arrival permutation folds to
        /// exactly the shard-index-order merge, and resident runs never
        /// exceed ⌈n/2⌉.
        #[test]
        fn arbitrary_permutations_match_index_order_fold(
            n in 1usize..24,
            shuffle_seed in 0u64..u64::MAX,
        ) {
            let mut order: Vec<usize> = (0..n).collect();
            // Deterministic Fisher-Yates from the seed.
            let mut state = shuffle_seed | 1;
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            let (folded, peak) = fold_permutation(n, &order);
            let expected =
                merge_in_order((0..n).map(|i| vec![i as u32])).expect("non-empty");
            prop_assert_eq!(folded, expected);
            prop_assert!(peak <= n.div_ceil(2), "peak {} > {}", peak, n.div_ceil(2));
        }
    }
}
