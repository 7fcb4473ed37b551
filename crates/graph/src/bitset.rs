//! Fixed-capacity bitsets over `u64` words, plus a contiguous bit-matrix.
//!
//! These are the workhorses of the dense search path: adjacency tests become
//! single bit probes and common-neighbour counts become word-wise popcounts.
//! The free functions at the bottom are masked word kernels that fuse a set
//! operation with iteration or counting, so no intermediate set is
//! materialised and zero words cost one comparison each — the
//! branch-and-bound engine's hot sweeps run on [`for_each_bit_and`],
//! [`for_each_bit_and_not`] and [`popcount_and`]; [`popcount_and_not`]
//! completes the family for symmetry.

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `nbits` bits.
#[inline]
pub fn words_for(nbits: usize) -> usize {
    nbits.div_ceil(WORD_BITS)
}

/// A fixed-capacity set of `usize` values in `[0, capacity)` backed by `u64`
/// words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values in `[0, capacity)`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; words_for(capacity)],
            capacity,
        }
    }

    /// Creates a set containing every value in `[0, capacity)`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in &mut s.words {
            *w = !0;
        }
        s.trim_tail();
        s
    }

    /// The maximum value (exclusive) this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears bits beyond `capacity` in the final partial word.
    #[inline]
    fn trim_tail(&mut self) {
        let rem = self.capacity % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts `i`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] |= mask;
        !was
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        was
    }

    /// Tests membership of `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Re-dimensions the set to `capacity` with every value present, reusing
    /// the word buffer (no allocation when the new capacity needs no more
    /// words than a previous one).
    pub fn reset_full(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.words.clear();
        self.words.resize(words_for(capacity), !0u64);
        self.trim_tail();
    }

    /// `self ∩ other` element count; the sets must share a capacity.
    #[inline]
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place `self \= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// In-place `self ∩= words` against a raw word slice (e.g. a
    /// [`BitMatrix`] row of matching column capacity).
    pub fn intersect_with_words(&mut self, words: &[u64]) {
        debug_assert_eq!(self.words.len(), words.len());
        for (a, b) in self.words.iter_mut().zip(words) {
            *a &= b;
        }
    }

    /// In-place `self \= words` against a raw word slice.
    pub fn difference_with_words(&mut self, words: &[u64]) {
        debug_assert_eq!(self.words.len(), words.len());
        for (a, b) in self.words.iter_mut().zip(words) {
            *a &= !b;
        }
    }

    /// Iterates set elements in increasing order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates set elements `≥ start` in increasing order. Resuming from a
    /// known position skips the leading words entirely instead of re-walking
    /// them bit by bit.
    pub fn iter_from(&self, start: usize) -> BitIter<'_> {
        let word_idx = start / WORD_BITS;
        if word_idx >= self.words.len() {
            return BitIter {
                words: &self.words,
                word_idx: self.words.len().saturating_sub(1),
                current: 0,
            };
        }
        // Mask off the bits below `start` in the first word.
        let current = self.words[word_idx] & (!0u64 << (start % WORD_BITS));
        BitIter {
            words: &self.words,
            word_idx,
            current,
        }
    }

    /// Calls `f(word_index, word)` for every *non-zero* storage word, in
    /// increasing word order. The word-granular companion to [`BitSet::iter`]
    /// for kernels that process 64 elements at a time.
    #[inline]
    pub fn for_each_word(&self, mut f: impl FnMut(usize, u64)) {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                f(wi, w);
            }
        }
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Raw word access (used by [`BitMatrix`] helpers).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

// ---- masked word kernels ---------------------------------------------------
//
// The engine's hot loops are expressed over raw word slices (a `BitSet`'s
// words, a `BitMatrix` row, or a cached neighbour mask) so one set of kernels
// serves every storage combination.

/// Calls `f(i)` for every bit `i` set in `a ∩ b`. Zero words are skipped with
/// one comparison; set bits are extracted with `trailing_zeros`.
#[inline]
pub fn for_each_bit_and(a: &[u64], b: &[u64], mut f: impl FnMut(usize)) {
    debug_assert_eq!(a.len(), b.len());
    for (wi, (&x, &y)) in a.iter().zip(b).enumerate() {
        let mut bits = x & y;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            f(wi * WORD_BITS + bit);
            bits &= bits - 1;
        }
    }
}

/// Calls `f(i)` for every bit `i` set in `a \ b`.
#[inline]
pub fn for_each_bit_and_not(a: &[u64], b: &[u64], mut f: impl FnMut(usize)) {
    debug_assert_eq!(a.len(), b.len());
    for (wi, (&x, &y)) in a.iter().zip(b).enumerate() {
        let mut bits = x & !y;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            f(wi * WORD_BITS + bit);
            bits &= bits - 1;
        }
    }
}

/// `|a ∩ b|` over raw word slices.
#[inline]
pub fn popcount_and(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// `|a \ b|` over raw word slices.
#[inline]
pub fn popcount_and_not(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & !y).count_ones() as usize)
        .sum()
}

impl FromIterator<usize> for BitSet {
    /// Builds a set whose capacity is one past the maximum element (or 0).
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// Iterator over the elements of a [`BitSet`] (or a [`BitMatrix`] row).
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

/// A dense `rows × cols` bit-matrix stored as one contiguous `u64` buffer.
///
/// Used as an adjacency matrix for reduced search universes: row `u` holds the
/// neighbourhood of `u`, so adjacency is a bit probe and common-neighbourhood
/// sizes are word-wise popcounts.
#[derive(Clone, Debug)]
pub struct BitMatrix {
    words: Vec<u64>,
    words_per_row: usize,
    rows: usize,
    cols: usize,
}

impl BitMatrix {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = words_for(cols);
        BitMatrix {
            words: vec![0; rows * words_per_row],
            words_per_row,
            rows,
            cols,
        }
    }

    /// Re-dimensions to an all-zero `rows × cols` matrix, reusing the word
    /// buffer (no allocation when the new shape needs no more words than a
    /// previous one).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.words_per_row = words_for(cols);
        self.rows = rows;
        self.cols = cols;
        self.words.clear();
        self.words.resize(rows * self.words_per_row, 0);
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets bit `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.rows && c < self.cols);
        self.words[r * self.words_per_row + c / WORD_BITS] |= 1u64 << (c % WORD_BITS);
    }

    /// Clears bit `(r, c)`.
    #[inline]
    pub fn unset(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.rows && c < self.cols);
        self.words[r * self.words_per_row + c / WORD_BITS] &= !(1u64 << (c % WORD_BITS));
    }

    /// Tests bit `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        self.words[r * self.words_per_row + c / WORD_BITS] & (1u64 << (c % WORD_BITS)) != 0
    }

    /// The words of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Iterates the set columns of row `r`.
    pub fn row_iter(&self, r: usize) -> BitIter<'_> {
        let row = self.row(r);
        BitIter {
            words: row,
            word_idx: 0,
            current: row.first().copied().unwrap_or(0),
        }
    }

    /// Popcount of row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        self.row(r).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `|row(a) ∩ row(b)|` — e.g. the number of common neighbours of `a`
    /// and `b` when the matrix is an adjacency matrix.
    #[inline]
    pub fn row_intersection_len(&self, a: usize, b: usize) -> usize {
        self.row(a)
            .iter()
            .zip(self.row(b))
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// `|row(r) ∩ mask|` for an external mask with the same column capacity.
    #[inline]
    pub fn row_mask_intersection_len(&self, r: usize, mask: &BitSet) -> usize {
        debug_assert_eq!(mask.capacity(), self.cols);
        self.row(r)
            .iter()
            .zip(mask.words())
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// `|row(a) ∩ row(b) ∩ mask|`.
    #[inline]
    pub fn row_row_mask_intersection_len(&self, a: usize, b: usize, mask: &BitSet) -> usize {
        self.row(a)
            .iter()
            .zip(self.row(b))
            .zip(mask.words())
            .map(|((x, y), m)| (x & y & m).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_elements() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.first(), None);
    }

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports already-present");
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64));
        assert!(!s.contains(62));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn full_respects_capacity() {
        for cap in [0, 1, 63, 64, 65, 128, 200] {
            let s = BitSet::full(cap);
            assert_eq!(s.len(), cap, "capacity {cap}");
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..cap).collect::<Vec<_>>());
        }
    }

    #[test]
    fn iter_yields_sorted_elements() {
        let mut s = BitSet::new(300);
        for i in [5usize, 7, 64, 65, 190, 299, 0] {
            s.insert(i);
        }
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![0, 5, 7, 64, 65, 190, 299]
        );
        assert_eq!(s.first(), Some(0));
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1usize, 2, 3, 64, 65].into_iter().collect();
        let mut b = BitSet::new(a.capacity());
        for i in [2usize, 3, 4, 65] {
            b.insert(i);
        }
        assert_eq!(a.intersection_len(&b), 3);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3, 65]);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 6);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 64]);
    }

    #[test]
    fn iter_from_starts_at_the_right_bit() {
        let mut s = BitSet::new(400);
        for i in [0usize, 63, 64, 130, 131, 320, 399] {
            s.insert(i);
        }
        assert_eq!(
            s.iter_from(0).collect::<Vec<_>>(),
            s.iter().collect::<Vec<_>>()
        );
        assert_eq!(
            s.iter_from(64).collect::<Vec<_>>(),
            vec![64, 130, 131, 320, 399]
        );
        assert_eq!(
            s.iter_from(65).collect::<Vec<_>>(),
            vec![130, 131, 320, 399]
        );
        assert_eq!(s.iter_from(131).collect::<Vec<_>>(), vec![131, 320, 399]);
        assert_eq!(s.iter_from(399).collect::<Vec<_>>(), vec![399]);
        assert_eq!(s.iter_from(400).count(), 0, "past capacity");
        assert_eq!(s.iter_from(4000).count(), 0, "far past capacity");
        assert_eq!(BitSet::new(0).iter_from(0).count(), 0, "empty set");
    }

    #[test]
    fn iter_skips_long_zero_word_runs() {
        // One bit at the very end of a 100-word set: iteration must reach it
        // (and, structurally, skip the 99 zero words a word at a time).
        let mut s = BitSet::new(6400);
        s.insert(6399);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![6399]);
        s.insert(0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 6399]);
    }

    #[test]
    fn for_each_word_visits_nonzero_words_only() {
        let mut s = BitSet::new(300);
        s.insert(1);
        s.insert(65);
        s.insert(66);
        s.insert(299);
        let mut seen = Vec::new();
        s.for_each_word(|wi, w| seen.push((wi, w.count_ones())));
        assert_eq!(seen, vec![(0, 1), (1, 2), (4, 1)]);
    }

    #[test]
    fn masked_word_kernels_match_set_algebra() {
        let a: BitSet = [1usize, 2, 3, 64, 65, 130].into_iter().collect();
        let mut b = BitSet::new(a.capacity());
        for i in [2usize, 3, 4, 65, 129] {
            b.insert(i);
        }
        let mut and = Vec::new();
        for_each_bit_and(a.words(), b.words(), |i| and.push(i));
        assert_eq!(and, vec![2, 3, 65]);
        let mut diff = Vec::new();
        for_each_bit_and_not(a.words(), b.words(), |i| diff.push(i));
        assert_eq!(diff, vec![1, 64, 130]);
        assert_eq!(popcount_and(a.words(), b.words()), 3);
        assert_eq!(popcount_and_not(a.words(), b.words()), 3);
    }

    #[test]
    fn from_iterator_sizes_capacity() {
        let s: BitSet = [3usize, 100].into_iter().collect();
        assert_eq!(s.capacity(), 101);
        assert!(s.contains(3) && s.contains(100));
    }

    #[test]
    fn matrix_set_get_unset() {
        let mut m = BitMatrix::new(5, 130);
        m.set(0, 0);
        m.set(4, 129);
        m.set(2, 64);
        assert!(m.get(0, 0) && m.get(4, 129) && m.get(2, 64));
        assert!(!m.get(0, 1));
        m.unset(2, 64);
        assert!(!m.get(2, 64));
    }

    #[test]
    fn matrix_row_ops() {
        let mut m = BitMatrix::new(3, 100);
        for c in [1usize, 50, 99] {
            m.set(0, c);
        }
        for c in [50usize, 99, 3] {
            m.set(1, c);
        }
        assert_eq!(m.row_len(0), 3);
        assert_eq!(m.row_iter(0).collect::<Vec<_>>(), vec![1, 50, 99]);
        assert_eq!(m.row_intersection_len(0, 1), 2);

        let mask: BitSet = [50usize, 1].into_iter().collect();
        let mut mask_full = BitSet::new(100);
        for i in mask.iter() {
            mask_full.insert(i);
        }
        assert_eq!(m.row_mask_intersection_len(0, &mask_full), 2);
        assert_eq!(m.row_row_mask_intersection_len(0, 1, &mask_full), 1);
    }
}
