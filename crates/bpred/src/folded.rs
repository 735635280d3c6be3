//! Folded global history for geometric-history-length predictors.
//!
//! ITTAGE-class predictors index each tagged table with a different
//! number of recent history bits (geometrically spaced lengths). Naively
//! re-hashing an L-bit history on every prediction costs O(L); the
//! standard trick (Michaud/Seznec) keeps a *folded* image of the newest
//! L bits in a w-bit circular-shift register that updates in O(1) per
//! event: shift in the incoming bit, cancel the bit that just aged past
//! L, and wrap the carry back into the low bits.
//!
//! [`GlobalHistory`] owns the raw bit ring (so the outgoing bit is
//! available when it ages out) and [`FoldedHistory`] maintains one
//! folded image per (length, width) pair. `FoldedHistory::recompute`
//! rebuilds the fold from raw bits in O(L) and exists purely so the
//! property tests can check the incremental update against a
//! from-scratch reference.

/// A ring buffer of the most recent global history bits.
///
/// Capacity is fixed at construction; `bit(age)` reads the bit pushed
/// `age` events ago (`age == 0` is the newest). Bits older than the
/// capacity read as zero, matching a predictor whose longest table has
/// simply not seen them.
///
/// The bits are packed 64 to a word in a ring that spans a power of two
/// bits (at least the capacity), so positions wrap with a mask instead of
/// a division.
#[derive(Clone, Debug)]
pub struct GlobalHistory {
    words: Vec<u64>,
    /// Ring position of the newest bit.
    head: usize,
    /// Ring span in bits, minus one.
    mask: usize,
    capacity: usize,
}

impl GlobalHistory {
    /// Creates a history ring holding the last `capacity` bits (all zero).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        let span = capacity.next_power_of_two().max(64);
        GlobalHistory { words: vec![0; span / 64], head: 0, mask: span - 1, capacity }
    }

    /// Pushes the newest bit, evicting the oldest.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.head = (self.head + 1) & self.mask;
        let word = &mut self.words[self.head >> 6];
        let shift = self.head & 63;
        *word = (*word & !(1 << shift)) | (u64::from(bit) << shift);
    }

    /// Reads the bit pushed `age` events ago (0 = newest). Ages at or
    /// beyond the capacity read as zero.
    #[inline]
    pub fn bit(&self, age: usize) -> bool {
        if age >= self.capacity {
            return false;
        }
        let pos = self.head.wrapping_sub(age) & self.mask;
        (self.words[pos >> 6] >> (pos & 63)) & 1 != 0
    }
}

/// A w-bit circular-shift fold of the newest L global history bits.
#[derive(Clone, Debug)]
pub struct FoldedHistory {
    /// How many history bits are folded in.
    length: usize,
    /// `2^width - 1`, for a width in 1..=63.
    mask: u64,
    /// The column where the bit aging out lands: it entered at column 0
    /// and has moved one column (mod width) per update since, so it sits
    /// at `length % width`, fixed for the fold's lifetime.
    out_bit: u64,
    comp: u64,
}

impl FoldedHistory {
    /// Creates an empty fold of the newest `length` bits into `width` bits.
    pub fn new(length: usize, width: usize) -> Self {
        assert!(length > 0, "fold length must be positive");
        assert!((1..64).contains(&width), "fold width must be in 1..64");
        FoldedHistory { length, mask: (1 << width) - 1, out_bit: 1 << (length % width), comp: 0 }
    }

    /// The number of history bits folded into this image.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Folds in the newest bit and cancels `outgoing`, the bit that was
    /// `length - 1` events old *before* this update (it is now aged out).
    #[inline]
    pub fn update(&mut self, newest: bool, outgoing: bool) {
        let comp = ((self.comp << 1) | u64::from(newest)) ^ (self.out_bit * u64::from(outgoing));
        // Wrap the bit shifted out of the window back into the low end:
        // `comp` exceeds the mask exactly when that bit is set.
        self.comp = (comp & self.mask) ^ u64::from(comp > self.mask);
    }

    /// The current folded image.
    pub fn value(&self) -> u64 {
        self.comp
    }

    /// Rebuilds the fold from the raw history in O(length): a bit enters
    /// the fold at column 0 and advances one column (mod `width`) per
    /// update, so the bit of age `a` sits at column `a % width`.
    /// Reference implementation for the property tests only.
    pub fn recompute(history: &GlobalHistory, length: usize, width: usize) -> u64 {
        let mask = (1u64 << width) - 1;
        let mut comp = 0u64;
        for age in 0..length {
            comp ^= u64::from(history.bit(age)) << (age % width);
        }
        comp & mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_matches_recompute_on_a_fixed_stream() {
        let mut hist = GlobalHistory::new(32);
        let mut fold = FoldedHistory::new(13, 7);
        // A mildly irregular bit stream.
        for i in 0..200u32 {
            let bit = (i * i + 3 * i) % 5 < 2;
            let outgoing = hist.bit(fold.length() - 1);
            hist.push(bit);
            fold.update(bit, outgoing);
            assert_eq!(
                fold.value(),
                FoldedHistory::recompute(&hist, 13, 7),
                "fold diverged from reference at event {i}"
            );
        }
    }

    #[test]
    fn width_bounds_hold() {
        let mut hist = GlobalHistory::new(8);
        let mut fold = FoldedHistory::new(8, 3);
        for i in 0..100u32 {
            let bit = i % 3 == 0;
            let outgoing = hist.bit(7);
            hist.push(bit);
            fold.update(bit, outgoing);
            assert!(fold.value() < 8, "fold exceeded its 3-bit width");
        }
    }
}
