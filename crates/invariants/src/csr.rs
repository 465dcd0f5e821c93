//! A jagged array in two flat buffers.
//!
//! The analysis products of a world — which predicates mention a component,
//! which actions touch it, which components form a collaborative set — are
//! all "a short list per dense index", built once and only read afterwards.
//! As `Vec<Vec<T>>` that is one heap object and one 24-byte header per row;
//! here it is one `offsets` table and one `items` table however many rows
//! there are (compressed sparse rows), and dropping it is two frees.

/// `rows()` lists of `T`, stored back to back: row `i` is
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    /// `rows() + 1` ascending item positions, starting at 0.
    offsets: Vec<u32>,
    items: Vec<T>,
}

/// A position in the item table; the table is capped at `u32::MAX` items.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a Csr holds at most u32::MAX items")
}

impl<T> Csr<T> {
    /// No rows yet, with room for `rows` rows holding `items` items in all.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr { offsets, items: Vec::with_capacity(items) }
    }

    /// Appends one row holding `row`'s items in iteration order.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        self.offsets.push(offset(self.items.len()));
    }

    /// `rows` rows filled from `(row, item)` pairs in any row order; within
    /// a row, items keep the order the pairs arrive in. Two passes over
    /// `pairs` (count, then place), so nothing is allocated but the two
    /// tables themselves, each at its exact size.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a row `>= rows`.
    pub fn from_pairs<I>(rows: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (usize, T)> + Clone,
        T: Copy,
    {
        // Count into the slot after each row, then prefix-sum: `offsets[r]`
        // is where row `r` starts.
        let mut offsets = vec![0u32; rows + 1];
        let mut total = 0usize;
        for (row, _) in pairs.clone() {
            offsets[row + 1] += 1;
            total += 1;
        }
        // The counts are `u32`s: refuse a table they could have wrapped on.
        let _ = offset(total);
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        // Place, using each row's start as its write cursor. The first item
        // stands in for the slots not yet written; every slot is.
        let mut items = match pairs.clone().next() {
            Some((_, first)) => vec![first; total],
            None => Vec::new(),
        };
        for (row, item) in pairs {
            items[offsets[row] as usize] = item;
            offsets[row] += 1;
        }
        // Every cursor now sits at its row's end, the next row's start:
        // shift them up by one to get the starts back.
        offsets.copy_within(0..rows, 1);
        offsets[0] = 0;
        Csr { offsets, items }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The items of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + Clone + '_ {
        self.offsets.windows(2).map(|w| &self.items[w[0] as usize..w[1] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_row_and_from_pairs_agree_with_the_jagged_reference() {
        let jagged: Vec<Vec<u32>> = vec![vec![], vec![7, 3, 7], vec![], vec![1], vec![]];
        let mut pushed = Csr::with_capacity(jagged.len(), 4);
        for row in &jagged {
            pushed.push_row(row.iter().copied());
        }
        // Interleave the rows: order across rows is free, within one kept.
        let pairs = [(3usize, 1u32), (1, 7), (1, 3), (1, 7)];
        let counted = Csr::from_pairs(jagged.len(), pairs.iter().copied());
        assert_eq!(pushed, counted);
        assert_eq!(counted.rows(), 5);
        for (i, row) in jagged.iter().enumerate() {
            assert_eq!(counted.row(i), row.as_slice(), "row {i}");
        }
        assert_eq!(counted.iter().map(<[u32]>::len).sum::<usize>(), 4);
    }

    #[test]
    fn no_rows_and_no_items_are_fine() {
        let none: Csr<u32> = Csr::from_pairs(0, std::iter::empty());
        assert_eq!(none.rows(), 0);
        assert_eq!(none, Csr::with_capacity(0, 0));
        let hollow: Csr<u32> = Csr::from_pairs(3, std::iter::empty());
        assert_eq!(hollow.rows(), 3);
        assert!(hollow.iter().all(<[u32]>::is_empty));
    }

    #[test]
    #[should_panic]
    fn a_pair_past_the_last_row_panics() {
        let _ = Csr::from_pairs(2, std::iter::once((2usize, 0u32)));
    }
}
