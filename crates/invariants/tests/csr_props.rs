//! Property corpus for [`Csr`]: both constructors against the jagged
//! `Vec<Vec<_>>` they replace, built here from the same input.

use proptest::prelude::*;

use sada_expr::Csr;

proptest! {
    #[test]
    fn constructors_match_the_jagged_reference(
        rows in 0usize..7,
        raw in prop::collection::vec((any::<usize>(), any::<u32>()), 0..40),
        pile_up in any::<bool>(),
    ) {
        // Rows are drawn independently of the row count, then folded into
        // range: some rows stay empty, `rows = 0` admits no pair at all,
        // and `pile_up` sends every item to the last row.
        let pairs: Vec<(usize, u32)> = match rows {
            0 => Vec::new(),
            _ => raw.iter().map(|&(r, x)| (if pile_up { rows - 1 } else { r % rows }, x)).collect(),
        };
        let mut jagged: Vec<Vec<u32>> = vec![Vec::new(); rows];
        for &(r, x) in &pairs {
            jagged[r].push(x);
        }

        let counted = Csr::from_pairs(rows, pairs.iter().copied());
        let mut pushed = Csr::with_capacity(0, 0);
        for row in &jagged {
            pushed.push_row(row.iter().copied());
        }
        prop_assert_eq!(&counted, &pushed);
        prop_assert_eq!(counted.rows(), rows);
        for (r, row) in jagged.iter().enumerate() {
            prop_assert_eq!(counted.row(r), row.as_slice(), "row {} keeps arrival order", r);
        }
        let listed: Vec<&[u32]> = counted.iter().collect();
        prop_assert_eq!(listed, jagged.iter().map(Vec::as_slice).collect::<Vec<_>>());
    }
}
