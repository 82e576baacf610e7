//! Search-space restriction between plan stages.

use super::plan::TopKPer;
use crate::cube::SimMatrix;
use crate::result::MatchResult;

/// A bitset over the `m × n` element-pair space of a match task, used by
/// [`Seq`](super::MatchPlan::Seq) to restrict a later stage to the pairs an
/// earlier stage selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairMask {
    rows: usize,
    cols: usize,
    bits: Vec<u64>,
}

impl PairMask {
    /// An all-disallowed mask for an `rows × cols` task.
    pub fn new(rows: usize, cols: usize) -> PairMask {
        PairMask {
            rows,
            cols,
            bits: vec![0; (rows * cols).div_ceil(64)],
        }
    }

    /// The mask of the pairs a stage result selected.
    pub fn from_result(rows: usize, cols: usize, result: &MatchResult) -> PairMask {
        let mut mask = PairMask::new(rows, cols);
        for c in &result.candidates {
            mask.allow(c.source.index(), c.target.index());
        }
        mask
    }

    /// The mask keeping, per row / column / both (union), only the `k`
    /// best nonzero cells of `matrix`. Ranking uses the same comparator as
    /// candidate selection (descending similarity, ties to the lower
    /// index), so the mask is deterministic and consistent with it.
    /// Storage agnostic: sparse matrices are ranked from their stored
    /// entries (zeros are never kept, so the outcome is identical to the
    /// dense scan).
    pub fn top_k_of(matrix: &SimMatrix, k: usize, per: TopKPer) -> PairMask {
        let (rows, cols) = (matrix.rows(), matrix.cols());
        let mut mask = PairMask::new(rows, cols);
        let mut ranked: Vec<(usize, f64)> = Vec::with_capacity(rows.max(cols));
        if per != TopKPer::Col {
            for i in 0..rows {
                ranked.clear();
                if matrix.is_sparse() {
                    ranked.extend(matrix.row_entries(i).filter(|&(_, v)| v > 0.0));
                } else {
                    ranked.extend(
                        matrix
                            .row(i)
                            .iter()
                            .enumerate()
                            .filter(|&(_, &v)| v > 0.0)
                            .map(|(j, &v)| (j, v)),
                    );
                }
                crate::combine::sort_desc(&mut ranked);
                for &(j, _) in ranked.iter().take(k) {
                    mask.allow(i, j);
                }
            }
        }
        if per != TopKPer::Row {
            if matrix.is_sparse() {
                // Column-wise ranking scans CSR rows once and buckets by
                // column (per column, rows arrive ascending — the same
                // candidate order as the dense column scan).
                let mut by_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cols];
                for i in 0..rows {
                    for (j, v) in matrix.row_entries(i).filter(|&(_, v)| v > 0.0) {
                        by_col[j].push((i, v));
                    }
                }
                for (j, mut col_ranked) in by_col.into_iter().enumerate() {
                    crate::combine::sort_desc(&mut col_ranked);
                    for &(i, _) in col_ranked.iter().take(k) {
                        mask.allow(i, j);
                    }
                }
            } else {
                // Dense: strided per-column scan with one reused buffer —
                // no transient copy of the whole matrix's nonzero cells.
                for j in 0..cols {
                    ranked.clear();
                    ranked.extend(
                        (0..rows)
                            .map(|i| (i, matrix.get(i, j)))
                            .filter(|&(_, v)| v > 0.0),
                    );
                    crate::combine::sort_desc(&mut ranked);
                    for &(i, _) in ranked.iter().take(k) {
                        mask.allow(i, j);
                    }
                }
            }
        }
        mask
    }

    /// Number of source elements (`m`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of target elements (`n`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Allows the pair (source `i`, target `j`).
    pub fn allow(&mut self, i: usize, j: usize) {
        let cell = i * self.cols + j;
        self.bits[cell / 64] |= 1 << (cell % 64);
    }

    /// Whether the pair (source `i`, target `j`) is in the search space.
    #[inline]
    pub fn allows(&self, i: usize, j: usize) -> bool {
        let cell = i * self.cols + j;
        self.bits[cell / 64] & (1 << (cell % 64)) != 0
    }

    /// Number of allowed pairs.
    pub fn allowed_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no pair is allowed.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The allowed column indices of row `i`, ascending. Walks the row's
    /// bit words and skips empty ones, so a sparse row costs its
    /// `cols / 64` words plus its allowed cells, not a test per column.
    pub fn allowed_in_row(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let (start, end) = (i * self.cols, (i + 1) * self.cols);
        let words = if start < end {
            start / 64..end.div_ceil(64)
        } else {
            0..0
        };
        words.flat_map(move |w| {
            let base = w * 64;
            let mut bits = self.bits[w];
            if base < start {
                bits &= u64::MAX << (start - base);
            }
            if end < base + 64 {
                bits &= u64::MAX >> (base + 64 - end);
            }
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    base + b - start
                })
            })
        })
    }

    /// The fraction of the pair space this mask allows (0 for an empty
    /// task). The engine uses it to decide between the sparse and the
    /// dense (compute-full-then-mask) execution path.
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.allowed_count() as f64 / cells as f64
        }
    }

    /// The intersection with another mask of the same dimensions.
    pub fn intersect(&self, other: &PairMask) -> PairMask {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "mask dimensions must agree"
        );
        PairMask {
            rows: self.rows,
            cols: self.cols,
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Zeroes every disallowed cell of `matrix` in place (storage
    /// preserving: dense cells are overwritten, sparse entries dropped).
    pub fn apply(&self, matrix: &mut SimMatrix) {
        debug_assert_eq!((matrix.rows(), matrix.cols()), (self.rows, self.cols));
        matrix.retain_cells(|i, j| self.allows(i, j));
    }

    /// A copy of `full` with every disallowed cell zeroed, keeping the
    /// input's storage mode.
    pub fn masked_clone(&self, full: &SimMatrix) -> SimMatrix {
        let mut out = full.clone();
        self.apply(&mut out);
        out
    }

    /// A **sparse-stored** copy of `full` holding only the allowed nonzero
    /// cells — mask application without ever materializing (or cloning) a
    /// dense `rows × cols` buffer. This is how the engine converts a
    /// stage's matrices to sparse storage once the stage mask's
    /// [`density`](PairMask::density) says the pair space has been pruned.
    pub fn masked_sparse(&self, full: &SimMatrix) -> SimMatrix {
        debug_assert_eq!((full.rows(), full.cols()), (self.rows, self.cols));
        // Empty pair space (a 0 × n / m × 0 task, or a zero-row shard):
        // nothing to scan, and `density()` reports 0.0 for it, so the
        // sparse path must handle it without touching `full`'s rows.
        if self.rows == 0 || self.cols == 0 {
            return SimMatrix::sparse(self.rows, self.cols);
        }
        let mut b = crate::cube::SparseBuilder::new(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in full.row_entries(i) {
                if self.allows(i, j) {
                    b.push(i, j, v);
                }
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_and_query() {
        let mut mask = PairMask::new(3, 70); // spans multiple words
        assert!(mask.is_empty());
        mask.allow(0, 0);
        mask.allow(2, 69);
        assert!(mask.allows(0, 0));
        assert!(mask.allows(2, 69));
        assert!(!mask.allows(1, 1));
        assert_eq!(mask.allowed_count(), 2);
    }

    /// The word-skipping row walk yields exactly the columns `allows`
    /// accepts, for rows that start and end mid-word and rows spanning
    /// several words.
    #[test]
    fn allowed_in_row_matches_allows() {
        for cols in [0, 1, 5, 63, 64, 65, 130] {
            let rows = 7;
            let mut mask = PairMask::new(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    if (i * 7 + j * 3) % 5 == 0 || j + 1 == cols {
                        mask.allow(i, j);
                    }
                }
            }
            for i in 0..rows {
                let expected: Vec<usize> = (0..cols).filter(|&j| mask.allows(i, j)).collect();
                let walked: Vec<usize> = mask.allowed_in_row(i).collect();
                assert_eq!(walked, expected, "row {i} of {rows}×{cols}");
            }
        }
    }

    #[test]
    fn apply_zeroes_disallowed_cells() {
        let mut m = SimMatrix::new(2, 2);
        m.set(0, 0, 0.8);
        m.set(0, 1, 0.6);
        m.set(1, 1, 0.4);
        let mut mask = PairMask::new(2, 2);
        mask.allow(0, 1);
        let masked = mask.masked_clone(&m);
        assert_eq!(masked.get(0, 0), 0.0);
        assert_eq!(masked.get(0, 1), 0.6);
        assert_eq!(masked.get(1, 1), 0.0);
        // The original is untouched.
        assert_eq!(m.get(0, 0), 0.8);
    }

    #[test]
    fn top_k_of_keeps_best_cells_per_side() {
        let mut m = SimMatrix::new(2, 3);
        m.set(0, 0, 0.9);
        m.set(0, 1, 0.5);
        m.set(0, 2, 0.7);
        m.set(1, 0, 0.8);
        m.set(1, 1, 0.6);
        // Per row, k = 1: each source keeps its single best target.
        let rows = PairMask::top_k_of(&m, 1, TopKPer::Row);
        assert!(rows.allows(0, 0) && rows.allows(1, 0));
        assert_eq!(rows.allowed_count(), 2);
        // Per column, k = 1: each target keeps its single best source.
        let cols = PairMask::top_k_of(&m, 1, TopKPer::Col);
        assert!(cols.allows(0, 0)); // col 0: 0.9 beats 0.8
        assert!(cols.allows(1, 1)); // col 1: 0.6 beats 0.5
        assert!(cols.allows(0, 2)); // col 2: only nonzero cell
        assert_eq!(cols.allowed_count(), 3);
        // Both = union: every element of either side keeps its best.
        let both = PairMask::top_k_of(&m, 1, TopKPer::Both);
        for (i, j) in [(0, 0), (1, 0), (1, 1), (0, 2)] {
            assert!(both.allows(i, j), "({i},{j})");
        }
        assert_eq!(both.allowed_count(), 4);
        // Zero cells are never kept, and k larger than the row is fine.
        let all = PairMask::top_k_of(&m, 10, TopKPer::Both);
        assert_eq!(all.allowed_count(), 5);
        assert!(!all.allows(1, 2));
    }

    #[test]
    fn row_iteration_and_density() {
        let mut mask = PairMask::new(2, 70);
        mask.allow(0, 3);
        mask.allow(0, 69);
        mask.allow(1, 0);
        assert_eq!(mask.allowed_in_row(0).collect::<Vec<_>>(), vec![3, 69]);
        assert_eq!(mask.allowed_in_row(1).collect::<Vec<_>>(), vec![0]);
        assert!((mask.density() - 3.0 / 140.0).abs() < 1e-12);
        assert_eq!(PairMask::new(0, 0).density(), 0.0);
    }

    #[test]
    fn masked_sparse_agrees_with_masked_clone() {
        let mut m = SimMatrix::new(2, 3);
        m.set(0, 0, 0.8);
        m.set(0, 2, 0.6);
        m.set(1, 1, 0.4);
        let mut mask = PairMask::new(2, 3);
        mask.allow(0, 2);
        mask.allow(1, 1);
        mask.allow(1, 2); // allowed but zero: never stored sparsely
        let sparse = mask.masked_sparse(&m);
        assert!(sparse.is_sparse());
        assert_eq!(sparse.stored_entries(), 2);
        assert_eq!(sparse, mask.masked_clone(&m));
        // Applying to an already-sparse matrix drops entries in place.
        let mut s = m.to_sparse();
        mask.apply(&mut s);
        assert!(s.is_sparse());
        assert_eq!(s, sparse);
        // Sparse input to masked_sparse works too.
        assert_eq!(mask.masked_sparse(&m.to_sparse()), sparse);
    }

    #[test]
    fn fully_dense_mask_roundtrips_losslessly() {
        // A mask allowing the whole pair space: masked_sparse is the
        // identity (up to storage), in both directions.
        let mut m = SimMatrix::new(3, 2);
        for i in 0..3 {
            for j in 0..2 {
                m.set(i, j, 0.1 + (i * 2 + j) as f64 / 10.0);
            }
        }
        let mut all = PairMask::new(3, 2);
        for i in 0..3 {
            for j in 0..2 {
                all.allow(i, j);
            }
        }
        assert_eq!(all.density(), 1.0);
        let sparse = all.masked_sparse(&m);
        assert!(sparse.is_sparse());
        assert_eq!(sparse.stored_entries(), 6);
        assert_eq!(sparse, m);
        assert_eq!(sparse.to_dense(), m);
        assert_eq!(all.masked_sparse(&sparse), m);
    }

    #[test]
    fn top_k_of_is_storage_agnostic() {
        let mut m = SimMatrix::new(3, 4);
        m.set(0, 0, 0.9);
        m.set(0, 2, 0.7);
        m.set(1, 0, 0.8);
        m.set(1, 3, 0.5);
        m.set(2, 2, 0.7); // tie with (0,2): lower row index wins per column
        let s = m.to_sparse();
        for per in [TopKPer::Row, TopKPer::Col, TopKPer::Both] {
            for k in 1..=3 {
                let dense_mask = PairMask::top_k_of(&m, k, per);
                let sparse_mask = PairMask::top_k_of(&s, k, per);
                assert_eq!(dense_mask, sparse_mask, "k={k} per={per}");
            }
        }
    }

    #[test]
    fn intersection_keeps_common_pairs() {
        let mut a = PairMask::new(2, 2);
        a.allow(0, 0);
        a.allow(1, 1);
        let mut b = PairMask::new(2, 2);
        b.allow(1, 1);
        b.allow(0, 1);
        let both = a.intersect(&b);
        assert!(both.allows(1, 1));
        assert!(!both.allows(0, 0));
        assert_eq!(both.allowed_count(), 1);
    }
}
