//! The similarity matrix and cube — the intermediate structure every
//! pipeline stage produces and every combination step consumes.
//!
//! A [`SimMatrix`] is *logically* always a dense `m × n` table of
//! similarities in `[0, 1]`, but it is *physically* backed by one of two
//! [`StorageMode`]s:
//!
//! * **Dense** — a row-major `Vec<f64>`, the right shape for full
//!   cross-product matcher output;
//! * **Sparse** — CSR (compressed sparse row: row offsets + column
//!   indices + values), the right shape once `TopK`/`Seq`/`Iterate`
//!   pruning has reduced the live pair space to a sliver of `m × n`.
//!
//! The two representations are interchangeable and lossless: cells absent
//! from the sparse storage read as `0.0`, exactly like an explicit zero in
//! the dense storage, and `PartialEq`, [`SimMatrix::get`],
//! [`SimMatrix::nonzero`], [`SimMatrix::transposed`] and
//! [`SimMatrix::max_abs_diff`] all compare and operate by *value*, never by
//! representation — mixed dense/sparse operands are fine. The plan engine
//! picks the storage automatically per stage from the stage mask's
//! [`density`](crate::engine::PairMask::density); see `ARCHITECTURE.md`
//! for the end-to-end picture.
//!
//! Reading a sparse matrix:
//!
//! ```
//! use coma_core::SimMatrix;
//!
//! // Three stored entries in a 3 × 4 pair space (CSR storage).
//! let m = SimMatrix::from_entries(3, 4, vec![(0, 1, 0.8), (2, 0, 0.4), (2, 3, 0.6)]);
//! assert!(m.is_sparse());
//! assert_eq!(m.stored_entries(), 3);
//!
//! // Absent cells read as 0.0, exactly like dense zeros.
//! assert_eq!(m.get(0, 1), 0.8);
//! assert_eq!(m.get(1, 2), 0.0);
//! assert_eq!(m.row_entries(2).collect::<Vec<_>>(), vec![(0, 0.4), (3, 0.6)]);
//!
//! // Conversions are lossless, and equality is by value, not storage.
//! let dense = m.to_dense();
//! assert!(!dense.is_sparse());
//! assert_eq!(dense, m);
//! assert_eq!(dense.to_sparse(), m);
//! ```

use serde::{DeError, Deserialize, Deserializer, Serialize, Serializer};

/// The physical representation a [`SimMatrix`] currently uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageMode {
    /// Row-major `Vec<f64>` over all `m × n` cells.
    Dense,
    /// CSR: row offsets + column indices + values for the stored cells.
    Sparse,
}

impl std::fmt::Display for StorageMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageMode::Dense => f.write_str("dense"),
            StorageMode::Sparse => f.write_str("sparse"),
        }
    }
}

/// CSR storage: `offsets` has `m + 1` entries; row `i`'s cells live at
/// `cols[offsets[i]..offsets[i+1]]` / `vals[..]`, column indices strictly
/// ascending within a row.
#[derive(Debug, Clone, Default)]
struct Csr {
    offsets: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Csr {
    fn empty(m: usize) -> Csr {
        Csr {
            offsets: vec![0; m + 1],
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// The `(cols, vals)` pair of row `i`.
    fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Index into `cols`/`vals` of cell `(i, j)`, if stored.
    fn position(&self, i: usize, j: usize) -> Result<usize, usize> {
        let lo = self.offsets[i];
        let hi = self.offsets[i + 1];
        self.cols[lo..hi]
            .binary_search(&j)
            .map(|p| lo + p)
            .map_err(|p| lo + p)
    }
}

/// The physical storage behind a [`SimMatrix`].
#[derive(Debug, Clone)]
enum SimStorage {
    Dense(Vec<f64>),
    Sparse(Csr),
}

/// An incremental builder for sparse (CSR) [`SimMatrix`] values.
///
/// Entries must be pushed in row-major order (ascending `(i, j)`); values
/// are clamped to `[0, 1]` like [`SimMatrix::set`] and zero values are
/// skipped (an absent sparse cell already reads as `0.0`).
#[derive(Debug)]
pub struct SparseBuilder {
    m: usize,
    n: usize,
    csr: Csr,
    filled_rows: usize,
}

impl SparseBuilder {
    /// A builder for an `m × n` sparse matrix.
    pub fn new(m: usize, n: usize) -> SparseBuilder {
        SparseBuilder {
            m,
            n,
            csr: Csr {
                offsets: Vec::with_capacity(m + 1),
                cols: Vec::new(),
                vals: Vec::new(),
            },
            filled_rows: 0,
        }
    }

    /// Closes out row offsets up to (and including) `row`.
    fn advance_to(&mut self, row: usize) {
        assert!(
            row + 1 >= self.filled_rows,
            "entries must be pushed row-major"
        );
        while self.filled_rows <= row {
            self.csr.offsets.push(self.csr.cols.len());
            self.filled_rows += 1;
        }
    }

    /// Pushes the cell `(i, j) = value` (row-major order required; `value`
    /// clamped to `[0, 1]`, zeros skipped).
    pub fn push(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.m && j < self.n, "entry ({i},{j}) out of bounds");
        self.advance_to(i);
        if let Some(&last) = self
            .csr
            .cols
            .get(self.csr.offsets[i]..)
            .and_then(<[usize]>::last)
        {
            assert!(j > last, "columns must ascend within a row");
        }
        let value = value.clamp(0.0, 1.0);
        if value != 0.0 {
            self.csr.cols.push(j);
            self.csr.vals.push(value);
        }
    }

    /// Pushes one whole row's `(column, value)` entries at once —
    /// ascending column order required, exactly like consecutive
    /// [`push`](SparseBuilder::push) calls. The engine's fused
    /// pruned-shard execution emits each shard row's surviving cells
    /// through this.
    pub fn push_row(&mut self, i: usize, entries: impl IntoIterator<Item = (usize, f64)>) {
        for (j, value) in entries {
            self.push(i, j, value);
        }
    }

    /// Finishes the current matrix and resets the builder for the next
    /// `next_rows × n` fragment, so one shard-local builder can emit
    /// every CSR fragment of a row-sharded computation in turn (they
    /// stitch back together via [`SimMatrix::from_row_shards`]).
    pub fn finish_reset(&mut self, next_rows: usize) -> SimMatrix {
        let next = SparseBuilder::new(next_rows, self.n);
        std::mem::replace(self, next).finish()
    }

    /// Finishes the matrix.
    pub fn finish(mut self) -> SimMatrix {
        while self.filled_rows <= self.m {
            self.csr.offsets.push(self.csr.cols.len());
            self.filled_rows += 1;
        }
        SimMatrix {
            m: self.m,
            n: self.n,
            storage: SimStorage::Sparse(self.csr),
        }
    }
}

/// A *logically dense* `m × n` similarity matrix between `m` source
/// elements and `n` target elements, physically stored dense or sparse
/// (see the [module docs](self)). Values live in `[0, 1]`; cells absent
/// from sparse storage read as `0.0`.
#[derive(Debug, Clone)]
pub struct SimMatrix {
    m: usize,
    n: usize,
    storage: SimStorage,
}

impl SimMatrix {
    /// A zero-filled dense `m × n` matrix.
    pub fn new(m: usize, n: usize) -> SimMatrix {
        SimMatrix {
            m,
            n,
            storage: SimStorage::Dense(vec![0.0; m * n]),
        }
    }

    /// An empty (all-zero) sparse `m × n` matrix.
    pub fn sparse(m: usize, n: usize) -> SimMatrix {
        SimMatrix {
            m,
            n,
            storage: SimStorage::Sparse(Csr::empty(m)),
        }
    }

    /// A sparse matrix from `(i, j, value)` entries (any order; duplicate
    /// cells must not occur). Values are clamped to `[0, 1]` and zeros are
    /// dropped, mirroring [`SimMatrix::set`].
    pub fn from_entries(
        m: usize,
        n: usize,
        entries: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> SimMatrix {
        let mut entries: Vec<(usize, usize, f64)> = entries.into_iter().collect();
        entries.sort_by_key(|&(i, j, _)| (i, j));
        let mut b = SparseBuilder::new(m, n);
        for (i, j, v) in entries {
            b.push(i, j, v);
        }
        b.finish()
    }

    /// Number of source elements (rows).
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Number of target elements (columns).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The physical storage mode currently in use.
    pub fn storage_mode(&self) -> StorageMode {
        match &self.storage {
            SimStorage::Dense(_) => StorageMode::Dense,
            SimStorage::Sparse(_) => StorageMode::Sparse,
        }
    }

    /// Whether the matrix is currently stored sparse.
    pub fn is_sparse(&self) -> bool {
        matches!(self.storage, SimStorage::Sparse(_))
    }

    /// Number of physically stored cells: `m × n` for dense storage, the
    /// entry count for sparse storage. The ratio to `m × n` is the
    /// storage's memory footprint relative to a dense matrix.
    pub fn stored_entries(&self) -> usize {
        match &self.storage {
            SimStorage::Dense(_) => self.m * self.n,
            SimStorage::Sparse(csr) => csr.vals.len(),
        }
    }

    /// The value at (source `i`, target `j`).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match &self.storage {
            SimStorage::Dense(values) => values[i * self.n + j],
            SimStorage::Sparse(csr) => match csr.position(i, j) {
                Ok(p) => csr.vals[p],
                Err(_) => 0.0,
            },
        }
    }

    /// Sets the value at (source `i`, target `j`), clamped to `[0, 1]`.
    /// On sparse storage this inserts, updates or — for a zero value —
    /// removes the stored entry (sparse storage never holds explicit
    /// zeros); insertion and removal are `O(stored entries)` splices,
    /// fine for the occasional feedback pin but wrong for bulk
    /// construction: use [`SparseBuilder`] or
    /// [`SimMatrix::from_entries`] there.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        let value = value.clamp(0.0, 1.0);
        match &mut self.storage {
            SimStorage::Dense(values) => values[i * self.n + j] = value,
            SimStorage::Sparse(csr) => {
                assert!(i < self.m && j < self.n, "cell ({i},{j}) out of bounds");
                match csr.position(i, j) {
                    // Writing zero removes the entry — sparse storage
                    // never holds explicit zeros, so `stored_entries`
                    // keeps meaning "nonzero cells".
                    Ok(p) if value == 0.0 => {
                        csr.cols.remove(p);
                        csr.vals.remove(p);
                        for o in &mut csr.offsets[i + 1..] {
                            *o -= 1;
                        }
                    }
                    Ok(p) => csr.vals[p] = value,
                    Err(p) => {
                        if value != 0.0 {
                            csr.cols.insert(p, j);
                            csr.vals.insert(p, value);
                            for o in &mut csr.offsets[i + 1..] {
                                *o += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Row `i` as a slice (similarities of source `i` to every target).
    ///
    /// # Panics
    /// Panics on sparse storage — use [`SimMatrix::row_entries`] (storage
    /// agnostic) or [`SimMatrix::copy_row_into`] instead.
    pub fn row(&self, i: usize) -> &[f64] {
        match &self.storage {
            SimStorage::Dense(values) => &values[i * self.n..(i + 1) * self.n],
            SimStorage::Sparse(_) => panic!("SimMatrix::row requires dense storage"),
        }
    }

    /// Row `i` as a mutable slice. Unlike [`SimMatrix::set`] this is raw
    /// access: callers writing through it are responsible for keeping
    /// values in `[0, 1]`.
    ///
    /// # Panics
    /// Panics on sparse storage (raw dense construction API).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        match &mut self.storage {
            SimStorage::Dense(values) => &mut values[i * self.n..(i + 1) * self.n],
            SimStorage::Sparse(_) => panic!("SimMatrix::row_mut requires dense storage"),
        }
    }

    /// Overwrites row `i` with `values` (one per column), clamping each to
    /// `[0, 1]` like [`SimMatrix::set`].
    ///
    /// # Panics
    /// Panics on sparse storage (raw dense construction API).
    #[inline]
    pub fn fill_row(&mut self, i: usize, values: &[f64]) {
        let row = self.row_mut(i);
        debug_assert_eq!(row.len(), values.len());
        for (dst, &v) in row.iter_mut().zip(values) {
            *dst = v.clamp(0.0, 1.0);
        }
    }

    /// Writes row `i` into `buf` (length `n`), whatever the storage: a
    /// memcpy for dense, zero-fill plus scatter for sparse.
    pub fn copy_row_into(&self, i: usize, buf: &mut [f64]) {
        debug_assert_eq!(buf.len(), self.n);
        match &self.storage {
            SimStorage::Dense(values) => buf.copy_from_slice(&values[i * self.n..(i + 1) * self.n]),
            SimStorage::Sparse(csr) => {
                buf.fill(0.0);
                let (cols, vals) = csr.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    buf[j] = v;
                }
            }
        }
    }

    /// Raw values in row-major order.
    ///
    /// # Panics
    /// Panics on sparse storage — use [`SimMatrix::nonzero`] /
    /// [`SimMatrix::copy_row_into`] for storage-agnostic access.
    pub fn values(&self) -> &[f64] {
        match &self.storage {
            SimStorage::Dense(values) => values,
            SimStorage::Sparse(_) => panic!("SimMatrix::values requires dense storage"),
        }
    }

    /// The nonzero `(column, value)` entries of row `i`, ascending by
    /// column. Storage agnostic: for dense storage zeros are filtered out,
    /// for sparse storage the stored entries are scanned directly — the
    /// two storages of the same logical matrix yield identical sequences.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (dense, sparse) = match &self.storage {
            SimStorage::Dense(values) => (Some(&values[i * self.n..(i + 1) * self.n]), None),
            SimStorage::Sparse(csr) => (None, Some(csr.row(i))),
        };
        let dense_iter = dense
            .into_iter()
            .flat_map(|row| row.iter().enumerate())
            .map(|(j, &v)| (j, v));
        let sparse_iter = sparse
            .into_iter()
            .flat_map(|(cols, vals)| cols.iter().zip(vals))
            .map(|(&j, &v)| (j, v));
        dense_iter.chain(sparse_iter).filter(|&(_, v)| v != 0.0)
    }

    /// A dense-stored copy (identity copy when already dense).
    pub fn to_dense(&self) -> SimMatrix {
        self.clone().into_dense()
    }

    /// Converts into dense storage (no-op when already dense).
    pub fn into_dense(self) -> SimMatrix {
        match self.storage {
            SimStorage::Dense(_) => self,
            SimStorage::Sparse(csr) => {
                let mut values = vec![0.0; self.m * self.n];
                for i in 0..self.m {
                    let (cols, vals) = csr.row(i);
                    for (&j, &v) in cols.iter().zip(vals) {
                        values[i * self.n + j] = v;
                    }
                }
                SimMatrix {
                    m: self.m,
                    n: self.n,
                    storage: SimStorage::Dense(values),
                }
            }
        }
    }

    /// A sparse-stored copy holding exactly the nonzero cells (identity
    /// copy when already sparse).
    pub fn to_sparse(&self) -> SimMatrix {
        match &self.storage {
            SimStorage::Sparse(_) => self.clone(),
            SimStorage::Dense(_) => {
                let mut b = SparseBuilder::new(self.m, self.n);
                for i in 0..self.m {
                    for (j, v) in self.row_entries(i) {
                        b.push(i, j, v);
                    }
                }
                b.finish()
            }
        }
    }

    /// The transposed matrix (targets become sources), keeping the storage
    /// mode. The dense output is filled row-major so writes stay
    /// sequential in memory; the sparse transpose is a counting sort over
    /// the stored entries.
    pub fn transposed(&self) -> SimMatrix {
        match &self.storage {
            SimStorage::Dense(values) => {
                let mut t = SimMatrix::new(self.n, self.m);
                for j in 0..self.n {
                    let row = t.row_mut(j);
                    for (i, dst) in row.iter_mut().enumerate() {
                        *dst = values[i * self.n + j];
                    }
                }
                t
            }
            SimStorage::Sparse(csr) => {
                // Counting sort: entry counts per column become the
                // transposed row offsets, then one scatter pass places
                // every entry (rows are visited in ascending order, so
                // columns ascend within each transposed row).
                let mut offsets = vec![0usize; self.n + 1];
                for &j in &csr.cols {
                    offsets[j + 1] += 1;
                }
                for j in 0..self.n {
                    offsets[j + 1] += offsets[j];
                }
                let mut cols = vec![0usize; csr.cols.len()];
                let mut vals = vec![0.0; csr.vals.len()];
                let mut cursor = offsets.clone();
                for i in 0..self.m {
                    let (rcols, rvals) = csr.row(i);
                    for (&j, &v) in rcols.iter().zip(rvals) {
                        let p = cursor[j];
                        cols[p] = i;
                        vals[p] = v;
                        cursor[j] += 1;
                    }
                }
                SimMatrix {
                    m: self.n,
                    n: self.m,
                    storage: SimStorage::Sparse(Csr {
                        offsets,
                        cols,
                        vals,
                    }),
                }
            }
        }
    }

    /// The max-norm distance to another matrix of identical dimensions:
    /// the largest absolute cell-wise difference. Used by the plan
    /// engine's `Iterate` operator as its convergence measure. The
    /// operands may use different storage modes.
    pub fn max_abs_diff(&self, other: &SimMatrix) -> f64 {
        assert_eq!(
            (self.m, self.n),
            (other.m, other.n),
            "matrix dimensions must agree"
        );
        if let (SimStorage::Dense(a), SimStorage::Dense(b)) = (&self.storage, &other.storage) {
            return a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
        }
        // Mixed or sparse operands: merge the nonzero entries of each row
        // (cells absent from both differ by 0 and cannot raise the max).
        let mut worst = 0.0_f64;
        for i in 0..self.m {
            let mut a = self.row_entries(i).peekable();
            let mut b = other.row_entries(i).peekable();
            loop {
                let diff = match (a.peek().copied(), b.peek().copied()) {
                    (Some((ja, va)), Some((jb, vb))) => match ja.cmp(&jb) {
                        std::cmp::Ordering::Equal => {
                            a.next();
                            b.next();
                            (va - vb).abs()
                        }
                        std::cmp::Ordering::Less => {
                            a.next();
                            va.abs()
                        }
                        std::cmp::Ordering::Greater => {
                            b.next();
                            vb.abs()
                        }
                    },
                    (Some((_, va)), None) => {
                        a.next();
                        va.abs()
                    }
                    (None, Some((_, vb))) => {
                        b.next();
                        vb.abs()
                    }
                    (None, None) => break,
                };
                worst = worst.max(diff);
            }
        }
        worst
    }

    /// The sub-matrix holding rows `range` (columns unchanged), keeping
    /// the storage mode. Row `i` of the output is row `range.start + i`
    /// of the input; an empty range yields a `0 × n` matrix.
    ///
    /// This is the default [`Matcher::compute_rows`](crate::Matcher)
    /// implementation's slicing step — and the inverse of
    /// [`SimMatrix::from_row_shards`].
    pub fn row_range(&self, range: std::ops::Range<usize>) -> SimMatrix {
        assert!(
            range.start <= range.end && range.end <= self.m,
            "row range {range:?} out of bounds for {} rows",
            self.m
        );
        let rows = range.len();
        match &self.storage {
            SimStorage::Dense(values) => SimMatrix {
                m: rows,
                n: self.n,
                storage: SimStorage::Dense(
                    values[range.start * self.n..range.end * self.n].to_vec(),
                ),
            },
            SimStorage::Sparse(csr) => {
                let (lo, hi) = (csr.offsets[range.start], csr.offsets[range.end]);
                let offsets = csr.offsets[range.start..=range.end]
                    .iter()
                    .map(|o| o - lo)
                    .collect();
                SimMatrix {
                    m: rows,
                    n: self.n,
                    storage: SimStorage::Sparse(Csr {
                        offsets,
                        cols: csr.cols[lo..hi].to_vec(),
                        vals: csr.vals[lo..hi].to_vec(),
                    }),
                }
            }
        }
    }

    /// Assembles row shards back into one matrix, in the given order: the
    /// output's row count is the sum of the shards' and every shard must
    /// have `cols` columns. This is how the plan engine stitches the
    /// results of row-sharded matcher execution ([`Matcher::compute_rows`]
    /// over contiguous ranges) into the single stage matrix:
    ///
    /// * **one shard** — returned as-is, no copy (the engine never takes
    ///   this path, but callers driving the partition themselves may);
    /// * **all shards sparse** — their CSR storages are concatenated
    ///   (offsets rebased, columns/values appended), no dense buffer ever
    ///   materializes;
    /// * **all shards dense** — slab-wise appends into one buffer
    ///   reserved up front (one memcpy per shard, no zero-fill pass);
    /// * **mixed** — one dense `m × n` buffer is filled row by row via
    ///   [`SimMatrix::copy_row_into`] (a memcpy per dense shard row,
    ///   zero-fill + scatter per sparse shard row).
    ///
    /// Either way the result is bit-identical to computing the matrix in
    /// one piece, because each cell is copied verbatim from exactly one
    /// shard.
    ///
    /// [`Matcher::compute_rows`]: crate::Matcher::compute_rows
    pub fn from_row_shards(cols: usize, mut shards: Vec<SimMatrix>) -> SimMatrix {
        for shard in &shards {
            assert_eq!(
                shard.cols(),
                cols,
                "all row shards must have {cols} columns"
            );
        }
        // A single shard already is the whole matrix: hand it back
        // without copying (the degenerate case of every assembly below).
        if shards.len() == 1 {
            return shards.pop().expect("one shard");
        }
        let rows: usize = shards.iter().map(|s| s.rows()).sum();
        if shards.iter().all(|s| s.is_sparse()) {
            let mut csr = Csr {
                offsets: Vec::with_capacity(rows + 1),
                cols: Vec::with_capacity(shards.iter().map(|s| s.stored_entries()).sum()),
                vals: Vec::with_capacity(shards.iter().map(|s| s.stored_entries()).sum()),
            };
            csr.offsets.push(0);
            for shard in &shards {
                let SimStorage::Sparse(part) = &shard.storage else {
                    unreachable!("checked sparse above");
                };
                let base = csr.cols.len();
                csr.offsets
                    .extend(part.offsets[1..].iter().map(|o| base + o));
                csr.cols.extend_from_slice(&part.cols);
                csr.vals.extend_from_slice(&part.vals);
            }
            return SimMatrix {
                m: rows,
                n: cols,
                storage: SimStorage::Sparse(csr),
            };
        }
        // All-dense shards append slab-wise into one buffer reserved up
        // front — no zero-fill pass, one memcpy per shard. This matters:
        // at 20k paths the buffer is ~3 GiB, and assembly traffic is the
        // sharded path's only serial overhead.
        if shards.iter().all(|s| !s.is_sparse()) {
            let mut values = Vec::with_capacity(rows * cols);
            for shard in &shards {
                let SimStorage::Dense(part) = &shard.storage else {
                    unreachable!("checked dense above");
                };
                values.extend_from_slice(part);
            }
            return SimMatrix {
                m: rows,
                n: cols,
                storage: SimStorage::Dense(values),
            };
        }
        // Mixed storages: stitch row by row into a dense buffer.
        let mut out = SimMatrix::new(rows, cols);
        let mut next = 0;
        for shard in &shards {
            for i in 0..shard.rows() {
                shard.copy_row_into(i, out.row_mut(next));
                next += 1;
            }
        }
        out
    }

    /// Zeroes every cell the predicate rejects: dense cells are
    /// overwritten with `0.0`, sparse entries are dropped. The logical
    /// result is identical either way.
    pub fn retain_cells(&mut self, mut keep: impl FnMut(usize, usize) -> bool) {
        match &mut self.storage {
            SimStorage::Dense(values) => {
                for i in 0..self.m {
                    for (j, v) in values[i * self.n..(i + 1) * self.n].iter_mut().enumerate() {
                        if !keep(i, j) {
                            *v = 0.0;
                        }
                    }
                }
            }
            SimStorage::Sparse(csr) => {
                let mut out = Csr {
                    offsets: Vec::with_capacity(self.m + 1),
                    cols: Vec::with_capacity(csr.cols.len()),
                    vals: Vec::with_capacity(csr.vals.len()),
                };
                out.offsets.push(0);
                for i in 0..self.m {
                    let (cols, vals) = csr.row(i);
                    for (&j, &v) in cols.iter().zip(vals) {
                        if keep(i, j) {
                            out.cols.push(j);
                            out.vals.push(v);
                        }
                    }
                    out.offsets.push(out.cols.len());
                }
                *csr = out;
            }
        }
    }

    /// Iterates over `(i, j, value)` of all cells with `value > 0`.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.m).flat_map(move |i| {
            self.row_entries(i)
                .filter(|&(_, v)| v > 0.0)
                .map(move |(j, v)| (i, j, v))
        })
    }
}

/// Equality is *logical* (per-cell values), independent of the physical
/// storage: a dense matrix equals its sparse conversion.
impl PartialEq for SimMatrix {
    fn eq(&self, other: &SimMatrix) -> bool {
        if (self.m, self.n) != (other.m, other.n) {
            return false;
        }
        if let (SimStorage::Dense(a), SimStorage::Dense(b)) = (&self.storage, &other.storage) {
            return a == b;
        }
        (0..self.m).all(|i| self.row_entries(i).eq(other.row_entries(i)))
    }
}

/// Serialized as the historical dense shape `{m, n, values}` when dense,
/// and as `{m, n, row_offsets, col_indices, sparse_values}` when sparse;
/// deserialization accepts either, so repositories written before the
/// sparse storage existed keep loading.
impl Serialize for SimMatrix {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.begin_map(true);
        out.field("m", &self.m);
        out.field("n", &self.n);
        match &self.storage {
            SimStorage::Dense(values) => out.field("values", values),
            SimStorage::Sparse(csr) => {
                out.field("row_offsets", &csr.offsets);
                out.field("col_indices", &csr.cols);
                out.field("sparse_values", &csr.vals);
            }
        }
        out.end_map();
    }
}

impl Deserialize for SimMatrix {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<SimMatrix, DeError> {
        const FIELDS: [&str; 6] = [
            "m",
            "n",
            "values",
            "row_offsets",
            "col_indices",
            "sparse_values",
        ];
        let (mut m, mut n) = (None, None);
        let mut values: Option<Vec<f64>> = None;
        let (mut offsets, mut cols, mut vals) = (None, None, None);
        serde::fields(d, &FIELDS, |d, i| match i {
            0 => serde::first(d, &mut m),
            1 => serde::first(d, &mut n),
            2 => serde::first(d, &mut values),
            // A dense matrix ignores the sparse keys.
            3 if values.is_none() => serde::first(d, &mut offsets),
            4 if values.is_none() => serde::first(d, &mut cols),
            5 if values.is_none() => serde::first(d, &mut vals),
            _ => d.skip(),
        })?;
        let m: usize = serde::required(m, "m")?;
        let n: usize = serde::required(n, "n")?;
        if let Some(values) = values {
            if m.checked_mul(n) != Some(values.len()) {
                return Err(DeError::custom("dense SimMatrix value count mismatch"));
            }
            return Ok(SimMatrix {
                m,
                n,
                storage: SimStorage::Dense(values),
            });
        }
        let offsets: Vec<usize> = serde::required(offsets, "row_offsets")?;
        let cols: Vec<usize> = serde::required(cols, "col_indices")?;
        let vals: Vec<f64> = serde::required(vals, "sparse_values")?;
        if m.checked_add(1) != Some(offsets.len())
            || cols.len() != vals.len()
            || offsets.first() != Some(&0)
            || offsets.last() != Some(&cols.len())
            || offsets.windows(2).any(|w| w[0] > w[1])
            || (0..m).any(|i| {
                let row = &cols[offsets[i]..offsets[i + 1]];
                row.iter().any(|&j| j >= n) || row.windows(2).any(|w| w[0] >= w[1])
            })
        {
            return Err(DeError::custom("inconsistent sparse SimMatrix storage"));
        }
        Ok(SimMatrix {
            m,
            n,
            storage: SimStorage::Sparse(Csr {
                offsets,
                cols,
                vals,
            }),
        })
    }
}

/// The similarity cube: one [`SimMatrix`] slice per executed matcher
/// (paper, Section 3: "The result of the matcher execution phase with k
/// matchers, m S1 elements and n S2 elements is a k × m × n cube").
///
/// Slices are held behind [`Arc`](std::sync::Arc)s: the plan engine's
/// memo and the stage cubes share one allocation for an unrestricted
/// matcher matrix instead of cloning it (a full dense clone is the single
/// biggest allocation on a large task), and `clone`/[`SimCube::select`]
/// are cheap. Equality, serialization and all read accessors see plain
/// matrix values — sharing is invisible to consumers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimCube {
    matcher_names: Vec<String>,
    slices: Vec<std::sync::Arc<SimMatrix>>,
}

impl SimCube {
    /// An empty cube (no matcher slices yet).
    pub fn new() -> SimCube {
        SimCube {
            matcher_names: Vec::new(),
            slices: Vec::new(),
        }
    }

    /// Adds a matcher's result slice. Panics if dimensions differ from the
    /// slices already present.
    pub fn push(&mut self, matcher_name: impl Into<String>, slice: SimMatrix) {
        self.push_shared(matcher_name, std::sync::Arc::new(slice));
    }

    /// Adds a matcher's result slice without copying: the cube shares the
    /// allocation with the caller (the engine pushes memoized matrices
    /// this way). Panics if dimensions differ from the slices already
    /// present.
    pub fn push_shared(
        &mut self,
        matcher_name: impl Into<String>,
        slice: std::sync::Arc<SimMatrix>,
    ) {
        if let Some(first) = self.slices.first() {
            assert_eq!(
                (first.rows(), first.cols()),
                (slice.rows(), slice.cols()),
                "all cube slices must have identical dimensions"
            );
        }
        self.matcher_names.push(matcher_name.into());
        self.slices.push(slice);
    }

    /// Number of matcher slices (`k`).
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether the cube has no slices.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Matcher names in slice order.
    pub fn matcher_names(&self) -> &[String] {
        &self.matcher_names
    }

    /// The slice of matcher `k`.
    pub fn slice(&self, k: usize) -> &SimMatrix {
        &self.slices[k]
    }

    /// The slice for a matcher name.
    pub fn slice_named(&self, name: &str) -> Option<&SimMatrix> {
        self.matcher_names
            .iter()
            .position(|n| n == name)
            .map(|k| self.slices[k].as_ref())
    }

    /// Source dimension (`m`); 0 for an empty cube.
    pub fn rows(&self) -> usize {
        self.slices.first().map_or(0, |s| s.rows())
    }

    /// Target dimension (`n`); 0 for an empty cube.
    pub fn cols(&self) -> usize {
        self.slices.first().map_or(0, |s| s.cols())
    }

    /// Whether every slice is stored sparse (an empty cube is not).
    pub fn all_sparse(&self) -> bool {
        !self.slices.is_empty() && self.slices.iter().all(|s| s.is_sparse())
    }

    /// Total physically stored cells across all slices (see
    /// [`SimMatrix::stored_entries`]).
    pub fn stored_entries(&self) -> usize {
        self.slices.iter().map(|s| s.stored_entries()).sum()
    }

    /// A short human-readable storage summary, e.g. `dense`, `sparse` or
    /// `mixed(2 dense + 3 sparse)` — used by `coma-cli --verbose`.
    pub fn storage_summary(&self) -> String {
        let sparse = self.slices.iter().filter(|s| s.is_sparse()).count();
        let dense = self.slices.len() - sparse;
        match (dense, sparse) {
            (_, 0) => "dense".to_string(),
            (0, _) => "sparse".to_string(),
            (d, s) => format!("mixed({d} dense + {s} sparse)"),
        }
    }

    /// A sub-cube containing only the named slices, in the given order
    /// (sharing the slice allocations). Unknown names are skipped.
    pub fn select(&self, names: &[&str]) -> SimCube {
        let mut out = SimCube::new();
        for &name in names {
            if let Some(k) = self.matcher_names.iter().position(|n| n == name) {
                out.push_shared(name, std::sync::Arc::clone(&self.slices[k]));
            }
        }
        out
    }
}

impl Default for SimCube {
    fn default() -> Self {
        SimCube::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(m: usize, n: usize, f: impl Fn(usize, usize) -> f64) -> SimMatrix {
        let mut mat = SimMatrix::new(m, n);
        for i in 0..m {
            for j in 0..n {
                mat.set(i, j, f(i, j));
            }
        }
        mat
    }

    #[test]
    fn matrix_get_set_clamp() {
        let mut m = SimMatrix::new(2, 3);
        m.set(0, 0, 0.5);
        m.set(1, 2, 7.0);
        m.set(0, 1, -1.0);
        assert_eq!(m.get(0, 0), 0.5);
        assert_eq!(m.get(1, 2), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn sparse_get_set_clamp() {
        let mut m = SimMatrix::sparse(2, 3);
        assert!(m.is_sparse());
        m.set(0, 0, 0.5);
        m.set(1, 2, 7.0);
        m.set(0, 1, -1.0);
        assert_eq!(m.get(0, 0), 0.5);
        assert_eq!(m.get(1, 2), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.stored_entries(), 2); // the clamped-to-zero write is dropped
                                           // Updating in place; zeroing an existing entry removes it (sparse
                                           // storage never holds explicit zeros).
        m.set(0, 0, 0.9);
        assert_eq!(m.get(0, 0), 0.9);
        m.set(0, 0, 0.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.stored_entries(), 1);
        assert_eq!(
            m,
            matrix(2, 3, |i, j| if (i, j) == (1, 2) { 1.0 } else { 0.0 })
        );
    }

    #[test]
    fn transpose_roundtrips() {
        let m = matrix(2, 3, |i, j| (i * 3 + j) as f64 / 10.0);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn sparse_transpose_matches_dense_transpose() {
        let dense = matrix(3, 4, |i, j| {
            if (i + j) % 2 == 0 {
                0.0
            } else {
                0.1 * (i * 4 + j) as f64
            }
        });
        let sparse = dense.to_sparse();
        let t = sparse.transposed();
        assert!(t.is_sparse());
        assert_eq!(t, dense.transposed());
        assert_eq!(t.transposed(), dense);
    }

    #[test]
    fn row_mut_and_fill_row_access_rows() {
        let mut m = SimMatrix::new(2, 3);
        m.row_mut(1)[2] = 0.9;
        assert_eq!(m.get(1, 2), 0.9);
        m.fill_row(0, &[0.1, 7.0, -2.0]);
        assert_eq!(m.row(0), &[0.1, 1.0, 0.0]);
    }

    #[test]
    fn nonzero_iterates_sparse_cells() {
        let mut m = SimMatrix::new(2, 2);
        m.set(0, 1, 0.3);
        m.set(1, 0, 0.7);
        let cells: Vec<_> = m.nonzero().collect();
        assert_eq!(cells, vec![(0, 1, 0.3), (1, 0, 0.7)]);
        // The sparse conversion yields the identical sequence.
        assert_eq!(m.to_sparse().nonzero().collect::<Vec<_>>(), cells);
    }

    #[test]
    fn storage_conversions_are_lossless_and_equal() {
        let dense = matrix(3, 3, |i, j| if i == j { 0.5 + 0.1 * i as f64 } else { 0.0 });
        let sparse = dense.to_sparse();
        assert!(sparse.is_sparse());
        assert_eq!(sparse.stored_entries(), 3);
        assert_eq!(dense.stored_entries(), 9);
        // Value equality across storages, in both directions.
        assert_eq!(dense, sparse);
        assert_eq!(sparse, dense);
        assert_eq!(sparse.to_dense(), dense);
        assert_eq!(
            sparse.clone().into_dense().storage_mode(),
            StorageMode::Dense
        );
        // A differing cell breaks equality whatever the storage.
        let mut other = sparse.clone();
        other.set(0, 1, 0.2);
        assert_ne!(other, dense);
    }

    #[test]
    fn from_entries_sorts_clamps_and_drops_zeros() {
        let m = SimMatrix::from_entries(2, 3, vec![(1, 2, 0.5), (0, 1, 9.0), (1, 0, 0.0)]);
        assert!(m.is_sparse());
        assert_eq!(m.stored_entries(), 2);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 2), 0.5);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn row_entries_agree_across_storages() {
        let dense = matrix(2, 4, |i, j| if j % 2 == i % 2 { 0.25 } else { 0.0 });
        let sparse = dense.to_sparse();
        for i in 0..2 {
            assert_eq!(
                dense.row_entries(i).collect::<Vec<_>>(),
                sparse.row_entries(i).collect::<Vec<_>>()
            );
        }
        let mut buf_d = vec![9.0; 4];
        let mut buf_s = vec![9.0; 4];
        dense.copy_row_into(0, &mut buf_d);
        sparse.copy_row_into(0, &mut buf_s);
        assert_eq!(buf_d, buf_s);
        assert_eq!(buf_d, vec![0.25, 0.0, 0.25, 0.0]);
    }

    #[test]
    fn max_abs_diff_handles_mixed_storage() {
        let a = matrix(2, 3, |i, j| 0.1 * (i * 3 + j) as f64);
        let b = matrix(
            2,
            3,
            |i, j| if (i, j) == (1, 1) { 0.9 } else { a.get(i, j) },
        );
        let expect = (0.9 - 0.4_f64).abs();
        let close = |x: f64| (x - expect).abs() < 1e-12;
        assert!(close(a.max_abs_diff(&b)));
        assert!(close(a.to_sparse().max_abs_diff(&b)));
        assert!(close(a.max_abs_diff(&b.to_sparse())));
        assert!(close(a.to_sparse().max_abs_diff(&b.to_sparse())));
        // Identical matrices have zero distance in every combination.
        assert_eq!(a.to_sparse().max_abs_diff(&a), 0.0);
    }

    #[test]
    fn retain_cells_zeroes_dense_and_drops_sparse() {
        let dense = matrix(2, 2, |_, _| 0.5);
        let mut d = dense.clone();
        d.retain_cells(|i, j| i == j);
        let mut s = dense.to_sparse();
        s.retain_cells(|i, j| i == j);
        assert_eq!(d, s);
        assert_eq!(s.stored_entries(), 2);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        // 0 × 0, empty sparse, and single row / single column matrices.
        let empty = SimMatrix::sparse(0, 0);
        assert_eq!(empty.stored_entries(), 0);
        assert_eq!(empty, SimMatrix::new(0, 0));
        assert_eq!(empty.transposed(), empty);
        assert_eq!(empty.max_abs_diff(&SimMatrix::new(0, 0)), 0.0);

        let row = SimMatrix::from_entries(1, 5, vec![(0, 3, 0.7)]);
        assert_eq!(row.transposed().get(3, 0), 0.7);
        assert_eq!(row.transposed().rows(), 5);
        let col = row.transposed();
        assert!(col.is_sparse());
        assert_eq!(col.transposed(), row);
        assert_eq!(row.nonzero().count(), 1);
    }

    #[test]
    fn serialization_roundtrips_both_storages_and_legacy_format() {
        let dense = matrix(2, 2, |i, j| 0.1 + 0.2 * (i * 2 + j) as f64);
        let sparse = dense.to_sparse();
        let round_trip = |m: &SimMatrix| -> SimMatrix {
            serde_json::from_str(&serde_json::to_string(m).unwrap()).unwrap()
        };
        let d2 = round_trip(&dense);
        assert_eq!(d2, dense);
        assert!(!d2.is_sparse());
        let s2 = round_trip(&sparse);
        assert_eq!(s2, sparse);
        assert!(s2.is_sparse());
        // The dense wire shape is the pre-sparse-storage format: a map of
        // m, n and row-major values.
        let json = serde_json::to_string(&dense).unwrap();
        assert!(json.contains("\"values\""), "{json}");
        let legacy: SimMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(legacy, dense);
        // Corrupt sparse storage is rejected.
        let bad = r#"{"m":2,"n":2,"row_offsets":[0,1],"col_indices":[5],"sparse_values":[0.5]}"#;
        assert!(serde_json::from_str::<SimMatrix>(bad).is_err());
    }

    #[test]
    fn deserialization_rejects_overflowing_dimensions() {
        // The products and sums of these dimensions overflow `usize`; a
        // wrapped result must not pass for the stored value count.
        for bad in [
            r#"{"m":4294967296,"n":4294967296,"values":[]}"#,
            r#"{"m":18446744073709551615,"n":2,"values":[0.5]}"#,
            r#"{"m":18446744073709551615,"n":1,"row_offsets":[],"col_indices":[],"sparse_values":[]}"#,
        ] {
            assert!(serde_json::from_str::<SimMatrix>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn cube_push_and_lookup() {
        let mut cube = SimCube::new();
        cube.push("Name", matrix(2, 2, |_, _| 0.5));
        cube.push(
            "TypeName",
            matrix(2, 2, |i, j| if i == j { 1.0 } else { 0.0 }),
        );
        assert_eq!(cube.len(), 2);
        assert_eq!(cube.rows(), 2);
        assert_eq!(cube.slice_named("TypeName").unwrap().get(0, 0), 1.0);
        assert!(cube.slice_named("nope").is_none());
        let sub = cube.select(&["TypeName"]);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.matcher_names(), &["TypeName".to_string()]);
    }

    #[test]
    fn cube_storage_accounting() {
        let mut cube = SimCube::new();
        cube.push("A", matrix(2, 2, |_, _| 0.5));
        assert!(!cube.all_sparse());
        assert_eq!(cube.storage_summary(), "dense");
        cube.push(
            "B",
            matrix(2, 2, |i, j| ((i == j) as u8) as f64).to_sparse(),
        );
        assert_eq!(cube.storage_summary(), "mixed(1 dense + 1 sparse)");
        assert_eq!(cube.stored_entries(), 4 + 2);
        let mut all = SimCube::new();
        all.push("A", SimMatrix::sparse(2, 2));
        assert!(all.all_sparse());
        assert_eq!(all.storage_summary(), "sparse");
    }

    #[test]
    fn row_range_slices_both_storages() {
        let dense = matrix(5, 3, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                0.05 * (i * 3 + j) as f64
            }
        });
        let sparse = dense.to_sparse();
        for (lo, hi) in [(0, 5), (1, 4), (2, 2), (0, 0), (5, 5), (3, 5)] {
            let d = dense.row_range(lo..hi);
            let s = sparse.row_range(lo..hi);
            assert_eq!(d.rows(), hi - lo);
            assert_eq!(d.cols(), 3);
            assert!(!d.is_sparse());
            assert!(s.is_sparse());
            assert_eq!(d, s, "rows {lo}..{hi}");
            for i in lo..hi {
                for j in 0..3 {
                    assert_eq!(d.get(i - lo, j), dense.get(i, j));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_range_rejects_out_of_bounds_ranges() {
        let _ = matrix(3, 2, |_, _| 0.5).row_range(2..6);
    }

    #[test]
    fn from_row_shards_reassembles_row_ranges() {
        let full = matrix(7, 4, |i, j| {
            if (i * 4 + j) % 3 == 0 {
                0.0
            } else {
                0.03 * (i * 4 + j) as f64
            }
        });
        // Uneven boundaries, including an empty shard in the middle.
        let bounds = [0usize, 3, 3, 5, 7];
        let dense_shards: Vec<SimMatrix> = bounds
            .windows(2)
            .map(|w| full.row_range(w[0]..w[1]))
            .collect();
        let sparse_shards: Vec<SimMatrix> = dense_shards.iter().map(|s| s.to_sparse()).collect();
        // All-dense shards stitch into a dense matrix.
        let d = SimMatrix::from_row_shards(4, dense_shards.clone());
        assert!(!d.is_sparse());
        assert_eq!(d, full);
        // All-sparse shards concatenate into CSR, same values.
        let s = SimMatrix::from_row_shards(4, sparse_shards.clone());
        assert!(s.is_sparse());
        assert_eq!(s, full);
        assert_eq!(s.stored_entries(), full.to_sparse().stored_entries());
        // Mixed shards fall back to dense assembly, same values.
        let mut mixed = dense_shards;
        mixed[1] = sparse_shards[1].clone();
        mixed[3] = sparse_shards[3].clone();
        let m = SimMatrix::from_row_shards(4, mixed);
        assert!(!m.is_sparse());
        assert_eq!(m, full);
        // Degenerate: a single empty shard and the empty shard list.
        assert_eq!(
            SimMatrix::from_row_shards(4, vec![SimMatrix::new(0, 4)]).rows(),
            0
        );
        assert_eq!(SimMatrix::from_row_shards(4, Vec::new()).rows(), 0);
    }

    #[test]
    #[should_panic(expected = "must have 3 columns")]
    fn from_row_shards_rejects_column_mismatch() {
        let _ = SimMatrix::from_row_shards(3, vec![SimMatrix::new(2, 2)]);
    }

    #[test]
    #[should_panic(expected = "identical dimensions")]
    fn cube_rejects_mismatched_slices() {
        let mut cube = SimCube::new();
        cube.push("a", SimMatrix::new(2, 2));
        cube.push("b", SimMatrix::new(3, 2));
    }
}
