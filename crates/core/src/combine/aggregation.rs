use crate::cube::{SimCube, SimMatrix};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Step 1 of the combination scheme: aggregating the matcher-specific
/// similarity values of the cube into one combined value per element pair
/// (paper, Section 6.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Aggregation {
    /// The maximal similarity of any matcher — optimistic; matchers
    /// "can maximally complement each other".
    Max,
    /// The minimal similarity of any matcher — pessimistic.
    Min,
    /// The unweighted mean — "a special case of Weighted \[that\] considers
    /// them equally important".
    Average,
    /// A weighted sum; weights "should correspond to the expected
    /// importance of the matchers". Weights are normalized to sum 1; the
    /// vector length must equal the number of cube slices.
    Weighted(Vec<f64>),
}

impl Aggregation {
    /// Aggregates the cube into a single similarity matrix.
    ///
    /// Storage aware: a cube whose slices are all sparse is aggregated by
    /// merging the stored entries row by row into a sparse output — no
    /// `m × n` buffer is ever materialized — while dense (or mixed) cubes
    /// take the dense row-sweep path. Both paths fold each cell's values
    /// in slice order, so the result is value-identical whatever the
    /// storage (absent sparse cells contribute the `0.0` an explicit dense
    /// zero would).
    ///
    /// # Panics
    /// Panics if the cube is empty, or if a `Weighted` vector's length does
    /// not match the slice count.
    pub fn aggregate(&self, cube: &SimCube) -> SimMatrix {
        self.check_slices(cube.len());
        let (m, n, k) = (cube.rows(), cube.cols(), cube.len());
        if cube.all_sparse() {
            return self.aggregate_sparse(cube);
        }
        let mut out = SimMatrix::new(m, n);
        match self {
            Aggregation::Max => row_wise(&mut out, cube, None, &mut |acc, row| {
                for (a, &v) in acc.iter_mut().zip(row) {
                    *a = a.max(v);
                }
            }),
            Aggregation::Min => row_wise(&mut out, cube, None, &mut |acc, row| {
                for (a, &v) in acc.iter_mut().zip(row) {
                    *a = a.min(v);
                }
            }),
            Aggregation::Average => row_wise(&mut out, cube, Some(k as f64), &mut |acc, row| {
                for (a, &v) in acc.iter_mut().zip(row) {
                    *a += v;
                }
            }),
            Aggregation::Weighted(_) => {
                let mut values = vec![0.0; k];
                for i in 0..m {
                    for j in 0..n {
                        for (s, value) in values.iter_mut().enumerate() {
                            *value = cube.slice(s).get(i, j);
                        }
                        out.set(i, j, self.cell(&values));
                    }
                }
            }
        }
        out
    }

    /// Panics unless `slices` matrices can be aggregated: at least one,
    /// and one `Weighted` weight per slice, not summing to zero.
    pub(crate) fn check_slices(&self, slices: usize) {
        assert!(slices > 0, "cannot aggregate an empty cube");
        if let Aggregation::Weighted(weights) = self {
            assert_eq!(
                weights.len(),
                slices,
                "Weighted aggregation needs one weight per matcher slice"
            );
            let total: f64 = weights.iter().sum();
            assert!(total > 0.0, "weights must not sum to zero");
        }
    }

    /// One cell's aggregate over its `values`, one per slice in slice
    /// order: the arithmetic of [`Aggregation::aggregate`]'s dense path,
    /// bit for bit. A one-slice cell therefore keeps its value, except
    /// under `Weighted`, where it becomes `(v · w) / w`.
    pub(crate) fn cell(&self, values: &[f64]) -> f64 {
        let (first, rest) = values.split_first().expect("a cell has a value per slice");
        match self {
            Aggregation::Max => rest.iter().fold(*first, |a, &v| a.max(v)),
            Aggregation::Min => rest.iter().fold(*first, |a, &v| a.min(v)),
            Aggregation::Average => rest.iter().fold(*first, |a, &v| a + v) / values.len() as f64,
            Aggregation::Weighted(weights) => {
                let total: f64 = weights.iter().sum();
                values.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / total
            }
        }
    }

    /// The sparse path: per row, the slices' stored entries are gathered
    /// and grouped by column (a stable sort keeps slice order within each
    /// group, matching the dense per-cell fold order); cells stored by no
    /// slice stay implicit zeros. `Min` needs special care — a cell some
    /// slice left at zero aggregates to zero, which the per-group entry
    /// count detects without consulting absent entries.
    fn aggregate_sparse(&self, cube: &SimCube) -> SimMatrix {
        let (m, k) = (cube.rows(), cube.len());
        let mut b = crate::cube::SparseBuilder::new(m, cube.cols());
        // Weighted needs the originating slice per entry; the total is
        // loop-invariant. Absent cells contribute `0.0 · weight`, which
        // never changes a partial sum, so folding only the stored entries
        // (kept in slice order within a cell by the stable sort) equals
        // the dense per-cell sum over all k slices.
        let weight_total: f64 = match self {
            Aggregation::Weighted(weights) => weights.iter().sum(),
            _ => 0.0,
        };
        // (column, slice, value) entries of one row across all slices,
        // slice order preserved within a column by the stable sort.
        let mut scratch: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..m {
            scratch.clear();
            for s in 0..k {
                scratch.extend(cube.slice(s).row_entries(i).map(|(j, v)| (j, s, v)));
            }
            scratch.sort_by_key(|&(j, _, _)| j);
            let mut group = scratch.as_slice();
            while let Some(&(j, _, _)) = group.first() {
                let len = group.iter().take_while(|&&(gj, _, _)| gj == j).count();
                let (cell, rest) = group.split_at(len);
                group = rest;
                let value = match self {
                    Aggregation::Max => cell.iter().map(|&(_, _, v)| v).fold(0.0_f64, f64::max),
                    Aggregation::Min => {
                        if cell.len() < k {
                            0.0 // at least one slice holds an implicit zero
                        } else {
                            cell.iter()
                                .map(|&(_, _, v)| v)
                                .fold(f64::INFINITY, f64::min)
                        }
                    }
                    Aggregation::Average => cell.iter().map(|&(_, _, v)| v).sum::<f64>() / k as f64,
                    Aggregation::Weighted(weights) => {
                        cell.iter().map(|&(_, s, v)| v * weights[s]).sum::<f64>() / weight_total
                    }
                };
                b.push(i, j, value);
            }
        }
        b.finish()
    }
}

/// Max/Min/Average sweep the slices row by row (sequential reads and
/// writes) instead of gathering each cell across all slices; the per-cell
/// fold order over slices is unchanged, so results are identical to the
/// cell-wise formulation. `divisor` is applied by division so Average keeps
/// the exact floating-point result of the cell-wise `sum / k`. Rows are
/// staged through a per-slice buffer, so occasional sparse slices in an
/// otherwise dense cube are handled transparently.
fn row_wise(
    out: &mut SimMatrix,
    cube: &SimCube,
    divisor: Option<f64>,
    row_op: &mut dyn FnMut(&mut [f64], &[f64]),
) {
    let (m, k) = (cube.rows(), cube.len());
    let mut acc = vec![0.0_f64; cube.cols()];
    let mut row_buf = vec![0.0_f64; cube.cols()];
    for i in 0..m {
        cube.slice(0).copy_row_into(i, &mut acc);
        for s in 1..k {
            let slice = cube.slice(s);
            if slice.is_sparse() {
                slice.copy_row_into(i, &mut row_buf);
                row_op(&mut acc, &row_buf);
            } else {
                // Dense slices feed their row storage directly — no copy.
                row_op(&mut acc, slice.row(i));
            }
        }
        if let Some(d) = divisor {
            for a in acc.iter_mut() {
                *a /= d;
            }
        }
        out.fill_row(i, &acc);
    }
}

impl fmt::Display for Aggregation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Aggregation::Max => f.write_str("Max"),
            Aggregation::Min => f.write_str("Min"),
            Aggregation::Average => f.write_str("Average"),
            Aggregation::Weighted(w) => {
                write!(f, "Weighted(")?;
                for (i, x) in w.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> SimCube {
        let mut a = SimMatrix::new(1, 2);
        a.set(0, 0, 0.8);
        a.set(0, 1, 0.2);
        let mut b = SimMatrix::new(1, 2);
        b.set(0, 0, 0.4);
        b.set(0, 1, 0.6);
        let mut c = SimCube::new();
        c.push("A", a);
        c.push("B", b);
        c
    }

    #[test]
    fn max_min_average() {
        let c = cube();
        assert_eq!(Aggregation::Max.aggregate(&c).get(0, 0), 0.8);
        assert_eq!(Aggregation::Min.aggregate(&c).get(0, 0), 0.4);
        assert!((Aggregation::Average.aggregate(&c).get(0, 1) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn weighted_uses_normalized_weights() {
        let c = cube();
        // TypeName's default: 0.7 name + 0.3 datatype (Table 4).
        let m = Aggregation::Weighted(vec![0.7, 0.3]).aggregate(&c);
        assert!((m.get(0, 0) - (0.7 * 0.8 + 0.3 * 0.4)).abs() < 1e-12);
        // Non-normalized weights give the same result after normalization.
        let m2 = Aggregation::Weighted(vec![7.0, 3.0]).aggregate(&c);
        assert!((m.get(0, 0) - m2.get(0, 0)).abs() < 1e-12);
    }

    /// `cell` is the dense path's per-cell arithmetic, bit for bit: over
    /// two slices, and over one, where `Weighted` turns `v` into
    /// `(v · w) / w` (not always `v`).
    #[test]
    fn cell_repeats_the_dense_aggregate() {
        let two = cube();
        let mut one = SimCube::new();
        let mut slice = SimMatrix::new(1, 3);
        for (j, v) in [0.1, 0.7, 0.9].into_iter().enumerate() {
            slice.set(0, j, v);
        }
        one.push("A", slice);
        for aggregation in [
            Aggregation::Max,
            Aggregation::Min,
            Aggregation::Average,
            Aggregation::Weighted(vec![0.3, 0.9]),
            Aggregation::Weighted(vec![0.7]),
        ] {
            for c in [&two, &one] {
                if let Aggregation::Weighted(w) = &aggregation {
                    if w.len() != c.len() {
                        continue;
                    }
                }
                let dense = aggregation.aggregate(c);
                for j in 0..c.cols() {
                    let values: Vec<f64> = (0..c.len()).map(|s| c.slice(s).get(0, j)).collect();
                    let got = aggregation.cell(&values);
                    assert_eq!(got.to_bits(), dense.get(0, j).to_bits(), "{aggregation}");
                }
            }
        }
        let weighted = Aggregation::Weighted(vec![0.7]);
        assert!((0..100).any(|v| {
            let v = f64::from(v) / 100.0;
            weighted.cell(&[v]) != v
        }));
    }

    #[test]
    fn table_2_average_of_table_1() {
        // Table 1 → Table 2 of the paper: TypeName and NamePath values for
        // three pairs, Average aggregation.
        let pairs = [(0.65, 0.78, 0.72), (0.3, 0.73, 0.52), (0.80, 0.53, 0.67)];
        for (tn, np, expect) in pairs {
            let mut s1 = SimMatrix::new(1, 1);
            s1.set(0, 0, tn);
            let mut s2 = SimMatrix::new(1, 1);
            s2.set(0, 0, np);
            let mut c = SimCube::new();
            c.push("TypeName", s1);
            c.push("NamePath", s2);
            let got = Aggregation::Average.aggregate(&c).get(0, 0);
            assert!((got - expect).abs() < 0.0051, "{got} vs {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "empty cube")]
    fn empty_cube_panics() {
        Aggregation::Average.aggregate(&SimCube::new());
    }

    #[test]
    #[should_panic(expected = "one weight per matcher")]
    fn wrong_weight_count_panics() {
        Aggregation::Weighted(vec![1.0]).aggregate(&cube());
    }

    #[test]
    fn display_labels() {
        assert_eq!(Aggregation::Max.to_string(), "Max");
        assert_eq!(
            Aggregation::Weighted(vec![0.7, 0.3]).to_string(),
            "Weighted(0.7,0.3)"
        );
    }
}
