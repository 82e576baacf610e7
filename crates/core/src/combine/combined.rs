use super::selection::DirectedCandidates;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Step 3: computation of a single combined similarity for two element sets
/// from their directional match candidates (paper, Section 6.3, Figure 7).
///
/// Used by hybrid matchers (token sets, child sets, leaf sets) and for the
/// schema similarity of complete match results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CombinedSim {
    /// "The average similarity is determined by dividing the sum of the
    /// similarity values of all match candidates of both sets S1 and S2 by
    /// the total number of set elements, |S1|+|S2|."
    Average,
    /// "The ratio of the number of elements which can be matched over the
    /// total number of set elements" — the Dice coefficient; more
    /// optimistic because individual similarities do not matter.
    Dice,
}

impl CombinedSim {
    /// Computes the combined similarity from directional candidates over
    /// sets of `m` source and `n` target elements.
    ///
    /// Both directional lists contribute (Figure 7 sums three candidates
    /// from S1→S2 and three from S2→S1 over |S1|+|S2| = 7). For a
    /// directional selection where only one side was computed, the present
    /// side simply contributes alone.
    pub fn compute(self, candidates: &DirectedCandidates, m: usize, n: usize) -> f64 {
        if m + n == 0 {
            return 1.0;
        }
        match self {
            CombinedSim::Average => {
                let mut sum = 0.0;
                if let Some(ft) = &candidates.for_targets {
                    sum += ft.iter().flatten().map(|&(_, s)| s).sum::<f64>();
                }
                if let Some(fs) = &candidates.for_sources {
                    sum += fs.iter().flatten().map(|&(_, s)| s).sum::<f64>();
                }
                (sum / (m + n) as f64).clamp(0.0, 1.0)
            }
            CombinedSim::Dice => {
                let mut matched_sources: BTreeSet<usize> = BTreeSet::new();
                let mut matched_targets: BTreeSet<usize> = BTreeSet::new();
                if let Some(ft) = &candidates.for_targets {
                    for (j, cands) in ft.iter().enumerate() {
                        if !cands.is_empty() {
                            matched_targets.insert(j);
                        }
                        for &(i, _) in cands {
                            matched_sources.insert(i);
                        }
                    }
                }
                if let Some(fs) = &candidates.for_sources {
                    for (i, cands) in fs.iter().enumerate() {
                        if !cands.is_empty() {
                            matched_sources.insert(i);
                        }
                        for &(j, _) in cands {
                            matched_targets.insert(j);
                        }
                    }
                }
                ((matched_sources.len() + matched_targets.len()) as f64 / (m + n) as f64)
                    .clamp(0.0, 1.0)
            }
        }
    }
}

/// The `Both`/`Max1` pipeline over an `m × n` similarity lookup: per
/// column the best row, per row the best column, folded into the
/// combined similarity with exactly the accumulation order of
/// [`DirectedCandidates::select`] + [`CombinedSim::compute`]. Shared by
/// the structural matchers' per-cell set similarity and the name engine's
/// token-set combination — the two hottest inner loops of a match task.
/// Callers pass pre-clamped lookups (mirroring the `SimMatrix::set` clamp
/// of the materialized formulation).
///
/// A set pair of more than [`TWO_SCAN_CELLS`] cells is read once, row by
/// row, keeping the row's best in a register and every column's best in
/// a buffer (on the stack up to [`STACK_COLS`] columns). That pass keeps
/// only the best *values*: the strictly-greater, first-index-wins rule
/// of [`best_of`] decides which index a tie selects, and neither fold
/// reads it. `Average` sums the positive bests (per-target bests in
/// column order, per-source bests in row order), and `Dice` counts the
/// elements whose best is positive — exactly the elements the candidate
/// lists mark matched, because a column's selected row holds a positive
/// cell and so has a positive best of its own (and likewise for a row's
/// selected column). Smaller pairs — most token sets — scan the columns
/// and then the rows with that rule: re-reading a few cells costs less
/// there than setting up the buffer.
///
/// [`best_of`]: super::selection
pub(crate) fn max1_both_combined(
    m: usize,
    n: usize,
    lookup: impl Fn(usize, usize) -> f64,
    combined: CombinedSim,
) -> f64 {
    if m * n <= TWO_SCAN_CELLS {
        // Per column the best row, then per row the best column, each
        // with its index, as the candidate lists select them. On real
        // token tables these branches predict well, which the selects
        // below would give away.
        let best_for_col = |j: usize| -> (usize, f64) {
            let mut best = (0usize, f64::NEG_INFINITY);
            for i in 0..m {
                let v = lookup(i, j);
                if v > best.1 {
                    best = (i, v);
                }
            }
            best
        };
        let best_for_row = |i: usize| -> (usize, f64) {
            let mut best = (0usize, f64::NEG_INFINITY);
            for j in 0..n {
                let v = lookup(i, j);
                if v > best.1 {
                    best = (j, v);
                }
            }
            best
        };
        return match combined {
            CombinedSim::Average => {
                let mut ft_sum = 0.0;
                for j in 0..n {
                    let (_, v) = best_for_col(j);
                    if v > 0.0 {
                        ft_sum += v;
                    }
                }
                let mut fs_sum = 0.0;
                for i in 0..m {
                    let (_, v) = best_for_row(i);
                    if v > 0.0 {
                        fs_sum += v;
                    }
                }
                ((ft_sum + fs_sum) / (m + n) as f64).clamp(0.0, 1.0)
            }
            CombinedSim::Dice => {
                let mut matched_src = vec![false; m];
                let mut matched_tgt = vec![false; n];
                for (j, tgt) in matched_tgt.iter_mut().enumerate() {
                    let (i, v) = best_for_col(j);
                    if v > 0.0 {
                        *tgt = true;
                        matched_src[i] = true;
                    }
                }
                for (i, src) in matched_src.iter_mut().enumerate() {
                    let (j, v) = best_for_row(i);
                    if v > 0.0 {
                        *src = true;
                        matched_tgt[j] = true;
                    }
                }
                let matched = matched_src.iter().filter(|&&x| x).count()
                    + matched_tgt.iter().filter(|&&x| x).count();
                (matched as f64 / (m + n) as f64).clamp(0.0, 1.0)
            }
        };
    }
    // Selects, not branches: a data-dependent branch per cell mispredicts
    // often enough to cost more than the cell read itself.
    let max = |best: f64, v: f64| if v > best { v } else { best };
    // The positive per-source (`fs`) and per-target (`ft`) bests: their
    // sums and counts.
    let (mut fs_sum, mut fs_hits) = (0.0, 0usize);
    let (mut ft_sum, mut ft_hits) = (0.0, 0usize);
    let tally = |best: f64, sum: &mut f64, hits: &mut usize| {
        if best > 0.0 {
            *sum += best;
            *hits += 1;
        }
    };
    let mut stack = [f64::NEG_INFINITY; STACK_COLS];
    let mut heap = Vec::new();
    let col_best = if n <= STACK_COLS {
        &mut stack[..n]
    } else {
        heap.resize(n, f64::NEG_INFINITY);
        &mut heap[..]
    };
    for i in 0..m {
        let mut row_best = f64::NEG_INFINITY;
        for (j, col) in col_best.iter_mut().enumerate() {
            let v = lookup(i, j);
            row_best = max(row_best, v);
            *col = max(*col, v);
        }
        tally(row_best, &mut fs_sum, &mut fs_hits);
    }
    for &best in col_best.iter() {
        tally(best, &mut ft_sum, &mut ft_hits);
    }
    let value = match combined {
        // Two separate accumulators, then one add — the exact fold shape
        // of `CombinedSim::Average` over the two candidate lists.
        CombinedSim::Average => (ft_sum + fs_sum) / (m + n) as f64,
        CombinedSim::Dice => (ft_hits + fs_hits) as f64 / (m + n) as f64,
    };
    value.clamp(0.0, 1.0)
}

/// Largest set pair, in cells, that [`max1_both_combined`] scans twice.
const TWO_SCAN_CELLS: usize = 9;

/// Widest set whose column bests [`max1_both_combined`] keeps on the
/// stack.
const STACK_COLS: usize = 32;

impl fmt::Display for CombinedSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombinedSim::Average => f.write_str("Average"),
            CombinedSim::Dice => f.write_str("Dice"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{Direction, Selection};
    use crate::cube::SimMatrix;

    /// Figure 7 of the paper: S1 = {s11..s14}, S2 = {s21..s23};
    /// S1→S2 candidates: (s13,s21,1.0), (s12,s22,0.8), (s11,s23,0.8);
    /// S2→S1 the mirror image. Average = 5.2/7 ≈ 0.74, Dice = 6/7 ≈ 0.86.
    fn figure7() -> DirectedCandidates {
        // 4 sources × 3 targets; build the matrix realizing those matches.
        let mut m = SimMatrix::new(4, 3);
        m.set(2, 0, 1.0); // s13 ↔ s21
        m.set(1, 1, 0.8); // s12 ↔ s22
        m.set(0, 2, 0.8); // s11 ↔ s23
        DirectedCandidates::select(&m, Direction::Both, &Selection::max_n(1))
    }

    #[test]
    fn figure_7_average() {
        let got = CombinedSim::Average.compute(&figure7(), 4, 3);
        assert!((got - 5.2 / 7.0).abs() < 1e-9, "{got}");
    }

    #[test]
    fn figure_7_dice() {
        let got = CombinedSim::Dice.compute(&figure7(), 4, 3);
        assert!((got - 6.0 / 7.0).abs() < 1e-9, "{got}");
    }

    #[test]
    fn dice_is_at_least_average() {
        // "Dice returns a higher similarity value than Average and thus is
        // more optimistic."
        let c = figure7();
        assert!(CombinedSim::Dice.compute(&c, 4, 3) >= CombinedSim::Average.compute(&c, 4, 3));
    }

    #[test]
    fn all_similarities_one_makes_them_equal() {
        // Footnote 1: with all element similarities 1.0, Average and Dice
        // yield the same schema similarity.
        let mut m = SimMatrix::new(2, 2);
        m.set(0, 0, 1.0);
        m.set(1, 1, 1.0);
        let c = DirectedCandidates::select(&m, Direction::Both, &Selection::max_n(1));
        let avg = CombinedSim::Average.compute(&c, 2, 2);
        let dice = CombinedSim::Dice.compute(&c, 2, 2);
        assert_eq!(avg, dice);
        assert_eq!(avg, 1.0);
    }

    #[test]
    fn empty_sets_are_fully_similar() {
        let c = DirectedCandidates {
            for_targets: Some(Vec::new()),
            for_sources: Some(Vec::new()),
        };
        assert_eq!(CombinedSim::Average.compute(&c, 0, 0), 1.0);
    }

    #[test]
    fn no_matches_gives_zero() {
        let m = SimMatrix::new(2, 2);
        let c = DirectedCandidates::select(&m, Direction::Both, &Selection::max_n(1));
        assert_eq!(CombinedSim::Average.compute(&c, 2, 2), 0.0);
        assert_eq!(CombinedSim::Dice.compute(&c, 2, 2), 0.0);
    }
}
