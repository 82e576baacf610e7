use crate::cube::SimMatrix;
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

/// Step 2a: match direction (paper, Section 6.2).
///
/// Given schemas S1 (source, `m` elements) and S2 (target, `n` elements),
/// the *smaller* and *larger* roles are assigned by comparing `m` and `n`
/// (ties treat the target as the smaller schema, matching the paper's
/// `|S2| ≤ |S1|` convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Match the larger schema against the smaller target: candidates from
    /// the larger schema are ranked and selected with respect to each
    /// element of the smaller schema.
    LargeSmall,
    /// The opposite: rank the smaller schema's elements for each element of
    /// the larger schema.
    SmallLarge,
    /// Use both directions and accept a pair only if it is selected in
    /// both — the undirectional approach.
    Both,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::LargeSmall => f.write_str("LargeSmall"),
            Direction::SmallLarge => f.write_str("SmallLarge"),
            Direction::Both => f.write_str("Both"),
        }
    }
}

/// Step 2b: match candidate selection per ranked element (paper,
/// Section 6.2). The three base criteria can be combined; the paper
/// evaluates `MaxN`, `MaxDelta` and `Threshold` alone and `Threshold`
/// compounded with the other two (e.g. `Thr(0.5)+Delta(0.02)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// Keep at most the best `n` candidates.
    pub max_n: Option<usize>,
    /// Keep candidates whose similarity is within a *relative* tolerance
    /// `d` of the best candidate (`sim ≥ best·(1−d)`).
    pub delta: Option<f64>,
    /// Keep candidates with `sim > t` — strictly exceeding, per the paper's
    /// "showing a similarity exceeding a given threshold value t".
    pub threshold: Option<f64>,
}

impl Selection {
    /// `MaxN(n)`: the `n` elements with maximal similarity.
    pub fn max_n(n: usize) -> Selection {
        Selection {
            max_n: Some(n),
            delta: None,
            threshold: None,
        }
    }

    /// `MaxDelta(d)` with a relative tolerance (the paper's evaluation uses
    /// relative deltas of 1–10%).
    pub fn delta(d: f64) -> Selection {
        Selection {
            max_n: None,
            delta: Some(d),
            threshold: None,
        }
    }

    /// `Threshold(t)`: every candidate exceeding `t`.
    pub fn threshold(t: f64) -> Selection {
        Selection {
            max_n: None,
            delta: None,
            threshold: Some(t),
        }
    }

    /// Compounds this selection with a threshold (e.g.
    /// `Selection::max_n(1).with_threshold(0.5)`).
    pub fn with_threshold(mut self, t: f64) -> Selection {
        self.threshold = Some(t);
        self
    }

    /// Cuts `ranked`, a descending-sorted list of
    /// `(candidate index, similarity)`, to the selected candidates.
    fn apply(&self, ranked: &mut Vec<(usize, f64)>) {
        self.cut_values(ranked);
        if let Some(n) = self.max_n {
            ranked.truncate(n);
        }
    }

    /// The value cuts of [`Selection::apply`], everything but `max_n`:
    /// the threshold, the delta below the first (best) entry, and zeros.
    /// Each keeps a prefix of a descending list, and zeros sort behind
    /// every positive entry, so cutting them before the `max_n` prefix
    /// keeps what cutting them after it keeps.
    fn cut_values(&self, ranked: &mut Vec<(usize, f64)>) {
        if let Some(t) = self.threshold {
            ranked.retain(|&(_, s)| s > t);
        }
        if let Some(d) = self.delta {
            if let Some(&(_, best)) = ranked.first() {
                let cutoff = best * (1.0 - d);
                ranked.retain(|&(_, s)| s >= cutoff);
            }
        }
        // Zero-similarity candidates are never match candidates.
        ranked.retain(|&(_, s)| s > 0.0);
    }
}

impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if let Some(t) = self.threshold {
            parts.push(format!("Thr({t})"));
        }
        if let Some(n) = self.max_n {
            parts.push(format!("MaxN({n})"));
        }
        if let Some(d) = self.delta {
            parts.push(format!("Delta({d})"));
        }
        if parts.is_empty() {
            parts.push("All".to_string());
        }
        f.write_str(&parts.join("+"))
    }
}

/// The outcome of direction + selection: the two directional candidate
/// lists over matrix indices. `source_to_target[j]` holds the selected
/// source candidates for target `j`; `target_to_source[i]` the selected
/// target candidates for source `i`. A `None` list means that direction was
/// not computed (directional matching).
#[derive(Debug, Clone, PartialEq)]
pub struct DirectedCandidates {
    /// For each target element: selected `(source index, sim)` candidates.
    pub for_targets: Option<Vec<Vec<(usize, f64)>>>,
    /// For each source element: selected `(target index, sim)` candidates.
    pub for_sources: Option<Vec<Vec<(usize, f64)>>>,
}

impl DirectedCandidates {
    /// Runs direction + selection on an aggregated similarity matrix.
    ///
    /// Storage aware: on a sparse matrix the per-source ranking scans the
    /// CSR rows directly and the per-target ranking scans the rows of the
    /// (sparse) transpose, so the work is proportional to the stored
    /// entries instead of `m × n`. Zero cells can never be selected (the
    /// selection retains only similarities above zero), so skipping them
    /// up front yields exactly the candidates of the dense scan.
    pub fn select(
        matrix: &SimMatrix,
        direction: Direction,
        selection: &Selection,
    ) -> DirectedCandidates {
        let m = matrix.rows();
        let n = matrix.cols();
        let (want_for_targets, want_for_sources) = directional_wants(direction, m, n);

        // Plain `Max1` (no threshold, no delta) is the structural
        // matchers' inner selection, executed once per set-similarity
        // cell: a linear max scan replaces the O(k log k) sort, with
        // identical tie-breaking (first index wins).
        let fast_max1 = selection.max_n == Some(1)
            && selection.delta.is_none()
            && selection.threshold.is_none();

        // With a threshold, cells at or below it can never be selected:
        // dropping them before the sort turns the per-element O(k log k)
        // ranking into one over the (typically few) survivors, with an
        // identical outcome.
        let floor = selection.threshold.unwrap_or(f64::NEG_INFINITY);

        // One row of candidates — the dense scan enumerates every cell,
        // the sparse scan only the stored entries of a CSR row. Both feed
        // the identical ranking: zeros (and sub-floor cells) are discarded
        // by `apply`/`best_of` either way, and ties already arrive in
        // ascending index order. Generic over the entry iterator so the
        // dense path (the structural matchers' per-cell inner loop) stays
        // fully inlined.
        fn rank_row<I: Iterator<Item = (usize, f64)>>(
            entries: I,
            selection: &Selection,
            fast_max1: bool,
            floor: f64,
        ) -> Vec<(usize, f64)> {
            if fast_max1 {
                return best_of(entries);
            }
            let mut ranked: Vec<(usize, f64)> = entries.filter(|&(_, s)| s > floor).collect();
            rank_entries(&mut ranked, selection);
            ranked
        }

        if matrix.is_sparse() {
            // Per-target candidates rank the columns of `matrix`; CSR has
            // no cheap column access, so rank the rows of the (sparse,
            // O(stored entries)) transpose instead.
            let for_targets = want_for_targets.then(|| {
                let t = matrix.transposed();
                (0..n)
                    .map(|j| rank_row(t.row_entries(j), selection, fast_max1, floor))
                    .collect()
            });
            let for_sources = want_for_sources.then(|| {
                (0..m)
                    .map(|i| rank_row(matrix.row_entries(i), selection, fast_max1, floor))
                    .collect()
            });
            return DirectedCandidates {
                for_targets,
                for_sources,
            };
        }

        // Dense: hoist the raw value slice out of the per-cell loop so the
        // storage dispatch happens once, not `m × n` times (this scan is
        // the structural matchers' per-cell inner loop).
        let values = matrix.values();
        let for_targets = want_for_targets.then(|| {
            (0..n)
                .map(|j| {
                    rank_row(
                        (0..m).map(|i| (i, values[i * n + j])),
                        selection,
                        fast_max1,
                        floor,
                    )
                })
                .collect()
        });
        let for_sources = want_for_sources.then(|| {
            (0..m)
                .map(|i| {
                    let row = &values[i * n..(i + 1) * n];
                    rank_row(
                        row.iter().enumerate().map(|(j, &v)| (j, v)),
                        selection,
                        fast_max1,
                        floor,
                    )
                })
                .collect()
        });
        DirectedCandidates {
            for_targets,
            for_sources,
        }
    }

    /// [`DirectedCandidates::select`] over a matrix in key space, without
    /// expanding it: each row key's candidate columns are ranked once and
    /// each column key's candidate rows once ([`rank_keyed`]), then every
    /// element gets a copy of its key's list. Bit-identical to `select`
    /// over the expanded `m × n` matrix, whose rows (and columns) with
    /// equal keys are equal. The work is `O(row keys × column keys)` plus
    /// the candidates kept; no list is longer than the selection keeps.
    pub(crate) fn select_keyed(
        matrix: &KeyedMatrix<'_, impl Fn(usize, usize) -> f64>,
        direction: Direction,
        selection: &Selection,
    ) -> DirectedCandidates {
        let (row_key, col_key) = (matrix.row_key, matrix.col_key);
        let (row_keys, col_keys) = matrix.keys;
        let (want_for_targets, want_for_sources) =
            directional_wants(direction, row_key.len(), col_key.len());
        let value = &matrix.value;
        let mut scratch = Vec::new();
        let for_sources = want_for_sources.then(|| {
            let targets = key_groups(col_key, col_keys);
            let lists: Vec<_> = (0..row_keys)
                .map(|a| {
                    let entries = (0..col_keys).map(|b| (b, value(a, b)));
                    rank_keyed(&mut scratch, entries, &targets, selection)
                })
                .collect();
            row_key.iter().map(|&a| lists[a as usize].clone()).collect()
        });
        let for_targets = want_for_targets.then(|| {
            let sources = key_groups(row_key, row_keys);
            let lists: Vec<_> = (0..col_keys)
                .map(|b| {
                    let entries = (0..row_keys).map(|a| (a, value(a, b)));
                    rank_keyed(&mut scratch, entries, &sources, selection)
                })
                .collect();
            col_key.iter().map(|&b| lists[b as usize].clone()).collect()
        });
        DirectedCandidates {
            for_targets,
            for_sources,
        }
    }

    /// Flattens the directional candidates into the final set of
    /// `(source, target, sim)` pairs. With both directions present, a pair
    /// must be selected in **both** to survive (the paper's `Both`
    /// semantics); otherwise the single computed direction decides.
    pub fn pairs(&self) -> Vec<(usize, usize, f64)> {
        match (&self.for_targets, &self.for_sources) {
            (Some(ft), Some(fs)) => {
                let mut out = Vec::new();
                for (j, cands) in ft.iter().enumerate() {
                    for &(i, sim) in cands {
                        if fs[i].iter().any(|&(jj, _)| jj == j) {
                            out.push((i, j, sim));
                        }
                    }
                }
                out.sort_by_key(|a| (a.0, a.1));
                out
            }
            (Some(ft), None) => {
                let mut out: Vec<(usize, usize, f64)> = ft
                    .iter()
                    .enumerate()
                    .flat_map(|(j, cands)| cands.iter().map(move |&(i, s)| (i, j, s)))
                    .collect();
                out.sort_by_key(|a| (a.0, a.1));
                out
            }
            (None, Some(fs)) => {
                let mut out: Vec<(usize, usize, f64)> = fs
                    .iter()
                    .enumerate()
                    .flat_map(|(i, cands)| cands.iter().map(move |&(j, s)| (i, j, s)))
                    .collect();
                out.sort_by_key(|a| (a.0, a.1));
                out
            }
            (None, None) => Vec::new(),
        }
    }
}

/// Descending by similarity; ties resolve by ascending index so results are
/// deterministic. Shared with [`PairMask::top_k_of`] so TopK pruning ranks
/// exactly like candidate selection.
///
/// [`PairMask::top_k_of`]: crate::engine::PairMask::top_k_of
pub(crate) fn sort_desc(ranked: &mut [(usize, f64)]) {
    ranked.sort_by(desc);
}

/// The order of [`sort_desc`]: a strict total order over entries with
/// distinct indices, so any sort or partition by it agrees.
fn desc(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
}

/// Which directional candidate lists `direction` computes for an `m × n`
/// task: `(want_for_targets, want_for_sources)`. The paper's convention —
/// S2 (target) is the smaller schema when `|S2| ≤ |S1|` — so `LargeSmall`
/// ranks source candidates per target exactly when `n ≤ m`. Shared with
/// the engine's fused pruned-shard execution, which must resolve the
/// direction from the *global* task dimensions, not a shard's.
pub(crate) fn directional_wants(direction: Direction, m: usize, n: usize) -> (bool, bool) {
    let target_is_smaller = n <= m;
    let want_for_targets = match direction {
        Direction::Both => true,
        Direction::LargeSmall => target_is_smaller,
        Direction::SmallLarge => !target_is_smaller,
    };
    let want_for_sources = match direction {
        Direction::Both => true,
        Direction::LargeSmall => !target_is_smaller,
        Direction::SmallLarge => target_is_smaller,
    };
    (want_for_targets, want_for_sources)
}

/// Ranks one element's `(index, similarity)` entries, distinct in
/// index and in any order, and cuts them in place to what `selection`
/// keeps, best first: the per-element ranking of
/// [`DirectedCandidates::select`], shared with the engine's row-shard
/// workers (their row selections, column-pool folds and the candidate
/// index's per-element cap). Zero and sub-threshold cells may be omitted
/// from `ranked` with an identical outcome: they sort behind every kept
/// candidate and are dropped regardless.
pub(crate) fn rank_entries(ranked: &mut Vec<(usize, f64)>, selection: &Selection) {
    let floor = selection.threshold.unwrap_or(f64::NEG_INFINITY);
    ranked.retain(|&(_, s)| s > floor);
    // At most `max_n` survive: move the best to the front in linear
    // time and sort only those.
    if let Some(k) = selection.max_n.filter(|&k| k < ranked.len()) {
        ranked.select_nth_unstable_by(k, desc);
        ranked.truncate(k);
    }
    sort_desc(ranked);
    selection.apply(ranked);
}

/// An `m × n` similarity matrix in key space: cell `(i, j)` holds
/// `value(row_key[i], col_key[j])`, over `keys.0` distinct row keys and
/// `keys.1` distinct column keys, each carried by at least one element
/// (the distinct element names of a name-keyed stage).
pub(crate) struct KeyedMatrix<'k, V> {
    /// The key of each row.
    pub(crate) row_key: &'k [u32],
    /// The key of each column.
    pub(crate) col_key: &'k [u32],
    /// The distinct (row, column) key counts.
    pub(crate) keys: (usize, usize),
    /// The value of a (row key, column key) pair.
    pub(crate) value: V,
}

/// The elements of each of `keys` keys, in ascending order.
fn key_groups(key_of: &[u32], keys: usize) -> Vec<Vec<usize>> {
    let mut groups = vec![Vec::new(); keys];
    for (element, &key) in key_of.iter().enumerate() {
        groups[key as usize].push(element);
    }
    debug_assert!(
        groups.iter().all(|g| !g.is_empty()),
        "every key has an element"
    );
    groups
}

/// The per-element ranking of [`rank_entries`] in key space: `entries`
/// are one element's `(key, similarity)` entries over distinct keys, each
/// key standing for all of its elements in `groups`; `keys` is scratch.
/// Returns what `rank_entries` keeps of the expanded
/// `(element, similarity)` entries, best first, equal values in ascending
/// element order.
///
/// Keys are ranked before any is expanded: under a `max_n` of `k` only
/// the `k` best keys and the keys tying the `k`-th can hold a kept
/// element (each key holds at least one), and the value cuts of the
/// selection apply to keys as they would to their elements. Expansion
/// then walks the keys best first, merging the elements of keys with
/// equal values by index, and stops at `k` elements.
fn rank_keyed(
    keys: &mut Vec<(usize, f64)>,
    entries: impl Iterator<Item = (usize, f64)>,
    groups: &[Vec<usize>],
    selection: &Selection,
) -> Vec<(usize, f64)> {
    let floor = selection.threshold.unwrap_or(f64::NEG_INFINITY);
    keys.clear();
    keys.extend(entries.filter(|&(_, s)| s > floor && s > 0.0));
    let cap = selection.max_n.unwrap_or(usize::MAX);
    if cap == 0 {
        return Vec::new();
    }
    if cap < keys.len() {
        keys.select_nth_unstable_by(cap - 1, desc);
        let kth = keys[cap - 1].1;
        keys.retain(|&(_, s)| s >= kth);
    }
    sort_desc(keys);
    selection.cut_values(keys);
    let kept = keys
        .iter()
        .map(|&(key, _)| groups[key].len())
        .sum::<usize>();
    let mut out = Vec::with_capacity(kept.min(cap));
    let mut rest = keys.as_slice();
    while out.len() < cap {
        let Some(&(_, sim)) = rest.first() else {
            break;
        };
        let tied = rest.iter().take_while(|&&(_, s)| s == sim).count();
        let (group, tail) = rest.split_at(tied);
        rest = tail;
        let room = cap - out.len();
        if let [(key, _)] = group {
            out.extend(groups[*key].iter().take(room).map(|&e| (e, sim)));
            continue;
        }
        // Keys tying on this value: their elements, merged by index.
        let mut heads: BinaryHeap<_> = group
            .iter()
            .map(|&(key, _)| Reverse((groups[key][0], key, 0)))
            .collect();
        while out.len() < cap {
            let Some(Reverse((element, key, at))) = heads.pop() else {
                break;
            };
            out.push((element, sim));
            if let Some(&next) = groups[key].get(at + 1) {
                heads.push(Reverse((next, key, at + 1)));
            }
        }
    }
    out
}

/// The single best nonzero candidate (strictly greater wins, so the first
/// index takes ties) — the `Max1` selection without a sort.
fn best_of(candidates: impl Iterator<Item = (usize, f64)>) -> Vec<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (idx, sim) in candidates {
        if best.is_none_or(|(_, s)| sim > s) {
            best = Some((idx, sim));
        }
    }
    match best {
        Some((_, s)) if s > 0.0 => vec![best.unwrap()],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2 of the paper: combined sims of three PO1 elements against
    /// PO2.DeliverTo.Address.City — 0.72, 0.67, 0.52 — and Max1 selection
    /// choosing shipToCity.
    fn table2() -> SimMatrix {
        let mut m = SimMatrix::new(3, 1);
        m.set(0, 0, 0.72); // PO1.ShipTo.shipToCity
        m.set(1, 0, 0.67); // PO1.Customer.custCity
        m.set(2, 0, 0.52); // PO1.ShipTo.shipToStreet
        m
    }

    #[test]
    fn max1_selects_the_paper_candidate() {
        let dc = DirectedCandidates::select(&table2(), Direction::LargeSmall, &Selection::max_n(1));
        let pairs = dc.pairs();
        assert_eq!(pairs, vec![(0, 0, 0.72)]);
    }

    #[test]
    fn threshold_is_strictly_exceeding() {
        let dc = DirectedCandidates::select(
            &table2(),
            Direction::LargeSmall,
            &Selection::threshold(0.67),
        );
        // 0.67 does not exceed 0.67.
        assert_eq!(dc.pairs(), vec![(0, 0, 0.72)]);
    }

    #[test]
    fn delta_keeps_near_best_candidates() {
        let dc =
            DirectedCandidates::select(&table2(), Direction::LargeSmall, &Selection::delta(0.1));
        // cutoff = 0.72·0.9 = 0.648 → keeps 0.72 and 0.67.
        assert_eq!(dc.pairs().len(), 2);
    }

    #[test]
    fn compound_threshold_delta() {
        let sel = Selection::delta(0.1).with_threshold(0.7);
        let dc = DirectedCandidates::select(&table2(), Direction::LargeSmall, &sel);
        assert_eq!(dc.pairs(), vec![(0, 0, 0.72)]);
        assert_eq!(sel.to_string(), "Thr(0.7)+Delta(0.1)");
    }

    #[test]
    fn both_requires_mutual_selection() {
        // Section 3's example: shipToCity prefers City, and City prefers
        // shipToCity — but custCity's best is also City while City's best
        // is shipToCity, so custCity↔City is dropped under Both/Max1.
        let mut m = SimMatrix::new(2, 2);
        m.set(0, 0, 0.72); // shipToCity ↔ City
        m.set(1, 0, 0.67); // custCity   ↔ City
        m.set(0, 1, 0.40); // shipToCity ↔ Street
        m.set(1, 1, 0.10);
        let dc = DirectedCandidates::select(&m, Direction::Both, &Selection::max_n(1));
        assert_eq!(dc.pairs(), vec![(0, 0, 0.72)]);
    }

    #[test]
    fn directional_modes_pick_the_right_perspective() {
        // m = 3 sources > n = 1 target → target is smaller.
        let m = table2();
        let ls = DirectedCandidates::select(&m, Direction::LargeSmall, &Selection::max_n(1));
        assert!(ls.for_targets.is_some() && ls.for_sources.is_none());
        let sl = DirectedCandidates::select(&m, Direction::SmallLarge, &Selection::max_n(1));
        assert!(sl.for_targets.is_none() && sl.for_sources.is_some());
        // SmallLarge: each of the 3 sources picks its best target → 3 pairs.
        assert_eq!(sl.pairs().len(), 3);
    }

    #[test]
    fn zero_similarities_are_never_selected() {
        let m = SimMatrix::new(2, 2);
        let dc = DirectedCandidates::select(&m, Direction::Both, &Selection::max_n(4));
        assert!(dc.pairs().is_empty());
    }

    #[test]
    fn ties_resolve_deterministically() {
        let mut m = SimMatrix::new(2, 1);
        m.set(0, 0, 0.5);
        m.set(1, 0, 0.5);
        let dc = DirectedCandidates::select(&m, Direction::LargeSmall, &Selection::max_n(1));
        assert_eq!(dc.pairs(), vec![(0, 0, 0.5)]);
    }

    /// `select_keyed` equals `select` over the expanded matrix, for every
    /// direction and a spread of selections, on keyed matrices whose
    /// values come from five levels, so distinct keys tie often and a
    /// tie group holds more elements than a `max_n` keeps.
    #[test]
    fn select_keyed_equals_select_over_the_expanded_matrix() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) % bound) as usize
        };
        let selections = [
            Selection::max_n(1),
            Selection::max_n(2),
            Selection::max_n(3).with_threshold(0.25),
            Selection::threshold(0.5),
            Selection::delta(0.5).with_threshold(0.0),
            Selection {
                delta: Some(0.3),
                ..Selection::max_n(4)
            },
            Selection::max_n(0),
        ];
        for (m, n, row_keys, col_keys) in [(9, 7, 3, 4), (6, 11, 6, 2), (12, 12, 1, 5)] {
            let mut row_key: Vec<u32> = (0..m).map(|i| (i % row_keys) as u32).collect();
            let mut col_key: Vec<u32> = (0..n).map(|j| (j % col_keys) as u32).collect();
            for keys in [&mut row_key, &mut col_key] {
                for i in (1..keys.len()).rev() {
                    keys.swap(i, next(i as u64 + 1));
                }
            }
            let table: Vec<f64> = (0..row_keys * col_keys)
                .map(|_| next(5) as f64 / 4.0)
                .collect();
            let value = |a: usize, b: usize| table[a * col_keys + b];
            let mut expanded = SimMatrix::new(m, n);
            for (i, &a) in row_key.iter().enumerate() {
                for (j, &b) in col_key.iter().enumerate() {
                    expanded.set(i, j, value(a as usize, b as usize));
                }
            }
            let keyed = KeyedMatrix {
                row_key: &row_key,
                col_key: &col_key,
                keys: (row_keys, col_keys),
                value,
            };
            for direction in [
                Direction::LargeSmall,
                Direction::SmallLarge,
                Direction::Both,
            ] {
                for selection in &selections {
                    assert_eq!(
                        DirectedCandidates::select_keyed(&keyed, direction, selection),
                        DirectedCandidates::select(&expanded, direction, selection),
                        "{m}x{n} over {row_keys}x{col_keys} keys, {direction}, {selection}"
                    );
                }
            }
        }
    }

    #[test]
    fn selection_labels() {
        assert_eq!(Selection::max_n(1).to_string(), "MaxN(1)");
        assert_eq!(
            Selection::delta(0.02).with_threshold(0.5).to_string(),
            "Thr(0.5)+Delta(0.02)"
        );
        assert_eq!(Selection::threshold(0.8).to_string(), "Thr(0.8)");
    }
}
