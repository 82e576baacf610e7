//! The hybrid structural matchers of Section 4.2: `Children` and `Leaves`.
//! Both derive the similarity of inner elements from the similarity of
//! element sets below them, computed by a configurable **leaf matcher**
//! (default `TypeName`, Table 4) and combined with steps 2+3 of the
//! combination scheme (`Both`/`Max1`, `Average`).
//!
//! Both matchers are [`sparse_capable`](Matcher::sparse_capable): under a
//! search-space restriction they compute set similarities only for the
//! allowed pairs (plus, for `Children`, the recursively needed child
//! pairs) instead of the full cross-product, with results bit-identical
//! to the masked dense computation.

use crate::combine::{CombinedSim, DirectedCandidates, Direction, Selection};
use crate::cube::{SimMatrix, SparseBuilder};
use crate::engine::{matcher_identity, PairMask};
use crate::matchers::context::MatchContext;
use crate::matchers::hybrid::TypeNameMatcher;
use crate::matchers::Matcher;
use coma_graph::{PathId, PathSet};
use std::sync::Arc;

/// Shared configuration of the two structural matchers.
#[derive(Clone)]
struct StructuralConfig {
    leaf_matcher: Arc<dyn Matcher>,
    direction: Direction,
    selection: Selection,
    combined: CombinedSim,
}

impl StructuralConfig {
    fn paper_default() -> StructuralConfig {
        StructuralConfig {
            leaf_matcher: Arc::new(TypeNameMatcher::new()),
            direction: Direction::Both,
            selection: Selection::max_n(1),
            combined: CombinedSim::Average,
        }
    }

    /// The leaf matcher's full matrix, computed fresh or taken from the
    /// plan-execution memo (keyed by instance identity, so the standard
    /// library's shared `TypeName` is computed once per task — and shared
    /// by reference, not cloned, between `Children` and `Leaves`).
    /// Structural set similarities need the full pair space, so any
    /// search-space restriction is dropped here — the engine masks the
    /// *output* of non-cell-local matchers instead.
    fn leaf_sims(&self, ctx: &MatchContext<'_>) -> Arc<SimMatrix> {
        let full = ctx.without_restriction();
        match full.memo {
            Some(memo) => memo.matrix(
                self.leaf_matcher.name(),
                matcher_identity(&self.leaf_matcher),
                self.leaf_matcher.pure(),
                || self.leaf_matcher.compute(&full),
            ),
            None => Arc::new(self.leaf_matcher.compute(&full)),
        }
    }

    /// Combined similarity of two element sets given the full pairwise
    /// similarity table `sims` (indexed by path index).
    fn set_similarity(&self, set1: &[PathId], set2: &[PathId], sims: &SimMatrix) -> f64 {
        self.set_similarity_by(set1, set2, |p, q| sims.get(p.index(), q.index()))
    }

    /// Combined similarity of two element sets with an arbitrary pairwise
    /// similarity lookup — the sparse `Children` path layers its computed
    /// inner-pair overlay over the leaf table this way instead of cloning
    /// a dense matrix to write into.
    fn set_similarity_by(
        &self,
        set1: &[PathId],
        set2: &[PathId],
        lookup: impl Fn(PathId, PathId) -> f64,
    ) -> f64 {
        if set1.is_empty() && set2.is_empty() {
            return 1.0;
        }
        if set1.is_empty() || set2.is_empty() {
            return 0.0;
        }
        // The paper-default configuration (`Both`/`Max1`) is the per-cell
        // inner loop of every structural similarity: take the shared
        // kernel, which reads each cell once and folds the best values
        // directly instead of materializing a sub-matrix plus
        // per-element candidate lists. Value-identical to the generic
        // path (unit-tested below): the same best value per row and
        // column, the same clamping, the same summation order.
        if self.direction == Direction::Both && self.selection == Selection::max_n(1) {
            return self.set_similarity_max1(set1, set2, lookup);
        }
        let mut sub = SimMatrix::new(set1.len(), set2.len());
        for (a, &p) in set1.iter().enumerate() {
            for (b, &q) in set2.iter().enumerate() {
                sub.set(a, b, lookup(p, q));
            }
        }
        let candidates = DirectedCandidates::select(&sub, self.direction, &self.selection);
        self.combined.compute(&candidates, set1.len(), set2.len())
    }

    /// The `Both`/`Max1` fast path of [`StructuralConfig::set_similarity_by`]:
    /// the shared kernel over a clamped lookup (the clamp mirrors the
    /// `SimMatrix::set` the materialized path performs).
    fn set_similarity_max1(
        &self,
        set1: &[PathId],
        set2: &[PathId],
        lookup: impl Fn(PathId, PathId) -> f64,
    ) -> f64 {
        crate::combine::max1_both_combined(
            set1.len(),
            set2.len(),
            |a, b| lookup(set1[a], set2[b]).clamp(0.0, 1.0),
            self.combined,
        )
    }
}

/// The `Children` matcher: "determines the similarity between two inner
/// elements based on the combined similarity between their child elements,
/// which in turn can be both inner and leaf elements. The similarity
/// between the inner elements needs to be recursively computed from the
/// similarity between their respective children" (Section 4.2).
///
/// Pairs where either element is a leaf fall back to the leaf matcher
/// (the paper leaves mixed pairs unspecified; the fallback keeps `Children`
/// consistent with its leaf matcher on leaf-level pairs).
pub struct ChildrenMatcher {
    config: StructuralConfig,
}

impl ChildrenMatcher {
    /// `Children` with the paper's defaults (leaf matcher `TypeName`).
    pub fn new() -> ChildrenMatcher {
        ChildrenMatcher {
            config: StructuralConfig::paper_default(),
        }
    }

    /// `Children` with a custom leaf matcher.
    pub fn with_leaf_matcher(leaf_matcher: Arc<dyn Matcher>) -> ChildrenMatcher {
        ChildrenMatcher {
            config: StructuralConfig {
                leaf_matcher,
                ..StructuralConfig::paper_default()
            },
        }
    }

    /// Overrides the step-3 combined-similarity strategy (Average/Dice).
    pub fn with_combined(mut self, combined: CombinedSim) -> ChildrenMatcher {
        self.config.combined = combined;
        self
    }

    /// Overrides the step-2 selection strategy.
    pub fn with_selection(mut self, selection: Selection) -> ChildrenMatcher {
        self.config.selection = selection;
        self
    }
}

impl Default for ChildrenMatcher {
    fn default() -> Self {
        ChildrenMatcher::new()
    }
}

impl ChildrenMatcher {
    /// The dense path: every inner × inner cell, bottom-up by source
    /// subtree height so children similarities exist before their parents'.
    fn fill_dense(&self, ctx: &MatchContext<'_>, out: &mut SimMatrix) {
        let src_by_height = paths_by_height(ctx, true);
        let tgt_inner: Vec<PathId> = ctx.target_paths.inner_paths();
        for &p in &src_by_height {
            if ctx.source_paths.is_leaf(p) {
                continue;
            }
            for &q in &tgt_inner {
                let c2 = ctx.target_paths.children(q);
                let sim = self
                    .config
                    .set_similarity(ctx.source_paths.children(p), c2, out);
                out.set(p.index(), q.index(), sim);
            }
            // Inner × leaf pairs keep the leaf matcher's value (fallback).
        }
    }

    /// The sparse path: only the allowed inner × inner cells plus the
    /// child pairs they transitively depend on, processed bottom-up — no
    /// dense `m × n` buffer is cloned or written. The output holds
    /// exactly the allowed cells (computed inner values, leaf values
    /// elsewhere), which is what the dense path's engine-masked result
    /// keeps too.
    ///
    /// No cell read probes a hash. Leaf and mixed pairs read the shared
    /// leaf table. Inner pairs have slots: every path has one parent, so
    /// an inner child pair `(c1, c2)` is needed by exactly one pair,
    /// `(parent(c1), parent(c2))`. The closure is built breadth-first
    /// into `order`, a pair's slot is its position there, and the inner
    /// child pairs of slot `k` fill one block from `first_child[k]`,
    /// row-major over the two inner-child lists — so a pair reads child
    /// pair `(c1, c2)` at `first_child[k] + rank(c1) * inner(q) +
    /// rank(c2)`, where `rank` is a path's position among its parent's
    /// inner children.
    fn compute_sparse(
        &self,
        ctx: &MatchContext<'_>,
        mask: &PairMask,
        leaf_sims: &SimMatrix,
    ) -> SimMatrix {
        let cols = ctx.cols();
        let sp = ctx.source_paths;
        let tp = ctx.target_paths;
        let src_rank = inner_ranks(sp);
        let tgt_rank = inner_ranks(tp);
        // A target path's inner-child count: one past its last inner
        // child's rank (0 when it has none).
        let tgt_inner = |q: PathId| -> usize {
            tp.children(q)
                .iter()
                .rev()
                .find(|&&c| !tp.is_leaf(c))
                .map_or(0, |&c| tgt_rank[c.index()] as usize + 1)
        };

        // The closure's roots: the allowed inner pairs no allowed ancestor
        // pair (the same number of steps up on both sides) already needs.
        let needed_by_ancestor = |mut p: PathId, mut q: PathId| -> bool {
            while let (Some(a), Some(b)) = (sp.parent(p), tp.parent(q)) {
                if mask.allows(a.index(), b.index()) {
                    return true;
                }
                (p, q) = (a, b);
            }
            false
        };
        let mut order: Vec<(PathId, PathId)> = Vec::new();
        for i in 0..ctx.rows() {
            let p = ctx.source_elem(i);
            if sp.is_leaf(p) {
                continue;
            }
            for j in mask.allowed_in_row(i) {
                let q = ctx.target_elem(j);
                if !tp.is_leaf(q) && !needed_by_ancestor(p, q) {
                    order.push((p, q));
                }
            }
        }
        // Breadth-first: each pair appends its block of inner child pairs.
        let mut first_child: Vec<usize> = Vec::with_capacity(order.len());
        let mut k = 0;
        while k < order.len() {
            let (p, q) = order[k];
            first_child.push(order.len());
            for &c1 in sp.children(p).iter().filter(|&&c| !sp.is_leaf(c)) {
                for &c2 in tp.children(q).iter().filter(|&&c| !tp.is_leaf(c)) {
                    order.push((c1, c2));
                }
            }
            k += 1;
        }

        // Bottom-up: a pair's block lies after it in `order`, so a
        // reverse sweep computes every child pair before its parent pair.
        let mut values = vec![0.0; order.len()];
        for (k, &(p, q)) in order.iter().enumerate().rev() {
            let (base, width) = (first_child[k], tgt_inner(q));
            let sim = self.config.set_similarity_by(
                sp.children(p),
                tp.children(q),
                |a: PathId, b: PathId| {
                    if sp.is_leaf(a) || tp.is_leaf(b) {
                        leaf_sims.get(a.index(), b.index())
                    } else {
                        let (r1, r2) = (src_rank[a.index()], tgt_rank[b.index()]);
                        values[base + r1 as usize * width + r2 as usize]
                    }
                },
            );
            values[k] = sim.clamp(0.0, 1.0);
        }

        // Materialize the allowed cells straight into CSR storage. The
        // allowed inner pairs' slots, sorted by cell, come up in the same
        // row-major order as the mask walk meets those cells.
        let mut allowed_slots: Vec<(usize, usize)> = order
            .iter()
            .enumerate()
            .filter(|&(_, &(p, q))| mask.allows(p.index(), q.index()))
            .map(|(k, &(p, q))| (p.index() * cols + q.index(), k))
            .collect();
        allowed_slots.sort_unstable();
        let mut slots = allowed_slots.into_iter().map(|(_, k)| k);
        let mut b = SparseBuilder::new(ctx.rows(), cols);
        for i in 0..ctx.rows() {
            let inner_row = !sp.is_leaf(ctx.source_elem(i));
            for j in mask.allowed_in_row(i) {
                let v = if inner_row && !tp.is_leaf(ctx.target_elem(j)) {
                    values[slots.next().expect("every allowed inner pair has a slot")]
                } else {
                    leaf_sims.get(i, j)
                };
                b.push(i, j, v);
            }
        }
        b.finish()
    }
}

impl Matcher for ChildrenMatcher {
    fn name(&self) -> &str {
        "Children"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        let leaf_sims = self.config.leaf_sims(ctx);
        match ctx.restriction {
            Some(mask) => self.compute_sparse(ctx, mask, &leaf_sims),
            None => {
                let mut out = (*leaf_sims).clone();
                self.fill_dense(ctx, &mut out);
                out
            }
        }
    }

    fn sparse_capable(&self) -> bool {
        true
    }
}

/// The `Leaves` matcher: "only considers the leaf elements to estimate the
/// similarity between two inner elements. This strategy aims at more
/// stable similarity in cases of structural conflicts" (Section 4.2) —
/// e.g. it can identify ShipTo ↔ DeliverTo even though the address leaves
/// sit one level deeper in PO2.
pub struct LeavesMatcher {
    config: StructuralConfig,
}

impl LeavesMatcher {
    /// `Leaves` with the paper's defaults (leaf matcher `TypeName`).
    pub fn new() -> LeavesMatcher {
        LeavesMatcher {
            config: StructuralConfig::paper_default(),
        }
    }

    /// `Leaves` with a custom leaf matcher.
    pub fn with_leaf_matcher(leaf_matcher: Arc<dyn Matcher>) -> LeavesMatcher {
        LeavesMatcher {
            config: StructuralConfig {
                leaf_matcher,
                ..StructuralConfig::paper_default()
            },
        }
    }

    /// Overrides the step-3 combined-similarity strategy (Average/Dice).
    pub fn with_combined(mut self, combined: CombinedSim) -> LeavesMatcher {
        self.config.combined = combined;
        self
    }

    /// Overrides the step-2 selection strategy.
    pub fn with_selection(mut self, selection: Selection) -> LeavesMatcher {
        self.config.selection = selection;
        self
    }
}

impl Default for LeavesMatcher {
    fn default() -> Self {
        LeavesMatcher::new()
    }
}

impl Matcher for LeavesMatcher {
    fn name(&self) -> &str {
        "Leaves"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        // A leaf's leaf-set is itself, so every pair is handled uniformly:
        // sim(p, q) = combined similarity of leaves_under(p) × leaves_under(q).
        if let Some(mask) = ctx.restriction {
            let leaf_sims = self.config.leaf_sims(ctx);
            // Sparse path: each cell depends only on the (full) leaf-level
            // similarity table, so only the allowed pairs are computed —
            // built straight into CSR storage, row by row.
            let mut b = SparseBuilder::new(ctx.rows(), ctx.cols());
            let mut tgt_leaves: Vec<Option<Vec<PathId>>> = vec![None; ctx.cols()];
            for i in 0..ctx.rows() {
                let mut allowed = mask.allowed_in_row(i).peekable();
                if allowed.peek().is_none() {
                    continue;
                }
                let l1 = ctx.source_paths.leaves_under(ctx.source_elem(i));
                for j in allowed {
                    let l2 = tgt_leaves[j]
                        .get_or_insert_with(|| ctx.target_paths.leaves_under(ctx.target_elem(j)));
                    b.push(i, j, self.config.set_similarity(&l1, l2, &leaf_sims));
                }
            }
            b.finish()
        } else {
            self.compute_rows(ctx, 0..ctx.rows())
        }
    }

    /// A contiguous block of rows of the dense matrix. Every cell is a
    /// set similarity over the *shared* leaf-level table (memoized when
    /// the engine attaches a memo), so rows are independent of each other
    /// and a block is bit-identical to the same rows of
    /// [`Matcher::compute`] — this is what makes `Leaves` row-shardable
    /// while `Children` (whose inner-pair recursion reads other rows'
    /// results) is not.
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: std::ops::Range<usize>) -> SimMatrix {
        if ctx.restriction.is_some() {
            // The engine only shards unrestricted computes; stay correct
            // for any other caller by slicing the restricted result.
            return self.compute(ctx).row_range(rows);
        }
        let leaf_sims = self.config.leaf_sims(ctx);
        let mut out = SimMatrix::new(rows.len(), ctx.cols());
        let src_leaves: Vec<Vec<PathId>> = rows
            .clone()
            .map(|i| ctx.source_paths.leaves_under(ctx.source_elem(i)))
            .collect();
        let tgt_leaves: Vec<Vec<PathId>> = ctx
            .target_paths
            .iter()
            .map(|q| ctx.target_paths.leaves_under(q))
            .collect();
        for (i, l1) in src_leaves.iter().enumerate() {
            for (j, l2) in tgt_leaves.iter().enumerate() {
                out.set(i, j, self.config.set_similarity(l1, l2, &leaf_sims));
            }
        }
        out
    }

    fn sparse_capable(&self) -> bool {
        true
    }

    fn row_shardable(&self) -> bool {
        true
    }
}

/// The subtree height of every path (leaves are 0).
fn subtree_heights(ps: &PathSet) -> Vec<usize> {
    let mut height = vec![0usize; ps.len()];
    // DFS preorder guarantees children appear after parents, so a reverse
    // sweep computes heights in one pass.
    for p in ps.iter().collect::<Vec<_>>().into_iter().rev() {
        let h = ps
            .children(p)
            .iter()
            .map(|c| height[c.index()] + 1)
            .max()
            .unwrap_or(0);
        height[p.index()] = h;
    }
    height
}

/// Each path's position among the inner (non-leaf) children of its
/// parent (0 for leaves and the root).
fn inner_ranks(ps: &PathSet) -> Vec<u32> {
    let mut rank = vec![0; ps.len()];
    for p in ps.iter() {
        let inner = ps.children(p).iter().filter(|&&c| !ps.is_leaf(c));
        for (r, &c) in (0u32..).zip(inner) {
            rank[c.index()] = r;
        }
    }
    rank
}

/// All paths of one side ordered by increasing subtree height (leaves
/// first, root last).
fn paths_by_height(ctx: &MatchContext<'_>, source: bool) -> Vec<PathId> {
    let ps = if source {
        ctx.source_paths
    } else {
        ctx.target_paths
    };
    let height = subtree_heights(ps);
    let mut order: Vec<PathId> = ps.iter().collect();
    order.sort_by_key(|p| height[p.index()]);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchers::context::Auxiliary;
    use crate::matchers::synonym::SynonymTable;
    use coma_graph::{PathSet, Schema};

    fn po1() -> Schema {
        coma_sql::import_ddl(
            "CREATE TABLE PO1.ShipTo (
                 shipToStreet VARCHAR(200), shipToCity VARCHAR(200), shipToZip VARCHAR(20));
             CREATE TABLE PO1.Customer (custNo INT, custName VARCHAR(200));",
            "PO1",
        )
        .unwrap()
    }

    fn po2() -> Schema {
        coma_xml::import_xsd(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="PO2">
    <xsd:sequence>
      <xsd:element name="DeliverTo" type="Address"/>
      <xsd:element name="BillTo" type="Address"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Address">
    <xsd:sequence>
      <xsd:element name="Street" type="xsd:string"/>
      <xsd:element name="City" type="xsd:string"/>
      <xsd:element name="Zip" type="xsd:decimal"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>"#,
            "PO2",
        )
        .unwrap()
    }

    fn aux() -> Auxiliary {
        let mut a = Auxiliary::standard();
        a.synonyms = SynonymTable::purchase_order();
        a
    }

    fn run(
        matcher: &dyn Matcher,
        s1: &Schema,
        s2: &Schema,
        aux: &Auxiliary,
    ) -> (SimMatrix, PathSet, PathSet) {
        let p1 = PathSet::new(s1).unwrap();
        let p2 = PathSet::new(s2).unwrap();
        let ctx = MatchContext::new(s1, s2, &p1, &p2, aux);
        (matcher.compute(&ctx), p1, p2)
    }

    fn cell(
        s1: &Schema,
        s2: &Schema,
        m: &SimMatrix,
        p1: &PathSet,
        p2: &PathSet,
        a: &str,
        b: &str,
    ) -> f64 {
        let i = p1.find_by_full_name(s1, a).unwrap().index();
        let j = p2.find_by_full_name(s2, b).unwrap().index();
        m.get(i, j)
    }

    /// Section 4.2's key contrast: "Children will therefore only find a
    /// correspondence between ShipTo and Address, while Leaves can also
    /// identify a correspondence between ShipTo and DeliverTo."
    #[test]
    fn leaves_bridges_the_structural_conflict_children_cannot() {
        let (s1, s2, aux) = (po1(), po2(), aux());

        let (ch, p1, p2) = run(&ChildrenMatcher::new(), &s1, &s2, &aux);
        let ch_address = cell(
            &s1,
            &s2,
            &ch,
            &p1,
            &p2,
            "PO1.ShipTo",
            "PO2.DeliverTo.Address",
        );
        let ch_deliver = cell(&s1, &s2, &ch, &p1, &p2, "PO1.ShipTo", "PO2.DeliverTo");
        assert!(
            ch_address > ch_deliver,
            "Children: Address {ch_address} vs DeliverTo {ch_deliver}"
        );

        let (lv, p1, p2) = run(&LeavesMatcher::new(), &s1, &s2, &aux);
        let lv_deliver = cell(&s1, &s2, &lv, &p1, &p2, "PO1.ShipTo", "PO2.DeliverTo");
        let lv_address = cell(
            &s1,
            &s2,
            &lv,
            &p1,
            &p2,
            "PO1.ShipTo",
            "PO2.DeliverTo.Address",
        );
        // Leaves sees identical leaf sets for DeliverTo and its Address.
        assert!(
            (lv_deliver - lv_address).abs() < 1e-12,
            "Leaves: DeliverTo {lv_deliver} vs Address {lv_address}"
        );
        assert!(lv_deliver > 0.5, "Leaves ShipTo↔DeliverTo: {lv_deliver}");
        assert!(lv_deliver > ch_deliver);
    }

    #[test]
    fn leaf_pairs_fall_back_to_the_leaf_matcher() {
        let (s1, s2, aux) = (po1(), po2(), aux());
        let tn = TypeNameMatcher::new();
        let (tn_m, p1, p2) = run(&tn, &s1, &s2, &aux);
        let (ch, _, _) = run(&ChildrenMatcher::new(), &s1, &s2, &aux);
        let (lv, _, _) = run(&LeavesMatcher::new(), &s1, &s2, &aux);
        let pairs = [
            ("PO1.ShipTo.shipToCity", "PO2.DeliverTo.Address.City"),
            ("PO1.Customer.custName", "PO2.BillTo.Address.Zip"),
        ];
        for (a, b) in pairs {
            let want = cell(&s1, &s2, &tn_m, &p1, &p2, a, b);
            assert!((cell(&s1, &s2, &ch, &p1, &p2, a, b) - want).abs() < 1e-12);
            assert!((cell(&s1, &s2, &lv, &p1, &p2, a, b) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn children_scores_matching_child_sets_high() {
        let (s1, s2, aux) = (po1(), po2(), aux());
        let (ch, p1, p2) = run(&ChildrenMatcher::new(), &s1, &s2, &aux);
        // ShipTo's children (street, city, zip) match Address's children.
        let sim = cell(
            &s1,
            &s2,
            &ch,
            &p1,
            &p2,
            "PO1.ShipTo",
            "PO2.DeliverTo.Address",
        );
        assert!(sim > 0.5, "{sim}");
        // Customer's children (custNo, custName) match Address poorly.
        let bad = cell(
            &s1,
            &s2,
            &ch,
            &p1,
            &p2,
            "PO1.Customer",
            "PO2.DeliverTo.Address",
        );
        assert!(bad < sim, "{bad} vs {sim}");
    }

    /// The `Both`/`Max1` fast path of `set_similarity`
    /// computes exactly what the generic sub-matrix + select + combine
    /// pipeline computes, for Average and Dice alike.
    #[test]
    fn max1_fast_path_matches_the_generic_pipeline() {
        // Pseudo-random but deterministic similarity table over path ids,
        // with plenty of zeros and exact ties to stress the tie-breaking.
        let table = |p: PathId, q: PathId| -> f64 {
            let h = (p.index() * 31 + q.index() * 17) % 13;
            match h {
                0..=4 => 0.0,
                5..=8 => 0.5,
                _ => h as f64 / 13.0,
            }
        };
        let ids: Vec<PathId> = {
            // Borrow real path ids from a small schema.
            let s = po1();
            let ps = PathSet::new(&s).unwrap();
            ps.iter().collect()
        };
        for m in 1..5usize {
            for n in 1..5usize {
                let set1 = &ids[..m];
                let set2 = &ids[ids.len() - n..];
                for combined in [CombinedSim::Average, CombinedSim::Dice] {
                    let config = StructuralConfig {
                        combined,
                        ..StructuralConfig::paper_default()
                    };
                    let fast = config.set_similarity_max1(set1, set2, table);
                    // The generic pipeline, spelled out by hand.
                    let mut sub = SimMatrix::new(m, n);
                    for (a, &p) in set1.iter().enumerate() {
                        for (b, &q) in set2.iter().enumerate() {
                            sub.set(a, b, table(p, q));
                        }
                    }
                    let cands =
                        DirectedCandidates::select(&sub, config.direction, &config.selection);
                    let generic = config.combined.compute(&cands, m, n);
                    assert_eq!(fast, generic, "m={m} n={n} {combined:?}");
                    // And set_similarity_by routes Max1/Both onto the fast
                    // path without changing the value.
                    assert_eq!(config.set_similarity_by(set1, set2, table), generic);
                }
            }
        }
    }

    #[test]
    fn roots_get_a_defined_similarity() {
        let (s1, s2, aux) = (po1(), po2(), aux());
        for matcher in [
            &ChildrenMatcher::new() as &dyn Matcher,
            &LeavesMatcher::new(),
        ] {
            let (m, _, _) = run(matcher, &s1, &s2, &aux);
            let root_sim = m.get(0, 0);
            assert!((0.0..=1.0).contains(&root_sim));
        }
    }
}
