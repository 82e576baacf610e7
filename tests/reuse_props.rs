//! Property tests for the MatchCompose algebra (paper Section 5.1):
//! composition is insertion-order deterministic, the `ComposeCombine`
//! variants obey their ordering bounds on `[0, 1]`, chains with an empty
//! pivot intersection compose to empty mappings without panicking, and
//! every composed candidate is supported by a pivot path — with exactly
//! the similarity the combine rule assigns to its best support. The
//! `SchemaM`/`SchemaA` reuse matchers (Section 5.2) equal, bit for bit,
//! one Average-aggregated slice per composed pivot pair, on random
//! repositories and on the evaluation corpus.

use coma::core::{
    match_compose, Aggregation, Auxiliary, ComposeCombine, MatchContext, Matcher, SchemaMatcher,
    SimCube, SimMatrix,
};
use coma::eval::experiment::Harness;
use coma::eval::{task_label, TASKS};
use coma::graph::{Node, PathSet, Schema, SchemaBuilder};
use coma::repo::{Mapping, MappingKind, Repository};
use proptest::prelude::*;
use std::collections::HashMap;

const COMBINES: [ComposeCombine; 4] = [
    ComposeCombine::Average,
    ComposeCombine::Multiply,
    ComposeCombine::Min,
    ComposeCombine::Max,
];

/// Raw correspondence triples: (source element, target element,
/// similarity). Element universes are small so joins actually happen.
type Triples = Vec<(usize, usize, f64)>;

/// An `A → B` mapping whose elements are `{prefix}{index}` path names.
fn mapping(source: &str, target: &str, triples: &Triples) -> Mapping {
    let mut m = Mapping::new(source, target, MappingKind::Automatic);
    for &(s, t, sim) in triples {
        m.push(
            format!("{source}.e{s}"),
            format!("{target}.e{t}"),
            // Quantize so equality comparisons below stay meaningful even
            // if a future combine reorders floating-point operations.
            (sim * 64.0).round() / 64.0,
        );
    }
    m
}

/// A deterministic shuffle of `items` driven by `seed`.
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let mut state = seed | 1;
    for i in (1..out.len()).rev() {
        // SplitMix64 step; any well-mixed generator works here.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.swap(i, (z % (i as u64 + 1)) as usize);
    }
    out
}

/// Composed correspondences as a canonically sorted triple list.
fn canonical(m: &Mapping) -> Vec<(String, String, f64)> {
    let mut out: Vec<(String, String, f64)> = m
        .correspondences
        .iter()
        .map(|c| (c.source.clone(), c.target.clone(), c.similarity))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    out
}

proptest! {
    #[test]
    fn compose_ignores_correspondence_insertion_order(
        first in proptest::collection::vec((0usize..5, 0usize..5, 0.0f64..=1.0), 0..14),
        second in proptest::collection::vec((0usize..5, 0usize..5, 0.0f64..=1.0), 0..14),
        seed in 0u64..1_000_000,
    ) {
        for combine in COMBINES {
            let base = match_compose(
                &mapping("A", "B", &first),
                &mapping("B", "C", &second),
                combine,
            );
            let permuted = match_compose(
                &mapping("A", "B", &shuffled(&first, seed)),
                &mapping("B", "C", &shuffled(&second, seed.rotate_left(17))),
                combine,
            );
            prop_assert_eq!(
                canonical(&base),
                canonical(&permuted),
                "{combine:?} composition must not depend on insertion order"
            );
        }
    }

    #[test]
    fn combine_rules_obey_their_bounds(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let mul = ComposeCombine::Multiply.apply(a, b);
        let min = ComposeCombine::Min.apply(a, b);
        let avg = ComposeCombine::Average.apply(a, b);
        let max = ComposeCombine::Max.apply(a, b);
        prop_assert_eq!(min, a.min(b));
        prop_assert_eq!(max, a.max(b));
        prop_assert_eq!(avg, (a + b) / 2.0);
        // On [0, 1]: s1·s2 ≤ min ≤ average ≤ max, all within [0, 1] —
        // the degradation ordering the paper argues from (Section 5.1).
        prop_assert!((0.0..=1.0).contains(&mul));
        prop_assert!(mul <= min + 1e-15);
        prop_assert!(min <= avg && avg <= max);
        prop_assert!((0.0..=1.0).contains(&max));
        // Symmetry: every rule is commutative in its arguments.
        for combine in COMBINES {
            prop_assert_eq!(combine.apply(a, b), combine.apply(b, a));
        }
    }

    #[test]
    fn disjoint_pivot_vocabularies_compose_to_empty(
        first in proptest::collection::vec((0usize..6, 0usize..3, 0.0f64..=1.0), 0..10),
        second in proptest::collection::vec((3usize..6, 0usize..6, 0.0f64..=1.0), 0..10),
    ) {
        // `first` lands in B.e0..e2, `second` departs from B.e3..e5:
        // the natural join over the pivot's elements is provably empty.
        for combine in COMBINES {
            let composed = match_compose(
                &mapping("A", "B", &first),
                &mapping("B", "C", &second),
                combine,
            );
            prop_assert!(composed.is_empty());
            prop_assert_eq!(composed.source_schema.as_str(), "A");
            prop_assert_eq!(composed.target_schema.as_str(), "C");
            // An empty hop anywhere collapses the rest of the chain too.
            let extended = match_compose(&composed, &mapping("C", "D", &first), combine);
            prop_assert!(extended.is_empty());
        }
    }

    #[test]
    fn composed_candidates_are_exactly_the_supported_pairs(
        first in proptest::collection::vec((0usize..4, 0usize..4, 0.0f64..=1.0), 0..12),
        second in proptest::collection::vec((0usize..4, 0usize..4, 0.0f64..=1.0), 0..12),
    ) {
        let m1 = mapping("A", "B", &first);
        let m2 = mapping("B", "C", &second);
        for combine in COMBINES {
            let composed = match_compose(&m1, &m2, combine);
            // Brute-force the join: for each (s, t), the best combined
            // similarity over every pivot element connecting them.
            let mut expected: std::collections::BTreeMap<(String, String), f64> =
                std::collections::BTreeMap::new();
            for c1 in &m1.correspondences {
                for c2 in &m2.correspondences {
                    if c1.target == c2.source {
                        let sim = combine.apply(c1.similarity, c2.similarity);
                        let slot = expected
                            .entry((c1.source.clone(), c2.target.clone()))
                            .or_insert(f64::NEG_INFINITY);
                        *slot = slot.max(sim);
                    }
                }
            }
            let got: std::collections::BTreeMap<(String, String), f64> = composed
                .correspondences
                .iter()
                .map(|c| ((c.source.clone(), c.target.clone()), c.similarity))
                .collect();
            prop_assert_eq!(
                got.len(),
                composed.len(),
                "composition must not emit duplicate (source, target) pairs"
            );
            prop_assert_eq!(
                got,
                expected,
                "{combine:?} candidates must be exactly the pivot-supported pairs"
            );
        }
    }
}

/// A task side or pivot: a root named `name` over the leaves `e0`..`e3`.
fn four_leaf_schema(name: &str) -> Schema {
    let mut b = SchemaBuilder::new(name);
    let root = b.add_node(Node::new(name));
    for k in 0..4 {
        let leaf = b.add_node(Node::new(format!("e{k}")));
        b.add_child(root, leaf).unwrap();
    }
    b.build().unwrap()
}

/// One stored mapping between a pivot and a task side: whether it links
/// the target (else the source), whether it is stored pivot-first, whether
/// it is automatic (else manual), each as 0/1, and its (task element,
/// pivot element, similarity) triples. Task element `e4` names no path.
type Link = (usize, usize, usize, Triples);

/// A repository over the task `S ↔ T` with one pivot `Pk` per entry of
/// `pivots`, plus `P{a} → P{b}` bridges and an optional direct `S → T`
/// result, inserted in an order shuffled by `seed`. A leading `P{n-1} →
/// X` mapping makes the pivots' first appearance differ from their name
/// order.
fn pivot_repository(
    pivots: &[Vec<Link>],
    bridges: &[(usize, usize, f64)],
    direct: bool,
    seed: u64,
) -> Repository {
    let mut stored = Vec::new();
    for (p, links) in pivots.iter().enumerate() {
        let pivot = format!("P{p}");
        let mut first_kind = MappingKind::Manual;
        for (k, (to_target, pivot_first, automatic, triples)) in links.iter().enumerate() {
            // The first two links join the pivot to both task sides in one
            // kind, so every pivot carries a chain.
            let to_target = if k < 2 { k == 1 } else { *to_target == 1 };
            let kind = match (k, automatic) {
                (1, _) => first_kind,
                (_, 0) => MappingKind::Manual,
                _ => MappingKind::Automatic,
            };
            if k == 0 {
                first_kind = kind;
            }
            let task = if to_target { "T" } else { "S" };
            let pivot_first = *pivot_first == 1;
            let mut m = if pivot_first {
                Mapping::new(&pivot, task, kind)
            } else {
                Mapping::new(task, &pivot, kind)
            };
            for &(t, q, sim) in triples {
                let (task_end, pivot_end) = (format!("{task}.e{t}"), format!("{pivot}.e{q}"));
                if pivot_first {
                    m.push(pivot_end, task_end, sim);
                } else {
                    m.push(task_end, pivot_end, sim);
                }
            }
            stored.push(m);
        }
    }
    for &(a, b, sim) in bridges {
        if a != b && a < pivots.len() && b < pivots.len() {
            let mut m = Mapping::new(format!("P{a}"), format!("P{b}"), MappingKind::Manual);
            m.push(format!("P{a}.e0"), format!("P{b}.e0"), sim);
            stored.push(m);
        }
    }
    if direct {
        let mut m = Mapping::new("S", "T", MappingKind::Manual);
        m.push("S.e0", "T.e0", 1.0);
        stored.push(m);
    }
    let mut repo = Repository::new();
    let last = format!("P{}", pivots.len() - 1);
    let mut lead = Mapping::new(&last, "X", MappingKind::Manual);
    lead.push(format!("{last}.e0"), "X.e0", 1.0);
    repo.put_mapping(lead);
    for m in shuffled(&stored, seed) {
        repo.put_mapping(m);
    }
    repo
}

/// SchemaM/SchemaA computed one slice per pivot pair, the oracle for
/// their merged chains: pivots in the order they first appear among the
/// stored mappings (each mapping's source name, then its target name);
/// per pivot, every qualifying `source↔pivot` × `pivot↔target` pair,
/// oriented and MatchComposed into a dense slice of its own; the slices
/// Average-aggregated, a pair missing from a slice counting as 0.
fn slice_per_pivot_pair(
    ctx: &MatchContext<'_>,
    kind: MappingKind,
    combine: ComposeCombine,
) -> SimMatrix {
    let repo = ctx.repository.expect("the oracle reads a repository");
    let (source, target) = (ctx.source.name(), ctx.target.name());
    let mut pivots: Vec<&str> = Vec::new();
    for m in repo.mappings() {
        for name in [m.source_schema.as_str(), m.target_schema.as_str()] {
            if name != source && name != target && !pivots.contains(&name) {
                pivots.push(name);
            }
        }
    }
    let oriented = |from: &str, to: &str| -> Vec<Mapping> {
        repo.mappings()
            .iter()
            .filter(|m| m.kind == kind)
            .filter_map(|m| {
                if m.source_schema == from && m.target_schema == to {
                    Some(m.clone())
                } else if m.source_schema == to && m.target_schema == from {
                    Some(m.reversed())
                } else {
                    None
                }
            })
            .collect()
    };
    let (rows, cols) = (ctx.rows(), ctx.cols());
    let row_of: HashMap<String, usize> = (0..rows).map(|i| (ctx.source_full_name(i), i)).collect();
    let col_of: HashMap<String, usize> = (0..cols).map(|j| (ctx.target_full_name(j), j)).collect();
    let mut cube = SimCube::new();
    for pivot in pivots {
        for first in oriented(source, pivot) {
            for second in oriented(pivot, target) {
                let mut slice = SimMatrix::new(rows, cols);
                for c in &match_compose(&first, &second, combine).correspondences {
                    if let (Some(&i), Some(&j)) = (row_of.get(&c.source), col_of.get(&c.target)) {
                        if c.similarity > slice.get(i, j) {
                            slice.set(i, j, c.similarity);
                        }
                    }
                }
                cube.push(format!("compose-{}", cube.len()), slice);
            }
        }
    }
    if cube.is_empty() {
        return SimMatrix::new(rows, cols);
    }
    Aggregation::Average.aggregate(&cube)
}

/// The first cell in which SchemaM or SchemaA, under any
/// `ComposeCombine`, differs from the oracle in any bit.
fn first_difference(ctx: &MatchContext<'_>) -> Option<String> {
    for combine in COMBINES {
        for (kind, mut matcher) in [
            (MappingKind::Manual, SchemaMatcher::manual()),
            (MappingKind::Automatic, SchemaMatcher::automatic()),
        ] {
            matcher.compose = combine;
            let got = matcher.compute(ctx);
            let want = slice_per_pivot_pair(ctx, kind, combine);
            for i in 0..ctx.rows() {
                for j in 0..ctx.cols() {
                    let (g, w) = (got.get(i, j), want.get(i, j));
                    if g.to_bits() != w.to_bits() {
                        return Some(format!(
                            "{} {combine:?} cell ({i}, {j}): {g:e}, oracle {w:e}",
                            matcher.name()
                        ));
                    }
                }
            }
        }
    }
    None
}

proptest! {
    #[test]
    fn schema_reuse_equals_one_slice_per_pivot_pair(
        pivots in proptest::collection::vec(
            proptest::collection::vec(
                (
                    0usize..2,
                    0usize..2,
                    0usize..2,
                    proptest::collection::vec((0usize..5, 0usize..3, 0.0f64..=1.0), 0..5),
                ),
                2..6,
            ),
            3..7,
        ),
        bridges in proptest::collection::vec((0usize..7, 0usize..7, 0.0f64..=1.0), 0..4),
        direct in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let repo = pivot_repository(&pivots, &bridges, direct == 1, seed);
        let (source, target) = (four_leaf_schema("S"), four_leaf_schema("T"));
        let (source_paths, target_paths) =
            (PathSet::new(&source).unwrap(), PathSet::new(&target).unwrap());
        let aux = Auxiliary::standard();
        let ctx = MatchContext::new(&source, &target, &source_paths, &target_paths, &aux)
            .with_repository(&repo);
        let difference = first_difference(&ctx);
        prop_assert!(difference.is_none(), "{}", difference.unwrap_or_default());
    }
}

/// The same oracle on the evaluation corpus: SchemaM and SchemaA over the
/// harness repository (the gold mappings and the default operation's
/// results) on all ten tasks.
#[test]
fn schema_reuse_equals_one_slice_per_pivot_pair_on_the_corpus() {
    let harness = Harness::new();
    let corpus = harness.corpus();
    for &(i, j) in &TASKS {
        let ctx = MatchContext::new(
            corpus.schema(i),
            corpus.schema(j),
            corpus.path_set(i),
            corpus.path_set(j),
            corpus.aux(),
        )
        .with_repository(harness.repository());
        assert!(
            SchemaMatcher::automatic()
                .compute(&ctx)
                .values()
                .iter()
                .any(|&v| v > 0.0),
            "{}: SchemaA reuses nothing",
            task_label((i, j))
        );
        if let Some(difference) = first_difference(&ctx) {
            panic!("{}: {difference}", task_label((i, j)));
        }
    }
}
