//! Oracle properties of the structural refine kernel. The `Both`/`Max1`
//! set combination must equal the generic pipeline it stands in for (a
//! `SimMatrix` block, `DirectedCandidates::select`, `CombinedSim::compute`)
//! bit for bit. Sparse `Children` and `Leaves` must equal their masked
//! dense output on generated tasks, under the real first-stage mask and
//! random masks, with the default and a custom leaf matcher, and with
//! selections that take the generic path. The `DataType` and `TypeName`
//! table paths must equal `TypeCompatTable::similarity_opt` pair by pair.

use coma::core::combine::{CombinedSim, DirectedCandidates, Direction, Selection};
use coma::core::matchers::datatype::TypeCompatTable;
use coma::core::matchers::hybrid::TypeNameMatcher;
use coma::core::matchers::name_engine::NameEngine;
use coma::core::matchers::simple::{DataTypeMatcher, SimpleNameMatcher};
use coma::core::matchers::structural::{ChildrenMatcher, LeavesMatcher};
use coma::core::{
    plans, Auxiliary, MatchContext, MatchMemo, Matcher, MatcherLibrary, PairMask, PlanEngine,
    SimMatrix, TopKPer,
};
use coma::graph::{DataType, PathSet, Schema};
use coma_bench::workload::{generate_task, SplitMix64, WorkloadShape, WorkloadSpec};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Cell values with zeros and exact ties, or (`palette == 2`) values whose
/// sums round differently in a different order.
fn cell(palette: usize, seed: u64, i: usize, j: usize) -> f64 {
    const TIES: [f64; 6] = [0.0, 0.0, 0.25, 0.5, 0.5, 1.0];
    let h = SplitMix64::new(seed ^ ((i as u64) << 32) ^ j as u64).next_u64();
    match palette {
        0 => TIES[(h % 6) as usize],
        1 => [0.0, 0.5][(h % 2) as usize],
        _ => (h % 10_007) as f64 / 10_007.0,
    }
}

/// The generic steps 2+3 over a materialized `m × n` block.
fn generic(sims: &SimMatrix, combined: CombinedSim) -> f64 {
    let candidates = DirectedCandidates::select(sims, Direction::Both, &Selection::max_n(1));
    combined.compute(&candidates, sims.rows(), sims.cols())
}

/// Set sizes from 0 to 64, small ones a third of the time.
fn size() -> impl Strategy<Value = usize> {
    (0usize..3, 0usize..65).prop_map(|(kind, k)| if kind == 0 { k % 5 } else { k })
}

proptest! {
    /// The `Both`/`Max1` kernel, reached through `NameEngine::combine_by`
    /// on two distinct id lists, equals the generic pipeline.
    #[test]
    fn max1_kernel_matches_the_generic_pipeline(
        m in size(),
        n in size(),
        palette in 0usize..3,
        seed in 0u64..1_000_000_000,
    ) {
        let mut sims = SimMatrix::new(m, n);
        for i in 0..m {
            for j in 0..n {
                sims.set(i, j, cell(palette, seed, i, j));
            }
        }
        let t1: Vec<u32> = (0..m as u32).collect();
        let t2: Vec<u32> = (m as u32..(m + n) as u32).collect();
        for combined in [CombinedSim::Average, CombinedSim::Dice] {
            let engine = NameEngine {
                combined,
                ..NameEngine::paper_default()
            };
            let kernel = engine.combine_by(&t1, &t2, |i, j| sims.get(i, j));
            let reference = generic(&sims, combined);
            prop_assert_eq!(
                kernel.to_bits(),
                reference.to_bits(),
                "{}x{} {:?}: kernel {} generic {}",
                m,
                n,
                combined,
                kernel,
                reference
            );
        }
    }
}

/// One generated task with its path sets.
struct Task {
    label: String,
    source: Schema,
    target: Schema,
    source_paths: PathSet,
    target_paths: PathSet,
}

impl Task {
    fn new(shape: WorkloadShape, nodes: usize, seed: u64) -> Task {
        let spec = WorkloadSpec::new(shape, nodes, seed);
        let (source, target) = generate_task(&spec);
        Task {
            label: spec.label(),
            source_paths: PathSet::new(&source).unwrap(),
            target_paths: PathSet::new(&target).unwrap(),
            source,
            target,
        }
    }

    fn ctx<'a>(&'a self, aux: &'a Auxiliary) -> MatchContext<'a> {
        MatchContext::new(
            &self.source,
            &self.target,
            &self.source_paths,
            &self.target_paths,
            aux,
        )
    }
}

/// Deep, star, wide and catalog tasks of 200 to 600 nodes.
fn tasks() -> Vec<Task> {
    vec![
        Task::new(WorkloadShape::Deep, 200, 11),
        Task::new(WorkloadShape::Star, 300, 12),
        Task::new(WorkloadShape::Wide, 450, 13),
        Task::new(WorkloadShape::Catalog, 600, 14),
    ]
}

/// One 60-node task per shape, for the random-mask property.
fn small_tasks() -> &'static [Task] {
    static TASKS: OnceLock<Vec<Task>> = OnceLock::new();
    TASKS.get_or_init(|| {
        [
            WorkloadShape::Deep,
            WorkloadShape::Star,
            WorkloadShape::Wide,
            WorkloadShape::Catalog,
        ]
        .into_iter()
        .map(|shape| Task::new(shape, 60, 5))
        .collect()
    })
}

/// The mask a `TopK(5)` first stage hands the refine.
fn top_k_mask(ctx: &MatchContext<'_>) -> PairMask {
    let library = MatcherLibrary::standard();
    let plan = plans::liberal_name_stage().top_k(5, TopKPer::Both).unwrap();
    let stage = PlanEngine::new(&library).execute(ctx, &plan).unwrap();
    PairMask::from_result(ctx.rows(), ctx.cols(), &stage.result)
}

/// A mask allowing each cell with probability `per_mille / 1000`.
fn random_mask(rows: usize, cols: usize, seed: u64, per_mille: u64) -> PairMask {
    let mut rng = SplitMix64::new(seed);
    let mut mask = PairMask::new(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            if rng.next_u64() % 1000 < per_mille {
                mask.allow(i, j);
            }
        }
    }
    mask
}

/// `Children` and `Leaves` over a leaf matcher, under the default
/// `Max1`/`Average` and `Dice`, plus (`generic`) the `Max2` and
/// threshold selections that take the generic path.
fn structural_matchers(leaf: &Arc<dyn Matcher>, generic: bool) -> Vec<(String, Arc<dyn Matcher>)> {
    let mut combinations = vec![
        ("Max1", Selection::max_n(1), CombinedSim::Average),
        ("Dice", Selection::max_n(1), CombinedSim::Dice),
    ];
    if generic {
        combinations.push(("Max2", Selection::max_n(2), CombinedSim::Average));
        combinations.push(("Thr", Selection::threshold(0.3), CombinedSim::Average));
    }
    let mut out: Vec<(String, Arc<dyn Matcher>)> = Vec::new();
    for (label, selection, combined) in combinations {
        let children = ChildrenMatcher::with_leaf_matcher(Arc::clone(leaf))
            .with_selection(selection.clone())
            .with_combined(combined);
        let leaves = LeavesMatcher::with_leaf_matcher(Arc::clone(leaf))
            .with_selection(selection)
            .with_combined(combined);
        out.push((format!("Children/{label}"), Arc::new(children)));
        out.push((format!("Leaves/{label}"), Arc::new(leaves)));
    }
    out
}

/// Asserts that `matcher`'s restricted output equals its dense output
/// masked by `mask`, cell by cell.
fn assert_sparse_matches_dense(
    what: &str,
    matcher: &dyn Matcher,
    ctx: &MatchContext<'_>,
    dense: &SimMatrix,
    mask: &PairMask,
) {
    let sparse = matcher.compute(&ctx.with_restriction(mask));
    let masked = mask.masked_clone(dense);
    assert_eq!(sparse.rows(), masked.rows(), "{what}");
    assert_eq!(sparse.cols(), masked.cols(), "{what}");
    for i in 0..masked.rows() {
        for j in 0..masked.cols() {
            let (got, want) = (sparse.get(i, j), masked.get(i, j));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}: cell ({i}, {j}) sparse {got} dense {want}"
            );
        }
    }
}

#[test]
fn structural_sparse_matches_masked_dense_on_generated_tasks() {
    let aux = Auxiliary::standard();
    let type_name: Arc<dyn Matcher> = Arc::new(TypeNameMatcher::new());
    let trigram: Arc<dyn Matcher> = Arc::new(SimpleNameMatcher::ngram(3));
    for task in tasks() {
        // The memo computes each leaf table once per task, as the engine
        // does, and shares it between every dense and sparse compute.
        let memo = MatchMemo::new();
        let ctx = task.ctx(&aux).with_memo(&memo);
        let masks = [
            ("TopK5", top_k_mask(&ctx)),
            ("random2%", random_mask(ctx.rows(), ctx.cols(), 1, 20)),
            ("random20%", random_mask(ctx.rows(), ctx.cols(), 2, 200)),
        ];
        // The generic selections score every cell through a materialized
        // block, so they run on the two mid-sized shapes only.
        let generic = task.label.starts_with("star") || task.label.starts_with("wide");
        for (leaf_label, leaf) in [("TypeName", &type_name), ("Trigram", &trigram)] {
            for (label, matcher) in structural_matchers(leaf, generic) {
                let dense = matcher.compute(&ctx);
                for (mask_label, mask) in &masks {
                    let what = format!("{} {label} over {leaf_label}, {mask_label}", task.label);
                    assert_sparse_matches_dense(&what, matcher.as_ref(), &ctx, &dense, mask);
                }
            }
        }
    }
}

proptest! {
    /// Random masks of any density over one task per shape.
    #[test]
    fn children_sparse_matches_masked_dense_under_random_masks(
        shape in 0usize..4,
        seed in 0u64..1_000_000,
        per_mille in 1u64..600,
    ) {
        let task = &small_tasks()[shape];
        let aux = Auxiliary::standard();
        let ctx = task.ctx(&aux);
        let children = ChildrenMatcher::new();
        let dense = children.compute(&ctx);
        let mask = random_mask(ctx.rows(), ctx.cols(), seed, per_mille);
        assert_sparse_matches_dense(&task.label, &children, &ctx, &dense, &mask);
    }
}

/// A compatibility table whose every type pair, untyped pairs included,
/// has its own value, so a lookup in the wrong cell shows.
fn distinct_compat() -> TypeCompatTable {
    let mut table = TypeCompatTable::empty();
    table.fallback = 0.01;
    table.untyped_pair = 0.97;
    table.typed_untyped = 0.03;
    for (a, &x) in DataType::ALL.iter().enumerate() {
        for (b, &y) in DataType::ALL.iter().enumerate().skip(a + 1) {
            table.set(x, y, (a * 16 + b) as f64 / 256.0);
        }
    }
    table
}

/// Asserts that every cell of `m` (rows `rows` of the task) is
/// `similarity_opt` of its pair's datatypes, clamped like a matrix cell.
fn assert_type_cells(
    what: &str,
    ctx: &MatchContext<'_>,
    m: &SimMatrix,
    rows: std::ops::Range<usize>,
    mask: Option<&PairMask>,
) {
    let datatypes = |schema: &Schema, paths: &PathSet| -> Vec<Option<DataType>> {
        paths
            .iter()
            .map(|p| schema.node(paths.node_of(p)).datatype)
            .collect()
    };
    let source_types = datatypes(ctx.source, ctx.source_paths);
    let target_types = datatypes(ctx.target, ctx.target_paths);
    for (r, i) in rows.enumerate() {
        let a = source_types[i];
        for (j, &b) in target_types.iter().enumerate() {
            let allowed = mask.is_none_or(|mask| mask.allows(i, j));
            let want = if allowed {
                ctx.aux.type_compat.similarity_opt(a, b).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let got = m.get(r, j);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}: cell ({i}, {j}) {a:?} vs {b:?}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn type_table_matches_similarity_opt_per_pair() {
    let mut aux = Auxiliary::standard();
    aux.type_compat = distinct_compat();
    // `TypeName` weighted entirely on datatypes scores exactly the
    // datatype similarity of each pair.
    let matchers: [(&str, Box<dyn Matcher>); 2] = [
        ("DataType", Box::new(DataTypeMatcher)),
        (
            "TypeName",
            Box::new(TypeNameMatcher::with_weights(0.0, 1.0)),
        ),
    ];
    let mut tasks = tasks();
    let corpus = coma::eval::Corpus::load();
    for (i, j) in [(0, 1), (2, 4), (3, 0)] {
        tasks.push(Task {
            label: format!("corpus {i}-{j}"),
            source: corpus.schema(i).clone(),
            target: corpus.schema(j).clone(),
            source_paths: corpus.path_set(i).clone(),
            target_paths: corpus.path_set(j).clone(),
        });
    }
    for task in &tasks {
        let ctx = task.ctx(&aux);
        let mask = random_mask(ctx.rows(), ctx.cols(), 3, 100);
        for (name, matcher) in &matchers {
            let what = format!("{} {name}", task.label);
            assert_type_cells(&what, &ctx, &matcher.compute(&ctx), 0..ctx.rows(), None);
            let half = ctx.rows() / 2;
            let rows = matcher.compute_rows(&ctx, half..ctx.rows());
            assert_type_cells(&what, &ctx, &rows, half..ctx.rows(), None);
            let masked = matcher.compute(&ctx.with_restriction(&mask));
            assert_type_cells(&what, &ctx, &masked, 0..ctx.rows(), Some(&mask));
        }
    }
}
