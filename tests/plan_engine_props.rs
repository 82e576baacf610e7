//! Property tests for the plan engine: for any flat matcher list and any
//! combination strategy, the engine's execution of the equivalent
//! one-stage plan is bit-identical to the legacy sequential pipeline,
//! `Par` leaf order never changes results (determinism under
//! parallelism), `TopK` only ever narrows its input, sparse and dense
//! execution of a masked plan agree bit for bit, sparse (CSR) *storage*
//! is value-identical to dense storage through aggregation, selection and
//! whole-plan execution, `Iterate` terminates within its round budget,
//! and the `CandidateIndex` leaf is a recall-preserving prefilter: its
//! uncapped candidate set covers every positive-threshold `Name`
//! selection, identically across execution configurations. On a
//! generated task large enough that the row-shard workers' per-column
//! pools fold, the fused prune (in key space over a `Name` leaf,
//! row-sharded over a `TypeName` leaf) still equals the unfused one and a
//! capped index keeps exactly each element's best candidates.

use coma::core::plans::liberal_name_stage;
use coma::core::{
    shard_ranges, Aggregation, Coma, CombinationStrategy, CombinedSim, DirectedCandidates,
    Direction, EngineConfig, MatchContext, MatchPlan, PairMask, PlanEngine, Selection, SimCube,
    SimMatrix, TopKPer,
};
use coma::graph::{PathSet, Schema};
use coma_bench::workload::{generate_task, WorkloadShape, WorkloadSpec};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

/// The matcher pool property cases draw subsets from: the five hybrids
/// plus three simple matchers.
const POOL: [&str; 8] = [
    "Name", "NamePath", "TypeName", "Children", "Leaves", "Trigram", "DataType", "Synonym",
];

/// The row-shardable matchers — the ones the streaming-fused pruning
/// path can execute shard by shard.
const SHARDABLE: [&str; 5] = ["Name", "NamePath", "TypeName", "Leaves", "DataType"];

struct Fixture {
    coma: Coma,
    source: Schema,
    target: Schema,
    source_paths: PathSet,
    target_paths: PathSet,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let source = coma::sql::import_ddl(
            "CREATE TABLE PO1.ShipTo (
                 poNo INT,
                 custNo INT REFERENCES PO1.Customer,
                 shipToStreet VARCHAR(200), shipToCity VARCHAR(200), shipToZip VARCHAR(20),
                 PRIMARY KEY (poNo));
             CREATE TABLE PO1.Customer (
                 custNo INT, custName VARCHAR(200), custStreet VARCHAR(200),
                 custCity VARCHAR(200), custZip VARCHAR(20),
                 PRIMARY KEY (custNo));",
            "PO1",
        )
        .unwrap();
        let target = coma::xml::import_xsd(
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
        .unwrap();
        let mut coma = Coma::new();
        coma.aux_mut().synonyms = coma::core::matchers::synonym::SynonymTable::purchase_order();
        let source_paths = PathSet::new(&source).unwrap();
        let target_paths = PathSet::new(&target).unwrap();
        Fixture {
            coma,
            source,
            target,
            source_paths,
            target_paths,
        }
    })
}

/// Decodes a non-zero bitmask into a matcher subset.
fn subset(mask: usize) -> Vec<String> {
    POOL.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, name)| name.to_string())
        .collect()
}

/// Decodes the generated knobs into a combination strategy. `k` is the
/// slice count (for Weighted aggregation's per-slice weights).
#[allow(clippy::too_many_arguments)]
fn combination(
    k: usize,
    agg: usize,
    dir: usize,
    max_n: usize,
    flags: usize,
    delta: f64,
    threshold: f64,
    comb: usize,
) -> CombinationStrategy {
    CombinationStrategy {
        aggregation: match agg {
            0 => Aggregation::Max,
            1 => Aggregation::Min,
            2 => Aggregation::Average,
            _ => Aggregation::Weighted((1..=k).map(|w| w as f64).collect()),
        },
        direction: match dir {
            0 => Direction::LargeSmall,
            1 => Direction::SmallLarge,
            _ => Direction::Both,
        },
        selection: Selection {
            max_n: (max_n > 0).then_some(max_n),
            delta: (flags & 1 != 0).then_some(delta),
            threshold: (flags & 2 != 0).then_some(threshold),
        },
        combined_sim: if comb == 0 {
            CombinedSim::Average
        } else {
            CombinedSim::Dice
        },
    }
}

proptest! {
    /// Engine execution of `MatchPlan::from(strategy)` is bit-identical to
    /// the legacy sequential pipeline — combined result and cube alike.
    #[test]
    fn flat_plans_reproduce_the_legacy_pipeline(
        mask in 1usize..256,
        agg in 0usize..4,
        dir in 0usize..3,
        sel in (0usize..5, 0usize..4, 0.001f64..0.2, 0.05f64..0.9),
        comb in 0usize..2,
    ) {
        let f = fixture();
        let names = subset(mask);
        let (max_n, flags, delta, threshold) = sel;
        let strategy = combination(names.len(), agg, dir, max_n, flags, delta, threshold, comb);
        let ctx = MatchContext::new(
            &f.source,
            &f.target,
            &f.source_paths,
            &f.target_paths,
            f.coma.aux(),
        )
        .with_repository(f.coma.repository());

        let legacy_cube = f.coma.execute_matchers(&ctx, &names).unwrap();
        let legacy_result = f.coma.combine_cube(&legacy_cube, &ctx, &strategy);

        let plan = MatchPlan::matchers_with(names, strategy);
        let outcome = PlanEngine::new(f.coma.library()).execute(&ctx, &plan).unwrap();

        prop_assert_eq!(&outcome.result, &legacy_result);
        prop_assert_eq!(outcome.final_cube().unwrap(), &legacy_cube);
    }

    /// `Par` sub-plan order never changes the aggregate result, and
    /// repeated executions are deterministic.
    #[test]
    fn par_leaf_order_is_irrelevant(
        mask in 1usize..256,
        agg in 0usize..3,
        dir in 0usize..3,
    ) {
        let f = fixture();
        let names = subset(mask);
        let strategy = combination(names.len(), agg, dir, 1, 2, 0.02, 0.3, 0);
        let ctx = MatchContext::new(
            &f.source,
            &f.target,
            &f.source_paths,
            &f.target_paths,
            f.coma.aux(),
        );

        let forward: Vec<MatchPlan> =
            names.iter().map(|n| MatchPlan::matchers([n.as_str()])).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let engine = PlanEngine::new(f.coma.library());

        let fwd = engine
            .execute(&ctx, &MatchPlan::par(forward, strategy.clone()))
            .unwrap();
        let rev = engine
            .execute(&ctx, &MatchPlan::par(reversed, strategy.clone()))
            .unwrap();
        prop_assert_eq!(&fwd.result, &rev.result);
        prop_assert_eq!(fwd.final_cube(), rev.final_cube());

        // Determinism: a re-run of the same plan is bit-identical.
        let again = engine
            .execute(&ctx, &MatchPlan::par(
                names.iter().map(|n| MatchPlan::matchers([n.as_str()])).collect::<Vec<_>>(),
                strategy,
            ))
            .unwrap();
        prop_assert_eq!(&fwd.result, &again.result);
    }

    /// `TopK` only ever narrows: its selected pairs are a subset of its
    /// input's nonzero cells, and under `Row`/`Col` pruning no element
    /// keeps more than k candidates.
    #[test]
    fn topk_output_is_a_subset_of_its_input(
        mask in 1usize..256,
        k in 1usize..5,
        per in 0usize..3,
    ) {
        let f = fixture();
        let names = subset(mask);
        let per = [TopKPer::Row, TopKPer::Col, TopKPer::Both][per];
        let mut liberal = CombinationStrategy::paper_default();
        liberal.selection = Selection::max_n(6).with_threshold(0.1);
        let input = MatchPlan::matchers_with(names.iter().map(String::as_str), liberal);
        let plan = input.clone().top_k(k, per).unwrap();
        let ctx = MatchContext::new(
            &f.source,
            &f.target,
            &f.source_paths,
            &f.target_paths,
            f.coma.aux(),
        );

        let engine = PlanEngine::new(f.coma.library());
        let outcome = engine.execute(&ctx, &plan).unwrap();
        // Whether or not the engine fused the TopK with its Matchers
        // input (it does when every matcher is row-shardable), the TopK
        // stage is the last one. The input's standalone result is
        // recovered by executing the input plan on its own — execution
        // is deterministic, so it matches what TopK consumed.
        let topk_stage = outcome.stages.last().unwrap();
        let input_result = engine.execute(&ctx, &input).unwrap().result;

        // Subset of the input's selected (nonzero) pairs, values intact.
        for cand in &topk_stage.result.candidates {
            let kept = input_result.candidates.iter().find(|c| {
                c.source == cand.source && c.target == cand.target
            });
            prop_assert!(kept.is_some(), "TopK invented a pair");
            prop_assert_eq!(kept.unwrap().similarity, cand.similarity);
        }
        // The TopK stage's matrix slice has no cell outside the input's.
        for (i, j, v) in topk_stage.cube.slice(0).nonzero() {
            let source = ctx.source_elem(i);
            let target = ctx.target_elem(j);
            prop_assert_eq!(input_result.similarity_of(source, target), Some(v));
        }
        // Per-element budgets hold for the directional variants.
        if per == TopKPer::Row {
            for i in 0..ctx.rows() {
                let n = topk_stage.result.candidates.iter()
                    .filter(|c| c.source.index() == i).count();
                prop_assert!(n <= k, "row {i} kept {n} > k = {k}");
            }
        }
        if per == TopKPer::Col {
            for j in 0..ctx.cols() {
                let n = topk_stage.result.candidates.iter()
                    .filter(|c| c.target.index() == j).count();
                prop_assert!(n <= k, "col {j} kept {n} > k = {k}");
            }
        }
    }

    /// Aggregation and directed selection are storage-agnostic: running
    /// them over a cube whose slices were converted to sparse (CSR)
    /// storage yields exactly the dense results — per cell and per
    /// selected candidate — for every aggregation, direction and
    /// selection.
    #[test]
    fn aggregation_and_selection_agree_across_storages(
        mask in 1usize..256,
        agg in 0usize..4,
        dir in 0usize..3,
        sel in (0usize..5, 0usize..4, 0.001f64..0.2, 0.05f64..0.9),
    ) {
        let f = fixture();
        let names = subset(mask);
        let (max_n, flags, delta, threshold) = sel;
        let strategy = combination(names.len(), agg, dir, max_n, flags, delta, threshold, 0);
        let ctx = MatchContext::new(
            &f.source,
            &f.target,
            &f.source_paths,
            &f.target_paths,
            f.coma.aux(),
        );

        let dense_cube = f.coma.execute_matchers(&ctx, &names).unwrap();
        let mut sparse_cube = SimCube::new();
        for (k, name) in dense_cube.matcher_names().iter().enumerate() {
            sparse_cube.push(name.clone(), dense_cube.slice(k).to_sparse());
        }
        prop_assert!(sparse_cube.all_sparse());
        prop_assert_eq!(&sparse_cube, &dense_cube); // equality is by value

        let dense_agg = strategy.aggregation.aggregate(&dense_cube);
        let sparse_agg = strategy.aggregation.aggregate(&sparse_cube);
        prop_assert!(sparse_agg.is_sparse());
        prop_assert_eq!(&sparse_agg, &dense_agg);
        prop_assert_eq!(sparse_agg.to_dense(), dense_agg.clone());

        let dense_sel =
            DirectedCandidates::select(&dense_agg, strategy.direction, &strategy.selection);
        let sparse_sel =
            DirectedCandidates::select(&sparse_agg, strategy.direction, &strategy.selection);
        prop_assert_eq!(dense_sel.pairs(), sparse_sel.pairs());
        prop_assert_eq!(dense_sel, sparse_sel);
    }

    /// Sparse and dense execution of the same masked plan are
    /// bit-identical — results and every stage cube.
    #[test]
    fn sparse_and_dense_masked_plans_agree(
        mask in 1usize..256,
        k in 1usize..5,
        filter_max in 1usize..6,
    ) {
        let f = fixture();
        let names = subset(mask);
        let mut liberal = CombinationStrategy::paper_default();
        liberal.selection = Selection::max_n(filter_max).with_threshold(0.2);
        let plan = MatchPlan::seq(
            MatchPlan::matchers_with(["Name"], liberal)
                .top_k(k, TopKPer::Both)
                .unwrap(),
            MatchPlan::matchers(names.iter().map(String::as_str)),
        );
        let ctx = MatchContext::new(
            &f.source,
            &f.target,
            &f.source_paths,
            &f.target_paths,
            f.coma.aux(),
        )
        .with_repository(f.coma.repository());

        // Fusion is disabled on the sparse run so both runs materialize
        // the same stage sequence; fused ≡ unfused equivalence has its
        // own property below.
        let sparse = PlanEngine::with_config(
            f.coma.library(),
            EngineConfig::default().with_fuse_pruning(false),
        )
        .execute(&ctx, &plan)
        .unwrap();
        let dense = PlanEngine::with_config(
            f.coma.library(),
            EngineConfig::default().with_sparse(false),
        )
        .execute(&ctx, &plan)
        .unwrap();
        prop_assert_eq!(&sparse.result, &dense.result);
        prop_assert_eq!(sparse.stages.len(), dense.stages.len());
        for (a, b) in sparse.stages.iter().zip(&dense.stages) {
            prop_assert_eq!(&a.label, &b.label);
            prop_assert_eq!(&a.cube, &b.cube);
            prop_assert_eq!(&a.result, &b.result);
        }
    }

    /// Row-sharded execution is bit-identical to unsharded execution for
    /// any matcher subset, plan shape and shard count — per stage cube,
    /// per stage result, and for the final result. Shard counts cover the
    /// boundary cases the partition must survive: 1 (explicit unsharded),
    /// 2 and 7 (uneven `rows % shards`), and `rows + 1` (more shards than
    /// rows, clamped with no zero-row shard).
    #[test]
    fn sharded_execution_equals_unsharded(
        mask in 1usize..256,
        k in 1usize..5,
        shard_sel in 0usize..4,
    ) {
        let f = fixture();
        let names = subset(mask);
        let mut liberal = CombinationStrategy::paper_default();
        liberal.selection = Selection::max_n(4).with_threshold(0.2);
        let plan = MatchPlan::seq(
            MatchPlan::matchers_with(names.iter().map(String::as_str), liberal)
                .top_k(k, TopKPer::Both)
                .unwrap(),
            MatchPlan::matchers(names.iter().map(String::as_str)),
        );
        let ctx = MatchContext::new(
            &f.source,
            &f.target,
            &f.source_paths,
            &f.target_paths,
            f.coma.aux(),
        )
        .with_repository(f.coma.repository());
        let shards = [1, 2, 7, ctx.rows() + 1][shard_sel];

        let unsharded = PlanEngine::with_config(
            f.coma.library(),
            EngineConfig::default().with_shards(1),
        )
        .execute(&ctx, &plan)
        .unwrap();
        let sharded = PlanEngine::with_config(
            f.coma.library(),
            EngineConfig::default().with_shards(shards),
        )
        .execute(&ctx, &plan)
        .unwrap();
        prop_assert_eq!(&sharded.result, &unsharded.result);
        prop_assert_eq!(sharded.stages.len(), unsharded.stages.len());
        for (a, b) in sharded.stages.iter().zip(&unsharded.stages) {
            prop_assert_eq!(&a.label, &b.label);
            prop_assert_eq!(&a.cube, &b.cube);
            prop_assert_eq!(&a.result, &b.result);
        }
    }

    /// Streaming-fused pruning is bit-identical to unfused execution:
    /// for any subset of row-shardable matchers, any shard count
    /// (including more shards than rows), all three `TopKPer` modes and
    /// threshold filters (with and without a `max_n` cap), the fused
    /// compute→prune pipeline produces exactly the unfused prune stage —
    /// same final result, same stage result, same stage cube — while
    /// never materializing the inner Matchers stage.
    #[test]
    fn fused_pruning_matches_unfused(
        mask in 1usize..32,
        k in 1usize..5,
        per in 0usize..3,
        shard_sel in 0usize..4,
        dir in 0usize..3,
        prune in (0usize..3, 0.05f64..0.9),
    ) {
        let f = fixture();
        let names: Vec<String> = SHARDABLE
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, n)| n.to_string())
            .collect();
        let direction = [Direction::LargeSmall, Direction::SmallLarge, Direction::Both][dir];
        let mut liberal = CombinationStrategy::paper_default();
        liberal.selection = Selection::max_n(6).with_threshold(0.1);
        liberal.direction = direction;
        let inner = MatchPlan::matchers_with(names.iter().map(String::as_str), liberal);
        let (prune_kind, threshold) = prune;
        let plan = match prune_kind {
            0 => inner.top_k(k, [TopKPer::Row, TopKPer::Col, TopKPer::Both][per]).unwrap(),
            1 => inner.filtered(direction, Selection::max_n(k).with_threshold(threshold)),
            // Pure threshold: the fused per-column pools are unbounded.
            _ => inner.filtered(direction, Selection::threshold(threshold)),
        };
        let ctx = MatchContext::new(
            &f.source,
            &f.target,
            &f.source_paths,
            &f.target_paths,
            f.coma.aux(),
        );
        let shards = [1, 2, 7, ctx.rows() + 1][shard_sel];

        let fused = PlanEngine::with_config(
            f.coma.library(),
            EngineConfig::default().with_shards(shards),
        )
        .execute(&ctx, &plan)
        .unwrap();
        let unfused = PlanEngine::with_config(
            f.coma.library(),
            EngineConfig::default().with_fuse_pruning(false).with_shards(shards),
        )
        .execute(&ctx, &plan)
        .unwrap();

        // The fused run skipped the inner Matchers stage entirely.
        prop_assert_eq!(fused.stages.len(), 1);
        prop_assert!(fused.stages[0].fused);
        prop_assert_eq!(unfused.stages.len(), 2);
        prop_assert!(unfused.stages.iter().all(|s| !s.fused));

        prop_assert_eq!(&fused.result, &unfused.result);
        let fused_stage = &fused.stages[0];
        let unfused_stage = unfused.stages.last().unwrap();
        prop_assert_eq!(&fused_stage.label, &unfused_stage.label);
        prop_assert_eq!(&fused_stage.result, &unfused_stage.result);
        prop_assert_eq!(&fused_stage.cube, &unfused_stage.cube);
    }

    /// The inverted-index leaf is a recall-preserving prefilter (the
    /// guarantee `engine::index` documents): with `min_shared_tokens = 1`,
    /// `min_score = 0` and no per-element cap, `CandidateIndex`'s pairs
    /// are a superset of the exact `Name` Matchers stage's selection at
    /// *any* positive threshold and max-n budget — the paper-default
    /// `Name` scores a pair above zero only via a shared trigram or a
    /// dictionary-related token, and the index's gram and
    /// synonym-expanded token postings cover both channels. The leaf is
    /// also deterministic across execution configurations: sharded,
    /// parallel-off and dense-storage runs reproduce the default run bit
    /// for bit.
    #[test]
    fn candidate_index_covers_positive_name_selections(
        max_n in 1usize..8,
        threshold in 0.05f64..0.9,
        shard_sel in 0usize..4,
    ) {
        let f = fixture();
        let mut exact = CombinationStrategy::paper_default();
        exact.selection = Selection::max_n(max_n).with_threshold(threshold);
        let exact_plan = MatchPlan::matchers_with(["Name"], exact);
        let cidx_plan = MatchPlan::candidate_index_with(1, 0.0, 3, None).unwrap();
        let ctx = MatchContext::new(
            &f.source,
            &f.target,
            &f.source_paths,
            &f.target_paths,
            f.coma.aux(),
        );
        let engine = PlanEngine::new(f.coma.library());

        let selected = engine.execute(&ctx, &exact_plan).unwrap().result;
        let candidates = engine.execute(&ctx, &cidx_plan).unwrap();
        for cand in &selected.candidates {
            prop_assert!(
                candidates.result.candidates.iter().any(|c| {
                    c.source == cand.source && c.target == cand.target
                }),
                "CandidateIndex missed {:?} -> {:?} (Name sim {}, threshold {})",
                cand.source, cand.target, cand.similarity, threshold
            );
        }

        // Determinism across configurations.
        let shards = [1, 2, 7, ctx.rows() + 1][shard_sel];
        for cfg in [
            EngineConfig::default().with_shards(shards),
            EngineConfig::default().with_parallel(false),
            EngineConfig::default().with_sparse(false),
        ] {
            let again = PlanEngine::with_config(f.coma.library(), cfg)
                .execute(&ctx, &cidx_plan)
                .unwrap();
            prop_assert_eq!(&again.result, &candidates.result);
        }
    }

    /// `Iterate` always terminates within `max_rounds`, whatever the
    /// sub-plan and tolerance.
    #[test]
    fn iterate_terminates_within_max_rounds(
        mask in 1usize..256,
        max_rounds in 1usize..5,
        eps_exp in 0i32..9,
    ) {
        let f = fixture();
        let names = subset(mask);
        let epsilon = 10f64.powi(-eps_exp);
        let sub = MatchPlan::matchers(names.iter().map(String::as_str));
        let plan = sub.clone().iterate(max_rounds, epsilon).unwrap();
        let ctx = MatchContext::new(
            &f.source,
            &f.target,
            &f.source_paths,
            &f.target_paths,
            f.coma.aux(),
        );

        let outcome = PlanEngine::new(f.coma.library()).execute(&ctx, &plan).unwrap();
        let rounds = outcome.stages.iter().filter(|s| s.label == sub.label()).count();
        prop_assert!(
            (1..=max_rounds).contains(&rounds),
            "{} rounds for max {}", rounds, max_rounds
        );
        // The Iterate node contributes exactly one closing stage.
        prop_assert_eq!(outcome.stages.len(), rounds + 1);
        prop_assert_eq!(
            &outcome.stages.last().unwrap().result.candidates,
            &outcome.result.candidates
        );
    }
}

/// The storage decision is observable end to end: a `TopK(1)`-pruned mask
/// is far below the density cutoff, so the sparse engine stores the `TopK`
/// and refine stage cubes in CSR while the `with_sparse(false)` engine
/// keeps every stage dense — and both report identical values anyway. On
/// the sparse path the `TopK` additionally fuses with its `Name` input,
/// so the inner Matchers stage is never materialized at all.
#[test]
fn pruned_stages_engage_sparse_storage() {
    let f = fixture();
    let ctx = MatchContext::new(
        &f.source,
        &f.target,
        &f.source_paths,
        &f.target_paths,
        f.coma.aux(),
    );
    let mut liberal = CombinationStrategy::paper_default();
    liberal.selection = Selection::max_n(4).with_threshold(0.2);
    let plan = MatchPlan::seq(
        MatchPlan::matchers_with(["Name"], liberal)
            .top_k(1, TopKPer::Both)
            .unwrap(),
        MatchPlan::matchers(["Name", "TypeName", "Children", "Leaves"]),
    );

    let sparse = PlanEngine::new(f.coma.library())
        .execute(&ctx, &plan)
        .unwrap();
    let dense =
        PlanEngine::with_config(f.coma.library(), EngineConfig::default().with_sparse(false))
            .execute(&ctx, &plan)
            .unwrap();

    // The sparse run fuses compute→prune, so only the TopK and refine
    // stages exist — and both are CSR-stored. The dense run neither
    // fuses nor stores sparse: three stages, all dense.
    assert_eq!(sparse.stages.len(), 2);
    assert!(sparse.stages[0].fused);
    assert!(
        sparse.stages[0].cube.all_sparse(),
        "TopK stage should store sparse, got {}",
        sparse.stages[0].cube.storage_summary()
    );
    assert!(
        sparse.stages[1].cube.all_sparse(),
        "refine stage should store sparse, got {}",
        sparse.stages[1].cube.storage_summary()
    );
    assert_eq!(dense.stages.len(), 3);
    for stage in &dense.stages {
        assert_eq!(stage.cube.storage_summary(), "dense");
        assert!(!stage.fused);
    }
    // Sparse storage holds a fraction of the cells yet equal values,
    // stage for stage (matched by label across the differing counts).
    let (s, d) = (&sparse.stages[1].cube, &dense.stages[2].cube);
    assert_eq!(sparse.stages[1].label, dense.stages[2].label);
    assert_eq!(sparse.stages[0].label, dense.stages[1].label);
    assert_eq!(sparse.stages[0].cube, dense.stages[1].cube);
    assert!(s.stored_entries() * 2 < d.stored_entries());
    assert_eq!(s, d);
    assert_eq!(sparse.result, dense.result);
}

/// Fused pruning survives degenerate `0 × n`, `m × 0` and `0 × 0` match
/// tasks: the fused stage still reports `fused`, yields an empty result
/// and stores no cells.
#[test]
fn fused_pruning_handles_empty_tasks() {
    let f = fixture();
    let none = PathSet::empty();
    let plans = [
        MatchPlan::matchers(["Name", "Leaves"])
            .top_k(2, TopKPer::Both)
            .unwrap(),
        MatchPlan::matchers(["Name"]).filtered(Direction::Both, Selection::threshold(0.3)),
    ];
    let contexts = [
        MatchContext::new(&f.source, &f.target, &none, &f.target_paths, f.coma.aux()),
        MatchContext::new(&f.source, &f.target, &f.source_paths, &none, f.coma.aux()),
        MatchContext::new(&f.source, &f.target, &none, &none, f.coma.aux()),
    ];
    for (which, ctx) in contexts.iter().enumerate() {
        for plan in &plans {
            let outcome = PlanEngine::new(f.coma.library())
                .execute(ctx, plan)
                .unwrap_or_else(|e| panic!("task {which} failed: {e}"));
            assert_eq!(outcome.stages.len(), 1, "task {which}");
            assert!(outcome.stages[0].fused, "task {which} did not fuse");
            assert!(outcome.result.is_empty(), "task {which}");
            assert_eq!(outcome.stages[0].cube.stored_entries(), 0);
        }
    }
}

/// A generated `catalog300` task (300 × 297 paths): large enough that a
/// column's pool reaches its fold size inside one row shard.
struct Generated {
    coma: Coma,
    source: Schema,
    target: Schema,
    source_paths: PathSet,
    target_paths: PathSet,
}

fn generated() -> &'static Generated {
    static G: OnceLock<Generated> = OnceLock::new();
    G.get_or_init(|| {
        let spec = WorkloadSpec::new(WorkloadShape::Catalog, 300, 3);
        let (source, target) = generate_task(&spec);
        Generated {
            coma: Coma::new(),
            source_paths: PathSet::new(&source).unwrap(),
            target_paths: PathSet::new(&target).unwrap(),
            source,
            target,
        }
    })
}

/// The row spans inside which a worker pools cells at `shards` forced
/// row shards: each shard, while shards hold several rows. Beyond `rows`
/// shards every shard is one row, so a pool can only fill across the
/// shards one worker runs in turn: one contiguous chunk per worker.
fn fold_spans(rows: usize, shards: usize) -> Vec<Range<usize>> {
    let ranges = shard_ranges(rows, shards);
    if shards <= rows {
        return ranges;
    }
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
    let chunk = ranges.len().div_ceil(workers.min(ranges.len()));
    ranges
        .chunks(chunk)
        .map(|c| c[0].start..c[c.len() - 1].end)
        .collect()
}

/// The most cells above `floor` one column of `matrix` holds inside one
/// of `spans`.
fn fullest_column(matrix: &SimMatrix, floor: f64, spans: &[Range<usize>]) -> usize {
    let in_span =
        |span: &Range<usize>, j: usize| span.clone().filter(|&i| matrix.get(i, j) > floor).count();
    spans
        .iter()
        .flat_map(|span| (0..matrix.cols()).map(move |j| in_span(span, j)))
        .max()
        .unwrap_or(0)
}

/// The fused prune over a liberal one-matcher leaf equals the unfused
/// one — result, stage result and stage cube — for `TopK` in every
/// `TopKPer` mode and for capped and uncapped threshold filters, at every
/// shard count, on a generated task. Over the `Name` leaf the stage
/// selects in key space; over the `TypeName` leaf (keyed by name and
/// datatype, so not name-keyed) it runs the row-sharded pipeline, whose
/// per-column pools fold here: some column holds at least
/// `max(4 · 10, 16)` cells above the leaf's 0.3 threshold inside the rows
/// one worker pools.
#[test]
fn fused_pruning_matches_unfused_through_column_folds() {
    let g = generated();
    let ctx = MatchContext::new(
        &g.source,
        &g.target,
        &g.source_paths,
        &g.target_paths,
        g.coma.aux(),
    );
    let liberal_type_name = {
        let mut liberal = CombinationStrategy::paper_default();
        liberal.selection = Selection::max_n(10).with_threshold(0.3);
        MatchPlan::matchers_with(["TypeName"], liberal)
    };
    for (leaf, keyed) in [(liberal_name_stage(), true), (liberal_type_name, false)] {
        let prunes = [
            leaf.clone().top_k(1, TopKPer::Row).unwrap(),
            leaf.clone().top_k(3, TopKPer::Col).unwrap(),
            leaf.clone().top_k(2, TopKPer::Both).unwrap(),
            leaf.clone()
                .filtered(Direction::Both, Selection::max_n(3).with_threshold(0.4)),
            leaf.clone()
                .filtered(Direction::Both, Selection::threshold(0.6)),
        ];
        for shards in [1, 2, 7, ctx.rows() + 1] {
            let fused_cfg = EngineConfig::default().with_shards(shards);
            let unfused_cfg = fused_cfg.clone().with_fuse_pruning(false);
            for plan in &prunes {
                let case = format!("{} at {shards} shards", plan.label());
                let fused = PlanEngine::with_config(g.coma.library(), fused_cfg.clone())
                    .execute(&ctx, plan)
                    .unwrap();
                let unfused = PlanEngine::with_config(g.coma.library(), unfused_cfg.clone())
                    .execute(&ctx, plan)
                    .unwrap();
                assert_eq!(fused.stages.len(), 1, "{case}");
                assert!(fused.stages[0].fused, "{case}");
                assert_eq!(fused.stages[0].key_space.is_some(), keyed, "{case}");
                assert_eq!(fused.result, unfused.result, "{case}");
                let (fused_stage, unfused_stage) =
                    (&fused.stages[0], unfused.stages.last().unwrap());
                assert_eq!(fused_stage.label, unfused_stage.label, "{case}");
                assert_eq!(fused_stage.result, unfused_stage.result, "{case}");
                assert_eq!(fused_stage.cube, unfused_stage.cube, "{case}");
                if keyed {
                    continue;
                }
                // One matcher under `Average`: the leaf's aggregate is its
                // slice.
                let leaf = unfused.stages[0].cube.slice(0);
                let fullest = fullest_column(leaf, 0.3, &fold_spans(ctx.rows(), shards));
                assert!(fullest >= 40, "{case}: no pool folds ({fullest} < 40)");
            }
        }
    }
}

/// A capped `CandidateIndex` keeps exactly the union of each row's and
/// each column's `cap` best cells of the same uncapped index (score
/// descending, lower index first), at caps 1–5 and every shard count,
/// on a generated task where a column's pool reaches its fold size
/// (`max(4 · cap, 16)` candidates) inside the rows one worker pools.
#[test]
fn capped_candidate_index_keeps_each_elements_best_through_column_folds() {
    let g = generated();
    let ctx = MatchContext::new(
        &g.source,
        &g.target,
        &g.source_paths,
        &g.target_paths,
        g.coma.aux(),
    );
    let index = |cap| MatchPlan::candidate_index_with(1, 0.0, 3, cap).unwrap();
    for shards in [1, 2, 7, ctx.rows() + 1] {
        let engine = PlanEngine::with_config(
            g.coma.library(),
            EngineConfig::default().with_shards(shards),
        );
        let all = engine.execute(&ctx, &index(None)).unwrap();
        let all = all.stages[0].cube.slice(0);
        let spans = fold_spans(ctx.rows(), shards);
        for cap in 1..=5 {
            let fold_at = (4 * cap).max(16);
            let fullest = fullest_column(all, 0.0, &spans);
            assert!(
                fullest >= fold_at,
                "shards {shards}, cap {cap}: no pool folds ({fullest} < {fold_at})"
            );
            let kept = engine.execute(&ctx, &index(Some(cap))).unwrap();
            let best = PairMask::top_k_of(all, cap, TopKPer::Both).masked_sparse(all);
            assert_eq!(
                kept.stages[0].cube.slice(0),
                &best,
                "shards {shards}, cap {cap}"
            );
        }
    }
}
