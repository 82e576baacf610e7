//! Oracle properties of a prunable stage fused over a `Name` leaf, on
//! tasks where many paths share an element name: the fused stage must
//! equal both oracles bit for bit, unfused execution
//! (`with_fuse_pruning(false)`) and dense execution (`with_sparse(false)`).
//! Compared are the final result, the prune stage's label, result and cube,
//! and every similarity's bits.
//!
//! * The leaf varies over every direction, four aggregations (a one-slice
//!   `Weighted` leaf among them, whose `(v · w) / w` need not equal `v`)
//!   and seven selections: capped, thresholded, delta-cut, compounded,
//!   and `max_n(1)`.
//! * The prune over it is a `TopK` in every `TopKPer` mode or a `Filter`
//!   with a `max_n`, a threshold, a delta or `max_n(1)`.
//! * Shard counts are 1, 2, 7 and rows + 1.
//! * Every such stage selects in key space, over the task's distinct
//!   names, and reports one shard.
//! * The tasks are generated deep and star tasks and a hand-built pair,
//!   each also with source and target swapped, so both `m < n` and
//!   `m > n` occur, plus the three empty tasks. In the hand-built pair one
//!   `Address` sits under three containers, so its children's names
//!   repeat on three paths each, and distinct names tokenize alike, so
//!   their scores tie against every partner.

use coma::core::matchers::name_engine::NameEngine;
use coma::core::matchers::synonym::SynonymTable;
use coma::core::{
    Aggregation, Coma, CombinationStrategy, CombinedSim, Direction, EngineConfig, MatchContext,
    MatchPlan, MatchResult, PlanEngine, PlanOutcome, Selection, TopKPer,
};
use coma::graph::{DataType, Node, PathSet, Schema, SchemaBuilder};
use coma_bench::workload::{generate_task, WorkloadShape, WorkloadSpec};
use proptest::prelude::*;
use std::sync::OnceLock;

struct Task {
    label: String,
    source: Schema,
    target: Schema,
    source_paths: PathSet,
    target_paths: PathSet,
}

impl Task {
    fn new(label: String, source: Schema, target: Schema) -> Task {
        let source_paths = PathSet::new(&source).unwrap();
        let target_paths = PathSet::new(&target).unwrap();
        Task {
            label,
            source,
            target,
            source_paths,
            target_paths,
        }
    }

    /// The same task with source and target swapped.
    fn swapped(&self) -> Task {
        let label = format!("{} swapped", self.label);
        Task::new(label, self.target.clone(), self.source.clone())
    }

    fn context<'a>(&'a self, coma: &'a Coma) -> MatchContext<'a> {
        MatchContext::new(
            &self.source,
            &self.target,
            &self.source_paths,
            &self.target_paths,
            coma.aux(),
        )
    }
}

/// One side of the hand-built task: three containers sharing one
/// `Address` node, with `leaves` alternating between the address and the
/// root, so equal names occur both with and without the repetition.
fn hand_built(name: &str, containers: [&str; 3], leaves: &[(&str, DataType)]) -> Schema {
    let mut b = SchemaBuilder::new(name);
    let root = b.add_node(Node::new(name));
    let address = b.add_node(Node::new("Address"));
    for (k, &(leaf, datatype)) in leaves.iter().enumerate() {
        let id = b.add_node(Node::new(leaf).with_datatype(datatype));
        b.add_child(if k % 2 == 0 { address } else { root }, id)
            .unwrap();
    }
    for container in containers {
        let id = b.add_node(Node::new(container));
        b.add_child(root, id).unwrap();
        b.add_child(id, address).unwrap();
    }
    b.build().unwrap()
}

fn tasks() -> &'static [Task] {
    static TASKS: OnceLock<Vec<Task>> = OnceLock::new();
    TASKS.get_or_init(|| {
        use DataType::{Decimal, Integer, Text};
        let mut tasks: Vec<Task> = [
            (WorkloadShape::Deep, 140, 3),
            (WorkloadShape::Deep, 190, 11),
            (WorkloadShape::Star, 150, 5),
        ]
        .into_iter()
        .map(|(shape, nodes, seed)| {
            let spec = WorkloadSpec::new(shape, nodes, seed);
            let (source, target) = generate_task(&spec);
            Task::new(spec.label(), source, target)
        })
        .collect();
        let source = hand_built(
            "PO1",
            ["ShipTo", "ship_to", "BillTo"],
            &[
                ("city", Text),
                ("cityName", Text),
                ("city_name", Integer),
                ("NameCity", Decimal),
                ("zip", Decimal),
                ("zip", Text),
                ("street", Text),
                ("Street", Text),
                ("custName", Text),
            ],
        );
        let target = hand_built(
            "PO2",
            ["DeliverTo", "deliverTo", "Invoice"],
            &[
                ("City", Text),
                ("town", Text),
                ("CityName", Text),
                ("name_city", Integer),
                ("postcode", Decimal),
                ("Zip", Integer),
                ("street", Text),
            ],
        );
        tasks.push(Task::new("hand-built".to_string(), source, target));
        let swapped: Vec<Task> = tasks.iter().map(Task::swapped).collect();
        tasks.extend(swapped);
        tasks
    })
}

fn coma() -> &'static Coma {
    static COMA: OnceLock<Coma> = OnceLock::new();
    COMA.get_or_init(|| {
        let mut coma = Coma::new();
        coma.aux_mut().synonyms = SynonymTable::purchase_order();
        coma.aux_mut().synonyms.add_synonym("town", "city");
        coma
    })
}

const DIRECTIONS: [Direction; 3] = [
    Direction::LargeSmall,
    Direction::SmallLarge,
    Direction::Both,
];

/// The one-slice `Weighted` leaf's weight: `(v · 0.7) / 0.7` differs from
/// `v` in the last bit for some of the tasks' name similarities.
const WEIGHT: f64 = 0.7;

fn aggregations() -> [Aggregation; 4] {
    [
        Aggregation::Average,
        Aggregation::Max,
        Aggregation::Min,
        Aggregation::Weighted(vec![WEIGHT]),
    ]
}

/// Leaf selections that prune, so the stage over the leaf fuses.
fn leaf_selections() -> [Selection; 7] {
    [
        Selection::max_n(10).with_threshold(0.3),
        Selection::max_n(1),
        Selection::threshold(0.45),
        Selection {
            delta: Some(0.1),
            ..Selection::max_n(3)
        },
        Selection {
            delta: Some(0.05),
            ..Selection::max_n(2).with_threshold(0.2)
        },
        Selection::max_n(4),
        Selection::delta(0.2).with_threshold(0.3),
    ]
}

/// The prunes over the leaf: `TopK` in every mode, then `Filter`s with a
/// `max_n` (and threshold), a threshold, a delta, and `max_n(1)`.
fn prune(leaf: MatchPlan, which: usize, k: usize, direction: Direction) -> MatchPlan {
    match which {
        0 => leaf.top_k(k, TopKPer::Row).unwrap(),
        1 => leaf.top_k(k, TopKPer::Col).unwrap(),
        2 => leaf.top_k(k, TopKPer::Both).unwrap(),
        3 => leaf.filtered(direction, Selection::max_n(k).with_threshold(0.35)),
        4 => leaf.filtered(direction, Selection::threshold(0.5)),
        5 => leaf.filtered(direction, Selection::delta(0.15)),
        _ => leaf.filtered(direction, Selection::max_n(1)),
    }
}
const PRUNES: usize = 7;

fn leaf(aggregation: Aggregation, direction: Direction, selection: Selection) -> MatchPlan {
    let combination = CombinationStrategy {
        aggregation,
        direction,
        selection,
        combined_sim: CombinedSim::Average,
    };
    MatchPlan::matchers_with(["Name"], combination)
}

fn execute(ctx: &MatchContext<'_>, plan: &MatchPlan, cfg: EngineConfig) -> PlanOutcome {
    PlanEngine::with_config(coma().library(), cfg)
        .execute(ctx, plan)
        .unwrap()
}

/// Asserts two results equal, every similarity bit for bit.
fn assert_same_result(what: &str, got: &MatchResult, want: &MatchResult) {
    assert_eq!(got, want, "{what}");
    let bits = |r: &MatchResult| {
        let sims = r.candidates.iter().map(|c| c.similarity.to_bits());
        (
            sims.collect::<Vec<_>>(),
            r.schema_similarity.map(f64::to_bits),
        )
    };
    assert_eq!(bits(got), bits(want), "{what}: similarity bits");
}

/// Runs `plan` fused at `shards` forced row shards and checks it against
/// the unfused and the dense execution at the same shard count.
fn check(what: &str, ctx: &MatchContext<'_>, plan: &MatchPlan, shards: usize) {
    let cfg = EngineConfig::default().with_shards(shards);
    let fused = execute(ctx, plan, cfg.clone());
    assert_eq!(fused.stages.len(), 1, "{what}: the leaf stage was absorbed");
    assert!(fused.stages[0].fused, "{what}: fused");
    let stage = &fused.stages[0];
    // The stage selected in key space, over the task's distinct names.
    let distinct = |names: &mut Vec<&str>| {
        names.sort_unstable();
        names.dedup();
        names.len()
    };
    let mut source: Vec<&str> = (0..ctx.rows()).map(|i| ctx.source_name(i)).collect();
    let mut target: Vec<&str> = (0..ctx.cols()).map(|j| ctx.target_name(j)).collect();
    let names = (distinct(&mut source), distinct(&mut target));
    assert_eq!(stage.key_space, Some(names), "{what}: key space");
    assert_eq!(stage.shards, 1, "{what}: a key-space stage has one shard");
    let oracles = [
        ("unfused", cfg.clone().with_fuse_pruning(false)),
        ("dense", cfg.with_sparse(false)),
    ];
    for (oracle, oracle_cfg) in oracles {
        let want = execute(ctx, plan, oracle_cfg);
        let what = format!("{what} vs {oracle}");
        assert_eq!(want.stages.len(), 2, "{what}");
        assert!(want.stages.iter().all(|s| !s.fused), "{what}");
        assert_same_result(&what, &fused.result, &want.result);
        let (leaf_stage, want_stage) = (&want.stages[0], &want.stages[1]);
        assert_eq!(stage.label, want_stage.label, "{what}");
        assert_same_result(&format!("{what} stage"), &stage.result, &want_stage.result);
        assert_eq!(stage.cube, want_stage.cube, "{what} cube");
        // The stage's pairs come from the leaf's selection: each one is a
        // pair the oracle's leaf selected, with the same similarity bits.
        for c in &stage.result.candidates {
            let kept = leaf_stage.result.candidates.iter().find(|l| {
                (l.source, l.target) == (c.source, c.target)
                    && l.similarity.to_bits() == c.similarity.to_bits()
            });
            assert!(kept.is_some(), "{what}: {c:?} is no leaf pair");
        }
    }
}

proptest! {
    /// Any leaf configuration, prune and shard count over any task: the
    /// fused stage equals both oracles bit for bit.
    #[test]
    fn fused_name_stage_matches_both_oracles(
        task in 0usize..8,
        dir in 0usize..3,
        agg in 0usize..4,
        sel in 0usize..7,
        prune_k in (0usize..PRUNES, 1usize..4),
        shard_sel in 0usize..4,
    ) {
        let (which, k) = prune_k;
        let task = &tasks()[task];
        let ctx = task.context(coma());
        let direction = DIRECTIONS[dir];
        let aggregation = aggregations()[agg].clone();
        let plan = prune(
            leaf(aggregation, direction, leaf_selections()[sel].clone()),
            which,
            k,
            direction,
        );
        let shards = [1, 2, 7, ctx.rows() + 1][shard_sel];
        let what = format!("{}: {} at {shards} shards", task.label, plan.label());
        check(&what, &ctx, &plan, shards);
    }
}

/// On the hand-built pair, where names repeat and tie, every leaf
/// direction, selection and aggregation under every prune, each at one of
/// the four shard counts in turn.
#[test]
fn hand_built_ties_match_both_oracles_exhaustively() {
    for task in tasks().iter().filter(|t| t.label.starts_with("hand-built")) {
        let ctx = task.context(coma());
        let shard_counts = [1, 2, 7, ctx.rows() + 1];
        let mut case = 0;
        for direction in DIRECTIONS {
            for aggregation in aggregations() {
                for selection in leaf_selections() {
                    for which in 0..PRUNES {
                        let leaf = leaf(aggregation.clone(), direction, selection.clone());
                        let plan = prune(leaf, which, 2, direction);
                        let shards = shard_counts[case % shard_counts.len()];
                        case += 1;
                        let what = format!("{}: {} at {shards} shards", task.label, plan.label());
                        check(&what, &ctx, &plan, shards);
                    }
                }
            }
        }
    }
}

/// The three empty tasks: every prune over every leaf selection fuses,
/// selects nothing and matches both oracles.
#[test]
fn empty_tasks_match_both_oracles() {
    let task = &tasks()[0];
    let none = PathSet::empty();
    let contexts = [
        (&none, &task.target_paths),
        (&task.source_paths, &none),
        (&none, &none),
    ];
    for (which_ctx, (source_paths, target_paths)) in contexts.into_iter().enumerate() {
        let ctx = MatchContext::new(
            &task.source,
            &task.target,
            source_paths,
            target_paths,
            coma().aux(),
        );
        for selection in leaf_selections() {
            for which in 0..PRUNES {
                let plan = prune(
                    leaf(Aggregation::Average, Direction::Both, selection.clone()),
                    which,
                    2,
                    Direction::Both,
                );
                let what = format!("empty task {which_ctx}: {}", plan.label());
                for shards in [1, 7] {
                    check(&what, &ctx, &plan, shards);
                }
                let fused = execute(&ctx, &plan, EngineConfig::default());
                assert!(fused.result.is_empty(), "{what}");
                assert_eq!(fused.stages[0].cube.stored_entries(), 0, "{what}");
            }
        }
    }
}

/// The tasks are what the properties need: every one repeats names on
/// both sides, both `m < n` and `m > n` occur, the hand-built pair has
/// distinct names that tie, and the `Weighted` leaf's arithmetic moves
/// some similarity's last bit.
#[test]
fn the_tasks_repeat_and_tie_names() {
    let coma = coma();
    let (mut wider, mut taller) = (false, false);
    let mut weighted_moves = false;
    for task in tasks() {
        let ctx = task.context(coma);
        let distinct = |names: Vec<&str>| {
            let mut names = names;
            names.sort_unstable();
            names.dedup();
            names.len()
        };
        let src = distinct((0..ctx.rows()).map(|i| ctx.source_name(i)).collect());
        let tgt = distinct((0..ctx.cols()).map(|j| ctx.target_name(j)).collect());
        assert!(src < ctx.rows(), "{}: {src} of {}", task.label, ctx.rows());
        assert!(tgt < ctx.cols(), "{}: {tgt} of {}", task.label, ctx.cols());
        wider |= ctx.rows() < ctx.cols();
        taller |= ctx.rows() > ctx.cols();
        let name = execute(
            &ctx,
            &MatchPlan::matchers(["Name"]),
            EngineConfig::default(),
        );
        let slice = name.stages[0].cube.slice(0);
        weighted_moves |= slice.nonzero().any(|(_, _, v)| (v * WEIGHT) / WEIGHT != v);
    }
    assert!(wider && taller, "both task orientations occur");
    assert!(
        weighted_moves,
        "a one-slice Weighted leaf differs from its slice"
    );
    let engine = NameEngine::paper_default();
    let tie = |a: &str, b: &str| {
        engine.similarity(a, "CityName", coma.aux()) == engine.similarity(b, "CityName", coma.aux())
    };
    assert!(tie("cityName", "city_name") && tie("cityName", "NameCity"));
}
