//! Oracle properties of the name-based matchers' cell values: every cell
//! `Name` and `TypeName` produce must equal the per-pair formulation bit
//! for bit, however the compute is cut and whatever a plan execution's
//! memo already holds.
//!
//! * `Name`'s reference is `NameEngine::similarity` of the two element
//!   names; `TypeName`'s is the weighted sum `TypeNameMatcher` forms from
//!   that value and `TypeCompatTable::similarity_opt` of the two
//!   datatypes.
//! * Three computes are checked cell by cell: the full `compute`,
//!   `compute_rows` over the row shards of 1, 2, 7 and rows + 1 shards,
//!   and `compute` under seeded random masks (every allowed cell holds
//!   the reference, every other cell 0).
//! * Each check runs three ways: with no memo, with a fresh memo per
//!   compute, and with one memo shared across the whole sequence of
//!   computes of a task, the way one plan execution shares it (masked
//!   computes before and after the row computes, then the full ones).
//!
//! The tasks repeat names heavily: generated deep and star tasks, and a
//! hand-built pair where many paths share a few names, equal names carry
//! different datatypes, and distinct names tokenize to the same token set
//! (so their scores tie against every partner).

use coma::core::matchers::hybrid::{NameMatcher, TypeNameMatcher};
use coma::core::matchers::name_engine::{NameEngine, TokenMatcher};
use coma::core::matchers::synonym::SynonymTable;
use coma::core::{
    shard_ranges, Aggregation, Auxiliary, MatchContext, MatchMemo, Matcher, PairMask, SimMatrix,
};
use coma::graph::{DataType, Node, PathSet, Schema, SchemaBuilder};
use coma_bench::workload::{generate_task, SplitMix64, WorkloadShape, WorkloadSpec};
use std::collections::HashMap;
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

    fn context<'a>(&'a self, aux: &'a Auxiliary) -> MatchContext<'a> {
        MatchContext::new(
            &self.source,
            &self.target,
            &self.source_paths,
            &self.target_paths,
            aux,
        )
    }
}

/// One side of the hand-built task: three containers that share one
/// `Address` node (so its children repeat on three paths each), plus
/// same-named leaves with different datatypes and names that tokenize
/// alike (`cityName`, `city_name`, `NameCity`).
fn hand_built(name: &str, containers: [&str; 3], leaves: &[(&str, Option<DataType>)]) -> Schema {
    let mut b = SchemaBuilder::new(name);
    let root = b.add_node(Node::new(name));
    let address = b.add_node(Node::new("Address"));
    for (k, &(leaf, datatype)) in leaves.iter().enumerate() {
        let mut node = Node::new(leaf);
        if let Some(datatype) = datatype {
            node = node.with_datatype(datatype);
        }
        let id = b.add_node(node);
        // Even leaves sit under the shared address, odd ones under the
        // root: equal names then occur with and without the repetition.
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

fn tasks() -> Vec<Task> {
    use DataType::{Decimal, Integer, Text};
    let mut tasks: Vec<Task> = [
        (WorkloadShape::Deep, 120, 3),
        (WorkloadShape::Deep, 170, 11),
        (WorkloadShape::Star, 120, 5),
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
            ("city", Some(Text)),
            ("city", Some(Integer)),
            ("cityName", Some(Text)),
            ("city_name", None),
            ("NameCity", Some(Decimal)),
            ("zip", Some(Decimal)),
            ("zip", Some(Text)),
            ("street", None),
            ("Street", Some(Text)),
        ],
    );
    let target = hand_built(
        "PO2",
        ["DeliverTo", "deliverTo", "Invoice"],
        &[
            ("City", Some(Text)),
            ("town", Some(Text)),
            ("CityName", None),
            ("name_city", Some(Integer)),
            ("postcode", Some(Decimal)),
            ("Zip", Some(Integer)),
            ("zip", None),
            ("street", Some(Text)),
        ],
    );
    tasks.push(Task::new("hand-built".to_string(), source, target));
    tasks
}

fn aux() -> Auxiliary {
    let mut aux = Auxiliary::standard();
    aux.synonyms = SynonymTable::purchase_order();
    aux.synonyms.add_synonym("town", "city");
    aux
}

/// A name engine other than the paper default, so a memo shared by the
/// matchers below holds work for two engines.
fn custom_engine() -> NameEngine {
    NameEngine {
        token_matchers: vec![TokenMatcher::Affix, TokenMatcher::NGram(2)],
        aggregation: Aggregation::Average,
        ..NameEngine::paper_default()
    }
}

/// The matchers under test, each with its per-pair reference.
enum Checked {
    Name(NameMatcher),
    TypeName(TypeNameMatcher),
}

impl Checked {
    fn all() -> Vec<Checked> {
        vec![
            Checked::Name(NameMatcher::new()),
            Checked::TypeName(TypeNameMatcher::new()),
            Checked::TypeName(TypeNameMatcher::with_weights(0.4, 0.6)),
            Checked::Name(NameMatcher::with_engine(custom_engine())),
        ]
    }

    fn matcher(&self) -> &dyn Matcher {
        match self {
            Checked::Name(m) => m,
            Checked::TypeName(m) => m,
        }
    }

    fn engine(&self) -> &NameEngine {
        match self {
            Checked::Name(m) => &m.engine,
            Checked::TypeName(m) => &m.engine,
        }
    }

    fn label(&self) -> String {
        match self {
            Checked::Name(m) => format!("Name[{:?}]", m.engine.aggregation),
            Checked::TypeName(m) => format!("TypeName[{}/{}]", m.name_weight, m.type_weight),
        }
    }
}

/// One engine's reference scores, per distinct (source, target) name.
type NamePairs<'a> = HashMap<(&'a str, &'a str), f64>;

/// The reference value of every cell of one task for each of
/// [`Checked::all`], row-major. Each distinct name pair is scored once
/// per engine by `NameEngine::similarity` and spread to its cells.
fn references(task: &Task, aux: &Auxiliary) -> Vec<Vec<f64>> {
    let (sp, tp) = (&task.source_paths, &task.target_paths);
    let mut names: Vec<(NameEngine, NamePairs<'_>)> = Vec::new();
    let mut all = Vec::new();
    for checked in Checked::all() {
        let engine = checked.engine();
        let k = match names.iter().position(|(e, _)| e == engine) {
            Some(k) => k,
            None => {
                names.push((engine.clone(), HashMap::new()));
                names.len() - 1
            }
        };
        let names = &mut names[k].1;
        let mut out = Vec::with_capacity(sp.len() * tp.len());
        for p in sp.iter() {
            let a = sp.name(&task.source, p);
            let a_type = task.source.node(sp.node_of(p)).datatype;
            for q in tp.iter() {
                let b = tp.name(&task.target, q);
                let name = *names
                    .entry((a, b))
                    .or_insert_with(|| engine.similarity(a, b, aux).clamp(0.0, 1.0));
                out.push(match &checked {
                    Checked::Name(_) => name,
                    Checked::TypeName(m) => {
                        let b_type = task.target.node(tp.node_of(q)).datatype;
                        let type_sim = aux.type_compat.similarity_opt(a_type, b_type);
                        let total = m.name_weight + m.type_weight;
                        ((m.name_weight * name + m.type_weight * type_sim) / total).clamp(0.0, 1.0)
                    }
                });
            }
        }
        all.push(out);
    }
    all
}

/// Every task with its references, built once for all tests.
fn fixtures() -> &'static [(Task, Vec<Vec<f64>>)] {
    static FIXTURES: OnceLock<Vec<(Task, Vec<Vec<f64>>)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let aux = aux();
        tasks()
            .into_iter()
            .map(|task| {
                let expected = references(&task, &aux);
                (task, expected)
            })
            .collect()
    })
}

/// Asserts that `matrix` holds the reference's rows `first..` bit for
/// bit, in the cells `allowed` admits, and 0 everywhere else.
fn assert_cells(
    what: &str,
    matrix: &SimMatrix,
    expected: &[f64],
    first: usize,
    allowed: impl Fn(usize, usize) -> bool,
) {
    let cols = matrix.cols();
    for r in 0..matrix.rows() {
        let i = first + r;
        for j in 0..cols {
            let want = if allowed(i, j) {
                expected[i * cols + j]
            } else {
                0.0
            };
            let got = matrix.get(r, j);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}: cell ({i}, {j}) is {got}, the per-pair reference {want}"
            );
        }
    }
}

/// Seeded random masks of three densities over a `rows × cols` task.
fn masks(rows: usize, cols: usize, seed: u64) -> Vec<PairMask> {
    let mut rng = SplitMix64::new(seed);
    [0.02, 0.2, 0.7]
        .into_iter()
        .map(|density| {
            let mut mask = PairMask::new(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    if (rng.next_u64() % 10_000) as f64 / 10_000.0 < density {
                        mask.allow(i, j);
                    }
                }
            }
            mask
        })
        .collect()
}

/// How the computes of one check see a memo.
#[derive(Clone, Copy, Debug)]
enum Memo {
    None,
    Fresh,
    Shared,
}

/// Runs the check sequence of one task under one memo mode: masked
/// computes (before any row exists), row-sharded computes, the masks
/// again, then the full computes, each matcher in turn.
fn check_task(task: &Task, expected: &[Vec<f64>], mode: Memo) {
    let aux = aux();
    let base = task.context(&aux);
    let (rows, cols) = (base.rows(), base.cols());
    let checked = Checked::all();
    let masks = masks(rows, cols, rows as u64 * 31 + cols as u64);
    let shared = MatchMemo::new();
    // Runs `compute` on the context the mode prescribes.
    let with_memo = |compute: &dyn Fn(MatchContext<'_>) -> SimMatrix| match mode {
        Memo::None => compute(base),
        Memo::Fresh => compute(base.with_memo(&MatchMemo::new())),
        Memo::Shared => compute(base.with_memo(&shared)),
    };
    let check_masks = |round: &str| {
        for (c, want) in checked.iter().zip(expected) {
            for (k, mask) in masks.iter().enumerate() {
                let got = with_memo(&|ctx| c.matcher().compute(&ctx.with_restriction(mask)));
                let what = format!("{} {mode:?} {} {round} mask {k}", task.label, c.label());
                assert_cells(&what, &got, want, 0, |i, j| mask.allows(i, j));
            }
        }
    };
    check_masks("before rows");
    for shards in [1, 2, 7, rows + 1] {
        for (c, want) in checked.iter().zip(expected) {
            for range in shard_ranges(rows, shards) {
                let got = with_memo(&|ctx| c.matcher().compute_rows(&ctx, range.clone()));
                assert_eq!((got.rows(), got.cols()), (range.len(), cols));
                let what = format!(
                    "{} {mode:?} {} rows {range:?} of {shards} shards",
                    task.label,
                    c.label()
                );
                assert_cells(&what, &got, want, range.start, |_, _| true);
            }
        }
    }
    check_masks("after rows");
    for (c, want) in checked.iter().zip(expected) {
        let got = with_memo(&|ctx| c.matcher().compute(&ctx));
        assert_eq!((got.rows(), got.cols()), (rows, cols));
        let what = format!("{} {mode:?} {} full", task.label, c.label());
        assert_cells(&what, &got, want, 0, |_, _| true);
    }
}

#[test]
fn name_cells_equal_the_per_pair_reference_without_a_memo() {
    for (task, expected) in fixtures() {
        check_task(task, expected, Memo::None);
    }
}

#[test]
fn name_cells_equal_the_per_pair_reference_with_a_fresh_memo() {
    for (task, expected) in fixtures() {
        check_task(task, expected, Memo::Fresh);
    }
}

#[test]
fn name_cells_equal_the_per_pair_reference_with_a_shared_memo() {
    for (task, expected) in fixtures() {
        check_task(task, expected, Memo::Shared);
    }
}

/// The tasks really repeat names: fewer distinct names than paths on
/// both sides, and the hand-built side has names that tie.
#[test]
fn the_tasks_repeat_names() {
    let aux = aux();
    for (task, _) in fixtures() {
        let ctx = task.context(&aux);
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
    }
    let engine = NameEngine::paper_default();
    let tie = |a: &str, b: &str| {
        engine.similarity(a, "CityName", &aux) == engine.similarity(b, "CityName", &aux)
    };
    assert!(tie("cityName", "city_name") && tie("cityName", "NameCity"));
}
