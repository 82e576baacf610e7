//! Soundness properties of the static plan analyzer
//! ([`coma::core::PlanAnalyzer`]): across seeded generated workloads and
//! engine configurations, every definite (`Yes`/`No`) prediction the
//! pre-execution analysis makes must agree with what the engine then
//! actually does —
//!
//! * a stage predicted sparse executes with CSR storage (and one
//!   predicted dense stays dense),
//! * a stage predicted fusable lands with `StageOutcome::fused == true`
//!   (and a predicted-unfusable one materializes),
//! * a stage predicted to select in key space reports its key counts in
//!   `StageOutcome::key_space` (and one predicted not to reports none),
//! * the measured peak allocation of the execution (counting global
//!   allocator, the same instrument the perf gate uses) never exceeds
//!   the predicted `peak_bytes` upper bound.
//!
//! `Maybe` predictions are vacuously compatible — the lattice exists so
//! the analyzer can decline to guess — so these tests also assert the
//! canonical plans produce *definite* predictions where the engine's
//! decision is statically known.

use coma::core::plans::{
    candidate_index_plan, fused_filter_plan, liberal_name_stage, topk_pruned_plan,
};
use coma::core::{
    Coma, EngineConfig, MatchContext, MatchPlan, MatchStrategy, PlanAnalyzer, PlanEngine,
    SchemaStats, TaskStats, TopKPer, Tri, VocabIndex,
};
use coma::graph::{PathSet, Schema};
use coma::repo::{Mapping, MappingKind, Repository};
use coma_bench::alloc_track::{measure_peak, CountingAllocator};
use coma_bench::workload::{generate_task, WorkloadShape, WorkloadSpec};
use std::collections::BTreeSet;
use std::sync::PoisonError;

/// Register the counting allocator so [`measure_peak`] reports real
/// numbers (without it every window reads 0 and the peak-bound property
/// would pass vacuously).
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `measure_peak` windows must not overlap across threads, and the test
/// harness runs sibling `#[test]`s concurrently — every test holding a
/// window takes this lock first. A test that fails while holding it
/// poisons it; the others take it anyway, so each reports its own result.
static WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One analyzed-then-executed configuration point.
struct Executed {
    analysis: coma::core::PlanAnalysis,
    outcome: coma::core::PlanOutcome,
    measured_peak: usize,
}

/// Analyzes `plan` for the workload, executes it under `cfg`, and
/// returns both sides plus the measured peak of the execution window.
/// The context, path sets and analysis are built *outside* the
/// measurement window: the predicted bound covers one plan execution,
/// not task preparation.
fn analyze_and_execute(spec: &WorkloadSpec, plan: &MatchPlan, cfg: EngineConfig) -> Executed {
    let (source, target) = generate_task(spec);
    let coma = Coma::new();
    let source_paths = PathSet::new(&source).expect("generated schema is well-formed");
    let target_paths = PathSet::new(&target).expect("generated schema is well-formed");
    let ctx = MatchContext::new(&source, &target, &source_paths, &target_paths, coma.aux())
        .with_repository(coma.repository());
    let stats = TaskStats::gather(&ctx);
    let analysis = PlanAnalyzer::new(coma.library(), cfg.clone()).analyze(plan, &stats);
    assert!(
        !analysis.has_errors(),
        "{}: canonical plan must analyze clean, got:\n{}",
        spec.label(),
        analysis.render()
    );
    let engine = PlanEngine::with_config(coma.library(), cfg);
    let (measured_peak, outcome) = measure_peak(|| engine.execute(&ctx, plan));
    let outcome = outcome.expect("canonical plan executes");
    Executed {
        analysis,
        outcome,
        measured_peak,
    }
}

/// Asserts every definite prediction against the executed stages and the
/// measured peak. Returns the stage labels seen, so callers can make
/// definiteness assertions on specific stages.
fn assert_sound(which: &str, run: &Executed) {
    for stage in &run.outcome.stages {
        let storage = run.analysis.storage_prediction(&stage.label);
        assert!(
            storage.agrees_with(stage.cube.all_sparse()),
            "{which}: stage `{}` predicted storage {storage:?} but all_sparse = {}",
            stage.label,
            stage.cube.all_sparse()
        );
        let fused = run.analysis.fused_prediction(&stage.label);
        assert!(
            fused.agrees_with(stage.fused),
            "{which}: stage `{}` predicted fused {fused:?} but fused = {}",
            stage.label,
            stage.fused
        );
        let key_space = run.analysis.key_space_prediction(&stage.label);
        assert!(
            key_space.agrees_with(stage.key_space.is_some()),
            "{which}: stage `{}` predicted key_space {key_space:?} but ran {:?}",
            stage.label,
            stage.key_space
        );
    }
    assert!(
        (run.measured_peak as u64) <= run.analysis.peak_bytes,
        "{which}: measured peak {} exceeds predicted bound {}",
        run.measured_peak,
        run.analysis.peak_bytes
    );
}

/// The workload × configuration × plan sweep. One `#[test]` on purpose:
/// `measure_peak` windows must not overlap across threads, and the test
/// harness runs sibling tests concurrently.
#[test]
fn predictions_agree_with_execution_across_workloads_and_configs() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let specs = [
        WorkloadSpec::new(WorkloadShape::Star, 160, 11),
        WorkloadSpec::new(WorkloadShape::Deep, 200, 23),
        WorkloadSpec::new(WorkloadShape::Wide, 160, 37),
    ];
    let configs: [(&str, EngineConfig); 4] = [
        ("default", EngineConfig::default()),
        ("sharded", EngineConfig::default().with_shards(2)),
        ("serial", EngineConfig::default().with_parallel(false)),
        ("dense", EngineConfig::default().with_sparse(false)),
    ];
    let plans = [
        ("topk_pruned", topk_pruned_plan(5)),
        ("candidate_index", candidate_index_plan(5)),
        ("fused_filter", fused_filter_plan()),
    ];
    for spec in &specs {
        for (cfg_name, cfg) in &configs {
            for (plan_name, plan) in &plans {
                let which = format!("{}/{cfg_name}/{plan_name}", spec.label());
                let run = analyze_and_execute(spec, plan, cfg.clone());
                assert_sound(&which, &run);

                // Where the engine's decision is statically known the
                // analyzer must commit, not hide behind `Maybe`:
                // * under `with_sparse(false)` nothing stores sparse and
                //   nothing fuses — every materialized stage is a
                //   definite `No` on both axes;
                // * under any sparse config the two pruning plans'
                //   prune-over-Matchers stage is definitely fused, and
                //   over their `Name` leaf definitely in key space.
                if *cfg_name == "dense" {
                    for stage in &run.outcome.stages {
                        assert_eq!(
                            run.analysis.storage_prediction(&stage.label),
                            Tri::No,
                            "{which}: stage `{}`",
                            stage.label
                        );
                        assert_eq!(
                            run.analysis.fused_prediction(&stage.label),
                            Tri::No,
                            "{which}: stage `{}`",
                            stage.label
                        );
                        assert_eq!(
                            run.analysis.key_space_prediction(&stage.label),
                            Tri::No,
                            "{which}: stage `{}`",
                            stage.label
                        );
                    }
                } else if *plan_name != "candidate_index" {
                    let fused_stage = run
                        .outcome
                        .stages
                        .iter()
                        .find(|s| s.fused)
                        .unwrap_or_else(|| panic!("{which}: no fused stage"));
                    assert_eq!(
                        run.analysis.fused_prediction(&fused_stage.label),
                        Tri::Yes,
                        "{which}"
                    );
                    assert_eq!(
                        run.analysis.key_space_prediction(&fused_stage.label),
                        Tri::Yes,
                        "{which}"
                    );
                    assert!(fused_stage.key_space.is_some(), "{which}");
                }
            }
        }
    }
}

/// The predicted peak bound stays sound when the measurement window
/// *includes* repeated executions — the bound is per execution, and
/// repeated runs free their buffers, so even N sequential executions
/// must stay under the single-execution bound plus nothing.
#[test]
fn peak_bound_covers_repeated_execution() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = WorkloadSpec::new(WorkloadShape::Deep, 200, 5);
    let (source, target) = generate_task(&spec);
    let coma = Coma::new();
    let source_paths = PathSet::new(&source).unwrap();
    let target_paths = PathSet::new(&target).unwrap();
    let ctx = MatchContext::new(&source, &target, &source_paths, &target_paths, coma.aux())
        .with_repository(coma.repository());
    let stats = TaskStats::gather(&ctx);
    let plan = topk_pruned_plan(5);
    let analysis =
        PlanAnalyzer::new(coma.library(), EngineConfig::default()).analyze(&plan, &stats);
    let engine = PlanEngine::new(coma.library());
    for round in 0..3 {
        let (peak, outcome) = measure_peak(|| engine.execute(&ctx, &plan));
        outcome.unwrap();
        assert!(
            (peak as u64) <= analysis.peak_bytes,
            "round {round}: measured {} > predicted {}",
            peak,
            analysis.peak_bytes
        );
    }
}

/// The bound holds for a flat `SchemaM` strategy however many pivots the
/// repository holds: 60 manual pivots `Pk`, each carrying one
/// correspondence `S.root → Pk.x → T.root`, merge into the one matrix the
/// analyzer charges, not into one matrix per pivot.
#[test]
fn peak_bound_covers_schema_reuse_over_many_pivots() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = WorkloadSpec::new(WorkloadShape::Star, 300, 11);
    let (source, target) = generate_task(&spec);
    let source_paths = PathSet::new(&source).unwrap();
    let target_paths = PathSet::new(&target).unwrap();
    let source_root = source_paths.full_name(&source, source_paths.root());
    let target_root = target_paths.full_name(&target, target_paths.root());
    let mut coma = Coma::new();
    for k in 0..60 {
        let pivot = format!("P{k}");
        let mut first = Mapping::new(source.name(), &pivot, MappingKind::Manual);
        first.push(&source_root, format!("{pivot}.x"), 1.0);
        coma.repository_mut().put_mapping(first);
        let mut second = Mapping::new(&pivot, target.name(), MappingKind::Manual);
        second.push(format!("{pivot}.x"), &target_root, 1.0);
        coma.repository_mut().put_mapping(second);
    }
    let ctx = MatchContext::new(&source, &target, &source_paths, &target_paths, coma.aux())
        .with_repository(coma.repository());
    let stats = TaskStats::gather(&ctx);
    let plan = MatchPlan::from(MatchStrategy::with_matchers(["SchemaM"]));
    let analysis =
        PlanAnalyzer::new(coma.library(), EngineConfig::default()).analyze(&plan, &stats);
    assert!(!analysis.has_errors(), "{}", analysis.render());
    let engine = PlanEngine::new(coma.library());
    let (peak, outcome) = measure_peak(|| engine.execute(&ctx, &plan));
    let outcome = outcome.unwrap();
    // Every chain witnesses root ↔ root: the reuse is real, not empty.
    let (i, j) = (source_paths.root().index(), target_paths.root().index());
    assert_eq!(outcome.stages[0].cube.slice(0).get(i, j), 1.0);
    assert!(
        (peak as u64) <= analysis.peak_bytes,
        "measured {peak} > predicted {}",
        analysis.peak_bytes
    );
}

/// `NodeFacts::shards_estimate` is an upper bound of what executes (as
/// `--explain`'s `shards<=` claims): no stage runs more row shards than
/// the largest estimate among the analyzed nodes carrying its label.
/// Beyond the sweep above, two restricted stages that still shard under
/// `with_shards(2)`: a `CandidateIndex` refining a `TopK` (the index scan
/// shards its rows under any mask) and the dense-mode two-stage plan's
/// refine leaf (it computes, shards and masks the full `Leaves` matrix).
#[test]
fn shard_estimates_bound_executed_shards() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let specs = [
        WorkloadSpec::new(WorkloadShape::Star, 160, 11),
        WorkloadSpec::new(WorkloadShape::Deep, 200, 23),
        WorkloadSpec::new(WorkloadShape::Wide, 160, 37),
    ];
    let configs: [(&str, EngineConfig); 4] = [
        ("default", EngineConfig::default()),
        ("sharded", EngineConfig::default().with_shards(2)),
        ("serial", EngineConfig::default().with_parallel(false)),
        ("dense", EngineConfig::default().with_sparse(false)),
    ];
    let plans = [
        ("topk_pruned", topk_pruned_plan(5)),
        ("candidate_index", candidate_index_plan(5)),
        ("fused_filter", fused_filter_plan()),
    ];
    let mut cases: Vec<(String, MatchPlan, EngineConfig)> = Vec::new();
    for (cfg_name, cfg) in &configs {
        for (plan_name, plan) in &plans {
            cases.push((format!("{cfg_name}/{plan_name}"), plan.clone(), cfg.clone()));
        }
    }
    let sharded = EngineConfig::default().with_shards(2);
    let index_refine = MatchPlan::seq(
        liberal_name_stage().top_k(5, TopKPer::Both).unwrap(),
        MatchPlan::candidate_index_with(1, 0.0, 3, Some(5)).unwrap(),
    );
    cases.push(("sharded/index_refine".into(), index_refine, sharded.clone()));
    let dense_sharded = sharded.with_sparse(false);
    cases.push((
        "dense_sharded/topk_pruned".into(),
        topk_pruned_plan(5),
        dense_sharded,
    ));
    for spec in &specs {
        for (name, plan, cfg) in &cases {
            let which = format!("{}/{name}", spec.label());
            let run = analyze_and_execute(spec, plan, cfg.clone());
            for stage in &run.outcome.stages {
                let bound = run
                    .analysis
                    .nodes
                    .iter()
                    .filter(|f| f.label == stage.label)
                    .map(|f| f.shards_estimate)
                    .max();
                assert!(
                    bound.is_some_and(|b| stage.shards <= b),
                    "{which}: stage `{}` ran {} shards, estimated <= {bound:?}",
                    stage.label,
                    stage.shards
                );
            }
        }
    }
}

/// `TaskStats` as gathered before its schema-side half was split out:
/// one `q = 3` index per side over the context's element names, and the
/// pair figures from the context. The oracle for the property below.
fn gathered_whole(ctx: &MatchContext<'_>) -> TaskStats {
    let (m, n) = (ctx.rows(), ctx.cols());
    let source = VocabIndex::build((0..m).map(|i| ctx.source_name(i)), ctx.aux, 3);
    let target = VocabIndex::build((0..n).map(|j| ctx.target_name(j)), ctx.aux, 3);
    let shared = source.tokens().filter(|t| target.has_token(t)).count();
    let union = source.distinct_tokens() + target.distinct_tokens() - shared;
    let distinct = |names: Vec<&str>| names.into_iter().collect::<BTreeSet<_>>().len();
    let leaves = |schema: &Schema, paths: &PathSet| {
        paths
            .iter()
            .filter(|&id| schema.is_leaf(paths.node_of(id)))
            .count()
    };
    let leafset_ids = |paths: &PathSet| {
        let order: Vec<_> = paths.iter().collect();
        let mut counts = vec![0usize; paths.len()];
        for &p in order.iter().rev() {
            counts[p.index()] = if paths.is_leaf(p) {
                1
            } else {
                paths.children(p).iter().map(|c| counts[c.index()]).sum()
            };
        }
        counts.into_iter().sum::<usize>()
    };
    let (min_pivot_hops, repo_correspondences) = match ctx.repository {
        Some(repo) => (
            repo.pivot_paths(
                ctx.source.name(),
                ctx.target.name(),
                TaskStats::PIVOT_PROBE_HOPS,
                |_| true,
            )
            .iter()
            .map(|c| c.hops.len())
            .min(),
            repo.mappings().iter().map(|m| m.len()).sum(),
        ),
        None => (None, 0),
    };
    TaskStats {
        rows: m,
        cols: n,
        source_leaves: leaves(ctx.source, ctx.source_paths),
        target_leaves: leaves(ctx.target, ctx.target_paths),
        source_leafset_ids: leafset_ids(ctx.source_paths),
        target_leafset_ids: leafset_ids(ctx.target_paths),
        source_distinct_names: distinct((0..m).map(|i| ctx.source_name(i)).collect()),
        target_distinct_names: distinct((0..n).map(|j| ctx.target_name(j)).collect()),
        source_tokens: source.distinct_tokens(),
        target_tokens: target.distinct_tokens(),
        token_postings: source.token_posting_entries() + target.token_posting_entries(),
        gram_postings: source.gram_posting_entries() + target.gram_posting_entries(),
        vocab_overlap: if union == 0 {
            0.0
        } else {
            shared as f64 / union as f64
        },
        feedback_pins: ctx.aux.feedback.len(),
        min_pivot_hops,
        repo_correspondences,
    }
}

/// A side's `SchemaStats` depends on that schema alone: prepared once
/// per schema, from its own allocation, and paired in either role (or
/// with itself) by `TaskStats::from_sides`, it yields exactly what
/// `TaskStats::gather` computes on the task — and what gathering the
/// task whole computed before the split — on generated pairs of every
/// shape, with no repository and with one holding a pivot chain.
#[test]
fn prepared_sides_pair_into_the_gathered_stats() {
    let mut coma = Coma::new();
    coma.aux_mut().feedback.add_match("name", "name");
    let shapes = [
        WorkloadShape::Star,
        WorkloadShape::Deep,
        WorkloadShape::Wide,
        WorkloadShape::Catalog,
    ];
    for shape in shapes {
        for (nodes, seed) in [(40, 3), (160, 11), (300, 29)] {
            let spec = WorkloadSpec::new(shape, nodes, seed);
            let (source, target) = generate_task(&spec);
            let prepare = |schema: &Schema| {
                let copy = schema.clone();
                let paths = PathSet::new(&copy).unwrap();
                SchemaStats::of(&copy, &paths, coma.aux())
            };
            let (source_side, target_side) = (prepare(&source), prepare(&target));
            let mut repo = Repository::new();
            for (a, b) in [(source.name(), "Pivot"), ("Pivot", target.name())] {
                let mut mapping = Mapping::new(a, b, MappingKind::Automatic);
                mapping.push(format!("{a}.x"), format!("{b}.x"), 0.75);
                repo.put_mapping(mapping);
            }
            let paths = (
                PathSet::new(&source).unwrap(),
                PathSet::new(&target).unwrap(),
            );
            let pairs = [
                (
                    &source,
                    &target,
                    &paths.0,
                    &paths.1,
                    &source_side,
                    &target_side,
                ),
                (
                    &target,
                    &source,
                    &paths.1,
                    &paths.0,
                    &target_side,
                    &source_side,
                ),
                (
                    &source,
                    &source,
                    &paths.0,
                    &paths.0,
                    &source_side,
                    &source_side,
                ),
            ];
            for (role, (s, t, sp, tp, s_side, t_side)) in pairs.into_iter().enumerate() {
                let bare = MatchContext::new(s, t, sp, tp, coma.aux());
                for ctx in [bare, bare.with_repository(&repo)] {
                    let which = format!(
                        "{}/pair {role}/repository {}",
                        spec.label(),
                        ctx.repository.is_some()
                    );
                    let prepared = TaskStats::from_sides(&ctx, s_side, t_side);
                    assert_eq!(prepared, TaskStats::gather(&ctx), "{which}");
                    assert_eq!(prepared, gathered_whole(&ctx), "{which}");
                    if role == 0 && ctx.repository.is_some() {
                        assert_eq!(prepared.min_pivot_hops, Some(2), "{which}");
                    }
                }
            }
        }
    }
}
