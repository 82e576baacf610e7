//! The batch workloads: a seeded pool of generated match tasks run one
//! after another in this process, each cold (a fresh memo per task).
//!
//! * `match_exact` runs `plans::topk_pruned_plan(5)`: the fused,
//!   row-sharded liberal-`Name` first stage and the structural refine do
//!   all the work; no index, server or repository code runs.
//! * `match_index` runs `plans::candidate_index_plan(5)` over the same
//!   tasks: only the first stage differs (retrieve → rerank), so an index
//!   change moves this workload and leaves `match_exact` flat.

use crate::gold::prototype_gold;
use crate::report::{host_steal_s, mean, median, quantile, quiet, ratio, Outcome, Window};
use crate::trace::{span_cost_ns, Recorder};
use crate::RunOptions;
use coma_bench::alloc_track::measure_peak;
use coma_bench::workload::{generate_task, SplitMix64, WorkloadShape, WorkloadSpec};
use coma_core::{
    plans, shard_ranges, Auxiliary, CombinationStrategy, DirectedCandidates, EngineConfig,
    MatchContext, MatchPlan, MatcherLibrary, PlanEngine, SimMatrix, VocabIndex,
};
use coma_eval::MatchQuality;
use coma_graph::{PathSet, Schema};
use coma_repo::{Correspondence, MappingKind};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which plan a batch workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPlan {
    Exact,
    Index,
}

impl BatchPlan {
    fn plan(self) -> MatchPlan {
        match self {
            BatchPlan::Exact => plans::topk_pruned_plan(5),
            BatchPlan::Index => plans::candidate_index_plan(5),
        }
    }
}

/// The task pool: `BLOCKS` blocks, each holding one task of every
/// (size, shape), so that every seed makes the same mix of work. A block
/// is the timed loop's window, and the metrics rest on each (size,
/// shape)'s median time. The sizes stay below `perf_smoke`'s (1000 to
/// 20000 nodes) so that a 10-second run holds about ten blocks.
const SIZES: [usize; 4] = [200, 300, 450, 600];
const SHAPES: [WorkloadShape; 4] = [
    WorkloadShape::Deep,
    WorkloadShape::Star,
    WorkloadShape::Wide,
    WorkloadShape::Catalog,
];
const BLOCK_LEN: usize = SIZES.len() * SHAPES.len();
const BLOCKS: usize = 4;
const POOL_SALT: u64 = 0xB47C_4A11_0000_0001;

/// The task pool of one seed, block after block: one spec per (size,
/// shape) in every block, each with its own generator seed drawn from the
/// workload seed.
fn pool_specs(seed: u64) -> Vec<WorkloadSpec> {
    let mut rng = SplitMix64::new(seed ^ POOL_SALT);
    let mut specs = Vec::new();
    for _ in 0..BLOCKS {
        for nodes in SIZES {
            for shape in SHAPES {
                specs.push(WorkloadSpec::new(shape, nodes, rng.next_u64()));
            }
        }
    }
    specs
}

/// One pool task: its spec and the generated source and target schemas.
type Task = (WorkloadSpec, Schema, Schema);

/// The seed's task pool. The generated schemas are the benchmark's
/// inputs, made once and outside every clock.
fn pool(seed: u64) -> Vec<Task> {
    pool_specs(seed)
        .into_iter()
        .map(|spec| {
            let (source, target) = generate_task(&spec);
            (spec, source, target)
        })
        .collect()
}

/// What the program builds before its first task: the matcher library,
/// the auxiliary tables and the engine, and a path set of every pool
/// schema (`PathSet::new` checks the schema and unfolds its paths).
/// `setup_s` times this; each task still builds its own path sets.
struct Setup {
    library: MatcherLibrary,
    aux: Auxiliary,
}

fn setup(pool: &[Task]) -> Result<Setup, String> {
    let library = MatcherLibrary::standard();
    let aux = Auxiliary::standard();
    std::hint::black_box(PlanEngine::with_config(&library, EngineConfig::default()));
    for (_, source, target) in pool {
        let paths = (PathSet::new(source), PathSet::new(target));
        std::hint::black_box((
            paths.0.map_err(|e| e.to_string())?,
            paths.1.map_err(|e| e.to_string())?,
        ));
    }
    Ok(Setup { library, aux })
}

type Ranked = Result<Vec<Correspondence>, String>;

/// One task end to end: path sets, plan execution, ranked mapping.
fn run_task(
    engine: &PlanEngine<'_>,
    aux: &Auxiliary,
    source: &Schema,
    target: &Schema,
    plan: &MatchPlan,
) -> Ranked {
    let sp = PathSet::new(source).map_err(|e| e.to_string())?;
    let tp = PathSet::new(target).map_err(|e| e.to_string())?;
    let ctx = MatchContext::new(source, target, &sp, &tp, aux);
    let outcome = engine.execute(&ctx, plan).map_err(|e| e.to_string())?;
    let mut ranked = outcome
        .result
        .to_mapping(&ctx, MappingKind::Automatic)
        .correspondences;
    ranked.sort_by(|a, b| {
        b.similarity
            .total_cmp(&a.similarity)
            .then_with(|| a.source.cmp(&b.source))
            .then_with(|| a.target.cmp(&b.target))
    });
    Ok(ranked)
}

fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_string()))
}

fn names(mapping: &[Correspondence]) -> BTreeSet<(String, String)> {
    mapping
        .iter()
        .map(|c| (c.source.clone(), c.target.clone()))
        .collect()
}

/// Runs pool tasks and keeps each task's first result, against which
/// every later run of the task is checked.
struct Runner<'a> {
    tasks: &'a [Task],
    aux: &'a Auxiliary,
    engine: PlanEngine<'a>,
    plan: MatchPlan,
    first: Vec<Option<Ranked>>,
}

impl Runner<'_> {
    /// Runs task `k` once: its wall time in milliseconds, and why it
    /// failed if it did.
    fn run(&mut self, k: usize, out: &mut Outcome) -> (f64, Option<String>) {
        let (spec, source, target) = &self.tasks[k];
        let t = Instant::now();
        let result = guarded(|| run_task(&self.engine, self.aux, source, target, &self.plan));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        let failure = match (&result, &self.first[k]) {
            (Err(e), _) => Some(format!("{}: {e}", spec.label())),
            (Ok(_), Some(first)) if *first != result => Some(format!(
                "{}: a repeat differs from the first run",
                spec.label()
            )),
            _ => None,
        };
        self.first[k].get_or_insert(result);
        (ms, failure)
    }
}

/// The latency and throughput metrics from each (size, shape)'s median
/// task time over `blocks`: `latency_ms.p50` and `.p90` are quantiles
/// over the 16 medians, `ops_per_s` is the rate of one caller running
/// the mix back to back.
fn set_by_type(out: &mut Outcome, blocks: &[&Window]) {
    let typical: Vec<f64> = (0..BLOCK_LEN)
        .map(|t| median(&blocks.iter().map(|b| b.latencies_ms[t]).collect::<Vec<_>>()))
        .collect();
    out.set("latency_ms.p50", quantile(&typical, 0.5));
    out.set("latency_ms.p90", quantile(&typical, 0.9));
    out.set(
        "ops_per_s",
        ratio(BLOCK_LEN as f64 * 1e3, typical.iter().sum()),
    );
}

/// The untraced run: one untimed pass over the pool with the peak heap
/// measured; then whole blocks in a cycle until the deadline, each block
/// a window, and the metrics over the quiet ones; then the output check
/// and match quality over the whole pool.
///
/// A set-up is timed before each task of the untimed pass and before
/// each block, outside the block's window. The machine's speed changes
/// from second to second, so set-ups timed in one burst at the start
/// would sample one moment; these sample the whole run, as the task
/// times do, and `setup_s` is their median.
pub fn run(opts: &RunOptions, which: BatchPlan) -> Result<Outcome, String> {
    let tasks = pool(opts.seed);
    let mut setup_s = Vec::new();
    let mut time_setup = || -> Result<(), String> {
        let t = Instant::now();
        drop(setup(&tasks)?);
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(())
    };
    let state = setup(&tasks)?;
    let mut runner = Runner {
        tasks: &tasks,
        aux: &state.aux,
        engine: PlanEngine::with_config(&state.library, EngineConfig::default()),
        plan: which.plan(),
        first: vec![None; tasks.len()],
    };
    let mut out = Outcome::default();
    // The pool's failures, at most one per task: its untimed run, the
    // unfused check and the gold. `ok_share` is computed over the pool,
    // so it does not depend on how many repeats the deadline allowed.
    let mut pool_failed = BTreeMap::new();
    // One untimed pass over the pool: the first result of every task,
    // and the highest peak heap of a task. The peak of one task moves
    // with how its shard threads interleave; the highest over the pool is
    // the highest of several such draws, which repeats.
    let mut peak = 0;
    for k in 0..tasks.len() {
        time_setup()?;
        let (bytes, (_, failure)) = measure_peak(|| runner.run(k, &mut out));
        peak = peak.max(bytes);
        if let Some(failure) = failure {
            pool_failed.insert(k, failure);
        }
    }

    // The timed loop: whole blocks in a cycle until the deadline, at
    // least one; a block the deadline cuts is not a window. A repeat that
    // fails counts in `failed` and clears `correct`.
    let mut windows = Vec::new();
    let start = Instant::now();
    'timed: for block in (0..BLOCKS).cycle() {
        time_setup()?;
        let (t0, steal0) = (Instant::now(), host_steal_s());
        let mut window = Window::default();
        for k in block * BLOCK_LEN..(block + 1) * BLOCK_LEN {
            if !windows.is_empty() && start.elapsed() >= opts.duration {
                break 'timed;
            }
            let (ms, failure) = runner.run(k, &mut out);
            window.latencies_ms.push(ms);
            if let Some(failure) = failure {
                out.fail(failure);
            }
        }
        window.wall_s = t0.elapsed().as_secs_f64();
        window.steal_s = host_steal_s() - steal0;
        window.ops = BLOCK_LEN;
        windows.push(window);
    }
    eprintln!("# {} blocks of {BLOCK_LEN} tasks timed", windows.len());
    out.set("setup_s", median(&setup_s));
    out.set("peak_mib", peak as f64 / (1024.0 * 1024.0));
    set_by_type(&mut out, &quiet(&windows));

    // Output check: each task's result equals the same plan run unfused;
    // quality against the prototype gold.
    let unfused = PlanEngine::with_config(
        &state.library,
        EngineConfig::default().with_fuse_pruning(false),
    );
    let mut f1 = Vec::new();
    for (k, (spec, source, target)) in tasks.iter().enumerate() {
        let Some(Ok(result)) = &runner.first[k] else {
            f1.push(0.0);
            continue;
        };
        match guarded(|| run_task(&unfused, &state.aux, source, target, &runner.plan)) {
            Ok(oracle) if &oracle == result => {}
            Ok(_) => {
                pool_failed.entry(k).or_insert(format!(
                    "{}: fused result differs from unfused",
                    spec.label()
                ));
            }
            Err(e) => {
                pool_failed
                    .entry(k)
                    .or_insert(format!("{}: unfused run failed: {e}", spec.label()));
            }
        }
        match prototype_gold(spec, source, target) {
            Ok(gold) => f1.push(MatchQuality::compare(&gold, &names(result)).f_measure()),
            Err(e) => {
                pool_failed.entry(k).or_insert(e);
                f1.push(0.0);
            }
        }
    }
    out.set("f1", mean(&f1));
    out.set_ok_share(pool_failed.len(), tasks.len());
    for failure in pool_failed.into_values() {
        out.fail(failure);
    }
    Ok(out)
}

/// Per-task counters gathered next to the spans.
#[derive(Default)]
struct Counts {
    shards: Vec<f64>,
    fused: Vec<f64>,
    stored: Vec<f64>,
    survivors: f64,
    cells: f64,
    paths: Vec<f64>,
    postings: Vec<f64>,
    retrieved: f64,
    kept: f64,
    gold_kept: f64,
    gold: f64,
}

/// The traced run: the same tasks with a span around each public call
/// into a layer, the first stage run alone for the stage split, and the
/// refine stage's combination replayed for the combine layer.
pub fn run_traced(opts: &RunOptions, which: BatchPlan, rec: &Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = which.plan();
    let MatchPlan::Seq { filter, .. } = &plan else {
        unreachable!("both batch plans are two-stage Seq plans")
    };
    let stage1 = filter.as_ref().clone();
    let tasks = pool(opts.seed);
    let state = setup(&tasks)?;
    let gold: Vec<BTreeSet<(String, String)>> = tasks
        .iter()
        .map(|(spec, s, t)| prototype_gold(spec, s, t).unwrap_or_default())
        .collect();
    let engine = PlanEngine::with_config(&state.library, EngineConfig::default());
    let name = state
        .library
        .get("Name")
        .expect("standard library has Name");
    let combination = CombinationStrategy::paper_default();
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut c = Counts::default();

    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed() < opts.duration || op == 0 {
        let (spec, source, target) = &tasks[op as usize % tasks.len()];
        out.attempted += 1;
        let task = || -> Result<(), String> {
            let (sp, tp) = rec.time("graph.pathset", op, || {
                (PathSet::new(source), PathSet::new(target))
            });
            let (sp, tp) = (
                sp.map_err(|e| e.to_string())?,
                tp.map_err(|e| e.to_string())?,
            );
            let ctx = MatchContext::new(source, target, &sp, &tp, &state.aux);
            let (m, n) = (ctx.rows(), ctx.cols());
            c.paths.push((m + n) as f64 / 2.0);
            c.cells += (m * n) as f64;
            if which == BatchPlan::Index {
                rec.time("index.build", op, || {
                    let s = VocabIndex::build((0..m).map(|i| ctx.source_name(i)), &state.aux, 3);
                    let t = VocabIndex::build((0..n).map(|j| ctx.target_name(j)), &state.aux, 3);
                    std::hint::black_box((s, t));
                });
            }
            let first = rec
                .time("engine.stage1", op, || engine.execute(&ctx, &stage1))
                .map_err(|e| e.to_string())?;
            let outcome = rec
                .time("engine.execute", op, || engine.execute(&ctx, &plan))
                .map_err(|e| e.to_string())?;
            c.survivors += first.result.len() as f64;
            c.shards
                .push(outcome.stages.iter().map(|s| s.shards).max().unwrap_or(1) as f64);
            c.fused
                .push(outcome.stages.iter().filter(|s| s.fused).count() as f64);
            c.stored.push(
                outcome
                    .stages
                    .iter()
                    .map(|s| s.cube.stored_entries())
                    .sum::<usize>() as f64,
            );
            if let Some(retrieval) = first.stages.iter().find(|s| s.index_stats.is_some()) {
                let stats = retrieval.index_stats.expect("found by index_stats");
                c.postings
                    .push((stats.token_postings + stats.gram_postings) as f64);
                c.retrieved += retrieval.result.len() as f64;
                c.kept += first.result.len() as f64;
                let gold = &gold[op as usize % gold.len()];
                let kept = names(
                    &first
                        .result
                        .to_mapping(&ctx, MappingKind::Automatic)
                        .correspondences,
                );
                c.gold_kept += gold.intersection(&kept).count() as f64;
                c.gold += gold.len() as f64;
            }
            if which == BatchPlan::Exact {
                let single = rec.time("matchers.name", op, || name.compute(&ctx));
                let sharded = rec.time("matchers.name_sharded", op, || {
                    let ranges = shard_ranges(m, shards);
                    let mut parts: Vec<Option<SimMatrix>> = vec![None; ranges.len()];
                    std::thread::scope(|scope| {
                        for (slot, range) in parts.iter_mut().zip(&ranges) {
                            let (name, ctx, range) = (&name, &ctx, range.clone());
                            scope.spawn(move || *slot = Some(name.compute_rows(ctx, range)));
                        }
                    });
                    SimMatrix::from_row_shards(n, parts.into_iter().flatten().collect())
                });
                if single != sharded {
                    return Err("sharded Name matrix differs from single-shard".to_string());
                }
            }
            let cube = &outcome.stages.last().ok_or("plan produced no stage")?.cube;
            let aggregated = rec.time("combine.aggregate", op, || {
                combination.aggregation.aggregate(cube)
            });
            rec.time("combine.select", op, || {
                std::hint::black_box(DirectedCandidates::select(
                    &aggregated,
                    combination.direction,
                    &combination.selection,
                ))
            });
            Ok(())
        };
        if let Err(e) = rec.time("task", op, || guarded(task)) {
            out.fail(format!("{}: {e}", spec.label()));
        }
        op += 1;
    }
    let traced_ns = start.elapsed().as_nanos() as f64;

    let stage1_ms = rec.per_op_ms("engine.stage1");
    let execute_ms = rec.per_op_ms("engine.execute");
    out.set("engine.stage1_ms", stage1_ms);
    out.set("engine.execute_ms", execute_ms);
    out.set("engine.refine_ms", execute_ms - stage1_ms);
    out.set("engine.shards", mean(&c.shards));
    out.set("engine.fused_stages", mean(&c.fused));
    out.set("engine.stored_entries", mean(&c.stored));
    out.set("engine.survivor_ratio", ratio(c.survivors, c.cells));
    out.set("combine.aggregate_ms", rec.per_op_ms("combine.aggregate"));
    out.set("combine.select_ms", rec.per_op_ms("combine.select"));
    out.set("graph.pathset_ms", rec.per_op_ms("graph.pathset"));
    out.set("graph.paths", mean(&c.paths));
    if which == BatchPlan::Exact {
        out.set("matchers.name_ms", rec.per_op_ms("matchers.name"));
        out.set(
            "matchers.name_sharded_ms",
            rec.per_op_ms("matchers.name_sharded"),
        );
        out.set(
            "matchers.shard_speedup",
            ratio(
                rec.total_ms("matchers.name"),
                rec.total_ms("matchers.name_sharded"),
            ),
        );
    } else {
        out.set("index.build_ms", rec.per_op_ms("index.build"));
        out.set("index.postings", mean(&c.postings));
        out.set(
            "index.retrieved",
            ratio(c.retrieved, c.postings.len() as f64),
        );
        out.set("index.kept_ratio", ratio(c.kept, c.retrieved));
        out.set("index.recall", ratio(c.gold_kept, c.gold));
    }
    out.set(
        "trace.overhead",
        span_cost_ns() * rec.len() as f64 / traced_ns,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_keep_their_mix_across_seeds() {
        let (a, b) = (pool_specs(1), pool_specs(2));
        assert_eq!(a.len(), BLOCKS * BLOCK_LEN);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.shape, x.nodes), (y.shape, y.nodes));
            assert_ne!(x.seed, y.seed);
        }
        assert_eq!(a, pool_specs(1));
    }
}
