//! `perf_smoke` — the CI performance gate.
//!
//! Runs a deterministic benchmark suite — the evaluation corpus, the
//! generated large-schema workloads of [`WORKLOADS`], the repository's
//! file-backed persist, load and log append (`repo/*`) and the
//! `coma-server` service loop — writes the numbers as a version-5 report
//! (task wall times and candidate counts, within-run speedups, peak
//! allocations, fused peak ceilings, service throughput, static-analysis
//! prediction bounds) and optionally gates them against a committed
//! baseline:
//!
//! ```text
//! perf_smoke [--quick] [--out FILE] [--check BASELINE] [--calibrate-baseline GIT-REF|BIN]
//! ```
//!
//! * `--quick` — the CI subset: the eval corpus (correctness,
//!   candidate-index recall and transitive-reuse gates included), the
//!   rows of [`WORKLOADS`] marked [`Suite::Quick`] (the generated
//!   1200-node deep task and 2000-node catalog task), the repository and
//!   the service. The full suite runs every row.
//! * `--out FILE` — where to write the report (default `BENCH_PR10.json`
//!   in the current directory).
//! * `--check BASELINE` — compare against a version-5 baseline report and
//!   exit nonzero if a tracked number regresses. The rules are
//!   [`compare`]'s: candidate counts must match exactly (the workloads
//!   are seeded, so counts are machine-independent);
//!   calibration-normalized wall times may not regress by more than 25%,
//!   nor service throughput drop by more than 25%; dense/sparse speedups
//!   may neither drop below 2× nor lose more than 25%; a workload's
//!   dense/sparse peak-allocation *ratio* may not collapse below half the
//!   baseline's (the ratio is machine-comparable although those absolute
//!   peaks are not); a streaming-fused execution's absolute peak may not
//!   exceed the baseline's committed ceiling (fused peaks *are*
//!   machine-comparable: the engine budget-caps its in-flight memory
//!   instead of scaling it with the core count); and a measured execution
//!   peak may not exceed the *baseline's* committed static-analysis
//!   bound, nor may the freshly predicted bound grow past the committed
//!   one (the bound is a pure function of the seeded task statistics and
//!   the engine configuration, so both sides of that rule are
//!   machine-independent).
//! * `--calibrate-baseline GIT-REF|BIN` — re-measure the baseline *code*
//!   on this machine, in this run, and gate every wall-clock-shaped rule
//!   (wall times, service throughput, within-run speedup ratios,
//!   peak-allocation ratios) on the resulting relative comparison
//!   instead of the committed numbers. The operand is either a prebuilt
//!   `perf_smoke` binary or a git ref (built in a temporary worktree
//!   with its own target directory). The baseline binary runs twice —
//!   once before and once after the candidate measurement — and the
//!   per-entry *lenient* merge of the two bracketing runs is the
//!   reference (slowest wall, lowest throughput and speedup, largest
//!   peak), so ambient machine noise widens the allowance instead of
//!   being blamed on the change. Only the genuinely machine-independent
//!   rules (candidate counts, fused peak ceilings, prediction bounds)
//!   still gate against the committed `--check` numbers. Entries the
//!   calibrated baseline does not measure (new workloads) are not
//!   wall-gated that run.
//!
//! Every timed number is the best of [`RUNS`] repetitions unless its
//! measurement says otherwise. Wall times are normalized by a fixed
//! calibration workload measured in the same process, so baselines
//! recorded on one machine remain comparable on another. Peak
//! allocations come from the crate's counting global allocator
//! ([`coma_bench::alloc_track`]); they are recorded for every generated
//! workload and gated *in-process*: from 5000 nodes up, the dense
//! execution's peak must be at least [`MIN_ALLOC_RATIO`]× the sparse one
//! — the acceptance criterion of the sparse-storage refactor. Absolute
//! peaks are not gated across runs, because leaf fan-out parallelism
//! makes them (mildly) machine-dependent; only the ratio is (see above).
//!
//! A failing in-process gate does not stop the suite: it is recorded,
//! the remaining measurements run, the report is written with every
//! entry measured, and the run then prints every failure (in-process and
//! `--check`) and exits 1.

use coma_bench::alloc_track;
use coma_bench::workload::{generate_family, generate_task, WorkloadShape, WorkloadSpec};
use coma_core::plans::{
    candidate_index_plan, candidate_index_stage, fused_filter_plan, liberal_name_stage,
    topk_pruned_plan,
};
use coma_core::{
    shard_ranges, Coma, ComposeCombine, EngineConfig, MatchCandidate, MatchContext, MatchPlan,
    MatchStrategy, PlanAnalyzer, PlanEngine, PlanOutcome, SimMatrix, TaskStats, TopKPer,
};
use coma_eval::corpus::xsd_source;
use coma_eval::{fresh_task_mappings, reuse_repository, Corpus, MatchQuality, SCHEMA_NAMES, TASKS};
use coma_graph::{PathSet, Schema};
use coma_repo::{
    FileBackend, Mapping, MappingKind, MemoryBackend, PersistentRepository, Repository,
    RepositoryBackend,
};
use coma_server::{
    Client, InlineSchema, MatchConfig, MatchRequest, PlanSpec, Request, Response, SchemaFormat,
    SchemaRef, Server, ServerState,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use Schemas::{Family, Task};
use Suite::{Full, Quick};
use WorkloadShape::{Catalog, Deep, Star, Wide};

/// Track every allocation of the process so dense/sparse peak comparisons
/// cover the real execution, transients included.
#[global_allocator]
static ALLOC: alloc_track::CountingAllocator = alloc_track::CountingAllocator;

/// One measured task.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TaskEntry {
    /// Task identifier, stable across runs.
    task: String,
    /// Best-of-N wall time in milliseconds.
    wall_ms: f64,
    /// Number of selected candidates (deterministic per workload).
    candidates: u64,
}

/// A within-run dense/sparse speedup (machine-independent ratio).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SpeedupEntry {
    task: String,
    speedup: f64,
}

/// Peak live bytes during one plan execution (counting allocator).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AllocEntry {
    task: String,
    peak_bytes: u64,
}

/// A peak-allocation *ceiling*: the measured peak of a streaming-fused
/// execution plus the hard bound it must stay under. Unlike the dense
/// peaks in [`AllocEntry`], these absolute numbers are machine-comparable
/// across runs: the fused engine caps its in-flight memory by a fixed
/// byte budget (1 GiB, in the engine's rules module), not by the core
/// count.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CeilingEntry {
    task: String,
    peak_bytes: u64,
    ceiling_bytes: u64,
}

/// Service throughput: completed match requests per second against a
/// running `coma-server`, measured end to end through the unix-socket
/// client at a fixed concurrent-client count. Wall-clock-shaped, so the
/// cross-run gate normalizes by calibration (or, better, compares
/// against an interleaved `--calibrate-baseline` run).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ThroughputEntry {
    task: String,
    /// Concurrent client connections driving the server.
    clients: u64,
    /// Completed match requests per second across all clients.
    tasks_per_sec: f64,
}

/// A static-analysis prediction checked against one tracked execution:
/// the `PlanAnalyzer`'s pre-execution peak-allocation upper bound next
/// to the peak the counting allocator then measured. The per-stage
/// storage/fusion agreement is gated in-process during measurement (a
/// disagreement fails the run outright); what the trajectory carries is
/// the memory bound, because it is the one prediction with a committed
/// cross-run contract: `predicted_bytes` depends only on the seeded task
/// statistics and the engine configuration, so a future run's measured
/// peak exceeding a *committed* bound is a soundness break, not noise.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PredictionEntry {
    task: String,
    /// The analyzer's pre-execution upper bound.
    predicted_bytes: u64,
    /// What the counting allocator measured for the gated execution.
    measured_bytes: u64,
}

/// The emitted/compared report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct BenchReport {
    version: u32,
    /// Wall time of the fixed calibration workload on this machine.
    calibration_ms: f64,
    tasks: Vec<TaskEntry>,
    speedups: Vec<SpeedupEntry>,
    /// Peak allocations per generated workload (recorded, gated
    /// in-process only).
    allocs: Vec<AllocEntry>,
    /// Fused-execution peak ceilings. Gated both in-process and across
    /// runs.
    ceilings: Vec<CeilingEntry>,
    /// Service throughput.
    throughput: Vec<ThroughputEntry>,
    /// Static-analysis prediction bounds. Gated both in-process and
    /// across runs.
    predictions: Vec<PredictionEntry>,
}

impl BenchReport {
    fn task(&mut self, task: impl Into<String>, wall_ms: f64, candidates: u64) {
        let task = task.into();
        self.tasks.push(TaskEntry {
            task,
            wall_ms,
            candidates,
        });
    }

    fn speedup(&mut self, task: impl Into<String>, speedup: f64) {
        let task = task.into();
        self.speedups.push(SpeedupEntry { task, speedup });
    }

    fn alloc(&mut self, task: impl Into<String>, peak_bytes: usize) {
        let task = task.into();
        let peak_bytes = peak_bytes as u64;
        self.allocs.push(AllocEntry { task, peak_bytes });
    }
}

/// Best-of repetitions of every timed measurement (fewer where noted).
const RUNS: usize = 3;
/// The pruned plans' per-element budget: `TopK`'s `k` and the candidate
/// index's retrieval cap.
const BUDGET: usize = 5;
/// Maximum tolerated regression of normalized wall times and speedups.
const TOLERANCE: f64 = 0.25;
/// Hard floor on the dense/sparse speedup (the acceptance criterion).
const MIN_SPEEDUP: f64 = 2.0;
/// Hard floor on the dense/sparse peak-allocation ratio of the workloads
/// from 5000 nodes up (the sparse-storage acceptance criterion).
const MIN_ALLOC_RATIO: f64 = 4.0;
/// Hard ceiling on the streaming-fused `deep100000` execution's peak
/// allocations — the fusion acceptance criterion. One dense matrix at
/// that scale would be ~75 GiB; the fused pipeline must finish the whole
/// plan in under 3 GiB, on any machine (the engine's in-flight memory is
/// budget-capped, not core-scaled).
const FUSED_PEAK_CEILING: u64 = 3 * (1 << 30);
/// Maximum tolerated drop of the corpus-average F-measure of composed
/// transitive reuse below fresh matching — the reuse acceptance
/// criterion (Table 5 of the paper: reuse rivals fresh quality at a
/// fraction of the cost). Both sides are deterministic, so this gates
/// in-process on every run: measured 0.699 composed vs 0.724 fresh
/// (gap 0.025) at the time the tolerance was committed.
const REUSE_F1_TOLERANCE: f64 = 0.05;
/// Best-of repetitions of the `repo/*` measurements: one persist takes
/// milliseconds, so its best-of needs ten times a plan's samples.
const PERSIST_RUNS: usize = 10 * RUNS;
/// Slots of renamed corpus copies in the `repo/persist` store: enough to
/// bring the snapshot to the `serve_write` benchmark's steady-state
/// ~0.7 MB (whose store also holds generated DDL schemas; the extra
/// copies stand in for them).
const PERSIST_COPY_SLOTS: usize = 14;

/// How a row's schemas are generated.
#[derive(Clone, Copy, PartialEq)]
enum Schemas {
    /// A match task: a source and its perturbed target ([`generate_task`]).
    Task,
    /// A three-member schema family ([`generate_family`]).
    Family,
}

/// The runs that measure a row.
#[derive(Clone, Copy, PartialEq)]
enum Suite {
    /// `--quick` runs as well as full ones.
    Quick,
    /// Full runs only.
    Full,
}

/// A measurement on a generated [`Workload`]: it appends its entries to
/// the report and returns an error when one of its in-process gates
/// fails, which the run records before going on.
type Measure = fn(&Coma, &Workload, &mut BenchReport) -> Result<(), String>;

/// One row of [`WORKLOADS`]: a shape and node count (seed 42), how the
/// schemas are generated, the runs that measure it, and the measurements
/// that run on it, in report order.
struct Row(WorkloadShape, usize, Schemas, Suite, &'static [Measure]);

/// The generated workloads, in report order. Each row's schemas and path
/// sets are built once, and every measurement it lists runs on them.
///
/// The deep 1200-node task is the wall-time acceptance workload:
/// structural matchers dominate it, so the sparse path shows its full
/// ≥2x margin. `catalog2000` is its vocabulary-rich counterpart in the
/// quick suite: 1,607 × 1,750 distinct element names against
/// `deep1200`'s 378 × 511, so the execution's name table is large. `deep5000` is the sparse-*storage* acceptance workload,
/// big enough that dense stage cubes dominate memory (its dense execution
/// is the "infeasible-or-slow" end of the scale). `deep20000` carries the
/// row-sharding measurement and, with `catalog5000`, the candidate-index
/// race; the `deep1200` family the workload-scale reuse race; and
/// `deep100000` the streaming-fused memory ceiling.
const WORKLOADS: [Row; 9] = [
    Row(Deep, 1_200, Task, Quick, &[topk_modes]),
    Row(Star, 1_000, Task, Full, &[topk_modes]),
    Row(Wide, 1_500, Task, Full, &[topk_modes]),
    Row(Catalog, 2_000, Task, Quick, &[topk_modes]),
    Row(Deep, 5_000, Task, Full, &[topk_modes]),
    Row(Deep, 20_000, Task, Full, &[name_stage, index_race]),
    Row(Catalog, 5_000, Task, Full, &[index_race]),
    Row(Deep, 1_200, Family, Full, &[family_reuse]),
    Row(Deep, 100_000, Task, Full, &[fused_ceiling]),
];

/// A generated row's schemas and their path sets.
struct Workload {
    /// `gen/<spec>` for a match task, `gen/family_<spec>` for a family.
    label: String,
    nodes: usize,
    /// Best-of repetitions of a timed plan: one from 5000 nodes up.
    runs: usize,
    /// The task's source and target, or the family's members.
    schemas: Vec<Schema>,
    paths: Vec<PathSet>,
}

impl Workload {
    fn generate(&Row(shape, nodes, schemas, ..): &Row) -> Result<Workload, String> {
        let spec = WorkloadSpec::new(shape, nodes, 42);
        let (prefix, schemas) = match schemas {
            Family => ("family_", generate_family(&spec, 3)),
            Task => {
                let (source, target) = generate_task(&spec);
                ("", vec![source, target])
            }
        };
        let label = format!("gen/{prefix}{}", spec.label());
        let paths = schemas.iter().map(PathSet::new).collect::<Result<_, _>>();
        let paths = paths.map_err(|e| e.to_string())?;
        let runs = if nodes >= 5000 { 1 } else { RUNS };
        Ok(Workload {
            label,
            nodes,
            runs,
            schemas,
            paths,
        })
    }

    /// The context matching schema `a` against schema `b`; `(0, 1)` is
    /// the match task.
    fn context<'a>(&'a self, coma: &'a Coma, a: usize, b: usize) -> MatchContext<'a> {
        let (schemas, paths) = (&self.schemas, &self.paths);
        MatchContext::new(&schemas[a], &schemas[b], &paths[a], &paths[b], coma.aux())
    }
}

#[derive(Default)]
struct Options {
    quick: bool,
    out: String,
    check: Option<String>,
    calibrate: Option<String>,
}

const USAGE: &str = "usage: perf_smoke [--quick] [--out FILE] [--check BASELINE] \
                     [--calibrate-baseline GIT-REF|BIN]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_PR10.json".to_string(),
        ..Options::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut operand = || args.next().ok_or(format!("{arg} needs an operand"));
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out = operand()?,
            "--check" => opts.check = Some(operand()?),
            "--calibrate-baseline" => opts.calibrate = Some(operand()?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.calibrate.is_some() && opts.check.is_none() {
        return Err("--calibrate-baseline refines the gate and needs --check".into());
    }
    Ok(opts)
}

/// The `repo/persist` store: the corpus schemas and their gold mappings
/// (the `serve_write` base repository), plus, per slot, renamed copies
/// `s{slot}x/y/z` of three corpus schemas and stored mappings `x→y`,
/// `y→z` carrying the renamed gold correspondences with deterministic
/// full-precision similarities.
fn persist_repository(corpus: &Corpus) -> Result<Repository, String> {
    let mut repo = Repository::new();
    for i in 0..SCHEMA_NAMES.len() {
        repo.put_schema(corpus.schema(i).clone());
    }
    for &(i, j) in &TASKS {
        repo.put_mapping(corpus.gold_mapping(i, j));
    }
    let triples: Vec<[usize; 3]> = (0..5)
        .flat_map(|a| (a + 1..5).flat_map(move |b| (b + 1..5).map(move |c| [a, b, c])))
        .collect();
    let mut k = 0u32;
    for (slot, picked) in triples.iter().cycle().take(PERSIST_COPY_SLOTS).enumerate() {
        let names = ["x", "y", "z"].map(|tag| format!("s{slot}{tag}"));
        for (name, &i) in names.iter().zip(picked) {
            let copy = coma_xml::import_xsd(xsd_source(i), name).map_err(|e| e.to_string())?;
            repo.put_schema(copy);
        }
        for (a, b) in [(0, 1), (1, 2)] {
            let (i, j) = (picked[a], picked[b]);
            let rename = |path: &str, from: usize, to: &str| {
                format!("{to}{}", &path[SCHEMA_NAMES[from].len()..])
            };
            let mut mapping = Mapping::new(&names[a], &names[b], MappingKind::Automatic);
            for (s, t) in corpus.gold_names(i, j) {
                k += 1;
                let sim = 0.5 + 0.5 * (f64::from(k) * 0.618_033_988_749_895).fract();
                mapping.push(rename(&s, i, &names[a]), rename(&t, j, &names[b]), sim);
            }
            repo.put_mapping(mapping);
        }
    }
    Ok(repo)
}

/// The `repo/append` measurement on `store`, persisted at `path`: the
/// best-of-[`PERSIST_RUNS`] wall and the peak heap of one `mutate` that re-stores
/// the store's largest mapping (a `serve_write`-sized one: a stored
/// top-5 match of two corpus schemas is 4–7 kB of JSON), and the byte
/// length of the log frame each such call appends. Every call re-stores
/// the same key, so the frames are identical and the snapshot stays as
/// persisted; a call before the window writes the log's header, which
/// hashes the snapshot.
fn measure_append(store: &Repository, path: &Path) -> Result<(f64, usize, u64), String> {
    let mapping = store
        .mappings()
        .iter()
        .max_by_key(|m| m.correspondences.len())
        .ok_or("no mapping in the store")?;
    let handle = PersistentRepository::open(FileBackend::new(path)).map_err(|e| e.to_string())?;
    let put = || handle.mutate(|r| r.put_mapping(mapping.clone()));
    put().map_err(|e| e.to_string())?;
    let log = FileBackend::new(path).log_path().to_path_buf();
    let log_len = || {
        std::fs::metadata(&log)
            .map(|m| m.len())
            .map_err(|e| e.to_string())
    };
    let snapshot = std::fs::read(path).map_err(|e| e.to_string())?;
    let before = log_len()?;
    let (ms, stored) = time_best(PERSIST_RUNS, put);
    stored.map_err(|e| e.to_string())?;
    let frame = (log_len()? - before) / PERSIST_RUNS as u64;
    let (peak, stored) = alloc_track::measure_peak(put);
    stored.map_err(|e| e.to_string())?;
    if std::fs::read(path).map_err(|e| e.to_string())? != snapshot {
        return Err("a compaction ran inside the measured window".into());
    }
    Ok((ms, peak, frame))
}

/// Best-of-N wall time of `f`, returning (ms, last result). The previous
/// run's result is dropped *before* the timer starts — the drop is not
/// the code under test, and holding it across the next run would double
/// the peak footprint of the multi-GiB workloads.
fn time_best<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best, mut out) = (f64::INFINITY, None);
    for _ in 0..runs {
        drop(out.take());
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("runs > 0"))
}

/// The three execution modes the suite measures. `Dense` is the oracle:
/// no sparse storage and, by implication, no fusion. `Sparse` is sparse
/// storage with fusion explicitly off — the exact path the dense/sparse
/// trajectory entries have always measured. `Fused` is the engine's
/// default configuration, streaming-fused pruning included.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Dense,
    Sparse,
    Fused,
}

impl Mode {
    /// The engine configuration of the mode — shared between [`run_plan`]
    /// and the static analysis gated against it, so the analyzer predicts
    /// exactly the configuration that then runs.
    fn config(self) -> EngineConfig {
        match self {
            Mode::Dense => EngineConfig::default().with_sparse(false),
            Mode::Sparse => EngineConfig::default().with_fuse_pruning(false),
            Mode::Fused => EngineConfig::default(),
        }
    }

    /// The suffix of the mode's entries.
    fn name(self) -> &'static str {
        match self {
            Mode::Dense => "dense",
            Mode::Sparse => "sparse",
            Mode::Fused => "fused",
        }
    }
}

/// Executes `plan` on a prepared context in the given execution mode.
fn run_plan(coma: &Coma, ctx: &MatchContext<'_>, plan: &MatchPlan, mode: Mode) -> PlanOutcome {
    PlanEngine::with_config(coma.library(), mode.config())
        .execute(ctx, plan)
        .expect("plan executes")
}

/// The static-analysis soundness gate: analyzes `plan` under the mode's
/// engine configuration and checks every definite prediction against an
/// execution that actually ran — per-stage storage and fusion decisions
/// must agree with the `StageOutcome`s (`Maybe` predictions are
/// compatible with either outcome; that is the lattice's job), and the
/// measured peak must stay under the predicted upper bound. Any
/// violation fails the whole suite; on success the bound/measurement
/// pair is returned for the trajectory file, where future runs gate
/// against the committed bound.
fn gate_predictions(
    coma: &Coma,
    stats: &TaskStats,
    plan: &MatchPlan,
    mode: Mode,
    task: &str,
    outcome: &PlanOutcome,
    measured_peak: usize,
) -> Result<PredictionEntry, String> {
    let measured_peak = measured_peak as u64;
    let analysis = PlanAnalyzer::new(coma.library(), mode.config()).analyze(plan, stats);
    if analysis.has_errors() {
        let first = analysis.diagnostics.first().map(|d| d.to_string());
        let first = first.unwrap_or_default();
        return Err(format!(
            "{task}: the analyzer rejected a valid plan: {first}"
        ));
    }
    for stage in &outcome.stages {
        let storage = analysis.storage_prediction(&stage.label);
        let fused = analysis.fused_prediction(&stage.label);
        let sparse = stage.cube.all_sparse();
        if !storage.agrees_with(sparse) || !fused.agrees_with(stage.fused) {
            return Err(format!(
                "{task}: stage `{}` was predicted storage_sparse={storage}, fused={fused} but \
                 executed all_sparse={sparse}, fused={}",
                stage.label, stage.fused
            ));
        }
    }
    if measured_peak > analysis.peak_bytes {
        return Err(format!(
            "{task}: measured peak {measured_peak} bytes exceeds the analyzer's predicted \
             bound of {} bytes",
            analysis.peak_bytes
        ));
    }
    eprintln!(
        "# {task}: predicted peak <= {:.1} MiB, measured {:.1} MiB ({:.1}x headroom)",
        mib(analysis.peak_bytes),
        mib(measured_peak),
        analysis.peak_bytes as f64 / (measured_peak as f64).max(1.0),
    );
    Ok(PredictionEntry {
        task: task.to_string(),
        predicted_bytes: analysis.peak_bytes,
        measured_bytes: measured_peak,
    })
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// The fixed calibration workload: a pure integer/memory kernel that is
/// **independent of the matcher code under test**, so wall times
/// normalize across machine speeds without a uniform matcher regression
/// cancelling out of the normalization.
fn calibration_ms() -> f64 {
    let (ms, _) = time_best(RUNS, || {
        let mut buf: Vec<u64> = (0..1 << 20).collect();
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for round in 0..24u64 {
            for v in buf.iter_mut() {
                acc = (acc ^ (*v).wrapping_add(round)).wrapping_mul(0x0100_0000_01b3);
                *v = acc;
            }
        }
        std::hint::black_box(acc)
    });
    ms
}

/// The context of corpus task `i -> j`.
fn corpus_task(corpus: &Corpus, (i, j): (usize, usize)) -> MatchContext<'_> {
    let (s, t) = (corpus.schema(i), corpus.schema(j));
    MatchContext::new(s, t, corpus.path_set(i), corpus.path_set(j), corpus.aux())
}

/// The full names of the candidates an execution selected, for scoring
/// against a gold standard.
fn found_names(ctx: &MatchContext<'_>, outcome: &PlanOutcome) -> BTreeSet<(String, String)> {
    let names = |c: &MatchCandidate| {
        let source = ctx.source_full_name(c.source.index());
        (source, ctx.target_full_name(c.target.index()))
    };
    outcome.result.candidates.iter().map(names).collect()
}

/// The composition plan both reuse races run: chains of up to three
/// hops over the stored mappings, averaged.
fn reuse_plan() -> MatchPlan {
    MatchPlan::reuse_chains(None, ComposeCombine::Average, 3).expect("max_hops >= 2")
}

/// One side of the corpus reuse race, summed over the tasks.
#[derive(Default)]
struct RaceTotals {
    ms: f64,
    f_sum: f64,
    true_positives: u64,
}

impl RaceTotals {
    fn add(&mut self, ms: f64, quality: MatchQuality) {
        self.ms += ms;
        self.f_sum += quality.f_measure();
        self.true_positives += quality.true_positives as u64;
    }
}

/// The evaluation corpus: the flat, pruned and iterated plans timed on
/// the largest task, the analyzer gated on one tracked execution there,
/// then three in-process gates on every task.
///
/// * **Agreement** — dense, sparse and fused execution of the pruned plan
///   are bit-identical (`eval/topk_corpus_total` sums the candidates).
/// * **Recall** — the inverted-index candidate generator may not miss
///   gold matches the exact prefilter finds. The first stage of the
///   candidate-index plan (retrieval capped at 5 per element, re-ranked
///   by the masked liberal `Name` stage and pruned to its 5 best per
///   element — exactly the candidate set `candidate_index_plan`'s refine
///   gets to see) must reach at least the recall-vs-gold of the exact
///   plan's budget-matched prefilter: the liberal `Name` stage pruned to
///   its own 5 best per element, which is precisely what
///   `topk_pruned_plan`'s refine gets to see. A gold pair the index drops
///   while the dense cross-product prefilter keeps it would be a quality
///   regression hiding behind the wall-time win
///   (`eval/cidx_recall_total` sums the index's true positives).
/// * **Transitive reuse** (the paper's Table 5 setting) — each task,
///   leave-one-out: the other nine paper-default results are stored in a
///   repository and the task is answered by composing pivot chains over
///   the stored-mapping graph, never by fresh matching. Every task must
///   find a pivot path (nine mappings over five schemas always connect
///   the excluded pair), the corpus-average composed F-measure must stay
///   within [`REUSE_F1_TOLERANCE`] of fresh matching, and the composed
///   total must be strictly faster than the fresh total — reuse that
///   loses the wall-time race has no reason to exist. The
///   `eval/reuse_{fresh,sparse}` candidate slots carry true-positive
///   totals against gold (machine-independent), so baselines gate reuse
///   quality exactly.
fn measure_corpus(corpus: &Corpus, coma: &Coma, report: &mut BenchReport) -> Result<(), String> {
    let &largest_task = TASKS
        .iter()
        .max_by_key(|&&(i, j)| corpus.path_set(i).len() * corpus.path_set(j).len())
        .expect("corpus has tasks");
    let largest = corpus_task(corpus, largest_task);
    let flat = MatchPlan::from(&MatchStrategy::paper_default());
    let pruned = topk_pruned_plan(BUDGET);
    let (ms, outcome) = time_best(RUNS, || run_plan(coma, &largest, &flat, Mode::Sparse));
    report.task("eval/all_largest", ms, outcome.result.len() as u64);
    let (ms, outcome) = time_best(RUNS, || run_plan(coma, &largest, &pruned, Mode::Sparse));
    report.task("eval/topk_sparse_largest", ms, outcome.result.len() as u64);
    let stats = TaskStats::gather(&largest);
    let (peak, outcome) =
        alloc_track::measure_peak(|| run_plan(coma, &largest, &pruned, Mode::Fused));
    let task = "eval/predict_topk_largest";
    let gated = gate_predictions(coma, &stats, &pruned, Mode::Fused, task, &outcome, peak)?;
    report.predictions.push(gated);
    let iterated = flat.clone().iterate(4, 1e-6).expect("max_rounds > 0");
    let (ms, outcome) = time_best(RUNS, || run_plan(coma, &largest, &iterated, Mode::Sparse));
    report.task("eval/iterate_largest", ms, outcome.result.len() as u64);

    let exact_stage = liberal_name_stage()
        .top_k(BUDGET, TopKPer::Both)
        .expect("k > 0");
    let cidx_stage = candidate_index_stage(BUDGET);
    let fresh_mappings = fresh_task_mappings(corpus);
    let reuse_plan = reuse_plan();
    let (mut agreed, mut cidx_true_positives) = (0, 0);
    let (mut fresh, mut reuse) = (RaceTotals::default(), RaceTotals::default());
    for &(i, j) in &TASKS {
        let ctx = corpus_task(corpus, (i, j));
        let run = |plan: &MatchPlan, mode| run_plan(coma, &ctx, plan, mode);
        let dense = run(&pruned, Mode::Dense).result;
        for mode in [Mode::Sparse, Mode::Fused] {
            if run(&pruned, mode).result != dense {
                let mode = mode.name();
                return Err(format!(
                    "{mode} and dense results diverge on eval task {i}->{j}"
                ));
            }
        }
        agreed += dense.len() as u64;

        let gold = corpus.gold_names(i, j);
        let quality = |ctx: &MatchContext<'_>, outcome: &PlanOutcome| {
            MatchQuality::compare(&gold, &found_names(ctx, outcome))
        };
        let exact_recall = quality(&ctx, &run(&exact_stage, Mode::Sparse)).recall();
        let cidx = quality(&ctx, &run(&cidx_stage, Mode::Sparse));
        if cidx.recall() < exact_recall {
            return Err(format!(
                "candidate-index recall {:.3} fell below the exact first stage's {exact_recall:.3} \
                 on eval task {i}->{j}",
                cidx.recall()
            ));
        }
        cidx_true_positives += cidx.true_positives as u64;

        let repo = reuse_repository(corpus, &fresh_mappings, (i, j));
        let ctx = ctx.with_repository(&repo);
        let (fresh_ms, fresh_outcome) =
            time_best(RUNS, || run_plan(coma, &ctx, &flat, Mode::Sparse));
        let (reuse_ms, reuse_outcome) =
            time_best(RUNS, || run_plan(coma, &ctx, &reuse_plan, Mode::Sparse));
        let found_paths = reuse_outcome
            .stages
            .first()
            .and_then(|s| s.reuse_stats.as_ref())
            .is_some_and(|s| !s.paths.is_empty());
        if !found_paths {
            return Err(format!(
                "eval/reuse: no pivot path on task {i}->{j} despite nine stored mappings"
            ));
        }
        fresh.add(fresh_ms, quality(&ctx, &fresh_outcome));
        reuse.add(reuse_ms, quality(&ctx, &reuse_outcome));
    }
    eprintln!(
        "# eval corpus: sparse == dense == fused, and candidate-index recall >= exact \
         first-stage recall, on all {} tasks",
        TASKS.len()
    );
    report.task("eval/topk_corpus_total", 0.0, agreed);
    report.task("eval/cidx_recall_total", 0.0, cidx_true_positives);

    let corpus_tasks = TASKS.len() as f64;
    let (fresh_f, reuse_f) = (fresh.f_sum / corpus_tasks, reuse.f_sum / corpus_tasks);
    if reuse_f < fresh_f - REUSE_F1_TOLERANCE {
        return Err(format!(
            "eval/reuse: corpus-average composed F {reuse_f:.3} fell more than \
             {REUSE_F1_TOLERANCE} below fresh matching's {fresh_f:.3}"
        ));
    }
    if reuse.ms >= fresh.ms {
        return Err(format!(
            "eval/reuse: composed total {:.1} ms is not faster than the fresh total {:.1} ms",
            reuse.ms, fresh.ms
        ));
    }
    let speedup = fresh.ms / reuse.ms;
    eprintln!(
        "# eval/reuse: composed avg F {reuse_f:.3} vs fresh {fresh_f:.3}, {:.1} ms vs {:.1} ms \
         ({speedup:.1}x)",
        reuse.ms, fresh.ms
    );
    report.task("eval/reuse_fresh", fresh.ms, fresh.true_positives);
    report.task("eval/reuse_sparse", reuse.ms, reuse.true_positives);
    report.speedup("eval/reuse", speedup);
    Ok(())
}

/// The pruned plan in the three execution modes (`_topk_{dense,sparse,fused}`).
/// Peak allocations first, one tracked run per mode, then the timed
/// best-of runs. Each tracked run doubles as the static-analysis
/// soundness gate for its mode (`_predict_topk_*`): predicted
/// storage/fusion per stage must agree with what executed, and the
/// measured peak must stay under the predicted bound. The three results
/// must be identical; the streaming-fused mode is recorded under its own
/// entries, so the dense/sparse ones keep measuring the storage paths
/// they always measured.
fn topk_modes(coma: &Coma, w: &Workload, report: &mut BenchReport) -> Result<(), String> {
    let (label, ctx, plan) = (&w.label, w.context(coma, 0, 1), topk_pruned_plan(BUDGET));
    let stats = TaskStats::gather(&ctx);
    let tracked = |mode| alloc_track::measure_peak(|| run_plan(coma, &ctx, &plan, mode));
    let predictions = &mut report.predictions;
    let mut predict = |mode: Mode, outcome: &PlanOutcome, peak| -> Result<(), String> {
        let task = format!("{label}_predict_topk_{}", mode.name());
        predictions.push(gate_predictions(
            coma, &stats, &plan, mode, &task, outcome, peak,
        )?);
        Ok(())
    };
    let (sparse_peak, sparse) = tracked(Mode::Sparse);
    let (dense_peak, dense) = tracked(Mode::Dense);
    if sparse.result != dense.result {
        return Err(format!("sparse and dense results diverge on {label}"));
    }
    predict(Mode::Dense, &dense, dense_peak)?;
    drop(dense);
    let (fused_peak, fused) = tracked(Mode::Fused);
    if fused.result != sparse.result {
        return Err(format!("fused and unfused results diverge on {label}"));
    }
    predict(Mode::Sparse, &sparse, sparse_peak)?;
    predict(Mode::Fused, &fused, fused_peak)?;
    drop((sparse, fused));

    let timed = |mode| {
        let (ms, outcome) = time_best(w.runs, || run_plan(coma, &ctx, &plan, mode));
        (ms, outcome.result.len() as u64)
    };
    let (sparse_ms, sparse_candidates) = timed(Mode::Sparse);
    let (dense_ms, dense_candidates) = timed(Mode::Dense);
    let (fused_ms, fused_candidates) = timed(Mode::Fused);
    let speedup = dense_ms / sparse_ms;
    let alloc_ratio = dense_peak as f64 / (sparse_peak as f64).max(1.0);
    eprintln!(
        "# {label}: dense {dense_ms:.0} ms, sparse {sparse_ms:.0} ms ({speedup:.2}x), \
         fused {fused_ms:.0} ms; peak alloc dense {:.0} MiB vs sparse {:.0} MiB \
         ({alloc_ratio:.2}x) vs fused {:.0} MiB, {} candidates",
        mib(dense_peak as u64),
        mib(sparse_peak as u64),
        mib(fused_peak as u64),
        sparse_candidates
    );
    if w.nodes >= 5000 && alloc_ratio < MIN_ALLOC_RATIO {
        return Err(format!(
            "{label}: dense/sparse peak-allocation ratio {alloc_ratio:.2}x fell below the \
             {MIN_ALLOC_RATIO}x floor ({dense_peak} vs {sparse_peak} bytes)"
        ));
    }
    for (mode, ms, candidates, peak) in [
        (Mode::Dense, dense_ms, dense_candidates, dense_peak),
        (Mode::Sparse, sparse_ms, sparse_candidates, sparse_peak),
        (Mode::Fused, fused_ms, fused_candidates, fused_peak),
    ] {
        let task = format!("{label}_topk_{}", mode.name());
        report.task(&task, ms, candidates);
        report.alloc(task, peak);
    }
    report.speedup(format!("{label}_topk"), speedup);
    Ok(())
}

/// The row-sharding measurement (`_name_stage_{shard1,sharded}`): the
/// unrestricted first stage — the liberal `Name` filter's
/// full-cross-product matrix (~20k × ~20k on `deep20000`, one ~3 GiB
/// dense buffer) — computed once by one single-shard `Matcher::compute`
/// and once as `compute_rows` over `shard_ranges` on scoped threads with
/// `from_row_shards` assembly (the engine's `compute_unrestricted`,
/// spelled out so each side is pinned), verified bit-identical. The
/// downstream candidate selection is deliberately excluded: it is
/// unsharded, an order of magnitude slower than the matrix at this size,
/// and would drown the signal in Amdahl overhead. The shard count is the
/// engine's own policy — `available_parallelism()` — so the numbers
/// describe what production execution does: scaling with the worker
/// count on multi-core machines, and a true no-op (speedup ≈ 1.0, single
/// shard, no assembly) on one CPU, where the engine never shards — which
/// is why [`compare`] exempts `_name_stage` speedups from the 2× floor.
/// A machine-independent fingerprint of the matrix fills both
/// `candidates` slots: the number of cells at or above the liberal
/// stage's 0.3 threshold, which any cross-machine bit drift would move.
fn name_stage(coma: &Coma, w: &Workload, report: &mut BenchReport) -> Result<(), String> {
    let (label, ctx) = (&w.label, w.context(coma, 0, 1));
    let name = coma.library().get("Name").expect("standard library");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ranges = shard_ranges(ctx.rows(), workers);
    // Warm-up, untimed: the process's first ~3 GiB allocation pays
    // one-off kernel costs (page zeroing, cgroup charge growth) that
    // would bias whichever side is measured first by 2-3x.
    drop(std::hint::black_box(name.compute(&ctx)));
    // One dense matrix here is ~3 GiB: two timed repetitions, not three.
    let (single_ms, single) = time_best(2, || name.compute(&ctx));
    let (sharded_ms, assembled) = time_best(2, || {
        let mut parts: Vec<Option<SimMatrix>> = (0..ranges.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (slot, range) in parts.iter_mut().zip(&ranges) {
                let (name, ctx, range) = (&name, &ctx, range.clone());
                scope.spawn(move || *slot = Some(name.compute_rows(ctx, range)));
            }
        });
        SimMatrix::from_row_shards(
            ctx.cols(),
            parts.into_iter().map(|p| p.expect("shard ran")).collect(),
        )
    });
    if assembled != single {
        return Err(format!(
            "sharded assembly diverges from the single-shard matrix on {label}"
        ));
    }
    let fingerprint = (0..ctx.rows())
        .map(|i| assembled.row_entries(i).filter(|&(_, v)| v >= 0.3).count() as u64)
        .sum::<u64>();
    let speedup = single_ms / sharded_ms;
    eprintln!(
        "# {label}: dense Name stage matrix {single_ms:.0} ms single-shard, \
         {sharded_ms:.0} ms in {} shard(s) ({speedup:.2}x), {fingerprint} cells >= 0.3",
        ranges.len(),
    );
    for (side, ms) in [("shard1", single_ms), ("sharded", sharded_ms)] {
        report.task(format!("{label}_name_stage_{side}"), ms, fingerprint);
    }
    report.speedup(format!("{label}_name_stage"), speedup);
    Ok(())
}

/// The `CandidateIndex` acceptance race (`_plan_{exact,cidx}`): the full
/// retrieve→rerank→refine plan (`candidate_index_plan`) must beat the
/// exact two-stage plan (`topk_pruned_plan`, same 5-per-element refine
/// budget) end to end, both in the engine's default configuration. It
/// runs on `deep20000`, whose exact first stage is the ~3 GiB
/// cross-product matrix, and on `catalog5000`, the token-dense shape
/// built for vocabulary retrieval, at a size where the exact first stage
/// genuinely hurts (at 2000 nodes both first stages cost a few hundred
/// ms and the race drowns in noise). The index plan's first stage never
/// scores the m×n cross product; its reported `index_stats` are required,
/// so a silent fallback to dense scoring cannot masquerade as a win.
fn index_race(coma: &Coma, w: &Workload, report: &mut BenchReport) -> Result<(), String> {
    let (label, ctx) = (&w.label, w.context(coma, 0, 1));
    let (exact_plan, cidx_plan) = (topk_pruned_plan(BUDGET), candidate_index_plan(BUDGET));
    let timed = |plan: &MatchPlan| time_best(w.runs, || run_plan(coma, &ctx, plan, Mode::Fused));
    let (exact_ms, exact) = timed(&exact_plan);
    let (cidx_ms, cidx) = timed(&cidx_plan);
    let no_stats = || format!("{label}: the candidate-index stage reported no index statistics");
    let stats = cidx.stages.first().and_then(|s| s.index_stats);
    let stats = stats.ok_or_else(no_stats)?;
    let speedup = exact_ms / cidx_ms;
    eprintln!(
        "# {label}: exact two-stage {exact_ms:.0} ms vs candidate-index {cidx_ms:.0} ms \
         ({speedup:.2}x); index built in {:.1} ms ({} token + {} gram posting entries), \
         {} vs {} candidates",
        stats.build_nanos as f64 / 1e6,
        stats.token_postings,
        stats.gram_postings,
        exact.result.len(),
        cidx.result.len(),
    );
    for (plan, ms, outcome) in [("exact", exact_ms, exact), ("cidx", cidx_ms, cidx)] {
        report.task(
            format!("{label}_plan_{plan}"),
            ms,
            outcome.result.len() as u64,
        );
    }
    report.speedup(format!("{label}_plan"), speedup);
    if cidx_ms >= exact_ms {
        return Err(format!(
            "{label}: the candidate-index plan ({cidx_ms:.0} ms) did not beat the exact \
             two-stage plan ({exact_ms:.0} ms)"
        ));
    }
    Ok(())
}

/// Transitive reuse at workload scale (`family_*`): the corpus reuse gate
/// answers the quality question at paper scale, this one the wall-time
/// question. Of three near-duplicate members, F0↔F1 and F1↔F2 are matched
/// fresh with the pruned plan and stored; the held-out F0↔F2 task is then
/// answered by composition over the F1 pivot and raced against matching
/// it fresh. Composition walks stored mappings, never matchers, so it
/// must beat fresh matching outright. The entries follow the
/// `_fresh`/`_sparse` naming so [`compare`]'s speedup waiver finds the
/// fast side.
fn family_reuse(coma: &Coma, w: &Workload, report: &mut BenchReport) -> Result<(), String> {
    let (label, pivot) = (&w.label, w.schemas[1].name());
    let fresh_plan = topk_pruned_plan(BUDGET);
    let mut repo = Repository::new();
    for member in &w.schemas {
        repo.put_schema(member.clone());
    }
    for (i, j) in [(0, 1), (1, 2)] {
        let ctx = w.context(coma, i, j);
        let outcome = run_plan(coma, &ctx, &fresh_plan, Mode::Fused);
        repo.put_mapping(outcome.result.to_mapping(&ctx, MappingKind::Automatic));
    }
    let ctx = w.context(coma, 0, 2).with_repository(&repo);
    let (fresh_ms, fresh) = time_best(RUNS, || run_plan(coma, &ctx, &fresh_plan, Mode::Fused));
    let reuse_plan = reuse_plan();
    let (reuse_ms, reuse) = time_best(RUNS, || run_plan(coma, &ctx, &reuse_plan, Mode::Sparse));
    let via = reuse
        .stages
        .first()
        .and_then(|s| s.reuse_stats.as_ref())
        .and_then(|s| s.paths.first())
        .map(|p| p.via.clone())
        .ok_or_else(|| format!("{label}: reuse found no pivot path through the family"))?;
    if via != pivot {
        return Err(format!(
            "{label}: reuse pivoted through {via}, not the middle member {pivot}"
        ));
    }
    if reuse.result.candidates.is_empty() {
        return Err(format!("{label}: composition produced no correspondences"));
    }
    if reuse_ms >= fresh_ms {
        return Err(format!(
            "{label}: composed reuse ({reuse_ms:.1} ms) did not beat fresh matching \
             ({fresh_ms:.1} ms)"
        ));
    }
    let speedup = fresh_ms / reuse_ms;
    eprintln!(
        "# {label}: fresh {fresh_ms:.0} ms vs composed-over-{via} {reuse_ms:.1} ms \
         ({speedup:.0}x), {} vs {} candidates",
        fresh.result.len(),
        reuse.result.len(),
    );
    for (side, ms, outcome) in [("fresh", fresh_ms, fresh), ("sparse", reuse_ms, reuse)] {
        report.task(format!("{label}_{side}"), ms, outcome.result.len() as u64);
    }
    report.speedup(label.clone(), speedup);
    Ok(())
}

/// Streaming-fused pruning at dense-infeasible scale (`_fused_filter`):
/// on `deep100000` (~100k paths per side) the liberal `Name` filter's
/// full matrix would be one ~75 GiB dense buffer — not slow, *impossible*
/// on any reasonable machine. The fused engine runs the threshold
/// `Filter` inside each row shard instead, so the whole execution's peak
/// must stay under [`FUSED_PEAK_CEILING`]. A `Filter` (not `TopK`)
/// deliberately: `TopK` materializes an `m × n` pair-mask bitset, itself
/// over 1 GiB at this scale. One run, timed around the peak-tracked window;
/// the ceiling is gated in-process here and across runs by [`compare`].
fn fused_ceiling(coma: &Coma, w: &Workload, report: &mut BenchReport) -> Result<(), String> {
    let (label, ctx, plan) = (&w.label, w.context(coma, 0, 1), fused_filter_plan());
    let start = Instant::now();
    let (peak, outcome) = alloc_track::measure_peak(|| run_plan(coma, &ctx, &plan, Mode::Fused));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if outcome.stages.len() != 1 || !outcome.stages[0].fused {
        return Err(format!(
            "{label}: the filter stage did not fuse ({} stage(s))",
            outcome.stages.len()
        ));
    }
    let peak = peak as u64;
    let dense_bytes = ctx.rows() as u64 * ctx.cols() as u64 * 8;
    eprintln!(
        "# {label}: fused filter {wall_ms:.0} ms, peak {:.0} MiB (ceiling {:.0} MiB; one \
         dense matrix alone would be {:.0} GiB), {} candidates",
        mib(peak),
        mib(FUSED_PEAK_CEILING),
        dense_bytes as f64 / (1 << 30) as f64,
        outcome.result.len()
    );
    if peak > FUSED_PEAK_CEILING {
        return Err(format!(
            "{label}: fused execution peaked at {peak} bytes, above the {FUSED_PEAK_CEILING} \
             byte ceiling"
        ));
    }
    let task = format!("{label}_fused_filter");
    report.task(&task, wall_ms, outcome.result.len() as u64);
    report.ceilings.push(CeilingEntry {
        task,
        peak_bytes: peak,
        ceiling_bytes: FUSED_PEAK_CEILING,
    });
    Ok(())
}

/// Repository persistence, cheap enough for quick mode too: one full
/// persist of a store the size of the `serve_write` benchmark's steady
/// state — serialize, write, fsync, rename, fsync the directory
/// (`repo/persist`); one load of that store — read and decode the
/// snapshot (`repo/load`); and one write-through `mutate` into it — one
/// synced log frame (`repo/append`). The snapshot's byte length takes
/// the persist and load `candidates` slots and the frame's the append
/// slot: they depend only on the repository and the format.
fn measure_repository(corpus: &Corpus, report: &mut BenchReport) -> Result<(), String> {
    let store = persist_repository(corpus)?;
    let dir = std::env::temp_dir().join(format!("coma_perf_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("repo/persist: {e}"))?;
    let backend = FileBackend::new(dir.join("repository.json"));
    let measured = measure_store(&store, &backend, report);
    std::fs::remove_dir_all(&dir).ok();
    measured
}

fn measure_store(
    store: &Repository,
    backend: &FileBackend,
    report: &mut BenchReport,
) -> Result<(), String> {
    let (ms, persisted) = time_best(PERSIST_RUNS, || backend.persist(store));
    persisted.map_err(|e| format!("repo/persist: {e}"))?;
    let (peak, _) = alloc_track::measure_peak(|| backend.persist(store));
    let bytes = std::fs::metadata(backend.path())
        .map_err(|e| format!("repo/persist: {e}"))?
        .len();
    let (load_ms, loaded) = time_best(PERSIST_RUNS, || backend.load());
    loaded.map_err(|e| format!("repo/load: {e}"))?;
    let (load_peak, _) = alloc_track::measure_peak(|| backend.load());
    let (append_ms, append_peak, frame) =
        measure_append(store, backend.path()).map_err(|e| format!("repo/append: {e}"))?;
    for (task, ms, peak, size) in [
        ("repo/persist", ms, peak, bytes),
        ("repo/load", load_ms, load_peak, bytes),
        ("repo/append", append_ms, append_peak, frame),
    ] {
        eprintln!(
            "# {task}: {ms:.3} ms, peak {:.3} MiB, {size} bytes",
            mib(peak as u64)
        );
        report.task(task, ms, size);
        report.alloc(task, peak);
    }
    Ok(())
}

/// Deterministic `CREATE TABLE` corpus for the service workload: names
/// drawn from a fixed vocabulary so the two variants overlap enough for
/// the name matchers to do real work (the same generator shape the
/// server's own integration tests use).
fn service_ddl(tables: usize, columns: usize, variant: &str) -> String {
    const STEMS: [&str; 12] = [
        "customer", "order", "ship", "bill", "product", "price", "city", "street", "phone",
        "status", "total", "delivery",
    ];
    let stem = |k: usize| STEMS[k % STEMS.len()];
    (0..tables)
        .map(|t| {
            let columns: Vec<String> = (0..columns)
                .map(|c| format!("  {}{variant}{c} VARCHAR(200)", stem(t + c)))
                .collect();
            let columns = columns.join(",\n");
            format!("CREATE TABLE {}{variant}{t} (\n{columns}\n);\n", stem(t))
        })
        .collect()
}

/// One steady-state match request against the stored service pair.
fn service_request() -> Request {
    Request::Match(MatchRequest {
        tenant: "bench".to_string(),
        source: SchemaRef::Stored("svc_source".to_string()),
        target: SchemaRef::Stored("svc_target".to_string()),
        plan: PlanSpec::TopKPruned(BUDGET),
        config: MatchConfig::default(),
        store: false,
    })
}

/// One timed match request, which must succeed.
fn service_call(conn: &mut Client) -> Result<(), String> {
    match conn.call(&service_request()).map_err(|e| e.to_string())? {
        Response::Matched(_) => Ok(()),
        other => Err(format!("service request failed: {other:?}")),
    }
}

/// Stores the schema pair, warms the tenant's cross-request memo, then
/// measures completed match requests per second at each concurrent-client
/// count, best of two rounds — end to end through the unix-socket
/// client, so framing, dispatch, and cache-lookup costs are all inside
/// the measurement.
fn drive_service(socket: &Path) -> Result<Vec<ThroughputEntry>, String> {
    const PER_CLIENT: usize = 25;
    let err = |e: std::io::Error| e.to_string();
    let mut setup = Client::connect_retry(socket, Duration::from_secs(5)).map_err(err)?;
    for (name, variant) in [("svc_source", "s"), ("svc_target", "t")] {
        let schema = InlineSchema {
            name: name.to_string(),
            format: SchemaFormat::Sql,
            text: service_ddl(10, 10, variant),
        };
        setup
            .call_ok(&Request::PutSchema("bench".to_string(), schema))
            .map_err(err)?;
    }
    // Warm the cross-request memo before timing: steady-state throughput
    // against a hot schema pair is the capacity number; the cold first
    // request is covered (and asserted faster-on-repeat) by the server
    // integration tests.
    match setup.call_ok(&service_request()).map_err(err)? {
        Response::Matched(m) if !m.correspondences.is_empty() => {}
        other => return Err(format!("service warm-up returned {other:?}")),
    }
    let mut entries = Vec::new();
    for clients in [2usize, 4] {
        let mut best_secs = f64::INFINITY;
        for _ in 0..2 {
            let mut conns = Vec::new();
            for _ in 0..clients {
                conns.push(Client::connect_retry(socket, Duration::from_secs(5)).map_err(err)?);
            }
            let start = Instant::now();
            std::thread::scope(|scope| {
                let workers: Vec<_> = conns
                    .iter_mut()
                    .map(|conn| {
                        scope.spawn(|| (0..PER_CLIENT).try_for_each(|_| service_call(conn)))
                    })
                    .collect();
                workers
                    .into_iter()
                    .try_for_each(|w| w.join().expect("client thread panicked"))
            })?;
            best_secs = best_secs.min(start.elapsed().as_secs_f64());
        }
        let tasks_per_sec = (clients * PER_CLIENT) as f64 / best_secs;
        eprintln!(
            "# server/match_c{clients}: {} requests across {clients} clients in {:.0} ms \
             ({tasks_per_sec:.0} tasks/sec)",
            clients * PER_CLIENT,
            best_secs * 1e3,
        );
        entries.push(ThroughputEntry {
            task: format!("server/match_c{clients}"),
            clients: clients as u64,
            tasks_per_sec,
        });
    }
    Ok(entries)
}

/// The service-throughput measurement, cheap enough for quick mode too:
/// an in-process `coma-server` on a temp socket, concurrent socket
/// clients against a stored, memo-warm schema pair, tasks/sec per client
/// count.
fn service_throughput() -> Result<Vec<ThroughputEntry>, String> {
    let state = ServerState::open(MemoryBackend::new(), 32).map_err(|e| e.to_string())?;
    let socket = std::env::temp_dir().join(format!("coma_perf_smoke_{}.sock", std::process::id()));
    let server = Server::bind(&socket, state).map_err(|e| e.to_string())?;
    let result = std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve());
        let outcome = drive_service(&socket);
        // Always stop the server — even after a measurement error — or
        // the scope would join the serve thread forever.
        if let Ok(mut client) = Client::connect_retry(&socket, Duration::from_secs(5)) {
            client.call(&Request::Shutdown).ok();
        }
        let served = match serve.join() {
            Ok(r) => r.map_err(|e| format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        };
        match (outcome, served) {
            (Ok(entries), Ok(())) => Ok(entries),
            (Err(e), _) | (_, Err(e)) => Err(e),
        }
    });
    std::fs::remove_file(&socket).ok();
    result
}

/// The in-process gate failures of a run. A measurement that fails (or
/// cannot run) is recorded here and the suite goes on, so one noisy race
/// cannot discard the measurements before it or skip those after it.
#[derive(Debug, Default)]
struct Failures(Vec<String>);

impl Failures {
    fn record(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            eprintln!("# FAILED (the suite goes on): {e}");
            self.0.push(e);
        }
    }
}

/// Runs the suite in report order: calibration, the evaluation corpus,
/// the [`WORKLOADS`] rows the mode selects, the repository and the
/// service. Returns the report of everything measured and every
/// in-process gate that failed.
fn measure(quick: bool) -> (BenchReport, Failures) {
    eprintln!("# calibrating …");
    let mut report = BenchReport {
        version: 5,
        calibration_ms: calibration_ms(),
        ..BenchReport::default()
    };
    eprintln!("# calibration: {:.1} ms", report.calibration_ms);
    let corpus = Corpus::load();
    let coma = Coma::new();
    let mut failures = Failures::default();
    failures.record(measure_corpus(&corpus, &coma, &mut report));
    measure_rows(&coma, &WORKLOADS, quick, &mut report, &mut failures);
    failures.record(measure_repository(&corpus, &mut report));
    match service_throughput() {
        Ok(throughput) => report.throughput = throughput,
        Err(e) => failures.record(Err(e)),
    }
    (report, failures)
}

/// Generates each row `quick` selects and runs its measurements on it,
/// recording each failure and going on.
fn measure_rows(
    coma: &Coma,
    rows: &[Row],
    quick: bool,
    report: &mut BenchReport,
    failures: &mut Failures,
) {
    for row in rows {
        let &Row(.., suite, measures) = row;
        if quick && suite == Full {
            continue;
        }
        match Workload::generate(row) {
            Ok(workload) => {
                for measure in measures {
                    failures.record(measure(coma, &workload, report));
                }
            }
            Err(e) => failures.record(Err(e)),
        }
    }
}

/// Compares a fresh report against the committed baseline. Returns the
/// list of regressions (empty = gate passes).
///
/// `calibrated` is the interleaved `--calibrate-baseline` re-measurement
/// of the baseline code on this machine, when one ran: every
/// wall-clock-shaped rule — wall times, service throughput, within-run
/// speedup ratios, peak-allocation ratios — gates against it (a
/// same-machine, same-hour relative comparison, immune to environment
/// drift between CI runners). Only the genuinely machine-independent
/// rules fall back to the committed numbers in `baseline`: candidate
/// counts and the fused peak ceilings (a committed contract); recall is
/// gated in-process during measurement.
fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    calibrated: Option<&BenchReport>,
) -> Vec<String> {
    let mut failures = Vec::new();
    // Machine-independent candidate counts: always the committed numbers.
    for base in &baseline.tasks {
        let Some(cur) = current.tasks.iter().find(|t| t.task == base.task) else {
            continue; // quick mode measures a subset of the baseline
        };
        if cur.candidates != base.candidates {
            failures.push(format!(
                "{}: candidates changed {} -> {}",
                base.task, base.candidates, cur.candidates
            ));
        }
    }
    // Wall-clock-shaped rules: against the calibrated re-run when one
    // exists, the committed numbers otherwise. (With a calibrated
    // reference the normalization scale is ≈ 1 — same machine, same hour
    // — but applying it still absorbs load drift across the run.)
    let wall_ref = calibrated.unwrap_or(baseline);
    let wall_scale = current.calibration_ms / wall_ref.calibration_ms.max(1e-9);
    let reference = if calibrated.is_some() {
        "the re-measured baseline's"
    } else {
        "baseline"
    };
    for base in &wall_ref.tasks {
        let Some(cur) = current.tasks.iter().find(|t| t.task == base.task) else {
            continue; // quick mode measures a subset of the baseline
        };
        // Machine-speed-normalized wall-time regression gate. Tasks with
        // near-zero baselines (pure correctness entries) are skipped.
        let allowed = base.wall_ms * wall_scale * (1.0 + TOLERANCE);
        if base.wall_ms > 1.0 && cur.wall_ms > allowed {
            failures.push(format!(
                "{}: wall time regressed {:.1} ms -> {:.1} ms (allowed {allowed:.1} ms at this \
                 machine's calibration {:.1} ms vs {reference} calibration {:.1} ms)",
                base.task,
                base.wall_ms,
                cur.wall_ms,
                current.calibration_ms,
                wall_ref.calibration_ms
            ));
        }
    }
    for base in &wall_ref.throughput {
        let Some(cur) = current.throughput.iter().find(|t| t.task == base.task) else {
            continue;
        };
        // Higher is better: the normalized floor shrinks on a slower
        // machine (wall_scale > 1).
        let floor = base.tasks_per_sec / wall_scale * (1.0 - TOLERANCE);
        if cur.tasks_per_sec < floor {
            failures.push(format!(
                "{}: service throughput regressed {:.0} -> {:.0} tasks/sec (floor {:.0})",
                base.task, base.tasks_per_sec, cur.tasks_per_sec, floor
            ));
        }
    }
    for base in &wall_ref.speedups {
        let Some(cur) = current.speedups.iter().find(|s| s.task == base.task) else {
            continue;
        };
        // The speedup rules protect the *fast path* of a within-run
        // comparison — dense/sparse for the `_topk` entries, single-shard
        // vs sharded for the `_name_stage` entries. The 2x floor holds
        // wherever the baseline demonstrates it (the structural-heavy
        // sparse acceptance workloads; shapes whose baseline never
        // reached 2x are gated by the relative rule only), and the ratio
        // may not lose more than the tolerance. Both rules compare a
        // ratio whose denominator is the fast side, though — so when the
        // fast side's own wall time improved on the (normalized)
        // baseline, a ratio dip means the slow comparison path got
        // faster, which is an improvement and not a regression: the
        // ratio rules are waived and the fast side stays gated by its
        // absolute wall-time rule above. Sharding speedups are
        // additionally exempt from the 2x floor — they scale with the
        // machine's core count (≈1.0 on one CPU is correct behavior, not
        // a regression), so only the relative rule applies to them. Both
        // sides of a speedup are wall clocks, so the whole rule follows
        // `wall_ref`: a machine whose memory subsystem is having a bad
        // day skews the dense/sharded side for baseline code too.
        let shard_speedup = base.task.ends_with("_name_stage");
        let fast_side = if shard_speedup { "sharded" } else { "sparse" };
        let fast_task = format!("{}_{fast_side}", base.task);
        let fast_improved = match (
            wall_ref.tasks.iter().find(|t| t.task == fast_task),
            current.tasks.iter().find(|t| t.task == fast_task),
        ) {
            (Some(b), Some(c)) => c.wall_ms <= b.wall_ms * wall_scale,
            _ => false,
        };
        if fast_improved {
            continue;
        }
        if !shard_speedup && base.speedup >= MIN_SPEEDUP && cur.speedup < MIN_SPEEDUP {
            failures.push(format!(
                "{}: dense/sparse speedup {:.2}x fell below the {MIN_SPEEDUP}x floor",
                base.task, cur.speedup
            ));
        }
        if cur.speedup < base.speedup * (1.0 - TOLERANCE) {
            failures.push(format!(
                "{}: speedup regressed {:.2}x -> {:.2}x",
                base.task, base.speedup, cur.speedup
            ));
        }
    }
    // Absolute `allocs` peaks are machine-dependent (leaf fan-out
    // parallelism), but the dense/sparse
    // *ratio* of one workload is comparable across machines: fail when a
    // workload's current ratio collapses below half the reference's —
    // that means sparse storage stopped pulling its weight. Peaks move
    // with allocator/THP state, so the ratio follows `wall_ref` too.
    for base_dense in &wall_ref.allocs {
        let Some(stem) = base_dense.task.strip_suffix("_dense") else {
            continue;
        };
        let sparse_task = format!("{stem}_sparse");
        let find = |allocs: &[AllocEntry], task: &str| {
            allocs
                .iter()
                .find(|a| a.task == task)
                .map(|a| a.peak_bytes as f64)
        };
        let (Some(base_sparse), Some(cur_dense), Some(cur_sparse)) = (
            find(&wall_ref.allocs, &sparse_task),
            find(&current.allocs, &base_dense.task),
            find(&current.allocs, &sparse_task),
        ) else {
            continue; // quick mode measures a subset of the baseline
        };
        let base_ratio = base_dense.peak_bytes as f64 / base_sparse.max(1.0);
        let cur_ratio = cur_dense / cur_sparse.max(1.0);
        if cur_ratio < base_ratio * 0.5 {
            failures.push(format!(
                "{stem}: dense/sparse peak-allocation ratio collapsed {base_ratio:.2}x -> \
                 {cur_ratio:.2}x"
            ));
        }
    }
    // Fused peak ceilings: the fused engine bounds its in-flight memory by a byte budget rather than the core
    // count, so absolute peaks are machine-comparable here: fail when a
    // current run's peak exceeds the *baseline's* ceiling (a committed
    // contract, not this binary's possibly-updated constant).
    for base in &baseline.ceilings {
        let Some(cur) = current.ceilings.iter().find(|c| c.task == base.task) else {
            continue; // quick mode skips the fused workload
        };
        if cur.peak_bytes > base.ceiling_bytes {
            failures.push(format!(
                "{}: fused peak {} bytes exceeds the baseline ceiling {} bytes",
                base.task, cur.peak_bytes, base.ceiling_bytes
            ));
        }
    }
    // Static-analysis prediction bounds: the bound is a pure function of the seeded task statistics and the
    // engine configuration — machine-independent, like the candidate
    // counts — so it is a committed contract: a measured peak above the
    // *baseline's* bound means the analyzer's promise broke between the
    // commits, and a freshly predicted bound above the committed one
    // means the promise was quietly loosened (a deliberate cost-model
    // change rolls the baseline, exactly like a candidate-count change).
    for base in &baseline.predictions {
        let Some(cur) = current.predictions.iter().find(|p| p.task == base.task) else {
            continue; // quick mode measures a subset of the baseline
        };
        if cur.measured_bytes > base.predicted_bytes {
            failures.push(format!(
                "{}: measured peak {} bytes exceeds the committed prediction bound {} bytes",
                base.task, cur.measured_bytes, base.predicted_bytes
            ));
        }
        if cur.predicted_bytes > base.predicted_bytes {
            failures.push(format!(
                "{}: predicted bound loosened {} -> {} bytes",
                base.task, base.predicted_bytes, cur.predicted_bytes
            ));
        }
    }
    failures
}

/// A resolved `--calibrate-baseline` operand: the baseline `perf_smoke`
/// binary to re-run, plus the temporary git worktree it was built in
/// (removed on drop) when the operand was a ref rather than a binary.
struct CalibratedBaseline {
    bin: PathBuf,
    worktree: Option<PathBuf>,
}

impl Drop for CalibratedBaseline {
    fn drop(&mut self) {
        if let Some(dir) = &self.worktree {
            remove_worktree(dir);
        }
    }
}

/// Removes a temporary baseline worktree, whether or not git still knows it.
fn remove_worktree(dir: &Path) {
    let mut git = std::process::Command::new("git");
    git.args(["worktree", "remove", "--force"]).arg(dir);
    git.output().ok();
    std::fs::remove_dir_all(dir).ok();
}

/// Resolves the `--calibrate-baseline` operand: an existing file is used
/// as the baseline binary directly; anything else is treated as a git
/// ref, checked out into a temporary worktree, and built there with a
/// private target directory (sharing the main target directory would
/// flip-flop its artifacts between the two revisions).
fn resolve_baseline(spec: &str) -> Result<CalibratedBaseline, String> {
    let path = PathBuf::from(spec);
    if path.is_file() {
        return Ok(CalibratedBaseline {
            bin: path,
            worktree: None,
        });
    }
    let dir = std::env::temp_dir().join(format!("perf_smoke_baseline_{}", std::process::id()));
    // A leftover worktree from a killed run would make `worktree add` fail.
    remove_worktree(&dir);
    eprintln!("# building baseline perf_smoke at {spec} …");
    let added = std::process::Command::new("git")
        .args(["worktree", "add", "--force", "--detach"])
        .arg(&dir)
        .arg(spec)
        .status()
        .map_err(|e| format!("cannot run git: {e}"))?;
    if !added.success() {
        return Err(format!(
            "`git worktree add {} {spec}` failed — not a file and not a git ref? \
             (ref resolution runs in the current directory, which must be inside the repo)",
            dir.display()
        ));
    }
    let baseline = CalibratedBaseline {
        bin: dir.join("target/release/perf_smoke"),
        worktree: Some(dir.clone()),
    };
    let built = std::process::Command::new("cargo")
        .args("build --release --locked -p coma-bench --bin perf_smoke".split(' '))
        .current_dir(&dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !built.success() {
        return Err(format!("building the baseline perf_smoke at {spec} failed"));
    }
    Ok(baseline)
}

/// Runs the baseline binary once in the candidate's suite (`--quick` or
/// full, at its default three repetitions), returning its report. Its
/// stderr passes through after a round banner.
fn run_baseline(bin: &Path, quick: bool, round: usize) -> Result<BenchReport, String> {
    eprintln!("# baseline run {round}/2 …");
    let out = std::env::temp_dir().join(format!(
        "perf_smoke_baseline_{}_{round}.json",
        std::process::id()
    ));
    let mut cmd = std::process::Command::new(bin);
    cmd.arg("--out").arg(&out);
    if quick {
        cmd.arg("--quick");
    }
    let bin = bin.display();
    let status = cmd.status();
    let status = status.map_err(|e| format!("cannot run baseline {bin}: {e}"))?;
    if !status.success() {
        return Err(format!("baseline run {bin} failed with {status}"));
    }
    let report = read_report(&out);
    std::fs::remove_file(&out).ok();
    report
}

fn read_report(path: &Path) -> Result<BenchReport, String> {
    let path = path.display();
    let text = std::fs::read_to_string(path.to_string())
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Merges the two bracketing baseline runs into one reference, taking
/// the *lenient* side of each wall-clock-shaped entry: per-task worst
/// (slowest) wall time, per-entry worst throughput, smallest speedup
/// ratio, largest peak allocation, and the best calibration. The
/// candidate is measured once, between the brackets, so noise that
/// inflates its numbers usually bled into at least one adjacent bracket
/// — merging toward the slow side widens the allowance instead of
/// letting one lucky baseline run re-create the committed-number false
/// positives this mode exists to kill. A real regression still fails:
/// it exceeds even the noisy bracket by more than the tolerance.
fn merge_brackets(mut a: BenchReport, b: BenchReport) -> BenchReport {
    a.calibration_ms = a.calibration_ms.min(b.calibration_ms);
    for task in &mut a.tasks {
        if let Some(other) = b.tasks.iter().find(|t| t.task == task.task) {
            task.wall_ms = task.wall_ms.max(other.wall_ms);
        }
    }
    for entry in &mut a.throughput {
        if let Some(other) = b.throughput.iter().find(|t| t.task == entry.task) {
            entry.tasks_per_sec = entry.tasks_per_sec.min(other.tasks_per_sec);
        }
    }
    for entry in &mut a.speedups {
        if let Some(other) = b.speedups.iter().find(|s| s.task == entry.task) {
            entry.speedup = entry.speedup.min(other.speedup);
        }
    }
    for entry in &mut a.allocs {
        if let Some(other) = b.allocs.iter().find(|al| al.task == entry.task) {
            entry.peak_bytes = entry.peak_bytes.max(other.peak_bytes);
        }
    }
    a
}

/// Measures, writes the report, then gates it. The baseline is read
/// before measuring: `--out` may name the committed file being
/// refreshed, and the gate compares against the numbers as committed.
/// A calibrated baseline brackets the measurement: it is built first,
/// then run once before and once after it, and the wall-clock rules gate
/// on the lenient merge of the two runs. The report is written even when
/// an in-process gate failed; the run then fails with every failure.
fn run(opts: &Options) -> Result<(), String> {
    let baseline = match &opts.check {
        Some(path) => Some(read_report(Path::new(path))?),
        None => None,
    };
    let calibrate = match &opts.calibrate {
        Some(spec) => Some(resolve_baseline(spec)?),
        None => None,
    };
    let bracket = |round| match &calibrate {
        Some(cal) => run_baseline(&cal.bin, opts.quick, round).map(Some),
        None => Ok(None),
    };
    let before = bracket(1)?;
    let (report, Failures(mut failures)) = measure(opts.quick);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&opts.out, format!("{json}\n"))
        .map_err(|e| format!("cannot write {}: {e}", opts.out))?;
    eprintln!("# wrote {}", opts.out);
    let calibrated = before.zip(bracket(2)?).map(|(a, b)| merge_brackets(a, b));
    if let Some(baseline) = &baseline {
        failures.extend(compare(&report, baseline, calibrated.as_ref()));
    }
    verdict(&failures)?;
    match (&opts.check, &opts.calibrate) {
        (Some(path), Some(spec)) => eprintln!(
            "# perf-smoke gate passed against {path} \
             (wall-clock rules vs the interleaved re-run of {spec})"
        ),
        (Some(path), None) => eprintln!("# perf-smoke gate passed against {path}"),
        (None, _) => {}
    }
    Ok(())
}

/// Fails the run, listing every failure, when any in-process or
/// baseline gate failed.
fn verdict(failures: &[String]) -> Result<(), String> {
    if failures.is_empty() {
        return Ok(());
    }
    Err(format!(
        "perf-smoke gate FAILED:\n  - {}",
        failures.join("\n  - ")
    ))
}

/// Exits 0 when the run (and its gate) passed, 1 when it failed, and 2
/// on a usage error.
fn main() -> ExitCode {
    let (result, code) = match parse_args() {
        Ok(opts) => (run(&opts), ExitCode::FAILURE),
        Err(e) => (Err(format!("{e}\n{USAGE}")), ExitCode::from(2)),
    };
    let Err(e) = result else {
        return ExitCode::SUCCESS;
    };
    eprintln!("error: {e}");
    code
}

/// The gate's rules on synthetic reports: one passing and one failing
/// case per rule of [`compare`], and the lenient side of every field
/// [`merge_brackets`] merges.
#[cfg(test)]
mod tests {
    use super::*;

    fn report(calibration_ms: f64) -> BenchReport {
        BenchReport {
            version: 5,
            calibration_ms,
            tasks: Vec::new(),
            speedups: Vec::new(),
            allocs: Vec::new(),
            ceilings: Vec::new(),
            throughput: Vec::new(),
            predictions: Vec::new(),
        }
    }

    impl BenchReport {
        fn with_task(mut self, task: &str, wall_ms: f64, candidates: u64) -> Self {
            let task = task.into();
            self.tasks.push(TaskEntry {
                task,
                wall_ms,
                candidates,
            });
            self
        }

        fn with_speedup(mut self, task: &str, speedup: f64) -> Self {
            let task = task.into();
            self.speedups.push(SpeedupEntry { task, speedup });
            self
        }

        fn with_alloc(mut self, task: &str, peak_bytes: u64) -> Self {
            let task = task.into();
            self.allocs.push(AllocEntry { task, peak_bytes });
            self
        }

        fn with_ceiling(mut self, task: &str, peak_bytes: u64, ceiling_bytes: u64) -> Self {
            self.ceilings.push(CeilingEntry {
                task: task.into(),
                peak_bytes,
                ceiling_bytes,
            });
            self
        }

        fn with_throughput(mut self, task: &str, tasks_per_sec: f64) -> Self {
            self.throughput.push(ThroughputEntry {
                task: task.into(),
                clients: 2,
                tasks_per_sec,
            });
            self
        }

        fn with_prediction(mut self, task: &str, predicted: u64, measured: u64) -> Self {
            self.predictions.push(PredictionEntry {
                task: task.into(),
                predicted_bytes: predicted,
                measured_bytes: measured,
            });
            self
        }
    }

    fn push_entry(_: &Coma, w: &Workload, report: &mut BenchReport) -> Result<(), String> {
        report.task(format!("{}_entry", w.label), 1.0, 1);
        Ok(())
    }

    fn fail_gate(_: &Coma, w: &Workload, _: &mut BenchReport) -> Result<(), String> {
        Err(format!("{}: gate failed", w.label))
    }

    /// A failing in-process gate is recorded and the suite goes on: the
    /// same row's later measurements and later rows still report, and the
    /// run fails with the failure listed. Rows a quick run skips stay
    /// skipped.
    #[test]
    fn a_failing_gate_keeps_later_entries_and_fails_the_run() {
        let rows = [
            Row(Deep, 40, Task, Quick, &[push_entry, fail_gate, push_entry]),
            Row(Star, 40, Task, Full, &[push_entry]),
            Row(Wide, 40, Task, Quick, &[fail_gate, push_entry]),
        ];
        let (coma, mut report, mut failures) = (Coma::new(), report(1.0), Failures::default());
        measure_rows(&coma, &rows, true, &mut report, &mut failures);
        let tasks: Vec<&str> = report.tasks.iter().map(|t| t.task.as_str()).collect();
        assert_eq!(
            tasks,
            [
                "gen/deep40#42_entry",
                "gen/deep40#42_entry",
                "gen/wide40#42_entry"
            ]
        );
        assert_eq!(
            failures.0,
            ["gen/deep40#42: gate failed", "gen/wide40#42: gate failed"]
        );
        let message = verdict(&failures.0).unwrap_err();
        assert!(failures.0.iter().all(|f| message.contains(f)), "{message}");
        assert!(verdict(&[]).is_ok());
    }

    /// Asserts exactly one failure, mentioning `needle`.
    fn fails_once(failures: &[String], needle: &str) {
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains(needle), "{failures:?}");
    }

    fn passes(failures: &[String]) {
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn candidate_drift_fails() {
        let base = report(10.0).with_task("gen/t_topk_sparse", 0.0, 10);
        let same = report(10.0).with_task("gen/t_topk_sparse", 0.0, 10);
        passes(&compare(&same, &base, None));
        let drifted = report(10.0).with_task("gen/t_topk_sparse", 0.0, 11);
        fails_once(
            &compare(&drifted, &base, None),
            "candidates changed 10 -> 11",
        );
    }

    #[test]
    fn wall_time_is_gated_after_calibration_normalization() {
        let base = report(10.0).with_task("eval/all_largest", 100.0, 1);
        // This machine calibrates 2x slower: the allowance is 100 * 2 * 1.25.
        let slow_machine = report(20.0).with_task("eval/all_largest", 240.0, 1);
        passes(&compare(&slow_machine, &base, None));
        let regressed = report(20.0).with_task("eval/all_largest", 260.0, 1);
        fails_once(&compare(&regressed, &base, None), "wall time regressed");
        // The same 240 ms on a machine as fast as the baseline's regresses.
        let same_machine = report(10.0).with_task("eval/all_largest", 240.0, 1);
        fails_once(&compare(&same_machine, &base, None), "wall time regressed");
    }

    #[test]
    fn wall_times_at_or_under_one_millisecond_are_not_gated() {
        let base = report(10.0).with_task("eval/topk_corpus_total", 1.0, 7);
        let slower = report(10.0).with_task("eval/topk_corpus_total", 50.0, 7);
        passes(&compare(&slower, &base, None));
        let base = report(10.0).with_task("repo/append", 1.5, 7);
        let slower = report(10.0).with_task("repo/append", 2.0, 7);
        fails_once(&compare(&slower, &base, None), "wall time regressed");
    }

    #[test]
    fn throughput_may_not_drop_below_the_normalized_floor() {
        let base = report(10.0).with_throughput("server/match_c2", 100.0);
        let run = |calibration, tasks_per_sec| {
            let current = report(calibration).with_throughput("server/match_c2", tasks_per_sec);
            compare(&current, &base, None)
        };
        passes(&run(10.0, 76.0));
        fails_once(&run(10.0, 74.0), "service throughput regressed");
        // A 2x slower machine halves the floor.
        passes(&run(20.0, 38.0));
        fails_once(&run(20.0, 37.0), "service throughput regressed");
    }

    /// `compare` of a current speedup (and fast-side wall, when given)
    /// against a baseline speedup whose fast side ran in 100 ms.
    fn speedup_gate(task: &str, base: f64, current: f64, fast_ms: Option<f64>) -> Vec<String> {
        let fast_side = if task.ends_with("_name_stage") {
            "sharded"
        } else {
            "sparse"
        };
        let fast_task = format!("{task}_{fast_side}");
        let mut baseline = report(10.0).with_speedup(task, base);
        let mut run = report(10.0).with_speedup(task, current);
        if let Some(ms) = fast_ms {
            baseline = baseline.with_task(&fast_task, 100.0, 5);
            run = run.with_task(&fast_task, ms, 5);
        }
        compare(&run, &baseline, None)
    }

    #[test]
    fn speedup_may_not_fall_below_two_where_the_baseline_reached_it() {
        passes(&speedup_gate("gen/t_topk", 2.1, 2.0, None));
        let failures = speedup_gate("gen/t_topk", 2.1, 1.9, None);
        fails_once(&failures, "fell below the 2x floor");
        // A baseline that never reached 2x is held by the relative rule only.
        passes(&speedup_gate("gen/t_topk", 1.5, 1.2, None));
    }

    #[test]
    fn speedup_may_not_lose_more_than_the_tolerance() {
        passes(&speedup_gate("gen/t_topk", 4.0, 3.1, None));
        let failures = speedup_gate("gen/t_topk", 4.0, 2.9, None);
        fails_once(&failures, "speedup regressed 4.00x -> 2.90x");
    }

    #[test]
    fn a_faster_fast_side_waives_the_speedup_rules() {
        passes(&speedup_gate("gen/t_topk", 4.0, 1.5, Some(90.0)));
        let failures = speedup_gate("gen/t_topk", 4.0, 2.9, Some(110.0));
        fails_once(&failures, "speedup regressed");
    }

    #[test]
    fn name_stage_speedups_skip_the_floor_and_waive_on_the_sharded_side() {
        // Below 2x but within the tolerance: no floor for sharding.
        passes(&speedup_gate("gen/t_name_stage", 2.1, 1.9, Some(110.0)));
        let failures = speedup_gate("gen/t_name_stage", 2.1, 1.5, Some(110.0));
        fails_once(&failures, "speedup regressed");
        passes(&speedup_gate("gen/t_name_stage", 2.1, 1.5, Some(90.0)));
    }

    #[test]
    fn dense_sparse_alloc_ratio_may_not_collapse_below_half() {
        let allocs = |dense, sparse| {
            let r = report(10.0).with_alloc("gen/t_topk_dense", dense);
            r.with_alloc("gen/t_topk_sparse", sparse)
        };
        let base = allocs(1000, 100);
        passes(&compare(&allocs(600, 100), &base, None));
        fails_once(&compare(&allocs(400, 100), &base, None), "ratio collapsed");
    }

    #[test]
    fn fused_peak_may_not_exceed_the_committed_ceiling() {
        let base = report(10.0).with_ceiling("gen/t_fused_filter", 10, 1000);
        let at_ceiling = report(10.0).with_ceiling("gen/t_fused_filter", 1000, 1000);
        passes(&compare(&at_ceiling, &base, None));
        // The current run's own ceiling does not count: the committed one does.
        let above = report(10.0).with_ceiling("gen/t_fused_filter", 1001, 5000);
        let failures = compare(&above, &base, None);
        fails_once(&failures, "exceeds the baseline ceiling 1000");
    }

    #[test]
    fn measured_peaks_and_predicted_bounds_hold_the_committed_bound() {
        let task = "gen/t_predict_topk_sparse";
        let base = report(10.0).with_prediction(task, 1000, 400);
        let run = |predicted, measured| {
            let current = report(10.0).with_prediction(task, predicted, measured);
            compare(&current, &base, None)
        };
        passes(&run(1000, 1000));
        fails_once(
            &run(900, 1001),
            "exceeds the committed prediction bound 1000",
        );
        fails_once(&run(1001, 10), "predicted bound loosened 1000 -> 1001");
    }

    #[test]
    fn entries_a_quick_run_does_not_measure_are_skipped() {
        let full = report(10.0)
            .with_task("gen/big_topk_sparse", 500.0, 9)
            .with_speedup("gen/big_topk", 3.0)
            .with_alloc("gen/big_topk_dense", 1000)
            .with_alloc("gen/big_topk_sparse", 10)
            .with_ceiling("gen/big_fused_filter", 10, 100)
            .with_throughput("server/match_c4", 100.0)
            .with_prediction("gen/big_predict_topk_dense", 100, 10);
        passes(&compare(&report(10.0), &full, None));
        passes(&compare(&report(10.0), &full, Some(&full)));
    }

    #[test]
    fn machine_independent_rules_read_the_committed_baseline() {
        let committed = report(10.0)
            .with_task("gen/t_topk_sparse", 100.0, 10)
            .with_ceiling("gen/t_fused_filter", 10, 1000)
            .with_prediction("gen/t_predict_topk_sparse", 1000, 10);
        // A calibrated re-run that disagrees on every committed number.
        let calibrated = report(10.0)
            .with_task("gen/t_topk_sparse", 100.0, 99)
            .with_ceiling("gen/t_fused_filter", 10, 5000)
            .with_prediction("gen/t_predict_topk_sparse", 5000, 10);
        let current = report(10.0)
            .with_task("gen/t_topk_sparse", 100.0, 99)
            .with_ceiling("gen/t_fused_filter", 2000, 5000)
            .with_prediction("gen/t_predict_topk_sparse", 5000, 10);
        let failures = compare(&current, &committed, Some(&calibrated));
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].contains("candidates changed 10 -> 99"));
        assert!(failures[1].contains("exceeds the baseline ceiling 1000"));
        assert!(failures[2].contains("predicted bound loosened 1000 -> 5000"));
    }

    #[test]
    fn wall_clock_rules_read_the_calibrated_baseline() {
        let measured = |calibration, wall_ms, dense, tasks_per_sec, speedup| {
            report(calibration)
                .with_task("gen/t_topk_sparse", wall_ms, 10)
                .with_alloc("gen/t_topk_dense", dense)
                .with_alloc("gen/t_topk_sparse", 100)
                .with_throughput("server/match_c2", tasks_per_sec)
                .with_speedup("gen/t_topk", speedup)
        };
        let committed = measured(10.0, 90.0, 1000, 1000.0, 8.0);
        // Re-measured on this machine: slower walls, lower throughput and
        // speedup, a smaller alloc ratio — and a calibration of its own.
        let calibrated = measured(20.0, 200.0, 400, 400.0, 3.0);
        let current = measured(20.0, 240.0, 300, 350.0, 2.5);
        passes(&compare(&current, &committed, Some(&calibrated)));
        // Against the committed numbers alone, the wall time, the
        // throughput, the speedup and the alloc ratio all regress.
        let failures = compare(&current, &committed, None);
        assert_eq!(failures.len(), 4, "{failures:?}");
        // The calibrated run's own calibration sets the scale: had it
        // calibrated twice as slow as this run, its walls allow half as much.
        let slow_calibration = BenchReport {
            calibration_ms: 40.0,
            ..calibrated
        };
        let failures = compare(&current, &committed, Some(&slow_calibration));
        assert!(
            failures.iter().any(|f| f.contains("wall time regressed")),
            "{failures:?}"
        );
    }

    #[test]
    fn merge_brackets_keeps_the_lenient_side_of_each_field() {
        let a = report(12.0)
            .with_task("t", 100.0, 7)
            .with_task("only_a", 5.0, 1)
            .with_speedup("s", 3.0)
            .with_alloc("al", 1000)
            .with_throughput("tp", 50.0)
            .with_ceiling("c", 10, 100)
            .with_prediction("p", 100, 10);
        let b = report(9.0)
            .with_task("t", 150.0, 8)
            .with_speedup("s", 2.5)
            .with_alloc("al", 800)
            .with_throughput("tp", 70.0)
            .with_ceiling("c", 20, 200)
            .with_prediction("p", 200, 20);
        let merged = merge_brackets(a.clone(), b.clone());
        assert_eq!(merged.calibration_ms, 9.0, "the faster calibration");
        assert_eq!(merged.tasks[0].wall_ms, 150.0, "the slower wall");
        assert_eq!(merged.tasks[0].candidates, 7, "counts are not merged");
        assert_eq!(merged.tasks[1].wall_ms, 5.0, "unmatched entries stay");
        assert_eq!(merged.speedups[0].speedup, 2.5, "the smaller speedup");
        assert_eq!(merged.allocs[0].peak_bytes, 1000, "the larger peak");
        assert_eq!(merged.throughput[0].tasks_per_sec, 50.0, "the lower rate");
        assert_eq!(merged.ceilings[0].peak_bytes, 10, "ceilings are not merged");
        assert_eq!(merged.predictions[0].predicted_bytes, 100);
        // Symmetric in the lenient fields, whichever bracket comes first.
        let swapped = merge_brackets(b, a);
        assert_eq!(swapped.calibration_ms, 9.0);
        assert_eq!(swapped.tasks[0].wall_ms, 150.0);
        assert_eq!(swapped.speedups[0].speedup, 2.5);
        assert_eq!(swapped.allocs[0].peak_bytes, 1000);
        assert_eq!(swapped.throughput[0].tasks_per_sec, 50.0);
    }
}
