//! The match-plan execution engine.
//!
//! [`PlanEngine`] executes a [`MatchPlan`] operator tree over one match
//! task. Compared to the legacy "loop over matcher names, then combine"
//! pipeline it adds the following, while producing identical results for
//! flat plans (see `ARCHITECTURE.md` at the repository root for the
//! system-wide picture):
//!
//! * **parallel leaf fan-out** — the independent matchers of a
//!   [`MatchPlan::Matchers`] leaf run on scoped threads (capped by the
//!   machine's available parallelism), with slices assembled in
//!   declaration order so results stay deterministic;
//! * **row-sharded dense execution** — an unrestricted (full
//!   cross-product) compute of a
//!   [`row_shardable`](crate::Matcher::row_shardable) matcher is split
//!   into contiguous row ranges ([`shard_ranges`]) computed via
//!   [`compute_rows`](crate::Matcher::compute_rows) on scoped threads and
//!   stitched back together ([`SimMatrix::from_row_shards`]) —
//!   bit-identical to the single-shard computation for any shard count
//!   ([`EngineConfig::shards`] forces one; property-tested);
//! * **streaming-fused pruning** — a prunable stage
//!   (`TopK { input: Matchers, .. }` or a thresholded
//!   `Filter { input: Matchers, .. }`) over an *unrestricted* context
//!   fuses compute→prune inside each row shard: every matcher computes
//!   one shard via `compute_rows`, the shard cube is aggregated and the
//!   leaf's selection applied immediately, and only the surviving cells
//!   are assembled (CSR fragments joined by
//!   [`SimMatrix::from_row_shards`]) — the full dense matrix is never
//!   allocated, and the result is bit-identical to the unfused path
//!   (property-tested; see [`EngineConfig::fuse_pruning`]). Fused stages
//!   report [`StageOutcome::fused`] and skip materializing the inner
//!   `Matchers` stage. Over a leaf whose only matcher is name-keyed
//!   (`Name`) the stage skips the row shards too and selects in key
//!   space: each distinct element name is ranked once, through the
//!   execution's name table ([`StageOutcome::key_space`]);
//! * **memoized shared work** — a per-execution [`MatchMemo`] caches
//!   tokenizations and per-matcher matrices, so
//!   hybrids and overlapping sub-plans stop recomputing constituents (with
//!   the standard library, the `All` strategy computes the `TypeName`
//!   matrix once instead of three times); memoized matrices are shared by
//!   `Arc`, so an unrestricted stage's cube slice aliases the memo's
//!   allocation instead of cloning it;
//! * **staged execution** — `Seq` restricts a later stage's search space
//!   to an earlier stage's survivors via [`PairMask`], `Par` aggregates
//!   independent sub-plans, `Filter` re-selects mid-pipeline, `TopK`
//!   prunes to the k best candidates per element, `Iterate` re-runs a
//!   sub-plan to a fixpoint — and every stage still materializes a
//!   [`SimCube`] so repository storage and evaluation re-combination keep
//!   working;
//! * **sparse execution** — once a restriction survives a `TopK`/`Seq`
//!   stage, [`sparse_capable`](crate::Matcher::sparse_capable) matchers
//!   (the structural `Children`/`Leaves`) compute set similarities only
//!   for the allowed pairs and their recursive dependencies instead of
//!   the full cross-product, with bit-identical results
//!   ([`EngineConfig::sparse`] switches the path off for comparison);
//! * **sub-linear candidate generation** — a
//!   [`MatchPlan::CandidateIndex`] leaf retrieves its candidate pairs
//!   from per-side vocabulary inverted indexes ([`VocabIndex`]: token
//!   postings with synonym expansion, plus q-gram postings for fuzzy
//!   recall) in time proportional to posting traffic — as the filter
//!   side of a `Seq`, the first stage never touches the `m × n` cross
//!   product at all (every other mode above still computes it at least
//!   once);
//! * **sparse storage** — the same density decision picks each restricted
//!   stage's physical [`SimMatrix`] representation: below the cutoff,
//!   matcher slices, `TopK`-pruned matrices and pair matrices are stored
//!   CSR (holding only the surviving cells) instead of as dense `m × n`
//!   buffers, which is what keeps 5k–50k-node tasks inside a sane memory
//!   budget. Storage is invisible to consumers: equality, aggregation,
//!   selection and serialization are all value-based.
//!
//! Building and executing a pruned plan end to end:
//!
//! ```
//! use coma_core::{Coma, MatchPlan, MatchStrategy, PlanEngine, TopKPer};
//! use coma_graph::PathSet;
//!
//! let po1 = coma_sql::import_ddl(
//!     "CREATE TABLE PO.Customer (custNo INT, custName VARCHAR(200));",
//!     "PO1",
//! ).unwrap();
//! let po2 = coma_sql::import_ddl(
//!     "CREATE TABLE PO.Buyer (buyerNo INT, buyerName VARCHAR(100));",
//!     "PO2",
//! ).unwrap();
//!
//! // Keep each element's 2 best Name candidates, then refine the
//! // survivors with the paper-default hybrid combination.
//! let plan = MatchPlan::seq(
//!     MatchPlan::matchers(["Name"]).top_k(2, TopKPer::Both)?,
//!     MatchPlan::from(&MatchStrategy::paper_default()),
//! );
//!
//! let mut coma = Coma::new();
//! coma.aux_mut().synonyms.add_synonym("customer", "buyer");
//! let outcome = coma.match_plan(&po1, &po2, &plan).unwrap();
//! // The TopK stage fused compute→prune per row shard, so the inner
//! // Name stage was never materialized: TopK and refine remain.
//! assert_eq!(outcome.stages.len(), 2);
//! assert!(outcome.stages[0].fused);
//!
//! // The pruned stages store their cubes sparse; the stage labels spell
//! // out the executed plan.
//! assert!(outcome.stages[1].cube.all_sparse());
//! assert!(outcome.stages[0].label.starts_with("TopK("));
//! assert!(!outcome.result.is_empty());
//! # let _ = PathSet::new(&po1).unwrap();
//! # Ok::<(), coma_core::PlanError>(())
//! ```

mod analyze;
mod cache;
mod index;
mod mask;
mod memo;
mod plan;
mod rules;

pub use analyze::{
    human_bytes, NodeFacts, PlanAnalysis, PlanAnalyzer, PlanDiagnostic, SchemaStats, Severity,
    TaskStats, Tri,
};
pub use cache::{schema_fingerprint, CacheStats, EngineCache, ScopeWarmth};
pub use index::{CandidateParams, CandidateScorer, IndexStats, VocabIndex};
pub use mask::PairMask;
pub use memo::{matcher_identity, MatchMemo};
pub use plan::{MatchPlan, PlanError, PlanErrorKind, TopKPer};
pub(crate) use rules::keep_name_table;

use crate::combine::{directional_wants, CombinationStrategy, DirectedCandidates, KeyedMatrix};
use crate::cube::{SimCube, SimMatrix, SparseBuilder};
use crate::error::{CoreError, Result};
use crate::matchers::context::MatchContext;
use crate::matchers::hybrid::NameTable;
use crate::matchers::{Matcher, MatcherLibrary};
use crate::process::{combine_cube_with_feedback, MatchOutcome};
use crate::result::MatchResult;
use crate::reuse::{ReuseResolver, ReuseStats};
use std::borrow::Cow;
use std::sync::Arc;

/// One materialized stage of a plan execution: the cube of similarity
/// slices the stage computed and the match result it selected.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    /// The plan-grammar label of the node that produced this stage.
    pub label: String,
    /// The stage's similarity cube (one slice per matcher or sub-plan).
    pub cube: SimCube,
    /// The stage's selected match result.
    pub result: MatchResult,
    /// The largest number of row shards any of this stage's matcher
    /// slices was computed in (see [`EngineConfig::shards`]): `1` for
    /// unsharded, memoized-hit and non-leaf stages. Masked stages are
    /// never sharded themselves, but report the shard count of a fresh
    /// full compute they triggered (a non-cell-local matcher whose full
    /// matrix was computed, memoized, then masked). A fused stage
    /// reports the number of row shards its streaming pipeline pruned.
    /// Surfaced by `coma-cli --verbose`.
    pub shards: usize,
    /// Whether this stage executed as a fused compute→prune pipeline
    /// (see [`EngineConfig::fuse_pruning`]): the stage's input leaf was
    /// computed, aggregated and pruned shard by shard (or in key space),
    /// no inner `Matchers` stage was materialized, and the full dense
    /// similarity matrix never existed. The stage's cube holds only the
    /// surviving cells (its stored-entry count is the real memory
    /// footprint).
    pub fused: bool,
    /// For a fused stage that selected in key space (its leaf's only
    /// matcher is name-keyed, and the execution kept its name table):
    /// the distinct (source, target) element names it ranked over. Such
    /// a stage reports one shard. `None` for every other stage. Surfaced
    /// by `coma-cli --verbose`.
    pub key_space: Option<(usize, usize)>,
    /// Index build/traffic statistics when this stage was a
    /// [`MatchPlan::CandidateIndex`] leaf (surfaced by
    /// `coma-cli --verbose`); `None` for every other stage kind.
    pub index_stats: Option<IndexStats>,
    /// Pivot-path diagnostics when this stage was a [`MatchPlan::Reuse`]
    /// leaf — which chains were found, how they scored, which was chosen
    /// (surfaced by `coma-cli --verbose`); `None` for every other stage
    /// kind. Empty `paths` means the repository held no pivot path and
    /// the stage contributed a zero slice.
    pub reuse_stats: Option<ReuseStats>,
}

impl StageOutcome {
    /// An unsharded, unfused stage without index or reuse statistics;
    /// callers override what differs.
    fn new(label: String, cube: SimCube, result: &MatchResult) -> StageOutcome {
        StageOutcome {
            label,
            cube,
            result: result.clone(),
            shards: 1,
            fused: false,
            key_space: None,
            index_stats: None,
            reuse_stats: None,
        }
    }

    /// This stage as its input's fused execution (if any) ran it.
    fn fused_by(self, fused: Option<Fused>) -> StageOutcome {
        match fused {
            Some(run) => StageOutcome {
                shards: run.shards,
                fused: true,
                key_space: run.keys,
                ..self
            },
            None => self,
        }
    }
}

/// How a prunable stage's fused input executed: the row shards its
/// pipeline pruned (1 in key space), and its distinct (source, target)
/// name counts when it selected in key space.
#[derive(Clone, Copy)]
struct Fused {
    shards: usize,
    keys: Option<(usize, usize)>,
}

/// The outcome of executing a plan: the final match result plus every
/// materialized stage (the last stage belongs to the plan's root node).
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The root node's match result.
    pub result: MatchResult,
    /// All stages in completion order; the root's stage is last.
    pub stages: Vec<StageOutcome>,
}

impl PlanOutcome {
    /// The root stage's cube (empty if the plan produced no stage).
    pub fn final_cube(&self) -> Option<&SimCube> {
        self.stages.last().map(|s| &s.cube)
    }

    /// Converts into the legacy [`MatchOutcome`] shape: the final result
    /// plus the root stage's cube.
    pub fn into_outcome(mut self) -> MatchOutcome {
        let cube = self.stages.pop().map(|s| s.cube).unwrap_or_default();
        MatchOutcome {
            result: self.result,
            cube,
        }
    }
}

/// The engine's execution configuration: every knob [`PlanEngine`]
/// honors, as one value object (constructed via [`Default`] plus the
/// `with_*` builder methods, or as a struct literal — all fields are
/// public). This is what a future plan optimizer emits per task instead
/// of a chain of engine setters; [`PlanEngine::with_config`] and
/// `Coma::match_plan_with` take it whole.
///
/// The default configuration enables everything: parallel fan-out,
/// automatic row sharding, the sparse path, and streaming-fused pruning.
///
/// ```
/// use coma_core::EngineConfig;
///
/// let cfg = EngineConfig::default().with_parallel(false).with_shards(4);
/// assert!(cfg.sparse && cfg.fuse_pruning);
/// assert_eq!(cfg.shards, Some(4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Parallel leaf fan-out and threaded row-sharded execution; results
    /// are identical either way (determinism is property-tested).
    pub parallel: bool,
    /// The sparse path: sparse *execution* of
    /// [`sparse_capable`](crate::Matcher::sparse_capable) matchers under
    /// a restriction, sparse (CSR) *storage* of pruned stages' matrices,
    /// and a prerequisite for [`fuse_pruning`](EngineConfig::fuse_pruning).
    /// Disabling it forces dense, full-cross-product execution — the
    /// comparison oracle, value-identical to the sparse path.
    pub sparse: bool,
    /// Forced row-shard count for unrestricted computes; `None` sizes
    /// shards automatically (from available parallelism for plain
    /// dense stages, from a fixed minimum of rows per shard for fused
    /// ones). Clamped to at least 1 and at most the task's row count, so
    /// no shard is ever empty.
    pub shards: Option<usize>,
    /// Streaming-fused execution of prunable stages (`TopK` or a
    /// pruning `Filter` directly over a `Matchers` leaf, unrestricted,
    /// no feedback pinned, every matcher
    /// [`row_shardable`](crate::Matcher::row_shardable), and a leaf
    /// selection that actually prunes): compute → aggregate → select
    /// runs inside each row shard and only surviving cells are ever
    /// assembled, so peak memory is bounded by the shard size instead
    /// of the `m × n` cross-product. Requires
    /// [`sparse`](EngineConfig::sparse); results are bit-identical to
    /// unfused execution (property-tested).
    pub fuse_pruning: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            parallel: true,
            sparse: true,
            shards: None,
            fuse_pruning: true,
        }
    }
}

impl EngineConfig {
    /// Sets [`parallel`](EngineConfig::parallel).
    pub fn with_parallel(mut self, parallel: bool) -> EngineConfig {
        self.parallel = parallel;
        self
    }

    /// Sets [`sparse`](EngineConfig::sparse).
    pub fn with_sparse(mut self, sparse: bool) -> EngineConfig {
        self.sparse = sparse;
        self
    }

    /// Forces the row-shard count (see [`shards`](EngineConfig::shards));
    /// clamped to at least 1.
    pub fn with_shards(mut self, shards: usize) -> EngineConfig {
        self.shards = Some(shards.max(1));
        self
    }

    /// Sets [`fuse_pruning`](EngineConfig::fuse_pruning).
    pub fn with_fuse_pruning(mut self, fuse: bool) -> EngineConfig {
        self.fuse_pruning = fuse;
        self
    }
}

/// Splits `rows` into `shards` contiguous, non-empty ranges covering
/// every row exactly once, in row order: the first `rows % shards` ranges
/// hold one extra row. The shard count is clamped to `rows` (never a
/// zero-row shard); `rows == 0` yields no ranges at all.
///
/// This is the row partition behind the engine's sharded dense-stage and
/// fused executions (see [`EngineConfig::shards`]) and is reused by the
/// bench harness for per-shard timing.
pub fn shard_ranges(rows: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    if rows == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, rows);
    let base = rows / shards;
    let extra = rows % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, rows);
    ranges
}

/// The plan execution engine: borrows a matcher library and executes plans
/// against prepared match contexts, honoring an [`EngineConfig`].
pub struct PlanEngine<'l> {
    library: &'l MatcherLibrary,
    cfg: EngineConfig,
}

impl<'l> PlanEngine<'l> {
    /// An engine over the given library with the default configuration
    /// (parallel fan-out, automatic sharding, sparse path and fused
    /// pruning all enabled) — shorthand for
    /// [`with_config`](PlanEngine::with_config) of
    /// [`EngineConfig::default`].
    pub fn new(library: &'l MatcherLibrary) -> PlanEngine<'l> {
        PlanEngine::with_config(library, EngineConfig::default())
    }

    /// An engine over the given library with an explicit configuration.
    pub fn with_config(library: &'l MatcherLibrary, cfg: EngineConfig) -> PlanEngine<'l> {
        PlanEngine { library, cfg }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// One matcher's full (unrestricted) matrix, row-sharded one thread
    /// per shard when the matcher supports it and the task is big enough
    /// — assembled in row order, bit-identical to a single
    /// [`Matcher::compute`] call. Returns the matrix and the number of
    /// shards actually executed. `budget` is the worker budget for
    /// automatic shard sizing (see [`rules::leaf_shards`]).
    fn compute_unrestricted(
        &self,
        ctx: MatchContext<'_>,
        matcher: &Arc<dyn Matcher>,
        budget: usize,
    ) -> (SimMatrix, usize) {
        let shards = rules::leaf_shards(&self.cfg, ctx.rows(), budget);
        if shards <= 1 || !matcher.row_shardable() {
            return (matcher.compute(&ctx), 1);
        }
        let ranges = shard_ranges(ctx.rows(), shards);
        let parts = rules::run_chunks(&ranges, ranges.len(), |chunk| {
            let parts = chunk
                .iter()
                .map(|rows| matcher.compute_rows(&ctx, rows.clone()));
            parts.collect::<Vec<_>>()
        });
        let parts = parts.into_iter().flatten().collect();
        (SimMatrix::from_row_shards(ctx.cols(), parts), ranges.len())
    }

    /// An `m × n` matrix holding a result's selected pair similarities
    /// (zero elsewhere) — CSR-stored when the engine's sparse path is on
    /// and the selected pairs are sparse in the pair space, dense
    /// otherwise.
    fn pair_matrix(&self, ctx: &MatchContext<'_>, result: &MatchResult) -> SimMatrix {
        let (m, n) = (ctx.rows(), ctx.cols());
        let pairs = result.candidates.iter();
        let pairs = pairs.map(|c| (c.source.index(), c.target.index(), c.similarity));
        if rules::sparse_pairs(&self.cfg, result.len() as u64, (m * n) as u64) {
            return SimMatrix::from_entries(m, n, pairs);
        }
        let mut matrix = SimMatrix::new(m, n);
        for (i, j, v) in pairs {
            matrix.set(i, j, v);
        }
        matrix
    }

    /// `matrix` restricted to `mask` (whose pair-space share is
    /// `density`), stored as [`rules::sparse_storage`] decides: a CSR
    /// copy of the allowed nonzero cells, or dense with every disallowed
    /// cell zeroed — in place when `matrix` is owned.
    fn masked(&self, mask: &PairMask, density: f64, matrix: Cow<'_, SimMatrix>) -> SimMatrix {
        if rules::sparse_storage(&self.cfg, density) {
            return mask.masked_sparse(&matrix);
        }
        let mut dense = matrix.into_owned().into_dense();
        mask.apply(&mut dense);
        dense
    }

    /// Executes a plan on a match task. A restriction already present on
    /// `ctx` becomes the root search-space mask.
    ///
    /// Degenerate plan shapes (empty `Matchers`/`Par` nodes, `TopK` with
    /// `k = 0`, `Iterate` with `max_rounds = 0`) fail up front with
    /// [`CoreError::Plan`] instead of panicking mid-execution.
    pub fn execute(&self, ctx: &MatchContext<'_>, plan: &MatchPlan) -> Result<PlanOutcome> {
        self.execute_with_memo(ctx, plan, &MatchMemo::new())
    }

    /// Like [`PlanEngine::execute`], but memoizing through a shared
    /// cross-request [`EngineCache`]: the execution's memo is scoped to
    /// the [`schema_fingerprint`]s of the two sides, so tokenizations,
    /// pure matcher matrices and vocabulary indexes computed by earlier executions against the same schemas
    /// (by content) are reused, and this execution's artifacts are left
    /// behind for later ones.
    ///
    /// The cache is only coherent for a fixed auxiliary configuration
    /// and a stable matcher library — see the [`EngineCache`] docs. The
    /// server keys caches per tenant for this reason.
    pub fn execute_cached(
        &self,
        ctx: &MatchContext<'_>,
        plan: &MatchPlan,
        cache: &Arc<EngineCache>,
    ) -> Result<PlanOutcome> {
        let memo = MatchMemo::scoped(
            cache,
            schema_fingerprint(ctx.source, ctx.source_paths),
            schema_fingerprint(ctx.target, ctx.target_paths),
        );
        self.execute_with_memo(ctx, plan, &memo)
    }

    /// Executes a plan for its final result alone, with an explicit
    /// memo. A plan the result-cache rule admits (no `Reuse` node, only
    /// [`Matcher::pure`] matchers), on a context without a restriction,
    /// is answered from an identical plan's result kept under the memo's
    /// pair scope without executing anything; otherwise it executes
    /// through [`PlanEngine::execute_with_memo`] and, if cacheable,
    /// leaves its result there for the next repeat. Stage outcomes are
    /// not kept: a caller that reads them executes instead.
    pub fn execute_result(
        &self,
        ctx: &MatchContext<'_>,
        plan: &MatchPlan,
        memo: &MatchMemo,
    ) -> Result<Arc<MatchResult>> {
        if ctx.restriction.is_some() || !rules::result_cacheable(self.library, plan) {
            return Ok(Arc::new(self.execute_with_memo(ctx, plan, memo)?.result));
        }
        if let Some(kept) = memo.cached_result(plan) {
            return Ok(kept);
        }
        let result = Arc::new(self.execute_with_memo(ctx, plan, memo)?.result);
        memo.keep_result(plan, Arc::clone(&result));
        Ok(result)
    }

    /// Executes a plan with an explicit, caller-owned memo — the seam
    /// under [`PlanEngine::execute`] (fresh private memo),
    /// [`PlanEngine::execute_cached`] (shared-cache view) and
    /// [`PlanEngine::execute_result`].
    pub fn execute_with_memo(
        &self,
        ctx: &MatchContext<'_>,
        plan: &MatchPlan,
        memo: &MatchMemo,
    ) -> Result<PlanOutcome> {
        plan.validate(self.library)?;
        let root_mask = ctx.restriction.cloned();
        let base = ctx.without_restriction().with_memo(memo);
        // The stage count is only a capacity hint; clamp it so an `Iterate`
        // with a huge (but semantically fine) round budget cannot force an
        // absurd up-front allocation.
        let mut stages = Vec::with_capacity(plan.stage_count().min(64));
        let result = self.exec(base, plan, root_mask.as_ref(), &mut stages)?;
        Ok(PlanOutcome { result, stages })
    }

    fn exec(
        &self,
        ctx: MatchContext<'_>,
        plan: &MatchPlan,
        mask: Option<&PairMask>,
        stages: &mut Vec<StageOutcome>,
    ) -> Result<MatchResult> {
        match plan {
            MatchPlan::Matchers {
                matchers,
                combination,
            } => {
                let (cube, shards) = self.execute_leaf(ctx, matchers, mask)?;
                let result =
                    combine_cube_with_feedback(&cube, &ctx, combination, &ctx.aux.feedback);
                stages.push(StageOutcome {
                    shards,
                    ..StageOutcome::new(plan.label(), cube, &result)
                });
                Ok(result)
            }
            MatchPlan::Seq { filter, refine } => {
                let first = self.exec(ctx, filter, mask, stages)?;
                let survivors = PairMask::from_result(ctx.rows(), ctx.cols(), &first);
                let restricted = match mask {
                    Some(outer) => survivors.intersect(outer),
                    None => survivors,
                };
                self.exec(ctx, refine, Some(&restricted), stages)
            }
            MatchPlan::Par { plans, combination } => {
                let mut slices: Vec<(String, MatchResult)> = Vec::with_capacity(plans.len());
                for sub in plans {
                    let result = self.exec(ctx, sub, mask, stages)?;
                    slices.push((sub.label(), result));
                }
                // Canonical slice order: sub-plan order never changes the
                // aggregate (identical labels mean identical sub-plans).
                // Weighted aggregation is the exception — its weights pair
                // with sub-plans positionally, so declaration order is
                // meaningful and must be kept.
                if !matches!(
                    combination.aggregation,
                    crate::combine::Aggregation::Weighted(_)
                ) {
                    slices.sort_by(|a, b| a.0.cmp(&b.0));
                }
                let mut cube = SimCube::new();
                for (label, result) in &slices {
                    cube.push(label.clone(), self.pair_matrix(&ctx, result));
                }
                let result =
                    combine_cube_with_feedback(&cube, &ctx, combination, &ctx.aux.feedback);
                stages.push(StageOutcome::new(plan.label(), cube, &result));
                Ok(result)
            }
            MatchPlan::Filter {
                input,
                direction,
                selection,
                combined_sim,
            } => {
                let (inner, fused) = self.prunable_input(ctx, input, mask, stages)?;
                let matrix = self.pair_matrix(&ctx, &inner);
                let candidates = DirectedCandidates::select(&matrix, *direction, selection);
                let schema_similarity =
                    combined_sim.compute(&candidates, matrix.rows(), matrix.cols());
                let result =
                    MatchResult::from_pairs(&ctx, candidates.pairs(), Some(schema_similarity));
                let mut cube = SimCube::new();
                cube.push("Filtered", matrix);
                stages.push(StageOutcome::new(plan.label(), cube, &result).fused_by(fused));
                Ok(result)
            }
            MatchPlan::TopK { input, k, per } => {
                let (inner, fused) = self.prunable_input(ctx, input, mask, stages)?;
                let matrix = self.pair_matrix(&ctx, &inner);
                let keep = PairMask::top_k_of(&matrix, *k, *per);
                let kept: Vec<(usize, usize, f64)> = inner
                    .candidates
                    .iter()
                    .filter(|c| keep.allows(c.source.index(), c.target.index()))
                    .map(|c| (c.source.index(), c.target.index(), c.similarity))
                    .collect();
                let pruned = self.masked(&keep, keep.density(), Cow::Owned(matrix));
                // The schema similarity is recomputed over the surviving
                // pairs (like `Filter` does), not carried over from the
                // pre-pruning result, so it stays consistent with the
                // candidates this stage actually reports.
                let result = MatchResult::from_pairs(&ctx, kept, Some(average_similarity(&pruned)));
                let mut cube = SimCube::new();
                cube.push("TopK", pruned);
                stages.push(StageOutcome::new(plan.label(), cube, &result).fused_by(fused));
                Ok(result)
            }
            MatchPlan::Iterate {
                plan: sub,
                max_rounds,
                epsilon,
            } => {
                // Each round re-runs the sub-plan restricted to the
                // previous round's survivors, until the selected-pair
                // matrix moves by less than epsilon (max-norm). The loop
                // runs at least once (max_rounds >= 1 is validated).
                let mut prev: Option<SimMatrix> = None;
                let mut round_mask = mask.cloned();
                let mut result: Option<MatchResult> = None;
                for _ in 0..*max_rounds {
                    let r = self.exec(ctx, sub, round_mask.as_ref(), stages)?;
                    let matrix = self.pair_matrix(&ctx, &r);
                    let converged = prev
                        .as_ref()
                        .is_some_and(|p| p.max_abs_diff(&matrix) < *epsilon);
                    let survivors = PairMask::from_result(ctx.rows(), ctx.cols(), &r);
                    result = Some(r);
                    prev = Some(matrix);
                    if converged {
                        break;
                    }
                    round_mask = Some(match mask {
                        Some(outer) => survivors.intersect(outer),
                        None => survivors,
                    });
                }
                let result = result.expect("Iterate ran at least one round");
                let mut cube = SimCube::new();
                cube.push("Iterate", prev.expect("Iterate ran at least one round"));
                stages.push(StageOutcome::new(plan.label(), cube, &result));
                Ok(result)
            }
            MatchPlan::Reuse {
                kind,
                compose,
                max_hops,
                combination,
            } => {
                let resolver = ReuseResolver {
                    kind_filter: *kind,
                    compose: *compose,
                    max_hops: *max_hops,
                };
                let (mut slice, reuse_stats) = resolver.compute(&ctx);
                if let Some(mask) = mask {
                    slice = self.masked(mask, mask.density(), Cow::Owned(slice));
                }
                let mut cube = SimCube::new();
                cube.push("Reuse", slice);
                let result =
                    combine_cube_with_feedback(&cube, &ctx, combination, &ctx.aux.feedback);
                stages.push(StageOutcome {
                    reuse_stats: Some(reuse_stats),
                    ..StageOutcome::new(plan.label(), cube, &result)
                });
                Ok(result)
            }
            MatchPlan::CandidateIndex {
                min_shared_tokens,
                min_score,
                q,
                per_element,
            } => {
                let params = CandidateParams {
                    min_shared_tokens: *min_shared_tokens,
                    min_score: *min_score,
                    per_element: *per_element,
                };
                let (slice, shards, stats) = self.candidate_stage(ctx, *q, params, mask);
                // Like `TopK`: the schema similarity is the average of the
                // pairs this stage actually emits.
                let pairs: Vec<(usize, usize, f64)> = slice.nonzero().collect();
                let result = MatchResult::from_pairs(&ctx, pairs, Some(average_similarity(&slice)));
                let mut cube = SimCube::new();
                cube.push("CandidateIndex", slice);
                stages.push(StageOutcome {
                    shards,
                    index_stats: Some(stats),
                    ..StageOutcome::new(plan.label(), cube, &result)
                });
                Ok(result)
            }
        }
    }

    /// Executes a `CandidateIndex` leaf: fetches (or builds — once per
    /// side and gram length, through the [`MatchMemo`]) the two
    /// vocabulary inverted indexes, then generates the candidate matrix
    /// from shared-posting lookups, row-sharded through
    /// [`rules::run_row_shards`] like the fused pipeline. Returns the (CSR, or dense when the
    /// sparse path is off) candidate matrix, the shard count, and the
    /// stage's index statistics. No `m × n` buffer or full pair scan
    /// exists anywhere on this path — cost is proportional to posting
    /// traffic.
    fn candidate_stage(
        &self,
        ctx: MatchContext<'_>,
        q: usize,
        params: CandidateParams,
        mask: Option<&PairMask>,
    ) -> (SimMatrix, usize, IndexStats) {
        let (m, n) = (ctx.rows(), ctx.cols());
        let build_source = || VocabIndex::build((0..m).map(|i| ctx.source_name(i)), ctx.aux, q);
        let build_target = || VocabIndex::build((0..n).map(|j| ctx.target_name(j)), ctx.aux, q);
        let (source, target) = match ctx.memo {
            Some(memo) => (
                memo.vocab_index(false, q, build_source),
                memo.vocab_index(true, q, build_target),
            ),
            None => (Arc::new(build_source()), Arc::new(build_target())),
        };
        let stats = IndexStats {
            build_nanos: source.build_nanos() + target.build_nanos(),
            token_postings: source.token_posting_entries() + target.token_posting_entries(),
            gram_postings: source.gram_posting_entries() + target.gram_posting_entries(),
            distinct_tokens: source.distinct_tokens() + target.distinct_tokens(),
            distinct_grams: source.distinct_grams() + target.distinct_grams(),
        };
        let scorer = CandidateScorer::new(&source, &target, &ctx.aux.synonyms, params);
        let workers = rules::workers(&self.cfg);
        let ranges = shard_ranges(m, rules::leaf_shards(&self.cfg, m, workers));
        let (row_side, pooled) = rules::run_row_shards(m, n, &ranges, workers, |chunk| {
            scorer.fill_ranges(chunk, mask)
        });
        // Per-element cap: the row fragments already hold each source
        // element's best `cap`; the pooled per-column candidates (a
        // folded superset, like the fused pipeline's pools) are
        // re-selected globally and unioned in — `TopKPer::Both`
        // semantics, so no element of either side is stranded.
        let survivors = match params.per_element {
            Some(cap) => merge_pooled(row_side, index::select_pooled(pooled, cap)),
            None => row_side,
        };
        let survivors = if self.cfg.sparse {
            survivors
        } else {
            // Dense-mode oracle: same values, dense storage — keeps the
            // sparse-vs-dense comparison property meaningful for this
            // leaf too.
            survivors.into_dense()
        };
        (survivors, ranges.len().max(1), stats)
    }

    /// Executes a leaf's matchers — in parallel when the machine and the
    /// engine configuration allow it — and assembles their slices into a
    /// cube in declaration order (deterministic under any scheduling).
    /// Also returns the stage's shard count: the largest number of row
    /// shards any fresh unrestricted slice compute used (see
    /// [`EngineConfig::shards`]).
    fn execute_leaf(
        &self,
        ctx: MatchContext<'_>,
        names: &[String],
        mask: Option<&PairMask>,
    ) -> Result<(SimCube, usize)> {
        let matchers: Vec<(String, Arc<dyn Matcher>)> = names
            .iter()
            .map(|name| {
                self.library
                    .get(name)
                    .map(|m| (name.clone(), m))
                    .ok_or_else(|| CoreError::UnknownMatcher(name.clone()))
            })
            .collect::<Result<_>>()?;

        let workers = rules::workers(&self.cfg);
        // The worker budget each slice compute may occupy with row
        // shards: the whole machine for a single-matcher leaf, the
        // remainder after the leaf's own matcher fan-out otherwise —
        // total threads stay bounded by ~`workers` either way.
        let fan_out = workers.min(matchers.len()).max(1);
        let budget = (workers / fan_out).max(1);
        let slices = rules::run_chunks(&matchers, fan_out, |chunk| {
            let slices = chunk
                .iter()
                .map(|(_, matcher)| self.compute_slice(ctx, matcher, mask, budget));
            slices.collect::<Vec<_>>()
        });

        let mut cube = SimCube::new();
        let mut shards = 1;
        for ((name, _), (slice, slice_shards)) in matchers.iter().zip(slices.into_iter().flatten())
        {
            shards = shards.max(slice_shards);
            cube.push_shared(name.clone(), slice);
        }
        Ok((cube, shards))
    }

    /// One matcher's slice, through the memo and under the stage mask,
    /// plus the number of row shards the computation used (1 unless a
    /// fresh unrestricted compute was sharded). The slice's storage
    /// follows [`rules::sparse_storage`]: pruned stages keep CSR slices,
    /// unpruned (or dense-mode) stages keep dense ones — with identical
    /// logical values either way.
    fn compute_slice(
        &self,
        ctx: MatchContext<'_>,
        matcher: &Arc<dyn Matcher>,
        mask: Option<&PairMask>,
        budget: usize,
    ) -> (Arc<SimMatrix>, usize) {
        let identity = matcher_identity(matcher);
        let name = matcher.name();
        // Records the shard count of a fresh full compute; stays 1 on a
        // memo hit (the memoizing closure never runs).
        let sharded = std::cell::Cell::new(1);
        // Unrestricted: memoize the full matrix across stages and
        // sub-plans — the stage cube shares the memo's allocation.
        let full = || {
            let compute = || {
                let (matrix, shards) = self.compute_unrestricted(ctx, matcher, budget);
                sharded.set(shards);
                matrix
            };
            match ctx.memo {
                Some(memo) => memo.matrix(name, identity, matcher.pure(), compute),
                None => Arc::new(compute()),
            }
        };
        let Some(mask) = mask else {
            return (full(), sharded.get());
        };
        let density = mask.density();
        let slice = if let Some(cached) = ctx.memo.and_then(|m| m.cached_matrix(name, identity)) {
            // A full matrix computed earlier is cheaper to mask than to
            // recompute.
            self.masked(mask, density, Cow::Borrowed(&cached))
        } else if rules::restricted_compute(&self.cfg, matcher.as_ref(), density) {
            // Cell-local matchers always honor the restriction; other
            // sparse-capable matchers (the structural ones) take the
            // sparse path only when the mask prunes enough of the pair
            // space to beat computing a full, memoizable matrix. The
            // matcher skips disallowed cells itself; masking its output is
            // a cheap safety net for implementations that ignore the
            // restriction (and normalizes the slice's storage).
            let out = matcher.compute(&ctx.with_restriction(mask));
            self.masked(mask, density, Cow::Owned(out))
        } else {
            // Global matchers need the full search space for correct set
            // similarities; compute (and memoize) full — row-sharded when
            // the matcher supports it — then mask a copy.
            self.masked(mask, density, Cow::Borrowed(&full()))
        };
        (Arc::new(slice), sharded.get())
    }

    /// Executes a prunable stage's input: streaming-fused when
    /// [`rules::fusable_leaf`] admits the leaf and the stage runs
    /// unrestricted — bit-identical to the regular recursive execution
    /// (property-tested) — and then also returns how the fused input ran.
    fn prunable_input(
        &self,
        ctx: MatchContext<'_>,
        input: &MatchPlan,
        mask: Option<&PairMask>,
        stages: &mut Vec<StageOutcome>,
    ) -> Result<(MatchResult, Option<Fused>)> {
        let feedback = ctx.aux.feedback.len();
        match rules::fusable_leaf(&self.cfg, self.library, input, feedback) {
            Ok((matchers, combination)) if mask.is_none() => {
                let (result, fused) = self.fused_leaf(ctx, &matchers, combination);
                Ok((result, Some(fused)))
            }
            _ => Ok((self.exec(ctx, input, mask, stages)?, None)),
        }
    }

    /// The fused pipeline behind [`PlanEngine::prunable_input`] — the
    /// engine's third execution mode, next to dense and
    /// sparse-restricted. It builds the leaf's global directional
    /// candidate lists without materializing the dense `m × n` aggregate,
    /// in one of two ways, and finishes like `combine_cube_with_feedback`
    /// on that aggregate (feedback is empty: `rules::fusable_leaf`
    /// requires it):
    ///
    /// * **in key space** ([`PlanEngine::keyed_candidates`]), where
    ///   [`rules::selects_in_key_space`] admits the leaf: its one
    ///   name-keyed matcher's cells come from the execution's kept name
    ///   table, so each distinct name is ranked once and its list copied
    ///   to every path carrying the name;
    /// * **row-sharded** ([`PlanEngine::sharded_candidates`]) for every
    ///   other fusable leaf.
    fn fused_leaf(
        &self,
        ctx: MatchContext<'_>,
        matchers: &[(String, Arc<dyn Matcher>)],
        combination: &CombinationStrategy,
    ) -> (MatchResult, Fused) {
        // The key-space rule on runtime values: the memo keeps the name
        // table exactly when `rules::keep_name_table` admits the task's
        // distinct names.
        let table =
            rules::key_space_engine(matchers).and_then(|engine| NameTable::kept(&ctx, engine));
        let (candidates, fused) = match table {
            Some(table) => self.keyed_candidates(&table, combination),
            None => self.sharded_candidates(ctx, matchers, combination),
        };
        let (m, n) = (ctx.rows(), ctx.cols());
        let schema_similarity = combination.combined_sim.compute(&candidates, m, n);
        let result = MatchResult::from_pairs(&ctx, candidates.pairs(), Some(schema_similarity));
        (result, fused)
    }

    /// The leaf's candidate lists in key space, over the execution's kept
    /// name table: its rows are filled split over the workers
    /// ([`rules::name_fill_threads`] on [`rules::run_chunks`]), the
    /// leaf's aggregation is applied to each
    /// distinct name pair with its own per-cell arithmetic, and
    /// [`DirectedCandidates::select_keyed`] ranks each distinct source
    /// name's columns and each distinct target name's rows once. The
    /// cost is `O(source names × target names)` plus the candidates kept.
    fn keyed_candidates(
        &self,
        table: &NameTable,
        combination: &CombinationStrategy,
    ) -> (DirectedCandidates, Fused) {
        let (source_names, target_names) = table.names();
        let (row_key, col_key) = table.keys();
        let names: Vec<u32> = (0..source_names as u32).collect();
        let threads = rules::name_fill_threads(&self.cfg, row_key.len());
        rules::run_chunks(&names, threads, |chunk| {
            chunk.iter().for_each(|&a| {
                table.row(a);
            });
        });
        let rows: Vec<&[f64]> = names.iter().map(|&a| table.row(a)).collect();
        let aggregation = &combination.aggregation;
        aggregation.check_slices(1);
        let matrix = KeyedMatrix {
            row_key,
            col_key,
            keys: (source_names, target_names),
            value: |a: usize, b: usize| aggregation.cell(&[rows[a][b]]),
        };
        let candidates = DirectedCandidates::select_keyed(
            &matrix,
            combination.direction,
            &combination.selection,
        );
        let fused = Fused {
            shards: 1,
            keys: Some((source_names, target_names)),
        };
        (candidates, fused)
    }

    /// The leaf's candidate lists through row shards. Each row shard
    /// (sized by [`rules::fused_shards`]) runs
    /// [`compute_rows`](crate::Matcher::compute_rows) for every matcher,
    /// aggregates the shard cube, and applies the leaf's selection
    /// *inside the shard*:
    ///
    /// * per-source ranking is exact shard-locally — a row never crosses
    ///   a shard boundary — and emits one CSR fragment per shard, joined
    ///   by [`SimMatrix::from_row_shards`]'s sparse fast path;
    /// * per-target ranking keeps a per-column candidate pool with
    ///   global row indices, folded through the selection whenever it
    ///   outgrows its bound — a fold can only shed cells the global
    ///   per-column selection would shed too, so the pool is always a
    ///   superset of the globally selected cells.
    ///
    /// One final [`DirectedCandidates::select`] over the joined
    /// survivor matrix (row fragments ∪ pooled cells) is then exactly
    /// the global selection: every globally selected cell is present
    /// bit-identically, and any extra cell is outranked in its row or
    /// column by the same cells that outranked it globally.
    fn sharded_candidates(
        &self,
        ctx: MatchContext<'_>,
        matchers: &[(String, Arc<dyn Matcher>)],
        combination: &CombinationStrategy,
    ) -> (DirectedCandidates, Fused) {
        let (m, n) = (ctx.rows(), ctx.cols());
        let ranges = shard_ranges(m, rules::fused_shards(&self.cfg, m));
        let shards = ranges.len().max(1);
        // Each worker runs its chunk of shards *sequentially*, so it holds
        // at most one shard's dense slices in flight; the fused budget
        // bounds the worker count (see `rules::fused_threads`).
        let (threads, _) =
            rules::fused_threads(rules::workers(&self.cfg), shards, m, n, matchers.len());
        // The row-side survivors are `m × n` even when the direction
        // skipped the per-source ranking (the fragments are then empty).
        let (row_side, pooled) = rules::run_row_shards(m, n, &ranges, threads, |chunk| {
            self.fused_worker(ctx, matchers, combination, chunk)
        });
        let survivors = merge_pooled(row_side, pooled);
        let candidates =
            DirectedCandidates::select(&survivors, combination.direction, &combination.selection);
        (candidates, Fused { shards, keys: None })
    }

    /// One fused worker: runs its contiguous chunk of row shards
    /// sequentially into a [`rules::ShardSink`], storing each row's exact
    /// per-source selection and pooling its cells per column (global row
    /// indices) when the direction ranks candidates per target.
    fn fused_worker(
        &self,
        ctx: MatchContext<'_>,
        matchers: &[(String, Arc<dyn Matcher>)],
        combination: &CombinationStrategy,
        ranges: &[std::ops::Range<usize>],
    ) -> rules::ShardOut {
        let (want_for_targets, want_for_sources) =
            directional_wants(combination.direction, ctx.rows(), ctx.cols());
        let selection = &combination.selection;
        // Cells at or below the threshold (and zeros) can never be
        // selected in either direction; drop them before ranking or
        // pooling, exactly like `DirectedCandidates::select` does.
        let floor = selection.threshold.unwrap_or(f64::NEG_INFINITY);
        let mut sink = rules::ShardSink::new(ctx.cols(), want_for_targets.then_some(selection));
        let mut row_buf: Vec<(usize, f64)> = Vec::new();
        for range in ranges {
            sink.begin(range);
            let mut cube = SimCube::new();
            for (name, matcher) in matchers {
                cube.push(name.clone(), matcher.compute_rows(&ctx, range.clone()));
            }
            let agg = combination.aggregation.aggregate(&cube);
            drop(cube);
            for (li, i) in range.clone().enumerate() {
                row_buf.clear();
                row_buf.extend(agg.row_entries(li).filter(|&(_, v)| v > floor));
                sink.pool(i, &row_buf);
                if want_for_sources {
                    sink.store(i, &mut row_buf, Some(selection));
                }
            }
        }
        sink.finish()
    }
}

/// Unions the row-side survivor matrix of a row-sharded pipeline with
/// its pooled per-column survivors into one sparse matrix (the row side
/// itself when nothing was pooled). A cell present on both sides comes
/// from the same value, so duplicates collapse to the row-side copy.
fn merge_pooled(row_side: SimMatrix, mut pooled: Vec<(usize, usize, f64)>) -> SimMatrix {
    if pooled.is_empty() {
        return row_side;
    }
    pooled.sort_unstable_by_key(|&(i, j, _)| (i, j));
    let mut builder = SparseBuilder::new(row_side.rows(), row_side.cols());
    let mut p = 0;
    for i in 0..row_side.rows() {
        let mut row = row_side.row_entries(i).peekable();
        while p < pooled.len() && pooled[p].0 == i {
            let (_, pj, pv) = pooled[p];
            while let Some(&(j, v)) = row.peek() {
                if j < pj {
                    builder.push(i, j, v);
                    row.next();
                } else {
                    break;
                }
            }
            if row.peek().is_some_and(|&(j, _)| j == pj) {
                // Same cell on both sides; the row copy is emitted by a
                // later iteration (or the flush below).
            } else {
                builder.push(i, pj, pv);
            }
            p += 1;
        }
        for (j, v) in row {
            builder.push(i, j, v);
        }
    }
    builder.finish()
}

/// The average similarity over every nonzero cell of `matrix`: the
/// schema similarity of a stage that emits exactly those pairs.
fn average_similarity(matrix: &SimMatrix) -> f64 {
    let selection = crate::combine::Selection::threshold(0.0);
    let survivors = DirectedCandidates::select(matrix, crate::combine::Direction::Both, &selection);
    crate::combine::CombinedSim::Average.compute(&survivors, matrix.rows(), matrix.cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{CombinationStrategy, Direction, Selection};
    use crate::matchers::synonym::SynonymTable;
    use crate::process::{Coma, MatchStrategy};
    use coma_graph::{PathSet, Schema};

    fn po1() -> Schema {
        coma_sql::import_ddl(
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

    fn coma() -> Coma {
        let mut c = Coma::new();
        c.aux_mut().synonyms = SynonymTable::purchase_order();
        c
    }

    /// A flat strategy through the engine is bit-identical to the legacy
    /// sequential pipeline — cube and combined result alike.
    #[test]
    fn flat_plan_matches_legacy_pipeline() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux()).with_repository(c.repository());
        let strategy = MatchStrategy::paper_default();

        let legacy_cube = c.execute_matchers(&ctx, &strategy.matchers).unwrap();
        let legacy_result = c.combine_cube(&legacy_cube, &ctx, &strategy.combination);

        let outcome = PlanEngine::new(c.library())
            .execute(&ctx, &MatchPlan::from(&strategy))
            .unwrap();
        assert_eq!(outcome.result, legacy_result);
        assert_eq!(outcome.stages.len(), 1);
        assert_eq!(outcome.stages[0].cube, legacy_cube);

        // Sequential engine execution agrees too (determinism under
        // parallelism).
        let serial =
            PlanEngine::with_config(c.library(), EngineConfig::default().with_parallel(false))
                .execute(&ctx, &MatchPlan::from(&strategy))
                .unwrap();
        assert_eq!(serial.result, legacy_result);
    }

    /// The tentpole scenario: a cheap name filter whose survivors restrict
    /// an expensive structural refine — inexpressible as a flat strategy.
    #[test]
    fn two_stage_filter_refine_restricts_the_search_space() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux()).with_repository(c.repository());

        // Stage 1: liberal Name-only filter. Stage 2: full hybrid refine.
        let plan = MatchPlan::two_stage(
            ["Name"],
            Selection::max_n(4).with_threshold(0.3),
            &MatchStrategy::paper_default(),
        );
        let outcome = PlanEngine::new(c.library()).execute(&ctx, &plan).unwrap();
        assert_eq!(outcome.stages.len(), 2);

        // Every refined candidate survived the filter stage.
        let filter_result = &outcome.stages[0].result;
        for cand in &outcome.result.candidates {
            assert!(
                filter_result.contains(cand.source, cand.target),
                "refined pair was not a filter survivor"
            );
        }
        assert!(!outcome.result.is_empty());

        // The refine stage's cube is materialized and masked: cells the
        // filter dropped are zero in every slice.
        let refine_cube = outcome.final_cube().unwrap();
        assert_eq!(refine_cube.len(), 5);
        let survivors = PairMask::from_result(ctx.rows(), ctx.cols(), filter_result);
        for k in 0..refine_cube.len() {
            for (i, j, v) in refine_cube.slice(k).nonzero() {
                assert!(
                    survivors.allows(i, j),
                    "slice {k} kept disallowed cell ({i},{j}) = {v}"
                );
            }
        }

        // And the restriction is observable: the flat plan proposes at
        // least as many candidates as the restricted one.
        let flat = PlanEngine::new(c.library())
            .execute(&ctx, &MatchPlan::from(&MatchStrategy::paper_default()))
            .unwrap();
        assert!(flat.result.len() >= outcome.result.len());
    }

    /// A `Seq { CandidateIndex, refine }` plan: the index stage restricts
    /// the refine stage, reports its index statistics, and keeps every
    /// pair the exact Name filter would keep (recall guarantee).
    #[test]
    fn candidate_index_prefilters_like_a_name_stage() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux()).with_repository(c.repository());

        let plan = MatchPlan::seq(
            MatchPlan::candidate_index(1, 0.0).unwrap(),
            MatchPlan::from(&MatchStrategy::paper_default()),
        );
        let outcome = PlanEngine::new(c.library()).execute(&ctx, &plan).unwrap();
        assert_eq!(outcome.stages.len(), 2);

        // The index stage reports its build/traffic statistics; no other
        // stage kind does.
        let stats = outcome.stages[0]
            .index_stats
            .expect("CandidateIndex stage carries IndexStats");
        assert!(stats.token_postings > 0 && stats.gram_postings > 0);
        assert!(outcome.stages[1].index_stats.is_none());
        assert!(outcome.stages[0].label.starts_with("CandidateIndex("));

        // Recall: every pair the exact liberal Name stage selects is an
        // index candidate.
        let mut liberal = CombinationStrategy::paper_default();
        liberal.selection = Selection::max_n(4).with_threshold(0.3);
        let exact = PlanEngine::new(c.library())
            .execute(&ctx, &MatchPlan::matchers_with(["Name"], liberal))
            .unwrap();
        let candidates = &outcome.stages[0].result;
        for cand in &exact.result.candidates {
            assert!(
                candidates.contains(cand.source, cand.target),
                "index missed Name-selected pair {:?} -> {:?}",
                cand.source,
                cand.target
            );
        }

        // And the refine stage stayed inside the candidate mask.
        let survivors = PairMask::from_result(ctx.rows(), ctx.cols(), candidates);
        for cand in &outcome.result.candidates {
            assert!(survivors.allows(cand.source.index(), cand.target.index()));
        }
        assert!(!outcome.result.is_empty());
    }

    /// The `CandidateIndex` leaf is deterministic and storage-invariant:
    /// forced shard counts, sequential execution and the dense oracle all
    /// produce identical values, and the per-element cap bounds the mask.
    #[test]
    fn candidate_index_is_deterministic_across_configs() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux());
        let plan = MatchPlan::candidate_index_with(1, 0.0, 3, Some(2)).unwrap();

        let reference = PlanEngine::new(c.library()).execute(&ctx, &plan).unwrap();
        for cfg in [
            EngineConfig::default().with_parallel(false),
            EngineConfig::default().with_shards(3),
            EngineConfig::default().with_sparse(false),
        ] {
            let other = PlanEngine::with_config(c.library(), cfg.clone())
                .execute(&ctx, &plan)
                .unwrap();
            assert_eq!(other.result, reference.result, "config {cfg:?} diverged");
        }
        // Sparse path on: the stage's slice is CSR; dense oracle: dense.
        assert!(reference.stages[0].cube.slice(0).is_sparse());
        let dense =
            PlanEngine::with_config(c.library(), EngineConfig::default().with_sparse(false))
                .execute(&ctx, &plan)
                .unwrap();
        assert!(!dense.stages[0].cube.slice(0).is_sparse());

        // The Both-style cap bounds the mask at cap·(m+n) pairs total.
        assert!(reference.result.len() <= 2 * (ctx.rows() + ctx.cols()));
        assert!(!reference.result.is_empty());
    }

    /// `Par` sub-plan order never changes the outcome: slices are
    /// canonicalized by label before aggregation.
    #[test]
    fn par_is_order_invariant() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux());

        let a = MatchPlan::matchers(["Name", "TypeName"]);
        let b = MatchPlan::matchers(["NamePath"]);
        let d = MatchPlan::matchers(["Leaves"]);
        let combination = CombinationStrategy::paper_default();
        let engine = PlanEngine::new(c.library());

        let fwd = engine
            .execute(
                &ctx,
                &MatchPlan::par([a.clone(), b.clone(), d.clone()], combination.clone()),
            )
            .unwrap();
        let rev = engine
            .execute(&ctx, &MatchPlan::par([d, b, a], combination))
            .unwrap();
        assert_eq!(fwd.result, rev.result);
        assert_eq!(fwd.final_cube(), rev.final_cube());
        assert!(!fwd.result.is_empty());
    }

    /// Weighted aggregation pairs weights with sub-plans in declaration
    /// order — `Par` must not reorder slices underneath it.
    #[test]
    fn par_weighted_keeps_declaration_order() {
        use crate::combine::Aggregation;
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux());
        let engine = PlanEngine::new(c.library());

        let name = MatchPlan::matchers(["Name"]);
        let leaves = MatchPlan::matchers(["Leaves"]);
        let weighted = |w: Vec<f64>| CombinationStrategy {
            aggregation: Aggregation::Weighted(w),
            ..CombinationStrategy::paper_default()
        };

        // All weight on the Name sub-plan, expressed in both orders: the
        // weight must follow the sub-plan, so results agree.
        let name_first = engine
            .execute(
                &ctx,
                &MatchPlan::par([name.clone(), leaves.clone()], weighted(vec![1.0, 0.0])),
            )
            .unwrap();
        let name_second = engine
            .execute(
                &ctx,
                &MatchPlan::par([leaves.clone(), name.clone()], weighted(vec![0.0, 1.0])),
            )
            .unwrap();
        assert_eq!(name_first.result, name_second.result);

        // Flipping the weights instead changes the outcome.
        let leaves_weighted = engine
            .execute(
                &ctx,
                &MatchPlan::par([name, leaves], weighted(vec![0.0, 1.0])),
            )
            .unwrap();
        assert_ne!(name_first.result, leaves_weighted.result);
    }

    /// `Filter` tightens a result mid-pipeline.
    #[test]
    fn filter_node_tightens_selection() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux());

        let base = MatchPlan::matchers(["Name", "NamePath"]);
        let engine = PlanEngine::new(c.library());
        let loose = engine.execute(&ctx, &base).unwrap();
        let tight = engine
            .execute(
                &ctx,
                &base
                    .clone()
                    .filtered(Direction::Both, Selection::max_n(1).with_threshold(0.8)),
            )
            .unwrap();
        assert!(tight.result.len() <= loose.result.len());
        assert!(tight
            .result
            .candidates
            .iter()
            .all(|cand| cand.similarity > 0.8));
        // The threshold filter fuses with its Matchers input, so the
        // inner stage is not materialized separately.
        assert_eq!(tight.stages.len(), 1);
        assert!(tight.stages[0].fused);
    }

    /// `TopK` keeps at most k candidates per element and its survivors
    /// restrict a downstream refine stage.
    #[test]
    fn top_k_prunes_and_restricts_downstream_stages() {
        use crate::engine::plan::TopKPer;
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux());

        let mut liberal = CombinationStrategy::paper_default();
        liberal.selection = Selection::max_n(6).with_threshold(0.2);
        let name_plan = MatchPlan::matchers_with(["Name"], liberal);
        let pruned = name_plan.clone().top_k(2, TopKPer::Both).unwrap();
        let plan = MatchPlan::seq(pruned, MatchPlan::from(&MatchStrategy::paper_default()));

        let outcome = PlanEngine::new(c.library()).execute(&ctx, &plan).unwrap();
        // The TopK stage fuses compute→prune (its input is a prunable
        // Matchers leaf over an unrestricted context), so the inner Name
        // stage is not materialized: TopK and refine remain.
        assert_eq!(outcome.stages.len(), 2);
        assert!(outcome.stages[0].fused);
        assert!(!outcome.stages[1].fused);

        // Unfused execution materializes all three stages and agrees
        // with the fused run stage for stage (matching labels) and on
        // the final result.
        let unfused = PlanEngine::with_config(
            c.library(),
            EngineConfig::default().with_fuse_pruning(false),
        )
        .execute(&ctx, &plan)
        .unwrap();
        assert_eq!(unfused.stages.len(), 3); // Name, TopK, refine
        assert!(unfused.stages.iter().all(|s| !s.fused));
        assert_eq!(outcome.result, unfused.result);
        for fused_stage in &outcome.stages {
            let twin = unfused
                .stages
                .iter()
                .find(|s| s.label == fused_stage.label)
                .expect("fused stage has an unfused twin");
            assert_eq!(fused_stage.cube, twin.cube, "stage {}", fused_stage.label);
            assert_eq!(fused_stage.result, twin.result);
        }

        let name_stage = PlanEngine::new(c.library())
            .execute(&ctx, &name_plan)
            .unwrap()
            .result;
        let name_stage = &name_stage;
        let topk_stage = &outcome.stages[0].result;
        // TopK output is a subset of its input.
        for cand in &topk_stage.candidates {
            assert!(name_stage.contains(cand.source, cand.target));
        }
        // Per-row and per-column candidate counts respect k = 2.
        for i in 0..ctx.rows() {
            let per_row = topk_stage
                .candidates
                .iter()
                .filter(|c| c.source.index() == i)
                .count();
            assert!(per_row <= 2 + 2, "row {i} kept {per_row}"); // Both = union
        }
        // The refine stage only proposes TopK survivors.
        for cand in &outcome.result.candidates {
            assert!(
                topk_stage.contains(cand.source, cand.target),
                "refined pair did not survive TopK"
            );
        }
        assert!(!outcome.result.is_empty());
    }

    /// `Iterate` terminates within `max_rounds` and converges to a stable
    /// result (a deterministic sub-plan restricted to its own survivors
    /// reaches a fixpoint in practice after two rounds).
    #[test]
    fn iterate_terminates_and_stabilizes() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux());

        let sub = MatchPlan::from(&MatchStrategy::paper_default());
        let max_rounds = 5;
        let plan = sub.clone().iterate(max_rounds, 1e-9).unwrap();
        let outcome = PlanEngine::new(c.library()).execute(&ctx, &plan).unwrap();

        // Rounds executed = sub-plan stages pushed; bounded by max_rounds.
        let rounds = outcome
            .stages
            .iter()
            .filter(|s| s.label == sub.label())
            .count();
        assert!(
            (1..=max_rounds).contains(&rounds),
            "{rounds} rounds for max {max_rounds}"
        );
        assert!(!outcome.result.is_empty());
        // The final result is a fixpoint: the last two rounds select the
        // same pairs with the same similarities. (The rounds' schema
        // similarities may differ — that value is derived from the
        // directional candidate lists, which the round restriction
        // shrinks — but the convergence criterion is the pair matrix.)
        if rounds >= 2 {
            let last_two: Vec<_> = outcome
                .stages
                .iter()
                .filter(|s| s.label == sub.label())
                .rev()
                .take(2)
                .collect();
            assert_eq!(last_two[0].result.candidates, last_two[1].result.candidates);
        }
    }

    /// Sparse and dense execution of the same masked plan are
    /// bit-identical; the sparse path merely skips the disallowed work.
    #[test]
    fn sparse_and_dense_masked_execution_agree() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux());

        let plan = MatchPlan::two_stage(
            ["Name"],
            Selection::max_n(3).with_threshold(0.3),
            &MatchStrategy::paper_default(),
        );
        let sparse = PlanEngine::new(c.library()).execute(&ctx, &plan).unwrap();
        let dense =
            PlanEngine::with_config(c.library(), EngineConfig::default().with_sparse(false))
                .execute(&ctx, &plan)
                .unwrap();
        assert_eq!(sparse.result, dense.result);
        assert_eq!(sparse.stages.len(), dense.stages.len());
        for (a, b) in sparse.stages.iter().zip(&dense.stages) {
            assert_eq!(a.cube, b.cube, "stage {} cubes differ", a.label);
            assert_eq!(a.result, b.result);
        }
    }

    /// Degenerate plan shapes fail up front with `CoreError::Plan` instead
    /// of panicking mid-execution.
    #[test]
    fn degenerate_plans_fail_fast() {
        use crate::engine::plan::{PlanErrorKind, TopKPer};
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux());
        let engine = PlanEngine::new(c.library());

        let empty_matchers = MatchPlan::matchers(Vec::<String>::new());
        assert!(matches!(
            engine.execute(&ctx, &empty_matchers),
            Err(CoreError::Plan(e)) if e.kind() == PlanErrorKind::EmptyMatchers
        ));

        let empty_par = MatchPlan::par([], CombinationStrategy::paper_default());
        assert!(matches!(
            engine.execute(&ctx, &empty_par),
            Err(CoreError::Plan(e)) if e.kind() == PlanErrorKind::EmptyPar
        ));

        // Hand-assembled degenerate nodes (bypassing the constructors).
        let zero_k = MatchPlan::TopK {
            input: Box::new(MatchPlan::matchers(["Name"])),
            k: 0,
            per: TopKPer::Both,
        };
        assert!(matches!(
            engine.execute(&ctx, &zero_k),
            Err(CoreError::Plan(e)) if e.kind() == PlanErrorKind::ZeroTopK && e.path() == "TopK"
        ));

        let zero_rounds = MatchPlan::Iterate {
            plan: Box::new(MatchPlan::matchers(["Name"])),
            max_rounds: 0,
            epsilon: 0.01,
        };
        assert!(matches!(
            engine.execute(&ctx, &zero_rounds),
            Err(CoreError::Plan(e)) if e.kind() == PlanErrorKind::ZeroIterations
        ));
    }

    /// Unknown matchers anywhere in the tree fail up front.
    #[test]
    fn unknown_matcher_fails_before_execution() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux());
        let plan = MatchPlan::seq(
            MatchPlan::matchers(["Name"]),
            MatchPlan::matchers(["Bogus"]),
        );
        let err = PlanEngine::new(c.library())
            .execute(&ctx, &plan)
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownMatcher(name) if name == "Bogus"));
    }

    /// Shard boundaries partition the row space: contiguous, in order,
    /// never empty, covering every row exactly once — including when
    /// `rows % shards != 0` and when more shards than rows are requested.
    #[test]
    fn shard_ranges_cover_every_row_exactly_once() {
        for rows in 0..40 {
            for shards in [1, 2, 3, 5, 7, 8, rows + 1, rows + 13] {
                let ranges = shard_ranges(rows, shards);
                if rows == 0 {
                    assert!(ranges.is_empty(), "rows=0 must shard to nothing");
                    continue;
                }
                assert!(ranges.len() <= shards.max(1), "rows={rows} shards={shards}");
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap before {r:?} (rows={rows})");
                    assert!(!r.is_empty(), "zero-row shard {r:?} (rows={rows})");
                    next = r.end;
                }
                assert_eq!(next, rows, "rows={rows} shards={shards}");
                // Balanced: shard sizes differ by at most one row.
                let sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "unbalanced shards {sizes:?}");
            }
        }
    }

    /// Row-sharded execution is bit-identical to single-shard execution —
    /// every stage cube and result, for any forced shard count (including
    /// more shards than rows), across flat and pruned plans.
    #[test]
    fn sharded_execution_matches_unsharded() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux()).with_repository(c.repository());

        let plans = [
            MatchPlan::from(&MatchStrategy::paper_default()),
            MatchPlan::two_stage(
                ["Name"],
                Selection::max_n(4).with_threshold(0.3),
                &MatchStrategy::paper_default(),
            ),
        ];
        for plan in &plans {
            let baseline =
                PlanEngine::with_config(c.library(), EngineConfig::default().with_shards(1))
                    .execute(&ctx, plan)
                    .unwrap();
            assert!(baseline.stages.iter().all(|s| s.shards == 1));
            for shards in [2, 7, ctx.rows() + 1] {
                let sharded = PlanEngine::with_config(
                    c.library(),
                    EngineConfig::default().with_shards(shards),
                )
                .execute(&ctx, plan)
                .unwrap();
                assert_eq!(sharded.result, baseline.result, "shards={shards}");
                assert_eq!(sharded.stages.len(), baseline.stages.len());
                for (a, b) in sharded.stages.iter().zip(&baseline.stages) {
                    assert_eq!(a.cube, b.cube, "stage {} (shards={shards})", a.label);
                    assert_eq!(a.result, b.result);
                }
                // The unrestricted first stage really ran sharded (shard
                // counts clamp to the row count).
                assert_eq!(
                    sharded.stages[0].shards,
                    shards.min(ctx.rows()),
                    "shards={shards}"
                );
            }
        }
    }

    /// Empty match tasks (`0 × n` and `m × 0` pair spaces) execute
    /// without panicking in both sparse and dense modes — their masks
    /// report density 0.0, so they always pick the sparse path — and
    /// yield empty results with zero-entry stage cubes.
    #[test]
    fn empty_tasks_execute_in_both_modes() {
        let c = coma();
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let none = coma_graph::PathSet::empty();

        let plans = [
            MatchPlan::from(&MatchStrategy::paper_default()),
            MatchPlan::two_stage(
                ["Name"],
                Selection::max_n(4).with_threshold(0.3),
                &MatchStrategy::paper_default(),
            ),
            MatchPlan::matchers(["Name"])
                .top_k(2, TopKPer::Both)
                .unwrap(),
        ];
        // 0 × n (empty source), m × 0 (empty target) and 0 × 0.
        let contexts = [
            MatchContext::new(&s1, &s2, &none, &p2, c.aux()),
            MatchContext::new(&s1, &s2, &p1, &none, c.aux()),
            MatchContext::new(&s1, &s2, &none, &none, c.aux()),
        ];
        for (which, ctx) in contexts.iter().enumerate() {
            assert_eq!(PairMask::new(ctx.rows(), ctx.cols()).density(), 0.0);
            for plan in &plans {
                for sparse in [true, false] {
                    let outcome = PlanEngine::with_config(
                        c.library(),
                        EngineConfig::default().with_sparse(sparse),
                    )
                    .execute(ctx, plan)
                    .unwrap_or_else(|e| panic!("task {which} (sparse={sparse}) failed: {e}"));
                    assert!(outcome.result.is_empty(), "task {which} sparse={sparse}");
                    for stage in &outcome.stages {
                        assert_eq!(stage.cube.stored_entries(), 0);
                        assert!(stage.result.is_empty());
                    }
                }
            }
        }
    }

    /// The shared `TypeName` instance is computed once per execution: the
    /// `All` strategy's `TypeName`, `Children` and `Leaves` slices reuse
    /// one memoized matrix (observable through instance identity).
    #[test]
    fn all_strategy_memoizes_the_shared_leaf_matcher() {
        let c = coma();
        let lib = c.library();
        let type_name = lib.get("TypeName").unwrap();
        let memo = MatchMemo::new();
        // Prime the memo with a poisoned TypeName matrix; if Children or
        // Leaves recomputed TypeName instead of hitting the memo, their
        // slices would not reflect it.
        let (s1, s2) = (po1(), po2());
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, c.aux()).with_memo(&memo);
        let poisoned = SimMatrix::new(ctx.rows(), ctx.cols());
        memo.matrix("TypeName", matcher_identity(&type_name), true, || {
            poisoned.clone()
        });
        let children = lib.get("Children").unwrap().compute(&ctx);
        // With an all-zero leaf matrix, every source-leaf cell of the
        // Children matrix must be zero; any other value means the matcher
        // recomputed TypeName instead of hitting the memo.
        for i in 0..ctx.rows() {
            if !ctx.source_paths.is_leaf(ctx.source_elem(i)) {
                continue;
            }
            for j in 0..ctx.cols() {
                assert_eq!(children.get(i, j), 0.0, "leaf cell ({i},{j}) recomputed");
            }
        }
    }
}
