//! The engine's execution decisions, each defined once: storage, fusion,
//! key-space selection, shard, worker and fused-thread counts, whether an
//! execution keeps its name table, and whether a plan's final result may
//! be cached.
//! [`PlanEngine`](super::PlanEngine) and the name matchers evaluate these
//! rules on runtime values and [`PlanAnalyzer`](super::PlanAnalyzer) on
//! its static bounds, so a prediction cannot drift from what it predicts.
//! Also home to the engine's one thread runner, [`run_chunks`], and to
//! what the row-sharded pipelines (fused leaf, candidate index) run on
//! it: [`run_row_shards`] and the per-worker [`ShardSink`].

use super::{EngineConfig, MatchPlan};
use crate::combine::{rank_entries, CombinationStrategy, Selection};
use crate::cube::{SimMatrix, SparseBuilder};
use crate::matchers::name_engine::NameEngine;
use crate::matchers::{Matcher, MatcherLibrary};
use std::ops::Range;
use std::sync::Arc;

/// Restrictions and selected pair sets at most this dense (a share of the
/// `m × n` pair space) store their stage's matrices sparse (CSR) and send
/// sparse-capable matchers down the restricted execution path; denser
/// ones compute the full matrix (worth memoizing) and stay dense.
const SPARSE_DENSITY_CUTOFF: f64 = 0.5;

/// Minimum rows per automatically sized shard: below it, per-shard setup
/// (spawn, per-shard similarity tables) outweighs the row work. Also the
/// fused pipeline's shard granularity, and so its peak-memory unit: a
/// fused worker holds one `MIN_SHARD_ROWS × n` dense slice per matcher,
/// plus their aggregate, at a time.
const MIN_SHARD_ROWS: usize = 192;

/// Soft cap, in bytes, on the fused pipeline's in-flight dense shard
/// slices across its worker threads, so fused peak memory follows this
/// budget instead of the machine's core count.
pub(super) const FUSE_BUDGET_BYTES: u64 = 1 << 30;

/// A leaf's matchers, resolved from the library in declaration order.
pub(super) type Resolved = Vec<(String, Arc<dyn Matcher>)>;

/// What one row-shard worker returns: a row fragment per shard it ran,
/// plus pooled cells carrying global row indices.
pub(super) type ShardOut = (Vec<SimMatrix>, Vec<(usize, usize, f64)>);

/// Whether a stage restricted to `density` of its pair space (by a mask
/// or a `TopK` keep set) stores its matrices sparse.
pub(super) fn sparse_storage(cfg: &EngineConfig, density: f64) -> bool {
    cfg.sparse && density <= SPARSE_DENSITY_CUTOFF
}

/// Whether the pair matrix of a result selecting `pairs` of `cells` pairs
/// stores sparse; an empty pair space stays dense.
pub(super) fn sparse_pairs(cfg: &EngineConfig, pairs: u64, cells: u64) -> bool {
    cells > 0 && sparse_storage(cfg, pairs as f64 / cells as f64)
}

/// Whether `matcher` computes a stage restricted to `density` of its pair
/// space under the restriction, instead of computing (and memoizing) its
/// full matrix and masking that.
pub(super) fn restricted_compute(cfg: &EngineConfig, matcher: &dyn Matcher, density: f64) -> bool {
    matcher.cell_local() || (matcher.sparse_capable() && sparse_storage(cfg, density))
}

/// Why a prunable stage (`TopK`, or a pruning `Filter`) cannot fuse with
/// its input, in the order [`fusable_leaf`] checks.
pub(super) enum Unfusable {
    /// The input is not a non-empty `Matchers` leaf.
    NotALeaf,
    /// Fusion or the sparse path is switched off.
    Off,
    /// Pinned feedback must resurface in the full combination.
    Feedback,
    /// The leaf's selection neither caps nor thresholds: nothing to prune.
    Unbounded,
    /// These leaf matchers are not row-shardable (or not in the library).
    Unshardable(Vec<String>),
}

/// The fusion rule: a prunable stage streams compute → aggregate → select
/// through row shards of its input when that input is a `Matchers` leaf
/// whose selection prunes, every leaf matcher is row-shardable, no
/// feedback is pinned, the sparse path and fusion are on — and the stage
/// runs unrestricted, which the caller checks. Returns the leaf's
/// resolved matchers and combination.
pub(super) fn fusable_leaf<'p>(
    cfg: &EngineConfig,
    library: &MatcherLibrary,
    input: &'p MatchPlan,
    feedback_pins: usize,
) -> Result<(Resolved, &'p CombinationStrategy), Unfusable> {
    let MatchPlan::Matchers {
        matchers,
        combination,
    } = input
    else {
        return Err(Unfusable::NotALeaf);
    };
    if !(cfg.fuse_pruning && cfg.sparse) {
        return Err(Unfusable::Off);
    }
    if feedback_pins > 0 {
        return Err(Unfusable::Feedback);
    }
    if matchers.is_empty() {
        return Err(Unfusable::NotALeaf);
    }
    if combination.selection.max_n.is_none() && combination.selection.threshold.is_none() {
        return Err(Unfusable::Unbounded);
    }
    let mut resolved = Vec::with_capacity(matchers.len());
    let mut unshardable = Vec::new();
    for name in matchers {
        match library.get(name) {
            Some(matcher) if matcher.row_shardable() => resolved.push((name.clone(), matcher)),
            _ => unshardable.push(name.clone()),
        }
    }
    if unshardable.is_empty() {
        Ok((resolved, combination))
    } else {
        Err(Unfusable::Unshardable(unshardable))
    }
}

/// The key-space rule: a fused prunable stage selects over the task's
/// distinct element names instead of its paths when the leaf's only
/// matcher is name-keyed ([`Matcher::name_keyed`]) and the execution
/// keeps that matcher's name table ([`keep_name_table`] over
/// `source_names × target_names` distinct names). Every cell is then a
/// function of its two names, so rows (and columns) with equal names
/// are equal and each is ranked once per name. Otherwise the stage runs
/// the row-sharded pipeline.
pub(super) fn selects_in_key_space(
    matchers: &[(String, Arc<dyn Matcher>)],
    source_names: usize,
    target_names: usize,
) -> bool {
    key_space_engine(matchers).is_some() && keep_name_table(source_names, target_names)
}

/// The name engine a key-space stage over `matchers` reads its table
/// for: the name-keyed engine of a leaf's only matcher. The engine finds
/// the table kept (see [`selects_in_key_space`]) or not in the
/// execution's memo.
pub(super) fn key_space_engine(matchers: &[(String, Arc<dyn Matcher>)]) -> Option<&NameEngine> {
    match matchers {
        [(_, matcher)] => matcher.name_keyed(),
        _ => None,
    }
}

/// The name-table rule: a plan execution keeps one table of its task's
/// distinct name-pair similarities (`hybrid::NameTable`), shared by every
/// `Name` and `TypeName` compute of the execution, while its
/// `source_names × target_names` `f64` cells fit [`FUSE_BUDGET_BYTES`].
/// Above that, each compute scores over a table of its own rows and
/// drops it, so a vocabulary-rich task keeps the fused pipeline's memory
/// contract.
pub(crate) fn keep_name_table(source_names: usize, target_names: usize) -> bool {
    (source_names as u64)
        .saturating_mul(target_names as u64)
        .saturating_mul(std::mem::size_of::<f64>() as u64)
        <= FUSE_BUDGET_BYTES
}

/// The result-cache rule: a plan's final result may be kept under its
/// schema-pair scope and answered again for an identical plan when the
/// plan has no `Reuse` node and every matcher it names is in the library
/// and [`Matcher::pure`]. The repository is then no input, so the result
/// depends only on the two schemas' contents and the plan.
pub(super) fn result_cacheable(library: &MatcherLibrary, plan: &MatchPlan) -> bool {
    fn has_reuse(plan: &MatchPlan) -> bool {
        matches!(plan, MatchPlan::Reuse { .. }) || plan.children().into_iter().any(has_reuse)
    }
    !has_reuse(plan)
        && plan
            .matcher_names()
            .into_iter()
            .all(|name| library.get(name).is_some_and(|m| m.pure()))
}

/// Worker threads an execution may occupy: the machine's available
/// parallelism, or 1 when parallel execution is off.
pub(super) fn workers(cfg: &EngineConfig) -> usize {
    if cfg.parallel {
        std::thread::available_parallelism().map_or(1, |w| w.get())
    } else {
        1
    }
}

/// Row shards of an unrestricted matcher compute or a candidate-index
/// scan over `rows` rows: the forced [`EngineConfig::shards`] count, or
/// else the `budget` of workers it may occupy, bounded so every shard
/// keeps at least [`MIN_SHARD_ROWS`] rows. 1 when parallel execution is
/// off; never more than `rows`.
pub(super) fn leaf_shards(cfg: &EngineConfig, rows: usize, budget: usize) -> usize {
    if !cfg.parallel || rows == 0 {
        return 1;
    }
    match cfg.shards {
        Some(forced) => forced.clamp(1, rows),
        None => budget.min(rows.div_ceil(MIN_SHARD_ROWS)).max(1),
    }
}

/// Threads that fill a key-space stage's name table on a task of `rows`
/// source rows: the workers, bounded like the row-sharded pipeline's
/// (one per [`MIN_SHARD_ROWS`] rows), so a task that pipeline would run
/// in one shard fills its table inline, without a spawn.
pub(super) fn name_fill_threads(cfg: &EngineConfig, rows: usize) -> usize {
    workers(cfg).min(rows.div_ceil(MIN_SHARD_ROWS)).max(1)
}

/// Row shards of the fused pipeline over `rows` rows: the forced count,
/// or else one per [`MIN_SHARD_ROWS`] rows. Parallelism does not enter:
/// shards are the pipeline's memory granularity, threads its parallelism.
pub(super) fn fused_shards(cfg: &EngineConfig, rows: usize) -> usize {
    match cfg.shards {
        Some(forced) => forced.clamp(1, rows.max(1)),
        None => rows.div_ceil(MIN_SHARD_ROWS).max(1),
    }
}

/// The fused pipeline's worker threads over `shards` row shards of a
/// `rows × cols` leaf of `matchers` matchers, and the bytes each worker
/// holds in flight (one dense shard slice per matcher plus their
/// aggregate). Threads are bounded by `workers`, by the shard count and
/// by [`FUSE_BUDGET_BYTES`], never below 1.
pub(super) fn fused_threads(
    workers: usize,
    shards: usize,
    rows: usize,
    cols: usize,
    matchers: usize,
) -> (usize, u64) {
    let shard_rows = rows.div_ceil(shards.max(1)) as u64;
    let inflight = shard_rows
        .saturating_mul(cols as u64)
        .saturating_mul(8 * (matchers as u64 + 1));
    let budget_cap = FUSE_BUDGET_BYTES
        .checked_div(inflight)
        .map_or(usize::MAX, |cap| cap.max(1) as usize);
    (workers.min(budget_cap).min(shards).max(1), inflight)
}

/// Runs `work` over `items` cut into at most `threads` contiguous chunks
/// of equal length (the last may be shorter), one scoped thread per
/// chunk, and returns each chunk's output in item order. A single chunk
/// runs inline, without a spawn. The engine spawns threads nowhere else.
pub(super) fn run_chunks<T, R, W>(items: &[T], threads: usize, work: W) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: Fn(&[T]) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    let chunks = items.chunks(items.len().div_ceil(threads).max(1));
    if chunks.len() <= 1 {
        return chunks.map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks.map(|c| scope.spawn(move || work(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine worker panicked"))
            .collect()
    })
}

/// Runs `work` over the row `ranges` of a `rows × cols` task through
/// [`run_chunks`] on at most `workers` threads, and joins what the
/// workers return: the row fragments stitched in row order into one
/// `rows × cols` matrix (sparse and empty when no fragment holds a row),
/// and every worker's pooled cells.
pub(super) fn run_row_shards<W>(
    rows: usize,
    cols: usize,
    ranges: &[Range<usize>],
    workers: usize,
    work: W,
) -> (SimMatrix, Vec<(usize, usize, f64)>)
where
    W: Fn(&[Range<usize>]) -> ShardOut + Sync,
{
    let (mut fragments, mut pooled) = (Vec::with_capacity(ranges.len()), Vec::new());
    for (frags, pool) in run_chunks(ranges, workers, work) {
        fragments.extend(frags);
        pooled.extend(pool);
    }
    let row_side = SimMatrix::from_row_shards(cols, fragments);
    if row_side.rows() == rows {
        (row_side, pooled)
    } else {
        debug_assert_eq!(row_side.rows(), 0, "fragments covered a partial row space");
        (SimMatrix::sparse(rows, cols), pooled)
    }
}

/// What one row-shard worker keeps while it runs its chunk of shards: a
/// CSR fragment per shard and, given a pool selection, one candidate
/// pool per column holding `(global row, value)` cells. A pool is
/// re-selected through that selection whenever it reaches
/// `max(4 · k, 16)` cells for the selection's `max_n` `k`; without a
/// `max_n` it never folds, since every cell it holds reaches the output.
/// A fold keeps what the selection keeps among the pooled cells, a
/// superset of what it keeps in the whole column, so the pools always
/// hold every cell the column's global selection chooses.
pub(super) struct ShardSink<'s> {
    cols: usize,
    pool_by: Option<&'s Selection>,
    fold_at: usize,
    pools: Vec<Vec<(usize, f64)>>,
    /// Columns whose pool received a cell (repeats after a fold emptied
    /// a pool; deduplicated by [`ShardSink::finish`]).
    touched: Vec<usize>,
    /// The current shard's first row and fragment.
    shard: Option<(usize, SparseBuilder)>,
    fragments: Vec<SimMatrix>,
}

impl<'s> ShardSink<'s> {
    /// A sink over `cols` columns; `pool_by` keeps column pools.
    pub(super) fn new(cols: usize, pool_by: Option<&'s Selection>) -> ShardSink<'s> {
        ShardSink {
            cols,
            pool_by,
            fold_at: pool_by
                .and_then(|s| s.max_n)
                .map_or(usize::MAX, |k| (4 * k).max(16)),
            pools: vec![Vec::new(); if pool_by.is_some() { cols } else { 0 }],
            touched: Vec::new(),
            shard: None,
            fragments: Vec::new(),
        }
    }

    /// Starts the fragment of the shard over `rows`, closing the last.
    pub(super) fn begin(&mut self, rows: &Range<usize>) {
        let next = (rows.start, SparseBuilder::new(rows.len(), self.cols));
        if let Some((_, done)) = self.shard.replace(next) {
            self.fragments.push(done.finish());
        }
    }

    /// Offers row `i`'s positive `(column, value)` entries to their
    /// column pools; a no-op for a sink without pools.
    pub(super) fn pool(&mut self, i: usize, entries: &[(usize, f64)]) {
        let Some(selection) = self.pool_by else {
            return;
        };
        for &(j, v) in entries.iter().filter(|&&(_, v)| v > 0.0) {
            let pool = &mut self.pools[j];
            if pool.is_empty() {
                self.touched.push(j);
            }
            pool.push((i, v));
            if pool.len() >= self.fold_at {
                rank_entries(pool, selection);
            }
        }
    }

    /// Stores row `i` of the current shard: its column-ascending
    /// `entries`, cut in place to what `selection` keeps when one is
    /// given.
    pub(super) fn store(
        &mut self,
        i: usize,
        entries: &mut Vec<(usize, f64)>,
        selection: Option<&Selection>,
    ) {
        let (start, builder) = self.shard.as_mut().expect("store before begin");
        if let Some(selection) = selection {
            rank_entries(entries, selection);
            entries.sort_unstable_by_key(|&(j, _)| j);
        }
        builder.push_row(i - *start, entries.iter().copied());
    }

    /// Closes the last fragment and returns the fragments with the
    /// pooled cells as `(row, column, value)`, column by column.
    pub(super) fn finish(mut self) -> ShardOut {
        if let Some((_, last)) = self.shard.take() {
            self.fragments.push(last.finish());
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        let pools = &self.pools;
        let pooled = self
            .touched
            .iter()
            .flat_map(|&j| pools[j].iter().map(move |&(i, v)| (i, j, v)))
            .collect();
        (self.fragments, pooled)
    }
}

#[cfg(test)]
mod tests {
    use crate::combine::{CombinationStrategy, Selection};
    use crate::engine::{
        EngineConfig, MatchPlan, PlanAnalyzer, PlanEngine, TaskStats, TopKPer, Tri,
    };
    use crate::matchers::context::MatchContext;
    use crate::process::Coma;
    use coma_graph::PathSet;

    fn leaf(names: &[&str], selection: Selection) -> MatchPlan {
        let mut combination = CombinationStrategy::paper_default();
        combination.selection = selection;
        MatchPlan::matchers_with(names.iter().copied(), combination)
    }

    fn top(input: MatchPlan) -> MatchPlan {
        input.top_k(2, TopKPer::Both).unwrap()
    }

    /// Only plans whose answer cannot depend on the repository are
    /// cacheable: no `Reuse` node at any depth, only known pure matchers.
    #[test]
    fn result_cache_rule_admits_only_repository_free_plans() {
        use crate::matchers::MatcherLibrary;
        use crate::process::MatchStrategy;
        let library = MatcherLibrary::standard();
        let cacheable = |plan: &MatchPlan| super::result_cacheable(&library, plan);
        let default = MatchPlan::from(&MatchStrategy::paper_default());
        assert!(cacheable(&default));
        assert!(cacheable(&crate::plans::topk_pruned_plan(5)));
        assert!(cacheable(&crate::plans::candidate_index_plan(5)));
        let reuse = MatchPlan::reuse(None);
        assert!(!cacheable(&reuse));
        let nested = MatchPlan::par(
            vec![default.clone(), reuse],
            CombinationStrategy::paper_default(),
        );
        assert!(!cacheable(&nested));
        assert!(!cacheable(&MatchPlan::matchers(["Name", "SchemaM"])));
        assert!(!cacheable(&MatchPlan::matchers(["Name", "NoSuchMatcher"])));
    }

    /// The two small schemas the agreement tests below match.
    fn po_schemas() -> (coma_graph::Schema, coma_graph::Schema) {
        let source = coma_sql::import_ddl(
            "CREATE TABLE PO.Customer (custNo INT, custName VARCHAR(200), custCity VARCHAR(200));",
            "PO1",
        )
        .unwrap();
        let target = coma_sql::import_ddl(
            "CREATE TABLE PO.Buyer (buyerNo INT, buyerName VARCHAR(100), city VARCHAR(100));",
            "PO2",
        )
        .unwrap();
        (source, target)
    }

    /// Every blocker of the fusion rule keeps the engine's prunable stage
    /// unfused, makes the analyzer predict `No` for it, and raises its
    /// diagnostic (or none); the unblocked plan fuses on both sides.
    #[test]
    fn fusion_blockers_agree_between_engine_and_analyzer() {
        let (source, target) = po_schemas();
        let (source_paths, target_paths) = (
            PathSet::new(&source).unwrap(),
            PathSet::new(&target).unwrap(),
        );
        let prunable = || leaf(&["Name"], Selection::max_n(3).with_threshold(0.2));
        let on = EngineConfig::default;
        // (case, config, feedback pinned, plan, prunable stage fuses, diagnostic)
        let cases = [
            ("fusable", on(), false, top(prunable()), true, None),
            (
                "sparse off",
                on().with_sparse(false),
                false,
                top(prunable()),
                false,
                None,
            ),
            (
                "fusion off",
                on().with_fuse_pruning(false),
                false,
                top(prunable()),
                false,
                None,
            ),
            (
                "restricted context",
                on(),
                false,
                MatchPlan::seq(MatchPlan::matchers(["Name"]), top(prunable())),
                false,
                None,
            ),
            (
                "pinned feedback",
                on(),
                true,
                top(prunable()),
                false,
                Some("N_FUSE_FEEDBACK"),
            ),
            (
                "unbounded leaf selection",
                on(),
                false,
                top(leaf(&["Name"], Selection::delta(0.1))),
                false,
                Some("W_UNFUSABLE_PRUNE"),
            ),
            (
                "non-row-shardable matcher",
                on(),
                false,
                top(leaf(&["Children"], Selection::max_n(3))),
                false,
                Some("W_UNFUSABLE_PRUNE"),
            ),
            (
                "non-Matchers input",
                on(),
                false,
                top(top(prunable())),
                false,
                None,
            ),
        ];
        for (case, cfg, pinned, plan, fuses, diagnostic) in cases {
            let mut coma = Coma::new();
            if pinned {
                coma.aux_mut().feedback.add_match("custName", "buyerName");
            }
            let ctx = MatchContext::new(&source, &target, &source_paths, &target_paths, coma.aux());
            // The prunable stage is the plan's root, or a `Seq`'s refine.
            let label = match &plan {
                MatchPlan::Seq { refine, .. } => refine.label(),
                root => root.label(),
            };
            let outcome = PlanEngine::with_config(coma.library(), cfg.clone())
                .execute(&ctx, &plan)
                .unwrap();
            let stage = outcome.stages.iter().find(|s| s.label == label).unwrap();
            assert_eq!(stage.fused, fuses, "{case}: engine");
            let analysis =
                PlanAnalyzer::new(coma.library(), cfg).analyze(&plan, &TaskStats::gather(&ctx));
            let predicted = if fuses { Tri::Yes } else { Tri::No };
            assert_eq!(
                analysis.fused_prediction(&label),
                predicted,
                "{case}: analyzer"
            );
            let codes: Vec<&str> = analysis
                .diagnostics
                .iter()
                .map(|d| d.code.as_str())
                .filter(|&code| code == "N_FUSE_FEEDBACK" || code == "W_UNFUSABLE_PRUNE")
                .collect();
            assert_eq!(codes, Vec::from_iter(diagnostic), "{case}: diagnostics");
        }
    }

    /// A key-space stage fills its name table inline on a task of one
    /// shard's rows and on every worker above; on one thread when
    /// parallel execution is off.
    #[test]
    fn name_tables_fill_inline_below_the_shard_floor() {
        let (cfg, large) = (EngineConfig::default(), 100 * super::MIN_SHARD_ROWS);
        assert_eq!(super::name_fill_threads(&cfg, 0), 1);
        assert_eq!(super::name_fill_threads(&cfg, super::MIN_SHARD_ROWS), 1);
        assert_eq!(super::name_fill_threads(&cfg, large), super::workers(&cfg));
        let serial = cfg.with_parallel(false);
        assert_eq!(super::name_fill_threads(&serial, large), 1);
    }

    /// The key-space rule agrees between engine and analyzer: a stage
    /// fused over a `Name` leaf selects in key space over the task's
    /// distinct names and reports one shard, while `TypeName` (keyed by
    /// name and datatype) and `[Name, NamePath]` (two matchers) run the
    /// row-sharded pipeline, here at two forced shards. Above the keep
    /// rule's budget, not even a `Name` leaf selects in key space.
    #[test]
    fn key_space_agrees_between_engine_and_analyzer() {
        let (source, target) = po_schemas();
        let (source_paths, target_paths) = (
            PathSet::new(&source).unwrap(),
            PathSet::new(&target).unwrap(),
        );
        let coma = Coma::new();
        let ctx = MatchContext::new(&source, &target, &source_paths, &target_paths, coma.aux());
        let stats = TaskStats::gather(&ctx);
        let names = (stats.source_distinct_names, stats.target_distinct_names);
        let cfg = EngineConfig::default().with_shards(2);
        for (leaf_matchers, keyed) in [
            (&["Name"][..], true),
            (&["TypeName"][..], false),
            (&["Name", "NamePath"][..], false),
        ] {
            let plan = top(leaf(leaf_matchers, Selection::max_n(3).with_threshold(0.2)));
            let outcome = PlanEngine::with_config(coma.library(), cfg.clone())
                .execute(&ctx, &plan)
                .unwrap();
            let stage = outcome.stages.last().unwrap();
            assert!(stage.fused, "{leaf_matchers:?}");
            assert_eq!(stage.key_space, keyed.then_some(names), "{leaf_matchers:?}");
            assert_eq!(stage.shards, if keyed { 1 } else { 2 }, "{leaf_matchers:?}");
            let analysis = PlanAnalyzer::new(coma.library(), cfg.clone()).analyze(&plan, &stats);
            let predicted = if keyed { Tri::Yes } else { Tri::No };
            assert_eq!(
                analysis.key_space_prediction(&stage.label),
                predicted,
                "{leaf_matchers:?}"
            );
            let facts = analysis.nodes.iter().find(|f| f.label == stage.label);
            assert_eq!(
                facts.map(|f| f.shards_estimate),
                Some(stage.shards),
                "{leaf_matchers:?}"
            );
        }
        let name = vec![("Name".to_string(), coma.library().get("Name").unwrap())];
        assert!(super::selects_in_key_space(&name, 433, 875));
        assert!(!super::selects_in_key_space(&name, 20_000, 20_000));
    }
}
