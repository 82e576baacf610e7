//! Static plan analysis: predict what [`PlanEngine`](super::PlanEngine)
//! will do with a [`MatchPlan`] — storage modes, fusion, shard counts, a
//! peak-allocation upper bound — *without executing anything*.
//!
//! The [`PlanAnalyzer`] walks the operator tree against an
//! [`EngineConfig`] and per-task [`TaskStats`] (side sizes, leaf counts,
//! vocabulary statistics, repository pivot availability, pinned
//! feedback). It decides storage, fusion and shard counts by calling the
//! engine's own rules (`engine/rules.rs`) on static bounds where the
//! engine calls them on runtime values:
//!
//! * **storage** — the density rule over the density *bounds* the
//!   selection/pruning operators imply (`TopK(k, Row)` keeps at most
//!   `k·m` pairs, a capped `CandidateIndex` at most `cap·(m+n)`, …),
//!   definite where it agrees at both ends of the bound;
//! * **fusion** — the fusion rule, with the node's restriction state;
//! * **shards** — the shard rules, as an upper bound of what executes;
//! * **peak allocation** — the 8·m·n dense model per materialized
//!   matrix, a CSR estimate under masks, the structural matchers'
//!   shared full-pair leaf table plus leaves-under expansions (built
//!   regardless of mask — `structural_scratch` below), and the fused
//!   pipeline's `threads × shard slice` in-flight model under the fused
//!   budget.
//!
//! # The facts lattice
//!
//! Some facts are *not* statically decidable: a `Seq` refine stage is
//! restricted by whatever the filter stage selected, and the rounds of an
//! `Iterate` flip between unrestricted (round 1) and restricted (rounds
//! 2+) execution of the same sub-plan. Predictions are therefore
//! three-valued ([`Tri`]): `Yes` and `No` are commitments the executed
//! [`StageOutcome`](super::StageOutcome)s must honor (this is what the
//! perf gate and the property tests check), `Maybe` is an honest "depends
//! on runtime densities". Merging the predictions of two nodes that share
//! a stage label joins them in this lattice (`Yes ⊔ No = Maybe`).
//!
//! # Soundness
//!
//! The peak bound is a *sum over materialized nodes plus shared
//! preparation*: every allocation the engine makes while executing a
//! node (matcher matrices, memoized copies, aggregates, masks, selection
//! scratch, result clones) is charged to that node's bound, tokenization
//! and the distinct-token/name similarity tables to the plan-level
//! preparation term. Live allocations at any instant are a subset of
//! "everything any node may hold plus preparation", so the sum bounds
//! the high-water mark. Where a fact is `Maybe`, the bound takes the
//! *maximum* over the possible execution paths. The model is generous by
//! design (constants absorb allocator slack and `Vec` growth); its
//! accuracy — measured peak over predicted bound — is recorded by
//! `perf_smoke` so looseness is visible, while the gate only requires
//! measured ≤ predicted.
//!
//! ```
//! use coma_core::{EngineConfig, MatchPlan, MatcherLibrary, PlanAnalyzer, TaskStats, TopKPer, Tri};
//! let library = MatcherLibrary::standard();
//! let plan = MatchPlan::matchers(["Name"]).top_k(2, TopKPer::Both).unwrap();
//! let analyzer = PlanAnalyzer::new(&library, EngineConfig::default());
//! let analysis = analyzer.analyze(&plan, &TaskStats::default());
//! assert!(!analysis.has_errors());
//! assert_eq!(analysis.fused_prediction(&plan.label()), Tri::Yes);
//! ```

use super::cache::EngineCache;
use super::index::VocabIndex;
use super::memo::matcher_identity;
use super::plan::{MatchPlan, TopKPer};
use super::rules::{self, Unfusable};
use super::EngineConfig;
use crate::combine::{CombinationStrategy, Direction, Selection};
use crate::matchers::context::{Auxiliary, MatchContext};
use crate::matchers::{Matcher, MatcherLibrary};
use coma_graph::{PathSet, Schema};
use std::fmt;
use std::sync::Arc;

/// How severe a [`PlanDiagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational fact worth surfacing (cache warmth, disabled paths).
    Note,
    /// Statically-detectable performance hazard; the plan still executes.
    Warn,
    /// The plan cannot execute (shape defects, unknown matchers). The
    /// server rejects plans with `Error` diagnostics before execution.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => f.write_str("note"),
            Severity::Warn => f.write_str("warn"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One structured finding of the analyzer, pinned to a plan node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDiagnostic {
    /// Error / Warn / Note.
    pub severity: Severity,
    /// Stable machine-readable code (`E_*` / `W_*` / `N_*`).
    pub code: String,
    /// Node path in the tree, e.g. `Seq[1].TopK` (see
    /// [`PlanError::path`](super::PlanError::path)).
    pub node_path: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for PlanDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} at `{}`: {}",
            self.severity, self.code, self.node_path, self.message
        )
    }
}

/// A three-valued static prediction: `Yes`/`No` are commitments the
/// execution must honor, `Maybe` means the fact depends on runtime
/// densities the analyzer cannot know (module docs: the facts lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tri {
    /// The fact definitely holds.
    Yes,
    /// The fact definitely does not hold.
    No,
    /// Statically undecidable; either outcome is sound.
    Maybe,
}

impl Tri {
    /// Whether an executed boolean is consistent with this prediction —
    /// the soundness check the perf gate and property tests apply.
    pub fn agrees_with(self, actual: bool) -> bool {
        match self {
            Tri::Yes => actual,
            Tri::No => !actual,
            Tri::Maybe => true,
        }
    }

    /// Lattice join: equal values keep, conflicting ones become `Maybe`.
    pub fn join(self, other: Tri) -> Tri {
        if self == other {
            self
        } else {
            Tri::Maybe
        }
    }

    fn from_bool(b: bool) -> Tri {
        if b {
            Tri::Yes
        } else {
            Tri::No
        }
    }

    /// A rule monotone in its input, evaluated at both ends of a bound:
    /// definite where the ends agree.
    fn between(lo: bool, hi: bool) -> Tri {
        if lo == hi {
            Tri::from_bool(hi)
        } else {
            Tri::Maybe
        }
    }
}

impl fmt::Display for Tri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tri::Yes => f.write_str("yes"),
            Tri::No => f.write_str("no"),
            Tri::Maybe => f.write_str("maybe"),
        }
    }
}

/// Per-task schema statistics the analyzer predicts against: the match
/// object sizes, vocabulary statistics (the same tokenization the
/// [`VocabIndex`] applies), repository pivot availability, and pinned
/// feedback. Build one with [`TaskStats::gather`], or from two prepared
/// [`SchemaStats`] with [`TaskStats::from_sides`]; `Default` is the
/// empty task (useful for plan-shape-only analysis).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskStats {
    /// Source-side match objects (matrix rows, `m`).
    pub rows: usize,
    /// Target-side match objects (matrix columns, `n`).
    pub cols: usize,
    /// Source-side leaf paths.
    pub source_leaves: usize,
    /// Target-side leaf paths.
    pub target_leaves: usize,
    /// Total `PathId` entries across every source node's leaves-under
    /// expansion (Σ_p |leaves_under(p)|) — the working-set size of the
    /// structural matchers' per-node leaf-set tables.
    pub source_leafset_ids: usize,
    /// Target-side total of the leaves-under expansions.
    pub target_leafset_ids: usize,
    /// Distinct element names per side.
    pub source_distinct_names: usize,
    /// Distinct element names per side.
    pub target_distinct_names: usize,
    /// Distinct (abbreviation-expanded) tokens per side.
    pub source_tokens: usize,
    /// Distinct (abbreviation-expanded) tokens per side.
    pub target_tokens: usize,
    /// Token posting entries across both sides (index build work).
    pub token_postings: usize,
    /// Q-gram posting entries across both sides (q = 3 probe).
    pub gram_postings: usize,
    /// Jaccard overlap of the two sides' distinct token sets, `[0, 1]`.
    pub vocab_overlap: f64,
    /// Pinned user-feedback correspondences (`Auxiliary::feedback`); they
    /// resurface in every combination, widening selection bounds, and
    /// disable fusion.
    pub feedback_pins: usize,
    /// Hop length of the shortest repository pivot chain between the two
    /// schemas (`None`: no repository, or no chain within the probe
    /// budget) — what a `Reuse` leaf will find.
    pub min_pivot_hops: Option<usize>,
    /// Total stored correspondences in the repository (compose work).
    pub repo_correspondences: usize,
}

impl TaskStats {
    /// Pivot-chain probe budget for [`TaskStats::gather`]: chains longer
    /// than this are treated as unavailable.
    pub const PIVOT_PROBE_HOPS: usize = 4;

    /// Gathers the statistics for one match task: both sides'
    /// [`SchemaStats`], paired by [`TaskStats::from_sides`].
    pub fn gather(ctx: &MatchContext<'_>) -> TaskStats {
        TaskStats::from_sides(
            ctx,
            &SchemaStats::of(ctx.source, ctx.source_paths, ctx.aux),
            &SchemaStats::of(ctx.target, ctx.target_paths, ctx.aux),
        )
    }

    /// Pairs two prepared sides of the task `ctx` describes (`source`
    /// and `target` must be the [`SchemaStats`] of `ctx`'s two schemas
    /// under `ctx`'s auxiliary tables) and adds the pair half: vocabulary
    /// overlap, pinned feedback, and pivot availability from the attached
    /// repository (if any), probing chains up to
    /// [`TaskStats::PIVOT_PROBE_HOPS`] hops.
    pub fn from_sides(
        ctx: &MatchContext<'_>,
        source: &SchemaStats,
        target: &SchemaStats,
    ) -> TaskStats {
        debug_assert_eq!((source.paths, target.paths), (ctx.rows(), ctx.cols()));
        let shared = source
            .tokens
            .iter()
            .filter(|t| target.tokens.binary_search(t).is_ok())
            .count();
        let union = source.tokens.len() + target.tokens.len() - shared;
        let vocab_overlap = if union == 0 {
            0.0
        } else {
            shared as f64 / union as f64
        };
        let (min_pivot_hops, repo_correspondences) = match ctx.repository {
            Some(repo) => {
                let chains = repo.pivot_paths(
                    ctx.source.name(),
                    ctx.target.name(),
                    TaskStats::PIVOT_PROBE_HOPS,
                    |_| true,
                );
                (
                    chains.iter().map(|c| c.hops.len()).min(),
                    repo.mappings()
                        .iter()
                        .map(|m| m.correspondences.len())
                        .sum(),
                )
            }
            None => (None, 0),
        };
        TaskStats {
            rows: source.paths,
            cols: target.paths,
            source_leaves: source.leaves,
            target_leaves: target.leaves,
            source_leafset_ids: source.leafset_ids,
            target_leafset_ids: target.leafset_ids,
            source_distinct_names: source.distinct_names,
            target_distinct_names: target.distinct_names,
            source_tokens: source.tokens.len(),
            target_tokens: target.tokens.len(),
            token_postings: source.token_postings + target.token_postings,
            gram_postings: source.gram_postings + target.gram_postings,
            vocab_overlap,
            feedback_pins: ctx.aux.feedback.len(),
            min_pivot_hops,
            repo_correspondences,
        }
    }

    /// The pair-space size `m · n`.
    pub fn cells(&self) -> u64 {
        (self.rows as u64).saturating_mul(self.cols as u64)
    }
}

/// The schema-side half of [`TaskStats`]: everything it reads from one
/// schema alone. It does not depend on the partner schema or on which
/// side the schema is on, so a server prepares it once per stored schema
/// and pairs it per request with [`TaskStats::from_sides`].
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaStats {
    /// Match objects (paths).
    paths: usize,
    /// Paths ending at a leaf node.
    leaves: usize,
    /// Σ_p |leaves_under(p)| (see [`TaskStats::source_leafset_ids`]).
    leafset_ids: usize,
    /// Distinct element names.
    distinct_names: usize,
    /// The distinct abbreviation-expanded tokens, sorted.
    tokens: Vec<String>,
    /// Token posting entries of the side's `q = 3` index.
    token_postings: usize,
    /// Q-gram posting entries of the side's `q = 3` index.
    gram_postings: usize,
}

impl SchemaStats {
    /// Gathers one side's statistics: path, leaf, leaf-set-id and
    /// distinct-name counts, and the vocabulary of a `q = 3`
    /// [`VocabIndex`] built over the side's element names (the exact
    /// tokenization the engine indexes).
    pub fn of(schema: &Schema, paths: &PathSet, aux: &Auxiliary) -> SchemaStats {
        let mut names: Vec<&str> = paths.iter().map(|id| paths.name(schema, id)).collect();
        let index = VocabIndex::build(names.iter().copied(), aux, 3);
        let (token_postings, gram_postings) =
            (index.token_posting_entries(), index.gram_posting_entries());
        let mut tokens = index.into_tokens();
        tokens.sort_unstable();
        names.sort_unstable();
        names.dedup();
        SchemaStats {
            paths: paths.len(),
            leaves: paths
                .iter()
                .filter(|&id| schema.is_leaf(paths.node_of(id)))
                .count(),
            leafset_ids: leafset_id_total(paths),
            distinct_names: names.len(),
            tokens,
            token_postings,
            gram_postings,
        }
    }
}

/// The static facts the analyzer derives for one plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFacts {
    /// Node path in the tree (`Seq[1].TopK`; root: its bare kind).
    pub path: String,
    /// The node's complete plan label — the join key to
    /// [`StageOutcome::label`](super::StageOutcome).
    pub label: String,
    /// Operator kind (`Matchers`, `TopK`, …).
    pub kind: &'static str,
    /// Whether this node pushes its own [`StageOutcome`](super::StageOutcome). `No` for `Seq`
    /// (a pure combinator) and for a `Matchers` leaf absorbed into a
    /// definitely-fused parent; `Maybe` when the parent's fusion is.
    pub materialized: Tri,
    /// Upper bound on the pairs this node's result selects.
    pub out_pairs_hi: u64,
    /// `out_pairs_hi` over the pair space (0 when the task is empty).
    pub density_hi: f64,
    /// Will the stage's cube be stored all-sparse (CSR)?
    pub storage_sparse: Tri,
    /// Will the stage execute on the streaming-fused path?
    pub fused: Tri,
    /// Will the fused stage select in key space, over distinct element
    /// names ([`StageOutcome::key_space`](super::StageOutcome))?
    pub key_space: Tri,
    /// Upper bound on the stage's executed shard count
    /// ([`StageOutcome::shards`](super::StageOutcome)); automatic sizing
    /// depends on the machine's parallelism.
    pub shards_estimate: usize,
    /// Upper bound on the bytes this node's execution may allocate.
    pub peak_bytes: u64,
    /// With a tenant cache attached: `(warm, total)` leaf artifacts
    /// (matcher matrices, or the vocabulary indexes of a
    /// `CandidateIndex`) already present for this schema pair.
    pub warmth: Option<(usize, usize)>,
}

impl NodeFacts {
    /// The facts of a materialized, unfused, single-shard node with no
    /// cache warmth; callers override what differs.
    fn new(path: String, plan: &MatchPlan, out: u64, cells: u64, storage: Tri, peak: u64) -> Self {
        NodeFacts {
            path,
            label: plan.label(),
            kind: plan.kind_name(),
            materialized: Tri::Yes,
            out_pairs_hi: out,
            density_hi: density(out, cells),
            storage_sparse: storage,
            fused: Tri::No,
            key_space: Tri::No,
            shards_estimate: 1,
            peak_bytes: peak,
            warmth: None,
        }
    }
}

/// The result of one [`PlanAnalyzer::analyze`] pass: per-node facts,
/// structured diagnostics, and the plan-level cost summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnalysis {
    /// Facts per node, in preorder.
    pub nodes: Vec<NodeFacts>,
    /// Every diagnostic found, errors first, in walk order within a
    /// severity.
    pub diagnostics: Vec<PlanDiagnostic>,
    /// Upper bound on peak allocation of one execution, in bytes
    /// (preparation + every materialized node + slack). Deliberately
    /// machine-independent — worst cases are budget-derived, never
    /// core-count-derived — so the bound can be committed and gated
    /// across runners.
    pub peak_bytes: u64,
    /// The shared-preparation part of [`PlanAnalysis::peak_bytes`].
    pub prep_bytes: u64,
    /// Upper bound on materialized stages (`MatchPlan::stage_count`).
    pub stage_count: usize,
    /// The task statistics the analysis ran against.
    pub stats: TaskStats,
}

impl PlanAnalysis {
    /// Whether any `Error` diagnostic was found (the plan cannot run).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Whether any `Warn` diagnostic was found.
    pub fn has_warnings(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Warn)
    }

    /// The diagnostics of one severity, in walk order.
    pub fn with_severity(&self, severity: Severity) -> impl Iterator<Item = &PlanDiagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// The storage prediction for every node whose label is `label`,
    /// joined in the lattice (two nodes can share a label only when they
    /// are equal sub-plans — e.g. `Iterate` rounds — whose predictions
    /// may still differ by position). `Maybe` for unknown labels.
    pub fn storage_prediction(&self, label: &str) -> Tri {
        self.join_over_label(label, |f| f.storage_sparse)
    }

    /// The fusion prediction for `label`, joined like
    /// [`PlanAnalysis::storage_prediction`].
    pub fn fused_prediction(&self, label: &str) -> Tri {
        self.join_over_label(label, |f| f.fused)
    }

    /// The key-space prediction for `label`, joined like
    /// [`PlanAnalysis::storage_prediction`].
    pub fn key_space_prediction(&self, label: &str) -> Tri {
        self.join_over_label(label, |f| f.key_space)
    }

    fn join_over_label(&self, label: &str, get: impl Fn(&NodeFacts) -> Tri) -> Tri {
        let mut out: Option<Tri> = None;
        for facts in self.nodes.iter().filter(|f| f.label == label) {
            out = Some(match out {
                None => get(facts),
                Some(prev) => prev.join(get(facts)),
            });
        }
        out.unwrap_or(Tri::Maybe)
    }

    /// Renders the full human-readable report (`coma-cli --explain`).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let s = &self.stats;
        let _ = writeln!(
            out,
            "task: {}x{} ({} cells), leaves {}/{}, vocab {}/{} tokens (overlap {:.2}), feedback pins {}",
            s.rows,
            s.cols,
            s.cells(),
            s.source_leaves,
            s.target_leaves,
            s.source_tokens,
            s.target_tokens,
            s.vocab_overlap,
            s.feedback_pins
        );
        let _ = writeln!(
            out,
            "predicted peak allocation <= {} (preparation {}), stages <= {}",
            human_bytes(self.peak_bytes),
            human_bytes(self.prep_bytes),
            self.stage_count
        );
        let _ = writeln!(out, "\nnodes (preorder):");
        let width = self.nodes.iter().map(|f| f.path.len()).max().unwrap_or(0);
        for f in &self.nodes {
            if f.kind == "Seq" {
                let _ = writeln!(out, "  {:width$}  (combinator, no stage)", f.path);
                continue;
            }
            if f.materialized == Tri::No {
                let _ = writeln!(out, "  {:width$}  absorbed into fused parent", f.path);
                continue;
            }
            let warm = match f.warmth {
                Some((w, t)) => format!(" warm={w}/{t}"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  {:width$}  storage_sparse={} fused={}{} shards<={} pairs<={} (density<={:.3}) peak<={}{}",
                f.path,
                f.storage_sparse,
                f.fused,
                match f.key_space {
                    Tri::No => String::new(),
                    keyed => format!(
                        " key_space={keyed} ({}x{} names)",
                        s.source_distinct_names, s.target_distinct_names
                    ),
                },
                f.shards_estimate,
                f.out_pairs_hi,
                f.density_hi,
                human_bytes(f.peak_bytes),
                warm
            );
        }
        let _ = writeln!(out, "\ndiagnostics:");
        if self.diagnostics.is_empty() {
            let _ = writeln!(out, "  (none)");
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        out
    }
}

/// Formats a byte count for the report (`1.5 MiB`).
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Σ_p |leaves_under(p)| over every path of one side, exactly — one
/// O(paths) reverse preorder sweep (children always follow their parent
/// in preorder), no expansion materialized.
fn leafset_id_total(paths: &PathSet) -> usize {
    let order: Vec<_> = paths.iter().collect();
    let mut counts = vec![0usize; paths.len()];
    for &p in order.iter().rev() {
        counts[p.index()] = if paths.is_leaf(p) {
            1
        } else {
            paths.children(p).iter().map(|c| counts[c.index()]).sum()
        };
    }
    counts.into_iter().sum()
}

// ---------------------------------------------------------------------
// Cost-model constants. Deliberately generous (allocator slack, Vec
// growth ~1.5x transients, hash-map overhead); the perf gate records the
// measured/predicted ratio so looseness stays visible.

/// Bytes per dense matrix cell (`f64`).
const DENSE_CELL: u64 = 8;
/// Bytes per CSR-stored entry, including index arrays and growth slack.
const SPARSE_ENTRY: u64 = 48;
/// Bytes per selected pair across ranking scratch, `Correspondence`
/// construction and the per-stage result clone.
const RESULT_ENTRY: u64 = 160;
/// Bytes per `PathId` in a structural matcher's leaves-under expansion
/// (`u32` id plus growth slack).
const LEAFSET_ID: u64 = 8;
/// Per-node fixed slack.
const NODE_SLACK: u64 = 1 << 20;
/// Plan-level fixed slack (thread stacks, harness bookkeeping).
const PLAN_SLACK: u64 = 8 << 20;
/// Per-element preparation (tokenization, path tables).
const PER_NAME_PREP: u64 = 512;
/// Bytes per distinct token-pair similarity entry.
const TOKEN_PAIR: u64 = 48;
/// Bytes per distinct name pair when an execution keeps no name table
/// (see [`rules::keep_name_table`]): the tables each name compute builds
/// over its own rows and drops, for computes running side by side.
const NAME_PAIR: u64 = 64;
/// A `CandidateIndex` task is "large" (uncapped leaves get a warning)
/// from this many pair-space cells on.
const LARGE_TASK_CELLS: u64 = 1 << 20;

/// What the analyzer knows about one leaf matcher.
struct MatcherCaps {
    name: String,
    resolved: Option<Arc<dyn Matcher>>,
}

impl MatcherCaps {
    fn cell_local(&self) -> bool {
        self.resolved.as_ref().is_some_and(|m| m.cell_local())
    }
    fn sparse_capable(&self) -> bool {
        self.resolved.as_ref().is_some_and(|m| m.sparse_capable())
    }
}

/// The restriction state a node executes under.
#[derive(Clone, Copy)]
struct MaskState {
    /// Is the context restricted when this node runs?
    masked: Tri,
    /// Upper bound on the pairs the restriction allows (= `cells` when
    /// unrestricted).
    pairs_hi: u64,
}

/// The static plan analyzer (module docs). Cheap to construct; one
/// instance per (library, config) pair.
pub struct PlanAnalyzer<'a> {
    library: &'a MatcherLibrary,
    cfg: EngineConfig,
}

struct Walk<'c> {
    nodes: Vec<NodeFacts>,
    errors: Vec<PlanDiagnostic>,
    warns: Vec<PlanDiagnostic>,
    notes: Vec<PlanDiagnostic>,
    cache: Option<(&'c EngineCache, u64, u64)>,
}

impl<'a> PlanAnalyzer<'a> {
    /// An analyzer over `library` with the engine configuration the plan
    /// will execute under.
    pub fn new(library: &'a MatcherLibrary, cfg: EngineConfig) -> PlanAnalyzer<'a> {
        PlanAnalyzer { library, cfg }
    }

    /// Analyzes `plan` against `stats`. Never fails: defects come back as
    /// `Error` diagnostics (every defect, with node paths — a superset of
    /// [`MatchPlan::validate_shape`], which stops at the first).
    pub fn analyze(&self, plan: &MatchPlan, stats: &TaskStats) -> PlanAnalysis {
        self.run(plan, stats, None)
    }

    /// Like [`PlanAnalyzer::analyze`], additionally scoring expected
    /// cache warmth against a tenant [`EngineCache`] under the two
    /// schemas' fingerprints (see
    /// [`schema_fingerprint`](super::schema_fingerprint)).
    pub fn analyze_with_cache(
        &self,
        plan: &MatchPlan,
        stats: &TaskStats,
        cache: &EngineCache,
        source_fingerprint: u64,
        target_fingerprint: u64,
    ) -> PlanAnalysis {
        self.run(
            plan,
            stats,
            Some((cache, source_fingerprint, target_fingerprint)),
        )
    }

    fn run(
        &self,
        plan: &MatchPlan,
        stats: &TaskStats,
        cache: Option<(&EngineCache, u64, u64)>,
    ) -> PlanAnalysis {
        let mut walk = Walk {
            nodes: Vec::new(),
            errors: Vec::new(),
            warns: Vec::new(),
            notes: Vec::new(),
            cache,
        };
        let cells = stats.cells();
        let root = MaskState {
            masked: Tri::No,
            pairs_hi: cells,
        };
        self.node(plan, plan.kind_name().to_string(), root, stats, &mut walk);
        if let Some((cache, sfp, tfp)) = walk.cache {
            let warmth = cache.scope_warmth(sfp, tfp);
            let (warm, total) = walk
                .nodes
                .iter()
                .filter_map(|f| f.warmth)
                .fold((0, 0), |(w, t), (fw, ft)| (w + fw, t + ft));
            let result = if cache.has_result((sfp, tfp), plan) {
                "; this plan's final result cached"
            } else {
                ""
            };
            walk.notes.push(PlanDiagnostic {
                severity: Severity::Note,
                code: "N_CACHE_WARMTH".to_string(),
                node_path: plan.kind_name().to_string(),
                message: format!(
                    "tenant cache: {warm}/{total} leaf artifacts warm for this schema pair \
                     ({} matrices, {} indexes cached in scope{result})",
                    warmth.matrices, warmth.indexes
                ),
            });
        }
        let prep_bytes = self.prep_bound(stats);
        let node_bytes: u64 = walk.nodes.iter().map(|f| f.peak_bytes).sum();
        let peak_bytes = prep_bytes
            .saturating_add(node_bytes)
            .saturating_add(PLAN_SLACK);
        let mut diagnostics = walk.errors;
        diagnostics.extend(walk.warns);
        diagnostics.extend(walk.notes);
        PlanAnalysis {
            nodes: walk.nodes,
            diagnostics,
            peak_bytes,
            prep_bytes,
            stage_count: plan.stage_count(),
            stats: stats.clone(),
        }
    }

    /// Shared preparation: tokenization and path tables per element, the
    /// distinct-token and distinct-name pair similarity tables (bounded
    /// by their cross products and by the cells that can ever be
    /// compared), and the `TaskStats` probe indexes. The name term
    /// follows [`rules::keep_name_table`]: a kept table holds one `f64`
    /// per distinct name pair (its key vectors and row slots are
    /// per-element preparation); without one, each compute's own tables
    /// are charged at [`NAME_PAIR`].
    fn prep_bound(&self, stats: &TaskStats) -> u64 {
        let elements = (stats.rows as u64).saturating_add(stats.cols as u64);
        let token_pairs = (stats.source_tokens as u64)
            .saturating_mul(stats.target_tokens as u64)
            .min(stats.cells().saturating_mul(16));
        let (source_names, target_names) =
            (stats.source_distinct_names, stats.target_distinct_names);
        let name_pairs = (source_names as u64)
            .saturating_mul(target_names as u64)
            .min(stats.cells());
        let name_pair_bytes = if rules::keep_name_table(source_names, target_names) {
            DENSE_CELL
        } else {
            NAME_PAIR
        };
        let postings = (stats.token_postings as u64).saturating_add(2 * stats.gram_postings as u64);
        elements
            .saturating_mul(PER_NAME_PREP)
            .saturating_add(token_pairs.saturating_mul(TOKEN_PAIR))
            .saturating_add(name_pairs.saturating_mul(name_pair_bytes))
            .saturating_add(postings.saturating_mul(16))
    }

    /// Analyzes one node; returns its `out_pairs_hi`.
    #[allow(clippy::too_many_lines)]
    fn node(
        &self,
        plan: &MatchPlan,
        path: String,
        mask: MaskState,
        stats: &TaskStats,
        walk: &mut Walk<'_>,
    ) -> u64 {
        if let Some(kind) = plan.local_shape_defect() {
            walk.errors.push(PlanDiagnostic {
                severity: Severity::Error,
                code: kind.code().to_string(),
                node_path: path.clone(),
                message: kind.to_string(),
            });
        }
        let cells = stats.cells();
        let (m, n) = (stats.rows as u64, stats.cols as u64);
        let child_path =
            |idx: usize, child: &MatchPlan| format!("{path}[{idx}].{}", child.kind_name());
        match plan {
            MatchPlan::Matchers {
                matchers,
                combination,
            } => {
                let caps = self.resolve(matchers, &path, walk);
                let sel =
                    selection_pairs_bound(&combination.selection, combination.direction, m, n);
                let out = bounded(sel, mask.pairs_hi, stats.feedback_pins, cells);
                let storage = self.masked_storage(mask, cells);
                // An unrestricted stage that may store dense materializes
                // one full slice per matcher plus the aggregate; when
                // that alone exceeds the fused in-flight budget, the plan
                // author almost certainly wanted a pruning node directly
                // over this leaf (which would stream it in budget-capped
                // shards instead).
                let dense_slices =
                    cells.saturating_mul(DENSE_CELL.saturating_mul(caps.len() as u64 + 1));
                if storage != Tri::Yes
                    && mask.masked != Tri::Yes
                    && dense_slices > rules::FUSE_BUDGET_BYTES
                {
                    walk.warns.push(PlanDiagnostic {
                        severity: Severity::Warn,
                        code: "W_DENSE_OVER_BUDGET".to_string(),
                        node_path: path.clone(),
                        message: format!(
                            "unrestricted dense stage materializes ~{} ({} matcher slice(s) + \
                             aggregate at {m}x{n}), over the {} fused in-flight budget; prune \
                             with `TopK`/threshold `Filter` directly over this leaf to engage \
                             streaming fusion",
                            human_bytes(dense_slices),
                            caps.len(),
                            human_bytes(rules::FUSE_BUDGET_BYTES),
                        ),
                    });
                }
                let peak = self.leaf_peak(&caps, stats, cells, mask, storage, out);
                let facts = NodeFacts {
                    shards_estimate: self.leaf_shards(&caps, mask, stats),
                    warmth: self.leaf_warmth(&caps, walk),
                    ..NodeFacts::new(path, plan, out, cells, storage, peak)
                };
                walk.nodes.push(facts);
                out
            }
            MatchPlan::CandidateIndex { per_element, q, .. } => {
                let sel = per_element.map(|cap| (cap as u64).saturating_mul(m.saturating_add(n)));
                let out = bounded(sel, mask.pairs_hi, 0, cells);
                if per_element.is_none() && cells >= LARGE_TASK_CELLS {
                    walk.warns.push(PlanDiagnostic {
                        severity: Severity::Warn,
                        code: "W_CIDX_UNCAPPED".to_string(),
                        node_path: path.clone(),
                        message: format!(
                            "uncapped `CandidateIndex` on a large task ({m}x{n}): the candidate \
                             mask is bounded only by posting traffic; set `per_element` to bound \
                             it at O(cap*(m+n)) pairs"
                        ),
                    });
                }
                let warmth = walk.cache.map(|(cache, sfp, tfp)| {
                    let warm = usize::from(cache.has_vocab_index(sfp, *q))
                        + usize::from(cache.has_vocab_index(tfp, *q));
                    (warm, 2)
                });
                let storage = Tri::from_bool(self.cfg.sparse);
                let peak = self.candidate_index_peak(stats, out, cells);
                // The index scan shards its rows under any mask.
                let shards = rules::leaf_shards(&self.cfg, stats.rows, rules::workers(&self.cfg));
                walk.nodes.push(NodeFacts {
                    shards_estimate: shards,
                    warmth,
                    ..NodeFacts::new(path, plan, out, cells, storage, peak)
                });
                out
            }
            MatchPlan::Seq { filter, refine } => {
                let first = self.node(filter, child_path(0, filter), mask, stats, walk);
                // The refine side always runs restricted to the filter's
                // survivors (intersected with any outer mask), plus the
                // survivor-mask allocations of the Seq itself.
                let refine_mask = MaskState {
                    masked: Tri::Yes,
                    pairs_hi: first.min(mask.pairs_hi),
                };
                let out = self.node(refine, child_path(1, refine), refine_mask, stats, walk);
                let peak = cells / 4 + NODE_SLACK;
                walk.nodes.push(NodeFacts {
                    materialized: Tri::No,
                    ..NodeFacts::new(path, plan, out, cells, Tri::Maybe, peak)
                });
                out
            }
            MatchPlan::Par { plans, combination } => {
                let mut sub_out: Vec<u64> = Vec::with_capacity(plans.len());
                for (i, sub) in plans.iter().enumerate() {
                    sub_out.push(self.node(sub, child_path(i, sub), mask, stats, walk));
                }
                // The stage cube holds one pair matrix per sub-plan
                // result; each follows the engine's `pair_matrix` rule.
                let slice_storage: Vec<Tri> = sub_out
                    .iter()
                    .map(|&e| self.pair_matrix_storage(e, cells))
                    .collect();
                let storage = slice_storage
                    .iter()
                    .copied()
                    .reduce(all_of)
                    .unwrap_or(Tri::Maybe);
                let sel =
                    selection_pairs_bound(&combination.selection, combination.direction, m, n);
                let union: u64 = sub_out.iter().fold(0u64, |a, &b| a.saturating_add(b));
                let out = bounded(sel, union.min(cells).max(1), stats.feedback_pins, cells);
                let mut peak = NODE_SLACK;
                for (&e, &st) in sub_out.iter().zip(&slice_storage) {
                    peak = peak.saturating_add(self.pair_matrix_bytes(e, cells, st));
                }
                // Aggregate + selection scratch: sparse when every slice
                // is, dense otherwise.
                peak = peak.saturating_add(if storage == Tri::Yes {
                    union.saturating_mul(SPARSE_ENTRY)
                } else {
                    cells.saturating_mul(DENSE_CELL + 4)
                });
                peak = peak.saturating_add(out.saturating_mul(RESULT_ENTRY));
                walk.nodes
                    .push(NodeFacts::new(path, plan, out, cells, storage, peak));
                out
            }
            MatchPlan::Filter {
                input,
                direction,
                selection,
                ..
            } => {
                let fused = self.fusion(input, mask, &path, stats, walk);
                let inner = self.prunable_input(input, &path, mask, fused, stats, walk);
                let matrix_storage = self.pair_matrix_storage(inner, cells);
                let sel = selection_pairs_bound(selection, *direction, m, n);
                let out = bounded(sel, inner, 0, cells);
                let peak = self
                    .pair_matrix_bytes(inner, cells, matrix_storage)
                    .saturating_add(out.saturating_mul(RESULT_ENTRY))
                    .saturating_add(NODE_SLACK);
                let facts = NodeFacts::new(path, plan, out, cells, matrix_storage, peak);
                walk.nodes
                    .push(self.fused_facts(facts, input, fused, stats));
                out
            }
            MatchPlan::TopK { input, k, per } => {
                let fused = self.fusion(input, mask, &path, stats, walk);
                let inner = self.prunable_input(input, &path, mask, fused, stats, walk);
                let keep_hi = topk_pairs_bound(*k, *per, m, n).min(cells);
                let out = keep_hi.min(inner);
                // Pruned-matrix storage follows the density rule on the
                // top-k keep mask, whose density is bounded statically.
                let storage = self.storage_within(density(keep_hi, cells));
                let matrix_storage = self.pair_matrix_storage(inner, cells);
                let peak = self
                    .pair_matrix_bytes(inner, cells, matrix_storage)
                    .saturating_add(cells / 8 + 64) // keep-mask bitset
                    .saturating_add(self.pair_matrix_bytes(out, cells, storage))
                    .saturating_add(out.saturating_mul(RESULT_ENTRY))
                    .saturating_add(NODE_SLACK);
                let facts = NodeFacts::new(path, plan, out, cells, storage, peak);
                walk.nodes
                    .push(self.fused_facts(facts, input, fused, stats));
                out
            }
            MatchPlan::Iterate {
                plan: sub,
                max_rounds,
                epsilon,
            } => {
                // Round 1 runs under the outer mask; rounds 2+ under the
                // previous round's survivors — the sub-plan's restriction
                // state is only `Maybe` unless already masked.
                let round_mask = MaskState {
                    masked: if mask.masked == Tri::Yes {
                        Tri::Yes
                    } else {
                        Tri::Maybe
                    },
                    pairs_hi: mask.pairs_hi,
                };
                let inner = self.node(sub, child_path(0, sub), round_mask, stats, walk);
                self.iterate_fixpoint_warning(sub, *max_rounds, *epsilon, &path, walk);
                let storage = self.pair_matrix_storage(inner, cells);
                let peak = self
                    .pair_matrix_bytes(inner, cells, storage)
                    .saturating_mul(2) // prev + current round matrices
                    .saturating_add(cells / 4) // round masks
                    .saturating_add(inner.saturating_mul(RESULT_ENTRY))
                    .saturating_add(NODE_SLACK);
                walk.nodes
                    .push(NodeFacts::new(path, plan, inner, cells, storage, peak));
                inner
            }
            MatchPlan::Reuse {
                max_hops,
                combination,
                ..
            } => {
                match stats.min_pivot_hops {
                    None => walk.warns.push(PlanDiagnostic {
                        severity: Severity::Warn,
                        code: "W_REUSE_NO_PATH".to_string(),
                        node_path: path.clone(),
                        message: "the repository holds no pivot chain between the task schemas \
                                  (or no repository is attached): the reuse slice will be empty"
                            .to_string(),
                    }),
                    Some(hops) if hops > *max_hops => walk.warns.push(PlanDiagnostic {
                        severity: Severity::Warn,
                        code: "W_REUSE_NO_PATH".to_string(),
                        node_path: path.clone(),
                        message: format!(
                            "the shortest repository pivot chain needs {hops} hops but this \
                             `Reuse` allows max_hops = {max_hops}: the reuse slice will be empty"
                        ),
                    }),
                    Some(_) => {}
                }
                let sel =
                    selection_pairs_bound(&combination.selection, combination.direction, m, n);
                let out = bounded(sel, mask.pairs_hi, stats.feedback_pins, cells);
                // The resolver renders the merged mapping into a dense
                // slice; only a sparse mask re-stores it as CSR.
                let storage = self.masked_storage(mask, cells);
                let compose = (stats.repo_correspondences as u64)
                    .saturating_mul(*max_hops as u64)
                    .saturating_mul(256);
                let peak = cells
                    .saturating_mul(2 * DENSE_CELL + 4)
                    .saturating_add(compose)
                    .saturating_add(out.saturating_mul(RESULT_ENTRY))
                    .saturating_add(NODE_SLACK);
                walk.nodes
                    .push(NodeFacts::new(path, plan, out, cells, storage, peak));
                out
            }
        }
    }

    /// Analyzes the input of a prunable (`Filter`/`TopK`) node. A
    /// definitely-fused input leaf is absorbed — it never materializes
    /// its own stage; its facts record that and charge no bytes (the
    /// parent carries the fused-pipeline bound).
    fn prunable_input(
        &self,
        input: &MatchPlan,
        path: &str,
        mask: MaskState,
        fused: Tri,
        stats: &TaskStats,
        walk: &mut Walk<'_>,
    ) -> u64 {
        let child_path = format!("{path}[0].{}", input.kind_name());
        if fused == Tri::Yes {
            // Same out-bound as the leaf itself would produce (fused
            // execution is bit-identical); no stage, no bytes.
            let MatchPlan::Matchers {
                matchers,
                combination,
            } = input
            else {
                unreachable!("fusion only predicted for Matchers inputs");
            };
            let caps = self.resolve(matchers, &child_path, walk);
            let sel = selection_pairs_bound(
                &combination.selection,
                combination.direction,
                stats.rows as u64,
                stats.cols as u64,
            );
            let out = bounded(sel, mask.pairs_hi, 0, stats.cells());
            let facts = NodeFacts {
                materialized: Tri::No,
                fused: Tri::Maybe,
                shards_estimate: rules::fused_shards(&self.cfg, stats.rows),
                warmth: self.leaf_warmth(&caps, walk),
                ..NodeFacts::new(child_path, input, out, stats.cells(), Tri::Maybe, 0)
            };
            walk.nodes.push(facts);
            return out;
        }
        let out = self.node(input, child_path, mask, stats, walk);
        if fused == Tri::Maybe {
            // The leaf's stage may or may not materialize; mark it.
            if let Some(facts) = walk.nodes.last_mut() {
                facts.materialized = Tri::Maybe;
                facts.fused = Tri::Maybe;
                facts.storage_sparse = Tri::Maybe;
            }
        }
        out
    }

    /// The engine's fusion rule ([`rules::fusable_leaf`]) as a [`Tri`]
    /// over the node's restriction state. Emits the pinned-feedback note,
    /// and the unfusable-prune warning when an unrestricted stage is
    /// blocked only by its leaf's selection or matchers.
    fn fusion(
        &self,
        input: &MatchPlan,
        mask: MaskState,
        path: &str,
        stats: &TaskStats,
        walk: &mut Walk<'_>,
    ) -> Tri {
        let blocked = "streaming-fused pruning cannot engage: the full dense matrix will be \
                       materialized before this node prunes it";
        let message = match rules::fusable_leaf(&self.cfg, self.library, input, stats.feedback_pins)
        {
            // Fused exactly when the stage runs unrestricted.
            Ok(_) => return Tri::between(mask.masked == Tri::No, mask.masked != Tri::Yes),
            Err(Unfusable::Feedback) => {
                walk.notes.push(PlanDiagnostic {
                    severity: Severity::Note,
                    code: "N_FUSE_FEEDBACK".to_string(),
                    node_path: path.to_string(),
                    message: format!(
                        "{} pinned feedback correspondences disable streaming-fused pruning \
                         (pins must resurface in the full combination)",
                        stats.feedback_pins
                    ),
                });
                return Tri::No;
            }
            Err(_) if mask.masked != Tri::No => return Tri::No,
            Err(Unfusable::Unbounded) => {
                format!("the input leaf's selection neither caps nor thresholds, so {blocked}")
            }
            Err(Unfusable::Unshardable(names)) => format!(
                "matcher(s) {} are not row-shardable, so {blocked}",
                names.join(", ")
            ),
            Err(Unfusable::NotALeaf | Unfusable::Off) => return Tri::No,
        };
        walk.warns.push(PlanDiagnostic {
            severity: Severity::Warn,
            code: "W_UNFUSABLE_PRUNE".to_string(),
            node_path: path.to_string(),
            message,
        });
        Tri::No
    }

    /// Warns when an `Iterate` wraps a plan whose fixpoint cannot move:
    /// if every referenced matcher is cell-local (and `CandidateIndex`/
    /// `Reuse` leaves, whose cell values ignore the restriction), cell
    /// values are identical in every round, so the selected set is stable
    /// from round 2 on — the engine detects that via the matrix delta by
    /// round 3 (never, with `epsilon = 0`), and any larger round budget
    /// is dead work.
    fn iterate_fixpoint_warning(
        &self,
        sub: &MatchPlan,
        max_rounds: usize,
        epsilon: f64,
        path: &str,
        walk: &mut Walk<'_>,
    ) {
        let names = sub.matcher_names();
        let all_cell_local = names.iter().all(|name| {
            self.library
                .get(name)
                .is_some_and(|matcher| matcher.cell_local())
        });
        if !all_cell_local {
            return;
        }
        let wasted = if epsilon == 0.0 {
            max_rounds > 2
        } else {
            max_rounds > 3
        };
        if wasted {
            walk.warns.push(PlanDiagnostic {
                severity: Severity::Warn,
                code: "W_ITERATE_FIXPOINT".to_string(),
                node_path: path.to_string(),
                message: format!(
                    "every matcher in the iterated plan is cell-local: cell values cannot \
                     change under the round restriction, so the result is stable from round 2 \
                     and max_rounds = {max_rounds} budgets dead rounds"
                ),
            });
        }
    }

    fn resolve(&self, names: &[String], path: &str, walk: &mut Walk<'_>) -> Vec<MatcherCaps> {
        let caps = self.resolve_quiet(names);
        for c in caps.iter().filter(|c| c.resolved.is_none()) {
            walk.errors.push(PlanDiagnostic {
                severity: Severity::Error,
                code: "E_UNKNOWN_MATCHER".to_string(),
                node_path: path.to_string(),
                message: format!("unknown matcher `{}` (not in the library)", c.name),
            });
        }
        caps
    }

    fn resolve_quiet(&self, names: &[String]) -> Vec<MatcherCaps> {
        names
            .iter()
            .map(|name| MatcherCaps {
                name: name.clone(),
                resolved: self.library.get(name),
            })
            .collect()
    }

    fn leaf_warmth(&self, caps: &[MatcherCaps], walk: &Walk<'_>) -> Option<(usize, usize)> {
        let (cache, sfp, tfp) = walk.cache?;
        let scope = (sfp, tfp);
        let warm = caps
            .iter()
            .filter_map(|c| c.resolved.as_ref())
            .filter(|m| {
                cache
                    .cached_matrix(scope, m.name(), matcher_identity(m))
                    .is_some()
            })
            .count();
        Some((warm, caps.len()))
    }

    /// [`rules::sparse_storage`] for a density of at most `density_hi`.
    fn storage_within(&self, density_hi: f64) -> Tri {
        Tri::between(
            rules::sparse_storage(&self.cfg, 0.0),
            rules::sparse_storage(&self.cfg, density_hi),
        )
    }

    /// Storage of a `Matchers`/`Reuse` stage: unrestricted stages keep
    /// dense slices, restricted ones follow the density rule over the
    /// mask-density bound.
    fn masked_storage(&self, mask: MaskState, cells: u64) -> Tri {
        let restricted = self.storage_within(density(mask.pairs_hi, cells));
        match mask.masked {
            Tri::No => Tri::No,
            Tri::Yes => restricted,
            Tri::Maybe => Tri::No.join(restricted),
        }
    }

    /// The engine's pair-matrix storage rule ([`rules::sparse_pairs`])
    /// over an entry bound.
    fn pair_matrix_storage(&self, entries_hi: u64, cells: u64) -> Tri {
        Tri::between(
            rules::sparse_pairs(&self.cfg, 0, cells),
            rules::sparse_pairs(&self.cfg, entries_hi, cells),
        )
    }

    fn pair_matrix_bytes(&self, entries_hi: u64, cells: u64, storage: Tri) -> u64 {
        match storage {
            Tri::Yes => entries_hi.saturating_mul(SPARSE_ENTRY),
            Tri::No | Tri::Maybe => cells
                .saturating_mul(DENSE_CELL)
                .max(entries_hi.saturating_mul(SPARSE_ENTRY)),
        }
    }

    /// Shared scratch of the structural matchers (`Children`/`Leaves` —
    /// anything not cell-local): the step-1 leaf-matcher table is the
    /// *full* dense pair space (the restriction is deliberately dropped
    /// for it, and it is memoized and shared by reference, so it counts
    /// once per stage no matter how many structural matchers run), plus
    /// the per-node leaves-under expansions. Allocated on every
    /// execution path — masked or not, sparse or dense — so every peak
    /// model must carry it; missing it is exactly the under-coverage a
    /// deep schema exposes, where Σ|leaves_under| grows with depth.
    fn structural_scratch(&self, caps: &[MatcherCaps], stats: &TaskStats) -> u64 {
        if caps.iter().all(|c| c.resolved.is_some() && c.cell_local()) {
            return 0;
        }
        let table = stats.cells().saturating_mul(DENSE_CELL);
        let ids = (stats.source_leafset_ids as u64)
            .saturating_add(stats.target_leafset_ids as u64)
            .saturating_mul(LEAFSET_ID);
        let headers = (stats.rows as u64)
            .saturating_add(stats.cols as u64)
            .saturating_mul(48);
        table.saturating_add(ids).saturating_add(headers)
    }

    /// Peak bound of one `Matchers` leaf stage: the maximum over the
    /// execution paths its mask state still allows (unmasked dense,
    /// masked dense, masked sparse).
    fn leaf_peak(
        &self,
        caps: &[MatcherCaps],
        stats: &TaskStats,
        cells: u64,
        mask: MaskState,
        storage: Tri,
        out: u64,
    ) -> u64 {
        let l = caps.len() as u64;
        let dense = cells.saturating_mul(DENSE_CELL);
        let result_term = out.saturating_mul(RESULT_ENTRY);
        // Unrestricted: one dense slice per matcher + aggregate +
        // selection scratch over every cell.
        let unmasked = dense
            .saturating_mul(l + 2)
            .saturating_add(cells.saturating_mul(32));
        // Masked, dense storage: full compute + masked clone per matcher,
        // dense aggregate, dense selection scratch.
        let masked_dense = dense
            .saturating_mul(2 * l + 1)
            .saturating_add(cells.saturating_mul(32));
        // Masked, sparse storage: restriction-honoring matchers build CSR
        // under the mask; global matchers still compute (and memoize) a
        // full dense matrix first.
        let entries = mask.pairs_hi;
        let mut masked_sparse = entries.saturating_mul(SPARSE_ENTRY).saturating_mul(l + 3);
        for c in caps {
            if !(c.cell_local() || c.sparse_capable()) {
                masked_sparse = masked_sparse.saturating_add(dense.saturating_mul(2));
            }
        }
        let masked = match storage {
            Tri::Yes => masked_sparse,
            Tri::No => masked_dense,
            Tri::Maybe => masked_dense.max(masked_sparse),
        };
        let peak = match mask.masked {
            Tri::No => unmasked,
            Tri::Yes => masked,
            Tri::Maybe => unmasked.max(masked),
        };
        peak.saturating_add(self.structural_scratch(caps, stats))
            .saturating_add(result_term)
            .saturating_add(NODE_SLACK)
    }

    fn candidate_index_peak(&self, stats: &TaskStats, out: u64, cells: u64) -> u64 {
        let elements = (stats.rows as u64).saturating_add(stats.cols as u64);
        let postings = (stats.token_postings as u64).saturating_add(2 * stats.gram_postings as u64);
        let vocab = (stats.source_tokens as u64).saturating_add(stats.target_tokens as u64);
        let index = postings
            .saturating_mul(16)
            .saturating_add(vocab.saturating_mul(128))
            .saturating_add(elements.saturating_mul(64));
        // Per-thread pool scratch, charged at the machine-independent
        // worst case: the engine never runs more scorer threads than
        // the fused pipeline's row shards.
        let scratch = (rules::fused_shards(&self.cfg, stats.rows) as u64)
            .saturating_mul(stats.cols as u64 + 16)
            .saturating_mul(32);
        let output = if self.cfg.sparse {
            out.saturating_mul(SPARSE_ENTRY)
        } else {
            cells.saturating_mul(DENSE_CELL)
        };
        index
            .saturating_add(scratch)
            .saturating_add(output)
            .saturating_add(out.saturating_mul(RESULT_ENTRY))
            .saturating_add(NODE_SLACK)
    }

    /// The facts of a prunable (`Filter`/`TopK`) node whose input fuses
    /// as `fused`: whether it selects in key space
    /// ([`rules::selects_in_key_space`] on the task's distinct-name
    /// counts), its shard bound (one in key space), and its fused
    /// pipeline's bytes added to the node's own `facts.peak_bytes`.
    fn fused_facts(
        &self,
        facts: NodeFacts,
        input: &MatchPlan,
        fused: Tri,
        stats: &TaskStats,
    ) -> NodeFacts {
        let keyed = rules::fusable_leaf(&self.cfg, self.library, input, stats.feedback_pins)
            .is_ok_and(|(matchers, _)| {
                let names = (stats.source_distinct_names, stats.target_distinct_names);
                rules::selects_in_key_space(&matchers, names.0, names.1)
            });
        // Whether the stage fuses may depend on its restriction; how it
        // would fuse does not. Unfused, it reports one shard too.
        let (key_space, shards_estimate, fused_bytes) = match (fused, keyed) {
            (Tri::No, _) => (Tri::No, rules::fused_shards(&self.cfg, stats.rows), 0),
            (fused, true) => (fused, 1, self.keyed_peak(input, stats)),
            (_, false) => (
                Tri::No,
                rules::fused_shards(&self.cfg, stats.rows),
                self.fused_peak(input, stats),
            ),
        };
        NodeFacts {
            fused,
            key_space,
            shards_estimate,
            peak_bytes: facts.peak_bytes.saturating_add(fused_bytes),
            ..facts
        }
    }

    /// In-flight bound of the fused pipeline for `input` (a `Matchers`
    /// leaf): `threads × shard slice bytes` as [`rules::fused_threads`]
    /// sizes them, plus the CSR fragments/pools and the survivor matrix.
    /// The bound is committed and gated across runners, so it must be
    /// machine-independent: it charges the budget-capped worst case —
    /// as many workers as the fused budget admits — rather than this
    /// machine's core count, which the engine's workers never exceed.
    fn fused_peak(&self, input: &MatchPlan, stats: &TaskStats) -> u64 {
        let MatchPlan::Matchers {
            matchers,
            combination,
        } = input
        else {
            return 0;
        };
        let (m, n) = (stats.rows, stats.cols);
        let shards = rules::fused_shards(&self.cfg, m);
        let (threads, inflight) = rules::fused_threads(usize::MAX, shards, m, n, matchers.len());
        (threads as u64)
            .saturating_mul(inflight)
            .saturating_add(
                fused_survivors(combination, stats)
                    .saturating_mul(SPARSE_ENTRY)
                    .saturating_mul(3),
            )
            // A fused Leaves still builds the shared full-pair leaf
            // table inside its workers — the in-flight shard budget
            // does not cover it.
            .saturating_add(self.structural_scratch(&self.resolve_quiet(matchers), stats))
    }

    /// Bound of a key-space stage over `input` (a `Matchers` leaf),
    /// beyond the kept name table [`PlanAnalyzer::prep_bound`] charges,
    /// at [`SPARSE_ENTRY`] per unit: the candidate lists, at most
    /// `(m + n) × max_n` entries (twice the survivor bound without a
    /// `max_n`: both directions' lists and the per-name lists they are
    /// copied from, with growth slack), the survivor pairs and their
    /// result, and six units per element for what is per element or per
    /// name: two list headers, a per-name list's first allocation, the
    /// key groups, the ranking scratch and the table's row index. No
    /// shard slice exists.
    fn keyed_peak(&self, input: &MatchPlan, stats: &TaskStats) -> u64 {
        let MatchPlan::Matchers { combination, .. } = input else {
            return 0;
        };
        let elements = (stats.rows as u64).saturating_add(stats.cols as u64);
        let survivors = fused_survivors(combination, stats);
        let lists = match combination.selection.max_n {
            Some(k) => (k as u64).saturating_mul(elements),
            None => survivors.saturating_mul(2),
        };
        lists
            .saturating_add(survivors)
            .saturating_add(elements.saturating_mul(6))
            .saturating_mul(SPARSE_ENTRY)
    }

    /// Upper bound of a leaf's executed shard count: a fresh full
    /// compute shards by [`rules::leaf_shards`] with the whole machine as
    /// budget. Under a restriction, only a row-shardable matcher that
    /// may compute (and mask) its full matrix still does.
    fn leaf_shards(&self, caps: &[MatcherCaps], mask: MaskState, stats: &TaskStats) -> usize {
        let density_hi = density(mask.pairs_hi, stats.cells());
        let full_compute = |c: &MatcherCaps| {
            c.resolved.as_ref().is_some_and(|m| {
                m.row_shardable() && !rules::restricted_compute(&self.cfg, m.as_ref(), density_hi)
            })
        };
        if mask.masked == Tri::Yes && !caps.iter().any(full_compute) {
            return 1;
        }
        rules::leaf_shards(&self.cfg, stats.rows, rules::workers(&self.cfg))
    }
}

/// Upper bound on the pairs a directional selection can keep, `None`
/// when unbounded (threshold/delta-only selections admit every cell).
fn selection_pairs_bound(
    selection: &Selection,
    direction: Direction,
    m: u64,
    n: u64,
) -> Option<u64> {
    let k = selection.max_n? as u64;
    Some(match direction {
        // Union-safe bound: every element of either side keeps <= k.
        Direction::Both => k.saturating_mul(m.saturating_add(n)),
        Direction::LargeSmall | Direction::SmallLarge => k.saturating_mul(m.max(n)),
    })
}

/// Upper bound on the cells a fused leaf's selection keeps.
fn fused_survivors(combination: &CombinationStrategy, stats: &TaskStats) -> u64 {
    let (m, n) = (stats.rows as u64, stats.cols as u64);
    let sel = selection_pairs_bound(&combination.selection, combination.direction, m, n);
    bounded(sel, stats.cells(), 0, stats.cells())
}

/// Upper bound on the pairs a `TopK` keep mask admits.
fn topk_pairs_bound(k: usize, per: TopKPer, m: u64, n: u64) -> u64 {
    let k = k as u64;
    match per {
        TopKPer::Row => k.saturating_mul(m),
        TopKPer::Col => k.saturating_mul(n),
        TopKPer::Both => k.saturating_mul(m.saturating_add(n)),
    }
}

/// Combines a selection bound, a mask bound and feedback pins into a
/// node's `out_pairs_hi`, capped at the pair space.
fn bounded(selection: Option<u64>, mask_hi: u64, feedback: usize, cells: u64) -> u64 {
    let base = match selection {
        Some(sel) => sel.min(mask_hi),
        None => mask_hi,
    };
    base.saturating_add(feedback as u64).min(cells)
}

fn density(pairs: u64, cells: u64) -> f64 {
    if cells == 0 {
        0.0
    } else {
        (pairs as f64 / cells as f64).min(1.0)
    }
}

/// `Yes` iff both are `Yes`, `No` if either is definitely `No` — the
/// "all slices sparse" combination for a stage cube.
fn all_of(a: Tri, b: Tri) -> Tri {
    match (a, b) {
        (Tri::Yes, Tri::Yes) => Tri::Yes,
        (Tri::No, _) | (_, Tri::No) => Tri::No,
        _ => Tri::Maybe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::CombinationStrategy;
    use crate::plans;

    fn stats(rows: usize, cols: usize) -> TaskStats {
        TaskStats {
            rows,
            cols,
            source_leaves: rows,
            target_leaves: cols,
            source_leafset_ids: 2 * rows,
            target_leafset_ids: 2 * cols,
            source_distinct_names: rows,
            target_distinct_names: cols,
            source_tokens: rows,
            target_tokens: cols,
            token_postings: rows + cols,
            gram_postings: 4 * (rows + cols),
            vocab_overlap: 0.5,
            feedback_pins: 0,
            min_pivot_hops: None,
            repo_correspondences: 0,
        }
    }

    fn analyzer(library: &MatcherLibrary) -> PlanAnalyzer<'_> {
        PlanAnalyzer::new(library, EngineConfig::default())
    }

    #[test]
    fn errors_carry_paths_and_cover_every_defect() {
        let coma = MatcherLibrary::standard();
        // Two defects in one tree: both must be reported (validate_shape
        // stops at the first; the analyzer must not).
        let plan = MatchPlan::seq(
            MatchPlan::Matchers {
                matchers: Vec::new(),
                combination: CombinationStrategy::paper_default(),
            },
            MatchPlan::TopK {
                input: Box::new(MatchPlan::matchers(["Name"])),
                k: 0,
                per: TopKPer::Both,
            },
        );
        let analysis = analyzer(&coma).analyze(&plan, &stats(4, 4));
        assert!(analysis.has_errors());
        let errors: Vec<&PlanDiagnostic> = analysis.with_severity(Severity::Error).collect();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert_eq!(errors[0].code, "E_EMPTY_MATCHERS");
        assert_eq!(errors[0].node_path, "Seq[0].Matchers");
        assert_eq!(errors[1].code, "E_TOPK_ZERO");
        assert_eq!(errors[1].node_path, "Seq[1].TopK");
    }

    #[test]
    fn unknown_matchers_are_errors_with_paths() {
        let coma = MatcherLibrary::standard();
        let plan = MatchPlan::seq(MatchPlan::matchers(["Name"]), MatchPlan::matchers(["Nope"]));
        let analysis = analyzer(&coma).analyze(&plan, &stats(4, 4));
        let errors: Vec<&PlanDiagnostic> = analysis.with_severity(Severity::Error).collect();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].code, "E_UNKNOWN_MATCHER");
        assert_eq!(errors[0].node_path, "Seq[1].Matchers");
        assert!(errors[0].message.contains("Nope"));
    }

    #[test]
    fn canonical_fused_plans_predict_fusion_and_sparse_storage() {
        let coma = MatcherLibrary::standard();
        let s = stats(400, 300);
        let plan = plans::topk_pruned_plan(5);
        let analysis = analyzer(&coma).analyze(&plan, &s);
        assert!(!analysis.has_errors());
        // The TopK filter stage fuses (unrestricted liberal Name leaf
        // with a capped selection) and stores sparse (k(m+n) << mn/2).
        let topk_label = match &plan {
            MatchPlan::Seq { filter, .. } => filter.label(),
            _ => unreachable!(),
        };
        assert_eq!(analysis.fused_prediction(&topk_label), Tri::Yes);
        assert_eq!(analysis.storage_prediction(&topk_label), Tri::Yes);
        // The refine stage runs masked; its storage depends on runtime
        // density only through the bound, which here is sparse.
        let refine_label = match &plan {
            MatchPlan::Seq { refine, .. } => refine.label(),
            _ => unreachable!(),
        };
        assert_eq!(analysis.storage_prediction(&refine_label), Tri::Yes);
        assert_eq!(analysis.fused_prediction(&refine_label), Tri::No);
    }

    #[test]
    fn dense_flat_plan_predicts_dense_unfused() {
        let coma = MatcherLibrary::standard();
        let plan = MatchPlan::matchers(["Name", "Leaves"]);
        let analysis = analyzer(&coma).analyze(&plan, &stats(50, 50));
        assert_eq!(analysis.storage_prediction(&plan.label()), Tri::No);
        assert_eq!(analysis.fused_prediction(&plan.label()), Tri::No);
        assert!(analysis.peak_bytes > 0);
    }

    #[test]
    fn sparse_off_forces_dense_predictions() {
        let coma = MatcherLibrary::standard();
        let cfg = EngineConfig::default()
            .with_sparse(false)
            .with_fuse_pruning(false);
        let plan = plans::topk_pruned_plan(5);
        let analysis = PlanAnalyzer::new(&coma, cfg).analyze(&plan, &stats(100, 100));
        for f in analysis.nodes.iter().filter(|f| f.kind != "Seq") {
            assert_eq!(f.storage_sparse, Tri::No, "{}", f.path);
            assert_eq!(f.fused, Tri::No, "{}", f.path);
        }
    }

    #[test]
    fn unfusable_prune_over_children_warns() {
        let coma = MatcherLibrary::standard();
        let mut combination = CombinationStrategy::paper_default();
        combination.selection = Selection::max_n(5);
        let plan = MatchPlan::matchers_with(["Children"], combination)
            .top_k(5, TopKPer::Both)
            .unwrap();
        let analysis = analyzer(&coma).analyze(&plan, &stats(2000, 2000));
        let warn = analysis
            .with_severity(Severity::Warn)
            .find(|d| d.code == "W_UNFUSABLE_PRUNE")
            .expect("expected W_UNFUSABLE_PRUNE");
        assert!(warn.message.contains("Children"), "{}", warn.message);
        assert_eq!(analysis.fused_prediction(&plan.label()), Tri::No);
    }

    #[test]
    fn uncapped_candidate_index_on_large_task_warns() {
        let coma = MatcherLibrary::standard();
        let plan = MatchPlan::candidate_index(1, 0.0).unwrap();
        let large = analyzer(&coma).analyze(&plan, &stats(2000, 2000));
        assert!(large
            .with_severity(Severity::Warn)
            .any(|d| d.code == "W_CIDX_UNCAPPED"));
        let small = analyzer(&coma).analyze(&plan, &stats(10, 10));
        assert!(!small
            .with_severity(Severity::Warn)
            .any(|d| d.code == "W_CIDX_UNCAPPED"));
    }

    #[test]
    fn dense_stage_over_budget_warns_unless_sparse_or_fused() {
        let coma = MatcherLibrary::standard();
        // 6000x6000 · 8 B · (5 matchers + aggregate) ≈ 1.6 GiB > the
        // 1 GiB default fused budget.
        let plan = MatchPlan::matchers(["Name", "NamePath", "TypeName", "Children", "Leaves"]);
        let analysis = analyzer(&coma).analyze(&plan, &stats(6000, 6000));
        let warn = analysis
            .with_severity(Severity::Warn)
            .find(|d| d.code == "W_DENSE_OVER_BUDGET")
            .expect("expected W_DENSE_OVER_BUDGET");
        assert!(
            warn.message.contains("fused in-flight budget"),
            "{}",
            warn.message
        );
        // Small task: under budget, no warning.
        let small = analyzer(&coma).analyze(&plan, &stats(100, 100));
        assert!(!small
            .with_severity(Severity::Warn)
            .any(|d| d.code == "W_DENSE_OVER_BUDGET"));
        // The same pair space behind a fusable prune never materializes
        // the dense slices — the absorbed leaf must not warn.
        let mut combination = CombinationStrategy::paper_default();
        combination.selection = Selection::max_n(5);
        let pruned = MatchPlan::matchers_with(["Name"], combination)
            .top_k(5, TopKPer::Both)
            .unwrap();
        let fused = analyzer(&coma).analyze(&pruned, &stats(20000, 20000));
        assert_eq!(fused.fused_prediction(&pruned.label()), Tri::Yes);
        assert!(!fused
            .with_severity(Severity::Warn)
            .any(|d| d.code == "W_DENSE_OVER_BUDGET"));
    }

    #[test]
    fn reuse_without_pivot_path_warns() {
        let coma = MatcherLibrary::standard();
        let plan = MatchPlan::reuse(None);
        let analysis = analyzer(&coma).analyze(&plan, &stats(10, 10));
        assert!(analysis
            .with_severity(Severity::Warn)
            .any(|d| d.code == "W_REUSE_NO_PATH"));
        // A reachable chain within the hop budget clears the warning.
        let mut s = stats(10, 10);
        s.min_pivot_hops = Some(2);
        let ok = analyzer(&coma).analyze(&plan, &s);
        assert!(!ok
            .with_severity(Severity::Warn)
            .any(|d| d.code == "W_REUSE_NO_PATH"));
        // ... but not when it exceeds the node's max_hops.
        s.min_pivot_hops = Some(3);
        let too_far = analyzer(&coma).analyze(&plan, &s);
        assert!(too_far
            .with_severity(Severity::Warn)
            .any(|d| d.code == "W_REUSE_NO_PATH"));
    }

    #[test]
    fn cell_local_iterate_warns_about_dead_rounds() {
        let coma = MatcherLibrary::standard();
        let plan = MatchPlan::matchers(["Name"]).iterate(10, 1e-6).unwrap();
        let analysis = analyzer(&coma).analyze(&plan, &stats(10, 10));
        assert!(analysis
            .with_severity(Severity::Warn)
            .any(|d| d.code == "W_ITERATE_FIXPOINT"));
        // Structural matchers *do* change under restriction: no warning.
        let structural = MatchPlan::matchers(["Leaves"]).iterate(10, 1e-6).unwrap();
        let ok = analyzer(&coma).analyze(&structural, &stats(10, 10));
        assert!(!ok
            .with_severity(Severity::Warn)
            .any(|d| d.code == "W_ITERATE_FIXPOINT"));
    }

    #[test]
    fn tri_lattice_and_agreement() {
        assert!(Tri::Yes.agrees_with(true));
        assert!(!Tri::Yes.agrees_with(false));
        assert!(Tri::No.agrees_with(false));
        assert!(!Tri::No.agrees_with(true));
        assert!(Tri::Maybe.agrees_with(true) && Tri::Maybe.agrees_with(false));
        assert_eq!(Tri::Yes.join(Tri::Yes), Tri::Yes);
        assert_eq!(Tri::Yes.join(Tri::No), Tri::Maybe);
        assert_eq!(Tri::No.join(Tri::No), Tri::No);
    }

    #[test]
    fn render_mentions_every_node_path() {
        let coma = MatcherLibrary::standard();
        let plan = plans::candidate_index_plan(4);
        let analysis = analyzer(&coma).analyze(&plan, &stats(30, 30));
        let report = analysis.render();
        for f in &analysis.nodes {
            assert!(report.contains(&f.path), "missing {} in:\n{report}", f.path);
        }
        assert!(report.contains("predicted peak allocation"));
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 << 20), "3.0 MiB");
    }
}
