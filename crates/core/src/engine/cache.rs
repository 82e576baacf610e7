//! The cross-request engine cache: schema-fingerprint-keyed reuse of
//! expensive artifacts *across* plan executions.
//!
//! A per-execution [`MatchMemo`](super::MatchMemo) already deduplicates
//! work *within* one plan run; an [`EngineCache`] extends the same idea
//! across runs, which is what a long-running matching service needs:
//! repeat traffic against a hot schema pair reuses tokenizations, full
//! matcher matrices, vocabulary indexes and, for a cacheable plan, the
//! final result. The memo is a *view* over this cache: every memo is
//! bound to one `Arc<EngineCache>` (its own private one by default, a
//! shared one under [`MatchMemo::scoped`](super::MatchMemo::scoped)),
//! and its lookups read/write the cache directly.
//!
//! What a repeat still computes depends on the plan. A streaming-fused
//! stage never materializes (so never caches) a full matrix, and a
//! refine matrix computed under a mask is not cached either; only the
//! tokenizations and unmasked matrices around them are. The final
//! result short-cuts all of it: [`PlanEngine::execute_result`] answers a
//! plan the result-cache rule admits (no `Reuse` node, only
//! [`Matcher::pure`] matchers) from an identical plan's result kept under
//! the same pair scope, and executes nothing.
//!
//! Keying: artifacts that depend on a schema are keyed by its
//! [`schema_fingerprint`] — a deterministic hash over the schema name and
//! every path's full name plus type information — so "the same schema"
//! means *same content*, not same allocation: a client re-sending an
//! identical schema, or the server reloading it from the persistent
//! repository, hits the cache. Tokenizations are keyed by the element
//! name itself (schema-independent); matcher matrices are keyed by
//! (schema-pair scope, matcher name, matcher instance identity);
//! vocabulary indexes by (schema fingerprint, gram length); final results
//! by (schema-pair scope, [`MatchPlan`] value compared with `==`). The
//! engine configuration is not part of any key: results are bit-identical
//! across dense, sparse, sharded and fused execution. No name-pair
//! similarity is cached: the name-based matchers score every pair of a
//! compute from a token table they build for that compute.
//!
//! Validity: a cache is only coherent for a fixed [`Auxiliary`]
//! configuration and a stable [`MatcherLibrary`] (matrix keys include
//! the matcher *instance* identity, so the library's `Arc`s must outlive
//! the cache). The server keys caches per tenant for exactly this
//! reason. Matchers that read mutable state beyond the schemas — the
//! reuse matchers, which consult the repository — report
//! [`Matcher::pure`] `= false` and are kept out of the shared matrix
//! store (they still share tokenizations, which only depend on
//! strings); a plan naming one keeps no result.
//!
//! Memory: matrix entries are the big artifacts, so they are bounded by
//! a schema-pair scope cap (default [`EngineCache::DEFAULT_MAX_PAIRS`]):
//! registering a scope beyond the cap evicts the least-recently-used
//! pair's matrices and results, and any vocabulary index whose schema no
//! longer appears in a live scope. Each scope keeps at most
//! `RESULTS_PER_SCOPE` (4) final results, dropping its oldest first, so
//! a client cycling through distinct plans cannot grow the cache. The
//! tokenization table is not evicted: it holds one entry per distinct
//! element name the tenant has matched, so it grows with the tenant's
//! vocabulary, not with traffic.
//!
//! [`PlanEngine::execute_result`]: super::PlanEngine::execute_result
//! [`MatchPlan`]: super::MatchPlan
//! [`Auxiliary`]: crate::Auxiliary
//! [`MatcherLibrary`]: crate::MatcherLibrary
//! [`Matcher::pure`]: crate::Matcher::pure

use super::index::VocabIndex;
use super::MatchPlan;
use crate::cube::SimMatrix;
use crate::result::MatchResult;
use coma_graph::{PathSet, Schema};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The schema-pair scope of one plan execution: (source fingerprint,
/// target fingerprint). Matrix entries are valid only within one scope.
pub(crate) type PairScope = (u64, u64);

type MatrixSlots = HashMap<(PairScope, String, usize), Arc<OnceLock<Arc<SimMatrix>>>>;
type IndexSlots = HashMap<(u64, usize), Arc<OnceLock<Arc<VocabIndex>>>>;

/// Final results one pair scope keeps at most; a new one beyond it
/// replaces the scope's oldest.
const RESULTS_PER_SCOPE: usize = 4;

/// A live pair scope and the final results of the cacheable plans
/// executed under it, oldest first.
struct LiveScope {
    pair: PairScope,
    results: Vec<(MatchPlan, Arc<MatchResult>)>,
}

/// A content fingerprint of a schema as a match object: FNV-1a over the
/// schema name and, for every path in DFS preorder, its full dotted name
/// and the underlying node's type information.
///
/// Two schemas with equal fingerprints produce identical inputs to every
/// schema-level matcher (the matchers see names, paths and types — this
/// is exactly what they consume), so fingerprint equality is what makes
/// cross-request reuse sound. Deterministic across processes: safe to
/// use as a persistent cache key.
pub fn schema_fingerprint(schema: &Schema, paths: &PathSet) -> u64 {
    let mut h = Fnv1a::new();
    h.write(schema.name().as_bytes());
    h.write_u64(schema.node_count() as u64);
    h.write_u64(paths.len() as u64);
    for id in paths.iter() {
        h.write(paths.full_name(schema, id).as_bytes());
        let node = schema.node(paths.node_of(id));
        if let Some(dt) = node.datatype {
            h.write(format!("{dt:?}").as_bytes());
        }
        if let Some(t) = &node.type_name {
            h.write(t.as_bytes());
        }
        h.write(&[0xFF]);
    }
    h.finish()
}

/// 64-bit FNV-1a. Hand-rolled so fingerprints are stable across
/// processes and Rust versions (`DefaultHasher` guarantees neither).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf29ce484222325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Counters describing an [`EngineCache`]'s effectiveness and size,
/// reported by the server's `Stats` request and asserted by the
/// repeat-request tests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Shared matrix lookups answered from the cache.
    pub matrix_hits: u64,
    /// Shared matrix lookups that had to compute.
    pub matrix_misses: u64,
    /// Vocabulary-index lookups answered from the cache.
    pub index_hits: u64,
    /// Vocabulary-index lookups that had to build.
    pub index_misses: u64,
    /// Cacheable plans answered from a kept final result.
    pub result_hits: u64,
    /// Cacheable plans that found no kept result and executed.
    pub result_misses: u64,
    /// Distinct cached tokenizations (one per distinct element name).
    pub token_entries: u64,
    /// Live shared matrix entries.
    pub matrix_entries: u64,
    /// Live vocabulary-index entries.
    pub index_entries: u64,
}

/// How warm an [`EngineCache`] is for one schema-pair scope (see
/// [`EngineCache::scope_warmth`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeWarmth {
    /// Computed stage matrices cached under the scope.
    pub matrices: usize,
    /// Vocabulary indexes cached for either side of the scope.
    pub indexes: usize,
}

/// The shared cross-request cache (module docs above). Create one per
/// (auxiliary configuration, matcher library) — e.g. per server tenant —
/// and pass it to [`PlanEngine::execute_cached`], or view it through
/// [`MatchMemo::scoped`](super::MatchMemo::scoped), on every request.
///
/// [`PlanEngine::execute_cached`]: super::PlanEngine::execute_cached
pub struct EngineCache {
    /// Element name → abbreviation-expanded token set
    /// (schema-independent).
    token_sets: RwLock<HashMap<String, Arc<Vec<String>>>>,
    /// (pair scope, matcher name, instance identity) → full matrix.
    matrices: Mutex<MatrixSlots>,
    /// (schema fingerprint, gram length) → vocabulary inverted index.
    indexes: Mutex<IndexSlots>,
    /// Pair scopes in least-recently-used order (front = coldest), each
    /// with its kept final results.
    scopes: Mutex<VecDeque<LiveScope>>,
    /// Maximum live pair scopes before matrix eviction.
    max_pairs: usize,
    matrix_hits: AtomicU64,
    matrix_misses: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
}

impl EngineCache {
    /// Default bound on live schema-pair scopes.
    pub const DEFAULT_MAX_PAIRS: usize = 32;

    /// A cache bounded to [`EngineCache::DEFAULT_MAX_PAIRS`] pair scopes.
    pub fn new() -> EngineCache {
        EngineCache::with_capacity(EngineCache::DEFAULT_MAX_PAIRS)
    }

    /// A cache bounded to `max_pairs` live schema-pair scopes (minimum 1).
    pub fn with_capacity(max_pairs: usize) -> EngineCache {
        EngineCache {
            token_sets: RwLock::default(),
            matrices: Mutex::default(),
            indexes: Mutex::default(),
            scopes: Mutex::default(),
            max_pairs: max_pairs.max(1),
            matrix_hits: AtomicU64::new(0),
            matrix_misses: AtomicU64::new(0),
            index_hits: AtomicU64::new(0),
            index_misses: AtomicU64::new(0),
            result_hits: AtomicU64::new(0),
            result_misses: AtomicU64::new(0),
        }
    }

    /// Current effectiveness and size counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            matrix_hits: self.matrix_hits.load(Ordering::Relaxed),
            matrix_misses: self.matrix_misses.load(Ordering::Relaxed),
            index_hits: self.index_hits.load(Ordering::Relaxed),
            index_misses: self.index_misses.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            token_entries: self.token_sets.read().len() as u64,
            matrix_entries: self.matrices.lock().len() as u64,
            index_entries: self.indexes.lock().len() as u64,
        }
    }

    /// How warm this cache is for the `(source, target)` fingerprint
    /// scope: the number of fully computed stage matrices cached under
    /// that scope and the number of vocabulary indexes cached for either
    /// side. A pure query — hit/miss counters and the LRU order are
    /// untouched. The [`PlanAnalyzer`](super::PlanAnalyzer) uses this for
    /// its expected-cache-warmth facts.
    pub fn scope_warmth(&self, source: u64, target: u64) -> ScopeWarmth {
        let scope: PairScope = (source, target);
        let matrices = self
            .matrices
            .lock()
            .iter()
            .filter(|((s, _, _), cell)| *s == scope && cell.get().is_some())
            .count();
        let indexes = self
            .indexes
            .lock()
            .iter()
            .filter(|((fp, _), cell)| (*fp == source || *fp == target) && cell.get().is_some())
            .count();
        ScopeWarmth { matrices, indexes }
    }

    /// Drops every cached artifact (counters are kept). For callers that
    /// change auxiliary tables or rebuild their matcher library mid-life.
    pub fn purge(&self) {
        self.token_sets.write().clear();
        self.matrices.lock().clear();
        self.indexes.lock().clear();
        self.scopes.lock().clear();
    }

    /// Marks a pair scope as most-recently used, evicting the coldest
    /// scope's matrices and results (and orphaned indexes) beyond the
    /// capacity bound.
    pub(crate) fn register_scope(&self, scope: PairScope) {
        let evicted: Vec<PairScope> = {
            let mut scopes = self.scopes.lock();
            let entry = scopes
                .iter()
                .position(|s| s.pair == scope)
                .and_then(|pos| scopes.remove(pos))
                .unwrap_or(LiveScope {
                    pair: scope,
                    results: Vec::new(),
                });
            scopes.push_back(entry);
            let excess = scopes.len().saturating_sub(self.max_pairs);
            scopes.drain(..excess).map(|s| s.pair).collect()
        };
        if evicted.is_empty() {
            return;
        }
        let live: Vec<PairScope> = self.scopes.lock().iter().map(|s| s.pair).collect();
        self.matrices
            .lock()
            .retain(|(scope, _, _), _| !evicted.contains(scope));
        self.indexes.lock().retain(|(fp, _), _| {
            live.iter().any(|(s, t)| s == fp || t == fp)
                || !evicted.iter().any(|(s, t)| s == fp || t == fp)
        });
    }

    /// The final result kept for `plan` under `scope`, counting a hit or
    /// a miss. Callers ask only for plans the result-cache rule admits.
    pub(crate) fn result(&self, scope: PairScope, plan: &MatchPlan) -> Option<Arc<MatchResult>> {
        let hit = self.kept_result(scope, plan);
        let counter = match hit {
            Some(_) => &self.result_hits,
            None => &self.result_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Whether a final result is kept for `plan` under `scope`. Pure
    /// query: counters and the LRU order are untouched.
    pub(crate) fn has_result(&self, scope: PairScope, plan: &MatchPlan) -> bool {
        self.kept_result(scope, plan).is_some()
    }

    fn kept_result(&self, scope: PairScope, plan: &MatchPlan) -> Option<Arc<MatchResult>> {
        let scopes = self.scopes.lock();
        let live = scopes.iter().find(|s| s.pair == scope)?;
        live.results
            .iter()
            .find(|(kept, _)| kept == plan)
            .map(|(_, result)| Arc::clone(result))
    }

    /// Keeps `plan`'s final `result` under `scope`, replacing the scope's
    /// oldest result beyond [`RESULTS_PER_SCOPE`]. Nothing is kept for a
    /// scope evicted since it was registered, or twice for one plan.
    pub(crate) fn keep_result(&self, scope: PairScope, plan: &MatchPlan, result: Arc<MatchResult>) {
        let mut scopes = self.scopes.lock();
        let Some(live) = scopes.iter_mut().find(|s| s.pair == scope) else {
            return;
        };
        if live.results.iter().any(|(kept, _)| kept == plan) {
            return;
        }
        if live.results.len() == RESULTS_PER_SCOPE {
            live.results.remove(0);
        }
        live.results.push((plan.clone(), result));
    }

    pub(crate) fn token_set(
        &self,
        name: &str,
        compute: impl FnOnce() -> Vec<String>,
    ) -> Arc<Vec<String>> {
        if let Some(hit) = self.token_sets.read().get(name) {
            return Arc::clone(hit);
        }
        let value = Arc::new(compute());
        self.token_sets
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::clone(&value))
            .clone()
    }

    pub(crate) fn matrix(
        &self,
        scope: PairScope,
        name: &str,
        identity: usize,
        compute: impl FnOnce() -> SimMatrix,
    ) -> Arc<SimMatrix> {
        let cell = self
            .matrices
            .lock()
            .entry((scope, name.to_string(), identity))
            .or_default()
            .clone();
        let mut computed = false;
        let out = Arc::clone(cell.get_or_init(|| {
            computed = true;
            Arc::new(compute())
        }));
        if computed {
            self.matrix_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.matrix_hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    pub(crate) fn cached_matrix(
        &self,
        scope: PairScope,
        name: &str,
        identity: usize,
    ) -> Option<Arc<SimMatrix>> {
        let slot = self
            .matrices
            .lock()
            .get(&(scope, name.to_string(), identity))
            .cloned();
        slot.and_then(|cell| cell.get().map(Arc::clone))
    }

    /// Whether a built vocabulary index is already cached for the given
    /// schema fingerprint and gram length. Pure query: never builds.
    pub(crate) fn has_vocab_index(&self, fingerprint: u64, q: usize) -> bool {
        self.indexes
            .lock()
            .get(&(fingerprint, q))
            .is_some_and(|cell| cell.get().is_some())
    }

    pub(crate) fn vocab_index(
        &self,
        fingerprint: u64,
        q: usize,
        compute: impl FnOnce() -> VocabIndex,
    ) -> Arc<VocabIndex> {
        let cell = self
            .indexes
            .lock()
            .entry((fingerprint, q))
            .or_default()
            .clone();
        let mut computed = false;
        let out = Arc::clone(cell.get_or_init(|| {
            computed = true;
            Arc::new(compute())
        }));
        if computed {
            self.index_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.index_hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl Default for EngineCache {
    fn default() -> Self {
        EngineCache::new()
    }
}

impl std::fmt::Debug for EngineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCache")
            .field("stats", &self.stats())
            .field("max_pairs", &self.max_pairs)
            .finish()
    }
}

/// A fresh scope no real fingerprint pair will ever equal *within one
/// private cache* — used by memos that are not bound to a shared cache,
/// so their entries can never be confused with fingerprint-keyed ones.
pub(crate) fn private_scope() -> PairScope {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(2, Ordering::Relaxed);
    (n, n + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_graph::{Node, SchemaBuilder};

    fn schema(name: &str, leaves: &[&str]) -> (Schema, PathSet) {
        let mut b = SchemaBuilder::new(name);
        let root = b.add_node(Node::new(name));
        for leaf in leaves {
            let c = b.add_node(Node::new(*leaf));
            b.add_child(root, c).unwrap();
        }
        let s = b.build().unwrap();
        let p = PathSet::new(&s).unwrap();
        (s, p)
    }

    #[test]
    fn fingerprint_is_content_keyed() {
        let (s1, p1) = schema("PO", &["shipTo", "billTo"]);
        let (s2, p2) = schema("PO", &["shipTo", "billTo"]);
        assert_eq!(schema_fingerprint(&s1, &p1), schema_fingerprint(&s2, &p2));
        // Different content, different fingerprint.
        let (s3, p3) = schema("PO", &["shipTo", "deliverTo"]);
        assert_ne!(schema_fingerprint(&s1, &p1), schema_fingerprint(&s3, &p3));
        // Same nodes, different schema name: distinct.
        let (s4, p4) = schema("PO2", &["shipTo", "billTo"]);
        assert_ne!(schema_fingerprint(&s1, &p1), schema_fingerprint(&s4, &p4));
    }

    #[test]
    fn matrix_hits_are_counted() {
        let cache = EngineCache::new();
        let scope = (1, 2);
        cache.register_scope(scope);
        cache.matrix(scope, "Name", 7, || SimMatrix::new(2, 2));
        cache.matrix(scope, "Name", 7, || panic!("must hit"));
        let stats = cache.stats();
        assert_eq!(stats.matrix_misses, 1);
        assert_eq!(stats.matrix_hits, 1);
        assert_eq!(stats.matrix_entries, 1);
    }

    #[test]
    fn scope_eviction_drops_cold_matrices() {
        let cache = EngineCache::with_capacity(2);
        for i in 0..3u64 {
            let scope = (10 + i, 20 + i);
            cache.register_scope(scope);
            cache.matrix(scope, "Name", 1, || SimMatrix::new(1, 1));
            let aux = crate::matchers::Auxiliary::standard();
            cache.vocab_index(10 + i, 3, || VocabIndex::build(std::iter::empty(), &aux, 3));
        }
        // Scope (10, 20) was coldest and is gone; the two recent ones live.
        assert!(cache.cached_matrix((10, 20), "Name", 1).is_none());
        assert!(cache.cached_matrix((11, 21), "Name", 1).is_some());
        assert!(cache.cached_matrix((12, 22), "Name", 1).is_some());
        let stats = cache.stats();
        assert_eq!(stats.matrix_entries, 2);
        assert_eq!(stats.index_entries, 2);
    }

    #[test]
    fn cross_request_cache_reuses_work_and_preserves_results() {
        let coma = crate::process::Coma::new();
        let (s1, p1) = schema("PO1", &["shipTo", "billTo", "poNo", "city"]);
        let (s2, p2) = schema("PO2", &["deliverTo", "invoiceTo", "orderNum", "town"]);
        let plan = crate::engine::MatchPlan::from(&crate::process::MatchStrategy::paper_default());
        let cfg = crate::engine::EngineConfig::default;
        let cache = Arc::new(EngineCache::new());
        let engine = crate::engine::PlanEngine::with_config(coma.library(), cfg());
        let task = |source, source_paths| {
            crate::matchers::context::MatchContext::new(source, &s2, source_paths, &p2, coma.aux())
                .with_repository(coma.repository())
        };

        let uncached = coma.match_plan_with(cfg(), &s1, &s2, &plan).unwrap();
        let first = engine
            .execute_cached(&task(&s1, &p1), &plan, &cache)
            .unwrap();
        assert_eq!(
            first.result, uncached.result,
            "caching must not change results"
        );
        let after_first = cache.stats();
        assert!(after_first.matrix_misses > 0);

        // A *different allocation* with identical content hits the cache:
        // no new matrix is ever computed.
        let (s1b, p1b) = schema("PO1", &["shipTo", "billTo", "poNo", "city"]);
        let second = engine
            .execute_cached(&task(&s1b, &p1b), &plan, &cache)
            .unwrap();
        assert_eq!(second.result, first.result);
        let after_second = cache.stats();
        assert_eq!(
            after_second.matrix_misses, after_first.matrix_misses,
            "repeat request must compute no new matrices"
        );
        assert!(after_second.matrix_hits > after_first.matrix_hits);
    }

    #[test]
    fn results_leave_with_their_scope_and_stay_capped() {
        use crate::engine::TopKPer;
        let cache = EngineCache::with_capacity(2);
        let result = Arc::new(MatchResult {
            source_schema: "A".into(),
            target_schema: "B".into(),
            candidates: Vec::new(),
            source_size: 0,
            target_size: 0,
            schema_similarity: None,
        });
        let plans: Vec<MatchPlan> = (1..=RESULTS_PER_SCOPE + 2)
            .map(|k| {
                MatchPlan::matchers(["Name"])
                    .top_k(k, TopKPer::Both)
                    .unwrap()
            })
            .collect();
        let kept = |scope| plans.iter().filter(|p| cache.has_result(scope, p)).count();
        cache.register_scope((1, 2));
        for plan in &plans {
            cache.keep_result((1, 2), plan, Arc::clone(&result));
            assert!(kept((1, 2)) <= RESULTS_PER_SCOPE);
        }
        // The cap drops the oldest results first.
        assert_eq!(kept((1, 2)), RESULTS_PER_SCOPE);
        assert!(!cache.has_result((1, 2), &plans[0]));
        assert!(cache.has_result((1, 2), &plans[RESULTS_PER_SCOPE + 1]));
        // Nothing is kept under a scope that is not live.
        cache.keep_result((7, 8), &plans[0], Arc::clone(&result));
        assert_eq!(kept((7, 8)), 0);
        // Evicting the scope drops its results; registering it again
        // starts it empty.
        cache.register_scope((3, 4));
        cache.register_scope((5, 6));
        assert_eq!(kept((1, 2)), 0);
        cache.register_scope((1, 2));
        assert_eq!(kept((1, 2)), 0);
        // Only counted lookups move the counters.
        assert!(cache.result((1, 2), &plans[0]).is_none());
        cache.keep_result((1, 2), &plans[0], Arc::clone(&result));
        let hit = cache.result((1, 2), &plans[0]).unwrap();
        assert!(Arc::ptr_eq(&hit, &result));
        let stats = cache.stats();
        assert_eq!((stats.result_hits, stats.result_misses), (1, 1));
    }

    #[test]
    fn execute_result_answers_a_repeat_without_executing() {
        use crate::engine::{MatchMemo, PairMask, PlanEngine};
        let library = crate::matchers::MatcherLibrary::standard();
        let aux = crate::matchers::Auxiliary::standard();
        let (s1, p1) = schema("PO1", &["shipTo", "billTo", "poNo", "city"]);
        let (s2, p2) = schema("PO2", &["deliverTo", "invoiceTo", "orderNum", "town"]);
        let ctx = crate::MatchContext::new(&s1, &s2, &p1, &p2, &aux);
        let (f1, f2) = (schema_fingerprint(&s1, &p1), schema_fingerprint(&s2, &p2));
        let plan = crate::plans::topk_pruned_plan(2);
        let engine = PlanEngine::new(&library);
        let cache = Arc::new(EngineCache::new());

        let fresh = engine.execute(&ctx, &plan).unwrap().result;
        let cold = engine
            .execute_result(&ctx, &plan, &MatchMemo::scoped(&cache, f1, f2))
            .unwrap();
        assert_eq!(*cold, fresh);
        let after_cold = cache.stats();
        let warm = engine
            .execute_result(&ctx, &plan, &MatchMemo::scoped(&cache, f1, f2))
            .unwrap();
        assert!(Arc::ptr_eq(&warm, &cold), "the repeat executed");
        let after_warm = cache.stats();
        assert_eq!(after_warm.result_hits, after_cold.result_hits + 1);
        assert_eq!(
            (after_warm.matrix_hits, after_warm.matrix_misses),
            (after_cold.matrix_hits, after_cold.matrix_misses)
        );

        // A restricted context executes under its mask, past the cache.
        let mask = PairMask::from_result(ctx.rows(), ctx.cols(), &fresh);
        let restricted = ctx.with_restriction(&mask);
        engine
            .execute_result(&restricted, &plan, &MatchMemo::scoped(&cache, f1, f2))
            .unwrap();
        let after_masked = cache.stats();
        assert_eq!(
            (after_masked.result_hits, after_masked.result_misses),
            (after_warm.result_hits, after_warm.result_misses)
        );
    }

    #[test]
    fn purge_clears_everything() {
        let cache = EngineCache::new();
        cache.register_scope((1, 2));
        cache.matrix((1, 2), "Name", 1, || SimMatrix::new(1, 1));
        cache.token_set("shipTo", || vec!["ship".into(), "to".into()]);
        cache.purge();
        let stats = cache.stats();
        assert_eq!(stats.matrix_entries, 0);
        assert_eq!(stats.token_entries, 0);
    }
}
