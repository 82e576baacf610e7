//! Shared-work memoization for one plan execution.
//!
//! A [`MatchMemo`] lives for the duration of one [`PlanEngine`] run and
//! deduplicates the kinds of work that hybrid matchers and overlapping
//! sub-plans otherwise recompute:
//!
//! * **tokenizations** — the abbreviation-expanded token set of an
//!   element name is independent of any matcher configuration, so one
//!   cache serves every name-based matcher. Only element names are
//!   cached: `NamePath` derives a path's token set from its element
//!   names' sets;
//! * **the name table** — per [`NameEngine`] value, the similarity of
//!   every distinct (source name, target name) pair of the task, each
//!   table row filled once by whichever compute needs it first, so
//!   `Name` and `TypeName` (which share the paper-default engine) score
//!   each distinct name pair once per execution: in the fused first
//!   stage, the masked refine slices and the structural leaf table
//!   alike. The table is kept only while the engine's keep rule admits
//!   its size, and it lives in this memo alone: it never enters the
//!   cross-request [`EngineCache`], which therefore still caches
//!   tokenizations, not name pairs;
//! * **per-matcher similarity matrices** — keyed by matcher name *and*
//!   instance identity, so `Children`/`Leaves` reuse the `TypeName` matrix
//!   the engine already computed (the standard library shares one
//!   `TypeName` instance for exactly this purpose) without ever conflating
//!   two differently-configured matchers that happen to share a name;
//! * **vocabulary inverted indexes** — the per-side token/q-gram posting
//!   structures behind `CandidateIndex` leaves, keyed by (side, gram
//!   length) so repeated candidate stages build each index once.
//!
//! The memo is a **view over an [`EngineCache`]**: by default
//! ([`MatchMemo::new`]) the cache is private and dies with the memo, but
//! a memo bound to a shared cache ([`MatchMemo::scoped`], used by
//! [`PlanEngine::execute_cached`](super::PlanEngine::execute_cached) and
//! by a server that computes each request's fingerprints once) reads and
//! writes artifacts keyed by schema fingerprint, so repeat traffic
//! against a hot schema pair reuses them across plan executions. Through
//! the memo, [`PlanEngine::execute_result`](super::PlanEngine::execute_result)
//! also keeps and finds the final result of a cacheable plan under the
//! memo's pair scope. Matrices of non-[`pure`](crate::Matcher::pure)
//! matchers (the reuse matchers, which read the repository) stay in a
//! memo-local store either way, so mutable state never leaks into the
//! shared cache.
//!
//! All caches use interior mutability and are safe to share across the
//! engine's worker threads; matrix entries are computed at most once even
//! under concurrency (via `OnceLock`).
//!
//! The streaming-fused pruning path (see
//! [`EngineConfig::fuse_pruning`](super::EngineConfig)) deliberately
//! bypasses the *matrix* cache — its whole point is never materializing a
//! full per-matcher matrix — but still shares the tokenization cache and
//! the name table, so fused and unfused stages of one run tokenize each
//! name once and score each distinct name pair once.
//!
//! [`PlanEngine`]: super::PlanEngine

use super::cache::{private_scope, EngineCache, PairScope};
use super::index::VocabIndex;
use super::MatchPlan;
use crate::cube::SimMatrix;
use crate::matchers::hybrid::NameTable;
use crate::matchers::name_engine::NameEngine;
use crate::matchers::Matcher;
use crate::result::MatchResult;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A matrix slot computed at most once, keyed by (matcher name, instance
/// identity) — the memo-local store for non-`pure` matchers.
type LocalMatrixSlots = HashMap<(String, usize), Arc<OnceLock<Arc<SimMatrix>>>>;

/// A name table slot per name engine, decided at most once: the kept
/// table, or `None` when the keep rule declined it.
type NameTableSlots = Vec<Arc<(NameEngine, OnceLock<Option<Arc<NameTable>>>)>>;

/// Memoized shared work for one match task, shared by all matchers and
/// stages of a plan execution (attached to the context as
/// [`MatchContext::memo`](crate::MatchContext)) — a view over an
/// [`EngineCache`] scoped to this execution's schema pair.
pub struct MatchMemo {
    /// The backing cache: private by default, shared under
    /// [`PlanEngine::execute_cached`](super::PlanEngine::execute_cached).
    cache: Arc<EngineCache>,
    /// (source fingerprint, target fingerprint) of this execution.
    scope: PairScope,
    /// Matrices of matchers whose output depends on state beyond the
    /// schemas (reuse matchers): valid for this execution only.
    local_matrices: Mutex<LocalMatrixSlots>,
    /// This execution's name tables, one per name engine.
    name_tables: Mutex<NameTableSlots>,
}

/// The identity of a matcher instance: the address of its (shared) `Arc`
/// allocation. Two `Arc` clones of the same matcher share an identity; two
/// separately constructed matchers never do, even under the same name.
pub fn matcher_identity(matcher: &Arc<dyn Matcher>) -> usize {
    Arc::as_ptr(matcher) as *const () as usize
}

impl MatchMemo {
    /// An empty memo over its own private cache — per-execution
    /// memoization only, the default for one-shot [`PlanEngine::execute`]
    /// runs.
    ///
    /// [`PlanEngine::execute`]: super::PlanEngine::execute
    pub fn new() -> MatchMemo {
        MatchMemo {
            cache: Arc::new(EngineCache::new()),
            scope: private_scope(),
            local_matrices: Mutex::default(),
            name_tables: Mutex::default(),
        }
    }

    /// A memo viewing the shared `cache` under the schema-pair scope
    /// `(source_fp, target_fp)` (see
    /// [`schema_fingerprint`](super::schema_fingerprint)). Registers the
    /// scope as most-recently used, which may evict the cache's coldest
    /// pair.
    pub fn scoped(cache: &Arc<EngineCache>, source_fp: u64, target_fp: u64) -> MatchMemo {
        cache.register_scope((source_fp, target_fp));
        MatchMemo {
            cache: Arc::clone(cache),
            scope: (source_fp, target_fp),
            local_matrices: Mutex::default(),
            name_tables: Mutex::default(),
        }
    }

    /// The backing cache this memo is a view over.
    pub fn cache(&self) -> &Arc<EngineCache> {
        &self.cache
    }

    /// The cached token set for `name`, computing it via `compute` on the
    /// first request.
    pub fn token_set(&self, name: &str, compute: impl FnOnce() -> Vec<String>) -> Arc<Vec<String>> {
        self.cache.token_set(name, compute)
    }

    /// The full similarity matrix of a matcher, computed at most once per
    /// scope (concurrent requests block on the first computation).
    /// Returned as a shared handle: consumers that only read (structural
    /// leaf tables, mask application) never copy the matrix.
    ///
    /// `shareable` says whether the matrix may outlive this execution in
    /// the backing cache — pass [`Matcher::pure`](crate::Matcher::pure).
    /// Non-shareable matrices are memoized for this execution only.
    pub fn matrix(
        &self,
        name: &str,
        identity: usize,
        shareable: bool,
        compute: impl FnOnce() -> SimMatrix,
    ) -> Arc<SimMatrix> {
        if shareable {
            return self.cache.matrix(self.scope, name, identity, compute);
        }
        let cell = self
            .local_matrices
            .lock()
            .entry((name.to_string(), identity))
            .or_default()
            .clone();
        Arc::clone(cell.get_or_init(|| Arc::new(compute())))
    }

    /// The cached full matrix of a matcher, if it was already computed
    /// (in this execution, or — for shareable matrices — by any earlier
    /// execution in the same scope).
    pub fn cached_matrix(&self, name: &str, identity: usize) -> Option<Arc<SimMatrix>> {
        let local = self
            .local_matrices
            .lock()
            .get(&(name.to_string(), identity))
            .cloned();
        if let Some(hit) = local.and_then(|cell| cell.get().map(Arc::clone)) {
            return Some(hit);
        }
        self.cache.cached_matrix(self.scope, name, identity)
    }

    /// This execution's name table for `engine`: `build` runs once per
    /// engine value, on the first request (concurrent requests block on
    /// it), and returns the table or `None` when the keep rule declines
    /// it; every later request gets the same answer.
    pub(crate) fn name_table(
        &self,
        engine: &NameEngine,
        build: impl FnOnce() -> Option<Arc<NameTable>>,
    ) -> Option<Arc<NameTable>> {
        let slot = {
            let mut slots = self.name_tables.lock();
            match slots.iter().find(|slot| slot.0 == *engine) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new((engine.clone(), OnceLock::new()));
                    slots.push(Arc::clone(&slot));
                    slot
                }
            }
        };
        slot.1.get_or_init(build).clone()
    }

    /// The final result kept for `plan` under this memo's pair scope
    /// (see [`EngineCache`]), counting a result hit or miss.
    pub(crate) fn cached_result(&self, plan: &MatchPlan) -> Option<Arc<MatchResult>> {
        self.cache.result(self.scope, plan)
    }

    /// Keeps `plan`'s final result under this memo's pair scope.
    pub(crate) fn keep_result(&self, plan: &MatchPlan, result: Arc<MatchResult>) {
        self.cache.keep_result(self.scope, plan, result);
    }

    /// The vocabulary inverted index of one schema side (`target_side`
    /// false = source), built at most once per (schema, gram length) per
    /// scope — repeated `CandidateIndex` stages (e.g. inside an `Iterate`
    /// loop, or across requests under a shared cache) reuse it.
    pub fn vocab_index(
        &self,
        target_side: bool,
        q: usize,
        compute: impl FnOnce() -> VocabIndex,
    ) -> Arc<VocabIndex> {
        let fp = if target_side {
            self.scope.1
        } else {
            self.scope.0
        };
        self.cache.vocab_index(fp, q, compute)
    }
}

impl Default for MatchMemo {
    fn default() -> Self {
        MatchMemo::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn token_sets_compute_once() {
        let memo = MatchMemo::new();
        let calls = AtomicUsize::new(0);
        let mk = || {
            calls.fetch_add(1, Ordering::SeqCst);
            vec!["ship".to_string(), "to".to_string()]
        };
        let a = memo.token_set("shipTo", mk);
        let b = memo.token_set("shipTo", mk);
        assert_eq!(a, b);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn matrices_key_on_name_and_identity() {
        let memo = MatchMemo::new();
        let m1 = memo.matrix("X", 1, true, || SimMatrix::new(2, 2));
        assert_eq!(m1.rows(), 2);
        // Same key: cached, the closure must not run.
        memo.matrix("X", 1, true, || panic!("must hit"));
        assert!(memo.cached_matrix("X", 1).is_some());
        // Same name, different instance: a distinct entry.
        assert!(memo.cached_matrix("X", 2).is_none());
    }

    #[test]
    fn impure_matrices_stay_local_to_the_memo() {
        let cache = Arc::new(EngineCache::new());
        let memo = MatchMemo::scoped(&cache, 100, 200);
        memo.matrix("SchemaM", 9, false, || SimMatrix::new(1, 1));
        memo.matrix("Name", 9, true, || SimMatrix::new(1, 1));
        assert!(memo.cached_matrix("SchemaM", 9).is_some());
        // A second memo over the same cache and scope sees only the
        // shareable matrix.
        let memo2 = MatchMemo::scoped(&cache, 100, 200);
        assert!(memo2.cached_matrix("SchemaM", 9).is_none());
        assert!(memo2.cached_matrix("Name", 9).is_some());
    }

    #[test]
    fn scoped_memos_share_vocab_indexes_by_fingerprint() {
        let cache = Arc::new(EngineCache::new());
        let aux = crate::matchers::Auxiliary::standard();
        let build = || VocabIndex::build(["ship to"], &aux, 3);
        let memo = MatchMemo::scoped(&cache, 7, 8);
        let first = memo.vocab_index(false, 3, build);
        // Same schema on the *target* side of a later request: same index.
        let memo2 = MatchMemo::scoped(&cache, 9, 7);
        let second = memo2.vocab_index(true, 3, || panic!("must hit"));
        assert!(Arc::ptr_eq(&first, &second));
    }
}
