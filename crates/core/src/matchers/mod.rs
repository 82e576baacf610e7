//! The matcher library (paper, Section 4, Table 3): simple, hybrid and
//! reuse-oriented matchers behind a single [`Matcher`] trait, organized in
//! an extensible [`MatcherLibrary`].

pub mod context;
pub mod datatype;
pub mod feedback;
pub mod hybrid;
pub mod instances;
pub mod name_engine;
pub mod simple;
pub mod structural;
pub mod synonym;

use crate::cube::SimMatrix;
pub use context::{Auxiliary, MatchContext};
use name_engine::NameEngine;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A matcher: computes an `m × n` similarity matrix for the elements
/// (paths) of a match task. "Each matcher determines an intermediate match
/// result consisting of a similarity value between 0 and 1 for each
/// combination of S1 and S2 schema elements" (Section 3).
pub trait Matcher: Send + Sync {
    /// The matcher's library name (e.g. `Trigram`, `NamePath`, `SchemaM`).
    fn name(&self) -> &str;

    /// Computes the similarity matrix for the given match task.
    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix;

    /// Computes the rows `rows` of this matcher's matrix: the result has
    /// `rows.len()` rows (row `i` is the task's row `rows.start + i`) and
    /// the task's full column count. The plan engine uses this to split
    /// one unrestricted (dense) computation into contiguous row shards
    /// executed on parallel threads, then reassembles them with
    /// [`SimMatrix::from_row_shards`] — bit-identical to [`compute`]
    /// because every cell's value depends only on its own pair.
    ///
    /// The default implementation computes the full matrix and slices the
    /// requested rows out — always correct, never profitable (each shard
    /// would redo the whole computation), which is why the engine only
    /// shards matchers that opt in via [`row_shardable`].
    ///
    /// [`compute`]: Matcher::compute
    /// [`row_shardable`]: Matcher::row_shardable
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: std::ops::Range<usize>) -> SimMatrix {
        self.compute(ctx).row_range(rows)
    }

    /// Whether [`compute_rows`](Matcher::compute_rows) is implemented
    /// natively, doing only the work of the requested rows — the
    /// precondition for the engine's row-sharded execution to be a win.
    /// True for matchers whose per-row work is independent of other rows
    /// given their (memoized) shared tables: the cell-local hybrids
    /// (`Name`, `NamePath`, `TypeName`), `DataType`, and `Leaves`
    /// (independent rows over the shared leaf-similarity table).
    /// `Children` stays `false`:
    /// its inner-pair recursion reads other rows' results. The
    /// conservative default is `false` (third-party matchers keep working
    /// unsharded).
    fn row_shardable(&self) -> bool {
        false
    }

    /// Whether this matcher's output depends only on the two schemas and
    /// the auxiliary tables — i.e. recomputing it later against the same
    /// (by content) schemas yields the same matrix. Pure matrices may be
    /// cached across plan executions by a shared
    /// [`EngineCache`](crate::engine::EngineCache); matchers that read
    /// mutable state (the reuse matchers consult the repository, whose
    /// contents change between executions) must return `false`, which
    /// keeps their matrices in the per-execution memo only. Defaults to
    /// `true` — the repository is the only mutable input a stock matcher
    /// has.
    fn pure(&self) -> bool {
        true
    }

    /// Whether each cell `(i, j)` of this matcher's matrix depends only on
    /// the source element `i` and target element `j` (not on other pairs).
    /// Cell-local matchers can honor a search-space restriction
    /// ([`MatchContext::restriction`]) by skipping disallowed pairs; for
    /// all others the engine computes the full matrix and masks the
    /// result, since e.g. structural set similarities need the complete
    /// pair space. The conservative default is `false`.
    fn cell_local(&self) -> bool {
        false
    }

    /// Whether this matcher has a **sparse execution path**: it honors a
    /// search-space restriction even though its cells are not independent,
    /// by computing only the allowed pairs plus whatever cells they
    /// transitively depend on (e.g. the structural matchers' recursive
    /// child-set similarities). The sparse result must be bit-identical to
    /// the masked dense computation; the engine then skips the full
    /// cross-product when a restriction is sparse enough. The conservative
    /// default is `false` (compute full, mask afterwards).
    fn sparse_capable(&self) -> bool {
        false
    }

    /// The name engine of a *name-keyed* matcher: one whose every cell is
    /// the clamped similarity this engine gives the two element names,
    /// and nothing else (`Name`). A prunable stage fused over a leaf
    /// whose only matcher is name-keyed then selects over the task's
    /// distinct names instead of its paths, reading the execution's name
    /// table for this engine. `None`, the default, for every other
    /// matcher.
    fn name_keyed(&self) -> Option<&NameEngine> {
        None
    }
}

/// The extensible matcher library: "New match algorithms can be included
/// in the library and used in combination with other matchers" (Section 1).
///
/// Matchers are shared (`Arc`) so a library clone is cheap and usable
/// across threads during experiment sweeps.
#[derive(Clone, Default)]
pub struct MatcherLibrary {
    matchers: BTreeMap<String, Arc<dyn Matcher>>,
}

impl MatcherLibrary {
    /// An empty library.
    pub fn new() -> MatcherLibrary {
        MatcherLibrary::default()
    }

    /// The standard library with every matcher of Table 3 under its paper
    /// name, plus the two Schema-matcher variants of the evaluation
    /// (`SchemaM`, `SchemaA`) and the `Fragment` reuse matcher.
    pub fn standard() -> MatcherLibrary {
        use crate::reuse::{FragmentMatcher, SchemaMatcher};
        let mut lib = MatcherLibrary::new();
        // Simple matchers.
        lib.register(Arc::new(simple::SimpleNameMatcher::affix()));
        lib.register(Arc::new(simple::SimpleNameMatcher::ngram(2)));
        lib.register(Arc::new(simple::SimpleNameMatcher::ngram(3)));
        lib.register(Arc::new(simple::SimpleNameMatcher::edit_distance()));
        lib.register(Arc::new(simple::SimpleNameMatcher::soundex()));
        lib.register(Arc::new(simple::SimpleNameMatcher::synonym()));
        lib.register(Arc::new(simple::DataTypeMatcher));
        lib.register(Arc::new(simple::UserFeedbackMatcher));
        // Hybrid matchers. `Children` and `Leaves` share the registered
        // `TypeName` instance as their leaf matcher so a plan execution
        // computes its matrix once for all three (the engine memoizes by
        // instance identity).
        let type_name: Arc<dyn Matcher> = Arc::new(hybrid::TypeNameMatcher::new());
        lib.register(Arc::new(hybrid::NameMatcher::new()));
        lib.register(Arc::new(hybrid::NamePathMatcher::new()));
        lib.register(Arc::clone(&type_name));
        lib.register(Arc::new(structural::ChildrenMatcher::with_leaf_matcher(
            Arc::clone(&type_name),
        )));
        lib.register(Arc::new(structural::LeavesMatcher::with_leaf_matcher(
            type_name,
        )));
        // Instance-level matcher (extension; zero without sample data).
        lib.register(Arc::new(instances::InstanceMatcher::new()));
        // Reuse-oriented matchers.
        lib.register(Arc::new(SchemaMatcher::manual()));
        lib.register(Arc::new(SchemaMatcher::automatic()));
        lib.register(Arc::new(FragmentMatcher::new()));
        lib
    }

    /// Registers (or replaces) a matcher under its own name.
    pub fn register(&mut self, matcher: Arc<dyn Matcher>) {
        self.matchers.insert(matcher.name().to_string(), matcher);
    }

    /// Looks up a matcher by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Matcher>> {
        self.matchers.get(name).cloned()
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.matchers.keys().map(String::as_str).collect()
    }

    /// Number of registered matchers.
    pub fn len(&self) -> usize {
        self.matchers.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.matchers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_has_the_table_3_matchers() {
        let lib = MatcherLibrary::standard();
        for name in [
            "Affix",
            "Digram",
            "Trigram",
            "EditDistance",
            "Soundex",
            "Synonym",
            "DataType",
            "UserFeedback",
            "Name",
            "NamePath",
            "TypeName",
            "Children",
            "Leaves",
            "SchemaM",
            "SchemaA",
            "Fragment",
            "Instance",
        ] {
            assert!(lib.get(name).is_some(), "missing matcher {name}");
        }
        assert_eq!(lib.len(), 17);
    }

    #[test]
    fn registration_replaces_by_name() {
        let mut lib = MatcherLibrary::new();
        lib.register(Arc::new(simple::DataTypeMatcher));
        lib.register(Arc::new(simple::DataTypeMatcher));
        assert_eq!(lib.len(), 1);
        assert!(lib.get("DataType").is_some());
        assert!(lib.get("nope").is_none());
    }
}
