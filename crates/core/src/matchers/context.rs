//! Match task context and auxiliary information shared by all matchers.

use crate::engine::{MatchMemo, PairMask};
use crate::matchers::datatype::TypeCompatTable;
use crate::matchers::feedback::Feedback;
use crate::matchers::instances::InstanceStore;
use crate::matchers::name_engine::NameEngine;
use crate::matchers::synonym::SynonymTable;
use coma_graph::{PathId, PathSet, Schema};
use coma_repo::Repository;
use coma_strings::AbbreviationTable;
use std::sync::Arc;

/// Auxiliary information available to matchers (paper, Table 3): synonym
/// dictionaries, abbreviation tables, the data-type compatibility table,
/// and user-provided (mis)match feedback.
#[derive(Debug, Clone, Default)]
pub struct Auxiliary {
    /// Terminological relationships for the `Synonym` matcher.
    pub synonyms: SynonymTable,
    /// Abbreviation/acronym expansions for name tokenization.
    pub abbreviations: AbbreviationTable,
    /// Compatibility degrees for the `DataType` matcher.
    pub type_compat: TypeCompatTable,
    /// User-specified matches and mismatches for `UserFeedback`.
    pub feedback: Feedback,
    /// Sample instance values for the `Instance` matcher (extension).
    pub instances: InstanceStore,
}

impl Auxiliary {
    /// Auxiliary information with the standard tables (trivial
    /// abbreviations, default type compatibility, no synonyms, no feedback).
    pub fn standard() -> Auxiliary {
        Auxiliary {
            synonyms: SynonymTable::new(),
            abbreviations: AbbreviationTable::standard(),
            type_compat: TypeCompatTable::standard(),
            feedback: Feedback::new(),
            instances: InstanceStore::new(),
        }
    }
}

/// Everything a matcher needs to compute its similarity matrix for one
/// match task: the two schemas, their path unfoldings (the match objects),
/// auxiliary information, and — for reuse matchers — the repository.
///
/// Matrix row `i` corresponds to source path id `i` in DFS preorder, and
/// column `j` to target path id `j`; [`MatchContext::source_elem`] and
/// [`MatchContext::target_elem`] convert indices back to [`PathId`]s.
#[derive(Clone, Copy)]
pub struct MatchContext<'a> {
    /// The source schema S1.
    pub source: &'a Schema,
    /// The target schema S2.
    pub target: &'a Schema,
    /// Path unfolding of S1.
    pub source_paths: &'a PathSet,
    /// Path unfolding of S2.
    pub target_paths: &'a PathSet,
    /// Auxiliary matcher information.
    pub aux: &'a Auxiliary,
    /// The repository, for reuse-oriented matchers. `None` disables reuse.
    pub repository: Option<&'a Repository>,
    /// Shared-work memoization for one plan execution (attached by the
    /// [`PlanEngine`](crate::engine::PlanEngine)). `None` means every
    /// matcher computes from scratch, as the legacy pipeline always did.
    pub memo: Option<&'a MatchMemo>,
    /// Search-space restriction for the current stage. Cell-local matchers
    /// (see [`Matcher::cell_local`](crate::Matcher::cell_local)) skip
    /// disallowed pairs; `None` allows every pair.
    pub restriction: Option<&'a PairMask>,
}

impl<'a> MatchContext<'a> {
    /// Creates a context without repository access.
    pub fn new(
        source: &'a Schema,
        target: &'a Schema,
        source_paths: &'a PathSet,
        target_paths: &'a PathSet,
        aux: &'a Auxiliary,
    ) -> MatchContext<'a> {
        MatchContext {
            source,
            target,
            source_paths,
            target_paths,
            aux,
            repository: None,
            memo: None,
            restriction: None,
        }
    }

    /// Attaches a repository (enables the reuse matchers).
    pub fn with_repository(mut self, repository: &'a Repository) -> MatchContext<'a> {
        self.repository = Some(repository);
        self
    }

    /// Attaches a shared-work memo (the engine does this once per plan
    /// execution).
    pub fn with_memo<'b>(self, memo: &'b MatchMemo) -> MatchContext<'b>
    where
        'a: 'b,
    {
        MatchContext {
            memo: Some(memo),
            ..self
        }
    }

    /// Restricts the search space to the pairs a mask allows.
    pub fn with_restriction<'b>(self, restriction: &'b PairMask) -> MatchContext<'b>
    where
        'a: 'b,
    {
        MatchContext {
            restriction: Some(restriction),
            ..self
        }
    }

    /// Drops any search-space restriction (structural matchers need the
    /// full pair space for correct set similarities).
    pub fn without_restriction(self) -> MatchContext<'a> {
        MatchContext {
            restriction: None,
            ..self
        }
    }

    /// Whether the pair (source `i`, target `j`) is in the search space.
    #[inline]
    pub fn allows(&self, i: usize, j: usize) -> bool {
        self.restriction.is_none_or(|mask| mask.allows(i, j))
    }

    /// The (memoized, engine-independent) token set of a name.
    pub fn token_set(&self, engine: &NameEngine, name: &str) -> Arc<Vec<String>> {
        match self.memo {
            Some(memo) => memo.token_set(name, || engine.token_set(name, self.aux)),
            None => Arc::new(engine.token_set(name, self.aux)),
        }
    }

    /// Number of source elements (`m`).
    pub fn rows(&self) -> usize {
        self.source_paths.len()
    }

    /// Number of target elements (`n`).
    pub fn cols(&self) -> usize {
        self.target_paths.len()
    }

    /// The source path for matrix row `i`.
    pub fn source_elem(&self, i: usize) -> PathId {
        self.source_paths
            .iter()
            .nth(i)
            .expect("row index within bounds")
    }

    /// The target path for matrix column `j`.
    pub fn target_elem(&self, j: usize) -> PathId {
        self.target_paths
            .iter()
            .nth(j)
            .expect("column index within bounds")
    }

    /// Element name of source row `i` (last node on the path).
    pub fn source_name(&self, i: usize) -> &'a str {
        self.source_paths.name(self.source, self.source_elem(i))
    }

    /// Element name of target column `j`.
    pub fn target_name(&self, j: usize) -> &'a str {
        self.target_paths.name(self.target, self.target_elem(j))
    }

    /// Dotted full name of source row `i`.
    pub fn source_full_name(&self, i: usize) -> String {
        self.source_paths
            .full_name(self.source, self.source_elem(i))
    }

    /// Dotted full name of target column `j`.
    pub fn target_full_name(&self, j: usize) -> String {
        self.target_paths
            .full_name(self.target, self.target_elem(j))
    }
}
