//! # coma-core — the COMA schema matching system
//!
//! A from-scratch implementation of COMA (Do & Rahm, VLDB 2002): a generic
//! schema matching platform built around the flexible **combination of
//! multiple matchers**.
//!
//! * [`cube`](SimCube) — the `k × m × n` similarity cube produced by executing `k`
//!   matchers on a match task (Section 3);
//! * [`matchers`] — the extensible matcher library (Section 4): simple
//!   matchers (`Affix`, `Digram`/`Trigram`, `EditDistance`, `Soundex`,
//!   `Synonym`, `DataType`, `UserFeedback`) and hybrid matchers (`Name`,
//!   `NamePath`, `TypeName`, `Children`, `Leaves`) with their Table 4
//!   default construction;
//! * [`combine`] — the combination framework (Section 6): aggregation,
//!   match direction, candidate selection, combined similarity;
//! * [`reuse`] — the MatchCompose operation and the reuse-oriented
//!   `Schema` (`SchemaM`/`SchemaA`) and `Fragment` matchers (Section 5);
//! * [`process`] — match processing (Figure 2): the [`Coma`] system type,
//!   automatic match operations, and interactive [`MatchSession`]s with
//!   user feedback;
//! * [`engine`] — the composable [`MatchPlan`] operator tree
//!   (`Matchers` / `CandidateIndex` / `Seq` / `Par` / `Filter` / `TopK` /
//!   `Iterate` / `Reuse`) and its execution engine: parallel leaf
//!   fan-out, memoized shared work, staged filter-then-refine processes,
//!   inverted-index candidate generation, top-k pruning with a sparse
//!   execution path, and iterative refinement.
//!
//! ```
//! use coma_core::{Coma, MatchStrategy};
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
//! let mut coma = Coma::new();
//! coma.aux_mut().synonyms.add_synonym("customer", "buyer");
//! let outcome = coma
//!     .match_schemas(&po1, &po2, &MatchStrategy::paper_default())
//!     .unwrap();
//! assert!(!outcome.result.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod combine;
pub mod cube;
pub mod engine;
mod error;
pub mod matchers;
pub mod plans;
pub mod process;
mod result;
pub mod reuse;

pub use combine::{
    stable_marriage, Aggregation, CombinationStrategy, CombinedSim, DirectedCandidates, Direction,
    Selection,
};
pub use cube::{SimCube, SimMatrix, SparseBuilder, StorageMode};
pub use engine::{
    human_bytes, schema_fingerprint, shard_ranges, CacheStats, CandidateParams, CandidateScorer,
    EngineCache, EngineConfig, IndexStats, MatchMemo, MatchPlan, NodeFacts, PairMask, PlanAnalysis,
    PlanAnalyzer, PlanDiagnostic, PlanEngine, PlanError, PlanErrorKind, PlanOutcome, SchemaStats,
    ScopeWarmth, Severity, StageOutcome, TaskStats, TopKPer, Tri, VocabIndex,
};
pub use error::{CoreError, Result};
pub use matchers::{Auxiliary, MatchContext, Matcher, MatcherLibrary};
pub use process::{
    combine_cube_with_feedback, stored_cube, Coma, MatchOutcome, MatchSession, MatchStrategy,
    ALL_HYBRIDS,
};
pub use result::{MatchCandidate, MatchResult};
pub use reuse::{
    match_compose, ComposeCombine, FragmentMatcher, ReusePathStats, ReuseResolution, ReuseResolver,
    ReuseStats, SchemaMatcher,
};
