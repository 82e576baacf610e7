//! # coma-repo — repository substrate for COMA
//!
//! "The flexibility of COMA is made possible by the use of a DBMS-based
//! repository for storing schemas, intermediate similarity results of
//! individual matchers, and complete (possibly user-confirmed) match results
//! for later reuse" (paper, Section 1).
//!
//! This crate is that repository, embedded: typed stores for
//!
//! * **schemas** ([`Repository::put_schema`]),
//! * **mappings** in the relational representation of Figure 3c — one tuple
//!   per 1:1 correspondence with its similarity ([`Mapping`]),
//! * **similarity cubes** produced by matcher executions ([`StoredCube`]),
//!
//! plus the queries the reuse matchers need: [`Repository::mappings_between`]
//! and [`Repository::pivot_paths`] (the "search repository" step of
//! Figure 5, generalized to chains of pivots), and the natural-join
//! primitive [`Mapping::compose`] that underlies the MatchCompose
//! operation (Section 5.1).
//!
//! Persistence is pluggable behind [`RepositoryBackend`] — the embedded
//! stand-in for the paper's external DBMS (see the "Repository backends"
//! paragraph of `ARCHITECTURE.md` at the repository root):
//! [`MemoryBackend`] for in-process stores, [`FileBackend`] for a
//! human-readable JSON snapshot plus an append-only log of the
//! [`Mutation`]s made since (a checkpoint and a log, as in a DBMS), and
//! [`PersistentRepository`] as the thread-safe write-through handle the
//! long-running `coma-server` serves requests from. The plain
//! [`Repository::save`] / [`Repository::load`] convenience pair reads and
//! writes the same files for one-shot use.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod cube;
mod mapping;
mod store;

pub use backend::{FileBackend, MemoryBackend, PersistentRepository, RepositoryBackend};
pub use cube::StoredCube;
pub use mapping::{compose_oriented, Correspondence, Mapping, MappingKind};
pub use store::{
    shared, Mutation, PivotChain, PivotPath, Repository, RepositoryError, SharedRepository,
};
