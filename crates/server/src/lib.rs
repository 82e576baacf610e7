//! # coma-server — matching as a service
//!
//! COMA's defining idea beyond matcher combination is the *repository*:
//! schemas and match results stored for reuse across runs (paper,
//! Section 1). This crate puts a long-running service in front of the
//! engine so that reuse actually spans processes and clients:
//!
//! * **Transport** — a unix socket carrying length-prefixed JSON frames
//!   ([`protocol`]): offline-friendly, no network stack, framed so
//!   message boundaries are explicit.
//! * **Persistence** — the repository lives behind a
//!   [`coma_repo::RepositoryBackend`] (a JSON snapshot plus an
//!   append-only, checksummed log: each write appends and fsyncs one
//!   frame), loaded at startup: schemas stored by one server process are
//!   served by the next.
//! * **Concurrency** — one scoped thread per connection over one shared
//!   [`ServerState`]; stored schemas are handed out as shared
//!   `Arc<Schema>` allocations, and the engine row-shards big stages
//!   across its own threads.
//! * **Prepared schemas** — a stored schema's paths, content
//!   fingerprint and schema-side task statistics
//!   ([`coma_core::SchemaStats`]) are computed once, at its first match,
//!   and replaced when `PutSchema` stores new content under its name.
//! * **Cross-request memo** — every tenant owns a
//!   [`coma_core::EngineCache`]: tokenizations, full pure matcher
//!   matrices and vocabulary indexes are keyed by schema *content
//!   fingerprint* (the per-execution `MatchMemo` is a view over this
//!   cache). A repeat of a plan that cannot depend on the repository (no
//!   `Reuse` plan, no reuse matcher) is answered from the final result
//!   the cache kept for the schema pair and executes nothing; the cache
//!   keeps at most a few results per pair, under its pair bound, and
//!   counts them as `result_hits`/`result_misses` in
//!   [`coma_core::CacheStats`].
//!
//! The binary (`coma-server --socket PATH [--store FILE]`) serves until
//! a `Shutdown` request; `coma-cli --server PATH …` is the matching
//! client.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
mod server;
mod state;

pub use client::Client;
pub use protocol::{
    InlineSchema, MatchConfig, MatchRequest, MatchResponse, PlanSpec, RankedCorrespondence,
    Request, Response, ReuseSpec, SchemaFormat, SchemaInfo, SchemaRef, ServerStats,
};
pub use server::Server;
pub use state::{ServerState, TenantState};
