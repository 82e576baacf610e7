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
//! * **Cross-request memo** — every tenant owns a
//!   [`coma_core::EngineCache`]: tokenizations, name-pair similarity
//!   tables, pure matcher matrices and vocabulary indexes are keyed by
//!   schema *content fingerprint*, so repeat traffic against a hot
//!   schema pair skips recomputation entirely (the per-execution
//!   `MatchMemo` is a view over this cache).
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
