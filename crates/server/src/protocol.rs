//! The wire protocol: request/response types and length-prefixed JSON
//! framing.
//!
//! Transport framing is deliberately trivial: every message is a 4-byte
//! big-endian length followed by that many bytes of JSON (the serde
//! shim's serialization of the [`Request`]/[`Response`] enums). Length
//! prefixes make message boundaries explicit — no sniffing for balanced
//! braces on a stream — and a [`MAX_FRAME_BYTES`] cap keeps a corrupt or
//! hostile peer from making the server allocate unboundedly.
//!
//! Every type here is shaped for the serde *derive shim* (named-field
//! structs plus unit/tuple enum variants; no struct variants, no
//! generics), so the whole protocol round-trips through the offline
//! serde stand-ins.

use coma_core::{CacheStats, ComposeCombine, MatchStrategy};
use coma_repo::MappingKind;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Upper bound on one frame's payload (64 MiB) — large enough for a
/// serialized multi-thousand-node schema, small enough to bound a
/// malformed length prefix.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Payload bytes a frame must deliver before [`read_message`] reserves
/// the rest of its declared length.
const FIRST_CHUNK_BYTES: usize = 8 * 1024;

/// A schema sent inline with a request, as source text in one of the
/// supported frontends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InlineSchema {
    /// Name the schema is known by (repository key, mapping label).
    pub name: String,
    /// Which frontend parses `text`.
    pub format: SchemaFormat,
    /// The schema source (XSD document or SQL DDL).
    pub text: String,
}

/// The schema frontends the service can parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemaFormat {
    /// XML Schema (XSD).
    Xsd,
    /// SQL DDL (`CREATE TABLE` statements).
    Sql,
}

/// One side of a match task: either a schema already stored in the
/// repository (by name) or one shipped inline with the request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchemaRef {
    /// A schema stored earlier via [`Request::PutSchema`] (or persisted
    /// by a previous server process).
    Stored(String),
    /// A schema carried by the request itself.
    Inline(InlineSchema),
}

/// Parameters of a [`PlanSpec::Reuse`] request: answer the match task
/// from the server repository's stored mappings by composing pivot
/// chains, instead of matching fresh.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReuseSpec {
    /// Restricts which stored mappings qualify (`None` = all).
    pub kind: Option<MappingKind>,
    /// Transitive-similarity combination along each chain.
    pub compose: ComposeCombine,
    /// Maximum stored mappings per pivot chain (must be ≥ 2).
    pub max_hops: u64,
}

impl Default for ReuseSpec {
    fn default() -> Self {
        ReuseSpec {
            kind: None,
            compose: ComposeCombine::Average,
            max_hops: 3,
        }
    }
}

/// Which staged plan the engine runs — the wire-level mirror of
/// [`coma_core::plans`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanSpec {
    /// The paper-default flat strategy (all hybrid matchers, one stage).
    Default,
    /// An explicit flat strategy: matcher names plus combination.
    Flat(MatchStrategy),
    /// The liberal-`Name` TopK(k) prefilter → paper-default refine.
    TopKPruned(usize),
    /// Inverted-index retrieval (capped per element) → masked re-rank →
    /// paper-default refine.
    CandidateIndex(usize),
    /// Pivot-based reuse from the server's stored-mapping graph. When no
    /// pivot path connects the two sides the server falls back to fresh
    /// matching with the Default plan and flags it in the response
    /// (`reused: Some(false)`) — a miss is an answer, not an error.
    Reuse(ReuseSpec),
}

/// Engine tuning carried by a match request: the four switches the
/// server sets on a [`coma_core::EngineConfig`]. A frame must carry every
/// field, `shards` too (as `null` for automatic sharding); nothing falls
/// back to a default. [`MatchConfig::default`] is not
/// `EngineConfig::default()`: it turns streaming-fused pruning off, so a
/// request built from it runs prunable stages unfused.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchConfig {
    /// Parallel (row-sharded) execution.
    pub parallel: bool,
    /// Sparse (CSR) storage for pruned stages.
    pub sparse: bool,
    /// Forced shard count (`None` = automatic).
    pub shards: Option<usize>,
    /// Streaming-fused pruning of unrestricted prunable stages.
    pub fuse_pruning: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            parallel: true,
            sparse: true,
            shards: None,
            fuse_pruning: false,
        }
    }
}

/// A match task: resolve both sides, run the plan, return ranked
/// correspondences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchRequest {
    /// Tenant whose cross-request cache (and stats) the task uses.
    pub tenant: String,
    /// Source schema S1.
    pub source: SchemaRef,
    /// Target schema S2.
    pub target: SchemaRef,
    /// The staged plan to run.
    pub plan: PlanSpec,
    /// Engine tuning.
    pub config: MatchConfig,
    /// Store the resulting mapping in the repository (keyed replace:
    /// re-matching a pair updates the stored automatic result).
    pub store: bool,
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Parse and persist a schema: (tenant, schema).
    PutSchema(String, InlineSchema),
    /// Describe a stored schema: (tenant, name).
    GetSchema(String, String),
    /// Names of all stored schemas: (tenant).
    ListSchemas(String),
    /// Run a match task.
    Match(MatchRequest),
    /// Tenant statistics: (tenant).
    Stats(String),
    /// Persist the repository now.
    Flush,
    /// Stop accepting connections and exit once in-flight sessions end.
    Shutdown,
}

/// Summary of a stored schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaInfo {
    /// Repository key.
    pub name: String,
    /// Node count.
    pub nodes: u64,
    /// Path (match-object) count.
    pub paths: u64,
}

/// One static plan-analysis finding, on the wire. Mirrors
/// [`coma_core::PlanDiagnostic`] with the severity as a plain string
/// (`"error"` / `"warn"` / `"note"`) so the frame stays readable without
/// the core crate's enums.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireDiagnostic {
    /// `"error"`, `"warn"` or `"note"`.
    pub severity: String,
    /// Stable machine-readable code (`E_*` / `W_*` / `N_*`).
    pub code: String,
    /// Node path in the plan tree, e.g. `Seq[1].TopK`.
    pub node_path: String,
    /// Human-readable explanation.
    pub message: String,
}

impl WireDiagnostic {
    /// Converts a core diagnostic to its wire form.
    pub fn from_core(d: &coma_core::PlanDiagnostic) -> WireDiagnostic {
        WireDiagnostic {
            severity: d.severity.to_string(),
            code: d.code.clone(),
            node_path: d.node_path.clone(),
            message: d.message.clone(),
        }
    }
}

/// One ranked correspondence of a match response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedCorrespondence {
    /// Full dotted source path.
    pub source_path: String,
    /// Full dotted target path.
    pub target_path: String,
    /// Combined similarity in `[0, 1]`.
    pub similarity: f64,
}

/// The result of a match task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchResponse {
    /// Source schema name.
    pub source: String,
    /// Target schema name.
    pub target: String,
    /// Correspondences, best first (ties broken by path order).
    pub correspondences: Vec<RankedCorrespondence>,
    /// Server-side wall time of the plan execution, in microseconds.
    pub elapsed_micros: u64,
    /// The tenant cache's counters after this request — lets clients
    /// observe cross-request memo hits.
    pub cache: CacheStats,
    /// For [`PlanSpec::Reuse`] requests: `Some(true)` when the result
    /// was composed from stored mappings, `Some(false)` when no pivot
    /// path existed and the server fell back to fresh matching. `None`
    /// for every other plan kind.
    pub reused: Option<bool>,
    /// The chosen pivot path (`->`-joined pivot names) when
    /// `reused == Some(true)`; `None` otherwise.
    pub reuse_path: Option<String>,
    /// Non-fatal findings of the pre-execution plan analysis (warnings
    /// and notes; a plan with errors is rejected with
    /// [`Response::InvalidPlan`] instead and never executes).
    pub diagnostics: Vec<WireDiagnostic>,
}

/// Tenant statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// The tenant these stats describe.
    pub tenant: String,
    /// Stored schemas (repository-wide).
    pub schemas: u64,
    /// Stored mappings (repository-wide).
    pub mappings: u64,
    /// Stored cubes (repository-wide).
    pub cubes: u64,
    /// Requests served for this tenant.
    pub requests: u64,
    /// The tenant's cross-request cache counters.
    pub cache: CacheStats,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// The schema was parsed and persisted.
    SchemaStored(SchemaInfo),
    /// A stored schema's summary.
    Schema(SchemaInfo),
    /// Stored schema names, sorted.
    Schemas(Vec<String>),
    /// A match task's result.
    Matched(MatchResponse),
    /// Tenant statistics.
    Stats(ServerStats),
    /// The repository was persisted.
    Flushed,
    /// The server is shutting down.
    ShuttingDown,
    /// The request failed; the payload says why.
    Error(String),
    /// The match request's plan failed static analysis and was not
    /// executed; the payload carries every diagnostic (at least one of
    /// severity `"error"`), each pinned to a plan node path.
    InvalidPlan(Vec<WireDiagnostic>),
}

/// Writes one length-prefixed JSON frame.
pub fn write_message<T: Serialize>(w: &mut impl Write, message: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(message)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let len = u32::try_from(json.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "frame exceeds MAX_FRAME_BYTES",
            )
        })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(json.as_bytes())?;
    w.flush()
}

/// Reads one length-prefixed JSON frame; `Ok(None)` on clean EOF (the
/// peer closed between messages).
pub fn read_message<T: Deserialize>(r: &mut impl Read) -> std::io::Result<Option<T>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME_BYTES"),
        ));
    }
    // The buffer grows with the bytes that arrive: a peer that declares
    // a large frame and then stalls or hangs up costs one first chunk,
    // not the declared length.
    let len = len as usize;
    let first = len.min(FIRST_CHUNK_BYTES);
    let mut payload = vec![0u8; first];
    r.read_exact(&mut payload)?;
    payload.resize(len, 0);
    r.read_exact(&mut payload[first..])?;
    let json = String::from_utf8(payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let value = serde_json::from_str(&json)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Some(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: &Request) {
        let mut buf = Vec::new();
        write_message(&mut buf, req).unwrap();
        let back: Request = read_message(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(&back, req);
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        roundtrip(&Request::Ping);
        roundtrip(&Request::PutSchema(
            "acme".into(),
            InlineSchema {
                name: "PO".into(),
                format: SchemaFormat::Sql,
                text: "CREATE TABLE po (id INT);".into(),
            },
        ));
        roundtrip(&Request::GetSchema("acme".into(), "PO".into()));
        roundtrip(&Request::ListSchemas("acme".into()));
        roundtrip(&Request::Match(MatchRequest {
            tenant: "acme".into(),
            source: SchemaRef::Stored("PO".into()),
            target: SchemaRef::Inline(InlineSchema {
                name: "PO2".into(),
                format: SchemaFormat::Xsd,
                text: "<schema/>".into(),
            }),
            plan: PlanSpec::TopKPruned(5),
            config: MatchConfig {
                shards: Some(2),
                ..MatchConfig::default()
            },
            store: true,
        }));
        roundtrip(&Request::Match(MatchRequest {
            tenant: "acme".into(),
            source: SchemaRef::Stored("A".into()),
            target: SchemaRef::Stored("B".into()),
            plan: PlanSpec::Flat(MatchStrategy::paper_default()),
            config: MatchConfig::default(),
            store: false,
        }));
        roundtrip(&Request::Match(MatchRequest {
            tenant: "acme".into(),
            source: SchemaRef::Stored("A".into()),
            target: SchemaRef::Stored("B".into()),
            plan: PlanSpec::Reuse(ReuseSpec {
                kind: Some(MappingKind::Manual),
                compose: ComposeCombine::Average,
                max_hops: 3,
            }),
            config: MatchConfig::default(),
            store: false,
        }));
        roundtrip(&Request::Match(MatchRequest {
            tenant: "acme".into(),
            source: SchemaRef::Stored("A".into()),
            target: SchemaRef::Stored("B".into()),
            plan: PlanSpec::Reuse(ReuseSpec::default()),
            config: MatchConfig::default(),
            store: false,
        }));
        roundtrip(&Request::Stats("acme".into()));
        roundtrip(&Request::Flush);
        roundtrip(&Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip_through_frames() {
        let responses = [
            Response::Pong,
            Response::Schema(SchemaInfo {
                name: "PO".into(),
                nodes: 12,
                paths: 15,
            }),
            Response::Schemas(vec!["A".into(), "B".into()]),
            Response::Matched(MatchResponse {
                source: "A".into(),
                target: "B".into(),
                correspondences: vec![RankedCorrespondence {
                    source_path: "A.x".into(),
                    target_path: "B.y".into(),
                    similarity: 0.81,
                }],
                elapsed_micros: 1234,
                cache: coma_core::CacheStats::default(),
                reused: None,
                reuse_path: None,
                diagnostics: Vec::new(),
            }),
            Response::Matched(MatchResponse {
                source: "A".into(),
                target: "B".into(),
                correspondences: Vec::new(),
                elapsed_micros: 99,
                cache: coma_core::CacheStats::default(),
                reused: Some(true),
                reuse_path: Some("P->Q".into()),
                diagnostics: vec![WireDiagnostic {
                    severity: "warn".into(),
                    code: "W_REUSE_NO_PATH".into(),
                    node_path: "Reuse".into(),
                    message: "no pivot chain".into(),
                }],
            }),
            Response::InvalidPlan(vec![WireDiagnostic {
                severity: "error".into(),
                code: "E_TOPK_ZERO".into(),
                node_path: "Seq[0].TopK".into(),
                message: "`TopK` with k = 0 drops every pair".into(),
            }]),
            Response::Flushed,
            Response::ShuttingDown,
            Response::Error("boom".into()),
        ];
        for resp in &responses {
            let mut buf = Vec::new();
            write_message(&mut buf, resp).unwrap();
            let back: Response = read_message(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(&back, resp);
        }
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        buf.extend_from_slice(b"xx");
        assert!(read_message::<Request>(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn eof_between_messages_is_clean() {
        let empty: &[u8] = &[];
        assert!(read_message::<Request>(&mut &*empty).unwrap().is_none());
    }
}
