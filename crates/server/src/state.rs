//! Shared server state and request dispatch.
//!
//! One [`ServerState`] serves every connection: the matcher library and
//! auxiliary tables (shared, immutable for the server's life — the
//! stability the cross-request caches require), the persistent
//! repository behind its `RwLock`, a bounded hot working set of stored
//! schemas (each an `Arc<Schema>` that concurrent sessions share,
//! prepared for matching at its first match), and one [`EngineCache`]
//! per tenant.
//! Request dispatch is synchronous: the connection thread that read the
//! frame runs the match (the plan engine row-shards big stages across
//! its own scoped threads).

use crate::protocol::{
    InlineSchema, MatchConfig, MatchRequest, MatchResponse, PlanSpec, RankedCorrespondence,
    Request, Response, SchemaFormat, SchemaInfo, SchemaRef, ServerStats, WireDiagnostic,
};
use coma_core::{
    plans, schema_fingerprint, Auxiliary, EngineCache, EngineConfig, MatchContext, MatchMemo,
    MatchPlan, MatchStrategy, MatcherLibrary, PlanAnalyzer, PlanEngine, SchemaStats, TaskStats,
};
use coma_graph::{PathSet, Schema};
use coma_repo::{MappingKind, PersistentRepository, RepositoryBackend};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One side of a match: a schema and, once computed, what matching it
/// needs from it alone.
struct Side {
    schema: Arc<Schema>,
    prepared: OnceLock<Prepared>,
    /// The server's use clock at this side's last use as a hot entry.
    used: AtomicU64,
}

/// A schema prepared for matching: its paths, its content fingerprint
/// and the schema-side half of the analyzer's task statistics.
struct Prepared {
    paths: PathSet,
    fingerprint: u64,
    stats: SchemaStats,
}

impl Side {
    fn new(schema: Schema) -> Side {
        Side {
            schema: Arc::new(schema),
            prepared: OnceLock::new(),
            used: AtomicU64::new(0),
        }
    }

    /// The prepared form, computed by the first caller (concurrent first
    /// callers may each compute it; one result is kept).
    fn prepared(&self, aux: &Auxiliary) -> Result<&Prepared, String> {
        if let Some(prepared) = self.prepared.get() {
            return Ok(prepared);
        }
        let paths = PathSet::new(&self.schema).map_err(|e| e.to_string())?;
        let prepared = Prepared {
            fingerprint: schema_fingerprint(&self.schema, &paths),
            stats: SchemaStats::of(&self.schema, &paths, aux),
            paths,
        };
        Ok(self.prepared.get_or_init(|| prepared))
    }
}

/// Per-tenant state: the cross-request cache and a request counter.
pub struct TenantState {
    /// The tenant's cross-request engine cache.
    pub cache: Arc<EngineCache>,
    requests: AtomicU64,
}

impl TenantState {
    fn new(cache_pairs: usize) -> TenantState {
        TenantState {
            cache: Arc::new(EngineCache::with_capacity(cache_pairs)),
            requests: AtomicU64::new(0),
        }
    }
}

/// Everything one server process shares across its sessions.
pub struct ServerState {
    library: MatcherLibrary,
    aux: Auxiliary,
    repo: PersistentRepository,
    /// Hot working set: schema name → the stored schema, prepared at its
    /// first match. Every write that stores a schema (`PutSchema`, or an
    /// inline side of a `store: true` match) replaces its entry, so a
    /// name's prepared form always belongs to the content stored under it.
    /// It holds at most `2 × cache_pairs` names: admitting one more
    /// evicts the least recently used, which its next use reloads from
    /// the repository and prepares again.
    schemas: RwLock<HashMap<String, Arc<Side>>>,
    /// Ticks at every use of a hot entry; orders them for eviction.
    clock: AtomicU64,
    tenants: RwLock<HashMap<String, Arc<TenantState>>>,
    cache_pairs: usize,
    shutdown: AtomicBool,
}

impl ServerState {
    /// State over a repository backend, with the standard matcher
    /// library and auxiliary tables and per-tenant caches bounded to
    /// `cache_pairs` schema-pair scopes. Loads the persisted repository
    /// (so a restarted server resumes where the last one stopped).
    pub fn open(
        backend: impl RepositoryBackend + 'static,
        cache_pairs: usize,
    ) -> Result<ServerState, coma_repo::RepositoryError> {
        Ok(ServerState {
            library: MatcherLibrary::standard(),
            aux: Auxiliary::standard(),
            repo: PersistentRepository::open(backend)?,
            schemas: RwLock::default(),
            clock: AtomicU64::new(0),
            tenants: RwLock::default(),
            cache_pairs: cache_pairs.max(1),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Whether a `Shutdown` request has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The persistent repository handle.
    pub fn repository(&self) -> &PersistentRepository {
        &self.repo
    }

    /// Marks a hot entry used now and returns a handle to it. The stamp
    /// only orders entries for eviction and guards no other data, so
    /// relaxed atomics suffice.
    fn touch(&self, side: &Arc<Side>) -> Arc<Side> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        side.used.store(now, Ordering::Relaxed);
        Arc::clone(side)
    }

    /// Evicts the least recently used hot entries beyond the cap.
    fn evict(&self, hot: &mut HashMap<String, Arc<Side>>) {
        while hot.len() > 2 * self.cache_pairs {
            let oldest = hot
                .iter()
                .min_by_key(|(_, side)| side.used.load(Ordering::Relaxed))
                .map(|(name, _)| name.clone());
            let Some(name) = oldest else { break };
            hot.remove(&name);
        }
    }

    fn tenant(&self, name: &str) -> Arc<TenantState> {
        if let Some(t) = self.tenants.read().get(name) {
            return Arc::clone(t);
        }
        Arc::clone(
            self.tenants
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(TenantState::new(self.cache_pairs))),
        )
    }

    /// Handles one request. Never panics on malformed input — failures
    /// become [`Response::Error`] so the session survives.
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::PutSchema(tenant, schema) => self.put_schema(&tenant, &schema),
            Request::GetSchema(tenant, name) => self.get_schema(&tenant, &name),
            Request::ListSchemas(tenant) => {
                self.tenant(&tenant)
                    .requests
                    .fetch_add(1, Ordering::Relaxed);
                let names = self
                    .repo
                    .read()
                    .schema_names()
                    .into_iter()
                    .map(str::to_string)
                    .collect();
                Response::Schemas(names)
            }
            Request::Match(req) => self.run_match(&req),
            Request::Stats(tenant) => self.stats(&tenant),
            Request::Flush => match self.repo.flush() {
                Ok(()) => Response::Flushed,
                Err(e) => Response::Error(e.to_string()),
            },
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
        }
    }

    fn parse_inline(schema: &InlineSchema) -> Result<Schema, String> {
        match schema.format {
            SchemaFormat::Xsd => coma_xml::import_xsd(&schema.text, &schema.name)
                .map_err(|e| format!("XSD import of {:?} failed: {e}", schema.name)),
            SchemaFormat::Sql => coma_sql::import_ddl(&schema.text, &schema.name)
                .map_err(|e| format!("DDL import of {:?} failed: {e}", schema.name)),
        }
    }

    fn info(schema: &Schema) -> Result<SchemaInfo, String> {
        let paths = PathSet::new(schema).map_err(|e| e.to_string())?;
        Ok(SchemaInfo {
            name: schema.name().to_string(),
            nodes: schema.node_count() as u64,
            paths: paths.len() as u64,
        })
    }

    fn put_schema(&self, tenant: &str, inline: &InlineSchema) -> Response {
        self.tenant(tenant).requests.fetch_add(1, Ordering::Relaxed);
        let schema = match Self::parse_inline(inline) {
            Ok(s) => s,
            Err(e) => return Response::Error(e),
        };
        let info = match Self::info(&schema) {
            Ok(i) => i,
            Err(e) => return Response::Error(e),
        };
        let side = Arc::new(Side::new(schema));
        if let Err(e) = self.repo.mutate(|r| r.put_schema((*side.schema).clone())) {
            return Response::Error(e.to_string());
        }
        let mut hot = self.schemas.write();
        hot.insert(info.name.clone(), self.touch(&side));
        self.evict(&mut hot);
        Response::SchemaStored(info)
    }

    fn get_schema(&self, tenant: &str, name: &str) -> Response {
        self.tenant(tenant).requests.fetch_add(1, Ordering::Relaxed);
        match self.resolve_stored(name) {
            Ok(side) => match Self::info(&side.schema) {
                Ok(info) => Response::Schema(info),
                Err(e) => Response::Error(e),
            },
            Err(e) => Response::Error(e),
        }
    }

    /// A stored schema's hot entry, loading the schema from the
    /// repository into the hot working set on first use.
    fn resolve_stored(&self, name: &str) -> Result<Arc<Side>, String> {
        if let Some(hit) = self.schemas.read().get(name) {
            return Ok(self.touch(hit));
        }
        let loaded = self
            .repo
            .read()
            .schema(name)
            .cloned()
            .ok_or_else(|| format!("no stored schema named {name:?}"))?;
        let mut hot = self.schemas.write();
        let side = hot
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Side::new(loaded)));
        let side = self.touch(side);
        self.evict(&mut hot);
        Ok(side)
    }

    /// A match side: a stored schema's shared hot entry, or a fresh one
    /// for an inline schema, prepared for this request only.
    fn resolve(&self, side: &SchemaRef) -> Result<Arc<Side>, String> {
        match side {
            SchemaRef::Stored(name) => self.resolve_stored(name),
            SchemaRef::Inline(inline) => Self::parse_inline(inline).map(|s| Arc::new(Side::new(s))),
        }
    }

    /// Builds the plan a spec describes *without* validating its shape:
    /// degenerate parameters (`TopKPruned(0)`, a too-short reuse hop
    /// budget) survive construction so the pre-execution analyzer can
    /// reject them with structured diagnostics carrying real node paths,
    /// instead of a flat error string losing the position.
    fn plan_of(spec: &PlanSpec) -> MatchPlan {
        match spec {
            PlanSpec::Default => MatchPlan::from(&MatchStrategy::paper_default()),
            PlanSpec::Flat(strategy) => MatchPlan::from(strategy),
            PlanSpec::TopKPruned(k) => plans::topk_pruned_plan_raw(*k),
            PlanSpec::CandidateIndex(cap) => plans::candidate_index_plan_raw(*cap),
            PlanSpec::Reuse(spec) => MatchPlan::Reuse {
                kind: spec.kind,
                compose: spec.compose,
                max_hops: spec.max_hops as usize,
                combination: coma_core::CombinationStrategy::paper_default(),
            },
        }
    }

    fn engine_config(config: &MatchConfig) -> EngineConfig {
        let mut cfg = EngineConfig::default()
            .with_parallel(config.parallel)
            .with_sparse(config.sparse)
            .with_fuse_pruning(config.fuse_pruning);
        if let Some(shards) = config.shards {
            cfg = cfg.with_shards(shards);
        }
        cfg
    }

    fn run_match(&self, req: &MatchRequest) -> Response {
        let tenant = self.tenant(&req.tenant);
        tenant.requests.fetch_add(1, Ordering::Relaxed);
        let (source, target) = match (self.resolve(&req.source), self.resolve(&req.target)) {
            (Ok(s), Ok(t)) => (s, t),
            (Err(e), _) | (_, Err(e)) => return Response::Error(e),
        };
        let plan = Self::plan_of(&req.plan);
        let cfg = Self::engine_config(&req.config);

        let started = Instant::now();
        // Outside the repository lock: a stored schema is prepared once,
        // at its first match; an inline one for this request.
        let (sp, tp) = match (source.prepared(&self.aux), target.prepared(&self.aux)) {
            (Ok(s), Ok(t)) => (s, t),
            (Err(e), _) | (_, Err(e)) => return Response::Error(e),
        };
        // The read guard spans the execution so reuse matchers see a
        // consistent repository snapshot; writers (PutSchema / store)
        // wait for in-flight matches, readers do not.
        let is_reuse = matches!(req.plan, PlanSpec::Reuse(_));
        let (mapping, reused, reuse_path, diagnostics) = {
            let repo = self.repo.read();
            let ctx = MatchContext::new(
                &source.schema,
                &target.schema,
                &sp.paths,
                &tp.paths,
                &self.aux,
            )
            .with_repository(&repo);
            // Pre-execution static analysis against the resolved engine
            // config and the tenant's cross-request cache: a plan with
            // error diagnostics never executes; warnings and notes ride
            // along in the response.
            let task_stats = TaskStats::from_sides(&ctx, &sp.stats, &tp.stats);
            let analysis = PlanAnalyzer::new(&self.library, cfg.clone()).analyze_with_cache(
                &plan,
                &task_stats,
                &tenant.cache,
                sp.fingerprint,
                tp.fingerprint,
            );
            if analysis.has_errors() {
                return Response::InvalidPlan(
                    analysis
                        .diagnostics
                        .iter()
                        .map(WireDiagnostic::from_core)
                        .collect(),
                );
            }
            let diagnostics: Vec<WireDiagnostic> = analysis
                .diagnostics
                .iter()
                .map(WireDiagnostic::from_core)
                .collect();
            let engine = PlanEngine::with_config(&self.library, cfg);
            let memo = MatchMemo::scoped(&tenant.cache, sp.fingerprint, tp.fingerprint);
            let answered = if is_reuse {
                engine
                    .execute_with_memo(&ctx, &plan, &memo)
                    .and_then(|outcome| {
                        let chosen_path = outcome
                            .stages
                            .last()
                            .and_then(|s| s.reuse_stats.as_ref())
                            .and_then(|s| s.paths.first())
                            .map(|p| p.via.clone());
                        match chosen_path {
                            Some(via) => Ok((Arc::new(outcome.result), Some(true), Some(via))),
                            // No pivot path connects the two sides: fall back
                            // to fresh matching with the Default plan. The
                            // response flags the miss (`reused: Some(false)`)
                            // — it is an answer, not an error.
                            None => engine
                                .execute_result(&ctx, &Self::plan_of(&PlanSpec::Default), &memo)
                                .map(|result| (result, Some(false), None)),
                        }
                    })
            } else {
                engine
                    .execute_result(&ctx, &plan, &memo)
                    .map(|result| (result, None, None))
            };
            let (result, reused, reuse_path) = match answered {
                Ok(answer) => answer,
                Err(e) => return Response::Error(e.to_string()),
            };
            (
                result.to_mapping(&ctx, MappingKind::Automatic),
                reused,
                reuse_path,
                diagnostics,
            )
        };
        let elapsed_micros = started.elapsed().as_micros() as u64;

        if req.store {
            let stored = mapping.clone();
            let source_schema = (*source.schema).clone();
            let target_schema = (*target.schema).clone();
            if let Err(e) = self.repo.mutate(move |r| {
                r.put_schema(source_schema);
                r.put_schema(target_schema);
                r.put_mapping(stored);
            }) {
                return Response::Error(e.to_string());
            }
            // An inline side's content is now what its name stores: it
            // replaces the hot entry, as `PutSchema` does.
            let mut hot = self.schemas.write();
            for (side, sent) in [(&source, &req.source), (&target, &req.target)] {
                if let SchemaRef::Inline(_) = sent {
                    hot.insert(side.schema.name().to_string(), self.touch(side));
                }
            }
            self.evict(&mut hot);
        }

        let mut correspondences: Vec<RankedCorrespondence> = mapping
            .correspondences
            .iter()
            .map(|c| RankedCorrespondence {
                source_path: c.source.clone(),
                target_path: c.target.clone(),
                similarity: c.similarity,
            })
            .collect();
        correspondences.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.source_path.cmp(&b.source_path))
                .then_with(|| a.target_path.cmp(&b.target_path))
        });

        Response::Matched(MatchResponse {
            source: source.schema.name().to_string(),
            target: target.schema.name().to_string(),
            correspondences,
            elapsed_micros,
            cache: tenant.cache.stats(),
            reused,
            reuse_path,
            diagnostics,
        })
    }

    fn stats(&self, tenant_name: &str) -> Response {
        let tenant = self.tenant(tenant_name);
        tenant.requests.fetch_add(1, Ordering::Relaxed);
        let repo = self.repo.read();
        Response::Stats(ServerStats {
            tenant: tenant_name.to_string(),
            schemas: repo.schema_count() as u64,
            mappings: repo.mappings().len() as u64,
            cubes: repo.cube_count() as u64,
            requests: tenant.requests.load(Ordering::Relaxed),
            cache: tenant.cache.stats(),
        })
    }
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("store", &self.repo.location())
            .field("tenants", &self.tenants.read().len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_repo::MemoryBackend;

    fn put(state: &ServerState, name: &str, column: &str) {
        let schema = InlineSchema {
            name: name.to_string(),
            format: SchemaFormat::Sql,
            text: format!("CREATE TABLE PO.Orders (orderNo INT, {column} VARCHAR(200));"),
        };
        let stored = state.handle(Request::PutSchema("t".to_string(), schema));
        assert!(matches!(stored, Response::SchemaStored(_)), "{stored:?}");
    }

    fn correspondences(
        state: &ServerState,
        source: &str,
        target: &str,
    ) -> Vec<RankedCorrespondence> {
        let request = Request::Match(MatchRequest {
            tenant: "t".to_string(),
            source: SchemaRef::Stored(source.to_string()),
            target: SchemaRef::Stored(target.to_string()),
            plan: PlanSpec::Default,
            config: MatchConfig::default(),
            store: false,
        });
        match state.handle(request) {
            Response::Matched(matched) => matched.correspondences,
            other => panic!("{source} ↔ {target}: {other:?}"),
        }
    }

    /// Matching more distinct stored schemas than the hot set holds keeps
    /// it within `2 × cache_pairs` names, and an evicted schema, reloaded
    /// and prepared again, answers exactly as it did the first time.
    #[test]
    fn the_hot_set_stays_bounded_and_reloads_evicted_schemas() {
        let state = ServerState::open(MemoryBackend::new(), 2).unwrap();
        let cap = 4;
        let columns = ["shipCity", "custName", "billZip", "itemPrice", "taxRate"];
        let names: Vec<String> = (0..10).map(|k| format!("S{k}")).collect();
        for (k, name) in names.iter().enumerate() {
            put(&state, name, columns[k % columns.len()]);
            assert!(state.schemas.read().len() <= cap);
        }
        let pairs: Vec<(&str, &str)> = names
            .iter()
            .zip(names.iter().rev())
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let first: Vec<Vec<RankedCorrespondence>> = pairs
            .iter()
            .map(|&(a, b)| correspondences(&state, a, b))
            .collect();
        assert!(first.iter().any(|c| !c.is_empty()));
        for _ in 0..2 {
            for (&(a, b), answer) in pairs.iter().zip(&first) {
                assert_eq!(&correspondences(&state, a, b), answer, "{a} ↔ {b}");
                assert!(state.schemas.read().len() <= cap);
            }
        }
    }
}
