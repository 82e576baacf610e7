//! The service workload `serve_write`: an in-process `coma-server` on
//! a unix socket in the run's scratch directory, over an fsyncing
//! [`FileBackend`] that set-up loads from a persisted base repository,
//! driven by two `Client` connections in a closed loop (each client sends
//! its next request only after the previous reply arrived).
//!
//! Each client works in its own schema namespace (so the repository
//! state each of its requests sees is deterministic) and cycles through
//! rounds of `PutSchema` (renamed corpus copies and generated DDL), cold
//! `store: true` matches, a `Reuse` match over the pivot those stored
//! mappings create, and warm repeat reads. Every write rewrites the whole
//! snapshot under the repository write lock; more than 32 pairs churn the
//! cache. Rounds reuse a few name slots, so the repository stops growing
//! after the first rounds and a faster server does not make its own
//! writes larger.
//!
//! Every response is checked against an in-process replica ([`Mirror`])
//! that runs the same public calls `ServerState::handle` makes —
//! importers, `PathSet::new`, `TaskStats::gather`, `analyze_with_cache`,
//! `execute_cached`, `mutate` — on its own repository and caches. The
//! traced run times those calls: internals cannot be timed through the
//! socket, so it replays the request stream in-process, through the real
//! `ServerState::handle` and through the replica with a span per call.

use crate::report::{host_steal_s, mean, median, quantile, ratio, set_windowed, Outcome, Window};
use crate::trace::{span_cost_ns, Recorder};
use crate::{time_setups, RunOptions};
use coma_bench::alloc_track::measure_peak;
use coma_bench::workload::SplitMix64;
use coma_core::{
    plans, schema_fingerprint, Auxiliary, CombinationStrategy, EngineCache, EngineConfig,
    MatchContext, MatchPlan, MatchStrategy, MatcherLibrary, PlanAnalyzer, PlanEngine,
    ReuseResolver, TaskStats,
};
use coma_eval::corpus::xsd_source;
use coma_eval::{Corpus, MatchQuality, SCHEMA_NAMES, TASKS};
use coma_graph::{PathSet, Schema};
use coma_repo::{
    FileBackend, Mapping, MappingKind, PersistentRepository, Repository, RepositoryBackend,
    RepositoryError,
};
use coma_server::protocol::{read_message, write_message};
use coma_server::{
    Client, InlineSchema, MatchConfig, MatchRequest, MatchResponse, PlanSpec, RankedCorrespondence,
    Request, Response, ReuseSpec, SchemaFormat, SchemaInfo, SchemaRef, Server, ServerState,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Concurrent client connections (the machine's core count on the
/// reference box; no workload uses more).
const CLIENTS: usize = 2;
/// The tenant cache bound the server runs with.
const CACHE_PAIRS: usize = 32;
/// Requests of one `serve_write` round (see [`Stream::write_round`]).
const ROUND_OPS: usize = 11;
/// Name slots a `serve_write` client cycles through: round `r` replaces
/// the schemas and mappings of round `r - WRITE_SLOTS`.
const WRITE_SLOTS: usize = 4;
/// The plan of every `serve_write` match except the reuse match.
const WRITE_PLAN: PlanSpec = PlanSpec::TopKPruned(5);

/// The leading requests of every client's stream, one round per corpus
/// triple, sent untimed while the peak heap is measured. `f1` and
/// `ok_share` are computed over them, so they depend on the seed only.
const LEAD_OPS: usize = TRIPLES * ROUND_OPS;

/// The 3-subsets of the five corpus schemas, in ascending order.
const TRIPLES: usize = 10;

fn triples() -> Vec<[usize; 3]> {
    let n = SCHEMA_NAMES.len();
    let mut out = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            for c in b + 1..n {
                out.push([a, b, c]);
            }
        }
    }
    debug_assert_eq!(out.len(), TRIPLES);
    out
}

/// Whether a request changes the repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
}

/// One request of a client's stream.
#[derive(Clone)]
struct Op {
    request: Request,
    kind: Kind,
    /// Full-name gold pairs when the request is a match with known gold.
    gold: Option<Arc<BTreeSet<(String, String)>>>,
}

fn match_request(tenant: &str, source: &str, target: &str, plan: PlanSpec, store: bool) -> Request {
    Request::Match(MatchRequest {
        tenant: tenant.to_string(),
        source: SchemaRef::Stored(source.to_string()),
        target: SchemaRef::Stored(target.to_string()),
        plan,
        config: MatchConfig::default(),
        store,
    })
}

fn put_request(tenant: &str, name: &str, format: SchemaFormat, text: &str) -> Request {
    Request::PutSchema(
        tenant.to_string(),
        InlineSchema {
            name: name.to_string(),
            format,
            text: text.to_string(),
        },
    )
}

/// Corpus gold of task `(i, j)` with the two roots renamed to `x`, `y`.
fn renamed_gold(
    corpus: &Corpus,
    i: usize,
    j: usize,
    x: &str,
    y: &str,
) -> BTreeSet<(String, String)> {
    let rename = |path: &str, from: &str, to: &str| match path.strip_prefix(from) {
        Some(rest) if rest.is_empty() || rest.starts_with('.') => format!("{to}{rest}"),
        _ => path.to_string(),
    };
    corpus
        .gold_names(i, j)
        .into_iter()
        .map(|(s, t)| {
            (
                rename(&s, SCHEMA_NAMES[i], x),
                rename(&t, SCHEMA_NAMES[j], y),
            )
        })
        .collect()
}

const DDL_ENTITIES: [&str; 12] = [
    "customer",
    "order",
    "invoice",
    "product",
    "shipment",
    "supplier",
    "payment",
    "account",
    "contact",
    "warehouse",
    "employee",
    "delivery",
];
const DDL_ATTRIBUTES: [&str; 16] = [
    "number", "name", "street", "city", "zip", "country", "phone", "date", "amount", "price",
    "quantity", "status", "code", "email", "total", "currency",
];
const DDL_TYPES: [&str; 4] = ["INT", "VARCHAR(100)", "DECIMAL(10,2)", "DATE"];
const DDL_SYNONYMS: [(&str, &str); 12] = [
    ("customer", "client"),
    ("order", "purchase"),
    ("number", "no"),
    ("street", "road"),
    ("city", "town"),
    ("zip", "postcode"),
    ("phone", "telephone"),
    ("amount", "sum"),
    ("quantity", "qty"),
    ("supplier", "vendor"),
    ("employee", "staff"),
    ("product", "article"),
];

/// The first `k` of `items`, in a seeded order.
fn pick<'a>(rng: &mut SplitMix64, items: &[&'a str], k: usize) -> Vec<&'a str> {
    let mut pool = items.to_vec();
    (0..k.min(pool.len()))
        .map(|_| pool.swap_remove(rng.index(pool.len())))
        .collect()
}

/// Tables and columns of every generated DDL schema: the seed picks
/// which, not how many, so each round's DDL match does the same work.
const DDL_TABLES: usize = 5;
const DDL_COLUMNS: usize = 8;

/// A generated DDL schema pair: `a`, and `b` with synonym renames and a
/// few dropped columns. Gold pairs every table and column with its
/// rendering on the other side, and the two roots.
fn ddl_pair(
    rng: &mut SplitMix64,
    a: &str,
    b: &str,
) -> (String, String, BTreeSet<(String, String)>) {
    let variant = |rng: &mut SplitMix64, token: &str| -> String {
        match DDL_SYNONYMS.iter().find(|(from, _)| *from == token) {
            Some((_, to)) if rng.chance(1, 2) => to.to_string(),
            _ => token.to_string(),
        }
    };
    let camel = |x: &str, y: &str| format!("{x}{}{}", y[..1].to_uppercase(), &y[1..]);
    let (mut ddl_a, mut ddl_b) = (String::new(), String::new());
    let mut gold = BTreeSet::from([(a.to_string(), b.to_string())]);
    for entity in pick(rng, &DDL_ENTITIES, DDL_TABLES) {
        let table_b = variant(rng, entity);
        gold.insert((format!("{a}.{entity}"), format!("{b}.{table_b}")));
        let (mut cols_a, mut cols_b) = (Vec::new(), Vec::new());
        for (k, attr) in pick(rng, &DDL_ATTRIBUTES, DDL_COLUMNS)
            .into_iter()
            .enumerate()
        {
            let sql_type = DDL_TYPES[rng.index(DDL_TYPES.len())];
            let col_a = camel(entity, attr);
            cols_a.push(format!("  {col_a} {sql_type}"));
            if k > 0 && rng.chance(1, 8) {
                continue; // dropped on side b
            }
            let col_b = camel(&table_b, &variant(rng, attr));
            cols_b.push(format!("  {col_b} {sql_type}"));
            gold.insert((
                format!("{a}.{entity}.{col_a}"),
                format!("{b}.{table_b}.{col_b}"),
            ));
        }
        ddl_a.push_str(&format!(
            "CREATE TABLE {entity} (\n{}\n);\n",
            cols_a.join(",\n")
        ));
        ddl_b.push_str(&format!(
            "CREATE TABLE {table_b} (\n{}\n);\n",
            cols_b.join(",\n")
        ));
    }
    (ddl_a, ddl_b, gold)
}

/// A client's deterministic request stream.
struct Stream {
    client: usize,
    seed: u64,
    corpus: Arc<Corpus>,
    /// The corpus triples, in the same order for every
    /// seed, client `c` starting `c · TRIPLES / CLIENTS` triples in; round
    /// `r` uses triple `r mod 10`. Which triples are live in a client's
    /// slots, and which the two clients match at the same time, set what
    /// a round costs, so a seeded order would change the amount of work
    /// with the seed. The seed picks the DDL schemas and their renames.
    triples: Vec<[usize; 3]>,
    round: Vec<Op>,
    issued: usize,
}

impl Stream {
    fn new(seed: u64, client: usize, corpus: Arc<Corpus>) -> Stream {
        let mut triples = triples();
        triples.rotate_left(client * TRIPLES / CLIENTS);
        Stream {
            client,
            seed,
            corpus,
            triples,
            round: Vec::new(),
            issued: 0,
        }
    }

    fn tenant(&self) -> String {
        format!("w{}", self.client)
    }

    /// One `serve_write` round: copies `x`, `y`, `z` of a corpus triple
    /// under the round's slot names; stored matches `x↔y` and `y↔z`; a
    /// reuse match `x↔z` (pivot `y`, no direct mapping); a warm repeat of
    /// `x↔y`; then a generated DDL pair, its stored match and a warm
    /// repeat. A slot's names come back every 4 rounds with another
    /// triple; only when that triple puts the same corpus pair under the
    /// same two names does a stored match find its matrices still cached,
    /// so most stored matches run cold, and the same ones on every seed.
    fn write_round(&self, round: usize) -> Vec<Op> {
        let mut rng = SplitMix64::new(
            self.seed
                ^ 0x3A17_E000
                ^ ((self.client as u64) << 40)
                ^ (round as u64).wrapping_mul(0x9E37_79B9),
        );
        let tenant = self.tenant();
        let picked = self.triples[round % TRIPLES];
        let prefix = format!("w{}s{}", self.client, round % WRITE_SLOTS);
        let names: Vec<String> = ["x", "y", "z"]
            .iter()
            .map(|tag| format!("{prefix}{tag}"))
            .collect();
        let gold = |a: usize, b: usize| {
            Some(Arc::new(renamed_gold(
                &self.corpus,
                picked[a],
                picked[b],
                &names[a],
                &names[b],
            )))
        };
        let op = |request, kind, gold| Op {
            request,
            kind,
            gold,
        };
        let mut ops: Vec<Op> = names
            .iter()
            .zip(picked)
            .map(|(name, i)| {
                op(
                    put_request(&tenant, name, SchemaFormat::Xsd, xsd_source(i)),
                    Kind::Write,
                    None,
                )
            })
            .collect();
        let (x, y, z) = (&names[0], &names[1], &names[2]);
        ops.push(op(
            match_request(&tenant, x, y, WRITE_PLAN, true),
            Kind::Write,
            gold(0, 1),
        ));
        ops.push(op(
            match_request(&tenant, y, z, WRITE_PLAN, true),
            Kind::Write,
            gold(1, 2),
        ));
        let reuse = PlanSpec::Reuse(ReuseSpec::default());
        ops.push(op(
            match_request(&tenant, x, z, reuse, false),
            Kind::Read,
            gold(0, 2),
        ));
        ops.push(op(
            match_request(&tenant, x, y, WRITE_PLAN, false),
            Kind::Read,
            gold(0, 1),
        ));
        let (a, b) = (format!("{prefix}a"), format!("{prefix}b"));
        let (ddl_a, ddl_b, ddl_gold) = ddl_pair(&mut rng, &a, &b);
        let ddl_gold = Some(Arc::new(ddl_gold));
        ops.push(op(
            put_request(&tenant, &a, SchemaFormat::Sql, &ddl_a),
            Kind::Write,
            None,
        ));
        ops.push(op(
            put_request(&tenant, &b, SchemaFormat::Sql, &ddl_b),
            Kind::Write,
            None,
        ));
        ops.push(op(
            match_request(&tenant, &a, &b, WRITE_PLAN, true),
            Kind::Write,
            ddl_gold.clone(),
        ));
        ops.push(op(
            match_request(&tenant, &a, &b, WRITE_PLAN, false),
            Kind::Read,
            ddl_gold,
        ));
        debug_assert_eq!(ops.len(), ROUND_OPS);
        ops
    }

    fn next_op(&mut self) -> Op {
        let k = self.issued;
        self.issued += 1;
        if k.is_multiple_of(ROUND_OPS) {
            self.round = self.write_round(k / ROUND_OPS);
        }
        self.round[k % ROUND_OPS].clone()
    }
}

/// A digest of everything a response must reproduce: the stored
/// schema's summary, or a match's ranked correspondences and reuse flags
/// (not its timings, cache counters or advisory diagnostics).
fn digest(response: &Response) -> u64 {
    let mut h = DefaultHasher::new();
    match response {
        Response::SchemaStored(info) => {
            (1u8, &info.name, info.nodes, info.paths).hash(&mut h);
        }
        Response::Matched(m) => {
            (2u8, &m.source, &m.target, &m.reused, &m.reuse_path).hash(&mut h);
            for c in &m.correspondences {
                (&c.source_path, &c.target_path, c.similarity.to_bits()).hash(&mut h);
            }
        }
        other => (3u8, format!("{other:?}")).hash(&mut h),
    }
    h.finish()
}

fn is_error(response: &Response) -> bool {
    matches!(response, Response::Error(_) | Response::InvalidPlan(_))
}

/// A backend that keeps nothing: the verification replica needs the
/// repository's contents, not its persistence.
struct NullBackend;

impl RepositoryBackend for NullBackend {
    fn load(&self) -> Result<Repository, RepositoryError> {
        Ok(Repository::new())
    }

    fn persist(&self, _repo: &Repository) -> Result<(), RepositoryError> {
        Ok(())
    }

    fn location(&self) -> String {
        "null".to_string()
    }
}

/// Counters the replica gathers next to its spans.
#[derive(Default)]
struct MirrorCounts {
    paths: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    item_bytes: f64,
    chains: Vec<f64>,
    merged: f64,
}

/// An in-process replica of `ServerState::handle`: the same public calls
/// on its own repository and per-tenant caches, with a span around each.
struct Mirror<'r> {
    library: MatcherLibrary,
    aux: Auxiliary,
    repo: PersistentRepository,
    store: Option<PathBuf>,
    schemas: HashMap<String, Arc<Schema>>,
    caches: BTreeMap<String, Arc<EngineCache>>,
    rec: &'r Recorder,
    counts: MirrorCounts,
}

impl<'r> Mirror<'r> {
    fn open(
        backend: impl RepositoryBackend + 'static,
        store: Option<PathBuf>,
        rec: &'r Recorder,
    ) -> Result<Mirror<'r>, String> {
        Ok(Mirror {
            library: MatcherLibrary::standard(),
            aux: Auxiliary::standard(),
            repo: PersistentRepository::open(backend).map_err(|e| e.to_string())?,
            store,
            schemas: HashMap::new(),
            caches: BTreeMap::new(),
            rec,
            counts: MirrorCounts::default(),
        })
    }

    fn handle(&mut self, request: &Request, op: u64) -> Response {
        let result = match request {
            Request::PutSchema(_, inline) => {
                self.put_schema(inline, op).map(Response::SchemaStored)
            }
            Request::Match(req) => self.run_match(req, op),
            other => Err(format!("the workloads never send {other:?}")),
        };
        result.unwrap_or_else(Response::Error)
    }

    fn import(&self, inline: &InlineSchema, op: u64) -> Result<Schema, String> {
        match inline.format {
            SchemaFormat::Xsd => self.rec.time("xml.import", op, || {
                coma_xml::import_xsd(&inline.text, &inline.name).map_err(|e| e.to_string())
            }),
            SchemaFormat::Sql => self.rec.time("sql.import", op, || {
                coma_sql::import_ddl(&inline.text, &inline.name).map_err(|e| e.to_string())
            }),
        }
    }

    fn path_set(&mut self, schema: &Schema, op: u64) -> Result<PathSet, String> {
        let paths = self
            .rec
            .time("graph.pathset", op, || PathSet::new(schema))
            .map_err(|e| e.to_string())?;
        self.counts.paths.push(paths.len() as f64);
        Ok(paths)
    }

    /// Applies a repository change through `mutate` (write-through
    /// persistence) and records the snapshot size against the JSON size
    /// of the item the change stores.
    fn persist(
        &mut self,
        item_bytes: usize,
        op: u64,
        f: impl FnOnce(&mut Repository),
    ) -> Result<(), String> {
        self.rec
            .time("repo.persist", op, || self.repo.mutate(f))
            .map_err(|e| e.to_string())?;
        if let Some(store) = &self.store {
            let written = std::fs::metadata(store).map_err(|e| e.to_string())?.len();
            self.counts.snapshot_bytes.push(written as f64);
            self.counts.item_bytes += item_bytes as f64;
        }
        Ok(())
    }

    fn item_bytes<T: serde::Serialize>(&self, item: &T) -> usize {
        if self.store.is_some() {
            serde_json::to_string(item).map_or(0, |s| s.len())
        } else {
            0
        }
    }

    fn put_schema(&mut self, inline: &InlineSchema, op: u64) -> Result<SchemaInfo, String> {
        let schema = self.import(inline, op)?;
        let paths = self.path_set(&schema, op)?;
        let info = SchemaInfo {
            name: schema.name().to_string(),
            nodes: schema.node_count() as u64,
            paths: paths.len() as u64,
        };
        let stored = schema.clone();
        self.persist(self.item_bytes(&schema), op, move |r| r.put_schema(stored))?;
        self.schemas.insert(info.name.clone(), Arc::new(schema));
        Ok(info)
    }

    fn resolve(&self, side: &SchemaRef, op: u64) -> Result<Arc<Schema>, String> {
        match side {
            SchemaRef::Stored(name) => match self.schemas.get(name) {
                Some(schema) => Ok(Arc::clone(schema)),
                None => self
                    .repo
                    .read()
                    .schema(name)
                    .cloned()
                    .map(Arc::new)
                    .ok_or_else(|| format!("no stored schema named {name:?}")),
            },
            SchemaRef::Inline(inline) => self.import(inline, op).map(Arc::new),
        }
    }

    /// The plan a spec names, built as the server builds it.
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
                combination: CombinationStrategy::paper_default(),
            },
        }
    }

    fn run_match(&mut self, req: &MatchRequest, op: u64) -> Result<Response, String> {
        let cache = Arc::clone(
            self.caches
                .entry(req.tenant.clone())
                .or_insert_with(|| Arc::new(EngineCache::with_capacity(CACHE_PAIRS))),
        );
        let source = self.resolve(&req.source, op)?;
        let target = self.resolve(&req.target, op)?;
        let plan = Mirror::plan_of(&req.plan);
        let mut cfg = EngineConfig::default()
            .with_parallel(req.config.parallel)
            .with_sparse(req.config.sparse)
            .with_fuse_pruning(req.config.fuse_pruning);
        if let Some(shards) = req.config.shards {
            cfg = cfg.with_shards(shards);
        }
        let sp = self.path_set(&source, op)?;
        let tp = self.path_set(&target, op)?;
        let rec = self.rec;
        let (mapping, reused, reuse_path) = {
            let repo = self.repo.read();
            let ctx =
                MatchContext::new(&source, &target, &sp, &tp, &self.aux).with_repository(&repo);
            let stats = rec.time("analyze.gather", op, || TaskStats::gather(&ctx));
            let analysis = rec.time("analyze.plan", op, || {
                PlanAnalyzer::new(&self.library, cfg.clone()).analyze_with_cache(
                    &plan,
                    &stats,
                    &cache,
                    schema_fingerprint(&source, &sp),
                    schema_fingerprint(&target, &tp),
                )
            });
            if analysis.has_errors() {
                return Ok(Response::InvalidPlan(Vec::new()));
            }
            if let PlanSpec::Reuse(spec) = &req.plan {
                // The pivot search and chain merge the engine's Reuse leaf
                // runs, replayed for their own spans.
                let resolver = ReuseResolver {
                    kind_filter: spec.kind,
                    compose: spec.compose,
                    max_hops: spec.max_hops as usize,
                };
                let chains = rec.time("repo.pivot", op, || {
                    repo.pivot_chains(source.name(), target.name(), resolver.max_hops, |m| {
                        spec.kind.is_none_or(|k| m.kind == k)
                    })
                });
                let resolution = rec.time("reuse.resolve", op, || {
                    resolver.resolve(&repo, source.name(), target.name())
                });
                let paths = &resolution.stats.paths;
                self.counts.chains.push(chains.len() as f64);
                self.counts.merged += paths
                    .iter()
                    .filter(|p| Some(p.hops) == paths.first().map(|f| f.hops))
                    .count() as f64;
            }
            let engine = PlanEngine::with_config(&self.library, cfg);
            let outcome = rec
                .time("engine.execute", op, || {
                    engine.execute_cached(&ctx, &plan, &cache)
                })
                .map_err(|e| e.to_string())?;
            let via = outcome
                .stages
                .last()
                .and_then(|s| s.reuse_stats.as_ref())
                .and_then(|s| s.paths.first())
                .map(|p| p.via.clone());
            match (&req.plan, via) {
                (PlanSpec::Reuse(_), Some(via)) => (
                    outcome.result.to_mapping(&ctx, MappingKind::Automatic),
                    Some(true),
                    Some(via),
                ),
                (PlanSpec::Reuse(_), None) => {
                    let fallback = Mirror::plan_of(&PlanSpec::Default);
                    let outcome = rec
                        .time("engine.execute", op, || {
                            engine.execute_cached(&ctx, &fallback, &cache)
                        })
                        .map_err(|e| e.to_string())?;
                    (
                        outcome.result.to_mapping(&ctx, MappingKind::Automatic),
                        Some(false),
                        None,
                    )
                }
                _ => (
                    outcome.result.to_mapping(&ctx, MappingKind::Automatic),
                    None,
                    None,
                ),
            }
        };
        if req.store {
            let (stored, s, t) = (mapping.clone(), (*source).clone(), (*target).clone());
            self.persist(self.item_bytes(&mapping), op, move |r| {
                r.put_schema(s);
                r.put_schema(t);
                r.put_mapping(stored);
            })?;
        }
        Ok(Response::Matched(matched(
            &source, &target, mapping, reused, reuse_path,
        )))
    }

    fn cache_totals(&self) -> [u64; 5] {
        let mut t = [0u64; 5];
        for cache in self.caches.values() {
            let s = cache.stats();
            for (slot, v) in t.iter_mut().zip([
                s.matrix_hits,
                s.matrix_misses,
                s.index_hits,
                s.index_misses,
                s.matrix_entries,
            ]) {
                *slot += v;
            }
        }
        t
    }
}

/// A match response as the server ranks it.
fn matched(
    source: &Schema,
    target: &Schema,
    mapping: Mapping,
    reused: Option<bool>,
    reuse_path: Option<String>,
) -> MatchResponse {
    let mut correspondences: Vec<RankedCorrespondence> = mapping
        .correspondences
        .into_iter()
        .map(|c| RankedCorrespondence {
            source_path: c.source,
            target_path: c.target,
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
    MatchResponse {
        source: source.name().to_string(),
        target: target.name().to_string(),
        correspondences,
        elapsed_micros: 0,
        cache: Default::default(),
        reused,
        reuse_path,
        diagnostics: Vec::new(),
    }
}

fn f_measure(response: &Response, gold: &BTreeSet<(String, String)>) -> f64 {
    let proposed: BTreeSet<(String, String)> = match response {
        Response::Matched(m) => m
            .correspondences
            .iter()
            .map(|c| (c.source_path.clone(), c.target_path.clone()))
            .collect(),
        _ => BTreeSet::new(),
    };
    MatchQuality::compare(gold, &proposed).f_measure()
}

/// The persisted repository `serve_write` starts from: the five corpus
/// schemas and the gold mappings between them.
fn base_repository(corpus: &Corpus) -> Repository {
    let mut repo = Repository::new();
    for i in 0..SCHEMA_NAMES.len() {
        repo.put_schema(corpus.schema(i).clone());
    }
    for &(i, j) in &TASKS {
        repo.put_mapping(corpus.gold_mapping(i, j));
    }
    repo
}

/// A server serving on its own thread; stopped (and joined) on drop.
struct LiveServer {
    socket: PathBuf,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl LiveServer {
    fn start(socket: PathBuf, state: ServerState) -> Result<LiveServer, String> {
        let server = Server::bind(&socket, state).map_err(|e| format!("bind: {e}"))?;
        let thread = std::thread::spawn(move || server.serve());
        Ok(LiveServer {
            socket,
            thread: Some(thread),
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect_retry(&self.socket, Duration::from_secs(10))
            .map_err(|e| format!("connect: {e}"))
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = self.connect().and_then(|mut c| {
            c.call(&Request::Shutdown)
                .map(drop)
                .map_err(|e| format!("shutdown: {e}"))
        });
        let served = match thread.join() {
            Ok(r) => r.map_err(|e| format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        };
        sent.and(served)
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.stop().ok();
    }
}

/// Everything one workload instance needs, shared by all its set-ups.
struct Inputs {
    seed: u64,
    corpus: Arc<Corpus>,
    /// The serialized base repository.
    base_json: String,
}

impl Inputs {
    fn new(seed: u64) -> Result<Inputs, String> {
        let corpus = Arc::new(Corpus::load());
        let base_json = base_repository(&corpus)
            .to_json()
            .map_err(|e| e.to_string())?;
        Ok(Inputs {
            seed,
            corpus,
            base_json,
        })
    }

    fn stream(&self, client: usize) -> Stream {
        Stream::new(self.seed, client, Arc::clone(&self.corpus))
    }

    fn streams(&self) -> Vec<Stream> {
        (0..CLIENTS).map(|c| self.stream(c)).collect()
    }

    /// A fresh directory holding the base repository file.
    fn store_dir(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let store = dir.join("repository.json");
        std::fs::write(&store, &self.base_json).map_err(|e| e.to_string())?;
        Ok(store)
    }
}

/// The server state a run starts from: opening the store loads the base
/// repository.
fn open_state(store: &Path) -> Result<ServerState, String> {
    ServerState::open(FileBackend::new(store), CACHE_PAIRS).map_err(|e| e.to_string())
}

/// What one set-up reads, made outside its clock: a fresh directory
/// with the base repository file in it.
struct SetupDir {
    dir: PathBuf,
    store: PathBuf,
}

fn setup_dir(inputs: &Inputs, dir: &Path) -> Result<SetupDir, String> {
    Ok(SetupDir {
        dir: dir.to_path_buf(),
        store: inputs.store_dir(dir)?,
    })
}

/// One set-up: open the state (loading the base repository), serve it on
/// a socket, connect the clients.
fn setup(at: SetupDir) -> Result<(LiveServer, Vec<Client>), String> {
    let server = LiveServer::start(at.dir.join("s.sock"), open_state(&at.store)?)?;
    let clients = (0..CLIENTS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok((server, clients))
}

/// One completed request as its client saw it.
struct Sample {
    /// Completion time in seconds since the phase started.
    end_s: f64,
    ms: f64,
    kind: Kind,
    /// For a match that stores nothing: the server's own timing of the
    /// match, from the same reply (`MatchResponse::elapsed_micros`).
    server_ms: Option<f64>,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// One digest per request sent, by its index in the stream (0 when
    /// the session failed before a reply).
    digests: Vec<u64>,
    /// Failed requests, by their index in the stream.
    failures: Vec<(usize, String)>,
    /// The F-measure of each scored reply that has gold.
    f1: Vec<f64>,
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
enum Until {
    /// After this many requests per client.
    Ops(usize),
    /// At the first reply after this instant.
    Deadline(Instant),
}

/// A closed loop: send, wait for the reply, repeat until `until`.
/// Replies are checked against the replica after the run. With `score`,
/// each reply to a request with gold is scored against it.
fn client_loop(
    client: &mut Client,
    stream: &mut Stream,
    until: Until,
    score: bool,
    start: Instant,
    rec: &Recorder,
) -> ClientLog {
    let mut log = ClientLog::default();
    let client_id = (stream.client as u64) << 32;
    loop {
        let k = stream.issued;
        let done = match until {
            Until::Ops(n) => log.digests.len() >= n,
            Until::Deadline(deadline) => Instant::now() >= deadline,
        };
        if done {
            break;
        }
        let op = stream.next_op();
        let t0 = Instant::now();
        let reply = rec.time("client.call", client_id | k as u64, || {
            client.call(&op.request)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let server_ms = match &reply {
            Ok(Response::Matched(m)) if op.kind == Kind::Read => {
                Some(m.elapsed_micros as f64 / 1e3)
            }
            _ => None,
        };
        log.samples.push(Sample {
            end_s: start.elapsed().as_secs_f64(),
            ms,
            kind: op.kind,
            server_ms,
        });
        match reply {
            Ok(response) => {
                let d = digest(&response);
                if is_error(&response) {
                    log.failures.push((k, format!("{response:?}")));
                }
                if let (true, Some(gold)) = (score, &op.gold) {
                    log.f1.push(f_measure(&response, gold));
                }
                log.digests.push(d);
            }
            Err(e) => {
                log.failures.push((k, e.to_string()));
                log.digests.push(0);
                break; // the session is gone
            }
        }
    }
    log
}

/// What a phase of [`drive`] saw: each client's log, and the host's
/// steal counter ([`host_steal_s`]) read every [`WINDOW`] from the
/// phase's start and once more at its end.
struct Phase {
    logs: Vec<ClientLog>,
    steal_marks: Vec<f64>,
}

/// Drives every client on its own thread until `until`, continuing each
/// client's stream, while this thread reads the host's steal counter.
/// Each client thread records into its own recorder, which `rec` absorbs.
fn drive(
    clients: &mut [Client],
    streams: &mut [Stream],
    until: Until,
    score: bool,
    rec: &Recorder,
) -> Phase {
    let start = Instant::now();
    let traced = rec.enabled();
    let epoch = rec.epoch();
    let mut steal_marks = vec![host_steal_s()];
    let results: Vec<(ClientLog, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let local = if traced {
                        Recorder::new(epoch)
                    } else {
                        Recorder::disabled()
                    };
                    let log = client_loop(client, stream, until, score, start, &local);
                    (log, local)
                })
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(Duration::from_millis(5));
            if start.elapsed() >= WINDOW * steal_marks.len() as u32 {
                steal_marks.push(host_steal_s());
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    steal_marks.push(host_steal_s());
    let logs = results
        .into_iter()
        .map(|(log, local)| {
            rec.absorb(local);
            log
        })
        .collect();
    Phase { logs, steal_marks }
}

/// Replays each client's first `counts[c]` requests
/// through a replica, one thread per client (their namespaces are
/// disjoint), returning the expected digest of each request.
fn replica_digests(inputs: &Inputs, counts: &[usize]) -> Result<Vec<Vec<u64>>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = counts
            .iter()
            .enumerate()
            .map(|(c, &count)| {
                scope.spawn(move || {
                    let rec = Recorder::disabled();
                    let mut mirror = Mirror::open(NullBackend, None, &rec)?;
                    let mut stream = inputs.stream(c);
                    Ok((0..count)
                        .map(|_| digest(&mirror.handle(&stream.next_op().request, 0)))
                        .collect())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replica threads do not panic"))
            .collect()
    })
}

/// Width of a timed phase's measurement windows.
const WINDOW: Duration = Duration::from_secs(1);

/// The timed phase cut into whole [`WINDOW`]s by completion time (one
/// shorter window when the phase is), each with the requests completed
/// in it. The latency metrics take every request, reads and writes: on
/// `serve_write` a read's latency alone swings with whether it happened
/// to wait behind the other client's fsync, so its quantiles do not
/// repeat from run to run (the traced run reports them per kind).
/// Replies after the deadline fall outside every window.
fn windows(phase: &Phase, duration: Duration) -> Vec<Window> {
    let width = duration.min(WINDOW).as_secs_f64();
    let count = ((duration.as_secs_f64() / width) as usize).max(1);
    let marks = &phase.steal_marks;
    let mark = |k: usize| marks[k.min(marks.len() - 1)];
    let mut windows: Vec<Window> = (0..count)
        .map(|k| Window {
            wall_s: width,
            steal_s: mark(k + 1) - mark(k),
            ..Window::default()
        })
        .collect();
    for s in phase.logs.iter().flat_map(|l| &l.samples) {
        if let Some(w) = windows.get_mut((s.end_s / width) as usize) {
            w.ops += 1;
            w.latencies_ms.push(s.ms);
        }
    }
    windows
}

/// The untraced run: set-up time; peak heap over a fresh set-up and the
/// untimed lead requests of every stream; then the timed phase, which
/// continues the same streams on the same server with allocation
/// counting off; then the output check.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let inputs = Inputs::new(opts.seed)?;
    let mut n = 0;
    let setup_s = time_setups(
        || {
            n += 1;
            setup_dir(&inputs, &opts.scratch.join(format!("setup{n}")))
        },
        setup,
        |(mut server, clients)| {
            drop(clients);
            server.stop()
        },
    )?;
    let off = Recorder::disabled();
    let at = setup_dir(&inputs, &opts.scratch.join("measured"))?;
    let (peak, measured) = measure_peak(|| -> Result<_, String> {
        let (server, mut clients) = setup(at)?;
        let mut streams = inputs.streams();
        let logs = drive(&mut clients, &mut streams, Until::Ops(LEAD_OPS), true, &off).logs;
        Ok((server, clients, streams, logs))
    });
    let (mut server, mut clients, mut streams, lead_logs) = measured?;
    let deadline = Until::Deadline(Instant::now() + opts.duration);
    let timed = drive(&mut clients, &mut streams, deadline, false, &off);
    drop(clients);
    server.stop()?;

    let mut out = Outcome::default();
    out.set("setup_s", median(&setup_s));
    out.set("peak_mib", peak as f64 / (1024.0 * 1024.0));
    set_windowed(&mut out, &windows(&timed, opts.duration));
    let f1: Vec<f64> = lead_logs
        .iter()
        .flat_map(|l| l.f1.iter().copied())
        .collect();
    out.set("f1", mean(&f1));

    // One log per client over its whole stream: lead, then timed.
    let logs: Vec<ClientLog> = lead_logs
        .into_iter()
        .zip(timed.logs)
        .map(|(mut lead, timed)| {
            lead.digests.extend(timed.digests);
            lead.failures.extend(timed.failures);
            lead
        })
        .collect();
    out.attempted = logs.iter().map(|l| l.digests.len() as u64).sum();
    // Failures by (client, request), at most one per request.
    let mut failed: BTreeMap<(usize, usize), String> = BTreeMap::new();
    for (c, log) in logs.iter().enumerate() {
        for (k, f) in &log.failures {
            failed.entry((c, *k)).or_insert_with(|| f.clone());
        }
    }
    let counts: Vec<usize> = logs.iter().map(|l| l.digests.len()).collect();
    let expected = replica_digests(&inputs, &counts)?;
    for (c, (log, expected)) in logs.iter().zip(&expected).enumerate() {
        for (k, (got, want)) in log.digests.iter().zip(expected).enumerate() {
            if got != want {
                failed
                    .entry((c, k))
                    .or_insert_with(|| "response differs from the replica".to_string());
            }
        }
    }
    // `ok_share` is over the lead requests, the same in every run of a
    // seed: a lead request that failed, or that a broken session left
    // unsent, counts against it. A timed request that fails counts in
    // `failed` only.
    let unsent: usize = logs
        .iter()
        .map(|l| LEAD_OPS.saturating_sub(l.digests.len()))
        .sum();
    let lead_failed = failed.keys().filter(|&&(_, k)| k < LEAD_OPS).count();
    out.set_ok_share(lead_failed + unsent, CLIENTS * LEAD_OPS);
    for ((c, k), f) in failed {
        out.fail(format!("client {c} request {k}: {f}"));
    }
    Ok(out)
}

/// The traced run: the socket phase again with a span per `Client::call`
/// (half the time), then the same streams replayed in-process (the other
/// half) through the real `ServerState::handle` — with frame encoding
/// and decoding timed around it — and through the replica with a span
/// per public call.
pub fn run_traced(opts: &RunOptions, rec: &Recorder) -> Result<Outcome, String> {
    let inputs = Inputs::new(opts.seed)?;
    let mut out = Outcome::default();
    let half = opts.duration / 2;
    let traced_start = Instant::now();

    // Phase 1: client-observed round trips.
    let logs = {
        let at = setup_dir(&inputs, &opts.scratch.join("socket"))?;
        let (mut server, mut clients) = setup(at)?;
        let until = Until::Deadline(Instant::now() + half);
        let phase = drive(&mut clients, &mut inputs.streams(), until, false, rec).logs;
        drop(clients);
        server.stop()?;
        phase
    };
    let of_kind = |kind: Kind| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| l.samples.iter().filter(|s| s.kind == kind).map(|s| s.ms))
            .collect()
    };
    let (reads, writes) = (of_kind(Kind::Read), of_kind(Kind::Write));
    out.set("client.read_ms.p50", quantile(&reads, 0.5));
    out.set("client.read_ms.p90", quantile(&reads, 0.9));
    out.set("client.write_ms.p50", quantile(&writes, 0.5));
    out.set("client.write_ms.p90", quantile(&writes, 0.9));
    // The part of a read match's round trip the server did not time
    // itself: framing, the socket, scheduling, schema resolution and
    // ranking. Stored matches are left out: their persist is untimed too.
    let waits: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter_map(|s| s.server_ms.map(|inner| s.ms - inner))
        .collect();
    for (c, log) in logs.iter().enumerate() {
        for (k, f) in &log.failures {
            out.fail(format!("client {c} request {k}: {f}"));
        }
    }

    // Phase 2: in-process replay, set up untraced like the socket phase.
    let dir = opts.scratch.join("replay");
    let state = open_state(&inputs.store_dir(&dir.join("server"))?)?;
    let store = inputs.store_dir(&dir.join("mirror"))?;
    let mut mirror = Mirror::open(FileBackend::new(&store), Some(store), rec)?;
    let cache_before = mirror.cache_totals();
    let mut streams = inputs.streams();
    let (mut frame_bytes, mut errors, mut ops) = (0usize, 0u64, 0u64);
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed() < half || k == 0 {
        let (c, kc) = (k % CLIENTS, k / CLIENTS);
        let id = ((c as u64) << 32) | kc as u64;
        let op = streams[c].next_op();
        out.attempted += 1;
        ops += 1;
        let checked = rec.time("request", id, || -> Result<bool, String> {
            let frame = rec.time("protocol.encode", id, || encode(&op.request))?;
            let request: Request = rec.time("protocol.decode", id, || decode(&frame))?;
            let response = rec.time("server.handle", id, || state.handle(request));
            let reply = rec.time("protocol.encode", id, || encode(&response))?;
            let response: Response = rec.time("protocol.decode", id, || decode(&reply))?;
            frame_bytes += frame.len() + reply.len();
            if is_error(&response) {
                errors += 1;
            }
            let expected = rec.time("mirror", id, || mirror.handle(&op.request, id));
            Ok(digest(&response) == digest(&expected))
        });
        match checked {
            Ok(true) => {}
            Ok(false) => out.fail(format!(
                "replayed request {id:#x}: handle and replica differ"
            )),
            Err(e) => out.fail(format!("replayed request {id:#x}: {e}")),
        }
        k += 1;
    }
    let cache_after = mirror.cache_totals();
    let traced_ns = traced_start.elapsed().as_nanos() as f64;

    let delta = |i: usize| (cache_after[i] - cache_before[i]) as f64;
    let m = &mirror.counts;
    out.set("protocol.encode_ms", rec.per_op_ms("protocol.encode"));
    out.set("protocol.decode_ms", rec.per_op_ms("protocol.decode"));
    out.set(
        "protocol.frame_bytes",
        ratio(frame_bytes as f64, ops as f64),
    );
    out.set("server.handle_ms", rec.per_op_ms("server.handle"));
    out.set("server.wait_ms", mean(&waits));
    out.set("server.errors", errors as f64);
    out.set("graph.pathset_ms", rec.per_op_ms("graph.pathset"));
    out.set("graph.paths", mean(&m.paths));
    out.set("analyze.gather_ms", rec.per_op_ms("analyze.gather"));
    out.set("analyze.plan_ms", rec.per_op_ms("analyze.plan"));
    out.set(
        "analyze.share",
        ratio(
            rec.total_ms("analyze.gather") + rec.total_ms("analyze.plan"),
            rec.total_ms("server.handle"),
        ),
    );
    out.set("engine.execute_ms", rec.per_op_ms("engine.execute"));
    out.set(
        "cache.matrix_hit_ratio",
        ratio(delta(0), delta(0) + delta(1)),
    );
    out.set(
        "cache.index_hit_ratio",
        ratio(delta(2), delta(2) + delta(3)),
    );
    out.set("cache.matrix_entries", cache_after[4] as f64);
    out.set("xml.import_ms", rec.per_op_ms("xml.import"));
    out.set("sql.import_ms", rec.per_op_ms("sql.import"));
    out.set("repo.persist_ms", rec.per_op_ms("repo.persist"));
    out.set("repo.snapshot_bytes", mean(&m.snapshot_bytes));
    out.set(
        "repo.write_amp",
        ratio(m.snapshot_bytes.iter().sum(), m.item_bytes),
    );
    out.set("repo.pivot_ms", rec.per_op_ms("repo.pivot"));
    out.set("reuse.resolve_ms", rec.per_op_ms("reuse.resolve"));
    out.set("reuse.paths", mean(&m.chains));
    out.set("reuse.merged_ratio", ratio(m.merged, m.chains.iter().sum()));
    out.set(
        "trace.overhead",
        span_cost_ns() * rec.len() as f64 / traced_ns,
    );
    Ok(out)
}

fn encode<T: serde::Serialize>(message: &T) -> Result<Vec<u8>, String> {
    let mut frame = Vec::new();
    write_message(&mut frame, message).map_err(|e| e.to_string())?;
    Ok(frame)
}

fn decode<T: serde::Deserialize>(frame: &[u8]) -> Result<T, String> {
    read_message(&mut &frame[..])
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "empty frame".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed_and_client() {
        let corpus = Arc::new(Corpus::load());
        let take = |seed, client| {
            let mut s = Stream::new(seed, client, Arc::clone(&corpus));
            (0..2 * ROUND_OPS)
                .map(|_| format!("{:?}", s.next_op().request))
                .collect::<Vec<_>>()
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(4, 0));
        assert_ne!(take(3, 0), take(3, 1));
    }

    fn full_names(s: &Schema) -> BTreeSet<String> {
        let ps = PathSet::new(s).unwrap();
        ps.iter().map(|p| ps.full_name(s, p)).collect()
    }

    #[test]
    fn ddl_pairs_import_and_their_gold_names_exist() {
        let mut rng = SplitMix64::new(9);
        let (a, b, gold) = ddl_pair(&mut rng, "A", "B");
        let na = full_names(&coma_sql::import_ddl(&a, "A").unwrap());
        let nb = full_names(&coma_sql::import_ddl(&b, "B").unwrap());
        for (x, y) in &gold {
            assert!(na.contains(x), "{x}");
            assert!(nb.contains(y), "{y}");
        }
    }

    /// A copy of a corpus schema stored under another name keeps its
    /// paths, except a synthetic root, which takes the copy's name.
    #[test]
    fn renamed_gold_names_paths_of_the_renamed_copies() {
        let corpus = Corpus::load();
        for &(i, j) in &TASKS {
            let gold = renamed_gold(&corpus, i, j, "x", "y");
            assert_eq!(gold.len(), corpus.gold_names(i, j).len());
            let nx = full_names(&coma_xml::import_xsd(xsd_source(i), "x").unwrap());
            let ny = full_names(&coma_xml::import_xsd(xsd_source(j), "y").unwrap());
            assert!(gold.iter().all(|(s, t)| nx.contains(s) && ny.contains(t)));
        }
    }
}
