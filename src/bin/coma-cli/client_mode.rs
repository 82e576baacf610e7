//! `coma-cli --server SOCKET …`: the client side of a running
//! `coma-server` (see the crate docs in `main.rs` for the command list).

use coma::server::{
    Client, InlineSchema, MatchConfig, MatchRequest, PlanSpec, Request, Response, ReuseSpec,
    SchemaFormat, SchemaRef,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// How long to keep retrying the initial connect — covers scripts that
/// start the server and the client back to back.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: coma-cli --server SOCKET <command> [--tenant T]\n\
         \n\
         put <schema-file> [--name NAME]\n\
         match <source> <target> [--store] [--top-k K] [--candidate-cap N]\n\
         \x20     [--reuse] [--max-hops N] [--json]\n\
         fetch <NAME>\n\
         list\n\
         stats\n\
         ping\n\
         shutdown"
    );
    ExitCode::from(2)
}

/// Reads a schema file into an inline wire schema, picking the format by
/// extension exactly like local mode does.
fn inline_schema(path: &str, name: Option<&str>) -> Result<InlineSchema, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("schema");
    let ext = Path::new(path)
        .extension()
        .and_then(|s| s.to_str())
        .unwrap_or("")
        .to_ascii_lowercase();
    Ok(InlineSchema {
        name: name.unwrap_or(stem).to_string(),
        format: if matches!(ext.as_str(), "sql" | "ddl") {
            SchemaFormat::Sql
        } else {
            SchemaFormat::Xsd
        },
        text,
    })
}

/// A match side: an existing file is sent inline, anything else is
/// treated as the name of a stored schema.
fn schema_ref(arg: &str) -> Result<SchemaRef, String> {
    if Path::new(arg).is_file() {
        Ok(SchemaRef::Inline(inline_schema(arg, None)?))
    } else {
        Ok(SchemaRef::Stored(arg.to_string()))
    }
}

/// Runs one client command against the server at `socket`. `args` is the
/// full argument list minus the already-consumed `--server SOCKET`.
pub fn run(socket: &str, args: Vec<String>) -> ExitCode {
    // Split flags from positionals so `--tenant` may appear anywhere.
    let mut tenant = "default".to_string();
    let mut name: Option<String> = None;
    let mut store = false;
    let mut json = false;
    let mut top_k: Option<usize> = None;
    let mut candidate_cap: Option<usize> = None;
    let mut reuse = false;
    let mut max_hops: u64 = 3;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tenant" => match it.next() {
                Some(v) => tenant = v,
                None => return usage(),
            },
            "--name" => match it.next() {
                Some(v) => name = Some(v),
                None => return usage(),
            },
            "--top-k" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => top_k = Some(v),
                None => return usage(),
            },
            "--candidate-cap" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => candidate_cap = Some(v),
                None => return usage(),
            },
            "--reuse" => reuse = true,
            "--max-hops" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_hops = v,
                None => return usage(),
            },
            "--store" => store = true,
            "--json" => json = true,
            "--help" | "-h" => return usage(),
            _ => positional.push(arg),
        }
    }
    let Some(command) = positional.first().cloned() else {
        return usage();
    };
    let operands = &positional[1..];

    let request = match (command.as_str(), operands) {
        ("ping", []) => Request::Ping,
        ("shutdown", []) => Request::Shutdown,
        ("list", []) => Request::ListSchemas(tenant.clone()),
        ("stats", []) => Request::Stats(tenant.clone()),
        ("fetch", [schema]) => Request::GetSchema(tenant.clone(), schema.clone()),
        ("put", [file]) => match inline_schema(file, name.as_deref()) {
            Ok(schema) => Request::PutSchema(tenant.clone(), schema),
            Err(e) => return fail(e),
        },
        ("match", [source, target]) => {
            let (source, target) = match (schema_ref(source), schema_ref(target)) {
                (Ok(s), Ok(t)) => (s, t),
                (Err(e), _) | (_, Err(e)) => return fail(e),
            };
            let plan = if reuse {
                // Pivot-based matching from the server's stored-mapping
                // graph; the server falls back to fresh matching (and
                // flags it) when no pivot path exists.
                PlanSpec::Reuse(ReuseSpec {
                    max_hops,
                    ..ReuseSpec::default()
                })
            } else {
                match (top_k, candidate_cap) {
                    (Some(k), _) => PlanSpec::TopKPruned(k),
                    (None, Some(cap)) => PlanSpec::CandidateIndex(cap),
                    (None, None) => PlanSpec::Default,
                }
            };
            Request::Match(MatchRequest {
                tenant: tenant.clone(),
                source,
                target,
                plan,
                config: MatchConfig::default(),
                store,
            })
        }
        _ => return usage(),
    };

    let mut client = match Client::connect_retry(socket, CONNECT_TIMEOUT) {
        Ok(c) => c,
        Err(e) => return fail(format!("cannot connect to {socket}: {e}")),
    };
    let response = match client.call(&request) {
        Ok(r) => r,
        Err(e) => return fail(format!("request failed: {e}")),
    };
    print_response(response, json)
}

fn print_response(response: Response, json: bool) -> ExitCode {
    match response {
        Response::Error(message) => fail(message),
        Response::InvalidPlan(diagnostics) => {
            eprintln!("error: the server rejected the plan before execution:");
            for d in &diagnostics {
                eprintln!(
                    "  {} {} at `{}`: {}",
                    d.severity, d.code, d.node_path, d.message
                );
            }
            ExitCode::FAILURE
        }
        Response::Pong => {
            outln!("pong");
            ExitCode::SUCCESS
        }
        Response::ShuttingDown => {
            outln!("server shutting down");
            ExitCode::SUCCESS
        }
        Response::Flushed => {
            outln!("flushed");
            ExitCode::SUCCESS
        }
        Response::SchemaStored(info) | Response::Schema(info) => {
            outln!("{}\t{} nodes\t{} paths", info.name, info.nodes, info.paths);
            ExitCode::SUCCESS
        }
        Response::Schemas(names) => {
            for name in names {
                outln!("{name}");
            }
            ExitCode::SUCCESS
        }
        Response::Stats(stats) => {
            outln!(
                "tenant {}: {} schemas, {} mappings, {} cubes, {} requests",
                stats.tenant,
                stats.schemas,
                stats.mappings,
                stats.cubes,
                stats.requests
            );
            outln!(
                "cache: {} matrix hits / {} misses, {} index hits / {} misses, \
                 {} result hits / {} misses, {} matrices, {} indexes, {} token sets",
                stats.cache.matrix_hits,
                stats.cache.matrix_misses,
                stats.cache.index_hits,
                stats.cache.index_misses,
                stats.cache.result_hits,
                stats.cache.result_misses,
                stats.cache.matrix_entries,
                stats.cache.index_entries,
                stats.cache.token_entries
            );
            ExitCode::SUCCESS
        }
        Response::Matched(matched) => {
            if json {
                match serde_json::to_string_pretty(&matched) {
                    Ok(text) => outln!("{text}"),
                    Err(e) => return fail(e),
                }
                return ExitCode::SUCCESS;
            }
            eprintln!(
                "# {} -> {}: {} correspondences in {:.2} ms \
                 ({} matrix hits / {} misses, {} result hits / {} misses)",
                matched.source,
                matched.target,
                matched.correspondences.len(),
                matched.elapsed_micros as f64 / 1e3,
                matched.cache.matrix_hits,
                matched.cache.matrix_misses,
                matched.cache.result_hits,
                matched.cache.result_misses
            );
            match (matched.reused, &matched.reuse_path) {
                (Some(true), Some(via)) => eprintln!("# reused stored mappings via {via}"),
                (Some(true), None) => eprintln!("# reused stored mappings"),
                (Some(false), _) => {
                    eprintln!("# no pivot path in repository; matched fresh instead")
                }
                (None, _) => {}
            }
            for d in &matched.diagnostics {
                eprintln!(
                    "# {} {} at `{}`: {}",
                    d.severity, d.code, d.node_path, d.message
                );
            }
            for c in &matched.correspondences {
                outln!("{:.3}\t{}\t{}", c.similarity, c.source_path, c.target_path);
            }
            ExitCode::SUCCESS
        }
    }
}
