//! End-to-end tests over a real unix socket: schema storage, matching,
//! repository persistence across a server restart, the cross-request
//! memo speedup, and concurrent client sessions.

use coma_repo::FileBackend;
use coma_server::{
    Client, InlineSchema, MatchConfig, MatchRequest, PlanSpec, Request, Response, ReuseSpec,
    SchemaFormat, SchemaRef, Server, ServerState,
};
use std::path::PathBuf;
use std::time::Duration;

/// A unique temp path that does not collide across test binaries.
fn temp_path(name: &str, ext: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("coma_server_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}_{}.{ext}", name, std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// A generated DDL schema: `tables` CREATE TABLE statements with
/// `columns` columns each, names drawn from a fixed vocabulary so two
/// schemas built with different `variant` values still overlap enough
/// for name matchers to do real work.
fn big_ddl(tables: usize, columns: usize, variant: &str) -> String {
    const STEMS: [&str; 12] = [
        "customer", "order", "ship", "bill", "product", "price", "city", "street", "phone",
        "status", "total", "delivery",
    ];
    let mut ddl = String::new();
    for t in 0..tables {
        ddl.push_str(&format!(
            "CREATE TABLE {}{}{} (\n",
            STEMS[t % STEMS.len()],
            variant,
            t
        ));
        for c in 0..columns {
            if c > 0 {
                ddl.push_str(",\n");
            }
            ddl.push_str(&format!(
                "  {}{}{} VARCHAR(200)",
                STEMS[(t + c) % STEMS.len()],
                variant,
                c
            ));
        }
        ddl.push_str("\n);\n");
    }
    ddl
}

fn inline(name: &str, tables: usize, columns: usize, variant: &str) -> InlineSchema {
    InlineSchema {
        name: name.to_string(),
        format: SchemaFormat::Sql,
        text: big_ddl(tables, columns, variant),
    }
}

fn match_request(tenant: &str, source: SchemaRef, target: SchemaRef, store: bool) -> Request {
    Request::Match(MatchRequest {
        tenant: tenant.to_string(),
        source,
        target,
        plan: PlanSpec::Default,
        config: MatchConfig::default(),
        store,
    })
}

/// Serves `state` on a fresh socket in a background thread; returns the
/// socket path and a join handle that resolves when the server drains.
fn spawn_server(state: ServerState, tag: &str) -> (PathBuf, std::thread::JoinHandle<()>) {
    let socket = temp_path(tag, "sock");
    let server = Server::bind(&socket, state).unwrap();
    let handle = std::thread::spawn(move || server.serve().unwrap());
    (socket, handle)
}

fn connect(socket: &PathBuf) -> Client {
    Client::connect_retry(socket, Duration::from_secs(5)).unwrap()
}

#[test]
fn socket_round_trip_stores_schemas_and_matches() {
    let store = temp_path("round_trip_store", "json");
    let state = ServerState::open(FileBackend::new(&store), 8).unwrap();
    let (socket, handle) = spawn_server(state, "round_trip");
    let mut client = connect(&socket);

    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    let stored = client
        .call_ok(&Request::PutSchema(
            "acme".to_string(),
            inline("PO_src", 4, 6, "A"),
        ))
        .unwrap();
    let Response::SchemaStored(info) = stored else {
        panic!("expected SchemaStored, got {stored:?}");
    };
    assert_eq!(info.name, "PO_src");
    assert!(info.paths > 0);

    client
        .call_ok(&Request::PutSchema(
            "acme".to_string(),
            inline("PO_tgt", 4, 6, "B"),
        ))
        .unwrap();

    let matched = client
        .call_ok(&match_request(
            "acme",
            SchemaRef::Stored("PO_src".to_string()),
            SchemaRef::Stored("PO_tgt".to_string()),
            true,
        ))
        .unwrap();
    let Response::Matched(response) = matched else {
        panic!("expected Matched, got {matched:?}");
    };
    assert_eq!(response.source, "PO_src");
    assert_eq!(response.target, "PO_tgt");
    assert!(
        !response.correspondences.is_empty(),
        "overlapping vocabularies must produce correspondences"
    );
    // Ranked: similarities are non-increasing.
    for pair in response.correspondences.windows(2) {
        assert!(pair[0].similarity >= pair[1].similarity);
    }

    let stats = client.call_ok(&Request::Stats("acme".to_string())).unwrap();
    let Response::Stats(stats) = stats else {
        panic!("expected Stats, got {stats:?}");
    };
    assert_eq!(stats.schemas, 2);
    assert_eq!(stats.mappings, 1, "store=true must persist the mapping");

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
    std::fs::remove_file(&store).ok();
}

#[test]
fn repository_survives_server_restart() {
    let store = temp_path("restart_store", "json");

    // First server: store two schemas and one mapping, then shut down.
    {
        let state = ServerState::open(FileBackend::new(&store), 8).unwrap();
        let (socket, handle) = spawn_server(state, "restart_a");
        let mut client = connect(&socket);
        client
            .call_ok(&Request::PutSchema(
                "acme".to_string(),
                inline("Inv_src", 3, 5, "A"),
            ))
            .unwrap();
        client
            .call_ok(&Request::PutSchema(
                "acme".to_string(),
                inline("Inv_tgt", 3, 5, "B"),
            ))
            .unwrap();
        client
            .call_ok(&match_request(
                "acme",
                SchemaRef::Stored("Inv_src".to_string()),
                SchemaRef::Stored("Inv_tgt".to_string()),
                true,
            ))
            .unwrap();
        client.call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    // Second server over the same store file: everything is still there
    // and stored schemas are matchable without re-uploading.
    {
        let state = ServerState::open(FileBackend::new(&store), 8).unwrap();
        let (socket, handle) = spawn_server(state, "restart_b");
        let mut client = connect(&socket);

        let listed = client
            .call_ok(&Request::ListSchemas("acme".to_string()))
            .unwrap();
        let Response::Schemas(mut names) = listed else {
            panic!("expected Schemas, got {listed:?}");
        };
        names.sort();
        assert_eq!(names, vec!["Inv_src".to_string(), "Inv_tgt".to_string()]);

        let fetched = client
            .call_ok(&Request::GetSchema(
                "acme".to_string(),
                "Inv_src".to_string(),
            ))
            .unwrap();
        let Response::Schema(info) = fetched else {
            panic!("expected Schema, got {fetched:?}");
        };
        assert_eq!(info.name, "Inv_src");
        assert!(info.nodes > 0 && info.paths > 0);

        let matched = client
            .call_ok(&match_request(
                "acme",
                SchemaRef::Stored("Inv_src".to_string()),
                SchemaRef::Stored("Inv_tgt".to_string()),
                false,
            ))
            .unwrap();
        let Response::Matched(response) = matched else {
            panic!("expected Matched, got {matched:?}");
        };
        assert!(!response.correspondences.is_empty());

        let stats = client.call_ok(&Request::Stats("acme".to_string())).unwrap();
        let Response::Stats(stats) = stats else {
            panic!("expected Stats, got {stats:?}");
        };
        assert_eq!(stats.schemas, 2);
        assert_eq!(stats.mappings, 1);

        client.call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn repeated_match_request_hits_the_cross_request_memo() {
    let state = ServerState::open(coma_repo::MemoryBackend::new(), 8).unwrap();
    let (socket, handle) = spawn_server(state, "memo");
    let mut client = connect(&socket);

    // Moderately sized pair so the first request does real work.
    client
        .call_ok(&Request::PutSchema(
            "acme".to_string(),
            inline("Big_src", 10, 10, "A"),
        ))
        .unwrap();
    client
        .call_ok(&Request::PutSchema(
            "acme".to_string(),
            inline("Big_tgt", 10, 10, "B"),
        ))
        .unwrap();
    for plan in [PlanSpec::Default, PlanSpec::TopKPruned(5)] {
        let request = Request::Match(MatchRequest {
            tenant: "acme".to_string(),
            source: SchemaRef::Stored("Big_src".to_string()),
            target: SchemaRef::Stored("Big_tgt".to_string()),
            plan: plan.clone(),
            config: MatchConfig::default(),
            store: false,
        });
        let Response::Matched(cold) = client.call_ok(&request).unwrap() else {
            panic!("expected Matched");
        };
        let Response::Matched(warm) = client.call_ok(&request).unwrap() else {
            panic!("expected Matched");
        };

        // Identical input must give identical output…
        assert_eq!(cold.correspondences, warm.correspondences, "{plan:?}");
        // …and the repeat must be answered from the plan's kept result:
        // no matrix computed, no index built, exactly one result hit.
        assert_eq!(
            (warm.cache.matrix_misses, warm.cache.index_misses),
            (cold.cache.matrix_misses, cold.cache.index_misses),
            "{plan:?}: the repeat recomputed an artifact"
        );
        assert_eq!(
            (warm.cache.result_hits, warm.cache.result_misses),
            (cold.cache.result_hits + 1, cold.cache.result_misses),
            "{plan:?}: the repeat was not answered from its kept result"
        );
        // Wall time is noisy on a loaded box, so gate loosely: the warm
        // request must not be dramatically slower, and on a quiet machine
        // it is typically several times faster.
        assert!(
            warm.elapsed_micros <= cold.elapsed_micros.max(1) * 2,
            "{plan:?}: warm request ({} us) slower than 2x cold ({} us)",
            warm.elapsed_micros,
            cold.elapsed_micros
        );
    }

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// Storing new content under a stored schema's name replaces its
/// prepared form and its fingerprint, so the next match answers for the
/// new content instead of returning the old pair's kept result.
#[test]
fn re_put_schema_changes_the_next_match() {
    let state = ServerState::open(coma_repo::MemoryBackend::new(), 8).unwrap();
    let (socket, handle) = spawn_server(state, "re_put");
    let mut client = connect(&socket);
    let put = |client: &mut Client, name: &str, variant: &str| {
        client
            .call_ok(&Request::PutSchema(
                "acme".to_string(),
                inline(name, 3, 4, variant),
            ))
            .unwrap();
    };
    let request = match_request(
        "acme",
        SchemaRef::Stored("Re_src".to_string()),
        SchemaRef::Stored("Re_tgt".to_string()),
        false,
    );
    let matched = |client: &mut Client| match client.call_ok(&request).unwrap() {
        Response::Matched(m) => m,
        other => panic!("expected Matched, got {other:?}"),
    };
    put(&mut client, "Re_src", "A");
    put(&mut client, "Re_tgt", "B");
    let before = matched(&mut client);
    assert_eq!(matched(&mut client).correspondences, before.correspondences);

    // New content under the source's name: it now matches the target
    // element for element.
    put(&mut client, "Re_src", "B");
    let after = matched(&mut client);
    assert_ne!(after.correspondences, before.correspondences);
    assert_eq!(
        after.cache.result_hits,
        before.cache.result_hits + 1,
        "only the repeat before the re-put was answered from a kept result"
    );
    let stored = matched(&mut client);
    assert_eq!(stored.correspondences, after.correspondences);

    // The same answer as a fresh server that only ever saw the new
    // content.
    let fresh_state = ServerState::open(coma_repo::MemoryBackend::new(), 8).unwrap();
    let (fresh_socket, fresh_handle) = spawn_server(fresh_state, "re_put_fresh");
    let mut fresh = connect(&fresh_socket);
    put(&mut fresh, "Re_src", "B");
    put(&mut fresh, "Re_tgt", "B");
    assert_eq!(matched(&mut fresh).correspondences, after.correspondences);

    for (client, handle) in [(client, handle), (fresh, fresh_handle)] {
        let mut client = client;
        client.call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }
}

/// A `store: true` match of an inline schema stores its content under
/// the schema's name, and later requests naming it see that content.
#[test]
fn an_inline_stored_match_replaces_the_named_schema() {
    let state = ServerState::open(coma_repo::MemoryBackend::new(), 8).unwrap();
    let (socket, handle) = spawn_server(state, "inline_store");
    let mut client = connect(&socket);
    for (name, tables) in [("In_src", 2), ("In_tgt", 3)] {
        client
            .call_ok(&Request::PutSchema(
                "acme".to_string(),
                inline(name, tables, 4, "A"),
            ))
            .unwrap();
    }
    let stored = |name: &str| SchemaRef::Stored(name.to_string());
    let nodes = |client: &mut Client| match client
        .call_ok(&Request::GetSchema(
            "acme".to_string(),
            "In_src".to_string(),
        ))
        .unwrap()
    {
        Response::Schema(info) => info.nodes,
        other => panic!("expected Schema, got {other:?}"),
    };
    let before = nodes(&mut client);
    client
        .call_ok(&match_request(
            "acme",
            stored("In_src"),
            stored("In_tgt"),
            false,
        ))
        .unwrap();
    let replacement = inline("In_src", 3, 4, "A");
    let Response::Matched(sent) = client
        .call_ok(&match_request(
            "acme",
            SchemaRef::Inline(replacement),
            stored("In_tgt"),
            true,
        ))
        .unwrap()
    else {
        panic!("expected Matched");
    };
    assert!(
        nodes(&mut client) > before,
        "GetSchema served the old content"
    );
    let Response::Matched(named) = client
        .call_ok(&match_request(
            "acme",
            stored("In_src"),
            stored("In_tgt"),
            false,
        ))
        .unwrap()
    else {
        panic!("expected Matched");
    };
    assert_eq!(named.correspondences, sent.correspondences);

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// A plan whose answer depends on the repository — a `Reuse` plan, or a
/// flat strategy naming the `SchemaM` reuse matcher — always executes:
/// it neither finds nor leaves a kept result, so storing mappings
/// changes its next answer.
#[test]
fn repository_dependent_plans_are_never_answered_from_the_cache() {
    let state = ServerState::open(coma_repo::MemoryBackend::new(), 8).unwrap();
    let (socket, handle) = spawn_server(state, "impure");
    let mut client = connect(&socket);
    for (name, variant) in [("P1", "A"), ("P2", "B"), ("P3", "C")] {
        client
            .call_ok(&Request::PutSchema(
                "acme".to_string(),
                inline(name, 3, 4, variant),
            ))
            .unwrap();
    }
    // `SchemaM` reuses manual mappings, `SchemaA` automatic ones (what
    // the server stores); `Max` keeps either's answer.
    let mut schema_reuse = coma_core::MatchStrategy::paper_default();
    schema_reuse.matchers = vec!["SchemaM".to_string(), "SchemaA".to_string()];
    schema_reuse.combination.aggregation = coma_core::Aggregation::Max;
    let p1_p3 = |plan: PlanSpec| {
        Request::Match(MatchRequest {
            tenant: "acme".to_string(),
            source: SchemaRef::Stored("P1".to_string()),
            target: SchemaRef::Stored("P3".to_string()),
            plan,
            config: MatchConfig::default(),
            store: false,
        })
    };
    let flat = p1_p3(PlanSpec::Flat(schema_reuse));
    let Response::Matched(before) = client.call_ok(&flat).unwrap() else {
        panic!("expected Matched");
    };
    assert!(before.correspondences.is_empty(), "no mapping stored yet");

    for (a, b) in [("P1", "P2"), ("P2", "P3")] {
        client
            .call_ok(&match_request(
                "acme",
                SchemaRef::Stored(a.to_string()),
                SchemaRef::Stored(b.to_string()),
                true,
            ))
            .unwrap();
    }
    let reuse = p1_p3(PlanSpec::Reuse(ReuseSpec::default()));
    for request in [flat, reuse] {
        let mut answers = Vec::new();
        for _ in 0..3 {
            let Response::Matched(m) = client.call_ok(&request).unwrap() else {
                panic!("{request:?}: expected Matched");
            };
            answers.push(m);
        }
        assert!(
            !answers[0].correspondences.is_empty(),
            "{request:?} missed the stored mappings"
        );
        for later in &answers[1..] {
            assert_eq!(later.correspondences, answers[0].correspondences);
            assert_eq!(
                (later.cache.result_hits, later.cache.result_misses),
                (answers[0].cache.result_hits, answers[0].cache.result_misses),
                "{request:?} looked up or found a kept result"
            );
        }
    }

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// The tenant cache keeps one tokenization per distinct element name:
/// `NamePath` derives its long-name token sets from the element names'
/// sets, so no long path name (which the scope LRU would never evict)
/// ever enters the cache.
#[test]
fn tenant_cache_tokenizes_element_names_only() {
    let state = ServerState::open(coma_repo::MemoryBackend::new(), 8).unwrap();
    let (socket, handle) = spawn_server(state, "tokens");
    let mut client = connect(&socket);

    let schemas = [
        ("Tok_a", 4, 5, "A"),
        ("Tok_b", 5, 4, "B"),
        ("Tok_c", 3, 6, "C"),
    ];
    let mut element_names = std::collections::BTreeSet::new();
    for (name, tables, columns, variant) in schemas {
        let schema = inline(name, tables, columns, variant);
        let imported = coma_sql::import_ddl(&schema.text, name).unwrap();
        let paths = coma_graph::PathSet::new(&imported).unwrap();
        element_names.extend(paths.iter().map(|p| paths.name(&imported, p).to_string()));
        client
            .call_ok(&Request::PutSchema("acme".to_string(), schema))
            .unwrap();
    }
    let stored = |name: &str| SchemaRef::Stored(name.to_string());
    for (source, target) in [("Tok_a", "Tok_b"), ("Tok_b", "Tok_c"), ("Tok_c", "Tok_a")] {
        for plan in [
            PlanSpec::Default,
            PlanSpec::TopKPruned(3),
            PlanSpec::CandidateIndex(3),
        ] {
            client
                .call_ok(&Request::Match(MatchRequest {
                    tenant: "acme".to_string(),
                    source: stored(source),
                    target: stored(target),
                    plan,
                    config: MatchConfig::default(),
                    store: false,
                }))
                .unwrap();
        }
    }

    let Response::Stats(stats) = client.call_ok(&Request::Stats("acme".to_string())).unwrap()
    else {
        panic!("expected Stats");
    };
    assert!(stats.cache.token_entries > 0, "matches must tokenize names");
    assert!(
        stats.cache.token_entries <= element_names.len() as u64,
        "{} cached tokenizations for {} distinct element names: long path names leaked in",
        stats.cache.token_entries,
        element_names.len()
    );

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_clients_share_one_server() {
    let state = ServerState::open(coma_repo::MemoryBackend::new(), 8).unwrap();
    let (socket, handle) = spawn_server(state, "concurrent");

    // Deliberately stays connected (and idle) for the whole test: a
    // graceful shutdown must not wait forever on idle sessions.
    let mut setup = connect(&socket);
    setup
        .call_ok(&Request::PutSchema(
            "acme".to_string(),
            inline("Conc_src", 5, 6, "A"),
        ))
        .unwrap();
    setup
        .call_ok(&Request::PutSchema(
            "acme".to_string(),
            inline("Conc_tgt", 5, 6, "B"),
        ))
        .unwrap();

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut client = connect(&socket);
                let mut counts = Vec::new();
                for _ in 0..3 {
                    let request = match_request(
                        "acme",
                        SchemaRef::Stored("Conc_src".to_string()),
                        SchemaRef::Stored("Conc_tgt".to_string()),
                        false,
                    );
                    let Response::Matched(response) = client.call_ok(&request).unwrap() else {
                        panic!("expected Matched");
                    };
                    counts.push(response.correspondences.len());
                }
                counts
            })
        })
        .collect();

    let all: Vec<Vec<usize>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let expected = all[0][0];
    assert!(expected > 0);
    for counts in &all {
        for &count in counts {
            assert_eq!(count, expected, "all sessions must see identical results");
        }
    }

    let mut client = connect(&socket);
    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

#[test]
fn reuse_round_trip_composes_stored_mappings_and_falls_back() {
    use coma_core::{
        Auxiliary, ComposeCombine, EngineConfig, MatchContext, MatchPlan, MatchStrategy,
        MatcherLibrary, PlanEngine,
    };
    use coma_graph::PathSet;
    use coma_repo::{MappingKind, Repository};

    let state = ServerState::open(coma_repo::MemoryBackend::new(), 8).unwrap();
    let (socket, handle) = spawn_server(state, "reuse");
    let mut client = connect(&socket);

    // Three schemas; S1↔S2 and S2↔S3 matched fresh and stored, so S2 is
    // the pivot connecting S1 to S3.
    for (name, variant) in [("S1", "A"), ("S2", "B"), ("S3", "C")] {
        client
            .call_ok(&Request::PutSchema(
                "acme".to_string(),
                inline(name, 3, 4, variant),
            ))
            .unwrap();
    }
    for (a, b) in [("S1", "S2"), ("S2", "S3")] {
        let Response::Matched(r) = client
            .call_ok(&match_request(
                "acme",
                SchemaRef::Stored(a.to_string()),
                SchemaRef::Stored(b.to_string()),
                true,
            ))
            .unwrap()
        else {
            panic!("expected Matched");
        };
        assert!(!r.correspondences.is_empty(), "{a}↔{b} must match fresh");
    }

    // Reuse request S1↔S3: answered from the stored-mapping graph.
    let Response::Matched(reused) = client
        .call_ok(&Request::Match(MatchRequest {
            tenant: "acme".to_string(),
            source: SchemaRef::Stored("S1".to_string()),
            target: SchemaRef::Stored("S3".to_string()),
            plan: PlanSpec::Reuse(ReuseSpec {
                kind: None,
                compose: ComposeCombine::Average,
                max_hops: 3,
            }),
            config: MatchConfig::default(),
            store: false,
        }))
        .unwrap()
    else {
        panic!("expected Matched");
    };
    assert_eq!(reused.reused, Some(true));
    assert_eq!(reused.reuse_path.as_deref(), Some("S2"));
    assert!(
        !reused.correspondences.is_empty(),
        "composition over the S2 pivot must carry correspondences"
    );

    // Replicate the whole pipeline in-process — same library, auxiliary
    // tables, engine defaults and plans — and require the server's reuse
    // answer bit-identically.
    let library = MatcherLibrary::standard();
    let aux = Auxiliary::standard();
    // The server runs `MatchConfig::default()` through its config
    // translation, which turns streaming fusion off.
    let engine_cfg = EngineConfig::default().with_fuse_pruning(false);
    let parse =
        |name: &str, variant: &str| coma_sql::import_ddl(&big_ddl(3, 4, variant), name).unwrap();
    let s1 = parse("S1", "A");
    let s2 = parse("S2", "B");
    let s3 = parse("S3", "C");
    let mut repo = Repository::new();
    for s in [&s1, &s2, &s3] {
        repo.put_schema(s.clone());
    }
    let fresh_plan = MatchPlan::from(&MatchStrategy::paper_default());
    for (src, tgt) in [(&s1, &s2), (&s2, &s3)] {
        let sp = PathSet::new(src).unwrap();
        let tp = PathSet::new(tgt).unwrap();
        let ctx = MatchContext::new(src, tgt, &sp, &tp, &aux).with_repository(&repo);
        let outcome = PlanEngine::with_config(&library, engine_cfg.clone())
            .execute(&ctx, &fresh_plan)
            .unwrap();
        let mapping = outcome.result.to_mapping(&ctx, MappingKind::Automatic);
        repo.put_mapping(mapping);
    }
    let sp = PathSet::new(&s1).unwrap();
    let tp = PathSet::new(&s3).unwrap();
    let ctx = MatchContext::new(&s1, &s3, &sp, &tp, &aux).with_repository(&repo);
    let reuse_plan = MatchPlan::reuse_chains(None, ComposeCombine::Average, 3).unwrap();
    let outcome = PlanEngine::with_config(&library, engine_cfg.clone())
        .execute(&ctx, &reuse_plan)
        .unwrap();
    let mapping = outcome.result.to_mapping(&ctx, MappingKind::Automatic);
    let mut local: Vec<(String, String, f64)> = mapping
        .correspondences
        .iter()
        .map(|c| (c.source.clone(), c.target.clone(), c.similarity))
        .collect();
    // The server's response ordering: similarity desc, then paths.
    local.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
            .then_with(|| a.1.cmp(&b.1))
    });
    let wire: Vec<(String, String, f64)> = reused
        .correspondences
        .iter()
        .map(|c| (c.source_path.clone(), c.target_path.clone(), c.similarity))
        .collect();
    assert_eq!(local, wire, "server reuse must equal the in-process result");

    // No-path case: two fresh schemas with no stored mappings fall back
    // to fresh matching, flagged — not an error, not empty.
    for (name, variant) in [("X1", "A"), ("X2", "B")] {
        client
            .call_ok(&Request::PutSchema(
                "acme".to_string(),
                inline(name, 3, 4, variant),
            ))
            .unwrap();
    }
    let Response::Matched(fallback) = client
        .call_ok(&Request::Match(MatchRequest {
            tenant: "acme".to_string(),
            source: SchemaRef::Stored("X1".to_string()),
            target: SchemaRef::Stored("X2".to_string()),
            plan: PlanSpec::Reuse(ReuseSpec::default()),
            config: MatchConfig::default(),
            store: false,
        }))
        .unwrap()
    else {
        panic!("expected Matched");
    };
    assert_eq!(fallback.reused, Some(false));
    assert_eq!(fallback.reuse_path, None);
    assert!(
        !fallback.correspondences.is_empty(),
        "fallback must produce the fresh Default-plan result"
    );
    // Flagging is per-plan: a plain Default request reports no reuse info.
    let Response::Matched(plain) = client
        .call_ok(&match_request(
            "acme",
            SchemaRef::Stored("X1".to_string()),
            SchemaRef::Stored("X2".to_string()),
            false,
        ))
        .unwrap()
    else {
        panic!("expected Matched");
    };
    assert_eq!(plain.reused, None);
    assert_eq!(plain.correspondences, fallback.correspondences);

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

#[test]
fn deeply_nested_frame_ends_only_its_own_session() {
    use std::io::{Read, Write};
    let state = ServerState::open(coma_repo::MemoryBackend::new(), 8).unwrap();
    let (socket, handle) = spawn_server(state, "nested");
    let mut bystander = connect(&socket);
    assert_eq!(bystander.call(&Request::Ping).unwrap(), Response::Pong);

    // One well-framed 64 KiB payload of `[`: far deeper than any request,
    // deep enough to overflow a session thread's stack if parsed without
    // a bound.
    let payload = vec![b'['; 64 * 1024];
    let mut hostile = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    hostile
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    hostile.write_all(&payload).unwrap();
    // The server drops that session like any malformed frame: EOF, no
    // response.
    let mut rest = Vec::new();
    hostile.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no response to a malformed frame");

    // Everyone else is still served.
    assert_eq!(bystander.call(&Request::Ping).unwrap(), Response::Pong);
    assert_eq!(
        connect(&socket).call(&Request::Ping).unwrap(),
        Response::Pong
    );

    bystander.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

#[test]
fn malformed_requests_get_error_responses_not_session_death() {
    let state = ServerState::open(coma_repo::MemoryBackend::new(), 8).unwrap();
    let (socket, handle) = spawn_server(state, "errors");
    let mut client = connect(&socket);

    // Unknown stored schema.
    let response = client
        .call(&match_request(
            "acme",
            SchemaRef::Stored("nope".to_string()),
            SchemaRef::Stored("also_nope".to_string()),
            false,
        ))
        .unwrap();
    assert!(matches!(response, Response::Error(_)));

    // Unparseable inline schema.
    let response = client
        .call(&Request::PutSchema(
            "acme".to_string(),
            InlineSchema {
                name: "bad".to_string(),
                format: SchemaFormat::Sql,
                text: "this is not DDL".to_string(),
            },
        ))
        .unwrap();
    assert!(matches!(response, Response::Error(_)));

    // Degenerate plan parameters are rejected by the pre-execution
    // analyzer with a structured frame pinning the offending node — the
    // plan never executes.
    let response = client
        .call(&Request::Match(MatchRequest {
            tenant: "acme".to_string(),
            source: SchemaRef::Inline(inline("x", 2, 2, "A")),
            target: SchemaRef::Inline(inline("y", 2, 2, "B")),
            plan: PlanSpec::TopKPruned(0),
            config: MatchConfig::default(),
            store: false,
        }))
        .unwrap();
    let Response::InvalidPlan(diagnostics) = response else {
        panic!("expected InvalidPlan, got {response:?}");
    };
    assert!(
        diagnostics.iter().any(|d| d.severity == "error"
            && d.code == "E_TOPK_ZERO"
            && d.node_path.contains("TopK")),
        "expected an E_TOPK_ZERO error diagnostic, got {diagnostics:?}"
    );

    // The session is still alive after all of that.
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}
