//! Persistence-path integration tests: roundtrip determinism, atomic
//! file-backend behavior, corruption handling, keyed-replace semantics,
//! and concurrent reader consistency under the `RwLock`.

use coma_graph::{Node, Schema, SchemaBuilder};
use coma_repo::{
    FileBackend, Mapping, MappingKind, PersistentRepository, Repository, RepositoryBackend,
    RepositoryError, StoredCube,
};
use std::path::PathBuf;

fn schema(name: &str, leaves: &[&str]) -> Schema {
    let mut b = SchemaBuilder::new(name);
    let root = b.add_node(Node::new(name));
    for leaf in leaves {
        let c = b.add_node(Node::new(*leaf));
        b.add_child(root, c).unwrap();
    }
    b.build().unwrap()
}

fn mapping(a: &str, b: &str, kind: MappingKind, sim: f64) -> Mapping {
    let mut m = Mapping::new(a, b, kind);
    m.push(format!("{a}.x"), format!("{b}.x"), sim);
    m
}

fn cube(a: &str, b: &str, matchers: &[&str], value: f64) -> StoredCube {
    StoredCube {
        source_schema: a.into(),
        target_schema: b.into(),
        matchers: matchers.iter().map(|m| m.to_string()).collect(),
        source_paths: vec![format!("{a}.x")],
        target_paths: vec![format!("{b}.x")],
        values: vec![value; matchers.len()],
    }
}

fn populated() -> Repository {
    let mut repo = Repository::new();
    repo.put_schema(schema("PO1", &["shipTo", "billTo", "poNo"]));
    repo.put_schema(schema("PO2", &["deliverTo", "invoiceTo", "orderNum"]));
    repo.put_mapping(mapping("PO1", "PO2", MappingKind::Automatic, 0.72));
    repo.put_mapping(mapping("PO1", "PO2", MappingKind::Manual, 1.0));
    repo.put_cube(cube("PO1", "PO2", &["Name", "TypeName"], 0.5));
    repo
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("coma_persistence_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}_{}.json", name, std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn save_load_save_is_byte_identical() {
    let path = temp_store("roundtrip");
    let backend = FileBackend::new(&path);
    backend.persist(&populated()).unwrap();
    let first = std::fs::read(&path).unwrap();

    let reloaded = backend.load().unwrap();
    backend.persist(&reloaded).unwrap();
    let second = std::fs::read(&path).unwrap();

    assert!(!first.is_empty());
    assert_eq!(first, second, "save -> load -> save must be byte-identical");
    std::fs::remove_file(&path).ok();
}

/// The exact bytes of `populated()`, pretty (the store file) and compact:
/// any change to the repository format or the JSON writer shows up here.
#[test]
fn persisted_bytes_match_the_golden_files() {
    let path = temp_store("golden");
    FileBackend::new(&path).persist(&populated()).unwrap();
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(written, include_str!("golden/populated.pretty.json"));
    assert_eq!(
        serde_json::to_string(&populated()).unwrap(),
        include_str!("golden/populated.compact.json")
    );
}

#[test]
fn reopened_repository_sees_everything_stored() {
    let path = temp_store("reopen");
    {
        let handle = PersistentRepository::open(FileBackend::new(&path)).unwrap();
        handle
            .mutate(|r| {
                r.put_schema(schema("S1", &["a", "b"]));
                r.put_mapping(mapping("S1", "S2", MappingKind::Automatic, 0.8));
                r.put_cube(cube("S1", "S2", &["Name"], 0.8));
            })
            .unwrap();
        // Handle dropped: simulates a process exit.
    }
    let handle = PersistentRepository::open(FileBackend::new(&path)).unwrap();
    let repo = handle.read();
    assert_eq!(repo.schema_count(), 1);
    assert_eq!(repo.schema("S1").unwrap().node_count(), 3);
    assert_eq!(repo.mappings().len(), 1);
    assert_eq!(repo.cube_count(), 1);
    drop(repo);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_store_surfaces_format_error() {
    for garbage in [
        "{ not json",                 // syntactically broken
        "[1, 2, 3]",                  // valid JSON, wrong shape
        "{\"schemas\": 7}",           // wrong field type
        "{\"schemas\": {}, \"mappin", // truncated mid-write
        "",                           // empty file
    ] {
        let path = temp_store("corrupt");
        std::fs::write(&path, garbage).unwrap();
        let backend = FileBackend::new(&path);
        match backend.load() {
            Err(RepositoryError::Format(_)) => {}
            other => panic!("corrupted store {garbage:?} must yield Format, got {other:?}"),
        }
        // Opening a handle propagates the error instead of wiping the file.
        assert!(PersistentRepository::open(FileBackend::new(&path)).is_err());
        assert!(path.exists(), "a bad load must not destroy the store file");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn deeply_nested_store_is_a_format_error() {
    let path = temp_store("nested");
    std::fs::write(&path, "[".repeat(64 * 1024)).unwrap();
    match FileBackend::new(&path).load() {
        Err(RepositoryError::Format(_)) => {}
        other => panic!("a 64 KiB nested store must yield Format, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn persist_replaces_store_atomically_leaving_no_temp_files() {
    let path = temp_store("atomic");
    let backend = FileBackend::new(&path);
    backend.persist(&populated()).unwrap();
    backend.persist(&populated()).unwrap();
    let dir = path.parent().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains("atomic"))
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "persist must clean up temp files");
    assert!(backend.load().is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_flushes_never_fail_or_expose_a_partial_store() {
    let path = temp_store("concurrent_flush");
    let handle = PersistentRepository::open(FileBackend::new(&path)).unwrap();
    // Big enough (~150 kB) that two flushes overlap while writing.
    let leaves: Vec<String> = (0..60).map(|i| format!("element{i}")).collect();
    let leaves: Vec<&str> = leaves.iter().map(String::as_str).collect();
    handle
        .mutate(|r| {
            for i in 0..12 {
                r.put_schema(schema(&format!("S{i}"), &leaves));
                r.put_mapping(mapping(&format!("S{i}"), "S0", MappingKind::Automatic, 0.5));
            }
        })
        .unwrap();
    let expected = std::fs::read(&path).unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let flushers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..60).try_for_each(|_| handle.flush())
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            let mut torn = 0;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                if std::fs::read(&path).unwrap() != expected {
                    torn += 1;
                }
            }
            torn
        });
        let flushed: Vec<_> = flushers.into_iter().map(|f| f.join().unwrap()).collect();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(reader.join().unwrap(), 0, "a read saw a partial store");
        for result in flushed {
            result.expect("concurrent flushes must not fail");
        }
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn restore_replaces_keyed_results_instead_of_appending() {
    let mut repo = Repository::new();
    repo.put_mapping(mapping("A", "B", MappingKind::Automatic, 0.5));
    repo.put_mapping(mapping("A", "B", MappingKind::Automatic, 0.9));
    assert_eq!(repo.mappings().len(), 1, "same key must replace");
    assert_eq!(repo.mappings()[0].correspondences[0].similarity, 0.9);

    // A different kind, orientation, or pair is a different key.
    repo.put_mapping(mapping("A", "B", MappingKind::Manual, 1.0));
    repo.put_mapping(mapping("B", "A", MappingKind::Automatic, 0.4));
    repo.put_mapping(mapping("A", "C", MappingKind::Automatic, 0.4));
    assert_eq!(repo.mappings().len(), 4);

    repo.put_cube(cube("A", "B", &["Name"], 0.5));
    repo.put_cube(cube("A", "B", &["Name"], 0.8));
    assert_eq!(repo.cube_count(), 1, "same cube key must replace");
    assert_eq!(repo.cubes_for("A", "B")[0].values, vec![0.8]);
    repo.put_cube(cube("A", "B", &["Name", "Leaves"], 0.7));
    assert_eq!(
        repo.cube_count(),
        2,
        "a different matcher set is a new cube"
    );
}

#[test]
fn concurrent_readers_see_consistent_snapshots() {
    let handle = std::sync::Arc::new(PersistentRepository::in_memory());
    // Writers keep the mapping count oscillating between full rewrites;
    // every reader snapshot must be internally consistent (the mapping
    // and its cube are always stored in the same mutate call).
    let rounds = 200;
    std::thread::scope(|scope| {
        let writer = std::sync::Arc::clone(&handle);
        scope.spawn(move || {
            for i in 0..rounds {
                let sim = (i % 10) as f64 / 10.0;
                writer
                    .mutate(|r| {
                        r.put_mapping(mapping("S1", "S2", MappingKind::Automatic, sim));
                        r.put_cube(cube("S1", "S2", &["Name"], sim));
                    })
                    .unwrap();
            }
        });
        for _ in 0..4 {
            let reader = std::sync::Arc::clone(&handle);
            scope.spawn(move || {
                for _ in 0..rounds {
                    let repo = reader.read();
                    let mappings = repo.mappings_between("S1", "S2");
                    let cubes = repo.cubes_for("S1", "S2");
                    assert!(mappings.len() <= 1, "keyed replace: never duplicated");
                    assert_eq!(mappings.len(), cubes.len(), "snapshot must be consistent");
                    if let (Some(m), Some(c)) = (mappings.first(), cubes.first()) {
                        // The writer stores mapping and cube with the same
                        // similarity in one mutation; a torn read would
                        // disagree.
                        assert_eq!(m.correspondences[0].similarity, c.values[0]);
                    }
                }
            });
        }
    });
    assert_eq!(handle.read().mappings().len(), 1);
}
