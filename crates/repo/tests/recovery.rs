//! Crash and recovery tests of the file backend's snapshot plus log: a log
//! cut or damaged anywhere loads as the state after some prefix of
//! acknowledged `mutate` calls, a log bound to another snapshot is
//! ignored, and a failed append is caught up by the next write.

use coma_graph::{Node, Schema, SchemaBuilder};
use coma_repo::{
    FileBackend, Mapping, MappingKind, PersistentRepository, Repository, RepositoryBackend,
    StoredCube,
};
use std::fs;
use std::path::{Path, PathBuf};

fn schema(name: &str, leaves: usize) -> Schema {
    let mut b = SchemaBuilder::new(name);
    let root = b.add_node(Node::new(name));
    for i in 0..leaves {
        let c = b.add_node(Node::new(format!("element{i}")));
        b.add_child(root, c).unwrap();
    }
    b.build().unwrap()
}

fn mapping(a: &str, b: &str, sim: f64) -> Mapping {
    let mut m = Mapping::new(a, b, MappingKind::Automatic);
    m.push(format!("{a}.element0"), format!("{b}.element0"), sim);
    m
}

/// A base store several times larger than all the scripted writes
/// together, so that every one of them stays in the log.
fn base() -> Repository {
    let mut repo = Repository::new();
    for i in 0..6 {
        repo.put_schema(schema(&format!("S{i}"), 12));
    }
    repo.put_mapping(mapping("S0", "S1", 0.25));
    repo.put_mapping(mapping("S1", "S2", 0.5));
    repo
}

/// The scripted `mutate` calls, one per index: every mutator, a call of
/// three changes, and a remove-then-put that moves a mapping to the end.
const STEPS: usize = 5;

fn step(r: &mut Repository, i: usize) {
    match i {
        0 => r.put_mapping(mapping("S0", "S2", 0.125)),
        1 => {
            r.put_schema(schema("N1", 2));
            r.put_schema(schema("N2", 2));
            r.put_mapping(mapping("N1", "N2", 0.875));
        }
        2 => {
            r.remove_mappings_between("S0", "S1");
            r.put_mapping(mapping("S0", "S1", 0.75));
        }
        3 => r.put_mapping(mapping("S3", "S4", 0.625)),
        4 => r.put_cube(StoredCube {
            source_schema: "S3".into(),
            target_schema: "S4".into(),
            matchers: vec!["Name".into()],
            source_paths: vec!["S3.element0".into()],
            target_paths: vec!["S4.element0".into()],
            values: vec![0.625],
        }),
        _ => unreachable!(),
    }
}

/// The state after the scripted calls `calls`, applied to the base.
fn state_after(calls: &[usize]) -> String {
    let mut repo = base();
    for &i in calls {
        step(&mut repo, i);
    }
    repo.to_json().unwrap()
}

fn fresh_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("coma_recovery_tests")
        .join(format!("{name}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir.join("repo.json")
}

fn log_path(store: &Path) -> PathBuf {
    FileBackend::new(store).log_path().to_path_buf()
}

fn load(store: &Path) -> String {
    FileBackend::new(store)
        .load()
        .expect("a damaged log never fails a load")
        .to_json()
        .unwrap()
}

/// Writes the base snapshot, runs the scripted calls through a handle and
/// returns the log's length after each of them. Asserts that every call
/// was appended to the log and none rewrote the snapshot.
fn run_steps(store: &Path, calls: &[usize]) -> Vec<u64> {
    FileBackend::new(store).persist(&base()).unwrap();
    let snapshot = fs::read(store).unwrap();
    let handle = PersistentRepository::open(FileBackend::new(store)).unwrap();
    let mut ends = Vec::new();
    for &i in calls {
        handle.mutate(|r| step(r, i)).unwrap();
        ends.push(fs::metadata(log_path(store)).unwrap().len());
    }
    assert!(ends.windows(2).all(|w| w[0] < w[1]), "every call appends");
    assert_eq!(fs::read(store).unwrap(), snapshot, "no call compacts");
    ends
}

#[test]
fn log_cut_at_every_offset_loads_an_acknowledged_prefix() {
    let store = fresh_store("cut");
    let calls: Vec<usize> = (0..STEPS).collect();
    let ends = run_steps(&store, &calls);
    let log = fs::read(log_path(&store)).unwrap();
    assert_eq!(log.len() as u64, *ends.last().unwrap());
    let states: Vec<String> = (0..=STEPS).map(|k| state_after(&calls[..k])).collect();
    // The last four frames, the three-change call among them.
    for cut in ends[0]..=log.len() as u64 {
        fs::write(log_path(&store), &log[..cut as usize]).unwrap();
        let acknowledged = ends.iter().filter(|&&end| end <= cut).count();
        assert!(
            load(&store) == states[acknowledged],
            "a log cut at byte {cut} must load the first {acknowledged} calls"
        );
    }
    // Inside the header the log is not usable at all: the base alone.
    fs::write(log_path(&store), &log[..10]).unwrap();
    assert_eq!(load(&store), states[0]);
    fs::remove_dir_all(store.parent().unwrap()).ok();
}

#[test]
fn torn_tail_is_cut_by_the_next_append() {
    let store = fresh_store("torn");
    let ends = run_steps(&store, &[0, 1, 2]);
    let torn = ends[2] - 5;
    let log = fs::read(log_path(&store)).unwrap();
    fs::write(log_path(&store), &log[..torn as usize]).unwrap();

    let handle = PersistentRepository::open(FileBackend::new(&store)).unwrap();
    assert_eq!(handle.read().to_json().unwrap(), state_after(&[0, 1]));
    assert_eq!(
        fs::metadata(log_path(&store)).unwrap().len(),
        torn,
        "load never writes"
    );
    handle.mutate(|r| step(r, 3)).unwrap();
    let appended = fs::read(log_path(&store)).unwrap();
    assert_eq!(appended[..ends[1] as usize], log[..ends[1] as usize]);
    drop(handle);
    assert_eq!(load(&store), state_after(&[0, 1, 3]));
    fs::remove_dir_all(store.parent().unwrap()).ok();
}

#[test]
fn stale_log_over_a_newer_snapshot_is_ignored() {
    let store = fresh_store("stale");
    run_steps(&store, &[2, 3]);
    let stale = fs::read(log_path(&store)).unwrap();
    // A compaction that crashes between its rename and the log reset.
    let handle = PersistentRepository::open(FileBackend::new(&store)).unwrap();
    handle.flush().unwrap();
    drop(handle);
    assert_eq!(fs::metadata(log_path(&store)).unwrap().len(), 0);
    fs::write(log_path(&store), &stale).unwrap();

    let expected = state_after(&[2, 3]);
    assert_eq!(load(&store), expected);
    // Replaying that log would have moved S0→S1 behind S3→S4.
    let mut replayed = Repository::from_json(&fs::read_to_string(&store).unwrap()).unwrap();
    step(&mut replayed, 2);
    step(&mut replayed, 3);
    assert_ne!(replayed.to_json().unwrap(), expected);
    fs::remove_dir_all(store.parent().unwrap()).ok();
}

#[test]
fn hand_edited_snapshot_drops_the_log() {
    let store = fresh_store("edited");
    run_steps(&store, &[0, 1]);
    let snapshot = fs::read_to_string(&store).unwrap();
    // Same length, other bytes; then a different length.
    for edited in [
        snapshot.replacen("0.25", "0.35", 1),
        format!("{snapshot}\n"),
    ] {
        assert_ne!(edited, snapshot);
        fs::write(&store, &edited).unwrap();
        let alone = Repository::from_json(&edited).unwrap().to_json().unwrap();
        assert_eq!(load(&store), alone);
    }
    fs::remove_dir_all(store.parent().unwrap()).ok();
}

#[test]
fn flipped_byte_in_a_frame_cuts_the_log_there() {
    let store = fresh_store("flip");
    let calls: Vec<usize> = (0..STEPS).collect();
    let ends = run_steps(&store, &calls);
    let log = fs::read(log_path(&store)).unwrap();
    // Every byte of the fourth frame, its length and checksum included.
    let expected = state_after(&calls[..3]);
    for at in ends[2]..ends[3] {
        let mut damaged = log.clone();
        damaged[at as usize] ^= 0xFF;
        fs::write(log_path(&store), &damaged).unwrap();
        assert!(
            load(&store) == expected,
            "a byte flipped at {at} must cut the log before the fourth frame"
        );
    }
    fs::remove_dir_all(store.parent().unwrap()).ok();
}

#[test]
fn failed_append_is_caught_up_by_the_next_write() {
    let store = fresh_store("failed");
    FileBackend::new(&store).persist(&base()).unwrap();
    let handle = PersistentRepository::open(FileBackend::new(&store)).unwrap();
    // A directory where the log belongs makes the append fail.
    fs::create_dir(log_path(&store)).unwrap();
    assert!(handle.mutate(|r| step(r, 0)).is_err());
    assert_eq!(handle.read().to_json().unwrap(), state_after(&[0]));

    fs::remove_dir(log_path(&store)).unwrap();
    handle.mutate(|r| step(r, 1)).unwrap();
    let memory = handle.read().to_json().unwrap();
    assert_eq!(memory, state_after(&[0, 1]));
    drop(handle);
    assert_eq!(load(&store), memory);
    fs::remove_dir_all(store.parent().unwrap()).ok();
}

#[test]
fn repository_load_replays_the_log_and_save_compacts() {
    let store = fresh_store("load");
    FileBackend::new(&store).persist(&base()).unwrap();
    let handle = PersistentRepository::open(FileBackend::new(&store)).unwrap();
    assert!(!log_path(&store).exists(), "opening creates no file");
    handle.mutate(|r| r.schema_count()).unwrap();
    assert!(
        !log_path(&store).exists(),
        "a call that changes nothing writes nothing"
    );
    let calls: Vec<usize> = (0..STEPS).collect();
    for &i in &calls {
        handle.mutate(|r| step(r, i)).unwrap();
    }
    drop(handle);
    assert!(fs::metadata(log_path(&store)).unwrap().len() > 0);

    let loaded = Repository::load(&store).unwrap().to_json().unwrap();
    let opened = PersistentRepository::open(FileBackend::new(&store))
        .unwrap()
        .read()
        .to_json()
        .unwrap();
    assert_eq!(loaded, opened);
    assert_eq!(loaded, state_after(&calls));

    // `save` writes a whole snapshot and starts the log over.
    base().save(&store).unwrap();
    assert_eq!(fs::metadata(log_path(&store)).unwrap().len(), 0);
    assert_eq!(
        Repository::load(&store).unwrap().to_json().unwrap(),
        state_after(&[])
    );
    assert!(Repository::load(store.with_file_name("missing.json")).is_err());
    fs::remove_dir_all(store.parent().unwrap()).ok();
}

#[test]
fn log_compacts_once_it_would_outgrow_the_snapshot() {
    let store = fresh_store("compact");
    FileBackend::new(&store).persist(&base()).unwrap();
    let handle = PersistentRepository::open(FileBackend::new(&store)).unwrap();
    let mut compactions = 0;
    let mut snapshot = fs::metadata(&store).unwrap().len();
    for i in 0..40 {
        handle
            .mutate(|r| r.put_schema(schema(&format!("G{i}"), 8)))
            .unwrap();
        let now = fs::metadata(&store).unwrap().len();
        if now != snapshot {
            compactions += 1;
            snapshot = now;
        }
        let log = fs::metadata(log_path(&store)).map_or(0, |m| m.len());
        assert!(log <= snapshot, "the log never outgrows its snapshot");
    }
    assert!(compactions > 0);
    let memory = handle.read().to_json().unwrap();
    drop(handle);
    assert_eq!(load(&store), memory);
    fs::remove_dir_all(store.parent().unwrap()).ok();
}
