//! Pluggable persistence backends for the repository.
//!
//! The paper's repository is "DBMS-based" — schemas and match results
//! outlive any single matcher execution. [`RepositoryBackend`] is the
//! seam that gives the embedded [`Repository`] the same property: a
//! backend knows how to load the persisted repository, how to persist one
//! full snapshot, and how to make one write's changes durable. Two
//! implementations ship:
//!
//! * [`MemoryBackend`] — keeps the serialized snapshot in process memory.
//!   The store for tests and for callers that want repository semantics
//!   without touching the filesystem.
//! * [`FileBackend`] — a human-readable JSON snapshot plus an append-only,
//!   checksummed log of the writes made since, the way a DBMS pairs a
//!   checkpoint with a log: a write appends one small synced frame, and
//!   the snapshot is rewritten (atomically: a temp file of its own plus a
//!   rename) only when the log outgrows it. A crash leaves the previous
//!   snapshot intact and at worst a torn last frame, which load cuts off.
//!
//! [`PersistentRepository`] wraps a backend plus an in-memory
//! [`Repository`] behind an `RwLock`: reads are concurrent snapshots,
//! mutations are write-through (every successful [`PersistentRepository::mutate`]
//! is durable before it returns), so a process restart via
//! [`PersistentRepository::open`] sees everything an earlier process
//! stored.

use crate::{Mutation, Repository, RepositoryError};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A repository persistence backend: loads the persisted repository,
/// persists whole-repository snapshots, and makes single writes durable.
///
/// Implementations must be cheap to call with an empty store (first run)
/// and must never leave a partially written snapshot visible to a
/// subsequent [`RepositoryBackend::load`].
pub trait RepositoryBackend: Send + Sync {
    /// Loads the persisted repository, or an empty one when nothing has
    /// been persisted yet.
    fn load(&self) -> Result<Repository, RepositoryError>;

    /// Persists a consistent snapshot of the repository.
    fn persist(&self, repo: &Repository) -> Result<(), RepositoryError>;

    /// Human-readable description of where this backend stores data
    /// (a path for file backends, `"memory"` for the in-memory one).
    fn location(&self) -> String;

    /// Makes one [`PersistentRepository::mutate`] call durable: `changes`
    /// are what the call changed, in order, and `repo` is the state after
    /// them. A backend that keeps a log appends the changes as one unit,
    /// so that a reload applies all of them or none; the default persists
    /// the whole snapshot.
    fn append(&self, repo: &Repository, changes: &[Mutation]) -> Result<(), RepositoryError> {
        let _ = changes;
        self.persist(repo)
    }
}

/// The in-memory backend: the serialized snapshot lives in the process.
///
/// Behaves exactly like a persistent store across [`load`]/[`persist`]
/// calls within one process (it round-trips through the same JSON
/// serialization the file backend uses, so format bugs surface in tests
/// that never touch a disk), but everything dies with the process.
///
/// [`load`]: RepositoryBackend::load
/// [`persist`]: RepositoryBackend::persist
#[derive(Default)]
pub struct MemoryBackend {
    snapshot: Mutex<Option<String>>,
}

impl MemoryBackend {
    /// A backend with no persisted snapshot.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }
}

impl RepositoryBackend for MemoryBackend {
    fn load(&self) -> Result<Repository, RepositoryError> {
        match &*self.snapshot.lock() {
            Some(json) => Repository::from_json(json),
            None => Ok(Repository::new()),
        }
    }

    fn persist(&self, repo: &Repository) -> Result<(), RepositoryError> {
        *self.snapshot.lock() = Some(repo.to_json()?);
        Ok(())
    }

    fn location(&self) -> String {
        "memory".to_string()
    }
}

/// The snapshot-plus-log file backend.
///
/// **Snapshot.** The store path holds the whole repository as one
/// pretty-printed JSON document (the format [`Repository::to_json`]
/// writes). Persisting it writes a temporary file *in the same
/// directory*, fsyncs it, renames it over the store path and fsyncs the
/// directory, so the store file is always either the previous snapshot or
/// the new one, never a torn write, and the rename survives a crash.
/// One backend's persists take turns under its log lock, and every
/// persist gets a temp file of its own (`<store>.tmp.<pid>.<n>`, `n`
/// counting the process's persists), so that no two persists — of one
/// backend or of two on the same store — ever share a temp file.
///
/// **Log.** `<store>.log` holds the writes made since the snapshot. Its
/// 24-byte header is a magic (`COMALOG1`) and the length and a hash of
/// the exact snapshot bytes it extends (little-endian `u64`s); then come
/// frames, one per [`PersistentRepository::mutate`] call: the payload's
/// length (`u32`), its checksum (`u64`), and the payload, the compact
/// JSON of the call's `Vec<`[`Mutation`]`>`. An append writes one frame
/// (with the header, when the log is new) and `fdatasync`s it.
///
/// **Compaction.** A write that would grow the log past the snapshot's
/// length rewrites the snapshot instead and then empties the log, and so
/// does [`RepositoryBackend::persist`]. With no floor, the first write to
/// an empty store writes a snapshot.
///
/// **Load** parses the snapshot, then replays the frames of a log whose
/// header matches it, stopping at the first short, mis-checksummed or
/// unparsable frame; a log whose header does not match (a crash between a
/// compaction's rename and the log reset leaves one) is ignored. Load
/// never writes — a reader may load a live server's store — so a torn
/// tail stays on disk until the next append cuts it. A missing store
/// loads as an empty repository (first run); an unparseable snapshot
/// surfaces [`RepositoryError::Format`].
///
/// A failed append keeps its change in memory and makes the next write
/// (or persist) a full snapshot, so the disk catches up and nothing is
/// appended after a half-written frame. One process writes a store at a
/// time.
pub struct FileBackend {
    path: PathBuf,
    log_path: PathBuf,
    log: Mutex<Log>,
}

/// What a [`FileBackend`] knows about its log.
#[derive(Default)]
struct Log {
    /// The log, open for appending, once this backend has touched it.
    file: Option<File>,
    /// Bytes of the log holding its header and whole good frames: where
    /// the next frame goes. 0 when there is no usable log, so the next
    /// append writes a header first.
    len: u64,
    /// Length of the snapshot the log extends.
    snapshot_len: u64,
    /// Hash of that snapshot, once computed.
    snapshot_hash: Option<u64>,
    /// Whether the next write may append: the files were loaded or
    /// written by this backend, and no write has failed since. Otherwise
    /// the next write is a full snapshot, so the disk catches up.
    appendable: bool,
}

/// A log's first bytes: the format and its version.
const LOG_MAGIC: &[u8; 8] = b"COMALOG1";
/// Log header: the magic, then the snapshot's length and hash.
const HEADER_LEN: u64 = 24;
/// Frame head: the payload's length (`u32`) and checksum (`u64`).
const FRAME_HEAD: usize = 12;

impl FileBackend {
    /// A backend storing the repository at `path` and its log at
    /// `path` + `.log`. Neither file need exist yet; the parent directory
    /// must.
    pub fn new(path: impl Into<PathBuf>) -> FileBackend {
        let path = path.into();
        let mut log_path = path.clone().into_os_string();
        log_path.push(".log");
        FileBackend {
            path,
            log_path: log_path.into(),
            log: Mutex::new(Log::default()),
        }
    }

    /// The store (snapshot) path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The log path: the store path with `.log` appended.
    pub fn log_path(&self) -> &Path {
        &self.log_path
    }

    /// A temp path no other persist of this process uses.
    fn temp_path(&self) -> PathBuf {
        static PERSISTS: AtomicU64 = AtomicU64::new(0);
        let mut name = self
            .path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "repository.json".into());
        let n = PERSISTS.fetch_add(1, Ordering::Relaxed);
        name.push(format!(".tmp.{}.{n}", std::process::id()));
        self.path.with_file_name(name)
    }

    /// Rewrites the snapshot through the atomic path, then empties the
    /// log: the snapshot holds everything now.
    fn compact(&self, log: &mut Log, repo: &Repository) -> Result<(), RepositoryError> {
        // Until the log is reset it extends the old snapshot only.
        log.appendable = false;
        let json = repo.to_json()?;
        let tmp = self.temp_path();
        // Write + fsync the temp file before the rename, and sync the
        // directory after it: after a crash the store path must point at
        // either the old snapshot or a fully durable new one.
        let mut file = File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
        drop(file);
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            std::fs::remove_file(&tmp).ok();
            return Err(RepositoryError::Io(e));
        }
        sync_dir(&self.path)?;
        // The reset need not be synced: a crash that undoes it leaves a
        // log bound to the old snapshot, which load ignores.
        if log.file.is_none() {
            match OpenOptions::new().append(true).open(&self.log_path) {
                Ok(file) => log.file = Some(file),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        if let Some(file) = &log.file {
            file.set_len(0)?;
        }
        log.len = 0;
        log.snapshot_len = json.len() as u64;
        log.snapshot_hash = None;
        log.appendable = true;
        Ok(())
    }

    /// Opens the log for appending, creating it when missing; a new log's
    /// directory entry is synced so the file survives a crash.
    fn open_log(&self) -> io::Result<File> {
        match OpenOptions::new()
            .append(true)
            .create_new(true)
            .open(&self.log_path)
        {
            Ok(file) => {
                sync_dir(&self.path)?;
                Ok(file)
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                OpenOptions::new().append(true).open(&self.log_path)
            }
            Err(e) => Err(e),
        }
    }
}

impl RepositoryBackend for FileBackend {
    fn load(&self) -> Result<Repository, RepositoryError> {
        let mut log = self.log.lock();
        let snapshot = match std::fs::read_to_string(&self.path) {
            Ok(json) => json,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // First run: the first write writes the snapshot.
                *log = Log::default();
                return Ok(Repository::new());
            }
            Err(e) => return Err(RepositoryError::Io(e)),
        };
        let mut repo = Repository::from_json(&snapshot)?;
        let mut loaded = Log {
            snapshot_len: snapshot.len() as u64,
            appendable: true,
            ..Log::default()
        };
        match File::open(&self.log_path) {
            Ok(file) => {
                // A log never grows past its snapshot's length: bytes
                // beyond that cannot belong to it.
                let mut bytes = Vec::new();
                file.take(loaded.snapshot_len).read_to_end(&mut bytes)?;
                (loaded.len, loaded.snapshot_hash) = replay(&bytes, snapshot.as_bytes(), &mut repo);
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(RepositoryError::Io(e)),
        }
        *log = loaded;
        Ok(repo)
    }

    fn persist(&self, repo: &Repository) -> Result<(), RepositoryError> {
        self.compact(&mut self.log.lock(), repo)
    }

    fn append(&self, repo: &Repository, changes: &[Mutation]) -> Result<(), RepositoryError> {
        let mut guard = self.log.lock();
        let log = &mut *guard;
        let payload = serde_json::to_string(&changes)?;
        let end = log.len.max(HEADER_LEN) + (FRAME_HEAD + payload.len()) as u64;
        let payload_len = match u32::try_from(payload.len()) {
            Ok(len) if log.appendable && end <= log.snapshot_len => len,
            _ => return self.compact(log, repo),
        };
        // Until the frame is synced the log's tail is unknown.
        log.appendable = false;
        let mut frame = Vec::with_capacity((end - log.len) as usize);
        if log.len == 0 {
            let hash = match log.snapshot_hash {
                Some(hash) => hash,
                None => checksum(&std::fs::read(&self.path)?),
            };
            log.snapshot_hash = Some(hash);
            frame.extend_from_slice(LOG_MAGIC);
            frame.extend_from_slice(&log.snapshot_len.to_le_bytes());
            frame.extend_from_slice(&hash.to_le_bytes());
        }
        frame.extend_from_slice(&payload_len.to_le_bytes());
        frame.extend_from_slice(&checksum(payload.as_bytes()).to_le_bytes());
        frame.extend_from_slice(payload.as_bytes());
        let file = match &mut log.file {
            Some(file) => file,
            None => {
                // Cuts a torn or stale tail back to the last good frame.
                let file = self.open_log()?;
                file.set_len(log.len)?;
                log.file.insert(file)
            }
        };
        file.write_all(&frame)?;
        file.sync_data()?;
        log.len = end;
        log.appendable = true;
        Ok(())
    }

    fn location(&self) -> String {
        self.path.display().to_string()
    }
}

/// Replays onto `repo` the frames of a `log` that extends `snapshot`.
/// Returns the length of the log's good prefix — 0 when the log is not
/// bound to this snapshot — and the snapshot's hash when it was computed.
fn replay(log: &[u8], snapshot: &[u8], repo: &mut Repository) -> (u64, Option<u64>) {
    let header = |at: usize| {
        let bytes = log.get(at..at + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    };
    if log.get(..8) != Some(&LOG_MAGIC[..]) || header(8) != Some(snapshot.len() as u64) {
        return (0, None);
    }
    let hash = checksum(snapshot);
    if header(16) != Some(hash) {
        return (0, Some(hash));
    }
    let mut pos = HEADER_LEN as usize;
    while let Some((changes, next)) = read_frame(log, pos) {
        for change in changes {
            repo.apply(change);
        }
        pos = next;
    }
    (pos as u64, Some(hash))
}

/// Decodes the frame at `pos` of `log`: its changes and where the next
/// frame starts. `None` for a short, mis-checksummed or unparsable frame.
fn read_frame(log: &[u8], pos: usize) -> Option<(Vec<Mutation>, usize)> {
    let rest = log.get(pos..)?;
    let head = rest.get(..FRAME_HEAD)?;
    let len = u32::from_le_bytes(head[..4].try_into().ok()?) as usize;
    let sum = u64::from_le_bytes(head[4..].try_into().ok()?);
    // The length is checked against the bytes left before anything is
    // allocated for the payload.
    let payload = rest.get(FRAME_HEAD..FRAME_HEAD.checked_add(len)?)?;
    if checksum(payload) != sum {
        return None;
    }
    let changes: Vec<Mutation> = serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()?;
    // `put_cube` asserts a cube's dimensions; a frame breaking them is
    // damaged like any other.
    if changes
        .iter()
        .any(|c| matches!(c, Mutation::PutCube(cube) if !cube.is_consistent()))
    {
        return None;
    }
    Some((changes, pos + FRAME_HEAD + len))
}

/// A 64-bit hash of `bytes` for the log's snapshot binding and frame
/// checksums: std-only and, unlike `DefaultHasher`, the same on every
/// build and platform. Each 8-byte word is folded into the state by a
/// 64×64→128-bit multiply; the length seeds the state, so the zero
/// padding of the last word cannot make two lengths collide.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, word: u64| {
        let p = u128::from(h ^ word) * u128::from(K);
        (p as u64) ^ (p >> 64) as u64
    };
    let mut words = bytes.chunks_exact(8);
    let mut h = mix(K, bytes.len() as u64);
    for word in &mut words {
        h = mix(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
}

/// Syncs the directory holding `path`, so that a rename into it or a file
/// created in it survives a crash.
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    // Only unix lets a directory be opened and synced.
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// A thread-safe repository handle bound to a persistence backend.
///
/// Reads take a shared lock and see a consistent snapshot; mutations take
/// the exclusive lock, apply, then make their changes durable through the
/// backend before returning (write-through), so a successful
/// [`PersistentRepository::mutate`] means the change is on disk. Opening a
/// handle loads whatever the backend holds, which is how state survives
/// process restarts.
pub struct PersistentRepository {
    inner: RwLock<Repository>,
    backend: Box<dyn RepositoryBackend>,
}

impl PersistentRepository {
    /// Opens a repository from `backend`, loading the persisted state
    /// (empty on first run), and switches its journal on so that every
    /// `mutate` call knows what it changed.
    pub fn open(
        backend: impl RepositoryBackend + 'static,
    ) -> Result<PersistentRepository, RepositoryError> {
        let mut inner = backend.load()?;
        inner.start_journal();
        Ok(PersistentRepository {
            inner: RwLock::new(inner),
            backend: Box::new(backend),
        })
    }

    /// An in-memory repository handle (a [`MemoryBackend`]).
    pub fn in_memory() -> PersistentRepository {
        PersistentRepository::open(MemoryBackend::new()).expect("memory backend cannot fail")
    }

    /// A shared read snapshot of the repository.
    pub fn read(&self) -> RwLockReadGuard<'_, Repository> {
        self.inner.read()
    }

    /// Applies `f` under the exclusive lock and hands the changes it made
    /// to the backend ([`RepositoryBackend::append`]) before releasing the
    /// lock (write-through). A call that changes nothing writes nothing.
    /// The mutation is kept in memory even if persisting fails — the
    /// caller can retry with [`PersistentRepository::flush`].
    pub fn mutate<R>(&self, f: impl FnOnce(&mut Repository) -> R) -> Result<R, RepositoryError> {
        let mut repo = self.inner.write();
        let out = f(&mut repo);
        match repo.take_journal() {
            Some(changes) if changes.is_empty() => {}
            Some(changes) => self.backend.append(&repo, &changes)?,
            // `f` replaced the whole repository, journal included.
            None => {
                repo.start_journal();
                self.backend.persist(&repo)?;
            }
        }
        Ok(out)
    }

    /// Persists the current state through the backend: for a
    /// [`FileBackend`], a compaction.
    pub fn flush(&self) -> Result<(), RepositoryError> {
        self.backend.persist(&self.inner.read())
    }

    /// Where the backend stores data (see [`RepositoryBackend::location`]).
    pub fn location(&self) -> String {
        self.backend.location()
    }
}

impl std::fmt::Debug for PersistentRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentRepository")
            .field("location", &self.location())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mapping, MappingKind};

    fn mapping(a: &str, b: &str) -> Mapping {
        let mut m = Mapping::new(a, b, MappingKind::Automatic);
        m.push(format!("{a}.x"), format!("{b}.x"), 0.9);
        m
    }

    #[test]
    fn memory_backend_round_trips() {
        let backend = MemoryBackend::new();
        assert_eq!(backend.load().unwrap().schema_count(), 0);
        let mut repo = Repository::new();
        repo.put_mapping(mapping("A", "B"));
        backend.persist(&repo).unwrap();
        assert_eq!(backend.load().unwrap().mappings().len(), 1);
        assert_eq!(backend.location(), "memory");
    }

    #[test]
    fn persistent_repository_write_through() {
        let backend = MemoryBackend::new();
        let handle = PersistentRepository::open(backend).unwrap();
        handle.mutate(|r| r.put_mapping(mapping("A", "B"))).unwrap();
        assert_eq!(handle.read().mappings().len(), 1);
        // A mutation that returns a value passes it through.
        let n = handle.mutate(|r| r.mappings().len()).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn file_backend_missing_file_is_empty() {
        let path = std::env::temp_dir().join("coma_backend_missing.json");
        std::fs::remove_file(&path).ok();
        let backend = FileBackend::new(&path);
        assert_eq!(backend.load().unwrap().schema_count(), 0);
    }
}
