//! Pluggable persistence backends for the repository.
//!
//! The paper's repository is "DBMS-based" — schemas and match results
//! outlive any single matcher execution. [`RepositoryBackend`] is the
//! seam that gives the embedded [`Repository`] the same property: a
//! backend knows how to load one full repository snapshot and how to
//! persist one, nothing more. Two implementations ship:
//!
//! * [`MemoryBackend`] — keeps the serialized snapshot in process memory.
//!   The store for tests and for callers that want repository semantics
//!   without touching the filesystem.
//! * [`FileBackend`] — a single human-readable JSON file, written
//!   atomically (a temp file of each persist's own + rename in the same
//!   directory), so a crash mid-write never corrupts the previous good
//!   snapshot, concurrent persists never disturb each other, and
//!   concurrent readers of the file never observe a half-written state.
//!
//! [`PersistentRepository`] wraps a backend plus an in-memory
//! [`Repository`] behind an `RwLock`: reads are concurrent snapshots,
//! mutations are write-through (every successful [`PersistentRepository::mutate`]
//! persists before returning), so a process restart via
//! [`PersistentRepository::open`] sees everything an earlier process
//! stored.

use crate::{Repository, RepositoryError};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A repository persistence backend: loads and stores whole-repository
/// snapshots.
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

/// The single-file JSON backend.
///
/// The whole repository is one pretty-printed JSON document (the same
/// format [`Repository::save`] always wrote). Persisting writes to a
/// temporary file *in the same directory* and renames it over the store
/// path — rename is atomic on POSIX filesystems, so the store file is
/// always either the previous snapshot or the new one, never a torn
/// write. Every persist gets a temp file of its own
/// (`<store>.tmp.<pid>.<n>`, `n` counting the process's persists), so
/// persists may run concurrently — two sessions flushing at once — and
/// each rename still installs a complete snapshot; the last one wins.
/// A missing file loads as an empty repository (first run);
/// unparseable content surfaces [`RepositoryError::Format`].
pub struct FileBackend {
    path: PathBuf,
}

impl FileBackend {
    /// A backend storing the repository at `path`. The file need not
    /// exist yet; its parent directory must.
    pub fn new(path: impl Into<PathBuf>) -> FileBackend {
        FileBackend { path: path.into() }
    }

    /// The store path.
    pub fn path(&self) -> &Path {
        &self.path
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
}

impl RepositoryBackend for FileBackend {
    fn load(&self) -> Result<Repository, RepositoryError> {
        let json = match std::fs::read_to_string(&self.path) {
            Ok(json) => json,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Repository::new()),
            Err(e) => return Err(RepositoryError::Io(e)),
        };
        Repository::from_json(&json)
    }

    fn persist(&self, repo: &Repository) -> Result<(), RepositoryError> {
        use std::io::Write as _;
        let json = repo.to_json()?;
        let tmp = self.temp_path();
        // Write + fsync the temp file before the rename: after a crash the
        // store path must point at either the old snapshot or a fully
        // durable new one.
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
        drop(file);
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            std::fs::remove_file(&tmp).ok();
            return Err(RepositoryError::Io(e));
        }
        Ok(())
    }

    fn location(&self) -> String {
        self.path.display().to_string()
    }
}

/// A thread-safe repository handle bound to a persistence backend.
///
/// Reads take a shared lock and see a consistent snapshot; mutations take
/// the exclusive lock, apply, then persist through the backend before
/// returning (write-through), so a successful [`PersistentRepository::mutate`]
/// means the change is on disk. Opening a handle loads whatever the
/// backend holds, which is how state survives process restarts.
pub struct PersistentRepository {
    inner: RwLock<Repository>,
    backend: Box<dyn RepositoryBackend>,
}

impl PersistentRepository {
    /// Opens a repository from `backend`, loading the persisted snapshot
    /// (empty on first run).
    pub fn open(
        backend: impl RepositoryBackend + 'static,
    ) -> Result<PersistentRepository, RepositoryError> {
        let inner = backend.load()?;
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

    /// Applies `f` under the exclusive lock and persists the result
    /// through the backend (write-through). The mutation is kept in
    /// memory even if persisting fails — the caller can retry with
    /// [`PersistentRepository::flush`].
    pub fn mutate<R>(&self, f: impl FnOnce(&mut Repository) -> R) -> Result<R, RepositoryError> {
        let mut repo = self.inner.write();
        let out = f(&mut repo);
        self.backend.persist(&repo)?;
        Ok(out)
    }

    /// Persists the current state through the backend.
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
