use crate::{FileBackend, Mapping, RepositoryBackend, StoredCube};
use coma_graph::Schema;
use parking_lot::RwLock;
use serde::{DeError, Deserialize, Deserializer, Serialize, Serializer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Errors from repository persistence.
#[derive(Debug)]
pub enum RepositoryError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Serialization / deserialization error.
    Format(serde_json::Error),
}

impl fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepositoryError::Io(e) => write!(f, "repository I/O error: {e}"),
            RepositoryError::Format(e) => write!(f, "repository format error: {e}"),
        }
    }
}

impl std::error::Error for RepositoryError {}

impl From<std::io::Error> for RepositoryError {
    fn from(e: std::io::Error) -> Self {
        RepositoryError::Io(e)
    }
}

impl From<serde_json::Error> for RepositoryError {
    fn from(e: serde_json::Error) -> Self {
        RepositoryError::Format(e)
    }
}

/// One transitive reuse path through the stored-mapping graph: a concrete
/// choice of oriented mappings `source → P1 → … → Pk → target`, ready for
/// repeated MatchCompose. Produced by [`Repository::pivot_chains`].
#[derive(Debug, Clone, PartialEq)]
pub struct PivotChain {
    /// Names of the intermediate pivot schemas, in walk order.
    pub pivots: Vec<String>,
    /// The oriented mappings along the path; `hops.len() == pivots.len() + 1`.
    pub hops: Vec<Mapping>,
}

/// A [`PivotChain`] that borrows its hops from the repository instead of
/// copying them: each hop is a stored mapping and whether it is read
/// reversed (see [`compose_oriented`](crate::compose_oriented)). Every
/// path through one edge shares that edge's stored mapping. Produced by
/// [`Repository::pivot_paths`].
#[derive(Debug, Clone, PartialEq)]
pub struct PivotPath<'r> {
    /// Names of the intermediate pivot schemas, in walk order.
    pub pivots: Vec<String>,
    /// The stored mappings along the path, each with `true` when it must
    /// be reversed to point toward the target; `hops.len() ==
    /// pivots.len() + 1`.
    pub hops: Vec<(&'r Mapping, bool)>,
}

/// One change made by a [`Repository`] mutator: the unit a
/// [`RepositoryBackend`] logs, and what replaying that log applies again
/// through the same mutator. There is one variant per mutator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mutation {
    /// [`Repository::put_schema`].
    PutSchema(Schema),
    /// [`Repository::put_mapping`].
    PutMapping(Mapping),
    /// [`Repository::put_cube`].
    PutCube(StoredCube),
    /// [`Repository::remove_mappings_between`], with its two schema names.
    RemoveMappingsBetween(String, String),
}

/// The COMA repository: schemas, mappings and similarity cubes.
///
/// Deterministic iteration (BTreeMap / insertion-ordered vectors) keeps the
/// reuse matchers reproducible.
#[derive(Debug, Default)]
pub struct Repository {
    schemas: BTreeMap<String, Schema>,
    mappings: Vec<Mapping>,
    cubes: Vec<StoredCube>,
    /// The changes made since the journal was last taken, when it is on.
    /// Only [`PersistentRepository`](crate::PersistentRepository) switches
    /// it on; it is never serialized.
    journal: Option<Vec<Mutation>>,
}

// Hand-written instead of derived so that the journal stays out of the
// bytes; the output is what the derive wrote for the three stores.
impl Serialize for Repository {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.begin_map(true);
        out.field("schemas", &self.schemas);
        out.field("mappings", &self.mappings);
        out.field("cubes", &self.cubes);
        out.end_map();
    }
}

impl Deserialize for Repository {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        let (mut schemas, mut mappings, mut cubes) = (None, None, None);
        serde::fields(d, &["schemas", "mappings", "cubes"], |d, i| match i {
            0 => serde::first(d, &mut schemas),
            1 => serde::first(d, &mut mappings),
            2 => serde::first(d, &mut cubes),
            _ => d.skip(),
        })?;
        Ok(Repository {
            schemas: serde::required(schemas, "schemas")?,
            mappings: serde::required(mappings, "mappings")?,
            cubes: serde::required(cubes, "cubes")?,
            journal: None,
        })
    }
}

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Repository {
        Repository::default()
    }

    // --- schemas ---------------------------------------------------------

    /// Stores a schema under its own name, replacing any previous version.
    pub fn put_schema(&mut self, schema: Schema) {
        self.record(|| Mutation::PutSchema(schema.clone()));
        self.schemas.insert(schema.name().to_string(), schema);
    }

    /// Looks up a schema by name.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.schemas.get(name)
    }

    /// Names of all stored schemas, sorted.
    pub fn schema_names(&self) -> Vec<&str> {
        self.schemas.keys().map(String::as_str).collect()
    }

    /// Number of stored schemas.
    pub fn schema_count(&self) -> usize {
        self.schemas.len()
    }

    // --- mappings --------------------------------------------------------

    /// Stores a match result, replacing any previously stored mapping for
    /// the same `(source, target, kind)` key — re-matching a pair updates
    /// the stored result instead of silently doubling the reuse inputs
    /// ([`Repository::pivot_chains`] would otherwise emit duplicate pivot
    /// chains). Manual and automatic results for the same pair coexist:
    /// confirming a match never discards the raw automatic one.
    pub fn put_mapping(&mut self, mapping: Mapping) {
        self.record(|| Mutation::PutMapping(mapping.clone()));
        match self.mappings.iter_mut().find(|m| {
            m.source_schema == mapping.source_schema
                && m.target_schema == mapping.target_schema
                && m.kind == mapping.kind
        }) {
            Some(existing) => *existing = mapping,
            None => self.mappings.push(mapping),
        }
    }

    /// All stored mappings, in insertion order.
    pub fn mappings(&self) -> &[Mapping] {
        &self.mappings
    }

    /// All mappings relating `a` and `b` (either orientation).
    pub fn mappings_between(&self, a: &str, b: &str) -> Vec<&Mapping> {
        self.mappings.iter().filter(|m| m.relates(a, b)).collect()
    }

    /// Removes all mappings relating `a` and `b`; returns how many were
    /// removed. Used by evaluation code to exclude a task's own gold
    /// standard before reuse matching.
    pub fn remove_mappings_between(&mut self, a: &str, b: &str) -> usize {
        let before = self.mappings.len();
        self.mappings.retain(|m| !m.relates(a, b));
        let removed = before - self.mappings.len();
        if removed > 0 {
            self.record(|| Mutation::RemoveMappingsBetween(a.to_string(), b.to_string()));
        }
        removed
    }

    /// The "search repository" step of the Schema reuse matcher (Figure 5),
    /// generalized to transitive *chains*: every simple path `source → P1
    /// → … → Pk → target` through the stored-mapping graph with between 2
    /// and `max_hops` mappings, each hop oriented forward and ready for
    /// repeated MatchCompose. A filter restricts which stored mappings
    /// qualify (e.g. only manually confirmed ones for `SchemaM`).
    ///
    /// The walk is over schema *names* (two schemas are adjacent when any
    /// qualifying stored mapping relates them); for every node path, all
    /// combinations of qualifying oriented mappings per hop are emitted.
    /// Paths are simple — no pivot repeats and neither endpoint appears
    /// as an intermediate — so a direct `source↔target` mapping is never
    /// part of a chain (that is a stored *result*, not reuse), and a task
    /// whose two sides carry the same name has no chain. Adjacency is kept
    /// in sorted maps, making the enumeration order deterministic
    /// regardless of mapping insertion order.
    ///
    /// With `max_hops = 2` the chains are the single-pivot pairs
    /// `source↔S`, `S↔target` of Figure 5.
    pub fn pivot_chains(
        &self,
        source: &str,
        target: &str,
        max_hops: usize,
        filter: impl Fn(&Mapping) -> bool,
    ) -> Vec<PivotChain> {
        self.pivot_paths(source, target, max_hops, filter)
            .into_iter()
            .map(|path| PivotChain {
                pivots: path.pivots,
                hops: path
                    .hops
                    .into_iter()
                    .map(|(m, reversed)| if reversed { m.reversed() } else { m.clone() })
                    .collect(),
            })
            .collect()
    }

    /// [`Repository::pivot_chains`] without copying a mapping: the same
    /// paths in the same order, each hop borrowed from the repository.
    pub fn pivot_paths(
        &self,
        source: &str,
        target: &str,
        max_hops: usize,
        filter: impl Fn(&Mapping) -> bool,
    ) -> Vec<PivotPath<'_>> {
        if source == target || max_hops < 2 {
            return Vec::new();
        }
        let mut adjacency: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for m in self.mappings.iter().filter(|m| filter(m)) {
            let (a, b) = (m.source_schema.as_str(), m.target_schema.as_str());
            if a == b {
                continue;
            }
            adjacency.entry(a).or_default().insert(b);
            adjacency.entry(b).or_default().insert(a);
        }
        let mut chains = Vec::new();
        let mut path = vec![source];
        self.chain_walk(
            target,
            max_hops,
            &filter,
            &adjacency,
            &mut path,
            &mut chains,
        );
        chains
    }

    /// Depth-first enumeration of simple pivot paths. `path` holds the
    /// nodes walked so far (starting at the task source); reaching
    /// `target` with at least one intermediate pivot emits the chain.
    fn chain_walk<'r, 'a>(
        &'r self,
        target: &'a str,
        max_hops: usize,
        filter: &impl Fn(&Mapping) -> bool,
        adjacency: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        path: &mut Vec<&'a str>,
        out: &mut Vec<PivotPath<'r>>,
    ) {
        let last = *path.last().expect("path starts at the source");
        let Some(neighbors) = adjacency.get(last) else {
            return;
        };
        for &next in neighbors {
            if next == target {
                if path.len() >= 2 {
                    self.emit_chains(path, target, filter, out);
                }
                continue;
            }
            // Admitting another pivot means the finished chain will have
            // at least `path.len() + 1` hops; stay within the budget.
            if path.len() >= max_hops || path.contains(&next) {
                continue;
            }
            path.push(next);
            self.chain_walk(target, max_hops, filter, adjacency, path, out);
            path.pop();
        }
    }

    /// Emits every combination of qualifying oriented mappings along one
    /// node path (`nodes` + the final `target`).
    fn emit_chains<'r>(
        &'r self,
        nodes: &[&str],
        target: &str,
        filter: &impl Fn(&Mapping) -> bool,
        out: &mut Vec<PivotPath<'r>>,
    ) {
        let mut endpoints: Vec<&str> = nodes.to_vec();
        endpoints.push(target);
        let per_hop: Vec<Vec<(&Mapping, bool)>> = endpoints
            .windows(2)
            .map(|w| {
                self.mappings
                    .iter()
                    .filter(|m| filter(m) && m.relates(w[0], w[1]))
                    .map(|m| (m, m.source_schema != w[0] || m.target_schema != w[1]))
                    .collect()
            })
            .collect();
        if per_hop.iter().any(Vec::is_empty) {
            return;
        }
        let pivots: Vec<String> = nodes[1..].iter().map(|s| (*s).to_string()).collect();
        let mut combos: Vec<Vec<(&Mapping, bool)>> = vec![Vec::new()];
        for hop in &per_hop {
            let mut grown = Vec::with_capacity(combos.len() * hop.len());
            for combo in &combos {
                for &m in hop {
                    let mut c = combo.clone();
                    c.push(m);
                    grown.push(c);
                }
            }
            combos = grown;
        }
        for hops in combos {
            out.push(PivotPath {
                pivots: pivots.clone(),
                hops,
            });
        }
    }

    // --- cubes -----------------------------------------------------------

    /// Stores a similarity cube, replacing any previously stored cube for
    /// the same `(source, target, matcher set)` key — re-running a
    /// strategy on a pair updates the stored cube instead of appending a
    /// duplicate.
    pub fn put_cube(&mut self, cube: StoredCube) {
        debug_assert!(cube.is_consistent());
        self.record(|| Mutation::PutCube(cube.clone()));
        match self.cubes.iter_mut().find(|c| {
            c.source_schema == cube.source_schema
                && c.target_schema == cube.target_schema
                && c.matchers == cube.matchers
        }) {
            Some(existing) => *existing = cube,
            None => self.cubes.push(cube),
        }
    }

    /// All cubes for the given schema pair, in insertion order.
    pub fn cubes_for(&self, source: &str, target: &str) -> Vec<&StoredCube> {
        self.cubes
            .iter()
            .filter(|c| c.source_schema == source && c.target_schema == target)
            .collect()
    }

    /// Number of stored cubes.
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    // --- journal ---------------------------------------------------------

    /// Applies one logged change through its mutator.
    pub(crate) fn apply(&mut self, change: Mutation) {
        match change {
            Mutation::PutSchema(schema) => self.put_schema(schema),
            Mutation::PutMapping(mapping) => self.put_mapping(mapping),
            Mutation::PutCube(cube) => self.put_cube(cube),
            Mutation::RemoveMappingsBetween(a, b) => {
                self.remove_mappings_between(&a, &b);
            }
        }
    }

    /// Switches the journal on: from now on every mutator records its
    /// change for [`Repository::take_journal`].
    pub(crate) fn start_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// The changes recorded since the last call, oldest first; `None` when
    /// the journal is off (for instance because a `mutate` closure
    /// replaced the whole repository).
    pub(crate) fn take_journal(&mut self) -> Option<Vec<Mutation>> {
        self.journal.as_mut().map(std::mem::take)
    }

    fn record(&mut self, change: impl FnOnce() -> Mutation) {
        if let Some(journal) = &mut self.journal {
            journal.push(change());
        }
    }

    // --- persistence -----------------------------------------------------

    /// Serializes the whole repository to pretty JSON.
    pub fn to_json(&self) -> Result<String, RepositoryError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Deserializes a repository from JSON.
    pub fn from_json(json: &str) -> Result<Repository, RepositoryError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Saves the repository to a JSON file the way a [`FileBackend`]
    /// compacts: atomically and durably, restarting any log next to it.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), RepositoryError> {
        FileBackend::new(path.as_ref()).persist(self)
    }

    /// Loads a repository from a JSON file, replaying the changes a
    /// [`FileBackend`] logged next to it. Unlike a backend's first run, a
    /// missing file is an error.
    pub fn load(path: impl AsRef<Path>) -> Result<Repository, RepositoryError> {
        std::fs::metadata(path.as_ref())?;
        FileBackend::new(path.as_ref()).load()
    }
}

/// A thread-safe, shareable repository handle for parallel experiment runs.
pub type SharedRepository = Arc<RwLock<Repository>>;

/// Creates a [`SharedRepository`] from a plain repository.
pub fn shared(repo: Repository) -> SharedRepository {
    Arc::new(RwLock::new(repo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MappingKind;
    use coma_graph::{Node, SchemaBuilder};

    fn schema(name: &str) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let r = b.add_node(Node::new(name));
        let c = b.add_node(Node::new("x"));
        b.add_child(r, c).unwrap();
        b.build().unwrap()
    }

    fn mapping(a: &str, b: &str, kind: MappingKind) -> Mapping {
        let mut m = Mapping::new(a, b, kind);
        m.push(format!("{a}.x"), format!("{b}.x"), 1.0);
        m
    }

    #[test]
    fn schema_roundtrip() {
        let mut repo = Repository::new();
        repo.put_schema(schema("CIDX"));
        repo.put_schema(schema("Excel"));
        assert_eq!(repo.schema_count(), 2);
        assert_eq!(repo.schema_names(), vec!["CIDX", "Excel"]);
        assert!(repo.schema("CIDX").is_some());
        assert!(repo.schema("nope").is_none());
    }

    #[test]
    fn pivot_chains_with_two_hops_find_all_orientations() {
        // Figure 5: S1↔Si, S2↔Si; S1↔Sj, Sj↔S2; Sk↔S1, S2↔Sk.
        let mut repo = Repository::new();
        repo.put_mapping(mapping("S1", "Si", MappingKind::Manual));
        repo.put_mapping(mapping("S2", "Si", MappingKind::Manual));
        repo.put_mapping(mapping("S1", "Sj", MappingKind::Manual));
        repo.put_mapping(mapping("Sj", "S2", MappingKind::Manual));
        repo.put_mapping(mapping("Sk", "S1", MappingKind::Manual));
        repo.put_mapping(mapping("S2", "Sk", MappingKind::Manual));
        let chains = repo.pivot_chains("S1", "S2", 2, |_| true);
        assert_eq!(chains.len(), 3);
        for chain in &chains {
            assert_eq!(chain.hops.len(), 2);
            let (first, second) = (&chain.hops[0], &chain.hops[1]);
            assert_eq!(first.source_schema, "S1");
            assert_eq!(first.target_schema, second.source_schema);
            assert_eq!(second.target_schema, "S2");
            assert_eq!(chain.pivots, vec![first.target_schema.clone()]);
        }
    }

    #[test]
    fn pivot_chains_with_two_hops_respect_filter() {
        let mut repo = Repository::new();
        repo.put_mapping(mapping("S1", "Si", MappingKind::Manual));
        repo.put_mapping(mapping("Si", "S2", MappingKind::Automatic));
        let manual_only = repo.pivot_chains("S1", "S2", 2, |m| m.kind == MappingKind::Manual);
        assert!(manual_only.is_empty());
        let all = repo.pivot_chains("S1", "S2", 2, |_| true);
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn pivot_chains_with_two_hops_exclude_direct_mappings() {
        let mut repo = Repository::new();
        repo.put_mapping(mapping("S1", "S2", MappingKind::Manual));
        assert!(repo.pivot_chains("S1", "S2", 2, |_| true).is_empty());
    }

    #[test]
    fn pivot_chains_find_longer_paths_within_budget() {
        // Only route S1→S2 is via two pivots: S1↔A↔B↔S2.
        let mut repo = Repository::new();
        repo.put_mapping(mapping("S1", "A", MappingKind::Manual));
        repo.put_mapping(mapping("A", "B", MappingKind::Manual));
        repo.put_mapping(mapping("B", "S2", MappingKind::Manual));
        assert!(repo.pivot_chains("S1", "S2", 2, |_| true).is_empty());
        let chains = repo.pivot_chains("S1", "S2", 3, |_| true);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].pivots, vec!["A".to_string(), "B".to_string()]);
        assert_eq!(chains[0].hops.len(), 3);
        assert_eq!(chains[0].hops[0].source_schema, "S1");
        assert_eq!(chains[0].hops[2].target_schema, "S2");
    }

    #[test]
    fn pivot_chains_stay_simple_and_skip_direct_mappings() {
        let mut repo = Repository::new();
        repo.put_mapping(mapping("S1", "S2", MappingKind::Manual));
        repo.put_mapping(mapping("S1", "A", MappingKind::Manual));
        repo.put_mapping(mapping("A", "S2", MappingKind::Manual));
        // The direct S1↔S2 mapping is never a chain, and raising the hop
        // budget cannot smuggle it (or a revisit of S1/A) back in.
        let chains = repo.pivot_chains("S1", "S2", 4, |_| true);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].pivots, vec!["A".to_string()]);
        assert!(repo.pivot_chains("S1", "S1", 4, |_| true).is_empty());
    }

    #[test]
    fn pivot_chains_respect_filter_per_hop() {
        let mut repo = Repository::new();
        repo.put_mapping(mapping("S1", "A", MappingKind::Manual));
        repo.put_mapping(mapping("A", "S2", MappingKind::Automatic));
        let manual_only = repo.pivot_chains("S1", "S2", 3, |m| m.kind == MappingKind::Manual);
        assert!(manual_only.is_empty());
        assert_eq!(repo.pivot_chains("S1", "S2", 3, |_| true).len(), 1);
    }

    #[test]
    fn pivot_chains_enumerate_deterministically() {
        // Insertion order differs; sorted adjacency must give one order.
        let build = |flip: bool| {
            let mut repo = Repository::new();
            let mut ms = vec![
                mapping("S1", "A", MappingKind::Manual),
                mapping("A", "S2", MappingKind::Manual),
                mapping("S1", "B", MappingKind::Manual),
                mapping("B", "S2", MappingKind::Manual),
            ];
            if flip {
                ms.reverse();
            }
            for m in ms {
                repo.put_mapping(m);
            }
            repo.pivot_chains("S1", "S2", 2, |_| true)
                .into_iter()
                .map(|c| c.pivots.join("->"))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn remove_mappings_between_works() {
        let mut repo = Repository::new();
        repo.put_mapping(mapping("A", "B", MappingKind::Manual));
        repo.put_mapping(mapping("B", "A", MappingKind::Automatic));
        repo.put_mapping(mapping("A", "C", MappingKind::Manual));
        assert_eq!(repo.remove_mappings_between("A", "B"), 2);
        assert_eq!(repo.mappings().len(), 1);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut repo = Repository::new();
        repo.put_schema(schema("S1"));
        repo.put_mapping(mapping("S1", "S2", MappingKind::Manual));
        repo.put_cube(StoredCube {
            source_schema: "S1".into(),
            target_schema: "S2".into(),
            matchers: vec!["Name".into()],
            source_paths: vec!["S1.x".into()],
            target_paths: vec!["S2.x".into()],
            values: vec![0.8],
        });
        let json = repo.to_json().unwrap();
        let back = Repository::from_json(&json).unwrap();
        assert_eq!(back.schema_count(), 1);
        assert_eq!(back.mappings().len(), 1);
        assert_eq!(back.cube_count(), 1);
        assert_eq!(back.cubes_for("S1", "S2")[0].values, vec![0.8]);
    }

    #[test]
    fn save_and_load_file() {
        let mut repo = Repository::new();
        repo.put_schema(schema("S1"));
        let dir = std::env::temp_dir().join("coma_repo_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.json");
        repo.save(&path).unwrap();
        let back = Repository::load(&path).unwrap();
        assert_eq!(back.schema_count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
