//! Reuse of previous match results (paper, Section 5): the
//! [`match_compose`] operation, the reuse-oriented matchers
//! [`SchemaMatcher`] (`SchemaM` / `SchemaA`) and [`FragmentMatcher`], and
//! the transitive [`ReuseResolver`], which scores pivot paths. SchemaM/
//! SchemaA and the resolver walk the same stored-mapping *chains*
//! (`Repository::pivot_paths`) and merge them in one function.

use crate::cube::SimMatrix;
use crate::matchers::context::MatchContext;
use crate::matchers::Matcher;
use coma_graph::PathSet;
use coma_repo::{compose_oriented, Mapping, MappingKind, PivotPath, Repository};
use coma_strings::tokenize;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};

/// How the two similarities of a transitive chain `a↔b↔c` are combined by
/// MatchCompose. The paper (Section 5.1) argues that the common
/// multiplication approach "may lead to rapidly degrading similarity
/// values" (0.5·0.7 = 0.35) and prefers Average (→ 0.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComposeCombine {
    /// `(s1 + s2) / 2` — the paper's choice.
    Average,
    /// `s1 · s2` — the information-retrieval tradition; degrades quickly.
    Multiply,
    /// `min(s1, s2)` — pessimistic.
    Min,
    /// `max(s1, s2)` — optimistic.
    Max,
}

impl ComposeCombine {
    /// Applies the combination to a pair of similarities.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ComposeCombine::Average => (a + b) / 2.0,
            ComposeCombine::Multiply => a * b,
            ComposeCombine::Min => a.min(b),
            ComposeCombine::Max => a.max(b),
        }
    }
}

/// The MatchCompose operation: derives `match: S1↔S3` from
/// `match1: S1↔S2` and `match2: S2↔S3` by a natural join on the shared S2
/// elements (Section 5.1, Figure 3).
pub fn match_compose(m1: &Mapping, m2: &Mapping, combine: ComposeCombine) -> Mapping {
    m1.compose(m2, |a, b| combine.apply(a, b))
}

/// The `Schema` reuse matcher (Section 5.2, Figure 5): searches the
/// repository for pivot schemas `S` with stored results `S1↔S` and `S↔S2`,
/// MatchComposes each pair, and merges the composed results into one
/// similarity matrix. The search is the [`ReuseResolver`]'s walk at two
/// hops, without its path scoring. The merge averages a pair over *all*
/// chains, a chain that misses the pair counting as similarity 0, so pairs
/// found via many pivots dominate — this is what "compensates the problem
/// of false n:m matches" in Section 7.3.
pub struct SchemaMatcher {
    name: &'static str,
    /// Restricts which stored mappings qualify (`None` = all).
    pub kind_filter: Option<MappingKind>,
    /// Transitive-similarity combination (default Average).
    pub compose: ComposeCombine,
}

impl SchemaMatcher {
    /// `SchemaM`: reuses manually confirmed match results.
    pub fn manual() -> SchemaMatcher {
        SchemaMatcher {
            name: "SchemaM",
            kind_filter: Some(MappingKind::Manual),
            compose: ComposeCombine::Average,
        }
    }

    /// `SchemaA`: reuses automatically derived match results.
    pub fn automatic() -> SchemaMatcher {
        SchemaMatcher {
            name: "SchemaA",
            kind_filter: Some(MappingKind::Automatic),
            compose: ComposeCombine::Average,
        }
    }
}

impl Matcher for SchemaMatcher {
    fn name(&self) -> &str {
        self.name
    }

    /// Reads the repository: never cached across executions.
    fn pure(&self) -> bool {
        false
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        let Some(repo) = ctx.repository else {
            return SimMatrix::new(ctx.rows(), ctx.cols());
        };
        let (source, target) = (ctx.source.name(), ctx.target.name());
        let mut paths = repo.pivot_paths(source, target, 2, |m| {
            self.kind_filter.is_none_or(|k| m.kind == k)
        });
        // Fold the chains in the order their pivots first appear among the
        // stored mappings (each mapping's source name, then its target
        // name), not in the walk's name order: the order of a cell's sum
        // fixes its last bits.
        let names = || {
            repo.mappings()
                .iter()
                .flat_map(|m| [&m.source_schema, &m.target_schema])
        };
        paths.sort_by_cached_key(|path| names().position(|name| *name == path.pivots[0]));
        let composed: Vec<Mapping> = paths
            .iter()
            .map(|path| compose_path(path, self.compose))
            .collect();
        render(ctx, &merge_chains(source, target, &composed, true))
    }
}

/// MatchComposes a pivot path's hops from source to target.
fn compose_path(path: &PivotPath<'_>, compose: ComposeCombine) -> Mapping {
    let combine = |a, b| compose.apply(a, b);
    // A pivot path has at least two hops (one pivot).
    let mut acc = compose_oriented(path.hops[0], path.hops[1], combine);
    for &hop in &path.hops[2..] {
        acc = compose_oriented((&acc, false), hop, combine);
    }
    acc
}

/// Merges composed chains into one `source ↔ target` candidate mapping,
/// pairs in first-seen order. A pair's similarities are summed in chain
/// order and divided by the number of chains that witness it or, with
/// `zero_fill`, by the number of all chains: a chain that misses the pair
/// then counts as similarity 0.
fn merge_chains<'m>(
    source: &str,
    target: &str,
    chains: impl IntoIterator<Item = &'m Mapping>,
    zero_fill: bool,
) -> Mapping {
    // Position of each (source, target) pair in `merged`.
    let mut at: HashMap<(&str, &str), usize> = HashMap::new();
    // (source, target, similarity sum, witnessing chains)
    let mut merged: Vec<(&str, &str, f64, f64)> = Vec::new();
    let mut chains_seen = 0.0;
    for chain in chains {
        chains_seen += 1.0;
        for c in &chain.correspondences {
            match at.entry((&c.source, &c.target)) {
                Entry::Occupied(pair) => {
                    let (_, _, sum, witnesses) = &mut merged[*pair.get()];
                    *sum += c.similarity;
                    *witnesses += 1.0;
                }
                Entry::Vacant(pair) => {
                    pair.insert(merged.len());
                    merged.push((&c.source, &c.target, c.similarity, 1.0));
                }
            }
        }
    }
    let mut mapping = Mapping::new(source, target, MappingKind::Automatic);
    for (s, t, sum, witnesses) in merged {
        mapping.push(s, t, sum / if zero_fill { chains_seen } else { witnesses });
    }
    mapping
}

/// Renders a (full-name keyed) mapping as a matrix over the context's
/// paths. Correspondences naming unknown paths are ignored.
fn render(ctx: &MatchContext<'_>, mapping: &Mapping) -> SimMatrix {
    let (rows, cols) = (ctx.rows(), ctx.cols());
    let mut m = SimMatrix::new(rows, cols);
    if mapping.is_empty() {
        return m;
    }
    let src_index: HashMap<String, usize> =
        (0..rows).map(|i| (ctx.source_full_name(i), i)).collect();
    let tgt_index: HashMap<String, usize> =
        (0..cols).map(|j| (ctx.target_full_name(j), j)).collect();
    for c in &mapping.correspondences {
        if let (Some(&i), Some(&j)) = (src_index.get(&c.source), tgt_index.get(&c.target)) {
            // Keep the best value if duplicates appear.
            if c.similarity > m.get(i, j) {
                m.set(i, j, c.similarity);
            }
        }
    }
    m
}

/// Why one pivot path was (or was not) preferred by the [`ReuseResolver`]:
/// the per-path inputs of the selection score, surfaced on the stage
/// outcome so `coma-cli --verbose` can explain the choice.
#[derive(Debug, Clone, PartialEq)]
pub struct ReusePathStats {
    /// Pivot schemas along the path, joined with `->` (e.g. `PO2->PO3`).
    pub via: String,
    /// Stored mappings composed along the path (2 = single pivot).
    pub hops: usize,
    /// Correspondences surviving the composition.
    pub correspondences: usize,
    /// Fraction of the task's elements the composed mapping touches
    /// (mean of source-side and target-side endpoint coverage).
    pub coverage: f64,
    /// Jaccard overlap between the path's vocabulary (pivot names +
    /// correspondence paths) and the task sides' vocabulary.
    pub vocab_overlap: f64,
    /// Selection score: `(2 / hops) · (0.7·coverage + 0.3·vocab_overlap)`.
    /// Paths are ranked by fewest hops first, then by this score, then by
    /// the lexicographically smaller `via`.
    pub score: f64,
}

/// Diagnostics of one transitive reuse resolution, recorded on the
/// executing stage's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseStats {
    /// Hop budget the graph walk ran with.
    pub max_hops: usize,
    /// Per-path stats, best first — `paths[0]` is the chosen pivot path,
    /// and every path sharing its (minimal) hop count contributed to the
    /// merged candidate; longer paths are listed but rejected. Empty when
    /// the repository holds no path between the task schemas.
    pub paths: Vec<ReusePathStats>,
    /// Correspondences in the merged candidate mapping.
    pub merged_correspondences: usize,
}

/// A resolved reuse request: the merged candidate mapping plus the path
/// diagnostics that explain it.
#[derive(Debug, Clone)]
pub struct ReuseResolution {
    /// The candidate mapping, merged across the minimal-hop pivot paths
    /// (per-pair average over the paths witnessing the pair).
    pub mapping: Mapping,
    /// Per-path and aggregate diagnostics.
    pub stats: ReuseStats,
}

/// Transitive reuse over stored-mapping chains: walks the repository's
/// mapping graph ([`Repository::pivot_paths`]), MatchComposes every
/// pivot path up to [`ReuseResolver::max_hops`] mappings long, scores the
/// paths (length, coverage, vocabulary overlap), and merges them into one
/// candidate [`Mapping`] from the minimal-hop paths.
///
/// The merge is the [`SchemaMatcher`]'s, with one difference: the
/// resolver averages a pair only over the chains that witness it, where
/// SchemaM/SchemaA count a missing pair as 0 to dampen false n:m matches
/// (Section 7.3). The resolver also never merges a longer chain when a
/// shorter path exists. Longer budgets unlock pivots only reachable
/// through several stored results (S1↔A ∘ A↔B ∘ B↔S2) without diluting
/// direct pivots.
pub struct ReuseResolver {
    /// Restricts which stored mappings qualify (`None` = all).
    pub kind_filter: Option<MappingKind>,
    /// Transitive-similarity combination (default Average).
    pub compose: ComposeCombine,
    /// Maximum number of stored mappings per chain (≥ 2).
    pub max_hops: usize,
}

impl ReuseResolver {
    /// A resolver with the paper-default Average combination.
    pub fn new(kind_filter: Option<MappingKind>, max_hops: usize) -> ReuseResolver {
        ReuseResolver {
            kind_filter,
            compose: ComposeCombine::Average,
            max_hops,
        }
    }

    /// Resolves `source ↔ target` from stored mappings alone. Returns an
    /// empty mapping (and empty `stats.paths`) when the graph holds no
    /// pivot path — callers use that to decide on fresh-match fallback.
    pub fn resolve(&self, repo: &Repository, source: &str, target: &str) -> ReuseResolution {
        let paths = repo.pivot_paths(source, target, self.max_hops, |m| {
            self.kind_filter.is_none_or(|k| m.kind == k)
        });
        // Vocabularies are sets of interned token ids: the task sides',
        // each path's pivots, and each stored mapping the paths walk.
        let mut tokens = TokenIds::default();
        let (source_vocab, source_universe) = schema_profile(repo, source, &mut tokens);
        let (target_vocab, target_universe) = schema_profile(repo, target, &mut tokens);
        let hop_vocabs = hop_vocabularies(&paths, &mut tokens);
        let pivot_vocabs: Vec<Vec<usize>> = paths
            .iter()
            .map(|path| path.pivots.iter().flat_map(|p| tokens.of(p)).collect())
            .collect();
        let task_vocab = TaskVocab::new(tokens.len(), source_vocab.iter().chain(&target_vocab));

        let mut composed: Vec<(Mapping, ReusePathStats)> = paths
            .iter()
            .zip(&pivot_vocabs)
            .map(|(path, pivot_vocab)| {
                let acc = compose_path(path, self.compose);
                let hop_ids = path.hops.iter().flat_map(|(hop, _)| {
                    let (_, ids) = hop_vocabs
                        .iter()
                        .find(|(stored, _)| std::ptr::eq(*stored, *hop))
                        .expect("every hop has a vocabulary");
                    ids
                });
                let vocab_overlap = task_vocab.overlap(pivot_vocab.iter().chain(hop_ids));
                let stats = path_stats(path, &acc, vocab_overlap, source_universe, target_universe);
                (acc, stats)
            })
            .collect();
        // Rank: fewest hops first (every extra hop composes one more
        // *automatic* result into the chain, compounding its errors — the
        // degradation the paper's Section 5.1 argument is about), then the
        // coverage/vocabulary score, then the via label for determinism.
        composed.sort_by(|a, b| {
            a.1.hops
                .cmp(&b.1.hops)
                .then(b.1.score.partial_cmp(&a.1.score).unwrap_or(Ordering::Equal))
                .then(a.1.via.cmp(&b.1.via))
        });

        // Merge the minimal-hop chains into one candidate, per-pair
        // averaging over the chains that actually witness the pair. Longer
        // chains are enumerated (and reported in the stats, so `--verbose`
        // shows what was rejected) but never merged when a shorter path
        // exists: on the evaluation corpus, folding 3-hop compositions of
        // automatic results into the merge costs ~0.1 F-measure, and
        // zero-filling non-witnessing chains (SchemaM's merge) drags
        // multi-path merges below the 0.5 selection threshold. `max_hops`
        // is a search budget for sparse graphs, not an instruction to
        // dilute short paths with long ones.
        let min_hops = composed.first().map_or(0, |(_, s)| s.hops);
        let minimal = composed.iter().filter(|(_, s)| s.hops == min_hops);
        let mapping = merge_chains(source, target, minimal.map(|(m, _)| m), false);
        let stats = ReuseStats {
            max_hops: self.max_hops,
            paths: composed.into_iter().map(|(_, s)| s).collect(),
            merged_correspondences: mapping.len(),
        };
        ReuseResolution { mapping, stats }
    }

    /// Resolves the context's task pair and renders the merged candidate
    /// as a similarity matrix over the task's paths. Without a repository
    /// the matrix is zero and `stats.paths` is empty.
    pub fn compute(&self, ctx: &MatchContext<'_>) -> (SimMatrix, ReuseStats) {
        let Some(repo) = ctx.repository else {
            return (
                SimMatrix::new(ctx.rows(), ctx.cols()),
                ReuseStats {
                    max_hops: self.max_hops,
                    paths: Vec::new(),
                    merged_correspondences: 0,
                },
            );
        };
        let resolution = self.resolve(repo, ctx.source.name(), ctx.target.name());
        (render(ctx, &resolution.mapping), resolution.stats)
    }
}

/// Tokens interned as dense ids, for one resolution.
#[derive(Default)]
struct TokenIds(HashMap<String, usize>);

impl TokenIds {
    /// The ids of `text`'s tokens.
    fn of(&mut self, text: &str) -> Vec<usize> {
        tokenize(text)
            .into_iter()
            .map(|token| {
                let next = self.0.len();
                *self.0.entry(token).or_insert(next)
            })
            .collect()
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The task sides' vocabulary as a membership table over token ids.
struct TaskVocab {
    member: Vec<bool>,
    size: usize,
}

impl TaskVocab {
    fn new<'i>(tokens: usize, ids: impl Iterator<Item = &'i usize>) -> TaskVocab {
        let mut member = vec![false; tokens];
        for &id in ids {
            member[id] = true;
        }
        let size = member.iter().filter(|&&m| m).count();
        TaskVocab { member, size }
    }

    /// The Jaccard overlap of the token set `ids` (duplicates allowed)
    /// with the task's vocabulary; 0 when both are empty.
    fn overlap<'i>(&self, ids: impl Iterator<Item = &'i usize>) -> f64 {
        let mut seen = vec![false; self.member.len()];
        let (mut size, mut shared) = (0, 0);
        for &id in ids {
            if !seen[id] {
                seen[id] = true;
                size += 1;
                shared += usize::from(self.member[id]);
            }
        }
        let union = size + self.size - shared;
        if union == 0 {
            0.0
        } else {
            shared as f64 / union as f64
        }
    }
}

/// The token ids of a stored schema — its name plus every element name —
/// and its path count. A schema that is not stored (or cannot be
/// unfolded) contributes its name only, and no count: coverage then falls
/// back to the composed mapping's own endpoints.
fn schema_profile(
    repo: &Repository,
    name: &str,
    tokens: &mut TokenIds,
) -> (Vec<usize>, Option<usize>) {
    let mut ids = tokens.of(name);
    let Some((schema, paths)) = repo
        .schema(name)
        .and_then(|s| PathSet::new(s).ok().map(|p| (s, p)))
    else {
        return (ids, None);
    };
    let names: HashSet<&str> = paths.iter().map(|id| paths.name(schema, id)).collect();
    for element in names {
        ids.extend(tokens.of(element));
    }
    (ids, Some(paths.len()))
}

/// The token ids of every stored mapping `paths` walk: of all its
/// correspondence paths, sorted and deduplicated. Paths through one edge
/// share its stored mapping, so each is scanned once, and each path
/// segment (element name) is tokenized once: a path's tokens are its
/// segments' tokens, because `.` always ends a token.
fn hop_vocabularies<'r>(
    paths: &[PivotPath<'r>],
    tokens: &mut TokenIds,
) -> Vec<(&'r Mapping, Vec<usize>)> {
    let mut stored: Vec<&Mapping> = Vec::new();
    for &(hop, _) in paths.iter().flat_map(|path| &path.hops) {
        if !stored.iter().any(|m| std::ptr::eq(*m, hop)) {
            stored.push(hop);
        }
    }
    let mut segment_ids: HashMap<&str, Vec<usize>> = HashMap::new();
    stored
        .into_iter()
        .map(|hop| {
            let mut ids = Vec::new();
            for c in &hop.correspondences {
                for segment in c.source.split('.').chain(c.target.split('.')) {
                    let of_segment = segment_ids
                        .entry(segment)
                        .or_insert_with(|| tokens.of(segment));
                    ids.extend_from_slice(of_segment);
                }
            }
            ids.sort_unstable();
            ids.dedup();
            (hop, ids)
        })
        .collect()
}

/// Scores one composed pivot path, given its vocabulary overlap with the
/// task.
fn path_stats(
    path: &PivotPath<'_>,
    composed: &Mapping,
    vocab_overlap: f64,
    source_universe: Option<usize>,
    target_universe: Option<usize>,
) -> ReusePathStats {
    let hops = path.hops.len();
    let src_endpoints: BTreeSet<&str> = composed
        .correspondences
        .iter()
        .map(|c| c.source.as_str())
        .collect();
    let tgt_endpoints: BTreeSet<&str> = composed
        .correspondences
        .iter()
        .map(|c| c.target.as_str())
        .collect();
    let side = |covered: usize, universe: Option<usize>| {
        let total = universe.unwrap_or(covered);
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    };
    let coverage = (side(src_endpoints.len(), source_universe)
        + side(tgt_endpoints.len(), target_universe))
        / 2.0;

    let score = (2.0 / hops as f64) * (0.7 * coverage + 0.3 * vocab_overlap);
    ReusePathStats {
        via: path.pivots.join("->"),
        hops,
        correspondences: composed.len(),
        coverage,
        vocab_overlap,
        score,
    }
}

/// The `Fragment` reuse matcher. The paper names it ("the other, Fragment,
/// operates on schema fragments", Section 5) without details; this is our
/// reconstruction:
///
/// Every stored correspondence also witnesses correspondences between the
/// **path suffixes** of its two elements (`…ShipTo.Address.City ↔
/// …DeliverTo.Address.City` witnesses `Address.City ↔ Address.City` and
/// `City ↔ City`). The matcher harvests all suffix pairs up to
/// [`FragmentMatcher::max_suffix`] from qualifying stored mappings —
/// including mappings of *other* schema pairs — and applies the dictionary
/// to the task's paths, preferring the longest matching suffix.
pub struct FragmentMatcher {
    /// Restricts which stored mappings qualify (`None` = all).
    pub kind_filter: Option<MappingKind>,
    /// Maximum suffix length harvested (in path steps).
    pub max_suffix: usize,
}

impl FragmentMatcher {
    /// Fragment matcher over all stored mappings, suffixes up to 3 steps.
    pub fn new() -> FragmentMatcher {
        FragmentMatcher {
            kind_filter: None,
            max_suffix: 3,
        }
    }
}

impl Default for FragmentMatcher {
    fn default() -> Self {
        FragmentMatcher::new()
    }
}

fn suffix(path: &str, k: usize) -> Option<String> {
    let parts: Vec<&str> = path.split('.').collect();
    if parts.len() < k || k == 0 {
        return None;
    }
    Some(parts[parts.len() - k..].join("."))
}

impl Matcher for FragmentMatcher {
    fn name(&self) -> &str {
        "Fragment"
    }

    /// Reads the repository: never cached across executions.
    fn pure(&self) -> bool {
        false
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        let (rows, cols) = (ctx.rows(), ctx.cols());
        let mut out = SimMatrix::new(rows, cols);
        let Some(repo) = ctx.repository else {
            return out;
        };
        let (src_name, tgt_name) = (ctx.source.name(), ctx.target.name());

        // Harvest the suffix dictionary, keeping the best similarity per
        // suffix pair. Mappings involving the task pair itself are skipped —
        // those are direct results, not reuse.
        let mut dict: Vec<HashMap<(String, String), f64>> =
            vec![HashMap::new(); self.max_suffix + 1];
        for m in repo.mappings() {
            if m.relates(src_name, tgt_name) {
                continue;
            }
            if let Some(k) = self.kind_filter {
                if m.kind != k {
                    continue;
                }
            }
            for c in &m.correspondences {
                for (k, level) in dict.iter_mut().enumerate().skip(1) {
                    if let (Some(a), Some(b)) = (suffix(&c.source, k), suffix(&c.target, k)) {
                        let e = level.entry((a.clone(), b.clone())).or_insert(0.0);
                        *e = e.max(c.similarity);
                        // Suffix pairs witness both orientations.
                        let e2 = level.entry((b, a)).or_insert(0.0);
                        *e2 = e2.max(c.similarity);
                    }
                }
            }
        }
        if dict.iter().all(HashMap::is_empty) {
            return out;
        }

        let src_names: Vec<String> = (0..rows).map(|i| ctx.source_full_name(i)).collect();
        let tgt_names: Vec<String> = (0..cols).map(|j| ctx.target_full_name(j)).collect();
        for (i, a) in src_names.iter().enumerate() {
            for (j, b) in tgt_names.iter().enumerate() {
                // Longest matching suffix wins.
                for k in (1..=self.max_suffix).rev() {
                    let (Some(sa), Some(sb)) = (suffix(a, k), suffix(b, k)) else {
                        continue;
                    };
                    if let Some(&sim) = dict[k].get(&(sa, sb)) {
                        out.set(i, j, sim);
                        break;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchers::context::Auxiliary;
    use coma_graph::{DataType, Node, PathSet, Schema, SchemaBuilder};
    use coma_repo::Repository;

    fn contact_schema(name: &str, leaves: &[&str]) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let root = b.add_node(Node::new(name));
        let contact = b.add_node(Node::new("Contact"));
        b.add_child(root, contact).unwrap();
        for leaf in leaves {
            let n = b.add_node(Node::new(*leaf).with_datatype(DataType::Text));
            b.add_child(contact, n).unwrap();
        }
        b.build().unwrap()
    }

    /// Figure 3: PO1 {Name, Email, company}, PO2 {name, e-mail, company},
    /// PO3 {firstName, lastName, email, company}.
    fn figure3_repo() -> Repository {
        let mut repo = Repository::new();
        let mut m1 = Mapping::new("PO1", "PO2", MappingKind::Manual);
        m1.push("PO1.Contact.Email", "PO2.Contact.e-mail", 1.0);
        m1.push("PO1.Contact.Name", "PO2.Contact.name", 1.0);
        repo.put_mapping(m1);
        let mut m2 = Mapping::new("PO2", "PO3", MappingKind::Manual);
        m2.push("PO2.Contact.e-mail", "PO3.Contact.email", 1.0);
        m2.push("PO2.Contact.name", "PO3.Contact.firstName", 0.8);
        m2.push("PO2.Contact.name", "PO3.Contact.lastName", 0.8);
        repo.put_mapping(m2);
        repo
    }

    #[test]
    fn schema_matcher_reproduces_figure_3() {
        let s1 = contact_schema("PO1", &["Name", "Email", "company"]);
        let s3 = contact_schema("PO3", &["firstName", "lastName", "email", "company"]);
        let p1 = PathSet::new(&s1).unwrap();
        let p3 = PathSet::new(&s3).unwrap();
        let aux = Auxiliary::standard();
        let repo = figure3_repo();
        let ctx = MatchContext::new(&s1, &s3, &p1, &p3, &aux).with_repository(&repo);
        let m = SchemaMatcher::manual().compute(&ctx);

        let cell = |a: &str, b: &str| {
            let i = p1.find_by_full_name(&s1, a).unwrap().index();
            let j = p3.find_by_full_name(&s3, b).unwrap().index();
            m.get(i, j)
        };
        // Email ↔ email composes to (1+1)/2 = 1.0.
        assert_eq!(cell("PO1.Contact.Email", "PO3.Contact.email"), 1.0);
        // Name ↔ firstName: (1+0.8)/2 = 0.9.
        assert!((cell("PO1.Contact.Name", "PO3.Contact.firstName") - 0.9).abs() < 1e-12);
        // company has no counterpart in PO2 → missed (Figure 3's caveat).
        assert_eq!(cell("PO1.Contact.company", "PO3.Contact.company"), 0.0);
    }

    #[test]
    fn schema_matcher_respects_kind_filter() {
        let s1 = contact_schema("PO1", &["Name"]);
        let s3 = contact_schema("PO3", &["firstName"]);
        let p1 = PathSet::new(&s1).unwrap();
        let p3 = PathSet::new(&s3).unwrap();
        let aux = Auxiliary::standard();
        let repo = figure3_repo(); // all mappings are Manual
        let ctx = MatchContext::new(&s1, &s3, &p1, &p3, &aux).with_repository(&repo);
        let m = SchemaMatcher::automatic().compute(&ctx);
        assert!(m.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn schema_matcher_without_repository_is_zero() {
        let s1 = contact_schema("PO1", &["Name"]);
        let s3 = contact_schema("PO3", &["firstName"]);
        let p1 = PathSet::new(&s1).unwrap();
        let p3 = PathSet::new(&s3).unwrap();
        let aux = Auxiliary::standard();
        let ctx = MatchContext::new(&s1, &s3, &p1, &p3, &aux);
        let m = SchemaMatcher::manual().compute(&ctx);
        assert!(m.values().iter().all(|&v| v == 0.0));
    }

    /// Both sides named alike: no pivot chain exists, as for the `Reuse`
    /// leaf, so a stored `PO1↔PO2` is not composed with its own reverse.
    #[test]
    fn schema_matcher_finds_no_chain_between_same_named_schemas() {
        let s = contact_schema("PO1", &["Name", "Email"]);
        let p = PathSet::new(&s).unwrap();
        let aux = Auxiliary::standard();
        let repo = figure3_repo();
        let ctx = MatchContext::new(&s, &s, &p, &p, &aux).with_repository(&repo);
        let m = SchemaMatcher::manual().compute(&ctx);
        assert!(m.values().iter().all(|&v| v == 0.0));
        let (resolved, stats) = ReuseResolver::new(Some(MappingKind::Manual), 2).compute(&ctx);
        assert!(resolved.values().iter().all(|&v| v == 0.0));
        assert!(stats.paths.is_empty());
    }

    #[test]
    fn averaging_multiple_pivots_dampens_spurious_matches() {
        // Two pivots; only one witnesses a (spurious) correspondence, both
        // witness the true one → true 1.0, spurious 0.5·value.
        let s1 = contact_schema("A", &["email", "fax"]);
        let s2 = contact_schema("B", &["email", "phone"]);
        let mut repo = Repository::new();
        for pivot in ["P", "Q"] {
            let mut m1 = Mapping::new("A", pivot, MappingKind::Manual);
            m1.push("A.Contact.email", format!("{pivot}.Contact.email"), 1.0);
            if pivot == "P" {
                m1.push("A.Contact.fax", format!("{pivot}.Contact.phone"), 1.0);
            }
            repo.put_mapping(m1);
            let mut m2 = Mapping::new(pivot, "B", MappingKind::Manual);
            m2.push(format!("{pivot}.Contact.email"), "B.Contact.email", 1.0);
            if pivot == "P" {
                m2.push(format!("{pivot}.Contact.phone"), "B.Contact.phone", 1.0);
            }
            repo.put_mapping(m2);
        }
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let aux = Auxiliary::standard();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, &aux).with_repository(&repo);
        let m = SchemaMatcher::manual().compute(&ctx);
        let cell = |a: &str, b: &str| {
            let i = p1.find_by_full_name(&s1, a).unwrap().index();
            let j = p2.find_by_full_name(&s2, b).unwrap().index();
            m.get(i, j)
        };
        assert_eq!(cell("A.Contact.email", "B.Contact.email"), 1.0);
        assert_eq!(cell("A.Contact.fax", "B.Contact.phone"), 0.5);
    }

    #[test]
    fn resolver_with_two_hops_matches_schema_matcher() {
        let s1 = contact_schema("PO1", &["Name", "Email", "company"]);
        let s3 = contact_schema("PO3", &["firstName", "lastName", "email", "company"]);
        let p1 = PathSet::new(&s1).unwrap();
        let p3 = PathSet::new(&s3).unwrap();
        let aux = Auxiliary::standard();
        let repo = figure3_repo();
        let ctx = MatchContext::new(&s1, &s3, &p1, &p3, &aux).with_repository(&repo);
        let matcher = SchemaMatcher::manual().compute(&ctx);
        let resolver = ReuseResolver::new(Some(MappingKind::Manual), 2);
        let (resolved, stats) = resolver.compute(&ctx);
        for i in 0..p1.len() {
            for j in 0..p3.len() {
                assert!(
                    (matcher.get(i, j) - resolved.get(i, j)).abs() < 1e-12,
                    "cell ({i},{j}): matcher {} vs resolver {}",
                    matcher.get(i, j),
                    resolved.get(i, j)
                );
            }
        }
        assert_eq!(stats.paths.len(), 1);
        assert_eq!(stats.paths[0].via, "PO2");
        assert_eq!(stats.paths[0].hops, 2);
        assert_eq!(stats.merged_correspondences, 3);
    }

    #[test]
    fn resolver_walks_longer_chains_than_the_schema_matcher() {
        // PO1↔PO2, PO2↔PO3, PO3↔PO4: reaching PO4 needs a 3-hop chain.
        let mut repo = figure3_repo();
        let mut m3 = Mapping::new("PO3", "PO4", MappingKind::Manual);
        m3.push("PO3.Contact.email", "PO4.Contact.mail", 1.0);
        repo.put_mapping(m3);

        let s1 = contact_schema("PO1", &["Name", "Email"]);
        let s4 = contact_schema("PO4", &["mail"]);
        let p1 = PathSet::new(&s1).unwrap();
        let p4 = PathSet::new(&s4).unwrap();
        let aux = Auxiliary::standard();
        let ctx = MatchContext::new(&s1, &s4, &p1, &p4, &aux).with_repository(&repo);

        // Single-pivot reuse finds nothing: no S with PO1↔S and S↔PO4.
        let single = SchemaMatcher::manual().compute(&ctx);
        assert!(single.values().iter().all(|&v| v == 0.0));
        let two_hop = ReuseResolver::new(Some(MappingKind::Manual), 2);
        let (m, stats) = two_hop.compute(&ctx);
        assert!(m.values().iter().all(|&v| v == 0.0));
        assert!(stats.paths.is_empty());

        // The 3-hop chain PO1→PO2→PO3→PO4 carries Email→mail:
        // avg(avg(1.0, 1.0), 1.0) = 1.0.
        let resolver = ReuseResolver::new(Some(MappingKind::Manual), 3);
        let (m, stats) = resolver.compute(&ctx);
        let i = p1
            .find_by_full_name(&s1, "PO1.Contact.Email")
            .unwrap()
            .index();
        let j = p4
            .find_by_full_name(&s4, "PO4.Contact.mail")
            .unwrap()
            .index();
        assert_eq!(m.get(i, j), 1.0);
        assert_eq!(stats.paths.len(), 1);
        assert_eq!(stats.paths[0].via, "PO2->PO3");
        assert_eq!(stats.paths[0].hops, 3);
    }

    #[test]
    fn resolver_ranks_shorter_better_covering_paths_first() {
        // Two routes A→B: via P (direct pivot, covers both elements) and
        // via the chain X→Y (covers one element). P must rank first.
        let mut repo = Repository::new();
        repo.put_schema(contact_schema("A", &["email", "phone"]));
        repo.put_schema(contact_schema("B", &["email", "phone"]));
        let mut m = Mapping::new("A", "P", MappingKind::Manual);
        m.push("A.Contact.email", "P.Contact.email", 1.0);
        m.push("A.Contact.phone", "P.Contact.phone", 1.0);
        repo.put_mapping(m);
        let mut m = Mapping::new("P", "B", MappingKind::Manual);
        m.push("P.Contact.email", "B.Contact.email", 1.0);
        m.push("P.Contact.phone", "B.Contact.phone", 1.0);
        repo.put_mapping(m);
        let mut m = Mapping::new("A", "X", MappingKind::Manual);
        m.push("A.Contact.email", "X.Contact.email", 1.0);
        repo.put_mapping(m);
        let mut m = Mapping::new("X", "Y", MappingKind::Manual);
        m.push("X.Contact.email", "Y.Contact.email", 1.0);
        repo.put_mapping(m);
        let mut m = Mapping::new("Y", "B", MappingKind::Manual);
        m.push("Y.Contact.email", "B.Contact.email", 1.0);
        repo.put_mapping(m);

        let resolver = ReuseResolver::new(Some(MappingKind::Manual), 3);
        let resolution = resolver.resolve(&repo, "A", "B");
        assert_eq!(resolution.stats.paths.len(), 2);
        let best = &resolution.stats.paths[0];
        assert_eq!(best.via, "P");
        assert_eq!(best.hops, 2);
        assert!(best.score > resolution.stats.paths[1].score);
        assert!(best.coverage > resolution.stats.paths[1].coverage);
        // Merged candidate: the minimal-hop path via P alone — the 3-hop
        // X→Y route is listed in the stats but rejected from the merge,
        // so phone (witnessed only by P) keeps its full similarity.
        let sim = |s: &str, t: &str| {
            resolution
                .mapping
                .correspondences
                .iter()
                .find(|c| c.source == s && c.target == t)
                .map(|c| c.similarity)
        };
        assert_eq!(sim("A.Contact.email", "B.Contact.email"), Some(1.0));
        assert_eq!(sim("A.Contact.phone", "B.Contact.phone"), Some(1.0));
        assert_eq!(resolution.stats.merged_correspondences, 2);
    }

    #[test]
    fn resolver_reports_empty_paths_when_graph_is_disconnected() {
        let repo = Repository::new();
        let resolver = ReuseResolver::new(None, 4);
        let resolution = resolver.resolve(&repo, "S1", "S2");
        assert!(resolution.mapping.is_empty());
        assert!(resolution.stats.paths.is_empty());
        assert_eq!(resolution.stats.max_hops, 4);
    }

    #[test]
    fn compose_combine_variants() {
        assert_eq!(ComposeCombine::Average.apply(0.5, 0.7), 0.6);
        assert!((ComposeCombine::Multiply.apply(0.5, 0.7) - 0.35).abs() < 1e-12);
        assert_eq!(ComposeCombine::Min.apply(0.5, 0.7), 0.5);
        assert_eq!(ComposeCombine::Max.apply(0.5, 0.7), 0.7);
    }

    #[test]
    fn fragment_matcher_transfers_suffix_correspondences() {
        // A↔B never matched; but C↔D contains Address.City ↔ Address.City
        // tails that transfer.
        let mut sb = SchemaBuilder::new("A");
        let root = sb.add_node(Node::new("A"));
        let ship = sb.add_node(Node::new("ShipTo"));
        let city = sb.add_node(Node::new("City").with_datatype(DataType::Text));
        sb.add_child(root, ship).unwrap();
        sb.add_child(ship, city).unwrap();
        let s1 = sb.build().unwrap();

        let mut sb = SchemaBuilder::new("B");
        let root = sb.add_node(Node::new("B"));
        let deliver = sb.add_node(Node::new("DeliverTo"));
        let city = sb.add_node(Node::new("City").with_datatype(DataType::Text));
        sb.add_child(root, deliver).unwrap();
        sb.add_child(deliver, city).unwrap();
        let s2 = sb.build().unwrap();

        let mut repo = Repository::new();
        let mut m = Mapping::new("C", "D", MappingKind::Manual);
        m.push("C.Order.ShipTo.City", "D.Header.DeliverTo.City", 0.9);
        repo.put_mapping(m);

        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let aux = Auxiliary::standard();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, &aux).with_repository(&repo);
        let out = FragmentMatcher::new().compute(&ctx);
        let i = p1.find_by_full_name(&s1, "A.ShipTo.City").unwrap().index();
        let j = p2
            .find_by_full_name(&s2, "B.DeliverTo.City")
            .unwrap()
            .index();
        // Suffix "ShipTo.City" ↔ "DeliverTo.City" (k=2) transfers 0.9.
        assert_eq!(out.get(i, j), 0.9);
    }

    #[test]
    fn fragment_matcher_ignores_direct_mappings() {
        let s1 = contact_schema("A", &["email"]);
        let s2 = contact_schema("B", &["email"]);
        let mut repo = Repository::new();
        let mut m = Mapping::new("A", "B", MappingKind::Manual);
        m.push("A.Contact.email", "B.Contact.email", 1.0);
        repo.put_mapping(m);
        let p1 = PathSet::new(&s1).unwrap();
        let p2 = PathSet::new(&s2).unwrap();
        let aux = Auxiliary::standard();
        let ctx = MatchContext::new(&s1, &s2, &p1, &p2, &aux).with_repository(&repo);
        let out = FragmentMatcher::new().compute(&ctx);
        assert!(out.values().iter().all(|&v| v == 0.0));
    }
}
