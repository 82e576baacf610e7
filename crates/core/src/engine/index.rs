//! Sub-linear candidate generation: the vocabulary inverted index behind
//! [`MatchPlan::CandidateIndex`](super::MatchPlan).
//!
//! Every other first stage is O(m×n): even the streaming-fused path
//! computes every cell of the cross product before pruning it. The
//! inverted index turns candidate generation into a *retrieval* problem
//! instead — the two-step retrieve-then-refine design of modern matching
//! systems. Each schema side is indexed once:
//!
//! * **token postings** — element name → abbreviation-expanded token set
//!   (exactly the tokenization the hybrid `Name` matcher applies, via
//!   [`coma_strings::tokenize`] and the auxiliary abbreviation table), one
//!   posting list per distinct token;
//! * **q-gram postings** — the [`coma_strings::ngram_set`] grams of every
//!   token, one posting list per distinct gram, for fuzzy recall (two
//!   names the `Trigram` matcher scores above zero always share a gram).
//!
//! Candidates for a source element are generated by walking the target
//! postings of its tokens (plus their synonym/hypernym expansions from the
//! auxiliary dictionary) and grams, accumulating per-target scores in
//! O(postings) — the cross product is never touched. Scores combine an
//! IDF-weighted token cosine (stop-tokens like `id`/`name` carry little
//! weight, so sharing only them cannot densify the candidate mask at any
//! useful `min_score`) with the q-gram Dice coefficient.
//!
//! **Recall guarantee.** With `min_shared_tokens = 1`, `min_score = 0` and
//! no per-element cap, the candidate set is a strict superset of every
//! pair the paper-default `Name` matcher scores above zero — and hence of
//! any exact first-stage selection at a positive threshold (the `Trigram`
//! component implies a shared gram, the `Synonym` component a shared or
//! dictionary-related token). Property-tested in
//! `tests/plan_engine_props.rs`. Raising `min_score` or capping
//! candidates trades recall for a sparser mask, like an ANN index's
//! search knobs.

use super::mask::PairMask;
use super::rules::ShardSink;
use crate::combine::{rank_entries, Selection};
use crate::cube::SimMatrix;
use crate::matchers::context::Auxiliary;
use crate::matchers::synonym::SynonymTable;
use coma_strings::{ngram_set, tokenize};
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// A vocabulary inverted index over one schema side's element names:
/// token postings plus q-gram postings, with per-element token/gram id
/// lists for the query side. Built once per side and memoized for the
/// plan execution (see [`MatchMemo::vocab_index`](super::MatchMemo)).
#[derive(Debug)]
pub struct VocabIndex {
    /// Token arena; ids are assignment order (deterministic: first use).
    tokens: Vec<String>,
    token_ids: HashMap<String, u32>,
    /// Per token id: the elements containing it, ascending.
    token_postings: Vec<Vec<u32>>,
    /// Per element: its distinct token ids, first-occurrence order (the
    /// same dedup the name engine's `token_set` applies).
    element_tokens: Vec<Vec<u32>>,
    /// Gram arena (empty when `q == 0`).
    grams: Vec<String>,
    gram_ids: HashMap<String, u32>,
    /// Per gram id: the elements whose tokens contain it, ascending.
    gram_postings: Vec<Vec<u32>>,
    /// Per element: its distinct gram ids, ascending.
    element_grams: Vec<Vec<u32>>,
    q: usize,
    build_nanos: u64,
}

impl VocabIndex {
    /// Builds the index over `names` (one per element, in element order)
    /// with the abbreviation expansions of `aux` applied — the exact
    /// token sets the `Name` matcher compares, which is what makes the
    /// recall guarantee hold. `q == 0` disables the gram channel.
    pub fn build<'a>(
        names: impl IntoIterator<Item = &'a str>,
        aux: &Auxiliary,
        q: usize,
    ) -> VocabIndex {
        let start = Instant::now();
        let mut index = VocabIndex {
            tokens: Vec::new(),
            token_ids: HashMap::new(),
            token_postings: Vec::new(),
            element_tokens: Vec::new(),
            grams: Vec::new(),
            gram_ids: HashMap::new(),
            gram_postings: Vec::new(),
            element_grams: Vec::new(),
            q,
            build_nanos: 0,
        };
        for (el, name) in names.into_iter().enumerate() {
            let expanded = aux.abbreviations.expand(&tokenize(name));
            let mut tids: Vec<u32> = Vec::with_capacity(expanded.len());
            for token in expanded {
                let tid = intern(&mut index.tokens, &mut index.token_ids, token);
                if !tids.contains(&tid) {
                    tids.push(tid);
                }
            }
            let mut gids: Vec<u32> = Vec::new();
            if q > 0 {
                for &tid in &tids {
                    for gram in ngram_set(&index.tokens[tid as usize], q) {
                        let gid = intern(&mut index.grams, &mut index.gram_ids, gram);
                        if !gids.contains(&gid) {
                            gids.push(gid);
                        }
                    }
                }
                gids.sort_unstable();
            }
            index.token_postings.resize(index.tokens.len(), Vec::new());
            index.gram_postings.resize(index.grams.len(), Vec::new());
            for &tid in &tids {
                index.token_postings[tid as usize].push(el as u32);
            }
            for &gid in &gids {
                index.gram_postings[gid as usize].push(el as u32);
            }
            index.element_tokens.push(tids);
            index.element_grams.push(gids);
        }
        index.build_nanos = start.elapsed().as_nanos() as u64;
        index
    }

    /// Number of indexed elements.
    pub fn elements(&self) -> usize {
        self.element_tokens.len()
    }

    /// The gram length the index was built with (0 = token channel only).
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of distinct tokens in the vocabulary.
    pub fn distinct_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Number of distinct q-grams in the vocabulary.
    pub fn distinct_grams(&self) -> usize {
        self.grams.len()
    }

    /// Total token posting entries (the token channel's work unit).
    pub fn token_posting_entries(&self) -> usize {
        self.token_postings.iter().map(Vec::len).sum()
    }

    /// Total q-gram posting entries (the gram channel's work unit).
    pub fn gram_posting_entries(&self) -> usize {
        self.gram_postings.iter().map(Vec::len).sum()
    }

    /// Wall time the index construction took, in nanoseconds (survives
    /// memoization, so a stage can report the true build cost even on a
    /// cache hit).
    pub fn build_nanos(&self) -> u64 {
        self.build_nanos
    }

    /// Iterates the distinct tokens of the vocabulary in id (first-use)
    /// order. The analyzer computes cross-side vocabulary overlap from
    /// this without touching postings.
    pub fn tokens(&self) -> impl Iterator<Item = &str> {
        self.tokens.iter().map(String::as_str)
    }

    /// Whether `token` occurs in the vocabulary.
    pub fn has_token(&self, token: &str) -> bool {
        self.token_ids.contains_key(token)
    }

    /// The token arena, giving the index up: the distinct tokens in id
    /// (first-use) order.
    pub(crate) fn into_tokens(self) -> Vec<String> {
        self.tokens
    }

    fn token_id(&self, token: &str) -> Option<u32> {
        self.token_ids.get(token).copied()
    }
}

fn intern(arena: &mut Vec<String>, ids: &mut HashMap<String, u32>, value: String) -> u32 {
    if let Some(&id) = ids.get(&value) {
        return id;
    }
    let id = arena.len() as u32;
    arena.push(value.clone());
    ids.insert(value, id);
    id
}

/// Observability of one `CandidateIndex` stage, surfaced on
/// [`StageOutcome`](super::StageOutcome) and printed by
/// `coma-cli --verbose`: what the index cost to build and how much
/// posting traffic the candidate generation walked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Combined build wall time of the two per-side indexes, nanoseconds.
    pub build_nanos: u64,
    /// Total token posting entries across both sides.
    pub token_postings: usize,
    /// Total q-gram posting entries across both sides.
    pub gram_postings: usize,
    /// Distinct tokens across both sides' vocabularies.
    pub distinct_tokens: usize,
    /// Distinct q-grams across both sides' vocabularies.
    pub distinct_grams: usize,
}

/// The candidate-generation thresholds of one `CandidateIndex` leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateParams {
    /// Minimum shared (synonym-expanded) tokens for a pair to qualify via
    /// the token channel; a shared q-gram qualifies a pair regardless.
    pub min_shared_tokens: usize,
    /// Candidates scoring below this are dropped (0 keeps every shared-
    /// posting pair — the recall-guaranteed configuration).
    pub min_score: f64,
    /// When set, each source element keeps only its best `cap` candidates
    /// and each target element its best `cap` (the union, like
    /// `TopKPer::Both`), so the mask stays O(cap·(m+n)).
    pub per_element: Option<usize>,
}

/// One token's query plan: the target posting lists its occurrences
/// reach, with the weight each shared occurrence contributes. Built once
/// per distinct source token (exact match plus dictionary expansions) so
/// per-element accumulation is a flat walk over posting lists.
struct TokenPlan {
    /// `(target token id, contribution)`, sorted for determinism.
    hits: Vec<(u32, f64)>,
}

/// A prepared candidate generator over two per-side indexes: IDF-style
/// weights from the combined document frequencies, per-element vector
/// norms, and per-source-token query plans (including synonym/hypernym
/// expansions). Accumulation is strictly posting-proportional.
pub struct CandidateScorer<'a> {
    source: &'a VocabIndex,
    target: &'a VocabIndex,
    params: CandidateParams,
    /// Indexed by source token id.
    plans: Vec<TokenPlan>,
    /// Source gram id → target gram id, where the gram exists there.
    gram_map: Vec<Option<u32>>,
    source_norms: Vec<f64>,
    target_norms: Vec<f64>,
}

impl<'a> CandidateScorer<'a> {
    /// Prepares weights, norms and per-token query plans. `synonyms` is
    /// the auxiliary dictionary whose relations expand the token channel
    /// (scaled by the relationship similarity, e.g. 0.8 for hypernyms).
    pub fn new(
        source: &'a VocabIndex,
        target: &'a VocabIndex,
        synonyms: &SynonymTable,
        params: CandidateParams,
    ) -> CandidateScorer<'a> {
        let total = (source.elements() + target.elements()).max(1) as f64;
        // IDF-style weight from the combined document frequency: common
        // tokens (`id`, `name`, …) approach ln(2), rare ones grow with
        // ln(N). Always positive, so a shared token always scores.
        let weight_of = |token: &str, own_df: usize, other: &VocabIndex| -> f64 {
            let other_df = other
                .token_id(token)
                .map_or(0, |tid| other.token_postings[tid as usize].len());
            (1.0 + total / (own_df + other_df).max(1) as f64).ln()
        };
        let source_weights: Vec<f64> = source
            .tokens
            .iter()
            .enumerate()
            .map(|(tid, t)| weight_of(t, source.token_postings[tid].len(), target))
            .collect();
        let target_weights: Vec<f64> = target
            .tokens
            .iter()
            .enumerate()
            .map(|(tid, t)| weight_of(t, target.token_postings[tid].len(), source))
            .collect();
        let norms = |index: &VocabIndex, weights: &[f64]| -> Vec<f64> {
            index
                .element_tokens
                .iter()
                .map(|tids| {
                    tids.iter()
                        .map(|&tid| weights[tid as usize].powi(2))
                        .sum::<f64>()
                        .sqrt()
                })
                .collect()
        };
        let source_norms = norms(source, &source_weights);
        let target_norms = norms(target, &target_weights);

        let mut plans: Vec<TokenPlan> = source
            .tokens
            .iter()
            .enumerate()
            .map(|(tid, token)| {
                let mut hits = Vec::new();
                if let Some(ttid) = target.token_id(token) {
                    hits.push((ttid, source_weights[tid] * target_weights[ttid as usize]));
                }
                TokenPlan { hits }
            })
            .collect();
        // Dictionary expansions: a source token also reaches the target
        // postings of its synonyms/hypernyms, scaled by the relationship
        // similarity. Tokens are lower-case alphanumeric already, so they
        // coincide with the table's normalized keys.
        for (a, b, sim) in synonyms.relations() {
            for (from, to) in [(a, b), (b, a)] {
                if let (Some(stid), Some(ttid)) = (source.token_id(from), target.token_id(to)) {
                    let contrib =
                        source_weights[stid as usize] * target_weights[ttid as usize] * sim;
                    plans[stid as usize].hits.push((ttid, contrib));
                }
            }
        }
        // The dictionary map iterates in arbitrary order; sort each plan
        // so per-cell accumulation order — and thus every floating-point
        // sum — is reproducible across runs.
        for plan in &mut plans {
            plan.hits
                .sort_unstable_by_key(|&(tid, w)| (tid, w.to_bits()));
        }

        let gram_map: Vec<Option<u32>> = source
            .grams
            .iter()
            .map(|g| target.gram_ids.get(g).copied())
            .collect();

        CandidateScorer {
            source,
            target,
            params,
            plans,
            gram_map,
            source_norms,
            target_norms,
        }
    }

    /// Generates the candidates of the source rows in `ranges` — one CSR
    /// fragment per range (each row's qualifying candidates, capped to
    /// the per-element best when configured) plus, when a cap is set, the
    /// per-target-column candidate pool (global row indices, folded to a
    /// small multiple of the cap) that lets the caller restore each
    /// target element's best candidates across all rows. Work and memory
    /// are proportional to the posting entries walked, never to `m × n`.
    pub fn fill_ranges(
        &self,
        ranges: &[Range<usize>],
        mask: Option<&PairMask>,
    ) -> (Vec<SimMatrix>, Vec<(usize, usize, f64)>) {
        let n = self.target.elements();
        // The cap ranks like every selection: score descending, lower
        // index first.
        let cap = self.params.per_element.map(Selection::max_n);
        let mut sink = ShardSink::new(n, cap.as_ref());

        let mut score = vec![0.0f64; n];
        let mut tok_hits = vec![0u32; n];
        let mut gram_hits = vec![0u32; n];
        let mut stamp = vec![0u32; n];
        let mut epoch = 0u32;
        let mut touched: Vec<u32> = Vec::new();
        let mut emit: Vec<(usize, f64)> = Vec::new();
        for range in ranges {
            sink.begin(range);
            for i in range.clone() {
                epoch += 1;
                touched.clear();
                let mut touch = |j: u32, score: &mut [f64], tok: &mut [u32], gram: &mut [u32]| {
                    if stamp[j as usize] != epoch {
                        stamp[j as usize] = epoch;
                        score[j as usize] = 0.0;
                        tok[j as usize] = 0;
                        gram[j as usize] = 0;
                        touched.push(j);
                    }
                };
                for &tid in &self.source.element_tokens[i] {
                    for &(ttid, contrib) in &self.plans[tid as usize].hits {
                        for &j in &self.target.token_postings[ttid as usize] {
                            touch(j, &mut score, &mut tok_hits, &mut gram_hits);
                            score[j as usize] += contrib;
                            tok_hits[j as usize] += 1;
                        }
                    }
                }
                for &gid in &self.source.element_grams[i] {
                    if let Some(tgid) = self.gram_map[gid as usize] {
                        for &j in &self.target.gram_postings[tgid as usize] {
                            touch(j, &mut score, &mut tok_hits, &mut gram_hits);
                            gram_hits[j as usize] += 1;
                        }
                    }
                }

                // Score the touched columns in ascending order so emission
                // (and any cap tie-break) is deterministic.
                touched.sort_unstable();
                emit.clear();
                let norm_i = self.source_norms[i];
                let grams_i = self.source.element_grams[i].len();
                for &j in &touched {
                    let j = j as usize;
                    let toks = tok_hits[j] as usize;
                    let grams_shared = gram_hits[j];
                    if toks < self.params.min_shared_tokens && grams_shared == 0 {
                        continue;
                    }
                    let mut s = 0.0f64;
                    let norm_j = self.target_norms[j];
                    if toks > 0 && norm_i > 0.0 && norm_j > 0.0 {
                        s = (score[j] / (norm_i * norm_j)).min(1.0);
                    }
                    if grams_shared > 0 {
                        let denom = grams_i + self.target.element_grams[j].len();
                        if denom > 0 {
                            s = s.max(2.0 * f64::from(grams_shared) / denom as f64);
                        }
                    }
                    if s < self.params.min_score || s <= 0.0 {
                        continue;
                    }
                    if mask.is_some_and(|m| !m.allows(i, j)) {
                        continue;
                    }
                    emit.push((j, s));
                }

                // Column pools see every qualifying cell (a cell the row
                // cap sheds may still be among its column's best).
                sink.pool(i, &emit);
                sink.store(i, &mut emit, cap.as_ref());
            }
        }
        sink.finish()
    }
}

/// Reduces the concatenated per-worker column pools to each column's
/// exact `cap` best cells (every worker pool is a superset of its rows'
/// contribution to the global best, so the union re-selects exactly).
pub fn select_pooled(mut pooled: Vec<(usize, usize, f64)>, cap: usize) -> Vec<(usize, usize, f64)> {
    pooled.sort_unstable_by_key(|&(_, j, _)| j);
    let cap = Selection::max_n(cap);
    let (mut kept, mut column) = (Vec::new(), Vec::new());
    for cells in pooled.chunk_by(|a, b| a.1 == b.1) {
        column.clear();
        column.extend(cells.iter().map(|&(i, _, v)| (i, v)));
        rank_entries(&mut column, &cap);
        kept.extend(column.iter().map(|&(i, v)| (i, cells[0].1, v)));
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchers::context::Auxiliary;

    fn aux() -> Auxiliary {
        Auxiliary::standard()
    }

    #[test]
    fn postings_cover_tokens_and_grams() {
        let aux = aux();
        let index = VocabIndex::build(["shipToCity", "custNo", "shipDate"], &aux, 3);
        assert_eq!(index.elements(), 3);
        // "ship" occurs in elements 0 and 2.
        let tid = index.token_id("ship").unwrap();
        assert_eq!(index.token_postings[tid as usize], vec![0, 2]);
        // Abbreviation expansion applies: custNo → customer + number.
        assert!(index.token_id("customer").is_some());
        assert!(index.distinct_grams() > 0);
        assert!(index.token_posting_entries() >= 6);
    }

    /// One-element shard list for `fill_ranges` — the unit tests score a
    /// single shard covering all rows.
    fn one_shard(r: Range<usize>) -> [Range<usize>; 1] {
        [r]
    }

    #[test]
    fn q_zero_disables_the_gram_channel() {
        let aux = aux();
        let index = VocabIndex::build(["shipTo", "billTo"], &aux, 0);
        assert_eq!(index.distinct_grams(), 0);
        assert_eq!(index.gram_posting_entries(), 0);
    }

    #[test]
    fn shared_token_pairs_are_candidates() {
        let aux = aux();
        let src = VocabIndex::build(["shipToCity", "orderDate"], &aux, 3);
        let tgt = VocabIndex::build(["deliveryCity", "orderedOn", "price"], &aux, 3);
        let scorer = CandidateScorer::new(
            &src,
            &tgt,
            &aux.synonyms,
            CandidateParams {
                min_shared_tokens: 1,
                min_score: 0.0,
                per_element: None,
            },
        );
        let (fragments, pooled) = scorer.fill_ranges(&one_shard(0..2), None);
        assert!(pooled.is_empty(), "no cap, no pools");
        let matrix = SimMatrix::from_row_shards(3, fragments);
        // shipToCity ↔ deliveryCity share the "city" token.
        assert!(matrix.get(0, 0) > 0.0);
        // orderDate ↔ orderedOn share the "order…" grams at least.
        assert!(matrix.get(1, 1) > 0.0);
        // orderDate ↔ price share nothing.
        assert_eq!(matrix.get(1, 2), 0.0);
    }

    #[test]
    fn synonyms_reach_across_vocabularies() {
        let mut aux = aux();
        aux.synonyms.add_synonym("customer", "buyer");
        let src = VocabIndex::build(["custName"], &aux, 0);
        let tgt = VocabIndex::build(["buyerName", "zzz"], &aux, 0);
        let scorer = CandidateScorer::new(
            &src,
            &tgt,
            &aux.synonyms,
            CandidateParams {
                min_shared_tokens: 1,
                min_score: 0.0,
                per_element: None,
            },
        );
        let (fragments, _) = scorer.fill_ranges(&one_shard(0..1), None);
        let matrix = SimMatrix::from_row_shards(2, fragments);
        assert!(
            matrix.get(0, 0) > 0.0,
            "custName must reach buyerName via the dictionary"
        );
        assert_eq!(matrix.get(0, 1), 0.0);
    }

    #[test]
    fn idf_weighting_downranks_stop_tokens() {
        let aux = aux();
        // "id" is ubiquitous on both sides; "shipment" is rare.
        let names_src = ["shipmentId", "orderId", "lineId", "itemId"];
        let names_tgt = ["shipmentId", "productId", "vendorId", "taxId"];
        let src = VocabIndex::build(names_src, &aux, 0);
        let tgt = VocabIndex::build(names_tgt, &aux, 0);
        let scorer = CandidateScorer::new(
            &src,
            &tgt,
            &aux.synonyms,
            CandidateParams {
                min_shared_tokens: 1,
                min_score: 0.0,
                per_element: None,
            },
        );
        let (fragments, _) = scorer.fill_ranges(&one_shard(0..4), None);
        let matrix = SimMatrix::from_row_shards(4, fragments);
        // Sharing the rare "shipment" token scores far above sharing only
        // the stop token "id".
        let rare = matrix.get(0, 0);
        let stop = matrix.get(1, 1);
        assert!(rare > stop, "rare {rare} vs stop {stop}");
        assert!(stop > 0.0, "stop-token pairs still qualify at min_score 0");
    }

    #[test]
    fn per_element_cap_bounds_each_row() {
        let aux = aux();
        let names: Vec<String> = (0..12).map(|i| format!("item{i}Price")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let src = VocabIndex::build(refs.iter().copied(), &aux, 3);
        let tgt = VocabIndex::build(refs.iter().copied(), &aux, 3);
        let scorer = CandidateScorer::new(
            &src,
            &tgt,
            &aux.synonyms,
            CandidateParams {
                min_shared_tokens: 1,
                min_score: 0.0,
                per_element: Some(2),
            },
        );
        let (fragments, pooled) = scorer.fill_ranges(&one_shard(0..12), None);
        let matrix = SimMatrix::from_row_shards(12, fragments);
        for i in 0..12 {
            assert!(matrix.row_entries(i).count() <= 2, "row {i} over cap");
        }
        // Pools exist and stay folded near the cap.
        assert!(!pooled.is_empty());
        let kept = select_pooled(pooled, 2);
        let mut per_col = [0usize; 12];
        for &(_, j, _) in &kept {
            per_col[j] += 1;
        }
        assert!(per_col.iter().all(|&c| c <= 2));
    }

    #[test]
    fn mask_restricts_emission() {
        let aux = aux();
        let src = VocabIndex::build(["shipTo", "billTo"], &aux, 3);
        let tgt = VocabIndex::build(["shipTo", "billTo"], &aux, 3);
        let mut mask = PairMask::new(2, 2);
        mask.allow(0, 0);
        let scorer = CandidateScorer::new(
            &src,
            &tgt,
            &aux.synonyms,
            CandidateParams {
                min_shared_tokens: 1,
                min_score: 0.0,
                per_element: None,
            },
        );
        let (fragments, _) = scorer.fill_ranges(&one_shard(0..2), Some(&mask));
        let matrix = SimMatrix::from_row_shards(2, fragments);
        assert!(matrix.get(0, 0) > 0.0);
        assert_eq!(matrix.get(0, 1), 0.0);
        assert_eq!(matrix.get(1, 1), 0.0);
    }
}
