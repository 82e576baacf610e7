//! The token-set similarity engine behind the hybrid name matchers.

use crate::combine::{Aggregation, CombinedSim, DirectedCandidates, Direction, Selection};
use crate::cube::SimMatrix;
use crate::matchers::context::Auxiliary;
use coma_strings::{
    affix_similarity, edit_distance_similarity, ngram_set, ngram_similarity, normalize_token,
    soundex_similarity, tokenize,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A token-level simple matcher usable inside the hybrid `Name` matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenMatcher {
    /// Common prefix/suffix similarity.
    Affix,
    /// n-gram similarity with the given n (Digram = 2, Trigram = 3).
    NGram(usize),
    /// Levenshtein similarity.
    EditDistance,
    /// Phonetic similarity via Soundex.
    Soundex,
    /// Dictionary lookup in the synonym table.
    Synonym,
}

impl TokenMatcher {
    /// Similarity of two tokens under this matcher.
    pub fn similarity(self, a: &str, b: &str, aux: &Auxiliary) -> f64 {
        match self {
            TokenMatcher::Affix => affix_similarity(a, b),
            TokenMatcher::NGram(n) => ngram_similarity(a, b, n),
            TokenMatcher::EditDistance => edit_distance_similarity(a, b),
            TokenMatcher::Soundex => soundex_similarity(a, b),
            TokenMatcher::Synonym => aux.synonyms.similarity(a, b),
        }
    }
}

impl fmt::Display for TokenMatcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenMatcher::Affix => f.write_str("Affix"),
            TokenMatcher::NGram(2) => f.write_str("Digram"),
            TokenMatcher::NGram(3) => f.write_str("Trigram"),
            TokenMatcher::NGram(n) => write!(f, "{n}-gram"),
            TokenMatcher::EditDistance => f.write_str("EditDistance"),
            TokenMatcher::Soundex => f.write_str("Soundex"),
            TokenMatcher::Synonym => f.write_str("Synonym"),
        }
    }
}

/// The token-set similarity engine shared by the hybrid `Name` and
/// `NamePath` matchers (paper, Sections 4.2 and 6.4).
///
/// A name is tokenized and abbreviation-expanded into a token set; multiple
/// token matchers produce a token-level similarity cube that is combined
/// with the usual three steps. The paper's default (Table 4):
/// constituents `Trigram` + `Synonym`, aggregation `Max`, direction `Both`
/// with selection `Max1`, combined similarity `Average`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NameEngine {
    /// Token-level constituent matchers.
    pub token_matchers: Vec<TokenMatcher>,
    /// Step 1 over the token cube.
    pub aggregation: Aggregation,
    /// Step 2a over the token matrix (the paper presupposes `Both`).
    pub direction: Direction,
    /// Step 2b over the token matrix.
    pub selection: Selection,
    /// Step 3: combined similarity over the token sets.
    pub combined: CombinedSim,
}

impl NameEngine {
    /// The paper's default configuration (Table 4, row `Name`).
    pub fn paper_default() -> NameEngine {
        NameEngine {
            token_matchers: vec![TokenMatcher::NGram(3), TokenMatcher::Synonym],
            aggregation: Aggregation::Max,
            direction: Direction::Both,
            selection: Selection::max_n(1),
            combined: CombinedSim::Average,
        }
    }

    /// Tokenizes and abbreviation-expands a name into its token set
    /// (duplicates removed, first occurrence order kept).
    pub fn token_set(&self, name: &str, aux: &Auxiliary) -> Vec<String> {
        let expanded = aux.abbreviations.expand(&tokenize(name));
        let mut seen = Vec::with_capacity(expanded.len());
        for t in expanded {
            if !seen.contains(&t) {
                seen.push(t);
            }
        }
        seen
    }

    /// The aggregated constituent similarity of one token pair: every
    /// token matcher's (clamped) similarity folded with the engine's
    /// aggregation — the cell the cube-based formulation produces, without
    /// materializing a per-pair cube.
    ///
    /// # Panics
    /// Panics if the engine has no token matchers (nothing to aggregate).
    pub fn token_pair_similarity(&self, a: &str, b: &str, aux: &Auxiliary) -> f64 {
        assert!(
            !self.token_matchers.is_empty(),
            "cannot aggregate an empty token-matcher list"
        );
        let sims: Vec<f64> = self
            .token_matchers
            .iter()
            .map(|tm| tm.similarity(a, b, aux).clamp(0.0, 1.0))
            .collect();
        self.aggregate(&sims)
    }

    /// The `src × tgt` table (row-major) of token-pair similarities: cell
    /// `(i, j)` is exactly [`NameEngine::token_pair_similarity`] of
    /// `src[i]` and `tgt[j]`. Each token's features are derived once
    /// instead of once per pair: its n-gram set, interned as sorted
    /// integer ids, and its normalized form for the synonym lookup. Affix,
    /// EditDistance and Soundex keep the per-pair call.
    ///
    /// # Panics
    /// Panics if the engine has no token matchers (nothing to aggregate).
    pub fn token_table(&self, src: &[&str], tgt: &[&str], aux: &Auxiliary) -> Vec<f64> {
        assert!(
            !self.token_matchers.is_empty(),
            "cannot aggregate an empty token-matcher list"
        );
        let kernels: Vec<TokenKernel<'_>> = self
            .token_matchers
            .iter()
            .map(|&tm| TokenKernel::new(tm, src, tgt, aux))
            .collect();
        let mut sims = vec![0.0; kernels.len()];
        let mut table = Vec::with_capacity(src.len() * tgt.len());
        for i in 0..src.len() {
            for j in 0..tgt.len() {
                for (sim, kernel) in sims.iter_mut().zip(&kernels) {
                    *sim = kernel.similarity(i, j).clamp(0.0, 1.0);
                }
                table.push(self.aggregate(&sims));
            }
        }
        table
    }

    /// Step 1 for one token pair: folds its clamped constituent
    /// similarities with the engine's aggregation.
    fn aggregate(&self, sims: &[f64]) -> f64 {
        let value = match &self.aggregation {
            Aggregation::Max => sims.iter().copied().fold(f64::MIN, f64::max),
            Aggregation::Min => sims.iter().copied().fold(f64::MAX, f64::min),
            Aggregation::Average => sims.iter().sum::<f64>() / sims.len() as f64,
            Aggregation::Weighted(weights) => {
                assert_eq!(
                    weights.len(),
                    sims.len(),
                    "Weighted aggregation needs one weight per token matcher"
                );
                let total: f64 = weights.iter().sum();
                assert!(total > 0.0, "weights must not sum to zero");
                sims.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / total
            }
        };
        value.clamp(0.0, 1.0)
    }

    /// Steps 2+3 over token-table lookups: `lookup(i, j)` is the
    /// token-pair similarity of `t1[i]` and `t2[j]` (a cell of
    /// [`NameEngine::token_table`]). Equal to
    /// [`NameEngine::combine_token_sims`] over the matrix of those
    /// lookups; the paper-default `Both`/`Max1` selection never builds
    /// that matrix. `T` is any token representation whose equality is
    /// token identity (the hybrid matchers pass interned ids).
    pub fn combine_by<T: PartialEq>(
        &self,
        t1: &[T],
        t2: &[T],
        lookup: impl Fn(usize, usize) -> f64,
    ) -> f64 {
        if t1.is_empty() && t2.is_empty() {
            return 1.0;
        }
        if t1.is_empty() || t2.is_empty() {
            return 0.0;
        }
        if t1 == t2 {
            return 1.0;
        }
        let (m, n) = (t1.len(), t2.len());
        if self.direction == Direction::Both && self.selection == Selection::max_n(1) {
            return crate::combine::max1_both_combined(m, n, lookup, self.combined);
        }
        let mut sims = SimMatrix::new(m, n);
        for i in 0..m {
            for j in 0..n {
                sims.set(i, j, lookup(i, j));
            }
        }
        let candidates = DirectedCandidates::select(&sims, self.direction, &self.selection);
        self.combined.compute(&candidates, m, n)
    }

    /// Steps 2+3 over a pre-computed token-pair similarity matrix (cell
    /// `(i, j)` = [`NameEngine::token_pair_similarity`] of `t1[i]`,
    /// `t2[j]`). The per-pair reference formulation that
    /// [`NameEngine::combine_by`] is tested against.
    pub fn combine_token_sims(&self, t1: &[String], t2: &[String], sims: &SimMatrix) -> f64 {
        if t1.is_empty() && t2.is_empty() {
            return 1.0;
        }
        if t1.is_empty() || t2.is_empty() {
            return 0.0;
        }
        if t1 == t2 {
            return 1.0;
        }
        // The paper-default `Both`/`Max1` combination runs once per
        // distinct name pair of a match task — take the shared kernel
        // (value-identical to select + compute; cells already carry the
        // clamped token-pair values).
        if self.direction == Direction::Both
            && self.selection == Selection::max_n(1)
            && !sims.is_sparse()
            && (sims.rows(), sims.cols()) == (t1.len(), t2.len())
        {
            let values = sims.values();
            let n = t2.len();
            return crate::combine::max1_both_combined(
                t1.len(),
                n,
                |i, j| values[i * n + j],
                self.combined,
            );
        }
        let candidates = DirectedCandidates::select(sims, self.direction, &self.selection);
        self.combined.compute(&candidates, t1.len(), t2.len())
    }

    /// Combined similarity of two pre-computed token sets, one token pair
    /// at a time (the reference formulation of the kernel above).
    pub fn token_set_similarity(&self, t1: &[String], t2: &[String], aux: &Auxiliary) -> f64 {
        if t1.is_empty() && t2.is_empty() {
            return 1.0;
        }
        if t1.is_empty() || t2.is_empty() {
            return 0.0;
        }
        if t1 == t2 {
            return 1.0;
        }
        let mut matrix = SimMatrix::new(t1.len(), t2.len());
        for (i, a) in t1.iter().enumerate() {
            for (j, b) in t2.iter().enumerate() {
                matrix.set(i, j, self.token_pair_similarity(a, b, aux));
            }
        }
        self.combine_token_sims(t1, t2, &matrix)
    }

    /// Name-level similarity (tokenize + expand + combine), computed pair
    /// by pair. The hybrid matchers score whole tables through
    /// [`NameEngine::token_table`] and [`NameEngine::combine_by`] with
    /// bit-identical results.
    pub fn similarity(&self, a: &str, b: &str, aux: &Auxiliary) -> f64 {
        let t1 = self.token_set(a, aux);
        let t2 = self.token_set(b, aux);
        self.token_set_similarity(&t1, &t2, aux)
    }
}

impl Default for NameEngine {
    fn default() -> Self {
        NameEngine::paper_default()
    }
}

/// One token matcher over the distinct tokens of both sides of a
/// [`NameEngine::token_table`], with each token's features derived once.
enum TokenKernel<'a> {
    /// Each token's n-gram set as sorted ids of one shared gram
    /// interner; empty exactly for the empty token.
    NGram {
        src: Vec<Vec<u32>>,
        tgt: Vec<Vec<u32>>,
    },
    /// Each token's normalized form as an id, the id of the empty form,
    /// and per form id the dictionary relations it takes part in.
    Synonym {
        src: Vec<u32>,
        tgt: Vec<u32>,
        empty: Option<u32>,
        related: Vec<Vec<(u32, f64)>>,
    },
    /// The per-pair call.
    PerPair {
        matcher: TokenMatcher,
        src: &'a [&'a str],
        tgt: &'a [&'a str],
        aux: &'a Auxiliary,
    },
}

impl<'a> TokenKernel<'a> {
    fn new(
        matcher: TokenMatcher,
        src: &'a [&'a str],
        tgt: &'a [&'a str],
        aux: &'a Auxiliary,
    ) -> TokenKernel<'a> {
        match matcher {
            TokenMatcher::NGram(n) => {
                let mut grams: HashMap<String, u32> = HashMap::new();
                let mut gram_ids = |token: &str| -> Vec<u32> {
                    if token.is_empty() {
                        return Vec::new();
                    }
                    let mut ids: Vec<u32> = ngram_set(token, n)
                        .into_iter()
                        .map(|g| intern(&mut grams, g))
                        .collect();
                    ids.sort_unstable();
                    ids
                };
                TokenKernel::NGram {
                    src: src.iter().map(|t| gram_ids(t)).collect(),
                    tgt: tgt.iter().map(|t| gram_ids(t)).collect(),
                }
            }
            TokenMatcher::Synonym => {
                let mut forms: HashMap<String, u32> = HashMap::new();
                let mut form_id = |token: &str| intern(&mut forms, normalize_token(token));
                let src = src.iter().map(|t| form_id(t)).collect();
                let tgt = tgt.iter().map(|t| form_id(t)).collect();
                let mut related = vec![Vec::new(); forms.len()];
                // `SynonymTable::similarity` looks a pair up under its
                // ordered key, so only ordered keys can ever match.
                for (a, b, sim) in aux.synonyms.relations().filter(|(a, b, _)| a <= b) {
                    if let (Some(&x), Some(&y)) = (forms.get(a), forms.get(b)) {
                        related[x as usize].push((y, sim));
                        if x != y {
                            related[y as usize].push((x, sim));
                        }
                    }
                }
                TokenKernel::Synonym {
                    src,
                    tgt,
                    empty: forms.get("").copied(),
                    related,
                }
            }
            matcher => TokenKernel::PerPair {
                matcher,
                src,
                tgt,
                aux,
            },
        }
    }

    /// The matcher's similarity of source token `i` and target token `j`:
    /// the value [`TokenMatcher::similarity`] returns for them.
    fn similarity(&self, i: usize, j: usize) -> f64 {
        match self {
            TokenKernel::NGram { src, tgt } => {
                let (a, b) = (&src[i], &tgt[j]);
                match (a.is_empty(), b.is_empty()) {
                    (true, true) => 1.0,
                    (true, false) | (false, true) => 0.0,
                    _ => 2.0 * shared_count(a, b) as f64 / (a.len() + b.len()) as f64,
                }
            }
            TokenKernel::Synonym {
                src,
                tgt,
                empty,
                related,
            } => {
                let (x, y) = (src[i], tgt[j]);
                if x == y && Some(x) != *empty {
                    return 1.0;
                }
                related[x as usize]
                    .iter()
                    .find(|&&(other, _)| other == y)
                    .map_or(0.0, |&(_, sim)| sim)
            }
            TokenKernel::PerPair {
                matcher,
                src,
                tgt,
                aux,
            } => matcher.similarity(src[i], tgt[j], aux),
        }
    }
}

/// The id of `key` in `ids`, assigning the next free id on first sight.
fn intern(ids: &mut HashMap<String, u32>, key: String) -> u32 {
    let next = u32::try_from(ids.len()).expect("fewer than 2^32 distinct keys");
    *ids.entry(key).or_insert(next)
}

/// The number of ids two ascending id lists share.
fn shared_count(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchers::synonym::SynonymTable;

    fn aux() -> Auxiliary {
        let mut a = Auxiliary::standard();
        a.synonyms = SynonymTable::purchase_order();
        a
    }

    #[test]
    fn identical_names_score_1() {
        let e = NameEngine::paper_default();
        assert_eq!(e.similarity("shipToCity", "shipToCity", &aux()), 1.0);
    }

    #[test]
    fn ship_to_matches_deliver_to_via_synonym() {
        // Section 6.4's motivating case: Trigram finds nothing for
        // Ship/Deliver, Synonym does; Max aggregation lets it through.
        let e = NameEngine::paper_default();
        let sim = e.similarity("ShipTo", "DeliverTo", &aux());
        assert!(sim > 0.9, "ShipTo vs DeliverTo: {sim}");
        // Without the synonym table the similarity collapses.
        let plain = Auxiliary::standard();
        let sim_plain = e.similarity("ShipTo", "DeliverTo", &plain);
        assert!(sim_plain < 0.6, "without synonyms: {sim_plain}");
    }

    #[test]
    fn po_expansion_helps() {
        // PO → Purchase Order (abbreviation expansion, Section 4.2).
        let e = NameEngine::paper_default();
        let sim = e.similarity("POShipTo", "PurchaseOrderShipTo", &aux());
        assert!(sim > 0.95, "{sim}");
    }

    #[test]
    fn partial_token_overlap_scores_between_0_and_1() {
        let e = NameEngine::paper_default();
        let sim = e.similarity("shipToCity", "custCity", &aux());
        assert!(sim > 0.2 && sim < 0.8, "{sim}");
    }

    #[test]
    fn unrelated_names_score_low() {
        let e = NameEngine::paper_default();
        let sim = e.similarity("poNo", "street", &aux());
        assert!(sim < 0.3, "{sim}");
    }

    #[test]
    fn token_sets_dedup_and_expand() {
        let e = NameEngine::paper_default();
        let toks = e.token_set("shipToShipDate", &aux());
        assert_eq!(toks, vec!["ship", "to", "date"]);
    }

    /// The `Both`/`Max1` fast path inside `combine_token_sims` computes
    /// exactly what the generic select + compute pipeline computes.
    #[test]
    fn combine_fast_path_matches_generic_pipeline() {
        use crate::combine::DirectedCandidates;
        let toks =
            |names: &[&str]| -> Vec<String> { names.iter().map(|s| s.to_string()).collect() };
        let t1 = toks(&["ship", "to", "city"]);
        let t2 = toks(&["deliver", "town"]);
        let mut sims = SimMatrix::new(3, 2);
        sims.set(0, 0, 1.0); // ship ↔ deliver (synonym)
        sims.set(2, 1, 0.5); // city ↔ town
        sims.set(1, 1, 0.5); // exact tie: first index must win
        for combined in [CombinedSim::Average, CombinedSim::Dice] {
            let engine = NameEngine {
                combined,
                ..NameEngine::paper_default()
            };
            let fast = engine.combine_token_sims(&t1, &t2, &sims);
            let cands = DirectedCandidates::select(&sims, engine.direction, &engine.selection);
            let generic = engine.combined.compute(&cands, t1.len(), t2.len());
            assert_eq!(fast, generic, "{combined:?}");
        }
    }

    #[test]
    fn empty_name_conventions() {
        let e = NameEngine::paper_default();
        assert_eq!(e.similarity("", "", &aux()), 1.0);
        assert_eq!(e.similarity("", "x", &aux()), 0.0);
    }
}
