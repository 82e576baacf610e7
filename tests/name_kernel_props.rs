//! Oracle properties of the name engine's table kernel: the hybrid name
//! matchers score through `NameEngine::token_table` and
//! `NameEngine::combine_by`, and derive `NamePath`'s long-name token sets
//! with `path_token_sets`. Each must equal the per-pair formulation it
//! replaced bit for bit: `token_pair_similarity` for every token pair,
//! `combine_token_sims` for every set pair, and `token_set` of the
//! space-joined long name for every path.

use coma::core::combine::{Aggregation, CombinedSim, Direction, Selection};
use coma::core::matchers::hybrid::path_token_sets;
use coma::core::matchers::name_engine::{NameEngine, TokenMatcher};
use coma::core::matchers::synonym::SynonymTable;
use coma::core::{Auxiliary, SimMatrix};
use coma::graph::{Node, PathSet, Schema, SchemaBuilder};
use coma_bench::workload::{generate_task, WorkloadShape, WorkloadSpec};
use proptest::prelude::*;

/// Tokens the generated lists draw from half the time: the empty token,
/// tokens shorter than q, synonym and hypernym pairs of the
/// purchase-order table, and pairs equal only after Unicode case folding.
const POOL: [&str; 22] = [
    "",
    "a",
    "no",
    "x",
    "ship",
    "deliver",
    "city",
    "location",
    "zip",
    "postcode",
    "street",
    "Straße",
    "STRASSE",
    "straße",
    "İstanbul",
    "istanbul",
    "ΣΊΣΥΦΟΣ",
    "σίσυφος",
    "Ω",
    "ω",
    "--",
    "bill-to",
];

/// Every token matcher alone, the paper default, and all of them at once.
fn matcher_sets() -> Vec<Vec<TokenMatcher>> {
    use TokenMatcher::*;
    vec![
        vec![Affix],
        vec![NGram(2)],
        vec![NGram(3)],
        vec![EditDistance],
        vec![Soundex],
        vec![Synonym],
        vec![NGram(3), Synonym],
        vec![Affix, NGram(2), EditDistance, Soundex, Synonym, NGram(3)],
    ]
}

fn aggregations(matchers: usize) -> Vec<Aggregation> {
    let weights = (1..=matchers).map(|w| w as f64 * 0.7).collect();
    vec![
        Aggregation::Max,
        Aggregation::Min,
        Aggregation::Average,
        Aggregation::Weighted(weights),
    ]
}

/// The standard tables without synonyms, and with the purchase-order
/// table plus relations between tokens of `POOL`.
fn auxes() -> [Auxiliary; 2] {
    let plain = Auxiliary::standard();
    let mut with_synonyms = Auxiliary::standard();
    with_synonyms.synonyms = SynonymTable::purchase_order();
    with_synonyms.synonyms.add_synonym("Straße", "road");
    with_synonyms.synonyms.add_with_similarity("x", "Ω", 0.4);
    with_synonyms
        .synonyms
        .add_with_similarity("bill-to", "bill-to", 0.6);
    [plain, with_synonyms]
}

fn tokens() -> impl Strategy<Value = Vec<String>> {
    let random = proptest::string::string_regex("[a-cA-CßİıσΣ0-1 _-]{0,5}").unwrap();
    proptest::collection::vec((0..2 * POOL.len(), random), 0..7).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(k, random)| POOL.get(k).map_or(random, |t| t.to_string()))
            .collect()
    })
}

/// Asserts that `token_table` holds exactly `token_pair_similarity` in
/// every cell, for every matcher set, aggregation and auxiliary table.
fn check_table(src: &[String], tgt: &[String]) -> Result<(), TestCaseError> {
    let src: Vec<&str> = src.iter().map(String::as_str).collect();
    let tgt: Vec<&str> = tgt.iter().map(String::as_str).collect();
    for aux in &auxes() {
        for token_matchers in matcher_sets() {
            for aggregation in aggregations(token_matchers.len()) {
                let engine = NameEngine {
                    token_matchers: token_matchers.clone(),
                    aggregation,
                    ..NameEngine::paper_default()
                };
                let table = engine.token_table(&src, &tgt, aux);
                prop_assert_eq!(table.len(), src.len() * tgt.len());
                for (i, a) in src.iter().enumerate() {
                    for (j, b) in tgt.iter().enumerate() {
                        let cell = table[i * tgt.len() + j];
                        let pair = engine.token_pair_similarity(a, b, aux);
                        prop_assert_eq!(
                            cell.to_bits(),
                            pair.to_bits(),
                            "{:?} {:?}: {:?} vs {:?}: table {} pair {}",
                            engine.token_matchers,
                            engine.aggregation,
                            a,
                            b,
                            cell,
                            pair
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

#[test]
fn token_table_matches_pairs_on_the_edge_pool() {
    let pool: Vec<String> = POOL.iter().map(|t| t.to_string()).collect();
    check_table(&pool, &pool).unwrap();
}

/// Steps 2+3 configurations: the paper's `Both`/`Max1` and selections
/// that take the generic path, under both combined similarities.
fn combinations() -> Vec<NameEngine> {
    let mut out = Vec::new();
    for combined in [CombinedSim::Average, CombinedSim::Dice] {
        for (direction, selection) in [
            (Direction::Both, Selection::max_n(1)),
            (Direction::Both, Selection::max_n(2)),
            (Direction::LargeSmall, Selection::max_n(1)),
            (Direction::SmallLarge, Selection::threshold(0.3)),
            (Direction::Both, Selection::delta(0.2)),
        ] {
            out.push(NameEngine {
                direction,
                selection,
                combined,
                ..NameEngine::paper_default()
            });
        }
    }
    out
}

proptest! {
    #[test]
    fn token_table_matches_token_pair_similarity(src in tokens(), tgt in tokens()) {
        check_table(&src, &tgt)?;
    }

    #[test]
    fn combine_by_matches_combine_token_sims(
        t1 in tokens(),
        t2 in tokens(),
        same in 0usize..4,
        cells in proptest::collection::vec(0usize..6, 36),
    ) {
        // Some cases score a set against itself (the identical-set rule).
        let t2 = if same == 0 { t1.clone() } else { t2 };
        // Few distinct values, so ties and zeros are common.
        const VALUES: [f64; 6] = [0.0, 0.25, 0.5, 0.5, 1.0, 0.8125];
        let mut sims = SimMatrix::new(t1.len(), t2.len());
        for i in 0..t1.len() {
            for j in 0..t2.len() {
                sims.set(i, j, VALUES[cells[(i * 6 + j) % cells.len()]]);
            }
        }
        for engine in combinations() {
            let by = engine.combine_by(&t1, &t2, |i, j| sims.get(i, j));
            let reference = engine.combine_token_sims(&t1, &t2, &sims);
            prop_assert_eq!(
                by.to_bits(),
                reference.to_bits(),
                "{:?}/{:?}/{:?}: {} vs {}",
                engine.direction,
                engine.selection,
                engine.combined,
                by,
                reference
            );
        }
    }
}

/// Asserts that every path's derived token set is the token set of its
/// space-joined long name, for all paths and for a subset of wanted ones.
fn check_path_sets(schema: &Schema, aux: &Auxiliary) {
    let engine = NameEngine::paper_default();
    let paths = PathSet::new(schema).unwrap();
    let name_tokens = |p| engine.token_set(paths.name(schema, p), aux);
    let all = path_token_sets(&paths, |_| true, name_tokens);
    let some = path_token_sets(&paths, |p| p % 7 == 3, name_tokens);
    for (p, id) in paths.iter().enumerate() {
        let long = paths.join_names(schema, id, " ");
        let expected = engine.token_set(&long, aux);
        assert_eq!(all[p], expected, "{}: {long:?}", schema.name());
        if p % 7 == 3 {
            assert_eq!(some[p], expected, "{}: {long:?}", schema.name());
        }
    }
}

#[test]
fn path_token_sets_match_joined_long_names() {
    let corpus = coma::eval::Corpus::load();
    for i in 0..coma::eval::SCHEMA_NAMES.len() {
        check_path_sets(corpus.schema(i), corpus.aux());
    }
    let (source, target) = generate_task(&WorkloadSpec::new(WorkloadShape::Deep, 600, 7));
    for schema in [&source, &target] {
        check_path_sets(schema, &Auxiliary::standard());
    }
}

proptest! {
    /// Random chains with names that split into tokens at delimiters,
    /// camelCase and acronym boundaries, and expand abbreviations.
    #[test]
    fn path_token_sets_match_on_generated_chains(
        names in proptest::collection::vec(
            proptest::string::string_regex("[aPOoNSsh ._İß0-9]{0,6}").unwrap(),
            1..12,
        ),
        fanout in 1usize..4,
    ) {
        let mut b = SchemaBuilder::new("Chain");
        let root = b.add_node(Node::new("Chain"));
        let mut parent = root;
        for (k, name) in names.iter().enumerate() {
            let node = b.add_node(Node::new(name.as_str()));
            b.add_child(parent, node).unwrap();
            if k % fanout == 0 {
                parent = node;
            }
        }
        check_path_sets(&b.build().unwrap(), &Auxiliary::standard());
    }
}
