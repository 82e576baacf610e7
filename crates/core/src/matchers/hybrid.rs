//! The hybrid element-level matchers of Section 4.2: `Name`, `NamePath`
//! and `TypeName`. (The hybrid structural matchers `Children` and `Leaves`
//! live in [`super::structural`].)

use crate::cube::{SimMatrix, SparseBuilder};
use crate::engine::{keep_name_table, PairMask};
use crate::matchers::context::MatchContext;
use crate::matchers::datatype::TypeSims;
use crate::matchers::name_engine::NameEngine;
use crate::matchers::Matcher;
use coma_graph::{PathId, PathSet};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Deduplicates the element names of one schema side: returns the key
/// id of every element plus the distinct names in first-use order.
/// Real schemas repeat element names heavily across paths (a 1000-path
/// schema often has only a few hundred distinct names), so `Name` and
/// `TypeName` score each distinct name pair once, in a [`NameTable`]
/// over these keys, instead of once per matrix cell.
fn distinct_keys<'a>(names: impl Iterator<Item = &'a str>) -> (Vec<u32>, Vec<&'a str>) {
    let mut ids = Vec::new();
    let mut order: Vec<&str> = Vec::new();
    let mut seen: HashMap<&str, u32> = HashMap::new();
    for name in names {
        let id = *seen.entry(name).or_insert_with(|| {
            order.push(name);
            u32::try_from(order.len() - 1).expect("fewer than 2^32 distinct names")
        });
        ids.push(id);
    }
    (ids, order)
}

/// The tokens of one compute, each interned once as an id shared by both
/// sides, so two token sets are equal exactly when their id lists are.
#[derive(Default)]
struct Vocab {
    ids: HashMap<String, u32>,
    tokens: Vec<String>,
}

impl Vocab {
    fn intern(&mut self, tokens: &[String]) -> Vec<u32> {
        tokens
            .iter()
            .map(|token| match self.ids.get(token.as_str()) {
                Some(&id) => id,
                None => {
                    let id =
                        u32::try_from(self.tokens.len()).expect("fewer than 2^32 distinct tokens");
                    self.ids.insert(token.clone(), id);
                    self.tokens.push(token.clone());
                    id
                }
            })
            .collect()
    }
}

/// The one path every name-based matcher scores through: the token sets
/// of both sides (of distinct element names, or of long path names) as
/// ids of one shared [`Vocab`], and the token-pair table between them
/// ([`NameEngine::token_table`]). A set pair is combined by
/// [`NameEngine::combine_by`] over table lookups, so no string work is
/// repeated per pair. `NamePath` builds one per compute; `Name` and
/// `TypeName` score through the one inside their [`NameTable`].
struct NameScorer {
    engine: NameEngine,
    src: Vec<Vec<u32>>,
    tgt: Vec<Vec<u32>>,
    /// The table column of each target token id. Source tokens are
    /// interned first, so a source token's id is its table row.
    col: Vec<u32>,
    cols: usize,
    table: Vec<f64>,
}

impl NameScorer {
    /// A scorer over the token sets of element names.
    fn names(
        ctx: &MatchContext<'_>,
        engine: &NameEngine,
        src_names: &[&str],
        tgt_names: &[&str],
    ) -> NameScorer {
        let mut vocab = Vocab::default();
        let src = src_names
            .iter()
            .map(|name| vocab.intern(&ctx.token_set(engine, name)))
            .collect();
        let src_tokens = vocab.tokens.len();
        let tgt = tgt_names
            .iter()
            .map(|name| vocab.intern(&ctx.token_set(engine, name)))
            .collect();
        NameScorer::new(ctx, engine, vocab, src_tokens, src, tgt)
    }

    /// A scorer over the token sets of long path names, indexed by path:
    /// the source paths `wanted_rows` accepts and every target path.
    fn paths(
        ctx: &MatchContext<'_>,
        engine: &NameEngine,
        wanted_rows: impl Fn(usize) -> bool,
    ) -> NameScorer {
        let mut vocab = Vocab::default();
        let (source, target) = (ctx.source_paths, ctx.target_paths);
        let src = path_token_sets(source, wanted_rows, |p| {
            vocab.intern(&ctx.token_set(engine, source.name(ctx.source, p)))
        });
        let src_tokens = vocab.tokens.len();
        let tgt = path_token_sets(
            target,
            |_| true,
            |p| vocab.intern(&ctx.token_set(engine, target.name(ctx.target, p))),
        );
        NameScorer::new(ctx, engine, vocab, src_tokens, src, tgt)
    }

    /// Fills the token table: source tokens are the vocabulary's first
    /// `src_tokens` ids; target tokens get columns in first-use order.
    fn new(
        ctx: &MatchContext<'_>,
        engine: &NameEngine,
        vocab: Vocab,
        src_tokens: usize,
        src: Vec<Vec<u32>>,
        tgt: Vec<Vec<u32>>,
    ) -> NameScorer {
        let mut col = vec![u32::MAX; vocab.tokens.len()];
        let mut tgt_tokens: Vec<&str> = Vec::new();
        for &id in tgt.iter().flatten() {
            let slot = &mut col[id as usize];
            if *slot == u32::MAX {
                *slot = tgt_tokens.len() as u32;
                tgt_tokens.push(&vocab.tokens[id as usize]);
            }
        }
        let src_tokens: Vec<&str> = vocab.tokens[..src_tokens]
            .iter()
            .map(String::as_str)
            .collect();
        let table = engine.token_table(&src_tokens, &tgt_tokens, ctx.aux);
        NameScorer {
            engine: engine.clone(),
            src,
            tgt,
            col,
            cols: tgt_tokens.len(),
            table,
        }
    }

    /// The similarity of source set `a` and target set `b`.
    fn score(&self, a: usize, b: usize) -> f64 {
        let (t1, t2) = (&self.src[a], &self.tgt[b]);
        self.engine.combine_by(t1, t2, |i, j| {
            self.table[t1[i] as usize * self.cols + self.col[t2[j] as usize] as usize]
        })
    }
}

/// The name similarities of one task, over distinct names: each source
/// row's and target column's distinct-name key, one [`NameScorer`] over
/// both sides' distinct names, and one row of clamped similarities per
/// distinct source name, filled at most once, on first use.
///
/// A plan execution's [`MatchMemo`](crate::engine::MatchMemo) keeps one
/// per [`NameEngine`] value while the task's distinct-name pairs fit the
/// engine's keep rule, so the standard `Name` and `TypeName` share it and
/// every fused row shard, masked refine slice and structural leaf table
/// of the execution reads the same rows. A prunable stage fused over a
/// `Name` leaf reads the kept table's keys and rows itself and selects
/// over distinct names, never expanding them to paths. The table lives
/// for that execution only and never enters the cross-request cache.
/// Without a kept table, each compute builds one over its own rows and
/// drops it.
pub(crate) struct NameTable {
    scorer: NameScorer,
    /// The first source row the table covers.
    first_row: usize,
    /// The distinct-name key of each covered source row, from `first_row`.
    row_key: Vec<u32>,
    /// The distinct-name key of each target column.
    col_key: Vec<u32>,
    /// Per distinct source name: its similarity to every distinct target
    /// name.
    rows: Vec<OnceLock<Box<[f64]>>>,
    /// Rows filled so far (unit tests check that none is filled twice).
    #[cfg(test)]
    fills: std::sync::atomic::AtomicUsize,
}

impl NameTable {
    /// The table a compute over source rows `rows` reads: the one the
    /// execution's memo keeps for `engine` (built by the first compute
    /// that asks, over every row), or else a table over `rows` alone.
    fn of(ctx: &MatchContext<'_>, engine: &NameEngine, rows: Range<usize>) -> Arc<NameTable> {
        NameTable::kept(ctx, engine).unwrap_or_else(|| {
            let table = NameTable::new(ctx, engine, rows, |_, _| true);
            Arc::new(table.expect("an unconditional table"))
        })
    }

    /// The table the execution's memo keeps for `engine`, over every
    /// row, built by the first compute that asks; `None` without a memo
    /// or when the keep rule declines it.
    pub(crate) fn kept(ctx: &MatchContext<'_>, engine: &NameEngine) -> Option<Arc<NameTable>> {
        let kept = ctx.memo.and_then(|memo| {
            memo.name_table(engine, || {
                let table = NameTable::new(ctx, engine, 0..ctx.rows(), keep_name_table);
                table.map(Arc::new)
            })
        });
        debug_assert!(
            kept.as_ref()
                .is_none_or(|t| (t.row_key.len(), t.col_key.len()) == (ctx.rows(), ctx.cols())),
            "a memo serves the computes of one task"
        );
        kept
    }

    /// The distinct-name key of each covered source row and of each
    /// target column.
    pub(crate) fn keys(&self) -> (&[u32], &[u32]) {
        (&self.row_key, &self.col_key)
    }

    /// The distinct (source, target) name counts: the table's rows and
    /// the length of each.
    pub(crate) fn names(&self) -> (usize, usize) {
        (self.rows.len(), self.scorer.tgt.len())
    }

    /// The table over source rows `rows` and every target column, if
    /// `keep` admits its distinct (source, target) name counts. The
    /// scorer is only built for a table that is kept.
    fn new(
        ctx: &MatchContext<'_>,
        engine: &NameEngine,
        rows: Range<usize>,
        keep: impl FnOnce(usize, usize) -> bool,
    ) -> Option<NameTable> {
        let first_row = rows.start;
        let (row_key, src_names) = distinct_keys(rows.map(|i| ctx.source_name(i)));
        let (col_key, tgt_names) = distinct_keys((0..ctx.cols()).map(|j| ctx.target_name(j)));
        if !keep(src_names.len(), tgt_names.len()) {
            return None;
        }
        Some(NameTable {
            scorer: NameScorer::names(ctx, engine, &src_names, &tgt_names),
            first_row,
            row_key,
            col_key,
            rows: (0..src_names.len()).map(|_| OnceLock::new()).collect(),
            #[cfg(test)]
            fills: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// The row of distinct source name `a`, filled on first use.
    pub(crate) fn row(&self, a: u32) -> &[f64] {
        self.rows[a as usize].get_or_init(|| {
            #[cfg(test)]
            self.fills
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let a = a as usize;
            (0..self.scorer.tgt.len())
                .map(|b| self.scorer.score(a, b).clamp(0.0, 1.0))
                .collect()
        })
    }

    /// Source row `i`'s similarity to every target column, in column
    /// order, through its name's row (filled if it is not yet).
    fn row_values(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        let row = self.row(self.row_key[i - self.first_row]);
        self.col_key.iter().map(move |&b| row[b as usize])
    }

    /// The similarity of source row `i` and target column `j`: read from
    /// its name's row when that is filled, otherwise scored alone, so a
    /// masked compute scores only the cells it needs.
    fn cell(&self, i: usize, j: usize) -> f64 {
        let a = self.row_key[i - self.first_row] as usize;
        let b = self.col_key[j] as usize;
        match self.rows[a].get() {
            Some(row) => row[b],
            None => self.scorer.score(a, b).clamp(0.0, 1.0),
        }
    }
}

/// The token set of every wanted path's long name — its element names
/// joined by spaces, the string `NamePath` scores — without building that
/// string: a path's set is its parent path's set followed by the new
/// tokens of its own element name (`name_tokens`). Tokenizing the joined
/// name gives the same set, because a space always ends a token and
/// abbreviation expansion is token-wise.
///
/// Indexed by path; a path neither wanted nor an ancestor of a wanted one
/// gets an empty set. Sets are derived in path order, so `name_tokens`
/// sees every ancestor before its descendants.
pub fn path_token_sets<T: Clone + PartialEq>(
    paths: &PathSet,
    wanted: impl Fn(usize) -> bool,
    mut name_tokens: impl FnMut(PathId) -> Vec<T>,
) -> Vec<Vec<T>> {
    let ids: Vec<PathId> = paths.iter().collect();
    // Paths come in DFS preorder, so a parent precedes its children: one
    // backward pass marks every ancestor of a wanted path.
    let mut needed: Vec<bool> = (0..ids.len()).map(&wanted).collect();
    for p in (0..ids.len()).rev() {
        if needed[p] {
            if let Some(parent) = paths.parent(ids[p]) {
                needed[parent.index()] = true;
            }
        }
    }
    let mut sets: Vec<Vec<T>> = vec![Vec::new(); ids.len()];
    for (p, &id) in ids.iter().enumerate() {
        if !needed[p] {
            continue;
        }
        let mut set = paths
            .parent(id)
            .map_or_else(Vec::new, |parent| sets[parent.index()].clone());
        for token in name_tokens(id) {
            if !set.contains(&token) {
                set.push(token);
            }
        }
        sets[p] = set;
    }
    sets
}

/// The name similarity of every cell `mask` allows, in row-major order,
/// read through the task's [`NameTable`]: from a filled row where one
/// exists, else scored for that cell alone.
fn masked_name_sims(
    ctx: &MatchContext<'_>,
    engine: &NameEngine,
    mask: &PairMask,
    mut emit: impl FnMut(usize, usize, f64),
) {
    let table = NameTable::of(ctx, engine, 0..ctx.rows());
    for i in 0..ctx.rows() {
        for j in mask.allowed_in_row(i) {
            emit(i, j, table.cell(i, j));
        }
    }
}

/// The hybrid `Name` matcher: tokenization, abbreviation expansion and a
/// combination of simple matchers over the token sets (Table 4 defaults:
/// Trigram + Synonym, Max aggregation, Both/Max1, Average).
#[derive(Debug, Clone, Default)]
pub struct NameMatcher {
    /// The token-set engine (constituents + combination strategy).
    pub engine: NameEngine,
}

impl NameMatcher {
    /// `Name` with the paper's default engine.
    pub fn new() -> NameMatcher {
        NameMatcher::default()
    }

    /// `Name` with a custom engine.
    pub fn with_engine(engine: NameEngine) -> NameMatcher {
        NameMatcher { engine }
    }
}

impl Matcher for NameMatcher {
    fn name(&self) -> &str {
        "Name"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        if let Some(mask) = ctx.restriction {
            // Sparse: only the allowed cells, built directly into CSR
            // storage (never an m × n buffer).
            let mut b = SparseBuilder::new(ctx.rows(), ctx.cols());
            masked_name_sims(ctx, &self.engine, mask, |i, j, sim| b.push(i, j, sim));
            b.finish()
        } else {
            // Dense: every cell copied out of its name pair's table row.
            self.compute_rows(ctx, 0..ctx.rows())
        }
    }

    /// A contiguous block of rows of the dense matrix: each row copied
    /// out of its name's `NameTable` row, filled by whichever compute
    /// needs it first. Each cell depends only on its own (name, name)
    /// pair, so the block is bit-identical to the same rows of
    /// [`Matcher::compute`].
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: Range<usize>) -> SimMatrix {
        if ctx.restriction.is_some() {
            // The engine only shards unrestricted computes; stay correct
            // for any other caller by slicing the restricted result.
            return self.compute(ctx).row_range(rows);
        }
        let table = NameTable::of(ctx, &self.engine, rows.clone());
        let mut out = SimMatrix::new(rows.len(), ctx.cols());
        for (r, i) in rows.enumerate() {
            for (dst, sim) in out.row_mut(r).iter_mut().zip(table.row_values(i)) {
                *dst = sim;
            }
        }
        out
    }

    fn cell_local(&self) -> bool {
        true
    }

    fn row_shardable(&self) -> bool {
        true
    }

    fn name_keyed(&self) -> Option<&NameEngine> {
        Some(&self.engine)
    }
}

/// The hybrid `NamePath` matcher: concatenates all element names along the
/// path into a long name and applies `Name` to it. "Considering the
/// complete name path of an element provides additional tokens […] it is
/// possible to distinguish between different contexts of the same element,
/// e.g. ShipTo.Street and BillTo.Street" (Section 4.2).
#[derive(Debug, Clone, Default)]
pub struct NamePathMatcher {
    /// The token-set engine applied to the concatenated path names.
    pub engine: NameEngine,
}

impl NamePathMatcher {
    /// `NamePath` with the paper's default engine.
    pub fn new() -> NamePathMatcher {
        NamePathMatcher::default()
    }

    /// `NamePath` with a custom engine.
    pub fn with_engine(engine: NameEngine) -> NamePathMatcher {
        NamePathMatcher { engine }
    }
}

impl Matcher for NamePathMatcher {
    fn name(&self) -> &str {
        "NamePath"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        let Some(mask) = ctx.restriction else {
            return self.compute_rows(ctx, 0..ctx.rows());
        };
        // Sparse: allowed cells only, straight into CSR storage. Long path
        // names never repeat, but their tokens come from a bounded
        // vocabulary, so each allowed cell only pays the steps-2+3
        // combination over token-table lookups.
        let scorer = NameScorer::paths(ctx, &self.engine, |_| true);
        let mut b = SparseBuilder::new(ctx.rows(), ctx.cols());
        for i in 0..ctx.rows() {
            for j in mask.allowed_in_row(i) {
                b.push(i, j, scorer.score(i, j));
            }
        }
        b.finish()
    }

    /// A contiguous block of rows of the dense matrix: the path token
    /// sets of only those source paths (and their ancestors), against
    /// every target path. Each cell's similarity is a pure function of
    /// its two long names, so the block is bit-identical to the same rows
    /// of [`Matcher::compute`].
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: Range<usize>) -> SimMatrix {
        if ctx.restriction.is_some() {
            // The engine only shards unrestricted computes; stay correct
            // for any other caller by slicing the restricted result.
            return self.compute(ctx).row_range(rows);
        }
        let scorer = NameScorer::paths(ctx, &self.engine, |i| rows.contains(&i));
        let mut out = SimMatrix::new(rows.len(), ctx.cols());
        for (r, i) in rows.clone().enumerate() {
            for j in 0..ctx.cols() {
                out.set(r, j, scorer.score(i, j));
            }
        }
        out
    }

    fn cell_local(&self) -> bool {
        true
    }

    fn row_shardable(&self) -> bool {
        true
    }
}

/// The hybrid `TypeName` matcher: a weighted combination of `DataType` and
/// `Name` similarity. "The default weights of the name and data type
/// similarity, 0.7 and 0.3, respectively, permit to match attributes with
/// similar names but different data types" (Section 6.4, Table 4).
#[derive(Debug, Clone)]
pub struct TypeNameMatcher {
    /// The name engine used for the `Name` constituent.
    pub engine: NameEngine,
    /// Weight of the name similarity (default 0.7).
    pub name_weight: f64,
    /// Weight of the data-type similarity (default 0.3).
    pub type_weight: f64,
}

impl TypeNameMatcher {
    /// `TypeName` with the paper's defaults.
    pub fn new() -> TypeNameMatcher {
        TypeNameMatcher::default()
    }

    /// `TypeName` with custom weights (normalized internally).
    pub fn with_weights(name_weight: f64, type_weight: f64) -> TypeNameMatcher {
        assert!(name_weight >= 0.0 && type_weight >= 0.0 && name_weight + type_weight > 0.0);
        TypeNameMatcher {
            engine: NameEngine::paper_default(),
            name_weight,
            type_weight,
        }
    }

    /// The weighted combination of a (clamped) name similarity and a
    /// datatype similarity.
    fn weighted(&self, name_sim: f64, type_sim: f64) -> f64 {
        let total = self.name_weight + self.type_weight;
        (self.name_weight * name_sim + self.type_weight * type_sim) / total
    }
}

impl Default for TypeNameMatcher {
    fn default() -> Self {
        TypeNameMatcher {
            engine: NameEngine::paper_default(),
            name_weight: 0.7,
            type_weight: 0.3,
        }
    }
}

impl Matcher for TypeNameMatcher {
    fn name(&self) -> &str {
        "TypeName"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        let Some(mask) = ctx.restriction else {
            return self.compute_rows(ctx, 0..ctx.rows());
        };
        // Sparse: only the allowed cells, built directly into CSR
        // storage.
        let types = TypeSims::new(ctx, 0..ctx.rows());
        let mut b = SparseBuilder::new(ctx.rows(), ctx.cols());
        masked_name_sims(ctx, &self.engine, mask, |i, j, name_sim| {
            b.push(i, j, self.weighted(name_sim, types.get(i, j)));
        });
        b.finish()
    }

    /// A contiguous block of rows of the dense matrix, filled cell by
    /// cell from the rows' `NameTable` rows and the datatype table.
    /// Each cell depends only on its own pair of (name, datatype)
    /// profiles, so the block is bit-identical to the same rows of
    /// [`Matcher::compute`].
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: Range<usize>) -> SimMatrix {
        if ctx.restriction.is_some() {
            // The engine only shards unrestricted computes; stay correct
            // for any other caller by slicing the restricted result.
            return self.compute(ctx).row_range(rows);
        }
        let table = NameTable::of(ctx, &self.engine, rows.clone());
        let types = TypeSims::new(ctx, rows.clone());
        let mut out = SimMatrix::new(rows.len(), ctx.cols());
        for (r, i) in rows.enumerate() {
            let cells = out.row_mut(r).iter_mut().zip(table.row_values(i));
            for (j, (dst, name_sim)) in cells.enumerate() {
                *dst = self.weighted(name_sim, types.get(r, j)).clamp(0.0, 1.0);
            }
        }
        out
    }

    fn cell_local(&self) -> bool {
        true
    }

    fn row_shardable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchers::context::Auxiliary;
    use crate::matchers::synonym::SynonymTable;
    use coma_graph::{PathSet, Schema};

    fn po1() -> Schema {
        coma_sql::import_ddl(
            "CREATE TABLE PO1.ShipTo (poNo INT, shipToStreet VARCHAR(200), shipToCity VARCHAR(200));
             CREATE TABLE PO1.Customer (custNo INT, custCity VARCHAR(200));",
            "PO1",
        )
        .unwrap()
    }

    fn po2() -> Schema {
        coma_xml::import_xsd(
            r#"<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="PO2">
    <xsd:sequence>
      <xsd:element name="DeliverTo" type="Address"/>
      <xsd:element name="BillTo" type="Address"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Address">
    <xsd:sequence>
      <xsd:element name="Street" type="xsd:string"/>
      <xsd:element name="City" type="xsd:string"/>
      <xsd:element name="Zip" type="xsd:decimal"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>"#,
            "PO2",
        )
        .unwrap()
    }

    fn aux() -> Auxiliary {
        let mut a = Auxiliary::standard();
        a.synonyms = SynonymTable::purchase_order();
        a
    }

    fn sim_of(
        matcher: &dyn Matcher,
        s1: &Schema,
        s2: &Schema,
        aux: &Auxiliary,
        src: &str,
        tgt: &str,
    ) -> f64 {
        let p1 = PathSet::new(s1).unwrap();
        let p2 = PathSet::new(s2).unwrap();
        let ctx = MatchContext::new(s1, s2, &p1, &p2, aux);
        let m = matcher.compute(&ctx);
        let i = p1.find_by_full_name(s1, src).unwrap().index();
        let j = p2.find_by_full_name(s2, tgt).unwrap().index();
        m.get(i, j)
    }

    /// The Table 1 scenario: TypeName and NamePath similarities of three
    /// PO1 elements against PO2.DeliverTo.Address.City. We reproduce the
    /// *ordering* structure, not the exact decimals (the paper's matcher
    /// internals differ in unspecified details).
    #[test]
    fn table_1_orderings_hold() {
        let (s1, s2, aux) = (po1(), po2(), aux());
        let tn = TypeNameMatcher::new();
        let np = NamePathMatcher::new();
        let city = "PO2.DeliverTo.Address.City";

        // TypeName: custCity > shipToCity > shipToStreet (Table 1).
        let tn_ship_city = sim_of(&tn, &s1, &s2, &aux, "PO1.ShipTo.shipToCity", city);
        let tn_cust_city = sim_of(&tn, &s1, &s2, &aux, "PO1.Customer.custCity", city);
        let tn_ship_street = sim_of(&tn, &s1, &s2, &aux, "PO1.ShipTo.shipToStreet", city);
        assert!(
            tn_cust_city > tn_ship_street,
            "{tn_cust_city} vs {tn_ship_street}"
        );
        assert!(
            tn_ship_city > tn_ship_street,
            "{tn_ship_city} vs {tn_ship_street}"
        );

        // NamePath: shipToCity > shipToStreet > custCity (Table 1): the
        // path context (ShipTo ≈ DeliverTo via synonym) outweighs.
        let np_ship_city = sim_of(&np, &s1, &s2, &aux, "PO1.ShipTo.shipToCity", city);
        let np_ship_street = sim_of(&np, &s1, &s2, &aux, "PO1.ShipTo.shipToStreet", city);
        let np_cust_city = sim_of(&np, &s1, &s2, &aux, "PO1.Customer.custCity", city);
        assert!(
            np_ship_city > np_ship_street,
            "{np_ship_city} vs {np_ship_street}"
        );
        assert!(
            np_ship_city > np_cust_city,
            "{np_ship_city} vs {np_cust_city}"
        );
    }

    #[test]
    fn namepath_distinguishes_contexts_of_shared_elements() {
        // ShipTo.Street should be closer to DeliverTo.Address.Street than
        // to BillTo.Address.Street.
        let (s1, s2, aux) = (po1(), po2(), aux());
        let np = NamePathMatcher::new();
        let deliver = sim_of(
            &np,
            &s1,
            &s2,
            &aux,
            "PO1.ShipTo.shipToStreet",
            "PO2.DeliverTo.Address.Street",
        );
        let bill = sim_of(
            &np,
            &s1,
            &s2,
            &aux,
            "PO1.ShipTo.shipToStreet",
            "PO2.BillTo.Address.Street",
        );
        assert!(deliver > bill, "{deliver} vs {bill}");
    }

    #[test]
    fn name_matcher_ignores_context() {
        // Name sees only the last element name, so the two City paths are
        // indistinguishable — the instability Section 7.3 reports.
        let (s1, s2, aux) = (po1(), po2(), aux());
        let nm = NameMatcher::new();
        let a = sim_of(
            &nm,
            &s1,
            &s2,
            &aux,
            "PO1.ShipTo.shipToCity",
            "PO2.DeliverTo.Address.City",
        );
        let b = sim_of(
            &nm,
            &s1,
            &s2,
            &aux,
            "PO1.ShipTo.shipToCity",
            "PO2.BillTo.Address.City",
        );
        assert_eq!(a, b);
        assert!(a > 0.4);
    }

    #[test]
    fn typename_prefers_compatible_datatypes_on_name_ties() {
        // Section 6.4: "When several attributes exhibit about the same name
        // similarity, candidates with higher data type compatibility are
        // preferred."
        let s1 = coma_sql::import_ddl("CREATE TABLE T.a (amount DECIMAL(10,2));", "S1").unwrap();
        let s2 = coma_sql::import_ddl(
            "CREATE TABLE T.b (amount DECIMAL(12,2), amounts VARCHAR(99));",
            "S2",
        )
        .unwrap();
        let aux = Auxiliary::standard();
        let tn = TypeNameMatcher::new();
        let same_type = sim_of(&tn, &s1, &s2, &aux, "S1.a.amount", "S2.b.amount");
        let diff_type = sim_of(&tn, &s1, &s2, &aux, "S1.a.amount", "S2.b.amounts");
        assert!(same_type > diff_type, "{same_type} vs {diff_type}");
    }

    #[test]
    #[should_panic]
    fn typename_rejects_zero_weights() {
        let _ = TypeNameMatcher::with_weights(0.0, 0.0);
    }

    /// One `topk_pruned_plan(5)` execution keeps one name table that its
    /// fused `Name` stage, its masked `Name`/`TypeName` refine slices and
    /// the structural leaf table all read: every distinct source name's
    /// row is filled, and none twice, under any shard count.
    #[test]
    fn one_pruned_plan_execution_fills_each_name_row_once() {
        use crate::engine::{EngineConfig, MatchMemo, PlanEngine};
        use std::sync::atomic::Ordering;
        let (s1, s2, aux) = (po1(), po2(), aux());
        let (p1, p2) = (PathSet::new(&s1).unwrap(), PathSet::new(&s2).unwrap());
        let library = crate::matchers::MatcherLibrary::standard();
        let plan = crate::plans::topk_pruned_plan(5);
        let base = EngineConfig::default();
        let configs = [
            base.clone(),
            base.clone().with_shards(1),
            base.clone().with_shards(3),
            base.clone().with_shards(p1.len() + 1),
            base.with_parallel(false),
        ];
        for cfg in configs {
            let memo = MatchMemo::new();
            let ctx = MatchContext::new(&s1, &s2, &p1, &p2, &aux);
            let outcome = PlanEngine::with_config(&library, cfg.clone())
                .execute_with_memo(&ctx, &plan, &memo)
                .unwrap();
            assert!(outcome.stages[0].fused, "{cfg:?}");
            let table = memo
                .name_table(&NameEngine::paper_default(), || panic!("no table was kept"))
                .expect("the execution keeps its name table");
            let (_, names) = distinct_keys((0..ctx.rows()).map(|i| ctx.source_name(i)));
            assert_eq!(table.rows.len(), names.len());
            assert!(table.rows.iter().all(|row| row.get().is_some()), "{cfg:?}");
            assert_eq!(table.fills.load(Ordering::Relaxed), names.len(), "{cfg:?}");
        }
    }
}
