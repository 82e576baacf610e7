//! The simple matchers of Table 3: `Affix`, `n-gram`, `EditDistance`,
//! `Soundex` (string matchers on element names), `Synonym` (dictionary
//! lookup), `DataType` (compatibility table) and `UserFeedback`.

use crate::cube::{SimMatrix, SparseBuilder};
use crate::matchers::context::MatchContext;
use crate::matchers::datatype::TypeSims;
use crate::matchers::name_engine::TokenMatcher;
use crate::matchers::Matcher;
use std::collections::HashMap;

/// A simple matcher comparing the **names** of schema elements with one
/// string or dictionary technique. Results are memoized per name pair
/// within a computation (shared fragments repeat names across paths).
#[derive(Debug, Clone)]
pub struct SimpleNameMatcher {
    name: String,
    technique: TokenMatcher,
}

impl SimpleNameMatcher {
    /// The `Affix` matcher.
    pub fn affix() -> SimpleNameMatcher {
        SimpleNameMatcher {
            name: "Affix".into(),
            technique: TokenMatcher::Affix,
        }
    }

    /// The `n-gram` matcher (`Digram` for 2, `Trigram` for 3).
    pub fn ngram(n: usize) -> SimpleNameMatcher {
        SimpleNameMatcher {
            name: match n {
                2 => "Digram".into(),
                3 => "Trigram".into(),
                n => format!("{n}-gram"),
            },
            technique: TokenMatcher::NGram(n),
        }
    }

    /// The `EditDistance` matcher.
    pub fn edit_distance() -> SimpleNameMatcher {
        SimpleNameMatcher {
            name: "EditDistance".into(),
            technique: TokenMatcher::EditDistance,
        }
    }

    /// The `Soundex` matcher.
    pub fn soundex() -> SimpleNameMatcher {
        SimpleNameMatcher {
            name: "Soundex".into(),
            technique: TokenMatcher::Soundex,
        }
    }

    /// The `Synonym` matcher (element names against the dictionary).
    pub fn synonym() -> SimpleNameMatcher {
        SimpleNameMatcher {
            name: "Synonym".into(),
            technique: TokenMatcher::Synonym,
        }
    }
}

impl Matcher for SimpleNameMatcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        let mut out = SimMatrix::new(ctx.rows(), ctx.cols());
        let mut cache: HashMap<(&str, &str), f64> = HashMap::new();
        for i in 0..ctx.rows() {
            let a = ctx.source_name(i);
            for j in 0..ctx.cols() {
                let b = ctx.target_name(j);
                let sim = *cache
                    .entry((a, b))
                    .or_insert_with(|| self.technique.similarity(a, b, ctx.aux));
                out.set(i, j, sim);
            }
        }
        out
    }
}

/// The `DataType` matcher: similarity of the generic data types of two
/// elements under the compatibility table (Section 4.1). Each cell is a
/// lookup in a per-compute table over the distinct datatypes of each
/// side.
#[derive(Debug, Clone, Default)]
pub struct DataTypeMatcher;

impl Matcher for DataTypeMatcher {
    fn name(&self) -> &str {
        "DataType"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        let Some(mask) = ctx.restriction else {
            return self.compute_rows(ctx, 0..ctx.rows());
        };
        // Sparse: only the allowed cells, straight into CSR storage.
        let types = TypeSims::new(ctx, 0..ctx.rows());
        let mut b = SparseBuilder::new(ctx.rows(), ctx.cols());
        for i in 0..ctx.rows() {
            for j in mask.allowed_in_row(i) {
                b.push(i, j, types.get(i, j));
            }
        }
        b.finish()
    }

    /// A contiguous block of rows of the dense matrix, over a type table
    /// of only those rows. Each cell depends only on its own pair of
    /// datatypes, so the block is bit-identical to the same rows of
    /// [`Matcher::compute`].
    fn compute_rows(&self, ctx: &MatchContext<'_>, rows: std::ops::Range<usize>) -> SimMatrix {
        if ctx.restriction.is_some() {
            // The engine only shards unrestricted computes; stay correct
            // for any other caller by slicing the restricted result.
            return self.compute(ctx).row_range(rows);
        }
        let types = TypeSims::new(ctx, rows.clone());
        let mut out = SimMatrix::new(rows.len(), ctx.cols());
        for r in 0..rows.len() {
            for (j, dst) in out.row_mut(r).iter_mut().enumerate() {
                // The clamp `SimMatrix::set` applies: the table's
                // fallback and untyped values are caller-settable.
                *dst = types.get(r, j).clamp(0.0, 1.0);
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

/// The `UserFeedback` matcher: 1.0 for user-approved pairs, 0.0 everywhere
/// else (rejections are also 0.0). During match processing the feedback is
/// additionally **pinned** after aggregation so the approved/rejected
/// values "remain unaffected by the other matchers" (Section 3).
#[derive(Debug, Clone, Default)]
pub struct UserFeedbackMatcher;

impl Matcher for UserFeedbackMatcher {
    fn name(&self) -> &str {
        "UserFeedback"
    }

    fn compute(&self, ctx: &MatchContext<'_>) -> SimMatrix {
        let mut out = SimMatrix::new(ctx.rows(), ctx.cols());
        ctx.aux.feedback.pin(&mut out, ctx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchers::context::Auxiliary;
    use coma_graph::{DataType, Node, PathSet, Schema, SchemaBuilder};

    fn two_leaf_schema(name: &str, leaves: &[(&str, DataType)]) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let root = b.add_node(Node::new(name));
        for (leaf, dt) in leaves {
            let n = b.add_node(Node::new(*leaf).with_datatype(*dt));
            b.add_child(root, n).unwrap();
        }
        b.build().unwrap()
    }

    fn with_ctx<R>(
        s1: &Schema,
        s2: &Schema,
        aux: &Auxiliary,
        f: impl FnOnce(MatchContext<'_>) -> R,
    ) -> R {
        let p1 = PathSet::new(s1).unwrap();
        let p2 = PathSet::new(s2).unwrap();
        f(MatchContext::new(s1, s2, &p1, &p2, aux))
    }

    #[test]
    fn trigram_matcher_scores_equal_names_1() {
        let s1 = two_leaf_schema("A", &[("city", DataType::Text)]);
        let s2 = two_leaf_schema("B", &[("city", DataType::Text)]);
        let aux = Auxiliary::standard();
        with_ctx(&s1, &s2, &aux, |ctx| {
            let m = SimpleNameMatcher::ngram(3).compute(&ctx);
            // Path index 1 = the leaf (0 is the root).
            assert_eq!(m.get(1, 1), 1.0);
        });
    }

    #[test]
    fn datatype_matcher_uses_compat_table() {
        let s1 = two_leaf_schema("A", &[("x", DataType::Integer)]);
        let s2 = two_leaf_schema("B", &[("y", DataType::Decimal)]);
        let aux = Auxiliary::standard();
        with_ctx(&s1, &s2, &aux, |ctx| {
            let m = DataTypeMatcher.compute(&ctx);
            assert_eq!(m.get(1, 1), 0.8);
            // Root pair: both untyped.
            assert_eq!(m.get(0, 0), aux.type_compat.untyped_pair);
        });
    }

    #[test]
    fn feedback_matcher_marks_approved_pairs() {
        let s1 = two_leaf_schema("A", &[("x", DataType::Text)]);
        let s2 = two_leaf_schema("B", &[("y", DataType::Text)]);
        let mut aux = Auxiliary::standard();
        aux.feedback.add_match("A.x", "B.y");
        with_ctx(&s1, &s2, &aux, |ctx| {
            let m = UserFeedbackMatcher.compute(&ctx);
            assert_eq!(m.get(1, 1), 1.0);
            assert_eq!(m.get(0, 0), 0.0);
        });
    }

    #[test]
    fn matcher_names_are_stable() {
        assert_eq!(SimpleNameMatcher::ngram(2).name(), "Digram");
        assert_eq!(SimpleNameMatcher::ngram(3).name(), "Trigram");
        assert_eq!(SimpleNameMatcher::ngram(4).name(), "4-gram");
        assert_eq!(SimpleNameMatcher::affix().name(), "Affix");
        assert_eq!(SimpleNameMatcher::soundex().name(), "Soundex");
        assert_eq!(SimpleNameMatcher::edit_distance().name(), "EditDistance");
        assert_eq!(SimpleNameMatcher::synonym().name(), "Synonym");
    }
}
