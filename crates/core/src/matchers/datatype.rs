//! The data-type compatibility table of the `DataType` matcher, and the
//! per-compute table of datatype similarities the `DataType` and
//! `TypeName` matchers score through.

use crate::matchers::context::MatchContext;
use coma_graph::DataType;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The data-type compatibility table for the `DataType` matcher.
///
/// "This matcher uses a synonym table specifying the degree of
/// compatibility between a set of predefined generic data types, to which
/// data types of schema elements are mapped in order to determine their
/// similarity" (Section 4.1).
///
/// Lookups are symmetric; equal types are fully compatible. Inner schema
/// elements carry no data type: two untyped elements get
/// [`TypeCompatTable::untyped_pair`], a typed/untyped pair gets
/// [`TypeCompatTable::typed_untyped`] — neutral values so that the hybrid
/// `TypeName` matcher stays name-driven on inner elements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TypeCompatTable {
    entries: HashMap<(DataType, DataType), f64>,
    /// Compatibility for unknown type pairs.
    pub fallback: f64,
    /// Similarity when both elements are untyped (inner nodes).
    pub untyped_pair: f64,
    /// Similarity when exactly one element is untyped.
    pub typed_untyped: f64,
}

impl TypeCompatTable {
    /// An empty table: only equal types are compatible (plus fallbacks).
    pub fn empty() -> TypeCompatTable {
        TypeCompatTable {
            entries: HashMap::new(),
            fallback: 0.2,
            untyped_pair: 0.5,
            typed_untyped: 0.25,
        }
    }

    /// The standard compatibility table: numeric types are strongly
    /// compatible, temporal types moderately, text weakly compatible with
    /// everything (strings can encode most values).
    pub fn standard() -> TypeCompatTable {
        use DataType::*;
        let mut t = TypeCompatTable::empty();
        for (a, b, sim) in [
            (Integer, Decimal, 0.8),
            (Integer, Float, 0.7),
            (Decimal, Float, 0.9),
            (Date, DateTime, 0.8),
            (Time, DateTime, 0.6),
            (Date, Time, 0.3),
            (Duration, DateTime, 0.3),
            (Id, IdRef, 0.8),
            (Id, Integer, 0.5),
            (IdRef, Integer, 0.5),
            (Boolean, Integer, 0.5),
            (Text, Uri, 0.6),
            (Text, Id, 0.5),
            (Text, IdRef, 0.5),
            (Text, Integer, 0.4),
            (Text, Decimal, 0.4),
            (Text, Float, 0.4),
            (Text, Date, 0.4),
            (Text, Time, 0.4),
            (Text, DateTime, 0.4),
            (Text, Boolean, 0.3),
            (Text, Binary, 0.3),
            (Text, Duration, 0.3),
        ] {
            t.set(a, b, sim);
        }
        // `Any` is half-compatible with everything.
        for &d in &DataType::ALL {
            t.set(Any, d, 0.5);
        }
        t.set(Any, Any, 1.0);
        t
    }

    /// Sets the (symmetric) compatibility of a type pair.
    pub fn set(&mut self, a: DataType, b: DataType, sim: f64) {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.entries.insert(key, sim.clamp(0.0, 1.0));
    }

    /// The compatibility of two types.
    pub fn similarity(&self, a: DataType, b: DataType) -> f64 {
        if a == b {
            return 1.0;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        self.entries.get(&key).copied().unwrap_or(self.fallback)
    }

    /// The compatibility of two optionally-typed elements.
    pub fn similarity_opt(&self, a: Option<DataType>, b: Option<DataType>) -> f64 {
        match (a, b) {
            (Some(a), Some(b)) => self.similarity(a, b),
            (None, None) => self.untyped_pair,
            _ => self.typed_untyped,
        }
    }
}

impl Default for TypeCompatTable {
    fn default() -> Self {
        TypeCompatTable::standard()
    }
}

/// The datatype similarity of one compute's element pairs. Every element
/// carries the id of its datatype among its side's distinct datatypes
/// (untyped counts as one), and one table holds
/// [`TypeCompatTable::similarity_opt`] of every distinct pair: at most
/// 15 × 15 hash probes per compute, and two index loads per cell.
pub(crate) struct TypeSims {
    /// The type id of each source row the table was built for, in order.
    src: Vec<u8>,
    /// The type id of each target column.
    tgt: Vec<u8>,
    /// The number of distinct target types: the table's row length.
    cols: usize,
    table: Vec<f64>,
}

impl TypeSims {
    /// The table of source rows `rows` against every target column.
    pub(crate) fn new(ctx: &MatchContext<'_>, rows: std::ops::Range<usize>) -> TypeSims {
        let (src, src_types) = distinct_types(rows.map(|i| {
            let path = ctx.source_elem(i);
            ctx.source.node(ctx.source_paths.node_of(path)).datatype
        }));
        let (tgt, tgt_types) = distinct_types((0..ctx.cols()).map(|j| {
            let path = ctx.target_elem(j);
            ctx.target.node(ctx.target_paths.node_of(path)).datatype
        }));
        let compat = &ctx.aux.type_compat;
        let table = src_types
            .iter()
            .flat_map(|&a| tgt_types.iter().map(move |&b| compat.similarity_opt(a, b)))
            .collect();
        TypeSims {
            src,
            tgt,
            cols: tgt_types.len(),
            table,
        }
    }

    /// The similarity of the `r`-th row the table was built for and
    /// target column `j`.
    #[inline]
    pub(crate) fn get(&self, r: usize, j: usize) -> f64 {
        self.table[usize::from(self.src[r]) * self.cols + usize::from(self.tgt[j])]
    }
}

/// The id of every element's datatype among the distinct datatypes of its
/// side, plus those datatypes in first-use order. A side has at most 15
/// of them, so a linear search beats hashing.
fn distinct_types(
    types: impl Iterator<Item = Option<DataType>>,
) -> (Vec<u8>, Vec<Option<DataType>>) {
    let mut order: Vec<Option<DataType>> = Vec::new();
    let ids = types
        .map(|t| {
            let id = order.iter().position(|&u| u == t).unwrap_or_else(|| {
                order.push(t);
                order.len() - 1
            });
            u8::try_from(id).expect("fewer than 256 datatypes")
        })
        .collect();
    (ids, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use DataType::*;

    #[test]
    fn equal_types_are_fully_compatible() {
        let t = TypeCompatTable::standard();
        assert_eq!(t.similarity(Text, Text), 1.0);
        assert_eq!(t.similarity(Decimal, Decimal), 1.0);
    }

    #[test]
    fn lookup_is_symmetric() {
        let t = TypeCompatTable::standard();
        assert_eq!(
            t.similarity(Integer, Decimal),
            t.similarity(Decimal, Integer)
        );
        assert_eq!(t.similarity(Integer, Decimal), 0.8);
    }

    #[test]
    fn unknown_pairs_use_fallback() {
        let t = TypeCompatTable::standard();
        assert_eq!(t.similarity(Binary, Date), t.fallback);
    }

    #[test]
    fn untyped_conventions() {
        let t = TypeCompatTable::standard();
        assert_eq!(t.similarity_opt(None, None), t.untyped_pair);
        assert_eq!(t.similarity_opt(Some(Text), None), t.typed_untyped);
        assert_eq!(t.similarity_opt(Some(Text), Some(Text)), 1.0);
    }

    #[test]
    fn string_and_number_weakly_compatible() {
        // The corpus observation behind Section 7.3: "most leaf elements in
        // our test schemas are either of type String or Number".
        let t = TypeCompatTable::standard();
        assert!(t.similarity(Text, Decimal) > 0.0);
        assert!(t.similarity(Text, Decimal) < 0.5);
    }
}
