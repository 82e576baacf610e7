use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// How a stored mapping was produced. The paper's evaluation distinguishes
/// reuse of manually confirmed results (`SchemaM`) from reuse of
/// automatically derived ones (`SchemaA`), Section 7.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingKind {
    /// Manually determined / user-confirmed correspondences.
    Manual,
    /// Output of an automatic match operation.
    Automatic,
}

/// One 1:1 correspondence between two schema elements (identified by their
/// dotted path names) together with its similarity — one tuple of the
/// relational mapping representation (Figure 3c).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Correspondence {
    /// Full path name in the source schema (e.g. `PO1.Contact.Name`).
    pub source: String,
    /// Full path name in the target schema.
    pub target: String,
    /// Similarity in `[0, 1]`.
    pub similarity: f64,
}

/// A match result between two schemas: the set of correspondences, stored
/// relationally for efficient composition by natural join.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// Name of the source schema.
    pub source_schema: String,
    /// Name of the target schema.
    pub target_schema: String,
    /// Provenance of the mapping.
    pub kind: MappingKind,
    /// The correspondence tuples.
    pub correspondences: Vec<Correspondence>,
}

impl Mapping {
    /// Creates an empty mapping.
    pub fn new(
        source_schema: impl Into<String>,
        target_schema: impl Into<String>,
        kind: MappingKind,
    ) -> Mapping {
        Mapping {
            source_schema: source_schema.into(),
            target_schema: target_schema.into(),
            kind,
            correspondences: Vec::new(),
        }
    }

    /// Adds a correspondence tuple.
    pub fn push(&mut self, source: impl Into<String>, target: impl Into<String>, similarity: f64) {
        debug_assert!((0.0..=1.0).contains(&similarity));
        self.correspondences.push(Correspondence {
            source: source.into(),
            target: target.into(),
            similarity,
        });
    }

    /// Number of correspondences.
    pub fn len(&self) -> usize {
        self.correspondences.len()
    }

    /// Whether the mapping has no correspondences.
    pub fn is_empty(&self) -> bool {
        self.correspondences.is_empty()
    }

    /// The mapping with source and target swapped. Match results are
    /// symmetric at the repository level, so reversal just transposes the
    /// tuples.
    pub fn reversed(&self) -> Mapping {
        Mapping {
            source_schema: self.target_schema.clone(),
            target_schema: self.source_schema.clone(),
            kind: self.kind,
            correspondences: self
                .correspondences
                .iter()
                .map(|c| Correspondence {
                    source: c.target.clone(),
                    target: c.source.clone(),
                    similarity: c.similarity,
                })
                .collect(),
        }
    }

    /// Restricts the mapping to correspondences with similarity ≥ `t`.
    pub fn filtered(&self, t: f64) -> Mapping {
        Mapping {
            source_schema: self.source_schema.clone(),
            target_schema: self.target_schema.clone(),
            kind: self.kind,
            correspondences: self
                .correspondences
                .iter()
                .filter(|c| c.similarity >= t)
                .cloned()
                .collect(),
        }
    }

    /// The natural join underlying MatchCompose (paper, Section 5.1):
    /// joins `self: S1↔S2` with `other: S2↔S3` on the shared S2 element and
    /// combines the two similarities with `combine` (the paper argues for
    /// Average over multiplication, Figure 3).
    ///
    /// When several join partners produce the *same* (source, target) pair,
    /// the highest combined similarity is kept. m:n blow-up across distinct
    /// pairs (Figure 4) is preserved — limiting it is the job of the match
    /// processing layer, which combines compose results with other matchers.
    pub fn compose(&self, other: &Mapping, combine: impl Fn(f64, f64) -> f64) -> Mapping {
        compose_oriented((self, false), (other, false), combine)
    }

    /// Whether the mapping relates the two named schemas, in either
    /// direction.
    pub fn relates(&self, a: &str, b: &str) -> bool {
        (self.source_schema == a && self.target_schema == b)
            || (self.source_schema == b && self.target_schema == a)
    }
}

/// A correspondence's (from, to) element names, read forward or reversed.
fn ends(c: &Correspondence, reversed: bool) -> (&str, &str) {
    if reversed {
        (&c.target, &c.source)
    } else {
        (&c.source, &c.target)
    }
}

/// [`Mapping::compose`] over mappings that may be read reversed: a
/// `(mapping, true)` operand is joined as its [`Mapping::reversed`] copy
/// would be, without building that copy. Identical to composing the
/// oriented copies.
pub fn compose_oriented(
    left: (&Mapping, bool),
    right: (&Mapping, bool),
    combine: impl Fn(f64, f64) -> f64,
) -> Mapping {
    // Hash join: index `right` on its from-side (= `left`'s to-side).
    let mut index: HashMap<&str, Vec<&Correspondence>> = HashMap::new();
    for c in &right.0.correspondences {
        index.entry(ends(c, right.1).0).or_default().push(c);
    }
    let source_schema = if left.1 {
        &left.0.target_schema
    } else {
        &left.0.source_schema
    };
    let target_schema = if right.1 {
        &right.0.source_schema
    } else {
        &right.0.target_schema
    };
    let mut out = Mapping::new(
        source_schema.clone(),
        target_schema.clone(),
        MappingKind::Automatic,
    );
    // Position of each composed (from, to) pair in `out`.
    let mut seen: HashMap<(&str, &str), usize> = HashMap::new();
    for l in &left.0.correspondences {
        let (from, via) = ends(l, left.1);
        let Some(partners) = index.get(via) else {
            continue;
        };
        for r in partners {
            let to = ends(r, right.1).1;
            let sim = combine(l.similarity, r.similarity).clamp(0.0, 1.0);
            match seen.entry((from, to)) {
                Entry::Occupied(at) => {
                    let existing = &mut out.correspondences[*at.get()].similarity;
                    *existing = existing.max(sim);
                }
                Entry::Vacant(at) => {
                    at.insert(out.correspondences.len());
                    out.correspondences.push(Correspondence {
                        source: from.to_string(),
                        target: to.to_string(),
                        similarity: sim,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the Figure 3 example: match1: PO1↔PO2, match2: PO2↔PO3.
    fn figure3() -> (Mapping, Mapping) {
        let mut m1 = Mapping::new("PO1", "PO2", MappingKind::Manual);
        m1.push("PO1.Contact.Email", "PO2.Contact.e-mail", 1.0);
        m1.push("PO1.Contact.Name", "PO2.Contact.name", 1.0);
        let mut m2 = Mapping::new("PO2", "PO3", MappingKind::Manual);
        m2.push("PO2.Contact.e-mail", "PO3.Contact.email", 1.0);
        m2.push("PO2.Contact.name", "PO3.Contact.firstName", 0.6);
        m2.push("PO2.Contact.name", "PO3.Contact.lastName", 0.6);
        (m1, m2)
    }

    #[test]
    fn compose_reproduces_figure_3() {
        let (m1, m2) = figure3();
        let avg = |a: f64, b: f64| (a + b) / 2.0;
        let m = m1.compose(&m2, avg);
        assert_eq!(m.source_schema, "PO1");
        assert_eq!(m.target_schema, "PO3");
        // Figure 3b: Email→email 1.0, Name→firstName 0.8, Name→lastName 0.8.
        assert_eq!(m.len(), 3);
        let find = |s: &str, t: &str| {
            m.correspondences
                .iter()
                .find(|c| c.source == s && c.target == t)
                .map(|c| c.similarity)
        };
        assert_eq!(find("PO1.Contact.Email", "PO3.Contact.email"), Some(1.0));
        assert_eq!(find("PO1.Contact.Name", "PO3.Contact.firstName"), Some(0.8));
        assert_eq!(find("PO1.Contact.Name", "PO3.Contact.lastName"), Some(0.8));
        // company has no counterpart in PO2 → correctly missed.
        assert!(find("PO1.Contact.company", "PO3.Contact.company").is_none());
    }

    #[test]
    fn compose_average_beats_multiplication_degradation() {
        // Section 5.1: contactFirstName ↔0.5 Name ↔0.7 firstName.
        let mut m1 = Mapping::new("A", "B", MappingKind::Manual);
        m1.push("contactFirstName", "Name", 0.5);
        let mut m2 = Mapping::new("B", "C", MappingKind::Manual);
        m2.push("Name", "firstName", 0.7);
        let mul = m1.compose(&m2, |a, b| a * b);
        let avg = m1.compose(&m2, |a, b| (a + b) / 2.0);
        assert!((mul.correspondences[0].similarity - 0.35).abs() < 1e-12);
        assert!((avg.correspondences[0].similarity - 0.6).abs() < 1e-12);
    }

    #[test]
    fn compose_produces_mn_matches_like_figure_4() {
        let mut m1 = Mapping::new("PO1", "PO2", MappingKind::Manual);
        m1.push("PO1.ShipTo.Contact", "PO2.Contact", 1.0);
        m1.push("PO1.BillTo.Contact", "PO2.Contact", 1.0);
        let mut m2 = Mapping::new("PO2", "PO3", MappingKind::Manual);
        m2.push("PO2.Contact", "PO3.DeliverTo.Contact", 1.0);
        m2.push("PO2.Contact", "PO3.InvoiceTo.Contact", 1.0);
        let m = m1.compose(&m2, |a, b| (a + b) / 2.0);
        // All 4 combinations are returned (Figure 4's caveat).
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn compose_keeps_best_similarity_for_duplicate_pairs() {
        let mut m1 = Mapping::new("A", "B", MappingKind::Manual);
        m1.push("x", "b1", 1.0);
        m1.push("x", "b2", 0.4);
        let mut m2 = Mapping::new("B", "C", MappingKind::Manual);
        m2.push("b1", "y", 0.6);
        m2.push("b2", "y", 1.0);
        let m = m1.compose(&m2, |a, b| (a + b) / 2.0);
        assert_eq!(m.len(), 1);
        // via b1: (1.0+0.6)/2 = 0.8; via b2: (0.4+1.0)/2 = 0.7 → keep 0.8.
        assert!((m.correspondences[0].similarity - 0.8).abs() < 1e-12);
    }

    #[test]
    fn reversed_swaps_everything() {
        let (m1, _) = figure3();
        let r = m1.reversed();
        assert_eq!(r.source_schema, "PO2");
        assert_eq!(r.correspondences[0].source, "PO2.Contact.e-mail");
        assert_eq!(r.reversed(), m1);
    }

    /// Reading an operand reversed composes exactly like its reversed
    /// copy, for every orientation of both operands, duplicates included.
    #[test]
    fn compose_oriented_equals_composing_reversed_copies() {
        let (m1, mut m2) = figure3();
        // A second path to the same pair: the larger similarity wins.
        m2.push("PO2.Contact.e-mail", "PO3.Contact.email", 0.4);
        let avg = |a: f64, b: f64| (a + b) / 2.0;
        let copy = |m: &Mapping, reversed: bool| if reversed { m.reversed() } else { m.clone() };
        for (a, b) in [(&m1, &m2), (&m2, &m1)] {
            for ra in [false, true] {
                for rb in [false, true] {
                    let expected = copy(a, ra).compose(&copy(b, rb), avg);
                    assert_eq!(compose_oriented((a, ra), (b, rb), avg), expected);
                }
            }
        }
        let composed = m1.compose(&m2, avg);
        let reversed_both = compose_oriented((&m2, true), (&m1, true), avg);
        assert_eq!(reversed_both.source_schema, "PO3");
        assert_eq!(reversed_both.len(), composed.len());
    }

    #[test]
    fn filtered_drops_weak_tuples() {
        let (_, m2) = figure3();
        assert_eq!(m2.filtered(0.7).len(), 1);
        assert_eq!(m2.filtered(0.0).len(), 3);
    }
}
