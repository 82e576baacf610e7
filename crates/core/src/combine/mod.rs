//! The combination framework (paper, Section 6): a series of aggregation
//! and selection operations on the similarity cube.
//!
//! 1. [`Aggregation`] — cube → combined similarity matrix (Max, Weighted,
//!    Average, Min; Section 6.1);
//! 2. [`Direction`] + [`Selection`] — matrix → ranked, filtered match
//!    candidates per element (LargeSmall / SmallLarge / Both with MaxN /
//!    MaxDelta / Threshold and their compounds; Section 6.2);
//! 3. [`CombinedSim`] — match candidates → a single similarity value for
//!    two element sets (Average, Dice; Section 6.3), used inside hybrid
//!    matchers and for schema similarity.
//!
//! A full strategy is the tuple [`CombinationStrategy`], e.g. the paper's
//! evaluated default `(Average, Both, Threshold(0.5)+Delta(0.02), Average)`
//! (Section 7.2).

mod aggregation;
mod combined;
mod marriage;
mod selection;

pub use aggregation::Aggregation;
pub(crate) use combined::max1_both_combined;
pub use combined::CombinedSim;
pub use marriage::stable_marriage;
pub(crate) use selection::{directional_wants, rank_entries, sort_desc, KeyedMatrix};
pub use selection::{DirectedCandidates, Direction, Selection};

use serde::{Deserialize, Serialize};

/// A complete combination strategy: one choice per combination step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinationStrategy {
    /// Step 1: aggregation of matcher-specific results.
    pub aggregation: Aggregation,
    /// Step 2a: match direction.
    pub direction: Direction,
    /// Step 2b: match candidate selection.
    pub selection: Selection,
    /// Step 3: computation of combined similarity (needed by hybrid
    /// matchers and schema similarity).
    pub combined_sim: CombinedSim,
}

impl CombinationStrategy {
    /// The default strategy the paper's evaluation identified as best:
    /// `(Average, Both, Threshold(0.5)+Delta(0.02), Average)` (Section 7.2).
    pub fn paper_default() -> CombinationStrategy {
        CombinationStrategy {
            aggregation: Aggregation::Average,
            direction: Direction::Both,
            selection: Selection::delta(0.02).with_threshold(0.5),
            combined_sim: CombinedSim::Average,
        }
    }

    /// A compact human-readable label, e.g.
    /// `Average/Both/Thr(0.5)+Delta(0.02)/Average`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.aggregation, self.direction, self.selection, self.combined_sim
        )
    }
}

impl Default for CombinationStrategy {
    fn default() -> Self {
        CombinationStrategy::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_default() {
        let d = CombinationStrategy::default();
        assert_eq!(d.aggregation, Aggregation::Average);
        assert_eq!(d.direction, Direction::Both);
        assert_eq!(d.label(), "Average/Both/Thr(0.5)+Delta(0.02)/Average");
    }
}
