//! Canonical staged match plans shared by the benchmarks, the CI perf
//! gate, the CLI and the server's wire-level plan specs — so the numbers
//! humans read, the numbers CI gates, and the plans the service executes
//! all come from the same constructions.

use crate::combine::{CombinationStrategy, Direction, Selection};
use crate::engine::{MatchPlan, TopKPer};
use crate::process::MatchStrategy;

/// The TopK-pruned two-stage plan the sparse execution path is built
/// for: a liberal `Name` stage pruned to the `k` best candidates per
/// element, then the paper-default `All` refine on the survivors.
pub fn topk_pruned_plan(k: usize) -> MatchPlan {
    validated(topk_pruned_plan_raw(k))
}

/// The liberal `Name` first stage of [`topk_pruned_plan`], standalone:
/// an unrestricted (dense) full-cross-product computation — exactly the
/// stage the engine's row-sharded execution targets, and the cheap
/// filter to put in front of an expensive refine on any large task.
pub fn liberal_name_stage() -> MatchPlan {
    let mut liberal = CombinationStrategy::paper_default();
    liberal.selection = Selection::max_n(10).with_threshold(0.3);
    MatchPlan::matchers_with(["Name"], liberal)
}

/// The inverted-index retrieve→rerank→refine plan: candidate generation
/// from shared token/q-gram postings (capped at `cap` candidates per
/// element, union over both sides), the masked liberal `Name` re-rank
/// pruned to the same per-element budget, then the paper-default `All`
/// refine on the survivors. No stage ever scores the m×n cross product.
pub fn candidate_index_plan(cap: usize) -> MatchPlan {
    validated(candidate_index_plan_raw(cap))
}

/// The first stage of [`candidate_index_plan`], standalone: inverted-
/// index retrieval (capped at `cap` per element) feeding the masked
/// liberal `Name` re-rank pruned to the `cap` best per element. This is
/// exactly the candidate set the plan's refine gets to see, which is why
/// the perf gate's recall check scores this stage against the exact
/// prefilter.
pub fn candidate_index_stage(cap: usize) -> MatchPlan {
    validated(candidate_index_stage_raw(cap))
}

/// Like [`topk_pruned_plan`], but skipping constructor validation:
/// degenerate parameters (`k == 0`) survive construction, so a
/// pre-execution analyzer can report them as structured diagnostics with
/// real node paths (`Seq[0].TopK`) instead of a constructor error losing
/// the position. Never execute an unvalidated plan directly.
pub fn topk_pruned_plan_raw(k: usize) -> MatchPlan {
    MatchPlan::seq(liberal_top_k(k), paper_default_refine())
}

/// Like [`candidate_index_plan`], but skipping constructor validation —
/// see [`topk_pruned_plan_raw`] for why. A `cap == 0` flows through as
/// both a zero index cap (`Seq[0].Seq[0].CandidateIndex`) and a zero
/// `TopK` (`Seq[0].Seq[1].TopK`).
pub fn candidate_index_plan_raw(cap: usize) -> MatchPlan {
    MatchPlan::seq(candidate_index_stage_raw(cap), paper_default_refine())
}

/// The streaming-fused pruning plan large-task memory ceilings are
/// measured on: a liberal `Name` stage whose threshold `Filter` fuses
/// with the compute, so each row shard is pruned as it is produced and
/// the full dense matrix is never allocated. A `Filter` (not `TopK`)
/// deliberately: `TopK` materializes an `m × n` pair-mask bitset, which
/// at 100k × 100k would itself be > 1 GiB.
pub fn fused_filter_plan() -> MatchPlan {
    liberal_name_stage().filtered(Direction::Both, Selection::max_n(5).with_threshold(0.3))
}

/// [`candidate_index_stage`] without constructor validation.
fn candidate_index_stage_raw(cap: usize) -> MatchPlan {
    let retrieve = MatchPlan::CandidateIndex {
        min_shared_tokens: 1,
        min_score: 0.0,
        q: 3,
        per_element: Some(cap),
    };
    MatchPlan::seq(retrieve, liberal_top_k(cap))
}

/// The liberal `Name` stage pruned to its `k` best per element, built
/// without rejecting `k == 0`.
fn liberal_top_k(k: usize) -> MatchPlan {
    MatchPlan::TopK {
        input: Box::new(liberal_name_stage()),
        k,
        per: TopKPer::Both,
    }
}

fn paper_default_refine() -> MatchPlan {
    MatchPlan::from(&MatchStrategy::paper_default())
}

/// A canonical plan after its shape validation: the validated
/// constructors accept only positive budgets.
fn validated(plan: MatchPlan) -> MatchPlan {
    plan.validate_shape().expect("budget > 0 by construction");
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_validate_against_the_standard_library() {
        let lib = crate::matchers::MatcherLibrary::standard();
        for plan in [
            topk_pruned_plan(5),
            liberal_name_stage(),
            candidate_index_plan(5),
            candidate_index_stage(5),
            fused_filter_plan(),
        ] {
            plan.validate(&lib).unwrap();
        }
    }

    #[test]
    fn validated_plans_are_their_raw_twins() {
        let refine = || MatchPlan::from(&MatchStrategy::paper_default());
        for k in 1..=8 {
            assert_eq!(topk_pruned_plan(k), topk_pruned_plan_raw(k));
            assert_eq!(candidate_index_plan(k), candidate_index_plan_raw(k));
            // The shapes the builder API constructs, node for node.
            let pruned = liberal_name_stage().top_k(k, TopKPer::Both).unwrap();
            assert_eq!(topk_pruned_plan(k), MatchPlan::seq(pruned, refine()));
            let retrieve = MatchPlan::candidate_index_with(1, 0.0, 3, Some(k)).unwrap();
            let rerank = liberal_name_stage().top_k(k, TopKPer::Both).unwrap();
            assert_eq!(candidate_index_stage(k), MatchPlan::seq(retrieve, rerank));
            let plan = MatchPlan::seq(candidate_index_stage(k), refine());
            assert_eq!(candidate_index_plan(k), plan);
        }
    }

    #[test]
    fn raw_plans_let_defects_through_to_validation() {
        assert!(topk_pruned_plan_raw(5).validate_shape().is_ok());
        let err = topk_pruned_plan_raw(0).validate_shape().unwrap_err();
        assert_eq!(err.path(), "Seq[0].TopK");
        assert!(candidate_index_plan_raw(5).validate_shape().is_ok());
        let err = candidate_index_plan_raw(0).validate_shape().unwrap_err();
        assert_eq!(err.path(), "Seq[0].Seq[0].CandidateIndex");
    }
}
