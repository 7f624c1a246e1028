//! Exhaustive sharing-plan search over the Fig. 7 space, used to *validate*
//! the pruned optimizer.
//!
//! The paper prunes the exponential space of sharing plans to an O(m) scan
//! (Theorems 4.1–4.2). This module evaluates plans without pruning:
//! every subset S of the candidates is costed as
//! `Shared(S) + Σ_{q ∉ S} NonShared({q})` under Eq. 8, restricted — like
//! the paper's optimizer (§4.3 "Consequence of Pruning Principles") — to
//! plans with one shared set plus singletons (Levels 1–2 of Fig. 7).
//! Tests assert the pruned choice achieves the exhaustive minimum cost.
//! It is exponential in the candidate count and compiled only for
//! `hamlet-core`'s own unit tests (`#[cfg(test)] mod exhaustive`), like
//! `reference.rs`.

use super::queryset::Pricing;
use crate::run::BurstCtx;

/// Cost of the plan that shares exactly the `share_idx`-th candidates
/// and runs everyone else solo, priced by the optimizer's own `Pricing`
/// (what is checked is the search, not the model).
pub fn plan_cost(ctx: &BurstCtx, b: u64, share_idx: &[usize]) -> f64 {
    let chosen = share_idx.iter().fold(0u64, |bits, &i| bits | 1 << i);
    Pricing::new(ctx, b).cost(chosen)
}

/// Brute-force minimum cost over all one-shared-set plans.
pub fn best_plan_cost(ctx: &BurstCtx, b: u64) -> f64 {
    let m = ctx.candidates.len();
    assert!(m <= 20, "exhaustive search is for small candidate sets");
    let mut best = plan_cost(ctx, b, &[]);
    for mask in 1u32..(1 << m) {
        let share_idx: Vec<usize> = (0..m).filter(|i| mask & (1 << i) != 0).collect();
        if share_idx.len() == 1 {
            continue; // identical to the all-solo plan
        }
        best = best.min(plan_cost(ctx, b, &share_idx));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::QSet;
    use crate::burst::BurstRepr;
    use proptest::prelude::*;

    /// Candidates `0..m`, so a candidate's position is its member index.
    fn ctx(repr: BurstRepr, diverging: Vec<u64>, has_edge: Vec<bool>) -> BurstCtx {
        BurstCtx {
            repr,
            candidates: QSet::all(diverging.len()),
            edge: (has_edge.iter().enumerate())
                .filter_map(|(q, &e)| e.then_some(q))
                .collect(),
            diverging,
        }
    }

    /// The priced search's choice (`Dynamic` shares a count burst whole
    /// without it), at the exhaustive oracle's price.
    fn pruned_cost(c: &BurstCtx, b: u64) -> f64 {
        let pruned = Pricing::new(c, b).cheapest();
        let m = c.candidates.len();
        let pruned_idx: Vec<usize> = (0..m).filter(|&i| pruned.share.contains(i)).collect();
        plan_cost(c, b, &pruned_idx)
    }

    #[test]
    fn all_solo_plan_cost_is_k_times_single() {
        let c = ctx(BurstRepr::Cells, vec![0, 0, 0], vec![false; 3]);
        let solo = plan_cost(&c, 8, &[]);
        let single = plan_cost(&ctx(BurstRepr::Cells, vec![0], vec![false]), 8, &[]);
        assert!((solo - 3.0 * single).abs() < 1e-9);
    }

    #[test]
    fn pruned_choice_matches_exhaustive_on_examples() {
        for (repr, diverging) in [
            (BurstRepr::Cells, vec![0u64, 0, 0, 0]),
            (BurstRepr::Cells, vec![0, 0, 500, 0]),
            (BurstRepr::Cells, vec![5, 5, 5, 5]),
            (BurstRepr::Count, vec![0; 12]),
            (BurstRepr::Events, vec![0, 3, 0, 80]),
        ] {
            let c = ctx(repr, diverging.clone(), vec![false; diverging.len()]);
            let b = 16;
            let best_cost = best_plan_cost(&c, b);
            let pruned_cost = pruned_cost(&c, b);
            assert!(
                pruned_cost <= best_cost + 1e-6,
                "{repr:?}, diverging {diverging:?}: pruned {pruned_cost} vs best {best_cost}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Theorems 4.1/4.2: the O(m log m) pruned choice achieves the
        /// exhaustive minimum plan cost over randomized burst statistics.
        #[test]
        fn pruning_is_optimal(
            repr in 0usize..3,
            b in 1u64..512,
            diverging in proptest::collection::vec(0u64..512, 2..9),
            edge_bits in proptest::collection::vec(any::<bool>(), 9),
        ) {
            let m = diverging.len();
            let has_edge = edge_bits[..m].to_vec();
            let repr = [BurstRepr::Count, BurstRepr::Cells, BurstRepr::Events][repr];
            let c = ctx(repr, diverging, has_edge);
            let best_cost = best_plan_cost(&c, b);
            let pruned_cost = pruned_cost(&c, b);
            prop_assert!(
                pruned_cost <= best_cost + 1e-6 * best_cost.abs().max(1.0),
                "pruned {} vs exhaustive best {}",
                pruned_cost,
                best_cost
            );
        }
    }
}
