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

use super::benefit::{nonshared_cost, shared_cost};
use super::queryset::Pricing;
use crate::run::BurstCtx;

/// Cost of the plan that shares exactly the `share_idx`-th candidates
/// and runs everyone else solo, priced by the optimizer's own `Pricing`
/// (what is checked is the search, not the model).
pub fn plan_cost(ctx: &BurstCtx, b: u64, share_idx: &[usize]) -> f64 {
    let priced = Pricing::new(ctx, b);
    let solo = nonshared_cost(1.0, &priced.factors);
    let k_shared = share_idx.len();
    let mut cost = (ctx.candidates.len() - k_shared) as f64 * solo;
    if k_shared >= 2 {
        let sc = 1.0 + share_idx.iter().map(|&i| priced.sc(i)).sum::<f64>();
        cost += shared_cost(k_shared as f64, sc, &priced.factors);
    } else {
        // A "shared" set of < 2 queries is just solo execution.
        cost += k_shared as f64 * solo;
    }
    cost
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
    use crate::optimizer::choose_query_set;
    use proptest::prelude::*;

    /// Candidates `0..m`, so a candidate's position is its member index.
    fn ctx(n: u64, g: u64, sp: usize, diverging: Vec<u64>, has_edge: Vec<bool>) -> BurstCtx {
        BurstCtx {
            n,
            g,
            sp,
            p: 2.0,
            candidates: QSet::all(diverging.len()),
            edge: (has_edge.iter().enumerate())
                .filter_map(|(q, &e)| e.then_some(q))
                .collect(),
            diverging,
        }
    }

    #[test]
    fn all_solo_plan_cost_is_k_times_single() {
        let c = ctx(100, 10, 1, vec![0, 0, 0], vec![false; 3]);
        let solo = plan_cost(&c, 8, &[]);
        let single = plan_cost(&ctx(100, 10, 1, vec![0], vec![false]), 8, &[]);
        assert!((solo - 3.0 * single).abs() < 1e-9);
    }

    #[test]
    fn pruned_choice_matches_exhaustive_on_examples() {
        for (n, g, diverging) in [
            (1000u64, 0u64, vec![0u64, 0, 0, 0]),
            (1000, 0, vec![0, 0, 500, 0]),
            (10, 300, vec![5, 5, 5, 5]),
            (5000, 50, vec![0, 3, 0, 80]),
        ] {
            let m = diverging.len();
            let c = ctx(n, g, 1, diverging.clone(), vec![false; m]);
            let b = 16;
            let pruned = choose_query_set(&c, b);
            let pruned_idx: Vec<usize> = (0..m).filter(|&i| pruned.share.contains(i)).collect();
            let pruned_cost = plan_cost(&c, b, &pruned_idx);
            let best_cost = best_plan_cost(&c, b);
            assert!(
                pruned_cost <= best_cost + 1e-6,
                "diverging {diverging:?}: pruned {pruned_cost} vs best {best_cost}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Theorems 4.1/4.2: the O(m) pruned choice achieves the
        /// exhaustive minimum plan cost over randomized burst statistics.
        #[test]
        fn pruning_is_optimal(
            n in 1u64..100_000,
            g in 0u64..5_000,
            sp in 0usize..8,
            b in 1u64..512,
            diverging in proptest::collection::vec(0u64..512, 2..9),
            edge_bits in proptest::collection::vec(any::<bool>(), 9),
        ) {
            let m = diverging.len();
            let has_edge = edge_bits[..m].to_vec();
            let c = ctx(n, g, sp, diverging, has_edge);
            let pruned = choose_query_set(&c, b);
            let pruned_idx: Vec<usize> = (0..m).filter(|&i| pruned.share.contains(i)).collect();
            let pruned_cost = plan_cost(&c, b, &pruned_idx);
            let best_cost = best_plan_cost(&c, b);
            prop_assert!(
                pruned_cost <= best_cost + 1e-6 * best_cost.abs().max(1.0),
                "pruned {} vs exhaustive best {}",
                pruned_cost,
                best_cost
            );
        }
    }
}
