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

use super::benefit::{nonshared_cost, shared_cost, CostFactors};
use crate::bitset::QSet;
use crate::run::BurstCtx;

/// Cost of the plan that shares exactly `share_idx` (indices into
/// `ctx.candidates`) and runs everyone else solo.
pub fn plan_cost(ctx: &BurstCtx, b: u64, share_idx: &[usize]) -> f64 {
    let bf = b as f64;
    let g = (ctx.g + b) as f64;
    let factors = CostFactors {
        b: bf,
        n: ctx.n as f64,
        g,
        sp: (ctx.sp as f64).max(1.0),
        p: ctx.p,
    };
    let k_total = ctx.candidates.len();
    let k_shared = share_idx.len();
    let k_solo = (k_total - k_shared) as f64;
    let mut cost = k_solo * nonshared_cost(1.0, &factors);
    if k_shared >= 2 {
        let sc: f64 = 1.0
            + share_idx
                .iter()
                .map(|&i| ctx.diverging[i] as f64 + if ctx.has_edge[i] { bf } else { 0.0 })
                .sum::<f64>();
        cost += shared_cost(k_shared as f64, sc, &factors);
    } else {
        // A "shared" set of < 2 queries is just solo execution.
        cost += k_shared as f64 * nonshared_cost(1.0, &factors);
    }
    cost
}

/// Brute-force minimum over all one-shared-set plans. Returns the best
/// share set (as member indices) and its cost.
pub fn best_plan(ctx: &BurstCtx, b: u64) -> (QSet, f64) {
    let m = ctx.candidates.len();
    assert!(m <= 20, "exhaustive search is for small candidate sets");
    let mut best: (Vec<usize>, f64) = (Vec::new(), plan_cost(ctx, b, &[]));
    for mask in 1u32..(1 << m) {
        let share_idx: Vec<usize> = (0..m).filter(|i| mask & (1 << i) != 0).collect();
        if share_idx.len() == 1 {
            continue; // identical to the all-solo plan
        }
        let cost = plan_cost(ctx, b, &share_idx);
        if cost < best.1 {
            best = (share_idx, cost);
        }
    }
    let set: QSet = best.0.iter().map(|&i| ctx.candidates[i]).collect();
    (set, best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::choose_query_set;
    use proptest::prelude::*;

    fn ctx(n: u64, g: u64, sp: usize, diverging: Vec<u64>, has_edge: Vec<bool>) -> BurstCtx {
        let m = diverging.len();
        BurstCtx {
            n,
            g,
            sp,
            p: 2.0,
            currently_shared: false,
            candidates: (0..m).collect(),
            diverging,
            has_edge,
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
            let pruned_idx: Vec<usize> = (0..m)
                .filter(|&i| pruned.share.contains(c.candidates[i]))
                .collect();
            let pruned_cost = plan_cost(&c, b, &pruned_idx);
            let (_, best_cost) = best_plan(&c, b);
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
            let pruned_idx: Vec<usize> = (0..m)
                .filter(|&i| pruned.share.contains(c.candidates[i]))
                .collect();
            let pruned_cost = plan_cost(&c, b, &pruned_idx);
            let (_, best_cost) = best_plan(&c, b);
            prop_assert!(
                pruned_cost <= best_cost + 1e-6 * best_cost.abs().max(1.0),
                "pruned {} vs exhaustive best {}",
                pruned_cost,
                best_cost
            );
        }
    }
}
