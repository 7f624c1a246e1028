//! Choice of the query set to share with (§4.3).
//!
//! The full space of sharing plans is exponential (Fig. 7); Theorems 4.1
//! and 4.2 prune it to the plans at Levels 1–2 — one shared set plus
//! singletons — classified per query:
//!
//! * **Snapshot-driven pruning** (Thm. 4.1): queries that introduce no
//!   snapshots belong in the shared set.
//! * **Benefit-driven pruning** (Thm. 4.2): whether sharing a
//!   snapshot-introducing query is beneficial is monotone in its snapshot
//!   cost, so candidates can be ranked once.
//!
//! Under Eq. 8 the snapshot-maintenance term is `sc·k·g·p` — the snapshot
//! count multiplies the member count — so the cheapest plan that shares
//! `k` queries always consists of the `k` smallest-`sc` candidates. The
//! optimizer therefore sorts candidates by their snapshot cost and picks
//! the cost-minimal prefix: O(m log m), *exactly* optimal over the
//! Level-1/2 plan space (validated against the exhaustive search of the
//! `#[cfg(test)]` oracle `optimizer/exhaustive.rs`).

use super::benefit::{nonshared_cost, shared_cost, CostFactors};
use crate::bitset::QSet;
use crate::run::BurstCtx;

/// Outcome of the per-burst optimization.
#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// Members that share the burst's graphlet (empty ⇒ no sharing).
    pub share: QSet,
    /// Estimated `Benefit(G_E, Q_E)` of the chosen plan over all-solo
    /// execution (Eq. 8 / Def. 12).
    pub estimated_benefit: f64,
}

impl Decision {
    /// No sharing: every member processes the burst solo.
    pub(super) fn none() -> Decision {
        Decision {
            share: QSet::new(),
            estimated_benefit: 0.0,
        }
    }
}

/// Chooses the subset of candidate queries to share a burst with
/// (Theorems 4.1–4.2): the cost-minimal sharing plan under the Eq. 8
/// model, compared against fully non-shared execution (Def. 12).
pub fn choose_query_set(ctx: &BurstCtx, b: u64) -> Decision {
    let m = ctx.candidates.len();
    if m < 2 {
        return Decision::none();
    }
    let bf = b as f64;
    // The burst joins (or forms) a graphlet of this prospective size.
    let g = (ctx.g + b) as f64;
    let factors = CostFactors {
        b: bf,
        n: ctx.n as f64,
        g,
        sp: (ctx.sp as f64).max(1.0),
        p: ctx.p,
    };

    // Per-candidate snapshot estimate: selection divergence counts one
    // event-level snapshot per diverging event (Def. 9); edge predicates
    // force one per burst event. Candidates are members of one share
    // group, so their ranking (ties by position) fits on the stack.
    let sc = |i: usize| ctx.diverging[i] as f64 + if ctx.has_edge[i] { bf } else { 0.0 };
    let mut ranked: [usize; QSet::CAPACITY] = std::array::from_fn(|i| i);
    let ranked = &mut ranked[..m];
    ranked.sort_unstable_by(|&a, &b| sc(a).total_cmp(&sc(b)).then(a.cmp(&b)));

    let solo_one = nonshared_cost(1.0, &factors);
    let all_solo = m as f64 * solo_one;

    // Cost-minimal prefix: sharing the k smallest-sc candidates, k = 2..m.
    // `acc` accumulates 1 (the graphlet-level snapshot, Def. 8) plus the
    // prefix's per-query snapshot estimates.
    let mut best_cost = all_solo;
    let mut best_k = 0usize;
    let mut acc = 1.0;
    for (k, &i) in ranked.iter().enumerate() {
        acc += sc(i);
        let members = k + 1;
        if members < 2 {
            continue;
        }
        let cost = shared_cost(members as f64, acc, &factors) + (m - members) as f64 * solo_one;
        if cost < best_cost {
            best_cost = cost;
            best_k = members;
        }
    }

    if best_k < 2 {
        return Decision::none();
    }
    Decision {
        share: ranked[..best_k]
            .iter()
            .map(|&i| ctx.candidates[i])
            .collect(),
        estimated_benefit: all_solo - best_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(
        n: u64,
        g: u64,
        sp: usize,
        candidates: Vec<usize>,
        diverging: Vec<u64>,
        has_edge: Vec<bool>,
    ) -> BurstCtx {
        BurstCtx {
            n,
            g,
            sp,
            p: 2.0,
            currently_shared: false,
            diverging,
            has_edge,
            candidates,
        }
    }

    #[test]
    fn no_divergence_shares_everyone() {
        let c = ctx(100, 0, 0, vec![0, 1, 2], vec![0, 0, 0], vec![false; 3]);
        let d = choose_query_set(&c, 10);
        assert_eq!(d.share.len(), 3);
        assert!(d.estimated_benefit > 0.0);
    }

    #[test]
    fn single_candidate_never_shares() {
        let c = ctx(100, 0, 0, vec![0], vec![0], vec![false]);
        assert!(choose_query_set(&c, 10).share.is_empty());
    }

    #[test]
    fn heavy_divergers_are_excluded() {
        // Query 2 diverges massively — its snapshot-maintenance cost
        // dominates — while the snapshot-free queries still share.
        let c = ctx(
            50,
            0,
            0,
            vec![0, 1, 2],
            vec![0, 0, 400],
            vec![false, false, false],
        );
        let d = choose_query_set(&c, 4);
        assert!(d.share.contains(0) && d.share.contains(1));
        assert!(!d.share.contains(2));
    }

    #[test]
    fn snapshot_free_queries_always_kept_with_light_divergers() {
        // A lightly diverging query is kept when n is large (re-computation
        // dominates), mirroring the merge decision of Eq. 11.
        let c = ctx(10_000, 0, 1, vec![0, 1], vec![0, 2], vec![false, false]);
        let d = choose_query_set(&c, 50);
        assert_eq!(d.share.len(), 2);
        assert!(d.estimated_benefit > 0.0);
    }

    #[test]
    fn all_heavy_divergence_disables_sharing() {
        // Everyone needs a snapshot per event on a tiny window — Eq. 10
        // style split: benefit negative, no sharing.
        let c = ctx(2, 512, 6, vec![0, 1], vec![2, 2], vec![true, true]);
        let d = choose_query_set(&c, 2);
        assert!(d.share.is_empty());
    }

    #[test]
    fn edge_predicates_count_as_per_event_snapshots() {
        // With a tiny window, an edge-predicate member is excluded while
        // the clean members share.
        let c = ctx(
            40,
            0,
            0,
            vec![3, 5, 9],
            vec![0, 0, 0],
            vec![false, true, false],
        );
        let d = choose_query_set(&c, 16);
        assert!(d.share.contains(3) && d.share.contains(9));
        assert!(!d.share.contains(5));
    }

    #[test]
    fn policy_dispatch() {
        use crate::optimizer::{decide, SharingPolicy};
        let c = ctx(100, 0, 0, vec![0, 1], vec![0, 0], vec![false, false]);
        assert!(decide(SharingPolicy::NeverShare, &c, 10).share.is_empty());
        assert_eq!(decide(SharingPolicy::AlwaysShare, &c, 10).share.len(), 2);
        assert_eq!(decide(SharingPolicy::Dynamic, &c, 10).share.len(), 2);
        // AlwaysShare with a single candidate still cannot share.
        let c1 = ctx(100, 0, 0, vec![0], vec![0], vec![false]);
        assert!(decide(SharingPolicy::AlwaysShare, &c1, 10).share.is_empty());
    }
}
