//! Choice of the query set to share with (§4.3), and the one place a
//! burst is priced for it.
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
//! Under the model of `benefit.rs` a plan's price depends on its shared
//! set only through the set's size and the event-level snapshots it
//! takes — at most the sum of its members' `sc`, and at most one per
//! event. So among the plans that share `k` queries the cheapest consists
//! of the `k` smallest-`sc` candidates. The optimizer therefore sorts
//! candidates by their snapshot cost, prices every prefix and keeps the
//! cheapest: O(m log m), *exactly* optimal over the Level-1/2 plan space
//! (validated against the exhaustive search of the `#[cfg(test)]` oracle
//! `optimizer/exhaustive.rs`).

use super::benefit::{nonshared_cost, shared_cost, solo_member_cost, CostFactors};
use super::SharingPolicy;
use crate::bitset::QSet;
use crate::burst::BurstRepr;
use crate::run::BurstCtx;

/// The relative spread of the measured constants across workloads
/// (EXPERIMENTS.md, "Pricing what the replay does"): a count burst whose
/// shared price exceeds its solo price by less than this share of the
/// solo price is a tie.
const TIE: f64 = 1.0 / 3.0;

/// Outcome of the per-burst optimization; the default shares nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Decision {
    /// Members that share the burst's graphlet (empty ⇒ no sharing).
    pub share: QSet,
    /// Estimated `Benefit(G_E, Q_E)` of the chosen plan over all-solo
    /// execution, in ns (Def. 12, priced by `benefit.rs`).
    pub estimated_benefit: f64,
}

/// A burst of at least two candidates priced by `benefit.rs`: the factors
/// every plan for it shares, and each candidate's snapshot estimate `sc`.
/// The one place a burst's shape becomes prices — for the per-burst
/// decision and for a group's placement alike. Plans name candidates by
/// position: bit `i` is the `i`-th candidate.
pub(crate) struct Pricing<'a> {
    ctx: &'a BurstCtx,
    /// Events in the burst.
    b: u64,
    factors: CostFactors,
    /// Bit `i`: the `i`-th candidate has an edge predicate.
    edge: u64,
}

impl<'a> Pricing<'a> {
    /// Prices a burst of `b` events of the shape `ctx`.
    pub(crate) fn new(ctx: &'a BurstCtx, b: u64) -> Pricing<'a> {
        let edge = match ctx.edge.is_empty() {
            true => 0,
            false => (ctx.candidates.iter().enumerate())
                .filter(|&(_, q)| ctx.edge.contains(q))
                .fold(0, |bits, (i, _)| bits | 1 << i),
        };
        let factors = CostFactors {
            b: b as f64,
            repr: ctx.repr,
        };
        Pricing {
            ctx,
            b,
            factors,
            edge,
        }
    }

    /// `sc` of the `i`-th candidate: selection divergence counts one
    /// event-level snapshot per diverging event (Def. 9); edge predicates
    /// force one per burst event.
    pub(super) fn sc(&self, i: usize) -> u64 {
        self.ctx.diverging[i] + (self.edge >> i & 1) * self.b
    }

    /// What the plan sharing the candidates of `chosen` costs: a shared
    /// set of fewer than two runs solo.
    pub(super) fn cost(&self, chosen: u64) -> f64 {
        let k = chosen.count_ones() as usize;
        if k < 2 {
            return nonshared_cost(self.ctx.candidates.len() as f64, &self.factors);
        }
        let sc = (0..self.ctx.candidates.len())
            .filter(|&i| chosen >> i & 1 == 1)
            .map(|i| self.sc(i))
            .sum();
        self.plan(k, sc)
    }

    /// [`cost`](Self::cost) of a shared set of `k ≥ 2` candidates whose
    /// `sc` sum to `sc`: at most one event-level snapshot per event.
    fn plan(&self, k: usize, sc: u64) -> f64 {
        let solo = (self.ctx.candidates.len() - k) as f64 * solo_member_cost(&self.factors);
        shared_cost(k as f64, sc.min(self.b) as f64, &self.factors) + solo
    }

    /// The Def. 12 benefit of sharing every candidate. Negative when
    /// sharing the whole set loses, though a subset may still win. A
    /// count burst takes no snapshot.
    pub(crate) fn whole_set_benefit(&self) -> f64 {
        let m = self.ctx.candidates.len();
        let shared = match self.factors.repr {
            BurstRepr::Count => self.plan(m, 0),
            _ => self.cost(u64::MAX >> (64 - m)),
        };
        nonshared_cost(m as f64, &self.factors) - shared
    }

    /// What `policy` decides for the burst, with the benefit of its plan.
    /// A count burst has two plans, all or nobody, priced in O(1);
    /// `Dynamic` shares it unless sharing loses by more than [`TIE`] of
    /// the solo price — within that, the constants cannot tell the plans
    /// apart (`benefit.rs`), and the paper's plan is kept.
    pub(crate) fn decide(&self, policy: SharingPolicy) -> Decision {
        let whole = || Decision {
            share: self.ctx.candidates,
            estimated_benefit: self.whole_set_benefit(),
        };
        match policy {
            SharingPolicy::Dynamic if self.factors.repr == BurstRepr::Count => {
                let solo = nonshared_cost(self.ctx.candidates.len() as f64, &self.factors);
                let d = whole();
                match d.estimated_benefit >= -TIE * solo {
                    true => d,
                    false => Decision::default(),
                }
            }
            SharingPolicy::Dynamic => self.cheapest(),
            SharingPolicy::AlwaysShare => whole(),
            SharingPolicy::NeverShare => Decision::default(),
        }
    }

    /// The cost-minimal plan. Candidates are members of one share group,
    /// so their ranking by `sc` (ties by position) fits on the stack. The
    /// ranking is skipped where no plan could win even without a
    /// snapshot.
    pub(super) fn cheapest(&self) -> Decision {
        let m = self.ctx.candidates.len();
        let all_solo = nonshared_cost(m as f64, &self.factors);
        // Without snapshots a plan's cost is linear in its width: if
        // neither the narrowest nor the widest wins, none does.
        if self.plan(2, 0).min(self.plan(m, 0)) >= all_solo {
            return Decision::default();
        }
        // Ranked by `sc` (at most b counts), ties by position: one
        // sortable word each.
        let mut ranked = [0u64; QSet::CAPACITY];
        for (i, r) in ranked[..m].iter_mut().enumerate() {
            *r = self.sc(i).min(self.b) << 6 | i as u64;
        }
        let ranked = &mut ranked[..m];
        if !ranked.is_sorted() {
            ranked.sort_unstable();
        }
        // Cost-minimal prefix: sharing the k smallest-sc candidates,
        // k = 2..m.
        let (mut best_cost, mut best) = (all_solo, 0u64);
        let (mut chosen, mut sum) = (0u64, 0u64);
        for (k, &r) in (1..).zip(ranked.iter()) {
            (chosen, sum) = (chosen | 1 << (r & 63), sum + (r >> 6));
            let cost = self.plan(k, sum);
            if k > 1 && cost < best_cost {
                (best_cost, best) = (cost, chosen);
            }
        }
        Decision {
            share: (self.ctx.candidates.iter().enumerate())
                .filter(|&(i, _)| best >> i & 1 == 1)
                .map(|(_, q)| q)
                .collect(),
            estimated_benefit: all_solo - best_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{benefit, decide};

    /// A burst of `repr` over `candidates`.
    fn ctx(repr: BurstRepr, candidates: &[usize], diverging: &[u64], edge: &[usize]) -> BurstCtx {
        BurstCtx {
            repr,
            candidates: candidates.iter().copied().collect(),
            edge: edge.iter().copied().collect(),
            diverging: diverging.to_vec(),
        }
    }

    fn dynamic(c: &BurstCtx, b: u64) -> Decision {
        decide(SharingPolicy::Dynamic, c, b)
    }

    #[test]
    fn no_divergence_shares_everyone() {
        let c = ctx(BurstRepr::Cells, &[0, 1, 2, 3], &[0; 4], &[]);
        let d = dynamic(&c, 16);
        assert_eq!(d.share.len(), 4);
        assert!(d.estimated_benefit > 0.0);
    }

    /// A lightly diverging member is kept when the burst is long: its
    /// one snapshot costs less than its solo pass.
    #[test]
    fn snapshot_free_queries_always_kept_with_light_divergers() {
        let c = ctx(BurstRepr::Cells, &[0, 1, 2], &[0, 0, 1], &[]);
        let d = dynamic(&c, 50);
        assert_eq!(d.share.len(), 3);
        assert!(d.estimated_benefit > 0.0);
    }

    #[test]
    fn single_candidate_never_shares() {
        let c = ctx(BurstRepr::Cells, &[0], &[0], &[]);
        assert!(dynamic(&c, 10).share.is_empty());
    }

    /// A count burst is shared whole where its priced loss is within
    /// the tie (10 members and more), and runs solo below (5).
    #[test]
    fn count_bursts_are_shared_whole() {
        for (m, shared) in [(5, false), (9, false), (10, true), (19, true)] {
            let members: Vec<usize> = (0..m).collect();
            let c = ctx(BurstRepr::Count, &members, &vec![0; m], &[]);
            let d = dynamic(&c, 40);
            assert_eq!(d.share.len(), if shared { m } else { 0 }, "{m} members");
            let priced = Pricing::new(&c, 40);
            assert!(priced.whole_set_benefit() < 0.0, "priced, solo wins at {m}");
            assert!(priced.cheapest().share.is_empty());
        }
    }

    #[test]
    fn heavy_divergers_are_excluded() {
        // Member 2 diverges on every event: its snapshots would cost more
        // than its solo pass, while the snapshot-free members still share.
        let c = ctx(BurstRepr::Cells, &[0, 1, 2, 4], &[0, 0, 32, 0], &[]);
        let d = dynamic(&c, 32);
        assert_eq!(d.share, [0, 1, 4].into_iter().collect());
    }

    #[test]
    fn all_heavy_divergence_disables_sharing() {
        let c = ctx(BurstRepr::Cells, &[0, 1, 2], &[8, 8, 8], &[]);
        assert!(dynamic(&c, 8).share.is_empty());
    }

    #[test]
    fn edge_predicates_count_as_per_event_snapshots() {
        let c = ctx(BurstRepr::Events, &[3, 5, 9, 11], &[0; 4], &[5]);
        let d = dynamic(&c, 16);
        assert_eq!(d.share, [3, 9, 11].into_iter().collect());
    }

    #[test]
    fn policy_dispatch() {
        let c = ctx(BurstRepr::Cells, &[0, 1], &[0, 0], &[]);
        assert!(decide(SharingPolicy::NeverShare, &c, 10).share.is_empty());
        assert_eq!(decide(SharingPolicy::AlwaysShare, &c, 10).share.len(), 2);
        // AlwaysShare with a single candidate still cannot share.
        let c1 = ctx(BurstRepr::Cells, &[0], &[0], &[]);
        assert!(decide(SharingPolicy::AlwaysShare, &c1, 10).share.is_empty());
    }

    #[test]
    fn always_share_estimates_the_whole_set_benefit() {
        // Member 1 rejects every event the others accept: sharing both
        // loses, and an always-share plan's estimate says by how much —
        // at most one event-level snapshot per event.
        let c = ctx(BurstRepr::Cells, &[0, 1], &[0, 30], &[]);
        let d = decide(SharingPolicy::AlwaysShare, &c, 10);
        assert_eq!(d.share.len(), 2);
        let f = CostFactors {
            b: 10.0,
            repr: BurstRepr::Cells,
        };
        assert_eq!(d.estimated_benefit, benefit(2.0, 10.0, &f));
        assert!(d.estimated_benefit < 0.0, "{}", d.estimated_benefit);
        assert!(dynamic(&c, 10).share.is_empty());
    }
}
