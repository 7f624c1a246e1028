//! The sharing benefit model (§4.1, Def. 12), priced in nanoseconds of
//! what [`Run::replay`](crate::run::Run::replay) executes.
//!
//! The paper prices a burst `B_E` of `b` events of a sharable type `E`
//! with Eq. 8:
//!
//! ```text
//! Shared(G_E, Q_E)     = sc·k·g·p + b·(log₂g + n·sp)
//! NonShared(Gⁱ_E, Q_E) = k·b·(log₂g + n)
//! Benefit              = NonShared − Shared
//! ```
//!
//! (`k` queries sharing, `g` events per graphlet, `n` events per window,
//! `p` predecessor types, `sc` snapshots created, `sp` snapshots
//! propagated; Table 2). Its non-shared term charges every query a pass
//! over the window's `n` events per burst event — a GRETA that recomputes
//! each event's count from its predecessors. This engine pays nothing of
//! the sort: per-member totals of closed graphlets are resolved into one
//! number per type (`cum`), so a member's step is O(p) whatever `n` is.
//! Priced with Eq. 8, sharing won almost every burst, and the dynamic
//! optimizer ran slower than never sharing on every benchmark workload.
//! What the replay really does, per burst of `b` events:
//!
//! | Eq. 8 term | what this engine executes instead | priced here as |
//! |---|---|---|
//! | `k·b·(log₂g + n)` | a solo member: one closed-form step for a count burst; for cells, its predecessor sums and then one pass over the cells | `k·COUNT_SOLO_NS`, or `k·(CELL_SOLO_FIXED_NS + b·CELL_SOLO_NS)` |
//! | `b·log₂g` | a count burst: one closed-form step of the shared sum; cells: each cell absorbed into a running sum of `TERMS` terms | `COUNT_SHARED_NS`, or `b·TERMS·CELL_TERM_NS` |
//! | `b·n·sp` | — (nothing is re-read from the window) | — |
//! | `sc·k·g·p` | an event-level snapshot: one folded row, a value per sharing member | `sc·(FOLD_NS + k·FOLD_MEMBER_NS)` |
//! | — | opening a graphlet: a graphlet-level snapshot row (Def. 8), each member's predecessor sum; closing it: each member's total resolved into `cum` | `OPEN_NS + k·(OPEN_MEMBER_NS + CLOSE_MEMBER_NS)`, charged to every burst that shares |
//!
//! The constants were measured with the timestamp counter around each of
//! these code paths (EXPERIMENTS.md, "Pricing what the replay does"):
//! per call, divided by the members or cells it handled, on the four
//! benchmark workloads and on the figures' shapes. Their spread across
//! workloads is up to 2× (a cold run pays more for every term alike), so
//! only their ratios steer a decision. Every plan that shares is charged
//! its graphlet's open and close: on every workload measured a shared
//! graphlet served exactly one burst — the next burst of another type
//! closed it — so that is what sharing a burst costs.
//!
//! A count burst's two plans — all or nobody — differ only in fixed
//! terms: `k·COUNT_SOLO_NS` against `OPEN_NS + COUNT_SHARED_NS +
//! k·(OPEN_MEMBER_NS + CLOSE_MEMBER_NS)`, independent of everything the
//! burst carries. Sharing is priced dearer below 26 members, but from 10
//! members on by less than the constants' spread (`queryset::TIE`, a
//! third of the solo price), and `Pricing` keeps the paper's plan there:
//! it shares. Measured end to end, never sharing such bursts is a tie on
//! the uniform stock workload and a few percent faster on the
//! ridesharing ones (ROADMAP direction 1).
//!
//! Pairwise edge-predicate scans (the per-event loop of `run/edge.rs`)
//! are the same under both plans — each edge member scans the stored
//! events either way — so they are not priced; an edge member that
//! shares forces one event-level snapshot per event, which is.

use crate::burst::BurstRepr;

/// A solo member's closed-form step over a count burst: its external
/// predecessor sum and one ring step.
pub const COUNT_SOLO_NS: f64 = 30.0;
/// A solo member's setup for a cell burst: opening its graphlet, the
/// external and lattice predecessor sums.
pub const CELL_SOLO_FIXED_NS: f64 = 45.0;
/// A solo member per buffered cell (its mask filter visits every one).
pub const CELL_SOLO_NS: f64 = 6.0;
/// The shared sum's closed-form step over a count burst.
pub const COUNT_SHARED_NS: f64 = 50.0;
/// A shared cell, per term of the running sum it is absorbed into.
pub const CELL_TERM_NS: f64 = 7.0;
/// An event-level snapshot: its row and the fold.
pub const FOLD_NS: f64 = 30.0;
/// An event-level snapshot, per sharing member: the evaluated value.
pub const FOLD_MEMBER_NS: f64 = 10.0;
/// Opening a shared graphlet: its graphlet-level (and unit) snapshot row.
pub const OPEN_NS: f64 = 100.0;
/// Opening a shared graphlet, per member: its predecessor sum.
pub const OPEN_MEMBER_NS: f64 = 14.0;
/// Closing a shared graphlet, per member: its total resolved into `cum`.
pub const CLOSE_MEMBER_NS: f64 = 10.0;
/// Terms a shared graphlet's running sum propagates: the graphlet-level
/// snapshot and, where the type starts trends, the unit (a fold replaces
/// both with one, and the next uniform cell brings them back).
pub const TERMS: f64 = 2.0;

/// The burst as the replay sees it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CostFactors {
    /// Events in the burst (`b`).
    pub b: f64,
    /// How the replay advances it: [`BurstRepr::Count`] in closed form,
    /// otherwise cell by cell (or event by event, at the same price).
    pub repr: BurstRepr,
}

/// One solo member's replay of the burst.
pub fn solo_member_cost(f: &CostFactors) -> f64 {
    match f.repr {
        BurstRepr::Count => COUNT_SOLO_NS,
        BurstRepr::Cells | BurstRepr::Events => CELL_SOLO_FIXED_NS + f.b * CELL_SOLO_NS,
    }
}

/// `k` members replaying the burst solo.
pub fn nonshared_cost(k: f64, f: &CostFactors) -> f64 {
    k * solo_member_cost(f)
}

/// `k` members sharing the burst in a graphlet opened for it, taking
/// `sc` event-level snapshots.
pub fn shared_cost(k: f64, sc: f64, f: &CostFactors) -> f64 {
    let open = OPEN_NS + k * (OPEN_MEMBER_NS + CLOSE_MEMBER_NS);
    let burst = match f.repr {
        BurstRepr::Count => COUNT_SHARED_NS,
        BurstRepr::Cells | BurstRepr::Events => f.b * TERMS * CELL_TERM_NS,
    };
    open + burst + sc * (FOLD_NS + k * FOLD_MEMBER_NS)
}

/// `Benefit = NonShared − Shared` in ns; positive means sharing wins
/// (Def. 12).
pub fn benefit(k: f64, sc: f64, f: &CostFactors) -> f64 {
    nonshared_cost(k, f) - shared_cost(k, sc, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{decide, SharingPolicy};
    use crate::run::BurstCtx;

    fn burst(b: f64, repr: BurstRepr) -> CostFactors {
        CostFactors { b, repr }
    }

    /// The situation of the paper's Eq. 9: `COUNT(*)` queries that agree
    /// on every event of a burst. Priced, sharing it loses at every width
    /// below 26 (a solo step is one ring operation here); with the two
    /// members of the paper's example the loss is beyond the tie and
    /// `Dynamic` runs them solo, from ten members on it keeps the paper's
    /// decision to share.
    #[test]
    fn equation9_decision_to_share() {
        assert!(benefit(2.0, 0.0, &burst(4.0, BurstRepr::Count)) < 0.0);
        for (m, shared) in [(2, 0), (10, 10)] {
            let ctx = BurstCtx {
                repr: BurstRepr::Count,
                candidates: (0..m).collect(),
                diverging: vec![0; m],
                ..BurstCtx::default()
            };
            assert_eq!(decide(SharingPolicy::Dynamic, &ctx, 4).share.len(), shared);
        }
    }

    /// The situation of the paper's Eq. 10: predicates make the two
    /// members disagree on the burst's events, one snapshot per event —
    /// split.
    #[test]
    fn equation10_decision_to_split() {
        let f = burst(4.0, BurstRepr::Cells);
        assert!(benefit(2.0, 4.0, &f) < 0.0);
        assert!(benefit(2.0, 4.0, &f) < benefit(2.0, 0.0, &f));
    }

    /// A count burst costs a solo member one step whatever `b` is, so
    /// the priced plans cross at 26 members for every `b`.
    #[test]
    fn count_burst_prices_cross_at_26_members_whatever_b() {
        for b in [1.0, 64.0, 1e6] {
            let f = burst(b, BurstRepr::Count);
            assert!(benefit(25.0, 0.0, &f) <= 0.0);
            assert!(benefit(26.0, 0.0, &f) > 0.0);
        }
    }

    /// Cells without divergence: a solo member re-reads every cell, the
    /// shared graphlet absorbs each once, so a long enough burst shares.
    #[test]
    fn uniform_cells_share_once_the_burst_is_long() {
        assert!(benefit(4.0, 0.0, &burst(1.0, BurstRepr::Cells)) < 0.0);
        assert!(benefit(4.0, 0.0, &burst(16.0, BurstRepr::Cells)) > 0.0);
    }

    /// §4.1: the more queries share a divergence-free burst, the higher
    /// the benefit — here, once a member's solo pass costs more than its
    /// share of the graphlet.
    #[test]
    fn more_queries_increase_benefit() {
        let f = burst(16.0, BurstRepr::Cells);
        assert!(benefit(10.0, 0.0, &f) > benefit(2.0, 0.0, &f));
    }

    /// An event-level snapshot costs more than the solo work it saves, so
    /// a burst where most events diverge runs solo at any width.
    #[test]
    fn more_snapshots_decrease_benefit() {
        for k in [2.0, 8.0, 64.0] {
            let f = burst(16.0, BurstRepr::Cells);
            assert!(benefit(k, 16.0, &f) < 0.0, "k = {k}");
            assert!(benefit(k, 16.0, &f) < benefit(k, 1.0, &f));
        }
    }

    /// One more sharing member adds its open, close and fold shares and
    /// saves its solo pass.
    #[test]
    fn a_member_moves_the_benefit_by_its_own_terms() {
        let f = burst(8.0, BurstRepr::Events);
        let step = benefit(6.0, 2.0, &f) - benefit(5.0, 2.0, &f);
        let own = solo_member_cost(&f) - OPEN_MEMBER_NS - CLOSE_MEMBER_NS - 2.0 * FOLD_MEMBER_NS;
        assert!((step - own).abs() < 1e-9, "{step} vs {own}");
    }
}
