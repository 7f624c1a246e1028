//! The dynamic sharing optimizer (§4).
//!
//! Per burst of events of a sharable type, the optimizer (i) estimates the
//! benefit of shared vs. non-shared execution from locally available stream
//! statistics (§4.1, Def. 12; priced in ns of what the replay executes,
//! not by Eq. 8 — see `benefit.rs`), (ii) chooses the subset of queries
//! worth sharing with (§4.3, Theorems 4.1–4.2), and (iii) instructs the
//! executor to split or merge graphlets accordingly (§4.2).
//!
//! Every price the engine puts on sharing goes through one `Pricing`
//! (`queryset.rs`): the per-burst decision ([`decide`]) and a share
//! group's a-priori placement, at build and at churn (`placement`).
//! A burst's divergence counts are read off the burst itself
//! (`GroupRuntime::divergence`); a placement, which has no burst, prices
//! the zero-divergence prior.

pub mod benefit;
#[cfg(test)]
mod exhaustive;
pub mod queryset;
#[cfg(test)]
pub(crate) mod script;

pub use benefit::{benefit, nonshared_cost, shared_cost, solo_member_cost, CostFactors};
pub use queryset::Decision;

use crate::run::{BurstCtx, GroupRuntime};
use queryset::Pricing;

/// Executor-level sharing policy.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum SharingPolicy {
    /// Per-burst dynamic decisions (the HAMLET optimizer, §4).
    #[default]
    Dynamic,
    /// Static always-share plan (the "static optimizer" baseline of §6.2:
    /// sharing decided at compile time for the whole window).
    AlwaysShare,
    /// Never share — per-query GRETA-style execution (§3.2).
    NeverShare,
}

/// Decides the sharing set for one burst under the given policy.
pub fn decide(policy: SharingPolicy, ctx: &BurstCtx, burst_len: u64) -> Decision {
    #[cfg(test)]
    if let Some(share) = script::draw(ctx.candidates) {
        return Decision {
            share,
            estimated_benefit: 0.0,
        };
    }
    if ctx.candidates.len() < 2 || policy == SharingPolicy::NeverShare {
        return Decision::default();
    }
    Pricing::new(ctx, burst_len).decide(policy)
}

/// The burst a placement prices: nominal, since a group is placed before
/// any of its windows has seen one.
const NOMINAL_BURST: u64 = 16;

/// A share group's a-priori placement (§4.1), re-priced at every churn
/// barrier: per type of its template, a nominal burst on a fresh run with
/// no member diverging — the optimistic prior the per-burst decision
/// starts from. A function of the compiled group and `policy` alone, so
/// every shard of one engine, a restored engine and a churned one price
/// the same group alike. Returns the Def. 12 benefit of sharing each
/// type's whole candidate set, in ns per nominal burst, summed (negative
/// when sharing loses; 0 for a group with nothing to share), and whether
/// `policy` would share any type's burst.
pub(crate) fn placement(policy: SharingPolicy, rt: &GroupRuntime) -> (f64, bool) {
    let mut ctx = BurstCtx::default();
    let (mut benefit, mut shared) = (0.0, false);
    for tl in 0..rt.template.num_types() {
        rt.burst_shape_into(tl, &mut ctx);
        if ctx.candidates.len() >= 2 {
            let priced = Pricing::new(&ctx, NOMINAL_BURST);
            benefit += priced.whole_set_benefit();
            shared |= priced.decide(policy).share.len() >= 2;
        }
    }
    (benefit, shared)
}
