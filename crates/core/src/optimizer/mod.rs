//! The dynamic sharing optimizer (§4).
//!
//! Per burst of events of a sharable type, the optimizer (i) estimates the
//! benefit of shared vs. non-shared execution from locally available stream
//! statistics (§4.1, Def. 12 / Eq. 8), (ii) chooses the subset of queries
//! worth sharing with (§4.3, Theorems 4.1–4.2), and (iii) instructs the
//! executor to split or merge graphlets accordingly (§4.2).

pub mod benefit;
#[cfg(test)]
mod exhaustive;
pub mod queryset;
pub mod stats;

pub use benefit::{benefit, nonshared_cost, shared_cost, CostFactors};
pub use queryset::{choose_query_set, Decision};
pub use stats::DivergenceEstimator;

use crate::run::BurstCtx;

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
    match policy {
        SharingPolicy::AlwaysShare if ctx.candidates.len() >= 2 => Decision {
            share: ctx.candidates.iter().copied().collect(),
            estimated_benefit: 0.0,
        },
        SharingPolicy::NeverShare | SharingPolicy::AlwaysShare => Decision::none(),
        SharingPolicy::Dynamic => choose_query_set(ctx, burst_len),
    }
}
