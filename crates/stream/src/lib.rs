//! # hamlet-stream
//!
//! Bursty event stream generators and query-workload builders mirroring the
//! four data sets of the HAMLET evaluation (§6.1):
//!
//! | module | types | default rate (events/min) | hot Kleene type (weight) | workload groups by |
//! |---|---|---|---|---|
//! | [`ridesharing`] — the paper's own synthetic stream | 20 | 10K | `Travel` (12) | `district` |
//! | [`nyc_taxi`] — NYC-taxi-like trips | 8 | 200 | `Travel` (8) | `district` |
//! | [`smart_home`] — DEBS-2014-like plug measurements | 6 | 20K | `Load` (20) | `house` |
//! | [`stock`] — stock-transaction-like ticks | 10 | 4.5K | `Tick` (15) | `company` |
//!
//! Each row is one module's description: every type carries every
//! attribute of the module's `ATTRS`; each other type weighs 1 in the mix
//! and arrives in runs of at most 2 events, while the hot type arrives in
//! bursts of `GenConfig::mean_burst`; the shared-Kleene workload is `k`
//! queries `SEQ(X, Hot+)` over the other types `X`. Only the per-event
//! attribute draws are written out per module.
//!
//! The real data sets are not redistributable; these generators reproduce
//! their published stream statistics — schemas, default rates, type mixes —
//! and add explicit *burstiness* control (mean same-type run length), which
//! is the stream property HAMLET's dynamic optimizer reacts to
//! (a documented substitution: ARCHITECTURE.md, "Deviations from the
//! paper").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod nyc_taxi;
pub mod ridesharing;
pub mod smart_home;
pub mod stock;
pub mod zipf;

pub use common::{bounded_delay_shuffle, max_observed_lateness, GenConfig};
use hamlet_query::Query;
use hamlet_types::{Event, TypeRegistry};
use std::sync::Arc;

/// One of the four data sets, for a caller that picks it at run time —
/// the CLI's `--dataset`, a row of the figure table — and would
/// otherwise repeat the same three calls once per module.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// [`ridesharing`], with its shared-Kleene workload.
    Ridesharing,
    /// [`nyc_taxi`].
    NycTaxi,
    /// [`smart_home`].
    SmartHome,
    /// [`stock`], with its diverse workload.
    Stock,
}

impl Dataset {
    /// The data set the CLI calls `name`.
    pub fn from_name(name: &str) -> Option<Dataset> {
        Some(match name {
            "ridesharing" => Dataset::Ridesharing,
            "nyc" => Dataset::NycTaxi,
            "smarthome" => Dataset::SmartHome,
            "stock" => Dataset::Stock,
            _ => return None,
        })
    }

    /// The data set's type registry.
    pub fn registry(self) -> Arc<TypeRegistry> {
        match self {
            Dataset::Ridesharing => ridesharing::registry(),
            Dataset::NycTaxi => nyc_taxi::registry(),
            Dataset::SmartHome => smart_home::registry(),
            Dataset::Stock => stock::registry(),
        }
    }

    /// The data set's stream under `cfg`.
    pub fn generate(self, reg: &TypeRegistry, cfg: &GenConfig) -> Vec<Event> {
        match self {
            Dataset::Ridesharing => ridesharing::generate(reg, cfg),
            Dataset::NycTaxi => nyc_taxi::generate(reg, cfg),
            Dataset::SmartHome => smart_home::generate(reg, cfg),
            Dataset::Stock => stock::generate(reg, cfg),
        }
    }

    /// The data set's evaluation workload of `k` queries over windows of
    /// `window_secs` — except [`stock`]'s diverse workload, which draws
    /// its windows (and everything else) from `seed`.
    pub fn workload(self, reg: &TypeRegistry, k: usize, window_secs: u64, seed: u64) -> Vec<Query> {
        match self {
            Dataset::Ridesharing => ridesharing::workload_shared_kleene(reg, k, window_secs),
            Dataset::NycTaxi => nyc_taxi::workload(reg, k, window_secs),
            Dataset::SmartHome => smart_home::workload(reg, k, window_secs),
            Dataset::Stock => stock::workload_diverse(reg, k, seed),
        }
    }
}
