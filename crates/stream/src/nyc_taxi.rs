//! NYC-taxi-like stream (§6.1): trip events with driver and rider
//! identifiers, pick-up/drop-off districts, passenger counts and price.
//! Default rate 200 events/minute (the slowest of the paper's data sets).
//! Its description row: hot Kleene type `Travel` at weight 8, workload
//! grouped by `district`.

use crate::common::{GenConfig, Spec};
use hamlet_query::Query;
use hamlet_types::{AttrValue, Event, TypeRegistry};
use rand::Rng;
use std::sync::Arc;

/// Trip lifecycle event types; `Travel` is the Kleene type.
pub const TYPES: [&str; 8] = [
    "Request", "Assign", "Travel", "Pickup", "Dropoff", "Cancel", "Payment", "Rate",
];

/// Attribute schema.
pub const ATTRS: [&str; 6] = [
    "district",
    "driver",
    "rider",
    "passengers",
    "speed",
    "price",
];

const SPEC: Spec = Spec {
    types: &TYPES,
    attrs: &ATTRS,
    hot: "Travel",
    hot_weight: 8.0,
    group_by: "district",
};

/// Default events per minute for this data set (§6.1).
pub const DEFAULT_RATE: u64 = 200;

/// Registers the taxi schema.
pub fn registry() -> Arc<TypeRegistry> {
    SPEC.registry()
}

/// Generates a bursty taxi stream.
pub fn generate(reg: &TypeRegistry, cfg: &GenConfig) -> Vec<Event> {
    SPEC.generate(reg, cfg, |rng, t, ty, g| {
        Event::new(
            t,
            ty,
            vec![
                AttrValue::Int(g as i64),
                AttrValue::Int(rng.gen_range(0..200)),
                AttrValue::Int(rng.gen_range(0..1000)),
                AttrValue::Int(rng.gen_range(1..5)),
                AttrValue::Float(rng.gen_range(0.0..45.0)),
                AttrValue::Float(rng.gen_range(2.5..120.0)),
            ],
        )
    })
}

/// Workload of `k` trip-statistics queries sharing `Travel+` (per-district
/// trip counts, Example 1).
pub fn workload(reg: &TypeRegistry, k: usize, window_secs: u64) -> Vec<Query> {
    SPEC.workload(reg, k, window_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rate_stream() {
        let reg = registry();
        let cfg = GenConfig {
            events_per_min: DEFAULT_RATE,
            minutes: 5,
            mean_burst: 10.0,
            num_groups: 8,
            group_skew: 0.0,
            seed: 11,
            max_lateness: 0,
        };
        let evs = generate(&reg, &cfg);
        assert_eq!(evs.len(), 1000);
        assert!(evs.iter().all(|e| e.attrs.len() == ATTRS.len()));
    }

    #[test]
    fn workload_parses_and_shares() {
        let reg = registry();
        let qs = workload(&reg, 10, 600);
        let travel = reg.type_id("Travel").unwrap();
        assert!(qs
            .iter()
            .all(|q| q.pattern.kleene_types().contains(&travel)));
        assert!(qs.iter().all(|q| q.window.within == 600));
    }
}
