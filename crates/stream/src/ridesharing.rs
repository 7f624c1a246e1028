//! Ridesharing stream (the paper's own generator, §6.1): 20 event types —
//! request, pickup, travel, dropoff, cancel, etc. — with timestamps in
//! seconds, driver/rider ids, request type, district, duration and price.
//! Default rate 10K events/minute. Its description row: hot Kleene type
//! `Travel` at weight 12, workload grouped by `district`.

use crate::common::{GenConfig, Spec};
use hamlet_query::Query;
use hamlet_types::{AttrValue, Event, TypeRegistry};
use rand::Rng;
use std::sync::Arc;

/// The 20 ridesharing event types. `Travel` is the hot Kleene type the
/// workload shares (Fig. 1).
pub const TYPES: [&str; 20] = [
    "Request",
    "Accept",
    "Travel",
    "Pickup",
    "Dropoff",
    "Cancel",
    "PoolRequest",
    "Rate",
    "Tip",
    "Payment",
    "Idle",
    "Reposition",
    "Arrive",
    "Wait",
    "Begin",
    "End",
    "Surge",
    "Promo",
    "Support",
    "Maintenance",
];

/// Attribute schema shared by all ridesharing types.
pub const ATTRS: [&str; 6] = ["district", "driver", "rider", "speed", "duration", "price"];

const SPEC: Spec = Spec {
    types: &TYPES,
    attrs: &ATTRS,
    hot: "Travel",
    hot_weight: 12.0,
    group_by: "district",
};

/// Registers the ridesharing schema.
pub fn registry() -> Arc<TypeRegistry> {
    SPEC.registry()
}

/// Generates a bursty ridesharing stream. `Travel` events dominate the mix
/// (trips consist of long `Travel+` runs punctuated by bookkeeping events).
pub fn generate(reg: &TypeRegistry, cfg: &GenConfig) -> Vec<Event> {
    SPEC.generate(reg, cfg, |rng, t, ty, g| {
        Event::new(
            t,
            ty,
            vec![
                AttrValue::Int(g as i64),
                AttrValue::Int(rng.gen_range(0..500)),
                AttrValue::Int(rng.gen_range(0..2000)),
                AttrValue::Float(rng.gen_range(0.0..60.0)),
                AttrValue::Float(rng.gen_range(1.0..90.0)),
                AttrValue::Float(rng.gen_range(3.0..80.0)),
            ],
        )
    })
}

/// The paper's first workload (§6.1): `k` queries with *different patterns*
/// but the same sharable Kleene sub-pattern `Travel+`, window, grouping,
/// predicates and aggregate — queries like `SEQ(Request, Travel+)`,
/// `SEQ(Accept, Travel+)`, … (Fig. 1 / Examples 2–9).
pub fn workload_shared_kleene(reg: &TypeRegistry, k: usize, window_secs: u64) -> Vec<Query> {
    SPEC.workload(reg, k, window_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::mean_run_length;

    #[test]
    fn schema_registers_20_types() {
        let reg = registry();
        assert_eq!(reg.len(), 20);
        assert!(reg.type_id("Travel").is_some());
    }

    #[test]
    fn stream_is_bursty_and_travel_heavy() {
        let reg = registry();
        let cfg = GenConfig {
            events_per_min: 10_000,
            minutes: 1,
            mean_burst: 40.0,
            num_groups: 4,
            group_skew: 0.0,
            seed: 3,
            max_lateness: 0,
        };
        let evs = generate(&reg, &cfg);
        assert_eq!(evs.len(), 10_000);
        let travel = reg.type_id("Travel").unwrap();
        let frac = evs.iter().filter(|e| e.ty == travel).count() as f64 / evs.len() as f64;
        assert!(frac > 0.25, "travel fraction {frac}");
        assert!(mean_run_length(&evs) > 10.0);
    }

    #[test]
    fn workload_shares_travel_kleene() {
        let reg = registry();
        let qs = workload_shared_kleene(&reg, 25, 300);
        assert_eq!(qs.len(), 25);
        let travel = reg.type_id("Travel").unwrap();
        assert!(qs
            .iter()
            .all(|q| q.pattern.kleene_types().contains(&travel)));
        // Patterns differ across (at least the first 19) queries.
        assert_ne!(qs[0].pattern, qs[1].pattern);
    }
}
