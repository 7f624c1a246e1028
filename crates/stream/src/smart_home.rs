//! Smart-home-like stream (DEBS 2014 grand challenge, §6.1): load and work
//! measurements for plugs in houses. Default rate 20K events/minute (the
//! fastest of the paper's data sets).
//! Its description row: hot Kleene type `Load` at weight 20, workload
//! grouped by `house`.

use crate::common::{GenConfig, Spec};
use hamlet_query::Query;
use hamlet_types::{AttrValue, Event, TypeRegistry};
use rand::Rng;
use std::sync::Arc;

/// Measurement event types; `Load` is the Kleene type (long measurement
/// runs per plug).
pub const TYPES: [&str; 6] = ["Start", "Load", "Work", "Spike", "Idle", "Stop"];

/// Attribute schema: house and plug identifiers plus the voltage value.
pub const ATTRS: [&str; 3] = ["house", "plug", "value"];

const SPEC: Spec = Spec {
    types: &TYPES,
    attrs: &ATTRS,
    hot: "Load",
    hot_weight: 20.0,
    group_by: "house",
};

/// Default events per minute for this data set (§6.1).
pub const DEFAULT_RATE: u64 = 20_000;

/// Registers the smart-home schema.
pub fn registry() -> Arc<TypeRegistry> {
    SPEC.registry()
}

/// Generates a bursty measurement stream (40 houses in the real data set;
/// `cfg.num_groups` controls it here).
pub fn generate(reg: &TypeRegistry, cfg: &GenConfig) -> Vec<Event> {
    SPEC.generate(reg, cfg, |rng, t, ty, g| {
        Event::new(
            t,
            ty,
            vec![
                AttrValue::Int(g as i64),
                AttrValue::Int(rng.gen_range(0..53)),
                AttrValue::Float(rng.gen_range(0.0..250.0)),
            ],
        )
    })
}

/// Workload of `k` per-house measurement-trend queries sharing `Load+`.
pub fn workload(reg: &TypeRegistry, k: usize, window_secs: u64) -> Vec<Query> {
    SPEC.workload(reg, k, window_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::mean_run_length;

    #[test]
    fn stream_is_load_dominated() {
        let reg = registry();
        let cfg = GenConfig {
            events_per_min: DEFAULT_RATE,
            minutes: 1,
            mean_burst: 60.0,
            num_groups: 40,
            group_skew: 0.0,
            seed: 5,
            max_lateness: 0,
        };
        let evs = generate(&reg, &cfg);
        assert_eq!(evs.len(), 20_000);
        let load = reg.type_id("Load").unwrap();
        let frac = evs.iter().filter(|e| e.ty == load).count() as f64 / evs.len() as f64;
        assert!(frac > 0.5, "load fraction {frac}");
        assert!(mean_run_length(&evs) > 20.0);
    }

    #[test]
    fn workload_groups_by_house() {
        let reg = registry();
        let qs = workload(&reg, 5, 300);
        assert!(qs.iter().all(|q| &*q.group_by[0] == "house"));
    }
}
