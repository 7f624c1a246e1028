//! Stock-transaction-like stream (§6.1): price/volume ticks for companies.
//! Default rate 4.5K events/minute. This data set drives the paper's
//! dynamic-vs-static sharing experiments (Figs. 12–13), so its workload
//! builder produces the *diverse* second workload: Kleene patterns of
//! length 1–3, varying windows, aggregates, group-bys and predicates.
//! Its description row: hot Kleene type `Tick` at weight 15, uniform
//! workload grouped by `company`.

use crate::common::{GenConfig, Spec};
use hamlet_query::{parse_query, Query};
use hamlet_types::{AttrValue, Event, TypeRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Exchange event types; `Tick` is the Kleene type.
pub const TYPES: [&str; 10] = [
    "Open", "Tick", "High", "Low", "Close", "Buy", "Sell", "Split", "Dividend", "Halt",
];

/// Attribute schema.
pub const ATTRS: [&str; 4] = ["company", "sector", "price", "volume"];

const SPEC: Spec = Spec {
    types: &TYPES,
    attrs: &ATTRS,
    hot: "Tick",
    hot_weight: 15.0,
    group_by: "company",
};

/// Default events per minute for this data set (§6.1).
pub const DEFAULT_RATE: u64 = 4_500;

/// Registers the stock schema.
pub fn registry() -> Arc<TypeRegistry> {
    SPEC.registry()
}

/// Generates a bursty tick stream. The paper's bursts average ~120 events
/// (§6.2); pass `mean_burst: 120.0` to match.
pub fn generate(reg: &TypeRegistry, cfg: &GenConfig) -> Vec<Event> {
    SPEC.generate(reg, cfg, |rng, t, ty, g| {
        Event::new(
            t,
            ty,
            vec![
                AttrValue::Int(g as i64),
                AttrValue::Int((g % 11) as i64),
                AttrValue::Float(rng.gen_range(1.0..500.0)),
                AttrValue::Int(rng.gen_range(1..10_000)),
            ],
        )
    })
}

/// The paper's first-workload analogue on stock data: `k` queries sharing
/// `Tick+` uniformly (same window, grouping, aggregate, no predicates).
pub fn workload_uniform(reg: &TypeRegistry, k: usize, window_secs: u64) -> Vec<Query> {
    SPEC.workload(reg, k, window_secs)
}

/// The paper's second, diverse workload (§6.1, Figs. 12–13): sharable
/// Kleene patterns of length 1–3, window sizes 5–20 minutes, aggregates
/// `COUNT`/`AVG`/`MAX`/`SUM`, varied group-bys, and *query-specific*
/// predicates on the shared Kleene type — the predicate divergence that
/// forces event-level snapshots and makes static always-share plans
/// backfire.
pub fn workload_diverse(reg: &TypeRegistry, k: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let firsts = SPEC.cold();
    (0..k)
        .map(|i| {
            let len = 1 + (i % 3);
            let first = firsts[rng.gen_range(0..firsts.len())];
            let last = firsts[rng.gen_range(0..firsts.len() - 1)];
            let last = if last == first { "Halt" } else { last };
            let pattern = match len {
                1 => "Tick+".to_string(),
                2 => format!("SEQ({first}, Tick+)"),
                _ => format!("SEQ({first}, Tick+, {last})"),
            };
            // Window 5–20 minutes in 5-minute steps (§6.1).
            let window = 300 * (1 + (i % 4) as u64);
            let agg = match i % 4 {
                0 => "COUNT(*)".to_string(),
                1 => "AVG(Tick.price)".to_string(),
                2 => "MAX(Tick.price)".to_string(),
                _ => "SUM(Tick.volume)".to_string(),
            };
            // Roughly half the queries carry a selection predicate on the
            // shared type with a query-specific threshold — the divergence
            // source for event-level snapshots (Def. 9).
            let pred = if i % 2 == 0 {
                let cut = 100.0 + 40.0 * ((i % 8) as f64);
                format!(" WHERE Tick.price < {cut}")
            } else {
                String::new()
            };
            let group = match i % 3 {
                0 => " GROUP BY company",
                1 => " GROUP BY sector",
                _ => " GROUP BY company",
            };
            parse_query(
                reg,
                i as u32,
                &format!("RETURN {agg} PATTERN {pattern}{pred}{group} WITHIN {window}"),
            )
            .expect("workload query parses")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_dominated_stream() {
        let reg = registry();
        let cfg = GenConfig {
            events_per_min: DEFAULT_RATE,
            minutes: 2,
            mean_burst: 120.0,
            num_groups: 220,
            group_skew: 0.0,
            seed: 17,
            max_lateness: 0,
        };
        let evs = generate(&reg, &cfg);
        assert_eq!(evs.len(), 9000);
        let tick = reg.type_id("Tick").unwrap();
        let frac = evs.iter().filter(|e| e.ty == tick).count() as f64 / evs.len() as f64;
        assert!(frac > 0.4, "tick fraction {frac}");
    }

    #[test]
    fn diverse_workload_varies_clauses() {
        let reg = registry();
        let qs = workload_diverse(&reg, 24, 9);
        assert_eq!(qs.len(), 24);
        let windows: std::collections::BTreeSet<u64> = qs.iter().map(|q| q.window.within).collect();
        assert!(windows.len() >= 3, "windows vary: {windows:?}");
        let with_pred = qs.iter().filter(|q| !q.selections.is_empty()).count();
        assert!(with_pred >= 8);
        let tick = reg.type_id("Tick").unwrap();
        assert!(qs.iter().all(|q| q.pattern.kleene_types().contains(&tick)));
        // Aggregates vary.
        let aggs: std::collections::BTreeSet<String> =
            qs.iter().map(|q| format!("{}", q.agg)).collect();
        assert!(aggs.len() >= 3);
    }

    #[test]
    fn uniform_workload_single_group() {
        let reg = registry();
        let qs = workload_uniform(&reg, 9, 600);
        assert!(qs.iter().all(|q| q.window.within == 600));
        assert!(qs.iter().all(|q| q.selections.is_empty()));
    }
}
