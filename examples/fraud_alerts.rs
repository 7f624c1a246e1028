//! General trend aggregation queries (§5) in one workload: negation
//! (`NOT`), disjunction (`OR`) and nested Kleene — a fraud/anomaly
//! monitoring scenario over a payments-like stream, including a
//! partition-parallel run.
//!
//! Run with: `cargo run --release --example fraud_alerts`

use hamlet::prelude::*;
use hamlet_core::{ParallelEngine, ParallelReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    // Schema: login/transfer/review/alert events per account.
    let mut reg = TypeRegistry::new();
    let login = reg.register("Login", &["account", "amount"]);
    let transfer = reg.register("Transfer", &["account", "amount"]);
    let review = reg.register("Review", &["account", "amount"]);
    let flag = reg.register("Flag", &["account", "amount"]);
    let wire = reg.register("Wire", &["account", "amount"]);
    let reg = Arc::new(reg);

    let queries = vec![
        // Unreviewed transfer runs: a login followed by transfers with NO
        // compliance review in between (gap negation, §5).
        parse_query(
            &reg,
            1,
            "RETURN COUNT(*) PATTERN SEQ(Login, NOT Review, Transfer+) \
             GROUP BY account WITHIN 120",
        )
        .expect("example setup is valid"),
        // Escalating transfers: each strictly larger than the previous
        // (edge predicate) — the classic smurfing shape.
        parse_query(
            &reg,
            2,
            "RETURN COUNT(*) PATTERN SEQ(Login, Transfer+) \
             WHERE Transfer.amount > PREV.amount GROUP BY account WITHIN 120",
        )
        .expect("example setup is valid"),
        // Either suspicious shape counts (disjunction over disjoint
        // branches, §5).
        parse_query(
            &reg,
            3,
            "RETURN COUNT(*) PATTERN SEQ(Flag, Transfer+) OR SEQ(Review, Wire+) \
             GROUP BY account WITHIN 120",
        )
        .expect("example setup is valid"),
        // Repeated sessions: nested Kleene (Example 10).
        parse_query(
            &reg,
            4,
            "RETURN COUNT(*) PATTERN (SEQ(Login, Transfer+))+ \
             GROUP BY account WITHIN 120",
        )
        .expect("example setup is valid"),
    ];

    // A synthetic payments stream: 96 accounts, bursty transfer runs.
    let mut rng = StdRng::seed_from_u64(42);
    let mut events = Vec::new();
    for t in 0..8_000u64 {
        let ty = match t % 17 {
            0 => login,
            5 => review,
            9 => flag,
            13 => wire,
            _ => transfer,
        };
        let account = rng.gen_range(0..96i64);
        let amount = rng.gen_range(10.0..5_000.0f64);
        events.push(
            EventBuilder::new(&reg, ty, t / 4)
                .attr("account", account)
                .attr("amount", amount)
                .build(),
        );
    }

    // Sequential run.
    let mut engine = HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default())
        .expect("example setup is valid");
    println!("{}", engine.explain());
    let mut results = Vec::new();
    let t0 = std::time::Instant::now();
    for e in &events {
        results.extend(engine.process(e));
    }
    results.extend(engine.flush());
    let sequential = t0.elapsed();

    let alerts: usize = results
        .iter()
        .filter(|r| r.value.as_count() > 0 && r.query == QueryId(1))
        .count();
    println!(
        "{} events → {} window results; {} account-windows with unreviewed \
         transfer runs (q1)",
        events.len(),
        results.len(),
        alerts
    );
    for r in results.iter().filter(|r| r.value.as_count() > 0).take(6) {
        println!(
            "  {} account={} window@{}: {:?}",
            r.query, r.group_key, r.window_start, r.value
        );
    }

    // Partition-parallel run over the same stream must agree bit-for-bit:
    // ParallelReport.results is sorted by (window, query, key), so sorting
    // the sequential run the same way makes the two directly comparable.
    let par: ParallelReport = ParallelEngine::new(reg.clone(), queries, EngineConfig::default(), 4)
        .expect("example setup is valid")
        .run(&events);
    sort_results(&mut results);
    assert_eq!(results, par.results);

    let merged = par.merged_stats();
    println!(
        "\nparallel (4 shards) verified identical: {} results, {} snapshots, \
         workers routed {:?} events, total peak state {} KB",
        par.results.len(),
        merged.runs.snapshots(),
        par.stats
            .iter()
            .map(|s| s.events_routed)
            .collect::<Vec<_>>(),
        par.total_peak_mem() / 1024,
    );
    println!(
        "single-thread took {sequential:?}; 4 workers took {:?} -> {:.2}x speedup \
         (each shard owns ~1/4 of the accounts and sees only its events; \
         grows with cores and account cardinality — see `figures fig_scaling`)",
        par.wall,
        sequential.as_secs_f64() / par.wall.as_secs_f64().max(1e-9),
    );
}
