//! Live pipeline demo: feed a bursty, *out-of-order* ridesharing stream
//! through the online runtime — paced source, bounded-lateness reorder
//! stage, sharded workers, live metrics — then drain gracefully and
//! check the result against an offline reference run.
//!
//! ```sh
//! cargo run --release --example live_pipeline
//! ```

use hamlet::prelude::*;
use hamlet_stream::ridesharing;
use std::time::Duration;

fn main() {
    let reg = ridesharing::registry();
    let queries = ridesharing::workload_shared_kleene(&reg, 8, 30);

    // A 20K-event bursty stream whose delivery order trails event time
    // by up to 5 ticks (a delayed-batch network model).
    let cfg = GenConfig {
        events_per_min: 20_000,
        minutes: 1,
        mean_burst: 40.0,
        num_groups: 32,
        group_skew: 0.3,
        seed: 42,
        max_lateness: 5,
    };
    let events = ridesharing::generate(&reg, &cfg);
    println!(
        "streaming {} events (max observed lateness: {} ticks) through 2 shard workers…",
        events.len(),
        hamlet_stream::max_observed_lateness(&events)
    );

    // Offline reference: the same events, sorted back in time order, fed
    // straight through one engine.
    let mut in_order = events.clone();
    in_order.sort_by_key(|e| e.time);
    let mut reference = {
        let mut eng = HamletEngine::new(
            reg.clone(),
            queries.clone(),
            hamlet_core::EngineConfig::default(),
        )
        .expect("workload compiles");
        let mut out = Vec::new();
        for e in &in_order {
            out.extend(eng.process(e));
        }
        out.extend(eng.flush());
        out
    };

    // Online: watermark slack = the stream's lateness bound, so the
    // reorder stage restores event-time order exactly and nothing is
    // dropped as late.
    let handle = Pipeline::builder(reg, queries)
        .workers(2)
        .watermark(BoundedLateness::new(5))
        .spawn(
            RateLimitedSource::new(ReplaySource::new(events), 100_000.0),
            VecSink::new(),
        )
        .expect("workload compiles");

    // Watch it run.
    loop {
        let m = handle.metrics();
        println!(
            "  [{:>5.2}s] ingested {:>6} ({:>7.0} ev/s) results {:>5} late {} \
             queued {:>4} | p50 {:?} p99 {:?}",
            m.elapsed.as_secs_f64(),
            m.ingested,
            m.ingest_eps(),
            m.results,
            m.late,
            m.queued(),
            m.latency.p50(),
            m.latency.p99(),
        );
        if m.source_done && m.queued() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let report = handle.drain();
    println!(
        "\ndrained: {} events in {:?} ({:.0} ev/s), {} results, {} late drops",
        report.events,
        report.wall,
        report.throughput_eps(),
        report.results,
        report.late,
    );
    println!(
        "end-to-end latency p50 {:?} p99 {:?} max {:?}",
        report.latency.p50(),
        report.latency.p99(),
        report.latency.max(),
    );

    // The drained online output matches the offline run exactly (after
    // the canonical sort — two workers interleave emission order).
    let mut online = report.sink.results;
    sort_results(&mut online);
    sort_results(&mut reference);
    assert_eq!(online, reference, "online/offline divergence");
    println!(
        "✓ online output is identical to the offline reference ({} window results)",
        online.len()
    );
}
