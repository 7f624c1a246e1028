//! Larger-scale end-to-end checks on generated workloads: the engines stay
//! in agreement at realistic stream sizes, windows roll correctly over
//! multi-minute streams, and the dynamic optimizer actually exercises both
//! shared and solo execution on divergent workloads.

use hamlet_baselines::GretaEngine;
use hamlet_core::{AggValue, EngineConfig, HamletEngine, SharingPolicy, WindowResult};
use hamlet_stream::{ridesharing, smart_home, stock, GenConfig};

fn norm(mut rs: Vec<WindowResult>) -> Vec<String> {
    rs.retain(|r| !matches!(r.value, AggValue::Count(0) | AggValue::Null));
    let mut v: Vec<String> = rs
        .iter()
        .map(|r| {
            format!(
                "{:?}|{}|{}|{:?}",
                r.query, r.group_key, r.window_start, r.value
            )
        })
        .collect();
    v.sort();
    v
}

fn drive_hamlet(
    reg: &std::sync::Arc<hamlet_types::TypeRegistry>,
    queries: Vec<hamlet_query::Query>,
    events: &[hamlet_types::Event],
    policy: SharingPolicy,
) -> (Vec<WindowResult>, hamlet_core::EngineStats) {
    let mut eng = HamletEngine::new(
        reg.clone(),
        queries,
        EngineConfig {
            policy,
            ..EngineConfig::default()
        },
    )
    .expect("engine builds");
    let mut out = Vec::new();
    for e in events {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    (out, *eng.stats())
}

// Slow tier: 10K events through four engines is the most expensive
// agreement check; run with `cargo test -- --ignored` (fast in --release).
#[test]
#[ignore = "slow tier: 10K-event four-engine agreement; run with `cargo test -- --ignored`"]
fn ridesharing_10k_events_all_policies_and_greta_agree() {
    let reg = ridesharing::registry();
    let cfg = GenConfig {
        events_per_min: 5_000,
        minutes: 2,
        mean_burst: 40.0,
        num_groups: 4,
        group_skew: 0.0,
        seed: 71,
        max_lateness: 0,
    };
    let events = ridesharing::generate(&reg, &cfg);
    assert_eq!(events.len(), 10_000);
    let queries = ridesharing::workload_shared_kleene(&reg, 12, 30);

    let (dynamic, stats) = drive_hamlet(&reg, queries.clone(), &events, SharingPolicy::Dynamic);
    assert!(stats.runs.shared_bursts > 0, "sharing exercised: {stats:?}");
    assert!(stats.windows_emitted > 0);

    let (always, _) = drive_hamlet(&reg, queries.clone(), &events, SharingPolicy::AlwaysShare);
    let (never, _) = drive_hamlet(&reg, queries.clone(), &events, SharingPolicy::NeverShare);
    let mut greta = GretaEngine::new(reg.clone(), queries).unwrap();
    let mut gout = Vec::new();
    for e in &events {
        gout.extend(greta.process(e));
    }
    gout.extend(greta.flush());

    let base = norm(dynamic);
    assert!(!base.is_empty());
    assert_eq!(base, norm(always), "dynamic vs always-share");
    assert_eq!(base, norm(never), "dynamic vs never-share");
    assert_eq!(base, norm(gout), "dynamic vs GRETA");
}

#[test]
fn stock_diverse_workload_pins_every_policys_decisions() {
    let reg = stock::registry();
    let cfg = GenConfig {
        events_per_min: 2_000,
        minutes: 3,
        mean_burst: 120.0,
        num_groups: 16,
        group_skew: 0.0,
        seed: 5,
        max_lateness: 0,
    };
    let events = stock::generate(&reg, &cfg);
    let queries = stock::workload_diverse(&reg, 40, 2024);

    let (dynamic, se) = drive_hamlet(&reg, queries.clone(), &events, SharingPolicy::Dynamic);
    let (never, _) = drive_hamlet(&reg, queries.clone(), &events, SharingPolicy::NeverShare);
    assert_eq!(norm(dynamic), norm(never), "dynamic vs never results");
    // Real decisions, mixing shared and solo bursts.
    assert!(
        se.runs.shared_bursts > 0 && se.runs.solo_bursts > 0,
        "{se:?}"
    );

    // No result comparison sees what the optimizer decides — every
    // policy produces the same results — so the decision sequence itself
    // is pinned under all three policies. A change to how a decision is
    // assembled or priced that moves any of these is a behaviour change.
    //
    // A 41st query of the same generator, under a fresh id.
    let mut extra = stock::workload_diverse(&reg, 42, 2024).pop().unwrap();
    extra.id = hamlet_query::QueryId(1000);
    // The eight groups' build-time benefits, the same under every policy
    // (a placement prices the group, the policy only decides on it).
    const BUILT: [u64; 8] = [
        4647415748283596800,
        4639270566145032192,
        0,
        4647415748283596800,
        4628293042053316608,
        4645357462516400128,
        4628293042053316608,
        0,
    ];
    let with = |shared: [bool; 8], bits: [u64; 8]| -> Vec<(bool, u64)> {
        shared.into_iter().zip(bits).collect()
    };
    let (t, f) = (true, false);
    let cases = [
        (
            SharingPolicy::Dynamic,
            (
                771,
                [248, 1, 1138, 3, 1, 275, 496, 47463],
                with([t, t, f, t, t, t, t, f], BUILT),
            ),
        ),
        (
            SharingPolicy::AlwaysShare,
            (
                771,
                [302, 3828, 1032, 0, 0, 302, 469, 47463],
                with([t, t, f, t, t, t, t, f], BUILT),
            ),
        ),
        (
            SharingPolicy::NeverShare,
            (771, [0, 0, 1447, 0, 0, 0, 771, 47463], with([f; 8], BUILT)),
        ),
    ];
    for (policy, want) in cases {
        let got = decision_trace(&reg, queries.clone(), extra.clone(), &events, policy);
        assert_eq!(got, want, "{policy:?}");
    }
}

/// What the optimizer decided on one run: `EngineStats::decisions`, the
/// eight `RunStats` counters and every group's placement as
/// `(shared, benefit bits)` from `group_metrics()`.
type DecisionTrace = (u64, [u64; 8], Vec<(bool, u64)>);

/// A group's placement: `(signature, shared, benefit bits)`.
type Placement = (Vec<(u32, u8)>, bool, u64);

/// Every group's placement, in signature order.
fn placements(eng: &HamletEngine) -> Vec<Placement> {
    let mut v: Vec<_> = (eng.group_metrics().iter())
        .map(|m| (m.sig.clone(), m.shared, m.benefit.to_bits()))
        .collect();
    v.sort();
    v
}

/// [`DecisionTrace`] of one run; then `extra` joins the drained engine,
/// and every group's re-priced placement (reported and in
/// `group_metrics()`) must be what an engine built over the post-churn
/// query set prices for the group of the same signature — carried
/// groups included: a placement is a function of the compiled group and
/// the policy alone, not of the stream a group has seen.
fn decision_trace(
    reg: &std::sync::Arc<hamlet_types::TypeRegistry>,
    queries: Vec<hamlet_query::Query>,
    extra: hamlet_query::Query,
    events: &[hamlet_types::Event],
    policy: SharingPolicy,
) -> DecisionTrace {
    let cfg = EngineConfig {
        policy,
        ..EngineConfig::default()
    };
    let mut eng =
        HamletEngine::new(reg.clone(), queries.clone(), cfg.clone()).expect("engine builds");
    for e in events {
        eng.process(e);
    }
    eng.flush();
    let s = *eng.stats();
    let r = &s.runs;
    let counters = [
        r.graphlet_snapshots,
        r.event_snapshots,
        r.graphlets,
        r.merges,
        r.splits,
        r.shared_bursts,
        r.solo_bursts,
        r.events,
    ];
    let groups = (eng.group_metrics().iter())
        .map(|m| (m.shared, m.benefit.to_bits()))
        .collect();
    let report = eng
        .add_query(extra.clone())
        .expect("the extra query is new");
    assert!(
        report.groups_carried > 0,
        "{policy:?}: a group carried its state"
    );
    let reported: Vec<(bool, u64)> = (report.placements.iter())
        .map(|p| (p.shared, p.benefit.to_bits()))
        .collect();
    let registered: Vec<(bool, u64)> = (eng.group_metrics().iter())
        .map(|m| (m.shared, m.benefit.to_bits()))
        .collect();
    assert_eq!(reported, registered, "{policy:?}");
    let post: Vec<_> = queries.into_iter().chain([extra]).collect();
    let built = HamletEngine::new(reg.clone(), post, cfg).expect("engine builds");
    assert_eq!(placements(&eng), placements(&built), "{policy:?}");
    (s.decisions, counters, groups)
}

#[test]
fn smart_home_sliding_windows_roll_over_long_stream() {
    let reg = smart_home::registry();
    let cfg = GenConfig {
        events_per_min: 6_000,
        minutes: 3,
        mean_burst: 60.0,
        num_groups: 10,
        group_skew: 0.0,
        seed: 9,
        max_lateness: 0,
    };
    let events = smart_home::generate(&reg, &cfg);
    let queries = smart_home::workload(&reg, 8, 60);
    let (results, stats) = drive_hamlet(&reg, queries, &events, SharingPolicy::Dynamic);
    // 3 minutes of stream with 60 s tumbling windows → results from at
    // least 2 fully-closed window generations plus the flush.
    let mut starts: Vec<u64> = results.iter().map(|r| r.window_start.ticks()).collect();
    starts.sort_unstable();
    starts.dedup();
    assert!(starts.len() >= 3, "window generations: {starts:?}");
    assert!(stats.windows_emitted as usize >= starts.len());
    // Every window start is aligned to the pane/window grid.
    assert!(starts.iter().all(|s| s % 60 == 0));
}
