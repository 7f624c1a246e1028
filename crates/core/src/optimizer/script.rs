//! A scripted decision source for tests: while [`scripted`] runs its
//! closure, every [`decide`](super::decide) on the calling thread returns a
//! subset of the burst's candidates drawn from a seed instead of pricing
//! the burst. Results must not depend on which members share a burst
//! (§4.2: split and merge are free per burst), so a run under any script
//! must equal a `NeverShare` run byte for byte — which the tests below
//! check on the three burst representations, for tumbling and sliding
//! windows.

use crate::bitset::QSet;
use std::cell::Cell;

thread_local! {
    /// The xorshift state of the running script; `None` outside one.
    static SCRIPT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's decisions drawn from `seed`.
pub(crate) fn scripted<R>(seed: u64, f: impl FnOnce() -> R) -> R {
    let outer = SCRIPT.replace(Some(seed | 1));
    let out = f();
    SCRIPT.set(outer);
    out
}

/// The next scripted sharing set for a burst with `candidates`, if a
/// script runs: nobody, everybody, or a random subset, a third each.
pub(super) fn draw(candidates: QSet) -> Option<QSet> {
    let mut s = SCRIPT.get()?;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let share = match next() % 3 {
        0 => QSet::new(),
        1 => candidates,
        _ => candidates & QSet(next()),
    };
    SCRIPT.set(Some(s));
    Some(share)
}

#[cfg(test)]
mod tests {
    use super::scripted;
    use crate::{EngineConfig, HamletEngine, SharingPolicy};
    use hamlet_query::{parse_query, Query};
    use hamlet_types::{Event, EventBuilder, TypeRegistry};
    use std::sync::Arc;

    /// A registry of `heads` plus the Kleene type `B`, each with a group
    /// attribute `g` and a value `v`.
    fn registry(heads: usize) -> Arc<TypeRegistry> {
        let mut reg = TypeRegistry::new();
        for i in 0..heads {
            reg.register(&format!("H{i}"), &["g", "v"]);
        }
        reg.register("B", &["g", "v"]);
        Arc::new(reg)
    }

    /// 600 events: `B` bursts of 1–12 between head bursts of 1–3 events
    /// of a random head type, two keys, `v` in 0..10.
    fn stream(reg: &TypeRegistry, heads: usize, seed: u64) -> Vec<Event> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s >> 11
        };
        let (mut out, mut t) = (Vec::new(), 0u64);
        while out.len() < 600 {
            let head = format!("H{}", next() % heads as u64);
            for (name, len) in [(head.as_str(), 1 + next() % 3), ("B", 1 + next() % 12)] {
                let ty = reg.type_id(name).expect("registered");
                for _ in 0..len {
                    t += 1;
                    let e = EventBuilder::new(reg, ty, t)
                        .attr("g", (next() % 2) as i64)
                        .attr("v", (next() % 10) as f64)
                        .build();
                    out.push(e);
                }
            }
        }
        out
    }

    fn run(
        reg: &Arc<TypeRegistry>,
        queries: &[Query],
        events: &[Event],
        policy: SharingPolicy,
    ) -> (String, crate::run::RunStats) {
        let cfg = EngineConfig {
            policy,
            ..EngineConfig::default()
        };
        let mut eng = HamletEngine::new(reg.clone(), queries.to_vec(), cfg).expect("builds");
        assert_eq!(eng.num_groups(), 1, "one share group");
        let mut out = eng.process_batch(events);
        out.extend(eng.flush());
        (format!("{out:?}"), eng.stats().runs)
    }

    /// Every scripted decision sequence gives `NeverShare`'s results, and
    /// the scripts reach shared bursts, splits and merges.
    fn scripts_agree_with_never_share(heads: usize, text: impl Fn(usize, &str) -> String) {
        for window in ["WITHIN 40", "WITHIN 40 SLIDE 20"] {
            let reg = registry(heads);
            let queries: Vec<Query> = (0..heads)
                .map(|i| parse_query(&reg, i as u32, &text(i, window)).expect("parses"))
                .collect();
            let events = stream(&reg, heads, 0x9E37_79B9 + heads as u64);
            let (base, _) = run(&reg, &queries, &events, SharingPolicy::NeverShare);
            assert!(base.len() > 100, "the stream matches");
            let mut total = crate::run::RunStats::default();
            for seed in 0..6u64 {
                let (got, runs) = scripted(seed, || {
                    run(&reg, &queries, &events, SharingPolicy::Dynamic)
                });
                assert!(got == base, "{window}, seed {seed}: results differ");
                total.add(&runs);
            }
            assert!(
                total.shared_bursts > 0 && total.splits > 0 && total.merges > 0,
                "{window}: {total:?}"
            );
        }
    }

    /// 19 × `SEQ(H_i, B+)` COUNT(*): every burst is a count, advanced in
    /// closed form.
    #[test]
    fn scripted_closed_form_counts_agree() {
        scripts_agree_with_never_share(19, |i, w| {
            format!("RETURN COUNT(*) PATTERN SEQ(H{i}, B+) GROUP BY g {w}")
        });
    }

    /// Diverse selections and aggregates on `B`: cells, with event-level
    /// snapshots wherever the sharing members disagree on an event.
    #[test]
    fn scripted_diverse_cells_agree() {
        scripts_agree_with_never_share(8, |i, w| {
            let agg = ["SUM(B.v)", "AVG(B.v)", "COUNT(B)"][(i / 2) % 3];
            let pattern = match i % 3 {
                0 => "B+".to_string(),
                1 => format!("SEQ(H{i}, B+)"),
                _ => format!("SEQ(H{i}, B+, H{})", (i + 1) % 8),
            };
            let pred = match i % 2 {
                0 => format!(" WHERE B.v < {}", 3 + i % 6),
                _ => String::new(),
            };
            format!("RETURN {agg} PATTERN {pattern}{pred} GROUP BY g {w}")
        });
    }

    /// Edge predicates on some members: their type's bursts are the events.
    #[test]
    fn scripted_edge_predicates_agree() {
        scripts_agree_with_never_share(6, |i, w| {
            let pred = match i % 3 {
                0 => " WHERE B.v > PREV.v",
                1 => " WHERE B.v <= PREV.v",
                _ => "",
            };
            format!("RETURN COUNT(*) PATTERN SEQ(H{i}, B+){pred} GROUP BY g {w}")
        });
    }
}
