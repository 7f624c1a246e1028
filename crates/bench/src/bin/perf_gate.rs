//! CI perf gate: runs the checks of [`CHECKS`], in order, over a fresh
//! `BENCH.json` and a committed baseline, and fails on any regression.
//!
//! ```text
//! cargo run -p hamlet-bench --release --bin perf_gate -- BENCH.json bench-baseline.json
//! ```
//!
//! The table is the documentation. Every check has one threshold flag
//! (`--<name> <number>`), and `--system <name>` picks the system checks 1
//! and 3 gate on (default `HAMLET`). A check compares either **against
//! the baseline**, per (figure, x, system) point — a throughput may drop
//! by at most the flag's fraction, a time may grow to `baseline × (1 +
//! flag) + floor` (tails and pauses are short and noisy on shared hosts)
//! — or two measurements of the **same run**, whose ratio cancels host
//! speed out: one pinned pair of points, or the geometric mean over every
//! x two systems share (one overall claim, robust to a single noisy
//! point). A threshold of 0 disables its check, except `--max-regression`,
//! where 0 allows no drop.
//!
//! A point the baseline has but the current report lacks is a `MISS`
//! failure; so is a sweep a same-run check cannot find, and a zero time
//! against a nonzero baseline (nothing was measured). A figure measured
//! now but absent from the baseline gets one `SKIP` line, not a silent
//! half-gate. Regenerate the baseline from five `figures --quick
//! --bench-json bench-baseline.json` runs, keeping per point the min
//! throughput and the max p99 / pause / recovery time.
//!
//! Exit code 0 = pass, 1 = regression/scaling failure, 2 = usage or
//! unreadable/invalid input.

use hamlet_bench::json::{self, Json};

/// The measurement field most checks read; any other reads 0 where
/// absent (offline harnesses, old baselines).
const TP: &str = "throughput_eps";
/// A system name standing for the `--system` under test.
const GATED: &str = "";

/// One side of a same-run ratio: `(system, field, pinned x)`. No x pairs
/// the two sides at every x they share and gates the geometric mean.
type Side = (&'static str, &'static str, Option<&'static str>);

/// Against the baseline. `what` is `(field, figure, noun, floor seconds)`;
/// a throughput is compared on every figure and has no noun or floor.
struct VsBaseline {
    flag: (&'static str, f64),
    systems: &'static [&'static str],
    what: (&'static str, &'static str, &'static str, f64),
}

struct SameRun {
    /// Name, default, `>=`/`<=` the flag (`1->=`: `>= 1 − flag`, a budget)
    /// with the unit the limit prints with, digits ratios print with.
    flag: (&'static str, f64, &'static str, usize),
    figures: &'static [&'static str],
    /// Numerator and denominator.
    of: [Side; 2],
    /// Verdict line: `<claim.0> = <ratio>x of <claim.1> (.. needs ..)`;
    /// `{num}`/`{den}` stand for a pinned pair's values.
    claim: (&'static str, &'static str),
    /// Geomean only: `<figure>/<x><swept.0>: <swept.1> .. of <swept.2> ..`
    /// per point, `geomean of <n> <swept.3>`.
    swept: [&'static str; 4],
    /// What a FAIL probably means; what an absent sweep is, how to get it.
    notes: [&'static str; 3],
}

enum Check {
    VsBaseline(VsBaseline),
    SameRun(&'static SameRun),
}

/// The gate, in output order.
const CHECKS: [Check; 12] = [
    // 1. Throughput of the gated system must not regress at any point.
    Check::VsBaseline(VsBaseline {
        flag: ("--max-regression", 0.25),
        systems: &[GATED],
        what: (TP, "", "", 0.0),
    }),
    // 2. The second worker must not collapse the parallel path. A no-collapse
    //    floor, not a scaling bar: on this 2-core host two workers and the
    //    router share two cores and five sweeps read 0.700-0.735 (lower
    //    quartile 0.70, less 10%; the final five 0.679-0.720, the same
    //    floor; 0.645 the lowest of twenty-five). ROADMAP direction 3
    //    raises it to 1.3.
    Check::SameRun(&SameRun {
        flag: ("--min-scaling", 0.63, ">=x", 2),
        figures: &["fig_scaling"],
        of: [
            ("HAMLET-par2", TP, Some("2")),
            ("HAMLET-par1", TP, Some("1")),
        ],
        claim: ("fig_scaling: 2 workers", "1 worker"),
        swept: [""; 4],
        notes: ["", "workers sweep", "run the sweep"],
    }),
    // 3. Throughput must stay flat(ish) in partition cardinality, on the two
    //    decades quick and full sweeps both measure: an O(live partitions)
    //    scan per event reads ~0.018, one per gauge sample 0.048-0.06, none
    //    0.13.
    Check::SameRun(&SameRun {
        flag: ("--min-expiry-flatness", 0.06, ">=", 3),
        figures: &["fig_expiry"],
        of: [(GATED, TP, Some("10000")), (GATED, TP, Some("100"))],
        claim: ("fig_expiry: 10000 keys", "100 keys"),
        swept: [""; 4],
        notes: [
            "; the expiry scan is back to O(live partitions) per event?",
            "cardinality sweep",
            "run the full sweep",
        ],
    }),
    // 4. The online pipeline's sustained-load p99 must not blow up.
    Check::VsBaseline(VsBaseline {
        flag: ("--max-p99-regression", 3.0),
        systems: &["HAMLET-pipe1", "HAMLET-pipe4"],
        what: ("latency_p99", "fig_latency", "p99", 0.0005),
    }),
    // 5. Nor the checkpoint drain-barrier pause: a serialization
    //    regression shows here before a production window is lost to it.
    Check::VsBaseline(VsBaseline {
        flag: ("--max-checkpoint-pause", 3.0),
        systems: &["HAMLET", "HAMLET-par4"],
        what: ("checkpoint_pause", "fig_checkpoint", "pause", 0.010),
    }),
    // 6. The batched hot path must beat the event-at-a-time `process` fold.
    Check::SameRun(&SameRun {
        flag: ("--min-batch-speedup", 2.0, ">=x", 2),
        figures: &["fig_batch"],
        of: [("HAMLET-batch", TP, None), ("HAMLET-event", TP, None)],
        claim: ("fig_batch: batched path", "event-at-a-time"),
        swept: ["", "batch", "event", "rates"],
        notes: ["", "batching sweep", "run the sweep"],
    }),
    // 7. Online churn must beat restart-per-change; if re-planning
    //    degenerated into a full rebuild per op this collapses toward 1.
    Check::SameRun(&SameRun {
        flag: ("--min-churn-advantage", 1.5, ">=x", 2),
        figures: &["fig_churn"],
        of: [("HAMLET-churn", TP, None), ("HAMLET-restart", TP, None)],
        claim: ("fig_churn: online churn", "restart-per-change"),
        swept: [" ops", "online", "restart", "op counts"],
        notes: ["", "churn sweep", "run the sweep"],
    }),
    // 8. The per-share-group metrics registry rides the hot path and must
    //    stay near-free: obs on (the default) against obs off.
    Check::SameRun(&SameRun {
        flag: ("--max-obs-overhead", 0.03, "1->=x", 3),
        figures: &["fig_obs"],
        of: [("HAMLET-obs", TP, None), ("HAMLET-noobs", TP, None)],
        claim: ("fig_obs: instrumented", "bare"),
        swept: ["", "instrumented", "bare", "rates"],
        notes: [
            " — the metrics registry is taxing the hot path",
            "observability sweep",
            "run the sweep",
        ],
    }),
    // 9. Recovery must stay an operational answer: the full restore and
    //    the base+delta chain replays.
    Check::VsBaseline(VsBaseline {
        flag: ("--max-recovery-time", 3.0),
        systems: &["HAMLET", "HAMLET-delta", "HAMLET-par4-delta"],
        what: ("recovery_time", "fig_checkpoint", "recovery", 0.010),
    }),
    // 10. The sustained price of cutting a delta every CUT_CADENCE events
    //     (check 5 sees only the per-cut stall), against the same loop uncut.
    Check::SameRun(&SameRun {
        flag: ("--max-cadence-overhead", 0.5, "1->=x", 3),
        figures: &["fig_checkpoint"],
        of: [("HAMLET-delta", TP, None), ("HAMLET-nockpt", TP, None)],
        claim: ("fig_checkpoint: delta cadence", "no-checkpoint"),
        swept: [" keys", "delta-cadence", "no-checkpoint", "cardinalities"],
        notes: [
            " — cutting a delta is taxing the hot path",
            "delta-cadence pair",
            "run the sweep",
        ],
    }),
    // 11. A delta must be incremental: mean delta over full base at 10^4
    //     keys, where at most CUT_CADENCE of them are touched between cuts.
    //     (At low cardinality every partition is dirty by the next cut.)
    Check::SameRun(&SameRun {
        flag: ("--max-delta-ratio", 0.5, "<=x", 3),
        figures: &["fig_checkpoint"],
        of: [
            ("HAMLET-delta", "delta_bytes", Some("10000")),
            ("HAMLET-delta", "checkpoint_bytes", Some("10000")),
        ],
        claim: (
            "fig_checkpoint/10000 HAMLET-delta: mean delta {num} B",
            "base {den} B",
        ),
        swept: [""; 4],
        notes: [
            " — deltas are re-encoding most of the state",
            "HAMLET-delta 10000-key point (with delta and base sizes)",
            "run the sweep",
        ],
    }),
    // 12. Dynamic sharing must not cost more than it saves on the paper's
    //     diverse workload: 0.962-0.977 measured, 0.92-0.93 before PR 15. A
    //     floor under bookkeeping; the claim proper is ROADMAP direction 1.
    Check::SameRun(&SameRun {
        flag: ("--min-dynamic-ratio", 0.91, ">=x", 3),
        figures: &["fig12_events", "fig12_queries"],
        of: [("HAMLET", TP, None), ("HAMLET-noshare", TP, None)],
        claim: ("fig12: dynamic sharing", "never sharing"),
        swept: ["", "dynamic", "never-share", "points"],
        notes: ["", "dynamic-vs-noshare sweeps", "run the sweeps"],
    }),
];

/// One measurement of one system: `(figure, x, measurement)`.
type Point<'a> = (&'a str, &'a str, &'a Json);

fn value(p: &Point, field: &str) -> f64 {
    p.2.get(field).and_then(Json::as_f64).unwrap_or(0.0)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("hamlet-bench-v1") => Ok(doc),
        other => Err(format!("{path}: unexpected schema {other:?}")),
    }
}

fn arr<'a>(node: &'a Json, key: &str) -> &'a [Json] {
    node.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

fn text<'a>(node: &'a Json, key: &str) -> &'a str {
    node.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// Every point with a throughput measured for `system`, in document order.
fn points<'a>(doc: &'a Json, system: &str) -> Vec<Point<'a>> {
    let mut out = Vec::new();
    for fig in arr(doc, "figures") {
        for row in arr(fig, "rows") {
            for m in arr(row, "measurements") {
                if text(m, "system") == system && m.get(TP).and_then(Json::as_f64).is_some() {
                    out.push((text(fig, "id"), text(row, "x"), m));
                }
            }
        }
    }
    out
}

const VERDICT: [&str; 2] = ["FAIL", "OK  "];

/// `(current report, baseline, --system under test, current report's path)`.
type Gate<'a> = (&'a Json, &'a Json, &'a str, &'a str);

fn system<'s>(gate: Gate<'s>, name: &'s str) -> &'s str {
    Some(name).filter(|n| *n != GATED).unwrap_or(gate.2)
}

/// Runs one check against its threshold; returns its failure count.
fn run(gate: Gate, check: &Check, limit: f64) -> u32 {
    match check {
        Check::VsBaseline(c) if c.what.0 != TP && limit <= 0.0 => 0,
        Check::VsBaseline(c) => (c.systems.iter())
            .map(|name| vs_baseline(gate, system(gate, name), c.what, limit))
            .sum(),
        Check::SameRun(_) if limit <= 0.0 => 0,
        Check::SameRun(c) => same_run(gate, c, limit),
    }
}

fn vs_baseline(gate: Gate, system: &str, what: (&str, &str, &str, f64), limit: f64) -> u32 {
    let ((current, baseline, ..), (field, figure, noun, floor)) = (gate, what);
    let cur = points(current, system);
    let mut failures = 0;
    for bp in points(baseline, system) {
        let (fig, x, base) = (bp.0, bp.1, value(&bp, field));
        if field != TP && (fig != figure || base <= 0.0) {
            continue;
        }
        let Some(cp) = cur.iter().find(|p| p.0 == fig && p.1 == x) else {
            println!("MISS {fig}/{x} {system}: point present in baseline but not measured now");
            failures += 1;
            continue;
        };
        let now = value(cp, field);
        let (ok, line) = if field == TP {
            let ratio = now / base.max(f64::MIN_POSITIVE);
            let pct = (ratio - 1.0) * 100.0;
            let line = format!("{now:.0} ev/s vs baseline {base:.0} ({pct:+.1}%)");
            (ratio >= 1.0 - limit, line)
        } else {
            // A current time of 0 against a nonzero baseline means
            // the run measured nothing.
            let max = base * (1.0 + limit) + floor;
            let [now_ms, base_ms, max_ms] = [now, base, max].map(|s| s * 1e3);
            let line =
                format!("{noun} {now_ms:.3}ms vs baseline {base_ms:.3}ms (limit {max_ms:.3}ms)");
            (now <= max && now > 0.0, line)
        };
        failures += u32::from(!ok);
        println!("{} {fig}/{x} {system}: {line}", VERDICT[usize::from(ok)]);
    }
    failures
}

fn same_run(gate: Gate, c: &SameRun, limit: f64) -> u32 {
    let ((current, _, _, path), (flag, _, needs, d)) = (gate, c.flag);
    // A size of 0 means "not recorded", like an absent point.
    let [(nums, nf, pinned), (dens, df, _)] = c.of.map(|(name, field, x)| {
        let mut side = points(current, system(gate, name));
        side.retain(|p| {
            c.figures.contains(&p.0)
                && x.is_none_or(|x| p.1 == x)
                && (field == TP || value(p, field) > 0.0)
        });
        (side, field, x.is_some())
    });
    let mut pairs = Vec::new();
    let same_x = |np: &Point, p: &Point| p.0 == np.0 && (pinned || p.1 == np.1);
    for (np, dp) in nums
        .iter()
        .filter_map(|np| Some((np, dens.iter().find(|p| same_x(np, p))?)))
    {
        let (n, m) = (value(np, nf), value(dp, df));
        let ratio = n / m.max(f64::MIN_POSITIVE);
        if !pinned {
            let ([unit, name, of, _], (fig, x, _)) = (c.swept, np);
            println!("     {fig}/{x}{unit}: {name} {n:.0} ev/s = {ratio:.d$}x of {of} {m:.0} ev/s");
        }
        pairs.push((ratio, n, m));
    }
    let [fail_note, what, how] = c.notes;
    let Some(&(first, n, m)) = pairs.first() else {
        let label = c.claim.0.split([':', '/']).next().unwrap_or("");
        println!("FAIL {label}: {what} missing from {path} ({how} or pass {flag} 0)");
        return 1;
    };
    let logs = pairs.iter().map(|p| p.0.max(f64::MIN_POSITIVE).ln());
    let (value, over) = if pinned {
        (first, String::new())
    } else {
        let over = format!("geomean of {} {}, ", pairs.len(), c.swept[3]);
        ((logs.sum::<f64>() / pairs.len() as f64).exp(), over)
    };
    let (limit, needs) = match needs.strip_prefix("1-") {
        Some(needs) => (1.0 - limit, needs),
        None => (limit, needs),
    };
    let (cmp, unit) = needs.split_at(2);
    let ok = [value >= limit, value <= limit][usize::from(cmp == "<=")];
    let [subject, object] = [c.claim.0, c.claim.1].map(|s| {
        s.replace("{num}", &format!("{n:.0}"))
            .replace("{den}", &format!("{m:.0}"))
    });
    println!(
        "{} {subject} = {value:.d$}x of {object} ({over}needs {cmp} {limit:.d$}{unit}{})",
        VERDICT[usize::from(ok)],
        if ok { "" } else { fail_note },
    );
    u32::from(!ok)
}

fn usage_exit(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let flag_of = |check: &Check| match check {
        Check::VsBaseline(c) => c.flag,
        Check::SameRun(c) => (c.flag.0, c.flag.1),
    };
    let mut paths: Vec<String> = Vec::new();
    let mut limits = CHECKS.each_ref().map(|check| flag_of(check).1);
    let mut system = "HAMLET".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = || {
            it.next()
                .unwrap_or_else(|| usage_exit(format!("{arg} needs a value")))
        };
        if let Some(i) = CHECKS.iter().position(|check| flag_of(check).0 == arg) {
            limits[i] = take()
                .parse()
                .unwrap_or_else(|e| usage_exit(format!("bad {arg}: {e}")));
        } else if arg == "--system" {
            system = take();
        } else if arg.starts_with("--") {
            usage_exit(format!("unknown flag: {arg}"));
        } else {
            paths.push(arg);
        }
    }
    let [path, baseline_path] = paths.as_slice() else {
        usage_exit("usage: perf_gate <current BENCH.json> <baseline.json> [flags]".into());
    };
    let (current, baseline) = match (load(path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            let errs: Vec<String> = [c.err(), b.err()].into_iter().flatten().collect();
            usage_exit(errs.join("\n"));
        }
    };

    // A figure measured now but absent from the committed baseline gets one
    // explicit SKIP line: no per-point baseline comparison below sees it.
    let ids = |doc| -> Vec<&str> { (arr(doc, "figures").iter().map(|f| text(f, "id"))).collect() };
    let base_figs = ids(&baseline);
    for fig in ids(&current) {
        if !base_figs.contains(&fig) {
            println!(
                "SKIP {fig}: present in {path} but missing from the baseline \
                 {baseline_path} — no baseline comparison ran for it; regenerate the \
                 baseline to gate this sweep"
            );
        }
    }

    // A system the baseline has but the current report lacks entirely (a
    // dropped sweep, a renamed system) is one clear failure, not MISS noise.
    let base_points = points(&baseline, &system).len();
    if base_points == 0 {
        eprintln!("warning: baseline has no {system} measurements; nothing gated");
    } else if points(&current, &system).is_empty() {
        eprintln!(
            "error: {path} has no \"{system}\" measurements, but the baseline \
             {baseline_path} has {base_points} — was the sweep dropped or the system renamed?"
        );
        std::process::exit(1);
    }

    let gate: Gate = (&current, &baseline, &system, path);
    let failures: u32 = (CHECKS.iter().zip(limits))
        .map(|(check, limit)| run(gate, check, limit))
        .sum();
    if failures > 0 {
        eprintln!("perf gate: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("perf gate: all checks passed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_bench::figures::{sweep, Sweep};

    /// Every figure, system and pinned x a check reads is a cell of the
    /// figure table in both modes — a misspelt name fails here, not as a
    /// `FAIL … missing` in CI. `GATED` stands for the default `--system`.
    #[test]
    fn every_check_reads_cells_the_table_has() {
        let assert_cell = |figure: &str, system: &str, x: Option<&str>| {
            let system = if system == GATED { "HAMLET" } else { system };
            let row = sweep(figure).unwrap_or_else(|| panic!("no sweep {figure}"));
            for xs in row.xs {
                let found = xs.iter().any(|&v| {
                    x.is_none_or(|x| x == v.to_string())
                        && (row.columns.iter()).any(|(column, _)| Sweep::label(column, v) == system)
                });
                assert!(found, "{figure} has no {system} cell at x = {x:?}");
            }
        };
        for check in &CHECKS {
            match check {
                Check::VsBaseline(c) if c.what.1.is_empty() => {}
                Check::VsBaseline(c) => {
                    (c.systems.iter()).for_each(|s| assert_cell(c.what.1, s, None))
                }
                Check::SameRun(c) => {
                    for figure in c.figures {
                        c.of.iter()
                            .for_each(|&(system, _, x)| assert_cell(figure, system, x));
                    }
                }
            }
        }
    }
}
