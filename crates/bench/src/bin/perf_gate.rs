//! CI perf gate: compares a fresh `BENCH.json` against a committed
//! baseline and fails on shared-HAMLET throughput regressions, and
//! checks that the workers sweep actually scales.
//!
//! ```text
//! cargo run -p hamlet-bench --release --bin perf_gate -- BENCH.json bench-baseline.json
//! ```
//!
//! Flags:
//! - `--max-regression <frac>`  allowed throughput drop vs baseline per
//!   (figure, x) point for the gated system (default 0.25)
//! - `--min-scaling <factor>`   required 4-worker over 1-worker throughput
//!   ratio in `fig_scaling` (default 0.7; 0 disables the check). A floor
//!   against a pathological parallel path: single-core hosts measure
//!   mostly routing overhead now that workers run the batched engine
//!   core, so ~0.85-1.1x is a healthy single-core reading.
//! - `--min-expiry-flatness <frac>` required throughput ratio between the
//!   10⁴-key and 10²-key points of `fig_expiry` (default 0.03; 0
//!   disables). Guards the watermark expiration index: the old O(live
//!   partitions)-per-event expiry scan measures ~0.018 across those two
//!   decades, the indexed path ~0.038–0.06 depending on the host. Pinned
//!   to those x values so quick and full sweeps are judged against the
//!   same ratio.
//! - `--max-p99-regression <frac>` allowed growth of the `fig_latency`
//!   p99 latency vs baseline per (x, pipeline system) point (default
//!   3.0, i.e. up to 4× plus a 500 µs absolute floor — tail latencies on
//!   shared CI hosts are noisy; 0 disables). Guards the online
//!   pipeline's sustained-load tail.
//! - `--max-checkpoint-pause <frac>` allowed growth of the
//!   `fig_checkpoint` pause time vs baseline per (x, system) point
//!   (default 3.0, i.e. up to 4× plus a 10 ms absolute floor; 0
//!   disables). Guards the checkpoint subsystem's drain-barrier stall:
//!   a serialization regression shows up here before anyone loses a
//!   production window to a slow checkpoint.
//! - `--min-batch-speedup <factor>` required `HAMLET-batch` over
//!   `HAMLET-event` throughput ratio in `fig_batch` (default 2.0; 0
//!   disables). Both systems come from the same `BENCH.json` run, so
//!   the ratio is machine-independent. Judged per swept rate on the
//!   geometric mean across rates — one overall claim, robust to a
//!   single noisy point. A missing `fig_batch` sweep is a failure.
//! - `--min-churn-advantage <factor>` required `HAMLET-churn` over
//!   `HAMLET-restart` throughput ratio in `fig_churn` (default 1.5; 0
//!   disables). Both systems come from the same `BENCH.json` run, so
//!   the ratio is machine-independent. Gated on the geometric mean
//!   across the swept churn-op counts. Guards the online re-planning
//!   path: if churn quietly degenerated into a full rebuild, the
//!   advantage over restart-per-change would evaporate. A missing
//!   `fig_churn` sweep is a failure.
//! - `--max-obs-overhead <frac>` allowed throughput cost of the
//!   observability layer in `fig_obs` (default 0.03, i.e. `HAMLET-obs`
//!   must hold ≥ 97% of `HAMLET-noobs` throughput; 0 disables). Both
//!   systems come from the same `BENCH.json` run, so the ratio is
//!   machine-independent. Judged on the geometric mean across the swept
//!   rates, `fig_batch` style. A missing `fig_obs` sweep is a failure:
//!   the per-share-group registry rides the hot path, and this gate is
//!   what keeps it honest.
//! - `--max-recovery-time <frac>` allowed growth of the `fig_checkpoint`
//!   restore/chain-replay time vs baseline per (x, system) point
//!   (default 3.0, i.e. up to 4× plus a 10 ms absolute floor; 0
//!   disables). Covers the full-checkpoint restore (`HAMLET`) and the
//!   base+delta chain replays (`HAMLET-delta`, `HAMLET-par4-delta`) —
//!   the budget that keeps "restart from the store" an operational
//!   answer rather than a theoretical one.
//! - `--max-cadence-overhead <frac>` allowed sustained throughput cost
//!   of cutting a delta checkpoint every `CUT_CADENCE` events in
//!   `fig_checkpoint` (default 0.5; 0 disables): `HAMLET-delta` must
//!   hold ≥ (1 − frac) of `HAMLET-nockpt`, the identical loop with no
//!   cuts. Same-run ratio, geomean across cardinalities, `fig_obs`
//!   style. A missing pair is a failure.
//! - `--max-delta-ratio <frac>` maximum steady-state mean-delta /
//!   full-base size ratio for `HAMLET-delta` at the 10⁴-key point of
//!   `fig_checkpoint` (default 0.5; 0 disables). Same-run byte ratio,
//!   machine-independent. If a "delta" quietly re-encodes most of the
//!   state, incremental checkpointing has lost its reason to exist —
//!   this is the gate that says so.
//! - `--min-dynamic-ratio <frac>` required `HAMLET` over
//!   `HAMLET-noshare` throughput ratio on the `fig12_events` +
//!   `fig12_queries` sweeps (default 0.91; 0 disables): the dynamic
//!   optimizer on the paper's diverse workload against never sharing at
//!   all. Both systems come from the same `BENCH.json` run, so the
//!   ratio is machine-independent; judged on the geometric mean across
//!   every point of the two sweeps. Measured 0.962–0.977 in three quick
//!   sweeps (the default is 0.05 under the lowest); before the shared
//!   path's cost was bounded (cell columns, folded snapshot
//!   expressions) the same sweep read 0.92–0.93. A floor under the
//!   shared path's per-event bookkeeping; the paper's claim proper
//!   (≥ 0.95 of the better of static and never) is ROADMAP direction
//!   1(c). A missing sweep is a failure.
//! - `--system <name>`          system to gate on (default `HAMLET`)
//!
//! A figure present in the current report but absent from the baseline
//! is reported as one `SKIP` line (new sweeps are not silently
//! half-gated; regenerate the baseline to gate them).
//!
//! Exit code 0 = pass, 1 = regression/scaling failure, 2 = usage or
//! unreadable/invalid input.

use hamlet_bench::json::{self, Json};

/// Flattened view of one measured point.
struct Point {
    figure: String,
    x: String,
    throughput: f64,
    /// End-to-end p99 latency in seconds (0 for offline harnesses).
    latency_p99: f64,
    /// Checkpoint pause in seconds (0 for runs without a checkpoint;
    /// absent in pre-checkpoint baselines, which parse as 0).
    checkpoint_pause: f64,
    /// Restore / chain-replay time in seconds (0 when not measured;
    /// absent in pre-delta baselines, which parse as 0).
    recovery_time: f64,
    /// Full checkpoint (or chain base) size in bytes (0 when none).
    checkpoint_bytes: f64,
    /// Mean delta record size in bytes (0 for full-only runs).
    delta_bytes: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("hamlet-bench-v1") => Ok(doc),
        other => Err(format!("{path}: unexpected schema {other:?}")),
    }
}

/// Figure ids present in a report, in document order.
fn figure_ids(doc: &Json) -> Vec<String> {
    doc.get("figures")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|fig| fig.get("id").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

/// Extracts every (figure, x) throughput for one system name.
fn points(doc: &Json, system: &str) -> Vec<Point> {
    let mut out = Vec::new();
    let Some(figs) = doc.get("figures").and_then(Json::as_arr) else {
        return out;
    };
    for fig in figs {
        let figure = fig.get("id").and_then(Json::as_str).unwrap_or("?");
        for row in fig.get("rows").and_then(Json::as_arr).unwrap_or(&[]) {
            let x = row.get("x").and_then(Json::as_str).unwrap_or("?");
            for m in row
                .get("measurements")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
            {
                if m.get("system").and_then(Json::as_str) == Some(system) {
                    if let Some(tp) = m.get("throughput_eps").and_then(Json::as_f64) {
                        out.push(Point {
                            figure: figure.to_string(),
                            x: x.to_string(),
                            throughput: tp,
                            latency_p99: m.get("latency_p99").and_then(Json::as_f64).unwrap_or(0.0),
                            checkpoint_pause: m
                                .get("checkpoint_pause")
                                .and_then(Json::as_f64)
                                .unwrap_or(0.0),
                            recovery_time: m
                                .get("recovery_time")
                                .and_then(Json::as_f64)
                                .unwrap_or(0.0),
                            checkpoint_bytes: m
                                .get("checkpoint_bytes")
                                .and_then(Json::as_f64)
                                .unwrap_or(0.0),
                            delta_bytes: m.get("delta_bytes").and_then(Json::as_f64).unwrap_or(0.0),
                        });
                    }
                }
            }
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut max_regression = 0.25f64;
    let mut min_scaling = 0.7f64;
    let mut min_expiry_flatness = 0.03f64;
    let mut max_p99_regression = 3.0f64;
    let mut max_checkpoint_pause = 3.0f64;
    let mut min_batch_speedup = 2.0f64;
    let mut min_churn_advantage = 1.5f64;
    let mut max_obs_overhead = 0.03f64;
    let mut max_recovery_time = 3.0f64;
    let mut max_cadence_overhead = 0.5f64;
    let mut max_delta_ratio = 0.5f64;
    let mut min_dynamic_ratio = 0.91f64;
    let mut system = "HAMLET".to_string();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--max-regression" => {
                max_regression = take("--max-regression").parse().unwrap_or_else(|e| {
                    eprintln!("bad --max-regression: {e}");
                    std::process::exit(2);
                })
            }
            "--min-scaling" => {
                min_scaling = take("--min-scaling").parse().unwrap_or_else(|e| {
                    eprintln!("bad --min-scaling: {e}");
                    std::process::exit(2);
                })
            }
            "--min-expiry-flatness" => {
                min_expiry_flatness = take("--min-expiry-flatness").parse().unwrap_or_else(|e| {
                    eprintln!("bad --min-expiry-flatness: {e}");
                    std::process::exit(2);
                })
            }
            "--max-p99-regression" => {
                max_p99_regression = take("--max-p99-regression").parse().unwrap_or_else(|e| {
                    eprintln!("bad --max-p99-regression: {e}");
                    std::process::exit(2);
                })
            }
            "--max-checkpoint-pause" => {
                max_checkpoint_pause = take("--max-checkpoint-pause").parse().unwrap_or_else(|e| {
                    eprintln!("bad --max-checkpoint-pause: {e}");
                    std::process::exit(2);
                })
            }
            "--min-batch-speedup" => {
                min_batch_speedup = take("--min-batch-speedup").parse().unwrap_or_else(|e| {
                    eprintln!("bad --min-batch-speedup: {e}");
                    std::process::exit(2);
                })
            }
            "--min-churn-advantage" => {
                min_churn_advantage = take("--min-churn-advantage").parse().unwrap_or_else(|e| {
                    eprintln!("bad --min-churn-advantage: {e}");
                    std::process::exit(2);
                })
            }
            "--max-obs-overhead" => {
                max_obs_overhead = take("--max-obs-overhead").parse().unwrap_or_else(|e| {
                    eprintln!("bad --max-obs-overhead: {e}");
                    std::process::exit(2);
                })
            }
            "--max-recovery-time" => {
                max_recovery_time = take("--max-recovery-time").parse().unwrap_or_else(|e| {
                    eprintln!("bad --max-recovery-time: {e}");
                    std::process::exit(2);
                })
            }
            "--max-cadence-overhead" => {
                max_cadence_overhead = take("--max-cadence-overhead").parse().unwrap_or_else(|e| {
                    eprintln!("bad --max-cadence-overhead: {e}");
                    std::process::exit(2);
                })
            }
            "--max-delta-ratio" => {
                max_delta_ratio = take("--max-delta-ratio").parse().unwrap_or_else(|e| {
                    eprintln!("bad --max-delta-ratio: {e}");
                    std::process::exit(2);
                })
            }
            "--min-dynamic-ratio" => {
                min_dynamic_ratio = take("--min-dynamic-ratio").parse().unwrap_or_else(|e| {
                    eprintln!("bad --min-dynamic-ratio: {e}");
                    std::process::exit(2);
                })
            }
            "--system" => system = take("--system"),
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
            other => paths.push(other.to_string()),
        }
    }
    let [current_path, baseline_path] = paths.as_slice() else {
        eprintln!("usage: perf_gate <current BENCH.json> <baseline.json> [flags]");
        std::process::exit(2);
    };
    let (current, baseline) = match (load(current_path), load(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for r in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("{r}");
            }
            std::process::exit(2);
        }
    };

    let mut failures = 0u32;

    // 0. A figure measured now but absent from the committed baseline
    //    gets one explicit SKIP line instead of being silently ignored
    //    by every per-point baseline comparison below — a new sweep is
    //    visible as ungated until the baseline is regenerated.
    let base_figs = figure_ids(&baseline);
    for fig in figure_ids(&current) {
        if !base_figs.contains(&fig) {
            println!(
                "SKIP {fig}: present in {current_path} but missing from the baseline \
                 {baseline_path} — no baseline comparison ran for it; regenerate the \
                 baseline to gate this sweep"
            );
        }
    }

    // 1. Throughput regression of the gated system vs the baseline.
    let base_points = points(&baseline, &system);
    let cur_points = points(&current, &system);
    if base_points.is_empty() {
        eprintln!("warning: baseline has no {system} measurements; nothing gated");
    }
    // A system present in the baseline but entirely absent from the
    // current report is one clear failure — a dropped sweep or a renamed
    // system — not a wall of per-point MISS noise (and never a panic).
    if !base_points.is_empty() && cur_points.is_empty() {
        eprintln!(
            "error: {current_path} has no \"{system}\" measurements, but the baseline \
             {baseline_path} has {} — was the sweep dropped or the system renamed?",
            base_points.len()
        );
        std::process::exit(1);
    }
    for bp in &base_points {
        let Some(cp) = cur_points
            .iter()
            .find(|p| p.figure == bp.figure && p.x == bp.x)
        else {
            println!(
                "MISS {}/{} {}: point present in baseline but not measured now",
                bp.figure, bp.x, system
            );
            failures += 1;
            continue;
        };
        let ratio = cp.throughput / bp.throughput.max(f64::MIN_POSITIVE);
        let verdict = if ratio < 1.0 - max_regression {
            failures += 1;
            "FAIL"
        } else {
            "OK  "
        };
        println!(
            "{verdict} {}/{} {}: {:.0} ev/s vs baseline {:.0} ({:+.1}%)",
            bp.figure,
            bp.x,
            system,
            cp.throughput,
            bp.throughput,
            (ratio - 1.0) * 100.0
        );
    }

    // 2. The workers sweep must actually scale.
    if min_scaling > 0.0 {
        let t1 = points(&current, "HAMLET-par1")
            .into_iter()
            .find(|p| p.figure == "fig_scaling" && p.x == "1");
        let t4 = points(&current, "HAMLET-par4")
            .into_iter()
            .find(|p| p.figure == "fig_scaling" && p.x == "4");
        match (t1, t4) {
            (Some(t1), Some(t4)) => {
                let speedup = t4.throughput / t1.throughput.max(f64::MIN_POSITIVE);
                if speedup >= min_scaling {
                    println!(
                        "OK   fig_scaling: 4 workers = {speedup:.2}x of 1 worker \
                         (needs >= {min_scaling:.2}x)"
                    );
                } else {
                    println!(
                        "FAIL fig_scaling: 4 workers = {speedup:.2}x of 1 worker \
                         (needs >= {min_scaling:.2}x)"
                    );
                    failures += 1;
                }
            }
            _ => {
                println!(
                    "FAIL fig_scaling: workers sweep missing from {current_path} \
                     (run the full sweep or pass --min-scaling 0)"
                );
                failures += 1;
            }
        }
    }

    // 3. The expiry sweep must stay flat(ish) in partition cardinality —
    //    the O(P)-per-event scan the expiration index replaced measures
    //    well below the threshold on this sweep.
    if min_expiry_flatness > 0.0 {
        let sweep: Vec<Point> = points(&current, &system)
            .into_iter()
            .filter(|p| p.figure == "fig_expiry")
            .collect();
        // The threshold is calibrated for the 10^2 → 10^4 decades, which
        // both the quick and full sweeps measure — pin the comparison to
        // those x values rather than the sweep's extremes so a full-mode
        // run (which adds 10^5 keys) is judged against the same ratio.
        let (lo_x, hi_x) = (100u64, 10_000u64);
        let tp_at = |x: u64| {
            sweep
                .iter()
                .find(|p| p.x == x.to_string())
                .map(|p| p.throughput)
        };
        match (tp_at(lo_x), tp_at(hi_x)) {
            (Some(lo_tp), Some(hi_tp)) => {
                let ratio = hi_tp / lo_tp.max(f64::MIN_POSITIVE);
                if ratio >= min_expiry_flatness {
                    println!(
                        "OK   fig_expiry: {hi_x} keys = {ratio:.3}x of {lo_x} keys \
                         (needs >= {min_expiry_flatness:.3})"
                    );
                } else {
                    println!(
                        "FAIL fig_expiry: {hi_x} keys = {ratio:.3}x of {lo_x} keys \
                         (needs >= {min_expiry_flatness:.3}; the expiry scan is \
                         back to O(live partitions) per event?)"
                    );
                    failures += 1;
                }
            }
            _ => {
                println!(
                    "FAIL fig_expiry: cardinality sweep missing from {current_path} \
                     (run the full sweep or pass --min-expiry-flatness 0)"
                );
                failures += 1;
            }
        }
    }

    // 4. The online pipeline's sustained-load p99 must not blow up vs
    //    the baseline. Tail latencies are noisy on shared hosts, so the
    //    bound is multiplicative with a 500 µs absolute floor.
    if max_p99_regression > 0.0 {
        const P99_FLOOR_SECS: f64 = 0.0005;
        for pipe_system in ["HAMLET-pipe1", "HAMLET-pipe4"] {
            let base: Vec<Point> = points(&baseline, pipe_system)
                .into_iter()
                .filter(|p| p.figure == "fig_latency" && p.latency_p99 > 0.0)
                .collect();
            let cur = points(&current, pipe_system);
            for bp in &base {
                let Some(cp) = cur
                    .iter()
                    .find(|p| p.figure == "fig_latency" && p.x == bp.x)
                else {
                    println!(
                        "MISS fig_latency/{} {pipe_system}: point present in baseline \
                         but not measured now",
                        bp.x
                    );
                    failures += 1;
                    continue;
                };
                let limit = bp.latency_p99 * (1.0 + max_p99_regression) + P99_FLOOR_SECS;
                // A current p99 of 0 against a nonzero baseline means the
                // run measured nothing (empty histogram / poisoned
                // measurement) — that is a failure, not a pass.
                let verdict = if cp.latency_p99 > limit || cp.latency_p99 <= 0.0 {
                    failures += 1;
                    "FAIL"
                } else {
                    "OK  "
                };
                println!(
                    "{verdict} fig_latency/{} {pipe_system}: p99 {:.3}ms vs baseline {:.3}ms \
                     (limit {:.3}ms)",
                    bp.x,
                    cp.latency_p99 * 1e3,
                    bp.latency_p99 * 1e3,
                    limit * 1e3,
                );
            }
        }
    }

    // 5. The checkpoint drain-barrier pause must not blow up vs the
    //    baseline. Pauses are short and noisy on shared hosts, so the
    //    bound is multiplicative with a 10 ms absolute floor. A missing
    //    sweep or a zero pause against a nonzero baseline is a failure —
    //    it means the checkpoint was not measured at all.
    if max_checkpoint_pause > 0.0 {
        const PAUSE_FLOOR_SECS: f64 = 0.010;
        for ck_system in ["HAMLET", "HAMLET-par4"] {
            let base: Vec<Point> = points(&baseline, ck_system)
                .into_iter()
                .filter(|p| p.figure == "fig_checkpoint" && p.checkpoint_pause > 0.0)
                .collect();
            let cur = points(&current, ck_system);
            for bp in &base {
                let Some(cp) = cur
                    .iter()
                    .find(|p| p.figure == "fig_checkpoint" && p.x == bp.x)
                else {
                    println!(
                        "MISS fig_checkpoint/{} {ck_system}: point present in baseline \
                         but not measured now",
                        bp.x
                    );
                    failures += 1;
                    continue;
                };
                let limit = bp.checkpoint_pause * (1.0 + max_checkpoint_pause) + PAUSE_FLOOR_SECS;
                let verdict = if cp.checkpoint_pause > limit || cp.checkpoint_pause <= 0.0 {
                    failures += 1;
                    "FAIL"
                } else {
                    "OK  "
                };
                println!(
                    "{verdict} fig_checkpoint/{} {ck_system}: pause {:.3}ms vs baseline \
                     {:.3}ms (limit {:.3}ms)",
                    bp.x,
                    cp.checkpoint_pause * 1e3,
                    bp.checkpoint_pause * 1e3,
                    limit * 1e3,
                );
            }
        }
    }

    // 6. The batched hot path must beat the preserved event-at-a-time
    //    reference by the required factor on the `fig_batch` sweep. Both
    //    systems are measured back-to-back in the same run, so the ratio
    //    cancels host speed out. Gated on the geometric mean across the
    //    swept rates: one overall claim, robust to a single noisy point
    //    (each rate still prints its own ratio).
    if min_batch_speedup > 0.0 {
        let event: Vec<Point> = points(&current, "HAMLET-event")
            .into_iter()
            .filter(|p| p.figure == "fig_batch")
            .collect();
        let batch: Vec<Point> = points(&current, "HAMLET-batch")
            .into_iter()
            .filter(|p| p.figure == "fig_batch")
            .collect();
        let mut log_sum = 0.0f64;
        let mut n = 0u32;
        for ep in &event {
            let Some(bp) = batch.iter().find(|p| p.x == ep.x) else {
                continue;
            };
            let ratio = bp.throughput / ep.throughput.max(f64::MIN_POSITIVE);
            println!(
                "     fig_batch/{}: batch {:.0} ev/s = {ratio:.2}x of event {:.0} ev/s",
                ep.x, bp.throughput, ep.throughput
            );
            log_sum += ratio.max(f64::MIN_POSITIVE).ln();
            n += 1;
        }
        if n == 0 {
            println!(
                "FAIL fig_batch: batching sweep missing from {current_path} \
                 (run the sweep or pass --min-batch-speedup 0)"
            );
            failures += 1;
        } else {
            let geomean = (log_sum / n as f64).exp();
            if geomean >= min_batch_speedup {
                println!(
                    "OK   fig_batch: batched path = {geomean:.2}x of event-at-a-time \
                     (geomean of {n} rates, needs >= {min_batch_speedup:.2}x)"
                );
            } else {
                println!(
                    "FAIL fig_batch: batched path = {geomean:.2}x of event-at-a-time \
                     (geomean of {n} rates, needs >= {min_batch_speedup:.2}x)"
                );
                failures += 1;
            }
        }
    }

    // 7. Online churn must beat the restart-per-change baseline on the
    //    `fig_churn` sweep. Both systems run back-to-back in the same
    //    report, so the ratio cancels host speed out; gated on the
    //    geometric mean across the swept churn-op counts, fig_batch
    //    style. If online re-planning quietly degenerated into a full
    //    engine rebuild per op, this ratio collapses toward 1.
    if min_churn_advantage > 0.0 {
        let online: Vec<Point> = points(&current, "HAMLET-churn")
            .into_iter()
            .filter(|p| p.figure == "fig_churn")
            .collect();
        let restart: Vec<Point> = points(&current, "HAMLET-restart")
            .into_iter()
            .filter(|p| p.figure == "fig_churn")
            .collect();
        let mut log_sum = 0.0f64;
        let mut n = 0u32;
        for op in &online {
            let Some(rp) = restart.iter().find(|p| p.x == op.x) else {
                continue;
            };
            let ratio = op.throughput / rp.throughput.max(f64::MIN_POSITIVE);
            println!(
                "     fig_churn/{} ops: online {:.0} ev/s = {ratio:.2}x of restart {:.0} ev/s",
                op.x, op.throughput, rp.throughput
            );
            log_sum += ratio.max(f64::MIN_POSITIVE).ln();
            n += 1;
        }
        if n == 0 {
            println!(
                "FAIL fig_churn: churn sweep missing from {current_path} \
                 (run the sweep or pass --min-churn-advantage 0)"
            );
            failures += 1;
        } else {
            let geomean = (log_sum / n as f64).exp();
            if geomean >= min_churn_advantage {
                println!(
                    "OK   fig_churn: online churn = {geomean:.2}x of restart-per-change \
                     (geomean of {n} op counts, needs >= {min_churn_advantage:.2}x)"
                );
            } else {
                println!(
                    "FAIL fig_churn: online churn = {geomean:.2}x of restart-per-change \
                     (geomean of {n} op counts, needs >= {min_churn_advantage:.2}x)"
                );
                failures += 1;
            }
        }
    }

    // 8. The observability layer must stay near-free: `HAMLET-obs`
    //    (per-share-group registry on, the production default) against
    //    `HAMLET-noobs` (identical engine, counters compiled out of the
    //    run) on the `fig_obs` sweep. Same-run ratio, geomean across
    //    rates, fig_batch style. If a counter sneaks into an inner loop
    //    or the registry starts allocating per event, this is the gate
    //    that catches it.
    if max_obs_overhead > 0.0 {
        let obs: Vec<Point> = points(&current, "HAMLET-obs")
            .into_iter()
            .filter(|p| p.figure == "fig_obs")
            .collect();
        let noobs: Vec<Point> = points(&current, "HAMLET-noobs")
            .into_iter()
            .filter(|p| p.figure == "fig_obs")
            .collect();
        let mut log_sum = 0.0f64;
        let mut n = 0u32;
        for op in &obs {
            let Some(np) = noobs.iter().find(|p| p.x == op.x) else {
                continue;
            };
            let ratio = op.throughput / np.throughput.max(f64::MIN_POSITIVE);
            println!(
                "     fig_obs/{}: instrumented {:.0} ev/s = {ratio:.3}x of bare {:.0} ev/s",
                op.x, op.throughput, np.throughput
            );
            log_sum += ratio.max(f64::MIN_POSITIVE).ln();
            n += 1;
        }
        let floor = 1.0 - max_obs_overhead;
        if n == 0 {
            println!(
                "FAIL fig_obs: observability sweep missing from {current_path} \
                 (run the sweep or pass --max-obs-overhead 0)"
            );
            failures += 1;
        } else {
            let geomean = (log_sum / n as f64).exp();
            if geomean >= floor {
                println!(
                    "OK   fig_obs: instrumented = {geomean:.3}x of bare \
                     (geomean of {n} rates, needs >= {floor:.3}x)"
                );
            } else {
                println!(
                    "FAIL fig_obs: instrumented = {geomean:.3}x of bare \
                     (geomean of {n} rates, needs >= {floor:.3}x — the \
                     metrics registry is taxing the hot path)"
                );
                failures += 1;
            }
        }
    }

    // 9. Recovery must stay within budget vs the baseline: the plain
    //    restore (`HAMLET`) and the base+delta chain replays
    //    (`HAMLET-delta`, `HAMLET-par4-delta`). Restores are short and
    //    noisy on shared hosts, so the bound is multiplicative with a
    //    10 ms absolute floor, check-5 style. A zero recovery against a
    //    nonzero baseline means the restore was not measured — a
    //    failure, not a pass.
    if max_recovery_time > 0.0 {
        const RECOVERY_FLOOR_SECS: f64 = 0.010;
        for rc_system in ["HAMLET", "HAMLET-delta", "HAMLET-par4-delta"] {
            let base: Vec<Point> = points(&baseline, rc_system)
                .into_iter()
                .filter(|p| p.figure == "fig_checkpoint" && p.recovery_time > 0.0)
                .collect();
            let cur = points(&current, rc_system);
            for bp in &base {
                let Some(cp) = cur
                    .iter()
                    .find(|p| p.figure == "fig_checkpoint" && p.x == bp.x)
                else {
                    println!(
                        "MISS fig_checkpoint/{} {rc_system}: point present in baseline \
                         but not measured now",
                        bp.x
                    );
                    failures += 1;
                    continue;
                };
                let limit = bp.recovery_time * (1.0 + max_recovery_time) + RECOVERY_FLOOR_SECS;
                let verdict = if cp.recovery_time > limit || cp.recovery_time <= 0.0 {
                    failures += 1;
                    "FAIL"
                } else {
                    "OK  "
                };
                println!(
                    "{verdict} fig_checkpoint/{} {rc_system}: recovery {:.3}ms vs baseline \
                     {:.3}ms (limit {:.3}ms)",
                    bp.x,
                    cp.recovery_time * 1e3,
                    bp.recovery_time * 1e3,
                    limit * 1e3,
                );
            }
        }
    }

    // 10. Cutting a delta every CUT_CADENCE events must stay cheap:
    //     `HAMLET-delta` against `HAMLET-nockpt`, the identical loop
    //     with no cuts, both from the same run. Same-run ratio, geomean
    //     across the swept cardinalities, fig_obs style. This is the
    //     sustained price of the checkpoint cadence — the pause gate
    //     only sees the per-cut stall.
    if max_cadence_overhead > 0.0 {
        let delta: Vec<Point> = points(&current, "HAMLET-delta")
            .into_iter()
            .filter(|p| p.figure == "fig_checkpoint")
            .collect();
        let bare: Vec<Point> = points(&current, "HAMLET-nockpt")
            .into_iter()
            .filter(|p| p.figure == "fig_checkpoint")
            .collect();
        let mut log_sum = 0.0f64;
        let mut n = 0u32;
        for dp in &delta {
            let Some(np) = bare.iter().find(|p| p.x == dp.x) else {
                continue;
            };
            let ratio = dp.throughput / np.throughput.max(f64::MIN_POSITIVE);
            println!(
                "     fig_checkpoint/{} keys: delta-cadence {:.0} ev/s = {ratio:.3}x of \
                 no-checkpoint {:.0} ev/s",
                dp.x, dp.throughput, np.throughput
            );
            log_sum += ratio.max(f64::MIN_POSITIVE).ln();
            n += 1;
        }
        let floor = 1.0 - max_cadence_overhead;
        if n == 0 {
            println!(
                "FAIL fig_checkpoint: delta-cadence pair missing from {current_path} \
                 (run the sweep or pass --max-cadence-overhead 0)"
            );
            failures += 1;
        } else {
            let geomean = (log_sum / n as f64).exp();
            if geomean >= floor {
                println!(
                    "OK   fig_checkpoint: delta cadence = {geomean:.3}x of no-checkpoint \
                     (geomean of {n} cardinalities, needs >= {floor:.3}x)"
                );
            } else {
                println!(
                    "FAIL fig_checkpoint: delta cadence = {geomean:.3}x of no-checkpoint \
                     (geomean of {n} cardinalities, needs >= {floor:.3}x — cutting a \
                     delta is taxing the hot path)"
                );
                failures += 1;
            }
        }
    }

    // 11. A delta must actually be incremental: at the 10⁴-key point —
    //     where at most CUT_CADENCE of the keys are touched between
    //     cuts — the steady-state mean delta record must stay below the
    //     configured fraction of the full base size. Same-run byte
    //     ratio, machine-independent. (At low cardinality every
    //     partition is dirty by the next cut and deltas legitimately
    //     approach the base size, so only the high-cardinality point is
    //     gated.)
    if max_delta_ratio > 0.0 {
        let point = points(&current, "HAMLET-delta")
            .into_iter()
            .find(|p| p.figure == "fig_checkpoint" && p.x == "10000");
        match point {
            Some(p) if p.delta_bytes > 0.0 && p.checkpoint_bytes > 0.0 => {
                let ratio = p.delta_bytes / p.checkpoint_bytes;
                if ratio <= max_delta_ratio {
                    println!(
                        "OK   fig_checkpoint/10000 HAMLET-delta: mean delta {:.0} B = \
                         {ratio:.3}x of base {:.0} B (needs <= {max_delta_ratio:.3}x)",
                        p.delta_bytes, p.checkpoint_bytes
                    );
                } else {
                    println!(
                        "FAIL fig_checkpoint/10000 HAMLET-delta: mean delta {:.0} B = \
                         {ratio:.3}x of base {:.0} B (needs <= {max_delta_ratio:.3}x — \
                         deltas are re-encoding most of the state)",
                        p.delta_bytes, p.checkpoint_bytes
                    );
                    failures += 1;
                }
            }
            _ => {
                println!(
                    "FAIL fig_checkpoint: HAMLET-delta 10000-key point (with delta and \
                     base sizes) missing from {current_path} (run the sweep or pass \
                     --max-delta-ratio 0)"
                );
                failures += 1;
            }
        }
    }

    // 12. Dynamic sharing must not cost more than it saves: `HAMLET`
    //     against `HAMLET-noshare` on the diverse workload of the two
    //     fig12 sweeps, both from the same run. Same-run ratio, geomean
    //     across all points of both sweeps, fig_batch style. If
    //     per-event bookkeeping creeps back into the shared path
    //     (snapshot expressions that grow with the graphlet, event
    //     clones, per-event allocation), never sharing pulls ahead and
    //     this ratio falls.
    if min_dynamic_ratio > 0.0 {
        let in_fig12 = |p: &Point| p.figure == "fig12_events" || p.figure == "fig12_queries";
        let dynamic: Vec<Point> = (points(&current, "HAMLET").into_iter())
            .filter(in_fig12)
            .collect();
        let noshare: Vec<Point> = (points(&current, "HAMLET-noshare").into_iter())
            .filter(in_fig12)
            .collect();
        let mut log_sum = 0.0f64;
        let mut n = 0u32;
        for dp in &dynamic {
            let Some(np) = (noshare.iter()).find(|p| p.figure == dp.figure && p.x == dp.x) else {
                continue;
            };
            let ratio = dp.throughput / np.throughput.max(f64::MIN_POSITIVE);
            println!(
                "     {}/{}: dynamic {:.0} ev/s = {ratio:.3}x of never-share {:.0} ev/s",
                dp.figure, dp.x, dp.throughput, np.throughput
            );
            log_sum += ratio.max(f64::MIN_POSITIVE).ln();
            n += 1;
        }
        if n == 0 {
            println!(
                "FAIL fig12: dynamic-vs-noshare sweeps missing from {current_path} \
                 (run the sweeps or pass --min-dynamic-ratio 0)"
            );
            failures += 1;
        } else {
            let geomean = (log_sum / n as f64).exp();
            let verdict = if geomean >= min_dynamic_ratio {
                "OK  "
            } else {
                failures += 1;
                "FAIL"
            };
            println!(
                "{verdict} fig12: dynamic sharing = {geomean:.3}x of never sharing \
                 (geomean of {n} points, needs >= {min_dynamic_ratio:.3}x)"
            );
        }
    }

    if failures > 0 {
        eprintln!("perf gate: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("perf gate: all checks passed");
}
