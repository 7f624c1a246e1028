//! `hamlet_benchmark`: the repository's pipeline-level benchmark.
//!
//! One workload per invocation (`--workload NAME`), end-to-end metrics
//! with tracing off (`--trace 0`) or per-layer metrics from the traced
//! drive (`--trace 1`); the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Without
//! `--workload` it runs all four and ends with a summary whose last key is
//! `"claim": null` — the benchmark measures, it claims nothing. See
//! `README.md` beside this file for every metric and workload.

#![forbid(unsafe_code)]

mod drive;
mod json;
mod probe;
mod staged;
mod stats;
mod workloads;

use json::Json;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Prepared, Res, Workload, WORKLOADS};

/// `--seconds` default; equals `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 30;
/// Closed-loop repetitions: at least / at most per run.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 64;
/// Setup passes per run, one after each closed-loop repetition: at most.
const MAX_SETUPS: usize = 24;
/// Open-loop runs per traced run, until one has a valid generator lag.
const OPEN_LOOP_TRIES: usize = 3;
/// On-demand cuts per store probe (the fastest is reported).
const CUT_TRIES: usize = 5;

/// Metric name, unit, value — in the order `BENCHMARK.json` lists them.
type Metrics = Vec<(&'static str, &'static str, f64)>;

/// What one run of one workload produced.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    list: bool,
    smoke: bool,
    repin: bool,
    repeat: usize,
}

const USAGE: &str = "usage: hamlet_benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--repeat N] [--smoke] [--repin] [--list]";

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut a = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        list: false,
        smoke: false,
        repin: false,
        repeat: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        let number = |s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: `{s}` is not a whole number\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if workloads::find(&name).is_none() {
                    return Err(format!("unknown workload `{name}` (try --list)"));
                }
                a.workload = Some(name);
            }
            "--seed" => a.seed = number(value("a number")?)?,
            "--seconds" => a.seconds = number(value("a number")?)?.max(1),
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => a.trace = true,
            "--repeat" => a.repeat = number(value("a number")?)? as usize,
            "--smoke" => a.smoke = true,
            "--repin" => a.repin = true,
            "--list" => a.list = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(a)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_per_event(d: Duration, events: u64) -> f64 {
    d.as_nanos() as f64 / events.max(1) as f64
}

/// One setup pass: generate the input, parse the queries, spawn the
/// pipeline (workload analysis, template compile, thread start). The
/// spawned pipeline is drained again outside the timed part.
fn setup_once(w: &Workload, seed: u64, smoke: bool) -> Res<(workloads::Inputs, Duration)> {
    let t = Instant::now();
    let inputs = w.inputs(seed, smoke)?;
    let source = drive::Replay::unmarked(Vec::new());
    let handle = drive::builder(w, &inputs, None)
        .spawn(source, drive::Collect::default())
        .map_err(|e| format!("spawn: {e}"))?;
    let setup = t.elapsed();
    handle.drain();
    Ok((inputs, setup))
}

/// Start-up check that the load is the pinned one. `--repin` prints the
/// pins of the load as generated instead (for a deliberate change of
/// `hamlet-stream` or of the engine's semantics); `--smoke` loads are not
/// pinned.
fn check_load(w: &Workload, args: &Args, p: &Prepared) -> Res<()> {
    if args.repin {
        println!("# {}: {:?}", w.name, workloads::pin_of(args.seed, p));
        Ok(())
    } else if args.smoke {
        Ok(())
    } else {
        workloads::check_pins(w, args.seed, p)
    }
}

/// Operations attempted and failed over a run's phases: every phase
/// attempts each reference result and each event once.
struct Tally {
    per_phase: u64,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn new(p: &Prepared) -> Tally {
        Tally {
            per_phase: (p.reference.len() + p.inputs.delivered.len()) as u64,
            attempted: 0,
            failed: 0,
        }
    }

    fn add(&mut self, m: workloads::Mismatch, late: u64) {
        self.attempted += self.per_phase;
        self.failed += m.failed() + late;
    }
}

/// The closed-loop repetitions of one run.
#[derive(Default)]
struct ClosedLoop {
    /// Wall of each repetition, seconds.
    walls: Vec<f64>,
    /// Host slowdown the probe saw during each repetition.
    slowdowns: Vec<f64>,
    /// `PipelineReport::peak_mem` summed over shards; a deterministic
    /// count, so every repetition must report the same.
    peak_state: Option<usize>,
}

impl ClosedLoop {
    fn repeat(&mut self, w: &Workload, p: &Prepared, tally: &mut Tally) -> Res<()> {
        let run = drive::closed_loop(w, p, false)?;
        self.walls.push(run.wall().as_secs_f64());
        self.slowdowns.push(run.slowdown());
        match self.peak_state {
            Some(first) if first != run.peak_state => {
                println!(
                    "# {}: peak state differs between repetitions ({first} vs {} bytes)",
                    w.name, run.peak_state
                );
                self.peak_state = Some(first.max(run.peak_state));
            }
            Some(_) => {}
            None => self.peak_state = Some(run.peak_state),
        }
        let (m, late) = drive::check(run, p);
        tally.add(m, late);
        Ok(())
    }

    /// Each repetition's wall ÷ its host slowdown: what it would have
    /// taken on a quiet host. Ascending.
    fn quiet_walls(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .walls
            .iter()
            .zip(&self.slowdowns)
            .map(|(wall, slowdown)| wall / slowdown)
            .collect();
        stats::sort(&mut v);
        v
    }
}

/// End-to-end metrics, tracing off: closed-loop repetitions with a setup
/// pass after each, for as many whole cycles as fit into `--seconds`
/// counted from `started`.
fn run_end_to_end(w: &Workload, args: &Args, started: Instant) -> Res<Outcome> {
    let (inputs, first) = setup_once(w, args.seed, args.smoke)?;
    let mut setups = vec![first.as_secs_f64()];
    let p = Prepared::new(w, inputs)?;
    check_load(w, args, &p)?;
    let mut tally = Tally::new(&p);

    let (min_reps, max_reps) = if args.smoke {
        (1, 1)
    } else {
        (MIN_REPS, MAX_REPS)
    };
    let mut closed = ClosedLoop::default();
    let mut cycles = Vec::new();
    loop {
        let cycle = Instant::now();
        closed.repeat(w, &p, &mut tally)?;
        if setups.len() < MAX_SETUPS && !args.smoke {
            setups.push(setup_once(w, args.seed, false)?.1.as_secs_f64());
        }
        cycles.push(cycle.elapsed().as_secs_f64());
        let reps = closed.walls.len();
        // No further cycle when a typical one would overrun the budget.
        let typical = stats::median_of(cycles.clone());
        let out_of_time = started.elapsed().as_secs_f64() + typical > args.seconds as f64;
        if reps >= max_reps || (reps >= min_reps && out_of_time) {
            break;
        }
    }
    stats::sort(&mut setups);
    let quiet = closed.quiet_walls();
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# {}: closed loop {} repetitions: wall / host slowdown: median {:.4} s, fastest {:.4} q1 \
         {:.4} q3 {:.4} s; walls in run order: {}; host slowdown: {}",
        w.name,
        quiet.len(),
        stats::median(&quiet),
        quiet.first().copied().unwrap_or(f64::NAN),
        stats::percentile(&quiet, 25.0),
        stats::percentile(&quiet, 75.0),
        list(&closed.walls),
        list(&closed.slowdowns),
    );
    println!(
        "# {}: setup {} passes: fastest {:.4} s, median {:.4} s",
        w.name,
        setups.len(),
        setups.first().copied().unwrap_or(f64::NAN),
        stats::median(&setups),
    );
    println!(
        "# {}: failed_share {:.6} ({} of {})",
        w.name,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted,
    );
    let events = p.inputs.delivered.len() as f64;
    let metrics = vec![
        ("throughput_eps", "1/s", events / stats::median(&quiet)),
        (
            "peak_state_mb",
            "MB",
            closed.peak_state.unwrap_or(0) as f64 / (1024.0 * 1024.0),
        ),
        ("setup_s", "s", setups.first().copied().unwrap_or(f64::NAN)),
    ];
    Ok(Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}

/// Per-layer metrics: bare engines, the traced staged drive, the sampled
/// pipeline and the checkpoint / recovery probe.
fn run_traced(w: &Workload, args: &Args) -> Res<Outcome> {
    use hamlet_core::{EngineConfig, ParallelEngine, SharingPolicy};

    let inputs = w.inputs(args.seed, args.smoke)?;
    let p = Prepared::new(w, inputs)?;
    check_load(w, args, &p)?;
    let events = p.inputs.delivered.len() as u64;
    let mut tally = Tally::new(&p);

    // Bare engine under the three sharing policies (never-share doubled
    // as the reference), and the offline sharded path.
    let dynamic = workloads::bare_engine(&p.inputs, p.inorder(), SharingPolicy::Dynamic)?;
    let always = workloads::bare_engine(&p.inputs, p.inorder(), SharingPolicy::AlwaysShare)?;
    let share_groups = dynamic.engine.num_groups();
    let (dyn_wall, always_wall, compile) = (dynamic.wall, always.wall, dynamic.compile);
    for mut run in [dynamic, always] {
        tally.add(workloads::compare(&mut run.results, &p.reference), 0);
    }
    let par = ParallelEngine::new(
        p.inputs.reg.clone(),
        p.inputs.queries.clone(),
        EngineConfig::default(),
        w.workers,
    )
    .map_err(|e| format!("parallel engine: {e}"))?;
    let t = Instant::now();
    let mut par_report = par.run(p.inorder());
    let par_wall = t.elapsed();
    tally.add(workloads::compare(&mut par_report.results, &p.reference), 0);

    // The staged drive, spans on then off.
    let traced = staged::drive(w, &p, true)?;
    let untraced = staged::drive(w, &p, false)?;
    let self_ns = staged::self_times(&traced.spans);
    let layer_ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let per_event = |name: &str| layer_ns(name) / events.max(1) as f64;
    let has_store = w.checkpoint_every.is_some();
    // What the live pipeline also does: everything but the recovery
    // section, and the store layers only where the pipeline has a store.
    let staged_total: f64 = staged::LAYERS
        .iter()
        .filter(|l| !matches!(**l, "store.load_chain" | "store.restore_chain"))
        .filter(|l| has_store || !l.starts_with("store."))
        .map(|l| layer_ns(l))
        .sum();
    let engine_ns = layer_ns("executor") + layer_ns("executor.flush");
    let median_ms = |name: &str| stats::median_of(staged::durations_ms(&traced.spans, name));
    if !traced.restore_exact {
        println!(
            "# {}: engines restored from the staged chains flushed different results",
            w.name
        );
    }
    let restore_failed = u64::from(!traced.restore_exact);
    let shard_skew = {
        let max = traced.shard_events.iter().copied().max().unwrap_or(0) as f64;
        let mean = traced.shard_events.iter().sum::<u64>() as f64
            / traced.shard_events.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    };
    let trace_path = drive::out_dir().join(format!("trace_{}.json", w.name));
    std::fs::create_dir_all(drive::out_dir())
        .and_then(|()| std::fs::write(&trace_path, staged::chrome_trace(&traced.spans, w.name)))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!(
        "# {}: {} spans written to {}",
        w.name,
        traced.spans.len(),
        trace_path.display()
    );
    let run_stats = traced.stats.runs;
    let bursts = run_stats.shared_bursts + run_stats.solo_bursts;
    tally.add(traced.mismatch, traced.late);
    tally.add(untraced.mismatch, untraced.late);

    // The live pipeline, observed from outside.
    let closed = drive::closed_loop(w, &p, true)?;
    let (closed_wall, depths, cadence_cuts) = (closed.wall(), closed.depths.clone(), closed.cuts);
    let (m, late) = drive::check(closed, &p);
    tally.add(m, late);
    // An open loop whose generator ran late measured the host: try again,
    // and say so if the last try is no better.
    let mut tries = 0;
    let (open, lag_p99, lag_max) = loop {
        tries += 1;
        let open = drive::open_loop(w, &p, true)?;
        let (lag_p99, lag_max) = drive::lag_ms(&open.paced);
        if lag_p99 <= drive::LAG_LIMIT_MS || tries == OPEN_LOOP_TRIES || args.smoke {
            break (open, lag_p99, lag_max);
        }
        println!(
            "# {}: open loop {tries} discarded: the generator's own lag p99 is {lag_p99:.3} ms \
             (limit {} ms)",
            w.name,
            drive::LAG_LIMIT_MS
        );
    };
    if lag_p99 > drive::LAG_LIMIT_MS && !args.smoke {
        println!(
            "# {}: INVALID open loop: the generator's own lag p99 is {lag_p99:.3} ms (limit {} \
             ms) in each of {tries} tries; the host is too busy to measure latency, and the \
             latency.* values below measure the host",
            w.name,
            drive::LAG_LIMIT_MS
        );
    }
    let lat = drive::latencies(w, &p, &open)?;
    let (p50, p90) = lat.fastest_span();
    let top = stats::highest_supported(lat.sorted_ms.len()).unwrap_or(50.0);
    println!(
        "# {}: open loop at {} ev/s: {} timed results over {} window closes ({} expected); whole \
         run: p50 {:.3} p90 {:.3} p99 {:.3} max {:.3} ms, highest supported percentile p{top} = \
         {:.3} ms; p50/p90 per span: {}",
        w.name,
        w.offered_eps,
        lat.sorted_ms.len(),
        lat.closes,
        lat.expected,
        stats::percentile(&lat.sorted_ms, 50.0),
        stats::percentile(&lat.sorted_ms, 90.0),
        stats::percentile(&lat.sorted_ms, 99.0),
        lat.sorted_ms.last().copied().unwrap_or(0.0),
        stats::percentile(&lat.sorted_ms, top),
        lat.spans
            .iter()
            .map(|(p50, p90)| format!("{p50:.2}/{p90:.2}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let blocked_share = if open.paced.wall > Duration::ZERO {
        open.paced.outside.as_secs_f64() / open.paced.wall.as_secs_f64()
    } else {
        0.0
    };
    let (m, late) = drive::check(open.run, &p);
    tally.add(m, late);
    let probe = drive::store_probe(w, &p, CUT_TRIES)?;
    tally.add(probe.mismatch, probe.late);
    tally.failed += restore_failed;
    let (attempted, failed) = (tally.attempted, tally.failed);

    let closed_ns = ns_per_event(closed_wall, events);
    let bare_ns = ns_per_event(dyn_wall, events);
    let metrics = vec![
        ("stream.generate_s", "s", p.inputs.generate.as_secs_f64()),
        ("query.parse_ms", "ms", ms(p.inputs.parse)),
        ("workload.compile_ms", "ms", ms(compile)),
        ("workload.share_groups", "count", share_groups as f64),
        ("source.pull_ns_per_event", "ns", per_event("source")),
        ("source.blocked_share", "ratio", blocked_share),
        ("source.lag_p99_ms", "ms", lag_p99),
        ("source.lag_max_ms", "ms", lag_max),
        (
            "watermark.reorder_ns_per_event",
            "ns",
            per_event("watermark"),
        ),
        (
            "watermark.reorder_depth_peak",
            "count",
            traced.reorder_depth_peak as f64,
        ),
        ("watermark.late_dropped", "count", traced.late as f64),
        ("route.ns_per_event", "ns", per_event("route")),
        ("route.shard_skew", "ratio", shard_skew),
        (
            "executor.process_batch_ns_per_event",
            "ns",
            per_event("executor"),
        ),
        ("executor.flush_ms", "ms", layer_ns("executor.flush") / 1e6),
        (
            "executor.results",
            "count",
            traced.stats.windows_emitted as f64,
        ),
        (
            "executor.expiry_pushes",
            "count",
            traced.stats.expiry_pushes as f64,
        ),
        (
            "executor.expiry_tombstones",
            "count",
            traced.stats.expiry_tombstones as f64,
        ),
        (
            "executor.state_bytes_peak",
            "bytes",
            traced.state_bytes_peak as f64,
        ),
        ("sink.accept_ns_per_event", "ns", per_event("sink")),
        (
            "staged.total_ns_per_event",
            "ns",
            staged_total / events.max(1) as f64,
        ),
        (
            "staged.engine_share",
            "ratio",
            engine_ns / staged_total.max(1.0),
        ),
        ("run.shared_bursts", "count", run_stats.shared_bursts as f64),
        ("run.solo_bursts", "count", run_stats.solo_bursts as f64),
        ("run.snapshots", "count", run_stats.snapshots() as f64),
        ("run.merges", "count", run_stats.merges as f64),
        ("run.splits", "count", run_stats.splits as f64),
        (
            "optimizer.shared_share",
            "ratio",
            run_stats.shared_bursts as f64 / bursts.max(1) as f64,
        ),
        ("engine.bare_ns_per_event", "ns", bare_ns),
        (
            "optimizer.dyn_vs_noshare",
            "ratio",
            ns_per_event(p.reference_wall, events) / bare_ns,
        ),
        (
            "optimizer.dyn_vs_static",
            "ratio",
            ns_per_event(always_wall, events) / bare_ns,
        ),
        (
            "parallel.run_ns_per_event",
            "ns",
            ns_per_event(par_wall, events),
        ),
        (
            "parallel.vs_engine_ratio",
            "ratio",
            ns_per_event(par_wall, events) / bare_ns,
        ),
        ("pipeline.closed_ns_per_event", "ns", closed_ns),
        (
            "pipeline.vs_staged_ratio",
            "ratio",
            closed_ns / (staged_total / events.max(1) as f64),
        ),
        ("channel.worker_depth_mean", "count", depths.worker_mean()),
        (
            "channel.worker_depth_max",
            "count",
            depths.worker_max as f64,
        ),
        ("sink.depth_mean", "count", depths.sink_mean()),
        ("store.cut_full_ms", "ms", median_ms("store.cut_full")),
        ("store.cut_delta_ms", "ms", median_ms("store.cut_delta")),
        ("store.base_bytes", "bytes", traced.base_bytes),
        ("store.delta_bytes", "bytes", traced.delta_bytes),
        ("store.append_ms", "ms", median_ms("store.append")),
        ("store.load_chain_ms", "ms", median_ms("store.load_chain")),
        (
            "store.restore_chain_ms",
            "ms",
            median_ms("store.restore_chain"),
        ),
        ("store.cadence_cuts", "count", cadence_cuts as f64),
        (
            "store.live_cut_ms",
            "ms",
            probe.cut_ms.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("store.live_cut_bytes", "bytes", probe.cut_bytes as f64),
        ("store.resume_s", "s", probe.resume_s),
        (
            "trace.overhead_ratio",
            "ratio",
            traced.wall_ns as f64 / untraced.wall_ns.max(1) as f64,
        ),
        ("latency.p50_ms", "ms", p50),
        ("latency.p90_ms", "ms", p90),
        ("latency.over_limit_share", "ratio", lat.over_limit_share),
        (
            "failed_share",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
    })
}

fn run_workload(w: &Workload, args: &Args) -> Res<Outcome> {
    let out = if args.trace {
        run_traced(w, args)?
    } else {
        run_end_to_end(w, args, Instant::now())?
    };
    for (name, unit, value) in &out.metrics {
        println!("{:<20} {name:<40} {value:>18.6} {unit}", w.name);
    }
    Ok(out)
}

/// The contract's result line.
fn result_line(out: &Outcome) -> Json {
    let metrics = out
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Int(out.attempted.max(1))),
        ("failed", Json::Int(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// `--repeat N`: runs the selected workloads N times with tracing off and
/// prints, per end-to-end metric × workload, min / median / max and the
/// spread against the metric's bound.
fn stability_report(selected: &[&'static Workload], args: &Args) -> Res<bool> {
    let mut table: Vec<(&str, &str, Vec<f64>)> = Vec::new();
    let mut ok = true;
    for round in 1..=args.repeat {
        for w in selected {
            println!("# round {round} of {}: {}", args.repeat, w.name);
            let out = run_end_to_end(w, args, Instant::now())?;
            ok &= out.failed == 0;
            for (name, _, value) in out.metrics {
                match table
                    .iter_mut()
                    .find(|(wl, n, _)| *wl == w.name && *n == name)
                {
                    Some((_, _, v)) => v.push(value),
                    None => table.push((w.name, name, vec![value])),
                }
            }
        }
    }
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (wl, name, values) in &table {
        let s = stats::spread(values);
        let bound = manifest_bound(name).unwrap_or(f64::NAN);
        println!(
            "{wl:<20} {name:<18} {:>14.5} {:>14.5} {:>14.5} {:>8.4} {bound:>6.2}{}",
            s.min,
            s.median,
            s.max,
            s.spread,
            if s.spread > bound { "  OVER" } else { "" }
        );
    }
    Ok(ok)
}

/// The benchmark's manifest at the repository root.
const MANIFEST: &str = include_str!("../../../../../BENCHMARK.json");

/// The bound `BENCHMARK.json` fixes for an end-to-end metric.
fn manifest_bound(metric: &str) -> Option<f64> {
    let entry = MANIFEST.split_once(&format!("\"name\": \"{metric}\""))?.1;
    let bound = entry.split_once("\"bound\":")?.1;
    bound.split(['}', ',']).next()?.trim().parse().ok()
}

fn run(args: &Args) -> Res<bool> {
    if args.list {
        for w in &WORKLOADS {
            println!(
                "{:<20} {:?}, {} events, {} worker(s), open loop at {} ev/s",
                w.name,
                w.dataset,
                w.events_per_min * w.minutes,
                w.workers,
                w.offered_eps
            );
        }
        return Ok(true);
    }
    let selected: Vec<&'static Workload> = match &args.workload {
        Some(name) => workloads::find(name).into_iter().collect(),
        None => WORKLOADS.iter().collect(),
    };
    if args.repeat > 0 {
        return stability_report(&selected, args);
    }
    let mut ok = true;
    let mut summary = Vec::new();
    for w in &selected {
        let out = run_workload(w, args)?;
        ok &= out.failed == 0;
        let line = result_line(&out);
        println!("{}", line.render());
        summary.push((w.name.to_string(), line));
    }
    if args.workload.is_none() {
        let all = Json::Obj(vec![
            ("workloads".to_string(), Json::Obj(summary)),
            ("claim".to_string(), Json::Null),
        ]);
        println!("{}", all.render());
    }
    Ok(ok)
}

/// Set (to the CPU's number) in a process that [`pin_to_one_cpu`] has
/// confined; setting it by hand to anything runs the benchmark unconfined.
const PINNED: &str = "HAMLET_BENCHMARK_PINNED";

/// The CPUs this process may run on, from `Cpus_allowed_list` of
/// `/proc/self/status` (`0-1`, `0,2-3`, …).
fn allowed_cpus(status: &str) -> Vec<u32> {
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<u32>(), hi.trim().parse::<u32>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Confines the benchmark — every thread of the pipeline, the source and
/// the sink — to one CPU, by replacing this process with `taskset -c CPU`
/// of itself. The host's CPUs are hyperthreads shared with other tenants,
/// each slowed by its own neighbour, and a batch handed to a thread on
/// another virtual CPU costs a trip through the hypervisor: on two CPUs
/// the same code's throughput spread 0.08–0.25 between runs, on one
/// 0.04–0.10 (README, "Noise"). Without `taskset` the run goes on
/// unconfined, and says so.
#[cfg(unix)]
fn pin_to_one_cpu(argv: &[String]) {
    use std::os::unix::process::CommandExt;
    if std::env::var_os(PINNED).is_some() {
        return;
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let (Some(cpu), Ok(exe)) = (allowed_cpus(&status).pop(), std::env::current_exe()) else {
        eprintln!("hamlet_benchmark: cannot tell which CPUs are allowed; running unconfined");
        return;
    };
    let err = std::process::Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(argv)
        .env(PINNED, cpu.to_string())
        .exec();
    eprintln!("hamlet_benchmark: taskset: {err}; running unconfined, timings will be noisier");
}

#[cfg(not(unix))]
fn pin_to_one_cpu(_argv: &[String]) {}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    pin_to_one_cpu(&argv);
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hamlet_benchmark: outputs differ from the reference (failed_share > 0)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hamlet_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Res<Args> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "rides_ops_w2",
            "--seed",
            "42",
            "--seconds",
            "9",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("rides_ops_w2"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 9, true));
        assert!(args(&["--traced"]).expect("valid").trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        let d = args(&[]).expect("valid");
        assert_eq!(
            (d.seed, d.seconds),
            (workloads::DEFAULT_SEED, DEFAULT_SECONDS)
        );
    }

    #[test]
    fn allowed_cpus_are_read_from_the_status_file() {
        let status = "Name:\tx\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\nMems_allowed:\t1\n";
        assert_eq!(allowed_cpus(status), vec![0, 1]);
        assert_eq!(allowed_cpus("Cpus_allowed_list:\t0,2-3\n"), vec![0, 2, 3]);
        assert_eq!(allowed_cpus("Cpus_allowed_list:\t5\n"), vec![5]);
        assert!(allowed_cpus("Name:\tx\n").is_empty());
    }

    #[test]
    fn bounds_come_from_the_manifest() {
        assert_eq!(manifest_bound("throughput_eps"), Some(0.25));
        assert_eq!(manifest_bound("peak_state_mb"), Some(0.15));
        assert_eq!(manifest_bound("setup_s"), Some(0.25));
        assert_eq!(manifest_bound("latency.p50_ms"), None);
        assert_eq!(manifest_bound("no_such_metric"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            metrics: vec![("setup_s", "s", 0.25)],
            attempted: 10,
            failed: 0,
        };
        assert_eq!(
            result_line(&out).render(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }

    /// `--smoke`: one workload, both modes, at 1/50 size — outputs equal
    /// the reference and every metric is a finite number. One test per
    /// workload, so that they run side by side.
    fn smoke(name: &str) {
        let w = workloads::find(name).expect("a workload of BENCHMARK.json");
        for trace in [false, true] {
            let mut a = args(&["--smoke", "--seconds", "1"]).expect("valid");
            a.trace = trace;
            let out = run_workload(w, &a).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.failed, 0, "{name} trace={trace}");
            assert!(out.attempted > 0);
            for (metric, unit, value) in &out.metrics {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                let listed = format!("\"name\": \"{metric}\",\n      \"unit\": \"{unit}\"");
                assert!(
                    MANIFEST.contains(&listed),
                    "BENCHMARK.json lacks {metric} [{unit}]"
                );
            }
            let section = if trace { "per_layer" } else { "end_to_end" };
            let listed = MANIFEST
                .split("\n  \"")
                .find(|part| part.starts_with(section))
                .map_or(0, |part| part.matches("\"unit\"").count());
            assert_eq!(listed, out.metrics.len(), "{section} of BENCHMARK.json");
        }
    }

    #[test]
    fn smoke_rides_shared_w2() {
        smoke("rides_shared_w2");
    }

    #[test]
    fn smoke_stock_diverse_w1() {
        smoke("stock_diverse_w1");
    }

    #[test]
    fn smoke_rides_highcard_w1() {
        smoke("rides_highcard_w1");
    }

    #[test]
    fn smoke_rides_ops_w2() {
        smoke("rides_ops_w2");
    }
}
