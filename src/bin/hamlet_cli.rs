//! `hamlet_cli` — run a generated workload through the online pipeline
//! and report aggregates, sharing statistics, and the compiled plan.
//!
//! ```text
//! # One run, with the plan and the sharing statistics:
//! cargo run --release --bin hamlet_cli -- \
//!     --dataset ridesharing --rate 10000 --minutes 2 --queries 10 \
//!     --policy dynamic --window 60 --explain
//!
//! # Paced source, out-of-order injection, live metrics:
//! cargo run --release --bin hamlet_cli -- \
//!     --dataset ridesharing --rate 60000 --queries 10 --window 30 \
//!     --workers 4 --eps 50000 --max-lateness 5 --slack 5 --metrics-ms 250
//!
//! # Keep a run durable with periodic delta checkpoints, then kill it
//! # and resume from the chain on disk:
//! cargo run --release --bin hamlet_cli -- \
//!     --dataset ridesharing --rate 60000 --checkpoint-every 10000 \
//!     --state /tmp/hamlet-ck
//! cargo run --release --bin hamlet_cli -- \
//!     --dataset ridesharing --rate 60000 --resume --state /tmp/hamlet-ck
//!
//! # One-shot: cut a full checkpoint after ~50k events and stop:
//! cargo run --release --bin hamlet_cli -- \
//!     --dataset ridesharing --rate 60000 --checkpoint-after 50000 \
//!     --state /tmp/hamlet-ck
//! ```
//!
//! Every run is the pipeline (source → reorder → shard workers → sink);
//! at one worker its results are those of `HamletEngine::process` +
//! `flush`, byte for byte. A leading `pipeline` word is accepted and
//! selects nothing. Every flag is one row of [`FLAGS`], which also
//! writes `--help`.
//!
//! Datasets: ridesharing | nyc | smarthome | stock (stock uses the
//! diverse predicate-heavy workload of Figs. 12–13; the others use the
//! shared-Kleene workload of Fig. 9).
//!
//! `--state DIR` is a [`DirStore`] holding one base + delta chain.
//! `--checkpoint-every N` cuts a delta into it every N released events
//! (every `--compact-every`th cut a full base, compacting the chain);
//! `--checkpoint-after N` cuts one full record once N events are in and
//! stops the source; `--resume` restores the newest chain and continues
//! the same stream, regenerated deterministically from the seed, so the
//! chain's source cursor repositions it exactly.
//!
//! A churn script holds one op per line — `<ts> add <query-id>` or
//! `<ts> remove <query-id>`, with blank lines and `#` comments ignored —
//! applied when the pipeline watermark first reaches `<ts>`. Query ids
//! index the dataset's generated workload: ids below `--queries` name
//! the initial queries (remove them, then re-add them later), and ids at
//! or above it draw additional queries from the same generator, so
//! `120 add 10` grows a `--queries 10` workload at t=120:
//!
//! ```text
//! # drop query 3 two minutes in, bring in a fresh one at three
//! 120 remove 3
//! 180 add 10
//! ```

use hamlet::prelude::*;
use hamlet_stream::Dataset;
use std::fmt::{Display, Write};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    dataset: String,
    rate: u64,
    minutes: u64,
    queries: usize,
    window: u64,
    policy: SharingPolicy,
    mean_burst: f64,
    groups: u64,
    skew: f64,
    seed: u64,
    explain: bool,
    show_results: usize,
    workers: u32,
    eps: f64,
    slack: u64,
    max_lateness: u64,
    metrics_ms: u64,
    metrics_json: bool,
    trace_out: Option<String>,
    prom_out: Option<String>,
    checkpoint_after: u64,
    checkpoint_every: u64,
    compact_every: u64,
    state: Option<String>,
    resume: bool,
    churn_script: Option<String>,
}

/// One command-line flag. A switch has no `metavar` and its setter is
/// handed `"true"`; an error from `set` is reported under `name`.
struct Flag {
    name: &'static str,
    metavar: &'static str,
    help: &'static str,
    set: fn(&mut Args, &str) -> Result<(), String>,
}

/// Every flag the CLI takes, in `--help` order.
const FLAGS: &[Flag] = &[
    Flag {
        name: "--dataset",
        metavar: "NAME",
        help: "ridesharing | nyc | smarthome | stock",
        set: |a, v| parse(v, &mut a.dataset),
    },
    Flag {
        name: "--rate",
        metavar: "N",
        help: "generated events per minute",
        set: |a, v| parse(v, &mut a.rate),
    },
    Flag {
        name: "--minutes",
        metavar: "N",
        help: "stream length in minutes",
        set: |a, v| parse(v, &mut a.minutes),
    },
    Flag {
        name: "--queries",
        metavar: "K",
        help: "queries in the generated workload",
        set: |a, v| parse(v, &mut a.queries),
    },
    Flag {
        name: "--window",
        metavar: "SECS",
        help: "window length of every query",
        set: |a, v| parse(v, &mut a.window),
    },
    Flag {
        name: "--policy",
        metavar: "P",
        help: "dynamic | static | noshare",
        set: |a, v| policy(v).map(|p| a.policy = p),
    },
    Flag {
        name: "--burst",
        metavar: "B",
        help: "mean burst length of the generator",
        set: |a, v| parse(v, &mut a.mean_burst),
    },
    Flag {
        name: "--groups",
        metavar: "G",
        help: "distinct group-by keys",
        set: |a, v| parse(v, &mut a.groups),
    },
    Flag {
        name: "--skew",
        metavar: "Z",
        help: "Zipf skew of the keys (0 = uniform)",
        set: |a, v| parse(v, &mut a.skew),
    },
    Flag {
        name: "--seed",
        metavar: "S",
        help: "seed of the stream and the workload",
        set: |a, v| parse(v, &mut a.seed),
    },
    Flag {
        name: "--show",
        metavar: "N",
        help: "sample results to print",
        set: |a, v| parse(v, &mut a.show_results),
    },
    Flag {
        name: "--explain",
        metavar: "",
        help: "print the compiled plan before the run",
        set: |a, v| parse(v, &mut a.explain),
    },
    Flag {
        name: "--workers",
        metavar: "W",
        help: "shard workers, 1 to 64",
        set: |a, v| parse(v, &mut a.workers),
    },
    Flag {
        name: "--eps",
        metavar: "F",
        help: "offered wall-clock rate (0 = unpaced)",
        set: |a, v| parse(v, &mut a.eps),
    },
    Flag {
        name: "--slack",
        metavar: "TICKS",
        help: "reorder watermark slack; later events are dead-lettered",
        set: |a, v| parse(v, &mut a.slack),
    },
    Flag {
        name: "--max-lateness",
        metavar: "TICKS",
        help: "shuffle the stream so events trail its maximum by up to TICKS",
        set: |a, v| parse(v, &mut a.max_lateness),
    },
    Flag {
        name: "--metrics-ms",
        metavar: "MS",
        help: "live metrics interval (0 = quiet)",
        set: |a, v| parse(v, &mut a.metrics_ms),
    },
    Flag {
        name: "--metrics-json",
        metavar: "",
        help: "print each metrics snapshot as one JSON line",
        set: |a, v| parse(v, &mut a.metrics_json),
    },
    Flag {
        name: "--trace-out",
        metavar: "FILE",
        help: "write stage spans as Chrome trace_event JSON",
        set: |a, v| parse(v, a.trace_out.get_or_insert_default()),
    },
    Flag {
        name: "--prom-out",
        metavar: "FILE",
        help: "write the final metrics in Prometheus text format",
        set: |a, v| parse(v, a.prom_out.get_or_insert_default()),
    },
    Flag {
        name: "--state",
        metavar: "DIR",
        help: "checkpoint chain directory",
        set: |a, v| parse(v, a.state.get_or_insert_default()),
    },
    Flag {
        name: "--checkpoint-every",
        metavar: "N",
        help: "cut a delta checkpoint every N released events",
        set: |a, v| parse(v, &mut a.checkpoint_every),
    },
    Flag {
        name: "--compact-every",
        metavar: "K",
        help: "make every Kth cadence cut a full base",
        set: |a, v| parse(v, &mut a.compact_every),
    },
    Flag {
        name: "--checkpoint-after",
        metavar: "N",
        help: "cut one full checkpoint after N events, then stop",
        set: |a, v| parse(v, &mut a.checkpoint_after),
    },
    Flag {
        name: "--resume",
        metavar: "",
        help: "continue from the newest chain in --state",
        set: |a, v| parse(v, &mut a.resume),
    },
    Flag {
        name: "--churn-script",
        metavar: "FILE",
        help: "timestamped workload changes, lines `<ts> add|remove <query-id>`",
        set: |a, v| parse(v, a.churn_script.get_or_insert_default()),
    },
];

fn parse<T: FromStr>(v: &str, slot: &mut T) -> Result<(), String>
where
    T::Err: Display,
{
    *slot = v.parse().map_err(|e: T::Err| e.to_string())?;
    Ok(())
}

fn policy(v: &str) -> Result<SharingPolicy, String> {
    match v {
        "dynamic" => Ok(SharingPolicy::Dynamic),
        "static" => Ok(SharingPolicy::AlwaysShare),
        "noshare" => Ok(SharingPolicy::NeverShare),
        other => Err(format!("unknown policy {other}")),
    }
}

fn usage() -> String {
    let mut s = String::from("usage: hamlet_cli [pipeline] [FLAG ...]\n");
    for f in FLAGS {
        let flag = format!("{} {}", f.name, f.metavar);
        let _ = writeln!(s, "  {flag:<26}{}", f.help);
    }
    s
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dataset: "ridesharing".into(),
        rate: 10_000,
        minutes: 1,
        queries: 10,
        window: 60,
        policy: SharingPolicy::Dynamic,
        mean_burst: 40.0,
        groups: 8,
        skew: 0.0,
        seed: 7,
        explain: false,
        show_results: 5,
        workers: 1,
        eps: 0.0,
        slack: 0,
        max_lateness: 0,
        metrics_ms: 250,
        metrics_json: false,
        trace_out: None,
        prom_out: None,
        checkpoint_after: 0,
        checkpoint_every: 0,
        compact_every: 0,
        state: None,
        resume: false,
        churn_script: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    // Accepted and ignored, so invocations written with it keep working.
    it.next_if_eq("pipeline");
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            print!("{}", usage());
            std::process::exit(0);
        }
        let Some(flag) = FLAGS.iter().find(|f| f.name == a) else {
            return Err(format!("unknown argument {a}"));
        };
        let v = if flag.metavar.is_empty() {
            "true".into()
        } else {
            it.next().ok_or_else(|| format!("missing value for {a}"))?
        };
        (flag.set)(&mut args, &v).map_err(|e| format!("{a}: {e}"))?;
    }
    // Usage errors, all found before a stream is generated or a
    // directory created: what the workload builders, the generators and
    // the shard router assert (NaN fails its comparison too), and the
    // flags that mean nothing without another.
    let cut = args.checkpoint_after > 0 || args.checkpoint_every > 0 || args.resume;
    let checks = [
        (
            Dataset::from_name(&args.dataset).is_some(),
            "--dataset must be ridesharing, nyc, smarthome or stock",
        ),
        (args.window >= 1, "--window must be at least 1"),
        (args.groups >= 1, "--groups must be at least 1"),
        (args.mean_burst >= 1.0, "--burst must be at least 1"),
        (args.skew >= 0.0, "--skew must not be negative"),
        (
            (1..=64).contains(&args.workers),
            "--workers must be 1 to 64",
        ),
        (
            !cut || args.state.is_some(),
            "--checkpoint-after/--checkpoint-every/--resume need --state DIR",
        ),
        (
            args.checkpoint_after == 0 || !args.resume,
            "--checkpoint-after and --resume are mutually exclusive",
        ),
        (
            args.compact_every == 0 || args.checkpoint_every > 0,
            "--compact-every needs --checkpoint-every",
        ),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err((*what).into()),
        None => Ok(args),
    }
}

/// Reports a failure and exits: 2 when what the user passed is wrong,
/// 1 when the run itself failed.
fn die(code: i32, msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(2, format!("{e} (try --help)")));
    // A churn script references workload queries by id; ids at or above
    // `--queries` draw extra queries from the same deterministic
    // generator, so the pool is sized to the largest id the script adds.
    let script: Vec<(u64, bool, u32)> = match &args.churn_script {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(2, format!("read {path}: {e}")));
            parse_churn_script(&text).unwrap_or_else(|e| die(2, format!("{path}: {e}")))
        }
        None => Vec::new(),
    };
    let pool_size = script
        .iter()
        .filter(|(_, add, _)| *add)
        .map(|&(_, _, id)| id as usize + 1)
        .max()
        .unwrap_or(0)
        .max(args.queries);

    let gen = GenConfig {
        events_per_min: args.rate,
        minutes: args.minutes,
        mean_burst: args.mean_burst,
        num_groups: args.groups,
        group_skew: args.skew,
        seed: args.seed,
        max_lateness: args.max_lateness,
    };
    let dataset = Dataset::from_name(&args.dataset).expect("checked by parse_args");
    let reg = dataset.registry();
    let events = dataset.generate(&reg, &gen);
    let pool = dataset.workload(&reg, pool_size, args.window, args.seed);
    let queries: Vec<Query> = pool[..args.queries].to_vec();
    let schedule: Vec<(Ts, ChurnOp)> = script
        .iter()
        .map(|&(ts, add, id)| {
            let op = if add {
                ChurnOp::Add(pool[id as usize].clone())
            } else {
                ChurnOp::Remove(QueryId(id))
            };
            (Ts(ts), op)
        })
        .collect();
    run(&args, reg, events, queries, schedule);
}

/// Parses a churn script: one `<ts> add|remove <query-id>` per line;
/// blank lines and `#` comments are ignored. Each op fires when the
/// pipeline watermark first reaches its timestamp.
fn parse_churn_script(text: &str) -> Result<Vec<(u64, bool, u32)>, String> {
    let mut out = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(ts), Some(op), Some(id), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "line {}: expected `<ts> add|remove <query-id>`, got {line:?}",
                n + 1
            ));
        };
        let ts: u64 = ts
            .parse()
            .map_err(|e| format!("line {}: bad timestamp {ts:?}: {e}", n + 1))?;
        let id: u32 = id
            .parse()
            .map_err(|e| format!("line {}: bad query id {id:?}: {e}", n + 1))?;
        let add = match op {
            "add" => true,
            "remove" => false,
            other => {
                return Err(format!(
                    "line {}: unknown op {other:?} (want add or remove)",
                    n + 1
                ))
            }
        };
        out.push((ts, add, id));
    }
    Ok(out)
}

/// Writes an exporter artifact, failing loudly: an observability file
/// the user asked for silently missing is worse than a hard exit.
fn write_export(path: &str, what: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        die(1, format!("write {what} {path}: {e}"));
    }
    println!("{what} written to {path}");
}

/// A latency summary's `name value` pairs after its sample count, or
/// `no samples`: results emitted at the drain's flush barrier carry no
/// arrival stamp, and a run whose windows all close there has no
/// latency to report rather than a latency of zero.
fn latency(count: u64, parts: &[(&str, Duration)]) -> String {
    if count == 0 {
        return "no samples".into();
    }
    let parts: Vec<String> = parts.iter().map(|(k, d)| format!("{k} {d:?}")).collect();
    format!("{count} samples, {}", parts.join(" "))
}

/// Feeds the stream through the online pipeline, printing metrics
/// snapshots while it runs, then drains (or checkpoints) and summarizes.
fn run(
    args: &Args,
    reg: Arc<TypeRegistry>,
    events: Vec<Event>,
    queries: Vec<Query>,
    schedule: Vec<(Ts, ChurnOp)>,
) {
    // `--state DIR` is a DirStore: one file per chain record, written
    // atomically, compacted whenever a full base lands.
    let store: Option<Arc<DirStore>> = args.state.as_deref().map(|dir| {
        let st = DirStore::open(dir);
        Arc::new(st.unwrap_or_else(|e| die(2, format!("open checkpoint store {dir}: {e}"))))
    });

    // Resume: read the newest base + delta chain and reposition the
    // (deterministic, regenerated) stream at the tip record's source
    // cursor; the events the cut froze in the reorder buffer travel
    // inside the chain itself.
    let cursor = if args.resume {
        let st = store.as_ref().expect("checked by parse_args");
        let chain = st
            .load_chain()
            .unwrap_or_else(|e| die(2, format!("load checkpoint chain: {e}")));
        let Some(tip) = chain.last() else {
            die(
                2,
                format!(
                    "{} holds no checkpoint records — nothing to resume",
                    st.path().display()
                ),
            );
        };
        let tip_ck = PipelineCheckpoint::from_bytes(tip.as_bytes())
            .unwrap_or_else(|e| die(2, format!("decode chain tip: {e}")));
        println!(
            "restoring from {}: {} record(s) (base seq {} + {} delta(s)), tip seq {} at event {}",
            st.path().display(),
            chain.len(),
            chain[0].seq(),
            chain.len() - 1,
            tip.seq(),
            tip_ck.events_pulled(),
        );
        tip_ck.events_pulled() as usize
    } else {
        0
    };
    if cursor > events.len() {
        die(
            2,
            format!(
                "checkpoint cursor {cursor} beyond the generated stream ({} events) — \
                 different --rate/--minutes/--seed than the original run?",
                events.len()
            ),
        );
    }
    let feed = events[cursor..].to_vec();

    println!(
        "pipeline: dataset={} events={} queries={} workers={} offered_eps={} \
         max_lateness={} slack={}{}",
        args.dataset,
        events.len(),
        queries.len(),
        args.workers,
        if args.eps > 0.0 {
            format!("{:.0}", args.eps)
        } else {
            "unpaced".into()
        },
        args.max_lateness,
        args.slack,
        if args.resume {
            format!(" (resumed at event {cursor})")
        } else {
            String::new()
        },
    );
    let config = EngineConfig {
        policy: args.policy,
        ..EngineConfig::default()
    };
    if args.explain {
        match HamletEngine::new(reg.clone(), queries.clone(), config.clone()) {
            Ok(engine) => println!("\n{}", engine.explain()),
            Err(e) => die(1, e),
        }
    }
    // Capped dead-letter log: a slack/lateness mismatch can make a large
    // fraction of the stream late, and per-event stderr writes on the
    // ingest thread would throttle the very pipeline being measured. The
    // full count is in every metrics line and the drain summary.
    let mut dead_logged = 0u32;
    let churned = !schedule.is_empty();
    // Span ring size per lane when --trace-out is active: ~3 MB per lane
    // at 48 bytes per span, and long runs keep the most recent window
    // (drop-oldest; the drop count lands in the trace metadata and in
    // `dropped_spans` of every metrics line).
    const TRACE_CAPACITY: usize = 65_536;
    let mut builder = Pipeline::builder(reg, queries)
        .trace(if args.trace_out.is_some() {
            TRACE_CAPACITY
        } else {
            0
        })
        .engine_config(config)
        .workers(args.workers)
        .churn_at(schedule)
        .watermark(BoundedLateness::new(args.slack))
        .on_late(move |e| {
            if dead_logged < 3 {
                dead_logged += 1;
                eprintln!(
                    "dead-letter: late event at t={} (further drops counted silently)",
                    e.time
                );
            }
        });
    // Any run with a store keeps it attached: cadence cuts
    // (`--checkpoint-every`), one-shot cuts (`--checkpoint-after`), and
    // resumed runs that keep checkpointing all append to the same chain.
    if let Some(st) = &store {
        builder = builder.checkpoint_store(st.clone() as Arc<dyn CheckpointStore>);
        if args.checkpoint_every > 0 {
            builder = builder.checkpoint_every(args.checkpoint_every);
        }
        if args.compact_every > 0 {
            builder = builder.compact_every(args.compact_every);
        }
    }
    let replay = ReplaySource::new(feed);
    let source: Box<dyn Source> = if args.eps > 0.0 {
        Box::new(RateLimitedSource::new(replay, args.eps))
    } else {
        Box::new(replay)
    };
    let spawn = if args.resume {
        let st = store.as_deref().expect("checked by parse_args");
        (builder.resume_from(st, source, VecSink::new())).map_err(|e| e.to_string())
    } else {
        (builder.spawn(source, VecSink::new())).map_err(|e| e.to_string())
    };
    let mut handle = spawn.unwrap_or_else(|e| die(1, e));
    // Live view until the source is exhausted and the queues are empty —
    // or the checkpoint threshold is crossed.
    let mut cut_taken = false;
    loop {
        let m = handle.metrics();
        if args.metrics_json {
            println!("{}", m.to_json());
        } else if args.metrics_ms > 0 {
            println!(
                "[{:>7.2}s] in={} out={} late={} wm={} queues: reorder={} workers={:?} sink={} \
                 | latency {}",
                m.elapsed.as_secs_f64(),
                m.ingested,
                m.results,
                m.late,
                m.watermark.map(|w| w.ticks()).unwrap_or(0),
                m.reorder_depth,
                m.worker_depths,
                m.sink_depth,
                latency(
                    m.latency.count(),
                    &[("p50", m.latency.p50()), ("p99", m.latency.p99())]
                ),
            );
        }
        // Take the checkpoint at the threshold — or at end-of-stream if
        // the stream ran out first: the user asked for a checkpoint, so
        // never exit "successfully" without writing one.
        let stream_over = m.source_done && m.queued() == 0;
        if args.checkpoint_after > 0
            && !cut_taken
            && (m.ingested >= args.checkpoint_after || stream_over)
        {
            if m.ingested < args.checkpoint_after {
                eprintln!(
                    "warning: stream ended after {} events, before --checkpoint-after {}; \
                     checkpointing the end-of-stream state instead",
                    m.ingested, args.checkpoint_after
                );
            }
            cut_taken = true;
            let st = store.as_ref().expect("checked by parse_args");
            // A full cut at the next barrier — between two source
            // events, or after the last one: the coordinated cut appends
            // to the store itself and chains onto any `--checkpoint-every`
            // cadence cuts already taken.
            let cut = handle.cut(CutKind::Full).and_then(|ck| {
                let pc = PipelineCheckpoint::from_bytes(ck.as_bytes())?;
                Ok((ck, pc))
            });
            let (ck, pc) = cut
                .unwrap_or_else(|e| die(1, format!("checkpoint to {}: {e}", st.path().display())));
            println!(
                "\ncheckpointed to {} (record seq {}, {} bytes, {} buffered events) \
                 after {} events; stopping the source",
                st.path().display(),
                ck.seq(),
                ck.len(),
                pc.buffered_len(),
                pc.events_pulled(),
            );
            println!(
                "resume with: hamlet_cli ... --resume --state {}",
                st.path().display()
            );
            // The drain path below prints the final summary.
            handle.stop();
        }
        if stream_over {
            break;
        }
        std::thread::sleep(Duration::from_millis(args.metrics_ms.clamp(20, 2_000)));
    }
    let final_metrics = handle.metrics();
    // Exporters snapshot before the drain tears the pipeline down: the
    // prom text is the final scrape, the trace holds the whole run (or
    // its most recent TRACE_CAPACITY spans per lane).
    if let Some(p) = &args.prom_out {
        write_export(p, "prometheus metrics", &handle.export_prometheus());
    }
    if let Some(p) = &args.trace_out {
        write_export(p, "chrome trace", &handle.export_chrome_trace());
    }
    let report = handle.drain();
    let stats = report.merged_stats();
    println!(
        "\ndrained in {:?}: {} events ({:.0} ev/s), {} late, {} results",
        report.wall,
        report.events,
        report.throughput_eps(),
        report.late,
        report.results,
    );
    if let Some(st) = &store {
        println!(
            "checkpoint store {}: {} cut(s), {} bytes written, {} failure(s)",
            st.path().display(),
            final_metrics.checkpoints,
            final_metrics.checkpoint_bytes,
            final_metrics.checkpoint_failures,
        );
    }
    let lat = &report.latency;
    println!(
        "end-to-end latency {} · engine latency avg {:?} · peak state {} KB · late skips {}",
        latency(
            lat.count(),
            &[
                ("avg", lat.avg()),
                ("p50", lat.p50()),
                ("p99", lat.p99()),
                ("max", lat.max()),
            ]
        ),
        report.engine_latency.avg(),
        report.peak_mem.iter().sum::<usize>() / 1024,
        stats.late_skips,
    );
    // Decision time sums every shard worker's, so past one worker the
    // share weighs CPU time against one wall clock.
    println!(
        "{} snapshots · {} shared / {} solo bursts · {} merges · {} splits · \
         decisions {:?} ({:.2}% of wall)",
        stats.runs.snapshots(),
        stats.runs.shared_bursts,
        stats.runs.solo_bursts,
        stats.runs.merges,
        stats.runs.splits,
        stats.decision_time,
        100.0 * stats.decision_time.as_secs_f64() / report.wall.as_secs_f64().max(1e-9),
    );
    if churned {
        println!(
            "workload epoch {} ({} scheduled churn op(s) rejected)",
            final_metrics.epoch, final_metrics.churns_rejected,
        );
    }
    if args.show_results > 0 {
        println!("\nsample results:");
        for r in report.sink.results.iter().take(args.show_results) {
            println!(
                "  {} key={} window@{}: {:?}",
                r.query, r.group_key, r.window_start, r.value
            );
        }
    }
}
