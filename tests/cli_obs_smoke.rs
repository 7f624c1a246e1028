//! Smoke test: the CLI's observability exporters end-to-end.
//!
//! Drives the `hamlet_cli` binary in pipeline mode with `--trace-out`,
//! `--prom-out`, and `--metrics-json`, then checks each artifact with
//! the same strictness a downstream tool would: the Chrome trace must
//! round-trip through a JSON parser (`hamlet_bench::json`) and contain
//! pipeline stage spans, the Prometheus text must carry the engine and
//! per-share-group families, and every `--metrics-json` line must be
//! valid JSON with group rows. Also checks that every flag only the
//! pipeline reads is rejected outside pipeline mode.

use hamlet_bench::json::{self, Json};
use std::process::Command;

fn cli(extra: &[&str]) -> std::process::Output {
    let cargo = env!("CARGO");
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let mut cmd = Command::new(cargo);
    cmd.args([
        "run",
        "-q",
        "--manifest-path",
        manifest,
        "--bin",
        "hamlet_cli",
    ]);
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    cmd.arg("--");
    cmd.args(extra);
    cmd.output().expect("spawn hamlet_cli")
}

#[test]
fn exporters_write_parseable_artifacts() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("hamlet-trace-{}.json", std::process::id()));
    let prom = dir.join(format!("hamlet-prom-{}.txt", std::process::id()));
    let out = cli(&[
        "pipeline",
        "--dataset",
        "ridesharing",
        "--rate",
        "3000",
        "--minutes",
        "1",
        "--queries",
        "6",
        "--workers",
        "2",
        "--eps",
        "0",
        "--metrics-json",
        "--trace-out",
        trace.to_str().unwrap(),
        "--prom-out",
        prom.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trace_text = std::fs::read_to_string(&trace);
    let prom_text = std::fs::read_to_string(&prom);
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&prom).ok();
    assert!(
        out.status.success(),
        "exporter run failed with {}:\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
    );

    // Chrome trace: strict JSON, the trace_event envelope, and at least
    // the engine's batch-processing stage among the span names.
    let trace_text = trace_text.expect("--trace-out file exists");
    let doc = json::parse(&trace_text).expect("chrome trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace recorded spans");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for stage in ["ingest", "process_batch"] {
        assert!(names.contains(&stage), "trace has {stage} spans: {names:?}");
    }
    for e in events {
        assert_eq!(
            e.get("ph").and_then(Json::as_str),
            Some("X"),
            "complete-event phase"
        );
        assert!(e.get("ts").and_then(Json::as_f64).is_some(), "ts field");
        assert!(e.get("dur").and_then(Json::as_f64).is_some(), "dur field");
    }

    // Prometheus text: engine families plus the per-share-group rows.
    let prom_text = prom_text.expect("--prom-out file exists");
    for needle in [
        "# TYPE hamlet_ingested_total counter",
        "# TYPE hamlet_results_total counter",
        "hamlet_group_events_routed_total{group=",
        "hamlet_group_shared{group=",
        "hamlet_latency_seconds_count",
    ] {
        assert!(
            prom_text.contains(needle),
            "prometheus export missing {needle:?}:\n{prom_text}"
        );
    }

    // --metrics-json: every line is valid JSON; the last snapshot has
    // per-group rows and the sparse latency histogram field.
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert!(!lines.is_empty(), "metrics-json lines emitted:\n{stdout}");
    for line in &lines {
        json::parse(line).unwrap_or_else(|e| panic!("bad metrics line {line}: {e:?}"));
    }
    let last = json::parse(lines.last().expect("at least one line")).expect("parses");
    let groups = last
        .get("groups")
        .and_then(Json::as_arr)
        .expect("groups array");
    assert!(!groups.is_empty(), "final snapshot has share-group rows");
    for g in groups {
        assert!(g.get("events_routed").and_then(Json::as_f64).is_some());
        assert!(g.get("benefit").and_then(Json::as_f64).is_some());
    }
    assert!(
        last.get("latency")
            .and_then(|l| l.get("buckets_ns"))
            .and_then(Json::as_arr)
            .is_some(),
        "latency histogram buckets present"
    );
}

#[test]
fn exporter_flags_are_pipeline_only() {
    // Offline, `--workers 4` would run one thread and say nothing. Every
    // flag only the pipeline reads is refused at parse time, with exit 2,
    // before a stream is generated.
    for flag in [
        &["--workers", "4"][..],
        &["--eps", "1000"],
        &["--slack", "5"],
        &["--max-lateness", "5"],
        &["--metrics-ms", "100"],
        &["--metrics-json"],
        &["--trace-out", "/tmp/never-written.json"],
        &["--prom-out", "/tmp/never-written.prom"],
        &["--checkpoint-after", "100"],
        &["--checkpoint-every", "100"],
        &["--compact-every", "4"],
        &["--state", "/tmp/never-created"],
        &["--resume"],
        &["--churn-script", "/tmp/never-read.churn"],
    ] {
        let out = cli(&[&["--rate", "100"], flag].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{} is a pipeline-mode flag", flag[0])),
            "{flag:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag:?} ran anyway");
    }
    // A number a generator or the shard router would `assert!` on three
    // crates down is a usage error like any other, not a backtrace.
    for bad in [
        &["--window", "0"][..],
        &["--groups", "0"],
        &["--burst", "0"],
        &["--skew", "-1"],
        &["pipeline", "--workers", "0"],
        &["pipeline", "--workers", "65"],
    ] {
        let out = cli(&[bad, &["--rate", "100"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(
            stderr.starts_with("error: --") && stderr.contains("(try --help)"),
            "{bad:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bad:?} ran anyway");
    }
}
