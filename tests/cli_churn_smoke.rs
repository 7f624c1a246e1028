//! Smoke test: the CLI's `--churn-script` path end-to-end.
//!
//! Drives the `hamlet_cli` binary with a temp script that removes,
//! re-adds, and adds a genuinely new query, and asserts the run
//! completes with the expected workload epoch in the summary and in the
//! last `--metrics-json` line. Also checks that a malformed script line
//! exits non-zero with an error that names the line.

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
fn churn_script_runs_and_reports_final_epoch() {
    let dir = std::env::temp_dir();
    let script = dir.join(format!("hamlet-churn-{}.txt", std::process::id()));
    // Three ops → final epoch 3. Query 10 is beyond --queries 6, so the
    // pool over-generates and the add registers a never-seen query.
    std::fs::write(
        &script,
        "# retire one of the initial queries, then grow the workload\n\
         10 remove 3\n\
         \n\
         20 add 3\n\
         30 add 10\n",
    )
    .unwrap();
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
        "--churn-script",
        script.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    std::fs::remove_file(&script).ok();
    assert!(
        out.status.success(),
        "churn run failed with {}:\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        stdout.contains("workload epoch 3 (0 scheduled churn op(s) rejected)"),
        "summary should report epoch 3 with no rejections:\n{stdout}"
    );
}

#[test]
fn metrics_json_reports_the_final_epoch() {
    let script = std::env::temp_dir().join(format!("hamlet-churn-json-{}.txt", std::process::id()));
    std::fs::write(&script, "10 remove 3\n20 add 3\n30 add 10\n").unwrap();
    let out = cli(&[
        "--rate",
        "3000",
        "--queries",
        "6",
        "--metrics-json",
        "--churn-script",
        script.to_str().unwrap(),
    ]);
    std::fs::remove_file(&script).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let last = (stdout.lines().rfind(|l| l.starts_with('{'))).expect("metrics-json lines emitted");
    assert!(
        last.contains("\"epoch\":3,\"churns_rejected\":0,"),
        "{last}"
    );
}

#[test]
fn malformed_script_is_rejected() {
    let dir = std::env::temp_dir();
    let script = dir.join(format!("hamlet-churn-bad-{}.txt", std::process::id()));
    std::fs::write(&script, "10 frobnicate 3\n").unwrap();
    let out = cli(&["pipeline", "--churn-script", script.to_str().unwrap()]);
    std::fs::remove_file(&script).ok();
    assert!(!out.status.success(), "malformed script must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 1"),
        "error should cite the offending line:\n{stderr}"
    );
}
