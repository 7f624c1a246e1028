//! `perf_gate` takes one path and nothing else: its thresholds live in its
//! `CHECKS` table, so a flag — any of the thirteen it used to take
//! included — is a usage error, like a second path or none.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .args(args)
        .output()
        .expect("spawn perf_gate");
    assert!(out.stdout.is_empty(), "nothing was gated");
    out.status.code()
}

#[test]
fn any_flag_is_a_usage_error() {
    for args in [
        &["--min-scaling", "0.63", "BENCH.json"][..],
        &["BENCH.json", "--system", "HAMLET"],
        &["--max-regression=0.25"],
        &["--help"],
        &["-q", "BENCH.json"],
        &["BENCH.json", "baseline.json"],
        &[],
    ] {
        assert_eq!(exit_code(args), Some(2), "perf_gate {args:?}");
    }
    // An unreadable report is exit 2 as well: nothing was gated.
    assert_eq!(exit_code(&["no-such-BENCH.json"]), Some(2));
}
