//! Regenerates the paper's figures as markdown tables and a
//! machine-readable `BENCH.json` report.
//!
//! ```text
//! cargo run -p hamlet-bench --release --bin figures -- all
//! cargo run -p hamlet-bench --release --bin figures -- fig9_events
//! cargo run -p hamlet-bench --release --bin figures -- --quick
//! cargo run -p hamlet-bench --release --bin figures -- --quick --bench-json out.json
//! ```
//!
//! Ids: every row of `hamlet_bench::figures::SWEEPS`, `overhead`, and
//! `all` (the default); an id that is none of these exits 2 and lists
//! them.
//!
//! Flags:
//! - `--quick`            small sweeps (CI-sized)
//! - `--json <dir>`       also write one report per figure, `<dir>/<id>.json`
//! - `--bench-json <path>` consolidated report path (default `BENCH.json`)
//! - `--no-bench-json`    skip the consolidated report

use hamlet_bench::figures::{self, Figure, SWEEPS};
use hamlet_bench::{bench_json, markdown_table};

/// Writes `figs` as a `hamlet-bench-v1` report; exits 1 if it cannot.
fn write_report(path: &str, mode: &str, figs: &[Figure]) {
    match std::fs::write(path, bench_json(mode, figs)) {
        Ok(()) => println!("\n(machine-readable report written to {path})"),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn print_overhead(quick: bool) {
    let r = figures::overhead(quick);
    println!("\n## overhead — §6.2 optimizer overhead\n");
    println!(
        "- one-time workload analysis: {:?} (paper: ≤ 81 ms)",
        r.analysis
    );
    for (label, (total, n, wall)) in [("Exact pre-scan", r.exact), ("EMA statistics", r.ema)] {
        println!(
            "- {label}: {n} decisions took {total:?} = {:.3}% of {wall:?} \
             processing (paper, statistics-based: < 0.2%)",
            100.0 * total.as_secs_f64() / wall.as_secs_f64().max(1e-9),
        );
    }
}

fn main() {
    let mut quick = false;
    let mut json_dir: Option<String> = None;
    let mut bench_path: Option<String> = Some("BENCH.json".into());
    let mut targets: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json_dir = Some(it.next().unwrap_or_else(|| ".".into())),
            "--bench-json" => bench_path = Some(it.next().unwrap_or_else(|| "BENCH.json".into())),
            "--no-bench-json" => bench_path = None,
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
            other => targets.push(other.to_string()),
        }
    }
    let ids = || SWEEPS.iter().map(|s| s.id).chain(["overhead"]);
    if let Some(bad) = (targets.iter()).find(|t| *t != "all" && !ids().any(|id| id == *t)) {
        let ids: Vec<&str> = ids().collect();
        eprintln!("unknown figure id: {bad}\navailable: {} all", ids.join(" "));
        std::process::exit(2);
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = ids().map(String::from).collect();
    }

    let mode = if quick { "quick" } else { "full" };
    println!("# HAMLET figure reproduction ({mode} mode)");
    let mut measured: Vec<Figure> = Vec::new();
    for t in &targets {
        let Some(sweep) = figures::sweep(t) else {
            print_overhead(quick);
            continue;
        };
        let fig = sweep.run(quick);
        println!("\n## {} — {}\n", sweep.id, sweep.title);
        print!("{}", markdown_table(sweep.axis.label(), &fig.rows));
        if let Some(dir) = &json_dir {
            let _ = std::fs::create_dir_all(dir);
            write_report(
                &format!("{dir}/{}.json", sweep.id),
                mode,
                std::slice::from_ref(&fig),
            );
        }
        measured.push(fig);
    }
    match bench_path {
        Some(path) if measured.is_empty() => eprintln!("no figures measured; skipping {path}"),
        Some(path) => write_report(&path, mode, &measured),
        None => {}
    }
}
