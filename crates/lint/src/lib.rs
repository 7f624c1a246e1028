//! `hamlet-lint`: the HAMLET workspace's repo-specific static-analysis
//! pass.
//!
//! The engine's headline guarantee is byte-identical output across
//! single-thread, sharded, checkpointed, and churned runs. That
//! guarantee has been broken repeatedly by the same two bug classes —
//! unordered `HashMap` iteration reaching an emission path, and the
//! hand-rolled checkpoint codec drifting out of encode/decode symmetry
//! as fields are added. This crate enforces those invariants (plus a
//! few neighbors) mechanically, as named, allowlistable rules:
//!
//! | rule | name | what it enforces |
//! |------|------|------------------|
//! | L1 | `unordered-iter`   | no `HashMap`/`HashSet` iteration outside tests without a canonical sort or an allow |
//! | L2 | `codec-symmetry`   | paired encode/decode fns make positionally matching codec calls; magic/version consts appear in `docs/checkpoint-format.md` |
//! | L3 | `wallclock`        | `Instant::now`/`SystemTime` confined to `metrics.rs`/`stats.rs`/`crates/obs`/bench code |
//! | L4 | `panic-hygiene`    | no `unwrap()`/`expect()` on worker/emission paths (core + pipeline) |
//! | L5 | `truncating-cast`  | no bare narrowing `as` casts in timestamp/window arithmetic |
//! | L6 | `forbid-unsafe`    | every non-compat library crate root carries `#![forbid(unsafe_code)]` |
//!
//! A finding is suppressed by a plain comment on the same line or the
//! line above:
//!
//! ```text
//! // hamlet-lint: allow(unordered-iter) -- order-insensitive fold into a max
//! ```
//!
//! The reason is mandatory; a malformed annotation is itself a finding
//! (`bad-annotation`). Doc comments are not scanned for annotations,
//! so documentation can quote the grammar freely.
//!
//! The analyzer is comment/string-aware but deliberately not a Rust
//! parser: it pattern-matches a cleaned token stream (see
//! [`scan`]). That makes it fast, dependency-free, and predictable —
//! and means it is a *tripwire*, not a proof: receivers are resolved by
//! per-file type-ascription heuristics, and `docs/static-analysis.md`
//! records the known blind spots.

#![forbid(unsafe_code)]

pub mod context;
pub mod rules;
pub mod scan;

use context::FnSpan;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Every known rule name (annotation grammar validates against this).
pub const RULES: &[&str] = &[
    rules::UNORDERED_ITER,
    rules::CODEC_SYMMETRY,
    rules::WALLCLOCK,
    rules::PANIC_HYGIENE,
    rules::TRUNCATING_CAST,
    rules::FORBID_UNSAFE,
];

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (one of [`RULES`] or `bad-annotation`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// The finding as one machine-readable JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_str(self.rule),
            json_str(&self.file),
            self.line,
            json_str(&self.message)
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Which rules apply to a file, derived from its workspace-relative
/// path (see `docs/static-analysis.md` for the scope table).
#[derive(Debug, Clone, Copy, Default)]
pub struct Class {
    /// Test/bench/example code: every rule skips the whole file
    /// (only annotation well-formedness is still checked).
    pub test_file: bool,
    /// L1 applies.
    pub l1: bool,
    /// L2 applies.
    pub l2: bool,
    /// L3 applies.
    pub l3: bool,
    /// L4 applies.
    pub l4: bool,
    /// L5 applies.
    pub l5: bool,
    /// L6: this file is a library crate root that must forbid unsafe.
    pub forbid_required: bool,
}

/// Library source roots: determinism rules (L1/L5) and the wall-clock
/// rule apply here. Bench and compat crates are out of scope (bench
/// measures wall-clock by definition; compat shims mirror external
/// APIs).
const LIB_SRC: &[&str] = &[
    "crates/types/src/",
    "crates/query/src/",
    "crates/stream/src/",
    "crates/core/src/",
    "crates/pipeline/src/",
    "crates/baselines/src/",
    "crates/obs/src/",
    "src/",
];

/// Classifies a workspace-relative path (always `/`-separated).
pub fn classify(rel: &str) -> Class {
    let test_file = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/");
    let lib_src = LIB_SRC.iter().any(|p| rel.starts_with(p));
    // Wall-clock measurement homes: the engine's metrics module and the
    // pipeline's stats module own latency/gauge sampling, and the
    // observability crate's whole job is timestamping spans; everything
    // else must justify the read. Named by path, not by file name: the
    // optimizer's `stats.rs` is decision state.
    let l3_allowed = rel == "crates/core/src/metrics.rs"
        || rel == "crates/pipeline/src/stats.rs"
        || rel.starts_with("crates/obs/src/")
        || rel.starts_with("crates/bench/")
        || rel.starts_with("crates/lint/");
    // Worker/emission paths: the engine core and the online pipeline.
    let l4_scope = rel.starts_with("crates/core/src/") || rel.starts_with("crates/pipeline/src/");
    let forbid_required = !test_file
        && (rel == "src/lib.rs"
            || (rel.starts_with("crates/")
                && rel.ends_with("/src/lib.rs")
                && !rel.starts_with("crates/compat/")));
    Class {
        test_file,
        l1: lib_src && !test_file,
        l2: !test_file,
        l3: lib_src && !test_file && !l3_allowed,
        l4: l4_scope && !test_file,
        l5: lib_src && !test_file,
        forbid_required,
    }
}

/// Per-file analysis context shared by the rules.
pub struct FileCx {
    /// Workspace-relative path.
    pub rel: String,
    /// Token stream of the cleaned source.
    pub toks: Vec<scan::Token>,
    /// `#[cfg(test)]`/`#[test]` token regions.
    pub test_regions: Vec<(usize, usize)>,
    /// Allow-annotations by line.
    pub allows: BTreeMap<usize, BTreeSet<String>>,
    /// Function spans (for L2 pairing).
    pub fn_spans: Vec<FnSpan>,
    /// String literal contents by start line (for magic constants).
    pub clean_strings: Vec<(usize, String)>,
}

/// Runs every applicable rule over one source text.
///
/// `rel` determines rule applicability via [`classify`]; `docs` is the
/// content of `docs/checkpoint-format.md`, if present.
pub fn check_source(rel: &str, src: &str, docs: Option<&str>) -> Vec<Finding> {
    let cls = classify(rel);
    check_source_with(rel, src, docs, &cls)
}

/// [`check_source`] with an explicit classification (fixture tests use
/// this to force rules on).
pub fn check_source_with(rel: &str, src: &str, docs: Option<&str>, cls: &Class) -> Vec<Finding> {
    analyze(rel, src, docs, cls, &mut BTreeSet::new())
}

/// [`check_source_with`], noting in `pairs_seen` the L2 pairs the file
/// has (what [`run`] needs to find a stale one).
fn analyze(
    rel: &str,
    src: &str,
    docs: Option<&str>,
    cls: &Class,
    pairs_seen: &mut BTreeSet<usize>,
) -> Vec<Finding> {
    let clean = scan::clean(src);
    let toks = scan::tokens(&clean);
    let mut findings = Vec::new();
    let allows = context::annotations(rel, &clean, &mut findings);
    if cls.test_file {
        // Only annotation well-formedness applies to test code.
        return findings;
    }
    let cx = FileCx {
        rel: rel.to_string(),
        test_regions: context::test_regions(&toks),
        fn_spans: context::fn_spans(&toks),
        allows,
        clean_strings: clean.strings.clone(),
        toks,
    };
    rules::check(&cx, cls, docs, &mut findings, pairs_seen);
    findings
}

/// Analyzes one standalone fixture file with every rule forced on
/// (L6 only when the file is named `lib.rs`). A sibling
/// `<stem>.docs.md` stands in for `docs/checkpoint-format.md`; absent
/// that, the doc text is treated as empty.
pub fn check_fixture(path: &Path) -> std::io::Result<Vec<Finding>> {
    let src = std::fs::read_to_string(path)?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let docs = std::fs::read_to_string(path.with_extension("docs.md")).unwrap_or_default();
    let cls = Class {
        test_file: false,
        l1: true,
        l2: true,
        l3: true,
        l4: true,
        l5: true,
        forbid_required: name == "lib.rs",
    };
    Ok(check_source_with(&name, &src, Some(&docs), &cls))
}

/// Directories the workspace walk never descends into.
const SKIP_DIRS: &[&str] = &["target", ".git", "proptest-regressions"];
/// Workspace-relative prefixes excluded from the walk entirely:
/// compat shims mirror external crates, and the lint fixture corpus is
/// seeded violations by design.
const SKIP_PREFIXES: &[&str] = &["crates/compat/", "crates/lint/tests/"];

/// Walks the workspace at `root` and returns all findings, sorted by
/// (file, line, rule) — including an L2 pair no file has
/// ([`rules::stale_pairs`]). Deterministic: the walk order is sorted.
pub fn run(root: &Path) -> std::io::Result<Vec<Finding>> {
    let docs = std::fs::read_to_string(root.join("docs/checkpoint-format.md")).ok();
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut pairs_seen = BTreeSet::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        findings.extend(analyze(
            rel,
            &src,
            docs.as_deref(),
            &classify(rel),
            &mut pairs_seen,
        ));
    }
    findings.extend(rules::stale_pairs(&pairs_seen));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        if p.is_dir() {
            let base = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&base.as_str())
                || SKIP_PREFIXES
                    .iter()
                    .any(|s| format!("{rel}/").starts_with(s))
            {
                continue;
            }
            walk(root, &p, out)?;
        } else if rel.ends_with(".rs") && !SKIP_PREFIXES.iter().any(|s| rel.starts_with(s)) {
            out.push(rel);
        }
    }
    Ok(())
}
