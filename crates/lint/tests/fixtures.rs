//! Fixture-based self-tests: every rule must fire on its seeded
//! violation and stay quiet on the allowed/fixed counterpart, both
//! through the library API and through the installed binary's exit
//! code.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Rules reported for one fixture, deduplicated.
fn rules_for(name: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = hamlet_lint::check_fixture(&fixture(name))
        .expect("fixture readable")
        .iter()
        .map(|f| f.rule)
        .collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn l1_catches_the_unordered_emission_bug_pattern() {
    // The PR-3 regression shape: HashMap iteration feeding an emission
    // path. This is the pattern the rule exists for.
    assert_eq!(rules_for("l1_violation.rs"), ["unordered-iter"]);
    assert_eq!(rules_for("l1_allowed.rs"), [] as [&str; 0]);
}

#[test]
fn l2_catches_codec_asymmetry() {
    let findings = hamlet_lint::check_fixture(&fixture("l2_violation.rs")).unwrap();
    assert_eq!(
        findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
        ["codec-symmetry"]
    );
    assert!(
        findings[0].message.contains("diverge"),
        "message should name the divergence: {}",
        findings[0].message
    );
    assert_eq!(rules_for("l2_allowed.rs"), [] as [&str; 0]);
}

/// The engine's state record: a tagged run-state payload with a nested
/// `Cell` pair and a separately named legacy reader, under the one body
/// pair whose removal list only a delta carries, stay clean; an
/// asymmetry in the payload arms, in `encode_tail`/`decode_tail`, or in
/// `encode_body`/`decode_body` is found.
#[test]
fn l2_checks_the_run_state_record_and_the_one_body_pair() {
    assert_eq!(rules_for("l2_tagged_allowed.rs"), [] as [&str; 0]);
    let findings = hamlet_lint::check_fixture(&fixture("l2_tagged_violation.rs")).unwrap();
    assert!(findings.iter().all(|f| f.rule == "codec-symmetry"));
    let pairs: Vec<&str> = ["`decode`", "`decode_tail`", "`decode_body`"]
        .into_iter()
        .filter(|name| findings.iter().any(|f| f.message.contains(name)))
        .collect();
    assert_eq!(pairs.len(), 3, "{findings:?}");
}

#[test]
fn l3_catches_wallclock_reads() {
    let findings = hamlet_lint::check_fixture(&fixture("l3_violation.rs")).unwrap();
    assert_eq!(
        findings.len(),
        2,
        "Instant::now and SystemTime: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == "wallclock"));
    assert_eq!(rules_for("l3_allowed.rs"), [] as [&str; 0]);
}

#[test]
fn l4_catches_unwrap_and_expect() {
    let findings = hamlet_lint::check_fixture(&fixture("l4_violation.rs")).unwrap();
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "panic-hygiene"));
    assert_eq!(rules_for("l4_allowed.rs"), [] as [&str; 0]);
}

#[test]
fn l5_catches_truncating_time_casts() {
    assert_eq!(rules_for("l5_violation.rs"), ["truncating-cast"]);
    assert_eq!(rules_for("l5_allowed.rs"), [] as [&str; 0]);
}

#[test]
fn l6_requires_forbid_unsafe_on_lib_roots() {
    assert_eq!(rules_for("l6_violation/lib.rs"), ["forbid-unsafe"]);
    assert_eq!(rules_for("l6_allowed/lib.rs"), [] as [&str; 0]);
}

#[test]
fn malformed_annotations_are_findings() {
    let findings = hamlet_lint::check_fixture(&fixture("bad_annotation.rs")).unwrap();
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "bad-annotation"));
}

#[test]
fn binary_exits_nonzero_on_each_seeded_violation() {
    for name in [
        "l1_violation.rs",
        "l2_violation.rs",
        "l3_violation.rs",
        "l4_violation.rs",
        "l5_violation.rs",
        "l6_violation/lib.rs",
        "bad_annotation.rs",
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_hamlet-lint"))
            .arg("--fixture")
            .arg(fixture(name))
            .status()
            .expect("run hamlet-lint");
        assert_eq!(status.code(), Some(1), "{name} should exit 1");
    }
}

#[test]
fn binary_exits_zero_on_each_allowed_fixture() {
    for name in [
        "l1_allowed.rs",
        "l2_allowed.rs",
        "l3_allowed.rs",
        "l4_allowed.rs",
        "l5_allowed.rs",
        "l6_allowed/lib.rs",
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_hamlet-lint"))
            .arg("--fixture")
            .arg(fixture(name))
            .status()
            .expect("run hamlet-lint");
        assert_eq!(status.code(), Some(0), "{name} should exit 0");
    }
}

#[test]
fn json_output_is_machine_readable() {
    let out = Command::new(env!("CARGO_BIN_EXE_hamlet-lint"))
        .args(["--json", "--fixture"])
        .arg(fixture("l1_violation.rs"))
        .output()
        .expect("run hamlet-lint");
    let text = String::from_utf8(out.stdout).expect("utf8");
    let trimmed = text.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "{text}");
    assert!(trimmed.contains("\"rule\":\"unordered-iter\""), "{text}");
    assert!(trimmed.contains("\"line\":"), "{text}");
}
