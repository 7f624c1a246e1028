//! What the tests that read `tests/fixtures/` share: the workload the
//! pinned records were cut on, and the fixture file readers.
#![allow(dead_code)] // each test binary uses its own subset

use hamlet::prelude::*;
use std::sync::Arc;

/// The texts of [`fixture_workload`]'s queries, ids 1, 2, … in order.
pub const FIXTURE_TEXTS: [&str; 7] = [
    "RETURN SUM(B.v) PATTERN SEQ(A, B+) WHERE B.v < 3 GROUP BY g WITHIN 12 SLIDE 4",
    "RETURN AVG(B.v) PATTERN SEQ(C, B+) WHERE B.v < 6 GROUP BY g WITHIN 12 SLIDE 4",
    "RETURN COUNT(B) PATTERN SEQ(A, B+) GROUP BY g WITHIN 12 SLIDE 4",
    "RETURN MAX(B.v) PATTERN B+ WHERE B.v < 5 GROUP BY g WITHIN 12 SLIDE 4",
    "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUP BY g WITHIN 12 SLIDE 4",
    "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v >= PREV.v GROUP BY g WITHIN 8",
    "RETURN COUNT(*) PATTERN SEQ(A, B+, NOT C) WHERE C.v < 4 GROUP BY g WITHIN 8",
];

/// The predicate workload the v4 fixtures were cut on at the parent of
/// PR 15: selection groups (cells now, cloned events then), a uniform
/// group (a count), a lattice group and an edge-predicate group (events
/// either way), over sliding windows.
pub fn fixture_workload() -> (Arc<TypeRegistry>, Vec<Query>) {
    let mut reg = TypeRegistry::new();
    for ty in ["A", "B", "C"] {
        reg.register(ty, &["g", "v"]);
    }
    let reg = Arc::new(reg);
    let queries = (FIXTURE_TEXTS.iter().enumerate())
        .map(|(i, t)| parse_query(&reg, i as u32 + 1, t).expect("fixture query parses"))
        .collect();
    (reg, queries)
}

pub fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex fixture"))
        .collect()
}

/// A fixture under `tests/fixtures/`, one string per line.
pub fn fixture(name: &str) -> Vec<String> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines().map(str::to_owned).collect()
}
