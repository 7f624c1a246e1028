//! What the tests that read `tests/fixtures/` share: the workload and
//! stream the pinned records were cut on, the table of those records, the
//! fixture file readers, and the one way a pinned record is finished.
#![allow(dead_code)] // each test binary uses its own subset

use hamlet::hamlet_core::checkpoint::{DELTA_VERSION, ENGINE_VERSION};
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

/// The fixture stream: bursty (`B` three times in five), three keys,
/// non-decreasing time — fixed forever, the records were cut on it.
pub fn fixture_events(reg: &TypeRegistry) -> Vec<Event> {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut t = 0u64;
    (0..240)
        .map(|_| {
            t += step() % 2;
            let ty = ["A", "C", "B", "B", "B"][(step() % 5) as usize];
            EventBuilder::new(reg, reg.type_id(ty).expect("registered"), t)
                .attr("g", (step() % 3) as i64)
                .attr("v", (step() % 8) as f64)
                .build()
        })
        .collect()
}

/// Events processed before the fixtures' cuts: an `HMEN` blob (and a
/// chain's base) after `FIXTURE_CUT`, a chain's delta after
/// `FIXTURE_CUT_DELTA`.
pub const FIXTURE_CUT: usize = 121;
pub const FIXTURE_CUT_DELTA: usize = 167;

/// One record pinned under `tests/fixtures/` on [`fixture_workload`] and
/// [`fixture_events`]: `<name>.hex` holds it (one line for an `HMEN`
/// blob, base then delta for an `HMDL` chain), `<name>.expected` what the
/// engine that cut it went on to emit.
pub struct Pinned {
    pub name: &'static str,
    /// The `HMEN` version of a blob, the `HMDL` version of a chain's delta.
    pub version: u16,
}

impl Pinned {
    /// Whether the record is a base + delta chain.
    pub fn is_chain(&self) -> bool {
        self.name.starts_with("hmdl")
    }

    /// Where the stream was cut: after the delta for a chain.
    pub fn cut(&self) -> usize {
        if self.is_chain() {
            FIXTURE_CUT_DELTA
        } else {
            FIXTURE_CUT
        }
    }

    /// Whether this build writes the record's version: it must re-encode
    /// to its own bytes.
    pub fn is_current(&self) -> bool {
        self.version
            == if self.is_chain() {
                DELTA_VERSION
            } else {
                ENGINE_VERSION
            }
    }

    /// The record's lines, decoded.
    pub fn records(&self) -> Vec<Vec<u8>> {
        (fixture(&format!("{}.hex", self.name)).iter())
            .map(|line| unhex(line))
            .collect()
    }
}

/// Every record pinned on the fixture workload, one row per layout the
/// engine has read: each cut by the commit before the one that changed
/// its reader, or, for the current version, by the commit that made it.
/// A format bump pins its layout with one row (and its two files).
pub const PINNED: [Pinned; 8] = [
    Pinned {
        name: "hmen_v4_midburst",
        version: 4,
    },
    Pinned {
        name: "hmen_v5_midburst",
        version: 5,
    },
    Pinned {
        name: "hmen_v6_midburst",
        version: 6,
    },
    Pinned {
        name: "hmen_v7_midburst",
        version: 7,
    },
    Pinned {
        name: "hmdl_v1_chain",
        version: 1,
    },
    Pinned {
        name: "hmdl_v2_chain",
        version: 2,
    },
    Pinned {
        name: "hmdl_v3_chain",
        version: 3,
    },
    Pinned {
        name: "hmdl_v4_chain",
        version: 4,
    },
];

/// The row of [`PINNED`] named `name`.
pub fn pinned(name: &str) -> &'static Pinned {
    (PINNED.iter())
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no pinned record {name}"))
}

/// One result per line, the form `tests/fixtures/*.expected` holds.
pub fn fixture_lines(results: &[WindowResult]) -> Vec<String> {
    (results.iter())
        .map(|r| {
            format!(
                "{} {:?} {} {:?}",
                r.query.0,
                r.group_key,
                r.window_start.ticks(),
                r.value
            )
        })
        .collect()
}

/// An engine or a session, as far as finishing a stream goes.
pub trait Replay {
    /// Processes `events`, returning what they emitted.
    fn feed(&mut self, events: &[Event]) -> Vec<WindowResult>;
    /// Ends the stream, returning what the flush emitted.
    fn end(&mut self) -> Vec<WindowResult>;
}

impl Replay for HamletEngine {
    fn feed(&mut self, events: &[Event]) -> Vec<WindowResult> {
        events.iter().flat_map(|e| self.process(e)).collect()
    }
    fn end(&mut self) -> Vec<WindowResult> {
        self.flush()
    }
}

impl Replay for ParallelSession {
    fn feed(&mut self, events: &[Event]) -> Vec<WindowResult> {
        self.process(events)
    }
    fn end(&mut self) -> Vec<WindowResult> {
        self.flush()
    }
}

/// Finishes the stream of the record pinned as `name`, cut after
/// `events[..cut]`: `survivor`, restored from it, and `never_stopped`, a
/// fresh engine fed `events[..cut]` and then `at_cut` (a churn the record
/// was cut after, say), each process the rest and end it. The survivor
/// must emit `<name>.expected` line for line, and what the never-stopped
/// one emits, in emission order. Returns the survivor's results.
pub fn finish_pinned<R: Replay>(
    name: &str,
    events: &[Event],
    cut: usize,
    mut survivor: R,
    mut never_stopped: R,
    at_cut: impl FnOnce(&mut R),
) -> Vec<WindowResult> {
    let mut rest = survivor.feed(&events[cut..]);
    rest.extend(survivor.end());
    assert_eq!(
        fixture_lines(&rest),
        fixture(&format!("{name}.expected")),
        "{name}"
    );
    never_stopped.feed(&events[..cut]);
    at_cut(&mut never_stopped);
    let mut want = never_stopped.feed(&events[cut..]);
    want.extend(never_stopped.end());
    assert_eq!(rest, want, "{name}");
    rest
}
