//! Every decoder is total on arbitrary bytes (ROADMAP direction 5(b), the
//! first part): a seeded byte-mutation loop over the one engine-record
//! decoder, the `HMDL` frame reader, the handle peek and both containers,
//! seeded from the four pinned fixtures (`HMEN` v4 and v5 blobs, `HMDL`
//! v1 and v2 chains) and from containers packed around them. The query
//! parser gets the same treatment over damaged query texts, the bench
//! crate's JSON reader over damaged `--metrics-json` and `BENCH_20.json`
//! lines, and `DirStore::load_chain` over damaged record file names; both
//! text readers also climb a nesting ladder past their depth bound.
//!
//! For every mutant, every decoder either returns `Err` or a state that
//! re-encodes (and round-trips from there); none panics; and none asks
//! the allocator for a block out of proportion to its input — which is
//! what an allocation sized by a length prefix that was not first checked
//! against the bytes that remain looks like. The last is measured, not
//! inferred: this test binary runs under an allocator that records the
//! largest block requested on the current thread.
#![allow(unsafe_code)] // the recording allocator below; nothing else

mod common;

use common::{fixture, fixture_workload, unhex, FIXTURE_TEXTS};
use hamlet::prelude::*;
use hamlet_core::checkpoint::{container_header, read_delta_frame};
use hamlet_query::MAX_PATTERN_DEPTH;
use proptest::mutation::mutant;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Largest single block this thread has asked for since last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Recording;

fn note(size: usize) {
    // A thread past its TLS teardown is not one a test body runs on.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every operation is `System`'s, with the caller's arguments
// unchanged; the only addition is reading the requested size.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see alloc).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// One known-good input: a chain (a lone blob or container being a chain
/// of one) and which of its records gets mutated.
struct Seed {
    chain: Vec<Vec<u8>>,
    at: usize,
}

/// The four fixtures, record by record, plus an `HMPC` and an `HMPL`
/// container around the v5 blob (which a 1-worker runtime restores).
fn seeds() -> &'static [Seed] {
    static SEEDS: OnceLock<Vec<Seed>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let records =
            |name: &str| -> Vec<Vec<u8>> { fixture(name).iter().map(|line| unhex(line)).collect() };
        let v5 = records("hmen_v5_midburst.hex");
        let mut pipeline = container_header(b"HMPL", 2, 1, &v5);
        // No buffered events, cursor 121, no watermark seed, four
        // counters, elapsed — the `HMPL` v2 tail.
        pipeline.usize(0);
        pipeline.u64(121);
        pipeline.some(false);
        for c in [121, 0, 121, 40, 1_000_000] {
            pipeline.u64(c);
        }
        let mut seeds = Vec::new();
        for chain in [
            records("hmen_v4_midburst.hex"),
            v5.clone(),
            records("hmdl_v1_chain.hex"),
            records("hmdl_v2_chain.hex"),
            vec![container_header(b"HMPC", 1, 1, &v5).finish()],
            vec![pipeline.finish()],
        ] {
            seeds.extend((0..chain.len()).map(|at| Seed {
                chain: chain.clone(),
                at,
            }));
        }
        seeds
    })
}

/// An engine restore that succeeded must have produced a state the
/// encoder accepts and the decoder takes back unchanged (through the
/// chain path: a mutant may carry any workload epoch, which only that
/// path adopts).
fn assert_re_encodes(eng: &HamletEngine, mk: &dyn Fn() -> HamletEngine) -> Result<(), String> {
    let blob = eng.checkpoint();
    let record = Checkpoint::from_bytes(blob.clone()).map_err(|e| format!("no peek: {e}"))?;
    let mut again = mk();
    again
        .restore_chain(&[record])
        .map_err(|e| format!("a decoded state did not re-encode restorably: {e}"))?;
    prop_assert_eq!(again.checkpoint(), blob);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn every_mutant_is_rejected_or_re_encodes(
        which in 0usize..seeds().len(),
        salt in any::<u64>(),
    ) {
        let seed = &seeds()[which];
        let m = mutant(&seed.chain[seed.at]).generate(&mut TestRng::from_seed(salt));
        let (reg, queries) = fixture_workload();
        let mk = || {
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).expect("builds")
        };
        LARGEST.set(0);

        // The frame reader and the handle peek.
        let _ = read_delta_frame(&m);
        let _ = Checkpoint::from_bytes(m.clone());

        // The one record decoder: as a bare blob...
        let mut eng = mk();
        if eng.restore(&m).is_ok() {
            assert_re_encodes(&eng, &mk)?;
        }
        // ...and in its place in the chain it came from.
        let chain: Result<Vec<Checkpoint>, _> = (seed.chain.iter().enumerate())
            .map(|(i, r)| Checkpoint::from_bytes(if i == seed.at { m.clone() } else { r.clone() }))
            .collect();
        if let Ok(chain) = &chain {
            let mut eng = mk();
            if eng.restore_chain(chain).is_ok() {
                assert_re_encodes(&eng, &mk)?;
            }
            // The parallel container, through `record::restore_shards`.
            let par = ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 1)
                .expect("builds");
            let mut session = par.session();
            if session.restore_chain(chain).is_ok() {
                let cut = session.cut(CutKind::Full).expect("a restored session cuts");
                prop_assert!(par.session().restore_chain(&[cut]).is_ok());
            }
        }
        // The pipeline container.
        if let Ok(pc) = PipelineCheckpoint::from_bytes(&m) {
            let again = PipelineCheckpoint::from_bytes(&pc.to_bytes());
            prop_assert_eq!(again.map(|pc| pc.to_bytes()), Ok(pc.to_bytes()));
        }

        let largest = LARGEST.get();
        prop_assert!(
            largest <= 256 * m.len() + (64 << 10),
            "a {} byte input made a decoder ask for a {largest} byte block",
            m.len()
        );
    }
}

/// Query texts the parser fuzz damages: the fixture workload's, and the
/// OR / AND / equivalence-attribute forms it lacks.
fn query_texts() -> Vec<&'static str> {
    let mut texts = FIXTURE_TEXTS.to_vec();
    texts.extend([
        "RETURN COUNT(*) PATTERN SEQ(A, B+) OR C+ GROUP BY g WITHIN 20 SLIDE 5",
        "RETURN MIN(B.v) PATTERN (SEQ(A, B+))+ AND C WHERE [g] AND B.v != 2.5 WITHIN 9",
        "RETURN COUNT(C) PATTERN SEQ(A, NOT B, C+) WHERE A.g = 'x' GROUP BY g, v WITHIN 6 SLIDE 6",
    ]);
    texts
}

/// The characters the query grammar gives meaning to, and a few it does
/// not.
const QUERY_CHARS: &[char] = &[
    '0', '1', '4', '9', '-', '(', ')', '[', ']', ',', '.', '+', '*', '<', '=', '>', '!', '\'', ' ',
    'A', 'B', 'g', 'é',
];

/// `text` with one to four characters deleted, or replaced by or
/// inserted from `alphabet`.
fn mutate_text(text: &str, alphabet: &[char], rng: &mut TestRng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let mut below = |n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
    for _ in 0..1 + below(4) {
        let at = below(chars.len() + 1);
        let c = alphabet[below(alphabet.len())];
        match below(3) {
            0 if at < chars.len() => drop(chars.remove(at)),
            1 if at < chars.len() => chars[at] = c,
            _ => chars.insert(at, c),
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The query parser is a decoder of outside input too: every damaged
    /// text parses or is a `ParseError`, and none panics.
    #[test]
    fn every_query_text_mutant_parses_or_is_an_error(
        which in 0usize..query_texts().len(),
        salt in any::<u64>(),
    ) {
        let (reg, _) = fixture_workload();
        let text = mutate_text(query_texts()[which], QUERY_CHARS, &mut TestRng::from_seed(salt));
        let _ = parse_query(&reg, 1, &text);
    }
}

/// JSON the bench crate's reader takes from outside: a `hamlet_cli
/// --metrics-json` line, and one measurement of the committed
/// `BENCH_20.json` report.
fn json_texts() -> [&'static str; 2] {
    const METRICS_LINE: &str = "{\"elapsed\":2,\"ingested\":100,\"late\":2,\"released\":97,\
        \"batches\":33,\"results\":3,\"watermark\":null,\"source_done\":false,\
        \"reorder_depth\":9,\"worker_depths\":[4,0],\"sink_depth\":8,\"ingest_eps\":50,\
        \"latency\":{\"count\":3,\"avg\":0.000001116,\"p50\":0.000001024,\"p99\":0.0000013,\
        \"max\":0.0000013,\"buckets_ns\":[[1024,2],[1280,1]]},\"dropped_spans\":0,\
        \"checkpoints\":7,\"checkpoint_bytes\":4096,\"checkpoint_failures\":1,\"epoch\":5,\
        \"churns_rejected\":6,\"reorder_depth_peak\":12,\"groups\":[{\"group\":\"1+2L\",\
        \"shared\":true,\"benefit\":-1.5e3,\"events_routed\":10,\"results\":17}]}";
    static BENCH: OnceLock<&'static str> = OnceLock::new();
    let bench = BENCH.get_or_init(|| {
        let report = include_str!("../BENCH_20.json");
        let line = report.lines().find(|l| l.contains("\"system\":\"HAMLET\""));
        line.expect("a HAMLET measurement")
            .trim()
            .trim_end_matches(',')
    });
    [METRICS_LINE, bench]
}

/// The characters JSON gives meaning to, and a few it does not.
const JSON_CHARS: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', 'n', 't', 'e', 'E', '-', '+', '.', '0', '9', ' ',
    'é',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Every damaged JSON line parses or is a `JsonError`; none panics.
    #[test]
    fn every_json_text_mutant_parses_or_is_an_error(which in 0usize..2, salt in any::<u64>()) {
        prop_assert!(hamlet_bench::json::parse(json_texts()[which]).is_ok());
        let text = mutate_text(json_texts()[which], JSON_CHARS, &mut TestRng::from_seed(salt));
        let _ = hamlet_bench::json::parse(&text);
    }
}

/// Nesting is bounded in both text readers: up to the bound a document
/// parses, one level past it and far past it — where unbounded
/// recursion overflows the stack — it is an error. An `OR` / `AND`
/// chain parses in a loop but nests the pattern it builds, so it climbs
/// the ladder too.
#[test]
fn nesting_ladders_end_in_errors_not_stack_overflows() {
    use hamlet_bench::json::{parse, MAX_DEPTH};
    for depth in [1, 10, 100, MAX_DEPTH, MAX_DEPTH + 1, 1_000, 10_000, 100_000] {
        let fits = depth <= MAX_DEPTH;
        let array = "[".repeat(depth) + &"]".repeat(depth);
        assert_eq!(parse(&array).is_ok(), fits, "{depth} arrays deep");
        let object = "{\"k\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert_eq!(parse(&object).is_ok(), fits, "{depth} objects deep");
        assert!(parse(&"[".repeat(depth)).is_err(), "{depth} open arrays");
    }
    let (reg, _) = fixture_workload();
    let ladders = [
        ("SEQ(", ")"),
        ("(", ")"),
        ("NOT ", ""),
        ("A OR ", ""),
        ("A AND ", ""),
    ];
    let depths = [
        1,
        10,
        100,
        MAX_PATTERN_DEPTH,
        MAX_PATTERN_DEPTH + 1,
        1_000,
        100_000,
    ];
    for (depth, (open, close)) in depths.into_iter().flat_map(|d| ladders.map(|l| (d, l))) {
        let pattern = open.repeat(depth) + "B+" + &close.repeat(depth);
        let text = format!("RETURN COUNT(*) PATTERN {pattern} WITHIN 10");
        let parsed = parse_query(&reg, 1, &text);
        let too_deep = matches!(&parsed, Err(e) if e.0.contains("nested deeper"));
        // A chain of `NOT`s is no query at any depth; the other ladders
        // parse up to the bound.
        let fits = depth <= MAX_PATTERN_DEPTH;
        let want = (!fits, fits && open != "NOT ");
        assert_eq!(
            (too_deep, parsed.is_ok()),
            want,
            "{depth} {open}: {parsed:?}"
        );
        let text = format!("RETURN COUNT(*) PATTERN {}", open.repeat(depth));
        assert!(
            parse_query(&reg, 1, &text).is_err(),
            "{depth} unclosed {open}"
        );
    }
}

/// Whether `name` is a `DirStore` record name by its documented form,
/// `ck-<seq as 20 digits>-<base|delta>.hmck` (the seq a `u64`).
fn is_record_name(name: &str) -> bool {
    let body = name
        .strip_prefix("ck-")
        .and_then(|n| n.strip_suffix(".hmck"));
    let Some((seq, kind)) = body.and_then(|b| b.split_once('-')) else {
        return false;
    };
    let digits = seq.len() == 20 && seq.bytes().all(|b| b.is_ascii_digit());
    digits && seq.parse::<u64>().is_ok() && matches!(kind, "base" | "delta")
}

/// File-name characters around the record form (no `/`, no NUL).
const NAME_CHARS: &[char] = &[
    '0', '1', '8', '9', '-', '.', '_', 'c', 'k', 'b', 'a', 's', 'e', 'd', 'l', 't', 'h', 'm', ' ',
    'é',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A `DirStore` directory holding the `HMDL` v2 chain plus up to three
    /// files under names near the record form — seqs past `u64::MAX`
    /// among them — each holding one of the chain's records: `load_chain`
    /// returns a chain or an error and never panics, and a directory
    /// whose extra names are all foreign loads exactly the chain.
    #[test]
    fn damaged_record_names_load_a_chain_or_an_error(salt in any::<u64>()) {
        let rng = &mut TestRng::from_seed(salt);
        let mut below = |n: u64| rng.next_u64() % n;
        let records: Vec<Vec<u8>> = fixture("hmdl_v2_chain.hex").iter().map(|l| unhex(l)).collect();
        let dir = std::env::temp_dir().join(format!("hamlet-names-{}-{salt}", std::process::id()));
        let store = DirStore::open(&dir).expect("temp dir");
        for r in &records {
            store.append(&Checkpoint::from_bytes(r.clone()).expect("fixture")).expect("appends");
        }
        let clean = store.load_chain().expect("the fixture chain loads");
        let mut foreign = true;
        for _ in 0..1 + below(3) {
            let seq = match below(4) {
                0 => format!("{:020}", below(4)),
                1 => format!("1844674407370955161{}", below(10)),
                2 => format!("{}", u64::MAX - below(3)) + &"9".repeat(below(3) as usize),
                _ => (0..20).map(|_| char::from(b'0' + below(10) as u8)).collect(),
            };
            let kind = ["base", "delta"][below(2) as usize];
            let mut name = format!("ck-{seq}-{kind}.hmck");
            if below(2) == 0 {
                name = mutate_text(&name, NAME_CHARS, &mut TestRng::from_seed(below(u64::MAX)));
            }
            foreign &= !is_record_name(&name);
            let body = &records[below(records.len() as u64) as usize];
            std::fs::write(dir.join(&name), body).expect("writes");
        }
        let loaded = store.load_chain();
        std::fs::remove_dir_all(&dir).expect("cleans up");
        if foreign {
            prop_assert_eq!(loaded.expect("foreign names are ignored"), clean);
        }
    }
}

/// The allocation bound above means something: a decoder that trusted a
/// length prefix would trip it.
#[test]
fn the_recording_allocator_sees_an_oversized_request() {
    LARGEST.set(0);
    drop(std::hint::black_box(Vec::<u8>::with_capacity(1 << 24)));
    assert!(LARGEST.get() >= 1 << 24);
}
