//! Every decoder is total on arbitrary bytes (ROADMAP direction 5(b), the
//! first part): a seeded byte-mutation loop over the one engine-record
//! decoder, the `HMDL` frame reader, the handle peek and both containers,
//! seeded from the four pinned fixtures (`HMEN` v4 and v5 blobs, `HMDL`
//! v1 and v2 chains) and from containers packed around them.
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

use common::{fixture, fixture_workload, unhex};
use hamlet::prelude::*;
use hamlet_core::checkpoint::{container_header, read_delta_frame};
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

/// The allocation bound above means something: a decoder that trusted a
/// length prefix would trip it.
#[test]
fn the_recording_allocator_sees_an_oversized_request() {
    LARGEST.set(0);
    drop(std::hint::black_box(Vec::<u8>::with_capacity(1 << 24)));
    assert!(LARGEST.get() >= 1 << 24);
}
