//! The four workloads: what is generated, which queries run, how the
//! pipeline is configured — plus the pinned digests that keep the load
//! from changing silently and the reference every phase is checked
//! against.
//!
//! Each workload exists to put one layer's cost in front (see
//! `README.md`); sizes are frozen constants, not computed at run time, so
//! two commits always measure the same work.

use hamlet_core::{
    sort_results, AggValue, EngineConfig, HamletEngine, SharingPolicy, WindowResult,
};
use hamlet_query::{parse_query, Query};
use hamlet_stream::{ridesharing, stock, GenConfig};
use hamlet_types::{AttrValue, Event, TypeRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fallible result with a printable reason (the benchmark has no error
/// taxonomy: every failure ends the run with a message).
pub type Res<T> = Result<T, String>;

/// Which generator feeds the workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dataset {
    /// `hamlet_stream::ridesharing`.
    Rides,
    /// `hamlet_stream::stock`.
    Stock,
}

/// Expected digests for one seed of one workload (full size only).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pin {
    /// The `--seed` the digests belong to.
    pub seed: u64,
    /// FNV-1a over the delivered event stream.
    pub stream_digest: u64,
    /// Number of reference results.
    pub results: u64,
    /// FNV-1a over the sorted reference results.
    pub result_digest: u64,
}

const fn pin(seed: u64, stream_digest: u64, results: u64, result_digest: u64) -> Pin {
    Pin {
        seed,
        stream_digest,
        results,
        result_digest,
    }
}

/// One benchmark workload: inputs, queries and pipeline configuration.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generator.
    pub dataset: Dataset,
    /// Events per minute of stream time (60 ticks).
    pub events_per_min: u64,
    /// Stream length in minutes of stream time.
    pub minutes: u64,
    /// Mean same-type burst length.
    pub mean_burst: f64,
    /// Distinct partition keys.
    pub num_groups: u64,
    /// Zipf exponent of the key distribution (0 = uniform).
    pub group_skew: f64,
    /// Out-of-order bound in ticks; also the watermark slack.
    pub max_lateness: u64,
    /// Pipeline workers.
    pub workers: u32,
    /// Cadence of delta checkpoints into a `DirStore`, if any.
    pub checkpoint_every: Option<u64>,
    /// Open-loop rate: ≈ 0.35 × the closed-loop capacity measured when the
    /// benchmark was defined, then frozen (never recomputed), so that two
    /// commits are always offered the same load.
    pub offered_eps: f64,
    /// The benchmark-owned SASE query texts.
    pub query_texts: fn() -> Vec<String>,
    /// Digests for the default and the alternate seed.
    pub pins: [Pin; 2],
}

/// `--seed` default; [`ALT_SEED`] is the second pinned seed.
pub const DEFAULT_SEED: u64 = 7;
/// The alternate pinned seed.
pub const ALT_SEED: u64 = 11;
/// Every cadence cut after this many is promoted to a full base.
pub const COMPACT_EVERY: u64 = 8;
/// `--smoke` divides every stream length by this.
pub const SMOKE_DIVISOR: u64 = 50;

fn rides_queries(k: usize, within: u64) -> Vec<String> {
    ridesharing::TYPES
        .iter()
        .filter(|t| **t != "Travel")
        .take(k)
        .map(|first| {
            format!(
                "RETURN COUNT(*) PATTERN SEQ({first}, Travel+) GROUP BY district WITHIN {within}"
            )
        })
        .collect()
}

fn rides_shared_queries() -> Vec<String> {
    rides_queries(19, 10)
}

fn rides_highcard_queries() -> Vec<String> {
    rides_queries(5, 30)
}

fn rides_ops_queries() -> Vec<String> {
    rides_queries(10, 30)
}

/// 50 queries modelled on `hamlet_stream::stock::workload_diverse`, with
/// every choice a function of the query index (no RNG, so the texts can
/// never drift with the `rand` shim): Kleene `Tick+` patterns of length
/// 1–3, COUNT/AVG/MAX/SUM, every other query with its own
/// `Tick.price <` cut, grouped by company or sector, windows 60–240.
fn stock_diverse_queries() -> Vec<String> {
    let firsts: Vec<&str> = stock::TYPES
        .iter()
        .copied()
        .filter(|t| *t != "Tick")
        .collect();
    (0..50usize)
        .map(|i| {
            let first = firsts[(i * 7) % firsts.len()];
            let last = firsts[(i * 5 + 3) % firsts.len()];
            let last = if last == first { "Halt" } else { last };
            let last = if last == first { "Open" } else { last };
            let pattern = match i % 3 {
                0 => "Tick+".to_string(),
                1 => format!("SEQ({first}, Tick+)"),
                _ => format!("SEQ({first}, Tick+, {last})"),
            };
            let agg = match i % 4 {
                0 => "COUNT(*)",
                1 => "AVG(Tick.price)",
                2 => "MAX(Tick.price)",
                _ => "SUM(Tick.volume)",
            };
            let pred = if i % 2 == 0 {
                format!(" WHERE Tick.price < {}", 100 + 40 * (i % 8))
            } else {
                String::new()
            };
            let group = if i % 3 == 1 { "sector" } else { "company" };
            let within = 60 * (1 + (i / 3) % 4);
            format!("RETURN {agg} PATTERN {pattern}{pred} GROUP BY {group} WITHIN {within}")
        })
        .collect()
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rides_shared_w2",
        dataset: Dataset::Rides,
        events_per_min: 40_000,
        minutes: 60,
        mean_burst: 80.0,
        num_groups: 16,
        group_skew: 0.0,
        max_lateness: 0,
        workers: 2,
        checkpoint_every: None,
        offered_eps: 600_000.0,
        query_texts: rides_shared_queries,
        pins: [
            pin(DEFAULT_SEED, 0xc3da212135f6927a, 109440, 0x4427635eb66f8efc),
            pin(ALT_SEED, 0x7260937aa7b38d93, 109440, 0xb60db8c36078aabe),
        ],
    },
    Workload {
        name: "stock_diverse_w1",
        dataset: Dataset::Stock,
        events_per_min: 1_500,
        minutes: 200,
        mean_burst: 120.0,
        num_groups: 32,
        group_skew: 0.0,
        max_lateness: 0,
        workers: 1,
        checkpoint_every: None,
        offered_eps: 60_000.0,
        query_texts: stock_diverse_queries,
        pins: [
            pin(DEFAULT_SEED, 0xc35967b394fe0359, 133700, 0x5419c7486a421bd2),
            pin(ALT_SEED, 0x61fa6347d2ee51e6, 133700, 0x757a6705b5a9992d),
        ],
    },
    Workload {
        name: "rides_highcard_w1",
        dataset: Dataset::Rides,
        events_per_min: 6_000,
        minutes: 66,
        mean_burst: 10.0,
        num_groups: 10_000,
        group_skew: 0.8,
        max_lateness: 0,
        workers: 1,
        checkpoint_every: None,
        offered_eps: 80_000.0,
        query_texts: rides_highcard_queries,
        pins: [
            pin(DEFAULT_SEED, 0x84641a35563b6f14, 939845, 0xcaec135fd75b86d8),
            pin(ALT_SEED, 0xc6dc312ad6caec5d, 938975, 0xc014c5d3f51e7bd4),
        ],
    },
    Workload {
        name: "rides_ops_w2",
        dataset: Dataset::Rides,
        events_per_min: 7_200,
        minutes: 100,
        mean_burst: 40.0,
        num_groups: 512,
        group_skew: 0.0,
        max_lateness: 5,
        workers: 2,
        checkpoint_every: Some(50_000),
        offered_eps: 120_000.0,
        query_texts: rides_ops_queries,
        pins: [
            pin(
                DEFAULT_SEED,
                0xcf05e88e034a6b3c,
                1022850,
                0x168b3e9cf57d630c,
            ),
            pin(ALT_SEED, 0x3cf8aa8ac2ea2994, 1022690, 0x82b38b6d63289ce1),
        ],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one setup pass produced, with the time each step took.
pub struct Inputs {
    /// The data set's type registry.
    pub reg: Arc<TypeRegistry>,
    /// The parsed workload.
    pub queries: Vec<Query>,
    /// The event stream in arrival order (out of order when the workload
    /// has `max_lateness > 0`).
    pub delivered: Vec<Event>,
    /// `hamlet_stream::*::generate` wall time.
    pub generate: Duration,
    /// `parse_query` wall time over all query texts.
    pub parse: Duration,
}

impl Workload {
    /// Stream length in minutes under `--smoke` or at full size.
    pub fn minutes_at(&self, smoke: bool) -> u64 {
        if smoke {
            (self.minutes / SMOKE_DIVISOR).max(1)
        } else {
            self.minutes
        }
    }

    /// Generates the stream and parses the queries, timing both.
    pub fn inputs(&self, seed: u64, smoke: bool) -> Res<Inputs> {
        let cfg = GenConfig {
            events_per_min: self.events_per_min,
            minutes: self.minutes_at(smoke),
            mean_burst: self.mean_burst,
            num_groups: self.num_groups,
            group_skew: self.group_skew,
            seed,
            max_lateness: self.max_lateness,
        };
        let t = Instant::now();
        let (reg, delivered) = match self.dataset {
            Dataset::Rides => {
                let reg = ridesharing::registry();
                let evs = ridesharing::generate(&reg, &cfg);
                (reg, evs)
            }
            Dataset::Stock => {
                let reg = stock::registry();
                let evs = stock::generate(&reg, &cfg);
                (reg, evs)
            }
        };
        let generate = t.elapsed();
        let t = Instant::now();
        let mut queries = Vec::new();
        for (i, text) in (self.query_texts)().iter().enumerate() {
            let q = parse_query(&reg, i as u32, text)
                .map_err(|e| format!("{}: query {i} `{text}`: {e}", self.name))?;
            queries.push(q);
        }
        let parse = t.elapsed();
        Ok(Inputs {
            reg,
            queries,
            delivered,
            generate,
            parse,
        })
    }

    /// The pinned digests for `seed`, if it is one of the two pinned seeds.
    pub fn pin(&self, seed: u64) -> Option<&Pin> {
        self.pins.iter().find(|p| p.seed == seed)
    }
}

/// Inputs plus everything derived from them once per run: the in-order
/// stream, the reference results and the lookup tables of the latency
/// definition.
pub struct Prepared {
    /// The generated inputs.
    pub inputs: Inputs,
    /// The stream in timestamp order, where the delivered one is not
    /// (see [`inorder`](Self::inorder)).
    sorted: Option<Vec<Event>>,
    /// Sorted results of the reference evaluator.
    pub reference: Vec<WindowResult>,
    /// Wall time of the reference run (`NeverShare` bare engine).
    pub reference_wall: Duration,
    /// `WITHIN` of each query, indexed by query id.
    pub within: Vec<u64>,
    /// Running maximum timestamp of the delivered stream, per position.
    pub running_max: Vec<u64>,
}

/// Events per `process_batch` call of every bare-engine run (the
/// pipeline's default batch).
pub const BATCH: usize = 256;

/// Engine configuration of the bare-engine runs: the pipeline's own
/// default apart from the sharing policy.
pub fn engine_config(policy: SharingPolicy) -> EngineConfig {
    EngineConfig {
        policy,
        ..EngineConfig::default()
    }
}

/// What one bare-engine pass over the in-order stream produced.
pub struct BareRun {
    /// Results in emission order, flush included.
    pub results: Vec<WindowResult>,
    /// `process_batch` calls + `flush`, wall.
    pub wall: Duration,
    /// `HamletEngine::new` wall (workload analysis + template compile).
    pub compile: Duration,
    /// The engine after the run, for its counters.
    pub engine: HamletEngine,
}

/// Feeds `events` to one engine in [`BATCH`]-event batches, then flushes.
pub fn bare_engine(inputs: &Inputs, events: &[Event], policy: SharingPolicy) -> Res<BareRun> {
    let t = Instant::now();
    let mut engine = HamletEngine::new(
        inputs.reg.clone(),
        inputs.queries.clone(),
        engine_config(policy),
    )
    .map_err(|e| format!("engine: {e}"))?;
    let compile = t.elapsed();
    let t = Instant::now();
    let mut results = Vec::new();
    for batch in events.chunks(BATCH) {
        results.extend(engine.process_batch(batch));
    }
    results.extend(engine.flush());
    let wall = t.elapsed();
    Ok(BareRun {
        results,
        wall,
        compile,
        engine,
    })
}

impl Prepared {
    /// Derives the reference and the lookup tables from `inputs`.
    pub fn new(w: &Workload, inputs: Inputs) -> Res<Prepared> {
        let sorted = (w.max_lateness > 0).then(|| {
            // Stable: equal timestamps keep their arrival order, which is
            // exactly what the reorder buffer restores.
            let mut sorted = inputs.delivered.clone();
            sorted.sort_by_key(|e| e.time);
            sorted
        });
        let inorder = sorted.as_deref().unwrap_or(&inputs.delivered);
        let run = bare_engine(&inputs, inorder, SharingPolicy::NeverShare)?;
        let mut reference = run.results;
        sort_results(&mut reference);
        let within = inputs.queries.iter().map(|q| q.window.within).collect();
        let mut running_max = Vec::with_capacity(inputs.delivered.len());
        let mut max = 0u64;
        for e in &inputs.delivered {
            max = max.max(e.time.ticks());
            running_max.push(max);
        }
        Ok(Prepared {
            inputs,
            sorted,
            reference,
            reference_wall: run.wall,
            within,
            running_max,
        })
    }

    /// The stream in timestamp order: what a correct reorder stage hands
    /// the engine.
    pub fn inorder(&self) -> &[Event] {
        self.sorted.as_deref().unwrap_or(&self.inputs.delivered)
    }

    /// Position in arrival order of the **determining event** of a window
    /// ending at `window_end`: the first event whose running-maximum
    /// timestamp reaches `window_end + slack` — the earliest moment any
    /// correct implementation could emit the window. `None` when only the
    /// final drain closes it.
    pub fn determining_event(&self, window_end: u64, slack: u64) -> Option<usize> {
        determining_event(&self.running_max, window_end, slack)
    }

    /// Window end of a result under this workload's queries.
    pub fn window_end(&self, r: &WindowResult) -> u64 {
        let within = self.within.get(r.query.0 as usize).copied().unwrap_or(0);
        r.window_start.ticks().saturating_add(within)
    }
}

/// See [`Prepared::determining_event`].
pub fn determining_event(running_max: &[u64], window_end: u64, slack: u64) -> Option<usize> {
    let need = window_end.saturating_add(slack);
    let idx = running_max.partition_point(|m| *m < need);
    (idx < running_max.len()).then_some(idx)
}

/// How a phase's delivered results differ from the reference.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Mismatch {
    /// Reference results the phase never delivered.
    pub missing: u64,
    /// Delivered results whose value differs from the reference.
    pub different: u64,
    /// Delivered results the reference does not have (duplicates included).
    pub extra: u64,
}

impl Mismatch {
    /// Everything that counts as a failed result.
    pub fn failed(&self) -> u64 {
        self.missing + self.different + self.extra
    }
}

fn same_value(a: &AggValue, b: &AggValue) -> bool {
    match (a, b) {
        (AggValue::Float(x), AggValue::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Sorts `got` into report order and walks it against the sorted
/// `reference`.
pub fn compare(got: &mut [WindowResult], reference: &[WindowResult]) -> Mismatch {
    use std::cmp::Ordering;
    sort_results(got);
    let key_cmp = |a: &WindowResult, b: &WindowResult| {
        (a.window_start, a.query)
            .cmp(&(b.window_start, b.query))
            .then_with(|| a.group_key.total_cmp(&b.group_key))
    };
    let mut m = Mismatch::default();
    let (mut i, mut j) = (0, 0);
    while i < got.len() && j < reference.len() {
        match key_cmp(&got[i], &reference[j]) {
            Ordering::Less => {
                m.extra += 1;
                i += 1;
            }
            Ordering::Greater => {
                m.missing += 1;
                j += 1;
            }
            Ordering::Equal => {
                if !same_value(&got[i].value, &reference[j].value) {
                    m.different += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    m.extra += (got.len() - i) as u64;
    m.missing += (reference.len() - j) as u64;
    m
}

/// 64-bit FNV-1a, fed field by field.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` in (little endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn attr(&mut self, v: &AttrValue) {
        match v {
            AttrValue::Int(i) => {
                self.bytes(&[0]);
                self.u64(*i as u64);
            }
            AttrValue::Float(f) => {
                self.bytes(&[1]);
                self.u64(f.to_bits());
            }
            AttrValue::Str(s) => {
                self.bytes(&[2]);
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a digest of an event stream, order included.
pub fn stream_digest(events: &[Event]) -> u64 {
    let mut h = Fnv::default();
    for e in events {
        h.u64(e.time.ticks());
        h.u64(u64::from(e.ty.0));
        for a in &e.attrs {
            h.attr(a);
        }
    }
    h.finish()
}

/// FNV-1a digest of (sorted) results.
pub fn result_digest(results: &[WindowResult]) -> u64 {
    let mut h = Fnv::default();
    for r in results {
        h.u64(u64::from(r.query.0));
        h.u64(r.window_start.ticks());
        for a in &r.group_key.0 {
            h.attr(a);
        }
        match r.value {
            AggValue::Count(c) => {
                h.bytes(&[0]);
                h.u64(c);
            }
            AggValue::Float(f) => {
                h.bytes(&[1]);
                h.u64(f.to_bits());
            }
            AggValue::Null => h.bytes(&[2]),
        }
    }
    h.finish()
}

/// The digests of the load as generated.
pub fn pin_of(seed: u64, p: &Prepared) -> Pin {
    Pin {
        seed,
        stream_digest: stream_digest(&p.inputs.delivered),
        results: p.reference.len() as u64,
        result_digest: result_digest(&p.reference),
    }
}

/// Checks the generated load against the workload's pins. A mismatch is
/// a hard error: the load changed, so numbers no longer compare.
pub fn check_pins(w: &Workload, seed: u64, p: &Prepared) -> Res<()> {
    let Some(want) = w.pin(seed) else {
        return Ok(());
    };
    let got = pin_of(seed, p);
    if got != *want {
        return Err(format!(
            "{}: pinned inputs changed for seed {seed}: generated {got:x?}, pinned {want:x?} — \
             hamlet-stream or the engine's semantics moved, so numbers no longer compare \
             (re-pin deliberately with --repin)",
            w.name
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::QueryId;
    use hamlet_types::{GroupKey, Ts};

    #[test]
    fn determining_event_on_an_out_of_order_stream_with_slack() {
        // Arrival order with lateness up to 1 tick.
        let times = [0u64, 1, 3, 2, 5, 4, 7, 6, 9, 8, 12, 11];
        let mut running_max = Vec::new();
        let mut max = 0;
        for t in times {
            max = max.max(t);
            running_max.push(max);
        }
        // In order would close [0,5) at t=5; with slack 2 the watermark
        // reaches 5 only once 7 has been seen — position 6.
        assert_eq!(determining_event(&running_max, 5, 2), Some(6));
        assert_eq!(determining_event(&running_max, 5, 0), Some(4));
        // The late 4 (position 5) never determines anything: the running
        // maximum was already 5.
        assert_eq!(determining_event(&running_max, 4, 0), Some(4));
        assert_eq!(determining_event(&running_max, 10, 2), Some(10));
        // Only the final drain closes a window the stream never outruns.
        assert_eq!(determining_event(&running_max, 11, 2), None);
        assert_eq!(determining_event(&running_max, u64::MAX, 2), None);
        assert_eq!(determining_event(&[], 0, 0), None);
    }

    fn row(query: u32, start: u64, key: i64, value: AggValue) -> WindowResult {
        WindowResult {
            query: QueryId(query),
            group_key: GroupKey(vec![AttrValue::Int(key)]),
            window_start: Ts(start),
            value,
        }
    }

    #[test]
    fn compare_counts_missing_different_and_extra() {
        let mut reference = vec![
            row(0, 0, 1, AggValue::Count(3)),
            row(0, 0, 2, AggValue::Count(4)),
            row(1, 0, 1, AggValue::Float(0.5)),
            row(0, 10, 1, AggValue::Count(9)),
        ];
        sort_results(&mut reference);
        let mut same = reference.clone();
        same.reverse(); // delivery order does not matter
        assert_eq!(compare(&mut same, &reference), Mismatch::default());

        let mut got = vec![
            row(0, 0, 1, AggValue::Count(3)),
            row(0, 0, 2, AggValue::Count(5)),  // different
            row(0, 10, 1, AggValue::Count(9)), // (1,0,1) missing
            row(0, 10, 1, AggValue::Count(9)), // duplicate = extra
            row(2, 20, 7, AggValue::Null),     // extra
        ];
        let m = compare(&mut got, &reference);
        assert_eq!(
            m,
            Mismatch {
                missing: 1,
                different: 1,
                extra: 2
            }
        );
        assert_eq!(m.failed(), 4);
        assert_eq!(compare(&mut [], &reference).missing, 4);
    }

    #[test]
    fn digests_see_order_and_every_field() {
        let a = row(0, 0, 1, AggValue::Count(3));
        let b = row(0, 0, 2, AggValue::Count(3));
        let ab = result_digest(&[a.clone(), b.clone()]);
        assert_ne!(ab, result_digest(&[b.clone(), a.clone()]));
        assert_ne!(
            ab,
            result_digest(&[a.clone(), row(0, 0, 2, AggValue::Count(4))])
        );
        assert_ne!(
            ab,
            result_digest(&[a.clone(), row(0, 0, 2, AggValue::Float(3.0))])
        );
        assert_eq!(ab, result_digest(&[a, b]));
        // FNV-1a test vector: the empty input is the offset basis, "a" is
        // the published 64-bit hash.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_workload_has_distinct_pins_and_parsing_queries() {
        for w in &WORKLOADS {
            assert!(find(w.name).is_some());
            assert!(w.pin(DEFAULT_SEED).is_some() && w.pin(ALT_SEED).is_some());
            assert!(w.pin(12_345).is_none());
            let inputs = w.inputs(DEFAULT_SEED, true).expect("smoke inputs");
            assert_eq!(inputs.queries.len(), (w.query_texts)().len());
            assert_eq!(
                inputs.delivered.len() as u64,
                w.events_per_min * w.minutes_at(true)
            );
        }
    }
}
