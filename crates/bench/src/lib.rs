//! # hamlet-bench
//!
//! The measurement harness that regenerates every figure of the HAMLET
//! evaluation (§6.2). A [`Driver`] feeds one [`Point`] — a stream and a
//! workload — through one system under test and reports the paper's
//! three metrics — latency, throughput, peak memory — plus the sharing
//! counters behind the dynamic-vs-static analysis. [`measure`] is the one
//! estimator: the columns of a point run in interleaved rounds until each
//! has [`FLOOR`] of measured wall, and a cell is its median round.
//! [`figures::SWEEPS`] is the table of sweeps the `figures` binary runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hamlet_baselines::{GretaEngine, SharonEngine, TwoStepEngine};
use hamlet_core::{
    ChurnOp, CutKind, EngineConfig, EngineStats, HamletEngine, LatencyRecorder, ParallelEngine,
    ParallelSession, SharingPolicy, Snapshot,
};
use hamlet_pipeline::{CountingSink, Pipeline, RateLimitedSource, ReplaySource};
use hamlet_query::Query;
use hamlet_types::{Event, TypeRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod figures;
pub mod json;

/// One measurement row; `Default` is the zeroed row every driver fills in.
#[derive(Clone, Debug, Default)]
pub struct Measurement {
    /// System under test: the column's `BENCH.json` label.
    pub system: String,
    /// Events fed.
    pub events: u64,
    /// Queries in the workload.
    pub queries: usize,
    /// Wall-clock processing time.
    pub wall: Duration,
    /// Average result latency (result output − last contributing event).
    pub latency_avg: Duration,
    /// Median end-to-end result latency (pipeline runs only; zero for
    /// offline harnesses, which cannot measure queueing).
    pub latency_p50: Duration,
    /// 99th-percentile end-to-end result latency (pipeline runs only) —
    /// the tail the `fig_latency` sweep plots and CI gates.
    pub latency_p99: Duration,
    /// Throughput in events per second.
    pub throughput_eps: f64,
    /// Peak byte-accounted state.
    pub peak_mem_bytes: usize,
    /// Snapshots created (HAMLET variants only).
    pub snapshots: u64,
    /// Shared bursts (HAMLET variants only).
    pub shared_bursts: u64,
    /// Solo bursts (HAMLET variants only).
    pub solo_bursts: u64,
    /// Graphlet merges + splits (HAMLET variants only).
    pub transitions: u64,
    /// Results emitted.
    pub results: u64,
    /// Two-step enumerations truncated by the work budget.
    pub truncated: u64,
    /// Serialized checkpoint size in bytes (`fig_checkpoint` runs only;
    /// 0 when the run took no checkpoint).
    pub checkpoint_bytes: u64,
    /// Checkpoint pause: how long the drain barrier + state
    /// serialization stalled processing (`fig_checkpoint` runs only) —
    /// CI gates it as a fraction of `wall` (`perf_gate`'s `pause` rows). For
    /// delta-chain runs this is the *mean* per-cut pause at the fixed
    /// cadence.
    pub checkpoint_pause: Duration,
    /// Mean serialized size of one incremental delta record
    /// (delta-chain `fig_checkpoint` runs only; 0 when the run cut no
    /// deltas). CI gates the ratio against `checkpoint_bytes` — the
    /// base size — in `perf_gate`'s `delta-size` row.
    pub delta_bytes: u64,
    /// Recovery time: building a fresh engine and replaying the stored
    /// base + delta chain into it (`fig_checkpoint` runs only; 0 when
    /// the run measured no recovery). CI gates it as a fraction of `wall`
    /// (`perf_gate`'s `recovery*` rows).
    pub recovery_time: Duration,
}

impl Measurement {
    /// Serializes this row as a JSON object. Durations are emitted as
    /// fractional seconds; every float goes through [`json::num`], so a
    /// zero-duration run (`inf`/`NaN` throughput) can never poison the
    /// report with invalid JSON. (Hand-rolled: the offline build has no
    /// serde.)
    pub fn to_json(&self) -> String {
        format!(
            "{{\"system\":\"{}\",\"events\":{},\"queries\":{},\"wall\":{},\"latency_avg\":{},\
             \"latency_p50\":{},\"latency_p99\":{},\
             \"throughput_eps\":{},\"peak_mem_bytes\":{},\"snapshots\":{},\"shared_bursts\":{},\
             \"solo_bursts\":{},\"transitions\":{},\"results\":{},\"truncated\":{},\
             \"checkpoint_bytes\":{},\"checkpoint_pause\":{},\"delta_bytes\":{},\
             \"recovery_time\":{}}}",
            json::escape(&self.system),
            self.events,
            self.queries,
            json::num(self.wall.as_secs_f64()),
            json::num(self.latency_avg.as_secs_f64()),
            json::num(self.latency_p50.as_secs_f64()),
            json::num(self.latency_p99.as_secs_f64()),
            json::num(self.throughput_eps),
            self.peak_mem_bytes,
            self.snapshots,
            self.shared_bursts,
            self.solo_bursts,
            self.transitions,
            self.results,
            self.truncated,
            self.checkpoint_bytes,
            json::num(self.checkpoint_pause.as_secs_f64()),
            self.delta_bytes,
            json::num(self.recovery_time.as_secs_f64()),
        )
    }

    /// Fills in the sharing counters from an engine's (or a sharded
    /// run's merged) statistics.
    pub fn set_sharing(&mut self, s: &EngineStats) {
        self.snapshots = s.runs.snapshots();
        self.shared_bursts = s.runs.shared_bursts;
        self.solo_bursts = s.runs.solo_bursts;
        self.transitions = s.runs.merges + s.runs.splits;
    }

    /// A whole single-subject run that started at `t0`: the point's
    /// stream through `process`, event by event, then [`close`](Self::close).
    fn fold<S: Subject>(&mut self, mut subject: S, p: &Point, t0: Instant) -> S {
        self.results = subject.feed(&p.events);
        self.close(&mut subject, t0);
        subject
    }

    /// Ends a single-subject run that started at `t0`: flushes, stops
    /// the clock and reads the subject's latency and peak state.
    fn close(&mut self, subject: &mut impl Subject, t0: Instant) {
        self.results += subject.finish();
        self.wall = t0.elapsed();
        self.latency_avg = subject.latency();
        self.peak_mem_bytes = subject.peak();
    }
}

/// Harness knobs.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// SHARON's estimated longest Kleene match (`l`).
    pub sharon_max_len: usize,
    /// Two-step DFS work budget per (query, window).
    pub twostep_budget: Option<u64>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            sharon_max_len: 64,
            twostep_budget: Some(2_000_000),
        }
    }
}

/// One x of a sweep, ready to evaluate: what every column of the point
/// is handed.
pub struct Point {
    /// The data set's type registry.
    pub reg: Arc<TypeRegistry>,
    /// The workload.
    pub queries: Vec<Query>,
    /// The stream.
    pub events: Vec<Event>,
    /// The swept value. The runner has applied it where the axis is a
    /// property of the stream or the workload; a driver whose parameter
    /// *is* the axis (workers, offered rate, churn ops) reads it here.
    pub x: u64,
    /// Baseline knobs.
    pub harness: HarnessConfig,
}

impl Point {
    pub(crate) fn engine(&self, cfg: EngineConfig) -> HamletEngine {
        HamletEngine::new(self.reg.clone(), self.queries.clone(), cfg).expect("engine builds")
    }

    fn parallel(&self, workers: u32) -> ParallelEngine {
        let cfg = EngineConfig::default();
        ParallelEngine::new(self.reg.clone(), self.queries.clone(), cfg, workers)
            .expect("parallel engine builds")
    }
}

/// What a driver feeds and reads: the four single-threaded evaluators
/// and the sharded session, behind the calls they share by name.
trait Subject {
    /// Processes `events`; the number of results.
    fn feed(&mut self, events: &[Event]) -> u64;
    /// Flushes; the number of results.
    fn finish(&mut self) -> u64;
    /// Average result latency.
    fn latency(&self) -> Duration;
    /// Peak byte-accounted state.
    fn peak(&self) -> usize;
}

macro_rules! subject {
    ($($engine:ty),+) => {$(
        impl Subject for $engine {
            fn feed(&mut self, events: &[Event]) -> u64 {
                events.iter().map(|e| self.process(e).len() as u64).sum()
            }
            fn finish(&mut self) -> u64 {
                self.flush().len() as u64
            }
            fn latency(&self) -> Duration {
                <$engine>::latency(self).avg()
            }
            fn peak(&self) -> usize {
                self.peak_memory().max(self.state_bytes())
            }
        }
    )+};
}
subject!(HamletEngine, GretaEngine, SharonEngine, TwoStepEngine);

impl Subject for ParallelSession {
    fn feed(&mut self, events: &[Event]) -> u64 {
        self.process(events).len() as u64
    }
    fn finish(&mut self) -> u64 {
        self.flush().len() as u64
    }
    fn latency(&self) -> Duration {
        let mut all = LatencyRecorder::new();
        self.engines().iter().for_each(|e| all.merge(e.latency()));
        all.avg()
    }
    fn peak(&self) -> usize {
        self.engines().iter().map(Subject::peak).sum()
    }
}

/// Where a [`Driver::Checkpoint`] run cuts.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Cuts {
    /// Nowhere: the loop the cadence overhead is measured against.
    Never,
    /// Once, full, at the middle of the stream; the rest of the stream
    /// runs on the restored side.
    Midpoint,
    /// Every [`CUT_CADENCE`] events (the final partial chunk too), every
    /// [`COMPACT_EVERY`]th cut a full base and the others deltas.
    Cadence,
}

/// Events between the cuts of [`Cuts::Cadence`]. A delta re-encodes every
/// partition touched since the previous cut (~1 KiB each on the
/// `fig_checkpoint` workload), so the cadence bounds the steady-state
/// delta size whatever the total state.
pub const CUT_CADENCE: usize = 500;
/// Every `COMPACT_EVERY`th cadence cut is a full base.
pub const COMPACT_EVERY: u64 = 8;

/// How one column of a sweep evaluates a [`Point`] (§6, Table 1 / Fig. 9,
/// and the experiments beyond the paper).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Driver {
    /// One `HamletEngine` under a sharing policy (§4; `AlwaysShare` is
    /// §6.2's static plan, `NeverShare` the non-shared executor), with
    /// the per-share-group counters on or off, fed through
    /// `process_batch`.
    Engine {
        /// The sharing policy.
        policy: SharingPolicy,
        /// `EngineConfig::obs`: the per-share-group counters.
        obs: bool,
        /// Events per `process_batch` call: 1024 as production callers
        /// do — or 1, which is what `process` is: what a per-event caller
        /// runs, and the fold `process_batch`'s contract is written
        /// against.
        batch: usize,
    },
    /// The GRETA baseline (per-query predecessor scans, §3.2).
    Greta,
    /// The SHARON-style flattening baseline (no Kleene support, §6.1).
    Sharon,
    /// The MCEP-style two-step baseline (trend construction).
    TwoStep,
    /// The shared-nothing parallel path: `x` shard-owning engines behind
    /// a batching router (`hamlet_core::ParallelEngine`).
    Parallel,
    /// The online runtime (`hamlet_pipeline`) with this many shard
    /// workers under an open-loop source paced at `x` events/s: below
    /// capacity the tail stays flat, approaching it the bounded channels
    /// fill and p99 measures real backpressure.
    Paced(u32),
    /// `x` scheduled churn operations over the stream, alternately
    /// removing and re-adding workload queries at evenly spaced
    /// positions. Online (`false`), one engine applies each in place
    /// through `HamletEngine::apply`: only the share groups a change
    /// touches are rebuilt and affected windows drain at the barrier. The
    /// restart baseline (`true`) does what an operator without churn
    /// support must: rebuild the engine for the new query set and replay
    /// every event still inside an open window.
    Churn(bool),
    /// A run that checkpoints: a single engine (`None`) or a coordinated
    /// session of this many workers, cut as [`Cuts`] says into a
    /// `MemStore`; a fresh subject is then recovered from the stored
    /// chain, checked **byte-identical** to the survivor at that
    /// barrier, and finishes the run. `wall` is the feeding and cutting;
    /// recovery is reported beside it.
    Checkpoint(Option<u32>, Cuts),
}

impl Driver {
    /// Evaluates `p` once and reports the §6.1 metrics. The row's
    /// `system` is left for the caller, who knows the column's label.
    pub fn run(self, p: &Point) -> Measurement {
        let mut m = Measurement {
            events: p.events.len() as u64,
            queries: p.queries.len(),
            ..Measurement::default()
        };
        let t0 = Instant::now();
        match self {
            Driver::Engine { policy, obs, batch } => {
                let cfg = EngineConfig {
                    policy,
                    obs,
                    ..EngineConfig::default()
                };
                let mut eng = p.engine(cfg);
                for batch in p.events.chunks(batch) {
                    m.results += eng.process_batch(batch).len() as u64;
                }
                m.close(&mut eng, t0);
                m.set_sharing(eng.stats());
            }
            Driver::Greta => {
                let eng = GretaEngine::new(p.reg.clone(), p.queries.clone());
                m.fold(eng.expect("greta builds"), p, t0);
            }
            Driver::Sharon => {
                let max_len = p.harness.sharon_max_len;
                let eng = SharonEngine::new(p.reg.clone(), p.queries.clone(), max_len);
                m.fold(eng.expect("sharon builds"), p, t0);
            }
            Driver::TwoStep => {
                let budget = p.harness.twostep_budget;
                let eng = TwoStepEngine::new(p.reg.clone(), p.queries.clone(), budget);
                m.truncated = m.fold(eng.expect("twostep builds"), p, t0).truncated();
            }
            Driver::Parallel => {
                let report = p.parallel(p.x as u32).run(&p.events);
                m.results = report.results.len() as u64;
                m.wall = t0.elapsed();
                m.latency_avg = report.merged_latency().avg();
                m.peak_mem_bytes = report.total_peak_mem();
                m.set_sharing(&report.merged_stats());
            }
            Driver::Paced(workers) => {
                let source =
                    RateLimitedSource::new(ReplaySource::new(p.events.clone()), p.x as f64);
                let report = Pipeline::builder(p.reg.clone(), p.queries.clone())
                    .workers(workers)
                    .spawn(source, CountingSink::new())
                    .expect("pipeline spawns")
                    .drain();
                m.wall = t0.elapsed();
                m.results = report.results;
                m.latency_avg = report.latency.avg();
                m.latency_p50 = report.latency.p50();
                m.latency_p99 = report.latency.p99();
                m.peak_mem_bytes = report.peak_mem.iter().sum();
                m.set_sharing(&report.merged_stats());
            }
            Driver::Churn(restart) => churn(&mut m, p, restart, t0),
            Driver::Checkpoint(None, cuts) => {
                checkpoint(&mut m, p, cuts, &|| p.engine(EngineConfig::default()))
            }
            Driver::Checkpoint(Some(workers), cuts) => {
                // Compiling the router is neither feeding nor recovery.
                let par = p.parallel(workers);
                checkpoint(&mut m, p, cuts, &|| par.session())
            }
        }
        m.throughput_eps = m.events as f64 / m.wall.as_secs_f64().max(1e-9);
        m
    }
}

/// The body of [`Driver::Churn`]. Replay emissions of a restart are
/// recomputations of state, not new results, so only post-restart
/// processing counts toward `results`.
fn churn(m: &mut Measurement, p: &Point, restart: bool, t0: Instant) {
    let (events, ops) = (&p.events, p.x as usize);
    let mut live = p.queries.clone();
    let mut eng = p.engine(EngineConfig::default());
    let mut next = 0;
    for (idx, e) in events.iter().enumerate() {
        // Op `j` is due at its evenly spaced position. Cycling through
        // the workload keeps the live set within one query of its size,
        // with consecutive ops touching different share groups.
        while next < ops && (next + 1) * events.len() / (ops + 1) <= idx {
            let q = &p.queries[(next / 2) % p.queries.len()];
            let op = if next % 2 == 0 {
                ChurnOp::Remove(q.id)
            } else {
                ChurnOp::Add(q.clone())
            };
            next += 1;
            if !restart {
                let report = eng.apply(op).expect("churn schedule is valid");
                m.results += report.drained.len() as u64;
                continue;
            }
            match op {
                ChurnOp::Add(q) => live.push(q),
                ChurnOp::Remove(id) => live.retain(|q| q.id != id),
            }
            // The stream is in timestamp order, so the replay tail is a
            // suffix of the processed prefix: every event whose window
            // horizon (the largest surviving `WITHIN`) still reaches
            // past the last processed timestamp.
            let wm = events[idx.saturating_sub(1)].time.ticks();
            let within = live.iter().map(|q| q.window.within).max().unwrap_or(0);
            let tail = events[..idx].partition_point(|e| e.time.ticks() + within <= wm);
            eng = HamletEngine::new(p.reg.clone(), live.clone(), EngineConfig::default())
                .expect("engine builds");
            eng.feed(&events[tail..idx]);
        }
        m.results += eng.process(e).len() as u64;
    }
    m.close(&mut eng, t0);
    m.set_sharing(eng.stats());
}

/// The body of [`Driver::Checkpoint`] over subjects built by `mk`.
fn checkpoint<T: Subject + Snapshot>(
    m: &mut Measurement,
    p: &Point,
    cuts: Cuts,
    mk: &dyn Fn() -> T,
) {
    use hamlet_core::{CheckpointStore, MemStore};
    let (cut, chunk, rest) = match cuts {
        Cuts::Never => (&[][..], 1, &p.events[..]),
        Cuts::Midpoint => {
            let (head, tail) = p.events.split_at(p.events.len() / 2);
            (head, head.len().max(1), tail)
        }
        Cuts::Cadence => (&p.events[..], CUT_CADENCE, &[][..]),
    };
    let store = MemStore::new();
    let t0 = Instant::now();
    let mut live = mk();
    let (mut cut_count, mut cut_time) = (0u64, Duration::ZERO);
    let (mut delta_sum, mut deltas) = (0u64, 0u64);
    for piece in cut.chunks(chunk) {
        m.results += live.feed(piece);
        let kind = if cut_count.is_multiple_of(COMPACT_EVERY) {
            CutKind::Full
        } else {
            CutKind::Delta
        };
        let p0 = Instant::now();
        let ck = live.cut(kind).expect("cut");
        cut_time += p0.elapsed();
        if ck.is_delta() {
            delta_sum += ck.len() as u64;
            deltas += 1;
        } else {
            m.checkpoint_bytes = ck.len() as u64;
        }
        store.append(&ck).expect("chain append");
        cut_count += 1;
    }
    m.wall = t0.elapsed();
    if cut_count > 0 {
        let chain = store.load_chain().expect("chain loads");
        let r0 = Instant::now();
        let mut recovered = mk();
        recovered.restore_chain(&chain).expect("chain restores");
        m.recovery_time = r0.elapsed();
        // Byte-identity at the shared barrier: both sides cut a full
        // record before either processes anything further.
        assert!(
            recovered.cut(CutKind::Full).expect("verify cut").as_bytes()
                == live.cut(CutKind::Full).expect("verify cut").as_bytes(),
            "chain restore must be byte-identical to the survivor"
        );
        live = recovered;
    }
    let t1 = Instant::now();
    m.results += live.feed(rest) + live.finish();
    m.wall += t1.elapsed();
    m.latency_avg = live.latency();
    m.peak_mem_bytes = live.peak();
    m.checkpoint_pause = cut_time.checked_div(cut_count as u32).unwrap_or_default();
    m.delta_bytes = delta_sum.checked_div(deltas).unwrap_or(0);
}

/// Measured wall a column of a point accumulates before it stops running:
/// a point is sized by the clock, not by an event count someone must
/// re-tune each time the engine gets faster.
pub const FLOOR: Duration = Duration::from_millis(200);
/// Runs after which a column stops whatever it accumulated. A guard
/// against a driver that reports no wall, not a budget: the quick
/// sweep's shortest run (0.2 ms) needs 1000 to reach [`FLOOR`].
pub const MAX_ROUNDS: usize = 4096;

/// Times a point is measured before an unsteady reading is reported. An
/// addition to the plain floor-and-median estimator that an A/B at this
/// commit keeps (EXPERIMENTS.md, "With and without the re-measure rule"):
/// five interleaved quick sweeps each, `fig_obs` obs ÷ noobs 0.946–1.010
/// with it and 0.901–1.011 without, same-run gates failing 0 of 5 sweeps
/// with it and 3 of 5 without, for 2–4 s more per sweep.
pub const ATTEMPTS: usize = 3;
/// A column is steady when its median run took at most this much longer
/// than its fastest. Within one regime of this shared host the runs of a
/// column agree to a few percent; a noisy neighbour is a step of 1.5x and
/// more that lasts for tenths of a second.
pub const STEADY: f64 = 1.1;

/// The one estimator. The columns of a point run interleaved — A, B, A,
/// B, … — each until the walls its runs reported add up to [`FLOOR`] (at
/// least one run, at most [`MAX_ROUNDS`]); a cell is the column's median
/// run by wall, every field of it from that one run. The column that
/// runs next is the one that has accumulated the least wall, so columns
/// of unequal cost still spread their runs over the same stretch of
/// time — a cheap column takes several turns per turn of an expensive
/// one — and whatever the host does during the point lands on every
/// column's runs in the same proportion. A median is still a step
/// function of that proportion: when the host changes regime half-way
/// through a point, two columns' medians can land on different sides of
/// the step. So a point with a column (of four runs or more) that is not
/// [`STEADY`] is measured again, [`ATTEMPTS`] times at most.
pub fn measure<F: FnMut() -> Measurement>(columns: &mut [F]) -> Vec<Measurement> {
    let mut cells = Vec::new();
    for _ in 0..ATTEMPTS {
        cells = vec![(Duration::ZERO, Vec::<Measurement>::new()); columns.len()];
        while let Some(next) = (0..cells.len())
            .filter(|&i| cells[i].0 < FLOOR && cells[i].1.len() < MAX_ROUNDS)
            .min_by_key(|&i| cells[i].0)
        {
            let m = columns[next]();
            cells[next].0 += m.wall;
            cells[next].1.push(m);
        }
        cells
            .iter_mut()
            .for_each(|(_, runs)| runs.sort_by_key(|m| m.wall));
        let steady = |(_, runs): &(Duration, Vec<Measurement>)| {
            runs.len() < 4 || runs[runs.len() / 2].wall <= runs[0].wall.mul_f64(STEADY)
        };
        if cells.iter().all(steady) {
            break;
        }
    }
    let median = |(_, mut runs): (Duration, Vec<Measurement>)| runs.swap_remove(runs.len() / 2);
    cells.into_iter().map(median).collect()
}

/// Serializes measured figures as the machine-readable `BENCH.json`
/// report: one document with the run mode and, per figure, its id,
/// x-axis, and per-system measurements (throughput, latency, peak
/// memory, sharing counters). The CI perf gate (`perf_gate` binary)
/// consumes this format: every check is a ratio of two of its cells.
pub fn bench_json(mode: &str, figs: &[figures::Figure]) -> String {
    let row = |(x, ms): &(String, Vec<Measurement>)| {
        let measurements: Vec<String> = ms
            .iter()
            .map(|m| format!("        {}", m.to_json()))
            .collect();
        format!(
            "      {{\"x\": \"{}\", \"measurements\": [\n{}\n      ]}}",
            json::escape(x),
            measurements.join(",\n")
        )
    };
    let figure = |fig: &figures::Figure| {
        let rows: Vec<String> = fig.rows.iter().map(row).collect();
        format!(
            "    {{\"id\": \"{}\", \"title\": \"{}\", \"x_label\": \"{}\", \"rows\": [\n{}\n    ]}}",
            json::escape(fig.sweep.id),
            json::escape(fig.sweep.title),
            json::escape(fig.sweep.axis.label()),
            rows.join(",\n")
        )
    };
    let figures: Vec<String> = figs.iter().map(figure).collect();
    format!(
        "{{\n  \"schema\": \"hamlet-bench-v1\",\n  \"mode\": \"{}\",\n  \"figures\": [\n{}\n  ]\n}}\n",
        json::escape(mode),
        figures.join(",\n")
    )
}

/// Renders rows as a markdown table keyed by an x-axis label.
pub fn markdown_table(x_label: &str, rows: &[(String, Vec<Measurement>)]) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "| {x_label} | system | latency avg | latency p99 | throughput (ev/s) | peak mem (KB) | snapshots | shared/solo bursts |\n\
         |---|---|---|---|---|---|---|---|\n"
    );
    for (x, ms) in rows {
        for m in ms {
            let _ = writeln!(
                out,
                "| {x} | {} | {:?} | {} | {:.0} | {} | {} | {}/{} |",
                m.system,
                m.latency_avg,
                if m.latency_p99 > Duration::ZERO {
                    format!("{:?}", m.latency_p99)
                } else {
                    "—".into()
                },
                m.throughput_eps,
                m.peak_mem_bytes / 1024,
                m.snapshots,
                m.shared_bursts,
                m.solo_bursts,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use figures::{Axis, Sweep, Workload};
    use hamlet_stream::Dataset;

    /// 600 ridesharing events over 5 queries.
    static TINY: Sweep = Sweep {
        id: "test_fig",
        title: "harness \"smoke\"",
        dataset: Dataset::Ridesharing,
        rate: [0, 0],
        minutes: 1,
        burst: 10.0,
        keys: [2, 2],
        seed: 5,
        workload: Workload::Builtin([5, 5], 30),
        axis: Axis::Rate,
        xs: [&[600], &[600]],
        columns: &[("HAMLET", DYNAMIC), ("GRETA", Driver::Greta)],
    };
    const DYNAMIC: Driver = Driver::Engine {
        policy: SharingPolicy::Dynamic,
        obs: true,
        batch: 1,
    };
    const STATIC_BARE_64: Driver = Driver::Engine {
        policy: SharingPolicy::AlwaysShare,
        obs: false,
        batch: 64,
    };

    #[test]
    fn harness_runs_all_systems() {
        let mut p = TINY.point(true, 600);
        (p.harness.sharon_max_len, p.harness.twostep_budget) = (32, Some(200_000));
        // A driver whose parameter is the axis takes it as the point's x:
        // 2 workers; 2 cut sessions; 100K offered events/s; 4 churn ops.
        for (driver, x) in [
            (DYNAMIC, 600),
            (STATIC_BARE_64, 600),
            (Driver::Greta, 600),
            (Driver::Sharon, 600),
            (Driver::TwoStep, 600),
            (Driver::Parallel, 2),
            (Driver::Checkpoint(Some(2), Cuts::Cadence), 600),
            (Driver::Checkpoint(None, Cuts::Midpoint), 600),
            (Driver::Paced(2), 100_000),
            (Driver::Churn(false), 4),
            (Driver::Churn(true), 4),
        ] {
            p.x = x;
            let m = driver.run(&p);
            assert_eq!(m.events, 600);
            assert!(m.results > 0, "{driver:?} produced results");
            assert!(m.throughput_eps > 0.0 && m.wall > Duration::ZERO);
            // HAMLET variants expose sharing counters.
            let counted = m.shared_bursts + m.solo_bursts > 0;
            assert_eq!(
                counted,
                matches!(
                    driver,
                    Driver::Engine { .. } | Driver::Parallel | Driver::Paced(_) | Driver::Churn(_)
                ),
                "{driver:?}"
            );
        }

        // A sweep through the runner: the table renders, and the
        // machine-readable report parses back and carries the §6.1
        // metrics per system under the columns' labels.
        let fig = TINY.run(true);
        let table = markdown_table(fig.sweep.axis.label(), &fig.rows);
        assert!(table.contains("| 600 | HAMLET |") && table.contains("| 600 | GRETA |"));
        let doc = bench_json("quick", &[fig]);
        let v = json::parse(&doc).expect("BENCH.json parses");
        assert_eq!(
            v.get("schema").and_then(json::Json::as_str),
            Some("hamlet-bench-v1")
        );
        let figs = v.get("figures").and_then(json::Json::as_arr).unwrap();
        assert_eq!(
            figs[0].get("title").and_then(json::Json::as_str),
            Some(TINY.title)
        );
        let row = figs[0].get("rows").and_then(json::Json::as_arr).unwrap();
        let measurements = row[0]
            .get("measurements")
            .and_then(json::Json::as_arr)
            .unwrap();
        assert_eq!(measurements.len(), 2);
        for m in measurements {
            assert!(
                m.get("throughput_eps")
                    .and_then(json::Json::as_f64)
                    .unwrap()
                    > 0.0
            );
            assert!(m
                .get("peak_mem_bytes")
                .and_then(json::Json::as_f64)
                .is_some());
            assert!(m.get("latency_avg").and_then(json::Json::as_f64).is_some());
        }
    }

    /// A column that reports the scripted walls (ms) in turn and logs
    /// its name at every call.
    fn scripted<'a>(
        name: char,
        walls: &'a [u64],
        log: &'a std::cell::RefCell<String>,
    ) -> impl FnMut() -> Measurement + 'a {
        let mut calls = 0;
        move || {
            log.borrow_mut().push(name);
            calls += 1;
            Measurement {
                events: calls - 1,
                wall: Duration::from_millis(walls[(calls - 1) as usize % walls.len()]),
                ..Measurement::default()
            }
        }
    }

    #[test]
    fn rounds_interleave_stop_at_the_floor_and_report_the_median() {
        let log = std::cell::RefCell::new(String::new());
        // A reaches 200 ms with its fifth run (42+40+39+41+38), B with
        // its second; C's single run exceeds the floor. The column with
        // the least wall so far runs next, the first on a tie — so A, at
        // 82 ms after two runs, takes a third before B's second.
        let mut columns = [
            scripted('A', &[42, 40, 39, 41, 38], &log),
            scripted('B', &[100], &log),
            scripted('C', &[900], &log),
        ];
        let cells = measure(&mut columns);
        assert_eq!(*log.borrow(), "ABCAABAA");
        // The median run by wall, whole: A's 40 ms run was its second
        // call (`events` carries the call index), C's only run its first.
        let got: Vec<_> = cells
            .iter()
            .map(|m| (m.wall.as_millis(), m.events))
            .collect();
        assert_eq!(got[0], (40, 1));
        assert_eq!(got[1].0, 100);
        assert_eq!(got[2], (900, 0));
    }

    /// The host changes regime in the middle of the first attempt: the
    /// median run (50 ms) is not within 10% of the fastest (30 ms), so the
    /// point — every column of it — is measured again, and the steady
    /// second attempt is the one reported. A point that never settles
    /// reports its third attempt.
    #[test]
    fn an_unsteady_point_is_measured_again() {
        let log = std::cell::RefCell::new(String::new());
        let mut columns = [
            scripted('A', &[30, 30, 50, 50, 50, 50, 50, 50, 50], &log),
            scripted('B', &[200], &log),
        ];
        let cells = measure(&mut columns);
        assert_eq!(*log.borrow(), "ABAAAA".to_owned() + "ABAAA");
        assert_eq!((cells[0].wall.as_millis(), cells[1].events), (50, 1));

        let log = std::cell::RefCell::new(String::new());
        let cells = measure(&mut [scripted('Z', &[30, 30, 50, 50, 50], &log)]);
        assert_eq!(log.borrow().len(), 5 * ATTEMPTS);
        assert_eq!(cells[0].wall.as_millis(), 50);
    }

    #[test]
    fn a_column_that_reports_no_wall_stops_at_the_cap() {
        let log = std::cell::RefCell::new(String::new());
        let mut columns = [scripted('Z', &[0], &log)];
        let cells = measure(&mut columns);
        assert_eq!(log.borrow().len(), MAX_ROUNDS);
        assert_eq!(cells.len(), 1);
    }
}
