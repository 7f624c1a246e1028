//! The figure table (§6.2): every experiment the `figures` binary runs
//! is one row of [`SWEEPS`] — a data set, a stream template, a workload,
//! the swept axis and the columns measured at each of its values — and
//! [`Sweep::run`] is the one runner. Adding a sweep is adding a row.
//! Absolute numbers depend on the host; the *shape* — who wins, by what
//! factor, where the crossovers fall — is what the reproduction asserts
//! (see EXPERIMENTS.md).

use crate::{measure, Cuts, Driver, HarnessConfig, Measurement, Point};
use hamlet_core::{EngineConfig, SharingPolicy};
use hamlet_query::parse_query;
use hamlet_stream::{ridesharing, Dataset, GenConfig};
use std::time::{Duration, Instant};

/// One measured experiment: a sweep and its series.
pub struct Figure {
    /// The row of the table that was run.
    pub sweep: &'static Sweep,
    /// Rows: (x-axis value, measurements per system).
    pub rows: Vec<(String, Vec<Measurement>)>,
}

/// What a sweep's x is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Axis {
    /// The stream's events per minute.
    Rate,
    /// The workload's query count.
    Queries,
    /// The stream's distinct partition keys.
    Keys,
    /// Something the runner does not apply, under this x-axis label:
    /// the columns' drivers (workers, offered events/s, churn ops) or the
    /// workload's text read [`Point::x`].
    Other(&'static str),
}

impl Axis {
    /// The x-axis label.
    pub fn label(self) -> &'static str {
        match self {
            Axis::Rate => "events/min",
            Axis::Queries => "queries",
            Axis::Keys => "partition keys",
            Axis::Other(label) => label,
        }
    }
}

/// Where a sweep's queries come from.
#[derive(Copy, Clone)]
pub enum Workload {
    /// `[quick, full]` queries (ignored under [`Axis::Queries`]) from the
    /// data set's own builder, over windows of this many seconds.
    Builtin([usize; 2], u64),
    /// This many queries (ignored under [`Axis::Queries`]), query `i`
    /// parsed from the text `(i, x)` names.
    Text(u32, fn(u64, u64) -> String),
}

/// One row of [`SWEEPS`]. Pairs are `[quick, full]`.
pub struct Sweep {
    /// Identifier, e.g. `fig9_events`.
    pub id: &'static str,
    /// What the paper plots.
    pub title: &'static str,
    /// The data set.
    pub dataset: Dataset,
    /// The stream (ordered, uniform in its keys): events per minute — 0
    /// under [`Axis::Rate`], which sweeps it.
    pub rate: [u64; 2],
    /// Stream length in minutes.
    pub minutes: u64,
    /// Mean burst length in events.
    pub burst: f64,
    /// Distinct partition keys — 0 under [`Axis::Keys`], which sweeps it.
    pub keys: [u64; 2],
    /// The generator's seed.
    pub seed: u64,
    /// The workload.
    pub workload: Workload,
    /// What x is.
    pub axis: Axis,
    /// The swept values.
    pub xs: [&'static [u64]; 2],
    /// The columns: `BENCH.json` system label (`{x}` stands for the x
    /// value) and the driver measured under it.
    pub columns: &'static [(&'static str, Driver)],
}

/// HAMLET with the dynamic sharing optimizer (§4), fed per event.
const HAMLET: Driver = Driver::Engine {
    policy: SharingPolicy::Dynamic,
    obs: true,
    batch: 1,
};
/// The production feed: 1024-event batches.
const BATCHED: Driver = Driver::Engine {
    policy: SharingPolicy::Dynamic,
    obs: true,
    batch: 1024,
};
/// The production feed without its per-share-group counters.
const NOOBS: Driver = Driver::Engine {
    policy: SharingPolicy::Dynamic,
    obs: false,
    batch: 1024,
};
/// HAMLET's executor under a static always-share plan (§6.2).
const STATIC: Driver = Driver::Engine {
    policy: SharingPolicy::AlwaysShare,
    obs: true,
    batch: 1,
};
/// HAMLET's executor with sharing disabled.
const NOSHARE: Driver = Driver::Engine {
    policy: SharingPolicy::NeverShare,
    obs: true,
    batch: 1,
};
const POLICIES: &[(&str, Driver)] = &[
    ("HAMLET", HAMLET),
    ("HAMLET-static", STATIC),
    ("HAMLET-noshare", NOSHARE),
];
const VS_GRETA: &[(&str, Driver)] = &[("HAMLET", HAMLET), ("GRETA", Driver::Greta)];

/// Every sweep, in the order `figures all` runs them.
pub const SWEEPS: &[Sweep] = &[
    // The paper's "low setting", so that the competitors terminate.
    Sweep {
        id: "fig9_events",
        title: "Fig. 9(a,c)/10(a): 4 systems vs events/min (Ridesharing, 10 queries)",
        dataset: Dataset::Ridesharing,
        rate: [0, 0],
        minutes: 1,
        burst: 40.0,
        keys: [8, 8],
        seed: 7,
        workload: Workload::Builtin([10, 10], 30),
        axis: Axis::Rate,
        xs: [&[2_000, 4_000], &[10_000, 12_500, 15_000, 17_500, 20_000]],
        columns: &[
            ("HAMLET", HAMLET),
            ("GRETA", Driver::Greta),
            ("SHARON", Driver::Sharon),
            ("MCEP-2step", Driver::TwoStep),
        ],
    },
    // Batching A/B on the fig9_events workload: byte-identical output
    // (equivalence suite), only the feeding differs. `perf_gate`'s
    // `batch-speedup` row gates the ratio.
    Sweep {
        id: "fig_batch",
        title: "Batched vs per-event engine core (Ridesharing, 10 queries)",
        dataset: Dataset::Ridesharing,
        rate: [0, 0],
        minutes: 3,
        burst: 40.0,
        keys: [8, 8],
        seed: 7,
        workload: Workload::Builtin([10, 10], 30),
        axis: Axis::Rate,
        xs: [&[20_000, 40_000], &[10_000, 12_500, 15_000, 17_500, 20_000]],
        columns: &[("HAMLET-event", HAMLET), ("HAMLET-batch", BATCHED)],
    },
    // Observability overhead (not a paper figure): the production engine
    // against itself without its per-share-group counters, which ride
    // the hot path — event routing, run creation, burst classification,
    // snapshot reuse. `perf_gate`'s `obs-overhead` row bounds the loss.
    Sweep {
        id: "fig_obs",
        title: "Observability overhead: instrumented vs uninstrumented engine (Ridesharing, 10 queries)",
        dataset: Dataset::Ridesharing,
        rate: [0, 0],
        minutes: 3,
        burst: 40.0,
        keys: [8, 8],
        seed: 7,
        workload: Workload::Builtin([10, 10], 30),
        axis: Axis::Rate,
        xs: [&[20_000, 40_000], &[10_000, 12_500, 15_000, 17_500, 20_000]],
        columns: &[
            ("HAMLET-obs", BATCHED),
            ("HAMLET-noobs", NOOBS),
        ],
    },
    Sweep {
        id: "fig9_queries",
        title: "Fig. 9(b,d)/10(b): 4 systems vs #queries (Ridesharing)",
        dataset: Dataset::Ridesharing,
        rate: [3_000, 15_000],
        minutes: 1,
        burst: 40.0,
        keys: [8, 8],
        seed: 7,
        workload: Workload::Builtin([0, 0], 30),
        axis: Axis::Queries,
        xs: [&[5, 15], &[5, 10, 15, 20, 25]],
        columns: &[
            ("HAMLET", HAMLET),
            ("HAMLET-noshare", NOSHARE),
            ("GRETA", Driver::Greta),
            ("SHARON", Driver::Sharon),
            ("MCEP-2step", Driver::TwoStep),
        ],
    },
    // 100-400 events/min as in the paper.
    Sweep {
        id: "fig11_nyc",
        title: "Fig. 11(a,c,e): HAMLET vs GRETA vs events/min (NYC-taxi-like, 50 queries)",
        dataset: Dataset::NycTaxi,
        rate: [0, 0],
        minutes: 5,
        burst: 25.0,
        keys: [2, 2],
        seed: 11,
        workload: Workload::Builtin([10, 50], 300),
        axis: Axis::Rate,
        xs: [&[100, 200], &[100, 200, 300, 400]],
        columns: VS_GRETA,
    },
    Sweep {
        id: "fig11_sh",
        title: "Fig. 11(b,d,f): HAMLET vs GRETA vs events/min (Smart-home-like, 50 queries)",
        dataset: Dataset::SmartHome,
        rate: [0, 0],
        minutes: 1,
        burst: 60.0,
        keys: [40, 40],
        seed: 5,
        workload: Workload::Builtin([10, 50], 60),
        axis: Axis::Rate,
        xs: [&[5_000, 10_000], &[10_000, 20_000, 30_000, 40_000]],
        columns: VS_GRETA,
    },
    Sweep {
        id: "fig11_queries",
        title: "Fig. 11(g,h): HAMLET vs GRETA vs #queries (NYC-taxi-like)",
        dataset: Dataset::NycTaxi,
        rate: [100, 300],
        minutes: 5,
        burst: 25.0,
        keys: [2, 2],
        seed: 11,
        workload: Workload::Builtin([0, 0], 300),
        axis: Axis::Queries,
        xs: [&[10, 30], &[10, 20, 30, 40, 50]],
        columns: VS_GRETA,
    },
    // The diverse stock workload, in the paper's ~120-event bursts.
    Sweep {
        id: "fig12_events",
        title: "Fig. 12(a,c)/13(a): dynamic vs static sharing vs events/min (Stock-like)",
        dataset: Dataset::Stock,
        rate: [0, 0],
        minutes: 4,
        burst: 120.0,
        keys: [32, 32],
        seed: 13,
        workload: Workload::Builtin([20, 50], 0),
        axis: Axis::Rate,
        xs: [&[1_000, 2_000], &[2_000, 2_500, 3_000, 3_500, 4_000]],
        columns: POLICIES,
    },
    Sweep {
        id: "fig12_queries",
        title: "Fig. 12(b,d)/13(b): dynamic vs static sharing vs #queries (Stock-like)",
        dataset: Dataset::Stock,
        rate: [1_000, 3_000],
        minutes: 4,
        burst: 120.0,
        keys: [32, 32],
        seed: 13,
        workload: Workload::Builtin([0, 0], 0),
        axis: Axis::Queries,
        xs: [&[20, 60], &[20, 40, 60, 80, 100]],
        columns: POLICIES,
    },
    // Scale-out (beyond the paper): high-cardinality grouping, the
    // regime sharding targets — each shard owns ~1/w of the keys and
    // receives only its own events from the batching router. Two points:
    // the host has two cores (ROADMAP direction 3(e)).
    Sweep {
        id: "fig_scaling",
        title: "Scale-out: shared HAMLET throughput vs workers (Ridesharing Kleene, 10 queries)",
        dataset: Dataset::Ridesharing,
        rate: [30_000, 60_000],
        minutes: 1,
        burst: 40.0,
        keys: [512, 1024],
        seed: 7,
        workload: Workload::Builtin([10, 10], 30),
        axis: Axis::Other("workers"),
        xs: [&[1, 2], &[1, 2]],
        columns: &[("HAMLET-par{x}", Driver::Parallel)],
    },
    // Expiry cost (beyond the paper, PR 3): a fixed event count over
    // 10^2..10^5 district keys, in short bursts — more key switches, more
    // simultaneously live partitions per window. The watermark expiration
    // index pops only the windows an advance closes, so throughput should
    // fall mildly with cardinality (more emitted windows, colder caches),
    // not linearly as under the per-event scan of every live partition.
    Sweep {
        id: "fig_expiry",
        title: "Expiry index: HAMLET throughput vs partition cardinality (Ridesharing, 5 queries)",
        dataset: Dataset::Ridesharing,
        rate: [30_000, 60_000],
        minutes: 1,
        burst: 10.0,
        keys: [0, 0],
        seed: 17,
        workload: Workload::Builtin([5, 5], 30),
        axis: Axis::Keys,
        xs: [&[100, 1_000, 10_000], &[100, 1_000, 10_000, 100_000]],
        columns: &[("HAMLET", HAMLET)],
    },
    // Sustained load (beyond the paper, PR 4): end-to-end (ingest ->
    // emit) p50/p99 under an open-loop paced source — the offline
    // drivers feed slices already in memory, so their latency excludes
    // every queueing effect. `perf_gate`'s `p99-*` rows gate the tail.
    Sweep {
        id: "fig_latency",
        title: "Sustained load: pipeline p50/p99 latency vs offered rate (Ridesharing, 10 queries)",
        dataset: Dataset::Ridesharing,
        rate: [30_000, 60_000],
        minutes: 1,
        burst: 40.0,
        keys: [64, 64],
        seed: 19,
        workload: Workload::Builtin([10, 10], 30),
        axis: Axis::Other("offered events/s"),
        xs: [&[25_000, 100_000], &[25_000, 50_000, 100_000, 200_000]],
        columns: &[
            ("HAMLET-pipe1", Driver::Paced(1)),
            ("HAMLET-pipe4", Driver::Paced(4)),
        ],
    },
    // Checkpoints (beyond the paper, PR 5; delta chains PR 10): size,
    // pause, sustained cadence overhead and recovery time. The
    // cardinality axis doubles as a dirty-fraction sweep: at 100 keys
    // every partition is touched between cuts (deltas ~ base size), at
    // 10^4 at most CUT_CADENCE/10^4 = 5% are (deltas << base); state
    // grows with the live partitions, so the same axis stresses blob size
    // and serialization pause. Gated by `perf_gate`'s `pause*`,
    // `recovery*`, `cadence-overhead` and `delta-size` rows.
    Sweep {
        id: "fig_checkpoint",
        title: "Checkpoint: full vs delta-chain size, pause, cadence overhead, and recovery \
                vs partition cardinality (Ridesharing, 5 queries)",
        dataset: Dataset::Ridesharing,
        rate: [30_000, 60_000],
        minutes: 1,
        burst: 10.0,
        keys: [0, 0],
        seed: 29,
        workload: Workload::Builtin([5, 5], 30),
        axis: Axis::Keys,
        xs: [&[100, 1_000, 10_000], &[100, 1_000, 10_000, 100_000]],
        columns: &[
            ("HAMLET", Driver::Checkpoint(None, Cuts::Midpoint)),
            ("HAMLET-par4", Driver::Checkpoint(Some(4), Cuts::Midpoint)),
            ("HAMLET-delta", Driver::Checkpoint(None, Cuts::Cadence)),
            ("HAMLET-nockpt", Driver::Checkpoint(None, Cuts::Never)),
            ("HAMLET-par4-delta", Driver::Checkpoint(Some(4), Cuts::Cadence)),
        ],
    },
    // Runtime churn (beyond the paper, PR 7) on the Fig. 12 workload,
    // whose windows span 5-20 minutes over a 4-minute stream: nearly the
    // whole prefix is live state at every change, which is what a
    // restart must replay. `perf_gate`'s `churn-advantage` row.
    Sweep {
        id: "fig_churn",
        title: "Runtime churn: online re-planning vs restart-per-change (Stock-like, diverse)",
        dataset: Dataset::Stock,
        rate: [1_000, 3_000],
        minutes: 4,
        burst: 120.0,
        keys: [32, 32],
        seed: 13,
        workload: Workload::Builtin([20, 50], 0),
        axis: Axis::Other("churn ops"),
        xs: [&[4, 16], &[2, 4, 8, 16, 32]],
        columns: &[
            ("HAMLET-churn", Driver::Churn(false)),
            ("HAMLET-restart", Driver::Churn(true)),
        ],
    },
    // Ablation: what event-level snapshots cost (Def. 9). At step 0 all
    // 20 queries share one predicate (price < 250), so only graphlet-level
    // snapshots are taken; at step 15 each has its own threshold (100,
    // 115, ...).
    Sweep {
        id: "abl_snapshots",
        title: "Ablation: uniform vs divergent predicates, static and dynamic plans (Stock-like, 20 queries)",
        dataset: Dataset::Stock,
        rate: [2_000, 2_000],
        minutes: 2,
        burst: 120.0,
        keys: [32, 32],
        seed: 13,
        workload: Workload::Text(20, |i, step| {
            let below = if step == 0 { 250 } else { 100 + step * i };
            format!(
                "RETURN COUNT(*) PATTERN SEQ(Open, Tick+) WHERE Tick.price < {below} \
                 GROUP BY company WITHIN 300"
            )
        }),
        axis: Axis::Other("threshold step"),
        xs: [&[0, 15], &[0, 15]],
        columns: &[("HAMLET-static", STATIC), ("HAMLET", HAMLET)],
    },
    // Ablation: window overlap — tumbling, then each event replicated
    // across 2 and 4 window instances.
    Sweep {
        id: "abl_windows",
        title: "Ablation: tumbling vs sliding windows (Ridesharing, 10 queries, WITHIN 60)",
        dataset: Dataset::Ridesharing,
        rate: [2_000, 2_000],
        minutes: 2,
        burst: 40.0,
        keys: [8, 8],
        seed: 7,
        workload: Workload::Text(10, |_, slide| {
            format!(
                "RETURN COUNT(*) PATTERN SEQ(Request, Travel+) \
                 GROUP BY district WITHIN 60 SLIDE {slide}"
            )
        }),
        axis: Axis::Other("slide (s)"),
        xs: [&[60, 30, 15], &[60, 30, 15]],
        columns: &[("HAMLET", HAMLET)],
    },
    // Ablation: group-by fan-out at a small fixed stream.
    Sweep {
        id: "abl_fanout",
        title: "Ablation: partition fan-out (Ridesharing, 10 queries)",
        dataset: Dataset::Ridesharing,
        rate: [2_000, 2_000],
        minutes: 1,
        burst: 40.0,
        keys: [0, 0],
        seed: 7,
        workload: Workload::Builtin([10, 10], 30),
        axis: Axis::Keys,
        xs: [&[1, 8, 64], &[1, 8, 64]],
        columns: &[("HAMLET", HAMLET)],
    },
    // Ablation: members per share group. Every query is sharable with
    // every other, each with a selection of its own on the Kleene type,
    // so x queries are one group up to `QSet::CAPACITY` (64) and
    // ⌈x/64⌉ from there on: no step at 65 (EXPERIMENTS.md, "One word
    // wide"). The first half of ROADMAP 1(d): dynamic ÷ noshare over k.
    Sweep {
        id: "abl_width",
        title: "Ablation: share-group width, x pairwise-sharable queries with diverse selections (Ridesharing)",
        dataset: Dataset::Ridesharing,
        rate: [20_000, 20_000],
        minutes: 2,
        burst: 40.0,
        keys: [8, 8],
        seed: 7,
        workload: Workload::Text(0, |i, k| {
            let heads = ridesharing::TYPES.iter().filter(|t| **t != "Travel");
            let first = heads.cycle().nth(i as usize).expect("head types");
            let below = 10 + 45 * i / k;
            format!(
                "RETURN COUNT(*) PATTERN SEQ({first}, Travel+) WHERE Travel.speed < {below} \
                 GROUP BY district WITHIN 30"
            )
        }),
        axis: Axis::Queries,
        xs: [&[8, 64, 65], &[2, 8, 32, 64, 65, 128]],
        columns: POLICIES,
    },
];

/// The row of [`SWEEPS`] called `id`.
pub fn sweep(id: &str) -> Option<&'static Sweep> {
    SWEEPS.iter().find(|s| s.id == id)
}

impl Sweep {
    /// The `BENCH.json` system label of `column` at `x`.
    pub fn label(column: &str, x: u64) -> String {
        column.replace("{x}", &x.to_string())
    }

    /// The point at `x`: the stream generated, the workload built.
    pub fn point(&self, quick: bool, x: u64) -> Point {
        let mode = usize::from(!quick);
        let mut gen = GenConfig {
            events_per_min: self.rate[mode],
            minutes: self.minutes,
            mean_burst: self.burst,
            num_groups: self.keys[mode],
            group_skew: 0.0,
            seed: self.seed,
            max_lateness: 0,
        };
        match self.axis {
            Axis::Rate => gen.events_per_min = x,
            Axis::Keys => gen.num_groups = x,
            Axis::Queries | Axis::Other(_) => {}
        }
        let reg = self.dataset.registry();
        let mut harness = HarnessConfig::default();
        let swept = |k: usize| match self.axis {
            Axis::Queries => x as usize,
            _ => k,
        };
        let queries = match self.workload {
            Workload::Builtin(k, window) => {
                // SHARON must flatten E+ up to the longest possible match —
                // the number of Kleene-type events a window can hold
                // (§6.1). This is what makes flattening blow up on Kleene
                // workloads (Fig. 9).
                harness.sharon_max_len = ((gen.events_per_min * window / 60) as usize).max(16);
                // 99 seeds the stock data set's diverse workload.
                self.dataset.workload(&reg, swept(k[mode]), window, 99)
            }
            Workload::Text(k, text) => (0..swept(k as usize) as u32)
                .map(|i| parse_query(&reg, i, &text(i.into(), x)).expect("table query parses"))
                .collect(),
        };
        Point {
            events: self.dataset.generate(&reg, &gen),
            reg,
            queries,
            x,
            harness,
        }
    }

    /// Runs the sweep: one [`Point`] per x, every column of it through
    /// the one estimator ([`measure`]).
    pub fn run(&'static self, quick: bool) -> Figure {
        let row = |&x: &u64| {
            let p = &self.point(quick, x);
            let mut columns: Vec<_> = (self.columns.iter())
                .map(|&(_, driver)| move || driver.run(p))
                .collect();
            let mut cells = measure(&mut columns);
            for (m, (column, _)) in cells.iter_mut().zip(self.columns) {
                m.system = Sweep::label(column, x);
            }
            (x.to_string(), cells)
        };
        Figure {
            sweep: self,
            rows: self.xs[usize::from(!quick)].iter().map(row).collect(),
        }
    }
}

/// §6.2 overhead experiment: one-time workload analysis latency and the
/// per-burst decision overhead as a fraction of total processing time,
/// under both divergence-statistics modes.
pub struct OverheadReport {
    /// Static workload-analysis (engine construction) time.
    pub analysis: Duration,
    /// Exact-mode (O(k·b) pre-scan) decision totals.
    pub exact: (Duration, u64, Duration),
    /// EMA-mode (O(k) statistics) decision totals.
    pub ema: (Duration, u64, Duration),
}

/// Measures the optimizer overheads (paper: analysis ≤ 81 ms, decisions
/// < 0.2% of latency) on the `fig_churn` stream and workload.
pub fn overhead(quick: bool) -> OverheadReport {
    use hamlet_core::executor::DivergenceMode;
    let p = sweep("fig_churn").expect("a table row").point(quick, 0);
    let mut analysis = Duration::ZERO;
    let mut run_mode = |mode: DivergenceMode| {
        let cfg = EngineConfig {
            divergence: mode,
            ..EngineConfig::default()
        };
        let t0 = Instant::now();
        let mut eng = p.engine(cfg);
        analysis = t0.elapsed();
        let t0 = Instant::now();
        for e in &p.events {
            eng.process(e);
        }
        eng.flush();
        let wall = t0.elapsed();
        let stats = eng.stats();
        (stats.decision_time, stats.decisions, wall)
    };
    let exact = run_mode(DivergenceMode::Exact);
    let ema = run_mode(DivergenceMode::Ema { alpha: 0.3 });
    OverheadReport {
        analysis,
        exact,
        ema,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn quick(id: &str) -> Figure {
        sweep(id).expect("a table row").run(true)
    }

    /// The `(figure, x, system)` triples of a `BENCH.json` document.
    fn triples_of(doc: &Json) -> BTreeSet<(String, String, String)> {
        let arr = |node: &Json, key| node.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let text = |node: &Json, key| node.get(key).and_then(Json::as_str).expect(key).to_string();
        let mut out = BTreeSet::new();
        for fig in arr(doc, "figures") {
            for row in arr(&fig, "rows") {
                for m in arr(&row, "measurements") {
                    out.insert((text(&fig, "id"), text(&row, "x"), text(&m, "system")));
                }
            }
        }
        out
    }

    /// Nothing renamed, nothing dropped — without running anything: the
    /// quick-mode cells the table enumerates are those of the committed
    /// `BENCH_19.json`, minus the two retired worker points, plus the
    /// ablation rows.
    #[test]
    fn table_enumerates_the_committed_series() {
        let doc = json::parse(include_str!("../../../BENCH_19.json")).expect("BENCH_19.json");
        let mut want = triples_of(&doc);
        for w in ["4", "8"] {
            assert!(want.remove(&("fig_scaling".into(), w.into(), format!("HAMLET-par{w}"))));
        }
        let (ablations, paper): (Vec<_>, Vec<_>) =
            SWEEPS.iter().partition(|s| s.id.starts_with("abl_"));
        let cells = |s: &Sweep| {
            let row = move |&x: &u64| {
                (s.columns.iter()).map(move |(column, _)| {
                    (s.id.to_string(), x.to_string(), Sweep::label(column, x))
                })
            };
            s.xs[0].iter().flat_map(row).collect::<Vec<_>>()
        };
        let have: Vec<_> = paper.into_iter().flat_map(cells).collect();
        assert_eq!(have.len(), want.len(), "a cell is in the table twice");
        assert_eq!(have.into_iter().collect::<BTreeSet<_>>(), want);
        let ablations: Vec<_> = ablations.into_iter().map(|s| s.id).collect();
        let ids = ["abl_snapshots", "abl_windows", "abl_fanout", "abl_width"];
        assert_eq!(ablations, ids);
    }

    // Slow tier: runs every figure sweep (all systems × all axes) and
    // takes minutes unoptimized. Run with `cargo test -- --ignored`
    // (fast in --release).
    #[test]
    #[ignore = "slow tier: full quick-mode figure sweeps; run with `cargo test -- --ignored`"]
    fn quick_figures_produce_series() {
        for fig in [
            "fig9_events",
            "fig9_queries",
            "fig11_nyc",
            "fig11_sh",
            "fig11_queries",
            "fig12_events",
            "fig12_queries",
        ]
        .map(quick)
        {
            assert!(fig.rows.len() >= 2, "{} has a sweep", fig.sweep.id);
            for (_, ms) in &fig.rows {
                assert!(ms.len() >= 2, "{} compares systems", fig.sweep.id);
                for m in ms {
                    assert!(
                        m.throughput_eps > 0.0,
                        "{} measured {}",
                        fig.sweep.id,
                        m.system
                    );
                }
            }
        }
    }

    #[test]
    #[ignore = "slow tier: batching A/B sweep; run with `cargo test -- --ignored`"]
    fn batch_sweep_shows_speedup() {
        let fig = quick("fig_batch");
        assert_eq!(fig.sweep.axis.label(), "events/min");
        assert!(fig.rows.len() >= 2);
        // The tentpole claim, measured: the batched hot path clears 2×
        // the event-at-a-time `process` fold on every swept rate.
        // Readings on a dedicated core sit at 2.1–2.6×; CI's perf gate
        // enforces the same ratio from BENCH.json
        // (`batch-speedup`, 2.0).
        for (rate, ms) in &fig.rows {
            let event = ms
                .iter()
                .find(|m| m.system == "HAMLET-event")
                .expect("event row")
                .throughput_eps;
            let batch = ms
                .iter()
                .find(|m| m.system == "HAMLET-batch")
                .expect("batch row")
                .throughput_eps;
            assert!(
                batch >= 2.0 * event,
                "batch speedup below 2x at {rate} events/min: {batch} vs {event}"
            );
        }
    }

    #[test]
    #[ignore = "slow tier: observability A/B sweep; run with `cargo test -- --ignored`"]
    fn obs_sweep_stays_cheap() {
        let fig = quick("fig_obs");
        assert_eq!(fig.sweep.axis.label(), "events/min");
        assert!(fig.rows.len() >= 2);
        // Local readings sit at 0.99–1.01x (the registry is a handful of
        // u64 increments per burst, not per event); the test allows 10%
        // for shared-host noise while CI's perf gate enforces the 3%
        // budget on the geomean from BENCH.json (`obs-overhead`, 0.97).
        for (rate, ms) in &fig.rows {
            let obs = ms
                .iter()
                .find(|m| m.system == "HAMLET-obs")
                .expect("obs row");
            let bare = ms
                .iter()
                .find(|m| m.system == "HAMLET-noobs")
                .expect("noobs row");
            assert!(
                obs.throughput_eps >= 0.9 * bare.throughput_eps,
                "obs overhead above 10% at {rate} events/min: {} vs {}",
                obs.throughput_eps,
                bare.throughput_eps
            );
            // The instrumented and bare engines are the same engine:
            // identical results and sharing decisions, only the counters
            // differ.
            assert_eq!(obs.results, bare.results, "results diverge at {rate}");
            assert_eq!(
                obs.shared_bursts, bare.shared_bursts,
                "sharing decisions diverge at {rate}"
            );
        }
    }

    #[test]
    #[ignore = "slow tier: quick workers sweep; run with `cargo test -- --ignored`"]
    fn scaling_sweep_shows_speedup() {
        let fig = quick("fig_scaling");
        assert_eq!(fig.sweep.axis.label(), "workers");
        assert_eq!(fig.rows.len(), 2);
        let tp = |x: &str| {
            fig.rows.iter().find(|(k, _)| k == x).expect("worker row").1[0].throughput_eps
        };
        // A no-collapse bound on the pair the gate pins (`scaling`,
        // par2 ÷ par1), a little looser than its floor: slow-tier tests
        // run beside each other. The reading has shrunk every time the
        // single-threaded engine got faster — the expiration index, the
        // batched core, recycled runs — and on two cores the second worker
        // competes with the router for one of them; see ROADMAP's
        // `fig_scaling` row for the measured ratio. Direction 3 is to make
        // it a speedup.
        assert!(
            tp("2") > tp("1") * 0.6,
            "2 workers collapsed vs 1: {} vs {}",
            tp("2"),
            tp("1")
        );
    }

    #[test]
    #[ignore = "slow tier: partition-cardinality sweep; run with `cargo test -- --ignored`"]
    fn expiry_sweep_is_flat_in_partition_count() {
        let fig = quick("fig_expiry");
        assert_eq!(fig.sweep.axis.label(), "partition keys");
        assert_eq!(fig.rows.len(), 3);
        let tp = |x: &str| {
            fig.rows
                .iter()
                .find(|(k, _)| k == x)
                .expect("cardinality row")
                .1[0]
                .throughput_eps
        };
        // 100× the live partitions must not cost anywhere near 100× the
        // per-event work. Indexed expiry with recycled runs and an O(1)
        // memory gauge measures a ~7–8× throughput drop across this
        // sweep — per-key window overhead (100× more windows to open,
        // finalize, and emit), none of it a per-event walk. With the
        // gauge still walking every live run per sample it was ~15–20×;
        // the pre-index O(P) scan measured ~55–85×. The 25× bound
        // separates the last from the rest with headroom for noisy CI
        // hosts; CI's perf gate holds the tighter line
        // (`expiry-flatness`, 0.06).
        assert!(
            tp("10000") > tp("100") / 25.0,
            "expiry cost grew with partition count: {} vs {}",
            tp("10000"),
            tp("100")
        );
    }

    #[test]
    #[ignore = "slow tier: paced sustained-load sweep (wall-clock bound); run with `cargo test -- --ignored`"]
    fn latency_sweep_reports_tail_quantiles() {
        let fig = quick("fig_latency");
        assert_eq!(fig.sweep.axis.label(), "offered events/s");
        assert_eq!(fig.rows.len(), 2);
        for (x, ms) in &fig.rows {
            assert_eq!(ms.len(), 2, "{x}: 1-worker and 4-worker runs");
            for m in ms {
                assert!(m.results > 0, "{x}/{:?} produced results", m.system);
                assert!(m.latency_p99 >= m.latency_p50, "{x}: p99 < p50");
                assert!(
                    m.latency_p99 > Duration::ZERO,
                    "{x}: tail quantiles recorded"
                );
                // Paced: measured throughput tracks the offered rate
                // (within 2x — drain overhead dominates tiny sweeps).
                let offered: f64 = x.parse().unwrap();
                assert!(
                    m.throughput_eps < offered * 2.0,
                    "{x}: throughput {} not paced",
                    m.throughput_eps
                );
            }
        }
    }

    #[test]
    #[ignore = "slow tier: checkpoint size/pause sweep; run with `cargo test -- --ignored`"]
    fn checkpoint_sweep_measures_size_and_pause() {
        let fig = quick("fig_checkpoint");
        assert_eq!(fig.sweep.axis.label(), "partition keys");
        assert_eq!(fig.rows.len(), 3);
        for (x, ms) in &fig.rows {
            assert_eq!(
                ms.len(),
                5,
                "{x}: full pair + delta chain + no-checkpoint + parallel delta runs"
            );
            for m in ms {
                assert!(m.results > 0, "{x}/{:?}: run completed", m.system);
                assert!(m.peak_mem_bytes > 0, "{x}/{:?}: state measured", m.system);
                if m.system == "HAMLET-nockpt" {
                    assert_eq!(m.checkpoint_bytes, 0, "{x}: nockpt run cut nothing");
                    continue;
                }
                assert!(m.checkpoint_bytes > 0, "{x}/{:?}: blob measured", m.system);
                assert!(
                    m.checkpoint_pause > Duration::ZERO,
                    "{x}/{:?}: pause measured",
                    m.system
                );
                // No published column is a zero that means "not measured".
                assert!(
                    m.recovery_time > Duration::ZERO,
                    "{x}/{:?}: recovery measured",
                    m.system
                );
            }
            // Every delta-chain run measured its steady-state delta size
            // (COMPACT_EVERY > the quick cut count would leave deltas == 0
            // and gut the sweep).
            for sys in ["HAMLET-delta", "HAMLET-par4-delta"] {
                let m = ms.iter().find(|m| m.system == sys).expect("delta row");
                assert!(m.delta_bytes > 0, "{x}/{:?}: delta size measured", sys);
            }
        }
        // Checkpoint size tracks live state: 100x the partitions must
        // grow the blob substantially.
        let bytes_at =
            |x: &str| fig.rows.iter().find(|(k, _)| k == x).expect("row").1[0].checkpoint_bytes;
        assert!(
            bytes_at("10000") > bytes_at("100") * 4,
            "blob size did not grow with cardinality: {} vs {}",
            bytes_at("10000"),
            bytes_at("100")
        );
        // The delta story: at 10^4 keys at most CUT_CADENCE/10^4 of the
        // partitions are dirty between cuts, so the steady-state delta
        // must be a small fraction of its base — while at 10^2 keys
        // every partition is touched and deltas buy little. CI gates
        // the same ratio (`delta-size`).
        let delta = |x: &str| {
            fig.rows
                .iter()
                .find(|(k, _)| k == x)
                .expect("row")
                .1
                .iter()
                .find(|m| m.system == "HAMLET-delta")
                .expect("delta row")
                .clone()
        };
        let big = delta("10000");
        assert!(
            big.delta_bytes * 2 <= big.checkpoint_bytes,
            "steady-state delta ({} B) not small vs base ({} B) at 10^4 keys",
            big.delta_bytes,
            big.checkpoint_bytes
        );
    }

    #[test]
    #[ignore = "slow tier: churn A/B sweep; run with `cargo test -- --ignored`"]
    fn churn_sweep_shows_online_advantage() {
        let fig = quick("fig_churn");
        assert_eq!(fig.sweep.axis.label(), "churn ops");
        assert_eq!(fig.rows.len(), 2);
        for (ops, ms) in &fig.rows {
            let online = ms
                .iter()
                .find(|m| m.system == "HAMLET-churn")
                .expect("online row")
                .throughput_eps;
            let restart = ms
                .iter()
                .find(|m| m.system == "HAMLET-restart")
                .expect("restart row")
                .throughput_eps;
            // Online re-planning must beat restart-per-change, and the
            // gap must widen with churn frequency (the restart baseline
            // replays the open-window prefix at every op). The per-point
            // bound here is looser than the CI gate's geomean floor
            // (`churn-advantage`) to keep slow-tier runs robust on
            // noisy hosts.
            assert!(
                online > restart,
                "online churn slower than restart at {ops} ops: {online} vs {restart}"
            );
        }
        let ratio_at = |x: &str| {
            let ms = &fig.rows.iter().find(|(k, _)| k == x).expect("row").1;
            ms[0].throughput_eps / ms[1].throughput_eps.max(f64::MIN_POSITIVE)
        };
        assert!(
            ratio_at("16") > ratio_at("4") * 0.8,
            "advantage collapsed as churn frequency grew: {} vs {}",
            ratio_at("16"),
            ratio_at("4")
        );
    }

    #[test]
    fn overhead_is_small_fraction() {
        let r = overhead(true);
        let (exact_total, exact_n, exact_wall) = r.exact;
        let (ema_total, ema_n, _) = r.ema;
        assert!(exact_n > 0 && ema_n > 0);
        // The paper reports < 0.2% of latency for statistics-based
        // decisions; allow loose bounds in the quick setting (tiny
        // absolute times are noisy).
        assert!(exact_total <= exact_wall.mul_f64(0.25).max(Duration::from_millis(50)));
        // EMA decisions are much cheaper than the exact pre-scan.
        assert!(ema_total < exact_total);
    }
}
