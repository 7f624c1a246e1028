//! # hamlet
//!
//! Facade crate for the HAMLET workspace — a from-scratch Rust
//! reproduction of *"To Share, or not to Share Online Event Trend
//! Aggregation Over Bursty Event Streams"* (SIGMOD 2021).
//!
//! HAMLET evaluates workloads of Kleene-pattern **event trend aggregation
//! queries** over high-rate streams. It aggregates trends *online* (never
//! constructing them) and decides **at runtime, per burst of events**,
//! whether queries should share computation — splitting and merging shared
//! graphlets as stream conditions change.
//!
//! ## Quick start
//!
//! ```
//! use hamlet::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Describe the stream's event types.
//! let mut reg = TypeRegistry::new();
//! reg.register("Request", &["district"]);
//! reg.register("Travel", &["district", "speed"]);
//! let reg = Arc::new(reg);
//!
//! // 2. Write queries in the SASE-style language of the paper (Fig. 1).
//! let q = parse_query(
//!     &reg,
//!     1,
//!     "RETURN COUNT(*) PATTERN SEQ(Request, Travel+) \
//!      GROUP BY district WITHIN 300",
//! )
//! .unwrap();
//!
//! // 3. Feed events, collect per-window aggregates.
//! let mut engine = HamletEngine::new(reg.clone(), vec![q], EngineConfig::default()).unwrap();
//! let travel = reg.type_id("Travel").unwrap();
//! let request = reg.type_id("Request").unwrap();
//! engine.process(&EventBuilder::new(&reg, request, 0).attr("district", 7i64).build());
//! engine.process(&EventBuilder::new(&reg, travel, 5).attr("district", 7i64).build());
//! let results = engine.flush();
//! assert_eq!(results[0].value.as_count(), 1);
//! ```
//!
//! ## Crates
//!
//! * [`hamlet_types`] — events, schemas, time, ring arithmetic.
//! * [`hamlet_query`] — Kleene patterns, predicates, windows, parser.
//! * [`hamlet_core`] — the HAMLET engine: templates, graphlets, snapshots,
//!   dynamic sharing optimizer, executor.
//! * [`hamlet_stream`] — bursty generators for the paper's four data sets.
//! * [`hamlet_pipeline`] — the online streaming runtime: sources,
//!   backpressure, out-of-order ingestion, live metrics, graceful drains.
//! * [`hamlet_baselines`] — GRETA, SHARON-style, and two-step baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hamlet_baselines;
pub use hamlet_core;
pub use hamlet_pipeline;
pub use hamlet_query;
pub use hamlet_stream;
pub use hamlet_types;

/// Convenient single-import surface.
pub mod prelude {
    pub use hamlet_baselines::{GretaEngine, SharonEngine, TwoStepEngine};
    pub use hamlet_core::{
        sort_results, AggValue, Checkpoint, CheckpointError, CheckpointKind, CheckpointStore,
        ChurnError, ChurnOp, ChurnReport, CutKind, DirStore, EngineConfig, GroupMetrics,
        HamletEngine, MemStore, ParallelEngine, ParallelReport, ParallelSession, ShardRouter,
        SharingPolicy, Snapshot, WindowResult,
    };
    pub use hamlet_pipeline::{
        BoundedLateness, CountingSink, MetricsSnapshot, NullSink, Pipeline, PipelineCheckpoint,
        PipelineChurnError, PipelineHandle, PipelineReport, RateLimitedSource, ReplaySource, Sink,
        Source, VecSink, WatermarkPolicy,
    };
    pub use hamlet_query::{parse_pattern, parse_query, AggFunc, Pattern, Query, QueryId, Window};
    pub use hamlet_stream::GenConfig;
    pub use hamlet_types::{
        AttrValue, Event, EventBuilder, EventTypeId, GroupKey, TrendVal, Ts, TypeRegistry,
    };
}
