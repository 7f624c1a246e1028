//! # hamlet-core
//!
//! The HAMLET engine (SIGMOD 2021): shared **online event trend
//! aggregation** with a **dynamic sharing optimizer**.
//!
//! Given a workload of Kleene-pattern aggregation queries over one event
//! stream, HAMLET:
//!
//! 1. analyzes the workload into *share groups* of sharable queries and
//!    merges their patterns into one template ([`workload`], [`template`]);
//! 2. evaluates each group online — aggregates propagate through a graph
//!    of matched events *without constructing trends* ([`run`]), packing
//!    bursts of Kleene-type events into **graphlets** whose propagation is
//!    shared across queries via **snapshots** ([`expr`], [`snapshot`]);
//! 3. decides **per burst at runtime** whether sharing pays off, splitting
//!    and merging graphlets adaptively ([`optimizer`]);
//! 4. partitions the stream by group-by keys, panes and window instances,
//!    and emits one aggregate per query, key and window ([`executor`]).
//!
//! ```
//! use hamlet_core::{EngineConfig, HamletEngine};
//! use hamlet_query::parse_query;
//! use hamlet_types::{EventBuilder, TypeRegistry};
//! use std::sync::Arc;
//!
//! let mut reg = TypeRegistry::new();
//! let a = reg.register("A", &[]);
//! let b = reg.register("B", &[]);
//! let reg = Arc::new(reg);
//! let queries = vec![
//!     parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap(),
//! ];
//! let mut engine = HamletEngine::new(reg.clone(), queries, EngineConfig::default()).unwrap();
//! engine.process(&EventBuilder::new(&reg, a, 0).build());
//! engine.process(&EventBuilder::new(&reg, b, 1).build());
//! let results = engine.flush();
//! assert_eq!(results[0].value.as_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod batch;
pub mod bitset;
pub mod burst;
pub mod checkpoint;
pub mod churn;
pub mod executor;
pub mod expiry;
pub mod expr;
pub mod general;
pub mod metrics;
pub mod optimizer;
pub mod parallel;
pub mod record;
#[cfg(test)]
mod reference;
pub mod run;
pub mod shard;
pub mod snapshot;
pub mod store;
pub mod template;
pub mod workload;

pub use checkpoint::CheckpointError;
pub use executor::{
    sort_results, AggValue, ChurnError, ChurnOp, ChurnReport, EngineConfig, EngineError,
    EngineStats, GroupPlacement, HamletEngine, WindowResult,
};
pub use hamlet_obs::{GroupMetrics, Span, SpanRecorder, Stage};
pub use metrics::{LatencyHistogram, LatencyRecorder};
pub use optimizer::SharingPolicy;
pub use parallel::{ParallelEngine, ParallelReport, ParallelSession, DEFAULT_BATCH};
pub use run::{BurstCtx, GroupRuntime, MemberOutput, Run, RunStats};
pub use shard::ShardRouter;
pub use store::{
    ChainMeta, Checkpoint, CheckpointKind, CheckpointStore, CutKind, DirStore, MemStore, Snapshot,
};
pub use workload::{analyze, AggSkeleton, ShareGroup, WorkloadPlan};
