//! # hamlet-baselines
//!
//! The three state-of-the-art competitors HAMLET is evaluated against
//! (§6.1), implemented from scratch on one windowed runtime,
//! [`Windowed`]. The runtime owns what the three share — the partition
//! key built from the queries' grouping attributes, the map of live
//! window instances per partition, expiry as event time passes a
//! window's end, the per-result latency stamp and the memory gauge
//! (every 256 events and once at flush) — so their latency, throughput
//! and peak memory mean the same thing. Each engine is the runtime over
//! its evaluation unit, and each file is that unit's algorithm; the unit
//! trait is private to this crate, so the three constructors are the
//! only way to build a runtime:
//!
//! * [`greta`] — GRETA-style **non-shared online** trend aggregation:
//!   Kleene-closure aggregation without trend construction, but each query
//!   processed independently (§3.2). Implemented independently from
//!   `hamlet-core`'s run engine, so it doubles as a cross-validation
//!   oracle in tests.
//! * [`sharon`] — SHARON-style **shared online sequence** aggregation:
//!   no Kleene support; each `E+` is flattened into fixed-length sequences
//!   up to an estimated maximum length (§6.1), processed with a prefix DP.
//! * [`twostep`] — MCEP-style **two-step** processing: shared trend
//!   *construction* (a common event graph), followed by per-query trend
//!   enumeration and aggregation. Exponential in the number of events;
//!   an enumeration budget guards the benchmarks, and the unlimited mode
//!   serves as the brute-force oracle for correctness tests.
//!
//! The runtime uses nothing the baselines did not already use from the
//! layers below: `LatencyRecorder` and `MemoryGauge` from `hamlet-core`,
//! `window_end` from `hamlet-types`, `Window::instances_containing` from
//! `hamlet-query`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod greta;
pub mod sharon;
pub mod twostep;
mod windowed;

pub use greta::GretaEngine;
pub use sharon::SharonEngine;
pub use twostep::TwoStepEngine;
pub use windowed::Windowed;
