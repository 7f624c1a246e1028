//! # hamlet-query
//!
//! The query model of HAMLET (SIGMOD 2021): Kleene patterns (Def. 1), event
//! trend aggregation queries (Def. 2) with predicates, grouping, sliding
//! windows and aggregation functions, plus a SASE-style text parser for the
//! query language used throughout the paper (Fig. 1).
//!
//! ```
//! use hamlet_types::TypeRegistry;
//! use hamlet_query::parse_query;
//!
//! let mut reg = TypeRegistry::new();
//! reg.register("R", &["district"]);
//! reg.register("T", &["district", "speed"]);
//! let q = parse_query(
//!     &mut reg,
//!     0,
//!     "RETURN COUNT(*) PATTERN SEQ(R, T+) WHERE T.speed < 10 \
//!      GROUP BY district WITHIN 300 SLIDE 300",
//! )
//! .unwrap();
//! assert_eq!(q.window.within, 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod parser;
pub mod pattern;
pub mod predicate;
pub mod query;
pub mod window;

pub use aggregate::AggFunc;
pub use parser::{parse_pattern, parse_query, ParseError};
pub use pattern::{Pattern, PatternError};
pub use predicate::{CmpOp, CompiledSelection, EdgePredicate, SelectionPredicate};
pub use query::{Query, QueryId};
pub use window::Window;
