//! Vendored, dependency-free stand-in for the subset of `proptest` this
//! workspace uses. The build environment has no crates.io access, so the
//! property-testing surface the seed tests rely on is reimplemented here:
//!
//! * the [`Strategy`] trait with `prop_map`, `prop_recursive`, `boxed`;
//! * range / tuple / [`Just`] / [`any`] / [`collection`] strategies;
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`] and
//!   [`prop_assert_eq!`] macros;
//! * [`ProptestConfig::with_cases`];
//! * one extension real proptest does not have: [`mutation`], seeded
//!   byte mutation of a known-good input, for decoder fuzz loops.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports its 64-bit seed instead of a
//!   minimized counterexample. Re-running with the seed pinned reproduces
//!   it exactly.
//! * **Regression files** live at
//!   `<crate>/proptest-regressions/<source-file-stem>.txt` with lines
//!   `cc <test_fn_name> <hex seed>`. Pinned seeds are replayed *before*
//!   the random cases on every run, so counterexamples found once are
//!   checked forever. (The format is this shim's own; real proptest's
//!   byte-string seeds would not be meaningful here.)
//! * The per-test base seed is a hash of the test name — deterministic
//!   across runs. Set `HAMLET_PROPTEST_SEED` to explore a different part
//!   of the space, e.g. `HAMLET_PROPTEST_SEED=$RANDOM cargo test`.
//! * `HAMLET_PROPTEST_MULTIPLIER=<n>` scales every property's case count
//!   by `n` without touching test code — how the scheduled nightly CI
//!   run turns the quick per-push tier into a deep sweep.

#![forbid(unsafe_code)]

pub mod collection;
pub mod mutation;
pub mod strategy;
pub mod test_runner;

/// Boolean strategies, mirroring `proptest::bool`.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing fair booleans.
    #[derive(Copy, Clone, Debug)]
    pub struct BoolAny;

    /// Generates a fair boolean (mirror of `proptest::bool::ANY`).
    pub const ANY: BoolAny = BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// The usual single-import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub use strategy::{any, Just, Strategy};
pub use test_runner::ProptestConfig;

/// Defines property tests.
///
/// Supported grammar (the subset the workspace uses):
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))] // optional
///     #[test]
///     fn my_prop(x in 0u64..100, v in proptest::collection::vec(any::<bool>(), 1..9)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg) $($rest)*);
    };
    (@impl ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let reg_path = $crate::test_runner::regression_path(
                    env!("CARGO_MANIFEST_DIR"), file!());
                let pinned = $crate::test_runner::regression_seeds(&reg_path, stringify!($name));
                let n_pinned = pinned.len();
                let base = $crate::test_runner::base_seed(stringify!($name));
                let mut seeds = pinned;
                let cases = $crate::test_runner::effective_cases(config.cases);
                for case in 0..cases as u64 {
                    seeds.push(base.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                }
                for (i, seed) in seeds.iter().enumerate() {
                    let mut rng = $crate::test_runner::TestRng::from_seed(*seed);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                    let result: ::std::result::Result<(), ::std::string::String> =
                        (move || { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(msg) = result {
                        ::std::panic!(
                            "property '{}' failed on {} case {} (seed {:#018x}):\n  {}\n\
                             To pin this counterexample, add the line\n  cc {} {:016x}\nto {}",
                            stringify!($name),
                            if i < n_pinned { "pinned" } else { "random" },
                            i,
                            seed,
                            msg,
                            stringify!($name),
                            seed,
                            reg_path,
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// aborting the process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond), file!(), line!(), ::std::format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let lhs = $lhs;
        let rhs = $rhs;
        if !(lhs == rhs) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?} == {:?}` ({}:{})", lhs, rhs, file!(), line!()));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let lhs = $lhs;
        let rhs = $rhs;
        if !(lhs == rhs) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?} == {:?}` ({}:{}): {}",
                lhs, rhs, file!(), line!(), ::std::format!($($fmt)+)));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let lhs = $lhs;
        let rhs = $rhs;
        if lhs == rhs {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?} != {:?}` ({}:{})",
                lhs,
                rhs,
                file!(),
                line!()
            ));
        }
    }};
}

/// Chooses uniformly between several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
