//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates registry, so the workspace vendors
//! a compact property-testing engine with the same spelling as the real
//! crate for everything the tests here use:
//!
//! * [`strategy::Strategy`] / [`strategy::ValueTree`] with genuine
//!   shrinking (binary search on numbers, length- then element-wise
//!   shrinking on vectors, delegation through `prop_map`);
//! * strategies for integer/float ranges, [`arbitrary::any`], tuples up
//!   to arity 6, [`collection::vec`], and weighted unions;
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`] and
//!   [`prop_assert_eq!`] macros;
//! * [`test_runner::ProptestConfig`] with `with_cases`.
//!
//! Generation is deterministic: a fixed seed (overridable via the
//! `PROPTEST_SEED` environment variable) drives a SplitMix64 stream, so
//! failures reproduce across runs.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The glob import used by every test: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy, ValueTree};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests: `proptest! { #![proptest_config(...)] #[test]
/// fn name(x in strategy, ...) { body } ... }`. As upstream, attributes
/// pass through unchanged and each function carries its own `#[test]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Internal expansion helper for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                $crate::test_runner::run_test(
                    __config,
                    ($($strat,)+),
                    |($($arg,)+)| { $body; ::std::result::Result::Ok(()) },
                );
            }
        )*
    };
}

/// Combines strategies, optionally weighted: `prop_oneof![3 => a, 1 => b]`
/// or `prop_oneof![a, b, c]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {{
        let __u = $crate::strategy::Union::empty();
        $(let __u = __u.or($weight, $strat);)+
        __u
    }};
    ($($strat:expr),+ $(,)?) => {{
        let __u = $crate::strategy::Union::empty();
        $(let __u = __u.or(1u32, $strat);)+
        __u
    }};
}

/// Like `assert!` but fails the property (and shrinks) instead of
/// panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Like `assert_eq!` for properties.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` == `{:?}`", __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` == `{:?}`: {}", __l, __r, format!($($fmt)+)
        );
    }};
}

/// Like `assert_ne!` for properties.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?}` != `{:?}`", __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?}` != `{:?}`: {}", __l, __r, format!($($fmt)+)
        );
    }};
}
