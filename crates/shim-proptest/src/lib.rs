//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of proptest its tests actually use: the
//! [`strategy::Strategy`] trait with `prop_map` / `prop_filter` / `prop_recursive`, boxed strategies,
//! tuple and integer-range strategies, a regex-subset string strategy,
//! `collection::vec`, `option::of`, `sample::select`, `any`, and the
//! `proptest!` / `prop_oneof!` / `prop_assert!` / `prop_assert_eq!`
//! macros.
//!
//! Differences from upstream: generation is seeded deterministically from
//! the test name (every run explores the same cases — which is exactly
//! what the counter-pinning regression tests want), and failing cases are
//! reported with their debug representation but are **not shrunk**.

pub mod collection;
pub mod option;
pub mod sample;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares deterministic property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     fn my_prop(x in 0usize..10, (a, b) in (any::<u8>(), any::<u8>())) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr;) => {};
    (
        $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        // Upstream proptest requires the caller to write `#[test]` inside
        // the block; pass the attributes through verbatim (adding another
        // `#[test]` here would register every property twice).
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut runner =
                $crate::test_runner::TestRunner::new(&config, stringify!($name));
            for _case in 0..config.cases {
                let mut rng = runner.next_rng();
                $(
                    let value =
                        $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    let case_repr = format!("{:?}", value);
                    let $pat = value;
                )+
                let outcome = (move || -> ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property '{}' failed at case {}: {}\nlast input: {}",
                        stringify!($name),
                        _case,
                        e,
                        case_repr,
                    );
                }
            }
        }
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Like `assert!`, but fails the property instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Like `assert_eq!`, but fails the property instead of panicking directly.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "{}: `{:?}` != `{:?}`",
            format!($($fmt)*),
            left,
            right
        );
    }};
}

/// Like `assert_ne!`, but fails the property instead of panicking directly.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "{}: `{:?}` == `{:?}`",
            format!($($fmt)*),
            left,
            right
        );
    }};
}
