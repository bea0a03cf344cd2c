//! Offline stand-in for the `proptest` crate.
//!
//! Implements the slice of proptest the workspace's property tests use:
//! the [`strategy::Strategy`] trait with `prop_map`/`prop_filter`/`boxed`, range and
//! tuple strategies, a regex-subset string strategy, `Just`, `any`,
//! `prop::collection::vec`, `prop_oneof!`, and the [`proptest!`] macro with
//! `ProptestConfig`. Differences from upstream:
//!
//! * **No shrinking** — a failing case reports the panicking assertion and
//!   the case's seed, not a minimized input.
//! * `prop_assert*` panic (like `assert*`) instead of returning
//!   `Err(TestCaseError)`.
//! * String strategies support the regex subset actually used in this
//!   repo: concatenations of literals and character classes with optional
//!   `{m,n}` repetition.
//!
//! Cases are generated deterministically per (test name, case index), so
//! failures reproduce across runs.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// The glue re-exports every test imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace mirror of `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Run property-test functions over generated inputs.
///
/// Supports the upstream surface used here: an optional leading
/// `#![proptest_config(expr)]`, then `#[test]` functions whose arguments
/// are `name in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $(
        $(#[$attr:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let test_name = concat!(module_path!(), "::", stringify!($name));
            // Evaluate each strategy expression once; generate per case.
            $crate::__proptest_impl!(@bind ($($arg)+) ($($strategy),+));
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::for_case(test_name, case);
                $(
                    let $arg = $crate::strategy::Strategy::generate(
                        $crate::__proptest_impl!(@strat $arg),
                        &mut rng,
                    );
                )+
                let guard = $crate::test_runner::CaseGuard::new(test_name, case);
                { $body }
                guard.passed();
            }
        }
    )*};
    // Bind strategy expressions to hygienic per-arg names `__strat_<arg>`.
    (@bind ($($arg:ident)+) ($($strategy:expr),+)) => {
        $crate::__proptest_impl!(@bind_each $(($arg $strategy))+);
    };
    (@bind_each $(($arg:ident $strategy:expr))+) => {
        $(
            #[allow(non_upper_case_globals)]
            let $arg = $strategy;
            let $arg = &$arg;
        )+
    };
    (@strat $arg:ident) => { $arg };
}

/// Assert inside a property; panics with the case context on failure.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice between strategies sharing a value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Union::weighted($weight, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Union::weighted(1, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Leaf {
        Flag(bool),
        Num(i64),
        Word(String),
    }

    fn arb_leaf() -> impl Strategy<Value = Leaf> {
        prop_oneof![
            any::<bool>().prop_map(Leaf::Flag),
            (-50i64..50).prop_map(Leaf::Num),
            "[a-z]{1,4}".prop_map(Leaf::Word),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(a in -100i32..100, b in 0.5f64..2.0, c in 1u64..=9) {
            prop_assert!((-100..100).contains(&a));
            prop_assert!((0.5..2.0).contains(&b));
            prop_assert!((1..=9).contains(&c));
        }

        #[test]
        fn vec_sizes_and_filter(
            v in crate::collection::vec((0i64..10, 0.0f64..1.0), 2..6),
            s in "[a-z0-9]{0,8}".prop_filter("nonempty", |s| !s.is_empty()),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(!s.is_empty());
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }

        #[test]
        fn oneof_and_boxed(leaf in arb_leaf(), fixed in Just(41i32)) {
            match &leaf {
                Leaf::Flag(_) => {}
                Leaf::Num(n) => prop_assert!((-50..50).contains(n)),
                Leaf::Word(w) => prop_assert!(!w.is_empty() && w.len() <= 4),
            }
            prop_assert_eq!(fixed + 1, 42);
        }
    }

    #[test]
    fn generation_is_deterministic_per_case() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = crate::collection::vec(0i64..1000, 0..20);
        let a: Vec<i64> = strat.generate(&mut TestRng::for_case("t", 3));
        let b: Vec<i64> = strat.generate(&mut TestRng::for_case("t", 3));
        let c: Vec<i64> = strat.generate(&mut TestRng::for_case("t", 4));
        assert_eq!(a, b);
        assert_ne!((a, 3), (c, 4));
    }
}
