//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! This workspace builds without access to crates.io, so the subset of the
//! proptest API its test suites use is reimplemented here: the
//! [`Strategy`] trait (with [`Strategy::prop_map`],
//! [`Strategy::prop_flat_map`] and [`Strategy::prop_shuffle`]), strategies
//! for integer ranges, tuples, [`Just`], [`bool::ANY`] and
//! [`collection::vec`], plus the [`proptest!`] test macro with
//! [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assume!`].
//!
//! Differences from the real crate, deliberate for offline determinism:
//!
//! * **no shrinking** — a failing case reports the case seed instead of a
//!   minimal input;
//! * each test's random stream is seeded from the test name, so runs are
//!   fully deterministic;
//! * rejected cases ([`prop_assume!`]) are skipped, not retried.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform};

/// The RNG handed to strategies by the [`proptest!`] runner.
pub type TestRng = StdRng;

/// A recipe for generating values of a given type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy applying `f` to every generated value.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// A strategy generating a value, then generating from the strategy
    /// `f` builds out of it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }

    /// A strategy producing random permutations of the generated
    /// collection.
    fn prop_shuffle(self) -> Shuffle<Self>
    where
        Self: Sized,
        Self::Value: Shuffleable,
    {
        Shuffle { base: self }
    }
}

/// Collections [`Strategy::prop_shuffle`] can permute.
pub trait Shuffleable {
    /// Permutes the collection in place (Fisher–Yates).
    fn shuffle(&mut self, rng: &mut TestRng);
}

impl<T> Shuffleable for Vec<T> {
    fn shuffle(&mut self, rng: &mut TestRng) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range_inclusive(0..=i);
            self.swap(i, j);
        }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_shuffle`].
#[derive(Clone, Debug)]
pub struct Shuffle<S> {
    base: S,
}

impl<S: Strategy> Strategy for Shuffle<S>
where
    S::Value: Shuffleable,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        let mut v = self.base.generate(rng);
        v.shuffle(rng);
        v
    }
}

/// A strategy that always yields a clone of its payload.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<T: SampleUniform + Clone> Strategy for std::ops::Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T: SampleUniform + Clone> Strategy for std::ops::RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range_inclusive(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// The strategy yielding fair-coin booleans.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(0.5)
        }
    }

    /// A fair-coin boolean.
    pub const ANY: Any = Any;
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// A strategy for `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S, L>(element: S, size: L) -> VecStrategy<S, L>
    where
        S: Strategy,
        L: Strategy<Value = usize>,
    {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: Strategy<Value = usize>> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Configuration for a [`proptest!`] block.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// How many cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Test-case outcomes used by the assertion macros.
pub mod test_runner {
    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The case was rejected by [`prop_assume!`](crate::prop_assume);
        /// it is skipped, not a failure.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// A failed-assertion error.
        #[must_use]
        pub fn fail(message: String) -> Self {
            TestCaseError::Fail(message)
        }

        /// A rejected-case marker.
        #[must_use]
        pub fn reject(message: String) -> Self {
            TestCaseError::Reject(message)
        }
    }
}

/// Runs one test's cases. Used by the [`proptest!`] expansion; not public
/// API in the real crate, but harmless here.
pub fn run_cases<V>(
    test_name: &str,
    config: &ProptestConfig,
    strategy: &impl Strategy<Value = V>,
    mut body: impl FnMut(V) -> Result<(), test_runner::TestCaseError>,
) {
    use rand::SeedableRng;
    // Deterministic per-test base seed: FNV-1a over the test name.
    let mut base = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        base ^= u64::from(b);
        base = base.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rejected = 0u32;
    for case in 0..config.cases {
        let mut rng = TestRng::seed_from_u64(base.wrapping_add(u64::from(case)));
        let value = strategy.generate(&mut rng);
        match body(value) {
            Ok(()) => {}
            Err(test_runner::TestCaseError::Reject(_)) => rejected += 1,
            Err(test_runner::TestCaseError::Fail(msg)) => panic!(
                "proptest case failed: {msg}\n\
                 (test `{test_name}`, case {case}, case seed {seed:#x})",
                seed = base.wrapping_add(u64::from(case)),
            ),
        }
    }
    assert!(
        rejected < config.cases,
        "proptest `{test_name}`: every case was rejected"
    );
}

/// Defines property tests: each `fn` runs its body over many generated
/// inputs. See the crate docs for the differences from real proptest.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( config = $cfg:expr; ) => {};
    (
        config = $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategy = ( $($strat,)+ );
            $crate::run_cases(
                stringify!($name),
                &config,
                &strategy,
                |( $($pat,)+ )| {
                    $body
                    Ok(())
                },
            );
        }
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
}

/// Like `assert!`, but reports the failure through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Like `assert_eq!`, but reports the failure through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Skips the current case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;
    use rand::SeedableRng;

    #[test]
    fn ranges_tuples_and_just_generate_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        let strat = (1usize..=10, Just(7u8), 0u128..5);
        for _ in 0..200 {
            let (a, b, c) = Strategy::generate(&strat, &mut rng);
            assert!((1..=10).contains(&a));
            assert_eq!(b, 7);
            assert!(c < 5);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = TestRng::seed_from_u64(2);
        let strat = Just((0u32..8).collect::<Vec<u32>>()).prop_shuffle();
        for _ in 0..50 {
            let mut v = strat.generate(&mut rng);
            v.sort_unstable();
            assert_eq!(v, (0..8).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let mut rng = TestRng::seed_from_u64(3);
        let strat = (1usize..=20).prop_flat_map(|n| (Just(n), 0usize..n));
        for _ in 0..200 {
            let (n, k) = strat.generate(&mut rng);
            assert!(k < n);
        }
    }

    #[test]
    fn collection_vec_respects_size_strategy() {
        let mut rng = TestRng::seed_from_u64(4);
        let strat = collection::vec(0u32..3, 2..6usize);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 3));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_patterns((a, b) in (0u64..100, 0u64..100), flip in crate::bool::ANY) {
            prop_assert!(a < 100 && b < 100);
            if flip {
                prop_assert_eq!(a + b, b + a);
            }
        }

        #[test]
        fn assume_skips_cases(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }
    }
}
