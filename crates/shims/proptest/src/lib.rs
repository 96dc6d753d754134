//! In-tree stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of the `proptest` API its tests use: the `proptest!`
//! macro, a [`Strategy`](strategy::Strategy) trait with the map / flat-map
//! / recursive / one-of combinators, collection and option strategies, and
//! a tiny regex-pattern string generator. Differences from upstream are
//! deliberate: cases are generated from a seed derived from the test name
//! (fully deterministic run to run), and failing cases are reported but
//! NOT shrunk — the failing case index and seed are printed instead.

pub mod strategy {
    use std::marker::PhantomData;
    use std::sync::Arc;

    use rand::{Rng, RngCore};

    /// The generator driving all strategies.
    pub type TestRng = rand::rngs::StdRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values.
        fn prop_map<W, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> W,
        {
            Map { source: self, f }
        }

        /// Generates a value, then generates from a strategy derived
        /// from it.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { source: self, f }
        }

        /// Erases the strategy type. The result is cheaply clonable.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Arc::new(self))
        }

        /// Builds a recursive strategy: `self` generates the leaves and
        /// `recurse` wraps an inner strategy one level deeper. Recursion
        /// depth is bounded by `depth`; the size hints are accepted for
        /// API compatibility and ignored.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut current = self.boxed();
            for _ in 0..depth {
                let branch = recurse(current.clone()).boxed();
                current = Union::new(vec![current, branch]).boxed();
            }
            current
        }
    }

    trait DynStrategy<V> {
        fn generate_dyn(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<V>(Arc<dyn DynStrategy<V>>);

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<V: 'static> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate_dyn(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, W, F: Fn(S::Value) -> W> Strategy for Map<S, F> {
        type Value = W;

        fn generate(&self, rng: &mut TestRng) -> W {
            (self.f)(self.source.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.source.generate(rng)).generate(rng)
        }
    }

    /// Uniformly picks one of several strategies per generated value
    /// (backs the `prop_oneof!` macro).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over the given arms (at least one).
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Clone for Union<V> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
            }
        }
    }

    impl<V: 'static> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.gen_range(0..self.arms.len());
            self.arms[idx].generate(rng)
        }
    }

    /// Backs [`any`].
    pub struct Any<A>(PhantomData<fn() -> A>);

    impl<A> Clone for Any<A> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<A> Copy for Any<A> {}

    impl<A: rand::Standard> Strategy for Any<A> {
        type Value = A;

        fn generate(&self, rng: &mut TestRng) -> A {
            A::draw(rng)
        }
    }

    /// Uniform values of a primitive type.
    pub fn any<A: rand::Standard>() -> Any<A> {
        Any(PhantomData)
    }

    impl<T> Strategy for core::ops::Range<T>
    where
        T: Copy,
        core::ops::Range<T>: rand::SampleRange<T> + Clone,
    {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T> Strategy for core::ops::RangeInclusive<T>
    where
        T: Copy,
        core::ops::RangeInclusive<T>: rand::SampleRange<T> + Clone,
    {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    /// A `Vec` of strategies generates element-wise.
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }

    macro_rules! tuple_strategy {
        ($($S:ident . $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(S0.0);
    tuple_strategy!(S0.0, S1.1);
    tuple_strategy!(S0.0, S1.1, S2.2);
    tuple_strategy!(S0.0, S1.1, S2.2, S3.3);
    tuple_strategy!(S0.0, S1.1, S2.2, S3.3, S4.4);
    tuple_strategy!(S0.0, S1.1, S2.2, S3.3, S4.4, S5.5);

    /// A `&str` is interpreted as a regex-like pattern generating
    /// matching strings. Supported syntax: literal characters, `[...]`
    /// classes with ranges, and the `{n}`, `{m,n}`, `?`, `*`, `+`
    /// quantifiers (unbounded quantifiers are capped at 8 repeats).
    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            generate_pattern(self, rng)
        }
    }

    fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let choices: Vec<char> = match c {
                '[' => {
                    let mut set = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        let c = chars.next().expect("pattern: unterminated character class");
                        match c {
                            ']' => break,
                            '-' if prev.is_some() && chars.peek() != Some(&']') => {
                                let hi = chars.next().expect("pattern: bad range");
                                let lo = prev.take().expect("range start");
                                set.pop();
                                for v in lo..=hi {
                                    set.push(v);
                                }
                            }
                            c => {
                                set.push(c);
                                prev = Some(c);
                            }
                        }
                    }
                    set
                }
                '\\' => vec![chars.next().expect("pattern: dangling escape")],
                c => vec![c],
            };
            let (lo, hi) = match chars.peek() {
                Some('{') => {
                    chars.next();
                    let mut spec = String::new();
                    for c in chars.by_ref() {
                        if c == '}' {
                            break;
                        }
                        spec.push(c);
                    }
                    match spec.split_once(',') {
                        Some((m, n)) => (
                            m.parse().expect("pattern: bad repeat count"),
                            n.parse().expect("pattern: bad repeat count"),
                        ),
                        None => {
                            let n: usize = spec.parse().expect("pattern: bad repeat count");
                            (n, n)
                        }
                    }
                }
                Some('?') => {
                    chars.next();
                    (0, 1)
                }
                Some('*') => {
                    chars.next();
                    (0, 8)
                }
                Some('+') => {
                    chars.next();
                    (1, 8)
                }
                _ => (1, 1),
            };
            let count = rng.gen_range(lo..=hi);
            for _ in 0..count {
                let idx = rng.gen_range(0..choices.len());
                out.push(choices[idx]);
            }
        }
        out
    }

    /// Silences the unused warning for `RngCore` (needed by the blanket
    /// `Rng` impl used above).
    const _: fn(&mut TestRng) -> u64 = <TestRng as RngCore>::next_u64;
}

pub mod collection {
    //! Strategies for collections.

    use super::strategy::{Strategy, TestRng};
    use rand::Rng;

    /// A collection size: an exact count or an inclusive range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.lo..=self.hi)
        }
    }

    /// See [`vec`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// See [`hash_set`].
    #[derive(Clone)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `HashSet` with a size drawn from `size` (best effort: duplicate
    /// draws are retried a bounded number of times).
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: std::hash::Hash + Eq,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: std::hash::Hash + Eq,
    {
        type Value = std::collections::HashSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut set = std::collections::HashSet::new();
            let mut attempts = 0;
            while set.len() < target && attempts < target * 16 + 16 {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

pub mod option {
    //! Strategies for `Option`.

    use super::strategy::{Strategy, TestRng};
    use rand::Rng;

    /// See [`of`].
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` (three times out of four) of the inner strategy, or `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_range(0..4u32) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod test_runner {
    //! Deterministic case runner behind the `proptest!` macro.

    use super::strategy::TestRng;
    use rand::SeedableRng;

    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    struct CaseReporter<'a> {
        name: &'a str,
        seed: u64,
        case: u32,
    }

    impl Drop for CaseReporter<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "proptest shim: test `{}` failed at case {} (base seed {:#x})",
                    self.name, self.case, self.seed
                );
            }
        }
    }

    /// Explicit test-case failure, for bodies that bail with `?`.
    #[derive(Clone, Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError(message.into())
        }

        /// An explicit rejection (treated as failure by this shim, which
        /// does not resample).
        pub fn reject(message: impl Into<String>) -> TestCaseError {
            TestCaseError(message.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    /// Result alias for property-test bodies.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Runs `case` for each generated input. The per-test seed is derived
    /// from the test name, so runs are deterministic; on failure the case
    /// index and seed are printed (no shrinking).
    pub fn run_cases<F: FnMut(&mut TestRng)>(config: &ProptestConfig, name: &str, mut case: F) {
        let seed = fnv1a(name.as_bytes());
        for i in 0..config.cases {
            let reporter = CaseReporter {
                name,
                seed,
                case: i,
            };
            let mut rng =
                TestRng::seed_from_u64(seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9)));
            case(&mut rng);
            std::mem::forget(reporter);
        }
    }
}

pub mod prelude {
    //! The usual imports: `use proptest::prelude::*;`.

    pub use super::strategy::{any, BoxedStrategy, Just, Strategy, Union};
    pub use super::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use super::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a function running the body over generated inputs. As with
/// upstream `proptest`, the function's attributes are kept as written, so
/// each property carries its own `#[test]`; the macro adds none, or the
/// harness would register (and run) every property twice.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = <$crate::test_runner::ProptestConfig as ::core::default::Default>::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::test_runner::run_cases(&__config, stringify!($name), |__rng| {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                let __result: $crate::test_runner::TestCaseResult = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = __result {
                    panic!("test case failed: {e}");
                }
            });
        }
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    (config = $config:expr;) => {};
}

/// Uniformly picks one of several strategies for each generated value.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Asserts inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::TestRng;
    use rand::SeedableRng;

    fn rng() -> TestRng {
        TestRng::seed_from_u64(1)
    }

    #[test]
    fn ranges_and_maps() {
        let mut r = rng();
        for _ in 0..200 {
            let v = (1usize..10).generate(&mut r);
            assert!((1..10).contains(&v));
            let s = (1usize..10).prop_map(|v| v * 2).generate(&mut r);
            assert!(s % 2 == 0 && (2..20).contains(&s));
            let o = crate::option::of(0u32..4).generate(&mut r);
            assert!(o.is_none() || o.unwrap() < 4);
        }
    }

    #[test]
    fn collections_respect_sizes() {
        let mut r = rng();
        for _ in 0..100 {
            let v = crate::collection::vec(any::<u8>(), 2..5).generate(&mut r);
            assert!((2..5).contains(&v.len()));
            let exact = crate::collection::vec(any::<bool>(), 3).generate(&mut r);
            assert_eq!(exact.len(), 3);
            let s = crate::collection::hash_set(0u64..100, 1..8).generate(&mut r);
            assert!(!s.is_empty() && s.len() < 8);
        }
    }

    #[test]
    fn pattern_strings_match_shape() {
        let mut r = rng();
        for _ in 0..200 {
            let s = "[A-Za-z][A-Za-z0-9_]{0,8}".generate(&mut r);
            assert!(!s.is_empty() && s.len() <= 9, "{s:?}");
            let first = s.chars().next().unwrap();
            assert!(first.is_ascii_alphabetic(), "{s:?}");
            assert!(
                s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{s:?}"
            );
        }
    }

    #[test]
    fn recursion_is_depth_bounded() {
        #[derive(Clone, Debug, PartialEq)]
        enum Tree {
            Leaf,
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf => 0,
                Tree::Node(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let strat = Just(Tree::Leaf).boxed().prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner)
                .prop_map(|(l, r)| Tree::Node(Box::new(l), Box::new(r)))
                .boxed()
        });
        let mut r = rng();
        let mut saw_node = false;
        for _ in 0..200 {
            let t = strat.generate(&mut r);
            assert!(depth(&t) <= 4);
            saw_node |= t != Tree::Leaf;
        }
        assert!(saw_node, "recursion should sometimes branch");
    }

    #[test]
    fn vec_of_strategies_is_elementwise() {
        let strategies: Vec<_> = (0..4).map(|i| Just(i)).collect();
        let mut r = rng();
        assert_eq!(strategies.generate(&mut r), vec![0, 1, 2, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: destructuring patterns, multiple bindings,
        /// oneof, and the assert forms.
        #[test]
        fn macro_roundtrip((a, b) in (0u32..10, 0u32..10), flag in any::<bool>(),
                           pick in prop_oneof![Just(1u8), Just(2), Just(3)]) {
            prop_assert!(a < 10 && b < 10);
            prop_assert_ne!(pick, 0);
            prop_assert_eq!(flag as u8 * 0, 0);
        }
    }
}
