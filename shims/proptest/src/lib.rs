//! Vendored stand-in for the `proptest` crate.
//!
//! The workspace builds hermetically (no registry access), so property tests
//! run on this minimal, deterministic re-implementation of the proptest API
//! surface they use: the `proptest!` macro, `Strategy` with `prop_map` /
//! `prop_recursive` / `boxed`, `prop_oneof!`, `Just`, `any`, numeric ranges,
//! single-character-class string "regexes", and the `collection` / `num`
//! helpers. Differences from upstream: no shrinking (failures report the
//! exact generated inputs instead), and the per-test RNG is seeded from the
//! test's module path, so runs are reproducible by construction.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashSet};
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

// ---------------------------------------------------------------- rng

/// Deterministic per-test random source (SplitMix64). Also carries the
/// remaining depth budget for `prop_recursive` strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
    depth: u32,
}

impl TestRng {
    /// Seed from a test's name so each test gets a stable, independent
    /// stream.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: h ^ 0x9e37_79b9_7f4a_7c15,
            depth: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------- errors & config

/// A failed property check (from `prop_assert!` and friends).
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runner configuration; only `cases` is meaningful here.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

// ---------------------------------------------------------------- strategy core

/// A way to generate values of `Self::Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
    }

    /// Build recursive structures: `recurse` receives a handle generating
    /// sub-values (bounded to `depth` levels), and returns the strategy for
    /// a compound value.
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
        let leaf = self.boxed();
        let cell: Rc<RefCell<Option<BoxedStrategy<Self::Value>>>> = Rc::new(RefCell::new(None));
        let handle = {
            let leaf = leaf.clone();
            let cell = Rc::clone(&cell);
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                if rng.depth == 0 || rng.below(4) == 0 {
                    leaf.generate(rng)
                } else {
                    let saved = rng.depth;
                    rng.depth = saved - 1;
                    let branch = cell.borrow().clone().expect("recursive strategy init");
                    let v = branch.generate(rng);
                    rng.depth = saved;
                    v
                }
            }))
        };
        let branch = recurse(handle.clone()).boxed();
        *cell.borrow_mut() = Some(branch);
        // The root goes through the same depth-guarded handle: a branch
        // node consumes one depth level, so generated structures never
        // nest deeper than `depth`.
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
            let saved = rng.depth;
            rng.depth = depth;
            let v = handle.generate(rng);
            rng.depth = saved;
            v
        }))
    }
}

/// Type-erased strategy; cheap to clone.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between type-erased alternatives (see `prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

// ---------------------------------------------------------------- ranges

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

// ---------------------------------------------------------------- any / Arbitrary

/// Types with a canonical unconstrained generator, for [`any`].
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        (rng.next_u64() >> 56) as u8
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy produced by [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

// ---------------------------------------------------------------- string patterns

/// `&str` patterns act as regex strategies. Supported shape: a single
/// character class with a bounded repetition — `"[a-z0-9_]{1,8}"` — which is
/// the only form this workspace uses.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (alphabet, lo, hi) = parse_char_class(self);
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect()
    }
}

fn bad_pattern(pattern: &str) -> ! {
    panic!("unsupported string pattern {pattern:?}: expected \"[class]{{lo,hi}}\"")
}

fn parse_char_class(pattern: &str) -> (Vec<char>, usize, usize) {
    let Some(rest) = pattern.strip_prefix('[') else {
        bad_pattern(pattern)
    };
    let Some((class, rep)) = rest.split_once(']') else {
        bad_pattern(pattern)
    };
    // Expand escapes, then ranges.
    let mut raw: Vec<char> = Vec::new();
    let mut it = class.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            match it.next() {
                Some('n') => raw.push('\n'),
                Some('t') => raw.push('\t'),
                Some(other) => raw.push(other),
                None => bad_pattern(pattern),
            }
        } else {
            raw.push(c);
        }
    }
    let mut alphabet = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        if i + 2 < raw.len() && raw[i + 1] == '-' {
            let (a, b) = (raw[i] as u32, raw[i + 2] as u32);
            assert!(a <= b, "bad range in pattern {pattern:?}");
            alphabet.extend((a..=b).filter_map(char::from_u32));
            i += 3;
        } else {
            alphabet.push(raw[i]);
            i += 1;
        }
    }
    assert!(!alphabet.is_empty(), "empty character class in {pattern:?}");
    let Some(rep) = rep.strip_prefix('{') else {
        bad_pattern(pattern)
    };
    let Some(rep) = rep.strip_suffix('}') else {
        bad_pattern(pattern)
    };
    let (lo, hi) = match rep.split_once(',') {
        Some((l, h)) => (l.trim().parse().unwrap(), h.trim().parse().unwrap()),
        None => {
            let n = rep.trim().parse().unwrap();
            (n, n)
        }
    };
    assert!(lo <= hi, "bad repetition in pattern {pattern:?}");
    (alphabet, lo, hi)
}

// ---------------------------------------------------------------- tuples

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

tuple_strategy!(A.0);
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

// ---------------------------------------------------------------- collections

pub mod collection {
    use super::{BTreeSet, HashSet, Strategy, TestRng};

    /// Inclusive-exclusive size bound for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl SizeRange {
        fn pick(self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo) as u64) as usize
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            // Bounded attempts: small element domains may not contain
            // `target` distinct values.
            for _ in 0..(target * 10 + 16) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }

    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

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
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = HashSet::new();
            for _ in 0..(target * 10 + 16) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }
}

// ---------------------------------------------------------------- num

pub mod num {
    /// Strategies over `f64`.
    pub mod f64 {
        use crate::{Strategy, TestRng};

        /// Generates normal (non-zero, non-subnormal, finite) floats of
        /// either sign, like proptest's `num::f64::NORMAL`.
        #[derive(Debug, Clone, Copy)]
        pub struct Normal;

        pub const NORMAL: Normal = Normal;

        impl Strategy for Normal {
            type Value = f64;
            fn generate(&self, rng: &mut TestRng) -> f64 {
                loop {
                    let v = f64::from_bits(rng.next_u64());
                    if v.is_normal() {
                        return v;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- macros

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Property assertion: fails the current case (with generated inputs
/// reported) instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality property assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Inequality property assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

/// Declare property tests. Each `fn name(arg in strategy, ...) { body }`
/// expands to a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(err) = outcome {
                    panic!(
                        "property failed at case {}/{}: {}\n  inputs: {}",
                        case, config.cases, err, inputs
                    );
                }
            }
        }
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
}

/// One-stop import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = super::TestRng::for_test("ranges");
        for _ in 0..1000 {
            let v = Strategy::generate(&(-50i64..7), &mut rng);
            assert!((-50..7).contains(&v));
            let f = Strategy::generate(&(0.25f64..0.75), &mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn string_patterns_match_class_and_length() {
        let mut rng = super::TestRng::for_test("strings");
        for _ in 0..500 {
            let s = Strategy::generate(&"[a-z0-9_]{1,8}", &mut rng);
            assert!((1..=8).contains(&s.len()));
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
            let t = Strategy::generate(&"[ -~\\n\\t]{0,16}", &mut rng);
            assert!(t
                .chars()
                .all(|c| (' '..='~').contains(&c) || c == '\n' || c == '\t'));
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = super::TestRng::for_test("same");
        let mut b = super::TestRng::for_test("same");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #[test]
        fn macro_expands_and_runs(x in 0u32..10, label in "[a-z]{1,4}") {
            prop_assert!(x < 10);
            prop_assert!(!label.is_empty() && label.len() <= 4, "len {}", label.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn config_override_applies(v in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert_ne!(v, 0);
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(i64),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(v) => {
                    assert!((0..10).contains(v), "leaf {v} outside its strategy");
                    0
                }
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = (0i64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(4, 32, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            });
        let mut rng = super::TestRng::for_test("trees");
        let mut saw_node = false;
        for _ in 0..200 {
            let t = Strategy::generate(&strat, &mut rng);
            assert!(depth(&t) <= 4);
            saw_node |= matches!(t, Tree::Node(..));
        }
        assert!(saw_node, "recursion produced compound values");
    }
}
