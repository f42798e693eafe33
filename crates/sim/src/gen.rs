//! Deterministic test-data generation.
//!
//! A tiny, dependency-free stand-in for the parts of `proptest` the test
//! suites use: seeded random scalars, strings over an alphabet, and
//! collections, all driven by [`SimRng`] so failures reproduce exactly
//! from the printed case number. Keeping this in-repo lets the whole
//! workspace build and test on a machine with no access to a cargo
//! registry.
//!
//! # Examples
//!
//! ```
//! use fabriccrdt_sim::gen;
//!
//! gen::cases(16, |g| {
//!     let xs = g.vec(0, 8, |g| g.range(0, 100));
//!     let mut sorted = xs.clone();
//!     sorted.sort_unstable();
//!     assert_eq!(sorted.len(), xs.len());
//! });
//! ```

use crate::rng::SimRng;

/// A seeded generator of arbitrary test data.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: SimRng,
}

impl Gen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: SimRng::seed_from(seed),
        }
    }

    /// Direct access to the underlying PRNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// An arbitrary 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range(lo, hi)
    }

    /// Uniform collection size in `[lo, hi]` (inclusive, unlike
    /// [`Gen::range`], matching how proptest ranges read in the tests).
    pub fn size(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range(lo as u64, hi as u64 + 1) as usize
    }

    /// A fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn prob(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range_f64(lo, hi)
    }

    /// An arbitrary byte.
    pub fn byte(&mut self) -> u8 {
        (self.rng.next_u64() & 0xff) as u8
    }

    /// Arbitrary bytes with a length in `[lo, hi]`.
    pub fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        let len = self.size(lo, hi);
        (0..len).map(|_| self.byte()).collect()
    }

    /// A 32-byte array (hash/signature shaped).
    pub fn array32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        out
    }

    /// A uniformly chosen element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.range(0, items.len() as u64) as usize]
    }

    /// A string over `alphabet` with a length in `[lo, hi]`.
    pub fn string_of(&mut self, alphabet: &str, lo: usize, hi: usize) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let len = self.size(lo, hi);
        (0..len).map(|_| *self.pick(&chars)).collect()
    }

    /// A lowercase identifier with a length in `[lo, hi]`.
    pub fn ident(&mut self, lo: usize, hi: usize) -> String {
        self.string_of("abcdefghijklmnopqrstuvwxyz", lo, hi)
    }

    /// A vector with a length in `[lo, hi]` of generated elements.
    pub fn vec<T>(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.size(lo, hi);
        (0..len).map(|_| f(self)).collect()
    }
}

/// Runs `f` over `n` independently seeded cases. When an assertion in
/// `f` panics, the failing case number is printed so the run can be
/// reproduced with [`case_gen`].
pub fn cases(n: usize, mut f: impl FnMut(&mut Gen)) {
    for case in 0..n {
        let mut g = case_gen(case);
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut g)));
        if let Err(payload) = ran {
            eprintln!("gen::cases: failing case #{case}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// The generator used for case number `case` of [`cases`].
pub fn case_gen(case: usize) -> Gen {
    Gen::new(0x9e37_79b9_7f4a_7c15 ^ (case as u64).wrapping_mul(0xd134_2543_de82_ef95))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let collect = || {
            let mut out = Vec::new();
            cases(5, |g| out.push((g.u64(), g.ident(1, 4))));
            out
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn cases_differ_from_each_other() {
        let mut firsts = Vec::new();
        cases(8, |g| firsts.push(g.u64()));
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 8, "per-case seeds collide");
    }

    #[test]
    fn size_is_inclusive() {
        let mut g = Gen::new(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let s = g.size(0, 3);
            assert!(s <= 3);
            seen.insert(s);
        }
        assert_eq!(seen.len(), 4, "all sizes in [0,3] reachable");
    }

    #[test]
    fn string_respects_alphabet_and_length() {
        let mut g = Gen::new(2);
        for _ in 0..100 {
            let s = g.string_of("ab", 1, 5);
            assert!((1..=5).contains(&s.len()));
            assert!(s.chars().all(|c| c == 'a' || c == 'b'));
        }
    }

    #[test]
    fn array32_varies() {
        let mut g = Gen::new(3);
        assert_ne!(g.array32(), g.array32());
    }
}
