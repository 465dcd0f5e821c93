//! A tiny deterministic generator for scenario synthesis.
//!
//! The scenario crate cannot use the process RNG: the whole point of a
//! seeded generator is that `(seed, config)` names a universe, so two
//! sessions — or two threads — asking for seed 7 must get byte-identical
//! worlds. SplitMix64 is the standard small PRNG for this: one u64 of
//! state, full-period, and good enough avalanche behavior that consecutive
//! seeds produce unrelated universes (satellite tests pin both properties).

/// SplitMix64: one-word PRNG used for all scenario synthesis.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator at `seed`. Any seed is fine, including 0.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`). The tiny modulo bias is
    /// irrelevant for scenario synthesis and keeps the draw one-shot,
    /// which keeps generation streams easy to reason about.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is a contradiction");
        self.next_u64() % n
    }

    /// True with probability `pct`/100.
    pub(crate) fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// An exponentially distributed gap with the given mean, in
    /// microseconds, clamped to at least 1 µs (Poisson arrival spacing).
    /// `ln` is deterministic for a fixed platform, and scenario
    /// fingerprints are only ever compared within one process, so floating
    /// point is safe here.
    pub(crate) fn exp_gap_us(&mut self, mean_us: u64) -> u64 {
        // 53 uniform mantissa bits in (0, 1]: never ln(0).
        let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        ((-u.ln()) * mean_us as f64).round().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_seed_sensitive() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let g = r.exp_gap_us(1000);
            assert!(g >= 1);
        }
        // The exponential mean should land in the right ballpark.
        let mut r = SplitMix64::new(3);
        let total: u64 = (0..4096).map(|_| r.exp_gap_us(1000)).sum();
        let mean = total / 4096;
        assert!((600..1600).contains(&mean), "mean {mean}");
    }
}
