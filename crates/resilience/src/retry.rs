//! Retransmission deadline policy: the fixed exponential ladder and its
//! RTT-adaptive variant share one shape — `base · 2^retries`, capped, plus
//! seeded jitter — and differ only in where the base comes from.

use sada_obs::SimDuration;

/// A splitmix64-style mix: a deterministic pseudo-random value in
/// `[0, span)` derived from a seed and a caller-chosen salt (the protocol
/// manager salts with its unique, monotonic timer token). Runs stay a pure
/// function of their inputs.
pub fn jitter_us(seed: u64, salt: u64, span: u64) -> u64 {
    if span == 0 {
        return 0;
    }
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x % span
}

/// How the retransmission base interval is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryMode {
    /// The historical fixed ladder: every phase starts from `base`
    /// regardless of what the network looks like.
    FixedLadder,
    /// Start from the caller-supplied RTT hint (an [`crate::RttEstimator`]
    /// RTO) when one exists, falling back to `base` until the estimator has
    /// its first sample. A hint lifts the cap with it, so a genuinely slow
    /// agent gets a deadline it can actually meet.
    Adaptive,
}

/// Retransmission schedule shared by the protocol manager, the fleet
/// control plane, and anything else that retries over the wire.
///
/// `deadline` reproduces the manager's original timer arithmetic exactly in
/// [`RetryMode::FixedLadder`] mode: the first timer of a phase
/// (`retries == 0`) is exactly `base`, retried timers double up to `cap`
/// and add a deterministic seeded jitter of up to a quarter interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Base interval before the first retransmission of a phase.
    pub base: SimDuration,
    /// Ceiling for the backed-off interval. Values below `base` are treated
    /// as `base` (no backoff). In adaptive mode an RTT hint above the cap
    /// lifts the cap to the hint.
    pub cap: SimDuration,
    /// Seed for the deterministic retransmission jitter.
    pub jitter_seed: u64,
    /// Base selection strategy.
    pub mode: RetryMode,
    /// Lower bound applied to adaptive hints so a burst of fast acks cannot
    /// drive the deadline below what the scheduler can meaningfully arm.
    pub floor: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_millis(200),
            cap: SimDuration::from_millis(800),
            jitter_seed: 0x5ADA,
            mode: RetryMode::FixedLadder,
            floor: SimDuration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// The default policy flipped to RTT-adaptive base selection.
    pub fn adaptive() -> Self {
        RetryPolicy { mode: RetryMode::Adaptive, ..RetryPolicy::default() }
    }

    /// Deadline for the `retries`-th (0-based) transmission of a phase,
    /// salted by a unique token so jitter never repeats across timers.
    ///
    /// `hint` is the current RTT-derived timeout for the slowest participant
    /// (ignored in fixed mode, and until the first sample in adaptive mode).
    pub fn deadline(&self, retries: u32, salt: u64, hint: Option<SimDuration>) -> SimDuration {
        let base = match (self.mode, hint) {
            (RetryMode::Adaptive, Some(h)) => h.as_micros().max(self.floor.as_micros()),
            _ => self.base.as_micros(),
        };
        let cap = self.cap.as_micros().max(base);
        let mut backed = base.saturating_mul(1u64 << retries.min(10)).min(cap);
        if retries > 0 {
            backed += jitter_us(self.jitter_seed, salt, backed / 4 + 1);
        }
        SimDuration::from_micros(backed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original `fresh_timer` arithmetic, kept verbatim as an oracle.
    fn legacy(retries: u32, salt: u64) -> u64 {
        let base = SimDuration::from_millis(200).as_micros();
        let cap = SimDuration::from_millis(800).as_micros().max(base);
        let mut backed = base.saturating_mul(1u64 << retries.min(10)).min(cap);
        if retries > 0 {
            backed += jitter_us(0x5ADA, salt, backed / 4 + 1);
        }
        backed
    }

    #[test]
    fn fixed_ladder_is_bit_identical_to_the_legacy_arithmetic() {
        let p = RetryPolicy::default();
        for retries in 0..16 {
            for salt in [1u64 << 16, (7 << 16) | 3, 0xDEAD_BEEF, u64::MAX] {
                assert_eq!(
                    p.deadline(retries, salt, None).as_micros(),
                    legacy(retries, salt),
                    "retries={retries} salt={salt}"
                );
            }
        }
    }

    #[test]
    fn first_timer_of_a_phase_is_exactly_base() {
        let p = RetryPolicy::default();
        assert_eq!(p.deadline(0, 99, None), SimDuration::from_millis(200));
        // Adaptive with no hint behaves like the fixed ladder.
        let a = RetryPolicy::adaptive();
        assert_eq!(a.deadline(0, 99, None), SimDuration::from_millis(200));
    }

    #[test]
    fn adaptive_hint_replaces_the_base_and_lifts_the_cap() {
        let p = RetryPolicy::adaptive();
        let hint = SimDuration::from_millis(2_500);
        assert_eq!(p.deadline(0, 1, Some(hint)), hint);
        // Doubling still applies, uncapped by the (lower) fixed cap but
        // capped by the lifted cap = hint.
        assert_eq!(
            p.deadline(1, 0, Some(hint)).as_micros(),
            hint.as_micros() + jitter_us(p.jitter_seed, 0, hint.as_micros() / 4 + 1)
        );
        // A fast hint is clamped up to the floor.
        let fast = SimDuration::from_micros(10);
        assert_eq!(p.deadline(0, 1, Some(fast)), p.floor);
    }

    #[test]
    fn fixed_mode_ignores_hints() {
        let p = RetryPolicy::default();
        let hint = SimDuration::from_millis(5_000);
        assert_eq!(p.deadline(0, 1, Some(hint)), SimDuration::from_millis(200));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for salt in 0..64u64 {
            let a = jitter_us(0x5ADA, salt, 1000);
            assert_eq!(a, jitter_us(0x5ADA, salt, 1000));
            assert!(a < 1000);
        }
        assert_eq!(jitter_us(1, 2, 0), 0);
    }
}
