//! Jacobson/Karels round-trip estimation over virtual time.

use sada_obs::SimDuration;

/// Smoothed RTT + variance over observed request→ack latency, yielding a
/// retransmission timeout (`RTO = srtt + 4·rttvar`, clamped).
///
/// Integer microsecond arithmetic with the classic gains (α = 1/8,
/// β = 1/4) so replays are exact. Hosts sample from the *first* send of a
/// phase message to the *first* reply from that agent (Karn's rule: a
/// retransmitted exchange keeps its original send time, which can only
/// overestimate — the safe direction for a timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttEstimator {
    srtt_us: u64,
    rttvar_us: u64,
    samples: u64,
    /// Lower clamp for the RTO (timer granularity guard).
    floor: SimDuration,
    /// Upper clamp for the RTO (a stalled agent must not push deadlines to
    /// infinity).
    ceiling: SimDuration,
}

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator::new()
    }
}

impl RttEstimator {
    /// An estimator with no samples, its timeout clamped to 1 ms – 10 s.
    pub fn new() -> Self {
        RttEstimator {
            srtt_us: 0,
            rttvar_us: 0,
            samples: 0,
            floor: SimDuration::from_millis(1),
            ceiling: SimDuration::from_secs(10),
        }
    }

    /// Feed one observed round-trip latency sample.
    pub fn observe(&mut self, sample: SimDuration) {
        let s = sample.as_micros();
        if self.samples == 0 {
            // RFC 6298 initialization: srtt = R, rttvar = R/2.
            self.srtt_us = s;
            self.rttvar_us = s / 2;
        } else {
            let err = self.srtt_us.abs_diff(s);
            // rttvar = 3/4·rttvar + 1/4·|srtt − s|
            self.rttvar_us = self.rttvar_us - self.rttvar_us / 4 + err / 4;
            // srtt = 7/8·srtt + 1/8·s
            self.srtt_us = self.srtt_us - self.srtt_us / 8 + s / 8;
        }
        self.samples = self.samples.saturating_add(1);
    }

    /// Current retransmission timeout, or `None` before the first sample.
    pub fn rto(&self) -> Option<SimDuration> {
        if self.samples == 0 {
            return None;
        }
        let raw = self.srtt_us.saturating_add(4 * self.rttvar_us.max(1));
        Some(SimDuration::from_micros(raw.clamp(self.floor.as_micros(), self.ceiling.as_micros())))
    }

    /// Current smoothed RTT, or `None` before the first sample.
    pub fn srtt(&self) -> Option<SimDuration> {
        (self.samples > 0).then(|| SimDuration::from_micros(self.srtt_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_rto_before_first_sample() {
        assert_eq!(RttEstimator::new().rto(), None);
    }

    #[test]
    fn first_sample_initializes_srtt_and_var() {
        let mut e = RttEstimator::new();
        e.observe(SimDuration::from_millis(10));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(10)));
        // RTO = 10ms + 4·5ms = 30ms.
        assert_eq!(e.rto(), Some(SimDuration::from_millis(30)));
    }

    #[test]
    fn steady_samples_converge_and_shrink_variance() {
        let mut e = RttEstimator::new();
        for _ in 0..64 {
            e.observe(SimDuration::from_millis(10));
        }
        let srtt = e.srtt().unwrap().as_micros();
        assert!((9_000..=11_000).contains(&srtt), "srtt={srtt}");
        let rto = e.rto().unwrap().as_micros();
        assert!(rto < 15_000, "variance decays on steady input, rto={rto}");
    }

    #[test]
    fn slow_outlier_raises_the_timeout_quickly() {
        let mut e = RttEstimator::new();
        for _ in 0..8 {
            e.observe(SimDuration::from_millis(10));
        }
        e.observe(SimDuration::from_millis(2_500));
        let rto = e.rto().unwrap();
        assert!(
            rto >= SimDuration::from_millis(600),
            "one 2.5s sample must push the RTO far above the old srtt, got {rto:?}"
        );
    }

    #[test]
    fn rto_is_clamped_to_the_ceiling() {
        let mut e = RttEstimator::new();
        e.observe(SimDuration::from_secs(60));
        assert_eq!(e.rto(), Some(SimDuration::from_secs(10)));
    }
}
