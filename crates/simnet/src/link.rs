//! Per-link network characteristics.

use sada_obs::SimDuration;

/// Delivery characteristics of a directed actor-to-actor link.
///
/// Message latency is `latency + U(0, jitter)` where `U` is uniform and drawn
/// from the simulator's seeded RNG; each message is independently dropped
/// with probability `loss`. A partitioned link drops everything.
///
/// The paper's two failure classes map directly onto this type:
/// *loss-of-message* failures are produced by `loss > 0` or `partitioned`,
/// and transient vs. long-term network failures are modelled by toggling
/// `partitioned` during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Base one-way delay.
    pub(crate) latency: SimDuration,
    /// Maximum additional uniform random delay.
    pub(crate) jitter: SimDuration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss: f64,
    /// When `true`, every message on the link is dropped.
    pub(crate) partitioned: bool,
    /// Transmission capacity in bytes per second; `None` = infinite.
    ///
    /// With a capacity set (and a message sizer installed on the
    /// simulator), messages serialize onto the link one at a time: a burst
    /// queues and each message adds `size / bandwidth` of transmission
    /// delay behind its predecessors — the queueing behaviour that makes
    /// "packet delay" a real cost during adaptation blackouts.
    pub(crate) bandwidth: Option<u64>,
}

impl LinkConfig {
    /// A reliable link with the given fixed latency and no jitter or loss.
    pub fn reliable(latency: SimDuration) -> Self {
        LinkConfig {
            latency,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            partitioned: false,
            bandwidth: None,
        }
    }

    /// A lossy link: fixed latency plus independent drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1]` or is NaN.
    pub fn lossy(latency: SimDuration, loss: f64) -> Self {
        assert!(
            loss.is_finite() && (0.0..=1.0).contains(&loss),
            "loss must be in [0,1], got {loss}"
        );
        LinkConfig { latency, jitter: SimDuration::ZERO, loss, partitioned: false, bandwidth: None }
    }

    /// Returns a copy with a transmission capacity in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        self.bandwidth = Some(bytes_per_sec);
        self
    }

    /// Returns a copy with the given jitter bound.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Returns a copy with the partition flag set.
    pub fn with_partitioned(mut self, partitioned: bool) -> Self {
        self.partitioned = partitioned;
        self
    }

    /// True when the configuration is semantically valid: `loss` is finite
    /// and within `[0, 1]`, and `bandwidth`, if set, is positive.
    ///
    /// Negative latency or jitter are unrepresentable by construction —
    /// [`SimDuration`] is unsigned — so they need no check here.
    pub(crate) fn is_valid(&self) -> bool {
        self.loss.is_finite()
            && (0.0..=1.0).contains(&self.loss)
            && self.bandwidth.is_none_or(|b| b > 0)
    }
}

impl Default for LinkConfig {
    /// A 1 ms reliable link — close to the paper's wired LAN hop between the
    /// adaptation manager and its agents.
    fn default() -> Self {
        LinkConfig::reliable(SimDuration::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_one_millisecond_reliable() {
        let l = LinkConfig::default();
        assert_eq!(l.latency, SimDuration::from_millis(1));
        assert_eq!(l.loss, 0.0);
        assert!(!l.partitioned);
    }

    #[test]
    fn builder_methods_compose() {
        let l = LinkConfig::lossy(SimDuration::from_millis(5), 0.25)
            .with_jitter(SimDuration::from_millis(2))
            .with_partitioned(true)
            .with_bandwidth(1_000_000);
        assert_eq!(l.latency, SimDuration::from_millis(5));
        assert_eq!(l.jitter, SimDuration::from_millis(2));
        assert_eq!(l.loss, 0.25);
        assert!(l.partitioned);
        assert_eq!(l.bandwidth, Some(1_000_000));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkConfig::default().with_bandwidth(0);
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1]")]
    fn lossy_rejects_out_of_range() {
        let _ = LinkConfig::lossy(SimDuration::ZERO, 1.5);
    }

    #[test]
    fn is_valid_matches_constructor_checks() {
        // Field-struct literals bypass the constructors; the simulator's
        // debug assertion on `is_valid` closes the gap.
        let nan = LinkConfig { loss: f64::NAN, ..LinkConfig::default() };
        assert!(!nan.is_valid());
        let negative = LinkConfig { loss: -0.1, ..LinkConfig::default() };
        assert!(!negative.is_valid());
        let too_high = LinkConfig { loss: 1.5, ..LinkConfig::default() };
        assert!(!too_high.is_valid());
        let zero_bw = LinkConfig { bandwidth: Some(0), ..LinkConfig::default() };
        assert!(!zero_bw.is_valid());
        let fine = LinkConfig { loss: 0.5, ..LinkConfig::default() };
        assert!(fine.is_valid());
        // Negative jitter is unrepresentable: SimDuration is an unsigned
        // microsecond count, so that whole failure class is gone at the
        // type level.
        assert_eq!(SimDuration::ZERO.as_micros(), 0);
    }
}
