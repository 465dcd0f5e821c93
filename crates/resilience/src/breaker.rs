//! Per-agent circuit breaker: closed / open / half-open with seeded probing.

use crate::retry::jitter_us;
use sada_obs::{SimDuration, SimTime};

/// Breaker tuning. Defaults trip after 4 consecutive failures, hold open
/// for 400 ms, and double that hold (capped at 6.4 s) every time a
/// half-open probe fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that trip the breaker.
    pub failure_threshold: u32,
    /// Initial open hold before the first half-open probe.
    pub cooldown: SimDuration,
    /// Ceiling for the doubled cooldown.
    pub cooldown_cap: SimDuration,
    /// Seed for the probe-time jitter: a fleet of breakers tripped by the
    /// same outage must not all probe in the same instant.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 4,
            cooldown: SimDuration::from_millis(400),
            cooldown_cap: SimDuration::from_millis(6_400),
            seed: 0x5ADA_B12E,
        }
    }
}

/// Where a [`CircuitBreaker`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are being counted.
    Closed,
    /// Traffic suppressed until the cooldown elapses.
    Open,
    /// Cooldown elapsed; exactly one probe is in flight.
    HalfOpen,
}

/// State-machine transition surfaced to the host so it can emit a typed
/// observability event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    /// Closed→Open (threshold hit) or HalfOpen→Open (probe failed).
    Opened {
        /// The open hold before the next probe, without its jitter.
        cooldown: SimDuration,
    },
    /// Open→HalfOpen: the send being gated right now is the probe.
    Probing,
    /// Open/HalfOpen→Closed: the agent answered.
    Closed,
}

/// Deterministic circuit breaker driven entirely by caller-passed virtual
/// time. The host reports `on_failure` when a phase times out against the
/// agent, `on_success` when any message arrives from it, and gates every
/// wire send through `allow_send`.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    /// Times the breaker has opened (jitter salt + diagnostics).
    trips: u64,
    /// Current open hold (doubles on failed probes, resets on close).
    cooldown_us: u64,
    /// When the next half-open probe may be sent.
    reopen_at: SimTime,
    /// Start of the current open episode (spans failed probes).
    open_since: Option<SimTime>,
    /// Accumulated open time across finished episodes.
    open_total_us: u64,
}

impl CircuitBreaker {
    /// A closed breaker under `config`.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            cooldown_us: config.cooldown.as_micros(),
            reopen_at: SimTime::ZERO,
            open_since: None,
            open_total_us: 0,
        }
    }

    /// The breaker's current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Current open hold (the value the next trip will wait, before jitter).
    pub fn cooldown(&self) -> SimDuration {
        SimDuration::from_micros(self.cooldown_us)
    }

    /// Times the breaker has opened.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Total time spent open (including a still-running episode up to `now`).
    pub fn open_time_us(&self, now: SimTime) -> u64 {
        let running =
            self.open_since.map(|s| now.as_micros().saturating_sub(s.as_micros())).unwrap_or(0);
        self.open_total_us + running
    }

    fn trip(&mut self, now: SimTime) -> BreakerTransition {
        if self.state == BreakerState::HalfOpen {
            // Probe failed: reopen with doubled cooldown, capped.
            self.cooldown_us =
                (self.cooldown_us.saturating_mul(2)).min(self.config.cooldown_cap.as_micros());
        } else {
            self.cooldown_us = self.config.cooldown.as_micros();
            self.open_since = Some(now);
        }
        self.trips += 1;
        let jitter = jitter_us(self.config.seed, self.trips, self.cooldown_us / 4 + 1);
        self.reopen_at = now + SimDuration::from_micros(self.cooldown_us + jitter);
        self.state = BreakerState::Open;
        self.consecutive_failures = 0;
        BreakerTransition::Opened { cooldown: SimDuration::from_micros(self.cooldown_us) }
    }

    /// The agent failed to answer a phase within its deadline.
    pub fn on_failure(&mut self, now: SimTime) -> Option<BreakerTransition> {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                (self.consecutive_failures >= self.config.failure_threshold).then(|| self.trip(now))
            }
            BreakerState::HalfOpen => Some(self.trip(now)),
            // Already open: the failure is old news.
            BreakerState::Open => None,
        }
    }

    /// Any message arrived from the agent: it is alive.
    pub fn on_success(&mut self, now: SimTime) -> Option<BreakerTransition> {
        self.consecutive_failures = 0;
        match self.state {
            BreakerState::Closed => None,
            BreakerState::Open | BreakerState::HalfOpen => {
                if let Some(since) = self.open_since.take() {
                    self.open_total_us += now.as_micros().saturating_sub(since.as_micros());
                }
                self.state = BreakerState::Closed;
                self.cooldown_us = self.config.cooldown.as_micros();
                Some(BreakerTransition::Closed)
            }
        }
    }

    /// Read-only admission query: the breaker is open and its hold has not
    /// elapsed, so work routed at the agent would only hang on suppressed
    /// sends. Half-open does *not* block — the in-flight probe decides, and
    /// refusing admission then could strand the breaker with no session
    /// left to report the probe's outcome.
    pub fn blocks(&self, now: SimTime) -> bool {
        self.state == BreakerState::Open && now < self.reopen_at
    }

    /// Gate a wire send. Returns whether the message may go out, plus a
    /// transition if the gate state changed (Open→HalfOpen probe).
    pub fn allow_send(&mut self, now: SimTime) -> (bool, Option<BreakerTransition>) {
        match self.state {
            BreakerState::Closed => (true, None),
            BreakerState::Open if now >= self.reopen_at => {
                self.state = BreakerState::HalfOpen;
                (true, Some(BreakerTransition::Probing))
            }
            // Inside the hold, or one probe is already in flight: hold
            // everything else.
            BreakerState::Open | BreakerState::HalfOpen => (false, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn trips_after_threshold_and_suppresses_sends() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        for i in 0..3 {
            assert_eq!(b.on_failure(t(i)), None);
        }
        let tr = b.on_failure(t(3)).expect("fourth consecutive failure trips");
        assert!(matches!(tr, BreakerTransition::Opened { .. }));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.blocks(t(4)), "open breaker blocks admission during its hold");
        assert!(!b.blocks(t(4 + 400 + 101)), "hold elapsed: admission may probe");
        assert!(!b.allow_send(t(4)).0, "open breaker refuses sends");
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        for _ in 0..3 {
            b.on_failure(t(0));
        }
        b.on_success(t(1));
        for i in 0..3 {
            assert_eq!(b.on_failure(t(2 + i)), None, "count restarted");
        }
    }

    #[test]
    fn probe_failure_doubles_cooldown_capped_and_probe_success_closes() {
        let cfg = BreakerConfig::default();
        let mut b = CircuitBreaker::new(cfg);
        for i in 0..4 {
            b.on_failure(t(i));
        }
        assert_eq!(b.cooldown(), cfg.cooldown);
        // Wait out the cooldown (plus its jitter margin): one probe allowed.
        let probe_at = t(4 + 400 + 101);
        let (ok, tr) = b.allow_send(probe_at);
        assert!(ok);
        assert_eq!(tr, Some(BreakerTransition::Probing));
        assert!(!b.allow_send(probe_at).0, "only one probe in flight");
        // Probe fails → reopen with doubled cooldown.
        assert!(matches!(b.on_failure(probe_at), Some(BreakerTransition::Opened { .. })));
        assert_eq!(b.cooldown(), SimDuration::from_millis(800));
        // Cooldown doubling is capped.
        for k in 0..10 {
            let late = t(100_000 + 100_000 * k);
            let (ok, _) = b.allow_send(late);
            assert!(ok, "cooldown {k} elapsed by {late:?}");
            b.on_failure(late);
        }
        assert_eq!(b.cooldown(), cfg.cooldown_cap);
        // A successful probe closes and resets the cooldown.
        let late = t(10_000_000);
        assert!(b.allow_send(late).0);
        assert_eq!(b.on_success(late), Some(BreakerTransition::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.cooldown(), cfg.cooldown);
    }

    #[test]
    fn open_time_accounting_spans_failed_probes() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        for i in 0..4 {
            b.on_failure(t(i));
        }
        // Opened at t=3ms; probe at 600ms fails; closes at 2000ms.
        let (ok, _) = b.allow_send(t(600));
        assert!(ok);
        b.on_failure(t(600));
        b.on_success(t(2_000));
        assert_eq!(b.open_time_us(t(5_000)), (2_000 - 3) * 1_000);
    }
}
