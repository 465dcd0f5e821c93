//! Sustained-overload workload: Poisson arrivals at a multiple of measured
//! capacity, over a fleet with a degraded (slow) group and a flapping
//! agent.
//!
//! The experiment the overload bench runs is the classic metastable-failure
//! setup. First [`measure_capacity`] calibrates how many sessions per
//! second a *healthy* fleet commits. Then [`run_overload`] offers arrivals
//! at `load ×` that rate for a fixed window while one group runs orders of
//! magnitude slow and one agent crash-loops. Two configurations face the
//! same workload:
//!
//! * **baseline** — the historical fixed retry ladder, admit-everything
//!   (no bulkhead, no breakers). Sessions spanning the slow group camp on
//!   their scope locks for whole ladder runs, convoying every healthy
//!   scope they share a session with, and the waiting population grows
//!   without bound.
//! * **protected** — RTT-adaptive timeouts, per-agent circuit breakers,
//!   and a bounded bulkhead. Excess load is shed deterministically, scopes
//!   behind an open breaker fail fast at admission, and healthy groups
//!   keep committing at their calibrated rate.
//!
//! Everything is a pure function of the seed: identical seeds reproduce
//! identical event streams (asserted via [`OverloadReport::fingerprint`]).

use sada_proto::{ProtoTiming, RetryPolicy};
use sada_resilience::{jitter_us, BreakerConfig, BulkheadConfig};
use sada_simnet::{FaultPlan, SimDuration, SimTime};

use crate::control::{Admission, FleetResilience, SessionSpec};
use crate::driver::{disjoint_wave, run_fleet, FleetReport, FleetScenario};
use crate::shard::fingerprint_events;

/// Tuning for one sustained-overload run.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Component groups in the fleet (two agents each).
    pub groups: usize,
    /// Arrival-rate multiplier over the measured healthy capacity.
    pub load: u32,
    /// Offered-load window: arrivals occur in `[0, window)`.
    pub window: SimDuration,
    /// Seed for arrivals, scopes, priorities, and the simulation itself.
    pub seed: u64,
    /// Group whose two agents run `factor×` slow, if any.
    pub slow_group: Option<(usize, u32)>,
    /// Agent to crash-loop (down for `1/4` of every period), if any.
    pub flaky_agent: Option<usize>,
    /// Crash-loop period for the flaky agent.
    pub flap_period: SimDuration,
    /// Overload protection for the control plane (breakers + bulkhead).
    pub resilience: FleetResilience,
    /// RTT-adaptive retransmission deadlines instead of the fixed ladder.
    pub adaptive: bool,
    /// Virtual-time budget: window plus drain time for admitted work.
    pub time_budget: SimDuration,
}

impl OverloadConfig {
    /// The canonical degraded fleet at `load×` capacity: the last group
    /// 400× slow (its reset alone outlasts the whole fixed retry ladder),
    /// group 0's first agent crash-looping, arrivals over a 1 s window.
    /// The two failure modes are deliberately on different groups: the slow
    /// group exercises adaptive timeouts and shedding, the flapping agent
    /// exercises breaker trips and fail-fast rejection.
    pub fn degraded(groups: usize, load: u32, seed: u64) -> Self {
        OverloadConfig {
            groups,
            load,
            window: SimDuration::from_secs(1),
            seed,
            slow_group: Some((groups - 1, 400)),
            flaky_agent: Some(0),
            flap_period: SimDuration::from_millis(1_200),
            resilience: FleetResilience::default(),
            adaptive: false,
            time_budget: SimDuration::from_secs(30),
        }
    }

    /// The protected variant: adaptive timeouts, breakers, and a bulkhead
    /// sized to the fleet (in-flight = groups, queue = 2×groups). The
    /// breaker threshold equals the protocol's retransmission budget: one
    /// full ladder burned against a silent agent is trip evidence (a
    /// session never produces more — the fourth timeout aborts it).
    pub fn protected(groups: usize, load: u32, seed: u64) -> Self {
        OverloadConfig {
            resilience: FleetResilience {
                breaker: Some(BreakerConfig { failure_threshold: 3, ..BreakerConfig::default() }),
                scope_breaker: None,
                bulkhead: BulkheadConfig { max_in_flight: groups, max_queued: 2 * groups },
            },
            adaptive: true,
            ..OverloadConfig::degraded(groups, load, seed)
        }
    }
}

/// What one overload run produced.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Healthy calibration: committed group adaptations per second.
    pub capacity_per_sec: f64,
    /// Arrivals offered during the window.
    pub offered: usize,
    /// Sessions that committed their adaptation.
    pub succeeded: usize,
    /// Group adaptations committed (a span-2 session counts twice: the
    /// unit of useful work is one component group flipped).
    pub committed_flips: usize,
    /// Sessions shed by the bulkhead.
    pub shed: u64,
    /// Sessions rejected at admission behind an open breaker.
    pub rejected: u64,
    /// Breaker trips across the run.
    pub breaker_trips: u64,
    /// Wire sends suppressed by open breakers.
    pub suppressed_sends: u64,
    /// Committed group adaptations per second of offered-load window
    /// (completions during drain count; nothing is credited for shed work).
    pub goodput_per_sec: f64,
    /// Median admission wait, μs (censored at termination for sessions
    /// that were shed, rejected, or never admitted).
    pub p50_admission_us: u64,
    /// 99th-percentile admission wait, μs (same censoring).
    pub p99_admission_us: u64,
    /// First submission → last completion, μs.
    pub makespan_us: u64,
    /// FNV-1a hash of the full encoded event stream: equal seeds must
    /// produce equal fingerprints.
    pub fingerprint: u64,
    /// The typed admission verdict per session, ascending by id — the
    /// journaled [`Admission`] outcome rather than the warning strings.
    pub admissions: Vec<(u64, Admission)>,
}

impl OverloadReport {
    /// The `retry_after_us` hints handed to shed sessions, in session order.
    pub fn shed_retry_hints(&self) -> Vec<u64> {
        self.admissions
            .iter()
            .filter_map(|&(_, a)| match a {
                Admission::Shed { retry_after_us } => Some(retry_after_us),
                _ => None,
            })
            .collect()
    }
}

/// Commits-per-second of a healthy fleet: every group adapts once, all in
/// parallel, no faults, no degradation. This is the yardstick overload
/// goodput is judged against.
pub fn measure_capacity(groups: usize, seed: u64) -> f64 {
    let mut scenario = FleetScenario::new(groups, disjoint_wave(groups, 1));
    scenario.seed = seed;
    let report = run_fleet(&scenario);
    per_sec(report.succeeded(), report.makespan_us)
}

/// Runs the sustained-overload workload described by `cfg` and reports.
/// `capacity_per_sec` comes from [`measure_capacity`] so the baseline and
/// the protected run are judged against the same yardstick.
pub fn run_overload(cfg: &OverloadConfig, capacity_per_sec: f64) -> OverloadReport {
    let sessions = poisson_sessions(cfg, capacity_per_sec);
    let offered = sessions.len();
    let flips_of: std::collections::HashMap<u64, usize> =
        sessions.iter().map(|s| (s.id, s.flips.len())).collect();

    let mut scenario = FleetScenario::new(cfg.groups, sessions);
    scenario.seed = cfg.seed;
    scenario.time_budget = cfg.time_budget;
    scenario.resilience = cfg.resilience;
    if cfg.adaptive {
        scenario.timing = ProtoTiming { retry: RetryPolicy::adaptive(), ..ProtoTiming::default() };
    }
    if let Some((group, factor)) = cfg.slow_group {
        scenario.slow_agents = vec![(2 * group, factor), (2 * group + 1, factor)];
    }
    if let Some(agent) = cfg.flaky_agent {
        scenario.faults = flap_plan(cfg, agent);
    }

    let report = run_fleet(&scenario);
    distill(cfg, capacity_per_sec, offered, &flips_of, report)
}

/// Builds the crash-loop fault plan: starting mid-period, the agent goes
/// down for half of every period — long enough for an in-flight session to
/// burn through its whole retransmission ladder against the silent process,
/// which is what lets its breaker accumulate the failures to trip.
fn flap_plan(cfg: &OverloadConfig, agent: usize) -> FaultPlan {
    let actor = sada_simnet::ActorId::from_index(agent);
    let period = cfg.flap_period.as_micros().max(4);
    let down = period / 2;
    let mut plan = FaultPlan::new();
    let mut at = period / 2;
    while at < cfg.window.as_micros() + period {
        plan = plan
            .crash(actor, SimTime::from_micros(at))
            .restart(actor, SimTime::from_micros(at + down));
        at += period;
    }
    plan
}

/// Draws the Poisson arrival process and the per-session scopes. Each
/// session flips one or two groups (span-2 sessions couple scopes, which is
/// what lets a slow group convoy healthy ones through shared lock holds),
/// alternating direction per group so every adaptation does real work.
fn poisson_sessions(cfg: &OverloadConfig, capacity_per_sec: f64) -> Vec<SessionSpec> {
    let lambda_per_us = capacity_per_sec * f64::from(cfg.load) / 1_000_000.0;
    let mut draw = 0u64;
    let mut uniform = || {
        draw += 1;
        // 53 uniform bits → (0, 1], so ln() below is always finite.
        (jitter_us(cfg.seed, draw, 1 << 53) + 1) as f64 / (1u64 << 53) as f64
    };
    let mut flips_seen = vec![0u64; cfg.groups];
    let mut sessions = Vec::new();
    let mut at_us = 0.0f64;
    loop {
        at_us += -uniform().ln() / lambda_per_us;
        if at_us >= cfg.window.as_micros() as f64 {
            break;
        }
        let first = (uniform() * cfg.groups as f64) as usize % cfg.groups;
        let mut flips = vec![(first, flips_seen[first].is_multiple_of(2))];
        flips_seen[first] += 1;
        if uniform() < 0.5 {
            let second =
                (first + 1 + (uniform() * (cfg.groups - 1) as f64) as usize % (cfg.groups - 1))
                    % cfg.groups;
            flips.push((second, flips_seen[second].is_multiple_of(2)));
            flips_seen[second] += 1;
        }
        sessions.push(SessionSpec {
            id: sessions.len() as u64 + 1,
            flips,
            priority: (uniform() * 4.0) as u8 % 4,
            submit_at: SimDuration::from_micros(at_us as u64),
            cancel_at: None,
        });
    }
    sessions
}

fn distill(
    cfg: &OverloadConfig,
    capacity_per_sec: f64,
    offered: usize,
    flips_of: &std::collections::HashMap<u64, usize>,
    report: FleetReport,
) -> OverloadReport {
    let committed_flips: usize = report
        .results
        .iter()
        .filter(|r| r.success)
        .map(|r| flips_of.get(&r.id).copied().unwrap_or(1))
        .sum();
    let budget_us = cfg.time_budget.as_micros();
    let mut waits: Vec<u64> = report
        .results
        .iter()
        .filter_map(|r| {
            let submitted = r.submitted_at?;
            // Admitted sessions report their true wait; terminated-unadmitted
            // ones are censored at termination, never-resolved at the budget.
            let until = r.admitted_at.or(r.completed_at).unwrap_or(budget_us);
            Some(until.saturating_sub(submitted))
        })
        .collect();
    waits.sort_unstable();
    let pct = |p: f64| -> u64 {
        if waits.is_empty() {
            return 0;
        }
        waits[((waits.len() - 1) as f64 * p) as usize]
    };
    OverloadReport {
        capacity_per_sec,
        offered,
        succeeded: report.succeeded(),
        committed_flips,
        shed: report.shed,
        rejected: report.rejected,
        breaker_trips: report.breaker_trips,
        suppressed_sends: report.suppressed_sends,
        goodput_per_sec: per_sec(committed_flips, cfg.window.as_micros()),
        p50_admission_us: pct(0.50),
        p99_admission_us: pct(0.99),
        makespan_us: report.makespan_us,
        fingerprint: fingerprint_events(&report.events),
        admissions: report.results.iter().filter_map(|r| r.admission.map(|a| (r.id, a))).collect(),
    }
}

fn per_sec(count: usize, span_us: u64) -> f64 {
    if span_us == 0 {
        return 0.0;
    }
    count as f64 * 1_000_000.0 / span_us as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_calibration_is_positive_and_deterministic() {
        let a = measure_capacity(4, 7);
        let b = measure_capacity(4, 7);
        assert!(a > 0.0);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn poisson_arrivals_fill_the_window_in_order() {
        let cfg = OverloadConfig::degraded(6, 4, 42);
        let sessions = poisson_sessions(&cfg, 100.0);
        assert!(!sessions.is_empty());
        let times: Vec<u64> = sessions.iter().map(|s| s.submit_at.as_micros()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
        assert!(*times.last().unwrap() < cfg.window.as_micros());
        // λ = 400/s over 1 s: the draw should land in the same ballpark.
        assert!(sessions.len() > 200 && sessions.len() < 700, "got {}", sessions.len());
        for s in &sessions {
            assert!(!s.flips.is_empty() && s.flips.len() <= 2);
            // Span-2 scopes never name the same group twice.
            if let [(a, _), (b, _)] = s.flips[..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn typed_admissions_are_journaled_and_consistent() {
        let capacity = measure_capacity(4, 11);
        let r = run_overload(&OverloadConfig::protected(4, 6, 11), capacity);
        let shed =
            r.admissions.iter().filter(|(_, a)| matches!(a, Admission::Shed { .. })).count() as u64;
        let rejected =
            r.admissions.iter().filter(|&&(_, a)| a == Admission::Rejected).count() as u64;
        assert_eq!(shed, r.shed, "typed verdicts agree with the shed counter");
        assert_eq!(rejected, r.rejected, "typed verdicts agree with the rejection counter");
        assert!(shed > 0, "6× load must overwhelm the bulkhead");
        let hints = r.shed_retry_hints();
        assert_eq!(hints.len() as u64, shed);
        assert!(
            hints.iter().all(|&h| h > 0),
            "every shed session gets a positive retry-after hint"
        );
        // The typed verdict and the legacy warning string must agree.
        let ids: std::collections::HashSet<u64> = r
            .admissions
            .iter()
            .filter(|(_, a)| matches!(a, Admission::Shed { .. }))
            .map(|&(id, _)| id)
            .collect();
        assert!(!ids.is_empty());
    }

    #[test]
    fn identical_seeds_reproduce_identical_event_streams() {
        let cfg = OverloadConfig::protected(4, 2, 11);
        let capacity = measure_capacity(4, 11);
        let a = run_overload(&cfg, capacity);
        let b = run_overload(&cfg, capacity);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.succeeded, b.succeeded);
        let c = run_overload(&OverloadConfig::protected(4, 2, 12), capacity);
        assert_ne!(a.fingerprint, c.fingerprint, "different seed, different run");
    }
}
