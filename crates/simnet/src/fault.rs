//! Deterministic fault injection: crash/restart schedules, partition
//! windows, targeted drops, and latency bursts.
//!
//! A [`FaultPlan`] is a list of [`Fault`]s installed into a
//! [`Simulator`](crate::Simulator) with
//! [`schedule_faults`](crate::Simulator::schedule_faults). Faults execute
//! at their scheduled virtual times interleaved with ordinary events, so a
//! run with a fault plan is still a pure function of `(seed, actors,
//! inputs, plan)`.
//!
//! Plans serialize to a line-oriented text form ([`FaultPlan::to_text`] /
//! [`FaultPlan::parse`]) so a failing chaos-sweep case can be dumped to a
//! regression file and replayed exactly.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::ActorId;
use sada_obs::text::{read_records, Cursor, Fields, ParseError};
use sada_obs::{SimDuration, SimTime};

/// A (from, to) wildcard pattern over message routes; `None` matches any
/// actor. This is the `predicate` of [`Fault::DropMatching`] — kept as
/// data, not a closure, so plans stay comparable and serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgPattern {
    /// Required sender, or `None` for any.
    pub from: Option<ActorId>,
    /// Required receiver, or `None` for any.
    pub to: Option<ActorId>,
}

impl MsgPattern {
    /// Matches every message.
    pub const ANY: MsgPattern = MsgPattern { from: None, to: None };

    /// True when the pattern matches a `from → to` route.
    pub(crate) fn matches(&self, from: ActorId, to: ActorId) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// A single scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Kill actor `id` at `at`: its in-flight messages and pending timers
    /// die with it, and messages routed to it while down are dropped.
    CrashActor {
        /// When the actor dies.
        at: SimTime,
        /// The actor that dies.
        id: ActorId,
    },
    /// Revive actor `id` at `at`; `Actor::on_restart` runs at that instant.
    /// A no-op if the actor is not down.
    RestartActor {
        /// When the actor comes back.
        at: SimTime,
        /// The actor that comes back.
        id: ActorId,
    },
    /// Sever the directed link `from → to` during `[start, end)`.
    PartitionWindow {
        /// Sending end of the severed link.
        from: ActorId,
        /// Receiving end of the severed link.
        to: ActorId,
        /// First instant the link is down.
        start: SimTime,
        /// First instant the link is up again.
        end: SimTime,
    },
    /// Drop the `nth` message (1-based) matching `predicate`, counted from
    /// the moment the plan is installed.
    DropMatching {
        /// Which matching message to drop, counting from 1.
        nth: u32,
        /// The messages that count.
        predicate: MsgPattern,
    },
    /// Add `extra_latency` to every message routed while the clock is in
    /// `[window.0, window.1)`.
    DelayBurst {
        /// The half-open interval of routing times the burst covers.
        window: (SimTime, SimTime),
        /// Latency added to each message routed inside the window.
        extra_latency: SimDuration,
    },
}

/// An ordered collection of faults to install into a simulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults, in insertion order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a crash of `id` at `at`.
    pub fn crash(mut self, id: ActorId, at: SimTime) -> Self {
        self.faults.push(Fault::CrashActor { at, id });
        self
    }

    /// Adds a restart of `id` at `at`.
    pub fn restart(mut self, id: ActorId, at: SimTime) -> Self {
        self.faults.push(Fault::RestartActor { at, id });
        self
    }

    /// Adds a directed partition window.
    pub fn partition_window(
        mut self,
        from: ActorId,
        to: ActorId,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        self.faults.push(Fault::PartitionWindow { from, to, start, end });
        self
    }

    /// Adds a targeted drop of the `nth` message matching `predicate`.
    pub fn drop_matching(mut self, nth: u32, predicate: MsgPattern) -> Self {
        self.faults.push(Fault::DropMatching { nth, predicate });
        self
    }

    /// Adds a latency burst over `window`.
    pub fn delay_burst(mut self, window: (SimTime, SimTime), extra_latency: SimDuration) -> Self {
        self.faults.push(Fault::DelayBurst { window, extra_latency });
        self
    }

    /// Serializes the plan to its line-oriented text form.
    pub fn to_text(&self) -> String {
        self.to_string()
    }

    /// Parses the text form produced by [`FaultPlan::to_text`]. Blank lines
    /// and `#` comments are ignored.
    pub fn parse(text: &str) -> Result<FaultPlan, ParseError> {
        Ok(FaultPlan { faults: read_records(text, parse_fault)? })
    }
}

fn fmt_actor(id: Option<ActorId>) -> String {
    match id {
        Some(a) => a.index().to_string(),
        None => "*".to_string(),
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fault in &self.faults {
            match *fault {
                Fault::CrashActor { at, id } => {
                    writeln!(f, "crash at={} id={}", at.as_micros(), id.index())?;
                }
                Fault::RestartActor { at, id } => {
                    writeln!(f, "restart at={} id={}", at.as_micros(), id.index())?;
                }
                Fault::PartitionWindow { from, to, start, end } => {
                    writeln!(
                        f,
                        "partition from={} to={} start={} end={}",
                        from.index(),
                        to.index(),
                        start.as_micros(),
                        end.as_micros()
                    )?;
                }
                Fault::DropMatching { nth, predicate } => {
                    writeln!(
                        f,
                        "drop nth={nth} from={} to={}",
                        fmt_actor(predicate.from),
                        fmt_actor(predicate.to)
                    )?;
                }
                Fault::DelayBurst { window, extra_latency } => {
                    writeln!(
                        f,
                        "delay start={} end={} extra={}",
                        window.0.as_micros(),
                        window.1.as_micros(),
                        extra_latency.as_micros()
                    )?;
                }
            }
        }
        Ok(())
    }
}

fn parse_fault(line: Cursor<'_>) -> Result<Fault, ParseError> {
    let f = Fields::words(line)?;
    let time = |key| f.int(key).map(SimTime::from_micros);
    let next_actor = |c: &mut Cursor<'_>| Ok(ActorId(c.next_int()?));
    let actor = |key| f.parse(key, next_actor);
    // A pattern side: `*` matches any actor.
    let side = |key| f.parse(key, |c| if c.eat(b'*') { Ok(None) } else { next_actor(c).map(Some) });
    Ok(match f.verb.as_str() {
        "crash" => Fault::CrashActor { at: time("at")?, id: actor("id")? },
        "restart" => Fault::RestartActor { at: time("at")?, id: actor("id")? },
        "partition" => Fault::PartitionWindow {
            from: actor("from")?,
            to: actor("to")?,
            start: time("start")?,
            end: time("end")?,
        },
        "drop" => Fault::DropMatching {
            nth: f.int("nth")?,
            predicate: MsgPattern { from: side("from")?, to: side("to")? },
        },
        "delay" => Fault::DelayBurst {
            window: (time("start")?, time("end")?),
            extra_latency: SimDuration::from_micros(f.int("extra")?),
        },
        _ => return Err(f.verb.unknown("fault verb")),
    })
}

/// Targets and bounds for the [`chaos`] generator.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Actors eligible for crash/restart pairs. Every generated crash is
    /// paired with a restart well inside `horizon`, so a protocol with
    /// bounded retry ladders can always resynchronize the victim. Roles are
    /// not distinguished: coordinators that persist their own recovery
    /// state belong here as much as workers — the chaos sweep crashes the
    /// adaptation manager (which restores from its write-ahead journal) as
    /// readily as its agents.
    pub crashable: Vec<ActorId>,
    /// Actors among which partition windows, targeted drops, and the
    /// endpoints of delay bursts are sampled.
    pub partitionable: Vec<ActorId>,
    /// The virtual-time span faults are scheduled within.
    pub horizon: SimDuration,
}

/// Samples a random fault plan, reproducibly: the same `(seed, intensity,
/// opts)` always yields the same plan.
///
/// `intensity` in `[0, 1]` scales both the per-actor crash probability and
/// the expected number of partition windows, targeted drops, and delay
/// bursts. At `0.0` the plan is empty.
pub fn chaos(seed: u64, intensity: f64, opts: &ChaosOpts) -> FaultPlan {
    assert!((0.0..=1.0).contains(&intensity), "intensity must be in [0,1], got {intensity}");
    let mut rng = StdRng::seed_from_u64(seed ^ intensity.to_bits().rotate_left(17));
    let mut plan = FaultPlan::new();
    let h = opts.horizon.as_micros().max(1000);
    let t = |frac_lo: f64, frac_hi: f64, rng: &mut StdRng| -> SimTime {
        SimTime::from_micros((rng.gen_range(frac_lo..frac_hi) * h as f64) as u64)
    };

    // Crash/restart pairs: each crash restarts after a bounded outage so
    // the victim is back before retry ladders are exhausted.
    for &id in &opts.crashable {
        if rng.gen_bool((0.15 + 0.55 * intensity).min(1.0)) {
            let crash_at = t(0.05, 0.55, &mut rng);
            let outage = SimDuration::from_micros((rng.gen_range(0.02..0.20) * h as f64) as u64);
            plan = plan.crash(id, crash_at).restart(id, crash_at + outage);
        }
    }

    // Directed partition windows between random pairs.
    if opts.partitionable.len() >= 2 {
        let n_part = (intensity * 3.0 * rng.gen::<f64>()).round() as usize;
        for _ in 0..n_part {
            let a = opts.partitionable[rng.gen_range(0..opts.partitionable.len())];
            let b = loop {
                let b = opts.partitionable[rng.gen_range(0..opts.partitionable.len())];
                if b != a {
                    break b;
                }
            };
            let start = t(0.0, 0.7, &mut rng);
            let len = SimDuration::from_micros((rng.gen_range(0.01..0.15) * h as f64) as u64);
            plan = plan.partition_window(a, b, start, start + len);
        }
    }

    // Targeted drops with wildcard patterns.
    let n_drop = (intensity * 4.0 * rng.gen::<f64>()).round() as usize;
    for _ in 0..n_drop {
        let pick = |rng: &mut StdRng| -> Option<ActorId> {
            if opts.partitionable.is_empty() || rng.gen_bool(0.4) {
                None
            } else {
                Some(opts.partitionable[rng.gen_range(0..opts.partitionable.len())])
            }
        };
        let predicate = MsgPattern { from: pick(&mut rng), to: pick(&mut rng) };
        plan = plan.drop_matching(rng.gen_range(1..12), predicate);
    }

    // Latency bursts.
    let n_delay = (intensity * 2.0 * rng.gen::<f64>()).round() as usize;
    for _ in 0..n_delay {
        let start = t(0.0, 0.8, &mut rng);
        let len = SimDuration::from_micros((rng.gen_range(0.02..0.2) * h as f64) as u64);
        let extra = SimDuration::from_micros(rng.gen_range(500..50_000));
        plan = plan.delay_burst((start, start + len), extra);
    }

    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::new()
            .crash(ActorId::from_index(2), SimTime::from_millis(120))
            .restart(ActorId::from_index(2), SimTime::from_millis(250))
            .partition_window(
                ActorId::from_index(0),
                ActorId::from_index(1),
                SimTime::from_millis(10),
                SimTime::from_millis(90),
            )
            .drop_matching(3, MsgPattern { from: None, to: Some(ActorId::from_index(1)) })
            .delay_burst(
                (SimTime::from_millis(5), SimTime::from_millis(20)),
                SimDuration::from_micros(1500),
            )
    }

    #[test]
    fn text_round_trip_is_identity() {
        let plan = sample_plan();
        let text = plan.to_text();
        let parsed = FaultPlan::parse(&text).unwrap();
        assert_eq!(plan, parsed, "text:\n{text}");
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let parsed = FaultPlan::parse("# a comment\n\ncrash at=5 id=0\n").unwrap();
        assert_eq!(parsed.faults.len(), 1);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(FaultPlan::parse("explode at=5 id=0").is_err());
        assert!(FaultPlan::parse("crash at=x id=0").is_err());
        assert!(FaultPlan::parse("crash id=0").is_err());
        assert!(FaultPlan::parse("drop nth=1 from=q to=*").is_err());
    }

    #[test]
    fn pattern_wildcards_match() {
        let a = ActorId::from_index(1);
        let b = ActorId::from_index(2);
        assert!(MsgPattern::ANY.matches(a, b));
        assert!(MsgPattern { from: Some(a), to: None }.matches(a, b));
        assert!(!MsgPattern { from: Some(b), to: None }.matches(a, b));
        assert!(MsgPattern { from: Some(a), to: Some(b) }.matches(a, b));
        assert!(!MsgPattern { from: Some(a), to: Some(a) }.matches(a, b));
    }

    #[test]
    fn chaos_is_reproducible_and_scales_with_intensity() {
        let opts = ChaosOpts {
            crashable: vec![ActorId::from_index(0), ActorId::from_index(1), ActorId::from_index(2)],
            partitionable: (0..4).map(ActorId::from_index).collect(),
            horizon: SimDuration::from_millis(4_000),
        };
        assert_eq!(chaos(7, 0.6, &opts), chaos(7, 0.6, &opts));
        assert_ne!(chaos(7, 0.6, &opts), chaos(8, 0.6, &opts));
        // Zero intensity can only emit the rare baseline crash pair; over
        // many seeds, high intensity must produce strictly more faults.
        assert!(chaos(1, 0.0, &opts)
            .faults
            .iter()
            .all(|f| matches!(f, Fault::CrashActor { .. } | Fault::RestartActor { .. })));
        let total = |i: f64| -> usize { (0..40).map(|s| chaos(s, i, &opts).faults.len()).sum() };
        assert!(total(0.9) > total(0.1));
    }

    #[test]
    fn chaos_crashes_always_pair_with_restarts() {
        let opts = ChaosOpts {
            crashable: (0..3).map(ActorId::from_index).collect(),
            partitionable: (0..4).map(ActorId::from_index).collect(),
            horizon: SimDuration::from_millis(2_000),
        };
        for seed in 0..60 {
            let plan = chaos(seed, 0.8, &opts);
            for f in &plan.faults {
                if let Fault::CrashActor { at, id } = *f {
                    let restart = plan.faults.iter().find_map(|g| match *g {
                        Fault::RestartActor { at: rat, id: rid } if rid == id && rat > at => {
                            Some(rat)
                        }
                        _ => None,
                    });
                    assert!(restart.is_some(), "unpaired crash of {id} in seed {seed}");
                }
            }
        }
    }
}
