//! `chaos_recover`: the sharded plane under a lossy fabric and two crashes,
//! then the read side of every codec.
//!
//! 8 regions take six waves of local sessions over 512 groups plus eight
//! straddlers across every region boundary, while the fabric drops, duplicates
//! and delays a fifth of its messages, region 1's control plane is down
//! from 9 ms to 600 ms and the global tier from 140 ms to 400 ms. After
//! the run the iteration encodes every event to JSONL, decodes it back,
//! and parses every journal. It uses `fleet.shard`, `proto.journal` and
//! `obs.codec` the other way round from the storms: retransmission
//! ladder, restore-from-journal, and decoding beside encoding.

use std::time::Instant;

use sada_core::{casestudy::case_study, run_adaptation, RunConfig};
use sada_fleet::{
    fingerprint_events, run_fleet_sharded, FabricFaultPlan, FleetScenario, SessionSpec,
    ShardReport, ShardScenario,
};
use sada_obs::{decode_lines, Event, SimDuration, SimTime};
use sada_proto::{
    encode_global_journal, encode_session_journal, parse_global_journal, parse_session_journal,
    GlobalRecord, SessionRecord,
};

use super::{
    check_all_commit, check_concluded, check_same_run, digest_shard, shard_facts, shard_ratios,
    shard_view, splitmix,
};
use crate::harness::{ensure, Facts, Named, Twins, Workload};
use crate::layers::{encode_jsonl, fleet_metrics, replay_fleet, Counts};
use crate::metrics::THREADS;
use crate::span::{self_time_of, Tracer};
use crate::stats::Fnv;

const REGIONS: usize = 8;
const WAVES: usize = 6;
const STRADDLERS_PER_BOUNDARY: usize = 8;
/// 512 groups take local waves; the 8 groups on either side of each of
/// the 7 region boundaries belong to the straddlers alone.
const GROUPS: usize = 512 + (REGIONS - 1) * 2 * STRADDLERS_PER_BOUNDARY;
/// Repetitions of the single-session baseline replay.
const CORE_REPS: u32 = 32;

/// Straddler `j` of the boundary at group `b` flips groups `b-1-j` and
/// `b+j`, one in each region, so its lock handshake crosses the fabric.
/// No other session writes those groups: faults and crashes may reorder
/// sessions, and the final configuration must not depend on that order.
fn straddler_groups(boundary: usize, j: usize) -> [usize; 2] {
    [boundary - 1 - j, boundary + j]
}

/// `WAVES` local sessions per local group, alternating direction, then the
/// straddlers.
fn straddler_storm(seed: u64) -> ShardScenario {
    let boundaries: Vec<usize> = (1..REGIONS).map(|r| r * GROUPS / REGIONS).collect();
    let mut reserved = vec![false; GROUPS];
    for &b in &boundaries {
        for j in 0..STRADDLERS_PER_BOUNDARY {
            for g in straddler_groups(b, j) {
                reserved[g] = true;
            }
        }
    }
    let local: Vec<usize> = (0..GROUPS).filter(|&g| !reserved[g]).collect();
    let mut sessions =
        Vec::with_capacity(local.len() * WAVES + boundaries.len() * STRADDLERS_PER_BOUNDARY);
    for wave in 0..WAVES {
        for (ix, &g) in local.iter().enumerate() {
            sessions.push(SessionSpec {
                id: (wave * local.len() + ix) as u64 + 1,
                flips: vec![(g, wave % 2 == 0)],
                priority: (g % 4) as u8,
                submit_at: SimDuration::from_micros(20_000 * wave as u64 + 37 * ix as u64),
                cancel_at: None,
            });
        }
    }
    for (r, &b) in boundaries.iter().enumerate() {
        for j in 0..STRADDLERS_PER_BOUNDARY {
            sessions.push(SessionSpec {
                id: 100_000 + (r * STRADDLERS_PER_BOUNDARY + j) as u64,
                flips: straddler_groups(b, j).map(|g| (g, true)).to_vec(),
                priority: 0,
                submit_at: SimDuration::from_micros(130_000 + 500 * r as u64 + 4_000 * j as u64),
                cancel_at: None,
            });
        }
    }
    let mut fleet = FleetScenario::new(GROUPS, sessions);
    fleet.seed = seed;
    fleet.time_budget = SimDuration::from_millis(40_000);
    ShardScenario::new(fleet, REGIONS)
}

pub struct Input {
    /// Lossy fabric, region crash, global-tier crash.
    faulted: ShardScenario,
    /// The same sessions with nothing going wrong.
    clean: ShardScenario,
}

pub struct Output {
    report: ShardReport,
    jsonl: String,
    decoded: Vec<Event>,
    journals: Vec<Vec<SessionRecord>>,
    global_journal: Vec<GlobalRecord>,
}

const IN_SUM: &[&str] = &[
    "fleet.world.build",
    "fleet.lock",
    "fleet.planner.plan",
    "simnet.wheel",
    "simnet.sim.deliver",
    "obs.bus.emit",
    "obs.codec.encode",
    "obs.codec.decode",
    "proto.journal.encode",
    "proto.journal.parse",
    "fleet.shard.fingerprint",
];

pub struct ChaosRecover;

impl Workload for ChaosRecover {
    const NAME: &'static str = "chaos_recover";
    type Input = Input;
    type Output = Output;

    fn generate(seed: u64) -> Input {
        let clean = straddler_storm(seed);
        let mut faulted = clean.clone();
        let mut rng = seed;
        faulted.fabric_faults = FabricFaultPlan {
            seed: splitmix(&mut rng),
            drop_per_mille: 200,
            dup_per_mille: 200,
            delay_per_mille: 200,
            null_drop_per_mille: 100,
            ..FabricFaultPlan::default()
        };
        faulted.crash_region = Some((1, SimTime::from_millis(9), SimTime::from_millis(600)));
        faulted.crash_global = Some((SimTime::from_millis(140), SimTime::from_millis(400)));
        Input { faulted, clean }
    }

    fn digest(input: &Input) -> u64 {
        let mut h = Fnv::new();
        digest_shard(&mut h, &input.faulted);
        h.0
    }

    fn run(input: &Input) -> Output {
        let report = run_fleet_sharded(&input.faulted, THREADS);
        let jsonl = encode_jsonl(&report.events);
        let decoded = decode_lines(&jsonl).expect("the run's own JSONL decodes");
        let journals = report
            .journals
            .iter()
            .map(|(_, text)| parse_session_journal(text).expect("the run's own journal parses"))
            .collect();
        let global_journal =
            parse_global_journal(&report.global_journal).expect("the global journal parses");
        Output { report, jsonl, decoded, journals, global_journal }
    }

    fn facts(_: &Input, out: &Output) -> Facts {
        shard_facts(&[&out.report])
    }

    fn check(_: &Input, out: &Output) -> Result<(), String> {
        let r = &out.report;
        check_concluded(r, Self::NAME)?;
        ensure(r.retransmits > 0, || "the fault plan never exercised the ladder".to_string())?;
        ensure(r.restores >= 2, || format!("{} restores for two crashes", r.restores))?;
        ensure(out.decoded == r.events, || "decoded JSONL differs from the events".to_string())?;
        ensure(out.jsonl.lines().count() == r.events.len(), || "one line per event".to_string())?;
        ensure(fingerprint_events(&out.decoded) == r.fingerprint, || {
            "fingerprint of the decoded stream differs from the report's".to_string()
        })?;
        for ((shard, text), records) in r.journals.iter().zip(&out.journals) {
            ensure(encode_session_journal(records) == *text, || {
                format!("shard {shard}: journal text does not round-trip")
            })?;
        }
        ensure(!r.global_journal.is_empty(), || "straddlers leave a global journal".to_string())?;
        ensure(encode_global_journal(&out.global_journal) == r.global_journal, || {
            "global journal text does not round-trip".to_string()
        })
    }

    fn twins(input: &Input, out: &Output) -> Result<Twins, String> {
        let clean = run_fleet_sharded(&input.clean, THREADS);
        check_concluded(&clean, "clean twin")?;
        check_all_commit(&clean.results, "clean twin")?;
        ensure(clean.retransmits == 0 && clean.restores == 0, || {
            "the clean twin saw faults".to_string()
        })?;
        // Faults may cost time, never outcomes.
        let verdicts = |r: &ShardReport| -> Vec<(u64, bool, bool, bool, bool)> {
            r.results.iter().map(|s| (s.id, s.success, s.gave_up, s.cancelled, s.shed)).collect()
        };
        ensure(verdicts(&out.report) == verdicts(&clean), || {
            "verdicts differ from the clean twin".to_string()
        })?;
        ensure(out.report.final_config == clean.final_config, || {
            "final configuration differs from the clean twin".to_string()
        })?;
        let t = Instant::now();
        let one = run_fleet_sharded(&input.faulted, 1);
        let one_thread_wall_s = t.elapsed().as_secs_f64();
        check_same_run(&out.report, &one, "1 vs 2 threads")?;
        Ok(Twins {
            flat_wall_s: None,
            one_thread_wall_s: Some(one_thread_wall_s),
            clean_makespan_us: Some(clean.makespan_us),
        })
    }

    fn replay(
        input: &Input,
        out: &Output,
        twins: &Twins,
        _: f64,
        t: &mut Tracer,
    ) -> (Named, &'static [&'static str]) {
        let mut counts = Counts::default();
        replay_fleet(t, &shard_view(&input.faulted, &out.report), &mut counts);

        // proto.core: the paper's single-session baseline, the case-study
        // MAP realised by one manager and three agents.
        let cs = case_study();
        t.span("proto.core.run", |_| {
            for seed in 0..u64::from(CORE_REPS) {
                let cfg = RunConfig { seed, ..RunConfig::default() };
                let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
                assert!(report.outcome.success, "the case-study adaptation commits");
            }
        });

        let spans = t.spans();
        // The iteration times the sharded run alone for the thread ratio;
        // the codec work after it is single-threaded either way.
        let run_s = out.report.wall.as_secs_f64();
        let mut named = fleet_metrics(spans, &counts);
        named.extend(shard_ratios(&[&out.report], twins, run_s));
        named.extend([
            ("proto.core.run_s", self_time_of(spans, "proto.core.run") / f64::from(CORE_REPS)),
            (
                "fleet.shard.makespan_overhead",
                twins
                    .clean_makespan_us
                    .map_or(0.0, |clean| out.report.makespan_us as f64 / (clean as f64).max(1.0)),
            ),
        ]);
        (named, IN_SUM)
    }
}
