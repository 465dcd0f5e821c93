//! The referee's fixed vocabulary: workloads, end-to-end metrics with
//! their bounds, per-layer metrics — and `BENCHMARK.json` rendered from it.

use crate::json::Json;

/// Seconds one run measures for (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// Driver threads: the sharded executor's worker count on every sharded
/// workload. The host this was sized on has two cores.
pub const THREADS: usize = 2;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "storm_flat",
        why: "100k groups through flat run_fleet: world build, agent arena, wheel and bus do the work; the planner sees one cache miss and no fabric exists",
    },
    WorkloadDef {
        name: "storm_sharded",
        why: "the same strided traffic through run_fleet_sharded on 8 regions: endpoint builds, promise traffic and report merge dominate; a flat gain that costs sharded shows here",
    },
    WorkloadDef {
        name: "scenario_mix",
        why: "generated serverless and IaaS universes with low plan-cache hit rates put planner, cache normalisation and lock queueing on the critical path; world build and wheel do little",
    },
    WorkloadDef {
        name: "plan_frontier",
        why: "no simulator: UCS and A* over grouped-flip universes plus per-cluster and eager-SAG plans; a planner change must move this and leave the storms alone",
    },
    WorkloadDef {
        name: "chaos_recover",
        why: "fabric faults plus region and global crashes, then JSONL decode and journal parse: the retransmission ladder, restore-from-journal and the read side of every codec",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The host-time bounds are as wide as the contract allows because the
/// host is that noisy: on the two-core VM this was sized on, a fixed
/// pure-CPU loop reads an interquartile range of 5% and a range of 25%
/// within 30 repetitions, and ten runs of one workload at ten seeds spread
/// (IQR over median) between 2% and 16% depending on the quarter of an
/// hour. Gains are judged by paired runs (see the README), not by these.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "events_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_heap_bytes", unit: "bytes", better: Better::Lower, bound: 0.05 },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats bit for bit at a fixed seed (a count or a simulated time),
    /// so two runs must agree on it exactly.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: true }
}

/// Simulated time is given its own unit so that it never reads as a host
/// time: it is a pure function of the seed.
const SIM_US: &str = "sim_us";

pub const PER_LAYER: [Layer; 62] = [
    timed("scenario.generate_s", "s"),
    timed("scenario.validate_s", "s"),
    timed("scenario.codec_roundtrip_s", "s"),
    timed("fleet.world.build_s", "s"),
    timed("fleet.world.retained_bytes", "bytes"),
    timed("fleet.lock.acquire_release_ns", "ns"),
    exact("fleet.lock.queued_share", "share"),
    Layer { name: "fleet.cache.hits", unit: "count", better: Better::Higher, exact: true },
    exact("fleet.cache.misses", "count"),
    Layer { name: "fleet.cache.hit_rate", unit: "share", better: Better::Higher, exact: true },
    timed("fleet.cache.key_ns", "ns"),
    timed("fleet.planner.plan_s", "s"),
    exact("plan.lazy.expanded", "count"),
    exact("plan.lazy.pred_evals", "count"),
    exact("plan.lazy.probed", "count"),
    exact("plan.lazy.safety_checks", "count"),
    timed("plan.lazy.ucs_s", "s"),
    timed("plan.lazy.astar_s", "s"),
    timed("plan.sag.build_s", "s"),
    timed("plan.yen.k4_s", "s"),
    timed("plan.collab.index_s", "s"),
    timed("expr.kernel.eval_ns", "ns"),
    timed("expr.parse_s", "s"),
    exact("proto.journal.records", "count"),
    timed("proto.journal.encode_s", "s"),
    timed("proto.journal.parse_s", "s"),
    exact("proto.manager.restores", "count"),
    timed("proto.core.run_s", "s"),
    timed("simnet.wheel.push_pop_ns", "ns"),
    exact("simnet.sim.delivered", "count"),
    exact("simnet.sim.dropped", "count"),
    timed("simnet.sim.deliver_ns", "ns"),
    exact("obs.events", "count"),
    exact("obs.ring.evicted", "count"),
    timed("obs.bus.emit_ns", "ns"),
    timed("obs.codec.encode_ns", "ns"),
    timed("obs.codec.decode_ns", "ns"),
    timed("fleet.shard.over_flat", "ratio"),
    Layer {
        name: "fleet.shard.thread_speedup",
        unit: "ratio",
        better: Better::Higher,
        exact: false,
    },
    timed("fleet.shard.fingerprint_s", "s"),
    exact("fleet.shard.fabric_messages", "count"),
    // Promise updates count null messages, whose number depends on how the
    // worker threads interleave: recorded, never compared.
    timed("fleet.shard.promise_updates", "count"),
    exact("fleet.shard.retransmits", "count"),
    exact("fleet.shard.dropped", "count"),
    exact("fleet.shard.duplicated", "count"),
    exact("fleet.shard.delayed", "count"),
    exact("fleet.shard.abandoned", "count"),
    exact("fleet.shard.lease_expirations", "count"),
    exact("fleet.shard.residual_holds", "count"),
    exact("fleet.shard.makespan_overhead", "ratio"),
    timed("fleet.shard.fabric_codec_ns", "ns"),
    timed("alloc.count", "count"),
    timed("alloc.bytes", "bytes"),
    timed("layers_sum_s", "s"),
    timed("unattributed_s", "s"),
    Layer { name: "attributed_share", unit: "share", better: Better::Higher, exact: false },
    timed("trace.overhead_share", "share"),
    exact("sim.makespan_us", SIM_US),
    exact("sim.latency_p50_us", SIM_US),
    exact("sim.latency_p99_us", SIM_US),
    exact("failed_share", "share"),
    exact("ops", "count"),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// `BENCHMARK.json`, generated: `run.sh describe > BENCHMARK.json`.
pub fn describe() -> Json {
    let num = Json::Num;
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use std::collections::HashSet;

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound out of range", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// The committed `BENCHMARK.json` is this module, rendered: re-parse
    /// the file and compare it to the tables above.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let parsed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            describe(),
            "regenerate with: benchmark/run.sh describe > BENCHMARK.json"
        );
        assert_eq!(crate::json::parse(&describe().pretty()).unwrap(), describe());
        let keys: Vec<&str> = parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
    }
}
