//! # sada-scenario — seeded scenario generation for the adaptation fleet
//!
//! The fleet crates were grown against one world: the paper's video
//! multicast, cloned per group. That is a fine correctness anchor and a
//! terrible generality argument — every invariant is `one_of(Old, New)`,
//! every plan is one step, every cluster is shaped the same. This crate
//! removes the monoculture: it **generates** component universes from a
//! seed and feeds them through the unchanged safety machinery.
//!
//! * `SplitMix64` — the deterministic stream every draw comes from; a
//!   `(seed, config)` pair names a universe, byte for byte.
//! * [`generate`] — builds a [`GeneratedScenario`]: a
//!   [`WorldSpec`](sada_fleet::WorldSpec) drawn from per-cluster
//!   *invariant families* (`one_of` chains, implication clusters, xor
//!   rings) with heterogeneous two-column action costs, plus a session
//!   workload over Poisson or burst traffic with occasional two-cluster
//!   straddler flips.
//! * Two domains beyond the video world: [`ScenarioConfig::serverless`]
//!   (per-function codec ladders hot-swapped under invocation load,
//!   cold-start-priced) and [`ScenarioConfig::iaas`] (live VM migration
//!   hops with network-throughput-dependent latencies and host power
//!   draws; [`ScenarioConfig::iaas_energy`] makes MAP minimize watts).
//! * [`validate`] — the validity pass every generated scenario must hold:
//!   safe initial configuration, confined collaborative sets, normalizer
//!   acceptance, and goal reachability **both directions** through the
//!   same scoped lazy planner and plan cache the control plane uses, which
//!   vet each endpoint by its diff; every plan, replayed or fresh, is
//!   checked step by step against its query.
//! * [`encode_scenario`] / [`parse_scenario`] — a canonical text codec;
//!   byte equality of encodings is the determinism witness the satellite
//!   proptests pin, and the text form is the replay artifact
//!   EXPERIMENTS.md quotes.
//! * [`energy_showcase`] — a hand-pinned world where the watt-cheapest
//!   and ms-cheapest plans differ, proving the objective column reaches
//!   plan selection.

mod codec;
mod gen;
mod rng;
mod validate;

pub use codec::{encode_scenario, parse_scenario};
pub use gen::{energy_showcase, generate, GeneratedScenario, ScenarioConfig, TrafficProfile};
pub use validate::validate;

#[cfg(test)]
mod tests {
    use super::*;
    use sada_fleet::{Domain, FleetWorld, Objective};

    #[test]
    fn serverless_universe_generates_and_validates() {
        let s = generate(&ScenarioConfig::serverless(7));
        assert_eq!(s.spec.domain, Domain::Serverless);
        assert_eq!(s.spec.clusters.len(), 8);
        assert_eq!(s.sessions.len(), 24);
        assert!(validate(&s).is_ok());
        // Heterogeneous costs: the action table is not flat.
        let costs: std::collections::BTreeSet<u64> =
            s.spec.actions.iter().map(|a| a.cost_ms).collect();
        assert!(costs.len() > 1, "cold-start costs should vary");
        // Submission instants strictly increase under Poisson traffic.
        for w in s.sessions.windows(2) {
            assert!(w[0].submit_at < w[1].submit_at);
        }
    }

    #[test]
    fn iaas_universe_generates_and_validates() {
        let s = generate(&ScenarioConfig::iaas(11));
        assert_eq!(s.spec.domain, Domain::Iaas);
        assert_eq!(s.spec.clusters.len(), 6);
        assert!(validate(&s).is_ok());
        let w = FleetWorld::from_spec(s.spec.clone());
        // IaaS clusters share hosting processes: fewer hosts than comps.
        assert!(w.model.process_count() < s.spec.comps.len());
    }

    #[test]
    fn energy_objective_selects_the_watt_column() {
        let s = generate(&ScenarioConfig::iaas_energy(11));
        assert_eq!(s.spec.objective, Objective::EnergyWatts);
        let w = FleetWorld::from_spec(s.spec.clone());
        for (a, spec) in w.actions.iter().zip(&s.spec.actions) {
            assert_eq!(a.cost(), spec.cost_watts.max(1));
        }
    }

    #[test]
    fn codec_round_trips_generated_scenarios() {
        for cfg in
            [ScenarioConfig::serverless(1), ScenarioConfig::iaas(2), ScenarioConfig::iaas_energy(3)]
        {
            let s = generate(&cfg);
            let text = encode_scenario(&s);
            let back = parse_scenario(&text).expect("canonical text parses");
            assert_eq!(back, s);
            assert_eq!(encode_scenario(&back), text, "re-encoding is byte-stable");
        }
    }

    #[test]
    fn codec_rejects_mangled_input() {
        let s = generate(&ScenarioConfig::serverless(5));
        let text = encode_scenario(&s);
        assert!(parse_scenario(&text.replace("sada-scenario v1", "v0")).is_err());
        assert!(parse_scenario(&text.replace("domain serverless", "domain lambda")).is_err());
        assert!(parse_scenario("sada-scenario v1\nseed 1\n").is_err(), "domain is mandatory");
    }

    #[test]
    fn straddler_sessions_appear_and_stay_adjacent() {
        let s = generate(&ScenarioConfig::serverless(13));
        let straddlers: Vec<_> = s.sessions.iter().filter(|x| x.flips.len() == 2).collect();
        assert!(!straddlers.is_empty(), "15% straddler rate over 24 sessions");
        for x in &straddlers {
            assert_eq!(x.flips[0].0 + 1, x.flips[1].0, "straddlers span adjacent clusters");
        }
    }

    #[test]
    fn single_cluster_worlds_have_no_straddlers() {
        let cfg = ScenarioConfig { clusters: 1, sessions: 6, ..ScenarioConfig::serverless(21) };
        let s = generate(&cfg);
        assert!(s.sessions.iter().all(|x| x.flips.len() == 1));
        assert!(validate(&s).is_ok());
    }
}
