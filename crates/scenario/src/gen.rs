//! The seeded generator: invariant families, domain mixes, traffic.
//!
//! A generated world is a [`WorldSpec`] built cluster by cluster. Each
//! cluster draws one **invariant family**:
//!
//! * **one_of chain** — `k` exclusive modes in a row; adaptation walks the
//!   chain one replace-step at a time (serverless codec ladders, IaaS
//!   migration hops).
//! * **implication cluster** — an exclusive anchor pair where the alternate
//!   anchor drags sidecar components along via `<=>`; adaptation is one
//!   atomic multi-component swap.
//! * **xor ring** — an even cycle of `r_i ^ r_{i+1}` parity constraints
//!   with exactly two satisfying assignments (evens or odds); adaptation
//!   swaps the whole ring at once.
//!
//! Families confine their invariants and actions to the cluster's own
//! components, so every cluster is an independent collaborative set — the
//! property the fleet's region partitioning and plan-cache normalizer
//! assume, and the property [`crate::validate`] re-checks per cluster.

use sada_fleet::{
    ActionSpec, ClusterSpec, CompSpec, Domain, FleetScenario, Objective, SessionSpec, WorldSpec,
};
use sada_simnet::SimDuration;

use crate::rng::SplitMix64;

/// How session submission instants are spread over virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficProfile {
    /// Poisson arrivals: exponential gaps with the given mean.
    Poisson {
        /// Mean inter-arrival gap in microseconds.
        mean_gap_us: u64,
    },
    /// Synchronized waves: sessions split evenly over `waves` bursts with
    /// a small jitter inside each burst.
    Burst {
        /// Number of bursts (at least 1).
        waves: u64,
        /// Gap between burst fronts in microseconds.
        wave_gap_us: u64,
    },
}

/// Everything that names a generated scenario. `(seed, rest)` is the full
/// identity: equal configs generate byte-identical scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Generator seed.
    pub seed: u64,
    /// Which domain's cluster mix and cost model to draw from.
    pub domain: Domain,
    /// Which action cost column MAP minimizes.
    pub objective: Objective,
    /// Number of clusters (flip units) in the world.
    pub clusters: usize,
    /// Number of adaptation sessions to emit.
    pub sessions: usize,
    /// Submission-time distribution.
    pub traffic: TrafficProfile,
    /// Percentage of sessions that flip two adjacent clusters at once
    /// (region straddlers under a sharded run).
    pub straddler_pct: u64,
}

impl ScenarioConfig {
    /// A serverless codec-fleet scenario: many small clusters, Poisson
    /// invocation-driven reconfiguration, latency objective.
    pub fn serverless(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            domain: Domain::Serverless,
            objective: Objective::LatencyMs,
            clusters: 8,
            sessions: 24,
            traffic: TrafficProfile::Poisson { mean_gap_us: 50_000 },
            straddler_pct: 15,
        }
    }

    /// An IaaS migration scenario: fewer, heavier clusters, maintenance
    /// waves, latency objective.
    pub fn iaas(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            domain: Domain::Iaas,
            objective: Objective::LatencyMs,
            clusters: 6,
            sessions: 18,
            traffic: TrafficProfile::Burst { waves: 3, wave_gap_us: 400_000 },
            straddler_pct: 10,
        }
    }

    /// The IaaS scenario with MAP minimizing watts instead of
    /// milliseconds.
    pub fn iaas_energy(seed: u64) -> Self {
        ScenarioConfig { objective: Objective::EnergyWatts, ..Self::iaas(seed) }
    }
}

/// A generated scenario: the world spec plus the session workload. The
/// seed rides along so reports and replay commands can name the universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedScenario {
    /// The seed this scenario was generated from.
    pub seed: u64,
    /// The declarative world.
    pub spec: WorldSpec,
    /// The adaptation workload.
    pub sessions: Vec<SessionSpec>,
}

impl GeneratedScenario {
    /// Wraps the scenario as a fleet driver scenario (sim seed = generator
    /// seed, library default timing).
    pub fn fleet(&self) -> FleetScenario {
        let mut f = FleetScenario::with_world(self.spec.clone(), self.sessions.clone());
        f.seed = self.seed;
        f
    }
}

/// Generates a scenario and runs the validity pass over it. The generator
/// guarantees the pass holds by construction; the panic on failure is a
/// generator bug, never a caller error.
pub fn generate(config: &ScenarioConfig) -> GeneratedScenario {
    assert!(config.clusters > 0, "a scenario needs at least one cluster");
    // Fold domain and objective into the stream so the same numeric seed
    // names distinct universes per domain.
    let mut rng = SplitMix64::new(
        config
            .seed
            .wrapping_add(u64::from(config.domain.tag()) << 56)
            .wrapping_add(u64::from(config.objective.tag()) << 48),
    );
    let mut b = Build::default();
    for g in 0..config.clusters {
        match config.domain {
            Domain::Serverless => serverless_cluster(&mut b, &mut rng, g),
            Domain::Iaas => iaas_cluster(&mut b, &mut rng, g),
            Domain::Video => video_cluster(&mut b, g),
        }
    }
    let spec = WorldSpec {
        domain: config.domain,
        objective: config.objective,
        comps: b.comps,
        invariants: b.invariants,
        actions: b.actions,
        clusters: b.clusters,
    };
    let sessions = emit_sessions(config, &mut rng);
    let scenario = GeneratedScenario { seed: config.seed, spec, sessions };
    if let Err(why) = crate::validate(&scenario) {
        panic!("generator emitted an invalid scenario: {why}");
    }
    scenario
}

/// In-progress world: the four `WorldSpec` tables plus the process cursor.
#[derive(Default)]
struct Build {
    comps: Vec<CompSpec>,
    invariants: Vec<String>,
    actions: Vec<ActionSpec>,
    clusters: Vec<ClusterSpec>,
    next_proc: usize,
}

impl Build {
    /// Declares a component on process `self.next_proc + proc_off` and
    /// returns its index.
    fn comp(&mut self, name: String, proc_off: usize) -> usize {
        let ix = self.comps.len();
        self.comps.push(CompSpec { name, process: self.next_proc + proc_off });
        ix
    }

    /// Seals the cluster's process block: `used` processes were allocated.
    fn seal_procs(&mut self, used: usize) {
        self.next_proc += used;
    }
}

/// Per-action cost draw: `(cost_ms, cost_watts)`.
type CostModel<'a> = dyn FnMut(&mut SplitMix64) -> (u64, u64) + 'a;

// ---------------------------------------------------------------------------
// Invariant families
// ---------------------------------------------------------------------------

/// `one_of` chain: `k` exclusive modes, adjacent swap actions both ways.
/// `proc_stride` spaces the modes over hosting processes (1 = one process
/// per mode, 2 = modes pair up on shared hosts).
fn chain_cluster(
    b: &mut Build,
    rng: &mut SplitMix64,
    names: &[String],
    share_hosts: bool,
    cost: &mut CostModel,
) {
    let k = names.len();
    assert!(k >= 2, "a chain needs at least two modes");
    let modes: Vec<usize> = names
        .iter()
        .enumerate()
        .map(|(j, n)| b.comp(n.clone(), if share_hosts { j / 2 } else { j }))
        .collect();
    let list = names.join(", ");
    b.invariants.push(format!("one_of({list})"));
    for j in 0..k - 1 {
        let (ms, watts) = cost(rng);
        b.actions.push(ActionSpec {
            name: format!("{}__to__{}", names[j], names[j + 1]),
            removes: vec![modes[j]],
            adds: vec![modes[j + 1]],
            cost_ms: ms,
            cost_watts: watts,
        });
        let (ms, watts) = cost(rng);
        b.actions.push(ActionSpec {
            name: format!("{}__to__{}", names[j + 1], names[j]),
            removes: vec![modes[j + 1]],
            adds: vec![modes[j]],
            cost_ms: ms,
            cost_watts: watts,
        });
    }
    b.clusters.push(ClusterSpec {
        comps: modes.clone(),
        on_false: vec![modes[0]],
        on_true: vec![modes[k - 1]],
    });
    b.seal_procs(if share_hosts { k.div_ceil(2) } else { k });
}

/// Implication cluster: exclusive anchors `a`/`b`, with sidecars welded to
/// `b` by `<=>`; one atomic multi-component swap per direction.
fn implication_cluster(
    b: &mut Build,
    rng: &mut SplitMix64,
    anchor_a: String,
    anchor_b: String,
    sidecars: Vec<String>,
    cost: &mut CostModel,
) {
    let a = b.comp(anchor_a.clone(), 0);
    let bb = b.comp(anchor_b.clone(), 0);
    let side: Vec<usize> = sidecars.iter().map(|s| b.comp(s.clone(), 1)).collect();
    b.invariants.push(format!("one_of({anchor_a}, {anchor_b})"));
    for s in &sidecars {
        b.invariants.push(format!("({anchor_b} <=> {s})"));
    }
    let mut on_true = vec![bb];
    on_true.extend(side.iter().copied());
    let (ms, watts) = cost(rng);
    b.actions.push(ActionSpec {
        name: format!("{anchor_a}__to__{anchor_b}"),
        removes: vec![a],
        adds: on_true.clone(),
        cost_ms: ms,
        cost_watts: watts,
    });
    let (ms, watts) = cost(rng);
    b.actions.push(ActionSpec {
        name: format!("{anchor_b}__to__{anchor_a}"),
        removes: on_true.clone(),
        adds: vec![a],
        cost_ms: ms,
        cost_watts: watts,
    });
    let mut comps = vec![a, bb];
    comps.extend(side.iter().copied());
    b.clusters.push(ClusterSpec { comps, on_false: vec![a], on_true });
    b.seal_procs(2);
}

/// Xor ring: an even cycle of `r_i ^ r_{i+1}` constraints. The only two
/// satisfying assignments are "all evens" and "all odds"; one swap action
/// per direction moves between them atomically.
fn xor_ring_cluster(b: &mut Build, rng: &mut SplitMix64, names: &[String], cost: &mut CostModel) {
    let n = names.len();
    assert!(n >= 4 && n.is_multiple_of(2), "a xor ring needs an even cycle of at least 4");
    let ring: Vec<usize> =
        names.iter().enumerate().map(|(j, s)| b.comp(s.clone(), j % 2)).collect();
    for j in 0..n {
        b.invariants.push(format!("({} ^ {})", names[j], names[(j + 1) % n]));
    }
    let evens: Vec<usize> = ring.iter().copied().step_by(2).collect();
    let odds: Vec<usize> = ring.iter().copied().skip(1).step_by(2).collect();
    let (ms, watts) = cost(rng);
    b.actions.push(ActionSpec {
        name: format!("{}__ring_flip", names[0]),
        removes: evens.clone(),
        adds: odds.clone(),
        cost_ms: ms,
        cost_watts: watts,
    });
    let (ms, watts) = cost(rng);
    b.actions.push(ActionSpec {
        name: format!("{}__ring_unflip", names[0]),
        removes: odds.clone(),
        adds: evens.clone(),
        cost_ms: ms,
        cost_watts: watts,
    });
    b.clusters.push(ClusterSpec { comps: ring, on_false: evens, on_true: odds });
    b.seal_procs(2);
}

// ---------------------------------------------------------------------------
// Domain mixes
// ---------------------------------------------------------------------------

/// Serverless codec fleet: mostly codec ladders (cold-start-priced swaps),
/// some runtime+warm-pool implications, a few replica rings. Milliseconds
/// model cold starts; watts are small and flat.
fn serverless_cluster(b: &mut Build, rng: &mut SplitMix64, g: usize) {
    let mut cost = |r: &mut SplitMix64| (20 + r.below(480), 1 + r.below(30));
    let roll = rng.below(100);
    if roll < 60 {
        let k = 2 + rng.below(3) as usize;
        let names: Vec<String> = (0..k).map(|j| format!("fn{g}_codec{j}")).collect();
        chain_cluster(b, rng, &names, false, &mut cost);
    } else if roll < 85 {
        let sidecars = (0..1 + rng.below(2) as usize).map(|i| format!("fn{g}_warm{i}")).collect();
        implication_cluster(
            b,
            rng,
            format!("fn{g}_lite"),
            format!("fn{g}_full"),
            sidecars,
            &mut cost,
        );
    } else {
        let n = if rng.chance(50) { 4 } else { 6 };
        let names: Vec<String> = (0..n).map(|j| format!("fn{g}_rep{j}")).collect();
        xor_ring_cluster(b, rng, &names, &mut cost);
    }
}

/// IaaS migration: mostly migration-hop chains whose latency is VM size
/// over link throughput, some host-affinity implications, a few mirror
/// rings. Watts model host power draw.
fn iaas_cluster(b: &mut Build, rng: &mut SplitMix64, g: usize) {
    // Cluster-wide parameters: one VM image, one network path.
    let vm_gb = 2 + rng.below(62);
    let link_gbps = 1 + rng.below(24);
    let mut cost = move |r: &mut SplitMix64| {
        // Transfer time scales with image size over throughput, plus a
        // per-hop handshake; power is the hosting machine's draw.
        (5 + vm_gb * 80 / link_gbps + r.below(20), 50 + r.below(350))
    };
    let roll = rng.below(100);
    if roll < 50 {
        let hops = 3 + rng.below(2) as usize;
        let names: Vec<String> = (0..hops).map(|j| format!("vm{g}_hop{j}")).collect();
        chain_cluster(b, rng, &names, true, &mut cost);
    } else if roll < 80 {
        let sidecars =
            (0..1 + rng.below(2) as usize).map(|i| format!("vm{g}_affinity{i}")).collect();
        implication_cluster(
            b,
            rng,
            format!("vm{g}_hostA"),
            format!("vm{g}_hostB"),
            sidecars,
            &mut cost,
        );
    } else {
        let names: Vec<String> = (0..4).map(|j| format!("vm{g}_mirror{j}")).collect();
        xor_ring_cluster(b, rng, &names, &mut cost);
    }
}

/// The classic video pair, for completeness (`WorldSpec::video` already
/// covers the whole-world case).
fn video_cluster(b: &mut Build, g: usize) {
    let old = b.comp(format!("Old{g}"), 0);
    let newer = b.comp(format!("New{g}"), 1);
    b.invariants.push(format!("one_of(Old{g}, New{g})"));
    b.actions.push(ActionSpec {
        name: format!("fwd{g}"),
        removes: vec![old],
        adds: vec![newer],
        cost_ms: 1,
        cost_watts: 1,
    });
    b.actions.push(ActionSpec {
        name: format!("back{g}"),
        removes: vec![newer],
        adds: vec![old],
        cost_ms: 1,
        cost_watts: 1,
    });
    b.clusters.push(ClusterSpec {
        comps: vec![old, newer],
        on_false: vec![old],
        on_true: vec![newer],
    });
    b.seal_procs(2);
}

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

/// Emits the session workload: submission instants from the traffic
/// profile, flip targets alternating per cluster (so every target differs
/// from the config current when the session is granted), and occasional
/// two-cluster straddlers.
///
/// All sessions share priority 0: per-resource grant order is then
/// submission order, which keeps the per-cluster direction bookkeeping in
/// lockstep with execution regardless of cross-cluster interleaving.
fn emit_sessions(config: &ScenarioConfig, rng: &mut SplitMix64) -> Vec<SessionSpec> {
    let mut next_dir = vec![true; config.clusters];
    let mut at_us: u64 = 0;
    let mut sessions = Vec::with_capacity(config.sessions);
    for i in 0..config.sessions {
        at_us = match config.traffic {
            TrafficProfile::Poisson { mean_gap_us } => at_us + rng.exp_gap_us(mean_gap_us),
            TrafficProfile::Burst { waves, wave_gap_us } => {
                let per_wave = config.sessions.div_ceil(waves.max(1) as usize);
                (i / per_wave) as u64 * wave_gap_us + rng.below(500)
            }
        };
        let straddle = config.clusters >= 2 && rng.chance(config.straddler_pct);
        let flips = if straddle {
            let g = rng.below(config.clusters as u64 - 1) as usize;
            let d0 = next_dir[g];
            let d1 = next_dir[g + 1];
            next_dir[g] = !d0;
            next_dir[g + 1] = !d1;
            vec![(g, d0), (g + 1, d1)]
        } else {
            let g = rng.below(config.clusters as u64) as usize;
            let d = next_dir[g];
            next_dir[g] = !d;
            vec![(g, d)]
        };
        sessions.push(SessionSpec {
            id: i as u64 + 1,
            flips,
            priority: 0,
            submit_at: SimDuration::from_micros(at_us),
            cancel_at: None,
        });
    }
    sessions
}

// ---------------------------------------------------------------------------
// The energy showcase
// ---------------------------------------------------------------------------

/// A hand-pinned IaaS world where the watt-cheapest and ms-cheapest
/// adaptation paths **differ**: a direct migration is fast but runs both
/// hosts hot (10 ms, 120 W), while staging through a relay is slow but
/// cool (50 ms total, 9 W total). Under [`Objective::LatencyMs`] MAP picks
/// the one-step direct path; under [`Objective::EnergyWatts`] it picks the
/// two-step staged path. Both are safe under `one_of`.
pub fn energy_showcase(objective: Objective) -> WorldSpec {
    let act = |name: &str, from: usize, to: usize, ms: u64, watts: u64| ActionSpec {
        name: name.to_string(),
        removes: vec![from],
        adds: vec![to],
        cost_ms: ms,
        cost_watts: watts,
    };
    WorldSpec {
        domain: Domain::Iaas,
        objective,
        comps: vec![
            CompSpec { name: "vm_on_busy".into(), process: 0 },
            CompSpec { name: "vm_on_relay".into(), process: 1 },
            CompSpec { name: "vm_on_idle".into(), process: 2 },
        ],
        invariants: vec!["one_of(vm_on_busy, vm_on_relay, vm_on_idle)".into()],
        actions: vec![
            act("direct_migrate", 0, 2, 10, 120),
            act("stage_out", 0, 1, 25, 4),
            act("stage_in", 1, 2, 25, 5),
            act("direct_return", 2, 0, 10, 120),
            act("unstage_out", 2, 1, 25, 4),
            act("unstage_in", 1, 0, 25, 5),
        ],
        clusters: vec![ClusterSpec { comps: vec![0, 1, 2], on_false: vec![0], on_true: vec![2] }],
    }
}

#[cfg(test)]
mod tests {
    //! The lazy search's ranking against eager Yen's, exhaustively: every
    //! universe of at most eight components built from the three families
    //! (each cluster one collaborative set), under unit costs and under
    //! drawn costs in 1..=3, every (source, target) pair of its safe
    //! configurations, and k ∈ {1, 2, 4}. `Search::k_paths` must return
    //! eager `Sag::k_shortest_paths`'s paths step for step, and the paths of
    //! each k must be a prefix of the next k's. Dropping the tie rule of
    //! `sada_plan::lazy` — re-pointing a node's predecessor when a
    //! positive-cost arc reaches it at its distance from a smaller
    //! (distance, configuration) — fails this check: on two two-mode chains
    //! at unit cost, `1001 -> 0110` already takes its two steps in the
    //! other order.

    use super::*;
    use sada_expr::enumerate;
    use sada_fleet::{Domain, FleetWorld};
    use sada_plan::Sag;

    /// One cluster: its family and component count.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Chain(usize),
        Implication(usize),
        Ring(usize),
    }

    impl Shape {
        fn comps(self) -> usize {
            match self {
                Shape::Chain(k) => k,
                Shape::Implication(sidecars) => 2 + sidecars,
                Shape::Ring(n) => n,
            }
        }
    }

    /// Every multiset of shapes of at most `room` components, drawn from
    /// `shapes[from..]` (so each multiset appears once).
    fn universes(shapes: &[Shape], from: usize, room: usize) -> Vec<Vec<Shape>> {
        let mut out = vec![Vec::new()];
        for (i, &s) in shapes.iter().enumerate().skip(from) {
            if s.comps() <= room {
                for mut rest in universes(shapes, i, room - s.comps()) {
                    rest.insert(0, s);
                    out.push(rest);
                }
            }
        }
        out
    }

    /// The world of `shapes`, its costs drawn by `cost`.
    fn world(shapes: &[Shape], cost: &mut CostModel) -> FleetWorld {
        let mut b = Build::default();
        let mut rng = SplitMix64::new(7);
        for (c, &shape) in shapes.iter().enumerate() {
            let names = |n: usize, tag: &str| (0..n).map(|j| format!("c{c}{tag}{j}")).collect();
            match shape {
                Shape::Chain(k) => {
                    let modes: Vec<String> = names(k, "m");
                    chain_cluster(&mut b, &mut rng, &modes, false, cost);
                }
                Shape::Implication(sidecars) => {
                    let (a, bb) = (format!("c{c}a"), format!("c{c}b"));
                    implication_cluster(&mut b, &mut rng, a, bb, names(sidecars, "s"), cost);
                }
                Shape::Ring(n) => {
                    let ring: Vec<String> = names(n, "r");
                    xor_ring_cluster(&mut b, &mut rng, &ring, cost);
                }
            }
        }
        FleetWorld::from_spec(WorldSpec {
            domain: Domain::Serverless,
            objective: Objective::LatencyMs,
            comps: b.comps,
            invariants: b.invariants,
            actions: b.actions,
            clusters: b.clusters,
        })
    }

    #[test]
    fn lazy_ranking_is_eager_yens_on_every_small_universe() {
        let mut shapes: Vec<Shape> = (2..=8).map(Shape::Chain).collect();
        shapes.extend((1..=6).map(Shape::Implication));
        shapes.extend([4, 6, 8].map(Shape::Ring));
        let (mut universes_checked, mut queries) = (0, 0);
        for shapes in universes(&shapes, 0, 8).iter().filter(|s| !s.is_empty()) {
            let unit: &mut CostModel = &mut |_| (1, 1);
            let drawn: &mut CostModel = &mut |r| (1 + r.below(3), 1);
            for cost in [unit, drawn] {
                let w = world(shapes, cost);
                let safe = enumerate::safe_configs(&w.universe, &w.inv);
                let sag = Sag::build(safe.clone(), &w.actions);
                for s in &safe {
                    for t in &safe {
                        let mut shorter: Vec<sada_plan::Path> = Vec::new();
                        for k in [1, 2, 4] {
                            let lazy = w.search.k_paths(s, t, k);
                            let eager = sag.k_shortest_paths(s, t, k);
                            assert_eq!(lazy, eager, "{shapes:?}, {s} -> {t}, k = {k}");
                            assert!(lazy.starts_with(&shorter), "{shapes:?}, {s} -> {t}, k = {k}");
                            shorter = lazy;
                            queries += 1;
                        }
                    }
                }
                universes_checked += 1;
            }
        }
        assert!(universes_checked > 100 && queries > 10_000, "{universes_checked}, {queries}");
    }
}
