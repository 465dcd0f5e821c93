//! `plan_frontier`: the planner alone, no simulator.
//!
//! * grouped-flip universes (`n/2` independent `one_of(Old, New)` groups,
//!   half of them flipped) through uniform-cost search at 32 and 36
//!   components and through A* at 32 to 48;
//! * both-direction per-cluster plans over the two `scenario_mix`
//!   universes (these are what the seed chooses), through the scoped
//!   search the control plane uses;
//! * the paper's case study through the eager SAG: build, Dijkstra, Yen.
//!
//! The search and the invariant kernels are all of the time here and no
//! fleet layer runs, so a planner change that helps this workload must
//! read "no change" on the storms. An operation is one plan query; the
//! work unit behind `events_per_s` is one search-node expansion.

use sada_core::casestudy::{case_study, CaseStudy};
use sada_expr::{Config, InvariantSet, Universe};
use sada_fleet::FleetWorld;
use sada_plan::{Action, CollabIndex, LazyStats, Path, Sag, Search};
use sada_scenario::{encode_scenario, generate};

use super::scenario_mix::{iaas_config, serverless_config};
use crate::harness::{ensure, Facts, Named, Twins, Workload};
use crate::span::{self_time_of, Tracer};
use crate::stats::Fnv;

/// Widths searched by A*; uniform-cost search runs on the first two only
/// (its frontier grows ~17x per 8 components).
const WIDTHS: [usize; 4] = [32, 36, 40, 48];
const UCS_WIDTHS: usize = 2;
const YEN_K: usize = 4;
/// Repetitions of the microsecond-scale case-study replays.
const SMALL_REPS: u32 = 256;

/// One grouped-flip instance with its reusable compiled search.
struct Flip {
    universe: Universe,
    search: Search,
    source: Config,
    target: Config,
}

/// `n_comps / 2` independent `one_of(Old, New)` groups with forward and
/// backward replace actions of cost 1; every group starts on `Old` and the
/// first half must end on `New`. Every candidate the search generates is
/// safe, so the counts isolate the search itself. The seed has no say
/// here: which groups flip changes the search's tie-breaking and with it
/// the expansions by +-10%, which would read as noise between seeds.
fn grouped_flip(n_comps: usize) -> Flip {
    let groups = n_comps / 2;
    let mut u = Universe::with_capacity(n_comps);
    for g in 0..groups {
        u.intern(&format!("Old{g}"));
        u.intern(&format!("New{g}"));
    }
    let srcs: Vec<String> = (0..groups).map(|g| format!("one_of(Old{g}, New{g})")).collect();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let inv = InvariantSet::parse(&refs, &mut u).expect("generated invariants parse");
    let id = |name: String| u.id(&name).expect("interned above");
    let mut actions = Vec::with_capacity(2 * groups);
    let mut source = u.empty_config();
    for g in 0..groups {
        let old = u.config_of(&[&format!("Old{g}")]);
        let new = u.config_of(&[&format!("New{g}")]);
        actions.push(Action::replace(2 * g as u32, &format!("fwd{g}"), &old, &new, 1));
        actions.push(Action::replace(2 * g as u32 + 1, &format!("back{g}"), &new, &old, 1));
        source.insert(id(format!("Old{g}")));
    }
    let mut target = source.clone();
    for g in 0..groups / 2 {
        target.remove(id(format!("Old{g}")));
        target.insert(id(format!("New{g}")));
    }
    let search = Search::new(&inv, &actions, u.len());
    Flip { universe: u, search, source, target }
}

pub struct Input {
    flips: Vec<Flip>,
    worlds: [FleetWorld; 2],
    scenario_text: [String; 2],
    case: CaseStudy,
    case_safe: Vec<Config>,
}

/// Which search answered a query: its paths are replayed against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    Flip(usize),
    World(usize),
    Case,
}

pub struct Output {
    /// Every query's answer, in query order.
    plans: Vec<(Via, Option<Path>)>,
    /// Summed over the lazy searches (UCS, A*, scoped).
    stats: LazyStats,
}

fn add(into: &mut LazyStats, s: LazyStats) {
    into.expanded += s.expanded;
    into.generated += s.generated;
    into.safety_checks += s.safety_checks;
    into.pred_evals += s.pred_evals;
    into.probed += s.probed;
}

fn run_ucs(input: &Input, out: &mut Output) {
    for (i, f) in input.flips.iter().take(UCS_WIDTHS).enumerate() {
        let (path, stats) = f.search.plan(&f.source, &f.target);
        add(&mut out.stats, stats);
        out.plans.push((Via::Flip(i), path));
    }
}

fn run_astar(input: &Input, out: &mut Output) {
    for (i, f) in input.flips.iter().enumerate() {
        let (path, stats) = f.search.plan_astar(&f.source, &f.target);
        add(&mut out.stats, stats);
        out.plans.push((Via::Flip(i), path));
    }
}

/// Every cluster of both universes flipped forward from the boot
/// configuration and back again, each query restricted to the cluster's
/// scope exactly as a control-plane session would be.
fn run_scoped(input: &Input, out: &mut Output) {
    for (w, world) in input.worlds.iter().enumerate() {
        let init = world.initial_config();
        for g in 0..world.groups {
            let flip = [(g, true)];
            let ixs = world.search.scoped_action_ixs(&world.scope_comps(&flip));
            let there = world.target_for(&init, &flip);
            for (from, to) in [(&init, &there), (&there, &init)] {
                let (path, stats) = world.search.plan_scoped(from, to, &ixs);
                add(&mut out.stats, stats);
                out.plans.push((Via::World(w), path));
            }
        }
    }
}

fn run_sag(input: &Input, out: &mut Output) {
    let sag = Sag::build(input.case_safe.clone(), input.case.spec.actions());
    out.plans.push((Via::Case, sag.shortest_path(&input.case.source, &input.case.target)));
    let ranked = sag.k_shortest_paths(&input.case.source, &input.case.target, YEN_K);
    out.plans.extend(ranked.into_iter().map(|p| (Via::Case, Some(p))));
}

pub struct PlanFrontier;

impl Workload for PlanFrontier {
    const NAME: &'static str = "plan_frontier";
    type Input = Input;
    type Output = Output;

    fn generate(seed: u64) -> Input {
        let flips = WIDTHS.iter().map(|&n| grouped_flip(n)).collect();
        let scenarios =
            [generate(&serverless_config(seed)), generate(&iaas_config(seed.wrapping_add(1)))];
        let scenario_text = [encode_scenario(&scenarios[0]), encode_scenario(&scenarios[1])];
        let worlds = scenarios.map(|s| FleetWorld::from_spec(s.spec));
        let case = case_study();
        let case_safe = case.spec.safe_configs();
        Input { flips, worlds, scenario_text, case, case_safe }
    }

    fn digest(input: &Input) -> u64 {
        let mut h = Fnv::new();
        for f in &input.flips {
            let line = format!(
                "flip width={} source={} target={}\n",
                f.universe.len(),
                f.source.to_bit_string(),
                f.target.to_bit_string()
            );
            h.feed(line.as_bytes());
        }
        for text in &input.scenario_text {
            h.feed(text.as_bytes());
        }
        h.0
    }

    fn run(input: &Input) -> Output {
        let mut out = Output { plans: Vec::new(), stats: LazyStats::default() };
        run_ucs(input, &mut out);
        run_astar(input, &mut out);
        run_scoped(input, &mut out);
        run_sag(input, &mut out);
        out
    }

    fn facts(_: &Input, out: &Output) -> Facts {
        let mut fingerprint = Fnv::new();
        for (_, plan) in &out.plans {
            match plan {
                None => fingerprint.feed(b"none\n"),
                Some(p) => {
                    for step in &p.steps {
                        fingerprint.feed(&step.action.0.to_le_bytes());
                    }
                    fingerprint.feed(&p.cost.to_le_bytes());
                }
            }
        }
        let attempted = out.plans.len() as u64;
        let failed = out.plans.iter().filter(|(_, p)| p.is_none()).count() as u64;
        Facts {
            attempted,
            failed,
            events: out.stats.expanded,
            fingerprint: fingerprint.0,
            exact: vec![
                ("ops", attempted as f64),
                ("failed_share", failed as f64 / attempted as f64),
                ("plan.lazy.expanded", out.stats.expanded as f64),
                ("plan.lazy.pred_evals", out.stats.pred_evals as f64),
                ("plan.lazy.probed", out.stats.probed as f64),
                ("plan.lazy.safety_checks", out.stats.safety_checks as f64),
            ],
        }
    }

    fn check(input: &Input, out: &Output) -> Result<(), String> {
        // Every planned path starts safe, stays safe step by step, is
        // contiguous, and costs what its steps cost.
        for (n, (via, plan)) in out.plans.iter().enumerate() {
            let path = plan.as_ref().ok_or_else(|| format!("query {n} ({via:?}) found no plan"))?;
            let is_safe = |cfg: &Config| match via {
                Via::Flip(i) => input.flips[*i].search.is_safe(cfg),
                Via::World(w) => input.worlds[*w].search.is_safe(cfg),
                Via::Case => input.case.spec.is_safe(cfg),
            };
            ensure(path.is_well_formed(), || format!("query {n}: path is not contiguous"))?;
            ensure(path.steps.iter().all(|s| is_safe(&s.from) && is_safe(&s.to)), || {
                format!("query {n} ({via:?}): a step leaves the safe set")
            })?;
            ensure(path.cost == path.steps.iter().map(|s| s.cost).sum::<u64>(), || {
                format!("query {n}: cost is not the sum of its steps")
            })?;
        }
        // UCS and A* agree on the optimum wherever both ran.
        for (i, width) in WIDTHS.iter().enumerate().take(UCS_WIDTHS) {
            let cost = |at: usize| out.plans[at].1.as_ref().map(|p| p.cost);
            let (ucs, astar) = (cost(i), cost(UCS_WIDTHS + i));
            ensure(ucs == astar, || format!("width {width}: UCS {ucs:?} vs A* {astar:?}"))?;
            let flipped = (width / 4) as u64;
            ensure(ucs == Some(flipped), || format!("width {width}: optimum is {flipped}"))?;
        }
        // Where the SAG is enumerable, lazy search equals eager Dijkstra,
        // and Yen's first path is the shortest.
        let case: Vec<&Path> = out
            .plans
            .iter()
            .filter(|(v, _)| *v == Via::Case)
            .filter_map(|(_, p)| p.as_ref())
            .collect();
        let lazy = sada_plan::lazy::plan(
            input.case.spec.invariants(),
            input.case.spec.actions(),
            &input.case.source,
            &input.case.target,
        )
        .ok_or("lazy search found no case-study MAP")?;
        ensure(case.len() == 1 + YEN_K, || format!("case study: {} plans", case.len()))?;
        ensure(case[0].cost == lazy.cost && case[0].cost == 50, || {
            format!("case-study MAP: eager {} vs lazy {} (paper: 50)", case[0].cost, lazy.cost)
        })?;
        ensure(case[1].cost == case[0].cost, || "Yen's first path is not the MAP".to_string())?;
        ensure(case[1..].windows(2).all(|w| w[0].cost <= w[1].cost), || {
            "Yen's ranking is not ascending".to_string()
        })
    }

    fn twins(_: &Input, _: &Output) -> Result<Twins, String> {
        Ok(Twins::default())
    }

    fn replay(
        input: &Input,
        out: &Output,
        _: &Twins,
        _: f64,
        t: &mut Tracer,
    ) -> (Named, &'static [&'static str]) {
        let mut scratch = Output { plans: Vec::new(), stats: LazyStats::default() };
        t.span("plan.lazy.ucs", |_| {
            run_ucs(input, &mut scratch);
            run_scoped(input, &mut scratch);
        });
        t.span("plan.lazy.astar", |_| run_astar(input, &mut scratch));
        t.span("plan.sag.build", |_| {
            for _ in 0..SMALL_REPS {
                std::hint::black_box(Sag::build(
                    input.case_safe.clone(),
                    input.case.spec.actions(),
                ));
            }
        });
        let sag = Sag::build(input.case_safe.clone(), input.case.spec.actions());
        t.span("plan.yen.k4", |_| {
            for _ in 0..SMALL_REPS {
                std::hint::black_box(sag.k_shortest_paths(
                    &input.case.source,
                    &input.case.target,
                    YEN_K,
                ));
            }
        });
        t.span("plan.collab.index", |_| {
            for w in &input.worlds {
                std::hint::black_box(CollabIndex::new(&w.universe, &w.inv, &w.actions));
            }
        });
        // expr: the universes' invariant text parsed again, then the compiled
        // kernels evaluated over every configuration the plans pass through.
        t.span("expr.parse", |_| {
            for w in &input.worlds {
                let mut u = w.universe.clone();
                let refs: Vec<&str> = w.spec.invariants.iter().map(String::as_str).collect();
                std::hint::black_box(InvariantSet::parse(&refs, &mut u).expect("parsed before"));
            }
        });
        let mut evals = 0u64;
        t.span("expr.kernel.eval", |_| {
            for (via, plan) in &out.plans {
                let compiled = match via {
                    Via::Flip(i) => input.flips[*i].search.compiled(),
                    Via::World(w) => input.worlds[*w].search.compiled(),
                    Via::Case => continue,
                };
                for step in plan.iter().flat_map(|p| &p.steps) {
                    assert!(compiled.satisfied_by_counting(&step.to, &mut evals));
                }
            }
        });
        let spans = t.spans();
        let s = |name| self_time_of(spans, name);
        let named = vec![
            ("plan.lazy.ucs_s", s("plan.lazy.ucs")),
            ("plan.lazy.astar_s", s("plan.lazy.astar")),
            ("plan.sag.build_s", s("plan.sag.build") / f64::from(SMALL_REPS)),
            ("plan.yen.k4_s", s("plan.yen.k4") / f64::from(SMALL_REPS)),
            ("plan.collab.index_s", s("plan.collab.index")),
            ("expr.parse_s", s("expr.parse")),
            ("expr.kernel.eval_ns", s("expr.kernel.eval") * 1e9 / evals.max(1) as f64),
        ];
        (named, &["plan.lazy.ucs", "plan.lazy.astar"])
    }
}
