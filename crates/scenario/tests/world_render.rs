//! A spec world is its blocks placed, and its world-wide views render what
//! compiling the whole spec as one class makes. The reference here is that
//! one class: one `SpecBuilder` over every entry, then the collaborative
//! index and the search over all of it. Over generated serverless, IaaS and
//! video universes, the energy showcase, a spec whose clusters interleave
//! and one whose processes host two clusters each, the cut world's views
//! must equal it — names, invariants in order, actions, hosts, the
//! collaborative index — and so must its groups, boot configuration,
//! cluster members, agents and every cluster's scoped plans, statistics
//! included (the referee's `plan_frontier` plans on the rendered search).

use proptest::prelude::*;
use sada_expr::{CompId, Config, InvariantSet, Universe};
use sada_fleet::{ActionSpec, ClusterSpec, CompSpec, Domain, FleetWorld, Objective, WorldSpec};
use sada_plan::{CollabIndex, Search};
use sada_proto::{AdaptationSpec, SpecBuilder};
use sada_scenario::{energy_showcase, generate, ScenarioConfig};

/// The whole spec compiled as one class.
struct Whole {
    spec: AdaptationSpec,
    index: CollabIndex,
    search: Search,
}

fn whole(spec: &WorldSpec) -> Whole {
    let mut b =
        SpecBuilder::with_capacity([spec.comps.len(), spec.invariants.len(), spec.actions.len()]);
    b.processes(spec.comps.iter().map(|c| c.process + 1).max().unwrap_or(0));
    for c in &spec.comps {
        b.comp(&c.name, c.process).unwrap();
    }
    let sources: Vec<&str> = spec.invariants.iter().map(String::as_str).collect();
    b.parse_invariants(&sources).unwrap();
    for a in &spec.actions {
        let cost = match spec.objective {
            Objective::LatencyMs => a.cost_ms,
            Objective::EnergyWatts => a.cost_watts,
        };
        b.action(&a.name, &a.removes, &a.adds, cost.max(1), false).unwrap();
    }
    let spec = b.finish();
    let index = CollabIndex::new(spec.universe(), spec.invariants(), spec.actions());
    let search = Search::new(spec.invariants(), spec.actions(), spec.universe().len());
    Whole { spec, index, search }
}

fn assert_renders_whole(what: &str, spec: &WorldSpec) {
    let want = whole(spec);
    let w = FleetWorld::from_spec(spec.clone());
    let width = want.spec.universe().len();
    let ids = || (0..width).map(CompId::from_index);

    let names = |u: &Universe| ids().map(|c| u.name(c).to_string()).collect::<Vec<_>>();
    assert_eq!(names(&w.universe), names(want.spec.universe()), "{what}: names");
    let exprs = |inv: &InvariantSet| {
        inv.exprs().iter().map(|e| (e.to_string(), format!("{e:?}"))).collect::<Vec<_>>()
    };
    assert_eq!(exprs(&w.inv), exprs(want.spec.invariants()), "{what}: invariants");
    assert_eq!(&w.actions[..], want.spec.actions(), "{what}: actions");
    assert_eq!(w.model.process_count(), want.spec.model().process_count(), "{what}: processes");
    for c in ids() {
        assert_eq!(w.model.host_of(c), want.spec.model().host_of(c), "{what}: host of {c:?}");
        assert_eq!(w.index.set_of(c), want.index.set_of(c), "{what}: set of {c:?}");
        // A resource list is the component and, past the components, the
        // agent driving its host: the world's own `agent_for`.
        let host = want.spec.model().host_of(c).unwrap().0 as usize;
        assert_eq!(w.resources_for(&[c]), [c.index() as u32, (width + host) as u32], "{what}");
    }
    assert_eq!(w.index.set_count(), want.index.set_count(), "{what}: sets");
    for set in 0..want.index.set_count() {
        assert_eq!(w.index.members(set), want.index.members(set), "{what}: set {set}");
    }

    assert_eq!(w.groups, spec.clusters.len(), "{what}: groups");
    let boot = spec.clusters.iter().flat_map(|cl| cl.on_false.iter().copied());
    let init = Config::from_ids(width, boot.map(CompId::from_index));
    assert_eq!(w.initial_config(), init, "{what}: boot");
    for (g, cl) in spec.clusters.iter().enumerate() {
        let comps: Vec<CompId> = cl.comps.iter().map(|&c| CompId::from_index(c)).collect();
        assert_eq!(w.cluster_comps(g).collect::<Vec<_>>(), comps, "{what}: cluster {g}");
        let flip = [(g, true)];
        let scope = w.scope_comps(&flip);
        let ixs = want.search.scoped_action_ixs(&scope);
        assert_eq!(w.search.scoped_action_ixs(&scope), ixs, "{what}: cluster {g} actions");
        let there = w.target_for(&init, &flip);
        for (from, to) in [(&init, &there), (&there, &init)] {
            let got = w.search.plan_scoped(from, to, &ixs);
            assert_eq!(got, want.search.plan_scoped(from, to, &ixs), "{what}: cluster {g}");
        }
    }
}

/// Two clusters whose components interleave, `{C0, C2}` and `{C1, C3}`.
fn interleaved_spec() -> WorldSpec {
    let comps = (0..4).map(|c| CompSpec { name: format!("C{c}"), process: c }).collect();
    let replace = |from: usize, to: usize| ActionSpec {
        name: format!("C{from}->C{to}"),
        removes: vec![from],
        adds: vec![to],
        cost_ms: 1 + from as u64,
        cost_watts: 1,
    };
    let cluster =
        |a: usize, b: usize| ClusterSpec { comps: vec![a, b], on_false: vec![a], on_true: vec![b] };
    WorldSpec {
        domain: Domain::Video,
        objective: Objective::LatencyMs,
        comps,
        invariants: vec!["one_of(C0, C2)".into(), "one_of(C1, C3)".into()],
        actions: vec![replace(0, 2), replace(2, 0), replace(1, 3), replace(3, 1)],
        clusters: vec![cluster(0, 2), cluster(1, 3)],
    }
}

/// `groups` clusters `{C{g}, C{groups + g}}` under `one_of`, components
/// `2k` and `2k + 1` on process `k`: every process hosts two clusters.
fn shared_hosts_spec(groups: usize) -> WorldSpec {
    let name = |c: usize| format!("C{c}");
    let replace = |from: usize, to: usize| ActionSpec {
        name: format!("{from}->{to}"),
        removes: vec![from],
        adds: vec![to],
        cost_ms: 1,
        cost_watts: 1,
    };
    WorldSpec {
        domain: Domain::Serverless,
        objective: Objective::LatencyMs,
        comps: (0..2 * groups).map(|c| CompSpec { name: name(c), process: c / 2 }).collect(),
        invariants: (0..groups)
            .map(|g| format!("one_of({}, {})", name(g), name(groups + g)))
            .collect(),
        actions: (0..groups)
            .flat_map(|g| [replace(g, groups + g), replace(groups + g, g)])
            .collect(),
        clusters: (0..groups)
            .map(|g| ClusterSpec {
                comps: vec![g, groups + g],
                on_false: vec![g],
                on_true: vec![groups + g],
            })
            .collect(),
    }
}

#[test]
fn hand_written_specs_render_their_whole_compile() {
    assert_renders_whole("interleaved", &interleaved_spec());
    for groups in [1, 2, 5] {
        assert_renders_whole(&format!("shared hosts {groups}"), &shared_hosts_spec(groups));
    }
    assert_renders_whole("video 3", &WorldSpec::video(3));
    for objective in [Objective::LatencyMs, Objective::EnergyWatts] {
        assert_renders_whole(
            &format!("energy showcase {objective:?}"),
            &energy_showcase(objective),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_worlds_render_their_whole_compile(
        seed in 0u64..u64::MAX,
        clusters in 1usize..7,
        domain in 0usize..4,
    ) {
        let base = [
            ScenarioConfig::serverless(seed),
            ScenarioConfig::iaas(seed),
            ScenarioConfig::iaas_energy(seed),
            ScenarioConfig { domain: Domain::Video, ..ScenarioConfig::serverless(seed) },
        ][domain];
        let spec = generate(&ScenarioConfig { clusters, ..base }).spec;
        assert_renders_whole(&format!("{:?} seed {seed}, {clusters} clusters", base.domain), &spec);
    }
}
