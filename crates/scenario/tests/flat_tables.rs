//! Differential tests for the flat analysis tables: over the video world
//! and generated serverless and IaaS universes, every index that is stored
//! as a `Csr` answers exactly what the jagged `Vec<Vec<_>>` it replaced
//! would — same members, same order. The references are built here, the
//! straightforward way, from the world's public data alone.

use std::collections::BTreeSet;

use sada_expr::{CompId, Config};
use sada_fleet::{FleetWorld, WorldSpec};
use sada_plan::collab::collaborative_sets;
use sada_plan::{Action, ActionIndex};
use sada_scenario::{generate, ScenarioConfig};

fn worlds() -> Vec<(String, FleetWorld)> {
    let mut out = vec![("video".to_string(), FleetWorld::build(12))];
    for seed in [1u64, 7, 23] {
        for (domain, cfg) in
            [("serverless", ScenarioConfig::serverless(seed)), ("iaas", ScenarioConfig::iaas(seed))]
        {
            out.push((format!("{domain} seed {seed}"), FleetWorld::from_spec(generate(&cfg).spec)));
        }
    }
    out
}

/// `by_comp[c]`: the predicates mentioning `c`, in predicate order.
fn preds_by_comp(w: &FleetWorld) -> Vec<Vec<u32>> {
    let mut by_comp = vec![Vec::new(); w.universe.len()];
    for (p, e) in w.inv.exprs().iter().enumerate() {
        let mut vars = BTreeSet::new();
        e.collect_vars(&mut vars);
        for c in vars {
            by_comp[c.index()].push(p as u32);
        }
    }
    by_comp
}

/// The sorted, deduplicated union of `rows[c]` over `comps`.
fn union_of(rows: &[Vec<u32>], comps: &[CompId]) -> Vec<u32> {
    let set: BTreeSet<u32> = comps.iter().flat_map(|c| rows[c.index()].iter().copied()).collect();
    set.into_iter().collect()
}

/// One- and two-cluster scopes, as sessions ask for them.
fn scopes(w: &FleetWorld) -> Vec<Vec<CompId>> {
    let mut out: Vec<Vec<CompId>> = (0..w.groups).map(|g| w.scope_comps(&[(g, true)])).collect();
    out.extend((1..w.groups).map(|g| w.scope_comps(&[(g, true), (g - 1, false)])));
    out
}

#[test]
fn support_index_and_affected_lists_match_the_jagged_reference() {
    for (name, w) in worlds() {
        let compiled = w.search.compiled();
        let by_comp = preds_by_comp(&w);
        for (c, row) in by_comp.iter().enumerate() {
            assert_eq!(
                compiled.preds_of_comp(CompId::from_index(c)),
                row.as_slice(),
                "{name}: {c}"
            );
        }
        for (p, e) in w.inv.exprs().iter().enumerate() {
            let mut vars = BTreeSet::new();
            e.collect_vars(&mut vars);
            assert_eq!(compiled.support_of(p), vars.into_iter().collect::<Vec<_>>(), "{name}: {p}");
        }
        for (aix, a) in w.actions.iter().enumerate() {
            let want = union_of(&by_comp, a.touched());
            assert_eq!(compiled.affected_by_ids(a.touched()), want, "{name}: {}", a.name());
            assert_eq!(w.search.affected_preds(aix as u32), want, "{name}: {}", a.name());
        }
        for scope in scopes(&w) {
            assert_eq!(compiled.affected_by_ids(&scope), union_of(&by_comp, &scope), "{name}");
        }
    }
}

#[test]
fn scoped_action_subsets_match_a_scan_of_the_repertoire() {
    for (name, w) in worlds() {
        for scope in scopes(&w) {
            let mut sorted = scope.clone();
            sorted.sort_unstable();
            let inside = |a: &Action| a.touched().iter().all(|c| sorted.binary_search(c).is_ok());
            let want: Vec<u32> = (0..w.actions.len())
                .filter(|&ix| inside(&w.actions[ix]))
                .map(|ix| ix as u32)
                .collect();
            assert_eq!(w.search.scoped_action_ixs(&sorted), want, "{name}: scope {scope:?}");
        }
    }
}

#[test]
fn probes_match_the_jagged_buckets() {
    for (name, w) in worlds() {
        // The buckets as `Vec<Vec<_>>`: each action under its pivot.
        let width = w.universe.len();
        let (mut by_present, mut by_absent) = (vec![Vec::new(); width], vec![Vec::new(); width]);
        let mut always = Vec::new();
        for (ix, a) in w.actions.iter().enumerate() {
            match (a.removes().first(), a.adds().first()) {
                (Some(pivot), _) => by_present[pivot.index()].push(ix as u32),
                (None, Some(pivot)) => by_absent[pivot.index()].push(ix as u32),
                (None, None) => always.push(ix as u32),
            }
        }
        let index = ActionIndex::new(width, &w.actions);
        let init = w.initial_config();
        let mut configs = vec![Config::empty(width), init.clone()];
        configs.extend((0..w.groups).map(|g| w.target_for(&init, &[(g, true)])));
        configs.push(w.target_for(&init, &(0..w.groups).map(|g| (g, true)).collect::<Vec<_>>()));
        let mut got = Vec::new();
        for cfg in &configs {
            let mut want = always.clone();
            for c in (0..width).map(CompId::from_index) {
                let bucket = if cfg.contains(c) { &by_present } else { &by_absent };
                want.extend_from_slice(&bucket[c.index()]);
            }
            want.sort_unstable();
            index.probe(cfg, &mut got);
            assert_eq!(got, want, "{name}: {cfg}");
        }
    }
}

#[test]
fn collaborative_sets_match_the_oracle() {
    for (name, w) in worlds() {
        let oracle = collaborative_sets(&w.universe, &w.inv, &w.actions);
        assert_eq!(w.index.set_count(), oracle.len(), "{name}");
        for (set, members) in oracle.iter().enumerate() {
            assert_eq!(w.index.members(set), members.as_slice(), "{name}: set {set}");
            assert!(members.iter().all(|&c| w.index.set_of(c) == set), "{name}: set {set}");
        }
    }
}

/// Flip sets a session could ask for in an `n`-group video world: one
/// group each way, two at the ends, and every group at once.
fn video_flips(n: usize) -> Vec<Vec<(usize, bool)>> {
    vec![
        vec![(0, true)],
        vec![(n / 2, false)],
        vec![(n - 1, true), (0, true)],
        (0..n).map(|g| (g, true)).collect(),
    ]
}

/// The video world built from its shape equals the one compiled from
/// `WorldSpec::video`, table by table: ids, kernels, actions, placement,
/// collaborative sets, cluster modes, and the spec it reads back.
#[test]
fn the_built_video_world_equals_its_compiled_spec() {
    for n in [1, 2, 7, 1_000] {
        let built = FleetWorld::build(n);
        let compiled = FleetWorld::from_spec(WorldSpec::video(n));
        let names = |w: &FleetWorld| -> Vec<String> {
            w.universe.iter().map(|c| w.universe.name(c).to_string()).collect()
        };
        assert_eq!(names(&built), names(&compiled), "{n} groups: names");
        assert_eq!(built.inv.exprs(), compiled.inv.exprs(), "{n} groups: invariants");
        assert_eq!(
            format!("{:?}", built.search.compiled()),
            format!("{:?}", compiled.search.compiled()),
            "{n} groups: kernels"
        );
        let actions = |w: &FleetWorld| -> Vec<_> {
            let row = |a: &Action| {
                (a.id(), a.name().to_string(), a.removes().to_vec(), a.adds().to_vec(), a.cost())
            };
            w.actions.iter().map(row).collect()
        };
        assert_eq!(actions(&built), actions(&compiled), "{n} groups: actions");
        let hosts = |w: &FleetWorld| -> (usize, Vec<_>) {
            (w.model.process_count(), w.universe.iter().map(|c| w.model.host_of(c)).collect())
        };
        assert_eq!(hosts(&built), hosts(&compiled), "{n} groups: hosts");
        let sets = |w: &FleetWorld| -> Vec<Vec<CompId>> {
            (0..w.index.set_count()).map(|s| w.index.members(s).to_vec()).collect()
        };
        assert_eq!(sets(&built), sets(&compiled), "{n} groups: collaborative sets");
        assert_eq!(built.groups, compiled.groups, "{n} groups");
        for g in 0..n {
            assert_eq!(built.cluster_comps(g), compiled.cluster_comps(g), "{n} groups: {g}");
        }
        let init = built.initial_config();
        assert_eq!(init, compiled.initial_config(), "{n} groups: boot");
        let all = built.target_for(&init, &(0..n).map(|g| (g, true)).collect::<Vec<_>>());
        for from in [&init, &all] {
            for flips in video_flips(n) {
                assert_eq!(
                    built.target_for(from, &flips),
                    compiled.target_for(from, &flips),
                    "{n} groups: {flips:?}"
                );
                assert_eq!(built.scope_comps(&flips), compiled.scope_comps(&flips));
            }
        }
        let spec: &WorldSpec = &built.spec;
        assert_eq!(*spec, WorldSpec::video(n), "{n} groups: spec");
    }
}
