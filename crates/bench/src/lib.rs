//! Shared workload generators for the benchmark harness and the
//! table/figure report binary.

use sada_core::AdaptationSpec;
use sada_expr::{CompId, InvariantSet, Universe};
use sada_plan::Action;
use sada_proto::SpecBuilder;

/// The host record every `BENCH_*.json` carries, as the referee's `run.sh`
/// takes it: cores, toolchain, and revision ("-dirty" when the rows were
/// measured on uncommitted code). Three JSON members, `"host_cores"`,
/// `"rustc"` and `"git_rev"`, separated at the indent of a bench file's
/// top-level object.
pub fn host_record() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tool = |cmd: &str, args: &[&str]| {
        let out = std::process::Command::new(cmd).args(args).output().ok();
        let text = out.filter(|o| o.status.success()).map(|o| o.stdout);
        text.and_then(|t| String::from_utf8(t).ok())
            .map_or_else(|| "unknown".to_string(), |t| t.trim().to_string())
    };
    let rustc = tool("rustc", &["-V"]);
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let git_rev = tool("git", &["-C", root, "describe", "--always", "--dirty", "--abbrev=40"]);
    format!("\"host_cores\": {cores},\n  \"rustc\": \"{rustc}\",\n  \"git_rev\": \"{git_rev}\"")
}

/// A system of `k` independent old/new component pairs (each guarded by a
/// `one_of` invariant) with one replacement action per pair. Safe
/// configuration count is `2^k`; useful for scaling sweeps.
pub fn paired_system(k: usize) -> (Universe, InvariantSet, Vec<Action>) {
    let mut u = Universe::new();
    for i in 0..k {
        u.intern(&format!("Old{i}"));
        u.intern(&format!("New{i}"));
    }
    let srcs: Vec<String> = (0..k).map(|i| format!("one_of(Old{i}, New{i})")).collect();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let inv = InvariantSet::parse(&refs, &mut u).expect("generated invariants parse");
    let actions = (0..k)
        .map(|i| {
            Action::replace(
                i as u32,
                &format!("Old{i}->New{i}"),
                &u.config_of(&[&format!("Old{i}")]),
                &u.config_of(&[&format!("New{i}")]),
                10,
            )
        })
        .collect();
    (u, inv, actions)
}

/// A grouped flip workload for the planner hot-path sweep: `n_comps`
/// components forming `n_comps / 2` independent `one_of(Old, New)` groups
/// with forward *and* backward replace actions (cost 1), a source with
/// every group on `Old`, and a target with the first half of the groups
/// flipped to `New`. Every candidate the search generates is safe, so the
/// invariant-evaluation counts isolate the checking strategy itself.
pub fn grouped_flip_workload(
    n_comps: usize,
) -> (Universe, InvariantSet, Vec<Action>, sada_expr::Config, sada_expr::Config) {
    assert!(n_comps >= 4 && n_comps.is_multiple_of(2), "need whole groups");
    let groups = n_comps / 2;
    let mut u = Universe::with_capacity(n_comps);
    for g in 0..groups {
        u.intern(&format!("Old{g}"));
        u.intern(&format!("New{g}"));
    }
    let srcs: Vec<String> = (0..groups).map(|g| format!("one_of(Old{g}, New{g})")).collect();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let inv = InvariantSet::parse(&refs, &mut u).expect("generated invariants parse");
    let mut actions = Vec::with_capacity(2 * groups);
    for g in 0..groups {
        let old = u.config_of(&[&format!("Old{g}")]);
        let new = u.config_of(&[&format!("New{g}")]);
        actions.push(Action::replace(2 * g as u32, &format!("fwd{g}"), &old, &new, 1));
        actions.push(Action::replace(2 * g as u32 + 1, &format!("back{g}"), &new, &old, 1));
    }
    let mut source = u.empty_config();
    for g in 0..groups {
        source.insert(u.id(&format!("Old{g}")).unwrap());
    }
    let mut target = source.clone();
    for g in 0..groups / 2 {
        target.remove(u.id(&format!("Old{g}")).unwrap());
        target.insert(u.id(&format!("New{g}")).unwrap());
    }
    (u, inv, actions, source, target)
}

/// A "carousel" system: `n` mutually-exclusive components with a
/// replacement action between every ordered pair (cost = distance). Safe
/// configurations: the `n` singletons; the SAG is a dense digraph.
pub fn carousel_system(n: usize) -> (Universe, InvariantSet, Vec<Action>) {
    let mut u = Universe::new();
    for i in 0..n {
        u.intern(&format!("C{i}"));
    }
    let names: Vec<String> = (0..n).map(|i| format!("C{i}")).collect();
    let joined = names.join(", ");
    let inv = InvariantSet::parse(&[&format!("one_of({joined})")], &mut u).unwrap();
    let mut actions = Vec::new();
    let mut id = 0;
    for a in 0..n {
        for b in 0..n {
            if a != b {
                let cost = (a as i64 - b as i64).unsigned_abs();
                actions.push(Action::replace(
                    id,
                    &format!("C{a}->C{b}"),
                    &u.config_of(&[&format!("C{a}")]),
                    &u.config_of(&[&format!("C{b}")]),
                    cost,
                ));
                id += 1;
            }
        }
    }
    (u, inv, actions)
}

/// A `k`-process system whose single adaptive action replaces one
/// component on *every* process simultaneously — the widest possible
/// barrier for the realization protocol (one agent per process).
pub fn wide_step_spec(k: usize) -> (AdaptationSpec, sada_expr::Config, sada_expr::Config) {
    let mut b = SpecBuilder::with_capacity([2 * k, k, 1]);
    b.processes(k);
    for i in 0..k {
        b.comp(&format!("Old{i}"), i).expect("a fresh name");
        b.comp(&format!("New{i}"), i).expect("a fresh name");
    }
    let srcs: Vec<String> = (0..k).map(|i| format!("one_of(Old{i}, New{i})")).collect();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    b.parse_invariants(&refs).expect("invariants parse");
    let (olds, news): (Vec<usize>, Vec<usize>) = (0..k).map(|i| (2 * i, 2 * i + 1)).unzip();
    b.action("upgrade-everything", &olds, &news, 100, false).expect("disjoint in-range lists");
    let spec = b.finish();
    let u = spec.universe();
    let source = sada_expr::Config::from_ids(u.len(), olds.iter().map(|&c| CompId::from_index(c)));
    let target = sada_expr::Config::from_ids(u.len(), news.iter().map(|&c| CompId::from_index(c)));
    (spec, source, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_expr::enumerate;

    #[test]
    fn paired_system_scales_as_two_to_the_k() {
        for k in [1usize, 3, 5] {
            let (u, inv, actions) = paired_system(k);
            assert_eq!(u.len(), 2 * k);
            assert_eq!(actions.len(), k);
            assert_eq!(enumerate::safe_configs(&u, &inv).len(), 1 << k);
        }
    }

    #[test]
    fn grouped_flip_workload_plans_half_the_groups() {
        let (u, inv, actions, src, dst) = grouped_flip_workload(16);
        assert_eq!(u.len(), 16);
        assert_eq!(actions.len(), 16);
        assert!(inv.satisfied_by(&src) && inv.satisfied_by(&dst));
        let p = sada_plan::lazy::plan(&inv, &actions, &src, &dst).unwrap();
        assert_eq!(p.len(), 4, "half of 8 groups flip, one step each");
        assert_eq!(p.cost, 4);
    }

    #[test]
    fn carousel_has_n_singletons_and_dense_arcs() {
        let (u, inv, actions) = carousel_system(5);
        let safe = enumerate::safe_configs(&u, &inv);
        assert_eq!(safe.len(), 5);
        assert_eq!(actions.len(), 20);
        let sag = sada_plan::Sag::build(safe, &actions);
        assert_eq!(sag.edge_count(), 20);
    }

    #[test]
    fn wide_step_runs_one_barrier_across_all_agents() {
        let (spec, source, target) = wide_step_spec(6);
        let report =
            sada_core::run_adaptation(&spec, &source, &target, &sada_core::RunConfig::default());
        assert!(report.outcome.success);
        assert_eq!(report.outcome.steps_committed, 1);
        assert_eq!(report.outcome.final_config, target);
    }
}
