//! Energy adaptation — the paper's intro motivates adapting to "energy
//! consumption" at the wireless edge. Here the hand-held's battery runs low
//! and the system *downgrades* from DES-128 back to DES-64 (cheaper
//! decryption), the mirror image of the security-hardening case study,
//! using a reverse action table and the same safe adaptation machinery.
//!
//! Run with: `cargo run --example energy_adaptation`

use std::collections::HashSet;

use sada_repro::core::{run_adaptation, AdaptationSpec, RunConfig};
use sada_repro::expr::{InvariantSet, Universe};
use sada_repro::model::SystemModel;
use sada_repro::plan::{Action, ActionId};

fn main() {
    // Same components and invariants as the case study…
    let mut u = Universe::new();
    for n in ["E1", "E2", "D1", "D2", "D3", "D4", "D5"] {
        u.intern(n);
    }
    let invariants = InvariantSet::parse(
        &["one_of(D1, D2, D3)", "one_of(E1, E2)", "E1 => (D1 | D2) & D4", "E2 => (D3 | D2) & D5"],
        &mut u,
    )
    .unwrap();
    // …but the *reverse* action table: the operations needed to soften
    // security for battery life. Decoder downgrades on the hand-held are
    // cheap; compound encoder/decoder swaps again cost more and need
    // draining.
    let c = |names: &[&str]| u.config_of(names);
    let actions = vec![
        Action::replace(0, "E2 -> E1", &c(&["E2"]), &c(&["E1"]), 10),
        Action::replace(1, "D3 -> D2", &c(&["D3"]), &c(&["D2"]), 10),
        Action::replace(2, "D2 -> D1", &c(&["D2"]), &c(&["D1"]), 10),
        Action::replace(3, "D5 -> D4", &c(&["D5"]), &c(&["D4"]), 10),
        Action::insert(4, "+D4", &c(&["D4"]), 10),
        Action::remove(5, "-D5", &c(&["D5"]), 10),
        Action::replace(6, "(D3,E2) -> (D2,E1)", &c(&["D3", "E2"]), &c(&["D2", "E1"]), 100),
        Action::replace(7, "(D5,E2) -> (D4,E1)", &c(&["D5", "E2"]), &c(&["D4", "E1"]), 100),
    ];
    let mut model = SystemModel::new();
    let server = model.add_process();
    let handheld = model.add_process();
    let laptop = model.add_process();
    model.place_all(
        &u,
        &[
            ("E1", server),
            ("E2", server),
            ("D1", handheld),
            ("D2", handheld),
            ("D3", handheld),
            ("D4", laptop),
            ("D5", laptop),
        ],
    );
    let drain: HashSet<ActionId> = [ActionId(6), ActionId(7)].into();
    let spec = AdaptationSpec::new(u, invariants, actions, model, vec![0, 1, 2], drain);
    let u = spec.universe();

    // Battery-low trigger: go from hardened 1010010 back to thrifty 0100101.
    let source = u.config_from_bits("1010010"); // {D5, D3, E2}
    let target = u.config_from_bits("0100101"); // {D4, D1, E1}

    println!("== energy downgrade plan ==");
    let sag = spec.build_sag();
    println!("SAG: {} nodes, {} arcs", sag.node_count(), sag.edge_count());
    let map = spec.minimum_adaptation_path(&source, &target).expect("reverse path exists");
    println!("MAP: {map}");
    for step in &map.steps {
        println!(
            "  {}: {:<22} {} -> {}",
            step.action,
            spec.actions()[step.action.index()].name(),
            step.from.to_names(u),
            step.to.to_names(u)
        );
    }
    // The downgrade mirrors the paper's hardening: via the compatible D2 and
    // a temporary D4/D5 coexistence, all in cheap solo steps.
    assert!(map.cost <= 50, "cheap fine-grained route exists (cost {})", map.cost);

    println!("\n== executing over the simulated network ==");
    let report = run_adaptation(&spec, &source, &target, &RunConfig::default());
    println!(
        "outcome: success={} steps={} in {} ({} msgs)",
        report.outcome.success,
        report.outcome.steps_committed,
        report.finished_at,
        report.messages_sent
    );
    assert!(report.outcome.success);
    assert_eq!(report.outcome.final_config, target);

    // And the alternatives the failure ladder would try:
    for (i, p) in sag.k_shortest_paths(&source, &target, 3).iter().enumerate() {
        println!("  rank {}: {p}", i + 1);
    }
}
