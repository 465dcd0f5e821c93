//! Quickstart: define a tiny adaptive system, plan a safe adaptation path,
//! and execute it with the manager/agent protocol on the simulated network.
//!
//! Run with: `cargo run --example quickstart`

use std::collections::HashSet;

use sada_repro::core::{run_adaptation, AdaptationSpec, RunConfig};
use sada_repro::expr::{InvariantSet, Universe};
use sada_repro::model::SystemModel;
use sada_repro::plan::Action;

fn main() {
    // 1. Analysis phase — describe the system.
    //    Components: a TLS-1.2 stack and a TLS-1.3 stack on a gateway, plus
    //    a matching client library on an edge node.
    let mut universe = Universe::new();
    let invariants = InvariantSet::parse(
        &[
            "one_of(Tls12, Tls13)",       // the gateway runs exactly one stack
            "one_of(Client12, Client13)", // the edge runs exactly one client
            "Tls13 => Client13",          // the new stack needs the new client
            "Tls12 => Client12",          // and vice versa
        ],
        &mut universe,
    )
    .expect("invariants parse");

    let c = |names: &[&str]| universe.config_of(names);
    let actions = vec![
        Action::replace(0, "Client12 -> Client13", &c(&["Client12"]), &c(&["Client13"]), 20),
        Action::replace(
            1,
            "(Tls12,Client12) -> (Tls13,Client13)",
            &c(&["Tls12", "Client12"]),
            &c(&["Tls13", "Client13"]),
            45,
        ),
        Action::replace(2, "Tls12 -> Tls13", &c(&["Tls12"]), &c(&["Tls13"]), 20),
    ];

    let mut model = SystemModel::new();
    let gateway = model.add_process();
    let edge = model.add_process();
    model.place_all(
        &universe,
        &[("Tls12", gateway), ("Tls13", gateway), ("Client12", edge), ("Client13", edge)],
    );

    let spec = AdaptationSpec::new(universe, invariants, actions, model, HashSet::new());

    // 2. Detection and setup phase — enumerate safe configurations, build
    //    the SAG, find the minimum adaptation path.
    let u = spec.universe();
    let source = u.config_of(&["Tls12", "Client12"]);
    let target = u.config_of(&["Tls13", "Client13"]);

    println!("safe configurations:");
    for cfg in spec.safe_configs() {
        println!("  {} = {}", cfg.to_bit_string(), cfg.to_names(u));
    }
    let sag = spec.build_sag();
    println!("SAG: {} nodes, {} arcs", sag.node_count(), sag.edge_count());

    let map = spec.minimum_adaptation_path(&source, &target).expect("a safe path exists");
    println!("minimum adaptation path: {map}");
    for step in &map.steps {
        println!("  {} : {} -> {}", step.action, step.from.to_names(u), step.to.to_names(u));
    }

    // Note: the invariants make the one-step-at-a-time route impossible
    // (neither stack can change without its client), so the MAP is the
    // single compound action despite its higher sticker price.
    assert_eq!(map.steps.len(), 1);

    // 3. Realization phase — execute it over the simulated network.
    let report = run_adaptation(&spec, &source, &target, &RunConfig::default());
    println!(
        "adaptation {} in {} using {} messages ({} steps committed)",
        if report.outcome.success { "succeeded" } else { "failed" },
        report.finished_at,
        report.messages_sent,
        report.outcome.steps_committed,
    );
    assert!(report.outcome.success);
    assert_eq!(report.outcome.final_config, target);
}
