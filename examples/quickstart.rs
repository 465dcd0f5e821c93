//! Quickstart: define a tiny adaptive system, plan a safe adaptation path,
//! and execute it with the manager/agent protocol on the simulated network.
//!
//! Run with: `cargo run --example quickstart`

use sada_repro::core::specfile::parse_spec_file;
use sada_repro::core::{run_adaptation, RunConfig};

/// The system, in the spec-file format: a TLS-1.2 stack and a TLS-1.3
/// stack on a gateway, plus a matching client library on an edge node.
const QUICKSTART_SPEC: &str = include_str!("quickstart.spec");

fn main() {
    // 1. Analysis phase — describe the system.
    let spec = parse_spec_file(QUICKSTART_SPEC).expect("the quickstart spec compiles");

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
