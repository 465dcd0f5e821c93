//! Energy adaptation — the paper's intro motivates adapting to "energy
//! consumption" at the wireless edge. Here the hand-held's battery runs low
//! and the system *downgrades* from DES-128 back to DES-64 (cheaper
//! decryption), the mirror image of the security-hardening case study,
//! using a reverse action table and the same safe adaptation machinery.
//!
//! Run with: `cargo run --example energy_adaptation`

use sada_repro::core::specfile::parse_spec_file;
use sada_repro::core::{run_adaptation, RunConfig};

/// Same processes, components and invariants as the case study, but the
/// *reverse* action table: the operations needed to soften security for
/// battery life. Decoder downgrades on the hand-held are cheap; compound
/// encoder/decoder swaps again cost more and need draining.
const ENERGY_SPEC: &str = "
[processes]
video-server
handheld-client
laptop-client

[components]
E1 @ video-server
E2 @ video-server
D1 @ handheld-client
D2 @ handheld-client
D3 @ handheld-client
D4 @ laptop-client
D5 @ laptop-client

[invariants]
one_of(D1, D2, D3)
one_of(E1, E2)
E1 => (D1 | D2) & D4
E2 => (D3 | D2) & D5

[actions]
E2 -> E1 cost 10
D3 -> D2 cost 10
D2 -> D1 cost 10
D5 -> D4 cost 10
+D4 cost 10
-D5 cost 10
(D3,E2) -> (D2,E1) cost 100 drain
(D5,E2) -> (D4,E1) cost 100 drain
";

fn main() {
    let spec = parse_spec_file(ENERGY_SPEC).expect("the energy spec compiles");
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
