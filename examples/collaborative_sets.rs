//! Section 7 scalability: decompose a large adaptive system into
//! collaborative sets and plan within the touched set only, comparing the
//! work done by full enumeration vs. scoped enumeration vs. lazy search.
//!
//! Run with: `cargo run --example collaborative_sets`

use sada_repro::expr::{enumerate, InvariantSet, Universe};
use sada_repro::plan::{collab, Action, Sag, Search};

fn main() {
    // A system of K independent codec pairs, like K MetaSocket streams each
    // with its own old/new encoder. Only stream 0 is being adapted.
    const K: usize = 8;
    let mut u = Universe::new();
    let mut sources = Vec::new();
    for k in 0..K {
        u.intern(&format!("Old{k}"));
        u.intern(&format!("New{k}"));
    }
    let inv_src: Vec<String> = (0..K).map(|k| format!("one_of(Old{k}, New{k})")).collect();
    let inv_refs: Vec<&str> = inv_src.iter().map(String::as_str).collect();
    let invariants = InvariantSet::parse(&inv_refs, &mut u).unwrap();

    let mut actions = Vec::new();
    for k in 0..K {
        let old = u.config_of(&[&format!("Old{k}")]);
        let new = u.config_of(&[&format!("New{k}")]);
        actions.push(Action::replace(k as u32, &format!("Old{k}->New{k}"), &old, &new, 10));
        sources.push(old);
    }

    // Source: everything old. Target: stream 0 upgraded.
    let mut source = u.empty_config();
    let mut target = u.empty_config();
    for k in 0..K {
        let old = u.id(&format!("Old{k}")).unwrap();
        source.insert(old);
        if k == 0 {
            target.insert(u.id("New0").unwrap());
        } else {
            target.insert(old);
        }
    }

    // Collaborative sets: K independent pairs.
    let sets = collab::collaborative_sets(&u, &invariants, &actions);
    println!("{} components partition into {} collaborative sets", u.len(), sets.len());
    assert_eq!(sets.len(), K);

    // Full enumeration: 2^K safe configurations.
    let all_safe = enumerate::safe_configs(&u, &invariants);
    println!("full safe-configuration set: {} configurations", all_safe.len());

    // Scoped enumeration: only the touched set matters -> 2 configurations.
    let scope = collab::scope_for(&u, &invariants, &actions, &source, &target);
    println!(
        "adaptation touches {} components: {:?}",
        scope.len(),
        scope.iter().map(|&c| u.name(c)).collect::<Vec<_>>()
    );
    let scoped_safe = enumerate::safe_configs_scoped(&u, &invariants, &scope, &source);
    println!("scoped safe-configuration set: {} configurations", scoped_safe.len());
    assert_eq!(scoped_safe.len(), 2);

    // Both plans agree; the scoped SAG is tiny.
    let full_sag = Sag::build(all_safe, &actions);
    let scoped_sag = Sag::build(scoped_safe, &actions);
    let full_path = full_sag.shortest_path(&source, &target).unwrap();
    let scoped_path = scoped_sag.shortest_path(&source, &target).unwrap();
    assert_eq!(full_path.cost, scoped_path.cost);
    println!(
        "full SAG {} nodes / {} arcs   vs   scoped SAG {} nodes / {} arcs — same MAP cost {}",
        full_sag.node_count(),
        full_sag.edge_count(),
        scoped_sag.node_count(),
        scoped_sag.edge_count(),
        full_path.cost
    );

    // The lazy planner explores even less without any SAG at all.
    let (lazy_path, stats) =
        Search::new(&invariants, &actions, source.width()).plan(&source, &target);
    assert_eq!(lazy_path.unwrap().cost, full_path.cost);
    println!(
        "lazy planner: {} nodes expanded, {} safety checks (vs {} configs enumerated eagerly)",
        stats.expanded,
        stats.safety_checks,
        full_sag.node_count()
    );
}
