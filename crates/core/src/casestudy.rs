//! The paper's Section 5 case study, encoded exactly: the video
//! multicasting system's components, invariants, adaptive actions (Table 2),
//! deployment, and the adaptation request (DES-64 → DES-128 hardening).
//!
//! Component registration order is `E1, E2, D1, D2, D3, D4, D5`, so
//! [`Config::to_bit_string`] prints the paper's `(D5,D4,D3,D2,D1,E2,E1)`
//! vectors verbatim (source `0100101`, target `1010010`).
//!
//! [`Config::to_bit_string`]: sada_expr::Config::to_bit_string

use std::collections::HashSet;

use sada_expr::{Config, InvariantSet, Universe};
use sada_model::{ProcessId, SystemModel};
use sada_plan::{Action, ActionId};

use crate::spec::AdaptationSpec;

/// The three processes of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deployment {
    /// The video server (hosts encoders E1, E2).
    pub server: ProcessId,
    /// The hand-held client (hosts decoders D1, D2, D3 — at most one at a
    /// time, per the resource constraint).
    pub handheld: ProcessId,
    /// The laptop client (hosts decoders D4, D5).
    pub laptop: ProcessId,
}

/// The full case-study bundle.
#[derive(Debug)]
pub struct CaseStudy {
    /// *P = (S, I, T, R, A)* plus deployment.
    pub spec: AdaptationSpec,
    /// Which process is which.
    pub deployment: Deployment,
    /// `0100101` — `{D4, D1, E1}`.
    pub source: Config,
    /// `1010010` — `{D5, D3, E2}`.
    pub target: Config,
}

/// Builds the Section 5 system.
pub fn case_study() -> CaseStudy {
    let mut u = Universe::new();
    for name in ["E1", "E2", "D1", "D2", "D3", "D4", "D5"] {
        u.intern(name);
    }

    // System invariants (Section 5.1):
    //   resource constraint  — exactly one of D1, D2, D3 on the hand-held;
    //   security constraint  — exactly one encoder so data stays encoded;
    // Dependency invariants:
    //   E1 → (D1 ∨ D2) ∧ D4     E2 → (D3 ∨ D2) ∧ D5
    let invariants = InvariantSet::parse(
        &["one_of(D1, D2, D3)", "one_of(E1, E2)", "E1 => (D1 | D2) & D4", "E2 => (D3 | D2) & D5"],
        &mut u,
    )
    .expect("case-study invariants parse");

    // Table 2, verbatim. Ids are zero-based (A1 = id 0); costs in ms.
    let c = |names: &[&str]| u.config_of(names);
    let actions = vec![
        Action::replace(0, "E1 -> E2", &c(&["E1"]), &c(&["E2"]), 10),
        Action::replace(1, "D1 -> D2", &c(&["D1"]), &c(&["D2"]), 10),
        Action::replace(2, "D1 -> D3", &c(&["D1"]), &c(&["D3"]), 10),
        Action::replace(3, "D2 -> D3", &c(&["D2"]), &c(&["D3"]), 10),
        Action::replace(4, "D4 -> D5", &c(&["D4"]), &c(&["D5"]), 10),
        Action::replace(5, "(D1,E1) -> (D2,E2)", &c(&["D1", "E1"]), &c(&["D2", "E2"]), 100),
        Action::replace(6, "(D1,E1) -> (D3,E2)", &c(&["D1", "E1"]), &c(&["D3", "E2"]), 100),
        Action::replace(7, "(D2,E1) -> (D3,E2)", &c(&["D2", "E1"]), &c(&["D3", "E2"]), 100),
        Action::replace(8, "(D4,E1) -> (D5,E2)", &c(&["D4", "E1"]), &c(&["D5", "E2"]), 100),
        Action::replace(9, "(D1,D4) -> (D2,D5)", &c(&["D1", "D4"]), &c(&["D2", "D5"]), 50),
        Action::replace(10, "(D1,D4) -> (D3,D5)", &c(&["D1", "D4"]), &c(&["D3", "D5"]), 50),
        Action::replace(11, "(D2,D4) -> (D3,D5)", &c(&["D2", "D4"]), &c(&["D3", "D5"]), 50),
        Action::replace(
            12,
            "(D1,D4,E1) -> (D2,D5,E2)",
            &c(&["D1", "D4", "E1"]),
            &c(&["D2", "D5", "E2"]),
            150,
        ),
        Action::replace(
            13,
            "(D1,D4,E1) -> (D3,D5,E2)",
            &c(&["D1", "D4", "E1"]),
            &c(&["D3", "D5", "E2"]),
            150,
        ),
        Action::replace(
            14,
            "(D2,D4,E1) -> (D3,D5,E2)",
            &c(&["D2", "D4", "E1"]),
            &c(&["D3", "D5", "E2"]),
            150,
        ),
        Action::remove(15, "-D4", &c(&["D4"]), 10),
        Action::insert(16, "+D5", &c(&["D5"]), 10),
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
    model.connect(u.id("E1").unwrap(), u.id("D1").unwrap());
    model.connect(u.id("E1").unwrap(), u.id("D4").unwrap());
    model.connect(u.id("E2").unwrap(), u.id("D3").unwrap());
    model.connect(u.id("E2").unwrap(), u.id("D5").unwrap());

    // Actions pairing an encoder swap with decoder swaps need the stream
    // drained ("the server has to be blocked until the last packet processed
    // by the encoder has been decoded", Section 5.1) — A6..A15.
    let drain_actions: HashSet<ActionId> = (5u32..15).map(ActionId).collect();

    let source = u.config_from_bits("0100101");
    let target = u.config_from_bits("1010010");
    let spec = AdaptationSpec::new(u, invariants, actions, model, vec![0, 1, 2], drain_actions);
    CaseStudy { spec, deployment: Deployment { server, handheld, laptop }, source, target }
}

/// Table 1's safe configuration set, as printed in the paper (bit vector,
/// member list), in the paper's row order.
pub const TABLE1_ROWS: [(&str, &str); 8] = [
    ("0100101", "{D4,D1,E1}"),
    ("1100101", "{D5,D4,D1,E1}"),
    ("1101001", "{D5,D4,D2,E1}"),
    ("1101010", "{D5,D4,D2,E2}"),
    ("1110010", "{D5,D4,D3,E2}"),
    ("0101001", "{D4,D2,E1}"),
    ("1001010", "{D5,D2,E2}"),
    ("1010010", "{D5,D3,E2}"),
];

/// The paper's reported minimum adaptation path (Section 5.1): action
/// labels in execution order, total cost 50 ms.
pub const PAPER_MAP: [&str; 5] = ["A2", "A17", "A1", "A16", "A4"];

/// Total cost of the paper's MAP.
pub const PAPER_MAP_COST: u64 = 50;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn table1_exact() {
        let cs = case_study();
        let safe = cs.spec.safe_configs();
        assert_eq!(safe.len(), 8, "Table 1 has eight safe configurations");
        let got: BTreeSet<String> = safe.iter().map(|c| c.to_bit_string()).collect();
        let want: BTreeSet<String> = TABLE1_ROWS.iter().map(|(b, _)| b.to_string()).collect();
        assert_eq!(got, want);
        // Names render as in the paper too.
        let u = cs.spec.universe();
        for (bits, names) in TABLE1_ROWS {
            let cfg = u.config_from_bits(bits);
            assert_eq!(cfg.to_names(u), names);
        }
    }

    #[test]
    fn table2_action_labels_and_costs() {
        let cs = case_study();
        let actions = cs.spec.actions();
        assert_eq!(actions.len(), 17);
        let costs: Vec<u64> = actions.iter().map(|a| a.cost()).collect();
        assert_eq!(
            costs,
            vec![10, 10, 10, 10, 10, 100, 100, 100, 100, 50, 50, 50, 150, 150, 150, 10, 10]
        );
        assert_eq!(actions[0].id().to_string(), "A1");
        assert_eq!(actions[16].id().to_string(), "A17");
        assert_eq!(actions[15].name(), "-D4");
        assert_eq!(actions[16].name(), "+D5");
    }

    #[test]
    fn source_and_target_are_safe() {
        let cs = case_study();
        assert!(cs.spec.is_safe(&cs.source));
        assert!(cs.spec.is_safe(&cs.target));
        assert_eq!(cs.source.to_bit_string(), "0100101");
        assert_eq!(cs.target.to_bit_string(), "1010010");
    }

    #[test]
    fn figure4_sag_shape() {
        let cs = case_study();
        let sag = cs.spec.build_sag();
        assert_eq!(sag.node_count(), 8, "Figure 4 has the 8 safe configurations");
        // Exhaustively derived arc set (see EXPERIMENTS.md): 16 arcs.
        assert_eq!(sag.edge_count(), 16);
        // Spot-check the arcs legible in Figure 4.
        let u = cs.spec.universe();
        let arc = |from: &str, to: &str, label: &str| {
            let f = sag.index_of(&u.config_from_bits(from)).unwrap();
            let t = sag.index_of(&u.config_from_bits(to)).unwrap();
            assert!(
                sag.edges()
                    .iter()
                    .any(|e| e.from == f && e.to == t && e.action.to_string() == label),
                "missing arc {from} --{label}--> {to}"
            );
        };
        arc("0100101", "0101001", "A2"); // D1->D2
        arc("0100101", "1100101", "A17"); // +D5
        arc("0101001", "1101001", "A17");
        arc("1100101", "1101001", "A2");
        arc("1101001", "1101010", "A1"); // E1->E2
        arc("1101010", "1001010", "A16"); // -D4
        arc("1101010", "1110010", "A4"); // D2->D3
        arc("1110010", "1010010", "A16");
        arc("1001010", "1010010", "A4");
        arc("0100101", "1001010", "A13");
        arc("0100101", "1010010", "A14");
        arc("0101001", "1010010", "A15");
        arc("0101001", "1001010", "A9");
        arc("1100101", "1110010", "A7");
        arc("1101001", "1110010", "A8");
        arc("1100101", "1101010", "A6");
    }

    #[test]
    fn map_is_a2_a17_a1_a16_a4_at_cost_50() {
        let cs = case_study();
        let map = cs.spec.minimum_adaptation_path(&cs.source, &cs.target).expect("MAP exists");
        assert_eq!(map.cost, PAPER_MAP_COST);
        let labels: Vec<String> = map.action_ids().iter().map(|a| a.to_string()).collect();
        assert_eq!(labels, PAPER_MAP.to_vec());
        assert!(map.is_well_formed());
        // Intermediate configurations match Section 5.2's steps.
        let u = cs.spec.universe();
        let bits: Vec<String> = map.configs().iter().map(|c| c.to_bit_string()).collect();
        assert_eq!(bits, vec!["0100101", "0101001", "1101001", "1101010", "1001010", "1010010"]);
        let _ = u;
    }

    #[test]
    fn lazy_planner_matches_map_cost() {
        let cs = case_study();
        let lazy =
            sada_plan::lazy::plan(cs.spec.invariants(), cs.spec.actions(), &cs.source, &cs.target)
                .unwrap();
        assert_eq!(lazy.cost, PAPER_MAP_COST);
    }

    #[test]
    fn alternate_paths_are_ranked() {
        let cs = case_study();
        let sag = cs.spec.build_sag();
        let paths = sag.k_shortest_paths(&cs.source, &cs.target, 5);
        assert!(paths.len() >= 3);
        assert_eq!(paths[0].cost, 50);
        assert!(paths.windows(2).all(|w| w[0].cost <= w[1].cost));
    }

    #[test]
    fn deployment_placement_matches_figure3() {
        let cs = case_study();
        let u = cs.spec.universe();
        let m = cs.spec.model();
        assert_eq!(m.host_of(u.id("E1").unwrap()), Some(cs.deployment.server));
        assert_eq!(m.host_of(u.id("D2").unwrap()), Some(cs.deployment.handheld));
        assert_eq!(m.host_of(u.id("D5").unwrap()), Some(cs.deployment.laptop));
        // A13 touches all three processes; A2 only the handheld.
        let a13 = &cs.spec.actions()[12];
        assert_eq!(m.processes_hosting(&a13.touched_config(u.len())).len(), 3);
        let a2 = &cs.spec.actions()[1];
        assert_eq!(m.processes_hosting(&a2.touched_config(u.len())), vec![cs.deployment.handheld]);
    }

    #[test]
    fn drain_set_is_a6_through_a15() {
        let cs = case_study();
        for a in cs.spec.actions() {
            let needs = cs.spec.drain_actions().contains(&a.id());
            let expected = (5..15).contains(&(a.id().index()));
            assert_eq!(needs, expected, "{}", a.id());
        }
    }
}
