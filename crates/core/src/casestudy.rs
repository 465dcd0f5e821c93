//! The paper's Section 5 case study, encoded exactly: the video
//! multicasting system's components, invariants, adaptive actions (Table 2)
//! and deployment, compiled from [`CASE_STUDY_SPEC`], and the adaptation
//! request (DES-64 → DES-128 hardening).
//!
//! Component registration order is `E1, E2, D1, D2, D3, D4, D5`, so
//! [`Config::to_bit_string`] prints the paper's `(D5,D4,D3,D2,D1,E2,E1)`
//! vectors verbatim (source `0100101`, target `1010010`).
//!
//! [`Config::to_bit_string`]: sada_expr::Config::to_bit_string

use sada_expr::Config;
use sada_model::ProcessId;

use crate::specfile::{parse_spec_file, CASE_STUDY_SPEC};
use crate::AdaptationSpec;

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

/// Builds the Section 5 system: compiles [`CASE_STUDY_SPEC`], whose
/// processes are declared server, hand-held, laptop.
pub fn case_study() -> CaseStudy {
    let spec = parse_spec_file(CASE_STUDY_SPEC).expect("the case study's spec file compiles");
    let source = spec.universe().config_from_bits("0100101");
    let target = spec.universe().config_from_bits("1010010");
    let deployment =
        Deployment { server: ProcessId(0), handheld: ProcessId(1), laptop: ProcessId(2) };
    CaseStudy { spec, deployment, source, target }
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

    /// The case study is its spec file, table by table: components in id
    /// order, invariants, actions, placement and drain set. Only the ten
    /// compound rows' names are spelled apart, by the spaces after commas.
    #[test]
    fn case_study_is_its_spec_file_table_by_table() {
        use crate::specfile::{parse_spec_file, CASE_STUDY_SPEC};
        use crate::AdaptationSpec;

        let cs = case_study();
        let (built, file) = (&cs.spec, parse_spec_file(CASE_STUDY_SPEC).expect("it parses"));
        let names = |s: &AdaptationSpec| {
            let u = s.universe();
            u.iter().map(|c| u.name(c).to_string()).collect::<Vec<_>>()
        };
        assert_eq!(names(built), ["E1", "E2", "D1", "D2", "D3", "D4", "D5"]);
        assert_eq!(names(built), names(&file));
        assert_eq!(built.invariants().exprs(), file.invariants().exprs());

        const COMPOUND: [&str; 10] = [
            "(D1, E1) -> (D2, E2)",
            "(D1, E1) -> (D3, E2)",
            "(D2, E1) -> (D3, E2)",
            "(D4, E1) -> (D5, E2)",
            "(D1, D4) -> (D2, D5)",
            "(D1, D4) -> (D3, D5)",
            "(D2, D4) -> (D3, D5)",
            "(D1, D4, E1) -> (D2, D5, E2)",
            "(D1, D4, E1) -> (D3, D5, E2)",
            "(D2, D4, E1) -> (D3, D5, E2)",
        ];
        assert_eq!(built.actions().len(), file.actions().len());
        for (ix, (a, b)) in built.actions().iter().zip(file.actions()).enumerate() {
            assert_eq!(a.id().index(), ix);
            assert_eq!(b.id().index(), ix);
            assert_eq!((a.removes(), a.adds(), a.cost()), (b.removes(), b.adds(), b.cost()));
            match ix.checked_sub(5).and_then(|row| COMPOUND.get(row)) {
                Some(&name) => {
                    assert_eq!(b.name(), name);
                    assert_eq!(a.name().replace(", ", ","), name.replace(", ", ","));
                }
                None => assert_eq!(a.name(), b.name()),
            }
        }

        let (m, n) = (built.model(), file.model());
        assert_eq!(m.process_count(), 3);
        assert_eq!(m.process_count(), n.process_count());
        for c in built.universe().iter() {
            assert_eq!(m.host_of(c), n.host_of(c));
        }
        let drains = |s: &AdaptationSpec| {
            let mut ids: Vec<usize> = s.drain_actions().iter().map(|a| a.index()).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(drains(built), (5..15).collect::<Vec<_>>());
        assert_eq!(drains(built), drains(&file));

        let u = built.universe();
        let channels: Vec<_> =
            m.channels().iter().map(|ch| (u.name(ch.from), u.name(ch.to))).collect();
        assert_eq!(channels, [("E1", "D1"), ("E1", "D4"), ("E2", "D3"), ("E2", "D5")]);
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
