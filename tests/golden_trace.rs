//! Pinned golden trace: the quickstart scenario's full unified event stream,
//! captured as a JSONL trace and compared line-for-line against
//! `tests/golden/quickstart_trace.jsonl`.
//!
//! This locks down the *entire* observability spine at once — event
//! taxonomy, emission sites, ordering, timestamps, and the codec — for a
//! small deterministic run. Any intentional change to what the bus reports
//! (new event kinds, different stamping) shows up as a diff here and is
//! refreshed with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use sada_core::{run_adaptation, AdaptationSpec, RunConfig};
use sada_expr::{Config, InvariantSet, Universe};
use sada_model::SystemModel;
use sada_obs::{decode_lines, Bus, JsonlSink};
use sada_plan::Action;

/// The `examples/quickstart.rs` system: a TLS-1.2 → TLS-1.3 migration whose
/// invariants force the single compound step.
fn quickstart_spec() -> (AdaptationSpec, Config, Config) {
    let mut universe = Universe::new();
    let invariants = InvariantSet::parse(
        &[
            "one_of(Tls12, Tls13)",
            "one_of(Client12, Client13)",
            "Tls13 => Client13",
            "Tls12 => Client12",
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
    let source = universe.config_of(&["Tls12", "Client12"]);
    let target = universe.config_of(&["Tls13", "Client13"]);
    let spec =
        AdaptationSpec::new(universe, invariants, actions, model, vec![0, 1], HashSet::new());
    (spec, source, target)
}

#[test]
fn quickstart_trace_matches_golden() {
    let (spec, source, target) = quickstart_spec();
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let bus = Bus::new();
    bus.attach(&sink);
    let cfg = RunConfig { bus, ..RunConfig::default() };
    let report = run_adaptation(&spec, &source, &target, &cfg);
    assert!(report.outcome.success, "quickstart adaptation must succeed");

    let dump = sink.borrow().dump();
    assert!(!dump.is_empty(), "the run must produce a trace");
    // The trace must always decode back to the events that produced it.
    let decoded = decode_lines(&dump).expect("trace decodes");
    assert_eq!(decoded.len(), sink.borrow().len());

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/quickstart_trace.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &dump).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test golden_trace",
            path.display()
        )
    });
    // Line-by-line comparison gives a readable first-divergence report
    // instead of two multi-kilobyte strings.
    for (no, (got, want)) in dump.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "trace diverges from golden at line {} — if intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_trace",
            no + 1
        );
    }
    assert_eq!(
        dump.lines().count(),
        golden.lines().count(),
        "trace length changed — if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
