//! Pinned golden trace: the quickstart scenario's full unified event stream,
//! captured as a JSONL trace and compared line-for-line against
//! `tests/golden/quickstart_trace.jsonl`.
//!
//! This locks down the *entire* observability spine at once — event
//! taxonomy, emission sites, ordering, timestamps, and the codec — for a
//! small deterministic run; and it ties the fingerprint the fleet compares
//! runs by to the committed bytes. Any intentional change to what the bus reports
//! (new event kinds, different stamping) shows up as a diff here and is
//! refreshed with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use sada_core::specfile::parse_spec_file;
use sada_core::{run_adaptation, AdaptationSpec, RunConfig};
use sada_expr::Config;
use sada_fleet::fingerprint_events_unsharded;
use sada_obs::{decode_lines, fnv1a, Bus, JsonlSink, RingSink};

/// The `examples/quickstart.rs` system: a TLS-1.2 → TLS-1.3 migration whose
/// invariants force the single compound step.
fn quickstart_spec() -> (AdaptationSpec, Config, Config) {
    let spec = parse_spec_file(include_str!("../examples/quickstart.spec"))
        .expect("the quickstart spec compiles");
    let source = spec.universe().config_of(&["Tls12", "Client12"]);
    let target = spec.universe().config_of(&["Tls13", "Client13"]);
    (spec, source, target)
}

#[test]
fn quickstart_trace_matches_golden() {
    let (spec, source, target) = quickstart_spec();
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 16)));
    let bus = Bus::new();
    bus.attach(&sink);
    bus.attach(&ring);
    let cfg = RunConfig { bus, ..RunConfig::default() };
    let report = run_adaptation(&spec, &source, &target, &cfg);
    assert!(report.outcome.success, "quickstart adaptation must succeed");

    let dump = sink.borrow().dump();
    assert!(!dump.is_empty(), "the run must produce a trace");
    // The trace must always decode back to the events that produced it.
    let decoded = decode_lines(&dump).expect("trace decodes");
    assert_eq!(decoded, ring.borrow().events(), "the dump decodes to the events published");

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
    // The fingerprint runs are compared by, computed from the events without
    // writing a line, is the FNV-1a of the committed bytes.
    assert_eq!(fingerprint_events_unsharded(&decoded), fnv1a(&golden));
}
