//! Section 4.4 in action: inject the paper's two failure classes —
//! loss-of-message and fail-to-reset — into the case-study adaptation and
//! watch the manager's recovery ladder (retry, next-cheapest path, return
//! to source, wait for user).
//!
//! Run with: `cargo run --example failure_injection`

use sada_repro::core::casestudy::case_study;
use sada_repro::core::{run_adaptation, RunConfig};
use sada_repro::proto::encode_journal;
use sada_repro::simnet::{LinkConfig, SimDuration};

fn main() {
    let cs = case_study();

    println!("== 1. clean run (no failures) ==");
    let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &RunConfig::default());
    println!(
        "  outcome: success={} steps={} at {} ({} msgs)",
        report.outcome.success,
        report.outcome.steps_committed,
        report.finished_at,
        report.messages_sent
    );

    println!("\n== 2. loss-of-message: 20% loss on manager<->agent links ==");
    for seed in 0..5u64 {
        let cfg = RunConfig {
            seed,
            link: LinkConfig::lossy(SimDuration::from_millis(1), 0.2),
            ..RunConfig::default()
        };
        let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        println!(
            "  seed {seed}: success={} gave_up={} final={} dropped {} of {} msgs",
            report.outcome.success,
            report.outcome.gave_up,
            report.outcome.final_config.to_bit_string(),
            report.messages_dropped,
            report.messages_sent,
        );
        assert!(cs.spec.is_safe(&report.outcome.final_config), "must always end safe");
    }

    println!("\n== 3. fail-to-reset on the hand-held (a long critical segment) ==");
    let cfg = RunConfig { fail_to_reset: vec![1], ..RunConfig::default() };
    let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
    println!(
        "  outcome: success={} gave_up={} final={}",
        report.outcome.success,
        report.outcome.gave_up,
        report.outcome.final_config.to_bit_string()
    );
    println!("  manager journal (every decision, in order):");
    for line in encode_journal(&report.journal).lines() {
        println!("    {line}");
    }
    assert!(!report.outcome.success);
    assert!(cs.spec.is_safe(&report.outcome.final_config));

    println!("\n== 4. fail-to-reset on the laptop ==");
    let cfg = RunConfig { fail_to_reset: vec![2], ..RunConfig::default() };
    let report = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
    println!(
        "  outcome: success={} gave_up={} final={}",
        report.outcome.success,
        report.outcome.gave_up,
        report.outcome.final_config.to_bit_string()
    );
    assert!(cs.spec.is_safe(&report.outcome.final_config));

    println!("\nevery run ended in a safe configuration — the paper's guarantee held.");
}
