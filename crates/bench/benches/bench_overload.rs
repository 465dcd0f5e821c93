//! Sustained-overload resilience: Poisson arrivals at 2–4× measured
//! capacity against a degraded fleet (one group 400× slow, one agent
//! crash-looping), comparing the historical always-admit + fixed-ladder
//! configuration against the protected one (RTT-adaptive timeouts,
//! per-agent circuit breakers, bounded bulkhead with deterministic
//! shedding).
//!
//! Besides the criterion timing of the simulation itself, this bench
//! writes `BENCH_overload.json` at the repository root and asserts the
//! headline robustness claims:
//!
//! * at 4× load the protected plane keeps goodput at ≥ 80% of the healthy
//!   calibrated capacity, with p99 admission latency under the pinned
//!   bound, while the baseline collapses below half of that floor;
//! * the breakers actually trip during the agent's outages;
//! * identical seeds reproduce identical event streams (fingerprint
//!   equality across two full runs).
//!
//! Set `SADA_BENCH_SMOKE=1` to skip the timing loops and run only the
//! assertion sweep + JSON write (the CI regression gate).

use criterion::{criterion_group, criterion_main, Criterion};
use sada_fleet::{measure_capacity, run_overload, OverloadConfig, OverloadReport};
use sada_obs::Kind;

const GROUPS: usize = 12;
const SEED: u64 = 42;

/// Pinned p99 admission-wait bound for the protected plane at 4× load, μs.
/// Observed ~36 ms at the pinned seed; the headroom only lets through real
/// regressions in shedding or admission, not jitter (the run is
/// deterministic).
const P99_ADMISSION_BOUND_US: u64 = 250_000;

/// CI smoke mode: assertion sweep + JSON only, no timing loops.
fn smoke() -> bool {
    std::env::var_os("SADA_BENCH_SMOKE").is_some()
}

fn bench_overload(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let capacity = measure_capacity(GROUPS, SEED);
    let mut g = c.benchmark_group("overload");
    g.sample_size(10);
    g.bench_function("protected_4x", |b| {
        b.iter(|| run_overload(&OverloadConfig::protected(GROUPS, 4, SEED), capacity).succeeded)
    });
    g.bench_function("baseline_4x", |b| {
        b.iter(|| run_overload(&OverloadConfig::degraded(GROUPS, 4, SEED), capacity).succeeded)
    });
    g.finish();
}

fn row(label: &str, load: u32, r: &OverloadReport) -> String {
    format!(
        "    {{\"config\": \"{label}\", \"load\": {load}, \"offered\": {}, \
         \"succeeded\": {}, \"committed_flips\": {}, \"goodput_per_sec\": {:.1}, \
         \"shed\": {}, \"rejected\": {}, \"breaker_trips\": {}, \
         \"suppressed_sends\": {}, \"p50_admission_us\": {}, \
         \"p99_admission_us\": {}, \"makespan_us\": {}}}",
        r.offered,
        r.succeeded,
        r.committed_flips,
        r.goodput_per_sec,
        r.counts[Kind::SessionShed],
        r.counts[Kind::SessionRejected] + r.counts[Kind::ScopeRejected],
        r.counts[Kind::BreakerOpened],
        r.suppressed_sends,
        r.p50_admission_us,
        r.p99_admission_us,
        r.makespan_us,
    )
}

fn write_bench_json() {
    let capacity = measure_capacity(GROUPS, SEED);
    let floor = 0.8 * capacity;
    let mut rows = Vec::new();
    for load in [2u32, 4] {
        let base = run_overload(&OverloadConfig::degraded(GROUPS, load, SEED), capacity);
        let prot = run_overload(&OverloadConfig::protected(GROUPS, load, SEED), capacity);
        if load == 4 {
            assert!(
                prot.goodput_per_sec >= floor,
                "protected goodput must stay above 80% of capacity at 4x \
                 ({:.1} vs floor {floor:.1})",
                prot.goodput_per_sec,
            );
            assert!(
                base.goodput_per_sec < floor / 2.0,
                "the always-admit fixed-ladder baseline must collapse under 4x overload \
                 ({:.1} vs floor {floor:.1})",
                base.goodput_per_sec,
            );
            assert!(
                prot.goodput_per_sec > base.goodput_per_sec,
                "protection must beat the baseline at 4x"
            );
            assert!(
                prot.p99_admission_us <= P99_ADMISSION_BOUND_US,
                "protected p99 admission wait exceeded the pinned bound \
                 ({} vs {P99_ADMISSION_BOUND_US} us)",
                prot.p99_admission_us,
            );
            let c = &prot.counts;
            assert!(c[Kind::BreakerOpened] > 0, "the flapping agent must trip its breaker");
            assert!(c[Kind::SessionShed] > 0, "4x overload must exercise the bulkhead");
            // Determinism: a second identical run reproduces the exact
            // event stream, not just the aggregates.
            let again = run_overload(&OverloadConfig::protected(GROUPS, load, SEED), capacity);
            assert_eq!(
                prot.fingerprint, again.fingerprint,
                "identical seeds must reproduce identical event streams"
            );
        }
        rows.push(row("baseline", load, &base));
        rows.push(row("protected", load, &prot));
    }
    let json = format!(
        "{{\n  \"bench\": \"overload\",\n  \"workload\": \"Poisson arrivals over {GROUPS} groups \
         for 1s, one group 400x slow, one agent crash-looping; goodput = committed group \
         adaptations per second of window\",\n  \"capacity_per_sec\": {capacity:.1},\n  \
         \"goodput_floor_per_sec\": {floor:.1},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    // crates/bench -> repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overload.json");
    std::fs::write(path, &json).expect("write BENCH_overload.json");
    println!("wrote {path}:\n{json}");
}

fn bench_entry(c: &mut Criterion) {
    bench_overload(c);
    write_bench_json();
}

criterion_group!(benches, bench_entry);
criterion_main!(benches);
