//! Observability-spine overhead: the full case-study adaptation run with no
//! sinks attached (instrumented code paths, nobody listening) versus the
//! ring + [`Counts`] tap the timeline report and every fleet plane use. The zero-sink configuration is
//! the one every hot path pays for unconditionally, so it must stay within
//! noise of the pre-instrumentation baseline.
//!
//! Besides the criterion comparison, this bench writes `BENCH_obs.json` at
//! the repository root with a plain wall-clock measurement of both
//! configurations (the vendored criterion has no machine-readable output),
//! so the perf trajectory of the bus is recorded across PRs.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use sada_core::casestudy::case_study;
use sada_core::{run_adaptation, RunConfig};
use sada_obs::{Bus, Counts, RingSink};

fn bench_bus_overhead(c: &mut Criterion) {
    let cs = case_study();
    let mut g = c.benchmark_group("obs_bus");
    g.sample_size(20);
    g.bench_function("run_zero_sinks", |b| {
        b.iter(|| {
            let r = run_adaptation(&cs.spec, &cs.source, &cs.target, &RunConfig::default());
            assert!(r.outcome.success);
            r
        })
    });
    g.bench_function("run_ring_plus_counts", |b| {
        b.iter(|| {
            let (bus, counts) = tapped();
            let cfg = RunConfig { bus, ..RunConfig::default() };
            let r = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
            assert!(r.outcome.success && counts.borrow().total() > 0);
            r
        })
    });
    g.finish();
    write_bench_json();
}

/// A bus with the tap attached: a ring and the per-kind counts.
fn tapped() -> (Bus, Rc<RefCell<Counts>>) {
    let bus = Bus::new();
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 16)));
    let counts = Rc::new(RefCell::new(Counts::new()));
    bus.attach(&ring);
    bus.attach(&counts);
    (bus, counts)
}

/// Median-of-samples wall-clock time for one adaptation run under `mk_bus`.
/// Returns (ns per run, events observed per run).
fn measure(samples: usize, mk_bus: impl Fn() -> (Bus, Option<Rc<RefCell<Counts>>>)) -> (u64, u64) {
    let cs = case_study();
    let mut times: Vec<u64> = Vec::with_capacity(samples);
    let mut events = 0u64;
    for i in 0..samples + 3 {
        let (bus, counts) = mk_bus();
        let cfg = RunConfig { bus, ..RunConfig::default() };
        let t0 = Instant::now();
        let r = run_adaptation(&cs.spec, &cs.source, &cs.target, &cfg);
        let dt = t0.elapsed().as_nanos() as u64;
        assert!(r.outcome.success);
        if i >= 3 {
            // First three iterations are warmup.
            times.push(dt);
            if let Some(c) = counts {
                events = c.borrow().total();
            }
        }
    }
    times.sort_unstable();
    (times[times.len() / 2], events)
}

fn write_bench_json() {
    let samples = 30;
    let (zero_ns, _) = measure(samples, || (Bus::new(), None));
    let (tapped_ns, events) = measure(samples, || {
        let (bus, counts) = tapped();
        (bus, Some(counts))
    });
    let overhead_pct = (tapped_ns as f64 - zero_ns as f64) / zero_ns as f64 * 100.0;
    let events_per_sec = events as f64 / (tapped_ns as f64 / 1e9);
    let host = sada_bench::host_record();
    let json = format!(
        "{{\n  \"bench\": \"obs_bus_overhead\",\n  \"workload\": \"case_study 5-step adaptation (run_adaptation)\",\n  \"command\": \"cargo bench -q -p sada-bench --bench bench_obs\",\n  {host},\n  \"samples\": {samples},\n  \"median_ns_zero_sinks\": {zero_ns},\n  \"median_ns_ring_plus_counts\": {tapped_ns},\n  \"events_per_run\": {events},\n  \"events_per_sec_tapped\": {events_per_sec:.0},\n  \"tap_overhead_pct\": {overhead_pct:.2}\n}}\n"
    );
    // crates/bench -> repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, &json).expect("write BENCH_obs.json");
    println!("wrote {path}:\n{json}");
}

criterion_group!(benches, bench_bus_overhead);
criterion_main!(benches);
