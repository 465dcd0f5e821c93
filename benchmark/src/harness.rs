//! The timing protocol every workload goes through, and the result it
//! yields.
//!
//! Closed loop, one driver thread. Per workload: three set-ups (generate
//! the inputs from the seed, then one untimed run — the first of them
//! cold), then timed iterations until the run's seconds are used up. The
//! facts of every iteration (counts, simulated times, fingerprint) must
//! equal those of the first; the full output checks run on the warm-up
//! and on the last iteration, and the twin runs (other thread count, flat
//! or fault-free twin) after the loop. With tracing on, every other
//! iteration runs inside a span, and the per-layer replays follow.

use std::time::Instant;

use crate::alloc;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::span::{self_time_of, Tracer};
use crate::stats::{median_u64, spread, summarize, Summary};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed iterations a run makes at the very least.
const MIN_ITERS: usize = 5;

/// Named values a workload hands back (exact facts or per-layer timings).
pub type Named = Vec<(&'static str, f64)>;

/// What must repeat bit for bit on every iteration at one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// Operations attempted (sessions submitted, plans asked for).
    pub attempted: u64,
    /// Operations without a successful verdict.
    pub failed: u64,
    /// Work units behind `events_per_s`: bus events on the fleet
    /// workloads, search-node expansions on `plan_frontier`.
    pub events: u64,
    /// FNV-1a of the event stream (or of the planned paths).
    pub fingerprint: u64,
    /// Exact per-layer values read off the outputs.
    pub exact: Named,
}

/// Wall-clock seconds of the twin runs made after the timed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Twins {
    /// The flat `run_fleet` twin of a sharded scenario.
    pub flat_wall_s: Option<f64>,
    /// The same sharded scenario on one worker thread.
    pub one_thread_wall_s: Option<f64>,
    /// Makespan of the fault-free twin, simulated µs.
    pub clean_makespan_us: Option<u64>,
}

pub trait Workload {
    const NAME: &'static str;
    type Input;
    type Output;

    /// Builds every input from the seed.
    fn generate(seed: u64) -> Self::Input;
    /// FNV digest of the inputs, so a generator that drifts under the
    /// benchmark reads as an input change, not a performance change.
    fn digest(input: &Self::Input) -> u64;
    /// One iteration: the operation being timed.
    fn run(input: &Self::Input) -> Self::Output;
    fn facts(input: &Self::Input, out: &Self::Output) -> Facts;
    /// Output checks that need nothing but one iteration's output.
    fn check(input: &Self::Input, out: &Self::Output) -> Result<(), String>;
    /// Checks that need another run: thread count, flat and clean twins.
    fn twins(input: &Self::Input, out: &Self::Output) -> Result<Twins, String>;
    /// Per-layer replays on the inputs and outputs of the last iteration.
    /// Returns the timed per-layer metrics and the names of the spans that
    /// replay the iteration's own work (the reconciliation sums those).
    fn replay(
        input: &Self::Input,
        out: &Self::Output,
        twins: &Twins,
        wall_s: f64,
        tracer: &mut Tracer,
    ) -> (Named, &'static [&'static str]);
}

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct WorkloadResult {
    pub name: &'static str,
    pub seed: u64,
    pub input_digest: u64,
    pub facts: Facts,
    /// One summary per entry of [`END_TO_END`], in table order.
    pub end_to_end: [Summary; END_TO_END.len()],
    /// Present after a traced run: every per-layer metric, in table order.
    pub per_layer: Option<Named>,
    /// JSONL of the spans, after a traced run.
    pub trace_jsonl: Option<String>,
}

pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

pub fn drive<W: Workload>(args: &RunArgs) -> Result<WorkloadResult, String> {
    let mut tracer = Tracer::new(W::NAME);

    // Set-up: inputs from the seed plus the first (cold) run, three times.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut reference: Option<(Facts, u64)> = None;
    let mut kept = None;
    for _ in 0..SETUPS {
        // Free the previous set-up's inputs and outputs before the next.
        drop(kept.take());
        let t = Instant::now();
        let input = W::generate(args.seed);
        let out = W::run(&input);
        setups.push(t.elapsed().as_secs_f64());
        let now = (W::facts(&input, &out), W::digest(&input));
        match &reference {
            Some(first) => ensure(now == *first, || {
                format!("set-ups disagree:\n  first {first:?}\n  now   {now:?}")
            })?,
            None => reference = Some(now),
        }
        kept = Some((input, out));
    }
    let (input, warm) = kept.expect("SETUPS >= 1");
    let (reference, input_digest) = reference.expect("SETUPS >= 1");
    W::check(&input, &warm)?;
    drop(warm);

    // Timed iterations. With tracing on, odd iterations run inside a span
    // so both kinds see the same drift.
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let (mut peaks, mut counts, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut last = None;
    while plain.len() + spanned.len() < MIN_ITERS || started.elapsed().as_secs_f64() < args.seconds
    {
        drop(last.take());
        let in_span = args.trace && (plain.len() + spanned.len()) % 2 == 1;
        let window = alloc::Window::open();
        let (out, wall) = if in_span {
            tracer.span("e2e.iter", |_| W::run(&input))
        } else {
            let t = Instant::now();
            let out = W::run(&input);
            (out, t.elapsed().as_secs_f64())
        };
        let usage = window.close();
        if in_span { &mut spanned } else { &mut plain }.push(wall);
        peaks.push(usage.peak_bytes);
        counts.push(usage.count);
        bytes.push(usage.bytes);
        let facts = W::facts(&input, &out);
        ensure(facts == reference, || {
            format!("iteration facts drifted:\n  first {reference:?}\n  now   {facts:?}")
        })?;
        last = Some(out);
    }
    let out = last.expect("MIN_ITERS >= 1");
    W::check(&input, &out)?;
    let twins = W::twins(&input, &out)?;

    let wall = summarize(&plain);
    let done = (reference.attempted - reference.failed) as f64;
    // A rate's quartiles come from the opposite wall-time quartiles.
    let rate = |work: f64| Summary {
        median: work / wall.median,
        q1: work / wall.q3,
        q3: work / wall.q1,
        n: wall.n,
    };
    let peaks_f: Vec<f64> = peaks.iter().map(|&p| p as f64).collect();
    // In `END_TO_END` order: setup_s, wall_s, ops_per_s, events_per_s, peak_heap_bytes.
    let end_to_end =
        [summarize(&setups), wall, rate(done), rate(reference.events as f64), summarize(&peaks_f)];

    let mut per_layer = None;
    let mut trace_jsonl = None;
    if args.trace {
        let ((mut named, in_sum), _) =
            tracer.span("layers", |t| W::replay(&input, &out, &twins, wall.median, t));
        named.extend(reference.exact.iter().copied());
        let layers_sum: f64 = in_sum.iter().map(|name| self_time_of(tracer.spans(), name)).sum();
        named.extend([
            ("alloc.count", median_u64(&counts)),
            ("alloc.bytes", median_u64(&bytes)),
            ("layers_sum_s", layers_sum),
            ("unattributed_s", wall.median - layers_sum),
            ("attributed_share", layers_sum / wall.median),
            ("trace.overhead_share", summarize(&spanned).median / wall.median - 1.0),
        ]);
        for (name, _) in &named {
            assert!(crate::metrics::layer(name).is_some(), "{name} is not a per-layer metric");
        }
        // Table order; a metric this workload has no use for reads 0.
        per_layer = Some(
            PER_LAYER
                .iter()
                .map(|l| {
                    let v = named.iter().find(|(n, _)| *n == l.name).map_or(0.0, |&(_, v)| v);
                    (l.name, v)
                })
                .collect(),
        );
        trace_jsonl = Some(tracer.to_jsonl());
    }

    Ok(WorkloadResult {
        name: W::NAME,
        seed: args.seed,
        input_digest,
        facts: reference,
        end_to_end,
        per_layer,
        trace_jsonl,
    })
}

impl WorkloadResult {
    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        println!(
            "## {}  seed={}  input_digest={:#018x}  fingerprint={:#018x}  attempted={}  failed={}",
            self.name,
            self.seed,
            self.input_digest,
            self.facts.fingerprint,
            self.facts.attempted,
            self.facts.failed
        );
        match &self.per_layer {
            None => {
                for (m, s) in END_TO_END.iter().zip(&self.end_to_end) {
                    println!(
                        "{:<28} {:>18.6} {:<6} q1={:.6} q3={:.6} iqr={:.1}% n={}",
                        m.name,
                        s.median,
                        m.unit,
                        s.q1,
                        s.q3,
                        spread(s) * 100.0,
                        s.n
                    );
                }
                for (name, value) in &self.facts.exact {
                    let unit = crate::metrics::layer(name).map_or("", |l| l.unit);
                    println!("{name:<28} {value:>18.6} {unit:<6} exact");
                }
            }
            Some(layers) => {
                for (def, (name, value)) in PER_LAYER.iter().zip(layers) {
                    let exact = if def.exact { "exact" } else { "" };
                    println!("{name:<30} {value:>20.6} {:<6} {exact}", def.unit);
                }
            }
        }
    }

    /// The result object the driver reads: the last line of stdout.
    pub fn contract_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(String, Json)> = match &self.per_layer {
            None => END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(m, s)| (m.name.to_string(), metric(s.median, m.unit)))
                .collect(),
            Some(layers) => PER_LAYER
                .iter()
                .zip(layers)
                .map(|(def, &(name, value))| (name.to_string(), metric(value, def.unit)))
                .collect(),
        };
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.facts.attempted as f64)),
            ("failed", Json::Num(self.facts.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    /// The workload's entry in a result file (`compare` reads it back).
    pub fn to_json(&self) -> Json {
        let hex = |v: u64| Json::str(format!("{v:#018x}"));
        let named = |values: &Named| {
            Json::Obj(values.iter().map(|&(n, v)| (n.to_string(), Json::Num(v))).collect())
        };
        let mut fields = vec![
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("input_digest".to_string(), hex(self.input_digest)),
            ("fingerprint".to_string(), hex(self.facts.fingerprint)),
            ("attempted".to_string(), Json::Num(self.facts.attempted as f64)),
            ("failed".to_string(), Json::Num(self.facts.failed as f64)),
            (
                "end_to_end".to_string(),
                Json::Obj(
                    END_TO_END
                        .iter()
                        .zip(&self.end_to_end)
                        .map(|(m, s)| {
                            let entry = Json::obj([
                                ("value", Json::Num(s.median)),
                                ("unit", Json::str(m.unit)),
                                ("q1", Json::Num(s.q1)),
                                ("q3", Json::Num(s.q3)),
                                ("n", Json::Num(s.n as f64)),
                            ]);
                            (m.name.to_string(), entry)
                        })
                        .collect(),
                ),
            ),
            ("exact".to_string(), named(&self.facts.exact)),
        ];
        if let Some(layers) = &self.per_layer {
            fields.push(("per_layer".to_string(), named(layers)));
        }
        Json::Obj(fields)
    }
}
