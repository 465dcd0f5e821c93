//! Detection-and-setup phase costs: SAG construction (Figure 4), Dijkstra
//! MAP (Section 5.1), Yen's ranked alternatives (failure ladder), and the
//! lazy partial-exploration heuristic (Section 7 future work) — plus the
//! planner hot-path sweep comparing the compiled search (word-wise
//! invariant kernels, incremental checks, action index) against the
//! tree-walking baseline on the identical search skeleton.
//!
//! Besides the criterion comparison, this bench writes
//! `BENCH_planning.json` at the repository root with the 16–48-component
//! sweep: per-leg invariant-evaluation, safety-check, probe, and expansion
//! counts plus wall time, and for the compiled leg the allocator calls of
//! one query (a counting global allocator). The 48-component row is the
//! blind uniform-cost search over 24 *independent* groups — 7.04 M
//! expansions, the largest number in the repository and the case for
//! ROADMAP item 3 (factor the planner along collaborative sets). The write
//! *asserts* the headline claims — the compiled path does at least 5x less
//! predicate work at 24 components, one query there allocates fewer times
//! than a ceiling that does not grow with the nodes it discovers (its
//! tables double; nothing is allocated per node or per candidate), and the
//! 16-component workload stays within its pinned safety-check budget (a
//! regression gate run by `ci.sh`). Set
//! `SADA_BENCH_SMOKE=1` to skip the criterion timing loops but still run
//! the sweep, the assertions, and the JSON write.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sada_bench::{carousel_system, grouped_flip_workload};
use sada_core::casestudy::case_study;
use sada_expr::enumerate;
use sada_plan::{lazy, LazyStats, Sag, Search};

/// Allocator calls so far (a `realloc` counts as the `alloc` it defaults to).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a static atomic, so touching it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// CI smoke mode: correctness sweep + JSON only, no timing loops.
fn smoke() -> bool {
    std::env::var_os("SADA_BENCH_SMOKE").is_some()
}

/// Safety-check budget for the 16-component grouped flip workload. The
/// measured count is deterministic (uniform-cost search, fixed tie-break;
/// currently 746); the pin has ~10% headroom so only a real regression in
/// exploration or candidate vetting trips it.
const SAFETY_CHECK_BUDGET_16: u64 = 820;

/// Allocator calls one compiled query over the 24-component workload may
/// make, whatever it discovers (`search_alloc.rs` holds the same ceiling):
/// its scratch configuration, buffers, table doublings and path. Measured
/// 67; a buffer per discovered node adds thousands.
const UCS_24_ALLOC_CEILING: u64 = 100;

fn bench_case_study_planning(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let cs = case_study();
    let safe = cs.spec.safe_configs();
    let actions = cs.spec.actions().to_vec();
    let sag = Sag::build(safe.clone(), &actions);
    let mut g = c.benchmark_group("case_study_planning");
    g.bench_function("fig4_sag_build", |b| {
        b.iter(|| {
            let s = Sag::build(safe.clone(), &actions);
            assert_eq!(s.node_count(), 8);
            s
        })
    });
    g.bench_function("map_dijkstra", |b| {
        b.iter(|| {
            let p = sag.shortest_path(&cs.source, &cs.target).unwrap();
            assert_eq!(p.cost, 50);
            p
        })
    });
    g.bench_function("yen_k4", |b| b.iter(|| sag.k_shortest_paths(&cs.source, &cs.target, 4)));
    g.bench_function("map_lazy", |b| {
        b.iter(|| {
            let p = lazy::plan(cs.spec.invariants(), &actions, &cs.source, &cs.target).unwrap();
            assert_eq!(p.cost, 50);
            p
        })
    });
    g.bench_function("end_to_end_setup_phase", |b| {
        // Enumerate + build + plan, as the manager would on a request.
        b.iter(|| {
            let safe = cs.spec.safe_configs();
            let sag = Sag::build(safe, &actions);
            sag.shortest_path(&cs.source, &cs.target).unwrap()
        })
    });
    g.finish();
}

fn bench_planning_scaling(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let mut g = c.benchmark_group("planning_scaling");
    g.sample_size(10);
    for n in [8usize, 16, 32, 64] {
        let (u, inv, actions) = carousel_system(n);
        let safe = enumerate::safe_configs(&u, &inv);
        let sag = Sag::build(safe.clone(), &actions);
        let from = u.config_of(&["C0"]);
        let to = u.config_of(&[&format!("C{}", n - 1)]);
        g.bench_with_input(BenchmarkId::new("sag_build", n), &n, |b, _| {
            b.iter(|| Sag::build(safe.clone(), &actions))
        });
        g.bench_with_input(BenchmarkId::new("dijkstra", n), &n, |b, _| {
            b.iter(|| sag.shortest_path(&from, &to).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("lazy", n), &n, |b, _| {
            b.iter(|| lazy::plan(&inv, &actions, &from, &to).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("astar", n), &n, |b, _| {
            b.iter(|| Search::new(&inv, &actions, from.width()).plan_astar(&from, &to).0.unwrap())
        });
    }
    g.finish();
}

/// One measured leg of the hot-path sweep.
struct Leg {
    stats: LazyStats,
    wall_ns: u128,
    cost: u64,
    /// Allocator calls of the first query.
    allocs: u64,
}

fn run_leg(
    search: &Search,
    src: &sada_expr::Config,
    dst: &sada_expr::Config,
    extra_iters: usize,
) -> Leg {
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let t = Instant::now();
    let (path, stats) = search.plan(src, dst);
    let mut wall_ns = t.elapsed().as_nanos();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let cost = path.expect("grouped flip workload always has a path").cost;
    for _ in 0..extra_iters {
        let t = Instant::now();
        let (p, _) = search.plan(src, dst);
        let dt = t.elapsed().as_nanos();
        assert!(p.is_some());
        wall_ns = wall_ns.min(dt);
    }
    Leg { stats, wall_ns, cost, allocs }
}

fn bench_hot_path(c: &mut Criterion) {
    if !smoke() {
        let (u, inv, actions, src, dst) = grouped_flip_workload(24);
        let kernel = Search::new(&inv, &actions, u.len());
        let baseline = sada_plan::oracle::tree_walk_search(&inv, &actions, u.len());
        let mut g = c.benchmark_group("planner_hot_path");
        g.sample_size(10);
        g.bench_function("tree_walk_24", |b| b.iter(|| baseline.plan(&src, &dst).0.unwrap()));
        g.bench_function("kernel_24", |b| b.iter(|| kernel.plan(&src, &dst).0.unwrap()));
        g.finish();
    }
    write_planning_json();
}

fn write_planning_json() {
    let mut rows = String::new();
    // 48 is the frontier-bottleneck row: uniform-cost expansions grow
    // ~17x per 8 components (93 / 1.6k / 26k / 7.0M), so 48 is the largest
    // width the blind search completes; the timed legs drop to one
    // iteration there (the counts, not the wall, are the point).
    for n in [16usize, 24, 32, 48] {
        let (u, inv, actions, src, dst) = grouped_flip_workload(n);
        let kernel = Search::new(&inv, &actions, u.len());
        let baseline = sada_plan::oracle::tree_walk_search(&inv, &actions, u.len());
        // The 48-component row times the single (minutes-long) initial
        // query only; the counts are deterministic either way.
        let iters = if n >= 48 {
            0
        } else if smoke() {
            3
        } else {
            20
        };
        // Builds are reusable: per-query work is what the sweep measures.
        let after = run_leg(&kernel, &src, &dst, iters);
        let before = run_leg(&baseline, &src, &dst, iters);
        assert_eq!(after.cost, before.cost, "both legs find the same optimum at {n}");
        assert_eq!(
            (after.stats.expanded, after.stats.generated, after.stats.safety_checks),
            (before.stats.expanded, before.stats.generated, before.stats.safety_checks),
            "identical search skeleton at {n}"
        );
        let reduction = before.stats.pred_evals as f64 / after.stats.pred_evals.max(1) as f64;
        if n == 24 {
            assert!(
                before.stats.pred_evals >= 5 * after.stats.pred_evals,
                "compiled kernels must cut predicate work >= 5x at 24 components \
                 ({} vs {})",
                before.stats.pred_evals,
                after.stats.pred_evals,
            );
            assert!(
                after.allocs < UCS_24_ALLOC_CEILING,
                "a query allocates per table doubling, not per node: {} allocations for {} \
                 candidates at 24 components (ceiling {UCS_24_ALLOC_CEILING})",
                after.allocs,
                after.stats.generated,
            );
        }
        if n == 16 {
            assert!(
                after.stats.safety_checks <= SAFETY_CHECK_BUDGET_16,
                "16-component safety checks regressed: {} > budget {}",
                after.stats.safety_checks,
                SAFETY_CHECK_BUDGET_16,
            );
        }
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"components\": {n}, \"groups\": {}, \"plan_steps\": {}, \
             \"before\": {{\"pred_evals\": {}, \"safety_checks\": {}, \"probed\": {}, \
             \"expanded\": {}, \"wall_ns\": {}}}, \
             \"after\": {{\"pred_evals\": {}, \"safety_checks\": {}, \"probed\": {}, \
             \"expanded\": {}, \"wall_ns\": {}, \"allocs\": {}}}, \
             \"pred_eval_reduction\": {reduction:.1}}}",
            n / 2,
            after.cost,
            before.stats.pred_evals,
            before.stats.safety_checks,
            before.stats.probed,
            before.stats.expanded,
            before.wall_ns,
            after.stats.pred_evals,
            after.stats.safety_checks,
            after.stats.probed,
            after.stats.expanded,
            after.wall_ns,
            after.allocs,
        ));
    }
    let host = sada_bench::host_record();
    let json = format!(
        "{{\n  \"bench\": \"planner_hot_path\",\n  \"workload\": \"grouped flip: n/2 one_of \
         groups, flip half forward; before = tree-walk + linear scan, after = compiled \
         kernels + incremental checks + action index on the identical search skeleton \
         (allocs = allocator calls of one query); the 48-component row is the blind \
         uniform-cost search over 24 independent groups (expansions grow ~17x per 8 \
         components) — the number ROADMAP item 3 factors along collaborative sets\",\n  \
         \"command\": \"{}cargo bench -q -p sada-bench --bench bench_planning\",\n  \
         {host},\n  \
         \"safety_check_budget_16\": {SAFETY_CHECK_BUDGET_16},\n  \"rows\": [\n{rows}\n  ]\n}}\n",
        if smoke() { "SADA_BENCH_SMOKE=1 " } else { "" },
    );
    // crates/bench -> repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_planning.json");
    std::fs::write(path, &json).expect("write BENCH_planning.json");
    println!("wrote {path}:\n{json}");
}

criterion_group!(benches, bench_case_study_planning, bench_planning_scaling, bench_hot_path);
criterion_main!(benches);
