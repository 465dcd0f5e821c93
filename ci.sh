#!/usr/bin/env bash
# Repository CI gate: build, tier-1 tests, full workspace tests,
# lint-clean clippy, and the pinned fault-injection regressions.
#
# Everything here is deterministic (fixed seeds throughout), so a red run
# is always reproducible locally with the same commands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> rustfmt (check only)"
cargo fmt --check

echo "==> build (release)"
cargo build --release

echo "==> tier-1 tests (root package: safety properties + chaos sweep)"
cargo test -q

echo "==> full workspace tests"
cargo test -q --workspace

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings: a public doc must not link to a private or missing item)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> one tokenizer, one table (sada_obs::text reads every line format; each JSONL kind is stated once)"
if grep -rn "split_once('=')\|starts_with('#')" crates/*/src | grep -v '^crates/obs/src/text.rs:'; then echo "a line tokenizer outside crates/obs/src/text.rs"; exit 1; fi
if sed '/^#\[cfg(test)\]/,$d' crates/obs/src/codec.rs | grep -o '"[a-z]*\.[a-z_]*"' | sort | uniq -d | grep .; then echo "an event kind stated twice in crates/obs/src/codec.rs"; exit 1; fi

echo "==> one FNV-1a (crates/obs/src/fnv.rs holds the offset basis; every fingerprint and pinned constant hashes through sada_obs::fnv1a)"
if [ "$(grep -rniE 'cbf2_?9ce4_?8422_?2325' crates/*/src | wc -l)" != 1 ]; then grep -rniE 'cbf2_?9ce4_?8422_?2325' crates/*/src; echo "the FNV-1a offset basis stated outside crates/obs/src/fnv.rs"; exit 1; fi

echo "==> one manager host (RTT sampling and RTO reports live in crates/protocol/src/host.rs; the codec only decodes them)"
if grep -rn 'pending_since\|FleetEvent::TimeoutAdapted {' crates/*/src | grep -v '^crates/protocol/src/host.rs:\|^crates/obs/src/codec.rs:'; then echo "a second manager host outside crates/protocol/src/host.rs"; exit 1; fi
# Retransmission deadlines and RTT estimators too: the global tier's fabric
# ladder runs on its ManagerHost, and the manager core arms its own timers.
if grep -rn 'RttEstimator\|\.deadline(' crates/*/src | grep -v '^crates/resilience/\|^crates/protocol/src/host.rs:\|^crates/protocol/src/manager.rs:'; then echo "a retransmission ladder outside crates/protocol/src/host.rs and the manager core"; exit 1; fi

echo "==> doc budget (DESIGN.md + EXPERIMENTS.md at most 177 781 bytes; the budget only goes down)"
if [ "$(cat DESIGN.md EXPERIMENTS.md | wc -c)" -gt 177781 ]; then wc -c DESIGN.md EXPERIMENTS.md; echo "DESIGN.md + EXPERIMENTS.md grew past their budget"; exit 1; fi

echo "==> typed timers (an actor arms its own timer kinds and is handed them back; a timer tag is only rendered, never decoded by band)"
# Non-test code only: a TAG_ band constant, or a range test or subtraction
# on a timer tag, is a bit layout of the tag space that more than one
# module would have to know.
if for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" '\bTAG_[A-Z0-9_]+|\btag(\(\))? *(>=|<=|<|>|-) |\.\.[^()]*\)\.contains\(&tag\)' || true
done | grep .; then echo "a timer tag band or a tag decoded by range in crates/*/src"; exit 1; fi

echo "==> one agent host (agent restarts, rejoin announcements and agent observations live in crates/protocol/src/agent_host.rs)"
# Non-test code only; the manager host drains its own cores' observations.
if for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
    case "$f" in crates/protocol/src/agent_host.rs | crates/protocol/src/manager_tests.rs) continue ;; esac
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -Hn --label="$f" 'AgentCore::restore(\|ProtoMsg::Rejoin {\($\| last_completed:\)\|\.drain_obs()' || true
done | grep -v '^crates/protocol/src/host.rs:[0-9]*:.*sess\.core\.drain_obs()'; then echo "a second agent host outside crates/protocol/src/agent_host.rs"; exit 1; fi

echo "==> one account of manager decisions (the journal and the typed event stream; no prose log or warning list beside them)"
# Non-test code only: a progress-note effect, or an infos/warnings field or
# push, restates in English what a journal record or an event records.
if for f in crates/protocol/src/*.rs crates/core/src/*.rs crates/core/src/*/*.rs; do
    case "$f" in *_tests.rs) continue ;; esac
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" 'ManagerEffect::Info\b|\bInfo\(String\)|\binfos\b|\bwarnings\b' || true
done | grep .; then echo "a prose account of manager decisions beside the journal and the event stream"; exit 1; fi

echo "==> one agent arena (sada_simnet::CloneArena: a plane clones an agent when the run first touches it, not once per hosted member at build)"
if grep -rn 'ArenaActor<.*> for Vec\|vec!\[agent(' crates/*/src; then echo "a second agent arena, or a plane cloning its agent prototype once per hosted member"; exit 1; fi

echo "==> one report row per session (a control plane writes each session's SessionResult where it decides; no per-session map or verdict type beside it)"
if grep -rn 'HashMap<u64, SimTime>\|HashMap<u64, Outcome>\|SessionEnd\|cancelled_at' crates/fleet/src; then echo "a second per-session account beside the report rows in crates/fleet/src"; exit 1; fi

echo "==> one account of network events (the bus's Net events; no trace projection of them in the simulator)"
if grep -rn 'TraceEvent\|set_trace_enabled' crates/*/src; then echo "a second projection of the bus's Net events"; exit 1; fi

echo "==> one account of counts (a report's counters are read from the sada_obs::Counts fold of its stream; no counter incremented by hand beside its event)"
if grep -rn 'CounterSink' crates/*/src; then echo "a second per-kind tally beside sada_obs::Counts"; exit 1; fi
# Non-test fleet code only: each of these counted what an event already says.
if for f in crates/fleet/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" '\b(shed_count|rejected_count|scope_breaker_trips|restores|retransmits|abandoned|lease_reclaims|lease_expirations|dropped|duplicated|delayed) \+= 1' || true
done | grep .; then echo "a fleet counter kept by hand beside the event it counts"; exit 1; fi

echo "==> every journal is rendered (FleetScenario::render_journal is set only by the referee, until it is deleted)"
if grep -rn 'render_journal' --include='*.rs' crates src tests examples | grep -v '^crates/fleet/src/driver.rs:'; then echo "render_journal used outside benchmark/ and its definition in crates/fleet/src/driver.rs"; exit 1; fi

echo "==> one world compiler (FleetWorld::build feeds the video shape to the builder from_spec uses; CompiledWorld reads its own tables, never its spec)"
if grep -rn 'from_spec(WorldSpec::video' crates/fleet/src; then echo "the video world compiled through its spec in crates/fleet/src"; exit 1; fi
if grep -rn 'self\.spec\b' crates/fleet/src; then echo "a CompiledWorld method reading its spec outside the spec handle"; exit 1; fi

echo "==> a world is its classes (the run path reads a world's classes through its placements; the world-wide tables are views, rendered in crates/fleet/src/world.rs)"
if for f in crates/fleet/src/*.rs; do
    [ "$f" = crates/fleet/src/world.rs ] || sed '/^#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" '\bw(orld)?\.(inv\b|universe\b|actions\[|search\.|index\.|model\.)' || true
done | grep .; then echo "a world-wide view read on the run path in crates/fleet/src"; exit 1; fi

echo "==> a world id resolves without a search (a world stores its placements as runs of one class in crates/fleet/src/world.rs; no table of one row per placement)"
if for f in crates/fleet/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -Hn --label="$f" 'Vec<Placement>' || true
done | grep .; then echo "a per-placement table beside the runs in crates/fleet/src"; exit 1; fi

echo "==> one world shape (a spec world is its blocks, each a class placed once; no one-class planning path beside the placed one)"
# Non-test code only: each of these names the deleted path that planned a
# spec world as one class, vetted by a search-side memo.
if for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -HnE --label="$f" '\b(is_one_class|SafeMemo|is_safe_memo|plan_scoped_vetted)\b' || true
done | grep .; then echo "a one-class planning path in crates/*/src"; exit 1; fi

echo "==> one spec compiler (sada_proto::SpecBuilder builds every AdaptationSpec; spec files, the case study and the converted specs push entries into it)"
if grep -rn 'AdaptationSpec::new(' crates src tests examples; then echo "an AdaptationSpec built past sada_proto::SpecBuilder"; exit 1; fi
if for f in crates/core/src/*.rs crates/core/src/*/*.rs crates/video/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -Hn --label="$f" 'Universe::new()\|SystemModel::new()' || true
done | grep .; then echo "a universe or system model built by hand in sada-core or sada-video"; exit 1; fi

echo "==> one validity planner (sada_scenario::validate plans every cluster through a cached ScopedLazyPlanner, whose plan cache vets each endpoint by its diff from the last configuration it proved safe)"
if grep -rn 'plan_scoped(\|\.is_safe(' crates/scenario/src; then echo "a whole-world endpoint check in crates/scenario/src"; exit 1; fi
if for f in crates/scenario/src/*.rs; do
    body="$(sed '/^#\[cfg(test)\]/,$d' "$f")"
    [ "$(grep -c 'ScopedLazyPlanner::new(' <<< "$body")" = "$(grep -c '\.with_cache(' <<< "$body")" ] || echo "$f"
done | grep .; then echo "a ScopedLazyPlanner without the validity pass's plan cache in crates/scenario/src"; exit 1; fi

echo "==> one runtime planner (sada_proto::SearchPlanner ranks paths on the lazy search; the eager SAG is Figure 4, the oracle and the referee's)"
if grep -rn 'SagPlanner' crates src tests examples; then echo "the eager-SAG runtime planner is back"; exit 1; fi
if grep -rn 'k_shortest_paths(' crates/protocol/src crates/fleet/src; then echo "an eager Yen ranking on the runtime path in crates/protocol/src or crates/fleet/src"; exit 1; fi

echo "==> referee benchmark (standalone package: build + its own tests)"
# benchmark/ compiles against the public sada-fleet/-proto/-simnet API from
# outside the workspace, so an API break there is invisible to every step
# above; build and test it here instead of finding out when the pipeline
# runs `bash benchmark/run.sh`. Artifacts land in benchmark/target
# (gitignored).
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> referee output checks (all five workloads, one second each)"
# Runs every workload for its output checks alone: every committed
# session and planned path as expected, the flat twin agrees, 1 and 2
# worker threads produce the identical stream, no residual holds, every
# iteration's facts equal the first set-up's. storm_flat and plan_frontier
# are here because they are the two workloads a change to a type under the
# whole stack (`Config`, `Action`, `Search`) is claimed or feared on, and
# chaos_recover because it is the only one with fabric faults and region
# and global crashes — a change to what the fabric promises must meet
# them; a claim on a workload CI never executes fails where nobody looks.
# Any failed check is a non-zero exit; the timings are ignored here (a
# gain or regression is judged by paired runs, see benchmark/README.md).
# Results land in benchmark/out (gitignored).
for workload in storm_flat storm_sharded scenario_mix plan_frontier chaos_recover; do
    bash benchmark/run.sh --workload "$workload" --seed 7 --seconds 1 > /dev/null
done

echo "==> pinned chaos seeds (regression corpus + reproducibility)"
# The sweep covers SADA_CHAOS_SEEDS random fault plans per intensity
# (default 50) with the manager itself among the crash victims, and
# replays every manager-journal prefix of every run. CI keeps the default
# subset; set SADA_FULL_CHAOS=1 for the 250-seed soak before releases.
if [ "${SADA_FULL_CHAOS:-0}" != "0" ]; then
    SADA_CHAOS_SEEDS="${SADA_CHAOS_SEEDS:-250}" cargo test -q --test chaos_sweep
else
    cargo test -q --test chaos_sweep
fi

echo "==> observability timeline smoke (video case study + chaos seed replay)"
cargo run -q --release -p sada-bench --bin report -- timeline > /dev/null
cargo run -q --release -p sada-bench --bin report -- timeline 3 > /dev/null

echo "==> trace diff smoke (the golden trace against itself is identical)"
cargo run -q --release -p sada-bench --bin report -- diff tests/golden/quickstart_trace.jsonl tests/golden/quickstart_trace.jsonl | grep -qx 'identical (49 events)'

echo "==> trace counts smoke (the golden trace's 49 events, rebuilt per kind from the trace alone)"
cargo run -q --release -p sada-bench --bin report -- counts tests/golden/quickstart_trace.jsonl | awk '{ n += $2 } END { print n }' | grep -qx 49

echo "==> fleet control-plane smoke (100 groups, concurrent sessions + crash/restore leg)"
cargo run -q --release -p sada-bench --bin report -- fleet > /dev/null

echo "==> planner hot-path smoke (sweep + pinned safety-check budget, no timing loops)"
# Runs the 16/24/32-component sweep and its embedded assertions: compiled
# kernels >= 5x fewer predicate evaluations at 24 components, one query's
# allocator calls there below a ceiling that does not grow with the nodes
# it discovers (its tables double: 67 calls for 1 586 expansions and 19 032
# candidates, so a buffer per node creeping back fails here), and the
# 16-component safety-check count within the budget pinned in
# crates/bench/benches/bench_planning.rs. Fails the gate on regression.
SADA_BENCH_SMOKE=1 cargo bench -q -p sada-bench --bench bench_planning > /dev/null

echo "==> overload-protection smoke (admission control vs always-admit baseline)"
# Renders the overload comparison table, then runs the pinned robustness
# asserts from crates/bench/benches/bench_overload.rs: protected goodput
# >= 80% of calibrated capacity at 4x Poisson arrivals with bounded p99
# admission wait, baseline collapse, breaker trips, bulkhead shedding, and
# fingerprint-identical replays. Regenerates BENCH_overload.json.
cargo run -q --release -p sada-bench --bin report -- overload > /dev/null
SADA_BENCH_SMOKE=1 cargo bench -q -p sada-bench --bench bench_overload > /dev/null

echo "==> sharded control-plane smoke (2-shard determinism + scaling sweep)"
# Renders the per-shard table (includes a 1-thread vs 4-thread fingerprint
# comparison over a straddler-bearing workload and a fabric-chaos leg with
# fault/retransmission counters), then runs the pinned asserts from
# crates/bench/benches/bench_shard.rs: identical final configurations and
# event-stream fingerprints at 1/2/4/8 worker threads, zero fabric traffic
# for the local storm, lossy straddler outcomes identical to lossless, and
# — on hosts with >= 4 cores — the >= 3x sessions/sec speedup at 4
# threads; and for the straddler_lookahead leg (a 96-wave storm, then two
# straddlers per region boundary) identical fingerprints at 1/2/4/8
# threads and a one-thread promise-update count that repeats exactly and
# stays under its pinned ceiling. Regenerates BENCH_shard.json (incl. the
# fabric_chaos and straddler_lookahead legs).
cargo run -q --release -p sada-bench --bin report -- shard > /dev/null
SADA_BENCH_SMOKE=1 cargo bench -q -p sada-bench --bench bench_shard > /dev/null

echo "==> scenario-generator smoke (seeded serverless + IaaS universes end-to-end)"
# Generates one universe per domain and seed (serverless, IaaS, IaaS with
# the energy objective), runs each through the sharded control plane at 1
# and 4 worker threads with a fingerprint-identity assert, and prints the
# energy-objective showcase (watt route != ms route). Then the bench's
# smoke mode re-runs the full assertion sweep — every session concludes,
# thread-invariance at 1/2/4 threads per (domain, seed), goal
# reachability for every generated cluster, and the validity-scaling gate:
# validate on IaaS universes (seed 8) of 1 024 and 4 096 clusters, best of
# three each, may grow at most 8x (4x is linear; vetting every endpoint
# against the whole invariant set read 17.9x) — and regenerates
# BENCH_scenario.json (3 seeds per domain, sessions/sec + plan-cache hit
# rate + standalone planning pred-evals, plus the validity_scaling leg).
cargo run -q --release -p sada-bench --bin report -- scenario > /dev/null
SADA_BENCH_SMOKE=1 cargo bench -q -p sada-bench --bench bench_scenario > /dev/null

echo "==> scale smoke (strided storms, thread-invariance + bytes-per-agent <= 366, bytes-per-session <= 4245, journal-bytes-per-session <= 1024, sharded-over-flat <= 1.5x and world-build gates)"
# Renders the 1k/10k-group strided-storm table (flat throughput plus
# sharded runs with fingerprints asserted identical at 1 and 8 worker
# threads, every region loaded), then the bench's smoke mode runs the
# 10k-group row end-to-end: every session commits, 1/2/4/8-thread
# fingerprint identity, flat peak heap under the bytes-per-agent ceiling
# (measured 333 plus 10 %: a capture ring that grows by doubling, with a
# handover that clones its events, reads 549 and fails it) and — against the
# same run without sessions — under the
# bytes-per-session ceiling pinned in crates/bench/benches/bench_scale.rs
# (a session costs a spine and a chunk of the configuration twice over plus
# its own records, whatever the world's width: the full sweep holds the 1k,
# 10k and 100k rows to the same number), the rendered journal text under
# 1 024 bytes per session (a configuration field travels as its delta
# against the field before it; in full it would be the world's width),
# sharded (1 thread) peak heap at
# most 1.5x the flat run's with the eight regions hosting every agent
# exactly once between them (ROADMAP item 3's gate: a plane allocates for
# the agents it hosts, not for the world), and build_world() under two
# ceilings: its allocations may grow by at most 0.001 per group from 1k to
# 10k groups (measured 0.00056; a constant allocation adds nothing, one per
# group adds 1.0), and it may retain at most 0.52 bytes per group at 10k
# (measured 0.468: the video cluster is one class placed as one run, so a
# placement row per group again, 20.5 bytes, or the spec kept again, 17.0
# allocations and 908 bytes, fails): memory
# regressions on the hot path, per agent, per session, per endpoint or per
# compiled table row, fail loudly. The full 1k/10k/100k sweep
# (BENCH_scale.json) is regenerated by running the same bench without
# SADA_BENCH_SMOKE.
cargo run -q --release -p sada-bench --bin report -- scale > /dev/null
SADA_BENCH_SMOKE=1 cargo bench -q -p sada-bench --bench bench_scale > /dev/null

echo "==> fabric-chaos sweep (lossy fabric + global-tier crash + region crash)"
# 20 seeded fault universes over a straddler-bearing fleet with the global
# tier AND one region crashing mid-handshake: bit-for-bit identity at
# 1/2/4/8 worker threads (fingerprints, journals, the global WAL, results),
# lossy outcomes identical to the lossless twin, duplicate-delivery
# idempotence, ladder-exhaustion abandonment with a journaled verdict, and
# the fabric-codec round-trip property. Set SADA_FULL_CHAOS=1 for the
# 60-seed soak, or SADA_CHAOS_SEEDS=N to pin the sweep width.
cargo test -q -p sada-fleet --test fabric_chaos

echo "CI OK"
