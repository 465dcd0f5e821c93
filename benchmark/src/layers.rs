//! Per-layer replays for the fleet workloads.
//!
//! The referee sees the system from outside, so a layer's cost is measured
//! by calling that layer's public API again on what the end-to-end run was
//! given and what it produced: the session specs, `report.events`, the
//! journal text, the simulator's event counts. Each replay is one span;
//! counts accumulate in [`Counts`] so a workload that runs two scenarios
//! per iteration (`scenario_mix`) adds both up.

use std::cell::RefCell;
use std::rc::Rc;

use sada_expr::{InvariantSet, Universe};
use sada_fleet::{
    encode_fabric_msg, fingerprint_events, parse_fabric_msg, FabricPayload, FleetScenario,
    PlanCache, ScopeLockManager, ScopeNormalizer, ScopedLazyPlanner, SessionResult, SessionSpec,
    WorldSpec,
};
use sada_obs::{decode_lines, encode_event_into, Bus, Event, RingSink};
use sada_proto::{encode_session_journal, parse_session_journal, AdaptationPlanner};
use sada_simnet::{Actor, ActorId, Context, SimDuration, Simulator, TimerWheel};

use crate::alloc;
use crate::harness::Named;
use crate::span::{self_time_of, Span, Tracer};

/// Capacity of the ring the fleet drivers capture their stream in; a run
/// that fills it has lost events.
pub const DRIVER_RING: usize = 1 << 18;

/// What one fleet run was given and what it produced.
pub struct FleetView<'a> {
    pub scenario: &'a FleetScenario,
    pub results: &'a [SessionResult],
    pub events: &'a [Event],
    /// Session-journal texts the run rendered (empty when rendering is off).
    pub journals: Vec<&'a str>,
    /// Worlds the run compiled: one for the flat driver, one per endpoint
    /// plus one for the partitioner under sharding.
    pub builds: usize,
    /// Simulator events the run dispatched (wheel pops).
    pub sim_events: u64,
    /// Messages the run's simulators delivered.
    pub delivered: u64,
    pub makespan_us: u64,
    /// Sharded runs fingerprint their merged stream and speak the fabric
    /// protocol; the flat driver does neither.
    pub sharded: bool,
}

/// Denominators for the per-operation metrics, summed over replays.
#[derive(Debug, Default)]
pub struct Counts {
    pub builds: u64,
    pub retained_bytes: u64,
    pub lock_pairs: u64,
    pub keys: u64,
    pub wheel_items: u64,
    pub pings: u64,
    pub events: u64,
    /// Events the replay's ring saw but no longer holds.
    pub evicted: u64,
    pub fabric_msgs: u64,
}

fn world_spec(scn: &FleetScenario) -> WorldSpec {
    scn.world_spec.clone().unwrap_or_else(|| WorldSpec::video(scn.groups))
}

/// Sessions in the order the control plane admitted them.
fn admitted_order<'a>(v: &'a FleetView<'_>) -> Vec<(&'a SessionSpec, &'a SessionResult)> {
    let mut order: Vec<_> = v
        .scenario
        .sessions
        .iter()
        .filter_map(|spec| {
            // Reports list results ascending by session id.
            let ix = v.results.binary_search_by_key(&spec.id, |r| r.id).ok()?;
            let res = &v.results[ix];
            res.admitted_at.map(|_| (spec, res))
        })
        .collect();
    order.sort_by_key(|(spec, res)| (res.admitted_at, spec.id));
    order
}

pub fn replay_fleet(t: &mut Tracer, v: &FleetView<'_>, c: &mut Counts) {
    let scn = v.scenario;

    // fleet.world: compile the world as often as the run did.
    let live0 = alloc::live();
    let (world, _) = t.span("fleet.world.build", |_| {
        let mut world = scn.build_world();
        for _ in 1..v.builds {
            world = scn.build_world();
        }
        Rc::new(world)
    });
    c.retained_bytes += alloc::live().saturating_sub(live0);
    c.builds += v.builds as u64;

    // expr: parsing the invariant text is one part of that build.
    let spec = world_spec(scn);
    t.span("expr.parse", |_| {
        let mut u = Universe::with_capacity(spec.comps.len());
        for comp in &spec.comps {
            u.intern(&comp.name);
        }
        let refs: Vec<&str> = spec.invariants.iter().map(String::as_str).collect();
        InvariantSet::parse(&refs, &mut u).expect("the run parsed these invariants")
    });

    // fleet.lock: every session's scope through the lock manager, acquired
    // at its submission instant and released at its completion instant.
    let order = admitted_order(v);
    let mut lock_events: Vec<(u64, bool, u64, u8, Vec<u32>)> = Vec::new();
    for (spec, res) in &order {
        if let (Some(sub), Some(done)) = (res.submitted_at, res.completed_at) {
            let scope = world.resources_for(&world.scope_comps(&spec.flips));
            lock_events.push((sub, true, spec.id, spec.priority, scope));
            lock_events.push((done, false, spec.id, 0, Vec::new()));
        }
    }
    // Releases sort before acquisitions at the same instant.
    lock_events.sort_by_key(|e| (e.0, e.1, e.2));
    c.lock_pairs += lock_events.len() as u64 / 2;
    t.span("fleet.lock", |_| {
        let mut locks = ScopeLockManager::with_capacity(2 * spec.comps.len(), order.len());
        for (_, acquire, id, priority, scope) in &lock_events {
            if *acquire {
                locks.try_acquire(*id, scope, *priority);
            } else if locks.is_held(*id) {
                locks.release(*id);
            } else {
                locks.cancel(*id);
            }
        }
        locks.queue_len()
    });

    // fleet.cache: the scope normaliser and its key, once per session.
    let init = world.initial_config();
    c.keys += order.len() as u64;
    t.span("fleet.cache.key", |_| {
        for (spec, _) in &order {
            let scope = world.scope_comps(&spec.flips);
            let ixs = world.search.scoped_action_ixs(&scope);
            let nz = ScopeNormalizer::from_compiled(
                &world.inv,
                world.search.compiled(),
                &scope,
                ixs.iter().map(|&ix| &world.actions[ix as usize]),
            );
            if let Some(nz) = nz {
                std::hint::black_box(nz.key(&init, &world.target_for(&init, &spec.flips)));
            }
        }
    });

    // fleet.planner: every session through a scoped planner, one fresh
    // fleet-wide cache, the configuration folding forward as in the run.
    t.span("fleet.planner.plan", |_| {
        let cache = Rc::new(RefCell::new(PlanCache::new(128)));
        let mut cur = world.initial_config();
        for (spec, res) in &order {
            let scope = world.scope_comps(&spec.flips);
            let mut planner = ScopedLazyPlanner::new(Rc::clone(&world), &scope)
                .with_cache(Rc::clone(&cache), spec.id);
            let target = world.target_for(&cur, &spec.flips);
            let paths = planner.paths(&cur, &target, 1);
            if res.success && !paths.is_empty() {
                cur = target;
            }
        }
        cur
    });

    // simnet.wheel: as many timers as the run dispatched, over the same
    // span of simulated time, with a bounded number pending at once.
    c.wheel_items += v.sim_events;
    t.span("simnet.wheel", |_| wheel_churn(v.sim_events, v.makespan_us.max(1)));

    // simnet.sim: a two-actor ping run that delivers as many messages.
    c.pings += v.delivered;
    t.span("simnet.sim.deliver", |_| ping_run(v.delivered));

    // obs.bus: the run's own stream, re-emitted in batches into a ring.
    let mut batches: Vec<Vec<Event>> = v.events.chunks(64).map(<[Event]>::to_vec).collect();
    let ring = Rc::new(RefCell::new(RingSink::new(DRIVER_RING)));
    let bus = Bus::new();
    bus.attach(&ring);
    t.span("obs.bus.emit", |_| {
        for batch in &mut batches {
            bus.emit_batch(batch);
        }
    });
    c.events += v.events.len() as u64;
    c.evicted += ring.borrow().total_seen() - ring.borrow().len() as u64;

    // obs.codec: JSONL out and back.
    let (text, _) = t.span("obs.codec.encode", |_| encode_jsonl(v.events));
    t.span("obs.codec.decode", |_| decode_lines(&text).expect("own JSONL decodes"));

    // proto.journal: the write-ahead text, parsed and rendered again.
    for text in &v.journals {
        let (records, _) = t.span("proto.journal.parse", |_| {
            parse_session_journal(text).expect("the run's own journal parses")
        });
        t.span("proto.journal.encode", |_| encode_session_journal(&records));
    }

    if v.sharded {
        t.span("fleet.shard.fingerprint", |_| fingerprint_events(v.events));

        // fleet.shard: the fabric's line codec on one handshake per session.
        let msgs: Vec<FabricPayload> = order
            .iter()
            .take(512)
            .flat_map(|(spec, _)| {
                let comps = world.scope_comps(&spec.flips);
                let ids: Vec<u32> = comps.iter().map(|c| c.index() as u32).collect();
                let values: Vec<(u32, bool)> = ids.iter().map(|&c| (c, c % 2 == 0)).collect();
                [
                    FabricPayload::LockRequest {
                        session: spec.id,
                        resources: world.resources_for(&comps),
                        comps: ids,
                        priority: spec.priority,
                        epoch: 1,
                    },
                    FabricPayload::LockGranted {
                        session: spec.id,
                        region: 1,
                        epoch: 1,
                        values: values.clone(),
                    },
                    FabricPayload::LockRelease { session: spec.id, epoch: 1, values },
                    FabricPayload::ReleaseAck { session: spec.id, region: 1, epoch: 1 },
                ]
            })
            .collect();
        c.fabric_msgs += msgs.len() as u64;
        t.span("fleet.shard.fabric_codec", |_| {
            for msg in &msgs {
                let back = parse_fabric_msg(&encode_fabric_msg(msg)).expect("own line parses");
                assert_eq!(&back, msg, "fabric codec round-trips");
            }
        });
    }
}

pub fn encode_jsonl(events: &[Event]) -> String {
    let mut text = String::with_capacity(events.len() * 96);
    for ev in events {
        encode_event_into(&mut text, ev);
        text.push('\n');
    }
    text
}

/// `n` pushes and `n` pops with at most 1024 timers pending, delays drawn
/// so the whole run spans about `span_us` of simulated time.
fn wheel_churn(n: u64, span_us: u64) -> u64 {
    const PENDING: u64 = 1024;
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mean_gap = (span_us * PENDING / n.max(1)).max(2);
    let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
    let mut delay = move || {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        1 + (lcg >> 33) % (2 * mean_gap)
    };
    let mut seq = 0;
    while seq < PENDING.min(n) {
        wheel.push(delay(), seq, seq as u32);
        seq += 1;
    }
    let mut last = 0;
    while let Some((time, _, item)) = wheel.pop() {
        last = time ^ u64::from(item);
        if seq < n {
            wheel.push(time + delay(), seq, seq as u32);
            seq += 1;
        }
    }
    last
}

struct Ping {
    peer: Option<ActorId>,
    left: u64,
}

impl Actor<u64> for Ping {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if let (Some(peer), true) = (self.peer, self.left > 0) {
            ctx.send(peer, self.left - 1);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ActorId, left: u64) {
        if left > 0 {
            ctx.send(from, left - 1);
        }
    }
}

/// Delivers exactly `n` messages between two actors that do nothing else.
fn ping_run(n: u64) -> u64 {
    let mut sim: Simulator<u64> = Simulator::new(1);
    sim.set_default_link(sada_simnet::LinkConfig::reliable(SimDuration::from_micros(100)));
    let a = sim.add_actor("a", Ping { peer: None, left: 0 });
    sim.add_actor("b", Ping { peer: Some(a), left: n });
    sim.run();
    let delivered = sim.stats().delivered;
    assert_eq!(delivered, n, "the ping run delivers what the fleet run delivered");
    delivered
}

fn per(total_s: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_s * 1e9 / count as f64
    }
}

/// The fleet layers' timed metrics, from the spans recorded so far.
pub fn fleet_metrics(spans: &[Span], c: &Counts) -> Named {
    let s = |name| self_time_of(spans, name);
    vec![
        ("fleet.world.build_s", s("fleet.world.build") / c.builds.max(1) as f64),
        ("fleet.world.retained_bytes", c.retained_bytes as f64),
        ("expr.parse_s", s("expr.parse")),
        ("fleet.lock.acquire_release_ns", per(s("fleet.lock"), c.lock_pairs)),
        ("fleet.cache.key_ns", per(s("fleet.cache.key"), c.keys)),
        ("fleet.planner.plan_s", s("fleet.planner.plan")),
        ("simnet.wheel.push_pop_ns", per(s("simnet.wheel"), c.wheel_items)),
        ("simnet.sim.deliver_ns", per(s("simnet.sim.deliver"), c.pings)),
        ("obs.ring.evicted", c.evicted as f64),
        ("obs.bus.emit_ns", per(s("obs.bus.emit"), c.events)),
        ("obs.codec.encode_ns", per(s("obs.codec.encode"), c.events)),
        ("obs.codec.decode_ns", per(s("obs.codec.decode"), c.events)),
        ("proto.journal.encode_s", s("proto.journal.encode")),
        ("proto.journal.parse_s", s("proto.journal.parse")),
        ("fleet.shard.fingerprint_s", s("fleet.shard.fingerprint")),
        ("fleet.shard.fabric_codec_ns", per(s("fleet.shard.fabric_codec"), c.fabric_msgs)),
    ]
}

/// Exact values every fleet workload reads off its session results.
pub fn session_facts(results: &[SessionResult], makespan_us: u64) -> Named {
    let mut latencies: Vec<u64> = results.iter().filter_map(SessionResult::latency_us).collect();
    latencies.sort_unstable();
    let admitted = results.iter().filter(|r| r.admitted_at.is_some()).count();
    let queued = results
        .iter()
        .filter(|r| matches!((r.submitted_at, r.admitted_at), (Some(s), Some(a)) if a > s))
        .count();
    let failed = results.iter().filter(|r| !r.success).count();
    // p99 is reportable only with ten samples beyond it; every fleet
    // workload is sized to have them.
    assert!(
        crate::stats::top_percentile(latencies.len()) >= 99.0,
        "{} latency samples are too few for a p99",
        latencies.len()
    );
    let p = |q| crate::stats::percentile(&latencies, q) as f64;
    vec![
        ("ops", results.len() as f64),
        ("failed_share", failed as f64 / results.len().max(1) as f64),
        ("sim.makespan_us", makespan_us as f64),
        ("sim.latency_p50_us", p(50.0)),
        ("sim.latency_p99_us", p(99.0)),
        ("fleet.lock.queued_share", queued as f64 / admitted.max(1) as f64),
    ]
}

pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}
