//! Fleet scenario driver and the single control plane both drivers run.
//!
//! A [`Plane`] is one simulator holding the agents its control actor can
//! engage — its *hosted set* — as one `CloneArena<ScriptedAgent>`, whose
//! members are cloned when first touched, plus that control actor; every
//! other agent of the world is a vacant id.
//! [`build_plane`] is the only place a plane is wired up; its control
//! actor writes each session's [`SessionResult`] where it decides,
//! [`Plane::read`] copies the rows out, and [`Plane::distill`] drops the
//! simulator before it moves the stream out. [`run_fleet`] is the
//! one-plane case — host every agent, build, run to the budget on the
//! calling thread, read, distill — and `run_fleet_sharded` runs the same
//! functions once per endpoint, adding only the hosted set and the fabric
//! around them.
//!
//! A plane owns everything *mutable* — simulator, agents, lock table, plan
//! cache, journal — and borrows everything that is not: the compiled
//! [`FleetWorld`] is built once per run by the driver
//! ([`FleetScenario::build_world`], called from `run_fleet` and
//! `run_fleet_sharded` and nowhere below them) and handed to
//! [`build_plane`] as a handle.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;
use std::time::{Duration, Instant};

use sada_expr::Config;
use sada_obs::{Bus, Counts, Event, Kind, RingSink};
use sada_proto::{
    encode_session_journal, hosting_run, AgentTiming, ProtoTimer, ProtoTiming, ScriptedAgent, Wire,
};
use sada_simnet::{
    Actor, ActorId, CloneArena, FaultPlan, LinkConfig, NetStats, SimDuration, SimTime, Simulator,
};

use crate::cache::PlanCacheStats;
use crate::control::{
    fleet_event, Admission, ControlActor, FleetResilience, FleetTimer, SessionSpec,
};
use crate::world::{Domain, FleetWorld, WorldSpec};

/// Events each plane's ring retains; anything beyond is evicted oldest
/// first and counted in `events_evicted`.
const RING_CAPACITY: usize = 1 << 18;

/// A fleet-scale experiment: the world size, the session workload, and the
/// fault schedule for the control plane itself.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// Number of flip units — component groups in the video world, clusters
    /// in generated worlds (`world_spec.clusters.len()` when a spec is set).
    pub groups: usize,
    /// The adaptation requests to submit.
    pub sessions: Vec<SessionSpec>,
    /// Serial baseline: map every session onto one shared lock resource so
    /// nothing runs concurrently (benchmarks compare against this).
    pub serialize: bool,
    /// Simulation seed.
    pub seed: u64,
    /// Network latency on every link.
    pub link_latency: SimDuration,
    /// Virtual-time budget for the whole run.
    pub time_budget: SimDuration,
    /// Crash/restart instants for the control plane, if any.
    pub crash_control: Option<(SimTime, SimTime)>,
    /// Protocol timing for every session core (retry policy included).
    pub timing: ProtoTiming,
    /// Overload-protection configuration for the control plane.
    pub resilience: FleetResilience,
    /// Degraded agents: `(agent index, slowdown factor)` — every phase of
    /// that agent's work (reset, drain, act, resume, rollback) is stretched
    /// by the factor, modelling a saturated or GC-thrashing process.
    pub slow_agents: Vec<(usize, u32)>,
    /// Arbitrary simnet fault schedule (crash loops, delay bursts, drops)
    /// applied on top of `crash_control`.
    pub faults: FaultPlan,
    /// Declarative world to run instead of the hard-coded video clone.
    /// `None` keeps the classic `FleetWorld::build(groups)` video world.
    pub world_spec: Option<WorldSpec>,
    /// Render the write-ahead journal(s) to text in the report. On by
    /// default, and off only in the referee's storms until it is deleted:
    /// a configuration field of the text is its delta against the field
    /// before it, so a session's records cost the components it changes —
    /// under 200 bytes a session at 10k groups — not the world's width.
    /// The durable journal itself (and therefore crash recovery, events,
    /// and fingerprints) is unaffected either way.
    pub render_journal: bool,
}

impl FleetScenario {
    /// A scenario with library defaults: 1 ms links, a 30 s budget, seed
    /// 42, scope-parallel admission, and no control-plane faults.
    pub fn new(groups: usize, sessions: Vec<SessionSpec>) -> Self {
        FleetScenario {
            groups,
            sessions,
            serialize: false,
            seed: 42,
            link_latency: SimDuration::from_millis(1),
            time_budget: SimDuration::from_secs(30),
            crash_control: None,
            timing: ProtoTiming::default(),
            resilience: FleetResilience::default(),
            slow_agents: Vec::new(),
            faults: FaultPlan::new(),
            world_spec: None,
            render_journal: true,
        }
    }

    /// A scenario over a generated [`WorldSpec`] (library defaults
    /// otherwise); `groups` is derived from the spec's cluster count.
    pub fn with_world(spec: WorldSpec, sessions: Vec<SessionSpec>) -> Self {
        let groups = spec.clusters.len();
        let mut scn = FleetScenario::new(groups, sessions);
        scn.world_spec = Some(spec);
        scn
    }

    /// Compiles the scenario's world: the declared spec when present, the
    /// classic video clone otherwise.
    pub fn build_world(&self) -> FleetWorld {
        match &self.world_spec {
            Some(spec) => {
                assert_eq!(spec.clusters.len(), self.groups, "groups must match the spec");
                FleetWorld::from_spec(spec.clone())
            }
            None => FleetWorld::build(self.groups),
        }
    }
}

/// A wave of sessions over pairwise-disjoint group ranges: session `i`
/// (id `i+1`) flips groups `[i*span, (i+1)*span)` forward, all submitted at
/// `t=0` with equal priority — the canonical "everything can run at once"
/// workload.
pub fn disjoint_wave(sessions: usize, span: usize) -> Vec<SessionSpec> {
    (0..sessions)
        .map(|i| SessionSpec {
            id: i as u64 + 1,
            flips: (i * span..(i + 1) * span).map(|g| (g, true)).collect(),
            priority: 0,
            submit_at: SimDuration::ZERO,
            cancel_at: None,
        })
        .collect()
}

/// One session's report row, written by its control plane where it decides.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionResult {
    /// Session id.
    pub id: u64,
    /// When the request was submitted (virtual μs), if it was.
    pub submitted_at: Option<u64>,
    /// When the session was admitted (virtual μs), if it was.
    pub admitted_at: Option<u64>,
    /// When the session finished or was cancelled (virtual μs).
    pub completed_at: Option<u64>,
    /// Protocol outcome: the adaptation committed.
    pub success: bool,
    /// Terminal give-up (Section 4.4 ladder exhausted).
    pub gave_up: bool,
    /// Withdrawn while still queued.
    pub cancelled: bool,
    /// Dropped by bulkhead admission control under overload.
    pub shed: bool,
    /// Typed admission decision the submitter got back, with the bulkhead's
    /// retry-after hint on sheds. `None` when no decision was reached
    /// (never submitted, still waiting at budget end, or withdrawn first).
    pub admission: Option<Admission>,
}

impl SessionResult {
    /// End-to-end latency (submission → completion) in virtual μs.
    pub fn latency_us(&self) -> Option<u64> {
        Some(self.completed_at?.saturating_sub(self.submitted_at?))
    }
}

/// Everything a fleet run produced.
pub struct FleetReport {
    /// Per-session results, ascending by session id.
    pub results: Vec<SessionResult>,
    /// The fleet configuration after all completions, as a bit string.
    pub final_config: String,
    /// The session-tagged event stream (control plane + protocol + agents).
    pub events: Vec<Event>,
    /// Events the capture ring evicted before the run ended. Non-zero means
    /// `events` is only the tail of the stream, not the whole of it.
    pub events_evicted: u64,
    /// The control plane's write-ahead journal, in text form.
    pub journal_text: String,
    /// Events of each kind over the whole run, evicted ones included: every
    /// deterministic counter of the run that has an event (sheds,
    /// rejections, breaker trips, restores, …) is read from here.
    pub counts: Counts,
    /// Times the control plane was rebuilt from its journal (its
    /// `fleet.restored` count).
    pub restores: u64,
    /// Peak number of simultaneously *admitted* sessions.
    pub max_concurrent: usize,
    /// First submission → last completion, in virtual μs.
    pub makespan_us: u64,
    /// Network counters for the run.
    pub stats: NetStats,
    /// Plan-cache counters for the final control-plane incarnation (crash
    /// faults reset the volatile cache along with its counters).
    pub cache: PlanCacheStats,
    /// Protocol sends suppressed by open breakers.
    pub suppressed_sends: u64,
    /// Cumulative open time per tripped agent, `(agent, μs)`.
    pub breaker_open_us: Vec<(u32, u64)>,
    /// Where the run's wall clock went (never fingerprinted).
    pub phases: Phases,
}

/// Where a fleet run's wall clock went, phase by phase: one `Instant` read
/// per phase and none per event. Wall time repeats only roughly, so no
/// fingerprint or identity reads it. A phase a driver does not have reads
/// zero: the flat run has no partition, merge, fingerprint or drop. At one
/// worker thread the phases lay end to end; at more, each worker phase
/// (`build`, `step`, `parked`, `distill`) is its slowest worker's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    /// Compiling the world (zero when the caller handed one in).
    pub world: Duration,
    /// Cutting the sessions into regions and straddlers.
    pub partition: Duration,
    /// Building the planes: hosted sets, simulators, agents, control actors.
    pub build: Duration,
    /// Running the simulators to the budget; sharded, the conservative
    /// executor's loop.
    pub step: Duration,
    /// Of `step`, the time spent parked waiting for a peer's promise.
    pub parked: Duration,
    /// Reading each plane's outcome and moving its stream out.
    pub distill: Duration,
    /// Merging the shards' streams.
    pub merge: Duration,
    /// Fingerprinting the merged stream.
    pub fingerprint: Duration,
    /// Assembling the final configuration and the rest of the report.
    pub config: Duration,
    /// Dropping what the run built and does not report.
    pub drop: Duration,
}

impl Phases {
    /// The phases laid end to end (`parked` lies inside `step`).
    pub fn total(&self) -> Duration {
        let Phases {
            world,
            partition,
            build,
            step,
            parked: _,
            distill,
            merge,
            fingerprint,
            config,
            drop,
        } = *self;
        world + partition + build + step + distill + merge + fingerprint + config + drop
    }
}

/// The time since `*mark`, which moves to now: one phase's length.
pub(crate) fn lap(mark: &mut Instant) -> Duration {
    let now = Instant::now();
    let took = now - *mark;
    *mark = now;
    took
}

/// The row for session `id` in `results`, which must ascend by id (both
/// report types build theirs that way): a binary search, so a caller that
/// looks every session up stays O(n log n) at storm sizes.
pub(crate) fn find_session(results: &[SessionResult], id: u64) -> Option<&SessionResult> {
    results.binary_search_by_key(&id, |r| r.id).ok().map(|ix| &results[ix])
}

impl FleetReport {
    /// The result row for session `id`.
    pub fn session(&self, id: u64) -> Option<&SessionResult> {
        find_session(&self.results, id)
    }

    /// Sessions that committed their adaptation.
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.success).count()
    }
}

/// Runs `scenario` to completion (or budget exhaustion) and reports: one
/// plane over the whole fleet, run on the calling thread — no fabric,
/// no worker threads, no shard tag.
pub fn run_fleet(scenario: &FleetScenario) -> FleetReport {
    let started = Instant::now();
    let world = scenario.build_world();
    let built = started.elapsed();
    let mut report = run_fleet_on(scenario, world);
    report.phases.world = built;
    report
}

/// [`run_fleet`] over `world`, compiled from `scenario`.
fn run_fleet_on(scenario: &FleetScenario, world: FleetWorld) -> FleetReport {
    let mut mark = Instant::now();
    #[allow(clippy::single_range_in_vec_init)] // one run of agents, not a list of indices
    let everyone = vec![0..world.process_count()];
    let mut plane = build_plane::<(), _>(
        scenario,
        world,
        everyone,
        scenario.seed,
        0,
        scenario.sessions.clone(),
        scenario.crash_control,
        |control, _| ("control", control),
    );
    let build = lap(&mut mark);
    plane.sim.run_for(scenario.time_budget);
    let step = lap(&mut mark);
    let control = plane
        .sim
        .actor::<ControlActor<()>>(plane.control_id)
        .expect("control plane present after the run");
    let read = plane.read(control);
    let out = plane.distill(read);
    let distill = lap(&mut mark);
    let mut report = FleetReport {
        makespan_us: makespan_us(&out.results),
        max_concurrent: max_concurrent(&out.results),
        results: out.results,
        final_config: out.fleet_config.to_bit_string(),
        events: out.events,
        events_evicted: out.events_evicted,
        journal_text: out.journal_text,
        restores: out.counts[Kind::ControlRestored],
        counts: out.counts,
        stats: out.stats,
        cache: out.cache,
        suppressed_sends: out.suppressed_sends,
        breaker_open_us: out.breaker_open_us,
        phases: Phases { build, step, distill, ..Phases::default() },
    };
    report.phases.config = lap(&mut mark);
    report
}

/// One control plane over its own simulator. Agent `p` of the world is
/// `ActorId(p)` in every plane: the hosted ones are the members of one
/// `CloneArena<ScriptedAgent>`, the rest of `[0, processes)` is vacant. The
/// control actor (bare, or wrapped by a shard shim) sits at `processes`,
/// a ring captures the event stream and a [`Counts`] beside it folds all of
/// it. Both are sinks of the bus, outside every actor, so a crash of the
/// control plane loses nothing they hold.
pub(crate) struct Plane<M> {
    pub(crate) sim: Simulator<Wire<M>, ProtoTimer<FleetTimer>>,
    pub(crate) control_id: ActorId,
    /// The run's world, which the control actor reads through a handle of
    /// its own.
    #[cfg(test)]
    pub(crate) world: Rc<FleetWorld>,
    /// The plane's shard-stamped bus handle (what its actors emit through).
    pub(crate) bus: Bus,
    ring: Rc<RefCell<RingSink>>,
    counts: Rc<RefCell<Counts>>,
    /// Ids of the sessions this plane owns, ascending.
    sessions: Vec<u64>,
    render_journal: bool,
}

/// Builds the plane for `specs` over `world` (a handle on the run's one
/// compiled world — the caller builds it, every plane of the run shares it)
/// with `scn`'s timing, resilience and fault schedule. `hosted` is the set of
/// agents the plane allocates, as ascending disjoint runs of agent indices:
/// it must cover every agent a scope of `specs` reaches (the control actor
/// panics on an address outside it). `wrap` turns the bare
/// [`ControlActor`] into the actor to register (given the control id) and
/// names it; `crash` is that actor's crash/restart window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_plane<M, C>(
    scn: &FleetScenario,
    world: FleetWorld,
    hosted: Vec<Range<usize>>,
    seed: u64,
    shard_tag: u32,
    specs: Vec<SessionSpec>,
    crash: Option<(SimTime, SimTime)>,
    wrap: impl FnOnce(ControlActor<M>, ActorId) -> (&'static str, C),
) -> Plane<M>
where
    M: Clone + 'static,
    C: Actor<Wire<M>, ProtoTimer<FleetTimer>> + 'static,
{
    let world = Rc::new(world);
    let mut sim: Simulator<Wire<M>, ProtoTimer<FleetTimer>> = Simulator::new(seed);
    sim.set_default_link(LinkConfig::reliable(scn.link_latency));

    let ring = Rc::new(RefCell::new(RingSink::new(RING_CAPACITY)));
    let counts = Rc::new(RefCell::new(Counts::new()));
    let bus = Bus::new();
    bus.attach(&ring);
    bus.attach(&counts);
    let bus = bus.sharded(shard_tag);

    // Agents first, agent `p` at id `p` whether hosted or vacant; the
    // control plane takes the slot after them, mirroring the solo
    // ManagerActor layout.
    let procs = world.process_count();
    let control_id = ActorId::from_index(procs);
    emit_domain_tag(&bus, &world, control_id);
    let agent = |factor: u32| {
        ScriptedAgent::new(control_id, scale_timing(AgentTiming::default(), factor))
            .with_bus(bus.clone())
    };
    // Arena member `m` is the `m`-th hosted agent, in ascending order. A
    // member is cloned from one prototype when the run first touches it and
    // shares its environment (the control id, timing and bus); a slow agent
    // is supplied with its own. Indices the plane does not host (or the
    // world does not have) are inert.
    let slow = scn.slow_agents.iter().filter_map(|&(ix, factor)| {
        let run = hosting_run(&hosted, ix)?;
        let below: usize = hosted[..run].iter().map(Range::len).sum();
        Some(((below + ix - hosted[run].start) as u32, agent(factor)))
    });
    let members = hosted.iter().map(Range::len).sum::<usize>() as u32;
    let arena =
        CloneArena::new::<Wire<M>, ProtoTimer<FleetTimer>>(agent(1), members, slow.collect());
    let arena_id = sim.add_arena(arena);
    let (mut next_id, mut member) = (0, 0u32);
    for run in &hosted {
        sim.add_vacant((run.start - next_id) as u32);
        let len = run.len() as u32;
        sim.add_arena_members("agent", arena_id, member..member + len);
        (next_id, member) = (run.end, member + len);
    }
    assert!(next_id <= procs, "hosted agent {} is not of this world", next_id.wrapping_sub(1));
    sim.add_vacant((procs - next_id) as u32);
    let mut sessions: Vec<u64> = specs.iter().map(|s| s.id).collect();
    sessions.sort_unstable();
    let control =
        ControlActor::<M>::new(Rc::clone(&world), hosted, specs, scn.timing, scn.serialize)
            .with_resilience(scn.resilience)
            .with_bus(bus.clone());
    let (name, actor) = wrap(control, control_id);
    let got = sim.add_actor(name, actor);
    assert_eq!(got, control_id, "control plane must sit after the agents");

    if let Some((crash, restart)) = crash {
        sim.crash_at(control_id, crash);
        sim.restart_at(control_id, restart);
    }
    sim.schedule_faults(&scn.faults);

    let render_journal = scn.render_journal;
    Plane {
        sim,
        control_id,
        #[cfg(test)]
        world,
        bus,
        ring,
        counts,
        sessions,
        render_journal,
    }
}

/// What one finished plane produced, as plain data (it crosses thread
/// boundaries in the sharded driver).
pub(crate) struct PlaneOutcome {
    pub(crate) results: Vec<SessionResult>,
    pub(crate) fleet_config: Config,
    pub(crate) events: Vec<Event>,
    pub(crate) events_evicted: u64,
    pub(crate) journal_text: String,
    pub(crate) counts: Counts,
    pub(crate) stats: NetStats,
    pub(crate) cache: PlanCacheStats,
    pub(crate) suppressed_sends: u64,
    pub(crate) breaker_open_us: Vec<(u32, u64)>,
    /// Lock-table entries still held at the end of the run.
    pub(crate) lock_holders: u64,
}

impl<M: Clone + 'static> Plane<M> {
    /// Reads `control`'s durable state — rows, journal, counters — and the
    /// plane's counts into an outcome whose `events` are still in the ring
    /// (the caller unwraps `control` out of whatever actor it registered);
    /// [`Plane::distill`] moves them in.
    pub(crate) fn read(&self, control: &ControlActor<M>) -> PlaneOutcome {
        let results = self.sessions.iter().map(|&id| control.row(id).clone()).collect();
        // Rendered before the ring's events move out, so that the text's
        // growth never sits on top of their vector: the plane's peak holds
        // the text's length and no more.
        let journal_text = if self.render_journal {
            encode_session_journal(&control.journal)
        } else {
            String::new()
        };
        let ring = self.ring.borrow();
        PlaneOutcome {
            journal_text,
            results,
            fleet_config: control.fleet_config.clone(),
            events: Vec::new(),
            events_evicted: ring.total_seen() - ring.len() as u64,
            counts: self.counts.borrow().clone(),
            stats: self.sim.stats(),
            cache: control.cache_stats(),
            suppressed_sends: control.host.suppressed_sends,
            breaker_open_us: control.host.breaker_open_us(self.sim.now()),
            lock_holders: control.lock_holder_count() as u64,
        }
    }

    /// Ends the plane and hands its stream over in `out`, read from it:
    /// the simulator is dropped first, and with it every actor and every
    /// bus clone, and only then do the ring's events move into one vector
    /// of exactly their number — no event is cloned, and no actor is live
    /// beside that vector.
    pub(crate) fn distill(self, mut out: PlaneOutcome) -> PlaneOutcome {
        let ring = Rc::clone(&self.ring);
        drop(self);
        debug_assert_eq!(Rc::strong_count(&ring), 1, "a bus clone outlived its plane");
        out.events = ring.borrow_mut().take_events();
        out
    }
}

/// Tags the event stream with the world's domain and objective. Video
/// worlds stay silent so every pre-existing stream (and its fingerprint)
/// is byte-identical; generated domains announce themselves once per
/// control plane, before any session activity.
fn emit_domain_tag(bus: &Bus, world: &FleetWorld, control_id: ActorId) {
    if world.domain() == Domain::Video {
        return;
    }
    let tag = sada_obs::FleetEvent::DomainTagged {
        domain: world.domain().tag(),
        objective: world.objective().tag(),
    };
    bus.emit(fleet_event(SimTime::ZERO, control_id, 0, tag));
}

/// Stretches every phase of an agent's work by `factor`.
fn scale_timing(t: AgentTiming, factor: u32) -> AgentTiming {
    let scale = |d: SimDuration| SimDuration::from_micros(d.as_micros() * u64::from(factor));
    AgentTiming {
        safe_delay: scale(t.safe_delay),
        drain_extra: scale(t.drain_extra),
        act_delay: scale(t.act_delay),
        resume_delay: scale(t.resume_delay),
        rollback_delay: scale(t.rollback_delay),
    }
}

/// Peak overlap of the admitted rows' `[admitted, completed)` intervals; an
/// interval without a completion extends to the end. A completion at
/// instant `t` does not overlap an admission at `t`.
pub(crate) fn max_concurrent(results: &[SessionResult]) -> usize {
    let mut edges: Vec<(u64, i32)> = Vec::with_capacity(results.len() * 2);
    for r in results {
        if let Some(start) = r.admitted_at {
            edges.push((start, 1));
            edges.push((r.completed_at.unwrap_or(u64::MAX), -1));
        }
    }
    // Sort by time, completions (-1) before admissions (+1) on ties.
    edges.sort_unstable();
    let (mut cur, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

/// First submission → last completion over `results`, in virtual μs.
pub(crate) fn makespan_us(results: &[SessionResult]) -> u64 {
    let first = results.iter().filter_map(|r| r.submitted_at).min();
    let last = results.iter().filter_map(|r| r.completed_at).max();
    match (first, last) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Coalesces *ascending* agent indices (repeats allowed) into the
    /// disjoint runs [`build_plane`] takes as a hosted set.
    pub(crate) fn hosted_runs(agents: impl IntoIterator<Item = usize>) -> Vec<Range<usize>> {
        let mut runs: Vec<Range<usize>> = Vec::new();
        agents.into_iter().for_each(|a| crate::world::push_range(&mut runs, a..a + 1));
        runs
    }
    use sada_expr::oracle;

    /// The plane `run_fleet` builds for `scenario`, at seed 42.
    fn whole_plane(scenario: &FleetScenario) -> Plane<()> {
        let world = scenario.build_world();
        #[allow(clippy::single_range_in_vec_init)]
        let everyone = vec![0..world.process_count()];
        let specs = scenario.sessions.clone();
        build_plane(scenario, world, everyone, 42, 0, specs, None, |c, _| ("control", c))
    }

    /// Nothing a run reads is the spec or a world-wide table: a flat and a
    /// sharded run of the video world leave its spec and every view
    /// unrendered, and the run path reads its classes through placements.
    /// So do runs of spec worlds, of one block per cluster and of one
    /// block of four clusters that share processes.
    #[test]
    fn a_run_leaves_the_spec_and_views_unrendered() {
        use crate::world::tests::{four_clusters, shared_hosts_spec};
        for spec in [four_clusters(), shared_hosts_spec(4)] {
            let scenario = FleetScenario::with_world(spec, disjoint_wave(2, 2));
            let world = scenario.build_world();
            assert_eq!(run_fleet_on(&scenario, world.clone()).succeeded(), 2);
            let sharded = crate::ShardScenario::new(scenario.clone(), 2);
            let report = crate::shard::run_sharded(&sharded, 2, true, Some(world.clone()));
            assert_eq!(report.results.iter().filter(|r| r.success).count(), 2);
            assert!(!world.views_rendered(), "a spec run reads no world-wide view");
        }
        let scenario = FleetScenario::new(4, disjoint_wave(2, 2));
        let world = scenario.build_world();
        assert_eq!(run_fleet_on(&scenario, world.clone()).succeeded(), 2);
        let sharded = crate::ShardScenario::new(scenario.clone(), 2);
        let report = crate::shard::run_sharded(&sharded, 2, true, Some(world.clone()));
        assert_eq!(report.results.iter().filter(|r| r.success).count(), 2);
        assert!(!world.spec.is_rendered());
        assert!(!world.views_rendered(), "a video run reads no world-wide view");
        assert_eq!(*world.spec, WorldSpec::video(4), "the first read renders it");
        assert!(world.spec.is_rendered());
        assert_eq!(world.universe.len(), 8, "the first read of a view renders them");
        assert!(world.views_rendered());
    }

    #[test]
    fn hosted_runs_coalesce_ascending_indices() {
        assert_eq!(hosted_runs([]), []);
        assert_eq!(hosted_runs([0, 3, 3, 4, 5, 9, 10]), [0..1, 3..6, 9..11]);
        assert_eq!(hosted_runs(0..7).as_slice(), std::slice::from_ref(&(0..7)));
    }

    /// A plane hosting group 1's agents and, in a run of its own, agent 0:
    /// they sit at the ids they have in every plane, everything around them
    /// is vacant, and a slow-agent entry for an agent hosted elsewhere is as
    /// inert as one for an agent the world does not have.
    #[test]
    fn a_partial_plane_keeps_every_id_and_allocates_only_its_own() {
        let mut scenario = FleetScenario::new(4, Vec::new());
        scenario.sessions = vec![SessionSpec {
            id: 1,
            flips: vec![(1, true)],
            priority: 0,
            submit_at: SimDuration::ZERO,
            cancel_at: None,
        }];
        scenario.slow_agents = vec![(1, 9), (3, 2), (8, 9)];
        let specs = scenario.sessions.clone();
        let mut plane = build_plane::<(), _>(
            &scenario,
            scenario.build_world(),
            hosted_runs([0, 2, 3]),
            42,
            0,
            specs,
            None,
            |c, _| ("control", c),
        );
        assert_eq!(plane.control_id.index(), 8);
        assert_eq!(plane.sim.actor_count(), 4, "three agents and the control plane");
        plane.sim.run_for(scenario.time_budget);
        let control = plane.sim.actor::<ControlActor<()>>(plane.control_id).unwrap();
        let read = plane.read(control);
        let out = plane.distill(read);
        assert!(out.results[0].success);
        // Agent 3 is the slow one: it acts last, twice as late as agent 2.
        let acted = |agent: u32| {
            let mut mine = out.events.iter().filter(|e| e.actor == agent);
            mine.next_back().expect("both of group 1's agents took part").at
        };
        assert!(acted(3) > acted(2), "the stretched agent finishes after its peer");
    }

    /// A plane clones from its prototype the agents its sessions engage and
    /// the agents a fault touches, and no others. The hand mutation "clone
    /// every member at build" fails this test.
    #[test]
    fn a_plane_clones_the_agents_it_engages_and_no_others() {
        let cloned = |scenario: &FleetScenario| {
            let mut plane = whole_plane(scenario);
            plane.sim.run_for(scenario.time_budget);
            let arena = plane.sim.arena::<CloneArena<ScriptedAgent>>(ActorId::from_index(0));
            arena.expect("agent 0 is a member of the plane's arena").cloned()
        };
        let mut scenario = FleetScenario::new(1_000, disjoint_wave(10, 1));
        assert_eq!(cloned(&scenario), 20, "ten sessions of one group, two agents each");
        assert_eq!(cloned(&FleetScenario::new(1_000, Vec::new())), 0);
        let idle = ActorId::from_index(1_999);
        scenario.faults = FaultPlan::new().crash(idle, SimTime::from_millis(1));
        assert_eq!(cloned(&scenario), 21, "a crash of an idle agent clones it");
    }

    /// A plane shaped as a sharded endpoint builds it — region 1 of two over
    /// four groups, agents 4 to 7 hosted, shard tag 2 — under a fault plan
    /// that crashes and restarts agent 7, whom no session engages, and
    /// agent 0, whom the plane does not host; agent 5 is named twice among
    /// the slow (the first entry wins).
    #[test]
    fn an_endpoint_plane_with_an_idle_agent_crashed_and_a_slow_agent_named_twice_is_pinned() {
        use sada_obs::{fnv1a, text::push_lines};
        let mut scenario = FleetScenario::new(
            4,
            vec![SessionSpec {
                id: 1,
                flips: vec![(2, true)],
                priority: 0,
                submit_at: SimDuration::ZERO,
                cancel_at: None,
            }],
        );
        scenario.slow_agents = vec![(5, 3), (5, 1)];
        scenario.faults = FaultPlan::new()
            .crash(ActorId::from_index(7), SimTime::from_millis(2))
            .restart(ActorId::from_index(7), SimTime::from_millis(9))
            .crash(ActorId::from_index(0), SimTime::from_millis(3));
        let specs = scenario.sessions.clone();
        let mut plane = build_plane::<(), _>(
            &scenario,
            scenario.build_world(),
            hosted_runs(4..8),
            42,
            2,
            specs,
            None,
            |c, _| ("control", c),
        );
        plane.sim.run_for(scenario.time_budget);
        let control = plane.sim.actor::<ControlActor<()>>(plane.control_id).unwrap();
        let read = plane.read(control);
        let out = plane.distill(read);
        assert!(out.results[0].success);
        assert_eq!((out.stats.crashes, out.stats.restarts), (1, 1), "agent 0 is not here");
        let mut records = String::new();
        push_lines(&mut records, sada_proto::parse_session_journal(&out.journal_text).unwrap());
        let got = (
            crate::fingerprint_events(&out.events),
            fnv1a(&out.journal_text),
            fnv1a(records),
            out.fleet_config.to_bit_string(),
        );
        let want = (0xaacaebeb226823f4, 0x0b201c04c4cfa2e8, 0x63a07ce6f926af03, "01100101");
        assert_eq!((got.0, got.1, got.2, got.3.as_str()), want, "{got:#018x?}");
    }

    /// The hosted set must cover every scope the plane's sessions reach; a
    /// send outside it would be dropped by the simulator without a trace,
    /// so the control plane stops instead, naming who addressed whom.
    #[test]
    #[should_panic(expected = "session 7 addresses agent 1, which shard 3 does not host")]
    fn addressing_an_unhosted_agent_panics_naming_session_agent_and_shard() {
        let sessions = vec![SessionSpec {
            id: 7,
            flips: vec![(0, true)],
            priority: 0,
            submit_at: SimDuration::ZERO,
            cancel_at: None,
        }];
        let scenario = FleetScenario::new(2, sessions.clone());
        // Group 0 lives on agents 0 and 1; this plane hosts agent 0 only.
        let mut plane = build_plane::<(), _>(
            &scenario,
            scenario.build_world(),
            hosted_runs([0]),
            42,
            3,
            sessions,
            None,
            |c, _| ("control", c),
        );
        plane.sim.run_for(scenario.time_budget);
    }

    #[test]
    fn max_concurrent_counts_overlap_not_touch() {
        let rows = |spans: &[(Option<u64>, Option<u64>)]| -> Vec<SessionResult> {
            let row = |&(admitted_at, completed_at)| SessionResult {
                admitted_at,
                completed_at,
                ..SessionResult::default()
            };
            spans.iter().map(row).collect()
        };
        // [0,10) and [10,20) touch but never overlap; [5,15) overlaps both.
        let touch = [(Some(0), Some(10)), (Some(10), Some(20))];
        assert_eq!(max_concurrent(&rows(&touch)), 1);
        assert_eq!(max_concurrent(&rows(&[touch[0], touch[1], (Some(5), Some(15))])), 2);
        assert_eq!(
            max_concurrent(&rows(&[(Some(0), None), (Some(1), None), (Some(2), Some(3))])),
            3
        );
        // A row never admitted (shed, cancelled, unsubmitted) is no interval.
        assert_eq!(max_concurrent(&rows(&[(None, Some(4)), (None, None)])), 0);
        assert_eq!(max_concurrent(&[]), 0);
    }

    #[test]
    fn two_disjoint_sessions_complete_and_overlap() {
        let scenario = FleetScenario::new(4, disjoint_wave(2, 2));
        let report = run_fleet(&scenario);
        assert_eq!(report.succeeded(), 2, "results: {:?}", report.results);
        assert_eq!(report.max_concurrent, 2, "disjoint scopes run side by side");
        assert_eq!((report.restores, report.events_evicted), (0, 0));
        // All four groups moved to New (bit strings print MSB first, so
        // each group reads `10`: New set, Old clear).
        assert_eq!(report.final_config, "10101010");
        // The two sessions pose isomorphic planning problems: the first
        // fills the shared cache, the second is answered from it.
        assert_eq!((report.cache.hits, report.cache.misses), (1, 1), "{:?}", report.cache);
        let cache_events = (report.counts[Kind::PlanCacheHit], report.counts[Kind::PlanCacheMiss]);
        assert_eq!(cache_events, (1, 1), "hit and miss both reach the event stream");
    }

    #[test]
    fn ring_overflow_is_counted_not_hidden() {
        // Flood the plane's bus past the ring's capacity before the run:
        // the report keeps the tail and says how much of the head it lost.
        let scenario = FleetScenario::new(2, disjoint_wave(1, 2));
        let mut plane = whole_plane(&scenario);
        let filler = sada_obs::FleetEvent::SessionCancelled { session: 9 };
        for _ in 0..RING_CAPACITY + 5 {
            plane.bus.emit(fleet_event(SimTime::ZERO, plane.control_id, 9, filler));
        }
        plane.sim.run_for(scenario.time_budget);
        let control = plane.sim.actor::<ControlActor<()>>(plane.control_id).unwrap();
        let read = plane.read(control);
        let out = plane.distill(read);
        assert!(out.results[0].success);
        assert_eq!(out.events.len(), RING_CAPACITY, "the ring is full");
        let run_events = out.events.iter().filter(|e| e.session == 1).count() as u64;
        assert_eq!(out.events_evicted, 5 + run_events, "and the overflow is visible");
        let fillers = out.counts[Kind::SessionCancelled] as usize;
        assert_eq!(fillers, RING_CAPACITY + 5, "the counts fold the evicted head too");
    }

    #[test]
    fn a_finished_session_leaves_no_engagement_and_a_concurrent_one_keeps_its_two() {
        // Session 2 starts on a group of its own while 1 is in flight.
        let spec = |id, group, at_ms| SessionSpec {
            id,
            flips: vec![(group, true)],
            priority: 0,
            submit_at: SimDuration::from_millis(at_ms),
            cancel_at: None,
        };
        let scenario = FleetScenario::new(4, vec![spec(1, 0, 0), spec(2, 2, 5)]);
        let mut plane = whole_plane(&scenario);
        let control = |plane: &Plane<()>| {
            let control = plane.sim.actor::<ControlActor<()>>(plane.control_id).unwrap();
            let engaged: Vec<(usize, u64)> =
                (0..8).filter_map(|a| Some((a, control.host.engaged(a)?))).collect();
            let done = [1, 2].iter().filter(|&&sid| control.is_done(sid)).count();
            (control.is_done(1), done, engaged)
        };
        while !control(&plane).0 {
            assert!(plane.sim.step(), "session 1 completes before the run drains");
        }
        let (_, done, engaged) = control(&plane);
        assert_eq!(done, 1, "2 is still in flight when 1 finishes");
        assert_eq!(engaged, [(4, 2), (5, 2)], "Old2's and New2's hosts, and nobody of 1's");
        plane.sim.run_for(scenario.time_budget);
        assert_eq!(control(&plane), (true, 2, Vec::new()));
    }

    #[test]
    fn a_session_retains_one_target_and_one_fold_not_the_world_per_record() {
        use sada_proto::JournalRecord;
        // A 16 384-group world (32 768-bit configurations: 8 chunks of
        // 4 096), three sessions one after another: 1 commits group 7, 2
        // asks group 9 for the mode it is already in, 3 commits group
        // 11 000, five chunks further up.
        const CHUNKS: usize = 8;
        let at = |ms| SimDuration::from_millis(ms);
        let spec = |id, flip, submit_at| SessionSpec {
            id,
            flips: vec![flip],
            priority: 0,
            submit_at,
            cancel_at: None,
        };
        let sessions = vec![
            spec(1, (7, true), at(0)),
            spec(2, (9, false), at(200)),
            spec(3, (11_000, true), at(400)),
        ];
        let scenario = FleetScenario::new(16_384, sessions);
        let mut plane = whole_plane(&scenario);
        plane.sim.run_for(scenario.time_budget);
        let control = plane.sim.actor::<ControlActor<()>>(plane.control_id).unwrap();
        let (done1, admitted3) = (control.row(1).completed_at, control.row(3).admitted_at);
        assert!(done1.unwrap() <= admitted3.unwrap(), "3 starts after 1 folded");
        let request = |sid: u64| {
            control
                .journal
                .iter()
                .find_map(|r| match &r.record {
                    JournalRecord::Request { source, target } if r.session.0 == sid => {
                        Some((source, target))
                    }
                    _ => None,
                })
                .expect("every admitted session journals its request")
        };
        let (src1, dst1) = request(1);
        let (src2, dst2) = request(2);
        let (src3, dst3) = request(3);
        assert!([1, 2, 3].iter().all(|&sid| control.row(sid).success));
        let shared = oracle::shared_chunks;

        // (a) a no-op session journals one spine twice — the fleet
        // snapshot it was admitted under, which session 3 then reads too.
        assert!(oracle::shares_storage(src2, dst2));
        assert!(oracle::shares_storage(src2, src3));
        // (b) a committing session's journaled target is its one copy — of
        // a spine and of the chunk its group lives in: its source is the
        // snapshot.
        assert_eq!((shared(src1, dst1), shared(src3, dst3)), (CHUNKS - 1, CHUNKS - 1));
        // (c) later folds into `fleet_config` never reach back into what an
        // earlier session journaled, and copy one chunk each: 3's fold and
        // 3's target hold that chunk once each, every other chunk is the
        // one the world booted with — or the one 1's fold left behind.
        let w = &plane.world;
        let init = w.initial_config();
        let after1 = w.target_for(&init, &[(7, true)]);
        let after3 = w.target_for(&after1, &[(11_000, true)]);
        assert_eq!((src1, dst1), (&init, &after1), "1's record predates both folds");
        assert_eq!((src2, src3), (&after1, &after1), "2 and 3 start from 1's fold, not 3's");
        assert_eq!((dst3, &control.fleet_config), (&after3, &after3));
        assert_eq!(shared(src3, &control.fleet_config), CHUNKS - 1, "3's fold copied a chunk");
        assert_eq!(shared(dst3, &control.fleet_config), CHUNKS - 1, "the one its target copied");
        assert_eq!(shared(src1, &control.fleet_config), CHUNKS - 2, "two sessions, two chunks");
    }

    #[test]
    fn session_lookup_agrees_with_a_scan_over_a_gapped_id_range() {
        let sessions: Vec<SessionSpec> = [21u64, 3, 20, 7]
            .iter()
            .enumerate()
            .map(|(g, &id)| SessionSpec {
                id,
                flips: vec![(g, true)],
                priority: 0,
                submit_at: SimDuration::ZERO,
                cancel_at: None,
            })
            .collect();
        let report = run_fleet(&FleetScenario::new(4, sessions));
        let ids: Vec<u64> = report.results.iter().map(|r| r.id).collect();
        assert_eq!(ids, [3, 7, 20, 21], "rows ascend by id whatever the submission order");
        for id in 0..=25 {
            let scanned = report.results.iter().find(|r| r.id == id);
            assert_eq!(report.session(id), scanned, "session {id}");
            assert_eq!(scanned.is_some(), ids.contains(&id));
        }
    }

    #[test]
    fn serialize_mode_never_overlaps() {
        let mut scenario = FleetScenario::new(4, disjoint_wave(2, 2));
        scenario.serialize = true;
        let report = run_fleet(&scenario);
        assert_eq!(report.succeeded(), 2);
        assert_eq!(report.max_concurrent, 1, "serial baseline admits one at a time");
        assert_eq!(report.final_config, "10101010");
    }

    #[test]
    fn overlapping_sessions_queue_and_compose() {
        // Session 1 flips group 0 forward; session 2 (overlapping scope)
        // flips it back. Admission order must serialize them and the second
        // must see the first's result as its source.
        let sessions = vec![
            SessionSpec {
                id: 1,
                flips: vec![(0, true)],
                priority: 0,
                submit_at: SimDuration::ZERO,
                cancel_at: None,
            },
            SessionSpec {
                id: 2,
                flips: vec![(0, false)],
                priority: 0,
                submit_at: SimDuration::from_millis(1),
                cancel_at: None,
            },
        ];
        let report = run_fleet(&FleetScenario::new(1, sessions));
        assert_eq!(report.succeeded(), 2, "results: {:?}", report.results);
        assert_eq!(report.max_concurrent, 1);
        let s1 = report.session(1).unwrap();
        let s2 = report.session(2).unwrap();
        assert!(s1.completed_at.unwrap() <= s2.admitted_at.unwrap(), "2 waits for 1");
        assert_eq!(report.final_config, "01", "flip forward then back restores Old");
    }

    #[test]
    fn queued_session_cancellation_resolves_it() {
        let sessions = vec![
            SessionSpec {
                id: 1,
                flips: vec![(0, true)],
                priority: 0,
                submit_at: SimDuration::ZERO,
                cancel_at: None,
            },
            SessionSpec {
                id: 2,
                flips: vec![(0, false)],
                priority: 0,
                submit_at: SimDuration::from_millis(1),
                // The first session needs tens of virtual ms; cancel early.
                cancel_at: Some(SimDuration::from_millis(3)),
            },
        ];
        let report = run_fleet(&FleetScenario::new(1, sessions));
        let s2 = report.session(2).unwrap();
        assert!(s2.cancelled && !s2.success, "results: {:?}", report.results);
        assert!(report.session(1).unwrap().success);
        assert_eq!(report.final_config, "10", "only session 1 took effect");
    }
}
