//! The id table's extents against the dense layout as oracle.
//!
//! A layout is a sequence of runs — a solo actor, some members of one
//! shared arena, or some vacant ids — and every hosted actor runs the same
//! little script (timers, a forwarding chain, crash and restart hooks)
//! whatever backs it. The *sparse* simulator registers the layout as given.
//! The *dense* one registers the hosted actors alone, each a solo actor, at
//! ids `0..n`, and addresses what the layout left vacant at ids past its
//! end. Apart from that renaming the two must be indistinguishable: same
//! callbacks in the same order at the same instants, same net trace, same
//! counters, same crash and incarnation answers — which is both "an arena
//! run behaves as solo actors" and "a vacant id behaves as one past the
//! end", for routing, injection, faults and queries.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use sada_obs::{NetEvent, Payload, RingSink};
use sada_simnet::{
    Actor, ActorId, CloneArena, Context, LinkConfig, NetStats, SimDuration, SimTime, Simulator,
};

/// `(hops left, sender)`; senders and receivers go by *address* — an index
/// into the address table both layouts share — never by raw id.
type Msg = (u32, usize);

/// What a callback saw: `(instant μs, address, what, detail)`.
type Log = Rc<RefCell<Vec<(u64, usize, &'static str, u64)>>>;

#[derive(Clone)]
struct Node {
    me: usize,
    /// Address → id in this layout: the hosted actors, then the vacant ids.
    peers: Rc<Vec<ActorId>>,
    log: Log,
}

impl Node {
    fn note(&self, at: SimTime, what: &'static str, detail: u64) {
        self.log.borrow_mut().push((at.as_micros(), self.me, what, detail));
    }
}

impl Actor<Msg> for Node {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.note(ctx.now(), "start", 0);
        // The arena's prototype knows no peers and asks for nothing.
        if !self.peers.is_empty() {
            ctx.set_timer(SimDuration::from_micros(150 * (self.me as u64 + 1)), self.me as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: ActorId, (hops, sender): Msg) {
        self.note(ctx.now(), "message", (u64::from(hops) << 32) | sender as u64);
        if hops > 0 {
            let to = (self.me + 3 * hops as usize + sender) % self.peers.len();
            ctx.send(self.peers[to], (hops - 1, self.me));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        self.note(ctx.now(), "timer", tag);
        let to = (self.me * 7 + tag as usize) % self.peers.len();
        ctx.send(self.peers[to], (4, self.me));
    }

    fn on_crash(&mut self, now: SimTime) {
        self.note(now, "crash", 0);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.note(ctx.now(), "restart", 0);
        ctx.set_timer(SimDuration::from_micros(400), 1_000 + self.me as u64);
    }
}

#[derive(Debug, Clone, Copy)]
enum Run {
    Solo,
    Members(u32),
    Vacant(u32),
}

fn run() -> impl Strategy<Value = Run> {
    prop_oneof![Just(Run::Solo), (1u32..5).prop_map(Run::Members), (1u32..5).prop_map(Run::Vacant),]
}

/// Everything observable about one finished run, ids renamed to addresses.
#[derive(Debug, PartialEq)]
struct Observed {
    log: Vec<(u64, usize, &'static str, u64)>,
    /// The bus's `Net` events: `(instant μs, address, event)`, every id in
    /// the event an address too.
    trace: Vec<(u64, usize, NetEvent)>,
    stats: NetStats,
    /// How many addresses are hosted actors; the rest are vacant ids.
    hosted: usize,
    /// `(is_crashed, incarnation)` per address.
    liveness: Vec<(bool, u32)>,
    pending: usize,
}

/// Crash/restart instants per address (vacant ones included), injections
/// `(to, hops, delay μs)` sent from address 0, and the link model.
struct Script<'a> {
    seed: u64,
    lossy: bool,
    faults: &'a [(usize, u64, u64)],
    injections: &'a [(usize, u32, u64)],
}

fn observe(layout: &[Run], sparse: bool, script: &Script<'_>) -> Observed {
    let hosted: u32 = layout
        .iter()
        .map(|r| match *r {
            Run::Solo => 1,
            Run::Members(n) => n,
            Run::Vacant(_) => 0,
        })
        .sum();
    // The address table of this layout.
    let (mut live, mut ghosts, mut next) = (Vec::new(), Vec::new(), 0u32);
    for r in layout {
        let (len, into) = match *r {
            Run::Solo => (1, &mut live),
            Run::Members(n) => (n, &mut live),
            Run::Vacant(n) => (n, &mut ghosts),
        };
        into.extend((next..next + len).map(|id| ActorId::from_index(id as usize)));
        next += len;
    }
    if !sparse {
        let dense = |ix: usize| ActorId::from_index(ix);
        live = (0..hosted as usize).map(dense).collect();
        ghosts = (0..ghosts.len()).map(|k| dense(hosted as usize + k)).collect();
    }
    let peers: Rc<Vec<ActorId>> = Rc::new(live.iter().chain(&ghosts).copied().collect());
    let log: Log = Rc::default();
    let node = |me: usize| Node { me, peers: Rc::clone(&peers), log: Rc::clone(&log) };

    let mut sim: Simulator<Msg> = Simulator::new(script.seed);
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 16)));
    sim.bus().attach(&ring);
    let link = LinkConfig::lossy(SimDuration::from_micros(700), 0.15)
        .with_jitter(SimDuration::from_micros(300));
    sim.set_default_link(if script.lossy {
        link
    } else {
        LinkConfig::reliable(SimDuration::from_micros(700))
    });
    if sparse {
        // One arena behind every `Members` run, so a run's first member is
        // rarely member 0. Every member is supplied.
        let mut members = Vec::new();
        let mut me = 0;
        for r in layout {
            match *r {
                Run::Solo => me += 1,
                Run::Members(n) => {
                    let first = members.len() as u32;
                    members.extend((0..n).map(|k| (first + k, node(me + k as usize))));
                    me += n as usize;
                }
                Run::Vacant(_) => {}
            }
        }
        let prototype = Node { me: 0, peers: Rc::default(), log: Rc::default() };
        let arena = sim.add_arena(CloneArena::new(prototype, members.len() as u32, members));
        let (mut me, mut member) = (0, 0);
        for r in layout {
            match *r {
                Run::Solo => {
                    assert_eq!(sim.add_actor("solo", node(me)), peers[me]);
                    me += 1;
                }
                Run::Members(n) => {
                    let first = sim.add_arena_members("member", arena, member..member + n);
                    assert_eq!(first, peers[me]);
                    (me, member) = (me + n as usize, member + n);
                }
                Run::Vacant(n) => sim.add_vacant(n),
            }
        }
    } else {
        for me in 0..hosted as usize {
            assert_eq!(sim.add_actor("solo", node(me)), peers[me]);
        }
    }
    assert_eq!(sim.actor_count(), hosted as usize);

    for &(target, crash_us, down_us) in script.faults {
        let id = peers[target % peers.len()];
        sim.crash_at(id, SimTime::from_micros(crash_us));
        sim.restart_at(id, SimTime::from_micros(crash_us + down_us));
    }
    for &(to, hops, delay_us) in script.injections {
        let to = peers[to % peers.len()];
        sim.inject(peers[0], to, (hops, 0), SimDuration::from_micros(delay_us));
    }
    let batch_to = peers[peers.len() - 1];
    sim.inject_batch(peers[0], batch_to, vec![(1, 0), (2, 0)], SimDuration::from_micros(50));
    sim.run_until(SimTime::from_millis(20));

    let address = |id: ActorId| peers.iter().position(|&p| p == id).expect("an address");
    let addr = |ix: u32| address(ActorId::from_index(ix as usize)) as u32;
    let trace = ring
        .borrow()
        .events()
        .into_iter()
        .filter_map(|e| {
            let net = match e.payload {
                Payload::Net(NetEvent::Sent { from, to }) => {
                    NetEvent::Sent { from: addr(from), to: addr(to) }
                }
                Payload::Net(NetEvent::Delivered { from, to }) => {
                    NetEvent::Delivered { from: addr(from), to: addr(to) }
                }
                Payload::Net(NetEvent::Dropped { from, to }) => {
                    NetEvent::Dropped { from: addr(from), to: addr(to) }
                }
                Payload::Net(other) => other,
                _ => return None,
            };
            Some((e.at.as_micros(), addr(e.actor) as usize, net))
        })
        .collect();
    let liveness = peers.iter().map(|&p| (sim.is_crashed(p), sim.incarnation(p))).collect();
    let observed = Observed {
        log: log.borrow().clone(),
        trace,
        stats: sim.stats(),
        hosted: hosted as usize,
        liveness,
        pending: sim.pending_events(),
    };
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_extent_layout_is_the_dense_layout_renamed(
        layout in proptest::collection::vec(run(), 1..13),
        seed in 0u64..1_000,
        lossy in any::<bool>(),
        faults in proptest::collection::vec((0usize..64, 0u64..6_000, 1u64..4_000), 0..6),
        injections in proptest::collection::vec((0usize..64, 0u32..5, 0u64..3_000), 0..6),
    ) {
        prop_assume!(layout.iter().any(|r| !matches!(r, Run::Vacant(_))));
        let script = Script { seed, lossy, faults: &faults, injections: &injections };
        let sparse = observe(&layout, true, &script);
        let dense = observe(&layout, false, &script);
        prop_assert!(sparse.stats.delivered > 0, "the script must do something: {:?}", layout);
        prop_assert_eq!(&sparse, &dense, "layout {:?}", layout);
        // What the layout left vacant never crashed, whatever was thrown at it.
        prop_assert!(sparse.liveness[sparse.hosted..].iter().all(|&l| l == (false, 0)));
    }
}
