//! The cross-shard fabric: its seeded fault plan, the lock-escalation
//! messages that cross it and their text codec, the per-edge mailboxes and
//! promises of the conservative clock, and the in-simulator relay.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Condvar, Mutex};

use sada_obs::text::{list, Cursor, Fields, ParseError};
use sada_proto::Wire;
use sada_resilience::jitter_us;
use sada_simnet::{Actor, ActorId, Context};

// ---------------------------------------------------------------------------
// Fabric fault plan
// ---------------------------------------------------------------------------

/// Deterministic, seeded chaos for the cross-shard fabric. Faults are
/// decided *per message* by pure hashes of `(seed, src, dst, seq, kind)`,
/// so a lossy run replays bit-for-bit at any worker-thread count.
///
/// All faults respect the conservative-clock safety rule: a delayed copy
/// still arrives no earlier than the edge's published promise, and dropped
/// messages only ever *remove* traffic the retransmission ladder re-drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricFaultPlan {
    /// Seed for the fault hashes. Independent of the workload seed so the
    /// same scenario can be swept across fault universes.
    pub seed: u64,
    /// Probability (per mille) a fabric message is silently dropped.
    pub drop_per_mille: u16,
    /// Probability (per mille) a fabric message is delivered twice.
    pub dup_per_mille: u16,
    /// Probability (per mille) a fabric message is delay-bursted to a
    /// later quantum boundary (this also reorders it behind later sends).
    pub delay_per_mille: u16,
    /// Upper bound (in arrival quanta) for delay bursts; the actual burst
    /// is `1 + hash % max_delay_quanta`.
    pub max_delay_quanta: u32,
    /// Probability (per mille) a *null message* (pure promise advance) is
    /// suppressed. Each distinct promise value is dropped at most once per
    /// edge, so progress is merely slowed, never stopped.
    pub null_drop_per_mille: u16,
    /// Restricts faults to sends inside `[start_us, end_us)`; `None` arms
    /// them for the whole run.
    pub window_us: Option<(u64, u64)>,
}

impl Default for FabricFaultPlan {
    fn default() -> Self {
        FabricFaultPlan {
            seed: 0x05AD_AFAB,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            max_delay_quanta: 4,
            null_drop_per_mille: 0,
            window_us: None,
        }
    }
}

pub(crate) const SALT_DROP: u64 = 1;
pub(crate) const SALT_DUP: u64 = 2;
pub(crate) const SALT_DELAY: u64 = 3;
pub(crate) const SALT_DELAY_AMT: u64 = 4;
pub(crate) const SALT_NULL: u64 = 5;

/// Mixes one fabric message's identity into a fault-roll salt. `seq` gets
/// the golden-ratio spread so consecutive messages land in unrelated
/// regions of the jitter space.
pub(crate) fn fault_salt(src: u32, dst: u32, seq: u64, kind: u64) -> u64 {
    (u64::from(src) << 48) ^ (u64::from(dst) << 40) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ kind
}

impl FabricFaultPlan {
    /// Whether any fault class is enabled at all (fast bail-out).
    pub fn is_active(&self) -> bool {
        self.drop_per_mille > 0
            || self.dup_per_mille > 0
            || self.delay_per_mille > 0
            || self.null_drop_per_mille > 0
    }

    /// Whether faults are armed for a message sent at `send_us`.
    pub(crate) fn armed_at(&self, send_us: u64) -> bool {
        match self.window_us {
            Some((start, end)) => send_us >= start && send_us < end,
            None => true,
        }
    }

    /// One seeded per-mille roll for the given salt.
    pub(crate) fn roll(&self, salt: u64, per_mille: u16) -> bool {
        per_mille > 0 && jitter_us(self.seed, salt, 1000) < u64::from(per_mille)
    }
}

// ---------------------------------------------------------------------------
// Cross-shard fabric
// ---------------------------------------------------------------------------

/// What crosses the fabric: only lock escalation. Regions and the global
/// tier never exchange protocol traffic — a globally run session drives the
/// global endpoint's own agent replicas, and only the scope-slice handshake
/// (request / grant-with-values / release-with-values / release-ack) is
/// distributed.
///
/// Every message carries an **epoch**: the global tier's incarnation
/// number at send time. Regions use it to evict leases held for a dead
/// global incarnation (reclaim) and to discard stale duplicates, which
/// makes grant/release application idempotent under the retransmission
/// ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the shared `Lock` prefix is the point: this IS the lock protocol
pub enum FabricPayload {
    /// Global tier → region: hold this scope slice under `session`.
    LockRequest { session: u64, resources: Vec<u32>, comps: Vec<u32>, priority: u8, epoch: u64 },
    /// Region → global tier: the slice is held; `values` carries the
    /// region's current component states so the global planner starts from
    /// the authoritative source configuration.
    LockGranted { session: u64, region: u32, epoch: u64, values: Vec<(u32, bool)> },
    /// Global tier → region: the session finished (or withdrew); `values`
    /// carries the final component states to fold into the region's
    /// durable fleet configuration.
    LockRelease { session: u64, epoch: u64, values: Vec<(u32, bool)> },
    /// Region → global tier: the release landed; retires the release's
    /// retransmission timer.
    ReleaseAck { session: u64, region: u32, epoch: u64 },
}

impl FabricPayload {
    /// The straddler session this message belongs to.
    pub fn session(&self) -> u64 {
        match *self {
            FabricPayload::LockRequest { session, .. }
            | FabricPayload::LockGranted { session, .. }
            | FabricPayload::LockRelease { session, .. }
            | FabricPayload::ReleaseAck { session, .. } => session,
        }
    }
}

/// One fabric message as a single text line (the same `verb key=value`
/// shape as the adaptation journals). Lists are comma-joined, `-` when
/// empty.
pub fn encode_fabric_msg(msg: &FabricPayload) -> String {
    let ids = |xs| list(xs, |x: &u32, f| write!(f, "{x}"));
    let values = |vs| list(vs, |&(comp, on): &(u32, bool), f| write!(f, "{comp}:{}", u8::from(on)));
    match msg {
        FabricPayload::LockRequest { session, resources, comps, priority, epoch } => format!(
            "lock_request session={session} epoch={epoch} priority={priority} resources={} comps={}",
            ids(resources),
            ids(comps)
        ),
        FabricPayload::LockGranted { session, region, epoch, values: vs } => {
            format!("lock_granted session={session} region={region} epoch={epoch} values={}", values(vs))
        }
        FabricPayload::LockRelease { session, epoch, values: vs } => {
            format!("lock_release session={session} epoch={epoch} values={}", values(vs))
        }
        FabricPayload::ReleaseAck { session, region, epoch } => {
            format!("release_ack session={session} region={region} epoch={epoch}")
        }
    }
}

/// Parses one [`encode_fabric_msg`] line back into a payload.
pub fn parse_fabric_msg(line: &str) -> Result<FabricPayload, ParseError> {
    let f = Fields::words(Cursor::new(line))?;
    let ids = |key| f.parse(key, |c| c.next_list(Cursor::next_int));
    let values = |key| {
        f.parse(key, |c| {
            c.next_list(|c| {
                let comp = c.next_int()?;
                c.expect(b':')?;
                Ok((comp, c.either(b'0', b'1')?))
            })
        })
    };
    Ok(match f.verb.as_str() {
        "lock_request" => FabricPayload::LockRequest {
            session: f.int("session")?,
            resources: ids("resources")?,
            comps: ids("comps")?,
            priority: f.int("priority")?,
            epoch: f.int("epoch")?,
        },
        "lock_granted" => FabricPayload::LockGranted {
            session: f.int("session")?,
            region: f.int("region")?,
            epoch: f.int("epoch")?,
            values: values("values")?,
        },
        "lock_release" => FabricPayload::LockRelease {
            session: f.int("session")?,
            epoch: f.int("epoch")?,
            values: values("values")?,
        },
        "release_ack" => FabricPayload::ReleaseAck {
            session: f.int("session")?,
            region: f.int("region")?,
            epoch: f.int("epoch")?,
        },
        _ => return Err(f.verb.unknown("fabric verb")),
    })
}

/// The app-level message an endpoint's wrapper hands its fabric relay.
#[derive(Debug, Clone)]
pub(crate) struct ShardMsg {
    pub(crate) to: u32,
    pub(crate) payload: FabricPayload,
}

/// A fabric message staged at the receiver, keyed for the deterministic
/// merge: `(arrival, src, seq)` is a total order no wall-clock interleaving
/// can disturb.
pub(crate) struct FabricEnvelope {
    pub(crate) arrival_us: u64,
    pub(crate) src: u32,
    pub(crate) seq: u64,
    pub(crate) payload: FabricPayload,
}

#[derive(Default)]
pub(crate) struct EdgeState {
    pub(crate) mail: Vec<FabricEnvelope>,
    /// Arrival-instant promise: no future message on this edge will arrive
    /// *before* this virtual time. `u64::MAX` once the sender is done.
    pub(crate) promise_us: u64,
    pub(crate) next_seq: u64,
    pub(crate) sent: u64,
    pub(crate) dropped: u64,
    pub(crate) duplicated: u64,
    pub(crate) delayed: u64,
    /// Null-message promise advances suppressed by the fault plan
    /// (wall-clock dependent, diagnostic only).
    pub(crate) nulls_dropped: u64,
    /// The last promise value the fault plan suppressed on this edge: each
    /// distinct value is dropped at most once, so the worker's periodic
    /// re-flush always lands the second attempt — livelock-free.
    pub(crate) last_dropped_promise: u64,
}

pub(crate) struct FabricState {
    pub(crate) edges: HashMap<(u32, u32), EdgeState>,
    pub(crate) promise_updates: u64,
    /// Times a worker found none of its endpoints able to move and blocked
    /// on the condvar (wall-clock dependent, diagnostic only).
    pub(crate) parks: u64,
    /// Per endpoint: a raw lower bound on its next send instant (its
    /// origination bound and its staged arrivals, before clamping against
    /// inbound promises). The min over these plus undrained mail is a
    /// global virtual-time bound — the GVT promise fast path.
    pub(crate) local_bound: HashMap<u32, u64>,
}

impl FabricState {
    /// Global lower bound on any *future* fabric send: no endpoint can
    /// emit a message before this instant, and no undrained envelope
    /// arrives before it either.
    pub(crate) fn gvt(&self) -> u64 {
        let mut bound = u64::MAX;
        for &b in self.local_bound.values() {
            bound = bound.min(b);
        }
        for e in self.edges.values() {
            for env in &e.mail {
                bound = bound.min(env.arrival_us);
            }
        }
        bound
    }
}

/// The shared cross-shard message fabric: bounded per-edge mailboxes plus
/// the conservative-clock promises, guarded by one mutex (traffic is rare —
/// only lock escalation crosses shards).
pub(crate) struct Fabric {
    pub(crate) state: Mutex<FabricState>,
    pub(crate) cv: Condvar,
    /// Fabric latency *and* arrival quantum, μs (the link latency).
    pub(crate) quantum_us: u64,
    /// Seeded chaos applied at the sender as messages enter the fabric.
    pub(crate) faults: FabricFaultPlan,
    /// GVT promise fast path enabled (scheduling-only; see
    /// [`ShardScenario::promise_fastpath`](crate::ShardScenario)).
    pub(crate) fastpath: bool,
}

impl Fabric {
    pub(crate) fn new(
        involved: &[u32],
        global: u32,
        quantum_us: u64,
        faults: FabricFaultPlan,
        fastpath: bool,
    ) -> Self {
        let mut edges = HashMap::new();
        let mut local_bound = HashMap::new();
        local_bound.insert(global, 0);
        for &r in involved {
            local_bound.insert(r, 0);
            for key in [(global, r), (r, global)] {
                edges.insert(key, EdgeState { promise_us: quantum_us, ..EdgeState::default() });
            }
        }
        Fabric {
            state: Mutex::new(FabricState { edges, promise_updates: 0, parks: 0, local_bound }),
            cv: Condvar::new(),
            quantum_us,
            faults,
            fastpath,
        }
    }

    /// Fabric delivery instant for a message sent at `send_us`: the next
    /// quantum boundary at least one fabric latency later. Monotone in the
    /// send instant, so each edge is FIFO by construction.
    pub(crate) fn arrival_of(&self, send_us: u64) -> u64 {
        let q = self.quantum_us;
        (send_us + 2 * q - 1) / q * q
    }
}

/// Cross-shard traffic counters for a finished run. Message and fault
/// counts are deterministic; `promise_updates` / `parks` / `nulls_dropped`
/// count observed clock-advance traffic and vary with wall-clock scheduling
/// (diagnostic only, never fingerprinted).
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Total messages that crossed the fabric (faulted sends included).
    pub messages: u64,
    /// Per directed edge `(src shard tag, dst shard tag, messages)`.
    pub per_edge: Vec<(u32, u32, u64)>,
    /// Null-message promise advances observed (wall-clock dependent).
    pub promise_updates: u64,
    /// Times a worker thread blocked on the fabric waiting for a peer's
    /// promise or message (wall-clock dependent; a one-thread run whose
    /// endpoints can always unblock each other never parks).
    pub parks: u64,
    /// Fabric messages dropped by the fault plan.
    pub dropped: u64,
    /// Fabric messages duplicated by the fault plan.
    pub duplicated: u64,
    /// Fabric messages delay-bursted by the fault plan.
    pub delayed: u64,
    /// Null-message promise advances suppressed by the fault plan
    /// (wall-clock dependent).
    pub nulls_dropped: u64,
}

/// The in-sim half of the fabric: an idle actor sitting after the control
/// plane. Outbound cross-shard messages are addressed to it over the normal
/// (latency-bearing) link and surface in a buffer the executor drains;
/// inbound messages are injected *from* it, so crash/partition semantics
/// apply exactly like actor traffic.
pub(crate) type Outbox = Rc<RefCell<Vec<(u32, u64, FabricPayload)>>>;

pub(crate) struct FabricRelay {
    pub(crate) outbox: Outbox,
}

impl Actor<Wire<ShardMsg>> for FabricRelay {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        _from: ActorId,
        msg: Wire<ShardMsg>,
    ) {
        if let Wire::App(m) = msg {
            self.outbox.borrow_mut().push((m.to, ctx.now().as_micros(), m.payload));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::control::SessionSpec;
    use crate::driver::{disjoint_wave, FleetScenario};
    use crate::shard::{run_fleet_sharded, ShardScenario};
    use sada_simnet::SimDuration;

    /// A fleet with straddlers across both regions — the fabric-exercising
    /// workload the fault tests below run lossy and lossless.
    pub(crate) fn straddling_fleet() -> FleetScenario {
        let mut sessions = disjoint_wave(4, 1);
        sessions.push(SessionSpec {
            id: 9,
            flips: vec![(1, true), (2, true)],
            priority: 0,
            submit_at: SimDuration::from_millis(5),
            cancel_at: None,
        });
        sessions.push(SessionSpec {
            id: 10,
            flips: vec![(0, true), (3, false)],
            priority: 1,
            submit_at: SimDuration::from_millis(9),
            cancel_at: None,
        });
        FleetScenario::new(4, sessions)
    }

    pub(crate) fn chaotic_faults(seed: u64) -> FabricFaultPlan {
        FabricFaultPlan {
            seed,
            drop_per_mille: 250,
            dup_per_mille: 250,
            delay_per_mille: 250,
            max_delay_quanta: 4,
            null_drop_per_mille: 100,
            ..FabricFaultPlan::default()
        }
    }

    #[test]
    fn fabric_codec_round_trips() {
        let msgs = vec![
            FabricPayload::LockRequest {
                session: 9,
                resources: vec![3, 7],
                comps: vec![2, 3],
                priority: 1,
                epoch: 2,
            },
            FabricPayload::LockRequest {
                session: 1,
                resources: Vec::new(),
                comps: Vec::new(),
                priority: 0,
                epoch: 0,
            },
            FabricPayload::LockGranted {
                session: 9,
                region: 1,
                epoch: 2,
                values: vec![(2, true), (3, false)],
            },
            FabricPayload::LockRelease { session: 9, epoch: 2, values: Vec::new() },
            FabricPayload::ReleaseAck { session: 9, region: 1, epoch: 2 },
        ];
        for msg in msgs {
            let line = encode_fabric_msg(&msg);
            let back = parse_fabric_msg(&line).unwrap_or_else(|e| panic!("{e}\nline: {line}"));
            assert_eq!(back, msg, "line: {line}");
        }
        assert!(parse_fabric_msg("lock_request session=1").is_err(), "missing fields rejected");
        assert!(parse_fabric_msg("bogus x=1").is_err(), "unknown verb rejected");
    }

    #[test]
    fn lossy_fabric_converges_to_lossless_outcomes() {
        let lossless = run_fleet_sharded(&ShardScenario::new(straddling_fleet(), 2), 2);
        let mut scn = ShardScenario::new(straddling_fleet(), 2);
        scn.fabric_faults = chaotic_faults(7);
        let lossy = run_fleet_sharded(&scn, 2);
        assert!(
            lossy.fabric.dropped + lossy.fabric.duplicated + lossy.fabric.delayed > 0,
            "the chaos plan must actually bite: {:?}",
            lossy.fabric
        );
        assert_eq!(lossy.final_config, lossless.final_config);
        assert_eq!(lossy.succeeded(), lossless.succeeded(), "results: {:?}", lossy.results);
        for (a, b) in lossy.results.iter().zip(&lossless.results) {
            assert_eq!((a.id, a.success, a.gave_up), (b.id, b.success, b.gave_up));
        }
    }

    #[test]
    fn lossy_fabric_is_thread_invariant() {
        let mut scn = ShardScenario::new(straddling_fleet(), 2);
        scn.fabric_faults = chaotic_faults(11);
        let a = run_fleet_sharded(&scn, 1);
        let b = run_fleet_sharded(&scn, 3);
        assert_eq!(a.fingerprint, b.fingerprint, "lossy runs must stay bit-for-bit identical");
        assert_eq!(a.journals, b.journals);
        assert_eq!(a.global_journal, b.global_journal);
        assert_eq!(a.results, b.results);
        assert_eq!(
            (a.fabric.dropped, a.fabric.duplicated, a.fabric.delayed),
            (b.fabric.dropped, b.fabric.duplicated, b.fabric.delayed),
            "fault decisions are scenario, not scheduling"
        );
    }

    #[test]
    fn promise_fastpath_is_invisible() {
        let mut scn = ShardScenario::new(straddling_fleet(), 2);
        scn.promise_fastpath = false;
        let slow = run_fleet_sharded(&scn, 2);
        scn.promise_fastpath = true;
        let fast = run_fleet_sharded(&scn, 2);
        assert_eq!(slow.fingerprint, fast.fingerprint, "the fast path is scheduling-only");
        assert_eq!(slow.results, fast.results);
        assert_eq!(slow.journals, fast.journals);
        assert_eq!(slow.final_config, fast.final_config);
    }
}
