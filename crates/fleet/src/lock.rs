//! The scope-lock manager: admission control for concurrent adaptations.
//!
//! Section 7's collaborative sets make component adaptations of different
//! sets independent; the control plane exploits that by granting each
//! adaptation session an exclusive lock over its *scope* — the set of
//! abstract resources (component ids and hosting processes) its plan may
//! touch. Sessions with disjoint scopes run concurrently; overlapping
//! sessions queue.
//!
//! Two properties hold by construction:
//!
//! * **Deadlock freedom** — acquisition is atomic and all-or-nothing: a
//!   session either receives its *entire* scope or holds nothing and waits.
//!   No session ever holds part of a scope while waiting for the rest, so
//!   the hold-and-wait condition for deadlock cannot arise.
//! * **Starvation freedom** — grants respect the waiter order (priority
//!   descending, then FIFO): a later request may overtake a waiter only if
//!   its scope is disjoint from that waiter's, so a blocked waiter's
//!   resources can never be re-captured over its head indefinitely.
//!
//! ## What an operation costs
//!
//! Every resource somebody waits on has its own queue of waiters, in grant
//! order. A waiter may be granted iff every resource of its scope is free
//! *and* it heads each of those queues: an earlier waiter it conflicts with
//! is ahead of it in the queue of the resource they share, whether that
//! waiter stays blocked (and shadows it) or is granted first (and holds the
//! resource). So an acquisition looks at the head of each queue of its own
//! scope, and a release or cancellation at the heads of the queues of the
//! scope that went away — a waiter disjoint from that scope was blocked by
//! something else and still is. Cost follows the scope, not the number of
//! waiters, and a manager nobody waits on allocates no queue at all. (The
//! flat scan this replaces — sort every waiter, walk them with a shadow
//! set — is kept in the test module as the oracle.)

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// A waiter's place in grant order: higher priority first, then FIFO by
/// arrival sequence (unique, so the session id never decides).
type Ticket = (Reverse<u8>, u64, u64);

/// A waiting acquisition request.
#[derive(Debug, Clone)]
struct Waiter {
    scope: Vec<u32>,
    ticket: Ticket,
}

/// Exclusive locks over `u32`-identified resources, granted scope-at-a-time.
#[derive(Debug, Default)]
pub struct ScopeLockManager {
    held: BTreeMap<u64, Vec<u32>>,
    held_set: HashSet<u32>,
    /// Queued requests by session.
    waiting: HashMap<u64, Waiter>,
    /// Per resource somebody waits on, the tickets of the waiters whose
    /// scope contains it, in grant order. An entry lives only while its
    /// queue is non-empty.
    queues: HashMap<u32, VecDeque<Ticket>>,
    next_seq: u64,
}

impl ScopeLockManager {
    /// An empty manager: nothing held, nobody waiting.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty manager with its resource table pre-sized for a world of
    /// `resources` lockable units — one allocation up front instead of
    /// rehash churn on the admission hot path of a large fleet. Wait queues
    /// are allocated when somebody waits, however many `sessions` are
    /// expected: most fleets queue a small share of them, a storm none.
    pub fn with_capacity(resources: usize, _sessions: usize) -> Self {
        ScopeLockManager { held_set: HashSet::with_capacity(resources), ..Self::default() }
    }

    /// Whether `ticket` may take `scope` now: every resource free, and no
    /// earlier waiter queued on any of them.
    fn grantable(&self, ticket: &Ticket, scope: &[u32]) -> bool {
        scope.iter().all(|r| {
            !self.held_set.contains(r)
                && self.queues.get(r).and_then(VecDeque::front).is_none_or(|head| head >= ticket)
        })
    }

    fn hold(&mut self, session: u64, scope: Vec<u32>) {
        self.held_set.extend(scope.iter().copied());
        self.held.insert(session, scope);
    }

    /// Atomically acquires `scope` for `session`, or enqueues the request.
    ///
    /// Returns `true` when the whole scope was granted immediately. The
    /// request is refused (and queued) when the scope intersects a held
    /// scope *or* the scope of any waiter that would precede it in grant
    /// order — overtaking a conflicting earlier waiter would starve it.
    ///
    /// # Panics
    ///
    /// Panics if `session` already holds or awaits a scope: sessions
    /// acquire exactly once (all-or-nothing is what makes this
    /// deadlock-free).
    pub fn try_acquire(&mut self, session: u64, scope: &[u32], priority: u8) -> bool {
        assert!(
            !self.held.contains_key(&session) && !self.waiting.contains_key(&session),
            "session {session} must not acquire twice"
        );
        let ticket = (Reverse(priority), self.next_seq, session);
        self.next_seq += 1;
        let granted = self.grantable(&ticket, scope);
        if granted {
            self.hold(session, scope.to_vec());
        } else {
            for &r in scope {
                let queue = self.queues.entry(r).or_default();
                // A resource listed twice queues once.
                if let Err(at) = queue.binary_search(&ticket) {
                    queue.insert(at, ticket);
                }
            }
            self.waiting.insert(session, Waiter { scope: scope.to_vec(), ticket });
        }
        granted
    }

    /// Releases everything `session` holds and grants now-compatible
    /// waiters, returned in grant order.
    pub fn release(&mut self, session: u64) -> Vec<u64> {
        let Some(scope) = self.held.remove(&session) else { return Vec::new() };
        for r in &scope {
            self.held_set.remove(r);
        }
        self.grant_behind(&scope)
    }

    /// Withdraws a *queued* request. Returns `None` if `session` was not
    /// waiting; otherwise the sessions its departure unblocked, in grant
    /// order (a cancelled waiter may have been the only obstacle shadowing
    /// a later one).
    pub fn cancel(&mut self, session: u64) -> Option<Vec<u64>> {
        let gone = self.waiting.remove(&session)?;
        self.leave_queues(&gone);
        Some(self.grant_behind(&gone.scope))
    }

    fn leave_queues(&mut self, waiter: &Waiter) {
        for &r in &waiter.scope {
            if let Entry::Occupied(mut queue) = self.queues.entry(r) {
                if let Ok(at) = queue.get().binary_search(&waiter.ticket) {
                    queue.get_mut().remove(at);
                }
                if queue.get().is_empty() {
                    queue.remove();
                }
            }
        }
    }

    /// Grants whoever the departure of `freed` (a released or withdrawn
    /// scope) unblocked, in grant order. Only the waiters heading a queue of
    /// `freed` can qualify, and granting one unblocks nobody further: what
    /// it takes is held from then on.
    fn grant_behind(&mut self, freed: &[u32]) -> Vec<u64> {
        let mut heads: Vec<Ticket> =
            freed.iter().filter_map(|r| self.queues.get(r)?.front().copied()).collect();
        heads.sort_unstable();
        heads.dedup();
        let mut granted = Vec::new();
        for ticket in heads {
            let session = ticket.2;
            if self.grantable(&ticket, &self.waiting[&session].scope) {
                let waiter = self.waiting.remove(&session).expect("a queued ticket has a waiter");
                self.leave_queues(&waiter);
                self.hold(session, waiter.scope);
                granted.push(session);
            }
        }
        granted
    }

    /// True while `session` holds its scope.
    pub fn is_held(&self, session: u64) -> bool {
        self.held.contains_key(&session)
    }

    /// Position of `session` in grant order (0 = next), or `None` if it is
    /// not waiting.
    pub(crate) fn position(&self, session: u64) -> Option<usize> {
        let me = self.waiting.get(&session)?.ticket;
        Some(self.waiting.values().filter(|w| w.ticket < me).count())
    }

    /// Sessions currently holding scopes, ascending.
    pub(crate) fn holders(&self) -> Vec<u64> {
        self.held.keys().copied().collect()
    }

    /// Number of queued requests.
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disjoint_scopes_coexist() {
        let mut lm = ScopeLockManager::new();
        assert!(lm.try_acquire(1, &[0, 1], 0));
        assert!(lm.try_acquire(2, &[2, 3], 0));
        assert_eq!(lm.holders(), vec![1, 2]);
        assert_eq!(lm.queue_len(), 0);
    }

    #[test]
    fn overlap_queues_and_release_grants_in_fifo_order() {
        let mut lm = ScopeLockManager::new();
        assert!(lm.try_acquire(1, &[0, 1], 0));
        assert!(!lm.try_acquire(2, &[1, 2], 0));
        assert!(!lm.try_acquire(3, &[1], 0));
        assert_eq!(lm.position(2), Some(0));
        assert_eq!(lm.position(3), Some(1));
        // Releasing grants 2; 3 still conflicts with 2's freshly held scope.
        assert_eq!(lm.release(1), vec![2]);
        assert!(lm.is_held(2));
        assert_eq!(lm.release(2), vec![3]);
    }

    #[test]
    fn priority_overrides_fifo() {
        let mut lm = ScopeLockManager::new();
        assert!(lm.try_acquire(1, &[0], 0));
        assert!(!lm.try_acquire(2, &[0], 0));
        assert!(!lm.try_acquire(3, &[0], 5));
        assert_eq!(lm.position(3), Some(0), "higher priority jumps the queue");
        assert_eq!(lm.release(1), vec![3]);
        assert_eq!(lm.release(3), vec![2]);
    }

    #[test]
    fn no_overtaking_a_conflicting_earlier_waiter() {
        let mut lm = ScopeLockManager::new();
        assert!(lm.try_acquire(1, &[0], 0));
        // 2 waits on {0,5}. A later request for {5} alone must not slip in
        // front even though {5} is free — that would starve 2.
        assert!(!lm.try_acquire(2, &[0, 5], 0));
        assert!(!lm.try_acquire(3, &[5], 0));
        assert_eq!(lm.release(1), vec![2]);
        assert!(lm.is_held(2));
        assert!(!lm.is_held(3), "3 shadows behind 2");
        assert_eq!(lm.release(2), vec![3]);
    }

    #[test]
    fn disjoint_latecomer_overtakes_freely() {
        let mut lm = ScopeLockManager::new();
        assert!(lm.try_acquire(1, &[0], 0));
        assert!(!lm.try_acquire(2, &[0], 0));
        // Entirely disjoint from both holder and waiter: granted at once.
        assert!(lm.try_acquire(3, &[7], 0));
    }

    #[test]
    fn cancel_unblocks_shadowed_waiters() {
        let mut lm = ScopeLockManager::new();
        assert!(lm.try_acquire(1, &[0], 0));
        assert!(!lm.try_acquire(2, &[0, 5], 0));
        assert!(!lm.try_acquire(3, &[5], 0));
        // 2 leaves: 3 no longer shadows behind it and 5 is free.
        assert_eq!(lm.cancel(2), Some(vec![3]));
        assert!(lm.is_held(3));
        assert_eq!(lm.cancel(99), None, "unknown session is a no-op");
    }

    #[test]
    #[should_panic(expected = "must not acquire twice")]
    fn double_acquire_panics() {
        let mut lm = ScopeLockManager::new();
        assert!(lm.try_acquire(1, &[0], 0));
        let _ = lm.try_acquire(1, &[1], 0);
    }

    proptest! {
        /// Random acquire/release traffic: held scopes stay pairwise
        /// disjoint, every session is eventually granted (no deadlock, no
        /// starvation), and grants never violate the order contract.
        #[test]
        fn held_scopes_always_disjoint_and_everyone_finishes(
            scopes in proptest::collection::vec(
                (proptest::collection::vec(0u32..12, 1..4), 0u8..3),
                1..20,
            ),
        ) {
            let mut lm = ScopeLockManager::new();
            let mut running: Vec<u64> = Vec::new();
            let mut done: HashSet<u64> = HashSet::new();
            for (i, (raw_scope, prio)) in scopes.iter().enumerate() {
                // Real scopes are sorted and deduplicated (resources_for).
                let mut scope = raw_scope.clone();
                scope.sort_unstable();
                scope.dedup();
                let sid = i as u64 + 1;
                if lm.try_acquire(sid, &scope, *prio) {
                    running.push(sid);
                }
                // Invariant: held scopes pairwise disjoint.
                let mut seen: HashSet<u32> = HashSet::new();
                for s in lm.holders() {
                    for r in lm.held.get(&s).unwrap() {
                        prop_assert!(seen.insert(*r), "resource {r} held twice");
                    }
                }
                // Retire the oldest runner every other step to make room.
                if i % 2 == 1 {
                    if let Some(oldest) = running.first().copied() {
                        running.remove(0);
                        done.insert(oldest);
                        running.extend(lm.release(oldest));
                    }
                }
            }
            // Drain: release everything; all sessions must complete.
            while let Some(s) = running.first().copied() {
                running.remove(0);
                done.insert(s);
                running.extend(lm.release(s));
            }
            prop_assert_eq!(lm.queue_len(), 0, "nobody starves once holders drain");
            prop_assert_eq!(done.len(), scopes.len());
        }
    }

    /// The flat-queue implementation the per-resource queues replaced,
    /// kept verbatim as the reference: every operation sorts all waiters
    /// into grant order and walks them with a *shadow set* — the scopes of
    /// the waiters skipped so far, which no later waiter may intersect.
    mod oracle {
        use std::collections::{BTreeMap, HashSet};

        #[derive(Debug, Clone)]
        struct Waiter {
            session: u64,
            scope: Vec<u32>,
            priority: u8,
            seq: u64,
        }

        impl Waiter {
            fn order_key(&self) -> (std::cmp::Reverse<u8>, u64) {
                (std::cmp::Reverse(self.priority), self.seq)
            }
        }

        #[derive(Debug, Default)]
        pub(super) struct FlatScan {
            held: BTreeMap<u64, Vec<u32>>,
            held_set: HashSet<u32>,
            waiters: Vec<Waiter>,
            next_seq: u64,
        }

        impl FlatScan {
            fn grant_order(&self) -> Vec<usize> {
                let mut ixs: Vec<usize> = (0..self.waiters.len()).collect();
                ixs.sort_by_key(|&i| self.waiters[i].order_key());
                ixs
            }

            pub(super) fn try_acquire(
                &mut self,
                session: u64,
                scope: &[u32],
                priority: u8,
            ) -> bool {
                let seq = self.next_seq;
                self.next_seq += 1;
                let me = Waiter { session, scope: scope.to_vec(), priority, seq };
                let blocked_by_waiter = self.grant_order().into_iter().any(|i| {
                    let w = &self.waiters[i];
                    w.order_key() < me.order_key() && !disjoint(&w.scope, scope)
                });
                if scope.iter().all(|r| !self.held_set.contains(r)) && !blocked_by_waiter {
                    self.held_set.extend(scope.iter().copied());
                    self.held.insert(session, scope.to_vec());
                    true
                } else {
                    self.waiters.push(me);
                    false
                }
            }

            pub(super) fn release(&mut self, session: u64) -> Vec<u64> {
                if let Some(scope) = self.held.remove(&session) {
                    for r in scope {
                        self.held_set.remove(&r);
                    }
                }
                self.grant_waiters()
            }

            pub(super) fn cancel(&mut self, session: u64) -> Option<Vec<u64>> {
                let before = self.waiters.len();
                self.waiters.retain(|w| w.session != session);
                if self.waiters.len() == before {
                    return None;
                }
                Some(self.grant_waiters())
            }

            fn grant_waiters(&mut self) -> Vec<u64> {
                let mut shadow: HashSet<u32> = HashSet::new();
                let mut granted = Vec::new();
                for i in self.grant_order() {
                    let w = &self.waiters[i];
                    let free =
                        w.scope.iter().all(|r| !self.held_set.contains(r) && !shadow.contains(r));
                    if free {
                        self.held_set.extend(w.scope.iter().copied());
                        self.held.insert(w.session, w.scope.clone());
                        granted.push(w.session);
                    } else {
                        shadow.extend(w.scope.iter().copied());
                    }
                }
                self.waiters.retain(|w| !granted.contains(&w.session));
                granted
            }

            pub(super) fn position(&self, session: u64) -> Option<usize> {
                self.grant_order().into_iter().position(|i| self.waiters[i].session == session)
            }

            pub(super) fn holders(&self) -> Vec<u64> {
                self.held.keys().copied().collect()
            }

            /// Queued sessions in grant order.
            pub(super) fn waiting(&self) -> Vec<u64> {
                self.grant_order().into_iter().map(|i| self.waiters[i].session).collect()
            }
        }

        fn disjoint(a: &[u32], b: &[u32]) -> bool {
            a.iter().all(|r| !b.contains(r))
        }
    }

    proptest! {
        /// Random acquire / release / cancel traffic with priorities, on
        /// few enough resources that most requests queue: the per-resource
        /// queues and the flat shadow-set scan make the same decisions —
        /// same immediate grants, same cascades in the same order, same
        /// positions for everyone still waiting — operation by operation.
        #[test]
        fn per_resource_queues_decide_what_the_flat_scan_decides(
            ops in proptest::collection::vec(
                (0u8..8, proptest::collection::vec(0u32..10, 1..4), 0u8..3, 0usize..64),
                1..60,
            ),
        ) {
            let mut lm = ScopeLockManager::new();
            let mut flat = oracle::FlatScan::default();
            let mut next_session = 1u64;
            for (kind, raw_scope, priority, pick) in ops {
                let (holders, waiting) = (flat.holders(), flat.waiting());
                match kind {
                    0..=3 => {
                        let mut scope = raw_scope;
                        scope.sort_unstable();
                        scope.dedup();
                        let sid = next_session;
                        next_session += 1;
                        prop_assert_eq!(
                            lm.try_acquire(sid, &scope, priority),
                            flat.try_acquire(sid, &scope, priority),
                            "acquire {} {:?} p{}", sid, scope, priority
                        );
                    }
                    4 | 5 if !holders.is_empty() => {
                        let sid = holders[pick % holders.len()];
                        prop_assert_eq!(lm.release(sid), flat.release(sid), "release {}", sid);
                    }
                    6 if !waiting.is_empty() => {
                        let sid = waiting[pick % waiting.len()];
                        prop_assert_eq!(lm.cancel(sid), flat.cancel(sid), "cancel {}", sid);
                    }
                    _ => {
                        // A session that holds nothing and awaits nothing
                        // (a waiter, for `release`): both are no-ops.
                        let stranger = waiting.first().copied().unwrap_or(next_session + 7);
                        prop_assert_eq!(lm.release(stranger), flat.release(stranger));
                        prop_assert_eq!(lm.cancel(next_session + 7), None);
                        prop_assert_eq!(flat.cancel(next_session + 7), None);
                    }
                }
                prop_assert_eq!(lm.holders(), flat.holders());
                let waiting = flat.waiting();
                prop_assert_eq!(lm.queue_len(), waiting.len());
                for (at, sid) in waiting.iter().enumerate() {
                    prop_assert_eq!(flat.position(*sid), Some(at));
                    prop_assert_eq!(lm.position(*sid), Some(at), "position of {}", sid);
                    prop_assert!(!lm.is_held(*sid));
                }
            }
            // Drain: release until nobody holds. Everybody queued gets a
            // turn, and no queue or table entry is left behind.
            while let Some(sid) = flat.holders().first().copied() {
                prop_assert_eq!(lm.release(sid), flat.release(sid));
            }
            prop_assert_eq!(flat.waiting(), Vec::<u64>::new(), "nobody starves");
            prop_assert!(lm.waiting.is_empty() && lm.queues.is_empty() && lm.held_set.is_empty());
        }
    }
}
