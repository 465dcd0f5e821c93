//! `RingSink` against a model: a `VecDeque` that keeps the newest
//! `capacity` events, driven through the same random interleaving of
//! `accept`, `accept_batch` (batches longer than the capacity included)
//! and `take_events`, at capacities around the block size — 0, 1,
//! block − 1, block, block + 1 and 3 × block. After every step the ring's
//! `events()`, `len()` and `total_seen()` equal the model's, and a
//! `take_events` hands back exactly the model's contents.
//!
//! The hand mutation it catches: an eviction off by one at a block
//! boundary (`n < front.len()` read as `n + 1 < front.len()` in
//! `RingSink::evict`, so an eviction that stops one event short of the
//! front block's end drops the whole block) fails it within a few cases.

use std::collections::VecDeque;

use proptest::prelude::*;
use sada_obs::{Event, NetEvent, Payload, RingSink, SimTime, Sink};

const B: usize = RingSink::BLOCK;

#[derive(Debug, Clone)]
enum Op {
    Accept,
    Batch(usize),
    Take,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::Accept),
        // Up to four blocks: longer than every capacity but 3 × block,
        // and longer than that one too at the top of the range; half of
        // them within two events of a whole number of blocks, where an
        // eviction ends at or next to a block's end.
        2 => (0..=4 * B).prop_map(Op::Batch),
        2 => (0..=4usize, 0..=4usize).prop_map(|(k, d)| Op::Batch((k * B + d).saturating_sub(2))),
        1 => Just(Op::Take),
    ]
}

/// The `n`-th event of a run, told apart by its instant and its tag.
fn nth(n: u64) -> Event {
    let payload = Payload::Net(NetEvent::TimerFired { tag: n });
    Event { at: SimTime::from_micros(n), actor: 0, session: 0, shard: 0, payload }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ring_sink_matches_a_deque_model(
        capacity in prop::sample::select(vec![0, 1, B - 1, B, B + 1, 3 * B]),
        ops in prop::collection::vec(op(), 1..24),
    ) {
        let mut ring = RingSink::new(capacity);
        let mut model: VecDeque<Event> = VecDeque::new();
        let keep = |model: &mut VecDeque<Event>, ev: Event| {
            model.push_back(ev);
            if model.len() > capacity {
                model.pop_front();
            }
        };
        // Every event ever made has been offered: `next` is the count seen.
        let mut next = 0u64;
        for op in ops {
            match op {
                Op::Accept => {
                    let ev = nth(next);
                    next += 1;
                    ring.accept(&ev);
                    keep(&mut model, ev);
                }
                Op::Batch(count) => {
                    let batch: Vec<Event> = (next..next + count as u64).map(nth).collect();
                    next += count as u64;
                    ring.accept_batch(&batch);
                    batch.into_iter().for_each(|ev| keep(&mut model, ev));
                }
                Op::Take => {
                    let taken = ring.take_events();
                    prop_assert_eq!(taken.capacity(), taken.len(), "one exact-length vector");
                    prop_assert_eq!(taken, model.drain(..).collect::<Vec<_>>());
                }
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
            prop_assert_eq!(ring.total_seen(), next);
            prop_assert_eq!(ring.events(), model.iter().cloned().collect::<Vec<_>>());
        }
        prop_assert_eq!(ring.take_events(), model.into_iter().collect::<Vec<_>>());
        prop_assert!(ring.is_empty());
    }
}
