//! Property tests for the JSONL codec (encode→decode == identity) and the
//! bounded ring sink.

mod arb;

use arb::arb_event;
use proptest::prelude::*;
use sada_obs::{decode_event, encode_event, RingSink, Sink};

proptest! {
    #[test]
    fn encode_decode_is_identity(ev in arb_event()) {
        let line = encode_event(&ev);
        prop_assert!(!line.contains('\n'), "one line per event: {line:?}");
        let back = match decode_event(&line) {
            Ok(back) => back,
            Err(e) => return Err(TestCaseError::fail(format!("{e}\nline: {line}"))),
        };
        prop_assert_eq!(back, ev, "line: {}", line);
    }

    #[test]
    fn ring_sink_is_bounded_and_keeps_the_newest(
        cap in 0usize..32,
        events in prop::collection::vec(arb_event(), 0..100),
    ) {
        let mut ring = RingSink::new(cap);
        for ev in &events {
            ring.accept(ev);
        }
        prop_assert!(ring.len() <= cap, "len {} exceeds capacity {}", ring.len(), cap);
        prop_assert_eq!(ring.len(), events.len().min(cap));
        prop_assert_eq!(ring.total_seen(), events.len() as u64);
        // The retained suffix equals the input's tail, in order.
        let tail = &events[events.len() - events.len().min(cap)..];
        prop_assert_eq!(ring.events(), tail.to_vec());
    }
}
