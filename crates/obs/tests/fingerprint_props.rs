//! The fingerprint without the text: every constant piece the JSONL encoder
//! absorbs in one step, and every stream it fingerprints, equal the
//! byte-wise FNV-1a of the text it stands for.
//!
//! Hand mutations the properties catch (each tried on a copy of the code):
//! - a jump table built from the state 0 alone (`h = 0` for every low
//!   byte): both properties, from the first low byte but 0;
//! - `Pⁿ` off by one (one multiply too many): both properties, at every
//!   state;
//! - a shard override the encoder ignores (the event's own tag written):
//!   the stream property's unsharded half, at the first event of a shard
//!   but 0.

mod arb;

use arb::arb_event;
use proptest::prelude::*;
use sada_fleet::{fingerprint_events, fingerprint_events_unsharded};
use sada_obs::{encode_event, fnv1a, oracle, Event, Fnv1a};

/// The JSONL of `events`, one newline-terminated line each.
fn jsonl<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    events.into_iter().map(|ev| encode_event(ev) + "\n").collect()
}

proptest! {
    #[test]
    fn every_piece_jumps_where_its_bytes_lead(high in any::<u64>()) {
        for low in 0..=255u64 {
            let h = Fnv1a(high << 8 | low);
            for (text, jumped) in oracle::absorb_pieces(h) {
                prop_assert_eq!(jumped, h.write(text), "{:?} from {:#018x}", text, h.0);
            }
        }
    }

    #[test]
    fn a_stream_fingerprints_as_its_text(events in prop::collection::vec(arb_event(), 0..40)) {
        prop_assert_eq!(fingerprint_events(&events), fnv1a(jsonl(&events)));
        let unsharded: Vec<Event> = events.iter().map(|ev| Event { shard: 0, ..ev.clone() }).collect();
        prop_assert_eq!(fingerprint_events_unsharded(&events), fnv1a(jsonl(&unsharded)));
    }
}

#[test]
fn the_pieces_are_the_encoders_constant_text() {
    let pieces: Vec<&str> =
        oracle::absorb_pieces(Fnv1a::new()).into_iter().map(|(t, _)| t).collect();
    for piece in
        ["{\"at\":", ",\"actor\":", ",\"kind\":\"net.sent\"", ",\"from\":", "true", "false"]
    {
        assert!(pieces.contains(&piece), "{piece:?} is no piece: {pieces:?}");
    }
}
