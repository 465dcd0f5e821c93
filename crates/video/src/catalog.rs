//! The case study's component catalog: maps the paper's component names
//! (`E1`, `E2`, `D1`…`D5`) to concrete MetaSocket filters, and applies
//! [`LocalAction`]s to filter chains.

use sada_expr::{CompId, Config, Universe};
use sada_meta::filters::des::{CipherDecoder, CipherEncoder};
use sada_meta::filters::fec::{FecDecoder, FecEncoder};
use sada_meta::filters::rle::{RleDecoder, RleEncoder};
use sada_meta::{tags, ChainError, Filter, FilterChain};
use sada_proto::LocalAction;

/// Shared DES-64 key (E1 / D1 / D4).
pub(crate) const DES64_KEY: u64 = 0x1334_5779_9BBC_DFF1;
/// First DES-128 key (E2 / D2 / D3 / D5).
pub(crate) const DES128_KEY1: u64 = 0x0123_4567_89AB_CDEF;
/// Second DES-128 key.
pub(crate) const DES128_KEY2: u64 = 0xFEDC_BA98_7654_3210;

/// FEC group size used by the bandwidth-adaptation scenario.
pub(crate) const FEC_GROUP: usize = 4;

/// Instantiates the filter for a case-study component name.
///
/// Beyond the paper's `E1, E2, D1..D5`, the catalog knows the FEC
/// components of the bandwidth-adaptation scenario: `FE` (server-side
/// parity encoder) and `FDH`/`FDL` (client-side recovery decoders).
///
/// # Panics
///
/// Panics on any other name — the catalog is intentionally closed.
pub(crate) fn make_filter(name: &str) -> Box<dyn Filter> {
    match name {
        "E1" => Box::new(CipherEncoder::des64(DES64_KEY)),
        "E2" => Box::new(CipherEncoder::des128(DES128_KEY1, DES128_KEY2)),
        "D1" | "D4" => Box::new(CipherDecoder::des64(DES64_KEY)),
        "D2" => Box::new(CipherDecoder::des128_compat(DES128_KEY1, DES128_KEY2, DES64_KEY)),
        "D3" | "D5" => Box::new(CipherDecoder::des128(DES128_KEY1, DES128_KEY2)),
        "FE" => Box::new(FecEncoder::new(FEC_GROUP)),
        "FDH" | "FDL" => Box::new(FecDecoder::new(256)),
        "CE" => Box::new(RleEncoder::new()),
        "CDH" | "CDL" => Box::new(RleDecoder::new()),
        other => panic!("unknown case-study component {other:?}"),
    }
}

/// Where a newly-inserted component belongs in its chain: the FEC encoder
/// goes at the tail of the send chain (parity over the final ciphertext);
/// the RLE compressor (`CE`) at the head of the send chain (compress
/// plaintext, not ciphertext) and its decompressors (`CDH`/`CDL`) at the
/// tail of the receive chain (after decryption); everything else —
/// decoders — goes at the head of the receive chain so it runs before the
/// cipher decoders.
pub(crate) fn insert_position(chain: &FilterChain, name: &str) -> usize {
    match name {
        "FE" | "CDH" | "CDL" => chain.len(),
        _ => 0,
    }
}

/// Which packet tags a component can decode (encoders return an empty
/// slice).
pub(crate) fn accepts(name: &str) -> &'static [u16] {
    match name {
        "D1" | "D4" => &[tags::DES64],
        "D3" | "D5" => &[tags::DES128],
        "D2" => &[tags::DES128, tags::DES64],
        _ => &[],
    }
}

/// The decoder component (among `candidates`, e.g. a client's possible
/// decoders) that the configuration `cfg` designates for packets tagged
/// `tag`: present in `cfg` and accepting `tag`. `None` means such packets
/// are currently undecodable on that client — a dependency violation in the
/// making.
pub(crate) fn designated_decoder(
    u: &Universe,
    cfg: &Config,
    candidates: &[&str],
    tag: u16,
) -> Option<CompId> {
    candidates.iter().find_map(|name| {
        let id = u.id(name)?;
        (cfg.contains(id) && accepts(name).contains(&tag)).then_some(id)
    })
}

/// Applies a local action to a filter chain: paired removes/adds become
/// in-place replacements; leftovers become removals or head insertions.
///
/// # Errors
///
/// Propagates [`ChainError`] when the chain's current contents do not match
/// the action (e.g. removing an absent component) — the runtime treats that
/// as a failed in-action.
pub(crate) fn apply_local_action(
    chain: &mut FilterChain,
    u: &Universe,
    la: &LocalAction,
) -> Result<(), ChainError> {
    let removes: Vec<&str> = la.removes.iter().map(|&c| u.name(c)).collect();
    let adds: Vec<&str> = la.adds.iter().map(|&c| u.name(c)).collect();
    let paired = removes.len().min(adds.len());
    for i in 0..paired {
        chain.replace(removes[i], adds[i], make_filter(adds[i]))?;
    }
    for name in &removes[paired..] {
        chain.remove(name)?;
    }
    for name in &adds[paired..] {
        chain.insert(insert_position(chain, name), name, make_filter(name))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_meta::Packet;
    use sada_plan::ActionId;

    fn u7() -> Universe {
        let mut u = Universe::new();
        for n in ["E1", "E2", "D1", "D2", "D3", "D4", "D5"] {
            u.intern(n);
        }
        u
    }

    fn la(u: &Universe, removes: &[&str], adds: &[&str]) -> LocalAction {
        LocalAction {
            action: ActionId(0),
            removes: removes.iter().map(|n| u.id(n).unwrap()).collect(),
            adds: adds.iter().map(|n| u.id(n).unwrap()).collect(),
            needs_global_drain: false,
        }
    }

    #[test]
    fn every_component_constructs_and_codes() {
        let pkt = Packet::new(0, 1, b"frame bytes".to_vec());
        for (enc, dec) in
            [("E1", "D1"), ("E1", "D4"), ("E2", "D3"), ("E2", "D5"), ("E2", "D2"), ("E1", "D2")]
        {
            let mut e = make_filter(enc);
            let mut d = make_filter(dec);
            let wire = e.process(pkt.clone()).pop().unwrap();
            let out = d.process(wire).pop().unwrap();
            assert!(out.is_clean_plaintext(), "{enc} -> {dec}");
            assert_eq!(out.payload, pkt.payload, "{enc} -> {dec}");
        }
    }

    #[test]
    fn rle_components_round_trip_through_cipher() {
        // Send chain [CE, E1]; receive chain [D1, CDH].
        let mut send = FilterChain::new();
        send.push_back("CE", make_filter("CE")).unwrap();
        send.push_back("E1", make_filter("E1")).unwrap();
        let mut recv = FilterChain::new();
        recv.push_back("D1", make_filter("D1")).unwrap();
        recv.push_back("CDH", make_filter("CDH")).unwrap();
        let pkt = Packet::new(0, 1, vec![7u8; 400]);
        let wire = send.push(pkt.clone()).pop().unwrap();
        assert!(wire.payload.len() < 400, "compressed before encryption");
        let out = recv.push(wire).pop().unwrap();
        assert!(out.is_clean_plaintext());
        assert_eq!(out.payload, pkt.payload);
    }

    #[test]
    fn insert_positions_by_component_kind() {
        let mut send = FilterChain::new();
        send.push_back("E1", make_filter("E1")).unwrap();
        assert_eq!(insert_position(&send, "CE"), 0, "compressor before cipher");
        assert_eq!(insert_position(&send, "FE"), 1, "parity after cipher");
        let mut recv = FilterChain::new();
        recv.push_back("D1", make_filter("D1")).unwrap();
        assert_eq!(insert_position(&recv, "CDH"), 1, "decompress after decrypt");
        assert_eq!(insert_position(&recv, "FDH"), 0, "FEC recovery before decrypt");
    }

    #[test]
    #[should_panic(expected = "unknown case-study component")]
    fn unknown_component_panics() {
        let _ = make_filter("E9");
    }

    #[test]
    fn designated_decoder_follows_config_and_tag() {
        let u = u7();
        let handheld = ["D1", "D2", "D3"];
        let cfg = u.config_of(&["D1", "D4", "E1"]);
        assert_eq!(designated_decoder(&u, &cfg, &handheld, tags::DES64), u.id("D1"));
        assert_eq!(designated_decoder(&u, &cfg, &handheld, tags::DES128), None, "D1 can't do 128");
        let cfg2 = u.config_of(&["D2", "D4", "D5", "E2"]);
        assert_eq!(designated_decoder(&u, &cfg2, &handheld, tags::DES128), u.id("D2"));
        assert_eq!(designated_decoder(&u, &cfg2, &handheld, tags::DES64), u.id("D2"), "compat");
        let laptop = ["D4", "D5"];
        assert_eq!(designated_decoder(&u, &cfg2, &laptop, tags::DES128), u.id("D5"));
    }

    #[test]
    fn apply_replacement() {
        let u = u7();
        let mut chain = FilterChain::new();
        chain.push_back("D1", make_filter("D1")).unwrap();
        apply_local_action(&mut chain, &u, &la(&u, &["D1"], &["D2"])).unwrap();
        assert_eq!(chain.names(), vec!["D2"]);
    }

    #[test]
    fn apply_insert_and_remove() {
        let u = u7();
        let mut chain = FilterChain::new();
        chain.push_back("D4", make_filter("D4")).unwrap();
        apply_local_action(&mut chain, &u, &la(&u, &[], &["D5"])).unwrap();
        assert_eq!(chain.names(), vec!["D5", "D4"], "insert at head");
        apply_local_action(&mut chain, &u, &la(&u, &["D4"], &[])).unwrap();
        assert_eq!(chain.names(), vec!["D5"]);
    }

    #[test]
    fn apply_mismatched_chain_errors() {
        let u = u7();
        let mut chain = FilterChain::new();
        chain.push_back("D2", make_filter("D2")).unwrap();
        assert!(apply_local_action(&mut chain, &u, &la(&u, &["D1"], &["D3"])).is_err());
    }

    #[test]
    fn inverse_action_restores_chain() {
        let u = u7();
        let mut chain = FilterChain::new();
        chain.push_back("E1", make_filter("E1")).unwrap();
        let action = la(&u, &["E1"], &["E2"]);
        apply_local_action(&mut chain, &u, &action).unwrap();
        assert_eq!(chain.names(), vec!["E2"]);
        apply_local_action(&mut chain, &u, &action.inverse()).unwrap();
        assert_eq!(chain.names(), vec!["E1"]);
    }
}
