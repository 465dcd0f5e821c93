//! Runtime-recomposable filter chains — the MetaSocket itself.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use crate::filter::Filter;
use crate::packet::Packet;

/// Errors from chain recomposition operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// No filter slot carries the given component name.
    UnknownComponent(String),
    /// A slot with the given component name already exists.
    DuplicateComponent(String),
    /// Insertion position beyond the end of the chain.
    PositionOutOfRange {
        /// Requested position.
        pos: usize,
        /// Current chain length.
        len: usize,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnknownComponent(n) => write!(f, "no component named {n:?} in chain"),
            ChainError::DuplicateComponent(n) => write!(f, "component {n:?} already in chain"),
            ChainError::PositionOutOfRange { pos, len } => {
                write!(f, "position {pos} out of range for chain of length {len}")
            }
        }
    }
}

impl Error for ChainError {}

/// Aggregate chain counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Packets accepted by [`FilterChain::push`].
    pub(crate) packets_in: u64,
    /// Packets emitted from the end of the chain.
    pub(crate) packets_out: u64,
    /// Packets buffered because the chain was blocked.
    pub(crate) buffered: u64,
}

/// An ordered chain of named filters with runtime insert/remove/replace —
/// the adaptable internals of a MetaSocket.
///
/// Each slot binds a *component name* (the paper's `E1`, `D2`, …) to a
/// [`Filter`] instance. Two facilities make adaptation safe:
///
/// * **Packet-boundary atomicity** — [`FilterChain::push`] runs a packet
///   through the whole chain before returning; recomposition can only happen
///   between pushes, which realizes the agent's local safe state ("the DES
///   decoder is not decoding a packet", Section 5.2).
/// * **Blocking** — [`FilterChain::block`] makes subsequent pushes buffer
///   instead of process; [`FilterChain::unblock`] drains the buffer through
///   the (possibly recomposed) chain in arrival order. Agents block chains
///   while an adaptive in-action is pending and resume them afterwards.
#[derive(Debug, Default)]
pub struct FilterChain {
    slots: Vec<(String, Box<dyn Filter>)>,
    blocked: bool,
    pending: VecDeque<Packet>,
    stats: ChainStats,
}

impl FilterChain {
    /// An empty, unblocked chain.
    pub fn new() -> Self {
        FilterChain::default()
    }

    /// Component names in chain order.
    pub fn names(&self) -> Vec<&str> {
        self.slots.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// True when a slot named `name` exists.
    pub fn has(&self, name: &str) -> bool {
        self.slots.iter().any(|(n, _)| n == name)
    }

    /// Number of filters.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the chain holds no filters.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True while blocked.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Number of packets waiting in the blocked buffer.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Chain-level counters.
    pub fn stats(&self) -> ChainStats {
        self.stats
    }

    /// Borrow a filter by component name (for reading stats).
    pub fn filter(&self, name: &str) -> Option<&dyn Filter> {
        self.slots.iter().find(|(n, _)| n == name).map(|(_, f)| f.as_ref())
    }

    fn run(&mut self, pkt: Packet, from_slot: usize) -> Vec<Packet> {
        let mut wave = vec![pkt];
        for ix in from_slot..self.slots.len() {
            let mut next = Vec::with_capacity(wave.len());
            for p in wave {
                next.extend(self.slots[ix].1.process(p));
            }
            wave = next;
            if wave.is_empty() {
                break;
            }
        }
        self.stats.packets_out += wave.len() as u64;
        wave
    }

    /// Feeds one packet into the chain. Returns the packets leaving the far
    /// end — empty while blocked (the packet is buffered).
    pub fn push(&mut self, pkt: Packet) -> Vec<Packet> {
        self.stats.packets_in += 1;
        if self.blocked {
            self.stats.buffered += 1;
            self.pending.push_back(pkt);
            return Vec::new();
        }
        self.run(pkt, 0)
    }

    /// Stops processing: subsequent pushes buffer. Idempotent.
    pub fn block(&mut self) {
        self.blocked = true;
    }

    /// Resumes processing, draining buffered packets through the current
    /// chain in arrival order. Returns everything the drain produced.
    pub fn unblock(&mut self) -> Vec<Packet> {
        self.blocked = false;
        let mut out = Vec::new();
        while let Some(pkt) = self.pending.pop_front() {
            out.extend(self.run(pkt, 0));
        }
        out
    }

    /// Inserts a filter as component `name` at `pos` (0 = head).
    ///
    /// # Errors
    ///
    /// [`ChainError::DuplicateComponent`] if `name` is taken,
    /// [`ChainError::PositionOutOfRange`] if `pos > len`.
    pub fn insert(
        &mut self,
        pos: usize,
        name: &str,
        filter: Box<dyn Filter>,
    ) -> Result<(), ChainError> {
        if self.has(name) {
            return Err(ChainError::DuplicateComponent(name.to_string()));
        }
        if pos > self.slots.len() {
            return Err(ChainError::PositionOutOfRange { pos, len: self.slots.len() });
        }
        self.slots.insert(pos, (name.to_string(), filter));
        Ok(())
    }

    /// Appends a filter as component `name`.
    ///
    /// # Errors
    ///
    /// [`ChainError::DuplicateComponent`] if `name` is taken.
    pub fn push_back(&mut self, name: &str, filter: Box<dyn Filter>) -> Result<(), ChainError> {
        self.insert(self.slots.len(), name, filter)
    }

    /// Removes the component `name`, returning its filter (post-action
    /// destruction is the caller's business, matching the paper's
    /// pre/in/post action split).
    ///
    /// # Errors
    ///
    /// [`ChainError::UnknownComponent`] if absent.
    pub fn remove(&mut self, name: &str) -> Result<Box<dyn Filter>, ChainError> {
        match self.slots.iter().position(|(n, _)| n == name) {
            Some(ix) => Ok(self.slots.remove(ix).1),
            None => Err(ChainError::UnknownComponent(name.to_string())),
        }
    }

    /// Replaces component `old` with a new component `new` in the same
    /// chain position, returning the old filter.
    ///
    /// # Errors
    ///
    /// [`ChainError::UnknownComponent`] if `old` is absent;
    /// [`ChainError::DuplicateComponent`] if `new` already exists elsewhere
    /// in the chain.
    pub fn replace(
        &mut self,
        old: &str,
        new: &str,
        filter: Box<dyn Filter>,
    ) -> Result<Box<dyn Filter>, ChainError> {
        if old != new && self.has(new) {
            return Err(ChainError::DuplicateComponent(new.to_string()));
        }
        let ix = self
            .slots
            .iter()
            .position(|(n, _)| n == old)
            .ok_or_else(|| ChainError::UnknownComponent(old.to_string()))?;
        let (_, old_filter) = std::mem::replace(&mut self.slots[ix], (new.to_string(), filter));
        Ok(old_filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Telemetry;
    use crate::filters::des::{CipherDecoder, CipherEncoder};
    use crate::packet::tags;

    const K64: u64 = 0x133457799BBCDFF1;
    const K1: u64 = 0x0123456789ABCDEF;
    const K2: u64 = 0xFEDCBA9876543210;

    fn pkt(seq: u64) -> Packet {
        Packet::new(1, seq, format!("frame-{seq}").into_bytes())
    }

    #[test]
    fn empty_chain_is_identity() {
        let mut ch = FilterChain::new();
        let out = ch.push(pkt(1));
        assert_eq!(out, vec![pkt(1)]);
        assert_eq!(ch.stats().packets_in, 1);
        assert_eq!(ch.stats().packets_out, 1);
    }

    #[test]
    fn encode_decode_through_chains() {
        let mut send = FilterChain::new();
        send.push_back("E1", Box::new(CipherEncoder::des64(K64))).unwrap();
        let mut recv = FilterChain::new();
        recv.push_back("D1", Box::new(CipherDecoder::des64(K64))).unwrap();
        let wire = send.push(pkt(5)).pop().unwrap();
        assert_eq!(wire.top_tag(), Some(tags::DES64));
        let out = recv.push(wire).pop().unwrap();
        assert_eq!(out, pkt(5));
    }

    #[test]
    fn blocked_chain_buffers_then_drains_in_order() {
        let mut ch = FilterChain::new();
        ch.push_back("T", Box::<Telemetry>::default()).unwrap();
        ch.block();
        assert!(ch.push(pkt(1)).is_empty());
        assert!(ch.push(pkt(2)).is_empty());
        assert_eq!(ch.pending_len(), 2);
        assert_eq!(ch.stats().buffered, 2);
        let drained = ch.unblock();
        assert_eq!(drained.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert!(!ch.is_blocked());
        assert_eq!(ch.pending_len(), 0);
    }

    #[test]
    fn recompose_while_blocked_applies_to_drained_packets() {
        // The agent's sequence: block, swap decoder, unblock. Packets that
        // arrived while blocked must be processed by the *new* filter.
        let mut send = FilterChain::new();
        send.push_back("E2", Box::new(CipherEncoder::des128(K1, K2))).unwrap();
        let mut recv = FilterChain::new();
        recv.push_back("D1", Box::new(CipherDecoder::des64(K64))).unwrap();
        recv.block();
        let wire = send.push(pkt(9)).pop().unwrap();
        assert!(recv.push(wire).is_empty(), "buffered while blocked");
        recv.replace("D1", "D3", Box::new(CipherDecoder::des128(K1, K2))).unwrap();
        let out = recv.unblock();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], pkt(9), "drained packet decoded by the new D3");
    }

    #[test]
    fn insert_positions_and_order() {
        let mut ch = FilterChain::new();
        ch.push_back("B", Box::<Telemetry>::default()).unwrap();
        ch.insert(0, "A", Box::<Telemetry>::default()).unwrap();
        ch.insert(2, "C", Box::<Telemetry>::default()).unwrap();
        assert_eq!(ch.names(), vec!["A", "B", "C"]);
        assert_eq!(ch.len(), 3);
    }

    #[test]
    fn errors_on_bad_operations() {
        let mut ch = FilterChain::new();
        ch.push_back("A", Box::<Telemetry>::default()).unwrap();
        assert_eq!(
            ch.push_back("A", Box::<Telemetry>::default()).unwrap_err(),
            ChainError::DuplicateComponent("A".into())
        );
        assert_eq!(
            ch.insert(5, "B", Box::<Telemetry>::default()).unwrap_err(),
            ChainError::PositionOutOfRange { pos: 5, len: 1 }
        );
        assert_eq!(ch.remove("ZZ").unwrap_err(), ChainError::UnknownComponent("ZZ".into()));
        assert!(ch.replace("ZZ", "Y", Box::<Telemetry>::default()).is_err());
        ch.push_back("B", Box::<Telemetry>::default()).unwrap();
        assert_eq!(
            ch.replace("A", "B", Box::<Telemetry>::default()).unwrap_err(),
            ChainError::DuplicateComponent("B".into())
        );
    }

    #[test]
    fn replace_preserves_position() {
        let mut ch = FilterChain::new();
        ch.push_back("A", Box::<Telemetry>::default()).unwrap();
        ch.push_back("B", Box::<Telemetry>::default()).unwrap();
        ch.push_back("C", Box::<Telemetry>::default()).unwrap();
        let old = ch.replace("B", "B2", Box::<Telemetry>::default()).unwrap();
        assert_eq!(old.kind(), "telemetry");
        assert_eq!(ch.names(), vec!["A", "B2", "C"]);
    }

    #[test]
    fn remove_returns_filter_for_post_action() {
        let mut ch = FilterChain::new();
        ch.push_back("T", Box::<Telemetry>::default()).unwrap();
        let _ = ch.push(pkt(1));
        let removed = ch.remove("T").unwrap();
        assert_eq!(removed.stats().packets_in, 1, "state travels with the filter");
        assert!(ch.is_empty());
    }

    #[test]
    fn filter_accessor_reads_stats() {
        let mut ch = FilterChain::new();
        ch.push_back("T", Box::<Telemetry>::default()).unwrap();
        let _ = ch.push(pkt(1));
        assert_eq!(ch.filter("T").unwrap().stats().packets_in, 1);
        assert!(ch.filter("missing").is_none());
    }
}
