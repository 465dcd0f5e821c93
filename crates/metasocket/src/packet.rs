//! Packets flowing through MetaSocket filter chains.

use std::fmt;

/// Well-known codec tags pushed onto [`Packet::tags`] by encoder filters and
/// popped by the matching decoders.
///
/// A decoder whose tag does not match the top of the stack *bypasses* the
/// packet — the paper's "bypass" functionality that lets incompatible
/// decoders coexist during an adaptation.
pub mod tags {
    /// DES 64-bit encryption (components E1 / D1 / D4).
    pub const DES64: u16 = 0x0064;
    /// DES 128-bit (two-key EDE) encryption (components E2 / D3 / D5).
    pub const DES128: u16 = 0x0128;
    /// Run-length compression.
    pub(crate) const RLE: u16 = 0x0011;
    /// XOR-parity forward error correction (marks parity packets).
    pub const FEC: u16 = 0x00FE;
}

/// One datagram of the application stream.
///
/// `tags` is a codec stack: every encoder pushes its tag after transforming
/// the payload, every decoder pops it after inverting the transform, so a
/// packet arriving with an empty stack is plaintext. `corrupted` is sticky:
/// once a decoder fails (wrong cipher after an unsafe adaptation), the
/// packet carries the evidence to the player's statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Monotone per-stream sequence number, assigned by the source.
    pub seq: u64,
    /// Stream identifier (one per sender in the case study).
    pub(crate) stream: u32,
    /// Codec stack, innermost transform first.
    pub tags: Vec<u16>,
    /// Payload bytes (possibly transformed).
    pub payload: Vec<u8>,
    /// Set when a decoder failed to invert a transform.
    pub corrupted: bool,
}

impl Packet {
    /// A fresh plaintext packet.
    pub fn new(stream: u32, seq: u64, payload: Vec<u8>) -> Self {
        Packet { seq, stream, tags: Vec::new(), payload, corrupted: false }
    }

    /// The tag a decoder would need to handle next, if any.
    pub fn top_tag(&self) -> Option<u16> {
        self.tags.last().copied()
    }

    /// True when every transform has been inverted and nothing failed.
    pub fn is_clean_plaintext(&self) -> bool {
        self.tags.is_empty() && !self.corrupted
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pkt(stream={}, seq={}, {}B, tags={:04x?}{})",
            self.stream,
            self.seq,
            self.payload.len(),
            self.tags,
            if self.corrupted { ", CORRUPT" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_packet_is_clean() {
        let p = Packet::new(1, 42, vec![1, 2, 3]);
        assert!(p.is_clean_plaintext());
        assert_eq!(p.top_tag(), None);
        assert_eq!(p.seq, 42);
    }

    #[test]
    fn tag_stack_ordering() {
        let mut p = Packet::new(0, 0, vec![]);
        p.tags.push(tags::RLE);
        p.tags.push(tags::DES64);
        assert_eq!(p.top_tag(), Some(tags::DES64));
        assert!(!p.is_clean_plaintext());
    }

    #[test]
    fn corruption_blocks_cleanliness() {
        let mut p = Packet::new(0, 0, vec![]);
        p.corrupted = true;
        assert!(!p.is_clean_plaintext());
        assert!(p.to_string().contains("CORRUPT"));
    }
}
