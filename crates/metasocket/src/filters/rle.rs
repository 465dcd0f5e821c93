//! Run-length compression filters.
//!
//! The paper lists compression among the filter behaviours MetaSockets can
//! insert at runtime ("filters can perform encryption, decryption, forward
//! error correction, compression, and so forth"). Synthetic video frames are
//! run-heavy, so a simple byte-level RLE gives a measurable size reduction
//! in the bandwidth-adaptation example.
//!
//! Encoding: `(count, byte)` pairs, `count ∈ 1..=255`. Worst case doubles
//! the payload; the encoder keeps the *smaller* of raw and encoded forms,
//! flagging the choice in a one-byte header (`0` = raw, `1` = RLE).

use crate::filter::{Filter, FilterStats};
use crate::packet::{tags, Packet};

/// Compresses payload bytes with run-length encoding.
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut iter = data.iter().copied().peekable();
    while let Some(b) = iter.next() {
        let mut count: u8 = 1;
        while count < u8::MAX && iter.peek() == Some(&b) {
            iter.next();
            count += 1;
        }
        out.push(count);
        out.push(b);
    }
    out
}

/// Inverts [`rle_compress`].
///
/// Returns `None` on malformed input (odd length or zero counts).
pub(crate) fn rle_decompress(data: &[u8]) -> Option<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(data.len());
    for pair in data.chunks_exact(2) {
        let (count, byte) = (pair[0], pair[1]);
        if count == 0 {
            return None;
        }
        out.extend(std::iter::repeat_n(byte, count as usize));
    }
    Some(out)
}

/// Compression filter: RLE-encodes payloads when that helps, tags packets.
#[derive(Debug, Default)]
pub struct RleEncoder {
    stats: FilterStats,
    /// Payload bytes in / out, for compression-ratio reporting.
    pub(crate) bytes_in: u64,
    /// See [`RleEncoder::bytes_in`].
    pub(crate) bytes_out: u64,
}

impl RleEncoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        RleEncoder::default()
    }
}

impl Filter for RleEncoder {
    fn kind(&self) -> &'static str {
        "rle-enc"
    }

    fn process(&mut self, mut pkt: Packet) -> Vec<Packet> {
        self.stats.packets_in += 1;
        self.bytes_in += pkt.payload.len() as u64;
        let encoded = rle_compress(&pkt.payload);
        let mut framed = Vec::with_capacity(encoded.len().min(pkt.payload.len()) + 1);
        if encoded.len() < pkt.payload.len() {
            framed.push(1);
            framed.extend_from_slice(&encoded);
        } else {
            framed.push(0);
            framed.extend_from_slice(&pkt.payload);
        }
        pkt.payload = framed;
        pkt.tags.push(tags::RLE);
        self.bytes_out += pkt.payload.len() as u64;
        self.stats.packets_out += 1;
        vec![pkt]
    }

    fn stats(&self) -> FilterStats {
        self.stats
    }
}

/// Decompression filter with bypass semantics.
#[derive(Debug, Default)]
pub struct RleDecoder {
    stats: FilterStats,
}

impl RleDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        RleDecoder::default()
    }
}

impl Filter for RleDecoder {
    fn kind(&self) -> &'static str {
        "rle-dec"
    }

    fn process(&mut self, mut pkt: Packet) -> Vec<Packet> {
        self.stats.packets_in += 1;
        if pkt.top_tag() != Some(tags::RLE) {
            self.stats.bypassed += 1;
            self.stats.packets_out += 1;
            return vec![pkt];
        }
        pkt.tags.pop();
        let ok = match pkt.payload.split_first() {
            Some((0, rest)) => {
                pkt.payload = rest.to_vec();
                true
            }
            Some((1, rest)) => match rle_decompress(rest) {
                Some(plain) => {
                    pkt.payload = plain;
                    true
                }
                None => false,
            },
            _ => false,
        };
        if !ok {
            pkt.corrupted = true;
            self.stats.errors += 1;
        }
        self.stats.packets_out += 1;
        vec![pkt]
    }

    fn stats(&self) -> FilterStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_decompress_round_trip() {
        for data in [
            Vec::new(),
            vec![7u8],
            vec![0; 1000],
            (0..=255u8).collect::<Vec<u8>>(),
            b"aaabbbcccd".to_vec(),
        ] {
            assert_eq!(rle_decompress(&rle_compress(&data)), Some(data));
        }
    }

    #[test]
    fn long_runs_split_at_255() {
        let data = vec![9u8; 600];
        let enc = rle_compress(&data);
        assert_eq!(enc, vec![255, 9, 255, 9, 90, 9]);
        assert_eq!(rle_decompress(&enc), Some(data));
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert_eq!(rle_decompress(&[1]), None, "odd length");
        assert_eq!(rle_decompress(&[0, 5]), None, "zero count");
    }

    #[test]
    fn filter_round_trip_compressible() {
        let mut enc = RleEncoder::new();
        let mut dec = RleDecoder::new();
        let pkt = Packet::new(0, 1, vec![42u8; 500]);
        let encoded = enc.process(pkt.clone()).pop().unwrap();
        assert!(encoded.payload.len() < 500, "runs should shrink");
        assert_eq!(encoded.top_tag(), Some(tags::RLE));
        let decoded = dec.process(encoded).pop().unwrap();
        assert_eq!(decoded.payload, pkt.payload);
        assert!(decoded.is_clean_plaintext());
        assert!(enc.bytes_out < enc.bytes_in);
    }

    #[test]
    fn filter_round_trip_incompressible() {
        let mut enc = RleEncoder::new();
        let mut dec = RleDecoder::new();
        let payload: Vec<u8> = (0..=200u8).collect();
        let pkt = Packet::new(0, 1, payload.clone());
        let encoded = enc.process(pkt).pop().unwrap();
        assert_eq!(encoded.payload.len(), payload.len() + 1, "raw frame + header");
        let decoded = dec.process(encoded).pop().unwrap();
        assert_eq!(decoded.payload, payload);
    }

    #[test]
    fn decoder_bypasses_untagged() {
        let mut dec = RleDecoder::new();
        let pkt = Packet::new(0, 1, vec![1, 2, 3]);
        let out = dec.process(pkt.clone()).pop().unwrap();
        assert_eq!(out, pkt);
        assert_eq!(dec.stats().bypassed, 1);
    }

    #[test]
    fn garbage_marks_corrupted() {
        let mut dec = RleDecoder::new();
        let mut pkt = Packet::new(0, 1, vec![1, 0, 9]); // RLE frame with zero count
        pkt.tags.push(tags::RLE);
        let out = dec.process(pkt).pop().unwrap();
        assert!(out.corrupted);
        assert_eq!(dec.stats().errors, 1);
    }

    #[test]
    fn empty_frame_marks_corrupted() {
        let mut dec = RleDecoder::new();
        let mut pkt = Packet::new(0, 1, vec![]);
        pkt.tags.push(tags::RLE);
        assert!(dec.process(pkt).pop().unwrap().corrupted);
    }
}
