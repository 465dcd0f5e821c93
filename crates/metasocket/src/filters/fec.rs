//! XOR-parity forward error correction filters.
//!
//! The paper's motivating MetaSocket deployments insert FEC filters on lossy
//! wireless links. This implementation groups every `k` data packets and
//! emits one parity packet whose payload is the XOR of the group's payloads;
//! the receiving filter buffers recent packets and can reconstruct any
//! single missing packet of a group when its parity arrives.
//!
//! Parity payload layout (big-endian):
//!
//! ```text
//! [k: u8]
//! k × ( [seq: u64] [len: u32] )     covered packets
//! [tagc: u8] tagc × [tag: u16]      shared tag stack of the group
//! [xor bytes, max(len) of group]
//! ```

use std::collections::HashMap;
use std::collections::VecDeque;

use crate::filter::{Filter, FilterStats};
use crate::packet::{tags, Packet};

/// Generates parity packets after every `k` data packets.
#[derive(Debug)]
pub struct FecEncoder {
    k: usize,
    group: Vec<Packet>,
    stats: FilterStats,
    /// Parity packets emitted.
    pub(crate) parity_sent: u64,
}

impl FecEncoder {
    /// Creates an encoder emitting one parity packet per `k` data packets.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "FEC group size must be positive");
        FecEncoder { k, group: Vec::new(), stats: FilterStats::default(), parity_sent: 0 }
    }

    fn parity_packet(group: &[Packet]) -> Packet {
        let maxlen = group.iter().map(|p| p.payload.len()).max().unwrap_or(0);
        let mut payload = Vec::with_capacity(1 + group.len() * 12 + 3 + maxlen);
        payload.push(group.len() as u8);
        for p in group {
            payload.extend_from_slice(&p.seq.to_be_bytes());
            payload.extend_from_slice(&(p.payload.len() as u32).to_be_bytes());
        }
        let shared_tags = &group[0].tags;
        payload.push(shared_tags.len() as u8);
        for t in shared_tags {
            payload.extend_from_slice(&t.to_be_bytes());
        }
        let mut xor = vec![0u8; maxlen];
        for p in group {
            for (ix, &b) in p.payload.iter().enumerate() {
                xor[ix] ^= b;
            }
        }
        payload.extend_from_slice(&xor);
        let mut parity = Packet::new(group[0].stream, group.last().unwrap().seq, payload);
        parity.tags.push(tags::FEC);
        parity
    }
}

impl Filter for FecEncoder {
    fn kind(&self) -> &'static str {
        "fec-enc"
    }

    fn process(&mut self, pkt: Packet) -> Vec<Packet> {
        self.stats.packets_in += 1;
        let mut out = vec![pkt.clone()];
        self.group.push(pkt);
        if self.group.len() == self.k {
            out.push(Self::parity_packet(&self.group));
            self.parity_sent += 1;
            self.group.clear();
        }
        self.stats.packets_out += out.len() as u64;
        out
    }

    fn flush(&mut self) -> Vec<Packet> {
        if self.group.is_empty() {
            return Vec::new();
        }
        let parity = Self::parity_packet(&self.group);
        self.group.clear();
        self.parity_sent += 1;
        self.stats.packets_out += 1;
        vec![parity]
    }

    fn stats(&self) -> FilterStats {
        self.stats
    }
}

/// Consumes parity packets and reconstructs single missing packets.
///
/// Parity that arrives *before* its group (e.g. after interleaving) is held
/// and retried as data packets come in, so recovery is order-tolerant.
#[derive(Debug)]
pub struct FecDecoder {
    /// Recently seen data packets by sequence number.
    seen: HashMap<u64, Packet>,
    /// Eviction order for `seen`.
    order: VecDeque<u64>,
    capacity: usize,
    /// Parity packets whose groups are still too incomplete to act on.
    pending_parity: VecDeque<Packet>,
    stats: FilterStats,
    /// Packets reconstructed from parity.
    pub recovered: u64,
}

impl FecDecoder {
    /// Creates a decoder remembering up to `capacity` recent packets.
    pub fn new(capacity: usize) -> Self {
        FecDecoder {
            seen: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            pending_parity: VecDeque::new(),
            stats: FilterStats::default(),
            recovered: 0,
        }
    }

    fn remember(&mut self, pkt: &Packet) {
        if self.seen.insert(pkt.seq, pkt.clone()).is_none() {
            self.order.push_back(pkt.seq);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
        }
    }

    /// How many covered packets of `parity`'s group are still missing
    /// (`None` on a malformed parity payload).
    fn missing_count(&self, parity: &Packet) -> Option<usize> {
        let p = &parity.payload;
        let k = *p.first()? as usize;
        let mut off = 1;
        let mut missing = 0;
        for _ in 0..k {
            let seq = u64::from_be_bytes(p.get(off..off + 8)?.try_into().ok()?);
            if !self.seen.contains_key(&seq) {
                missing += 1;
            }
            off += 12;
        }
        Some(missing)
    }

    fn try_recover(&mut self, parity: &Packet) -> Option<Packet> {
        let p = &parity.payload;
        let k = *p.first()? as usize;
        let mut off = 1;
        let mut covered = Vec::with_capacity(k);
        for _ in 0..k {
            let seq = u64::from_be_bytes(p.get(off..off + 8)?.try_into().ok()?);
            let len = u32::from_be_bytes(p.get(off + 8..off + 12)?.try_into().ok()?) as usize;
            covered.push((seq, len));
            off += 12;
        }
        let tagc = *p.get(off)? as usize;
        off += 1;
        let mut shared_tags = Vec::with_capacity(tagc);
        for _ in 0..tagc {
            shared_tags.push(u16::from_be_bytes(p.get(off..off + 2)?.try_into().ok()?));
            off += 2;
        }
        let xor = p.get(off..)?;
        let missing: Vec<(u64, usize)> =
            covered.iter().copied().filter(|(seq, _)| !self.seen.contains_key(seq)).collect();
        let (miss_seq, miss_len) = match missing.as_slice() {
            [one] => *one,
            _ => return None, // zero missing (nothing to do) or >1 (unrecoverable)
        };
        let mut payload = xor.to_vec();
        for (seq, _) in covered.iter().filter(|(s, _)| *s != miss_seq) {
            let present = &self.seen[seq];
            for (ix, &b) in present.payload.iter().enumerate() {
                payload[ix] ^= b;
            }
        }
        payload.truncate(miss_len);
        let mut rec = Packet::new(parity.stream, miss_seq, payload);
        rec.tags = shared_tags;
        Some(rec)
    }
}

impl Filter for FecDecoder {
    fn kind(&self) -> &'static str {
        "fec-dec"
    }

    fn process(&mut self, pkt: Packet) -> Vec<Packet> {
        self.stats.packets_in += 1;
        if pkt.top_tag() == Some(tags::FEC) {
            // Parity packets are consumed here, never forwarded.
            self.handle_parity(pkt)
        } else {
            self.remember(&pkt);
            let mut out = vec![pkt];
            // New data may make a held parity actionable.
            out.extend(self.retry_pending());
            self.stats.packets_out += out.len() as u64;
            out
        }
    }

    fn stats(&self) -> FilterStats {
        self.stats
    }
}

impl FecDecoder {
    fn handle_parity(&mut self, pkt: Packet) -> Vec<Packet> {
        match self.missing_count(&pkt) {
            Some(0) | None => Vec::new(), // nothing to do / malformed
            Some(1) => match self.try_recover(&pkt) {
                Some(rec) => {
                    self.recovered += 1;
                    self.remember(&rec);
                    self.stats.packets_out += 1;
                    let mut out = vec![rec];
                    out.extend(self.retry_pending());
                    out
                }
                None => Vec::new(),
            },
            Some(_) => {
                // Too early (or too late): keep it and retry as data lands.
                self.pending_parity.push_back(pkt);
                if self.pending_parity.len() > self.capacity {
                    self.pending_parity.pop_front();
                }
                Vec::new()
            }
        }
    }

    fn retry_pending(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut keep = VecDeque::new();
        while let Some(parity) = self.pending_parity.pop_front() {
            match self.missing_count(&parity) {
                Some(0) | None => {} // complete or malformed: discard
                Some(1) => {
                    if let Some(rec) = self.try_recover(&parity) {
                        self.recovered += 1;
                        self.remember(&rec);
                        out.push(rec);
                    }
                }
                Some(_) => keep.push_back(parity),
            }
        }
        self.pending_parity = keep;
        // Recoveries may unlock further pending parities.
        if !out.is_empty() {
            let more = self.retry_pending();
            out.extend(more);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u64, body: &[u8]) -> Packet {
        Packet::new(3, seq, body.to_vec())
    }

    #[test]
    fn parity_emitted_every_k() {
        let mut enc = FecEncoder::new(3);
        let mut total_parity = 0;
        for seq in 0..9 {
            let out = enc.process(data(seq, &[seq as u8; 10]));
            total_parity += out.iter().filter(|p| p.top_tag() == Some(tags::FEC)).count();
        }
        assert_eq!(total_parity, 3);
        assert_eq!(enc.parity_sent, 3);
    }

    #[test]
    fn lost_packet_recovered() {
        let mut enc = FecEncoder::new(3);
        let mut dec = FecDecoder::new(16);
        let mut sent = Vec::new();
        for seq in 0..3 {
            sent.extend(enc.process(data(seq, format!("payload-{seq}").as_bytes())));
        }
        assert_eq!(sent.len(), 4, "3 data + 1 parity");
        // Drop seq 1 in the "network".
        let lost = sent.remove(1);
        let mut received = Vec::new();
        for p in sent {
            received.extend(dec.process(p));
        }
        assert_eq!(dec.recovered, 1);
        let rec = received.iter().find(|p| p.seq == 1).expect("recovered packet");
        assert_eq!(rec.payload, lost.payload);
        assert_eq!(rec.tags, lost.tags);
    }

    #[test]
    fn different_lengths_recovered_exactly() {
        let mut enc = FecEncoder::new(2);
        let mut dec = FecDecoder::new(16);
        let a = data(0, b"short");
        let b = data(1, b"a much longer payload body");
        let mut stream = Vec::new();
        stream.extend(enc.process(a.clone()));
        stream.extend(enc.process(b.clone()));
        // Lose the long one.
        stream.retain(|p| !(p.seq == 1 && p.top_tag() != Some(tags::FEC)));
        let mut received = Vec::new();
        for p in stream {
            received.extend(dec.process(p));
        }
        let rec = received.iter().find(|p| p.seq == 1).unwrap();
        assert_eq!(rec.payload, b.payload);
    }

    #[test]
    fn two_losses_are_unrecoverable() {
        let mut enc = FecEncoder::new(3);
        let mut dec = FecDecoder::new(16);
        let mut stream = Vec::new();
        for seq in 0..3 {
            stream.extend(enc.process(data(seq, &[seq as u8; 8])));
        }
        // Lose two data packets; parity alone cannot help.
        stream.retain(|p| p.top_tag() == Some(tags::FEC) || p.seq == 2);
        let mut received = Vec::new();
        for p in stream {
            received.extend(dec.process(p));
        }
        assert_eq!(dec.recovered, 0);
        assert_eq!(received.len(), 1);
    }

    #[test]
    fn no_loss_means_parity_is_silent() {
        let mut enc = FecEncoder::new(2);
        let mut dec = FecDecoder::new(16);
        let mut received = Vec::new();
        for seq in 0..4 {
            for p in enc.process(data(seq, &[0xAB; 4])) {
                received.extend(dec.process(p));
            }
        }
        assert_eq!(received.len(), 4, "parity consumed, data forwarded");
        assert_eq!(dec.recovered, 0);
    }

    #[test]
    fn flush_emits_partial_group_parity() {
        let mut enc = FecEncoder::new(5);
        let _ = enc.process(data(0, b"x"));
        let _ = enc.process(data(1, b"y"));
        let flushed = enc.flush();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].top_tag(), Some(tags::FEC));
        assert!(enc.flush().is_empty(), "second flush is empty");
    }

    #[test]
    fn tagged_group_restores_tag_stack() {
        // Simulate FEC placed after a DES encoder: packets carry a tag.
        let mut enc = FecEncoder::new(2);
        let mut dec = FecDecoder::new(16);
        let mut p0 = data(0, b"aaaa");
        p0.tags.push(tags::DES64);
        let mut p1 = data(1, b"bbbb");
        p1.tags.push(tags::DES64);
        let mut stream = Vec::new();
        stream.extend(enc.process(p0));
        stream.extend(enc.process(p1.clone()));
        stream.retain(|p| !(p.seq == 1 && p.top_tag() != Some(tags::FEC)));
        let mut received = Vec::new();
        for p in stream {
            received.extend(dec.process(p));
        }
        let rec = received.iter().find(|p| p.seq == 1).unwrap();
        assert_eq!(rec.tags, vec![tags::DES64]);
        assert_eq!(rec.payload, p1.payload);
    }

    #[test]
    fn capacity_eviction_limits_memory() {
        let mut dec = FecDecoder::new(2);
        for seq in 0..10 {
            let _ = dec.process(data(seq, b"z"));
        }
        assert!(dec.seen.len() <= 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_group_size_panics() {
        let _ = FecEncoder::new(0);
    }
}
