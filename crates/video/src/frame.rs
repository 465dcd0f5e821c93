//! Synthetic video frames, fragmentation to MTU-sized packets, reassembly,
//! and the player sink with its quality statistics.
//!
//! Frame wire format inside packet payloads (big-endian):
//!
//! ```text
//! [frame_no: u32] [frag_ix: u16] [frag_count: u16] [crc32-of-frame: u32] [bytes…]
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sada_meta::Packet;
use std::collections::HashMap;

use crate::crc::crc32;

/// Fragment header size in bytes.
pub(crate) const FRAG_HEADER: usize = 12;

/// Generates synthetic frames: run-heavy byte patterns (so RLE compresses)
/// with a per-frame CRC, deterministic in the seed.
#[derive(Debug)]
pub(crate) struct FrameSource {
    rng: StdRng,
    frame_size: usize,
    next_frame: u32,
}

impl FrameSource {
    /// A source producing `frame_size`-byte frames.
    pub(crate) fn new(seed: u64, frame_size: usize) -> Self {
        FrameSource { rng: StdRng::seed_from_u64(seed), frame_size, next_frame: 0 }
    }

    /// Produces the next frame's content: `(frame_no, bytes)`.
    pub(crate) fn next_frame(&mut self) -> (u32, Vec<u8>) {
        let no = self.next_frame;
        self.next_frame += 1;
        let mut bytes = Vec::with_capacity(self.frame_size);
        // Runs of random length/value mimic flat regions of real frames.
        while bytes.len() < self.frame_size {
            let run = self.rng.gen_range(4..64).min(self.frame_size - bytes.len());
            let value: u8 = self.rng.gen();
            bytes.extend(std::iter::repeat_n(value, run));
        }
        (no, bytes)
    }
}

/// Splits a frame into MTU-sized packets with fragment headers.
///
/// `stream` and `first_seq` assign packet identities; returns the packets
/// and the next unused sequence number.
pub(crate) fn fragment(
    stream: u32,
    first_seq: u64,
    frame_no: u32,
    frame: &[u8],
    mtu: usize,
) -> (Vec<Packet>, u64) {
    assert!(mtu > FRAG_HEADER, "mtu must exceed the fragment header");
    let chunk = mtu - FRAG_HEADER;
    let count = frame.len().div_ceil(chunk).max(1);
    let crc = crc32(frame);
    let mut out = Vec::with_capacity(count);
    let mut seq = first_seq;
    for (ix, piece) in frame.chunks(chunk).enumerate() {
        let mut payload = Vec::with_capacity(FRAG_HEADER + piece.len());
        payload.extend_from_slice(&frame_no.to_be_bytes());
        payload.extend_from_slice(&(ix as u16).to_be_bytes());
        payload.extend_from_slice(&(count as u16).to_be_bytes());
        payload.extend_from_slice(&crc.to_be_bytes());
        payload.extend_from_slice(piece);
        out.push(Packet::new(stream, seq, payload));
        seq += 1;
    }
    if frame.is_empty() {
        let mut payload = Vec::with_capacity(FRAG_HEADER);
        payload.extend_from_slice(&frame_no.to_be_bytes());
        payload.extend_from_slice(&0u16.to_be_bytes());
        payload.extend_from_slice(&1u16.to_be_bytes());
        payload.extend_from_slice(&crc.to_be_bytes());
        out.push(Packet::new(stream, seq, payload));
        seq += 1;
    }
    (out, seq)
}

/// A decoded fragment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FragInfo {
    frame_no: u32,
    frag_ix: u16,
    frag_count: u16,
    crc: u32,
}

fn parse_header(payload: &[u8]) -> Option<FragInfo> {
    if payload.len() < FRAG_HEADER {
        return None;
    }
    Some(FragInfo {
        frame_no: u32::from_be_bytes(payload[0..4].try_into().ok()?),
        frag_ix: u16::from_be_bytes(payload[4..6].try_into().ok()?),
        frag_count: u16::from_be_bytes(payload[6..8].try_into().ok()?),
        crc: u32::from_be_bytes(payload[8..12].try_into().ok()?),
    })
}

/// Quality statistics accumulated by a player sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlayerStats {
    /// Packets handed to the player.
    pub(crate) packets: u64,
    /// Packets arriving corrupted (codec failure) or undecodable.
    pub corrupted_packets: u64,
    /// Frames fully reassembled with a valid CRC.
    pub frames_displayed: u64,
    /// Frames whose reassembled bytes failed the CRC.
    pub(crate) frames_corrupted: u64,
    /// Frames abandoned (missing fragments when a much newer frame
    /// completed).
    pub(crate) frames_dropped: u64,
}

/// In-progress reassembly: fragments received, payload size so far, and
/// the per-fragment slots (None = still missing).
type PartialFrame = (u16, u32, Vec<Option<Vec<u8>>>);

/// Reassembles fragments into frames and keeps score — the "video player"
/// at the end of each client's receive path.
#[derive(Debug)]
pub(crate) struct PlayerSink {
    partial: HashMap<u32, PartialFrame>,
    stats: PlayerStats,
    highest_completed: Option<u32>,
}

impl Default for PlayerSink {
    fn default() -> Self {
        Self::new()
    }
}

impl PlayerSink {
    /// An empty player.
    pub(crate) fn new() -> Self {
        PlayerSink {
            partial: HashMap::new(),
            stats: PlayerStats::default(),
            highest_completed: None,
        }
    }

    /// Current statistics.
    pub(crate) fn stats(&self) -> PlayerStats {
        self.stats
    }

    /// Accepts one packet off the receive chain.
    pub(crate) fn accept(&mut self, pkt: &Packet) {
        self.stats.packets += 1;
        // A packet that still carries codec tags was never fully decoded
        // (no matching decoder in the chain) — as corrupt as a failed
        // decrypt for the viewer.
        if pkt.corrupted || !pkt.tags.is_empty() {
            self.stats.corrupted_packets += 1;
            return;
        }
        let info = match parse_header(&pkt.payload) {
            Some(i) if i.frag_count > 0 && i.frag_ix < i.frag_count => i,
            _ => {
                self.stats.corrupted_packets += 1;
                return;
            }
        };
        let entry = self
            .partial
            .entry(info.frame_no)
            .or_insert_with(|| (info.frag_count, info.crc, vec![None; info.frag_count as usize]));
        if entry.0 != info.frag_count || entry.1 != info.crc {
            // Conflicting headers within one frame: corruption slipped past.
            self.stats.corrupted_packets += 1;
            return;
        }
        entry.2[info.frag_ix as usize] = Some(pkt.payload[FRAG_HEADER..].to_vec());
        if entry.2.iter().all(Option::is_some) {
            let (_, crc, parts) = self.partial.remove(&info.frame_no).expect("just inserted");
            let frame: Vec<u8> = parts.into_iter().flatten().flatten().collect();
            if crc32(&frame) == crc {
                self.stats.frames_displayed += 1;
            } else {
                self.stats.frames_corrupted += 1;
            }
            self.highest_completed =
                Some(self.highest_completed.map_or(info.frame_no, |h| h.max(info.frame_no)));
            self.garbage_collect();
        }
    }

    /// Drops partial frames that can never complete (far older than the
    /// newest displayed frame).
    fn garbage_collect(&mut self) {
        if let Some(h) = self.highest_completed {
            let stale: Vec<u32> = self.partial.keys().copied().filter(|&f| f + 30 < h).collect();
            for f in stale {
                self.partial.remove(&f);
                self.stats.frames_dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_reassemble_round_trip() {
        let mut src = FrameSource::new(1, 3000);
        let mut player = PlayerSink::new();
        let mut seq = 0;
        for _ in 0..10 {
            let (no, frame) = src.next_frame();
            let (pkts, next) = fragment(1, seq, no, &frame, 512);
            assert!(pkts.len() > 1, "3000B frame fragments at 512B MTU");
            seq = next;
            for p in &pkts {
                player.accept(p);
            }
        }
        let s = player.stats();
        assert_eq!(s.frames_displayed, 10);
        assert_eq!(s.frames_corrupted, 0);
        assert_eq!(s.corrupted_packets, 0);
    }

    #[test]
    fn out_of_order_fragments_still_complete() {
        let (no, frame) = FrameSource::new(2, 2000).next_frame();
        let (mut pkts, _) = fragment(1, 0, no, &frame, 300);
        pkts.reverse();
        let mut player = PlayerSink::new();
        for p in &pkts {
            player.accept(p);
        }
        assert_eq!(player.stats().frames_displayed, 1);
    }

    #[test]
    fn tampered_fragment_fails_crc() {
        let (no, frame) = FrameSource::new(3, 1000).next_frame();
        let (mut pkts, _) = fragment(1, 0, no, &frame, 400);
        let last = pkts.len() - 1;
        let plen = pkts[last].payload.len();
        pkts[last].payload[plen - 1] ^= 0xFF;
        let mut player = PlayerSink::new();
        for p in &pkts {
            player.accept(p);
        }
        assert_eq!(player.stats().frames_corrupted, 1);
        assert_eq!(player.stats().frames_displayed, 0);
    }

    #[test]
    fn corrupted_flag_counts_without_parsing() {
        let mut player = PlayerSink::new();
        let mut pkt = Packet::new(1, 0, vec![0; 64]);
        pkt.corrupted = true;
        player.accept(&pkt);
        assert_eq!(player.stats().corrupted_packets, 1);
    }

    #[test]
    fn undecoded_tagged_packet_counts_corrupted() {
        let mut player = PlayerSink::new();
        let mut pkt = Packet::new(1, 0, vec![0; 64]);
        pkt.tags.push(sada_meta::tags::DES128);
        player.accept(&pkt);
        assert_eq!(player.stats().corrupted_packets, 1);
    }

    #[test]
    fn garbage_payload_counts_corrupted() {
        let mut player = PlayerSink::new();
        player.accept(&Packet::new(1, 0, vec![1, 2, 3])); // shorter than header
        let mut bad_header = vec![0u8; FRAG_HEADER];
        bad_header[6] = 0; // frag_count = 0
        bad_header[7] = 0;
        player.accept(&Packet::new(1, 1, bad_header));
        assert_eq!(player.stats().corrupted_packets, 2);
    }

    #[test]
    fn empty_frame_round_trips() {
        let (pkts, next) = fragment(1, 5, 9, &[], 100);
        assert_eq!(pkts.len(), 1);
        assert_eq!(next, 6);
        let mut player = PlayerSink::new();
        player.accept(&pkts[0]);
        assert_eq!(player.stats().frames_displayed, 1);
    }

    #[test]
    fn frames_are_run_heavy() {
        let (_, frame) = FrameSource::new(4, 4096).next_frame();
        let compressed = sada_meta::filters::rle::rle_compress(&frame);
        assert!(compressed.len() < frame.len(), "synthetic frames must compress");
    }

    #[test]
    fn stale_partials_get_dropped() {
        let mut player = PlayerSink::new();
        // Frame 0: only first fragment of two arrives.
        let (no, frame) = FrameSource::new(5, 1000).next_frame();
        let (pkts, mut seq) = fragment(1, 0, no, &frame, 520);
        assert!(pkts.len() >= 2);
        player.accept(&pkts[0]);
        // Then 40 complete single-fragment frames push it out of the window.
        let mut src = FrameSource::new(6, 100);
        let (_, _) = src.next_frame(); // skip frame 0 to keep numbers ahead
        for n in 1..=40u32 {
            let (_, f) = src.next_frame();
            let (ps, next) = fragment(1, seq, n, &f, 500);
            seq = next;
            for p in &ps {
                player.accept(p);
            }
        }
        assert_eq!(player.stats().frames_dropped, 1);
    }
}
