//! The filter abstraction: the paper's adaptable MetaSocket components.

use std::any::Any;
use std::fmt;

use crate::packet::Packet;

/// Upcast support so concrete filter state (e.g. an FEC decoder's recovery
/// counter) can be inspected behind `dyn Filter`. Blanket-implemented for
/// every `'static` type.
pub trait AsAny {
    /// Borrows the value as [`Any`].
    fn as_any(&self) -> &dyn Any;
    /// Mutably borrows the value as [`Any`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Per-filter traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Packets entering the filter.
    pub(crate) packets_in: u64,
    /// Packets leaving the filter (FEC may emit more, RLE the same, a
    /// reassembler fewer).
    pub(crate) packets_out: u64,
    /// Packets forwarded untouched because the tag did not match — the
    /// paper's bypass behaviour.
    pub(crate) bypassed: u64,
    /// Packets whose transform failed (marked corrupted).
    pub(crate) errors: u64,
}

/// A MetaSocket filter: a runtime-insertable packet transformer.
///
/// Filters are the paper's adaptable components (`E1`, `D3`, …): a send
/// chain encodes, a receive chain decodes. Each call to [`Filter::process`]
/// is atomic with respect to adaptation — the chain only mutates between
/// packets, which is exactly the *local safe state* ("the DES decoder is not
/// decoding a packet") of Section 5.2.
pub trait Filter: AsAny {
    /// Algorithm label, e.g. `"des64-enc"`.
    fn kind(&self) -> &'static str;

    /// Transforms one packet into zero or more packets.
    fn process(&mut self, pkt: Packet) -> Vec<Packet>;

    /// Emits any buffered output (end of stream, or before removal so no
    /// data is lost when the component leaves the chain).
    fn flush(&mut self) -> Vec<Packet> {
        Vec::new()
    }

    /// Traffic counters (default: zeroes for stateless filters that do not
    /// track them).
    fn stats(&self) -> FilterStats {
        FilterStats::default()
    }
}

impl fmt::Debug for dyn Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Filter({})", self.kind())
    }
}

#[cfg(test)]
/// A no-op filter that forwards packets unchanged while counting them: the
/// probe the chain tests splice in.
#[derive(Debug, Default)]
pub(crate) struct Telemetry {
    stats: FilterStats,
    /// Total payload bytes seen.
    pub(crate) bytes: u64,
}

#[cfg(test)]
impl Filter for Telemetry {
    fn kind(&self) -> &'static str {
        "telemetry"
    }

    fn process(&mut self, pkt: Packet) -> Vec<Packet> {
        self.stats.packets_in += 1;
        self.stats.packets_out += 1;
        self.bytes += pkt.payload.len() as u64;
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
    fn telemetry_counts_and_forwards() {
        let mut t = Telemetry::default();
        let out = t.process(Packet::new(0, 1, vec![0; 100]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 1);
        assert_eq!(t.bytes, 100);
        assert_eq!(t.stats().packets_in, 1);
        assert_eq!(t.stats().packets_out, 1);
        assert!(t.flush().is_empty());
    }

    #[test]
    fn dyn_filter_debug_prints_kind() {
        let t: Box<dyn Filter> = Box::<Telemetry>::default();
        assert_eq!(format!("{t:?}"), "Filter(telemetry)");
    }
}
