//! Bulkhead admission control: bounded in-flight work, bounded waiting
//! population, deterministic load shedding.

/// Admission limits for a control plane. The default is unlimited on both
/// axes, which reproduces the historical always-admit behavior exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkheadConfig {
    /// Maximum sessions actively executing their adaptation protocol.
    /// Lock-release grant bursts may transiently exceed this by the grant
    /// count; the bound is enforced at every admission decision.
    pub max_in_flight: usize,
    /// Maximum sessions waiting (scope-lock queue plus admission gate)
    /// before the plane sheds load instead of queueing forever.
    pub max_queued: usize,
}

impl Default for BulkheadConfig {
    fn default() -> Self {
        BulkheadConfig::unlimited()
    }
}

impl BulkheadConfig {
    /// No limits: every session is admitted or queued, never shed.
    pub(crate) fn unlimited() -> Self {
        BulkheadConfig { max_in_flight: usize::MAX, max_queued: usize::MAX }
    }
}

/// Pick the shed victim from the waiting population (including the
/// newcomer): lowest priority first, oldest (smallest enqueue sequence)
/// among ties, session id as the final deterministic tie-break.
///
/// Entries are `(session, priority, enqueue_seq)`.
pub fn shed_victim(waiting: &[(u64, u8, u64)]) -> Option<u64> {
    waiting.iter().min_by_key(|&&(sid, prio, seq)| (prio, seq, sid)).map(|&(sid, _, _)| sid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_is_lowest_priority_then_oldest() {
        let waiting = vec![(10, 2, 5), (11, 0, 9), (12, 0, 4), (13, 1, 1)];
        assert_eq!(shed_victim(&waiting), Some(12), "priority 0, oldest seq");
        assert_eq!(shed_victim(&[]), None);
    }
}
