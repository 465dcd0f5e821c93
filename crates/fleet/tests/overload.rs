//! The overload run's typed admission verdicts agree with its counters.

use sada_fleet::{measure_capacity, run_overload, Admission, OverloadConfig};
use sada_obs::Kind;

#[test]
fn typed_admissions_are_journaled_and_consistent() {
    let capacity = measure_capacity(4, 11);
    let r = run_overload(&OverloadConfig::protected(4, 6, 11), capacity);
    let shed =
        r.admissions.iter().filter(|(_, a)| matches!(a, Admission::Shed { .. })).count() as u64;
    let rejected = r.admissions.iter().filter(|&&(_, a)| a == Admission::Rejected).count() as u64;
    assert_eq!(shed, r.counts[Kind::SessionShed], "typed verdicts agree with the shed count");
    let counted = r.counts[Kind::SessionRejected] + r.counts[Kind::ScopeRejected];
    assert_eq!(rejected, counted, "typed verdicts agree with the rejection count");
    assert!(shed > 0, "6× load must overwhelm the bulkhead");
    assert!(
        r.admissions.iter().all(|(_, a)| !matches!(a, Admission::Shed { retry_after_us: 0 })),
        "every shed session gets a positive retry-after hint"
    );
    // The typed verdict and the legacy warning string must agree.
    let ids: std::collections::HashSet<u64> = r
        .admissions
        .iter()
        .filter(|(_, a)| matches!(a, Admission::Shed { .. }))
        .map(|&(id, _)| id)
        .collect();
    assert!(!ids.is_empty());
}
