//! Reference runs that tests compare the production drivers against. Not
//! part of the fleet API.

use crate::shard::{run_sharded, ShardReport, ShardScenario};

/// [`run_fleet_sharded`](crate::run_fleet_sharded) with the GVT promise
/// fast path off: promises quantum-step instead of jumping to the global
/// event horizon. The fast path is scheduling only, and the tests that
/// assert it invisible compare against this run.
pub fn run_fleet_sharded_without_fastpath(scenario: &ShardScenario, threads: usize) -> ShardReport {
    run_sharded(scenario, threads, false, None)
}
