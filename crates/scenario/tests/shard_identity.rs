//! Pinned identities of generated worlds run through the sharded control
//! plane: one serverless universe over four regions and one IaaS universe
//! over three, each with the generator's own straddlers crossing region
//! boundaries, at 1 and at 4 worker threads.
//!
//! Companion of `crates/fleet/tests/shard_identity.rs` (which explains what
//! the constants pin); these two live here because `sada-scenario` depends
//! on `sada-fleet` and not the reverse.

#[path = "../../fleet/tests/identity/mod.rs"]
mod identity;

use identity::{assert_pinned, Counters, Identity};
use sada_fleet::ShardScenario;
use sada_scenario::{generate, ScenarioConfig};

#[test]
fn generated_serverless_world_is_pinned() {
    let scenario = generate(&ScenarioConfig::serverless(7));
    assert_pinned(
        "serverless seed 7",
        &ShardScenario::new(scenario.fleet(), 4),
        &Identity {
            fingerprint: 0xd470ee68ef97f8b2,
            final_config: "10100011000100111101010",
            restores: 0,
            journal_fnvs: &[
                0xf98dc961e7a7705b,
                0x9fb5deb4bd64d578,
                0x39d6fa5193ed2111,
                0x6763ab9eabe7e20b,
                0xe8d0087006f6f503,
            ],
            records_fnvs: &[
                0x9a92e9da21411a58,
                0x5980ff4ff721f362,
                0x96dabbc75d347393,
                0xbdf06f8292d9573f,
                0xc774680fd300ddab,
            ],
            global_journal_fnv: 0xe8d011b035cd07f9,
            verdicts: (24, 0, 0, 0, 0),
            results_fnv: 0x4bebdb5f48f401da,
            max_concurrent: 2,
            makespan_us: 1037119,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 7,
                cache_misses: 17,
                dropped: 0,
                duplicated: 0,
                delayed: 0,
                retransmits: 0,
                abandoned: 0,
                orphaned_releases: 0,
                lease_reclaims: 0,
                lease_expirations: 0,
            },
        },
    );
}

#[test]
fn generated_iaas_world_is_pinned() {
    let scenario = generate(&ScenarioConfig { straddler_pct: 30, ..ScenarioConfig::iaas(11) });
    assert_pinned(
        "iaas seed 11",
        &ShardScenario::new(scenario.fleet(), 3),
        &Identity {
            fingerprint: 0xda92f2abefc1867b,
            final_config: "00100011010000110000001",
            restores: 0,
            journal_fnvs: &[
                0x0b4ca80de3273a6e,
                0x6c4d8155033f56d6,
                0xac98f1252e4f0a6f,
                0xc0bcd3c231ca78d1,
            ],
            records_fnvs: &[
                0x6b7f56fb92002374,
                0xf2cfc0081337db19,
                0x43cb9cbb7301e731,
                0xc3c5ba9d5dd05223,
            ],
            global_journal_fnv: 0x58df2c94595dd97f,
            verdicts: (18, 0, 0, 0, 0),
            results_fnv: 0xd64cfab61002c9d5,
            max_concurrent: 4,
            makespan_us: 896095,
            counters: Counters {
                shed: 0,
                rejected: 0,
                breaker_trips: 0,
                scope_breaker_trips: 0,
                suppressed_sends: 0,
                cache_hits: 2,
                cache_misses: 13,
                dropped: 0,
                duplicated: 0,
                delayed: 0,
                retransmits: 0,
                abandoned: 0,
                orphaned_releases: 0,
                lease_reclaims: 0,
                lease_expirations: 0,
            },
        },
    );
}
