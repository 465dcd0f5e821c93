//! `encode_scenario`'s bytes, pinned: an FNV-1a of the canonical text of one
//! serverless and one IaaS universe, captured before the codec was rebuilt
//! on `sada_simnet::text`. Companion of `crates/fleet/tests/wire_bytes.rs`,
//! which pins every other text format; this one lives here because
//! `sada-scenario` depends on `sada-fleet` and not the reverse.

use sada_obs::fnv1a;
use sada_scenario::{encode_scenario, generate, ScenarioConfig};
use sada_simnet::SimDuration;

#[test]
fn scenario_text_bytes_are_pinned() {
    for (what, cfg, want) in [
        ("serverless seed 7", ScenarioConfig::serverless(7), 0xd8a2_cff6_8571_2de9),
        ("IaaS (energy) seed 11", ScenarioConfig::iaas_energy(11), 0x129f_093d_cba3_f55b),
    ] {
        let mut scenario = generate(&cfg);
        // The generator never cancels and never raises a priority; the
        // format can say both.
        scenario.sessions[0].cancel_at = Some(SimDuration::from_micros(90_000));
        scenario.sessions[0].priority = u8::MAX;
        let text = encode_scenario(&scenario);
        assert!(
            fnv1a(&text) == want,
            "{what}: bytes moved, FNV-1a now {:#018x}\n{text}",
            fnv1a(&text)
        );
    }
}
