//! A line-oriented text codec for generated scenarios.
//!
//! The codec serves two masters. First, **determinism evidence**: the
//! satellite proptests pin "same seed → byte-identical text", and a
//! canonical text form is the cheapest byte-exact witness of a whole
//! universe (names, invariants, both cost columns, session schedule).
//! Second, **replay**: EXPERIMENTS.md quotes `scenario` files so a run can
//! be reproduced from the artifact alone, without rerunning the generator.
//!
//! The grammar is one record per line, first token the record type:
//!
//! ```text
//! sada-scenario v1
//! seed <u64>
//! domain <video|serverless|iaas> <latency_ms|energy_watts>
//! comp <name> <process>
//! inv <invariant source ...>
//! action <name> <cost_ms> <cost_watts> <removes-csv|-> <adds-csv|->
//! cluster <comps-csv> <on_false-csv|-> <on_true-csv|->
//! session <id> <priority> <submit_us> <cancel_us|-> <flips g:t|g:f csv|->
//! ```
//!
//! Component names are identifier-shaped (the invariant parser enforces
//! `[A-Za-z_][A-Za-z0-9_]*`), so whitespace splitting is unambiguous;
//! `inv` is the only record whose payload may contain spaces and it is
//! therefore the line's tail. Lines are read through `sada_simnet::text`
//! (the workspace's one tokenizer, re-exported from `sada-obs`): blank
//! lines and `#` comments are skipped and every error carries its line
//! and column.

use std::fmt::Write as _;

use sada_fleet::{ActionSpec, ClusterSpec, CompSpec, Domain, Objective, SessionSpec, WorldSpec};
use sada_simnet::text::{list, records, Cursor, ParseError};
use sada_simnet::SimDuration;

use crate::gen::GeneratedScenario;

const HEADER: &str = "sada-scenario v1";

/// Renders a scenario in the canonical text form. Encoding is a pure
/// function of the scenario value, so equal scenarios produce identical
/// bytes — the determinism tests rely on exactly this.
pub fn encode_scenario(s: &GeneratedScenario) -> String {
    let csv = |ixs| list(ixs, |ix: &usize, f| write!(f, "{ix}"));
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}\nseed {}", s.seed);
    let _ = writeln!(out, "domain {} {}", s.spec.domain.name(), s.spec.objective.name());
    for c in &s.spec.comps {
        let _ = writeln!(out, "comp {} {}", c.name, c.process);
    }
    for inv in &s.spec.invariants {
        let _ = writeln!(out, "inv {inv}");
    }
    for a in &s.spec.actions {
        let (removes, adds) = (csv(&a.removes), csv(&a.adds));
        let _ = writeln!(out, "action {} {} {} {removes} {adds}", a.name, a.cost_ms, a.cost_watts);
    }
    for cl in &s.spec.clusters {
        let _ =
            writeln!(out, "cluster {} {} {}", csv(&cl.comps), csv(&cl.on_false), csv(&cl.on_true));
    }
    for sess in &s.sessions {
        // `-`, or the one instant.
        let cancel = sess.cancel_at.map(|d| d.as_micros());
        let cancel = list(cancel.as_slice(), |us, f| write!(f, "{us}"));
        let flips = list(&sess.flips, |&(g, d), f| write!(f, "{g}:{}", if d { 't' } else { 'f' }));
        let at = sess.submit_at.as_micros();
        let _ = writeln!(out, "session {} {} {at} {cancel} {flips}", sess.id, sess.priority);
    }
    out
}

/// Parses the canonical text form back into a scenario. Round-trips with
/// [`encode_scenario`] byte-for-byte: `encode(parse(encode(s))) ==
/// encode(s)` and `parse(encode(s)) == s`.
pub fn parse_scenario(text: &str) -> Result<GeneratedScenario, ParseError> {
    let name = |c: &mut Cursor<'_>| Ok(c.word()?.as_str().to_string());
    let ixs = |c: &mut Cursor<'_>| c.field(|w| w.next_list(Cursor::next_int::<usize>));
    let mut lines = records(text);
    // Where a record the text never had is reported: after the last one.
    let mut end = lines.next().unwrap_or(Cursor::new(text));
    if end.as_str().trim_end() != HEADER {
        return Err(end.expected(format!("{HEADER:?}")));
    }
    let mut seed = None;
    let mut domain = None;
    let mut comps = Vec::new();
    let mut invariants = Vec::new();
    let mut actions = Vec::new();
    let mut clusters = Vec::new();
    let mut sessions = Vec::new();
    for mut c in lines {
        let kind = c.word()?;
        match kind.as_str() {
            "seed" => seed = Some(c.field(Cursor::next_u64)?),
            "domain" => {
                let (d, o) = (c.word()?, c.word()?);
                let d = [Domain::Video, Domain::Serverless, Domain::Iaas]
                    .into_iter()
                    .find(|x| x.name() == d.as_str())
                    .ok_or_else(|| d.unknown("domain"))?;
                let o = [Objective::LatencyMs, Objective::EnergyWatts]
                    .into_iter()
                    .find(|x| x.name() == o.as_str())
                    .ok_or_else(|| o.unknown("objective"))?;
                domain = Some((d, o));
            }
            "comp" => {
                comps.push(CompSpec { name: name(&mut c)?, process: c.field(Cursor::next_int)? })
            }
            "inv" => invariants.push(c.tail().to_string()),
            "action" => actions.push(ActionSpec {
                name: name(&mut c)?,
                cost_ms: c.field(Cursor::next_u64)?,
                cost_watts: c.field(Cursor::next_u64)?,
                removes: ixs(&mut c)?,
                adds: ixs(&mut c)?,
            }),
            "cluster" => clusters.push(ClusterSpec {
                comps: ixs(&mut c)?,
                on_false: ixs(&mut c)?,
                on_true: ixs(&mut c)?,
            }),
            "session" => sessions.push(SessionSpec {
                id: c.field(Cursor::next_u64)?,
                priority: c.field(Cursor::next_int)?,
                submit_at: SimDuration::from_micros(c.field(Cursor::next_u64)?),
                cancel_at: c.field(|w| {
                    let at = if w.eat(b'-') { None } else { Some(w.next_u64()?) };
                    Ok(at.map(SimDuration::from_micros))
                })?,
                flips: c.field(|w| {
                    w.next_list(|flip| {
                        let cluster = flip.next_int()?;
                        flip.expect(b':')?;
                        Ok((cluster, flip.either(b'f', b't')?))
                    })
                })?,
            }),
            _ => return Err(kind.unknown("scenario record")),
        }
        c.expect_end()?;
        end = c;
    }
    let seed = seed.ok_or_else(|| end.expected("a seed record"))?;
    let (domain, objective) = domain.ok_or_else(|| end.expected("a domain record"))?;
    Ok(GeneratedScenario {
        seed,
        spec: WorldSpec { domain, objective, comps, invariants, actions, clusters },
        sessions,
    })
}
