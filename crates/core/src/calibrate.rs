//! Empirical cost calibration.
//!
//! Section 4.1 fixes a cost per adaptive action, noting that "factors
//! affecting cost values include system blocking time, adaptation duration,
//! delay of packet delivery, resource usage". The paper's Table 2 numbers
//! came from measurements on the authors' testbed; this module closes the
//! same loop against *our* testbed: it executes each action as a
//! single-step adaptation on the simulator, measures the realization
//! latency, and emits a re-costed action table that planning can use
//! instead of the hand-assigned values.

use sada_expr::CompId;
use sada_plan::Action;
use sada_proto::{AdaptationSpec, SpecBuilder};
use sada_simnet::SimDuration;

use crate::realize::{run_adaptation, RunConfig};

/// One action's measured realization cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalibratedCost {
    /// The action's index in the spec's table.
    pub action: usize,
    /// Realization latency of a single-step adaptation running this action
    /// (request to completion, simulated time).
    pub latency: SimDuration,
    /// Protocol messages used.
    pub(crate) messages: u64,
}

/// Measures every action that appears on some SAG arc.
///
/// For each action, the cheapest-to-find applicable safe configuration is
/// used as the source and the action's result as the target; the returned
/// vector is ordered by action index and skips actions with no safe arc
/// (they can never execute anyway).
pub fn calibrate(spec: &AdaptationSpec, run: &RunConfig) -> Vec<CalibratedCost> {
    let safe = spec.safe_configs();
    let mut out = Vec::new();
    for (ix, action) in spec.actions().iter().enumerate() {
        let Some(from) =
            safe.iter().find(|cfg| action.applicable(cfg) && spec.is_safe(&action.apply(cfg)))
        else {
            continue;
        };
        let to = action.apply(from);
        // Plan restricted to exactly this transition: the MAP from `from`
        // to `to` may legitimately pick a cheaper multi-step route, so we
        // measure the action via a single-action spec instead.
        let single = single_action_spec(spec, ix);
        let report = run_adaptation(&single, from, &to, run);
        if report.outcome.success {
            out.push(CalibratedCost {
                action: ix,
                latency: report.finished_at.saturating_since(sada_simnet::SimTime::ZERO),
                messages: report.messages_sent,
            });
        }
    }
    out
}

/// Rebuilds the action table with measured costs (in microseconds of
/// realization latency), preserving names and effects.
pub fn recost_actions(spec: &AdaptationSpec, measurements: &[CalibratedCost]) -> Vec<Action> {
    spec.actions()
        .iter()
        .enumerate()
        .map(|(ix, a)| {
            let cost = measurements
                .iter()
                .find(|m| m.action == ix)
                .map(|m| m.latency.as_micros().max(1))
                .unwrap_or_else(|| a.cost());
            Action::from_ids(ix as u32, a.name(), a.removes().to_vec(), a.adds().to_vec(), cost)
        })
        .collect()
}

/// `spec` with `action_ix` as its only action (id 0).
fn single_action_spec(spec: &AdaptationSpec, action_ix: usize) -> AdaptationSpec {
    let a = &spec.actions()[action_ix];
    let ixs = |comps: &[CompId]| comps.iter().map(|c| c.index()).collect::<Vec<_>>();
    let drain = spec.drain_actions().contains(&a.id());
    let mut b = SpecBuilder::system_of(spec);
    b.action(a.name(), &ixs(a.removes()), &ixs(a.adds()), a.cost(), drain)
        .expect("an action of a compiled spec compiles over its system");
    b.finish()
}
