//! Hierarchical (spanning-tree) coordination.
//!
//! Section 4: "Communication channels can be implemented to best match the
//! communication patterns of the particular system. For example, both Arora
//! and Kulkarni have used a spanning tree, which is well suited to
//! components organized hierarchically. In contrast, in a group
//! communication system, multicast may be a better mechanism."
//!
//! [`RelayActor`] is a transparent protocol forwarder: the manager
//! addresses it instead of a distant agent, and it shuttles protocol
//! traffic up and down one tree edge. Chaining relays yields arbitrary
//! spanning trees; the manager and agent state machines are unchanged —
//! their timeouts simply absorb the extra hop latency, which the bench
//! harness quantifies.

use sada_simnet::{Actor, ActorId, Context};

use crate::messages::Wire;

/// Forwards protocol messages between an upstream node (toward the
/// manager) and a downstream node (toward the agent). Application traffic
/// is not relayed — data takes the normal network path.
pub struct RelayActor {
    up: ActorId,
    down: ActorId,
    /// Messages forwarded downstream (manager → agent direction).
    pub forwarded_down: u64,
    /// Messages forwarded upstream (agent → manager direction).
    pub forwarded_up: u64,
}

impl RelayActor {
    /// Creates a relay between `up` (manager side) and `down` (agent side).
    pub fn new(up: ActorId, down: ActorId) -> Self {
        RelayActor { up, down, forwarded_down: 0, forwarded_up: 0 }
    }
}

impl<M: Clone + 'static, T> Actor<Wire<M>, T> for RelayActor {
    fn on_message(&mut self, ctx: &mut Context<'_, Wire<M>, T>, from: ActorId, msg: Wire<M>) {
        if !matches!(msg, Wire::Proto { .. }) {
            return;
        }
        if from == self.up {
            self.forwarded_down += 1;
            ctx.send(self.down, msg);
        } else if from == self.down {
            self.forwarded_up += 1;
            ctx.send(self.up, msg);
        }
        // Traffic from unrelated nodes is dropped: a relay only serves its
        // tree edge.
    }
}
