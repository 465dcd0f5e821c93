//! The decision-making component (one of the paper's four tasks of dynamic
//! adaptation, Section 1): a monitor that watches client telemetry and
//! decides *when* the system should adapt. Here: a loss-rate trigger that
//! tells the adaptation manager to insert forward error correction when
//! packet delivery degrades.

use sada_simnet::{Actor, ActorId, Context, SimTime};

use crate::actors::{AppMsg, VideoWire};
use sada_proto::Wire;

/// Watches [`AppMsg::LossReport`] telemetry; when any client's observed
/// loss ratio exceeds `threshold` (with a minimum sample size), sends
/// [`AppMsg::RequestAdaptation`] to the manager exactly once.
pub(crate) struct LossMonitorActor {
    manager: ActorId,
    threshold: f64,
    min_samples: u64,
    /// When the trigger fired, if it did.
    pub(crate) fired_at: Option<SimTime>,
    /// Latest loss ratio per client (diagnostics).
    pub(crate) last_loss: Vec<(u32, f64)>,
}

impl LossMonitorActor {
    /// Creates a monitor reporting to `manager`. `threshold` is the loss
    /// ratio in `[0, 1]` above which adaptation is requested; reports with
    /// fewer than `min_samples` expected packets are ignored (startup
    /// noise).
    pub(crate) fn new(manager: ActorId, threshold: f64, min_samples: u64) -> Self {
        assert!((0.0..1.0).contains(&threshold), "threshold must be in [0,1)");
        LossMonitorActor { manager, threshold, min_samples, fired_at: None, last_loss: Vec::new() }
    }
}

impl<T> Actor<VideoWire, T> for LossMonitorActor {
    fn on_message(&mut self, ctx: &mut Context<'_, VideoWire, T>, _from: ActorId, msg: VideoWire) {
        let Wire::App(AppMsg::LossReport { client, received, highest_seq }) = msg else {
            return;
        };
        let expected = highest_seq + 1;
        if expected < self.min_samples {
            return;
        }
        // `highest_seq` is itself a received packet, so `received >= 1` and
        // the ratio is conservative (trailing losses are invisible until a
        // later packet arrives).
        let loss = 1.0 - (received as f64 / expected as f64);
        match self.last_loss.iter_mut().find(|(c, _)| *c == client) {
            Some(slot) => slot.1 = loss,
            None => self.last_loss.push((client, loss)),
        }
        if self.fired_at.is_none() && loss > self.threshold {
            self.fired_at = Some(ctx.now());
            ctx.send(self.manager, Wire::App(AppMsg::RequestAdaptation));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sada_simnet::{SimDuration, Simulator};

    /// Records what the "manager" receives.
    #[derive(Default)]
    struct Sink {
        requests: u32,
    }
    impl Actor<VideoWire> for Sink {
        fn on_message(
            &mut self,
            _ctx: &mut Context<'_, VideoWire>,
            _from: ActorId,
            msg: VideoWire,
        ) {
            if matches!(msg, Wire::App(AppMsg::RequestAdaptation)) {
                self.requests += 1;
            }
        }
    }

    fn report(client: u32, received: u64, highest_seq: u64) -> VideoWire {
        Wire::App(AppMsg::LossReport { client, received, highest_seq })
    }

    #[test]
    fn fires_once_above_threshold() {
        let mut sim: Simulator<VideoWire> = Simulator::new(0);
        let sink = sim.add_actor("sink", Sink::default());
        let mon = sim.add_actor("monitor", LossMonitorActor::new(sink, 0.10, 20));
        // Healthy, then degraded, then degraded again.
        sim.inject(sink, mon, report(0, 99, 99), SimDuration::from_millis(1));
        sim.inject(sink, mon, report(0, 80, 99), SimDuration::from_millis(2));
        sim.inject(sink, mon, report(1, 70, 99), SimDuration::from_millis(3));
        sim.run();
        assert_eq!(sim.actor::<Sink>(sink).unwrap().requests, 1, "exactly one request");
        let m = sim.actor::<LossMonitorActor>(mon).unwrap();
        assert!(m.fired_at.is_some());
        assert_eq!(m.last_loss.len(), 2);
    }

    #[test]
    fn ignores_small_samples_and_healthy_streams() {
        let mut sim: Simulator<VideoWire> = Simulator::new(0);
        let sink = sim.add_actor("sink", Sink::default());
        let mon = sim.add_actor("monitor", LossMonitorActor::new(sink, 0.10, 50));
        sim.inject(sink, mon, report(0, 1, 9), SimDuration::from_millis(1)); // tiny sample
        sim.inject(sink, mon, report(0, 97, 99), SimDuration::from_millis(2)); // 3% loss
        sim.run();
        assert_eq!(sim.actor::<Sink>(sink).unwrap().requests, 0);
        assert!(sim.actor::<LossMonitorActor>(mon).unwrap().fired_at.is_none());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_bad_threshold() {
        let _ = LossMonitorActor::new(ActorId::from_index(0), 1.5, 1);
    }
}
