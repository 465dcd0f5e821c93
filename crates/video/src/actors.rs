//! The Figure 3 processes as simulated actors: the video server and the two
//! clients, each embedding an adaptation agent.

use std::collections::HashMap;

use sada_expr::{CompId, Universe};
use sada_meta::{FilterChain, Packet};
use sada_obs::Bus;
use sada_proto::ProtoTimer::App;
use sada_proto::{
    AgentCore, AgentEffect, AgentEvent, AgentHost, LocalAction, ProtoTimer, StepId, Uplink, Wire,
};
use sada_simnet::{Actor, ActorId, Context, GroupId, SimDuration, SimTime, Timer, TimerId};

use crate::audit_log::AuditShared;
use crate::catalog::{apply_local_action, designated_decoder, make_filter};
use crate::frame::{fragment, FrameSource, PlayerSink, PlayerStats};

/// Out-of-band control used by the baseline adaptation strategies
/// (Section 6 comparisons); the safe protocol never sends these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlMsg {
    /// Naive hot-swap: apply the change immediately, mid-stream, with no
    /// coordination (the strategy the paper's safety conditions forbid).
    NaiveSwap {
        /// Components to remove.
        removes: Vec<CompId>,
        /// Components to add.
        adds: Vec<CompId>,
    },
    /// Kramer–Magee-style passivation: stop all activity.
    Passivate,
    /// Apply a change while passivated.
    SwapNow {
        /// Components to remove.
        removes: Vec<CompId>,
        /// Components to add.
        adds: Vec<CompId>,
    },
    /// Resume activity after passivation.
    Activate,
}

/// Application traffic of the video system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppMsg {
    /// A video packet plus per-client audit cookies `(client_ix, cid,
    /// designated decoder)` — instrumentation only, invisible to filters.
    Data {
        /// The packet as it left the server's send chain.
        pkt: Packet,
        /// Audit cookies, one per client that can currently decode it.
        audits: Vec<(u32, u64, CompId)>,
    },
    /// Drain marker: everything the server sent before this point has been
    /// flushed onto the wire (FIFO links make reception of the mark imply
    /// reception of all earlier packets) — the Section 3.2 global safe
    /// condition for encoder/decoder compound actions.
    DrainMark {
        /// The adaptation step the drain belongs to.
        step: StepId,
    },
    /// Baseline control (never used by the safe protocol).
    Ctl(CtlMsg),
    /// Periodic client telemetry for the decision-making monitor:
    /// `received` data packets out of `highest_seq + 1` expected.
    LossReport {
        /// Reporting client index.
        client: u32,
        /// Data packets received so far.
        received: u64,
        /// Highest data sequence number observed.
        highest_seq: u64,
    },
    /// The monitor's decision: start the planned adaptation now.
    RequestAdaptation,
}

/// The message type of the video world.
pub type VideoWire = Wire<AppMsg>;

/// A video process's own timer kinds: the server's frame clock, a client's
/// drain fallback and loss report, and a video agent's rejoin ladder. The
/// video world's simulator runs them as the [`ProtoTimer::App`] kinds
/// beside the protocol's own (the manager's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoTimer {
    /// The server captures its next frame.
    Frame = 100,
    /// A client stops waiting for the drain mark.
    Drain = 101,
    /// A client reports its loss telemetry.
    Report = 102,
    /// A video agent's rejoin announcement is due.
    Rejoin = 103,
}

impl Timer for VideoTimer {
    fn tag(&self) -> u64 {
        *self as u64
    }
}

/// The callback context of a video process.
type Ctx<'a> = Context<'a, VideoWire, ProtoTimer<VideoTimer>>;

/// The change a baseline strategy applies, outside any planned action.
fn baseline_action(removes: Vec<CompId>, adds: Vec<CompId>) -> LocalAction {
    let action = sada_plan::ActionId(u32::MAX - 1);
    LocalAction { action, removes, adds, needs_global_drain: false }
}

/// Where a video process's agent host reaches: the manager (wired after
/// registration) and the run's bus.
fn uplink(manager: Option<ActorId>, bus: &Bus) -> Uplink<'_, ProtoTimer<VideoTimer>> {
    let manager = manager.expect("manager wired before protocol traffic");
    Uplink { manager, bus, rejoin: App(VideoTimer::Rejoin) }
}

/// Aggregated server-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Frames captured and transmitted.
    pub frames_sent: u64,
    /// Frames skipped because the process was blocked.
    pub(crate) frames_skipped: u64,
    /// Packets put on the wire.
    pub(crate) packets_sent: u64,
    /// Total simulated time spent blocked (the paper's "system blocking
    /// time" cost factor).
    pub blocked: SimDuration,
}

/// The video server: camera → fragmenter → send MetaSocket → multicast,
/// with an embedded adaptation agent controlling the send chain.
pub struct ServerActor {
    u: Universe,
    host: AgentHost,
    manager: Option<ActorId>,
    group: GroupId,
    client_decoders: Vec<Vec<&'static str>>,
    /// The send chain (E1 initially).
    pub chain: FilterChain,
    source: FrameSource,
    frame_period: SimDuration,
    mtu: usize,
    stream_end: SimTime,
    next_seq: u64,
    blocked: bool,
    blocked_since: Option<SimTime>,
    /// Counters.
    pub stats: ServerStats,
    audit: AuditShared,
}

impl ServerActor {
    /// Creates the server with `E1` installed.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        u: Universe,
        group: GroupId,
        client_decoders: Vec<Vec<&'static str>>,
        seed: u64,
        frame_size: usize,
        frame_period: SimDuration,
        mtu: usize,
        stream_end: SimTime,
        audit: AuditShared,
    ) -> Self {
        let mut chain = FilterChain::new();
        chain.push_back("E1", make_filter("E1")).expect("fresh chain");
        ServerActor {
            u,
            host: AgentHost::default(),
            manager: None,
            group,
            client_decoders,
            chain,
            source: FrameSource::new(seed, frame_size),
            frame_period,
            mtu,
            stream_end,
            next_seq: 0,
            blocked: false,
            blocked_since: None,
            stats: ServerStats::default(),
            audit,
        }
    }

    /// Wires the manager's actor id (set after the manager is registered).
    pub fn set_manager(&mut self, manager: ActorId) {
        self.manager = Some(manager);
    }

    fn set_blocked(&mut self, now: SimTime, blocked: bool) {
        if blocked && !self.blocked {
            self.blocked_since = Some(now);
        }
        if !blocked && self.blocked {
            if let Some(since) = self.blocked_since.take() {
                self.stats.blocked += now - since;
            }
        }
        self.blocked = blocked;
    }

    fn emit_frame(&mut self, ctx: &mut Ctx<'_>) {
        let (no, frame) = self.source.next_frame();
        self.stats.frames_sent += 1;
        let (pkts, next) = fragment(0, self.next_seq, no, &frame, self.mtu);
        self.next_seq = next;
        for pkt in pkts {
            for out in self.chain.push(pkt) {
                let mut audits = Vec::new();
                if let Some(tag) = out.top_tag() {
                    let cfg = self.audit.config();
                    for (ix, decs) in self.client_decoders.iter().enumerate() {
                        if let Some(comp) = designated_decoder(&self.u, &cfg, decs, tag) {
                            let cid = ((ix as u64 + 1) << 48) | out.seq;
                            self.audit.segment_start(ctx.now(), cid, comp);
                            audits.push((ix as u32, cid, comp));
                        }
                    }
                }
                self.stats.packets_sent += 1;
                ctx.multicast(self.group, Wire::App(AppMsg::Data { pkt: out, audits }));
            }
        }
    }

    fn apply_structural(&mut self, now: SimTime, la: &LocalAction, label: &str) {
        apply_local_action(&mut self.chain, &self.u, la)
            .unwrap_or_else(|e| panic!("server in-action {label} failed: {e}"));
        self.audit.in_action(now, label, &la.removes, &la.adds);
    }

    /// The server's share of a step, each part done on the spot: it blocks
    /// between packets (its local safe state), drain-marks the stream when
    /// the action needs it, swaps filters and unblocks.
    fn work(
        &mut self,
        ctx: &mut Ctx<'_>,
        core: &AgentCore,
        work: AgentEffect,
    ) -> Option<AgentEvent> {
        let now = ctx.now();
        Some(match work {
            AgentEffect::BeginReset(la) => {
                // Local safe state: we are between packets by construction;
                // stop emitting.
                self.set_blocked(now, true);
                if la.needs_global_drain {
                    // FIFO links: receiving the mark implies having received
                    // every packet sent before it.
                    let step = core.current_step().expect("resetting implies a step");
                    ctx.multicast(self.group, Wire::App(AppMsg::DrainMark { step }));
                }
                AgentEvent::SafeReached
            }
            AgentEffect::DoInAction(la) => {
                self.apply_structural(now, &la, &la.action.to_string());
                AgentEvent::InActionDone
            }
            AgentEffect::DoResume => {
                self.set_blocked(now, false);
                self.audit.snapshot(now);
                AgentEvent::ResumeFinished
            }
            AgentEffect::DoRollback(undo) => {
                if let Some(la) = undo {
                    self.apply_structural(now, &la, &format!("undo {}", la.action));
                }
                self.set_blocked(now, false);
                self.audit.snapshot(now);
                AgentEvent::RollbackFinished
            }
            _ => return None,
        })
    }

    fn handle_ctl(&mut self, ctx: &mut Ctx<'_>, ctl: CtlMsg) {
        match ctl {
            CtlMsg::NaiveSwap { removes, adds } => {
                self.apply_structural(ctx.now(), &baseline_action(removes, adds), "naive-swap");
                // The naive strategy *claims* the system is consistent now.
                self.audit.snapshot(ctx.now());
            }
            CtlMsg::Passivate => self.set_blocked(ctx.now(), true),
            CtlMsg::SwapNow { removes, adds } => {
                self.apply_structural(ctx.now(), &baseline_action(removes, adds), "quiesced-swap");
            }
            CtlMsg::Activate => {
                self.set_blocked(ctx.now(), false);
                self.audit.snapshot(ctx.now());
            }
        }
    }
}

impl Actor<VideoWire, ProtoTimer<VideoTimer>> for ServerActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.frame_period, App(VideoTimer::Frame));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, msg: VideoWire) {
        match msg {
            Wire::Proto { epoch, session, msg } => {
                // The host is lent out while the rest of the process works.
                let (mut host, bus) = (std::mem::take(&mut self.host), self.audit.bus().clone());
                let up = uplink(self.manager, &bus);
                host.on_message(ctx, up, epoch, session, msg, |ctx, core, w| {
                    self.work(ctx, core, w)
                });
                self.host = host;
            }
            Wire::App(AppMsg::Ctl(ctl)) => self.handle_ctl(ctx, ctl),
            Wire::App(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: ProtoTimer<VideoTimer>) {
        if timer != App(VideoTimer::Frame) {
            return;
        }
        if ctx.now() >= self.stream_end {
            return; // stop capturing; pending protocol work continues
        }
        if self.blocked {
            self.stats.frames_skipped += 1;
        } else {
            self.emit_frame(ctx);
        }
        ctx.set_timer(self.frame_period, App(VideoTimer::Frame));
    }
}

/// A video client: receive MetaSocket → reassembly → player, with an
/// embedded adaptation agent controlling the receive chain.
pub struct ClientActor {
    u: Universe,
    pub(crate) host: AgentHost,
    manager: Option<ActorId>,
    client_ix: u32,
    /// The receive chain (D1 on the hand-held, D4 on the laptop initially).
    pub chain: FilterChain,
    /// The player sink.
    pub(crate) player: PlayerSink,
    audit: AuditShared,
    pending_audits: HashMap<u64, (u64, CompId)>,
    resetting_drain: Option<StepId>,
    drain_fallback: Option<TimerId>,
    drain_window: SimDuration,
    blocked_since: Option<SimTime>,
    /// Total simulated time this client's chain spent blocked.
    pub blocked: SimDuration,
    monitor: Option<ActorId>,
    report_period: SimDuration,
    report_until: SimTime,
    /// Data packets received (pre-chain), for loss telemetry.
    pub(crate) data_received: u64,
    /// Highest data sequence number observed.
    pub(crate) highest_seq: u64,
    /// Crash faults suffered (fault-injection instrumentation).
    pub crashes: u64,
    /// Segments adjudicated lost at restart whose packets might still
    /// arrive (instrumentation: suppresses their normal segment-end).
    lost_cids: std::collections::HashSet<u64>,
}

impl ClientActor {
    /// Creates a client whose chain initially holds `initial` components
    /// (in chain order).
    pub fn new(
        u: Universe,
        client_ix: u32,
        initial: &[&str],
        drain_window: SimDuration,
        audit: AuditShared,
    ) -> Self {
        let mut chain = FilterChain::new();
        for name in initial {
            chain.push_back(name, make_filter(name)).expect("fresh chain");
        }
        ClientActor {
            u,
            host: AgentHost::default(),
            manager: None,
            client_ix,
            chain,
            player: PlayerSink::new(),
            audit,
            pending_audits: HashMap::new(),
            resetting_drain: None,
            drain_fallback: None,
            drain_window,
            blocked_since: None,
            blocked: SimDuration::ZERO,
            monitor: None,
            report_period: SimDuration::ZERO,
            report_until: SimTime::ZERO,
            data_received: 0,
            highest_seq: 0,
            crashes: 0,
            lost_cids: std::collections::HashSet::new(),
        }
    }

    /// Enables periodic loss telemetry to a decision-making monitor until
    /// `until` (bounded so a finite stream yields a finite simulation).
    pub(crate) fn with_monitor(
        mut self,
        monitor: ActorId,
        period: SimDuration,
        until: SimTime,
    ) -> Self {
        self.monitor = Some(monitor);
        self.report_period = period;
        self.report_until = until;
        self
    }

    /// Wires the manager's actor id.
    pub fn set_manager(&mut self, manager: ActorId) {
        self.manager = Some(manager);
    }

    /// Player statistics.
    pub fn stats(&self) -> PlayerStats {
        self.player.stats()
    }

    fn note_block(&mut self, now: SimTime) {
        if self.blocked_since.is_none() {
            self.blocked_since = Some(now);
        }
    }

    fn note_unblock(&mut self, now: SimTime) {
        if let Some(since) = self.blocked_since.take() {
            self.blocked += now - since;
        }
    }

    fn deliver(&mut self, now: SimTime, out: Packet) {
        if out.is_clean_plaintext() {
            if let Some((cid, comp)) = self.pending_audits.remove(&out.seq) {
                self.audit.segment_end(now, cid, comp);
            }
        }
        // Corrupted packets keep their segment open: the audit will flag the
        // interrupted transmission.
        self.player.accept(&out);
    }

    fn apply_structural(&mut self, now: SimTime, la: &LocalAction, label: &str) {
        apply_local_action(&mut self.chain, &self.u, la)
            .unwrap_or_else(|e| panic!("client {} in-action {label} failed: {e}", self.client_ix));
        self.audit.in_action(now, label, &la.removes, &la.adds);
    }

    /// The drain completed: block, and hand the safe state to the agent
    /// host, which is lent out while the rest of the process works.
    fn finish_reset(&mut self, ctx: &mut Ctx<'_>) {
        self.resetting_drain = None;
        if let Some(t) = self.drain_fallback.take() {
            ctx.cancel_timer(t);
        }
        self.chain.block();
        self.note_block(ctx.now());
        let (mut host, bus) = (std::mem::take(&mut self.host), self.audit.bus().clone());
        let up = uplink(self.manager, &bus);
        host.drive(ctx, up, AgentEvent::SafeReached, |ctx, core, w| self.work(ctx, core, w));
        self.host = host;
    }

    /// Unblocks the chain, delivering what it buffered.
    fn unblock(&mut self, now: SimTime) {
        let outs = self.chain.unblock();
        self.note_unblock(now);
        for out in outs {
            self.deliver(now, out);
        }
    }

    /// A client's share of a step: it blocks at once, or keeps decoding
    /// until the drain completes; it swaps filters and unblocks on the spot.
    fn work(
        &mut self,
        ctx: &mut Ctx<'_>,
        core: &AgentCore,
        work: AgentEffect,
    ) -> Option<AgentEvent> {
        let now = ctx.now();
        Some(match work {
            AgentEffect::BeginReset(la) if la.needs_global_drain => {
                // Keep decoding until the server's drain mark (or a
                // conservative fallback window) tells us every in-flight
                // packet has been processed.
                self.resetting_drain = core.current_step();
                self.drain_fallback =
                    Some(ctx.set_timer(self.drain_window, App(VideoTimer::Drain)));
                return None;
            }
            AgentEffect::BeginReset(_) => {
                self.chain.block();
                self.note_block(now);
                AgentEvent::SafeReached
            }
            AgentEffect::DoInAction(la) => {
                self.apply_structural(now, &la, &la.action.to_string());
                AgentEvent::InActionDone
            }
            AgentEffect::DoResume => {
                self.unblock(now);
                self.audit.snapshot(now);
                AgentEvent::ResumeFinished
            }
            AgentEffect::DoRollback(undo) => {
                if let Some(la) = undo {
                    self.apply_structural(now, &la, &format!("undo {}", la.action));
                }
                self.resetting_drain = None;
                self.unblock(now);
                self.audit.snapshot(now);
                AgentEvent::RollbackFinished
            }
            _ => return None,
        })
    }

    fn handle_ctl(&mut self, ctx: &mut Ctx<'_>, ctl: CtlMsg) {
        match ctl {
            CtlMsg::NaiveSwap { removes, adds } => {
                self.apply_structural(ctx.now(), &baseline_action(removes, adds), "naive-swap");
                self.audit.snapshot(ctx.now());
            }
            CtlMsg::Passivate => {
                self.chain.block();
                self.note_block(ctx.now());
            }
            CtlMsg::SwapNow { removes, adds } => {
                self.apply_structural(ctx.now(), &baseline_action(removes, adds), "quiesced-swap");
            }
            CtlMsg::Activate => {
                self.unblock(ctx.now());
                self.audit.snapshot(ctx.now());
            }
        }
    }
}

impl Actor<VideoWire, ProtoTimer<VideoTimer>> for ClientActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.monitor.is_some() {
            ctx.set_timer(self.report_period, App(VideoTimer::Report));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, msg: VideoWire) {
        match msg {
            Wire::Proto { epoch, session, msg } => {
                let (mut host, bus) = (std::mem::take(&mut self.host), self.audit.bus().clone());
                let up = uplink(self.manager, &bus);
                host.on_message(ctx, up, epoch, session, msg, |ctx, core, w| {
                    self.work(ctx, core, w)
                });
                self.host = host;
            }
            Wire::App(AppMsg::Data { pkt, audits }) => {
                if pkt.top_tag() != Some(sada_meta::tags::FEC) {
                    self.data_received += 1;
                    self.highest_seq = self.highest_seq.max(pkt.seq);
                }
                if let Some(&(_, cid, comp)) =
                    audits.iter().find(|(ix, _, _)| *ix == self.client_ix)
                {
                    if !self.lost_cids.contains(&cid) {
                        self.pending_audits.insert(pkt.seq, (cid, comp));
                    }
                }
                let outs = self.chain.push(pkt);
                for out in outs {
                    self.deliver(ctx.now(), out);
                }
            }
            Wire::App(AppMsg::DrainMark { step }) => {
                if self.resetting_drain == Some(step) {
                    self.finish_reset(ctx);
                }
            }
            Wire::App(AppMsg::Ctl(ctl)) => self.handle_ctl(ctx, ctl),
            Wire::App(AppMsg::LossReport { .. }) | Wire::App(AppMsg::RequestAdaptation) => {}
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        self.crashes += 1;
        // The process image is volatile. Packets received but not yet
        // delivered (including everything buffered in a blocked chain) die
        // with it; their critical segments can never complete, so the
        // instrumentation adjudicates them lost to the fault.
        let mut pending: Vec<_> = self.pending_audits.drain().collect();
        pending.sort_unstable();
        for (_, (cid, comp)) in pending {
            self.audit.segment_lost(now, cid, comp);
        }
        if self.chain.is_blocked() {
            drop(self.chain.unblock());
        }
        // An in-action that never committed (no resume yet) evaporates with
        // the process: the restarted image is rebuilt from the durable
        // (last-committed) configuration. Model that as an inverse
        // in-action so the shared configuration view stays truthful. All of
        // this client's open segments were closed above, so the inverse
        // cannot interrupt anything.
        if let Some(la) = self.host.core().uncommitted_action() {
            let label = format!("crash c{}: revert {}", self.client_ix, la.action);
            self.apply_structural(now, &la.inverse(), &label);
        }
        self.resetting_drain = None;
        self.drain_fallback = None;
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // Segments opened for us while we were down belong to packets the
        // outage destroyed; adjudicate them lost *now*, before any re-run
        // in-action could falsely count them as interrupted.
        for (cid, _) in self.audit.adjudicate_lost(ctx.now(), u64::from(self.client_ix) + 1) {
            self.lost_cids.insert(cid);
        }
        // The outage counted as blocked time; playback resumes now.
        self.note_unblock(ctx.now());
        if self.monitor.is_some() && ctx.now() < self.report_until {
            ctx.set_timer(self.report_period, App(VideoTimer::Report));
        }
        self.host.restart(ctx, uplink(self.manager, self.audit.bus()));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: ProtoTimer<VideoTimer>) {
        match timer {
            App(VideoTimer::Rejoin) => {
                self.host.rejoin_due(ctx, uplink(self.manager, self.audit.bus()))
            }
            App(VideoTimer::Drain) if self.resetting_drain.is_some() => {
                self.drain_fallback = None;
                self.finish_reset(ctx);
            }
            App(VideoTimer::Report) => {
                if let Some(monitor) = self.monitor {
                    ctx.send(
                        monitor,
                        Wire::App(AppMsg::LossReport {
                            client: self.client_ix,
                            received: self.data_received,
                            highest_seq: self.highest_seq,
                        }),
                    );
                    if ctx.now() < self.report_until {
                        ctx.set_timer(self.report_period, App(VideoTimer::Report));
                    }
                }
            }
            _ => {}
        }
    }
}
