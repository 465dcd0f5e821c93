//! Bandwidth adaptation: the wireless link's capacity drops below the
//! uncompressed stream's bitrate; the safe adaptation process inserts RLE
//! compression (compressor on the server *before* the cipher, decompressors
//! on the clients *after* it), and throughput recovers. Exercises the
//! simulator's bandwidth/queueing model end to end.

use std::collections::HashSet;

use sada_core::AdaptationSpec;
use sada_expr::{InvariantSet, Universe};
use sada_model::SystemModel;
use sada_plan::Action;
use sada_proto::{ManagerActor, ProtoTiming, Wire};
use sada_simnet::{ActorId, LinkConfig, SimDuration, SimTime, Simulator};
use sada_video::{AppMsg, AuditShared, ClientActor, ServerActor, VideoWire};

fn compression_spec() -> (AdaptationSpec, sada_expr::Config, sada_expr::Config) {
    let mut u = Universe::new();
    for n in ["E1", "E2", "D1", "D2", "D3", "D4", "D5", "CE", "CDH", "CDL"] {
        u.intern(n);
    }
    let invariants = InvariantSet::parse(
        &[
            "one_of(D1, D2, D3)",
            "one_of(E1, E2)",
            "E1 => (D1 | D2) & D4",
            "E2 => (D3 | D2) & D5",
            // Compressed packets are garbage to a client without the
            // decompressor.
            "CE => CDH & CDL",
        ],
        &mut u,
    )
    .unwrap();
    let c = |names: &[&str]| u.config_of(names);
    let actions = vec![
        Action::insert(0, "+CDH", &c(&["CDH"]), 10),
        Action::insert(1, "+CDL", &c(&["CDL"]), 10),
        Action::insert(2, "+CE", &c(&["CE"]), 10),
        Action::remove(3, "-CE", &c(&["CE"]), 10),
        Action::remove(4, "-CDH", &c(&["CDH"]), 10),
        Action::remove(5, "-CDL", &c(&["CDL"]), 10),
    ];
    let mut model = SystemModel::new();
    let server = model.add_process();
    let handheld = model.add_process();
    let laptop = model.add_process();
    model.place_all(
        &u,
        &[
            ("E1", server),
            ("E2", server),
            ("CE", server),
            ("D1", handheld),
            ("D2", handheld),
            ("D3", handheld),
            ("CDH", handheld),
            ("D4", laptop),
            ("D5", laptop),
            ("CDL", laptop),
        ],
    );
    let source = u.config_of(&["E1", "D1", "D4"]);
    let target = u.config_of(&["E1", "D1", "D4", "CE", "CDH", "CDL"]);
    let spec = AdaptationSpec::new(u, invariants, actions, model, HashSet::new());
    (spec, source, target)
}

struct World {
    sim: Simulator<VideoWire>,
    s: ActorId,
    h: ActorId,
    l: ActorId,
}

/// Builds the congested world; `adapt_at = None` is the no-adaptation
/// control.
fn build(adapt_at: Option<SimDuration>, stream_end: SimTime) -> World {
    let (spec, source, target) = compression_spec();
    let bus = sada_obs::Bus::new();
    let audit = AuditShared::new(&bus, source.clone());
    let mut sim: Simulator<VideoWire> = Simulator::new(33);
    sim.set_bus(bus);
    sim.set_default_link(LinkConfig::reliable(SimDuration::from_millis(5)));
    // Wire-level message sizes: video payload bytes plus a fixed header;
    // control traffic is small.
    sim.set_message_sizer(Box::new(|m: &VideoWire| match m {
        Wire::App(AppMsg::Data { pkt, .. }) => pkt.payload.len() + 32,
        _ => 64,
    }));
    let u = spec.universe().clone();
    let group =
        sim.create_group(&[ActorId::from_index(0), ActorId::from_index(1), ActorId::from_index(2)]);
    let s = sim.add_actor(
        "video-server",
        ServerActor::new(
            u.clone(),
            group,
            vec![vec!["D1", "D2", "D3"], vec!["D4", "D5"]],
            99,
            3_000,
            SimDuration::from_millis(33),
            512,
            stream_end,
            audit.clone(),
        ),
    );
    let h = sim.add_actor(
        "handheld-client",
        ClientActor::new(u.clone(), 0, &["D1"], SimDuration::from_millis(50), audit.clone()),
    );
    let l = sim.add_actor(
        "laptop-client",
        ClientActor::new(u.clone(), 1, &["D4"], SimDuration::from_millis(50), audit.clone()),
    );
    if let Some(at) = adapt_at {
        let manager = sim.add_actor(
            "adaptation-manager",
            ManagerActor::<AppMsg>::new(
                ProtoTiming::default(),
                Box::new(spec.runtime_planner()),
                vec![s, h, l],
                source,
                target,
            )
            .with_request_delay(at),
        );
        sim.actor_mut::<ServerActor>(s).unwrap().set_manager(manager);
        sim.actor_mut::<ClientActor>(h).unwrap().set_manager(manager);
        sim.actor_mut::<ClientActor>(l).unwrap().set_manager(manager);
    }
    // The wireless hop is capacity-limited below the uncompressed bitrate:
    // ~3.8 KB of ciphertext per frame at 30 fps ≈ 115 KB/s, link = 70 KB/s.
    for &client in &[h, l] {
        let link = LinkConfig::reliable(SimDuration::from_millis(5)).with_bandwidth(70_000);
        sim.set_link(s, client, link);
    }
    World { sim, s, h, l }
}

/// Frames displayed on the handheld by `t` (a progress probe).
fn displayed_by(w: &mut World, t: SimTime) -> u64 {
    w.sim.run_until(t);
    w.sim.actor::<ClientActor>(w.h).unwrap().stats().frames_displayed
}

#[test]
fn compression_insertion_relieves_congestion() {
    let stream_end = SimTime::from_millis(4_000);
    let probe = SimTime::from_millis(3_900);

    // Control: congested for the whole run.
    let mut control = build(None, stream_end);
    let control_displayed = displayed_by(&mut control, probe);

    // Adapted: compression inserted at t = 1 s.
    let mut adapted = build(Some(SimDuration::from_millis(1_000)), stream_end);
    let adapted_displayed = displayed_by(&mut adapted, probe);

    let sent = adapted.sim.actor::<ServerActor>(adapted.s).unwrap().stats.frames_sent;
    assert!(sent > 100, "the stream ran");
    assert!(
        adapted_displayed > control_displayed + 10,
        "compression must relieve the backlog: control={control_displayed}, adapted={adapted_displayed} of {sent}"
    );

    // The adaptation itself succeeded with the right ordering and no
    // corruption on either client.
    adapted.sim.run();
    let mgr = adapted.sim.actor::<ManagerActor<AppMsg>>(ActorId::from_index(3)).unwrap();
    let outcome = mgr.outcome.clone().expect("resolved");
    assert!(outcome.success);
    assert_eq!(outcome.steps_committed, 3, "+CDH, +CDL, +CE in dependency order");
    for &client in &[adapted.h, adapted.l] {
        let cstats = adapted.sim.actor::<ClientActor>(client).unwrap().stats();
        assert_eq!(cstats.corrupted_packets, 0, "decompressors in place before compressor");
    }
    // Compression really ran: the server's compressor saved bytes.
    let server = adapted.sim.actor::<ServerActor>(adapted.s).unwrap();
    assert!(server.chain.has("CE"));
}

#[test]
fn compression_plan_orders_decompressors_first() {
    let (spec, source, target) = compression_spec();
    let map = spec.minimum_adaptation_path(&source, &target).unwrap();
    let names: Vec<&str> =
        map.action_ids().iter().map(|a| spec.actions()[a.index()].name()).collect();
    assert_eq!(names.last(), Some(&"+CE"), "compressor only after both decompressors");
}
