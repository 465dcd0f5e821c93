//! Timers are typed, but a stream still renders each firing as a number:
//! `Timer::tag` is the one projection of every kind onto the `u64` of its
//! `net.timer` event. This table pins each kind to the number it was armed
//! under while timers were raw `u64`s, so fingerprints, journals and golden
//! traces do not move. Lease expiry and the global tier's withdrawal are
//! here because few fingerprinted runs fire them.

use sada_fleet::FleetTimer;
use sada_proto::ProtoTimer;
use sada_simnet::Timer;
use sada_video::VideoTimer;

#[test]
fn every_timer_kind_renders_the_tag_it_was_armed_under() {
    type Proto = ProtoTimer;
    type Fleet = ProtoTimer<FleetTimer>;
    type Video = ProtoTimer<VideoTimer>;
    let ladder_key = (4, (1 << 60) + (2 << 12) + (1 << 1) + 1);
    let rows: [(&str, u64, u64); 20] = [
        ("agent safe state", Proto::Safe.tag(), 1),
        ("agent in-action", Proto::Act.tag(), 2),
        ("agent resume", Proto::Resume.tag(), 3),
        ("agent rollback", Proto::Rollback.tag(), 4),
        ("scripted agent rejoin", Proto::Rejoin.tag(), 5),
        ("solo manager request", Proto::Request.tag(), u64::MAX),
        ("solo core, tag = token", Proto::Core { tag: 9, session: 0, token: 9 }.tag(), 9),
        ("session core, drawn tag", Proto::Core { tag: 17, session: 3, token: 9 }.tag(), 17),
        ("ladder, drawn tag", Proto::Ladder { tag: 23, key: ladder_key }.tag(), 23),
        ("a fleet agent's safe state", Fleet::Safe.tag(), 1),
        ("fleet submit", Fleet::App(FleetTimer::Submit(5)).tag(), (1 << 62) + 5),
        ("fleet cancel", Fleet::App(FleetTimer::Cancel(5)).tag(), (1 << 63) + 5),
        ("global submit", Fleet::App(FleetTimer::GlobalSubmit(2)).tag(), (1 << 61) + 2),
        ("global cancel", Fleet::App(FleetTimer::GlobalCancel(2)).tag(), (3 << 60) + 2),
        (
            "region lease expiry",
            Fleet::App(FleetTimer::Lease { slot: 7, session: 11 }).tag(),
            (1 << 61) + 7,
        ),
        ("video frame", Video::App(VideoTimer::Frame).tag(), 100),
        ("video drain fallback", Video::App(VideoTimer::Drain).tag(), 101),
        ("video loss report", Video::App(VideoTimer::Report).tag(), 102),
        ("video agent rejoin", Video::App(VideoTimer::Rejoin).tag(), 103),
        ("video manager request", Video::Request.tag(), u64::MAX),
    ];
    for (kind, rendered, armed) in rows {
        assert_eq!(rendered, armed, "{kind} renders {rendered:#x}, was armed under {armed:#x}");
    }
}
