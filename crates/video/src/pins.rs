//! Pins of the runs whose agents are the video server and clients: the
//! default safe run, the three crash-recovery runs of
//! `tests/crash_recovery.rs` and the FEC scenario.
//!
//! Each pin holds the run's whole report (every field, the manager's
//! journal included, through its `Debug` text) and its event stream. The
//! stream is pinned twice: as published, and with the lines of each virtual
//! instant sorted. The second is equal when only the order of events inside
//! one instant moved.

use std::cell::RefCell;
use std::rc::Rc;

use sada_obs::{encode_event, fingerprint_jsonl, fnv1a, Bus, Fnv1a, RingSink};
use sada_simnet::{ActorId, FaultPlan, SimTime};

use crate::fec_scenario::{run_fec_on, FecScenarioConfig};
use crate::scenario::{run_video_scenario, ScenarioConfig, Strategy, VideoReport};

#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// Events published.
    events: usize,
    /// FNV-1a of the JSONL stream as published.
    stream: u64,
    /// FNV-1a of the stream with each instant's lines sorted.
    per_instant: u64,
    /// FNV-1a of the report's `Debug` text.
    report: u64,
}

/// Runs `run` with a ring on its bus and pins what it published and
/// returned.
fn pin<R: std::fmt::Debug>(run: impl FnOnce(Bus) -> R) -> (R, Pin) {
    let bus = Bus::new();
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 20)));
    bus.attach(&ring);
    let report = run(bus);
    let events = ring.borrow().events();
    assert_eq!(ring.borrow().total_seen(), events.len() as u64, "the ring kept every event");
    let mut per_instant = Fnv1a::new();
    for instant in events.chunk_by(|a, b| a.at == b.at) {
        let mut lines: Vec<String> = instant.iter().map(encode_event).collect();
        lines.sort_unstable();
        for line in &lines {
            per_instant = per_instant.write(line).write("\n");
        }
    }
    let pin = Pin {
        events: events.len(),
        stream: fingerprint_jsonl(&events, None),
        per_instant: per_instant.finish(),
        report: fnv1a(format!("{report:?}")),
    };
    (report, pin)
}

fn video(faults: FaultPlan) -> (VideoReport, Pin) {
    pin(|bus| {
        run_video_scenario(
            &ScenarioConfig { faults, bus, ..ScenarioConfig::default() },
            Strategy::Safe,
        )
    })
}

const HANDHELD: ActorId = ActorId::from_index(1);
const MANAGER: ActorId = ActorId::from_index(3);

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

#[test]
fn default_safe_run_is_pinned() {
    let (report, got) = video(FaultPlan::new());
    assert_eq!((report.client_rejoins, report.manager_journal.len()), ((0, 0), 18));
    assert_eq!(
        got,
        Pin {
            events: 3054,
            stream: 0x593a882d06155e9a,
            per_instant: 0x36d1e3730b63f4ec,
            report: 0x9a8cc029e41cb036,
        }
    );
}

#[test]
fn manager_crash_during_rollback_is_pinned() {
    let faults = FaultPlan::new()
        .partition_window(MANAGER, HANDHELD, ms(400), ms(6_000))
        .crash(MANAGER, ms(4_000))
        .restart(MANAGER, ms(4_150));
    let (report, got) = video(faults);
    assert_eq!((report.client_rejoins, report.manager_journal.len()), ((0, 0), 21));
    assert_eq!(
        got,
        Pin {
            events: 3120,
            stream: 0x7c79bb5c8f9d4883,
            per_instant: 0x3e94291b9ef756eb,
            report: 0x437ab5b62249199a,
        }
    );
}

#[test]
fn solo_commit_outrunning_a_rollback_is_pinned() {
    let faults = FaultPlan::new()
        .partition_window(HANDHELD, MANAGER, ms(400), ms(6_000))
        .crash(MANAGER, ms(4_000))
        .restart(MANAGER, ms(4_150));
    let (report, got) = video(faults);
    assert_eq!((report.client_rejoins, report.manager_journal.len()), ((0, 0), 18));
    assert_eq!(
        got,
        Pin {
            events: 3152,
            stream: 0xacce3e43b469bf0c,
            per_instant: 0x90bbbdae7f449620,
            report: 0xd7ef5f710df4b9d3,
        }
    );
}

#[test]
fn handheld_crash_is_pinned() {
    let faults = FaultPlan::new().crash(HANDHELD, ms(520)).restart(HANDHELD, ms(690));
    let (report, got) = video(faults);
    assert_eq!((report.client_rejoins, report.manager_journal.len()), ((13, 0), 18));
    assert_eq!(
        got,
        Pin {
            events: 3110,
            stream: 0x2d460ae5e2d1be59,
            per_instant: 0x541c558fb357a4d7,
            report: 0x792024e6116d8049,
        }
    );
}

#[test]
fn fec_scenario_is_pinned() {
    let (report, got) = pin(|bus| run_fec_on(&FecScenarioConfig::default(), bus));
    assert_eq!(report.recovered_packets, 46);
    assert_eq!(
        got,
        Pin {
            events: 6508,
            stream: 0x17210de40adf6e06,
            per_instant: 0x9bc6b2ee5b7aac50,
            report: 0x1703351f52702c59,
        }
    );
}
