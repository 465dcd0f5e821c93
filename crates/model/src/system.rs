//! Components, processes, and communication channels.

use std::fmt;

use sada_expr::{CompId, Config, Universe};

/// Identifies an operating-system process hosting components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Dense index of the process.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// A directed communication channel between two components (Section 3: "a
/// two-way communication between two components is represented with two
/// channels with traffic traversing in opposite directions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// The sending component.
    pub from: CompId,
    /// The receiving component.
    pub to: CompId,
}

/// The static structure of a component-based system: which process hosts
/// each component and which directed channels connect components.
///
/// The adaptation runtime uses this to decide which *processes* must
/// participate in an adaptive action (those hosting a touched component).
#[derive(Debug, Clone, Default)]
pub struct SystemModel {
    processes: u32,
    /// Dense component index → hosting process, [`UNPLACED`] where none.
    host: Vec<u32>,
    channels: Vec<Channel>,
}

/// `host` entry of a component no process hosts (never a real process id:
/// `add_process` refuses to hand it out).
const UNPLACED: u32 = u32::MAX;

impl SystemModel {
    /// An empty system.
    pub fn new() -> Self {
        SystemModel::default()
    }

    /// An empty system with its placement table pre-sized — compiling a
    /// 100k-component world does one allocation instead of regrowing
    /// through every `place`.
    pub fn with_capacity(components: usize) -> Self {
        SystemModel { processes: 0, host: Vec::with_capacity(components), channels: Vec::new() }
    }

    /// Registers a process and returns its id.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` processes.
    pub fn add_process(&mut self) -> ProcessId {
        let id = self.processes;
        assert!(id != UNPLACED, "process ids stay below u32::MAX");
        self.processes += 1;
        ProcessId(id)
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.processes as usize
    }

    /// Assigns component `c` to process `p` (replacing any prior host).
    pub fn place(&mut self, c: CompId, p: ProcessId) {
        assert!(p.index() < self.process_count(), "unknown process {p}");
        if self.host.len() <= c.index() {
            self.host.resize(c.index() + 1, UNPLACED);
        }
        self.host[c.index()] = p.0;
    }

    /// The process hosting `c`, if placed.
    pub fn host_of(&self, c: CompId) -> Option<ProcessId> {
        self.host.get(c.index()).copied().filter(|&p| p != UNPLACED).map(ProcessId)
    }

    /// Adds a directed channel.
    pub fn connect(&mut self, from: CompId, to: CompId) {
        self.channels.push(Channel { from, to });
    }

    /// All channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The processes hosting any component of `comps` — the participant set
    /// of an adaptive action that touches `comps`.
    ///
    /// # Panics
    ///
    /// Panics if a touched component is unplaced: an adaptation cannot
    /// involve a component the deployment never assigned to a process.
    pub fn processes_hosting(&self, comps: &Config) -> Vec<ProcessId> {
        let mut out: Vec<ProcessId> = comps
            .iter()
            .map(|c| {
                self.host_of(c).unwrap_or_else(|| {
                    panic!("component c{} is not placed on any process", c.index())
                })
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Convenience used by examples: place every named component.
    ///
    /// # Panics
    ///
    /// Panics if a name is unknown to `u`.
    pub fn place_all(&mut self, u: &Universe, placements: &[(&str, ProcessId)]) {
        for (name, p) in placements {
            let c = u.id(name).unwrap_or_else(|| panic!("unknown component {name:?}"));
            self.place(c, *p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Universe, SystemModel, ProcessId, ProcessId) {
        let mut u = Universe::new();
        for n in ["E1", "D1", "D4"] {
            u.intern(n);
        }
        let mut m = SystemModel::new();
        let server = m.add_process();
        let client = m.add_process();
        m.place_all(&u, &[("E1", server), ("D1", client), ("D4", client)]);
        (u, m, server, client)
    }

    #[test]
    fn placement() {
        let (u, m, server, client) = setup();
        assert_eq!(m.process_count(), 2);
        assert_eq!(m.host_of(u.id("E1").unwrap()), Some(server));
        assert_eq!(m.host_of(u.id("D1").unwrap()), Some(client));
    }

    #[test]
    fn participant_processes_dedupe_and_sort() {
        let (u, m, server, client) = setup();
        let touched = u.config_of(&["E1", "D1", "D4"]);
        assert_eq!(m.processes_hosting(&touched), vec![server, client]);
    }

    #[test]
    #[should_panic(expected = "not placed")]
    fn unplaced_participant_panics() {
        let (mut u, m, _s, _c) = setup();
        let ghost = u.intern("GHOST");
        let mut cfg = sada_expr::Config::empty(u.len());
        cfg.insert(ghost);
        let _ = m.processes_hosting(&cfg);
    }
}
