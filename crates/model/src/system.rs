//! Components, processes, and communication channels.

use std::collections::{HashMap, HashSet, VecDeque};
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
/// participate in an adaptive action (those hosting a touched component)
/// and whether an action's communication is local or global.
#[derive(Debug, Clone, Default)]
pub struct SystemModel {
    /// Every process name back to back; process `p`'s ends at
    /// `process_name_ends[p]` and starts where the one before it ends.
    process_names: String,
    process_name_ends: Vec<u32>,
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

    /// An empty system with its process and placement tables pre-sized —
    /// compiling a 100k-process world does one allocation per table instead
    /// of regrowing through every `add_process`/`place` (the name text,
    /// whose length nobody knows up front, still grows by doubling).
    pub fn with_capacity(processes: usize, components: usize) -> Self {
        SystemModel {
            process_names: String::new(),
            process_name_ends: Vec::with_capacity(processes),
            host: Vec::with_capacity(components),
            channels: Vec::new(),
        }
    }

    /// Registers a process and returns its id.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` processes or 4 GiB of names.
    pub fn add_process(&mut self, name: &str) -> ProcessId {
        let id = u32::try_from(self.process_name_ends.len())
            .ok()
            .filter(|&id| id != UNPLACED)
            .expect("process ids stay below u32::MAX");
        self.process_names.push_str(name);
        let end = u32::try_from(self.process_names.len()).expect("process names fit in 4 GiB");
        self.process_name_ends.push(end);
        ProcessId(id)
    }

    /// The registration name of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` was not created by this model.
    pub fn process_name(&self, p: ProcessId) -> &str {
        let start = p.index().checked_sub(1).map_or(0, |before| self.process_name_ends[before]);
        &self.process_names[start as usize..self.process_name_ends[p.index()] as usize]
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.process_name_ends.len()
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

    /// A channel is *local* when both endpoints live on the same process,
    /// *global* otherwise (Section 3's local vs. global communication).
    ///
    /// Returns `None` when either endpoint is unplaced.
    pub fn is_local(&self, ch: Channel) -> Option<bool> {
        Some(self.host_of(ch.from)? == self.host_of(ch.to)?)
    }

    /// "A component can communicate with another as long as there exists a
    /// path of one or more channels connecting these two components."
    pub fn can_communicate(&self, from: CompId, to: CompId) -> bool {
        if from == to {
            return false; // a path needs one or more channels; self-loops only if declared
        }
        let mut adj: HashMap<CompId, Vec<CompId>> = HashMap::new();
        for ch in &self.channels {
            adj.entry(ch.from).or_default().push(ch.to);
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([from]);
        while let Some(c) = queue.pop_front() {
            for &n in adj.get(&c).into_iter().flatten() {
                if n == to {
                    return true;
                }
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        false
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

    /// True when an action touching `comps` spans more than one process —
    /// i.e. it is a *distributed* adaptive action whose agents must be held
    /// blocked until all in-actions complete (Section 4.3).
    pub fn is_distributed(&self, comps: &Config) -> bool {
        self.processes_hosting(comps).len() > 1
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
        let server = m.add_process("server");
        let client = m.add_process("client");
        m.place_all(&u, &[("E1", server), ("D1", client), ("D4", client)]);
        (u, m, server, client)
    }

    #[test]
    fn placement_and_names() {
        let (u, m, server, client) = setup();
        assert_eq!(m.process_count(), 2);
        assert_eq!(m.process_name(server), "server");
        assert_eq!(m.host_of(u.id("E1").unwrap()), Some(server));
        assert_eq!(m.host_of(u.id("D1").unwrap()), Some(client));
    }

    #[test]
    fn local_vs_global_channels() {
        let (u, mut m, _server, _client) = setup();
        let e1 = u.id("E1").unwrap();
        let d1 = u.id("D1").unwrap();
        let d4 = u.id("D4").unwrap();
        m.connect(e1, d1); // cross-process: global
        m.connect(d1, d4); // same process: local
        assert_eq!(m.is_local(m.channels()[0]), Some(false));
        assert_eq!(m.is_local(m.channels()[1]), Some(true));
    }

    #[test]
    fn unplaced_endpoint_is_unknown_locality() {
        let (mut u, m, _s, _c) = setup();
        let ghost = u.intern("GHOST");
        let e1 = u.id("E1").unwrap();
        assert_eq!(m.is_local(Channel { from: e1, to: ghost }), None);
    }

    #[test]
    fn reachability_follows_channel_direction() {
        let (u, mut m, _s, _c) = setup();
        let e1 = u.id("E1").unwrap();
        let d1 = u.id("D1").unwrap();
        let d4 = u.id("D4").unwrap();
        m.connect(e1, d1);
        m.connect(d1, d4);
        assert!(m.can_communicate(e1, d4), "transitive path");
        assert!(!m.can_communicate(d4, e1), "channels are directed");
        assert!(!m.can_communicate(e1, e1), "no declared self-loop");
    }

    #[test]
    fn participant_processes_dedupe_and_sort() {
        let (u, m, server, client) = setup();
        let touched = u.config_of(&["E1", "D1", "D4"]);
        assert_eq!(m.processes_hosting(&touched), vec![server, client]);
        assert!(m.is_distributed(&touched));
        let local_only = u.config_of(&["D1", "D4"]);
        assert!(!m.is_distributed(&local_only));
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
