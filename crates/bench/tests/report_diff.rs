//! `report -- diff`: a trace against itself is identical, and a copy of the
//! golden trace with one line changed parts from it at that line.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/quickstart_trace.jsonl")
}

/// The exit status and the standard output of `report -- diff a b`.
fn diff(a: &Path, b: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("diff")
        .args([a, b])
        .output()
        .expect("report runs");
    (out.status.code(), String::from_utf8(out.stdout).expect("UTF-8 output"))
}

#[test]
fn a_trace_is_identical_to_itself() {
    let lines = std::fs::read_to_string(golden()).expect("golden trace").lines().count();
    assert_eq!(diff(&golden(), &golden()), (Some(0), format!("identical ({lines} events)\n")));
}

#[test]
fn a_changed_line_is_where_the_traces_part() {
    let text = std::fs::read_to_string(golden()).expect("golden trace");
    let mut lines: Vec<&str> = text.lines().collect();
    let (ours, theirs) = (lines[4], lines[4].replace("\"to\":\"adapting\"", "\"to\":\"resuming\""));
    assert_ne!(ours, theirs, "line 5 names the phase it enters");
    lines[4] = &theirs;
    let changed = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quickstart_trace_changed.jsonl");
    std::fs::write(&changed, lines.join("\n") + "\n").expect("write the changed copy");
    let (status, out) = diff(&golden(), &changed);
    assert_eq!(status, Some(1), "{out}");
    let want = format!(
        "line 5: the traces part\n  {}: {ours}\n  {}: {theirs}\n",
        golden().display(),
        changed.display()
    );
    assert_eq!(out, want);
    // A trace cut short parts where it ends.
    std::fs::write(&changed, text.lines().take(48).collect::<Vec<_>>().join("\n")).expect("write");
    let (status, out) = diff(&golden(), &changed);
    assert_eq!(status, Some(1), "{out}");
    assert!(out.starts_with("line 49: the traces part\n") && out.ends_with(": (end of trace)\n"));
}
