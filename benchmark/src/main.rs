//! The referee benchmark: five seeded workloads over the repository's
//! crates, timed from outside through their public functions.
//!
//! ```text
//! run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out-dir DIR]
//! run.sh agree [--seed N] [--seconds S]      run the set twice, compare
//! run.sh compare A.json B.json               compare two result files
//! run.sh describe                            print BENCHMARK.json
//! ```
//!
//! With `--workload NAME` the last line of standard output is the result
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics without tracing, the per-layer metrics with it.

mod alloc;
mod compare;
mod harness;
mod json;
mod layers;
mod metrics;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{drive, RunArgs, WorkloadResult};
use json::Json;
use metrics::{RUN_SECONDS, THREADS, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Cli {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a name")?).filter(|w| w != "all"),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value("a directory")?),
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--agree" => cli.command = Some("agree".to_string()),
            "agree" | "compare" | "describe" if cli.command.is_none() => {
                cli.command = Some(arg.clone());
            }
            other if cli.command.as_deref() == Some("compare") && !other.starts_with("--") => {
                cli.files.push(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn run_workload(name: &str, args: &RunArgs) -> Result<WorkloadResult, String> {
    use workloads::{chaos_recover, plan_frontier, scenario_mix, storm};
    match name {
        "storm_flat" => drive::<storm::StormFlat>(args),
        "storm_sharded" => drive::<storm::StormSharded>(args),
        "scenario_mix" => drive::<scenario_mix::ScenarioMix>(args),
        "plan_frontier" => drive::<plan_frontier::PlanFrontier>(args),
        "chaos_recover" => drive::<chaos_recover::ChaosRecover>(args),
        other => Err(format!(
            "unknown workload {other:?}; choose from {:?}",
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        )),
    }
}

/// Who measured, on what, with which settings. `run.sh` passes the
/// toolchain and the revision in through the environment.
fn host_record(cli: &Cli) -> Json {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Json::obj([
        (
            "host_cores",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("driver_threads", Json::Num(THREADS as f64)),
        ("rustc", Json::Str(env("SADA_REFEREE_RUSTC"))),
        ("git_rev", Json::Str(env("SADA_REFEREE_GIT_REV"))),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
    ])
}

fn result_file(cli: &Cli, results: &[WorkloadResult]) -> Json {
    let entries = results.iter().map(|r| (r.name.to_string(), r.to_json())).collect();
    Json::obj([("host", host_record(cli)), ("workloads", Json::Obj(entries))])
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_trace(cli: &Cli, r: &WorkloadResult) -> Result<(), String> {
    match &r.trace_jsonl {
        Some(jsonl) => write(&cli.out_dir.join(format!("trace-{}.jsonl", r.name)), jsonl),
        None => Ok(()),
    }
}

/// The whole set at one seed: every workload untraced, then traced if
/// asked. Returns the result-file document.
fn run_set(cli: &Cli) -> Result<Json, String> {
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let run = |trace| {
            let args = RunArgs { seed: cli.seed, seconds: cli.seconds, trace };
            let r = run_workload(w.name, &args).map_err(|e| format!("{}: {e}", w.name))?;
            r.print();
            write_trace(cli, &r).map(|()| r)
        };
        let mut result = run(false)?;
        if cli.trace {
            // The per-layer map joins the untraced entry; the end-to-end
            // numbers stay those of the untraced run.
            result.per_layer = run(true)?.per_layer;
        }
        results.push(result);
    }
    Ok(result_file(cli, &results))
}

fn main_inner(cli: &Cli) -> Result<bool, String> {
    match cli.command.as_deref() {
        Some("describe") => {
            print!("{}", metrics::describe().pretty());
            Ok(true)
        }
        Some("compare") => {
            let [a, b] = cli.files.as_slice() else {
                return Err("compare needs exactly two result files".to_string());
            };
            let load = |path: &String| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let (table, ok) = compare::compare(&load(a)?, &load(b)?)?;
            print!("{table}");
            Ok(ok)
        }
        Some("agree") => {
            let first = run_set(cli)?;
            let second = run_set(cli)?;
            write(&cli.out_dir.join("agree-a.json"), &first.pretty())?;
            write(&cli.out_dir.join("agree-b.json"), &second.pretty())?;
            let (table, ok) = compare::compare(&first, &second)?;
            print!("{table}");
            println!("{}", if ok { "the two sets agree" } else { "the two sets DISAGREE" });
            Ok(ok)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
        None => match &cli.workload {
            None => {
                let doc = run_set(cli)?;
                let path = cli.out_dir.join("results.json");
                write(&path, &doc.pretty())?;
                println!("wrote {}", path.display());
                Ok(true)
            }
            Some(name) => {
                let args = RunArgs { seed: cli.seed, seconds: cli.seconds, trace: cli.trace };
                let r = run_workload(name, &args)?;
                r.print();
                write_trace(cli, &r)?;
                let suffix = if cli.trace { ".trace" } else { "" };
                let doc = result_file(cli, std::slice::from_ref(&r));
                write(&cli.out_dir.join(format!("{name}{suffix}.json")), &doc.pretty())?;
                println!("{}", r.contract_line());
                Ok(true)
            }
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| main_inner(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("sada-referee: {why}");
            ExitCode::FAILURE
        }
    }
}
