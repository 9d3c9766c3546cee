//! The repository benchmark: end-to-end and per-layer metrics of the
//! overlapped 3-D FFT on four workloads. See README.md in this directory.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--trace 0|1] [--out FILE]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare OLD NEW
//! ```
//!
//! The last line of standard output is the run's JSON summary; the exit
//! code is non-zero when any correctness check failed.

mod compare;
mod host;
mod json;
mod outcome;
mod probe;
mod report;
mod service;
mod slab;
mod spec;
mod stats;
mod tune;

use outcome::Outcome;
use probe::Probe;
use report::RunArgs;
use slab::Slab;
use spec::Spec;
use std::time::{Duration, Instant};

/// Cold set-ups per untraced run; `setup_s` is their median. With fewer,
/// a few slow set-ups on a busy host move the median.
const SETUP_PROBES: usize = 15;
/// Cold set-ups per traced real-workload run, for the planning metrics.
const TRACED_PROBES: usize = 3;

struct Cli {
    workload: String,
    args: RunArgs,
    out: Option<String>,
    probe: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_cli(spec: &Spec) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        args: RunArgs {
            seed: 1,
            traced: false,
        },
        out: None,
        probe: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            // The run length is BENCHMARK.json's `run_seconds`, so that
            // every result has the same sample budget; a caller may still
            // state it.
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s != spec.run_seconds {
                    return Err(format!(
                        "--seconds must be run_seconds, {}",
                        spec.run_seconds
                    ));
                }
            }
            "--trace" => {
                cli.args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => cli.out = Some(value()?),
            "--probe" => cli.probe = Some(value()?),
            "--compare" => {
                let old = value()?;
                cli.compare = Some((old, it.next().ok_or("--compare needs two files")?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// One cold set-up of `workload`, run in this process.
fn probe_here(workload: &str, seed: u64) -> Option<Probe> {
    match workload {
        "tune_cells" => Some(tune::probe()),
        "service_overload" => Some(service::probe()),
        w => Slab::by_name(w).map(|s| slab::probe(s, seed)),
    }
}

/// Runs `workload` for `seconds` of wall time, set-up probes included.
fn run_workload(workload: &str, args: RunArgs, seconds: f64) -> Outcome {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let slab = Slab::by_name(workload);
    let probes = match (args.traced, slab.is_some()) {
        (false, _) => SETUP_PROBES,
        (true, true) => TRACED_PROBES,
        (true, false) => 0,
    };
    let probes = probe::run(workload, args.seed, probes);
    match (workload, slab) {
        (_, Some(s)) if args.traced => slab::run_traced(workload, s, args.seed, until, &probes),
        (_, Some(s)) => slab::run(workload, s, args.seed, until, &probes),
        ("tune_cells", _) => tune::run(until, &probes, args.traced),
        _ => service::run(args.seed, until, &probes, args.traced),
    }
}

fn main() {
    let spec = Spec::load();
    let cli = match parse_cli(&spec) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    if let Some(w) = &cli.probe {
        match probe_here(w, cli.args.seed) {
            Some(p) => println!("{}", p.line()),
            None => {
                eprintln!("perfbench: unknown workload {w}");
                std::process::exit(2);
            }
        }
        return;
    }

    if let Some((old, new)) = &cli.compare {
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        match read(old).and_then(|o| compare::compare(&spec, &o, &read(new)?)) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    let names: Vec<&String> = spec
        .workloads
        .iter()
        .filter(|w| cli.workload == "all" || cli.workload == **w)
        .collect();
    if names.is_empty() {
        eprintln!(
            "perfbench: unknown workload {}; one of {} or all",
            cli.workload,
            spec.workloads.join(", ")
        );
        std::process::exit(2);
    }

    let fp = host::Fingerprint::probe();
    let mut results = Vec::new();
    let mut failed = false;
    for w in names {
        let mut out = run_workload(w, cli.args, spec.run_seconds);
        let metrics = report::declared(&spec, &mut out, cli.args.traced);
        print!("{}", report::human(&spec, &fp, cli.args, &out));
        println!("{}", report::summary_line(&out, &metrics));
        results.push(report::result_json(&spec, cli.args, &out));
        failed |= out.checks.failed > 0;
    }
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, report::result_file(&fp, &results)) {
            eprintln!("perfbench: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    if failed {
        std::process::exit(1);
    }
}
