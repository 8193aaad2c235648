//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when the correctness gate
//! fails and 2 on bad arguments.

use std::process::ExitCode;

use servebench::fixtures::{default_cache, default_out, Fixture};
use servebench::workload::{Spec, WORKLOADS};
use servebench::{replay, workload};

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::named(&name)
        .ok_or_else(|| format!("unknown workload {name}; expected one of {WORKLOADS:?}"))?;
    Ok(Args {
        spec,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// Builds the fixtures of `spec` in a child process, so training and labelling
/// never count toward this process's peak memory.
fn build_fixtures(spec: &Spec) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--build-fixtures", spec.name])
        .status()
        .map_err(|e| format!("cannot start the fixture build: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("fixture build failed: {status}"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, name] = argv.as_slice() {
        if flag == "--build-fixtures" {
            let Some(spec) = Spec::named(name) else {
                return ExitCode::from(2);
            };
            Fixture::load(spec.model, &default_cache());
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Fixture::cached(args.spec.model, &default_cache()) {
        if let Err(e) = build_fixtures(&args.spec) {
            eprintln!("servebench: {e}");
            return ExitCode::from(1);
        }
    }
    let mut fx = Fixture::load(args.spec.model, &default_cache());
    let report = if args.trace {
        replay::run(&mut fx, &args.spec, args.seed, &default_out())
    } else {
        workload::run(&mut fx, &args.spec, args.seed, args.seconds)
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("servebench: correctness check failed: {f}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
