//! dlbench — the repository's benchmark. See `dlbench/README.md`.
//!
//! ```text
//! dlbench run   --workload <w> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! dlbench check --runs <n> [--out <dir>]
//! ```

mod check;
mod gen;
mod harness;
mod metrics;
mod probes;
mod procinfo;
mod spans;
mod stats;
mod store;
#[cfg(test)]
mod tests;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as
/// `--seconds`, what `run` measures for without the flag, and what every
/// run of `check` measures for.
const RUN_SECONDS: f64 = 26.0;

/// `--key value` pairs after the subcommand.
fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, found {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot read {v:?}")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

fn main_inner() -> Result<bool, String> {
    let started = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args
        .split_first()
        .ok_or("usage: dlbench run|check --flag value ...")?;
    let flags = flags(rest)?;
    match command.as_str() {
        "run" => {
            let workload: String = parsed(&flags, "workload", None)?;
            let cfg = harness::RunConfig {
                started,
                seed: parsed(&flags, "seed", None)?,
                seconds: parsed(&flags, "seconds", Some(RUN_SECONDS))?,
                trace: parsed::<u8>(&flags, "trace", Some(0))? != 0,
                out: parsed(&flags, "out", Some(PathBuf::from("dlbench/out")))?,
                scale: workloads::Scale::FULL,
                min_rounds: harness::MIN_ROUNDS,
                workload,
            };
            let result = harness::run(&cfg)?;
            println!("{}", result.to_json());
            Ok(true)
        }
        "check" => check::check(&check::CheckConfig {
            runs: parsed(&flags, "runs", None)?,
            out: parsed(&flags, "out", Some(PathBuf::from("dlbench/out")))?,
        }),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dlbench: {message}");
            ExitCode::from(2)
        }
    }
}
