//! `dlbench check`: does the benchmark agree with itself? Runs two sets
//! of `runs` untraced runs of every workload, alternating workloads; run
//! `i` of either set has seed `i`. For each workload × end-to-end metric
//! it compares the set medians (the gap) and each set's interquartile
//! range (the spread) with the metric's bound — the driver's acceptance
//! test, run by the benchmark on itself — and it compares the counts of
//! the two runs at each seed, which must be the same number.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use serde_json::{Number, Value};

use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles};
use crate::workloads::NAMES;

const SETS: usize = 2;

/// Counts that repeat exactly at a given seed, and the workloads on which
/// they do not. Which chunks a dataset handle still has memoized depends
/// on how threads interleave — the two loader workers of `train_stream`,
/// the two executor workers of a `query_cold` scan — so there the reads
/// that reach the store (and on `train_stream` the hub) differ by a few.
const COUNTS: [(&str, &[&str]); 3] = [
    ("stored_bytes_per_user_byte", &[]),
    (
        "e2e.storage_round_trips_per_item",
        &["train_stream", "query_cold"],
    ),
    ("e2e.wire_bytes_per_item", &["train_stream"]),
];

pub struct CheckConfig {
    pub runs: usize,
    pub out: PathBuf,
}

/// One run in a child process: its end-to-end metrics by name, and the
/// counts an untraced run prints as `# count <name> = <value>` lines. The
/// run's output is kept under `out/runs/`.
fn one_run(
    workload: &str,
    set: usize,
    seed: u64,
    out: &std::path::Path,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let log = out
        .join("runs")
        .join(format!("{workload}-{set}-{seed}.txt"));
    std::fs::write(&log, stdout.as_bytes()).map_err(|e| format!("write {log:?}: {e}"))?;
    let line = stdout.lines().last().unwrap_or_default();
    let fail = |why: &str| format!("{workload} seed {seed}: {why}: {line}");
    if !output.status.success() {
        return Err(fail("run exited non-zero"));
    }
    let value = serde_json::parse_value_str(line).map_err(|_| fail("no result line"))?;
    if value.get("correct") != Some(&Value::Bool(true)) {
        return Err(fail("run was not correct"));
    }
    let metrics = value.get("metrics").ok_or_else(|| fail("no metrics"))?;
    let mut out = BTreeMap::new();
    for def in END_TO_END {
        match metrics.get(def.name).and_then(|m| m.get("value")) {
            Some(Value::Number(n)) => out.insert(def.name.to_string(), n.as_f64()),
            _ => return Err(fail(&format!("metric {} missing", def.name))),
        };
    }
    for l in stdout.lines() {
        if let Some((name, value)) = l.strip_prefix("# count ").and_then(|c| c.split_once(" = ")) {
            let value = value.parse().map_err(|_| fail("unreadable count"))?;
            out.insert(name.to_string(), value);
        }
    }
    Ok(out)
}

/// Returns whether every gap and spread is within its bound and every
/// count that should repeat did.
pub fn check(cfg: &CheckConfig) -> Result<bool, String> {
    if cfg.runs < 2 {
        return Err("check needs --runs >= 2".to_string());
    }
    let runs = cfg.out.join("runs");
    std::fs::create_dir_all(&runs).map_err(|e| format!("create {runs:?}: {e}"))?;
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    for set in 0..SETS {
        for seed in 1..=cfg.runs as u64 {
            for workload in NAMES {
                eprintln!("set {set} {workload} seed {seed}");
                for (metric, value) in one_run(workload, set, seed, &cfg.out)? {
                    let sets = values
                        .entry(workload)
                        .or_default()
                        .entry(metric)
                        .or_insert_with(|| vec![Vec::new(); SETS]);
                    sets[set].push(value);
                }
            }
        }
    }

    let num = |v: f64| Value::Number(Number::F(v));
    let list = |v: &[f64]| Value::Array(v.iter().copied().map(num).collect());
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<13} {:<27} {:>7} {:>8} {:>8} {:>7}  medians",
        "workload", "metric", "bound", "gap", "spread", "ok"
    );
    for workload in NAMES {
        for def in END_TO_END {
            let sets = &values[workload][def.name];
            let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
            let spreads: Vec<f64> = sets
                .iter()
                .zip(&medians)
                .map(|(s, m)| {
                    let (q1, q3) = quartiles(s);
                    (q3 - q1) / m.abs()
                })
                .collect();
            let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let gap = (hi - lo) / lo.abs();
            let spread = spreads.iter().copied().fold(0.0, f64::max);
            // the driver does not gate the spread of setup_s
            let within = gap <= def.bound && (def.name == "setup_s" || spread <= def.bound);
            ok &= within;
            println!(
                "{workload:<13} {:<27} {:>7.3} {gap:>8.4} {spread:>8.4} {:>7}  {}",
                def.name,
                def.bound,
                if within { "ok" } else { "EXCEEDED" },
                medians
                    .iter()
                    .map(|m| format!("{m:.5}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            );
            rows.push(Value::Object(vec![
                ("workload".to_string(), Value::String(workload.to_string())),
                ("metric".to_string(), Value::String(def.name.to_string())),
                ("unit".to_string(), Value::String(def.unit.to_string())),
                ("bound".to_string(), num(def.bound)),
                ("gap".to_string(), num(gap)),
                ("medians".to_string(), list(&medians)),
                ("spreads".to_string(), list(&spreads)),
                (
                    "values".to_string(),
                    Value::Array(sets.iter().map(|s| list(s)).collect()),
                ),
                ("within_bound".to_string(), Value::Bool(within)),
            ]));
        }
    }
    let mut counts = Vec::new();
    println!(
        "{:<13} {:<34} seeds at which the two runs differ",
        "workload", "count"
    );
    for workload in NAMES {
        for (count, inexact_on) in COUNTS {
            let sets = &values[workload][count];
            let differing = sets[0].iter().zip(&sets[1]).filter(|(a, b)| a != b).count();
            let exact = !inexact_on.contains(&workload);
            ok &= differing == 0 || !exact;
            println!(
                "{workload:<13} {count:<34} {differing} of {}{}",
                cfg.runs,
                if exact && differing > 0 {
                    "  NOT EXACT"
                } else {
                    ""
                },
            );
            counts.push(Value::Object(vec![
                ("workload".to_string(), Value::String(workload.to_string())),
                ("count".to_string(), Value::String(count.to_string())),
                ("exact".to_string(), Value::Bool(exact)),
                (
                    "seeds_differing".to_string(),
                    Value::Number(Number::U(differing as u64)),
                ),
                (
                    "values".to_string(),
                    Value::Array(sets.iter().map(|s| list(s)).collect()),
                ),
            ]));
        }
    }
    let report = Value::Object(vec![
        (
            "runs_per_set".to_string(),
            Value::Number(Number::U(cfg.runs as u64)),
        ),
        (
            "run_seconds".to_string(),
            Value::Number(Number::F(crate::RUN_SECONDS)),
        ),
        (
            "nproc".to_string(),
            Value::Number(Number::U(crate::procinfo::nproc() as u64)),
        ),
        ("all_within_bounds".to_string(), Value::Bool(ok)),
        ("rows".to_string(), Value::Array(rows)),
        ("counts".to_string(), Value::Array(counts)),
    ]);
    let path = cfg.out.join("check.json");
    let text = serde_json::to_string_pretty(&report).expect("a Value tree always serializes");
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {path:?}: {e}"))?;
    println!("# wrote {}", path.display());
    Ok(ok)
}
