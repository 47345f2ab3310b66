//! Whole-run tests at [`Scale::TINY`]: the result line against
//! `BENCHMARK.json`, and seeds against shuffle order.

use serde_json::Value;

use crate::harness::{run, RunConfig};
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::workloads::train_stream::TrainStream;
use crate::workloads::{Inputs, Scale, Workload, NAMES};

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("no key {key:?} in {v:?}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn list(v: &Value) -> &[Value] {
    v.as_array()
        .unwrap_or_else(|| panic!("expected an array, found {v:?}"))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse_value_str(&raw).expect("BENCHMARK.json parses")
}

fn tiny(workload: &str, trace: bool) -> RunConfig {
    RunConfig {
        started: std::time::Instant::now(),
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.0,
        trace,
        out: std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{workload}-{}", u8::from(trace))),
        scale: Scale::TINY,
        min_rounds: 2,
    }
}

/// The catalogue in the code and the one the driver reads are the same
/// list: names, units, directions, bounds, workloads, run length.
#[test]
fn benchmark_json_declares_the_catalogue() {
    let json = benchmark_json();
    let same = |declared: &Value, defs: &[Def], bounded: bool| {
        let declared = list(declared);
        assert_eq!(declared.len(), defs.len());
        for (d, def) in declared.iter().zip(defs) {
            assert_eq!(text(field(d, "name")), def.name);
            assert_eq!(text(field(d, "unit")), def.unit, "{}", def.name);
            assert_eq!(text(field(d, "better")), def.better, "{}", def.name);
            if bounded {
                match field(d, "bound") {
                    Value::Number(n) => assert_eq!(n.as_f64(), def.bound, "{}", def.name),
                    other => panic!("bound of {} is {other:?}", def.name),
                }
            }
        }
    };
    same(field(&json, "end_to_end"), END_TO_END, true);
    same(field(&json, "per_layer"), PER_LAYER, false);
    let workloads: Vec<&str> = list(field(&json, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(workloads, NAMES);
    match field(&json, "run_seconds") {
        Value::Number(n) => assert_eq!(n.as_f64(), crate::RUN_SECONDS),
        other => panic!("run_seconds is {other:?}"),
    }
}

/// Every workload's result line carries every declared metric with the
/// declared unit — end-to-end untraced, per-layer traced — and nothing
/// fails.
#[test]
fn result_lines_carry_every_declared_metric() {
    let json = benchmark_json();
    for workload in NAMES {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = tiny(workload, trace);
            let result = run(&cfg).expect("run");
            assert_eq!(result.failed, 0, "{workload} trace={trace}");
            assert!(result.attempted >= 1);
            let line = serde_json::parse_value_str(&result.to_json()).expect("result line parses");
            let keys: Vec<&str> = line
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = field(&line, "metrics");
            let declared = list(field(&json, key));
            assert_eq!(
                metrics.as_object().expect("an object").len(),
                declared.len()
            );
            for d in declared {
                let m = field(metrics, text(field(d, "name")));
                assert_eq!(text(field(m, "unit")), text(field(d, "unit")));
                assert!(matches!(field(m, "value"), Value::Number(_)));
            }
            if trace {
                assert!(cfg.out.join("trace.jsonl").is_file());
            }
            let _ = std::fs::remove_dir_all(&cfg.out);
        }
    }
}

/// The seed decides the loader's shuffle order (one worker at
/// `Scale::TINY`, so delivery order is a function of the seed alone).
#[test]
fn seed_decides_shuffle_order() {
    let digest = |seed| {
        let inputs = Inputs::generate("train_stream", seed, Scale::TINY).expect("a workload");
        let mut w = TrainStream::setup(&inputs, &Tracer::new());
        let round = w.round(&mut Vec::new());
        assert_eq!(round.failed + w.verify(), 0);
        w.order_digest()
    };
    assert_eq!(digest(5), digest(5));
    assert_ne!(digest(5), digest(6));
}
