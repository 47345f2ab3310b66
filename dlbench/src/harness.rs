//! One run of one workload: set-up, warm-up, fixed-size measured rounds,
//! output checks, and the result line.
//!
//! Measurement rules (each answers a noise source of the first attempt
//! at this benchmark, see the README):
//! * every timed path runs on the in-memory store — no disk;
//! * a round is a fixed amount of work (constants in [`Scale`]), never
//!   calibrated at run time; a run is whole rounds until `--seconds` of
//!   measured time, and at least [`MIN_ROUNDS`];
//! * throughput is the median over rounds, latency is the p50 of all
//!   samples pooled over the rounds;
//! * set-up is one stretch of at least three seconds' work: everything
//!   from process start to the first measured round;
//! * the process runs on one CPU, so thread hand-offs are local wake-ups
//!   and not inter-processor interrupts through the hypervisor.

use std::path::PathBuf;
use std::time::Instant;

use serde_json::{Number, Value};

use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::procinfo;
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, percentile, quartiles};
use crate::workloads::{self, Counts, Inputs, Scale, Workload};

/// Unmeasured rounds before the first measured one. They are part of
/// `setup_s`, so lazy first-use work shows there; seven make the set-up of
/// the workload with the least to build (`ingest`) three seconds' work.
pub const WARMUP_ROUNDS: usize = 7;
/// A run never measures fewer rounds than this, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 24;
/// … nor more than this: `query_cold` draws filter values without
/// replacement, and this keeps it within its supply.
pub const MAX_ROUNDS: usize = 160;
/// Round pairs (one untraced, one traced) of a traced run.
pub const TRACE_ROUNDS: usize = 8;

pub struct RunConfig {
    /// When the process started: `setup_s` counts from here.
    pub started: Instant,
    pub workload: String,
    pub seed: u64,
    /// Measured time after which no further round starts.
    pub seconds: f64,
    pub trace: bool,
    /// Where `trace.jsonl` and the `LocalProvider` probe's files go.
    pub out: PathBuf,
    pub scale: Scale,
    /// Lower bound on measured rounds ([`MIN_ROUNDS`] outside tests).
    pub min_rounds: usize,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The result line.
    pub fn to_json(&self) -> String {
        let int = |n: u64| Value::Number(Number::U(n));
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), int(self.attempted)),
            ("failed".to_string(), int(self.failed)),
            ("metrics".to_string(), self.metrics.to_json()),
        ]);
        serde_json::to_string(&line).expect("a Value tree always serializes")
    }
}

/// One measured round.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    items: u64,
    failed: u64,
}

impl Sample {
    fn items_per_s(&self) -> f64 {
        self.items as f64 / self.wall_s
    }

    fn cpu_ms_per_item(&self) -> f64 {
        self.cpu_s * 1e3 / self.items as f64
    }
}

fn measure(w: &mut dyn Workload, lat_ms: &mut Vec<f64>) -> Sample {
    let cpu = procinfo::cpu_time_ns();
    let wall = Instant::now();
    let round = w.round(lat_ms);
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_s = (procinfo::cpu_time_ns() - cpu) as f64 / 1e9;
    Sample {
        wall_s,
        cpu_s,
        items: round.items,
        failed: round.failed + w.verify(),
    }
}

fn generate(cfg: &RunConfig) -> Result<Inputs, String> {
    Inputs::generate(&cfg.workload, cfg.seed, cfg.scale)
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))
}

/// The unmeasured rounds. Returns their failures, which count against
/// correctness, not `attempted`.
fn warm_up(w: &mut dyn Workload) -> u64 {
    (0..WARMUP_ROUNDS)
        .map(|_| measure(w, &mut Vec::new()).failed)
        .sum()
}

fn summary_line(name: &str, values: &[f64]) {
    let (q1, q3) = if values.len() >= 2 {
        quartiles(values)
    } else {
        (values[0], values[0])
    };
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "# {name}: n={} median={:.6} q1={q1:.6} q3={q3:.6} min={min:.6} max={max:.6}",
        values.len(),
        median(values),
    );
}

fn print_metrics(metrics: &Metrics) {
    for (def, value) in metrics.iter() {
        println!(
            "{} = {value} {} ({} is better)",
            def.name, def.unit, def.better
        );
    }
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let nproc = procinfo::nproc();
    // before any thread is spawned: they inherit the mask
    let cpu = procinfo::pin_to_one_cpu();
    println!(
        "# dlbench workload={} seed={} seconds={} trace={} nproc={} pinned_cpu={} loadavg_1m={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        nproc,
        cpu.map_or("none".to_string(), |c| c.to_string()),
        procinfo::loadavg_1m(),
    );
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn run_untraced(cfg: &RunConfig) -> Result<RunResult, String> {
    let tracer = Tracer::new();
    let inputs = generate(cfg)?;
    let generated_s = cfg.started.elapsed().as_secs_f64();
    let mut w = inputs.set_up(&tracer);
    let built_s = cfg.started.elapsed().as_secs_f64();
    let warmup_failed = warm_up(w.as_mut());
    let setup_s = cfg.started.elapsed().as_secs_f64();

    let before = w.counts();
    let mut lat_ms = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut measured_s = 0.0;
    // over the rounds every run has, so that they repeat at a given seed
    let mut counts = Counts::default();
    while samples.len() < cfg.min_rounds || (measured_s < cfg.seconds && samples.len() < MAX_ROUNDS)
    {
        let s = measure(w.as_mut(), &mut lat_ms);
        measured_s += s.wall_s;
        samples.push(s);
        if samples.len() == cfg.min_rounds {
            counts = delta(w.counts(), before);
        }
    }
    let counted_items: u64 = samples[..cfg.min_rounds].iter().map(|s| s.items).sum();
    let broken = w.premises();

    println!("# round items_per_s cpu_ms_per_item wall_s failed");
    for (i, s) in samples.iter().enumerate() {
        println!(
            "# {i} {:.3} {:.6} {:.4} {}",
            s.items_per_s(),
            s.cpu_ms_per_item(),
            s.wall_s,
            s.failed
        );
    }
    let ips: Vec<f64> = samples.iter().map(Sample::items_per_s).collect();
    let cpu: Vec<f64> = samples.iter().map(Sample::cpu_ms_per_item).collect();
    summary_line("items_per_s over rounds", &ips);
    summary_line("cpu_ms_per_item over rounds", &cpu);
    summary_line("latency samples (ms)", &lat_ms);
    println!(
        "# setup_s={setup_s:.4}: generate inputs {generated_s:.4}, build state {:.4}, {WARMUP_ROUNDS} warm-up rounds {:.4}",
        built_s - generated_s,
        setup_s - built_s,
    );
    let attempted: u64 = samples.iter().map(|s| s.items).sum();
    let failed: u64 = samples.iter().map(|s| s.failed).sum();
    // per-layer metrics a traced run reports; printed here too because
    // `check` compares them between runs of one seed
    println!(
        "# count e2e.storage_round_trips_per_item = {}",
        counts.storage_round_trips as f64 / counted_items as f64
    );
    println!(
        "# count e2e.wire_bytes_per_item = {}",
        counts.wire_bytes as f64 / counted_items as f64
    );
    println!("# loadavg_1m at end: {}", procinfo::loadavg_1m());
    for b in &broken {
        println!("# PREMISE BROKEN: {b}");
    }
    if warmup_failed > 0 {
        println!("# {warmup_failed} failures in warm-up rounds");
    }

    let phase = w.write_phase();
    let mut metrics = Metrics::zeroed(END_TO_END);
    metrics.set("items_per_s", median(&ips));
    metrics.set("lat_p50_ms", percentile(&lat_ms, 0.5));
    metrics.set("setup_s", setup_s);
    metrics.set("peak_rss_mb", procinfo::peak_rss_mb());
    metrics.set(
        "stored_bytes_per_user_byte",
        phase.stored_bytes as f64 / phase.user_bytes as f64,
    );
    print_metrics(&metrics);
    Ok(RunResult {
        correct: failed == 0 && warmup_failed == 0 && broken.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn delta(after: Counts, before: Counts) -> Counts {
    Counts {
        storage_round_trips: after.storage_round_trips - before.storage_round_trips,
        storage_logical_reads: after.storage_logical_reads - before.storage_logical_reads,
        wire_bytes: after.wire_bytes - before.wire_bytes,
    }
}

/// The traced run: [`TRACE_ROUNDS`] pairs of one untraced and one traced
/// round, so the two sets see the same machine; per-layer numbers come
/// from the traced rounds' spans, the program's own counters, and the
/// probes. End-to-end metrics are never taken from this run.
fn run_traced(cfg: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("create {:?}: {e}", cfg.out))?;
    let tracer = Tracer::new();
    let inputs = generate(cfg)?;
    tracer.set_enabled(true);
    let mut w = inputs.set_up(&tracer);
    tracer.set_enabled(false);
    let setup_spans = tracer.drain();
    let warmup_failed = warm_up(w.as_mut());

    let before = w.counts();
    let switches = procinfo::involuntary_ctx_switches();
    let mut lat_ms = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let rounds = Instant::now();
    for _ in 0..TRACE_ROUNDS {
        plain.push(measure(w.as_mut(), &mut lat_ms));
        tracer.set_enabled(true);
        traced.push(measure(w.as_mut(), &mut Vec::new()));
        tracer.set_enabled(false);
    }
    let rounds_s = rounds.elapsed().as_secs_f64();
    let switches = procinfo::involuntary_ctx_switches() - switches;
    let counts = delta(w.counts(), before);
    let round_spans = tracer.drain();

    let ips = |v: &[Sample]| median(&v.iter().map(Sample::items_per_s).collect::<Vec<_>>());
    let samples = || plain.iter().chain(&traced);
    let attempted: u64 = samples().map(|s| s.items).sum();
    let failed: u64 = samples().map(|s| s.failed).sum();
    let traced_items: u64 = traced.iter().map(|s| s.items).sum();
    let traced_wall_ns: f64 = traced.iter().map(|s| s.wall_s * 1e9).sum();

    let mut m = Metrics::zeroed(PER_LAYER);
    m.set(
        "obs.trace_overhead_frac",
        (ips(&plain) - ips(&traced)) / ips(&plain),
    );
    m.set("e2e.lat_p99_ms", percentile(&lat_ms, 0.99));
    let cpu: Vec<f64> = plain.iter().map(Sample::cpu_ms_per_item).collect();
    m.set("e2e.cpu_ms_per_item", median(&cpu));
    m.set(
        "e2e.storage_round_trips_per_item",
        counts.storage_round_trips as f64 / attempted as f64,
    );
    m.set(
        "e2e.wire_bytes_per_item",
        counts.wire_bytes as f64 / attempted as f64,
    );
    m.set(
        "storage.get_calls_per_item",
        counts.storage_logical_reads as f64 / attempted as f64,
    );
    m.set(
        "storage.logical_reads_per_round_trip",
        counts.storage_logical_reads as f64 / counts.storage_round_trips.max(1) as f64,
    );
    let phase = w.write_phase();
    let krows = phase.rows as f64 / 1e3;
    m.set("storage.put_calls_per_krow", phase.puts as f64 / krows);
    m.set(
        "storage.bytes_written_per_user_byte",
        phase.bytes_written as f64 / phase.user_bytes as f64,
    );
    m.set("format.chunks_per_krow", phase.chunks as f64 / krows);

    // the write path's spans: the rounds' on `ingest`, the set-up's
    // dataset build on the others
    let all_spans: Vec<Span> = setup_spans.iter().chain(&round_spans).cloned().collect();
    let p50 = |layer, name| median(&spans::durations_ms(&all_spans, layer, name));
    m.set(
        "core.append_row_us_p50",
        p50("core", "extend_rows") * 1e3 / workloads::WRITE_BATCH as f64,
    );
    m.set("core.flush_ms_p50", p50("core", "flush"));
    m.set("core.commit_ms_p50", p50("core", "commit"));
    let self_ns = spans::layer_self_ns(&round_spans);
    for (layer, metric) in [
        ("core", "core.self_ms_per_item"),
        ("storage", "storage.self_ms_per_item"),
    ] {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        m.set(metric, ns as f64 / 1e6 / traced_items as f64);
    }

    let ips_plain: Vec<f64> = plain.iter().map(Sample::items_per_s).collect();
    m.set("bench.round_spread_frac", crate::stats::spread(&ips_plain));
    m.set(
        "bench.involuntary_ctx_switches_per_s",
        switches as f64 / rounds_s,
    );
    m.set("bench.loadavg_1m", procinfo::loadavg_1m());
    // share of the traced rounds' wall time the measuring thread spent
    // inside a named span
    let me = spans::thread_number();
    let mine: Vec<(u64, u64)> = round_spans
        .iter()
        .filter(|s| s.thread == me && s.parent == 0)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    m.set(
        "bench.attributed_frac",
        spans::covered(mine, 0, u64::MAX) as f64 / traced_wall_ns,
    );

    // premises first: the probes below read the store and the hub too
    let broken = w.premises();
    w.layer_metrics(lat_ms.iter().sum::<f64>() / lat_ms.len() as f64, &mut m);
    crate::probes::standalone(cfg.seed, &cfg.out, &mut m);

    let trace_path = cfg.out.join("trace.jsonl");
    spans::write_jsonl(&trace_path, &all_spans).map_err(|e| format!("write trace: {e}"))?;
    println!(
        "# {} spans written to {}",
        all_spans.len(),
        trace_path.display()
    );
    println!("# self time per layer over the traced rounds (ms per item):");
    for (layer, ns) in &self_ns {
        println!("#   {layer}: {:.6}", *ns as f64 / 1e6 / traced_items as f64);
    }
    println!(
        "# items_per_s untraced={:.3} traced={:.3}",
        ips(&plain),
        ips(&traced)
    );
    for b in &broken {
        println!("# PREMISE BROKEN: {b}");
    }
    print_metrics(&m);
    Ok(RunResult {
        correct: failed == 0 && warmup_failed == 0 && broken.is_empty(),
        attempted,
        failed,
        metrics: m,
    })
}
