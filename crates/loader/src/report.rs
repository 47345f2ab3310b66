//! Loader observability: the per-stage instrument set, the per-epoch
//! [`EpochReport`], and automatic bottleneck attribution.
//!
//! Every pipeline stage of §4.6 — schedule, fetch, decode, transform,
//! collate — plus the two waits that frame them (the consumer blocked
//! on the prefetch queue, and the consumer *away* doing GPU work) gets
//! a log-scale histogram in the loader's lifetime [`MetricsRegistry`],
//! scrapeable at any time via
//! [`DataLoader::metrics`](crate::DataLoader::metrics). Each sample is
//! recorded once, there. An epoch's view — [`EpochReport`],
//! [`LoaderStats`] — is the registry's growth since the snapshot
//! [`DataLoader::epoch`](crate::DataLoader::epoch) took on entry
//! ([`HistogramSnapshot::delta_since`](deeplake_obs::HistogramSnapshot::delta_since)
//! for the stages, plain subtraction for the counters). Two epochs of
//! one loader that *overlap* in time therefore see each other's
//! samples; consume one before starting the next, or give each its own
//! loader.
//!
//! Attribution turns the histograms into a verdict: when the consumer
//! spends more time away than blocked, the pipeline kept up and the
//! epoch is consumer-bound; otherwise the dominant worker-side stage
//! by total nanoseconds is the bottleneck, and its name tells the
//! operator which knob to turn (see the README's "Tuning the data
//! loader" table).

use std::fmt;

use deeplake_obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, RateWindow,
    SpanRecord, TraceContext,
};

use crate::loader::LoaderStats;

/// One histogram handle per pipeline stage. Cheap-clone: clones share
/// buckets, so worker threads record into the same instruments.
#[derive(Clone)]
pub(crate) struct Stages {
    pub schedule: Histogram,
    pub fetch: Histogram,
    pub decode: Histogram,
    pub transform: Histogram,
    pub collate: Histogram,
    pub queue_wait: Histogram,
    pub consumer_gap: Histogram,
}

impl Stages {
    /// The loader-lifetime set, registered under the `loader.*_ns`
    /// names (see the crate docs for the naming table).
    pub fn registered(reg: &MetricsRegistry) -> Self {
        Stages {
            schedule: reg.histogram("loader.schedule_ns"),
            fetch: reg.histogram("loader.fetch_ns"),
            decode: reg.histogram("loader.decode_ns"),
            transform: reg.histogram("loader.transform_ns"),
            collate: reg.histogram("loader.collate_ns"),
            queue_wait: reg.histogram("loader.queue_wait_ns"),
            consumer_gap: reg.histogram("loader.consumer_gap_ns"),
        }
    }
}

/// The loader's client-level instrument set, owned by
/// [`DataLoader`](crate::DataLoader) and shared by every epoch it
/// starts — the loader-side mirror of the hub's `HubObs`. Cheap-clone:
/// clones share every instrument.
#[derive(Clone)]
pub(crate) struct LoaderObs {
    pub registry: MetricsRegistry,
    pub stages: Stages,
    /// Rows sitting in the bounded prefetch channel
    /// (`loader.queue_depth`). The channel carries one message per task
    /// and the stand-in has no `len()`: a worker adds its task's rows
    /// just before it sends them, so a live scrape never reads below
    /// zero, the consumer subtracts them on receive, and a mid-epoch
    /// drop settles the residue (a send that failed included).
    pub queue_depth: Gauge,
    pub epochs: Counter,
    pub rows: Counter,
    pub batches: Counter,
    pub bytes: Counter,
    pub rows_rate: RateWindow,
    pub batches_rate: RateWindow,
    pub bytes_rate: RateWindow,
}

impl LoaderObs {
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        LoaderObs {
            stages: Stages::registered(&registry),
            queue_depth: registry.gauge("loader.queue_depth"),
            epochs: registry.counter("loader.epochs"),
            rows: registry.counter("loader.rows"),
            batches: registry.counter("loader.batches"),
            bytes: registry.counter("loader.bytes"),
            rows_rate: registry.rate("loader.rows_rate"),
            batches_rate: registry.rate("loader.batches_rate"),
            bytes_rate: registry.rate("loader.bytes_rate"),
            registry,
        }
    }
}

/// Count, total, and quantiles of one stage over one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSummary {
    /// Samples recorded (tasks for fetch/decode/transform, batches for
    /// collate, receives for queue_wait, iterator resumes for
    /// consumer_gap).
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub total_ns: u64,
    /// Median, within the histogram's bucket error (≤ 25% relative).
    pub p50_ns: u64,
    /// 99th percentile, same error bound.
    pub p99_ns: u64,
}

impl StageSummary {
    /// The histogram `name` as it grew from `base` to `now`.
    pub(crate) fn between(base: &MetricsSnapshot, now: &MetricsSnapshot, name: &str) -> Self {
        let empty = HistogramSnapshot::default();
        let s = now
            .histogram(name)
            .unwrap_or(&empty)
            .delta_since(base.histogram(name).unwrap_or(&empty));
        StageSummary {
            count: s.count,
            total_ns: s.sum,
            p50_ns: s.quantile(0.50),
            p99_ns: s.quantile(0.99),
        }
    }

    /// Total as milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// One worker thread's epoch totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Worker index (`loader.worker.<index>.*` in the registry).
    pub worker: usize,
    /// Nanoseconds spent fetching + decoding + transforming (send-block
    /// time excluded — that is backpressure, not work).
    pub busy_ns: u64,
    /// Scheduler tasks this worker completed.
    pub tasks: u64,
}

/// The stage an epoch spent its critical path on — the automatic
/// attribution the paper's Figure-8 style loader studies do by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Storage round trips dominate: raise `num_workers` / `prefetch`
    /// or move data closer (a task already costs one batched round
    /// trip).
    Fetch,
    /// Decompression dominates: raise `num_workers` (decode
    /// parallelism) or store lighter compression.
    Decode,
    /// The user transform dominates: raise `num_workers` or cheapen the
    /// transform.
    Transform,
    /// Collation on the consumer thread dominates: raise `batch_size`
    /// (fewer, larger collates) or slim the tensors streamed.
    Collate,
    /// The pipeline kept up — the consumer (the GPU) is the bottleneck;
    /// loader knobs will not help.
    Consumer,
}

impl Bottleneck {
    /// Stable lowercase name (`fetch`, `decode`, …) for logs and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Bottleneck::Fetch => "fetch",
            Bottleneck::Decode => "decode",
            Bottleneck::Transform => "transform",
            Bottleneck::Collate => "collate",
            Bottleneck::Consumer => "consumer",
        }
    }
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one epoch measured: throughput, per-stage quantiles,
/// per-worker utilization, the client-side span records of the trace
/// the epoch's fetches joined, and the attributed bottleneck.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The classic throughput numbers (rows/s, MB/s).
    pub stats: LoaderStats,
    /// Epoch-order + schedule build time (one sample).
    pub schedule: StageSummary,
    /// Storage round-trip time per worker task: the pure I/O wait of
    /// its one scatter-gather call.
    pub fetch: StageSummary,
    /// Chunk decompression + row assembly per worker task.
    pub decode: StageSummary,
    /// User transform per worker task (absent transform records
    /// nothing).
    pub transform: StageSummary,
    /// Collation per delivered batch, on the consumer thread.
    pub collate: StageSummary,
    /// Consumer blocked on the prefetch queue per receive (one per
    /// task, plus the one that finds the channel closed) — the "loader
    /// too slow" signal.
    pub queue_wait: StageSummary,
    /// Consumer away between batches (GPU compute) — the "loader kept
    /// up" signal.
    pub consumer_gap: StageSummary,
    /// Per-worker busy time and task counts.
    pub workers: Vec<WorkerSummary>,
    /// The epoch's in-flight budget in rows (`prefetch_batches` ×
    /// `batch_size`, or fewer under `memory_budget_bytes`): a task is
    /// issued while its start is within this many rows — plus the
    /// plan's reach and one block per worker — of the next row to
    /// deliver.
    pub in_flight_rows: usize,
    /// The epoch's trace id — every worker fetch joins this trace, and
    /// a served hub's span tree carries it end to end.
    pub trace_id: u64,
    /// The training-step root span (parent of every fetch span).
    pub root_span: u64,
    /// Client-side spans: the `epoch` root plus one `fetch` span per
    /// worker task, each the parent of the hub-side tree its storage
    /// call produced.
    pub spans: Vec<SpanRecord>,
    /// The attributed dominant stage.
    pub bottleneck: Bottleneck,
}

impl EpochReport {
    /// The attribution rule, on stage totals. Consumer gap beating
    /// queue wait means the pipeline kept up — consumer-bound. Else the
    /// heaviest worker-side stage wins (ties break toward the earlier
    /// pipeline stage, the one whose knob is cheaper to turn).
    pub(crate) fn attribute(
        fetch: &StageSummary,
        decode: &StageSummary,
        transform: &StageSummary,
        collate: &StageSummary,
        queue_wait: &StageSummary,
        consumer_gap: &StageSummary,
    ) -> Bottleneck {
        if consumer_gap.total_ns >= queue_wait.total_ns {
            return Bottleneck::Consumer;
        }
        let stages = [
            (Bottleneck::Fetch, fetch.total_ns),
            (Bottleneck::Decode, decode.total_ns),
            (Bottleneck::Transform, transform.total_ns),
            (Bottleneck::Collate, collate.total_ns),
        ];
        // strict `>` keeps the FIRST maximum on ties — the earlier stage
        let mut best = stages[0];
        for &(which, total) in &stages[1..] {
            if total > best.1 {
                best = (which, total);
            }
        }
        best.0
    }

    /// Span ids of the per-task `fetch` spans — the values a hub's
    /// slow-log entries report as `parent_span` when this epoch
    /// streamed over a served mount.
    pub fn fetch_span_ids(&self) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == "fetch")
            .map(|s| s.span_id)
            .collect()
    }

    /// The epoch's trace context (`trace_id` + root span).
    pub fn trace(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.root_span,
        }
    }

    /// Aggregate worker busy fraction: busy nanoseconds across workers
    /// over (workers × epoch wall). 1.0 = every worker fetched/decoded
    /// the whole epoch; low values mean workers idled on backpressure.
    pub fn worker_utilization(&self) -> f64 {
        let wall = self.stats.elapsed.as_nanos() as u64 as f64;
        if wall == 0.0 || self.workers.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        busy as f64 / (wall * self.workers.len() as f64)
    }

    /// Multi-line human rendering: stage table (count, total, p50,
    /// p99), throughput, and the attribution verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "epoch: {} rows, {} batches, {:.1} rows/s, {:.2} MB/s, bottleneck: {}\n",
            self.stats.rows,
            self.stats.batches,
            self.stats.rows_per_sec(),
            self.stats.mb_per_sec(),
            self.bottleneck
        ));
        out.push_str(&format!(
            "{:<14} {:>8} {:>12} {:>10} {:>10}\n",
            "stage", "count", "total_ms", "p50_us", "p99_us"
        ));
        for (name, s) in [
            ("schedule", &self.schedule),
            ("fetch", &self.fetch),
            ("decode", &self.decode),
            ("transform", &self.transform),
            ("collate", &self.collate),
            ("queue_wait", &self.queue_wait),
            ("consumer_gap", &self.consumer_gap),
        ] {
            out.push_str(&format!(
                "{:<14} {:>8} {:>12.2} {:>10.1} {:>10.1}\n",
                name,
                s.count,
                s.total_ms(),
                s.p50_ns as f64 / 1e3,
                s.p99_ns as f64 / 1e3,
            ));
        }
        out.push_str(&format!(
            "workers: {} ({:.0}% busy), in-flight budget: {} rows\n",
            self.workers.len(),
            self.worker_utilization() * 100.0,
            self.in_flight_rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(total_ns: u64) -> StageSummary {
        StageSummary {
            count: 1,
            total_ns,
            p50_ns: total_ns,
            p99_ns: total_ns,
        }
    }

    #[test]
    fn attribution_picks_the_dominant_stage() {
        // consumer spent more time away than waiting: pipeline kept up
        assert_eq!(
            EpochReport::attribute(&sum(900), &sum(10), &sum(0), &sum(5), &sum(100), &sum(500)),
            Bottleneck::Consumer
        );
        // waiting dominates, fetch is the heaviest producer stage
        assert_eq!(
            EpochReport::attribute(&sum(900), &sum(10), &sum(0), &sum(5), &sum(800), &sum(100)),
            Bottleneck::Fetch
        );
        // same, but decode is heaviest
        assert_eq!(
            EpochReport::attribute(&sum(10), &sum(900), &sum(0), &sum(5), &sum(800), &sum(100)),
            Bottleneck::Decode
        );
        // transform-heavy
        assert_eq!(
            EpochReport::attribute(&sum(10), &sum(20), &sum(900), &sum(5), &sum(800), &sum(0)),
            Bottleneck::Transform
        );
        // collate-heavy
        assert_eq!(
            EpochReport::attribute(&sum(10), &sum(20), &sum(0), &sum(900), &sum(800), &sum(0)),
            Bottleneck::Collate
        );
    }

    #[test]
    fn ties_break_toward_the_earlier_stage() {
        assert_eq!(
            EpochReport::attribute(
                &sum(500),
                &sum(500),
                &sum(500),
                &sum(500),
                &sum(100),
                &sum(0)
            ),
            Bottleneck::Fetch
        );
    }

    #[test]
    fn stage_names_are_stable() {
        for (b, name) in [
            (Bottleneck::Fetch, "fetch"),
            (Bottleneck::Decode, "decode"),
            (Bottleneck::Transform, "transform"),
            (Bottleneck::Collate, "collate"),
            (Bottleneck::Consumer, "consumer"),
        ] {
            assert_eq!(b.name(), name);
            assert_eq!(b.to_string(), name);
        }
    }
}
