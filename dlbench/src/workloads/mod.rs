//! The four workloads and what they share: the round contract the
//! harness drives, the dataset builder, and the in-process hub.

pub mod ingest;
pub mod query;
pub mod train_stream;

use std::sync::Arc;

use deeplake_core::dataset::TensorOptions;
use deeplake_core::{Dataset, Row};
use deeplake_hub::{Hub, HubHandle, HubOptions};
use deeplake_remote::{RemoteOptions, RemoteProvider};
use deeplake_tensor::{Dtype, Htype};

use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::store::SpanProvider;

pub const NAMES: [&str; 4] = ["ingest", "train_stream", "query_hot", "query_cold"];

/// Rows per `extend_rows` + `flush` when a dataset is written.
pub const WRITE_BATCH: usize = 256;

/// Input sizes. `FULL` is what every reported number is measured at;
/// `TINY` exists so the crate's tests can run each workload in well
/// under a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `ingest`: batches of [`WRITE_BATCH`] rows per round.
    pub ingest_batches: usize,
    /// `train_stream`: rows in the dataset.
    pub train_rows: usize,
    /// `train_stream`: shuffled epochs per round.
    pub train_epochs: usize,
    /// `train_stream`: loader worker threads. With more than one, rows
    /// reach the shuffle buffer in completion order, so only the block
    /// order — not the delivery order — is a function of the seed.
    pub train_workers: usize,
    /// `query_*`: rows in the dataset.
    pub query_rows: usize,
    /// `query_hot`: requests per round.
    pub hot_requests: usize,
    /// `query_cold`: queries per round (a multiple of 3).
    pub cold_queries: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        ingest_batches: 64,
        train_rows: 16_384,
        train_epochs: 2,
        train_workers: 2,
        query_rows: 50_000,
        hot_requests: 32_000,
        cold_queries: 60,
    };
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        ingest_batches: 2,
        train_rows: 1024,
        train_epochs: 1,
        train_workers: 1,
        query_rows: 4096,
        hot_requests: 64,
        cold_queries: 6,
    };
}

/// What one round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Rows (`ingest`, `train_stream`) or queries (`query_*`) attempted.
    pub items: u64,
    /// Items whose operation returned an error or whose output was wrong.
    pub failed: u64,
}

/// Monotonic counters the harness differences over the measured rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Backing-store round trips (`put` calls on `ingest`).
    pub storage_round_trips: u64,
    /// Backing-store logical reads.
    pub storage_logical_reads: u64,
    /// Client bytes sent + received.
    pub wire_bytes: u64,
}

pub trait Workload {
    /// Run one fixed-size round, pushing one latency sample (ms) per
    /// latency unit. Timed by the caller.
    fn round(&mut self, lat_ms: &mut Vec<f64>) -> Round;

    /// Check the outputs of the round just run against the reference;
    /// returns how many were wrong. Not timed.
    fn verify(&mut self) -> u64 {
        0
    }

    fn counts(&self) -> Counts;

    /// What writing the workload's dataset cost (`ingest`: the last
    /// round's dataset).
    fn write_phase(&self) -> WritePhase;

    /// End-of-run checks of the workload's premises; each broken one is
    /// a message. Not timed.
    fn premises(&mut self) -> Vec<String>;

    /// Per-layer metrics only this workload can measure, from the
    /// program's own counters and from probes on the workload's state.
    /// `client_mean_ms` is the latency unit's mean over the traced run's
    /// untraced rounds.
    fn layer_metrics(&mut self, client_mean_ms: f64, out: &mut Metrics);
}

/// Store-side cost of writing one dataset.
#[derive(Debug, Clone, Copy, Default)]
pub struct WritePhase {
    pub rows: u64,
    /// Raw bytes of the samples handed to `extend_rows`.
    pub user_bytes: u64,
    pub puts: u64,
    /// Bytes passed to `put`, rewrites of the open chunk included.
    pub bytes_written: u64,
    /// Bytes the store holds afterwards.
    pub stored_bytes: u64,
    /// Chunk objects the store holds afterwards.
    pub chunks: u64,
}

impl WritePhase {
    /// Read off a store that has seen nothing but the write of `rows`.
    pub fn of(store: &SpanProvider, rows: &[Row]) -> Self {
        let stats = store.stats();
        let keys = deeplake_storage::StorageProvider::list(store, "").unwrap_or_default();
        WritePhase {
            rows: rows.len() as u64,
            user_bytes: rows.iter().map(|r| r.nbytes() as u64).sum(),
            puts: stats.put_requests,
            bytes_written: stats.bytes_written,
            stored_bytes: store.stored_bytes(),
            chunks: keys.iter().filter(|k| k.contains("/chunks/")).count() as u64,
        }
    }
}

/// What a workload is given, generated from the seed.
pub struct Inputs {
    pub workload: String,
    pub seed: u64,
    pub scale: Scale,
    /// The rows the workload writes.
    pub rows: Arc<Vec<Row>>,
}

impl Inputs {
    /// `None` for a workload name that does not exist.
    pub fn generate(workload: &str, seed: u64, scale: Scale) -> Option<Self> {
        let rows = match workload {
            "ingest" => crate::gen::ingest_rows(seed, scale.ingest_batches * WRITE_BATCH),
            "train_stream" => crate::gen::train_rows(seed, scale.train_rows),
            "query_hot" | "query_cold" => crate::gen::query_rows(seed, scale.query_rows),
            _ => return None,
        };
        Some(Inputs {
            workload: workload.to_string(),
            seed,
            scale,
            rows: Arc::new(rows),
        })
    }

    /// Build the workload's state.
    pub fn set_up(&self, tracer: &Tracer) -> Box<dyn Workload> {
        match self.workload.as_str() {
            "ingest" => Box::new(ingest::Ingest::setup(self, tracer)),
            "train_stream" => Box::new(train_stream::TrainStream::setup(self, tracer)),
            "query_hot" => Box::new(query::QueryHot::setup(self, tracer)),
            _ => Box::new(query::QueryCold::setup(self, tracer)),
        }
    }
}

/// One tensor of a dataset the benchmark writes.
pub struct TensorSpec {
    pub name: &'static str,
    pub htype: Htype,
    pub dtype: Option<Dtype>,
    /// Chunk size target, scaled to the benchmark's small samples so a
    /// tensor spans many chunks as production-sized data would.
    pub chunk_target_bytes: u64,
}

/// `Dataset::create` + tensors, each call under a `core` span.
pub fn create_dataset(
    store: &Arc<SpanProvider>,
    tensors: &[TensorSpec],
    tracer: &Tracer,
) -> Dataset {
    let mut ds = tracer.in_span("core", "create", || {
        Dataset::create(store.dyn_provider(), "dlbench").expect("create dataset")
    });
    for t in tensors {
        let mut opts = TensorOptions::new(t.htype.clone());
        opts.dtype = t.dtype;
        opts.chunk_target_bytes = Some(t.chunk_target_bytes);
        tracer.in_span("core", "create_tensor", || {
            ds.create_tensor_opts(t.name, opts).expect("create tensor")
        });
    }
    ds
}

/// Append `rows` in [`WRITE_BATCH`]-row batches (`extend_rows` + `flush`
/// each) and `commit` once. Returns the failed row count; `on_batch`
/// receives each batch's wall time in milliseconds.
pub fn write_rows(
    ds: &mut Dataset,
    rows: &[Row],
    tracer: &Tracer,
    mut on_batch: impl FnMut(f64),
) -> u64 {
    let mut failed = 0;
    for batch in rows.chunks(WRITE_BATCH) {
        let start = std::time::Instant::now();
        let appended = tracer.in_span("core", "extend_rows", || ds.extend_rows(batch.to_vec()));
        let flushed = tracer.in_span("core", "flush", || ds.flush());
        on_batch(start.elapsed().as_secs_f64() * 1e3);
        if appended.is_err() || flushed.is_err() {
            failed += batch.len() as u64;
        }
    }
    if tracer
        .in_span("core", "commit", || ds.commit("dlbench"))
        .is_err()
    {
        failed += rows.len() as u64;
    }
    failed
}

/// The hub every served workload runs against: in-process, two pool
/// workers, one event loop, a 4 MiB result cache.
pub fn start_hub(store: &Arc<SpanProvider>) -> HubHandle {
    Hub::builder()
        .default_mount(store.dyn_provider())
        .options(HubOptions {
            workers: 2,
            reader_threads: 1,
            cache_bytes: 4 << 20,
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .expect("bind hub on loopback")
}

/// One socket, no trace envelope.
pub fn dial(hub: &HubHandle) -> RemoteProvider {
    RemoteProvider::connect_with(
        hub.addr(),
        RemoteOptions {
            pool_size: 1,
            tracing: false,
            ..RemoteOptions::default()
        },
    )
    .expect("dial hub")
}

/// p50 of a hub histogram in units of `ns_per_unit` nanoseconds (1e3 →
/// µs, 1e6 → ms); 0 when the histogram is empty or absent. The hub's
/// histograms are log-bucketed: a quantile is within 25 % of the sample.
pub fn hub_p50(snap: &deeplake_obs::MetricsSnapshot, name: &str, ns_per_unit: f64) -> f64 {
    snap.histogram(name)
        .filter(|h| !h.is_empty())
        .map_or(0.0, |h| h.quantile(0.5) as f64 / ns_per_unit)
}

/// Mean of a hub histogram, same units. Exact (sum / count), so means —
/// unlike the bucketed quantiles — can be subtracted from one another.
pub fn hub_mean(snap: &deeplake_obs::MetricsSnapshot, name: &str, ns_per_unit: f64) -> f64 {
    snap.histogram(name)
        .filter(|h| !h.is_empty())
        .map_or(0.0, |h| h.mean() / ns_per_unit)
}

/// The `hub.*` per-layer metrics, from the hub's own instruments.
/// `execute_hist` names the histogram of the stage that does the work
/// (`hub.execute_ns` for missed queries, `hub.read_ns` for batched reads,
/// none for cache hits); `client_mean_ms` is the mean client-observed
/// latency the stage means are compared against.
pub fn hub_layer_metrics(
    hub: &HubHandle,
    execute_hist: Option<&str>,
    client_mean_ms: f64,
    out: &mut Metrics,
) {
    let snap = hub.metrics();
    out.set(
        "hub.queue_wait_us_p50",
        hub_p50(&snap, "hub.queue_wait_ns", 1e3),
    );
    out.set(
        "hub.cache_lookup_us_p50",
        hub_p50(&snap, "hub.cache_lookup_ns", 1e3),
    );
    out.set(
        "hub.execute_ms_p50",
        execute_hist.map_or(0.0, |name| hub_p50(&snap, name, 1e6)),
    );
    out.set("hub.storage_ms_p50", hub_p50(&snap, "hub.storage_ns", 1e6));
    out.set("hub.flush_us_p50", hub_p50(&snap, "hub.flush_ns", 1e3));
    out.set("hub.cache_hit_ratio", hub.cache().hit_ratio());
    out.set("hub.cache_evictions", hub.cache().evictions() as f64);
    out.set("hub.busy_rejections", hub.stats().busy_rejections() as f64);
    // storage time is inside execute, so it is not added again
    let staged_ms = ["hub.queue_wait_ns", "hub.cache_lookup_ns", "hub.flush_ns"]
        .into_iter()
        .chain(execute_hist)
        .map(|name| hub_mean(&snap, name, 1e6))
        .sum::<f64>();
    let unattributed = if client_mean_ms > 0.0 {
        1.0 - staged_ms / client_mean_ms
    } else {
        0.0
    };
    out.set("hub.unattributed_frac", unattributed);
}
