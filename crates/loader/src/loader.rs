//! The streaming dataloader engine.
//!
//! An epoch is one plan, drawn when [`DataLoader::epoch`] is called
//! from the loader's seed and the epoch's index
//! ([`shuffle::epoch_plan`](crate::shuffle::epoch_plan)): the blocks in
//! epoch order — a task each, `block_rows` rows give or take half,
//! ending on a chunk boundary where one is near — and the order their
//! rows are delivered in. An epoch spawns `num_workers` native threads
//! that only run tasks: a worker fetches its block's chunks in one
//! storage call (chunk fetch + decompression happen *in the worker*,
//! §4.6), assembles its rows, applies the user transform, and sends the
//! whole block back as ONE message. A failing sample travels in its
//! task's message behind the rows before it.
//!
//! Every decision of the epoch is made by its socket-free core,
//! [`scheduler::Epoch`](crate::scheduler::Epoch): which task is issued
//! next (in epoch order, as far as the credit reaches), where a block's
//! rows are held, which row is delivered next (the plan's delivery
//! order, as soon as that row is there) and where a failure surfaces.
//! [`EpochIter`] drives it over the channels, records the instruments
//! and collates each sample into its column of a [`Batch`]. So an
//! epoch's order is a function of the seed and the epoch index whatever
//! the worker count or thread timing, shuffled or not, and the rows the
//! consumer holds undelivered never exceed the credit: the plan's reach
//! (under `buffer_rows` shuffled, 0 sequential) plus the in-flight
//! budget plus one block per worker.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use deeplake_core::{CoreError, Dataset};
use deeplake_obs::{
    with_current, Counter, MetricsRegistry, MetricsSnapshot, SpanRecord, TraceContext,
};

use crate::batch::{Batch, LoadedRow};
use crate::config::{LoaderBuilder, LoaderConfig, RowTransform};
use crate::memory::MemoryEstimator;
use crate::report::{EpochReport, LoaderObs, StageSummary, WorkerSummary};
use crate::scheduler::{Epoch, Step};
use crate::shuffle::{block_ends, epoch_plan};
use crate::Result;

/// A reusable streaming dataloader bound to a dataset and row set.
pub struct DataLoader {
    dataset: Arc<Dataset>,
    indices: Vec<u64>,
    /// One past the last position in `indices` of each block (see
    /// [`block_ends`]).
    blocks: Vec<usize>,
    config: LoaderConfig,
    tensor_names: Arc<Vec<String>>,
    /// The index of the next epoch: each [`epoch`](Self::epoch) takes
    /// one, and its plan is drawn from it.
    next_epoch: AtomicU64,
    /// Client-level instruments, lifetime of this loader — every epoch
    /// records into the same registry, mirroring how a hub's epochs of
    /// traffic share `HubObs`.
    obs: LoaderObs,
}

impl DataLoader {
    /// Start building a loader over all rows of `dataset`.
    pub fn builder(dataset: Arc<Dataset>) -> LoaderBuilder {
        LoaderBuilder::new(dataset)
    }

    pub(crate) fn from_parts(
        dataset: Arc<Dataset>,
        indices: Option<Vec<u64>>,
        config: LoaderConfig,
    ) -> Result<Self> {
        let tensor_names: Vec<String> = match &config.tensors {
            Some(names) => {
                for n in names {
                    dataset.tensor_meta(n)?; // validate
                }
                names.clone()
            }
            None => dataset.tensors().into_iter().map(str::to_string).collect(),
        };
        let indices = indices.unwrap_or_else(|| (0..dataset.len()).collect());
        let max = dataset.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= max) {
            return Err(CoreError::RowOutOfRange { row: bad, len: max });
        }
        // the primary tensor: the one whose chunks a fixed cut would
        // split most often
        let mut primary = Vec::new();
        for name in &tensor_names {
            let spans = dataset.chunk_spans(name)?;
            if spans.len() > primary.len() {
                primary = spans;
            }
        }
        let block_rows = config.shuffle.unwrap_or_default().block_rows;
        let blocks = block_ends(&indices, &primary, block_rows);
        Ok(DataLoader {
            dataset,
            indices,
            blocks,
            config,
            tensor_names: Arc::new(tensor_names),
            next_epoch: AtomicU64::new(0),
            obs: LoaderObs::new(),
        })
    }

    /// Snapshot of the loader's lifetime instruments (`loader.*` names:
    /// per-stage histograms, queue-depth gauge, row/batch/byte counters
    /// and windowed rates, per-worker utilization counters). Safe to
    /// scrape from another thread while an epoch runs — the loader-side
    /// mirror of `ClusterClient::metrics()`.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.registry.snapshot()
    }

    /// The underlying registry, for callers that want live handles
    /// (e.g. to merge loader metrics into a fleet view).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.obs.registry
    }

    /// Rows per epoch.
    pub fn len_rows(&self) -> usize {
        self.indices.len()
    }

    /// Batches per epoch.
    pub fn len_batches(&self) -> usize {
        let n = self.indices.len();
        if self.config.drop_last {
            n / self.config.batch_size
        } else {
            n.div_ceil(self.config.batch_size)
        }
    }

    /// Start one epoch: draw its plan, spawn workers, issue the first
    /// tasks and return the batch iterator.
    ///
    /// The `e`-th call (from 0) plays epoch `e` of the loader's seed, so
    /// a loader's epochs differ from each other and two loaders built
    /// alike play the same epochs, at any worker count.
    ///
    /// The epoch mints a fresh [`TraceContext`] root (the "training
    /// step" span); every worker task fetches under a child span of it,
    /// so a dataset served by a hub parents its queue/execute/storage
    /// spans under this epoch's trace — one connected tree from the
    /// training loop down to object storage.
    pub fn epoch(&self) -> EpochIter {
        // The epoch's view of every instrument is its growth since this
        // reading, so it comes first — before the schedule sample.
        let base = self.obs.registry.snapshot();
        self.obs.epochs.inc();
        // Relaxed: the index names the epoch and publishes no data.
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        let sched_t = Instant::now();
        // 1. the epoch's plan
        let shuffle = self.config.shuffle;
        let plan = epoch_plan(&self.indices, &self.blocks, shuffle.as_ref(), epoch);

        // 2. in-flight budget (rows)
        let estimator = MemoryEstimator::for_dataset(&self.dataset, Some(&self.tensor_names));
        let mut in_flight = self.config.prefetch_batches.max(1) * self.config.batch_size;
        if let Some(budget) = self.config.memory_budget_bytes {
            in_flight = in_flight.min(estimator.rows_in_flight(budget, self.config.batch_size));
        }

        // 3. the credit: one task per block, each issued once it starts
        // within `allowance` positions of the next row to deliver
        let block_rows = shuffle.unwrap_or_default().block_rows;
        let workers = self.config.num_workers;
        let allowance = plan.reach + in_flight + workers * block_rows;
        let tasks = plan.ends.len();

        self.obs.stages.schedule.record_duration(sched_t.elapsed());
        let root = TraceContext::root();
        let spans: Arc<Mutex<Vec<SpanRecord>>> = Arc::new(Mutex::new(Vec::new()));
        let sent = Arc::new(AtomicU64::new(0));

        // 4. workers. Both channels hold every task the epoch has, so
        // neither blocks a sender: the credit is the bound.
        let (task_tx, task_rx) = bounded::<Range<usize>>(tasks);
        let (tx, rx) = bounded::<TaskRows>(tasks);
        let order = Arc::new(plan.order);
        let mut handles = Vec::with_capacity(workers);
        for w_idx in 0..workers {
            let dataset = self.dataset.clone();
            let order = order.clone();
            let task_rx = task_rx.clone();
            let tensor_names = self.tensor_names.clone();
            let transform = self.config.transform.clone();
            let tx = tx.clone();
            let w = WorkerObs {
                obs: self.obs.clone(),
                root,
                spans: spans.clone(),
                sent: sent.clone(),
                busy: self.obs.registry.counter(&worker_busy_name(w_idx)),
                tasks: self.obs.registry.counter(&worker_tasks_name(w_idx)),
            };
            handles.push(std::thread::spawn(move || {
                while let Ok(task) = task_rx.recv() {
                    let rows = &order[task.clone()];
                    let done =
                        run_task(&dataset, &tensor_names, task, rows, transform.as_ref(), &w);
                    // queued before the consumer can take them off (a
                    // send that fails is settled by the epoch's drop)
                    let queued = done.rows.len() as u64;
                    w.obs.queue_depth.add(queued as i64);
                    w.sent.fetch_add(queued, Ordering::Relaxed);
                    if tx.send(done).is_err() {
                        return; // consumer hung up
                    }
                }
            }));
        }
        drop(tx);

        let mut epoch = EpochIter {
            rx,
            tasks: Some(task_tx),
            handles,
            epoch: Epoch::new(plan.ends, plan.delivery, allowance),
            batch_size: self.config.batch_size,
            drop_last: self.config.drop_last,
            started: Instant::now(),
            obs: self.obs.clone(),
            base,
            sent,
            recvd: 0,
            root,
            spans,
            in_flight: in_flight.max(1),
            resumed_at: None,
        };
        epoch.issue();
        epoch
    }
}

/// Run one task: fetch the chunks of its `rows` (epoch positions
/// `task`) in one storage call, assemble the rows and apply the user
/// transform. A sample that cannot be read fails the task after the
/// rows before it; a panic (in a user transform, say) fails it with no
/// rows, instead of leaving its rows missing for good.
fn run_task(
    dataset: &Dataset,
    tensor_names: &Arc<Vec<String>>,
    task: Range<usize>,
    rows: &[u64],
    transform: Option<&RowTransform>,
    w: &WorkerObs,
) -> TaskRows {
    let busy_t = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        // Every storage call of this task runs under one child span of
        // the epoch root; a served hub reads it from the wire and
        // parents its own span tree under it.
        let fetch_ctx = w.root.child();
        // ONE storage call covers every chunk this task touches (§3.5
        // scatter-gather). A chunk the call could not deliver is retried
        // by `PrefetchedChunks::get` on the single-key path, so a sample
        // that cannot be read fails with the error `Dataset::get`
        // reports for it.
        let fetch_t = Instant::now();
        let prefetched = with_current(fetch_ctx, || dataset.prefetch_chunks(tensor_names, rows));
        let fetch_span_ns = fetch_t.elapsed().as_nanos() as u64;
        let mut loaded: Vec<LoadedRow> = Vec::with_capacity(rows.len());
        let failure: Option<String> = match prefetched {
            Ok(pf) => {
                let decode_t = Instant::now();
                let failure = rows.iter().find_map(|&row_idx| {
                    let mut samples = Vec::with_capacity(tensor_names.len());
                    for name in tensor_names.iter() {
                        match pf.get(dataset, name, row_idx) {
                            Ok(sample) => samples.push(sample),
                            Err(e) => return Some(format!("fetch {name}[{row_idx}]: {e}")),
                        }
                    }
                    loaded.push(LoadedRow {
                        names: tensor_names.clone(),
                        samples,
                    });
                    None
                });
                // Stage samples land the moment the stage finishes —
                // before the send — so a consumer dropping mid-epoch
                // loses none.
                let stages = &w.obs.stages;
                stages.fetch.record(pf.fetch_ns());
                stages
                    .decode
                    .record(pf.decode_ns() + decode_t.elapsed().as_nanos() as u64);
                failure
            }
            Err(e) => Some(format!("fetch {} rows: {e}", rows.len())),
        };
        w.spans.lock().unwrap().push(SpanRecord {
            name: "fetch".into(),
            span_id: fetch_ctx.span_id,
            parent_span: w.root.span_id,
            dur_ns: fetch_span_ns,
        });
        if let Some(f) = transform {
            let t = Instant::now();
            let mut names = tensor_names.clone();
            loaded = loaded
                .into_iter()
                .map(|row| LoadedRow::from_row(f(row.into_row()), &mut names))
                .collect();
            w.obs.stages.transform.record_duration(t.elapsed());
        }
        (loaded, failure)
    }));
    let (rows, failure) = run.unwrap_or_else(|_| {
        let panicked = format!("task at position {} panicked", task.start);
        (Vec::new(), Some(panicked))
    });
    // busy time excludes the send: blocking there is backpressure
    w.busy.add(busy_t.elapsed().as_nanos() as u64);
    w.tasks.inc();
    TaskRows {
        task,
        rows,
        failure,
    }
}

fn worker_busy_name(worker: usize) -> String {
    format!("loader.worker.{worker}.busy_ns")
}

fn worker_tasks_name(worker: usize) -> String {
    format!("loader.worker.{worker}.tasks")
}

/// Per-worker bundle of shared instruments, moved into each worker
/// thread.
struct WorkerObs {
    obs: LoaderObs,
    /// The epoch's root: each task fetches under a child span of it.
    root: TraceContext,
    spans: Arc<Mutex<Vec<SpanRecord>>>,
    sent: Arc<AtomicU64>,
    busy: Counter,
    tasks: Counter,
}

/// What a worker sends for one task: its rows in epoch order — all of
/// them, or those before the sample that failed, then the failure.
struct TaskRows {
    task: Range<usize>,
    rows: Vec<LoadedRow>,
    failure: Option<String>,
}

/// One epoch's delivery totals so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoaderStats {
    /// Rows delivered.
    pub rows: u64,
    /// Batches delivered.
    pub batches: u64,
    /// Decoded payload bytes delivered.
    pub bytes: u64,
    /// Wall time of the epoch so far.
    pub elapsed: Duration,
}

impl LoaderStats {
    /// Delivered rows per second.
    pub fn rows_per_sec(&self) -> f64 {
        self.per_sec(self.rows as f64)
    }

    /// Delivered megabytes per second.
    pub fn mb_per_sec(&self) -> f64 {
        self.per_sec(self.bytes as f64 / 1_000_000.0)
    }

    fn per_sec(&self, n: f64) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            n / secs
        }
    }
}

/// Iterator over one epoch's batches: a driver of the epoch's
/// [`Epoch`] over the worker threads' channels, which records the
/// loader's instruments and collates.
pub struct EpochIter {
    rx: Receiver<TaskRows>,
    /// Where tasks go to the workers, until the epoch is over.
    tasks: Option<Sender<Range<usize>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// What is issued, held, delivered and failed.
    epoch: Epoch<LoadedRow>,
    batch_size: usize,
    drop_last: bool,
    started: Instant,
    /// The loader's instruments — the only place this epoch records.
    obs: LoaderObs,
    /// The registry as `epoch()` found it; [`stats`](Self::stats) and
    /// [`report`](Self::report) are the growth since.
    base: MetricsSnapshot,
    sent: Arc<AtomicU64>,
    recvd: u64,
    root: TraceContext,
    spans: Arc<Mutex<Vec<SpanRecord>>>,
    in_flight: usize,
    /// When the consumer last left `next()` — the gap until it comes
    /// back is GPU/compute time, the `loader.consumer_gap_ns` signal.
    resumed_at: Option<Instant>,
}

impl EpochIter {
    /// Statistics up to now (final after the iterator returns `None`).
    pub fn stats(&self) -> LoaderStats {
        LoaderStats {
            rows: self.grown("loader.rows", self.obs.rows.get()),
            batches: self.grown("loader.batches", self.obs.batches.get()),
            bytes: self.grown("loader.bytes", self.obs.bytes.get()),
            elapsed: self.started.elapsed(),
        }
    }

    /// How far the counter `name`, reading `now`, has grown this epoch
    /// (a worker counter first registered by this epoch grew from 0).
    fn grown(&self, name: &str, now: u64) -> u64 {
        now - self.base.counter(name).unwrap_or(0)
    }

    /// The epoch's trace context — pass it to other instruments (or
    /// compare against hub slow-log entries) to stitch a full tree.
    pub fn trace(&self) -> TraceContext {
        self.root
    }

    /// Build the epoch's [`EpochReport`]: per-stage quantiles for
    /// *this* epoch (the registry's growth since the epoch began — see
    /// [`report`](crate::report) for what that means when two epochs of
    /// one loader overlap), per-worker utilization, the client-side span
    /// records, and the attributed bottleneck. Callable mid-epoch (a
    /// partial report) or after exhaustion (the final one).
    pub fn report(&self) -> EpochReport {
        let stats = self.stats();
        let mut spans = self.spans.lock().unwrap().clone();
        spans.push(SpanRecord {
            name: "epoch".into(),
            span_id: self.root.span_id,
            parent_span: 0,
            dur_ns: stats.elapsed.as_nanos() as u64,
        });
        let now = self.obs.registry.snapshot();
        let stage = |name| StageSummary::between(&self.base, &now, name);
        let grown = |name: String| self.grown(&name, now.counter(&name).unwrap_or(0));
        let fetch = stage("loader.fetch_ns");
        let decode = stage("loader.decode_ns");
        let transform = stage("loader.transform_ns");
        let collate = stage("loader.collate_ns");
        let queue_wait = stage("loader.queue_wait_ns");
        let consumer_gap = stage("loader.consumer_gap_ns");
        let bottleneck = EpochReport::attribute(
            &fetch,
            &decode,
            &transform,
            &collate,
            &queue_wait,
            &consumer_gap,
        );
        EpochReport {
            stats,
            schedule: stage("loader.schedule_ns"),
            fetch,
            decode,
            transform,
            collate,
            queue_wait,
            consumer_gap,
            // the worker threads are joined only on drop, so the handle
            // count is this epoch's worker count for as long as `self`
            workers: (0..self.handles.len())
                .map(|worker| WorkerSummary {
                    worker,
                    busy_ns: grown(worker_busy_name(worker)),
                    tasks: grown(worker_tasks_name(worker)),
                })
                .collect(),
            in_flight_rows: self.in_flight,
            trace_id: self.root.trace_id,
            root_span: self.root.span_id,
            spans,
            bottleneck,
        }
    }

    /// Send the workers every task the credit reaches.
    fn issue(&mut self) {
        let Some(tasks) = &self.tasks else { return };
        while let Some(task) = self.epoch.issue() {
            // the workers outlive the sender: it cannot fail
            let _ = tasks.send(task);
        }
    }

    /// Wait for a task's rows — `None` once every worker has left — as
    /// one `loader.queue_wait_ns` sample.
    fn receive(&mut self) -> Option<TaskRows> {
        let wait_t = Instant::now();
        let received = self.rx.recv().ok();
        self.obs.stages.queue_wait.record_duration(wait_t.elapsed());
        received
    }

    /// The next batch: the epoch's rows in delivery order until it is
    /// full, receiving a task's rows whenever the next row has not
    /// arrived. A failure ends the epoch after the full batches before
    /// it; so does the end of the plan, after its partial batch unless
    /// `drop_last`.
    fn advance(&mut self) -> Option<Result<Batch>> {
        let mut rows = Vec::with_capacity(self.batch_size);
        while rows.len() < self.batch_size {
            match self.epoch.step() {
                Step::Row(row) => rows.push(row),
                Step::Wait => {
                    // the rows delivered since the last receive may have
                    // brought the next row's task within the credit
                    self.issue();
                    let done = self
                        .receive()
                        .expect("a worker holds the sender while a task is outstanding");
                    let n = done.rows.len() as u64;
                    self.obs.queue_depth.add(-(n as i64));
                    self.recvd += n;
                    self.epoch.complete(done.task, done.rows, done.failure);
                }
                Step::Failed(message) => {
                    self.tasks = None;
                    return Some(Err(CoreError::Corrupt(format!(
                        "loader worker failed: {message}"
                    ))));
                }
                Step::Done => {
                    // every task is in: hang up, and the receive that
                    // finds the channel closed waits for the workers to
                    // leave
                    if self.tasks.take().is_some() {
                        self.receive();
                    }
                    if rows.is_empty() || self.drop_last {
                        return None;
                    }
                    break;
                }
            }
        }
        // the workers run on while the batch is collated and consumed
        self.issue();
        let collate_t = Instant::now();
        let batch = Batch::collate_loaded(rows.into_iter());
        let obs = &self.obs;
        obs.stages.collate.record_duration(collate_t.elapsed());
        let rows_n = batch.len() as u64;
        let bytes_n = batch.nbytes() as u64;
        obs.rows.add(rows_n);
        obs.batches.inc();
        obs.bytes.add(bytes_n);
        obs.rows_rate.add(rows_n);
        obs.batches_rate.add(1);
        obs.bytes_rate.add(bytes_n);
        Some(Ok(batch))
    }
}

impl Iterator for EpochIter {
    type Item = Result<Batch>;

    fn next(&mut self) -> Option<Self::Item> {
        // Time since the consumer last left `next()` = the GPU/compute
        // gap. Recorded against queue_wait by the attribution rule: a
        // consumer away longer than it waits means the pipeline kept up.
        if let Some(t) = self.resumed_at.take() {
            self.obs.stages.consumer_gap.record_duration(t.elapsed());
        }
        let out = self.advance();
        self.resumed_at = Some(Instant::now());
        out
    }
}

impl Drop for EpochIter {
    fn drop(&mut self) {
        // release workers waiting for a task (one mid-task finds the
        // receiver gone when it sends), then join
        self.tasks = None;
        drop(std::mem::replace(&mut self.rx, crossbeam::channel::never()));
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Workers are joined, so `sent` is final: settle the queue-depth
        // gauge for rows that were in flight when the consumer dropped
        // mid-epoch, leaving it at zero for the next epoch.
        let residue = self.sent.load(Ordering::Acquire) as i64 - self.recvd as i64;
        if residue != 0 {
            self.obs.queue_depth.add(-residue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplake_codec::Compression;
    use deeplake_core::dataset::TensorOptions;
    use deeplake_storage::MemoryProvider;
    use deeplake_tensor::{Htype, Sample};

    fn dataset(rows: u64) -> Arc<Dataset> {
        let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "loader").unwrap();
        ds.create_tensor_opts("images", {
            let mut o = TensorOptions::new(Htype::Image);
            o.sample_compression = Some(Compression::None);
            o.chunk_target_bytes = Some(16 * 1024);
            o
        })
        .unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        for i in 0..rows {
            ds.append_row(vec![
                (
                    "images",
                    Sample::from_slice([8, 8, 3], &[(i % 251) as u8; 192]).unwrap(),
                ),
                ("labels", Sample::scalar((i % 10) as i32)),
            ])
            .unwrap();
        }
        ds.flush().unwrap();
        Arc::new(ds)
    }

    fn labels_of(batch: &Batch) -> Vec<i32> {
        let col = batch.column("labels").unwrap();
        (0..col.len())
            .map(|i| col.get(i).unwrap().get_f64(0).unwrap() as i32)
            .collect()
    }

    #[test]
    fn sequential_epoch_is_ordered_and_complete() {
        let ds = dataset(100);
        let loader = DataLoader::builder(ds)
            .batch_size(16)
            .num_workers(4)
            .build()
            .unwrap();
        assert_eq!(loader.len_rows(), 100);
        assert_eq!(loader.len_batches(), 7);
        let mut all = Vec::new();
        for batch in loader.epoch() {
            all.extend(labels_of(&batch.unwrap()));
        }
        let expect: Vec<i32> = (0..100).map(|i| i % 10).collect();
        assert_eq!(all, expect, "multi-worker delivery must stay in order");
    }

    /// `rows` rows of one label each, the label being the row index.
    fn labels_dataset(rows: u64) -> Arc<Dataset> {
        let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "labels").unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        for i in 0..rows {
            ds.append_row(vec![("labels", Sample::scalar(i as i32))])
                .unwrap();
        }
        ds.flush().unwrap();
        Arc::new(ds)
    }

    /// The labels of `epochs` consecutive epochs of one loader.
    fn epochs_of(loader: &DataLoader, epochs: usize) -> Vec<Vec<i32>> {
        (0..epochs)
            .map(|_| {
                loader
                    .epoch()
                    .flat_map(|b| labels_of(&b.unwrap()))
                    .collect()
            })
            .collect()
    }

    /// FNV-1a over the delivered labels, one label at a time.
    fn digest(labels: &[i32]) -> u64 {
        labels.iter().fold(0xcbf2_9ce4_8422_2325, |h, &l| {
            (h ^ l as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let ds = labels_dataset(2000);
        for shuffle in [None, Some(42)] {
            let collect = |workers: usize| {
                let mut builder = DataLoader::builder(ds.clone())
                    .batch_size(8)
                    .num_workers(workers);
                if let Some(seed) = shuffle {
                    builder = builder.shuffle(seed);
                }
                epochs_of(&builder.build().unwrap(), 2)
            };
            let one = collect(1);
            assert_eq!(one, collect(2), "shuffle {shuffle:?}");
            assert_eq!(one, collect(8), "shuffle {shuffle:?}");
        }
    }

    /// Each epoch of a shuffled loader is drawn anew, and the same
    /// (seed, epoch) is the same order on another loader.
    #[test]
    fn epochs_differ_and_a_seed_and_epoch_fix_the_order() {
        let ds = labels_dataset(2000);
        let loader = |workers| {
            DataLoader::builder(ds.clone())
                .batch_size(32)
                .num_workers(workers)
                .shuffle(42)
                .build()
                .unwrap()
        };
        let a = epochs_of(&loader(4), 3);
        let b = epochs_of(&loader(3), 3);
        assert_eq!(a, b);
        for pair in a.windows(2) {
            let moved = pair[0].iter().zip(&pair[1]).filter(|(x, y)| x != y).count();
            assert!(moved > 1500, "consecutive epochs differ at {moved} of 2000");
        }
        let mut sorted = a[2].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..2000).collect::<Vec<_>>());
    }

    /// Epoch 0 of `shuffle(42)` over 2,000 rows, at 8 workers, is the
    /// order one worker delivered before an epoch was a plan.
    #[test]
    fn golden_first_epoch_of_seed_42() {
        let loader = DataLoader::builder(labels_dataset(2000))
            .batch_size(32)
            .num_workers(8)
            .shuffle(42)
            .build()
            .unwrap();
        let labels = epochs_of(&loader, 1).remove(0);
        assert_eq!(labels.len(), 2000);
        assert_eq!(format!("{:016x}", digest(&labels)), "15d812a3590d1155");
    }

    /// A transform parks the rows of the epoch's first task. While it
    /// is parked, the other worker runs no further ahead than the
    /// credit: the rows delivered before one of the parked task's is
    /// due, plus the plan's reach, the in-flight budget and a block per
    /// worker. The park ends as soon as a row past the credit runs, or
    /// a quarter second after the other worker ran the in-flight budget
    /// ahead — only a loader that breaks the credit trips the check.
    #[test]
    fn a_parked_task_holds_the_others_to_the_credit() {
        use std::sync::Condvar;

        const ROWS: u64 = 4000;
        const WORKERS: usize = 2;
        const BATCH: usize = 32;
        let ds = labels_dataset(ROWS);
        for shuffle in [None, Some(42)] {
            let config = shuffle.map(|seed| crate::ShuffleConfig {
                seed,
                ..crate::ShuffleConfig::default()
            });
            let indices: Vec<u64> = (0..ROWS).collect();
            let block_rows = config.unwrap_or_default().block_rows;
            let blocks = block_ends(&indices, &ds.chunk_spans("labels").unwrap(), block_rows);
            let plan = epoch_plan(&indices, &blocks, config.as_ref(), 0);
            let first = plan.ends[0];
            let parked: Vec<u64> = plan.order[..first].to_vec();
            // delivery runs up to the first of the parked rows
            let delivered = plan.delivery.iter().position(|&p| p < first).unwrap();
            let in_flight = 2 * BATCH; // the default prefetch of 2 batches
            let credit = delivered + plan.reach + in_flight + WORKERS * block_rows;

            // (rows the others ran while the park held, park released)
            let state = Arc::new((Mutex::new((0usize, false)), Condvar::new()));
            let seen = state.clone();
            let mut builder = DataLoader::builder(ds.clone())
                .batch_size(BATCH)
                .num_workers(WORKERS)
                .transform(move |row| {
                    let label = row.get("labels").unwrap().get_f64(0).unwrap() as u64;
                    let (lock, wake) = &*seen;
                    let mut st = lock.lock().unwrap();
                    if !parked.contains(&label) {
                        if !st.1 {
                            st.0 += 1;
                            wake.notify_all();
                        }
                        return row;
                    }
                    let deadline = Instant::now() + Duration::from_secs(20);
                    let mut grace: Option<Instant> = None;
                    while !st.1 && st.0 <= credit {
                        let now = Instant::now();
                        if st.0 >= in_flight && grace.is_none() {
                            grace = Some(now + Duration::from_millis(250));
                        }
                        let until = grace.unwrap_or(deadline).min(deadline);
                        if now >= until {
                            break;
                        }
                        st = wake.wait_timeout(st, until - now).unwrap().0;
                    }
                    st.1 = true;
                    row
                });
            if let Some(cfg) = config {
                builder = builder.shuffle_with(cfg);
            }
            let labels = epochs_of(&builder.build().unwrap(), 1).remove(0);
            assert_eq!(labels.len(), ROWS as usize);
            let ahead = state.0.lock().unwrap().0;
            assert!(
                ahead <= credit,
                "shuffle {shuffle:?}: {ahead} rows ran past a parked task, credit {credit}"
            );
            assert!(
                ahead >= in_flight,
                "shuffle {shuffle:?}: {ahead} rows ran past a parked task before the deadline"
            );
        }
    }

    /// A task whose transform panics fails like a task whose fetch
    /// fails: the rows delivered before it, then one error, then the
    /// end — not an epoch that waits for its rows for ever.
    #[test]
    fn a_panicking_transform_ends_the_epoch_with_an_error() {
        let loader = DataLoader::builder(labels_dataset(100))
            .batch_size(8)
            .num_workers(3)
            .transform(|row| {
                let label = row.get("labels").unwrap().get_f64(0).unwrap();
                assert!(label != 40.0, "a transform that panics on row 40");
                row
            })
            .build()
            .unwrap();
        let mut epoch = loader.epoch();
        // the panicking task is the second block, rows 32..64
        for first in (0..32).step_by(8) {
            let batch = epoch.next().expect("a batch before the panic").unwrap();
            assert_eq!(labels_of(&batch)[0], first);
        }
        let err = epoch.next().expect("the failure").unwrap_err().to_string();
        assert!(err.contains("task at position 32 panicked"), "{err}");
        assert!(epoch.next().is_none());
    }

    /// A task is a function call: on the calling thread it returns its
    /// rows in epoch order, or no rows and the failure when the
    /// transform panics.
    #[test]
    fn a_task_runs_inline() {
        let ds = labels_dataset(40);
        let names = Arc::new(vec!["labels".to_string()]);
        let obs = LoaderObs::new();
        let w = WorkerObs {
            obs: obs.clone(),
            root: TraceContext::root(),
            spans: Arc::default(),
            sent: Arc::default(),
            busy: obs.registry.counter(&worker_busy_name(0)),
            tasks: obs.registry.counter(&worker_tasks_name(0)),
        };
        let rows: Vec<u64> = (8..16).rev().collect();
        let done = run_task(&ds, &names, 8..16, &rows, None, &w);
        assert_eq!((done.task, done.failure), (8..16, None));
        let labels: Vec<i32> = done
            .rows
            .iter()
            .map(|row| row.samples[0].get_f64(0).unwrap() as i32)
            .collect();
        assert_eq!(labels, (8..16).rev().collect::<Vec<_>>());

        let panics: RowTransform = Arc::new(|_| panic!("a transform that panics"));
        let done = run_task(&ds, &names, 8..16, &rows, Some(&panics), &w);
        assert!(done.rows.is_empty());
        assert_eq!(done.failure.as_deref(), Some("task at position 8 panicked"));
        assert_eq!(w.tasks.get(), 2);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let ds = dataset(200);
        let loader = DataLoader::builder(ds)
            .batch_size(32)
            .num_workers(4)
            .shuffle(42)
            .build()
            .unwrap();
        let mut images_sum = 0u64;
        let mut rows = 0usize;
        for batch in loader.epoch() {
            let b = batch.unwrap();
            rows += b.len();
            let col = b.column("images").unwrap();
            for i in 0..col.len() {
                images_sum += col.get(i).unwrap().get_f64(0).unwrap() as u64;
            }
        }
        assert_eq!(rows, 200);
        let expect: u64 = (0..200u64).map(|i| i % 251).sum();
        assert_eq!(images_sum, expect, "every row delivered exactly once");
    }

    #[test]
    fn batches_stack_uniform_tensors() {
        let ds = dataset(10);
        let loader = DataLoader::builder(ds)
            .batch_size(4)
            .num_workers(2)
            .build()
            .unwrap();
        let first = loader.epoch().next().unwrap().unwrap();
        match first.column("images").unwrap() {
            crate::batch::BatchColumn::Stacked(s) => {
                assert_eq!(s.shape().dims(), &[4, 8, 8, 3])
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drop_last_discards_partial() {
        let ds = dataset(10);
        let loader = DataLoader::builder(ds)
            .batch_size(4)
            .num_workers(1)
            .drop_last(true)
            .build()
            .unwrap();
        let sizes: Vec<usize> = loader.epoch().map(|b| b.unwrap().len()).collect();
        assert_eq!(sizes, vec![4, 4]);
        assert_eq!(loader.len_batches(), 2);
    }

    #[test]
    fn tensor_subset_streams_less() {
        let ds = dataset(10);
        let loader = DataLoader::builder(ds)
            .batch_size(5)
            .tensors(["labels"])
            .build()
            .unwrap();
        let b = loader.epoch().next().unwrap().unwrap();
        assert_eq!(b.tensors().collect::<Vec<_>>(), vec!["labels"]);
        assert!(b.column("images").is_none());
    }

    #[test]
    fn transform_runs_in_workers() {
        let ds = dataset(12);
        let loader = DataLoader::builder(ds)
            .batch_size(4)
            .num_workers(3)
            .transform(|mut row| {
                let v = row.get("labels").unwrap().get_f64(0).unwrap() as i32;
                row.set("labels", Sample::scalar(v + 100));
                row
            })
            .build()
            .unwrap();
        let all: Vec<i32> = loader
            .epoch()
            .flat_map(|b| labels_of(&b.unwrap()))
            .collect();
        assert!(all.iter().all(|&v| v >= 100));
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn view_indices_restrict_epoch() {
        let ds = dataset(50);
        let loader = DataLoader::builder(ds)
            .indices(vec![5, 15, 25])
            .batch_size(2)
            .build()
            .unwrap();
        let all: Vec<i32> = loader
            .epoch()
            .flat_map(|b| labels_of(&b.unwrap()))
            .collect();
        assert_eq!(all, vec![5, 5, 5]);
    }

    #[test]
    fn invalid_indices_rejected_at_build() {
        let ds = dataset(5);
        assert!(DataLoader::builder(ds.clone())
            .indices(vec![10])
            .build()
            .is_err());
        assert!(DataLoader::builder(ds).tensors(["ghost"]).build().is_err());
    }

    #[test]
    fn stats_track_throughput() {
        let ds = dataset(40);
        let loader = DataLoader::builder(ds).batch_size(10).build().unwrap();
        let mut epoch = loader.epoch();
        for b in epoch.by_ref() {
            b.unwrap();
        }
        let stats = epoch.stats();
        assert_eq!(stats.rows, 40);
        assert_eq!(stats.batches, 4);
        assert!(stats.bytes > 0);
        assert!(stats.rows_per_sec() > 0.0);
    }

    #[test]
    fn early_drop_joins_workers() {
        let ds = dataset(100);
        let loader = DataLoader::builder(ds)
            .batch_size(4)
            .num_workers(4)
            .build()
            .unwrap();
        let mut epoch = loader.epoch();
        let _first = epoch.next().unwrap().unwrap();
        drop(epoch); // must not deadlock
    }

    #[test]
    fn memory_budget_still_completes() {
        let ds = dataset(30);
        let loader = DataLoader::builder(ds)
            .batch_size(8)
            .memory_budget(1024) // tiny: clamps to one batch in flight
            .build()
            .unwrap();
        let rows: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
        assert_eq!(rows, 30);
    }

    #[test]
    fn multiple_epochs_reuse_loader() {
        let ds = dataset(20);
        let loader = DataLoader::builder(ds)
            .batch_size(6)
            .shuffle(7)
            .build()
            .unwrap();
        let a: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
        let b: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
        assert_eq!(a, 20);
        assert_eq!(b, 20);
    }
}
