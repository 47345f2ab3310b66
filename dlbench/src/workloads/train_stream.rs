//! `train_stream` — the paper's headline (Fig. 7–10): a training job
//! streaming shuffled batches from a served dataset. Per round: two
//! shuffled epochs (batch 32, two loader workers) of an images + labels
//! dataset opened through `RemoteProvider` on an in-process hub. Closed
//! loop; the consumer does no work between batches, so the figure is
//! loader capacity. Latency unit: the consumer's wait for 8 consecutive
//! batches (256 rows) — not for one, because two workers delivering in
//! order make single-batch waits alternate between a long and a short
//! mode, and the median of such a sample sits in the empty middle.
//!
//! `loader`, `format` parse, `codec` decode, `remote` and the hub's data
//! path work; `tql`, `index` and the result cache do nothing.

use std::sync::Arc;
use std::time::Instant;

use deeplake_core::Dataset;
use deeplake_hub::HubHandle;
use deeplake_loader::{BatchColumn, DataLoader, EpochReport};
use deeplake_remote::RemoteProvider;
use deeplake_tensor::Htype;

use super::{
    create_dataset, dial, hub_layer_metrics, start_hub, write_rows, Counts, Inputs, Round,
    TensorSpec, Workload, WritePhase,
};
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::store::SpanProvider;

const BATCH_SIZE: usize = 32;
/// Batches per latency sample.
const BATCHES_PER_WAIT: usize = 8;

pub struct TrainStream {
    tracer: Tracer,
    rows: u64,
    epochs: usize,
    write_phase: WritePhase,
    /// Times each row was delivered in the round just run.
    seen: Vec<u8>,
    last_report: Option<EpochReport>,
    first_batch_ms: f64,
    /// Running hash of the labels in delivery order over the last round.
    order_digest: u64,
    // field order is drop order: the loader and client go before the hub
    loader: DataLoader,
    remote: Arc<RemoteProvider>,
    store: Arc<SpanProvider>,
    hub: HubHandle,
}

impl TrainStream {
    pub fn setup(inputs: &Inputs, tracer: &Tracer) -> Self {
        let rows = &inputs.rows;
        let store = SpanProvider::new(tracer);
        let tensors = [
            TensorSpec {
                name: "images",
                htype: Htype::Image,
                dtype: None,
                // ~32 rows per chunk: a shuffled block of 32 rows reads
                // one or two chunks, and the 16 Ki-row tensor spans far
                // more chunks than a dataset handle memoizes (64)
                chunk_target_bytes: 40 << 10,
            },
            TensorSpec {
                name: "labels",
                htype: Htype::ClassLabel,
                dtype: None,
                chunk_target_bytes: 4 << 10,
            },
        ];
        let mut ds = create_dataset(&store, &tensors, tracer);
        let failed = write_rows(&mut ds, rows, tracer, |_| ());
        assert_eq!(failed, 0, "writing the train_stream dataset failed");
        drop(ds);
        let write_phase = WritePhase::of(&store, rows);

        let hub = start_hub(&store);
        let remote = Arc::new(dial(&hub));
        let served = Dataset::open(remote.clone()).expect("open the served dataset");
        let loader = DataLoader::builder(Arc::new(served))
            .batch_size(BATCH_SIZE)
            .num_workers(inputs.scale.train_workers)
            .shuffle(inputs.seed)
            .build()
            .expect("build loader");
        TrainStream {
            tracer: tracer.clone(),
            rows: rows.len() as u64,
            epochs: inputs.scale.train_epochs,
            write_phase,
            seen: vec![0; rows.len()],
            last_report: None,
            first_batch_ms: 0.0,
            order_digest: 0,
            loader,
            remote,
            store,
            hub,
        }
    }
}

impl Workload for TrainStream {
    fn round(&mut self, lat_ms: &mut Vec<f64>) -> Round {
        self.seen.fill(0);
        self.order_digest = 0;
        let mut failed = 0;
        for _ in 0..self.epochs {
            failed += self.epoch(lat_ms);
        }
        Round {
            items: self.rows * self.epochs as u64,
            failed,
        }
    }

    /// Every row exactly once per epoch.
    fn verify(&mut self) -> u64 {
        let want = self.epochs as u8;
        self.seen.iter().filter(|&&n| n != want).count() as u64
    }

    fn counts(&self) -> Counts {
        let store = self.store.stats();
        let wire = self.remote.stats().snapshot();
        Counts {
            storage_round_trips: store.round_trips,
            storage_logical_reads: store.logical_reads,
            wire_bytes: wire.bytes_written + wire.bytes_read,
        }
    }

    fn write_phase(&self) -> WritePhase {
        self.write_phase
    }

    fn premises(&mut self) -> Vec<String> {
        let mut broken = Vec::new();
        if self.hub.stats().busy_rejections() != 0 {
            broken.push(format!(
                "hub answered Busy {} times",
                self.hub.stats().busy_rejections()
            ));
        }
        if self.hub.stats().queries() != 0 {
            broken.push("train_stream issued queries".to_string());
        }
        broken
    }

    fn layer_metrics(&mut self, _client_mean_ms: f64, out: &mut Metrics) {
        // what a loader worker sees of the hub is one batched read
        let mut fetch_ms = 0.0;
        if let Some(r) = &self.last_report {
            let ms = |ns: u64| ns as f64 / 1e6;
            fetch_ms = r.fetch.total_ms() / r.fetch.count.max(1) as f64;
            out.set("loader.fetch_ms_p50", ms(r.fetch.p50_ns));
            out.set("loader.decode_ms_p50", ms(r.decode.p50_ns));
            out.set("loader.collate_ms_p50", ms(r.collate.p50_ns));
            out.set("loader.queue_wait_ms_p50", ms(r.queue_wait.p50_ns));
            out.set("loader.consumer_gap_ms_p50", ms(r.consumer_gap.p50_ns));
            out.set("loader.worker_utilization", r.worker_utilization());
        }
        out.set("loader.first_batch_ms", self.first_batch_ms);
        out.set(
            "remote.busy_retries",
            self.hub.stats().busy_rejections() as f64,
        );
        out.set(
            "remote.ping_rtt_us_p50",
            crate::probes::ping_rtt_us(&self.remote),
        );
        // a fresh handle on the served dataset: no chunks memoized
        let served = Dataset::open(self.remote.clone()).expect("reopen the served dataset");
        out.set(
            "core.get_rows_batch_ms_p50",
            crate::probes::get_rows_batch_ms(&served, &["images", "labels"], BATCH_SIZE),
        );
        hub_layer_metrics(&self.hub, Some("hub.read_ns"), fetch_ms, out);
    }
}

impl TrainStream {
    /// One shuffled epoch; returns the rows that failed.
    fn epoch(&mut self, lat_ms: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        let epoch_start = Instant::now();
        let mut epoch = self.loader.epoch();
        let (mut delivered, mut wait) = (0, epoch_start);
        loop {
            let next = self.tracer.in_span("loader", "next", || epoch.next());
            let Some(batch) = next else { break };
            delivered += 1;
            if delivered == 1 {
                self.first_batch_ms = epoch_start.elapsed().as_secs_f64() * 1e3;
            }
            if delivered % BATCHES_PER_WAIT == 0 {
                lat_ms.push(wait.elapsed().as_secs_f64() * 1e3);
                wait = Instant::now();
            }
            match batch {
                Ok(batch) => {
                    // the label is the row's index: mark it delivered
                    let labels = match batch.column("labels") {
                        Some(BatchColumn::Stacked(s)) => s.to_vec::<i32>().unwrap_or_default(),
                        _ => Vec::new(),
                    };
                    if labels.len() != batch.len() {
                        failed += batch.len() as u64;
                    }
                    for label in labels {
                        self.order_digest = self
                            .order_digest
                            .wrapping_mul(0x100_0000_01B3)
                            .wrapping_add(label as u64);
                        match self.seen.get_mut(label as usize) {
                            Some(n) => *n = n.saturating_add(1),
                            None => failed += 1,
                        }
                    }
                }
                Err(_) => failed += BATCH_SIZE as u64,
            }
        }
        self.last_report = Some(epoch.report());
        failed
    }

    /// Hash of the last round's delivery order: equal for equal seeds.
    #[cfg(test)]
    pub fn order_digest(&self) -> u64 {
        self.order_digest
    }
}
