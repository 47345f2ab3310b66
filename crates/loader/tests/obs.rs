//! Loader observability invariants: histogram counts vs. delivered
//! work, concurrent-scrape monotonicity, and the mid-epoch-drop flush
//! guarantee.

use std::sync::Arc;

use deeplake_codec::Compression;
use deeplake_core::dataset::TensorOptions;
use deeplake_core::Dataset;
use deeplake_loader::{Bottleneck, DataLoader, EpochReport, StageSummary};
use deeplake_storage::MemoryProvider;
use deeplake_tensor::{Htype, Sample};
use proptest::prelude::*;

fn dataset(rows: u64, compress: bool) -> Arc<Dataset> {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "obs").unwrap();
    ds.create_tensor_opts("images", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(if compress {
            Compression::Lz4
        } else {
            Compression::None
        });
        o.chunk_target_bytes = Some(8 * 1024);
        o
    })
    .unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..rows {
        ds.append_row(vec![
            (
                "images",
                Sample::from_slice([4, 4, 3], &[(i % 251) as u8; 48]).unwrap(),
            ),
            ("labels", Sample::scalar((i % 7) as i32)),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
    Arc::new(ds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the config, the collate histogram counts exactly the
    /// delivered batches, and the row counter exactly the delivered
    /// rows — instrumentation never under- or over-counts.
    #[test]
    fn delivered_batches_equal_collate_count(
        rows in 1u64..60,
        batch in 1usize..9,
        workers in 1usize..5,
        shuffle in any::<bool>(),
        drop_last in any::<bool>(),
    ) {
        let ds = dataset(rows, false);
        let mut b = DataLoader::builder(ds)
            .batch_size(batch)
            .num_workers(workers)
            .drop_last(drop_last);
        if shuffle {
            b = b.shuffle(rows ^ 0xC0FFEE);
        }
        let loader = b.build().unwrap();
        let mut epoch = loader.epoch();
        let mut batches = 0u64;
        let mut delivered = 0u64;
        for batch in epoch.by_ref() {
            batches += 1;
            delivered += batch.unwrap().len() as u64;
        }
        let report = epoch.report();
        prop_assert_eq!(report.collate.count, batches);
        prop_assert_eq!(report.stats.batches, batches);
        prop_assert_eq!(report.stats.rows, delivered);
        drop(epoch);
        let snap = loader.metrics();
        prop_assert_eq!(snap.histogram("loader.collate_ns").unwrap().count, batches);
        prop_assert_eq!(snap.counter("loader.rows"), Some(delivered));
        prop_assert_eq!(snap.counter("loader.batches"), Some(batches));
        // every row passed through exactly one fetch sample set
        let fetch = snap.histogram("loader.fetch_ns").unwrap();
        prop_assert!(fetch.count > 0);
        // the queue-depth gauge settles to zero after the epoch
        prop_assert_eq!(snap.gauge("loader.queue_depth"), Some(0));
    }
}

/// Scraping `DataLoader::metrics()` from another thread while an epoch
/// runs: every counter and histogram count is monotonically
/// non-decreasing across snapshots, and nothing panics or deadlocks.
#[test]
fn concurrent_scrape_is_monotonic() {
    let ds = dataset(400, true);
    let loader = Arc::new(
        DataLoader::builder(ds)
            .batch_size(8)
            .num_workers(4)
            .build()
            .unwrap(),
    );
    let scraper = {
        let loader = loader.clone();
        std::thread::spawn(move || {
            let mut last_rows = 0u64;
            let mut last_fetch = 0u64;
            let mut snaps = 0u32;
            loop {
                let snap = loader.metrics();
                let rows = snap.counter("loader.rows").unwrap_or(0);
                let fetch = snap
                    .histogram("loader.fetch_ns")
                    .map(|h| h.count)
                    .unwrap_or(0);
                assert!(rows >= last_rows, "rows went backwards");
                assert!(fetch >= last_fetch, "fetch count went backwards");
                last_rows = rows;
                last_fetch = fetch;
                snaps += 1;
                if rows >= 400 {
                    return snaps;
                }
                std::thread::yield_now();
            }
        })
    };
    let delivered: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
    assert_eq!(delivered, 400);
    let snaps = scraper.join().unwrap();
    assert!(snaps > 0);
}

/// Dropping the iterator mid-epoch must flush worker stage samples:
/// fetch and decode histograms stay pairwise consistent, delivered
/// batches still equal the collate count, and the queue-depth gauge
/// settles back to zero for the next epoch.
#[test]
fn mid_epoch_drop_flushes_stage_samples() {
    let ds = dataset(200, true);
    let loader = DataLoader::builder(ds)
        .batch_size(4)
        .num_workers(4)
        .build()
        .unwrap();
    let mut epoch = loader.epoch();
    let mut batches = 0u64;
    for batch in epoch.by_ref().take(5) {
        batch.unwrap();
        batches += 1;
    }
    drop(epoch); // mid-epoch: workers joined, samples flushed

    let snap = loader.metrics();
    let fetch = snap.histogram("loader.fetch_ns").unwrap();
    let decode = snap.histogram("loader.decode_ns").unwrap();
    // batched path records fetch and decode in lockstep per task; a
    // dropped consumer must not strand half a pair
    assert!(fetch.count > 0);
    assert_eq!(
        fetch.count, decode.count,
        "fetch/decode samples must stay paired across a mid-epoch drop"
    );
    assert_eq!(snap.histogram("loader.collate_ns").unwrap().count, batches);
    assert_eq!(snap.counter("loader.batches"), Some(batches));
    assert_eq!(
        snap.gauge("loader.queue_depth"),
        Some(0),
        "drop must settle the queue-depth residue"
    );

    // a fresh epoch on the same loader still works and keeps counting
    let rows: usize = loader.epoch().map(|b| b.unwrap().len()).sum();
    assert_eq!(rows, 200);
    let snap = loader.metrics();
    assert_eq!(snap.counter("loader.epochs"), Some(2));
    assert_eq!(snap.gauge("loader.queue_depth"), Some(0));
}

/// The per-epoch report is self-consistent: worker task counts cover
/// the scheduler's tasks, utilization lands in [0, 1], and the
/// attribution names a real stage.
#[test]
fn epoch_report_is_self_consistent() {
    let ds = dataset(120, true);
    let loader = DataLoader::builder(ds)
        .batch_size(10)
        .num_workers(3)
        .build()
        .unwrap();
    let mut epoch = loader.epoch();
    for b in epoch.by_ref() {
        b.unwrap();
    }
    let report = epoch.report();
    assert_eq!(report.stats.rows, 120);
    assert_eq!(report.schedule.count, 1);
    assert_eq!(report.workers.len(), 3);
    let tasks: u64 = report.workers.iter().map(|w| w.tasks).sum();
    assert!(tasks > 0);
    let util = report.worker_utilization();
    assert!((0.0..=1.0).contains(&util), "utilization {util}");
    assert!(matches!(
        report.bottleneck,
        Bottleneck::Fetch
            | Bottleneck::Decode
            | Bottleneck::Transform
            | Bottleneck::Collate
            | Bottleneck::Consumer
    ));
    let rendered = report.render();
    assert!(rendered.contains("bottleneck:"));
    assert!(rendered.contains("queue_wait"));
}

/// Samples are recorded once, into the lifetime registry; an epoch's
/// report is the registry's growth over that epoch. So a first epoch's
/// report *is* the registry, a mid-epoch report is a prefix of the
/// final one, and consecutive epochs partition the lifetime totals.
#[test]
fn epoch_reports_partition_the_lifetime_registry() {
    const STAGES: [&str; 7] = [
        "schedule",
        "fetch",
        "decode",
        "transform",
        "collate",
        "queue_wait",
        "consumer_gap",
    ];
    fn stages(r: &EpochReport) -> [StageSummary; 7] {
        [
            r.schedule,
            r.fetch,
            r.decode,
            r.transform,
            r.collate,
            r.queue_wait,
            r.consumer_gap,
        ]
    }

    let ds = dataset(160, true);
    let loader = DataLoader::builder(ds)
        .batch_size(8)
        .num_workers(3)
        .transform(|row| row)
        .build()
        .unwrap();

    let mut epoch = loader.epoch();
    for batch in epoch.by_ref().take(4) {
        batch.unwrap();
    }
    let partial = epoch.report();
    for batch in epoch.by_ref() {
        batch.unwrap();
    }
    let first = epoch.report();
    drop(epoch);

    assert_eq!(partial.stats.batches, 4);
    assert_eq!(first.stats.batches, 20);
    for ((name, early), late) in STAGES.iter().zip(stages(&partial)).zip(stages(&first)) {
        assert!(early.count <= late.count, "{name}: count shrank");
        assert!(early.total_ns <= late.total_ns, "{name}: total shrank");
    }
    for (early, late) in partial.workers.iter().zip(&first.workers) {
        assert!(early.tasks <= late.tasks && early.busy_ns <= late.busy_ns);
    }

    // nothing preceded the first epoch: report and registry agree
    // field for field, quantiles included
    let life = loader.metrics();
    for (name, stage) in STAGES.iter().zip(stages(&first)) {
        let h = life.histogram(&format!("loader.{name}_ns")).unwrap();
        let whole = StageSummary {
            count: h.count,
            total_ns: h.sum,
            p50_ns: h.quantile(0.50),
            p99_ns: h.quantile(0.99),
        };
        assert_eq!(stage, whole, "{name}");
    }
    for w in &first.workers {
        let counter = |what: &str| life.counter(&format!("loader.worker.{}.{what}", w.worker));
        assert_eq!(counter("busy_ns"), Some(w.busy_ns));
        assert_eq!(counter("tasks"), Some(w.tasks));
    }

    let mut epoch = loader.epoch();
    for batch in epoch.by_ref() {
        batch.unwrap();
    }
    let second = epoch.report();
    drop(epoch);

    // the second report covers only the second epoch ...
    assert_eq!(second.stats.rows, 160);
    assert_eq!(second.stats.batches, 20);
    assert_eq!(second.stats.bytes, first.stats.bytes);
    assert_eq!(second.schedule.count, 1);
    assert_eq!(second.collate.count, 20);
    assert_eq!(second.fetch.count, first.fetch.count);
    assert_eq!(second.transform.count, second.fetch.count);
    let tasks = |r: &EpochReport| r.workers.iter().map(|w| w.tasks).sum::<u64>();
    assert_eq!(tasks(&second), 160 / 32);
    assert_eq!(tasks(&first), 160 / 32);

    // ... and the two together are the lifetime registry
    let life = loader.metrics();
    for ((name, a), b) in STAGES.iter().zip(stages(&first)).zip(stages(&second)) {
        let h = life.histogram(&format!("loader.{name}_ns")).unwrap();
        assert_eq!(a.count + b.count, h.count, "{name}");
        assert_eq!(a.total_ns + b.total_ns, h.sum, "{name}");
    }
    for (a, b) in first.workers.iter().zip(&second.workers) {
        let counter = |what: &str| life.counter(&format!("loader.worker.{}.{what}", a.worker));
        assert_eq!(counter("busy_ns"), Some(a.busy_ns + b.busy_ns));
        assert_eq!(counter("tasks"), Some(a.tasks + b.tasks));
    }
    assert_eq!(life.counter("loader.rows"), Some(320));
    assert_eq!(life.counter("loader.batches"), Some(40));
}
