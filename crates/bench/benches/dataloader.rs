//! Criterion counterpart of Fig. 7: epoch iteration speed per loader —
//! plus the training-path observability record: per-stage quantiles and
//! rows/s written to `BENCH_loader.json`, and a traced-vs-untraced A/B
//! over a real hub measuring the overhead of trace propagation.

use criterion::{criterion_group, criterion_main, Criterion};
use deeplake_baselines::formats::{BetonWriter, FormatWriter, JpegDirWriter, WebDatasetWriter};
use deeplake_baselines::loaders::{BetonLoader, FilePerSampleLoader, Loader, TarStreamLoader};
use deeplake_bench::{build_deeplake_dataset, deeplake_epoch, BenchReport};
use deeplake_core::Dataset;
use deeplake_hub::Hub;
use deeplake_loader::DataLoader;
use deeplake_remote::{RemoteOptions, RemoteProvider};
use deeplake_sim::datagen;
use deeplake_storage::{DynProvider, MemoryProvider};
use std::sync::Arc;
use std::time::Duration;

fn bench_dataloaders(c: &mut Criterion) {
    let images = datagen::imagenet_like(300, 48, 2);
    let mut group = c.benchmark_group("fig7_dataloaders");
    group.sample_size(10);

    // deep lake
    let ds = Arc::new(build_deeplake_dataset(
        Arc::new(MemoryProvider::new()),
        &images,
        true,
        1 << 20,
    ));
    group.bench_function("deeplake", |b| {
        b.iter(|| {
            let (samples, ..) = deeplake_epoch(ds.clone(), 4, 32, false);
            assert_eq!(samples, 300);
        })
    });

    // baselines
    let cases: Vec<(Box<dyn FormatWriter>, Box<dyn Loader>)> = vec![
        (
            Box::new(BetonWriter::default()),
            Box::new(BetonLoader::default()),
        ),
        (
            Box::new(WebDatasetWriter::jpeg(1 << 20)),
            Box::new(TarStreamLoader),
        ),
        (Box::new(JpegDirWriter), Box::new(FilePerSampleLoader)),
    ];
    for (writer, loader) in cases {
        let store = MemoryProvider::new();
        writer.write(&store, "ds", &images).unwrap();
        group.bench_function(loader.name(), |b| {
            b.iter(|| {
                let r = loader.epoch(&store, "ds", 4).unwrap();
                assert_eq!(r.samples, 300);
            })
        });
    }
    group.finish();

    emit_loader_report(&ds);
}

/// Write `BENCH_loader.json`: the instrumented epoch's per-stage
/// quantiles and rows/s over local storage, and the tracing-overhead
/// A/B — the same batched epoch through a hub with a traced client vs
/// one dialled with `RemoteOptions { tracing: false }` (no capability
/// probe, no trace envelope on any frame).
fn emit_loader_report(local: &Arc<Dataset>) {
    // local instrumented epoch: exact stage quantiles, no network
    let loader = DataLoader::builder(local.clone())
        .batch_size(32)
        .num_workers(4)
        .prefetch(4)
        .build()
        .unwrap();
    let mut epoch = loader.epoch();
    for b in epoch.by_ref() {
        b.unwrap();
    }
    let report = epoch.report();
    print!("{}", report.render());

    // traced vs untraced over a real hub, best-of-3 epochs each
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    let images = datagen::imagenet_like(300, 48, 2);
    build_deeplake_dataset(storage.clone(), &images, true, 1 << 20);
    let hub = Hub::builder()
        .mount("bench", storage)
        .bind("127.0.0.1:0")
        .unwrap();
    let epoch_wall = |tracing: bool| -> Duration {
        let remote = Arc::new(
            RemoteProvider::connect_with(
                hub.addr(),
                RemoteOptions {
                    tracing,
                    ..RemoteOptions::default()
                },
            )
            .unwrap(),
        );
        remote.attach("bench").unwrap();
        let ds = Arc::new(Dataset::open(remote as DynProvider).unwrap());
        (0..3)
            .map(|_| {
                let (samples, _, wall) = deeplake_epoch(ds.clone(), 4, 32, false);
                assert_eq!(samples, 300);
                wall
            })
            .min()
            .unwrap()
    };
    let traced = epoch_wall(true);
    let untraced = epoch_wall(false);
    let overhead_pct =
        (traced.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64() * 100.0;
    println!("tracing overhead: traced {traced:?} vs untraced {untraced:?} ({overhead_pct:+.2}%)");

    let mut out = BenchReport::new("loader");
    out.metric("loader_rows_per_sec", report.stats.rows_per_sec())
        .metric("loader_mb_per_sec", report.stats.mb_per_sec())
        .metric("loader_fetch_p50_ms", report.fetch.p50_ns as f64 / 1e6)
        .metric("loader_fetch_p99_ms", report.fetch.p99_ns as f64 / 1e6)
        .metric("loader_decode_p50_ms", report.decode.p50_ns as f64 / 1e6)
        .metric("loader_decode_p99_ms", report.decode.p99_ns as f64 / 1e6)
        .metric("loader_collate_p99_ms", report.collate.p99_ns as f64 / 1e6)
        .metric(
            "loader_queue_wait_p99_ms",
            report.queue_wait.p99_ns as f64 / 1e6,
        )
        .metric("loader_worker_utilization", report.worker_utilization())
        .metric("loader_traced_epoch_secs", traced.as_secs_f64())
        .metric("loader_untraced_epoch_secs", untraced.as_secs_f64())
        .metric("loader_tracing_overhead_pct", overhead_pct);
    let path = out.write().expect("write BENCH_loader.json");
    println!("dataloader: wrote {}", path.display());
}

criterion_group!(benches, bench_dataloaders);
criterion_main!(benches);
