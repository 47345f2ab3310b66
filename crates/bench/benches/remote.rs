//! The serving tier's round-trip arithmetic, measured: an offloaded
//! pruned query and an offloaded ANN top-k versus the same queries run
//! client-side over chunk pulls, on the sim-latency transport (every
//! wire round trip charges a scaled S3-like cost). Also: N served
//! loader clients streaming one epoch each.
//!
//! Alongside the timings, the bench prints the round-trip and byte
//! counts behind them once per case — the wall-clock gap *is* the
//! round-trip gap.

use criterion::{criterion_group, criterion_main, Criterion};
use deeplake_bench::BenchReport;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_core::IndexSpec;
use deeplake_hub::{Hub, HubHandle};
use deeplake_remote::{RemoteOptions, RemoteProvider};
use deeplake_sim::{run_served_loaders, ServingConfig};
use deeplake_storage::{DynProvider, MemoryProvider, NetworkProfile};
use deeplake_tensor::{Htype, Sample};
use deeplake_tql::QueryOptions;
use std::sync::Arc;

const ROWS: u64 = 10_000;
const DIM: usize = 8;
const NLIST: usize = 16;

/// Sorted 1%-selectivity labels + clustered embeddings with an IVF
/// index, built on the provider the server will mount.
fn build_dataset(provider: DynProvider) {
    let mut ds = Dataset::create(provider, "remote_bench").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(256);
        o
    })
    .unwrap();
    ds.create_tensor_opts("emb", {
        let mut o = TensorOptions::new(Htype::Embedding);
        o.chunk_target_bytes = Some(2048);
        o
    })
    .unwrap();
    let mut v = [0.0f32; DIM];
    for i in 0..ROWS {
        v[0] = (i % NLIST as u64) as f32 * 25.0;
        v[DIM - 1] = 1.0;
        ds.append_row(vec![
            ("labels", Sample::scalar((i / 100) as i32)),
            ("emb", Sample::from_slice([DIM as u64], &v).unwrap()),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
    ds.build_vector_index(
        "emb",
        &IndexSpec {
            nlist: Some(NLIST),
            ..IndexSpec::default()
        },
    )
    .unwrap();
}

fn transport() -> RemoteOptions {
    RemoteOptions {
        // s3-like costs at 2% scale: ratios preserved, bench stays quick
        latency: Some(NetworkProfile::s3().scaled(0.02)),
        ..RemoteOptions::default()
    }
}

fn ann_text() -> String {
    let mut q = [0.0f64; DIM];
    q[0] = 7.0 * 25.0;
    q[DIM - 1] = 1.0;
    let parts: Vec<String> = q.iter().map(|x| format!("{x}")).collect();
    format!(
        "SELECT emb FROM remote_bench ORDER BY L2_DISTANCE(emb, [{}]) LIMIT 10",
        parts.join(", ")
    )
}

fn report_case(
    server: &HubHandle,
    report: &mut BenchReport,
    tag: &str,
    text: &str,
    opts: &QueryOptions,
) {
    let pull = Arc::new(RemoteProvider::connect_with(server.addr(), transport()).unwrap());
    let ds = Dataset::open(pull.clone()).unwrap();
    let r = deeplake_tql::query_opts(&ds, text, opts).unwrap();
    let off = RemoteProvider::connect_with(server.addr(), transport()).unwrap();
    let o = off.query(text, opts).unwrap();
    assert_eq!(r.indices, o.indices);
    let pull_bytes = pull.stats().bytes_read() + pull.stats().bytes_written();
    let off_bytes = off.stats().bytes_read() + off.stats().bytes_written();
    eprintln!(
        "remote/{tag}: chunk-pull {} round trips / {} wire bytes → offload {} round trip / {} wire bytes ({} result rows)",
        pull.stats().round_trips(),
        pull_bytes,
        off.stats().round_trips(),
        off_bytes,
        o.len(),
    );
    report
        .metric(
            format!("{tag}_chunk_pull_round_trips"),
            pull.stats().round_trips() as f64,
        )
        .metric(format!("{tag}_chunk_pull_wire_bytes"), pull_bytes as f64)
        .metric(
            format!("{tag}_offload_round_trips"),
            off.stats().round_trips() as f64,
        )
        .metric(format!("{tag}_offload_wire_bytes"), off_bytes as f64);
}

fn bench_remote(c: &mut Criterion) {
    let mounted: DynProvider = Arc::new(MemoryProvider::new());
    build_dataset(mounted.clone());
    let server = Hub::builder()
        .default_mount(mounted.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.addr();

    let pruned_text = "SELECT labels FROM remote_bench WHERE labels = 7";
    let ann_text = ann_text();
    let ann_opts = QueryOptions {
        ann: true,
        nprobe: 2,
        ..QueryOptions::default()
    };

    let mut json = BenchReport::new("remote");
    report_case(
        &server,
        &mut json,
        "pruned_1pct",
        pruned_text,
        &QueryOptions::default(),
    );
    report_case(&server, &mut json, "ann_top10", &ann_text, &ann_opts);
    // offloaded queries per second on the sim-latency transport
    {
        let client = RemoteProvider::connect_with(addr, transport()).unwrap();
        const N: u32 = 20;
        let t = std::time::Instant::now();
        for _ in 0..N {
            let r = client.query(pruned_text, &QueryOptions::default()).unwrap();
            assert_eq!(r.len(), 100);
        }
        json.metric(
            "pruned_offload_queries_per_sec",
            N as f64 / t.elapsed().as_secs_f64(),
        );
    }
    let path = json.write().expect("write BENCH_remote.json");
    eprintln!("remote: wrote {}", path.display());

    let mut group = c.benchmark_group("remote_serving");
    group.sample_size(10);

    // a fresh client opening the dataset and running the query over
    // chunk pulls — the serving cost without offload
    group.bench_function("pruned_chunk_pull", |b| {
        b.iter(|| {
            let client = Arc::new(RemoteProvider::connect_with(addr, transport()).unwrap());
            let ds = Dataset::open(client.clone()).unwrap();
            let r = deeplake_tql::query(&ds, pruned_text).unwrap();
            assert_eq!(r.len(), 100);
        })
    });
    // the same query offloaded: one frame out, result rows back
    group.bench_function("pruned_offload", |b| {
        b.iter(|| {
            let client = RemoteProvider::connect_with(addr, transport()).unwrap();
            let r = client.query(pruned_text, &QueryOptions::default()).unwrap();
            assert_eq!(r.len(), 100);
        })
    });
    group.bench_function("ann_top10_chunk_pull", |b| {
        b.iter(|| {
            let client = Arc::new(RemoteProvider::connect_with(addr, transport()).unwrap());
            let ds = Dataset::open(client.clone()).unwrap();
            let r = deeplake_tql::query_opts(&ds, &ann_text, &ann_opts).unwrap();
            assert_eq!(r.len(), 10);
        })
    });
    group.bench_function("ann_top10_offload", |b| {
        b.iter(|| {
            let client = RemoteProvider::connect_with(addr, transport()).unwrap();
            let r = client.query(&ann_text, &ann_opts).unwrap();
            assert_eq!(r.len(), 10);
        })
    });
    // four loader clients streaming a full epoch each off one server
    group.bench_function("served_epoch_4_clients", |b| {
        b.iter(|| {
            let report = run_served_loaders(
                mounted.clone(),
                "labels",
                &ServingConfig {
                    clients: 4,
                    batch_size: 64,
                    workers_per_client: 2,
                    profile: NetworkProfile::instant(),
                    shuffle: false,
                },
            );
            assert!(report.all_clients_agree(ROWS));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_remote);
criterion_main!(benches);
