//! The hub's result-cache arithmetic, measured: the first execution of a
//! version-pinned query pays the full storage cost (dataset open + the
//! pruned scan), every repeat is a pure frame copy — and the skewed
//! multi-client scenario shows the same at fleet scale. Emits
//! `BENCH_hub.json` (ops/s, round trips, bytes) so the perf trajectory
//! accumulates run over run.

use criterion::{criterion_group, criterion_main, Criterion};
use deeplake_bench::BenchReport;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_hub::Hub;
use deeplake_remote::RemoteProvider;
use deeplake_sim::{run_hub_queries, HubScenarioConfig};
use deeplake_storage::{MemoryProvider, NetworkProfile, SimulatedCloudProvider};
use deeplake_tensor::{Htype, Sample};
use deeplake_tql::QueryOptions;
use std::sync::Arc;
use std::time::Instant;

const ROWS: u64 = 10_000;

fn build_dataset(provider: deeplake_storage::DynProvider, offset: i32) {
    let mut ds = Dataset::create(provider, "hub_bench").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(256);
        o
    })
    .unwrap();
    for i in 0..ROWS {
        ds.append_row(vec![("labels", Sample::scalar(offset + (i / 100) as i32))])
            .unwrap();
    }
    ds.flush().unwrap();
}

fn bench_hub(c: &mut Criterion) {
    // two datasets on separately-metered sim-cloud storage
    let storage_a = Arc::new(SimulatedCloudProvider::new(
        "s3",
        MemoryProvider::new(),
        NetworkProfile::instant(),
    ));
    let storage_b = Arc::new(SimulatedCloudProvider::new(
        "s3",
        MemoryProvider::new(),
        NetworkProfile::instant(),
    ));
    build_dataset(storage_a.clone(), 0);
    build_dataset(storage_b.clone(), 1000);
    let hub = Hub::builder()
        .mount("alpha", storage_a.clone())
        .mount("beta", storage_b.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("alpha").unwrap();

    let text = "SELECT labels FROM hub_bench WHERE labels = 7";

    // first execution: full storage cost
    let before = storage_a.stats().snapshot();
    let (first, first_wall) = {
        let t = Instant::now();
        let r = client.query(text, &QueryOptions::default()).unwrap();
        (r, t.elapsed())
    };
    assert_eq!(first.len(), 100);
    let after_first = storage_a.stats().snapshot();
    let first_cost = after_first.delta_since(&before);
    let (first_rts, first_bytes) = (first_cost.round_trips, first_cost.bytes_read);

    // repeats: pure frame copies
    const REPEATS: u32 = 200;
    let t = Instant::now();
    for _ in 0..REPEATS {
        let r = client.query(text, &QueryOptions::default()).unwrap();
        assert_eq!(r.len(), 100);
    }
    let repeat_wall = t.elapsed();
    let repeat_rts = storage_a
        .stats()
        .snapshot()
        .delta_since(&after_first)
        .round_trips;
    let cached_ops = REPEATS as f64 / repeat_wall.as_secs_f64();
    eprintln!(
        "hub/cache: first execution {first_rts} storage round trips / {first_bytes} bytes in {first_wall:?} \
         → {REPEATS} repeats {repeat_rts} storage round trips total ({cached_ops:.0} queries/s)",
    );
    assert!(
        first_rts >= 10 * repeat_rts.max(1) || repeat_rts == 0,
        "cache must eliminate ≥10x the storage round trips (first {first_rts}, repeat {repeat_rts})"
    );

    // the skewed fleet scenario, cached vs uncached
    let skewed = run_hub_queries(&HubScenarioConfig::default());
    let uncached = run_hub_queries(&HubScenarioConfig {
        cache_bytes: 0,
        ..HubScenarioConfig::default()
    });
    eprintln!(
        "hub/skewed: {} queries, hit ratio {:.2}, storage round trips {} (cache) vs {} (no cache)",
        skewed.total_queries,
        skewed.cache_hit_ratio,
        skewed.storage_round_trips,
        uncached.storage_round_trips,
    );

    let mut report = BenchReport::new("hub");
    report
        .metric("first_query_storage_round_trips", first_rts as f64)
        .metric("first_query_storage_bytes", first_bytes as f64)
        .metric("first_query_secs", first_wall.as_secs_f64())
        .metric(
            "repeat_query_storage_round_trips",
            repeat_rts as f64 / REPEATS as f64,
        )
        .metric("cached_queries_per_sec", cached_ops)
        .metric(
            "cache_round_trip_reduction",
            first_rts as f64 / (repeat_rts.max(1) as f64 / REPEATS as f64).max(1e-9),
        )
        .metric("skewed_hit_ratio", skewed.cache_hit_ratio)
        .metric(
            "skewed_storage_round_trips_cached",
            skewed.storage_round_trips as f64,
        )
        .metric(
            "skewed_storage_round_trips_uncached",
            uncached.storage_round_trips as f64,
        )
        .metric("skewed_busy_rejections", skewed.busy_rejections as f64);

    // per-stage quantiles pulled over the wire via the Metrics opcode —
    // the same snapshot an operator would see on a live hub
    let snap = client.hub_metrics().expect("Metrics opcode");
    let stage_ms = |name: &str, q: f64| -> f64 {
        snap.histogram(name)
            .map(|h| h.quantile(q) as f64 / 1e6)
            .unwrap_or(0.0)
    };
    report
        .metric("hub_queue_wait_p50_ms", stage_ms("hub.queue_wait_ns", 0.50))
        .metric("hub_queue_wait_p99_ms", stage_ms("hub.queue_wait_ns", 0.99))
        .metric(
            "hub_cache_lookup_p50_ms",
            stage_ms("hub.cache_lookup_ns", 0.50),
        )
        .metric(
            "hub_cache_lookup_p99_ms",
            stage_ms("hub.cache_lookup_ns", 0.99),
        )
        .metric("hub_execute_p50_ms", stage_ms("hub.execute_ns", 0.50))
        .metric("hub_execute_p99_ms", stage_ms("hub.execute_ns", 0.99))
        .metric("hub_storage_p50_ms", stage_ms("hub.storage_ns", 0.50))
        .metric("hub_storage_p99_ms", stage_ms("hub.storage_ns", 0.99));
    let path = report.write().expect("write BENCH_hub.json");
    eprintln!("hub: wrote {}", path.display());

    let mut group = c.benchmark_group("hub_serving");
    group.sample_size(10);
    group.bench_function("query_cached", |b| {
        b.iter(|| {
            let r = client.query(text, &QueryOptions::default()).unwrap();
            assert_eq!(r.len(), 100);
        })
    });
    group.bench_function("query_uncached", |b| {
        let mut nprobe = 0usize;
        b.iter(|| {
            // nprobe is part of the cache key but irrelevant to a plain
            // filter query: bumping it forces a miss (full execution)
            // while keeping the executed work identical to the cached
            // case — an honest cached-vs-uncached comparison
            nprobe += 1;
            let opts = QueryOptions {
                nprobe,
                ..QueryOptions::default()
            };
            let r = client.query(text, &opts).unwrap();
            assert_eq!(r.len(), 100);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hub);
criterion_main!(benches);
