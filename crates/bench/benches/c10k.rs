//! The C10K headline: 1000+ concurrent clients served by a hub whose
//! reader tier is two event-loop threads and whose execution tier is
//! four pool workers. Every response is byte-verified; `Busy` is the
//! only admissible rejection (retried, counted). Emits queries/s and
//! p50/p99 into `BENCH_c10k.json`.
//!
//! Knobs: `DL_C10K_CLIENTS` (default 1000), `DL_C10K_REQS` per client
//! (default 5) — CI's smoke step runs a reduced count.

use std::sync::Arc;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use deeplake_bench::c10k::{run_c10k, C10kConfig};
use deeplake_bench::{env_usize, BenchReport};
use deeplake_hub::{Hub, HubOptions};
use deeplake_storage::{MemoryProvider, StorageProvider};

fn bench_c10k(_c: &mut Criterion) {
    let cfg = C10kConfig {
        clients: env_usize("DL_C10K_CLIENTS", 1000),
        requests_per_client: env_usize("DL_C10K_REQS", 5),
        ..C10kConfig::default()
    };
    let storage = Arc::new(MemoryProvider::new());
    for i in 0..cfg.keys {
        storage
            .put(&cfg.key_of(i), Bytes::from(cfg.value()))
            .unwrap();
    }
    let hub = Hub::builder()
        .default_mount(storage)
        .options(HubOptions {
            workers: 4,
            reader_threads: 2,
            queue_depth: 256,
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();

    let report = run_c10k(hub.addr(), &cfg);
    eprintln!(
        "c10k: {} clients × {} reqs on {} reader threads → {:.0} queries/s, \
         p50 {:?} / p99 {:?}, {} busy retries, {} failures, peak conn buffer {} B",
        report.clients,
        cfg.requests_per_client,
        hub.reader_threads(),
        report.queries_per_sec(),
        report.p50,
        report.p99,
        report.busy_retries,
        report.failures,
        hub.stats().peak_conn_buffered(),
    );

    // the acceptance bar: bounded reader tier, zero dropped or
    // incorrect responses (Busy retries are not failures)
    assert!(
        hub.reader_threads() <= 2,
        "reader tier must stay ≤2 threads"
    );
    assert_eq!(
        report.failures, 0,
        "every request must get a correct response"
    );
    assert_eq!(
        report.responses,
        (report.clients * cfg.requests_per_client) as u64
    );

    // the hot-path obs histogram must agree with the exact sorted-vec
    // percentiles within the bucket error bound (exact/4 + 1 ns)
    for (exact, bucketed, which) in [
        (report.p50, report.p50_hist(), "p50"),
        (report.p99, report.p99_hist(), "p99"),
    ] {
        let exact_ns = exact.as_nanos() as u64;
        let hist_ns = bucketed.as_nanos() as u64;
        assert!(
            hist_ns.abs_diff(exact_ns) <= exact_ns / 4 + 1,
            "c10k {which}: histogram {hist_ns}ns vs exact {exact_ns}ns exceeds bucket error"
        );
    }

    // per-stage quantiles off the serving hub's registry, into the
    // same trajectory file
    let snap = hub.metrics();
    let stage_ms = |name: &str, q: f64| -> f64 {
        snap.histogram(name)
            .map(|h| h.quantile(q) as f64 / 1e6)
            .unwrap_or(0.0)
    };

    let mut out = BenchReport::new("c10k");
    out.metric("c10k_clients", report.clients as f64)
        .metric("c10k_requests_per_client", cfg.requests_per_client as f64)
        .metric("c10k_reader_threads", hub.reader_threads() as f64)
        .metric("c10k_queries_per_sec", report.queries_per_sec())
        .metric("c10k_p50_ms", report.p50.as_secs_f64() * 1e3)
        .metric("c10k_p99_ms", report.p99.as_secs_f64() * 1e3)
        .metric("c10k_busy_retries", report.busy_retries as f64)
        .metric("c10k_failures", report.failures as f64)
        .metric(
            "c10k_peak_conn_buffered_bytes",
            hub.stats().peak_conn_buffered() as f64,
        )
        .metric("c10k_p50_hist_ms", report.p50_hist().as_secs_f64() * 1e3)
        .metric("c10k_p99_hist_ms", report.p99_hist().as_secs_f64() * 1e3)
        .metric(
            "c10k_hub_queue_wait_p50_ms",
            stage_ms("hub.queue_wait_ns", 0.50),
        )
        .metric(
            "c10k_hub_queue_wait_p99_ms",
            stage_ms("hub.queue_wait_ns", 0.99),
        )
        .metric("c10k_hub_flush_p50_ms", stage_ms("hub.flush_ns", 0.50))
        .metric("c10k_hub_flush_p99_ms", stage_ms("hub.flush_ns", 0.99));
    let path = out.write().expect("write BENCH_c10k.json");
    eprintln!("c10k: wrote {}", path.display());
}

criterion_group!(benches, bench_c10k);
criterion_main!(benches);
