//! End-to-end observability over real loopback TCP: client-generated
//! trace ids showing up in the hub's slow-query span tree, the live
//! `Metrics` opcode, and clients that send no trace envelope (bare
//! frames).

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use deeplake_core::dataset::TensorOptions;
use deeplake_core::Dataset;
use deeplake_hub::{Hub, HubHandle, HubOptions};
use deeplake_remote::proto::{self, Request};
use deeplake_remote::RemoteProvider;
use deeplake_storage::{DynProvider, MemoryProvider, StorageProvider};
use deeplake_tensor::{Htype, Sample};
use deeplake_tql::QueryOptions;

/// A hub mounting one small dataset, with the slow-query threshold at
/// zero so every query lands in the ring.
fn query_hub() -> HubHandle {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    let mut ds = Dataset::create(storage.clone(), "obsds").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(256);
        o
    })
    .unwrap();
    for i in 0..500u64 {
        ds.append_row(vec![("labels", Sample::scalar((i / 100) as i32))])
            .unwrap();
    }
    ds.flush().unwrap();
    Hub::builder()
        .mount("obsds", storage)
        .options(HubOptions {
            slow_query_threshold: Duration::ZERO,
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap()
}

/// The acceptance-criteria scenario: one query through a real client
/// produces a connected span tree on the hub, retrievable over the wire
/// via the `Metrics` opcode, whose root is parented to the client-side
/// span that sent the request.
#[test]
fn client_trace_connects_to_hub_span_tree() {
    let hub = query_hub();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    assert!(client.tracing_enabled(), "tracing is the default");
    client.attach("obsds").unwrap();

    let rows = client
        .query(
            "SELECT labels FROM obsds WHERE labels = 3",
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(rows.len(), 100);
    // capture BEFORE hub_metrics(): that call is itself a traced round
    // trip and advances the client's last-trace record
    let (trace_id, client_span) = client.last_trace();
    assert_ne!(trace_id, 0, "client must have generated a trace id");

    let snap = client.hub_metrics().unwrap();
    let entry = snap
        .slow_queries
        .iter()
        .find(|e| e.trace_id == trace_id)
        .expect("the traced query must be in the slow-query log");

    // the hub-side tree hangs off the client's send span
    assert_eq!(entry.parent_span, client_span);
    assert_eq!(entry.dataset, "obsds");
    assert!(
        entry.text.contains("SELECT"),
        "canonical text: {}",
        entry.text
    );

    let span = |name: &str| {
        entry
            .spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} missing"))
    };
    // connected: every stage hangs off the request root, storage hangs
    // off the execute stage that issued the round trips
    assert_eq!(span("queue_wait").parent_span, entry.root_span);
    assert_eq!(span("cache_lookup").parent_span, entry.root_span);
    assert_eq!(span("execute").parent_span, entry.root_span);
    assert_eq!(span("storage").parent_span, span("execute").span_id);
    // and the interesting stages actually measured something
    assert!(span("queue_wait").dur_ns > 0, "queue wait must be non-zero");
    assert!(span("execute").dur_ns > 0, "execute must be non-zero");
    assert!(span("storage").dur_ns > 0, "storage RT must be non-zero");
    assert!(entry.total_ns >= span("execute").dur_ns);

    // the same stages feed the hub-wide histograms
    for stage in ["hub.queue_wait_ns", "hub.execute_ns", "hub.storage_ns"] {
        assert!(
            snap.histogram(stage).is_some_and(|h| !h.is_empty()),
            "{stage} must be populated"
        );
    }

    // the client kept its own ledger of the exchange
    let mine = client.metrics();
    assert!(mine
        .histogram("client.round_trip_ns")
        .is_some_and(|h| h.count >= 2)); // query + metrics fetch
    assert!(mine.counter("client.wire.round_trips").unwrap_or(0) >= 2);
}

/// The protocol version promises the `Traced` envelope, so a dial needs
/// no capability probe: `Hello` and `Pipeline`, plus the attach replay
/// on a socket dialed while attached — and nothing else.
#[test]
fn dial_is_hello_then_pipeline() {
    let hub = query_hub();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    assert!(client.tracing_enabled());
    assert_eq!(hub.stats().requests(), 2, "Hello + Pipeline");
    client.attach("obsds").unwrap(); // dials a fresh socket
    assert_eq!(hub.stats().requests(), 5, "+ Hello + Attach + Pipeline");
}

/// A client that sends no trace envelope — bare request frames, as
/// `RemoteOptions::tracing = false` and hand-rolled clients do — is
/// served byte-for-byte.
#[test]
fn legacy_untagged_frames_are_still_served() {
    let storage = Arc::new(MemoryProvider::new());
    storage
        .put("k", Bytes::from_static(b"legacy value"))
        .unwrap();
    let hub = Hub::builder()
        .default_mount(storage)
        .bind("127.0.0.1:0")
        .unwrap();

    let mut stream = TcpStream::connect(hub.addr()).unwrap();
    let hello = proto::encode_request(&Request::Hello {
        version: proto::PROTO_VERSION,
    });
    proto::write_frame(&mut stream, &hello).unwrap();
    stream.flush().unwrap();
    let resp = proto::read_frame(&mut stream).unwrap().expect("open");
    proto::expect_hello(&resp).unwrap();

    // no Traced wrapper — the bare Get opcode
    let get = proto::encode_request(&Request::Get { key: "k".into() });
    proto::write_frame(&mut stream, &get).unwrap();
    stream.flush().unwrap();
    let resp = proto::read_frame(&mut stream).unwrap().expect("served");
    assert_eq!(
        proto::expect_bytes(&resp).unwrap(),
        Bytes::from_static(b"legacy value")
    );

    // the hub metered the legacy request like any other
    let snap = hub.metrics();
    assert!(snap.counter("hub.requests").unwrap_or(0) >= 1);
    assert!(snap
        .histogram("hub.queue_wait_ns")
        .is_some_and(|h| !h.is_empty()));
}

/// Cache hits cost zero (or one memoized-head) storage round trips;
/// their near-zero samples must not land in `hub.storage_ns`, or a
/// hot-cache workload drags the histogram's percentiles far below the
/// real storage latency of the cache-miss queries it exists to size.
#[test]
fn storage_histogram_records_only_cache_misses() {
    let hub = query_hub();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("obsds").unwrap();
    let q = "SELECT labels FROM obsds WHERE labels = 1";

    client.query(q, &QueryOptions::default()).unwrap();
    let misses = hub
        .metrics()
        .histogram("hub.storage_ns")
        .expect("storage histogram")
        .count;
    assert!(misses >= 1, "the cold query is a miss");

    for _ in 0..5 {
        client.query(q, &QueryOptions::default()).unwrap();
    }
    let snap = hub.metrics();
    assert!(
        snap.counter("hub.cache.cache_hits").unwrap_or(0) >= 5,
        "repeats must be served from the result cache"
    );
    assert_eq!(
        snap.histogram("hub.storage_ns").unwrap().count,
        misses,
        "cache hits must not add storage samples"
    );
}

/// The `Metrics` opcode smoke: after ordinary storage traffic the
/// snapshot has non-zero counters and populated histograms, and an
/// untraced-legacy hub keeps an empty slow log (nothing crossed the
/// default 250 ms threshold on loopback).
#[test]
fn metrics_opcode_reports_live_instruments() {
    let storage = Arc::new(MemoryProvider::new());
    let hub = Hub::builder()
        .default_mount(storage)
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();

    client.put("a", Bytes::from_static(b"1")).unwrap();
    client.put("b", Bytes::from_static(b"2")).unwrap();
    assert_eq!(client.get("a").unwrap(), Bytes::from_static(b"1"));

    let snap = client.hub_metrics().unwrap();
    assert!(snap.counter("hub.requests").unwrap_or(0) >= 3);
    assert!(snap.counter("hub.wire.round_trips").unwrap_or(0) >= 3);
    assert!(snap
        .histogram("hub.queue_wait_ns")
        .is_some_and(|h| !h.is_empty()));
    assert!(snap
        .histogram("hub.flush_ns")
        .is_some_and(|h| !h.is_empty()));
    assert!(snap.slow_queries.is_empty(), "no TQL ran, no slow queries");
}

/// The `Health` opcode end to end: hub state (uptime, queue capacity,
/// mounts, capabilities) plus the flight-recorder tail, which must
/// already contain this very connection's accept event.
#[test]
fn health_opcode_reports_hub_state_and_flight_events() {
    let hub = query_hub();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("obsds").unwrap();
    client.put("warm", Bytes::from_static(b"up")).unwrap();

    let report = client.hub_health().unwrap();
    assert_eq!(report.queue_cap, HubOptions::default().queue_depth as u64);
    assert_eq!(report.datasets, vec!["obsds".to_string()]);
    assert_eq!(report.proto_version, proto::PROTO_VERSION);
    assert!(report.tracing, "this hub understands the trace envelope");
    assert!(
        report
            .events
            .iter()
            .any(|e| e.kind == deeplake_obs::FlightEvent::CONN_ACCEPT),
        "the probe's own accept must be on the recorder: {:?}",
        report.events
    );
    // Health is answered inline on the event loop — in_flight counts
    // only data-path jobs, and none are running now
    assert_eq!(report.in_flight, 0);

    // the same state is visible locally, without a connection
    let local = hub.health();
    assert_eq!(local.queue_cap, report.queue_cap);
    assert_eq!(local.datasets, report.datasets);
    assert!(local.uptime_ms >= report.uptime_ms);
}

/// Windowed instruments surface in the snapshot next to their
/// monotonic shadows: `hub.queries_rate` beside `hub.queries`, and the
/// rolling latency histogram under the `.w1`/`.w10`/`.w60` names.
#[test]
fn windowed_rates_ride_along_in_the_snapshot() {
    let hub = query_hub();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("obsds").unwrap();
    for _ in 0..4 {
        client
            .query(
                "SELECT labels FROM obsds WHERE labels = 2",
                &QueryOptions::default(),
            )
            .unwrap();
    }
    let snap = client.hub_metrics().unwrap();
    let rate = snap
        .rate("hub.queries_rate")
        .expect("the query rate window must be registered");
    // all 4 queries ran just now: every window (1 s may have rolled on
    // a slow machine, so check the 60 s one) holds them
    assert!(rate.counts[2] >= 4, "60s window: {:?}", rate.counts);
    assert!(snap.rate("hub.bytes_out_rate").is_some());
    assert!(snap.rate("hub.errors_rate").is_some());
    // rates are NOT counters: window totals go down again, which would
    // break the counters section's monotonicity contract
    assert!(snap.counter("hub.queries_rate").is_none());
    let w60 = snap
        .histogram("hub.query_ns.w60")
        .expect("windowed latency snapshot");
    assert!(w60.count >= 4);
    assert!(w60.quantile(0.99) > 0, "recent p99 must be a real latency");
}

/// Satellite: scraping `Metrics` and `Health` concurrently with live
/// traffic must never tear — every counter and histogram total in a
/// later snapshot is >= the same name's total in an earlier one.
#[test]
fn concurrent_scrapes_stay_monotonic_under_load() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let hub = query_hub();
    let addr = hub.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let mut load = Vec::new();
    for worker in 0..3 {
        let stop = Arc::clone(&stop);
        load.push(std::thread::spawn(move || {
            let client = RemoteProvider::connect(addr).unwrap();
            client.attach("obsds").unwrap();
            while !stop.load(Ordering::Relaxed) {
                let label = worker % 5;
                client
                    .query(
                        &format!("SELECT labels FROM obsds WHERE labels = {label}"),
                        &QueryOptions::default(),
                    )
                    .unwrap();
            }
        }));
    }

    let scraper = RemoteProvider::connect(addr).unwrap();
    let mut last = scraper.hub_metrics().unwrap();
    // at least 20 scrapes, and on until the load has demonstrably run
    // beside them (on a busy box 40 scrape round trips can finish before
    // three fresh clients have dialled, attached and queried 20 times)
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut scrapes = 0;
    while scrapes < 20
        || (last.counter("hub.queries").unwrap_or(0) < 20 && std::time::Instant::now() < deadline)
    {
        scrapes += 1;
        let _ = scraper.hub_health().unwrap();
        let next = scraper.hub_metrics().unwrap();
        for (name, value) in &last.counters {
            assert!(
                next.counter(name).unwrap_or(0) >= *value,
                "counter {name} went backwards under load"
            );
        }
        for (name, hist) in &last.histograms {
            // windowed (`.w*`) entries roll off by design; lifetime
            // histograms only grow
            if name.contains(".w") {
                continue;
            }
            let later = next.histogram(name).expect("histograms never vanish");
            assert!(
                later.count >= hist.count && later.sum >= hist.sum,
                "histogram {name} went backwards under load"
            );
        }
        last = next;
    }
    stop.store(true, Ordering::Relaxed);
    for handle in load {
        handle.join().unwrap();
    }
    assert!(last.counter("hub.queries").unwrap_or(0) >= 20);
}
