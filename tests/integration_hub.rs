//! Multi-dataset hub acceptance: one hub serves several datasets to a
//! fleet of concurrent clients with results byte-identical to direct
//! mounts, and a repeated version-pinned query is answered from the
//! result cache with an order of magnitude fewer server-side storage
//! round trips than its first execution.

use std::sync::Arc;

use deeplake::hub::Hub;
use deeplake::prelude::*;
use deeplake::storage::DynProvider;
use deeplake::tql;

const ROWS: u64 = 2_000;

/// Metered sim-cloud storage so server-side round trips are countable.
fn metered() -> Arc<SimulatedCloudProvider<MemoryProvider>> {
    Arc::new(SimulatedCloudProvider::new(
        "s3",
        MemoryProvider::new(),
        NetworkProfile::instant(),
    ))
}

/// Build a dataset with prunable sorted labels (`offset + i / 50`) and
/// commit, so both head and pinned-version queries are exercised.
fn build_dataset(provider: DynProvider, name: &str, offset: i32) -> String {
    let mut ds = Dataset::create(provider, name).unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(256);
        o
    })
    .unwrap();
    for i in 0..ROWS {
        ds.append_row(vec![("labels", Sample::scalar(offset + (i / 50) as i32))])
            .unwrap();
    }
    ds.flush().unwrap();
    ds.commit("hub acceptance dataset").unwrap()
}

/// One hub, two datasets, eight concurrent clients: every query and raw
/// read answers byte-identically to a direct (local) mount of the same
/// storage.
#[test]
fn hub_serves_two_datasets_to_eight_clients_byte_identically() {
    const CLIENTS: usize = 8;
    let storage_a = metered();
    let storage_b = metered();
    build_dataset(storage_a.clone(), "alpha", 0);
    build_dataset(storage_b.clone(), "beta", 10_000);
    let hub = Hub::builder()
        .mount("alpha", storage_a.clone())
        .mount("beta", storage_b.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = hub.addr();

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..CLIENTS {
            let storage: DynProvider = if c % 2 == 0 {
                storage_a.clone()
            } else {
                storage_b.clone()
            };
            joins.push(scope.spawn(move || {
                let (name, offset) = if c % 2 == 0 {
                    ("alpha", 0)
                } else {
                    ("beta", 10_000)
                };
                let remote = Arc::new(RemoteProvider::connect(addr).unwrap());
                remote.attach(name).unwrap();

                // ground truth from the direct mount
                let direct = Dataset::open(storage.clone()).unwrap();
                let text = format!(
                    "SELECT labels FROM d WHERE labels = {}",
                    offset + 7 + (c as i32 % 3)
                );
                let expected = tql::query(&direct, &text).unwrap();

                // 1. offloaded query through the hub
                let offloaded = remote.query(&text, &QueryOptions::default()).unwrap();
                assert_eq!(offloaded.indices, expected.indices, "client {c}");
                assert_eq!(
                    offloaded.rows.as_ref().unwrap().len(),
                    expected.indices.len()
                );

                // 2. client-side execution over hub-served chunks
                let ds = Dataset::open(remote.clone()).unwrap();
                assert_eq!(ds.len(), direct.len());
                let pulled = tql::query(&ds, &text).unwrap();
                assert_eq!(pulled.indices, expected.indices, "client {c}");

                // 3. raw storage reads are byte-identical
                for key in ["dataset.json", "version_control_info.json"] {
                    assert_eq!(
                        remote.get(key).unwrap(),
                        storage.get(key).unwrap(),
                        "client {c} byte mismatch on {key}"
                    );
                }
                // and a sample row decodes to the same value
                let row = 123 + c as u64 * 17;
                assert_eq!(
                    ds.get("labels", row).unwrap().get_f64(0).unwrap(),
                    direct.get("labels", row).unwrap().get_f64(0).unwrap(),
                );
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    });
    assert!(hub.stats().requests() > 0);
    assert_eq!(hub.datasets(), vec!["alpha", "beta"]);
}

/// The acceptance ratio: a repeated version-pinned query costs ≥ 10x
/// fewer server-side storage round trips than its first execution —
/// measured on the mounted provider's `StorageStats`, with the hub's
/// `HubStats` counters confirming both queries were served.
#[test]
fn repeated_query_is_10x_cheaper_in_storage_round_trips() {
    let storage = metered();
    let commit = build_dataset(storage.clone(), "pinned", 0);
    let hub = Hub::builder()
        .mount("pinned", storage.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("pinned").unwrap();

    // pin to the committed (immutable) version explicitly
    let text = format!("SELECT labels FROM d AT VERSION \"{commit}\" WHERE labels = 7");

    let before = storage.stats().snapshot();
    let queries_before = hub.stats().queries();
    let first = client.query(&text, &QueryOptions::default()).unwrap();
    let after_first = storage.stats().snapshot();
    let first_rts = after_first.delta_since(&before).round_trips;
    assert_eq!(first.len(), 50);
    assert!(first_rts > 0, "first execution must touch storage");

    const REPEATS: u64 = 10;
    for _ in 0..REPEATS {
        let again = client.query(&text, &QueryOptions::default()).unwrap();
        assert_eq!(again.indices, first.indices);
        assert_eq!(again.rows, first.rows);
        assert_eq!(again.version, first.version);
    }
    let repeat_rts = storage
        .stats()
        .snapshot()
        .delta_since(&after_first)
        .round_trips;
    assert_eq!(hub.stats().queries(), queries_before + 1 + REPEATS);
    assert!(
        first_rts >= 10 * repeat_rts.max(1) || repeat_rts == 0,
        "cache too weak: first execution {first_rts} storage round trips, \
         {REPEATS} repeats {repeat_rts}"
    );
    assert_eq!(
        repeat_rts, 0,
        "a version-pinned repeat must be a pure frame copy (zero storage round trips)"
    );
    assert_eq!(hub.cache().stats().cache_hits(), REPEATS);

    // the pinned entry survives writes to the dataset's head: the next
    // query pays one round trip to re-resolve the head the write may
    // have moved, then hits the cache — never a re-execution
    client
        .put("unrelated/key", bytes::Bytes::from_static(b"x"))
        .unwrap();
    let written = storage.stats().snapshot();
    let after_write = client.query(&text, &QueryOptions::default()).unwrap();
    assert_eq!(after_write.indices, first.indices);
    let after_write_rts = storage.stats().snapshot().delta_since(&written).round_trips;
    assert!(
        after_write_rts <= 1,
        "committed-version entries must survive head writes \
         (paid {after_write_rts} round trips, expected just the head re-resolution)"
    );
    assert!(after_write_rts * 10 < first_rts);
}
