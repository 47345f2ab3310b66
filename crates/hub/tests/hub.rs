//! End-to-end hub tests: a real TCP hub on 127.0.0.1, real
//! `RemoteProvider` clients attaching to named datasets.

use std::sync::Arc;

use bytes::Bytes;
use deeplake_core::dataset::TensorOptions;
use deeplake_core::Dataset;
use deeplake_hub::{Hub, HubHandle, HubOptions};
use deeplake_remote::{proto, RemoteProvider};
use deeplake_storage::{
    contract, DynProvider, MemoryProvider, NetworkProfile, SimulatedCloudProvider, StorageError,
    StorageProvider,
};
use deeplake_tensor::{Htype, Sample};
use deeplake_tql::QueryOptions;

fn two_dataset_hub() -> (HubHandle, DynProvider, DynProvider) {
    let a: DynProvider = Arc::new(MemoryProvider::new());
    let b: DynProvider = Arc::new(MemoryProvider::new());
    let hub = Hub::builder()
        .mount("alpha", a.clone())
        .mount("beta", b.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    (hub, a, b)
}

fn labelled_dataset(provider: DynProvider, name: &str, rows: u64, offset: i32) {
    let mut ds = Dataset::create(provider, name).unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(256);
        o
    })
    .unwrap();
    for i in 0..rows {
        ds.append_row(vec![("labels", Sample::scalar(offset + i as i32))])
            .unwrap();
    }
    ds.flush().unwrap();
}

/// The full provider-contract suite — identical to what the five local
/// providers and the PR-4 single-dataset server pass — against a dataset
/// reached through `attach(name)` on a multi-dataset hub.
#[test]
fn attached_mount_passes_full_contract() {
    let (hub, _, _) = two_dataset_hub();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("alpha").unwrap();
    contract::check_provider_contract("hub(alpha)", &client);
}

/// Writes to dataset A are never visible under dataset B's namespace,
/// even from two clients on one hub talking concurrently.
#[test]
fn two_clients_two_datasets_are_isolated() {
    let (hub, a, b) = two_dataset_hub();
    let ca = RemoteProvider::connect(hub.addr()).unwrap();
    ca.attach("alpha").unwrap();
    let cb = RemoteProvider::connect(hub.addr()).unwrap();
    cb.attach("beta").unwrap();

    std::thread::scope(|scope| {
        let ca = &ca;
        let cb = &cb;
        scope.spawn(move || {
            for i in 0..50 {
                ca.put(&format!("k{i}"), Bytes::from(vec![b'a'; 16]))
                    .unwrap();
            }
        });
        scope.spawn(move || {
            for i in 0..50 {
                cb.put(&format!("k{i}"), Bytes::from(vec![b'b'; 16]))
                    .unwrap();
            }
        });
    });
    // each client sees exactly its own writes...
    assert_eq!(ca.get("k0").unwrap(), Bytes::from(vec![b'a'; 16]));
    assert_eq!(cb.get("k0").unwrap(), Bytes::from(vec![b'b'; 16]));
    assert_eq!(ca.list("").unwrap().len(), 50);
    // ...and the mounted providers agree (no cross-namespace leakage)
    assert_eq!(a.get("k0").unwrap(), Bytes::from(vec![b'a'; 16]));
    assert_eq!(b.get("k0").unwrap(), Bytes::from(vec![b'b'; 16]));
    // a key only A has is NotFound under B, naming the requested key
    ca.put("only/a", Bytes::from_static(b"x")).unwrap();
    assert_eq!(
        cb.get("only/a").unwrap_err(),
        StorageError::NotFound("only/a".into())
    );
}

/// Attach to an unknown dataset fails with a typed NotFound; the
/// connection stays usable and can attach elsewhere.
#[test]
fn attach_unknown_dataset_errors() {
    let (hub, _, _) = two_dataset_hub();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    match client.attach("gamma") {
        Err(StorageError::NotFound(msg)) => assert!(msg.contains("gamma"), "{msg:?}"),
        other => panic!("unexpected {other:?}"),
    }
    client.attach("alpha").unwrap();
    assert_eq!(client.attached().as_deref(), Some("alpha"));
}

/// A hub with named mounts only (no default) refuses unattached data
/// ops with a clear error instead of guessing a namespace.
#[test]
fn unattached_ops_need_a_default_mount() {
    let (hub, _, _) = two_dataset_hub();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    match client.get("k") {
        Err(StorageError::Io(msg)) => assert!(msg.contains("Attach"), "{msg:?}"),
        other => panic!("unexpected {other:?}"),
    }
}

/// ListDatasets / wire Mount / Unmount manage the registry remotely.
#[test]
fn wire_mount_unmount_and_listing() {
    let backing: DynProvider = Arc::new(MemoryProvider::new());
    let hub = Hub::builder()
        .backing(backing.clone())
        .mount("custom", Arc::new(MemoryProvider::new()))
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    assert_eq!(client.list_datasets().unwrap(), vec!["custom"]);
    client.remote_mount("mnist").unwrap();
    client.remote_mount("laion").unwrap();
    // re-mounting the identical wire namespace is idempotent...
    client.remote_mount("mnist").unwrap();
    // ...but a name bound to a DIFFERENT backend must not be aliased
    assert!(client.remote_mount("custom").is_err());
    assert_eq!(
        client.list_datasets().unwrap(),
        vec!["custom", "laion", "mnist"]
    );
    // invalid names are refused before they can escape the namespace
    assert!(client.remote_mount("../evil").is_err());
    assert!(client.remote_mount("..").is_err());
    // the mount namespaces keys on the backing store
    client.attach("mnist").unwrap();
    client.put("k", Bytes::from_static(b"v")).unwrap();
    assert!(backing.exists("datasets/mnist/k").unwrap());
    assert!(!backing.exists("k").unwrap());
    // unmount: gone from the listing, attached clients get NotFound
    client.remote_unmount("mnist").unwrap();
    assert_eq!(client.list_datasets().unwrap(), vec!["custom", "laion"]);
    match client.get("k") {
        Err(StorageError::NotFound(msg)) => assert!(msg.contains("mnist"), "{msg:?}"),
        other => panic!("unexpected {other:?}"),
    }
}

/// Full dataset lifecycle + TQL offload against two datasets on one
/// hub: results match what each dataset holds, never the other's.
#[test]
fn query_offload_respects_attachment() {
    let (hub, a, b) = two_dataset_hub();
    labelled_dataset(a, "alpha", 30, 0); // labels 0..30
    labelled_dataset(b, "beta", 30, 1000); // labels 1000..1030
    let ca = RemoteProvider::connect(hub.addr()).unwrap();
    ca.attach("alpha").unwrap();
    let cb = RemoteProvider::connect(hub.addr()).unwrap();
    cb.attach("beta").unwrap();
    let ra = ca
        .query(
            "SELECT labels FROM d WHERE labels < 5",
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(ra.indices, vec![0, 1, 2, 3, 4]);
    let rb = cb
        .query(
            "SELECT labels FROM d WHERE labels < 5",
            &QueryOptions::default(),
        )
        .unwrap();
    assert!(rb.indices.is_empty(), "beta has no labels below 5");
    let rb = cb
        .query(
            "SELECT labels FROM d WHERE labels < 1005",
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(rb.indices, vec![0, 1, 2, 3, 4]);
}

/// The result cache: a repeated version-pinned query is served as a
/// frame copy — byte-identical result, zero storage round trips, and
/// whitespace/case variants share the entry.
#[test]
fn repeated_queries_hit_the_result_cache() {
    let storage = Arc::new(SimulatedCloudProvider::new(
        "s3",
        MemoryProvider::new(),
        NetworkProfile::instant(),
    ));
    labelled_dataset(storage.clone(), "cached", 64, 0);
    let hub = Hub::builder()
        .mount("cached", storage.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("cached").unwrap();

    let before = storage.stats().snapshot();
    let first = client
        .query(
            "SELECT labels FROM d WHERE labels = 3",
            &QueryOptions::default(),
        )
        .unwrap();
    let after_first = storage.stats().snapshot();
    assert!(
        after_first.delta_since(&before).round_trips > 0,
        "the first execution touches storage"
    );
    assert_eq!(hub.cache().stats().cache_misses(), 1);

    let again = client
        .query(
            "SELECT labels FROM d WHERE labels = 3",
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(
        storage
            .stats()
            .snapshot()
            .delta_since(&after_first)
            .round_trips,
        0,
        "a hit is a pure frame copy"
    );
    assert_eq!(again.indices, first.indices);
    assert_eq!(again.rows, first.rows);
    assert_eq!(again.stats, first.stats);
    assert_eq!(hub.cache().stats().cache_hits(), 1);

    // canonicalization: a formatting variant is the same cache entry
    let variant = client
        .query(
            "select   labels from d  where labels=3",
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(
        storage
            .stats()
            .snapshot()
            .delta_since(&after_first)
            .round_trips,
        0
    );
    assert_eq!(variant.indices, first.indices);
    assert_eq!(hub.cache().stats().cache_hits(), 2);

    // different options = different entry (stats differ between paths)
    let pruned_off = QueryOptions {
        pruning: false,
        ..QueryOptions::default()
    };
    let naive = client
        .query("SELECT labels FROM d WHERE labels = 3", &pruned_off)
        .unwrap();
    assert_eq!(naive.indices, first.indices);
    assert_eq!(hub.cache().stats().cache_misses(), 2);
}

/// Writes through the hub invalidate head-tip results: a query after an
/// append sees the new rows (no stale cache), while results pinned to a
/// committed version keep hitting.
#[test]
fn writes_invalidate_mutable_entries_but_not_pinned_ones() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    let hub = Hub::builder()
        .mount("ds", storage.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client = Arc::new(RemoteProvider::connect(hub.addr()).unwrap());
    client.attach("ds").unwrap();

    // build the dataset THROUGH the hub and commit a version
    let commit = {
        let mut ds = Dataset::create(client.clone(), "ds").unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        for i in 0..10 {
            ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
        }
        ds.commit("ten rows").unwrap()
    };
    let text = "SELECT labels FROM ds WHERE labels >= 0";
    let at_commit = format!("SELECT labels FROM ds AT VERSION \"{commit}\" WHERE labels >= 0");

    let head_r = client.query(text, &QueryOptions::default()).unwrap();
    assert_eq!(head_r.indices.len(), 10);
    let pinned_r = client.query(&at_commit, &QueryOptions::default()).unwrap();
    assert_eq!(pinned_r.indices.len(), 10);

    // append two more rows through the hub
    {
        let mut ds = Dataset::open(client.clone()).unwrap();
        for i in 10..12 {
            ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
        }
        ds.flush().unwrap();
    }
    // the head query must see 12 rows now — not a stale cached 10
    let head_r = client.query(text, &QueryOptions::default()).unwrap();
    assert_eq!(head_r.indices.len(), 12, "stale cache served after write");
    // the committed-version query still answers 10, from cache
    let hits_before = hub.cache().stats().cache_hits();
    let pinned_again = client.query(&at_commit, &QueryOptions::default()).unwrap();
    assert_eq!(pinned_again.indices.len(), 10);
    assert_eq!(
        hub.cache().stats().cache_hits(),
        hits_before + 1,
        "pinned entry must survive the write"
    );
}

/// The cache's byte budget evicts least-recently-used entries and counts
/// them — the same contract the storage LRU exposes.
#[test]
fn cache_byte_budget_evicts_and_counts() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    labelled_dataset(storage.clone(), "small", 32, 0);
    let hub = Hub::builder()
        .mount("small", storage)
        .options(HubOptions {
            cache_bytes: 700, // room for only a couple of result frames
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("small").unwrap();
    for i in 0..8 {
        client
            .query(
                &format!("SELECT labels FROM d WHERE labels = {i}"),
                &QueryOptions::default(),
            )
            .unwrap();
    }
    assert!(hub.cache().cached_bytes() <= 700);
    assert!(
        hub.cache().evictions() > 0,
        "8 distinct results cannot fit a 700-byte budget without evicting"
    );
}

/// Samples the named hub histogram has recorded.
fn samples(hub: &HubHandle, name: &str) -> u64 {
    hub.metrics().histogram(name).map_or(0, |h| h.count)
}

/// Data ops that reached the pool so far: one `hub.queue_wait_ns` sample
/// is recorded per job a worker pops, none for what a loop answers.
fn pool_visits(hub: &HubHandle) -> u64 {
    samples(hub, "hub.queue_wait_ns")
}

/// A cache hit does not visit the pool: the first arrival of a text is
/// parsed and answered by a worker, every later arrival of those exact
/// bytes by the event loop — while each query is still looked up, flushed
/// and counted exactly once.
#[test]
fn a_repeated_query_text_never_visits_the_pool() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    labelled_dataset(storage.clone(), "rows", 64, 0);
    let hub = Hub::builder()
        .mount("rows", storage)
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("rows").unwrap();
    let opts = QueryOptions::default();
    const REPEATS: u64 = 25;

    let text = "SELECT labels FROM rows WHERE labels = 3";
    let visits = pool_visits(&hub);
    let requests = hub.stats().requests();
    let first = client.query(text, &opts).unwrap();
    assert_eq!(first.indices, [3]);
    assert_eq!(pool_visits(&hub), visits + 1, "the first arrival is a job");
    for _ in 0..REPEATS {
        let again = client.query(text, &opts).unwrap();
        assert_eq!(
            (again.indices, again.stats),
            (first.indices.clone(), first.stats)
        );
    }
    assert_eq!(pool_visits(&hub), visits + 1, "later arrivals are not");
    assert_eq!(hub.stats().requests(), requests + 1 + REPEATS);
    assert_eq!(hub.stats().queries(), 1 + REPEATS);
    assert_eq!(hub.cache().stats().cache_misses(), 1);
    assert_eq!(hub.cache().stats().cache_hits(), REPEATS);
    // one lookup and one flush sample per query, wherever it was served
    assert_eq!(samples(&hub, "hub.cache_lookup_ns"), 1 + REPEATS);
    assert_eq!(samples(&hub, "hub.flush_ns"), 1 + REPEATS);
    assert_eq!(samples(&hub, "hub.execute_ns"), 1);

    // a formatting variant is new bytes: one worker visit (which hits
    // the canonical entry — nothing re-executes), then the loop's
    let variant = "select   labels from rows  where labels=3";
    for _ in 0..REPEATS {
        assert_eq!(client.query(variant, &opts).unwrap().indices, [3]);
    }
    assert_eq!(pool_visits(&hub), visits + 2);
    assert_eq!(samples(&hub, "hub.execute_ns"), 1);
    assert_eq!(hub.cache().stats().cache_misses(), 1);
    assert_eq!(hub.cache().stats().cache_hits(), 2 * REPEATS);
    assert_eq!(
        hub.cache().cached_entries(),
        1,
        "both texts share one frame"
    );

    // other options are another entry: its first arrival is a job again
    let naive = QueryOptions {
        pruning: false,
        ..opts
    };
    for _ in 0..3 {
        assert_eq!(client.query(text, &naive).unwrap().indices, [3]);
    }
    assert_eq!(pool_visits(&hub), visits + 3);
    assert_eq!(hub.cache().stats().cache_misses(), 2);
    // an untraced client's bare frames are served the same way
    let bare = RemoteProvider::connect_with(
        hub.addr(),
        deeplake_remote::RemoteOptions {
            tracing: false,
            ..Default::default()
        },
    )
    .unwrap();
    bare.attach("rows").unwrap();
    assert_eq!(bare.query(text, &opts).unwrap().indices, [3]);
    assert_eq!(pool_visits(&hub), visits + 3);
}

/// Knowing a text never outlives what made its answer true: after a
/// write through the hub, an explicit invalidation, a remount and an
/// eviction, the same bytes are a miss that re-executes on a worker and
/// returns the new rows — then the loop's again.
#[test]
fn a_known_text_is_a_miss_again_after_every_invalidation() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    let hub = Hub::builder()
        .mount("ds", storage.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client = Arc::new(RemoteProvider::connect(hub.addr()).unwrap());
    client.attach("ds").unwrap();
    let append = |provider: DynProvider, range: std::ops::Range<i32>| {
        let mut ds = Dataset::open(provider).unwrap();
        for i in range {
            ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
        }
        ds.flush().unwrap();
    };
    {
        let mut ds = Dataset::create(client.clone(), "ds").unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        ds.flush().unwrap();
    }
    append(client.clone(), 0..10);

    let text = "SELECT labels FROM ds WHERE labels >= 0";
    // `rows` queries twice: the arrival that must re-execute on a worker,
    // then one the loop answers from what that worker cached
    let rows = |want: usize, why: &str| {
        let (visits, misses) = (pool_visits(&hub), hub.cache().stats().cache_misses());
        let got = client.query(text, &QueryOptions::default()).unwrap();
        assert_eq!(got.indices.len(), want, "stale rows after {why}");
        assert_eq!(pool_visits(&hub), visits + 1, "{why}: not re-executed");
        assert_eq!(hub.cache().stats().cache_misses(), misses + 1, "{why}");
        let again = client.query(text, &QueryOptions::default()).unwrap();
        assert_eq!(again.indices, got.indices);
        assert_eq!(pool_visits(&hub), visits + 1, "{why}: second arrival");
    };
    rows(10, "the first execution");
    append(client.clone(), 10..12);
    rows(12, "a write through the hub");
    append(storage.clone(), 12..13);
    hub.invalidate("ds");
    rows(13, "an out-of-band write and invalidate");
    let other: DynProvider = Arc::new(MemoryProvider::new());
    labelled_dataset(other.clone(), "ds", 5, 0);
    assert!(hub.unmount("ds"));
    hub.mount("ds", other).unwrap();
    rows(5, "unmount and mount");
}

/// The same, for an entry the byte budget pushed out: its raw text went
/// with it, so the next arrival is a job, not a dangling loop-side hit.
#[test]
fn an_evicted_entry_takes_its_known_texts_with_it() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    labelled_dataset(storage.clone(), "small", 32, 0);
    let hub = Hub::builder()
        .mount("small", storage)
        .options(HubOptions {
            cache_bytes: 700, // room for only a couple of result frames
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("small").unwrap();
    let query = |i: u64| {
        let text = format!("SELECT labels FROM d WHERE labels = {i}");
        let got = client.query(&text, &QueryOptions::default()).unwrap();
        assert_eq!(got.indices, [i]);
    };
    query(0);
    let visits = pool_visits(&hub);
    query(0);
    assert_eq!(pool_visits(&hub), visits, "known and cached");
    for i in 1..8 {
        query(i);
    }
    assert!(hub.cache().evictions() > 0);
    let (visits, misses) = (pool_visits(&hub), hub.cache().stats().cache_misses());
    query(0);
    assert_eq!(pool_visits(&hub), visits + 1, "evicted: executed again");
    assert_eq!(hub.cache().stats().cache_misses(), misses + 1);
    assert!(hub.cache().cached_bytes() <= 700);
}

/// 10 000 distinct formattings of one query: each is new bytes (a worker
/// parses it, hits the one canonical entry and records the text), all
/// return the same rows, and what the cache remembers of them stays
/// inside its byte budget.
#[test]
fn ten_thousand_formattings_of_one_query_stay_inside_the_budget() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    labelled_dataset(storage.clone(), "rows", 64, 0);
    let hub = Hub::builder()
        .mount("rows", storage)
        .options(HubOptions {
            cache_bytes: 2048,
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("rows").unwrap();
    const VARIANTS: u64 = 10_000;
    let visits = pool_visits(&hub);
    let mut first = None;
    for i in 0..VARIANTS {
        // five gaps of 1..=10 spaces: 100 000 distinct texts
        let gap = |k: u32| " ".repeat((i / 10u64.pow(k) % 10) as usize + 1);
        let text = format!(
            "SELECT{}labels{}FROM rows{}WHERE{}labels ={}3",
            gap(0),
            gap(1),
            gap(2),
            gap(3),
            gap(4)
        );
        let got = client.query(&text, &QueryOptions::default()).unwrap();
        assert_eq!(got.indices, [3]);
        let first = first.get_or_insert((got.rows.clone(), got.stats));
        assert_eq!((&got.rows, &got.stats), (&first.0, &first.1));
        if i % 100 == 0 {
            let cache = hub.cache();
            assert!(cache.cached_bytes() <= cache.budget(), "after {i}");
        }
    }
    let cache = hub.cache();
    assert!(cache.cached_bytes() <= cache.budget());
    assert_eq!(pool_visits(&hub), visits + VARIANTS, "every text was new");
    assert_eq!(cache.stats().cache_misses(), 1, "executed once");
    assert_eq!(cache.stats().cache_hits(), VARIANTS - 1);
    assert_eq!(cache.cached_entries(), 1);
    assert_eq!(
        cache.evictions(),
        0,
        "aliases displaced aliases, not the entry"
    );
}

/// The loop never parses: a text no parser accepts, however long, is
/// answered by a worker with the frame a local execution renders — every
/// time, because an unparseable text has no canonical form to be known
/// by — and a valid text padded past the alias bound is cached but not
/// remembered.
#[test]
fn unparseable_and_oversized_texts_are_always_the_pools() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    labelled_dataset(storage.clone(), "rows", 16, 0);
    let local = Dataset::open(storage.clone()).unwrap();
    let hub = Hub::builder()
        .mount("rows", storage)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut raw = raw_attached(&hub, "rows");
    let mut ask = |text: &str| {
        proto::write_frame(&mut raw, &query_frame(text)).unwrap();
        proto::read_frame(&mut raw).unwrap().unwrap()
    };
    let visits = pool_visits(&hub);
    let mut asked = 0;
    for text in [
        "SELEKT nothing".to_string(),
        format!("SELECT labels FROM rows WHERE {}", "= ".repeat(1 << 19)),
        format!("SELECT {}", "\u{1}".repeat(1 << 20)),
    ] {
        let err = deeplake_tql::query_opts(&local, &text, &QueryOptions::default())
            .expect_err("no parser accepts this");
        let want = proto::resp_query_err(&err.to_string());
        for _ in 0..3 {
            assert_eq!(ask(&text), want);
            asked += 1;
        }
    }
    assert_eq!(pool_visits(&hub), visits + asked, "never answered inline");
    assert_eq!(hub.cache().cached_bytes(), 0, "and never remembered");
    assert_eq!(hub.cache().stats().cache_hits(), 0);

    // parseable, but a megabyte of padding: one entry, no alias
    let padded = format!(
        "SELECT labels FROM rows WHERE labels = 3{}",
        " ".repeat(1 << 20)
    );
    let first = ask(&padded);
    assert_eq!(proto::expect_query(&first).unwrap().indices, [3]);
    let cached = hub.cache().cached_bytes();
    assert!(cached > 0 && cached < 4096, "{cached}");
    for _ in 0..3 {
        assert_eq!(ask(&padded), first);
    }
    assert_eq!(pool_visits(&hub), visits + asked + 4);
    assert_eq!(hub.cache().cached_bytes(), cached);
    assert_eq!(hub.cache().stats().cache_hits(), 3);
}

/// A mount whose every read takes `latency_ms`, holding `k0`/`k1` →
/// `<tag>-0`/`<tag>-1`.
fn slow_mount(tag: &str, latency_ms: u64) -> DynProvider {
    let slow = Arc::new(SimulatedCloudProvider::new(
        "slow",
        MemoryProvider::new(),
        NetworkProfile {
            first_byte_latency: std::time::Duration::from_millis(latency_ms),
            bandwidth_bps: u64::MAX,
            put_overhead: std::time::Duration::ZERO,
            scale: 1.0,
        },
    ));
    for i in 0..2 {
        let value = Bytes::from(format!("{tag}-{i}"));
        slow.inner().put(&format!("k{i}"), value).unwrap();
    }
    slow
}

/// Hand-speak the protocol so a test can write frames ahead without
/// waiting: Hello, then Attach to `dataset`, both untagged.
fn raw_attached(hub: &HubHandle, dataset: &str) -> std::net::TcpStream {
    let mut raw = std::net::TcpStream::connect(hub.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let hello = proto::encode_request(&proto::Request::Hello {
        version: proto::PROTO_VERSION,
    });
    proto::write_frame(&mut raw, &hello).unwrap();
    let resp = proto::read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(proto::expect_hello(&resp).unwrap(), proto::PROTO_VERSION);
    proto::write_frame(&mut raw, &attach_frame(dataset)).unwrap();
    proto::expect_unit(&proto::read_frame(&mut raw).unwrap().unwrap()).unwrap();
    raw
}

fn attach_frame(dataset: &str) -> Vec<u8> {
    proto::encode_request(&proto::Request::Attach {
        dataset: dataset.into(),
    })
}

fn get_frame(key: &str) -> Vec<u8> {
    proto::encode_request(&proto::Request::Get { key: key.into() })
}

/// Overload answers a lossless Busy frame: with a worker pool of one, a
/// queue of one and an in-flight cap of one, a burst of tagged requests
/// gets exactly one response per id, some of them Busy — and the stream
/// stays synchronized. (The in-flight cap lives on pipelined framing: an
/// untagged connection never has more than one request in flight.)
#[test]
fn overload_answers_lossless_busy_frames() {
    use std::io::Write;
    let hub = Hub::builder()
        .mount("slow", slow_mount("slow", 150))
        .options(HubOptions {
            workers: 1,
            queue_depth: 1,
            max_inflight_per_conn: 1,
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let mut raw = raw_attached(&hub, "slow");
    let pipeline = proto::encode_request(&proto::Request::Pipeline);
    proto::write_frame(&mut raw, &pipeline).unwrap();
    proto::expect_unit(&proto::read_frame(&mut raw).unwrap().unwrap()).unwrap();

    // burst of 4 tagged Gets; the first occupies the single worker for
    // ~150 ms, so the cap of 1 rejects the rest
    const BURST: u64 = 4;
    let mut wire = Vec::new();
    for id in 0..BURST {
        proto::write_frame(&mut wire, &proto::tag_request(10 + id, &get_frame("k0"))).unwrap();
    }
    raw.write_all(&wire).unwrap();

    let mut ok = 0;
    let mut busy = 0;
    let mut answered = std::collections::BTreeSet::new();
    for _ in 0..BURST {
        let resp = proto::read_frame(&mut raw)
            .unwrap()
            .expect("one response per request");
        let (id, body) = proto::split_tagged(&resp).expect("tagged response");
        assert!(answered.insert(id), "id {id} answered twice");
        match proto::expect_bytes(body) {
            Ok(data) => {
                assert_eq!(data, Bytes::from_static(b"slow-0"));
                ok += 1;
            }
            Err(StorageError::Busy(hint)) => {
                assert!(hint.contains("retry"), "{hint:?}");
                busy += 1;
            }
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(
        answered.into_iter().collect::<Vec<_>>(),
        (10..10 + BURST).collect::<Vec<_>>(),
        "lossless: every request answered under its own id"
    );
    assert!(ok >= 1, "the in-flight request must complete");
    assert!(busy >= 1, "the burst must overflow the cap");
    assert_eq!(hub.stats().busy_rejections(), busy as u64);

    // the connection is still synchronized: a polite request works
    proto::write_frame(&mut raw, &proto::tag_request(99, &get_frame("k1"))).unwrap();
    let resp = proto::read_frame(&mut raw).unwrap().unwrap();
    let (id, body) = proto::split_tagged(&resp).unwrap();
    assert_eq!(id, 99);
    assert_eq!(
        proto::expect_bytes(body).unwrap(),
        Bytes::from_static(b"slow-1")
    );
}

fn query_frame(text: &str) -> Vec<u8> {
    proto::encode_request(&proto::Request::Query {
        reference: "main".into(),
        text: text.into(),
        options: QueryOptions::default(),
    })
}

/// An untagged connection is request/response even when the client
/// writes ahead: the same burst that overflows a tagged connection's cap
/// is served one at a time, in order, with no `Busy` — an `Attach` in the
/// middle of the burst renames only the requests behind it, and a cached
/// query, which the loop answers itself, still waits its turn behind the
/// slow read in front of it.
#[test]
fn untagged_burst_is_served_in_order_without_busy() {
    use std::io::Write;
    let rows: DynProvider = Arc::new(MemoryProvider::new());
    labelled_dataset(rows.clone(), "rows", 16, 0);
    let hub = Hub::builder()
        .mount("slow", slow_mount("slow", 40))
        .mount("other", slow_mount("other", 40))
        .mount("rows", rows)
        .options(HubOptions {
            workers: 2,
            max_inflight_per_conn: 1,
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    // make the query text known to the cache: executed once, then its
    // second arrival is already the loop's
    let text = "SELECT labels FROM rows WHERE labels < 5";
    let mut raw = raw_attached(&hub, "rows");
    let mut cached = Vec::new();
    for _ in 0..2 {
        proto::write_frame(&mut raw, &query_frame(text)).unwrap();
        cached = proto::read_frame(&mut raw).unwrap().unwrap();
        assert_eq!(proto::expect_query(&cached).unwrap().indices.len(), 5);
    }
    let visits = pool_visits(&hub);

    let mut wire = Vec::new();
    for frame in [
        attach_frame("slow"),
        get_frame("k0"),
        get_frame("k1"),
        attach_frame("rows"),
        query_frame(text),
        query_frame(text),
        attach_frame("other"),
        get_frame("k0"),
        get_frame("k1"),
    ] {
        proto::write_frame(&mut wire, &frame).unwrap();
    }
    raw.write_all(&wire).unwrap();
    let mut next = || proto::read_frame(&mut raw).unwrap().expect("a response");
    proto::expect_unit(&next()).unwrap();
    assert_eq!(proto::expect_bytes(&next()).unwrap(), b"slow-0");
    assert_eq!(proto::expect_bytes(&next()).unwrap(), b"slow-1");
    proto::expect_unit(&next()).unwrap();
    assert_eq!(next(), cached, "an inline hit is the stored frame");
    assert_eq!(next(), cached);
    proto::expect_unit(&next()).unwrap();
    assert_eq!(proto::expect_bytes(&next()).unwrap(), b"other-0");
    assert_eq!(proto::expect_bytes(&next()).unwrap(), b"other-1");
    assert_eq!(hub.stats().busy_rejections(), 0);
    assert_eq!(
        pool_visits(&hub),
        visits + 4,
        "the four reads went to the pool, the two cached queries did not"
    );
}

/// A pipelined connection gets its cached queries answered by the loop
/// as it parses them: a burst of hits comes back in request order, each
/// under its own id, and each frame is `[len][id][stored body]` to the
/// byte — the wire format a copy-built response had.
#[test]
fn tagged_burst_of_cached_queries_is_answered_in_order_by_the_loop() {
    use std::io::{Read, Write};
    let rows: DynProvider = Arc::new(MemoryProvider::new());
    labelled_dataset(rows.clone(), "rows", 16, 0);
    let hub = Hub::builder()
        .mount("rows", rows)
        .options(HubOptions {
            // every hit is admitted although the connection may hold one
            // job at a time: a hit takes no in-flight slot
            max_inflight_per_conn: 1,
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let mut raw = raw_attached(&hub, "rows");
    let pipeline = proto::encode_request(&proto::Request::Pipeline);
    proto::write_frame(&mut raw, &pipeline).unwrap();
    proto::expect_unit(&proto::read_frame(&mut raw).unwrap().unwrap()).unwrap();

    let text = "SELECT labels FROM rows WHERE labels >= 12";
    proto::write_tagged_frame(&mut raw, 1, &query_frame(text)).unwrap();
    let first = proto::read_frame(&mut raw).unwrap().unwrap();
    let (id, body) = proto::split_tagged(&first).unwrap();
    assert_eq!(id, 1);
    assert_eq!(proto::expect_query(body).unwrap().indices, [12, 13, 14, 15]);
    let visits = pool_visits(&hub);

    const BURST: u64 = 8;
    let (mut wire, mut want) = (Vec::new(), Vec::new());
    for id in 100..100 + BURST {
        proto::write_tagged_frame(&mut wire, id, &query_frame(text)).unwrap();
        want.extend_from_slice(&(body.len() as u32 + 8).to_le_bytes());
        want.extend_from_slice(&id.to_le_bytes());
        want.extend_from_slice(body);
    }
    raw.write_all(&wire).unwrap();
    let mut got = vec![0u8; want.len()];
    raw.read_exact(&mut got).unwrap();
    assert_eq!(got, want);
    assert_eq!(pool_visits(&hub), visits, "no hit visited the pool");
    assert_eq!(hub.stats().busy_rejections(), 0);
    assert_eq!(hub.cache().stats().cache_hits(), BURST);
    assert_eq!(hub.cache().stats().cache_misses(), 1);
}

/// Shutdown with an untagged burst paused behind its in-flight request:
/// the requests admitted before intake closed are answered, the rest
/// are dropped unanswered, the stream ends in a clean EOF, nothing is
/// left queued for a pool that has gone, and `shutdown` returns.
#[test]
fn shutdown_with_a_paused_untagged_burst_ends_cleanly() {
    use std::io::Write;
    let mut hub = Hub::builder()
        .mount("slow", slow_mount("slow", 150))
        .bind("127.0.0.1:0")
        .unwrap();
    let mut raw = raw_attached(&hub, "slow");
    const BURST: usize = 4;
    let mut wire = Vec::new();
    for _ in 0..BURST {
        proto::write_frame(&mut wire, &get_frame("k0")).unwrap();
    }
    raw.write_all(&wire).unwrap();
    // long enough for the hub to read the burst and start its first
    // request, far shorter than that request's 150 ms
    std::thread::sleep(std::time::Duration::from_millis(30));
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        hub.shutdown();
        let _ = tx.send(hub.health().in_flight);
    });
    let mut answered = 0;
    while let Some(resp) = proto::read_frame(&mut raw).expect("responses, then a clean EOF") {
        assert_eq!(proto::expect_bytes(&resp).unwrap(), b"slow-0");
        answered += 1;
    }
    assert!(
        (1..=BURST).contains(&answered),
        "{answered} responses to {BURST} requests"
    );
    let in_flight = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown must return with a paused connection attached");
    assert_eq!(
        in_flight, 0,
        "a request was admitted after the pool drained"
    );
}

/// `RemoteProvider` absorbs transient overload: Busy frames are retried
/// with back-off client-side, so callers see successful results — the
/// hub's rejection counter proves the retries really happened.
#[test]
fn client_retries_absorb_transient_busy() {
    use deeplake_remote::RemoteOptions;
    let hub = Hub::builder()
        .mount("slow", slow_mount("slow", 60))
        .options(HubOptions {
            workers: 1,
            queue_depth: 1,
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let opts = RemoteOptions {
        busy_retries: 20,
        busy_backoff: std::time::Duration::from_millis(15),
        ..RemoteOptions::default()
    };
    // rounds of 3 concurrent gets against a 1-worker, 1-slot queue:
    // overflow answers Busy, the clients retry, every get succeeds
    for _ in 0..20 {
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let addr = hub.addr();
                scope.spawn(move || {
                    let client = RemoteProvider::connect_with(addr, opts).unwrap();
                    client.attach("slow").unwrap();
                    assert_eq!(client.get("k0").unwrap(), Bytes::from_static(b"slow-0"));
                });
            }
        });
        if hub.stats().busy_rejections() > 0 {
            return; // overload happened and was absorbed — done
        }
    }
    panic!("20 rounds of 3-way concurrency never overflowed a 1-slot queue");
}

/// A client speaking the wrong protocol generation — the next one, or
/// the previous one (which could not promise the `Traced` envelope) —
/// is rejected with the lossless hello error, over a real socket, not
/// just the codec.
#[test]
fn version_mismatch_rejected_over_tcp() {
    let (hub, _, _) = two_dataset_hub();
    for version in [proto::PROTO_VERSION + 1, proto::PROTO_VERSION - 1] {
        let mut raw = std::net::TcpStream::connect(hub.addr()).unwrap();
        let hello = proto::encode_request(&proto::Request::Hello { version });
        proto::write_frame(&mut raw, &hello).unwrap();
        let resp = proto::read_frame(&mut raw).unwrap().unwrap();
        let err = proto::expect_hello(&resp).unwrap_err();
        assert!(
            err.to_string().contains("unsupported"),
            "v{version}: unexpected {err:?}"
        );
        // the hub hangs up on incompatible clients: next read is EOF
        assert!(proto::read_frame(&mut raw).unwrap().is_none());
    }
}

/// Eight concurrent clients split across two datasets stream loader
/// epochs through one hub with byte-correct, isolated results.
#[test]
fn eight_clients_two_datasets_stream_epochs() {
    use deeplake_loader::DataLoader;
    const CLIENTS: usize = 8;
    const ROWS: u64 = 48;
    let (hub, a, b) = two_dataset_hub();
    labelled_dataset(a, "alpha", ROWS, 0);
    labelled_dataset(b, "beta", ROWS, 10_000);
    let addr = hub.addr();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..CLIENTS {
            joins.push(scope.spawn(move || {
                let name = if c % 2 == 0 { "alpha" } else { "beta" };
                let client = RemoteProvider::connect(addr).unwrap();
                client.attach(name).unwrap();
                let ds = Arc::new(Dataset::open(Arc::new(client)).unwrap());
                let loader = DataLoader::builder(ds)
                    .batch_size(16)
                    .num_workers(2)
                    .shuffle(c as u64)
                    .build()
                    .unwrap();
                let mut sum = 0u64;
                let mut rows = 0u64;
                for batch in loader.epoch() {
                    let batch = batch.unwrap();
                    let col = batch.column("labels").unwrap();
                    for i in 0..col.len() {
                        sum += col.get(i).unwrap().get_f64(0).unwrap() as u64;
                        rows += 1;
                    }
                }
                (name, rows, sum)
            }));
        }
        let alpha_sum: u64 = (0..ROWS).sum();
        let beta_sum: u64 = (0..ROWS).map(|i| i + 10_000).sum();
        for j in joins {
            let (name, rows, sum) = j.join().unwrap();
            assert_eq!(rows, ROWS, "every client sees every row of its dataset");
            let expected = if name == "alpha" { alpha_sum } else { beta_sum };
            assert_eq!(sum, expected, "{name} values wrong");
        }
    });
}

/// Out-of-band writes (directly on the mounted provider) are invisible
/// to the hub; `invalidate(name)` flushes the stale state explicitly.
#[test]
fn explicit_invalidation_for_out_of_band_writes() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    labelled_dataset(storage.clone(), "oob", 5, 0);
    let hub = Hub::builder()
        .mount("oob", storage.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("oob").unwrap();
    let text = "SELECT labels FROM d WHERE labels >= 0";
    assert_eq!(
        client.query(text, &QueryOptions::default()).unwrap().len(),
        5
    );
    // write BEHIND the hub's back
    {
        let mut ds = Dataset::open(storage).unwrap();
        ds.append_row(vec![("labels", Sample::scalar(5i32))])
            .unwrap();
        ds.flush().unwrap();
    }
    hub.invalidate("oob");
    assert_eq!(
        client.query(text, &QueryOptions::default()).unwrap().len(),
        6,
        "explicit invalidation must flush the stale entry"
    );
}

// ---------------------------------------------------------------------
// one opened dataset handle per mount reference
// ---------------------------------------------------------------------

/// A `MemoryProvider` that counts reads of the keys only a dataset open
/// (or a first ANN query on a fresh handle) touches, and logs the chunk
/// keys it is asked for.
struct MetadataCounter {
    inner: MemoryProvider,
    reads: std::sync::atomic::AtomicU64,
    chunk_reads: std::sync::Mutex<Vec<String>>,
}

impl MetadataCounter {
    fn new() -> Arc<Self> {
        Arc::new(MetadataCounter {
            inner: MemoryProvider::new(),
            reads: std::sync::atomic::AtomicU64::new(0),
            chunk_reads: std::sync::Mutex::new(Vec::new()),
        })
    }

    /// Every chunk key stored now.
    fn chunk_keys(&self) -> Vec<String> {
        let keys = self.inner.list("versions/").unwrap();
        keys.into_iter()
            .filter(|k| k.contains("/chunks/"))
            .collect()
    }

    fn note(&self, key: &str) {
        if key.contains("/chunks/") {
            self.chunk_reads.lock().unwrap().push(key.to_string());
        }
        if key == "dataset.json"
            || key == "version_control_info.json"
            || key.ends_with("vector_index/index")
        {
            self.reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn metadata_reads(&self) -> u64 {
        self.reads.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl StorageProvider for MetadataCounter {
    fn get(&self, key: &str) -> deeplake_storage::Result<Bytes> {
        self.note(key);
        self.inner.get(key)
    }
    fn get_range(&self, key: &str, start: u64, end: u64) -> deeplake_storage::Result<Bytes> {
        self.note(key);
        self.inner.get_range(key, start, end)
    }
    fn put(&self, key: &str, value: Bytes) -> deeplake_storage::Result<()> {
        self.inner.put(key, value)
    }
    fn delete(&self, key: &str) -> deeplake_storage::Result<()> {
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> deeplake_storage::Result<bool> {
        self.inner.exists(key)
    }
    fn len_of(&self, key: &str) -> deeplake_storage::Result<u64> {
        self.inner.len_of(key)
    }
    fn list(&self, prefix: &str) -> deeplake_storage::Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn describe(&self) -> String {
        format!("metadata-counter({})", self.inner.describe())
    }
}

/// `rows` rows of clustered `labels` and a 4-dimensional `emb` with an
/// IVF index, flushed.
fn indexed_dataset(provider: DynProvider, rows: u64) {
    let mut ds = Dataset::create(provider, "shared").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(256);
        o
    })
    .unwrap();
    ds.create_tensor("emb", Htype::Embedding, None).unwrap();
    for i in 0..rows {
        let v = [(i % 7) as f32, (i % 3) as f32, 1.0, (i / 50) as f32];
        ds.append_row(vec![
            ("labels", Sample::scalar((i / 10) as i32)),
            ("emb", Sample::from_slice([4], &v).unwrap()),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
    ds.build_vector_index("emb", &deeplake_core::IndexSpec::default())
        .unwrap();
    ds.flush().unwrap();
}

const ANN: QueryOptions = QueryOptions {
    workers: 2,
    pruning: true,
    ann: true,
    nprobe: 2,
};

/// The three query shapes of an interactive session, each text distinct
/// per `i` so none is answered from the result cache.
fn distinct_texts(i: u64) -> [String; 3] {
    [
        format!("SELECT * FROM d WHERE labels = {i}"),
        format!("SELECT * FROM d WHERE labels > {i} AND labels != 3"),
        format!("SELECT * FROM d ORDER BY L2_DISTANCE(emb, [{i}.5, 1, 1, 2]) LIMIT 5"),
    ]
}

/// (c) Distinct-text queries on an unchanged mount share one opened
/// handle: after the first of each shape, no query reads dataset or
/// version metadata or the vector index again.
#[test]
fn distinct_queries_on_an_unchanged_mount_reuse_one_handle() {
    let storage = MetadataCounter::new();
    indexed_dataset(storage.clone(), 300);
    let reference = Dataset::open(storage.clone()).unwrap();
    let hub = Hub::builder()
        .mount("shared", storage.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("shared").unwrap();

    let run = |i: u64| {
        for text in distinct_texts(i) {
            let got = client.query(&text, &ANN).unwrap();
            let want = deeplake_tql::query_opts(&reference, &text, &ANN).unwrap();
            assert_eq!(got.indices, want.indices, "{text}");
        }
    };
    run(0);
    assert_eq!(hub.stats().dataset_opens(), 1);
    let after_first = storage.metadata_reads();
    let _ = reference.vector_index("emb"); // the reference's own load is done too
    let reference_reads = storage.metadata_reads() - after_first;
    assert_eq!(reference_reads, 0, "reference handle already warm");
    for i in 1..12 {
        run(i);
    }
    assert_eq!(
        storage.metadata_reads(),
        after_first,
        "queries on a warm handle re-read metadata"
    );
    assert_eq!(hub.stats().dataset_opens(), 1);
    assert_eq!(hub.cache().stats().cache_hits(), 0, "every text was new");
    assert_eq!(
        hub.metrics().counter("hub.dataset_opens"),
        Some(1),
        "the open count is a registered instrument"
    );
}

/// (a) A write routed through the hub drops the shared handle with the
/// head memo: the next query opens afresh and sees the new rows.
#[test]
fn writes_through_the_hub_reopen_the_shared_handle() {
    let storage = MetadataCounter::new();
    indexed_dataset(storage.clone(), 100);
    let hub = Hub::builder()
        .mount("shared", storage.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client = Arc::new(RemoteProvider::connect(hub.addr()).unwrap());
    client.attach("shared").unwrap();

    // `labels * 2` is opaque to the statistics: both queries read chunks
    let before = client
        .query("SELECT * FROM d WHERE labels * 2 >= 0", &ANN)
        .unwrap();
    assert_eq!(before.len(), 100);
    assert_eq!(hub.stats().dataset_opens(), 1);
    let old_chunks = storage.chunk_keys();

    {
        let mut ds = Dataset::open(client.clone()).unwrap();
        for i in 0..5 {
            ds.append_row(vec![("labels", Sample::scalar(100 + i))])
                .unwrap();
        }
        ds.flush().unwrap();
    }
    let reads_before = storage.metadata_reads();
    let chunk_reads_before = storage.chunk_reads.lock().unwrap().len();
    // a text the cache has never seen: only a fresh handle can answer it
    let after = client
        .query(
            "SELECT * FROM d WHERE labels * 2 >= 0 AND labels < 999",
            &ANN,
        )
        .unwrap();
    assert_eq!(after.len(), 105, "the shared handle outlived a write");
    assert_eq!(hub.stats().dataset_opens(), 2);
    assert!(
        storage.metadata_reads() > reads_before,
        "the backing store saw no fresh open"
    );
    // the fresh handle found the chunks the old one parsed: a put keeps
    // them (only the appended ones are fetched)
    let reread: Vec<String> = storage.chunk_reads.lock().unwrap()[chunk_reads_before..]
        .iter()
        .filter(|key| old_chunks.contains(key))
        .cloned()
        .collect();
    assert!(
        reread.is_empty(),
        "chunks parsed before the put: {reread:?}"
    );
}

/// (b) An out-of-band write is invisible to the hub until
/// `HubHandle::invalidate`, which drops the shared handle like it drops
/// cached results.
#[test]
fn invalidate_reopens_the_shared_handle_after_an_out_of_band_write() {
    let storage = MetadataCounter::new();
    indexed_dataset(storage.clone(), 100);
    let hub = Hub::builder()
        .mount("shared", storage.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("shared").unwrap();
    assert_eq!(
        client
            .query("SELECT * FROM d WHERE labels >= 0", &ANN)
            .unwrap()
            .len(),
        100
    );
    {
        let mut ds = Dataset::open(storage.clone()).unwrap();
        ds.append_row(vec![("labels", Sample::scalar(7i32))])
            .unwrap();
        ds.flush().unwrap();
    }
    let reads_before = storage.metadata_reads();
    hub.invalidate("shared");
    assert_eq!(
        client
            .query("SELECT * FROM d WHERE labels >= 0 AND labels < 999", &ANN)
            .unwrap()
            .len(),
        101
    );
    assert_eq!(hub.stats().dataset_opens(), 2);
    assert!(storage.metadata_reads() > reads_before);
}

/// (b') A dataset deleted and recreated through the hub restarts its
/// node and chunk ids, so its chunk keys name new bytes: the delete gave
/// the mount a new chunk cache, and the next query reads the new rows.
#[test]
fn a_dataset_deleted_and_recreated_through_the_hub_serves_its_new_rows() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    labelled_dataset(storage.clone(), "first", 50, 0);
    let hub = Hub::builder()
        .mount("d", storage.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client = Arc::new(RemoteProvider::connect(hub.addr()).unwrap());
    client.attach("d").unwrap();
    // an opaque leaf: the labels chunks are read and parsed
    let first = client
        .query("SELECT * FROM d WHERE labels * 2 = 20", &ANN)
        .unwrap();
    assert_eq!(first.indices, vec![10]);

    client.delete_prefix("").unwrap();
    labelled_dataset(client.clone(), "second", 50, 1000);
    assert!(storage
        .exists("versions/v000000/labels/chunks/0000000000000000")
        .unwrap());
    let second = client
        .query("SELECT * FROM d WHERE labels * 2 = 2020", &ANN)
        .unwrap();
    assert_eq!(second.indices, vec![10], "rows of the deleted dataset");
    assert_eq!(
        client
            .query("SELECT * FROM d WHERE labels * 2 = 20", &ANN)
            .unwrap()
            .indices,
        Vec::<u64>::new()
    );
}

/// (b'') A delete renumbers the mount it went through, and only that
/// one: another mount's parsed chunks, in the same pool, still answer its
/// next query from memory, while the deleted and recreated dataset serves
/// its new rows.
#[test]
fn a_delete_through_one_mount_leaves_another_mounts_chunks_resident() {
    let a: DynProvider = Arc::new(MemoryProvider::new());
    let b = MetadataCounter::new();
    labelled_dataset(a.clone(), "first", 50, 0);
    labelled_dataset(b.clone(), "other", 50, 0);
    let hub = Hub::builder()
        .mount("a", a.clone())
        .mount("b", b.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    let client_a = Arc::new(RemoteProvider::connect(hub.addr()).unwrap());
    client_a.attach("a").unwrap();
    let client_b = RemoteProvider::connect(hub.addr()).unwrap();
    client_b.attach("b").unwrap();
    // an opaque leaf: both mounts read and parse their labels chunks
    for client in [&*client_a, &client_b] {
        let rows = client.query("SELECT * FROM d WHERE labels * 2 = 20", &ANN);
        assert_eq!(rows.unwrap().indices, vec![10]);
    }

    client_a.delete_prefix("").unwrap();
    let chunk_reads = b.chunk_reads.lock().unwrap().len();
    let rows = client_b.query("SELECT * FROM d WHERE labels * 2 = 40", &ANN);
    assert_eq!(rows.unwrap().indices, vec![20]);
    let reread = b.chunk_reads.lock().unwrap()[chunk_reads..].to_vec();
    assert!(reread.is_empty(), "b read {reread:?} after a's delete");

    labelled_dataset(client_a.clone(), "second", 50, 1000);
    let rows = client_a.query("SELECT * FROM d WHERE labels * 2 = 2020", &ANN);
    assert_eq!(
        rows.unwrap().indices,
        vec![10],
        "rows of the deleted dataset"
    );
}

/// A provider that panics when `key` is read.
struct PanicsOn(MemoryProvider, &'static str);

impl StorageProvider for PanicsOn {
    fn get(&self, key: &str) -> deeplake_storage::Result<Bytes> {
        assert_ne!(key, self.1, "a provider bug");
        self.0.get(key)
    }
    fn get_range(&self, key: &str, start: u64, end: u64) -> deeplake_storage::Result<Bytes> {
        self.0.get_range(key, start, end)
    }
    fn put(&self, key: &str, value: Bytes) -> deeplake_storage::Result<()> {
        self.0.put(key, value)
    }
    fn delete(&self, key: &str) -> deeplake_storage::Result<()> {
        self.0.delete(key)
    }
    fn exists(&self, key: &str) -> deeplake_storage::Result<bool> {
        self.0.exists(key)
    }
    fn len_of(&self, key: &str) -> deeplake_storage::Result<u64> {
        self.0.len_of(key)
    }
    fn list(&self, prefix: &str) -> deeplake_storage::Result<Vec<String>> {
        self.0.list(prefix)
    }
    fn describe(&self) -> String {
        "panics-on".into()
    }
}

/// A request that panics on the hub's only worker is answered with an
/// error frame, and the same connection's next request is served: the
/// worker survived and the connection's in-flight slot was released.
#[test]
fn a_panicking_request_is_answered_and_the_worker_lives_on() {
    let storage = PanicsOn(MemoryProvider::new(), "boom");
    storage.put("k", Bytes::from_static(b"value")).unwrap();
    let hub = Hub::builder()
        .mount("d", Arc::new(storage))
        .options(HubOptions {
            workers: 1,
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let mut raw = raw_attached(&hub, "d");
    proto::write_frame(&mut raw, &get_frame("boom")).unwrap();
    let resp = proto::read_frame(&mut raw).unwrap().unwrap();
    match proto::expect_bytes(&resp) {
        Err(StorageError::Io(msg)) => assert!(msg.contains("a provider bug"), "{msg:?}"),
        other => panic!("unexpected {other:?}"),
    }
    proto::write_frame(&mut raw, &get_frame("k")).unwrap();
    let resp = proto::read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(
        proto::expect_bytes(&resp).unwrap(),
        Bytes::from_static(b"value")
    );
    assert_eq!(hub.stats().panics(), 1);
    assert_eq!(hub.metrics().counter("hub.panics"), Some(1));
}

/// (d) Pool workers execute on one handle at once: eight threads firing
/// distinct queries at one mount all get the in-process answer, from a
/// single open.
#[test]
fn eight_threads_share_one_handle_and_agree_with_the_reference() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    indexed_dataset(storage.clone(), 400);
    let reference = Dataset::open(storage.clone()).unwrap();
    let hub = Hub::builder()
        .mount("shared", storage)
        .options(HubOptions {
            workers: 4,
            ..HubOptions::default()
        })
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = hub.addr();
    // every thread is dialled and attached before any queries, so the
    // pool really does hold several queries on the handle at a time
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let (barrier, reference) = (&barrier, &reference);
            scope.spawn(move || {
                let client = RemoteProvider::connect(addr).unwrap();
                client.attach("shared").unwrap();
                barrier.wait();
                for i in 0..6 {
                    for text in distinct_texts(t * 6 + i) {
                        let got = client.query(&text, &ANN).unwrap();
                        let want = deeplake_tql::query_opts(reference, &text, &ANN).unwrap();
                        assert_eq!(got.indices, want.indices, "{text}");
                    }
                }
            });
        }
    });
    assert_eq!(hub.stats().dataset_opens(), 1);
}

/// (e) A committed reference and the mutable tip are different handles:
/// each opens once, and neither answers for the other.
#[test]
fn committed_and_tip_references_keep_separate_handles() {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    let commit = {
        let mut ds = Dataset::create(storage.clone(), "refs").unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        for i in 0..10 {
            ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
        }
        let commit = ds.commit("ten rows").unwrap();
        for i in 10..13 {
            ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
        }
        ds.flush().unwrap();
        commit
    };
    let hub = Hub::builder()
        .mount("refs", storage)
        .bind("127.0.0.1:0")
        .unwrap();
    let client = RemoteProvider::connect(hub.addr()).unwrap();
    client.attach("refs").unwrap();
    let opts = QueryOptions::default();
    for round in 0..3 {
        let text = format!("SELECT * FROM d WHERE labels >= {round}");
        let at_commit = client.query_at(&commit, &text, &opts).unwrap();
        assert_eq!(at_commit.len(), 10 - round);
        let at_tip = client.query_at("main", &text, &opts).unwrap();
        assert_eq!(at_tip.len(), 13 - round);
    }
    assert_eq!(hub.stats().dataset_opens(), 2, "one handle per reference");
}
