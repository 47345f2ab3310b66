//! Loopback end-to-end tests of the single-dataset shape — a hub with
//! one default mount and unattached clients: a real TCP server on
//! 127.0.0.1, real `RemoteProvider` clients.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bytes::Bytes;
use deeplake_core::Dataset;
use deeplake_hub::{Hub, HubHandle, HubOptions};
use deeplake_loader::DataLoader;
use deeplake_remote::{RemoteOptions, RemoteProvider};
use deeplake_storage::{
    contract, DynProvider, MemoryProvider, NetworkProfile, ReadPlan, SimulatedCloudProvider,
    StorageError, StorageProvider,
};
use deeplake_tensor::{Htype, Sample};
use deeplake_tql::QueryOptions;

fn serve(mounted: DynProvider) -> HubHandle {
    Hub::builder()
        .default_mount(mounted)
        .bind("127.0.0.1:0")
        .unwrap()
}

fn serve_memory() -> (HubHandle, RemoteProvider) {
    let server = serve(Arc::new(MemoryProvider::new()));
    let client = RemoteProvider::connect(server.addr()).unwrap();
    (server, client)
}

/// The full provider-contract suite — the same checks the five local
/// providers pass — against a loopback-served RemoteProvider. A remote
/// mount must be observationally identical to a local one.
#[test]
fn remote_provider_passes_full_contract() {
    let (server, client) = serve_memory();
    contract::check_provider_contract("remote(memory)", &client);
    drop(server);
}

/// And against a server mounting a *batching* provider (sim S3): the
/// server-side execute path coalesces there.
#[test]
fn remote_provider_passes_contract_over_sim_cloud() {
    let mounted = Arc::new(SimulatedCloudProvider::new(
        "s3",
        MemoryProvider::new(),
        NetworkProfile::instant(),
    ));
    let server = serve(mounted);
    let client = RemoteProvider::connect(server.addr()).unwrap();
    contract::check_provider_contract("remote(sim-s3)", &client);
    drop(server);
}

/// Storage errors round-trip losslessly: the remote client reports the
/// exact error (and key) the mounted provider produced.
#[test]
fn errors_round_trip_losslessly() {
    let (_server, client) = serve_memory();
    assert_eq!(
        client.get("no/such/key").unwrap_err(),
        StorageError::NotFound("no/such/key".into())
    );
    client
        .put("obj", Bytes::from_static(b"0123456789"))
        .unwrap();
    assert_eq!(
        client.get_range("obj", 20, 30).unwrap_err(),
        StorageError::RangeOutOfBounds {
            start: 20,
            end: 30,
            len: 10
        }
    );
}

/// One ReadPlan = one wire round trip, regardless of how many chunks it
/// names.
#[test]
fn execute_is_one_round_trip() {
    let (_server, client) = serve_memory();
    for i in 0..16 {
        client
            .put(&format!("chunks/c{i}"), Bytes::from(vec![i as u8; 512]))
            .unwrap();
    }
    let before = client.stats().snapshot();
    let mut plan = ReadPlan::new();
    for i in 0..16 {
        plan.whole(format!("chunks/c{i}"));
    }
    let outcome = client.execute(&plan);
    assert!(outcome.results.iter().all(|r| r.is_ok()));
    let after_execute = client.stats().snapshot();
    assert_eq!(
        after_execute.delta_since(&before).round_trips,
        1,
        "16 chunk reads must cost one network round trip"
    );
    // and get_many too
    let requests: Vec<_> = (0..16)
        .map(|i| deeplake_storage::ReadRequest::whole(format!("chunks/c{i}")))
        .collect();
    let results = client.get_many(&requests);
    assert!(results.iter().all(|r| r.is_ok()));
    let after_get_many = client.stats().snapshot();
    assert_eq!(after_get_many.delta_since(&after_execute).round_trips, 1);
}

/// A dataset created, written, committed and read entirely through the
/// remote provider behaves exactly like a local one.
#[test]
fn dataset_lifecycle_through_remote() {
    let (_server, client) = serve_memory();
    let remote = Arc::new(client);
    {
        let mut ds = Dataset::create(remote.clone(), "served").unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        for i in 0..20 {
            ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
        }
        ds.commit("twenty rows").unwrap();
        for i in 20..25 {
            ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
        }
        ds.flush().unwrap();
    }
    let ds = Dataset::open(remote.clone()).unwrap();
    assert_eq!(ds.len(), 25);
    assert_eq!(ds.get("labels", 23).unwrap().get_f64(0).unwrap(), 23.0);
    // TQL over the remote-backed dataset
    let r = deeplake_tql::query(&ds, "SELECT * FROM served WHERE labels < 5").unwrap();
    assert_eq!(r.indices, vec![0, 1, 2, 3, 4]);
}

/// Query offload: the server executes the TQL text and returns only
/// result rows; the client never pulls a chunk.
#[test]
fn query_offload_returns_rows_without_chunk_traffic() {
    let (server, client) = serve_memory();
    let remote = Arc::new(client);
    {
        let mut ds = Dataset::create(remote.clone(), "offload").unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        for i in 0..50 {
            ds.append_row(vec![("labels", Sample::scalar(i % 10))])
                .unwrap();
        }
        ds.flush().unwrap();
    }
    let queries_before = server.stats().queries();
    let before = remote.stats().snapshot();
    let result = remote
        .query(
            "SELECT labels FROM offload WHERE labels = 3",
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(result.indices, vec![3, 13, 23, 33, 43]);
    let rows = result.rows.as_ref().unwrap();
    assert_eq!(rows.len(), 5);
    for row in rows {
        match &row[0] {
            deeplake_tql::Value::Tensor(t) => assert_eq!(t.get_f64(0).unwrap(), 3.0),
            other => panic!("unexpected value {other:?}"),
        }
    }
    assert_eq!(
        remote.stats().snapshot().delta_since(&before).round_trips,
        1,
        "the whole query must cost one round trip"
    );
    assert_eq!(server.stats().queries(), queries_before + 1);
}

/// Offloaded query errors surface with the server's rendering.
#[test]
fn query_offload_propagates_errors() {
    let (_server, client) = serve_memory();
    // no dataset mounted yet
    let err = client
        .query("SELECT * FROM nothing", &QueryOptions::default())
        .unwrap_err();
    match err {
        deeplake_tql::TqlError::Remote(msg) => {
            assert!(msg.contains("open"), "unexpected message {msg:?}")
        }
        other => panic!("unexpected error {other:?}"),
    }
    // now a dataset with a bad query
    let remote = Arc::new(client);
    let mut ds = Dataset::create(remote.clone(), "e").unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    ds.append_row(vec![("labels", Sample::scalar(1i32))])
        .unwrap();
    ds.flush().unwrap();
    let err = remote
        .query("SELECT ghost FROM e", &QueryOptions::default())
        .unwrap_err();
    match err {
        deeplake_tql::TqlError::Remote(msg) => {
            assert!(msg.contains("ghost"), "unexpected message {msg:?}")
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// Query text is remote input and the TQL parser recurses per nesting
/// level: a million open parentheses must come back as a parse error on
/// the connection that sent them — not run a pool worker off its stack
/// and abort the hub — and that connection must still be served.
#[test]
fn deeply_nested_query_text_is_an_error_frame_not_a_crash() {
    let server = serve(Arc::new(MemoryProvider::new()));
    let one_socket = RemoteOptions {
        pool_size: 1,
        ..RemoteOptions::default()
    };
    let remote = Arc::new(RemoteProvider::connect_with(server.addr(), one_socket).unwrap());
    let mut ds = Dataset::create(remote.clone(), "deep").unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..4 {
        ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
    }
    ds.flush().unwrap();

    let depth = 1_000_000;
    for bomb in [
        format!("{}labels{} = 1", "(".repeat(depth), ")".repeat(depth)),
        format!("labels{} = 1", " + 1".repeat(depth)),
    ] {
        let err = remote
            .query(
                &format!("SELECT * FROM deep WHERE {bomb}"),
                &QueryOptions::default(),
            )
            .unwrap_err();
        match err {
            deeplake_tql::TqlError::Remote(msg) => {
                assert!(msg.contains("levels deep"), "unexpected message {msg:?}")
            }
            other => panic!("unexpected error {other:?}"),
        }
        let answered = remote
            .query(
                "SELECT labels FROM deep WHERE ((labels)) = 1",
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(answered.indices, vec![1]);
    }
}

/// N ≥ 8 clients stream loader batches from one server concurrently:
/// no deadlock, every client sees its own complete, correct results.
#[test]
fn eight_concurrent_loader_clients() {
    const CLIENTS: usize = 8;
    const ROWS: u64 = 96;
    let mounted = Arc::new(MemoryProvider::new());
    // build the dataset locally on the provider the server will mount
    {
        let mut ds = Dataset::create(mounted.clone(), "shared").unwrap();
        ds.create_tensor_opts("labels", {
            let mut o = deeplake_core::dataset::TensorOptions::new(Htype::ClassLabel);
            o.chunk_target_bytes = Some(256); // many chunks → real batching
            o
        })
        .unwrap();
        for i in 0..ROWS {
            ds.append_row(vec![("labels", Sample::scalar(i as i32))])
                .unwrap();
        }
        ds.flush().unwrap();
    }
    let mut server = serve(mounted);
    let addr = server.addr();
    let expected_sum: u64 = (0..ROWS).sum();

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..CLIENTS {
            joins.push(scope.spawn(move || {
                let client = RemoteProvider::connect(addr).unwrap();
                let ds = Arc::new(Dataset::open(Arc::new(client)).unwrap());
                let loader = DataLoader::builder(ds)
                    .batch_size(16)
                    .num_workers(2)
                    .shuffle(c as u64) // distinct orders per client
                    .build()
                    .unwrap();
                let mut sum = 0u64;
                let mut rows = 0u64;
                for batch in loader.epoch() {
                    let b = batch.unwrap();
                    let col = b.column("labels").unwrap();
                    for i in 0..col.len() {
                        sum += col.get(i).unwrap().get_f64(0).unwrap() as u64;
                        rows += 1;
                    }
                }
                (rows, sum)
            }));
        }
        for j in joins {
            let (rows, sum) = j.join().unwrap();
            assert_eq!(rows, ROWS, "every client must see every row");
            assert_eq!(sum, expected_sum, "every client must see correct values");
        }
    });
    server.shutdown();
}

/// Graceful shutdown drains the in-flight request: a slow query racing
/// shutdown still gets its response; requests after shutdown fail.
#[test]
fn shutdown_drains_in_flight_requests() {
    // slow mounted storage makes the in-flight window wide enough to race
    let mounted = Arc::new(SimulatedCloudProvider::new(
        "slow",
        MemoryProvider::new(),
        NetworkProfile {
            first_byte_latency: std::time::Duration::from_millis(120),
            bandwidth_bps: u64::MAX,
            put_overhead: std::time::Duration::ZERO,
            scale: 1.0,
        },
    ));
    mounted
        .inner()
        .put("slow/key", Bytes::from(vec![9u8; 256]))
        .unwrap();
    let mut server = serve(mounted);
    let addr = server.addr();

    let in_flight = std::thread::spawn(move || {
        let client = RemoteProvider::connect(addr).unwrap();
        // this get takes ~120 ms server-side
        client.get("slow/key")
    });
    // let the request land, then shut down while it is being served
    std::thread::sleep(std::time::Duration::from_millis(40));
    server.shutdown();
    let result = in_flight.join().unwrap();
    assert_eq!(
        result.unwrap(),
        Bytes::from(vec![9u8; 256]),
        "the in-flight request must drain to a successful response"
    );
    // the server is gone now: a fresh connection must fail
    assert!(RemoteProvider::connect(addr).is_err());
}

/// A request that trickles in slower than the server's idle poll tick
/// must still be served intact: only the wait for a frame's FIRST byte
/// may time out recoverably; a started frame is read to completion
/// (under the long in-frame timeout), never resumed mid-way as if a new
/// frame began.
#[test]
fn slow_mid_frame_requests_are_not_desynchronized() {
    use std::io::{Read, Write};
    let (server, client) = serve_memory();
    client
        .put("slow/w", Bytes::from_static(b"payload"))
        .unwrap();

    // hand-speak the protocol: Get { key: "slow/w" }, dribbled out with
    // pauses well beyond the 50 ms idle poll between every piece
    let body = {
        let mut b = vec![1u8]; // OP_GET
        b.extend_from_slice(&(6u32).to_le_bytes());
        b.extend_from_slice(b"slow/w");
        b
    };
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let header = (body.len() as u32).to_le_bytes();
    raw.write_all(&header[..1]).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(120));
    raw.write_all(&header[1..]).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(120));
    raw.write_all(&body[..3]).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(120));
    raw.write_all(&body[3..]).unwrap();

    // response: status OK (0) + u64-length-prefixed bytes
    let mut resp_header = [0u8; 4];
    raw.read_exact(&mut resp_header).unwrap();
    let len = u32::from_le_bytes(resp_header) as usize;
    let mut payload = vec![0u8; len];
    raw.read_exact(&mut payload).unwrap();
    assert_eq!(payload[0], 0, "status OK");
    assert_eq!(&payload[9..], b"payload");
}

/// Corrupt frames are answered (or refused) without taking the server
/// down, and well-behaved clients on other connections are unaffected.
#[test]
fn corrupt_frames_do_not_kill_the_server() {
    use std::io::Write;
    let (server, client) = serve_memory();
    client.put("k", Bytes::from_static(b"v")).unwrap();
    {
        // a raw socket speaking garbage
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&[0xff; 64]).unwrap();
        // oversized length header on another socket
        let mut raw2 = std::net::TcpStream::connect(server.addr()).unwrap();
        raw2.write_all(&u32::MAX.to_le_bytes()).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    // the polite client still works
    assert_eq!(client.get("k").unwrap(), Bytes::from_static(b"v"));
}

/// The sim-latency transport charges deterministic time per round trip,
/// so batching shows up as wall-clock wins too.
#[test]
fn latency_injection_charges_per_round_trip() {
    let server = serve(Arc::new(MemoryProvider::new()));
    let profile = NetworkProfile {
        first_byte_latency: std::time::Duration::from_millis(5),
        bandwidth_bps: u64::MAX,
        put_overhead: std::time::Duration::ZERO,
        scale: 1.0,
    };
    let client = RemoteProvider::connect_with(
        server.addr(),
        RemoteOptions {
            latency: Some(profile),
            ..RemoteOptions::default()
        },
    )
    .unwrap();
    for i in 0..8 {
        client
            .put(&format!("c{i}"), Bytes::from(vec![0u8; 64]))
            .unwrap();
    }
    // 8 single gets: ≥ 8 × 5 ms
    let t = std::time::Instant::now();
    for i in 0..8 {
        client.get(&format!("c{i}")).unwrap();
    }
    let singles = t.elapsed();
    assert!(
        singles >= std::time::Duration::from_millis(40),
        "{singles:?}"
    );
    // one batch covering the same reads: one charge
    let mut plan = ReadPlan::new();
    for i in 0..8 {
        plan.whole(format!("c{i}"));
    }
    let t = std::time::Instant::now();
    let outcome = client.execute(&plan);
    let batched = t.elapsed();
    assert!(outcome.results.iter().all(|r| r.is_ok()));
    assert!(
        batched < singles / 2,
        "batched {batched:?} vs singles {singles:?}"
    );
}

/// describe() names the server; the server names its mounted provider.
#[test]
fn describe_names_the_stack() {
    let (server, client) = serve_memory();
    assert!(client.describe().starts_with("remote(127.0.0.1"));
    assert!(client.server_describe().unwrap().starts_with("memory("));
    assert!(server.describe().contains("serving memory("));
}

/// Serves `get` after a sleep of 0, 1 or 2 ms picked by the key, so the
/// responses to one socket's pipelined requests come back out of order.
struct Jittery(MemoryProvider);

impl StorageProvider for Jittery {
    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        let ms = key.bytes().map(u64::from).sum::<u64>() % 3;
        std::thread::sleep(Duration::from_millis(ms));
        self.0.get(key)
    }
    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes, StorageError> {
        self.0.get_range(key, start, end)
    }
    fn put(&self, key: &str, value: Bytes) -> Result<(), StorageError> {
        self.0.put(key, value)
    }
    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.0.delete(key)
    }
    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        self.0.exists(key)
    }
    fn len_of(&self, key: &str) -> Result<u64, StorageError> {
        self.0.len_of(key)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.0.list(prefix)
    }
    fn describe(&self) -> String {
        format!("jittery({})", self.0.describe())
    }
}

const BURST_THREADS: usize = 32;
const BURST_CALLS: usize = 200;

fn burst_key(thread: usize, call: usize) -> String {
    format!("burst/{thread}/{call}")
}

/// A hub of four workers and the default in-flight cap of 16 per
/// connection over a [`Jittery`] store whose every value is its key, and
/// a client held to one socket.
fn serve_burst() -> (HubHandle, Arc<RemoteProvider>) {
    let store = MemoryProvider::new();
    for (t, c) in (0..BURST_THREADS).flat_map(|t| (0..BURST_CALLS).map(move |c| (t, c))) {
        let key = burst_key(t, c);
        store
            .put(&key, Bytes::from(key.clone().into_bytes()))
            .unwrap();
    }
    let opts = HubOptions {
        workers: 4,
        max_inflight_per_conn: 16,
        ..HubOptions::default()
    };
    let server = Hub::builder()
        .default_mount(Arc::new(Jittery(store)))
        .options(opts)
        .bind("127.0.0.1:0")
        .unwrap();
    let opts = RemoteOptions {
        pool_size: 1,
        ..RemoteOptions::default()
    };
    let client = RemoteProvider::connect_with(server.addr(), opts).unwrap();
    (server, Arc::new(client))
}

type Outcome = (String, Result<Bytes, StorageError>);

/// `BURST_THREADS` threads each `get` their `BURST_CALLS` keys through
/// `client`; `mid` runs once a quarter of the answers are in. Every
/// outcome with its key — or a panic when they are not all in within a
/// deadline, so a caller parked with nobody reading fails the test
/// instead of hanging it.
fn burst(client: &Arc<RemoteProvider>, mid: impl FnOnce()) -> Vec<Outcome> {
    let total = BURST_THREADS * BURST_CALLS;
    let deadline = Duration::from_secs(60);
    let (tx, rx) = mpsc::channel();
    let threads: Vec<_> = (0..BURST_THREADS)
        .map(|t| {
            let (client, tx) = (client.clone(), tx.clone());
            std::thread::spawn(move || {
                for c in 0..BURST_CALLS {
                    let key = burst_key(t, c);
                    let got = client.get(&key);
                    tx.send((key, got)).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    let start = Instant::now();
    let mut mid = Some(mid);
    let mut outcomes = Vec::with_capacity(total);
    while outcomes.len() < total {
        match rx.recv_timeout(deadline.saturating_sub(start.elapsed())) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => panic!(
                "{} of {total} calls unanswered after {:?}: {e}",
                total - outcomes.len(),
                start.elapsed()
            ),
        }
        if let Some(f) = mid.take_if(|_| outcomes.len() == total / 4) {
            f();
        }
    }
    for thread in threads {
        thread.join().unwrap();
    }
    outcomes
}

/// 32 threads pipeline 200 calls each over one socket, answered out of
/// order: every caller gets its own request's bytes, and the client never
/// has more than the hub's cap of 16 requests on the socket, so the hub
/// refuses none.
#[test]
fn thirty_two_callers_share_one_pipelined_socket() {
    let (server, client) = serve_burst();
    for (key, got) in burst(&client, || {}) {
        assert_eq!(got.unwrap(), key.as_bytes(), "{key} got another's bytes");
    }
    assert_eq!(server.stats().busy_rejections(), 0);
}

/// A hub shutdown in the middle of the burst ends every call with its
/// own bytes or a transport error; none hangs. The hub closes in stages
/// (RFC 9112 §9.6: every answer written, then FIN, then what the client
/// still sends is read and dropped until its EOF), so no call sees a
/// reset: every request the hub admitted is answered — the hub queued
/// exactly the handshake's two answers plus one per `Ok` — and a request
/// it never admitted ends with the EOF. Nothing reads an idle socket, so
/// the next call is the one that finds the server gone: it fails with
/// `Io` at once.
#[test]
fn a_shutdown_mid_burst_ends_every_call() {
    let (mut server, client) = serve_burst();
    let mut answered = 0;
    for (key, got) in burst(&client, || server.shutdown()) {
        match got {
            Ok(bytes) => {
                assert_eq!(bytes, key.as_bytes(), "{key} got another's bytes");
                answered += 1;
            }
            Err(StorageError::Io(e)) => {
                assert!(!e.to_lowercase().contains("reset"), "{key}: {e}")
            }
            Err(e) => panic!("{key}: {e:?} is neither an answer nor a transport error"),
        }
    }
    assert_eq!(server.stats().requests(), 2 + answered);
    let start = Instant::now();
    assert!(matches!(
        client.get(&burst_key(0, 0)),
        Err(StorageError::Io(_))
    ));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "took {:?}",
        start.elapsed()
    );
}
