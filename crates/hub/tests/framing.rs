//! Adversarial framing on the nonblocking reader tier: slow-loris
//! drip-feeds, frames split at every byte boundary, mid-frame
//! disconnects, and a client that requests but never reads. The hub
//! must answer what can be answered, cut what cannot, keep
//! per-connection memory bounded, and never grow its reader tier.

use std::io::ErrorKind;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use deeplake_hub::{Hub, HubHandle, HubOptions};
use deeplake_obs::FlightEvent;
use deeplake_remote::proto::{self, Request};
use deeplake_storage::{MemoryProvider, StorageProvider};

fn hub_with(opts: HubOptions, keys: &[(&str, Vec<u8>)]) -> HubHandle {
    let storage = Arc::new(MemoryProvider::new());
    for (k, v) in keys {
        storage.put(k, Bytes::from(v.clone())).unwrap();
    }
    Hub::builder()
        .default_mount(storage)
        .options(opts)
        .bind("127.0.0.1:0")
        .unwrap()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    wire
}

/// Raw untagged socket: Hello exchanged, request/response framing.
fn raw_client(hub: &HubHandle) -> TcpStream {
    let mut s = TcpStream::connect(hub.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&frame(&proto::encode_request(&Request::Hello {
        version: proto::PROTO_VERSION,
    })))
    .unwrap();
    let resp = proto::read_frame(&mut s).unwrap().unwrap();
    proto::expect_hello(&resp).unwrap();
    s
}

/// How many connections the hub has cut for reason `kind` so far.
fn cut_events(hub: &HubHandle, kind: &str) -> usize {
    let events = hub.flight_recorder().events();
    events.iter().filter(|e| e.kind == kind).count()
}

fn get_frame(key: &str) -> Vec<u8> {
    frame(&proto::encode_request(&Request::Get {
        key: key.to_string(),
    }))
}

/// One byte per write with a pause between bytes: the loop must hold
/// the partial frame across hundreds of readiness events and answer
/// normally once it completes — twice, so post-frame state is clean.
#[test]
fn slow_loris_request_is_served() {
    let hub = hub_with(HubOptions::default(), &[("k", b"value".to_vec())]);
    let mut s = raw_client(&hub);
    let expected = proto::resp_bytes(b"value");
    for _ in 0..2 {
        for byte in get_frame("k") {
            s.write_all(&[byte]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let resp = proto::read_frame(&mut s).unwrap().unwrap();
        assert_eq!(resp, expected);
    }
}

/// A slow-loris that stalls mid-frame for good is cut — it cannot hold
/// its reader-tier slot hostage. A loopback smoke: that the cut comes at
/// `stall_timeout`, and is not pushed back by passes that move nothing,
/// is decided with an injected clock in `src/tests.rs`
/// (`the_stall_deadline_arms_on_owed_progress_and_rearms_only_on_progress`).
#[test]
fn mid_frame_stall_is_cut_at_the_deadline() {
    let hub = hub_with(
        HubOptions {
            stall_timeout: Duration::from_millis(200),
            ..HubOptions::default()
        },
        &[("k", b"v".to_vec())],
    );
    let mut s = raw_client(&hub);
    // half a header, then silence
    s.write_all(&[9, 0]).unwrap();
    let mut buf = [0u8; 1];
    let cut = match s.read(&mut buf) {
        Ok(n) => n == 0, // EOF once the hub cuts us
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut), // a reset
    };
    assert!(
        cut,
        "the read must end on the hub's cut, not on its own read timeout"
    );
    assert!(cut_events(&hub, FlightEvent::STALL_CUT) >= 1);
    // the hub is unharmed: a polite client still gets answers
    let mut polite = raw_client(&hub);
    polite.write_all(&get_frame("k")).unwrap();
    let resp = proto::read_frame(&mut polite).unwrap().unwrap();
    assert_eq!(resp, proto::resp_bytes(b"v"));
}

/// Every possible split point of a request frame, on one connection:
/// the framing state machine must reassemble all of them.
#[test]
fn frames_split_at_every_boundary() {
    let hub = hub_with(HubOptions::default(), &[("k", b"boundary".to_vec())]);
    let mut s = raw_client(&hub);
    let wire = get_frame("k");
    let expected = proto::resp_bytes(b"boundary");
    for split in 1..wire.len() {
        s.write_all(&wire[..split]).unwrap();
        s.flush().unwrap();
        // let the first fragment arrive as its own readiness event
        std::thread::sleep(Duration::from_millis(2));
        s.write_all(&wire[split..]).unwrap();
        let resp = proto::read_frame(&mut s).unwrap().unwrap();
        assert_eq!(resp, expected, "split at byte {split}");
    }
}

/// Disconnects at every stage of a partial frame — header only, partial
/// header, partial body, nothing at all — must be absorbed silently and
/// leak nothing.
#[test]
fn mid_frame_disconnects_are_absorbed() {
    let hub = hub_with(HubOptions::default(), &[("k", b"v".to_vec())]);
    let wire = get_frame("k");
    for cut in [0usize, 1, 2, 4, wire.len() - 1] {
        for _ in 0..5 {
            let mut s = raw_client(&hub);
            s.write_all(&wire[..cut]).unwrap();
            drop(s); // RST/FIN mid-frame
        }
    }
    // and one that dies after a *complete* request, before reading
    let mut s = raw_client(&hub);
    s.write_all(&wire).unwrap();
    drop(s);
    std::thread::sleep(Duration::from_millis(100));
    let mut polite = raw_client(&hub);
    polite.write_all(&wire).unwrap();
    let resp = proto::read_frame(&mut polite).unwrap().unwrap();
    assert_eq!(resp, proto::resp_bytes(b"v"));
}

/// A client that writes requests for large values ahead and never reads
/// a byte of response: the hub must stop admitting its requests once the
/// outbound cap is hit (memory bounded), then cut it at the stall
/// deadline. Polite traffic is unaffected throughout. A loopback smoke
/// that waits for the cut it asserts; the bound and the deadline are
/// decided without a clock in `src/tests.rs`
/// (`a_never_reading_peer_is_bounded_by_the_cap_plus_one_response`).
#[test]
fn never_reads_client_is_bounded_then_cut() {
    const VALUE: usize = 32 << 10; // 32 KiB per response
    const CAP: usize = 64 << 10; // outbound cap: 2 responses
    let hub = hub_with(
        HubOptions {
            workers: 2,
            conn_buffer_bytes: CAP,
            stall_timeout: Duration::from_millis(300),
            ..HubOptions::default()
        },
        &[("big", vec![0xEE; VALUE])],
    );
    const REQUESTS: usize = 600; // ~19 MB of responses if unbounded
    let mut s = raw_client(&hub);
    s.set_nonblocking(true).unwrap();
    let wire = get_frame("big");
    // blast requests without ever reading a byte back
    let mut sent = 0;
    for _ in 0..REQUESTS {
        match s.write_all(&wire) {
            Ok(()) => sent += 1,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break, // already cut
        }
    }
    assert!(sent > 4, "the burst must outrun the outbound cap");
    // the hub flushes into kernel buffers until they fill, then its
    // user-space outbound queue stalls at the cap and the deadline cuts
    // the connection; no probes on the socket — any byte we sent or read
    // would count as progress and legitimately re-arm the deadline — so
    // the cut is observed in the hub's flight recorder
    // (the minute is a hang guard, not a bound the cut is held to)
    let give_up = Instant::now() + Duration::from_secs(60);
    while cut_events(&hub, FlightEvent::STALL_CUT) == 0 {
        assert!(Instant::now() < give_up, "the hub never cut the peer");
        std::thread::sleep(Duration::from_millis(5));
    }
    // bounded memory: the outbound queue peaked at the cap plus at most
    // the response already executing when it tripped (an untagged
    // connection has one request in flight)
    let bound = (CAP + VALUE + 64) as u64;
    let peak = hub.stats().peak_conn_buffered();
    assert!(
        peak <= bound,
        "peak conn buffer {peak} exceeded bound {bound} (cap {CAP})"
    );
    // drain what the kernel already held: it must end in EOF/reset long
    // before the full response volume — the hub cut us rather than
    // generate and queue ~19 MB for a peer that never reads
    s.set_nonblocking(false).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = vec![0u8; 64 << 10];
    let mut drained = 0u64;
    let cut = loop {
        match s.read(&mut sink) {
            Ok(0) => break true,
            Ok(n) => drained += n as u64,
            Err(e) => break !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        }
    };
    assert!(
        cut,
        "the read must end on the hub's cut (EOF or reset), not on its own 5 s timeout"
    );
    let total = (sent * (VALUE + 64)) as u64;
    assert!(
        drained < total / 2,
        "hub delivered {drained} of {total} bytes to a never-reading client; \
         it should have cut the connection instead"
    );
    // polite traffic unaffected
    let mut polite = raw_client(&hub);
    polite.write_all(&get_frame("big")).unwrap();
    let resp = proto::read_frame(&mut polite).unwrap().unwrap();
    assert_eq!(resp, proto::resp_bytes(&vec![0xEE; VALUE]));
}

/// Opening many connections must not grow the process thread count:
/// readers are a fixed tier, not per-connection.
#[cfg(target_os = "linux")]
#[test]
fn reader_tier_does_not_grow_with_connections() {
    fn thread_count() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap()
    }
    let hub = hub_with(HubOptions::default(), &[("k", b"v".to_vec())]);
    // settle the fixed tier (loops + workers) before measuring
    let mut warm = raw_client(&hub);
    warm.write_all(&get_frame("k")).unwrap();
    proto::read_frame(&mut warm).unwrap().unwrap();
    let before = thread_count();
    let mut conns: Vec<TcpStream> = (0..64).map(|_| raw_client(&hub)).collect();
    for s in &mut conns {
        s.write_all(&get_frame("k")).unwrap();
        let resp = proto::read_frame(&mut *s).unwrap().unwrap();
        assert_eq!(resp, proto::resp_bytes(b"v"));
    }
    let after = thread_count();
    assert_eq!(
        after, before,
        "64 extra connections must not add a single thread"
    );
}
