//! The request path driven without a socket, a thread or a sleep:
//! [`Conn`] + [`dispatch::serve_frames`] + the scheduler, fed byte slices
//! and a hand-advanced `now`, with the test playing both the driver
//! (feed, flush) and the worker pool (`pop` + [`dispatch::run_job`]).

use std::io::{Error, ErrorKind, IoSlice};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use deeplake_obs::FlightEvent;
use deeplake_remote::proto::{self, Request};
use deeplake_storage::{MemoryProvider, StorageProvider};

use crate::conn::{Conn, ConnShared};
use crate::dispatch::{self, Admission};
use crate::hub::Shared;
use crate::{Hub, HubOptions};

const STALL: Duration = Duration::from_secs(30);

/// A hub's shared state over one default mount holding `k = "value"` and
/// `big` = 4 KiB, with no loops and no workers.
fn hub(opts: HubOptions) -> Arc<Shared> {
    let storage = Arc::new(MemoryProvider::new());
    storage.put("k", Bytes::from_static(b"value")).unwrap();
    storage.put("big", Bytes::from(vec![0xEE; 4096])).unwrap();
    Hub::builder()
        .default_mount(storage)
        .options(opts)
        .build(Vec::new())
        .unwrap()
}

fn conn(shared: &Shared) -> Conn {
    Conn::new(ConnShared::new(7, 0), shared.opts.conn_buffer_bytes)
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(payload);
    wire
}

fn untagged(req: &Request) -> Vec<u8> {
    frame(&proto::encode_request(req))
}

fn tagged(id: u64, req: &Request) -> Vec<u8> {
    frame(&proto::tag_request(id, &proto::encode_request(req)))
}

fn get(key: &str) -> Request {
    Request::Get { key: key.into() }
}

/// Play the worker pool: run every queued job. Returns how many ran.
fn work(shared: &Shared) -> usize {
    let mut ran = 0;
    while shared.sched.load().1 > 0 {
        dispatch::run_job(shared, shared.sched.pop().expect("a job is queued"));
        ran += 1;
    }
    ran
}

/// Serve and work until neither moves: what the loop and the pool reach
/// with a peer that reads nothing yet.
fn pump(shared: &Shared, conn: &mut Conn) {
    while dispatch::serve_frames(shared, conn).unwrap() || work(shared) > 0 {}
}

/// A peer that reads everything: the connection's whole write queue, as
/// the payloads of the frames it holds.
fn drain(conn: &mut Conn) -> Vec<Vec<u8>> {
    let mut wire = Vec::new();
    let take_all = |iov: &[IoSlice<'_>]| {
        iov.iter().for_each(|s| wire.extend_from_slice(s));
        Ok(iov.iter().map(|s| s.len()).sum())
    };
    conn.flush(take_all).unwrap();
    let mut frames = Vec::new();
    let mut rest = &wire[..];
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        frames.push(rest[4..4 + len].to_vec());
        rest = &rest[4 + len..];
    }
    frames
}

/// A peer that reads nothing: the socket would block.
fn would_block(_: &[IoSlice<'_>]) -> std::io::Result<usize> {
    Err(Error::from(ErrorKind::WouldBlock))
}

fn in_flight(shared: &Shared, conn: &Conn) -> (usize, usize) {
    (conn.shared.in_flight.get(), shared.sched.load().0)
}

#[test]
fn a_stream_split_at_every_byte_yields_the_same_three_answers() {
    let shared = hub(HubOptions::default());
    let requests = [Request::Ping, get("k"), get("missing")];
    let stream: Vec<u8> = requests.iter().flat_map(untagged).collect();
    let expected = vec![
        proto::resp_unit(),
        proto::resp_bytes(b"value"),
        proto::resp_storage_err(&MemoryProvider::new().get("missing").unwrap_err()),
    ];
    for cut in 0..=stream.len() {
        let mut conn = conn(&shared);
        conn.feed(&stream[..cut]);
        pump(&shared, &mut conn);
        conn.feed(&stream[cut..]);
        pump(&shared, &mut conn);
        assert_eq!(drain(&mut conn), expected, "split at byte {cut}");
        assert_eq!(conn.interest(), (true, false), "split at byte {cut}");
    }
}

#[test]
fn each_kind_of_frame_gets_its_admission() {
    let shared = hub(HubOptions::default());
    let state = ConnShared::new(1, 0);
    let admit = |pipelined: bool, wire: Vec<u8>| {
        let admission = dispatch::admit(&shared, &state, pipelined, &wire[4..]);
        match admission {
            Admission::Reply(_) => "reply",
            Admission::ReplyThenClose(_) => "reply, close",
            Admission::ReplyThenPipeline(_) => "reply, pipeline",
            Admission::Run(_) => "run",
            Admission::Fatal => "fatal",
        }
    };
    let hello = |version| Request::Hello { version };
    assert_eq!(
        admit(false, untagged(&hello(proto::PROTO_VERSION))),
        "reply"
    );
    let next = proto::PROTO_VERSION + 1;
    assert_eq!(admit(false, untagged(&hello(next))), "reply, close");
    assert_eq!(
        admit(false, untagged(&Request::Pipeline)),
        "reply, pipeline"
    );
    assert_eq!(admit(false, untagged(&Request::Health)), "reply");
    assert_eq!(admit(false, frame(&[0xFF])), "reply", "an unknown opcode");
    assert_eq!(admit(false, untagged(&get("k"))), "run");
    assert_eq!(admit(true, tagged(3, &get("k"))), "run");
    assert_eq!(
        admit(true, frame(&[1, 2, 3])),
        "fatal",
        "too short for an id"
    );
    assert_eq!(shared.sched.load().0, 0, "admit alone moves no counter");
}

#[test]
fn an_untagged_connection_waits_for_its_data_op() {
    let shared = hub(HubOptions::default());
    let mut conn = conn(&shared);
    let burst = [get("k"), Request::Ping, get("big")];
    conn.feed(&burst.iter().flat_map(untagged).collect::<Vec<u8>>());
    assert!(dispatch::serve_frames(&shared, &mut conn).unwrap());
    assert_eq!(in_flight(&shared, &conn), (1, 1), "the first Get is queued");
    // the Ping behind it is complete and cheap — and still not looked at
    assert!(!dispatch::serve_frames(&shared, &mut conn).unwrap());
    assert!(conn.next_frame().unwrap().is_none());
    assert!(drain(&mut conn).is_empty());
    // written ahead on a request/response connection: stop reading it
    assert_eq!(conn.interest(), (false, false));
    assert_eq!(work(&shared), 1);
    // the worker's flush wake-up: the Ping is answered, the next Get queued
    assert!(dispatch::serve_frames(&shared, &mut conn).unwrap());
    assert_eq!(in_flight(&shared, &conn), (1, 1));
    assert_eq!(work(&shared), 1);
    pump(&shared, &mut conn);
    let big = proto::resp_bytes(&[0xEE; 4096]);
    let answers = drain(&mut conn);
    assert_eq!(
        answers,
        [proto::resp_bytes(b"value"), proto::resp_unit(), big]
    );
    assert_eq!(conn.interest(), (true, false));
    assert_eq!(in_flight(&shared, &conn), (0, 0));
}

#[test]
fn read_interest_drops_at_the_outbound_cap_and_returns_below_it() {
    const CAP: usize = 6000; // one 4 KiB response fits under it, two do not
    let shared = hub(HubOptions {
        conn_buffer_bytes: CAP,
        ..HubOptions::default()
    });
    let mut conn = conn(&shared);
    conn.feed(&untagged(&Request::Pipeline));
    pump(&shared, &mut conn);
    assert_eq!(drain(&mut conn), [proto::resp_unit()]);
    let burst: Vec<u8> = (0..4).flat_map(|id| tagged(id, &get("big"))).collect();
    conn.feed(&burst);
    pump(&shared, &mut conn);
    // all four were admitted before any response existed; now the queue
    // is over the cap: no reads, and a fifth request is not sliced
    assert_eq!(conn.interest(), (false, true));
    conn.feed(&tagged(4, &get("k")));
    assert!(!dispatch::serve_frames(&shared, &mut conn).unwrap());
    assert_eq!(in_flight(&shared, &conn), (0, 0));
    // the peer reads all but 5 000 bytes: below the cap, reading resumes
    // and the buffered request is admitted
    let queued = 4 * (12 + proto::resp_bytes(&[0xEE; 4096]).len());
    let mut budget = queued - 5000;
    let partial = |iov: &[IoSlice<'_>]| {
        let n = iov.iter().map(|s| s.len()).sum::<usize>().min(budget);
        budget -= n;
        if n == 0 {
            return would_block(iov);
        }
        Ok(n)
    };
    assert!(conn.flush(partial).unwrap());
    assert_eq!(conn.interest(), (true, true));
    assert!(dispatch::serve_frames(&shared, &mut conn).unwrap());
    assert_eq!(in_flight(&shared, &conn), (1, 1));
    work(&shared);
}

#[test]
fn a_never_reading_peer_is_bounded_by_the_cap_plus_one_response() {
    const CAP: usize = 6000;
    let shared = hub(HubOptions {
        conn_buffer_bytes: CAP,
        ..HubOptions::default()
    });
    let mut conn = conn(&shared);
    let response = 4 + proto::resp_bytes(&[0xEE; 4096]).len();
    let burst: Vec<u8> = (0..600).flat_map(|_| untagged(&get("big"))).collect();
    conn.feed(&burst);
    let t0 = Instant::now();
    let mut served = 0;
    loop {
        let sliced = dispatch::serve_frames(&shared, &mut conn).unwrap();
        let ran = work(&shared);
        assert!(!conn.flush(would_block).unwrap());
        served += ran;
        if !sliced && ran == 0 {
            break;
        }
    }
    // one request at a time, and none once the queue reached the cap
    assert_eq!(served, 2, "600 requests, two responses generated");
    let peak = shared.stats.peak_conn_buffered();
    assert_eq!(peak as usize, 2 * response);
    assert!(peak as usize <= CAP + response);
    assert_eq!(conn.interest(), (false, true));
    // the peer owes progress from the first unwritten byte on, and later
    // passes that move nothing leave that deadline where it is — the
    // driver cuts the connection when `now` reaches it
    let deadline = conn.rearm(t0, STALL).expect("unwritten bytes arm it");
    assert_eq!(deadline, t0 + STALL);
    assert!(!conn.flush(would_block).unwrap());
    assert_eq!(conn.rearm(t0 + STALL / 2, STALL), Some(deadline));
    assert_eq!(conn.armed(), Some(deadline));
}

/// Over the in-flight cap and queue full: exactly one `Busy` each, under
/// the refused request's own id, and no counter moved.
#[test]
fn overload_is_one_busy_frame_in_the_requests_own_slot() {
    let over_cap = HubOptions {
        max_inflight_per_conn: 2,
        ..HubOptions::default()
    };
    let queue_full = HubOptions {
        queue_depth: 1,
        ..HubOptions::default()
    };
    for (opts, admitted, hint) in [
        (over_cap, 2, "connection has 2 requests in flight"),
        (queue_full, 1, "worker queue of 1 is full"),
    ] {
        let shared = hub(opts);
        let mut conn = conn(&shared);
        conn.pipelined = true;
        let burst: Vec<u8> = (10..=10 + admitted)
            .flat_map(|id| tagged(id, &get("k")))
            .collect();
        conn.feed(&burst);
        assert!(dispatch::serve_frames(&shared, &mut conn).unwrap());
        let admitted = admitted as usize;
        assert_eq!(in_flight(&shared, &conn), (admitted, admitted), "{hint}");
        assert_eq!(shared.stats.busy_rejections(), 1, "{hint}");
        let events = shared.obs.recorder.events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == FlightEvent::BUSY)
                .count(),
            1
        );
        // the refusal is already written out, before any worker ran
        let refused = drain(&mut conn);
        assert_eq!(refused.len(), 1, "{hint}");
        let (id, body) = proto::split_tagged(&refused[0]).unwrap();
        assert_eq!(id, 10 + admitted as u64, "the last request's own id");
        assert_eq!(body[0], proto::STATUS_BUSY);
        let err = proto::expect_unit(body).unwrap_err().to_string();
        assert!(err.contains(hint), "{err}");
        assert_eq!(work(&shared), admitted, "a refused request never runs");
        assert_eq!(in_flight(&shared, &conn), (0, 0));
        assert_eq!(drain(&mut conn).len(), admitted);
    }
}

#[test]
fn a_version_mismatched_hello_is_answered_and_nothing_after_it_is_admitted() {
    let shared = hub(HubOptions::default());
    let mut conn = conn(&shared);
    let theirs = proto::PROTO_VERSION + 1;
    let mut stream = untagged(&Request::Hello { version: theirs });
    stream.extend(untagged(&get("k")));
    stream.extend(untagged(&Request::Ping));
    conn.feed(&stream);
    pump(&shared, &mut conn);
    assert_eq!(in_flight(&shared, &conn), (0, 0));
    assert_eq!(conn.interest(), (false, true), "no further reads");
    assert!(!conn.finished(), "the rejection is still owed");
    assert_eq!(drain(&mut conn), [proto::hello_response(theirs)]);
    assert!(conn.finished());
    // and bytes that arrive anyway are not looked at
    conn.feed(&untagged(&Request::Ping));
    assert!(!dispatch::serve_frames(&shared, &mut conn).unwrap());
}

/// Opcode 9 was `GetMany` until generation 4. A frame that still carries
/// it is an unknown opcode like any other: answered losslessly, and the
/// connection goes on serving.
#[test]
fn the_retired_get_many_opcode_is_refused_and_the_next_request_served() {
    let shared = hub(HubOptions::default());
    let mut conn = conn(&shared);
    // as generation 3 spelled one whole-object read of `k`
    let mut retired = vec![9u8];
    retired.extend(1u32.to_le_bytes());
    retired.extend(1u32.to_le_bytes());
    retired.extend(b"k\0");
    let refusal = proto::decode_request(&retired).unwrap_err().to_string();
    assert!(refusal.ends_with("unknown opcode 9"), "{refusal}");
    let mut stream = frame(&retired);
    stream.extend(untagged(&get("k")));
    conn.feed(&stream);
    pump(&shared, &mut conn);
    assert_eq!(
        drain(&mut conn),
        [proto::resp_proto_err(&refusal), proto::resp_bytes(b"value")]
    );
    assert_eq!(conn.interest(), (true, false));
}

/// PR 17's shutdown hang: an untagged connection paused mid-burst when
/// the hub shuts down. Intake closes; the requests it had not sliced must
/// never reach the queue (the pool may be gone), and the connection is
/// finished once the one response it is owed is written.
#[test]
fn close_intake_on_a_paused_burst_drops_the_rest_and_finishes() {
    let shared = hub(HubOptions::default());
    let mut conn = conn(&shared);
    let burst: Vec<u8> = (0..3).flat_map(|_| untagged(&get("k"))).collect();
    conn.feed(&burst);
    assert!(dispatch::serve_frames(&shared, &mut conn).unwrap());
    assert_eq!(in_flight(&shared, &conn), (1, 1));
    // shutdown: the loop's last pass, then intake closes for good
    assert!(!dispatch::serve_frames(&shared, &mut conn).unwrap());
    conn.close_intake();
    assert_eq!(conn.interest(), (false, false));
    assert!(!conn.finished(), "one response is owed");
    // the workers drain the queue; the flush wake-up admits nothing more
    assert_eq!(work(&shared), 1);
    assert!(!dispatch::serve_frames(&shared, &mut conn).unwrap());
    assert_eq!(shared.sched.load(), (0, 0, 64), "nothing reached the queue");
    assert!(!conn.finished(), "deposited, not yet written");
    assert_eq!(drain(&mut conn), [proto::resp_bytes(b"value")]);
    assert!(conn.finished());
}

/// Which connections close in stages at shutdown: one whose peer was
/// mid-conversation when intake closed — a request in flight, an answer
/// unwritten or request bytes unsliced — since it may still be sending;
/// not one that was idle, nor one whose peer had already sent its EOF.
#[test]
fn a_connection_closed_mid_conversation_lingers_and_an_idle_one_does_not() {
    let shared = hub(HubOptions::default());
    let closed = |conn: &mut Conn| {
        conn.close_intake();
        conn.lingers()
    };
    let mut idle = conn(&shared);
    idle.feed(&untagged(&Request::Ping));
    pump(&shared, &mut idle);
    drain(&mut idle);
    assert!(
        !closed(&mut idle),
        "answered and written: nothing in flight"
    );
    let mut queued = conn(&shared);
    queued.feed(&untagged(&get("k")));
    assert!(dispatch::serve_frames(&shared, &mut queued).unwrap());
    assert!(closed(&mut queued), "a request in flight");
    work(&shared);
    assert!(queued.lingers(), "and it stays decided");
    let mut unwritten = conn(&shared);
    unwritten.feed(&untagged(&Request::Ping));
    pump(&shared, &mut unwritten);
    assert!(closed(&mut unwritten), "an answer not yet written");
    let mut partial = conn(&shared);
    partial.feed(&untagged(&Request::Ping)[..3]);
    pump(&shared, &mut partial);
    assert!(closed(&mut partial), "half a request buffered");
    let mut ended = conn(&shared);
    ended.feed(&untagged(&get("k"))[..3]);
    ended.eof();
    assert!(!closed(&mut ended), "the peer already sent its EOF");
}

/// A clean EOF is the other way intake closes: what was received is
/// still served, in order.
#[test]
fn eof_serves_what_was_received_then_finishes() {
    let shared = hub(HubOptions::default());
    let mut conn = conn(&shared);
    let mut stream = untagged(&get("k"));
    stream.extend(untagged(&Request::Ping));
    stream.extend(&untagged(&Request::Ping)[..3]); // and half a header
    conn.feed(&stream);
    conn.eof();
    pump(&shared, &mut conn);
    assert!(!conn.finished());
    assert_eq!(
        drain(&mut conn),
        [proto::resp_bytes(b"value"), proto::resp_unit()]
    );
    assert!(conn.finished(), "a partial frame after EOF is owed nothing");
    assert_eq!(conn.rearm(Instant::now(), STALL), None);
}

#[test]
fn the_stall_deadline_arms_on_owed_progress_and_rearms_only_on_progress() {
    let shared = hub(HubOptions::default());
    let mut conn = conn(&shared);
    let t0 = Instant::now();
    let at = |secs| t0 + Duration::from_secs(secs);
    assert_eq!(
        conn.rearm(t0, STALL),
        None,
        "an idle connection owes nothing"
    );
    // half a header, then silence: armed once, not pushed back by passes
    // that move nothing — a mid-frame stall is cut at `t0 + STALL`
    let ping = untagged(&Request::Ping);
    conn.feed(&ping[..2]);
    pump(&shared, &mut conn);
    assert_eq!(conn.rearm(t0, STALL), Some(at(30)));
    pump(&shared, &mut conn);
    assert_eq!(conn.rearm(at(10), STALL), Some(at(30)));
    assert_eq!(conn.armed(), Some(at(30)));
    // one more byte is progress
    conn.feed(&ping[2..3]);
    pump(&shared, &mut conn);
    assert_eq!(conn.rearm(at(20), STALL), Some(at(50)));
    // the frame completes: its answer is unwritten, so the peer now owes
    // a read — slicing was progress
    conn.feed(&ping[3..]);
    pump(&shared, &mut conn);
    assert_eq!(conn.rearm(at(21), STALL), Some(at(51)));
    assert!(!conn.flush(would_block).unwrap());
    assert_eq!(conn.rearm(at(40), STALL), Some(at(51)), "no byte moved");
    // a partial write is progress; a complete one disarms
    let one_byte = |iov: &[IoSlice<'_>]| Ok(iov[0].len().min(1));
    let mut wrote = 0;
    let mut first_call_only = |iov: &[IoSlice<'_>]| {
        wrote += 1;
        if wrote == 1 {
            one_byte(iov)
        } else {
            would_block(iov)
        }
    };
    assert!(conn.flush(&mut first_call_only).unwrap());
    assert_eq!(conn.rearm(at(41), STALL), Some(at(71)));
    assert_eq!(drain(&mut conn).len(), 1);
    assert_eq!(conn.rearm(at(42), STALL), None);
}

#[test]
fn a_frame_waiting_on_the_hubs_own_answer_does_not_arm_the_deadline() {
    let shared = hub(HubOptions::default());
    let mut conn = conn(&shared);
    let mut stream = untagged(&get("k"));
    stream.extend(untagged(&get("k")));
    conn.feed(&stream);
    assert!(dispatch::serve_frames(&shared, &mut conn).unwrap());
    // a whole request is buffered, but it waits on the pool, not the peer
    assert_eq!(conn.rearm(Instant::now(), STALL), None);
    pump(&shared, &mut conn);
    assert_eq!(drain(&mut conn).len(), 2);
}

#[test]
fn a_flush_is_one_vectored_write_and_survives_a_grudging_writer() {
    let shared = hub(HubOptions::default());
    let mut conn = conn(&shared);
    conn.pipelined = true;
    let burst: Vec<u8> = (0..5).flat_map(|id| tagged(id, &Request::Ping)).collect();
    conn.feed(&burst);
    pump(&shared, &mut conn);
    let mut calls = 0;
    let mut wire = Vec::new();
    let all_at_once = |iov: &[IoSlice<'_>]| {
        calls += 1;
        iov.iter().for_each(|s| wire.extend_from_slice(s));
        Ok(iov.iter().map(|s| s.len()).sum())
    };
    assert!(conn.flush(all_at_once).unwrap());
    assert_eq!(calls, 1, "five responses, one write");
    // the same queue through a writer that takes three bytes a call and
    // is interrupted before each: the same bytes, in order
    conn.feed(&burst);
    pump(&shared, &mut conn);
    let mut trickled = Vec::new();
    let mut interrupted = false;
    let grudging = |iov: &[IoSlice<'_>]| {
        interrupted = !interrupted;
        if interrupted {
            return Err(Error::from(ErrorKind::Interrupted));
        }
        let first = &iov[0][..iov[0].len().min(3)];
        trickled.extend_from_slice(first);
        Ok(first.len())
    };
    assert!(conn.flush(grudging).unwrap());
    assert_eq!(trickled, wire);
    // a writer that reports zero bytes or a hard error cuts the connection
    conn.feed(&burst);
    pump(&shared, &mut conn);
    assert!(conn.flush(|_: &[IoSlice<'_>]| Ok(0)).is_err());
    let reset = |_: &[IoSlice<'_>]| Err(Error::from(ErrorKind::ConnectionReset));
    assert!(conn.flush(reset).is_err());
}

#[test]
fn a_lying_length_header_is_fatal() {
    let shared = hub(HubOptions::default());
    let mut conn = conn(&shared);
    conn.feed(&(proto::MAX_FRAME as u32 + 1).to_le_bytes());
    assert!(dispatch::serve_frames(&shared, &mut conn).is_err());
}

/// The local and the wire form of the control ops are one implementation:
/// same effects, same flight events.
#[test]
fn local_and_wire_unmount_record_the_same_events() {
    let shared = hub(HubOptions::default());
    let kinds = |shared: &Shared| -> Vec<String> {
        let events = shared.obs.recorder.events();
        events.into_iter().map(|e| e.kind).collect()
    };
    let provider = || Arc::new(MemoryProvider::new());
    dispatch::control::mount(&shared, "a", provider()).unwrap();
    assert!(dispatch::control::unmount(&shared, "a"));
    let local = kinds(&shared);
    assert_eq!(
        local,
        [
            FlightEvent::MOUNT,
            FlightEvent::UNMOUNT,
            FlightEvent::CACHE_INVALIDATE
        ]
    );
    dispatch::control::mount(&shared, "a", provider()).unwrap();
    let mut conn = conn(&shared);
    conn.feed(&untagged(&Request::Unmount {
        dataset: "a".into(),
    }));
    pump(&shared, &mut conn);
    assert_eq!(drain(&mut conn), [proto::resp_unit()]);
    assert_eq!(kinds(&shared)[3..], local[..]);
    assert!(!dispatch::control::unmount(&shared, "a"), "already gone");
}
