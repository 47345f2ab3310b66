//! The wire protocol shared by the remote client and the dataset server.
//!
//! **Framing.** Every message is one length-prefixed frame: a `u32`
//! little-endian payload length followed by that many payload bytes.
//! The decoder is hardened like the `DLVX` index reader: a length
//! beyond [`MAX_FRAME`] is rejected before any allocation, and the
//! payload buffer grows only as bytes actually arrive (in
//! [`READ_CHUNK`]-sized steps), so a lying length on a truncated or
//! malicious stream can never drive a huge allocation or a panic.
//! A frame is written with one vectored write (header and payload
//! together) and read straight into the buffer it is returned in.
//!
//! **Requests.** A request payload is `[opcode u8][body]`; see
//! [`Request`]. The batched opcodes are the point of the protocol: one
//! `GetMany`/`Execute` frame carries an entire [`ReadPlan`]'s requests,
//! so a loader task or query scan that needs dozens of chunks pays ONE
//! network round trip, and one `Query` frame ships TQL text so a pruned
//! or ANN query pays one round trip *total*.
//!
//! **Responses.** A response payload is `[status u8][body]`. Storage
//! errors serialize losslessly — a remote `NotFound` decodes into the
//! same [`StorageError::NotFound`] (naming the same key) the mounted
//! provider would have returned locally.
//!
//! **Pipelined mode.** A connection starts *untagged*: plain
//! request/response. The server answers one request at a time, in the
//! order they were sent — a client may write several frames ahead, but
//! the next one is not looked at until the previous response is
//! committed, so nothing runs in parallel and nothing is ever reordered.
//! Sending [`Request::Pipeline`] switches the connection — the switch
//! response itself is still untagged — and from then on every frame in
//! both directions carries an 8-byte little-endian correlation id before
//! its payload ([`write_tagged_frame`], or [`tag_request`] for a caller
//! that wants the bytes; [`split_tagged`] to read one). Tagged requests run
//! concurrently (up to the server's per-connection in-flight cap, past
//! which it answers `Busy`) and responses arrive in *completion* order:
//! many callers share one socket, a demux reader routes each response to
//! its waiting request by id. The opcode is additive, so untagged peers
//! and hand-rolled test clients keep working unchanged and
//! [`PROTO_VERSION`] stays put.
//!
//! **Tracing.** A client that wants a request's server-side work
//! attributed to its trace wraps the payload in [`Request::Traced`]:
//! `[OP_TRACED][trace id u64][span id u64][inner request]`. The server
//! unwraps, records its spans under the client's ids, and answers the
//! inner request's normal response; a bare, unwrapped frame is served
//! the same way without a parent span. Understanding the envelope is
//! what [`PROTO_VERSION`] 3 means, so a peer that accepted the `Hello`
//! accepts the envelope and no further probing is needed.
//!
//! **Introspection.** [`Request::Metrics`] reads the hub's
//! observability registry back out: counters, gauges, sparse histogram
//! buckets, windowed rates, the slow-query ring and the flight
//! recorder, all machine-readable ([`resp_metrics`] /
//! [`expect_metrics`]); [`Request::Health`] is its lightweight
//! liveness sibling, answering a [`HealthReport`] (uptime, load,
//! mounts, capabilities, recent flight events) that health probers
//! poll without dragging full histograms over the wire. Both opcodes
//! are additive: a pre-health hub answers `Health` with a lossless
//! "unknown opcode" protocol error, which a prober reads as
//! *alive-but-old* — only transport failures mean dead.

use bytes::Bytes;
use deeplake_obs::{
    FlightEvent, HistogramSnapshot, MetricsSnapshot, RateSnapshot, SlowQueryEntry, SpanRecord,
};
use deeplake_storage::{ReadRequest, StorageError};
use deeplake_tql::wire::{decode_options, decode_result, encode_options, encode_result, WireError};
use deeplake_tql::wire::{put_bytes, put_str, put_u32, put_u64, WireReader, WireResult};
use deeplake_tql::{QueryOptions, QueryResult};

/// The protocol generation this build speaks. Negotiated by the
/// [`Request::Hello`] handshake: the client's first frame carries its
/// version byte, and a server that speaks a different generation answers
/// a lossless [`STATUS_PROTO_ERR`] naming both versions — instead of
/// silently mis-decoding frames whose layout changed between
/// generations. Bump on any wire-incompatible change. Generation 3 is
/// generation 2 plus the guarantee that the [`Request::Traced`] envelope
/// is understood.
pub const PROTO_VERSION: u8 = 3;

/// Hard upper bound on one frame's payload (1 GiB). Far above any chunk
/// batch the loader issues, far below an allocation that could take the
/// process down.
pub const MAX_FRAME: usize = 1 << 30;

/// Incremental read granularity while receiving a frame body (64 KiB):
/// memory grows with bytes received, not with the claimed length.
pub const READ_CHUNK: usize = 64 * 1024;

// request opcodes
const OP_PING: u8 = 0;
const OP_GET: u8 = 1;
const OP_GET_RANGE: u8 = 2;
const OP_PUT: u8 = 3;
const OP_DELETE: u8 = 4;
const OP_EXISTS: u8 = 5;
const OP_LEN_OF: u8 = 6;
const OP_LIST: u8 = 7;
const OP_DELETE_PREFIX: u8 = 8;
const OP_GET_MANY: u8 = 9;
const OP_EXECUTE: u8 = 10;
const OP_QUERY: u8 = 11;
const OP_DESCRIBE: u8 = 12;
const OP_HELLO: u8 = 13;
const OP_ATTACH: u8 = 14;
const OP_MOUNT: u8 = 15;
const OP_UNMOUNT: u8 = 16;
const OP_LIST_DATASETS: u8 = 17;
const OP_WHERE_IS: u8 = 18;
const OP_PIPELINE: u8 = 19;
const OP_TRACED: u8 = 20;
const OP_METRICS: u8 = 21;
const OP_HEALTH: u8 = 22;

// response status bytes
/// Success; body is op-specific.
pub const STATUS_OK: u8 = 0;
/// A [`StorageError`] follows, losslessly encoded.
pub const STATUS_STORAGE_ERR: u8 = 1;
/// A query failed server-side; body is the rendered error message.
pub const STATUS_QUERY_ERR: u8 = 2;
/// The server could not understand the request; body is a message.
pub const STATUS_PROTO_ERR: u8 = 3;
/// The server is at capacity (worker queue full or per-connection
/// in-flight cap hit); body is a human-readable hint. The request was
/// NOT executed, and the response slot is preserved in order — the
/// stream stays synchronized, so the client can simply back off and
/// retry.
pub const STATUS_BUSY: u8 = 4;

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / handshake probe.
    Ping,
    /// Whole-object read.
    Get {
        /// Object key.
        key: String,
    },
    /// Byte-range read (end exclusive, clamped like the provider trait).
    GetRange {
        /// Object key.
        key: String,
        /// Range start.
        start: u64,
        /// Range end (exclusive).
        end: u64,
    },
    /// Store an object.
    Put {
        /// Object key.
        key: String,
        /// Object bytes.
        value: Bytes,
    },
    /// Delete an object (idempotent).
    Delete {
        /// Object key.
        key: String,
    },
    /// Existence check.
    Exists {
        /// Object key.
        key: String,
    },
    /// Object length.
    LenOf {
        /// Object key.
        key: String,
    },
    /// Sorted keys under a prefix.
    List {
        /// Key prefix.
        prefix: String,
    },
    /// Bulk-delete a subtree.
    DeletePrefix {
        /// Key prefix.
        prefix: String,
    },
    /// Batched reads: one outcome per request, one round trip total.
    GetMany {
        /// The logical reads.
        requests: Vec<ReadRequest>,
    },
    /// Execute a [`deeplake_storage::ReadPlan`] server-side: the mounted
    /// provider coalesces and parallelizes, the wire carries one frame
    /// each way.
    Execute {
        /// The plan's merge gap.
        gap_tolerance: u64,
        /// The plan's logical reads.
        requests: Vec<ReadRequest>,
    },
    /// Offload a TQL query: the server opens its mounted dataset at
    /// `reference` and streams back only result rows.
    Query {
        /// Branch or commit to open (normally `main`).
        reference: String,
        /// TQL text.
        text: String,
        /// Execution options (the server honors pruning/ann/nprobe).
        options: QueryOptions,
    },
    /// Human-readable description of the mounted provider.
    Describe,
    /// Protocol version negotiation — the client's first frame on every
    /// connection. The server answers its own version byte on a match
    /// and a lossless [`STATUS_PROTO_ERR`] on a mismatch (see
    /// [`hello_response`]).
    Hello {
        /// The client's [`PROTO_VERSION`].
        version: u8,
    },
    /// Bind this connection to a named dataset in the hub's registry.
    /// Every later request on the connection resolves against that
    /// dataset's namespace, so the provider methods work unchanged.
    Attach {
        /// Registry name of the dataset.
        dataset: String,
    },
    /// Register a dataset namespace in the hub's registry, backed by a
    /// `PrefixProvider` over the hub's backing store.
    Mount {
        /// Name to register.
        dataset: String,
    },
    /// Remove a dataset from the registry (storage is untouched).
    Unmount {
        /// Name to remove.
        dataset: String,
    },
    /// Sorted names of every mounted dataset.
    ListDatasets,
    /// Cluster placement lookup: which nodes own replicas of `dataset`?
    /// Served by every node of a hub cluster (the shared cluster map is
    /// consulted, no storage I/O); the response carries the map's epoch
    /// so clients can detect a stale cached placement. A hub that is not
    /// part of a cluster answers a lossless protocol error; an unknown
    /// dataset answers a lossless `NotFound`.
    WhereIs {
        /// Registry name of the dataset.
        dataset: String,
    },
    /// Switch this connection to pipelined (correlation-id-tagged)
    /// framing. The acknowledgement is the last untagged response on the
    /// connection; every later frame in both directions is
    /// `[id u64 LE][payload]` and responses arrive in completion order.
    /// Send after `Hello` (and any `Attach`), before concurrent use.
    Pipeline,
    /// An inner request wrapped with the sender's trace context. The
    /// server unwraps before dispatch, attributes its spans to
    /// `trace_id` with `parent_span` as their parent, and answers the
    /// inner request's normal response — purely additive, so untraced
    /// legacy frames keep working. Wrapping a `Traced` in a `Traced` is
    /// a protocol violation.
    Traced {
        /// Trace the request belongs to (never 0 for a real trace).
        trace_id: u64,
        /// The client-side span that issued the request.
        parent_span: u64,
        /// The request being traced.
        inner: Box<Request>,
    },
    /// Read the server's observability registry: counters, gauges,
    /// histogram snapshots, and the slow-query ring (see
    /// [`resp_metrics`]). A control op — answered inline, never queued
    /// behind data-path work, so it stays responsive under load.
    Metrics,
    /// Liveness/readiness probe: answers a [`HealthReport`] — uptime,
    /// in-flight load, queue depth, mounted datasets, protocol
    /// capabilities and the recent flight-recorder tail — without the
    /// full instrument dump `Metrics` carries. A control op like
    /// `Metrics`, answered inline even when the worker queue is full,
    /// so a prober can tell *overloaded* from *dead*. Additive under an
    /// unchanged [`PROTO_VERSION`]: a pre-health server rejects the
    /// opcode with a lossless protocol error, which probers must treat
    /// as alive.
    Health,
}

/// Encode a request payload (opcode + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match req {
        Request::Ping => out.push(OP_PING),
        Request::Get { key } => {
            out.push(OP_GET);
            put_str(&mut out, key);
        }
        Request::GetRange { key, start, end } => {
            out.push(OP_GET_RANGE);
            put_str(&mut out, key);
            put_u64(&mut out, *start);
            put_u64(&mut out, *end);
        }
        Request::Put { key, value } => {
            out.push(OP_PUT);
            put_str(&mut out, key);
            put_bytes(&mut out, value);
        }
        Request::Delete { key } => {
            out.push(OP_DELETE);
            put_str(&mut out, key);
        }
        Request::Exists { key } => {
            out.push(OP_EXISTS);
            put_str(&mut out, key);
        }
        Request::LenOf { key } => {
            out.push(OP_LEN_OF);
            put_str(&mut out, key);
        }
        Request::List { prefix } => {
            out.push(OP_LIST);
            put_str(&mut out, prefix);
        }
        Request::DeletePrefix { prefix } => {
            out.push(OP_DELETE_PREFIX);
            put_str(&mut out, prefix);
        }
        Request::GetMany { requests } => {
            out.push(OP_GET_MANY);
            put_read_requests(&mut out, requests);
        }
        Request::Execute {
            gap_tolerance,
            requests,
        } => {
            out.push(OP_EXECUTE);
            put_u64(&mut out, *gap_tolerance);
            put_read_requests(&mut out, requests);
        }
        Request::Query {
            reference,
            text,
            options,
        } => {
            out.push(OP_QUERY);
            put_str(&mut out, reference);
            put_str(&mut out, text);
            encode_options(options, &mut out);
        }
        Request::Describe => out.push(OP_DESCRIBE),
        Request::Hello { version } => {
            out.push(OP_HELLO);
            out.push(*version);
        }
        Request::Attach { dataset } => {
            out.push(OP_ATTACH);
            put_str(&mut out, dataset);
        }
        Request::Mount { dataset } => {
            out.push(OP_MOUNT);
            put_str(&mut out, dataset);
        }
        Request::Unmount { dataset } => {
            out.push(OP_UNMOUNT);
            put_str(&mut out, dataset);
        }
        Request::ListDatasets => out.push(OP_LIST_DATASETS),
        Request::WhereIs { dataset } => {
            out.push(OP_WHERE_IS);
            put_str(&mut out, dataset);
        }
        Request::Pipeline => out.push(OP_PIPELINE),
        Request::Traced {
            trace_id,
            parent_span,
            inner,
        } => {
            out.push(OP_TRACED);
            put_u64(&mut out, *trace_id);
            put_u64(&mut out, *parent_span);
            out.extend_from_slice(&encode_request(inner));
        }
        Request::Metrics => out.push(OP_METRICS),
        Request::Health => out.push(OP_HEALTH),
    }
    out
}

/// Wrap an *already encoded* request payload in a `Traced` envelope —
/// byte-identical to encoding [`Request::Traced`] around the decoded
/// request, without re-encoding the inner payload. The client's
/// per-exchange hot path.
pub fn trace_wrap(trace_id: u64, span_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(17 + payload.len());
    out.push(OP_TRACED);
    put_u64(&mut out, trace_id);
    put_u64(&mut out, span_id);
    out.extend_from_slice(payload);
    out
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> WireResult<Request> {
    let mut r = WireReader::new(payload);
    let req = match r.u8()? {
        OP_PING => Request::Ping,
        OP_GET => Request::Get { key: r.str()? },
        OP_GET_RANGE => Request::GetRange {
            key: r.str()?,
            start: r.u64()?,
            end: r.u64()?,
        },
        OP_PUT => Request::Put {
            key: r.str()?,
            value: r.bytes()?,
        },
        OP_DELETE => Request::Delete { key: r.str()? },
        OP_EXISTS => Request::Exists { key: r.str()? },
        OP_LEN_OF => Request::LenOf { key: r.str()? },
        OP_LIST => Request::List { prefix: r.str()? },
        OP_DELETE_PREFIX => Request::DeletePrefix { prefix: r.str()? },
        OP_GET_MANY => Request::GetMany {
            requests: take_read_requests(&mut r)?,
        },
        OP_EXECUTE => Request::Execute {
            gap_tolerance: r.u64()?,
            requests: take_read_requests(&mut r)?,
        },
        OP_QUERY => Request::Query {
            reference: r.str()?,
            text: r.str()?,
            options: decode_options(&mut r)?,
        },
        OP_DESCRIBE => Request::Describe,
        OP_HELLO => Request::Hello { version: r.u8()? },
        OP_ATTACH => Request::Attach { dataset: r.str()? },
        OP_MOUNT => Request::Mount { dataset: r.str()? },
        OP_UNMOUNT => Request::Unmount { dataset: r.str()? },
        OP_LIST_DATASETS => Request::ListDatasets,
        OP_WHERE_IS => Request::WhereIs { dataset: r.str()? },
        OP_PIPELINE => Request::Pipeline,
        OP_TRACED => {
            let trace_id = r.u64()?;
            let parent_span = r.u64()?;
            let inner_payload = r.take(r.remaining())?;
            // rejected by peeking the opcode BEFORE recursing: a frame of
            // N repeated 17-byte Traced headers must cost one stack
            // frame, not N — recursion depth here is attacker-controlled
            // up to MAX_FRAME, and a stack overflow aborts the process
            if inner_payload.first() == Some(&OP_TRACED) {
                return Err(WireError("nested traced frame".into()));
            }
            let inner = decode_request(inner_payload)?;
            Request::Traced {
                trace_id,
                parent_span,
                inner: Box::new(inner),
            }
        }
        OP_METRICS => Request::Metrics,
        OP_HEALTH => Request::Health,
        other => return Err(WireError(format!("unknown opcode {other}"))),
    };
    r.finish()?;
    Ok(req)
}

fn put_read_requests(out: &mut Vec<u8>, requests: &[ReadRequest]) {
    put_u32(out, requests.len() as u32);
    for req in requests {
        put_str(out, &req.key);
        match req.range {
            None => out.push(0),
            Some((start, end)) => {
                out.push(1);
                put_u64(out, start);
                put_u64(out, end);
            }
        }
    }
}

fn take_read_requests(r: &mut WireReader<'_>) -> WireResult<Vec<ReadRequest>> {
    let count = r.u32()? as usize;
    // each request costs at least 5 bytes (length header + range flag)
    if count > r.remaining() / 5 {
        return Err(WireError(format!(
            "request count {count} exceeds remaining bytes"
        )));
    }
    let mut requests = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.str()?;
        let range = match r.u8()? {
            0 => None,
            1 => Some((r.u64()?, r.u64()?)),
            other => return Err(WireError(format!("bad range flag {other}"))),
        };
        requests.push(ReadRequest { key, range });
    }
    Ok(requests)
}

// ---------------------------------------------------------------------
// storage error codec (lossless)
// ---------------------------------------------------------------------

const ERR_NOT_FOUND: u8 = 0;
const ERR_RANGE: u8 = 1;
const ERR_IO: u8 = 2;
const ERR_READ_ONLY: u8 = 3;
const ERR_BUSY: u8 = 4;

/// Encode a [`StorageError`] body.
pub fn put_storage_err(out: &mut Vec<u8>, e: &StorageError) {
    match e {
        StorageError::NotFound(key) => {
            out.push(ERR_NOT_FOUND);
            put_str(out, key);
        }
        StorageError::RangeOutOfBounds { start, end, len } => {
            out.push(ERR_RANGE);
            put_u64(out, *start);
            put_u64(out, *end);
            put_u64(out, *len);
        }
        StorageError::Io(msg) => {
            out.push(ERR_IO);
            put_str(out, msg);
        }
        StorageError::ReadOnly => out.push(ERR_READ_ONLY),
        StorageError::Busy(hint) => {
            out.push(ERR_BUSY);
            put_str(out, hint);
        }
    }
}

/// Decode a [`StorageError`] body.
pub fn take_storage_err(r: &mut WireReader<'_>) -> WireResult<StorageError> {
    Ok(match r.u8()? {
        ERR_NOT_FOUND => StorageError::NotFound(r.str()?),
        ERR_RANGE => StorageError::RangeOutOfBounds {
            start: r.u64()?,
            end: r.u64()?,
            len: r.u64()?,
        },
        ERR_IO => StorageError::Io(r.str()?),
        ERR_READ_ONLY => StorageError::ReadOnly,
        ERR_BUSY => StorageError::Busy(r.str()?),
        other => return Err(WireError(format!("unknown error kind {other}"))),
    })
}

// ---------------------------------------------------------------------
// response builders (server side)
// ---------------------------------------------------------------------

/// `STATUS_OK` with an empty body.
pub fn resp_unit() -> Vec<u8> {
    vec![STATUS_OK]
}

/// `STATUS_OK` carrying raw object bytes.
pub fn resp_bytes(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + data.len());
    out.push(STATUS_OK);
    put_bytes(&mut out, data);
    out
}

/// `STATUS_OK` carrying a boolean.
pub fn resp_bool(v: bool) -> Vec<u8> {
    vec![STATUS_OK, v as u8]
}

/// `STATUS_OK` carrying a `u64`.
pub fn resp_u64(v: u64) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u64(&mut out, v);
    out
}

/// `STATUS_OK` carrying a string.
pub fn resp_str(s: &str) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_str(&mut out, s);
    out
}

/// `STATUS_OK` carrying a key listing.
pub fn resp_list(keys: &[String]) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u32(&mut out, keys.len() as u32);
    for k in keys {
        put_str(&mut out, k);
    }
    out
}

/// `STATUS_OK` carrying per-slot outcomes (the `GetMany` response).
pub fn resp_results(results: &[Result<Bytes, StorageError>]) -> Vec<u8> {
    ok_slots(results, 0)
}

/// `STATUS_OK` carrying an executed plan's outcome (fetch count + slots).
pub fn resp_execute(fetches: u64, results: &[Result<Bytes, StorageError>]) -> Vec<u8> {
    let mut out = ok_slots(results, 8);
    put_u64(&mut out, fetches);
    out
}

/// `STATUS_OK`, the slot count and the slots, in a buffer sized once —
/// per slot a flag and a length header plus an `Ok` slot's bytes, and
/// `trailer` bytes the caller appends — so no slot is copied again by a
/// later one growing the buffer (an error slot's text is short and may
/// still grow it).
fn ok_slots(results: &[Result<Bytes, StorageError>], trailer: usize) -> Vec<u8> {
    let slots: usize = results
        .iter()
        .map(|slot| 9 + slot.as_ref().map_or(0, Bytes::len))
        .sum();
    let mut out = Vec::with_capacity(1 + 4 + slots + trailer);
    out.push(STATUS_OK);
    put_u32(&mut out, results.len() as u32);
    for slot in results {
        match slot {
            Ok(data) => {
                out.push(0);
                put_bytes(&mut out, data);
            }
            Err(e) => {
                out.push(1);
                put_storage_err(&mut out, e);
            }
        }
    }
    out
}

/// `STATUS_OK` carrying a cluster placement: the map epoch the answer
/// was computed under, then the addresses of the live replicas owning
/// the dataset (in ring order — clients rotate over them).
pub fn resp_placement(epoch: u64, replicas: &[String]) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u64(&mut out, epoch);
    put_u32(&mut out, replicas.len() as u32);
    for addr in replicas {
        put_str(&mut out, addr);
    }
    out
}

/// `STATUS_OK` carrying an offloaded query's result.
pub fn resp_query(result: &QueryResult) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    encode_result(result, &mut out);
    out
}

/// Encode a flight-event list (shared by the `Metrics` and `Health`
/// responses).
fn put_events(out: &mut Vec<u8>, events: &[FlightEvent]) {
    put_u32(out, events.len() as u32);
    for e in events {
        put_u64(out, e.at_unix_ms);
        put_u64(out, e.seq);
        put_str(out, &e.kind);
        put_u64(out, e.trace_id);
        put_str(out, &e.detail);
    }
}

/// Decode a flight-event list, count bounded before allocation.
fn take_events(r: &mut WireReader<'_>) -> Result<Vec<FlightEvent>, StorageError> {
    let n = r.u32().map_err(proto_err)? as usize;
    // each event costs at least two length headers plus three u64s
    bounded_count(r, n, 32, "event")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(FlightEvent {
            at_unix_ms: r.u64().map_err(proto_err)?,
            seq: r.u64().map_err(proto_err)?,
            kind: r.str().map_err(proto_err)?,
            trace_id: r.u64().map_err(proto_err)?,
            detail: r.str().map_err(proto_err)?,
        });
    }
    Ok(events)
}

/// `STATUS_OK` carrying a [`MetricsSnapshot`]: counters and gauges as
/// `(name, value)` pairs, histograms as exact `count`/`sum`/`max` plus
/// sparse non-empty buckets, the slow-query ring with each entry's
/// span breakdown, then the windowed-rate and flight-event sections.
/// The last two trail the frame so a response from a pre-rates hub —
/// which simply ends after the slow queries — still decodes (see
/// [`expect_metrics`]). Names travel sorted (the registry snapshots
/// them sorted), so diffing two responses is line-by-line.
pub fn resp_metrics(snap: &MetricsSnapshot) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u32(&mut out, snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        put_str(&mut out, name);
        put_u64(&mut out, *v);
    }
    put_u32(&mut out, snap.gauges.len() as u32);
    for (name, v) in &snap.gauges {
        put_str(&mut out, name);
        put_u64(&mut out, *v as u64);
    }
    put_u32(&mut out, snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        put_str(&mut out, name);
        put_u64(&mut out, h.count);
        put_u64(&mut out, h.sum);
        put_u64(&mut out, h.max);
        put_u32(&mut out, h.buckets.len() as u32);
        for &(index, n) in &h.buckets {
            put_u32(&mut out, index);
            put_u64(&mut out, n);
        }
    }
    put_u32(&mut out, snap.slow_queries.len() as u32);
    for entry in &snap.slow_queries {
        put_u64(&mut out, entry.trace_id);
        put_u64(&mut out, entry.root_span);
        put_u64(&mut out, entry.parent_span);
        put_str(&mut out, &entry.dataset);
        put_str(&mut out, &entry.version);
        put_str(&mut out, &entry.text);
        put_u64(&mut out, entry.total_ns);
        put_u32(&mut out, entry.spans.len() as u32);
        for span in &entry.spans {
            put_str(&mut out, &span.name);
            put_u64(&mut out, span.span_id);
            put_u64(&mut out, span.parent_span);
            put_u64(&mut out, span.dur_ns);
        }
    }
    put_u32(&mut out, snap.rates.len() as u32);
    for (name, rate) in &snap.rates {
        put_str(&mut out, name);
        for &c in &rate.counts {
            put_u64(&mut out, c);
        }
    }
    put_events(&mut out, &snap.events);
    out
}

/// A hub's answer to [`Request::Health`]: enough state for a prober or
/// a `dltop`-style dashboard to judge liveness and load at a glance,
/// without the full instrument dump `Metrics` carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Milliseconds since the hub bound its listener.
    pub uptime_ms: u64,
    /// Requests currently queued or executing across all connections.
    pub in_flight: u64,
    /// Jobs currently waiting in the worker queue.
    pub queue_depth: u64,
    /// The worker queue's capacity (`queue_depth == queue_cap` means
    /// new data-path work is being answered `Busy`).
    pub queue_cap: u64,
    /// Sorted names of every mounted dataset.
    pub datasets: Vec<String>,
    /// The [`PROTO_VERSION`] the hub speaks.
    pub proto_version: u8,
    /// Whether the hub understands the `Traced` envelope.
    pub tracing: bool,
    /// The flight recorder's newest events (a bounded tail, oldest
    /// first) — what just happened on this node.
    pub events: Vec<FlightEvent>,
}

/// `STATUS_OK` carrying a [`HealthReport`].
pub fn resp_health(report: &HealthReport) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u64(&mut out, report.uptime_ms);
    put_u64(&mut out, report.in_flight);
    put_u64(&mut out, report.queue_depth);
    put_u64(&mut out, report.queue_cap);
    put_u32(&mut out, report.datasets.len() as u32);
    for name in &report.datasets {
        put_str(&mut out, name);
    }
    out.push(report.proto_version);
    out.push(report.tracing as u8);
    put_events(&mut out, &report.events);
    out
}

/// Decode a `Health` response. A pre-health server answers the opcode
/// itself with a lossless protocol error, which surfaces here as
/// [`StorageError::Io`] — *not* as a transport failure — so probers can
/// distinguish an old-but-alive node from a dead one.
pub fn expect_health(payload: &[u8]) -> Result<HealthReport, StorageError> {
    let mut r = open_response(payload)?;
    let uptime_ms = r.u64().map_err(proto_err)?;
    let in_flight = r.u64().map_err(proto_err)?;
    let queue_depth = r.u64().map_err(proto_err)?;
    let queue_cap = r.u64().map_err(proto_err)?;
    let n = r.u32().map_err(proto_err)? as usize;
    bounded_count(&r, n, 4, "dataset")?;
    let mut datasets = Vec::with_capacity(n);
    for _ in 0..n {
        datasets.push(r.str().map_err(proto_err)?);
    }
    let proto_version = r.u8().map_err(proto_err)?;
    let tracing = r.u8().map_err(proto_err)? != 0;
    let events = take_events(&mut r)?;
    r.finish().map_err(proto_err)?;
    Ok(HealthReport {
        uptime_ms,
        in_flight,
        queue_depth,
        queue_cap,
        datasets,
        proto_version,
        tracing,
        events,
    })
}

/// `STATUS_STORAGE_ERR` carrying a lossless [`StorageError`].
pub fn resp_storage_err(e: &StorageError) -> Vec<u8> {
    let mut out = vec![STATUS_STORAGE_ERR];
    put_storage_err(&mut out, e);
    out
}

/// `STATUS_QUERY_ERR` carrying the rendered query error.
pub fn resp_query_err(message: &str) -> Vec<u8> {
    let mut out = vec![STATUS_QUERY_ERR];
    put_str(&mut out, message);
    out
}

/// `STATUS_PROTO_ERR` carrying a protocol violation message.
pub fn resp_proto_err(message: &str) -> Vec<u8> {
    let mut out = vec![STATUS_PROTO_ERR];
    put_str(&mut out, message);
    out
}

/// `STATUS_BUSY` carrying a back-off hint. The request this answers was
/// not executed; the response slot is preserved so the stream never
/// desynchronizes.
pub fn resp_busy(hint: &str) -> Vec<u8> {
    let mut out = vec![STATUS_BUSY];
    put_str(&mut out, hint);
    out
}

/// Answer a [`Request::Hello`]: the server's own version byte on a
/// match, a lossless protocol error naming both generations on a
/// mismatch. Shared by every server implementation so the negotiation
/// semantics cannot drift.
pub fn hello_response(client_version: u8) -> Vec<u8> {
    if client_version == PROTO_VERSION {
        vec![STATUS_OK, PROTO_VERSION]
    } else {
        resp_proto_err(&format!(
            "protocol version {client_version} unsupported (server speaks {PROTO_VERSION})"
        ))
    }
}

/// Decode a `Hello` response into the server's version byte. A mismatch
/// rejected by the server surfaces as the lossless error message
/// [`hello_response`] produced — never as a garbled decode of a
/// misunderstood frame.
pub fn expect_hello(payload: &[u8]) -> Result<u8, StorageError> {
    let mut r = open_response(payload)?;
    let version = r.u8().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok(version)
}

// ---------------------------------------------------------------------
// response decoders (client side)
// ---------------------------------------------------------------------

fn proto_err(msg: impl std::fmt::Display) -> StorageError {
    StorageError::Io(format!("remote protocol: {msg}"))
}

/// Split a response into `Ok(body reader)` or the decoded error. The
/// storage-error status decodes losslessly; query/protocol statuses map
/// to [`StorageError::Io`] (they have no storage-level meaning).
fn open_response(payload: &[u8]) -> Result<WireReader<'_>, StorageError> {
    let mut r = WireReader::new(payload);
    match r.u8().map_err(proto_err)? {
        STATUS_OK => Ok(r),
        STATUS_STORAGE_ERR => Err(take_storage_err(&mut r).map_err(proto_err)?),
        STATUS_QUERY_ERR => Err(proto_err(format!(
            "unexpected query error: {}",
            r.str().map_err(proto_err)?
        ))),
        STATUS_PROTO_ERR => Err(proto_err(r.str().map_err(proto_err)?)),
        STATUS_BUSY => Err(StorageError::Busy(r.str().map_err(proto_err)?)),
        other => Err(proto_err(format!("unknown status {other}"))),
    }
}

/// Decode an empty-body response.
pub fn expect_unit(payload: &[u8]) -> Result<(), StorageError> {
    open_response(payload)?.finish().map_err(proto_err)
}

/// Decode an object-bytes response.
pub fn expect_bytes(payload: &[u8]) -> Result<Bytes, StorageError> {
    let mut r = open_response(payload)?;
    let data = r.bytes().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok(data)
}

/// Decode a boolean response.
pub fn expect_bool(payload: &[u8]) -> Result<bool, StorageError> {
    let mut r = open_response(payload)?;
    let v = r.u8().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok(v != 0)
}

/// Decode a `u64` response.
pub fn expect_u64(payload: &[u8]) -> Result<u64, StorageError> {
    let mut r = open_response(payload)?;
    let v = r.u64().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok(v)
}

/// Decode a string response.
pub fn expect_str(payload: &[u8]) -> Result<String, StorageError> {
    let mut r = open_response(payload)?;
    let s = r.str().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok(s)
}

/// Decode a key-listing response.
pub fn expect_list(payload: &[u8]) -> Result<Vec<String>, StorageError> {
    let mut r = open_response(payload)?;
    let count = r.u32().map_err(proto_err)? as usize;
    if count > r.remaining() / 4 {
        return Err(proto_err("listing count exceeds frame"));
    }
    let mut keys = Vec::with_capacity(count);
    for _ in 0..count {
        keys.push(r.str().map_err(proto_err)?);
    }
    r.finish().map_err(proto_err)?;
    Ok(keys)
}

/// Decode a `WhereIs` response into `(map epoch, replica addresses)`.
/// An unknown dataset surfaces as the lossless [`StorageError::NotFound`]
/// the serving node produced; a non-clustered hub as a protocol error.
pub fn expect_placement(payload: &[u8]) -> Result<(u64, Vec<String>), StorageError> {
    let mut r = open_response(payload)?;
    let epoch = r.u64().map_err(proto_err)?;
    let count = r.u32().map_err(proto_err)? as usize;
    // each address costs at least a 4-byte length header
    if count > r.remaining() / 4 {
        return Err(proto_err("replica count exceeds frame"));
    }
    let mut replicas = Vec::with_capacity(count);
    for _ in 0..count {
        replicas.push(r.str().map_err(proto_err)?);
    }
    r.finish().map_err(proto_err)?;
    Ok((epoch, replicas))
}

fn take_results(
    r: &mut WireReader<'_>,
    expected: usize,
) -> Result<Vec<Result<Bytes, StorageError>>, StorageError> {
    let count = r.u32().map_err(proto_err)? as usize;
    if count != expected {
        return Err(proto_err(format!(
            "server answered {count} slots for {expected} requests"
        )));
    }
    if count > r.remaining() {
        return Err(proto_err("slot count exceeds frame"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        match r.u8().map_err(proto_err)? {
            0 => out.push(Ok(r.bytes().map_err(proto_err)?)),
            1 => out.push(Err(take_storage_err(r).map_err(proto_err)?)),
            other => return Err(proto_err(format!("bad slot flag {other}"))),
        }
    }
    Ok(out)
}

/// Decode a `GetMany` response (`expected` = requests sent).
pub fn expect_results(
    payload: &[u8],
    expected: usize,
) -> Result<Vec<Result<Bytes, StorageError>>, StorageError> {
    let mut r = open_response(payload)?;
    let out = take_results(&mut r, expected)?;
    r.finish().map_err(proto_err)?;
    Ok(out)
}

/// Decode an `Execute` response: per-slot outcomes plus the backend
/// fetch count the mounted provider reported.
pub fn expect_execute(
    payload: &[u8],
    expected: usize,
) -> Result<(Vec<Result<Bytes, StorageError>>, u64), StorageError> {
    let mut r = open_response(payload)?;
    let results = take_results(&mut r, expected)?;
    let fetches = r.u64().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok((results, fetches))
}

/// Bound `count` against the bytes left in the frame, at `min_size`
/// bytes per element, before any allocation.
fn bounded_count(
    r: &WireReader<'_>,
    count: usize,
    min_size: usize,
    what: &str,
) -> Result<(), StorageError> {
    if count > r.remaining() / min_size {
        return Err(proto_err(format!("{what} count {count} exceeds frame")));
    }
    Ok(())
}

/// Decode a `Metrics` response into a [`MetricsSnapshot`]. Every count
/// is bounded against the remaining bytes before its vector is
/// allocated, matching the rest of the protocol's decode discipline.
pub fn expect_metrics(payload: &[u8]) -> Result<MetricsSnapshot, StorageError> {
    let mut r = open_response(payload)?;
    let n = r.u32().map_err(proto_err)? as usize;
    bounded_count(&r, n, 12, "counter")?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push((r.str().map_err(proto_err)?, r.u64().map_err(proto_err)?));
    }
    let n = r.u32().map_err(proto_err)? as usize;
    bounded_count(&r, n, 12, "gauge")?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        gauges.push((
            r.str().map_err(proto_err)?,
            r.u64().map_err(proto_err)? as i64,
        ));
    }
    let n = r.u32().map_err(proto_err)? as usize;
    bounded_count(&r, n, 32, "histogram")?;
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str().map_err(proto_err)?;
        let count = r.u64().map_err(proto_err)?;
        let sum = r.u64().map_err(proto_err)?;
        let max = r.u64().map_err(proto_err)?;
        let b = r.u32().map_err(proto_err)? as usize;
        bounded_count(&r, b, 12, "bucket")?;
        let mut buckets = Vec::with_capacity(b);
        for _ in 0..b {
            buckets.push((r.u32().map_err(proto_err)?, r.u64().map_err(proto_err)?));
        }
        histograms.push((
            name,
            HistogramSnapshot {
                count,
                sum,
                max,
                buckets,
            },
        ));
    }
    let n = r.u32().map_err(proto_err)? as usize;
    bounded_count(&r, n, 48, "slow-query")?;
    let mut slow_queries = Vec::with_capacity(n);
    for _ in 0..n {
        let trace_id = r.u64().map_err(proto_err)?;
        let root_span = r.u64().map_err(proto_err)?;
        let parent_span = r.u64().map_err(proto_err)?;
        let dataset = r.str().map_err(proto_err)?;
        let version = r.str().map_err(proto_err)?;
        let text = r.str().map_err(proto_err)?;
        let total_ns = r.u64().map_err(proto_err)?;
        let s = r.u32().map_err(proto_err)? as usize;
        bounded_count(&r, s, 28, "span")?;
        let mut spans = Vec::with_capacity(s);
        for _ in 0..s {
            spans.push(SpanRecord {
                name: r.str().map_err(proto_err)?,
                span_id: r.u64().map_err(proto_err)?,
                parent_span: r.u64().map_err(proto_err)?,
                dur_ns: r.u64().map_err(proto_err)?,
            });
        }
        slow_queries.push(SlowQueryEntry {
            trace_id,
            root_span,
            parent_span,
            dataset,
            version,
            text,
            total_ns,
            spans,
        });
    }
    // the rate and event sections are additive: a pre-rates hub's frame
    // simply ends here, and the missing sections decode as empty — the
    // mixed-version tolerance every other protocol extension has
    let mut rates = Vec::new();
    let mut events = Vec::new();
    if r.remaining() > 0 {
        let n = r.u32().map_err(proto_err)? as usize;
        // a name header plus three u64 window totals
        bounded_count(&r, n, 28, "rate")?;
        for _ in 0..n {
            let name = r.str().map_err(proto_err)?;
            let mut counts = [0u64; 3];
            for c in counts.iter_mut() {
                *c = r.u64().map_err(proto_err)?;
            }
            rates.push((name, RateSnapshot { counts }));
        }
        events = take_events(&mut r)?;
    }
    r.finish().map_err(proto_err)?;
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
        rates,
        slow_queries,
        events,
    })
}

/// Decode a `Query` response into the [`QueryResult`] the server
/// computed (query errors surface as [`deeplake_tql::TqlError::Remote`]).
pub fn expect_query(payload: &[u8]) -> deeplake_tql::Result<QueryResult> {
    let mut r = WireReader::new(payload);
    match r.u8()? {
        STATUS_OK => {
            let result = decode_result(&mut r)?;
            r.finish()?;
            Ok(result)
        }
        STATUS_QUERY_ERR => Err(deeplake_tql::TqlError::Remote(r.str()?)),
        STATUS_STORAGE_ERR => {
            let e = take_storage_err(&mut r)?;
            Err(deeplake_tql::TqlError::Remote(format!("storage: {e}")))
        }
        STATUS_PROTO_ERR => Err(deeplake_tql::TqlError::Remote(r.str()?)),
        STATUS_BUSY => Err(deeplake_tql::TqlError::Remote(format!(
            "server busy: {}",
            r.str()?
        ))),
        other => Err(deeplake_tql::TqlError::Remote(format!(
            "unknown status {other}"
        ))),
    }
}

// ---------------------------------------------------------------------
// pipelined (correlation-id) framing
// ---------------------------------------------------------------------

/// Prefix `payload` with its 8-byte little-endian correlation id — the
/// frame body both directions use once a connection switched to
/// pipelined mode via [`Request::Pipeline`].
pub fn tag_request(id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Split a pipelined frame body into `(correlation id, payload)`.
/// `None` means the frame is too short to carry an id — a protocol
/// violation that must fail the connection (the stream cannot be
/// resynchronized).
pub fn split_tagged(payload: &[u8]) -> Option<(u64, &[u8])> {
    if payload.len() < 8 {
        return None;
    }
    let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
    Some((id, &payload[8..]))
}

// ---------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------

/// Write one frame (length prefix + payload) and flush. A payload over
/// [`MAX_FRAME`] is refused up front — truncating the length header
/// would desynchronize the stream for every later frame. Header and
/// payload leave in one vectored write, so a frame is one syscall (and
/// one wake-up of the peer), not two.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    let len = frame_len(payload.len())?;
    write_head_and_payload(w, &len.to_le_bytes(), payload)
}

/// Write one pipelined frame, `[len][id][payload]`, and flush: the bytes
/// of `write_frame(w, &tag_request(id, payload))` without building that
/// intermediate copy of the payload.
pub fn write_tagged_frame(
    w: &mut impl std::io::Write,
    id: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let len = frame_len(payload.len().saturating_add(8))?;
    let mut head = [0u8; 12];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&id.to_le_bytes());
    write_head_and_payload(w, &head, payload)
}

/// `len` as a length header, refused when over [`MAX_FRAME`].
fn frame_len(len: usize) -> std::io::Result<u32> {
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("payload of {len} bytes exceeds the {MAX_FRAME}-byte frame cap"),
        ));
    }
    Ok(len as u32)
}

/// `write_all` over two buffers: one `write_vectored` call when the
/// writer takes everything, resumed after a short write or `Interrupted`.
fn write_head_and_payload(
    w: &mut impl std::io::Write,
    mut head: &[u8],
    mut payload: &[u8],
) -> std::io::Result<()> {
    while !head.is_empty() || !payload.is_empty() {
        let bufs = [std::io::IoSlice::new(head), std::io::IoSlice::new(payload)];
        match w.write_vectored(&bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => {
                let of_head = n.min(head.len());
                head = &head[of_head..];
                payload = &payload[n - of_head..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one frame's payload. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed between frames); any other shortfall
/// is an error. A length header beyond [`MAX_FRAME`] is rejected before
/// allocation, and the buffer grows in [`READ_CHUNK`] steps so memory
/// tracks bytes actually received.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    read_frame_after(r, first[0]).map(Some)
}

/// Read the remainder of a frame whose first header byte has already
/// been consumed (see the server's idle/read-timeout handling: only the
/// wait for a frame's *first* byte may time out recoverably — once any
/// byte is consumed, a timeout must fail the connection, because the
/// partial read cannot be resumed without desynchronizing the stream).
pub fn read_frame_after(r: &mut impl std::io::Read, first: u8) -> std::io::Result<Vec<u8>> {
    let mut header = [first, 0, 0, 0];
    let mut filled = 1;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    // read straight into the payload: the buffer is extended (zeroed)
    // by at most READ_CHUNK only once every byte of it has arrived, so a
    // lying length cannot allocate ahead of the bytes actually received
    let mut payload = Vec::new();
    let mut filled = 0;
    while filled < len {
        if filled == payload.len() {
            payload.resize(filled + (len - filled).min(READ_CHUNK), 0);
        }
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("eof inside frame body ({filled}/{len} bytes)"),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: &Request) -> Request {
        decode_request(&encode_request(req)).unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Ping,
            Request::Get { key: "a/b".into() },
            Request::GetRange {
                key: "k".into(),
                start: 3,
                end: 9,
            },
            Request::Put {
                key: "k".into(),
                value: Bytes::from_static(b"payload"),
            },
            Request::Delete { key: "k".into() },
            Request::Exists { key: "k".into() },
            Request::LenOf { key: "k".into() },
            Request::List {
                prefix: "t/".into(),
            },
            Request::DeletePrefix {
                prefix: "t/".into(),
            },
            Request::GetMany {
                requests: vec![
                    ReadRequest::whole("a"),
                    ReadRequest::range("b", 0, 10),
                    ReadRequest::whole(""),
                ],
            },
            Request::Execute {
                gap_tolerance: 4096,
                requests: vec![ReadRequest::range("c", 5, 5)],
            },
            Request::Query {
                reference: "main".into(),
                text: "SELECT * FROM ds WHERE labels = 3".into(),
                options: QueryOptions::default(),
            },
            Request::Describe,
            Request::Hello {
                version: PROTO_VERSION,
            },
            Request::Hello { version: 0 },
            Request::Attach {
                dataset: "mnist".into(),
            },
            Request::Mount {
                dataset: "laion".into(),
            },
            Request::Unmount {
                dataset: "laion".into(),
            },
            Request::ListDatasets,
            Request::WhereIs {
                dataset: "mnist".into(),
            },
            Request::Pipeline,
            Request::Traced {
                trace_id: 0xDEAD_BEEF,
                parent_span: 42,
                inner: Box::new(Request::Query {
                    reference: "main".into(),
                    text: "SELECT * FROM ds".into(),
                    options: QueryOptions::default(),
                }),
            },
            Request::Metrics,
            Request::Health,
        ] {
            let back = roundtrip(&req);
            assert_eq!(back, req);
        }
    }

    #[test]
    fn nested_traced_frames_rejected() {
        let double = Request::Traced {
            trace_id: 1,
            parent_span: 2,
            inner: Box::new(Request::Traced {
                trace_id: 3,
                parent_span: 4,
                inner: Box::new(Request::Ping),
            }),
        };
        assert!(decode_request(&encode_request(&double)).is_err());
        // a frame of many repeated 17-byte Traced headers must be
        // rejected in O(1) stack. Before the peek-based check each
        // header cost one decode_request stack frame, so ~100k headers
        // (1.7 MB, well under MAX_FRAME) overflowed a 2 MiB thread
        // stack — aborting the process from one crafted frame
        let mut deep = Vec::with_capacity(100_000 * 17 + 1);
        for _ in 0..100_000 {
            deep.push(OP_TRACED);
            put_u64(&mut deep, 1);
            put_u64(&mut deep, 2);
        }
        deep.push(OP_PING);
        let err = decode_request(&deep).unwrap_err();
        assert!(err.to_string().contains("nested traced frame"));
        // a truncated traced frame errors cleanly at every cut
        let buf = encode_request(&Request::Traced {
            trace_id: 9,
            parent_span: 8,
            inner: Box::new(Request::Get { key: "k".into() }),
        });
        for cut in 0..buf.len() {
            assert!(decode_request(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trace_wrap_matches_traced_encoding() {
        let inner = Request::Query {
            reference: "main".into(),
            text: "SELECT * LIMIT 3".into(),
            options: QueryOptions::default(),
        };
        let wrapped = trace_wrap(7, 11, &encode_request(&inner));
        let full = encode_request(&Request::Traced {
            trace_id: 7,
            parent_span: 11,
            inner: Box::new(inner),
        });
        assert_eq!(wrapped, full);
    }

    #[test]
    fn metrics_snapshots_roundtrip() {
        let snap = MetricsSnapshot {
            counters: vec![("hub.cache.hits".into(), 12), ("hub.requests".into(), 40)],
            gauges: vec![("hub.connections".into(), -3)],
            histograms: vec![(
                "hub.execute_ns".into(),
                HistogramSnapshot {
                    count: 3,
                    sum: 3_000_000,
                    max: 2_000_000,
                    buckets: vec![(80, 2), (84, 1)],
                },
            )],
            rates: vec![
                (
                    "hub.bytes_out_rate".into(),
                    RateSnapshot {
                        counts: [9, 90, 540],
                    },
                ),
                (
                    "hub.queries_rate".into(),
                    RateSnapshot {
                        counts: [5, 40, 200],
                    },
                ),
            ],
            slow_queries: vec![SlowQueryEntry {
                trace_id: 7,
                root_span: 8,
                parent_span: 9,
                dataset: "mnist".into(),
                version: "abc".into(),
                text: "SELECT * FROM ds WHERE labels = 3".into(),
                total_ns: 4_200_000,
                spans: vec![SpanRecord {
                    name: "execute".into(),
                    span_id: 10,
                    parent_span: 8,
                    dur_ns: 4_000_000,
                }],
            }],
            events: vec![FlightEvent {
                at_unix_ms: 1_700_000_000_123,
                seq: 4,
                kind: "conn.cut".into(),
                trace_id: 7,
                detail: "127.0.0.1:5555".into(),
            }],
        };
        let wire = resp_metrics(&snap);
        let back = expect_metrics(&wire).unwrap();
        assert_eq!(back, snap);

        // empty registry still decodes
        let empty = expect_metrics(&resp_metrics(&MetricsSnapshot::default())).unwrap();
        assert!(empty.counters.is_empty() && empty.slow_queries.is_empty());
        assert!(empty.rates.is_empty() && empty.events.is_empty());

        // a pre-rates hub's frame ends right after the slow queries;
        // the missing sections decode as empty (mixed-version clusters)
        let legacy_len = resp_metrics(&MetricsSnapshot {
            rates: Vec::new(),
            events: Vec::new(),
            ..snap.clone()
        })
        .len()
            - 8; // minus the two empty section counts a new hub writes
        let legacy = expect_metrics(&wire[..legacy_len]).unwrap();
        assert_eq!(legacy.slow_queries, snap.slow_queries);
        assert!(legacy.rates.is_empty() && legacy.events.is_empty());

        // truncation errors cleanly at every other cut, lying counts
        // rejected
        for cut in 0..wire.len() {
            if cut == legacy_len {
                continue; // the legacy boundary above — valid by design
            }
            assert!(expect_metrics(&wire[..cut]).is_err(), "cut at {cut}");
        }
        let mut lying = vec![STATUS_OK];
        put_u32(&mut lying, u32::MAX);
        assert!(expect_metrics(&lying).is_err());
    }

    #[test]
    fn health_reports_roundtrip() {
        let report = HealthReport {
            uptime_ms: 123_456,
            in_flight: 7,
            queue_depth: 3,
            queue_cap: 256,
            datasets: vec!["laion".into(), "mnist".into()],
            proto_version: PROTO_VERSION,
            tracing: true,
            events: vec![
                FlightEvent {
                    at_unix_ms: 1_700_000_000_000,
                    seq: 0,
                    kind: "conn.accept".into(),
                    trace_id: 0,
                    detail: "127.0.0.1:4242".into(),
                },
                FlightEvent {
                    at_unix_ms: 1_700_000_000_050,
                    seq: 1,
                    kind: "node.dead".into(),
                    trace_id: 99,
                    detail: "127.0.0.1:9000".into(),
                },
            ],
        };
        let wire = resp_health(&report);
        assert_eq!(expect_health(&wire).unwrap(), report);

        // a bare hub (no datasets, no events) still roundtrips
        let bare = HealthReport {
            proto_version: PROTO_VERSION,
            ..Default::default()
        };
        assert_eq!(expect_health(&resp_health(&bare)).unwrap(), bare);

        // truncation errors cleanly at every cut
        for cut in 0..wire.len() {
            assert!(expect_health(&wire[..cut]).is_err(), "cut at {cut}");
        }
        // lying dataset count rejected before allocation
        let mut lying = vec![STATUS_OK];
        for _ in 0..4 {
            put_u64(&mut lying, 0);
        }
        put_u32(&mut lying, u32::MAX);
        assert!(expect_health(&lying).is_err());
        // a pre-health server's "unknown opcode" answer surfaces as a
        // protocol error, not a transport failure — probers key on this
        let err = expect_health(&resp_proto_err("unknown opcode 22")).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err:?}");
    }

    #[test]
    fn placement_roundtrips() {
        let replicas = vec!["127.0.0.1:4000".to_string(), "127.0.0.1:4001".to_string()];
        let (epoch, back) = expect_placement(&resp_placement(7, &replicas)).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(back, replicas);
        // empty placement (all replicas dead) still decodes
        let (_, none) = expect_placement(&resp_placement(0, &[])).unwrap();
        assert!(none.is_empty());
        // an unknown dataset decodes to the lossless NotFound the node sent
        let err = expect_placement(&resp_storage_err(&StorageError::NotFound("ds".into())));
        assert_eq!(err.unwrap_err(), StorageError::NotFound("ds".into()));
        // lying replica count is rejected
        let mut bad = vec![STATUS_OK];
        put_u64(&mut bad, 1);
        put_u32(&mut bad, u32::MAX);
        assert!(expect_placement(&bad).is_err());
    }

    #[test]
    fn hello_negotiation_is_lossless() {
        // matching version: server answers its own version byte
        assert_eq!(
            expect_hello(&hello_response(PROTO_VERSION)).unwrap(),
            PROTO_VERSION
        );
        // any mismatch: a decodable error naming both generations
        for bad in [0u8, PROTO_VERSION + 1, u8::MAX] {
            let err = expect_hello(&hello_response(bad)).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("version {bad}")) && msg.contains(&PROTO_VERSION.to_string()),
                "unexpected message {msg:?}"
            );
        }
    }

    #[test]
    fn busy_frames_decode_to_busy_errors() {
        let resp = resp_busy("queue full; retry");
        assert_eq!(
            expect_unit(&resp).unwrap_err(),
            StorageError::Busy("queue full; retry".into())
        );
        // and through the query decoder
        match expect_query(&resp).unwrap_err() {
            deeplake_tql::TqlError::Remote(msg) => assert!(msg.contains("busy"), "{msg:?}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn storage_errors_roundtrip_losslessly() {
        for e in [
            StorageError::NotFound("some/key".into()),
            StorageError::RangeOutOfBounds {
                start: 5,
                end: 10,
                len: 3,
            },
            StorageError::Io("disk on fire".into()),
            StorageError::ReadOnly,
            StorageError::Busy("32 in flight".into()),
        ] {
            let mut buf = Vec::new();
            put_storage_err(&mut buf, &e);
            let back = take_storage_err(&mut WireReader::new(&buf)).unwrap();
            assert_eq!(back, e);
            // and through a full response frame
            let resp = resp_storage_err(&e);
            assert_eq!(expect_unit(&resp).unwrap_err(), e);
        }
    }

    #[test]
    fn response_decoders_roundtrip() {
        assert!(expect_unit(&resp_unit()).is_ok());
        assert_eq!(
            expect_bytes(&resp_bytes(b"hello")).unwrap(),
            Bytes::from_static(b"hello")
        );
        assert!(expect_bool(&resp_bool(true)).unwrap());
        assert_eq!(expect_u64(&resp_u64(42)).unwrap(), 42);
        assert_eq!(expect_str(&resp_str("desc")).unwrap(), "desc");
        assert_eq!(
            expect_list(&resp_list(&["a".into(), "b".into()])).unwrap(),
            vec!["a", "b"]
        );
        let slots = vec![
            Ok(Bytes::from_static(b"x")),
            Err(StorageError::NotFound("k".into())),
        ];
        let back = expect_results(&resp_results(&slots), 2).unwrap();
        assert_eq!(back[0].as_ref().unwrap(), &Bytes::from_static(b"x"));
        assert_eq!(
            back[1].clone().unwrap_err(),
            StorageError::NotFound("k".into())
        );
        let (back, fetches) = expect_execute(&resp_execute(7, &slots), 2).unwrap();
        assert_eq!(fetches, 7);
        assert_eq!(back.len(), 2);
        // slot-count mismatch is a protocol error
        assert!(expect_results(&resp_results(&slots), 3).is_err());
    }

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[7u8; 100_000]).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap(),
            vec![7u8; 100_000]
        );
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    /// The parent's `write_frame`: the reference the one-write form must
    /// reproduce byte for byte.
    fn two_write_alls(w: &mut impl std::io::Write, payload: &[u8]) {
        w.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        w.write_all(payload).unwrap();
    }

    /// Accepts one byte per call and fails every other call with
    /// `Interrupted`; counts its calls.
    #[derive(Default)]
    struct Grudging {
        wire: Vec<u8>,
        calls: usize,
    }

    impl std::io::Write for Grudging {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.wire.extend_from_slice(&buf[..1]);
            Ok(1)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Takes whatever it is offered; counts calls per entry point.
    #[derive(Default)]
    struct Counting {
        wire: Vec<u8>,
        plain: usize,
        vectored: usize,
    }

    impl std::io::Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.plain += 1;
            self.wire.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored += 1;
            bufs.iter().for_each(|b| self.wire.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_vectored_write_and_survives_a_grudging_writer() {
        let payloads: [&[u8]; 3] = [b"", b"q", &[7u8; 300]];
        for payload in payloads {
            let tagged = tag_request(0x0102_0304_0506_0708, payload);
            let (mut want, mut want_tagged) = (Vec::new(), Vec::new());
            two_write_alls(&mut want, payload);
            two_write_alls(&mut want_tagged, &tagged);

            let mut slow = Grudging::default();
            write_frame(&mut slow, payload).unwrap();
            assert_eq!(slow.wire, want);
            assert_eq!(slow.calls, 2 * want.len() - 1, "a byte every other call");
            let mut slow = Grudging::default();
            write_tagged_frame(&mut slow, 0x0102_0304_0506_0708, payload).unwrap();
            assert_eq!(slow.wire, want_tagged);

            let mut fast = Counting::default();
            write_frame(&mut fast, payload).unwrap();
            assert_eq!((fast.vectored, fast.plain), (1, 0));
            assert_eq!(fast.wire, want);
            let mut fast = Counting::default();
            write_tagged_frame(&mut fast, 0x0102_0304_0506_0708, payload).unwrap();
            assert_eq!((fast.vectored, fast.plain), (1, 0));
            assert_eq!(fast.wire, want_tagged);
        }
        // golden bytes: the wire format, not merely self-consistency
        let mut wire = Vec::new();
        write_tagged_frame(&mut wire, 0x0102_0304_0506_0708, &[OP_PING]).unwrap();
        assert_eq!(wire, [9, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, OP_PING]);
        // a writer that stops accepting is an error, not a spin
        let mut full = std::io::Cursor::new([0u8; 6]);
        let err = write_frame(&mut full, b"four").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    /// A body that arrives a few bytes per `read` is assembled in place,
    /// and the buffer never runs more than `READ_CHUNK` ahead of it.
    #[test]
    fn a_trickled_body_is_read_in_place() {
        struct Trickle(std::io::Cursor<Vec<u8>>, usize);
        impl std::io::Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.1 += 1;
                if self.1.is_multiple_of(3) {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let n = buf.len().min(7);
                self.0.read(&mut buf[..n])
            }
        }
        let body: Vec<u8> = (0..3 * READ_CHUNK / 2).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let mut r = Trickle(std::io::Cursor::new(wire), 0);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), body);
        // a length that lies by 1 GiB costs one chunk, then the EOF error
        let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(b"only this");
        let err = read_frame(&mut Trickle(std::io::Cursor::new(wire), 0)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("(9/"), "{err}");
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_error() {
        // torn header
        let err = read_frame(&mut std::io::Cursor::new(vec![1, 0])).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // body shorter than the (in-bounds) claimed length: errors after
        // consuming what arrived, no up-front allocation of the claim
        let mut wire = Vec::new();
        wire.extend_from_slice(&(10_000_000u32).to_le_bytes());
        wire.extend_from_slice(b"only this");
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn tagged_frames_roundtrip() {
        let body = encode_request(&Request::Get { key: "k".into() });
        let tagged = tag_request(u64::MAX - 3, &body);
        let (id, back) = split_tagged(&tagged).unwrap();
        assert_eq!(id, u64::MAX - 3);
        assert_eq!(back, &body[..]);
        // an empty payload still carries its id
        let bare = tag_request(0, &[]);
        let (id, empty) = split_tagged(&bare).unwrap();
        assert_eq!((id, empty.len()), (0, 0));
        // too short to hold an id: protocol violation
        assert!(split_tagged(&[1, 2, 3]).is_none());
    }

    #[test]
    fn corrupt_requests_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[200]).is_err());
        // trailing garbage after a valid request
        let mut buf = encode_request(&Request::Ping);
        buf.push(0);
        assert!(decode_request(&buf).is_err());
        // lying request count
        let mut buf = vec![OP_GET_MANY];
        put_u32(&mut buf, u32::MAX);
        assert!(decode_request(&buf).is_err());
    }
}
