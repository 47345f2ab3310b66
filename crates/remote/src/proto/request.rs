//! Requests: the [`Request`] enum, its opcode encoding, and the lossless
//! [`StorageError`] codec both directions share.

use super::*;

// request opcodes
pub(super) const OP_PING: u8 = 0;
const OP_GET: u8 = 1;
const OP_GET_RANGE: u8 = 2;
const OP_PUT: u8 = 3;
const OP_DELETE: u8 = 4;
const OP_EXISTS: u8 = 5;
const OP_LEN_OF: u8 = 6;
const OP_LIST: u8 = 7;
const OP_DELETE_PREFIX: u8 = 8;
// 9 was `GetMany` (generations 1-3): reserved, decodes as an unknown opcode
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
pub(super) const OP_TRACED: u8 = 20;
const OP_METRICS: u8 = 21;
const OP_HEALTH: u8 = 22;

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
    /// so a prober can tell *overloaded* from *dead*.
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

/// A `Query` request decoded where it lies: its strings borrow the
/// frame, so a server that answers it from a cache copies nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRef<'a> {
    /// `(trace id, parent span)` when it came in a `Traced` envelope.
    pub trace: Option<(u64, u64)>,
    /// Branch name or commit id.
    pub reference: &'a str,
    /// TQL text, as the client sent it.
    pub text: &'a str,
    /// Execution options.
    pub options: QueryOptions,
}

/// `payload` as a well-formed `Query`, bare or in one `Traced` envelope,
/// borrowing its strings; `None` for any other payload, which
/// [`decode_request`] then decodes or refuses (a nested envelope and a
/// malformed query included).
pub fn borrow_query(payload: &[u8]) -> Option<QueryRef<'_>> {
    let mut r = WireReader::new(payload);
    let mut op = r.u8().ok()?;
    let mut trace = None;
    if op == OP_TRACED {
        trace = Some((r.u64().ok()?, r.u64().ok()?));
        op = r.u8().ok()?;
    }
    if op != OP_QUERY {
        return None;
    }
    let (reference, text, options) = take_query(&mut r).ok()?;
    r.finish().ok()?;
    Some(QueryRef {
        trace,
        reference,
        text,
        options,
    })
}

/// A `Query`'s body, `[reference][text][options]`, borrowed.
fn take_query<'a>(r: &mut WireReader<'a>) -> WireResult<(&'a str, &'a str, QueryOptions)> {
    Ok((r.str_ref()?, r.str_ref()?, decode_options(r)?))
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
        OP_EXECUTE => Request::Execute {
            gap_tolerance: r.u64()?,
            requests: take_read_requests(&mut r)?,
        },
        OP_QUERY => {
            let (reference, text, options) = take_query(&mut r)?;
            Request::Query {
                reference: reference.into(),
                text: text.into(),
                options,
            }
        }
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
