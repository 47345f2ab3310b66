//! [`RemoteProvider`] — a [`StorageProvider`] whose backend is a dataset
//! server across the network.
//!
//! Because it implements the provider trait, everything above the
//! storage layer — `Dataset`, TQL, the vector index, the dataloader —
//! works over the network *unchanged*. The batched trait methods map
//! 1:1 onto batched protocol frames, so a loader task's whole
//! [`ReadPlan`] stays one round trip end to end; [`RemoteProvider::query`]
//! skips chunk traffic entirely by shipping the TQL text to the server.
//!
//! ## Pipelining, not just pooling
//!
//! Earlier revisions gave each concurrent caller its own socket (pure
//! pooling), dialing without bound under load. This client *pipelines*
//! instead: each pooled connection is switched to correlation-id
//! framing during its handshake (`Request::Pipeline`), a caller tags
//! its request with a fresh id, and the caller that finds nobody reading
//! the socket reads it for everyone: one response at a time — in
//! whatever order the server finishes them — each handed to the caller
//! whose id it carries, while the others park (leader/followers; the
//! socket-free [`Demux`] decides who reads next). No thread is started
//! per socket, and a caller alone on its socket reads its own response.
//! Many in-flight requests share one socket, so concurrency no longer
//! implies file descriptors: the pool is a hard cap of
//! [`RemoteOptions::pool_size`] sockets, each carrying up to 16 requests
//! (`MAX_INFLIGHT_PER_SOCKET`, the hub's default per-connection cap),
//! and callers beyond `pool_size × 16` queue for a slot instead of
//! dialing. A socket that sees any transport error fails its in-flight
//! requests losslessly and leaves the pool.
//!
//! Nothing reads a socket with no request in flight, so a socket the
//! server closed while idle is found by the next request on it: that
//! request fails with [`StorageError::Io`] — the node did not answer,
//! which cluster routing fails over — and the socket leaves the pool.
//!
//! For benchmarks and tests, [`RemoteOptions::latency`] injects a
//! deterministic [`NetworkProfile`] charge per round trip (first-byte
//! latency + wire bytes ÷ bandwidth) — the same cost model
//! [`deeplake_storage::SimulatedCloudProvider`] uses — so round-trip
//! counts translate into wall-clock differences without real WAN links.

use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use deeplake_obs::{
    current_trace, next_id, Histogram, MetricsRegistry, MetricsSnapshot, SpanTimer, TraceContext,
};
use deeplake_storage::{
    NetworkProfile, ReadPlan, ReadResult, StorageError, StorageProvider, StorageStats,
};
use deeplake_tql::{QueryOptions, QueryResult};
use parking_lot::Mutex;

use crate::demux::{Demux, Next, Response, READ_TIMEOUT};
use crate::proto::{self, Request};

/// In-flight requests one pipelined socket carries — the hub's default
/// `max_inflight_per_conn`. A hub configured with a lower cap answers
/// the excess with `Busy`, which this client retries.
const MAX_INFLIGHT_PER_SOCKET: usize = 16;

/// Client configuration.
#[derive(Debug, Clone, Copy)]
pub struct RemoteOptions {
    /// Hard cap on sockets to the server. Connections are pipelined, so
    /// this is *not* a concurrency limit — each socket carries up to 16
    /// requests; callers beyond `pool_size × 16` wait for a slot
    /// instead of dialing.
    pub pool_size: usize,
    /// Deterministic per-round-trip network cost to inject (`None` = the
    /// real transport's latency only). The charge is
    /// `first_byte_latency + (request + response bytes) / bandwidth`,
    /// paid by the calling thread.
    pub latency: Option<NetworkProfile>,
    /// How many times a request answered with a `Busy` frame (hub
    /// overload — the request was NOT executed) is retried before the
    /// [`StorageError::Busy`] surfaces to the caller. Retries back off
    /// linearly by [`RemoteOptions::busy_backoff`] per attempt.
    pub busy_retries: usize,
    /// Base back-off between `Busy` retries (attempt `n` sleeps
    /// `n × busy_backoff`).
    pub busy_backoff: Duration,
    /// Wrap every request in the `Traced` envelope (default; any server
    /// that accepts this client's `Hello` understands it). `false`
    /// sends every request bare — the knob overhead benchmarks use to
    /// A/B the envelope's cost, and an escape hatch for operators who
    /// want zero tracing bytes on the wire.
    pub tracing: bool,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            pool_size: 8,
            latency: None,
            busy_retries: 4,
            busy_backoff: Duration::from_millis(20),
            tracing: true,
        }
    }
}

// ---------------------------------------------------------------------
// pipelined connection
// ---------------------------------------------------------------------

/// One pipelined socket: callers interleave tagged frames under the
/// write lock, and whichever of them holds the [`Demux`]'s reader role
/// reads the next response for everyone.
struct Connection {
    /// Written through `&TcpStream` under `write`, and read through
    /// `&TcpStream` by the one caller holding the reader role.
    stream: TcpStream,
    /// A full frame is written under this lock, so frames from
    /// concurrent callers never interleave mid-frame.
    write: StdMutex<()>,
    /// Never held across a read of `stream`.
    slots: StdMutex<Demux>,
    /// Parked callers wait here for the reader's report.
    cv: Condvar,
    /// Set by the first exchange that fails here, so pool checkout skips
    /// the socket without taking `slots`.
    dead: AtomicBool,
    /// Requests currently in flight (pool checkout balances on this).
    inflight: AtomicUsize,
    next_id: AtomicU64,
}

/// Read one response frame: `Ok(None)` when the read timed out before
/// the frame's first byte — between frames, recoverable, the reader's
/// tick for [`Demux::hung`]. Once a byte is in, a timeout is fatal: the
/// stream cannot resynchronize.
fn read_response(mut stream: &TcpStream) -> Result<Option<Vec<u8>>, String> {
    use std::io::{ErrorKind, Read};
    let mut first = [0u8; 1];
    loop {
        match stream.read(&mut first) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => break,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(None)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("response read failed: {e}")),
        }
    }
    proto::read_frame_after(&mut stream, first[0])
        .map(Some)
        .map_err(|e| format!("response read failed: {e}"))
}

// ---------------------------------------------------------------------
// the provider
// ---------------------------------------------------------------------

/// A storage provider backed by a remote dataset server.
pub struct RemoteProvider {
    addr: SocketAddr,
    pool: StdMutex<PoolState>,
    /// Parks callers waiting for an in-flight slot when every socket is
    /// at `MAX_INFLIGHT_PER_SOCKET` and the pool is at
    /// [`RemoteOptions::pool_size`].
    pool_cv: Condvar,
    opts: RemoteOptions,
    stats: StorageStats,
    /// Client-side instruments (`client.*`): wire stats plus the
    /// round-trip latency histogram.
    metrics: MetricsRegistry,
    /// `client.round_trip_ns` — client-observed latency of every
    /// exchange, `Busy` retries counted per attempt.
    round_trip_ns: Histogram,
    /// Trace/span ids of the most recent exchange this client sent —
    /// what a hub-side span tree's `parent_span` should equal.
    last_trace_id: AtomicU64,
    last_span_id: AtomicU64,
    /// Dataset this client is attached to in a multi-dataset hub.
    /// `None` targets the hub's default mount (the single-dataset
    /// server behaviour). Every socket the pool dials re-plays
    /// the attach, so all connections agree on the namespace.
    attached: Mutex<Option<String>>,
}

/// The socket pool plus its namespace generation. [`RemoteProvider::attach`]
/// bumps the generation; a dial that started under an older generation
/// (its attach re-play possibly bound to the previous namespace) is
/// discarded instead of pooled, so the pool can never serve a
/// stale-namespace socket — even when attach races a dial on another
/// thread.
struct PoolState {
    generation: u64,
    conns: Vec<Arc<Connection>>,
    /// Dials in progress, counted so racing callers cannot
    /// collectively exceed `pool_size`.
    dialing: usize,
}

impl RemoteProvider {
    /// Connect with default options, verifying the server answers a ping.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<RemoteProvider> {
        Self::connect_with(addr, RemoteOptions::default())
    }

    /// Connect with explicit options, verifying the server answers a ping.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        opts: RemoteOptions,
    ) -> std::io::Result<RemoteProvider> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address resolved")
        })?;
        let metrics = MetricsRegistry::new();
        let stats = StorageStats::new();
        stats.register_into(&metrics, "client.wire");
        let round_trip_ns = metrics.histogram("client.round_trip_ns");
        let provider = RemoteProvider {
            addr,
            pool: StdMutex::new(PoolState {
                generation: 0,
                conns: Vec::new(),
                dialing: 0,
            }),
            pool_cv: Condvar::new(),
            opts,
            stats,
            metrics,
            round_trip_ns,
            last_trace_id: AtomicU64::new(0),
            last_span_id: AtomicU64::new(0),
            attached: Mutex::new(None),
        };
        // the dial handshake (Hello + the switch to pipelined framing)
        // doubles as the liveness probe: a server speaking a different
        // protocol generation is rejected here with its lossless error,
        // never by a garbled decode later
        let conn = provider.dial_conn(None)?;
        provider.pool.lock().unwrap().conns.push(Arc::new(conn));
        Ok(provider)
    }

    /// Client-observed wire traffic: one [`StorageStats::round_trips`]
    /// per frame exchange, request bytes in
    /// [`StorageStats::bytes_written`], response bytes in
    /// [`StorageStats::bytes_read`] (frame headers and correlation ids
    /// included). The numbers the round-trip-elimination claims are
    /// asserted against.
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// Snapshot of this client's own instruments: `client.wire.*`
    /// counters and the `client.round_trip_ns` latency histogram.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Fetch the *server's* live instrument snapshot over the wire —
    /// counters, gauges, per-stage latency histograms, windowed rates,
    /// the slow-query ring and the flight recorder — via the `Metrics`
    /// opcode.
    pub fn hub_metrics(&self) -> Result<MetricsSnapshot, StorageError> {
        self.call(&Request::Metrics, proto::expect_metrics)?
    }

    /// Probe the server's health: uptime, load, mounted datasets,
    /// capabilities and the recent flight-event tail, via the `Health`
    /// opcode. The hub answers inline even when its worker queue is
    /// full, so this distinguishes *overloaded* from *dead*.
    pub fn hub_health(&self) -> Result<proto::HealthReport, StorageError> {
        self.call(&Request::Health, proto::expect_health)?
    }

    /// Whether requests travel in the `Traced` envelope
    /// ([`RemoteOptions::tracing`]). When `false` no trace context is
    /// propagated.
    pub fn tracing_enabled(&self) -> bool {
        self.opts.tracing
    }

    /// `(trace_id, span_id)` of the most recent **traced** exchange this
    /// client sent (all zeros when [`RemoteProvider::tracing_enabled`]
    /// is false). A hub's span tree for that request reports this span
    /// id as its `parent_span` — the join key tests use to check
    /// end-to-end propagation.
    pub fn last_trace(&self) -> (u64, u64) {
        (
            self.last_trace_id.load(Ordering::Relaxed),
            self.last_span_id.load(Ordering::Relaxed),
        )
    }

    /// Offload a TQL query to the server's `main` branch: the server
    /// runs the pruning/top-k executor against its mounted storage and
    /// streams back only result rows — one round trip for the whole
    /// query, instead of one per chunk batch.
    pub fn query(&self, text: &str, options: &QueryOptions) -> deeplake_tql::Result<QueryResult> {
        self.query_at("main", text, options)
    }

    /// Offload a TQL query against an explicit branch or commit.
    pub fn query_at(
        &self,
        reference: &str,
        text: &str,
        options: &QueryOptions,
    ) -> deeplake_tql::Result<QueryResult> {
        let request = Request::Query {
            reference: reference.to_string(),
            text: text.to_string(),
            options: *options,
        };
        self.call(&request, proto::expect_query)
            .map_err(|e| deeplake_tql::TqlError::Remote(e.to_string()))?
    }

    /// The server's description of its mounted provider.
    pub fn server_describe(&self) -> Result<String, StorageError> {
        self.call(&Request::Describe, proto::expect_str)?
    }

    /// Attach this client to dataset `dataset` in the server's registry.
    /// After a successful attach every provider method, offloaded query
    /// and loader built on this client resolves against that dataset's
    /// namespace — the layers above notice nothing. Pooled sockets bound
    /// to the previous namespace are retired (requests already in flight
    /// on them finish, then the sockets close); fresh dials re-play the
    /// attach during their handshake.
    pub fn attach(&self, dataset: &str) -> Result<(), StorageError> {
        let dial_err =
            |e: std::io::Error| StorageError::Io(format!("remote dial {}: {e}", self.addr));
        let mut stream = self.dial_handshake().map_err(dial_err)?;
        // the attach error stays typed (NotFound for an unknown name)
        Self::attach_on(&mut stream, dataset)?;
        let conn = self.finish_conn(stream).map_err(dial_err)?;
        *self.attached.lock() = Some(dataset.to_string());
        let stale = {
            let mut pool = self.pool.lock().unwrap();
            // old sockets answer for the old namespace: retire them, and
            // bump the generation so a dial that raced this attach is
            // discarded instead of pooled
            pool.generation += 1;
            let stale = std::mem::take(&mut pool.conns);
            pool.conns.push(Arc::new(conn));
            stale
        };
        self.pool_cv.notify_all();
        // exchanges still in flight on retired sockets hold their own
        // Arcs and finish normally; each socket closes with its last one
        drop(stale);
        Ok(())
    }

    /// The dataset name this client is attached to (`None` = the
    /// server's default mount).
    pub fn attached(&self) -> Option<String> {
        self.attached.lock().clone()
    }

    /// Ask the server which cluster nodes own replicas of `dataset`.
    /// Returns `(map epoch, replica addresses in ring order)` — the
    /// client-side routing primitive of a hub cluster. A hub that is not
    /// part of a cluster answers a lossless protocol error; an unknown
    /// dataset a lossless [`StorageError::NotFound`].
    pub fn where_is(&self, dataset: &str) -> Result<(u64, Vec<String>), StorageError> {
        let dataset = dataset.to_string();
        self.call(&Request::WhereIs { dataset }, proto::expect_placement)?
    }

    /// Sorted names of every dataset the server has mounted.
    pub fn list_datasets(&self) -> Result<Vec<String>, StorageError> {
        self.call(&Request::ListDatasets, proto::expect_list)?
    }

    /// Register a dataset namespace on the server (a `PrefixProvider`
    /// over the hub's backing store). Storage under the name becomes
    /// addressable via [`RemoteProvider::attach`].
    pub fn remote_mount(&self, dataset: &str) -> Result<(), StorageError> {
        let dataset = dataset.to_string();
        self.call(&Request::Mount { dataset }, proto::expect_unit)?
    }

    /// Remove a dataset from the server's registry. Storage is left
    /// untouched; attached clients start seeing errors.
    pub fn remote_unmount(&self, dataset: &str) -> Result<(), StorageError> {
        let dataset = dataset.to_string();
        self.call(&Request::Unmount { dataset }, proto::expect_unit)?
    }

    /// One attach exchange on a socket still in untagged (handshake)
    /// framing. The server's answer stays typed (`NotFound` for an
    /// unknown name).
    fn attach_on(stream: &mut TcpStream, dataset: &str) -> Result<(), StorageError> {
        let request = Request::Attach {
            dataset: dataset.to_string(),
        };
        let resp = handshake(stream, &request)
            .map_err(|e| StorageError::Io(format!("remote attach: {e}")))?;
        proto::expect_unit(&resp)
    }

    /// Dial one pipelined connection: negotiate the protocol version
    /// (`Hello`), re-play the attach for `namespace` and switch the
    /// stream to correlation-id framing (`Pipeline`). Handshake frames
    /// are connection setup — like the TCP handshake itself they are not
    /// recorded in [`RemoteProvider::stats`] and pay no injected latency.
    fn dial_conn(&self, namespace: Option<&str>) -> std::io::Result<Connection> {
        let mut stream = self.dial_handshake()?;
        if let Some(dataset) = namespace {
            Self::attach_on(&mut stream, dataset).map_err(refused)?;
        }
        self.finish_conn(stream)
    }

    /// Open a socket and negotiate the protocol version (the `Hello`
    /// exchange). The stream is still in untagged framing.
    fn dial_handshake(&self) -> std::io::Result<TcpStream> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        // a server that stops draining must not hang the caller forever
        stream.set_write_timeout(Some(READ_TIMEOUT))?;
        let hello = Request::Hello {
            version: proto::PROTO_VERSION,
        };
        proto::expect_hello(&handshake(&mut stream, &hello)?).map_err(refused)?;
        Ok(stream)
    }

    /// Switch a negotiated (and, if needed, attached) stream to
    /// correlation-id framing.
    fn finish_conn(&self, mut stream: TcpStream) -> std::io::Result<Connection> {
        // the acknowledgement is the last untagged frame this socket
        // carries
        proto::expect_unit(&handshake(&mut stream, &Request::Pipeline)?).map_err(refused)?;
        Ok(Connection {
            stream,
            write: StdMutex::new(()),
            slots: StdMutex::default(),
            cv: Condvar::new(),
            dead: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
        })
    }

    /// Check out a connection with a reserved in-flight slot: the live
    /// socket with the fewest in-flight requests below the cap, else a
    /// fresh dial while the pool is below `pool_size`, else wait for a
    /// slot to free.
    fn checkout(&self) -> Result<Arc<Connection>, StorageError> {
        let pool_size = self.opts.pool_size.max(1);
        let mut pool = self.pool.lock().unwrap();
        loop {
            pool.conns.retain(|c| !c.dead.load(Ordering::Acquire));
            let mut best: Option<(usize, usize)> = None;
            for (i, conn) in pool.conns.iter().enumerate() {
                let n = conn.inflight.load(Ordering::Relaxed);
                if n < MAX_INFLIGHT_PER_SOCKET && best.is_none_or(|(_, bn)| n < bn) {
                    best = Some((i, n));
                }
            }
            if let Some((i, _)) = best {
                let conn = pool.conns[i].clone();
                // reserved under the pool lock: increments race only
                // with decrements, so the cap cannot be oversubscribed
                conn.inflight.fetch_add(1, Ordering::AcqRel);
                return Ok(conn);
            }
            if pool.conns.len() + pool.dialing < pool_size {
                pool.dialing += 1;
                let generation = pool.generation;
                drop(pool);
                let namespace = self.attached.lock().clone();
                let dialed = self.dial_conn(namespace.as_deref());
                pool = self.pool.lock().unwrap();
                pool.dialing -= 1;
                match dialed {
                    Ok(conn) => {
                        if pool.generation == generation {
                            let conn = Arc::new(conn);
                            conn.inflight.fetch_add(1, Ordering::AcqRel);
                            pool.conns.push(conn.clone());
                            drop(pool);
                            self.pool_cv.notify_all();
                            return Ok(conn);
                        }
                        // an attach swapped namespaces while we dialed:
                        // this socket may answer for the old one — drop
                        // it and start over
                        continue;
                    }
                    Err(e) => {
                        drop(pool);
                        // a dial slot freed up: wake queued callers
                        self.pool_cv.notify_all();
                        return Err(StorageError::Io(format!("remote dial {}: {e}", self.addr)));
                    }
                }
            }
            // every socket is at its in-flight cap and the pool is full:
            // queue until a slot frees (release() notifies)
            pool = self.pool_cv.wait(pool).unwrap();
        }
    }

    /// Return a checked-out in-flight slot and wake queued callers.
    fn release(&self, conn: &Connection) {
        conn.inflight.fetch_sub(1, Ordering::AcqRel);
        self.pool_cv.notify_all();
    }

    /// The one exchange every request of this client goes through:
    /// encode `request`, round-trip it, read the answer through `decode`.
    ///
    /// `Err` if and only if the node did not answer: the dial failed,
    /// the transport failed ([`StorageError::Io`]), or the node was
    /// still refusing with `Busy` after [`RemoteOptions::busy_retries`]
    /// ([`StorageError::Busy`]). Another replica may serve the request.
    /// `Ok` is whatever `decode` made of an answer — an answered error
    /// (`NotFound`, a query error, a protocol refusal) included, which
    /// every replica would repeat. Routing decisions read this type,
    /// never an error's text.
    pub fn call<T>(
        &self,
        request: &Request,
        decode: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, StorageError> {
        Ok(decode(&self.round_trip(&proto::encode_request(request))?))
    }

    /// One exchange with automatic, bounded retry of `Busy` rejections.
    /// A `Busy` frame means the hub did **not** execute the request (the
    /// response slot was answered from the reader stage), so resending
    /// is always safe — the retry is a fresh exchange under a fresh
    /// correlation id; attempt `n` backs off `n × busy_backoff` first.
    /// When retries are exhausted the `Busy` is returned as
    /// [`StorageError::Busy`]: the node did not answer the request.
    fn round_trip(&self, payload: &[u8]) -> Result<Response, StorageError> {
        // one trace per logical request; each attempt (Busy retries
        // included) sends its own span id, so the server-side span tree
        // names the attempt that actually executed. With tracing off the
        // payload goes out verbatim. An ambient context installed by
        // `deeplake_obs::with_current` (a loader worker's fetch span)
        // is adopted instead of rooting a fresh trace, so the server's
        // span tree parents this exchange under the caller's span.
        let traced = self.opts.tracing;
        let trace = current_trace().unwrap_or_else(TraceContext::root);
        if traced {
            self.last_trace_id.store(trace.trace_id, Ordering::Relaxed);
        }
        let mut attempt = 0;
        loop {
            let wire: std::borrow::Cow<'_, [u8]> = if traced {
                let span_id = if attempt == 0 {
                    trace.span_id
                } else {
                    next_id()
                };
                self.last_span_id.store(span_id, Ordering::Relaxed);
                proto::trace_wrap(trace.trace_id, span_id, payload).into()
            } else {
                payload.into()
            };
            let timer = SpanTimer::start();
            let resp = self.round_trip_once(&wire)?;
            timer.record(&self.round_trip_ns);
            if resp.first() != Some(&proto::STATUS_BUSY) {
                return Ok(resp);
            }
            if attempt == self.opts.busy_retries {
                return Err(proto::expect_unit(&resp).expect_err("a Busy frame is an error"));
            }
            attempt += 1;
            let backoff = self.opts.busy_backoff.saturating_mul(attempt as u32);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
    }

    /// One request/response exchange over a pipelined connection:
    /// reserve an in-flight slot, [`exchange`] the frame, retire the
    /// socket if that failed, account the traffic, pay any injected
    /// latency — after the reader role is given up, so no other caller
    /// waits out this one's sleep.
    fn round_trip_once(&self, payload: &[u8]) -> Result<Response, StorageError> {
        let conn = self.checkout()?;
        let outcome = exchange(&conn, payload);
        if outcome.is_err() {
            // every error an exchange returns is its connection's
            conn.dead.store(true, Ordering::Release);
        }
        self.release(&conn);
        match outcome {
            Ok(resp) => {
                // +4 frame header, +8 correlation id, both directions
                let sent = payload.len() as u64 + 12;
                let received = resp.len() as u64 + 12;
                self.stats.record_wire(sent, received);
                if let Some(profile) = &self.opts.latency {
                    let cost = profile.get_cost(sent + received);
                    if !cost.is_zero() {
                        std::thread::sleep(cost);
                    }
                }
                Ok(resp)
            }
            Err(e) => Err(StorageError::Io(format!(
                "remote transport {}: {e}",
                self.addr
            ))),
        }
    }
}

/// A handshake the server answered with an error: the dial is refused
/// with its lossless message.
fn refused(e: StorageError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::ConnectionRefused, e.to_string())
}

/// One request/response exchange on a socket still in untagged
/// (handshake) framing; the response is the caller's to decode.
fn handshake(stream: &mut TcpStream, request: &Request) -> std::io::Result<Vec<u8>> {
    proto::write_frame(stream, &proto::encode_request(request))?;
    proto::read_frame(stream)?.ok_or_else(|| {
        let closed = format!("server closed during the {request:?} handshake");
        std::io::Error::new(std::io::ErrorKind::ConnectionRefused, closed)
    })
}

/// The pipelined exchange on an already checked-out connection: register
/// a waiter under a fresh correlation id, write the tagged frame, then
/// follow [`Demux::next`] — take the answer, wait for the reader, or be
/// the reader for one frame — until this caller's answer is in.
fn exchange(conn: &Connection, payload: &[u8]) -> std::io::Result<Response> {
    let id = conn.next_id.fetch_add(1, Ordering::Relaxed);
    let registered = conn.slots.lock().unwrap().register(id, Instant::now());
    registered.map_err(std::io::Error::other)?;
    let written = {
        let _w = conn.write.lock().unwrap();
        proto::write_tagged_frame(&mut &conn.stream, id, payload)
    };
    if let Err(e) = written {
        // a partial frame may be on the wire: the stream cannot carry
        // another request, so fail the whole connection losslessly; the
        // shutdown ends a reader's blocking read
        let mut slots = conn.slots.lock().unwrap();
        slots.fail(format!("request write failed: {e}"));
        slots.abandon(id);
        drop(slots);
        let _ = conn.stream.shutdown(Shutdown::Both);
        conn.cv.notify_all();
        return Err(e);
    }
    let mut slots = conn.slots.lock().unwrap();
    loop {
        match slots.next(id) {
            Next::Done(outcome) => return outcome.map_err(std::io::Error::other),
            Next::Wait => slots = conn.cv.wait(slots).unwrap(),
            Next::Read => {
                drop(slots);
                let read = read_response(&conn.stream);
                if read.is_err() {
                    // the connection is over (the server's EOF, or a
                    // broken socket): say so now, not when the last
                    // handle drops, so a server closing in stages is not
                    // left waiting for our EOF
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
                slots = conn.slots.lock().unwrap();
                slots.read_done(read, Instant::now());
                // the role is free: a parked caller may have to take it
                conn.cv.notify_all();
            }
        }
    }
}

impl StorageProvider for RemoteProvider {
    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        let key = key.to_string();
        self.call(&Request::Get { key }, proto::expect_bytes)?
    }

    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes, StorageError> {
        let key = key.to_string();
        self.call(&Request::GetRange { key, start, end }, proto::expect_bytes)?
    }

    fn put(&self, key: &str, value: Bytes) -> Result<(), StorageError> {
        let key = key.to_string();
        self.call(&Request::Put { key, value }, proto::expect_unit)?
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        let key = key.to_string();
        self.call(&Request::Delete { key }, proto::expect_unit)?
    }

    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        let key = key.to_string();
        self.call(&Request::Exists { key }, proto::expect_bool)?
    }

    fn len_of(&self, key: &str) -> Result<u64, StorageError> {
        let key = key.to_string();
        self.call(&Request::LenOf { key }, proto::expect_u64)?
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        let prefix = prefix.to_string();
        self.call(&Request::List { prefix }, proto::expect_list)?
    }

    fn describe(&self) -> String {
        format!("remote({})", self.addr)
    }

    /// Ship the whole [`ReadPlan`] to the server in one frame; the
    /// *mounted* provider coalesces and parallelizes it there, next to
    /// the data. The wire cost is one round trip regardless of how many
    /// chunks the plan touches.
    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        let request = Request::Execute {
            gap_tolerance: plan.gap_tolerance(),
            requests: plan.requests().to_vec(),
        };
        match self.call(&request, |resp| proto::expect_execute(resp, plan.len())) {
            Ok(Ok((results, fetches))) => ReadResult { results, fetches },
            Ok(Err(e)) | Err(e) => ReadResult {
                results: plan.requests().iter().map(|_| Err(e.clone())).collect(),
                fetches: 0,
            },
        }
    }

    /// One `DeletePrefix` frame; the server lists and deletes locally.
    fn delete_prefix(&self, prefix: &str) -> Result<(), StorageError> {
        let prefix = prefix.to_string();
        self.call(&Request::DeletePrefix { prefix }, proto::expect_unit)?
    }
}
