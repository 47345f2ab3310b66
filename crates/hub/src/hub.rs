//! The hub runtime: one listener, an event-driven reader tier, a
//! bounded worker pool.
//!
//! ## Event-driven readers (vs PR 5's thread-per-connection)
//!
//! Connections are multiplexed across a small, fixed set of *event
//! loops* ([`HubOptions::reader_threads`], default 2) built on the
//! `polling` readiness API (epoll on Linux). Each loop owns its
//! connections outright: it accumulates bytes into per-connection
//! buffers, slices complete frames out and decodes each from the buffer
//! it arrived in, then takes one of three branches:
//!
//! 1. a cheap control op (`Hello`, `Attach`, registry management) is
//!    answered inline;
//! 2. a `Query` whose exact text the result cache already knows is
//!    answered inline too (next section);
//! 3. every other data op is pushed onto one bounded queue that
//!    `workers` pool threads drain.
//!
//! Ten thousand idle connections therefore cost ten thousand
//! *registrations* (a few hundred bytes each) instead of ten thousand
//! parked OS threads, and storage/query concurrency never exceeds the
//! pool size.
//!
//! ## A cache hit never leaves the loop
//!
//! The first arrival of a query text goes to the pool: a worker parses
//! and canonicalizes it, looks the canonical key up (executing on a
//! miss), and records `raw text → canonical key` in the cache. From the
//! second arrival on, the loop answers those bytes itself: the mount's
//! memoized head for the reference, one probe of the raw text
//! ([`ResultCache::lookup_raw`]), and the stored frame — shared, not
//! copied — is deposited on the connection's write queue. No TQL parse,
//! no storage read, no job, no queue, no worker, no wake-up, no in-flight
//! slot (so never `Busy`); the loop records the same `hub.cache_lookup_ns`
//! / `hub.flush_ns` samples, counters and slow-log check a worker would,
//! but no `hub.queue_wait_ns` sample — that histogram counts pool visits.
//! Whatever makes the probe fail — unknown text, no head memo, an entry
//! evicted or invalidated (its raw texts go with it) — falls through to
//! branch 3, so the loop never parses, never touches storage and never
//! serves a frame an invalidation has dropped.
//!
//! ## Overload is an answer, not a stall
//!
//! When a pipelined connection exceeds its in-flight cap, or the shared
//! queue is full, the loop answers that request immediately with a
//! `Busy` frame instead of enqueueing it. The rejection takes the
//! request's own place in the stream (its correlation id, or the next
//! frame of an untagged connection) — the stream never desynchronizes,
//! which is what makes it *lossless*: the client sees exactly one
//! response per request and can back off and retry.
//!
//! ## Write-side backpressure
//!
//! Workers never touch sockets. A finished response is deposited into
//! the connection's outbound queue and the owning loop is woken to
//! write it out — nonblocking, everything queued in one vectored write,
//! with partial-write tracking — so a peer that stops draining can never
//! pin a pool worker. Its outbound queue
//! is bounded instead: past [`HubOptions::conn_buffer_bytes`] of
//! responses committed but unwritten the loop stops *reading* that
//! connection (admitting no further requests, so no further responses
//! accrue), and a connection that makes no read or write progress for
//! [`HubOptions::stall_timeout`] is disconnected.
//!
//! ## Response order
//!
//! An untagged connection is strictly request/response: while one of
//! its data ops is queued or executing the loop slices no further frame
//! from it (and stops reading once bytes of a next one are buffered),
//! resuming on the worker's flush wake-up — so admission order *is* the
//! response order, with nothing to reorder. A connection that switched
//! to pipelined framing (`Request::Pipeline`) carries correlation ids
//! instead: up to [`HubOptions::max_inflight_per_conn`] requests run at
//! once, responses are committed in completion order — no fixed order:
//! two workers may finish out of turn, and a cache hit answered by the
//! loop overtakes an earlier request still in the pool — and the client
//! demultiplexes by id.
//!
//! ## Shutdown
//!
//! Graceful and fully event-driven — no poll ticks. [`HubHandle::
//! shutdown`] flags the hub and *wakes every loop through its poller*:
//! the listener closes, each loop slices the frames it already buffered
//! and may admit, then closes intake for good — bytes a pause left
//! unparsed are dropped, so no request can reach the queue once the
//! loop has reported in; the workers drain the queue; the loops flush
//! every response owed (stalled peers are cut at `stall_timeout`), close
//! each connection as it empties, and exit.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use deeplake_core::Dataset;
use deeplake_obs::{
    next_id, Counter, FlightEvent, FlightRecorder, Histogram, MetricsRegistry, MetricsSnapshot,
    RateWindow, SlowQueryEntry, SlowQueryLog, SpanRecord, SpanTimer, WindowedHistogram,
};
use deeplake_remote::proto::{self, Request};
use deeplake_storage::{
    DynProvider, PrefixProvider, ReadPlan, StorageError, StorageProvider, StorageStats,
    TimingProvider,
};
use deeplake_tql::{canonical, parser, QueryOptions};
use parking_lot::Mutex;
use polling::{Event, Interest, Poller};

use crate::cache::{CacheKey, Frame, ResultCache};
use crate::registry::{DatasetRegistry, Mounted};

/// Poller key the accept listener is registered under on loop 0
/// (`u64::MAX` is the poller's own waker; connection tokens count up
/// from zero and can never reach either).
const LISTEN_KEY: u64 = u64::MAX - 1;

/// Most bytes one readable event may pull from a single connection
/// before yielding — level-triggered readiness re-fires for the rest,
/// so one firehose peer cannot starve the loop's other connections.
const READ_BURST: usize = 256 * 1024;

/// Most slices one flush hands to `writev` (head and body of 32 queued
/// responses); far below the kernel's `IOV_MAX` of 1024.
const FLUSH_IOV: usize = 64;

/// Slow-query ring capacity: the most recent entries, read oldest first
/// via [`HubHandle::metrics`] or the wire `Metrics` opcode.
const SLOW_LOG_ENTRIES: usize = 64;

/// Flight-recorder ring capacity: how many recent notable events —
/// connections cut, `Busy` rejections, stall cuts, mount changes,
/// observed node deaths — the hub retains for `Metrics`, `Health` and
/// [`HubHandle::flight_recorder`].
const FLIGHT_EVENTS: usize = 128;

/// Key prefix wire-`Mount`ed datasets are namespaced under on the hub's
/// backing store.
const WIRE_MOUNT_PREFIX: &str = "datasets";

/// Cluster placement resolver a hub node consults to answer `WhereIs`
/// requests: `dataset name → (map epoch, live replica addresses)`.
/// Installed by [`HubBuilder::placement`] when the hub is one node of a
/// cluster (the resolver typically closes over the cluster's shared
/// map); a hub without one answers `WhereIs` with a lossless protocol
/// error. An unknown dataset must return
/// [`StorageError::NotFound`] so clients can distinguish "not in this
/// cluster" from "node down".
pub type PlacementFn = Arc<dyn Fn(&str) -> Result<(u64, Vec<String>), StorageError> + Send + Sync>;

/// Hub tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct HubOptions {
    /// Worker threads executing storage ops and queries. This — not the
    /// connection count — bounds the hub's storage/query concurrency.
    pub workers: usize,
    /// Event-loop reader threads multiplexing every connection (1–2 is
    /// plenty: readers only frame, decode and answer control ops).
    pub reader_threads: usize,
    /// Decoded requests the shared queue holds before the loops start
    /// answering `Busy`.
    pub queue_depth: usize,
    /// Requests one pipelined (tagged) connection may have queued +
    /// executing before its loop answers `Busy`, so one pipelining
    /// client cannot monopolize the pool. An untagged connection never
    /// has more than one: it is served request/response.
    pub max_inflight_per_conn: usize,
    /// Outbound bytes one connection may have queued before its loop
    /// stops reading it (admitting no further requests). The
    /// bounded-memory guarantee against a peer that requests but never
    /// drains responses; `Busy` handles the request side, this handles
    /// the response side.
    pub conn_buffer_bytes: usize,
    /// How long a connection may sit mid-frame, or with undrained
    /// outbound bytes, without making progress before it is
    /// disconnected. Generous for slow links, finite so a dead peer can
    /// neither desynchronize a stream nor hang shutdown.
    pub stall_timeout: Duration,
    /// Byte budget of the version-pinned query-result cache (0 disables
    /// it). Sizing guidance: roughly `hot queries × mean result frame`;
    /// watch `cache().evictions()` climb to spot a budget that is too
    /// small for the hot set.
    pub cache_bytes: u64,
    /// Queries whose hub-side time (queue wait included) reaches this
    /// threshold land in the slow-query log with their full span
    /// breakdown. `Duration::ZERO` logs every query — useful in tests
    /// and when chasing a tail you have not caught yet.
    pub slow_query_threshold: Duration,
}

impl Default for HubOptions {
    fn default() -> Self {
        HubOptions {
            workers: 4,
            reader_threads: 2,
            queue_depth: 64,
            max_inflight_per_conn: 16,
            conn_buffer_bytes: 8 << 20,
            stall_timeout: Duration::from_secs(30),
            cache_bytes: 64 << 20,
            slow_query_threshold: Duration::from_millis(250),
        }
    }
}

/// Served-traffic counters. A view over the hub's obs instruments: the
/// fields are [`Counter`] handles registered in the hub's
/// [`MetricsRegistry`] under `hub.*`, so the same numbers surface here,
/// in [`HubHandle::metrics`], and through the wire `Metrics` opcode.
#[derive(Debug, Default)]
pub struct HubStats {
    requests: Counter,
    queries: Counter,
    busy_rejections: Counter,
    peak_conn_buffered: Counter,
    dataset_opens: Counter,
    wire: StorageStats,
}

impl HubStats {
    /// Frames answered (all opcodes, `Busy` rejections included).
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Offloaded queries executed *or served from the result cache*.
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    /// Requests refused with a `Busy` frame (queue full or per-connection
    /// in-flight cap hit). The back-pressure signal to watch when sizing
    /// [`HubOptions::workers`] and [`HubOptions::queue_depth`].
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.get()
    }

    /// High-water mark of any single connection's outbound queue, in
    /// bytes. Stays within [`HubOptions::conn_buffer_bytes`] plus the
    /// responses already in flight when the cap tripped — the observable
    /// form of the bounded-memory guarantee against peers that never
    /// drain their responses.
    pub fn peak_conn_buffered(&self) -> u64 {
        self.peak_conn_buffered.get()
    }

    /// Dataset handles opened to execute queries: one per `(mount,
    /// reference)` per invalidation epoch, however many queries miss
    /// the result cache in between — a count near [`queries`](Self::queries)
    /// means writes (or invalidations) are arriving between every pair
    /// of queries.
    pub fn dataset_opens(&self) -> u64 {
        self.dataset_opens.get()
    }

    /// Wire traffic: one round trip per frame answered, request bytes in
    /// `bytes_read`, response bytes in `bytes_written` (mirror-image of
    /// the client's view).
    pub fn wire(&self) -> &StorageStats {
        &self.wire
    }

    /// Attach every counter to `registry` under `hub.*` / `hub.wire.*`.
    fn register_into(&self, registry: &MetricsRegistry) {
        registry.register_counter("hub.requests", &self.requests);
        registry.register_counter("hub.queries", &self.queries);
        registry.register_counter("hub.busy_rejections", &self.busy_rejections);
        registry.register_counter("hub.peak_conn_buffered", &self.peak_conn_buffered);
        registry.register_counter("hub.dataset_opens", &self.dataset_opens);
        self.wire.register_into(registry, "hub.wire");
    }
}

// ---------------------------------------------------------------------
// bounded job queue
// ---------------------------------------------------------------------

struct Job {
    conn: Arc<ConnShared>,
    /// Correlation id the response carries back (`None` on an untagged
    /// connection, where the response is simply the next frame).
    id: Option<u64>,
    request_len: u64,
    mount: Arc<Mounted>,
    request: Request,
    /// When the event loop queued the job — the worker's pop time minus
    /// this is the queue-wait span.
    enqueued_at: Instant,
    /// `(trace_id, client span id)` when the request arrived wrapped in
    /// a `Traced` frame; `None` for legacy clients.
    trace: Option<(u64, u64)>,
}

/// Per-job observability context a worker threads into the data path.
struct JobCtx {
    queue_wait_ns: u64,
    trace: Option<(u64, u64)>,
}

/// Bounded MPMC queue with non-blocking push (overload answers `Busy`
/// instead of blocking a loop) and untimed pop (workers park on the
/// condvar until a job or the drain signal arrives — no poll tick).
struct JobQueue {
    state: StdMutex<VecDeque<Job>>,
    capacity: usize,
    ready: Condvar,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: StdMutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            ready: Condvar::new(),
        }
    }

    /// `false` when the queue is full — the caller answers `Busy`.
    fn try_push(&self, job: Job) -> bool {
        let mut q = self.state.lock().unwrap();
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back(job);
        drop(q);
        self.ready.notify_one();
        true
    }

    /// Block until a job arrives; `None` once `drain` is set and the
    /// queue is empty (no new jobs can appear after intake stopped).
    fn pop(&self, drain: &AtomicBool) -> Option<Job> {
        let mut q = self.state.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if drain.load(Ordering::Acquire) {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    fn notify_all(&self) {
        self.ready.notify_all();
    }

    /// Jobs currently waiting (a point-in-time reading for `Health`).
    fn len(&self) -> usize {
        self.state.lock().unwrap().len()
    }
}

// ---------------------------------------------------------------------
// per-connection state
// ---------------------------------------------------------------------

/// One committed response as it goes on the wire: the `[len][id]` head
/// built at deposit time, then the response body — the very allocation
/// the result cache holds when the response is a cache hit.
struct OutFrame {
    head: [u8; 12],
    /// 4 on an untagged connection, 12 with a correlation id.
    head_len: usize,
    body: Frame,
}

impl OutFrame {
    fn new(id: Option<u64>, body: Frame) -> Self {
        let tag_len = if id.is_some() { 8 } else { 0 };
        let mut head = [0u8; 12];
        head[..4].copy_from_slice(&((body.len() + tag_len) as u32).to_le_bytes());
        head[4..].copy_from_slice(&id.unwrap_or(0).to_le_bytes());
        OutFrame {
            head,
            head_len: 4 + tag_len,
            body,
        }
    }

    fn len(&self) -> usize {
        self.head_len + self.body.len()
    }
}

/// Outbound side of one connection. Workers and the loop's own inline
/// answers deposit here; only the owning event loop performs socket
/// writes.
#[derive(Default)]
struct OutState {
    /// Committed responses not yet fully written to the socket.
    wbuf: VecDeque<OutFrame>,
    /// Bytes of `wbuf.front()` (head, then body) already written.
    woff: usize,
    /// Total unwritten bytes across `wbuf` — every response byte the
    /// connection holds in memory, and what admission and read interest
    /// are capped on.
    buffered: usize,
}

impl OutState {
    /// The unwritten bytes, oldest first, as the slices they live in.
    fn unwritten(&self) -> impl Iterator<Item = &[u8]> {
        // only the front frame is partly written: `skip` runs out inside it
        let mut skip = self.woff;
        self.wbuf
            .iter()
            .flat_map(|f| [&f.head[..f.head_len], &f.body[..]])
            .filter_map(move |s| {
                let cut = skip.min(s.len());
                skip -= cut;
                (cut < s.len()).then(|| &s[cut..])
            })
    }

    /// Account `n` more bytes as written: drop the frames they complete
    /// and leave `woff` inside the new front frame.
    fn consume(&mut self, n: usize) {
        self.buffered -= n;
        let mut at = self.woff + n;
        while let Some(front) = self.wbuf.front() {
            if at < front.len() {
                break;
            }
            at -= front.len();
            self.wbuf.pop_front();
        }
        debug_assert!(at == 0 || !self.wbuf.is_empty(), "consumed past the queue");
        self.woff = at;
    }
}

/// The slice of connection state shared with pool workers. The socket
/// and read-side state live privately in the owning event loop.
struct ConnShared {
    token: u64,
    /// Which event loop owns the socket (workers wake it to flush).
    loop_idx: usize,
    out: Mutex<OutState>,
    /// Requests queued or executing for this connection.
    inflight: AtomicUsize,
    /// Dataset this connection attached to (`None` = default mount).
    attached: Mutex<Option<String>>,
    /// Set when the loop disconnects; deposits become no-ops.
    dead: AtomicBool,
    /// Coalesces flush wakeups: at most one `Flush` message in flight.
    flush_queued: AtomicBool,
}

/// Commit one response onto the connection's write queue — tagged with
/// `id` on a pipelined connection — and account it. The body is queued
/// as it is, never copied; the socket write itself happens later, on the
/// owning event loop.
fn deposit(
    shared: &Shared,
    conn: &ConnShared,
    id: Option<u64>,
    request_len: u64,
    frame: impl Into<Frame>,
) {
    let wire = OutFrame::new(id, frame.into());
    let wire_len = wire.len() as u64;
    let mut out = conn.out.lock();
    if conn.dead.load(Ordering::Acquire) {
        return;
    }
    out.buffered += wire.len();
    out.wbuf.push_back(wire);
    let peak = out.buffered as u64;
    drop(out);
    shared.stats.peak_conn_buffered.record_max(peak);
    shared.stats.requests.inc();
    shared.obs.bytes_out_rate.add(wire_len);
    shared.stats.wire.record_wire(request_len + 4, wire_len);
}

/// Wake `conn`'s event loop to flush a deposit (coalesced: a wakeup
/// already in flight is enough).
fn request_flush(shared: &Shared, conn: &ConnShared) {
    if !conn.flush_queued.swap(true, Ordering::AcqRel) {
        shared.loops[conn.loop_idx].send(LoopMsg::Flush(conn.token));
    }
}

// ---------------------------------------------------------------------
// the hub
// ---------------------------------------------------------------------

/// Cross-thread mailbox of one event loop. `send` enqueues and wakes
/// the loop through its poller — the explicit wakeup that replaced the
/// idle poll tick.
struct LoopShared {
    poller: Poller,
    inbox: StdMutex<Vec<LoopMsg>>,
}

enum LoopMsg {
    /// A freshly accepted connection to adopt.
    Adopt(TcpStream),
    /// A deposit landed for this token; flush it.
    Flush(u64),
}

impl LoopShared {
    fn send(&self, msg: LoopMsg) {
        self.inbox.lock().unwrap().push(msg);
        let _ = self.poller.notify();
    }
}

/// The hub's observability plane: the instrument registry plus the
/// handful of histograms hot paths record into, resolved once at bind
/// time so the record path never takes the registry's name-map lock.
struct HubObs {
    registry: MetricsRegistry,
    slowlog: SlowQueryLog,
    /// Always-on ring of notable events (connections cut, `Busy`
    /// rejections, mount changes, observed node deaths).
    recorder: FlightRecorder,
    /// Job pop time minus enqueue time (`hub.queue_wait_ns`).
    queue_wait: Histogram,
    /// Head resolution + result-cache probe (`hub.cache_lookup_ns`).
    cache_lookup: Histogram,
    /// TQL execution on a cache miss, with the dataset open when the
    /// mount has no handle for this epoch yet (`hub.execute_ns`).
    execute: Histogram,
    /// Service time of batched read ops (`Execute`/`GetMany`) on a pool
    /// worker (`hub.read_ns`) — the hub-side cost of one loader worker
    /// task's scatter-gather fetch, queue wait excluded.
    read: Histogram,
    /// Nanoseconds a missed query kept the mounted provider busy
    /// (`hub.storage_ns`): head resolution, the dataset open when one
    /// happens, and the executor's batched chunk fetches — a child of
    /// the execute span.
    storage: Histogram,
    /// Depositing the finished response onto the connection's write
    /// queue (`hub.flush_ns`).
    flush: Histogram,
    /// Queries admitted in the last 1/10/60 s (`hub.queries_rate`).
    queries_rate: RateWindow,
    /// Non-OK query responses in the last 1/10/60 s
    /// (`hub.errors_rate`).
    errors_rate: RateWindow,
    /// Response bytes committed in the last 1/10/60 s
    /// (`hub.bytes_out_rate`).
    bytes_out_rate: RateWindow,
    /// Rolling end-to-end query latency (`hub.query_ns.w1/.w10/.w60`)
    /// — p50/p99 over the recent windows, where `hub.execute_ns` only
    /// gives lifetime quantiles.
    query_window: WindowedHistogram,
}

impl HubObs {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        let slowlog = SlowQueryLog::new(SLOW_LOG_ENTRIES);
        registry.register_counter("hub.slow_log.evicted", slowlog.evicted_counter());
        HubObs {
            slowlog,
            recorder: FlightRecorder::new(FLIGHT_EVENTS),
            queue_wait: registry.histogram("hub.queue_wait_ns"),
            cache_lookup: registry.histogram("hub.cache_lookup_ns"),
            execute: registry.histogram("hub.execute_ns"),
            read: registry.histogram("hub.read_ns"),
            storage: registry.histogram("hub.storage_ns"),
            flush: registry.histogram("hub.flush_ns"),
            queries_rate: registry.rate("hub.queries_rate"),
            errors_rate: registry.rate("hub.errors_rate"),
            bytes_out_rate: registry.rate("hub.bytes_out_rate"),
            query_window: registry.windowed("hub.query_ns"),
            registry,
        }
    }

    /// Registry snapshot with the slow-query ring and flight-recorder
    /// tail appended — the payload both [`HubHandle::metrics`] and the
    /// wire `Metrics` opcode return.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.slow_queries = self.slowlog.entries();
        snap.events = self.recorder.events();
        snap
    }
}

struct Shared {
    registry: DatasetRegistry,
    cache: ResultCache,
    /// Backing store wire-`Mount`s are namespaced on (`None` = wire
    /// mounts refused; server-side mounts always work).
    backing: Option<DynProvider>,
    /// Names created by wire `Mount` requests. A wire mount is fully
    /// determined by its name (a fixed prefix on the backing store), so
    /// a racing re-`Mount` of a name in this set is idempotent success —
    /// while a name bound to any *other* backend must never be aliased.
    wire_mounts: Mutex<std::collections::HashSet<String>>,
    /// Cluster placement resolver (`None` = this hub is not a cluster
    /// node; `WhereIs` answers a lossless protocol error).
    placement: Option<PlacementFn>,
    stats: HubStats,
    obs: HubObs,
    queue: JobQueue,
    loops: Vec<Arc<LoopShared>>,
    next_token: AtomicU64,
    /// When the listener bound — `Health` reports uptime from it.
    started: Instant,
    /// Data-path requests queued or executing across every connection —
    /// the fleet prober reads this through `Health` to tell a loaded
    /// node from an idle one.
    in_flight: AtomicUsize,
    /// Loops stop accepting and (after slicing what they buffered)
    /// reading.
    shutdown: AtomicBool,
    /// Workers exit once the queue is empty (set after intake stopped).
    drain: AtomicBool,
    /// Workers joined: loops flush their last bytes and exit.
    drain_done: AtomicBool,
    /// How many loops finished intake; shutdown waits on the condvar.
    intake_done: StdMutex<usize>,
    intake_cv: Condvar,
    opts: HubOptions,
}

/// Builder for a serving hub.
pub struct HubBuilder {
    mounts: Vec<(String, DynProvider)>,
    default: Option<DynProvider>,
    backing: Option<DynProvider>,
    placement: Option<PlacementFn>,
    opts: HubOptions,
}

/// The multi-dataset serving hub. See the [crate docs](crate) for the
/// architecture; construct with [`Hub::builder`].
pub struct Hub;

impl Hub {
    /// Start building a hub.
    pub fn builder() -> HubBuilder {
        HubBuilder {
            mounts: Vec::new(),
            default: None,
            backing: None,
            placement: None,
            opts: HubOptions::default(),
        }
    }
}

impl HubBuilder {
    /// Mount `provider` under `name` (panics on an invalid name — use
    /// [`HubHandle::mount`] for fallible runtime mounts).
    pub fn mount(mut self, name: &str, provider: DynProvider) -> Self {
        DatasetRegistry::valid_name(name).expect("valid dataset name");
        self.mounts.push((name.to_string(), provider));
        self
    }

    /// Mount `provider` under the name `"default"` and make it the
    /// mount unattached connections resolve to — a single-dataset
    /// server is `Hub::builder().default_mount(p).bind(addr)`.
    pub fn default_mount(mut self, provider: DynProvider) -> Self {
        self.default = Some(provider);
        self
    }

    /// Backing store for wire-`Mount` requests: each wire mount becomes
    /// a [`PrefixProvider`] namespaced `datasets/<name>/` on this store.
    pub fn backing(mut self, provider: DynProvider) -> Self {
        self.backing = Some(provider);
        self
    }

    /// Install the cluster placement resolver this node answers
    /// `WhereIs` requests from. The resolver is consulted on the event
    /// loop (it must not perform storage I/O) and typically closes over
    /// a cluster's shared, epoch-versioned map.
    pub fn placement(mut self, resolver: PlacementFn) -> Self {
        self.placement = Some(resolver);
        self
    }

    /// Tuning knobs.
    pub fn options(mut self, opts: HubOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Bind `addr` (port 0 for ephemeral) and start serving. Returns
    /// immediately; the hub runs on background threads until
    /// [`HubHandle::shutdown`].
    pub fn bind(self, addr: impl ToSocketAddrs) -> std::io::Result<HubHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let registry = DatasetRegistry::new();
        for (name, provider) in self.mounts {
            if let Err(e) = registry.mount(&name, provider) {
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, e));
            }
        }
        if let Some(provider) = self.default {
            let mounted = registry
                .mount("default", provider)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            registry.set_default(mounted);
        }
        let n_loops = self.opts.reader_threads.max(1);
        let mut loops = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            loops.push(Arc::new(LoopShared {
                poller: Poller::new()?,
                inbox: StdMutex::new(Vec::new()),
            }));
        }
        loops[0]
            .poller
            .add(listener.as_raw_fd(), LISTEN_KEY, Interest::READ)?;
        let shared = Arc::new(Shared {
            registry,
            cache: ResultCache::new(self.opts.cache_bytes),
            backing: self.backing,
            wire_mounts: Mutex::new(std::collections::HashSet::new()),
            placement: self.placement,
            stats: HubStats::default(),
            obs: HubObs::new(),
            queue: JobQueue::new(self.opts.queue_depth),
            loops,
            next_token: AtomicU64::new(0),
            started: Instant::now(),
            in_flight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            drain_done: AtomicBool::new(false),
            intake_done: StdMutex::new(0),
            intake_cv: Condvar::new(),
            opts: self.opts,
        });
        shared.stats.register_into(&shared.obs.registry);
        shared
            .cache
            .stats()
            .register_into(&shared.obs.registry, "hub.cache");
        let workers: Vec<std::thread::JoinHandle<()>> = (0..self.opts.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        // loop 0 keeps the listener instance whose fd was registered
        // above — a clone would drop the registered fd number, breaking
        // the poll(2) backend (POLLNVAL spin, fd-number reuse clashes)
        let mut listener = Some(listener);
        let mut readers = Vec::with_capacity(n_loops);
        for idx in 0..n_loops {
            let shared = shared.clone();
            let listener = if idx == 0 { listener.take() } else { None };
            readers.push(std::thread::spawn(move || {
                event_loop(&shared, idx, listener);
            }));
        }
        Ok(HubHandle {
            addr: local_addr,
            shared,
            readers,
            workers,
        })
    }
}

/// A running hub. Dropping the handle shuts it down gracefully.
pub struct HubHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    readers: Vec<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl HubHandle {
    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Served-traffic counters.
    pub fn stats(&self) -> &HubStats {
        &self.shared.stats
    }

    /// The query-result cache (hit ratio, evictions, cached bytes).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// Machine-readable snapshot of every registered instrument —
    /// counters, gauges, latency histograms and the slow-query ring.
    /// The same payload a live client retrieves through the wire
    /// `Metrics` opcode.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.obs.snapshot()
    }

    /// The hub's always-on flight recorder. A cheap-clone handle: a
    /// cluster wires its map's liveness observer to each node's
    /// recorder through this, so an observed node death shows up in
    /// every surviving node's event tail.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.shared.obs.recorder
    }

    /// Local form of the wire `Health` opcode: uptime, load and the
    /// flight-recorder tail, without a connection.
    pub fn health(&self) -> proto::HealthReport {
        proto::HealthReport {
            uptime_ms: self.shared.started.elapsed().as_millis() as u64,
            in_flight: self.shared.in_flight.load(Ordering::Acquire) as u64,
            queue_depth: self.shared.queue.len() as u64,
            queue_cap: self.shared.opts.queue_depth as u64,
            datasets: self.shared.registry.list(),
            proto_version: proto::PROTO_VERSION,
            tracing: true,
            events: self.shared.obs.recorder.events(),
        }
    }

    /// How many event-loop reader threads multiplex this hub's
    /// connections — fixed at bind time, independent of how many
    /// connections are served.
    pub fn reader_threads(&self) -> usize {
        self.shared.loops.len()
    }

    /// Mount `provider` under `name` at runtime.
    pub fn mount(&self, name: &str, provider: DynProvider) -> Result<(), StorageError> {
        self.shared
            .registry
            .mount(name, provider)
            .map(|_| {
                self.shared.obs.recorder.record(FlightEvent::MOUNT, 0, name);
            })
            .map_err(StorageError::Io)
    }

    /// Unmount `name` (storage untouched); returns whether it existed.
    /// Cached results and head memos for the dataset are dropped.
    pub fn unmount(&self, name: &str) -> bool {
        let existed = self.shared.registry.unmount(name);
        if let Some(mounted) = &existed {
            mounted.invalidate();
            self.shared.cache.invalidate_dataset(name);
            self.shared.wire_mounts.lock().remove(name);
            self.shared
                .obs
                .recorder
                .record(FlightEvent::UNMOUNT, 0, name);
        }
        existed.is_some()
    }

    /// Sorted names of every mounted dataset.
    pub fn datasets(&self) -> Vec<String> {
        self.shared.registry.list()
    }

    /// Drop every cached result and head memo for `name`. Call after
    /// writing to a mounted dataset *out of band* (directly on its
    /// provider rather than through the hub) — the hub sees writes it
    /// routes itself, but cannot see yours.
    pub fn invalidate(&self, name: &str) {
        if let Some(mounted) = self.shared.registry.get(name) {
            mounted.invalidate();
        }
        self.shared.cache.invalidate_dataset(name);
        self.shared
            .obs
            .recorder
            .record(FlightEvent::CACHE_INVALIDATE, 0, name);
    }

    /// Description of the hub and its mounts.
    pub fn describe(&self) -> String {
        match self.shared.registry.default_mount() {
            Some(mounted) => format!("serving {} at {}", mounted.provider.describe(), self.addr),
            None => format!(
                "hub serving {} datasets at {}",
                self.shared.registry.len(),
                self.addr
            ),
        }
    }

    /// Stop gracefully, waking every thread explicitly (event-driven,
    /// no poll ticks): the listener closes and every loop closes intake
    /// (frames already buffered that the connection may admit are still
    /// served; the rest are dropped), the worker pool drains every
    /// queued request to a deposited response, the loops flush every
    /// outbound byte, then all threads are joined. A peer gets one
    /// response for each request that was admitted, then EOF.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for l in &self.shared.loops {
            let _ = l.poller.notify();
        }
        {
            let mut done = self.shared.intake_done.lock().unwrap();
            while *done < self.shared.loops.len() {
                done = self.shared.intake_cv.wait(done).unwrap();
            }
        }
        // intake is closed on every loop (`Conn::close_intake`): no new
        // job can appear, so the workers may exit on empty
        self.shared.drain.store(true, Ordering::Release);
        self.shared.queue.notify_all();
        for h in std::mem::take(&mut self.workers) {
            let _ = h.join();
        }
        // every response is deposited; let the loops flush and exit
        self.shared.drain_done.store(true, Ordering::Release);
        for l in &self.shared.loops {
            let _ = l.poller.notify();
        }
        for h in std::mem::take(&mut self.readers) {
            let _ = h.join();
        }
    }
}

impl Drop for HubHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// event-loop reader tier
// ---------------------------------------------------------------------

/// Loop-private side of one connection: the socket, the read
/// accumulator and the framing state machine. Everything here is
/// touched only by the owning loop thread.
struct Conn {
    state: Arc<ConnShared>,
    stream: TcpStream,
    /// Accumulated inbound bytes; complete frames are sliced off the
    /// front. Grows only with bytes actually received.
    rbuf: Vec<u8>,
    /// Parse offset into `rbuf` (compacted after each parse pass).
    rpos: usize,
    /// Switched to correlation-id framing via `Request::Pipeline`.
    pipelined: bool,
    /// Read interest currently registered with the poller.
    read_on: bool,
    /// Write interest currently registered with the poller.
    write_on: bool,
    /// No further bytes will be read (EOF, intake stopped, or a fatal
    /// response was sent).
    read_closed: bool,
    /// Disconnect once every outbound byte is flushed and no job is in
    /// flight (clean EOF, or a version-mismatch rejection was sent).
    close_after_flush: bool,
    /// Stall deadline currently registered (mid-frame read or undrained
    /// outbound bytes); progress re-arms it.
    armed: Option<Instant>,
}

impl Conn {
    fn mid_frame(&self) -> bool {
        self.rpos < self.rbuf.len() && !self.read_closed
    }

    /// An untagged connection with a data op queued or executing: its
    /// next frame waits for that response (request/response order).
    fn awaiting_response(&self) -> bool {
        !self.pipelined && self.state.inflight.load(Ordering::Acquire) > 0
    }

    /// Close intake for good: nothing further is read, and bytes
    /// already buffered but not yet sliced are dropped — a later service
    /// pass must not admit them. The connection closes once every
    /// response it is owed has been flushed.
    fn close_intake(&mut self) {
        self.rbuf.clear();
        self.rpos = 0;
        self.read_closed = true;
        self.close_after_flush = true;
    }
}

fn event_loop(shared: &Arc<Shared>, idx: usize, mut listener: Option<TcpListener>) {
    let me = shared.loops[idx].clone();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut deadlines: BTreeSet<(Instant, u64)> = BTreeSet::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    // round-robin cursor distributing accepted sockets across loops
    let mut next_loop = 0usize;
    let mut intake_done = false;
    loop {
        let timeout = deadlines
            .iter()
            .next()
            .map(|(t, _)| t.saturating_duration_since(Instant::now()));
        let _ = me.poller.wait(&mut events, timeout);

        // cross-thread messages first, so a final Flush is always
        // serviced before the exit check below
        let msgs = std::mem::take(&mut *me.inbox.lock().unwrap());
        for msg in msgs {
            match msg {
                LoopMsg::Adopt(stream) => {
                    if !intake_done {
                        adopt(shared, &me, &mut conns, idx, stream);
                    }
                }
                LoopMsg::Flush(token) => {
                    if let Some(conn) = conns.get_mut(&token) {
                        // a swap, not a store: reading the worker's
                        // `true` is what orders its `inflight` decrement
                        // before the pass below, which resumes a paused
                        // untagged connection only if it sees zero
                        conn.state.flush_queued.swap(false, Ordering::AcqRel);
                        if !service(shared, &me, conn, &mut deadlines, &mut scratch, false, true) {
                            let cut = Some(FlightEvent::CONN_CUT);
                            disconnect(shared, &me, &mut conns, &mut deadlines, token, cut);
                        }
                    }
                }
            }
        }

        for &ev in &events {
            if ev.key == LISTEN_KEY {
                if let Some(l) = &listener {
                    accept_burst(shared, &mut conns, idx, &mut next_loop, l);
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue;
            };
            if ev.readable && !conn.read_on {
                // read interest is off, so this can only be the poller
                // reporting an error/hang-up condition; peek to tell a
                // benign half-close from a gone peer
                let mut probe = [0u8; 1];
                match conn.stream.peek(&mut probe) {
                    Ok(0) => {
                        conn.read_closed = true;
                        conn.close_after_flush = true;
                    }
                    Ok(_) => {} // data we are not reading (backpressure)
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        // nothing readable yet the event fired: the peer
                        // is gone and nothing can be delivered
                        let cut = Some(FlightEvent::CONN_CUT);
                        disconnect(shared, &me, &mut conns, &mut deadlines, ev.key, cut);
                        continue;
                    }
                    Err(_) => {
                        let cut = Some(FlightEvent::CONN_CUT);
                        disconnect(shared, &me, &mut conns, &mut deadlines, ev.key, cut);
                        continue;
                    }
                }
            }
            let readable = ev.readable && conn.read_on;
            if !service(
                shared,
                &me,
                conn,
                &mut deadlines,
                &mut scratch,
                readable,
                ev.writable,
            ) {
                let cut = Some(FlightEvent::CONN_CUT);
                disconnect(shared, &me, &mut conns, &mut deadlines, ev.key, cut);
            }
        }

        // stalled connections: no read/write progress before the
        // deadline means the peer is dead or malicious — cut it
        let now = Instant::now();
        while let Some(&(t, token)) = deadlines.iter().next() {
            if t > now {
                break;
            }
            deadlines.remove(&(t, token));
            if let Some(conn) = conns.get(&token) {
                if conn.armed == Some(t) {
                    let cut = Some(FlightEvent::STALL_CUT);
                    disconnect(shared, &me, &mut conns, &mut deadlines, token, cut);
                }
            }
        }

        if !intake_done && shared.shutdown.load(Ordering::Acquire) {
            if let Some(l) = listener.take() {
                let _ = me.poller.remove(l.as_raw_fd());
            }
            // requests already buffered are sliced and served where the
            // connection may admit them now; then intake closes for good,
            // because once this loop reports in below the pool may be gone
            // and a request admitted later would never be answered
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                let conn = conns.get_mut(&token).expect("token just listed");
                let ok = service(shared, &me, conn, &mut deadlines, &mut scratch, false, true);
                let conn = conns.get_mut(&token).expect("token just listed");
                conn.close_intake();
                if !ok {
                    let cut = Some(FlightEvent::CONN_CUT);
                    disconnect(shared, &me, &mut conns, &mut deadlines, token, cut);
                } else if let Some(conn) = conns.get_mut(&token) {
                    update_interest(&me, conn, shared.opts.conn_buffer_bytes);
                }
            }
            intake_done = true;
            let mut done = shared.intake_done.lock().unwrap();
            *done += 1;
            shared.intake_cv.notify_all();
        }

        if intake_done && shared.drain_done.load(Ordering::Acquire) {
            // workers are gone: every response is deposited. Leave once
            // every outbound byte is flushed (stall deadlines bound the
            // wait on peers that stopped draining).
            let flushed = conns.values().all(|c| c.state.out.lock().wbuf.is_empty());
            if flushed {
                let tokens: Vec<u64> = conns.keys().copied().collect();
                for token in tokens {
                    disconnect(shared, &me, &mut conns, &mut deadlines, token, None);
                }
                return;
            }
        }
    }
}

/// Accept until the listener would block, spreading connections
/// round-robin across the loops.
fn accept_burst(
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    my_idx: usize,
    next_loop: &mut usize,
    listener: &TcpListener,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let target = *next_loop % shared.loops.len();
                *next_loop += 1;
                if target == my_idx {
                    let me = shared.loops[my_idx].clone();
                    adopt(shared, &me, conns, my_idx, stream);
                } else {
                    shared.loops[target].send(LoopMsg::Adopt(stream));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Register a fresh connection with this loop.
fn adopt(
    shared: &Arc<Shared>,
    me: &LoopShared,
    conns: &mut HashMap<u64, Conn>,
    idx: usize,
    stream: TcpStream,
) {
    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
    if me
        .poller
        .add(stream.as_raw_fd(), token, Interest::READ)
        .is_err()
    {
        return;
    }
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    shared
        .obs
        .recorder
        .record(FlightEvent::CONN_ACCEPT, 0, format!("conn {token} {peer}"));
    let state = Arc::new(ConnShared {
        token,
        loop_idx: idx,
        out: Mutex::new(OutState::default()),
        inflight: AtomicUsize::new(0),
        attached: Mutex::new(None),
        dead: AtomicBool::new(false),
        flush_queued: AtomicBool::new(false),
    });
    conns.insert(
        token,
        Conn {
            state,
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            pipelined: false,
            read_on: true,
            write_on: false,
            read_closed: false,
            close_after_flush: false,
            armed: None,
        },
    );
}

/// Tear a connection down: deregister, drop buffered responses, mark
/// the shared state dead so late deposits become no-ops. `cut` names
/// the flight-recorder event to log (`None` for the hub's own shutdown
/// sweep — tearing down every peer at exit is not a notable event).
fn disconnect(
    shared: &Shared,
    me: &LoopShared,
    conns: &mut HashMap<u64, Conn>,
    deadlines: &mut BTreeSet<(Instant, u64)>,
    token: u64,
    cut: Option<&'static str>,
) {
    let Some(conn) = conns.remove(&token) else {
        return;
    };
    if let Some(kind) = cut {
        shared.obs.recorder.record(kind, 0, format!("conn {token}"));
    }
    if let Some(t) = conn.armed {
        deadlines.remove(&(t, token));
    }
    conn.state.dead.store(true, Ordering::Release);
    let mut out = conn.state.out.lock();
    out.wbuf.clear();
    out.buffered = 0;
    drop(out);
    let _ = me.poller.remove(conn.stream.as_raw_fd());
    // socket closes when `conn.stream` drops here
}

/// One service pass over a connection: pull inbound bytes (when
/// `readable`), slice and dispatch complete frames, flush outbound
/// bytes, then re-register interest and the stall deadline. Returns
/// `false` when the connection must be disconnected.
fn service(
    shared: &Arc<Shared>,
    me: &LoopShared,
    conn: &mut Conn,
    deadlines: &mut BTreeSet<(Instant, u64)>,
    scratch: &mut [u8],
    readable: bool,
    writable: bool,
) -> bool {
    let mut progress = false;
    if readable && !conn.read_closed {
        match pull_bytes(conn, scratch) {
            Ok(n) => progress |= n > 0,
            Err(()) => return false,
        }
    }
    let _ = writable; // flushing is unconditional: cheap no-op when empty
                      // parse/flush until neither makes progress: flushing can drop
                      // `buffered` below the cap, un-pausing complete frames that
                      // backpressure left in `rbuf` with no readiness event pending to
                      // revisit them
    loop {
        let unparsed = conn.rbuf.len();
        if !parse_frames(shared, conn) {
            return false;
        }
        let parsed = conn.rbuf.len() < unparsed;
        let wrote = match flush_out(conn) {
            Ok(n) => n > 0,
            Err(()) => return false,
        };
        progress |= parsed || wrote;
        if !parsed && !wrote {
            break;
        }
    }
    // in-flight first: a worker deposits before it decrements, so a zero
    // here means every response is already counted in `buffered` below
    let idle = conn.state.inflight.load(Ordering::Acquire) == 0;
    let buffered = conn.state.out.lock().buffered;
    if conn.close_after_flush && idle && buffered == 0 {
        return false;
    }
    update_interest(me, conn, shared.opts.conn_buffer_bytes);
    // a connection is "stalled" while the peer owes progress: responses
    // are partially written, or a frame is partially read — not while
    // its next frame waits on the hub's own answer
    let stalled = buffered > 0 || (conn.mid_frame() && !conn.awaiting_response());
    let want = if !stalled {
        None
    } else if progress || conn.armed.is_none() {
        Some(Instant::now() + shared.opts.stall_timeout)
    } else {
        conn.armed
    };
    if want != conn.armed {
        if let Some(t) = conn.armed.take() {
            deadlines.remove(&(t, conn.state.token));
        }
        if let Some(t) = want {
            deadlines.insert((t, conn.state.token));
            conn.armed = Some(t);
        }
    }
    true
}

/// Read until the socket has no more (or the fairness burst is spent).
/// A read that comes back short emptied the socket's buffer, so the loop
/// stops there instead of paying one more `read` to be told `WouldBlock`:
/// the poller is level-triggered (`third_party/polling` registers plain
/// `EPOLLIN`), so bytes — or an EOF — that arrive after the short read
/// raise a fresh readiness event and nothing is lost.
fn pull_bytes(conn: &mut Conn, scratch: &mut [u8]) -> Result<usize, ()> {
    let mut total = 0;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                // clean EOF: the peer is done sending; responses for
                // requests already received still flush
                conn.read_closed = true;
                conn.close_after_flush = true;
                return Ok(total);
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&scratch[..n]);
                total += n;
                if n < scratch.len() || total >= READ_BURST {
                    return Ok(total);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(total),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
}

/// Slice complete frames off the accumulator and dispatch them, until
/// bytes run out or admission pauses: on outbound backpressure, and on
/// an untagged connection while its previous request is unanswered.
fn parse_frames(shared: &Arc<Shared>, conn: &mut Conn) -> bool {
    loop {
        if conn.read_closed && conn.rpos >= conn.rbuf.len() {
            break;
        }
        if conn.state.out.lock().buffered >= shared.opts.conn_buffer_bytes {
            break; // backpressured: stop admitting requests
        }
        if conn.awaiting_response() {
            break; // request/response: the worker's flush wake-up resumes
        }
        let avail = conn.rbuf.len() - conn.rpos;
        if avail < 4 {
            break;
        }
        let len = u32::from_le_bytes(
            conn.rbuf[conn.rpos..conn.rpos + 4]
                .try_into()
                .expect("4 bytes checked"),
        ) as usize;
        if len > proto::MAX_FRAME {
            return false; // lying header: the stream cannot resync
        }
        if avail < 4 + len {
            break;
        }
        let payload = conn.rpos + 4..conn.rpos + 4 + len;
        conn.rpos = payload.end;
        if !handle_frame(shared, conn, payload) {
            return false;
        }
        if conn.read_closed {
            break; // a fatal response (version mismatch) was just sent
        }
    }
    if conn.rpos > 0 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
    true
}

/// Write queued frames until done or the socket would block: everything
/// queued (up to [`FLUSH_IOV`] slices a call) leaves in one vectored
/// write, so the responses of one parse pass cost one syscall, not one
/// each.
fn flush_out(conn: &mut Conn) -> Result<usize, ()> {
    let mut out = conn.state.out.lock();
    let mut total = 0;
    while !out.wbuf.is_empty() {
        let mut iov = [IoSlice::new(&[]); FLUSH_IOV];
        let mut filled = 0;
        for (slot, bytes) in iov.iter_mut().zip(out.unwritten()) {
            *slot = IoSlice::new(bytes);
            filled += 1;
        }
        match conn.stream.write_vectored(&iov[..filled]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                total += n;
                out.consume(n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(total)
}

/// Re-register poller interest from current state: read while intake is
/// open and neither pause holds (outbound backpressure; an untagged
/// connection already holding bytes of the request *after* the one in
/// flight — a request/response peer never sends those, and a peer that
/// does is held back by TCP instead of by this process's memory), write
/// while bytes are queued.
fn update_interest(me: &LoopShared, conn: &mut Conn, conn_buffer_bytes: usize) {
    let out = conn.state.out.lock();
    let held_back = conn.awaiting_response() && !conn.rbuf.is_empty();
    let want_r = !conn.read_closed && out.buffered < conn_buffer_bytes && !held_back;
    let want_w = !out.wbuf.is_empty();
    drop(out);
    if want_r != conn.read_on || want_w != conn.write_on {
        let interest = Interest {
            readable: want_r,
            writable: want_w,
        };
        if me
            .poller
            .modify(conn.stream.as_raw_fd(), conn.state.token, interest)
            .is_ok()
        {
            conn.read_on = want_r;
            conn.write_on = want_w;
        }
    }
}

/// Which stage answers a request. Control ops are cheap (no storage
/// I/O) and order-sensitive (`Attach` changes what later requests mean),
/// so the loop answers them inline; data ops go to the pool.
fn is_control(req: &Request) -> bool {
    matches!(
        req,
        Request::Ping
            | Request::Hello { .. }
            | Request::Attach { .. }
            | Request::Mount { .. }
            | Request::Unmount { .. }
            | Request::ListDatasets
            | Request::Describe
            | Request::WhereIs { .. }
            | Request::Pipeline
            | Request::Metrics
            | Request::Health
    )
}

/// Decode and answer (or enqueue) one complete frame, the bytes of
/// `conn.rbuf` in `payload`: the request is decoded from that borrow, so
/// the only bytes copied are the ones a queued [`Job`] must own. Returns
/// `false` only for violations the stream cannot recover from.
fn handle_frame(shared: &Arc<Shared>, conn: &mut Conn, payload: std::ops::Range<usize>) -> bool {
    let payload = &conn.rbuf[payload];
    let request_len = payload.len() as u64;
    let (id, body): (Option<u64>, &[u8]) = if conn.pipelined {
        match proto::split_tagged(payload) {
            Some((id, body)) => (Some(id), body),
            // a pipelined frame too short for its id cannot be answered
            // under any id: fail the connection
            None => return false,
        }
    } else {
        (None, payload)
    };
    let request = match proto::decode_request(body) {
        Ok(r) => r,
        Err(e) => {
            deposit(
                shared,
                &conn.state,
                id,
                request_len,
                proto::resp_proto_err(&e.to_string()),
            );
            return true;
        }
    };
    // peel the additive trace envelope: the inner request is dispatched
    // exactly as an untraced one, the ids ride along on the job
    let (trace, request) = match request {
        Request::Traced {
            trace_id,
            parent_span,
            inner,
        } => (Some((trace_id, parent_span)), *inner),
        other => (None, other),
    };
    if is_control(&request) {
        let version_mismatch = matches!(
            &request,
            Request::Hello { version } if *version != proto::PROTO_VERSION
        );
        let switch = matches!(&request, Request::Pipeline);
        let response = dispatch_control(shared, &conn.state, request);
        deposit(shared, &conn.state, id, request_len, response);
        if version_mismatch {
            // an incompatible client's later frames could decode to
            // nonsense; the lossless rejection above is the last frame
            // this connection gets
            conn.close_intake();
        }
        if switch {
            // the acknowledgement above went out untagged; every later
            // frame both ways carries a correlation id
            conn.pipelined = true;
        }
        return true;
    }
    // data op: resolve the namespace snapshot now, so an Attach later
    // in the pipeline cannot retroactively change it
    let attached = conn.state.attached.lock().clone();
    let mount = match &attached {
        Some(name) => match shared.registry.get(name) {
            Some(m) => m,
            None => {
                deposit(
                    shared,
                    &conn.state,
                    id,
                    request_len,
                    proto::resp_storage_err(&StorageError::NotFound(format!(
                        "dataset {name:?} is not mounted"
                    ))),
                );
                return true;
            }
        },
        None => match shared.registry.default_mount() {
            Some(m) => m,
            None => {
                deposit(
                    shared,
                    &conn.state,
                    id,
                    request_len,
                    proto::resp_proto_err(
                        "no dataset attached and the hub has no default mount; send Attach",
                    ),
                );
                return true;
            }
        },
    };
    // a query whose exact text a worker has canonicalized before is
    // answered here and now: no job, no queue, no worker, no wake-up
    if let Request::Query {
        reference,
        text,
        options,
    } = &request
    {
        if let Some(frame) = cached_answer(shared, &mount, reference, text, *options, trace) {
            let flush = SpanTimer::start();
            deposit(shared, &conn.state, id, request_len, frame);
            flush.record(&shared.obs.flush);
            return true;
        }
    }
    // lossless back-pressure: over-cap (pipelined connections only — an
    // untagged one is never sliced with a request in flight) or
    // queue-full answers Busy in this request's place in the stream
    // instead of blocking the loop
    let cap = shared.opts.max_inflight_per_conn.max(1);
    let trace_id = trace.map_or(0, |(id, _)| id);
    if conn.state.inflight.load(Ordering::Acquire) >= cap {
        shared.stats.busy_rejections.inc();
        shared.obs.recorder.record(
            FlightEvent::BUSY,
            trace_id,
            format!("conn {} over in-flight cap {cap}", conn.state.token),
        );
        deposit(
            shared,
            &conn.state,
            id,
            request_len,
            proto::resp_busy(&format!(
                "connection has {cap} requests in flight; back off and retry"
            )),
        );
        return true;
    }
    conn.state.inflight.fetch_add(1, Ordering::AcqRel);
    shared.in_flight.fetch_add(1, Ordering::AcqRel);
    let job = Job {
        conn: conn.state.clone(),
        id,
        request_len,
        mount,
        request,
        enqueued_at: Instant::now(),
        trace,
    };
    if !shared.queue.try_push(job) {
        conn.state.inflight.fetch_sub(1, Ordering::AcqRel);
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        shared.stats.busy_rejections.inc();
        shared.obs.recorder.record(
            FlightEvent::BUSY,
            trace_id,
            format!("worker queue of {} full", shared.opts.queue_depth),
        );
        deposit(
            shared,
            &conn.state,
            id,
            request_len,
            proto::resp_busy(&format!(
                "worker queue of {} is full; back off and retry",
                shared.opts.queue_depth
            )),
        );
    }
    true
}

/// Answer a control op inline on the event loop.
fn dispatch_control(shared: &Shared, conn: &ConnShared, request: Request) -> Vec<u8> {
    match request {
        Request::Ping => proto::resp_unit(),
        Request::Hello { version } => proto::hello_response(version),
        Request::Pipeline => proto::resp_unit(),
        Request::Attach { dataset } => match shared.registry.get(&dataset) {
            Some(_) => {
                *conn.attached.lock() = Some(dataset);
                proto::resp_unit()
            }
            None => proto::resp_storage_err(&StorageError::NotFound(format!(
                "dataset {dataset:?} is not mounted"
            ))),
        },
        Request::Mount { dataset } => match &shared.backing {
            Some(backing) => {
                let scoped: DynProvider = match DatasetRegistry::valid_name(&dataset) {
                    Ok(()) => Arc::new(PrefixProvider::new(
                        backing.clone(),
                        format!("{WIRE_MOUNT_PREFIX}/{dataset}"),
                    )),
                    Err(e) => return proto::resp_storage_err(&StorageError::Io(e)),
                };
                match shared.registry.mount(&dataset, scoped) {
                    Ok(_) => {
                        shared
                            .obs
                            .recorder
                            .record(FlightEvent::MOUNT, 0, dataset.clone());
                        shared.wire_mounts.lock().insert(dataset);
                        proto::resp_unit()
                    }
                    // two clients racing the same wire mount define the
                    // IDENTICAL namespace (name → fixed prefix on the
                    // backing store), so the loser's re-mount is success
                    // — but a name bound to some other backend must not
                    // be silently aliased
                    Err(_) if shared.wire_mounts.lock().contains(&dataset) => proto::resp_unit(),
                    Err(e) => proto::resp_storage_err(&StorageError::Io(e)),
                }
            }
            None => proto::resp_storage_err(&StorageError::Io(
                "this hub has no backing store for wire mounts".into(),
            )),
        },
        Request::Unmount { dataset } => {
            if let Some(mounted) = shared.registry.unmount(&dataset) {
                mounted.invalidate();
                shared.cache.invalidate_dataset(&dataset);
                shared.wire_mounts.lock().remove(&dataset);
                shared
                    .obs
                    .recorder
                    .record(FlightEvent::UNMOUNT, 0, dataset.clone());
                shared
                    .obs
                    .recorder
                    .record(FlightEvent::CACHE_INVALIDATE, 0, dataset);
            }
            proto::resp_unit()
        }
        Request::Metrics => proto::resp_metrics(&shared.obs.snapshot()),
        Request::Health => proto::resp_health(&proto::HealthReport {
            uptime_ms: shared.started.elapsed().as_millis() as u64,
            in_flight: shared.in_flight.load(Ordering::Acquire) as u64,
            queue_depth: shared.queue.len() as u64,
            queue_cap: shared.opts.queue_depth as u64,
            datasets: shared.registry.list(),
            proto_version: proto::PROTO_VERSION,
            tracing: true,
            events: shared.obs.recorder.events(),
        }),
        Request::ListDatasets => proto::resp_list(&shared.registry.list()),
        Request::WhereIs { dataset } => match &shared.placement {
            Some(resolve) => match resolve(&dataset) {
                Ok((epoch, replicas)) => proto::resp_placement(epoch, &replicas),
                Err(e) => proto::resp_storage_err(&e),
            },
            None => proto::resp_proto_err(
                "this hub is not part of a cluster; WhereIs has no placement to answer",
            ),
        },
        Request::Describe => match conn.attached.lock().clone() {
            Some(name) => match shared.registry.get(&name) {
                Some(m) => proto::resp_str(&m.provider.describe()),
                None => proto::resp_storage_err(&StorageError::NotFound(format!(
                    "dataset {name:?} is not mounted"
                ))),
            },
            None => match shared.registry.default_mount() {
                Some(m) => proto::resp_str(&m.provider.describe()),
                None => proto::resp_str(&format!(
                    "hub({} datasets, no default)",
                    shared.registry.len()
                )),
            },
        },
        other => proto::resp_proto_err(&format!("{other:?} is not a control op")),
    }
}

// ---------------------------------------------------------------------
// worker stage
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop(&shared.drain) {
        let queue_wait_ns = job.enqueued_at.elapsed().as_nanos() as u64;
        shared.obs.queue_wait.record(queue_wait_ns);
        let ctx = JobCtx {
            queue_wait_ns,
            trace: job.trace,
        };
        let response = dispatch_data(shared, &job.mount, job.request, &ctx);
        let flush = SpanTimer::start();
        deposit(shared, &job.conn, job.id, job.request_len, response);
        flush.record(&shared.obs.flush);
        job.conn.inflight.fetch_sub(1, Ordering::AcqRel);
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        request_flush(shared, &job.conn);
    }
}

/// A write was routed into `mount`: forget head memos and drop cached
/// results that were computed against a mutable tip. Entries pinned to
/// committed versions survive (committed nodes are immutable).
fn invalidate_for_write(shared: &Shared, mount: &Mounted) {
    mount.invalidate();
    shared.cache.invalidate_mutable(&mount.name);
}

/// Answer a data op against the resolved mount, on a pool worker.
fn dispatch_data(shared: &Shared, mount: &Arc<Mounted>, request: Request, ctx: &JobCtx) -> Frame {
    let p = &mount.provider;
    let response = match request {
        Request::Query {
            reference,
            text,
            options,
        } => return handle_query(shared, mount, &reference, &text, options, ctx),
        Request::Get { key } => match p.get(&key) {
            Ok(data) => proto::resp_bytes(&data),
            Err(e) => proto::resp_storage_err(&e),
        },
        Request::GetRange { key, start, end } => match p.get_range(&key, start, end) {
            Ok(data) => proto::resp_bytes(&data),
            Err(e) => proto::resp_storage_err(&e),
        },
        Request::Put { key, value } => {
            let outcome = p.put(&key, value);
            invalidate_for_write(shared, mount);
            match outcome {
                Ok(()) => proto::resp_unit(),
                Err(e) => proto::resp_storage_err(&e),
            }
        }
        Request::Delete { key } => {
            let outcome = p.delete(&key);
            invalidate_for_write(shared, mount);
            match outcome {
                Ok(()) => proto::resp_unit(),
                Err(e) => proto::resp_storage_err(&e),
            }
        }
        Request::Exists { key } => match p.exists(&key) {
            Ok(v) => proto::resp_bool(v),
            Err(e) => proto::resp_storage_err(&e),
        },
        Request::LenOf { key } => match p.len_of(&key) {
            Ok(v) => proto::resp_u64(v),
            Err(e) => proto::resp_storage_err(&e),
        },
        Request::List { prefix } => match p.list(&prefix) {
            Ok(keys) => proto::resp_list(&keys),
            Err(e) => proto::resp_storage_err(&e),
        },
        Request::DeletePrefix { prefix } => {
            let outcome = p.delete_prefix(&prefix);
            invalidate_for_write(shared, mount);
            match outcome {
                Ok(()) => proto::resp_unit(),
                Err(e) => proto::resp_storage_err(&e),
            }
        }
        Request::GetMany { requests } => {
            let text = format_args!("GETMANY {} keys", requests.len());
            let results = timed_read(shared, mount, ctx, text, |p| p.get_many(&requests));
            proto::resp_results(&results)
        }
        Request::Execute {
            gap_tolerance,
            requests,
        } => {
            let n = requests.len();
            let mut plan = ReadPlan::with_gap_tolerance(gap_tolerance);
            for r in requests {
                plan.push(r);
            }
            let text = format_args!("EXECUTE {n} ranges");
            let outcome = timed_read(shared, mount, ctx, text, |p| p.execute(&plan));
            proto::resp_execute(outcome.fetches, &outcome.results)
        }
        other => proto::resp_proto_err(&format!("{other:?} is not a data op")),
    };
    response.into()
}

/// Run one batched read op (`Execute`/`GetMany`) against the mount and
/// account it: service time into `hub.read_ns`, and — when the op is
/// over the slow threshold — a slow-log entry shaped exactly like a
/// query's (see [`log_slow`]). This is what connects a loader worker's
/// fetch span to the hub stages that served it: the loader sends its
/// fetch `Execute` under an ambient trace context, and the entry's
/// `parent_span` is that fetch span's id.
fn timed_read<T>(
    shared: &Shared,
    mount: &Arc<Mounted>,
    ctx: &JobCtx,
    text: std::fmt::Arguments<'_>,
    read: impl FnOnce(&TimingProvider) -> T,
) -> T {
    let timed = TimingProvider::new(mount.provider.clone());
    let exec = SpanTimer::start();
    let out = read(&timed);
    let execute_ns = exec.record(&shared.obs.read);
    let total_ns = ctx.queue_wait_ns + execute_ns;
    if total_ns >= shared.opts.slow_query_threshold.as_nanos() as u64 {
        let stages = [
            ("queue_wait", ctx.queue_wait_ns),
            ("execute", execute_ns),
            ("storage", timed.nanos()),
        ];
        let text = text.to_string();
        log_slow(shared, mount, ctx, String::new(), text, total_ns, &stages);
    }
    out
}

/// Push one slow-log entry: a fresh root span (`parent_span` = the
/// client's span from the trace envelope) with `stages` as its children
/// in order — except `storage`, which hangs under the `execute` stage
/// listed before it.
fn log_slow(
    shared: &Shared,
    mount: &Mounted,
    ctx: &JobCtx,
    version: String,
    text: String,
    total_ns: u64,
    stages: &[(&str, u64)],
) {
    let (trace_id, client_span) = ctx.trace.unwrap_or((0, 0));
    let root_span = next_id();
    let mut execute_span = root_span;
    let spans = stages
        .iter()
        .map(|&(name, dur_ns)| {
            let span_id = next_id();
            let parent_span = if name == "storage" {
                execute_span
            } else {
                root_span
            };
            if name == "execute" {
                execute_span = span_id;
            }
            SpanRecord {
                name: name.into(),
                span_id,
                parent_span,
                dur_ns,
            }
        })
        .collect();
    shared.obs.slowlog.push(SlowQueryEntry {
        trace_id,
        root_span,
        parent_span: client_span,
        dataset: mount.name.clone(),
        version,
        text,
        total_ns,
        spans,
    });
}

/// Resolve `reference` to its head node id with ONE storage read (the
/// version tree), instead of a full `Dataset::open_at` — the difference
/// between a cache hit costing one round trip after a memo invalidation
/// and costing a whole re-execution.
fn resolve_reference(provider: &DynProvider, reference: &str) -> Result<String, String> {
    let raw = provider
        .get(deeplake_core::version::VERSION_INFO_KEY)
        .map_err(|e| e.to_string())?;
    let tree = deeplake_core::version::VersionTree::from_json(&raw).map_err(|e| e.to_string())?;
    tree.resolve(reference).map_err(|e| e.to_string())
}

/// The event loop's share of query serving: answer from the result
/// cache when a worker has already canonicalized this exact text against
/// the reference's memoized head. One head-memo probe and
/// [`ResultCache::lookup_raw`] — no TQL parse, no storage read. `None`
/// (text not seen yet, no head memo, entry evicted or invalidated) sends
/// the request to the pool, and nothing has been counted for it.
fn cached_answer(
    shared: &Shared,
    mount: &Mounted,
    reference: &str,
    text: &str,
    options: QueryOptions,
    trace: Option<(u64, u64)>,
) -> Option<Frame> {
    let lookup = SpanTimer::start();
    let head = mount.head_memo(reference)?;
    let (key, frame) = shared.cache.lookup_raw(&mount.name, &head, text, options)?;
    let cache_lookup_ns = lookup.record(&shared.obs.cache_lookup);
    shared.stats.queries.inc();
    shared.obs.queries_rate.inc();
    let ctx = JobCtx {
        queue_wait_ns: 0,
        trace,
    };
    let stages = [
        ("queue_wait", 0),
        ("cache_lookup", cache_lookup_ns),
        ("execute", 0),
        ("storage", 0),
    ];
    account_query(
        shared,
        mount,
        &ctx,
        &frame,
        cache_lookup_ns,
        &stages,
        || (key.version.clone(), key.text.clone()),
    );
    Some(frame)
}

/// What every answered query records, on the loop or on a worker: the
/// rolling latency window, the error rate, and — over the threshold —
/// a slow-log entry whose `(version, text)` `describe` renders.
fn account_query(
    shared: &Shared,
    mount: &Mounted,
    ctx: &JobCtx,
    frame: &[u8],
    total_ns: u64,
    stages: &[(&str, u64)],
    describe: impl FnOnce() -> (String, String),
) {
    shared.obs.query_window.record(total_ns);
    if frame.first() != Some(&proto::STATUS_OK) {
        shared.obs.errors_rate.inc();
    }
    if total_ns >= shared.opts.slow_query_threshold.as_nanos() as u64 {
        let (version, text) = describe();
        log_slow(shared, mount, ctx, version, text, total_ns, stages);
    }
}

/// Execute (or serve from cache) one offloaded query, on a pool worker.
///
/// Only a query the event loop could not answer by its raw text
/// ([`cached_answer`]) gets here: the first arrival of a text, or one
/// whose head memo or entry is gone. The fast path is `head memo →
/// canonical-text key → shared frame`, with **zero** storage round trips
/// and zero query planning (one round trip to re-resolve the head when
/// a write cleared the memo). The slow path executes exactly as PR 4's
/// server did, then installs the memo + cache entry — both gated on the
/// mount's invalidation epoch so a racing write can never trap a stale
/// result in the cache. Either way the raw text is then recorded against
/// the canonical key, so the next arrival of it never leaves the loop.
fn handle_query(
    shared: &Shared,
    mount: &Arc<Mounted>,
    reference: &str,
    text: &str,
    options: QueryOptions,
    ctx: &JobCtx,
) -> Frame {
    shared.stats.queries.inc();
    shared.obs.queries_rate.inc();
    let total = SpanTimer::start();
    // per-query storage attribution: the nanoseconds this query kept the
    // mount's storage busy — head resolution and a dataset open when
    // they happen, then what the executor's batched chunk fetches took
    // (`QueryStats::fetch_ns`, summed over its scan threads). Reads made
    // on the mount's shared handle belong to no per-query wrapper, so
    // the executor's own ledger is what attributes them.
    let mut storage_ns = 0;
    let epoch = mount.epoch();
    // one parse serves canonicalization, cacheability analysis and (via
    // the canonical text) every whitespace/case variant of this query
    let parsed = parser::parse(text).ok();
    let text_key = parsed
        .as_ref()
        .and_then(|q| canonical::render_query(q).ok());
    let lookup = SpanTimer::start();
    let resolved = match mount.head_memo(reference) {
        Some(memo) => Some(memo),
        None => {
            let (head, ns) = mount.timed(|p| resolve_reference(p, reference));
            storage_ns += ns;
            match head {
                Ok(head) => {
                    mount.memoize_head(reference, head.clone(), epoch);
                    Some(head)
                }
                // let the dataset open below render the error (a hub can
                // be queried before any dataset exists under the mount)
                Err(_) => None,
            }
        }
    };
    let key = match (&text_key, &resolved) {
        (Some(tk), Some(head)) => Some(CacheKey {
            dataset: mount.name.clone(),
            version: head.clone(),
            text: tk.clone(),
            options,
        }),
        _ => None,
    };
    let hit = key.as_ref().and_then(|key| shared.cache.lookup(key));
    let cache_lookup_ns = lookup.record(&shared.obs.cache_lookup);
    let (frame, version, execute_ns) = match hit {
        // the stored frame itself
        Some(frame) => (frame, resolved, 0),
        None => {
            let exec = SpanTimer::start();
            let (frame, version, execute_storage_ns) = execute_query(
                shared, mount, reference, text, options, epoch, parsed, &text_key,
            );
            let execute_ns = exec.record(&shared.obs.execute);
            storage_ns += execute_storage_ns;
            // recorded per cache MISS only: hits cost zero (or one
            // memoized head re-resolution) storage nanoseconds, and on a
            // hot-cache workload those near-zero samples would drag
            // hub.storage_ns p50/p99 far below the real round-trip
            // latency the histogram exists to size
            shared.obs.storage.record(storage_ns);
            (frame, version, execute_ns)
        }
    };
    if let Some(key) = &key {
        // a no-op unless the entry is cached (errors, and results a
        // racing write refused, are not)
        shared.cache.alias(key, text);
    }
    let total_ns = ctx.queue_wait_ns + total.stop();
    let stages = [
        ("queue_wait", ctx.queue_wait_ns),
        ("cache_lookup", cache_lookup_ns),
        ("execute", execute_ns),
        ("storage", storage_ns),
    ];
    account_query(shared, mount, ctx, &frame, total_ns, &stages, || {
        // the canonical rendering, never the raw client bytes
        let text = text_key.unwrap_or_else(|| "<unparseable>".into());
        (version.unwrap_or_default(), text)
    });
    frame
}

/// The cache-miss path: execute on the mount's shared handle for
/// `reference` (opening it when this epoch has none yet), install the
/// head memo and (when cacheable) the result-cache entry. Returns the
/// response frame, the head the query resolved to, and the storage
/// nanoseconds to attribute to the query.
#[allow(clippy::too_many_arguments)]
fn execute_query(
    shared: &Shared,
    mount: &Arc<Mounted>,
    reference: &str,
    text: &str,
    options: QueryOptions,
    epoch: u64,
    parsed: Option<deeplake_tql::ast::Query>,
    text_key: &Option<String>,
) -> (Frame, Option<String>, u64) {
    // one handle per reference per epoch: every write routed through the
    // hub, `HubHandle::invalidate` and unmount drop it with the head
    // memo, so it serves the storage's state as of the last write the
    // hub knows of — what the result cache serves, too. Reads are
    // `&self`: pool workers execute on it concurrently. (`AT VERSION`
    // still reopens per query inside the executor.)
    let mut storage_ns = 0;
    let handle = mount.dataset(reference, epoch, || {
        shared.stats.dataset_opens.inc();
        let (ds, ns) = mount.timed(|p| Dataset::open_at(p.clone(), reference));
        storage_ns = ns;
        ds
    });
    let ds = match handle {
        Ok(ds) => ds,
        Err(e) => {
            return (
                proto::resp_query_err(&format!("open {reference:?}: {e}")).into(),
                None,
                storage_ns,
            )
        }
    };
    let head = ds.head_id().to_string();
    let outer_committed = ds.is_read_only();
    mount.memoize_head(reference, head.clone(), epoch);
    match deeplake_tql::query_opts(&ds, text, &options) {
        Ok(result) => {
            storage_ns += result.stats.fetch_ns;
            let frame: Frame = proto::resp_query(&result).into();
            if let (Some(tk), Some(q)) = (text_key, parsed) {
                // pinned = the result can never change: the version the
                // rows refer to is a committed (immutable) node — the
                // outer reference for plain queries, the reopened
                // AT-VERSION dataset otherwise
                let pinned = match q.version {
                    None => outer_committed,
                    Some(_) => result
                        .dataset
                        .as_ref()
                        .map(|d| d.is_read_only())
                        .unwrap_or(false),
                };
                let key = CacheKey {
                    dataset: mount.name.clone(),
                    version: head.clone(),
                    text: tk.clone(),
                    options,
                };
                shared
                    .cache
                    .insert_if(key, frame.clone(), pinned, || mount.epoch() == epoch);
            }
            (frame, Some(head), storage_ns)
        }
        Err(e) => (
            proto::resp_query_err(&e.to_string()).into(),
            Some(head),
            storage_ns,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(frames: &[(Option<u64>, &[u8])]) -> OutState {
        let mut out = OutState::default();
        for &(id, body) in frames {
            let frame = OutFrame::new(id, Arc::new(body.to_vec()));
            out.buffered += frame.len();
            out.wbuf.push_back(frame);
        }
        out
    }

    fn wire(out: &OutState) -> Vec<u8> {
        out.unwritten().flatten().copied().collect()
    }

    /// The bytes a queued response puts on the wire, to the byte: the
    /// frame the previous `deposit` built by copying.
    #[test]
    fn queued_frames_are_the_golden_wire_bytes() {
        let tagged = queued(&[(Some(0x0102_0304_0506_0708), &[0, 7, 7])]);
        assert_eq!(
            wire(&tagged),
            [11, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 0, 7, 7],
            "[len = id + body][id][body]"
        );
        let untagged = queued(&[(None, &[0, 7, 7])]);
        assert_eq!(wire(&untagged), [3, 0, 0, 0, 0, 7, 7], "[len][body]");
        assert_eq!(untagged.buffered, 7);
    }

    /// `consume(n)` for every `n`, alone and as the first of two partial
    /// writes: what is left is exactly the unsent suffix, `buffered`
    /// counts it, and no slice handed to `writev` is empty.
    #[test]
    fn consume_splits_three_frames_at_every_byte() {
        let frames: [(Option<u64>, &[u8]); 3] = [
            (Some(7), b"first"),
            (None, b"2"),
            (Some(9), b"third response"),
        ];
        let all = wire(&queued(&frames));
        assert_eq!(all.len(), (12 + 5) + (4 + 1) + (12 + 14));
        for n in 0..=all.len() {
            let mut out = queued(&frames);
            out.consume(n);
            assert_eq!(wire(&out), all[n..], "after {n} bytes");
            assert_eq!(out.buffered, all.len() - n);
            assert!(out.unwritten().all(|s| !s.is_empty()));
            assert_eq!(out.wbuf.is_empty(), n == all.len());
            for m in 0..=all.len() - n {
                let mut again = queued(&frames);
                again.consume(n);
                again.consume(m);
                assert_eq!(wire(&again), all[n + m..], "after {n} + {m} bytes");
                assert_eq!(again.buffered, all.len() - n - m);
            }
        }
    }
}
