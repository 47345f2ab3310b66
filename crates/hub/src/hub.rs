//! The hub runtime's frame: options, counters, the state every part
//! shares, the builder, the handle, and shutdown.
//!
//! **Owns:** [`HubOptions`], [`HubStats`], the observability plane, the
//! `Shared` state the parts below hang off, binding the listener and
//! spawning the threads, and the shutdown sequence. [`HubHandle`]'s
//! control methods are the local forms of the wire ops and call the same
//! implementations ([`dispatch::control`](crate::dispatch::control)).
//!
//! **May not touch:** a connection, a frame or a socket other than the
//! listener it binds. The request path is four parts, each documented in
//! its own module: [`conn`](crate::conn) (one connection as a pure state
//! machine), [`sched`](crate::sched) (bounded queue, `Busy` policy),
//! [`dispatch`](crate::dispatch) (what a frame becomes), and
//! [`driver`](crate::driver) (sockets, poller, clock, threads).

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use deeplake_obs::{
    Counter, FlightRecorder, Histogram, MetricsRegistry, MetricsSnapshot, RateWindow, SlowQueryLog,
    WindowedHistogram,
};
use deeplake_remote::proto;
use deeplake_storage::{DynProvider, StorageError, StorageStats};
use parking_lot::Mutex;
use polling::Interest;

use crate::cache::ResultCache;
use crate::dispatch::control;
use crate::driver::{self, LoopShared, LISTEN_KEY};
use crate::registry::DatasetRegistry;
use crate::sched::Scheduler;

/// Slow-query ring capacity: the most recent entries, read oldest first
/// via [`HubHandle::metrics`] or the wire `Metrics` opcode.
const SLOW_LOG_ENTRIES: usize = 64;

/// Flight-recorder ring capacity: how many recent notable events —
/// connections cut, `Busy` rejections, stall cuts, mount changes,
/// observed node deaths — the hub retains for `Metrics`, `Health` and
/// [`HubHandle::flight_recorder`].
const FLIGHT_EVENTS: usize = 128;

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
    /// it): it bounds result frames only, not parsed chunks, whose one
    /// pool per hub keeps the chunk cache's own rule. Sizing guidance:
    /// roughly `hot queries × mean result frame`; watch
    /// `cache().evictions()` climb to spot a budget that is too small for
    /// the hot set.
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
    pub(crate) requests: Counter,
    pub(crate) queries: Counter,
    pub(crate) busy_rejections: Counter,
    pub(crate) peak_conn_buffered: Counter,
    pub(crate) dataset_opens: Counter,
    pub(crate) panics: Counter,
    pub(crate) wire: StorageStats,
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

    /// Requests whose execution panicked on a pool worker, each answered
    /// with an error frame instead of taking the worker down.
    pub fn panics(&self) -> u64 {
        self.panics.get()
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
        registry.register_counter("hub.panics", &self.panics);
        self.wire.register_into(registry, "hub.wire");
    }
}

/// The hub's observability plane: the instrument registry plus the
/// handful of histograms hot paths record into, resolved once at bind
/// time so the record path never takes the registry's name-map lock.
pub(crate) struct HubObs {
    pub(crate) registry: MetricsRegistry,
    pub(crate) slowlog: SlowQueryLog,
    /// Always-on ring of notable events (connections cut, `Busy`
    /// rejections, mount changes, observed node deaths).
    pub(crate) recorder: FlightRecorder,
    /// Job pop time minus enqueue time (`hub.queue_wait_ns`).
    pub(crate) queue_wait: Histogram,
    /// Head resolution + result-cache probe (`hub.cache_lookup_ns`).
    pub(crate) cache_lookup: Histogram,
    /// TQL execution on a cache miss, with the dataset open when the
    /// mount has no handle for this epoch yet (`hub.execute_ns`).
    pub(crate) execute: Histogram,
    /// Service time of batched reads (`Execute`) on a pool
    /// worker (`hub.read_ns`) — the hub-side cost of one loader worker
    /// task's scatter-gather fetch, queue wait excluded.
    pub(crate) read: Histogram,
    /// Nanoseconds a missed query kept the mounted provider busy
    /// (`hub.storage_ns`): head resolution, the dataset open when one
    /// happens, and the executor's batched chunk fetches — a child of
    /// the execute span.
    pub(crate) storage: Histogram,
    /// Depositing the finished response onto the connection's write
    /// queue (`hub.flush_ns`).
    pub(crate) flush: Histogram,
    /// Queries admitted in the last 1/10/60 s (`hub.queries_rate`).
    pub(crate) queries_rate: RateWindow,
    /// Non-OK query responses in the last 1/10/60 s
    /// (`hub.errors_rate`).
    pub(crate) errors_rate: RateWindow,
    /// Response bytes committed in the last 1/10/60 s
    /// (`hub.bytes_out_rate`).
    pub(crate) bytes_out_rate: RateWindow,
    /// Rolling end-to-end query latency (`hub.query_ns.w1/.w10/.w60`)
    /// — p50/p99 over the recent windows, where `hub.execute_ns` only
    /// gives lifetime quantiles.
    pub(crate) query_window: WindowedHistogram,
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
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.slow_queries = self.slowlog.entries();
        snap.events = self.recorder.events();
        snap
    }
}

/// What every part of a running hub shares.
pub(crate) struct Shared {
    pub(crate) registry: DatasetRegistry,
    pub(crate) cache: ResultCache,
    /// Backing store wire-`Mount`s are namespaced on (`None` = wire
    /// mounts refused; server-side mounts always work).
    pub(crate) backing: Option<DynProvider>,
    /// Names created by wire `Mount` requests. A wire mount is fully
    /// determined by its name (a fixed prefix on the backing store), so
    /// a racing re-`Mount` of a name in this set is idempotent success —
    /// while a name bound to any *other* backend must never be aliased.
    pub(crate) wire_mounts: Mutex<std::collections::HashSet<String>>,
    /// Cluster placement resolver (`None` = this hub is not a cluster
    /// node; `WhereIs` answers a lossless protocol error).
    pub(crate) placement: Option<PlacementFn>,
    pub(crate) stats: HubStats,
    pub(crate) obs: HubObs,
    pub(crate) sched: Scheduler,
    /// One mailbox per event loop (none when a test drives the request
    /// path without the driver).
    pub(crate) loops: Vec<Arc<LoopShared>>,
    pub(crate) next_token: AtomicU64,
    /// When the listener bound — `Health` reports uptime from it.
    pub(crate) started: Instant,
    /// Loops stop accepting and (after slicing what they buffered)
    /// reading.
    pub(crate) shutdown: AtomicBool,
    /// Workers joined: loops flush their last bytes and exit.
    pub(crate) drain_done: AtomicBool,
    /// How many loops finished intake; shutdown waits on the condvar.
    pub(crate) intake_done: StdMutex<usize>,
    pub(crate) intake_cv: Condvar,
    pub(crate) opts: HubOptions,
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

    /// The state a hub's parts share, with this builder's mounts and
    /// options — everything `bind` sets up short of sockets and threads.
    pub(crate) fn build(self, loops: Vec<Arc<LoopShared>>) -> std::io::Result<Arc<Shared>> {
        let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
        let registry = DatasetRegistry::new();
        for (name, provider) in self.mounts {
            registry.mount(&name, provider).map_err(invalid)?;
        }
        if let Some(provider) = self.default {
            let mounted = registry.mount("default", provider).map_err(invalid)?;
            registry.set_default(mounted);
        }
        let stats = HubStats::default();
        let obs = HubObs::new();
        let sched = Scheduler::new(self.opts.queue_depth, self.opts.max_inflight_per_conn);
        stats.register_into(&obs.registry);
        let cache = ResultCache::new(self.opts.cache_bytes);
        cache.stats().register_into(&obs.registry, "hub.cache");
        Ok(Arc::new(Shared {
            registry,
            cache,
            backing: self.backing,
            wire_mounts: Mutex::new(std::collections::HashSet::new()),
            placement: self.placement,
            stats,
            obs,
            sched,
            loops,
            next_token: AtomicU64::new(0),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            drain_done: AtomicBool::new(false),
            intake_done: StdMutex::new(0),
            intake_cv: Condvar::new(),
            opts: self.opts,
        }))
    }

    /// Bind `addr` (port 0 for ephemeral) and start serving. Returns
    /// immediately; the hub runs on background threads until
    /// [`HubHandle::shutdown`].
    pub fn bind(self, addr: impl ToSocketAddrs) -> std::io::Result<HubHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let n_loops = self.opts.reader_threads.max(1);
        let loops = (0..n_loops)
            .map(|_| LoopShared::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        loops[0]
            .poller
            .add(listener.as_raw_fd(), LISTEN_KEY, Interest::READ)?;
        let shared = self.build(loops)?;
        let workers: Vec<std::thread::JoinHandle<()>> = (0..shared.opts.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || driver::worker_loop(&shared))
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
                driver::event_loop(&shared, idx, listener)
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
        control::health(&self.shared)
    }

    /// How many event-loop reader threads multiplex this hub's
    /// connections — fixed at bind time, independent of how many
    /// connections are served.
    pub fn reader_threads(&self) -> usize {
        self.shared.loops.len()
    }

    /// Mount `provider` under `name` at runtime.
    pub fn mount(&self, name: &str, provider: DynProvider) -> Result<(), StorageError> {
        control::mount(&self.shared, name, provider).map_err(StorageError::Io)
    }

    /// Unmount `name` (storage untouched); returns whether it existed.
    /// Cached results and head memos for the dataset are dropped.
    pub fn unmount(&self, name: &str) -> bool {
        control::unmount(&self.shared, name)
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
        control::invalidate(&self.shared, name)
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
    /// response for each request that was admitted, then EOF — never a
    /// reset: a peer that was mid-conversation is half-closed and read
    /// until its own EOF (or until it goes quiet, or `stall_timeout`), so
    /// shutdown waits for it.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        let shared = &self.shared;
        let wake_loops = || shared.loops.iter().for_each(|l| drop(l.poller.notify()));
        shared.shutdown.store(true, Ordering::Release);
        wake_loops();
        let done = shared.intake_done.lock().unwrap();
        drop(
            shared
                .intake_cv
                .wait_while(done, |d| *d < shared.loops.len()),
        );
        // intake is closed on every loop (`Conn::close_intake`): no new
        // job can appear, so the workers may exit on empty
        shared.sched.drain();
        for h in std::mem::take(&mut self.workers) {
            let _ = h.join();
        }
        // every response is deposited; let the loops flush and exit
        shared.drain_done.store(true, Ordering::Release);
        wake_loops();
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
