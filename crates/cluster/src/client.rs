//! Client-side placement routing: discover once, route reads to an
//! owning replica, write through to all of them, fail over when a node
//! dies mid-request.
//!
//! A [`ClusterClient`] holds only a *seed list* of node addresses.
//! Opening a dataset asks any reachable seed `WhereIs(name)` and caches
//! the answer — `(epoch, live replica addresses)` — in the returned
//! [`ClusterMount`]. From then on every operation is routed directly to
//! a replica that owns the data; no proxy hop, no per-request metadata
//! lookup. The mount implements [`StorageProvider`], so datasets, TQL
//! offload and loaders run against a cluster *unchanged*.
//!
//! Routing policy. One fact drives every decision: *did the node
//! answer?* [`RemoteProvider::call`] returns it as a type — `Err` when
//! the node did not answer (dial or transport failure, `Busy` after the
//! remote client's own bounded retries), `Ok` with the decoded answer
//! otherwise, an answered error included. No decision reads an error's
//! text. Queries, placement lookups, metric scrapes and health probes
//! act only on "did not answer": an answered error (an unknown column,
//! a `NotFound`, a protocol refusal) is the node's verdict, and every
//! replica would repeat it. Storage ops also fail over when a replica's
//! own store answers `Io` or `Busy`: that is the replica failing, not
//! the data.
//!
//! * **Reads** rotate round-robin over the replica set (spreading load)
//!   and move to the next replica on such a failure. Reads are pure and
//!   idempotent, so retrying elsewhere is always safe. Only when every
//!   replica fails does the mount refresh its placement (the map may
//!   have changed under it) and try one more round.
//! * **Writes** go to **all** R replicas. At least one ack is required;
//!   replicas that failed are dropped from this mount's read rotation
//!   (read-your-writes: a subsequent read can only land on a replica
//!   that took the write) until the next placement refresh, when the
//!   map's view — and, in a full system, re-replication — takes over.
//! * **Queries** ship TQL text to one owning replica through the same
//!   read loop; each node's version-pinned result cache makes repeated
//!   hot queries a frame copy.
//!
//! The epoch rides along so stale placements are detected instead of
//! trusted: any refresh answering with a newer epoch replaces the
//! cached one; an older answer (a node that has not heard the news yet)
//! is ignored.

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use deeplake_obs::{Counter, MetricsRegistry, MetricsSnapshot, SpanRecord};
use deeplake_remote::proto::{self, Request};
use deeplake_remote::{RemoteOptions, RemoteProvider};
use deeplake_storage::{ReadPlan, ReadResult, StorageError, StorageProvider};
use deeplake_tql::{QueryOptions, QueryResult, TqlError};
use parking_lot::{Mutex, RwLock};

use crate::map::ClusterMap;

/// Routing-client configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterClientOptions {
    /// Per-connection transport options (pool size, injected latency,
    /// `Busy` retry budget) for every replica connection.
    pub remote: RemoteOptions,
}

/// Placement-refresh rounds after every replica in the cached placement
/// failed: each round re-asks the seeds `WhereIs` and retries the whole
/// replica set once. One survives any single membership change between
/// refreshes.
const REFRESH_ROUNDS: usize = 1;

/// A storage op's flattened result: `Io` and `Busy` mean the *node*
/// failed (it did not answer, or its own store did), not the request —
/// another replica can serve it. Everything else is a property of the
/// data and will be identical on every replica.
fn is_transport(e: &StorageError) -> bool {
    matches!(e, StorageError::Io(_) | StorageError::Busy(_))
}

/// Connection cache + seed list shared by every mount of one client.
struct Shared {
    seeds: Vec<String>,
    options: ClusterClientOptions,
    /// `(address, dataset)` → attached connection. The empty dataset is
    /// the un-attached control connection used for `WhereIs`.
    conns: Mutex<HashMap<(String, String), Arc<RemoteProvider>>>,
    /// Client-side instruments: every mount's failover/refresh counters
    /// register here under `cluster.<dataset>.*`, so one snapshot covers
    /// all datasets this client routes to.
    metrics: MetricsRegistry,
    /// The cluster's shared membership map, when attached (the
    /// in-process stand-in for a membership service). The health prober
    /// flips liveness here; `cluster_metrics` scrapes its live set.
    map: Mutex<Option<Arc<RwLock<ClusterMap>>>>,
}

impl Shared {
    /// An attached connection to `addr` (cached; a fresh dial performs
    /// the version handshake and attach replay).
    fn conn(&self, addr: &str, dataset: &str) -> Result<Arc<RemoteProvider>, StorageError> {
        let key = (addr.to_string(), dataset.to_string());
        if let Some(conn) = self.conns.lock().get(&key) {
            return Ok(Arc::clone(conn));
        }
        let provider = RemoteProvider::connect_with(addr, self.options.remote)
            .map_err(|e| StorageError::Io(format!("cluster dial {addr}: {e}")))?;
        if !dataset.is_empty() {
            provider.attach(dataset)?;
        }
        let provider = Arc::new(provider);
        self.conns.lock().insert(key, Arc::clone(&provider));
        Ok(provider)
    }

    /// Forget a connection whose node misbehaved; the next use re-dials.
    fn drop_conn(&self, addr: &str, dataset: &str) {
        self.conns
            .lock()
            .remove(&(addr.to_string(), dataset.to_string()));
    }

    /// One exchange on `addr`'s control connection. The outer `Err`
    /// means the node did not answer; its connection is forgotten so
    /// the next use re-dials — unless it said `Busy`: a node pushing
    /// back is alive and its socket is fine.
    fn ask<T>(
        &self,
        addr: &str,
        request: &Request,
        decode: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, StorageError> {
        let answer = self.conn(addr, "").and_then(|c| c.call(request, decode));
        if matches!(answer, Err(ref e) if !matches!(e, StorageError::Busy(_))) {
            self.drop_conn(addr, "");
        }
        answer
    }

    /// Ask the seeds where `dataset` lives; the highest-epoch answer
    /// wins (a seed that has not heard about a death yet answers with a
    /// lower epoch and is outvoted). Seeds that did not answer are
    /// skipped; an answered refusal (`NotFound`, a non-cluster hub) is
    /// returned only when no seed gave a placement.
    fn where_is_any(&self, dataset: &str) -> Result<(u64, Vec<String>), StorageError> {
        let mut best: Option<(u64, Vec<String>)> = None;
        let mut last_err: Option<StorageError> = None;
        let request = Request::WhereIs {
            dataset: dataset.to_string(),
        };
        for addr in &self.seeds {
            match self.ask(addr, &request, proto::expect_placement) {
                Ok(Ok((epoch, replicas))) => {
                    if best.as_ref().is_none_or(|(e, _)| epoch > *e) {
                        best = Some((epoch, replicas));
                    }
                }
                Ok(Err(e)) | Err(e) => last_err = Some(e),
            }
        }
        best.ok_or_else(|| {
            last_err.unwrap_or_else(|| StorageError::Io("cluster has no reachable seed".into()))
        })
    }
}

/// Entry point: connects to a cluster by seed list and opens datasets.
/// With the cluster map attached ([`ClusterClient::attach_map`]) it can
/// also run the fleet's failure detector
/// ([`ClusterClient::start_prober`]) and aggregate every node's metrics
/// ([`ClusterClient::cluster_metrics`]).
pub struct ClusterClient {
    shared: Arc<Shared>,
    /// The background health prober, when running.
    prober: Mutex<Option<ProberHandle>>,
}

/// Stop-flag + join handle of the background prober thread.
struct ProberHandle {
    stop: Arc<(StdMutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ClusterClient {
    /// A client over `seeds` (any subset of the cluster's addresses —
    /// every node answers placement for every dataset). Connections are
    /// dialed lazily.
    pub fn connect(seeds: Vec<String>) -> io::Result<ClusterClient> {
        Self::connect_with(seeds, ClusterClientOptions::default())
    }

    /// A client with explicit options.
    pub fn connect_with(
        seeds: Vec<String>,
        options: ClusterClientOptions,
    ) -> io::Result<ClusterClient> {
        if seeds.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster client needs at least one seed address",
            ));
        }
        Ok(ClusterClient {
            shared: Arc::new(Shared {
                seeds,
                options,
                conns: Mutex::new(HashMap::new()),
                metrics: MetricsRegistry::new(),
                map: Mutex::new(None),
            }),
            prober: Mutex::new(None),
        })
    }

    /// Attach the cluster's shared membership map, enabling
    /// [`start_prober`](ClusterClient::start_prober) and giving
    /// [`cluster_metrics`](ClusterClient::cluster_metrics) the full
    /// node list to scrape. [`crate::Cluster::client`] does this
    /// automatically.
    pub fn attach_map(&self, map: Arc<RwLock<ClusterMap>>) {
        *self.shared.map.lock() = Some(map);
    }

    /// Start the background health prober: every `interval` it sends
    /// `Health` to each registered address (dead ones included, so
    /// recovery is observed too) and flips the attached map's liveness
    /// from what it sees. Any answer means alive, and so does `Busy`
    /// push-back; a node that did not answer — twice, with a
    /// drop-and-redial between to rule out a stale pooled connection —
    /// is dead. Decisions surface in [`metrics`](ClusterClient::metrics) under
    /// `cluster.probe.*`. Returns `false` when no map is attached or a
    /// prober is already running.
    pub fn start_prober(&self, interval: Duration) -> bool {
        let Some(map) = self.shared.map.lock().clone() else {
            return false;
        };
        let mut slot = self.prober.lock();
        if slot.is_some() {
            return false;
        }
        let stop = Arc::new((StdMutex::new(false), Condvar::new()));
        let shared = Arc::clone(&self.shared);
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            prober_loop(&shared, &map, &thread_stop, interval);
        });
        *slot = Some(ProberHandle {
            stop,
            thread: Some(thread),
        });
        true
    }

    /// Stop the background prober and join its thread. Idempotent;
    /// dropping the client does this too.
    pub fn stop_prober(&self) {
        let handle = self.prober.lock().take();
        if let Some(mut handle) = handle {
            *handle.stop.0.lock().unwrap() = true;
            handle.stop.1.notify_all();
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// Scrape every reachable node's metrics snapshot and fold them
    /// into one fleet view: merged counters/histograms/rates per name,
    /// every node's slow queries and flight events on one timeline,
    /// plus the per-node snapshots for breakdowns. Nodes the attached
    /// map knows (or the seed list, when no map is attached) are
    /// scraped; nodes that do not answer are skipped. Errs only when no
    /// node answered with a snapshot.
    pub fn cluster_metrics(&self) -> Result<ClusterMetrics, StorageError> {
        let addrs: Vec<String> = match self.shared.map.lock().clone() {
            Some(map) => map.read().live_addrs(),
            None => self.shared.seeds.clone(),
        };
        let mut per_node: Vec<(String, MetricsSnapshot)> = Vec::new();
        let mut merged = MetricsSnapshot::default();
        let mut last_err: Option<StorageError> = None;
        for addr in addrs {
            match self
                .shared
                .ask(&addr, &Request::Metrics, proto::expect_metrics)
            {
                Ok(Ok(snap)) => {
                    merged.merge(&snap);
                    per_node.push((addr, snap));
                }
                Ok(Err(e)) | Err(e) => last_err = Some(e),
            }
        }
        if per_node.is_empty() {
            return Err(last_err
                .unwrap_or_else(|| StorageError::Io("cluster has no node to scrape".into())));
        }
        Ok(ClusterMetrics { per_node, merged })
    }

    /// Discover where `dataset` lives and return a routing mount for
    /// it. Fails with the placement's lossless error for unknown names,
    /// or `Io` when no replica is live.
    pub fn open(&self, dataset: &str) -> Result<ClusterMount, StorageError> {
        let (epoch, replicas) = self.shared.where_is_any(dataset)?;
        if replicas.is_empty() {
            return Err(StorageError::Io(format!(
                "dataset '{dataset}': no live replica (map epoch {epoch})"
            )));
        }
        let failovers = self
            .shared
            .metrics
            .counter(&format!("cluster.{dataset}.failovers"));
        let refreshes = self
            .shared
            .metrics
            .counter(&format!("cluster.{dataset}.refreshes"));
        Ok(ClusterMount {
            shared: Arc::clone(&self.shared),
            dataset: dataset.to_string(),
            placement: Mutex::new(Placement { epoch, replicas }),
            cursor: AtomicUsize::new(0),
            failovers,
            refreshes,
        })
    }

    /// Sorted dataset names served by the cluster: the UNION over every
    /// reachable seed. A single node's `ListDatasets` answer is only
    /// its own shard — no node mounts datasets it doesn't own — so one
    /// seed's view understates the catalog whenever the fleet is wider
    /// than the replication factor. Errs only when NO seed is
    /// reachable.
    pub fn list_datasets(&self) -> Result<Vec<String>, StorageError> {
        let mut names = std::collections::BTreeSet::new();
        let mut reachable = false;
        let mut last_err: Option<StorageError> = None;
        for addr in &self.shared.seeds {
            match self
                .shared
                .ask(addr, &Request::ListDatasets, proto::expect_list)
            {
                Ok(Ok(shard)) => {
                    reachable = true;
                    names.extend(shard);
                }
                Ok(Err(e)) | Err(e) => last_err = Some(e),
            }
        }
        if reachable {
            return Ok(names.into_iter().collect());
        }
        Err(last_err.unwrap_or_else(|| StorageError::Io("cluster has no reachable seed".into())))
    }

    /// Snapshot of this client's routing instruments — every open
    /// mount's `cluster.<dataset>.failovers` / `.refreshes` counters,
    /// plus the prober's `cluster.probe.*` decisions when it runs.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }
}

impl Drop for ClusterClient {
    fn drop(&mut self) {
        self.stop_prober();
    }
}

/// The prober thread: probe every registered address, flip the map,
/// sleep until the next round or the stop flag.
fn prober_loop(
    shared: &Shared,
    map: &RwLock<ClusterMap>,
    stop: &(StdMutex<bool>, Condvar),
    interval: Duration,
) {
    let probes = shared.metrics.counter("cluster.probe.probes");
    let deaths = shared.metrics.counter("cluster.probe.deaths");
    let revivals = shared.metrics.counter("cluster.probe.revivals");
    loop {
        let addrs: Vec<String> = map.read().nodes().iter().map(|n| n.addr.clone()).collect();
        for addr in addrs {
            if *stop.0.lock().unwrap() {
                return;
            }
            probes.inc();
            let alive = probe_once(shared, &addr);
            let flipped = {
                let mut m = map.write();
                if alive {
                    m.mark_live(&addr)
                } else {
                    m.mark_dead(&addr)
                }
            };
            if flipped {
                if alive {
                    revivals.inc();
                } else {
                    deaths.inc();
                }
            }
        }
        let deadline = Instant::now() + interval;
        let mut flagged = stop.0.lock().unwrap();
        while !*flagged {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = stop.1.wait_timeout(flagged, deadline - now).unwrap();
            flagged = guard;
        }
        if *flagged {
            return;
        }
    }
}

/// One liveness decision for `addr`: `true` when the node answered
/// `Health` at all — whatever the answer says — or pushed back with
/// `Busy`. Not answering gets one retry on a fresh dial ([`Shared::ask`]
/// dropped the pooled connection, which may simply be stale); not
/// answering twice is death.
fn probe_once(shared: &Shared, addr: &str) -> bool {
    (0..2).any(|_| {
        matches!(
            shared.ask(addr, &Request::Health, |_| ()),
            Ok(()) | Err(StorageError::Busy(_))
        )
    })
}

/// The fleet view [`ClusterClient::cluster_metrics`] returns: one
/// merged snapshot plus the per-node snapshots it was folded from.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    /// `(address, snapshot)` per scraped node, in scrape order.
    pub per_node: Vec<(String, MetricsSnapshot)>,
    /// All per-node snapshots merged per name: counters summed,
    /// histograms bucket-merged, slow queries and flight events
    /// interleaved on one timeline.
    pub merged: MetricsSnapshot,
}

impl ClusterMetrics {
    /// Stitch the cross-node span tree for one trace out of every
    /// node's slow-query entries. Each hub-side entry contributes a
    /// synthetic `hub:<dataset>` span (id = the entry's root span,
    /// parent = the client span that sent the request) plus its stage
    /// spans, so a fan-out trace shows which node spent the time.
    /// Parents precede children in the returned order; spans whose
    /// parent is outside the set (the client's root) come first.
    pub fn span_tree(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = Vec::new();
        for entry in self
            .merged
            .slow_queries
            .iter()
            .filter(|e| e.trace_id == trace_id)
        {
            spans.push(SpanRecord {
                name: format!("hub:{}", entry.dataset),
                span_id: entry.root_span,
                parent_span: entry.parent_span,
                dur_ns: entry.total_ns,
            });
            spans.extend(entry.spans.iter().cloned());
        }
        let all_ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        let mut placed: HashSet<u64> = HashSet::new();
        let mut ordered: Vec<SpanRecord> = Vec::with_capacity(spans.len());
        while !spans.is_empty() {
            let before = spans.len();
            let (ready, rest): (Vec<SpanRecord>, Vec<SpanRecord>) =
                spans.into_iter().partition(|s| {
                    !all_ids.contains(&s.parent_span) || placed.contains(&s.parent_span)
                });
            placed.extend(ready.iter().map(|s| s.span_id));
            ordered.extend(ready);
            spans = rest;
            if spans.len() == before {
                // orphaned cycle (ids collided): append rather than spin
                ordered.append(&mut spans);
            }
        }
        ordered
    }
}

/// The placement one mount currently routes by.
struct Placement {
    epoch: u64,
    replicas: Vec<String>,
}

/// One dataset, routed: a [`StorageProvider`] whose backend is
/// whichever live replica answers. Failover and placement refresh are
/// internal; callers see at most the final error.
pub struct ClusterMount {
    shared: Arc<Shared>,
    dataset: String,
    placement: Mutex<Placement>,
    /// Round-robin read cursor across the replica set.
    cursor: AtomicUsize,
    failovers: Counter,
    refreshes: Counter,
}

impl ClusterMount {
    /// The dataset this mount routes for.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The placement currently routed by: `(epoch, replica addresses)`.
    pub fn placement(&self) -> (u64, Vec<String>) {
        let p = self.placement.lock();
        (p.epoch, p.replicas.clone())
    }

    /// Requests that moved to another replica because one did not
    /// answer (or, for a storage op, its store failed).
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// Placement refreshes performed (all-replica failure or explicit).
    pub fn refreshes(&self) -> u64 {
        self.refreshes.get()
    }

    /// Re-ask the seeds where the dataset lives; a newer epoch replaces
    /// the cached placement, an older one is ignored.
    pub fn refresh(&self) -> Result<(), StorageError> {
        let (epoch, replicas) = self.shared.where_is_any(&self.dataset)?;
        self.refreshes.inc();
        let mut p = self.placement.lock();
        if epoch >= p.epoch {
            p.epoch = epoch;
            p.replicas = replicas;
        }
        Ok(())
    }

    /// Offload a TQL query to an owning replica (`main` branch),
    /// failing over exactly like a read.
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
        // an answered query — result or error — ends the loop; only a
        // replica that did not answer is failed over
        self.with_read(&|conn| conn.call(&request, proto::expect_query))
            .map_err(|e| TqlError::Remote(e.to_string()))?
    }

    /// Read routing: round-robin over the replica set, failover when a
    /// replica did not answer or its store failed ([`is_transport`]),
    /// one placement-refresh round when the whole set fails, every other
    /// error immediate.
    fn with_read<T>(
        &self,
        op: &dyn Fn(&RemoteProvider) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut last_err: Option<StorageError> = None;
        for round in 0..=REFRESH_ROUNDS {
            if round > 0 && self.refresh().is_err() {
                break;
            }
            let replicas = self.placement.lock().replicas.clone();
            let start = self.cursor.fetch_add(1, Ordering::Relaxed);
            for offset in 0..replicas.len() {
                let addr = &replicas[(start + offset) % replicas.len()];
                let conn = match self.shared.conn(addr, &self.dataset) {
                    Ok(conn) => conn,
                    Err(e) => {
                        self.failovers.inc();
                        last_err = Some(e);
                        continue;
                    }
                };
                match op(&conn) {
                    Ok(value) => return Ok(value),
                    Err(e) if is_transport(&e) => {
                        self.shared.drop_conn(addr, &self.dataset);
                        self.failovers.inc();
                        last_err = Some(e);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            StorageError::Io(format!("dataset '{}': no live replica", self.dataset))
        }))
    }

    /// Write routing: the operation runs on **every** replica in the
    /// placement; at least one ack is success. Replicas that failed on
    /// transport are removed from this mount's rotation until the next
    /// refresh, so later reads only land where the write did.
    fn with_write(
        &self,
        op: &dyn Fn(&RemoteProvider) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let mut last_err: Option<StorageError> = None;
        for round in 0..=REFRESH_ROUNDS {
            if round > 0 && self.refresh().is_err() {
                break;
            }
            let replicas = self.placement.lock().replicas.clone();
            let mut acked: Vec<String> = Vec::with_capacity(replicas.len());
            for addr in &replicas {
                let outcome = self
                    .shared
                    .conn(addr, &self.dataset)
                    .and_then(|conn| op(&conn));
                match outcome {
                    Ok(()) => acked.push(addr.clone()),
                    Err(e) if is_transport(&e) => {
                        self.shared.drop_conn(addr, &self.dataset);
                        self.failovers.inc();
                        last_err = Some(e);
                    }
                    // deterministic across replicas (same bytes): no
                    // point asking the others
                    Err(e) => return Err(e),
                }
            }
            if !acked.is_empty() {
                if acked.len() < replicas.len() {
                    let mut p = self.placement.lock();
                    p.replicas = acked;
                }
                return Ok(());
            }
        }
        Err(last_err.unwrap_or_else(|| {
            StorageError::Io(format!("dataset '{}': no live replica", self.dataset))
        }))
    }
}

/// Batch calls report transport death as every-slot-failed; detect that
/// so the batch fails over as a unit instead of surfacing N copies of
/// the same dead-node error.
fn batch_transport_error(results: &[Result<Bytes, StorageError>]) -> Option<StorageError> {
    if results.is_empty() {
        return None;
    }
    let mut first: Option<&StorageError> = None;
    for result in results {
        match result {
            Err(e) if is_transport(e) => first = first.or(Some(e)),
            _ => return None,
        }
    }
    first.cloned()
}

impl StorageProvider for ClusterMount {
    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        self.with_read(&|conn| conn.get(key))
    }

    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes, StorageError> {
        self.with_read(&|conn| conn.get_range(key, start, end))
    }

    fn put(&self, key: &str, value: Bytes) -> Result<(), StorageError> {
        self.with_write(&|conn| conn.put(key, value.clone()))
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.with_write(&|conn| conn.delete(key))
    }

    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        self.with_read(&|conn| conn.exists(key))
    }

    fn len_of(&self, key: &str) -> Result<u64, StorageError> {
        self.with_read(&|conn| conn.len_of(key))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.with_read(&|conn| conn.list(prefix))
    }

    fn describe(&self) -> String {
        let p = self.placement.lock();
        format!(
            "cluster('{}' @ {} replicas, epoch {})",
            self.dataset,
            p.replicas.len(),
            p.epoch
        )
    }

    /// The whole batch stays one frame to one replica; a dead node
    /// fails the batch over as a unit.
    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        if plan.requests().is_empty() {
            return ReadResult {
                results: Vec::new(),
                fetches: 0,
            };
        }
        let attempt = self.with_read(&|conn| {
            let result = conn.execute(plan);
            match batch_transport_error(&result.results) {
                Some(e) => Err(e),
                None => Ok(result),
            }
        });
        attempt.unwrap_or_else(|e| ReadResult {
            results: plan.requests().iter().map(|_| Err(e.clone())).collect(),
            fetches: 0,
        })
    }

    fn delete_prefix(&self, prefix: &str) -> Result<(), StorageError> {
        self.with_write(&|conn| conn.delete_prefix(prefix))
    }
}
