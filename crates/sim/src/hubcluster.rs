//! Serving-cluster scenario: a fleet of hub nodes behind client-side
//! placement routing, under Zipf-skewed query traffic — with an
//! optional mid-run node kill.
//!
//! Two claims this scenario makes reproducible:
//!
//! * **Scaling** — with per-node worker pools and latency-modelled
//!   backing storage, aggregate query throughput grows near-linearly
//!   from 1 to 4 nodes because datasets (and therefore queries) spread
//!   across the ring instead of serializing behind one worker pool. The
//!   result caches are disabled so every query pays its storage cost —
//!   the scaling measured is capacity, not cache luck.
//! * **Failover** — killing a replica-bearing node mid-run loses ZERO
//!   client requests: in-flight frames drain during graceful shutdown,
//!   and every later request routed at the corpse fails over to the
//!   surviving replica of the same set, which holds identical bytes.
//!   With `probe_interval` set the kill becomes an un-observed *crash*
//!   (the map is not told), and the routing client's health prober is
//!   the only failure detector — the claim tightens to "zero failures
//!   AND the map flips without any manual `mark_dead`".
//!
//! Every query result is validated against the known data layout, so a
//! wrong-replica read or a half-seeded replica fails the run loudly
//! rather than skewing a number.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deeplake_cluster::{Cluster, ClusterMount};
use deeplake_hub::HubOptions;
use deeplake_obs::MetricsRegistry;
use deeplake_storage::{
    DynProvider, FaultPlan, FaultProvider, MemoryProvider, NetworkProfile, SimulatedCloudProvider,
};
use deeplake_tql::QueryOptions;

use crate::datagen::SkewedQueries;

/// One serving-cluster experiment.
#[derive(Debug, Clone, Copy)]
pub struct ClusterQueryConfig {
    /// Hub nodes in the fleet.
    pub nodes: usize,
    /// Replicas per dataset.
    pub replication: usize,
    /// Datasets sharded over the fleet.
    pub datasets: usize,
    /// Concurrent query clients (each opens one dataset, round-robin).
    pub clients: usize,
    /// Queries each client issues.
    pub queries_per_client: usize,
    /// Distinct query templates per dataset (the popularity universe).
    pub distinct_queries: usize,
    /// Zipf exponent for template popularity (0 = uniform).
    pub skew: f64,
    /// Rows per dataset.
    pub rows_per_dataset: u64,
    /// Worker threads per node — the per-node capacity being scaled.
    pub workers_per_node: usize,
    /// Latency model of every replica's backing storage.
    pub storage: NetworkProfile,
    /// Kill one replica-bearing node after this many total queries
    /// (`None` = nobody dies).
    pub kill_after: Option<u64>,
    /// When set alongside `kill_after`, the node *crashes* instead of
    /// being killed: its hub dies but the map is NOT updated — nobody
    /// calls `kill`/`mark_dead`. The routing client's health prober
    /// runs at this interval and is the only failure detector in the
    /// run; the report records whether it flipped the map.
    pub probe_interval: Option<Duration>,
    /// Inject this many transient storage faults into ONE replica of
    /// `ds0` before the query phase starts (0 = healthy run). Injected
    /// faults surface to clients as query errors, not transport errors
    /// — the routing layer must not fail over on them, so the report
    /// can assert `failed_queries ≤ faults_injected`.
    pub fault_ops: u64,
    /// Base RNG seed (each client derives its own stream).
    pub seed: u64,
}

impl Default for ClusterQueryConfig {
    fn default() -> Self {
        ClusterQueryConfig {
            nodes: 3,
            replication: 2,
            datasets: 6,
            clients: 12,
            queries_per_client: 24,
            distinct_queries: 8,
            skew: 1.0,
            rows_per_dataset: 64,
            workers_per_node: 2,
            storage: NetworkProfile::minio_lan().scaled(0.25),
            kill_after: None,
            probe_interval: None,
            fault_ops: 0,
            seed: 11,
        }
    }
}

/// What the experiment observed.
#[derive(Debug)]
pub struct ClusterQueryReport {
    /// Nodes the fleet ran.
    pub nodes: usize,
    /// Queries issued and validated across all clients.
    pub total_queries: u64,
    /// Queries that surfaced an error to a client (the failover claim
    /// is that this stays 0 even with a mid-run kill).
    pub failed_queries: u64,
    /// Requests that moved to another replica after a transport error.
    pub failovers: u64,
    /// Placement refreshes clients performed.
    pub refreshes: u64,
    /// Node-death declarations the health prober made (0 when no
    /// prober ran, or when the kill was an *observed* `kill`).
    pub prober_deaths: u64,
    /// Whether the prober flipped the crashed node's map liveness —
    /// the un-observed death became fleet-visible without any manual
    /// `mark_dead`. Always `false` when no crash was staged.
    pub prober_flipped_liveness: bool,
    /// Storage faults actually injected across the fleet, read from the
    /// fault providers' obs counters. Every client-visible failure must
    /// be explained by an injection: `failed_queries ≤ faults_injected`.
    pub faults_injected: u64,
    /// Frames served per node (dead nodes report what they served
    /// before dying as 0 — their stats die with them).
    pub per_node_requests: Vec<u64>,
    /// Wall time of the query phase.
    pub wall: Duration,
    /// Aggregate queries per second over the query phase.
    pub queries_per_sec: f64,
}

/// Run the scenario: build the fleet, seed replicas, fire skewed
/// queries through routing mounts, optionally kill a node mid-run,
/// validate every result.
pub fn run_cluster_queries(cfg: &ClusterQueryConfig) -> ClusterQueryReport {
    assert!(cfg.nodes > 0 && cfg.datasets > 0 && cfg.clients > 0 && cfg.distinct_queries > 0);
    let traffic = SkewedQueries::new(
        cfg.distinct_queries,
        cfg.skew,
        cfg.rows_per_dataset,
        cfg.seed,
    );

    type FaultSet = Vec<(String, Arc<FaultProvider>)>;
    let faulty: Arc<std::sync::Mutex<FaultSet>> = Arc::new(std::sync::Mutex::new(Vec::new()));

    // each dataset is built ONCE in a scratch store and byte-copied to
    // its replicas — independent rebuilds could disagree on commit ids
    let mut builder = Cluster::builder()
        .nodes(cfg.nodes)
        .replication(cfg.replication)
        .hub_options(HubOptions {
            workers: cfg.workers_per_node,
            cache_bytes: 0, // measure capacity, not cache luck
            ..HubOptions::default()
        })
        .store_factory({
            let storage = cfg.storage;
            let faulty = Arc::clone(&faulty);
            // every replica store gets a fault gate (healthy until a
            // plan is installed) so the run can injure specific replicas
            // after seeding, with the injection counted by obs counters
            Arc::new(move |dataset, addr| {
                let fp = Arc::new(FaultProvider::new(
                    Arc::new(SimulatedCloudProvider::new(
                        format!("{dataset}@{addr}"),
                        MemoryProvider::new(),
                        storage,
                    )),
                    FaultPlan::none(),
                ));
                faulty
                    .lock()
                    .unwrap()
                    .push((dataset.to_string(), fp.clone()));
                fp
            })
        });
    for d in 0..cfg.datasets {
        let seed: DynProvider = Arc::new(MemoryProvider::new());
        traffic.dataset(seed.clone(), "cluster_sim");
        builder = builder.dataset_from(&format!("ds{d}"), seed);
    }
    let mut cluster = builder.build().expect("cluster build");
    let client = cluster.client().expect("cluster client");
    let mounts: Vec<Arc<ClusterMount>> = (0..cfg.datasets)
        .map(|d| Arc::new(client.open(&format!("ds{d}")).expect("open dataset")))
        .collect();

    // attach every fault gate's counters to one registry so the report
    // reads "N faults injected" from the same kind of snapshot a hub's
    // Metrics opcode ships
    let fault_registry = MetricsRegistry::new();
    {
        let gates = faulty.lock().unwrap();
        for (i, (dataset, fp)) in gates.iter().enumerate() {
            fp.register_into(&fault_registry, &format!("fault.{dataset}.{i}"));
        }
        // injure exactly one replica of ds0 AFTER seeding (set_plan
        // restarts the op clock): its sibling replica keeps a healthy
        // copy, so the dataset stays queryable throughout
        if cfg.fault_ops > 0 {
            let gate = gates
                .iter()
                .find(|(dataset, _)| dataset == "ds0")
                .map(|(_, fp)| fp.clone())
                .expect("ds0 has a replica store");
            gate.set_plan(FaultPlan::fail_next(cfg.fault_ops));
        }
    }

    // with a probe interval the client doubles as the fleet's failure
    // detector — the only one, when the kill is staged as a crash
    if let Some(interval) = cfg.probe_interval {
        assert!(client.start_prober(interval), "map is attached");
    }

    let issued = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let mut crashed_addr: Option<String> = None;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..cfg.clients {
            let mounts = &mounts;
            let (traffic, issued, failed) = (&traffic, &issued, &failed);
            scope.spawn(move || {
                let mut rng = traffic.client_rng(c);
                for q in 0..cfg.queries_per_client {
                    // cycle over every dataset so no client is pinned to
                    // one replica set: load spreads dynamically and a
                    // slow node delays everyone a little instead of a
                    // few clients a lot
                    let mount = &mounts[(c + q) % mounts.len()];
                    let (k, text) = traffic.draw(&mut rng);
                    match mount.query(&text, &QueryOptions::default()) {
                        Ok(result) => assert_eq!(
                            result.indices,
                            traffic.expected_rows(k),
                            "client {c} got wrong rows for labels = {k}"
                        ),
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    issued.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // the assassin: wait for the threshold, then take down a node
        // that holds a replica of ds0 while traffic is still flowing —
        // an observed `kill` by default, an un-observed `crash` (map
        // untouched) when the prober is the designated failure detector
        if let Some(threshold) = cfg.kill_after {
            let victim = cluster.replica_nodes("ds0")[0];
            while issued.load(Ordering::Relaxed) < threshold {
                std::thread::sleep(Duration::from_millis(1));
            }
            if cfg.probe_interval.is_some() {
                crashed_addr = Some(cluster.addrs()[victim].clone());
                cluster.crash(victim);
            } else {
                cluster.kill(victim);
            }
        }
    });
    let wall = started.elapsed();

    // after traffic drains, give the prober a bounded window to notice
    // the crash: the claim is that the map flips with zero manual help
    let prober_flipped_liveness = crashed_addr.is_some_and(|addr| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if !cluster.map().read().live_addrs().contains(&addr) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    let prober_deaths = client
        .metrics()
        .counter("cluster.probe.deaths")
        .unwrap_or(0);
    client.stop_prober();

    let total_queries = issued.load(Ordering::Relaxed);
    ClusterQueryReport {
        nodes: cfg.nodes,
        total_queries,
        failed_queries: failed.load(Ordering::Relaxed),
        failovers: mounts.iter().map(|m| m.failovers()).sum(),
        refreshes: mounts.iter().map(|m| m.refreshes()).sum(),
        prober_deaths,
        prober_flipped_liveness,
        faults_injected: fault_registry
            .snapshot()
            .counters
            .iter()
            .filter(|(name, _)| name.ends_with(".faults_injected"))
            .map(|&(_, v)| v)
            .sum(),
        per_node_requests: (0..cfg.nodes)
            .map(|i| cluster.hub(i).map(|h| h.stats().requests()).unwrap_or(0))
            .collect(),
        wall,
        queries_per_sec: total_queries as f64 / wall.as_secs_f64().max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_validate_and_spread_across_the_fleet() {
        let report = run_cluster_queries(&ClusterQueryConfig {
            clients: 6,
            queries_per_client: 8,
            storage: NetworkProfile::instant(),
            ..ClusterQueryConfig::default()
        });
        assert_eq!(report.total_queries, 48);
        assert_eq!(report.failed_queries, 0);
        // with 6 datasets over 3 nodes every node should see traffic
        assert!(
            report.per_node_requests.iter().all(|&r| r > 0),
            "idle node in {:?}",
            report.per_node_requests
        );
    }

    #[test]
    fn injected_faults_are_counted_and_bound_client_failures() {
        let report = run_cluster_queries(&ClusterQueryConfig {
            clients: 6,
            queries_per_client: 8,
            storage: NetworkProfile::instant(),
            fault_ops: 6,
            ..ClusterQueryConfig::default()
        });
        assert_eq!(report.total_queries, 48);
        assert!(report.faults_injected > 0, "the fault gate never fired");
        assert!(
            report.faults_injected <= 6,
            "fail_next(6) injects at most 6"
        );
        // injected storage faults surface as query errors, not transport
        // errors: the mount must NOT fail over on them, and every
        // client-visible failure must be explained by an injection
        assert!(
            report.failed_queries <= report.faults_injected,
            "{} failures cannot exceed {} injected faults",
            report.failed_queries,
            report.faults_injected
        );
    }

    #[test]
    fn crashed_node_is_detected_by_the_prober_with_zero_failures() {
        // the node CRASHES — nobody calls kill or mark_dead. The
        // client's health prober is the only failure detector, and the
        // run must still lose zero requests: client-side failover
        // covers the detection window, the prober flips the map after.
        let report = run_cluster_queries(&ClusterQueryConfig {
            clients: 8,
            queries_per_client: 16,
            storage: NetworkProfile::minio_lan().scaled(0.1),
            kill_after: Some(30),
            probe_interval: Some(Duration::from_millis(25)),
            ..ClusterQueryConfig::default()
        });
        assert_eq!(report.total_queries, 128);
        assert_eq!(
            report.failed_queries, 0,
            "an un-observed crash must stay client-invisible ({} failovers)",
            report.failovers
        );
        assert!(
            report.prober_flipped_liveness,
            "the prober never flipped the crashed node's liveness"
        );
        assert!(report.prober_deaths >= 1, "the death decision is counted");
    }

    #[test]
    fn killing_a_replica_bearing_node_loses_nothing() {
        let report = run_cluster_queries(&ClusterQueryConfig {
            clients: 8,
            queries_per_client: 16,
            storage: NetworkProfile::minio_lan().scaled(0.1),
            kill_after: Some(30),
            ..ClusterQueryConfig::default()
        });
        assert_eq!(report.total_queries, 128);
        assert_eq!(
            report.failed_queries, 0,
            "a replicated dataset must survive one node kill ({} failovers)",
            report.failovers
        );
    }
}
