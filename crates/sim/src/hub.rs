//! Multi-dataset hub serving scenario: one hub, many datasets, many
//! query clients with *skewed* query popularity.
//!
//! Real serving traffic is never uniform — a handful of hot queries
//! (dashboard panels, popular training filters) dominate, which is
//! exactly the regime a version-pinned result cache converts from
//! storage scans into frame copies. This scenario makes that claim
//! reproducible: `datasets` datasets mounted on one hub, `clients`
//! concurrent clients attached round-robin, each issuing queries drawn
//! from a Zipf-like popularity distribution over `distinct_queries`
//! templates. Every result is validated against the known data layout,
//! and the report carries the cache hit ratio, evictions, busy
//! rejections and the *backing-storage* round trips actually paid —
//! the numbers the hub bench turns into `BENCH_hub.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use deeplake_hub::{Hub, HubOptions};
use deeplake_remote::{RemoteOptions, RemoteProvider};
use deeplake_storage::{MemoryProvider, NetworkProfile, SimulatedCloudProvider, StorageStats};
use deeplake_tql::QueryOptions;

use crate::datagen::SkewedQueries;

/// One hub-serving experiment.
#[derive(Debug, Clone, Copy)]
pub struct HubScenarioConfig {
    /// Datasets mounted on the hub.
    pub datasets: usize,
    /// Concurrent query clients (attached round-robin to the datasets).
    pub clients: usize,
    /// Queries each client issues.
    pub queries_per_client: usize,
    /// Distinct query templates per dataset (the popularity universe).
    pub distinct_queries: usize,
    /// Zipf exponent for query popularity (0 = uniform; ~1 = realistic
    /// hot-head skew).
    pub skew: f64,
    /// Rows per dataset.
    pub rows_per_dataset: u64,
    /// Hub result-cache budget in bytes (0 disables caching).
    pub cache_bytes: u64,
    /// Network cost charged per client round trip.
    pub profile: NetworkProfile,
    /// Base RNG seed (each client derives its own stream).
    pub seed: u64,
}

impl Default for HubScenarioConfig {
    fn default() -> Self {
        HubScenarioConfig {
            datasets: 2,
            clients: 8,
            queries_per_client: 32,
            distinct_queries: 8,
            skew: 1.0,
            rows_per_dataset: 64,
            cache_bytes: 16 << 20,
            profile: NetworkProfile::instant(),
            seed: 7,
        }
    }
}

/// What the experiment observed.
#[derive(Debug)]
pub struct HubScenarioReport {
    /// Queries issued (and validated) across all clients.
    pub total_queries: u64,
    /// Hub result-cache hit ratio over the run.
    pub cache_hit_ratio: f64,
    /// Hub result-cache evictions (budget pressure).
    pub cache_evictions: u64,
    /// Requests the hub refused with `Busy`.
    pub busy_rejections: u64,
    /// Round trips the *backing storage* paid for all query executions —
    /// the number the cache drives toward zero on a skewed workload.
    pub storage_round_trips: u64,
    /// Wire round trips per client.
    pub per_client_round_trips: Vec<u64>,
    /// Wall time of the whole experiment.
    pub wall: Duration,
}

/// Run the scenario: mount, attach, fire skewed queries, validate every
/// result, shut the hub down gracefully.
pub fn run_hub_queries(cfg: &HubScenarioConfig) -> HubScenarioReport {
    assert!(cfg.datasets > 0 && cfg.clients > 0 && cfg.distinct_queries > 0);
    let traffic = SkewedQueries::new(
        cfg.distinct_queries,
        cfg.skew,
        cfg.rows_per_dataset,
        cfg.seed,
    );
    // per-dataset sim-cloud storage so backing round trips are countable
    let storages: Vec<Arc<SimulatedCloudProvider<MemoryProvider>>> = (0..cfg.datasets)
        .map(|_| {
            Arc::new(SimulatedCloudProvider::new(
                "s3",
                MemoryProvider::new(),
                NetworkProfile::instant(),
            ))
        })
        .collect();
    let mut builder = Hub::builder().options(HubOptions {
        cache_bytes: cfg.cache_bytes,
        ..HubOptions::default()
    });
    // each store's reading once its dataset is written: serving is
    // charged for the growth since
    let mut seeded = Vec::with_capacity(storages.len());
    for (d, storage) in storages.iter().enumerate() {
        traffic.dataset(storage.clone(), "hub_sim");
        seeded.push(storage.stats().snapshot());
        builder = builder.mount(&format!("ds{d}"), storage.clone());
    }
    let hub = builder.bind("127.0.0.1:0").unwrap();
    let addr = hub.addr();

    let started = Instant::now();
    let per_client_round_trips: Vec<u64> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..cfg.clients {
            let traffic = &traffic;
            joins.push(scope.spawn(move || {
                let dataset = format!("ds{}", c % cfg.datasets);
                let client = RemoteProvider::connect_with(
                    addr,
                    RemoteOptions {
                        latency: Some(cfg.profile),
                        ..RemoteOptions::default()
                    },
                )
                .expect("connect");
                client.attach(&dataset).expect("attach");
                let mut rng = traffic.client_rng(c);
                for _ in 0..cfg.queries_per_client {
                    let (k, text) = traffic.draw(&mut rng);
                    let result = client
                        .query(&text, &QueryOptions::default())
                        .expect("offloaded query");
                    assert_eq!(
                        result.indices,
                        traffic.expected_rows(k),
                        "client {c} got wrong rows for labels = {k}"
                    );
                }
                client.stats().round_trips()
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    let storage_round_trips = storages
        .iter()
        .zip(&seeded)
        .map(|(s, before)| s.stats().snapshot().delta_since(before).round_trips)
        .sum::<u64>();
    let cache: &StorageStats = hub.cache().stats();
    let report = HubScenarioReport {
        total_queries: (cfg.clients * cfg.queries_per_client) as u64,
        cache_hit_ratio: cache.hit_ratio(),
        cache_evictions: cache.evictions(),
        busy_rejections: hub.stats().busy_rejections(),
        storage_round_trips,
        per_client_round_trips,
        wall: started.elapsed(),
    };
    drop(hub); // graceful shutdown
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_hub_serving_validates_and_caches() {
        let cached = run_hub_queries(&HubScenarioConfig::default());
        assert_eq!(cached.total_queries, 8 * 32);
        // 8 distinct queries × 2 datasets vs 256 issued: the tail of the
        // run must be nearly all hits
        assert!(
            cached.cache_hit_ratio > 0.5,
            "hit ratio {} too low for a skewed workload",
            cached.cache_hit_ratio
        );
        assert_eq!(cached.per_client_round_trips.len(), 8);
        for rts in &cached.per_client_round_trips {
            // attach + 32 queries: wire round trips are per-request
            assert!(*rts >= 32, "client paid {rts} wire round trips");
        }
        // the control: the identical skewed workload with the result
        // cache disabled executes every query — but on each mount's one
        // shared dataset handle, so storage is still paid per distinct
        // chunk, not per query (an open alone is ~16 round trips: a
        // handle per query would cost thousands)
        let uncached = run_hub_queries(&HubScenarioConfig {
            cache_bytes: 0,
            ..HubScenarioConfig::default()
        });
        assert_eq!(uncached.cache_hit_ratio, 0.0);
        // in either run two clients' concurrent first misses of one
        // chunk may each fetch it, so the two counts are compared up to
        // one such duplicate per client, not ordered exactly
        assert!(
            cached.storage_round_trips <= uncached.storage_round_trips + 8,
            "the cache cost storage: {} vs {} storage round trips",
            cached.storage_round_trips,
            uncached.storage_round_trips
        );
        assert!(
            uncached.storage_round_trips < uncached.total_queries,
            "{} storage round trips for {} uncached queries: handles are not shared",
            uncached.storage_round_trips,
            uncached.total_queries
        );
    }
}
