//! Served-dataset scenario: one dataset server feeding N loader clients
//! over the sim-latency transport.
//!
//! The paper's deployment story is a lakehouse serving *fleets* of
//! training clients. This module packages that as a reproducible
//! experiment: mount a provider as a [`Hub`]'s default mount, spawn
//! `clients` threads that each connect a latency-injected
//! [`RemoteProvider`], open the dataset remotely, and stream one full
//! epoch; report per-client correctness checksums and the wire traffic
//! each client paid. The benches use it to show that batched frames
//! keep the served loader's round trips per epoch flat as clients are
//! added, and tests use it to assert no deadlock and graceful shutdown
//! under concurrency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use deeplake_core::Dataset;
use deeplake_hub::Hub;
use deeplake_loader::DataLoader;
use deeplake_remote::{RemoteOptions, RemoteProvider};
use deeplake_storage::{DynProvider, NetworkProfile};

/// One serving experiment.
#[derive(Debug, Clone, Copy)]
pub struct ServingConfig {
    /// Concurrent loader clients.
    pub clients: usize,
    /// Loader batch size per client.
    pub batch_size: usize,
    /// Loader worker threads per client.
    pub workers_per_client: usize,
    /// Network cost charged per client round trip (the sim-latency
    /// transport; use [`NetworkProfile::instant`] for pure counting).
    pub profile: NetworkProfile,
    /// Distinct shuffle seed per client (`None` = sequential order).
    pub shuffle: bool,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            clients: 4,
            batch_size: 16,
            workers_per_client: 2,
            profile: NetworkProfile::instant(),
            shuffle: false,
        }
    }
}

/// What one client observed.
#[derive(Debug, Clone, Copy)]
pub struct ClientReport {
    /// Rows delivered to this client.
    pub rows: u64,
    /// Sum of every delivered sample's first element — order-independent
    /// correctness check (all clients must agree).
    pub checksum: u64,
    /// Wire round trips this client paid for its epoch (open + stream).
    pub round_trips: u64,
    /// Wire bytes (request + response) this client moved.
    pub wire_bytes: u64,
}

/// What the whole experiment observed.
#[derive(Debug)]
pub struct ServingReport {
    /// Per-client observations, index = client id.
    pub clients: Vec<ClientReport>,
    /// Frames the server answered in total.
    pub server_requests: u64,
    /// Offloaded queries the server executed (0 in the streaming
    /// scenario).
    pub server_queries: u64,
    /// Wall time of the whole experiment.
    pub wall: Duration,
}

impl ServingReport {
    /// Whether every client saw `rows` rows and the same checksum.
    pub fn all_clients_agree(&self, rows: u64) -> bool {
        self.clients
            .iter()
            .all(|c| c.rows == rows && c.checksum == self.clients[0].checksum)
    }
}

/// Serve `provider` and stream one epoch of `tensor` to
/// [`ServingConfig::clients`] concurrent loader clients; shut the server
/// down gracefully afterwards. The provider must already hold a dataset
/// (see [`crate::datagen`] or build one by hand).
pub fn run_served_loaders(
    provider: DynProvider,
    tensor: &str,
    cfg: &ServingConfig,
) -> ServingReport {
    let mut server = Hub::builder()
        .default_mount(provider)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let addr = server.addr();
    let started = Instant::now();
    let clients: Vec<ClientReport> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..cfg.clients {
            let tensor = tensor.to_string();
            joins.push(scope.spawn(move || {
                let remote = Arc::new(
                    RemoteProvider::connect_with(
                        addr,
                        RemoteOptions {
                            latency: Some(cfg.profile),
                            ..RemoteOptions::default()
                        },
                    )
                    .expect("connect"),
                );
                let ds = Arc::new(Dataset::open(remote.clone()).expect("open remote dataset"));
                let mut builder = DataLoader::builder(ds)
                    .batch_size(cfg.batch_size)
                    .num_workers(cfg.workers_per_client)
                    .tensors([tensor.as_str()]);
                if cfg.shuffle {
                    builder = builder.shuffle(c as u64 + 1);
                }
                let loader = builder.build().expect("build loader");
                let mut rows = 0u64;
                let mut checksum = 0u64;
                for batch in loader.epoch() {
                    let b = batch.expect("stream batch");
                    let col = b.column(&tensor).expect("streamed tensor present");
                    for i in 0..col.len() {
                        checksum = checksum
                            .wrapping_add(col.get(i).unwrap().get_f64(0).unwrap_or(0.0) as u64);
                        rows += 1;
                    }
                }
                ClientReport {
                    rows,
                    checksum,
                    round_trips: remote.stats().round_trips(),
                    wire_bytes: remote.stats().bytes_read() + remote.stats().bytes_written(),
                }
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let report = ServingReport {
        clients,
        server_requests: server.stats().requests(),
        server_queries: server.stats().queries(),
        wall: started.elapsed(),
    };
    server.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplake_storage::MemoryProvider;

    /// `labels[i] = i`, in ~24 chunks.
    fn labelled_dataset(rows: u64) -> DynProvider {
        let provider: DynProvider = Arc::new(MemoryProvider::new());
        crate::datagen::labelled_dataset(provider.clone(), "served", rows, rows as usize, 128);
        provider
    }

    #[test]
    fn served_clients_stream_correctly() {
        let provider = labelled_dataset(48);
        let report = run_served_loaders(
            provider,
            "labels",
            &ServingConfig {
                clients: 3,
                shuffle: true,
                ..ServingConfig::default()
            },
        );
        assert!(report.all_clients_agree(48));
        assert_eq!(report.clients[0].checksum, (0..48).sum::<u64>());
        assert!(report.server_requests > 0);
        for c in &report.clients {
            assert!(c.round_trips > 0);
            assert!(c.wire_bytes > 0);
        }
    }

    #[test]
    fn batched_frames_keep_round_trips_small() {
        // 48 rows over ~24 chunks: without batched frames the epoch
        // alone would cost ≥ 24 round trips per client
        let provider = labelled_dataset(48);
        let report = run_served_loaders(provider, "labels", &ServingConfig::default());
        for c in &report.clients {
            assert!(
                c.round_trips < 24,
                "epoch + open cost {} round trips, batching is broken",
                c.round_trips
            );
        }
    }
}
