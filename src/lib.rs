//! # Deep Lake (Rust reproduction)
//!
//! A from-scratch Rust implementation of **"Deep Lake: a Lakehouse for
//! Deep Learning"** (Hambardzumyan et al., CIDR 2023): the Tensor Storage
//! Format, Git-like dataset version control, the Tensor Query Language,
//! the streaming dataloader, linked tensors and materialization, the
//! visualization engine's data layer, and the full benchmark harness
//! regenerating the paper's evaluation figures.
//!
//! ## Quick start
//!
//! ```
//! use deeplake::prelude::*;
//! use std::sync::Arc;
//!
//! // create a dataset on any storage provider
//! let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "quick").unwrap();
//! ds.create_tensor("images", Htype::Image, None).unwrap();
//! ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
//!
//! // append rows (ragged shapes are fine)
//! ds.append_row(vec![
//!     ("images", Sample::zeros(Dtype::U8, [32, 32, 3])),
//!     ("labels", Sample::scalar(4i32)),
//! ]).unwrap();
//! ds.flush().unwrap();
//!
//! // version control
//! let commit = ds.commit("first batch").unwrap();
//!
//! // query with TQL
//! let result = deeplake::tql::query(&ds, "SELECT * FROM ds WHERE labels = 4").unwrap();
//! assert_eq!(result.len(), 1);
//!
//! // stream to training — loader workers fetch each task's chunks with
//! // ONE batched storage call (a ReadPlan the provider coalesces and
//! // parallelizes)
//! let ds = Arc::new(ds);
//! let loader = DataLoader::builder(ds).batch_size(8).build().unwrap();
//! let batches: usize = loader.epoch().count();
//! assert_eq!(batches, 1);
//! let _ = commit;
//! ```
//!
//! ## Batched scatter-gather reads
//!
//! Every [`storage::StorageProvider`] speaks two granularities: single
//! keys (`get`, `get_range`) and **read plans** — batches of
//! whole-object and byte-range requests the provider may *coalesce*
//! (adjacent/overlapping ranges on one key merge into one fetch) and
//! *parallelize or amortize* (scoped-thread fan-out on local disk, one
//! amortized latency charge per batch on the simulated cloud, a single
//! fill + eviction pass in the LRU tier):
//!
//! ```
//! use deeplake::prelude::*;
//! use deeplake::storage::ReadPlan;
//!
//! let store = MemoryProvider::new();
//! store.put("chunk", bytes::Bytes::from(vec![0u8; 1024])).unwrap();
//! let mut plan = ReadPlan::new();
//! plan.range("chunk", 0, 256);
//! plan.range("chunk", 256, 512); // adjacent → coalesces with the first
//! let outcome = store.execute(&plan);
//! assert_eq!(outcome.results.len(), 2);
//! assert_eq!(outcome.fetches, 1); // one backend fetch served both
//! ```
//!
//! ## Chunk-statistics predicate pushdown
//!
//! Scalar tensors record per-chunk min/max/constant statistics at write
//! time; TQL lowers `WHERE` clauses onto them and skips chunks (and the
//! storage round trips behind them) that provably cannot match, while
//! staying result-identical to a naive scan:
//!
//! ```
//! use deeplake::prelude::*;
//! use std::sync::Arc;
//!
//! let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "p").unwrap();
//! ds.create_tensor_opts("labels", {
//!     let mut o = TensorOptions::new(Htype::ClassLabel);
//!     o.chunk_target_bytes = Some(64); // small chunks for the demo
//!     o
//! }).unwrap();
//! for i in 0..100u64 {
//!     ds.append_row(vec![("labels", Sample::scalar((i / 10) as i32))]).unwrap();
//! }
//! ds.flush().unwrap();
//! let r = deeplake::tql::query(&ds, "SELECT * FROM p WHERE labels = 3").unwrap();
//! assert_eq!(r.len(), 10);
//! assert!(r.stats.chunks_pruned > 0); // most chunks never fetched
//! ```
//!
//! ## Vector similarity search
//!
//! Embedding columns answer "the k most similar samples" queries: build
//! an IVF index (k-means centroids + posting lists, persisted under the
//! tensor's `vector_index/` key family), then `ORDER BY
//! COSINE_SIMILARITY(col, [..]) LIMIT k` runs as a physical top-k
//! operator — exact by default, index-probed with `QueryOptions { ann:
//! true, nprobe, .. }`:
//!
//! ```
//! use deeplake::prelude::*;
//! use std::sync::Arc;
//!
//! let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "v").unwrap();
//! ds.create_tensor("emb", Htype::Embedding, None).unwrap();
//! for i in 0..64u64 {
//!     let v = [(i % 8) as f32, 1.0];
//!     ds.append_row(vec![("emb", Sample::from_slice([2], &v).unwrap())]).unwrap();
//! }
//! ds.flush().unwrap();
//! ds.build_vector_index("emb", &IndexSpec::default()).unwrap();
//!
//! let r = deeplake::tql::query(
//!     &ds,
//!     "SELECT * FROM v ORDER BY L2_DISTANCE(emb, [3, 1]) LIMIT 5",
//! ).unwrap();
//! assert_eq!(r.len(), 5);
//! assert_eq!(r.indices[0] % 8, 3); // nearest rows hold [3, 1]
//! ```
//!
//! Updates and re-chunking invalidate the index through the version
//! layer (queries fall back to the exact scan until a rebuild); commits
//! keep it readable for historical `AT VERSION` queries.
//!
//! ## Serving datasets
//!
//! One dataset can feed a fleet of loaders: mount any provider as the
//! default mount of a [`hub::Hub`] and point [`remote::RemoteProvider`]
//! clients at it. The remote provider implements
//! [`storage::StorageProvider`], so datasets, TQL and the dataloader
//! work over the network unchanged — batched reads travel as single
//! frames, and [`remote::RemoteProvider::query`] offloads whole TQL
//! queries to the server (one round trip, only result rows on the
//! wire):
//!
//! ```
//! use deeplake::prelude::*;
//! use std::sync::Arc;
//!
//! // serve an (empty) in-memory store on an ephemeral loopback port
//! let server = Hub::builder()
//!     .default_mount(Arc::new(MemoryProvider::new()))
//!     .bind("127.0.0.1:0")
//!     .unwrap();
//! let remote = Arc::new(RemoteProvider::connect(server.addr()).unwrap());
//!
//! // everything works over the wire, unchanged
//! let mut ds = Dataset::create(remote.clone(), "served").unwrap();
//! ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
//! ds.append_row(vec![("labels", Sample::scalar(7i32))]).unwrap();
//! ds.flush().unwrap();
//!
//! // query offload: the server executes, the client gets result rows
//! let r = remote.query("SELECT labels FROM served WHERE labels = 7",
//!                      &QueryOptions::default()).unwrap();
//! assert_eq!(r.indices, vec![0]);
//! drop(server); // graceful shutdown drains in-flight requests
//! ```
//!
//! Since PR 5 the server is a facade over the multi-dataset [`hub`]:
//! one deployment mounts many named datasets (`Hub::builder()
//! .mount("mnist", p1).mount("laion", p2)`), clients bind a connection
//! with `remote.attach("mnist")`, a bounded worker pool caps
//! storage/query concurrency (overload answers a lossless `Busy` frame),
//! and repeated version-pinned queries are served from a result cache
//! keyed by `(dataset, version, canonical TQL text, options)` — a hit
//! is a frame copy with zero storage round trips.
//!
//! Since PR 6 hubs also form **clusters**: a [`cluster::ClusterMap`]
//! shards datasets over N nodes by bounded-load consistent hashing with
//! R replicas, every node answers `WhereIs` placement queries, and
//! [`cluster::ClusterClient`] routes each dataset's traffic to its
//! owning replicas — reads round-robin and fail over on dead or busy
//! nodes, writes go through to every replica. Killing one node of a
//! replicated fleet mid-run costs clients zero visible failures:
//!
//! ```
//! use deeplake::prelude::*;
//!
//! let mut cluster = Cluster::builder()
//!     .nodes(3)
//!     .replication(2)
//!     .dataset("mnist")
//!     .build()
//!     .unwrap();
//! let client = cluster.client().unwrap();
//! let mount = client.open("mnist").unwrap(); // placement resolved once
//! mount.put("hot", bytes::Bytes::from_static(b"v")).unwrap(); // → both replicas
//! cluster.kill(0); // whichever node this was, the data survives
//! assert_eq!(&mount.get("hot").unwrap()[..], b"v");
//! ```
//!
//! Since PR 8 the serving stack is **observable** end to end: every
//! subsystem registers lock-free counters and log-scale latency
//! histograms in an [`obs::MetricsRegistry`], clients stamp each
//! request with an [`obs::TraceContext`] that the hub decomposes into
//! queue-wait / execute / storage spans (slow ones land in a ring-buffer
//! slow-query log), and a live hub answers a `Metrics` wire opcode with
//! the whole registry snapshot — `remote.hub_metrics()` from any client.
//!
//! See the crate-level docs of each member for the subsystem details:
//! [`tensor`], [`codec`], [`storage`], [`format`], [`core`], [`tql`],
//! [`loader`], [`baselines`], [`sim`], [`viz`], [`index`],
//! [`remote`], [`hub`], [`cluster`], [`obs`].

pub use deeplake_baselines as baselines;
pub use deeplake_cluster as cluster;
pub use deeplake_codec as codec;
pub use deeplake_core as core;
pub use deeplake_format as format;
pub use deeplake_hub as hub;
pub use deeplake_index as index;
pub use deeplake_loader as loader;
pub use deeplake_obs as obs;
pub use deeplake_remote as remote;
pub use deeplake_sim as sim;
pub use deeplake_storage as storage;
pub use deeplake_tensor as tensor;
pub use deeplake_tql as tql;
pub use deeplake_viz as viz;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use deeplake_cluster::{Cluster, ClusterClient, ClusterMount};
    pub use deeplake_codec::Compression;
    pub use deeplake_core::dataset::{Dataset, TensorOptions};
    pub use deeplake_core::link::{make_link, LinkRegistry};
    pub use deeplake_core::materialize::materialize;
    pub use deeplake_core::transform::TransformPipeline;
    pub use deeplake_core::version::MergePolicy;
    pub use deeplake_core::{DatasetView, IndexBuildReport, Row};
    pub use deeplake_hub::{Hub, HubHandle, HubOptions};
    pub use deeplake_index::{IndexKind, IndexSpec, Metric, VectorIndex};
    pub use deeplake_loader::{Batch, BatchColumn, DataLoader};
    pub use deeplake_obs::{Histogram, MetricsRegistry, MetricsSnapshot, TraceContext};
    pub use deeplake_remote::{RemoteOptions, RemoteProvider};
    pub use deeplake_storage::{
        DynProvider, LocalProvider, LruCacheProvider, MemoryProvider, NetworkProfile,
        SimulatedCloudProvider, StorageProvider,
    };
    pub use deeplake_tensor::{Dtype, Htype, Sample, Shape, SliceSpec};
    pub use deeplake_tql::{query, QueryOptions};
}
