//! # deeplake-storage
//!
//! Storage providers for Deep Lake (§3.6 of the paper): "Deep Lake can be
//! plugged into any storage provider, including object storages such as AWS
//! S3, Google Cloud Storage, POSIX compatible file systems, or local
//! in-memory storage. Moreover, it constructs memory caching by chaining
//! various storage providers together."
//!
//! * [`StorageProvider`] — the object-store trait: whole-object and byte
//!   *range* gets (range requests are what make shuffled streaming work,
//!   §3.5), puts, deletes, listing.
//! * [`MemoryProvider`] — in-memory map, the fastest tier.
//! * [`LocalProvider`] — a directory on a POSIX filesystem.
//! * [`SimulatedCloudProvider`] — wraps any provider with a deterministic
//!   network cost model (first-byte latency + bandwidth + per-request
//!   overhead). This is the repo's substitution for real S3/GCS/MinIO: the
//!   evaluation's signal is `requests × latency + bytes ÷ bandwidth`, which
//!   the model reproduces while exercising the same range-request code
//!   path. Request/byte counters make benchmark assertions possible.
//! * [`LruCacheProvider`] — read-through/write-through LRU chaining of two
//!   providers, e.g. memory over simulated S3.
//! * [`Recency`] — the byte-weighted least-recently-used order that cache
//!   and `deeplake-core`'s parsed-chunk cache evict by.
//!
//! Reads come in two granularities: the single-key `get`/`get_range`
//! methods, and the **batched scatter-gather path** — build a
//! [`ReadPlan`] covering every chunk a task needs and call
//! [`StorageProvider::execute`] once. Providers coalesce
//! adjacent/overlapping ranges per key and parallelize or amortize the
//! merged fetches; [`StorageStats::round_trips`] vs
//! [`StorageStats::logical_reads`] shows the saving. There is no third:
//! [`StorageProvider::get_many`] is the compatibility spelling of the
//! second — a provided method that builds a gap-free plan and calls
//! `execute` — so a provider implements one batched read, not two.

pub mod contract;
pub mod error;
pub mod fault;
pub mod local;
pub mod lru;
pub mod memory;
pub mod plan;
pub mod prefix;
pub mod provider;
pub mod recency;
pub mod sim;
pub mod stats;
pub mod timing;

pub use error::StorageError;
pub use fault::{FaultPlan, FaultProvider};
pub use local::LocalProvider;
pub use lru::LruCacheProvider;
pub use memory::MemoryProvider;
pub use plan::{CoalescedFetch, FetchPart, ReadPlan, ReadRequest, ReadResult};
pub use prefix::PrefixProvider;
pub use provider::{DynProvider, StorageProvider};
pub use recency::{Handle as RecencyHandle, Recency};
pub use sim::{NetworkProfile, SimulatedCloudProvider};
pub use stats::{StorageStats, StorageStatsSnapshot};
pub use timing::TimingProvider;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
