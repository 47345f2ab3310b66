//! # deeplake-core
//!
//! The Deep Lake dataset layer — the paper's primary contribution wired
//! together: columnar tensor datasets over any storage provider (§3.1),
//! Git-like version control built into the format (§4.2), parallel
//! sample-wise transforms (§4.1.2), linked tensors (§4.5), dataset views
//! and materialization (§4.4-4.5).
//!
//! "Any storage provider" includes a *remote* one: a dataset opens over
//! a served mount (`deeplake-remote`'s `RemoteProvider`) with the same
//! `Dataset::open(provider)` call, and every read path below —
//! including the batched [`Dataset::prefetch_chunks`] scatter-gather —
//! then travels as single wire frames.
//!
//! A batched read has one planner. [`Dataset::prefetch_chunks`] (a row
//! list) and [`Dataset::prefetch_spans`] (row ranges) differ only in how
//! a tensor enumerates the chunk ids; from there each tensor resolves
//! its ids once against the parsed-chunk cache — resident chunks are
//! pinned, missing ones named by storage key — the missing chunks of
//! every tensor travel in one `ReadPlan`, and what arrives is admitted
//! to the cache and pinned. The returned [`PrefetchedChunks`] holds
//! everything the task will read; the
//! [`ChunkCache`](chunk_cache::ChunkCache) (one per store: shared by
//! every tensor, version and [`Dataset::open_shared`] handle, over a pool
//! a hub shares between its mounts; least recently used evicted first
//! once the pool holds more than 64 chunks and more than 8 MiB) only
//! decides what the *next* task finds resident.
//!
//! ```
//! use deeplake_core::dataset::Dataset;
//! use deeplake_storage::MemoryProvider;
//! use deeplake_tensor::{Htype, Sample};
//! use std::sync::Arc;
//!
//! let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "quick").unwrap();
//! ds.create_tensor("images", Htype::Image, None).unwrap();
//! ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
//! ds.append_row(vec![
//!     ("images", Sample::zeros(deeplake_tensor::Dtype::U8, [4, 4, 3])),
//!     ("labels", Sample::scalar(1i32)),
//! ]).unwrap();
//! ds.flush().unwrap();
//! assert_eq!(ds.len(), 1);
//! let commit = ds.commit("first images").unwrap();
//! assert!(!commit.is_empty());
//! ```

pub mod chunk_cache;
pub mod dataset;
pub mod error;
pub mod link;
pub mod materialize;
pub mod row;
pub mod sample_id;
pub mod tensor_store;
pub mod transform;
pub mod version;
pub mod view;

#[cfg(test)]
mod stored_bytes_pin;

pub use dataset::{Dataset, IndexBuildReport, PrefetchedChunks};
pub use error::CoreError;
pub use row::Row;
pub use tensor_store::ColumnRun;
pub use view::DatasetView;

// Re-exported for layers (query planning, streaming) that reason about
// chunks without depending on the format crate directly.
pub use deeplake_format::{Chunk, ChunkStats, ColumnView, VectorQuery};

// Re-exported so consumers configure and probe vector indexes without a
// direct dependency on the index crate.
pub use deeplake_index::{IndexKind, IndexSpec, Metric, VectorIndex};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
