//! # deeplake-loader
//!
//! The streaming dataloader (§4.6): "data fetching, decompression,
//! applying transformations, collation, and data handover to the training
//! model", with fetching and decoding parallelized across native worker
//! threads (the C++-per-process design of the paper — Rust threads need
//! no GIL workaround), bounded prefetch for backpressure, a shuffle
//! buffer for shuffled stream access (§3.5), and an epoch order that is
//! a function of the seed and the epoch's index, independent of worker
//! count and thread timing.
//!
//! The loader is transport-agnostic: pointed at a dataset opened over a
//! served mount (`deeplake-remote`), each worker task's single batched
//! storage call becomes a single network frame — N≥8 clients streaming
//! one server concurrently is exercised in
//! `crates/hub/tests/loopback.rs` and `deeplake-sim`'s serving
//! scenario.
//!
//! Every stage is instrumented (see [`report`]): log-scale histograms
//! under the `loader.*_ns` names, a prefetch queue-depth gauge, row and
//! byte counters with windowed rates, and per-worker utilization —
//! scrapeable live via [`DataLoader::metrics`]. Each sample is
//! recorded once, into that loader-lifetime registry; an epoch's
//! [`LoaderStats`] and [`EpochReport`] are the registry's growth since
//! the epoch began, so consume one epoch of a loader before starting
//! its next (overlapping epochs would share an interval). Each epoch
//! mints a trace root and fetches under per-task child spans, so
//! streaming from a hub yields one connected span tree from the
//! training step down to object storage;
//! [`EpochIter::report`](loader::EpochIter::report) summarizes an
//! epoch and attributes its [`Bottleneck`] automatically.
//!
//! The unit of work is a block of about `block_rows` rows that ends on
//! a chunk boundary of the streamed tensor with the most chunks whenever
//! one is near ([`shuffle`]). Each epoch is one plan drawn before a row
//! is fetched — the block order and the rows' delivery order
//! ([`shuffle::epoch_plan`]) — and one path delivers it: the consumer
//! issues blocks to the workers as far as its credit reaches, a block
//! travels back as one message, and the consumer puts its rows in plan
//! order. Those decisions are one socket-free state machine,
//! [`scheduler::Epoch`], which a test drives without a thread; the
//! [`loader`] drives it over the worker threads' channels.
//!
//! ```
//! use deeplake_core::Dataset;
//! use deeplake_loader::DataLoader;
//! use deeplake_storage::MemoryProvider;
//! use deeplake_tensor::{Htype, Sample};
//! use std::sync::Arc;
//!
//! let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "ex").unwrap();
//! ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
//! for i in 0..100 {
//!     ds.append_row(vec![("labels", Sample::scalar(i as i32))]).unwrap();
//! }
//! ds.flush().unwrap();
//! let ds = Arc::new(ds);
//!
//! let loader = DataLoader::builder(ds).batch_size(16).num_workers(2).build().unwrap();
//! let mut rows = 0;
//! for batch in loader.epoch() {
//!     rows += batch.unwrap().len();
//! }
//! assert_eq!(rows, 100);
//! ```

pub mod batch;
pub mod config;
pub mod loader;
pub mod memory;
pub mod report;
pub mod scheduler;
pub mod shuffle;

pub use batch::{Batch, BatchColumn};
pub use config::{LoaderBuilder, LoaderConfig, ShuffleConfig};
pub use loader::{DataLoader, EpochIter, LoaderStats};
pub use memory::MemoryEstimator;
pub use report::{Bottleneck, EpochReport, StageSummary, WorkerSummary};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, deeplake_core::CoreError>;
