//! # deeplake-format
//!
//! The Tensor Storage Format (TSF) — §3 of the Deep Lake paper.
//!
//! A tensor is a collection of **chunks**: binary blobs holding a
//! contiguous run of samples, each with its own shape (ragged layout). An
//! **index map** (the *chunk encoder*) translates a sample index into
//! `(chunk id, index within chunk)`. Oversized samples are split across
//! spatial **tiles** tracked by the *tile encoder*; videos are exempt from
//! tiling and get a frame-range index instead. Per-tensor **metadata**
//! records htype, dtype, compression and shape bounds.
//!
//! Layout of one tensor under its storage prefix (§3.4):
//!
//! ```text
//! <tensor>/meta.json            TensorMeta
//! <tensor>/chunk_encoder        serialized ChunkEncoder
//! <tensor>/chunk_stats          serialized ChunkStatsIndex (scalar tensors)
//! <tensor>/tile_encoder         serialized TileEncoder (only when tiling)
//! <tensor>/chunks/<chunk-id>    Chunk blobs
//! ```
//!
//! `chunk_stats` records per-chunk min/max/count/constant summaries for
//! all-scalar chunks — the predicate-pushdown index TQL uses to skip
//! chunks a filter cannot match. It is optional: stat-less datasets (or
//! tensors with non-scalar samples) open and query unchanged.
//!
//! Chunks are built with lower/upper byte-size bounds around a target
//! (default 8 MB, §3.5) — the paper's "optimized trade-off between file
//! system page map and compute-defined map-less array storage".

pub mod chunk;
pub mod chunk_builder;
pub mod chunk_encoder;
pub mod chunk_stats;
pub mod consts;
pub mod error;
pub mod meta;
pub mod tile_encoder;
pub mod video;

pub use chunk::{Chunk, ColumnView, VectorQuery};
pub use chunk_builder::{ChunkBuilder, ChunkSizePolicy, FlushReason};
pub use chunk_encoder::{ChunkEncoder, SampleLocation};
pub use chunk_stats::{ChunkStats, ChunkStatsIndex};
pub use error::FormatError;
pub use meta::TensorMeta;
pub use tile_encoder::{TileEncoder, TileLayout};
pub use video::VideoIndex;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FormatError>;
