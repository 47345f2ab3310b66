//! Chunk construction under size bounds.
//!
//! §3.4: "Deep Lake chunks are constructed based on the lower and upper
//! bound of the chunk size to fit a limited number of samples." The builder
//! accumulates samples into an open chunk and reports when the chunk should
//! be flushed to storage:
//!
//! * once the open chunk crosses the **lower bound** it is *eligible* to
//!   close; it closes as soon as the next sample would push it past the
//!   **target**;
//! * a sample whose stored blob alone exceeds the **upper bound** must be
//!   tiled (the builder rejects it with [`FlushReason::NeedsTiling`] and
//!   the caller routes it through the tile encoder) — except video, which
//!   is exempt (§3.4).

use deeplake_codec::Compression;
use deeplake_tensor::{Dtype, Sample, Shape};

use crate::chunk::{encode_sample_into, Chunk};
use crate::chunk_stats::{ChunkStats, StatsAccumulator};
use crate::consts::{DEFAULT_CHUNK_MAX, DEFAULT_CHUNK_MIN, DEFAULT_CHUNK_TARGET};
use crate::Result;

/// Size bounds governing when chunks close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSizePolicy {
    /// A chunk may close once it holds at least this many payload bytes.
    pub min_bytes: usize,
    /// Preferred chunk size; the builder closes a chunk rather than exceed
    /// this when the chunk is already ≥ `min_bytes`.
    pub target_bytes: usize,
    /// Hard cap: a single stored sample larger than this must be tiled.
    pub max_bytes: usize,
    /// Whether oversized samples are allowed anyway (video exemption).
    pub allow_oversized: bool,
}

impl Default for ChunkSizePolicy {
    fn default() -> Self {
        ChunkSizePolicy {
            min_bytes: DEFAULT_CHUNK_MIN,
            target_bytes: DEFAULT_CHUNK_TARGET,
            max_bytes: DEFAULT_CHUNK_MAX,
            allow_oversized: false,
        }
    }
}

impl ChunkSizePolicy {
    /// Policy with a custom target; min = target/2, max = target×2.
    pub fn with_target(target_bytes: usize) -> Self {
        ChunkSizePolicy {
            min_bytes: target_bytes / 2,
            target_bytes,
            max_bytes: target_bytes * 2,
            allow_oversized: false,
        }
    }

    /// Video policy: same bounds but oversized samples stay whole.
    pub fn video(target_bytes: usize) -> Self {
        ChunkSizePolicy {
            allow_oversized: true,
            ..Self::with_target(target_bytes)
        }
    }
}

/// Why [`ChunkBuilder::push`] produced output.
#[derive(Debug, PartialEq)]
pub enum FlushReason {
    /// The open chunk filled up; the returned chunk is complete and the
    /// pushed sample started a new one.
    ChunkFull(Chunk),
    /// The sample is larger than `max_bytes` and must be tiled. The open
    /// chunk is untouched; the sample was *not* appended.
    NeedsTiling {
        /// Stored byte size that exceeded the cap.
        stored_len: usize,
    },
    /// The sample was appended to the open chunk; nothing to flush.
    Buffered,
}

/// Accumulates samples into size-bounded chunks.
///
/// Alongside the bytes, the builder tracks [`ChunkStats`] for the open
/// chunk: scalar (single-element) samples feed a min/max/constant
/// accumulator; any non-scalar sample — or a pre-encoded blob whose value
/// the builder cannot see — marks the chunk stat-less. When a chunk
/// seals, its stats are parked in [`ChunkBuilder::sealed_stats`] for the
/// caller to record in the tensor's statistics index.
pub struct ChunkBuilder {
    policy: ChunkSizePolicy,
    sample_compression: Compression,
    dtype: Dtype,
    open: Chunk,
    open_stats: StatsAccumulator,
    sealed_stats: Option<ChunkStats>,
}

impl ChunkBuilder {
    /// New builder for samples of `dtype`, compressing each sample with
    /// `sample_compression` before it enters a chunk.
    pub fn new(dtype: Dtype, sample_compression: Compression, policy: ChunkSizePolicy) -> Self {
        ChunkBuilder {
            policy,
            sample_compression,
            dtype,
            open: Chunk::new(dtype),
            open_stats: StatsAccumulator::new(),
            sealed_stats: None,
        }
    }

    /// The size policy in force.
    pub fn policy(&self) -> ChunkSizePolicy {
        self.policy
    }

    /// Samples buffered in the open chunk.
    pub fn open_samples(&self) -> usize {
        self.open.sample_count()
    }

    /// Borrow the open (not yet flushed) chunk — lets readers see rows that
    /// have been appended but not yet written to storage.
    pub fn open_chunk(&self) -> &Chunk {
        &self.open
    }

    /// Push one sample. Returns what happened; see [`FlushReason`].
    ///
    /// The sample is encoded straight onto the end of the open chunk's
    /// payload, and where it goes is decided from the bytes just written:
    /// it stays, it moves into the next chunk when this one closes, or it
    /// is taken back when it must be tiled. No blob is built on the side,
    /// and the payload's room is taken once per chunk: the target, so
    /// only the sample that crosses it grows the buffer, just before it
    /// moves on. (Reserving the hard cap instead read 7 MiB more peak
    /// RSS on the benchmark's `ingest`, for no speed.)
    pub fn push(&mut self, sample: &Sample) -> Result<FlushReason> {
        let compression = self.sample_compression;
        let scalar = (sample.num_elements() == 1)
            .then(|| sample.get_f64(0).ok())
            .flatten();
        self.place(sample.shape(), scalar, |tail| {
            encode_sample_into(sample, compression, tail)
        })
    }

    /// Push an already-encoded blob (the §5 verbatim-copy path for
    /// pre-compressed raw files whose codec matches the tensor's). The
    /// builder never decodes the blob, so the open chunk loses statistics
    /// eligibility — conservative, not an error.
    pub fn push_encoded(&mut self, blob: &[u8], shape: &Shape) -> Result<FlushReason> {
        self.place(shape, None, |tail| {
            tail.extend_from_slice(blob);
            Ok(())
        })
    }

    /// Write a stored blob onto the open chunk's tail with `write`, then
    /// keep it there, move it into a fresh chunk or take it back.
    fn place(
        &mut self,
        shape: &Shape,
        scalar: Option<f64>,
        write: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<FlushReason> {
        let policy = self.policy;
        let open_len = self.open.payload_len();
        let tail = self.open.tail();
        if open_len == 0 {
            tail.reserve(policy.target_bytes);
        }
        // nothing is appended on error
        write(tail)?;
        let stored_len = tail.len() - open_len;
        if stored_len > policy.max_bytes && !policy.allow_oversized {
            self.open.drop_tail();
            return Ok(FlushReason::NeedsTiling { stored_len });
        }
        let would_be = open_len + stored_len;
        let must_close = self.open.sample_count() > 0
            && ((would_be > policy.target_bytes
                && open_len >= policy.min_bytes.min(policy.target_bytes))
                // even below min_bytes we must not blow past the hard cap
                || would_be > policy.max_bytes);
        if must_close {
            // close the open chunk, start fresh with this sample
            let next = self.open.split_tail(policy.target_bytes);
            let full = std::mem::replace(&mut self.open, next);
            self.sealed_stats = self.open_stats.finish();
            self.open_stats = StatsAccumulator::new();
            self.open_stats.observe(scalar);
            self.open.commit_tail(shape);
            return Ok(FlushReason::ChunkFull(full));
        }
        self.open_stats.observe(scalar);
        self.open.commit_tail(shape);
        Ok(FlushReason::Buffered)
    }

    /// Close and return the open chunk if it holds any samples.
    pub fn finish(&mut self) -> Option<Chunk> {
        if self.open.sample_count() == 0 {
            None
        } else {
            self.sealed_stats = self.open_stats.finish();
            self.open_stats = StatsAccumulator::new();
            Some(std::mem::replace(&mut self.open, Chunk::new(self.dtype)))
        }
    }

    /// Statistics of the most recently sealed chunk (set by the
    /// [`FlushReason::ChunkFull`] path and by [`ChunkBuilder::finish`];
    /// `None` when that chunk held non-scalar samples). Read it right
    /// after receiving the sealed chunk — the next seal overwrites it.
    pub fn sealed_stats(&self) -> Option<ChunkStats> {
        self.sealed_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder(target: usize) -> ChunkBuilder {
        ChunkBuilder::new(
            Dtype::U8,
            Compression::None,
            ChunkSizePolicy::with_target(target),
        )
    }

    fn sample(n: usize) -> Sample {
        Sample::from_slice([n as u64], &vec![1u8; n]).unwrap()
    }

    #[test]
    fn small_samples_accumulate() {
        let mut b = builder(1000);
        for _ in 0..5 {
            assert_eq!(b.push(&sample(50)).unwrap(), FlushReason::Buffered);
        }
        assert_eq!(b.open_samples(), 5);
        let last = b.finish().unwrap();
        assert_eq!(last.sample_count(), 5);
        assert!(b.finish().is_none());
    }

    #[test]
    fn chunk_closes_near_target() {
        let mut b = builder(1000);
        let mut flushed = Vec::new();
        // framed blobs are n+1 bytes
        for _ in 0..20 {
            if let FlushReason::ChunkFull(c) = b.push(&sample(200)).unwrap() {
                flushed.push(c);
            }
        }
        if let Some(c) = b.finish() {
            flushed.push(c);
        }
        let total: usize = flushed.iter().map(|c| c.sample_count()).sum();
        assert_eq!(total, 20);
        for c in &flushed[..flushed.len() - 1] {
            // closed chunks are between min and target
            assert!(c.payload_len() <= 1000, "chunk size {}", c.payload_len());
            assert!(c.payload_len() >= 500, "chunk size {}", c.payload_len());
        }
    }

    #[test]
    fn oversized_sample_needs_tiling() {
        let mut b = builder(1000); // max = 2000
        match b.push(&sample(5000)).unwrap() {
            FlushReason::NeedsTiling { stored_len } => assert!(stored_len > 2000),
            other => panic!("expected NeedsTiling, got {other:?}"),
        }
        // the open chunk was not polluted
        assert_eq!(b.open_samples(), 0);
    }

    #[test]
    fn video_policy_allows_oversized() {
        let mut b = ChunkBuilder::new(Dtype::U8, Compression::None, ChunkSizePolicy::video(1000));
        assert_eq!(b.push(&sample(5000)).unwrap(), FlushReason::Buffered);
        assert_eq!(b.finish().unwrap().sample_count(), 1);
    }

    #[test]
    fn hard_cap_respected_even_below_min() {
        // min=500, target=1000, max=2000; two 900-byte samples: first
        // buffers (901 framed), second would make 1802 < 2000 but
        // 1802 > target with open >= min... flushes by target rule.
        let mut b = builder(1000);
        assert_eq!(b.push(&sample(900)).unwrap(), FlushReason::Buffered);
        match b.push(&sample(900)).unwrap() {
            FlushReason::ChunkFull(c) => assert_eq!(c.sample_count(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_giant_but_allowed_sample_per_chunk() {
        // sample bigger than target but smaller than max: occupies its own chunk
        let mut b = builder(1000);
        assert_eq!(b.push(&sample(1500)).unwrap(), FlushReason::Buffered);
        match b.push(&sample(100)).unwrap() {
            FlushReason::ChunkFull(c) => {
                assert_eq!(c.sample_count(), 1);
                assert!(c.payload_len() > 1000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn default_policy_is_8mb() {
        let p = ChunkSizePolicy::default();
        assert_eq!(p.target_bytes, 8 * 1024 * 1024);
        assert_eq!(p.min_bytes, 4 * 1024 * 1024);
        assert_eq!(p.max_bytes, 16 * 1024 * 1024);
    }

    #[test]
    fn scalar_chunks_carry_stats() {
        let mut b = ChunkBuilder::new(
            Dtype::I32,
            Compression::None,
            ChunkSizePolicy::with_target(40),
        );
        // 5-byte framed blobs: 8 scalars per ~40-byte chunk
        let mut sealed = Vec::new();
        for i in 0..20 {
            if let FlushReason::ChunkFull(_) = b.push(&Sample::scalar(i % 7)).unwrap() {
                sealed.push(b.sealed_stats());
            }
        }
        if b.finish().is_some() {
            sealed.push(b.sealed_stats());
        }
        assert!(!sealed.is_empty());
        for s in &sealed {
            let s = s.expect("scalar chunks must have stats");
            assert!(s.min >= 0.0 && s.max <= 6.0 && s.samples > 0);
        }
        let total: u64 = sealed.iter().map(|s| s.unwrap().samples).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn non_scalar_samples_disable_stats() {
        let mut b = builder(1000);
        for _ in 0..5 {
            b.push(&sample(50)).unwrap(); // 50-element samples: not scalars
        }
        b.finish().unwrap();
        assert!(b.sealed_stats().is_none());
    }

    #[test]
    fn verbatim_blob_disables_stats_for_its_chunk() {
        let mut b = ChunkBuilder::new(
            Dtype::I32,
            Compression::None,
            ChunkSizePolicy::with_target(1000),
        );
        b.push(&Sample::scalar(1i32)).unwrap();
        let blob = Compression::None.compress(&2i32.to_le_bytes());
        b.push_encoded(&blob, &deeplake_tensor::Shape::scalar())
            .unwrap();
        b.finish().unwrap();
        assert!(b.sealed_stats().is_none(), "opaque blob poisons the chunk");
    }

    #[test]
    fn constant_chunk_flagged() {
        let mut b = ChunkBuilder::new(
            Dtype::I32,
            Compression::None,
            ChunkSizePolicy::with_target(1000),
        );
        for _ in 0..4 {
            b.push(&Sample::scalar(9i32)).unwrap();
        }
        b.finish().unwrap();
        let s = b.sealed_stats().unwrap();
        assert!(s.constant);
        assert_eq!((s.min, s.max, s.samples), (9.0, 9.0, 4));
    }

    #[test]
    fn compressed_samples_counted_by_stored_size() {
        // highly compressible samples: many fit per chunk despite large raw size
        let mut b = ChunkBuilder::new(
            Dtype::U8,
            Compression::Lz4,
            ChunkSizePolicy::with_target(1000),
        );
        for _ in 0..50 {
            let r = b.push(&sample(10_000)).unwrap(); // ~50 bytes compressed
            assert!(matches!(
                r,
                FlushReason::Buffered | FlushReason::ChunkFull(_)
            ));
        }
        let c = b.finish().unwrap();
        assert!(c.sample_count() > 5, "compression should pack many samples");
    }
}
