//! Per-tensor storage engine.
//!
//! A `TensorStore` owns one tensor's chunks, chunk encoder, tile encoder
//! and metadata, bound to a *chain* of version sub-directories (HEAD
//! first). Writes always land in the HEAD directory; reads resolve a chunk
//! id by walking the chain toward the first commit and checking each
//! version's `chunk_set` (§4.2) — copy-on-write at chunk granularity.
//!
//! Parsed chunks are not the store's: it reads them through the
//! [`ChunkCache`] it was opened with, the one its dataset shares across
//! tensors, versions and handles, under the key of the directory that
//! owns them. Every chunk write takes a fresh id, so no write here ever
//! leaves a cached chunk stale.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use deeplake_format::chunk::{decode_sample, encode_sample};
use deeplake_format::{
    Chunk, ChunkBuilder, ChunkEncoder, ChunkSizePolicy, ChunkStats, ChunkStatsIndex, FlushReason,
    SampleLocation, TensorMeta, TileEncoder, TileLayout,
};
use deeplake_index::{VectorIndex, VECTOR_INDEX_KEY, VECTOR_INDEX_STALE_KEY};
use deeplake_storage::{PrefixProvider, StorageProvider};
use deeplake_tensor::{Htype, Sample};

use crate::chunk_cache::{ChunkCache, ChunkKey};
use crate::error::{optional, CoreError};
use crate::version::CommitDiff;
use crate::Result;

const META_KEY: &str = "meta.json";
const ENCODER_KEY: &str = "chunk_encoder";
const STATS_KEY: &str = "chunk_stats";
const TILES_KEY: &str = "tile_encoder";
const CHUNK_SET_KEY: &str = "chunk_set.json";
const DIFF_KEY: &str = "commit_diff.json";

/// One version sub-directory of this tensor plus the set of chunks it owns.
pub struct VersionDir {
    /// Provider scoped at `versions/<node>/<tensor>/`.
    pub provider: PrefixProvider,
    /// Ids of chunks written in this version.
    pub chunk_set: HashSet<u64>,
    /// The provider's prefix as the chunk cache numbers it: this
    /// version's chunk `id` is cached as `(cache_dir, id)`.
    cache_dir: u64,
}

impl VersionDir {
    /// Load a version dir, reading its chunk set if present.
    pub fn load(provider: PrefixProvider, chunks: &ChunkCache) -> Result<Self> {
        let chunk_set = match optional(provider.get(CHUNK_SET_KEY))? {
            Some(data) => serde_json::from_slice::<Vec<u64>>(&data)?
                .into_iter()
                .collect(),
            None => HashSet::new(),
        };
        Ok(VersionDir {
            chunk_set,
            ..VersionDir::empty(provider, chunks)
        })
    }

    /// A version dir that owns no chunks yet.
    fn empty(provider: PrefixProvider, chunks: &ChunkCache) -> Self {
        VersionDir {
            cache_dir: chunks.dir(provider.prefix()),
            provider,
            chunk_set: HashSet::new(),
        }
    }
}

/// One run of consecutive rows resident in a single decoded chunk:
/// records `first..first + len` of [`chunk`](ColumnRun::chunk) — what
/// [`TensorStore::column_runs`] resolves a row range to, once per run
/// rather than once per row.
pub struct ColumnRun<'a> {
    chunk: RunChunk<'a>,
    /// Index of the run's first record inside the chunk.
    pub first: usize,
    /// Rows in the run.
    pub len: usize,
}

enum RunChunk<'a> {
    /// Unflushed rows: the builder's open chunk.
    Open(&'a Chunk),
    Sealed(Arc<Chunk>),
}

impl ColumnRun<'_> {
    /// The decoded chunk holding the run.
    pub fn chunk(&self) -> &Chunk {
        match &self.chunk {
            RunChunk::Open(chunk) => chunk,
            RunChunk::Sealed(chunk) => chunk,
        }
    }
}

/// Storage engine for one tensor.
pub struct TensorStore {
    meta: TensorMeta,
    encoder: ChunkEncoder,
    /// Per-chunk scalar statistics (the TQL pushdown index). Empty for
    /// datasets written before statistics existed or tensors whose
    /// samples are not scalars — readers treat a missing entry as
    /// "cannot prune".
    stats: ChunkStatsIndex,
    tiles: TileEncoder,
    builder: ChunkBuilder,
    /// HEAD first, root last.
    chain: Vec<VersionDir>,
    diff: CommitDiff,
    /// Where parsed chunks live, shared with the rest of the dataset.
    chunks: Arc<ChunkCache>,
    /// Whether this handle already invalidated (or verified the absence
    /// of) the tensor's vector index — makes repeated updates write at
    /// most one tombstone.
    vector_index_invalidated: bool,
    dirty: bool,
}

fn policy_for(meta: &TensorMeta) -> ChunkSizePolicy {
    let target = meta.chunk_target_bytes as usize;
    if matches!(meta.htype.base(), Htype::Video) {
        ChunkSizePolicy::video(target)
    } else {
        ChunkSizePolicy::with_target(target)
    }
}

impl TensorStore {
    /// Create a fresh tensor in `head`, reading through `chunks`.
    pub fn create(meta: TensorMeta, head: PrefixProvider, chunks: Arc<ChunkCache>) -> Result<Self> {
        let builder = ChunkBuilder::new(meta.dtype, meta.sample_compression, policy_for(&meta));
        let store = TensorStore {
            builder,
            meta,
            encoder: ChunkEncoder::new(),
            stats: ChunkStatsIndex::new(),
            tiles: TileEncoder::new(),
            chain: vec![VersionDir::empty(head, &chunks)],
            diff: CommitDiff::new(),
            chunks,
            vector_index_invalidated: false,
            dirty: true,
        };
        Ok(store)
    }

    /// Open an existing tensor given its version chain (HEAD first),
    /// reading through `chunks`. State files are loaded from the most
    /// recent version that wrote them.
    pub fn open(chain: Vec<PrefixProvider>, chunks: Arc<ChunkCache>) -> Result<Self> {
        let mut dirs = Vec::with_capacity(chain.len());
        for p in chain {
            dirs.push(VersionDir::load(p, &chunks)?);
        }
        let mut state_dir = None;
        for dir in &dirs {
            if let Some(data) = optional(dir.provider.get(META_KEY))? {
                state_dir = Some((&dir.provider, data));
                break;
            }
        }
        let (state, meta) = state_dir
            .ok_or_else(|| CoreError::Corrupt("tensor has no meta.json in any version".into()))?;
        let meta = TensorMeta::from_json(&meta)
            .map_err(|e| CoreError::Corrupt(format!("{META_KEY}: {e}")))?;
        let encoder = match optional(state.get(ENCODER_KEY))? {
            Some(data) => ChunkEncoder::deserialize(&data)?,
            None => ChunkEncoder::new(),
        };
        // pre-statistics datasets have no stats file: open with an empty
        // index (pruning silently disabled)
        let stats = match optional(state.get(STATS_KEY))? {
            Some(data) => ChunkStatsIndex::deserialize(&data)?,
            None => ChunkStatsIndex::new(),
        };
        let tiles = match optional(state.get(TILES_KEY))? {
            Some(data) => TileEncoder::deserialize(&data)?,
            None => TileEncoder::new(),
        };
        let diff = match optional(dirs[0].provider.get(DIFF_KEY))? {
            Some(data) => CommitDiff::from_json(&data)?,
            None => CommitDiff::new(),
        };
        let builder = ChunkBuilder::new(meta.dtype, meta.sample_compression, policy_for(&meta));
        Ok(TensorStore {
            builder,
            meta,
            encoder,
            stats,
            tiles,
            chain: dirs,
            diff,
            chunks,
            vector_index_invalidated: false,
            dirty: false,
        })
    }

    /// Tensor metadata.
    pub fn meta(&self) -> &TensorMeta {
        &self.meta
    }

    /// Number of rows, including unflushed ones.
    pub fn len(&self) -> u64 {
        self.encoder.num_rows() + self.builder.open_samples() as u64
    }

    /// Whether the tensor holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pending commit diff for the HEAD version.
    pub fn pending_diff(&self) -> &CommitDiff {
        &self.diff
    }

    /// Fragmentation of the chunk layout (see
    /// [`ChunkEncoder::fragmentation`]).
    pub fn fragmentation(&self) -> f64 {
        self.encoder.fragmentation()
    }

    /// Append one sample.
    ///
    /// The empty marker sample (shape `[0]`) is accepted by any htype: rows
    /// with no value for this tensor store it to keep row counts aligned
    /// (§3.1: sample elements are logically independent).
    pub fn append(&mut self, sample: &Sample) -> Result<()> {
        let is_empty_marker = sample.shape().dims() == [0];
        if !is_empty_marker {
            self.meta.htype.validate(sample)?;
        }
        if sample.dtype() != self.meta.dtype {
            return Err(CoreError::Tensor(
                deeplake_tensor::TensorError::DtypeMismatch {
                    left: sample.dtype(),
                    right: self.meta.dtype,
                },
            ));
        }
        let row = self.len();
        match self.builder.push(sample)? {
            FlushReason::Buffered => {}
            FlushReason::ChunkFull(chunk) => {
                self.write_sealed_chunk(chunk)?;
            }
            FlushReason::NeedsTiling { .. } => {
                self.append_tiled(sample)?;
            }
        }
        self.meta.observe(sample.shape());
        self.diff.added.insert(row);
        self.dirty = true;
        Ok(())
    }

    /// Append a pre-encoded blob whose codec matches the tensor's sample
    /// compression (§5: the binary is copied into a chunk without
    /// additional decoding). The caller supplies the decoded shape.
    pub fn append_encoded(&mut self, blob: Vec<u8>, shape: deeplake_tensor::Shape) -> Result<()> {
        let row = self.len();
        self.meta.htype.validate_shape(self.meta.dtype, &shape)?;
        match self.builder.push_encoded(&blob, &shape)? {
            FlushReason::Buffered => {}
            FlushReason::ChunkFull(chunk) => self.write_sealed_chunk(chunk)?,
            FlushReason::NeedsTiling { .. } => {
                return Err(CoreError::Corrupt(
                    "pre-encoded oversized blobs cannot be tiled; append the decoded sample".into(),
                ))
            }
        }
        self.meta.observe(&shape);
        self.diff.added.insert(row);
        self.dirty = true;
        Ok(())
    }

    fn append_tiled(&mut self, sample: &Sample) -> Result<()> {
        let row = self.encoder.num_rows() + self.builder.open_samples() as u64;
        // tiles must map to rows *after* currently open samples: seal them
        self.seal_open_chunk()?;
        debug_assert_eq!(row, self.encoder.num_rows());

        let first = self.write_tiles(row, sample)?;
        // the encoder still owns row accounting: point the row at its first
        // tile chunk (readers consult the tile encoder before the map)
        self.encoder.append_run(first, 0, 1);
        Ok(())
    }

    /// Split `sample` into tiles, write each as a chunk of its own and
    /// record the layout for `row`. Returns the first tile's chunk id.
    fn write_tiles(&mut self, row: u64, sample: &Sample) -> Result<u64> {
        let tile_shape = deeplake_format::tile_encoder::compute_tile_shape(
            sample.shape(),
            sample.dtype().size(),
            self.builder.policy().target_bytes,
        );
        let pieces = deeplake_format::tile_encoder::split_into_tiles(sample, &tile_shape)?;
        let mut tile_chunks = Vec::with_capacity(pieces.len());
        for (_, tile) in &pieces {
            let mut chunk = Chunk::new(self.meta.dtype);
            chunk.append_sample(tile, self.meta.sample_compression)?;
            tile_chunks.push(self.put_chunk(&chunk)?);
        }
        let first = tile_chunks[0];
        self.tiles.insert(
            row,
            TileLayout {
                sample_shape: sample.shape().clone(),
                tile_shape,
                tile_chunks,
            },
        );
        Ok(first)
    }

    /// Update a row in place (§3.5 random access writes). The new value is
    /// written to a fresh chunk in the HEAD version; the index map is
    /// re-pointed.
    pub fn update(&mut self, row: u64, sample: &Sample) -> Result<()> {
        if row >= self.len() {
            return Err(CoreError::RowOutOfRange {
                row,
                len: self.len(),
            });
        }
        self.meta.htype.validate(sample)?;
        if sample.dtype() != self.meta.dtype {
            return Err(CoreError::Tensor(
                deeplake_tensor::TensorError::DtypeMismatch {
                    left: sample.dtype(),
                    right: self.meta.dtype,
                },
            ));
        }
        self.invalidate_vector_index()?;
        // rows still in the open chunk get sealed first so the encoder owns them
        if row >= self.encoder.num_rows() {
            self.seal_open_chunk()?;
        }
        let blob = encode_sample(sample, self.meta.sample_compression)?;
        if blob.len() > self.builder.policy().max_bytes && !self.builder.policy().allow_oversized {
            // oversized replacement: tile it
            let first = self.write_tiles(row, sample)?;
            self.encoder.replace_row(
                row,
                SampleLocation {
                    chunk_id: first,
                    local_index: 0,
                },
            )?;
        } else {
            let mut chunk = Chunk::new(self.meta.dtype);
            chunk.append_blob(&blob, sample.shape());
            let id = self.put_chunk(&chunk)?;
            if sample.num_elements() == 1 {
                if let Ok(v) = sample.get_f64(0) {
                    self.record_stats(id, ChunkStats::single(v));
                }
            }
            self.tiles.remove(row);
            self.encoder.replace_row(
                row,
                SampleLocation {
                    chunk_id: id,
                    local_index: 0,
                },
            )?;
        }
        self.meta.observe(sample.shape());
        self.meta.length -= 1; // observe() counts a new row; updates do not add one
        if !self.diff.added.contains(row) {
            self.diff.updated.insert(row);
        }
        self.dirty = true;
        Ok(())
    }

    /// Read one sample.
    pub fn get(&self, row: u64) -> Result<Sample> {
        self.read(row, &HashMap::new())
    }

    /// The sample reader. A chunk is taken from `pinned` — what a batch
    /// reader resolved for its task ([`resolve_rows`](Self::resolve_rows)
    /// / [`resolve_spans`](Self::resolve_spans)), out of the shared
    /// cache's reach — else from the cache, else fetched single-key
    /// ([`read_chunk`](Self::read_chunk)); a bare [`get`](Self::get) has
    /// pinned nothing.
    pub(crate) fn read(&self, row: u64, pinned: &HashMap<u64, Arc<Chunk>>) -> Result<Sample> {
        let chunk_of = |id: u64| match pinned.get(&id) {
            Some(chunk) => Ok(chunk.clone()),
            None => self.read_chunk(id),
        };
        if row >= self.len() {
            return Err(CoreError::RowOutOfRange {
                row,
                len: self.len(),
            });
        }
        if let Some(layout) = self.tiles.get(row) {
            let layout = layout.clone();
            let mut tiles = Vec::with_capacity(layout.tile_chunks.len());
            for &cid in &layout.tile_chunks {
                let chunk = chunk_of(cid)?;
                tiles.push(chunk.sample(0)?);
            }
            return Ok(deeplake_format::tile_encoder::reassemble_tiles(
                &layout,
                self.meta.dtype,
                &tiles,
            )?);
        }
        if row >= self.encoder.num_rows() {
            let local = (row - self.encoder.num_rows()) as usize;
            return Ok(self.builder.open_chunk().sample(local)?);
        }
        let loc = self.encoder.locate(row)?;
        let chunk = chunk_of(loc.chunk_id)?;
        Ok(chunk.sample(loc.local_index as usize)?)
    }

    /// Read only the shape of a row (decodes the chunk directory, not the
    /// sample payload, unless the row is tiled).
    pub fn get_shape(&self, row: u64) -> Result<deeplake_tensor::Shape> {
        if let Some(layout) = self.tiles.get(row) {
            return Ok(layout.sample_shape.clone());
        }
        if row >= self.len() {
            return Err(CoreError::RowOutOfRange {
                row,
                len: self.len(),
            });
        }
        if row >= self.encoder.num_rows() {
            let local = (row - self.encoder.num_rows()) as usize;
            return Ok(self.builder.open_chunk().shape(local)?);
        }
        let loc = self.encoder.locate(row)?;
        let chunk = self.read_chunk(loc.chunk_id)?;
        Ok(chunk.shape(loc.local_index as usize)?)
    }

    /// Recorded statistics of one chunk, if any.
    pub fn chunk_stats(&self, chunk_id: u64) -> Option<ChunkStats> {
        self.stats.get(chunk_id)
    }

    /// Number of chunks with recorded statistics.
    pub fn stats_coverage(&self) -> usize {
        self.stats.len()
    }

    /// Load the tensor's vector (embedding) index, resolving through the
    /// version chain: the most recent version that wrote either the
    /// index or a stale tombstone decides. Returns `None` for tensors
    /// that never built one, whose index was invalidated by an in-place
    /// update or re-chunk, or datasets written before the
    /// `vector_index/` key family existed.
    pub fn load_vector_index(&self) -> Result<Option<VectorIndex>> {
        for dir in &self.chain {
            // a storage error probing the tombstone means "unknown":
            // treated as stale, mirroring the write path's conservatism
            // — never resolve an ancestor index past a tombstone we
            // could not rule out
            match dir.provider.exists(VECTOR_INDEX_STALE_KEY) {
                Ok(false) => {}
                Ok(true) | Err(_) => return Ok(None),
            }
            if let Some(data) = optional(dir.provider.get(VECTOR_INDEX_KEY))? {
                let index = VectorIndex::deserialize(&data)
                    .map_err(|e| CoreError::Corrupt(format!("vector index: {e}")))?;
                return Ok(Some(index));
            }
        }
        Ok(None)
    }

    /// Persist a freshly built vector index into the HEAD version
    /// (clearing any stale tombstone there).
    pub fn save_vector_index(&mut self, index: &VectorIndex) -> Result<()> {
        let head = &self.chain[0].provider;
        head.put(VECTOR_INDEX_KEY, Bytes::from(index.serialize()))?;
        head.delete(VECTOR_INDEX_STALE_KEY)?;
        self.vector_index_invalidated = false;
        Ok(())
    }

    /// Invalidate the tensor's vector index: called by every mutation
    /// that can change the value behind an already-indexed row (in-place
    /// update, re-chunk). Deletes the HEAD copy and writes a tombstone
    /// so an index persisted in an *ancestor* version directory cannot
    /// be resolved either; a stale index can never serve wrong rows.
    /// Appends don't invalidate — indexed rows keep their values and the
    /// consumer exact-scans the unindexed tail.
    fn invalidate_vector_index(&mut self) -> Result<()> {
        if self.vector_index_invalidated {
            return Ok(());
        }
        // decide whether a tombstone is needed; a storage error while
        // probing means "unknown", which must count as "an index might
        // exist" — skipping on error could leave a stale index live
        let mut must_tombstone = false;
        'walk: for dir in &self.chain {
            match dir.provider.exists(VECTOR_INDEX_STALE_KEY) {
                Ok(true) => break 'walk, // already tombstoned this recently
                Ok(false) => {}
                Err(_) => {
                    must_tombstone = true;
                    break 'walk;
                }
            }
            match dir.provider.exists(VECTOR_INDEX_KEY) {
                Ok(true) | Err(_) => {
                    must_tombstone = true;
                    break 'walk;
                }
                Ok(false) => {}
            }
        }
        if must_tombstone {
            let head = &self.chain[0].provider;
            head.delete(VECTOR_INDEX_KEY)?;
            head.put(VECTOR_INDEX_STALE_KEY, Bytes::from_static(b"1"))?;
        }
        // memoized only on success: a failed tombstone write (the `?`
        // above) leaves the flag clear so the next mutation retries
        self.vector_index_invalidated = true;
        Ok(())
    }

    /// Conservative scalar summary of rows `[start, end)`, or `None` when
    /// any covering chunk lacks statistics (stat-less dataset, non-scalar
    /// samples, tiled rows, or rows still in the open chunk). The query
    /// planner prunes a row span only when this returns `Some` and the
    /// filter provably rejects the whole interval.
    pub fn stats_for_rows(&self, start: u64, end: u64) -> Option<ChunkStats> {
        if start >= end || end > self.encoder.num_rows() {
            return None;
        }
        let spans = self.encoder.locate_range(start, end).ok()?;
        self.stats.merge_all(spans.into_iter().map(|(id, _, _)| id))
    }

    /// The tensor's row space as chunk-aligned spans `(chunk_id, start,
    /// len)` in row order; rows still in the open chunk report
    /// `chunk_id = None`. One span = one decodable unit — the task
    /// skeleton for chunk-granular query execution.
    pub fn chunk_spans(&self) -> Vec<(Option<u64>, u64, u64)> {
        let mut out: Vec<(Option<u64>, u64, u64)> = self
            .encoder
            .spans()
            .into_iter()
            .map(|(id, start, len)| (Some(id), start, len as u64))
            .collect();
        let open = self.builder.open_samples() as u64;
        if open > 0 {
            out.push((None, self.encoder.num_rows(), open));
        }
        out
    }

    /// A batch reader's plan for the chunks `rows` need: those the cache
    /// holds are pinned into `pinned`, the rest come back as `(cache key,
    /// absolute storage key)` for the task's one
    /// [`deeplake_storage::ReadPlan`] (see [`resolve`](Self::resolve)).
    /// Enumerated per row; rows in the open chunk need no chunk.
    pub(crate) fn resolve_rows(
        &self,
        rows: &[u64],
        pinned: &mut HashMap<u64, Arc<Chunk>>,
    ) -> Vec<(ChunkKey, String)> {
        let sealed = self.encoder.num_rows();
        let mut ids = Vec::new();
        for &row in rows {
            if let Some(layout) = self.tiles.get(row) {
                ids.extend_from_slice(&layout.tile_chunks);
            } else if row < sealed {
                if let Ok(loc) = self.encoder.locate(row) {
                    ids.push(loc.chunk_id);
                }
            }
        }
        self.resolve(ids, pinned)
    }

    /// [`resolve_rows`](Self::resolve_rows) for whole row ranges,
    /// enumerated per chunk run — one index lookup a run, not a row.
    /// Ranges are clamped to the sealed rows.
    pub(crate) fn resolve_spans(
        &self,
        spans: &[(u64, u64)],
        pinned: &mut HashMap<u64, Arc<Chunk>>,
    ) -> Vec<(ChunkKey, String)> {
        let sealed = self.encoder.num_rows();
        let mut ids = Vec::new();
        for &(start, end) in spans {
            let end = end.min(sealed);
            if start >= end {
                continue;
            }
            for row in self.tiles.rows_in(start, end) {
                let layout = self.tiles.get(row).expect("rows_in lists tiled rows");
                ids.extend_from_slice(&layout.tile_chunks);
            }
            let runs = self.encoder.locate_range(start, end).unwrap_or_default();
            ids.extend(runs.into_iter().map(|(id, _, _)| id));
        }
        self.resolve(ids, pinned)
    }

    /// The resolver: every chunk a task named, looked up once under the
    /// key of the version that owns it. A resident chunk is touched and
    /// pinned there and then — the cache is shared by every reader of the
    /// dataset, so between a task's plan and its last row its own
    /// admissions or other readers' may evict anything it did not pin. A
    /// missing one reports its absolute key; a chunk no version's chunk
    /// set owns reports nothing and is left to
    /// [`read_chunk`](Self::read_chunk)'s probing.
    fn resolve(
        &self,
        mut ids: Vec<u64>,
        pinned: &mut HashMap<u64, Arc<Chunk>>,
    ) -> Vec<(ChunkKey, String)> {
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .filter_map(|id| {
                let dir = self.owner(id)?;
                let key = (dir.cache_dir, id);
                let Some(chunk) = self.chunks.get(key) else {
                    return Some((key, chunk_key_under(dir.provider.prefix(), id)));
                };
                pinned.insert(id, chunk);
                None
            })
            .collect()
    }

    /// Rows `[start, end)` as runs inside already-decoded chunks —
    /// sealed chunks from `pinned` (else the cache), trailing rows from
    /// the open chunk — for columnar readers that walk chunk payloads
    /// in place. Never touches storage and never fails: `None` when the
    /// range is out of bounds, holds a tiled row, needs a chunk that is
    /// not decoded yet, or a chunk is shorter than the index map says,
    /// which sends the caller down the row path ([`get`](Self::get)) and
    /// its error reporting.
    pub fn column_runs<'a>(
        &'a self,
        start: u64,
        end: u64,
        pinned: &HashMap<u64, Arc<Chunk>>,
    ) -> Option<Vec<ColumnRun<'a>>> {
        if start > end || end > self.len() || self.tiles.rows_in(start, end).next().is_some() {
            return None;
        }
        let sealed = self.encoder.num_rows();
        let mut runs = Vec::new();
        if start < sealed {
            for (id, first, n) in self.encoder.locate_range(start, end.min(sealed)).ok()? {
                let chunk = match pinned.get(&id) {
                    Some(chunk) => chunk.clone(),
                    None => self.cached(id)?,
                };
                runs.push(ColumnRun {
                    chunk: RunChunk::Sealed(chunk),
                    first: first as usize,
                    len: n as usize,
                });
            }
        }
        if end > sealed {
            let from = start.max(sealed);
            runs.push(ColumnRun {
                chunk: RunChunk::Open(self.builder.open_chunk()),
                first: (from - sealed) as usize,
                len: (end - from) as usize,
            });
        }
        runs.iter()
            .all(|run| run.first + run.len <= run.chunk().sample_count())
            .then_some(runs)
    }

    /// Fetch and decode a chunk by id, resolving through the version
    /// chain, and admit it to the cache.
    pub fn read_chunk(&self, chunk_id: u64) -> Result<Arc<Chunk>> {
        if let Some(chunk) = self.cached(chunk_id) {
            return Ok(chunk);
        }
        let key = chunk_key(chunk_id);
        if let Some(dir) = self.owner(chunk_id) {
            let data = dir.provider.get(&key)?;
            return self.chunks.admit((dir.cache_dir, chunk_id), data);
        }
        // no chunk set claims it (one may be missing): the first version
        // holding it, where only `NotFound` means "not here"
        for dir in &self.chain {
            if let Some(data) = optional(dir.provider.get(&key))? {
                return self.chunks.admit((dir.cache_dir, chunk_id), data);
            }
        }
        let missing = format!("chunk {chunk_id} not found in any version");
        Err(CoreError::Corrupt(missing))
    }

    /// The version whose chunk set owns `chunk_id`.
    fn owner(&self, chunk_id: u64) -> Option<&VersionDir> {
        self.chain
            .iter()
            .find(|dir| dir.chunk_set.contains(&chunk_id))
    }

    /// The cache's copy of a chunk: under its owner's key, else (no chunk
    /// set claims it) under whichever version's key it was admitted.
    fn cached(&self, chunk_id: u64) -> Option<Arc<Chunk>> {
        let owner = self.owner(chunk_id).map(std::slice::from_ref);
        let holders = owner.unwrap_or(&self.chain);
        holders
            .iter()
            .find_map(|dir| self.chunks.get((dir.cache_dir, chunk_id)))
    }

    /// Number of rows safely covered by sealed chunks.
    pub fn sealed_rows(&self) -> u64 {
        self.encoder.num_rows()
    }

    /// Whether the given row is stored tiled.
    pub fn is_tiled(&self, row: u64) -> bool {
        self.tiles.get(row).is_some()
    }

    /// Re-chunking (§3.5): "random assignment over time will produce
    /// inefficiently stored data chunks. To fix the data layout, we
    /// implement an on-the-fly re-chunking algorithm to optimize the data
    /// layout."
    ///
    /// Rewrites every row into fresh, sequential, size-bounded chunks in
    /// the HEAD version. Returns `(fragmentation_before,
    /// fragmentation_after)`. Old chunks stay in their version
    /// directories, so history remains readable.
    pub fn rechunk(&mut self) -> Result<(f64, f64)> {
        self.invalidate_vector_index()?;
        self.seal_open_chunk()?;
        let before = self.fragmentation();
        let rows = self.encoder.num_rows();
        // decode through the old layout first
        let mut samples = Vec::with_capacity(rows as usize);
        for r in 0..rows {
            samples.push(self.get(r)?);
        }
        // rebuild the layout from scratch
        self.encoder = ChunkEncoder::new();
        self.stats.clear();
        self.tiles = TileEncoder::new();
        self.builder = ChunkBuilder::new(
            self.meta.dtype,
            self.meta.sample_compression,
            policy_for(&self.meta),
        );
        for s in &samples {
            match self.builder.push(s)? {
                FlushReason::Buffered => {}
                FlushReason::ChunkFull(chunk) => self.write_sealed_chunk(chunk)?,
                FlushReason::NeedsTiling { .. } => self.append_tiled(s)?,
            }
        }
        self.seal_open_chunk()?;
        debug_assert_eq!(self.encoder.num_rows(), rows);
        self.dirty = true;
        Ok((before, self.fragmentation()))
    }

    fn seal_open_chunk(&mut self) -> Result<()> {
        if let Some(chunk) = self.builder.finish() {
            self.write_sealed_chunk(chunk)?;
        }
        Ok(())
    }

    fn write_sealed_chunk(&mut self, chunk: Chunk) -> Result<()> {
        let n = chunk.sample_count() as u32;
        let stats = self.builder.sealed_stats();
        let id = self.put_chunk(&chunk)?;
        self.record_stats(id, stats);
        self.encoder.append_run(id, 0, n);
        Ok(())
    }

    /// Record a sealed chunk's statistics when the tensor opted in
    /// (pre-statistics tensors keep recording off so their layout stays
    /// byte-identical to what an old writer would produce).
    fn record_stats(&mut self, chunk_id: u64, stats: Option<ChunkStats>) {
        if self.meta.chunk_stats {
            if let Some(s) = stats {
                self.stats.insert(chunk_id, s);
            }
        }
    }

    fn put_chunk(&mut self, chunk: &Chunk) -> Result<u64> {
        let id = self.meta.next_chunk_id;
        self.meta.next_chunk_id += 1;
        let blob = chunk.serialize_bytes(self.meta.chunk_compression);
        self.chain[0].provider.put(&chunk_key(id), blob)?;
        self.chain[0].chunk_set.insert(id);
        self.dirty = true;
        Ok(id)
    }

    /// Persist all pending state (open chunk, encoders, metadata, chunk
    /// set, commit diff) to the HEAD version directory.
    pub fn flush(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.seal_open_chunk()?;
        let head = &self.chain[0].provider;
        head.put(META_KEY, Bytes::from(self.meta.to_json()?))?;
        head.put(ENCODER_KEY, Bytes::from(self.encoder.serialize()))?;
        if self.meta.chunk_stats {
            head.put(STATS_KEY, Bytes::from(self.stats.serialize()))?;
        }
        if !self.tiles.is_empty() {
            head.put(TILES_KEY, Bytes::from(self.tiles.serialize()))?;
        }
        let chunk_ids: Vec<u64> = {
            let mut v: Vec<u64> = self.chain[0].chunk_set.iter().copied().collect();
            v.sort_unstable();
            v
        };
        head.put(CHUNK_SET_KEY, Bytes::from(serde_json::to_vec(&chunk_ids)?))?;
        head.put(DIFF_KEY, Bytes::from(self.diff.to_json()?))?;
        self.dirty = false;
        Ok(())
    }

    /// Move the write frontier into a new version directory after a
    /// commit: the sealed version keeps its chunks; new writes go to
    /// `new_head` with a fresh chunk set and diff.
    pub fn start_new_version(&mut self, new_head: PrefixProvider) -> Result<()> {
        self.flush()?;
        self.chain
            .insert(0, VersionDir::empty(new_head, &self.chunks));
        self.diff = CommitDiff::new();
        Ok(())
    }

    /// Decode a stored blob into a sample (helper for the streaming layer,
    /// which fetches chunk bytes itself).
    pub fn decode(&self, blob: &[u8], shape: deeplake_tensor::Shape) -> Result<Sample> {
        Ok(decode_sample(blob, self.meta.dtype, shape)?)
    }
}

/// A chunk's key inside its version directory.
fn chunk_key(id: u64) -> String {
    chunk_key_under("", id)
}

/// `{prefix}chunks/{id:016x}`, written once into a `String` sized for it:
/// the key a batched read names per missing chunk.
fn chunk_key_under(prefix: &str, id: u64) -> String {
    const DIR: &str = "chunks/";
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut key = String::with_capacity(prefix.len() + DIR.len() + 16);
    key.push_str(prefix);
    key.push_str(DIR);
    key.extend(
        (0..16)
            .rev()
            .map(|nibble| char::from(HEX[(id >> (4 * nibble)) as usize & 0xf])),
    );
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplake_storage::MemoryProvider;
    use deeplake_tensor::{Dtype, Shape};
    use std::sync::Arc as StdArc;

    fn cache() -> StdArc<ChunkCache> {
        StdArc::default()
    }

    fn head() -> PrefixProvider {
        PrefixProvider::new(StdArc::new(MemoryProvider::new()), "versions/v000000/t")
    }

    fn small_meta(name: &str, target: u64) -> TensorMeta {
        let mut m = TensorMeta::new(name, Htype::Generic, Some(Dtype::U8));
        m.chunk_target_bytes = target;
        m
    }

    fn sample(n: usize, fill: u8) -> Sample {
        Sample::from_slice([n as u64], &vec![fill; n]).unwrap()
    }

    #[test]
    fn chunk_keys_are_the_formatted_ones() {
        for id in [0, 1, 0xa, 0xdead_beef, 1 << 63, u64::MAX] {
            assert_eq!(chunk_key(id), format!("chunks/{id:016x}"));
            let dir = head();
            assert_eq!(
                chunk_key_under(dir.prefix(), id),
                dir.absolute(&format!("chunks/{id:016x}"))
            );
        }
    }

    #[test]
    fn append_get_roundtrip() {
        let mut t = TensorStore::create(small_meta("x", 1000), head(), cache()).unwrap();
        for i in 0..10 {
            t.append(&sample(100, i)).unwrap();
        }
        assert_eq!(t.len(), 10);
        for i in 0..10 {
            assert_eq!(t.get(i as u64).unwrap(), sample(100, i as u8));
        }
        assert!(t.get(10).is_err());
    }

    #[test]
    fn flush_and_reopen() {
        let base = StdArc::new(MemoryProvider::new());
        let p = PrefixProvider::new(base.clone(), "versions/v000000/x");
        let mut t = TensorStore::create(small_meta("x", 500), p.clone(), cache()).unwrap();
        for i in 0..20 {
            t.append(&sample(60, i)).unwrap();
        }
        t.flush().unwrap();
        let back = TensorStore::open(vec![p], cache()).unwrap();
        assert_eq!(back.len(), 20);
        for i in 0..20 {
            assert_eq!(back.get(i as u64).unwrap(), sample(60, i as u8));
        }
        assert_eq!(back.meta().length, 20);
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let mut t = TensorStore::create(small_meta("x", 1000), head(), cache()).unwrap();
        let bad = Sample::scalar(1.0f32);
        assert!(t.append(&bad).is_err());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn htype_validation_applies() {
        let meta = TensorMeta::new("img", Htype::Image, None);
        let mut t = TensorStore::create(meta, head(), cache()).unwrap();
        assert!(t.append(&Sample::zeros(Dtype::U8, [4, 4])).is_err());
        assert!(t.append(&Sample::zeros(Dtype::U8, [4, 4, 3])).is_ok());
    }

    #[test]
    fn oversized_sample_gets_tiled_and_reassembles() {
        let mut t = TensorStore::create(small_meta("x", 1000), head(), cache()).unwrap();
        // max = 2000; a 5000-element sample must tile
        let big: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let s = Sample::from_slice([50, 100], &big).unwrap();
        t.append(&s).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.is_tiled(0));
        assert_eq!(t.get(0).unwrap(), s);
    }

    #[test]
    fn tiled_and_plain_rows_interleave() {
        let mut t = TensorStore::create(small_meta("x", 1000), head(), cache()).unwrap();
        t.append(&sample(50, 1)).unwrap();
        let big: Vec<u8> = (0..4000).map(|i| (i % 13) as u8).collect();
        let s = Sample::from_slice([4000], &big).unwrap();
        t.append(&s).unwrap();
        t.append(&sample(30, 3)).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0).unwrap(), sample(50, 1));
        assert_eq!(t.get(1).unwrap(), s);
        assert_eq!(t.get(2).unwrap(), sample(30, 3));
        assert!(t.is_tiled(1));
        assert!(!t.is_tiled(2));
    }

    #[test]
    fn update_repoints_row() {
        let mut t = TensorStore::create(small_meta("x", 1000), head(), cache()).unwrap();
        for i in 0..5 {
            t.append(&sample(100, i)).unwrap();
        }
        t.update(2, &sample(40, 99)).unwrap();
        assert_eq!(t.get(2).unwrap(), sample(40, 99));
        assert_eq!(t.get(1).unwrap(), sample(100, 1));
        assert_eq!(t.get(3).unwrap(), sample(100, 3));
        assert_eq!(t.len(), 5);
        // diff recorded the update (row 2 was added in this same version,
        // so it stays an add)
        assert!(t.pending_diff().added.contains(2));
    }

    #[test]
    fn update_out_of_range() {
        let mut t = TensorStore::create(small_meta("x", 1000), head(), cache()).unwrap();
        t.append(&sample(10, 0)).unwrap();
        assert!(t.update(1, &sample(10, 1)).is_err());
    }

    #[test]
    fn get_shape_matches_get() {
        let mut t = TensorStore::create(small_meta("x", 1000), head(), cache()).unwrap();
        t.append(&Sample::from_slice([3, 7], &[0u8; 21]).unwrap())
            .unwrap();
        t.append(&sample(9, 1)).unwrap();
        assert_eq!(t.get_shape(0).unwrap(), Shape::from([3, 7]));
        assert_eq!(t.get_shape(1).unwrap(), Shape::from([9]));
        assert!(t.get_shape(2).is_err());
    }

    #[test]
    fn column_runs_follow_updates_tiles_and_the_open_chunk() {
        let mut m = TensorMeta::new("v", Htype::Generic, Some(Dtype::U8));
        m.chunk_target_bytes = 8; // four scalars a chunk
        let mut t = TensorStore::create(m, head(), cache()).unwrap();
        for i in 0..10u8 {
            t.append(&Sample::scalar(i)).unwrap();
        }
        t.update(5, &Sample::scalar(50u8)).unwrap(); // seals, then splits a run
        for i in 10..13u8 {
            t.append(&Sample::scalar(i)).unwrap(); // open chunk again
        }
        let decode = |runs: &[ColumnRun<'_>]| -> Vec<f64> {
            let mut out = Vec::new();
            for run in runs {
                let col = run.chunk().scalar_column().expect("scalars");
                col.decode_rows(run.first..run.first + run.len, &mut out);
            }
            out
        };
        // nothing decoded yet (nothing was read): sealed rows refuse, open
        // rows resolve
        let none = HashMap::new();
        assert!(t.column_runs(0, 13, &none).is_none());
        let sealed = t.sealed_rows();
        assert!(sealed < 13, "the tail is in the open chunk");
        let open_rows = decode(&t.column_runs(sealed, 13, &none).unwrap());

        let want: Vec<f64> = (0..13)
            .map(|r| t.get(r).unwrap().get_f64(0).unwrap())
            .collect();
        assert_eq!(want[5], 50.0);
        assert_eq!(open_rows, want[sealed as usize..]);

        // pinned chunks resolve every sub-range, runs in row order
        let mut pinned = HashMap::new();
        for (id, _, _) in t.chunk_spans() {
            if let Some(id) = id {
                pinned.insert(id, t.read_chunk(id).unwrap());
            }
        }
        for (start, end) in [(0, 13), (4, 7), (5, 6), (6, 6), (9, 13)] {
            let runs = t.column_runs(start, end, &pinned).unwrap();
            assert_eq!(runs.iter().map(|r| r.len as u64).sum::<u64>(), end - start);
            assert_eq!(decode(&runs), want[start as usize..end as usize]);
        }
        // `read_chunk` cached them: the cache alone serves too
        assert_eq!(decode(&t.column_runs(0, 13, &none).unwrap()), want);
        // out of range, inverted
        assert!(t.column_runs(0, 14, &pinned).is_none());
        assert!(t.column_runs(7, 6, &pinned).is_none());

        // a tiled row refuses exactly the ranges that contain it
        let big = Sample::from_slice([100], &[1u8; 100]).unwrap();
        t.append(&big).unwrap();
        assert!(t.is_tiled(13));
        let mut pinned = HashMap::new();
        for (id, _, _) in t.chunk_spans() {
            pinned.insert(id.unwrap(), t.read_chunk(id.unwrap()).unwrap());
        }
        assert!(t.column_runs(12, 14, &pinned).is_none());
        assert!(t.column_runs(13, 14, &pinned).is_none());
        assert_eq!(decode(&t.column_runs(0, 13, &pinned).unwrap()), want);
    }

    #[test]
    fn version_chain_resolves_old_chunks() {
        let base = StdArc::new(MemoryProvider::new());
        let v0 = PrefixProvider::new(base.clone(), "versions/v0/x");
        let mut t = TensorStore::create(small_meta("x", 500), v0, cache()).unwrap();
        for i in 0..4 {
            t.append(&sample(100, i)).unwrap();
        }
        t.flush().unwrap();
        // commit: writes continue in v1
        let v1 = PrefixProvider::new(base.clone(), "versions/v1/x");
        t.start_new_version(v1).unwrap();
        t.update(1, &sample(100, 77)).unwrap();
        t.append(&sample(100, 4)).unwrap();
        t.flush().unwrap();
        // rows 0,2,3 resolve from v0 chunks; 1 and 4 from v1
        assert_eq!(t.get(0).unwrap(), sample(100, 0));
        assert_eq!(t.get(1).unwrap(), sample(100, 77));
        assert_eq!(t.get(3).unwrap(), sample(100, 3));
        assert_eq!(t.get(4).unwrap(), sample(100, 4));
        // v0 directory still holds the original chunk for row 1's old data
        let reopened = TensorStore::open(
            vec![PrefixProvider::new(base.clone(), "versions/v0/x")],
            cache(),
        )
        .unwrap();
        assert_eq!(reopened.get(1).unwrap(), sample(100, 1));
        assert_eq!(reopened.len(), 4);
    }

    #[test]
    fn append_encoded_verbatim_copy() {
        let meta = TensorMeta::new("img", Htype::Image, None);
        let codec = meta.sample_compression;
        let mut t = TensorStore::create(meta, head(), cache()).unwrap();
        let pixels = vec![127u8; 8 * 8 * 3];
        let blob = codec.compress_image(&pixels, 8, 8, 3).unwrap();
        t.append_encoded(blob, Shape::from([8, 8, 3])).unwrap();
        let s = t.get(0).unwrap();
        assert_eq!(s.shape(), &Shape::from([8, 8, 3]));
    }

    #[test]
    fn rechunk_restores_sequential_layout() {
        let mut t = TensorStore::create(small_meta("x", 500), head(), cache()).unwrap();
        for i in 0..20 {
            t.append(&sample(100, i)).unwrap();
        }
        t.flush().unwrap();
        for row in [2u64, 6, 10, 14] {
            t.update(row, &sample(100, 200 + row as u8)).unwrap();
        }
        let expect: Vec<Sample> = (0..20).map(|r| t.get(r).unwrap()).collect();
        let (before, after) = t.rechunk().unwrap();
        assert!(before > 1.0, "updates fragmented the layout: {before}");
        assert!(
            (after - 1.0).abs() < 1e-9,
            "rechunk must be sequential: {after}"
        );
        assert_eq!(t.len(), 20);
        for (r, want) in expect.iter().enumerate() {
            assert_eq!(&t.get(r as u64).unwrap(), want);
        }
        // flush + reopen keeps the optimized layout
        t.flush().unwrap();
    }

    #[test]
    fn rechunk_handles_tiled_rows() {
        let mut t = TensorStore::create(small_meta("x", 1000), head(), cache()).unwrap();
        t.append(&sample(100, 1)).unwrap();
        let big: Vec<u8> = (0..5000).map(|i| (i % 13) as u8).collect();
        let big = Sample::from_slice([5000], &big).unwrap();
        t.append(&big).unwrap();
        t.append(&sample(100, 3)).unwrap();
        t.update(0, &sample(40, 9)).unwrap();
        let (_, after) = t.rechunk().unwrap();
        assert!(after >= 1.0);
        assert_eq!(t.get(0).unwrap(), sample(40, 9));
        assert_eq!(t.get(1).unwrap(), big);
        assert!(t.is_tiled(1));
        assert_eq!(t.get(2).unwrap(), sample(100, 3));
    }

    #[test]
    fn scalar_chunks_record_stats_and_survive_reopen() {
        let base = StdArc::new(MemoryProvider::new());
        let p = PrefixProvider::new(base.clone(), "versions/v000000/labels");
        let mut m = TensorMeta::new("labels", Htype::ClassLabel, None);
        m.chunk_target_bytes = 40; // a handful of scalars per chunk
        let mut t = TensorStore::create(m, p.clone(), cache()).unwrap();
        for i in 0..32 {
            t.append(&Sample::scalar(i % 8)).unwrap();
        }
        t.flush().unwrap();
        assert!(t.stats_coverage() > 1, "labels span several chunks");
        let all = t.stats_for_rows(0, 32).unwrap();
        assert_eq!((all.min, all.max, all.samples), (0.0, 7.0, 32));

        let back = TensorStore::open(vec![p], cache()).unwrap();
        assert_eq!(back.stats_coverage(), t.stats_coverage());
        let s = back.stats_for_rows(0, 32).unwrap();
        assert_eq!((s.min, s.max), (0.0, 7.0));
        // every sealed chunk of a scalar tensor has stats
        for (id, start, len) in back.chunk_spans() {
            let id = id.expect("flushed tensor has no open chunk");
            let cs = back.chunk_stats(id).expect("scalar chunk has stats");
            assert_eq!(cs.samples, len);
            assert!(start < 32);
        }
    }

    #[test]
    fn non_scalar_tensors_have_no_stats() {
        let mut t = TensorStore::create(small_meta("x", 500), head(), cache()).unwrap();
        for i in 0..10 {
            t.append(&sample(100, i)).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(t.stats_coverage(), 0);
        assert!(t.stats_for_rows(0, 10).is_none());
    }

    #[test]
    fn stats_disabled_tensors_write_no_index() {
        let base = StdArc::new(MemoryProvider::new());
        let p = PrefixProvider::new(base.clone(), "versions/v000000/labels");
        let mut m = TensorMeta::new("labels", Htype::ClassLabel, None);
        m.chunk_stats = false; // a pre-statistics dataset
        let mut t = TensorStore::create(m, p.clone(), cache()).unwrap();
        for i in 0..8 {
            t.append(&Sample::scalar(i)).unwrap();
        }
        t.flush().unwrap();
        assert!(!p.exists(STATS_KEY).unwrap());
        let back = TensorStore::open(vec![p], cache()).unwrap();
        assert_eq!(back.stats_coverage(), 0);
        assert!(back.stats_for_rows(0, 8).is_none());
    }

    #[test]
    fn open_chunk_rows_are_not_summarized() {
        let mut m = TensorMeta::new("labels", Htype::ClassLabel, None);
        m.chunk_target_bytes = 40;
        let mut t = TensorStore::create(m, head(), cache()).unwrap();
        for i in 0..9 {
            t.append(&Sample::scalar(i)).unwrap();
        }
        // unflushed: trailing rows live in the open chunk
        let spans = t.chunk_spans();
        assert_eq!(spans.last().unwrap().0, None);
        let total: u64 = spans.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, 9);
        assert!(t.stats_for_rows(0, 9).is_none(), "open rows block summary");
        if t.sealed_rows() > 0 {
            assert!(t.stats_for_rows(0, t.sealed_rows()).is_some());
        }
    }

    #[test]
    fn update_keeps_stats_conservative() {
        let mut m = TensorMeta::new("labels", Htype::ClassLabel, None);
        m.chunk_target_bytes = 40;
        let mut t = TensorStore::create(m, head(), cache()).unwrap();
        for _ in 0..16 {
            t.append(&Sample::scalar(2i32)).unwrap();
        }
        t.flush().unwrap();
        t.update(5, &Sample::scalar(99i32)).unwrap();
        // the span holding row 5 must now admit 99
        let s = t.stats_for_rows(5, 6).unwrap();
        assert!(s.min <= 99.0 && s.max >= 99.0);
        // the merged whole-tensor summary still covers both values
        let all = t.stats_for_rows(0, 16).unwrap();
        assert!(all.min <= 2.0 && all.max >= 99.0);
    }

    #[test]
    fn rechunk_rebuilds_stats() {
        let mut m = TensorMeta::new("labels", Htype::ClassLabel, None);
        m.chunk_target_bytes = 40;
        let mut t = TensorStore::create(m, head(), cache()).unwrap();
        for i in 0..20 {
            t.append(&Sample::scalar(i % 4)).unwrap();
        }
        t.flush().unwrap();
        for row in [3u64, 9, 15] {
            t.update(row, &Sample::scalar(50i32)).unwrap();
        }
        t.rechunk().unwrap();
        let s = t.stats_for_rows(0, 20).unwrap();
        assert_eq!((s.min, s.max, s.samples), (0.0, 50.0, 20));
    }

    #[test]
    fn fragmentation_reported() {
        let mut t = TensorStore::create(small_meta("x", 500), head(), cache()).unwrap();
        for i in 0..20 {
            t.append(&sample(100, i)).unwrap();
        }
        t.flush().unwrap();
        let before = t.fragmentation();
        // mid-chunk rows split their run into three pieces
        for row in [2u64, 6, 10] {
            t.update(row, &sample(10, 0)).unwrap();
        }
        assert!(t.fragmentation() > before);
    }
}
