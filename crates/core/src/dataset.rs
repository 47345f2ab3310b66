//! The Deep Lake dataset: parallel tensors over a storage provider, with
//! built-in version control.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use deeplake_codec::Compression;
use deeplake_format::TensorMeta;
use deeplake_index::{IndexKind, IndexSpec, VectorIndex};
use deeplake_storage::{DynProvider, PrefixProvider, ReadPlan, StorageProvider};
use deeplake_tensor::{Dtype, Htype, Sample};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::chunk_cache::{ChunkCache, ChunkKey};
use crate::error::{optional, CoreError};
use crate::row::Row;
use crate::sample_id::{self, ID_TENSOR};
use crate::tensor_store::{ColumnRun, TensorStore};
use crate::version::merge::{MergePolicy, MergeReport};
use crate::version::{
    tensor_prefix, CommitDiff, DiffSummary, RowSet, TensorDiff, VersionTree, VERSION_INFO_KEY,
};
use crate::Result;

const DATASET_META_KEY: &str = "dataset.json";
const SCHEMA_KEY: &str = "schema.json";

/// Top-level provenance file (§3.4: "a Deep Lake dataset contains a
/// provenance file in JSON format").
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DatasetMeta {
    name: String,
    created_ms: u64,
}

/// Tensor list snapshot per version — schema evolution is tracked over
/// time like content changes (§3.1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Schema {
    tensors: Vec<String>,
}

/// Options for [`Dataset::create_tensor_opts`].
#[derive(Debug, Clone)]
pub struct TensorOptions {
    /// Semantic type.
    pub htype: Htype,
    /// Element dtype (`None` = htype default).
    pub dtype: Option<Dtype>,
    /// Sample-level compression (`None` = htype default).
    pub sample_compression: Option<Compression>,
    /// Chunk-level compression (`None` = htype default).
    pub chunk_compression: Option<Compression>,
    /// Chunk size target in bytes (`None` = 8 MB).
    pub chunk_target_bytes: Option<u64>,
    /// Hidden tensors are excluded from listings, rows and streaming.
    pub hidden: bool,
    /// Source tensor this one is derived from (downsampled pyramids etc.).
    pub derived_from: Option<String>,
}

impl TensorOptions {
    /// Options with htype defaults.
    pub fn new(htype: Htype) -> Self {
        TensorOptions {
            htype,
            dtype: None,
            sample_compression: None,
            chunk_compression: None,
            chunk_target_bytes: None,
            hidden: false,
            derived_from: None,
        }
    }
}

/// The decoded chunks one task reads from, pinned per tensor by
/// [`Dataset::prefetch_chunks`] / [`Dataset::prefetch_spans`] — both
/// what the prefetch fetched and what the chunk cache already held when
/// it was planned — plus the storage round trips the prefetch cost and a
/// fetch/decode cost split for instrumentation. The default is the empty
/// set: nothing prefetched, every read takes the single-key path.
#[derive(Default)]
pub struct PrefetchedChunks {
    by_tensor: HashMap<String, HashMap<u64, Arc<deeplake_format::Chunk>>>,
    round_trips: u64,
    fetch_ns: u64,
    decode_ns: u64,
}

impl PrefetchedChunks {
    /// Storage round trips the prefetch issued (0 when everything was
    /// already decoded, 1 for the single batched call).
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    /// Nanoseconds the prefetch spent inside the storage provider (the
    /// batched `execute` call) — pure I/O wait, no decoding.
    pub fn fetch_ns(&self) -> u64 {
        self.fetch_ns
    }

    /// Nanoseconds the prefetch spent admitting (decompressing +
    /// decoding) the fetched chunks. Together with
    /// [`fetch_ns`](PrefetchedChunks::fetch_ns) this is the split the
    /// loader's `loader.fetch_ns` / `loader.decode_ns` histograms are
    /// built on.
    pub fn decode_ns(&self) -> u64 {
        self.decode_ns
    }

    /// `tensor`'s rows `[start, end)` as runs inside the pinned decoded
    /// chunks — see [`TensorStore::column_runs`]. `None` also when the
    /// tensor was unknown at prefetch time.
    pub fn column_runs<'d>(
        &self,
        ds: &'d Dataset,
        tensor: &str,
        start: u64,
        end: u64,
    ) -> Option<Vec<ColumnRun<'d>>> {
        let pinned = self.by_tensor.get(tensor)?;
        ds.store(tensor).ok()?.column_runs(start, end, pinned)
    }

    /// Read one sample through the pinned chunks, falling back to the
    /// dataset's single-key path for anything not prefetched.
    pub fn get(&self, ds: &Dataset, tensor: &str, row: u64) -> Result<Sample> {
        match self.by_tensor.get(tensor) {
            Some(pinned) => ds.store(tensor)?.read(row, pinned),
            None => ds.get(tensor, row),
        }
    }
}

/// What [`Dataset::build_vector_index`] built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexBuildReport {
    /// Indexed tensor.
    pub tensor: String,
    /// Rows covered by the index.
    pub rows: u64,
    /// Vector dimensionality.
    pub dim: usize,
    /// Structure built.
    pub kind: IndexKind,
    /// IVF cluster count (0 for flat).
    pub clusters: usize,
}

/// A Deep Lake dataset handle.
///
/// Reads take `&self` and are safe to share across loader threads; all
/// mutation takes `&mut self`. Appended data becomes durable on
/// [`Dataset::flush`] and immutable on [`Dataset::commit`].
pub struct Dataset {
    root: DynProvider,
    name: String,
    tree: VersionTree,
    head: String,
    read_only: bool,
    tensors: BTreeMap<String, TensorStore>,
    /// Where every tensor store of this handle keeps its parsed chunks;
    /// shared with the handles [`open_shared`](Dataset::open_shared)
    /// gives it to.
    chunks: Arc<ChunkCache>,
    /// Per-tensor vector index memo: `Some(idx)` = loaded, `None` =
    /// known absent/stale. Entries drop on any mutation that can
    /// invalidate them and on checkout.
    vindex_cache: Mutex<HashMap<String, Option<Arc<VectorIndex>>>>,
    /// The schema file (`(key, bytes)`: its key moves with the head) and
    /// the version tree as this handle last put them: neither is put again
    /// while it still reads the same, so a flush writes them only after
    /// something changed them (or after a put of them failed).
    schema_written: Option<(String, Bytes)>,
    tree_written: Option<Bytes>,
}

// Reads take `&self` and one handle serves many threads at once (loader
// workers, the hub's pool workers on a mount's shared handle): keep that
// a compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Dataset>();
};

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Dataset {
    /// Create a new dataset on `root`. Writes the provenance file, the
    /// version tree, and the hidden sample-id tensor.
    pub fn create(root: DynProvider, name: impl Into<String>) -> Result<Self> {
        let name = name.into();
        if root.exists(DATASET_META_KEY)? {
            return Err(CoreError::Corrupt(
                "a dataset already exists at this location".into(),
            ));
        }
        let tree = VersionTree::new();
        let head = tree.branch_tip("main")?.to_string();
        let mut ds = Dataset {
            root,
            name,
            tree,
            head,
            read_only: false,
            tensors: BTreeMap::new(),
            chunks: Arc::default(),
            vindex_cache: Mutex::new(HashMap::new()),
            schema_written: None,
            tree_written: None,
        };
        let meta = DatasetMeta {
            name: ds.name.clone(),
            created_ms: now_ms(),
        };
        ds.root.put(
            DATASET_META_KEY,
            Bytes::from(serde_json::to_vec_pretty(&meta)?),
        )?;
        ds.persist_tree()?;
        // hidden id tensor powering merge (§4.2)
        let mut opts = TensorOptions::new(Htype::Generic);
        opts.dtype = Some(Dtype::U64);
        opts.hidden = true;
        ds.create_tensor_opts(ID_TENSOR, opts)?;
        Ok(ds)
    }

    /// Open an existing dataset at the tip of `main`.
    pub fn open(root: DynProvider) -> Result<Self> {
        Self::open_at(root, "main")
    }

    /// Open an existing dataset at a branch tip or a specific commit.
    /// Historical commits open read-only.
    pub fn open_at(root: DynProvider, reference: &str) -> Result<Self> {
        Self::open_shared(root, reference, Arc::default())
    }

    /// [`open_at`](Dataset::open_at), reading parsed chunks through
    /// `cache` — the cache of another handle on the same `root`, so a
    /// chunk both read is parsed once. The caller owes the cache's one
    /// rule: a chunk key in it is never rewritten (whoever deletes stored
    /// chunks hands later handles a [renumbered](ChunkCache::renumbered)
    /// cache).
    pub fn open_shared(root: DynProvider, reference: &str, cache: Arc<ChunkCache>) -> Result<Self> {
        let meta = optional(root.get(DATASET_META_KEY))?.ok_or_else(|| {
            CoreError::Corrupt("no dataset at this location (missing dataset.json)".into())
        })?;
        let meta: DatasetMeta = serde_json::from_slice(&meta)?;
        let tree = VersionTree::from_json(&root.get(VERSION_INFO_KEY)?)?;
        let head = tree.resolve(reference)?;
        let read_only = tree.node(&head)?.committed;
        let mut ds = Dataset {
            root,
            name: meta.name,
            tree,
            head,
            read_only,
            tensors: BTreeMap::new(),
            chunks: cache,
            vindex_cache: Mutex::new(HashMap::new()),
            schema_written: None,
            tree_written: None,
        };
        ds.load_tensors()?;
        Ok(ds)
    }

    fn load_tensors(&mut self) -> Result<()> {
        self.tensors.clear();
        self.vindex_cache.lock().clear();
        let chain = self.tree.chain(&self.head)?;
        let schema = self.load_schema(&chain)?;
        for tensor in schema.tensors {
            let providers: Vec<PrefixProvider> = chain
                .iter()
                .map(|node| PrefixProvider::new(self.root.clone(), tensor_prefix(node, &tensor)))
                .collect();
            let store = TensorStore::open(providers, self.chunks.clone())?;
            self.tensors.insert(tensor, store);
        }
        Ok(())
    }

    fn load_schema(&self, chain: &[String]) -> Result<Schema> {
        for node in chain {
            let key = format!("versions/{node}/{SCHEMA_KEY}");
            if let Some(data) = optional(self.root.get(&key))? {
                return Ok(serde_json::from_slice(&data)?);
            }
        }
        Ok(Schema::default())
    }

    fn persist_schema(&mut self) -> Result<()> {
        let schema = Schema {
            tensors: self.tensors.keys().cloned().collect(),
        };
        let written = (
            format!("versions/{}/{SCHEMA_KEY}", self.head),
            Bytes::from(serde_json::to_vec_pretty(&schema)?),
        );
        if self.schema_written.as_ref() != Some(&written) {
            self.root.put(&written.0, written.1.clone())?;
            self.schema_written = Some(written);
        }
        Ok(())
    }

    fn persist_tree(&mut self) -> Result<()> {
        let written = Bytes::from(self.tree.to_json()?);
        if self.tree_written.as_ref() != Some(&written) {
            self.root.put(VERSION_INFO_KEY, written.clone())?;
            self.tree_written = Some(written);
        }
        Ok(())
    }

    fn ensure_writable(&self) -> Result<()> {
        if self.read_only {
            Err(CoreError::ReadOnlyVersion)
        } else {
            Ok(())
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The storage provider this dataset lives on.
    pub fn provider(&self) -> DynProvider {
        self.root.clone()
    }

    /// The parsed-chunk cache this handle reads through, to hand to
    /// [`open_shared`](Dataset::open_shared).
    pub fn chunk_cache(&self) -> &Arc<ChunkCache> {
        &self.chunks
    }

    /// Whether this handle is read-only (checked out at a commit).
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Number of rows.
    pub fn len(&self) -> u64 {
        self.tensors.get(ID_TENSOR).map(|t| t.len()).unwrap_or(0)
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ------------------------------------------------------------------
    // schema
    // ------------------------------------------------------------------

    /// Create a tensor with htype defaults.
    pub fn create_tensor(
        &mut self,
        name: impl Into<String>,
        htype: Htype,
        dtype: Option<Dtype>,
    ) -> Result<()> {
        let mut opts = TensorOptions::new(htype);
        opts.dtype = dtype;
        self.create_tensor_opts(name, opts)
    }

    /// Create a tensor with explicit options.
    pub fn create_tensor_opts(
        &mut self,
        name: impl Into<String>,
        opts: TensorOptions,
    ) -> Result<()> {
        self.ensure_writable()?;
        let name = name.into();
        if name.is_empty() || name == SCHEMA_KEY || name.contains("..") {
            return Err(CoreError::Corrupt(format!("invalid tensor name {name:?}")));
        }
        if self.tensors.contains_key(&name) {
            return Err(CoreError::TensorExists(name));
        }
        let mut meta = TensorMeta::new(name.clone(), opts.htype, opts.dtype);
        if let Some(c) = opts.sample_compression {
            meta.sample_compression = c;
        }
        if let Some(c) = opts.chunk_compression {
            meta.chunk_compression = c;
        }
        if let Some(t) = opts.chunk_target_bytes {
            meta.chunk_target_bytes = t;
        }
        meta.hidden = opts.hidden;
        meta.derived_from = opts.derived_from;
        let head_dir = PrefixProvider::new(self.root.clone(), tensor_prefix(&self.head, &name));
        let mut store = TensorStore::create(meta, head_dir, self.chunks.clone())?;
        // backfill empty rows so the new tensor aligns with existing rows
        // (schema evolution on a populated dataset)
        let rows = self.len();
        for _ in 0..rows {
            store.append(&Sample::empty(store.meta().dtype))?;
        }
        self.tensors.insert(name, store);
        self.persist_schema()?;
        Ok(())
    }

    /// Visible tensor names (hidden ones excluded), sorted.
    pub fn tensors(&self) -> Vec<&str> {
        self.tensors
            .iter()
            .filter(|(_, t)| !t.meta().hidden)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// All tensor names including hidden ones.
    pub fn tensors_all(&self) -> Vec<&str> {
        self.tensors.keys().map(String::as_str).collect()
    }

    /// Visible tensors under a group prefix (§3.1 syntactic nesting):
    /// `group("camera")` lists `camera/left`, `camera/right`, ...
    pub fn group(&self, prefix: &str) -> Vec<&str> {
        let want = format!("{}/", prefix.trim_end_matches('/'));
        self.tensors()
            .into_iter()
            .filter(|n| n.starts_with(&want))
            .collect()
    }

    /// Metadata of a tensor.
    pub fn tensor_meta(&self, name: &str) -> Result<&TensorMeta> {
        Ok(self.store(name)?.meta())
    }

    /// Borrow a tensor's storage engine (low-level access for the
    /// streaming and query layers).
    pub fn store(&self, name: &str) -> Result<&TensorStore> {
        self.tensors
            .get(name)
            .ok_or_else(|| CoreError::NoSuchTensor(name.to_string()))
    }

    pub(crate) fn store_mut(&mut self, name: &str) -> Result<&mut TensorStore> {
        self.tensors
            .get_mut(name)
            .ok_or_else(|| CoreError::NoSuchTensor(name.to_string()))
    }

    // ------------------------------------------------------------------
    // rows
    // ------------------------------------------------------------------

    /// Append one row. Tensors absent from the row store the empty marker;
    /// a fresh sample id is generated into the hidden id tensor.
    pub fn append_row<'a>(
        &mut self,
        values: impl IntoIterator<Item = (&'a str, Sample)>,
    ) -> Result<()> {
        self.append(values.into_iter().collect())
    }

    /// Append many rows.
    pub fn extend_rows(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        rows.into_iter().try_for_each(|row| self.append(row))
    }

    fn append(&mut self, row: Row) -> Result<()> {
        self.ensure_writable()?;
        // reject unknown tensors up front so the row stays atomic
        for tensor in row.tensors() {
            match self.tensors.get(tensor) {
                None => return Err(CoreError::NoSuchTensor(tensor.to_string())),
                Some(store) if store.meta().hidden => {
                    return Err(CoreError::NoSuchTensor(format!("{tensor} (hidden)")))
                }
                Some(_) => {}
            }
        }
        // both are sorted by name, and every name of the row is a tensor:
        // one walk pairs each tensor with its value
        let mut values = row.into_sorted().into_iter().peekable();
        for (name, store) in self.tensors.iter_mut() {
            if name == ID_TENSOR {
                store.append(&Sample::scalar(sample_id::generate()))?;
            } else if let Some((_, sample)) = values.next_if(|(k, _)| **k == **name) {
                store.append(&sample)?;
            } else {
                store.append(&Sample::empty(store.meta().dtype))?;
            }
        }
        Ok(())
    }

    /// Read one sample.
    pub fn get(&self, tensor: &str, row: u64) -> Result<Sample> {
        self.store(tensor)?.get(row)
    }

    /// Read only a sample's shape (fast path used by queries, §3.4's
    /// hidden shape use case).
    pub fn get_shape(&self, tensor: &str, row: u64) -> Result<deeplake_tensor::Shape> {
        self.store(tensor)?.get_shape(row)
    }

    /// Read a whole row across visible tensors.
    pub fn get_row(&self, row: u64) -> Result<Row> {
        if row >= self.len() {
            return Err(CoreError::RowOutOfRange {
                row,
                len: self.len(),
            });
        }
        let mut out = Row::new();
        for (name, store) in &self.tensors {
            if store.meta().hidden {
                continue;
            }
            out.set_shared(Arc::from(name.as_str()), store.get(row)?);
        }
        Ok(out)
    }

    /// Read a block of rows with **one storage call** for all the chunks
    /// they need (§3.5/§4.6 batched scatter-gather I/O).
    ///
    /// Prefetches every not-yet-decoded chunk across `tensors` for `rows`
    /// through [`Dataset::prefetch_chunks`], then assembles rows from the
    /// decoded chunks. This is what loader workers call per task instead
    /// of N single-key reads; a chunk the plan could not resolve (or
    /// whose fetch failed) transparently falls back to the single-key
    /// path, so error reporting matches [`Dataset::get`].
    pub fn get_rows_batch(&self, tensors: &[String], rows: &[u64]) -> Result<Vec<Row>> {
        let len = self.len();
        if let Some(&bad) = rows.iter().find(|&&r| r >= len) {
            return Err(CoreError::RowOutOfRange { row: bad, len });
        }
        for name in tensors {
            self.store(name)?; // validate up front: whole-batch error
        }
        let prefetched = self.prefetch_chunks(tensors, rows)?;
        let names: Vec<Arc<str>> = tensors.iter().map(|n| Arc::from(n.as_str())).collect();
        rows.iter()
            .map(|&row| {
                let mut out = Row::with_capacity(names.len());
                for name in &names {
                    out.set_shared(name.clone(), prefetched.get(self, name, row)?);
                }
                Ok(out)
            })
            .collect()
    }

    /// Fetch and decode, in **one batched storage call**, every chunk the
    /// given `tensors` need to serve `rows` — the chunk-granular scan
    /// primitive shared by the loader's task reads and TQL's executor.
    /// Returns the task's chunks *pinned* per tensor — the fetched ones
    /// and the ones the shared chunk cache already held (the cache evicts
    /// across worker threads; pinning keeps a task's chunks alive for its
    /// whole assembly) — plus the number of storage round trips issued
    /// (0 or 1).
    ///
    /// Tensors that don't exist are skipped — readers hitting them later
    /// report the per-row error exactly like [`Dataset::get`]. Fetch or
    /// decode failures are likewise deferred to the single-key fallback.
    pub fn prefetch_chunks(&self, tensors: &[String], rows: &[u64]) -> Result<PrefetchedChunks> {
        self.prefetch(tensors, |store, pinned| store.resolve_rows(rows, pinned))
    }

    /// [`prefetch_chunks`](Dataset::prefetch_chunks) for whole row
    /// ranges — what the query executor's span scans ask for, which read
    /// their chunks in place ([`PrefetchedChunks::column_runs`]). The
    /// same plan, with the chunks enumerated per chunk run, not per row.
    pub fn prefetch_spans(
        &self,
        tensors: &[String],
        spans: &[(u64, u64)],
    ) -> Result<PrefetchedChunks> {
        self.prefetch(tensors, |store, pinned| store.resolve_spans(spans, pinned))
    }

    /// The batched read: `resolve` names each tensor's chunks and pins
    /// the resident ones (see [`TensorStore::resolve_rows`]), the missing
    /// ones of every tensor go into one [`ReadPlan`], one `execute`
    /// fetches them, and each is admitted to the cache and pinned.
    fn prefetch(
        &self,
        tensors: &[String],
        resolve: impl Fn(
            &TensorStore,
            &mut HashMap<u64, Arc<deeplake_format::Chunk>>,
        ) -> Vec<(ChunkKey, String)>,
    ) -> Result<PrefetchedChunks> {
        let mut plan = ReadPlan::new();
        let mut admissions: Vec<(&String, ChunkKey)> = Vec::new();
        let mut prefetched = PrefetchedChunks::default();
        for name in tensors {
            let Ok(store) = self.store(name) else {
                continue;
            };
            let pinned = prefetched.by_tensor.entry(name.clone()).or_default();
            for (chunk, key) in resolve(store, pinned) {
                plan.whole(key);
                admissions.push((name, chunk));
            }
        }
        if !plan.is_empty() {
            prefetched.round_trips = 1;
            let fetch_t = std::time::Instant::now();
            let outcome = self.root.execute(&plan);
            prefetched.fetch_ns = fetch_t.elapsed().as_nanos() as u64;
            let decode_t = std::time::Instant::now();
            for ((name, key @ (_, id)), data) in admissions.into_iter().zip(outcome.results) {
                // a failed fetch or a corrupt blob is NOT an error here:
                // the single-key path retries it and reports the
                // row-level error, matching `Dataset::get` semantics
                let Ok(data) = data else { continue };
                if let Ok(chunk) = self.chunks.admit(key, data) {
                    prefetched
                        .by_tensor
                        .get_mut(name)
                        .expect("entry created above")
                        .insert(id, chunk);
                }
            }
            prefetched.decode_ns = decode_t.elapsed().as_nanos() as u64;
        }
        Ok(prefetched)
    }

    /// `tensor`'s row space as chunk-aligned spans (see
    /// [`TensorStore::chunk_spans`]).
    pub fn chunk_spans(&self, tensor: &str) -> Result<Vec<(Option<u64>, u64, u64)>> {
        Ok(self.store(tensor)?.chunk_spans())
    }

    // ------------------------------------------------------------------
    // vector (embedding) search index
    // ------------------------------------------------------------------

    /// Build (or rebuild) a vector similarity index over `tensor` and
    /// persist it under the tensor's `vector_index/` key family in the
    /// HEAD version. The tensor must hold fixed-shape rank-1 `F32`/`F64`
    /// vectors in every row.
    ///
    /// The index covers the rows present at build time; later appends
    /// leave it valid (consumers exact-scan the unindexed tail), while
    /// in-place updates and re-chunking tombstone it so it can never
    /// serve wrong rows — rebuild after such mutations to regain the
    /// approximate path.
    pub fn build_vector_index(
        &mut self,
        tensor: &str,
        spec: &IndexSpec,
    ) -> Result<IndexBuildReport> {
        self.ensure_writable()?;
        let meta = self.tensor_meta(tensor)?;
        if !matches!(meta.dtype, Dtype::F32 | Dtype::F64) {
            return Err(CoreError::Index(deeplake_index::IndexError::Unsupported(
                format!("tensor {tensor:?} has dtype {:?}, need F32/F64", meta.dtype),
            )));
        }
        if meta.length == 0 {
            return Err(CoreError::Index(deeplake_index::IndexError::Unsupported(
                format!("tensor {tensor:?} has no rows to index"),
            )));
        }
        if !meta.is_uniform() || meta.max_shape.rank() != 1 || meta.max_shape.dims()[0] == 0 {
            return Err(CoreError::Index(deeplake_index::IndexError::Unsupported(
                format!(
                    "tensor {tensor:?} is not fixed-shape rank-1 (shapes {:?}..{:?})",
                    meta.min_shape, meta.max_shape
                ),
            )));
        }
        let dim = meta.max_shape.dims()[0] as usize;
        let n = self.store(tensor)?.len();

        // batched read of every vector: block-prefetch the chunks, decode
        // each once, flatten to f32 — each record in place where it is one
        // raw frame of `dim` elements, through a `Sample` otherwise
        let tensors = [tensor.to_string()];
        let mut vectors: Vec<f32> = Vec::with_capacity(n as usize * dim);
        let mut values: Vec<f64> = Vec::with_capacity(dim);
        const BLOCK: u64 = 1024;
        let mut start = 0u64;
        while start < n {
            let end = (start + BLOCK).min(n);
            let rows: Vec<u64> = (start..end).collect();
            let prefetched = self.prefetch_chunks(&tensors, &rows)?;
            // the block's records in row order, or none when the block is
            // not resolvable in place (a tiled row, an unfetched chunk)
            let runs = prefetched
                .column_runs(self, tensor, start, end)
                .unwrap_or_default();
            let mut in_place = runs.iter().flat_map(|run| {
                (run.first..run.first + run.len).map(move |i| run.chunk().vector_at(i, dim))
            });
            for &row in &rows {
                values.clear();
                match in_place.next().flatten() {
                    Some(view) => view.decode_rows(0..1, &mut values),
                    None => values = prefetched.get(self, tensor, row)?.to_f64_vec(),
                }
                if values.len() != dim {
                    return Err(CoreError::Index(deeplake_index::IndexError::Unsupported(
                        format!(
                            "row {row} of {tensor:?} has {} elements, expected {dim}",
                            values.len()
                        ),
                    )));
                }
                vectors.extend(values.iter().map(|&v| v as f32));
            }
            start = end;
        }

        let index = VectorIndex::build(&vectors, dim, spec)?;
        let report = IndexBuildReport {
            tensor: tensor.to_string(),
            rows: index.rows(),
            dim,
            kind: index.kind(),
            clusters: match &index {
                VectorIndex::Ivf(ivf) => ivf.nlist(),
                VectorIndex::Flat { .. } => 0,
            },
        };
        let shared = Arc::new(index);
        self.store_mut(tensor)?.save_vector_index(&shared)?;
        self.vindex_cache
            .lock()
            .insert(tensor.to_string(), Some(shared));
        Ok(report)
    }

    /// The tensor's vector index, if a valid one is resolvable through
    /// the version chain (`None` when never built, tombstoned by an
    /// update/re-chunk, unreadable, or the dataset predates the
    /// `vector_index/` key family). Loaded once per handle and memoized.
    pub fn vector_index(&self, tensor: &str) -> Option<Arc<VectorIndex>> {
        if let Some(cached) = self.vindex_cache.lock().get(tensor) {
            return cached.clone();
        }
        let loaded = self
            .tensors
            .get(tensor)
            .and_then(|store| store.load_vector_index().ok().flatten())
            .map(Arc::new);
        self.vindex_cache
            .lock()
            .insert(tensor.to_string(), loaded.clone());
        loaded
    }

    /// Stable sample id of a row.
    pub fn sample_id(&self, row: u64) -> Result<u64> {
        let s = self.store(ID_TENSOR)?.get(row)?;
        Ok(s.to_vec::<u64>()?[0])
    }

    /// Update one sample in place (§3.5 random-access writes, e.g.
    /// annotators writing labels or models storing predictions back).
    pub fn update(&mut self, tensor: &str, row: u64, sample: &Sample) -> Result<()> {
        self.ensure_writable()?;
        if tensor == ID_TENSOR {
            return Err(CoreError::Corrupt("sample ids are immutable".into()));
        }
        self.vindex_cache.lock().remove(tensor);
        self.store_mut(tensor)?.update(row, sample)
    }

    /// Optimize chunk layout (§3.5 re-chunking): every tensor whose
    /// fragmentation exceeds `threshold` (runs per chunk; 1.0 is perfect)
    /// is rewritten into fresh sequential chunks. Returns
    /// `(tensor, before, after)` for each re-chunked tensor.
    pub fn optimize(&mut self, threshold: f64) -> Result<Vec<(String, f64, f64)>> {
        self.ensure_writable()?;
        self.vindex_cache.lock().clear();
        let mut out = Vec::new();
        let names: Vec<String> = self.tensors.keys().cloned().collect();
        for name in names {
            let store = self.tensors.get_mut(&name).expect("own keys");
            if store.fragmentation() > threshold {
                let (before, after) = store.rechunk()?;
                out.push((name, before, after));
            }
        }
        self.flush()?;
        Ok(out)
    }

    /// Persist all pending state.
    pub fn flush(&mut self) -> Result<()> {
        for store in self.tensors.values_mut() {
            store.flush()?;
        }
        self.persist_schema()?;
        self.persist_tree()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // version control (§4.2)
    // ------------------------------------------------------------------

    /// Commit: seal the current state as an immutable snapshot. Returns
    /// the commit id.
    pub fn commit(&mut self, message: &str) -> Result<String> {
        self.ensure_writable()?;
        self.flush()?;
        let branch = self.tree.node(&self.head)?.branch.clone();
        let (sealed, new_tip) = self.tree.commit(&branch, message)?;
        for (name, store) in self.tensors.iter_mut() {
            let dir = PrefixProvider::new(self.root.clone(), tensor_prefix(&new_tip, name));
            store.start_new_version(dir)?;
        }
        self.head = new_tip;
        self.persist_schema()?;
        self.persist_tree()?;
        Ok(sealed)
    }

    /// Checkout a branch (writable) or a commit id (read-only snapshot).
    pub fn checkout(&mut self, reference: &str) -> Result<()> {
        if !self.read_only {
            self.flush()?;
        }
        let target = self.tree.resolve(reference)?;
        self.read_only = self.tree.node(&target)?.committed;
        self.head = target;
        self.load_tensors()?;
        Ok(())
    }

    /// Create a new branch off the last commit of the current branch and
    /// check it out.
    pub fn checkout_new_branch(&mut self, name: &str) -> Result<()> {
        self.flush()?;
        let from = match &self.tree.node(&self.head)?.parent {
            Some(parent) => parent.clone(),
            None => {
                return Err(CoreError::Corrupt(
                    "commit at least once before branching".into(),
                ))
            }
        };
        let tip = self.tree.create_branch(name, &from)?;
        self.head = tip;
        self.read_only = false;
        self.persist_tree()?;
        self.load_tensors()?;
        self.persist_schema()?;
        Ok(())
    }

    /// All branch names.
    pub fn branches(&self) -> Vec<&str> {
        self.tree.branches()
    }

    /// Current branch name.
    pub fn current_branch(&self) -> Result<&str> {
        Ok(&self.tree.node(&self.head)?.branch)
    }

    /// Current head node id (the mutable tip, not the last commit).
    pub fn head_id(&self) -> &str {
        &self.head
    }

    /// Commit log of the current branch: `(id, message, timestamp_ms)`.
    pub fn log(&self) -> Result<Vec<(String, String, u64)>> {
        let branch = self.current_branch()?.to_string();
        Ok(self
            .tree
            .log(&branch)?
            .into_iter()
            .map(|n| {
                (
                    n.id.clone(),
                    n.message.clone().unwrap_or_default(),
                    n.timestamp_ms,
                )
            })
            .collect())
    }

    /// Accumulated per-tensor changes of `tip` since `base` (both node
    /// ids), read from the stored commit-diff files.
    fn accumulated_diffs(&self, tip: &str, base: &str) -> Result<HashMap<String, CommitDiff>> {
        let mut out: HashMap<String, CommitDiff> = HashMap::new();
        for node in self.tree.path_since(tip, base)? {
            let schema = self.load_schema(&self.tree.chain(&node)?)?;
            for tensor in schema.tensors {
                let key = format!("{}/commit_diff.json", tensor_prefix(&node, &tensor));
                if let Some(data) = optional(self.root.get(&key))? {
                    let diff = CommitDiff::from_json(&data)?;
                    out.entry(tensor).or_default().merge_from(&diff);
                }
            }
        }
        Ok(out)
    }

    /// Compare two refs (§4.2 Diff): per-tensor rows added/updated on each
    /// side since their merge base.
    pub fn diff(&self, a: &str, b: &str) -> Result<DiffSummary> {
        let na = self.tree.resolve(a)?;
        let nb = self.tree.resolve(b)?;
        let base = self.tree.lca(&na, &nb)?;
        let to_vec = |m: HashMap<String, CommitDiff>| -> Vec<TensorDiff> {
            let mut v: Vec<TensorDiff> = m
                .into_iter()
                .map(|(tensor, d)| TensorDiff {
                    tensor,
                    rows_added: d.added.len(),
                    rows_updated: d.updated.len(),
                })
                .collect();
            v.sort_by(|x, y| x.tensor.cmp(&y.tensor));
            v
        };
        Ok(DiffSummary {
            base: base.clone(),
            left: to_vec(self.accumulated_diffs(&na, &base)?),
            right: to_vec(self.accumulated_diffs(&nb, &base)?),
        })
    }

    /// Merge another branch into the current one (§4.2 Merge). Sample ids
    /// align rows across branches; conflicts (updated on both sides since
    /// the base) resolve per `policy`.
    pub fn merge(&mut self, branch: &str, policy: MergePolicy) -> Result<MergeReport> {
        self.ensure_writable()?;
        self.vindex_cache.lock().clear();
        self.flush()?;
        let other_tip = self.tree.resolve(branch)?;
        let base = self.tree.lca(&self.head, &other_tip)?;
        let other = Dataset::open_shared(self.root.clone(), &other_tip, self.chunks.clone())?;

        // id -> row maps on both sides
        let mut our_ids: HashMap<u64, u64> = HashMap::new();
        for row in 0..self.len() {
            our_ids.insert(self.sample_id(row)?, row);
        }
        let mut other_rows: Vec<(u64, u64)> = Vec::new(); // (id, other_row)
        for row in 0..other.len() {
            other_rows.push((other.sample_id(row)?, row));
        }

        // changes on each side since base
        let their_diffs = self.accumulated_diffs(&other_tip, &base)?;
        let our_diffs = self.accumulated_diffs(&self.head, &base)?;
        let updated_rows = |m: &HashMap<String, CommitDiff>| {
            let mut rows = RowSet::new();
            m.values().for_each(|d| rows.merge_from(&d.updated));
            rows
        };
        let their_updated_rows = updated_rows(&their_diffs);
        let our_updated_rows = updated_rows(&our_diffs);
        let our_updated_ids: BTreeSet<u64> = our_updated_rows
            .iter()
            .filter_map(|r| (r < self.len()).then(|| self.sample_id(r).ok()).flatten())
            .collect();

        let mut report = MergeReport::default();
        let visible: Vec<String> = self.tensors().into_iter().map(str::to_string).collect();

        // 1) conflicts + incoming updates
        let mut updates: Vec<(u64, u64)> = Vec::new(); // (our_row, other_row)
        for &(id, other_row) in &other_rows {
            let Some(&our_row) = our_ids.get(&id) else {
                continue;
            };
            if !their_updated_rows.contains(other_row) {
                continue;
            }
            if our_updated_ids.contains(&id) {
                report.conflicts.push(id);
                match policy {
                    MergePolicy::Fail => {
                        return Err(CoreError::MergeConflict {
                            sample_ids: report.conflicts,
                        })
                    }
                    MergePolicy::Ours => continue,
                    MergePolicy::Theirs => updates.push((our_row, other_row)),
                }
            } else {
                updates.push((our_row, other_row));
            }
        }
        for (our_row, other_row) in updates {
            for tensor in &visible {
                if other.tensors.contains_key(tensor) {
                    let sample = other.get(tensor, other_row)?;
                    self.store_mut(tensor)?.update(our_row, &sample)?;
                }
            }
            report.updates_applied += 1;
        }

        // 2) rows new on the other side
        for &(id, other_row) in &other_rows {
            if our_ids.contains_key(&id) {
                continue;
            }
            // append with the *same* sample id to keep identity stable
            let names: Vec<String> = self.tensors.keys().cloned().collect();
            for name in names {
                let store = self.tensors.get_mut(&name).expect("own keys");
                if name == ID_TENSOR {
                    store.append(&Sample::scalar(id))?;
                } else if store.meta().hidden || !other.tensors.contains_key(&name) {
                    store.append(&Sample::empty(store.meta().dtype))?;
                } else {
                    store.append(&other.get(&name, other_row)?)?;
                }
            }
            report.samples_added += 1;
        }

        self.commit(&format!("merge {branch}"))?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplake_storage::MemoryProvider;
    use std::sync::Arc;

    fn mem() -> DynProvider {
        Arc::new(MemoryProvider::new())
    }

    fn image(fill: u8) -> Sample {
        Sample::from_slice([4, 4, 3], &[fill; 48]).unwrap()
    }

    fn basic() -> Dataset {
        let mut ds = Dataset::create(mem(), "test").unwrap();
        ds.create_tensor_opts("images", {
            let mut o = TensorOptions::new(Htype::Image);
            o.sample_compression = Some(Compression::None);
            o
        })
        .unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        ds
    }

    fn append_n(ds: &mut Dataset, n: u64, offset: u8) {
        for i in 0..n {
            ds.append_row(vec![
                ("images", image(offset + i as u8)),
                ("labels", Sample::scalar((i % 10) as i32)),
            ])
            .unwrap();
        }
    }

    #[test]
    fn create_append_read() {
        let mut ds = basic();
        append_n(&mut ds, 5, 0);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.get("images", 3).unwrap(), image(3));
        assert_eq!(ds.get("labels", 3).unwrap().get_f64(0).unwrap(), 3.0);
        let row = ds.get_row(2).unwrap();
        assert_eq!(row.tensors().collect::<Vec<_>>(), vec!["images", "labels"]);
        assert!(ds.get_row(5).is_err());
    }

    #[test]
    fn hidden_id_tensor_invisible_but_present() {
        let mut ds = basic();
        append_n(&mut ds, 2, 0);
        assert_eq!(ds.tensors(), vec!["images", "labels"]);
        assert!(ds.tensors_all().contains(&ID_TENSOR));
        let id0 = ds.sample_id(0).unwrap();
        let id1 = ds.sample_id(1).unwrap();
        assert_ne!(id0, id1);
        assert_ne!(id0, 0);
        // hidden tensors can't be written through rows
        assert!(ds
            .append_row(vec![(ID_TENSOR, Sample::scalar(1u64))])
            .is_err());
    }

    #[test]
    fn missing_tensor_in_row_gets_empty_marker() {
        let mut ds = basic();
        ds.append_row(vec![("images", image(1))]).unwrap();
        assert_eq!(ds.len(), 1);
        let label = ds.get("labels", 0).unwrap();
        assert!(label.is_empty());
    }

    #[test]
    fn unknown_tensor_rejected_atomically() {
        let mut ds = basic();
        assert!(ds.append_row(vec![("ghost", Sample::scalar(1u8))]).is_err());
        assert_eq!(ds.len(), 0);
    }

    #[test]
    fn flush_and_reopen() {
        let provider = mem();
        {
            let mut ds = Dataset::create(provider.clone(), "persist").unwrap();
            ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
            for i in 0..10 {
                ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
            }
            ds.flush().unwrap();
        }
        let ds = Dataset::open(provider).unwrap();
        assert_eq!(ds.name(), "persist");
        assert_eq!(ds.len(), 10);
        assert_eq!(ds.get("labels", 7).unwrap().get_f64(0).unwrap(), 7.0);
    }

    #[test]
    fn commit_checkout_time_travel() {
        let mut ds = basic();
        append_n(&mut ds, 3, 0);
        let c1 = ds.commit("three rows").unwrap();
        append_n(&mut ds, 2, 10);
        assert_eq!(ds.len(), 5);
        // time travel to the sealed commit: read-only, 3 rows
        ds.checkout(&c1).unwrap();
        assert!(ds.is_read_only());
        assert_eq!(ds.len(), 3);
        assert!(ds.append_row(vec![("images", image(9))]).is_err());
        // back to the branch tip
        ds.checkout("main").unwrap();
        assert!(!ds.is_read_only());
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.get("images", 4).unwrap(), image(11));
    }

    #[test]
    fn branches_isolate_changes() {
        let mut ds = basic();
        append_n(&mut ds, 2, 0);
        ds.commit("base").unwrap();
        ds.checkout_new_branch("exp").unwrap();
        append_n(&mut ds, 3, 50);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.current_branch().unwrap(), "exp");
        ds.flush().unwrap();
        ds.checkout("main").unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.current_branch().unwrap(), "main");
        ds.checkout("exp").unwrap();
        assert_eq!(ds.len(), 5);
    }

    #[test]
    fn branch_requires_commit() {
        let mut ds = basic();
        assert!(ds.checkout_new_branch("too-early").is_err());
    }

    #[test]
    fn update_and_diff() {
        let mut ds = basic();
        append_n(&mut ds, 4, 0);
        let c1 = ds.commit("v1").unwrap();
        ds.update("labels", 1, &Sample::scalar(99i32)).unwrap();
        ds.flush().unwrap();
        assert_eq!(ds.get("labels", 1).unwrap().get_f64(0).unwrap(), 99.0);
        let d = ds.diff(&c1, "main").unwrap();
        assert_eq!(d.base, c1);
        assert!(d
            .left
            .iter()
            .all(|t| t.rows_added == 0 && t.rows_updated == 0));
        let labels = d.right.iter().find(|t| t.tensor == "labels").unwrap();
        assert_eq!(labels.rows_updated, 1);
    }

    #[test]
    fn log_lists_commits() {
        let mut ds = basic();
        append_n(&mut ds, 1, 0);
        ds.commit("first").unwrap();
        append_n(&mut ds, 1, 1);
        ds.commit("second").unwrap();
        let log = ds.log().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].1, "second");
        assert_eq!(log[1].1, "first");
    }

    #[test]
    fn merge_appends_new_rows() {
        let mut ds = basic();
        append_n(&mut ds, 2, 0);
        ds.commit("base").unwrap();
        ds.checkout_new_branch("side").unwrap();
        append_n(&mut ds, 3, 20);
        ds.commit("side adds").unwrap();
        ds.checkout("main").unwrap();
        let report = ds.merge("side", MergePolicy::Ours).unwrap();
        assert_eq!(report.samples_added, 3);
        assert_eq!(report.updates_applied, 0);
        assert!(report.conflicts.is_empty());
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.get("images", 4).unwrap(), image(22));
    }

    #[test]
    fn merge_applies_their_updates() {
        let mut ds = basic();
        append_n(&mut ds, 3, 0);
        ds.commit("base").unwrap();
        ds.checkout_new_branch("fix").unwrap();
        ds.update("labels", 0, &Sample::scalar(42i32)).unwrap();
        ds.commit("fix label").unwrap();
        ds.checkout("main").unwrap();
        let report = ds.merge("fix", MergePolicy::Ours).unwrap();
        assert_eq!(report.updates_applied, 1);
        assert_eq!(ds.get("labels", 0).unwrap().get_f64(0).unwrap(), 42.0);
    }

    #[test]
    fn merge_conflict_policies() {
        // build two branches updating the same row
        let make = || {
            let mut ds = basic();
            append_n(&mut ds, 2, 0);
            ds.commit("base").unwrap();
            ds.checkout_new_branch("side").unwrap();
            ds.update("labels", 0, &Sample::scalar(7i32)).unwrap();
            ds.commit("side update").unwrap();
            ds.checkout("main").unwrap();
            ds.update("labels", 0, &Sample::scalar(5i32)).unwrap();
            ds.commit("main update").unwrap();
            ds
        };
        // ours: keep 5
        let mut ds = make();
        let r = ds.merge("side", MergePolicy::Ours).unwrap();
        assert_eq!(r.conflicts.len(), 1);
        assert_eq!(ds.get("labels", 0).unwrap().get_f64(0).unwrap(), 5.0);
        // theirs: take 7
        let mut ds = make();
        let r = ds.merge("side", MergePolicy::Theirs).unwrap();
        assert_eq!(r.conflicts.len(), 1);
        assert_eq!(ds.get("labels", 0).unwrap().get_f64(0).unwrap(), 7.0);
        // fail: error out
        let mut ds = make();
        assert!(matches!(
            ds.merge("side", MergePolicy::Fail),
            Err(CoreError::MergeConflict { .. })
        ));
    }

    #[test]
    fn schema_evolution_backfills() {
        let mut ds = basic();
        append_n(&mut ds, 3, 0);
        ds.create_tensor("boxes", Htype::BBox, None).unwrap();
        assert_eq!(ds.len(), 3);
        assert!(ds.get("boxes", 2).unwrap().is_empty());
        // new rows can fill it
        ds.append_row(vec![
            ("images", image(9)),
            (
                "boxes",
                Sample::from_slice([1, 4], &[1.0f32, 2.0, 3.0, 4.0]).unwrap(),
            ),
        ])
        .unwrap();
        assert_eq!(ds.get("boxes", 3).unwrap().shape().dims(), &[1, 4]);
    }

    #[test]
    fn groups_list_members() {
        let mut ds = Dataset::create(mem(), "grouped").unwrap();
        ds.create_tensor("camera/left", Htype::Image, None).unwrap();
        ds.create_tensor("camera/right", Htype::Image, None)
            .unwrap();
        ds.create_tensor("lidar", Htype::Generic, Some(Dtype::F32))
            .unwrap();
        assert_eq!(ds.group("camera"), vec!["camera/left", "camera/right"]);
        assert!(ds.group("lidar").is_empty());
    }

    #[test]
    fn double_create_rejected() {
        let provider = mem();
        let _ds = Dataset::create(provider.clone(), "one").unwrap();
        assert!(Dataset::create(provider, "two").is_err());
    }

    #[test]
    fn open_missing_dataset_fails() {
        assert!(Dataset::open(mem()).is_err());
    }

    #[test]
    fn optimize_rechunks_fragmented_tensors() {
        let mut ds = basic();
        append_n(&mut ds, 20, 0);
        ds.commit("base").unwrap();
        for row in [1u64, 5, 9, 13, 17] {
            ds.update("labels", row, &Sample::scalar(99i32)).unwrap();
        }
        ds.flush().unwrap();
        let report = ds.optimize(1.1).unwrap();
        assert!(
            report.iter().any(|(t, ..)| t == "labels"),
            "labels were fragmented"
        );
        for (_, before, after) in &report {
            assert!(after <= before);
        }
        // values survive
        assert_eq!(ds.get("labels", 5).unwrap().get_f64(0).unwrap(), 99.0);
        assert_eq!(ds.get("labels", 6).unwrap().get_f64(0).unwrap(), 6.0);
        // history still intact
        let log = ds.log().unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn updates_blocked_on_id_tensor() {
        let mut ds = basic();
        append_n(&mut ds, 1, 0);
        assert!(ds.update(ID_TENSOR, 0, &Sample::scalar(1u64)).is_err());
    }

    fn embedding_ds(n: u64) -> Dataset {
        let mut ds = Dataset::create(mem(), "emb").unwrap();
        ds.create_tensor("emb", Htype::Embedding, None).unwrap();
        for i in 0..n {
            let v = [(i % 4) as f32 * 10.0, i as f32 * 0.01];
            ds.append_row(vec![("emb", Sample::from_slice([2], &v).unwrap())])
                .unwrap();
        }
        ds.flush().unwrap();
        ds
    }

    #[test]
    fn build_vector_index_and_reload() {
        let mut ds = embedding_ds(32);
        let report = ds
            .build_vector_index(
                "emb",
                &IndexSpec {
                    nlist: Some(4),
                    ..IndexSpec::default()
                },
            )
            .unwrap();
        assert_eq!(report.rows, 32);
        assert_eq!(report.dim, 2);
        assert_eq!(report.kind, IndexKind::Ivf);
        assert_eq!(report.clusters, 4);
        let idx = ds.vector_index("emb").expect("cached");
        assert_eq!(idx.rows(), 32);
        // a fresh handle resolves the persisted index through storage
        ds.flush().unwrap();
        let reopened = Dataset::open(ds.provider()).unwrap();
        let idx = reopened.vector_index("emb").expect("persisted");
        assert_eq!(idx.dim(), 2);
    }

    /// 2,500 rows of 5-element vectors of `dtype` in small chunks, the
    /// last `open` of them appended after the flush (still in the open
    /// chunk).
    fn vector_ds(dtype: Dtype, compression: Option<Compression>, open: u64) -> Dataset {
        let mut ds = Dataset::create(mem(), "vectors").unwrap();
        let mut opts = TensorOptions::new(Htype::Generic);
        opts.dtype = Some(dtype);
        opts.sample_compression = compression;
        opts.chunk_target_bytes = Some(4 << 10);
        ds.create_tensor_opts("emb", opts).unwrap();
        let rows = 2_500;
        for i in 0..rows {
            if i == rows - open {
                ds.flush().unwrap();
            }
            let v: Vec<f64> = (0..5)
                .map(|d| ((i * 7 + d * 13) % 97) as f64 / 3.0 - 16.0)
                .collect();
            let sample = match dtype {
                Dtype::F64 => Sample::from_slice([5], &v),
                _ => Sample::from_slice([5], &v.iter().map(|&x| x as f32).collect::<Vec<_>>()),
            };
            ds.append_row(vec![("emb", sample.unwrap())]).unwrap();
        }
        if open == 0 {
            ds.flush().unwrap();
        }
        ds
    }

    #[test]
    fn build_vector_index_reads_records_as_the_per_row_path_does() {
        let spec = IndexSpec {
            nlist: Some(12),
            train_sample: 600,
            seed: 7,
            ..IndexSpec::default()
        };
        let cases = [
            ("f32", vector_ds(Dtype::F32, None, 0)),
            ("f64", vector_ds(Dtype::F64, None, 0)),
            ("open chunk", vector_ds(Dtype::F32, None, 700)),
            (
                "sample-compressed",
                vector_ds(Dtype::F64, Some(Compression::Lz4), 0),
            ),
        ];
        for (what, mut ds) in cases {
            // today's reference: one `Sample` per row, widened to f64 and
            // cast to f32
            let rows = ds.tensor_meta("emb").unwrap().length;
            let flat: Vec<f32> = (0..rows)
                .flat_map(|row| ds.get("emb", row).unwrap().to_f64_vec())
                .map(|v| v as f32)
                .collect();
            let want = VectorIndex::build(&flat, 5, &spec).unwrap();
            ds.build_vector_index("emb", &spec).unwrap();
            assert_eq!(*ds.vector_index("emb").unwrap(), want, "{what}");
        }
    }

    #[test]
    fn build_vector_index_rejects_unsuitable_tensors() {
        let mut ds = basic();
        append_n(&mut ds, 3, 0);
        // wrong dtype (u8 images), wrong rank
        assert!(matches!(
            ds.build_vector_index("images", &IndexSpec::default()),
            Err(CoreError::Index(_))
        ));
        // unknown tensor
        assert!(ds
            .build_vector_index("ghost", &IndexSpec::default())
            .is_err());
        // empty tensor
        let mut ds = Dataset::create(mem(), "empty").unwrap();
        ds.create_tensor("emb", Htype::Embedding, None).unwrap();
        assert!(matches!(
            ds.build_vector_index("emb", &IndexSpec::default()),
            Err(CoreError::Index(_))
        ));
        // ragged shapes
        let mut ds = Dataset::create(mem(), "ragged").unwrap();
        ds.create_tensor("emb", Htype::Embedding, None).unwrap();
        ds.append_row(vec![(
            "emb",
            Sample::from_slice([2], &[1.0f32, 2.0]).unwrap(),
        )])
        .unwrap();
        ds.append_row(vec![(
            "emb",
            Sample::from_slice([3], &[1.0f32, 2.0, 3.0]).unwrap(),
        )])
        .unwrap();
        assert!(matches!(
            ds.build_vector_index("emb", &IndexSpec::default()),
            Err(CoreError::Index(_))
        ));
    }

    #[test]
    fn update_invalidates_vector_index_commit_keeps_it() {
        let mut ds = embedding_ds(16);
        ds.build_vector_index("emb", &IndexSpec::default()).unwrap();
        assert!(ds.vector_index("emb").is_some());
        ds.commit("indexed").unwrap();
        assert!(ds.vector_index("emb").is_some(), "commit keeps the index");
        ds.update("emb", 0, &Sample::from_slice([2], &[9.0f32, 9.0]).unwrap())
            .unwrap();
        assert!(ds.vector_index("emb").is_none(), "update tombstones it");
        // the tombstone survives flush + reopen
        ds.flush().unwrap();
        let reopened = Dataset::open(ds.provider()).unwrap();
        assert!(reopened.vector_index("emb").is_none());
        // rebuild clears the tombstone
        let mut ds = Dataset::open(reopened.provider()).unwrap();
        ds.build_vector_index("emb", &IndexSpec::default()).unwrap();
        assert!(ds.vector_index("emb").is_some());
    }

    #[test]
    fn build_vector_index_requires_writable_head() {
        let mut ds = embedding_ds(8);
        let c = ds.commit("sealed").unwrap();
        ds.checkout(&c).unwrap();
        assert!(matches!(
            ds.build_vector_index("emb", &IndexSpec::default()),
            Err(CoreError::ReadOnlyVersion)
        ));
    }
}
