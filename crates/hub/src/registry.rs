//! The dataset registry: many named datasets behind one listener.
//!
//! Each mount pairs a name with a [`DynProvider`] — usually a
//! [`PrefixProvider`](deeplake_storage::PrefixProvider) namespacing one
//! backing store, but any provider works (server-side mounts can point
//! different datasets at different backends). Connections `Attach` to a
//! name; unattached connections fall back to the *default* mount, which
//! is how a hub with one `default_mount` behaves exactly like the PR-4
//! single-dataset server.
//!
//! A mount also owns the serving-side memoization that makes repeated
//! query offload cheap: `reference → resolved head` — the lookup that
//! would otherwise cost storage reads per query — and `reference → one
//! opened [`Dataset`]` every query against that reference executes on,
//! so metadata, chunk statistics and the decoded vector index load once
//! rather than once per query (for eight references at most; an older
//! one is reopened). Both live and die under one invalidation epoch,
//! bumped on every write routed into the dataset, so a query racing a
//! write can never install a stale memo, handle or cache entry.
//!
//! Parsed chunks outlive both, in one pool per registry: every mount's
//! handles read through a [`ChunkCache`] numbering over the registry's
//! pool, so the hub holds one budget of parsed chunks however many
//! mounts it has. A `Put` keeps the mount's numbering — a put never
//! rewrites a live chunk key, so what the pool holds is still what the
//! store holds. A delete, [`Mounted::invalidate`] and an unmount give the
//! mount a new numbering instead; a query still running on an old handle
//! admits under the old numbers, which the live one never reads, and
//! what they name ages out under the shared budget.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deeplake_core::{chunk_cache::ChunkCache, Dataset};
use deeplake_obs::Counter;
use deeplake_storage::{DynProvider, Recency, TimingProvider};
use parking_lot::{Mutex, RwLock};

/// What a mount remembers per reference, valid for the current epoch.
#[derive(Default)]
struct Memo {
    /// `reference → resolved head node`, at most [`MAX_HANDLES`] of them.
    /// Resolving a branch name costs storage reads; memoizing it is what
    /// lets a cache hit answer with *zero* storage round trips.
    heads: HashMap<String, String>,
    /// `reference → the opened dataset` queries share, at most
    /// [`MAX_HANDLES`] of them. A mutable tip and a committed reference
    /// are different keys, so they never share a handle.
    datasets: Recency<String, Arc<Dataset>>,
}

/// References one mount remembers a head and a handle for. A handle
/// holds its tensors' metadata, encoders and statistics (parsed chunks
/// are the mount's), and references are client-supplied: without a bound,
/// a client naming N commits pins N handles and N heads until the next
/// write.
const MAX_HANDLES: usize = 8;

/// One mounted dataset.
pub struct Mounted {
    /// Registry name.
    pub name: String,
    /// The dataset's (namespaced) storage.
    pub provider: DynProvider,
    /// `provider` behind a [`TimingProvider`] that lives as long as the
    /// mount: shared handles open over it, so the storage time of a read
    /// made on one is measurable after the query that opened it is gone.
    timed: DynProvider,
    storage_nanos: Counter,
    /// Cleared on every write into the dataset (an uncommitted tip
    /// mutates without changing its id, and a commit moves the branch).
    memo: Mutex<Memo>,
    /// The numbering every handle opens with, over the registry's pool;
    /// replaced on every write but a `Put`.
    chunks: Mutex<Arc<ChunkCache>>,
    /// Serializes opens, so queries that miss the handle together open
    /// it once.
    opening: Mutex<()>,
    /// Bumped on every invalidation; queries capture it before resolving
    /// and refuse to install memo/handle/cache entries if it moved
    /// meanwhile.
    epoch: AtomicU64,
}

impl Mounted {
    fn new(name: String, provider: DynProvider, pool: &ChunkCache) -> Arc<Self> {
        let timed = TimingProvider::new(provider.clone());
        Arc::new(Mounted {
            name,
            provider,
            storage_nanos: timed.nanos_counter(),
            timed: Arc::new(timed),
            memo: Mutex::new(Memo::default()),
            chunks: Mutex::new(Arc::new(pool.renumbered())),
            opening: Mutex::new(()),
            epoch: AtomicU64::new(0),
        })
    }

    /// Current invalidation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Run `f` against the mount's timed provider; returns its result
    /// and the nanoseconds the mount's storage was busy meanwhile (`f`'s
    /// own calls, plus whatever a concurrent query on this mount read).
    pub fn timed<T>(&self, f: impl FnOnce(&DynProvider) -> T) -> (T, u64) {
        let before = self.storage_nanos.get();
        let out = f(&self.timed);
        (out, self.storage_nanos.get() - before)
    }

    /// Memoized resolution of `reference`, if still valid.
    pub fn head_memo(&self, reference: &str) -> Option<String> {
        self.with_head_memo(reference, str::to_string)
    }

    /// `f` of the memoized resolution of `reference`, if still valid,
    /// called under the memo's lock: the event loop's cache probe reads
    /// the head where it lies instead of copying it.
    pub fn with_head_memo<R>(&self, reference: &str, f: impl FnOnce(&str) -> R) -> Option<R> {
        self.memo.lock().heads.get(reference).map(|head| f(head))
    }

    /// Install a resolution memo, unless the dataset was invalidated
    /// since `seen_epoch` was captured (a concurrent write may have
    /// moved the head the resolution observed). A new reference past
    /// [`MAX_HANDLES`] starts the memo over, which costs each displaced
    /// one a resolution: [`head_memo`](Self::head_memo) stays one probe.
    pub fn memoize_head(&self, reference: &str, head: String, seen_epoch: u64) {
        let mut memo = self.memo.lock();
        if self.epoch.load(Ordering::Acquire) == seen_epoch {
            if memo.heads.len() >= MAX_HANDLES && !memo.heads.contains_key(reference) {
                memo.heads.clear();
            }
            memo.heads.insert(reference.to_string(), head);
        }
    }

    /// The chunk numbering a handle of this mount opens with
    /// ([`Dataset::open_shared`]).
    pub fn chunk_cache(&self) -> Arc<ChunkCache> {
        self.chunks.lock().clone()
    }

    /// The dataset handle queries at `reference` share: the installed
    /// one, else `open`'s — installed for the next query unless the
    /// dataset was invalidated since `seen_epoch` was captured (the
    /// open may have read state a concurrent write has replaced; this
    /// query still runs on it, as it would have on a private handle).
    pub fn dataset<E>(
        &self,
        reference: &str,
        seen_epoch: u64,
        open: impl FnOnce() -> Result<Dataset, E>,
    ) -> Result<Arc<Dataset>, E> {
        let installed = || self.memo.lock().datasets.get(reference).cloned();
        if let Some(ds) = installed() {
            return Ok(ds);
        }
        let _opening = self.opening.lock();
        if let Some(ds) = installed() {
            return Ok(ds);
        }
        let ds = Arc::new(open()?);
        let mut memo = self.memo.lock();
        if self.epoch.load(Ordering::Acquire) == seen_epoch {
            memo.datasets.insert(reference.to_string(), ds.clone(), 1);
            if memo.datasets.len() > MAX_HANDLES {
                memo.datasets.pop_lru();
            }
        }
        Ok(ds)
    }

    /// Forget every memoized resolution and shared handle, advance the
    /// epoch, and renumber the mount's chunks: after a delete, or a write
    /// the hub did not see, a stored chunk key may name new bytes.
    pub fn invalidate(&self) {
        self.written(false);
    }

    /// A write routed through the hub landed: [`invalidate`](Self::invalidate),
    /// except that a `put` keeps the chunk numbering — it names a fresh
    /// chunk key or a file that is not a chunk.
    pub fn written(&self, put: bool) {
        let mut memo = self.memo.lock();
        self.epoch.fetch_add(1, Ordering::AcqRel);
        *memo = Memo::default();
        if !put {
            let mut chunks = self.chunks.lock();
            *chunks = Arc::new(chunks.renumbered());
        }
    }
}

/// Named mounts plus the default for unattached connections.
#[derive(Default)]
pub struct DatasetRegistry {
    mounts: RwLock<BTreeMap<String, Arc<Mounted>>>,
    default: RwLock<Option<Arc<Mounted>>>,
    /// The pool every mount's parsed chunks share, under one budget.
    chunks: ChunkCache,
}

impl DatasetRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validate a registry name: non-empty, no `/` and not a dot
    /// segment (names become key prefixes on wire mounts; a slash — or
    /// `.`/`..`, which path-backed providers collapse — would escape
    /// the namespace), printable ASCII.
    pub fn valid_name(name: &str) -> Result<(), String> {
        if name.is_empty() {
            return Err("dataset name must not be empty".into());
        }
        if name.chars().all(|c| c == '.') {
            return Err(format!(
                "dataset name {name:?} is a path dot-segment and could escape its namespace"
            ));
        }
        if let Some(bad) = name
            .chars()
            .find(|c| *c == '/' || !c.is_ascii() || c.is_ascii_control())
        {
            return Err(format!("dataset name may not contain {bad:?}"));
        }
        Ok(())
    }

    /// Register `provider` under `name`. Errors if the name is invalid
    /// or already taken — repointing a live name would silently keep
    /// serving the old provider to attached clients, so the caller must
    /// [`unmount`](Self::unmount) first, explicitly.
    pub fn mount(&self, name: &str, provider: DynProvider) -> Result<Arc<Mounted>, String> {
        Self::valid_name(name)?;
        let mut mounts = self.mounts.write();
        if mounts.contains_key(name) {
            return Err(format!("dataset {name:?} is already mounted"));
        }
        let mounted = Mounted::new(name.to_string(), provider, &self.chunks);
        mounts.insert(name.to_string(), mounted.clone());
        Ok(mounted)
    }

    /// Remove `name`; returns the mount if it existed. Storage is left
    /// untouched. The default mount cannot be unmounted by name removal
    /// alone — it stays reachable by unattached connections.
    pub fn unmount(&self, name: &str) -> Option<Arc<Mounted>> {
        self.mounts.write().remove(name)
    }

    /// Look a mount up by name.
    pub fn get(&self, name: &str) -> Option<Arc<Mounted>> {
        self.mounts.read().get(name).cloned()
    }

    /// Sorted names of every mount.
    pub fn list(&self) -> Vec<String> {
        self.mounts.read().keys().cloned().collect()
    }

    /// Number of mounts.
    pub fn len(&self) -> usize {
        self.mounts.read().len()
    }

    /// Whether no dataset is mounted.
    pub fn is_empty(&self) -> bool {
        self.mounts.read().is_empty()
    }

    /// The mount unattached connections resolve to.
    pub fn default_mount(&self) -> Option<Arc<Mounted>> {
        self.default.read().clone()
    }

    /// Set the default mount.
    pub fn set_default(&self, mounted: Arc<Mounted>) {
        *self.default.write() = Some(mounted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplake_core::dataset::TensorOptions;
    use deeplake_storage::MemoryProvider;
    use deeplake_tensor::{Dtype, Htype, Sample};

    fn provider() -> DynProvider {
        Arc::new(MemoryProvider::new())
    }

    #[test]
    fn mount_list_unmount() {
        let reg = DatasetRegistry::new();
        reg.mount("b", provider()).unwrap();
        reg.mount("a", provider()).unwrap();
        assert_eq!(reg.list(), vec!["a", "b"], "sorted listing");
        assert!(reg.get("a").is_some());
        assert!(reg.unmount("a").is_some());
        assert!(reg.get("a").is_none());
        assert!(reg.unmount("a").is_none(), "idempotent");
    }

    #[test]
    fn remount_taken_name_errors_instead_of_silently_keeping_old() {
        let reg = DatasetRegistry::new();
        let first = reg.mount("d", provider()).unwrap();
        let err = reg.mount("d", provider()).err().expect("re-mount refused");
        assert!(err.contains("already mounted"), "{err:?}");
        assert!(
            Arc::ptr_eq(&first, &reg.get("d").unwrap()),
            "original mount untouched"
        );
        // explicit unmount-then-mount repoints the name
        reg.unmount("d");
        reg.mount("d", provider()).unwrap();
    }

    #[test]
    fn names_are_validated() {
        assert!(DatasetRegistry::valid_name("mnist-v2.1_x").is_ok());
        assert!(DatasetRegistry::valid_name("").is_err());
        assert!(DatasetRegistry::valid_name("a/b").is_err());
        assert!(DatasetRegistry::valid_name("ünïcode").is_err());
        assert!(DatasetRegistry::valid_name("tab\there").is_err());
        // dot segments collapse on path-backed providers → escape risk
        assert!(DatasetRegistry::valid_name(".").is_err());
        assert!(DatasetRegistry::valid_name("..").is_err());
        assert!(DatasetRegistry::valid_name("...").is_err());
    }

    #[test]
    fn a_thousand_references_memoize_at_most_the_handle_cap_of_heads() {
        let reg = DatasetRegistry::new();
        let m = reg.mount("d", provider()).unwrap();
        for i in 0..1000 {
            m.memoize_head(&format!("commit{i}"), format!("h{i}"), m.epoch());
        }
        assert!(m.memo.lock().heads.len() <= MAX_HANDLES);
        assert_eq!(m.head_memo("commit999").unwrap(), "h999");
    }

    /// A dataset of one tensor `x`: `rows` samples of 1 KiB, in chunks of
    /// 16 KiB.
    fn kib_rows(store: &DynProvider, rows: u64) {
        let mut ds = Dataset::create(store.clone(), "d").unwrap();
        let mut opts = TensorOptions::new(Htype::Generic);
        opts.dtype = Some(Dtype::U8);
        opts.chunk_target_bytes = Some(16 << 10);
        ds.create_tensor_opts("x", opts).unwrap();
        for row in 0..rows {
            let sample = Sample::from_slice([1024], &[row as u8; 1024]).unwrap();
            ds.append_row(vec![("x", sample)]).unwrap();
        }
        ds.flush().unwrap();
    }

    /// Every row of `m`'s dataset read through the mount's handle.
    fn scan(m: &Mounted, store: &DynProvider) -> usize {
        let ds = m
            .dataset("main", m.epoch(), || {
                Dataset::open_shared(store.clone(), "main", m.chunk_cache())
            })
            .unwrap();
        for row in 0..ds.len() {
            ds.get("x", row).unwrap();
        }
        ds.chunk_spans("x").unwrap().len()
    }

    #[test]
    fn a_put_keeps_the_chunk_cache_and_every_other_invalidation_replaces_it() {
        let reg = DatasetRegistry::new();
        let store = provider();
        kib_rows(&store, 40);
        let m = reg.mount("d", store.clone()).unwrap();
        let other = reg.mount("e", provider()).unwrap();
        let (first, others) = (m.chunk_cache(), other.chunk_cache());
        scan(&m, &store);
        m.written(true);
        assert!(Arc::ptr_eq(&first, &m.chunk_cache()));
        m.written(false);
        let second = m.chunk_cache();
        assert!(!Arc::ptr_eq(&first, &second));
        m.invalidate();
        assert!(!Arc::ptr_eq(&second, &m.chunk_cache()));
        assert!(Arc::ptr_eq(&others, &other.chunk_cache()), "per mount");
        // every numbering, old or new, of every mount is over one pool
        let held = reg.chunks.bytes_held();
        assert!(held >= 40 << 10, "{held} bytes");
        for cache in [first, second, m.chunk_cache(), others] {
            assert_eq!(cache.bytes_held(), held);
        }
    }

    #[test]
    fn sixteen_mounts_scanned_whole_hold_one_budget() {
        let reg = DatasetRegistry::new();
        for i in 0..16 {
            let store = provider();
            kib_rows(&store, 1100);
            let m = reg.mount(&format!("d{i}"), store.clone()).unwrap();
            let chunks = scan(&m, &store);
            assert!(chunks > 64, "{chunks} chunks");
        }
        // the rule evicts while the pool holds more than 8 MiB, so it ends
        // within one chunk (16 KiB of samples + offsets) of the budget
        let held = reg.chunks.bytes_held();
        let chunk = 20 << 10;
        assert!(held <= (8 << 20) + chunk, "{held} bytes");
        assert!(held > (8 << 20) - chunk, "{held} bytes");
    }

    #[test]
    fn head_memo_respects_epochs() {
        let reg = DatasetRegistry::new();
        let m = reg.mount("d", provider()).unwrap();
        let e0 = m.epoch();
        m.memoize_head("main", "h1".into(), e0);
        assert_eq!(m.head_memo("main").unwrap(), "h1");
        // a write invalidates: memo gone, epoch moved
        m.invalidate();
        assert!(m.head_memo("main").is_none());
        // a stale installer (captured epoch before the write) is refused
        m.memoize_head("main", "h1-stale".into(), e0);
        assert!(m.head_memo("main").is_none());
        // a fresh installer lands
        m.memoize_head("main", "h2".into(), m.epoch());
        assert_eq!(m.head_memo("main").unwrap(), "h2");
    }

    #[test]
    fn dataset_handle_respects_epochs() {
        let reg = DatasetRegistry::new();
        let store = provider();
        Dataset::create(store.clone(), "d")
            .unwrap()
            .flush()
            .unwrap();
        let m = reg.mount("d", store.clone()).unwrap();
        let opens = std::cell::Cell::new(0);
        let open = || {
            opens.set(opens.get() + 1);
            Dataset::open_at(store.clone(), "main")
        };

        let first = m.dataset("main", m.epoch(), open).unwrap();
        let again = m.dataset("main", m.epoch(), open).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(opens.get(), 1, "the installed handle is reused");
        // another reference is another handle
        let other = m.dataset("other", m.epoch(), open).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));

        // a write invalidates: the next query opens afresh
        let stale_epoch = m.epoch();
        m.invalidate();
        let fresh = m.dataset("main", m.epoch(), open).unwrap();
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert_eq!(opens.get(), 3);

        // an opener that captured its epoch before a write keeps its
        // handle to itself
        m.invalidate();
        let private = m.dataset("main", stale_epoch, open).unwrap();
        let next = m.dataset("main", m.epoch(), open).unwrap();
        assert!(!Arc::ptr_eq(&private, &next));
        assert_eq!(opens.get(), 5);
        // a failed open installs nothing
        m.invalidate();
        assert!(m
            .dataset("main", m.epoch(), || Dataset::open_at(provider(), "main"))
            .is_err());
        m.dataset("main", m.epoch(), open).unwrap();
        assert_eq!(opens.get(), 6);
    }

    #[test]
    fn a_reference_past_the_handle_cap_reopens_the_least_recently_used() {
        let reg = DatasetRegistry::new();
        let store = provider();
        Dataset::create(store.clone(), "d")
            .unwrap()
            .flush()
            .unwrap();
        let m = reg.mount("d", store.clone()).unwrap();
        let opens = std::cell::Cell::new(0);
        let handle = |i: usize| {
            m.dataset(&format!("commit{i}"), m.epoch(), || {
                opens.set(opens.get() + 1);
                Dataset::open_at(store.clone(), "main")
            })
            .unwrap()
        };
        let first: Vec<_> = (0..MAX_HANDLES).map(handle).collect();
        // a query at commit0 leaves commit1 the least recently used
        assert!(Arc::ptr_eq(&first[0], &handle(0)));
        assert_eq!(opens.get(), MAX_HANDLES);

        handle(MAX_HANDLES);
        assert_eq!(opens.get(), MAX_HANDLES + 1);
        assert!(Arc::ptr_eq(&first[0], &handle(0)), "a recent one is kept");
        assert!(Arc::ptr_eq(&first[2], &handle(2)));
        assert_eq!(opens.get(), MAX_HANDLES + 1);
        assert!(!Arc::ptr_eq(&first[1], &handle(1)), "the oldest reopens");
        assert_eq!(opens.get(), MAX_HANDLES + 2);
    }
}
