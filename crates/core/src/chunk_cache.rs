//! The parsed-chunk cache: memory, the tier above the store (§3.6) where
//! a stored chunk lives once it is parsed.
//!
//! One cache serves a whole store: every tensor of a [`Dataset`], every
//! version it checks out, and every handle opened on the same root with
//! [`Dataset::open_shared`] (a query `AT VERSION`, a merge's other branch,
//! the hub's handles on one mount). A chunk two versions or two handles
//! share is parsed once.
//!
//! A cache is two parts: a pool, which holds the parsed chunks under the
//! one eviction rule, and the store's directory numbering over it. A
//! standalone [`Dataset`] owns a private pool; [`ChunkCache::renumbered`]
//! makes a cache that shares a pool, and its budget, under a fresh
//! numbering, which is how every mount of a hub reads through one pool.
//!
//! A chunk is named by its owning version directory and its id
//! (`ChunkKey`): the directory's prefix under the dataset's root is
//! numbered once, when the directory is loaded, so a lookup hashes two
//! integers and allocates nothing. Numbers come from one counter per
//! pool, so two numberings never share a key. Keys are never rewritten:
//! every chunk write takes a fresh id, so an update or a re-chunk leaves
//! nothing stale behind. Only deleting stored chunks breaks that (a
//! dataset deleted and recreated in place starts again at node
//! `v000000`, chunk 0), and whoever deletes starts a new numbering rather
//! than clearing the pool: a reader still holding the old one keeps
//! admitting under its old numbers, which age out under the budget.
//!
//! [`Dataset`]: crate::Dataset
//! [`Dataset::open_shared`]: crate::Dataset::open_shared

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use bytes::Bytes;
use deeplake_format::Chunk;
use deeplake_storage::Recency;
use parking_lot::Mutex;

/// The cache never evicts below this many chunks: enough for a loader
/// task's chunks across a handful of tensors even at the default 8 MiB
/// chunk size, where the byte budget alone would hold one.
const MIN_CHUNKS: usize = 64;
/// Nor below this many bytes of parsed chunks, so a tensor of small
/// chunks keeps a whole scan's working set.
const BUDGET_BYTES: u64 = 8 << 20;

/// A chunk's identity in a [`ChunkCache`]: its version directory's
/// number ([`ChunkCache::dir`]) and its id.
pub(crate) type ChunkKey = (u64, u64);

/// Parsed chunks by `ChunkKey`, the least recently used evicted first
/// once the pool holds more than 64 chunks *and* more than 8 MiB.
#[derive(Default)]
struct Pool {
    chunks: Mutex<Recency<ChunkKey, Arc<Chunk>>>,
    /// The next directory number of any numbering over the pool.
    next_dir: AtomicU64,
}

/// One store's numbering of its version directories over a pool of
/// parsed chunks: a private pool from `default`, a shared one from
/// [`renumbered`](Self::renumbered).
#[derive(Default)]
pub struct ChunkCache {
    pool: Arc<Pool>,
    /// Version directory prefix → its number: one entry per directory
    /// ever loaded through this numbering, as many as the store has.
    dirs: Mutex<HashMap<String, u64>>,
}

impl ChunkCache {
    /// A cache over this one's pool, and under its budget, that numbers
    /// directories afresh: what it admits is never read through this
    /// one, nor the reverse.
    pub fn renumbered(&self) -> ChunkCache {
        ChunkCache {
            pool: self.pool.clone(),
            dirs: Mutex::default(),
        }
    }

    /// Bytes of parsed chunks the pool holds, over every numbering.
    pub fn bytes_held(&self) -> u64 {
        self.pool.chunks.lock().weight()
    }

    /// The number `prefix` (a version directory under the dataset's
    /// root) is known by, the same for every store sharing the numbering.
    /// A number is never handed out twice in one pool: running out of
    /// them panics rather than wrap onto another directory's chunks.
    pub(crate) fn dir(&self, prefix: &str) -> u64 {
        let next = || {
            let n = (self.pool.next_dir).fetch_update(Relaxed, Relaxed, |n| n.checked_add(1));
            n.expect("chunk cache directory numbers exhausted")
        };
        let mut dirs = self.dirs.lock();
        *dirs.entry(prefix.to_string()).or_insert_with(next)
    }

    /// The pool's copy of a chunk, which becomes the most recently used.
    pub(crate) fn get(&self, key: ChunkKey) -> Option<Arc<Chunk>> {
        self.pool.chunks.lock().get(&key).cloned()
    }

    /// Parse fetched chunk bytes into the cache — the one place a stored
    /// blob becomes a [`Chunk`]. The chunk is a view of `data` (which it
    /// keeps alive), not a copy.
    pub(crate) fn admit(&self, key: ChunkKey, data: Bytes) -> crate::Result<Arc<Chunk>> {
        let chunk = Arc::new(Chunk::parse(data)?);
        // a chunk weighs what its parse holds: payload plus offset table
        let weight = (chunk.payload_len() + (chunk.sample_count() + 1) * size_of::<u32>()) as u64;
        insert(&mut self.pool.chunks.lock(), key, chunk.clone(), weight);
        Ok(chunk)
    }
}

/// The rule: store `value`, then evict the least recently used entry
/// while more than [`MIN_CHUNKS`] chunks *and* more than
/// [`BUDGET_BYTES`] are held. Overflow only costs a refetch.
fn insert<V>(chunks: &mut Recency<ChunkKey, V>, key: ChunkKey, value: V, weight: u64) {
    chunks.insert(key, value, weight);
    while chunks.len() > MIN_CHUNKS && chunks.weight() > BUDGET_BYTES {
        chunks.pop_lru();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: u64) -> ChunkKey {
        (0, id)
    }

    #[test]
    fn sixty_five_chunks_of_eight_mib_evict_exactly_the_least_recently_used() {
        let mut chunks = Recency::new();
        for id in 0..64 {
            insert(&mut chunks, key(id), (), 8 << 20);
        }
        assert!(chunks.get(&key(0)).is_some()); // chunk 1 is now the least recent
        insert(&mut chunks, key(64), (), 8 << 20);
        assert_eq!(chunks.len(), 64);
        assert!(chunks.get(&key(1)).is_none());
        assert!(chunks.get(&key(0)).is_some());
    }

    #[test]
    fn two_hundred_chunks_of_33_kb_evict_none() {
        let mut chunks = Recency::new();
        for id in 0..200 {
            insert(&mut chunks, key(id), (), 33_000);
        }
        assert_eq!(chunks.len(), 200);
        assert_eq!(chunks.weight(), 200 * 33_000);
    }

    #[test]
    fn a_directory_keeps_its_number_and_its_chunks_are_its_own() {
        let cache = ChunkCache::default();
        let (a, b) = (cache.dir("versions/v0/x/"), cache.dir("versions/v1/x/"));
        assert_ne!(a, b);
        assert_eq!(cache.dir("versions/v0/x/"), a);

        let mut chunk = Chunk::new(deeplake_tensor::Dtype::U8);
        chunk
            .append_sample(
                &deeplake_tensor::Sample::scalar(7u8),
                deeplake_codec::Compression::None,
            )
            .unwrap();
        let data = Bytes::from(chunk.serialize(deeplake_codec::Compression::None));
        cache.admit((a, 3), data).unwrap();
        assert!(cache.get((a, 3)).is_some());
        assert!(cache.get((b, 3)).is_none());
        assert!(cache.get((a, 4)).is_none());
    }

    #[test]
    fn a_renumbered_cache_shares_the_pool_but_no_key() {
        let cache = ChunkCache::default();
        let fresh = cache.renumbered();
        let (a, b) = (cache.dir("versions/v0/x/"), fresh.dir("versions/v0/x/"));
        assert_ne!(a, b);

        let mut chunk = Chunk::new(deeplake_tensor::Dtype::U8);
        chunk
            .append_sample(
                &deeplake_tensor::Sample::scalar(7u8),
                deeplake_codec::Compression::None,
            )
            .unwrap();
        let data = Bytes::from(chunk.serialize(deeplake_codec::Compression::None));
        cache.admit((a, 0), data).unwrap();
        assert!(fresh.get((b, 0)).is_none());
        assert_eq!(fresh.bytes_held(), cache.bytes_held());
        assert!(cache.bytes_held() > 0);
        assert_eq!(ChunkCache::default().bytes_held(), 0, "a private pool");
    }
}
