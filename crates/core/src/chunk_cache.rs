//! The parsed-chunk cache: memory, the tier above the store (§3.6) where
//! a stored chunk lives once it is parsed.
//!
//! One cache serves a whole store: every tensor of a [`Dataset`], every
//! version it checks out, and every handle opened on the same root with
//! [`Dataset::open_shared`] (a query `AT VERSION`, a merge's other branch,
//! the hub's handles on one mount). A chunk two versions or two handles
//! share is parsed once.
//!
//! A chunk is named by its owning version directory and its id
//! (`ChunkKey`): the directory's prefix under the dataset's root is
//! interned to a small integer once, when the directory is loaded, so a
//! lookup hashes two integers and allocates nothing. Keys are never
//! rewritten: every chunk write takes a fresh id, so an update or a
//! re-chunk leaves nothing stale behind. Only deleting stored chunks
//! breaks that (a dataset deleted and recreated in place starts again at
//! node `v000000`, chunk 0), and whoever deletes starts a new cache rather
//! than clearing this one — a reader still holding the old one keeps
//! admitting into it, never into the new one.
//!
//! [`Dataset`]: crate::Dataset
//! [`Dataset::open_shared`]: crate::Dataset::open_shared

use std::collections::HashMap;
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
/// interned prefix ([`ChunkCache::dir`]) and its id.
pub(crate) type ChunkKey = (u32, u64);

/// Parsed chunks by `ChunkKey`, the least recently used evicted first
/// once the cache holds more than 64 chunks *and* more than 8 MiB.
#[derive(Default)]
pub struct ChunkCache {
    /// Version directory prefix → its interned number: one entry per
    /// directory ever loaded through the cache, as many as the store has.
    dirs: Mutex<HashMap<String, u32>>,
    chunks: Mutex<Recency<ChunkKey, Arc<Chunk>>>,
}

impl ChunkCache {
    /// The number `prefix` (a version directory under the dataset's
    /// root) is known by, the same for every store sharing the cache.
    pub(crate) fn dir(&self, prefix: &str) -> u32 {
        let mut dirs = self.dirs.lock();
        let next = dirs.len() as u32;
        *dirs.entry(prefix.to_string()).or_insert(next)
    }

    /// The cache's copy of a chunk, which becomes the most recently used.
    pub(crate) fn get(&self, key: ChunkKey) -> Option<Arc<Chunk>> {
        self.chunks.lock().get(&key).cloned()
    }

    /// Parse fetched chunk bytes into the cache — the one place a stored
    /// blob becomes a [`Chunk`]. The chunk is a view of `data` (which it
    /// keeps alive), not a copy.
    pub(crate) fn admit(&self, key: ChunkKey, data: Bytes) -> crate::Result<Arc<Chunk>> {
        let chunk = Arc::new(Chunk::parse(data)?);
        // a chunk weighs what its parse holds: payload plus offset table
        let weight = chunk.payload_len() + (chunk.sample_count() + 1) * size_of::<u32>();
        insert(&mut self.chunks.lock(), key, chunk.clone(), weight as u64);
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
}
