//! LRU cache chaining (§3.6: "constructs memory caching by chaining various
//! storage providers together, for instance — the LRU cache of remote S3
//! storage with local in-memory data").
//!
//! [`LruCacheProvider`] fronts a slow *base* provider with a byte-budgeted
//! in-memory cache. Reads are read-through (miss → fetch from base →
//! insert); writes are write-through (cache + base). Range reads cache the
//! whole object when it fits the budget, so subsequent ranges of the same
//! chunk (the shuffled-streaming access pattern, §3.5) hit memory.
//!
//! Entries live in a [`Recency`] weighted by their length, so a hit's
//! touch and each eviction are O(log n). A fill caches what it fetched
//! only if no write landed while it was fetching: its bytes may be older
//! than that write.

use std::collections::HashMap;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::plan::{ReadPlan, ReadRequest, ReadResult};
use crate::provider::{clamp_range, StorageProvider};
use crate::recency::Recency;
use crate::stats::StorageStats;
use crate::Result;

struct CacheState {
    entries: Recency<String, Bytes>,
    /// Bumped by every `put`, `delete` and `delete_prefix` once the base
    /// has it. A read-through fill remembers the value at its miss and
    /// caches nothing if it moved.
    writes: u64,
}

/// Read-through / write-through LRU cache over a base provider.
pub struct LruCacheProvider<P> {
    base: P,
    state: Mutex<CacheState>,
    capacity: u64,
    stats: StorageStats,
}

impl<P: StorageProvider> LruCacheProvider<P> {
    /// Cache up to `capacity_bytes` of objects from `base` in memory.
    pub fn new(base: P, capacity_bytes: u64) -> Self {
        LruCacheProvider {
            base,
            state: Mutex::new(CacheState {
                entries: Recency::new(),
                writes: 0,
            }),
            capacity: capacity_bytes,
            stats: StorageStats::new(),
        }
    }

    /// Cache hit/miss counters, plus bytes moved from the base on fills
    /// (`bytes_read`) and written through (`bytes_written`).
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// Fraction of lookups served from memory, in `[0, 1]` (0 when no
    /// lookups have happened yet). The single number cache sizing is
    /// tuned against.
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }

    /// Entries evicted to stay within the byte budget. Read next to
    /// [`hit_ratio`](Self::hit_ratio) when sizing: a high hit ratio with
    /// climbing evictions means the working set barely fits and the
    /// budget is doing real work; zero evictions means the budget could
    /// shrink.
    pub fn evictions(&self) -> u64 {
        self.stats.evictions()
    }

    /// The wrapped base provider.
    pub fn base(&self) -> &P {
        &self.base
    }

    /// Bytes currently cached.
    pub fn cached_bytes(&self) -> u64 {
        self.state.lock().entries.weight()
    }

    /// Number of cached objects.
    pub fn cached_objects(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// The cached object, or on a miss the write generation a fill of it
    /// must still see to be cached.
    fn lookup(&self, key: &str) -> std::result::Result<Bytes, u64> {
        let st = &mut *self.state.lock();
        st.entries.get(key).cloned().ok_or(st.writes)
    }

    /// Cache objects fetched from the base after a miss at write
    /// generation `seen`, unless a write has landed since.
    fn fill(&self, seen: u64, batch: impl IntoIterator<Item = (String, Bytes)>) {
        let st = &mut *self.state.lock();
        if st.writes == seen {
            self.admit(&mut st.entries, batch);
        }
    }

    /// Record a write the base has taken — fills in flight may hold older
    /// bytes — and bring the cache in line with it.
    fn written(&self, update: impl FnOnce(&mut Recency<String, Bytes>)) {
        let st = &mut *self.state.lock();
        st.writes += 1;
        update(&mut st.entries);
    }

    /// Insert a whole batch, then run a **single eviction pass** — instead
    /// of N insert+evict cycles, the batch lands first and LRU order is
    /// enforced once.
    fn admit(
        &self,
        entries: &mut Recency<String, Bytes>,
        batch: impl IntoIterator<Item = (String, Bytes)>,
    ) {
        for (key, data) in batch {
            let size = data.len() as u64;
            if size > self.capacity {
                // never cache objects bigger than the whole budget; the
                // key's previous value goes too, it is stale either way
                entries.remove(&key);
                continue;
            }
            entries.insert(key, data, size);
        }
        while entries.weight() > self.capacity {
            entries.pop_lru();
            self.stats.record_eviction();
        }
    }

    /// Serve one logical request out of a cached/fetched whole object.
    fn slice_of(request: &ReadRequest, data: &Bytes) -> Result<Bytes> {
        match request.range {
            None => Ok(data.clone()),
            Some((start, end)) => {
                let (s, e) = clamp_range(start, end, data.len() as u64)?;
                Ok(data.slice(s..e))
            }
        }
    }
}

impl<P: StorageProvider> StorageProvider for LruCacheProvider<P> {
    fn get(&self, key: &str) -> Result<Bytes> {
        let seen = match self.lookup(key) {
            Ok(hit) => {
                self.stats.record_hit();
                return Ok(hit);
            }
            Err(seen) => seen,
        };
        self.stats.record_miss();
        let data = self.base.get(key)?;
        self.stats.record_get(data.len() as u64);
        self.fill(seen, [(key.to_string(), data.clone())]);
        Ok(data)
    }

    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        let seen = match self.lookup(key) {
            Ok(hit) => {
                self.stats.record_hit();
                let (s, e) = clamp_range(start, end, hit.len() as u64)?;
                return Ok(hit.slice(s..e));
            }
            Err(seen) => seen,
        };
        self.stats.record_miss();
        // Fetch the whole object when it fits the budget so later ranges of
        // the same chunk hit memory; otherwise pass the range through.
        match self.base.len_of(key) {
            Ok(len) if len <= self.capacity => {
                let data = self.base.get(key)?;
                self.stats.record_get(data.len() as u64);
                self.fill(seen, [(key.to_string(), data.clone())]);
                let (s, e) = clamp_range(start, end, data.len() as u64)?;
                Ok(data.slice(s..e))
            }
            _ => {
                let data = self.base.get_range(key, start, end)?;
                self.stats.record_range(data.len() as u64);
                Ok(data)
            }
        }
    }

    /// Writes reach the base first and then always replace the cached
    /// value, so no fill that was in flight can cache bytes older than
    /// them.
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.base.put(key, value.clone())?;
        self.stats.record_put(value.len() as u64);
        self.written(|entries| self.admit(entries, [(key.to_string(), value)]));
        Ok(())
    }

    /// The cached value goes whether or not the base delete succeeded: a
    /// failed one may still have happened.
    fn delete(&self, key: &str) -> Result<()> {
        let deleted = self.base.delete(key);
        self.written(|entries| {
            entries.remove(key);
        });
        deleted
    }

    fn exists(&self, key: &str) -> Result<bool> {
        if self.lookup(key).is_ok() {
            return Ok(true);
        }
        self.base.exists(key)
    }

    fn len_of(&self, key: &str) -> Result<u64> {
        if let Ok(hit) = self.lookup(key) {
            return Ok(hit.len() as u64);
        }
        self.base.len_of(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.base.list(prefix)
    }

    fn describe(&self) -> String {
        format!("lru({} B, over {})", self.capacity, self.base.describe())
    }

    /// Batched read-through: one lock pass resolves hits, misses fill
    /// through a single base batch, then one insertion + eviction pass.
    /// Missed objects that fit the budget are fetched whole (so later
    /// ranges of the same chunks hit memory); objects larger than the
    /// whole cache keep single-key semantics — their ranges pass through
    /// untouched and nothing is cached (`get_range`'s `len_of` guard).
    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        let requests = plan.requests();
        let mut out: Vec<Option<Result<Bytes>>> = vec![None; requests.len()];
        let mut miss_keys: Vec<String> = Vec::new();
        let mut missed: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let seen = {
            let mut st = self.state.lock();
            for (i, r) in requests.iter().enumerate() {
                if let Some(data) = st.entries.get(r.key.as_str()) {
                    self.stats.record_hit();
                    out[i] = Some(Self::slice_of(r, data));
                } else {
                    self.stats.record_miss();
                    if missed.insert(r.key.as_str()) {
                        miss_keys.push(r.key.clone());
                    }
                }
            }
            st.writes
        };
        drop(missed);
        if miss_keys.is_empty() {
            self.stats.record_batch(requests.len() as u64, 0, 0);
            return ReadResult {
                results: out.into_iter().map(|s| s.expect("all hits")).collect(),
                fetches: 0,
            };
        }
        // Promote a missed key to a whole-object fetch only when the
        // object fits the budget (or a whole read was asked for anyway);
        // oversized objects get their original ranges passed through.
        // The loader's chunk plans request whole objects, so the size
        // probes below only run for range-only keys — and in parallel,
        // so they cost one metadata round trip of latency, not one per
        // key.
        let mut cacheable: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut probe_keys: Vec<&str> = Vec::new();
        for key in &miss_keys {
            if requests.iter().any(|r| r.key == *key && r.range.is_none()) {
                cacheable.insert(key.as_str());
            } else {
                probe_keys.push(key.as_str());
            }
        }
        if !probe_keys.is_empty() {
            let fits = |key: &str| match self.base.len_of(key) {
                Ok(len) => len <= self.capacity,
                Err(_) => true, // missing: let the fetch report it
            };
            let mut probe_fits: Vec<bool> = vec![false; probe_keys.len()];
            if probe_keys.len() == 1 {
                probe_fits[0] = fits(probe_keys[0]);
            } else {
                let per_worker = probe_keys.len().div_ceil(8);
                std::thread::scope(|scope| {
                    for (flags, keys) in probe_fits
                        .chunks_mut(per_worker)
                        .zip(probe_keys.chunks(per_worker))
                    {
                        let fits = &fits;
                        scope.spawn(move || {
                            for (flag, key) in flags.iter_mut().zip(keys) {
                                *flag = fits(key);
                            }
                        });
                    }
                });
            }
            for (key, fit) in probe_keys.iter().zip(probe_fits) {
                if fit {
                    cacheable.insert(key);
                }
            }
        }
        let mut base_plan = ReadPlan::with_gap_tolerance(plan.gap_tolerance());
        // positional map: which logical request each base request serves
        // (usize::MAX = a whole-object fill keyed off `fill_keys`)
        let mut passthrough_of: Vec<usize> = Vec::new();
        let mut fill_keys: Vec<&str> = Vec::new();
        for key in &miss_keys {
            if cacheable.contains(key.as_str()) {
                base_plan.whole(key.clone());
                passthrough_of.push(usize::MAX);
                fill_keys.push(key);
                continue;
            }
            for (i, r) in requests.iter().enumerate() {
                if r.key == *key && out[i].is_none() {
                    base_plan.push(r.clone());
                    passthrough_of.push(i);
                    fill_keys.push(key);
                }
            }
        }
        let base_result = self.base.execute(&base_plan);
        let mut by_key: HashMap<&str, &Result<Bytes>> = HashMap::new();
        let mut to_cache: Vec<(String, Bytes)> = Vec::new();
        let mut bytes_moved = 0u64;
        for ((result, &target), key) in base_result
            .results
            .iter()
            .zip(&passthrough_of)
            .zip(&fill_keys)
        {
            if let Ok(data) = result {
                bytes_moved += data.len() as u64;
            }
            if target == usize::MAX {
                if let Ok(data) = result {
                    to_cache.push((key.to_string(), data.clone()));
                }
                by_key.insert(*key, result);
            } else {
                out[target] = Some(result.clone());
            }
        }
        self.fill(seen, to_cache);
        for (i, r) in requests.iter().enumerate() {
            if out[i].is_none() {
                out[i] = Some(match by_key.get(r.key.as_str()) {
                    Some(Ok(data)) => Self::slice_of(r, data),
                    Some(Err(e)) => Err(e.clone()),
                    None => unreachable!("every miss key was fetched or passed through"),
                });
            }
        }
        self.stats
            .record_batch(requests.len() as u64, base_result.fetches, bytes_moved);
        ReadResult {
            results: out.into_iter().map(|s| s.expect("hit or filled")).collect(),
            fetches: base_result.fetches,
        }
    }

    /// Bulk-delete on the base (one batched call instead of a list+delete
    /// loop here), then drop every cached object under the prefix, as
    /// [`delete`](StorageProvider::delete) does.
    fn delete_prefix(&self, prefix: &str) -> Result<()> {
        let deleted = self.base.delete_prefix(prefix);
        self.written(|entries| entries.retain(|key, _| !key.starts_with(prefix)));
        deleted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryProvider;
    use crate::sim::{NetworkProfile, SimulatedCloudProvider};
    use std::sync::mpsc;

    fn slow_base() -> SimulatedCloudProvider<MemoryProvider> {
        SimulatedCloudProvider::new("s3", MemoryProvider::new(), NetworkProfile::instant())
    }

    #[test]
    fn read_through_caches() {
        let base = slow_base();
        base.inner().put("k", Bytes::from(vec![7u8; 100])).unwrap();
        let cache = LruCacheProvider::new(base, 1_000);
        cache.get("k").unwrap();
        cache.get("k").unwrap();
        cache.get("k").unwrap();
        assert_eq!(cache.stats().cache_misses(), 1);
        assert_eq!(cache.stats().cache_hits(), 2);
        // base saw exactly one request
        assert_eq!(cache.base().stats().get_requests(), 1);
    }

    #[test]
    fn eviction_respects_capacity() {
        let base = MemoryProvider::new();
        for i in 0..10 {
            base.put(&format!("k{i}"), Bytes::from(vec![0u8; 100]))
                .unwrap();
        }
        let cache = LruCacheProvider::new(base, 350);
        for i in 0..10 {
            cache.get(&format!("k{i}")).unwrap();
        }
        assert!(cache.cached_bytes() <= 350);
        assert!(cache.cached_objects() <= 3);
        // 10 fills into a 3-object budget: exactly 7 entries were evicted
        assert_eq!(cache.evictions(), 7);
    }

    #[test]
    fn lru_order_eviction() {
        let base = MemoryProvider::new();
        for k in ["a", "b", "c"] {
            base.put(k, Bytes::from(vec![0u8; 100])).unwrap();
        }
        let cache = LruCacheProvider::new(base, 250);
        cache.get("a").unwrap();
        cache.get("b").unwrap();
        cache.get("a").unwrap(); // refresh a
        cache.get("c").unwrap(); // evicts b (least recently used)
        let before = cache.stats().snapshot();
        cache.get("a").unwrap();
        cache.get("b").unwrap();
        let after = cache.stats().snapshot().delta_since(&before);
        assert_eq!((after.cache_hits, after.cache_misses), (1, 1));
    }

    #[test]
    fn hit_ratio_and_fill_bytes_surface() {
        let base = slow_base();
        base.inner().put("k", Bytes::from(vec![7u8; 100])).unwrap();
        let cache = LruCacheProvider::new(base, 1_000);
        assert_eq!(cache.hit_ratio(), 0.0);
        cache.get("k").unwrap(); // miss: fills 100 bytes from base
        cache.get("k").unwrap();
        cache.get("k").unwrap();
        cache.get("k").unwrap();
        assert!((cache.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(cache.stats().bytes_read(), 100, "hits move no base bytes");
        cache.put("w", Bytes::from(vec![1u8; 40])).unwrap();
        assert_eq!(cache.stats().bytes_written(), 40);
    }

    #[test]
    fn range_hit_after_whole_object_fetch() {
        let base = slow_base();
        base.inner()
            .put("chunk", Bytes::from((0..=255u8).collect::<Vec<_>>()))
            .unwrap();
        let cache = LruCacheProvider::new(base, 10_000);
        let r1 = cache.get_range("chunk", 0, 16).unwrap();
        assert_eq!(r1.len(), 16);
        let r2 = cache.get_range("chunk", 100, 120).unwrap();
        assert_eq!(r2[0], 100);
        // second range served from cache: base got one whole GET, no ranges
        assert_eq!(cache.base().stats().get_requests(), 1);
        assert_eq!(cache.base().stats().range_requests(), 0);
    }

    #[test]
    fn oversized_objects_bypass_cache() {
        let base = MemoryProvider::new();
        base.put("big", Bytes::from(vec![0u8; 1000])).unwrap();
        let cache = LruCacheProvider::new(base, 100);
        cache.get("big").unwrap();
        assert_eq!(cache.cached_objects(), 0);
        let r = cache.get_range("big", 10, 20).unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(cache.cached_objects(), 0);
    }

    #[test]
    fn batched_fill_hits_base_once_then_serves_from_memory() {
        use crate::plan::ReadPlan;
        let base = slow_base();
        for k in ["c0", "c1", "c2"] {
            base.inner()
                .put(k, Bytes::from((0..=255u8).collect::<Vec<_>>()))
                .unwrap();
        }
        let cache = LruCacheProvider::new(base, 1 << 20);
        // 6 logical reads over 3 missing keys → one base batch of 3 fetches
        let mut plan = ReadPlan::new();
        for k in ["c0", "c1", "c2"] {
            plan.range(k, 0, 16);
            plan.range(k, 100, 116);
        }
        let outcome = cache.execute(&plan);
        assert!(outcome.results.iter().all(|r| r.is_ok()));
        assert_eq!(outcome.results[1].as_ref().unwrap()[0], 100);
        assert_eq!(outcome.fetches, 3);
        assert_eq!(cache.stats().cache_misses(), 6);
        assert_eq!(
            cache.base().stats().round_trips(),
            1,
            "one batch to the base"
        );
        // the fill cached whole objects: a second batch is all hits
        let outcome = cache.execute(&plan);
        assert_eq!(outcome.fetches, 0);
        assert_eq!(cache.stats().cache_hits(), 6);
        assert_eq!(
            cache.base().stats().round_trips(),
            1,
            "no further base traffic"
        );
    }

    #[test]
    fn batched_fill_evicts_once_within_capacity() {
        let base = MemoryProvider::new();
        for i in 0..8 {
            base.put(&format!("k{i}"), Bytes::from(vec![i as u8; 100]))
                .unwrap();
        }
        let cache = LruCacheProvider::new(base, 350);
        let mut plan = crate::plan::ReadPlan::new();
        for i in 0..8 {
            plan.whole(format!("k{i}"));
        }
        let outcome = cache.execute(&plan);
        assert!(outcome.results.iter().all(|r| r.is_ok()));
        // single eviction pass leaves the cache within budget
        assert!(cache.cached_bytes() <= 350);
        assert!(cache.cached_objects() <= 3);
        // 8 batched fills into a 3-object budget: 5 evicted, counted
        assert_eq!(cache.evictions(), 5);
    }

    #[test]
    fn evictions_counter_tracks_budget_pressure() {
        let base = MemoryProvider::new();
        for i in 0..4 {
            base.put(&format!("k{i}"), Bytes::from(vec![0u8; 100]))
                .unwrap();
        }
        // everything fits: no evictions, only fills
        let roomy = LruCacheProvider::new(base, 1_000);
        for i in 0..4 {
            roomy.get(&format!("k{i}")).unwrap();
        }
        assert_eq!(roomy.evictions(), 0);
        assert_eq!(roomy.stats().evictions(), 0);
        // re-reading hits never evict
        for i in 0..4 {
            roomy.get(&format!("k{i}")).unwrap();
        }
        assert_eq!(roomy.evictions(), 0);
        assert_eq!(roomy.stats().cache_hits(), 4);
    }

    #[test]
    fn batched_range_of_oversized_object_passes_through() {
        // an object bigger than the whole cache must NOT be fetched whole
        // on the batched path (the single-key `len_of` guard applies)
        let base = slow_base();
        base.inner()
            .put("huge", Bytes::from(vec![7u8; 4096]))
            .unwrap();
        let cache = LruCacheProvider::new(base, 512); // budget < object
                                                      // gap tolerance 0 so the two ranges stay separate fetches
        let mut plan = crate::plan::ReadPlan::with_gap_tolerance(0);
        plan.range("huge", 0, 64);
        plan.range("huge", 100, 164);
        let outcome = cache.execute(&plan);
        assert_eq!(outcome.results[0].as_ref().unwrap().len(), 64);
        assert_eq!(outcome.results[1].as_ref().unwrap().len(), 64);
        // only the requested ranges moved, nothing was cached
        assert_eq!(cache.base().stats().bytes_read(), 128);
        assert_eq!(cache.cached_objects(), 0);
    }

    #[test]
    fn batched_missing_key_does_not_poison_batch() {
        let base = MemoryProvider::new();
        base.put("real", Bytes::from_static(b"payload")).unwrap();
        let cache = LruCacheProvider::new(base, 1 << 10);
        let mut plan = crate::plan::ReadPlan::new();
        plan.whole("real");
        plan.whole("ghost");
        let outcome = cache.execute(&plan);
        assert!(outcome.results[0].is_ok());
        assert!(outcome.results[1].is_err());
        // the miss is not cached; the hit is
        assert_eq!(cache.cached_objects(), 1);
    }

    #[test]
    fn write_through_and_delete_invalidate() {
        let base = MemoryProvider::new();
        let cache = LruCacheProvider::new(base, 1_000);
        cache.put("k", Bytes::from_static(b"v1")).unwrap();
        assert_eq!(cache.get("k").unwrap(), Bytes::from_static(b"v1"));
        assert!(cache.base().exists("k").unwrap());
        cache.delete("k").unwrap();
        assert!(!cache.exists("k").unwrap());
        assert!(cache.get("k").is_err());
    }

    #[test]
    fn put_updates_cached_value() {
        let base = MemoryProvider::new();
        let cache = LruCacheProvider::new(base, 1_000);
        cache.put("k", Bytes::from_static(b"old")).unwrap();
        cache.put("k", Bytes::from_static(b"new")).unwrap();
        assert_eq!(cache.get("k").unwrap(), Bytes::from_static(b"new"));
        assert_eq!(cache.cached_bytes(), 3);
    }

    #[test]
    fn oversized_overwrite_drops_the_stale_entry() {
        let cache = LruCacheProvider::new(MemoryProvider::new(), 100);
        cache.put("k", Bytes::from(vec![1u8; 10])).unwrap();
        cache.put("k", Bytes::from(vec![2u8; 1000])).unwrap();
        assert_eq!(cache.get("k").unwrap(), Bytes::from(vec![2u8; 1000]));
        assert_eq!(cache.cached_bytes(), 0);
    }

    /// A base whose first `get` reads its value, says so on `fetched`,
    /// and returns it only once `release` fires: a read-through fill held
    /// between its fetch and its insert.
    struct Gated {
        inner: MemoryProvider,
        gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    }

    impl StorageProvider for Gated {
        fn get(&self, key: &str) -> Result<Bytes> {
            let data = self.inner.get(key);
            let gate = self.gate.lock().take();
            if let Some((fetched, release)) = gate {
                fetched.send(()).unwrap();
                release.recv().unwrap();
            }
            data
        }
        fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
            self.inner.get_range(key, start, end)
        }
        fn put(&self, key: &str, value: Bytes) -> Result<()> {
            self.inner.put(key, value)
        }
        fn delete(&self, key: &str) -> Result<()> {
            self.inner.delete(key)
        }
        fn exists(&self, key: &str) -> Result<bool> {
            self.inner.exists(key)
        }
        fn len_of(&self, key: &str) -> Result<u64> {
            self.inner.len_of(key)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>> {
            self.inner.list(prefix)
        }
        fn describe(&self) -> String {
            "gated".into()
        }
    }

    /// Land `write` while a `get("k")` is filling `"old"` from the base,
    /// then `get("k")` again.
    fn get_after_a_racing_write(write: impl FnOnce(&LruCacheProvider<Gated>)) -> Result<Bytes> {
        let (fetched_tx, fetched) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let base = Gated {
            inner: MemoryProvider::new(),
            gate: Mutex::new(Some((fetched_tx, release_rx))),
        };
        base.inner.put("k", Bytes::from_static(b"old")).unwrap();
        let cache = LruCacheProvider::new(base, 1_000);
        std::thread::scope(|s| {
            let fill = s.spawn(|| cache.get("k"));
            fetched.recv().unwrap();
            write(&cache);
            release.send(()).unwrap();
            assert_eq!(fill.join().unwrap().unwrap(), Bytes::from_static(b"old"));
        });
        cache.get("k")
    }

    #[test]
    fn a_fill_in_flight_does_not_undo_a_put() {
        let got = get_after_a_racing_write(|c| c.put("k", Bytes::from_static(b"new")).unwrap());
        assert_eq!(got.unwrap(), Bytes::from_static(b"new"));
    }

    #[test]
    fn a_fill_in_flight_does_not_undo_a_delete() {
        assert!(get_after_a_racing_write(|c| c.delete("k").unwrap()).is_err());
    }

    #[test]
    fn exists_and_len_use_cache() {
        let base = slow_base();
        base.inner().put("k", Bytes::from(vec![0u8; 42])).unwrap();
        let cache = LruCacheProvider::new(base, 1_000);
        cache.get("k").unwrap();
        assert!(cache.exists("k").unwrap());
        assert_eq!(cache.len_of("k").unwrap(), 42);
        // neither went to base
        assert_eq!(cache.base().stats().requests(), 1);
    }
}
