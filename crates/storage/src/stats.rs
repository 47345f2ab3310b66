//! Request/byte accounting shared by the simulated cloud and the cache.
//!
//! Since the observability PR the counters are [`deeplake_obs::Counter`]
//! handles, so a stats bag can attach itself to a live
//! [`MetricsRegistry`] ([`StorageStats::register_into`]) and show up in
//! a hub's `Metrics` snapshot without the recording paths changing. The
//! method surface is unchanged from the plain-atomics version.
//!
//! Reading a consistent set of values goes through
//! [`StorageStats::snapshot`], an explicit value type. The counters
//! only ever grow: to measure an interval, diff two snapshots
//! ([`StorageStatsSnapshot::delta_since`]) — there is no reset, so two
//! holders of one bag can never clobber each other's baseline.

use deeplake_obs::{Counter, MetricsRegistry};

/// Cumulative storage traffic counters. All methods are lock-free; snapshot
/// reads are eventually consistent, which is fine for benchmarking.
#[derive(Debug, Default)]
pub struct StorageStats {
    get_requests: Counter,
    range_requests: Counter,
    put_requests: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    evictions: Counter,
    batch_requests: Counter,
    logical_reads: Counter,
    coalesced_fetches: Counter,
    round_trips: Counter,
    delete_requests: Counter,
}

/// One frozen reading of a [`StorageStats`] bag: plain values, so two
/// snapshots diff cleanly ([`StorageStatsSnapshot::delta_since`]) and no
/// caller needs to reset shared counters to measure an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStatsSnapshot {
    /// Whole-object GETs.
    pub get_requests: u64,
    /// Range GETs.
    pub range_requests: u64,
    /// PUTs.
    pub put_requests: u64,
    /// Bytes fetched.
    pub bytes_read: u64,
    /// Bytes stored.
    pub bytes_written: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Entries evicted to stay within a byte budget.
    pub evictions: u64,
    /// Executed batches.
    pub batch_requests: u64,
    /// Logical read requests: single-key gets plus batch members.
    pub logical_reads: u64,
    /// Backend fetches issued on behalf of batches (after coalescing).
    pub coalesced_fetches: u64,
    /// Latency-bearing round trips.
    pub round_trips: u64,
    /// Keys removed through batched prefix deletion.
    pub delete_requests: u64,
}

impl StorageStatsSnapshot {
    /// Total GET requests (whole + range).
    pub fn requests(&self) -> u64 {
        self.get_requests + self.range_requests
    }

    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let (h, m) = (self.cache_hits as f64, self.cache_misses as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Counter growth since an `earlier` snapshot of the same bag
    /// (saturating, so snapshots passed in the wrong order yield 0
    /// rather than wrapping).
    pub fn delta_since(&self, earlier: &StorageStatsSnapshot) -> StorageStatsSnapshot {
        StorageStatsSnapshot {
            get_requests: self.get_requests.saturating_sub(earlier.get_requests),
            range_requests: self.range_requests.saturating_sub(earlier.range_requests),
            put_requests: self.put_requests.saturating_sub(earlier.put_requests),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            batch_requests: self.batch_requests.saturating_sub(earlier.batch_requests),
            logical_reads: self.logical_reads.saturating_sub(earlier.logical_reads),
            coalesced_fetches: self
                .coalesced_fetches
                .saturating_sub(earlier.coalesced_fetches),
            round_trips: self.round_trips.saturating_sub(earlier.round_trips),
            delete_requests: self.delete_requests.saturating_sub(earlier.delete_requests),
        }
    }
}

impl StorageStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freeze every counter into a plain value snapshot.
    pub fn snapshot(&self) -> StorageStatsSnapshot {
        StorageStatsSnapshot {
            get_requests: self.get_requests.get(),
            range_requests: self.range_requests.get(),
            put_requests: self.put_requests.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            evictions: self.evictions.get(),
            batch_requests: self.batch_requests.get(),
            logical_reads: self.logical_reads.get(),
            coalesced_fetches: self.coalesced_fetches.get(),
            round_trips: self.round_trips.get(),
            delete_requests: self.delete_requests.get(),
        }
    }

    /// Attach every counter to `registry` under `<prefix>.<name>` —
    /// the live handles, not copies, so future traffic shows up in the
    /// registry's snapshots with zero extra recording cost.
    pub fn register_into(&self, registry: &MetricsRegistry, prefix: &str) {
        let name = |n: &str| format!("{prefix}.{n}");
        registry.register_counter(&name("get_requests"), &self.get_requests);
        registry.register_counter(&name("range_requests"), &self.range_requests);
        registry.register_counter(&name("put_requests"), &self.put_requests);
        registry.register_counter(&name("bytes_read"), &self.bytes_read);
        registry.register_counter(&name("bytes_written"), &self.bytes_written);
        registry.register_counter(&name("cache_hits"), &self.cache_hits);
        registry.register_counter(&name("cache_misses"), &self.cache_misses);
        registry.register_counter(&name("evictions"), &self.evictions);
        registry.register_counter(&name("batch_requests"), &self.batch_requests);
        registry.register_counter(&name("logical_reads"), &self.logical_reads);
        registry.register_counter(&name("coalesced_fetches"), &self.coalesced_fetches);
        registry.register_counter(&name("round_trips"), &self.round_trips);
        registry.register_counter(&name("delete_requests"), &self.delete_requests);
    }

    /// Record a whole-object GET of `bytes`.
    pub fn record_get(&self, bytes: u64) {
        self.get_requests.inc();
        self.bytes_read.add(bytes);
        self.logical_reads.inc();
        self.round_trips.inc();
    }

    /// Record a range GET of `bytes`.
    pub fn record_range(&self, bytes: u64) {
        self.range_requests.inc();
        self.bytes_read.add(bytes);
        self.logical_reads.inc();
        self.round_trips.inc();
    }

    /// Record one executed batch: `logical` requests served by `fetches`
    /// coalesced backend fetches moving `bytes` in total, paying a single
    /// amortized round trip. A batch that issued no backend fetch at all
    /// (fully cache-served or empty) pays no round trip.
    pub fn record_batch(&self, logical: u64, fetches: u64, bytes: u64) {
        self.batch_requests.inc();
        self.logical_reads.add(logical);
        self.coalesced_fetches.add(fetches);
        if fetches > 0 {
            self.round_trips.inc();
        }
        self.bytes_read.add(bytes);
    }

    /// Record a batched prefix deletion of `keys` keys (one round trip).
    pub fn record_delete_prefix(&self, keys: u64) {
        self.delete_requests.add(keys);
        self.round_trips.inc();
    }

    /// Record one request/response round trip over a wire transport:
    /// `sent` request bytes written, `received` response bytes read. Used
    /// by remote storage clients and servers, where every frame exchange
    /// is exactly one network round trip regardless of how many logical
    /// reads it carried.
    pub fn record_wire(&self, sent: u64, received: u64) {
        self.round_trips.inc();
        self.bytes_written.add(sent);
        self.bytes_read.add(received);
    }

    /// Record a PUT of `bytes`.
    pub fn record_put(&self, bytes: u64) {
        self.put_requests.inc();
        self.bytes_written.add(bytes);
    }

    /// Record a cache hit.
    pub fn record_hit(&self) {
        self.cache_hits.inc();
    }

    /// Record a cache miss.
    pub fn record_miss(&self) {
        self.cache_misses.inc();
    }

    /// Record one evicted cache entry. Byte-budgeted caches (the LRU
    /// storage tier, the hub's query-result cache) bump this once per
    /// entry dropped to stay within budget — the counter that shows a
    /// cache is *churning*, which hit ratio alone cannot.
    pub fn record_eviction(&self) {
        self.evictions.inc();
    }

    /// Total GET requests (whole + range).
    pub fn requests(&self) -> u64 {
        self.get_requests.get() + self.range_requests.get()
    }

    /// Whole-object GETs.
    pub fn get_requests(&self) -> u64 {
        self.get_requests.get()
    }

    /// Range GETs.
    pub fn range_requests(&self) -> u64 {
        self.range_requests.get()
    }

    /// PUTs.
    pub fn put_requests(&self) -> u64 {
        self.put_requests.get()
    }

    /// Bytes fetched.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    /// Bytes stored.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.get()
    }

    /// Cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    /// Cache misses.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.get()
    }

    /// Entries evicted to stay within a byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Executed batches ([`crate::StorageProvider::execute`] calls).
    pub fn batch_requests(&self) -> u64 {
        self.batch_requests.get()
    }

    /// Logical read requests: single-key gets plus batch members.
    pub fn logical_reads(&self) -> u64 {
        self.logical_reads.get()
    }

    /// Backend fetches issued on behalf of batches (after coalescing).
    pub fn coalesced_fetches(&self) -> u64 {
        self.coalesced_fetches.get()
    }

    /// Latency-bearing round trips: one per single-key read, one per
    /// batch, one per batched prefix delete. The headline number the
    /// batched API drives down — compare against
    /// [`logical_reads`](Self::logical_reads).
    pub fn round_trips(&self) -> u64 {
        self.round_trips.get()
    }

    /// Keys removed through batched prefix deletion.
    pub fn delete_requests(&self) -> u64 {
        self.delete_requests.get()
    }

    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        self.snapshot().hit_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let s = StorageStats::new();
        s.record_get(100);
        s.record_range(50);
        s.record_put(10);
        assert_eq!(s.requests(), 2);
        assert_eq!(s.bytes_read(), 150);
        assert_eq!(s.bytes_written(), 10);
    }

    #[test]
    fn batch_accounting() {
        let s = StorageStats::new();
        s.record_get(10); // one single-key read
        s.record_batch(8, 2, 100); // 8 logical reads via 2 coalesced fetches
        assert_eq!(s.logical_reads(), 9);
        assert_eq!(s.round_trips(), 2);
        assert_eq!(s.batch_requests(), 1);
        assert_eq!(s.coalesced_fetches(), 2);
        assert_eq!(s.bytes_read(), 110);
        s.record_delete_prefix(5);
        assert_eq!(s.delete_requests(), 5);
        assert_eq!(s.round_trips(), 3);
        // an all-hit or empty batch pays no round trip
        s.record_batch(4, 0, 0);
        assert_eq!(s.round_trips(), 3);
        assert_eq!(s.batch_requests(), 2);
    }

    #[test]
    fn wire_accounting() {
        let s = StorageStats::new();
        s.record_wire(100, 4000);
        s.record_wire(50, 10);
        assert_eq!(s.round_trips(), 2);
        assert_eq!(s.bytes_written(), 150);
        assert_eq!(s.bytes_read(), 4010);
        assert_eq!(s.requests(), 0, "wire frames are not single-key GETs");
    }

    #[test]
    fn hit_ratio() {
        let s = StorageStats::new();
        assert_eq!(s.hit_ratio(), 0.0);
        s.record_hit();
        s.record_hit();
        s.record_miss();
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_deltas_replace_double_reset() {
        // two measurement phases over the same shared bag, neither
        // resetting: each diffs its own pair of snapshots
        let s = StorageStats::new();
        s.record_get(100);
        let phase1_start = s.snapshot();
        s.record_get(50);
        s.record_put(7);
        let phase1 = s.snapshot().delta_since(&phase1_start);
        assert_eq!(phase1.get_requests, 1);
        assert_eq!(phase1.bytes_read, 50);
        assert_eq!(phase1.put_requests, 1);
        // the cumulative view is untouched
        assert_eq!(s.requests(), 2);
        assert_eq!(s.snapshot().requests(), 2);
    }

    #[test]
    fn register_into_exposes_live_counters() {
        let reg = deeplake_obs::MetricsRegistry::new();
        let s = StorageStats::new();
        s.register_into(&reg, "storage");
        s.record_get(64);
        s.record_hit();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("storage.get_requests"), Some(1));
        assert_eq!(snap.counter("storage.bytes_read"), Some(64));
        assert_eq!(snap.counter("storage.cache_hits"), Some(1));
    }
}
