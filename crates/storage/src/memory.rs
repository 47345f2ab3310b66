//! In-memory storage provider.

use std::collections::BTreeMap;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::error::StorageError;
use crate::plan::{execute_coalesced, ReadPlan, ReadResult};
use crate::provider::{clamp_range, StorageProvider};
use crate::stats::StorageStats;
use crate::Result;

/// The simplest provider: a thread-safe ordered map. Also serves as the
/// backing store of [`crate::SimulatedCloudProvider`] and the cache tier of
/// [`crate::LruCacheProvider`].
#[derive(Default)]
pub struct MemoryProvider {
    objects: RwLock<BTreeMap<String, Bytes>>,
    stats: StorageStats,
}

impl MemoryProvider {
    /// Create an empty provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.read().len()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.objects.read().values().map(|v| v.len() as u64).sum()
    }

    /// Traffic counters (successful reads/writes; errors are not counted).
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }
}

impl StorageProvider for MemoryProvider {
    fn get(&self, key: &str) -> Result<Bytes> {
        let data = self
            .objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(key.to_string()))?;
        self.stats.record_get(data.len() as u64);
        Ok(data)
    }

    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        let guard = self.objects.read();
        let obj = guard
            .get(key)
            .ok_or_else(|| StorageError::NotFound(key.to_string()))?;
        let (s, e) = clamp_range(start, end, obj.len() as u64)?;
        let data = obj.slice(s..e);
        self.stats.record_range(data.len() as u64);
        Ok(data)
    }

    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.stats.record_put(value.len() as u64);
        self.objects.write().insert(key.to_string(), value);
        Ok(())
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.objects.write().remove(key);
        Ok(())
    }

    fn exists(&self, key: &str) -> Result<bool> {
        Ok(self.objects.read().contains_key(key))
    }

    fn len_of(&self, key: &str) -> Result<u64> {
        self.objects
            .read()
            .get(key)
            .map(|v| v.len() as u64)
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        Ok(self
            .objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn describe(&self) -> String {
        format!("memory({} objects)", self.object_count())
    }

    /// The whole plan is served under a single read lock; coalescing
    /// costs nothing here (slices share the stored buffer) and keeps the
    /// reported fetch count consistent with the other providers.
    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        let mut bytes_moved = 0u64;
        let result = {
            let guard = self.objects.read();
            execute_coalesced(plan, |f| {
                let obj = guard
                    .get(f.key)
                    .ok_or_else(|| StorageError::NotFound(f.key.to_string()))?;
                let data = match f.range {
                    None => obj.clone(),
                    Some((start, end)) => {
                        let (s, e) = clamp_range(start, end, obj.len() as u64)?;
                        obj.slice(s..e)
                    }
                };
                bytes_moved += data.len() as u64;
                Ok(data)
            })
        };
        self.stats
            .record_batch(plan.len() as u64, result.fetches, bytes_moved);
        result
    }

    /// One write-lock pass removes the whole subtree.
    fn delete_prefix(&self, prefix: &str) -> Result<()> {
        let mut removed = 0u64;
        self.objects.write().retain(|k, _| {
            let doomed = k.starts_with(prefix);
            removed += doomed as u64;
            !doomed
        });
        self.stats.record_delete_prefix(removed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let p = MemoryProvider::new();
        p.put("a/b", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(p.get("a/b").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(p.len_of("a/b").unwrap(), 5);
        assert!(p.exists("a/b").unwrap());
        assert!(!p.exists("a/c").unwrap());
    }

    #[test]
    fn get_missing_is_not_found() {
        let p = MemoryProvider::new();
        assert!(matches!(p.get("nope"), Err(StorageError::NotFound(_))));
        assert!(matches!(p.len_of("nope"), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn range_reads() {
        let p = MemoryProvider::new();
        p.put("k", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(p.get_range("k", 2, 5).unwrap(), Bytes::from_static(b"234"));
        // over-long end is clamped, S3 style
        assert_eq!(p.get_range("k", 8, 100).unwrap(), Bytes::from_static(b"89"));
        assert!(p.get_range("k", 11, 12).is_err());
    }

    #[test]
    fn delete_is_idempotent() {
        let p = MemoryProvider::new();
        p.put("k", Bytes::from_static(b"x")).unwrap();
        p.delete("k").unwrap();
        p.delete("k").unwrap();
        assert!(!p.exists("k").unwrap());
    }

    #[test]
    fn list_by_prefix_sorted() {
        let p = MemoryProvider::new();
        for k in ["t/c2", "t/c1", "u/x", "t/c10"] {
            p.put(k, Bytes::new()).unwrap();
        }
        assert_eq!(p.list("t/").unwrap(), vec!["t/c1", "t/c10", "t/c2"]);
        assert_eq!(p.list("").unwrap().len(), 4);
        assert!(p.list("zz/").unwrap().is_empty());
    }

    #[test]
    fn delete_prefix_removes_subtree() {
        let p = MemoryProvider::new();
        for k in ["a/1", "a/2", "b/1"] {
            p.put(k, Bytes::new()).unwrap();
        }
        p.delete_prefix("a/").unwrap();
        assert_eq!(p.list("").unwrap(), vec!["b/1"]);
    }

    #[test]
    fn counters() {
        let p = MemoryProvider::new();
        p.put("x", Bytes::from(vec![0u8; 10])).unwrap();
        p.put("y", Bytes::from(vec![0u8; 20])).unwrap();
        assert_eq!(p.object_count(), 2);
        assert_eq!(p.total_bytes(), 30);
    }

    #[test]
    fn stats_count_traffic() {
        let p = MemoryProvider::new();
        p.put("k", Bytes::from(vec![0u8; 100])).unwrap();
        assert_eq!(p.stats().bytes_written(), 100);
        p.get("k").unwrap();
        p.get_range("k", 0, 40).unwrap();
        assert_eq!(p.stats().bytes_read(), 140);
        assert_eq!(p.stats().requests(), 2);
        let mut plan = ReadPlan::new();
        plan.whole("k");
        p.execute(&plan);
        assert_eq!(p.stats().bytes_read(), 240);
        assert_eq!(p.stats().batch_requests(), 1);
        // a failed read moves (and counts) nothing
        assert!(p.get("missing").is_err());
        assert_eq!(p.stats().bytes_read(), 240);
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let p = Arc::new(MemoryProvider::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let key = format!("t{t}/k{i}");
                    p.put(&key, Bytes::from(vec![t as u8; 64])).unwrap();
                    assert_eq!(p.get(&key).unwrap().len(), 64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.object_count(), 800);
    }
}
