//! Key-prefix scoping.
//!
//! Datasets, version sub-directories (§4.2: "different versions of the
//! dataset exist in the same storage, separated by sub-directories") and
//! per-tensor folders are all expressed as prefixes of one underlying
//! provider. [`PrefixProvider`] rebases every key under a fixed prefix so
//! higher layers can work with local names — *including inside errors*: a
//! [`StorageError::NotFound`] surfacing through a scoped provider names
//! the key the caller asked for, not the absolute key, so errors
//! round-trip identically whether the provider is scoped, remote, or
//! bare (the loader and the remote error frames rely on this).

use std::sync::Arc;

use bytes::Bytes;

use crate::error::StorageError;
use crate::plan::{ReadPlan, ReadRequest, ReadResult};
use crate::provider::{DynProvider, StorageProvider};
use crate::stats::StorageStats;
use crate::Result;

/// A view of a provider rooted at `prefix`.
#[derive(Clone)]
pub struct PrefixProvider {
    inner: DynProvider,
    prefix: String,
    stats: Arc<StorageStats>,
}

impl PrefixProvider {
    /// Scope `inner` under `prefix` (a trailing `/` is appended if absent
    /// and the prefix is non-empty).
    pub fn new(inner: DynProvider, prefix: impl Into<String>) -> Self {
        let mut prefix = prefix.into();
        if !prefix.is_empty() && !prefix.ends_with('/') {
            prefix.push('/');
        }
        PrefixProvider {
            inner,
            prefix,
            stats: Arc::new(StorageStats::new()),
        }
    }

    /// Nest a further prefix under this one.
    pub fn child(&self, sub: &str) -> PrefixProvider {
        PrefixProvider::new(self.inner.clone(), format!("{}{}", self.prefix, sub))
    }

    /// The absolute key this provider maps a local key to.
    pub fn absolute(&self, key: &str) -> String {
        format!("{}{}", self.prefix, key)
    }

    /// The underlying unscoped provider.
    pub fn unscoped(&self) -> DynProvider {
        self.inner.clone()
    }

    /// This provider's prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Traffic through *this scope* (clones share the counters). The
    /// per-dataset / per-tensor slice of the underlying provider's total.
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// Rebase an error's absolute key back to the scoped name the caller
    /// used, so scoped errors match what an unscoped provider rooted here
    /// would have reported.
    fn rebase_err(&self, e: StorageError) -> StorageError {
        match e {
            StorageError::NotFound(abs) => match abs.strip_prefix(&self.prefix) {
                Some(local) => StorageError::NotFound(local.to_string()),
                None => StorageError::NotFound(abs),
            },
            other => other,
        }
    }
}

impl From<DynProvider> for PrefixProvider {
    fn from(inner: DynProvider) -> Self {
        PrefixProvider::new(inner, "")
    }
}

impl From<crate::MemoryProvider> for PrefixProvider {
    fn from(p: crate::MemoryProvider) -> Self {
        PrefixProvider::new(Arc::new(p), "")
    }
}

impl StorageProvider for PrefixProvider {
    fn get(&self, key: &str) -> Result<Bytes> {
        let data = self
            .inner
            .get(&self.absolute(key))
            .map_err(|e| self.rebase_err(e))?;
        self.stats.record_get(data.len() as u64);
        Ok(data)
    }
    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        let data = self
            .inner
            .get_range(&self.absolute(key), start, end)
            .map_err(|e| self.rebase_err(e))?;
        self.stats.record_range(data.len() as u64);
        Ok(data)
    }
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.stats.record_put(value.len() as u64);
        self.inner
            .put(&self.absolute(key), value)
            .map_err(|e| self.rebase_err(e))
    }
    fn delete(&self, key: &str) -> Result<()> {
        self.inner
            .delete(&self.absolute(key))
            .map_err(|e| self.rebase_err(e))
    }
    fn exists(&self, key: &str) -> Result<bool> {
        self.inner
            .exists(&self.absolute(key))
            .map_err(|e| self.rebase_err(e))
    }
    fn len_of(&self, key: &str) -> Result<u64> {
        self.inner
            .len_of(&self.absolute(key))
            .map_err(|e| self.rebase_err(e))
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let abs = self.absolute(prefix);
        Ok(self
            .inner
            .list(&abs)
            .map_err(|e| self.rebase_err(e))?
            .into_iter()
            .filter_map(|k| k.strip_prefix(&self.prefix).map(str::to_string))
            .collect())
    }
    fn describe(&self) -> String {
        format!("prefix({:?}, over {})", self.prefix, self.inner.describe())
    }
    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        // results are positional, so only the keys need rebasing
        let mut rebased = ReadPlan::with_gap_tolerance(plan.gap_tolerance());
        for r in plan.requests() {
            rebased.push(ReadRequest {
                key: self.absolute(&r.key),
                range: r.range,
            });
        }
        let outcome = self.inner.execute(&rebased);
        let mut bytes_moved = 0u64;
        let results: Vec<Result<Bytes>> = outcome
            .results
            .into_iter()
            .map(|r| match r {
                Ok(data) => {
                    bytes_moved += data.len() as u64;
                    Ok(data)
                }
                Err(e) => Err(self.rebase_err(e)),
            })
            .collect();
        self.stats
            .record_batch(plan.len() as u64, outcome.fetches, bytes_moved);
        ReadResult {
            results,
            fetches: outcome.fetches,
        }
    }
    fn delete_prefix(&self, prefix: &str) -> Result<()> {
        self.inner
            .delete_prefix(&self.absolute(prefix))
            .map_err(|e| self.rebase_err(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryProvider;

    fn scoped() -> (Arc<MemoryProvider>, PrefixProvider) {
        let base = Arc::new(MemoryProvider::new());
        let p = PrefixProvider::new(base.clone(), "ds1");
        (base, p)
    }

    #[test]
    fn keys_are_rebased() {
        let (base, p) = scoped();
        p.put("tensor/chunk0", Bytes::from_static(b"x")).unwrap();
        assert!(base.exists("ds1/tensor/chunk0").unwrap());
        assert_eq!(p.get("tensor/chunk0").unwrap(), Bytes::from_static(b"x"));
    }

    #[test]
    fn list_strips_prefix() {
        let (base, p) = scoped();
        p.put("a/1", Bytes::new()).unwrap();
        p.put("a/2", Bytes::new()).unwrap();
        base.put("other/3", Bytes::new()).unwrap();
        assert_eq!(p.list("a/").unwrap(), vec!["a/1", "a/2"]);
        assert_eq!(p.list("").unwrap(), vec!["a/1", "a/2"]);
    }

    #[test]
    fn child_nests() {
        let (base, p) = scoped();
        let c = p.child("versions/v2");
        c.put("chunk", Bytes::from_static(b"y")).unwrap();
        assert!(base.exists("ds1/versions/v2/chunk").unwrap());
        assert_eq!(c.absolute("chunk"), "ds1/versions/v2/chunk");
    }

    #[test]
    fn empty_prefix_is_identity() {
        let base = Arc::new(MemoryProvider::new());
        let p = PrefixProvider::new(base.clone(), "");
        p.put("k", Bytes::from_static(b"v")).unwrap();
        assert!(base.exists("k").unwrap());
    }

    #[test]
    fn range_and_len_pass_through() {
        let (_, p) = scoped();
        p.put("k", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(p.get_range("k", 1, 3).unwrap(), Bytes::from_static(b"12"));
        assert_eq!(p.len_of("k").unwrap(), 10);
        p.delete("k").unwrap();
        assert!(!p.exists("k").unwrap());
    }

    #[test]
    fn errors_report_scoped_keys() {
        let (_, p) = scoped();
        // the caller asked for "gone", not "ds1/gone"
        assert_eq!(
            p.get("gone").unwrap_err(),
            StorageError::NotFound("gone".into())
        );
        assert_eq!(
            p.get_range("gone", 0, 4).unwrap_err(),
            StorageError::NotFound("gone".into())
        );
        assert_eq!(
            p.len_of("gone").unwrap_err(),
            StorageError::NotFound("gone".into())
        );
        // batched paths agree
        let mut plan = ReadPlan::new();
        plan.whole("gone");
        let outcome = p.execute(&plan);
        assert_eq!(
            outcome.results[0].clone().unwrap_err(),
            StorageError::NotFound("gone".into())
        );
        let many = p.get_many(&[ReadRequest::whole("gone")]);
        assert_eq!(
            many[0].clone().unwrap_err(),
            StorageError::NotFound("gone".into())
        );
    }

    #[test]
    fn scoped_stats_count_scoped_traffic() {
        let (base, p) = scoped();
        p.put("k", Bytes::from(vec![0u8; 10])).unwrap();
        p.get("k").unwrap();
        assert_eq!(p.stats().bytes_written(), 10);
        assert_eq!(p.stats().bytes_read(), 10);
        // clones share the counters (same scope, same accounting)
        let q = p.clone();
        q.get("k").unwrap();
        assert_eq!(p.stats().bytes_read(), 20);
        // the base saw the same traffic under absolute keys
        assert_eq!(base.stats().bytes_read(), 20);
    }
}
