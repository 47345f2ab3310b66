//! The [`StorageProvider`] trait.

use std::sync::Arc;

use bytes::Bytes;

use crate::error::StorageError;
use crate::plan::{execute_coalesced, ReadPlan, ReadRequest, ReadResult};
use crate::Result;

/// Shared handle to a provider; everything above the storage layer trades
/// in these.
pub type DynProvider = Arc<dyn StorageProvider>;

/// An object store: a flat namespace of keys to immutable-ish byte blobs.
///
/// Mirrors the subset of S3 semantics Deep Lake needs: whole-object get,
/// **byte-range get** (the enabler for streaming sub-chunk reads, §3.5),
/// put, delete, prefix listing. Implementations must be thread-safe — the
/// dataloader hits one provider from many workers concurrently.
pub trait StorageProvider: Send + Sync {
    /// Fetch a whole object.
    fn get(&self, key: &str) -> Result<Bytes>;

    /// Fetch `start..end` (end exclusive) of an object — an HTTP range
    /// request in cloud terms. `end` may exceed the object length; the
    /// range is clamped (matching S3's behaviour for over-long ranges).
    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes>;

    /// Store an object, replacing any previous value.
    fn put(&self, key: &str, value: Bytes) -> Result<()>;

    /// Delete an object. Deleting a missing key is not an error (S3
    /// semantics).
    fn delete(&self, key: &str) -> Result<()>;

    /// Whether a key exists.
    fn exists(&self, key: &str) -> Result<bool>;

    /// Byte length of an object.
    fn len_of(&self, key: &str) -> Result<u64>;

    /// All keys under a prefix, sorted.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;

    /// Human-readable provider description for diagnostics.
    fn describe(&self) -> String;

    /// [`execute`](Self::execute) spelled as a request slice: one outcome
    /// per request, in order, from a plan with no gap tolerance (only
    /// adjacent or overlapping ranges merge, so no byte outside the
    /// requests is read). A missing key or out-of-bounds range fails
    /// only its own slot. Kept for callers written before [`ReadPlan`];
    /// a provider's batched read path is `execute` — override that, not
    /// this.
    fn get_many(&self, requests: &[ReadRequest]) -> Vec<Result<Bytes>> {
        let mut plan = ReadPlan::with_gap_tolerance(0);
        for request in requests {
            plan.push(request.clone());
        }
        self.execute(&plan).results
    }

    /// Execute a [`ReadPlan`]: coalesce its requests into the minimal
    /// backend fetches, issue them, and scatter bytes back per request.
    ///
    /// The default implementation coalesces with the shared planner and
    /// issues each merged fetch through the single-key methods — so even
    /// providers that override nothing see fewer backend calls. Providers
    /// override this to parallelize ([`crate::LocalProvider`]), amortize
    /// latency ([`crate::SimulatedCloudProvider`]), or batch cache fills
    /// ([`crate::LruCacheProvider`]).
    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        execute_coalesced(plan, |f| match f.range {
            None => self.get(f.key),
            Some((start, end)) => self.get_range(f.key, start, end),
        })
    }

    /// Remove every key under a prefix: one `list`, then deletes.
    ///
    /// Contract (all providers): keys that vanish concurrently are not an
    /// error (delete of a missing key is a no-op, S3 semantics); on an I/O
    /// failure the prefix may be partially deleted — callers needing
    /// atomicity must arrange it above this API. Providers with a cheaper
    /// bulk path (single lock pass, amortized latency) override this.
    fn delete_prefix(&self, prefix: &str) -> Result<()> {
        for key in self.list(prefix)? {
            self.delete(&key)?;
        }
        Ok(())
    }
}

/// Clamp a requested range against an object length, erroring only when the
/// start is past the end of the object.
pub(crate) fn clamp_range(start: u64, end: u64, len: u64) -> Result<(usize, usize)> {
    if start > len || start > end {
        return Err(StorageError::RangeOutOfBounds { start, end, len });
    }
    Ok((start as usize, end.min(len) as usize))
}

impl<P: StorageProvider + ?Sized> StorageProvider for Arc<P> {
    fn get(&self, key: &str) -> Result<Bytes> {
        (**self).get(key)
    }
    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        (**self).get_range(key, start, end)
    }
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        (**self).put(key, value)
    }
    fn delete(&self, key: &str) -> Result<()> {
        (**self).delete(key)
    }
    fn exists(&self, key: &str) -> Result<bool> {
        (**self).exists(key)
    }
    fn len_of(&self, key: &str) -> Result<u64> {
        (**self).len_of(key)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        (**self).list(prefix)
    }
    fn describe(&self) -> String {
        (**self).describe()
    }
    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        (**self).execute(plan)
    }
    fn delete_prefix(&self, prefix: &str) -> Result<()> {
        (**self).delete_prefix(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_range_basic() {
        assert_eq!(clamp_range(0, 10, 100).unwrap(), (0, 10));
        assert_eq!(clamp_range(90, 200, 100).unwrap(), (90, 100));
        assert!(clamp_range(101, 110, 100).is_err());
        assert!(clamp_range(10, 5, 100).is_err());
        assert_eq!(clamp_range(100, 100, 100).unwrap(), (100, 100));
    }
}
