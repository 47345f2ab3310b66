//! Local filesystem storage provider.

use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::error::StorageError;
use crate::plan::{CoalescedFetch, ReadPlan, ReadResult};
use crate::provider::StorageProvider;
use crate::stats::StorageStats;
use crate::Result;

/// Fan-out width for batched reads: one thread per in-flight fetch, like
/// a dataloader worker's HTTP connection pool.
const READ_PARALLELISM: usize = 8;

/// A provider rooted at a directory on a POSIX filesystem. Keys map to
/// relative paths; intermediate directories are created on write.
pub struct LocalProvider {
    root: PathBuf,
    stats: StorageStats,
}

impl LocalProvider {
    /// Open (creating if needed) a provider rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(LocalProvider {
            root,
            stats: StorageStats::new(),
        })
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Traffic counters (successful reads/writes; errors are not counted).
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    fn path_of(&self, key: &str) -> PathBuf {
        // Reject path traversal: keys are logical names, not paths.
        let sanitized: PathBuf = key
            .split('/')
            .filter(|seg| !seg.is_empty() && *seg != "." && *seg != "..")
            .collect();
        self.root.join(sanitized)
    }

    /// Serve one coalesced fetch: open the file once, read the span.
    /// Unrecorded — the batched path accounts once per batch.
    fn read_fetch(&self, fetch: &CoalescedFetch) -> Result<Bytes> {
        match fetch.range {
            None => self.get_raw(fetch.key),
            Some((start, end)) => self.get_range_raw(fetch.key, start, end),
        }
    }

    fn get_raw(&self, key: &str) -> Result<Bytes> {
        match fs::read(self.path_of(key)) {
            Ok(data) => Ok(Bytes::from(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StorageError::NotFound(key.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn get_range_raw(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        let path = self.path_of(key);
        let mut file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StorageError::NotFound(key.to_string()))
            }
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata()?.len();
        if start > len || start > end {
            return Err(StorageError::RangeOutOfBounds { start, end, len });
        }
        let end = end.min(len);
        file.seek(SeekFrom::Start(start))?;
        let mut buf = vec![0u8; (end - start) as usize];
        file.read_exact(&mut buf)?;
        Ok(Bytes::from(buf))
    }
}

impl StorageProvider for LocalProvider {
    fn get(&self, key: &str) -> Result<Bytes> {
        let data = self.get_raw(key)?;
        self.stats.record_get(data.len() as u64);
        Ok(data)
    }

    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        let data = self.get_range_raw(key, start, end)?;
        self.stats.record_range(data.len() as u64);
        Ok(data)
    }

    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        let path = self.path_of(key);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, &value)?;
        self.stats.record_put(value.len() as u64);
        Ok(())
    }

    fn delete(&self, key: &str) -> Result<()> {
        match fs::remove_file(self.path_of(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn exists(&self, key: &str) -> Result<bool> {
        Ok(self.path_of(key).is_file())
    }

    fn len_of(&self, key: &str) -> Result<u64> {
        match fs::metadata(self.path_of(key)) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StorageError::NotFound(key.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let mut keys = Vec::new();
        collect_files(&self.root, &self.root, &mut keys)?;
        keys.retain(|k| k.starts_with(prefix));
        keys.sort();
        Ok(keys)
    }

    fn describe(&self) -> String {
        format!("local({})", self.root.display())
    }

    /// Coalesce, then fan the merged fetches out over scoped threads —
    /// seek-heavy batches overlap their syscalls the way loader workers
    /// overlap range requests against a remote store.
    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        let fetches = plan.coalesce();
        let n_fetches = fetches.len();
        let mut fetched: Vec<Option<Result<Bytes>>> = Vec::new();
        fetched.resize_with(n_fetches, || None);
        if n_fetches <= 1 {
            for (slot, fetch) in fetched.iter_mut().zip(&fetches) {
                *slot = Some(self.read_fetch(fetch));
            }
        } else {
            let workers = READ_PARALLELISM.min(n_fetches);
            let per_worker = n_fetches.div_ceil(workers);
            std::thread::scope(|scope| {
                for (slot_chunk, fetch_chunk) in fetched
                    .chunks_mut(per_worker)
                    .zip(fetches.chunks(per_worker))
                {
                    scope.spawn(move || {
                        for (slot, fetch) in slot_chunk.iter_mut().zip(fetch_chunk) {
                            *slot = Some(self.read_fetch(fetch));
                        }
                    });
                }
            });
        }
        let mut out: Vec<Option<Result<Bytes>>> = vec![None; plan.len()];
        let mut bytes_moved = 0u64;
        for (fetch, result) in fetches.iter().zip(fetched) {
            let result = result.expect("every fetch ran");
            if let Ok(data) = &result {
                bytes_moved += data.len() as u64;
            }
            fetch.distribute(result, &mut out);
        }
        self.stats
            .record_batch(plan.len() as u64, n_fetches as u64, bytes_moved);
        ReadResult {
            results: out
                .into_iter()
                .map(|slot| slot.expect("plan covered"))
                .collect(),
            fetches: n_fetches as u64,
        }
    }

    /// Remove the subtree in one filesystem walk instead of per-key
    /// stat+unlink round trips.
    fn delete_prefix(&self, prefix: &str) -> Result<()> {
        // Directory-aligned prefixes (the common case: `versions/v3/`)
        // map to one recursive directory removal — but only when the
        // string prefix and its sanitized path agree. A prefix like
        // `a//` or `a/../` matches no keys under string semantics, and
        // `path_of`'s segment filtering must not silently widen it into
        // a whole-directory delete.
        let trimmed = prefix.trim_end_matches('/');
        let dir_aligned = !trimmed.is_empty()
            && prefix.len() == trimmed.len() + 1 // exactly one trailing '/'
            && trimmed
                .split('/')
                .all(|seg| !seg.is_empty() && seg != "." && seg != "..");
        if dir_aligned {
            let as_dir = self.path_of(trimmed);
            if as_dir.is_dir() && as_dir != self.root {
                return match fs::remove_dir_all(&as_dir) {
                    Ok(()) => Ok(()),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                    Err(e) => Err(e.into()),
                };
            }
        }
        for key in self.list(prefix)? {
            self.delete(&key)?;
        }
        Ok(())
    }
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_files(root, &path, out)?;
        } else if let Ok(rel) = path.strip_prefix(root) {
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "deeplake-storage-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_with_nested_keys() {
        let p = LocalProvider::new(tmp()).unwrap();
        p.put("ds/tensors/images/chunks/c0", Bytes::from_static(b"data"))
            .unwrap();
        assert_eq!(
            p.get("ds/tensors/images/chunks/c0").unwrap(),
            Bytes::from_static(b"data")
        );
        assert_eq!(
            p.list("ds/tensors/").unwrap(),
            vec!["ds/tensors/images/chunks/c0"]
        );
        fs::remove_dir_all(p.root()).unwrap();
    }

    #[test]
    fn range_reads_seek() {
        let p = LocalProvider::new(tmp()).unwrap();
        p.put("k", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(p.get_range("k", 3, 7).unwrap(), Bytes::from_static(b"3456"));
        assert_eq!(
            p.get_range("k", 5, 99).unwrap(),
            Bytes::from_static(b"56789")
        );
        assert!(p.get_range("k", 20, 25).is_err());
        fs::remove_dir_all(p.root()).unwrap();
    }

    #[test]
    fn missing_key_not_found() {
        let p = LocalProvider::new(tmp()).unwrap();
        assert!(matches!(p.get("absent"), Err(StorageError::NotFound(_))));
        assert!(!p.exists("absent").unwrap());
        p.delete("absent").unwrap(); // idempotent
        fs::remove_dir_all(p.root()).unwrap();
    }

    #[test]
    fn traversal_keys_are_sanitized() {
        let p = LocalProvider::new(tmp()).unwrap();
        p.put("../../escape", Bytes::from_static(b"x")).unwrap();
        // the object is stored under root, not outside it
        assert!(p.root().join("escape").is_file());
        fs::remove_dir_all(p.root()).unwrap();
    }

    #[test]
    fn delete_prefix_is_string_prefixed_not_path_normalized() {
        let p = LocalProvider::new(tmp()).unwrap();
        p.put("a/b", Bytes::from_static(b"x")).unwrap();
        // these match no keys under string semantics; the sanitized-path
        // fast path must not widen them into deleting directory `a`
        p.delete_prefix("a//").unwrap();
        p.delete_prefix("a/../").unwrap();
        p.delete_prefix("a/./").unwrap();
        assert!(p.exists("a/b").unwrap());
        // the aligned form does delete
        p.delete_prefix("a/").unwrap();
        assert!(!p.exists("a/b").unwrap());
        fs::remove_dir_all(p.root()).unwrap();
    }

    #[test]
    fn stats_count_traffic() {
        let p = LocalProvider::new(tmp()).unwrap();
        p.put("k", Bytes::from(vec![1u8; 64])).unwrap();
        assert_eq!(p.stats().bytes_written(), 64);
        p.get("k").unwrap();
        p.get_range("k", 0, 16).unwrap();
        assert_eq!(p.stats().bytes_read(), 80);
        let mut plan = ReadPlan::new();
        plan.whole("k");
        plan.range("k", 0, 8);
        p.execute(&plan);
        // batched reads count once per batch, not per single-key call
        assert_eq!(p.stats().batch_requests(), 1);
        assert_eq!(p.stats().requests(), 2);
        fs::remove_dir_all(p.root()).unwrap();
    }

    #[test]
    fn overwrite_replaces() {
        let p = LocalProvider::new(tmp()).unwrap();
        p.put("k", Bytes::from_static(b"first")).unwrap();
        p.put("k", Bytes::from_static(b"second!")).unwrap();
        assert_eq!(p.len_of("k").unwrap(), 7);
        fs::remove_dir_all(p.root()).unwrap();
    }
}
