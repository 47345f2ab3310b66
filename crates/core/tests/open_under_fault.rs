//! Opening a dataset under storage faults: one failed read — an I/O
//! error, or the `Busy` an overloaded hub answers a remote provider —
//! at ANY storage op of `Dataset::open` surfaces as that error. It is
//! never a dataset that opened with a file silently missing (fewer rows,
//! no statistics, no tiles, an empty commit diff the next flush would
//! write back over the real one) and never "no dataset here".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use deeplake_core::dataset::TensorOptions;
use deeplake_core::{CoreError, Dataset};
use deeplake_storage::{
    DynProvider, FaultPlan, FaultProvider, MemoryProvider, StorageError, StorageProvider,
};
use deeplake_tensor::{Dtype, Htype, Sample};

/// Fails exactly the `fail_at`-th call (zero-based) with `error`; every
/// other call goes through. Batched reads reach it as single-key calls
/// (the trait's provided `execute`), so every read is one counted op.
struct FailOp {
    inner: DynProvider,
    ops: AtomicU64,
    fail_at: u64,
    error: StorageError,
}

impl FailOp {
    fn gate(&self) -> Result<(), StorageError> {
        if self.ops.fetch_add(1, Ordering::SeqCst) == self.fail_at {
            return Err(self.error.clone());
        }
        Ok(())
    }
}

impl StorageProvider for FailOp {
    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        self.gate()?;
        self.inner.get(key)
    }
    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes, StorageError> {
        self.gate()?;
        self.inner.get_range(key, start, end)
    }
    fn put(&self, key: &str, value: Bytes) -> Result<(), StorageError> {
        self.gate()?;
        self.inner.put(key, value)
    }
    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.gate()?;
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        self.gate()?;
        self.inner.exists(key)
    }
    fn len_of(&self, key: &str) -> Result<u64, StorageError> {
        self.gate()?;
        self.inner.len_of(key)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.gate()?;
        self.inner.list(prefix)
    }
    fn describe(&self) -> String {
        format!("fail-op-{}({})", self.fail_at, self.inner.describe())
    }
}

/// 600 rows over two versions (500 committed, 100 flushed on the new
/// head): scalar labels with statistics, a tensor with one tiled row, and
/// the hidden id tensor — every optional file of the format exists.
fn dataset() -> DynProvider {
    let storage: DynProvider = Arc::new(MemoryProvider::new());
    let mut ds = Dataset::create(storage.clone(), "faulted").unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    let mut opts = TensorOptions::new(Htype::Generic);
    opts.dtype = Some(Dtype::U8);
    opts.chunk_target_bytes = Some(256);
    ds.create_tensor_opts("blobs", opts).unwrap();
    let row = |i: u64| {
        let len = if i == 7 { 4096 } else { 8 }; // row 7 is tiled
        let blob = Sample::from_slice([len], &vec![i as u8; len as usize]).unwrap();
        vec![("labels", Sample::scalar((i % 10) as i32)), ("blobs", blob)]
    };
    for i in 0..500 {
        ds.append_row(row(i)).unwrap();
    }
    ds.commit("first 500").unwrap();
    for i in 500..600 {
        ds.append_row(row(i)).unwrap();
    }
    ds.flush().unwrap();
    storage
}

/// `Dataset::open` (as its row count) over `storage` failing op `fail_at`,
/// and how many ops the open issued.
fn open_failing(
    storage: &DynProvider,
    fail_at: u64,
    error: &StorageError,
) -> (Result<u64, CoreError>, u64) {
    let faulted = Arc::new(FailOp {
        inner: storage.clone(),
        ops: AtomicU64::new(0),
        fail_at,
        error: error.clone(),
    });
    let opened = Dataset::open(faulted.clone()).map(|ds| ds.len());
    (opened, faulted.ops.load(Ordering::SeqCst))
}

#[test]
fn a_failed_read_at_any_op_of_open_is_that_error() {
    let storage = dataset();
    let io = StorageError::Io("injected: connection reset".into());
    let (healthy, ops) = open_failing(&storage, u64::MAX, &io);
    assert_eq!(healthy.unwrap(), 600);
    assert!(ops >= 20, "open read only {ops} objects");

    let busy = StorageError::Busy("injected: queue full".into());
    for error in [&io, &busy] {
        for k in 0..ops {
            match open_failing(&storage, k, error).0 {
                Err(CoreError::Storage(e)) => assert_eq!(&e, error, "op {k}"),
                Ok(rows) => panic!("op {k} failed with {error} and open returned {rows} rows"),
                Err(other) => panic!("op {k} failed with {error} and open reported {other}"),
            }
        }
    }
}

/// A chunk no chunk set claims (its version's `chunk_set.json` is gone)
/// is found by probing the chain, HEAD first, where only `NotFound` means
/// "not in this version": a failed probe is that error, not "not found in
/// any version".
#[test]
fn a_failed_probe_for_an_unclaimed_chunk_is_that_error() {
    let storage = dataset();
    let chain = Dataset::open(storage.clone()).unwrap();
    let committed = chain.log().unwrap()[0].0.clone();
    storage
        .delete(&format!("versions/{committed}/labels/chunk_set.json"))
        .unwrap();
    let faulted = Arc::new(FaultProvider::new(storage.clone(), FaultPlan::none()));
    let ds = Dataset::open(faulted.clone()).unwrap();

    // the HEAD's probe fails: the committed version is never asked
    faulted.set_plan(FaultPlan::fail_next(1));
    match ds.get("labels", 3) {
        Err(CoreError::Storage(StorageError::Io(_))) => {}
        other => panic!("a failed probe read as {other:?}"),
    }
    faulted.heal();
    assert_eq!(ds.get("labels", 3).unwrap().get_f64(0).unwrap(), 3.0);
    // and the chunk it found is cached under the version that held it
    faulted.trip();
    assert_eq!(ds.get("labels", 4).unwrap().get_f64(0).unwrap(), 4.0);
}
