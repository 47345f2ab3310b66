//! Stored JSON metadata nested deeper than the parser allows is a
//! `CoreError::Corrupt` on open — for every JSON-backed object of a
//! dataset — never a stack overflow (the parser recurses per `[`/`{`).

use std::sync::Arc;

use bytes::Bytes;
use deeplake_core::{CoreError, Dataset};
use deeplake_storage::{MemoryProvider, StorageProvider};
use deeplake_tensor::{Htype, Sample};

/// A flushed one-tensor dataset; returns its provider.
fn stored() -> Arc<MemoryProvider> {
    let provider = Arc::new(MemoryProvider::new());
    let mut ds = Dataset::create(provider.clone(), "hostile").unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..10 {
        ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
    }
    ds.flush().unwrap();
    provider
}

#[test]
fn deeply_nested_metadata_is_corrupt_not_a_stack_overflow() {
    let keys = stored().list("").unwrap();
    let mut poisoned = 0;
    for suffix in [
        "labels/commit_diff.json",
        "labels/chunk_set.json",
        "labels/meta.json",
        "/schema.json",
        "version_control_info.json",
    ] {
        let key = keys
            .iter()
            .find(|k| k.ends_with(suffix))
            .unwrap_or_else(|| panic!("no {suffix} among {keys:?}"));
        for open in ["[", "{\"k\":"] {
            let provider = stored();
            provider
                .put(key, Bytes::from(open.repeat(1_000_000)))
                .unwrap();
            match Dataset::open(provider) {
                Err(CoreError::Corrupt(msg)) => assert!(msg.contains("nested deeper"), "{msg}"),
                Err(other) => panic!("{key}: {other:?}"),
                Ok(_) => panic!("{key}: opened"),
            }
            poisoned += 1;
        }
    }
    assert_eq!(poisoned, 10);
}
