//! A batch reader keeps what it planned: a chunk the shared memo already
//! held when a task's prefetch was planned is pinned by that prefetch,
//! through either entry point, so other readers pushing the 64-slot memo
//! over between the plan and the task's reads cost the task nothing.

use std::sync::Arc;

use deeplake_core::dataset::TensorOptions;
use deeplake_core::{Dataset, PrefetchedChunks};
use deeplake_storage::MemoryProvider;
use deeplake_tensor::{Dtype, Htype, Sample};

const ROWS: u64 = 1200;

fn value(row: u64) -> Sample {
    Sample::from_slice([16], &[row as u8; 16]).unwrap()
}

/// A many-chunk tensor on `storage`, flushed.
fn write(storage: &Arc<MemoryProvider>) {
    let mut ds = Dataset::create(storage.clone(), "resident").unwrap();
    let mut opts = TensorOptions::new(Htype::Generic);
    opts.dtype = Some(Dtype::U8);
    opts.chunk_target_bytes = Some(64);
    ds.create_tensor_opts("x", opts).unwrap();
    for row in 0..ROWS {
        ds.append_row(vec![("x", value(row))]).unwrap();
    }
    ds.flush().unwrap();
}

/// Plan a task over the first three chunks with the first already
/// resident, let 70 other chunks through the memo, then read the task's
/// rows: how many storage round trips did the reads cost?
fn round_trips_after_eviction(plan: impl Fn(&Dataset, &[String], u64) -> PrefetchedChunks) -> u64 {
    let storage = Arc::new(MemoryProvider::new());
    write(&storage);
    let ds = Dataset::open(storage.clone()).unwrap();
    let spans = ds.chunk_spans("x").unwrap();
    assert!(spans.len() > 90, "{} chunks", spans.len());
    let task_end = spans[3].1;

    ds.get("x", 0).unwrap(); // the task's first chunk is resident
    let prefetched = plan(&ds, &["x".to_string()], task_end);
    assert_eq!(prefetched.round_trips(), 1, "the other two are fetched");
    for &(_, start, _) in &spans[10..80] {
        ds.get("x", start).unwrap();
    }

    let before = storage.stats().snapshot();
    for row in 0..task_end {
        assert_eq!(prefetched.get(&ds, "x", row).unwrap(), value(row));
    }
    storage.stats().snapshot().delta_since(&before).round_trips
}

#[test]
fn a_chunk_resident_at_plan_time_survives_memo_churn_through_both_entry_points() {
    let by_rows = round_trips_after_eviction(|ds, tensors, end| {
        let rows: Vec<u64> = (0..end).collect();
        ds.prefetch_chunks(tensors, &rows).unwrap()
    });
    assert_eq!(by_rows, 0, "prefetch_chunks");
    let by_spans = round_trips_after_eviction(|ds, tensors, end| {
        ds.prefetch_spans(tensors, &[(0, end)]).unwrap()
    });
    assert_eq!(by_spans, 0, "prefetch_spans");
}
