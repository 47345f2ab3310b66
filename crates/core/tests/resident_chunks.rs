//! A batch reader keeps what it planned: a chunk the shared cache already
//! held when a task's prefetch was planned is pinned by that prefetch,
//! through either entry point, so other readers pushing it out of the
//! cache between the plan and the task's reads cost the task nothing. And
//! what the cache's budget holds stays parsed: a second scan of a tensor
//! of small chunks on the same handle reads nothing. The budget is the
//! handle's, not a tensor's.

use std::sync::Arc;

use deeplake_core::dataset::TensorOptions;
use deeplake_core::{Dataset, PrefetchedChunks};
use deeplake_storage::MemoryProvider;
use deeplake_tensor::{Dtype, Htype, Sample};

fn value(row: u64, len: usize) -> Sample {
    Sample::from_slice([len as u64], &vec![row as u8; len]).unwrap()
}

/// A tensor `x` of `rows` samples of `len` bytes on `storage`, flushed.
fn write(storage: &Arc<MemoryProvider>, rows: u64, len: usize, chunk_target_bytes: u64) {
    let mut ds = Dataset::create(storage.clone(), "resident").unwrap();
    let mut opts = TensorOptions::new(Htype::Generic);
    opts.dtype = Some(Dtype::U8);
    opts.chunk_target_bytes = Some(chunk_target_bytes);
    ds.create_tensor_opts("x", opts).unwrap();
    for row in 0..rows {
        ds.append_row(vec![("x", value(row, len))]).unwrap();
    }
    ds.flush().unwrap();
}

/// Storage round trips of one `Dataset::get` of `row`.
fn round_trips_of_get(storage: &MemoryProvider, ds: &Dataset, row: u64) -> u64 {
    let before = storage.stats().snapshot();
    ds.get("x", row).unwrap();
    storage.stats().snapshot().delta_since(&before).round_trips
}

/// Plan a task over the first three chunks with the first already
/// resident, push more than 64 chunks and more than 8 MiB of others
/// through the memo, then read the task's rows: how many storage round
/// trips did the reads cost?
fn round_trips_after_eviction(plan: impl Fn(&Dataset, &[String], u64) -> PrefetchedChunks) -> u64 {
    const LEN: usize = 32 << 10;
    let storage = Arc::new(MemoryProvider::new());
    write(&storage, 400, LEN, 128 << 10);
    let ds = Dataset::open(storage.clone()).unwrap();
    let spans = ds.chunk_spans("x").unwrap();
    let task_end = spans[3].1;
    let churn = &spans[10..];
    let churn_bytes: u64 = churn.iter().map(|&(_, _, rows)| rows * LEN as u64).sum();
    assert!(churn.len() > 64, "{} chunks", churn.len());
    assert!(churn_bytes > 8 << 20, "{churn_bytes} bytes");

    ds.get("x", 0).unwrap(); // the task's first chunk is resident
    let prefetched = plan(&ds, &["x".to_string()], task_end);
    assert_eq!(prefetched.round_trips(), 1, "the other two are fetched");
    for &(_, start, _) in churn {
        ds.get("x", start).unwrap();
    }

    let before = storage.stats().snapshot();
    for row in 0..task_end {
        assert_eq!(prefetched.get(&ds, "x", row).unwrap(), value(row, LEN));
    }
    let round_trips = storage.stats().snapshot().delta_since(&before).round_trips;
    assert_eq!(
        round_trips_of_get(&storage, &ds, 0),
        1,
        "the churn evicted the task's first chunk from the memo"
    );
    round_trips
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

#[test]
fn a_second_scan_of_a_tensor_of_small_chunks_reads_nothing() {
    const ROWS: u64 = 3000;
    let storage = Arc::new(MemoryProvider::new());
    write(&storage, ROWS, 16, 256);
    let ds = Dataset::open(storage.clone()).unwrap();
    let chunks = ds.chunk_spans("x").unwrap().len();
    assert!(chunks > 150, "{chunks} chunks");

    let scan = || {
        let before = storage.stats().snapshot();
        let prefetched = ds.prefetch_spans(&["x".to_string()], &[(0, ROWS)]).unwrap();
        for row in 0..ROWS {
            assert_eq!(prefetched.get(&ds, "x", row).unwrap(), value(row, 16));
        }
        storage
            .stats()
            .snapshot()
            .delta_since(&before)
            .logical_reads
    };
    assert_eq!(scan(), chunks as u64, "the first scan reads every chunk");
    assert_eq!(scan(), 0, "the second finds them all parsed");
}

#[test]
fn three_tensors_of_one_handle_share_one_budget() {
    const LEN: usize = 32 << 10;
    const ROWS: u64 = 300;
    let storage = Arc::new(MemoryProvider::new());
    let tensors = ["a", "b", "c"];
    {
        let mut ds = Dataset::create(storage.clone(), "shared budget").unwrap();
        for name in tensors {
            let mut opts = TensorOptions::new(Htype::Generic);
            opts.dtype = Some(Dtype::U8);
            opts.chunk_target_bytes = Some(128 << 10);
            ds.create_tensor_opts(name, opts).unwrap();
        }
        for row in 0..ROWS {
            ds.append_row(tensors.map(|name| (name, value(row, LEN))))
                .unwrap();
        }
        ds.flush().unwrap();
    }
    let ds = Dataset::open(storage.clone()).unwrap();
    for name in tensors {
        let spans = ds.chunk_spans(name).unwrap();
        assert!(spans.len() > 64, "{name}: {} chunks", spans.len());
        assert!(ROWS * LEN as u64 > 8 << 20);
        for (_, start, _) in spans {
            ds.get(name, start).unwrap();
        }
    }
    // `a`'s last chunk was among its own most recent 64, but `b` and `c`
    // came after it through the same cache
    let before = storage.stats().snapshot();
    ds.get("a", ROWS - 1).unwrap();
    let round_trips = storage.stats().snapshot().delta_since(&before).round_trips;
    assert_eq!(round_trips, 1, "a tensor kept a budget of its own");
}
