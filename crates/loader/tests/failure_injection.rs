//! Failure injection: the loader must surface storage corruption as
//! errors, not hangs or panics — it runs inside training jobs.

use std::sync::Arc;

use deeplake_core::dataset::TensorOptions;
use deeplake_core::Dataset;
use deeplake_loader::shuffle::block_ends;
use deeplake_loader::DataLoader;
use deeplake_storage::{DynProvider, MemoryProvider, StorageProvider};
use deeplake_tensor::{Htype, Sample};

fn dataset(provider: DynProvider, rows: u64) -> Dataset {
    let mut ds = Dataset::create(provider, "inject").unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..rows {
        ds.append_row(vec![("labels", Sample::scalar(i as i32))])
            .unwrap();
    }
    ds.flush().unwrap();
    ds
}

#[test]
fn missing_chunk_surfaces_error_and_stops() {
    let provider = Arc::new(MemoryProvider::new());
    let _ds = dataset(provider.clone(), 50);
    // delete every chunk object behind the dataset's back
    for key in provider.list("").unwrap() {
        if key.contains("/chunks/") {
            provider.delete(&key).unwrap();
        }
    }
    let ds = Arc::new(Dataset::open(provider).unwrap());
    let loader = DataLoader::builder(ds)
        .batch_size(8)
        .num_workers(4)
        .build()
        .unwrap();
    let mut saw_error = false;
    for batch in loader.epoch() {
        match batch {
            Ok(_) => {}
            Err(e) => {
                saw_error = true;
                assert!(e.to_string().contains("loader worker failed"), "{e}");
                break;
            }
        }
    }
    assert!(saw_error, "corruption must surface as an Err item");
}

#[test]
fn corrupted_chunk_bytes_surface_error() {
    let provider = Arc::new(MemoryProvider::new());
    let _ds = dataset(provider.clone(), 50);
    for key in provider.list("").unwrap() {
        if key.contains("/chunks/") {
            provider
                .put(&key, bytes::Bytes::from_static(b"garbage"))
                .unwrap();
        }
    }
    let ds = Arc::new(Dataset::open(provider).unwrap());
    let loader = DataLoader::builder(ds)
        .batch_size(8)
        .num_workers(2)
        .build()
        .unwrap();
    let results: Vec<_> = loader.epoch().collect();
    assert!(results.iter().any(|r| r.is_err()));
}

#[test]
fn iterator_terminates_after_error() {
    let provider = Arc::new(MemoryProvider::new());
    let _ds = dataset(provider.clone(), 30);
    for key in provider.list("").unwrap() {
        if key.contains("/chunks/") {
            provider.delete(&key).unwrap();
        }
    }
    let ds = Arc::new(Dataset::open(provider).unwrap());
    let loader = DataLoader::builder(ds)
        .batch_size(4)
        .num_workers(2)
        .build()
        .unwrap();
    let mut epoch = loader.epoch();
    // drain fully: after the first Err the iterator must return None soon
    // (not hang), and dropping it must join workers cleanly
    let mut errs = 0;
    for item in &mut epoch {
        if item.is_err() {
            errs += 1;
        }
    }
    assert_eq!(errs, 1, "exactly one error, then clean termination");
}

/// One worker, one chunk deleted mid-dataset: every row before the
/// first unreadable sample is delivered — the ones sharing its task
/// included — then exactly one error naming that sample, then the end.
#[test]
fn rows_before_the_bad_sample_are_delivered_then_one_error() {
    let provider = Arc::new(MemoryProvider::new());
    {
        let mut ds = Dataset::create(provider.clone(), "inject").unwrap();
        ds.create_tensor_opts("labels", {
            let mut o = TensorOptions::new(Htype::ClassLabel);
            o.chunk_target_bytes = Some(40); // ~10 rows a chunk: a task is several
            o
        })
        .unwrap();
        for i in 0..300 {
            ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
        }
        ds.flush().unwrap();
    }
    // a chunk in the middle of a task: its first row is not a block's
    let probe = Dataset::open(provider.clone()).unwrap();
    let spans = probe.chunk_spans("labels").unwrap();
    let rows: Vec<u64> = (0..300).collect();
    let ends = block_ends(&rows, &spans, 32);
    let (id, bad, _) = *spans
        .iter()
        .skip(spans.len() / 2)
        .find(|(_, first, _)| !ends.contains(&(*first as usize)))
        .expect("a block of several chunks");
    let id = id.expect("a sealed chunk");
    let key = provider
        .list("")
        .unwrap()
        .into_iter()
        .find(|k| k.ends_with(&format!("labels/chunks/{id:016x}")))
        .unwrap_or_else(|| panic!("no object holds chunk {id}"));
    provider.delete(&key).unwrap();
    let probe = Dataset::open(provider.clone()).unwrap();
    assert_eq!(
        (0..300).find(|&row| probe.get("labels", row).is_err()),
        Some(bad),
        "deleting {key} makes row {bad} the first unreadable one"
    );

    let loader = DataLoader::builder(Arc::new(Dataset::open(provider).unwrap()))
        .batch_size(1)
        .num_workers(1)
        .build()
        .unwrap();
    let mut epoch = loader.epoch();
    for row in 0..bad {
        let batch = epoch.next().expect("a row before the bad one").unwrap();
        let label = batch.column("labels").unwrap().get(0).unwrap();
        assert_eq!(label.get_f64(0).unwrap() as u64, row);
    }
    let err = epoch.next().expect("the failure").unwrap_err().to_string();
    assert!(err.contains(&format!("fetch labels[{bad}]")), "{err}");
    assert!(epoch.next().is_none(), "the error ends the epoch");
}

#[test]
fn empty_dataset_yields_no_batches() {
    let ds = Arc::new(dataset(Arc::new(MemoryProvider::new()), 0));
    let loader = DataLoader::builder(ds).batch_size(8).build().unwrap();
    assert_eq!(loader.len_batches(), 0);
    assert_eq!(loader.epoch().count(), 0);
}

#[test]
fn single_row_dataset_single_batch() {
    let ds = Arc::new(dataset(Arc::new(MemoryProvider::new()), 1));
    let loader = DataLoader::builder(ds)
        .batch_size(64)
        .num_workers(8)
        .shuffle(1)
        .build()
        .unwrap();
    let batches: Vec<_> = loader.epoch().map(|b| b.unwrap()).collect();
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].len(), 1);
}
