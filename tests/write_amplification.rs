//! A flush costs what was appended since the last one — counted in puts
//! and bytes through a put-recording provider, never timed. The harness
//! (provider, dataset shape, rows) is the runnable
//! `examples/write_amplification.rs`, which prints the same puts as a
//! table per object kind.

use std::sync::Arc;

use deeplake::core::version::{CommitDiff, RowSet};
use deeplake::prelude::*;

#[allow(dead_code)] // its `main` and table are the example's
#[path = "../examples/write_amplification.rs"]
mod harness;

use harness::{kind, PutLog, BATCHES, BATCH_ROWS};

/// Bytes of each `commit_diff.json` put among `puts`, by key.
fn diff_puts(puts: &[(String, u64)]) -> Vec<(String, u64)> {
    let mut diffs: Vec<_> = puts
        .iter()
        .filter(|p| kind(&p.0) == "commit_diff.json")
        .cloned()
        .collect();
    diffs.sort();
    diffs
}

#[test]
fn flush_cost_follows_what_was_appended() {
    let store = Arc::new(PutLog::default());
    let mut ds = harness::create(&store);
    let mut second_flush = Vec::new();
    let mut last_flush = Vec::new();
    for batch in 0..BATCHES {
        ds.extend_rows(harness::rows(batch)).unwrap();
        let before = store.put_count();
        ds.flush().unwrap();
        let flush = diff_puts(&store.puts_since(before));
        assert_eq!(flush.len(), 4, "one diff per tensor, `_sample_id` included");
        match batch + 1 {
            2 => second_flush = flush,
            BATCHES => last_flush = flush,
            _ => {}
        }
        if (batch + 1) % 8 == 0 {
            // what a reader of the uncommitted head sees is the model
            let rows = ((batch + 1) * BATCH_ROWS) as u64;
            let model = CommitDiff {
                added: (0..rows).collect(),
                updated: RowSet::new(),
            };
            let reopened = Dataset::open(store.clone()).unwrap();
            for tensor in reopened.tensors_all() {
                assert_eq!(
                    reopened.store(tensor).unwrap().pending_diff(),
                    &model,
                    "{tensor} after flush {}",
                    batch + 1
                );
            }
        }
    }
    // the 64th diff is the 2nd with a longer number in it: [[0,512]] -> [[0,16384]]
    let digits = |n: usize| n.to_string().len() as u64;
    let grown = digits(BATCHES * BATCH_ROWS) - digits(2 * BATCH_ROWS);
    for (second, last) in second_flush.iter().zip(&last_flush) {
        assert_eq!(second.0, last.0);
        assert_eq!(last.1, second.1 + grown, "{}", last.0);
    }

    let written: u64 = store.puts_since(0).iter().map(|p| p.1).sum();
    let stored = store.stored_bytes();
    assert!(
        written * 10 <= stored * 11,
        "{written} bytes written for {stored} stored"
    );

    // scattered updates in a later version: `updated` is exactly those rows
    ds.commit("appended").unwrap();
    let mut touched: Vec<u64> = (0..100).map(|i| (i * 7919 + 13) % ds.len()).collect();
    for &row in &touched {
        ds.update("labels", row, &Sample::scalar(-1i32)).unwrap();
    }
    touched.sort_unstable();
    let before = store.put_count();
    ds.flush().unwrap();
    let reopened = Dataset::open(store.clone()).unwrap();
    let diff = reopened.store("labels").unwrap().pending_diff();
    assert!(diff.added.is_empty());
    assert_eq!(diff.updated.iter().collect::<Vec<_>>(), touched);
    let flush = diff_puts(&store.puts_since(before));
    assert_eq!(flush.len(), 1, "only `labels` changed: {flush:?}");
    assert!(flush[0].1 < 4096, "{flush:?}");
}

/// Puts of one `flush()` to the schema file and the version tree.
fn schema_and_tree_puts(store: &PutLog, from: usize) -> usize {
    let puts = store.puts_since(from);
    let of = |name| puts.iter().filter(|p| kind(&p.0) == name).count();
    of("schema") + of("version tree")
}

#[test]
fn flush_puts_schema_and_version_tree_only_when_they_changed() {
    let store = Arc::new(PutLog::default());
    let mut ds = harness::create(&store);
    ds.extend_rows(harness::rows(0)).unwrap();
    ds.flush().unwrap();

    // nothing appended: nothing written at all
    let mark = store.put_count();
    ds.flush().unwrap();
    assert_eq!(store.put_count(), mark);

    // rows appended: chunks and tensor state, but neither of the two
    ds.extend_rows(harness::rows(1)).unwrap();
    ds.flush().unwrap();
    assert!(store.put_count() > mark);
    assert_eq!(schema_and_tree_puts(&store, mark), 0);

    // the three things that do change them still persist them
    let mark = store.put_count();
    ds.create_tensor("extra", Htype::ClassLabel, None).unwrap();
    assert_eq!(schema_and_tree_puts(&store, mark), 1, "create_tensor");
    let mark = store.put_count();
    ds.commit("two batches").unwrap();
    assert_eq!(schema_and_tree_puts(&store, mark), 2, "commit");
    let mark = store.put_count();
    ds.checkout_new_branch("side").unwrap();
    assert_eq!(schema_and_tree_puts(&store, mark), 2, "checkout -b");

    // and a reader that opens afterwards sees all of it
    let reopened = Dataset::open_at(store.clone(), "side").unwrap();
    assert_eq!(reopened.tensors(), ["emb", "extra", "images", "labels"]);
    assert_eq!(reopened.len(), 2 * BATCH_ROWS as u64);
    assert_eq!(reopened.branches().len(), 2);
}
