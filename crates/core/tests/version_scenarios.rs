//! Deeper version-control scenarios: long histories, multi-branch trees,
//! merge chains, schema evolution across branches, persistence of the
//! full tree.

use std::sync::Arc;

use deeplake_core::dataset::Dataset;
use deeplake_core::version::{CommitDiff, MergePolicy, RowSet};
use deeplake_storage::{DynProvider, MemoryProvider};
use deeplake_tensor::{Htype, Sample};

fn mem() -> DynProvider {
    Arc::new(MemoryProvider::new())
}

fn labels_ds() -> Dataset {
    let mut ds = Dataset::create(mem(), "scenarios").unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    ds
}

fn label_of(ds: &Dataset, row: u64) -> i32 {
    ds.get("labels", row).unwrap().get_f64(0).unwrap() as i32
}

#[test]
fn long_history_every_commit_readable() {
    let mut ds = labels_ds();
    ds.append_row(vec![("labels", Sample::scalar(0i32))])
        .unwrap();
    let mut commits = Vec::new();
    for k in 1..=15i32 {
        ds.update("labels", 0, &Sample::scalar(k)).unwrap();
        commits.push((k, ds.commit(&format!("set {k}")).unwrap()));
    }
    // every historical commit shows its value
    for (value, commit) in &commits {
        ds.checkout(commit).unwrap();
        assert_eq!(label_of(&ds, 0), *value, "at {commit}");
    }
    ds.checkout("main").unwrap();
    assert_eq!(label_of(&ds, 0), 15);
    assert_eq!(ds.log().unwrap().len(), 15);
}

#[test]
fn three_way_branch_tree() {
    let mut ds = labels_ds();
    for i in 0..4 {
        ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
    }
    ds.commit("base").unwrap();
    // three branches off the same base, each appending distinct rows
    for (branch, offset) in [("b1", 10), ("b2", 20), ("b3", 30)] {
        ds.checkout("main").unwrap();
        ds.checkout_new_branch(branch).unwrap();
        ds.append_row(vec![("labels", Sample::scalar(offset))])
            .unwrap();
        ds.commit(&format!("{branch} adds")).unwrap();
    }
    // merge all three into main
    ds.checkout("main").unwrap();
    for branch in ["b1", "b2", "b3"] {
        let report = ds.merge(branch, MergePolicy::Fail).unwrap();
        assert_eq!(report.samples_added, 1, "{branch}");
        assert!(report.conflicts.is_empty(), "{branch}");
    }
    assert_eq!(ds.len(), 7);
    let all: Vec<i32> = (0..7).map(|r| label_of(&ds, r)).collect();
    assert!(all.contains(&10) && all.contains(&20) && all.contains(&30));
}

#[test]
fn merge_is_idempotent_for_already_merged_branch() {
    let mut ds = labels_ds();
    ds.append_row(vec![("labels", Sample::scalar(1i32))])
        .unwrap();
    ds.commit("base").unwrap();
    ds.checkout_new_branch("side").unwrap();
    ds.append_row(vec![("labels", Sample::scalar(2i32))])
        .unwrap();
    ds.commit("side").unwrap();
    ds.checkout("main").unwrap();
    let first = ds.merge("side", MergePolicy::Ours).unwrap();
    assert_eq!(first.samples_added, 1);
    let second = ds.merge("side", MergePolicy::Ours).unwrap();
    assert_eq!(second.samples_added, 0, "re-merge must not duplicate rows");
    assert_eq!(ds.len(), 2);
}

#[test]
fn schema_evolution_is_branch_local_until_merge() {
    let mut ds = labels_ds();
    ds.append_row(vec![("labels", Sample::scalar(1i32))])
        .unwrap();
    ds.commit("base").unwrap();
    ds.checkout_new_branch("schema-exp").unwrap();
    ds.create_tensor("scores", Htype::Generic, Some(deeplake_tensor::Dtype::F32))
        .unwrap();
    ds.update("scores", 0, &Sample::scalar(0.5f32)).unwrap();
    ds.commit("added scores").unwrap();
    assert!(ds.tensors().contains(&"scores"));
    // main does not see the new tensor
    ds.checkout("main").unwrap();
    assert!(!ds.tensors().contains(&"scores"));
    assert!(ds.get("scores", 0).is_err());
    // back on the branch it persists
    ds.checkout("schema-exp").unwrap();
    assert_eq!(ds.get("scores", 0).unwrap().get_f64(0).unwrap(), 0.5);
}

#[test]
fn whole_tree_survives_reopen() {
    let provider = mem();
    {
        let mut ds = Dataset::create(provider.clone(), "persist-tree").unwrap();
        ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
        ds.append_row(vec![("labels", Sample::scalar(1i32))])
            .unwrap();
        ds.commit("c1").unwrap();
        ds.checkout_new_branch("dev").unwrap();
        ds.update("labels", 0, &Sample::scalar(7i32)).unwrap();
        ds.commit("dev change").unwrap();
        ds.checkout("main").unwrap();
        ds.append_row(vec![("labels", Sample::scalar(2i32))])
            .unwrap();
        ds.flush().unwrap();
    }
    let mut ds = Dataset::open(provider).unwrap();
    let mut branches = ds.branches();
    branches.sort();
    assert_eq!(branches, vec!["dev", "main"]);
    assert_eq!(ds.len(), 2);
    assert_eq!(label_of(&ds, 0), 1);
    ds.checkout("dev").unwrap();
    assert_eq!(ds.len(), 1);
    assert_eq!(label_of(&ds, 0), 7);
}

#[test]
fn uncommitted_changes_survive_branch_round_trip() {
    let mut ds = labels_ds();
    ds.append_row(vec![("labels", Sample::scalar(1i32))])
        .unwrap();
    ds.commit("base").unwrap();
    // uncommitted append on main
    ds.append_row(vec![("labels", Sample::scalar(2i32))])
        .unwrap();
    // checkout flushes; jumping away and back must not lose the row
    ds.checkout_new_branch("elsewhere").unwrap();
    ds.checkout("main").unwrap();
    assert_eq!(ds.len(), 2);
    assert_eq!(label_of(&ds, 1), 2);
}

#[test]
fn diff_between_sibling_branches() {
    let mut ds = labels_ds();
    for i in 0..3 {
        ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
    }
    ds.commit("base").unwrap();
    ds.checkout_new_branch("left").unwrap();
    ds.append_row(vec![("labels", Sample::scalar(100i32))])
        .unwrap();
    ds.commit("left adds").unwrap();
    ds.checkout("main").unwrap();
    ds.checkout_new_branch("right").unwrap();
    ds.update("labels", 0, &Sample::scalar(-1i32)).unwrap();
    ds.commit("right edits").unwrap();

    let diff = ds.diff("left", "right").unwrap();
    let left_labels = diff.left.iter().find(|t| t.tensor == "labels").unwrap();
    let right_labels = diff.right.iter().find(|t| t.tensor == "labels").unwrap();
    assert_eq!(left_labels.rows_added, 1);
    assert_eq!(left_labels.rows_updated, 0);
    assert_eq!(right_labels.rows_added, 0);
    assert_eq!(right_labels.rows_updated, 1);
}

#[test]
fn merge_updates_and_adds_together() {
    let mut ds = labels_ds();
    for i in 0..3 {
        ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
    }
    ds.commit("base").unwrap();
    ds.checkout_new_branch("work").unwrap();
    ds.update("labels", 1, &Sample::scalar(50i32)).unwrap();
    ds.append_row(vec![("labels", Sample::scalar(60i32))])
        .unwrap();
    ds.commit("work done").unwrap();
    ds.checkout("main").unwrap();
    let report = ds.merge("work", MergePolicy::Fail).unwrap();
    assert_eq!(report.updates_applied, 1);
    assert_eq!(report.samples_added, 1);
    assert_eq!(ds.len(), 4);
    assert_eq!(label_of(&ds, 1), 50);
    assert_eq!(label_of(&ds, 3), 60);
}

/// A copy of `from` whose every `commit_diff.json` is in the form the
/// writer before run sets stored: `{"added":[0,1,2],"updated":[7]}`, one
/// number per row.
fn copy_with_flat_array_diffs(from: &DynProvider) -> DynProvider {
    let to = mem();
    for key in from.list("").unwrap() {
        let mut data = from.get(&key).unwrap();
        if key.ends_with("commit_diff.json") {
            let diff = CommitDiff::from_json(&data).unwrap();
            let flat = |rows: &RowSet| {
                let rows: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
                rows.join(",")
            };
            data = format!(
                r#"{{"added":[{}],"updated":[{}]}}"#,
                flat(&diff.added),
                flat(&diff.updated)
            )
            .into();
        }
        to.put(&key, data).unwrap();
    }
    to
}

#[test]
fn flat_array_diffs_written_before_run_sets_open_unchanged() {
    // a committed version with updates on a branch, and flushed but
    // uncommitted appends and an update on main
    let runs = mem();
    let mut ds = Dataset::create(runs.clone(), "legacy").unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..6 {
        ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
    }
    ds.commit("base").unwrap();
    ds.checkout_new_branch("side").unwrap();
    ds.update("labels", 1, &Sample::scalar(-1i32)).unwrap();
    ds.update("labels", 2, &Sample::scalar(-2i32)).unwrap();
    ds.append_row(vec![("labels", Sample::scalar(60i32))])
        .unwrap();
    ds.commit("side edits").unwrap();
    ds.checkout("main").unwrap();
    ds.update("labels", 2, &Sample::scalar(22i32)).unwrap();
    for i in 6..8 {
        ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
    }
    ds.flush().unwrap();
    drop(ds);

    let flat = copy_with_flat_array_diffs(&runs);
    let head_diff = |store: &DynProvider| {
        let head = Dataset::open(store.clone()).unwrap().head_id().to_string();
        let key = format!("versions/{head}/labels/commit_diff.json");
        String::from_utf8(store.get(&key).unwrap().to_vec()).unwrap()
    };
    assert_eq!(head_diff(&flat), r#"{"added":[6,7],"updated":[2]}"#);

    let mut new = Dataset::open(runs).unwrap();
    let mut old = Dataset::open(flat.clone()).unwrap();
    for tensor in new.tensors_all() {
        assert_eq!(
            old.store(tensor).unwrap().pending_diff(),
            new.store(tensor).unwrap().pending_diff(),
            "{tensor}"
        );
    }
    assert_eq!(
        old.diff("main", "side").unwrap(),
        new.diff("main", "side").unwrap()
    );

    // the next flush rewrites the head's diff as runs
    old.append_row(vec![("labels", Sample::scalar(8i32))])
        .unwrap();
    old.flush().unwrap();
    assert_eq!(head_diff(&flat), r#"{"added":[[6,9]],"updated":[[2,3]]}"#);
    new.append_row(vec![("labels", Sample::scalar(8i32))])
        .unwrap();

    // row 2 was updated on both sides, row 1 on theirs only, one row is new
    let merged_old = old.merge("side", MergePolicy::Theirs).unwrap();
    let merged_new = new.merge("side", MergePolicy::Theirs).unwrap();
    assert_eq!(merged_old, merged_new);
    assert_eq!(merged_old.updates_applied, 2);
    assert_eq!(merged_old.samples_added, 1);
    assert_eq!(merged_old.conflicts.len(), 1);
    let labels = |ds: &Dataset| (0..ds.len()).map(|r| label_of(ds, r)).collect::<Vec<_>>();
    assert_eq!(labels(&old), [0, -1, -2, 3, 4, 5, 6, 7, 8, 60]);
    assert_eq!(labels(&old), labels(&new));
}
