//! The provider contract as reusable checks.
//!
//! Every [`StorageProvider`] — the five in this crate, third-party ones,
//! and the remote client — must satisfy the same observable semantics:
//! the dataset, query and loader layers use them interchangeably (§3.6).
//! The checks live in the library (not a test file) so other crates can
//! run the *identical* suite against their providers; a loopback-served
//! `RemoteProvider` must be indistinguishable from the provider the
//! server mounts.
//!
//! Each `check_*` function panics with a labelled assertion on violation.
//! [`check_provider_contract`] runs them all against an empty provider
//! (the checks write under distinct key prefixes and clean up nothing —
//! pass a scratch instance).

use std::sync::Arc;

use bytes::Bytes;

use crate::error::StorageError;
use crate::plan::{ReadPlan, ReadRequest};
use crate::provider::StorageProvider;

/// Whole-object writes read back verbatim, with length and existence.
pub fn check_put_get_roundtrip(name: &str, p: &dyn StorageProvider) {
    p.put("a/b/c", Bytes::from_static(b"payload")).unwrap();
    assert_eq!(
        p.get("a/b/c").unwrap(),
        Bytes::from_static(b"payload"),
        "{name}"
    );
    assert_eq!(p.len_of("a/b/c").unwrap(), 7, "{name}");
    assert!(p.exists("a/b/c").unwrap(), "{name}");
}

/// Missing keys: `NotFound` from reads, `false` from exists, idempotent
/// delete.
pub fn check_missing_keys_not_found(name: &str, p: &dyn StorageProvider) {
    assert!(
        matches!(p.get("missing"), Err(StorageError::NotFound(_))),
        "{name}"
    );
    assert!(!p.exists("missing").unwrap(), "{name}");
    assert!(
        matches!(p.len_of("missing"), Err(StorageError::NotFound(_))),
        "{name}"
    );
    p.delete("missing").unwrap(); // idempotent everywhere
}

/// `NotFound` must name exactly the key the caller asked for — scoped,
/// cached, simulated and remote providers all rebase/propagate the key so
/// the error a caller sees is independent of the provider stack.
pub fn check_not_found_names_requested_key(name: &str, p: &dyn StorageProvider) {
    let key = "contract/absent-key";
    for (op, err) in [
        ("get", p.get(key).unwrap_err()),
        ("get_range", p.get_range(key, 0, 4).unwrap_err()),
        ("len_of", p.len_of(key).unwrap_err()),
    ] {
        assert_eq!(
            err,
            StorageError::NotFound(key.to_string()),
            "{name}: {op} must report the requested key"
        );
    }
    let many = p.get_many(&[ReadRequest::whole(key), ReadRequest::range(key, 0, 2)]);
    for r in many {
        assert_eq!(
            r.unwrap_err(),
            StorageError::NotFound(key.to_string()),
            "{name}: get_many slots must report the requested key"
        );
    }
    let mut plan = ReadPlan::new();
    plan.whole(key);
    for r in p.execute(&plan).results {
        assert_eq!(
            r.unwrap_err(),
            StorageError::NotFound(key.to_string()),
            "{name}: execute slots must report the requested key"
        );
    }
}

/// Byte-range reads: exact spans, S3-style clamping of over-long ends,
/// empty boundary ranges, start-past-end errors.
pub fn check_range_semantics(name: &str, p: &dyn StorageProvider) {
    p.put("obj", Bytes::from_static(b"0123456789")).unwrap();
    assert_eq!(
        p.get_range("obj", 2, 6).unwrap(),
        Bytes::from_static(b"2345"),
        "{name}"
    );
    // over-long end clamps (S3 semantics)
    assert_eq!(
        p.get_range("obj", 7, 1000).unwrap(),
        Bytes::from_static(b"789"),
        "{name}"
    );
    // empty range at the boundary
    assert_eq!(p.get_range("obj", 10, 10).unwrap().len(), 0, "{name}");
    // start past end errors
    assert!(p.get_range("obj", 11, 12).is_err(), "{name}");
}

/// Puts replace; deletes remove.
pub fn check_overwrite_and_delete(name: &str, p: &dyn StorageProvider) {
    p.put("k", Bytes::from_static(b"one")).unwrap();
    p.put("k", Bytes::from_static(b"twotwo")).unwrap();
    assert_eq!(p.len_of("k").unwrap(), 6, "{name}");
    p.delete("k").unwrap();
    assert!(!p.exists("k").unwrap(), "{name}");
}

/// Listing is sorted and prefix-scoped; `delete_prefix` removes exactly
/// the subtree.
pub fn check_list_prefix_sorted(name: &str, p: &dyn StorageProvider) {
    for key in ["t/2", "t/1", "t/10", "u/1"] {
        p.put(key, Bytes::new()).unwrap();
    }
    let listed = p.list("t/").unwrap();
    assert_eq!(listed, vec!["t/1", "t/10", "t/2"], "{name}");
    p.delete_prefix("t/").unwrap();
    assert!(p.list("t/").unwrap().is_empty(), "{name}");
    assert!(p.exists("u/1").unwrap(), "{name}");
}

/// `get_many` returns one outcome per request, positionally, matching the
/// single-key methods.
pub fn check_get_many_matches_single_key(name: &str, p: &dyn StorageProvider) {
    p.put("batch/a", Bytes::from_static(b"alpha")).unwrap();
    p.put("batch/b", Bytes::from_static(b"0123456789")).unwrap();
    let requests = vec![
        ReadRequest::whole("batch/a"),
        ReadRequest::range("batch/b", 2, 6),
        ReadRequest::whole("batch/b"),
        ReadRequest::range("batch/a", 0, 2),
    ];
    let results = p.get_many(&requests);
    assert_eq!(results.len(), 4, "{name}");
    assert_eq!(
        results[0].as_ref().unwrap(),
        &Bytes::from_static(b"alpha"),
        "{name}"
    );
    assert_eq!(
        results[1].as_ref().unwrap(),
        &Bytes::from_static(b"2345"),
        "{name}"
    );
    assert_eq!(
        results[2].as_ref().unwrap(),
        &Bytes::from_static(b"0123456789"),
        "{name}"
    );
    assert_eq!(
        results[3].as_ref().unwrap(),
        &Bytes::from_static(b"al"),
        "{name}"
    );
    // ranges only, so they merge into spans instead of riding a
    // whole-object fetch: overlapping, duplicate, over-long and
    // past-the-end slots each read what the single-key call reads
    let ranges = [(2, 6), (4, 8), (2, 6), (8, 1000), (0, 1), (11, 12), (5, 5)];
    let requests: Vec<ReadRequest> = ranges
        .iter()
        .map(|&(start, end)| ReadRequest::range("batch/b", start, end))
        .collect();
    let results = p.get_many(&requests);
    assert_eq!(results.len(), ranges.len(), "{name}");
    for (slot, &(start, end)) in results.iter().zip(&ranges) {
        assert_eq!(
            slot,
            &p.get_range("batch/b", start, end),
            "{name}: slot {start}..{end}"
        );
    }
}

/// `execute` keeps results positional regardless of how the provider
/// reorders or merges fetches, and never *adds* fetches.
pub fn check_execute_preserves_order(name: &str, p: &dyn StorageProvider) {
    p.put("obj", Bytes::from_static(b"abcdefghij")).unwrap();
    let mut plan = ReadPlan::new();
    plan.range("obj", 6, 9);
    plan.range("obj", 0, 3);
    plan.whole("obj");
    let outcome = p.execute(&plan);
    assert_eq!(outcome.results.len(), 3, "{name}");
    assert_eq!(
        outcome.results[0].as_ref().unwrap(),
        &Bytes::from_static(b"ghi"),
        "{name}"
    );
    assert_eq!(
        outcome.results[1].as_ref().unwrap(),
        &Bytes::from_static(b"abc"),
        "{name}"
    );
    assert_eq!(
        outcome.results[2].as_ref().unwrap(),
        &Bytes::from_static(b"abcdefghij"),
        "{name}"
    );
    assert!(
        outcome.fetches <= 3,
        "{name}: coalescing must never add fetches"
    );
}

/// Batched clamping matches single-key semantics slot by slot.
pub fn check_execute_clamps_like_single_key(name: &str, p: &dyn StorageProvider) {
    p.put("obj", Bytes::from_static(b"0123456789")).unwrap();
    let mut plan = ReadPlan::new();
    plan.range("obj", 8, 1000); // over-long end clamps, S3 style
    plan.range("obj", 10, 10); // empty range at the boundary
    plan.range("obj", 11, 12); // start past end errors
    plan.range("obj", 0, 4); // and an in-bounds request still succeeds
    let outcome = p.execute(&plan);
    assert_eq!(
        outcome.results[0].as_ref().unwrap(),
        &Bytes::from_static(b"89"),
        "{name}"
    );
    assert_eq!(outcome.results[1].as_ref().unwrap().len(), 0, "{name}");
    assert!(
        matches!(
            outcome.results[2],
            Err(StorageError::RangeOutOfBounds { .. })
        ),
        "{name}: got {:?}",
        outcome.results[2]
    );
    assert_eq!(
        outcome.results[3].as_ref().unwrap(),
        &Bytes::from_static(b"0123"),
        "{name}"
    );
}

/// Inverted ranges fail their own slot exactly as the single-key method
/// would, without poisoning neighbours.
pub fn check_execute_rejects_inverted_ranges(name: &str, p: &dyn StorageProvider) {
    p.put("obj", Bytes::from_static(b"0123456789")).unwrap();
    // single-key ground truth
    assert!(p.get_range("obj", 8, 3).is_err(), "{name}");
    let mut plan = ReadPlan::new();
    plan.range("obj", 8, 3); // inverted: must fail
    plan.range("obj", 0, 4); // valid neighbour: must still succeed
    let outcome = p.execute(&plan);
    assert!(
        matches!(
            outcome.results[0],
            Err(StorageError::RangeOutOfBounds { .. })
        ),
        "{name}: got {:?}",
        outcome.results[0]
    );
    assert_eq!(
        outcome.results[1].as_ref().unwrap(),
        &Bytes::from_static(b"0123"),
        "{name}"
    );
}

/// A missing key fails only its own batch slots.
pub fn check_execute_isolates_missing_keys(name: &str, p: &dyn StorageProvider) {
    p.put("have", Bytes::from_static(b"data")).unwrap();
    let mut plan = ReadPlan::new();
    plan.whole("have");
    plan.whole("ghost");
    plan.range("ghost", 0, 2);
    plan.range("have", 1, 3);
    let outcome = p.execute(&plan);
    assert_eq!(
        outcome.results[0].as_ref().unwrap(),
        &Bytes::from_static(b"data"),
        "{name}"
    );
    assert!(
        matches!(outcome.results[1], Err(StorageError::NotFound(_))),
        "{name}"
    );
    assert!(
        matches!(outcome.results[2], Err(StorageError::NotFound(_))),
        "{name}"
    );
    assert_eq!(
        outcome.results[3].as_ref().unwrap(),
        &Bytes::from_static(b"at"),
        "{name}"
    );
    // get_many agrees with execute on the same shape
    let via_get_many = p.get_many(plan.requests());
    assert_eq!(via_get_many.len(), 4, "{name}");
    assert!(via_get_many[0].is_ok() && via_get_many[3].is_ok(), "{name}");
    assert!(
        via_get_many[1].is_err() && via_get_many[2].is_err(),
        "{name}"
    );
}

/// Adjacent same-key ranges merge into (at most) one backend fetch.
pub fn check_execute_coalesces_same_key(name: &str, p: &dyn StorageProvider) {
    let payload: Vec<u8> = (0..=255).collect();
    p.put("chunk", Bytes::from(payload)).unwrap();
    // 8 adjacent 32-byte reads of one object coalesce into one fetch
    let mut plan = ReadPlan::new();
    for i in 0..8u64 {
        plan.range("chunk", i * 32, (i + 1) * 32);
    }
    let outcome = p.execute(&plan);
    for (i, r) in outcome.results.iter().enumerate() {
        let data = r.as_ref().unwrap();
        assert_eq!(data.len(), 32, "{name}");
        assert_eq!(data[0], (i * 32) as u8, "{name}");
    }
    assert!(
        outcome.fetches <= 1,
        "{name}: adjacent ranges on one key must merge (got {} fetches)",
        outcome.fetches
    );
}

/// An empty plan is a no-op.
pub fn check_empty_plan_noop(name: &str, p: &dyn StorageProvider) {
    let outcome = p.execute(&ReadPlan::new());
    assert!(outcome.results.is_empty(), "{name}");
    assert_eq!(outcome.fetches, 0, "{name}");
    assert!(p.get_many(&[]).is_empty(), "{name}");
}

/// Concurrent writers on disjoint keys all land.
pub fn check_concurrent_writers(name: &str, p: &dyn StorageProvider) {
    std::thread::scope(|scope| {
        for t in 0..4u8 {
            let p = &p;
            scope.spawn(move || {
                for i in 0..50 {
                    let key = format!("cw{t}/{i}");
                    p.put(&key, Bytes::from(vec![t; 32])).unwrap();
                    assert_eq!(p.get(&key).unwrap().len(), 32);
                }
            });
        }
    });
    assert_eq!(p.list("cw").unwrap().len(), 200, "{name}");
}

/// Run the full contract against one scratch provider.
pub fn check_provider_contract(name: &str, p: &dyn StorageProvider) {
    check_put_get_roundtrip(name, p);
    check_missing_keys_not_found(name, p);
    check_not_found_names_requested_key(name, p);
    check_range_semantics(name, p);
    check_overwrite_and_delete(name, p);
    check_list_prefix_sorted(name, p);
    check_get_many_matches_single_key(name, p);
    check_execute_preserves_order(name, p);
    check_execute_clamps_like_single_key(name, p);
    check_execute_rejects_inverted_ranges(name, p);
    check_execute_isolates_missing_keys(name, p);
    check_execute_coalesces_same_key(name, p);
    check_empty_plan_noop(name, p);
    check_concurrent_writers(name, p);
}

/// Convenience for shared handles.
pub fn check_provider_contract_arc(name: &str, p: Arc<dyn StorageProvider>) {
    check_provider_contract(name, p.as_ref());
}
