//! Contract tests: every storage provider must satisfy the same semantics
//! (the dataloader and format layers rely on them interchangeably, §3.6).
//!
//! The check bodies live in [`deeplake_storage::contract`] so other
//! crates (notably the remote client served over loopback TCP) run the
//! *identical* suite; this file instantiates them for the five in-crate
//! providers.

use std::sync::Arc;

use deeplake_storage::contract;
use deeplake_storage::{
    LocalProvider, LruCacheProvider, MemoryProvider, NetworkProfile, PrefixProvider,
    SimulatedCloudProvider, StorageProvider,
};

/// A directory of its own for the test that holds it, removed when
/// dropped — also when that test panics — so a run leaves nothing under
/// the temporary directory.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "deeplake-contract-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The providers under test; the local one writes under `dir`.
fn providers(dir: &TempDir) -> Vec<(&'static str, Box<dyn StorageProvider>)> {
    vec![
        ("memory", Box::new(MemoryProvider::new())),
        ("local", Box::new(LocalProvider::new(&dir.0).unwrap())),
        (
            "sim-cloud",
            Box::new(SimulatedCloudProvider::new(
                "s3",
                MemoryProvider::new(),
                NetworkProfile::instant(),
            )),
        ),
        (
            "lru-chain",
            Box::new(LruCacheProvider::new(MemoryProvider::new(), 1 << 20)),
        ),
        (
            "prefix",
            Box::new(PrefixProvider::new(
                Arc::new(MemoryProvider::new()),
                "scoped/ds",
            )),
        ),
    ]
}

macro_rules! contract_test {
    ($test_name:ident, $check:ident) => {
        #[test]
        fn $test_name() {
            let dir = TempDir::new();
            for (name, p) in providers(&dir) {
                contract::$check(name, p.as_ref());
            }
        }
    };
}

contract_test!(put_get_roundtrip_all_providers, check_put_get_roundtrip);
contract_test!(
    missing_keys_not_found_all_providers,
    check_missing_keys_not_found
);
contract_test!(
    not_found_names_requested_key_all_providers,
    check_not_found_names_requested_key
);
contract_test!(range_semantics_all_providers, check_range_semantics);
contract_test!(
    overwrite_and_delete_all_providers,
    check_overwrite_and_delete
);
contract_test!(list_prefix_sorted_all_providers, check_list_prefix_sorted);
contract_test!(
    get_many_matches_single_key_reads_all_providers,
    check_get_many_matches_single_key
);
contract_test!(
    execute_preserves_request_order_all_providers,
    check_execute_preserves_order
);
contract_test!(
    execute_clamps_over_long_ranges_in_batch_all_providers,
    check_execute_clamps_like_single_key
);
contract_test!(
    execute_rejects_inverted_ranges_like_single_key_all_providers,
    check_execute_rejects_inverted_ranges
);
contract_test!(
    execute_isolates_missing_keys_in_batch_all_providers,
    check_execute_isolates_missing_keys
);
contract_test!(
    execute_coalesces_same_key_ranges_all_providers,
    check_execute_coalesces_same_key
);
contract_test!(empty_plan_is_a_no_op_all_providers, check_empty_plan_noop);
contract_test!(concurrent_writers_all_providers, check_concurrent_writers);
