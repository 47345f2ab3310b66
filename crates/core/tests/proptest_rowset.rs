//! Property test: [`RowSet`] against a `BTreeSet<u64>` model. Rows are
//! drawn from a narrow range so inserts collide, touch and fill gaps —
//! the cases where two runs must coalesce into one — and arrive in
//! ascending, descending and arbitrary order.

use std::collections::BTreeSet;

use deeplake_core::version::{CommitDiff, RowSet};
use proptest::prelude::*;

/// The canonical form: non-empty runs, ascending, with a gap between
/// neighbours.
fn assert_canonical(set: &RowSet) {
    assert!(set.runs().iter().all(|r| r.0 < r.1), "{set:?}");
    assert!(set.runs().windows(2).all(|w| w[0].1 < w[1].0), "{set:?}");
}

fn assert_matches(set: &RowSet, model: &BTreeSet<u64>, span: u64) {
    assert_canonical(set);
    assert_eq!(set.len(), model.len() as u64);
    assert_eq!(set.is_empty(), model.is_empty());
    assert!(set.iter().eq(model.iter().copied()), "{set:?} vs {model:?}");
    for row in 0..span + 2 {
        assert_eq!(set.contains(row), model.contains(&row), "row {row}");
    }
}

fn order(mut rows: Vec<u64>, how: u8) -> Vec<u64> {
    match how {
        0 => rows.sort_unstable(),
        1 => rows.sort_unstable_by(|a, b| b.cmp(a)),
        _ => {}
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn insert_contains_len_iter_match_a_btreeset(
        rows in proptest::collection::vec(0u64..96, 0..160),
        how in 0u8..3,
    ) {
        let mut set = RowSet::new();
        let mut model = BTreeSet::new();
        for row in order(rows, how) {
            set.insert(row);
            model.insert(row);
            assert_canonical(&set);
        }
        assert_matches(&set, &model, 96);
    }

    #[test]
    fn gap_filling_inserts_coalesce_two_runs(
        gaps in proptest::collection::vec(1u64..63, 1..24),
    ) {
        // every row of 0..64 but the gaps, then the gaps: one run at the end
        let gaps: BTreeSet<u64> = gaps.into_iter().collect();
        let mut set: RowSet = (0..64).filter(|r| !gaps.contains(r)).collect();
        prop_assert!(set.runs().len() > 1);
        for &gap in &gaps {
            set.insert(gap);
        }
        prop_assert_eq!(set.runs(), [(0, 64)]);
    }

    #[test]
    fn merge_from_is_set_union(
        left in proptest::collection::vec(0u64..128, 0..80),
        right in proptest::collection::vec(0u64..128, 0..80),
    ) {
        let mut set: RowSet = left.iter().copied().collect();
        set.merge_from(&right.iter().copied().collect());
        let model: BTreeSet<u64> = left.into_iter().chain(right).collect();
        assert_matches(&set, &model, 128);
    }

    #[test]
    fn commit_diffs_accumulate_like_sets_with_added_winning(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u64..128, 0..40),
            4..5,
        ),
    ) {
        let set = |rows: &[u64]| rows.iter().copied().collect::<RowSet>();
        let mut diff = CommitDiff { added: set(&rows[0]), updated: set(&rows[1]) };
        diff.merge_from(&CommitDiff { added: set(&rows[2]), updated: set(&rows[3]) });
        let added: BTreeSet<u64> = rows[0].iter().chain(&rows[2]).copied().collect();
        let updated: BTreeSet<u64> = rows[1]
            .iter()
            .chain(&rows[3])
            .copied()
            .filter(|row| !added.contains(row))
            .collect();
        assert_matches(&diff.added, &added, 128);
        assert_matches(&diff.updated, &updated, 128);
    }
}
