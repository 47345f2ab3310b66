//! Property test: [`Row`] against a `BTreeMap<String, Sample>` model —
//! what a row was before it held a sorted `Vec`. Names come from a small
//! set, so inserts replace, takes hit and miss, and the order of names
//! differs from the order they arrive in. Also: an append that names an
//! unknown or hidden tensor writes nothing.

use std::collections::BTreeMap;
use std::sync::Arc;

use deeplake_core::dataset::TensorOptions;
use deeplake_core::{CoreError, Dataset, Row};
use deeplake_storage::MemoryProvider;
use deeplake_tensor::{Dtype, Htype, Sample};
use proptest::prelude::*;

const NAMES: [&str; 6] = ["labels", "a", "images", "emb", "b/c", "ab"];

/// A `u8` sample of `len` copies of `value` (a scalar when `len` is 0).
fn sample(value: u8, len: u8) -> Sample {
    match len {
        0 => Sample::scalar(value),
        n => Sample::from_slice([u64::from(n)], &vec![value; n as usize]).unwrap(),
    }
}

fn assert_matches(row: &Row, model: &BTreeMap<String, Sample>) {
    assert_eq!(row.len(), model.len());
    assert_eq!(row.is_empty(), model.is_empty());
    assert!(row.tensors().eq(model.keys().map(String::as_str)));
    assert!(row.iter().eq(model.iter().map(|(k, v)| (k.as_str(), v))));
    assert_eq!(
        row.nbytes(),
        model.values().map(Sample::nbytes).sum::<usize>()
    );
    for name in NAMES {
        assert_eq!(row.get(name), model.get(name), "{name}");
    }
    let rebuilt: Row = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(&rebuilt, row);
    assert_eq!(row.clone(), *row);
    assert_eq!(format!("{row:?}"), format!("Row {{ values: {model:?} }}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_row_behaves_as_a_btreemap(
        ops in proptest::collection::vec((0u8..4, 0usize..NAMES.len(), any::<u8>(), 0u8..4), 0..40),
    ) {
        let mut row = Row::new();
        let mut model: BTreeMap<String, Sample> = BTreeMap::new();
        for (op, name, value, len) in ops {
            let name = NAMES[name];
            match op {
                0 => {
                    row = row.with(name, sample(value, len));
                    model.insert(name.to_string(), sample(value, len));
                }
                1 => {
                    row.set(name.to_string(), sample(value, len));
                    model.insert(name.to_string(), sample(value, len));
                }
                2 => prop_assert_eq!(row.take(name), model.remove(name)),
                _ => prop_assert_eq!(row.get(name), model.get(name)),
            }
            assert_matches(&row, &model);
        }
    }

    #[test]
    fn collecting_keeps_the_last_value_of_a_name(
        pairs in proptest::collection::vec((0usize..NAMES.len(), any::<u8>(), 0u8..4), 0..24),
    ) {
        let pairs: Vec<(&str, Sample)> = pairs
            .into_iter()
            .map(|(name, value, len)| (NAMES[name], sample(value, len)))
            .collect();
        let model: BTreeMap<String, Sample> =
            pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        let borrowed: Row = pairs.iter().cloned().collect();
        let owned: Row = pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        assert_matches(&borrowed, &model);
        prop_assert_eq!(owned, borrowed);
    }

    #[test]
    fn rows_are_equal_when_their_maps_are(
        left in proptest::collection::vec((0usize..3, 0u8..3), 0..6),
        right in proptest::collection::vec((0usize..3, 0u8..3), 0..6),
    ) {
        let build = |pairs: &[(usize, u8)]| {
            let row: Row = pairs.iter().map(|&(k, v)| (NAMES[k], Sample::scalar(v))).collect();
            let model: BTreeMap<&str, Sample> =
                pairs.iter().map(|&(k, v)| (NAMES[k], Sample::scalar(v))).collect();
            (row, model)
        };
        let ((l, lm), (r, rm)) = (build(&left), build(&right));
        prop_assert_eq!(l == r, lm == rm);
    }
}

#[test]
fn an_append_naming_an_unknown_or_hidden_tensor_writes_nothing() {
    let mut ds = Dataset::create(Arc::new(MemoryProvider::new()), "atomic").unwrap();
    ds.create_tensor("a", Htype::ClassLabel, None).unwrap();
    ds.create_tensor("m", Htype::ClassLabel, None).unwrap();
    let mut hidden = TensorOptions::new(Htype::Generic);
    hidden.dtype = Some(Dtype::U8);
    hidden.hidden = true;
    ds.create_tensor_opts("h", hidden).unwrap();
    ds.extend_rows([Row::new().with("a", Sample::scalar(1i32))])
        .unwrap();
    // the unknown and the hidden name sort after tensors the row also
    // names, which must not have been written when the row is refused
    let unknown = Row::new()
        .with("a", Sample::scalar(2i32))
        .with("m", Sample::scalar(2i32))
        .with("z", Sample::scalar(2i32));
    let hidden = Row::new()
        .with("a", Sample::scalar(3i32))
        .with("h", Sample::scalar(3u8));
    let ids = Row::new()
        .with("a", Sample::scalar(4i32))
        .with("_ids", Sample::scalar(4u64));
    for row in [unknown, hidden, ids] {
        let err = ds.extend_rows([row]).unwrap_err();
        assert!(matches!(err, CoreError::NoSuchTensor(_)), "{err}");
        assert_eq!(ds.len(), 1);
        for tensor in ["a", "m", "h"] {
            assert_eq!(ds.store(tensor).unwrap().len(), 1, "{tensor}");
        }
    }
    assert_eq!(ds.get("a", 0).unwrap(), Sample::scalar(1i32));
}
