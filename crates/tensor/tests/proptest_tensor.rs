//! Property tests for the tensor layer: shape arithmetic, slicing,
//! dtype promotion, sample casting.

use deeplake_tensor::ops::{elementwise, iou, slice_sample};
use deeplake_tensor::{Dtype, Sample, Shape, SliceSpec};
use proptest::prelude::*;

fn arb_dtype() -> impl Strategy<Value = Dtype> {
    proptest::sample::select(Dtype::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn strides_times_dims_cover_all_elements(dims in proptest::collection::vec(1u64..8, 0..4)) {
        let shape = Shape(dims.clone());
        let strides = shape.strides();
        // last index maps to num_elements - 1
        if shape.num_elements() > 0 && shape.rank() > 0 {
            let last: Vec<u64> = dims.iter().map(|d| d - 1).collect();
            prop_assert_eq!(shape.linear_index(&last).unwrap(), shape.num_elements() - 1);
            // first maps to 0
            let first = vec![0u64; shape.rank()];
            prop_assert_eq!(shape.linear_index(&first).unwrap(), 0);
        }
        prop_assert_eq!(strides.len(), shape.rank());
    }

    #[test]
    fn linear_index_is_injective(h in 1u64..6, w in 1u64..6, d in 1u64..6) {
        let shape = Shape::from([h, w, d]);
        let mut seen = std::collections::HashSet::new();
        for y in 0..h {
            for x in 0..w {
                for z in 0..d {
                    let idx = shape.linear_index(&[y, x, z]).unwrap();
                    prop_assert!(seen.insert(idx), "collision at {idx}");
                    prop_assert!(idx < shape.num_elements());
                }
            }
        }
    }

    #[test]
    fn promotion_is_commutative_and_idempotent(a in arb_dtype(), b in arb_dtype()) {
        prop_assert_eq!(a.promote(b), b.promote(a));
        prop_assert_eq!(a.promote(a), a);
        // promotion never shrinks below the wider operand (except bool)
        let p = a.promote(b);
        if a != Dtype::Bool && b != Dtype::Bool {
            prop_assert!(p.size() >= a.size().min(b.size()));
        }
    }

    #[test]
    fn cast_roundtrip_through_wider_type(vals in proptest::collection::vec(0u8..=255, 1..64)) {
        let s = Sample::from_slice([vals.len() as u64], &vals).unwrap();
        // u8 -> f64 -> u8 is lossless
        let back = s.cast(Dtype::F64).cast(Dtype::U8);
        prop_assert_eq!(back.to_vec::<u8>().unwrap(), vals);
    }

    #[test]
    fn full_slice_is_identity(dims in proptest::collection::vec(1u64..6, 1..4)) {
        let shape = Shape(dims.clone());
        let n = shape.num_elements() as usize;
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        let s = Sample::from_slice(shape, &data).unwrap();
        let specs = vec![SliceSpec::Full; dims.len()];
        prop_assert_eq!(slice_sample(&s, &specs).unwrap(), s);
    }

    #[test]
    fn index_chain_equals_direct_lookup(h in 1u64..6, w in 1u64..6, y in 0u64..6, x in 0u64..6) {
        prop_assume!(y < h && x < w);
        let n = (h * w) as usize;
        let data: Vec<u16> = (0..n).map(|i| i as u16).collect();
        let s = Sample::from_slice([h, w], &data).unwrap();
        let sliced =
            slice_sample(&s, &[SliceSpec::Index(y as i64), SliceSpec::Index(x as i64)]).unwrap();
        prop_assert_eq!(sliced.num_elements(), 1);
        prop_assert_eq!(sliced.get_f64(0).unwrap(), s.get_f64_at(&[y, x]).unwrap());
    }

    #[test]
    fn elementwise_add_commutes(
        a in proptest::collection::vec(-100.0f64..100.0, 1..32),
        b_seed in any::<u64>(),
    ) {
        let n = a.len();
        let b: Vec<f64> = (0..n).map(|i| ((b_seed.wrapping_add(i as u64) % 200) as f64) - 100.0).collect();
        let sa = Sample::from_slice([n as u64], &a).unwrap();
        let sb = Sample::from_slice([n as u64], &b).unwrap();
        let ab = elementwise(&sa, &sb, |x, y| x + y).unwrap();
        let ba = elementwise(&sb, &sa, |x, y| x + y).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn iou_is_symmetric_and_bounded(
        boxes_a in proptest::collection::vec((0.0f32..50.0, 0.0f32..50.0, 1.0f32..20.0, 1.0f32..20.0), 1..6),
        boxes_b in proptest::collection::vec((0.0f32..50.0, 0.0f32..50.0, 1.0f32..20.0, 1.0f32..20.0), 1..6),
    ) {
        let flat = |v: &[(f32, f32, f32, f32)]| -> Sample {
            let mut out = Vec::new();
            for &(x, y, w, h) in v {
                out.extend_from_slice(&[x, y, w, h]);
            }
            Sample::from_slice([v.len() as u64, 4], &out).unwrap()
        };
        let (sa, sb) = (flat(&boxes_a), flat(&boxes_b));
        let v = iou(&sa, &sb).unwrap();
        prop_assert!((0.0..=1.0).contains(&v), "iou {v} out of range");
        // identical sets score 1
        prop_assert!((iou(&sa, &sa).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn text_roundtrip(text in "[a-zA-Z0-9 ,.!?]{0,100}") {
        let s = Sample::from_text(&text);
        prop_assert_eq!(s.to_text().unwrap(), text);
    }

    #[test]
    fn union_bounds_contain_both(
        a in proptest::collection::vec(1u64..20, 0..4),
        b in proptest::collection::vec(1u64..20, 0..4),
    ) {
        let sb = Shape(b.clone());
        let (mut max, mut min) = (Shape(a.clone()), Shape(a.clone()));
        max.union_max_with(&sb);
        min.union_min_with(&sb);
        prop_assert_eq!(max.rank(), a.len().max(b.len()));
        prop_assert_eq!(min.rank(), max.rank());
        for i in 0..max.rank() {
            let da = a.get(i).copied().unwrap_or(0);
            let db = b.get(i).copied().unwrap_or(0);
            prop_assert_eq!(max.dim(i), da.max(db));
            prop_assert_eq!(min.dim(i), da.min(db));
        }
    }
}
