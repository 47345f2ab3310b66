//! Property test: histogram quantiles against exact sorted quantiles.
//!
//! For arbitrary sample sets and a spread of quantile points, the
//! histogram's bucket-midpoint estimate must land within one bucket
//! width of the exact order statistic — the error bound the hub's
//! latency numbers (and the C10K bench's p50/p99 agreement assert)
//! rely on.

use deeplake_obs::Histogram;
use proptest::prelude::*;

/// The bound the histogram guarantees: one bucket width, i.e. a quarter
/// of the value (plus 1 for integer midpoint rounding and tiny values).
fn bucket_error_bound(exact: u64) -> u64 {
    exact / 4 + 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn quantiles_match_exact_within_bucket_error(
        samples in proptest::collection::vec(0u64..10_000_000_000, 1..400),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.max, *sorted.last().unwrap());

        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
            let exact = sorted[rank];
            let approx = snap.quantile(q);
            prop_assert!(
                approx.abs_diff(exact) <= bucket_error_bound(exact),
                "q={} exact={} approx={} (n={})",
                q, exact, approx, sorted.len()
            );
        }
    }

    #[test]
    fn merged_snapshot_equals_single_recorder(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..200),
    ) {
        let (ha, hb, hall) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &s in &a {
            ha.record(s);
            hall.record(s);
        }
        for &s in &b {
            hb.record(s);
            hall.record(s);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hall.snapshot());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// An interval read as the difference of two snapshots is the
    /// interval recorded alone: exact buckets/count/sum, quantiles
    /// within the same bucket error, and subtracting nothing changes
    /// nothing.
    #[test]
    fn delta_since_equals_recording_the_interval_alone(
        a in proptest::collection::vec(0u64..10_000_000_000, 0..200),
        b in proptest::collection::vec(0u64..10_000_000_000, 0..200),
    ) {
        let (life, only_b) = (Histogram::new(), Histogram::new());
        for &s in &a {
            life.record(s);
        }
        let after_a = life.snapshot();
        for &s in &b {
            life.record(s);
            only_b.record(s);
        }
        let after_b = life.snapshot();
        let fresh = only_b.snapshot();
        let delta = after_b.delta_since(&after_a);

        prop_assert_eq!(&delta.buckets, &fresh.buckets);
        prop_assert_eq!(delta.count, fresh.count);
        prop_assert_eq!(delta.sum, fresh.sum);
        prop_assert!(delta.max >= fresh.max, "max {} under the interval's {}", delta.max, fresh.max);
        prop_assert!(delta.max - fresh.max <= bucket_error_bound(fresh.max));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let (got, want) = (delta.quantile(q), fresh.quantile(q));
            prop_assert!(
                got.abs_diff(want) <= bucket_error_bound(want),
                "q={} delta={} fresh={}", q, got, want
            );
        }

        prop_assert_eq!(after_b.delta_since(&Histogram::new().snapshot()), after_b.clone());
        prop_assert_eq!(after_a.delta_since(&after_a), Histogram::new().snapshot());
    }
}
