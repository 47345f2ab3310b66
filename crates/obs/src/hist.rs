//! Fixed-bucket log-scale latency histogram.
//!
//! Values (nanoseconds by convention) land in one of [`BUCKETS`] atomic
//! buckets: 4 linear sub-buckets per power of two, so a bucket's width
//! is at most a quarter of its lower bound. Quantiles read back the
//! bucket midpoint (clamped to the exact max), which keeps the estimate
//! within one bucket width — ≤ 25% relative error worst-case, ≤ 12.5%
//! in the common unclamped case — tight enough to compare tail
//! latencies across PRs while the whole histogram stays one fixed
//! allocation that records with three relaxed atomic ops and no locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sub-bucket resolution: `1 << SUB` linear buckets per power of two.
const SUB: u32 = 2;

/// Total bucket count covering the full `u64` range.
pub const BUCKETS: usize = ((63 - SUB as usize + 1) << SUB) + (1 << SUB);

/// Bucket index for a value. Values below `1 << SUB` get exact buckets;
/// above, the top `SUB` bits below the most significant bit pick the
/// sub-bucket within the value's octave.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB)) & ((1 << SUB) - 1)) as usize;
    (((msb - SUB + 1) as usize) << SUB) + sub
}

/// Inclusive lower bound of a bucket (the inverse of [`bucket_index`]).
pub(crate) fn bucket_low(i: usize) -> u64 {
    if i < (1 << SUB) {
        return i as u64;
    }
    let msb = (i >> SUB) as u32 + SUB - 1;
    let sub = (i & ((1 << SUB) - 1)) as u64;
    (1u64 << msb) + (sub << (msb - SUB))
}

/// Width of a bucket in value units.
pub(crate) fn bucket_width(i: usize) -> u64 {
    if i < (1 << SUB) {
        return 1;
    }
    let msb = (i >> SUB) as u32 + SUB - 1;
    1u64 << (msb - SUB)
}

struct HistCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A shared latency histogram handle. Clones share the same buckets, so
/// any number of threads record into one logical instrument — there is
/// nothing to merge at read time beyond taking a [`snapshot`].
///
/// [`snapshot`]: Histogram::snapshot
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram(Arc::new(HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Record one value. Lock-free, allocation-free: one bucket
    /// increment plus count/sum/max updates, all relaxed.
    pub fn record(&self, v: u64) {
        let c = &*self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        // the max only rises: a value at or under it costs a load, not a
        // locked read-modify-write
        if v > c.max.load(Ordering::Relaxed) {
            c.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Freeze the current contents into an owned, serializable value.
    /// Concurrent recorders may land between bucket reads; the snapshot
    /// is consistent enough for monitoring (counts never go backwards).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &*self.0;
        let mut buckets = Vec::new();
        for (i, b) in c.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        // derive the total from the buckets actually read so the
        // snapshot is internally consistent under concurrent recording
        let count = buckets.iter().map(|&(_, n)| n).sum();
        HistogramSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram contents: sparse `(bucket index, count)` pairs in
/// index order plus exact `count` / `sum` / `max`. Mergeable, so
/// per-node or per-process histograms can aggregate into one view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The quantile `q` in `[0, 1]`: the bucket-midpoint estimate of the
    /// sample at rank `round(q * (count - 1))` — the same rank rule the
    /// exact percentile helpers in `deeplake-bench` use, so the two
    /// agree within the bucket error bound. Returns 0 on an empty
    /// histogram; `q = 1` returns the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        if rank >= self.count - 1 {
            return self.max; // the top order statistic is tracked exactly
        }
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen > rank {
                let i = i as usize;
                let mid = bucket_low(i) + bucket_width(i) / 2;
                // the max is exact and any recorded value in this bucket
                // is ≥ its lower bound, so clamping only improves the
                // top bucket's estimate
                return mid.min(self.max.max(bucket_low(i)));
            }
        }
        self.max
    }

    /// What was recorded between an `earlier` snapshot of the same
    /// histogram and this one: buckets, `count` and `sum` subtract
    /// exactly (saturating, so mismatched snapshots yield zeros, not a
    /// wrap). The interval's own max is not tracked, so `max` is the
    /// lifetime max clamped to the upper edge of the highest bucket the
    /// interval touched — within one bucket width of the true value,
    /// and exact when nothing preceded the interval
    /// (`delta_since(&empty)` is the identity).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut before = earlier.buckets.iter().peekable();
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for &(i, n) in &self.buckets {
            while before.next_if(|&&(bi, _)| bi < i).is_some() {}
            let had = before.next_if(|&&(bi, _)| bi == i).map_or(0, |&(_, bn)| bn);
            if n > had {
                buckets.push((i, n - had));
            }
        }
        let top_edge = buckets.last().map_or(0, |&(i, _)| {
            bucket_low(i as usize) + (bucket_width(i as usize) - 1)
        });
        HistogramSnapshot {
            count: buckets.iter().map(|&(_, n)| n).sum(),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max.min(top_edge),
            buckets,
        }
    }

    /// Fold another snapshot into this one (bucket-wise sum, saturating
    /// totals) — aggregation across processes or nodes.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ai, an)), Some(&&(bi, bn))) => {
                    if ai == bi {
                        merged.push((ai, an.saturating_add(bn)));
                        a.next();
                        b.next();
                    } else if ai < bi {
                        merged.push((ai, an));
                        a.next();
                    } else {
                        merged.push((bi, bn));
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_inverts() {
        let mut vals: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            for off in [0u64, 1, 2, 3] {
                vals.push((1u64 << shift).saturating_add(off << shift.saturating_sub(3)));
            }
        }
        vals.sort_unstable();
        vals.dedup();
        let mut last = 0usize;
        for &v in &vals {
            let i = bucket_index(v);
            assert!(i >= last, "index went backwards at {v}");
            last = i;
            assert!(bucket_low(i) <= v, "low({i}) > {v}");
            assert!(
                v - bucket_low(i) < bucket_width(i),
                "{v} outside bucket {i}"
            );
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // every bucket's low maps back to that bucket
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_low(i)), i);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 6);
        assert_eq!(s.max, 3);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 3);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms in ns
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        assert!(
            (p50 as i64 - 500_000).unsigned_abs() <= 500_000 / 8 + 1,
            "p50 = {p50}"
        );
        assert!(
            (p99 as i64 - 990_000).unsigned_abs() <= 990_000 / 8 + 1,
            "p99 = {p99}"
        );
        assert_eq!(s.quantile(1.0), 1_000_000, "max is exact");
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [5u64, 100, 100_000] {
            a.record(v);
        }
        for v in [5u64, 7_777_777] {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 5);
        assert_eq!(m.sum, 5 + 100 + 100_000 + 5 + 7_777_777);
        assert_eq!(m.max, 7_777_777);
        let direct = {
            let h = Histogram::new();
            for v in [5u64, 100, 100_000, 5, 7_777_777] {
                h.record(v);
            }
            h.snapshot()
        };
        assert_eq!(m, direct, "merge equals recording into one histogram");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
