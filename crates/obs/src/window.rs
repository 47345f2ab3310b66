//! Sliding-window rate instruments: recent throughput and recent tail
//! latency, where the monotonic [`Counter`]/[`Histogram`] instruments
//! only give lifetime totals.
//!
//! Both instruments share one design: a ring of [`SLOTS`] per-second
//! slots, each stamped with the absolute second it currently holds.
//! Recording claims the current second's slot (a CAS on the stamp; the
//! winner zeroes the slot's payload) and then increments atomically, so
//! the hot path stays lock-free and allocation-free like the rest of
//! the crate. Reading sums the slots whose stamps fall inside the
//! window. A recorder racing a slot reset at a second boundary can lose
//! or double a handful of events — monitoring-grade, the same contract
//! [`Histogram::snapshot`] already has — and slots older than
//! [`SLOTS`] seconds are simply stale-stamped, so nothing ever needs a
//! sweeper thread.
//!
//! Windows are fixed at 1 s / 10 s / 60 s ([`WINDOW_SECS`]); snapshot
//! consumers derive per-second rates by dividing a window's count by
//! its width. Time is seconds since process start (a process-local
//! monotonic epoch), never wall clock, so rates are immune to clock
//! steps; the `*_at` variants take an explicit second for deterministic
//! tests.
//!
//! [`Counter`]: crate::Counter
//! [`Histogram`]: crate::Histogram
//! [`Histogram::snapshot`]: crate::Histogram::snapshot

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::hist::{bucket_index, HistogramSnapshot, BUCKETS};

/// Ring size in seconds. Must exceed the widest window so a window read
/// never aliases two different seconds onto one slot.
const SLOTS: usize = 64;

/// The three window widths every rate instrument reports, in seconds.
pub const WINDOW_SECS: [u64; 3] = [1, 10, 60];

/// Seconds elapsed since the process-local epoch (first use anywhere in
/// the process). Monotonic, immune to wall-clock steps.
fn now_sec() -> u64 {
    sec_of(Instant::now())
}

/// The second an event at `at` is filed under by [`RateWindow::add`]
/// and [`WindowedHistogram::record`]: seconds since the process-local
/// epoch (an instant before it is second 0). A caller that has already
/// read the clock passes this to the `*_at` variants instead of paying
/// another reading.
pub fn sec_of(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    at.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_secs()
}

/// Claim `slot`'s stamp for absolute second `sec`. Returns `true` when
/// this caller won the claim and must zero the slot's payload before
/// adding to it.
fn claim(stamp: &AtomicU64, sec: u64) -> bool {
    // stamps store sec+1 so the zero-initialized ring never collides
    // with a real second 0 .. SLOTS-1
    let want = sec + 1;
    let cur = stamp.load(Ordering::Acquire);
    cur != want
        && stamp
            .compare_exchange(cur, want, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
}

fn stamped(stamp: &AtomicU64, sec: u64) -> bool {
    stamp.load(Ordering::Acquire) == sec + 1
}

struct RateSlot {
    stamp: AtomicU64,
    value: AtomicU64,
}

struct RateCore {
    slots: [RateSlot; SLOTS],
}

/// A sliding-window event/byte counter: `add` is lock-free, `counts`
/// reads back how much landed in the last 1 s / 10 s / 60 s. Cheap-clone
/// handle like [`Counter`](crate::Counter) — clones share the ring.
#[derive(Clone)]
pub struct RateWindow(Arc<RateCore>);

impl Default for RateWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl RateWindow {
    /// A fresh, empty rate window.
    pub fn new() -> Self {
        RateWindow(Arc::new(RateCore {
            slots: std::array::from_fn(|_| RateSlot {
                stamp: AtomicU64::new(0),
                value: AtomicU64::new(0),
            }),
        }))
    }

    /// Record `n` events/bytes at the current second.
    pub fn add(&self, n: u64) {
        self.add_at(n, now_sec());
    }

    /// Record one event at the current second.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Record `n` at an explicit absolute second — the deterministic
    /// variant tests drive instead of the real clock.
    pub fn add_at(&self, n: u64, sec: u64) {
        let slot = &self.0.slots[(sec as usize) % SLOTS];
        if claim(&slot.stamp, sec) {
            slot.value.store(0, Ordering::Release);
        }
        slot.value.fetch_add(n, Ordering::AcqRel);
    }

    /// Totals over the last [`WINDOW_SECS`] windows, current (partial)
    /// second included.
    pub fn counts(&self) -> [u64; 3] {
        self.counts_at(now_sec())
    }

    /// Window totals as of an explicit absolute second.
    pub fn counts_at(&self, sec: u64) -> [u64; 3] {
        let mut out = [0u64; 3];
        for (i, w) in WINDOW_SECS.iter().enumerate() {
            let start = sec.saturating_sub(w - 1);
            for s in start..=sec {
                let slot = &self.0.slots[(s as usize) % SLOTS];
                if stamped(&slot.stamp, s) {
                    out[i] += slot.value.load(Ordering::Acquire);
                }
            }
        }
        out
    }

    /// Freeze the current window totals.
    pub fn snapshot(&self) -> RateSnapshot {
        RateSnapshot {
            counts: self.counts(),
        }
    }

    /// Freeze window totals as of an explicit absolute second.
    pub fn snapshot_at(&self, sec: u64) -> RateSnapshot {
        RateSnapshot {
            counts: self.counts_at(sec),
        }
    }
}

impl std::fmt::Debug for RateWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counts();
        write!(f, "RateWindow(1s={} 10s={} 60s={})", c[0], c[1], c[2])
    }
}

/// Frozen window totals: events (or bytes) that landed in the last
/// 1 s / 10 s / 60 s, index-aligned with [`WINDOW_SECS`]. Per-second
/// rates are derived at display time ([`RateSnapshot::per_sec`]), so
/// the wire carries exact integers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateSnapshot {
    /// Window totals, index-aligned with [`WINDOW_SECS`].
    pub counts: [u64; 3],
}

impl RateSnapshot {
    /// Events per second over window `i` (an index into
    /// [`WINDOW_SECS`]).
    pub fn per_sec(&self, i: usize) -> f64 {
        self.counts[i] as f64 / WINDOW_SECS[i] as f64
    }

    /// Element-wise sum — fleet aggregation across nodes.
    pub fn merge(&mut self, other: &RateSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

struct HistSlot {
    stamp: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

struct WindowedHistCore {
    slots: [HistSlot; SLOTS],
}

/// A sliding-window latency histogram: the same log-scale buckets as
/// [`Histogram`](crate::Histogram), but per-second slots, so quantiles
/// can be read over the last 1 s / 10 s / 60 s instead of the process
/// lifetime. One instrument holds `SLOTS × BUCKETS` atomics (~128 KiB);
/// meant for a handful of hot-path latencies per process, not for every
/// stage.
#[derive(Clone)]
pub struct WindowedHistogram(Arc<WindowedHistCore>);

impl Default for WindowedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedHistogram {
    /// A fresh, empty windowed histogram.
    pub fn new() -> Self {
        WindowedHistogram(Arc::new(WindowedHistCore {
            slots: std::array::from_fn(|_| HistSlot {
                stamp: AtomicU64::new(0),
                max: AtomicU64::new(0),
                buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            }),
        }))
    }

    /// Record one value (nanoseconds by convention) at the current
    /// second.
    pub fn record(&self, v: u64) {
        self.record_at(v, now_sec());
    }

    /// Record at an explicit absolute second (deterministic tests).
    pub fn record_at(&self, v: u64, sec: u64) {
        let slot = &self.0.slots[(sec as usize) % SLOTS];
        if claim(&slot.stamp, sec) {
            for b in slot.buckets.iter() {
                b.store(0, Ordering::Relaxed);
            }
            slot.max.store(0, Ordering::Release);
        }
        slot.buckets[bucket_index(v)].fetch_add(1, Ordering::AcqRel);
        if v > slot.max.load(Ordering::Acquire) {
            slot.max.fetch_max(v, Ordering::AcqRel);
        }
    }

    /// Merge the slots of the last [`WINDOW_SECS`] seconds into one
    /// [`HistogramSnapshot`] per window (current partial second
    /// included). Quantiles, mean and max then read exactly like the
    /// lifetime histogram's.
    pub fn snapshots(&self) -> [HistogramSnapshot; 3] {
        self.snapshots_at(now_sec())
    }

    /// Window snapshots as of an explicit absolute second.
    pub fn snapshots_at(&self, sec: u64) -> [HistogramSnapshot; 3] {
        std::array::from_fn(|i| {
            let w = WINDOW_SECS[i];
            let mut acc = vec![0u64; BUCKETS];
            let mut max = 0u64;
            let start = sec.saturating_sub(w - 1);
            for s in start..=sec {
                let slot = &self.0.slots[(s as usize) % SLOTS];
                if !stamped(&slot.stamp, s) {
                    continue;
                }
                for (a, b) in acc.iter_mut().zip(slot.buckets.iter()) {
                    *a += b.load(Ordering::Acquire);
                }
                max = max.max(slot.max.load(Ordering::Acquire));
            }
            let buckets: Vec<(u32, u64)> = acc
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n))
                .collect();
            let count = buckets.iter().map(|&(_, n)| n).sum();
            // the per-slot sum is not tracked (only buckets and max), so
            // the windowed mean is bucket-estimated: midpoints weighted
            // by counts, the same error bound quantiles carry
            let sum = buckets
                .iter()
                .map(|&(i, n)| {
                    let i = i as usize;
                    let mid = crate::hist::bucket_low(i) + crate::hist::bucket_width(i) / 2;
                    mid.min(max) * n
                })
                .sum();
            HistogramSnapshot {
                count,
                sum,
                max,
                buckets,
            }
        })
    }
}

impl std::fmt::Debug for WindowedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshots();
        write!(
            f,
            "WindowedHistogram(1s={} 10s={} 60s={})",
            s[0].count, s[1].count, s[2].count
        )
    }
}

/// Suffix a windowed instrument's name with its window: `w1`, `w10`,
/// `w60` for the 1 s / 10 s / 60 s windows — the naming convention
/// snapshot consumers key on (`hub.query_ns.w10`).
pub fn window_name(base: &str, i: usize) -> String {
    format!("{base}.w{}", WINDOW_SECS[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_count_inclusively() {
        let r = RateWindow::new();
        // 5 events at second 100, 3 at 105, 2 at 140
        r.add_at(5, 100);
        r.add_at(3, 105);
        r.add_at(2, 140);
        assert_eq!(r.counts_at(140), [2, 2, 10], "60s window sees all three");
        assert_eq!(r.counts_at(105), [3, 8, 8]);
        assert_eq!(r.counts_at(100), [5, 5, 5]);
        // the 60s window [140, 199] still includes second 140…
        assert_eq!(r.counts_at(199), [0, 0, 2]);
        // …and one second later everything has aged out
        assert_eq!(r.counts_at(200), [0, 0, 0]);
    }

    #[test]
    fn stale_slots_are_reclaimed_on_write() {
        let r = RateWindow::new();
        r.add_at(7, 10);
        // second 10 + SLOTS lands on the same slot; the old 7 must not leak
        let aliased = 10 + SLOTS as u64;
        r.add_at(1, aliased);
        assert_eq!(r.counts_at(aliased), [1, 1, 1]);
    }

    /// A reading the caller already holds files an event under the
    /// second the instrument's own reading would have.
    #[test]
    fn a_given_reading_files_under_its_own_second() {
        let now = Instant::now();
        let sec = sec_of(now);
        assert_eq!(sec_of(now + std::time::Duration::from_secs(3)), sec + 3);
        assert!(sec <= now_sec());
        let r = RateWindow::new();
        r.add_at(2, sec_of(Instant::now()));
        r.add(3);
        assert_eq!(r.counts()[2], 5);
    }

    #[test]
    fn second_zero_counts() {
        let r = RateWindow::new();
        r.add_at(4, 0);
        assert_eq!(r.counts_at(0), [4, 4, 4]);
    }

    #[test]
    fn rates_divide_by_window_width() {
        let r = RateWindow::new();
        for s in 0..10u64 {
            r.add_at(100, s);
        }
        let snap = r.snapshot_at(9);
        assert_eq!(snap.counts, [100, 1000, 1000]);
        assert_eq!(snap.per_sec(0), 100.0);
        assert_eq!(snap.per_sec(1), 100.0);
        // the 60s window has only 10s of data; its rate underestimates
        // until the window fills — by design, rates never spike on start
        assert!((snap.per_sec(2) - 1000.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_elementwise() {
        let mut a = RateSnapshot { counts: [1, 2, 3] };
        a.merge(&RateSnapshot {
            counts: [10, 20, 30],
        });
        assert_eq!(a.counts, [11, 22, 33]);
    }

    #[test]
    fn concurrent_adds_within_a_second_are_lossless() {
        let r = RateWindow::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = r.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.add_at(1, 42);
                    }
                });
            }
        });
        assert_eq!(r.counts_at(42), [8000, 8000, 8000]);
    }

    #[test]
    fn windowed_histogram_tracks_recent_quantiles() {
        let h = WindowedHistogram::new();
        // slow second, then a fast one
        for v in 1..=100u64 {
            h.record_at(v * 1_000_000, 50); // 1..100 ms
        }
        for v in 1..=100u64 {
            h.record_at(v * 1_000, 51); // 1..100 µs
        }
        let [w1, w10, _] = h.snapshots_at(51);
        assert_eq!(w1.count, 100, "1s window sees only the fast second");
        assert!(w1.quantile(0.99) < 1_000_000, "fast second p99 under 1ms");
        assert_eq!(w10.count, 200, "10s window sees both");
        assert_eq!(w10.max, 100_000_000);
        // the slow second dominates the 10s p99
        assert!(w10.quantile(0.99) > 10_000_000);
        // aged out entirely
        let [old, _, _] = h.snapshots_at(200);
        assert!(old.is_empty());
    }

    #[test]
    fn windowed_histogram_slot_aliasing_resets() {
        let h = WindowedHistogram::new();
        h.record_at(5_000, 7);
        h.record_at(9_000, 7 + SLOTS as u64);
        let [w1, _, _] = h.snapshots_at(7 + SLOTS as u64);
        assert_eq!(w1.count, 1, "aliased slot was reset");
        assert_eq!(w1.max, 9_000);
    }

    #[test]
    fn window_names_carry_the_suffix() {
        assert_eq!(window_name("hub.query_ns", 0), "hub.query_ns.w1");
        assert_eq!(window_name("hub.query_ns", 2), "hub.query_ns.w60");
    }
}
