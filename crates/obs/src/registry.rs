//! Named instruments: counters, gauges, and the registry that shares
//! them by name.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::events::FlightEvent;
use crate::hist::{Histogram, HistogramSnapshot};
use crate::slowlog::SlowQueryEntry;
use crate::window::{window_name, RateSnapshot, RateWindow, WindowedHistogram};

/// A monotonically increasing event/byte counter — there is no reset;
/// an interval is the difference of two reads. Cheap-clone handle:
/// clones share the same atomic, so a counter registered once can be
/// incremented from any thread that holds a handle.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the value to `v` if it is currently lower — a high-water
    /// mark (peak queue depth, largest buffered response). A counter
    /// used this way is still monotone, just not additive.
    pub fn record_max(&self, v: u64) {
        if v > self.0.load(Ordering::Relaxed) {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A settable signed gauge (queue depths, open connections).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    rates: Mutex<BTreeMap<String, RateWindow>>,
    windows: Mutex<BTreeMap<String, WindowedHistogram>>,
}

/// The instrument namespace: `name → instrument`, get-or-create. The
/// registry hands every caller asking for a name the *same* shared
/// instrument, so recording stays lock-free (the lock guards only the
/// name map, taken at registration time, never on the record path).
///
/// Cheap-clone: clones share the namespace, so a hub can hand its
/// registry to worker threads, the result cache, and mounted storage
/// providers, and one [`snapshot`](MetricsRegistry::snapshot) sees them
/// all.
#[derive(Clone, Default)]
pub struct MetricsRegistry(Arc<RegistryInner>);

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.0.counters.lock();
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::new();
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.0.gauges.lock();
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Gauge::new();
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.0.histograms.lock();
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Histogram::new();
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// The sliding-window rate named `name`, created empty on first
    /// use. By convention a rate shares its base name with the
    /// monotonic counter it shadows plus a `_rate` suffix
    /// (`hub.queries_rate` beside `hub.queries`); the snapshot reports
    /// its window totals in [`MetricsSnapshot::rates`], never mixed
    /// into the monotonic counters.
    pub fn rate(&self, name: &str) -> RateWindow {
        let mut map = self.0.rates.lock();
        match map.get(name) {
            Some(r) => r.clone(),
            None => {
                let r = RateWindow::new();
                map.insert(name.to_string(), r.clone());
                r
            }
        }
    }

    /// The windowed histogram named `name`, created empty on first use.
    /// The snapshot emits one [`HistogramSnapshot`] per window into
    /// [`MetricsSnapshot::histograms`] under window-suffixed names
    /// (`<name>.w1`, `<name>.w10`, `<name>.w60`), so windowed quantiles
    /// travel the wire with no new shape.
    pub fn windowed(&self, name: &str) -> WindowedHistogram {
        let mut map = self.0.windows.lock();
        match map.get(name) {
            Some(w) => w.clone(),
            None => {
                let w = WindowedHistogram::new();
                map.insert(name.to_string(), w.clone());
                w
            }
        }
    }

    /// Register an *existing* counter handle under `name` — how a
    /// pre-built stats bag (e.g. a storage provider's `StorageStats`)
    /// attaches its already-live counters to a registry after the fact.
    /// Replaces any instrument previously under that name.
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        self.0
            .counters
            .lock()
            .insert(name.to_string(), counter.clone());
    }

    /// Freeze every instrument into an owned snapshot (names ascending).
    /// Windowed histograms contribute one entry per window to
    /// `histograms` under `.w1`/`.w10`/`.w60` suffixed names. The
    /// slow-query and event lists start empty — the owner of a
    /// [`SlowQueryLog`](crate::SlowQueryLog) /
    /// [`FlightRecorder`](crate::FlightRecorder) appends its entries
    /// before shipping the snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut histograms: BTreeMap<String, HistogramSnapshot> = self
            .0
            .histograms
            .lock()
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        for (name, w) in self.0.windows.lock().iter() {
            for (i, snap) in w.snapshots().into_iter().enumerate() {
                histograms.insert(window_name(name, i), snap);
            }
        }
        MetricsSnapshot {
            counters: self
                .0
                .counters
                .lock()
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .0
                .gauges
                .lock()
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: histograms.into_iter().collect(),
            rates: self
                .0
                .rates
                .lock()
                .iter()
                .map(|(k, r)| (k.clone(), r.snapshot()))
                .collect(),
            slow_queries: Vec::new(),
            events: Vec::new(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.0.counters.lock().len())
            .field("gauges", &self.0.gauges.lock().len())
            .field("histograms", &self.0.histograms.lock().len())
            .field("rates", &self.0.rates.lock().len())
            .field("windows", &self.0.windows.lock().len())
            .finish()
    }
}

/// A frozen registry: plain owned values, safe to serialize and ship
/// over the wire (the hub's `Metrics` opcode returns one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, names ascending.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, names ascending.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` pairs, names ascending. Windowed histograms
    /// appear under window-suffixed names (`hub.query_ns.w10`).
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, window totals)` pairs, names ascending. Kept apart from
    /// `counters`: window totals go *down* as events age out, so mixing
    /// them in would break the "counters are monotonic" contract
    /// scrape-diffing relies on.
    pub rates: Vec<(String, RateSnapshot)>,
    /// Slow-query ring contents, oldest first.
    pub slow_queries: Vec<SlowQueryEntry>,
    /// Flight-recorder contents, oldest first.
    pub events: Vec<FlightEvent>,
}

impl MetricsSnapshot {
    /// Value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// A histogram snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// A rate window's totals, if present.
    pub fn rate(&self, name: &str) -> Option<&RateSnapshot> {
        self.rates.iter().find(|(k, _)| k == name).map(|(_, r)| r)
    }

    /// Fold another snapshot into this one — fleet aggregation. Named
    /// instruments combine per name (counters/gauges/rates sum,
    /// histograms merge bucket-wise); names only one side has are kept;
    /// every section stays sorted. Slow-query entries concatenate
    /// (their trace ids already distinguish nodes) and events
    /// interleave by wall-clock time, so a merged recorder reads as one
    /// fleet timeline.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        fn by_name<T: Clone>(
            into: &mut Vec<(String, T)>,
            from: &[(String, T)],
            combine: impl Fn(&mut T, &T),
        ) {
            for (name, v) in from {
                match into.iter_mut().find(|(k, _)| k == name) {
                    Some((_, cur)) => combine(cur, v),
                    None => into.push((name.clone(), v.clone())),
                }
            }
            into.sort_by(|a, b| a.0.cmp(&b.0));
        }
        by_name(&mut self.counters, &other.counters, |a, b| {
            *a = a.saturating_add(*b)
        });
        by_name(&mut self.gauges, &other.gauges, |a, b| {
            *a = a.saturating_add(*b)
        });
        by_name(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
        by_name(&mut self.rates, &other.rates, |a, b| a.merge(b));
        self.slow_queries.extend(other.slow_queries.iter().cloned());
        self.events.extend(other.events.iter().cloned());
        // stable: same-millisecond events keep their per-node order
        self.events.sort_by_key(|e| e.at_unix_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_instrument() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hub.requests");
        let b = reg.counter("hub.requests");
        a.add(3);
        b.add(4);
        assert_eq!(reg.counter("hub.requests").get(), 7);

        let h1 = reg.histogram("hub.queue_wait_ns");
        let h2 = reg.histogram("hub.queue_wait_ns");
        h1.record(10);
        h2.record(20);
        assert_eq!(reg.histogram("hub.queue_wait_ns").count(), 2);
    }

    #[test]
    fn register_existing_attaches_live_handle() {
        let reg = MetricsRegistry::new();
        let free = Counter::new();
        free.add(5);
        reg.register_counter("storage.get_requests", &free);
        free.add(2);
        assert_eq!(reg.snapshot().counter("storage.get_requests"), Some(7));
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.gauge("conns").set(-3);
        reg.histogram("lat").record(100);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(snap.counter("a.first"), Some(2));
        assert_eq!(snap.gauge("conns"), Some(-3));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn concurrent_recorders_merge_losslessly() {
        // the satellite "concurrent-recorder merge" guarantee: N threads
        // each holding their own handle to the same named histogram and
        // counter lose nothing
        const THREADS: usize = 8;
        const PER: u64 = 1000;
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = reg.histogram("merge.lat");
                let c = reg.counter("merge.events");
                scope.spawn(move || {
                    for i in 0..PER {
                        h.record((t as u64 + 1) * 1000 + i);
                        c.inc();
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("merge.events"), Some(THREADS as u64 * PER));
        let h = snap.histogram("merge.lat").unwrap();
        assert_eq!(h.count, THREADS as u64 * PER);
        assert_eq!(h.max, THREADS as u64 * 1000 + PER - 1);
    }

    #[test]
    fn rates_and_windows_land_in_the_snapshot() {
        let reg = MetricsRegistry::new();
        reg.rate("hub.queries_rate").add(5);
        reg.windowed("hub.query_ns").record(1_000_000);
        let snap = reg.snapshot();
        let r = snap.rate("hub.queries_rate").unwrap();
        assert_eq!(r.counts[0], 5, "1s window sees the add");
        // windowed quantiles travel as suffixed histogram entries
        for name in ["hub.query_ns.w1", "hub.query_ns.w10", "hub.query_ns.w60"] {
            assert_eq!(snap.histogram(name).unwrap().count, 1, "{name}");
        }
        // rates never leak into the monotonic counters section
        assert_eq!(snap.counter("hub.queries_rate"), None);
        // and the histogram section stays name-sorted with the suffixes in
        let names: Vec<&str> = snap.histograms.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn snapshot_merge_sums_per_name() {
        let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
        a.counter("hub.requests").add(3);
        b.counter("hub.requests").add(4);
        b.counter("only.b").add(9);
        a.gauge("conns").set(2);
        b.gauge("conns").set(5);
        a.histogram("lat").record(100);
        b.histogram("lat").record(200);
        a.rate("qps").add(1);
        b.rate("qps").add(10);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("hub.requests"), Some(7));
        assert_eq!(merged.counter("only.b"), Some(9));
        assert_eq!(merged.gauge("conns"), Some(7));
        let h = merged.histogram("lat").unwrap();
        assert_eq!((h.count, h.max), (2, 200));
        assert_eq!(merged.rate("qps").unwrap().counts[2], 11);
        // merged sections stay sorted
        let names: Vec<&str> = merged.counters.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn merged_events_interleave_by_time() {
        let mut a = MetricsSnapshot {
            events: vec![
                FlightEvent {
                    at_unix_ms: 10,
                    seq: 0,
                    kind: "mount".into(),
                    trace_id: 0,
                    detail: "a0".into(),
                },
                FlightEvent {
                    at_unix_ms: 30,
                    seq: 1,
                    kind: "mount".into(),
                    trace_id: 0,
                    detail: "a1".into(),
                },
            ],
            ..Default::default()
        };
        let b = MetricsSnapshot {
            events: vec![FlightEvent {
                at_unix_ms: 20,
                seq: 0,
                kind: "node.dead".into(),
                trace_id: 0,
                detail: "b0".into(),
            }],
            ..Default::default()
        };
        a.merge(&b);
        let details: Vec<&str> = a.events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, ["a0", "b0", "a1"]);
    }
}
