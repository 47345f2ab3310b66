//! Ring-buffer slow-query log: the last N queries that crossed the
//! hub's latency threshold, with their span breakdowns.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::registry::Counter;
use crate::trace::SpanRecord;

/// One slow query: identity (trace/span ids), what ran (canonical TQL
/// text — never the raw client bytes — plus dataset and version), and
/// where the time went (stage spans, all parented under `root_span`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// Trace the request belonged to (0 for an untraced legacy client).
    pub trace_id: u64,
    /// The hub-side request span — root of the `spans` breakdown.
    pub root_span: u64,
    /// The client-side span that sent the request (0 when untraced).
    pub parent_span: u64,
    /// Mounted dataset name the query ran against.
    pub dataset: String,
    /// Head/commit id the query resolved to (empty if unknown).
    pub version: String,
    /// Canonical query text (whitespace/version normalized).
    pub text: String,
    /// End-to-end hub time in nanoseconds.
    pub total_ns: u64,
    /// Stage breakdown (queue_wait, cache_lookup, execute, storage, …).
    pub spans: Vec<SpanRecord>,
}

/// Fixed-capacity ring of [`SlowQueryEntry`] values. Pushing when full
/// evicts the oldest entry (counted in [`SlowQueryLog::evictions`], so
/// a saturated ring is detectable from a snapshot); readers get a clone
/// of the current contents, oldest first.
pub struct SlowQueryLog {
    cap: usize,
    ring: Mutex<VecDeque<SlowQueryEntry>>,
    evicted: Counter,
}

impl SlowQueryLog {
    /// A log holding at most `cap` entries (`cap == 0` disables it).
    pub fn new(cap: usize) -> Self {
        SlowQueryLog {
            cap,
            ring: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            evicted: Counter::new(),
        }
    }

    /// Capacity the log was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Append an entry, evicting the oldest when full.
    pub fn push(&self, entry: SlowQueryEntry) {
        if self.cap == 0 {
            return;
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.cap {
            ring.pop_front();
            self.evicted.inc();
        }
        ring.push_back(entry);
    }

    /// Entries evicted to make room since the log was built. A nonzero,
    /// growing value means the ring is saturated — the oldest slow
    /// queries are being lost and the hub's `slow_query_threshold`
    /// should rise.
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }

    /// The live eviction counter, for registering into a
    /// [`MetricsRegistry`](crate::MetricsRegistry) so eviction pressure
    /// shows up in every snapshot.
    pub fn evicted_counter(&self) -> &Counter {
        &self.evicted
    }

    /// Current contents, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Drop every entry.
    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(text: &str, total_ns: u64) -> SlowQueryEntry {
        SlowQueryEntry {
            trace_id: 1,
            root_span: 2,
            parent_span: 0,
            dataset: "ds".into(),
            version: "v".into(),
            text: text.into(),
            total_ns,
            spans: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let log = SlowQueryLog::new(3);
        for i in 0..5u64 {
            log.push(entry(&format!("q{i}"), i));
        }
        let texts: Vec<String> = log.entries().into_iter().map(|e| e.text).collect();
        assert_eq!(texts, ["q2", "q3", "q4"], "oldest two evicted, order kept");
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 2, "both evictions counted");
    }

    #[test]
    fn eviction_counter_stays_zero_until_saturated() {
        let log = SlowQueryLog::new(4);
        log.push(entry("q", 1));
        log.push(entry("q", 2));
        assert_eq!(log.evicted(), 0);
        // the registered handle is live: it sees later evictions
        let handle = log.evicted_counter().clone();
        for i in 0..10u64 {
            log.push(entry("q", i));
        }
        assert_eq!(handle.get(), 8);
    }

    #[test]
    fn zero_capacity_disables() {
        let log = SlowQueryLog::new(0);
        log.push(entry("q", 1));
        assert!(log.is_empty());
    }

    #[test]
    fn clear_empties() {
        let log = SlowQueryLog::new(4);
        log.push(entry("q", 1));
        log.clear();
        assert!(log.is_empty());
    }
}
