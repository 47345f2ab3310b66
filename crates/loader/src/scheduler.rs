//! The epoch's work queue: a shared cursor over equal blocks.
//!
//! An epoch of `total` positions is cut into `total.div_ceil(block)`
//! *tasks* (blocks of consecutive epoch positions, the last one
//! possibly short). Workers claim them in epoch order with one atomic
//! increment; nothing is allocated or sorted, so building the schedule
//! costs the same for ten rows and ten million.
//!
//! §4.6 describes a scheduler that runs CPU-intensive jobs ahead of
//! lighter ones. That ordering needs a per-task cost signal, and the
//! tensor metadata has none: the only estimate available at schedule
//! time (`max_shape × dtype` of the compressed tensors) is one number
//! per dataset, so every full task costs the same and a cost-ordered
//! schedule *is* epoch order. If chunk-level statistics ever carry a
//! per-row decoded size, an ordering over tasks belongs here.
//!
//! Per-task completions show up as the `loader.worker.<i>.tasks`
//! counters, so an uneven split between workers is visible in
//! [`EpochReport::workers`](crate::EpochReport::workers).

use std::sync::atomic::{AtomicUsize, Ordering};

/// One unit of work: positions `[start, end)` of the epoch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// First epoch position.
    pub start: usize,
    /// One past the last epoch position.
    pub end: usize,
}

/// `total` epoch positions in blocks of `block`, claimed by workers
/// through an atomic cursor.
pub struct Scheduler {
    total: usize,
    block: usize,
    cursor: AtomicUsize,
}

impl Scheduler {
    /// A schedule over `total` epoch positions in blocks of `block`
    /// (at least 1).
    pub fn new(total: usize, block: usize) -> Self {
        Scheduler {
            total,
            block: block.max(1),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Claim the next task in epoch order (thread-safe).
    pub fn next(&self) -> Option<Task> {
        // Relaxed: the cursor hands out indices and publishes no data.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= self.len() {
            return None;
        }
        let start = i * self.block;
        Some(Task {
            start,
            end: (start + self.block).min(self.total),
        })
    }

    /// Total task count.
    pub fn len(&self) -> usize {
        self.total.div_ceil(self.block)
    }

    /// Whether there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_positions_once() {
        let s = Scheduler::new(100, 16);
        let mut seen = [false; 100];
        while let Some(t) = s.next() {
            for (p, flag) in seen.iter_mut().enumerate().take(t.end).skip(t.start) {
                assert!(!*flag, "position {p} scheduled twice");
                *flag = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn claims_are_in_epoch_order() {
        let s = Scheduler::new(45, 10);
        assert_eq!(s.len(), 5);
        let tasks: Vec<(usize, usize)> = std::iter::from_fn(|| s.next())
            .map(|t| (t.start, t.end))
            .collect();
        assert_eq!(tasks, vec![(0, 10), (10, 20), (20, 30), (30, 40), (40, 45)]);
    }

    #[test]
    fn concurrent_claims_are_disjoint() {
        let s = std::sync::Arc::new(Scheduler::new(1000, 7));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(t) = s.next() {
                    got.push(t.start);
                }
                got
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), s.len());
    }

    #[test]
    fn empty_schedule() {
        let s = Scheduler::new(0, 8);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.next().is_none());
    }
}
