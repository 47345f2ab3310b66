//! The epoch's work queue: a shared cursor over the epoch's blocks.
//!
//! An epoch's order is a list of *blocks* — runs of the index list of
//! about `block_rows` rows, chunk-aligned where a chunk boundary is
//! near, cut by [`shuffle::block_ends`](crate::shuffle::block_ends) —
//! and each block is one *task*: one storage call, one decode pass,
//! one message to the consumer. Workers claim tasks in epoch order with
//! one atomic increment over the list of block ends; nothing is sorted.
//!
//! §4.6 describes a scheduler that runs CPU-intensive jobs ahead of
//! lighter ones. That ordering needs a per-task cost signal, and the
//! tensor metadata has none: the only estimate available at schedule
//! time (`max_shape × dtype` of the compressed tensors) is one number
//! per dataset, so a task's cost is its row count and a cost-ordered
//! schedule of like-sized blocks *is* epoch order. If chunk-level
//! statistics ever carry a per-row decoded size, an ordering over tasks
//! belongs here.
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

/// The epoch's blocks, claimed by workers through an atomic cursor.
pub struct Scheduler {
    /// One past the last epoch position of each block, ascending.
    ends: Vec<usize>,
    cursor: AtomicUsize,
}

impl Scheduler {
    /// A schedule over the blocks ending at `ends` (ascending; the first
    /// block starts at position 0).
    pub fn new(ends: Vec<usize>) -> Self {
        Scheduler {
            ends,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Claim the next task in epoch order (thread-safe).
    pub fn next(&self) -> Option<Task> {
        // Relaxed: the cursor hands out indices and publishes no data.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        let end = *self.ends.get(i)?;
        Some(Task {
            start: i.checked_sub(1).map_or(0, |prev| self.ends[prev]),
            end,
        })
    }

    /// Total task count.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_positions_once() {
        let s = Scheduler::new(vec![29, 58, 64, 100]);
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
        let s = Scheduler::new(vec![10, 20, 30, 40, 45]);
        assert_eq!(s.len(), 5);
        let tasks: Vec<(usize, usize)> = std::iter::from_fn(|| s.next())
            .map(|t| (t.start, t.end))
            .collect();
        assert_eq!(tasks, vec![(0, 10), (10, 20), (20, 30), (30, 40), (40, 45)]);
    }

    #[test]
    fn concurrent_claims_are_disjoint() {
        let s = std::sync::Arc::new(Scheduler::new(
            (1..=143).map(|i| (i * 7).min(1000)).collect(),
        ));
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
        let s = Scheduler::new(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.next().is_none());
    }
}
