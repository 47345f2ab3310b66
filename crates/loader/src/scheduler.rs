//! The epoch's work queue: which task is issued next, which rows are
//! held, which is delivered next, and when a failure ends the epoch.
//!
//! **Owns:** the epoch's blocks and delivery order, how many tasks are
//! issued, the rows received and not yet delivered (by epoch
//! position), the next row to deliver, and the gaps failed tasks left.
//!
//! **May not touch:** a channel, a thread, a clock or an instrument.
//! [`Epoch`] is generic over the row type: the loader drives it with
//! [`LoadedRow`](crate::batch::LoadedRow)s it receives from its worker
//! threads, a test with integers.
//!
//! An epoch's order is a list of *blocks* — runs of the index list of
//! about `block_rows` rows, chunk-aligned where a chunk boundary is
//! near, cut by [`shuffle::block_ends`](crate::shuffle::block_ends) —
//! and each block is one *task*: one storage call, one decode pass,
//! one message to the consumer. The consumer sends a task to the
//! workers once its first epoch position lies within the credit of the
//! next row it will deliver: `next_out + reach + in_flight + num_workers
//! × block_rows`, where `next_out` counts the rows delivered, `reach` is
//! how far the epoch's delivery order runs ahead of its positions
//! ([`EpochPlan::reach`](crate::shuffle::EpochPlan::reach)), `in_flight`
//! is the prefetch/memory budget in rows, and each worker may hold one
//! block beyond it. The task holding the next row to deliver is always
//! within the credit, so the epoch never waits for a task it has not
//! issued; a straggling task holds the others to the credit instead of
//! letting them pile rows up behind it. The rule is [`credit`], a
//! function: it runs no thread.
//!
//! [`Epoch`] keeps that rule's contract, for any completion order:
//! - [`issue`](Epoch::issue) hands out each task once, in epoch order,
//!   as far as the credit reaches;
//! - [`complete`](Epoch::complete) places a task's rows at their epoch
//!   positions, and a failed task's missing rows become its gap;
//! - [`step`](Epoch::step) delivers rows in the plan's delivery order
//!   only: a row is delivered once every row before it is, a failure
//!   surfaces when delivery reaches the first row of its gap (never
//!   before), and [`Step::Done`] comes once every position is delivered,
//!   so after every task has completed — or once a failure surfaced,
//!   which ends the epoch: nothing more is issued or delivered;
//! - when the allowance reaches past the delivery order's reach, the
//!   next row's task is issued once `issue` has returned `None`, so a
//!   [`Step::Wait`] then always has a completion to wait for;
//! - the rows held undelivered never exceed the allowance plus the
//!   longest block.
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

use std::ops::Range;

/// How many of the blocks ending at `ends` (ascending; the first starts
/// at position 0) are issued while the credit runs to `line` — rows
/// delivered + `reach + in_flight + num_workers × block_rows`: every
/// block that starts before it. `line` only grows, so neither does this.
pub fn credit(ends: &[usize], line: usize) -> usize {
    // block 0 starts at 0, block i at ends[i - 1]
    let started_after_first = ends.partition_point(|&end| end < line);
    (started_after_first + usize::from(line > 0)).min(ends.len())
}

/// Task `i` of the blocks ending at `ends`: its epoch positions.
pub fn task(ends: &[usize], i: usize) -> Range<usize> {
    i.checked_sub(1).map_or(0, |prev| ends[prev])..ends[i]
}

/// What the consumer does next.
#[derive(Debug, PartialEq, Eq)]
pub enum Step<R> {
    /// Deliver this row: the next in the plan's delivery order.
    Row(R),
    /// The next row is in a failed task's gap: the epoch ends with this
    /// error.
    Failed(String),
    /// The next row's task is issued and has not completed: wait for a
    /// completion.
    Wait,
    /// The epoch is over: every position was delivered, or a failure
    /// was.
    Done,
}

/// One epoch's decisions: what is issued, held, delivered and failed.
pub struct Epoch<R> {
    /// One past the last epoch position of each block: one task each.
    ends: Vec<usize>,
    /// The plan's delivery order: epoch positions.
    delivery: Vec<usize>,
    /// How far past the next row to deliver a task may start.
    allowance: usize,
    /// Tasks issued so far, in epoch order.
    issued: usize,
    /// Rows received and not yet delivered, by epoch position.
    slots: Vec<Option<R>>,
    /// Rows delivered so far: `delivery[next_out]` is the next one.
    next_out: usize,
    /// Epoch positions failed tasks did not deliver, with the failure.
    failures: Vec<(Range<usize>, String)>,
    /// A failure surfaced: nothing more is issued or delivered.
    failed: bool,
}

impl<R> Epoch<R> {
    /// The epoch of the blocks ending at `ends`, delivered in the order
    /// `delivery` (a permutation of the positions), whose tasks are
    /// issued while they start within `allowance` positions of the next
    /// row to deliver. An allowance past the delivery order's reach
    /// (the largest `delivery[j] - j`) keeps the next row's task issued.
    pub fn new(ends: Vec<usize>, delivery: Vec<usize>, allowance: usize) -> Self {
        Epoch {
            slots: delivery.iter().map(|_| None).collect(),
            ends,
            delivery,
            allowance,
            issued: 0,
            next_out: 0,
            failures: Vec::new(),
            failed: false,
        }
    }

    /// The next task the credit reaches, in epoch order; `None` until
    /// a delivery moves the credit on, or once every task is issued.
    /// Ask again after delivering rows, and before waiting for a
    /// completion: the task holding the next row may have come within
    /// the credit.
    pub fn issue(&mut self) -> Option<Range<usize>> {
        let due = credit(&self.ends, self.next_out + self.allowance);
        (!self.failed && self.issued < due).then(|| {
            self.issued += 1;
            task(&self.ends, self.issued - 1)
        })
    }

    /// Task `task` completed with `rows`, its first rows in epoch order:
    /// all of them, or, when it `failure`d, those before the row it
    /// could not deliver.
    pub fn complete(&mut self, task: Range<usize>, rows: Vec<R>, failure: Option<String>) {
        if let Some(message) = failure {
            self.failures
                .push((task.start + rows.len()..task.end, message));
        }
        for (slot, row) in self.slots[task].iter_mut().zip(rows) {
            *slot = Some(row);
        }
    }

    /// What the consumer does next: deliver a row, fail, wait for a
    /// completion, or stop.
    pub fn step(&mut self) -> Step<R> {
        let Some(&pos) = self.delivery.get(self.next_out).filter(|_| !self.failed) else {
            return Step::Done;
        };
        if let Some(row) = self.slots[pos].take() {
            self.next_out += 1;
            return Step::Row(row);
        }
        let Some((_, message)) = self.failures.iter_mut().find(|(gap, _)| gap.contains(&pos))
        else {
            return Step::Wait;
        };
        self.failed = true;
        Step::Failed(std::mem::take(message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tasks issued while the credit runs to `line`.
    fn issued(ends: &[usize], line: usize) -> Vec<Range<usize>> {
        (0..credit(ends, line)).map(|i| task(ends, i)).collect()
    }

    #[test]
    fn covers_all_positions_once() {
        let ends = [29, 58, 64, 100];
        let mut seen = [false; 100];
        for t in issued(&ends, usize::MAX) {
            for (p, flag) in seen.iter_mut().enumerate().take(t.end).skip(t.start) {
                assert!(!*flag, "position {p} scheduled twice");
                *flag = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn claims_are_in_epoch_order() {
        let ends = [10, 20, 30, 40, 45];
        assert_eq!(
            issued(&ends, usize::MAX),
            vec![0..10, 10..20, 20..30, 30..40, 40..45]
        );
    }

    #[test]
    fn tasks_are_issued_in_epoch_order_as_the_credit_grows() {
        let ends = [10, 20, 30, 40, 45];
        assert_eq!(credit(&ends, 0), 0);
        // a task is issued once its start is before the line
        assert_eq!(credit(&ends, 1), 1);
        assert_eq!(credit(&ends, 10), 1);
        assert_eq!(credit(&ends, 11), 2);
        assert_eq!(credit(&ends, 21), 3);
        assert_eq!(credit(&ends, 41), 5);
        assert_eq!(credit(&ends, usize::MAX), 5);
    }

    #[test]
    fn the_next_row_to_deliver_is_always_issued() {
        // whatever the delivery order, the task holding delivery[next_out]
        // starts at most `reach` positions past next_out, so an allowance
        // of reach + 1 already reaches it
        let ends: Vec<usize> = (1..=25).map(|b| b * 8).collect();
        let delivery = crate::shuffle::buffer_walk(200, 48, 11);
        let reach = delivery
            .iter()
            .enumerate()
            .map(|(j, &p)| p.saturating_sub(j))
            .max()
            .unwrap();
        for (next_out, &pos) in delivery.iter().enumerate() {
            let issued_to = ends[credit(&ends, next_out + reach + 1) - 1];
            assert!(pos < issued_to, "row {pos} needed before it was issued");
            assert!(issued_to <= next_out + reach + 8, "issued past the credit");
        }
    }

    #[test]
    fn empty_schedule() {
        assert_eq!(credit(&[], 0), 0);
        assert_eq!(credit(&[], 64), 0);
        let mut epoch = Epoch::<usize>::new(Vec::new(), Vec::new(), 1);
        assert_eq!(epoch.issue(), None);
        assert_eq!(epoch.step(), Step::Done);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Any blocks, a `buffer_walk` delivery order over any buffer
        /// (or none: sequential), any allowance past the walk's reach,
        /// tasks that complete in any order — all their rows, the rows
        /// before a failing one, or none (a panic) — and a consumer
        /// that stops anywhere. The rows are their epoch positions.
        #[test]
        fn the_epoch_delivers_the_plan_under_any_completions(
            blocks in proptest::collection::vec(1usize..=8, 0..24),
            buffer in 0usize..=48,
            extra in 1usize..=24,
            fates in proptest::collection::vec((0u8..24, 0usize..8), 24..=24),
            stop in 0usize..=160,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};

            let ends: Vec<usize> = blocks
                .iter()
                .scan(0, |end, &rows| {
                    *end += rows;
                    Some(*end)
                })
                .collect();
            let n = ends.last().copied().unwrap_or(0);
            let delivery = match buffer {
                0 => (0..n).collect(),
                _ => crate::shuffle::buffer_walk(n, buffer, seed),
            };
            let reach = delivery.iter().enumerate().map(|(j, &p)| p.saturating_sub(j)).max();
            let allowance = reach.unwrap_or(0) + extra;
            let credit = allowance + blocks.iter().copied().max().unwrap_or(0);
            let case = format!("blocks {blocks:?}, buffer {buffer}, allowance {allowance}, seed {seed}");
            // the rows task `i` delivers, and whether it fails
            let fate = |i: usize, len: usize| match fates[i] {
                (0, _) => (0, true),
                (1, j) => (j % len, true),
                _ => (len, false),
            };

            let mut epoch = Epoch::new(ends.clone(), delivery.clone(), allowance);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut issued: Vec<Range<usize>> = Vec::new();
            // issued tasks, by index, that have not completed
            let mut outstanding: Vec<usize> = Vec::new();
            // the positions completed failed tasks did not deliver
            let mut gaps: Vec<(Range<usize>, String)> = Vec::new();
            let mut held = 0;
            let mut delivered = 0;
            loop {
                while let Some(t) = epoch.issue() {
                    assert!(!issued.contains(&t), "{t:?} issued twice: {case}");
                    assert_eq!(t, task(&ends, issued.len()), "{case}");
                    outstanding.push(issued.len());
                    issued.push(t);
                }
                // the consumer steps, or a completion comes first
                let step = (outstanding.is_empty() || rng.random_bool(0.5)).then(|| epoch.step());
                let next = delivery.get(delivered).copied();
                let gap = |pos| gaps.iter().find(|(gap, _)| gap.contains(&pos));
                match step {
                    Some(Step::Row(pos)) => {
                        assert_eq!(Some(pos), next, "delivered out of plan order: {case}");
                        delivered += 1;
                        held -= 1;
                        if delivered == stop {
                            break;
                        }
                        continue;
                    }
                    Some(Step::Failed(message)) => {
                        let at = next.and_then(gap).map(|(_, m)| m.as_str());
                        assert_eq!(at, Some(message.as_str()), "row {next:?}: {case}");
                        break;
                    }
                    Some(Step::Done) => {
                        assert!(outstanding.is_empty(), "done with {outstanding:?} out: {case}");
                        assert_eq!(delivered, n, "done early: {case}");
                        break;
                    }
                    Some(Step::Wait) => {
                        let failed = next.and_then(gap);
                        assert!(failed.is_none(), "row {next:?} failed, unsurfaced: {case}");
                        assert!(!outstanding.is_empty(), "row {next:?} never issued: {case}");
                    }
                    None => {}
                }
                let i = outstanding.swap_remove(rng.random_range(0..outstanding.len()));
                let t = issued[i].clone();
                let (rows, failed) = fate(i, t.len());
                let failure = failed.then(|| format!("task {i}"));
                if let Some(message) = &failure {
                    gaps.push((t.start + rows..t.end, message.clone()));
                }
                held += rows;
                epoch.complete(t.clone(), (t.start..t.start + rows).collect(), failure);
                assert!(held <= credit, "{held} rows held, credit {credit}: {case}");
            }
        }
    }
}
