//! The epoch's work queue: the consumer issues the epoch's blocks, in
//! epoch order, as far as its credit reaches.
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
    }
}
