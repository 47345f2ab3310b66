//! Shuffled stream ordering (§3.5).
//!
//! "Shuffled stream access ... is achieved by involving range-based
//! requests to access sub-elements inside chunks, running complex queries
//! before training to determine the order, and maintaining a buffer cache
//! of fetched and unutilized data. This avoids having a separate compute
//! cluster for running shuffling algorithm."
//!
//! An epoch is one plan ([`epoch_plan`]), drawn from the seed and the
//! epoch's index before any row is fetched, at two levels:
//! 1. **Block shuffle** — the loader's index list is cut into *blocks*
//!    ([`block_ends`]) and the *order* of the blocks is randomized
//!    ([`block_shuffled_order`]). A block is the loader's unit of work —
//!    one [task](crate::scheduler::task), one storage call, one message
//!    to the consumer — of `block_rows` rows, give or take half: a block
//!    aims to end `block_rows` positions after it began, and that end is
//!    moved to the nearest position where the *primary* tensor (the
//!    streamed tensor with the most chunks) changes chunk when one lies
//!    within `block_rows / 2`. So chunks of up to `block_rows`
//!    rows are never split between two blocks (a split chunk is fetched
//!    and parsed once per block that holds a piece of it) and smaller
//!    ones coalesce; a chunk too large for that is cut every
//!    `block_rows` rows, as is an index list that never stays in one
//!    chunk for two positions (a scattered view). No block holds more
//!    than `block_rows + block_rows / 2` rows, which is what keeps the
//!    loader's row and memory bounds and spreads a large chunk over the
//!    workers. Sequential epochs use the same blocks in index order.
//! 2. **Shuffle buffer** — the rows' delivery order is the one a bounded
//!    pool of `buffer_rows` rows, drawn from uniformly, gives the epoch's
//!    positions fed to it in order ([`buffer_walk`]), decorrelating
//!    nearby samples. Because it is computed from positions rather than
//!    run on arriving rows, thread timing cannot change it, and every
//!    row's place in the epoch is known before it is fetched. A
//!    sequential epoch is delivered as it stands.
//!
//! The cut depends only on the dataset and the index list, so it is made
//! once, when the loader is built; drawing the plan lands inside the
//! epoch's single `loader.schedule_ns` sample. Waiting for a row whose
//! turn has come surfaces as `loader.queue_wait_ns`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::config::ShuffleConfig;

/// Cut `indices` into blocks of `block_rows` rows, give or take half,
/// that end where the primary tensor's chunk changes whenever such a
/// position is that close. `spans` is that tensor's row space as
/// `(chunk id, first row, rows)` in row order
/// ([`Dataset::chunk_spans`](deeplake_core::Dataset::chunk_spans)).
/// Returns one past the last position of each block, ascending, the last
/// being `indices.len()`.
pub fn block_ends(
    indices: &[u64],
    spans: &[(Option<u64>, u64, u64)],
    block_rows: usize,
) -> Vec<usize> {
    let block = block_rows.max(1);
    let reach = block / 2;
    let chunk_of = |row: u64| {
        let span = spans.partition_point(|&(_, start, _)| start <= row);
        span.checked_sub(1).map(|i| spans[i].0)
    };
    // every position a chunk-aligned block may end at: where the chunk
    // changes, and the end of the list
    let mut cuts: Vec<usize> = Vec::new();
    let mut prev = None;
    for (pos, &row) in indices.iter().enumerate() {
        let chunk = chunk_of(row);
        if pos > 0 && chunk != prev {
            cuts.push(pos);
        }
        prev = chunk;
    }
    cuts.push(indices.len());

    let mut ends: Vec<usize> = Vec::with_capacity(indices.len() / block + 1);
    let mut start = 0;
    while start + block < indices.len() {
        let target = start + block;
        // `cuts` ends with `indices.len() > target`, so `after` is in range
        let after = cuts.partition_point(|&c| c < target);
        let below = after.checked_sub(1).map(|i| cuts[i]);
        let nearest = match below {
            Some(b) if target - b <= cuts[after] - target => b,
            _ => cuts[after],
        };
        // `reach < block`, so a cut that close is past `start`
        start = if nearest.abs_diff(target) <= reach {
            nearest
        } else {
            target
        };
        ends.push(start);
    }
    if start < indices.len() {
        ends.push(indices.len());
    }
    ends
}

/// The epoch's row order: the blocks of `indices` that end at `ends`,
/// in an order drawn from `seed`. Returns the order and the block ends
/// within it.
pub fn block_shuffled_order(indices: &[u64], ends: &[usize], seed: u64) -> (Vec<u64>, Vec<usize>) {
    let mut blocks: Vec<&[u64]> = Vec::with_capacity(ends.len());
    let mut start = 0;
    for &end in ends {
        blocks.push(&indices[start..end]);
        start = end;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    blocks.shuffle(&mut rng);
    let mut order = Vec::with_capacity(indices.len());
    let mut shuffled_ends = Vec::with_capacity(ends.len());
    for block in blocks {
        order.extend_from_slice(block);
        shuffled_ends.push(order.len());
    }
    (order, shuffled_ends)
}

/// The delivery order a shuffle buffer of `buffer_rows` rows gives the
/// epoch positions `0..n` fed to it in order: once the buffer is full,
/// each arriving position evicts a uniformly drawn resident, and what
/// is left at the end leaves in a Fisher-Yates order. Returns the
/// positions in the order they are delivered — a permutation of `0..n`
/// in which no position comes out more than `buffer_rows - 1` places
/// before its own.
pub fn buffer_walk(n: usize, buffer_rows: usize, seed: u64) -> Vec<usize> {
    let capacity = buffer_rows.max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0FF);
    let mut held: Vec<usize> = Vec::with_capacity(capacity.min(n));
    let mut out = Vec::with_capacity(n);
    for pos in 0..n {
        if held.len() < capacity {
            held.push(pos);
        } else {
            let slot = rng.random_range(0..held.len());
            out.push(std::mem::replace(&mut held[slot], pos));
        }
    }
    for i in (1..held.len()).rev() {
        let j = rng.random_range(0..=i);
        held.swap(i, j);
    }
    out.extend(held);
    out
}

/// One epoch, decided before any row is fetched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPlan {
    /// The rows by epoch position: the blocks, in the epoch's order.
    pub order: Vec<u64>,
    /// One past the last epoch position of each block, ascending — one
    /// task each.
    pub ends: Vec<usize>,
    /// The epoch positions in the order their rows are delivered.
    pub delivery: Vec<usize>,
    /// How far delivery reaches ahead: the largest `delivery[j] - j`.
    pub reach: usize,
}

/// The plan of epoch `epoch` over `indices` cut at `blocks` (see
/// [`block_ends`]). Shuffled, the blocks are ordered by
/// [`block_shuffled_order`] and the rows delivered in [`buffer_walk`]
/// order, both drawn from the seed mixed with the epoch's index — the
/// seed itself for epoch 0, a stream of its own for each later epoch
/// (the per-epoch re-seeding of PyTorch's `DistributedSampler.set_epoch`).
/// Unshuffled, every epoch is the blocks in index order, delivered as
/// they stand.
pub fn epoch_plan(
    indices: &[u64],
    blocks: &[usize],
    shuffle: Option<&ShuffleConfig>,
    epoch: u64,
) -> EpochPlan {
    let (order, ends, delivery) = match shuffle {
        Some(cfg) => {
            let seed = cfg.seed ^ epoch.wrapping_mul(0xD1B5_4A32_D192_ED03);
            let (order, ends) = block_shuffled_order(indices, blocks, seed);
            let delivery = buffer_walk(order.len(), cfg.buffer_rows, seed);
            (order, ends, delivery)
        }
        None => (
            indices.to_vec(),
            blocks.to_vec(),
            (0..indices.len()).collect(),
        ),
    };
    let ahead = |(j, &pos): (usize, &usize)| pos.saturating_sub(j);
    let reach = delivery.iter().enumerate().map(ahead).max();
    EpochPlan {
        reach: reach.unwrap_or(0),
        order,
        ends,
        delivery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rows` rows stored in chunks of `per_chunk`.
    fn spans(rows: u64, per_chunk: u64) -> Vec<(Option<u64>, u64, u64)> {
        (0..rows.div_ceil(per_chunk))
            .map(|c| {
                let start = c * per_chunk;
                (Some(c), start, per_chunk.min(rows - start))
            })
            .collect()
    }

    /// The order and block ends of a shuffled epoch over `0..rows`.
    fn shuffled(rows: u64, per_chunk: u64, block: usize, seed: u64) -> (Vec<u64>, Vec<usize>) {
        let indices: Vec<u64> = (0..rows).collect();
        let ends = block_ends(&indices, &spans(rows, per_chunk), block);
        block_shuffled_order(&indices, &ends, seed)
    }

    #[test]
    fn block_shuffle_is_permutation() {
        let indices: Vec<u64> = (0..100).collect();
        let (order, ends) = shuffled(100, 5, 8, 1);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, indices);
        assert_ne!(order, indices, "seed 1 must actually shuffle");
        assert_eq!(ends.last(), Some(&100));
    }

    #[test]
    fn blocks_stay_contiguous() {
        // 29-row chunks under 32-row blocks: every block is whole chunks
        let (order, ends) = shuffled(290, 29, 32, 7);
        let mut start = 0;
        for end in ends {
            let block = &order[start..end];
            for w in block.windows(2) {
                assert_eq!(w[1], w[0] + 1, "rows within a block stay consecutive");
            }
            assert_eq!(block[0] % 29, 0, "a block starts a chunk");
            assert_eq!(block.len() % 29, 0, "and ends one: {block:?}");
            start = end;
        }
    }

    #[test]
    fn blocks_follow_the_chunks() {
        let indices: Vec<u64> = (0..100).collect();
        // small chunks coalesce to about block_rows
        assert_eq!(block_ends(&indices, &spans(100, 5), 32), [30, 60, 90, 100]);
        // chunks of about block_rows are one block each
        assert_eq!(block_ends(&indices, &spans(100, 29), 32), [29, 58, 87, 100]);
        // a chunk too large to be one block is cut every block_rows
        // rows, ending at its boundary where that is close
        assert_eq!(
            block_ends(&indices, &spans(100, 50), 16),
            [16, 32, 50, 66, 82, 100]
        );
        // no two neighbours share a chunk: fixed block_rows blocks
        let scattered: Vec<u64> = (0..10).map(|i| i * 10).collect();
        assert_eq!(block_ends(&scattered, &spans(100, 5), 4), [4, 8, 10]);
        assert!(block_ends(&[], &spans(100, 5), 4).is_empty());
    }

    #[test]
    fn large_chunks_do_not_make_large_blocks() {
        // 500-row chunks under 32-row blocks: the row bound holds and a
        // chunk is work for many workers, not one
        let indices: Vec<u64> = (0..2000).collect();
        let ends = block_ends(&indices, &spans(2000, 500), 32);
        let mut start = 0;
        for &end in &ends {
            assert!(end - start <= 48, "{} rows in a block", end - start);
            start = end;
        }
        assert!(ends.len() >= 2000 / 48, "{} blocks", ends.len());
        for boundary in [500, 1000, 1500, 2000] {
            assert!(ends.contains(&boundary), "{boundary} ends a block");
        }
    }

    #[test]
    fn same_seed_same_order() {
        let a = shuffled(50, 4, 4, 9);
        let b = shuffled(50, 4, 4, 9);
        let c = shuffled(50, 4, 4, 10);
        assert_eq!(a, b);
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn buffer_delivers_everything_exactly_once() {
        let out = buffer_walk(100, 10, 3);
        assert_eq!(out.len(), 100);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(out, (0..100).collect::<Vec<_>>(), "buffer must reorder");
    }

    #[test]
    fn buffer_smaller_than_stream_still_works() {
        let out = buffer_walk(5, 1, 0);
        assert_eq!(out.len(), 5);
        assert!(buffer_walk(0, 4, 0).is_empty());
        // a buffer larger than the stream is one Fisher-Yates shuffle
        let mut small = buffer_walk(5, 512, 0);
        small.sort_unstable();
        assert_eq!(small, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn buffer_increases_disorder() {
        // displacement of block-shuffle alone vs block-shuffle + buffer
        let indices: Vec<u64> = (0..400).collect();
        let (order, _) = shuffled(400, 29, 32, 2);
        let buffered: Vec<u64> = buffer_walk(order.len(), 128, 2)
            .into_iter()
            .map(|pos| order[pos])
            .collect();
        let disorder = |v: &[u64]| -> f64 {
            v.iter()
                .enumerate()
                .map(|(pos, &x)| (pos as f64 - x as f64).abs())
                .sum::<f64>()
                / v.len() as f64
        };
        assert!(disorder(&buffered) > disorder(&order) * 0.8);
        // and it remains a permutation
        let mut sorted = buffered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, indices);
    }

    #[test]
    fn delivery_reaches_less_than_a_buffer_ahead() {
        for (n, buffer) in [(2000, 512), (400, 128), (100, 1), (30, 64)] {
            let walk = buffer_walk(n, buffer, 9);
            let reach = walk.iter().enumerate().map(|(j, &p)| p.saturating_sub(j));
            assert!(reach.max().unwrap() < buffer, "{n} rows, buffer {buffer}");
        }
    }

    #[test]
    fn epoch_zero_is_the_seed_and_later_epochs_redraw() {
        let indices: Vec<u64> = (0..300).collect();
        let blocks = block_ends(&indices, &spans(300, 29), 32);
        let cfg = ShuffleConfig {
            seed: 5,
            ..ShuffleConfig::default()
        };
        let zero = epoch_plan(&indices, &blocks, Some(&cfg), 0);
        assert_eq!(
            (zero.order.clone(), zero.ends.clone()),
            block_shuffled_order(&indices, &blocks, 5)
        );
        assert_eq!(zero.delivery, buffer_walk(300, cfg.buffer_rows, 5));
        let one = epoch_plan(&indices, &blocks, Some(&cfg), 1);
        assert_eq!(one, epoch_plan(&indices, &blocks, Some(&cfg), 1));
        assert_ne!(one.order, zero.order);
        assert_ne!(one.delivery, zero.delivery);

        let sequential = epoch_plan(&indices, &blocks, None, 3);
        assert_eq!(sequential.order, indices);
        assert_eq!(sequential.ends, blocks);
        assert_eq!(sequential.delivery, (0..300).collect::<Vec<_>>());
        assert_eq!(sequential.reach, 0);
    }
}
