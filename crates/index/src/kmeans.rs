//! Deterministic Lloyd's k-means over flat `f32` vector arrays — the IVF
//! index's training step — and the one distance kernel every loop of an
//! index build runs on: the farthest-point init, each Lloyd assignment
//! and the IVF index's final posting assignment.
//!
//! The kernel (`Blocks`) scores one vector against a block of eight
//! vectors (`LANES`) stored dim-major (`[block][d][lane]`, the last block
//! padded with zeros no lookup reports), with one `f64` accumulator per
//! lane. Each lane sums `((x - y) as f64)²` in dim order from zero — the
//! scalar loop's arithmetic, element for element — and a nearest-vector
//! search keeps the first strict minimum in vector order, so centroids,
//! postings and the serialized index are bit-identical to the scalar
//! build's. The init scores the newly picked centroid against blocks of
//! rows: `x - y` and `y - x` differ only in sign, which the square drops.
//! Seeded through the deterministic PRNG so the same data always produces
//! the same index.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Vectors per block of the distance kernel.
const LANES: usize = 8;

/// One lane's term of a squared L2 distance.
#[inline(always)]
fn sq_diff(x: f32, y: f32) -> f64 {
    let diff = (x - y) as f64;
    diff * diff
}

/// Squared L2 distance of two vectors: [`sq_diff`] summed in dim order
/// from zero, as each lane of [`Blocks`] sums it.
fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).fold(0.0, |d, (&x, &y)| d + sq_diff(x, y))
}

/// Vectors laid out for the distance kernel: dim-major blocks of
/// `LANES`, element `d` of vector `b * LANES + l` at `data[b * dim +
/// d][l]`.
pub(crate) struct Blocks {
    data: Vec<[f32; LANES]>,
    dim: usize,
    count: usize,
}

impl Blocks {
    /// Lay out the `vectors.len() / dim` vectors of `vectors` (`dim > 0`).
    pub(crate) fn new(vectors: &[f32], dim: usize) -> Blocks {
        let count = vectors.len() / dim;
        let mut data = vec![[0.0f32; LANES]; count.div_ceil(LANES) * dim];
        for (i, v) in vectors.chunks_exact(dim).enumerate() {
            let block = &mut data[i / LANES * dim..][..dim];
            for (slot, &x) in block.iter_mut().zip(v) {
                slot[i % LANES] = x;
            }
        }
        Blocks { data, dim, count }
    }

    /// Call `f(i, distance)` for every vector `i`, in order, with its
    /// squared L2 distance to `v`.
    #[inline(always)]
    fn distances(&self, v: &[f32], mut f: impl FnMut(usize, f64)) {
        for (b, block) in self.data.chunks_exact(self.dim).enumerate() {
            let mut acc = [0.0f64; LANES];
            for (&x, ys) in v.iter().zip(block) {
                for (a, &y) in acc.iter_mut().zip(ys) {
                    *a += sq_diff(x, y);
                }
            }
            let first = b * LANES;
            for (l, &d) in acc[..(self.count - first).min(LANES)].iter().enumerate() {
                f(first + l, d);
            }
        }
    }

    /// Index of the vector nearest to `v` under squared L2: the first
    /// strict minimum in order, 0 when no distance is below infinity.
    pub(crate) fn nearest(&self, v: &[f32]) -> usize {
        let (mut best, mut best_d) = (0, f64::INFINITY);
        self.distances(v, |i, d| {
            if d < best_d {
                best_d = d;
                best = i;
            }
        });
        best
    }
}

/// Train `k` centroids over `n` vectors of `dim` floats (`vectors.len()
/// == n * dim`), running `iters` Lloyd iterations. `k` is clamped to `n`;
/// empty clusters re-seed from a deterministic pick of the data.
pub fn train(vectors: &[f32], dim: usize, n: usize, k: usize, iters: usize, seed: u64) -> Vec<f32> {
    assert_eq!(vectors.len(), n * dim, "flat vector array shape mismatch");
    assert!(n > 0 && dim > 0, "k-means needs data");
    let k = k.clamp(1, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let row = |i: usize| &vectors[i * dim..(i + 1) * dim];

    // farthest-point init (k-center greedy): a random first pick, then
    // each next centroid is the row farthest from its nearest chosen one
    // — deterministic and robust for well-separated clusters, where pure
    // random picks can seed two centroids inside one blob.
    let rows = Blocks::new(vectors, dim);
    let first = row(rng.random_range(0..n));
    let mut centroids: Vec<f32> = first.to_vec();
    let mut nearest_sq = vec![0.0f64; n];
    rows.distances(first, |i, d| nearest_sq[i] = d);
    while centroids.len() < k * dim {
        let far = nearest_sq
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let picked = row(far);
        centroids.extend_from_slice(picked);
        rows.distances(picked, |i, d| {
            if d < nearest_sq[i] {
                nearest_sq[i] = d;
            }
        });
    }

    let mut assignment = vec![0usize; n];
    for _ in 0..iters {
        // assign
        let blocks = Blocks::new(&centroids, dim);
        for (slot, v) in assignment.iter_mut().zip(vectors.chunks_exact(dim)) {
            *slot = blocks.nearest(v);
        }
        // recompute means for non-empty clusters
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0u64; k];
        for (&c, v) in assignment.iter().zip(vectors.chunks_exact(dim)) {
            counts[c] += 1;
            for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(v) {
                *s += x as f64;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for d in 0..dim {
                    centroids[c * dim + d] = (sums[c * dim + d] / counts[c] as f64) as f32;
                }
            }
        }
        if !counts.contains(&0) {
            continue;
        }
        // re-seed empty clusters: each steals the row farthest from its
        // (freshly updated) centroid among donors that can spare one.
        // Every stolen row is used at most once per iteration, so two
        // empty clusters can never end up with duplicate centroids. A
        // re-seeded cluster has no rows, so no donor's centroid moves
        // here and each row's distance to its own is computed once.
        let own: Vec<f64> = (0..n)
            .map(|i| {
                let c = assignment[i];
                sq_dist(row(i), &centroids[c * dim..(c + 1) * dim])
            })
            .collect();
        let mut stolen = vec![false; n];
        for c in 0..k {
            if counts[c] > 0 {
                continue;
            }
            let mut pick: Option<(usize, f64)> = None;
            for (i, (&a, &d)) in assignment.iter().zip(&own).enumerate() {
                if counts[a] <= 1 || stolen[i] {
                    continue;
                }
                if pick.map(|(_, best)| d > best).unwrap_or(true) {
                    pick = Some((i, d));
                }
            }
            // no eligible donor (every cluster holds <= 1 row): the
            // centroid keeps its previous position
            if let Some((i, _)) = pick {
                counts[assignment[i]] -= 1;
                stolen[i] = true;
                centroids[c * dim..(c + 1) * dim].copy_from_slice(row(i));
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated 1-D blobs must end up with one centroid each.
    #[test]
    fn separates_two_blobs() {
        let mut vectors = Vec::new();
        for i in 0..10 {
            vectors.push(i as f32 * 0.01); // blob around 0
        }
        for i in 0..10 {
            vectors.push(100.0 + i as f32 * 0.01); // blob around 100
        }
        let centroids = train(&vectors, 1, 20, 2, 10, 42);
        let mut cs = [centroids[0], centroids[1]];
        cs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(cs[0] < 1.0, "low blob centroid: {}", cs[0]);
        assert!(cs[1] > 99.0, "high blob centroid: {}", cs[1]);
    }

    #[test]
    fn deterministic_per_seed() {
        let vectors: Vec<f32> = (0..64).map(|i| (i % 7) as f32).collect();
        let a = train(&vectors, 2, 32, 4, 5, 7);
        let b = train(&vectors, 2, 32, 4, 5, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn k_clamped_to_n() {
        let vectors = [1.0f32, 2.0];
        let centroids = train(&vectors, 1, 2, 16, 3, 0);
        assert_eq!(centroids.len(), 2);
    }

    #[test]
    fn nearest_is_nearest() {
        let centroids = Blocks::new(&[0.0f32, 0.0, 10.0, 10.0], 2);
        assert_eq!(centroids.nearest(&[1.0, 1.0]), 0);
        assert_eq!(centroids.nearest(&[9.0, 9.0]), 1);
    }
}
