//! Deterministic Lloyd's k-means over flat `f32` vector arrays — the IVF
//! index's training step — and the one distance kernel every loop of an
//! index build runs on: the farthest-point init, each Lloyd assignment
//! and the IVF index's final posting assignment.
//!
//! The kernel (`Blocks`) stores vectors dim-major in blocks of eight
//! (`LANES`: `[block][d][lane]`, the last block padded with zeros no
//! lookup reports). Its exact pass scores one vector against a block with
//! one `f64` accumulator per lane, each summing `((x - y) as f64)²` in dim
//! order from zero: the scalar loop's arithmetic, element for element.
//! The farthest-point init runs on it: its running `nearest_sq` maximum
//! needs exact values. It scores the newly picked centroid against blocks
//! of rows; `x - y` and `y - x` differ only in sign, which the square
//! drops.
//!
//! A nearest-centroid search (each Lloyd assignment and the posting
//! assignment, about 95 % of a build's distance evaluations) screens
//! first. It scores the row against every centroid with `f32`
//! accumulators over the same blocks and takes the smallest score `m`.
//! Only the centroids whose `f32` score is at most `T(m)` are re-scored
//! in the exact `f64` arithmetic, and the first strict minimum among them
//! in index order wins. `T(m)` is the γₙ bound on recursive summation
//! (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1 and
//! §4.2) for both precisions, plus a slack for `f32` squares that
//! underflow (see `screen_bound`). Every centroid whose `f64` distance
//! ties with or beats the `f32` winner's scores at most `T(m)` in `f32`,
//! so the exact first strict minimum is always re-scored and the search
//! returns the scalar loop's answer: centroids, postings and the
//! serialized index are bit-identical to the scalar build's. A row with a
//! non-finite `f32` score (NaN, ±inf, or a square past `f32::MAX` that
//! `f64` holds) is re-scored in `f64` against every centroid.
//!
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
    /// The screen's threshold as `(ratio, slack)`: a vector whose `f32`
    /// distance exceeds `ratio * (m + slack) + slack`, `m` the smallest
    /// `f32` distance, cannot tie with or beat the nearest in `f64`.
    screen: (f64, f64),
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
        Blocks {
            data,
            dim,
            count,
            screen: screen_bound(dim),
        }
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

    /// Vector `i`'s squared L2 distance to `v`, summed as a lane of
    /// [`Blocks::distances`] sums it.
    fn distance(&self, v: &[f32], i: usize) -> f64 {
        let block = &self.data[i / LANES * self.dim..][..self.dim];
        v.iter()
            .zip(block)
            .fold(0.0, |d, (&x, ys)| d + sq_diff(x, ys[i % LANES]))
    }

    /// Index of the vector nearest to `v` under squared L2: the first
    /// strict minimum in order, 0 when no distance is below infinity.
    /// `scores` is scratch, kept by the caller across calls.
    pub(crate) fn nearest(&self, v: &[f32], scores: &mut Vec<f32>) -> usize {
        scores.resize(self.count.div_ceil(LANES) * LANES, 0.0);
        for (block, out) in self
            .data
            .chunks_exact(self.dim)
            .zip(scores.chunks_exact_mut(LANES))
        {
            let mut acc = [0.0f32; LANES];
            for (&x, ys) in v.iter().zip(block) {
                for (a, &y) in acc.iter_mut().zip(ys) {
                    let diff = y - x;
                    *a += diff * diff;
                }
            }
            out.copy_from_slice(&acc);
        }
        let scores = &scores[..self.count];
        // a row with a NaN or infinite score is re-scored against every
        // centroid: a NaN `f32` score has a NaN `f64` one, which never wins
        let (ratio, slack) = self.screen;
        let threshold =
            finite_min(scores).map_or(f64::INFINITY, |m| ratio * (m as f64 + slack) + slack);
        let (mut best, mut best_d) = (0, f64::INFINITY);
        for (i, &s) in scores.iter().enumerate() {
            if s as f64 <= threshold {
                let d = self.distance(v, i);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
        }
        best
    }
}

/// The smallest of `scores`, or `None` when one is NaN or infinite. Kept
/// per lane, so the comparisons run side by side.
fn finite_min(scores: &[f32]) -> Option<f32> {
    let mut min = [f32::INFINITY; LANES];
    let mut finite = [true; LANES];
    let mut observe = |lanes: &[f32]| {
        for ((min, finite), &s) in min.iter_mut().zip(&mut finite).zip(lanes) {
            *min = if s < *min { s } else { *min };
            *finite &= s.is_finite();
        }
    };
    let mut chunks = scores.chunks_exact(LANES);
    chunks.by_ref().for_each(&mut observe);
    observe(chunks.remainder());
    finite
        .iter()
        .all(|&f| f)
        .then(|| min.into_iter().fold(f32::INFINITY, f32::min))
}

/// The `f32` screen's `(ratio, slack)` for vectors of `dim` elements. The
/// ratio is infinite, ruling nothing out, when `dim` is too large for the
/// bound to hold.
///
/// Both sums add the same `dim` differences `x - y` (computed in `f32` by
/// both), each squared and then summed recursively. Let `S` be the exact
/// sum of squares. With `n = dim + 1` and `γ(u) = n·u / (1 - n·u)`
/// (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1 and
/// §4.2), the `f64` sum lies within `S·(1 ± γ64)`: a non-zero `f32`
/// difference squares to at least 2⁻²⁹⁸, a normal `f64`, and no partial
/// sum of a finite total overflows. The `f32` sum lies within `S·(1 ±
/// γ32) ± η`, where `η = n·2⁻¹⁴⁹` covers squares that underflow into `f32`
/// subnormals (half a subnormal step each; additions into the subnormal
/// range are exact). So if `c` ties with or beats the `f32` winner `w`
/// in `f64`, then
///
/// `f32(c) ≤ (1 + γ32)·S(c) + η ≤ (1 + γ32)·f64(c) / (1 - γ64) + η`
/// `       ≤ (1 + γ32)·f64(w) / (1 - γ64) + η`
/// `       ≤ (1 + γ32)(1 + γ64)·S(w) / (1 - γ64) + η`
/// `       ≤ ratio·(f32(w) + η) + η`,
///
/// with `ratio = (1 + γ32)(1 + γ64) / ((1 - γ32)(1 - γ64))`. The ratio
/// is rounded up by 2⁻⁴⁰, more than the roundings of computing it and of
/// evaluating the threshold in `f64` can take back.
fn screen_bound(dim: usize) -> (f64, f64) {
    let n = dim as f64 + 1.0;
    let slack = n * (-149f64).exp2();
    let gamma = |u: f64| n * u / (1.0 - n * u);
    let u32 = (-24f64).exp2();
    if n * u32 > 0.25 {
        return (f64::INFINITY, slack);
    }
    let (g32, g64) = (gamma(u32), gamma((-53f64).exp2()));
    let ratio = (1.0 + g32) * (1.0 + g64) / ((1.0 - g32) * (1.0 - g64)) * (1.0 + (-40f64).exp2());
    (ratio, slack)
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
    let mut scores = Vec::new();
    for _ in 0..iters {
        // assign
        let blocks = Blocks::new(&centroids, dim);
        for (slot, v) in assignment.iter_mut().zip(vectors.chunks_exact(dim)) {
            *slot = blocks.nearest(v, &mut scores);
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
    use crate::reference;

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
        assert_eq!(centroids.nearest(&[1.0, 1.0], &mut Vec::new()), 0);
        assert_eq!(centroids.nearest(&[9.0, 9.0], &mut Vec::new()), 1);
    }

    /// Centroid counts the screen must handle: one, a partial block, one
    /// full block, a full block and one more, and the `nlist` a default
    /// build reaches on 50,000 rows and at most.
    const COUNTS: [usize; 6] = [1, 7, 8, 9, 224, 256];

    /// `count` centroids: `near` spread over the positions (the last one
    /// in the last block), `far` everywhere else.
    fn around(near: &[Vec<f32>], far: &[f32], count: usize) -> Vec<f32> {
        let near = &near[..near.len().min(count)];
        let mut centroids = far.repeat(count);
        let dim = far.len();
        for (k, c) in near.iter().enumerate() {
            let at = (k + 1) * count / near.len() - 1;
            centroids[at * dim..][..dim].copy_from_slice(c);
        }
        centroids
    }

    /// `y`'s squared L2 distance to `v` as the screen sums it in `f32`
    /// and as the exact pass sums it in `f64`.
    fn both(v: &[f32], y: &[f32]) -> (f32, f64) {
        let d32 = v
            .iter()
            .zip(y)
            .fold(0.0f32, |d, (&x, &y)| d + (y - x) * (y - x));
        (d32, sq_dist(v, y))
    }

    /// A seeded search for rows whose two nearest centroids order one way
    /// in `f32` and another in `f64`, or tie exactly in `f64` and not in
    /// `f32`. Each pair sits among farther centroids at every count of
    /// [`COUNTS`] but one; the search must meet at least 100 rows of each
    /// kind, so the test cannot pass on rows whose screen is decided by a
    /// wide margin.
    #[test]
    fn the_screen_keeps_the_exact_winner_where_f32_reorders_or_ties() {
        let mut rng = StdRng::seed_from_u64(47);
        let mut scores = Vec::new();
        let (mut reordered, mut tied) = (0, 0);
        for trial in 0..4_000 {
            let dim = rng.random_range(2..=48usize);
            // coarse row values, differences of twelve bits: `v + diff`
            // is exact, so a permutation of the differences is the same
            // exact distance, summed in another order
            let v: Vec<f32> = (0..dim)
                .map(|_| rng.random_range(-32i32..32) as f32 / 8.0)
                .collect();
            let diff: Vec<f32> = (0..dim)
                .map(|_| {
                    let e = rng.random_range(-20i32..-4);
                    rng.random_range(-4095i32..4096) as f32 * (e as f32).exp2()
                })
                .collect();
            let mut other = diff.clone();
            for i in (1..dim).rev() {
                other.swap(i, rng.random_range(0..=i));
            }
            // half the time one difference moves by an ulp as well
            if rng.random_range(0..2) == 0 {
                let i = rng.random_range(0..dim);
                other[i] = f32::from_bits(other[i].to_bits() + 1);
            }
            let a: Vec<f32> = v.iter().zip(&diff).map(|(x, d)| x + d).collect();
            let b: Vec<f32> = v.iter().zip(&other).map(|(x, d)| x + d).collect();
            let ((a32, a64), (b32, b64)) = (both(&v, &a), both(&v, &b));
            if a32.partial_cmp(&b32) == a64.partial_cmp(&b64) {
                continue;
            }
            if a64 == b64 {
                tied += 1;
            } else {
                reordered += 1;
            }
            let far: Vec<f32> = v.iter().zip(&diff).map(|(x, d)| x + 3.0 * d).collect();
            let count = COUNTS[1 + trial % 5];
            for near in [[&a, &b], [&b, &a]] {
                let centroids = around(&near.map(|c| c.to_vec()), &far, count);
                assert_eq!(
                    Blocks::new(&centroids, dim).nearest(&v, &mut scores),
                    reference::nearest_centroid(&v, &centroids, dim),
                    "trial {trial}: dim {dim}, {count} centroids, f32 {a32} / {b32}, f64 {a64} / {b64}"
                );
            }
        }
        assert!(
            reordered >= 100 && tied >= 100,
            "{reordered} reordered and {tied} tied rows"
        );
    }

    /// Rows the screen cannot score in `f32`, or whose `f32` squares
    /// underflow, at every count of [`COUNTS`]: the exact winner all the
    /// same.
    #[test]
    fn overflowing_underflowing_and_nan_rows_keep_the_exact_winner() {
        let dim = 6;
        let at = |x: f32, y: f32| {
            let mut v = vec![y; dim];
            v[0] = x;
            v
        };
        let mut scores = Vec::new();
        let mut check = |what: &str, v: &[f32], near: &[Vec<f32>], far: &[f32]| {
            for count in COUNTS {
                let centroids = around(near, far, count);
                assert_eq!(
                    Blocks::new(&centroids, dim).nearest(v, &mut scores),
                    reference::nearest_centroid(v, &centroids, dim),
                    "{what}: {count} centroids"
                );
            }
        };
        check(
            "|x - y| > 1.9e19 overflows every f32 square",
            &at(1e19, 0.0),
            &[at(-1e19, 0.0), at(-0.99e19, 0.0)],
            &at(-3e19, 0.0),
        );
        check(
            "one f32 square overflows, the nearer one does not",
            &at(2e19, 0.0),
            &[at(0.0, 0.0), at(1e19, 0.0)],
            &at(-2e19, 0.0),
        );

        // (2⁶⁴)² = 2¹²⁸ overflows `f32`; (2⁶⁴ - 2⁴⁰)² does not, and each
        // `q²` < 2¹⁰³ added to it is lost in `f32`, though five of them
        // carry the exact sum past 2¹²⁸: the `f32` winner `w` is finite,
        // the `f64` winner `c` is not, so only the fallback finds `c`
        let origin = vec![0.0; dim];
        // `f32`'s √2 is just below √2
        let q = std::f32::consts::SQRT_2 * 2f32.powi(51);
        let mut w = vec![q; dim];
        w[0] = 2f32.powi(64) - 2f32.powi(40);
        let c = at(2f32.powi(64), 0.0);
        assert!(both(&origin, &w).0.is_finite() && both(&origin, &c).0.is_infinite());
        assert!(both(&origin, &c).1 < both(&origin, &w).1);
        check(
            "an f32 sum overflows where the f64 winner's is finite",
            &origin,
            &[w, c],
            &[1.5 * 2f32.powi(63); 6],
        );

        // 2⁻⁷⁶ squares to 2⁻¹⁵², which `f32` rounds to zero; just above
        // 2⁻⁷⁵ squares to just above 2⁻¹⁵⁰, which it rounds up to 2⁻¹⁴⁹:
        // the `f32` winner `w` is not the `f64` one, `c`, and only the
        // slack lets `c` through
        let mut w = vec![(-76f32).exp2(); dim];
        w[dim - 1] = 0.0;
        let c = at(f32::from_bits((-75f32).exp2().to_bits() + 1), 0.0);
        let tiny = f32::from_bits(1);
        assert_eq!((both(&origin, &w).0, both(&origin, &c).0), (0.0, tiny));
        assert!(both(&origin, &c).1 < both(&origin, &w).1);
        check(
            "the f32 winner underflows to zero, the f64 winner to 2^-149",
            &origin,
            &[w, c],
            &[1.0; 6],
        );
        check(
            "subnormal differences: every f32 square is zero",
            &origin,
            &[vec![2.0 * tiny; dim], vec![tiny; dim], at(tiny, 0.0)],
            &[3.0 * tiny; 6],
        );

        check(
            "a NaN row",
            &at(f32::NAN, 1.0),
            &[vec![1.0; dim], vec![2.0; dim]],
            &[3.0; 6],
        );
        check(
            "a NaN centroid before the nearest",
            &[1.0; 6],
            &[at(f32::NAN, 1.0), vec![1.5; dim]],
            &[3.0; 6],
        );
        check(
            "an infinite row",
            &at(f32::INFINITY, 1.0),
            &[vec![1.0; dim], at(f32::INFINITY, 1.0)],
            &[3.0; 6],
        );
    }
}
