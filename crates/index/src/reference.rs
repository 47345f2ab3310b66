//! The scalar index build the blocked kernel replaced, kept as the
//! oracle it must equal bit for bit: one `f64` accumulator per (row,
//! centroid) pair, the empty-cluster re-seed as first written, and
//! `IvfIndex::build`'s sampling and posting assignment around them.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::IndexSpec;

/// Index of the centroid nearest to `v` under squared L2.
pub fn nearest_centroid(v: &[f32], centroids: &[f32], dim: usize) -> usize {
    let k = centroids.len() / dim;
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for c in 0..k {
        let centroid = &centroids[c * dim..(c + 1) * dim];
        let mut d = 0.0f64;
        for (&x, &y) in v.iter().zip(centroid) {
            let diff = (x - y) as f64;
            d += diff * diff;
        }
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Train `k` centroids over `n` vectors of `dim` floats, running `iters`
/// Lloyd iterations.
pub fn train(vectors: &[f32], dim: usize, n: usize, k: usize, iters: usize, seed: u64) -> Vec<f32> {
    assert_eq!(vectors.len(), n * dim, "flat vector array shape mismatch");
    assert!(n > 0 && dim > 0, "k-means needs data");
    let k = k.clamp(1, n);
    let mut rng = StdRng::seed_from_u64(seed);

    let sq_dist = |a: &[f32], b: &[f32]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = (x - y) as f64;
                d * d
            })
            .sum()
    };
    let first = rng.random_range(0..n);
    let mut centroids: Vec<f32> = vectors[first * dim..(first + 1) * dim].to_vec();
    let mut nearest_sq: Vec<f64> = (0..n)
        .map(|i| sq_dist(&vectors[i * dim..(i + 1) * dim], &centroids[..dim]))
        .collect();
    while centroids.len() < k * dim {
        let far = nearest_sq
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let picked = &vectors[far * dim..(far + 1) * dim];
        centroids.extend_from_slice(picked);
        for (i, slot) in nearest_sq.iter_mut().enumerate() {
            let d = sq_dist(&vectors[i * dim..(i + 1) * dim], picked);
            if d < *slot {
                *slot = d;
            }
        }
    }

    let mut assignment = vec![0usize; n];
    for _ in 0..iters {
        for (i, slot) in assignment.iter_mut().enumerate() {
            *slot = nearest_centroid(&vectors[i * dim..(i + 1) * dim], &centroids, dim);
        }
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0u64; k];
        for (i, &c) in assignment.iter().enumerate() {
            counts[c] += 1;
            for d in 0..dim {
                sums[c * dim + d] += vectors[i * dim + d] as f64;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for d in 0..dim {
                    centroids[c * dim + d] = (sums[c * dim + d] / counts[c] as f64) as f32;
                }
            }
        }
        let mut stolen: Vec<usize> = Vec::new();
        for c in 0..k {
            if counts[c] > 0 {
                continue;
            }
            let mut pick: Option<(usize, f64)> = None;
            for (i, &a) in assignment.iter().enumerate() {
                if counts[a] <= 1 || stolen.contains(&i) {
                    continue;
                }
                let d = sq_dist(
                    &vectors[i * dim..(i + 1) * dim],
                    &centroids[a * dim..(a + 1) * dim],
                );
                if pick.map(|(_, best)| d > best).unwrap_or(true) {
                    pick = Some((i, d));
                }
            }
            if let Some((i, _)) = pick {
                counts[assignment[i]] -= 1;
                stolen.push(i);
                centroids[c * dim..(c + 1) * dim].copy_from_slice(&vectors[i * dim..(i + 1) * dim]);
            }
        }
    }
    centroids
}

/// `IvfIndex::build`'s centroids and posting lists over well-shaped
/// input (`dim > 0`, `vectors.len()` a non-zero multiple of `dim`).
pub fn build(vectors: &[f32], dim: usize, spec: &IndexSpec) -> (Vec<f32>, Vec<Vec<u64>>) {
    let n = vectors.len() / dim;
    let nlist = spec
        .nlist
        .unwrap_or_else(|| (n as f64).sqrt().round() as usize)
        .clamp(1, 256)
        .min(n);
    let sample = spec.train_sample.max(nlist).min(n);
    let centroids = if sample == n {
        train(vectors, dim, n, nlist, spec.train_iters, spec.seed)
    } else {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut picked = vec![false; n];
        let mut training = Vec::with_capacity(sample * dim);
        let mut count = 0;
        while count < sample {
            let i = rng.random_range(0..n);
            if !picked[i] {
                picked[i] = true;
                training.extend_from_slice(&vectors[i * dim..(i + 1) * dim]);
                count += 1;
            }
        }
        train(&training, dim, sample, nlist, spec.train_iters, spec.seed)
    };
    let nlist = centroids.len() / dim;
    let mut postings: Vec<Vec<u64>> = vec![Vec::new(); nlist];
    for i in 0..n {
        let c = nearest_centroid(&vectors[i * dim..(i + 1) * dim], &centroids, dim);
        postings[c].push(i as u64);
    }
    (centroids, postings)
}

mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use crate::{kmeans, IndexKind, IndexSpec, IvfIndex, VectorIndex};

    /// Components that stress ties and IEEE corners: NaN, ±inf, ±1e30,
    /// subnormals and signed zeros.
    const SPECIAL: [f32; 10] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e30,
        -1e30,
        1e-45,
        -3e-42,
        0.0,
        -0.0,
        1.0,
    ];

    /// `n` rows of `dim` floats in one of seven shapes of data.
    fn data(shape: u8, n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut noise =
            |scale: f32| (rng.random_range(0u32..1 << 20) as f32 / (1 << 20) as f32 - 0.5) * scale;
        match shape {
            // a few tight clusters
            0 => {
                let centers: Vec<f32> = (0..5 * dim).map(|_| noise(200.0)).collect();
                (0..n)
                    .flat_map(|i| (0..dim).map(move |d| (i % 5, d)))
                    .map(|(c, d)| centers[c * dim + d] + noise(1.0))
                    .collect()
            }
            // rows repeated from a pool of seven
            1 => {
                let pool: Vec<f32> = (0..7 * dim).map(|_| noise(10.0)).collect();
                (0..n)
                    .flat_map(|i| pool[(i * 3 % 7) * dim..(i * 3 % 7 + 1) * dim].to_vec())
                    .collect()
            }
            // small integers: distances tie everywhere
            2 => (0..n * dim).map(|_| noise(4.0).round()).collect(),
            // IEEE corners mixed into ordinary values
            3 => (0..n * dim)
                .map(|_| {
                    let x = noise(20.0);
                    if x.abs() < 4.0 {
                        SPECIAL[(x.abs() * 2.5) as usize]
                    } else {
                        x
                    }
                })
                .collect(),
            // every row the same
            4 => {
                let row: Vec<f32> = (0..dim).map(|_| noise(3.0)).collect();
                row.repeat(n)
            }
            // two values
            5 => (0..n * dim)
                .map(|_| if noise(1.0) < 0.0 { -2.5 } else { 7.0 })
                .collect(),
            _ => (0..n * dim).map(|_| noise(100.0)).collect(),
        }
    }

    /// Centroids compared bit for bit, NaNs as one: which NaN a sum keeps
    /// is the code generator's choice.
    fn bits(centroids: &[f32]) -> Vec<u32> {
        centroids
            .iter()
            .map(|c| {
                if c.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    c.to_bits()
                }
            })
            .collect()
    }

    fn built(vectors: &[f32], dim: usize, spec: &IndexSpec) -> (Vec<f32>, Vec<Vec<u64>>) {
        let idx = IvfIndex::build(vectors, dim, spec).unwrap();
        let postings = (0..idx.nlist()).map(|c| idx.posting(c).to_vec()).collect();
        (idx.centroids().to_vec(), postings)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn build_equals_the_reference_build(
            n in 1usize..600,
            k in 1usize..40,
            dim in 1usize..70,
            iters in 0usize..4,
            sampled in any::<bool>(),
            shape in 0u8..7,
            seed in any::<u64>(),
        ) {
            let vectors = data(shape, n, dim, seed);
            // k > n clamps inside `train`; `IvfIndex::build` clamps before
            prop_assert_eq!(
                bits(&kmeans::train(&vectors, dim, n, k, iters, seed)),
                bits(&super::train(&vectors, dim, n, k, iters, seed)),
                "train: shape {} n {} k {} dim {} iters {}", shape, n, k, dim, iters
            );
            let spec = IndexSpec {
                kind: IndexKind::Ivf,
                nlist: Some(k),
                train_iters: iters,
                // below n: the sampled path; at or above: the whole data
                train_sample: if sampled { 1 + seed as usize % n } else { n + k },
                seed,
            };
            let (centroids, postings) = built(&vectors, dim, &spec);
            let (want_centroids, want_postings) = super::build(&vectors, dim, &spec);
            prop_assert_eq!(bits(&centroids), bits(&want_centroids), "shape {} n {} k {} dim {}", shape, n, k, dim);
            prop_assert_eq!(postings, want_postings, "shape {} n {} k {} dim {}", shape, n, k, dim);
        }
    }

    #[test]
    fn degenerate_inputs_equal_the_reference() {
        // every row identical, then two values: one cluster holds every
        // row and all the others re-seed each iteration
        for shape in [4, 5] {
            let (n, dim, k) = (1_500, 4, 100);
            let vectors = data(shape, n, dim, 11);
            assert_eq!(
                bits(&kmeans::train(&vectors, dim, n, k, 3, 3)),
                bits(&super::train(&vectors, dim, n, k, 3, 3)),
                "shape {shape}"
            );
        }
    }

    #[test]
    fn a_seeded_build_serializes_to_the_reference_bytes() {
        let (n, dim) = (5_000, 32);
        let vectors = data(0, n, dim, 5);
        let spec = IndexSpec {
            seed: 9,
            ..IndexSpec::default()
        };
        let (centroids, postings) = super::build(&vectors, dim, &spec);
        let want = VectorIndex::Ivf(IvfIndex::from_parts(
            dim as u32, n as u64, centroids, postings,
        ));
        let got = VectorIndex::build(&vectors, dim, &spec).unwrap();
        assert!(
            got.serialize() == want.serialize(),
            "serialized index differs"
        );
    }
}
