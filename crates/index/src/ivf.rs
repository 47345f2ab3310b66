//! IVF-style clustered index: k-means centroids plus per-cluster posting
//! lists of row ids.
//!
//! Build: train centroids over a bounded sample of the tensor's vectors
//! (see [`crate::kmeans`]), then assign *every* row to its nearest
//! centroid. Probe: rank centroids against the query under the query's
//! metric, take the `nprobe` best clusters, and return the union of their
//! posting lists — the candidate set an exact re-rank then scores with
//! the true vectors. `nprobe = nlist` degrades to the exact flat scan
//! (recall 1.0); small `nprobe` trades recall for fetched chunks.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::IndexError;
use crate::kmeans;
use crate::metric::Metric;
use crate::{IndexSpec, Result};

/// Clustered (inverted-file) vector index for one tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfIndex {
    dim: u32,
    rows: u64,
    /// `nlist × dim` centroid matrix, row-major.
    centroids: Vec<f32>,
    /// Per-cluster sorted row ids; every row `0..rows` appears exactly
    /// once across all lists.
    postings: Vec<Vec<u64>>,
}

/// Outcome of probing an [`IvfIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// How many clusters were probed (`min(nprobe, nlist)`).
    pub clusters_probed: usize,
    /// Candidate row ids, ascending and unique.
    pub rows: Vec<u64>,
}

impl IvfIndex {
    /// Build over `rows` vectors of `dim` floats (`vectors.len() == rows
    /// * dim`), training centroids on a sample per `spec`.
    pub fn build(vectors: &[f32], dim: usize, spec: &IndexSpec) -> Result<IvfIndex> {
        if dim == 0 || vectors.is_empty() || !vectors.len().is_multiple_of(dim) {
            return Err(IndexError::Unsupported(format!(
                "cannot cluster {} floats into dim-{dim} vectors",
                vectors.len()
            )));
        }
        let n = vectors.len() / dim;
        let nlist = spec
            .nlist
            .unwrap_or_else(|| (n as f64).sqrt().round() as usize)
            .clamp(1, 256)
            .min(n);

        // bounded training sample, picked deterministically
        let sample = spec.train_sample.max(nlist).min(n);
        let centroids = if sample == n {
            kmeans::train(vectors, dim, n, nlist, spec.train_iters, spec.seed)
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
            kmeans::train(&training, dim, sample, nlist, spec.train_iters, spec.seed)
        };

        // assign every row to its nearest centroid
        let blocks = kmeans::Blocks::new(&centroids, dim);
        let mut postings: Vec<Vec<u64>> = vec![Vec::new(); centroids.len() / dim];
        let mut scores = Vec::new();
        for (i, v) in vectors.chunks_exact(dim).enumerate() {
            postings[blocks.nearest(v, &mut scores)].push(i as u64);
        }
        Ok(IvfIndex {
            dim: dim as u32,
            rows: n as u64,
            centroids,
            postings,
        })
    }

    /// Construct from parts (deserialization path).
    pub(crate) fn from_parts(
        dim: u32,
        rows: u64,
        centroids: Vec<f32>,
        postings: Vec<Vec<u64>>,
    ) -> IvfIndex {
        IvfIndex {
            dim,
            rows,
            centroids,
            postings,
        }
    }

    /// Vector dimensionality the index was built for.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Rows covered at build time (rows appended later are unindexed).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of clusters.
    pub fn nlist(&self) -> usize {
        self.postings.len()
    }

    /// Centroid matrix (`nlist × dim`, row-major).
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Posting list of one cluster.
    pub fn posting(&self, cluster: usize) -> &[u64] {
        &self.postings[cluster]
    }

    /// Probe the `nprobe` clusters closest to `query` under `metric`,
    /// returning the union of their posting lists (ascending row ids).
    ///
    /// The query length must equal [`IvfIndex::dim`]; callers check and
    /// fall back to the flat path otherwise.
    pub fn probe(&self, query: &[f64], metric: Metric, nprobe: usize) -> Probe {
        debug_assert_eq!(query.len(), self.dim());
        let dim = self.dim();
        let nprobe = nprobe.clamp(1, self.nlist());
        // score every centroid; keep the nprobe closest. One scratch
        // buffer widens f32 centroids — no per-centroid allocation in
        // the query hot loop.
        let mut scratch = vec![0.0f64; dim];
        let mut ranked: Vec<(usize, f64)> = (0..self.nlist())
            .map(|c| {
                for (s, &v) in scratch
                    .iter_mut()
                    .zip(&self.centroids[c * dim..(c + 1) * dim])
                {
                    *s = v as f64;
                }
                (c, metric.score(&scratch, query))
            })
            .collect();
        ranked.sort_by(|a, b| {
            let o = a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal);
            let o = if metric.higher_is_closer() {
                o.reverse()
            } else {
                o
            };
            o.then(a.0.cmp(&b.0))
        });
        ranked.truncate(nprobe);

        let mut rows: Vec<u64> = ranked
            .iter()
            .flat_map(|&(c, _)| self.postings[c].iter().copied())
            .collect();
        rows.sort_unstable();
        // well-formed posting lists are disjoint (deserialization enforces
        // it); dedup anyway so a duplicate can never score a row twice
        rows.dedup();
        Probe {
            clusters_probed: nprobe,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 well-separated 2-D blobs of 8 rows each, rows grouped by blob.
    fn blobs() -> (Vec<f32>, usize) {
        let centers = [(0.0f32, 0.0f32), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)];
        let mut v = Vec::new();
        for &(cx, cy) in &centers {
            for i in 0..8 {
                v.push(cx + (i % 3) as f32 * 0.1);
                v.push(cy + (i % 5) as f32 * 0.1);
            }
        }
        (v, 2)
    }

    fn spec(nlist: usize) -> IndexSpec {
        IndexSpec {
            nlist: Some(nlist),
            ..IndexSpec::default()
        }
    }

    #[test]
    fn build_covers_every_row_once() {
        let (v, dim) = blobs();
        let idx = IvfIndex::build(&v, dim, &spec(4)).unwrap();
        assert_eq!(idx.rows(), 32);
        assert_eq!(idx.dim(), 2);
        let mut all: Vec<u64> = (0..idx.nlist())
            .flat_map(|c| idx.posting(c).to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn probe_one_cluster_finds_the_right_blob() {
        let (v, dim) = blobs();
        let idx = IvfIndex::build(&v, dim, &spec(4)).unwrap();
        // query near blob 1 (rows 8..16)
        let p = idx.probe(&[50.0, 0.0], Metric::L2, 1);
        assert_eq!(p.clusters_probed, 1);
        assert!(!p.rows.is_empty());
        assert!(
            p.rows.iter().all(|&r| (8..16).contains(&r)),
            "probe leaked other blobs: {:?}",
            p.rows
        );
    }

    #[test]
    fn full_probe_returns_all_rows() {
        let (v, dim) = blobs();
        let idx = IvfIndex::build(&v, dim, &spec(4)).unwrap();
        let p = idx.probe(&[1.0, 1.0], Metric::Cosine, idx.nlist());
        assert_eq!(p.rows, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn nprobe_clamped() {
        let (v, dim) = blobs();
        let idx = IvfIndex::build(&v, dim, &spec(4)).unwrap();
        let p = idx.probe(&[0.0, 0.0], Metric::L2, 1000);
        assert_eq!(p.clusters_probed, idx.nlist());
        let p = idx.probe(&[0.0, 0.0], Metric::L2, 0);
        assert_eq!(p.clusters_probed, 1);
    }

    #[test]
    fn bad_shapes_rejected() {
        assert!(IvfIndex::build(&[], 2, &spec(2)).is_err());
        assert!(IvfIndex::build(&[1.0, 2.0, 3.0], 2, &spec(2)).is_err());
        assert!(IvfIndex::build(&[1.0, 2.0], 0, &spec(2)).is_err());
    }

    #[test]
    fn sampled_training_still_builds() {
        let (v, dim) = blobs();
        let s = IndexSpec {
            nlist: Some(4),
            train_sample: 8, // fewer than the 32 rows
            ..IndexSpec::default()
        };
        let idx = IvfIndex::build(&v, dim, &s).unwrap();
        assert_eq!(idx.rows(), 32);
        let total: usize = (0..idx.nlist()).map(|c| idx.posting(c).len()).sum();
        assert_eq!(total, 32);
    }
}
