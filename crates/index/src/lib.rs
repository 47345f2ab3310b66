//! # deeplake-index
//!
//! Embedding (vector similarity) search for Deep Lake — the index layer
//! behind TQL's `ORDER BY COSINE_SIMILARITY(col, [..]) LIMIT k` top-k
//! operator. The paper's lakehouse serves deep-learning workloads whose
//! signature query is "the k samples most similar to this embedding";
//! this crate supplies the two index structures that answer it:
//!
//! * **Flat** ([`flat`]) — the exact brute-force scanner: score every
//!   row, keep the best k. No build cost, no serialized state, perfect
//!   recall — the in-memory reference the IVF index's recall is
//!   measured against. (TQL's exact execution path implements the same
//!   brute-force idea through its own row evaluator so its ordering
//!   matches the naive sort stage exactly.)
//! * **IVF** ([`ivf`]) — an inverted-file index: k-means centroids
//!   ([`kmeans`]) trained over a sampled subset, plus per-cluster
//!   posting lists of row ids. A query probes the `nprobe` nearest
//!   clusters and exact-re-ranks only their rows, so object storage
//!   fetches only the candidate chunks instead of the whole tensor.
//!
//! ## Storage & lifecycle
//!
//! A built index binary-serializes (magic `DLVX`) under the owning
//! tensor's version directory at [`VECTOR_INDEX_KEY`]
//! (`vector_index/index`), written through the same `StorageProvider`
//! chain as chunks — memory, local disk, simulated S3, and LRU tiers all
//! work unchanged. The version layer guards staleness: in-place updates
//! and re-chunking tombstone the index ([`VECTOR_INDEX_STALE_KEY`]) so a
//! stale structure can never serve wrong rows; committed versions keep
//! their index readable through the chain walk, and rows appended after
//! a build are simply scanned exactly and merged into the candidate set.
//!
//! ## Scoring
//!
//! [`metric::Metric`] implements cosine similarity and L2 distance once,
//! shared by TQL's row evaluator, the flat scanner, and the IVF probe —
//! approximate and exact paths can never disagree on the math.

pub mod error;
pub mod flat;
pub mod ivf;
pub mod kmeans;
pub mod metric;

pub use error::IndexError;
pub use flat::Scored;
pub use ivf::{IvfIndex, Probe};
pub use metric::Metric;

use deeplake_format::consts::{VECTOR_INDEX_MAGIC, VECTOR_INDEX_VERSION};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IndexError>;

/// Storage key of a tensor's serialized vector index, relative to the
/// tensor's version directory (the `vector_index/` key family).
pub const VECTOR_INDEX_KEY: &str = "vector_index/index";

/// Tombstone key marking a tensor's vector index stale: written on
/// in-place updates and re-chunking so an index persisted in an
/// *ancestor* version directory cannot serve rows this version changed.
pub const VECTOR_INDEX_STALE_KEY: &str = "vector_index/stale";

/// Which index structure to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Exact flat scan (a stored marker; probing returns every row).
    Flat,
    /// IVF clustered index.
    Ivf,
}

/// Build parameters for [`VectorIndex::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSpec {
    /// Structure to build.
    pub kind: IndexKind,
    /// Cluster count for IVF (`None` = `sqrt(rows)` clamped to `1..=256`).
    pub nlist: Option<usize>,
    /// Lloyd iterations for k-means training.
    pub train_iters: usize,
    /// Upper bound on rows sampled for training.
    pub train_sample: usize,
    /// PRNG seed: same data + same spec = same index.
    pub seed: u64,
}

impl Default for IndexSpec {
    fn default() -> Self {
        IndexSpec {
            kind: IndexKind::Ivf,
            nlist: None,
            train_iters: 8,
            train_sample: 4096,
            seed: 0x1DE7,
        }
    }
}

/// A built, serializable vector index over one tensor's rows `0..rows`.
#[derive(Debug, Clone, PartialEq)]
pub enum VectorIndex {
    /// Exact-scan marker: no structure, probing is the identity.
    Flat {
        /// Vector dimensionality at build time.
        dim: u32,
        /// Rows covered at build time.
        rows: u64,
    },
    /// IVF clustered index.
    Ivf(IvfIndex),
}

impl VectorIndex {
    /// Build per `spec` over `rows = vectors.len() / dim` vectors.
    pub fn build(vectors: &[f32], dim: usize, spec: &IndexSpec) -> Result<VectorIndex> {
        if dim == 0 || vectors.is_empty() || !vectors.len().is_multiple_of(dim) {
            return Err(IndexError::Unsupported(format!(
                "cannot index {} floats as dim-{dim} vectors",
                vectors.len()
            )));
        }
        match spec.kind {
            IndexKind::Flat => Ok(VectorIndex::Flat {
                dim: dim as u32,
                rows: (vectors.len() / dim) as u64,
            }),
            IndexKind::Ivf => Ok(VectorIndex::Ivf(IvfIndex::build(vectors, dim, spec)?)),
        }
    }

    /// Structure kind.
    pub fn kind(&self) -> IndexKind {
        match self {
            VectorIndex::Flat { .. } => IndexKind::Flat,
            VectorIndex::Ivf(_) => IndexKind::Ivf,
        }
    }

    /// Vector dimensionality the index was built for.
    pub fn dim(&self) -> usize {
        match self {
            VectorIndex::Flat { dim, .. } => *dim as usize,
            VectorIndex::Ivf(ivf) => ivf.dim(),
        }
    }

    /// Rows covered at build time; rows appended later are unindexed and
    /// must be scanned exactly by the consumer.
    pub fn rows(&self) -> u64 {
        match self {
            VectorIndex::Flat { rows, .. } => *rows,
            VectorIndex::Ivf(ivf) => ivf.rows(),
        }
    }

    /// Candidate rows for `query`: every indexed row for a flat index,
    /// the `nprobe`-cluster union for IVF.
    pub fn probe(&self, query: &[f64], metric: Metric, nprobe: usize) -> Probe {
        match self {
            VectorIndex::Flat { rows, .. } => Probe {
                clusters_probed: 0,
                rows: (0..*rows).collect(),
            },
            VectorIndex::Ivf(ivf) => ivf.probe(query, metric, nprobe),
        }
    }

    /// Binary serialization:
    /// `[magic][version][kind u8][dim u32][rows u64]` then, for IVF,
    /// `[nlist u32]`, `nlist × dim` centroid `f32`s, and per cluster
    /// `[count u64][count × row u64]`.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&VECTOR_INDEX_MAGIC);
        out.push(VECTOR_INDEX_VERSION);
        out.push(match self.kind() {
            IndexKind::Flat => 0,
            IndexKind::Ivf => 1,
        });
        out.extend_from_slice(&(self.dim() as u32).to_le_bytes());
        out.extend_from_slice(&self.rows().to_le_bytes());
        if let VectorIndex::Ivf(ivf) = self {
            out.extend_from_slice(&(ivf.nlist() as u32).to_le_bytes());
            for &c in ivf.centroids() {
                out.extend_from_slice(&c.to_le_bytes());
            }
            for cluster in 0..ivf.nlist() {
                let posting = ivf.posting(cluster);
                out.extend_from_slice(&(posting.len() as u64).to_le_bytes());
                for &row in posting {
                    out.extend_from_slice(&row.to_le_bytes());
                }
            }
        }
        out
    }

    /// Inverse of [`VectorIndex::serialize`].
    pub fn deserialize(data: &[u8]) -> Result<VectorIndex> {
        let mut r = Reader { data, pos: 0 };
        let magic = r.take(4)?;
        if magic != VECTOR_INDEX_MAGIC {
            return Err(IndexError::Corrupt("bad vector index magic".into()));
        }
        let version = r.u8()?;
        if version != VECTOR_INDEX_VERSION {
            return Err(IndexError::Corrupt(format!(
                "unsupported vector index version {version}"
            )));
        }
        let kind = r.u8()?;
        let dim = r.u32()?;
        let rows = r.u64()?;
        if dim == 0 {
            return Err(IndexError::Corrupt("zero-dimension vector index".into()));
        }
        match kind {
            0 => {
                r.finish()?;
                Ok(VectorIndex::Flat { dim, rows })
            }
            1 => {
                let nlist = r.u32()? as usize;
                if nlist == 0 {
                    return Err(IndexError::Corrupt("IVF index with zero clusters".into()));
                }
                // every size header is bounded against the bytes actually
                // present BEFORE any allocation: a corrupt header must
                // yield Err, never a capacity-overflow panic or huge alloc
                let centroid_count = (nlist as u64)
                    .checked_mul(dim as u64)
                    .filter(|&c| c.checked_mul(4).is_some_and(|b| b <= r.remaining() as u64))
                    .ok_or_else(|| {
                        IndexError::Corrupt("centroid matrix exceeds blob size".into())
                    })? as usize;
                let mut centroids = Vec::with_capacity(centroid_count);
                for _ in 0..centroid_count {
                    centroids.push(r.f32()?);
                }
                let mut postings = Vec::with_capacity(nlist);
                let mut total: u64 = 0;
                // probing unions posting lists without re-checking, so a
                // corrupt blob must not smuggle out-of-range, unsorted, or
                // duplicate row ids past deserialization
                let mut seen = std::collections::HashSet::new();
                for _ in 0..nlist {
                    let count = r.u64()?;
                    total = total.saturating_add(count);
                    if total > rows || count > r.remaining() as u64 / 8 {
                        return Err(IndexError::Corrupt(
                            "posting lists exceed indexed row count".into(),
                        ));
                    }
                    let mut list = Vec::with_capacity(count as usize);
                    for _ in 0..count {
                        let row = r.u64()?;
                        if row >= rows {
                            return Err(IndexError::Corrupt(format!(
                                "posting row {row} out of range (rows {rows})"
                            )));
                        }
                        if !seen.insert(row) {
                            return Err(IndexError::Corrupt(format!(
                                "row {row} appears in multiple posting lists"
                            )));
                        }
                        if let Some(&prev) = list.last() {
                            if prev >= row {
                                return Err(IndexError::Corrupt(
                                    "posting list not strictly ascending".into(),
                                ));
                            }
                        }
                        list.push(row);
                    }
                    postings.push(list);
                }
                r.finish()?;
                Ok(VectorIndex::Ivf(IvfIndex::from_parts(
                    dim, rows, centroids, postings,
                )))
            }
            other => Err(IndexError::Corrupt(format!(
                "unknown vector index kind {other}"
            ))),
        }
    }
}

/// Bounds-checked little-endian reader over a serialized index.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| IndexError::Corrupt("truncated vector index".into()))?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn finish(&self) -> Result<()> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(IndexError::Corrupt("trailing bytes in vector index".into()))
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors() -> Vec<f32> {
        // 16 rows, dim 2: two blobs
        let mut v = Vec::new();
        for i in 0..8 {
            v.push(i as f32 * 0.1);
            v.push(0.0);
        }
        for i in 0..8 {
            v.push(40.0 + i as f32 * 0.1);
            v.push(40.0);
        }
        v
    }

    #[test]
    fn ivf_roundtrip() {
        let idx = VectorIndex::build(
            &vectors(),
            2,
            &IndexSpec {
                nlist: Some(2),
                ..IndexSpec::default()
            },
        )
        .unwrap();
        assert_eq!(idx.kind(), IndexKind::Ivf);
        assert_eq!(idx.dim(), 2);
        assert_eq!(idx.rows(), 16);
        let blob = idx.serialize();
        let back = VectorIndex::deserialize(&blob).unwrap();
        assert_eq!(back, idx);
    }

    #[test]
    fn flat_roundtrip_and_probe() {
        let idx = VectorIndex::build(
            &vectors(),
            2,
            &IndexSpec {
                kind: IndexKind::Flat,
                ..IndexSpec::default()
            },
        )
        .unwrap();
        let back = VectorIndex::deserialize(&idx.serialize()).unwrap();
        assert_eq!(back, idx);
        let p = back.probe(&[0.0, 0.0], Metric::L2, 1);
        assert_eq!(p.rows, (0..16).collect::<Vec<u64>>());
        assert_eq!(p.clusters_probed, 0);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(VectorIndex::deserialize(b"").is_err());
        assert!(VectorIndex::deserialize(b"nope").is_err());
        let idx = VectorIndex::build(&vectors(), 2, &IndexSpec::default()).unwrap();
        let mut blob = idx.serialize();
        blob[0] = b'Q'; // magic
        assert!(VectorIndex::deserialize(&blob).is_err());
        let mut blob = idx.serialize();
        blob[4] = 99; // version
        assert!(VectorIndex::deserialize(&blob).is_err());
        let mut blob = idx.serialize();
        blob.pop(); // truncated
        assert!(VectorIndex::deserialize(&blob).is_err());
        let mut blob = idx.serialize();
        blob.push(0); // trailing
        assert!(VectorIndex::deserialize(&blob).is_err());
    }

    #[test]
    fn deserialize_rejects_huge_size_headers_without_panicking() {
        // valid magic/version, kind=1, dim=1, rows=u64::MAX, nlist=u32::MAX:
        // every size header lies about data that is not there
        let mut blob = Vec::new();
        blob.extend_from_slice(&VECTOR_INDEX_MAGIC);
        blob.push(VECTOR_INDEX_VERSION);
        blob.push(1);
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.extend_from_slice(&u64::MAX.to_le_bytes());
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(VectorIndex::deserialize(&blob).is_err());
        // plausible nlist but a posting count claiming 2^61 rows
        let mut blob = Vec::new();
        blob.extend_from_slice(&VECTOR_INDEX_MAGIC);
        blob.push(VECTOR_INDEX_VERSION);
        blob.push(1);
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.extend_from_slice(&u64::MAX.to_le_bytes());
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.extend_from_slice(&0f32.to_le_bytes());
        blob.extend_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(VectorIndex::deserialize(&blob).is_err());
    }

    #[test]
    fn deserialize_rejects_malformed_postings() {
        let make = |postings: Vec<Vec<u64>>| {
            let centroids = vec![0.0f32; postings.len() * 2];
            VectorIndex::Ivf(IvfIndex::from_parts(2, 4, centroids, postings)).serialize()
        };
        // duplicate row across lists
        let blob = make(vec![vec![0, 1], vec![1, 2]]);
        assert!(VectorIndex::deserialize(&blob).is_err());
        // out-of-range row
        let blob = make(vec![vec![0], vec![9]]);
        assert!(VectorIndex::deserialize(&blob).is_err());
        // unsorted list
        let blob = make(vec![vec![2, 1], vec![3]]);
        assert!(VectorIndex::deserialize(&blob).is_err());
        // well-formed round-trips
        let blob = make(vec![vec![0, 2], vec![1, 3]]);
        assert!(VectorIndex::deserialize(&blob).is_ok());
    }

    #[test]
    fn build_rejects_bad_shapes() {
        assert!(VectorIndex::build(&[], 2, &IndexSpec::default()).is_err());
        assert!(VectorIndex::build(&[1.0; 3], 2, &IndexSpec::default()).is_err());
    }

    #[test]
    fn default_nlist_is_sqrt() {
        let v: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let idx = VectorIndex::build(&v, 1, &IndexSpec::default()).unwrap();
        if let VectorIndex::Ivf(ivf) = &idx {
            assert_eq!(ivf.nlist(), 10);
        } else {
            panic!("default kind is IVF");
        }
    }
}
