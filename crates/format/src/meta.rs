//! Per-tensor metadata (`meta.json` in the tensor folder, §3.4).

use deeplake_codec::Compression;
use deeplake_tensor::{Dtype, Htype, Shape};
use serde::{Deserialize, Serialize};

use crate::Result;

/// Metadata describing one tensor: its semantic type, element type,
/// compression at both levels, running shape bounds and length, and
/// whether it is hidden (§3.4: hidden tensors hold derived data such as
/// down-sampled images or cached shapes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorMeta {
    /// Tensor name (may contain `/` for group nesting, §3.1).
    pub name: String,
    /// Semantic type.
    pub htype: Htype,
    /// Element dtype.
    pub dtype: Dtype,
    /// Per-sample compression (images: JPEG-like).
    pub sample_compression: Compression,
    /// Whole-chunk compression (labels: LZ4).
    pub chunk_compression: Compression,
    /// Number of samples.
    pub length: u64,
    /// Elementwise maximum of all sample shapes.
    pub max_shape: Shape,
    /// Elementwise minimum of all sample shapes.
    pub min_shape: Shape,
    /// Hidden tensors are excluded from default listings and streaming.
    pub hidden: bool,
    /// Links this tensor to a source tensor (e.g. a downsampled pyramid
    /// level points at its source image tensor).
    pub derived_from: Option<String>,
    /// Target chunk size in bytes (§3.5, default 8 MB).
    #[serde(default = "default_chunk_target")]
    pub chunk_target_bytes: u64,
    /// Monotone allocator for chunk ids; unique across versions so a chunk
    /// written on one branch never shadows another's.
    #[serde(default)]
    pub next_chunk_id: u64,
    /// Whether the writer records per-chunk scalar statistics (the TQL
    /// pushdown index). Defaults to `false` on deserialization so
    /// datasets written before statistics existed keep their stat-less
    /// layout — pruning is silently disabled for them; new tensors
    /// default to `true`.
    #[serde(default)]
    pub chunk_stats: bool,
}

fn default_chunk_target() -> u64 {
    crate::consts::DEFAULT_CHUNK_TARGET as u64
}

impl TensorMeta {
    /// Fresh metadata for a tensor of `htype`. The dtype defaults from the
    /// htype when it has one.
    pub fn new(name: impl Into<String>, htype: Htype, dtype: Option<Dtype>) -> Self {
        let dtype = dtype
            .or_else(|| htype.default_dtype())
            .unwrap_or(Dtype::F64);
        let sample_compression = match htype.base() {
            Htype::Image => Compression::JPEG_LIKE,
            _ => Compression::None,
        };
        let chunk_compression = match htype.base() {
            Htype::ClassLabel | Htype::Text => Compression::Lz4,
            Htype::BinaryMask => Compression::Rle,
            _ => Compression::None,
        };
        TensorMeta {
            name: name.into(),
            htype,
            dtype,
            sample_compression,
            chunk_compression,
            length: 0,
            max_shape: Shape::scalar(),
            min_shape: Shape::scalar(),
            hidden: false,
            derived_from: None,
            chunk_target_bytes: default_chunk_target(),
            next_chunk_id: 0,
            chunk_stats: true,
        }
    }

    /// Whether all samples so far share one shape (stackable into a dense
    /// batch without padding).
    pub fn is_uniform(&self) -> bool {
        self.length == 0 || self.max_shape == self.min_shape
    }

    /// Update the running shape bounds (in place) and length for an
    /// appended sample of `shape`.
    pub fn observe(&mut self, shape: &Shape) {
        if self.length == 0 {
            self.max_shape.clone_from(shape);
            self.min_shape.clone_from(shape);
        } else {
            self.max_shape.union_max_with(shape);
            self.min_shape.union_min_with(shape);
        }
        self.length += 1;
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<Vec<u8>> {
        Ok(serde_json::to_vec_pretty(self)?)
    }

    /// Parse from JSON.
    pub fn from_json(data: &[u8]) -> Result<Self> {
        Ok(serde_json::from_slice(data)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_htype() {
        let m = TensorMeta::new("images", Htype::Image, None);
        assert_eq!(m.dtype, Dtype::U8);
        assert_eq!(m.sample_compression, Compression::JPEG_LIKE);
        assert_eq!(m.chunk_compression, Compression::None);

        let m = TensorMeta::new("labels", Htype::ClassLabel, None);
        assert_eq!(m.dtype, Dtype::I32);
        assert_eq!(m.chunk_compression, Compression::Lz4);

        let m = TensorMeta::new("masks", Htype::BinaryMask, None);
        assert_eq!(m.chunk_compression, Compression::Rle);
    }

    #[test]
    fn explicit_dtype_wins() {
        let m = TensorMeta::new("x", Htype::Generic, Some(Dtype::F32));
        assert_eq!(m.dtype, Dtype::F32);
        let m = TensorMeta::new("y", Htype::Generic, None);
        assert_eq!(m.dtype, Dtype::F64);
    }

    #[test]
    fn observe_tracks_bounds() {
        let mut m = TensorMeta::new("images", Htype::Image, None);
        assert!(m.is_uniform());
        m.observe(&Shape::from([10, 20, 3]));
        assert!(m.is_uniform());
        m.observe(&Shape::from([30, 15, 3]));
        assert!(!m.is_uniform());
        assert_eq!(m.length, 2);
        assert_eq!(m.max_shape, Shape::from([30, 20, 3]));
        assert_eq!(m.min_shape, Shape::from([10, 15, 3]));
    }

    #[test]
    fn json_roundtrip() {
        let mut m = TensorMeta::new("seq", Htype::parse("sequence[image]").unwrap(), None);
        m.hidden = true;
        m.derived_from = Some("images".into());
        m.observe(&Shape::from([4, 8, 8, 3]));
        let blob = m.to_json().unwrap();
        let back = TensorMeta::from_json(&blob).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(TensorMeta::from_json(b"{not json").is_err());
    }

    #[test]
    fn pre_statistics_metadata_opens_with_stats_off() {
        // a meta.json written before chunk statistics existed has no
        // `chunk_stats` field: it must deserialize with the flag off
        let m = TensorMeta::new("labels", Htype::ClassLabel, None);
        assert!(m.chunk_stats, "new tensors record stats");
        let blob = String::from_utf8(m.to_json().unwrap()).unwrap();
        let legacy: String = blob
            .lines()
            .filter(|l| !l.contains("chunk_stats"))
            .collect::<Vec<_>>()
            .join("\n");
        // drop the dangling comma the removed field leaves behind
        let legacy = legacy.replace(",\n}", "\n}");
        let back = TensorMeta::from_json(legacy.as_bytes()).unwrap();
        assert!(!back.chunk_stats, "legacy metadata keeps stats disabled");
        assert_eq!(back.name, m.name);
    }
}
