//! Htypes: semantic tensor types (§3.3 of the paper).
//!
//! An htype declares what samples in a tensor *mean* — image, bounding box,
//! class label — and from that meaning derives validation rules (expected
//! dtype, rank) and sensible defaults (sample compression for images, chunk
//! compression for labels). Meta htypes wrap an inner htype:
//! `sequence[image]` stores a variable-length series of images per row,
//! `link[image]` stores a pointer to an externally stored image while
//! keeping image semantics.

use serde::{Deserialize, Serialize};

use crate::dtype::Dtype;
use crate::error::TensorError;
use crate::sample::Sample;
use crate::shape::Shape;

/// Semantic type of a tensor.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Htype {
    /// No expectations: any dtype, any shape.
    #[default]
    Generic,
    /// H×W×C `uint8` image. Defaults to lossy sample compression.
    Image,
    /// Encoded video: rank-4 `uint8` (frames × H × W × C). Never tiled
    /// (§3.4: frame mapping + key-frame decompression + range requests).
    Video,
    /// Audio: rank-1 or rank-2 (`samples` or `samples × channels`) float.
    Audio,
    /// Bounding boxes: `N×4` `float32` (x, y, w, h).
    BBox,
    /// Categorical integer label, scalar or rank-1.
    ClassLabel,
    /// H×W boolean segmentation mask.
    BinaryMask,
    /// UTF-8 text as rank-1 `uint8`.
    Text,
    /// Fixed or variable length `float32` embedding vector.
    Embedding,
    /// DICOM-like volumetric medical data: rank-3 numeric.
    Dicom,
    /// A variable-length sequence of samples of the inner htype per row.
    Sequence(Box<Htype>),
    /// A pointer to an externally stored sample with inner htype semantics.
    Link(Box<Htype>),
}

impl Htype {
    /// Parse the textual form used in dataset schemas, e.g. `"image"`,
    /// `"sequence[image]"`, `"link[video]"`.
    pub fn parse(s: &str) -> Result<Self, TensorError> {
        let s = s.trim();
        if let Some(inner) = s
            .strip_prefix("sequence[")
            .and_then(|r| r.strip_suffix(']'))
        {
            return Ok(Htype::Sequence(Box::new(Htype::parse(inner)?)));
        }
        if let Some(inner) = s.strip_prefix("link[").and_then(|r| r.strip_suffix(']')) {
            return Ok(Htype::Link(Box::new(Htype::parse(inner)?)));
        }
        Ok(match s {
            "generic" => Htype::Generic,
            "image" => Htype::Image,
            "video" => Htype::Video,
            "audio" => Htype::Audio,
            "bbox" => Htype::BBox,
            "class_label" => Htype::ClassLabel,
            "binary_mask" => Htype::BinaryMask,
            "text" => Htype::Text,
            "embedding" => Htype::Embedding,
            "dicom" => Htype::Dicom,
            other => return Err(TensorError::UnknownName(other.to_string())),
        })
    }

    /// Canonical textual form.
    pub fn name(&self) -> String {
        match self {
            Htype::Generic => "generic".into(),
            Htype::Image => "image".into(),
            Htype::Video => "video".into(),
            Htype::Audio => "audio".into(),
            Htype::BBox => "bbox".into(),
            Htype::ClassLabel => "class_label".into(),
            Htype::BinaryMask => "binary_mask".into(),
            Htype::Text => "text".into(),
            Htype::Embedding => "embedding".into(),
            Htype::Dicom => "dicom".into(),
            Htype::Sequence(inner) => format!("sequence[{}]", inner.name()),
            Htype::Link(inner) => format!("link[{}]", inner.name()),
        }
    }

    /// The innermost non-meta htype (`sequence[link[image]]` → `image`).
    pub fn base(&self) -> &Htype {
        match self {
            Htype::Sequence(inner) | Htype::Link(inner) => inner.base(),
            other => other,
        }
    }

    /// Whether this htype (possibly through meta wrapping) is a link.
    pub fn is_link(&self) -> bool {
        match self {
            Htype::Link(_) => true,
            Htype::Sequence(inner) => inner.is_link(),
            _ => false,
        }
    }

    /// Whether this is a sequence meta type at the top level.
    pub fn is_sequence(&self) -> bool {
        matches!(self, Htype::Sequence(_))
    }

    /// Whether the base htype is a visual primary type for the visualizer
    /// (§4.3: image/video/audio are displayed first; the rest overlay).
    pub fn is_primary(&self) -> bool {
        matches!(self.base(), Htype::Image | Htype::Video | Htype::Audio)
    }

    /// Default dtype for tensors of this htype, if it has one.
    pub fn default_dtype(&self) -> Option<Dtype> {
        match self.base() {
            Htype::Image | Htype::Video | Htype::Text => Some(Dtype::U8),
            Htype::BBox | Htype::Embedding | Htype::Audio => Some(Dtype::F32),
            Htype::ClassLabel => Some(Dtype::I32),
            Htype::BinaryMask => Some(Dtype::Bool),
            _ => None,
        }
    }

    /// The spec (validation rules + defaults) for this htype.
    pub fn spec(&self) -> HtypeSpec {
        match self.base() {
            Htype::Generic => HtypeSpec {
                dtype: None,
                ranks: &[],
                bool_only: false,
            },
            Htype::Image => HtypeSpec {
                dtype: Some(Dtype::U8),
                ranks: &[3],
                bool_only: false,
            },
            Htype::Video => HtypeSpec {
                dtype: Some(Dtype::U8),
                ranks: &[4],
                bool_only: false,
            },
            Htype::Audio => HtypeSpec {
                dtype: None,
                ranks: &[1, 2],
                bool_only: false,
            },
            Htype::BBox => HtypeSpec {
                dtype: Some(Dtype::F32),
                ranks: &[2],
                bool_only: false,
            },
            Htype::ClassLabel => HtypeSpec {
                dtype: None,
                ranks: &[0, 1],
                bool_only: false,
            },
            Htype::BinaryMask => HtypeSpec {
                dtype: Some(Dtype::Bool),
                ranks: &[2, 3],
                bool_only: true,
            },
            Htype::Text => HtypeSpec {
                dtype: Some(Dtype::U8),
                ranks: &[1],
                bool_only: false,
            },
            Htype::Embedding => HtypeSpec {
                dtype: Some(Dtype::F32),
                ranks: &[1],
                bool_only: false,
            },
            Htype::Dicom => HtypeSpec {
                dtype: None,
                ranks: &[3],
                bool_only: false,
            },
            Htype::Sequence(_) | Htype::Link(_) => unreachable!("base() strips meta types"),
        }
    }

    /// Validate a sample against this htype's expectations.
    ///
    /// Link htypes skip payload validation (the payload is a pointer, not
    /// the data itself); sequence htypes validate each *element* of the
    /// sequence, which at this layer means the leading axis is the sequence
    /// axis and the remaining axes must validate against the inner htype.
    pub fn validate(&self, sample: &Sample) -> Result<(), TensorError> {
        self.validate_shape(sample.dtype(), sample.shape())
    }

    /// [`validate`](Self::validate) by dtype and shape alone — what a
    /// pre-encoded blob declares — with the same verdict, and without a
    /// sample of the decoded size to hold them.
    pub fn validate_shape(&self, dtype: Dtype, shape: &Shape) -> Result<(), TensorError> {
        self.validate_dims(dtype, shape.dims())
    }

    fn validate_dims(&self, dtype: Dtype, dims: &[u64]) -> Result<(), TensorError> {
        match self {
            Htype::Link(_) => Ok(()),
            Htype::Sequence(inner) => match dims.split_first() {
                // an element has the axes after the sequence axis
                Some((_, element)) => inner.validate_dims(dtype, element),
                None => Err(TensorError::HtypeViolation {
                    reason: "sequence samples need a leading sequence axis".into(),
                }),
            },
            _ => {
                let spec = self.spec();
                if let Some(d) = spec.dtype {
                    if spec.bool_only {
                        if dtype != Dtype::Bool {
                            return Err(TensorError::HtypeViolation {
                                reason: format!(
                                    "{} expects dtype bool, got {}",
                                    self.name(),
                                    dtype
                                ),
                            });
                        }
                    } else if dtype != d {
                        return Err(TensorError::HtypeViolation {
                            reason: format!("{} expects dtype {}, got {}", self.name(), d, dtype),
                        });
                    }
                }
                if !spec.ranks.is_empty() && !spec.ranks.contains(&dims.len()) {
                    return Err(TensorError::HtypeViolation {
                        reason: format!(
                            "{} expects rank in {:?}, got {} (shape {:?})",
                            self.name(),
                            spec.ranks,
                            dims.len(),
                            dims
                        ),
                    });
                }
                if *self.base() == Htype::BBox && dims[1] != 4 {
                    return Err(TensorError::HtypeViolation {
                        reason: format!("bbox expects shape [n, 4], got {dims:?}"),
                    });
                }
                Ok(())
            }
        }
    }
}

impl std::fmt::Display for Htype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Validation rules derived from an htype.
#[derive(Debug, Clone, Copy)]
pub struct HtypeSpec {
    /// Required dtype, if any.
    pub dtype: Option<Dtype>,
    /// Allowed ranks; empty means any rank.
    pub ranks: &'static [usize],
    /// Whether only `bool` is allowed (binary masks).
    pub bool_only: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_simple() {
        for name in [
            "generic",
            "image",
            "video",
            "audio",
            "bbox",
            "class_label",
            "binary_mask",
            "text",
            "embedding",
            "dicom",
        ] {
            let h = Htype::parse(name).unwrap();
            assert_eq!(h.name(), name);
        }
    }

    #[test]
    fn parse_meta_types() {
        let h = Htype::parse("sequence[image]").unwrap();
        assert_eq!(h, Htype::Sequence(Box::new(Htype::Image)));
        assert_eq!(h.name(), "sequence[image]");
        let h = Htype::parse("link[video]").unwrap();
        assert!(h.is_link());
        let h = Htype::parse("sequence[link[image]]").unwrap();
        assert_eq!(h.base(), &Htype::Image);
        assert!(h.is_link());
        assert!(h.is_sequence());
        assert!(Htype::parse("sequence[wat]").is_err());
    }

    #[test]
    fn image_validation() {
        let h = Htype::Image;
        let ok = Sample::zeros(Dtype::U8, [32, 32, 3]);
        assert!(h.validate(&ok).is_ok());
        let wrong_dtype = Sample::zeros(Dtype::F32, [32, 32, 3]);
        assert!(h.validate(&wrong_dtype).is_err());
        let wrong_rank = Sample::zeros(Dtype::U8, [32, 32]);
        assert!(h.validate(&wrong_rank).is_err());
    }

    #[test]
    fn bbox_requires_n_by_4() {
        let h = Htype::BBox;
        assert!(h.validate(&Sample::zeros(Dtype::F32, [7, 4])).is_ok());
        assert!(h.validate(&Sample::zeros(Dtype::F32, [7, 5])).is_err());
        assert!(h.validate(&Sample::zeros(Dtype::U8, [7, 4])).is_err());
    }

    #[test]
    fn class_label_scalar_or_vector() {
        let h = Htype::ClassLabel;
        assert!(h.validate(&Sample::scalar(3i32)).is_ok());
        assert!(h
            .validate(&Sample::from_slice([2], &[1i32, 2]).unwrap())
            .is_ok());
        assert!(h.validate(&Sample::zeros(Dtype::I32, [2, 2])).is_err());
    }

    #[test]
    fn binary_mask_bool_only() {
        let h = Htype::BinaryMask;
        assert!(h.validate(&Sample::zeros(Dtype::Bool, [8, 8])).is_ok());
        assert!(h.validate(&Sample::zeros(Dtype::U8, [8, 8])).is_err());
    }

    #[test]
    fn sequence_validates_elements() {
        let h = Htype::parse("sequence[image]").unwrap();
        // 5 frames of 16x16x3
        let ok = Sample::zeros(Dtype::U8, [5, 16, 16, 3]);
        assert!(h.validate(&ok).is_ok());
        // elements would be rank-2: invalid images
        let bad = Sample::zeros(Dtype::U8, [5, 16, 16]);
        assert!(h.validate(&bad).is_err());
        // scalar cannot be a sequence
        let scalar = Sample::scalar(1u8);
        assert!(h.validate(&scalar).is_err());
    }

    #[test]
    fn link_skips_payload_validation() {
        let h = Htype::parse("link[image]").unwrap();
        // a link payload is a pointer blob, not an image
        let pointer = Sample::from_text("sim-s3://bucket/key.jpg");
        assert!(h.validate(&pointer).is_ok());
    }

    #[test]
    fn primary_classification() {
        assert!(Htype::Image.is_primary());
        assert!(Htype::parse("sequence[image]").unwrap().is_primary());
        assert!(!Htype::BBox.is_primary());
        assert!(!Htype::ClassLabel.is_primary());
    }

    #[test]
    fn default_dtypes() {
        assert_eq!(Htype::Image.default_dtype(), Some(Dtype::U8));
        assert_eq!(Htype::BBox.default_dtype(), Some(Dtype::F32));
        assert_eq!(Htype::ClassLabel.default_dtype(), Some(Dtype::I32));
        assert_eq!(Htype::Generic.default_dtype(), None);
    }

    #[test]
    fn generic_accepts_anything() {
        let h = Htype::Generic;
        assert!(h.validate(&Sample::scalar(1.5f64)).is_ok());
        assert!(h
            .validate(&Sample::zeros(Dtype::U16, [1, 2, 3, 4, 5]))
            .is_ok());
    }

    #[test]
    fn shape_zero_dim_access() {
        // regression: bbox validation must not panic on rank-2 empty boxes
        let h = Htype::BBox;
        let empty = Sample::zeros(Dtype::F32, [0, 4]);
        assert!(h.validate(&empty).is_ok());
        let _ = Shape::from([0, 4]);
    }

    /// The sample form as it was before the shape form existed: a
    /// sequence builds a zero-filled element sample and validates that.
    fn reference_validate(htype: &Htype, sample: &Sample) -> Result<(), TensorError> {
        match htype {
            Htype::Link(_) => Ok(()),
            Htype::Sequence(inner) => {
                if sample.shape().rank() == 0 {
                    return Err(TensorError::HtypeViolation {
                        reason: "sequence samples need a leading sequence axis".into(),
                    });
                }
                let elem_shape: Vec<u64> = sample.shape().dims()[1..].to_vec();
                let elem = Sample::zeros(sample.dtype(), Shape::from(elem_shape));
                reference_validate(inner, &elem)
            }
            _ => {
                let spec = htype.spec();
                if let Some(d) = spec.dtype {
                    if spec.bool_only {
                        if sample.dtype() != Dtype::Bool {
                            return Err(TensorError::HtypeViolation {
                                reason: format!(
                                    "{} expects dtype bool, got {}",
                                    htype.name(),
                                    sample.dtype()
                                ),
                            });
                        }
                    } else if sample.dtype() != d {
                        return Err(TensorError::HtypeViolation {
                            reason: format!(
                                "{} expects dtype {}, got {}",
                                htype.name(),
                                d,
                                sample.dtype()
                            ),
                        });
                    }
                }
                if !spec.ranks.is_empty() && !spec.ranks.contains(&sample.shape().rank()) {
                    return Err(TensorError::HtypeViolation {
                        reason: format!(
                            "{} expects rank in {:?}, got {} (shape {})",
                            htype.name(),
                            spec.ranks,
                            sample.shape().rank(),
                            sample.shape()
                        ),
                    });
                }
                if *htype.base() == Htype::BBox && sample.shape().dim(1) != 4 {
                    return Err(TensorError::HtypeViolation {
                        reason: format!("bbox expects shape [n, 4], got {}", sample.shape()),
                    });
                }
                Ok(())
            }
        }
    }

    /// Every verdict, error text included, is the same through the sample
    /// form, the shape form and the reference.
    #[test]
    fn validating_by_shape_gives_the_sample_verdict() {
        let htypes = [
            "generic",
            "image",
            "video",
            "audio",
            "bbox",
            "class_label",
            "binary_mask",
            "text",
            "embedding",
            "dicom",
            "sequence[image]",
            "sequence[bbox]",
            "sequence[class_label]",
            "link[image]",
            "sequence[link[video]]",
        ];
        let shapes: [&[u64]; 10] = [
            &[],
            &[0],
            &[3],
            &[2, 4],
            &[2, 5],
            &[0, 4],
            &[4, 4, 3],
            &[2, 4, 4, 3],
            &[2, 3, 4],
            &[1, 2, 1, 2, 1],
        ];
        let mut errors = 0;
        for name in htypes {
            let htype = Htype::parse(name).unwrap();
            for dtype in Dtype::ALL {
                for dims in shapes {
                    let shape = Shape::from(dims);
                    let sample = Sample::zeros(dtype, shape.clone());
                    let by_shape = htype.validate_shape(dtype, &shape);
                    assert_eq!(htype.validate(&sample), by_shape, "{name} {dtype} {shape}");
                    assert_eq!(
                        reference_validate(&htype, &sample),
                        by_shape,
                        "{name} {dtype} {shape}"
                    );
                    errors += usize::from(by_shape.is_err());
                }
            }
        }
        // both verdicts occur
        assert!(errors > 0 && errors < htypes.len() * Dtype::ALL.len() * shapes.len());
    }
}
