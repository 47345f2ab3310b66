//! Codec registry: self-describing compressed blobs.
//!
//! Tensor metadata stores a [`Compression`] per tensor (sample level and
//! chunk level). Blobs are framed as `[magic u8][expected_len varint][body]`
//! so any blob can be decoded without external context — this is what lets
//! raw pre-compressed samples be copied into chunks verbatim (§5: "If a raw
//! image compression matches the tensor sample compression, the binary is
//! directly copied into a chunk without additional decoding").

use serde::{Deserialize, Serialize};

use crate::error::CodecError;
use crate::rle::{read_varint, write_varint};
use crate::synthimg::Quality;
use crate::{lz4, rle, synthimg};

const MAGIC_NONE: u8 = 0x00;
const MAGIC_LZ4: u8 = 0x01;
const MAGIC_RLE: u8 = 0x02;
const MAGIC_SYNTHIMG: u8 = 0x03;

/// Compression scheme recorded in tensor metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "lowercase")]
pub enum Compression {
    /// No compression; bytes stored verbatim.
    #[default]
    None,
    /// LZ4 block compression ([`crate::lz4`]). Paper default for label
    /// chunks.
    Lz4,
    /// Run-length encoding ([`crate::rle`]). Good for masks.
    Rle,
    /// Synthetic lossy image codec ([`crate::synthimg`]), the JPEG
    /// stand-in, with bits-per-channel quality.
    SynthImg {
        /// Bits kept per channel (1..=8).
        bits: u8,
    },
}

impl Compression {
    /// JPEG-like default for image tensors.
    pub const JPEG_LIKE: Compression = Compression::SynthImg { bits: 4 };

    /// Parse the textual form used in schemas (`"lz4"`, `"jpeg"`, ...).
    pub fn parse(s: &str) -> Result<Self, CodecError> {
        Ok(match s {
            "none" | "" => Compression::None,
            "lz4" => Compression::Lz4,
            "rle" => Compression::Rle,
            // accept the paper's names for the image codec
            "jpeg" | "synthimg" => Compression::JPEG_LIKE,
            "png" => Compression::SynthImg { bits: 8 },
            other => {
                return Err(CodecError::InvalidParams(format!(
                    "unknown codec {other:?}"
                )))
            }
        })
    }

    /// Canonical name.
    pub fn name(&self) -> String {
        match self {
            Compression::None => "none".into(),
            Compression::Lz4 => "lz4".into(),
            Compression::Rle => "rle".into(),
            Compression::SynthImg { bits } => format!("synthimg{bits}"),
        }
    }

    /// Whether this codec loses information.
    pub fn is_lossy(&self) -> bool {
        matches!(self, Compression::SynthImg { bits } if *bits < 8)
    }

    /// Compress `data` into a framed, self-describing blob.
    ///
    /// For [`Compression::SynthImg`] the image geometry must be supplied via
    /// [`Compression::compress_image`]; calling this method with `SynthImg`
    /// falls back to LZ4 framing (used when non-image bytes land in an image
    /// tensor's chunk metadata).
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        match self {
            Compression::None => {
                let mut out = Vec::with_capacity(data.len() + 1);
                out.push(MAGIC_NONE);
                out.extend_from_slice(data);
                out
            }
            Compression::Lz4 | Compression::SynthImg { .. } => {
                frame(MAGIC_LZ4, data.len(), lz4::compress(data))
            }
            Compression::Rle => frame(MAGIC_RLE, data.len(), rle::compress(data)),
        }
    }

    /// Compress an `h×w×c` u8 image with the image codec; other codecs
    /// delegate to [`Compression::compress`].
    pub fn compress_image(
        &self,
        pixels: &[u8],
        h: u32,
        w: u32,
        c: u32,
    ) -> Result<Vec<u8>, CodecError> {
        match self {
            Compression::SynthImg { bits } => {
                let body = synthimg::compress(pixels, h, w, c, Quality { bits: *bits })?;
                Ok(frame(MAGIC_SYNTHIMG, pixels.len(), body))
            }
            other => Ok(other.compress(pixels)),
        }
    }

    /// Decompress a framed blob produced by any [`Compression`].
    ///
    /// The frame is self-describing, so this works regardless of which
    /// variant `self` is — `self` is only consulted for `None` passthrough.
    pub fn decompress(blob: &[u8]) -> Result<Vec<u8>, CodecError> {
        let (&magic, rest) = blob
            .split_first()
            .ok_or(CodecError::Corrupt("empty blob"))?;
        match magic {
            MAGIC_NONE => Ok(rest.to_vec()),
            MAGIC_LZ4 => {
                let (len, used) = read_varint(rest).ok_or(CodecError::Corrupt("frame len"))?;
                lz4::decompress(&rest[used..], len as usize)
            }
            MAGIC_RLE => {
                let (len, used) = read_varint(rest).ok_or(CodecError::Corrupt("frame len"))?;
                rle::decompress(&rest[used..], len as usize)
            }
            MAGIC_SYNTHIMG => {
                let (_, used) = read_varint(rest).ok_or(CodecError::Corrupt("frame len"))?;
                let (pixels, ..) = synthimg::decompress(&rest[used..])?;
                Ok(pixels)
            }
            other => Err(CodecError::UnknownCodec(other)),
        }
    }

    /// The body of a framed blob stored uncompressed (what
    /// [`Compression::None`] writes), borrowed; `None` for any other
    /// frame. Lets columnar readers use stored bytes in place where
    /// [`Compression::decompress`] would copy them out.
    pub fn raw_body(blob: &[u8]) -> Option<&[u8]> {
        match blob.split_first() {
            Some((&MAGIC_NONE, rest)) => Some(rest),
            _ => None,
        }
    }

    /// Decompress an image blob, returning geometry when the blob carries it.
    pub fn decompress_image(blob: &[u8]) -> Result<DecodedImage, CodecError> {
        let (&magic, rest) = blob
            .split_first()
            .ok_or(CodecError::Corrupt("empty blob"))?;
        if magic == MAGIC_SYNTHIMG {
            let (_, used) = read_varint(rest).ok_or(CodecError::Corrupt("frame len"))?;
            let (pixels, h, w, c) = synthimg::decompress(&rest[used..])?;
            return Ok((pixels, Some((h, w, c))));
        }
        Ok((Self::decompress(blob)?, None))
    }
}

/// Decompressed pixels plus `(h, w, c)` geometry when the blob carries it.
pub type DecodedImage = (Vec<u8>, Option<(u32, u32, u32)>);

fn frame(magic: u8, expected_len: usize, body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 10);
    out.push(magic);
    write_varint(&mut out, expected_len as u64);
    out.extend_from_slice(&body);
    out
}

impl std::fmt::Display for Compression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_passthrough() {
        let data = b"hello world".to_vec();
        let blob = Compression::None.compress(&data);
        assert_eq!(Compression::decompress(&blob).unwrap(), data);
        assert_eq!(blob.len(), data.len() + 1);
        // only uncompressed frames lend their body out in place
        assert_eq!(Compression::raw_body(&blob), Some(&data[..]));
        assert_eq!(
            Compression::raw_body(&Compression::Lz4.compress(&data)),
            None
        );
        assert_eq!(Compression::raw_body(&[]), None);
    }

    #[test]
    fn lz4_frame_roundtrip() {
        let data = vec![3u8; 10_000];
        let blob = Compression::Lz4.compress(&data);
        assert!(blob.len() < 100);
        assert_eq!(Compression::decompress(&blob).unwrap(), data);
    }

    #[test]
    fn rle_frame_roundtrip() {
        let data = vec![0u8; 4096];
        let blob = Compression::Rle.compress(&data);
        assert_eq!(Compression::decompress(&blob).unwrap(), data);
    }

    #[test]
    fn image_frame_roundtrip_carries_geometry() {
        let px = vec![128u8; 16 * 16 * 3];
        let blob = Compression::JPEG_LIKE
            .compress_image(&px, 16, 16, 3)
            .unwrap();
        let (out, geom) = Compression::decompress_image(&blob).unwrap();
        assert_eq!(geom, Some((16, 16, 3)));
        assert_eq!(out.len(), px.len());
        // plain decompress also works, dropping geometry
        let flat = Compression::decompress(&blob).unwrap();
        assert_eq!(flat.len(), px.len());
    }

    #[test]
    fn decode_needs_no_context() {
        // decoding dispatches on the magic byte, not on `self`
        let data = vec![9u8; 500];
        let blob = Compression::Lz4.compress(&data);
        assert_eq!(Compression::decompress(&blob).unwrap(), data);
    }

    #[test]
    fn unknown_magic_rejected() {
        assert!(matches!(
            Compression::decompress(&[0xEE, 1, 2]),
            Err(CodecError::UnknownCodec(0xEE))
        ));
        assert!(Compression::decompress(&[]).is_err());
    }

    #[test]
    fn parse_names() {
        assert_eq!(Compression::parse("lz4").unwrap(), Compression::Lz4);
        assert_eq!(Compression::parse("jpeg").unwrap(), Compression::JPEG_LIKE);
        assert_eq!(Compression::parse("none").unwrap(), Compression::None);
        assert_eq!(
            Compression::parse("png").unwrap(),
            Compression::SynthImg { bits: 8 }
        );
        assert!(Compression::parse("brotli").is_err());
    }

    #[test]
    fn lossy_flag() {
        assert!(Compression::JPEG_LIKE.is_lossy());
        assert!(!Compression::SynthImg { bits: 8 }.is_lossy());
        assert!(!Compression::Lz4.is_lossy());
    }

    #[test]
    fn synthimg_on_non_image_bytes_falls_back_to_lz4() {
        let data = vec![1u8; 100];
        let blob = Compression::JPEG_LIKE.compress(&data);
        assert_eq!(Compression::decompress(&blob).unwrap(), data);
    }
}
