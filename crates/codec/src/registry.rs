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
        let mut out = Vec::new();
        self.compress_into(data, &mut out);
        out
    }

    /// [`Compression::compress`], appending the blob to `out`: frame
    /// header and body are written once, into the caller's buffer.
    pub fn compress_into(&self, data: &[u8], out: &mut Vec<u8>) {
        match self {
            Compression::None => {
                out.reserve(data.len() + 1);
                out.push(MAGIC_NONE);
                out.extend_from_slice(data);
            }
            Compression::Lz4 | Compression::SynthImg { .. } => {
                out.reserve(compressed_size_hint(data.len()));
                write_frame_header(out, MAGIC_LZ4, data.len());
                lz4::compress_into(data, out);
            }
            Compression::Rle => {
                out.reserve(compressed_size_hint(data.len()));
                write_frame_header(out, MAGIC_RLE, data.len());
                rle::compress_into(data, out);
            }
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
        let mut out = Vec::new();
        self.compress_image_into(pixels, h, w, c, &mut out)?;
        Ok(out)
    }

    /// [`Compression::compress_image`], appending the blob to `out`.
    /// Nothing is appended on error.
    pub fn compress_image_into(
        &self,
        pixels: &[u8],
        h: u32,
        w: u32,
        c: u32,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        match self {
            Compression::SynthImg { bits } => {
                let start = out.len();
                out.reserve(compressed_size_hint(pixels.len()));
                write_frame_header(out, MAGIC_SYNTHIMG, pixels.len());
                synthimg::compress_into(pixels, h, w, c, Quality { bits: *bits }, out)
                    .inspect_err(|_| out.truncate(start))
            }
            other => {
                other.compress_into(pixels, out);
                Ok(())
            }
        }
    }

    /// Decompress a framed blob produced by any [`Compression`].
    ///
    /// The frame is self-describing, so this works regardless of which
    /// codec wrote it.
    pub fn decompress(blob: &[u8]) -> Result<Vec<u8>, CodecError> {
        Self::decompress_image(blob).map(|(bytes, _)| bytes)
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
        let frame = Frame::parse(blob)?;
        let mut out = vec![0u8; frame.decoded_len()];
        frame.decode_into(&mut out)?;
        Ok((out, frame.geometry()))
    }
}

/// Decompressed pixels plus `(h, w, c)` geometry when the blob carries it.
pub type DecodedImage = (Vec<u8>, Option<(u32, u32, u32)>);

/// A framed blob whose header has been read and checked, not yet decoded.
///
/// Blobs come from storage, so the lengths in them are untrusted.
/// [`Frame::parse`] admits only a length the body could really expand to —
/// at most 255× an LZ4 block, exactly the run total of an RLE stream,
/// exactly `h·w·c` of an image — so [`Frame::decoded_len`] is safe to
/// allocate, and a decoder owns the one buffer it decodes into:
///
/// ```
/// # use deeplake_codec::{Compression, Frame};
/// let blob = Compression::Lz4.compress(&[7u8; 100]);
/// let frame = Frame::parse(&blob).unwrap();
/// let mut out = vec![0u8; frame.decoded_len()];
/// frame.decode_into(&mut out).unwrap();
/// assert_eq!(out, [7u8; 100]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    decoded_len: usize,
    body: Body<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Body<'a> {
    Raw(&'a [u8]),
    Lz4(&'a [u8]),
    Rle(&'a [u8]),
    /// A whole `synthimg` blob (header + LZ4 block) and its parsed header.
    Image(&'a [u8], synthimg::Header),
}

impl<'a> Frame<'a> {
    /// Read and check the frame header of `blob`.
    pub fn parse(blob: &'a [u8]) -> Result<Frame<'a>, CodecError> {
        let (&magic, rest) = blob
            .split_first()
            .ok_or(CodecError::Corrupt("empty blob"))?;
        if magic == MAGIC_NONE {
            return Ok(Frame {
                decoded_len: rest.len(),
                body: Body::Raw(rest),
            });
        }
        if !matches!(magic, MAGIC_LZ4 | MAGIC_RLE | MAGIC_SYNTHIMG) {
            return Err(CodecError::UnknownCodec(magic));
        }
        let (len, used) = read_varint(rest).ok_or(CodecError::Corrupt("frame len"))?;
        let decoded_len =
            usize::try_from(len).map_err(|_| CodecError::Corrupt("frame len overflows"))?;
        let rest = &rest[used..];
        let (body, admissible) = match magic {
            MAGIC_LZ4 => (
                Body::Lz4(rest),
                decoded_len <= lz4::max_decompressed_len(rest.len()),
            ),
            MAGIC_RLE => (Body::Rle(rest), decoded_len == rle::decoded_len(rest)?),
            _ => {
                let header = synthimg::Header::parse(rest)?;
                (Body::Image(rest, header), decoded_len == header.pixel_len())
            }
        };
        if !admissible {
            return Err(CodecError::Corrupt("frame len does not match body"));
        }
        Ok(Frame { decoded_len, body })
    }

    /// Size of the decoded bytes.
    pub fn decoded_len(&self) -> usize {
        self.decoded_len
    }

    /// Image geometry `(h, w, c)`, when the frame carries it.
    pub fn geometry(&self) -> Option<(u32, u32, u32)> {
        match self.body {
            Body::Image(_, header) => Some(header.dims()),
            _ => None,
        }
    }

    /// Decode into `out`, which must be exactly [`Frame::decoded_len`]
    /// bytes. On `Err` the contents of `out` are unspecified.
    pub fn decode_into(&self, out: &mut [u8]) -> Result<(), CodecError> {
        if out.len() != self.decoded_len {
            return Err(CodecError::LengthMismatch {
                expected: self.decoded_len,
                actual: out.len(),
            });
        }
        match self.body {
            Body::Raw(body) => {
                out.copy_from_slice(body);
                Ok(())
            }
            Body::Lz4(block) => lz4::decompress_into(block, out),
            Body::Rle(stream) => rle::decompress_into(stream, out),
            Body::Image(blob, _) => synthimg::decompress_into(blob, out).map(|_| ()),
        }
    }
}

/// Room that holds the compressed blob of `len` bytes without regrowth in
/// the common case.
fn compressed_size_hint(len: usize) -> usize {
    len / 2 + 32
}

fn write_frame_header(out: &mut Vec<u8>, magic: u8, decoded_len: usize) {
    out.push(magic);
    write_varint(out, decoded_len as u64);
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

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// On-disk compatibility pin: a 7×9×3 image frame written by the
    /// encoder as it stood before the row kernels and the input-sized
    /// match table, and the pixels that encoder's decoder read back.
    #[test]
    fn golden_blob_from_the_previous_encoder_still_decodes() {
        let blob = unhex(concat!(
            "03bd01040700000009000000030000004f000205010100052f04061a00053f03",
            "05081b00044ff10407091b00017af101010106080b1b0000150000020050f101",
            "070a0c090003020001180001050061010101090b0e0800041000b0f101010101",
            "f10101010101",
        ));
        let pixels = unhex(concat!(
            "0828581838682848783858884868985878a86888b87898c888a8d81848682858",
            "783868884878985888a86898b878a8c888b8d898c8e83858884868985878a868",
            "88b87898c888a8d898b8e8a8c8f8b8d8084878985888a86898b878a8c888b8d8",
            "98c8e8a8d8f8b8e808c8f8186888b87898c888a8d898b8e8a8c8f8b8d808c8e8",
            "18d8f828e8083878a8c888b8d898c8e8a8d8f8b8e808c8f818d80828e81838f8",
            "284898b8e8a8c8f8b8d808c8e818d8f828e80838f81848082858183868",
        ));
        let (out, geom) = Compression::decompress_image(&blob).unwrap();
        assert_eq!(geom, Some((7, 9, 3)));
        assert_eq!(out, pixels);
        assert_eq!(Compression::decompress(&blob).unwrap(), pixels);
    }

    #[test]
    fn hostile_lengths_return_corrupt_not_abort() {
        let image_frame = |h: u32, w: u32, c: u32| {
            let mut blob = vec![MAGIC_SYNTHIMG];
            write_varint(
                &mut blob,
                (h as u64).wrapping_mul(w as u64).wrapping_mul(c as u64),
            );
            blob.push(4);
            for d in [h, w, c] {
                blob.extend_from_slice(&d.to_le_bytes());
            }
            blob.push(0x00);
            blob
        };
        let hostile = [
            // an LZ4 frame of one empty block claiming 2^45 bytes
            vec![0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00],
            // an image of 2^45 pixels
            image_frame(0x10000, 0x10000, 0x2000),
            // an image whose h·w·c overflows
            image_frame(u32::MAX, u32::MAX, u32::MAX),
        ];
        for blob in &hostile {
            assert!(matches!(
                Compression::decompress(blob),
                Err(CodecError::Corrupt(_))
            ));
            assert!(matches!(
                Compression::decompress_image(blob),
                Err(CodecError::Corrupt(_))
            ));
        }
        // an RLE frame is held to the total of its runs
        let mut rle_frame = vec![MAGIC_RLE];
        write_varint(&mut rle_frame, 1 << 45);
        rle_frame.extend_from_slice(&[5, 0xAB]);
        assert!(Compression::decompress(&rle_frame).is_err());
    }

    #[test]
    fn image_frame_length_must_equal_its_geometry() {
        let px = vec![128u8; 4 * 4 * 3];
        let blob = Compression::JPEG_LIKE.compress_image(&px, 4, 4, 3).unwrap();
        assert_eq!(blob[1], 48, "one-byte varint frame length");
        let mut bad = blob.clone();
        bad[1] = 47;
        assert!(matches!(
            Compression::decompress(&bad),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn frame_reports_length_and_wants_it_exactly() {
        let data = vec![5u8; 300];
        for codec in [Compression::None, Compression::Lz4, Compression::Rle] {
            let blob = codec.compress(&data);
            let frame = Frame::parse(&blob).unwrap();
            assert_eq!(frame.decoded_len(), 300);
            assert_eq!(frame.geometry(), None);
            assert!(frame.decode_into(&mut [0u8; 299]).is_err());
            let mut out = vec![0u8; 300];
            frame.decode_into(&mut out).unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn into_forms_append_after_what_is_there() {
        let data = vec![1u8; 64];
        for codec in [
            Compression::None,
            Compression::Lz4,
            Compression::Rle,
            Compression::JPEG_LIKE,
        ] {
            let mut out = vec![0xEE; 3];
            codec.compress_into(&data, &mut out);
            assert_eq!(out[..3], [0xEE; 3]);
            assert_eq!(out[3..], codec.compress(&data));
            let len = out.len();
            codec.compress_image_into(&data, 4, 4, 4, &mut out).unwrap();
            assert_eq!(out[len..], codec.compress_image(&data, 4, 4, 4).unwrap());
        }
        // a refused image leaves the buffer as it was
        let mut out = vec![0xEE; 3];
        assert!(Compression::JPEG_LIKE
            .compress_image_into(&data, 4, 4, 5, &mut out)
            .is_err());
        assert_eq!(out, [0xEE; 3]);
    }
}
