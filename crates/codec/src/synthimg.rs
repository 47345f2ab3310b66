//! Synthetic lossy image codec — the repo's stand-in for JPEG/PNG.
//!
//! The Deep Lake evaluation depends on image codecs only through two
//! system-level properties:
//!
//! 1. compressed images are several times smaller than raw pixels, so
//!    streaming is bandwidth-bound on raw and codec-bound on compressed
//!    data. At the default quality (4 bits) a benchmark image (dlbench's
//!    32×32×3 gradients with texture) takes 1,006 B framed for its
//!    3,072 B, 3.05× smaller, and the pinned 32×32×3 gradient of the
//!    tests takes 720 B, 4.3× smaller;
//! 2. decoding costs CPU time proportional to the pixel count, which is why
//!    the dataloader parallelizes decompression across workers (§4.6).
//!
//! `synthimg` reproduces both without binding libjpeg: it quantizes pixels
//! to a configurable bit depth (the lossy step), applies left-neighbour
//! delta prediction per row (which turns smooth gradients into
//! near-constant streams), and LZ4-compresses the residual plane. Decoding
//! reverses the chain and touches every pixel.
//!
//! Layout: `[bits u8][h u32][w u32][c u32][lz4 block...]`, lengths LE.
//!
//! The kernels work on the one buffer that becomes the result, but they
//! do not run at memory speed: on 32×32×3 images, one pinned core of a
//! 2-CPU Xeon VM decodes 1,090–1,270 MB/s and encodes 670–780 MB/s in
//! traced `ingest` runs (dlbench's `codec.image_{de,en}code_mb_s`; the
//! host's speed drifts by up to 30 %, so compare the two within a run:
//! encode reads 0.57–0.63 of decode). Both are bound by the LZ4 stage's
//! sequences, ~313 per 3 KiB plane, not by the bytes they move.
//! Decode ([`decompress_into`]) LZ4-expands the residual plane
//! straight into the caller's buffer, undoes the prediction with an
//! in-place prefix sum per row (`row[i] += row[i - c]`: `c` independent
//! chains, their running sums in registers for up to four channels, no
//! second buffer) and re-expands with one flat pass. Encode
//! ([`compress_into`]) takes the quantized delta in one pass per row, into
//! a residual plane its thread keeps between images, and appends header
//! and LZ4 block to the caller's `Vec`. The header is
//! untrusted: `h·w·c` is computed with overflow checks and must not exceed
//! what the LZ4 block could expand to, before any buffer is sized from it.

use std::cell::RefCell;

use crate::error::CodecError;
use crate::lz4;

/// Quality preset: how many high bits of each channel survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// Bits kept per channel, 1..=8. 8 = lossless quantization step.
    pub bits: u8,
}

impl Quality {
    /// Roughly JPEG-90-like: keep 5 high bits.
    pub const HIGH: Quality = Quality { bits: 5 };
    /// Roughly JPEG-75-like: keep 4 high bits.
    pub const MEDIUM: Quality = Quality { bits: 4 };
    /// Aggressive: keep 3 high bits.
    pub const LOW: Quality = Quality { bits: 3 };
}

impl Default for Quality {
    fn default() -> Self {
        Quality::MEDIUM
    }
}

/// Byte length of the `[bits][h][w][c]` header.
const HEADER_LEN: usize = 13;

/// `h·w·c`, or `None` when it does not fit a `usize`.
fn pixel_count(h: u32, w: u32, c: u32) -> Option<usize> {
    (h as usize)
        .checked_mul(w as usize)?
        .checked_mul(c as usize)
}

/// A blob's header, read and checked: what a decoder needs to size its
/// output before it calls [`decompress_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    bits: u8,
    h: u32,
    w: u32,
    c: u32,
    pixel_len: usize,
}

impl Header {
    /// Parse the header of `blob`. Fails on bad `bits`, on `h·w·c`
    /// overflowing, and on a pixel count the LZ4 block behind the header
    /// could not expand to — so [`Header::pixel_len`] is safe to allocate.
    pub fn parse(blob: &[u8]) -> Result<Header, CodecError> {
        if blob.len() < HEADER_LEN {
            return Err(CodecError::Corrupt("synthimg header"));
        }
        let bits = blob[0];
        if bits == 0 || bits > 8 {
            return Err(CodecError::Corrupt("synthimg bits"));
        }
        let dim = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().expect("4 bytes"));
        let (h, w, c) = (dim(1), dim(5), dim(9));
        let pixel_len =
            pixel_count(h, w, c).ok_or(CodecError::Corrupt("synthimg dimensions overflow"))?;
        if pixel_len > lz4::max_decompressed_len(blob.len() - HEADER_LEN) {
            return Err(CodecError::Corrupt("synthimg dimensions exceed block"));
        }
        Ok(Header {
            bits,
            h,
            w,
            c,
            pixel_len,
        })
    }

    /// Image geometry `(h, w, c)`.
    pub fn dims(&self) -> (u32, u32, u32) {
        (self.h, self.w, self.c)
    }

    /// Decoded size in bytes, `h·w·c`.
    pub fn pixel_len(&self) -> usize {
        self.pixel_len
    }
}

/// Encode an `h×w×c` u8 image.
pub fn compress(
    pixels: &[u8],
    h: u32,
    w: u32,
    c: u32,
    quality: Quality,
) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(HEADER_LEN + pixels.len() / 2 + 16);
    compress_into(pixels, h, w, c, quality, &mut out)?;
    Ok(out)
}

/// Encode an `h×w×c` u8 image, appending the blob to `out`. Nothing is
/// appended on error.
pub fn compress_into(
    pixels: &[u8],
    h: u32,
    w: u32,
    c: u32,
    quality: Quality,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    if quality.bits == 0 || quality.bits > 8 {
        return Err(CodecError::InvalidParams(format!(
            "bits={} out of 1..=8",
            quality.bits
        )));
    }
    if pixel_count(h, w, c) != Some(pixels.len()) {
        return Err(CodecError::InvalidParams(format!(
            "pixel buffer {} != {}x{}x{}",
            pixels.len(),
            h,
            w,
            c
        )));
    }
    let shift = 8 - quality.bits;
    let mut large = Vec::new();
    RESIDUAL.with_borrow_mut(|kept| {
        let residual = if pixels.len() <= KEPT_RESIDUAL {
            kept
        } else {
            &mut large
        };
        // only the bytes the plane grows by are zeroed: every byte of it
        // is written below
        residual.resize(pixels.len(), 0);
        // Quantize + delta-predict along each row: the residual of a pixel
        // is its quantized value minus its left neighbour's, channels
        // interleaved. (An empty image has no rows to walk, and its `w·c`
        // may not fit.)
        if !pixels.is_empty() {
            let c = c as usize;
            let stride = w as usize * c;
            for (res, px) in residual
                .chunks_exact_mut(stride)
                .zip(pixels.chunks_exact(stride))
            {
                for (r, &p) in res[..c].iter_mut().zip(&px[..c]) {
                    *r = p >> shift;
                }
                for ((r, &p), &left) in res[c..].iter_mut().zip(&px[c..]).zip(px) {
                    *r = (p >> shift).wrapping_sub(left >> shift);
                }
            }
        }
        out.push(quality.bits);
        out.extend_from_slice(&h.to_le_bytes());
        out.extend_from_slice(&w.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
        lz4::compress_into(residual, out);
    });
    Ok(())
}

/// Largest residual plane a thread keeps between encodes (a 256×256×3
/// image's is 192 KiB): a larger one is allocated for its image alone, so
/// a thread that once encoded a huge image does not hold its plane.
const KEPT_RESIDUAL: usize = 256 << 10;

thread_local! {
    /// The residual plane [`compress_into`] quantizes into, kept by each
    /// thread across calls: an image costs no allocation for it, and no
    /// zero fill once the plane has reached the image's size.
    static RESIDUAL: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Decode a blob produced by [`compress`]. Returns `(pixels, h, w, c)`.
pub fn decompress(blob: &[u8]) -> Result<(Vec<u8>, u32, u32, u32), CodecError> {
    let header = Header::parse(blob)?;
    let mut pixels = vec![0u8; header.pixel_len()];
    decompress_into(blob, &mut pixels)?;
    let (h, w, c) = header.dims();
    Ok((pixels, h, w, c))
}

/// Decode a blob into `out`, which must be exactly [`Header::pixel_len`]
/// bytes. Returns the header. On `Err` the contents of `out` are
/// unspecified.
pub fn decompress_into(blob: &[u8], out: &mut [u8]) -> Result<Header, CodecError> {
    let header = Header::parse(blob)?;
    if out.len() != header.pixel_len {
        return Err(CodecError::LengthMismatch {
            expected: header.pixel_len,
            actual: out.len(),
        });
    }
    lz4::decompress_into(&blob[HEADER_LEN..], out)?;
    let shift = 8 - header.bits;
    // (an empty image has no rows to walk, and its `w·c` may not fit)
    if !out.is_empty() {
        let c = header.c as usize;
        let stride = header.w as usize * c;
        // undo the prediction: the quantized plane is the prefix sum of
        // the residuals along each row, one chain per channel
        match c {
            1 => prefix_sum_rows::<1>(out, stride),
            2 => prefix_sum_rows::<2>(out, stride),
            3 => prefix_sum_rows::<3>(out, stride),
            4 => prefix_sum_rows::<4>(out, stride),
            _ => {
                for row in out.chunks_exact_mut(stride) {
                    for i in c..stride {
                        row[i] = row[i].wrapping_add(row[i - c]);
                    }
                }
            }
        }
    }
    // re-expand quantized values to full range (midpoint fill)
    let fill = if shift > 0 { 1u8 << (shift - 1) } else { 0 };
    for q in out.iter_mut() {
        *q = (*q << shift) | fill;
    }
    Ok(header)
}

/// In-place prefix sum along each `stride`-byte row of `C` interleaved
/// channels. With `C` known the running sums stay in registers, so each
/// chain costs an add per pixel instead of a store-to-load round trip.
fn prefix_sum_rows<const C: usize>(plane: &mut [u8], stride: usize) {
    for row in plane.chunks_exact_mut(stride) {
        let mut sums = [0u8; C];
        for px in row.chunks_exact_mut(C) {
            for (p, sum) in px.iter_mut().zip(&mut sums) {
                *sum = sum.wrapping_add(*p);
                *p = *sum;
            }
        }
    }
}

/// Maximum absolute per-pixel error introduced by a quality level.
pub fn max_error(quality: Quality) -> u8 {
    if quality.bits >= 8 {
        0
    } else {
        (1u8 << (8 - quality.bits)) - 1
    }
}

/// The per-pixel codec as it stood before the row kernels, kept as the
/// oracle they are compared against (over the reference LZ4 decoder).
#[cfg(test)]
mod reference {
    use super::*;

    pub fn compress(pixels: &[u8], h: u32, w: u32, c: u32, quality: Quality) -> Vec<u8> {
        let shift = 8 - quality.bits;
        let mut residual = vec![0u8; pixels.len()];
        let row_stride = w as usize * c as usize;
        for row in 0..h as usize {
            let base = row * row_stride;
            for col in 0..w as usize {
                for ch in 0..c as usize {
                    let i = base + col * c as usize + ch;
                    let q = pixels[i] >> shift;
                    let left = if col == 0 {
                        0
                    } else {
                        pixels[i - c as usize] >> shift
                    };
                    residual[i] = q.wrapping_sub(left);
                }
            }
        }
        let mut out = vec![quality.bits];
        out.extend_from_slice(&h.to_le_bytes());
        out.extend_from_slice(&w.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
        out.extend_from_slice(&lz4::compress(&residual));
        out
    }

    pub fn decompress(blob: &[u8]) -> Result<Vec<u8>, CodecError> {
        let bits = blob[0];
        let h = u32::from_le_bytes(blob[1..5].try_into().unwrap());
        let w = u32::from_le_bytes(blob[5..9].try_into().unwrap());
        let c = u32::from_le_bytes(blob[9..13].try_into().unwrap());
        let n = h as usize * w as usize * c as usize;
        let residual = lz4::reference_decompress(&blob[13..], n)?;
        let shift = 8 - bits;
        let mut pixels = vec![0u8; n];
        let row_stride = w as usize * c as usize;
        for row in 0..h as usize {
            let base = row * row_stride;
            for col in 0..w as usize {
                for ch in 0..c as usize {
                    let i = base + col * c as usize + ch;
                    let left = if col == 0 {
                        0
                    } else {
                        pixels[i - c as usize] >> shift
                    };
                    let q = residual[i].wrapping_add(left);
                    pixels[i] = q << shift | (if shift > 0 { 1u8 << (shift - 1) } else { 0 });
                }
            }
        }
        Ok(pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Natural-ish image: smooth gradients plus mild texture.
    fn gradient_image(h: u32, w: u32, c: u32) -> Vec<u8> {
        let mut px = Vec::with_capacity((h * w * c) as usize);
        for y in 0..h {
            for x in 0..w {
                for ch in 0..c {
                    let v = (x / 2 + y / 3 + ch * 40 + ((x * y) % 5)) % 256;
                    px.push(v as u8);
                }
            }
        }
        px
    }

    #[test]
    fn roundtrip_shape_preserved() {
        let px = gradient_image(32, 48, 3);
        let blob = compress(&px, 32, 48, 3, Quality::MEDIUM).unwrap();
        let (out, h, w, c) = decompress(&blob).unwrap();
        assert_eq!((h, w, c), (32, 48, 3));
        assert_eq!(out.len(), px.len());
    }

    #[test]
    fn error_bounded_by_quality() {
        let px = gradient_image(64, 64, 3);
        for q in [Quality::HIGH, Quality::MEDIUM, Quality::LOW] {
            let blob = compress(&px, 64, 64, 3, q).unwrap();
            let (out, ..) = decompress(&blob).unwrap();
            let bound = max_error(q);
            for (a, b) in px.iter().zip(out.iter()) {
                assert!(
                    a.abs_diff(*b) <= bound,
                    "error {} exceeds bound {bound} at quality bits={}",
                    a.abs_diff(*b),
                    q.bits
                );
            }
        }
    }

    #[test]
    fn natural_images_compress_well() {
        let px = gradient_image(256, 256, 3);
        let blob = compress(&px, 256, 256, 3, Quality::MEDIUM).unwrap();
        let ratio = px.len() as f64 / blob.len() as f64;
        assert!(ratio > 4.0, "compression ratio only {ratio:.2}");
    }

    #[test]
    fn higher_quality_bigger_blob() {
        let px = gradient_image(128, 128, 3);
        let hi = compress(&px, 128, 128, 3, Quality::HIGH).unwrap();
        let lo = compress(&px, 128, 128, 3, Quality::LOW).unwrap();
        assert!(hi.len() >= lo.len());
    }

    #[test]
    fn rejects_bad_params() {
        let px = vec![0u8; 12];
        assert!(compress(&px, 2, 2, 3, Quality { bits: 0 }).is_err());
        assert!(compress(&px, 2, 2, 3, Quality { bits: 9 }).is_err());
        assert!(compress(&px, 3, 2, 3, Quality::MEDIUM).is_err());
    }

    #[test]
    fn rejects_corrupt_blob() {
        assert!(decompress(&[1, 2, 3]).is_err());
        let px = gradient_image(8, 8, 1);
        let mut blob = compress(&px, 8, 8, 1, Quality::MEDIUM).unwrap();
        blob.truncate(blob.len() - 3);
        assert!(decompress(&blob).is_err());
    }

    #[test]
    fn lossless_at_8_bits() {
        let px = gradient_image(16, 16, 3);
        let blob = compress(&px, 16, 16, 3, Quality { bits: 8 }).unwrap();
        let (out, ..) = decompress(&blob).unwrap();
        assert_eq!(out, px);
    }

    #[test]
    fn single_channel_image() {
        let px = gradient_image(20, 30, 1);
        let blob = compress(&px, 20, 30, 1, Quality::HIGH).unwrap();
        let (out, h, w, c) = decompress(&blob).unwrap();
        assert_eq!((h, w, c), (20, 30, 1));
        assert_eq!(out.len(), px.len());
    }

    #[test]
    fn zero_sized_image() {
        let blob = compress(&[], 0, 10, 3, Quality::MEDIUM).unwrap();
        let (out, h, _, _) = decompress(&blob).unwrap();
        assert_eq!(h, 0);
        assert!(out.is_empty());
    }

    fn header(bits: u8, h: u32, w: u32, c: u32) -> Vec<u8> {
        let mut blob = vec![bits];
        for d in [h, w, c] {
            blob.extend_from_slice(&d.to_le_bytes());
        }
        blob
    }

    #[test]
    fn hostile_dimensions_are_refused_before_allocating() {
        // 2^45 pixels behind an empty block; h·w·c overflowing usize
        for (h, w, c) in [
            (0x10000, 0x10000, 0x2000),
            (u32::MAX, u32::MAX, u32::MAX),
            (u32::MAX, u32::MAX, 1),
            (1, 1, 1),
        ] {
            let mut blob = header(4, h, w, c);
            assert!(matches!(Header::parse(&blob), Err(CodecError::Corrupt(_))));
            blob.push(0x00);
            assert!(decompress(&blob).is_err());
            assert!(decompress_into(&blob, &mut [0u8; 16]).is_err());
        }
        // the encoder refuses geometry that overflows, too
        assert!(compress(&[], u32::MAX, u32::MAX, u32::MAX, Quality::MEDIUM).is_err());
    }

    #[test]
    fn decompress_into_wants_the_exact_length() {
        let px = gradient_image(5, 7, 3);
        let blob = compress(&px, 5, 7, 3, Quality::HIGH).unwrap();
        let header = Header::parse(&blob).unwrap();
        assert_eq!(header.dims(), (5, 7, 3));
        assert_eq!(header.pixel_len(), px.len());
        assert!(decompress_into(&blob, &mut vec![0u8; px.len() - 1]).is_err());
        assert!(decompress_into(&blob, &mut vec![0u8; px.len() + 1]).is_err());
        let mut out = vec![0u8; px.len()];
        assert_eq!(decompress_into(&blob, &mut out).unwrap(), header);
        assert_eq!(out, reference::decompress(&blob).unwrap());
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Encoder pin at the benchmark's image size: a 32×32×3 plane is long
    /// enough for the LZ4 decoder's fast path, which a 7×9×3 golden never
    /// reaches. The blob and the pixels every decoder reads from it.
    #[test]
    fn a_benchmark_sized_image_encodes_and_decodes_as_pinned() {
        let px = gradient_image(32, 32, 3);
        let blob = compress(&px, 32, 32, 3, Quality::MEDIUM).unwrap();
        assert_eq!((blob.len(), fnv1a(&blob)), (720, 0x9427_799f_7eb8_3204));
        let (out, ..) = decompress(&blob).unwrap();
        assert_eq!(fnv1a(&out), 0x77d8_8868_63be_c5f5);
        assert_eq!(reference::decompress(&blob).unwrap(), out);
        let codec = crate::Compression::SynthImg {
            bits: Quality::MEDIUM.bits,
        };
        let framed = codec.compress_image(&px, 32, 32, 3).unwrap();
        let (framed_out, geom) = crate::Compression::decompress_image(&framed).unwrap();
        assert_eq!(geom, Some((32, 32, 3)));
        assert_eq!(framed_out, out);
    }

    #[test]
    fn compress_into_appends_and_leaves_errors_clean() {
        let px = gradient_image(4, 4, 3);
        let mut out = b"prefix".to_vec();
        compress_into(&px, 4, 4, 3, Quality::MEDIUM, &mut out).unwrap();
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], compress(&px, 4, 4, 3, Quality::MEDIUM).unwrap());
        let before = out.clone();
        assert!(compress_into(&px, 4, 5, 3, Quality::MEDIUM, &mut out).is_err());
        assert_eq!(out, before);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Channel counts 5 and 6 take the prefix-sum loop that does not
        /// know `c` at compile time.
        #[test]
        fn kernels_match_the_per_pixel_reference(
            h in 0u32..40, w in 0u32..40, c in 1u32..=6,
            bits in 1u8..=8,
            gradient in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let n = (h * w * c) as usize;
            let mut state = seed | 1;
            let pixels: Vec<u8> = if gradient {
                gradient_image(h, w, c)
            } else {
                (0..n).map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                }).collect()
            };
            let q = Quality { bits };
            let old_blob = reference::compress(&pixels, h, w, c, q);
            let new_blob = compress(&pixels, h, w, c, q).unwrap();
            let expected = reference::decompress(&old_blob).unwrap();
            // the new encoder's blob means what the old encoder's meant
            prop_assert_eq!(&reference::decompress(&new_blob).unwrap(), &expected);
            // the new decoder reads both, bit for bit
            for blob in [&old_blob, &new_blob] {
                let (out, oh, ow, oc) = decompress(blob).unwrap();
                prop_assert_eq!((oh, ow, oc), (h, w, c));
                prop_assert_eq!(&out, &expected);
            }
        }

        /// Residual planes no encoder would write (quantized values past
        /// `bits`, wrapping sums) still decode as the reference does.
        #[test]
        fn arbitrary_residual_planes_decode_like_the_reference(
            h in 1u32..12, w in 1u32..12, c in 1u32..=5,
            bits in 1u8..=8,
            plane in proptest::collection::vec(any::<u8>(), 720..=720),
        ) {
            let n = (h * w * c) as usize;
            let mut blob = header(bits, h, w, c);
            blob.extend_from_slice(&lz4::compress(&plane[..n]));
            let (out, ..) = decompress(&blob).unwrap();
            prop_assert_eq!(out, reference::decompress(&blob).unwrap());
        }
    }
}
