//! Property tests for the codec layer.

use deeplake_codec::synthimg::{self, Quality};
use deeplake_codec::{lz4, rle, Compression, Frame};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lz4_never_corrupts(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let c = lz4::compress(&data);
        prop_assert_eq!(lz4::decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn lz4_rejects_wrong_length(data in proptest::collection::vec(any::<u8>(), 1..512)) {
        let c = lz4::compress(&data);
        prop_assert!(lz4::decompress(&c, data.len() + 1).is_err());
        if data.len() > 1 {
            prop_assert!(lz4::decompress(&c, data.len() - 1).is_err());
        }
    }

    #[test]
    fn rle_roundtrip_with_runs(
        runs in proptest::collection::vec((any::<u8>(), 1usize..100), 0..50)
    ) {
        let data: Vec<u8> = runs.iter().flat_map(|&(b, n)| std::iter::repeat_n(b, n)).collect();
        let c = rle::compress(&data);
        prop_assert_eq!(rle::decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn synthimg_error_within_bound(
        h in 1u32..24, w in 1u32..24,
        bits in 1u8..=8,
        seed in any::<u64>(),
    ) {
        let n = (h * w * 3) as usize;
        let pixels: Vec<u8> =
            (0..n).map(|i| ((seed as usize).wrapping_add(i * 7) % 256) as u8).collect();
        let q = Quality { bits };
        let blob = synthimg::compress(&pixels, h, w, 3, q).unwrap();
        let (out, oh, ow, oc) = synthimg::decompress(&blob).unwrap();
        prop_assert_eq!((oh, ow, oc), (h, w, 3));
        let bound = synthimg::max_error(q);
        for (a, b) in pixels.iter().zip(out.iter()) {
            prop_assert!(a.abs_diff(*b) <= bound, "error exceeds bound at bits={bits}");
        }
    }

    #[test]
    fn framed_blobs_self_describe(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        // any codec's frame decodes without knowing which codec produced it
        for codec in [Compression::None, Compression::Lz4, Compression::Rle] {
            let blob = codec.compress(&data);
            prop_assert_eq!(Compression::decompress(&blob).unwrap(), data.clone());
        }
    }

    #[test]
    fn image_frames_keep_geometry(h in 1u32..16, w in 1u32..16, c in 1u32..4) {
        let n = (h * w * c) as usize;
        let pixels = vec![128u8; n];
        let blob = Compression::JPEG_LIKE.compress_image(&pixels, h, w, c).unwrap();
        let (out, geom) = Compression::decompress_image(&blob).unwrap();
        prop_assert_eq!(geom, Some((h, w, c)));
        prop_assert_eq!(out.len(), n);
    }

    #[test]
    fn corrupted_frames_error_not_panic(
        data in proptest::collection::vec(any::<u8>(), 1..200),
        runs in proptest::collection::vec((0u8..3, 1usize..40), 1..8),
        h in 1u32..8, w in 1u32..8, c in 1u32..4,
        flip in any::<usize>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        // one frame of every kind, on data each codec is meant for
        let runny: Vec<u8> =
            runs.iter().flat_map(|&(b, n)| std::iter::repeat_n(b, n)).collect();
        let pixels: Vec<u8> =
            (0..(h * w * c) as usize).map(|i| data[i % data.len()]).collect();
        let frames = [
            Compression::None.compress(&data),
            Compression::Lz4.compress(&data),
            Compression::Lz4.compress(&runny),
            Compression::Rle.compress(&runny),
            Compression::JPEG_LIKE.compress_image(&pixels, h, w, c).unwrap(),
        ];
        for frame in &frames {
            decodes_or_errs(frame); // the frame itself decodes
            // flip bits
            let mut bad = frame.clone();
            bad[flip % frame.len()] ^= 1 << (flip % 8);
            decodes_or_errs(&bad);
            bad[flip % frame.len()] ^= 0xA5;
            decodes_or_errs(&bad);
            // truncate at every length
            for len in 0..frame.len() {
                decodes_or_errs(&frame[..len]);
            }
            // append garbage
            let mut bad = frame.clone();
            bad.extend_from_slice(&garbage);
            decodes_or_errs(&bad);
            if frame[0] == 0 {
                continue; // an uncompressed frame is its magic byte and the data
            }
            // splice the frame length: the same value padded with 1..=10
            // continuation bytes, then zero and the largest value
            let len_end = 1 + frame[1..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
            let respliced = |varint: &[u8]| [&frame[..1], varint, &frame[len_end..]].concat();
            for pad in 1..=10 {
                let mut varint = frame[1..len_end].to_vec();
                *varint.last_mut().unwrap() |= 0x80;
                varint.extend(std::iter::repeat_n(0x80, pad - 1));
                varint.push(0x00);
                decodes_or_errs(&respliced(&varint));
            }
            decodes_or_errs(&respliced(&[0x00]));
            decodes_or_errs(&respliced(&[0xFF; 9]));
            let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
            decodes_or_errs(&respliced(&max));
            // zero and max every header field behind the length: the magic
            // byte, and an image frame's bits / h / w / c
            let mut fields = vec![(0, 1)];
            if frame[0] == 3 {
                let header = [(0, 1), (1, 4), (5, 4), (9, 4)];
                fields.extend(header.map(|(at, len)| (len_end + at, len)));
            }
            for (at, len) in fields {
                for byte in [0x00, 0xFF] {
                    let mut bad = frame.clone();
                    bad[at..at + len].fill(byte);
                    decodes_or_errs(&bad);
                }
            }
        }
    }
}

/// `blob` decodes or errors through both entry points — a panic fails the
/// test — and whatever parses claims no more output than its input could
/// expand to, so nothing larger is ever allocated for it. (The inputs'
/// RLE frames stay under 64 KiB; a longer run is legitimate RLE, held to
/// the total of its runs instead.)
fn decodes_or_errs(blob: &[u8]) {
    let limit = 255 * blob.len() + (64 << 10);
    if let Ok(frame) = Frame::parse(blob) {
        assert!(
            frame.decoded_len() <= limit,
            "frame claims {}",
            frame.decoded_len()
        );
    }
    let flat = Compression::decompress(blob);
    let image = Compression::decompress_image(blob);
    assert_eq!(flat.is_ok(), image.is_ok());
    if let (Ok(flat), Ok((pixels, _))) = (flat, image) {
        assert!(flat.len() <= limit);
        assert_eq!(flat, pixels);
    }
}
