//! Byte run-length encoding.
//!
//! Effective on binary masks and sparse label planes where long runs of a
//! single byte dominate. Encoding: a stream of `(count_varint, byte)` pairs,
//! where `count_varint` is LEB128.

use crate::error::CodecError;

/// Encode `input` as `(varint run length, byte)` pairs.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4 + 8);
    compress_into(input, &mut out);
    out
}

/// Append the RLE stream of `input` to `out`.
pub fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    let mut i = 0usize;
    while i < input.len() {
        let byte = input[i];
        let mut run = 1usize;
        while i + run < input.len() && input[i + run] == byte {
            run += 1;
        }
        write_varint(out, run as u64);
        out.push(byte);
        i += run;
    }
}

/// Total length of the runs in an RLE stream, with every run header
/// checked. A run may legitimately be far longer than the stream, so this
/// sum — not a ratio to the input size — is what an untrusted frame length
/// is held against before anything is allocated for it.
pub(crate) fn decoded_len(input: &[u8]) -> Result<usize, CodecError> {
    let mut total = 0usize;
    for_each_run(input, |run, _| {
        total = usize::try_from(run)
            .ok()
            .and_then(|run| total.checked_add(run))
            .ok_or(CodecError::Corrupt("run lengths overflow"))?;
        Ok(())
    })?;
    Ok(total)
}

/// Decode an RLE stream, verifying the output length.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let actual = decoded_len(input)?;
    if actual != expected_len {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            actual,
        });
    }
    let mut out = vec![0u8; expected_len];
    decompress_into(input, &mut out)?;
    Ok(out)
}

/// Decode an RLE stream into `out`, which it must fill exactly.
pub fn decompress_into(input: &[u8], out: &mut [u8]) -> Result<(), CodecError> {
    let mut filled = 0usize;
    for_each_run(input, |run, byte| {
        let run = usize::try_from(run)
            .ok()
            .filter(|&run| run <= out.len() - filled)
            .ok_or(CodecError::Corrupt("run overflows output"))?;
        out[filled..filled + run].fill(byte);
        filled += run;
        Ok(())
    })?;
    if filled != out.len() {
        return Err(CodecError::LengthMismatch {
            expected: out.len(),
            actual: filled,
        });
    }
    Ok(())
}

/// Walk the `(run length, byte)` pairs of a stream.
fn for_each_run(
    input: &[u8],
    mut f: impl FnMut(u64, u8) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    let mut pos = 0usize;
    while pos < input.len() {
        let (run, used) = read_varint(&input[pos..]).ok_or(CodecError::Corrupt("varint"))?;
        pos += used;
        let byte = *input
            .get(pos)
            .ok_or(CodecError::Corrupt("missing run byte"))?;
        pos += 1;
        f(run, byte)?;
    }
    Ok(())
}

/// LEB128 unsigned varint.
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint; returns `(value, bytes_consumed)`.
pub(crate) fn read_varint(input: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in input.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn empty() {
        roundtrip(&[]);
    }

    #[test]
    fn single_byte() {
        roundtrip(&[42]);
    }

    #[test]
    fn mask_like_runs() {
        let mut data = vec![0u8; 5000];
        data.extend(vec![1u8; 3000]);
        data.extend(vec![0u8; 2000]);
        let c = compress(&data);
        assert!(c.len() < 20);
        roundtrip(&data);
    }

    #[test]
    fn alternating_worst_case() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        let c = compress(&data);
        // worst case doubles the size (1 varint byte + 1 value byte per run)
        assert!(c.len() <= data.len() * 2);
        roundtrip(&data);
    }

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, used) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn decompress_rejects_truncation() {
        let c = compress(&[1u8; 100]);
        assert!(decompress(&c[..c.len() - 1], 100).is_err());
        assert!(decompress(&c, 99).is_err());
    }

    #[test]
    fn long_run_varint_extension() {
        let data = vec![9u8; 100_000];
        let c = compress(&data);
        assert!(c.len() <= 5);
        roundtrip(&data);
    }

    #[test]
    fn run_totals_are_checked_before_allocating() {
        // two runs of 2^63 overflow the total; one run of 2^45 is a
        // length the caller did not expect
        let mut huge = Vec::new();
        write_varint(&mut huge, 1 << 63);
        huge.push(0);
        assert_eq!(decoded_len(&huge), Ok(1 << 63));
        assert!(decompress(&huge, 16).is_err());
        huge.extend_from_slice(&huge.clone());
        assert_eq!(
            decoded_len(&huge),
            Err(CodecError::Corrupt("run lengths overflow"))
        );
        // a run longer than the output slice is refused, not written
        let c = compress(&[3u8; 100]);
        assert!(decompress_into(&c, &mut [0u8; 99]).is_err());
        assert!(decompress_into(&c, &mut [0u8; 101]).is_err());
        let mut out = [0u8; 100];
        decompress_into(&c, &mut out).unwrap();
        assert_eq!(out, [3u8; 100]);
    }
}
