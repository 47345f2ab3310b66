//! LZ4 block format, implemented from scratch.
//!
//! This is the real LZ4 block algorithm (token byte with literal/match
//! length nibbles, 255-extension bytes, 2-byte little-endian match offsets,
//! minimum match length 4, last-five-literals rule), with a greedy
//! single-entry hash-table matcher — the same structure as the reference
//! `LZ4_compress_default` fast path.
//!
//! The encoded stream this module produces/consumes is a raw LZ4 *block*
//! (no frame header). Callers that need self-describing blobs wrap it via
//! [`crate::registry::Compression`].
//!
//! Both directions have an `*_into` form that writes into a buffer the
//! caller owns, so a framed blob is written once and a decoded sample is
//! one allocation. The encoder's match table has one slot per input byte
//! (between 4 Ki and 64 Ki slots): a 3 KiB image plane gets a 16 KiB table
//! on the stack, not a zeroed 256 KiB allocation. The decoder checks every
//! length against both buffers *before* it copies, and never allocates.

use crate::error::CodecError;

const MIN_MATCH: usize = 4;
/// Matches cannot start within the last 12 bytes of input (LZ4 spec: the
/// last match must start at least 12 bytes before block end).
const MFLIMIT: usize = 12;
/// The last 5 bytes of a block are always literals.
const LAST_LITERALS: usize = 5;
const MAX_OFFSET: usize = 65535;
/// Smallest match table (lives on the stack) and largest (every position
/// a 16-bit offset can reach), as log2 of the slot count.
const MIN_HASH_LOG: u32 = 12;
const MAX_HASH_LOG: u32 = 16;
/// Short literal runs and matches are copied as one fixed 16-byte block
/// when both buffers have the room: the bytes past the run are overwritten
/// by the next sequence.
const WILD_COPY: usize = 16;

/// An LZ4 block cannot expand to more than 255 times its length (each
/// extension byte adds at most 255 output bytes). Lengths read from
/// untrusted headers are checked against this before anything is
/// allocated for them.
pub(crate) fn max_decompressed_len(block_len: usize) -> usize {
    block_len.saturating_mul(255)
}

#[inline]
fn read_u32(data: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4-byte slice"))
}

/// Length of the common prefix of `a` and `b`, compared eight bytes at a
/// time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Compress `input` into an LZ4 block.
///
/// Always succeeds; incompressible data expands by at most
/// `input.len() / 255 + 16` bytes of token overhead.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_into(input, &mut out);
    out
}

/// Append the LZ4 block of `input` to `out`.
pub fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    let n = input.len();
    if n <= MFLIMIT {
        // too short to hold a match
        emit_last_literals(out, input);
        return;
    }
    // one slot per input byte, within [4 Ki, 64 Ki]
    let hash_log = (usize::BITS - (n - 1).leading_zeros()).clamp(MIN_HASH_LOG, MAX_HASH_LOG);
    if hash_log == MIN_HASH_LOG {
        compress_block(input, &mut [0u32; 1 << MIN_HASH_LOG], out);
    } else {
        compress_block(input, &mut vec![0u32; 1 << hash_log], out);
    }
}

/// The greedy matcher. `table` maps a 4-byte hash to `position + 1` of its
/// last occurrence (0 = empty); its length is a power of two.
fn compress_block(input: &[u8], table: &mut [u32], out: &mut Vec<u8>) {
    let n = input.len();
    let hash_shift = 32 - table.len().trailing_zeros();
    // Fibonacci hashing constant used by reference LZ4.
    let hash = |seq: u32| (seq.wrapping_mul(2654435761) >> hash_shift) as usize;
    let mut anchor = 0usize; // start of pending literals
    let mut pos = 0usize;
    let match_limit = n - MFLIMIT;
    let match_end = n - LAST_LITERALS; // matches stop before the tail region

    while pos <= match_limit {
        let seq = read_u32(input, pos);
        let h = hash(seq);
        let candidate = table[h] as usize;
        table[h] = (pos + 1) as u32;
        if candidate == 0 {
            pos += 1;
            continue;
        }
        let cand_pos = candidate - 1;
        if pos - cand_pos > MAX_OFFSET || read_u32(input, cand_pos) != seq {
            pos += 1;
            continue;
        }
        let len = MIN_MATCH
            + common_prefix(
                &input[cand_pos + MIN_MATCH..],
                &input[pos + MIN_MATCH..match_end],
            );
        // extend backwards into pending literals
        let mut back = 0usize;
        while pos - back > anchor
            && cand_pos > back
            && input[pos - back - 1] == input[cand_pos - back - 1]
        {
            back += 1;
        }
        let match_pos = pos - back;
        let match_len = len + back;
        emit_match(
            out,
            &input[anchor..match_pos],
            (pos - cand_pos) as u16,
            match_len,
        );
        pos = match_pos + match_len;
        anchor = pos;
        // insert a position inside the match to improve future finds
        if pos <= match_limit {
            let p = pos - 2;
            table[hash(read_u32(input, p))] = (p + 1) as u32;
        }
    }

    emit_last_literals(out, &input[anchor..]);
}

/// Emit `literals` followed by a match of `match_len` at `offset`.
fn emit_match(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    debug_assert!(match_len >= MIN_MATCH);
    let lit_len = literals.len();
    let ml = match_len - MIN_MATCH;
    let token = (nibble(lit_len) << 4) | nibble(ml);
    out.push(token);
    push_ext_len(out, lit_len);
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    push_ext_len(out, ml);
}

/// Emit the final literal-only sequence (offset/match omitted per spec).
fn emit_last_literals(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_len = literals.len();
    out.push(nibble(lit_len) << 4);
    push_ext_len(out, lit_len);
    out.extend_from_slice(literals);
}

#[inline]
fn nibble(len: usize) -> u8 {
    if len >= 15 {
        15
    } else {
        len as u8
    }
}

#[inline]
fn push_ext_len(out: &mut Vec<u8>, len: usize) {
    if len >= 15 {
        let mut rem = len - 15;
        while rem >= 255 {
            out.push(255);
            rem -= 255;
        }
        out.push(rem as u8);
    }
}

/// Decompress an LZ4 block produced by [`compress`] (or any conforming
/// encoder). The result must be exactly `expected_len` bytes; a length no
/// block of this size could expand to is rejected before allocating.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    if expected_len > max_decompressed_len(input.len()) {
        return Err(CodecError::Corrupt(
            "length exceeds what the block can hold",
        ));
    }
    let mut out = vec![0u8; expected_len];
    decompress_into(input, &mut out)?;
    Ok(out)
}

/// Read a length's 255-extension bytes at `*pos`, adding them to `len`.
#[inline]
fn read_ext_len(
    input: &[u8],
    pos: &mut usize,
    mut len: usize,
    what: &'static str,
) -> Result<usize, CodecError> {
    loop {
        let b = *input.get(*pos).ok_or(CodecError::Corrupt(what))?;
        *pos += 1;
        len = len.saturating_add(b as usize);
        if b != 255 {
            return Ok(len);
        }
    }
}

/// Decompress an LZ4 block into `out`, which it must fill exactly.
///
/// Every literal and match length is checked against what is left of both
/// slices before the copy, so hostile input yields `Err`, never a panic.
/// On `Err` the contents of `out` are unspecified.
pub fn decompress_into(input: &[u8], out: &mut [u8]) -> Result<(), CodecError> {
    let n = input.len();
    let out_len = out.len();
    let mut ip = 0usize;
    let mut op = 0usize;

    while ip < n {
        let token = input[ip];
        ip += 1;

        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len = read_ext_len(input, &mut ip, lit_len, "literal length")?;
        }
        if lit_len > n - ip {
            return Err(CodecError::Corrupt("literal run past end"));
        }
        if lit_len > out_len - op {
            return Err(CodecError::Corrupt("output overflow"));
        }
        if lit_len > 0 {
            if lit_len <= WILD_COPY && n - ip >= WILD_COPY && out_len - op >= WILD_COPY {
                out[op..op + WILD_COPY].copy_from_slice(&input[ip..ip + WILD_COPY]);
            } else {
                out[op..op + lit_len].copy_from_slice(&input[ip..ip + lit_len]);
            }
            ip += lit_len;
            op += lit_len;
        }
        if ip == n {
            break; // final sequence has no match part
        }

        if n - ip < 2 {
            return Err(CodecError::Corrupt("truncated offset"));
        }
        let offset = u16::from_le_bytes([input[ip], input[ip + 1]]) as usize;
        ip += 2;
        if offset == 0 || offset > op {
            return Err(CodecError::Corrupt("bad match offset"));
        }
        let mut match_len = (token & 0x0f) as usize;
        if match_len == 15 {
            match_len = read_ext_len(input, &mut ip, match_len, "match length")?;
        }
        match_len = match_len.saturating_add(MIN_MATCH);
        if match_len > out_len - op {
            return Err(CodecError::Corrupt("output overflow"));
        }

        let start = op - offset;
        if offset >= match_len {
            // source and destination do not overlap
            if match_len <= WILD_COPY && offset >= WILD_COPY && out_len - op >= WILD_COPY {
                out.copy_within(start..start + WILD_COPY, op);
            } else {
                out.copy_within(start..start + match_len, op);
            }
        } else if offset == 1 {
            let byte = out[start];
            out[op..op + match_len].fill(byte);
        } else if offset <= 8 && out_len - op - match_len >= 8 {
            // A period of up to 8 bytes fits one word: replicate it across
            // the word, then store the word at every multiple of the
            // period. The last store may run up to 7 bytes past the match,
            // into room the next sequence overwrites.
            let raw = u64::from_le_bytes(out[start..start + 8].try_into().expect("8 bytes"));
            let mut bits = 8 * offset as u32;
            let mut word = raw & (u64::MAX >> (64 - bits));
            while bits < 64 {
                word |= word << bits;
                bits *= 2;
            }
            let step = 8 / offset * offset;
            let mut at = op;
            while at < op + match_len {
                out[at..at + 8].copy_from_slice(&word.to_le_bytes());
                at += step;
            }
        } else {
            // The match repeats the `offset` bytes before it. Each copy
            // doubles the stretch already written, so `done` stays a
            // multiple of the period and the source never overlaps.
            let mut done = 0usize;
            while done < match_len {
                let step = (offset + done).min(match_len - done);
                out.copy_within(start..start + step, op + done);
                done += step;
            }
        }
        op += match_len;
    }

    if op != out_len {
        return Err(CodecError::LengthMismatch {
            expected: out_len,
            actual: op,
        });
    }
    Ok(())
}

/// The decoder as it stood before the slice kernels: grows a `Vec`, copies
/// overlapping matches a byte at a time. Kept as the oracle the kernels
/// are compared against.
#[cfg(test)]
pub(crate) fn reference_decompress(
    input: &[u8],
    expected_len: usize,
) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let n = input.len();

    while pos < n {
        let token = input[pos];
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len = read_ext_len(input, &mut pos, lit_len, "literal length")?;
        }
        if pos + lit_len > n {
            return Err(CodecError::Corrupt("literal run past end"));
        }
        out.extend_from_slice(&input[pos..pos + lit_len]);
        pos += lit_len;
        if pos == n {
            break;
        }
        if pos + 2 > n {
            return Err(CodecError::Corrupt("truncated offset"));
        }
        let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(CodecError::Corrupt("bad match offset"));
        }
        let mut match_len = (token & 0x0f) as usize;
        if match_len == 15 {
            match_len = read_ext_len(input, &mut pos, match_len, "match length")?;
        }
        match_len += MIN_MATCH;
        if out.len() + match_len > expected_len {
            return Err(CodecError::Corrupt("output overflow"));
        }
        let start = out.len() - offset;
        for i in 0..match_len {
            let b = out[start + i];
            out.push(b);
        }
    }

    if out.len() != expected_len {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            actual: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data, "roundtrip failed for len {}", data.len());
    }

    #[test]
    fn empty() {
        roundtrip(&[]);
    }

    #[test]
    fn tiny_inputs() {
        for n in 1..20 {
            let data: Vec<u8> = (0..n as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn all_zeros_compresses_well() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < data.len() / 100, "got {} bytes", c.len());
        roundtrip(&data);
    }

    #[test]
    fn repeating_pattern() {
        let data: Vec<u8> = (0..50_000).map(|i| (i % 7) as u8).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 10);
        roundtrip(&data);
    }

    #[test]
    fn text_like_data() {
        let text = "the quick brown fox jumps over the lazy dog. ".repeat(500);
        let c = compress(text.as_bytes());
        assert!(c.len() < text.len() / 3);
        roundtrip(text.as_bytes());
    }

    #[test]
    fn incompressible_random() {
        // xorshift pseudo-random bytes: should roundtrip with bounded expansion
        let mut state = 0x1234_5678_9abc_def0u64;
        let data: Vec<u8> = (0..65_536)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xff) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 255 + 16);
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_rle_style() {
        // "aaaa..." forces offset-1 overlapping copies
        let data = vec![b'a'; 1000];
        roundtrip(&data);
    }

    #[test]
    fn long_literal_runs_extension_bytes() {
        // 300 unique-ish bytes -> literal length needs extension bytes
        let data: Vec<u8> = (0..300u32).map(|i| (i * 17 % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn long_match_extension_bytes() {
        let mut data = b"0123456789abcdef".to_vec();
        data.extend(std::iter::repeat_n(b'x', 5000));
        data.extend_from_slice(b"tail bytes here!");
        roundtrip(&data);
    }

    #[test]
    fn decompress_rejects_truncated() {
        let data = vec![7u8; 1000];
        let mut c = compress(&data);
        c.truncate(c.len() / 2);
        assert!(decompress(&c, 1000).is_err());
    }

    #[test]
    fn decompress_rejects_wrong_expected_len() {
        let data = vec![7u8; 1000];
        let c = compress(&data);
        assert!(decompress(&c, 999).is_err());
        assert!(decompress(&c, 1001).is_err());
    }

    #[test]
    fn decompress_rejects_bad_offset() {
        // token: 0 literals + match, offset 5 with empty output
        let bad = vec![0x04, 5, 0];
        assert!(decompress(&bad, 100).is_err());
    }

    #[test]
    fn label_like_i32_stream() {
        // categorical labels as LE i32: highly compressible
        let mut data = Vec::new();
        for i in 0..10_000i32 {
            data.extend_from_slice(&(i % 10).to_le_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 4);
        roundtrip(&data);
    }

    /// One sequence of a hand-assembled block: literals, then a match.
    struct Seq<'a> {
        literals: &'a [u8],
        offset: u16,
        match_len: usize,
    }

    /// Assemble a block from `seqs` and closing `last_literals`, straight
    /// from the format description, and the bytes it stands for.
    fn assemble(seqs: &[Seq], last_literals: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let (mut block, mut plain) = (Vec::new(), Vec::new());
        for s in seqs {
            emit_match(&mut block, s.literals, s.offset, s.match_len);
            plain.extend_from_slice(s.literals);
            for _ in 0..s.match_len {
                plain.push(plain[plain.len() - s.offset as usize]);
            }
        }
        emit_last_literals(&mut block, last_literals);
        plain.extend_from_slice(last_literals);
        (block, plain)
    }

    /// The kernel, the reference decoder and the model agree on `block`,
    /// and the kernel refuses an output slice one byte off either way.
    fn assert_decodes_to(block: &[u8], plain: &[u8]) {
        assert_eq!(
            reference_decompress(block, plain.len()).expect("reference"),
            plain
        );
        assert_eq!(decompress(block, plain.len()).expect("kernel"), plain);
        assert!(decompress_into(block, &mut vec![0u8; plain.len() + 1]).is_err());
        if !plain.is_empty() {
            assert!(decompress_into(block, &mut vec![0u8; plain.len() - 1]).is_err());
        }
    }

    /// Walk an encoder's block and check the end-of-block rules the module
    /// doc promises: if there is any match, the last one starts at least
    /// 12 bytes before the end and the closing literals are at least 5.
    fn assert_conforming(input: &[u8], block: &[u8]) {
        let (mut ip, mut op, mut last_match_start) = (0usize, 0usize, None);
        loop {
            let token = block[ip];
            ip += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                lit_len = read_ext_len(block, &mut ip, lit_len, "literal length").unwrap();
            }
            ip += lit_len;
            op += lit_len;
            if ip == block.len() {
                assert_eq!(op, input.len(), "block covers the input");
                if let Some(start) = last_match_start {
                    assert!(lit_len >= LAST_LITERALS, "closing literals {lit_len} < 5");
                    assert!(
                        start + MFLIMIT <= input.len(),
                        "match starts {} bytes before the end",
                        input.len() - start
                    );
                }
                return;
            }
            let offset = u16::from_le_bytes([block[ip], block[ip + 1]]) as usize;
            ip += 2;
            assert!(offset >= 1 && offset <= op, "offset {offset} at {op}");
            let mut match_len = (token & 0x0f) as usize;
            if match_len == 15 {
                match_len = read_ext_len(block, &mut ip, match_len, "match length").unwrap();
            }
            last_match_start = Some(op);
            op += match_len + MIN_MATCH;
        }
    }

    #[test]
    fn overlap_offsets_and_length_boundaries() {
        // 19 is the last match length the token nibble holds, 19 + 255
        // the last with one extension byte
        let lens = [4, 5, 7, 8, 9, 15, 16, 17, 18, 19, 20, 273, 274, 275, 600];
        let prefix: Vec<u8> = (1..=40u8).collect();
        for offset in (1..=8).chain([15, 16, 17]) {
            for match_len in lens {
                // a closing run of 0..=24 literals puts the match (and its
                // over-copy) at every distance from the end of both buffers
                for tail in 0..=24usize {
                    let seqs = [Seq {
                        literals: &prefix[..17],
                        offset,
                        match_len,
                    }];
                    let (block, plain) = assemble(&seqs, &prefix[..tail]);
                    assert_decodes_to(&block, &plain);
                }
            }
        }
    }

    #[test]
    fn literal_runs_at_the_slice_end_and_the_extension_boundaries() {
        let bytes: Vec<u8> = (0..600u32).map(|i| (i * 31 % 251) as u8).collect();
        // the closing literal run ends exactly at the slice end: every
        // length around the 16-byte block copy and the 15 / 15+255 marks
        for lit_len in (0..=34).chain([269, 270, 271, 524, 525, 526]) {
            let (block, plain) = assemble(&[], &bytes[..lit_len]);
            assert_eq!(plain.len(), lit_len);
            assert_decodes_to(&block, &plain);
            // and the same run mid-block, followed by short sequences so
            // the fast path runs with less than 16 bytes left on both sides
            let seqs = [
                Seq {
                    literals: &bytes[..lit_len.max(1)],
                    offset: 1,
                    match_len: 4,
                },
                Seq {
                    literals: &bytes[..3],
                    offset: 3,
                    match_len: 4,
                },
            ];
            for tail in 0..=17 {
                let (block, plain) = assemble(&seqs, &bytes[..tail]);
                assert_decodes_to(&block, &plain);
            }
        }
    }

    #[test]
    fn back_to_back_matches_without_literals() {
        let seqs = [
            Seq {
                literals: b"abcdefghijklmnopqrstuvwxyz",
                offset: 26,
                match_len: 26,
            },
            Seq {
                literals: b"",
                offset: 2,
                match_len: 11,
            },
            Seq {
                literals: b"",
                offset: 20,
                match_len: 16,
            },
            Seq {
                literals: b"",
                offset: 9,
                match_len: 40,
            },
        ];
        let (block, plain) = assemble(&seqs, b"");
        assert_decodes_to(&block, &plain);
    }

    #[test]
    fn hostile_lengths_are_refused_before_allocating() {
        // 255 bytes per input byte is the most a block can expand to
        assert!(matches!(
            decompress(&[0x00], 1 << 45),
            Err(CodecError::Corrupt(_))
        ));
        assert!(decompress(&[0x00], usize::MAX).is_err());
        // a match length that runs past the output is refused, not copied
        let (block, plain) = assemble(
            &[Seq {
                literals: b"ab",
                offset: 2,
                match_len: 5000,
            }],
            b"",
        );
        assert!(decompress_into(&block, &mut vec![0u8; plain.len() - 1]).is_err());
        assert!(decompress_into(&block, &mut [0u8; 8]).is_err());
        assert!(decompress_into(&block, &mut []).is_err());
    }

    #[test]
    fn table_size_follows_the_input() {
        // around the stack-table limit and past the largest table:
        // whichever table produced the block, any decoder reads it
        let mut state = 7u32;
        let data: Vec<u8> = (0..150_000)
            .map(|i: u32| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if i % 97 < 60 {
                    (i % 11) as u8
                } else {
                    (state >> 24) as u8
                }
            })
            .collect();
        for n in [
            12, 13, 4095, 4096, 4097, 8192, 8193, 32_768, 65_536, 65_537, 150_000,
        ] {
            let block = compress(&data[..n]);
            assert_conforming(&data[..n], &block);
            assert_eq!(reference_decompress(&block, n).unwrap(), &data[..n]);
            assert_eq!(decompress(&block, n).unwrap(), &data[..n]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn encoder_output_conforms_and_decoders_agree(
            runs in proptest::collection::vec((0u8..6, 1usize..60), 0..300),
            noise in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            // runs of a small alphabet with a little noise spliced in:
            // matches of every length, at offsets short and long
            let mut data: Vec<u8> = Vec::new();
            for (i, &(byte, len)) in runs.iter().enumerate() {
                data.extend(std::iter::repeat_n(byte, len));
                if let Some(&b) = noise.get(i) {
                    data.push(b);
                }
            }
            let block = compress(&data);
            assert_conforming(&data, &block);
            prop_assert_eq!(&reference_decompress(&block, data.len()).unwrap(), &data);
            prop_assert_eq!(&decompress(&block, data.len()).unwrap(), &data);
        }

        #[test]
        fn kernel_matches_reference_on_arbitrary_blocks(
            block in proptest::collection::vec(any::<u8>(), 0..96),
            expected_len in 0usize..400,
        ) {
            // arbitrary bytes as a block: both decoders reach the same
            // verdict, and the same bytes when that verdict is Ok
            let reference = reference_decompress(&block, expected_len);
            let kernel = decompress(&block, expected_len);
            prop_assert_eq!(reference.is_ok(), kernel.is_ok());
            if let (Ok(a), Ok(b)) = (reference, kernel) {
                prop_assert_eq!(a, b);
            }
        }
    }
}
