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
//! on the stack, not a zeroed 256 KiB allocation.
//!
//! The decoder never allocates and has two paths. An image's residual
//! plane is hundreds of short sequences (few or no literals, matches of
//! 4-18 bytes at offsets mostly under 20), so the *fast path* takes any
//! sequence whose length nibbles are both under 15 while 32 input and 48
//! output bytes are left from its token: those margins hold every copy it
//! makes, so the match offset is its one check. It copies 16 literal
//! bytes whatever the run's length and writes the match as three 8-byte
//! words (or, for a period of 1-7 bytes, one word replicating it, stored
//! three times), spilling past the sequence into bytes the next one
//! overwrites. The *careful path* takes long runs and matches and the
//! block's last bytes: it checks every length against both buffers
//! before it copies. The two agree on every input, `Ok` and `Err` alike.

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
/// Input and output left from a token for the decoder's fast path. It
/// reads the token and 16 literal bytes, the offset among them (17
/// bytes), and writes 16 literal bytes, then three match words from at
/// most 14 bytes in (38 bytes).
const FAST_IN: usize = 32;
const FAST_OUT: usize = 48;

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

/// The `offset` (1-7) bytes at `out[start..]`, repeated across one word:
/// byte `i` is `out[start + i % offset]`. Reads 8 bytes from `start`.
///
/// The period is multiplied by a constant with a one in every byte whose
/// index is a multiple of the period: no loop and no branch, because the
/// next match often reads these bytes back, which puts the word's latency
/// on the decoder's critical path.
#[inline]
fn period_word(out: &[u8], start: usize, offset: usize) -> [u8; 8] {
    const ONES: [u64; 8] = [
        0,
        0x0101_0101_0101_0101,
        0x0001_0001_0001_0001,
        0x0001_0000_0100_0001,
        0x0000_0001_0000_0001,
        0x0000_0100_0000_0001,
        0x0001_0000_0000_0001,
        0x0100_0000_0000_0001,
    ];
    let raw = u64::from_le_bytes(out[start..start + 8].try_into().expect("8 bytes"));
    let period = raw & (u64::MAX >> (64 - 8 * offset));
    period.wrapping_mul(ONES[offset]).to_le_bytes()
}

/// Decompress an LZ4 block into `out`, which it must fill exactly.
///
/// Every copy is checked against what is left of both slices before it
/// is made (a short sequence by one margin check, anything else length by
/// length), so hostile input yields `Err`, never a panic. On `Err` the
/// contents of `out` are unspecified.
pub fn decompress_into(input: &[u8], out: &mut [u8]) -> Result<(), CodecError> {
    let n = input.len();
    let out_len = out.len();
    let mut ip = 0usize;
    let mut op = 0usize;

    while ip < n {
        let token = input[ip];
        if n - ip >= FAST_IN && out_len - op >= FAST_OUT && token < 0xf0 && token & 0x0f != 15 {
            // The fast path: the margins hold every copy below, so the
            // offset is the only thing left to check.
            let lit_len = (token >> 4) as usize;
            let window: &[u8; 17] = input[ip..ip + 17].try_into().expect("17 bytes");
            out[op..op + 16].copy_from_slice(&window[1..]);
            let offset = u16::from_le_bytes([window[1 + lit_len], window[2 + lit_len]]) as usize;
            ip += 3 + lit_len;
            op += lit_len;
            if offset == 0 || offset > op {
                return Err(CodecError::Corrupt("bad match offset"));
            }
            let start = op - offset;
            if offset >= 8 {
                // in order: each word's source ends before its destination
                out.copy_within(start..start + 8, op);
                out.copy_within(start + 8..start + 16, op + 8);
                out.copy_within(start + 16..start + 24, op + 16);
            } else {
                // stored at 0, p and 2p, p the largest multiple of the
                // period up to 8: at least 18 bytes
                let word = period_word(out, start, offset);
                let p = 8 / offset * offset;
                out[op..op + 8].copy_from_slice(&word);
                out[op + p..op + p + 8].copy_from_slice(&word);
                out[op + 2 * p..op + 2 * p + 8].copy_from_slice(&word);
            }
            op += (token & 0x0f) as usize + MIN_MATCH;
            continue;
        }

        // The careful path: a long run or match, or the block's last bytes.
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
        if lit_len <= 16 && n - ip >= 16 && out_len - op >= 16 {
            // a short run before a long match: one fixed-size copy
            out[op..op + 16].copy_from_slice(&input[ip..ip + 16]);
        } else {
            out[op..op + lit_len].copy_from_slice(&input[ip..ip + lit_len]);
        }
        ip += lit_len;
        op += lit_len;
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
        if offset < 8 && out_len - op - match_len >= 8 {
            // A long run of a short period: the word stored at every
            // multiple of the period, the last store up to 7 bytes past
            // the match, into room the next sequence overwrites.
            let word = period_word(out, start, offset);
            let p = 8 / offset * offset;
            let mut at = op;
            while at < op + match_len {
                out[at..at + 8].copy_from_slice(&word);
                at += p;
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
        // 18 is the longest match the fast path takes, 19 the last the
        // token nibble holds, 19 + 255 the last with one extension byte
        let lens = [4, 5, 7, 8, 9, 15, 16, 17, 18, 19, 20, 273, 274, 275, 600];
        let prefix: Vec<u8> = (1..=60u8).collect();
        for offset in (1..=9).chain([15, 16, 17, 20]) {
            // 0-14 literals leave the sequence to the fast path when
            // there is room, 17 never
            for lit_len in [0, 1, 7, 14, 17] {
                for match_len in lens {
                    // behind a 40-byte sequence and ahead of 0..=40
                    // closing literals: the match (and its over-copy) at
                    // every distance from the end of both buffers
                    for tail in 0..=40usize {
                        let seqs = [
                            Seq {
                                literals: &prefix[..40],
                                offset: 40,
                                match_len: 4,
                            },
                            Seq {
                                literals: &prefix[40..40 + lit_len],
                                offset,
                                match_len,
                            },
                        ];
                        let (block, plain) = assemble(&seqs, &prefix[..tail]);
                        assert_decodes_to(&block, &plain);
                    }
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

    /// Where each match's offset sits in `block`, and how much output
    /// precedes that match.
    fn offset_sites(block: &[u8]) -> Vec<(usize, usize)> {
        let (mut ip, mut op, mut sites) = (0usize, 0usize, Vec::new());
        while ip < block.len() {
            let token = block[ip];
            ip += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                lit_len = read_ext_len(block, &mut ip, lit_len, "literal length").unwrap();
            }
            ip += lit_len;
            op += lit_len;
            if ip == block.len() {
                break;
            }
            sites.push((ip, op));
            ip += 2;
            let mut match_len = (token & 0x0f) as usize;
            if match_len == 15 {
                match_len = read_ext_len(block, &mut ip, match_len, "match length").unwrap();
            }
            op += match_len + MIN_MATCH;
        }
        sites
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fast_path_matches_reference_on_short_sequence_blocks(
            raw in proptest::collection::vec(
                (0usize..=14, 1usize..=40, 41usize..=70_000, 4usize..=18, 19usize..=300, 0u8..64),
                1..=200,
            ),
            pool in proptest::collection::vec(any::<u8>(), 64..=64),
            last_len in 0usize..=24,
            mutation in 0u8..6,
            site in any::<usize>(),
        ) {
            // mostly what an image plane holds (short literals, matches
            // of 4-18 at offsets up to 40), now and then a far offset or
            // a long match: the fast path runs back to back, and the
            // closing literals put its hand-over to the careful path at
            // every distance from both buffer ends
            let mut seqs = Vec::new();
            let mut op = 0usize;
            for (i, &(lit, near, far, short, long, dice)) in raw.iter().enumerate() {
                let lit = if op == 0 { lit.max(1) } else { lit };
                op += lit;
                let offset = if dice % 8 == 0 && op > 40 {
                    far.min(op).min(MAX_OFFSET)
                } else {
                    near.min(op)
                };
                let match_len = if dice / 8 == 0 { long } else { short };
                let from = i * 7 % 50;
                seqs.push(Seq {
                    literals: &pool[from..from + lit],
                    offset: offset as u16,
                    match_len,
                });
                op += match_len;
            }
            let (mut block, plain) = assemble(&seqs, &pool[..last_len]);
            // one mutation: a bad offset, a cut block or an output slice
            // one byte off, else the block as assembled
            let mut out_len = plain.len();
            let sites = offset_sites(&block);
            let (at, before) = sites[site % sites.len()];
            match mutation {
                1 => block[at..at + 2].fill(0),
                2 => {
                    let bad = u16::try_from(before + 1).unwrap_or(0);
                    block[at..at + 2].copy_from_slice(&bad.to_le_bytes());
                }
                3 => block.truncate(site % block.len()),
                4 => out_len += 1,
                5 => out_len -= 1,
                _ => {}
            }
            let reference = reference_decompress(&block, out_len);
            let mut out = vec![0u8; out_len];
            let kernel = decompress_into(&block, &mut out);
            prop_assert_eq!(reference.is_ok(), kernel.is_ok());
            if let Ok(expected) = reference {
                prop_assert_eq!(&out, &expected);
            }
            if mutation == 0 {
                prop_assert_eq!(&out, &plain);
            }
        }
    }
}
