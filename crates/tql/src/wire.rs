//! Wire serialization for query offload.
//!
//! A serving tier ships TQL text + [`QueryOptions`] to a dataset server
//! and gets a [`QueryResult`] back — so a pruned or ANN query costs
//! O(results) network traffic instead of O(chunks). This module defines
//! the binary forms of everything that crosses that boundary: options,
//! stats, projected [`Value`]s (including full tensors), and the result
//! itself. The transport framing lives in the remote crate; this module
//! only encodes/decodes payload bodies.
//!
//! Encoding is little-endian and length-prefixed throughout, and the
//! decoder follows the same hardening discipline as the `DLVX` vector
//! index reader: every size header is bounded against the bytes actually
//! present *before* any allocation, so truncated or corrupt input yields
//! `Err`, never a panic or a huge allocation.
//!
//! A fixed-width array — a result's row ids — moves as one slice: its
//! count is bounded against the remaining bytes, the `n × 8` bytes are
//! taken with one bounds check ([`WireReader::u64s`]) and converted word
//! by word, and the encoder reserves once and appends ([`put_u64s`]).
//! The bytes are the same as writing the words one at a time; a
//! 2,000-id answer (a score scan) is what a client decodes on every
//! cached query, so the per-word bounds check is what this avoids.
//! [`encode_result`] reserves a frame's fixed-size part at once, so a
//! frame without projected rows — what the hub's result cache holds —
//! carries no spare capacity the cache's byte budget does not see.

use bytes::Bytes;
use deeplake_tensor::{Dtype, Sample, Shape};

use crate::exec::{QueryOptions, QueryResult, QueryStats};
use crate::value::Value;

/// Decode failure: corrupt, truncated, or oversized wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for crate::TqlError {
    fn from(e: WireError) -> Self {
        crate::TqlError::Remote(e.to_string())
    }
}

/// Result alias for decoding.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// Maximum rank a wire-decoded tensor may claim. Generous (the format
/// layer tops out far lower) while keeping a corrupt rank header from
/// driving a large dims allocation.
pub const MAX_WIRE_RANK: usize = 64;

// ---------------------------------------------------------------------
// writer helpers
// ---------------------------------------------------------------------

/// Append a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` (little-endian IEEE 754).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `vs` as consecutive little-endian `u64`s: one reservation,
/// then the words.
pub fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    out.reserve(vs.len() * 8);
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a `u64`-length-prefixed byte blob.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

// ---------------------------------------------------------------------
// bounds-checked reader
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader over wire bytes.
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    /// Take `n` raw bytes, erroring on truncation.
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| WireError("truncated".into()))?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read `n` consecutive little-endian `u64`s: one bounds check and
    /// one `take` for the whole array, then a word-by-word conversion
    /// that never touches the reader again. A count beyond the bytes
    /// present is `Err` before anything is allocated.
    pub fn u64s(&mut self, n: usize) -> WireResult<Vec<u64>> {
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| WireError("truncated".into()))?;
        let words = self.take(bytes)?;
        Ok(words
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u32`-length-prefixed UTF-8 string. The length is bounded
    /// by the remaining bytes before anything is copied.
    pub fn str(&mut self) -> WireResult<String> {
        self.str_ref().map(str::to_string)
    }

    /// [`str`](Self::str) without the copy: the string borrows the wire
    /// bytes.
    pub fn str_ref(&mut self) -> WireResult<&'a str> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError(format!(
                "string of {len} bytes exceeds remaining {}",
                self.remaining()
            )));
        }
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| WireError("invalid utf-8 in string".into()))
    }

    /// Read a `u64`-length-prefixed byte blob, bounded by the remaining
    /// bytes before allocation.
    pub fn bytes(&mut self) -> WireResult<Bytes> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(WireError(format!(
                "blob of {len} bytes exceeds remaining {}",
                self.remaining()
            )));
        }
        Ok(Bytes::copy_from_slice(self.take(len as usize)?))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Error unless every byte was consumed.
    pub fn finish(&self) -> WireResult<()> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes",
                self.data.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// dtype codes
// ---------------------------------------------------------------------

fn dtype_code(d: Dtype) -> u8 {
    Dtype::ALL
        .iter()
        .position(|&x| x == d)
        .expect("every dtype is in ALL") as u8
}

fn dtype_from_code(code: u8) -> WireResult<Dtype> {
    Dtype::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| WireError(format!("unknown dtype code {code}")))
}

// ---------------------------------------------------------------------
// options / stats
// ---------------------------------------------------------------------

/// Encode [`QueryOptions`].
pub fn encode_options(opts: &QueryOptions, out: &mut Vec<u8>) {
    put_u32(out, opts.workers as u32);
    out.push(opts.pruning as u8);
    out.push(opts.ann as u8);
    put_u32(out, opts.nprobe as u32);
}

/// Decode [`QueryOptions`].
pub fn decode_options(r: &mut WireReader<'_>) -> WireResult<QueryOptions> {
    Ok(QueryOptions {
        workers: r.u32()? as usize,
        pruning: r.u8()? != 0,
        ann: r.u8()? != 0,
        nprobe: r.u32()? as usize,
    })
}

/// Bytes [`encode_stats`] writes: eleven `u64` fields.
const STATS_BYTES: usize = 11 * 8;

/// Encode [`QueryStats`] (counters, then the stage-nanos fields, then
/// fields added since — see [`decode_stats`]).
pub fn encode_stats(stats: &QueryStats, out: &mut Vec<u8>) {
    for v in [
        stats.chunks_scanned,
        stats.chunks_pruned,
        stats.chunks_matched,
        stats.round_trips,
        stats.clusters_probed,
        stats.candidates_reranked,
        stats.prune_ns,
        stats.fetch_ns,
        stats.decode_ns,
        stats.rerank_ns,
        stats.rows_vectorized,
    ] {
        put_u64(out, v);
    }
}

/// Decode [`QueryStats`]. The stats close a result frame, so a field
/// added after the original ten is additive: a peer that predates it
/// ends the frame early and the field decodes as 0.
pub fn decode_stats(r: &mut WireReader<'_>) -> WireResult<QueryStats> {
    Ok(QueryStats {
        chunks_scanned: r.u64()?,
        chunks_pruned: r.u64()?,
        chunks_matched: r.u64()?,
        round_trips: r.u64()?,
        clusters_probed: r.u64()?,
        candidates_reranked: r.u64()?,
        prune_ns: r.u64()?,
        fetch_ns: r.u64()?,
        decode_ns: r.u64()?,
        rerank_ns: r.u64()?,
        rows_vectorized: if r.remaining() == 0 { 0 } else { r.u64()? },
    })
}

// ---------------------------------------------------------------------
// values
// ---------------------------------------------------------------------

const TAG_NUM: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_TENSOR: u8 = 3;
const TAG_NULL: u8 = 4;

/// Encode one projected [`Value`] (tensors travel as dtype + shape + raw
/// little-endian payload, exactly the layout [`Sample`] stores).
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Num(n) => {
            out.push(TAG_NUM);
            put_f64(out, *n);
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Tensor(t) => {
            out.push(TAG_TENSOR);
            out.push(dtype_code(t.dtype()));
            let dims = t.shape().dims();
            put_u32(out, dims.len() as u32);
            for &d in dims {
                put_u64(out, d);
            }
            put_bytes(out, t.bytes());
        }
        Value::Null => out.push(TAG_NULL),
    }
}

/// Decode one [`Value`]. A tensor whose dims and payload disagree is
/// rejected ([`Sample::from_bytes`] validates the element count).
pub fn decode_value(r: &mut WireReader<'_>) -> WireResult<Value> {
    match r.u8()? {
        TAG_NUM => Ok(Value::Num(r.f64()?)),
        TAG_BOOL => Ok(Value::Bool(r.u8()? != 0)),
        TAG_STR => Ok(Value::Str(r.str()?)),
        TAG_TENSOR => {
            let dtype = dtype_from_code(r.u8()?)?;
            let rank = r.u32()? as usize;
            if rank > MAX_WIRE_RANK {
                return Err(WireError(format!("tensor rank {rank} exceeds maximum")));
            }
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                dims.push(r.u64()?);
            }
            let data = r.bytes()?;
            let sample = Sample::from_bytes(dtype, Shape::from(dims), data)
                .map_err(|e| WireError(format!("tensor shape/payload mismatch: {e}")))?;
            Ok(Value::Tensor(sample))
        }
        TAG_NULL => Ok(Value::Null),
        other => Err(WireError(format!("unknown value tag {other}"))),
    }
}

// ---------------------------------------------------------------------
// results
// ---------------------------------------------------------------------

/// Encode a [`QueryResult`] for the wire. The `dataset` handle does not
/// travel — `AT VERSION` results carry [`QueryResult::version`] instead,
/// which a client resolves against its own remote-backed handle.
pub fn encode_result(result: &QueryResult, out: &mut Vec<u8>) {
    // one reservation for everything but the projected rows: a frame
    // without rows is built in place, and a cached one holds no slack
    let columns: usize = result.columns.iter().map(|c| 4 + c.len()).sum();
    let version = result.version.as_ref().map_or(0, |v| 4 + v.len());
    out.reserve(8 + 8 * result.indices.len() + 4 + columns + 2 + version + STATS_BYTES);
    put_u64(out, result.indices.len() as u64);
    put_u64s(out, &result.indices);
    put_u32(out, result.columns.len() as u32);
    for c in &result.columns {
        put_str(out, c);
    }
    match &result.rows {
        None => out.push(0),
        Some(rows) => {
            out.push(1);
            put_u64(out, rows.len() as u64);
            for row in rows {
                put_u32(out, row.len() as u32);
                for v in row {
                    encode_value(v, out);
                }
            }
        }
    }
    match &result.version {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_str(out, v);
        }
    }
    encode_stats(&result.stats, out);
}

/// Decode a [`QueryResult`] (with `dataset: None`; see
/// [`encode_result`]). Every count is bounded against the remaining
/// bytes before its vector is allocated.
pub fn decode_result(r: &mut WireReader<'_>) -> WireResult<QueryResult> {
    let n = r.u64()?;
    if n > r.remaining() as u64 / 8 {
        return Err(WireError(format!(
            "index count {n} exceeds remaining bytes"
        )));
    }
    let indices = r.u64s(n as usize)?;
    let cols = r.u32()? as usize;
    // each column costs at least its 4-byte length header
    if cols > r.remaining() / 4 {
        return Err(WireError(format!(
            "column count {cols} exceeds remaining bytes"
        )));
    }
    let mut columns = Vec::with_capacity(cols);
    for _ in 0..cols {
        columns.push(r.str()?);
    }
    let rows = match r.u8()? {
        0 => None,
        1 => {
            let count = r.u64()?;
            // a row costs at least its 4-byte value-count header
            if count > r.remaining() as u64 / 4 {
                return Err(WireError(format!(
                    "row count {count} exceeds remaining bytes"
                )));
            }
            let mut rows = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let values = r.u32()? as usize;
                if values > r.remaining() {
                    return Err(WireError(format!(
                        "value count {values} exceeds remaining bytes"
                    )));
                }
                let mut row = Vec::with_capacity(values);
                for _ in 0..values {
                    row.push(decode_value(r)?);
                }
                rows.push(row);
            }
            Some(rows)
        }
        other => return Err(WireError(format!("bad rows flag {other}"))),
    };
    let version = match r.u8()? {
        0 => None,
        1 => Some(r.str()?),
        other => return Err(WireError(format!("bad version flag {other}"))),
    };
    let stats = decode_stats(r)?;
    Ok(QueryResult {
        indices,
        columns,
        rows,
        dataset: None,
        version,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        let mut r = WireReader::new(&buf);
        let out = decode_value(&mut r).unwrap();
        r.finish().unwrap();
        out
    }

    #[test]
    fn values_roundtrip() {
        for v in [
            Value::Num(3.5),
            Value::Num(f64::NEG_INFINITY),
            Value::Bool(true),
            Value::Bool(false),
            Value::Str("hello Ω".into()),
            Value::Str(String::new()),
            Value::Null,
            Value::Tensor(Sample::scalar(7i32)),
            Value::Tensor(Sample::from_slice([2, 3], &[1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()),
            Value::Tensor(Sample::empty(Dtype::U8)),
        ] {
            assert_eq!(roundtrip_value(&v), v);
        }
        // NaN round-trips bitwise even though NaN != NaN
        let mut buf = Vec::new();
        encode_value(&Value::Num(f64::NAN), &mut buf);
        match decode_value(&mut WireReader::new(&buf)).unwrap() {
            Value::Num(n) => assert!(n.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn every_dtype_has_a_code() {
        for d in Dtype::ALL {
            assert_eq!(dtype_from_code(dtype_code(d)).unwrap(), d);
        }
        assert!(dtype_from_code(200).is_err());
    }

    #[test]
    fn options_and_stats_roundtrip() {
        let opts = QueryOptions {
            workers: 7,
            pruning: false,
            ann: true,
            nprobe: 12,
        };
        let mut buf = Vec::new();
        encode_options(&opts, &mut buf);
        let back = decode_options(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(back.workers, 7);
        assert!(!back.pruning);
        assert!(back.ann);
        assert_eq!(back.nprobe, 12);

        let stats = QueryStats {
            chunks_scanned: 1,
            chunks_pruned: 2,
            chunks_matched: 3,
            round_trips: 4,
            clusters_probed: 5,
            candidates_reranked: 6,
            prune_ns: 7,
            fetch_ns: 8,
            decode_ns: 9,
            rerank_ns: 10,
            rows_vectorized: 11,
        };
        let mut buf = Vec::new();
        encode_stats(&stats, &mut buf);
        assert_eq!(decode_stats(&mut WireReader::new(&buf)).unwrap(), stats);
    }

    #[test]
    fn frame_from_a_peer_without_rows_vectorized_decodes() {
        let result = sample_result();
        let mut buf = Vec::new();
        encode_result(&result, &mut buf);
        // what a hub built before the field sends: the same frame, ending
        // after `rerank_ns`
        buf.truncate(buf.len() - 8);
        let mut r = WireReader::new(&buf);
        let back = decode_result(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.indices, result.indices);
        assert_eq!(
            back.stats,
            QueryStats {
                rows_vectorized: 0,
                ..result.stats
            }
        );
    }

    fn sample_result() -> QueryResult {
        QueryResult {
            indices: vec![4, 1, 9],
            columns: vec!["a".into(), "crop".into()],
            rows: Some(vec![
                vec![Value::Num(1.0), Value::Tensor(Sample::scalar(3u8))],
                vec![Value::Str("x".into()), Value::Null],
                vec![
                    Value::Bool(true),
                    Value::Tensor(Sample::from_slice([3], &[1i64, 2, 3]).unwrap()),
                ],
            ]),
            dataset: None,
            version: Some("abc123".into()),
            stats: QueryStats {
                chunks_scanned: 2,
                chunks_pruned: 8,
                chunks_matched: 1,
                round_trips: 3,
                clusters_probed: 0,
                candidates_reranked: 0,
                prune_ns: 11,
                fetch_ns: 250_000,
                decode_ns: 90_000,
                rerank_ns: 0,
                rows_vectorized: 512,
            },
        }
    }

    #[test]
    fn results_roundtrip() {
        let result = sample_result();
        let mut buf = Vec::new();
        encode_result(&result, &mut buf);
        let mut r = WireReader::new(&buf);
        let back = decode_result(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.indices, result.indices);
        assert_eq!(back.columns, result.columns);
        assert_eq!(back.rows, result.rows);
        assert_eq!(back.version, result.version);
        assert_eq!(back.stats, result.stats);
        assert!(back.dataset.is_none());

        // lazy SELECT * form: no rows, no version
        let lazy = QueryResult {
            rows: None,
            version: None,
            ..sample_result()
        };
        let mut buf = Vec::new();
        encode_result(&lazy, &mut buf);
        let back = decode_result(&mut WireReader::new(&buf)).unwrap();
        assert!(back.rows.is_none());
        assert!(back.version.is_none());
    }

    #[test]
    fn truncated_and_corrupt_input_errors_cleanly() {
        // every truncation point of an answer with rows, and of a 2,000-id
        // one, errors, never panics — but for the one that drops exactly
        // the additive trailing stats field, which is a well-formed older
        // frame
        for result in [sample_result(), scan_result(scan_ids())] {
            let mut buf = Vec::new();
            encode_result(&result, &mut buf);
            for cut in (0..buf.len()).filter(|&cut| cut != buf.len() - 8) {
                assert!(
                    decode_result(&mut WireReader::new(&buf[..cut])).is_err(),
                    "cut at {cut} of {} must error",
                    buf.len()
                );
            }
        }
        // a lying index count must not allocate gigabytes, and one id
        // more than the bytes present is refused by the bound, before the
        // vector is allocated
        let mut lying = Vec::new();
        put_u64(&mut lying, u64::MAX);
        assert!(decode_result(&mut WireReader::new(&lying)).is_err());
        let mut one_more = Vec::new();
        encode_result(&scan_result(vec![7; 16]), &mut one_more);
        let fits = (one_more.len() - 8) as u64 / 8;
        one_more[..8].copy_from_slice(&(fits + 1).to_le_bytes());
        let err = decode_result(&mut WireReader::new(&one_more)).unwrap_err();
        assert!(err.0.contains("exceeds remaining bytes"), "{err}");
        // the reader's array read checks its byte length before taking it
        let mut r = WireReader::new(&[0u8; 24]);
        assert!(r.u64s(usize::MAX / 4).is_err());
        assert!(r.u64s(4).is_err());
        assert_eq!(r.u64s(3).unwrap(), [0, 0, 0]);
        // unknown value tag
        assert!(decode_value(&mut WireReader::new(&[99])).is_err());
        // tensor whose payload disagrees with its dims
        let mut bad = vec![TAG_TENSOR, dtype_code(Dtype::F64)];
        put_u32(&mut bad, 1);
        put_u64(&mut bad, 10); // claims 10 elements = 80 bytes
        put_bytes(&mut bad, &[0u8; 8]); // only one element present
        assert!(decode_value(&mut WireReader::new(&bad)).is_err());
        // oversized rank
        let mut deep = vec![TAG_TENSOR, dtype_code(Dtype::U8)];
        put_u32(&mut deep, (MAX_WIRE_RANK + 1) as u32);
        assert!(decode_value(&mut WireReader::new(&deep)).is_err());
        // invalid utf-8 in a string value
        let mut bad_str = vec![TAG_STR];
        put_u32(&mut bad_str, 2);
        bad_str.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_value(&mut WireReader::new(&bad_str)).is_err());
    }

    /// A score scan's answer: 2,000 row ids in score order (not sorted),
    /// with the two extremes of the id range among them.
    fn scan_result(ids: Vec<u64>) -> QueryResult {
        QueryResult {
            indices: ids,
            columns: Vec::new(),
            rows: None,
            dataset: None,
            version: None,
            stats: QueryStats {
                chunks_scanned: 4,
                rows_vectorized: 2_000,
                ..QueryStats::default()
            },
        }
    }

    fn scan_ids() -> Vec<u64> {
        let mut ids: Vec<u64> = (0..2_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 48))
            .collect();
        ids[0] = 0;
        ids[1] = u64::MAX;
        ids
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The encoding of a 2,000-id answer is pinned to the bytes the
    /// word-at-a-time encoder wrote: the head and the extremes spelled
    /// out, the whole frame by its FNV-1a digest.
    #[test]
    fn a_two_thousand_id_answer_encodes_to_the_golden_bytes() {
        let result = scan_result(scan_ids());
        let mut buf = Vec::new();
        encode_result(&result, &mut buf);
        assert_eq!(buf.len(), 8 + 2_000 * 8 + 4 + 1 + 1 + 11 * 8);
        assert_eq!(buf.capacity(), buf.len(), "one reservation, no slack");
        assert_eq!(buf[..8], 2_000u64.to_le_bytes());
        assert_eq!(buf[8..16], [0; 8]);
        assert_eq!(buf[16..24], [0xff; 8]);
        assert_eq!(
            buf[24..32],
            (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2) >> 2).to_le_bytes()
        );
        assert_eq!(fnv1a(&buf), GOLDEN_SCAN_FNV);
        let back = decode_result(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(back.indices, result.indices);
        assert_eq!(back.stats, result.stats);
    }

    /// The digest of the frame the word-at-a-time encoder wrote.
    const GOLDEN_SCAN_FNV: u64 = 0x56af_3cbc_c38c_b72b;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Any ids in any order — `0` and `u64::MAX` are drawn often —
        /// come back as they went, and every byte is consumed.
        #[test]
        fn row_ids_roundtrip_in_any_order(
            ids in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..4_096),
        ) {
            let result = scan_result(ids);
            let mut buf = Vec::new();
            encode_result(&result, &mut buf);
            proptest::prop_assert_eq!(buf.len(), 8 + result.indices.len() * 8 + 94);
            let mut r = WireReader::new(&buf);
            let back = decode_result(&mut r).unwrap();
            r.finish().unwrap();
            proptest::prop_assert_eq!(back.indices, result.indices);
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut buf = Vec::new();
        encode_value(&Value::Null, &mut buf);
        buf.push(0);
        let mut r = WireReader::new(&buf);
        decode_value(&mut r).unwrap();
        assert!(r.finish().is_err());
    }
}
