//! Chunk binary layout.
//!
//! A chunk is the unit of storage I/O: one object-store blob holding a
//! contiguous run of samples from one tensor. Per §3.4 a chunk carries
//! "header information such as byte ranges, shapes of the samples, and the
//! sample data itself" — the header is what lets the streaming layer issue
//! *range* requests for single samples out of an 8 MB chunk without
//! fetching the rest (§3.5).
//!
//! Binary layout (all integers little-endian):
//!
//! ```text
//! [magic "DLCH"][version u8][payload_codec u8][dtype u8][n u32]
//! n × sample directory entry:
//!     [stored_len u32][rank u8][dim u32 × rank]
//! [payload: stored sample blobs back to back]
//! ```
//!
//! `payload_codec` is the chunk-level compression applied to the payload
//! region as a whole (LZ4 for labels in the paper's §5 example); sample
//! level compression is applied *before* a blob enters the chunk, so
//! pre-compressed images are copied in verbatim.

use std::ops::Range;

use bytes::BytesMut;
use deeplake_codec::{Compression, Frame};
use deeplake_tensor::sample::read_f64;
use deeplake_tensor::{Dtype, Sample, Shape};

use crate::consts::{CHUNK_MAGIC, CHUNK_VERSION};
use crate::error::FormatError;
use crate::Result;

/// Directory entry for one sample inside a chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRecord {
    /// Stored (possibly sample-compressed) byte length.
    pub stored_len: u32,
    /// Logical shape of the decoded sample.
    pub shape: Shape,
}

/// An in-memory chunk: directory + payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    dtype: Dtype,
    records: Vec<SampleRecord>,
    /// Cumulative start offset of each record's blob in `payload`
    /// (`offsets[i]..offsets[i] + records[i].stored_len`). Maintained
    /// incrementally so per-sample access is O(1).
    offsets: Vec<u32>,
    payload: Vec<u8>,
}

impl Chunk {
    /// New empty chunk for samples of `dtype`.
    pub fn new(dtype: Dtype) -> Self {
        Chunk {
            dtype,
            records: Vec::new(),
            offsets: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Element dtype of all samples in the chunk.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Number of samples.
    pub fn sample_count(&self) -> usize {
        self.records.len()
    }

    /// Uncompressed payload size in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Sample directory.
    pub fn records(&self) -> &[SampleRecord] {
        &self.records
    }

    /// Append a stored blob (already sample-compressed if applicable) with
    /// its logical shape.
    pub fn append_blob(&mut self, blob: &[u8], shape: Shape) {
        self.offsets.push(self.payload.len() as u32);
        self.records.push(SampleRecord {
            stored_len: blob.len() as u32,
            shape,
        });
        self.payload.extend_from_slice(blob);
    }

    /// Append a raw (uncompressed) sample, applying `sample_compression`.
    pub fn append_sample(
        &mut self,
        sample: &Sample,
        sample_compression: Compression,
    ) -> Result<()> {
        // the frame is encoded straight onto the end of the payload
        let start = self.payload.len();
        encode_sample_into(sample, sample_compression, &mut self.payload)?;
        self.offsets.push(start as u32);
        self.records.push(SampleRecord {
            stored_len: (self.payload.len() - start) as u32,
            shape: sample.shape().clone(),
        });
        Ok(())
    }

    /// Byte range `(start, end)` of sample `i`'s stored blob within the
    /// payload region.
    pub fn blob_range(&self, i: usize) -> Result<(usize, usize)> {
        if i >= self.records.len() {
            return Err(FormatError::SampleOutOfRange {
                index: i as u64,
                len: self.records.len() as u64,
            });
        }
        let start = self.offsets[i] as usize;
        Ok((start, start + self.records[i].stored_len as usize))
    }

    /// Borrow sample `i`'s stored blob.
    pub fn blob(&self, i: usize) -> Result<&[u8]> {
        let (s, e) = self.blob_range(i)?;
        Ok(&self.payload[s..e])
    }

    /// Decode sample `i` back into a [`Sample`].
    pub fn sample(&self, i: usize) -> Result<Sample> {
        let blob = self.blob(i)?;
        let shape = self.records[i].shape.clone();
        decode_sample(blob, self.dtype, shape)
    }

    /// The chunk as a column of scalars: `Some` only when every record
    /// is an uncompressed one-element blob. Eligibility is checked here,
    /// per call — parsing a chunk costs nothing extra for readers that
    /// never ask.
    pub fn scalar_column(&self) -> Option<ColumnView<'_>> {
        self.column(1, |shape| shape.num_elements() == 1)
    }

    /// The chunk as a column of rank-1 vectors of exactly `dim`
    /// elements: `Some` only when every record is an uncompressed blob
    /// of shape `[dim]`.
    pub fn vector_column(&self, dim: usize) -> Option<ColumnView<'_>> {
        if dim == 0 {
            return None;
        }
        self.column(dim, |shape| shape.dims() == [dim as u64])
    }

    /// A fixed-width view, when every record is one uncompressed frame
    /// of `width` elements whose directory shape passes `shape_ok`. The
    /// payload length is checked against the record count up front, so a
    /// view can never index past the bytes it borrows, whatever the
    /// directory claims.
    fn column(&self, width: usize, shape_ok: impl Fn(&Shape) -> bool) -> Option<ColumnView<'_>> {
        let stride = width.checked_mul(self.dtype.size())?.checked_add(1)?;
        if self.records.len().checked_mul(stride)? != self.payload.len() {
            return None;
        }
        let uniform = self
            .records
            .iter()
            .zip(self.payload.chunks_exact(stride))
            .all(|(r, blob)| {
                r.stored_len as usize == stride
                    && shape_ok(&r.shape)
                    && Compression::raw_body(blob).is_some()
            });
        uniform.then_some(ColumnView {
            dtype: self.dtype,
            stride,
            payload: &self.payload,
        })
    }

    /// Serialize the chunk, compressing the payload with `chunk_codec`.
    pub fn serialize(&self, chunk_codec: Compression) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + self.records.len() * 8 + 16);
        out.extend_from_slice(&CHUNK_MAGIC);
        out.push(CHUNK_VERSION);
        out.push(codec_tag(chunk_codec));
        out.push(dtype_tag(self.dtype));
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.stored_len.to_le_bytes());
            out.push(r.shape.rank() as u8);
            for &d in r.shape.dims() {
                out.extend_from_slice(&(d as u32).to_le_bytes());
            }
        }
        match chunk_codec {
            Compression::None => out.extend_from_slice(&self.payload),
            codec => codec.compress_into(&self.payload, &mut out),
        }
        out
    }

    /// Deserialize a chunk blob (inverse of [`Chunk::serialize`]).
    pub fn deserialize(data: &[u8]) -> Result<Chunk> {
        let (header, header_len) = ChunkHeader::parse(data)?;
        let body = &data[header_len..];
        let payload = match header.payload_codec {
            Compression::None => body.to_vec(),
            _ => Compression::decompress(body)?,
        };
        let expected: usize = header.records.iter().map(|r| r.stored_len as usize).sum();
        if payload.len() != expected {
            return Err(FormatError::Corrupt(format!(
                "payload length {} != directory total {expected}",
                payload.len()
            )));
        }
        let mut offsets = Vec::with_capacity(header.records.len());
        let mut acc = 0u32;
        for r in &header.records {
            offsets.push(acc);
            acc += r.stored_len;
        }
        Ok(Chunk {
            dtype: header.dtype,
            records: header.records,
            offsets,
            payload,
        })
    }

    /// Parse only the header of a serialized chunk. Enables sub-chunk
    /// range reads: callers fetch the first `max_header_len` bytes, parse
    /// the directory, then range-request a single sample's blob. Only valid
    /// when the payload codec is `None` (compressed payloads must be read
    /// whole).
    pub fn parse_header(data: &[u8]) -> Result<(ChunkHeader, usize)> {
        ChunkHeader::parse(data)
    }
}

/// A chunk borrowed as a fixed-width column (see
/// [`Chunk::scalar_column`] / [`Chunk::vector_column`]): every row is
/// one uncompressed frame of the same element count, so row `i` sits at
/// a computed offset and decodes without touching the sample directory
/// or allocating a [`Sample`].
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    dtype: Dtype,
    /// Bytes per row: the frame byte plus the elements.
    stride: usize,
    payload: &'a [u8],
}

impl ColumnView<'_> {
    /// Rows in the column.
    pub fn len(&self) -> usize {
        self.payload.len() / self.stride
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Append the elements of rows `rows`, in order, to `out` as `f64`
    /// (one per row for a scalar column, `dim` per row for a vector
    /// column) through the conversion [`Sample::get_f64`] uses. Panics
    /// if `rows` reaches past [`len`](Self::len).
    pub fn decode_rows(&self, rows: Range<usize>, out: &mut Vec<f64>) {
        let stride = self.stride;
        let records = &self.payload[rows.start * stride..rows.end * stride];
        // one monomorphic loop per dtype: the conversion's dtype match
        // folds away inside each arm
        macro_rules! typed {
            ($($d:ident),*) => {
                match self.dtype {
                    $(Dtype::$d => decode_records(records, stride, Dtype::$d.size(), out, |raw| {
                        read_f64(Dtype::$d, raw)
                    }),)*
                }
            };
        }
        typed!(U8, I8, U16, I16, U32, I32, U64, I64, F32, F64, Bool);
    }
}

#[inline(always)]
fn decode_records(
    records: &[u8],
    stride: usize,
    size: usize,
    out: &mut Vec<f64>,
    read: impl Fn(&[u8]) -> f64,
) {
    if stride == 1 + size {
        out.extend(records.chunks_exact(stride).map(|rec| read(&rec[1..])));
    } else {
        for rec in records.chunks_exact(stride) {
            out.extend(rec[1..].chunks_exact(size).map(&read));
        }
    }
}

/// Parsed chunk header: directory without payload.
#[derive(Debug, Clone)]
pub struct ChunkHeader {
    /// Chunk-level codec of the payload region.
    pub payload_codec: Compression,
    /// Element dtype.
    pub dtype: Dtype,
    /// Sample directory.
    pub records: Vec<SampleRecord>,
}

impl ChunkHeader {
    /// Byte offset of sample `i`'s blob relative to the payload start, plus
    /// its length. Valid for uncompressed payloads.
    pub fn payload_range(&self, i: usize) -> Result<(u64, u64)> {
        if i >= self.records.len() {
            return Err(FormatError::SampleOutOfRange {
                index: i as u64,
                len: self.records.len() as u64,
            });
        }
        let start: u64 = self.records[..i].iter().map(|r| r.stored_len as u64).sum();
        Ok((start, start + self.records[i].stored_len as u64))
    }

    fn parse(data: &[u8]) -> Result<(ChunkHeader, usize)> {
        if data.len() < 11 || data[..4] != CHUNK_MAGIC {
            return Err(FormatError::Corrupt("bad chunk magic".into()));
        }
        if data[4] != CHUNK_VERSION {
            return Err(FormatError::Corrupt(format!(
                "unsupported chunk version {}",
                data[4]
            )));
        }
        let payload_codec = codec_from_tag(data[5])?;
        let dtype = dtype_from_tag(data[6])?;
        let n = u32::from_le_bytes(data[7..11].try_into().unwrap()) as usize;
        let mut pos = 11usize;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            if pos + 5 > data.len() {
                return Err(FormatError::Corrupt("truncated sample directory".into()));
            }
            let stored_len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
            let rank = data[pos + 4] as usize;
            pos += 5;
            if pos + rank * 4 > data.len() {
                return Err(FormatError::Corrupt("truncated shape".into()));
            }
            let mut dims = Vec::with_capacity(rank);
            for r in 0..rank {
                dims.push(
                    u32::from_le_bytes(data[pos + r * 4..pos + r * 4 + 4].try_into().unwrap())
                        as u64,
                );
            }
            pos += rank * 4;
            records.push(SampleRecord {
                stored_len,
                shape: Shape(dims),
            });
        }
        Ok((
            ChunkHeader {
                payload_codec,
                dtype,
                records,
            },
            pos,
        ))
    }
}

/// Encode one sample into its stored blob under `compression`.
///
/// Blobs are always framed (self-describing magic byte), so `None` costs
/// one byte of overhead per sample in exchange for unambiguous decoding —
/// which is what allows pre-compressed blobs to be copied into chunks
/// verbatim and still decode correctly.
pub fn encode_sample(sample: &Sample, compression: Compression) -> Result<Vec<u8>> {
    let mut blob = Vec::new();
    encode_sample_into(sample, compression, &mut blob)?;
    Ok(blob)
}

/// [`encode_sample`], appending the blob to `out`. Nothing is appended on
/// error.
pub fn encode_sample_into(
    sample: &Sample,
    compression: Compression,
    out: &mut Vec<u8>,
) -> Result<()> {
    let shape = sample.shape();
    match compression {
        // image codecs need geometry; require h×w×c u8
        Compression::SynthImg { .. } if sample.dtype() == Dtype::U8 && shape.rank() == 3 => {
            compression.compress_image_into(
                sample.bytes(),
                shape.dim(0) as u32,
                shape.dim(1) as u32,
                shape.dim(2) as u32,
                out,
            )?
        }
        codec => codec.compress_into(sample.bytes(), out),
    }
    Ok(())
}

/// Decode a stored blob back into a sample of known dtype/shape. The
/// frame decodes into the one buffer that becomes the sample's bytes.
pub fn decode_sample(blob: &[u8], dtype: Dtype, shape: Shape) -> Result<Sample> {
    let frame = Frame::parse(blob)?;
    let mut raw = BytesMut::zeroed(frame.decoded_len());
    frame.decode_into(&mut raw)?;
    Ok(Sample::from_bytes(dtype, shape, raw.freeze())?)
}

fn dtype_tag(d: Dtype) -> u8 {
    match d {
        Dtype::U8 => 0,
        Dtype::I8 => 1,
        Dtype::U16 => 2,
        Dtype::I16 => 3,
        Dtype::U32 => 4,
        Dtype::I32 => 5,
        Dtype::U64 => 6,
        Dtype::I64 => 7,
        Dtype::F32 => 8,
        Dtype::F64 => 9,
        Dtype::Bool => 10,
    }
}

fn dtype_from_tag(t: u8) -> Result<Dtype> {
    Ok(match t {
        0 => Dtype::U8,
        1 => Dtype::I8,
        2 => Dtype::U16,
        3 => Dtype::I16,
        4 => Dtype::U32,
        5 => Dtype::I32,
        6 => Dtype::U64,
        7 => Dtype::I64,
        8 => Dtype::F32,
        9 => Dtype::F64,
        10 => Dtype::Bool,
        other => return Err(FormatError::Corrupt(format!("bad dtype tag {other}"))),
    })
}

fn codec_tag(c: Compression) -> u8 {
    match c {
        Compression::None => 0,
        Compression::Lz4 => 1,
        Compression::Rle => 2,
        Compression::SynthImg { bits } => 0x80 | bits,
    }
}

fn codec_from_tag(t: u8) -> Result<Compression> {
    Ok(match t {
        0 => Compression::None,
        1 => Compression::Lz4,
        2 => Compression::Rle,
        t if t & 0x80 != 0 => Compression::SynthImg { bits: t & 0x7f },
        other => return Err(FormatError::Corrupt(format!("bad codec tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_u8(shape: impl Into<Shape>, fill: u8) -> Sample {
        let shape = shape.into();
        let n = shape.num_elements() as usize;
        Sample::from_slice(shape, &vec![fill; n]).unwrap()
    }

    #[test]
    fn append_and_read_back() {
        let mut c = Chunk::new(Dtype::U8);
        c.append_sample(&sample_u8([2, 3], 7), Compression::None)
            .unwrap();
        c.append_sample(&sample_u8([4], 9), Compression::None)
            .unwrap();
        assert_eq!(c.sample_count(), 2);
        assert_eq!(c.sample(0).unwrap(), sample_u8([2, 3], 7));
        assert_eq!(c.sample(1).unwrap(), sample_u8([4], 9));
        assert!(c.sample(2).is_err());
    }

    #[test]
    fn serialize_roundtrip_uncompressed() {
        let mut c = Chunk::new(Dtype::F32);
        c.append_sample(
            &Sample::from_slice([3], &[1.0f32, 2.0, 3.0]).unwrap(),
            Compression::None,
        )
        .unwrap();
        c.append_sample(&Sample::scalar(9.0f32), Compression::None)
            .unwrap();
        let blob = c.serialize(Compression::None);
        let back = Chunk::deserialize(&blob).unwrap();
        assert_eq!(back.sample_count(), 2);
        assert_eq!(
            back.sample(0).unwrap().to_vec::<f32>().unwrap(),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!(back.sample(1).unwrap().get_f64(0).unwrap(), 9.0);
    }

    #[test]
    fn serialize_roundtrip_lz4_chunk_compression() {
        let mut c = Chunk::new(Dtype::I32);
        for i in 0..1000 {
            c.append_sample(&Sample::scalar(i % 10), Compression::None)
                .unwrap();
        }
        let blob = c.serialize(Compression::Lz4);
        let raw = c.serialize(Compression::None);
        // the 5000-byte payload shrinks to almost nothing; the sample
        // directory (9 bytes/sample) is unaffected by chunk compression
        assert!(
            raw.len() - blob.len() > c.payload_len() * 8 / 10,
            "lz4 chunk should shrink labels: raw={} compressed={}",
            raw.len(),
            blob.len()
        );
        let back = Chunk::deserialize(&blob).unwrap();
        assert_eq!(back.sample_count(), 1000);
        assert_eq!(back.sample(123).unwrap().get_f64(0).unwrap(), 3.0);
    }

    #[test]
    fn sample_compression_lz4_roundtrip() {
        let mut c = Chunk::new(Dtype::U8);
        let s = sample_u8([100, 100], 5);
        c.append_sample(&s, Compression::Lz4).unwrap();
        // stored blob is much smaller than raw
        assert!(c.payload_len() < s.nbytes() / 10);
        assert_eq!(c.sample(0).unwrap(), s);
    }

    #[test]
    fn image_sample_compression_roundtrip_shape() {
        let mut c = Chunk::new(Dtype::U8);
        let img = sample_u8([32, 32, 3], 100);
        c.append_sample(&img, Compression::JPEG_LIKE).unwrap();
        let back = c.sample(0).unwrap();
        assert_eq!(back.shape(), img.shape());
        assert_eq!(back.dtype(), Dtype::U8);
        // lossy: values within quantization error
        let err = deeplake_codec::synthimg::max_error(deeplake_codec::synthimg::Quality::MEDIUM);
        for (a, b) in img
            .to_vec::<u8>()
            .unwrap()
            .iter()
            .zip(back.to_vec::<u8>().unwrap())
        {
            assert!(a.abs_diff(b) <= err);
        }
    }

    #[test]
    fn append_sample_writes_the_blob_encode_sample_returns() {
        let img = sample_u8([8, 8, 3], 100);
        let label = Sample::scalar(7i32);
        for (sample, codec) in [
            (&img, Compression::JPEG_LIKE),
            (&img, Compression::Lz4),
            (&label, Compression::JPEG_LIKE), // not an image: LZ4 frame
            (&label, Compression::None),
        ] {
            // twice, so the second frame lands behind a non-empty payload
            let (mut direct, mut copied) = (Chunk::new(sample.dtype()), Chunk::new(sample.dtype()));
            for _ in 0..2 {
                direct.append_sample(sample, codec).unwrap();
                let blob = encode_sample(sample, codec).unwrap();
                copied.append_blob(&blob, sample.shape().clone());
            }
            assert_eq!(direct, copied);
            assert_eq!(direct.sample(1).unwrap().shape(), sample.shape());
        }
        // a refused sample leaves the chunk as it was
        let mut c = Chunk::new(Dtype::U8);
        c.append_sample(&img, Compression::JPEG_LIKE).unwrap();
        let before = c.clone();
        assert!(c
            .append_sample(&img, Compression::SynthImg { bits: 0 })
            .is_err());
        assert_eq!(c, before);
    }

    #[test]
    fn decode_sample_refuses_hostile_lengths() {
        // an LZ4 frame of one empty block claiming 2^45 bytes
        let blob = [0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00];
        assert!(decode_sample(&blob, Dtype::U8, Shape::from([1u64 << 45])).is_err());
    }

    #[test]
    fn header_only_parse_gives_ranges() {
        let mut c = Chunk::new(Dtype::U8);
        c.append_sample(&sample_u8([10], 1), Compression::None)
            .unwrap();
        c.append_sample(&sample_u8([20], 2), Compression::None)
            .unwrap();
        c.append_sample(&sample_u8([5], 3), Compression::None)
            .unwrap();
        let blob = c.serialize(Compression::None);
        let (header, header_len) = Chunk::parse_header(&blob).unwrap();
        assert_eq!(header.records.len(), 3);
        let (s, e) = header.payload_range(1).unwrap();
        // stored blobs are framed with 1 magic byte of overhead
        assert_eq!((s, e), (11, 32));
        // range-read just sample 1's blob out of the serialized chunk and decode it
        let sub = &blob[header_len + s as usize..header_len + e as usize];
        let decoded = decode_sample(sub, Dtype::U8, Shape::from([20])).unwrap();
        assert_eq!(decoded.to_vec::<u8>().unwrap(), vec![2u8; 20]);
        assert!(header.payload_range(3).is_err());
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(Chunk::deserialize(b"nope").is_err());
        let mut c = Chunk::new(Dtype::U8);
        c.append_sample(&sample_u8([4], 1), Compression::None)
            .unwrap();
        let mut blob = c.serialize(Compression::None);
        blob.truncate(blob.len() - 2);
        assert!(Chunk::deserialize(&blob).is_err());
        blob[0] = b'X';
        assert!(Chunk::deserialize(&blob).is_err());
    }

    #[test]
    fn ragged_shapes_roundtrip() {
        let mut c = Chunk::new(Dtype::U8);
        let shapes: Vec<Shape> = vec![
            Shape::from([600, 800, 3]).union_min(&Shape::from([6, 8, 3])), // [6,8,3]
            Shape::from([3, 5, 3]),
            Shape::from([10]),
            Shape::scalar(),
        ];
        for (i, sh) in shapes.iter().enumerate() {
            c.append_sample(&sample_u8(sh.clone(), i as u8), Compression::None)
                .unwrap();
        }
        let blob = c.serialize(Compression::None);
        let back = Chunk::deserialize(&blob).unwrap();
        for (i, sh) in shapes.iter().enumerate() {
            assert_eq!(back.sample(i).unwrap().shape(), sh);
        }
    }

    #[test]
    fn precompressed_blob_copied_verbatim() {
        // §5: matching compression -> binary copied without decode
        let img = sample_u8([16, 16, 3], 50);
        let blob = Compression::JPEG_LIKE
            .compress_image(img.bytes(), 16, 16, 3)
            .unwrap();
        let mut c = Chunk::new(Dtype::U8);
        c.append_blob(&blob, img.shape().clone());
        assert_eq!(c.blob(0).unwrap(), &blob[..]);
        let decoded = c.sample(0).unwrap();
        assert_eq!(decoded.shape(), img.shape());
    }

    /// One value of `dtype` near `v` (NaN and signed zeros survive for
    /// floats; integers take the truncated value).
    fn scalar_of(dtype: Dtype, v: f64) -> Sample {
        deeplake_tensor::sample::from_f64_values(dtype, Shape::scalar(), &[v])
    }

    #[test]
    fn scalar_column_decodes_every_dtype_like_get_f64() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
            200.0,
            -70000.0,
            f64::NAN,
            f64::INFINITY,
        ];
        for dtype in Dtype::ALL {
            let mut c = Chunk::new(dtype);
            for &v in &values {
                c.append_sample(&scalar_of(dtype, v), Compression::None)
                    .unwrap();
            }
            // a round trip through bytes must not change eligibility
            for chunk in [
                c.clone(),
                Chunk::deserialize(&c.serialize(Compression::Lz4)).unwrap(),
            ] {
                let col = chunk.scalar_column().expect("all-scalar chunk");
                assert_eq!(col.len(), values.len());
                let mut got = Vec::new();
                col.decode_rows(0..col.len(), &mut got);
                let want: Vec<f64> = (0..values.len())
                    .map(|i| chunk.sample(i).unwrap().get_f64(0).unwrap())
                    .collect();
                // bit-for-bit: NaN payloads and the sign of zero included
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{dtype}"
                );
                // a sub-range appends after what the buffer already holds
                let mut tail = vec![7.0];
                col.decode_rows(2..4, &mut tail);
                assert_eq!(tail[1..], want[2..4], "{dtype}");
                assert!(chunk.vector_column(1).is_none(), "rank 0 is not a vector");
            }
        }
    }

    #[test]
    fn one_element_shapes_of_any_rank_are_scalars() {
        let mut c = Chunk::new(Dtype::I32);
        c.append_sample(&Sample::scalar(4i32), Compression::None)
            .unwrap();
        c.append_sample(
            &Sample::from_slice([1], &[5i32]).unwrap(),
            Compression::None,
        )
        .unwrap();
        c.append_sample(
            &Sample::from_slice([1, 1], &[6i32]).unwrap(),
            Compression::None,
        )
        .unwrap();
        let mut got = Vec::new();
        c.scalar_column().unwrap().decode_rows(0..3, &mut got);
        assert_eq!(got, [4.0, 5.0, 6.0]);
    }

    #[test]
    fn scalar_column_refuses_anything_but_uncompressed_scalars() {
        let scalars = |n: usize| {
            let mut c = Chunk::new(Dtype::F32);
            for i in 0..n {
                c.append_sample(&Sample::scalar(i as f32), Compression::None)
                    .unwrap();
            }
            c
        };
        assert!(scalars(4).scalar_column().is_some());
        assert!(scalars(0).scalar_column().is_some_and(|c| c.is_empty()));

        // one sample-compressed record
        let mut c = scalars(3);
        c.append_sample(&Sample::scalar(9f32), Compression::Lz4)
            .unwrap();
        assert!(c.scalar_column().is_none());
        // every record sample-compressed, all of one stored length
        let mut c = Chunk::new(Dtype::F32);
        for i in 0..4 {
            c.append_sample(&Sample::scalar(i as f32), Compression::Lz4)
                .unwrap();
        }
        assert!(c.scalar_column().is_none());
        // one multi-element sample
        let mut c = scalars(3);
        c.append_sample(
            &Sample::from_slice([2], &[1f32, 2.0]).unwrap(),
            Compression::None,
        )
        .unwrap();
        assert!(c.scalar_column().is_none());
        // one empty marker
        let mut c = scalars(3);
        c.append_sample(&Sample::empty(Dtype::F32), Compression::None)
            .unwrap();
        assert!(c.scalar_column().is_none());
        // a foreign blob that happens to have a scalar's stored length
        let mut c = scalars(3);
        c.append_blob(&[0x01, 4, 0, 0, 0], Shape::scalar());
        assert!(c.scalar_column().is_none());
    }

    #[test]
    fn vector_column_refuses_anything_but_uniform_rank_one() {
        let vectors = |lens: &[usize]| {
            let mut c = Chunk::new(Dtype::F32);
            for (i, &n) in lens.iter().enumerate() {
                c.append_sample(
                    &Sample::from_slice([n as u64], &vec![i as f32; n]).unwrap(),
                    Compression::None,
                )
                .unwrap();
            }
            c
        };
        let c = vectors(&[3, 3, 3]);
        let col = c.vector_column(3).expect("uniform vectors");
        assert_eq!(col.len(), 3);
        let mut got = Vec::new();
        col.decode_rows(1..3, &mut got);
        assert_eq!(got, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        // not the length asked for, zero length, scalars asked of vectors
        assert!(c.vector_column(2).is_none());
        assert!(c.vector_column(0).is_none());
        assert!(c.vector_column(usize::MAX).is_none(), "stride overflow");
        assert!(c.scalar_column().is_none());
        // one wrong-length vector, one empty marker
        assert!(vectors(&[3, 3, 2]).vector_column(3).is_none());
        assert!(vectors(&[3, 0, 3]).vector_column(3).is_none());
        // right element count, wrong rank
        let mut c = vectors(&[3]);
        c.append_sample(
            &Sample::from_slice([1, 3], &[0f32; 3]).unwrap(),
            Compression::None,
        )
        .unwrap();
        assert!(c.vector_column(3).is_none());
        // sample-compressed
        let mut c = vectors(&[3]);
        c.append_sample(
            &Sample::from_slice([3], &[0f32; 3]).unwrap(),
            Compression::Lz4,
        )
        .unwrap();
        assert!(c.vector_column(3).is_none());
    }

    /// Serialized F32 chunk with a hand-written directory: `records` are
    /// `(stored_len, dims)`, `payload` whatever follows.
    fn forged(records: &[(u32, &[u32])], payload: &[u8]) -> Vec<u8> {
        let mut out = CHUNK_MAGIC.to_vec();
        out.extend_from_slice(&[CHUNK_VERSION, 0, dtype_tag(Dtype::F32)]);
        out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for (stored_len, dims) in records {
            out.extend_from_slice(&stored_len.to_le_bytes());
            out.push(dims.len() as u8);
            for d in *dims {
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn views_never_trust_a_lying_directory() {
        // directory claims scalars but the blobs are two elements long:
        // row reads fail on the length, views refuse
        let c = Chunk::deserialize(&forged(&[(9, &[]), (9, &[])], &[0u8; 18])).unwrap();
        assert!(c.sample(0).is_err());
        assert!(c.scalar_column().is_none());
        assert!(c.vector_column(2).is_none());
        // directory claims 2-vectors over scalar-sized blobs
        let c = Chunk::deserialize(&forged(&[(5, &[2]), (5, &[2])], &[0u8; 10])).unwrap();
        assert!(c.sample(0).is_err());
        assert!(c.scalar_column().is_none());
        assert!(c.vector_column(2).is_none());
        // stored lengths that disagree with each other but sum to n × stride
        let c = Chunk::deserialize(&forged(&[(4, &[]), (6, &[])], &[0u8; 10])).unwrap();
        assert!(c.scalar_column().is_none());
        // a huge claimed dimension cannot overflow the stride arithmetic
        let c = Chunk::deserialize(&forged(&[(5, &[u32::MAX])], &[0u8; 5])).unwrap();
        assert!(c.vector_column(u32::MAX as usize).is_none());
        // a payload shorter than the directory total never becomes a chunk
        assert!(Chunk::deserialize(&forged(&[(5, &[]), (5, &[])], &[0u8; 9])).is_err());
        // and an honest one of the same shape does
        let c = Chunk::deserialize(&forged(&[(5, &[]), (5, &[])], &[0u8; 10])).unwrap();
        assert_eq!(c.scalar_column().unwrap().len(), 2);
    }

    #[test]
    fn empty_chunk_roundtrip() {
        let c = Chunk::new(Dtype::U8);
        let blob = c.serialize(Compression::None);
        let back = Chunk::deserialize(&blob).unwrap();
        assert_eq!(back.sample_count(), 0);
    }
}
