//! Unit tests of the chunk layout: behaviour, then the parser against
//! the previous one (`reference`), then hostile blobs.

use super::*;
use proptest::prelude::*;

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
            copied.append_blob(&blob, sample.shape());
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
fn directory_gives_ranges_shapes_and_lengths() {
    let mut c = Chunk::new(Dtype::U8);
    for (n, fill) in [(10, 1), (20, 2), (5, 3)] {
        c.append_sample(&sample_u8([n], fill), Compression::None)
            .unwrap();
    }
    let blob = c.serialize(Compression::None);
    let parsed = Chunk::deserialize(&blob).unwrap();
    for chunk in [&c, &parsed] {
        // stored blobs are framed with 1 magic byte of overhead
        assert_eq!(chunk.blob_range(1).unwrap(), (11, 32));
        assert_eq!(chunk.stored_len(1).unwrap(), 21);
        assert_eq!(chunk.shape(1).unwrap(), Shape::from([20]));
        assert!(chunk.blob_range(3).is_err());
        assert!(chunk.stored_len(3).is_err());
        assert!(chunk.shape(3).is_err());
    }
    // §3.5: the range is enough to read sample 1 out of the stored blob
    // without the rest of the payload
    let payload_at = blob.len() - parsed.payload_len();
    let sub = &blob[payload_at + 11..payload_at + 32];
    let decoded = decode_sample(sub, Dtype::U8, Shape::from([20])).unwrap();
    assert_eq!(decoded.to_vec::<u8>().unwrap(), vec![2u8; 20]);
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
    c.append_blob(&blob, img.shape());
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
            assert!(chunk.vector_at(0, 1).is_none(), "rank 0 is not a vector");
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

    // one sample-compressed record, appended after a verdict was kept:
    // the append forgets it, and a kept verdict is not part of equality
    let mut c = scalars(3);
    assert!(c.scalar_column().is_some());
    assert_eq!(c, scalars(3));
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
    c.append_blob(&[0x01, 4, 0, 0, 0], &Shape::scalar());
    assert!(c.scalar_column().is_none());
}

#[test]
fn vector_at_judges_only_the_record_it_is_asked_for() {
    let mut c = Chunk::new(Dtype::F32);
    let vector = |v: f32, n: u64| Sample::from_slice([n], &vec![v; n as usize]).unwrap();
    c.append_sample(&vector(1.0, 3), Compression::None).unwrap();
    c.append_sample(&vector(2.0, 2), Compression::None).unwrap(); // wrong length
    c.append_sample(&vector(3.0, 3), Compression::Lz4).unwrap(); // sample-compressed
    c.append_sample(&Sample::empty(Dtype::F32), Compression::None)
        .unwrap();
    c.append_sample(
        &Sample::from_slice([1, 3], &[4f32; 3]).unwrap(), // right count, rank 2
        Compression::None,
    )
    .unwrap();
    c.append_sample(&vector(5.0, 3), Compression::None).unwrap();
    let parsed = Chunk::parse(Bytes::from(c.serialize(Compression::Lz4))).unwrap();
    for chunk in [&c, &parsed] {
        // its two plain 3-vectors, and nothing else, are views
        let got: Vec<bool> = (0..7).map(|i| chunk.vector_at(i, 3).is_some()).collect();
        assert_eq!(got, [true, false, false, false, false, true, false]);
        for (i, want) in [(0, 1.0), (5, 5.0)] {
            let mut out = Vec::new();
            let view = chunk.vector_at(i, 3).unwrap();
            assert_eq!(view.len(), 1);
            view.decode_rows(0..1, &mut out);
            assert_eq!(out, [want; 3]);
        }
        assert!(
            chunk.vector_at(1, 2).is_some(),
            "the short one at its own length"
        );
        assert!(chunk.vector_at(0, 0).is_none());
        assert!(chunk.vector_at(0, usize::MAX).is_none(), "stride overflow");
    }
}

/// Serialized F32 chunk with a hand-written directory: `records` are
/// `(stored_len, dims)`, `payload` whatever follows.
fn forged(records: &[(u32, &[u32])], payload: &[u8]) -> Vec<u8> {
    forged_directory(records.len() as u32, records, payload)
}

/// [`forged`] under a claimed record count of `claimed`, whatever
/// `records` holds.
fn forged_directory<D: AsRef<[u32]>>(claimed: u32, records: &[(u32, D)], tail: &[u8]) -> Vec<u8> {
    let mut out = CHUNK_MAGIC.to_vec();
    out.extend_from_slice(&[CHUNK_VERSION, 0, dtype_tag(Dtype::F32)]);
    out.extend_from_slice(&claimed.to_le_bytes());
    for (stored_len, dims) in records {
        out.extend_from_slice(&stored_len.to_le_bytes());
        out.push(dims.as_ref().len() as u8);
        for d in dims.as_ref() {
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
    out.extend_from_slice(tail);
    out
}

#[test]
fn views_never_trust_a_lying_directory() {
    // directory claims scalars but the blobs are two elements long:
    // row reads fail on the length, views refuse
    let c = Chunk::deserialize(&forged(&[(9, &[]), (9, &[])], &[0u8; 18])).unwrap();
    assert!(c.sample(0).is_err());
    assert!(c.scalar_column().is_none());
    assert!(c.vector_at(0, 2).is_none());
    // directory claims 2-vectors over scalar-sized blobs
    let c = Chunk::deserialize(&forged(&[(5, &[2]), (5, &[2])], &[0u8; 10])).unwrap();
    assert!(c.sample(0).is_err());
    assert!(c.scalar_column().is_none());
    assert!(c.vector_at(0, 2).is_none());
    // stored lengths that disagree with each other but sum to n × stride
    let c = Chunk::deserialize(&forged(&[(4, &[]), (6, &[])], &[0u8; 10])).unwrap();
    assert!(c.scalar_column().is_none());
    // a huge claimed dimension cannot overflow the stride arithmetic
    let c = Chunk::deserialize(&forged(&[(5, &[u32::MAX])], &[0u8; 5])).unwrap();
    assert!(c.vector_at(0, u32::MAX as usize).is_none());
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

// ---------------------------------------------------------------------
// the parser against the one it replaced
// ---------------------------------------------------------------------

/// The previous `Chunk::deserialize` and the accessors that read what it
/// built — one `Shape` per record, the payload copied out — kept as the
/// reference the flat tables are compared against. Only ever fed blobs
/// `serialize` wrote: it trusts the record count.
mod reference {
    use super::super::*;

    pub struct Record {
        pub stored_len: u32,
        pub shape: Shape,
    }

    pub struct RefChunk {
        pub dtype: Dtype,
        pub records: Vec<Record>,
        offsets: Vec<u32>,
        pub payload: Vec<u8>,
    }

    pub fn deserialize(data: &[u8]) -> Result<RefChunk> {
        if data.len() < 11 || data[..4] != CHUNK_MAGIC {
            return Err(FormatError::Corrupt("bad chunk magic".into()));
        }
        if data[4] != CHUNK_VERSION {
            return Err(FormatError::Corrupt("unsupported chunk version".into()));
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
            records.push(Record {
                stored_len,
                shape: Shape(dims),
            });
        }
        let body = &data[pos..];
        let payload = match payload_codec {
            Compression::None => body.to_vec(),
            _ => Compression::decompress(body)?,
        };
        let expected: usize = records.iter().map(|r| r.stored_len as usize).sum();
        if payload.len() != expected {
            return Err(FormatError::Corrupt(
                "payload length != directory total".into(),
            ));
        }
        let mut offsets = Vec::with_capacity(records.len());
        let mut acc = 0u32;
        for r in &records {
            offsets.push(acc);
            acc += r.stored_len;
        }
        Ok(RefChunk {
            dtype,
            records,
            offsets,
            payload,
        })
    }

    impl RefChunk {
        pub fn blob(&self, i: usize) -> Result<&[u8]> {
            if i >= self.records.len() {
                return Err(FormatError::SampleOutOfRange {
                    index: i as u64,
                    len: self.records.len() as u64,
                });
            }
            let start = self.offsets[i] as usize;
            Ok(&self.payload[start..start + self.records[i].stored_len as usize])
        }

        pub fn sample(&self, i: usize) -> Result<Sample> {
            let blob = self.blob(i)?;
            decode_sample(blob, self.dtype, self.records[i].shape.clone())
        }

        pub fn scalar_column(&self) -> Option<ColumnView<'_>> {
            self.column(1, |shape| shape.num_elements() == 1)
        }

        /// Record `i` alone as a one-row column of a rank-1 vector.
        pub fn vector_at(&self, i: usize, dim: usize) -> Option<ColumnView<'_>> {
            let record = self.records.get(i)?;
            let stride = dim.checked_mul(self.dtype.size())?.checked_add(1)?;
            let blob = self.blob(i).ok()?;
            let ok = dim != 0
                && record.shape.dims() == [dim as u64]
                && record.stored_len as usize == stride
                && Compression::raw_body(blob).is_some();
            ok.then_some(ColumnView {
                dtype: self.dtype,
                stride,
                payload: blob,
            })
        }

        fn column(
            &self,
            width: usize,
            shape_ok: impl Fn(&Shape) -> bool,
        ) -> Option<ColumnView<'_>> {
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
    }

    /// The directory walk before its uniform run went fixed-width: a
    /// slice compare per record and a `u32` check per offset. The oracle
    /// [`walk_directory`](super::super::walk_directory) must agree with on
    /// every blob, hostile ones included.
    pub fn walk_directory(data: &[u8]) -> Result<(Vec<u32>, Shapes, usize)> {
        let n = le_u32(&data[7..HEADER_LEN]) as usize;
        // an entry is at least a stored length and a rank byte
        if n > (data.len() - HEADER_LEN) / 5 {
            return Err(corrupt("truncated sample directory"));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut total = 0u64;
        let mut push_len = |stored_len: &[u8]| -> Result<()> {
            total += u64::from(le_u32(stored_len));
            offsets.push(u32::try_from(total).map_err(|_| corrupt("directory total exceeds u32"))?);
            Ok(())
        };
        let dir = &data[HEADER_LEN..];
        let first = match n {
            0 => &[0],
            _ => dir
                .get(4..5 + 4 * dir[4] as usize)
                .ok_or_else(|| corrupt("truncated shape"))?,
        };
        let entry_len = 4 + first.len();
        let mut uniform = 0;
        for entry in dir.chunks_exact(entry_len).take(n) {
            if entry[4..] != *first {
                break;
            }
            push_len(entry)?;
            uniform += 1;
        }
        let mut pos = HEADER_LEN + uniform * entry_len;
        let shapes = if uniform == n {
            Shapes::Uniform(Shape::new(le_dims(&first[1..]).collect::<Vec<_>>()))
        } else {
            let mut starts = Vec::with_capacity(n + 1);
            starts.extend((0..uniform).map(|k| (HEADER_LEN + 4 + k * entry_len) as u32));
            let mut dim_count = uniform * ((first.len() - 1) / 4);
            for _ in uniform..n {
                let entry = data
                    .get(pos..pos + 5)
                    .ok_or_else(|| corrupt("truncated sample directory"))?;
                let rank = entry[4] as usize;
                if data.len() < pos + 5 + 4 * rank {
                    return Err(corrupt("truncated shape"));
                }
                push_len(entry)?;
                starts.push(
                    u32::try_from(pos + 4).map_err(|_| corrupt("sample directory exceeds u32"))?,
                );
                dim_count += rank;
                pos += 5 + 4 * rank;
            }
            let mut dims = Vec::with_capacity(dim_count);
            for start in &mut starts {
                let at = *start as usize;
                *start = dims.len() as u32;
                dims.extend(le_dims(&data[at + 1..at + 1 + 4 * data[at] as usize]));
            }
            starts.push(dims.len() as u32);
            Shapes::Ragged { dims, starts }
        };
        Ok((offsets, shapes, pos))
    }
}

/// A small deterministic generator, so one `u64` from proptest decides a
/// whole chunk.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shape(&mut self, max_rank: u64, max_dim: u64) -> Shape {
        let rank = self.below(max_rank + 1);
        Shape((0..rank).map(|_| self.below(max_dim + 1)).collect())
    }

    fn sample(&mut self, dtype: Dtype, shape: Shape) -> Sample {
        let values: Vec<f64> = (0..shape.num_elements())
            .map(|_| match self.below(8) {
                0 => f64::NAN,
                1 => -0.0,
                _ => self.below(300) as f64 - 40.0,
            })
            .collect();
        deeplake_tensor::sample::from_f64_values(dtype, shape, &values)
    }
}

/// How a generated chunk's record shapes relate.
#[derive(Debug, Clone, Copy)]
enum ShapeMix {
    Scalars,
    /// `[]`, `[1]`, `[1, 1]` mixed: ragged tables, still a scalar column.
    OneElement,
    UniformVectors,
    /// One random shape of rank 0..=4 for every record (dims may be 0).
    UniformAny,
    Ragged,
}

const SAMPLE_CODECS: [Compression; 3] =
    [Compression::None, Compression::Lz4, Compression::JPEG_LIKE];
const PAYLOAD_CODECS: [Compression; 3] = [Compression::None, Compression::Lz4, Compression::Rle];

/// Build a chunk of `n` records by appending, as the builder does.
fn generated(g: &mut Gen, dtype: Dtype, n: usize, shapes: ShapeMix, mixed_codecs: bool) -> Chunk {
    let fixed = match shapes {
        ShapeMix::UniformVectors => Shape::from([1 + g.below(5)]),
        // rank 3 often enough for the image codec to engage on U8
        _ if g.below(2) == 0 => Shape::from([1 + g.below(4), 1 + g.below(4), 1 + g.below(3)]),
        _ => g.shape(4, 3),
    };
    let codec = SAMPLE_CODECS[g.below(3) as usize];
    let mut chunk = Chunk::new(dtype);
    for _ in 0..n {
        let shape = match shapes {
            ShapeMix::Scalars => Shape::scalar(),
            ShapeMix::OneElement => Shape(vec![1; g.below(3) as usize]),
            ShapeMix::UniformVectors | ShapeMix::UniformAny => fixed.clone(),
            ShapeMix::Ragged => g.shape(4, 3),
        };
        match g.below(16) {
            // a zero-length stored blob: nothing decodes it, the directory must still hold
            0 if mixed_codecs => chunk.append_blob(&[], &shape),
            _ => {
                let codec = if mixed_codecs {
                    SAMPLE_CODECS[g.below(3) as usize]
                } else {
                    codec
                };
                chunk.append_sample(&g.sample(dtype, shape), codec).unwrap();
            }
        }
    }
    chunk
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn column_bits(view: Option<ColumnView<'_>>) -> Option<Vec<u64>> {
    view.map(|col| {
        let mut out = Vec::new();
        col.decode_rows(0..col.len(), &mut out);
        bits(&out)
    })
}

/// Every accessor of `chunk` answers as the reference parse of `blob` does.
fn assert_matches_reference(chunk: &Chunk, blob: &[u8]) {
    let old = reference::deserialize(blob).expect("reference parses what serialize wrote");
    let n = old.records.len();
    assert_eq!(chunk.sample_count(), n);
    assert_eq!(chunk.dtype(), old.dtype);
    assert_eq!(chunk.payload_len(), old.payload.len());
    for i in 0..n {
        assert_eq!(chunk.blob(i).unwrap(), old.blob(i).unwrap(), "blob {i}");
        assert_eq!(chunk.shape(i).unwrap(), old.records[i].shape, "shape {i}");
        assert_eq!(
            chunk.stored_len(i).unwrap(),
            old.records[i].stored_len as usize
        );
        // `Sample` equality is bytewise: NaN payloads and signed zeros count
        assert_eq!(chunk.sample(i).ok(), old.sample(i).ok(), "sample {i}");
    }
    assert!(chunk.blob(n).is_err() && chunk.shape(n).is_err() && chunk.sample(n).is_err());
    assert_eq!(
        column_bits(chunk.scalar_column()),
        column_bits(old.scalar_column()),
        "scalar column"
    );
    let mut widths = vec![0, 1, 2, 3, 4, 5, 6, usize::MAX];
    widths.extend(old.records.iter().map(|r| r.shape.num_elements() as usize));
    for dim in widths {
        for i in 0..=n {
            assert_eq!(
                column_bits(chunk.vector_at(i, dim)),
                column_bits(old.vector_at(i, dim)),
                "vector {i} of {dim}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn parse_equals_the_reference_over_every_chunk_shape(
        seed in any::<u64>(),
        n in 0usize..40,
        dtype in 0usize..11,
        shapes in 0usize..5,
        payload_codec in 0usize..3,
        mixed_codecs in 0u8..2,
    ) {
        let mut g = Gen(seed);
        let dtype = Dtype::ALL[dtype];
        let shapes = [
            ShapeMix::Scalars,
            ShapeMix::OneElement,
            ShapeMix::UniformVectors,
            ShapeMix::UniformAny,
            ShapeMix::Ragged,
        ][shapes];
        let built = generated(&mut g, dtype, n, shapes, mixed_codecs == 1);
        let codec = PAYLOAD_CODECS[payload_codec];
        let blob = built.serialize(codec);
        let parsed = Chunk::parse(Bytes::from(blob.clone())).unwrap();
        assert_matches_reference(&parsed, &blob);
        // the chunk that was appended to reads the same, and is the same
        assert_matches_reference(&built, &blob);
        prop_assert_eq!(&built, &parsed);
        prop_assert_eq!(&Chunk::deserialize(&blob).unwrap(), &parsed);
        // the wire form survives a round trip byte for byte, under every codec
        for other in PAYLOAD_CODECS {
            let reblob = parsed.serialize(other);
            prop_assert_eq!(&reblob, &built.serialize(other));
            prop_assert_eq!(&Chunk::parse(Bytes::from(reblob)).unwrap(), &parsed);
        }
        prop_assert_eq!(parsed.serialize(codec), blob);
        // appending to a parsed chunk continues it exactly as the builder would
        let extra_shape = g.shape(4, 3);
        let extra = g.sample(dtype, extra_shape);
        let (mut a, mut b) = (built.clone(), parsed.clone());
        a.append_sample(&extra, Compression::None).unwrap();
        b.append_sample(&extra, Compression::None).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.serialize(codec), b.serialize(codec));
    }
}

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// The six-record U8 chunk behind the golden blobs: ranks 0..=4, an
/// empty marker, and a None, LZ4, SynthImg and RLE sample frame.
fn golden_chunk() -> Chunk {
    let s = |dims: &[u64], first: u8| {
        let n = dims.iter().product::<u64>() as usize;
        let data: Vec<u8> = (0..n).map(|i| first.wrapping_add(i as u8)).collect();
        Sample::from_slice(Shape::new(dims), &data).unwrap()
    };
    let mut c = Chunk::new(Dtype::U8);
    c.append_sample(&s(&[2, 3], 7), Compression::None).unwrap();
    c.append_sample(&s(&[], 9), Compression::None).unwrap();
    c.append_sample(&Sample::empty(Dtype::U8), Compression::None)
        .unwrap();
    c.append_sample(&s(&[12], 1), Compression::Lz4).unwrap();
    c.append_sample(&s(&[2, 2, 3], 100), Compression::JPEG_LIKE)
        .unwrap();
    c.append_sample(&s(&[1, 1, 1, 2], 50), Compression::Rle)
        .unwrap();
    c
}

/// What the parent commit's `serialize` wrote for [`golden_chunk`] under
/// each payload codec: the wire layout is pinned, not just self-consistent.
const GOLDEN: [(Compression, &str); 3] = [
    (Compression::None, "444c4348010000060000000700000002020000000300000002000000000100000001000000000f000000010c0000001c00000003020000000200000003000000060000000401000000010000000100000002000000000708090a0b0c000900010cc00102030405060708090a0b0c030c04020000000200000003000000c0060606000000060606000000020201320133"),
    (Compression::Lz4, "444c4348010100060000000700000002020000000300000002000000000100000001000000000f000000010c0000001c00000003020000000200000003000000060000000401000000010000000100000002000000013bf204000708090a0b0c000900010cc0010203040506120070030c04020000000400b203000000c0060606000000060060020201320133"),
    (Compression::Rle, "444c4348010200060000000700000002020000000300000002000000000100000001000000000f000000010c0000001c00000003020000000200000003000000060000000401000000010000000100000002000000023b0100010701080109010a010b010c0100010901000101010c01c0010101020103010401050106010701080109010a010b010c0103010c010401020300010203000103030001c0030603000306030002020101013201010133"),
];

#[test]
fn golden_blobs_from_the_parent_serializer() {
    let built = golden_chunk();
    for (codec, golden) in GOLDEN {
        let golden = hex(golden);
        assert_eq!(built.serialize(codec), golden, "{codec:?}");
        let parsed = Chunk::deserialize(&golden).unwrap();
        assert_eq!(parsed, built);
        assert_eq!(parsed.serialize(codec), golden);
        assert_matches_reference(&parsed, &golden);
        let decoded: Vec<Vec<u8>> = (0..6)
            .map(|i| parsed.sample(i).unwrap().bytes().to_vec())
            .collect();
        assert_eq!(decoded[0], [7, 8, 9, 10, 11, 12]);
        assert_eq!(decoded[1], [9]);
        assert!(decoded[2].is_empty());
        assert_eq!(decoded[3], (1..=12).collect::<Vec<u8>>());
        assert_eq!(decoded[4], [104; 12], "the image codec is lossy");
        assert_eq!(decoded[5], [50, 51]);
        assert_eq!(parsed.shape(4).unwrap(), Shape::from([2, 2, 3]));
    }
}

// ---------------------------------------------------------------------
// blobs this program did not write
// ---------------------------------------------------------------------

/// Call every accessor of a chunk parsed from hostile bytes. Results are
/// ignored; the point is that none panics or reads out of bounds.
fn exercise(chunk: &Chunk) {
    let n = chunk.sample_count();
    let mut widths = vec![0, 1, 2, 3, 255, u32::MAX as usize, usize::MAX];
    for i in 0..=n {
        let _ = (chunk.blob(i), chunk.blob_range(i), chunk.stored_len(i));
        let _ = chunk.sample(i);
        if let Ok(shape) = chunk.shape(i) {
            widths.extend(shape.dims().iter().map(|&d| d as usize));
        }
    }
    let _ = column_bits(chunk.scalar_column());
    for dim in widths {
        for i in 0..=n {
            let _ = column_bits(chunk.vector_at(i, dim));
        }
    }
    // what parsed once serializes to something that parses to the same
    let again = Chunk::parse(Bytes::from(chunk.serialize(Compression::None))).unwrap();
    assert_eq!(&again, chunk);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The fixed-width walk against the one it replaced, over directories
    /// no serializer wrote: ranks 0–5, a uniform run then records that
    /// differ from the first, stored lengths whose sum crosses `u32::MAX`
    /// (inside the run or after it), a claimed count that is honest, one
    /// off either way or absurd, and every truncation of all of it. Same
    /// offsets, shapes and payload start — or the same error.
    #[test]
    fn walk_equals_the_reference_walk_on_every_directory(
        seed in any::<u64>(),
        rank in 0usize..=5,
        uniform in 0usize..24,
        differing in 0usize..4,
        claim in 0usize..5,
    ) {
        let mut g = Gen(seed);
        let dim = |g: &mut Gen| match g.below(6) {
            0 => u32::MAX,
            1 => 0,
            _ => g.below(5) as u32,
        };
        let stored_len = |g: &mut Gen| match g.below(8) {
            0 => u32::MAX - g.below(3) as u32,
            1 => u32::MAX / 3,
            _ => g.below(40) as u32,
        };
        let first: Vec<u32> = (0..rank).map(|_| dim(&mut g)).collect();
        let mut records: Vec<(u32, Vec<u32>)> =
            (0..uniform).map(|_| (stored_len(&mut g), first.clone())).collect();
        for _ in 0..differing {
            // one dim of the first's shape changed, or another shape
            let mut shape = first.clone();
            if !shape.is_empty() && g.below(2) == 0 {
                let at = g.below(shape.len() as u64) as usize;
                shape[at] = shape[at].wrapping_add(1 + g.below(3) as u32);
            } else {
                shape = (0..g.below(6)).map(|_| dim(&mut g)).collect();
            }
            records.push((stored_len(&mut g), shape));
        }
        let n = records.len() as u32;
        let claimed = [n, n + 1, n.saturating_sub(1), u32::MAX, n][claim];
        let tail: Vec<u8> = (0..g.below(12)).map(|_| g.below(256) as u8).collect();
        let blob = forged_directory(claimed, &records, &tail);
        let walk = |data: &[u8]| walk_directory(data).map_err(|e| e.to_string());
        let reference = |data: &[u8]| reference::walk_directory(data).map_err(|e| e.to_string());
        for cut in HEADER_LEN..=blob.len() {
            prop_assert_eq!(walk(&blob[..cut]), reference(&blob[..cut]), "cut at {}", cut);
        }
    }
}

#[test]
fn a_total_past_u32_is_refused_wherever_the_run_crosses_it() {
    // scalars only: the whole directory is the uniform run
    for at in 0..6 {
        let mut records = vec![(7u32, Vec::<u32>::new()); 6];
        records[at].0 = u32::MAX - 20;
        let blob = forged_directory(6, &records, &[]);
        // the run's total is MAX - 20 + 35: past u32 whatever record holds the big one
        assert!(walk_directory(&blob).is_err(), "big record at {at}");
        assert!(reference::walk_directory(&blob).is_err());
        // a total of exactly u32::MAX fits
        records[at].0 = u32::MAX - 35;
        let blob = forged_directory(6, &records, &[]);
        let (offsets, ..) = walk_directory(&blob).unwrap();
        assert_eq!(*offsets.last().unwrap(), u32::MAX);
        assert_eq!(offsets, reference::walk_directory(&blob).unwrap().0);
    }
}

fn parse_and_exercise(blob: Vec<u8>) {
    if let Ok(chunk) = Chunk::parse(Bytes::from(blob)) {
        exercise(&chunk);
    }
}

/// Byte offsets of each field of a serialized chunk's directory:
/// `(stored_len, rank, dims)` per record.
fn directory_fields(blob: &[u8]) -> Vec<(usize, usize, Vec<usize>)> {
    let n = le_u32(&blob[7..]) as usize;
    let mut pos = HEADER_LEN;
    (0..n)
        .map(|_| {
            let rank = blob[pos + 4] as usize;
            let fields = (pos, pos + 4, (0..rank).map(|r| pos + 5 + 4 * r).collect());
            pos += 5 + 4 * rank;
            fields
        })
        .collect()
}

#[test]
fn mutated_chunks_error_or_stay_in_bounds() {
    let mut g = Gen(16);
    let mut vectors = Chunk::new(Dtype::F32);
    for i in 0..6 {
        let v = Sample::from_slice([3], &[i as f32, 0.5, -1.0]).unwrap();
        vectors.append_sample(&v, Compression::None).unwrap();
    }
    let mut scalars = Chunk::new(Dtype::I32);
    for i in 0..40 {
        scalars
            .append_sample(&Sample::scalar(i / 4), Compression::None)
            .unwrap();
    }
    let bases = [
        vectors.serialize(Compression::None),
        scalars.serialize(Compression::Lz4),
        scalars.serialize(Compression::Rle),
        golden_chunk().serialize(Compression::None),
        golden_chunk().serialize(Compression::Lz4),
        generated(&mut g, Dtype::U16, 9, ShapeMix::Ragged, true).serialize(Compression::None),
        Chunk::new(Dtype::U8).serialize(Compression::None),
        Chunk::new(Dtype::U8).serialize(Compression::Lz4),
    ];
    for base in &bases {
        parse_and_exercise(base.clone());
        for cut in 0..base.len() {
            parse_and_exercise(base[..cut].to_vec());
        }
        for bit in 0..base.len() * 8 {
            let mut m = base.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            parse_and_exercise(m);
        }
        for tail in [&[0u8][..], &[0xff], &[0; 5], &[0xff; 64]] {
            parse_and_exercise([base, tail].concat());
        }
        // each directory field zeroed and maxed, and the count around its value
        let n = le_u32(&base[7..]);
        let splice = |at: usize, bytes: &[u8]| {
            let mut m = base.clone();
            m[at..at + bytes.len()].copy_from_slice(bytes);
            parse_and_exercise(m);
        };
        for count in [
            0,
            1,
            n.wrapping_sub(1),
            n + 1,
            n * 2,
            u32::MAX / 5,
            u32::MAX,
        ] {
            splice(7, &count.to_le_bytes());
        }
        for (stored_len, rank, dims) in directory_fields(base) {
            for v in [0, 1, u32::MAX / 2, u32::MAX - 1, u32::MAX] {
                splice(stored_len, &v.to_le_bytes());
                for &dim in &dims {
                    splice(dim, &v.to_le_bytes());
                }
            }
            for v in [0, 1, 4, 255] {
                splice(rank, &[v]);
            }
            // every dim of the record at once: the product overflows `u64`
            if let (Some(&at), true) = (dims.first(), dims.len() > 2) {
                splice(at, &[0xff; 4].repeat(dims.len()));
            }
        }
    }
}

#[test]
fn forged_counts_and_lengths_are_refused_before_allocating() {
    // 11 bytes claiming u32::MAX records: ~137 GB of directory at the parent
    let mut blob = CHUNK_MAGIC.to_vec();
    blob.extend_from_slice(&[CHUNK_VERSION, 0, 0]);
    blob.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(Chunk::deserialize(&blob).is_err());
    // the largest count the bytes could hold, over a directory that is not there
    let mut blob = forged(&[], &[0u8; 50]);
    blob[7..11].copy_from_slice(&10u32.to_le_bytes());
    blob.truncate(11 + 49);
    assert!(Chunk::deserialize(&blob).is_err());
    // stored lengths that only add up past u32::MAX
    let huge = [(u32::MAX, &[][..]), (u32::MAX, &[]), (2, &[])];
    assert!(Chunk::deserialize(&forged(&huge, &[0u8; 0])).is_err());
    assert!(Chunk::deserialize(&forged(&huge[..1], &[0u8; 16])).is_err());
    // a payload frame whose decoded length is not the directory's total
    let mut c = Chunk::new(Dtype::U8);
    c.append_sample(&sample_u8([64], 3), Compression::None)
        .unwrap();
    let mut blob = c.serialize(Compression::Lz4);
    blob[11..15].copy_from_slice(&64u32.to_le_bytes()); // was 65
    assert!(Chunk::deserialize(&blob).is_err());
    // dims whose product overflows: the row read fails, nothing panics
    let c = Chunk::deserialize(&forged(&[(5, &[u32::MAX; 4])], &[0u8; 5])).unwrap();
    assert!(c.sample(0).is_err());
    assert!(c.scalar_column().is_none());
    assert_eq!(c.shape(0).unwrap().rank(), 4);
}

#[test]
fn a_parsed_chunk_is_a_window_on_its_blob_and_nothing_more() {
    let mut built = Chunk::new(Dtype::F32);
    for i in 0..8 {
        let v = Sample::from_slice([4], &[i as f32; 4]).unwrap();
        built.append_sample(&v, Compression::None).unwrap();
    }
    // the stored blob sits inside a larger buffer, as a ranged read returns it
    let framed = |codec| {
        let blob = built.serialize(codec);
        let big = Bytes::from([&[0xaa; 37][..], &blob[..], &[0xbb; 1000]].concat());
        (big, 37..37 + blob.len())
    };
    let (big, at) = framed(Compression::None);
    let chunk = Chunk::parse(big.slice(at.clone())).unwrap();
    assert_eq!(chunk, built);
    // zero copy: every blob lies inside the window the parser was given
    let window = big[at].as_ptr_range();
    for i in 0..8 {
        let blob = chunk.blob(i).unwrap().as_ptr_range();
        assert!(window.start <= blob.start && blob.end <= window.end);
    }
    // the chunk — and its clones — are what keep the buffer alive
    assert!(!big.is_unique());
    let clone = chunk.clone();
    drop(chunk);
    assert!(!big.is_unique());
    assert_eq!(clone.sample(7).unwrap().get_f64(0).unwrap(), 7.0);
    drop(clone);
    assert!(big.is_unique());
    // under a payload codec the chunk owns its one decoded buffer and
    // lets the stored blob go
    let (big, at) = framed(Compression::Lz4);
    let chunk = Chunk::parse(big.slice(at)).unwrap();
    assert!(big.is_unique());
    assert_eq!(chunk, built);
    // appending to a parsed chunk copies the window out and releases it too
    let (big, at) = framed(Compression::None);
    let mut chunk = Chunk::parse(big.slice(at)).unwrap();
    chunk.append_blob(&[1, 2, 3], &Shape::from([3]));
    assert!(big.is_unique());
    assert_eq!(chunk.sample_count(), 9);
    assert_eq!(chunk.blob(8).unwrap(), [1, 2, 3]);
    assert_eq!(chunk.sample(0).unwrap(), built.sample(0).unwrap());
}
