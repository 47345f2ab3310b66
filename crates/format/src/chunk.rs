//! Chunk binary layout, and the one in-memory form of a chunk.
//!
//! A chunk is the unit of storage I/O: one object-store blob holding a
//! contiguous run of samples from one tensor. Per §3.4 a chunk carries
//! "header information such as byte ranges, shapes of the samples, and the
//! sample data itself" — the header is what lets a reader index into the
//! chunk without touching the rest of it (§3.5).
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
//!
//! # What a [`Chunk`] owns
//!
//! The sample directory as flat tables: one prefix-sum `offsets` table
//! (`n + 1` entries; a stored length is a difference) and either the one
//! [`Shape`] every record shares or, for ragged chunks, flat `dims` with
//! per-record starts. [`Chunk::parse`] fills them in one walk over the
//! directory, in a number of allocations that does not depend on the
//! record count. The walk reads the records shaped like the first — all
//! of them, in a chunk of one shape — at an entry width fixed at compile
//! time for ranks 0–3, and checks their summed stored lengths against
//! `u32` once, at the end of that run, rather than per record.
//!
//! Whether every record is one uncompressed frame of one stored length —
//! the walk over every record a scalar column view needs — is worked
//! out on the first view asked of a chunk and kept with it, so a
//! parsed chunk that many queries scan pays that walk once. A chunk
//! being built forgets it at each append.
//!
//! The payload of a *parsed* chunk is a window, not a copy: a [`Bytes`]
//! slice of the blob handed to the parser (payload codec `None`), or the
//! one buffer the payload codec decoded into. The window holds a
//! reference on the blob's buffer — all of it, so hand the parser a
//! stored object rather than a slice of something larger — and that is
//! what keeps the bytes alive: for an in-memory store the chunk shares
//! the store's copy of the object instead of duplicating it. A chunk
//! *being built* ([`Chunk::append_sample`] / [`Chunk::append_blob`]) owns
//! a `Vec<u8>` it appends to; appending to a parsed chunk copies its
//! window out first. The [`ChunkBuilder`](crate::ChunkBuilder) encodes a
//! sample straight onto the end of that `Vec` and only then decides,
//! from the bytes written, whether they become a record of this chunk,
//! move into the next one or are taken back. Every accessor reads both the same way, and chunks
//! with the same records are equal however they were made. None of this
//! shows on the wire: the layout above is unchanged.

use std::ops::Range;
use std::sync::OnceLock;

use bytes::{Bytes, BytesMut};
use deeplake_codec::{Compression, Frame};
use deeplake_tensor::sample::read_f64;
use deeplake_tensor::{Dtype, Sample, Shape};

use crate::consts::{CHUNK_MAGIC, CHUNK_VERSION};
use crate::error::FormatError;
use crate::Result;

/// Bytes of the fixed chunk header, up to and including the record count.
const HEADER_LEN: usize = 11;

/// An in-memory chunk: sample directory + payload (see the module docs
/// for what it owns).
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    dtype: Dtype,
    /// Prefix sums of the stored lengths, `n + 1` entries from 0: record
    /// `i`'s blob is `payload[offsets[i]..offsets[i + 1]]`, and the last
    /// entry is the payload length.
    offsets: Vec<u32>,
    shapes: Shapes,
    payload: Payload,
    /// The stored length every record shares when each is one
    /// uncompressed frame of it (see [`Chunk::raw_stride`]).
    raw_stride: Memo<Option<usize>>,
}

/// A value a chunk derives from its records on first use. Not part of
/// what the chunk is: chunks compare equal whatever either has worked
/// out.
#[derive(Debug, Clone, Default)]
struct Memo<T>(OnceLock<T>);

impl<T> PartialEq for Memo<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The shapes of a chunk's records.
#[derive(Debug, Clone, PartialEq)]
enum Shapes {
    /// Every record has this shape (`[]` while the chunk is empty).
    Uniform(Shape),
    /// At least two records differ: record `i`'s dims are
    /// `dims[starts[i]..starts[i + 1]]` (`starts` has `n + 1` entries).
    Ragged { dims: Vec<u64>, starts: Vec<u32> },
}

/// Where a chunk's stored blobs live.
#[derive(Debug, Clone)]
enum Payload {
    /// Being built: appended to until the chunk is sealed.
    Owned(Vec<u8>),
    /// Parsed: a window onto the stored blob, or the payload codec's one
    /// decoded buffer.
    Shared(Bytes),
}

impl Payload {
    fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(b) => b,
        }
    }

    fn to_mut(&mut self) -> &mut Vec<u8> {
        if let Payload::Shared(b) = self {
            *self = Payload::Owned(b.to_vec());
        }
        let Payload::Owned(v) = self else {
            unreachable!("just made owned")
        };
        v
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Chunk {
    /// New empty chunk for samples of `dtype`.
    pub fn new(dtype: Dtype) -> Self {
        Chunk {
            dtype,
            offsets: vec![0],
            shapes: Shapes::Uniform(Shape::scalar()),
            payload: Payload::Owned(Vec::new()),
            raw_stride: Memo::default(),
        }
    }

    /// Element dtype of all samples in the chunk.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Number of samples.
    pub fn sample_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Uncompressed payload size in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.as_slice().len()
    }

    /// Append a stored blob (already sample-compressed if applicable) with
    /// its logical shape.
    pub fn append_blob(&mut self, blob: &[u8], shape: &Shape) {
        self.tail().extend_from_slice(blob);
        self.commit_tail(shape);
    }

    /// Append a raw (uncompressed) sample, applying `sample_compression`.
    pub fn append_sample(
        &mut self,
        sample: &Sample,
        sample_compression: Compression,
    ) -> Result<()> {
        // the frame is encoded straight onto the end of the payload
        encode_sample_into(sample, sample_compression, self.tail())?;
        self.commit_tail(sample.shape());
        Ok(())
    }

    /// The payload, for a builder to encode a sample onto its end before
    /// it decides where the sample goes: [`Chunk::commit_tail`] enters the
    /// bytes past the last record as one more record,
    /// [`Chunk::split_tail`] moves them into a new chunk and
    /// [`Chunk::drop_tail`] takes them back. Until one of them runs, those
    /// bytes belong to no record, so the caller runs one before it lets
    /// the chunk be read.
    pub(crate) fn tail(&mut self) -> &mut Vec<u8> {
        self.payload.to_mut()
    }

    /// Payload bytes the records hold: the tail starts here.
    fn committed_len(&self) -> usize {
        *self.offsets.last().expect("offsets start at 0") as usize
    }

    /// Drop the tail.
    pub(crate) fn drop_tail(&mut self) {
        let end = self.committed_len();
        self.tail().truncate(end);
    }

    /// Move the tail into a new empty chunk whose payload has room for
    /// `capacity` bytes, and return that chunk.
    pub(crate) fn split_tail(&mut self, capacity: usize) -> Chunk {
        let end = self.committed_len();
        let payload = self.tail();
        let mut next = Vec::with_capacity(capacity.max(payload.len() - end));
        next.extend_from_slice(&payload[end..]);
        payload.truncate(end);
        Chunk {
            payload: Payload::Owned(next),
            ..Chunk::new(self.dtype)
        }
    }

    /// Enter the tail — the blob just appended to the payload — as one
    /// record of `shape`. The shape is cloned once per chunk, not per
    /// record: later records only compare against it, until one differs
    /// and the tables go ragged.
    pub(crate) fn commit_tail(&mut self, shape: &Shape) {
        self.raw_stride = Memo::default();
        let n = self.sample_count();
        let end = u32::try_from(self.payload_len()).expect("a chunk payload stays below 4 GiB");
        self.offsets.push(end);
        match &mut self.shapes {
            Shapes::Uniform(shared) if n == 0 => shared.clone_from(shape),
            Shapes::Uniform(shared) if shared == shape => {}
            Shapes::Uniform(shared) => {
                let rank = shared.rank();
                let mut dims = shared.dims().repeat(n);
                dims.extend_from_slice(shape.dims());
                let mut starts: Vec<u32> = (0..=n).map(|i| (i * rank) as u32).collect();
                starts.push(dims.len() as u32);
                self.shapes = Shapes::Ragged { dims, starts };
            }
            Shapes::Ragged { dims, starts } => {
                dims.extend_from_slice(shape.dims());
                starts.push(dims.len() as u32);
            }
        }
    }

    /// Axis lengths of record `i` (which must exist), borrowed.
    fn dims(&self, i: usize) -> &[u64] {
        match &self.shapes {
            Shapes::Uniform(shared) => shared.dims(),
            Shapes::Ragged { dims, starts } => &dims[starts[i] as usize..starts[i + 1] as usize],
        }
    }

    /// Logical shape of sample `i`.
    pub fn shape(&self, i: usize) -> Result<Shape> {
        self.blob_range(i)?; // the bounds check
        Ok(Shape::new(self.dims(i)))
    }

    /// Stored (possibly sample-compressed) byte length of sample `i`.
    pub fn stored_len(&self, i: usize) -> Result<usize> {
        let (start, end) = self.blob_range(i)?;
        Ok(end - start)
    }

    /// Byte range `(start, end)` of sample `i`'s stored blob within the
    /// payload region.
    pub fn blob_range(&self, i: usize) -> Result<(usize, usize)> {
        if i >= self.sample_count() {
            return Err(FormatError::SampleOutOfRange {
                index: i as u64,
                len: self.sample_count() as u64,
            });
        }
        Ok((self.offsets[i] as usize, self.offsets[i + 1] as usize))
    }

    /// Borrow sample `i`'s stored blob.
    pub fn blob(&self, i: usize) -> Result<&[u8]> {
        let (s, e) = self.blob_range(i)?;
        Ok(&self.payload.as_slice()[s..e])
    }

    /// Decode sample `i` back into a [`Sample`].
    pub fn sample(&self, i: usize) -> Result<Sample> {
        decode_sample(self.blob(i)?, self.dtype, Shape::new(self.dims(i)))
    }

    /// The chunk as a column of scalars: `Some` only when every record
    /// is an uncompressed one-element blob.
    pub fn scalar_column(&self) -> Option<ColumnView<'_>> {
        // one element means every axis is 1, in every record
        let all_dims = match &self.shapes {
            Shapes::Uniform(shared) => shared.dims(),
            Shapes::Ragged { dims, .. } => dims,
        };
        // the payload length is checked against the record count up
        // front, so the view can never index past the bytes it borrows,
        // whatever the directory claims
        let stride = self.dtype.size() + 1;
        let payload = self.payload.as_slice();
        let uniform = all_dims.iter().all(|&d| d == 1)
            && self.sample_count() * stride == payload.len()
            && (self.sample_count() == 0 || self.raw_stride() == Some(stride));
        uniform.then_some(ColumnView {
            dtype: self.dtype,
            stride,
            payload,
        })
    }

    /// Record `i` alone as a one-row column of a rank-1 vector: `Some`
    /// only when it exists, has shape `[dim]` and is one uncompressed
    /// frame of exactly `dim` elements. O(1) — one directory entry and one
    /// frame byte, whatever the other records hold.
    pub fn vector_at(&self, i: usize, dim: usize) -> Option<ColumnView<'_>> {
        let (start, end) = self.blob_range(i).ok()?;
        let stride = dim.checked_mul(self.dtype.size())?.checked_add(1)?;
        let blob = &self.payload.as_slice()[start..end];
        let ok = dim != 0
            && self.dims(i) == [dim as u64]
            && blob.len() == stride
            && Compression::raw_body(blob).is_some();
        ok.then_some(ColumnView {
            dtype: self.dtype,
            stride,
            payload: blob,
        })
    }

    /// The stored length every record shares, when each is one
    /// uncompressed frame of it: one walk over the records, made on first
    /// use and kept (see the module docs).
    fn raw_stride(&self) -> Option<usize> {
        *self.raw_stride.0.get_or_init(|| {
            let stride = *self.offsets.get(1)? as usize;
            let uniform = stride > 0
                && self
                    .offsets
                    .windows(2)
                    .zip(self.payload.as_slice().chunks_exact(stride))
                    .all(|(w, blob)| {
                        (w[1] - w[0]) as usize == stride && Compression::raw_body(blob).is_some()
                    });
            uniform.then_some(stride)
        })
    }

    /// Serialize the chunk, compressing the payload with `chunk_codec`.
    pub fn serialize(&self, chunk_codec: Compression) -> Vec<u8> {
        let payload = self.payload.as_slice();
        let mut out = self.head(chunk_codec, payload.len());
        match chunk_codec {
            Compression::None => out.extend_from_slice(payload),
            codec => codec.compress_into(payload, &mut out),
        }
        out
    }

    /// [`Chunk::serialize`] as the [`Bytes`] a store keeps. A payload
    /// stored as it is (`Compression::None`) is copied once, into the
    /// buffer that is stored, not into a `Vec` that is copied again.
    pub fn serialize_bytes(&self, chunk_codec: Compression) -> Bytes {
        if chunk_codec != Compression::None {
            return Bytes::from(self.serialize(chunk_codec));
        }
        let (head, payload) = (self.head(chunk_codec, 0), self.payload.as_slice());
        let mut out = BytesMut::zeroed(head.len() + payload.len());
        let (front, back) = out.split_at_mut(head.len());
        front.copy_from_slice(&head);
        back.copy_from_slice(payload);
        out.freeze()
    }

    /// The fixed header and the sample directory, in a `Vec` with room
    /// for `payload_room` more bytes.
    fn head(&self, chunk_codec: Compression, payload_room: usize) -> Vec<u8> {
        let n = self.sample_count();
        let dims = match &self.shapes {
            Shapes::Uniform(shape) => n * shape.rank(),
            Shapes::Ragged { dims, .. } => dims.len(),
        };
        // an entry is [stored_len u32][rank u8][dim u32 × rank]
        let mut out = Vec::with_capacity(HEADER_LEN + 5 * n + 4 * dims + payload_room);
        out.extend_from_slice(&CHUNK_MAGIC);
        out.push(CHUNK_VERSION);
        out.push(codec_tag(chunk_codec));
        out.push(dtype_tag(self.dtype));
        out.extend_from_slice(&(n as u32).to_le_bytes());
        for (i, w) in self.offsets.windows(2).enumerate() {
            out.extend_from_slice(&(w[1] - w[0]).to_le_bytes());
            let dims = self.dims(i);
            out.push(dims.len() as u8);
            for &d in dims {
                out.extend_from_slice(&(d as u32).to_le_bytes());
            }
        }
        out
    }

    /// [`Chunk::parse`] for callers that only borrow the blob: copies it
    /// once.
    pub fn deserialize(data: &[u8]) -> Result<Chunk> {
        Chunk::parse(Bytes::copy_from_slice(data))
    }

    /// Parse a chunk blob (inverse of [`Chunk::serialize`]) into a view of
    /// it: one walk over the sample directory fills the flat tables, and
    /// the payload becomes a window onto `blob` — or, under a payload
    /// codec, the one buffer the codec decodes into.
    pub fn parse(blob: Bytes) -> Result<Chunk> {
        if blob.len() < HEADER_LEN || blob[..4] != CHUNK_MAGIC {
            return Err(corrupt("bad chunk magic"));
        }
        if blob[4] != CHUNK_VERSION {
            return Err(corrupt(format!("unsupported chunk version {}", blob[4])));
        }
        let payload_codec = codec_from_tag(blob[5])?;
        let dtype = dtype_from_tag(blob[6])?;
        let (offsets, shapes, payload_at) = walk_directory(&blob)?;
        // the directory admits the payload's length before any of it is
        // allocated or decoded
        let total = *offsets.last().expect("offsets start at 0") as usize;
        let frame = match payload_codec {
            Compression::None => None,
            _ => Some(Frame::parse(&blob[payload_at..])?),
        };
        let len = frame
            .as_ref()
            .map_or(blob.len() - payload_at, Frame::decoded_len);
        if len != total {
            return Err(corrupt(format!(
                "payload length {len} != directory total {total}"
            )));
        }
        let payload = match frame {
            None => blob.slice(payload_at..),
            Some(frame) => decode_frame(&frame)?,
        };
        Ok(Chunk {
            dtype,
            offsets,
            shapes,
            payload: Payload::Shared(payload),
            raw_stride: Memo::default(),
        })
    }
}

/// The one directory walk, over a blob whose fixed header is present:
/// the offsets table, the shapes, and where the payload starts. Every
/// count and length is admitted against the bytes that remain before
/// anything is reserved for it, and stored lengths are summed in `u64`,
/// so nothing a blob claims can make this allocate beyond the blob's own
/// size, overflow, or index out of bounds.
///
/// The walk is in two parts. The **uniform run** is the records from the
/// first on that share its `[rank][dims]` bytes: every record of a chunk
/// the builder sealed with one shape. It is read by [`uniform_run`], for
/// ranks 0–3 at an entry width known at compile time: one fixed-size
/// compare and one add per record. The run's total is checked against
/// `u32` once, at its end. A prefix sum only grows, so that one check
/// bounds every offset before it. The ragged rest, if any, is walked
/// record by record, each offset checked as it is pushed.
fn walk_directory(data: &[u8]) -> Result<(Vec<u32>, Shapes, usize)> {
    let n = le_u32(&data[7..HEADER_LEN]) as usize;
    // an entry is at least a stored length and a rank byte
    if n > (data.len() - HEADER_LEN) / 5 {
        return Err(corrupt("truncated sample directory"));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    // `[rank][dims]` bytes of the first record (rank 0 for an empty
    // chunk). Records shaped like it are all `entry_len` bytes, so the
    // walk reads fixed-size entries for as long as they are.
    let dir = &data[HEADER_LEN..];
    let first = match n {
        0 => &[0],
        _ => dir
            .get(4..5 + 4 * dir[4] as usize)
            .ok_or_else(|| corrupt("truncated shape"))?,
    };
    let entry_len = 4 + first.len();
    let (uniform, mut total) = match first.len() {
        1 => uniform_run::<[u8; 1]>(dir, first, n, &mut offsets),
        5 => uniform_run::<[u8; 5]>(dir, first, n, &mut offsets),
        9 => uniform_run::<[u8; 9]>(dir, first, n, &mut offsets),
        13 => uniform_run::<[u8; 13]>(dir, first, n, &mut offsets),
        _ => uniform_run::<&[u8]>(dir, first, n, &mut offsets),
    };
    let exceeds = || corrupt("directory total exceeds u32");
    u32::try_from(total).map_err(|_| exceeds())?;
    let mut pos = HEADER_LEN + uniform * entry_len;
    let shapes = if uniform == n {
        Shapes::Uniform(Shape::new(le_dims(&first[1..]).collect::<Vec<_>>()))
    } else {
        // one differs (or the directory is cut short): from here each
        // record's `[rank][dims]` position is noted, and the dims are
        // copied once their number is known
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
            total += u64::from(le_u32(entry));
            offsets.push(u32::try_from(total).map_err(|_| exceeds())?);
            starts
                .push(u32::try_from(pos + 4).map_err(|_| corrupt("sample directory exceeds u32"))?);
            dim_count += rank;
            pos += 5 + 4 * rank;
        }
        let mut dims = Vec::with_capacity(dim_count);
        for start in &mut starts {
            // a byte position turns into an index into `dims`
            let at = *start as usize;
            *start = dims.len() as u32;
            dims.extend(le_dims(&data[at + 1..at + 1 + 4 * data[at] as usize]));
        }
        starts.push(dims.len() as u32);
        Shapes::Ragged { dims, starts }
    };
    Ok((offsets, shapes, pos))
}

/// The uniform run of [`walk_directory`]: how many of the (at most `n`)
/// `4 + first.len()`-byte entries at the start of `dir` carry exactly the
/// `[rank][dims]` bytes `first`, compared as an `S` (a byte array of
/// `first`'s length, or the slice itself past rank 3), and the `u64` sum
/// of their stored lengths. Each prefix sum is pushed onto `offsets`
/// truncated to `u32`: the caller's one check of the returned total is
/// what makes them exact.
fn uniform_run<'a, S>(
    dir: &'a [u8],
    first: &'a [u8],
    n: usize,
    offsets: &mut Vec<u32>,
) -> (usize, u64)
where
    S: TryFrom<&'a [u8]> + PartialEq,
{
    let want = S::try_from(first).ok();
    let (mut count, mut total) = (0, 0u64);
    for entry in dir.chunks_exact(4 + first.len()).take(n) {
        if S::try_from(&entry[4..]).ok() != want {
            break;
        }
        total += u64::from(le_u32(entry));
        offsets.push(total as u32);
        count += 1;
    }
    (count, total)
}

fn corrupt(what: impl Into<String>) -> FormatError {
    FormatError::Corrupt(what.into())
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("four bytes"))
}

fn le_dims(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(4).map(|d| u64::from(le_u32(d)))
}

/// A chunk borrowed as a fixed-width column ([`Chunk::scalar_column`]),
/// or one record of it ([`Chunk::vector_at`]): every row is one
/// uncompressed frame of the same element count, so row `i` sits at a
/// computed offset and decodes without touching the sample directory or
/// allocating a [`Sample`].
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    dtype: Dtype,
    /// Bytes per row: the frame byte plus the elements.
    stride: usize,
    payload: &'a [u8],
}

/// A query vector as [`ColumnView::score_row`] scores records against
/// it: the math of `deeplake_index::Metric::score(record, query)`, with
/// what depends on the query alone computed once (`Metric::prepare`
/// builds one).
#[derive(Debug, Clone, Copy)]
pub enum VectorQuery<'q> {
    /// Cosine similarity; zero-norm inputs score `0.0`.
    Cosine {
        /// The query's elements.
        query: &'q [f64],
        /// The query's sum of squares, summed in element order from
        /// `0.0`.
        norm2: f64,
    },
    /// Euclidean distance.
    L2 {
        /// The query's elements.
        query: &'q [f64],
    },
}

/// Bind `$size` to the byte width of a `$dtype` element and `$read` to
/// the conversion [`Sample::get_f64`] uses for it, and evaluate `$body`:
/// one monomorphic copy of `$body` per dtype, so the conversion's dtype
/// match folds away inside each.
macro_rules! with_reader {
    ($dtype:expr, $size:ident, $read:ident => $body:expr) => {
        with_reader!(@arms $dtype, $size, $read, $body;
            U8, I8, U16, I16, U32, I32, U64, I64, F32, F64, Bool)
    };
    (@arms $dtype:expr, $size:ident, $read:ident, $body:expr; $($d:ident),*) => {
        match $dtype {
            $(Dtype::$d => {
                let $size = Dtype::$d.size();
                let $read = |raw: &[u8]| read_f64(Dtype::$d, raw);
                $body
            })*
        }
    };
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
        with_reader!(self.dtype, size, read => if stride == 1 + size {
            out.extend(records.chunks_exact(stride).map(|rec| read(&rec[1..])));
        } else {
            for rec in records.chunks_exact(stride) {
                out.extend(rec[1..].chunks_exact(size).map(read));
            }
        })
    }

    /// Compare rows `rows` of a scalar column in place: `emit` gets
    /// `keep(value)` for each row, in order, where `value` is what
    /// [`decode_rows`](Self::decode_rows) would have decoded — the same
    /// conversion, so NaN and signed zeros compare as they do there — but
    /// no buffer is filled. Panics if `rows` reaches past
    /// [`len`](Self::len).
    pub fn compare_rows(
        &self,
        rows: Range<usize>,
        keep: impl Fn(f64) -> bool,
        mut emit: impl FnMut(bool),
    ) {
        let stride = self.stride;
        debug_assert_eq!(stride, 1 + self.dtype.size(), "a scalar column");
        let records = &self.payload[rows.start * stride..rows.end * stride];
        with_reader!(self.dtype, _size, read => for rec in records.chunks_exact(stride) {
            emit(keep(read(&rec[1..])));
        })
    }

    /// Score row `row` of a vector column against `query` from the
    /// record's bytes: the elements convert as in
    /// [`decode_rows`](Self::decode_rows) and accumulate in element
    /// order, so the result is bit for bit `Metric::score` over the
    /// decoded row (a NaN result is some NaN: which of two NaN operands
    /// an add keeps is the compiler's choice, in both). The row must
    /// hold as many elements as the query
    /// (a `vector_at(i, query.len())` view's row does). Panics
    /// if `row` is not below [`len`](Self::len).
    pub fn score_row(&self, row: usize, query: VectorQuery<'_>) -> f64 {
        let record = &self.payload[row * self.stride + 1..(row + 1) * self.stride];
        with_reader!(self.dtype, size, read => {
            let elements = record.chunks_exact(size).map(read);
            match query {
                VectorQuery::Cosine { query, norm2 } => {
                    let (mut dot, mut norm) = (0.0, 0.0);
                    for (x, &y) in elements.zip(query) {
                        dot += x * y;
                        norm += x * x;
                    }
                    if norm == 0.0 || norm2 == 0.0 {
                        0.0
                    } else {
                        dot / (norm.sqrt() * norm2.sqrt())
                    }
                }
                VectorQuery::L2 { query } => elements
                    .zip(query)
                    .map(|(x, &y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt(),
            }
        })
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
    let raw = decode_frame(&Frame::parse(blob)?)?;
    Ok(Sample::from_bytes(dtype, shape, raw)?)
}

/// Decode a frame into the one buffer that becomes its [`Bytes`].
fn decode_frame(frame: &Frame<'_>) -> Result<Bytes> {
    let mut raw = BytesMut::zeroed(frame.decoded_len());
    frame.decode_into(&mut raw)?;
    Ok(raw.freeze())
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
        other => return Err(corrupt(format!("bad dtype tag {other}"))),
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
        other => return Err(corrupt(format!("bad codec tag {other}"))),
    })
}

#[cfg(test)]
mod tests;
