//! Video frame indexing — the tiling exemption (§3.4).
//!
//! "The only exception to tiling is videos. Videos are preserved due to
//! efficient frame mapping to indices, key-frame-only decompression, and
//! range-based requests while streaming."
//!
//! A stored video sample is one encoded blob (a GOP-structured stream in
//! the real system; here a concatenation of independently decodable
//! key-frame segments produced by our synthetic codec). The [`VideoIndex`]
//! maps frame numbers to `(byte offset, key-frame id)` pairs so a player
//! can seek: find the governing key frame, range-request bytes from there,
//! and decode only that segment.

use crate::consts::VIDEO_MAGIC;
use crate::error::FormatError;
use crate::Result;

/// Index of one encoded video sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VideoIndex {
    /// Byte offset of each key frame segment within the blob, ascending.
    key_offsets: Vec<u64>,
    /// First frame number of each key frame segment, ascending, same
    /// length as `key_offsets`.
    key_frames: Vec<u64>,
    /// Total frame count.
    num_frames: u64,
    /// Total blob length.
    blob_len: u64,
}

impl VideoIndex {
    /// Build an index from `(first_frame, byte_offset)` pairs plus totals.
    pub fn new(segments: &[(u64, u64)], num_frames: u64, blob_len: u64) -> Result<Self> {
        if segments.is_empty() {
            return Err(FormatError::Corrupt(
                "video index needs ≥1 key frame".into(),
            ));
        }
        if segments[0].0 != 0 || segments[0].1 != 0 {
            return Err(FormatError::Corrupt(
                "first key frame must be frame 0 offset 0".into(),
            ));
        }
        for w in segments.windows(2) {
            if w[1].0 <= w[0].0 || w[1].1 <= w[0].1 {
                return Err(FormatError::Corrupt("video segments must ascend".into()));
            }
        }
        Ok(VideoIndex {
            key_frames: segments.iter().map(|s| s.0).collect(),
            key_offsets: segments.iter().map(|s| s.1).collect(),
            num_frames,
            blob_len,
        })
    }

    /// Total frames.
    pub fn num_frames(&self) -> u64 {
        self.num_frames
    }

    /// The byte range to fetch and the first frame of that range, for
    /// decoding `frame`: `(byte_start, byte_end, segment_first_frame)`.
    ///
    /// This is the "jump to the specific position of the sequence without
    /// fetching the whole data" operation of §4.3.
    pub fn seek(&self, frame: u64) -> Result<(u64, u64, u64)> {
        if frame >= self.num_frames {
            return Err(FormatError::SampleOutOfRange {
                index: frame,
                len: self.num_frames,
            });
        }
        let i = self.key_frames.partition_point(|&f| f <= frame) - 1;
        let start = self.key_offsets[i];
        let end = self
            .key_offsets
            .get(i + 1)
            .copied()
            .unwrap_or(self.blob_len);
        Ok((start, end, self.key_frames[i]))
    }

    /// Byte ranges needed to play frames `[from, to)`: a minimal list of
    /// contiguous `(start, end)` spans.
    pub fn ranges_for(&self, from: u64, to: u64) -> Result<Vec<(u64, u64)>> {
        if to > self.num_frames || from > to {
            return Err(FormatError::SampleOutOfRange {
                index: to,
                len: self.num_frames,
            });
        }
        if from == to {
            return Ok(Vec::new());
        }
        let (s1, e1, _) = self.seek(from)?;
        let (s2, e2, _) = self.seek(to - 1)?;
        // key segments are contiguous in the blob, so the union is one span
        Ok(vec![(s1.min(s2), e1.max(e2))])
    }

    /// Serialize.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&VIDEO_MAGIC);
        out.extend_from_slice(&self.num_frames.to_le_bytes());
        out.extend_from_slice(&self.blob_len.to_le_bytes());
        out.extend_from_slice(&(self.key_frames.len() as u64).to_le_bytes());
        for (&f, &o) in self.key_frames.iter().zip(&self.key_offsets) {
            out.extend_from_slice(&f.to_le_bytes());
            out.extend_from_slice(&o.to_le_bytes());
        }
        out
    }

    /// Deserialize.
    pub fn deserialize(data: &[u8]) -> Result<Self> {
        if data.len() < 28 || data[..4] != VIDEO_MAGIC {
            return Err(FormatError::Corrupt("bad video index magic".into()));
        }
        let num_frames = u64::from_le_bytes(data[4..12].try_into().unwrap());
        let blob_len = u64::from_le_bytes(data[12..20].try_into().unwrap());
        let n = u64::from_le_bytes(data[20..28].try_into().unwrap()) as usize;
        if data.len() != 28 + n * 16 {
            return Err(FormatError::Corrupt("video index length mismatch".into()));
        }
        let mut segments = Vec::with_capacity(n);
        for i in 0..n {
            let pos = 28 + i * 16;
            let f = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
            let o = u64::from_le_bytes(data[pos + 8..pos + 16].try_into().unwrap());
            segments.push((f, o));
        }
        VideoIndex::new(&segments, num_frames, blob_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> VideoIndex {
        // 100 frames, key frames at 0/30/60/90, blob of 4000 bytes
        VideoIndex::new(&[(0, 0), (30, 1000), (60, 2000), (90, 3000)], 100, 4000).unwrap()
    }

    #[test]
    fn seek_finds_governing_key_frame() {
        let idx = index();
        assert_eq!(idx.seek(0).unwrap(), (0, 1000, 0));
        assert_eq!(idx.seek(29).unwrap(), (0, 1000, 0));
        assert_eq!(idx.seek(30).unwrap(), (1000, 2000, 30));
        assert_eq!(idx.seek(95).unwrap(), (3000, 4000, 90));
        assert!(idx.seek(100).is_err());
    }

    #[test]
    fn ranges_for_span() {
        let idx = index();
        // frames 10..50 need segments [0,1000) and [1000,2000)
        assert_eq!(idx.ranges_for(10, 50).unwrap(), vec![(0, 2000)]);
        // single segment read
        assert_eq!(idx.ranges_for(65, 70).unwrap(), vec![(2000, 3000)]);
        // empty range
        assert!(idx.ranges_for(5, 5).unwrap().is_empty());
        assert!(idx.ranges_for(90, 120).is_err());
    }

    #[test]
    fn partial_read_is_smaller_than_blob() {
        let idx = index();
        let (s, e, _) = idx.seek(45).unwrap();
        assert!(e - s < 4000, "seek must not require whole blob");
    }

    #[test]
    fn construction_validation() {
        assert!(VideoIndex::new(&[], 10, 100).is_err());
        assert!(VideoIndex::new(&[(1, 0)], 10, 100).is_err());
        assert!(VideoIndex::new(&[(0, 0), (5, 0)], 10, 100).is_err());
        assert!(VideoIndex::new(&[(0, 0), (5, 50), (5, 60)], 10, 100).is_err());
    }

    #[test]
    fn serialize_roundtrip() {
        let idx = index();
        let blob = idx.serialize();
        assert_eq!(VideoIndex::deserialize(&blob).unwrap(), idx);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(VideoIndex::deserialize(b"short").is_err());
        let mut blob = index().serialize();
        blob.truncate(blob.len() - 1);
        assert!(VideoIndex::deserialize(&blob).is_err());
    }
}
