//! Tiling of oversized samples.
//!
//! §3.4: "If a sample is larger than the upper bound chunk size, which is
//! the case for large aerial or microscopy images, the sample is tiled into
//! chunks across spatial dimensions." Each tile becomes its own chunk; the
//! tile encoder records, per tiled row, the tile grid geometry and the
//! chunk id of every tile. Partial reads (a viewport crop in the
//! visualizer, a TQL slice) fetch only the tiles intersecting the region
//! of interest.

use deeplake_tensor::ops::slice_sample;
use deeplake_tensor::{Dtype, Sample, Shape, SliceSpec};

use crate::consts::TILE_MAGIC;
use crate::error::FormatError;
use crate::Result;

/// Geometry of one tiled sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileLayout {
    /// Full sample shape.
    pub sample_shape: Shape,
    /// Shape of one (non-edge) tile.
    pub tile_shape: Shape,
    /// Chunk ids of the tiles in row-major grid order.
    pub tile_chunks: Vec<u64>,
}

impl TileLayout {
    /// Tiles per axis: `ceil(sample_dim / tile_dim)`.
    pub fn grid(&self) -> Vec<u64> {
        self.sample_shape
            .dims()
            .iter()
            .zip(self.tile_shape.dims())
            .map(|(&s, &t)| s.div_ceil(t))
            .collect()
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> u64 {
        self.grid().iter().product()
    }

    /// The sub-region of the sample covered by the tile at `coords`:
    /// per-axis `(start, stop)`.
    pub fn tile_bounds(&self, coords: &[u64]) -> Vec<(u64, u64)> {
        coords
            .iter()
            .zip(self.tile_shape.dims())
            .zip(self.sample_shape.dims())
            .map(|((&g, &t), &s)| (g * t, ((g + 1) * t).min(s)))
            .collect()
    }

    /// Row-major linear index of a tile grid coordinate.
    pub fn tile_index(&self, coords: &[u64]) -> u64 {
        let grid = self.grid();
        let mut idx = 0u64;
        for (i, &c) in coords.iter().enumerate() {
            idx = idx * grid[i] + c;
        }
        idx
    }

    /// Grid coordinates of tiles intersecting a region of interest.
    pub fn tiles_for_roi(&self, roi: &[SliceSpec]) -> Result<Vec<Vec<u64>>> {
        let rank = self.sample_shape.rank();
        if roi.len() > rank {
            return Err(FormatError::Tensor(
                deeplake_tensor::TensorError::RankMismatch {
                    expected: rank,
                    actual: roi.len(),
                },
            ));
        }
        // per-axis tile coordinate ranges
        let mut ranges = Vec::with_capacity(rank);
        for axis in 0..rank {
            let dim = self.sample_shape.dim(axis);
            let tile = self.tile_shape.dim(axis);
            let (start, stop, _) = match roi.get(axis) {
                Some(spec) => spec.resolve(dim, axis)?,
                None => (0, dim, true),
            };
            if start >= stop {
                return Ok(Vec::new());
            }
            ranges.push((start / tile, (stop - 1) / tile));
        }
        // cartesian product
        let mut out = Vec::new();
        let mut coords: Vec<u64> = ranges.iter().map(|&(lo, _)| lo).collect();
        loop {
            out.push(coords.clone());
            let mut axis = rank;
            loop {
                if axis == 0 {
                    return Ok(out);
                }
                axis -= 1;
                coords[axis] += 1;
                if coords[axis] <= ranges[axis].1 {
                    break;
                }
                coords[axis] = ranges[axis].0;
            }
        }
    }
}

/// Per-tensor registry of tiled rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TileEncoder {
    entries: Vec<(u64, TileLayout)>,
}

impl TileEncoder {
    /// Empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any rows are tiled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of tiled rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Register a tiled row.
    pub fn insert(&mut self, row: u64, layout: TileLayout) {
        match self.entries.binary_search_by_key(&row, |(r, _)| *r) {
            Ok(i) => self.entries[i].1 = layout,
            Err(i) => self.entries.insert(i, (row, layout)),
        }
    }

    /// Layout of a row, if tiled.
    pub fn get(&self, row: u64) -> Option<&TileLayout> {
        self.entries
            .binary_search_by_key(&row, |(r, _)| *r)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The tiled rows in `[start, end)`, ascending.
    pub fn rows_in(&self, start: u64, end: u64) -> impl Iterator<Item = u64> + '_ {
        let i = self.entries.partition_point(|(r, _)| *r < start);
        self.entries[i..]
            .iter()
            .map(|(r, _)| *r)
            .take_while(move |r| *r < end)
    }

    /// Remove a row's tiling entry (after re-chunking or update).
    pub fn remove(&mut self, row: u64) {
        if let Ok(i) = self.entries.binary_search_by_key(&row, |(r, _)| *r) {
            self.entries.remove(i);
        }
    }

    /// Serialize to bytes.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&TILE_MAGIC);
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (row, layout) in &self.entries {
            out.extend_from_slice(&row.to_le_bytes());
            out.push(layout.sample_shape.rank() as u8);
            for &d in layout.sample_shape.dims() {
                out.extend_from_slice(&d.to_le_bytes());
            }
            for &d in layout.tile_shape.dims() {
                out.extend_from_slice(&d.to_le_bytes());
            }
            out.extend_from_slice(&(layout.tile_chunks.len() as u64).to_le_bytes());
            for &c in &layout.tile_chunks {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// Deserialize.
    pub fn deserialize(data: &[u8]) -> Result<Self> {
        let err = |m: &str| FormatError::Corrupt(format!("tile encoder: {m}"));
        if data.len() < 12 || data[..4] != TILE_MAGIC {
            return Err(err("bad magic"));
        }
        let n = u64::from_le_bytes(data[4..12].try_into().unwrap()) as usize;
        let mut pos = 12usize;
        let mut enc = TileEncoder::new();
        let take_u64 = |pos: &mut usize| -> Result<u64> {
            if *pos + 8 > data.len() {
                return Err(FormatError::Corrupt("tile encoder: truncated".into()));
            }
            let v = u64::from_le_bytes(data[*pos..*pos + 8].try_into().unwrap());
            *pos += 8;
            Ok(v)
        };
        for _ in 0..n {
            let row = take_u64(&mut pos)?;
            if pos >= data.len() {
                return Err(err("truncated rank"));
            }
            let rank = data[pos] as usize;
            pos += 1;
            let mut sample_dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                sample_dims.push(take_u64(&mut pos)?);
            }
            let mut tile_dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                tile_dims.push(take_u64(&mut pos)?);
            }
            let n_tiles = take_u64(&mut pos)? as usize;
            let mut tile_chunks = Vec::with_capacity(n_tiles);
            for _ in 0..n_tiles {
                tile_chunks.push(take_u64(&mut pos)?);
            }
            enc.insert(
                row,
                TileLayout {
                    sample_shape: Shape(sample_dims),
                    tile_shape: Shape(tile_dims),
                    tile_chunks,
                },
            );
        }
        Ok(enc)
    }
}

/// Choose a tile shape for `shape` so that one tile's raw bytes fit in
/// `max_tile_bytes`: repeatedly halve the largest spatial axis. The channel
/// axis (any axis of length ≤ 4 at the end) is never split.
pub fn compute_tile_shape(shape: &Shape, elem_size: usize, max_tile_bytes: usize) -> Shape {
    let mut dims: Vec<u64> = shape.dims().to_vec();
    let is_channel =
        |i: usize, dims: &[u64]| i == dims.len() - 1 && dims[i] <= 4 && dims.len() >= 3;
    loop {
        let bytes: u64 = dims.iter().product::<u64>() * elem_size as u64;
        if bytes <= max_tile_bytes as u64 {
            return Shape(dims);
        }
        // halve the largest splittable axis
        let (axis, _) = dims
            .iter()
            .enumerate()
            .filter(|&(i, &d)| d > 1 && !is_channel(i, &dims))
            .max_by_key(|&(_, &d)| d)
            .expect("tile must be shrinkable");
        dims[axis] = dims[axis].div_ceil(2);
    }
}

/// Split an oversized sample into `(grid_coords, tile_sample)` pieces in
/// row-major grid order.
pub fn split_into_tiles(sample: &Sample, tile_shape: &Shape) -> Result<Vec<(Vec<u64>, Sample)>> {
    let layout = TileLayout {
        sample_shape: sample.shape().clone(),
        tile_shape: tile_shape.clone(),
        tile_chunks: Vec::new(),
    };
    let grid = layout.grid();
    let mut out = Vec::new();
    let mut coords = vec![0u64; grid.len()];
    loop {
        let bounds = layout.tile_bounds(&coords);
        let specs: Vec<SliceSpec> = bounds
            .iter()
            .map(|&(s, e)| SliceSpec::range(s as i64, e as i64))
            .collect();
        let tile = slice_sample(sample, &specs)?;
        out.push((coords.clone(), tile));
        // advance odometer
        let mut axis = grid.len();
        loop {
            if axis == 0 {
                return Ok(out);
            }
            axis -= 1;
            coords[axis] += 1;
            if coords[axis] < grid[axis] {
                break;
            }
            coords[axis] = 0;
        }
    }
}

/// Reassemble a full sample from its tiles (inverse of
/// [`split_into_tiles`]). `tiles` must be in row-major grid order.
pub fn reassemble_tiles(layout: &TileLayout, dtype: Dtype, tiles: &[Sample]) -> Result<Sample> {
    if tiles.len() as u64 != layout.num_tiles() {
        return Err(FormatError::Corrupt(format!(
            "expected {} tiles, got {}",
            layout.num_tiles(),
            tiles.len()
        )));
    }
    let elem = dtype.size();
    let full_shape = &layout.sample_shape;
    let mut buf = vec![0u8; full_shape.num_elements() as usize * elem];
    let strides = full_shape.strides();
    let grid = layout.grid();
    let rank = full_shape.rank();

    let mut coords = vec![0u64; rank];
    for tile in tiles {
        let bounds = layout.tile_bounds(&coords);
        // verify tile shape matches its bounds
        let expect: Vec<u64> = bounds.iter().map(|&(s, e)| e - s).collect();
        if tile.shape().dims() != expect.as_slice() {
            return Err(FormatError::Corrupt(format!(
                "tile at {coords:?} has shape {}, expected {expect:?}",
                tile.shape()
            )));
        }
        paste(&mut buf, &strides, elem, &bounds, tile.bytes());
        // advance odometer
        let mut axis = rank;
        loop {
            if axis == 0 {
                break;
            }
            axis -= 1;
            coords[axis] += 1;
            if coords[axis] < grid[axis] {
                break;
            }
            coords[axis] = 0;
        }
    }
    Ok(Sample::from_bytes(
        dtype,
        full_shape.clone(),
        bytes::Bytes::from(buf),
    )?)
}

/// Copy a tile's contiguous row-major bytes into the bounded sub-region of
/// the destination buffer.
fn paste(dst: &mut [u8], dst_strides: &[u64], elem: usize, bounds: &[(u64, u64)], src: &[u8]) {
    let rank = bounds.len();
    if rank == 0 {
        dst[..src.len()].copy_from_slice(src);
        return;
    }
    let inner_len = (bounds[rank - 1].1 - bounds[rank - 1].0) as usize * elem;
    let mut idx: Vec<u64> = bounds.iter().map(|&(s, _)| s).collect();
    let mut src_off = 0usize;
    loop {
        let mut elem_off = 0u64;
        for a in 0..rank {
            elem_off += idx[a] * dst_strides[a];
        }
        let off = elem_off as usize * elem;
        dst[off..off + inner_len].copy_from_slice(&src[src_off..src_off + inner_len]);
        src_off += inner_len;
        // advance odometer over axes 0..rank-1
        let mut axis = rank - 1;
        loop {
            if axis == 0 {
                return;
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < bounds[axis].1 {
                break;
            }
            idx[axis] = bounds[axis].0;
            if axis == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(h: u64, w: u64, c: u64) -> Sample {
        let n = (h * w * c) as usize;
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        Sample::from_slice([h, w, c], &data).unwrap()
    }

    #[test]
    fn rows_in_is_a_half_open_range_probe() {
        let layout = TileLayout {
            sample_shape: Shape::from([8]),
            tile_shape: Shape::from([4]),
            tile_chunks: vec![1, 2],
        };
        let mut enc = TileEncoder::new();
        let rows_in = |enc: &TileEncoder, s, e| enc.rows_in(s, e).collect::<Vec<_>>();
        assert!(rows_in(&enc, 0, u64::MAX).is_empty());
        enc.insert(5, layout.clone());
        enc.insert(9, layout);
        assert_eq!(rows_in(&enc, 0, 6), [5]);
        assert_eq!(rows_in(&enc, 5, 10), [5, 9]);
        assert_eq!(rows_in(&enc, 6, 10), [9]);
        assert!(rows_in(&enc, 0, 5).is_empty());
        assert!(rows_in(&enc, 6, 9).is_empty());
        assert!(rows_in(&enc, 10, 99).is_empty());
        assert!(rows_in(&enc, 5, 5).is_empty(), "empty range");
    }

    #[test]
    fn compute_tile_shape_halves_largest() {
        let shape = Shape::from([1000, 1000, 3]);
        let tile = compute_tile_shape(&shape, 1, 300_000);
        assert!(tile.num_elements() <= 300_000);
        assert_eq!(tile.dim(2), 3, "channel axis must not split");
        // fits already -> unchanged
        let small = Shape::from([10, 10, 3]);
        assert_eq!(compute_tile_shape(&small, 1, 1_000_000), small);
    }

    #[test]
    fn split_reassemble_roundtrip_2d() {
        let data: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let s = Sample::from_slice([10, 10], &data).unwrap();
        let tile_shape = Shape::from([4, 4]);
        let tiles = split_into_tiles(&s, &tile_shape).unwrap();
        assert_eq!(tiles.len(), 9); // 3x3 grid with edge tiles
        let layout = TileLayout {
            sample_shape: s.shape().clone(),
            tile_shape,
            tile_chunks: (0..9).collect(),
        };
        let samples: Vec<Sample> = tiles.into_iter().map(|(_, t)| t).collect();
        let back = reassemble_tiles(&layout, Dtype::U8, &samples).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn split_reassemble_roundtrip_image() {
        let s = image(50, 70, 3);
        let tile_shape = compute_tile_shape(s.shape(), 1, 2_000);
        let tiles = split_into_tiles(&s, &tile_shape).unwrap();
        let layout = TileLayout {
            sample_shape: s.shape().clone(),
            tile_shape,
            tile_chunks: (0..tiles.len() as u64).collect(),
        };
        let samples: Vec<Sample> = tiles.into_iter().map(|(_, t)| t).collect();
        let back = reassemble_tiles(&layout, Dtype::U8, &samples).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn grid_and_bounds() {
        let layout = TileLayout {
            sample_shape: Shape::from([10, 7]),
            tile_shape: Shape::from([4, 3]),
            tile_chunks: vec![],
        };
        assert_eq!(layout.grid(), vec![3, 3]);
        assert_eq!(layout.num_tiles(), 9);
        assert_eq!(layout.tile_bounds(&[0, 0]), vec![(0, 4), (0, 3)]);
        assert_eq!(layout.tile_bounds(&[2, 2]), vec![(8, 10), (6, 7)]);
        assert_eq!(layout.tile_index(&[1, 2]), 5);
    }

    #[test]
    fn roi_selects_intersecting_tiles_only() {
        let layout = TileLayout {
            sample_shape: Shape::from([100, 100, 3]),
            tile_shape: Shape::from([40, 40, 3]),
            tile_chunks: vec![],
        };
        // a crop entirely inside tile (0,0)
        let tiles = layout
            .tiles_for_roi(&[SliceSpec::range(0, 30), SliceSpec::range(0, 30)])
            .unwrap();
        assert_eq!(tiles, vec![vec![0, 0, 0]]);
        // a crop spanning rows 30..50 hits row-tiles 0 and 1
        let tiles = layout
            .tiles_for_roi(&[SliceSpec::range(30, 50), SliceSpec::range(0, 10)])
            .unwrap();
        assert_eq!(tiles.len(), 2);
        // full read touches all 9 spatial tiles
        let tiles = layout.tiles_for_roi(&[]).unwrap();
        assert_eq!(tiles.len(), 9);
        // empty roi -> nothing
        let tiles = layout.tiles_for_roi(&[SliceSpec::range(5, 5)]).unwrap();
        assert!(tiles.is_empty());
    }

    #[test]
    fn encoder_insert_get_remove() {
        let mut enc = TileEncoder::new();
        assert!(enc.is_empty());
        let layout = TileLayout {
            sample_shape: Shape::from([8, 8]),
            tile_shape: Shape::from([4, 4]),
            tile_chunks: vec![1, 2, 3, 4],
        };
        enc.insert(5, layout.clone());
        enc.insert(2, layout.clone());
        assert_eq!(enc.len(), 2);
        assert_eq!(enc.get(5), Some(&layout));
        assert!(enc.get(3).is_none());
        enc.remove(5);
        assert!(enc.get(5).is_none());
        enc.remove(99); // no-op
    }

    #[test]
    fn encoder_serialize_roundtrip() {
        let mut enc = TileEncoder::new();
        enc.insert(
            7,
            TileLayout {
                sample_shape: Shape::from([20, 30, 3]),
                tile_shape: Shape::from([10, 15, 3]),
                tile_chunks: vec![100, 101, 102, 103],
            },
        );
        enc.insert(
            0,
            TileLayout {
                sample_shape: Shape::from([6]),
                tile_shape: Shape::from([3]),
                tile_chunks: vec![1, 2],
            },
        );
        let blob = enc.serialize();
        let back = TileEncoder::deserialize(&blob).unwrap();
        assert_eq!(back, enc);
    }

    #[test]
    fn encoder_deserialize_rejects_garbage() {
        assert!(TileEncoder::deserialize(b"zz").is_err());
        let mut enc = TileEncoder::new();
        enc.insert(
            0,
            TileLayout {
                sample_shape: Shape::from([4]),
                tile_shape: Shape::from([2]),
                tile_chunks: vec![1, 2],
            },
        );
        let mut blob = enc.serialize();
        blob.truncate(blob.len() - 4);
        assert!(TileEncoder::deserialize(&blob).is_err());
    }

    #[test]
    fn reassemble_validates_tile_count_and_shape() {
        let layout = TileLayout {
            sample_shape: Shape::from([4, 4]),
            tile_shape: Shape::from([2, 2]),
            tile_chunks: vec![0, 1, 2, 3],
        };
        let t = Sample::zeros(Dtype::U8, [2, 2]);
        assert!(reassemble_tiles(&layout, Dtype::U8, std::slice::from_ref(&t)).is_err());
        let bad = Sample::zeros(Dtype::U8, [3, 2]);
        assert!(
            reassemble_tiles(&layout, Dtype::U8, &[t.clone(), t.clone(), t.clone(), bad]).is_err()
        );
    }

    #[test]
    fn uneven_edge_tiles() {
        // 7x5 with 3x3 tiles: edge tiles are 1x2 etc.
        let data: Vec<u8> = (0..35).map(|i| i as u8).collect();
        let s = Sample::from_slice([7, 5], &data).unwrap();
        let tile_shape = Shape::from([3, 3]);
        let tiles = split_into_tiles(&s, &tile_shape).unwrap();
        assert_eq!(tiles.len(), 6); // 3x2 grid
        let layout = TileLayout {
            sample_shape: s.shape().clone(),
            tile_shape,
            tile_chunks: (0..6).collect(),
        };
        let samples: Vec<Sample> = tiles.into_iter().map(|(_, t)| t).collect();
        assert_eq!(reassemble_tiles(&layout, Dtype::U8, &samples).unwrap(), s);
    }
}
