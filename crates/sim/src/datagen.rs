//! Synthetic data generation.
//!
//! Loader and format performance depend on sample *size distribution* and
//! codec cost, not pixel content (DESIGN.md). The image generators below
//! emit natural-ish images (smooth gradients + mild texture) so the lossy
//! image codec achieves realistic compression ratios. The serving
//! scenarios share a labelled dataset with known query answers and one
//! Zipf-skewed traffic model over it.

use bytes::Bytes;
use deeplake_baselines::RawImage;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_storage::DynProvider;
use deeplake_tensor::{Htype, Sample};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Parameters for a generated image set.
#[derive(Debug, Clone, Copy)]
pub struct DataGenConfig {
    /// Number of images.
    pub count: usize,
    /// Side of square images (min side for ragged sets).
    pub side: u32,
    /// Channels.
    pub channels: u32,
    /// RNG seed.
    pub seed: u64,
}

/// Build a dataset called `name` where `labels[i] = i % distinct`, so
/// the query `labels = k` has a known answer, in chunks of about
/// `chunk_bytes`.
pub(crate) fn labelled_dataset(
    provider: DynProvider,
    name: &str,
    rows: u64,
    distinct: usize,
    chunk_bytes: u64,
) {
    let mut ds = Dataset::create(provider, name).unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(chunk_bytes);
        o
    })
    .unwrap();
    for i in 0..rows {
        ds.append_row(vec![(
            "labels",
            Sample::scalar((i % distinct as u64) as i32),
        )])
        .unwrap();
    }
    ds.flush().unwrap();
}

/// Zipf-skewed `labels = k` query traffic over [`labelled_dataset`]s: the
/// popularity table every client shares, each client's own RNG stream,
/// the query text and the rows it must return.
pub(crate) struct SkewedQueries {
    /// Cumulative weights `1/(rank+1)^skew` of the templates.
    cumulative: Vec<f64>,
    rows: u64,
    seed: u64,
}

impl SkewedQueries {
    /// `distinct` templates (`skew` 0 = uniform; ~1 = a realistic hot
    /// head) over datasets of `rows` rows with `distinct` labels.
    pub(crate) fn new(distinct: usize, skew: f64, rows: u64, seed: u64) -> Self {
        let mut acc = 0.0;
        let weight = |rank: usize| {
            acc += 1.0 / ((rank + 1) as f64).powf(skew);
            acc
        };
        SkewedQueries {
            cumulative: (0..distinct).map(weight).collect(),
            rows,
            seed,
        }
    }

    /// The dataset this traffic queries.
    pub(crate) fn dataset(&self, provider: DynProvider, name: &str) {
        labelled_dataset(provider, name, self.rows, self.cumulative.len(), 256);
    }

    /// Client `c`'s own stream of draws.
    pub(crate) fn client_rng(&self, c: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (c as u64).wrapping_mul(0x9e37))
    }

    /// Draw a template by popularity: `(k, the query text)`.
    pub(crate) fn draw(&self, rng: &mut StdRng) -> (usize, String) {
        let total = *self.cumulative.last().expect("non-empty universe");
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        let k = self.cumulative.partition_point(|&c| c <= u);
        let k = k.min(self.cumulative.len() - 1);
        (k, format!("SELECT labels FROM d WHERE labels = {k}"))
    }

    /// The rows `labels = k` must return.
    pub(crate) fn expected_rows(&self, k: usize) -> Vec<u64> {
        let distinct = self.cumulative.len();
        (k as u64..self.rows).step_by(distinct).collect()
    }
}

/// Natural-ish pixel content for one image.
fn synth_pixels(h: u32, w: u32, c: u32, rng: &mut StdRng) -> Bytes {
    let phase_x: u32 = rng.random_range(0..64);
    let phase_y: u32 = rng.random_range(0..64);
    let mut px = Vec::with_capacity((h * w * c) as usize);
    for y in 0..h {
        for x in 0..w {
            for ch in 0..c {
                let v = ((x + phase_x) / 3 + (y + phase_y) / 4 + ch * 37 + ((x * y) % 7)) % 256;
                px.push(v as u8);
            }
        }
    }
    Bytes::from(px)
}

/// FFHQ stand-in (Fig. 6): `count` uncompressed `side×side×3` images —
/// the paper uses 1024²×3 ≈ 3 MB raws; benches scale `side` down while
/// keeping the uniform-raw character.
pub fn ffhq_like(count: usize, side: u32, seed: u64) -> Vec<RawImage> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| RawImage {
            pixels: synth_pixels(side, side, 3, &mut rng),
            h: side,
            w: side,
            c: 3,
            label: (i % 1000) as i32,
        })
        .collect()
}

/// ImageNet / Fig. 7 stand-in: `count` `side×side×3` images with labels in
/// 0..1000 (paper: 50,000 of 250×250×3).
pub fn imagenet_like(count: usize, side: u32, seed: u64) -> Vec<RawImage> {
    ffhq_like(count, side, seed ^ 0x1A6E7)
        .into_iter()
        .enumerate()
        .map(|(i, mut img)| {
            img.label = (i % 1000) as i32;
            img
        })
        .collect()
}

/// LAION-like ragged web images (Fig. 10): sides vary uniformly in
/// `[side, 2·side]`, mimicking the dynamic shapes of crawled data.
pub fn web_images(count: usize, side: u32, seed: u64) -> Vec<RawImage> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A10);
    (0..count)
        .map(|i| {
            let h: u32 = rng.random_range(side..=side * 2);
            let w: u32 = rng.random_range(side..=side * 2);
            RawImage {
                pixels: synth_pixels(h, w, 3, &mut rng),
                h,
                w,
                c: 3,
                label: (i % 100) as i32,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ffhq_uniform_raws() {
        let imgs = ffhq_like(10, 64, 1);
        assert_eq!(imgs.len(), 10);
        assert!(imgs.iter().all(|i| i.h == 64 && i.w == 64 && i.c == 3));
        assert!(imgs.iter().all(|i| i.nbytes() == 64 * 64 * 3));
    }

    #[test]
    fn deterministic_by_seed() {
        let a = ffhq_like(3, 32, 7);
        let b = ffhq_like(3, 32, 7);
        let c = ffhq_like(3, 32, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn web_images_are_ragged() {
        let imgs = web_images(20, 32, 2);
        let sides: std::collections::HashSet<(u32, u32)> =
            imgs.iter().map(|i| (i.h, i.w)).collect();
        assert!(sides.len() > 5, "web images should vary in shape");
        assert!(imgs.iter().all(|i| i.h >= 32 && i.h <= 64));
    }

    #[test]
    fn content_compresses_realistically() {
        let img = &imagenet_like(1, 128, 3)[0];
        let blob = img.encode_jpeg_like();
        let ratio = img.nbytes() as f64 / blob.len() as f64;
        assert!(
            ratio > 3.0,
            "ratio {ratio:.1} too low for natural-ish content"
        );
        assert!(ratio < 100.0, "ratio {ratio:.1} suspiciously high");
    }
}
