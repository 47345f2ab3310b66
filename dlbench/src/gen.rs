//! Seeded input generation: the same `--seed` yields byte-identical
//! rows, query texts and shuffle order; the program under test receives
//! only what is generated here.
//!
//! The generator is the benchmark's own (splitmix64), not the workspace
//! `rand` stand-in, so inputs stay fixed when that stand-in changes.

use bytes::Bytes;
use deeplake_core::Row;
use deeplake_tensor::{Dtype, Sample, Shape};

/// Image side: 32×32×3 `u8`, 3 KiB raw per sample.
pub const IMAGE_SIDE: u64 = 32;
/// Embedding width.
pub const EMB_DIM: usize = 32;
/// Cluster centres the embeddings are drawn around, so an IVF index has
/// structure to find.
const EMB_CENTRES: usize = 64;

/// splitmix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one named purpose of one seed.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// Natural-ish pixels (smooth gradients, mild texture, random phase), so
/// the lossy image codec sees content it compresses at a realistic ratio.
pub fn image(rng: &mut Rng) -> Vec<u8> {
    let (px, py) = (rng.below(64), rng.below(64));
    let (sx, sy) = (2 + rng.below(3), 3 + rng.below(3));
    let mut out = Vec::with_capacity((IMAGE_SIDE * IMAGE_SIDE * 3) as usize);
    for y in 0..IMAGE_SIDE {
        for x in 0..IMAGE_SIDE {
            for ch in 0..3u64 {
                let v = (x + px) / sx + (y + py) / sy + ch * 37 + (x * y) % 7;
                out.push((v % 256) as u8);
            }
        }
    }
    out
}

pub fn image_sample(rng: &mut Rng) -> Sample {
    Sample::from_bytes(
        Dtype::U8,
        Shape::from([IMAGE_SIDE, IMAGE_SIDE, 3]),
        Bytes::from(image(rng)),
    )
    .expect("image length matches its shape")
}

/// Unit-ish vectors around one of [`EMB_CENTRES`] seeded centres.
pub struct Embeddings {
    centres: Vec<[f32; EMB_DIM]>,
}

impl Embeddings {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 0xE3B);
        let centres = (0..EMB_CENTRES)
            .map(|_| {
                let mut c = [0f32; EMB_DIM];
                for v in &mut c {
                    *v = (rng.unit() * 2.0 - 1.0) as f32;
                }
                c
            })
            .collect();
        Embeddings { centres }
    }

    pub fn vector(&self, rng: &mut Rng) -> [f32; EMB_DIM] {
        let mut v = self.centres[rng.below(EMB_CENTRES as u64) as usize];
        for x in &mut v {
            *x += ((rng.unit() - 0.5) * 0.3) as f32;
        }
        v
    }

    pub fn sample(&self, rng: &mut Rng) -> Sample {
        Sample::from_slice([EMB_DIM as u64], &self.vector(rng)).expect("embedding shape")
    }
}

/// Rows of the `ingest` workload: image, class label, embedding.
pub fn ingest_rows(seed: u64, n: usize) -> Vec<Row> {
    let mut rng = Rng::stream(seed, 0x1A6);
    let emb = Embeddings::new(seed);
    (0..n)
        .map(|_| {
            Row::new()
                .with("images", image_sample(&mut rng))
                .with("labels", Sample::scalar(rng.below(1000) as i32))
                .with("emb", emb.sample(&mut rng))
        })
        .collect()
}

/// Rows of the `train_stream` dataset: image plus a label that is the
/// row's own index, so the consumer can check that an epoch delivers
/// every row exactly once.
pub fn train_rows(seed: u64, n: usize) -> Vec<Row> {
    let mut rng = Rng::stream(seed, 0x7A1);
    (0..n)
        .map(|i| {
            Row::new()
                .with("images", image_sample(&mut rng))
                .with("labels", Sample::scalar(i as i32))
        })
        .collect()
}

/// Rows per distinct `labels` value in the query dataset. Labels are
/// clustered (`row / ROWS_PER_LABEL`), so chunk min/max statistics prune
/// an equality filter down to one or two chunks.
pub const ROWS_PER_LABEL: u64 = 8;

/// Rows of the query dataset: clustered `labels`, an unordered `score`
/// in `[0, 1)` (every chunk spans the whole range, so statistics prune
/// nothing), and an embedding.
pub fn query_rows(seed: u64, n: usize) -> Vec<Row> {
    let mut rng = Rng::stream(seed, 0x9E7);
    let emb = Embeddings::new(seed);
    (0..n)
        .map(|i| {
            Row::new()
                .with("labels", Sample::scalar((i as u64 / ROWS_PER_LABEL) as i32))
                .with("score", Sample::scalar(rng.unit() as f32))
                .with("emb", emb.sample(&mut rng))
        })
        .collect()
}

/// The three query classes of `query_cold`, in cycling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Equality on clustered `labels`: statistics prune all but the
    /// chunks holding the value.
    Filter,
    /// Range on unordered `score`: every chunk must be scanned.
    Scan,
    /// `ORDER BY COSINE_SIMILARITY … LIMIT 10` through the IVF index.
    TopK,
}

pub const QUERY_CLASSES: [QueryClass; 3] = [QueryClass::Filter, QueryClass::Scan, QueryClass::TopK];

/// A stream of query texts, every one distinct: labels are drawn without
/// replacement, and a threshold or vector that renders to a text already
/// issued is drawn again (1000 nine-digit thresholds in a range of 0.01
/// do collide, about once in twenty runs).
pub struct QueryTexts {
    rng: Rng,
    emb: Embeddings,
    labels: Vec<u64>,
    next_label: usize,
    issued: std::collections::HashSet<String>,
}

impl QueryTexts {
    pub fn new(seed: u64, rows: u64) -> Self {
        let mut rng = Rng::stream(seed, 0x5E1);
        let labels = rng.permutation(rows / ROWS_PER_LABEL);
        QueryTexts {
            rng,
            emb: Embeddings::new(seed),
            labels,
            next_label: 0,
            issued: std::collections::HashSet::new(),
        }
    }

    /// Distinct `Filter` texts still available.
    pub fn filters_left(&self) -> usize {
        self.labels.len() - self.next_label
    }

    pub fn next(&mut self, class: QueryClass) -> String {
        loop {
            let text = self.draw(class);
            if self.issued.insert(text.clone()) {
                return text;
            }
        }
    }

    fn draw(&mut self, class: QueryClass) -> String {
        match class {
            QueryClass::Filter => {
                let k = self.labels[self.next_label];
                self.next_label += 1;
                format!("SELECT * FROM d WHERE labels = {k}")
            }
            QueryClass::Scan => {
                // 3–5 % of rows match: result frames of 12–20 KB, which
                // is what overflows the hub's 4 MiB result cache within
                // the thousand queries of a traced run
                let t = 0.95 + self.rng.unit() * 0.02;
                format!("SELECT * FROM d WHERE score > {t:.9}")
            }
            QueryClass::TopK => {
                let v = self.emb.vector(&mut self.rng);
                let list: Vec<String> = v.iter().map(|x| format!("{x:.5}")).collect();
                format!(
                    "SELECT * FROM d ORDER BY COSINE_SIMILARITY(emb, [{}]) DESC LIMIT 10",
                    list.join(", ")
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_bytes(rows: &[Row]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in rows {
            for (name, s) in r.iter() {
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(s.bytes());
            }
        }
        out
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            row_bytes(&ingest_rows(7, 40)),
            row_bytes(&ingest_rows(7, 40))
        );
        assert_eq!(row_bytes(&train_rows(7, 40)), row_bytes(&train_rows(7, 40)));
        assert_eq!(row_bytes(&query_rows(7, 40)), row_bytes(&query_rows(7, 40)));
        let texts = |seed| {
            let mut q = QueryTexts::new(seed, 4096);
            (0..30)
                .map(|i| q.next(QUERY_CLASSES[i % 3]))
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(7), texts(7));
    }

    #[test]
    fn other_seed_other_inputs() {
        assert_ne!(
            row_bytes(&ingest_rows(7, 40)),
            row_bytes(&ingest_rows(8, 40))
        );
        let mut a = QueryTexts::new(7, 4096);
        let mut b = QueryTexts::new(8, 4096);
        for class in QUERY_CLASSES {
            assert_ne!(a.next(class), b.next(class));
        }
    }

    #[test]
    fn query_texts_never_repeat() {
        let mut q = QueryTexts::new(3, 4096);
        let mut seen = std::collections::HashSet::new();
        for i in 0..3 * (4096 / ROWS_PER_LABEL as usize) {
            assert!(seen.insert(q.next(QUERY_CLASSES[i % 3])));
        }
        assert_eq!(q.filters_left(), 0);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(1).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }
}
