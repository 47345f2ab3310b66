//! Similarity / distance metrics over embedding vectors.
//!
//! One implementation serves every layer: TQL's `COSINE_SIMILARITY` /
//! `L2_DISTANCE` functions, the exact flat scanner, and the IVF probe all
//! call these, so an approximate path re-ranks with *exactly* the math
//! the naive per-row evaluator uses.

use deeplake_format::VectorQuery;

/// The metric a similarity query orders by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Cosine similarity: higher is closer. Zero-norm inputs score `0.0`.
    Cosine,
    /// Euclidean (L2) distance: lower is closer.
    L2,
}

impl Metric {
    /// Whether a *larger* score means a *closer* vector.
    pub fn higher_is_closer(&self) -> bool {
        matches!(self, Metric::Cosine)
    }

    /// Score two equal-length vectors under this metric.
    ///
    /// Callers validate lengths; equal length is a precondition.
    pub fn score(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Cosine => cosine_similarity(a, b),
            Metric::L2 => l2_distance(a, b),
        }
    }

    /// `query` as the second argument of many [`score`](Self::score)
    /// calls against records read in place
    /// ([`ColumnView::score_row`](deeplake_format::ColumnView::score_row)):
    /// cosine's query norm is summed here once, in the order
    /// [`cosine_similarity`] sums it, so every score keeps its bits
    /// (up to which NaN a NaN result is).
    pub fn prepare<'q>(&self, query: &'q [f64]) -> VectorQuery<'q> {
        match self {
            Metric::Cosine => VectorQuery::Cosine {
                query,
                norm2: query.iter().fold(0.0, |n, &y| n + y * y),
            },
            Metric::L2 => VectorQuery::L2 { query },
        }
    }
}

/// Cosine similarity of two equal-length vectors; `0.0` when either has
/// zero norm (the conventional "no direction" answer, avoiding NaN).
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// Euclidean distance of two equal-length vectors.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        // scale invariance
        let a = [3.0, 4.0];
        let b = [30.0, 40.0];
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_norm_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_similarity(&[1.0, 2.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn l2_basics() {
        assert_eq!(l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn metric_dispatch() {
        assert!(Metric::Cosine.higher_is_closer());
        assert!(!Metric::L2.higher_is_closer());
        assert_eq!(Metric::L2.score(&[0.0], &[2.0]), 2.0);
        assert!((Metric::Cosine.score(&[1.0, 1.0], &[2.0, 2.0]) - 1.0).abs() < 1e-12);
    }
}
