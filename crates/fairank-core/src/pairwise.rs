//! Pairwise EMD computations over sets of histograms.
//!
//! The quantification objective repeatedly needs (a) all unordered pairwise
//! distances within a partitioning and (b) cross distances between a
//! candidate family and a set of siblings (Algorithm 1 lines 4 and 8).
//! Distances are symmetric, so the full matrix stores only the upper
//! triangle. Both aggregations hand the whole histogram set to the
//! configured backend in one call ([`Emd::pairwise`] / [`Emd::cross`]), so
//! a backend can hoist per-histogram work out of the pair loop.

use crate::emd::Emd;
use crate::error::Result;
use crate::histogram::Histogram;

/// All unordered pairwise distances between `hists`, in lexicographic pair
/// order `(0,1), (0,2), …, (n-2, n-1)`. Fewer than two histograms yield an
/// empty vector.
pub fn pairwise_distances(hists: &[Histogram], emd: &Emd) -> Result<Vec<f64>> {
    if hists.len() < 2 {
        return Ok(Vec::new());
    }
    emd.pairwise(hists)
}

/// All distances between each histogram in `left` and each in `right`
/// (the `EMD(children, siblings, f)` set of Algorithm 1 line 8).
pub fn cross_distances(left: &[Histogram], right: &[Histogram], emd: &Emd) -> Result<Vec<f64>> {
    emd.cross(left, right)
}

/// A symmetric distance matrix with zero diagonal, stored as the upper
/// triangle. Used by reports to show which pair of groups diverges most.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    upper: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes the full matrix for `hists`.
    pub fn compute(hists: &[Histogram], emd: &Emd) -> Result<Self> {
        let upper = pairwise_distances(hists, emd)?;
        Ok(DistanceMatrix {
            n: hists.len(),
            upper,
        })
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a 0×0 matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between items `i` and `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            return 0.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        // Offset of pair (a, b) in lexicographic upper-triangle order.
        let idx = a * self.n - a * (a + 1) / 2 + (b - a - 1);
        self.upper[idx]
    }

    /// The flattened upper triangle in pair order.
    pub fn distances(&self) -> &[f64] {
        &self.upper
    }

    /// The `(i, j, distance)` of the maximally distant pair, if any.
    pub fn max_pair(&self) -> Option<(usize, usize, f64)> {
        self.iter_pairs()
            .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// The `(i, j, distance)` of the minimally distant pair, if any.
    pub fn min_pair(&self) -> Option<(usize, usize, f64)> {
        self.iter_pairs()
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Iterates `(i, j, distance)` over the upper triangle.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.n;
        (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j, self.get(i, j))))
    }

    /// Mean distance from item `i` to every other item (used to rank the
    /// most "isolated" — i.e. most unfairly treated — group).
    pub fn mean_from(&self, i: usize) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let sum: f64 = (0..self.n).filter(|&j| j != i).map(|j| self.get(i, j)).sum();
        sum / (self.n - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::{Histogram, HistogramSpec};

    fn hists() -> Vec<Histogram> {
        let spec = HistogramSpec::unit(10).unwrap();
        vec![
            Histogram::from_scores(spec, [0.05, 0.05]),
            Histogram::from_scores(spec, [0.55, 0.55]),
            Histogram::from_scores(spec, [0.95, 0.95]),
        ]
    }

    #[test]
    fn pairwise_count_and_values() {
        let d = pairwise_distances(&hists(), &Emd::default()).unwrap();
        assert_eq!(d.len(), 3);
        assert!((d[0] - 0.5).abs() < 1e-9); // bin 0 center 0.05 -> bin 5 center 0.55
        assert!((d[1] - 0.9).abs() < 1e-9);
        assert!((d[2] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn pairwise_of_small_sets_is_empty() {
        let spec = HistogramSpec::unit(4).unwrap();
        let h = Histogram::from_scores(spec, [0.5]);
        assert!(pairwise_distances(&[], &Emd::default()).unwrap().is_empty());
        assert!(pairwise_distances(std::slice::from_ref(&h), &Emd::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn cross_distances_shape() {
        let hs = hists();
        let d = cross_distances(&hs[..1], &hs[1..], &Emd::default()).unwrap();
        assert_eq!(d.len(), 2);
        let d2 = cross_distances(&hs, &hs, &Emd::default()).unwrap();
        assert_eq!(d2.len(), 9);
        // Diagonal entries of the self-cross are zero.
        assert!(d2[0].abs() < 1e-12 && d2[4].abs() < 1e-12 && d2[8].abs() < 1e-12);
    }

    #[test]
    fn matrix_indexing_is_symmetric() {
        let m = DistanceMatrix::compute(&hists(), &Emd::default()).unwrap();
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
        assert!((m.get(0, 2) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn matrix_extremes() {
        let m = DistanceMatrix::compute(&hists(), &Emd::default()).unwrap();
        let (i, j, d) = m.max_pair().unwrap();
        assert_eq!((i, j), (0, 2));
        assert!((d - 0.9).abs() < 1e-9);
        let (i, j, d) = m.min_pair().unwrap();
        assert_eq!((i, j), (1, 2));
        assert!((d - 0.4).abs() < 1e-9);
    }

    #[test]
    fn mean_from_ranks_isolation() {
        let m = DistanceMatrix::compute(&hists(), &Emd::default()).unwrap();
        // Item 0 (low scores) is farther from the others on average than 1.
        assert!(m.mean_from(0) > m.mean_from(1));
    }

    #[test]
    fn empty_matrix() {
        let m = DistanceMatrix::compute(&[], &Emd::default()).unwrap();
        assert!(m.is_empty());
        assert!(m.max_pair().is_none());
        assert!(m.min_pair().is_none());
        assert_eq!(m.mean_from(0), 0.0);
    }
}
