//! Earth Mover's Distance between score histograms.
//!
//! The paper quantifies the difference between two partitions' score
//! distributions with the EMD (Definition 2, citing Pele & Werman's fast
//! EMD work). The implementations live behind the pluggable
//! [`backend::EmdBackend`] trait (single-pair distance plus pairwise-batch
//! entry points); two backends ship:
//!
//! * [`kernel::KernelOneDBackend`] (`1d`, the default) — the exact closed
//!   form for one-dimensional histograms over equal-width bins (the only
//!   case FaiRank needs): the L1 distance between the two CDFs, scaled by
//!   the bin width. A single pair folds with the scalar
//!   [`one_d::emd_1d_mass`]; a batch folds all its pairs together over a
//!   structure-of-arrays mass matrix, one bin level at a time, running the
//!   scalar fold's exact per-pair operation sequence — so both paths give
//!   the same bits.
//! * [`backend::TransportBackend`] (`transport`) — a general minimum-cost
//!   transportation solver (successive shortest paths with potentials)
//!   that accepts arbitrary ground-distance matrices. It is the reference
//!   implementation the 1-D form is validated against, supports
//!   non-uniform ground distances, and solves in a canonical input order
//!   so its distances are bitwise symmetric.
//!
//! Distances are expressed in *score units*: for histograms over `[0, 1]`
//! the EMD between any two probability distributions lies in `[0, 1]`.

pub mod backend;
pub mod kernel;
pub mod one_d;
pub mod transport;

pub use backend::{EmdBackend, TransportBackend};
pub use kernel::KernelOneDBackend;
pub use one_d::emd_1d;
pub use transport::{transport_emd, TransportPlan};

use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::histogram::Histogram;

/// Which EMD implementation to use — the serializable selector behind
/// which the [`backend::EmdBackend`] trait objects live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EmdBackendKind {
    /// Exact 1-D closed form (CDF difference), folded over a
    /// structure-of-arrays batch. Fast path; default.
    #[default]
    OneD,
    /// General transportation solver with `|center_i - center_j|` costs.
    Transport,
}

impl EmdBackendKind {
    /// The command-syntax name of the backend (`1d` / `transport`) — the
    /// single source for both parsing and display.
    pub fn name(&self) -> &'static str {
        match self {
            EmdBackendKind::OneD => "1d",
            EmdBackendKind::Transport => "transport",
        }
    }

    /// Parses a command-syntax backend name. `batched` and `kernel` name
    /// earlier 1-D implementations that gave the same bits as `1d`, so
    /// they stay accepted as aliases of it.
    pub fn parse(s: &str) -> Option<EmdBackendKind> {
        match s {
            "1d" | "batched" | "kernel" => Some(EmdBackendKind::OneD),
            "transport" => Some(EmdBackendKind::Transport),
            _ => None,
        }
    }

    /// Every backend, for sweeps and conformance suites.
    pub fn all() -> [EmdBackendKind; 2] {
        [EmdBackendKind::OneD, EmdBackendKind::Transport]
    }
}

/// Configured EMD distance between histograms.
///
/// Empty-vs-nonempty comparisons are defined as the maximum possible
/// distance under the spec (the range width); empty-vs-empty is zero. The
/// quantification pipeline never creates empty partitions, but interactive
/// exploration can (e.g. after aggressive filtering), and a defined answer
/// beats a panic there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Emd {
    backend: EmdBackendKind,
}

impl Emd {
    /// An EMD using the given backend.
    pub fn new(backend: EmdBackendKind) -> Self {
        Emd { backend }
    }

    /// The backend selector in use.
    pub fn backend(&self) -> EmdBackendKind {
        self.backend
    }

    /// The backend implementation in use.
    pub fn implementation(&self) -> &'static dyn EmdBackend {
        self.backend.implementation()
    }

    /// Distance between two histograms sharing a spec.
    pub fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64> {
        self.implementation().pair(a, b)
    }

    /// All `C(L, 2)` unordered pairwise distances among `hists`, in
    /// lexicographic pair order `(0,1), (0,2), …` — one call per node, so
    /// backends can hoist per-histogram work out of the pair loop.
    pub fn pairwise(&self, hists: &[Histogram]) -> Result<Vec<f64>> {
        let n = hists.len();
        let mut out = Vec::with_capacity(n.saturating_sub(1) * n / 2);
        self.implementation().pairwise(hists, &mut out)?;
        Ok(out)
    }

    /// All `|left| × |right|` cross distances (left outer, right inner).
    pub fn cross(&self, left: &[Histogram], right: &[Histogram]) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(left.len() * right.len());
        self.implementation().cross(left, right, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::HistogramSpec;

    fn hist(scores: &[f64]) -> Histogram {
        Histogram::from_scores(HistogramSpec::unit(10).unwrap(), scores.iter().copied())
    }

    #[test]
    fn identical_histograms_have_zero_distance() {
        let h = hist(&[0.1, 0.5, 0.9]);
        for backend in EmdBackendKind::all() {
            // Exactly +0.0: the engine never computes self-pairs and relies
            // on these bits.
            let d = Emd::new(backend).distance(&h, &h).unwrap();
            assert_eq!(d.to_bits(), 0.0f64.to_bits(), "{backend:?} gave {d}");
        }
    }

    #[test]
    fn opposite_corners_have_maximal_distance() {
        let a = hist(&[0.0]);
        let b = hist(&[1.0]);
        // Mass sits at the centers of the first and last bins: 0.05 and 0.95.
        for backend in EmdBackendKind::all() {
            let d = Emd::new(backend).distance(&a, &b).unwrap();
            assert!((d - 0.9).abs() < 1e-9, "{backend:?} gave {d}");
        }
    }

    #[test]
    fn backends_agree_on_arbitrary_histograms() {
        let a = hist(&[0.05, 0.15, 0.15, 0.35, 0.75, 0.85]);
        let b = hist(&[0.25, 0.45, 0.55, 0.95]);
        let d1 = Emd::new(EmdBackendKind::OneD).distance(&a, &b).unwrap();
        let d2 = Emd::new(EmdBackendKind::Transport).distance(&a, &b).unwrap();
        let oracle = one_d::emd_1d_mass(&a.mass(), &b.mass(), a.spec().bin_width());
        assert!((d1 - d2).abs() < 1e-9, "one_d={d1} transport={d2}");
        assert_eq!(d1.to_bits(), oracle.to_bits(), "one_d={d1} scalar={oracle}");
    }

    #[test]
    fn distance_is_bitwise_symmetric_for_every_backend() {
        let a = hist(&[0.1, 0.2, 0.3]);
        let b = hist(&[0.7, 0.8]);
        for backend in EmdBackendKind::all() {
            let emd = Emd::new(backend);
            let ab = emd.distance(&a, &b).unwrap();
            let ba = emd.distance(&b, &a).unwrap();
            assert_eq!(ab.to_bits(), ba.to_bits(), "{backend:?}: {ab} vs {ba}");
        }
    }

    #[test]
    fn empty_histogram_conventions() {
        let spec = HistogramSpec::unit(10).unwrap();
        let empty = Histogram::empty(spec);
        let full = hist(&[0.5]);
        for backend in EmdBackendKind::all() {
            let emd = Emd::new(backend);
            assert_eq!(emd.distance(&empty, &empty).unwrap(), 0.0);
            assert_eq!(emd.distance(&empty, &full).unwrap(), 1.0);
            assert_eq!(emd.distance(&full, &empty).unwrap(), 1.0);
        }
    }

    #[test]
    fn incompatible_specs_error() {
        let a = Histogram::empty(HistogramSpec::unit(5).unwrap());
        let b = Histogram::empty(HistogramSpec::unit(10).unwrap());
        assert!(Emd::default().distance(&a, &b).is_err());
    }

    #[test]
    fn pairwise_entry_matches_per_pair_distances() {
        let hists = vec![hist(&[0.05, 0.05]), hist(&[0.55, 0.55]), hist(&[0.95])];
        for backend in EmdBackendKind::all() {
            let emd = Emd::new(backend);
            let batch = emd.pairwise(&hists).unwrap();
            assert_eq!(batch.len(), 3);
            let mut k = 0;
            for i in 0..hists.len() {
                for j in (i + 1)..hists.len() {
                    let d = emd.distance(&hists[i], &hists[j]).unwrap();
                    assert_eq!(d.to_bits(), batch[k].to_bits(), "{backend:?} pair {i},{j}");
                    k += 1;
                }
            }
            assert!(emd.pairwise(&hists[..1]).unwrap().is_empty());
            assert!(emd.pairwise(&[]).unwrap().is_empty());
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in EmdBackendKind::all() {
            assert_eq!(EmdBackendKind::parse(backend.name()), Some(backend));
        }
        for alias in ["batched", "kernel"] {
            assert_eq!(EmdBackendKind::parse(alias), Some(EmdBackendKind::OneD));
        }
        assert_eq!(EmdBackendKind::parse("nonsense"), None);
    }
}
