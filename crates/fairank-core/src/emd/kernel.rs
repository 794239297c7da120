//! The 1-D EMD backend (`1d`) and its structure-of-arrays kernel.
//!
//! [`one_d::emd_1d_mass`] folds one pair at a time: for each bin it updates
//! a running CDF difference and accumulates its absolute value. That fold
//! is a chain of dependent adds, so a per-pair loop leaves the FPU idle
//! between bins. This module transposes the computation: masses are laid
//! out bin-major (`soa[bin * width + slot]`, one *slot* per histogram of
//! the batch) and pairs advance in blocks of [`LANES`], one bin level at a
//! time, with each block's `cum`/`total` accumulators held in registers
//! for the whole sweep. The inner loop over a block's lanes is branchless
//! (`abs` is a sign-bit mask) and carries no lane-to-lane dependency, so
//! the lanes' chains overlap; the dependent chain of any single pair is
//! unchanged.
//!
//! Bit-identity: for a fixed pair `p`, the kernel executes *exactly* the
//! reference sequence — `cum[p] += a_i − b_i; total[p] += |cum[p]|` for
//! `i = 0, 1, …` — only interleaved with other pairs' (independent) IEEE
//! operations. Floating-point results depend on the operation sequence per
//! value, not on scheduling across independent values, so every distance is
//! bit-identical (0 ULP) to the scalar [`one_d::emd_1d_mass`] fold. The
//! conformance suite (`tests/emd_backend_equivalence.rs`) pins this.
//!
//! [`fold_pairs`] is also the fold the engine's memo-miss path runs on its
//! cached mass arena, so a QUANTIFY and a direct [`KernelOneDBackend`]
//! batch compute the same bits.
//!
//! [`one_d::emd_1d_mass`]: super::one_d::emd_1d_mass

use crate::error::Result;
use crate::histogram::{Histogram, HistogramSpec};

use super::backend::EmdBackend;
use super::EmdBackendKind;

/// One pair of slots (indices into the batch's SoA columns) to fold.
pub(crate) type SlotPair = (u32, u32);

/// Pairs folded together as one block: a block's accumulators stay in
/// registers for the whole bin sweep.
const LANES: usize = 8;

/// Folds every `(a, b)` pair of `pairs` over a bin-major SoA mass matrix
/// (`soa[bin * width + slot]`, one `width`-long level per bin), appending one
/// distance per pair to `out` in `pairs` order. Pairs advance in blocks
/// of [`LANES`]; a short last block is padded with self-pairs of slot 0
/// whose results are dropped. Empty-histogram conventions are the
/// caller's business: the kernel folds whatever masses it is given
/// (all-zero columns fold to 0).
pub(crate) fn fold_pairs(
    soa: &[f64],
    width: usize,
    pairs: &[SlotPair],
    bin_width: f64,
    out: &mut Vec<f64>,
) {
    debug_assert!(
        width > 0 && soa.len().is_multiple_of(width),
        "SoA matrix must be bins × width"
    );
    for block in pairs.chunks(LANES) {
        let mut lanes = [(0, 0); LANES];
        lanes[..block.len()].copy_from_slice(block);
        let mut cum = [0.0f64; LANES];
        let mut total = [0.0f64; LANES];
        for level in soa.chunks_exact(width) {
            // Branchless and dependency-free across lanes: each lane
            // updates its own accumulators with the reference fold's two
            // operations.
            for (l, &(a, b)) in lanes.iter().enumerate() {
                let c = cum[l] + (level[a as usize] - level[b as usize]);
                cum[l] = c;
                total[l] += c.abs();
            }
        }
        out.extend(total[..block.len()].iter().map(|t| t * bin_width));
    }
}

/// Scatters each histogram's normalized mass into its column (slot) of a
/// bin-major SoA matrix sized `bins × width`.
fn fill_soa<'h>(hists: impl Iterator<Item = &'h Histogram>, width: usize, bins: usize) -> Vec<f64> {
    let mut soa = vec![0.0f64; bins * width];
    let mut mass = vec![0.0f64; bins];
    for (slot, h) in hists.enumerate() {
        h.mass_into(&mut mass);
        for (bin, &m) in mass.iter().enumerate() {
            soa[bin * width + slot] = m;
        }
    }
    soa
}

/// Checks that all histograms of a batch share `spec`, and records which
/// are empty (conventions are applied per pair after the fold).
fn check_batch(hists: &[Histogram], spec: &HistogramSpec) -> Result<Vec<bool>> {
    let probe = Histogram::empty(*spec);
    hists
        .iter()
        .map(|h| probe.check_compatible(h).map(|()| h.is_empty()))
        .collect()
}

/// The 1-D closed-form backend (`1d`, the default): single pairs fold with
/// the scalar [`super::one_d::emd_1d_mass`], batch entry points fold all
/// pairs together one bin level at a time — the same bits either way.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelOneDBackend;

impl KernelOneDBackend {
    /// Shared tail of both batch entry points: fold every pair over the
    /// SoA matrix, then overwrite the pairs a convention decides.
    fn fold_batch(
        soa: &[f64],
        width: usize,
        spec: &HistogramSpec,
        empties: &[bool],
        pairs: &[SlotPair],
        out: &mut Vec<f64>,
    ) {
        let base = out.len();
        fold_pairs(soa, width, pairs, spec.bin_width(), out);
        for (p, &(a, b)) in pairs.iter().enumerate() {
            if let Some(d) =
                super::backend::convention(empties[a as usize], empties[b as usize], spec)
            {
                out[base + p] = d;
            }
        }
    }
}

impl EmdBackend for KernelOneDBackend {
    fn kind(&self) -> EmdBackendKind {
        EmdBackendKind::OneD
    }

    fn pair(&self, a: &Histogram, b: &Histogram) -> Result<f64> {
        // A single pair has no batch to transpose over; the scalar fold
        // already is the per-pair sequence.
        super::backend::one_d_pair(a, b)
    }

    fn pairwise(&self, hists: &[Histogram], out: &mut Vec<f64>) -> Result<()> {
        let Some(first) = hists.first() else {
            return Ok(());
        };
        let spec = *first.spec();
        let empties = check_batch(hists, &spec)?;
        let n = hists.len();
        let soa = fill_soa(hists.iter(), n, spec.bins());
        let mut pairs = Vec::with_capacity(n.saturating_sub(1) * n / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((i as u32, j as u32));
            }
        }
        Self::fold_batch(&soa, n, &spec, &empties, &pairs, out);
        Ok(())
    }

    fn cross(&self, left: &[Histogram], right: &[Histogram], out: &mut Vec<f64>) -> Result<()> {
        let Some(first) = left.first() else {
            return Ok(());
        };
        let spec = *first.spec();
        let mut empties = check_batch(left, &spec)?;
        empties.extend(check_batch(right, &spec)?);
        // One SoA over both sides: left occupies slots 0..|L|, right the
        // rest, so a pair is (left slot, |L| + right slot).
        let width = left.len() + right.len();
        let soa = fill_soa(left.iter().chain(right), width, spec.bins());
        let mut pairs = Vec::with_capacity(left.len() * right.len());
        for i in 0..left.len() {
            for j in 0..right.len() {
                pairs.push((i as u32, (left.len() + j) as u32));
            }
        }
        Self::fold_batch(&soa, width, &spec, &empties, &pairs, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd::one_d::emd_1d_mass;
    use crate::histogram::HistogramSpec;

    fn hist(scores: &[f64]) -> Histogram {
        Histogram::from_scores(HistogramSpec::unit(10).unwrap(), scores.iter().copied())
    }

    /// The scalar closed form on normalized masses — the bit-level oracle.
    fn scalar(a: &Histogram, b: &Histogram) -> f64 {
        emd_1d_mass(&a.mass(), &b.mass(), a.spec().bin_width())
    }

    #[test]
    fn fold_pairs_matches_reference_fold_bitwise() {
        let masses = [
            vec![0.5, 0.25, 0.125, 0.0625, 0.0625],
            vec![0.1, 0.2, 0.3, 0.25, 0.15],
            vec![0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.33, 0.17, 0.0, 0.29, 0.21],
        ];
        let bins = 5;
        let width = masses.len();
        let mut soa = vec![0.0; bins * width];
        for (slot, m) in masses.iter().enumerate() {
            for (bin, &v) in m.iter().enumerate() {
                soa[bin * width + slot] = v;
            }
        }
        let pairs: Vec<SlotPair> =
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 0)];
        let mut out = Vec::new();
        fold_pairs(&soa, width, &pairs, 0.2, &mut out);
        for (k, &(a, b)) in pairs.iter().enumerate() {
            let reference = emd_1d_mass(&masses[a as usize], &masses[b as usize], 0.2);
            assert_eq!(out[k].to_bits(), reference.to_bits(), "pair {a},{b}");
        }
    }

    #[test]
    fn kernel_batches_are_bit_identical_to_one_d() {
        let hists = vec![
            hist(&[0.05, 0.15, 0.15, 0.35, 0.75, 0.85]),
            hist(&[0.25, 0.45, 0.55, 0.95]),
            hist(&[0.95, 0.95]),
            hist(&[0.05]),
        ];
        let mut kernel = Vec::new();
        KernelOneDBackend.pairwise(&hists, &mut kernel).unwrap();
        let mut reference = Vec::new();
        for i in 0..hists.len() {
            for j in (i + 1)..hists.len() {
                reference.push(scalar(&hists[i], &hists[j]));
            }
        }
        assert_eq!(reference.len(), kernel.len());
        for (r, k) in reference.iter().zip(&kernel) {
            assert_eq!(r.to_bits(), k.to_bits());
        }
        let (left, right) = hists.split_at(2);
        let mut kernel = Vec::new();
        KernelOneDBackend.cross(left, right, &mut kernel).unwrap();
        let reference: Vec<f64> = left
            .iter()
            .flat_map(|a| right.iter().map(move |b| scalar(a, b)))
            .collect();
        assert_eq!(reference.len(), kernel.len());
        for (r, k) in reference.iter().zip(&kernel) {
            assert_eq!(r.to_bits(), k.to_bits());
        }
        let d = KernelOneDBackend.pair(&hists[0], &hists[1]).unwrap();
        assert_eq!(d.to_bits(), scalar(&hists[0], &hists[1]).to_bits());
    }

    #[test]
    fn kernel_batches_honor_empty_conventions() {
        let spec = HistogramSpec::unit(10).unwrap();
        let empty = Histogram::empty(spec);
        let full = hist(&[0.5]);
        let hists = vec![empty.clone(), full.clone(), Histogram::empty(spec)];
        let mut out = Vec::new();
        KernelOneDBackend.pairwise(&hists, &mut out).unwrap();
        assert_eq!(out, vec![1.0, 0.0, 1.0]);
        let mut out = Vec::new();
        KernelOneDBackend
            .cross(std::slice::from_ref(&empty), &hists, &mut out)
            .unwrap();
        assert_eq!(out, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn kernel_rejects_incompatible_specs_in_batches() {
        let a = Histogram::empty(HistogramSpec::unit(5).unwrap());
        let b = Histogram::empty(HistogramSpec::unit(10).unwrap());
        let mut out = Vec::new();
        assert!(KernelOneDBackend.pairwise(&[a.clone(), b.clone()], &mut out).is_err());
        let mut out = Vec::new();
        assert!(KernelOneDBackend
            .cross(std::slice::from_ref(&a), std::slice::from_ref(&b), &mut out)
            .is_err());
    }
}
