//! Transform-domain weight pruning (Eqs. (6)–(8) of the paper) and the
//! compressed kernel representation the SCU array consumes.

use crate::TransformPair;
use nvc_tensor::mat::Mat;
use nvc_tensor::TensorError;

/// Sparsity level ρ — the fraction of transform-domain weights *removed*
/// from every kernel. The paper evaluates CTVC-Net at ρ = 50 %.
///
/// # Example
///
/// ```
/// use nvc_fastalg::Sparsity;
/// let rho = Sparsity::new(0.5).unwrap();
/// assert_eq!(rho.kept_of(64), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sparsity(f64);

impl Sparsity {
    /// Creates a sparsity level.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0.0 <= rho < 1.0`.
    pub fn new(rho: f64) -> Result<Self, TensorError> {
        if !(0.0..1.0).contains(&rho) {
            return Err(TensorError::invalid(format!(
                "sparsity {rho} outside [0, 1)"
            )));
        }
        Ok(Sparsity(rho))
    }

    /// Dense (no pruning).
    pub fn dense() -> Self {
        Sparsity(0.0)
    }

    /// The ratio ρ.
    pub fn ratio(&self) -> f64 {
        self.0
    }

    /// Number of weights kept out of `total` (at least 1).
    pub fn kept_of(&self, total: usize) -> usize {
        let kept = ((total as f64) * (1.0 - self.0)).round() as usize;
        kept.clamp(1, total)
    }
}

impl Default for Sparsity {
    fn default() -> Self {
        Sparsity::dense()
    }
}

/// A pruned transform-domain kernel in compressed (value, index) form —
/// what the paper's Weight Buffer and Index Buffer hold, and what the
/// software executor consumes directly (the tiled executor's grouped
/// sparse kernel iterates exactly these pairs; see
/// `crate::tile_exec`). There is no dense execution copy: pruning a
/// kernel shrinks both its storage and its per-tile work.
///
/// Indices address the flattened `µ × µ` transform-domain tile in row-major
/// order and are strictly increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseKernel {
    mu: usize,
    values: Vec<f32>,
    indices: Vec<u16>,
}

impl SparseKernel {
    /// Compresses a (possibly masked) dense transform-domain kernel,
    /// keeping only non-zero entries.
    ///
    /// # Errors
    ///
    /// Returns an error if `e` is not square or exceeds `u16` indexing.
    pub fn from_dense(e: &Mat) -> Result<Self, TensorError> {
        if e.rows() != e.cols() {
            return Err(TensorError::incompatible("transform kernel must be square"));
        }
        if e.rows() * e.cols() > u16::MAX as usize {
            return Err(TensorError::invalid("kernel too large for u16 indices"));
        }
        let mu = e.rows();
        let mut values = Vec::new();
        let mut indices = Vec::new();
        for (i, &v) in e.as_slice().iter().enumerate() {
            if v != 0.0 {
                values.push(v);
                indices.push(i as u16);
            }
        }
        Ok(SparseKernel {
            mu,
            values,
            indices,
        })
    }

    /// Transform-domain side length µ.
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Row-major indices into the `µ × µ` tile, strictly increasing.
    pub fn indices(&self) -> &[u16] {
        &self.indices
    }

    /// Reconstructs the dense `µ × µ` kernel.
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.mu, self.mu);
        for (&v, &i) in self.values.iter().zip(&self.indices) {
            m.as_mut_slice()[i as usize] = v;
        }
        m
    }

    /// Whether every transform-domain position is populated (the
    /// indices are exactly `0..µ²`).
    pub fn is_dense(&self) -> bool {
        self.values.len() == self.mu * self.mu
    }

    /// Hadamard-accumulate: `acc[idx] += value · y[idx]` for every stored
    /// non-zero, where `y` is the flattened transform-domain input tile —
    /// the SCU inner loop ("non-zero element selector" feeding the
    /// multipliers). Consumes the compressed `(value, index)` form
    /// directly: pruned positions are skipped, not multiplied by zero, so
    /// the work per tile is `nnz`, not `µ²`. Skipping cannot change the
    /// sums: a zero contribution adds exactly `+0.0`, and an IEEE-754
    /// accumulator seeded with `+0.0` is unaffected by adding `±0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `y` or `acc` is shorter than `µ²`.
    #[inline]
    pub fn hadamard_accumulate(&self, y: &[f32], acc: &mut [f32]) {
        let mu2 = self.mu * self.mu;
        assert!(y.len() >= mu2 && acc.len() >= mu2);
        if self.is_dense() {
            // Contiguous fast path for unpruned kernels.
            for ((a, &v), &yv) in acc[..mu2].iter_mut().zip(&self.values).zip(&y[..mu2]) {
                *a += v * yv;
            }
            return;
        }
        for (&v, &i) in self.values.iter().zip(&self.indices) {
            acc[i as usize] += v * y[i as usize];
        }
    }
}

/// One output channel's packed reduction stream for the tiled
/// executor, in coefficient-major CSR form: for every transform-domain
/// coefficient `j`, the `(staging slot, value)` pairs of the kernels that
/// kept `j`, with slots ascending inside each row.
///
/// Grouping per output channel (and walking coefficients outermost)
/// keeps the summation order of every output element fixed —
/// contributions still arrive in ascending input channel, one per kept
/// coefficient — while letting the executor hold coefficient `j`'s
/// accumulator lanes in registers across the whole channel reduction.
/// A dense kernel is simply present in all `µ²` rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoStream {
    /// CSR row starts, one per coefficient plus the end (`µ² + 1`).
    pub starts: Vec<u32>,
    /// Kept transform-domain weights, coefficient-major.
    pub values: Vec<f32>,
    /// Staging slot (see [`PackedKernels::live`]) per value.
    pub slot: Vec<u16>,
}

/// A `[co][ci]`-indexed kernel table packed for the tiled executor: one
/// [`CoStream`] per output channel, over compact staging slots that
/// cover only the input channels some kept weight reads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PackedKernels {
    /// One reduction stream per output channel.
    pub streams: Vec<CoStream>,
    /// The input channel each staging slot holds, ascending. A channel
    /// every kernel ignores gets no slot, so it is never transformed.
    pub live: Vec<usize>,
    /// Whether any kernel stores fewer than `µ²` weights; such layers
    /// report under the sparse kernel-family histograms.
    pub sparse: bool,
}

impl PackedKernels {
    /// Packs `kernels` (see [`CoStream`] for the ordering guarantee).
    pub(crate) fn new(kernels: &[SparseKernel], c_in: usize) -> Self {
        debug_assert!(c_in > 0 && kernels.len().is_multiple_of(c_in));
        let mu2 = kernels.first().map_or(0, |k| k.mu * k.mu);
        let live: Vec<usize> = (0..c_in)
            .filter(|&ci| kernels.iter().skip(ci).step_by(c_in).any(|k| k.nnz() > 0))
            .collect();
        let mut slot_of = vec![0_u16; c_in];
        for (slot, &ci) in live.iter().enumerate() {
            slot_of[ci] = slot as u16;
        }
        let streams = kernels
            .chunks(c_in)
            .map(|row| {
                // Bucket each kernel's non-zeros by coefficient; the ci
                // loop is outermost, so every bucket ends up ascending.
                let mut buckets: Vec<Vec<(u16, f32)>> = vec![Vec::new(); mu2];
                for (ci, k) in row.iter().enumerate() {
                    for (&v, &i) in k.values.iter().zip(&k.indices) {
                        buckets[i as usize].push((slot_of[ci], v));
                    }
                }
                let nnz: usize = buckets.iter().map(Vec::len).sum();
                let mut stream = CoStream {
                    starts: Vec::with_capacity(mu2 + 1),
                    values: Vec::with_capacity(nnz),
                    slot: Vec::with_capacity(nnz),
                };
                stream.starts.push(0);
                for bucket in &buckets {
                    for &(slot, v) in bucket {
                        stream.slot.push(slot);
                        stream.values.push(v);
                    }
                    stream.starts.push(stream.values.len() as u32);
                }
                stream
            })
            .collect();
        PackedKernels {
            streams,
            live,
            sparse: kernels.iter().any(|k| !k.is_dense()),
        }
    }
}

/// Outcome of pruning one kernel: the masked dense kernel plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneReport {
    /// Masked transform-domain kernel (`M ⊙ E`).
    pub masked: Mat,
    /// Number of non-zeros kept.
    pub kept: usize,
    /// Number of positions zeroed by the mask (regardless of whether the
    /// original value was already zero).
    pub pruned: usize,
    /// The effective threshold ζ: smallest kept score.
    pub threshold: f64,
}

/// Prunes one transform-domain kernel `E = G W Gᵀ` per Eqs. (6)–(8):
/// scores every position by `Q²ᵢⱼ · E²ᵢⱼ`, keeps the top
/// `(1−ρ)·µ²` positions and zeroes the rest.
///
/// The per-kernel top-k rule (rather than a global threshold) realises the
/// *fine-grained structured sparsity* of §IV-B-1: every kernel has exactly
/// the same non-zero count, so the `64ρ` multipliers of each SCU are always
/// fully utilised and the workload stays balanced.
///
/// # Errors
///
/// Returns an error if `e` and the transform's µ disagree.
pub fn prune(
    transform: &TransformPair,
    e: &Mat,
    rho: Sparsity,
) -> Result<PruneReport, TensorError> {
    let mu = transform.mu();
    if e.rows() != mu || e.cols() != mu {
        return Err(TensorError::incompatible(format!(
            "kernel is {}x{}, transform µ is {mu}",
            e.rows(),
            e.cols()
        )));
    }
    let q = transform.importance();
    let total = mu * mu;
    let kept = rho.kept_of(total);
    let mut scored: Vec<(f64, usize)> = (0..total)
        .map(|idx| {
            let qv = q.as_slice()[idx] as f64;
            let ev = e.as_slice()[idx] as f64;
            (qv * qv * ev * ev, idx)
        })
        .collect();
    // Sort descending by score; ties broken by index for determinism.
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let mut masked = Mat::zeros(mu, mu);
    let mut threshold = f64::INFINITY;
    for &(score, idx) in scored.iter().take(kept) {
        masked.as_mut_slice()[idx] = e.as_slice()[idx];
        threshold = threshold.min(score);
    }
    Ok(PruneReport {
        masked,
        kept,
        pruned: total - kept,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fta_t3_6x6_4x4, winograd_f2x2_3x3};
    use nvc_tensor::init::Gaussian;

    fn randmat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut g = Gaussian::new(seed);
        let mut data = vec![0.0; rows * cols];
        g.fill(&mut data, 1.0);
        Mat::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn sparsity_validation_and_counts() {
        assert!(Sparsity::new(1.0).is_err());
        assert!(Sparsity::new(-0.1).is_err());
        let s = Sparsity::new(0.5).unwrap();
        assert_eq!(s.kept_of(16), 8);
        assert_eq!(s.kept_of(64), 32);
        assert_eq!(Sparsity::new(0.75).unwrap().kept_of(16), 4);
        // Never prunes everything.
        assert_eq!(Sparsity::new(0.99).unwrap().kept_of(4), 1);
        assert_eq!(Sparsity::default().kept_of(64), 64);
    }

    #[test]
    fn prune_keeps_exact_count_per_kernel() {
        let t = winograd_f2x2_3x3();
        for seed in 0..8 {
            let w = randmat(3, 3, seed);
            let e = t.transform_kernel(&w).unwrap();
            let rep = prune(&t, &e, Sparsity::new(0.5).unwrap()).unwrap();
            assert_eq!(rep.kept, 8);
            let nnz = rep.masked.as_slice().iter().filter(|&&v| v != 0.0).count();
            assert!(nnz <= 8, "structural zeros may reduce nnz below kept");
            assert_eq!(rep.pruned, 8);
        }
    }

    #[test]
    fn prune_respects_importance_weighting() {
        // Build E with a huge value at a low-importance position and a
        // modest value at high-importance; with magnitude-only pruning the
        // huge value always wins, with Q-weighting the comparison is
        // rescaled. We verify the kept set is chosen by Q²E², not E².
        let t = winograd_f2x2_3x3();
        let q = t.importance();
        let mut e = Mat::zeros(4, 4);
        // Find min- and max-importance positions.
        let (mut min_i, mut max_i) = (0, 0);
        for (i, &v) in q.as_slice().iter().enumerate() {
            if v < q.as_slice()[min_i] {
                min_i = i;
            }
            if v > q.as_slice()[max_i] {
                max_i = i;
            }
        }
        let ratio = q.as_slice()[max_i] / q.as_slice()[min_i];
        assert!(
            ratio > 1.0 + 1e-3,
            "transform must have non-uniform importance"
        );
        // Value at min-importance slightly larger in magnitude, but not
        // enough to overcome the importance gap.
        e.as_mut_slice()[min_i] = 1.1;
        e.as_mut_slice()[max_i] = 1.0;
        let rep = prune(&t, &e, Sparsity::new(15.0 / 16.0).unwrap()).unwrap();
        assert_eq!(rep.kept, 1);
        assert_eq!(rep.masked.as_slice()[max_i], 1.0, "importance must win");
        assert_eq!(rep.masked.as_slice()[min_i], 0.0);
    }

    #[test]
    fn sparse_kernel_roundtrip() {
        let t = fta_t3_6x6_4x4();
        let w = randmat(4, 4, 3);
        let e = t.transform_kernel(&w).unwrap();
        let rep = prune(&t, &e, Sparsity::new(0.5).unwrap()).unwrap();
        let sk = SparseKernel::from_dense(&rep.masked).unwrap();
        assert!(sk.nnz() <= 32);
        assert_eq!(sk.to_dense(), rep.masked);
        // Indices strictly increasing.
        for w in sk.indices().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn hadamard_accumulate_matches_dense() {
        let t = fta_t3_6x6_4x4();
        let w = randmat(4, 4, 4);
        let e = t.transform_kernel(&w).unwrap();
        let rep = prune(&t, &e, Sparsity::new(0.5).unwrap()).unwrap();
        let sk = SparseKernel::from_dense(&rep.masked).unwrap();
        let y = randmat(8, 8, 5);
        let mut acc = vec![0.0_f32; 64];
        sk.hadamard_accumulate(y.as_slice(), &mut acc);
        let dense = rep.masked.hadamard(&y).unwrap();
        for (a, b) in acc.iter().zip(dense.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn packed_streams_cover_every_kernel_in_ci_order() {
        let t = fta_t3_6x6_4x4();
        let c_in = 3;
        let kernels: Vec<SparseKernel> = (0..6)
            .map(|seed| {
                // Input channel 1 is read by no output channel.
                if seed % c_in == 1 {
                    return SparseKernel::from_dense(&Mat::zeros(8, 8)).unwrap();
                }
                let w = randmat(4, 4, seed as u64);
                let e = t.transform_kernel(&w).unwrap();
                let rep = prune(&t, &e, Sparsity::new(0.5).unwrap()).unwrap();
                SparseKernel::from_dense(&rep.masked).unwrap()
            })
            .collect();
        let packed = PackedKernels::new(&kernels, c_in);
        assert_eq!(packed.live, [0, 2], "the unread channel gets no slot");
        assert!(packed.sparse);
        assert_eq!(packed.streams.len(), 2);
        for (co, stream) in packed.streams.iter().enumerate() {
            assert_eq!(stream.starts.len(), 65);
            assert_eq!(
                stream.values.len(),
                kernels[co * c_in..][..c_in]
                    .iter()
                    .map(SparseKernel::nnz)
                    .sum::<usize>()
            );
            // Every CSR row is slot- and so ci-ascending (the fixed
            // summation order), and each (ci, coeff) entry matches the
            // source kernel.
            for j in 0..64 {
                let (s0, s1) = (stream.starts[j] as usize, stream.starts[j + 1] as usize);
                let row_slot = &stream.slot[s0..s1];
                assert!(row_slot.windows(2).all(|w| w[0] < w[1]), "co={co} j={j}");
                for (&slot, &v) in row_slot.iter().zip(&stream.values[s0..s1]) {
                    let ci = packed.live[slot as usize];
                    let dense = kernels[co * c_in + ci].to_dense();
                    assert_eq!(dense.as_slice()[j], v, "co={co} ci={ci} j={j}");
                }
            }
        }
    }

    #[test]
    fn dense_kernels_report_density() {
        let t = winograd_f2x2_3x3();
        let mut e = Mat::zeros(4, 4);
        for (i, v) in e.as_mut_slice().iter_mut().enumerate() {
            *v = (i + 1) as f32;
        }
        let dense = SparseKernel::from_dense(&e).unwrap();
        assert!(dense.is_dense());
        let rep = prune(&t, &e, Sparsity::new(0.5).unwrap()).unwrap();
        let sparse = SparseKernel::from_dense(&rep.masked).unwrap();
        assert!(!sparse.is_dense());
    }

    #[test]
    fn zero_sparsity_is_identity_mask() {
        let t = winograd_f2x2_3x3();
        let w = randmat(3, 3, 9);
        let e = t.transform_kernel(&w).unwrap();
        let rep = prune(&t, &e, Sparsity::dense()).unwrap();
        assert_eq!(rep.masked, e);
        assert_eq!(rep.pruned, 0);
    }
}
