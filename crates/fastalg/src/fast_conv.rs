use crate::sparse::{pack_co_streams, prune, CoStream, SparseKernel, Sparsity};
use crate::tile_exec::{forward_tiled, KernelFamily, TileProblem};
use crate::transforms::{winograd_f2x2_3x3, TransformPair};
use nvc_core::ExecCtx;
use nvc_tensor::mat::Mat;
use nvc_tensor::ops::Conv2d;
use nvc_tensor::{Tensor, TensorError};

/// A 3×3 stride-1 convolution executed through the Winograd
/// `F(2×2, 3×3)` transform pipeline, optionally with transform-domain
/// pruning — the software model of what the SFTC computes for Convs.
///
/// Construction transforms every `(c_out, c_in)` kernel once
/// (`E = G W Gᵀ`); `forward` then per input tile computes `Y = Bᵀ X B`,
/// accumulates `Σ_ci E ⊙ Y` over input channels *in the transform domain*
/// (exactly like the SCU array, which reduces channels before the single
/// inverse transform), and applies `V = Aᵀ U A`.
///
/// # Example
///
/// ```
/// use nvc_fastalg::{FastConv2d, Sparsity};
/// use nvc_tensor::{ops::Conv2d, Shape, Tensor};
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// let conv = Conv2d::randn(8, 4, 3, 1, 1, 42)?;
/// let sparse = FastConv2d::from_conv_pruned(&conv, Sparsity::new(0.5)?)?;
/// let y = sparse.forward(&Tensor::zeros(Shape::new(1, 4, 16, 16)))?;
/// assert_eq!(y.shape().dims(), (1, 8, 16, 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FastConv2d {
    transform: TransformPair,
    /// Compressed transform-domain kernels, indexed `[co * c_in + ci]`.
    kernels: Vec<SparseKernel>,
    /// Packed per-output-channel reduction streams, built once at
    /// construction when any kernel is pruned (the grouped compressed
    /// executor consumes these; `None` selects the dense path).
    streams: Option<Vec<CoStream>>,
    bias: Vec<f32>,
    c_out: usize,
    c_in: usize,
    sparsity: Sparsity,
}

impl FastConv2d {
    /// Builds the dense fast convolution from a direct [`Conv2d`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] unless the convolution is
    /// 3×3, stride 1, padding 1 (the configuration `F(2×2, 3×3)` and the
    /// NVCA hardware support).
    pub fn from_conv(conv: &Conv2d) -> Result<Self, TensorError> {
        Self::from_conv_pruned(conv, Sparsity::dense())
    }

    /// Builds the fast convolution and prunes every transform-domain
    /// kernel to sparsity `rho` per Eqs. (6)–(8).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FastConv2d::from_conv`].
    pub fn from_conv_pruned(conv: &Conv2d, rho: Sparsity) -> Result<Self, TensorError> {
        if conv.kernel() != 3 || conv.stride() != 1 || conv.padding() != 1 {
            return Err(TensorError::incompatible(format!(
                "F(2x2,3x3) requires k=3 s=1 p=1 convolutions, got k={} s={} p={}",
                conv.kernel(),
                conv.stride(),
                conv.padding()
            )));
        }
        let transform = winograd_f2x2_3x3();
        let mut kernels = Vec::with_capacity(conv.c_out() * conv.c_in());
        for co in 0..conv.c_out() {
            for ci in 0..conv.c_in() {
                let w = Mat::from_vec(3, 3, conv.kernel_slice(co, ci).to_vec())?;
                let e = transform.transform_kernel(&w)?;
                let masked = if rho.ratio() > 0.0 {
                    prune(&transform, &e, rho)?.masked
                } else {
                    e
                };
                kernels.push(SparseKernel::from_dense(&masked)?);
            }
        }
        let streams = kernels
            .iter()
            .any(|k| !k.is_dense())
            .then(|| pack_co_streams(&kernels, conv.c_in()));
        Ok(FastConv2d {
            transform,
            kernels,
            streams,
            bias: conv.bias().to_vec(),
            c_out: conv.c_out(),
            c_in: conv.c_in(),
            sparsity: rho,
        })
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Sparsity the kernels were pruned to.
    pub fn sparsity(&self) -> Sparsity {
        self.sparsity
    }

    /// The underlying transform pair.
    pub fn transform(&self) -> &TransformPair {
        &self.transform
    }

    /// The compressed kernel for `(co, ci)`.
    ///
    /// # Panics
    ///
    /// Panics if `co` or `ci` is out of range.
    pub fn kernel(&self, co: usize, ci: usize) -> &SparseKernel {
        assert!(co < self.c_out && ci < self.c_in);
        &self.kernels[co * self.c_in + ci]
    }

    /// Total non-zero transform-domain weights across all kernels.
    pub fn nnz_total(&self) -> usize {
        self.kernels.iter().map(|k| k.nnz()).sum()
    }

    /// Number of tiles needed to cover an `h × w` input (output is same
    /// size for this same-padding configuration).
    pub fn tile_count(&self, h: usize, w: usize) -> (usize, usize) {
        let m = self.transform.tile();
        (h.div_ceil(m), w.div_ceil(m))
    }

    /// Hadamard multiplications to process an `h × w` input with the
    /// current (possibly pruned) kernels. Compare with
    /// `c_out · c_in · 9 · h · w` for the direct algorithm.
    pub fn hadamard_mults(&self, h: usize, w: usize) -> u64 {
        let (ty, tx) = self.tile_count(h, w);
        (ty * tx) as u64 * self.nnz_total() as u64
    }

    /// Runs the fast convolution single-threaded.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the input channel count
    /// differs from `c_in`.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        self.forward_ctx(input, &ExecCtx::serial())
    }

    /// Runs the fast convolution through the two-phase tiled executor
    /// (see the `tile_exec` module docs in the source): input
    /// transforms fan out over tiles, channel reduction + inverse
    /// transforms fan out over output planes, and the hot loops are
    /// allocation-free. Pruned kernels execute in compressed
    /// `(value, index)` form — the reduction iterates only the kept
    /// transform-domain coefficients, lane-grouped across tiles so it
    /// still vectorizes — so sparsity ρ cuts the reduction work by ρ.
    /// Results are bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FastConv2d::forward`].
    pub fn forward_ctx(&self, input: &Tensor, ctx: &ExecCtx) -> Result<Tensor, TensorError> {
        let (_, c, h, w) = input.shape().dims();
        if c != self.c_in {
            return Err(TensorError::incompatible(format!(
                "fast conv expects {} input channels, got {c}",
                self.c_in
            )));
        }
        forward_tiled(
            &TileProblem {
                family: KernelFamily::Winograd,
                transform: &self.transform,
                kernels: &self.kernels,
                streams: self.streams.as_deref(),
                bias: &self.bias,
                c_in: self.c_in,
                c_out: self.c_out,
                out_h: h,
                out_w: w,
            },
            input,
            ctx,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_tensor::Shape;

    fn ramp(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(Shape::new(1, c, h, w), |_, ci, y, x| {
            ((ci + 1) as f32) * 0.1 * ((y * w + x) as f32 % 7.0 - 3.0)
        })
    }

    #[test]
    fn dense_fast_conv_matches_direct() {
        let conv = Conv2d::randn(5, 3, 3, 1, 1, 11).unwrap();
        let fast = FastConv2d::from_conv(&conv).unwrap();
        let x = ramp(3, 10, 12);
        let direct = conv.forward(&x).unwrap();
        let fastv = fast.forward(&x).unwrap();
        let diff = direct.sub(&fastv).unwrap().max_abs();
        assert!(diff < 1e-4, "max diff {diff}");
    }

    #[test]
    fn odd_sizes_are_cropped_correctly() {
        let conv = Conv2d::randn(2, 2, 3, 1, 1, 12).unwrap();
        let fast = FastConv2d::from_conv(&conv).unwrap();
        let x = ramp(2, 7, 9); // odd dimensions force partial tiles
        let direct = conv.forward(&x).unwrap();
        let fastv = fast.forward(&x).unwrap();
        assert_eq!(fastv.shape().dims(), (1, 2, 7, 9));
        assert!(direct.sub(&fastv).unwrap().max_abs() < 1e-4);
    }

    #[test]
    fn bias_is_preserved() {
        let mut conv = Conv2d::randn(2, 2, 3, 1, 1, 13).unwrap();
        conv.bias_mut()[0] = 1.25;
        conv.bias_mut()[1] = -0.5;
        let fast = FastConv2d::from_conv(&conv).unwrap();
        let x = Tensor::zeros(Shape::new(1, 2, 4, 4));
        let y = fast.forward(&x).unwrap();
        assert!((y.at(0, 0, 2, 2) - 1.25).abs() < 1e-6);
        assert!((y.at(0, 1, 1, 3) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn pruned_conv_is_close_for_smooth_kernels() {
        // Real codec kernels are smooth (low-pass-like); their transform
        // energy concentrates in a few positions, which is what makes 50 %
        // transform-domain pruning viable. Build Gaussian-blur-like
        // kernels rather than white-noise ones.
        let gauss = [1.0_f32, 2.0, 1.0];
        let conv = Conv2d::from_fn(4, 4, 3, 1, 1, |co, ci, kh, kw| {
            let scale = if co == ci { 1.0 } else { 0.1 };
            scale * gauss[kh] * gauss[kw] / 16.0
        })
        .unwrap();
        let dense = FastConv2d::from_conv(&conv).unwrap();
        let sparse = FastConv2d::from_conv_pruned(&conv, Sparsity::new(0.5).unwrap()).unwrap();
        // The separable Gaussian kernel has structural zeros in the
        // Winograd domain (9 of 16 positions non-zero per kernel).
        assert_eq!(dense.nnz_total(), 4 * 4 * 9);
        assert!(sparse.nnz_total() <= 4 * 4 * 8);
        // Smooth, natural-image-like input: low-frequency sinusoid. A
        // high-frequency input would sit in the blur kernel's null space
        // and make relative error meaningless.
        let x = Tensor::from_fn(Shape::new(1, 4, 8, 8), |_, c, y, xx| {
            1.0 + 0.5 * ((y as f32 * 0.4 + xx as f32 * 0.3 + c as f32).sin())
        });
        let yd = dense.forward(&x).unwrap();
        let ys = sparse.forward(&x).unwrap();
        let rel = ys.sub(&yd).unwrap().max_abs() / yd.max_abs().max(1e-6);
        assert!(rel > 0.0, "pruning at 50% must change something");
        assert!(
            rel < 0.5,
            "pruning must keep smooth kernels close, rel={rel}"
        );
    }

    #[test]
    fn rejects_unsupported_configurations() {
        let k5 = Conv2d::randn(2, 2, 5, 1, 2, 0).unwrap();
        assert!(FastConv2d::from_conv(&k5).is_err());
        let s2 = Conv2d::randn(2, 2, 3, 2, 1, 0).unwrap();
        assert!(FastConv2d::from_conv(&s2).is_err());
        let conv = Conv2d::randn(2, 3, 3, 1, 1, 0).unwrap();
        let fast = FastConv2d::from_conv(&conv).unwrap();
        assert!(fast
            .forward(&Tensor::zeros(Shape::new(1, 2, 4, 4)))
            .is_err());
    }

    #[test]
    fn mult_counts() {
        let conv = Conv2d::randn(2, 2, 3, 1, 1, 0).unwrap();
        let dense = FastConv2d::from_conv(&conv).unwrap();
        // 8x8 input: 4x4 tiles of 2x2 outputs; 4 kernels * 16 positions.
        assert_eq!(dense.tile_count(8, 8), (4, 4));
        assert_eq!(dense.hadamard_mults(8, 8), 16 * 4 * 16);
        let direct_mults = conv.macs(8, 8);
        assert!(dense.hadamard_mults(8, 8) < direct_mults);
    }
}
