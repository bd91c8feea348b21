use nvc_tensor::mat::Mat;
use nvc_tensor::TensorError;

/// Largest input patch side supported by any transform (`p` of T3).
pub const MAX_PATCH: usize = 5;
/// Largest transform-domain side supported (`µ` of T3).
pub const MAX_MU: usize = 8;
/// Largest output tile side supported (`m` of T3).
pub const MAX_TILE: usize = 6;

/// A complete set of fast-algorithm transform matrices for Eq. (1) of the
/// paper, together with the tiling geometry that makes a whole-layer
/// computation out of per-tile transforms.
///
/// | field | meaning |
/// |---|---|
/// | `bt` (µ×p) | input transform, `Y = Bᵀ X B` |
/// | `g` (µ×k) | kernel transform, `E = G W Gᵀ` |
/// | `at` (m×µ) | output inverse transform, `V = Aᵀ U A` |
/// | `p` | input patch side |
/// | `m` | output tile side |
/// | `in_step` | input rows consumed per tile step |
/// | `in_offset` | left/top zero padding applied before tiling |
///
/// Use [`winograd_f2x2_3x3`] or [`fta_t3_6x6_4x4`] to obtain the two
/// instances the paper (and the NVCA hardware) supports.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformPair {
    name: &'static str,
    bt: Mat,
    g: Mat,
    at: Mat,
    p: usize,
    m: usize,
    k: usize,
    mu: usize,
    in_step: usize,
    in_offset: usize,
}

impl TransformPair {
    /// Human-readable algorithm name (`"F(2x2,3x3)"` or `"T3(6x6,4x4)"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Input patch side length `p`.
    pub fn patch(&self) -> usize {
        self.p
    }

    /// Output tile side length `m`.
    pub fn tile(&self) -> usize {
        self.m
    }

    /// Kernel side length `k`.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Transform-domain side length `µ`; each tile costs `µ²`
    /// multiplications when dense.
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// Dense multiplications per tile, `µ²`.
    pub fn mults_per_tile(&self) -> usize {
        self.mu * self.mu
    }

    /// Multiplications per tile a *direct* implementation would need
    /// (`m²·k²` for convolution-like operators).
    pub fn direct_mults_per_tile(&self) -> usize {
        self.m * self.m * self.k * self.k
    }

    /// Input rows/cols consumed per tile step.
    pub fn in_step(&self) -> usize {
        self.in_step
    }

    /// Zero padding applied to the top/left of the input before tiling.
    pub fn in_offset(&self) -> usize {
        self.in_offset
    }

    /// The `Bᵀ` matrix (µ×p).
    pub fn bt(&self) -> &Mat {
        &self.bt
    }

    /// The `G` matrix (µ×k).
    pub fn g(&self) -> &Mat {
        &self.g
    }

    /// The `Aᵀ` matrix (m×µ).
    pub fn at(&self) -> &Mat {
        &self.at
    }

    /// Kernel transform `E = G W Gᵀ` for a `k × k` spatial kernel.
    ///
    /// # Errors
    ///
    /// Returns an error if `w` is not `k × k`.
    pub fn transform_kernel(&self, w: &Mat) -> Result<Mat, TensorError> {
        if w.rows() != self.k || w.cols() != self.k {
            return Err(TensorError::incompatible(format!(
                "kernel must be {0}x{0}, got {1}x{2}",
                self.k,
                w.rows(),
                w.cols()
            )));
        }
        self.g.matmul(w)?.matmul(&self.g.transpose())
    }

    /// Input transform `Y = Bᵀ X B` for a `p × p` input patch.
    ///
    /// # Errors
    ///
    /// Returns an error if `x` is not `p × p`.
    pub fn transform_input(&self, x: &Mat) -> Result<Mat, TensorError> {
        if x.rows() != self.p || x.cols() != self.p {
            return Err(TensorError::incompatible(format!(
                "input patch must be {0}x{0}, got {1}x{2}",
                self.p,
                x.rows(),
                x.cols()
            )));
        }
        let mut out = Mat::zeros(self.mu, self.mu);
        self.transform_input_slice(x.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    /// Allocation-free input transform: reads a `p × p` row-major patch
    /// from `x`, writes the `µ × µ` row-major result to `out`. This is
    /// the per-tile reference the tiled executor's lane-wide body is
    /// checked against: it reads the runtime `Bᵀ` matrix, skips its zero
    /// coefficients in both stages and sums in ascending order, so every
    /// output is the same sum of the same products as in the lane body.
    ///
    /// # Panics
    ///
    /// Panics (via `debug_assert!`/indexing) if the slices are shorter
    /// than `p²` / `µ²`.
    pub fn transform_input_slice(&self, x: &[f32], out: &mut [f32]) {
        debug_assert!(x.len() >= self.p * self.p && out.len() >= self.mu * self.mu);
        let (p, mu) = (self.p, self.mu);
        let bt = self.bt.as_slice();
        // tmp = Bᵀ · X  (µ × p).
        let mut tmp = [0.0_f32; MAX_MU * MAX_PATCH];
        for i in 0..mu {
            let row = &mut tmp[i * p..][..p];
            for (k, &a) in bt[i * p..][..p].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (t, &xv) in row.iter_mut().zip(&x[k * p..][..p]) {
                    *t += a * xv;
                }
            }
        }
        // out = tmp · B = tmp · (Bᵀ)ᵀ: out[i][j] = Σ_k tmp[i][k]·Bᵀ[j][k].
        for i in 0..mu {
            let trow = &tmp[i * p..][..p];
            for j in 0..mu {
                let mut acc = 0.0;
                for (&t, &b) in trow.iter().zip(&bt[j * p..][..p]) {
                    if b != 0.0 {
                        acc += t * b;
                    }
                }
                out[i * mu + j] = acc;
            }
        }
    }

    /// Inverse transform `V = Aᵀ U A` for a `µ × µ` transform-domain tile.
    ///
    /// # Errors
    ///
    /// Returns an error if `u` is not `µ × µ`.
    pub fn inverse(&self, u: &Mat) -> Result<Mat, TensorError> {
        if u.rows() != self.mu || u.cols() != self.mu {
            return Err(TensorError::incompatible(format!(
                "transform tile must be {0}x{0}, got {1}x{2}",
                self.mu,
                u.rows(),
                u.cols()
            )));
        }
        let mut out = Mat::zeros(self.m, self.m);
        self.inverse_slice(u.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    /// Allocation-free inverse transform: reads a `µ × µ` row-major tile
    /// from `u`, writes the `m × m` row-major result to `out` — the
    /// per-tile reference for the executor's lane-wide inverse, with the
    /// same zero skipping and summation order as
    /// [`TransformPair::transform_input_slice`].
    ///
    /// # Panics
    ///
    /// Panics (via `debug_assert!`/indexing) if the slices are shorter
    /// than `µ²` / `m²`.
    pub fn inverse_slice(&self, u: &[f32], out: &mut [f32]) {
        debug_assert!(u.len() >= self.mu * self.mu && out.len() >= self.m * self.m);
        let (m, mu) = (self.m, self.mu);
        let at = self.at.as_slice();
        // tmp = Aᵀ · U  (m × µ).
        let mut tmp = [0.0_f32; MAX_TILE * MAX_MU];
        for i in 0..m {
            let row = &mut tmp[i * mu..][..mu];
            for (k, &a) in at[i * mu..][..mu].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (t, &uv) in row.iter_mut().zip(&u[k * mu..][..mu]) {
                    *t += a * uv;
                }
            }
        }
        // out = tmp · A = tmp · (Aᵀ)ᵀ: out[i][j] = Σ_k tmp[i][k]·Aᵀ[j][k].
        for i in 0..m {
            let trow = &tmp[i * mu..][..mu];
            for j in 0..m {
                let mut acc = 0.0;
                for (&t, &a) in trow.iter().zip(&at[j * mu..][..mu]) {
                    if a != 0.0 {
                        acc += t * a;
                    }
                }
                out[i * m + j] = acc;
            }
        }
    }

    /// Whole-tile reference evaluation of Eq. (1):
    /// `V = Aᵀ [(G W Gᵀ) ⊙ (Bᵀ X B)] A`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the component transforms.
    pub fn fast_tile(&self, w: &Mat, x: &Mat) -> Result<Mat, TensorError> {
        let e = self.transform_kernel(w)?;
        let y = self.transform_input(x)?;
        self.inverse(&e.hadamard(&y)?)
    }

    /// The importance factor matrix `Q` of Eq. (6).
    ///
    /// Because `H_{c,d,i,j,q,v} = A_{i,c}·A_{j,d}·B_{q,i}·B_{v,j}`
    /// factorises, `Q_{i,j} = α_i·α_j·β_i·β_j` where `α_i` is the L2 norm
    /// of row `i` of `A` (column `i` of `Aᵀ`) and `β_i` the L2 norm of
    /// column `i` of `B` (row `i` of `Bᵀ`).
    pub fn importance(&self) -> Mat {
        let mut alpha = vec![0.0_f32; self.mu];
        let mut beta = vec![0.0_f32; self.mu];
        for i in 0..self.mu {
            let mut a2 = 0.0;
            for c in 0..self.m {
                a2 += self.at.at(c, i) * self.at.at(c, i);
            }
            alpha[i] = a2.sqrt();
            let mut b2 = 0.0;
            for q in 0..self.p {
                b2 += self.bt.at(i, q) * self.bt.at(i, q);
            }
            beta[i] = b2.sqrt();
        }
        let mut q = Mat::zeros(self.mu, self.mu);
        for i in 0..self.mu {
            for j in 0..self.mu {
                *q.at_mut(i, j) = alpha[i] * alpha[j] * beta[i] * beta[j];
            }
        }
        q
    }
}

/// Tiles the executor transforms together: every arithmetic step of the
/// input transform, the channel reduction and the inverse transform runs
/// `LANES` wide across one group of tiles, so each loop body is one
/// fixed-width vector operation. 32 keeps a coefficient's accumulator
/// within the SIMD register file and a group's staging within L2.
pub(crate) const LANES: usize = 32;

/// One value per tile of a lane group.
pub(crate) type Lanes = [f32; LANES];

/// The `Bᵀ` (µ×p) and `Aᵀ` (m×µ) matrices of one supported geometry as
/// compile-time tables: the single definition both the
/// [`TransformPair`] matrices and the executor's lane bodies are built
/// from.
pub(crate) struct Tables<const P: usize, const MU: usize, const M: usize> {
    bt: [[f32; P]; MU],
    at: [[f32; MU]; M],
}

/// `F(2×2, 3×3)`: `p = 4`, `µ = 4`, `m = 2`.
pub(crate) const F2X2_3X3: Tables<4, 4, 2> = Tables {
    bt: [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ],
    at: [[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]],
};

/// `T3(6×6, 4×4)`: `p = 5`, `µ = 8`, `m = 6`.
pub(crate) const T3_6X6_4X4: Tables<5, 8, 6> = Tables {
    bt: [
        [1.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 1.0],
    ],
    at: [
        [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
    ],
};

impl<const P: usize, const MU: usize, const M: usize> Tables<P, MU, M> {
    fn bt_mat(&self) -> Mat {
        Mat::from_vec(MU, P, self.bt.concat()).expect("static matrix")
    }

    fn at_mat(&self) -> Mat {
        Mat::from_vec(M, MU, self.at.concat()).expect("static matrix")
    }

    /// Lane-wide input transform `Y = Bᵀ X B` of a group's patches:
    /// `x` is lane-major (`[p²][LANES]`), and coefficient `j`'s `LANES`
    /// run is written to `out[j * stride..][..LANES]`. Within each lane
    /// this is [`TransformPair::transform_input_slice`] exactly — the
    /// same products summed in the same order (see [`axpy`]).
    #[inline(always)]
    pub(crate) fn input_lanes(&self, x: &[Lanes], out: &mut [f32], stride: usize) {
        let x = &x[..P * P];
        for i in 0..MU {
            // Row i of Bᵀ · X.
            let mut t = [[0.0_f32; LANES]; P];
            for (k, &a) in self.bt[i].iter().enumerate() {
                for (tj, xj) in t.iter_mut().zip(&x[k * P..][..P]) {
                    axpy(tj, a, xj);
                }
            }
            for (j, bj) in self.bt.iter().enumerate() {
                let mut acc = [0.0_f32; LANES];
                for (tk, &b) in t.iter().zip(bj) {
                    axpy(&mut acc, b, tk);
                }
                out[(i * MU + j) * stride..][..LANES].copy_from_slice(&acc);
            }
        }
    }

    /// Lane-wide inverse transform `V = Aᵀ U A` of a group's reduced
    /// tiles: `u` is `[µ²][LANES]`, `v` receives `[m²][LANES]`. Within
    /// each lane this is [`TransformPair::inverse_slice`] exactly.
    #[inline(always)]
    pub(crate) fn inverse_lanes(&self, u: &[Lanes], v: &mut [Lanes]) {
        let u = &u[..MU * MU];
        let v = &mut v[..M * M];
        for i in 0..M {
            // Row i of Aᵀ · U.
            let mut t = [[0.0_f32; LANES]; MU];
            for (k, &a) in self.at[i].iter().enumerate() {
                for (tj, uj) in t.iter_mut().zip(&u[k * MU..][..MU]) {
                    axpy(tj, a, uj);
                }
            }
            for (j, aj) in self.at.iter().enumerate() {
                let mut acc = [0.0_f32; LANES];
                for (tk, &a) in t.iter().zip(aj) {
                    axpy(&mut acc, a, tk);
                }
                v[i * M + j] = acc;
            }
        }
    }
}

/// `acc += a · x` across the lanes, for one transform coefficient `a`: a
/// zero is skipped and ±1 adds or subtracts without a multiply. Both are
/// exact rewrites (`1·x = x` and `t + (−1)·x = t − x` in IEEE-754), so
/// every lane matches the scalar reference bit for bit.
#[inline(always)]
fn axpy(acc: &mut Lanes, a: f32, x: &Lanes) {
    if a == 0.0 {
        return;
    }
    if a == 1.0 {
        acc.iter_mut().zip(x).for_each(|(t, &v)| *t += v);
    } else if a == -1.0 {
        acc.iter_mut().zip(x).for_each(|(t, &v)| *t -= v);
    } else {
        acc.iter_mut().zip(x).for_each(|(t, &v)| *t += a * v);
    }
}

/// Winograd fast convolution `F(2×2, 3×3)` (Eqs. (2)–(3) of the paper):
/// 4×4 input patch, 3×3 kernel, 2×2 output tile, 16 multiplications.
///
/// Tiles step 2 in the input; the canonical same-padding convolution pads
/// the input by 1 on every border, expressed here as `in_offset = 1`.
pub fn winograd_f2x2_3x3() -> TransformPair {
    let g = Mat::from_rows(&[
        &[1.0, 0.0, 0.0],
        &[0.5, 0.5, 0.5],
        &[0.5, -0.5, 0.5],
        &[0.0, 0.0, 1.0],
    ])
    .expect("static matrix");
    TransformPair {
        name: "F(2x2,3x3)",
        bt: F2X2_3X3.bt_mat(),
        g,
        at: F2X2_3X3.at_mat(),
        p: 4,
        m: 2,
        k: 3,
        mu: 4,
        in_step: 2,
        in_offset: 1,
    }
}

/// FTA fast deconvolution `T3(6×6, 4×4)`, stride 2 (Eqs. (4)–(5) of the
/// paper): 5×5 input patch, 4×4 kernel, 6×6 output tile, 64
/// multiplications.
///
/// The transform decomposes the stride-2 transposed convolution into its
/// two output phases, each a Winograd `F(3, 2)` over the even/odd kernel
/// taps. Tiles step 3 in the input and 6 in the output; with the PyTorch
/// `padding = 1` convention the input is pre-padded by one zero row/column
/// (`in_offset = 1`).
pub fn fta_t3_6x6_4x4() -> TransformPair {
    let g = Mat::from_rows(&[
        &[0.0, 0.0, 0.0, 1.0],
        &[0.0, 0.5, 0.0, 0.5],
        &[0.0, -0.5, 0.0, 0.5],
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 1.0, 0.0],
        &[0.5, 0.0, 0.5, 0.0],
        &[-0.5, 0.0, 0.5, 0.0],
        &[1.0, 0.0, 0.0, 0.0],
    ])
    .expect("static matrix");
    TransformPair {
        name: "T3(6x6,4x4)",
        bt: T3_6X6_4X4.bt_mat(),
        g,
        at: T3_6X6_4X4.at_mat(),
        p: 5,
        m: 6,
        k: 4,
        mu: 8,
        in_step: 3,
        in_offset: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_tensor::init::Gaussian;

    fn randmat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut g = Gaussian::new(seed);
        let mut data = vec![0.0; rows * cols];
        g.fill(&mut data, 1.0);
        Mat::from_vec(rows, cols, data).unwrap()
    }

    /// Direct 1-D slide of a 3-tap filter for the Winograd check.
    fn direct_conv1d(x: &[f32], w: &[f32]) -> Vec<f32> {
        (0..x.len() - w.len() + 1)
            .map(|o| (0..w.len()).map(|t| x[o + t] * w[t]).sum())
            .collect()
    }

    #[test]
    fn winograd_dimensions() {
        let t = winograd_f2x2_3x3();
        assert_eq!((t.patch(), t.tile(), t.kernel(), t.mu()), (4, 2, 3, 4));
        assert_eq!(t.mults_per_tile(), 16);
        assert_eq!(t.direct_mults_per_tile(), 36);
        assert_eq!(t.bt().rows(), 4);
        assert_eq!(t.bt().cols(), 4);
        assert_eq!(t.g().rows(), 4);
        assert_eq!(t.g().cols(), 3);
        assert_eq!(t.at().rows(), 2);
        assert_eq!(t.at().cols(), 4);
    }

    #[test]
    fn fta_dimensions() {
        let t = fta_t3_6x6_4x4();
        assert_eq!((t.patch(), t.tile(), t.kernel(), t.mu()), (5, 6, 4, 8));
        assert_eq!(t.mults_per_tile(), 64);
        assert_eq!(t.bt().rows(), 8);
        assert_eq!(t.bt().cols(), 5);
        assert_eq!(t.g().rows(), 8);
        assert_eq!(t.g().cols(), 4);
        assert_eq!(t.at().rows(), 6);
        assert_eq!(t.at().cols(), 8);
    }

    /// The 2-D Winograd tile must equal direct 2-D correlation of the 4×4
    /// patch with the 3×3 kernel (valid positions only).
    #[test]
    fn winograd_tile_matches_direct() {
        let t = winograd_f2x2_3x3();
        let w = randmat(3, 3, 1);
        let x = randmat(4, 4, 2);
        let v = t.fast_tile(&w, &x).unwrap();
        for oy in 0..2 {
            for ox in 0..2 {
                let mut acc = 0.0;
                for ky in 0..3 {
                    for kx in 0..3 {
                        acc += x.at(oy + ky, ox + kx) * w.at(ky, kx);
                    }
                }
                assert!(
                    (v.at(oy, ox) - acc).abs() < 1e-4,
                    "({oy},{ox}): {} vs {acc}",
                    v.at(oy, ox)
                );
            }
        }
    }

    /// 1-D sanity check of the Winograd factors: F(2,3) along one axis.
    #[test]
    fn winograd_1d_f2_3() {
        let t = winograd_f2x2_3x3();
        let x = [0.3, -1.2, 0.7, 2.0];
        let w = [0.5, -0.25, 1.0];
        // y = A^T ((G w) .* (B^T x))
        let mut gw = [0.0_f32; 4];
        let mut btx = [0.0_f32; 4];
        for i in 0..4 {
            gw[i] = (0..3).map(|j| t.g().at(i, j) * w[j]).sum();
            btx[i] = (0..4).map(|j| t.bt().at(i, j) * x[j]).sum();
        }
        let prod: Vec<f32> = gw.iter().zip(&btx).map(|(a, b)| a * b).collect();
        let y: Vec<f32> = (0..2)
            .map(|r| (0..4).map(|i| t.at().at(r, i) * prod[i]).sum())
            .collect();
        let direct = direct_conv1d(&x, &w);
        for (a, b) in y.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    /// 1-D FTA check: the 6 outputs of a tile must match the stride-2
    /// transposed convolution `out_full[j] = Σ_i x[i]·w[j−2i]` at offsets
    /// `j = 3..9` (see crate docs for the alignment derivation).
    #[test]
    fn fta_1d_t3_matches_direct_deconv() {
        let t = fta_t3_6x6_4x4();
        let x = [0.4, -0.9, 1.3, 0.2, -0.6];
        let w = [0.7, -0.3, 0.5, 1.1];
        let mut gw = [0.0_f32; 8];
        let mut btx = [0.0_f32; 8];
        for i in 0..8 {
            gw[i] = (0..4).map(|j| t.g().at(i, j) * w[j]).sum();
            btx[i] = (0..5).map(|j| t.bt().at(i, j) * x[j]).sum();
        }
        let prod: Vec<f32> = gw.iter().zip(&btx).map(|(a, b)| a * b).collect();
        let y: Vec<f32> = (0..6)
            .map(|r| (0..8).map(|i| t.at().at(r, i) * prod[i]).sum())
            .collect();
        // Direct scatter: out_full[j] = Σ_i x[i] * w[j - 2i].
        let mut out_full = vec![0.0_f32; 2 * x.len() + 2];
        for (i, &xv) in x.iter().enumerate() {
            for (j, &wv) in w.iter().enumerate() {
                out_full[2 * i + j] += xv * wv;
            }
        }
        for (o, &yo) in y.iter().enumerate() {
            assert!(
                (yo - out_full[o + 3]).abs() < 1e-5,
                "output {o}: {yo} vs {}",
                out_full[o + 3]
            );
        }
    }

    /// Importance factors are strictly positive and symmetric in (i, j).
    #[test]
    fn importance_is_positive_and_symmetric() {
        for t in [winograd_f2x2_3x3(), fta_t3_6x6_4x4()] {
            let q = t.importance();
            for i in 0..t.mu() {
                for j in 0..t.mu() {
                    assert!(q.at(i, j) > 0.0, "{} Q[{i}][{j}]", t.name());
                    assert!((q.at(i, j) - q.at(j, i)).abs() < 1e-6);
                }
            }
        }
    }

    /// For Winograd F(2x2,3x3) the analytic importance factors are known:
    /// α = (1, 1, 1, 1)·√m-pattern and β from the Bᵀ rows.
    #[test]
    fn importance_winograd_known_values() {
        let t = winograd_f2x2_3x3();
        let q = t.importance();
        // α = [1, √2, √2, 1], β = [√2, √2, √2, √2]
        let alpha = [1.0_f32, 2.0_f32.sqrt(), 2.0_f32.sqrt(), 1.0];
        let beta = [2.0_f32.sqrt(); 4];
        for i in 0..4 {
            for j in 0..4 {
                let expect = alpha[i] * alpha[j] * beta[i] * beta[j];
                assert!((q.at(i, j) - expect).abs() < 1e-5);
            }
        }
    }

    /// Inputs that expose a dropped, added or reordered term: signed
    /// zeros, subnormals, exact halves, magnitudes that absorb ordinary
    /// values, and ordinary values.
    const HOSTILE: [f32; 12] = [
        0.0, -0.0, 1e-40, -3e-39, 0.5, -1.5, 2.5, 1e30, -1e30, 0.7, -3.3, 1.0e-3,
    ];

    /// `n` lane rows whose first `lanes` lanes draw from [`HOSTILE`] and
    /// from a ramp of ordinary values; the remaining lanes are zero, as
    /// in a partial trailing tile group.
    fn hostile_lanes(n: usize, lanes: usize, seed: u64) -> Vec<Lanes> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                std::array::from_fn(|lane| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let r = (state >> 33) as usize;
                    match (lane < lanes, r % 16) {
                        (false, _) => 0.0,
                        (true, k) if k < HOSTILE.len() => HOSTILE[k],
                        (true, _) => (r % 1000) as f32 * 0.013 - 6.5,
                    }
                })
            })
            .collect()
    }

    /// Small integers: every sum in the pipeline is exact, so its result
    /// must equal the direct operator exactly, whatever the order.
    fn int_lanes(n: usize, seed: usize) -> Vec<Lanes> {
        (0..n)
            .map(|i| std::array::from_fn(|lane| ((i * 7 + lane * 3 + seed) % 9) as f32 - 4.0))
            .collect()
    }

    fn check_lane_bodies<const P: usize, const MU: usize, const M: usize>(
        tables: &Tables<P, MU, M>,
        t: &TransformPair,
        direct: impl Fn(&Mat, &[f32], usize, usize) -> f32,
    ) {
        // Lane bodies against the per-tile scalar reference, bit for bit.
        for lanes in 1..=LANES {
            let x = hostile_lanes(P * P, lanes, lanes as u64);
            let mut y = vec![0.0_f32; MU * MU * LANES];
            tables.input_lanes(&x, &mut y, LANES);
            let u = hostile_lanes(MU * MU, lanes, 1000 + lanes as u64);
            let mut v = vec![[0.0_f32; LANES]; M * M];
            tables.inverse_lanes(&u, &mut v);
            for lane in 0..LANES {
                let patch: Vec<f32> = x.iter().map(|r| r[lane]).collect();
                let mut y_ref = vec![0.0_f32; MU * MU];
                t.transform_input_slice(&patch, &mut y_ref);
                for (j, r) in y_ref.iter().enumerate() {
                    let got = y[j * LANES + lane];
                    assert_eq!(
                        got.to_bits(),
                        r.to_bits(),
                        "{} input lanes={lanes} lane={lane} coeff={j}: {got} vs {r}",
                        t.name()
                    );
                }
                let tile: Vec<f32> = u.iter().map(|r| r[lane]).collect();
                let mut v_ref = vec![0.0_f32; M * M];
                t.inverse_slice(&tile, &mut v_ref);
                for (j, r) in v_ref.iter().enumerate() {
                    let got = v[j][lane];
                    assert_eq!(
                        got.to_bits(),
                        r.to_bits(),
                        "{} inverse lanes={lanes} lane={lane} out={j}: {got} vs {r}",
                        t.name()
                    );
                }
            }
        }
        // The whole lane pipeline on exact integer tiles equals the direct
        // operator, which pins the tables themselves.
        let k = t.kernel();
        let w = Mat::from_vec(k, k, (0..k * k).map(|i| (i % 5) as f32 - 2.0).collect()).unwrap();
        let e = t.transform_kernel(&w).unwrap();
        let x = int_lanes(P * P, 5);
        let mut y = vec![0.0_f32; MU * MU * LANES];
        tables.input_lanes(&x, &mut y, LANES);
        let u: Vec<Lanes> = (0..MU * MU)
            .map(|j| std::array::from_fn(|lane| e.as_slice()[j] * y[j * LANES + lane]))
            .collect();
        let mut v = vec![[0.0_f32; LANES]; M * M];
        tables.inverse_lanes(&u, &mut v);
        for lane in 0..LANES {
            let patch: Vec<f32> = x.iter().map(|r| r[lane]).collect();
            for oy in 0..M {
                for ox in 0..M {
                    let expect = direct(&w, &patch, oy, ox);
                    assert_eq!(v[oy * M + ox][lane], expect, "{} ({oy},{ox})", t.name());
                }
            }
        }
    }

    /// The executor's lane-wide transform bodies compute, in every lane
    /// and for every lane count, exactly what the scalar per-tile
    /// reference computes — including on signed zeros, subnormals and
    /// values whose sums depend on order — and the lane pipeline
    /// reproduces direct correlation / transposed convolution exactly.
    #[test]
    fn lane_bodies_match_scalar_reference_bit_for_bit() {
        check_lane_bodies(&F2X2_3X3, &winograd_f2x2_3x3(), |w, x, oy, ox| {
            let mut acc = 0.0;
            for ky in 0..3 {
                for kx in 0..3 {
                    acc += x[(oy + ky) * 4 + ox + kx] * w.at(ky, kx);
                }
            }
            acc
        });
        // Transposed convolution, stride 2: output `o` of the tile is
        // full-output position `o + 3`, fed by input `i` through tap
        // `o + 3 − 2i`.
        check_lane_bodies(&T3_6X6_4X4, &fta_t3_6x6_4x4(), |w, x, oy, ox| {
            let mut acc = 0.0;
            for iy in 0..5 {
                for ix in 0..5 {
                    let (ky, kx) = (oy as isize + 3 - 2 * iy, ox as isize + 3 - 2 * ix);
                    if (0..4).contains(&ky) && (0..4).contains(&kx) {
                        acc += x[iy as usize * 5 + ix as usize] * w.at(ky as usize, kx as usize);
                    }
                }
            }
            acc
        });
    }

    #[test]
    fn shape_validation() {
        let t = winograd_f2x2_3x3();
        assert!(t.transform_kernel(&Mat::zeros(4, 4)).is_err());
        assert!(t.transform_input(&Mat::zeros(5, 5)).is_err());
        assert!(t.inverse(&Mat::zeros(3, 3)).is_err());
    }
}
