//! Shared tiled execution engine for [`FastConv2d`](crate::FastConv2d)
//! and [`FastDeConv2d`](crate::FastDeConv2d).
//!
//! Both fast operators are the same computation with different transform
//! geometry: per tile, transform every input channel's patch
//! (`Y = Bᵀ X B`), accumulate `Σ_ci E ⊙ Y` in the transform domain, and
//! inverse-transform once per output channel (`V = Aᵀ U A`).
//!
//! Every layer, dense or pruned, runs one path. Tiles are processed in
//! groups of [`LANES`], and every arithmetic step — both transforms and
//! the channel reduction — runs `LANES` wide across the group, with the
//! geometry's `Bᵀ`/`Aᵀ` read from compile-time tables. Each *band* of
//! groups runs two phases, mirroring the SCU array's dataflow:
//!
//! 1. **Input transform** — parallel over tile groups. For each *live*
//!    input channel (one some kept weight reads; see `PackedKernels`),
//!    the group's `p × p` patches are gathered lane-major
//!    (`[p²][LANES]`) and transformed, and each coefficient's `LANES`
//!    run lands straight in the coefficient-major staging layout
//!    `[group][coeff][slot][lane]`, a buffer borrowed from the
//!    [`ExecCtx`]'s scratch pool. Channels no kernel reads are never
//!    gathered, transformed or staged.
//! 2. **Channel reduction + inverse transform** — parallel over output
//!    channels. Each worker owns one output plane and walks its packed
//!    CSR stream (`CoStream`): per coefficient, the kept
//!    `(slot, value)` pairs each perform one `LANES`-wide
//!    multiply–accumulate onto a register-resident accumulator, so work
//!    per tile is `nnz`, not `µ²` (a dense kernel is simply present in
//!    every row). The group's `µ²` accumulators are inverse-transformed
//!    `LANES` wide and written, plus bias, into the plane.
//!
//! Banding bounds the staging buffer (≈ [`BAND_FLOATS`] elements) so
//! peak memory stays constant in the frame area. Both fan-outs are
//! work-size gated ([`ExecCtx::par_chunks_mut_gated`]): a small plane
//! (decode-side latents especially) runs serially because worker
//! spawn/join overhead would dominate.
//!
//! Accumulation order is fixed per output element regardless of the
//! worker count, band height or lane position: each lane computes the
//! same sums of the same products, in the same order, as the per-tile
//! reference ([`TransformPair::transform_input_slice`], a dense
//! Hadamard accumulation in ascending `c_in`,
//! [`TransformPair::inverse_slice`]), so serial, parallel and reference
//! execution are all **bit-identical** for finite input (a skipped
//! pruned position would have contributed exactly `+0.0`, which cannot
//! change an IEEE-754 accumulator seeded with `+0.0`). The hot loops
//! allocate nothing: patches, accumulators and inverse tiles are stack
//! arrays; the staging buffer is recycled across calls.

use crate::sparse::PackedKernels;
use crate::transforms::{
    Lanes, Tables, TransformPair, F2X2_3X3, LANES, MAX_MU, MAX_PATCH, MAX_TILE, T3_6X6_4X4,
};
use nvc_core::ExecCtx;
use nvc_tensor::{Shape, Tensor, TensorError};

/// Which fast transform a [`TileProblem`] runs — the label its timings
/// are reported under.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KernelFamily {
    /// Winograd `F(2×2, 3×3)` convolution ([`crate::FastConv2d`]).
    Winograd,
    /// FTA `T3(6×6, 4×4)` deconvolution ([`crate::FastDeConv2d`]).
    Fta,
}

/// The per-kernel-family forward-call histogram (microseconds), global
/// so every operator instance of a family aggregates into one metric.
/// Layers with and without pruned kernels report separately: their
/// reduction costs differ (`nnz` vs `µ²`), so mixing them would bury
/// exactly the comparison the sparsity work needs.
fn family_histogram(family: KernelFamily, sparse: bool) -> &'static nvc_telemetry::Histogram {
    static HISTS: std::sync::OnceLock<[nvc_telemetry::Histogram; 4]> = std::sync::OnceLock::new();
    let hists = HISTS.get_or_init(|| {
        [
            nvc_telemetry::histogram("nvc_kernel_winograd_dense_us"),
            nvc_telemetry::histogram("nvc_kernel_winograd_sparse_us"),
            nvc_telemetry::histogram("nvc_kernel_fta_dense_us"),
            nvc_telemetry::histogram("nvc_kernel_fta_sparse_us"),
        ]
    });
    &hists[usize::from(matches!(family, KernelFamily::Fta)) * 2 + usize::from(sparse)]
}

/// One fast-operator invocation, described geometrically.
pub(crate) struct TileProblem<'a> {
    /// The reporting family (conv/deconv); also selects the lane tables.
    pub family: KernelFamily,
    /// The transform pair (fixes patch/tile/µ geometry).
    pub transform: &'a TransformPair,
    /// The operator's kernels, packed per output channel.
    pub packed: &'a PackedKernels,
    /// One bias per output channel.
    pub bias: &'a [f32],
    /// Input channel count.
    pub c_in: usize,
    /// Output channel count.
    pub c_out: usize,
    /// Output height (equals input height for conv, doubles for deconv).
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

/// Target staging-buffer size in `f32` elements (≈ 8 MB). The band size
/// in tile groups is chosen so the staged transform-domain data stays
/// near this budget.
const BAND_FLOATS: usize = 1 << 21;

/// Copies the (clipped, zero-padded) `P × P` input patch of one channel
/// at tile origin `(iy0, ix0)` into lane `lane` of the lane-major block
/// `xs`. Out-of-bounds positions are written as zero.
#[inline(always)]
fn gather_lane<const P: usize>(
    plane: &[f32],
    in_h: usize,
    in_w: usize,
    iy0: isize,
    ix0: isize,
    xs: &mut [Lanes],
    lane: usize,
) {
    let xs = &mut xs[..P * P];
    if iy0 >= 0 && ix0 >= 0 && iy0 as usize + P <= in_h && ix0 as usize + P <= in_w {
        let (iy0, ix0) = (iy0 as usize, ix0 as usize);
        for (py, row) in xs.chunks_exact_mut(P).enumerate() {
            let src = &plane[(iy0 + py) * in_w + ix0..][..P];
            for (x, &v) in row.iter_mut().zip(src) {
                x[lane] = v;
            }
        }
        return;
    }
    for (py, row) in xs.chunks_exact_mut(P).enumerate() {
        let iy = iy0 + py as isize;
        for (px, x) in row.iter_mut().enumerate() {
            let ix = ix0 + px as isize;
            let inside = (0..in_h as isize).contains(&iy) && (0..in_w as isize).contains(&ix);
            x[lane] = if inside {
                plane[iy as usize * in_w + ix as usize]
            } else {
                0.0
            };
        }
    }
}

/// Runs the banded two-phase tiled forward pass (see module docs).
pub(crate) fn forward_tiled(
    prob: &TileProblem<'_>,
    input: &Tensor,
    ctx: &ExecCtx,
) -> Result<Tensor, TensorError> {
    let _span = family_histogram(prob.family, prob.packed.sparse).time();
    Ok(match prob.family {
        KernelFamily::Winograd => forward_lanes(&F2X2_3X3, prob, input, ctx),
        KernelFamily::Fta => forward_lanes(&T3_6X6_4X4, prob, input, ctx),
    })
}

/// Per-tile-channel input-transform cost in multiplies (`Bᵀ X B`), used
/// for work-size gating.
fn transform_work(t: &TransformPair) -> u64 {
    let (p, mu) = (t.patch() as u64, t.mu() as u64);
    mu * p * (p + mu)
}

/// Per-tile inverse-transform cost in multiplies (`Aᵀ U A`).
fn inverse_work(t: &TransformPair) -> u64 {
    let (m, mu) = (t.tile() as u64, t.mu() as u64);
    m * mu * (mu + m)
}

/// The executor body for one geometry, with its tables as constants.
fn forward_lanes<const P: usize, const MU: usize, const M: usize>(
    tables: &Tables<P, MU, M>,
    prob: &TileProblem<'_>,
    input: &Tensor,
    ctx: &ExecCtx,
) -> Tensor {
    let (n, _, in_h, in_w) = input.shape().dims();
    let in_data = input.as_slice();
    let t = prob.transform;
    debug_assert_eq!((t.patch(), t.mu(), t.tile()), (P, MU, M));
    debug_assert!(P <= MAX_PATCH && M <= MAX_TILE && MU <= MAX_MU);
    let mu2 = MU * MU;
    let step = t.in_step();
    let offset = t.in_offset() as isize;
    let (oh, ow) = (prob.out_h, prob.out_w);
    let (ty_n, tx_n) = (oh.div_ceil(M), ow.div_ceil(M));
    let tiles_total = ty_n * tx_n;
    let groups_total = tiles_total.div_ceil(LANES);
    let mut out = Tensor::zeros(Shape::new(n, prob.c_out, oh, ow));
    let plane = oh * ow;
    let streams = &prob.packed.streams;
    let live = &prob.packed.live;
    let nnz_total: u64 = streams.iter().map(|s| s.values.len() as u64).sum();

    // Only live channels are staged; groups are padded to LANES tiles,
    // so the band is sized in whole groups.
    let row_floats = live.len() * LANES;
    let group_floats = mu2 * row_floats;
    let band_groups = (BAND_FLOATS / group_floats.max(1)).clamp(1, groups_total.max(1));
    let mut y_band = ctx.scratch().take(band_groups * group_floats);
    for nn in 0..n {
        let mut g0 = 0;
        while g0 < groups_total {
            let g_end = (g0 + band_groups).min(groups_total);
            let bg = g_end - g0;
            // Phase 1: input transforms, one chunk per tile group, laid
            // out [coeff][slot][lane] to match the CSR walk of phase 2.
            let p1_work = (bg * row_floats) as u64 * transform_work(t);
            if group_floats > 0 {
                ctx.par_chunks_mut_gated(
                    &mut y_band[..bg * group_floats],
                    group_floats,
                    p1_work,
                    |bi, chunk| {
                        let tile0 = (g0 + bi) * LANES;
                        let lanes = LANES.min(tiles_total - tile0);
                        let origins: [(isize, isize); LANES] = std::array::from_fn(|lane| {
                            let tile = tile0 + lane;
                            let (ty, tx) = (tile / tx_n, tile % tx_n);
                            ((ty * step) as isize - offset, (tx * step) as isize - offset)
                        });
                        // Lanes past the end of a partial trailing group
                        // stay zero, so they stage zeros.
                        let mut xs = [[0.0_f32; LANES]; MAX_PATCH * MAX_PATCH];
                        for (slot, &ci) in live.iter().enumerate() {
                            let plane =
                                &in_data[(nn * prob.c_in + ci) * in_h * in_w..][..in_h * in_w];
                            for (lane, &(iy0, ix0)) in origins[..lanes].iter().enumerate() {
                                gather_lane::<P>(plane, in_h, in_w, iy0, ix0, &mut xs, lane);
                            }
                            tables.input_lanes(&xs, &mut chunk[slot * LANES..], row_floats);
                        }
                    },
                );
            }
            // Phase 2: compressed reduction + inverse transform, one
            // chunk per output plane.
            let y_ref: &[f32] = &y_band;
            let batch = &mut out.as_mut_slice()[nn * prob.c_out * plane..][..prob.c_out * plane];
            let p2_work = (bg * LANES) as u64 * nnz_total
                + (bg * LANES * prob.c_out) as u64 * inverse_work(t);
            ctx.par_chunks_mut_gated(batch, plane, p2_work, |co, out_plane| {
                let bias = prob.bias[co];
                let stream = &streams[co];
                let mut u = [[0.0_f32; LANES]; MAX_MU * MAX_MU];
                let mut v = [[0.0_f32; LANES]; MAX_TILE * MAX_TILE];
                for bi in 0..bg {
                    let tile0 = (g0 + bi) * LANES;
                    let lanes = LANES.min(tiles_total - tile0);
                    let y_group = &y_ref[bi * group_floats..][..group_floats];
                    // CSR walk: coefficient `j`'s accumulator lanes live
                    // in registers across its whole channel reduction;
                    // each kept weight is one LANES-wide broadcast
                    // multiply–accumulate from the staged row.
                    for (j, uj) in u[..mu2].iter_mut().enumerate() {
                        let row = &y_group[j * row_floats..][..row_floats];
                        let (s0, s1) = (stream.starts[j] as usize, stream.starts[j + 1] as usize);
                        let mut acc = [0.0_f32; LANES];
                        for (&w, &slot) in stream.values[s0..s1].iter().zip(&stream.slot[s0..s1]) {
                            let src = &row[slot as usize * LANES..][..LANES];
                            for (a, &yv) in acc.iter_mut().zip(src) {
                                *a += w * yv;
                            }
                        }
                        *uj = acc;
                    }
                    tables.inverse_lanes(&u, &mut v);
                    for lane in 0..lanes {
                        let tile = tile0 + lane;
                        let (ty, tx) = (tile / tx_n, tile % tx_n);
                        let vy_max = M.min(oh - ty * M);
                        let vx_max = M.min(ow - tx * M);
                        for (vy, v_row) in v.chunks_exact(M).take(vy_max).enumerate() {
                            let out_row = &mut out_plane[(ty * M + vy) * ow + tx * M..][..vx_max];
                            for (o, vv) in out_row.iter_mut().zip(v_row) {
                                *o = vv[lane] + bias;
                            }
                        }
                    }
                }
            });
            g0 = g_end;
        }
    }
    ctx.scratch().put(y_band);
    out
}
