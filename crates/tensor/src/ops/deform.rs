use crate::init::{he_std, Gaussian};
use crate::{Shape, Tensor, TensorError};
use nvc_core::ExecCtx;

/// Deformable convolution v1 (`DfConv(N, k, s, G)` in paper Fig. 2(d)).
///
/// A regular convolution samples input pixels on a fixed grid; a deformable
/// convolution adds a per-position, per-kernel-tap fractional offset
/// `(Δy, Δx)` and samples bilinearly. CTVC-Net uses it for motion
/// compensation in the feature domain: the reconstructed motion field
/// provides the offsets, so the same machinery performs warping.
///
/// The input channels are split into `groups` deformable groups; each group
/// has its own offset field. The offset tensor therefore carries
/// `2 · groups · k · k` channels, ordered `(group, tap, [dy, dx])`, with the
/// same spatial size as the output.
///
/// Only stride 1 is supported (the paper only instantiates stride-1
/// deformable convolutions).
#[derive(Debug, Clone, PartialEq)]
pub struct DeformConv2d {
    weight: Vec<f32>,
    bias: Vec<f32>,
    c_out: usize,
    c_in: usize,
    k: usize,
    padding: usize,
    groups: usize,
    live: LiveTaps,
}

/// The `(input channel, tap)` samples some output channel actually
/// weights, derived once from the weights.
///
/// Samples are grouped by *site* — one `(group, tap)` offset pair — so
/// each offset pair is read and its bilinear footprint located once per
/// output pixel, then shared by every live channel of the group.
#[derive(Debug, Clone, PartialEq)]
struct LiveTaps {
    /// Sites with at least one live channel, in `(group, tap)` order.
    sites: Vec<Site>,
    /// Input channel of each sample slot; a site's slots are contiguous.
    slot_channel: Vec<usize>,
    /// Per output channel, `(slot, weight)` for every non-zero weight in
    /// ascending `ci · k² + tap` order — the dense dot product's order
    /// minus its exact-zero terms.
    reduce: Vec<Vec<(u32, f32)>>,
}

#[derive(Debug, Clone, PartialEq)]
struct Site {
    /// `group · k² + tap`: the site's `(dy, dx)` offset channel pair.
    group_tap: usize,
    /// Kernel-row and kernel-column position of the tap.
    kh: f32,
    kw: f32,
    /// Sample slots `slots.0 .. slots.1` of this site.
    slots: (usize, usize),
}

impl LiveTaps {
    fn new(weight: &[f32], c_out: usize, c_in: usize, k: usize, groups: usize) -> Self {
        let kk = k * k;
        let ch_per_group = c_in / groups;
        let is_live =
            |ci: usize, tap: usize| (0..c_out).any(|co| weight[(co * c_in + ci) * kk + tap] != 0.0);
        let mut slot_of = vec![u32::MAX; c_in * kk];
        let mut sites = Vec::new();
        let mut slot_channel = Vec::new();
        for g in 0..groups {
            for tap in 0..kk {
                let first = slot_channel.len();
                for ci in g * ch_per_group..(g + 1) * ch_per_group {
                    if is_live(ci, tap) {
                        slot_of[ci * kk + tap] = slot_channel.len() as u32;
                        slot_channel.push(ci);
                    }
                }
                if slot_channel.len() > first {
                    sites.push(Site {
                        group_tap: g * kk + tap,
                        kh: (tap / k) as f32,
                        kw: (tap % k) as f32,
                        slots: (first, slot_channel.len()),
                    });
                }
            }
        }
        let reduce = (0..c_out)
            .map(|co| {
                let wbase = co * c_in * kk;
                weight[wbase..wbase + c_in * kk]
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(i, &v)| (slot_of[i], v))
                    .collect()
            })
            .collect();
        LiveTaps {
            sites,
            slot_channel,
            reduce,
        }
    }
}

impl DeformConv2d {
    /// Creates a deformable convolution from explicit weights.
    ///
    /// # Errors
    ///
    /// Returns an error if buffer lengths mismatch, `k == 0`, or
    /// `c_in` is not divisible by `groups`.
    pub fn new(
        weight: Vec<f32>,
        bias: Vec<f32>,
        c_out: usize,
        c_in: usize,
        k: usize,
        padding: usize,
        groups: usize,
    ) -> Result<Self, TensorError> {
        if k == 0 {
            return Err(TensorError::invalid("kernel size must be non-zero"));
        }
        if groups == 0 || !c_in.is_multiple_of(groups) {
            return Err(TensorError::invalid(format!(
                "groups {groups} must divide input channels {c_in}"
            )));
        }
        if weight.len() != c_out * c_in * k * k {
            return Err(TensorError::LengthMismatch {
                expected: c_out * c_in * k * k,
                actual: weight.len(),
            });
        }
        if bias.len() != c_out {
            return Err(TensorError::LengthMismatch {
                expected: c_out,
                actual: bias.len(),
            });
        }
        let live = LiveTaps::new(&weight, c_out, c_in, k, groups);
        Ok(DeformConv2d {
            weight,
            bias,
            c_out,
            c_in,
            k,
            padding,
            groups,
            live,
        })
    }

    /// Creates a deformable convolution with He-initialised weights.
    ///
    /// # Errors
    ///
    /// Returns an error if `k == 0` or `groups` does not divide `c_in`.
    pub fn randn(
        c_out: usize,
        c_in: usize,
        k: usize,
        padding: usize,
        groups: usize,
        seed: u64,
    ) -> Result<Self, TensorError> {
        let mut g = Gaussian::new(seed);
        let mut weight = vec![0.0; c_out * c_in * k * k];
        g.fill(&mut weight, he_std(c_in * k * k));
        DeformConv2d::new(weight, vec![0.0; c_out], c_out, c_in, k, padding, groups)
    }

    /// Number of deformable groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Channel count the offset tensor must have: `2 · groups · k · k`.
    pub fn offset_channels(&self) -> usize {
        2 * self.groups * self.k * self.k
    }

    /// Runs the deformable convolution single-threaded.
    ///
    /// `offsets` must have [`offset_channels`](Self::offset_channels)
    /// channels and the same spatial size as `input` (stride is 1, padding
    /// preserves resolution when `padding == k / 2`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] on channel or spatial-size
    /// mismatch.
    pub fn forward(&self, input: &Tensor, offsets: &Tensor) -> Result<Tensor, TensorError> {
        self.forward_ctx(input, offsets, &ExecCtx::serial())
    }

    /// Runs the deformable convolution, fanning output rows across
    /// `exec`'s worker pool. Each row stages `[co][ox]` results in its own
    /// chunk. Only the live `(input channel, tap)` samples — those some
    /// output channel weights non-zero, fixed at construction — are
    /// bilinearly sampled, once per pixel and shared across output
    /// channels; each live `(group, tap)` offset pair is read once. For
    /// the codec's centre-tap warping kernels that is `c_in` samples per
    /// pixel instead of `c_in · k²`. The reduction accumulates the
    /// non-zero weights in dense order, so skipping dead taps changes no
    /// bit. Results are bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeformConv2d::forward`].
    pub fn forward_ctx(
        &self,
        input: &Tensor,
        offsets: &Tensor,
        exec: &ExecCtx,
    ) -> Result<Tensor, TensorError> {
        let (n, c, h, w) = input.shape().dims();
        if c != self.c_in {
            return Err(TensorError::incompatible(format!(
                "dfconv expects {} input channels, got {c}",
                self.c_in
            )));
        }
        let (on, oc, ooh, oow) = offsets.shape().dims();
        let out_h = h + 2 * self.padding - self.k + 1;
        let out_w = w + 2 * self.padding - self.k + 1;
        if on != n || oc != self.offset_channels() || ooh != out_h || oow != out_w {
            return Err(TensorError::incompatible(format!(
                "offset tensor {:?} incompatible (want ({n}, {}, {out_h}, {out_w}))",
                offsets.shape().dims(),
                self.offset_channels()
            )));
        }
        let out_shape = Shape::new(n, self.c_out, out_h, out_w);
        let mut out = Tensor::zeros(out_shape);
        let pad = self.padding as f32;
        let live = &self.live;
        let in_data = input.as_slice();

        for nn in 0..n {
            let planes = &in_data[nn * c * h * w..][..c * h * w];
            // Staging layout: [oy][co][ox], one chunk per output row.
            let mut rows = exec.scratch().take(out_h * self.c_out * out_w);
            // Sampling (4-tap bilinear per live sample) dominates the dot
            // product here, so gate on it rather than the MAC count.
            let work = (out_h * out_w * live.slot_channel.len()) as u64 * 4;
            exec.par_chunks_mut_gated(&mut rows, self.c_out * out_w, work, |oy, row| {
                let mut sampled = vec![0.0_f32; live.slot_channel.len()];
                for ox in 0..out_w {
                    for site in &live.sites {
                        let dy = offsets.at(nn, site.group_tap * 2, oy, ox);
                        let dx = offsets.at(nn, site.group_tap * 2 + 1, oy, ox);
                        let sy = oy as f32 - pad + site.kh + dy;
                        let sx = ox as f32 - pad + site.kw + dx;
                        let (lo, hi) = site.slots;
                        let fp = Footprint::new(sy, sx, h, w);
                        for (dst, &ci) in sampled[lo..hi].iter_mut().zip(&live.slot_channel[lo..hi])
                        {
                            *dst = match fp {
                                Some(fp) => fp.sample(&planes[ci * h * w..][..h * w], w),
                                None => input.sample_bilinear(nn, ci, sy, sx),
                            };
                        }
                    }
                    for (co, taps) in live.reduce.iter().enumerate() {
                        let mut acc = self.bias[co];
                        for &(slot, wv) in taps {
                            acc += sampled[slot as usize] * wv;
                        }
                        row[co * out_w + ox] = acc;
                    }
                }
            });
            // Scatter staged rows into NCHW.
            let out_data = out.as_mut_slice();
            for oy in 0..out_h {
                let row = &rows[oy * self.c_out * out_w..][..self.c_out * out_w];
                for co in 0..self.c_out {
                    let dst = ((nn * self.c_out + co) * out_h + oy) * out_w;
                    out_data[dst..dst + out_w].copy_from_slice(&row[co * out_w..][..out_w]);
                }
            }
            exec.scratch().put(rows);
        }
        Ok(out)
    }

    /// Number of multiply–accumulate operations for an `h × w` input
    /// (excluding the bilinear-sampling interpolation arithmetic).
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let oh = h + 2 * self.padding - self.k + 1;
        let ow = w + 2 * self.padding - self.k + 1;
        (self.c_out * self.c_in * self.k * self.k) as u64 * (oh * ow) as u64
    }
}

/// A bilinear sampling point whose 2×2 footprint lies inside the frame,
/// located once and shared by every channel sampled there.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    /// Flat index of the top-left corner within a channel plane.
    base: usize,
    dy: f32,
    dx: f32,
}

impl Footprint {
    /// Locates `(y, x)` in an `h × w` plane, or `None` when any corner
    /// falls outside it (the caller then takes the zero-padded path).
    #[inline]
    fn new(y: f32, x: f32, h: usize, w: usize) -> Option<Self> {
        let y0 = y.floor();
        let x0 = x.floor();
        let (iy, ix) = (y0 as isize, x0 as isize);
        if iy < 0 || ix < 0 || iy as usize + 1 >= h || ix as usize + 1 >= w {
            return None;
        }
        Some(Footprint {
            base: iy as usize * w + ix as usize,
            dy: y - y0,
            dx: x - x0,
        })
    }

    /// Interpolates one plane — the same expression, evaluated in the
    /// same order, as [`Tensor::sample_bilinear`], minus its padding
    /// checks.
    #[inline]
    fn sample(self, plane: &[f32], w: usize) -> f32 {
        let (dy, dx) = (self.dy, self.dx);
        let v00 = plane[self.base];
        let v01 = plane[self.base + 1];
        let v10 = plane[self.base + w];
        let v11 = plane[self.base + w + 1];
        v00 * (1.0 - dy) * (1.0 - dx)
            + v01 * (1.0 - dy) * dx
            + v10 * dy * (1.0 - dx)
            + v11 * dy * dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SplitMix64;

    /// With all offsets zero, a deformable conv must equal a regular conv.
    #[test]
    fn zero_offsets_match_regular_conv() {
        use crate::ops::Conv2d;
        let c_out = 3;
        let c_in = 4;
        let k = 3;
        let dconv = DeformConv2d::randn(c_out, c_in, k, 1, 2, 99).unwrap();
        let conv = Conv2d::new(
            dconv.weight.clone(),
            dconv.bias.clone(),
            c_out,
            c_in,
            k,
            1,
            1,
        )
        .unwrap();
        let x = Tensor::from_fn(Shape::new(1, c_in, 6, 7), |_, c, h, w| {
            ((c + 1) * (h + 2) + w) as f32 * 0.1
        });
        let offsets = Tensor::zeros(Shape::new(1, dconv.offset_channels(), 6, 7));
        let yd = dconv.forward(&x, &offsets).unwrap();
        let yc = conv.forward(&x).unwrap();
        let diff = yd.sub(&yc).unwrap().max_abs();
        assert!(diff < 1e-4, "max diff {diff}");
    }

    /// Integer offsets shift the sampling grid exactly.
    #[test]
    fn integer_offset_translates_sampling() {
        // 1x1 kernel, no padding: output(o) = input(o + offset).
        let dconv = DeformConv2d::new(vec![1.0], vec![0.0], 1, 1, 1, 0, 1).unwrap();
        let x = Tensor::from_fn(Shape::new(1, 1, 4, 4), |_, _, h, w| (h * 4 + w) as f32);
        let mut off = Tensor::zeros(Shape::new(1, 2, 4, 4));
        // dy = 1 everywhere.
        for h in 0..4 {
            for w in 0..4 {
                *off.at_mut(0, 0, h, w) = 1.0;
            }
        }
        let y = dconv.forward(&x, &off).unwrap();
        assert_eq!(y.at(0, 0, 0, 0), x.at(0, 0, 1, 0));
        assert_eq!(y.at(0, 0, 2, 3), x.at(0, 0, 3, 3));
        // Row beyond the frame samples zero padding.
        assert_eq!(y.at(0, 0, 3, 0), 0.0);
    }

    /// Fractional offsets interpolate bilinearly.
    #[test]
    fn fractional_offset_interpolates() {
        let dconv = DeformConv2d::new(vec![1.0], vec![0.0], 1, 1, 1, 0, 1).unwrap();
        let x = Tensor::from_vec(Shape::new(1, 1, 1, 2), vec![0.0, 10.0]).unwrap();
        let mut off = Tensor::zeros(Shape::new(1, 2, 1, 2));
        *off.at_mut(0, 1, 0, 0) = 0.5; // dx = 0.5 at the first pixel
        let y = dconv.forward(&x, &off).unwrap();
        assert!((y.at(0, 0, 0, 0) - 5.0).abs() < 1e-6);
    }

    /// Groups get independent offset fields.
    #[test]
    fn groups_use_independent_offsets() {
        // 2 channels, 2 groups, 1x1 kernel, weights sum both channels.
        let dconv = DeformConv2d::new(vec![1.0, 1.0], vec![0.0], 1, 2, 1, 0, 2).unwrap();
        let x = Tensor::from_fn(Shape::new(1, 2, 1, 3), |_, c, _, w| {
            if c == 0 {
                w as f32
            } else {
                100.0 * w as f32
            }
        });
        let mut off = Tensor::zeros(Shape::new(1, 4, 1, 3));
        // Group 0: dx = +1; group 1: dx = 0.
        for w in 0..3 {
            *off.at_mut(0, 1, 0, w) = 1.0;
        }
        let y = dconv.forward(&x, &off).unwrap();
        // Pixel 0: group0 samples x0[1] = 1, group1 samples x1[0] = 0.
        assert!((y.at(0, 0, 0, 0) - 1.0).abs() < 1e-6);
        // Pixel 1: group0 samples x0[2] = 2, group1 samples x1[1] = 100.
        assert!((y.at(0, 0, 0, 1) - 102.0).abs() < 1e-6);
    }

    /// The pre-live-tap forward pass: samples every `(ci, tap)` through
    /// [`Tensor::sample_bilinear`] and reduces over the non-zero weights
    /// in dense order.
    fn reference_forward(d: &DeformConv2d, x: &Tensor, off: &Tensor) -> Tensor {
        let (n, _, h, w) = x.shape().dims();
        let (kk, cpg, pad) = (d.k * d.k, d.c_in / d.groups, d.padding as f32);
        let (oh, ow) = (h + 2 * d.padding - d.k + 1, w + 2 * d.padding - d.k + 1);
        let mut out = Tensor::zeros(Shape::new(n, d.c_out, oh, ow));
        let mut sampled = vec![0.0_f32; d.c_in * kk];
        for nn in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for g in 0..d.groups {
                        for tap in 0..kk {
                            let dy = off.at(nn, (g * kk + tap) * 2, oy, ox);
                            let dx = off.at(nn, (g * kk + tap) * 2 + 1, oy, ox);
                            let sy = oy as f32 - pad + (tap / d.k) as f32 + dy;
                            let sx = ox as f32 - pad + (tap % d.k) as f32 + dx;
                            for ci in g * cpg..(g + 1) * cpg {
                                sampled[ci * kk + tap] = x.sample_bilinear(nn, ci, sy, sx);
                            }
                        }
                    }
                    for co in 0..d.c_out {
                        let mut acc = d.bias[co];
                        for (i, &wv) in d.weight[co * d.c_in * kk..][..d.c_in * kk]
                            .iter()
                            .enumerate()
                        {
                            if wv != 0.0 {
                                acc += sampled[i] * wv;
                            }
                        }
                        *out.at_mut(nn, co, oy, ox) = acc;
                    }
                }
            }
        }
        out
    }

    /// Live-tap sampling equals sampling every tap, bit for bit, across
    /// zero patterns (all-zero rows and fully dense included), groups,
    /// kernel sizes, and fractional and out-of-frame offsets.
    #[test]
    fn live_taps_match_every_tap_reference_bit_exactly() {
        let mut rng = SplitMix64::new(0x11FE);
        let mut gauss = Gaussian::new(0x11FF);
        let (c_in, c_out, h, w) = (4, 3, 5, 7);
        let mut cases = 0;
        for groups in [1, 2] {
            for k in [1, 3] {
                // Keep probability of each weight: 0 = all zero, 1 = dense.
                for keep in [0.0, 0.15, 0.5, 1.0] {
                    for trial in 0..3 {
                        let mut weight: Vec<f32> = (0..c_out * c_in * k * k)
                            .map(|_| {
                                if rng.next_f32() < keep {
                                    gauss.sample(0.0, 1.0)
                                } else {
                                    0.0
                                }
                            })
                            .collect();
                        if trial == 1 {
                            // An all-zero output-channel row.
                            weight[..c_in * k * k].fill(0.0);
                        }
                        let d = DeformConv2d::new(
                            weight,
                            vec![0.25, -0.5, 0.0],
                            c_out,
                            c_in,
                            k,
                            k / 2,
                            groups,
                        )
                        .unwrap();
                        let x = Tensor::from_fn(Shape::new(2, c_in, h, w), |_, _, _, _| {
                            gauss.sample(0.0, 1.0)
                        });
                        // Offsets in ±4.5 px reach well past the 5×7
                        // frame; every third one is a whole pixel.
                        let mut i = 0;
                        let off = Tensor::from_fn(
                            Shape::new(2, d.offset_channels(), h, w),
                            |_, _, _, _| {
                                i += 1;
                                let v = rng.next_f32() * 9.0 - 4.5;
                                if i % 3 == 0 {
                                    v.round()
                                } else {
                                    v
                                }
                            },
                        );
                        let want = reference_forward(&d, &x, &off);
                        for threads in [1, 2] {
                            let exec = ExecCtx::with_threads(threads);
                            let got = d.forward_ctx(&x, &off, &exec).unwrap();
                            assert_eq!(got.shape(), want.shape());
                            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "groups {groups} k {k} keep {keep} trial {trial}"
                                );
                            }
                        }
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 48);
    }

    #[test]
    fn validation_rejects_bad_config() {
        assert!(DeformConv2d::randn(4, 3, 3, 1, 2, 0).is_err()); // 2 ∤ 3
        assert!(DeformConv2d::randn(4, 4, 0, 0, 2, 0).is_err());
        let d = DeformConv2d::randn(4, 4, 3, 1, 2, 0).unwrap();
        let x = Tensor::zeros(Shape::new(1, 4, 5, 5));
        let bad_off = Tensor::zeros(Shape::new(1, 7, 5, 5));
        assert!(d.forward(&x, &bad_off).is_err());
        let bad_spatial = Tensor::zeros(Shape::new(1, d.offset_channels(), 4, 5));
        assert!(d.forward(&x, &bad_spatial).is_err());
    }
}
