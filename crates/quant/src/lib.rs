//! Fixed-point quantization substrate.
//!
//! The paper deploys CTVC-Net with **FXP16 weights** and **FXP12
//! activations** (Table II: "Precision (A-W): FXP 12-16"). This crate
//! provides the two ingredients needed to evaluate that configuration in
//! software:
//!
//! * [`QFormat`] — a signed two's-complement `Qm.n` fixed-point format
//!   (total bits, fractional bits) with saturating round-to-nearest
//!   quantization, and
//! * [`fake_quantize`] / [`QuantTensor`] — tensor-level quantize /
//!   dequantize, including automatic per-tensor format selection
//!   ([`QFormat::for_range`]), which is how the accelerator's per-layer
//!   scaling registers are modelled.
//!
//! "Fake quantization" (quantize then immediately dequantize, computing in
//! `f32`) reproduces the *numerics* of fixed-point inference — every value
//! is restricted to the representable grid — without re-implementing
//! integer arithmetic inside every operator; this is the standard software
//! evaluation methodology for accelerator precision studies.
//!
//! # Example
//!
//! ```
//! use nvc_quant::QFormat;
//! # fn main() -> Result<(), nvc_quant::QuantError> {
//! let fmt = QFormat::new(12, 8)?; // Q4.8: activations
//! let q = fmt.quantize(1.2345);
//! let back = fmt.dequantize(q);
//! assert!((back - 1.2345).abs() <= fmt.step() / 2.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use nvc_tensor::{Shape, Tensor};
use std::error::Error;
use std::fmt;

/// Error type for fixed-point format construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuantError {
    /// The requested format is not representable (zero width, too wide,
    /// or more fractional than total bits).
    InvalidFormat {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::InvalidFormat { reason } => {
                write!(f, "invalid fixed-point format: {reason}")
            }
        }
    }
}

impl Error for QuantError {}

/// Signed two's-complement fixed-point format `Q(total−frac−1).(frac)`.
///
/// Values are stored as `i32`; the representable range is
/// `[−2^(total−1), 2^(total−1) − 1]` codes, i.e.
/// `[−2^(total−1), 2^(total−1) − 1] · 2^(−frac)` in real value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    total_bits: u32,
    frac_bits: u32,
}

impl QFormat {
    /// Creates a format with `total_bits` total width (including sign) and
    /// `frac_bits` fractional bits.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidFormat`] if `total_bits` is 0 or
    /// exceeds 31, or `frac_bits >= total_bits`.
    pub fn new(total_bits: u32, frac_bits: u32) -> Result<Self, QuantError> {
        if total_bits == 0 || total_bits > 31 {
            return Err(QuantError::InvalidFormat {
                reason: format!("total bits {total_bits} outside 1..=31"),
            });
        }
        if frac_bits >= total_bits {
            return Err(QuantError::InvalidFormat {
                reason: format!("frac bits {frac_bits} must be < total bits {total_bits}"),
            });
        }
        Ok(QFormat {
            total_bits,
            frac_bits,
        })
    }

    /// The paper's weight format: 16-bit fixed point. Integer bits are
    /// chosen for a ±2 weight range (Q1.14).
    pub fn weights16() -> Self {
        QFormat {
            total_bits: 16,
            frac_bits: 14,
        }
    }

    /// The paper's activation format: 12-bit fixed point with a ±8 range
    /// (Q3.8).
    pub fn activations12() -> Self {
        QFormat {
            total_bits: 12,
            frac_bits: 8,
        }
    }

    /// Picks the format with `total_bits` width whose range just covers
    /// `max_abs` — the per-layer dynamic scaling the accelerator applies.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidFormat`] if `total_bits` is invalid.
    pub fn for_range(total_bits: u32, max_abs: f32) -> Result<Self, QuantError> {
        if total_bits == 0 || total_bits > 31 {
            return Err(QuantError::InvalidFormat {
                reason: format!("total bits {total_bits} outside 1..=31"),
            });
        }
        let max_abs = max_abs.abs().max(1e-12);
        // Smallest integer-bit count i with 2^i > max_abs.
        let int_bits = max_abs.log2().floor() as i32 + 1;
        let int_bits = int_bits.clamp(0, total_bits as i32 - 1) as u32;
        QFormat::new(total_bits, total_bits - 1 - int_bits)
    }

    /// Total bit width including sign.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Fractional bit count.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Quantization step (one least-significant bit), `2^(−frac)`.
    pub fn step(&self) -> f32 {
        (2.0_f32).powi(-(self.frac_bits as i32))
    }

    /// Smallest representable real value.
    pub fn min_value(&self) -> f32 {
        -((1_i64 << (self.total_bits - 1)) as f32) * self.step()
    }

    /// Largest representable real value.
    pub fn max_value(&self) -> f32 {
        ((1_i64 << (self.total_bits - 1)) - 1) as f32 * self.step()
    }

    /// Quantizes a real value to the nearest representable code,
    /// saturating at the format bounds. Rounds half away from zero
    /// (matching typical DSP hardware).
    pub fn quantize(&self, v: f32) -> i32 {
        let scaled = (v / self.step()) as f64;
        let rounded = if scaled >= 0.0 {
            (scaled + 0.5).floor()
        } else {
            (scaled - 0.5).ceil()
        };
        let lo = -(1_i64 << (self.total_bits - 1));
        let hi = (1_i64 << (self.total_bits - 1)) - 1;
        (rounded as i64).clamp(lo, hi) as i32
    }

    /// Converts a code back to its real value.
    pub fn dequantize(&self, code: i32) -> f32 {
        code as f32 * self.step()
    }

    /// Quantize-then-dequantize: projects `v` onto the representable grid.
    pub fn roundtrip(&self, v: f32) -> f32 {
        self.dequantize(self.quantize(v))
    }

    /// [`roundtrip`](Self::roundtrip) applied to every element of
    /// `values` in place, bit-identical per element (NaN maps to 0, ±inf
    /// saturates) but branch-free and in `f32` lanes only, so it
    /// vectorizes.
    pub fn roundtrip_slice(&self, values: &mut [f32]) {
        const TWO_23: f32 = 8_388_608.0;
        // `step` is 2^(−frac), so `v · 2^frac` and `v / step` are the same
        // correctly rounded product for every f32.
        let scale = (2.0_f32).powi(self.frac_bits as i32);
        let step = self.step();
        // Clamping the code in f32 equals clamping it in integers and then
        // converting, since the conversion is monotonic.
        let lo = -((1_i64 << (self.total_bits - 1)) as f32);
        let hi = ((1_i64 << (self.total_bits - 1)) - 1) as f32;
        for v in values {
            let s = *v * scale;
            let s = if s.is_nan() { 0.0 } else { s };
            let a = s.abs();
            // Nearest integer, ties to even: exact below 2^23, and from
            // 2^23 up every f32 is already whole. Then ties go away from
            // zero; `a − r` is exact because `r` is within half of `a`.
            let r = if a < TWO_23 { (a + TWO_23) - TWO_23 } else { a };
            let r = if a - r == 0.5 { r + 1.0 } else { r };
            // `+ 0.0` turns a −0 code into +0, as the integer path does.
            *v = (r.copysign(s).clamp(lo, hi) + 0.0) * step;
        }
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Q{}.{} ({}b)",
            self.total_bits - 1 - self.frac_bits,
            self.frac_bits,
            self.total_bits
        )
    }
}

/// A tensor stored in quantized integer codes together with its format.
///
/// Used where true integer data is needed (entropy coding of latents);
/// for in-network numerics use [`fake_quantize`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    shape: Shape,
    codes: Vec<i32>,
    format: QFormat,
}

impl QuantTensor {
    /// Quantizes a tensor into integer codes.
    pub fn quantize(t: &Tensor, format: QFormat) -> Self {
        QuantTensor {
            shape: t.shape(),
            codes: t.as_slice().iter().map(|&v| format.quantize(v)).collect(),
            format,
        }
    }

    /// The stored format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The tensor shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The raw integer codes.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Reconstructs the real-valued tensor.
    pub fn dequantize(&self) -> Tensor {
        let data = self
            .codes
            .iter()
            .map(|&c| self.format.dequantize(c))
            .collect();
        Tensor::from_vec(self.shape, data).expect("codes length matches shape by construction")
    }
}

/// Projects every element of `t` onto the grid of `format`
/// (quantize-then-dequantize) in place.
pub fn fake_quantize(t: &mut Tensor, format: QFormat) {
    format.roundtrip_slice(t.as_mut_slice());
}

/// Projects a tensor in place onto the best `total_bits`-wide format for
/// its own dynamic range, returning the chosen format.
///
/// # Errors
///
/// Returns [`QuantError::InvalidFormat`] if `total_bits` is invalid; `t`
/// is then left untouched.
pub fn fake_quantize_dynamic(t: &mut Tensor, total_bits: u32) -> Result<QFormat, QuantError> {
    let fmt = QFormat::for_range(total_bits, t.max_abs())?;
    fake_quantize(t, fmt);
    Ok(fmt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_validation() {
        assert!(QFormat::new(0, 0).is_err());
        assert!(QFormat::new(32, 8).is_err());
        assert!(QFormat::new(8, 8).is_err());
        assert!(QFormat::new(16, 14).is_ok());
    }

    #[test]
    fn representable_values_roundtrip_exactly() {
        let fmt = QFormat::new(12, 8).unwrap();
        for code in [-2048_i32, -1000, -1, 0, 1, 577, 2047] {
            let v = fmt.dequantize(code);
            assert_eq!(fmt.quantize(v), code);
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let fmt = QFormat::new(12, 8).unwrap();
        for i in 0..1000 {
            let v = (i as f32 - 500.0) * 0.0137;
            if v > fmt.max_value() || v < fmt.min_value() {
                continue;
            }
            let err = (fmt.roundtrip(v) - v).abs();
            assert!(err <= fmt.step() / 2.0 + 1e-7, "v={v} err={err}");
        }
    }

    #[test]
    fn saturation_at_bounds() {
        let fmt = QFormat::new(8, 4).unwrap(); // range [-8, 7.9375]
        assert_eq!(fmt.quantize(100.0), 127);
        assert_eq!(fmt.quantize(-100.0), -128);
        assert!((fmt.dequantize(127) - 7.9375).abs() < 1e-6);
        assert!((fmt.min_value() + 8.0).abs() < 1e-6);
    }

    #[test]
    fn rounding_is_half_away_from_zero() {
        let fmt = QFormat::new(8, 0).unwrap();
        assert_eq!(fmt.quantize(0.5), 1);
        assert_eq!(fmt.quantize(-0.5), -1);
        assert_eq!(fmt.quantize(0.49), 0);
        assert_eq!(fmt.quantize(-0.49), 0);
    }

    #[test]
    fn for_range_covers_max_abs() {
        for max_abs in [0.3_f32, 1.0, 1.7, 5.0, 100.0] {
            let fmt = QFormat::for_range(12, max_abs).unwrap();
            assert!(
                fmt.max_value() >= max_abs * 0.999 || fmt.frac_bits() == 0,
                "{fmt} does not cover {max_abs}"
            );
        }
        // Tiny ranges use maximum fractional precision.
        let fmt = QFormat::for_range(12, 1e-9).unwrap();
        assert_eq!(fmt.frac_bits(), 11);
    }

    #[test]
    fn paper_formats() {
        assert_eq!(QFormat::weights16().total_bits(), 16);
        assert_eq!(QFormat::activations12().total_bits(), 12);
        assert_eq!(QFormat::weights16().to_string(), "Q1.14 (16b)");
    }

    #[test]
    fn quant_tensor_roundtrip() {
        let t = Tensor::from_fn(Shape::new(1, 2, 3, 3), |_, c, h, w| {
            (c as f32 - 0.5) * 0.3 + (h as f32) * 0.01 - (w as f32) * 0.07
        });
        let q = QuantTensor::quantize(&t, QFormat::activations12());
        let back = q.dequantize();
        assert_eq!(back.shape(), t.shape());
        let err = back.sub(&t).unwrap().max_abs();
        assert!(err <= QFormat::activations12().step() / 2.0 + 1e-7);
        assert_eq!(q.codes().len(), 18);
    }

    #[test]
    fn fake_quantize_is_idempotent() {
        let mut once = Tensor::from_fn(Shape::new(1, 1, 4, 4), |_, _, h, w| {
            ((h * 4 + w) as f32).sin()
        });
        let fmt = QFormat::activations12();
        fake_quantize(&mut once, fmt);
        let mut twice = once.clone();
        fake_quantize(&mut twice, fmt);
        assert_eq!(once, twice);
    }

    #[test]
    fn dynamic_quantization_picks_format() {
        let mut q = Tensor::filled(Shape::new(1, 1, 2, 2), 3.7);
        let fmt = fake_quantize_dynamic(&mut q, 12).unwrap();
        assert!(fmt.max_value() >= 3.7);
        assert!((q.at(0, 0, 0, 0) - 3.7).abs() <= fmt.step());
        let before = q.clone();
        assert!(fake_quantize_dynamic(&mut q, 0).is_err());
        assert_eq!(q, before, "an invalid width leaves the tensor untouched");
    }

    /// Every format of every width: `roundtrip_slice` equals the scalar
    /// `roundtrip` bit for bit on the values where rounding, saturation
    /// and special-value handling can go wrong.
    #[test]
    fn roundtrip_slice_matches_scalar_roundtrip_bit_exactly() {
        let mut formats = 0;
        for total_bits in 2..=31 {
            for frac_bits in 0..total_bits {
                let fmt = QFormat::new(total_bits, frac_bits).unwrap();
                let step = fmt.step();
                let mut inputs = vec![
                    0.0,
                    -0.0,
                    f32::NAN,
                    -f32::NAN,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    f32::MAX,
                    f32::MIN,
                    f32::MIN_POSITIVE,
                    -f32::MIN_POSITIVE,
                    f32::from_bits(1),
                    -f32::from_bits(1),
                    f32::from_bits(0x007f_ffff),
                    -f32::from_bits(0x0040_0000),
                    step / 2.0,
                    -step / 2.0,
                    fmt.max_value(),
                    fmt.min_value(),
                ];
                // Exact half-steps (k + 0.5)·step, and their neighbours.
                for k in [0_i64, 1, 2, 3, 7, 100, 1 << (total_bits - 2)] {
                    let half = (k as f64 + 0.5) as f32 * step;
                    for v in [half, -half] {
                        inputs.extend([v, next_up(v), next_down(v)]);
                    }
                }
                // At and just past the saturation bounds.
                for bound in [fmt.max_value(), fmt.min_value()] {
                    let past = bound + bound.signum() * step / 2.0;
                    inputs.extend([next_up(bound), next_down(bound), past, next_up(past)]);
                    inputs.extend([next_down(past), bound * 2.0]);
                }
                let want: Vec<u32> = inputs.iter().map(|&v| fmt.roundtrip(v).to_bits()).collect();
                let mut got = inputs.clone();
                fmt.roundtrip_slice(&mut got);
                for ((v, g), w) in inputs.iter().zip(&got).zip(&want) {
                    assert_eq!(
                        g.to_bits(),
                        *w,
                        "{fmt}: input {v:e} ({:#010x})",
                        v.to_bits()
                    );
                }
                formats += 1;
            }
        }
        assert_eq!(formats, (2..=31).sum::<u32>());
    }

    fn next_up(v: f32) -> f32 {
        step_bits(v, 1)
    }

    fn next_down(v: f32) -> f32 {
        step_bits(v, -1)
    }

    /// The adjacent f32 toward +inf (`dir = 1`) or −inf (`dir = −1`).
    fn step_bits(v: f32, dir: i32) -> f32 {
        if v == 0.0 {
            return f32::from_bits(1) * dir as f32;
        }
        let away = (v > 0.0) == (dir > 0);
        let bits = v.to_bits();
        f32::from_bits(if away { bits + 1 } else { bits - 1 })
    }

    /// The lane-chunked `Tensor::max_abs` equals the sequential fold,
    /// NaN and −0.0 included, at lengths off the lane multiple.
    #[test]
    fn chunked_max_abs_matches_fold() {
        let fold = |xs: &[f32]| xs.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
        let specials = [f32::NAN, -0.0, -f32::NAN, 0.0, -3.5, f32::from_bits(1)];
        for len in [0_usize, 1, 3, 7, 8, 9, 15, 17, 31, 33, 100] {
            for pattern in 0..4 {
                let xs: Vec<f32> = (0..len)
                    .map(|i| match pattern {
                        0 => specials[i % specials.len()],
                        1 => -0.0,
                        2 => f32::NAN,
                        _ => ((i * 37 % 11) as f32 - 5.0) * if i % 5 == 0 { f32::NAN } else { 1.0 },
                    })
                    .collect();
                let t = Tensor::from_vec(Shape::new(1, 1, 1, len), xs.clone()).unwrap();
                assert_eq!(
                    t.max_abs().to_bits(),
                    fold(&xs).to_bits(),
                    "len {len} pattern {pattern}"
                );
            }
        }
        // An infinity wins wherever it sits, the tail included.
        let mut xs = vec![1.0_f32; 19];
        xs[18] = f32::NEG_INFINITY;
        let t = Tensor::from_vec(Shape::new(1, 1, 1, 19), xs).unwrap();
        assert_eq!(t.max_abs(), f32::INFINITY);
    }

    #[test]
    fn error_display() {
        let err = QFormat::new(0, 0).unwrap_err();
        assert!(err.to_string().contains("invalid fixed-point format"));
    }
}
