//! Functional motion estimation: full-search block matching with optional
//! half-pel refinement, operating on a single derived feature plane.
//!
//! This is the documented substitute for the paper's trained
//! motion-estimation CNN (crate docs, *Substitutions*): it produces the dense motion
//! field that the motion-compression autoencoder codes and the deformable
//! compensation consumes.

use nvc_core::ExecCtx;
use nvc_tensor::{Shape, Tensor};

/// Mean of the first three channels (the ±RGB passthrough features) as a
/// single matching plane.
pub fn matching_plane(features: &Tensor) -> Tensor {
    let (_, _, h, w) = features.shape().dims();
    Tensor::from_fn(Shape::new(1, 1, h, w), |_, _, y, x| {
        (features.at(0, 0, y, x) + features.at(0, 1, y, x) + features.at(0, 2, y, x)) / 3.0
    })
}

fn sad(cur: &Tensor, reference: &Tensor, by: usize, bx: usize, bs: usize, dy: f32, dx: f32) -> f64 {
    // Bilinear sampling at whole-pel offsets reduces exactly to the
    // integer sample (the fractional weights are 0/1), so the full-pel
    // search can skip the interpolation arithmetic entirely.
    if dy.fract() == 0.0 && dx.fract() == 0.0 {
        return sad_full_pel(cur, reference, by, bx, bs, dy as isize, dx as isize);
    }
    let mut acc = 0.0_f64;
    for y in 0..bs {
        for x in 0..bs {
            let cy = by + y;
            let cx = bx + x;
            let c = cur.at_padded(0, 0, cy as isize, cx as isize);
            let r = reference.sample_bilinear(0, 0, cy as f32 + dy, cx as f32 + dx);
            acc += (c - r).abs() as f64;
        }
    }
    acc
}

fn sad_full_pel(
    cur: &Tensor,
    reference: &Tensor,
    by: usize,
    bx: usize,
    bs: usize,
    dy: isize,
    dx: isize,
) -> f64 {
    let mut acc = 0.0_f64;
    for y in 0..bs {
        let cy = (by + y) as isize;
        for x in 0..bs {
            let cx = (bx + x) as isize;
            let c = cur.at_padded(0, 0, cy, cx);
            let r = reference.at_padded(0, 0, cy + dy, cx + dx);
            acc += (c - r).abs() as f64;
        }
    }
    acc
}

/// Estimates a dense per-pixel motion field between two single-channel
/// planes via block matching.
///
/// Returns a `1 × 2 × h × w` tensor: channel 0 = `dy`, channel 1 = `dx`
/// (piecewise constant per block), in the convention
/// `cur(y, x) ≈ ref(y + dy, x + dx)`.
///
/// # Panics
///
/// Panics if the planes differ in shape or are not single-channel.
pub fn estimate_motion(
    cur: &Tensor,
    reference: &Tensor,
    block: usize,
    range: i32,
    half_pel: bool,
) -> Tensor {
    estimate_motion_ctx(cur, reference, block, range, half_pel, &ExecCtx::serial())
}

/// [`estimate_motion`] with the per-block full searches fanned across
/// `exec`'s worker pool. Every block's search is independent and reads
/// only the two fixed planes, so the field is bit-identical for every
/// worker count.
///
/// # Panics
///
/// Panics if the planes differ in shape or are not single-channel.
pub fn estimate_motion_ctx(
    cur: &Tensor,
    reference: &Tensor,
    block: usize,
    range: i32,
    half_pel: bool,
    exec: &ExecCtx,
) -> Tensor {
    assert_eq!(cur.shape(), reference.shape(), "plane shapes must match");
    assert_eq!(cur.shape().c(), 1, "motion estimation runs on one plane");
    let (_, _, h, w) = cur.shape().dims();
    let coords: Vec<(usize, usize)> = (0..h)
        .step_by(block)
        .flat_map(|by| (0..w).step_by(block).map(move |bx| (by, bx)))
        .collect();
    let mut vectors = vec![(0.0_f32, 0.0_f32); coords.len()];
    // Each block evaluates (2·range + 1)² SAD candidates of bs² pixels;
    // gate the fan-out so small planes search serially.
    let search_points = (2 * range as u64 + 1).pow(2) + if half_pel { 8 } else { 0 };
    let work = (h * w) as u64 * search_points;
    exec.par_chunks_mut_gated(&mut vectors, 1, work, |bi, v| {
        let (by, bx) = coords[bi];
        let bs = block.min(h - by).min(w - bx);
        let mut best = (0.0_f32, 0.0_f32);
        // Small bias toward shorter vectors stabilises flat regions.
        let mut best_cost = sad(cur, reference, by, bx, bs, 0.0, 0.0);
        for dy in -range..=range {
            for dx in -range..=range {
                if dy == 0 && dx == 0 {
                    continue;
                }
                let cost = sad(cur, reference, by, bx, bs, dy as f32, dx as f32)
                    + 0.02 * (dy.abs() + dx.abs()) as f64;
                if cost < best_cost {
                    best_cost = cost;
                    best = (dy as f32, dx as f32);
                }
            }
        }
        if half_pel {
            let (cy, cx) = best;
            for sy in [-0.5_f32, 0.0, 0.5] {
                for sx in [-0.5_f32, 0.0, 0.5] {
                    if sy == 0.0 && sx == 0.0 {
                        continue;
                    }
                    let cost = sad(cur, reference, by, bx, bs, cy + sy, cx + sx);
                    if cost < best_cost {
                        best_cost = cost;
                        best = (cy + sy, cx + sx);
                    }
                }
            }
        }
        v[0] = best;
    });
    let mut field = Tensor::zeros(Shape::new(1, 2, h, w));
    for (&(by, bx), &(dy, dx)) in coords.iter().zip(&vectors) {
        let bs = block.min(h - by).min(w - bx);
        for y in 0..bs {
            for x in 0..bs {
                *field.at_mut(0, 0, by + y, bx + x) = dy;
                *field.at_mut(0, 1, by + y, bx + x) = dx;
            }
        }
    }
    field
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(h: usize, w: usize, oy: f32, ox: f32) -> Tensor {
        // Incommensurate low frequencies: no period shorter than the
        // search diameter, so block matching cannot alias.
        Tensor::from_fn(Shape::new(1, 1, h, w), |_, _, y, x| {
            let fy = y as f32 + oy;
            let fx = x as f32 + ox;
            (fy * 0.35).sin() * (fx * 0.28).cos() + 0.5 * (fy * 0.13 + fx * 0.21).sin()
        })
    }

    #[test]
    fn recovers_integer_translation() {
        // cur(y, x) = ref(y + 2, x - 3): motion (dy, dx) = (2, -3).
        let reference = textured(32, 32, 0.0, 0.0);
        let cur = textured(32, 32, 2.0, -3.0);
        let field = estimate_motion(&cur, &reference, 8, 6, false);
        // Interior blocks (borders suffer from padding).
        for by in [8, 16] {
            for bx in [8, 16] {
                assert_eq!(field.at(0, 0, by, bx), 2.0, "dy at ({by},{bx})");
                assert_eq!(field.at(0, 1, by, bx), -3.0, "dx at ({by},{bx})");
            }
        }
    }

    #[test]
    fn recovers_half_pel_translation() {
        let reference = textured(32, 32, 0.0, 0.0);
        let cur = textured(32, 32, 0.5, 1.5);
        let field = estimate_motion(&cur, &reference, 8, 4, true);
        let dy = field.at(0, 0, 16, 16);
        let dx = field.at(0, 1, 16, 16);
        assert!((dy - 0.5).abs() <= 0.5, "dy {dy}");
        assert!((dx - 1.5).abs() <= 0.5, "dx {dx}");
    }

    #[test]
    fn zero_motion_for_identical_planes() {
        let p = textured(16, 16, 0.0, 0.0);
        let field = estimate_motion(&p, &p, 8, 4, true);
        assert_eq!(field.max_abs(), 0.0);
    }

    #[test]
    fn matching_plane_averages_rgb_features() {
        let f = Tensor::from_fn(Shape::new(1, 6, 2, 2), |_, c, _, _| c as f32);
        let p = matching_plane(&f);
        assert_eq!(p.shape().dims(), (1, 1, 2, 2));
        assert_eq!(p.at(0, 0, 0, 0), 1.0); // (0 + 1 + 2) / 3
    }
}
