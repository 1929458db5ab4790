//! SURF: Speeded-Up Robust Features.
//!
//! Approximates the Hessian determinant with box filters evaluated in O(1)
//! over an integral image, detects blob responses across three filter sizes,
//! applies 3×3 spatial non-maximum suppression, and extracts a 64-dimensional
//! descriptor from Haar-wavelet responses in a 4×4 grid of subregions.

use crate::image::{GrayImage, IntegralImage};
use crate::ops;
use bagpred_trace::parallel::map_profiled;
use bagpred_trace::{InstrClass, Profiler};
use serde::{Deserialize, Serialize};

/// Box-filter sizes (SURF uses 9, 15, 21 for the first octave).
const FILTER_SIZES: [usize; 3] = [9, 15, 21];
/// Hessian response threshold.
const RESPONSE_THRESHOLD: f64 = 60.0;

/// A SURF interest point with its descriptor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfKeypoint {
    /// Column of the keypoint.
    pub x: u16,
    /// Row of the keypoint.
    pub y: u16,
    /// Box-filter size the response peaked at.
    pub size: u16,
    /// Hessian determinant response.
    pub response: f32,
    /// 64-dimensional Haar-wavelet descriptor.
    pub descriptor: Vec<f32>,
}

/// Result of running SURF over a batch of images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfOutput {
    /// Keypoints per image, in batch order.
    pub keypoints: Vec<Vec<SurfKeypoint>>,
}

impl SurfOutput {
    /// Total keypoints across the batch.
    pub fn total_keypoints(&self) -> usize {
        self.keypoints.iter().map(Vec::len).sum()
    }
}

/// Approximate Hessian determinant at `(x, y)` for box-filter size `size`.
///
/// Dxx/Dyy use three stacked boxes (+1, -2, +1); Dxy uses four quadrant
/// boxes. All sums are O(1) via the integral image.
fn hessian_response(
    integral: &IntegralImage,
    x: usize,
    y: usize,
    size: usize,
    prof: &mut Profiler,
) -> Option<f64> {
    let half = size / 2;
    if x < half || y < half || x + half >= integral.width() || y + half >= integral.height() {
        return None;
    }
    let third = size / 3;
    let norm = 1.0 / (size * size) as f64;

    // Dyy: three horizontal bands (top +1, middle -2, bottom +1).
    let band_w = size.min(integral.width() - (x - half));
    let x0 = x - half;
    let y0 = y - half;
    let b1 = ops::box_sum(integral, x0, y0, band_w, third, prof) as f64;
    let b2 = ops::box_sum(integral, x0, y0 + third, band_w, third, prof) as f64;
    let b3 = ops::box_sum(integral, x0, y0 + 2 * third, band_w, third, prof) as f64;
    let dyy = (b1 - 2.0 * b2 + b3) * norm;

    // Dxx: three vertical bands.
    let band_h = size.min(integral.height() - (y - half));
    let c1 = ops::box_sum(integral, x0, y0, third, band_h, prof) as f64;
    let c2 = ops::box_sum(integral, x0 + third, y0, third, band_h, prof) as f64;
    let c3 = ops::box_sum(integral, x0 + 2 * third, y0, third, band_h, prof) as f64;
    let dxx = (c1 - 2.0 * c2 + c3) * norm;

    // Dxy: four quadrants around the center (+ - / - +).
    let q = third;
    let qa = ops::box_sum(integral, x0, y0, q, q, prof) as f64;
    let qb = ops::box_sum(integral, x + 1 - q.min(x), y0, q, q, prof) as f64;
    let qc = ops::box_sum(integral, x0, y + 1 - q.min(y), q, q, prof) as f64;
    let qd = ops::box_sum(integral, x + 1 - q.min(x), y + 1 - q.min(y), q, q, prof) as f64;
    let dxy = (qa + qd - qb - qc) * norm;

    prof.count(InstrClass::Fp, 12);
    // SURF's 0.9 weight compensates the box approximation of the Gaussian.
    Some(dxx * dyy - (0.9 * dxy) * (0.9 * dxy))
}

/// Haar-wavelet descriptor: sums of (|dx|, dx, |dy|, dy) responses in a 4×4
/// grid of subregions around the keypoint.
fn haar_descriptor(integral: &IntegralImage, x: usize, y: usize, prof: &mut Profiler) -> Vec<f32> {
    let mut desc = vec![0f32; 64];
    let wavelet = 4usize;
    let region = 4usize; // 4x4 samples per subregion
    for sy in 0..4usize {
        for sx in 0..4usize {
            let mut sum_dx = 0f64;
            let mut sum_dy = 0f64;
            let mut sum_adx = 0f64;
            let mut sum_ady = 0f64;
            for iy in 0..region {
                for ix in 0..region {
                    let px = x as isize + ((sx * region + ix) as isize - 8);
                    let py = y as isize + ((sy * region + iy) as isize - 8);
                    if px < 0
                        || py < 0
                        || px as usize + wavelet >= integral.width()
                        || py as usize + wavelet >= integral.height()
                    {
                        continue;
                    }
                    let (px, py) = (px as usize, py as usize);
                    let left = ops::box_sum(integral, px, py, wavelet / 2, wavelet, prof) as f64;
                    let right =
                        ops::box_sum(integral, px + wavelet / 2, py, wavelet / 2, wavelet, prof)
                            as f64;
                    let top = ops::box_sum(integral, px, py, wavelet, wavelet / 2, prof) as f64;
                    let bottom =
                        ops::box_sum(integral, px, py + wavelet / 2, wavelet, wavelet / 2, prof)
                            as f64;
                    let dx = right - left;
                    let dy = bottom - top;
                    sum_dx += dx;
                    sum_dy += dy;
                    sum_adx += dx.abs();
                    sum_ady += dy.abs();
                }
            }
            let base = (sy * 4 + sx) * 4;
            desc[base] = sum_dx as f32;
            desc[base + 1] = sum_adx as f32;
            desc[base + 2] = sum_dy as f32;
            desc[base + 3] = sum_ady as f32;
            prof.count(InstrClass::Fp, 6 * (region * region) as u64);
            prof.count(InstrClass::Control, region as u64);
            prof.write_bytes(16);
        }
    }
    // L2 normalize for contrast invariance.
    let norm: f32 = desc.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
    for v in &mut desc {
        *v /= norm;
    }
    prof.count(InstrClass::Sse, 2 * 64);
    desc
}

/// Runs SURF on one image.
pub(crate) fn detect(img: &GrayImage, prof: &mut Profiler) -> Vec<SurfKeypoint> {
    let integral = ops::integral(img, prof);
    let w = img.width();
    let h = img.height();

    // Response maps per filter size (sampled at stride 2, like SURF octave 1).
    let stride = 2usize;
    let mut keypoints = Vec::new();
    for &size in &FILTER_SIZES {
        let mut responses = vec![0f64; (w / stride) * (h / stride)];
        let cols = w / stride;
        for gy in 0..h / stride {
            for gx in 0..cols {
                if let Some(r) = hessian_response(&integral, gx * stride, gy * stride, size, prof) {
                    responses[gy * cols + gx] = r;
                }
            }
            prof.count(InstrClass::Control, 1);
        }
        // 3x3 non-maximum suppression on the sampled grid.
        for gy in 1..(h / stride).saturating_sub(1) {
            for gx in 1..cols.saturating_sub(1) {
                let v = responses[gy * cols + gx];
                prof.read_bytes(8);
                prof.count(InstrClass::Fp, 1);
                prof.count(InstrClass::Control, 1);
                if v < RESPONSE_THRESHOLD {
                    continue;
                }
                let mut is_max = true;
                for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let n =
                            responses[(gy as i32 + dy) as usize * cols + (gx as i32 + dx) as usize];
                        if n >= v {
                            is_max = false;
                        }
                    }
                }
                prof.read_bytes(64);
                prof.count(InstrClass::Fp, 8);
                prof.count(InstrClass::Control, 9);
                if is_max {
                    let x = gx * stride;
                    let y = gy * stride;
                    let descriptor = haar_descriptor(&integral, x, y, prof);
                    prof.count(InstrClass::Stack, 6);
                    keypoints.push(SurfKeypoint {
                        x: x as u16,
                        y: y as u16,
                        size: size as u16,
                        response: v as f32,
                        descriptor,
                    });
                }
            }
        }
    }
    keypoints
}

/// Runs SURF over every image in a batch.
pub(crate) fn run_batch(images: &[GrayImage], threads: usize, prof: &mut Profiler) -> SurfOutput {
    let keypoints = map_profiled(images, threads, prof, detect);
    prof.count(InstrClass::Stack, 4 * images.len() as u64);
    SurfOutput { keypoints }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSynthesizer;

    #[test]
    fn flat_image_has_no_keypoints() {
        let img = GrayImage::from_fn(64, 64, |_, _| 90);
        let mut prof = Profiler::new();
        assert!(detect(&img, &mut prof).is_empty());
    }

    #[test]
    fn dark_blob_on_bright_field_is_detected() {
        let img = GrayImage::from_fn(64, 64, |x, y| {
            let dx = x as i32 - 32;
            let dy = y as i32 - 32;
            if dx * dx + dy * dy < 30 {
                10
            } else {
                220
            }
        });
        let mut prof = Profiler::new();
        let kps = detect(&img, &mut prof);
        assert!(!kps.is_empty(), "blob should trigger Hessian response");
        assert!(kps
            .iter()
            .any(|k| (k.x as i32 - 32).abs() < 8 && (k.y as i32 - 32).abs() < 8));
    }

    #[test]
    fn descriptors_are_unit_norm() {
        let batch = ImageSynthesizer::new(6).synthesize_batch(1, 1);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, 1, &mut prof);
        for kp in out.keypoints.iter().flatten() {
            assert_eq!(kp.descriptor.len(), 64);
            let n: f32 = kp.descriptor.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 0.01 || n < 1e-5);
        }
    }

    #[test]
    fn hessian_rejects_border() {
        let img = GrayImage::from_fn(32, 32, |_, _| 50);
        let integral = IntegralImage::from_image(&img);
        let mut prof = Profiler::new();
        assert!(hessian_response(&integral, 0, 0, 9, &mut prof).is_none());
        assert!(hessian_response(&integral, 16, 16, 9, &mut prof).is_some());
    }

    #[test]
    fn deterministic() {
        let batch = ImageSynthesizer::new(8).synthesize_batch(2, 1);
        let mut p1 = Profiler::new();
        let mut p2 = Profiler::new();
        assert_eq!(run_batch(&batch, 1, &mut p1), run_batch(&batch, 1, &mut p2));
    }
}
