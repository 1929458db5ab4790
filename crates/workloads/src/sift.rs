//! SIFT: Scale-Invariant Feature Transform.
//!
//! Builds a Gaussian scale-space pyramid, computes difference-of-Gaussians
//! (DoG) planes, locates scale-space extrema (26-neighbor test), assigns a
//! dominant gradient orientation from a 36-bin histogram, and extracts the
//! classic 4×4×8 = 128-dimensional gradient-histogram descriptor.
//!
//! The pyramid is trimmed to two octaves with four Gaussian scales each,
//! which preserves the algorithm's structure (and its blur-dominated,
//! FP/SIMD-heavy instruction mix) at a fraction of the full cost.

use crate::image::GrayImage;
use crate::ops::{self, FloatImage};
use bagpred_trace::parallel::map_profiled;
use bagpred_trace::{InstrClass, Profiler};
use serde::{Deserialize, Serialize};

/// Octaves in the pyramid.
const OCTAVES: usize = 2;
/// Gaussian scales per octave (yields `SCALES - 1` DoG planes).
const SCALES: usize = 4;
/// Base blur sigma.
const SIGMA0: f64 = 1.6;
/// DoG magnitude threshold for extrema.
const DOG_THRESHOLD: f32 = 4.0;
/// Orientation histogram bins.
const ORI_BINS: usize = 36;

/// A SIFT keypoint with its 128-d descriptor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiftKeypoint {
    /// Column in the original image.
    pub x: u16,
    /// Row in the original image.
    pub y: u16,
    /// Pyramid octave the keypoint was found in.
    pub octave: u8,
    /// Dominant orientation in radians.
    pub angle: f32,
    /// 128-dimensional gradient-histogram descriptor, L2-normalized.
    pub descriptor: Vec<f32>,
}

/// Result of running SIFT over a batch of images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiftOutput {
    /// Keypoints per image, in batch order.
    pub keypoints: Vec<Vec<SiftKeypoint>>,
}

impl SiftOutput {
    /// Total keypoints across the batch.
    pub fn total_keypoints(&self) -> usize {
        self.keypoints.iter().map(Vec::len).sum()
    }
}

struct Octave {
    gaussians: Vec<FloatImage>,
    dogs: Vec<FloatImage>,
    scale: usize, // downsampling factor relative to the input image
}

fn build_pyramid(img: &GrayImage, prof: &mut Profiler) -> Vec<Octave> {
    let mut octaves = Vec::with_capacity(OCTAVES);
    let mut base = FloatImage::from_gray(img, prof);
    let mut scale = 1usize;
    let k = 2f64.powf(1.0 / (SCALES - 1) as f64);
    for _ in 0..OCTAVES {
        let mut gaussians = Vec::with_capacity(SCALES);
        for s in 0..SCALES {
            let sigma = SIGMA0 * k.powi(s as i32);
            gaussians.push(ops::gaussian_blur(&base, sigma, prof));
        }
        let mut dogs = Vec::with_capacity(SCALES - 1);
        for s in 0..SCALES - 1 {
            let a = &gaussians[s + 1];
            let b = &gaussians[s];
            let mut dog = FloatImage::new(a.width, a.height);
            for i in 0..dog.data.len() {
                dog.data[i] = a.data[i] - b.data[i];
            }
            let n = dog.data.len() as u64;
            prof.count(InstrClass::Sse, n);
            prof.read_bytes(8 * n);
            prof.write_bytes(4 * n);
            dogs.push(dog);
        }
        let next_base = gaussians[SCALES - 1].half(prof);
        octaves.push(Octave {
            gaussians,
            dogs,
            scale,
        });
        base = next_base;
        scale *= 2;
    }
    octaves
}

/// True when `dogs[s]` at `(x, y)` is a strict extremum of its 26 neighbors.
fn is_extremum(dogs: &[FloatImage], s: usize, x: usize, y: usize, prof: &mut Profiler) -> bool {
    let v = dogs[s].get(x, y);
    if v.abs() < DOG_THRESHOLD {
        return false;
    }
    let mut is_max = true;
    let mut is_min = true;
    for plane in &dogs[s - 1..=s + 1] {
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                let nv = plane.get_clamped(x as isize + dx as isize, y as isize + dy as isize);
                if std::ptr::eq(plane, &dogs[s]) && dx == 0 && dy == 0 {
                    continue;
                }
                if nv >= v {
                    is_max = false;
                }
                if nv <= v {
                    is_min = false;
                }
            }
        }
    }
    prof.read_bytes(27 * 4);
    prof.count(InstrClass::Fp, 54);
    prof.count(InstrClass::Control, 30);
    is_max || is_min
}

/// Dominant gradient orientation from a 36-bin weighted histogram.
fn dominant_orientation(
    dx: &FloatImage,
    dy: &FloatImage,
    x: usize,
    y: usize,
    prof: &mut Profiler,
) -> f32 {
    let mut hist = [0f32; ORI_BINS];
    let radius = 4i32;
    for oy in -radius..=radius {
        for ox in -radius..=radius {
            let gx = dx.get_clamped(x as isize + ox as isize, y as isize + oy as isize);
            let gy = dy.get_clamped(x as isize + ox as isize, y as isize + oy as isize);
            let mag = (gx * gx + gy * gy).sqrt();
            let ang = gy.atan2(gx);
            let bin = (((ang + std::f32::consts::PI) / (2.0 * std::f32::consts::PI)
                * ORI_BINS as f32) as usize)
                .min(ORI_BINS - 1);
            hist[bin] += mag;
        }
    }
    let window = (2 * radius + 1) as u64;
    prof.read_bytes(8 * window * window);
    // sqrt (~10 flops) + atan2 (~40 flops) + binning per pixel.
    prof.count(InstrClass::Fp, 52 * window * window);
    prof.count(InstrClass::Alu, 2 * window * window);
    prof.count(InstrClass::Control, window);
    let best = hist
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    prof.count(InstrClass::Control, ORI_BINS as u64);
    (best as f32 + 0.5) / ORI_BINS as f32 * 2.0 * std::f32::consts::PI - std::f32::consts::PI
}

/// Extracts the 4×4×8 gradient-histogram descriptor around a keypoint.
fn descriptor(
    dx: &FloatImage,
    dy: &FloatImage,
    x: usize,
    y: usize,
    angle: f32,
    prof: &mut Profiler,
) -> Vec<f32> {
    let mut desc = vec![0f32; 128];
    let (sin, cos) = angle.sin_cos();
    let half = 8i32; // 16x16 sampling window
    for oy in -half..half {
        for ox in -half..half {
            // Rotate the sampling offset into the keypoint frame.
            let rx = cos * ox as f32 + sin * oy as f32;
            let ry = -sin * ox as f32 + cos * oy as f32;
            let cell_x = (((rx + half as f32) / 4.0) as usize).min(3);
            let cell_y = (((ry + half as f32) / 4.0) as usize).min(3);
            let gx = dx.get_clamped(x as isize + ox as isize, y as isize + oy as isize);
            let gy = dy.get_clamped(x as isize + ox as isize, y as isize + oy as isize);
            let mag = (gx * gx + gy * gy).sqrt();
            let ang = gy.atan2(gx) - angle;
            let bin = ((ang.rem_euclid(2.0 * std::f32::consts::PI)) / (2.0 * std::f32::consts::PI)
                * 8.0) as usize;
            desc[(cell_y * 4 + cell_x) * 8 + bin.min(7)] += mag;
        }
    }
    let window = (2 * half) as u64 * (2 * half) as u64;
    prof.read_bytes(8 * window);
    // Rotation, sqrt and atan2 per sample, at flop-equivalent cost.
    prof.count(InstrClass::Fp, 56 * window);
    prof.count(InstrClass::Alu, 4 * window);
    prof.count(InstrClass::Control, 2 * half as u64);

    // L2 normalization with clipping (standard SIFT illumination handling).
    let norm: f32 = desc.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
    for v in &mut desc {
        *v = (*v / norm).min(0.2);
    }
    let norm2: f32 = desc.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
    for v in &mut desc {
        *v /= norm2;
    }
    prof.count(InstrClass::Sse, 4 * 128);
    prof.write_bytes(4 * 128);
    desc
}

/// Runs SIFT on one image.
pub(crate) fn detect(img: &GrayImage, prof: &mut Profiler) -> Vec<SiftKeypoint> {
    let octaves = build_pyramid(img, prof);
    let mut keypoints = Vec::new();
    for (oct_idx, oct) in octaves.iter().enumerate() {
        // Gradients of the mid-scale Gaussian serve orientation + descriptor.
        let (dx, dy) = ops::gradients(&oct.gaussians[1], prof);
        let w = oct.dogs[0].width;
        let h = oct.dogs[0].height;
        for s in 1..oct.dogs.len() - 1 {
            for y in 1..h.saturating_sub(1) {
                for x in 1..w.saturating_sub(1) {
                    // Cheap threshold pre-test before the 26-neighbor probe.
                    prof.read_bytes(4);
                    prof.count(InstrClass::Fp, 1);
                    prof.count(InstrClass::Control, 1);
                    if oct.dogs[s].get(x, y).abs() < DOG_THRESHOLD {
                        continue;
                    }
                    if is_extremum(&oct.dogs, s, x, y, prof) {
                        let angle = dominant_orientation(&dx, &dy, x, y, prof);
                        let desc = descriptor(&dx, &dy, x, y, angle, prof);
                        prof.count(InstrClass::Stack, 6);
                        keypoints.push(SiftKeypoint {
                            x: (x * oct.scale) as u16,
                            y: (y * oct.scale) as u16,
                            octave: oct_idx as u8,
                            angle,
                            descriptor: desc,
                        });
                    }
                }
            }
        }
    }
    keypoints
}

/// Runs SIFT over every image in a batch.
pub(crate) fn run_batch(images: &[GrayImage], threads: usize, prof: &mut Profiler) -> SiftOutput {
    let keypoints = map_profiled(images, threads, prof, detect);
    prof.count(InstrClass::Stack, 6 * images.len() as u64);
    SiftOutput { keypoints }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSynthesizer;

    #[test]
    fn pyramid_has_expected_shape() {
        let img = ImageSynthesizer::new(1).synthesize();
        let mut prof = Profiler::new();
        let octaves = build_pyramid(&img, &mut prof);
        assert_eq!(octaves.len(), OCTAVES);
        for oct in &octaves {
            assert_eq!(oct.gaussians.len(), SCALES);
            assert_eq!(oct.dogs.len(), SCALES - 1);
        }
        // Second octave is half resolution.
        assert_eq!(
            octaves[1].gaussians[0].width,
            octaves[0].gaussians[0].width / 2
        );
    }

    #[test]
    fn flat_image_has_no_keypoints() {
        let img = GrayImage::from_fn(64, 64, |_, _| 77);
        let mut prof = Profiler::new();
        assert!(detect(&img, &mut prof).is_empty());
    }

    #[test]
    fn blob_is_detected() {
        // A Gaussian blob of sigma ~2.4 peaks at the pyramid's middle DoG
        // scale, making the center a scale-space extremum.
        let img = GrayImage::from_fn(64, 64, |x, y| {
            let dx = x as f64 - 32.0;
            let dy = y as f64 - 32.0;
            (30.0 + 200.0 * (-(dx * dx + dy * dy) / 12.0).exp()) as u8
        });
        let mut prof = Profiler::new();
        let kps = detect(&img, &mut prof);
        assert!(!kps.is_empty(), "central blob must produce a keypoint");
        let near_center = kps
            .iter()
            .any(|k| (k.x as i32 - 32).abs() < 6 && (k.y as i32 - 32).abs() < 6);
        assert!(near_center);
    }

    #[test]
    fn descriptors_are_normalized() {
        let batch = ImageSynthesizer::new(2).synthesize_batch(1, 1);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, 1, &mut prof);
        for kp in out.keypoints.iter().flatten() {
            assert_eq!(kp.descriptor.len(), 128);
            let norm: f32 = kp.descriptor.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 0.01, "descriptor norm {norm}");
        }
    }

    #[test]
    fn mix_is_fp_and_simd_heavy() {
        let batch = ImageSynthesizer::new(3).synthesize_batch(1, 1);
        let mut prof = Profiler::new();
        run_batch(&batch, 1, &mut prof);
        let mix = prof.mix();
        use bagpred_trace::InstrClass;
        assert!(
            mix.percent(InstrClass::Sse) + mix.percent(InstrClass::Fp) > 20.0,
            "SIFT should be FP/SIMD heavy: {mix}"
        );
    }

    #[test]
    fn deterministic() {
        let batch = ImageSynthesizer::new(4).synthesize_batch(1, 1);
        let mut p1 = Profiler::new();
        let mut p2 = Profiler::new();
        assert_eq!(run_batch(&batch, 1, &mut p1), run_batch(&batch, 1, &mut p2));
        assert_eq!(p1.total(), p2.total());
    }
}
