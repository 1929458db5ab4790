//! FaceDet: Viola–Jones-style face detection with a Haar cascade.
//!
//! Slides a 24×24 window over the image at two scales and evaluates a
//! three-stage cascade of Haar-like rectangle features over the integral
//! image. Early stages are cheap and reject most windows; the data-dependent
//! early exit gives the benchmark its characteristic branchy, divergent
//! control flow.

use crate::image::{GrayImage, IntegralImage};
use crate::ops;
use bagpred_trace::parallel::map_profiled;
use bagpred_trace::{InstrClass, Profiler};
use serde::{Deserialize, Serialize};

/// Cascade window edge, in pixels.
const WINDOW: usize = 24;
/// Window stride (dense scan, as production cascades use).
const STRIDE: usize = 1;

/// A detected window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Detection {
    /// Left edge of the window.
    pub x: u16,
    /// Top edge of the window.
    pub y: u16,
    /// Window scale (1 = native resolution, 2 = half resolution).
    pub scale: u8,
}

/// Result of running FaceDet over a batch of images.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaceDetOutput {
    /// Detections per image, in batch order.
    pub detections: Vec<Vec<Detection>>,
    /// Windows evaluated across the batch (cascade entries).
    pub windows_evaluated: u64,
    /// Windows rejected by the first stage.
    pub stage1_rejections: u64,
}

impl FaceDetOutput {
    /// Total detections across the batch.
    pub fn total_detections(&self) -> usize {
        self.detections.iter().map(Vec::len).sum()
    }
}

/// A two- or three-rectangle Haar feature within the 24×24 window,
/// expressed as (x, y, w, h) sub-boxes with +/- polarity.
struct HaarFeature {
    positive: &'static [(usize, usize, usize, usize)],
    negative: &'static [(usize, usize, usize, usize)],
    threshold: f64,
}

/// Stage 1: two cheap "dark band" features (eyes darker than cheeks).
const STAGE1: [HaarFeature; 2] = [
    HaarFeature {
        positive: &[(4, 12, 16, 6)],
        negative: &[(4, 4, 16, 6)],
        threshold: 8.0,
    },
    HaarFeature {
        positive: &[(2, 2, 20, 8)],
        negative: &[(2, 14, 20, 8)],
        threshold: -60.0,
    },
];

/// Stage 2: left/right symmetry features.
const STAGE2: [HaarFeature; 3] = [
    HaarFeature {
        positive: &[(2, 4, 8, 8)],
        negative: &[(14, 4, 8, 8)],
        threshold: -25.0,
    },
    HaarFeature {
        positive: &[(14, 4, 8, 8)],
        negative: &[(2, 4, 8, 8)],
        threshold: -25.0,
    },
    HaarFeature {
        positive: &[(8, 8, 8, 10)],
        negative: &[(0, 8, 4, 10), (20, 8, 4, 10)],
        threshold: -40.0,
    },
];

/// Stage 3: fine three-rectangle features (nose bridge brighter than eyes).
const STAGE3: [HaarFeature; 4] = [
    HaarFeature {
        positive: &[(9, 4, 6, 8)],
        negative: &[(3, 4, 6, 8)],
        threshold: -20.0,
    },
    HaarFeature {
        positive: &[(9, 4, 6, 8)],
        negative: &[(15, 4, 6, 8)],
        threshold: -20.0,
    },
    HaarFeature {
        positive: &[(6, 16, 12, 6)],
        negative: &[(6, 8, 12, 6)],
        threshold: -30.0,
    },
    HaarFeature {
        positive: &[(0, 0, 24, 24)],
        negative: &[],
        threshold: 40.0 * (WINDOW * WINDOW) as f64,
    },
];

fn eval_feature(
    integral: &IntegralImage,
    wx: usize,
    wy: usize,
    feature: &HaarFeature,
    prof: &mut Profiler,
) -> bool {
    let mut value = 0f64;
    for &(x, y, w, h) in feature.positive {
        value += ops::box_sum(integral, wx + x, wy + y, w, h, prof) as f64 / (w * h) as f64;
    }
    for &(x, y, w, h) in feature.negative {
        value -= ops::box_sum(integral, wx + x, wy + y, w, h, prof) as f64 / (w * h) as f64;
    }
    prof.count(
        InstrClass::Fp,
        (feature.positive.len() + feature.negative.len()) as u64 + 1,
    );
    prof.count(InstrClass::Control, 1);
    value > feature.threshold
}

fn run_cascade(
    integral: &IntegralImage,
    wx: usize,
    wy: usize,
    prof: &mut Profiler,
    stage1_rejections: &mut u64,
) -> bool {
    for f in &STAGE1 {
        if !eval_feature(integral, wx, wy, f, prof) {
            *stage1_rejections += 1;
            return false;
        }
    }
    for f in &STAGE2 {
        if !eval_feature(integral, wx, wy, f, prof) {
            return false;
        }
    }
    for f in &STAGE3 {
        if !eval_feature(integral, wx, wy, f, prof) {
            return false;
        }
    }
    true
}

fn detect_at_scale(
    img: &GrayImage,
    scale: u8,
    prof: &mut Profiler,
    windows: &mut u64,
    stage1_rejections: &mut u64,
) -> Vec<Detection> {
    let integral = ops::integral(img, prof);
    let mut detections = Vec::new();
    if img.width() < WINDOW || img.height() < WINDOW {
        return detections;
    }
    let mut wy = 0;
    while wy + WINDOW <= img.height() {
        let mut wx = 0;
        while wx + WINDOW <= img.width() {
            *windows += 1;
            if run_cascade(&integral, wx, wy, prof, stage1_rejections) {
                detections.push(Detection {
                    x: wx as u16,
                    y: wy as u16,
                    scale,
                });
                prof.count(InstrClass::Stack, 2);
                prof.write_bytes(6);
            }
            wx += STRIDE;
            prof.count(InstrClass::Control, 1);
        }
        wy += STRIDE;
    }
    detections
}

/// Runs the Haar cascade over every image at two scales.
pub(crate) fn run_batch(
    images: &[GrayImage],
    threads: usize,
    prof: &mut Profiler,
) -> FaceDetOutput {
    let per_image = map_profiled(images, threads, prof, |img, prof| {
        let mut windows = 0u64;
        let mut stage1_rejections = 0u64;
        let mut per_image = detect_at_scale(img, 1, prof, &mut windows, &mut stage1_rejections);
        let half = img.half();
        prof.read_bytes(img.len() as u64);
        prof.write_bytes((half.len()) as u64);
        prof.count(InstrClass::Alu, half.len() as u64 * 3);
        // Downsampled plane materializes via block writes.
        prof.count(InstrClass::StringOp, half.len() as u64 / 64);
        per_image.extend(detect_at_scale(
            &half,
            2,
            prof,
            &mut windows,
            &mut stage1_rejections,
        ));
        prof.count(InstrClass::Stack, 4);
        (per_image, windows, stage1_rejections)
    });
    FaceDetOutput {
        windows_evaluated: per_image.iter().map(|(_, w, _)| w).sum(),
        stage1_rejections: per_image.iter().map(|(_, _, r)| r).sum(),
        detections: per_image.into_iter().map(|(d, _, _)| d).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSynthesizer;

    /// Draws a crude "face": bright oval with two dark eyes and a dark mouth.
    fn face_image() -> GrayImage {
        let mut img = GrayImage::from_fn(64, 64, |_, _| 60);
        // Bright face region.
        for y in 16..44 {
            for x in 20..44 {
                img.set(x, y, 200);
            }
        }
        // Dark eyes (upper half darker on average than lower).
        for (ex, ey) in [(26usize, 24usize), (38, 24)] {
            for y in ey - 2..ey + 2 {
                for x in ex - 2..ex + 2 {
                    img.set(x, y, 20);
                }
            }
        }
        img
    }

    #[test]
    fn cascade_rejects_flat_windows() {
        let img = GrayImage::from_fn(64, 64, |_, _| 128);
        let mut prof = Profiler::new();
        let out = run_batch(std::slice::from_ref(&img), 1, &mut prof);
        assert_eq!(out.total_detections(), 0);
        assert!(out.stage1_rejections > 0);
    }

    #[test]
    fn windows_counted() {
        let img = GrayImage::from_fn(64, 64, |_, _| 0);
        let mut prof = Profiler::new();
        let out = run_batch(std::slice::from_ref(&img), 1, &mut prof);
        // 64x64, window 24, stride 1 -> 41x41 at scale 1 plus 9x9 at scale 2.
        assert_eq!(out.windows_evaluated, 41 * 41 + 9 * 9);
    }

    #[test]
    fn early_exit_saves_work() {
        // A flat image rejects everything at stage 1; a textured image pays
        // for deeper stages on some windows.
        let flat = GrayImage::from_fn(64, 64, |_, _| 128);
        let textured = face_image();
        let mut p_flat = Profiler::new();
        run_batch(std::slice::from_ref(&flat), 1, &mut p_flat);
        let mut p_tex = Profiler::new();
        run_batch(std::slice::from_ref(&textured), 1, &mut p_tex);
        assert!(p_tex.total() > p_flat.total());
    }

    #[test]
    fn synthetic_batch_runs_clean() {
        let batch = ImageSynthesizer::new(5).synthesize_batch(3, 1);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, 1, &mut prof);
        assert_eq!(out.detections.len(), 3);
        assert!(out.windows_evaluated > 0);
    }

    #[test]
    fn deterministic() {
        let batch = ImageSynthesizer::new(6).synthesize_batch(2, 1);
        let mut p1 = Profiler::new();
        let mut p2 = Profiler::new();
        assert_eq!(run_batch(&batch, 1, &mut p1), run_batch(&batch, 1, &mut p2));
    }
}
