//! ORB: Oriented FAST and Rotated BRIEF.
//!
//! Detects FAST corners, scores them, computes the intensity-centroid
//! orientation of each keypoint, and extracts a steered 256-bit BRIEF
//! descriptor using a fixed random sampling pattern (seeded, so the pattern
//! is identical across runs — as in the reference implementation, where the
//! pattern is a compiled-in table).

use crate::fast::{self, Corner};
use crate::image::GrayImage;
use crate::ops;
use bagpred_trace::parallel::map_profiled;
use bagpred_trace::{InstrClass, Profiler, SplitMix64};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Maximum keypoints retained per image (strongest first).
const MAX_KEYPOINTS: usize = 64;

/// Patch radius for orientation and descriptor sampling.
const PATCH_RADIUS: i32 = 6;

/// An ORB keypoint with its binary descriptor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrbKeypoint {
    /// Column of the keypoint.
    pub x: u16,
    /// Row of the keypoint.
    pub y: u16,
    /// Orientation angle in radians, from the intensity centroid.
    pub angle: f32,
    /// 256-bit steered BRIEF descriptor.
    pub descriptor: [u64; 4],
}

/// Result of running ORB over a batch of images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrbOutput {
    /// Keypoints per image, in batch order.
    pub keypoints: Vec<Vec<OrbKeypoint>>,
}

impl OrbOutput {
    /// Total keypoints across the batch.
    pub fn total_keypoints(&self) -> usize {
        self.keypoints.iter().map(Vec::len).sum()
    }
}

/// The BRIEF sampling pattern: 256 point pairs within the patch.
fn brief_pattern() -> &'static [(i8, i8, i8, i8); 256] {
    static PATTERN: OnceLock<[(i8, i8, i8, i8); 256]> = OnceLock::new();
    PATTERN.get_or_init(|| {
        let mut rng = SplitMix64::new(0x0b5e_55ed_0b1f_u64);
        let mut pattern = [(0i8, 0i8, 0i8, 0i8); 256];
        for slot in &mut pattern {
            let r = PATCH_RADIUS as i64;
            let sample =
                |rng: &mut SplitMix64| (rng.next_below((2 * r + 1) as u64) as i64 - r) as i8;
            *slot = (
                sample(&mut rng),
                sample(&mut rng),
                sample(&mut rng),
                sample(&mut rng),
            );
        }
        pattern
    })
}

/// Computes the intensity-centroid orientation of a patch.
fn orientation(img: &GrayImage, cx: u16, cy: u16, prof: &mut Profiler) -> f32 {
    let mut m01 = 0i64;
    let mut m10 = 0i64;
    for dy in -PATCH_RADIUS..=PATCH_RADIUS {
        for dx in -PATCH_RADIUS..=PATCH_RADIUS {
            let v = img.get_clamped(cx as isize + dx as isize, cy as isize + dy as isize) as i64;
            m10 += dx as i64 * v;
            m01 += dy as i64 * v;
        }
    }
    let patch = (2 * PATCH_RADIUS + 1) as u64;
    prof.read_bytes(patch * patch);
    prof.count(InstrClass::Alu, 4 * patch * patch);
    prof.count(InstrClass::Control, patch);
    prof.count(InstrClass::Fp, 1); // atan2
    (m01 as f32).atan2(m10 as f32)
}

/// Extracts the steered BRIEF descriptor at a keypoint.
fn brief_descriptor(
    img: &GrayImage,
    kp_x: u16,
    kp_y: u16,
    angle: f32,
    prof: &mut Profiler,
) -> [u64; 4] {
    let (sin, cos) = angle.sin_cos();
    prof.count(InstrClass::Fp, 2);
    let mut desc = [0u64; 4];
    for (bit, &(x1, y1, x2, y2)) in brief_pattern().iter().enumerate() {
        // Rotate the sampling pair by the keypoint orientation.
        let rot = |x: i8, y: i8| {
            let rx = (cos * x as f32 - sin * y as f32).round() as isize;
            let ry = (sin * x as f32 + cos * y as f32).round() as isize;
            (rx, ry)
        };
        let (ax, ay) = rot(x1, y1);
        let (bx, by) = rot(x2, y2);
        let va = img.get_clamped(kp_x as isize + ax, kp_y as isize + ay);
        let vb = img.get_clamped(kp_x as isize + bx, kp_y as isize + by);
        if va < vb {
            desc[bit / 64] |= 1u64 << (bit % 64);
        }
    }
    prof.read_bytes(512);
    prof.count(InstrClass::Fp, 8 * 256); // rotations
    prof.count(InstrClass::Shift, 2 * 256); // bit packing
    prof.count(InstrClass::Alu, 256);
    prof.count(InstrClass::Control, 256);
    prof.count(InstrClass::StringOp, 4); // descriptor block store
    prof.write_bytes(32);
    desc
}

/// Runs ORB on one image.
pub(crate) fn detect(img: &GrayImage, prof: &mut Profiler) -> Vec<OrbKeypoint> {
    let mut corners: Vec<Corner> = fast::detect(img, prof);
    // Keep the strongest corners (Harris-free variant: FAST score ranking).
    corners.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then(a.y.cmp(&b.y))
            .then(a.x.cmp(&b.x))
    });
    corners.truncate(MAX_KEYPOINTS);
    prof.count(
        InstrClass::Alu,
        (corners.len() as f64 * (corners.len().max(2) as f64).log2()) as u64,
    );

    corners
        .into_iter()
        .map(|c| {
            let angle = orientation(img, c.x, c.y, prof);
            let descriptor = brief_descriptor(img, c.x, c.y, angle, prof);
            prof.count(InstrClass::Stack, 4);
            OrbKeypoint {
                x: c.x,
                y: c.y,
                angle,
                descriptor,
            }
        })
        .collect()
}

/// Runs ORB over a batch and cross-matches descriptors between consecutive
/// images (the matching step is what downstream pipelines use ORB for).
pub(crate) fn run_batch(images: &[GrayImage], threads: usize, prof: &mut Profiler) -> OrbOutput {
    let keypoints = map_profiled(images, threads, prof, detect);
    // Match consecutive image pairs by Hamming distance (brute force); the
    // pairs couple neighbouring images, so matching stays serial.
    for pair in keypoints.windows(2) {
        for a in &pair[0] {
            let mut best = u32::MAX;
            for b in &pair[1] {
                let d = ops::hamming256(&a.descriptor, &b.descriptor, prof);
                if d < best {
                    best = d;
                }
            }
            prof.count(InstrClass::Control, pair[1].len() as u64);
        }
    }
    OrbOutput { keypoints }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSynthesizer;

    #[test]
    fn pattern_is_stable_and_in_patch() {
        let p1 = brief_pattern();
        let p2 = brief_pattern();
        assert_eq!(p1[0], p2[0]);
        for &(x1, y1, x2, y2) in p1.iter() {
            for v in [x1, y1, x2, y2] {
                assert!((v as i32).abs() <= PATCH_RADIUS);
            }
        }
    }

    #[test]
    fn keypoints_capped() {
        let batch = ImageSynthesizer::new(3).synthesize_batch(2, 1);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, 1, &mut prof);
        for kps in &out.keypoints {
            assert!(kps.len() <= MAX_KEYPOINTS);
        }
    }

    #[test]
    fn descriptors_differ_between_keypoints() {
        let batch = ImageSynthesizer::new(5).synthesize_batch(1, 1);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, 1, &mut prof);
        let kps = &out.keypoints[0];
        if kps.len() >= 2 {
            assert_ne!(kps[0].descriptor, kps[1].descriptor);
        }
    }

    #[test]
    fn orientation_of_symmetric_patch_is_defined() {
        let img = GrayImage::from_fn(32, 32, |_, _| 100);
        let mut prof = Profiler::new();
        let angle = orientation(&img, 16, 16, &mut prof);
        assert!(angle.is_finite());
    }

    #[test]
    fn orientation_points_toward_bright_side() {
        // Bright on the right half -> centroid to the right -> angle near 0.
        let img = GrayImage::from_fn(32, 32, |x, _| if x > 16 { 200 } else { 0 });
        let mut prof = Profiler::new();
        let angle = orientation(&img, 16, 16, &mut prof);
        assert!(angle.abs() < 0.3, "angle={angle}");
    }

    #[test]
    fn deterministic() {
        let batch = ImageSynthesizer::new(11).synthesize_batch(2, 1);
        let mut p1 = Profiler::new();
        let mut p2 = Profiler::new();
        assert_eq!(run_batch(&batch, 1, &mut p1), run_batch(&batch, 1, &mut p2));
    }
}
