//! FAST corner detection (Features from Accelerated Segment Test).
//!
//! Implements the FAST-9 segment test: a pixel is a corner when at least 9
//! contiguous pixels on the 16-pixel Bresenham ring of radius 3 are all
//! brighter than `center + t` or all darker than `center - t`. The standard
//! high-speed test on ring pixels {0, 4, 8, 12} rejects most candidates
//! early, which is exactly the data-dependent control flow that makes FAST
//! divergence-heavy on SIMT hardware.

use crate::image::GrayImage;
use bagpred_trace::parallel::map_profiled;
use bagpred_trace::{InstrClass, Profiler};
use serde::{Deserialize, Serialize};

/// Detection threshold on the intensity difference.
pub(crate) const THRESHOLD: i16 = 24;

/// Number of contiguous ring pixels required (FAST-9).
const ARC_LEN: usize = 9;

/// Offsets of the 16-pixel Bresenham ring of radius 3, clockwise from north.
pub(crate) const RING: [(i32, i32); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// A detected FAST corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Corner {
    /// Column of the corner.
    pub x: u16,
    /// Row of the corner.
    pub y: u16,
    /// Corner score: sum of absolute ring differences beyond the threshold.
    pub score: u32,
}

/// Result of running FAST over a batch of images.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FastOutput {
    /// Corners per image, in batch order.
    pub corners: Vec<Vec<Corner>>,
}

impl FastOutput {
    /// Total corners detected across the batch.
    pub fn total_corners(&self) -> usize {
        self.corners.iter().map(Vec::len).sum()
    }
}

/// Detects FAST-9 corners in one image.
pub(crate) fn detect(img: &GrayImage, prof: &mut Profiler) -> Vec<Corner> {
    let w = img.width();
    let h = img.height();
    let mut corners = Vec::new();
    if w < 7 || h < 7 {
        return corners;
    }
    let mut ring_vals = [0i16; 16];
    for y in 3..h - 3 {
        for x in 3..w - 3 {
            let center = img.get(x, y) as i16;
            let hi = center + THRESHOLD;
            let lo = center - THRESHOLD;

            // High-speed test: any 9 contiguous ring pixels contain at least
            // two of the compass points {0, 4, 8, 12}, so fewer than two
            // brighter and fewer than two darker compass points rules out a
            // 9-arc.
            let mut brighter = 0u32;
            let mut darker = 0u32;
            for &i in &[0usize, 4, 8, 12] {
                let (dx, dy) = RING[i];
                let v = img.get_clamped(x as isize + dx as isize, y as isize + dy as isize) as i16;
                if v > hi {
                    brighter += 1;
                } else if v < lo {
                    darker += 1;
                }
            }
            // 4 loads, 1 center load, ~10 compares/adds, branches.
            prof.read_bytes(5);
            prof.count(InstrClass::Alu, 10);
            prof.count(InstrClass::Control, 5);
            if brighter < 2 && darker < 2 {
                continue;
            }

            // Full segment test over the 16-pixel ring.
            for (i, &(dx, dy)) in RING.iter().enumerate() {
                ring_vals[i] =
                    img.get_clamped(x as isize + dx as isize, y as isize + dy as isize) as i16;
            }
            prof.read_bytes(16);
            prof.count(InstrClass::Alu, 32);
            prof.count(InstrClass::Control, 17);

            if let Some(score) = segment_score(center, &ring_vals) {
                corners.push(Corner {
                    x: x as u16,
                    y: y as u16,
                    score,
                });
                prof.write_bytes(8);
                prof.count(InstrClass::Stack, 2);
            }
        }
        prof.count(InstrClass::Control, 1); // row loop
    }
    corners
}

/// Checks the FAST-9 contiguity condition; returns the corner score if met.
fn segment_score(center: i16, ring: &[i16; 16]) -> Option<u32> {
    let hi = center + THRESHOLD;
    let lo = center - THRESHOLD;
    for &(pred, diff_base) in &[(true, hi), (false, lo)] {
        // Walk the ring doubled to handle wraparound runs.
        let mut run = 0usize;
        let mut best = 0usize;
        for i in 0..32 {
            let v = ring[i % 16];
            let ok = if pred { v > diff_base } else { v < diff_base };
            if ok {
                run += 1;
                best = best.max(run);
                if best >= ARC_LEN {
                    let score: u32 = ring
                        .iter()
                        .map(|&v| {
                            let d = (v - center).unsigned_abs() as u32;
                            d.saturating_sub(THRESHOLD as u32)
                        })
                        .sum();
                    return Some(score);
                }
            } else {
                run = 0;
            }
        }
    }
    None
}

/// Runs FAST over every image in a batch.
pub(crate) fn run_batch(images: &[GrayImage], threads: usize, prof: &mut Profiler) -> FastOutput {
    let corners = map_profiled(images, threads, prof, detect);
    prof.count(InstrClass::Stack, 4 * images.len() as u64); // per-image call frames
    FastOutput { corners }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSynthesizer;

    /// A synthetic image with a single bright square on black: its four
    /// corners must be detected and little else.
    fn square_image() -> GrayImage {
        let mut img = GrayImage::new(32, 32);
        for y in 10..22 {
            for x in 10..22 {
                img.set(x, y, 255);
            }
        }
        img
    }

    #[test]
    fn detects_square_corners() {
        let mut prof = Profiler::new();
        let corners = detect(&square_image(), &mut prof);
        assert!(!corners.is_empty(), "square corners must be detected");
        // Every detection should be near one of the 4 square corners.
        for c in &corners {
            let near =
                [(10, 10), (21, 10), (10, 21), (21, 21)]
                    .iter()
                    .any(|&(cx, cy): &(i32, i32)| {
                        (c.x as i32 - cx).abs() <= 2 && (c.y as i32 - cy).abs() <= 2
                    });
            assert!(near, "unexpected corner at ({}, {})", c.x, c.y);
        }
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::from_fn(32, 32, |_, _| 128);
        let mut prof = Profiler::new();
        assert!(detect(&img, &mut prof).is_empty());
    }

    #[test]
    fn tiny_image_is_safe() {
        let img = GrayImage::new(4, 4);
        let mut prof = Profiler::new();
        assert!(detect(&img, &mut prof).is_empty());
    }

    #[test]
    fn profiling_counts_scale_with_batch() {
        let batch = ImageSynthesizer::new(1).synthesize_batch(4, 1);
        let mut p1 = Profiler::new();
        run_batch(&batch[..2], 1, &mut p1);
        let mut p2 = Profiler::new();
        run_batch(&batch, 1, &mut p2);
        assert!(p2.total() > p1.total());
    }

    #[test]
    fn synthetic_images_yield_corners() {
        let batch = ImageSynthesizer::new(42).synthesize_batch(3, 1);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, 1, &mut prof);
        assert!(out.total_corners() > 0, "synthetic rectangles have corners");
    }

    #[test]
    fn corner_scores_are_positive() {
        let mut prof = Profiler::new();
        let corners = detect(&square_image(), &mut prof);
        for c in corners {
            assert!(c.score > 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let batch = ImageSynthesizer::new(7).synthesize_batch(2, 1);
        let mut p1 = Profiler::new();
        let a = run_batch(&batch, 1, &mut p1);
        let mut p2 = Profiler::new();
        let b = run_batch(&batch, 1, &mut p2);
        assert_eq!(a, b);
        assert_eq!(p1.total(), p2.total());
    }
}
