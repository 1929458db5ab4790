//! HoG: Histogram of Oriented Gradients.
//!
//! Computes per-pixel gradients, accumulates 9-bin orientation histograms in
//! 8×8-pixel cells, and L2-Hys normalizes 2×2-cell blocks — the classic
//! Dalal–Triggs descriptor pipeline.

use crate::image::GrayImage;
use crate::ops::{self, FloatImage};
use bagpred_trace::parallel::map_profiled;
use bagpred_trace::{InstrClass, Profiler};
use serde::{Deserialize, Serialize};

/// Pixels per cell edge.
pub(crate) const CELL: usize = 8;
/// Orientation bins per cell (unsigned gradients, 0..180 degrees).
pub(crate) const BINS: usize = 9;

/// The HoG descriptor of one image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HogDescriptor {
    /// Cells per row.
    pub cells_x: usize,
    /// Cells per column.
    pub cells_y: usize,
    /// Block-normalized feature vector.
    pub features: Vec<f32>,
}

/// Result of running HoG over a batch of images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HogOutput {
    /// One descriptor per image, in batch order.
    pub descriptors: Vec<HogDescriptor>,
}

impl HogOutput {
    /// Dimension of each image's feature vector.
    pub fn feature_len(&self) -> usize {
        self.descriptors.first().map_or(0, |d| d.features.len())
    }
}

/// Computes cell histograms for one image.
fn cell_histograms(
    dx: &FloatImage,
    dy: &FloatImage,
    prof: &mut Profiler,
) -> (usize, usize, Vec<f32>) {
    let cells_x = dx.width / CELL;
    let cells_y = dx.height / CELL;
    let mut hist = vec![0f32; cells_x * cells_y * BINS];
    for cy in 0..cells_y {
        for cx in 0..cells_x {
            for py in 0..CELL {
                for px in 0..CELL {
                    let x = cx * CELL + px;
                    let y = cy * CELL + py;
                    let gx = dx.get(x, y);
                    let gy = dy.get(x, y);
                    let mag = (gx * gx + gy * gy).sqrt();
                    // Unsigned orientation in [0, pi).
                    let ang = gy.atan2(gx).rem_euclid(std::f32::consts::PI);
                    let bin_f = ang / std::f32::consts::PI * BINS as f32;
                    let bin = (bin_f as usize).min(BINS - 1);
                    // Linear interpolation between adjacent bins.
                    let frac = bin_f - bin as f32;
                    let next = (bin + 1) % BINS;
                    hist[(cy * cells_x + cx) * BINS + bin] += mag * (1.0 - frac);
                    hist[(cy * cells_x + cx) * BINS + next] += mag * frac;
                }
            }
            let n = (CELL * CELL) as u64;
            prof.read_bytes(8 * n);
            // Per pixel: magnitude (sqrt ~ 10 flops), atan2 (~40 flops),
            // binning and interpolation (~4). Transcendentals are charged at
            // their flop-equivalent cost, which is what makes CPU HoG as
            // expensive as it is in practice.
            prof.count(InstrClass::Fp, 54 * n);
            prof.count(InstrClass::Alu, 3 * n);
            prof.count(InstrClass::Control, CELL as u64);
            prof.write_bytes(4 * BINS as u64);
        }
    }
    (cells_x, cells_y, hist)
}

/// L2-Hys block normalization over 2×2-cell blocks with 1-cell stride.
fn normalize_blocks(cells_x: usize, cells_y: usize, hist: &[f32], prof: &mut Profiler) -> Vec<f32> {
    let mut features = Vec::new();
    if cells_x < 2 || cells_y < 2 {
        return features;
    }
    for by in 0..cells_y - 1 {
        for bx in 0..cells_x - 1 {
            let mut block = [0f32; 4 * BINS];
            for (i, (cy, cx)) in [(by, bx), (by, bx + 1), (by + 1, bx), (by + 1, bx + 1)]
                .iter()
                .enumerate()
            {
                let src = &hist[(cy * cells_x + cx) * BINS..(cy * cells_x + cx + 1) * BINS];
                block[i * BINS..(i + 1) * BINS].copy_from_slice(src);
            }
            // L2 -> clip 0.2 -> L2 (the "Hys" part).
            let norm: f32 = block.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            for v in &mut block {
                *v = (*v / norm).min(0.2);
            }
            let norm2: f32 = block.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            for v in &mut block {
                *v /= norm2;
            }
            features.extend_from_slice(&block);
            let n = (4 * BINS) as u64;
            prof.read_bytes(4 * n);
            prof.count(InstrClass::Sse, 6 * n);
            prof.write_bytes(4 * n);
            // Block gather/scatter of the four cell histograms.
            prof.count(InstrClass::StringOp, 4);
            prof.count(InstrClass::Control, 4);
        }
    }
    features
}

/// Computes the HoG descriptor of one image.
pub(crate) fn describe(img: &GrayImage, prof: &mut Profiler) -> HogDescriptor {
    let f = FloatImage::from_gray(img, prof);
    let (dx, dy) = ops::gradients(&f, prof);
    let (cells_x, cells_y, hist) = cell_histograms(&dx, &dy, prof);
    let features = normalize_blocks(cells_x, cells_y, &hist, prof);
    HogDescriptor {
        cells_x,
        cells_y,
        features,
    }
}

/// Runs HoG over every image in a batch.
pub(crate) fn run_batch(images: &[GrayImage], threads: usize, prof: &mut Profiler) -> HogOutput {
    let descriptors = map_profiled(images, threads, prof, describe);
    prof.count(InstrClass::Stack, 4 * images.len() as u64);
    HogOutput { descriptors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSynthesizer;

    #[test]
    fn descriptor_has_expected_dimensions() {
        let img = ImageSynthesizer::new(1).synthesize(); // 64x64 -> 8x8 cells
        let mut prof = Profiler::new();
        let d = describe(&img, &mut prof);
        assert_eq!((d.cells_x, d.cells_y), (8, 8));
        assert_eq!(d.features.len(), 7 * 7 * 4 * BINS);
    }

    #[test]
    fn blocks_are_unit_norm() {
        let img = ImageSynthesizer::new(2).synthesize();
        let mut prof = Profiler::new();
        let d = describe(&img, &mut prof);
        for block in d.features.chunks(4 * BINS) {
            let n: f32 = block.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 0.01 || n < 1e-4, "block norm {n}");
        }
    }

    #[test]
    fn vertical_edge_dominates_one_bin() {
        // Vertical edge -> horizontal gradient -> orientation bin near 0.
        let img = GrayImage::from_fn(32, 32, |x, _| if x < 16 { 0 } else { 200 });
        let mut prof = Profiler::new();
        let f = FloatImage::from_gray(&img, &mut prof);
        let (dx, dy) = ops::gradients(&f, &mut prof);
        let (cx, _cy, hist) = cell_histograms(&dx, &dy, &mut prof);
        // Cell containing the edge (x ~ 16 -> cell column 1 or 2).
        let cell = &hist[(cx + 1) * BINS..(cx + 2) * BINS];
        let max_bin = cell
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_bin, 0, "horizontal gradient maps to bin 0: {cell:?}");
    }

    #[test]
    fn flat_image_gives_zero_features() {
        let img = GrayImage::from_fn(32, 32, |_, _| 120);
        let mut prof = Profiler::new();
        let d = describe(&img, &mut prof);
        assert!(d.features.iter().all(|&v| v.abs() < 1e-3));
    }

    #[test]
    fn batch_output_ordered() {
        let batch = ImageSynthesizer::new(3).synthesize_batch(3, 1);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, 1, &mut prof);
        assert_eq!(out.descriptors.len(), 3);
        assert!(out.feature_len() > 0);
    }
}
