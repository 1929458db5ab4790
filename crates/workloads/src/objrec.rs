//! ObjRec: object recognition (feature extraction + classification).
//!
//! As in the paper's Table II, ObjRec is a composite pipeline: it extracts
//! HoG features from every image and classifies them with a linear SVM to
//! decide what object class a scene contains. The first half of the batch
//! trains the classifier; the second half is recognized.

use crate::hog;
use crate::image::GrayImage;
use crate::svm::{self, Sample};
use bagpred_trace::{InstrClass, Profiler};
use serde::{Deserialize, Serialize};

/// Result of running ObjRec over a batch of images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjRecOutput {
    /// Number of training images.
    pub n_train: usize,
    /// Recognition decision per evaluation image, in {-1, +1}.
    pub decisions: Vec<f32>,
    /// Agreement with the structural label on the evaluation images.
    pub accuracy: f64,
}

/// Structural label for an image: does it contain a large bright object?
///
/// The synthesizer plants bright or dark rectangles; "bright object present"
/// is a deterministic, learnable property of the HoG + intensity signature.
fn object_label(img: &GrayImage, prof: &mut Profiler) -> f32 {
    let bright = img.pixels().iter().filter(|&&p| p > 220).count();
    prof.read_bytes(img.len() as u64);
    prof.count(InstrClass::Alu, img.len() as u64);
    prof.count(InstrClass::Control, img.height() as u64);
    if bright * 50 > img.len() {
        1.0
    } else {
        -1.0
    }
}

/// Reduces a HoG descriptor to a compact sample for the classifier: mean
/// block energy per cell row, capped at a fixed dimension.
fn hog_to_sample(desc: &hog::HogDescriptor, label: f32, prof: &mut Profiler) -> Sample {
    const DIM: usize = 24;
    let mut features = vec![0f32; DIM];
    for (i, chunk) in desc.features.chunks(4 * hog::BINS).enumerate() {
        let energy: f32 = chunk.iter().map(|v| v.abs()).sum();
        features[i % DIM] += energy;
    }
    features.push(1.0);
    let n = desc.features.len() as u64;
    prof.read_bytes(4 * n);
    prof.count(InstrClass::Sse, n);
    prof.write_bytes(4 * DIM as u64);
    Sample { features, label }
}

/// Runs the ObjRec benchmark over a batch of images.
pub(crate) fn run_batch(images: &[GrayImage], threads: usize, prof: &mut Profiler) -> ObjRecOutput {
    // Stage 1: HoG feature extraction over the whole batch.
    let hogs = hog::run_batch(images, threads, prof);

    // Stage 2: build labelled samples.
    let samples: Vec<Sample> = hogs
        .descriptors
        .iter()
        .zip(images.iter())
        .map(|(desc, img)| {
            let label = object_label(img, prof);
            hog_to_sample(desc, label, prof)
        })
        .collect();

    // Stage 3: train on the first half, recognize the second half.
    let split = (samples.len() / 2).max(1).min(samples.len());
    let (train_set, eval_set) = samples.split_at(split);
    let (w, b) = svm::train(train_set, prof);

    let mut decisions = Vec::with_capacity(eval_set.len());
    let mut correct = 0usize;
    for s in eval_set {
        let score: f32 = w
            .iter()
            .zip(&s.features)
            .map(|(wi, xi)| wi * xi)
            .sum::<f32>()
            + b;
        prof.count(InstrClass::Sse, w.len() as u64);
        prof.read_bytes(8 * w.len() as u64);
        prof.count(InstrClass::Control, 2);
        let decision = if score >= 0.0 { 1.0 } else { -1.0 };
        if decision == s.label {
            correct += 1;
        }
        decisions.push(decision);
    }
    let accuracy = if eval_set.is_empty() {
        0.0
    } else {
        correct as f64 / eval_set.len() as f64
    };
    ObjRecOutput {
        n_train: train_set.len(),
        decisions,
        accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSynthesizer;

    #[test]
    fn labels_reflect_bright_objects() {
        let mut prof = Profiler::new();
        let bright = GrayImage::from_fn(32, 32, |x, y| if x > 8 && y > 8 { 255 } else { 0 });
        let dark = GrayImage::from_fn(32, 32, |_, _| 30);
        assert_eq!(object_label(&bright, &mut prof), 1.0);
        assert_eq!(object_label(&dark, &mut prof), -1.0);
    }

    #[test]
    fn pipeline_produces_decisions_for_eval_half() {
        let batch = ImageSynthesizer::new(1).synthesize_batch(6, 1);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, 1, &mut prof);
        assert_eq!(out.n_train, 3);
        assert_eq!(out.decisions.len(), 3);
    }

    #[test]
    fn decisions_are_binary() {
        let batch = ImageSynthesizer::new(2).synthesize_batch(4, 1);
        let mut prof = Profiler::new();
        let out = run_batch(&batch, 1, &mut prof);
        for d in out.decisions {
            assert!(d == 1.0 || d == -1.0);
        }
    }

    #[test]
    fn composite_mix_includes_hog_and_svm_work() {
        let batch = ImageSynthesizer::new(3).synthesize_batch(2, 1);
        let mut prof = Profiler::new();
        run_batch(&batch, 1, &mut prof);
        let mix = prof.mix();
        // HoG contributes FP (atan2), SVM contributes SSE (dot products).
        assert!(mix.percent(InstrClass::Fp) > 0.0);
        assert!(mix.percent(InstrClass::Sse) > 0.0);
    }

    #[test]
    fn deterministic() {
        let batch = ImageSynthesizer::new(4).synthesize_batch(2, 1);
        let mut p1 = Profiler::new();
        let mut p2 = Profiler::new();
        assert_eq!(run_batch(&batch, 1, &mut p1), run_batch(&batch, 1, &mut p2));
    }
}
