//! Computer-vision benchmark kernels for the `bagpred` workspace.
//!
//! The ISPASS 2020 paper evaluates its predictor on nine vision kernels
//! derived from the MEVBench and SD-VBS suites, implemented with OpenCV (CPU)
//! and CUDA (GPU): SIFT, SURF, FAST, ORB, HoG, SVM, KNN, ObjRec and FaceDet.
//! This crate provides genuine Rust implementations of all nine, operating on
//! deterministic synthetic images, with every inner loop instrumented through
//! [`bagpred_trace::Profiler`] so each run yields the dynamic
//! instruction-mix / memory / parallelism characterization
//! ([`bagpred_trace::KernelProfile`]) that the CPU and GPU timing models
//! consume.
//!
//! The kernels are simplified relative to production OpenCV (smaller images,
//! fewer pyramid octaves) but algorithmically faithful: FAST performs the
//! 16-pixel ring segment test, SIFT builds a difference-of-Gaussians pyramid,
//! FaceDet slides a Haar cascade over an integral image, SVM runs hinge-loss
//! training, and so on. What matters for the predictor is that each benchmark
//! has an *organically distinct* instruction mix and scaling character, which
//! real implementations provide and hand-tuned constants would not.
//!
//! # Example
//!
//! ```
//! use bagpred_workloads::{Benchmark, Workload};
//!
//! // The paper's standard input is a batch of 20 images.
//! let workload = Workload::new(Benchmark::Fast, 20);
//! let profile = workload.profile();
//! assert!(profile.total_instructions() > 0);
//! let mix = profile.mix();
//! assert!(mix.mem() > 0.0); // FAST reads pixel rings
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benchmark;
mod facedet;
mod fast;
mod hog;
mod image;
mod knn;
mod objrec;
mod ops;
mod orb;
mod sift;
mod surf;
mod svm;
mod workload;

pub use benchmark::Benchmark;
pub use image::{GrayImage, ImageSynthesizer, IntegralImage};
pub use workload::{Workload, WorkloadOutput, BATCH_SIZES, MAX_BATCH, STANDARD_BATCH};

pub use facedet::FaceDetOutput;
pub use fast::FastOutput;
pub use hog::HogOutput;
pub use knn::KnnOutput;
pub use objrec::ObjRecOutput;
pub use orb::OrbOutput;
pub use sift::SiftOutput;
pub use surf::SurfOutput;
pub use svm::SvmOutput;
