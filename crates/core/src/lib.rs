//! Multi-application GPU performance prediction — the primary contribution
//! of *"Performance Prediction for Multi-Application Concurrency on GPUs"*
//! (ISPASS 2020).
//!
//! The predictor answers: *given a bag of applications about to be launched
//! concurrently on a GPU under MPS, how long will the bag take?* It learns a
//! decision-tree regression from features that are cheap to collect —
//! almost all on a multicore CPU server:
//!
//! | Feature | Source | Novel in the paper |
//! |---|---|---|
//! | CPU execution time | multicore server | no (prior single-app work) |
//! | instruction mix (9 classes) | PIN/MICA-style profiling | no |
//! | **single-instance GPU time** | one GPU run | **yes** |
//! | **fairness** (Eq. 2) | co-run IPC ratios on the CPU | **yes** |
//!
//! # Pipeline
//!
//! 1. [`Bag`] — two workloads to co-run (homogeneous or heterogeneous).
//! 2. [`Measurement`] — runs the workloads through the CPU and GPU timing
//!    models and collects every Table IV feature plus the ground-truth bag
//!    makespan.
//! 3. [`Corpus`] — the paper's §V-B data-point recipe: 45 homogeneous bags
//!    (9 benchmarks × 5 batch sizes), 36 heterogeneous pairs, and 10
//!    mixed-batch pairs = 91 runs.
//! 4. [`Predictor`] — trains a CART tree over a [`FeatureSet`] (any of the
//!    feature-scheme combinations of Figs. 5-9), predicts, evaluates, and
//!    exposes decision-path analysis (Figs. 10-12).
//! 5. [`nbag`] — the extension answering the paper's open problem: bags of
//!    more than two applications via order-statistic feature aggregation.
//!
//! # Example
//!
//! ```
//! use bagpred_core::{Corpus, FeatureSet, Predictor};
//!
//! let corpus = Corpus::paper().measure();
//! let mut predictor = Predictor::new(FeatureSet::full());
//! let report = predictor.loocv_by_benchmark(&corpus);
//! // The paper's headline: ~9% mean relative error with the full feature set.
//! assert!(report.mean_error_percent() < 35.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod bag;
mod corpus;
mod feature;
mod measure;
pub mod nbag;
mod predictor;
pub mod schemes;

/// Deterministic scoped-thread parallelism for corpus measurement and fold
/// training; the primitive lives in [`bagpred_trace::parallel`], where the
/// workload kernels share it.
pub use bagpred_trace::parallel;

pub use analysis::{DecisionPathReport, FeatureUsage};
pub use bag::Bag;
pub use corpus::Corpus;
pub use feature::{Feature, FeatureSet};
pub use measure::{AppFeatures, Measurement, Platforms};
pub use predictor::{LoocvReport, ModelKind, Predictor};
