//! Online prediction serving for multi-application GPU concurrency.
//!
//! The rest of the workspace reproduces the paper's *offline* pipeline:
//! measure a corpus, train a model, report cross-validated error. This
//! crate is the *online* half — the piece a cluster scheduler would
//! actually call: train once, snapshot the model, and answer
//! `predict`/`schedule` requests from many concurrent clients in
//! microseconds, never re-running the ground-truth co-run simulation
//! that the predictor exists to avoid.
//!
//! Std-only by design (threads, `std::net`, no async runtime): the
//! serving layer inherits the workspace's zero-dependency discipline.
//!
//! # Architecture
//!
//! * [`snapshot`] — versioned, checksummed text snapshots of trained
//!   models and the thread-safe [`ModelRegistry`] serving them.
//! * [`cache`] — memoized feature collection ([`FeatureCache`]): per-app
//!   features keyed by `(benchmark, batch_size)`, fairness and n-bag
//!   aggregates keyed by the canonical bag.
//! * [`engine`] — [`PredictionService`]: a bounded queue + worker pool
//!   per model with batched draining and explicit load shedding; cheap
//!   warm requests run inline on the submitting thread instead.
//! * [`admission`] — greedy packing of apps onto `k` simulated GPUs
//!   under a predicted-latency budget.
//! * [`metrics`] — request counters and lock-free latency histograms
//!   (end-to-end, queue wait, service time), global and per model
//!   (`stats model=<name>`).
//! * `observe` — per-stage request traces, slow-request capture, and
//!   the Prometheus-text `metrics` exposition (built on `bagpred-obs`).
//! * [`protocol`] / [`server`] — the line-delimited TCP front-end, with
//!   tracked connection threads, bounded reads, and a draining shutdown;
//!   `load`/`save`/`reload` hot-swap models over the wire, and an
//!   optional second listener answers HTTP metric scrapes.
//! * [`bootstrap`] — train-and-register in one call, or boot from a
//!   snapshot directory ([`bootstrap::load_or_train`]), quarantining
//!   corrupt snapshots and retraining instead of aborting.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]) and the
//!   per-model panic/quarantine state ([`ModelHealth`]) behind the
//!   `health` wire command.
//! * [`client`] — a small line-protocol [`Client`] with jittered
//!   exponential backoff on `err overloaded`/`err internal`.
//!
//! # Example
//!
//! ```
//! use bagpred_core::Platforms;
//! use bagpred_serve::{bootstrap, PredictionService, Request, Reply, ServiceConfig};
//! use bagpred_workloads::{Benchmark, Workload};
//!
//! let platforms = Platforms::paper();
//! let registry = bootstrap::default_registry(&platforms);
//! let service = PredictionService::start(registry, platforms, ServiceConfig::default());
//!
//! let reply = service.call(Request::Predict {
//!     model: None,
//!     apps: vec![
//!         Workload::new(Benchmark::Sift, 20),
//!         Workload::new(Benchmark::Knn, 40),
//!     ],
//! });
//! let Ok(Reply::Prediction { predicted_s, .. }) = reply else { panic!() };
//! assert!(predicted_s.is_finite() && predicted_s > 0.0);
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod bootstrap;
pub mod cache;
pub mod client;
pub mod engine;
pub mod error;
pub mod fault;
pub mod frame;
pub mod metrics;
pub(crate) mod observe;
pub mod protocol;
pub mod server;
pub(crate) mod shard;
pub mod snapshot;

pub use admission::{AdmissionPolicy, GpuAssignment, Placement};
pub use cache::{CacheMapStats, FeatureCache};
pub use client::{Client, ClientConfig, ClientError};
pub use engine::{
    PredictionService, Reply, Request, RequestOptions, ServiceConfig, StatsReport, Submitted,
};
pub use error::ServeError;
pub use fault::{FaultPlan, FaultSite, HealthReport, ModelHealth};
pub use metrics::{
    BrownoutPressure, LatencySummary, Metrics, MetricsSnapshot, ModelMetrics, ModelOutcome,
    OutcomeCounters, OutcomeTrackers, Priority,
};
pub use server::{MetricsServer, Server, ServerConfig};
pub use snapshot::{DirLoad, ModelRegistry, ServableModel};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures: training is the slow part of every serve test,
    //! so the registry is trained once per test binary.

    use crate::snapshot::ModelRegistry;
    use bagpred_core::Platforms;
    use std::sync::{Arc, OnceLock};

    pub fn registry() -> Arc<ModelRegistry> {
        static REGISTRY: OnceLock<Arc<ModelRegistry>> = OnceLock::new();
        Arc::clone(REGISTRY.get_or_init(|| crate::bootstrap::default_registry(&Platforms::paper())))
    }

    /// A private registry holding snapshot-decoded copies of the shared
    /// models: tests that insert/replace entries use this so they cannot
    /// perturb tests reading the shared registry concurrently.
    pub fn fresh_registry() -> Arc<ModelRegistry> {
        let shared = registry();
        let fresh = ModelRegistry::new();
        for (name, _) in shared.list() {
            let text = shared.snapshot(&name).expect("snapshot encodes");
            fresh
                .insert_snapshot(name, &text)
                .expect("snapshot decodes");
        }
        Arc::new(fresh)
    }

    /// Joins a thread handle, propagating any panic with the thread's
    /// name and original message attached — so a failing test says
    /// *which* thread died and why, not `Any { .. }`.
    pub fn join_named<T>(handle: std::thread::JoinHandle<T>) -> T {
        let name = handle.thread().name().unwrap_or("<unnamed>").to_string();
        handle.join().unwrap_or_else(|payload| {
            panic!(
                "thread `{name}` panicked: {}",
                crate::fault::panic_message(payload.as_ref())
            )
        })
    }

    /// A fresh scratch directory under the target-local tmp root.
    pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bagpred-serve-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }
}
