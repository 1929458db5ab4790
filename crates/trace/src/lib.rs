//! Instruction-class profiling substrate for the `bagpred` workspace.
//!
//! The ISPASS 2020 paper this workspace reproduces collects the *dynamic
//! instruction mix* of each benchmark with the PIN 3.7 binary instrumentation
//! framework and the MICA 1.0 microarchitecture-independent characterization
//! tool. Neither is available (nor meaningful) for pure-Rust workloads, so
//! this crate provides the equivalent capability as a library:
//!
//! * [`InstrClass`] — the nine dynamic instruction classes that MICA-style
//!   characterization distinguishes and the paper's Table IV consumes.
//! * [`Profiler`] — a cheap counting handle that workload kernels thread
//!   through their inner loops, tallying one count per abstract dynamic
//!   instruction.
//! * [`InstructionMix`] — percentages over the class counts, with the merged
//!   `MEM` view used by the paper's feature table and the split
//!   load/store view used by its decision-path heat map (Fig. 12).
//! * [`KernelProfile`] — the full dynamic character of one workload run:
//!   instruction counts plus the memory- and parallelism-related quantities
//!   the CPU and GPU timing models consume.
//! * [`SplitMix64`] — a tiny deterministic RNG so workloads and dataset
//!   generation are bit-reproducible independent of external crates.
//! * [`parallel`] — the workspace's one parallelism primitive: an
//!   order-preserving scoped-thread map, and its profiled form that lets a
//!   kernel stage count into per-chunk profilers merged back exactly.
//!
//! # Example
//!
//! ```
//! use bagpred_trace::{InstrClass, Profiler};
//!
//! let mut prof = Profiler::new();
//! for i in 0..100u64 {
//!     prof.count(InstrClass::Load, 2);   // read two operands
//!     prof.count(InstrClass::Alu, 1);    // add them
//!     prof.count(InstrClass::Store, 1);  // write the result
//!     prof.count(InstrClass::Control, 1); // loop back-edge
//!     let _ = i;
//! }
//! let mix = prof.mix();
//! assert!((mix.percent(InstrClass::Load) - 40.0).abs() < 1e-9);
//! assert!((mix.mem() - 60.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod mix;
pub mod parallel;
mod profile;
mod profiler;
mod rng;

pub use class::InstrClass;
pub use mix::InstructionMix;
pub use profile::{KernelProfile, KernelProfileBuilder, ProfileError};
pub use profiler::Profiler;
pub use rng::SplitMix64;
