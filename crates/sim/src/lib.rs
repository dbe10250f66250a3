//! # `bpvec-sim` — the BPVeC accelerator simulator and the `Scenario` evaluation API
//!
//! The paper's end-to-end evaluation (§IV, Figures 5–8) runs on a modified
//! version of the BitFusion simulation infrastructure: an analytical
//! performance/energy model of systolic accelerators driven by layer shapes,
//! with CACTI-modeled scratchpads and DDR4/HBM2 off-chip memories. This
//! crate re-implements that methodology and wraps it in a composable
//! evaluation API:
//!
//! * [`scenario`] — the unified evaluation API: the [`Evaluator`] trait
//!   (implemented here by [`AcceleratorConfig`] and in `bpvec-gpumodel` by
//!   its GPU model, so ASIC and GPU backends are interchangeable), the
//!   [`Scenario`] builder over platforms × workloads × memories, and the
//!   [`Report`] it yields (normalized comparisons, geomeans, CSV/JSON);
//! * [`workload`] — [`Workload`] (network + bitwidth policy +
//!   [`BatchRegime`]), the *what* of every evaluation;
//! * [`memory`] — off-chip memory specs (DDR4: 16 GB/s @ 15 pJ/bit;
//!   HBM2: 256 GB/s @ 1.2 pJ/bit) and the 112 KB on-chip scratchpad;
//! * [`accel`] — the three ASIC platforms of Table II under the same 250 mW
//!   core budget: TPU-like (512 conventional MACs), BitFusion (448 fusion
//!   units), BPVeC (1024 CVU lanes = 64 CVUs × L 16);
//! * [`tiling`] — a loop-tiling optimizer that picks, per layer, the tile
//!   shape minimizing DRAM traffic under the scratchpad capacity;
//! * [`engine`] — per-layer compute/memory time (double-buffered overlap),
//!   energy (core + DRAM), and network-level aggregation — the analytical
//!   model behind the accelerator backend;
//! * [`systolic`] — a bit-true, cycle-counted functional systolic array of
//!   CVUs used to validate the analytical model's arithmetic and cycle
//!   accounting against `bpvec-core` and `bpvec-dnn::reference`;
//! * [`executor`] — bit-true execution of whole (small) layer stacks on the
//!   systolic array: im2col convolutions, dense and recurrent layers with
//!   requantization, checked end-to-end against the reference pipeline;
//! * [`roofline`](mod@crate::roofline) — roofline analysis (arithmetic intensity vs ridge
//!   points), the two-number explanation of every Figure 5–8 result;
//! * [`experiments`] — Figures 5–8 as ~10-line scenario declarations, with
//!   the paper's reported series alongside for comparison.
//!
//! The `bpvec-serve` crate builds on this API from the other side: it
//! drives any [`Evaluator`] as the backend of a discrete-event
//! inference-serving simulation (arrival processes, dynamic batching over
//! [`BatchRegime`] batch costs, sharded clusters, tail-latency metrics).
//!
//! ## Declaring an experiment
//!
//! ```
//! use bpvec_sim::{AcceleratorConfig, DramSpec, Scenario, Workload};
//! use bpvec_dnn::BitwidthPolicy;
//!
//! let report = Scenario::new("hbm2 study")
//!     .platform(AcceleratorConfig::tpu_like())
//!     .platform(AcceleratorConfig::bpvec())
//!     .memory(DramSpec::ddr4())
//!     .memory(DramSpec::hbm2())
//!     .workloads(Workload::table1(BitwidthPolicy::Homogeneous8))
//!     .run();
//! // Figure 6's BPVeC series — and any other slice of the grid:
//! let fig6 = report.comparison("BPVeC", "HBM2");
//! assert!(fig6.geomean_speedup > 1.0);
//! println!("{}", report.to_csv());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod accel;
pub mod cost;
pub mod engine;
pub mod executor;
pub mod experiments;
pub mod memory;
pub mod roofline;
pub mod scenario;
mod stage;
pub mod systolic;
pub mod tiling;
pub mod workload;

pub use accel::{AcceleratorConfig, Design};
pub use cost::{layer_cost, CostModel, LayerCost};
pub use engine::{geomean, simulate, Boundedness, LayerResult, NetworkResult, SimConfig};
pub use executor::{ExecutionTrace, NetworkExecutor, WeightStore};
pub use memory::{DramSpec, ScratchpadSpec};
pub use roofline::{roofline, roofline_cached, RooflinePoint};
pub use scenario::{
    Cell, CellRef, Comparison, ComparisonRow, Evaluator, Labeled, Measurement, PlatformSpec,
    Report, Scenario, ScenarioError, ScenarioSpec, Series, SeriesEntry,
};
pub use workload::{BatchRegime, Workload};
