//! # `bpvec-obs` — deterministic tracing and metrics for the simulators
//!
//! End-of-run aggregates (`ServingMetrics`, `Report` cells) say *what*
//! happened; they cannot say *when* or *why*. This crate is the
//! observability layer the serving stack records into: structured trace
//! events stamped with **deterministic sim-time**, a thread-safe metrics
//! registry, and exporters for the Chrome trace-event format (loadable in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`) and
//! JSON/CSV metric snapshots.
//!
//! ```text
//!  event loop ──▶ TraceSink ──▶ MemorySink ──▶ chrome::to_chrome_json ──▶ Perfetto
//!  (sim-time)    (trait; the              (per-event record, monotone seq)
//!                 NullSink default
//!                 costs one branch)
//!  cost model ──▶ MetricsRegistry ──▶ MetricsSnapshot ──▶ JSON / CSV
//!  kernels        (counters/gauges/log-histograms, BTreeMap name order)
//! ```
//!
//! Three properties shape the design:
//!
//! * **Free when disabled.** [`TraceSink`]'s default methods are no-ops
//!   and `enabled()` defaults to `false`; instrumented code normalizes a
//!   disabled sink to `None` once at entry, so the uninstrumented hot path
//!   is unchanged apart from one `Option` branch (a release-mode test in
//!   `crates/bench/tests/perf_contracts.rs` pins this below 3%).
//! * **Deterministic.** Events carry sim-time (the serving clock — never
//!   wall-clock) plus a sink-assigned monotone sequence number, and the
//!   exporters hand-format their output with fixed field order, so two
//!   identically-seeded runs emit byte-identical traces (diffed in CI).
//!   Wall-clock self-profiling has its own channel ([`WallProfiler`]) that
//!   is deliberately excluded from the trace.
//! * **Zero dependencies beyond `serde`.** The Chrome exporter and the
//!   snapshot renderers are hand-rolled; nothing here pulls in a runtime.
//!
//! Modules:
//!
//! * [`trace`] — the event model ([`TraceEvent`], [`Phase`], [`ArgValue`]),
//!   the [`TraceSink`] trait with [`NullSink`]/[`MemorySink`], and
//!   [`validate_spans`] (every `B` closed by a matching `E`, no negative
//!   durations);
//! * [`chrome`] — [`to_chrome_json`]: byte-deterministic Chrome
//!   trace-event JSON, one event per line, one `pid` track per replica;
//! * [`metrics`] — [`MetricsRegistry`] of counters/gauges/[`LogHistogram`]s
//!   (the log-spaced binning idiom of serve's `LatencyHistogram`),
//!   snapshotted in name order to JSON/CSV;
//! * [`profile`] — [`WallProfiler`], the wall-clock channel for sweep
//!   self-timing.
//!
//! ## Recording and exporting a trace
//!
//! ```
//! use bpvec_obs::{MemorySink, TraceEvent, TraceSink, validate_spans};
//!
//! let sink = MemorySink::new();
//! sink.record(TraceEvent::process_name(0, "replica0"));
//! sink.record(TraceEvent::begin("exec", 0.001, 0, 0).with_arg("batch", 4u64));
//! sink.record(TraceEvent::end("exec", 0.003, 0, 0));
//!
//! let events = sink.events();
//! validate_spans(&events).unwrap();
//! let json = sink.to_chrome_json(); // load this file in Perfetto
//! assert!(json.contains("\"ph\":\"B\""));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod chrome;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use chrome::to_chrome_json;
pub use metrics::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, LogHistogram, MetricsRegistry,
    MetricsSnapshot,
};
pub use profile::{ProfileEntry, WallProfiler};
pub use trace::{validate_spans, ArgValue, MemorySink, NullSink, Phase, TraceEvent, TraceSink};
