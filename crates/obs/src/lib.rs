//! # sapred-obs — observability for the sapred simulator and scheduler
//!
//! Event tracing, metrics, and prediction-drift telemetry, with zero
//! overhead when disabled. Three layers:
//!
//! 1. **Events** ([`Event`], [`EventSink`]): the discrete-event simulator
//!    emits one event per state transition — query/job lifecycle, per-task
//!    placement on node·slot, scheduler decision records with per-candidate
//!    scores, ETA snapshots, and predicted-vs-actual observations. The
//!    simulator is generic over the sink; the default [`NullSink`] reports
//!    `enabled() == false` and compiles the tracing path away.
//! 2. **Metrics** ([`MetricsRegistry`], [`MetricsSink`], [`Histogram`]):
//!    counters, gauges, and fixed-bucket histograms derived from the event
//!    stream — task latencies per phase, queue depth, container utilization
//!    over time — plus drift telemetry ([`DriftTracker`]) tracking signed
//!    relative error and MARE per predicted quantity × job category.
//! 3. **Exporters** ([`JsonlSink`], [`ChromeTraceSink`]): JSONL event logs
//!    and Chrome `trace_event` JSON (one track per container slot, one per
//!    query) viewable in `chrome://tracing` or Perfetto.
//! 4. **Profiling** ([`Profiler`], [`SpanProfiler`]): RAII span timers and
//!    hot-path counters for self-measuring runs, with a [`NullProfiler`]
//!    that compiles away exactly like `NullSink` does for events. The
//!    `sapred bench` harness is built on this layer.
//!
//! Sinks compose with [`Tee`]; everything here is dependency-free
//! (hand-rolled JSON in [`json`]).
//!
//! ## Extending
//!
//! Implement [`EventSink`] to build custom consumers — the trait is two
//! methods. Return `true` from `enabled()` (the default) and pattern-match
//! the [`Event`] variants you care about in `emit`; ignore the rest. See
//! [`DriftTracker`]'s implementation for a minimal example that consumes a
//! single variant.

#![warn(missing_docs)]

pub mod drift;
pub mod event;
pub mod fsutil;
pub mod hash;
pub mod ids;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod trace;

pub use drift::{DriftStat, DriftTracker};
pub use event::{Candidate, DownReason, Event, Quantity, TaskPhase};
pub use fsutil::write_atomic;
pub use hash::{fnv1a, fnv1a_extend};
pub use ids::{JobId, NodeId, QueryId};
pub use metrics::{Histogram, MetricsRegistry, MetricsSink};
pub use profile::{Counter, NullProfiler, Profiler, SpanProfiler};
pub use sink::{EventSink, JsonlSink, NullSink, RecordingSink, Tee};
pub use trace::ChromeTraceSink;
