//! # triarch-trace
//!
//! Cycle-attribution event tracing for the triarch simulators.
//!
//! The paper this repository reproduces argues through *attribution*: §4.2
//! explains VIRAM's corner turn via precharge/TLB overhead and the
//! address-generator limit, Imagine's via ~87% memory time, Raw's via issue
//! occupancy; §4.3–4.4 do the same for CSLC and beam steering. The
//! simulators report those attributions as [`CycleBreakdown`]-style tallies
//! maintained by hand inside each engine. This crate provides the
//! *independent* evidence stream: engines emit cycle-stamped events into a
//! [`TraceSink`]. Folding the counted spans (`triarch-profile`'s
//! `FoldSink`) yields per-category totals that must reproduce each
//! machine's reported breakdown, which `KernelRun::breakdown_drift`
//! checks. Tallies become checkable artifacts instead of trusted
//! constants.
//!
//! [`CycleBreakdown`]: https://docs.rs/triarch-simcore
//!
//! ## Design
//!
//! * **Events** ([`TraceEvent`]) are `Copy` and built entirely from
//!   `&'static str` labels plus integer cycle stamps — recording an event is
//!   a few stores, no allocation.
//! * **Sinks** ([`TraceSink`]) are the recording interface. The trait is
//!   dyn-safe so machines can accept `&mut dyn TraceSink`, but engines are
//!   *generic* over a sink type defaulting to [`NullSink`], whose methods are
//!   empty and whose [`TraceSink::is_enabled`] returns `false` — with the
//!   default sink the instrumentation compiles to nothing on the hot path.
//! * **Counted vs. uncounted spans.** Spans marked `counted` partition the
//!   machine's total cycle count: summing their durations per category must
//!   equal the engine's breakdown exactly. Uncounted spans carry extra
//!   detail — work hidden under an overlap region, or the DRAM model's
//!   decomposition of a transfer it already charged — and are excluded from
//!   the per-category totals so nothing is double counted.
//! * **Exporters** are hand-rolled (no serde, per the workspace dependency
//!   policy): [`export::chrome_trace_json`] emits Chrome `trace_event` JSON
//!   loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev),
//!   and [`export::csv`] emits a flat table.
//!
//! ## Quick example
//!
//! ```
//! use triarch_trace::{RingSink, TraceEvent, TraceSink};
//!
//! let mut sink = RingSink::new(1024);
//! sink.span("viram.mem", "memory", "vld.strided", 0, 120);
//! sink.span("viram.mem", "precharge", "row-overhead", 120, 30);
//! sink.span_uncounted("viram.detail", "memory", "dram-data", 0, 100);
//! let counted: u64 = sink
//!     .events()
//!     .filter_map(|e| match *e {
//!         TraceEvent::Span { dur, counted: true, .. } => Some(dur),
//!         _ => None,
//!     })
//!     .sum();
//! assert_eq!(counted, 150); // uncounted detail not double counted
//! assert_eq!(sink.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod export;
mod ring;
mod sink;

pub use event::TraceEvent;
pub use ring::RingSink;
pub use sink::{NullSink, TeeSink, TraceSink};
