//! Zero-dependency telemetry for the simulator workspace.
//!
//! Four pieces, deliberately free of crates.io dependencies (this build
//! environment has none; the vendored rand/criterion shims set the
//! precedent):
//!
//! * [`Metrics`] — a per-engine registry of named counters and
//!   log2-bucket histograms, fed by [`Stopwatch`] timers. One registry is
//!   owned by one engine (no locks: the simulator is single-threaded per
//!   world; batch runners own one registry per scenario and
//!   [`Metrics::merge`] them afterwards).
//! * [`Recorder`] — the event sink the engine's hot paths emit into: the
//!   starting world once ([`Recorder::topology`]), then every event as a
//!   [`TraceEvent`] ([`Recorder::event`]). Emission sites are gated on
//!   the associated consts ([`Recorder::TRACE`], [`Recorder::TIMED`]),
//!   so with the no-op [`NullRecorder`] every emission compiles to
//!   nothing.
//! * [`trace`] — the compact binary round-trace format: a self-contained
//!   header (links per edge + full port topology) followed by a stream of
//!   per-round events (config deltas, beeps, structure edits, churn tags,
//!   round summaries). [`trace::TraceWriter`] implements [`Recorder`],
//!   its `event` encoding each [`TraceEvent`] in one `match`;
//!   [`trace::TraceReader`] decodes with exact error offsets so a replay
//!   can reject a corrupted blob at the first bad byte.
//! * [`flight`] — the flight recorder: a bounded, allocation-free ring
//!   buffer of recent [`TraceEvent`]s behind the same [`Recorder`]
//!   consts (its `event` is the ring push), framed into a standalone
//!   `.spft` blob (embedding the full reproduction key) when a failure
//!   needs its black box dumped.
//!
//! See DESIGN.md §1e for the architecture and the trace format spec, and
//! §1i for the observability plane built on top of it.

pub mod flight;
pub mod metrics;
pub mod recorder;
pub mod trace;
pub mod wire;

pub use flight::{FlightRecorder, TimedFlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{CounterId, HistSummary, Metrics, Stopwatch, TimerId};
pub use recorder::{mix64, NullRecorder, Recorder, RoundSummary, TimedRecorder, BEEP_DIGEST_SALT};
pub use trace::{
    TraceError, TraceEvent, TraceFooter, TraceHeader, TraceReader, TraceWriter, TRACE_MAGIC,
    TRACE_VERSION,
};
pub use wire::{SnapshotReader, SnapshotWriter, WireError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
