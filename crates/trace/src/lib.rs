//! Deterministic observability for the arpshield workspace.
//!
//! Every diagnostic this crate records is stamped with **simulation
//! time** (nanoseconds since the run started), never wall clock, so a
//! trace taken today diffs clean against one taken next year on a
//! different machine. The layer has three pieces:
//!
//! * [`Tracer`] — the per-run handle the instrumented crates hold
//!   (simulator, switch, host stacks, scheme alert log). It records
//!   structured [`Event`]s, named counters, and log-bucketed
//!   [`Histogram`]s into a [`RunRecorder`].
//! * [`TraceCollector`] — a process-wide (thread-local, explicitly
//!   propagated) sink that finished runs flush into. Installed with
//!   [`install`]; when no collector is installed every [`Tracer`] is
//!   disabled and recording is a single branch on a `None`.
//! * [`RunManifest`] — the deterministic JSON/CSV export written under
//!   `results/trace/` by `reproduce --trace`.
//!
//! ## Determinism contract
//!
//! The manifest for a given experiment and seed is byte-identical at
//! any `ARPSHIELD_THREADS` value. Three properties make that hold:
//!
//! 1. every run records into its own [`RunRecorder`] on the thread
//!    that executes it, so there is no cross-run interleaving;
//! 2. histograms use *fixed* log₂ bins ([`bucket_of`]), so merging is
//!    per-bin integer addition — associative and commutative — and
//!    counter merges are plain sums with the same algebra;
//! 3. the collector sorts flushed run sections (and warnings) before
//!    export, erasing job-completion order.
//!
//! ## Flight recorder
//!
//! When the collector is built with [`TraceCollector::with_capture`],
//! each run additionally owns a [`FrameRecorder`]: a bounded ring of
//! raw wire frames (capacity from `ARPSHIELD_RECORD_FRAMES`, default
//! [`DEFAULT_RECORD_FRAMES`]). The simulator records every
//! delivered/dropped/duplicated frame and marks the one it is
//! currently dispatching as the tracer's *current frame*, so every
//! event recorded during that dispatch — a CAM move, a cache write, a
//! scheme verdict — cites the exact frame that caused it. Frames cited
//! by scheme alerts are *pinned* and survive ring eviction. The
//! [`RunManifest`] exports captures as standard [`pcapng`] plus an
//! `arpshield-capture/1` JSON index, and [`pcapng::PcapngStream`]
//! reads them back. The recorder is the workspace's only frame log: a
//! caller that needs a run's complete delivery schedule sizes the ring
//! with `TraceCollector::with_capture(usize::MAX)`.
//!
//! ## Disabled-path cost
//!
//! A disabled [`Tracer`] is `Option::None` behind the handle: every
//! record call is one branch, no allocation, no formatting (event
//! construction is closure-gated). The `reproduce` binary installs no
//! collector unless `--trace` or `--capture` is passed, so legacy CSV
//! outputs and bench numbers are untouched by instrumentation; with
//! tracing on but capture off, frame recording additionally skips the
//! octet copy and endpoint formatting entirely.
//!
//! ## Wall-clock telemetry
//!
//! Two sibling subsystems deliberately step outside the sim-time rule
//! and are quarantined to stderr and sidecar files for it:
//! [`profile`] (span-scoped wall-clock self-profiling, exported as
//! `results/profile/<id>.json` + `.csv` by `reproduce --profile`) and
//! [`heartbeat`] (periodic progress lines during scale sweeps and
//! ingest, suppressed by `ARPSHIELD_QUIET=1`). Both follow the same
//! disabled-path discipline as the tracer. [`env_knob`] centralises
//! `ARPSHIELD_*` environment parsing so every knob warns-and-defaults
//! on garbage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collect;
mod csv;
pub mod env_knob;
pub mod heartbeat;
mod hist;
mod json;
pub mod pcapng;
pub mod profile;
mod record;
mod recorder;

pub use collect::{current, install, InstallGuard, RunManifest, RunSection, TraceCollector};
pub use csv::csv_escape;
pub use heartbeat::Heartbeat;
pub use hist::{bucket_of, bucket_range, Histogram, BUCKETS};
pub use profile::{
    GaugeStats, ProfileCollector, ProfileData, ProfileReport, SpanStats, PROFILE_SCHEMA,
};
pub use record::{Event, RunRecorder, Tracer, MAX_EVENTS_PER_RUN};
pub use recorder::{
    ring_capacity_from_env, FrameKind, FrameRecorder, RecordedFrame, DEFAULT_RECORD_FRAMES,
};
