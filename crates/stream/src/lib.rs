#![forbid(unsafe_code)]
//! Streaming, bounded-memory trace reduction.
//!
//! The paper's stored-segments reducer exists because full event traces are
//! too large to keep around — yet reducing a trace by first materializing a
//! full [`trace_model::AppTrace`] reintroduces exactly that memory wall.
//! This crate removes it for both trace formats:
//!
//! * [`parser::StreamParser`] — an incremental, line-oriented pull parser
//!   over any [`std::io::BufRead`] source that feeds the full-trace grammar
//!   of `trace_format` (one line resident at a time).
//! * `trace_container::ChunkReader` — the same item stream pulled from a
//!   chunked binary container (`.trc` v2), one CRC-checked chunk resident
//!   at a time, either whole or one rank section at a time via the index
//!   footer.  Both readers are [`trace_model::AppItemSource`]s, so one
//!   reduction loop serves both formats; [`binary::detect_input`] tells
//!   the formats apart by their magic bytes.
//! * [`reduce::reduce_input`] — the single reduction entry point.  It
//!   detects the input format by magic bytes, picks the partitions that
//!   suit it (the whole stream for text, index sections for a container
//!   read by several workers, one rank each for in-memory traces) and runs
//!   the driver's record → segment → match loop over them on up to
//!   `workers` threads.  The output is identical to the in-memory
//!   [`trace_reduce::Reducer`] for every input and worker count.
//!
//! # Quick start
//!
//! ```
//! use trace_format::write_app_trace;
//! use trace_obs::Recorder;
//! use trace_reduce::{Method, Reducer};
//! use trace_sim::{SizePreset, Workload, WorkloadKind};
//! use trace_stream::{reduce_input, TraceInput};
//!
//! let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
//! let text = write_app_trace(&app);
//!
//! let reducer = Reducer::with_default_threshold(Method::AvgWave);
//! let input = TraceInput::Bytes(text.as_bytes());
//! let streamed = reduce_input(&reducer, input, 1, &Recorder::disabled()).unwrap();
//!
//! // Identical to the in-memory path, with bounded resident state.
//! assert_eq!(streamed.reduced, reducer.reduce_app(&app));
//! assert!(streamed.stats.peak_resident_segments <= streamed.stats.stored + 1);
//! ```

#![warn(missing_docs)]

pub mod binary;
pub mod error;
pub mod parser;
pub mod reduce;

pub use binary::{detect_input, TraceInputKind};
pub use error::StreamError;
pub use parser::StreamParser;
pub use reduce::{reduce_input, StreamReduction, TraceInput};
pub use trace_reduce::StreamStats;
