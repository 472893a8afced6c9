//! Input-format detection.
//!
//! [`TraceInputKind::detect`] tells text, monolithic v1 and chunked v2
//! inputs apart by their magic bytes; [`detect_input`] applies it to a
//! file.  Chunked containers need no adapter to be reduced:
//! `trace_container::ChunkReader` is itself a `trace_model::AppItemSource`,
//! whole or one index section at a time.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use trace_container::CONTAINER_MAGIC;
use trace_model::codec::APP_TRACE_MAGIC;

use crate::error::StreamError;

/// What kind of trace input a file holds, detected from its magic bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceInputKind {
    /// The line-oriented text format (`TRACEFORMAT 1` header).
    Text,
    /// A monolithic v1 binary file (`TRCF` magic) — decodable only as a
    /// whole buffer.
    BinaryV1,
    /// A chunked v2 container (`TRC2` magic) — streamable and seekable.
    ContainerV2,
}

impl TraceInputKind {
    /// Short human-readable label for CLI output.
    pub fn label(self) -> &'static str {
        match self {
            TraceInputKind::Text => "text",
            TraceInputKind::BinaryV1 => "binary v1 (monolithic)",
            TraceInputKind::ContainerV2 => "container v2 (chunked)",
        }
    }

    /// Detects the input kind from the leading bytes of a trace.  Anything
    /// that is not a known binary magic is treated as text, so text parse
    /// errors keep their precise line-level diagnostics.
    pub fn detect(leading: &[u8]) -> TraceInputKind {
        match leading.get(..4) {
            Some(magic) if magic == CONTAINER_MAGIC => TraceInputKind::ContainerV2,
            Some(magic) if magic == APP_TRACE_MAGIC => TraceInputKind::BinaryV1,
            _ => TraceInputKind::Text,
        }
    }
}

/// Detects the input kind from the first four bytes of `path`.
pub fn detect_input(path: impl AsRef<Path>) -> Result<TraceInputKind, StreamError> {
    let file = File::open(path.as_ref())?;
    let mut magic = Vec::with_capacity(4);
    file.take(4).read_to_end(&mut magic)?;
    Ok(TraceInputKind::detect(&magic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{reduce_input, StreamReduction, TraceInput};
    use trace_container::{encode_app_container, encode_reduced_container, ChunkSpec};
    use trace_model::codec::encode_app_trace;
    use trace_reduce::{Method, MethodConfig, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("trace_stream_bin_{}_{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn reduce(
        config: MethodConfig,
        input: TraceInput<'_>,
        workers: usize,
    ) -> Result<StreamReduction, StreamError> {
        let disabled = trace_obs::Recorder::disabled();
        reduce_input(&Reducer::new(config), input, workers, &disabled)
    }

    #[test]
    fn container_stream_equals_in_memory_for_every_chunk_size() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let config = MethodConfig::with_default_threshold(Method::AvgWave);
        let in_memory = Reducer::new(config).reduce_app(&app);
        for segments_per_chunk in [1, 3, 64, usize::MAX] {
            let bytes = encode_app_container(&app, ChunkSpec::with_segments(segments_per_chunk));
            let streamed = reduce(config, TraceInput::Bytes(&bytes), 1).unwrap();
            assert_eq!(
                streamed.reduced, in_memory,
                "{segments_per_chunk} seg/chunk"
            );
            assert_eq!(streamed.stats.ranks, app.rank_count());
            assert_eq!(streamed.stats.events, app.total_events());
            assert!(streamed.stats.peak_chunk_bytes > 0);
        }
    }

    #[test]
    fn index_sharded_ingestion_matches_single_shard() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let bytes = encode_app_container(&app, ChunkSpec::with_segments(8));
        let path = temp_file("sharded.trc", &bytes);
        let config = MethodConfig::with_default_threshold(Method::RelDiff);
        let sequential = reduce(config, TraceInput::File(&path), 1).unwrap();
        for workers in [2, 3, 8, 64] {
            let sharded = reduce(config, TraceInput::File(&path), workers).unwrap();
            assert_eq!(sharded.reduced, sequential.reduced, "{workers} workers");
            assert_eq!(sharded.workers, workers.min(app.rank_count()));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn autodetect_dispatches_all_three_input_kinds() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let config = MethodConfig::with_default_threshold(Method::Euclidean);
        let expected = Reducer::new(config).reduce_app(&app);

        let text = temp_file("auto.txt", trace_format::write_app_trace(&app).as_bytes());
        let v1 = temp_file("auto_v1.trc", &encode_app_trace(&app));
        let v2 = temp_file(
            "auto_v2.trc",
            &encode_app_container(&app, ChunkSpec::default()),
        );

        for (path, want_kind) in [
            (&text, TraceInputKind::Text),
            (&v1, TraceInputKind::BinaryV1),
            (&v2, TraceInputKind::ContainerV2),
        ] {
            let kind = detect_input(path).unwrap();
            assert_eq!(kind, want_kind);
            let reduction = reduce(config, TraceInput::File(path), 2).unwrap();
            assert_eq!(reduction.reduced, expected, "{}", kind.label());
        }

        for p in [&text, &v1, &v2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn reduced_containers_are_rejected_as_streaming_input() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let config = MethodConfig::with_default_threshold(Method::RelDiff);
        let reduced = Reducer::new(config).reduce_app(&app);
        let bytes = encode_reduced_container(&reduced, ChunkSpec::default());

        let err = reduce(config, TraceInput::Bytes(&bytes), 1).unwrap_err();
        assert!(err.as_container().is_some(), "{err}");

        let path = temp_file("reduced.trc", &bytes);
        let err = reduce(config, TraceInput::File(&path), 4).unwrap_err();
        assert!(err.as_container().is_some(), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
