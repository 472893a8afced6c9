//! Trace file input/output for the CLI.
//!
//! Reads detect the format from the file's leading bytes: a `TRC2`
//! container or a monolithic v1 magic (`TRCF` full, `TRCR` reduced)
//! selects the binary decoder, and
//! anything else is parsed as the human-readable text format from
//! `trace-format`.  Writes choose by extension: `.txt` and `.trctxt` write
//! text, everything else a binary codec — by default chunked v2 containers
//! compressed with `delta-lz` ([`BinaryFormat::default`]), with
//! uncompressed chunks available via `--codec none` and the monolithic v1
//! encoding (the format the paper's file-size percentages are measured
//! against) kept reachable via `--v1`.

use std::fs;
use std::path::Path;

use trace_container::{decode_app_any, decode_reduced_any, ChunkSpec};
use trace_format::{parse_app_trace, parse_reduced_trace, write_app_trace, write_reduced_trace};
use trace_model::codec::{encode_app_trace, encode_reduced_trace, REDUCED_TRACE_MAGIC};
use trace_model::{AppTrace, ReducedAppTrace};
use trace_stream::TraceInputKind;

/// Which binary encoding a write produces (text paths ignore this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryFormat {
    /// Chunked, indexed `.trc` v2 container — the default write format —
    /// with the chunk grouping and codec of the spec.
    ContainerV2(ChunkSpec),
    /// Monolithic v1 encoding (`--v1`): one decode-it-all buffer, no
    /// chunks, no index, no compression.
    MonolithicV1,
}

impl Default for BinaryFormat {
    /// Chunked v2 container with `delta-lz` chunk compression — the CLI's
    /// default for every binary write (`--codec none` opts out).
    fn default() -> Self {
        BinaryFormat::ContainerV2(ChunkSpec::with_codec(trace_container::Codec::DeltaLz))
    }
}

/// True if the path should use the text format.
pub fn is_text_path(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("txt") | Some("trctxt")
    )
}

/// Loads a full application trace from `path` (text or binary by magic).
pub fn load_app_trace(path: &Path) -> Result<AppTrace, String> {
    load_app_trace_obs(path, &trace_obs::Recorder::disabled())
}

/// [`load_app_trace`] with observability: the whole read-and-decode is
/// bracketed by one [`trace_obs::Stage::Parse`] span.  With a disabled
/// recorder this is exactly [`load_app_trace`].
pub fn load_app_trace_obs(path: &Path, recorder: &trace_obs::Recorder) -> Result<AppTrace, String> {
    let mut obs = recorder.shard();
    let span = obs.start();
    let result = load(
        path,
        |bytes| TraceInputKind::detect(bytes) != TraceInputKind::Text,
        parse_app_trace,
        decode_app_any,
    );
    obs.end(trace_obs::Stage::Parse, span);
    obs.finish();
    result
}

/// Stores a full application trace to `path`: text by extension, otherwise
/// the requested binary format.  Returns the number of bytes written.
pub fn store_app_trace(path: &Path, app: &AppTrace, format: BinaryFormat) -> Result<usize, String> {
    store_app_trace_obs(path, app, format, &trace_obs::Recorder::disabled())
}

/// [`store_app_trace`] with observability: the encode-and-write is
/// bracketed by one [`trace_obs::Stage::Store`] span, and container writes
/// additionally record per-chunk compression spans and codec byte
/// counters.  The bytes written are identical.
pub fn store_app_trace_obs(
    path: &Path,
    app: &AppTrace,
    format: BinaryFormat,
    recorder: &trace_obs::Recorder,
) -> Result<usize, String> {
    let mut obs = recorder.shard();
    let span = obs.start();
    let bytes = if is_text_path(path) {
        write_app_trace(app).into_bytes()
    } else {
        match format {
            BinaryFormat::ContainerV2(spec) => {
                trace_container::encode_app_container_obs(app, spec, recorder.shard())
            }
            BinaryFormat::MonolithicV1 => encode_app_trace(app),
        }
    };
    fs::write(path, &bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    obs.end(trace_obs::Stage::Store, span);
    obs.finish();
    Ok(bytes.len())
}

/// Loads a reduced trace from `path` (text or binary by magic; the
/// reduced v1 encoding has its own `TRCR` magic).
pub fn load_reduced_trace(path: &Path) -> Result<ReducedAppTrace, String> {
    load(
        path,
        |bytes| {
            TraceInputKind::detect(bytes) != TraceInputKind::Text
                || bytes.starts_with(&REDUCED_TRACE_MAGIC)
        },
        parse_reduced_trace,
        decode_reduced_any,
    )
}

/// Reads `path` whole and decodes it with `binary` when `is_binary` sees a
/// binary magic in its leading bytes, else parses it as text.
fn load<T, E: std::fmt::Display, F: std::fmt::Display>(
    path: &Path,
    is_binary: impl Fn(&[u8]) -> bool,
    text: impl Fn(&str) -> Result<T, E>,
    binary: impl Fn(&[u8]) -> Result<T, F>,
) -> Result<T, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let decoded = if is_binary(&bytes) {
        binary(&bytes).map_err(|e| e.to_string())
    } else {
        std::str::from_utf8(&bytes)
            .map_err(|e| format!("neither a binary trace nor UTF-8 text: {e}"))
            .and_then(|source| text(source).map_err(|e| e.to_string()))
    };
    decoded.map_err(|e| format!("{}: {e}", path.display()))
}

/// Stores a reduced trace to `path`: text by extension, otherwise the
/// requested binary format.  Returns the number of bytes written.
pub fn store_reduced_trace(
    path: &Path,
    reduced: &ReducedAppTrace,
    format: BinaryFormat,
) -> Result<usize, String> {
    store_reduced_trace_obs(path, reduced, format, &trace_obs::Recorder::disabled())
}

/// [`store_reduced_trace`] with observability (see
/// [`store_app_trace_obs`]).
pub fn store_reduced_trace_obs(
    path: &Path,
    reduced: &ReducedAppTrace,
    format: BinaryFormat,
    recorder: &trace_obs::Recorder,
) -> Result<usize, String> {
    let mut obs = recorder.shard();
    let span = obs.start();
    let bytes = if is_text_path(path) {
        write_reduced_trace(reduced).into_bytes()
    } else {
        match format {
            BinaryFormat::ContainerV2(spec) => {
                trace_container::encode_reduced_container_obs(reduced, spec, recorder.shard())
            }
            BinaryFormat::MonolithicV1 => encode_reduced_trace(reduced),
        }
    };
    fs::write(path, &bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    obs.end(trace_obs::Stage::Store, span);
    obs.finish();
    Ok(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use trace_reduce::{Method, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    /// A unique temporary file path for a test (removed by the caller).
    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("trace_tools_io_{}_{name}", std::process::id()));
        path
    }

    #[test]
    fn extension_detection() {
        assert!(is_text_path(Path::new("a.txt")));
        assert!(is_text_path(Path::new("dir/b.trctxt")));
        assert!(!is_text_path(Path::new("a.trc")));
        assert!(!is_text_path(Path::new("noext")));
    }

    #[test]
    fn app_trace_round_trips_through_every_format() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        for (name, format) in [
            ("app_roundtrip_v2.bin", BinaryFormat::default()),
            ("app_roundtrip_v1.bin", BinaryFormat::MonolithicV1),
            (
                "app_roundtrip_dlz.bin",
                BinaryFormat::ContainerV2(ChunkSpec::with_codec(trace_container::Codec::DeltaLz)),
            ),
            ("app_roundtrip.txt", BinaryFormat::default()),
        ] {
            let path = temp_path(name);
            let written = store_app_trace(&path, &app, format).unwrap();
            assert_eq!(written, std::fs::metadata(&path).unwrap().len() as usize);
            let loaded = load_app_trace(&path).unwrap();
            assert_eq!(loaded, app, "{name}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn binary_writes_default_to_v2_containers() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let path = temp_path("default_is_v2.bin");
        store_app_trace(&path, &app, BinaryFormat::default()).unwrap();
        assert_eq!(&std::fs::read(&path).unwrap()[..4], b"TRC2");
        store_app_trace(&path, &app, BinaryFormat::MonolithicV1).unwrap();
        assert_eq!(&std::fs::read(&path).unwrap()[..4], b"TRCF");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reduced_trace_round_trips_through_every_format() {
        let app = Workload::new(WorkloadKind::EarlyGather, SizePreset::Tiny).generate();
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
        for (name, format) in [
            ("reduced_roundtrip_v2.bin", BinaryFormat::default()),
            ("reduced_roundtrip_v1.bin", BinaryFormat::MonolithicV1),
            (
                "reduced_roundtrip_dlz.bin",
                BinaryFormat::ContainerV2(ChunkSpec::with_codec(trace_container::Codec::DeltaLz)),
            ),
            ("reduced_roundtrip.txt", BinaryFormat::default()),
        ] {
            let path = temp_path(name);
            store_reduced_trace(&path, &reduced, format).unwrap();
            let loaded = load_reduced_trace(&path).unwrap();
            assert_eq!(loaded, reduced, "{name}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn missing_files_and_garbage_content_report_errors() {
        let missing = Path::new("/nonexistent/definitely/missing.trc");
        assert!(load_app_trace(missing).is_err());
        assert!(load_reduced_trace(missing).is_err());

        let path = temp_path("garbage.txt");
        std::fs::write(&path, "this is not a trace").unwrap();
        let err = load_app_trace(&path).unwrap_err();
        assert!(err.contains("trace format error"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
