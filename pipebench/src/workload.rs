//! The benchmark's workloads: seeded input generation, the CLI operation
//! each one times, and the reference every output is checked against.

use std::fs;
use std::path::{Path, PathBuf};

use trace_compress::PayloadClass;
use trace_container::layout::{read_header, ChunkStream};
use trace_container::{
    decode_app_any, decode_reduced_any, encode_app_container, encode_reduced_container, ChunkKind,
    ChunkSpec, Codec,
};
use trace_model::{AppTrace, ReducedAppTrace};
use trace_reduce::{reduce_app_reference, Method, MethodConfig};
use trace_sim::dynload::{dyn_load_balance, DynLoadParams};
use trace_sim::sweep3d::{sweep3d, Sweep3dParams};
use trace_tools::io::{store_app_trace, BinaryFormat};

/// Input scale: `Full` is the benchmark; `Tiny` keeps the smoke test fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn by_name(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `reduce --method avgWave --stream` over a `delta-lz` Sweep3D container.
    IngestSweep3d,
    /// In-memory `reduce --method avgWave` over an uncompressed
    /// `dyn_load_balance` container.
    MatchDynload,
    /// `convert` of a Sweep3D text trace to the default container.
    TextConvert,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::IngestSweep3d, Kind::MatchDynload, Kind::TextConvert];

    pub fn name(self) -> &'static str {
        match self {
            Kind::IngestSweep3d => "ingest_sweep3d",
            Kind::MatchDynload => "match_dynload",
            Kind::TextConvert => "text_convert",
        }
    }

    pub fn by_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True for the in-memory reduce path, whose CLI summary re-encodes
    /// the input (`trace_eval::file_size_percent`).
    pub fn in_memory(self) -> bool {
        self == Kind::MatchDynload
    }
}

/// The similarity method every reduce workload uses, with the CLI's
/// default threshold.
pub fn method_config() -> MethodConfig {
    MethodConfig::new(Method::AvgWave, Method::AvgWave.default_threshold())
}

/// The chunk spec the CLI writes by default (container v2, `delta-lz`).
pub fn default_spec() -> ChunkSpec {
    ChunkSpec::with_codec(Codec::DeltaLz)
}

/// What a correct output decodes to.
pub enum Expected {
    Reduced(ReducedAppTrace),
    App(AppTrace),
}

/// Everything a run needs after set-up: the input file on disk, the CLI
/// arguments of the timed operation, the reference output, and the
/// per-chunk facts the traced run uses to split layers.
pub struct Setup {
    pub kind: Kind,
    pub seed: u64,
    pub input: PathBuf,
    pub output: PathBuf,
    pub events: usize,
    pub ranks: usize,
    pub input_bytes: usize,
    pub expected: Expected,
    /// The input container with every chunk's codec byte set to `none`:
    /// reading it with `ChunkStream::next_chunk` does the frame read and
    /// CRC check of the stored bytes and nothing else.  Empty for text.
    pub stored_view: Vec<u8>,
    /// The codec each of the input's chunks is stored under, in file
    /// order.  Empty for text.
    pub stored_codecs: Vec<Codec>,
    /// The uncompressed payload chunks of the reference output, which the
    /// CLI's writer hands to `trace_compress::compress`.
    pub output_payloads: Vec<(PayloadClass, Vec<u8>)>,
}

impl Setup {
    /// The CLI arguments of the workload's operation, writing to `out`.
    pub fn args(&self, out: &Path) -> Vec<String> {
        let (input, out) = (path_arg(&self.input), path_arg(out));
        let args: Vec<&str> = match self.kind {
            Kind::IngestSweep3d => vec![
                "reduce", "--in", &input, "--out", &out, "--method", "avgWave", "--stream",
            ],
            Kind::MatchDynload => {
                vec![
                    "reduce", "--in", &input, "--out", &out, "--method", "avgWave",
                ]
            }
            Kind::TextConvert => vec!["convert", "--in", &input, "--out", &out],
        };
        args.into_iter().map(str::to_string).collect()
    }

    /// Stored segments, executions and degree of matching of the
    /// reference reduction (`None` for `convert`).
    pub fn reduction_facts(&self) -> Option<(usize, usize, f64)> {
        match &self.expected {
            Expected::Reduced(r) => {
                Some((r.total_stored(), r.total_execs(), r.degree_of_matching()))
            }
            Expected::App(_) => None,
        }
    }

    /// Reads the file an operation wrote and checks it against the
    /// reference.  Returns its bytes when it matches.
    pub fn check_output(&self, out: &Path) -> Result<Vec<u8>, String> {
        let bytes = fs::read(out).map_err(|e| format!("cannot read {}: {e}", out.display()))?;
        let matches = match &self.expected {
            Expected::Reduced(reference) => {
                decode_reduced_any(&bytes).map_err(|e| e.to_string())? == *reference
            }
            Expected::App(reference) => {
                decode_app_any(&bytes).map_err(|e| e.to_string())? == *reference
            }
        };
        if matches {
            Ok(bytes)
        } else {
            Err(format!("{} does not equal the reference", out.display()))
        }
    }
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// Runs one CLI operation in process, exactly as `trace-tools` would.
pub fn run_op(args: &[String]) -> Result<String, String> {
    let invocation = trace_tools::parse_args(args)?;
    trace_tools::run(&invocation)
}

fn generate(kind: Kind, size: Size, seed: u64) -> AppTrace {
    match kind {
        Kind::IngestSweep3d | Kind::TextConvert => {
            let (base, iterations) = match (kind, size) {
                (Kind::IngestSweep3d, Size::Full) => (Sweep3dParams::paper_32p(), 96),
                (_, Size::Full) => (Sweep3dParams::paper_32p(), 24),
                (_, Size::Tiny) => (Sweep3dParams::paper_8p(), 2),
            };
            let params = Sweep3dParams {
                iterations,
                seed,
                ..base
            };
            sweep3d("sweep3d_32p", &params)
        }
        Kind::MatchDynload => {
            // Iterations and rebalance period scaled together, as
            // `trace_bench::scaled_dynload` does (×128 at the paper preset).
            let iterations = match size {
                Size::Full => 100 * 128,
                Size::Tiny => 60,
            };
            dyn_load_balance(&DynLoadParams {
                iterations,
                rebalance_every: iterations / 10,
                seed,
                ..DynLoadParams::paper()
            })
        }
    }
}

/// Generates and writes the input and computes the reference with the
/// oracle (or by parsing the text written).
pub fn set_up(kind: Kind, size: Size, seed: u64, dir: &Path) -> Result<Setup, String> {
    let app = generate(kind, size, seed);
    let (input, format) = match kind {
        Kind::IngestSweep3d => (dir.join("input.trc"), BinaryFormat::default()),
        Kind::MatchDynload => (
            dir.join("input.trc"),
            BinaryFormat::ContainerV2(ChunkSpec::with_codec(Codec::None)),
        ),
        Kind::TextConvert => (dir.join("input.txt"), BinaryFormat::default()),
    };
    let input_bytes = store_app_trace(&input, &app, format)?;
    let (expected, output_container) = match kind {
        Kind::TextConvert => {
            let text = fs::read_to_string(&input).map_err(|e| e.to_string())?;
            let parsed = trace_format::parse_app_trace(&text).map_err(|e| e.to_string())?;
            let plain = encode_app_container(&parsed, default_spec().codec(Codec::None));
            (Expected::App(parsed), plain)
        }
        _ => {
            let reference = reduce_app_reference(method_config(), &app);
            let plain = encode_reduced_container(&reference, default_spec().codec(Codec::None));
            (Expected::Reduced(reference), plain)
        }
    };
    let (stored_view, stored_codecs) = match kind {
        Kind::TextConvert => (Vec::new(), Vec::new()),
        _ => {
            let bytes = fs::read(&input).map_err(|e| e.to_string())?;
            stored_view(&bytes)?
        }
    };
    Ok(Setup {
        kind,
        seed,
        output: dir.join("output.trc"),
        input,
        events: app.total_events(),
        ranks: app.rank_count(),
        input_bytes,
        expected,
        stored_view,
        stored_codecs,
        output_payloads: payload_chunks(&output_container)?,
    })
}

/// Walks a container's frames without reading payloads, records each
/// chunk's codec, and returns a copy whose codec bytes all read
/// `none`.  The frame layout (kind byte, codec byte, length, CRC) is
/// documented in `trace_container::layout`.
fn stored_view(bytes: &[u8]) -> Result<(Vec<u8>, Vec<Codec>), String> {
    let mut view = bytes.to_vec();
    let mut codecs = Vec::new();
    let mut stream = ChunkStream::new(bytes, 0);
    read_header(&mut stream).map_err(|e| e.to_string())?;
    loop {
        let codec_at = stream.offset() as usize + 1;
        let codec = Codec::from_byte(bytes[codec_at]).map_err(|e| e.to_string())?;
        let kind = stream.skip_chunk().map_err(|e| e.to_string())?;
        view[codec_at] = Codec::None.as_byte();
        codecs.push(codec);
        if kind == ChunkKind::Index {
            return Ok((view, codecs));
        }
    }
}

/// The payload chunks (the ones the writer may compress) of an
/// uncompressed container.
fn payload_chunks(plain: &[u8]) -> Result<Vec<(PayloadClass, Vec<u8>)>, String> {
    let mut payloads = Vec::new();
    let mut stream = ChunkStream::new(plain, 0);
    read_header(&mut stream).map_err(|e| e.to_string())?;
    loop {
        let chunk = stream.next_chunk().map_err(|e| e.to_string())?;
        let class = chunk.kind.payload_class();
        if chunk.kind == ChunkKind::Index {
            return Ok(payloads);
        }
        if class != PayloadClass::Opaque {
            payloads.push((class, chunk.payload));
        }
    }
}
