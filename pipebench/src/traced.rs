//! The traced run: each operation re-executed as a chain of calls into
//! the layers' public functions, every call wrapped in a span.
//!
//! The chain does the operation's work stage by stage instead of record by
//! record, so two clock reads bracket each layer call.  Three layers run
//! *inside* a call the program does not split further: chunk framing and
//! decompression inside the container decode, and compression inside the
//! container encode.  After the operation's root span closes, the traced
//! run calls those layers again on the same bytes (`ChunkStream::next_chunk`
//! over the stored frames, `trace_compress::decompress` over the stored
//! payloads, `trace_compress::compress` over the output's payloads) and
//! records their spans as children of the call they ran inside.  A span's
//! self time is its duration minus its children's, so every layer keeps
//! its own share and the shares still add up to the operation.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use trace_compress::{compress, decompress};
use trace_container::layout::{read_header, ChunkStream, RawChunk};
use trace_container::{
    decode_app_any, encode_app_container, encode_reduced_container, ChunkKind, ChunkReader, Codec,
    ContainerItem,
};
use trace_model::{AppTrace, RankTrace, ReducedAppTrace, Segment};
use trace_reduce::{MatchScratch, MatchStats, OnlineRankReducer, OnlineSegmenter};

use crate::workload::{default_spec, method_config, Kind, Setup};

/// The per-layer metrics, with units, in report order.
pub const METRICS: &[(&str, &str)] = &[
    ("io.read_ms", "ms"),
    ("io.write_ms", "ms"),
    ("container.chunk_io_ms", "ms"),
    ("container.chunks", "count"),
    ("container.decode_ms", "ms"),
    ("container.decode_mb_per_s", "MB/s"),
    ("compress.decompress_ms", "ms"),
    ("compress.decompress_mb_per_s", "MB/s"),
    ("compress.compress_ms", "ms"),
    ("compress.ratio", "ratio"),
    ("format.parse_ms", "ms"),
    ("format.parse_mb_per_s", "MB/s"),
    ("reduce.segment_ms", "ms"),
    ("reduce.segments", "count"),
    ("reduce.match_ms", "ms"),
    ("reduce.stored", "count"),
    ("reduce.comparisons", "count"),
    ("reduce.eligible", "count"),
    ("reduce.visited_frac", "ratio"),
    ("reduce.prefilter_reject_frac", "ratio"),
    ("reduce.index_prunes", "count"),
    ("store.encode_ms", "ms"),
    ("store.bytes", "bytes"),
    ("cli.summary_ms", "ms"),
    ("cli.residual_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// One recorded span.  Times are nanoseconds since the tracer started.
struct Span {
    name: &'static str,
    op: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span store, written out as chrome://tracing JSON at the end.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays open until [`Tracer::close`]; returns its id.
    fn open(&mut self, name: &'static str, op: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span; returns its value and the span id.
    fn span<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, op, Some(parent));
        let value = black_box(f());
        self.close(id);
        (value, id)
    }

    /// Writes every span as a chrome://tracing complete event.
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        let mut json = String::from("{\"traceEvents\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                json.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            json.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"pipebench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{id},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.op,
            ));
        }
        json.push_str("\n]}\n");
        fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Work counts of one traced operation, taken where the work happens.
#[derive(Default)]
struct Counts {
    input_bytes: usize,
    chunks: usize,
    decompressed_bytes: usize,
    segments: usize,
    stored: usize,
    matching: MatchStats,
    plain_payload_bytes: usize,
    packed_payload_bytes: usize,
    output_bytes: usize,
}

/// The spans of one traced operation that its metrics are read from.
pub struct TracedOp {
    op: u32,
    root: usize,
    decode: Option<usize>,
    counts: Counts,
}

/// Re-executes the workload's operation as a chain of layer calls, writing
/// to `out`, and returns the bytes written.
pub fn run_chain(
    setup: &Setup,
    tracer: &mut Tracer,
    op: u32,
    out: &Path,
) -> Result<(Vec<u8>, TracedOp), String> {
    let mut counts = Counts::default();
    let root = tracer.open("op", op, None);
    let (output, decode, store) = match setup.kind {
        Kind::TextConvert => {
            let (text, _) = tracer.span("io.read", op, root, || fs::read_to_string(&setup.input));
            let text = text.map_err(|e| e.to_string())?;
            counts.input_bytes = text.len();
            let (app, _) = tracer.span("format.parse", op, root, || {
                trace_format::parse_app_trace(&text)
            });
            let app = app.map_err(|e| e.to_string())?;
            let (bytes, store) = tracer.span("store.encode", op, root, || {
                encode_app_container(&app, default_spec())
            });
            tracer
                .span("io.write", op, root, || fs::write(out, &bytes))
                .0
                .map_err(|e| e.to_string())?;
            (bytes, None, store)
        }
        Kind::IngestSweep3d | Kind::MatchDynload => {
            let (input, _) = tracer.span("io.read", op, root, || fs::read(&setup.input));
            let input = input.map_err(|e| e.to_string())?;
            counts.input_bytes = input.len();
            let (app, decode) = tracer.span("container.decode", op, root, || {
                if setup.kind.in_memory() {
                    decode_app_any(&input).map_err(|e| e.to_string())
                } else {
                    read_streaming(&input)
                }
            });
            let app = app?;
            let (segments, _) = tracer.span("reduce.segment", op, root, || segment(&app));
            counts.segments = segments.iter().map(Vec::len).sum();
            let ((reduced, matching), _) =
                tracer.span("reduce.match", op, root, || match_segments(&app, segments));
            counts.stored = reduced.total_stored();
            counts.matching = matching;
            let (bytes, store) = tracer.span("store.encode", op, root, || {
                encode_reduced_container(&reduced, default_spec())
            });
            tracer
                .span("io.write", op, root, || fs::write(out, &bytes))
                .0
                .map_err(|e| e.to_string())?;
            if setup.kind.in_memory() {
                tracer.span("cli.summary", op, root, || {
                    trace_eval::file_size_percent(&app, &reduced)
                });
            }
            (bytes, Some(decode), store)
        }
    };
    tracer.close(root);
    counts.output_bytes = output.len();

    if let Some(decode) = decode {
        let (stored, _) = tracer.span("container.chunk_io", op, decode, || {
            read_frames(&setup.stored_view)
        });
        let stored = stored?;
        counts.chunks = stored.len();
        // An uncompressed input never reaches the codec: no span, zero time.
        if setup.stored_codecs.iter().any(|&c| c != Codec::None) {
            let (decompressed, _) = tracer.span("compress.decompress", op, decode, || {
                decompress_all(&setup.stored_codecs, &stored)
            });
            counts.decompressed_bytes = decompressed?;
        }
    }
    let (packed, _) = tracer.span("compress.compress", op, store, || {
        compress_all(&setup.output_payloads)
    });
    counts.plain_payload_bytes = setup.output_payloads.iter().map(|(_, p)| p.len()).sum();
    counts.packed_payload_bytes = packed?;
    Ok((
        output,
        TracedOp {
            op,
            root,
            decode,
            counts,
        },
    ))
}

/// The streaming decode: `ChunkReader` pulls one record at a time, as
/// `reduce --stream` does; the chain keeps them for the next stage.
fn read_streaming(bytes: &[u8]) -> Result<AppTrace, String> {
    let mut reader = ChunkReader::new(bytes).map_err(|e| e.to_string())?;
    let preamble = reader
        .preamble()
        .cloned()
        .ok_or("container has no preamble")?;
    let mut app = AppTrace {
        name: preamble.name,
        regions: preamble.regions,
        contexts: preamble.contexts,
        ranks: Vec::new(),
    };
    while let Some(item) = reader.next_item().map_err(|e| e.to_string())? {
        match item {
            ContainerItem::RankStart(rank) => app.ranks.push(RankTrace::new(rank)),
            ContainerItem::Record(record) => app
                .ranks
                .last_mut()
                .ok_or("record outside a rank section")?
                .records
                .push(record),
            ContainerItem::RankEnd(_) => {}
        }
    }
    Ok(app)
}

/// Cuts every rank's records into segments with `OnlineSegmenter`.
fn segment(app: &AppTrace) -> Vec<Vec<Segment>> {
    app.ranks
        .iter()
        .map(|rank| {
            let mut segmenter = OnlineSegmenter::new();
            let mut segments: Vec<Segment> = rank
                .records
                .iter()
                .filter_map(|record| segmenter.push(record))
                .collect();
            segments.extend(segmenter.finish());
            segments
        })
        .collect()
}

/// Feeds every rank's segments to `OnlineRankReducer`, threading one
/// match scratch from rank to rank as the CLI's drivers do.
fn match_segments(app: &AppTrace, segments: Vec<Vec<Segment>>) -> (ReducedAppTrace, MatchStats) {
    let mut reduced = ReducedAppTrace::for_app(app);
    let mut matching = MatchStats::default();
    let mut scratch = MatchScratch::new();
    for (rank, segments) in app.ranks.iter().zip(segments) {
        let mut reducer = OnlineRankReducer::with_scratch(method_config(), rank.rank, scratch);
        for segment in segments {
            reducer.push_segment(segment);
        }
        matching.absorb(&reducer.match_stats());
        let (rank_reduced, returned) = reducer.finish_with_scratch();
        scratch = returned;
        reduced.ranks.push(rank_reduced);
    }
    (reduced, matching)
}

/// Reads every frame of a container whose codec bytes read `none`: the
/// frame read and CRC check of the stored bytes.
fn read_frames(view: &[u8]) -> Result<Vec<RawChunk>, String> {
    let mut stream = ChunkStream::new(view, 0);
    read_header(&mut stream).map_err(|e| e.to_string())?;
    let mut chunks = Vec::new();
    loop {
        let chunk = stream.next_chunk().map_err(|e| e.to_string())?;
        let last = chunk.kind == ChunkKind::Index;
        chunks.push(chunk);
        if last {
            return Ok(chunks);
        }
    }
}

/// Decompresses every compressed stored payload; returns the bytes out.
fn decompress_all(codecs: &[Codec], stored: &[RawChunk]) -> Result<usize, String> {
    let mut out = 0;
    for (&codec, chunk) in codecs.iter().zip(stored) {
        if codec != Codec::None {
            let plain = decompress(codec, chunk.kind.payload_class(), &chunk.payload)
                .map_err(|e| e.to_string())?;
            out += black_box(plain).len();
        }
    }
    Ok(out)
}

/// Compresses every output payload under the CLI's default codec; returns
/// the bytes stored, keeping a payload raw where compression does not
/// shrink it, as the container writer does.
fn compress_all(payloads: &[(trace_compress::PayloadClass, Vec<u8>)]) -> Result<usize, String> {
    let mut stored = 0;
    for (class, payload) in payloads {
        let packed = compress(default_spec().codec, *class, payload).map_err(|e| e.to_string())?;
        stored += black_box(packed).len().min(payload.len());
    }
    Ok(stored)
}

fn per_s(bytes: usize, ms: f64) -> f64 {
    if ms > 0.0 {
        bytes as f64 / 1e6 / (ms / 1e3)
    } else {
        0.0
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole > 0 {
        part as f64 / whole as f64
    } else {
        0.0
    }
}

impl TracedOp {
    /// Wall time of the operation's chain (the root span).
    pub fn wall_ms(&self, tracer: &Tracer) -> f64 {
        tracer.spans[self.root].ms()
    }

    /// Every per-layer metric except `trace.overhead_pct`, which compares
    /// against the untraced operations.
    pub fn metrics(&self, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
        let mut layer_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (id, ms) in self.self_ms(tracer) {
            *layer_ms.entry(tracer.spans[id].name).or_default() += ms;
        }
        let ms = |name: &str| layer_ms.get(name).copied().unwrap_or(0.0);
        let wall = self.wall_ms(tracer);
        let covered: f64 = tracer
            .spans
            .iter()
            .filter(|s| s.op == self.op && s.parent == Some(self.root))
            .map(Span::ms)
            .sum();
        let decode_total = self.decode.map_or(0.0, |id| tracer.spans[id].ms());
        let c = &self.counts;
        let m = &c.matching;
        let mut out: BTreeMap<&'static str, f64> = METRICS.iter().map(|(n, _)| (*n, 0.0)).collect();
        for (name, value) in [
            ("io.read_ms", ms("io.read")),
            ("io.write_ms", ms("io.write")),
            ("container.chunk_io_ms", ms("container.chunk_io")),
            ("container.chunks", c.chunks as f64),
            ("container.decode_ms", ms("container.decode")),
            (
                "container.decode_mb_per_s",
                per_s(c.input_bytes, decode_total),
            ),
            ("compress.decompress_ms", ms("compress.decompress")),
            (
                "compress.decompress_mb_per_s",
                per_s(c.decompressed_bytes, ms("compress.decompress")),
            ),
            ("compress.compress_ms", ms("compress.compress")),
            (
                "compress.ratio",
                ratio(c.plain_payload_bytes, c.packed_payload_bytes),
            ),
            ("format.parse_ms", ms("format.parse")),
            (
                "format.parse_mb_per_s",
                per_s(c.input_bytes, ms("format.parse")),
            ),
            ("reduce.segment_ms", ms("reduce.segment")),
            ("reduce.segments", c.segments as f64),
            ("reduce.match_ms", ms("reduce.match")),
            ("reduce.stored", c.stored as f64),
            ("reduce.comparisons", m.comparisons as f64),
            ("reduce.eligible", m.eligible as f64),
            ("reduce.visited_frac", ratio(m.comparisons, m.eligible)),
            (
                "reduce.prefilter_reject_frac",
                ratio(m.prefilter_rejects, m.comparisons),
            ),
            (
                "reduce.index_prunes",
                (m.index_window_prunes + m.index_pivot_prunes) as f64,
            ),
            ("store.encode_ms", ms("store.encode")),
            ("store.bytes", c.output_bytes as f64),
            ("cli.summary_ms", ms("cli.summary")),
            ("cli.residual_ms", (wall - covered).max(0.0)),
            (
                "trace.coverage",
                if wall > 0.0 { covered / wall } else { 0.0 },
            ),
        ] {
            out.insert(name, value);
        }
        out
    }

    /// Self time of each of the operation's layer spans (the root
    /// excluded), keyed by span id: its duration minus its children's.  A
    /// call re-run after the root is timed apart from its parent, so noise
    /// can push the parent's remainder below zero; it is clamped.
    fn self_ms(&self, tracer: &Tracer) -> BTreeMap<usize, f64> {
        let mut times: BTreeMap<usize, f64> = BTreeMap::new();
        for (id, span) in tracer.spans.iter().enumerate() {
            if span.op != self.op || id == self.root {
                continue;
            }
            *times.entry(id).or_default() += span.ms();
            if let Some(parent) = span.parent.filter(|&p| p != self.root) {
                *times.entry(parent).or_default() -= span.ms();
            }
        }
        times.values_mut().for_each(|ms| *ms = ms.max(0.0));
        times
    }
}
