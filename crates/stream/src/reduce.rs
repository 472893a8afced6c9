//! The reduction entry point: any trace input → one reduced trace.
//!
//! [`reduce_input`] runs the driver's one record → segment → match loop
//! ([`trace_reduce::SectionReducer`]) over the partitions that suit the
//! input:
//!
//! * an in-memory [`AppTrace`] (and a decoded monolithic v1 file) — one
//!   partition per rank;
//! * a chunked v2 container read by more than one worker — one partition
//!   per section of its index footer, each worker seeking straight to the
//!   sections it claims;
//! * anything else (text, or a container read by one worker) — the whole
//!   stream in one pass, which also validates a container's trailing
//!   `INDEX` chunk.
//!
//! Streamed inputs keep bounded memory: the resident segment state is the
//! stored representatives plus at most one in-flight segment, never the
//! full event stream ([`StreamStats::peak_resident_segments`] instruments
//! exactly that).  Partitions are merged in order, so the output is
//! identical to [`trace_reduce::Reducer::reduce_app`] for every input
//! format and worker count.

use std::convert::Infallible;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Cursor, Seek, SeekFrom};
use std::path::Path;

use trace_container::{read_index, ChunkReader, ContainerError, PayloadKind};
use trace_model::{AppItemSource, AppTrace, RankItems, ReducedAppTrace, ReducedRankTrace};
use trace_reduce::{reduce_sections, Reducer, SectionReducer};

use crate::binary::{detect_input, TraceInputKind};
use crate::error::StreamError;
use crate::parser::StreamParser;
use trace_reduce::StreamStats;

/// The outcome of a reduction: the reduced trace, the instrumentation
/// counters and the number of workers that ran.
#[derive(Clone, Debug)]
pub struct StreamReduction {
    /// The reduced application trace (identical to the in-memory path).
    pub reduced: ReducedAppTrace,
    /// Instrumentation counters.
    pub stats: StreamStats,
    /// Workers actually used: the requested count capped at the
    /// partitions the input has (1 for a whole-stream read).
    pub workers: usize,
}

/// A trace to reduce.
#[derive(Clone, Copy, Debug)]
pub enum TraceInput<'a> {
    /// An in-memory application trace.
    App(&'a AppTrace),
    /// An encoded trace — text, monolithic v1 or container v2, detected by
    /// its magic bytes.
    Bytes(&'a [u8]),
    /// A trace file — text, monolithic v1 or container v2, detected by its
    /// magic bytes.
    File(&'a Path),
}

/// Reduces `input` with `reducer` on up to `workers` threads (0 and 1 both
/// mean the calling thread) and drains the final [`StreamStats`] into
/// `recorder`.  Each rank records a [`trace_obs::Stage::Rank`] span; with a
/// disabled recorder the output is bit-identical.
pub fn reduce_input(
    reducer: &Reducer,
    input: TraceInput<'_>,
    workers: usize,
    recorder: &trace_obs::Recorder,
) -> Result<StreamReduction, StreamError> {
    let reduction = match input {
        TraceInput::App(app) => reduce_app(reducer, app, workers, recorder),
        TraceInput::Bytes(bytes) => match TraceInputKind::detect(bytes) {
            TraceInputKind::Text => reduce_text(reducer, bytes, recorder)?,
            TraceInputKind::BinaryV1 => reduce_v1(reducer, bytes, workers, recorder)?,
            TraceInputKind::ContainerV2 => {
                reduce_container(reducer, || Ok(Cursor::new(bytes)), workers, recorder)?
            }
        },
        TraceInput::File(path) => match detect_input(path)? {
            TraceInputKind::Text => {
                reduce_text(reducer, BufReader::new(File::open(path)?), recorder)?
            }
            TraceInputKind::BinaryV1 => {
                reduce_v1(reducer, &std::fs::read(path)?, workers, recorder)?
            }
            TraceInputKind::ContainerV2 => reduce_container(
                reducer,
                || Ok(BufReader::new(File::open(path)?)),
                workers,
                recorder,
            )?,
        },
    };
    let mut obs = recorder.shard();
    reduction.stats.record_into(&mut obs);
    obs.finish();
    Ok(reduction)
}

/// The workers [`reduce_sections`] runs for `sections` partitions.
fn workers_for(workers: usize, sections: usize) -> usize {
    workers.clamp(1, sections.max(1))
}

/// One partition per rank.
fn reduce_app(
    reducer: &Reducer,
    app: &AppTrace,
    workers: usize,
    recorder: &trace_obs::Recorder,
) -> StreamReduction {
    let sections = app.rank_count();
    let open =
        |i: usize| Ok::<_, Infallible>(RankItems::new(app.ranks.get(i..=i).unwrap_or_default()));
    let (ranks, stats) = match reduce_sections(*reducer, sections, workers, recorder, open) {
        Ok(out) => out,
        Err(never) => match never {},
    };
    let mut reduced = ReducedAppTrace::for_app(app);
    reduced.ranks = ranks;
    StreamReduction {
        reduced,
        stats,
        workers: workers_for(workers, sections),
    }
}

/// A monolithic v1 file has no streamable structure: it is decoded whole,
/// then reduced like an in-memory trace.
fn reduce_v1(
    reducer: &Reducer,
    bytes: &[u8],
    workers: usize,
    recorder: &trace_obs::Recorder,
) -> Result<StreamReduction, StreamError> {
    let mut obs = recorder.shard();
    let span = obs.start();
    let app = trace_model::codec::decode_app_trace(bytes).map_err(ContainerError::Codec)?;
    obs.end(trace_obs::Stage::Parse, span);
    obs.finish();
    let mut reduction = reduce_app(reducer, &app, workers, recorder);
    // The whole file was resident.
    reduction.stats.peak_chunk_bytes = bytes.len();
    Ok(reduction)
}

/// The whole text stream in one pass.
fn reduce_text<R: BufRead>(
    reducer: &Reducer,
    reader: R,
    recorder: &trace_obs::Recorder,
) -> Result<StreamReduction, StreamError> {
    let mut parser = StreamParser::new(reader)?;
    let (ranks, stats) = reduce_whole(reducer, &mut parser, recorder)?;
    Ok(StreamReduction {
        reduced: parser.finish()?.reduced(ranks),
        stats,
        workers: 1,
    })
}

/// One worker over the whole container, or several over its index
/// sections.  `open` yields a fresh reader positioned at the file start.
fn reduce_container<R: BufRead + Seek>(
    reducer: &Reducer,
    open: impl Fn() -> io::Result<R> + Sync,
    workers: usize,
    recorder: &trace_obs::Recorder,
) -> Result<StreamReduction, StreamError> {
    let mut reader = open()?;
    if workers <= 1 {
        let mut source = ChunkReader::new(reader)?;
        source.set_obs(recorder.shard());
        let (ranks, stats) = reduce_whole(reducer, &mut source, recorder)?;
        return Ok(StreamReduction {
            reduced: source.into_header().reduced(ranks),
            stats,
            workers: 1,
        });
    }

    let index = read_index(&mut reader)?;
    if index.kind == PayloadKind::Reduced {
        return Err(StreamError::Container(ContainerError::UnexpectedChunk {
            expected: "an app-trace container",
            found: "a reduced-trace container",
        }));
    }
    reader.seek(SeekFrom::Start(0))?;
    let header = ChunkReader::new(reader)?.into_header();
    // The whole-stream read validates this when it reaches the INDEX
    // chunk; section reads never scan that far, so a short index must be
    // rejected here or ranks would silently drop from the output.
    let sections = index.sections;
    if sections.len() != header.declared_ranks {
        return Err(StreamError::Container(ContainerError::CountMismatch {
            what: "rank sections",
            declared: header.declared_ranks as u64,
            found: sections.len() as u64,
        }));
    }
    let open_section = |i: usize| {
        let offset = sections
            .get(i)
            .map(|entry| entry.offset)
            .ok_or_else(|| io::Error::other("partition outside the container index"))?;
        let mut reader = open()?;
        reader.seek(SeekFrom::Start(offset))?;
        let mut source = ChunkReader::section(reader, offset);
        source.set_obs(recorder.shard());
        Ok::<_, StreamError>(source)
    };
    let (ranks, stats) =
        reduce_sections(*reducer, sections.len(), workers, recorder, open_section)?;
    Ok(StreamReduction {
        reduced: header.reduced(ranks),
        stats,
        workers: workers_for(workers, sections.len()),
    })
}

/// Runs one worker's loop over a whole stream on the calling thread.
fn reduce_whole<S: AppItemSource>(
    reducer: &Reducer,
    source: &mut S,
    recorder: &trace_obs::Recorder,
) -> Result<(Vec<ReducedRankTrace>, StreamStats), StreamError>
where
    StreamError: From<S::Error>,
{
    let mut worker = SectionReducer::new(*reducer, recorder.shard());
    let ranks = worker.reduce(source)?;
    let ranks = ranks.into_iter().map(|rank| rank.reduced).collect();
    Ok((ranks, worker.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_container::{encode_app_container, ChunkSpec};
    use trace_format::write_app_trace;
    use trace_reduce::{Method, MethodConfig};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    fn reduce_bytes(config: MethodConfig, bytes: &[u8]) -> StreamReduction {
        let disabled = trace_obs::Recorder::disabled();
        reduce_input(
            &Reducer::new(config),
            TraceInput::Bytes(bytes),
            1,
            &disabled,
        )
        .unwrap()
    }

    #[test]
    fn streamed_reduction_equals_in_memory_reduction_for_every_method() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        for method in Method::ALL {
            let config = MethodConfig::with_default_threshold(method);
            let in_memory = Reducer::new(config).reduce_app(&app);
            let streamed = reduce_bytes(config, text.as_bytes());
            assert_eq!(streamed.reduced, in_memory, "{method}");
            assert_eq!(streamed.stats.execs, in_memory.total_execs(), "{method}");
            assert_eq!(streamed.stats.stored, in_memory.total_stored(), "{method}");
        }
    }

    #[test]
    fn stats_count_ranks_events_and_segments() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let config = MethodConfig::with_default_threshold(Method::RelDiff);
        let streamed = reduce_bytes(config, text.as_bytes());
        assert_eq!(streamed.stats.ranks, app.rank_count());
        assert_eq!(streamed.stats.events, app.total_events());
        let segment_instances: usize = app
            .ranks
            .iter()
            .map(|r| r.segment_instance_count())
            .sum::<usize>();
        assert_eq!(streamed.stats.segments, segment_instances);
        assert_eq!(streamed.stats.orphan_events, 0);
        assert_eq!(streamed.stats.unterminated_segments, 0);
    }

    #[test]
    fn resident_state_is_bounded_by_stored_plus_inflight() {
        // 200 identical iterations on one rank: one representative total,
        // so the peak resident count must stay at 2 (the representative
        // plus the in-flight segment) even though 200 segments stream by.
        let mut text = String::from("TRACEFORMAT 1\nTRACE RANKS 1 NAME loop\n");
        text.push_str("REGION 0 work\nCONTEXT 0 main.1\nRANK 0\n");
        let mut now = 0u64;
        for _ in 0..200 {
            text.push_str(&format!("SEG_BEGIN 0 {now}\n"));
            text.push_str(&format!("EVENT 0 {} {} 0 COMPUTE\n", now + 10, now + 90));
            text.push_str(&format!("SEG_END 0 {}\n", now + 100));
            now += 100;
        }
        text.push_str("END_RANK\nEND_TRACE\n");

        let config = MethodConfig::with_default_threshold(Method::RelDiff);
        let streamed = reduce_bytes(config, text.as_bytes());
        assert_eq!(streamed.stats.segments, 200);
        assert_eq!(streamed.stats.stored, 1);
        assert_eq!(streamed.stats.peak_resident_segments, 2);
    }

    #[test]
    fn file_driver_round_trips_through_a_real_file() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let mut path = std::env::temp_dir();
        path.push(format!("trace_stream_file_{}.txt", std::process::id()));
        std::fs::write(&path, write_app_trace(&app)).unwrap();

        let config = MethodConfig::with_default_threshold(Method::Euclidean);
        let expected = Reducer::new(config).reduce_app(&app);
        let disabled = trace_obs::Recorder::disabled();
        for workers in [1, 4] {
            let input = TraceInput::File(&path);
            let result = reduce_input(&Reducer::new(config), input, workers, &disabled).unwrap();
            assert_eq!(result.reduced, expected, "{workers} workers");
            // Text has one partition: the whole stream.
            assert_eq!(result.workers, 1);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn text_ids_above_32_bits_are_errors_not_truncated() {
        let text = "TRACEFORMAT 1\nTRACE RANKS 1 NAME wide\nREGION 0 work\n\
                    CONTEXT 0 main.1\nRANK 4294967297\nEND_RANK\nEND_TRACE\n";
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let disabled = trace_obs::Recorder::disabled();
        let input = TraceInput::Bytes(text.as_bytes());
        let err = reduce_input(&reducer, input, 1, &disabled).unwrap_err();
        let err = err.as_format().expect("a text error");
        assert_eq!(err.line, 5);
        assert!(err.message.contains("rank id 4294967297"), "{err}");

        let wide_region = text.replace(
            "RANK 4294967297\n",
            "RANK 0\nEVENT 4294967296 0 10 0 COMPUTE\n",
        );
        let input = TraceInput::Bytes(wide_region.as_bytes());
        let err = reduce_input(&reducer, input, 1, &disabled).unwrap_err();
        let err = err.as_format().expect("a text error");
        assert_eq!(err.line, 6);
        assert!(err.message.contains("region id 4294967296"), "{err}");
    }

    #[test]
    fn worker_errors_are_reported() {
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let disabled = trace_obs::Recorder::disabled();
        let err = reduce_input(&reducer, TraceInput::Bytes(b"BOGUS\n"), 3, &disabled).unwrap_err();
        assert!(err.as_format().is_some(), "{err}");

        // A corrupt section fails the worker that claims it, and the error
        // reaches the caller instead of a silently shorter output.
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let mut bytes = encode_app_container(&app, ChunkSpec::with_segments(4));
        let index = read_index(&mut Cursor::new(&bytes)).unwrap();
        let offset = index.sections[1].offset as usize;
        bytes[offset + 12] ^= 0xff;
        let err = reduce_input(&reducer, TraceInput::Bytes(&bytes), 3, &disabled).unwrap_err();
        assert!(err.as_container().is_some(), "{err}");
    }
}
