//! Streaming container readers.
//!
//! [`ChunkReader`] pulls one record at a time out of an app-trace container
//! over any [`std::io::Read`] source, holding at most one chunk in memory —
//! the binary analogue of the text `trace_stream::StreamParser`.  It yields
//! the workspace's one item stream, [`trace_model::AppItem`] through
//! [`trace_model::AppItemSource`], and returns the file's
//! [`TraceHeader`].  A `RECORDS` chunk goes from stored bytes to records in
//! one pass: row payloads (`none`, `lz`) are parsed with the row codec,
//! columnar ones (`delta`, `delta-lz`) are read column by column with
//! [`trace_compress::RecordColumns`], and no row bytes are rebuilt.
//! [`read_reduced_container`] materializes a reduced trace chunk by chunk
//! with the same framing checks (file open, `RANK_BEGIN`/`RANK_END`,
//! `INDEX` plus trailer), and [`decode_app_any`] / [`decode_reduced_any`]
//! fall back to the monolithic v1 codec when the magic bytes say so.

use std::io::Read;

use trace_compress::{Codec, RecordColumns};

use trace_model::codec::varint::read_u64 as varint_read_u64;
use trace_model::codec::{
    decode_app_trace, decode_reduced_trace, read_exec, read_record, read_stored_segment,
    read_string, read_string_table, CodecError, Reader, APP_TRACE_MAGIC, REDUCED_TRACE_MAGIC,
};
use trace_model::{
    AppItem, AppItemSource, AppTrace, ContextTable, Rank, ReducedAppTrace, ReducedRankTrace,
    RegionTable, Time, TraceHeader, TraceRecord,
};

use crate::error::ContainerError;
use crate::layout::{
    read_header, ChunkFrame, ChunkKind, ChunkStream, PayloadKind, CONTAINER_MAGIC,
};

/// Reads a varint rank field, rejecting values outside the 32-bit rank
/// space instead of truncating them.
pub(crate) fn read_rank(
    reader: &mut Reader<'_>,
    what: &'static str,
) -> Result<u32, ContainerError> {
    let value = varint_read_u64(reader)?;
    u32::try_from(value).map_err(|_| ContainerError::RankOutOfRange { what, value })
}

/// Opens a container that must carry a `kind` payload: validates the file
/// header and decodes the PREAMBLE chunk that follows it.
fn open_container<R: Read>(
    reader: R,
    kind: PayloadKind,
) -> Result<(ChunkStream<R>, TraceHeader), ContainerError> {
    let mut stream = ChunkStream::new(reader, 0);
    let found = read_header(&mut stream)?;
    if found != kind {
        let (expected, found) = match kind {
            PayloadKind::App => ("an app payload (kind byte 0)", "a reduced payload"),
            PayloadKind::Reduced => ("a reduced payload (kind byte 1)", "an app payload"),
        };
        return Err(ContainerError::UnexpectedChunk { expected, found });
    }
    let chunk = stream.next_chunk()?;
    if chunk.kind != ChunkKind::Preamble {
        return Err(ContainerError::UnexpectedChunk {
            expected: "PREAMBLE",
            found: chunk.kind.name(),
        });
    }
    let mut reader = Reader::new(&chunk.payload);
    let name = read_string(&mut reader)?;
    let regions = RegionTable::from_names(read_string_table(&mut reader)?);
    let contexts = ContextTable::from_names(read_string_table(&mut reader)?);
    let declared_ranks = read_rank(&mut reader, "declared rank count")? as usize;
    let header = TraceHeader {
        name,
        declared_ranks,
        regions,
        contexts,
    };
    Ok((stream, header))
}

/// The rank a `RANK_BEGIN` payload opens.
fn rank_begin(payload: &[u8]) -> Result<Rank, ContainerError> {
    Ok(Rank(read_rank(
        &mut Reader::new(payload),
        "RANK_BEGIN rank",
    )?))
}

/// What a rank section held, counted as it was read; its `RANK_END` chunk
/// must declare the same.  A reduced section counts its stored segments
/// and executions as `segments` and `events`, their sum as `records`.
#[derive(Clone, Copy, Debug, Default)]
struct SectionCounts {
    records: u64,
    segments: u64,
    events: u64,
}

/// Checks that a `RANK_END` payload closes `rank` with the `found` counts.
fn check_rank_end(payload: &[u8], rank: Rank, found: SectionCounts) -> Result<(), ContainerError> {
    let mut reader = Reader::new(payload);
    let end_rank = Rank(read_rank(&mut reader, "RANK_END rank")?);
    let _chunks = varint_read_u64(&mut reader)?;
    let records = varint_read_u64(&mut reader)?;
    let segments = varint_read_u64(&mut reader)?;
    let events = varint_read_u64(&mut reader)?;
    if end_rank != rank {
        return Err(ContainerError::UnexpectedChunk {
            expected: "RANK_END for the open rank",
            found: "RANK_END for another rank",
        });
    }
    for (what, declared, found) in [
        ("section records", records, found.records),
        ("section segments", segments, found.segments),
        ("section events", events, found.events),
    ] {
        if declared != found {
            return Err(ContainerError::CountMismatch {
                what,
                declared,
                found,
            });
        }
    }
    Ok(())
}

/// Checks the `INDEX` chunk at `offset` against the header's declared rank
/// count and the `ranks_seen` sections read, then the trailer after it.
fn finish_index<R: Read>(
    stream: &mut ChunkStream<R>,
    offset: u64,
    payload: &[u8],
    declared: usize,
    ranks_seen: usize,
) -> Result<(), ContainerError> {
    let sections = crate::index::parse_index_payload(payload)?;
    if ranks_seen != declared || sections.len() != declared {
        return Err(ContainerError::CountMismatch {
            what: "rank sections",
            declared: declared as u64,
            found: ranks_seen as u64,
        });
    }
    stream.finish_trailer(offset)
}

/// Row cursor over an uncompressed (`none`) or LZ-decompressed (`lz`)
/// `RECORDS` payload.
#[derive(Default)]
struct RowCursor {
    payload: Vec<u8>,
    pos: usize,
    remaining: u64,
    prev_time: Time,
}

impl RowCursor {
    fn new(payload: Vec<u8>) -> Result<Self, ContainerError> {
        let mut reader = Reader::new(&payload);
        let remaining = varint_read_u64(&mut reader)?;
        let pos = payload.len() - reader.remaining();
        if remaining == 0 && pos != payload.len() {
            return Err(ContainerError::TrailingBytes {
                what: "the declared records of a RECORDS chunk",
                bytes: payload.len() - pos,
            });
        }
        Ok(RowCursor {
            payload,
            pos,
            remaining,
            prev_time: Time::ZERO,
        })
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, ContainerError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // A broken position invariant degrades to an empty slice, which the
        // record decoder reports as a typed truncation error.
        let slice = self.payload.get(self.pos..).unwrap_or(&[]);
        let mut reader = Reader::new(slice);
        let (record, new_prev) = read_record(&mut reader, self.prev_time)?;
        self.pos += slice.len() - reader.remaining();
        self.prev_time = new_prev;
        self.remaining -= 1;
        if self.remaining == 0 && reader.remaining() != 0 {
            return Err(ContainerError::TrailingBytes {
                what: "the declared records of a RECORDS chunk",
                bytes: reader.remaining(),
            });
        }
        Ok(Some(record))
    }
}

/// The decode state of the current `RECORDS` chunk: row bytes or columns.
enum ChunkRecords {
    Rows(RowCursor),
    Columns(RecordColumns),
}

/// Decode cursor over the current `RECORDS` chunk.  It yields one record
/// per call and keeps two buffers across chunks: `stored`, which the next
/// chunk's stored bytes are read into, and the buffer the current chunk
/// decodes from (the stored bytes themselves, or their LZ output).
struct ChunkCursor {
    stored: Vec<u8>,
    records: ChunkRecords,
}

impl Default for ChunkCursor {
    fn default() -> Self {
        ChunkCursor {
            stored: Vec::new(),
            records: ChunkRecords::Rows(RowCursor::default()),
        }
    }
}

impl ChunkCursor {
    /// Starts decoding the `RECORDS` chunk whose stored bytes, stored under
    /// `codec`, were just read into `self.stored`.
    fn load<R: Read>(
        &mut self,
        codec: Codec,
        stream: &mut ChunkStream<R>,
    ) -> Result<(), ContainerError> {
        let previous =
            std::mem::replace(&mut self.records, ChunkRecords::Rows(RowCursor::default()));
        let mut payload = match previous {
            ChunkRecords::Rows(rows) => rows.payload,
            ChunkRecords::Columns(columns) => columns.into_payload(),
        };
        match codec {
            Codec::None | Codec::Delta => std::mem::swap(&mut payload, &mut self.stored),
            Codec::Lz | Codec::DeltaLz => stream.lz_inflate(&self.stored, &mut payload)?,
        }
        self.records = match codec {
            Codec::None | Codec::Lz => ChunkRecords::Rows(RowCursor::new(payload)?),
            Codec::Delta | Codec::DeltaLz => ChunkRecords::Columns(RecordColumns::new(payload)?),
        };
        Ok(())
    }

    /// Decodes the next record of the current chunk, or `Ok(None)` once
    /// its declared count is exhausted.
    fn next_record(&mut self) -> Result<Option<TraceRecord>, ContainerError> {
        match &mut self.records {
            ChunkRecords::Rows(rows) => rows.next_record(),
            ChunkRecords::Columns(columns) => Ok(columns.next_record()?),
        }
    }
}

enum ReaderState {
    /// Between rank sections.
    Idle,
    /// Inside a rank section, decoding `RECORDS` chunks.
    InSection(Rank, SectionCounts),
    /// The index (or the single section) has been consumed.
    Done,
}

/// Pull reader for app-trace containers over any [`std::io::Read`] source.
///
/// [`ChunkReader::new`] reads the header and preamble and then iterates the
/// whole file; [`ChunkReader::section`] starts directly at a `RANK_BEGIN`
/// chunk (located via the index footer) and yields exactly that section —
/// the entry point the index-sharded parallel ingestion uses.  Either way
/// it is an [`AppItemSource`] with [`ContainerError`] as its error.
pub struct ChunkReader<R> {
    stream: ChunkStream<R>,
    /// The decoded PREAMBLE; empty for a section reader.
    header: TraceHeader,
    state: ReaderState,
    cursor: ChunkCursor,
    ranks_seen: usize,
    single_section: bool,
}

impl<R: Read> ChunkReader<R> {
    /// Opens a whole container: validates the header, requires an app
    /// payload, and decodes the preamble chunk.
    pub fn new(reader: R) -> Result<Self, ContainerError> {
        let (stream, header) = open_container(reader, PayloadKind::App)?;
        Ok(ChunkReader {
            stream,
            header,
            state: ReaderState::Idle,
            cursor: ChunkCursor::default(),
            ranks_seen: 0,
            single_section: false,
        })
    }

    /// Resumes reading at one rank section.  `reader` must be positioned at
    /// the section's `RANK_BEGIN` chunk (byte `offset` of the file, from
    /// the index footer).  The iteration ends after that section's
    /// `RANK_END`; no preamble is available in this mode.
    pub fn section(reader: R, offset: u64) -> Self {
        ChunkReader {
            stream: ChunkStream::new(reader, offset),
            header: TraceHeader::default(),
            state: ReaderState::Idle,
            cursor: ChunkCursor::default(),
            ranks_seen: 0,
            single_section: true,
        }
    }

    /// The header decoded from the preamble ([`ChunkReader::new`] mode
    /// only).
    pub fn preamble(&self) -> Option<&TraceHeader> {
        (!self.single_section).then_some(&self.header)
    }

    /// The header decoded from the preamble; empty for a
    /// [`ChunkReader::section`] reader, which never reads that chunk.
    pub fn into_header(self) -> TraceHeader {
        self.header
    }

    /// Number of complete rank sections consumed so far.
    pub fn ranks_seen(&self) -> usize {
        self.ranks_seen
    }

    /// Largest single chunk buffer held so far, in bytes — the reader's
    /// resident-memory high-water mark (excluding constant-size state).
    /// It counts stored payloads and LZ output (row bytes for `lz`, column
    /// bytes for `delta-lz`); `delta` and `delta-lz` chunks are decoded
    /// column by column, so no row payload is built for them.
    pub fn peak_chunk_bytes(&self) -> usize {
        self.stream.peak_payload_bytes()
    }

    /// Attaches an observability shard to the underlying chunk stream (see
    /// [`ChunkStream::set_obs`]).
    pub fn set_obs(&mut self, obs: trace_obs::ObsShard) {
        self.stream.set_obs(obs);
    }

    /// The payload of a non-`RECORDS` chunk whose stored bytes were just
    /// read into the cursor's buffer, decompressed.
    fn control_payload(&mut self, frame: ChunkFrame) -> Result<Vec<u8>, ContainerError> {
        if frame.codec == Codec::None {
            Ok(self.cursor.stored.clone())
        } else {
            self.stream.decompress(frame, &self.cursor.stored)
        }
    }

    /// Pulls the next item, or `Ok(None)` once the index footer (or, in
    /// section mode, the section's `RANK_END`) has been consumed.
    pub fn next_item(&mut self) -> Result<Option<AppItem>, ContainerError> {
        loop {
            match &mut self.state {
                ReaderState::Done => return Ok(None),
                ReaderState::InSection(rank, counts) => {
                    if let Some(record) = self.cursor.next_record()? {
                        counts.records += 1;
                        match &record {
                            TraceRecord::Event(_) => counts.events += 1,
                            TraceRecord::SegmentEnd { .. } => counts.segments += 1,
                            TraceRecord::SegmentBegin { .. } => {}
                        }
                        return Ok(Some(AppItem::Record(record)));
                    }
                    let (rank, counts) = (*rank, *counts);
                    let frame = self.stream.read_stored(&mut self.cursor.stored)?;
                    if frame.kind == ChunkKind::Records {
                        self.cursor.load(frame.codec, &mut self.stream)?;
                        continue;
                    }
                    if frame.kind != ChunkKind::RankEnd {
                        return Err(ContainerError::UnexpectedChunk {
                            expected: "RECORDS or RANK_END",
                            found: frame.kind.name(),
                        });
                    }
                    check_rank_end(&self.control_payload(frame)?, rank, counts)?;
                    self.ranks_seen += 1;
                    self.state = if self.single_section {
                        ReaderState::Done
                    } else {
                        ReaderState::Idle
                    };
                    return Ok(Some(AppItem::RankEnd(rank)));
                }
                ReaderState::Idle => {
                    let frame = self.stream.read_stored(&mut self.cursor.stored)?;
                    let payload = self.control_payload(frame)?;
                    match frame.kind {
                        ChunkKind::RankBegin => {
                            let rank = rank_begin(&payload)?;
                            self.state = ReaderState::InSection(rank, SectionCounts::default());
                            return Ok(Some(AppItem::RankStart(rank)));
                        }
                        ChunkKind::Index => {
                            finish_index(
                                &mut self.stream,
                                frame.offset,
                                &payload,
                                self.header.declared_ranks,
                                self.ranks_seen,
                            )?;
                            self.state = ReaderState::Done;
                            return Ok(None);
                        }
                        other => {
                            return Err(ContainerError::UnexpectedChunk {
                                expected: "RANK_BEGIN or INDEX",
                                found: other.name(),
                            })
                        }
                    }
                }
            }
        }
    }
}

impl<R: Read> AppItemSource for ChunkReader<R> {
    type Error = ContainerError;

    fn next_item(&mut self) -> Result<Option<AppItem>, ContainerError> {
        ChunkReader::next_item(self)
    }

    fn peak_chunk_bytes(&self) -> usize {
        ChunkReader::peak_chunk_bytes(self)
    }
}

/// Materializes a full [`AppTrace`] from an app-trace container.
pub fn read_app_container<R: Read>(reader: R) -> Result<AppTrace, ContainerError> {
    let mut chunks = ChunkReader::new(reader)?;
    let ranks = chunks.collect_ranks()?;
    Ok(chunks.header.app(ranks))
}

/// Materializes a [`ReducedAppTrace`] from a reduced-trace container,
/// decoding one chunk at a time.  Stored ids must be dense and every
/// execution must reference a stored segment
/// ([`ReducedRankTrace::push_stored`] / [`ReducedRankTrace::check_exec`],
/// checked when the section ends).
pub fn read_reduced_container<R: Read>(reader: R) -> Result<ReducedAppTrace, ContainerError> {
    let (mut stream, header) = open_container(reader, PayloadKind::Reduced)?;
    let mut ranks = Vec::new();
    let mut open: Option<ReducedRankTrace> = None;
    // Latches at the section's first EXECS chunk: the format requires all
    // STORED chunks to precede all EXECS chunks (spec invariant 3), the
    // only order the writer produces.
    let mut exec_phase = false;
    loop {
        let chunk = stream.next_chunk()?;
        match (chunk.kind, open.as_mut()) {
            (ChunkKind::RankBegin, None) => {
                open = Some(ReducedRankTrace::new(rank_begin(&chunk.payload)?));
                exec_phase = false;
            }
            (ChunkKind::Stored, Some(rank)) => {
                if exec_phase {
                    return Err(ContainerError::UnexpectedChunk {
                        expected: "EXECS or RANK_END (stored segments precede executions)",
                        found: "STORED",
                    });
                }
                let mut reader = Reader::new(&chunk.payload);
                let count = varint_read_u64(&mut reader)?;
                for _ in 0..count {
                    rank.push_stored(read_stored_segment(&mut reader)?)
                        .map_err(CodecError::from)?;
                }
                if !reader.is_at_end() {
                    return Err(ContainerError::TrailingBytes {
                        what: "the declared segments of a STORED chunk",
                        bytes: reader.remaining(),
                    });
                }
            }
            (ChunkKind::Execs, Some(rank)) => {
                exec_phase = true;
                let mut reader = Reader::new(&chunk.payload);
                let count = varint_read_u64(&mut reader)?;
                let mut prev_start = Time::ZERO;
                for _ in 0..count {
                    let (exec, new_prev) = read_exec(&mut reader, prev_start)?;
                    prev_start = new_prev;
                    rank.execs.push(exec);
                }
                if !reader.is_at_end() {
                    return Err(ContainerError::TrailingBytes {
                        what: "the declared executions of an EXECS chunk",
                        bytes: reader.remaining(),
                    });
                }
            }
            (ChunkKind::RankEnd, Some(rank)) => {
                for exec in &rank.execs {
                    rank.check_exec(exec).map_err(CodecError::from)?;
                }
                let counts = SectionCounts {
                    records: (rank.stored.len() + rank.execs.len()) as u64,
                    segments: rank.stored.len() as u64,
                    events: rank.execs.len() as u64,
                };
                check_rank_end(&chunk.payload, rank.rank, counts)?;
                ranks.extend(open.take());
            }
            (ChunkKind::Index, None) => {
                finish_index(
                    &mut stream,
                    chunk.offset,
                    &chunk.payload,
                    header.declared_ranks,
                    ranks.len(),
                )?;
                return Ok(header.reduced(ranks));
            }
            (other, Some(_)) => {
                return Err(ContainerError::UnexpectedChunk {
                    expected: "STORED, EXECS or RANK_END",
                    found: other.name(),
                })
            }
            (other, None) => {
                return Err(ContainerError::UnexpectedChunk {
                    expected: "RANK_BEGIN or INDEX",
                    found: other.name(),
                })
            }
        }
    }
}

/// Decodes a full app trace from either format: chunked v2 containers
/// (magic `TRC2`) or monolithic v1 files (magic `TRCF`) via the fallback
/// decoder.
pub fn decode_app_any(bytes: &[u8]) -> Result<AppTrace, ContainerError> {
    match bytes.first_chunk::<4>() {
        Some(&magic) if magic == CONTAINER_MAGIC => read_app_container(bytes),
        Some(&magic) if magic == APP_TRACE_MAGIC => Ok(decode_app_trace(bytes)?),
        Some(&magic) => Err(ContainerError::BadMagic { found: magic }),
        None => Err(ContainerError::Truncated {
            what: "file header",
        }),
    }
}

/// Decodes a reduced trace from either format: chunked v2 containers or
/// monolithic v1 files via the fallback decoder.
pub fn decode_reduced_any(bytes: &[u8]) -> Result<ReducedAppTrace, ContainerError> {
    match bytes.first_chunk::<4>() {
        Some(&magic) if magic == CONTAINER_MAGIC => read_reduced_container(bytes),
        Some(&magic) if magic == REDUCED_TRACE_MAGIC => Ok(decode_reduced_trace(bytes)?),
        Some(&magic) => Err(ContainerError::BadMagic { found: magic }),
        None => Err(ContainerError::Truncated {
            what: "file header",
        }),
    }
}
