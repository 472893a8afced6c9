//! Trace-aware columnar transform for chunk payloads.
//!
//! A container chunk payload is row-oriented: records (or stored segments,
//! or executions) one after another, each interleaving a tag byte, ids,
//! time stamps and communication parameters.  That interleaving is what
//! keeps a generic byte compressor from seeing the structure — consecutive
//! *records* are near-identical in iterative traces, but consecutive
//! *bytes* are not.
//!
//! The transform splits the payload into per-field streams and delta-codes
//! the ones that are monotone or slowly varying (time stamps, region and
//! context ids, segment ids, message sizes), zig-zag + varint encoded so
//! small deltas stay at one byte:
//!
//! ```text
//! columnar := item_count varint | stream*          (fixed set per payload class)
//! stream   := byte_len varint | bytes
//! ```
//!
//! Columns alone are roughly size-neutral (a transposition plus per-stream
//! headers; repetitive fields collapse to runs of one-byte zero deltas,
//! noisy ones — durations and waits — are deliberately left as raw
//! varints).  Their value is what the LZ backend sees afterwards: in
//! `delta-lz`, the homogeneous streams turn repeating trace structure into
//! byte runs the match finder can fold away, measurably beating LZ over
//! raw rows (EXPERIMENTS.md Table 5).
//!
//! Reading a `RECORDS` payload does not rebuild rows: [`RecordColumns`]
//! owns the columnar bytes and yields one [`TraceRecord`] per call straight
//! from the streams, which is how the container reader ingests `delta` and
//! `delta-lz` chunks.  [`column_decode`] still inverts the transform to row
//! bytes (for `decompress` callers) by writing each record the cursor yields
//! back with the row codec; the row codec's varints are canonical, so
//! decode → re-encode is the identity on every payload the container writer
//! produces.
//!
//! Numeric streams use *wrapping* deltas (`value - last` in two's
//! complement), which is bijective on `u64` and therefore total: no input
//! value can overflow the transform.  Time streams reuse the row codec's
//! exact svarint delta rule (including the per-chunk and per-segment clock
//! restarts) so the reconstructed deltas match the originals bit for bit.

use trace_model::codec::varint::{read_u64, write_i64, write_u64, zigzag_decode};
use trace_model::codec::{
    narrow_u32, read_exec, read_record, read_stored_segment, write_exec, write_record,
    write_stored_segment, CodecError, Reader,
};
use trace_model::{
    CollectiveOp, CommInfo, ContextId, Event, Rank, RegionId, Segment, SegmentExec, StoredSegment,
    Time, TraceRecord,
};

use crate::error::CompressError;

/// Which column schema a chunk payload uses.
///
/// The class follows the chunk kind: `RECORDS` chunks hold trace records,
/// `STORED` chunks hold representative segments, `EXECS` chunks hold
/// segment executions.  Control chunks (preamble, section markers, index)
/// are [`PayloadClass::Opaque`]: the columnar transform passes them through
/// unchanged (the LZ backend still applies to them when asked).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadClass {
    /// Raw trace records (app containers).
    Records,
    /// Stored representative segments (reduced containers).
    Stored,
    /// Segment executions (reduced containers).
    Execs,
    /// No trace structure; the columnar transform is the identity.
    Opaque,
}

/// Column tag bytes.  These are internal to the columnar format (the row
/// codec's tags are reconstructed by re-encoding, not copied), though they
/// use the same values as the row codec for easy cross-reading of dumps.
mod tag {
    pub const SEGMENT_BEGIN: u8 = 0;
    pub const SEGMENT_END: u8 = 1;
    pub const EVENT: u8 = 2;

    pub const COMM_COMPUTE: u8 = 0;
    pub const COMM_SEND: u8 = 1;
    pub const COMM_RECV: u8 = 2;
    pub const COMM_SENDRECV: u8 = 3;
    pub const COMM_COLLECTIVE: u8 = 4;
}

fn collective_op_tag(op: CollectiveOp) -> u8 {
    // Exhaustive match instead of a position() lookup so adding a variant is
    // a compile error here rather than a panic path.
    match op {
        CollectiveOp::Barrier => 0,
        CollectiveOp::Bcast => 1,
        CollectiveOp::Scatter => 2,
        CollectiveOp::Gather => 3,
        CollectiveOp::Reduce => 4,
        CollectiveOp::Allgather => 5,
        CollectiveOp::Allreduce => 6,
        CollectiveOp::Alltoall => 7,
    }
}

fn collective_op_from_tag(byte: u8) -> Result<CollectiveOp, CompressError> {
    CollectiveOp::ALL
        .get(byte as usize)
        .copied()
        .ok_or(CompressError::Codec(CodecError::BadTag {
            what: "columnar collective op",
            tag: byte,
        }))
}

/// Write half of a wrapping-delta + zig-zag varint stream.
#[derive(Default)]
struct DeltaWriter {
    buf: Vec<u8>,
    last: u64,
}

impl DeltaWriter {
    fn push(&mut self, value: u64) {
        write_i64(&mut self.buf, value.wrapping_sub(self.last) as i64);
        self.last = value;
    }
}

/// One stream of a columnar payload: the unread byte range `pos..end` of
/// the buffer the payload lives in.  Streams hold offsets, not borrowed
/// slices, so a [`RecordColumns`] cursor can own its payload.
///
/// The stream readers are `#[inline(always)]`: each record runs up to ten
/// of them, and as plain calls they made column decode about 1.4× slower.
#[derive(Clone, Copy, Debug)]
struct Stream {
    pos: usize,
    end: usize,
}

impl Stream {
    /// Reads one unsigned varint off the unread bytes of `buf`.  One-byte
    /// values — the zero and small deltas most columns are made of — skip
    /// the general decoder, which handles every longer (or truncated)
    /// varint exactly as the row codec does.
    #[inline(always)]
    fn varint(&mut self, buf: &[u8]) -> Result<u64, CompressError> {
        if let Some(&byte) = buf.get(self.pos).filter(|_| self.pos < self.end) {
            if byte < 0x80 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        // A range outside `buf` degrades to an empty stream, which the row
        // codec reports as a typed truncation.
        let mut reader = Reader::new(buf.get(self.pos..self.end).unwrap_or(&[]));
        let value = read_u64(&mut reader)?;
        self.pos = self.end - reader.remaining();
        Ok(value)
    }

    /// Reads one zig-zag signed varint.
    #[inline(always)]
    fn svarint(&mut self, buf: &[u8]) -> Result<i64, CompressError> {
        Ok(zigzag_decode(self.varint(buf)?))
    }

    /// Reads one byte off a raw byte stream (a tags column).
    #[inline(always)]
    fn byte(&mut self, buf: &[u8], what: &'static str) -> Result<u8, CompressError> {
        let byte = buf
            .get(self.pos)
            .filter(|_| self.pos < self.end)
            .copied()
            .ok_or(CompressError::Truncated { what })?;
        self.pos += 1;
        Ok(byte)
    }

    /// Requires the stream to be fully consumed once all items are read.
    fn finish(&self, what: &'static str) -> Result<(), CompressError> {
        if self.pos < self.end {
            return Err(CompressError::TrailingBytes {
                what,
                bytes: self.end - self.pos,
            });
        }
        Ok(())
    }
}

/// Read half of a wrapping-delta stream.
struct DeltaReader {
    stream: Stream,
    last: u64,
}

impl DeltaReader {
    fn new(stream: Stream) -> Self {
        DeltaReader { stream, last: 0 }
    }

    #[inline(always)]
    fn next(&mut self, buf: &[u8]) -> Result<u64, CompressError> {
        let delta = self.stream.svarint(buf)?;
        self.last = self.last.wrapping_add(delta as u64);
        Ok(self.last)
    }

    /// [`DeltaReader::next`] for a 32-bit `field`: a value that does not
    /// fit is a typed error, not a truncation.
    #[inline(always)]
    fn next_u32(&mut self, buf: &[u8], field: &'static str) -> Result<u32, CompressError> {
        Ok(narrow_u32(self.next(buf)?, field)?)
    }
}

/// Write half of a time stream: the row codec's exact svarint delta rule.
/// (A second-order difference was tried here and measured *worse*: the
/// workloads' inter-record gaps carry simulated timing noise, and
/// differencing noise doubles its variance instead of cancelling it.)
#[derive(Default)]
struct TimeWriter {
    buf: Vec<u8>,
    prev: Time,
}

impl TimeWriter {
    fn push(&mut self, time: Time) {
        write_i64(
            &mut self.buf,
            time.as_nanos() as i64 - self.prev.as_nanos() as i64,
        );
        self.prev = time;
    }

    /// Restarts the delta clock (the events of a stored segment restart it
    /// per segment, exactly as in the row codec).
    fn restart(&mut self) {
        self.prev = Time::ZERO;
    }
}

/// Read half of a time stream, with the row codec's negative-time check.
struct TimeReader {
    stream: Stream,
    prev: Time,
}

impl TimeReader {
    fn new(stream: Stream) -> Self {
        TimeReader {
            stream,
            prev: Time::ZERO,
        }
    }

    #[inline(always)]
    fn next(&mut self, buf: &[u8]) -> Result<Time, CompressError> {
        let delta = self.stream.svarint(buf)?;
        // checked_add, not +: a crafted stream can pair deltas that
        // overflow i64, and totality on untrusted input is part of this
        // crate's contract (debug builds would otherwise panic).
        let nanos = (self.prev.as_nanos() as i64).checked_add(delta);
        match nanos {
            Some(nanos) if nanos >= 0 => {
                self.prev = Time::from_nanos(nanos as u64);
                Ok(self.prev)
            }
            _ => Err(CompressError::Codec(CodecError::NegativeTime)),
        }
    }

    fn restart(&mut self) {
        self.prev = Time::ZERO;
    }
}

/// Serializes `count` plus the given streams in order.
fn write_streams(count: u64, streams: &[&[u8]]) -> Vec<u8> {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(total + streams.len() * 3 + 4);
    write_u64(&mut out, count);
    for stream in streams {
        write_u64(&mut out, stream.len() as u64);
        out.extend_from_slice(stream);
    }
    out
}

/// Reads `N` length-prefixed streams, requiring them to exhaust the input.
/// The streams are returned as byte ranges of `payload`.
fn read_streams<const N: usize>(payload: &[u8]) -> Result<(u64, [Stream; N]), CompressError> {
    let mut reader = Reader::new(payload);
    let count = read_u64(&mut reader)?;
    let mut streams = [Stream { pos: 0, end: 0 }; N];
    for stream in streams.iter_mut() {
        let len = read_u64(&mut reader)?;
        if len > reader.remaining() as u64 {
            return Err(CompressError::LengthOverflow {
                what: "columnar stream",
                declared: len,
                limit: reader.remaining() as u64,
            });
        }
        let pos = payload.len() - reader.remaining();
        reader
            .read_bytes(len as usize)
            .map_err(|_| CompressError::Truncated {
                what: "columnar stream",
            })?;
        *stream = Stream {
            pos,
            end: pos + len as usize,
        };
    }
    if !reader.is_at_end() {
        return Err(CompressError::TrailingBytes {
            what: "the declared columnar streams",
            bytes: reader.remaining(),
        });
    }
    Ok((count, streams))
}

/// Requires a row reader to be fully consumed once all items are read.
fn require_at_end(reader: &Reader<'_>, what: &'static str) -> Result<(), CompressError> {
    if !reader.is_at_end() {
        return Err(CompressError::TrailingBytes {
            what,
            bytes: reader.remaining(),
        });
    }
    Ok(())
}

/// The event-field columns shared by the `Records` and `Stored` schemas.
///
/// Durations and waits are stored as raw varints, not deltas: they carry
/// the workloads' timing noise, and delta+zigzag on noise doubles its
/// magnitude (measured: it *expanded* those streams).  Grouping them into
/// their own streams is what helps — identical events produce identical
/// varints back to back, which the LZ layer folds into matches.
#[derive(Default)]
struct EventColumnsW {
    tags: Vec<u8>,
    regions: DeltaWriter,
    durations: Vec<u8>,
    waits: Vec<u8>,
    peers: DeltaWriter,
    meta: DeltaWriter,
    sizes: DeltaWriter,
}

impl EventColumnsW {
    /// Pushes every field of `event` except its start time (the time stream
    /// is owned by the caller, whose delta clock also covers non-event
    /// records).
    fn push(&mut self, event: &Event) {
        self.regions.push(u64::from(event.region.as_u32()));
        write_u64(&mut self.durations, event.duration().as_nanos());
        write_u64(&mut self.waits, event.wait.as_nanos());
        match event.comm {
            CommInfo::Compute => self.tags.push(tag::COMM_COMPUTE),
            CommInfo::Send {
                peer,
                tag: t,
                bytes,
            } => {
                self.tags.push(tag::COMM_SEND);
                self.peers.push(u64::from(peer.as_u32()));
                self.meta.push(u64::from(t));
                self.sizes.push(bytes);
            }
            CommInfo::Recv {
                peer,
                tag: t,
                bytes,
            } => {
                self.tags.push(tag::COMM_RECV);
                self.peers.push(u64::from(peer.as_u32()));
                self.meta.push(u64::from(t));
                self.sizes.push(bytes);
            }
            CommInfo::SendRecv {
                to,
                from,
                tag: t,
                bytes,
            } => {
                self.tags.push(tag::COMM_SENDRECV);
                self.peers.push(u64::from(to.as_u32()));
                self.peers.push(u64::from(from.as_u32()));
                self.meta.push(u64::from(t));
                self.sizes.push(bytes);
            }
            CommInfo::Collective {
                op,
                root,
                comm_size,
                bytes,
            } => {
                self.tags.push(tag::COMM_COLLECTIVE);
                self.tags.push(collective_op_tag(op));
                self.peers.push(u64::from(root.as_u32()));
                self.meta.push(u64::from(comm_size));
                self.sizes.push(bytes);
            }
        }
    }

    fn streams(&self) -> [&[u8]; 7] {
        [
            &self.tags,
            &self.regions.buf,
            &self.durations,
            &self.waits,
            &self.peers.buf,
            &self.meta.buf,
            &self.sizes.buf,
        ]
    }
}

struct EventColumnsR {
    tags: Stream,
    regions: DeltaReader,
    durations: Stream,
    waits: Stream,
    peers: DeltaReader,
    meta: DeltaReader,
    sizes: DeltaReader,
}

impl EventColumnsR {
    fn new(streams: [Stream; 7]) -> Self {
        let [tags, regions, durations, waits, peers, meta, sizes] = streams;
        EventColumnsR {
            tags,
            regions: DeltaReader::new(regions),
            durations,
            waits,
            peers: DeltaReader::new(peers),
            meta: DeltaReader::new(meta),
            sizes: DeltaReader::new(sizes),
        }
    }

    /// Reads back every field [`EventColumnsW::push`] wrote from the
    /// payload `buf`; `start` comes from the caller's time stream.
    #[inline(always)]
    fn next(&mut self, buf: &[u8], start: Time) -> Result<Event, CompressError> {
        const TAGS: &str = "a columnar comm-tags stream";
        let region = RegionId(self.regions.next_u32(buf, "region id")?);
        let duration = Time::from_nanos(self.durations.varint(buf)?);
        let wait = Time::from_nanos(self.waits.varint(buf)?);
        let comm = match self.tags.byte(buf, TAGS)? {
            tag::COMM_COMPUTE => CommInfo::Compute,
            tag::COMM_SEND => CommInfo::Send {
                peer: Rank(self.peers.next_u32(buf, "peer rank")?),
                tag: self.meta.next_u32(buf, "message tag")?,
                bytes: self.sizes.next(buf)?,
            },
            tag::COMM_RECV => CommInfo::Recv {
                peer: Rank(self.peers.next_u32(buf, "peer rank")?),
                tag: self.meta.next_u32(buf, "message tag")?,
                bytes: self.sizes.next(buf)?,
            },
            tag::COMM_SENDRECV => CommInfo::SendRecv {
                to: Rank(self.peers.next_u32(buf, "sendrecv destination rank")?),
                from: Rank(self.peers.next_u32(buf, "sendrecv source rank")?),
                tag: self.meta.next_u32(buf, "message tag")?,
                bytes: self.sizes.next(buf)?,
            },
            tag::COMM_COLLECTIVE => {
                let op = collective_op_from_tag(self.tags.byte(buf, TAGS)?)?;
                CommInfo::Collective {
                    op,
                    root: Rank(self.peers.next_u32(buf, "collective root rank")?),
                    comm_size: self.meta.next_u32(buf, "communicator size")?,
                    bytes: self.sizes.next(buf)?,
                }
            }
            other => {
                return Err(CompressError::Codec(CodecError::BadTag {
                    what: "columnar comm info",
                    tag: other,
                }))
            }
        };
        Ok(Event {
            region,
            start,
            end: start + duration,
            comm,
            wait,
        })
    }

    /// Requires every event stream to be fully consumed.
    fn finish(&self) -> Result<(), CompressError> {
        self.tags.finish("the items of a comm-tags column")?;
        self.regions
            .stream
            .finish("the items of a regions column")?;
        self.durations.finish("the items of a durations column")?;
        self.waits.finish("the items of a waits column")?;
        self.peers.stream.finish("the items of a peers column")?;
        self.meta.stream.finish("the items of a meta column")?;
        self.sizes.stream.finish("the items of a sizes column")
    }
}

// ---------------------------------------------------------------------------
// RECORDS chunks
// ---------------------------------------------------------------------------

fn encode_records(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut reader = Reader::new(payload);
    let count = read_u64(&mut reader)?;
    let mut tags = Vec::new();
    let mut contexts = DeltaWriter::default();
    let mut times = TimeWriter::default();
    let mut events = EventColumnsW::default();
    let mut prev_time = Time::ZERO;
    for _ in 0..count {
        let (record, new_prev) = read_record(&mut reader, prev_time)?;
        prev_time = new_prev;
        match record {
            TraceRecord::SegmentBegin { context, time } => {
                tags.push(tag::SEGMENT_BEGIN);
                contexts.push(u64::from(context.as_u32()));
                times.push(time);
            }
            TraceRecord::SegmentEnd { context, time } => {
                tags.push(tag::SEGMENT_END);
                contexts.push(u64::from(context.as_u32()));
                times.push(time);
            }
            TraceRecord::Event(event) => {
                tags.push(tag::EVENT);
                times.push(event.start);
                events.push(&event);
            }
        }
    }
    require_at_end(&reader, "the declared records of a RECORDS payload")?;
    let event_streams = events.streams();
    let mut streams: Vec<&[u8]> = vec![&tags, &contexts.buf, &times.buf];
    streams.extend_from_slice(&event_streams);
    Ok(write_streams(count, &streams))
}

/// Record cursor over one columnar `RECORDS` payload.
///
/// Owns the decompressed columnar bytes and yields one [`TraceRecord`] per
/// [`RecordColumns::next_record`] call, with no intermediate row bytes.
/// Every check of the row path holds: time arithmetic is checked
/// (`NegativeTime`), unknown tags are `BadTag`s, 32-bit fields that do not
/// fit are `FieldOutOfRange`, a count above what the columns hold is a
/// truncation, and once the count is exhausted (at construction, for a
/// count of 0) every column must be fully consumed.
pub struct RecordColumns {
    payload: Vec<u8>,
    remaining: u64,
    tags: Stream,
    contexts: DeltaReader,
    times: TimeReader,
    events: EventColumnsR,
}

impl RecordColumns {
    /// Parses the stream layout of a columnar `RECORDS` payload.
    pub fn new(payload: Vec<u8>) -> Result<Self, CompressError> {
        let (count, streams) = read_streams::<10>(&payload)?;
        let [tags, contexts, times, ev_tags, regions, durations, waits, peers, meta, sizes] =
            streams;
        let columns = RecordColumns {
            remaining: count,
            tags,
            contexts: DeltaReader::new(contexts),
            times: TimeReader::new(times),
            events: EventColumnsR::new([ev_tags, regions, durations, waits, peers, meta, sizes]),
            payload,
        };
        if count == 0 {
            columns.finish()?;
        }
        Ok(columns)
    }

    /// Decodes the next record, or `Ok(None)` once the declared count is
    /// exhausted.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, CompressError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let buf = &self.payload;
        let record = match self.tags.byte(buf, "a columnar record-tags stream")? {
            tag::SEGMENT_BEGIN => TraceRecord::SegmentBegin {
                context: ContextId(self.contexts.next_u32(buf, "context id")?),
                time: self.times.next(buf)?,
            },
            tag::SEGMENT_END => TraceRecord::SegmentEnd {
                context: ContextId(self.contexts.next_u32(buf, "context id")?),
                time: self.times.next(buf)?,
            },
            tag::EVENT => {
                let start = self.times.next(buf)?;
                TraceRecord::Event(self.events.next(buf, start)?)
            }
            other => {
                return Err(CompressError::Codec(CodecError::BadTag {
                    what: "columnar trace record",
                    tag: other,
                }))
            }
        };
        self.remaining -= 1;
        if self.remaining == 0 {
            self.finish()?;
        }
        Ok(Some(record))
    }

    /// Gives the payload buffer back for reuse.
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }

    /// Requires every column to be fully consumed.
    fn finish(&self) -> Result<(), CompressError> {
        self.tags.finish("the items of a record-tags column")?;
        self.contexts
            .stream
            .finish("the items of a contexts column")?;
        self.times.stream.finish("the items of a times column")?;
        self.events.finish()
    }
}

/// Rebuilds the row payload of a columnar `RECORDS` payload.
fn decode_records(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut records = RecordColumns::new(payload.to_vec())?;
    let mut out = Vec::with_capacity(payload.len() + payload.len() / 2 + 8);
    write_u64(&mut out, records.remaining);
    let mut prev_time = Time::ZERO;
    while let Some(record) = records.next_record()? {
        prev_time = write_record(&mut out, &record, prev_time);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// STORED chunks
// ---------------------------------------------------------------------------

fn encode_stored(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut reader = Reader::new(payload);
    let count = read_u64(&mut reader)?;
    let mut seg_ids = DeltaWriter::default();
    let mut reps = DeltaWriter::default();
    let mut contexts = DeltaWriter::default();
    let mut starts = DeltaWriter::default();
    let mut ends = DeltaWriter::default();
    let mut counts = DeltaWriter::default();
    let mut times = TimeWriter::default();
    let mut events = EventColumnsW::default();
    for _ in 0..count {
        let stored = read_stored_segment(&mut reader)?;
        seg_ids.push(u64::from(stored.id));
        reps.push(u64::from(stored.represented));
        contexts.push(u64::from(stored.segment.context.as_u32()));
        starts.push(stored.segment.start.as_nanos());
        ends.push(stored.segment.end.as_nanos());
        counts.push(stored.segment.events.len() as u64);
        times.restart();
        for event in &stored.segment.events {
            times.push(event.start);
            events.push(event);
        }
    }
    require_at_end(&reader, "the declared segments of a STORED payload")?;
    let event_streams = events.streams();
    let mut streams: Vec<&[u8]> = vec![
        &seg_ids.buf,
        &reps.buf,
        &contexts.buf,
        &starts.buf,
        &ends.buf,
        &counts.buf,
        &times.buf,
    ];
    streams.extend_from_slice(&event_streams);
    Ok(write_streams(count, &streams))
}

fn decode_stored(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (count, streams) = read_streams::<14>(payload)?;
    let [seg_ids, reps, contexts, starts, ends, counts, times, ev_tags, regions, durations, waits, peers, meta, sizes] =
        streams;
    let mut seg_ids = DeltaReader::new(seg_ids);
    let mut reps = DeltaReader::new(reps);
    let mut contexts = DeltaReader::new(contexts);
    let mut starts = DeltaReader::new(starts);
    let mut ends = DeltaReader::new(ends);
    let mut counts = DeltaReader::new(counts);
    let mut times = TimeReader::new(times);
    let mut events = EventColumnsR::new([ev_tags, regions, durations, waits, peers, meta, sizes]);

    let mut out = Vec::with_capacity(payload.len() + payload.len() / 2 + 8);
    write_u64(&mut out, count);
    for _ in 0..count {
        let id = seg_ids.next_u32(payload, "stored segment id")?;
        let represented = reps.next_u32(payload, "represented count")?;
        let context = ContextId(contexts.next_u32(payload, "context id")?);
        let start = Time::from_nanos(starts.next(payload)?);
        let end = Time::from_nanos(ends.next(payload)?);
        let event_count = counts.next(payload)?;
        times.restart();
        let mut segment_events = Vec::new();
        for _ in 0..event_count {
            let event_start = times.next(payload)?;
            segment_events.push(events.next(payload, event_start)?);
        }
        write_stored_segment(
            &mut out,
            &StoredSegment {
                id,
                represented,
                segment: Segment {
                    context,
                    start,
                    end,
                    events: segment_events,
                },
            },
        );
    }
    seg_ids.stream.finish("the items of a segment-ids column")?;
    reps.stream.finish("the items of a represented column")?;
    contexts.stream.finish("the items of a contexts column")?;
    starts.stream.finish("the items of a starts column")?;
    ends.stream.finish("the items of an ends column")?;
    counts.stream.finish("the items of a counts column")?;
    times.stream.finish("the items of a times column")?;
    events.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// EXECS chunks
// ---------------------------------------------------------------------------

fn encode_execs(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut reader = Reader::new(payload);
    let count = read_u64(&mut reader)?;
    let mut seg_ids = DeltaWriter::default();
    let mut times = TimeWriter::default();
    let mut prev = Time::ZERO;
    for _ in 0..count {
        let (exec, new_prev) = read_exec(&mut reader, prev)?;
        prev = new_prev;
        seg_ids.push(u64::from(exec.segment));
        times.push(exec.start);
    }
    require_at_end(&reader, "the declared executions of an EXECS payload")?;
    Ok(write_streams(count, &[&seg_ids.buf, &times.buf]))
}

fn decode_execs(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (count, streams) = read_streams::<2>(payload)?;
    let [seg_ids, times] = streams;
    let mut seg_ids = DeltaReader::new(seg_ids);
    let mut times = TimeReader::new(times);

    let mut out = Vec::with_capacity(payload.len() + payload.len() / 2 + 8);
    write_u64(&mut out, count);
    let mut prev = Time::ZERO;
    for _ in 0..count {
        let exec = SegmentExec {
            segment: seg_ids.next_u32(payload, "stored segment id")?,
            start: times.next(payload)?,
        };
        prev = write_exec(&mut out, &exec, prev);
    }
    seg_ids.stream.finish("the items of a segment-ids column")?;
    times.stream.finish("the items of a times column")?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Applies the columnar transform to a row payload of the given class.
///
/// The payload must be canonical row bytes as produced by the container
/// writer (the transform parses it with the row codec); malformed input is
/// a typed error.
pub fn column_encode(class: PayloadClass, payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    match class {
        PayloadClass::Records => encode_records(payload),
        PayloadClass::Stored => encode_stored(payload),
        PayloadClass::Execs => encode_execs(payload),
        PayloadClass::Opaque => Ok(payload.to_vec()),
    }
}

/// Inverts [`column_encode`], reconstructing the row payload byte-for-byte.
pub fn column_decode(class: PayloadClass, payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    match class {
        PayloadClass::Records => decode_records(payload),
        PayloadClass::Stored => decode_stored(payload),
        PayloadClass::Execs => decode_execs(payload),
        PayloadClass::Opaque => Ok(payload.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for i in 0..40u64 {
            let base = 1_000 * i;
            records.push(TraceRecord::SegmentBegin {
                context: ContextId(1),
                time: Time::from_nanos(base),
            });
            records.push(TraceRecord::Event(Event::compute(
                RegionId(0),
                Time::from_nanos(base + 10),
                Time::from_nanos(base + 200),
            )));
            records.push(TraceRecord::Event(
                Event::with_comm(
                    RegionId(2),
                    Time::from_nanos(base + 210),
                    Time::from_nanos(base + 400),
                    if i % 2 == 0 {
                        CommInfo::Send {
                            peer: Rank(1),
                            tag: 7,
                            bytes: 4096,
                        }
                    } else {
                        CommInfo::Collective {
                            op: CollectiveOp::Allreduce,
                            root: Rank(0),
                            comm_size: 8,
                            bytes: 256,
                        }
                    },
                )
                .with_wait(Time::from_nanos(13)),
            ));
            records.push(TraceRecord::SegmentEnd {
                context: ContextId(1),
                time: Time::from_nanos(base + 410),
            });
        }
        records
    }

    fn records_payload(records: &[TraceRecord]) -> Vec<u8> {
        let mut payload = Vec::new();
        write_u64(&mut payload, records.len() as u64);
        let mut prev = Time::ZERO;
        for record in records {
            prev = write_record(&mut payload, record, prev);
        }
        payload
    }

    #[test]
    fn records_round_trip_and_stay_near_row_size() {
        let payload = records_payload(&sample_records());
        let columnar = column_encode(PayloadClass::Records, &payload).unwrap();
        assert_eq!(
            column_decode(PayloadClass::Records, &columnar).unwrap(),
            payload
        );
        // The transform is roughly size-neutral on its own (a transposition
        // plus per-stream length headers); its value is what the LZ layer
        // can do with the homogeneous streams, asserted in lib.rs.
        assert!(
            columnar.len() <= payload.len() + 64,
            "columnar {} vs row {}",
            columnar.len(),
            payload.len()
        );
    }

    #[test]
    fn stored_and_execs_round_trip() {
        let events: Vec<Event> = (0..10)
            .map(|i| {
                Event::with_comm(
                    RegionId(i % 3),
                    Time::from_nanos(u64::from(i) * 100),
                    Time::from_nanos(u64::from(i) * 100 + 80),
                    CommInfo::SendRecv {
                        to: Rank(i),
                        from: Rank(i + 1),
                        tag: 3,
                        bytes: 512,
                    },
                )
            })
            .collect();
        let mut payload = Vec::new();
        write_u64(&mut payload, 3);
        for id in 0..3u32 {
            write_stored_segment(
                &mut payload,
                &StoredSegment {
                    id,
                    represented: 5 + id,
                    segment: Segment {
                        context: ContextId(2),
                        start: Time::ZERO,
                        end: Time::from_nanos(1_000),
                        events: events.clone(),
                    },
                },
            );
        }
        let columnar = column_encode(PayloadClass::Stored, &payload).unwrap();
        assert_eq!(
            column_decode(PayloadClass::Stored, &columnar).unwrap(),
            payload
        );

        let mut payload = Vec::new();
        write_u64(&mut payload, 64);
        let mut prev = Time::ZERO;
        for i in 0..64u64 {
            prev = write_exec(
                &mut payload,
                &SegmentExec {
                    segment: (i % 4) as u32,
                    start: Time::from_nanos(i * 777),
                },
                prev,
            );
        }
        let columnar = column_encode(PayloadClass::Execs, &payload).unwrap();
        assert_eq!(
            column_decode(PayloadClass::Execs, &columnar).unwrap(),
            payload
        );
    }

    #[test]
    fn opaque_is_the_identity() {
        let payload = b"arbitrary control bytes".to_vec();
        let encoded = column_encode(PayloadClass::Opaque, &payload).unwrap();
        assert_eq!(encoded, payload);
        assert_eq!(
            column_decode(PayloadClass::Opaque, &encoded).unwrap(),
            payload
        );
    }

    #[test]
    fn malformed_columnar_payloads_are_typed_errors() {
        // Truncation anywhere in a valid columnar payload.
        let payload = records_payload(&sample_records());
        let columnar = column_encode(PayloadClass::Records, &payload).unwrap();
        for cut in 0..columnar.len() {
            assert!(
                column_decode(PayloadClass::Records, &columnar[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // A stream length pointing past the input.
        let mut oversized = Vec::new();
        write_u64(&mut oversized, 1);
        write_u64(&mut oversized, 1_000_000);
        assert!(matches!(
            column_decode(PayloadClass::Execs, &oversized),
            Err(CompressError::LengthOverflow { .. })
        ));
        // An unknown record tag inside the tags column.
        let bad = write_streams(1, &[&[9u8], &[], &[], &[], &[], &[], &[], &[], &[], &[]]);
        assert!(matches!(
            column_decode(PayloadClass::Records, &bad),
            Err(CompressError::Codec(CodecError::BadTag { .. }))
        ));
        // Trailing bytes after the declared streams.
        let mut trailing = column_encode(PayloadClass::Records, &payload).unwrap();
        trailing.push(0);
        assert!(matches!(
            column_decode(PayloadClass::Records, &trailing),
            Err(CompressError::TrailingBytes { .. })
        ));
        // A count larger than the columns actually hold.
        let empty_streams = write_streams(5, &[&[], &[], &[], &[], &[], &[], &[], &[], &[], &[]]);
        assert!(matches!(
            column_decode(PayloadClass::Records, &empty_streams),
            Err(CompressError::Truncated { .. })
        ));
        // Row-side: a malformed row payload is rejected by the encoder.
        assert!(column_encode(PayloadClass::Records, &[0x07]).is_err());
    }

    #[test]
    fn record_cursor_yields_the_row_records_and_keeps_every_check() {
        let records = sample_records();
        let columnar = column_encode(PayloadClass::Records, &records_payload(&records)).unwrap();
        let mut cursor = RecordColumns::new(columnar.clone()).unwrap();
        assert_eq!(cursor.remaining, records.len() as u64);
        let mut decoded = Vec::new();
        while let Some(record) = cursor.next_record().unwrap() {
            decoded.push(record);
        }
        assert_eq!(decoded, records);
        assert_eq!(cursor.next_record().unwrap(), None);
        assert_eq!(cursor.into_payload(), columnar);

        // One Send event whose peer is `peer`, as RECORDS columns.
        let send_event = |count: u64, peer: u64| {
            let svarint = |v: i64| {
                let mut out = Vec::new();
                write_i64(&mut out, v);
                out
            };
            write_streams(
                count,
                &[
                    &[tag::EVENT],
                    &[],
                    &svarint(10),
                    &[tag::COMM_SEND],
                    &svarint(0),
                    &[5],
                    &[0],
                    &svarint(peer as i64),
                    &svarint(7),
                    &svarint(64),
                ],
            )
        };
        let mut cursor = RecordColumns::new(send_event(1, 3)).unwrap();
        assert!(matches!(
            cursor.next_record().unwrap(),
            Some(TraceRecord::Event(Event {
                comm: CommInfo::Send { peer: Rank(3), .. },
                ..
            }))
        ));
        // 2^32 + 1 would truncate to rank 1 under an `as u32` cast.
        let wide = (1u64 << 32) + 1;
        let mut cursor = RecordColumns::new(send_event(1, wide)).unwrap();
        assert!(matches!(
            cursor.next_record(),
            Err(CompressError::Codec(CodecError::FieldOutOfRange {
                field: "peer rank",
                value,
            })) if value == wide
        ));
        // A count of 0 with bytes in the columns is rejected up front.
        assert!(matches!(
            RecordColumns::new(send_event(0, 3)),
            Err(CompressError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn overflowing_time_deltas_are_typed_errors_not_panics() {
        // A crafted times stream pairing deltas that sum past i64::MAX:
        // reconstruction must fail with NegativeTime, not overflow.
        let mut times = Vec::new();
        write_i64(&mut times, i64::MAX);
        write_i64(&mut times, 1);
        let mut seg_ids = Vec::new();
        write_i64(&mut seg_ids, 0);
        write_i64(&mut seg_ids, 0);
        let crafted = write_streams(2, &[&seg_ids, &times]);
        assert!(matches!(
            column_decode(PayloadClass::Execs, &crafted),
            Err(CompressError::Codec(CodecError::NegativeTime))
        ));
    }
}
