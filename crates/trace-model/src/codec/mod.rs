//! Compact binary trace encoding.
//!
//! Every file-size number in the evaluation is the length in bytes of the
//! encoding produced here, for both full traces ([`encode_app_trace`]) and
//! reduced traces ([`encode_reduced_trace`]).  Both formats share the same
//! building blocks — string tables, LEB128 varints and delta-encoded time
//! stamps — so the full/reduced size ratio measures the reduction technique,
//! not a difference in serialization overhead.
//!
//! The formats are self-describing enough to round-trip exactly, which the
//! property tests in `tests/codec_roundtrip.rs` of this crate verify.

mod decode;
mod encode;
pub mod varint;

use std::fmt;

use crate::reduced::ReducedTraceError;

pub use decode::{
    decode_app_trace, decode_reduced_trace, read_exec, read_record, read_segment,
    read_stored_segment, read_string, read_string_table,
};
pub use encode::{
    encode_app_trace, encode_reduced_trace, write_exec, write_record, write_segment,
    write_stored_segment, write_string, write_string_table,
};

/// Magic bytes identifying a full application trace file.
pub const APP_TRACE_MAGIC: [u8; 4] = *b"TRCF";
/// Magic bytes identifying a reduced application trace file.
pub const REDUCED_TRACE_MAGIC: [u8; 4] = *b"TRCR";
/// Current format version written by the encoder.
pub const FORMAT_VERSION: u8 = 1;

/// Errors produced while decoding a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a complete value could be read.
    UnexpectedEof,
    /// The magic bytes did not identify the expected file kind.
    BadMagic {
        /// The magic bytes found in the input.
        found: [u8; 4],
    },
    /// The format version is not supported by this decoder.
    UnsupportedVersion(u8),
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A string table entry was not valid UTF-8.
    BadUtf8,
    /// A varint did not fit in 64 bits.
    VarintOverflow,
    /// A delta-encoded time stamp went below zero.
    NegativeTime,
    /// A length prefix was implausibly large for the remaining input.
    LengthTooLarge(u64),
    /// A 32-bit field (an id, rank, tag or communicator size) was encoded
    /// with a value that does not fit 32 bits.
    FieldOutOfRange {
        /// Which field was being decoded.
        field: &'static str,
        /// The value the input declares.
        value: u64,
    },
    /// A decoded reduced rank breaks the stored-id invariants.
    Reduced(ReducedTraceError),
}

impl From<ReducedTraceError> for CodecError {
    fn from(e: ReducedTraceError) -> Self {
        CodecError::Reduced(e)
    }
}

/// Narrows a decoded 64-bit value to the 32-bit `field` it encodes,
/// rejecting values that do not fit instead of truncating them.
#[inline]
pub fn narrow_u32(value: u64, field: &'static str) -> Result<u32, CodecError> {
    u32::try_from(value).map_err(|_| CodecError::FieldOutOfRange { field, value })
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of trace file"),
            CodecError::BadMagic { found } => write!(f, "bad magic bytes {found:?}"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            CodecError::BadUtf8 => write!(f, "string table entry is not valid UTF-8"),
            CodecError::VarintOverflow => write!(f, "varint does not fit in 64 bits"),
            CodecError::NegativeTime => write!(f, "delta-encoded time stamp went negative"),
            CodecError::LengthTooLarge(n) => write!(f, "length prefix {n} exceeds remaining input"),
            CodecError::FieldOutOfRange { field, value } => {
                write!(f, "{field} {value} does not fit 32 bits")
            }
            CodecError::Reduced(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over an encoded byte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Reads one byte.
    #[inline]
    pub fn read_byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.data.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads exactly `n` bytes.
    #[inline]
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or(CodecError::UnexpectedEof)?;
        self.pos = end;
        Ok(slice)
    }

    /// Number of bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True if every byte has been consumed.
    #[inline]
    pub fn is_at_end(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CollectiveOp, CommInfo, Event};
    use crate::ids::Rank;
    use crate::reduced::{ReducedAppTrace, ReducedRankTrace, SegmentExec, StoredSegment};
    use crate::segment::Segment;
    use crate::time::Time;
    use crate::trace::AppTrace;

    fn sample_app_trace() -> AppTrace {
        let mut app = AppTrace::new("codec_sample", 2);
        let work = app.regions.intern("do_work");
        let send = app.regions.intern("MPI_Ssend");
        let recv = app.regions.intern("MPI_Recv");
        let all = app.regions.intern("MPI_Alltoall");
        let ctx_init = app.contexts.intern("init");
        let ctx_loop = app.contexts.intern("main.1");
        for r in 0..2u32 {
            let peer = Rank(1 - r);
            let base = 100 * u64::from(r);
            let rank = &mut app.ranks[r as usize];
            rank.begin_segment(ctx_init, Time::from_nanos(base));
            rank.push_event(Event::compute(
                work,
                Time::from_nanos(base + 1),
                Time::from_nanos(base + 20),
            ));
            rank.end_segment(ctx_init, Time::from_nanos(base + 21));
            for i in 0..3u64 {
                let t0 = base + 30 + i * 50;
                rank.begin_segment(ctx_loop, Time::from_nanos(t0));
                rank.push_event(
                    Event::with_comm(
                        if r == 0 { send } else { recv },
                        Time::from_nanos(t0 + 2),
                        Time::from_nanos(t0 + 12),
                        if r == 0 {
                            CommInfo::Send {
                                peer,
                                tag: 9,
                                bytes: 4096,
                            }
                        } else {
                            CommInfo::Recv {
                                peer,
                                tag: 9,
                                bytes: 4096,
                            }
                        },
                    )
                    .with_wait(Time::from_nanos(3)),
                );
                rank.push_event(Event::with_comm(
                    all,
                    Time::from_nanos(t0 + 13),
                    Time::from_nanos(t0 + 40),
                    CommInfo::Collective {
                        op: CollectiveOp::Alltoall,
                        root: Rank(0),
                        comm_size: 2,
                        bytes: 256,
                    },
                ));
                rank.end_segment(ctx_loop, Time::from_nanos(t0 + 41));
            }
        }
        app
    }

    fn sample_reduced_trace() -> ReducedAppTrace {
        let full = sample_app_trace();
        let mut reduced = ReducedAppTrace::for_app(&full);
        for r in 0..2u32 {
            let mut rt = ReducedRankTrace::new(Rank(r));
            rt.stored.push(StoredSegment {
                id: 0,
                segment: Segment {
                    context: full.contexts.lookup("main.1").unwrap(),
                    start: Time::ZERO,
                    end: Time::from_nanos(41),
                    events: vec![
                        Event::with_comm(
                            full.regions.lookup("MPI_Ssend").unwrap(),
                            Time::from_nanos(2),
                            Time::from_nanos(12),
                            CommInfo::Send {
                                peer: Rank(1 - r),
                                tag: 9,
                                bytes: 4096,
                            },
                        ),
                        Event::compute(
                            full.regions.lookup("do_work").unwrap(),
                            Time::from_nanos(13),
                            Time::from_nanos(40),
                        ),
                    ],
                },
                represented: 3,
            });
            rt.execs = vec![
                SegmentExec {
                    segment: 0,
                    start: Time::from_nanos(30),
                },
                SegmentExec {
                    segment: 0,
                    start: Time::from_nanos(80),
                },
                SegmentExec {
                    segment: 0,
                    start: Time::from_nanos(130),
                },
            ];
            reduced.ranks.push(rt);
        }
        reduced
    }

    #[test]
    fn app_trace_round_trip() {
        let app = sample_app_trace();
        let bytes = encode_app_trace(&app);
        let decoded = decode_app_trace(&bytes).expect("decode");
        assert_eq!(app, decoded);
    }

    #[test]
    fn reduced_trace_round_trip() {
        let reduced = sample_reduced_trace();
        let bytes = encode_reduced_trace(&reduced);
        let decoded = decode_reduced_trace(&bytes).expect("decode");
        assert_eq!(reduced, decoded);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let app = sample_app_trace();
        let bytes = encode_app_trace(&app);
        assert!(matches!(
            decode_reduced_trace(&bytes),
            Err(CodecError::BadMagic { .. })
        ));
        let reduced = sample_reduced_trace();
        let bytes = encode_reduced_trace(&reduced);
        assert!(matches!(
            decode_app_trace(&bytes),
            Err(CodecError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let app = sample_app_trace();
        let bytes = encode_app_trace(&app);
        for cut in [3usize, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_app_trace(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let app = sample_app_trace();
        let mut bytes = encode_app_trace(&app);
        bytes[4] = 99;
        assert!(matches!(
            decode_app_trace(&bytes),
            Err(CodecError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn v1_reduced_ids_are_range_checked_and_must_resolve() {
        use super::varint::{write_i64, write_u64};
        use crate::reduced::ReducedTraceError;
        const WIDE: u64 = (1 << 32) + 1;
        // One rank holding one stored segment (no events) and one
        // execution; every id field is the caller's.
        let file = |[rank, id, represented, context, exec]: [u64; 5]| {
            let mut out = REDUCED_TRACE_MAGIC.to_vec();
            out.push(FORMAT_VERSION);
            write_string(&mut out, "wide");
            write_string_table(&mut out, &[]);
            write_string_table(&mut out, &["main".to_string()]);
            for field in [1, rank, 1, id, represented, context, 0, 10, 0, 1, exec] {
                write_u64(&mut out, field);
            }
            write_i64(&mut out, 0);
            out
        };
        assert!(decode_reduced_trace(&file([0, 0, 1, 0, 0])).is_ok());
        for (fields, field) in [
            ([WIDE, 0, 1, 0, 0], "rank id"),
            ([0, WIDE, 1, 0, 0], "stored segment id"),
            ([0, 0, WIDE, 0, 0], "represented count"),
            ([0, 0, 1, WIDE, 0], "context id"),
            ([0, 0, 1, 0, WIDE], "stored segment id"),
        ] {
            assert_eq!(
                decode_reduced_trace(&file(fields)),
                Err(CodecError::FieldOutOfRange { field, value: WIDE }),
                "{fields:?}"
            );
        }
        assert_eq!(
            decode_reduced_trace(&file([0, 1, 1, 0, 0])),
            Err(CodecError::Reduced(ReducedTraceError::SparseStoredId {
                expected: 0,
                found: 1
            }))
        );
        assert_eq!(
            decode_reduced_trace(&file([0, 0, 1, 0, 1])),
            Err(CodecError::Reduced(
                ReducedTraceError::UnknownStoredSegment(1)
            ))
        );

        let mut app = APP_TRACE_MAGIC.to_vec();
        app.push(FORMAT_VERSION);
        write_string(&mut app, "wide");
        write_string_table(&mut app, &[]);
        write_string_table(&mut app, &[]);
        for field in [1, WIDE, 0] {
            write_u64(&mut app, field);
        }
        assert_eq!(
            decode_app_trace(&app),
            Err(CodecError::FieldOutOfRange {
                field: "rank id",
                value: WIDE
            })
        );
    }

    #[test]
    fn wide_record_fields_are_rejected_not_truncated() {
        use super::varint::{write_i64, write_u64};
        // 2^32 + 1 truncates to 1 under an `as u32` cast.
        const WIDE: u64 = (1 << 32) + 1;
        // An event row: tag, region, start delta, duration, wait, then a
        // Send's comm tag, peer, message tag and size.
        let event_row = |region: u64, peer: u64, tag: u64| {
            let mut row = vec![encode::tags::RECORD_EVENT];
            write_u64(&mut row, region);
            write_i64(&mut row, 10);
            write_u64(&mut row, 5);
            write_u64(&mut row, 0);
            row.push(encode::tags::COMM_SEND);
            write_u64(&mut row, peer);
            write_u64(&mut row, tag);
            write_u64(&mut row, 64);
            row
        };
        let read = |row: &[u8]| read_record(&mut Reader::new(row), Time::ZERO).map(|(r, _)| r);
        assert!(read(&event_row(1, 1, 1)).is_ok());
        for (row, field) in [
            (event_row(WIDE, 1, 1), "region id"),
            (event_row(1, WIDE, 1), "peer rank"),
            (event_row(1, 1, WIDE), "message tag"),
        ] {
            assert_eq!(
                read(&row),
                Err(CodecError::FieldOutOfRange { field, value: WIDE })
            );
        }
        let mut marker = vec![encode::tags::RECORD_SEGMENT_BEGIN];
        write_u64(&mut marker, WIDE);
        write_i64(&mut marker, 0);
        assert!(matches!(
            read(&marker),
            Err(CodecError::FieldOutOfRange {
                field: "context id",
                ..
            })
        ));
        assert!(CodecError::FieldOutOfRange {
            field: "peer rank",
            value: WIDE
        }
        .to_string()
        .contains("peer rank 4294967297"));
    }

    #[test]
    fn reduced_encoding_is_smaller_for_repetitive_trace() {
        // A trace whose loop body repeats identically should shrink a lot:
        // representatives are stored once, executions cost a few bytes each.
        let mut app = AppTrace::new("repetitive", 1);
        let work = app.regions.intern("do_work");
        let ctx = app.contexts.intern("main.1");
        let mut reduced = ReducedAppTrace::for_app(&app);
        let mut rrt = ReducedRankTrace::new(Rank(0));
        let representative = Segment {
            context: ctx,
            start: Time::ZERO,
            end: Time::from_nanos(1000),
            events: (0..10)
                .map(|i| {
                    Event::compute(
                        work,
                        Time::from_nanos(i * 100),
                        Time::from_nanos(i * 100 + 90),
                    )
                })
                .collect(),
        };
        {
            let rank = &mut app.ranks[0];
            for iter in 0..200u64 {
                let base = iter * 1000;
                rank.begin_segment(ctx, Time::from_nanos(base));
                for e in &representative.events {
                    rank.push_event(e.offset(Time::from_nanos(base)));
                }
                rank.end_segment(ctx, Time::from_nanos(base + 1000));
                rrt.execs.push(SegmentExec {
                    segment: 0,
                    start: Time::from_nanos(base),
                });
            }
        }
        rrt.stored.push(StoredSegment {
            id: 0,
            segment: representative,
            represented: 200,
        });
        reduced.ranks.push(rrt);

        let full_bytes = encode_app_trace(&app).len();
        let reduced_bytes = encode_reduced_trace(&reduced).len();
        assert!(
            (reduced_bytes as f64) < 0.1 * full_bytes as f64,
            "reduced {reduced_bytes} bytes should be well under 10% of full {full_bytes} bytes"
        );
    }
}
