//! The line-level text grammar, shared by every text reader.
//!
//! [`crate::parse`] materializes whole traces from a `&str`; the
//! `trace_stream` crate feeds lines one at a time from a `BufRead` source.
//! Both feed the parsers in this module, so a line is parsed by exactly one
//! piece of code regardless of how it arrives:
//!
//! * [`HeaderBuilder`] — an incremental state machine for the shared header
//!   (`TRACE RANKS <n> NAME <name>` plus the REGION/CONTEXT tables),
//!   producing the [`TraceHeader`] every later record is validated against.
//! * [`AppLineParser`] — the whole full-trace grammar (magic line, header,
//!   rank sections, the `END_TRACE` rank-count check) as a line-fed parser
//!   that yields [`AppItem`]s.
//!
//! Every 32-bit field (ids, ranks, tags, communicator sizes) is range
//! checked: a value above `u32::MAX` is an error on its line, never a
//! truncated id.

use trace_model::{
    AppItem, CollectiveOp, CommInfo, ContextId, ContextTable, Duration, Event, Rank, RegionId,
    RegionTable, Time, TraceHeader, TraceRecord,
};

use crate::error::FormatError;
use crate::write::APP_HEADER;

/// Classifies one raw input line: `Some(trimmed)` if it carries a record,
/// `None` if the line is skipped (blank or `#` comment).  Every parser
/// routes every line through this single rule.
pub(crate) fn meaningful_line(raw: &str) -> Option<&str> {
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        None
    } else {
        Some(trimmed)
    }
}

/// Parses a whitespace token as `u64`, reporting `what` on failure.
pub(crate) fn parse_u64(line: usize, token: Option<&str>, what: &str) -> Result<u64, FormatError> {
    let token = token.ok_or_else(|| FormatError::at(line, format!("missing {what}")))?;
    token
        .parse::<u64>()
        .map_err(|_| FormatError::at(line, format!("invalid {what}: {token:?}")))
}

/// Parses a whitespace token as `u32`, rejecting values above 32 bits
/// instead of truncating them.
pub(crate) fn parse_u32(line: usize, token: Option<&str>, what: &str) -> Result<u32, FormatError> {
    let value = parse_u64(line, token, what)?;
    u32::try_from(value)
        .map_err(|_| FormatError::at(line, format!("{what} {value} does not fit 32 bits")))
}

fn collective_op(line: usize, name: &str) -> Result<CollectiveOp, FormatError> {
    CollectiveOp::ALL
        .into_iter()
        .find(|op| op.mpi_name() == name)
        .ok_or_else(|| FormatError::at(line, format!("unknown collective operation {name:?}")))
}

/// Incremental parser for the shared trace header.
///
/// Feed it (blank/comment-stripped) lines one at a time: it consumes the
/// magic line (when built with [`HeaderBuilder::after_magic`]), the `TRACE`
/// line and the REGION/CONTEXT table lines and reports the first line that
/// belongs to the trace body, at which point [`HeaderBuilder::finish`]
/// yields the [`TraceHeader`].
#[derive(Debug, Default)]
pub struct HeaderBuilder {
    magic: Option<&'static str>,
    saw_trace_line: bool,
    name: String,
    ranks: usize,
    region_names: Vec<String>,
    context_names: Vec<String>,
}

impl HeaderBuilder {
    /// Creates an empty builder expecting the `TRACE` line first.
    pub fn new() -> Self {
        HeaderBuilder::default()
    }

    /// Creates an empty builder expecting the file's magic line `magic`
    /// first, then the `TRACE` line.
    pub fn after_magic(magic: &'static str) -> Self {
        HeaderBuilder {
            magic: Some(magic),
            ..HeaderBuilder::default()
        }
    }

    /// What the builder expects next, for end-of-input error messages.
    pub fn expecting(&self) -> &'static str {
        if self.magic.is_some() {
            "header"
        } else if self.saw_trace_line {
            "REGION/CONTEXT table or rank data"
        } else {
            "TRACE line"
        }
    }

    /// Feeds one line.  Returns `true` if the line was part of the header
    /// (and consumed), `false` if the header is complete and the line must
    /// be re-processed by the caller as a body record.
    pub fn feed(&mut self, line_no: usize, line: &str) -> Result<bool, FormatError> {
        if let Some(magic) = self.magic.take() {
            if line != magic {
                return Err(FormatError::at(
                    line_no,
                    format!("expected header {magic:?}, found {line:?}"),
                ));
            }
            return Ok(true);
        }
        let mut tokens = line.split_whitespace();
        if !self.saw_trace_line {
            if tokens.next() != Some("TRACE") || tokens.next() != Some("RANKS") {
                return Err(FormatError::at(
                    line_no,
                    "expected `TRACE RANKS <n> NAME <name>`",
                ));
            }
            self.ranks = parse_u64(line_no, tokens.next(), "rank count")? as usize;
            if tokens.next() != Some("NAME") {
                return Err(FormatError::at(
                    line_no,
                    "expected NAME after the rank count",
                ));
            }
            // The name is everything after the literal ` NAME ` marker; a
            // missing remainder (empty program name) is tolerated.
            self.name = line
                .split_once(" NAME ")
                .map(|(_, rest)| rest.to_string())
                .unwrap_or_default();
            self.saw_trace_line = true;
            return Ok(true);
        }
        match tokens.next() {
            Some("REGION") => {
                let name = Self::table_entry(line_no, line, tokens.next(), &self.region_names)?;
                self.region_names.push(name);
                Ok(true)
            }
            Some("CONTEXT") => {
                let name = Self::table_entry(line_no, line, tokens.next(), &self.context_names)?;
                self.context_names.push(name);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Validates one REGION/CONTEXT line against the table built so far and
    /// returns the entry's name.
    fn table_entry(
        line_no: usize,
        line: &str,
        id_token: Option<&str>,
        existing: &[String],
    ) -> Result<String, FormatError> {
        let kind = if line.starts_with("REGION") {
            "region"
        } else {
            "context"
        };
        let id = parse_u64(line_no, id_token, &format!("{kind} id"))? as usize;
        if id != existing.len() {
            return Err(FormatError::at(
                line_no,
                format!(
                    "{kind} ids must be dense and ascending; expected {} got {id}",
                    existing.len()
                ),
            ));
        }
        let rest = line
            .splitn(3, char::is_whitespace)
            .nth(2)
            .unwrap_or("")
            .to_string();
        if rest.is_empty() {
            return Err(FormatError::at(line_no, format!("missing {kind} name")));
        }
        Ok(rest)
    }

    /// Completes the header every later record is validated against.
    /// Errors if the `TRACE` line was never seen.
    pub fn finish(self) -> Result<TraceHeader, FormatError> {
        if !self.saw_trace_line {
            return Err(FormatError::structural(
                "unexpected end of input, expected TRACE line",
            ));
        }
        Ok(TraceHeader {
            name: self.name,
            declared_ranks: self.ranks,
            regions: RegionTable::from_names(self.region_names),
            contexts: ContextTable::from_names(self.context_names),
        })
    }
}

/// Parses one `EVENT …` line against the header's tables.
pub(crate) fn parse_event_line(
    tables: &TraceHeader,
    line_no: usize,
    line: &str,
) -> Result<Event, FormatError> {
    let mut tokens = line.split_whitespace();
    let keyword = tokens.next();
    debug_assert_eq!(keyword, Some("EVENT"), "callers only pass EVENT lines");
    let region = parse_u32(line_no, tokens.next(), "region id")?;
    if (region as usize) >= tables.regions.len() {
        return Err(FormatError::at(
            line_no,
            format!("event references unknown region {region}"),
        ));
    }
    let start = parse_u64(line_no, tokens.next(), "event start")?;
    let end = parse_u64(line_no, tokens.next(), "event end")?;
    if end < start {
        return Err(FormatError::at(
            line_no,
            format!("event end {end} precedes start {start}"),
        ));
    }
    let wait = parse_u64(line_no, tokens.next(), "event wait time")?;
    let kind = tokens
        .next()
        .ok_or_else(|| FormatError::at(line_no, "missing event kind"))?;
    let comm = match kind {
        "COMPUTE" => CommInfo::Compute,
        "SEND" => CommInfo::Send {
            peer: Rank(parse_u32(line_no, tokens.next(), "peer rank")?),
            tag: parse_u32(line_no, tokens.next(), "tag")?,
            bytes: parse_u64(line_no, tokens.next(), "byte count")?,
        },
        "RECV" => CommInfo::Recv {
            peer: Rank(parse_u32(line_no, tokens.next(), "peer rank")?),
            tag: parse_u32(line_no, tokens.next(), "tag")?,
            bytes: parse_u64(line_no, tokens.next(), "byte count")?,
        },
        "SENDRECV" => CommInfo::SendRecv {
            to: Rank(parse_u32(line_no, tokens.next(), "destination rank")?),
            from: Rank(parse_u32(line_no, tokens.next(), "source rank")?),
            tag: parse_u32(line_no, tokens.next(), "tag")?,
            bytes: parse_u64(line_no, tokens.next(), "byte count")?,
        },
        "COLLECTIVE" => {
            let op_name = tokens
                .next()
                .ok_or_else(|| FormatError::at(line_no, "missing collective operation name"))?;
            CommInfo::Collective {
                op: collective_op(line_no, op_name)?,
                root: Rank(parse_u32(line_no, tokens.next(), "root rank")?),
                comm_size: parse_u32(line_no, tokens.next(), "communicator size")?,
                bytes: parse_u64(line_no, tokens.next(), "byte count")?,
            }
        }
        other => {
            return Err(FormatError::at(
                line_no,
                format!("unknown event kind {other:?}"),
            ));
        }
    };
    Ok(Event {
        region: RegionId(region),
        start: Time::from_nanos(start),
        end: Time::from_nanos(end),
        comm,
        wait: Duration::from_nanos(wait),
    })
}

/// Validates a context-id token against the header's tables.
pub(crate) fn parse_context_ref(
    tables: &TraceHeader,
    line_no: usize,
    token: Option<&str>,
) -> Result<ContextId, FormatError> {
    let id = parse_u32(line_no, token, "context id")?;
    if (id as usize) >= tables.contexts.len() {
        return Err(FormatError::at(line_no, format!("unknown context id {id}")));
    }
    Ok(ContextId(id))
}

/// Where the full-trace grammar stands.
#[derive(Debug)]
enum Stage {
    /// Reading the magic line and the header.
    Head(HeaderBuilder),
    /// In the body; the open rank section, if any.
    Body(Option<Rank>),
    /// `END_TRACE` was read and the rank count checked.
    Done,
}

/// The full-trace text grammar as a line-fed parser.
///
/// Feed it the raw lines of a file in order with [`AppLineParser::feed`]:
/// it skips blank and comment lines, checks the magic line, builds the
/// header, and turns each body line into at most one [`AppItem`].
/// `END_TRACE` checks the declared rank count and ends the grammar
/// ([`AppLineParser::is_done`]); at the end of the input
/// [`AppLineParser::finish`] yields the header or the error for input that
/// stopped early.  The in-memory [`crate::parse_app_trace`] and the
/// `trace_stream` crate's `BufRead`-driven `StreamParser` both feed this
/// one parser, so they accept the same language with the same errors.
#[derive(Debug)]
pub struct AppLineParser {
    line_no: usize,
    stage: Stage,
    header: TraceHeader,
    ranks_seen: usize,
}

impl Default for AppLineParser {
    fn default() -> Self {
        AppLineParser::new()
    }
}

impl AppLineParser {
    /// A parser expecting the full-trace magic line first.
    pub fn new() -> Self {
        AppLineParser {
            line_no: 0,
            stage: Stage::Head(HeaderBuilder::after_magic(APP_HEADER)),
            header: TraceHeader::default(),
            ranks_seen: 0,
        }
    }

    /// Number of complete rank sections read so far.
    pub fn ranks_seen(&self) -> usize {
        self.ranks_seen
    }

    /// True once the magic line was read.
    pub fn magic_read(&self) -> bool {
        !matches!(&self.stage, Stage::Head(head) if head.magic.is_some())
    }

    /// True once `END_TRACE` was read; later lines are not part of the
    /// trace.
    pub fn is_done(&self) -> bool {
        matches!(self.stage, Stage::Done)
    }

    /// Feeds the next raw line of the input (its line terminator may be
    /// included) and returns the item it yields, if any.
    pub fn feed(&mut self, raw: &str) -> Result<Option<AppItem>, FormatError> {
        self.line_no += 1;
        let Some(line) = meaningful_line(raw) else {
            return Ok(None);
        };
        let line_no = self.line_no;
        let open = match &mut self.stage {
            Stage::Body(open) => *open,
            Stage::Head(head) => {
                if head.feed(line_no, line)? {
                    return Ok(None);
                }
                self.header = std::mem::take(head).finish()?;
                None
            }
            Stage::Done => return Ok(None),
        };
        self.body_line(line_no, line, open)
    }

    /// Parses one body line with `open` the open rank section, if any:
    /// inside a section only `SEG_BEGIN`/`SEG_END`/`EVENT`/`END_RANK` are
    /// allowed, outside only `RANK`/`END_TRACE`.
    fn body_line(
        &mut self,
        line_no: usize,
        line: &str,
        open: Option<Rank>,
    ) -> Result<Option<AppItem>, FormatError> {
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next();
        let Some(rank) = open else {
            return match keyword {
                Some("RANK") => {
                    let rank = Rank(parse_u32(line_no, tokens.next(), "rank id")?);
                    self.stage = Stage::Body(Some(rank));
                    Ok(Some(AppItem::RankStart(rank)))
                }
                Some("END_TRACE") => {
                    if self.ranks_seen != self.header.declared_ranks {
                        return Err(FormatError::structural(format!(
                            "header declares {} ranks but {} rank sections were found",
                            self.header.declared_ranks, self.ranks_seen
                        )));
                    }
                    self.stage = Stage::Done;
                    Ok(None)
                }
                other => Err(FormatError::at(
                    line_no,
                    format!("expected RANK or END_TRACE, found {other:?}"),
                )),
            };
        };
        let record = match keyword {
            Some("EVENT") => TraceRecord::Event(parse_event_line(&self.header, line_no, line)?),
            Some(marker @ ("SEG_BEGIN" | "SEG_END")) => {
                let context = parse_context_ref(&self.header, line_no, tokens.next())?;
                let time = Time::from_nanos(parse_u64(line_no, tokens.next(), "time stamp")?);
                if marker == "SEG_BEGIN" {
                    TraceRecord::SegmentBegin { context, time }
                } else {
                    TraceRecord::SegmentEnd { context, time }
                }
            }
            Some("END_RANK") => {
                self.stage = Stage::Body(None);
                self.ranks_seen += 1;
                return Ok(Some(AppItem::RankEnd(rank)));
            }
            other => {
                return Err(FormatError::at(
                    line_no,
                    format!("unexpected record {other:?} inside a rank section"),
                ))
            }
        };
        Ok(Some(AppItem::Record(record)))
    }

    /// Ends the input: the header once `END_TRACE` was read, otherwise the
    /// structural error naming what the input still lacked.
    pub fn finish(self) -> Result<TraceHeader, FormatError> {
        match self.stage {
            Stage::Done => Ok(self.header),
            _ => Err(self.unexpected_end()),
        }
    }

    /// The error for input that ends before `END_TRACE`.
    pub fn unexpected_end(&self) -> FormatError {
        let expected = match &self.stage {
            Stage::Head(head) => head.expecting(),
            Stage::Body(Some(_)) => "rank records or END_RANK",
            Stage::Body(None) | Stage::Done => "RANK or END_TRACE",
        };
        FormatError::structural(format!("unexpected end of input, expected {expected}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> TraceHeader {
        TraceHeader {
            name: "t".into(),
            declared_ranks: 1,
            regions: RegionTable::from_names(vec!["work".into()]),
            contexts: ContextTable::from_names(vec!["main.1".into()]),
        }
    }

    #[test]
    fn header_builder_consumes_tables_and_stops_at_body() {
        let mut b = HeaderBuilder::new();
        assert_eq!(b.expecting(), "TRACE line");
        assert!(b.feed(2, "TRACE RANKS 3 NAME prog with spaces").unwrap());
        assert_eq!(b.expecting(), "REGION/CONTEXT table or rank data");
        assert!(b.feed(3, "REGION 0 do work").unwrap());
        assert!(b.feed(4, "CONTEXT 0 main.1").unwrap());
        assert!(!b.feed(5, "RANK 0").unwrap(), "body line not consumed");
        let t = b.finish().unwrap();
        assert_eq!(t.name, "prog with spaces");
        assert_eq!(t.declared_ranks, 3);
        assert_eq!(t.regions.names(), ["do work"]);
        assert_eq!(t.contexts.names(), ["main.1"]);
    }

    #[test]
    fn header_builder_rejects_sparse_ids_and_missing_trace_line() {
        let mut b = HeaderBuilder::new();
        assert!(b.feed(1, "REGION 0 x").is_err());
        let mut b = HeaderBuilder::new();
        b.feed(1, "TRACE RANKS 0 NAME x").unwrap();
        let err = b.feed(2, "CONTEXT 1 late").unwrap_err();
        assert!(err.message.contains("dense"), "{err}");
        let err = HeaderBuilder::new().finish().unwrap_err();
        assert_eq!(err.line, 0);
    }

    #[test]
    fn body_lines_are_classified_by_section_state() {
        let mut p = AppLineParser::new();
        for line in ["TRACEFORMAT 1", "TRACE RANKS 1 NAME t", "REGION 0 work"] {
            assert_eq!(p.feed(line).unwrap(), None);
        }
        assert_eq!(p.feed("CONTEXT 0 main.1\n").unwrap(), None);
        assert_eq!(p.feed("RANK 2").unwrap(), Some(AppItem::RankStart(Rank(2))));
        assert!(matches!(
            p.feed("SEG_BEGIN 0 5").unwrap(),
            Some(AppItem::Record(TraceRecord::SegmentBegin { .. }))
        ));
        // Section-state violations are errors with the section's message.
        let err = p.feed("RANK 1").unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.message.contains("inside a rank section"), "{err}");
        assert_eq!(p.feed("END_RANK").unwrap(), Some(AppItem::RankEnd(Rank(2))));
        assert_eq!(p.ranks_seen(), 1);
        let err = p.feed("SEG_BEGIN 0 5").unwrap_err();
        assert!(err.message.contains("expected RANK or END_TRACE"), "{err}");
        assert!(!p.is_done());
        assert_eq!(p.feed("END_TRACE").unwrap(), None);
        assert!(p.is_done());
        assert_eq!(p.finish().unwrap().regions.names(), ["work"]);
    }

    #[test]
    fn input_that_stops_early_names_what_is_missing() {
        let mut p = AppLineParser::new();
        assert!(p.unexpected_end().message.ends_with("expected header"));
        p.feed("TRACEFORMAT 1").unwrap();
        assert!(p.unexpected_end().message.ends_with("expected TRACE line"));
        p.feed("TRACE RANKS 1 NAME t").unwrap();
        p.feed("RANK 0").unwrap();
        let err = p.finish().unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.message.ends_with("expected rank records or END_RANK"));
    }

    #[test]
    fn wide_32_bit_fields_are_rejected_not_truncated() {
        let t = tables();
        let err = parse_event_line(&t, 3, "EVENT 4294967296 5 10 2 COMPUTE").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("region id 4294967296"), "{err}");
        for (line, field) in [
            ("EVENT 0 5 10 2 SEND 4294967297 0 8", "peer rank"),
            ("EVENT 0 5 10 2 RECV 1 4294967296 8", "tag"),
            (
                "EVENT 0 5 10 2 COLLECTIVE MPI_Bcast 0 4294967296 8",
                "communicator size",
            ),
        ] {
            let err = parse_event_line(&t, 1, line).unwrap_err();
            assert!(err.message.contains(field), "{line}: {err}");
            assert!(err.message.contains("does not fit 32 bits"), "{err}");
        }
        assert!(parse_context_ref(&t, 1, Some("4294967296")).is_err());
    }

    #[test]
    fn event_lines_validate_region_references() {
        let t = tables();
        let ev = parse_event_line(&t, 1, "EVENT 0 5 10 2 COMPUTE").unwrap();
        assert_eq!(ev.start.as_nanos(), 5);
        let err = parse_event_line(&t, 1, "EVENT 7 5 10 2 COMPUTE").unwrap_err();
        assert!(err.message.contains("unknown region"), "{err}");
    }
}
