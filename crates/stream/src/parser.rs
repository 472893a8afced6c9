//! Incremental, line-oriented parsing of full-trace text files.
//!
//! [`StreamParser`] pulls one record at a time from any [`BufRead`] source,
//! reusing the exact line-level grammar of `trace_format` (the
//! [`trace_format::record`] module), so it accepts precisely the same
//! language as the in-memory [`trace_format::parse_app_trace`] — without
//! ever holding more than one line of the file in memory.

use std::io::{self, BufRead};

use trace_format::record::{parse_app_body_line, AppBodyLine, HeaderBuilder, TraceTables};
use trace_format::write::APP_HEADER;
use trace_format::FormatError;
use trace_model::Rank;
use trace_reduce::{AppItem, AppItemSource};

use crate::error::StreamError;

/// Reads meaningful lines (blank and `#`-comment lines skipped) from a
/// buffered source, tracking 1-based line numbers.  Only one line is
/// buffered at a time.
struct LineReader<R> {
    inner: R,
    buf: String,
    line_no: usize,
}

impl<R: BufRead> LineReader<R> {
    fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: String::new(),
            line_no: 0,
        }
    }

    /// Advances to the next meaningful line, returning its number (the text
    /// is available via [`LineReader::current`]) or `None` at end of input.
    /// Line classification is the shared rule in
    /// [`trace_format::record::meaningful_line`].
    fn next_line(&mut self) -> io::Result<Option<usize>> {
        loop {
            self.buf.clear();
            if self.inner.read_line(&mut self.buf)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if trace_format::record::meaningful_line(&self.buf).is_some() {
                return Ok(Some(self.line_no));
            }
        }
    }

    /// The text of the line [`LineReader::next_line`] advanced to.
    /// `next_line` only stops on meaningful lines, so the fallback empty
    /// string is never produced in practice; an empty line simply fails the
    /// caller's grammar with a parse error instead of panicking here.
    fn current(&self) -> &str {
        trace_format::record::meaningful_line(&self.buf).unwrap_or("")
    }
}

#[derive(Clone, Copy, Debug)]
enum State {
    Body,
    InRank(Rank),
    Done,
}

/// Pull parser for the full-trace text format over any [`BufRead`] source.
///
/// Construction parses the magic line and the header tables; each
/// [`StreamParser::next_item`] call then yields one rank boundary or record.
/// `Ok(None)` means the `END_TRACE` trailer was reached and the declared
/// rank count matched.
pub struct StreamParser<R> {
    lines: LineReader<R>,
    tables: TraceTables,
    /// First body line, already consumed while detecting the header's end.
    pending: Option<(usize, String)>,
    state: State,
    ranks_seen: usize,
}

impl<R: BufRead> StreamParser<R> {
    /// Reads the magic line and header tables from `reader`.
    pub fn new(reader: R) -> Result<Self, StreamError> {
        let mut lines = LineReader::new(reader);
        let line_no = lines
            .next_line()?
            .ok_or_else(|| FormatError::structural("unexpected end of input, expected header"))?;
        let first = lines.current();
        if first != APP_HEADER {
            return Err(FormatError::at(
                line_no,
                format!("expected header {APP_HEADER:?}, found {first:?}"),
            )
            .into());
        }

        let mut builder = HeaderBuilder::new();
        let pending;
        loop {
            let Some(line_no) = lines.next_line()? else {
                return Err(FormatError::structural(format!(
                    "unexpected end of input, expected {}",
                    builder.expecting()
                ))
                .into());
            };
            let line = lines.current();
            if !builder.feed(line_no, line)? {
                pending = Some((line_no, line.to_string()));
                break;
            }
        }

        Ok(StreamParser {
            lines,
            tables: builder.finish()?,
            pending,
            state: State::Body,
            ranks_seen: 0,
        })
    }

    /// The header tables (program name, declared rank count, region and
    /// context names).
    pub fn tables(&self) -> &TraceTables {
        &self.tables
    }

    /// Number of complete rank sections seen so far.
    pub fn ranks_seen(&self) -> usize {
        self.ranks_seen
    }

    /// Pulls the next item, or `Ok(None)` once the trailer was consumed.
    pub fn next_item(&mut self) -> Result<Option<AppItem>, StreamError> {
        let in_rank = matches!(self.state, State::InRank(_));
        if matches!(self.state, State::Done) {
            return Ok(None);
        }

        let parsed = if let Some((line_no, line)) = self.pending.take() {
            parse_app_body_line(&self.tables, line_no, &line, in_rank)?
        } else {
            let what = if in_rank {
                "rank records or END_RANK"
            } else {
                "RANK or END_TRACE"
            };
            let Some(line_no) = self.lines.next_line()? else {
                return Err(FormatError::structural(format!(
                    "unexpected end of input, expected {what}"
                ))
                .into());
            };
            parse_app_body_line(&self.tables, line_no, self.lines.current(), in_rank)?
        };

        match parsed {
            AppBodyLine::RankStart(rank) => {
                self.state = State::InRank(rank);
                Ok(Some(AppItem::RankStart(rank)))
            }
            AppBodyLine::Record(record) => Ok(Some(AppItem::Record(record))),
            AppBodyLine::EndRank => {
                // `parse_app_body_line` only yields END_RANK when told a
                // rank section is open; report a parser bug as a structural
                // error rather than trusting the invariant with a panic.
                let State::InRank(rank) = self.state else {
                    return Err(FormatError::structural("END_RANK outside a rank section").into());
                };
                self.state = State::Body;
                self.ranks_seen += 1;
                Ok(Some(AppItem::RankEnd(rank)))
            }
            AppBodyLine::EndTrace => {
                if self.ranks_seen != self.tables.declared_ranks {
                    return Err(FormatError::structural(format!(
                        "header declares {} ranks but {} rank sections were found",
                        self.tables.declared_ranks, self.ranks_seen
                    ))
                    .into());
                }
                self.state = State::Done;
                Ok(None)
            }
        }
    }
}

impl<R: BufRead> AppItemSource for StreamParser<R> {
    type Error = StreamError;

    fn next_item(&mut self) -> Result<Option<AppItem>, StreamError> {
        StreamParser::next_item(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use trace_format::write_app_trace;
    use trace_model::{AppTrace, RankTrace};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    fn parser_for(text: &str) -> StreamParser<Cursor<&[u8]>> {
        StreamParser::new(Cursor::new(text.as_bytes())).expect("valid trace")
    }

    #[test]
    fn streamed_items_rebuild_the_exact_app_trace() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let mut parser = parser_for(&text);
        let tables = parser.tables().clone();
        let mut rebuilt = AppTrace {
            name: tables.name.clone(),
            regions: tables.regions.clone(),
            contexts: tables.contexts.clone(),
            ranks: Vec::new(),
        };
        let mut open: Option<RankTrace> = None;
        while let Some(item) = parser.next_item().unwrap() {
            match item {
                AppItem::RankStart(rank) => open = Some(RankTrace::new(rank)),
                AppItem::Record(record) => open.as_mut().unwrap().push(record),
                AppItem::RankEnd(_) => rebuilt.ranks.push(open.take().unwrap()),
            }
        }
        assert_eq!(rebuilt, app);
        assert_eq!(parser.ranks_seen(), app.rank_count());
        // The stream is exhausted and stays exhausted.
        assert_eq!(parser.next_item().unwrap(), None);
    }

    #[test]
    fn errors_match_the_in_memory_parser() {
        // Same malformed inputs as the parse.rs tests: the stream parser
        // reports the same line numbers and messages.
        let Err(err) = StreamParser::new(Cursor::new(b"BOGUS 9\n".as_slice())) else {
            panic!("bad magic line must fail");
        };
        assert_eq!(err.as_format().unwrap().line, 1);

        let truncated = "TRACEFORMAT 1\nTRACE RANKS 1 NAME x\nRANK 0\n";
        let mut parser = parser_for(truncated);
        let mut err = None;
        loop {
            match parser.next_item() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let err = err.expect("truncated input must fail");
        assert_eq!(err.as_format().unwrap().line, 0, "structural: {err}");

        let mismatch = "TRACEFORMAT 1\nTRACE RANKS 2 NAME x\nRANK 0\nEND_RANK\nEND_TRACE\n";
        let mut parser = parser_for(mismatch);
        let err = loop {
            match parser.next_item() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("rank-count mismatch must fail"),
                Err(e) => break e,
            }
        };
        assert!(
            err.as_format().unwrap().message.contains("rank sections"),
            "{err}"
        );
    }

    #[test]
    fn comments_and_blank_lines_are_skipped_with_correct_numbering() {
        let text = "\
TRACEFORMAT 1

# a comment
TRACE RANKS 1 NAME x
CONTEXT 0 main.1
RANK 0
SEG_BEGIN 0 0
SEG_END 0 5
END_RANK
END_TRACE
";
        let mut parser = parser_for(text);
        let mut records = 0;
        while let Some(item) = parser.next_item().unwrap() {
            if matches!(item, AppItem::Record(_)) {
                records += 1;
            }
        }
        assert_eq!(records, 2);
    }
}
