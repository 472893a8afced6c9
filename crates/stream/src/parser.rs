//! Incremental, line-oriented parsing of full-trace text files.
//!
//! [`StreamParser`] reads one line at a time from any [`BufRead`] source
//! and feeds it to the full-trace grammar of `trace_format`
//! ([`trace_format::AppLineParser`]), so it accepts precisely the same
//! language, with the same errors, as the in-memory
//! [`trace_format::parse_app_trace`] — without ever holding more than one
//! line of the file in memory.

use std::io::BufRead;

use trace_format::AppLineParser;
use trace_model::{AppItem, AppItemSource, TraceHeader};

use crate::error::StreamError;

/// Pull parser for the full-trace text format over any [`BufRead`] source.
///
/// Construction reads up to the magic line; each
/// [`StreamParser::next_item`] call then yields one rank boundary or
/// record.  `Ok(None)` means the `END_TRACE` trailer was reached and the
/// declared rank count matched; [`StreamParser::finish`] then returns the
/// header.
pub struct StreamParser<R> {
    reader: R,
    line: String,
    grammar: AppLineParser,
}

impl<R: BufRead> StreamParser<R> {
    /// Starts parsing `reader`: reads up to and checks the magic line.
    pub fn new(reader: R) -> Result<Self, StreamError> {
        let mut parser = StreamParser {
            reader,
            line: String::new(),
            grammar: AppLineParser::new(),
        };
        // No line up to the magic line yields an item.
        while !parser.grammar.magic_read() {
            parser.feed_line()?;
        }
        Ok(parser)
    }

    /// Number of complete rank sections seen so far.
    pub fn ranks_seen(&self) -> usize {
        self.grammar.ranks_seen()
    }

    /// Reads the next line and feeds it to the grammar; the input ending
    /// here is an error.
    fn feed_line(&mut self) -> Result<Option<AppItem>, StreamError> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(self.grammar.unexpected_end().into());
        }
        Ok(self.grammar.feed(&self.line)?)
    }

    /// Pulls the next item, or `Ok(None)` once the trailer was consumed.
    pub fn next_item(&mut self) -> Result<Option<AppItem>, StreamError> {
        while !self.grammar.is_done() {
            if let Some(item) = self.feed_line()? {
                return Ok(Some(item));
            }
        }
        Ok(None)
    }

    /// The header, once [`StreamParser::next_item`] has returned `Ok(None)`;
    /// before that, the error for input that ends early.
    pub fn finish(self) -> Result<TraceHeader, StreamError> {
        Ok(self.grammar.finish()?)
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
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    fn parser_for(text: &str) -> StreamParser<Cursor<&[u8]>> {
        StreamParser::new(Cursor::new(text.as_bytes())).expect("valid trace")
    }

    #[test]
    fn streamed_items_rebuild_the_exact_app_trace() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let mut parser = parser_for(&text);
        let ranks = parser.collect_ranks().unwrap();
        assert_eq!(parser.ranks_seen(), app.rank_count());
        // The stream is exhausted and stays exhausted.
        assert_eq!(parser.next_item().unwrap(), None);
        assert_eq!(parser.finish().unwrap().app(ranks), app);
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
