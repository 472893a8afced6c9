//! Parsers for the text trace format.
//!
//! These parsers materialize a whole trace from an in-memory `&str`.  A
//! full trace is the one line-fed grammar of [`crate::record`] driven over
//! `str::lines` and collected into an [`AppTrace`]; the streaming path (the
//! `trace_stream` crate) feeds the same grammar from a `BufRead` source, so
//! both accept exactly the same language.

use trace_model::{
    AppItem, AppItemSource, AppTrace, ReducedAppTrace, ReducedRankTrace, Segment, SegmentExec,
    StoredSegment, Time,
};

use crate::error::FormatError;
use crate::record::{
    meaningful_line, parse_context_ref, parse_event_line, parse_u32, parse_u64, AppLineParser,
    HeaderBuilder,
};
use crate::write::REDUCED_HEADER;

/// A line with its 1-based number, with blank and comment lines skipped.
struct Lines<'a> {
    inner: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            inner: text.lines().enumerate(),
        }
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        for (index, line) in self.inner.by_ref() {
            if let Some(trimmed) = meaningful_line(line) {
                return Some((index + 1, trimmed));
            }
        }
        None
    }

    fn require(&mut self, what: &str) -> Result<(usize, &'a str), FormatError> {
        self.next().ok_or_else(|| {
            FormatError::structural(format!("unexpected end of input, expected {what}"))
        })
    }
}

/// The full-trace grammar fed from the lines of a `&str`.
struct TextItems<'a> {
    lines: std::str::Lines<'a>,
    parser: AppLineParser,
}

impl AppItemSource for TextItems<'_> {
    type Error = FormatError;

    fn next_item(&mut self) -> Result<Option<AppItem>, FormatError> {
        while !self.parser.is_done() {
            let Some(line) = self.lines.next() else {
                return Err(self.parser.unexpected_end());
            };
            if let Some(item) = self.parser.feed(line)? {
                return Ok(Some(item));
            }
        }
        Ok(None)
    }
}

/// Parses the text form of a full application trace.
pub fn parse_app_trace(text: &str) -> Result<AppTrace, FormatError> {
    let mut items = TextItems {
        lines: text.lines(),
        parser: AppLineParser::new(),
    };
    let ranks = items.collect_ranks()?;
    Ok(items.parser.finish()?.app(ranks))
}

/// Parses the text form of a reduced application trace.
pub fn parse_reduced_trace(text: &str) -> Result<ReducedAppTrace, FormatError> {
    let mut lines = Lines::new(text);
    let mut head = HeaderBuilder::after_magic(REDUCED_HEADER);
    let (header, mut line) = loop {
        let (line_no, line) = lines.require(head.expecting())?;
        if !head.feed(line_no, line)? {
            break (head.finish()?, (line_no, line));
        }
    };
    let mut ranks = Vec::new();
    loop {
        let (line_no, body) = line;
        let mut tokens = body.split_whitespace();
        match tokens.next() {
            Some("END_TRACE") => break,
            Some("RANK") => {
                let rank_id = parse_u32(line_no, tokens.next(), "rank id")?;
                let mut rank = ReducedRankTrace::new(trace_model::Rank(rank_id));
                loop {
                    let (line_no, line) = lines.require("STORED/EXEC records or END_RANK")?;
                    let mut tokens = line.split_whitespace();
                    let pushed = match tokens.next() {
                        Some("END_RANK") => break,
                        Some("STORED") => {
                            let id = parse_u32(line_no, tokens.next(), "stored segment id")?;
                            let represented =
                                parse_u32(line_no, tokens.next(), "represented count")?;
                            let context = parse_context_ref(&header, line_no, tokens.next())?;
                            let end = parse_u64(line_no, tokens.next(), "segment end")?;
                            let n_events =
                                parse_u64(line_no, tokens.next(), "event count")? as usize;
                            let mut events = Vec::new();
                            for _ in 0..n_events {
                                let (event_line_no, event_line) = lines.require("EVENT line")?;
                                if !event_line.starts_with("EVENT") {
                                    return Err(FormatError::at(
                                        event_line_no,
                                        "expected EVENT line inside a STORED segment",
                                    ));
                                }
                                events.push(parse_event_line(&header, event_line_no, event_line)?);
                            }
                            rank.push_stored(StoredSegment {
                                id,
                                segment: Segment {
                                    context,
                                    start: Time::ZERO,
                                    end: Time::from_nanos(end),
                                    events,
                                },
                                represented,
                            })
                        }
                        Some("EXEC") => {
                            let segment = parse_u32(line_no, tokens.next(), "stored segment id")?;
                            let start = parse_u64(line_no, tokens.next(), "execution start")?;
                            let exec = SegmentExec {
                                segment,
                                start: Time::from_nanos(start),
                            };
                            rank.check_exec(&exec).map(|()| rank.execs.push(exec))
                        }
                        other => {
                            return Err(FormatError::at(
                                line_no,
                                format!("unexpected record {other:?} inside a rank section"),
                            ));
                        }
                    };
                    pushed.map_err(|e| FormatError::at(line_no, e.to_string()))?;
                }
                ranks.push(rank);
            }
            other => {
                return Err(FormatError::at(
                    line_no,
                    format!("expected RANK or END_TRACE, found {other:?}"),
                ));
            }
        }
        line = lines.require("RANK or END_TRACE")?;
    }

    if ranks.len() != header.declared_ranks {
        return Err(FormatError::structural(format!(
            "header declares {} ranks but {} rank sections were found",
            header.declared_ranks,
            ranks.len()
        )));
    }
    Ok(header.reduced(ranks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::{write_app_trace, write_reduced_trace};
    use trace_reduce::{Method, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    #[test]
    fn app_trace_round_trips_exactly() {
        for kind in [
            WorkloadKind::LateSender,
            WorkloadKind::ImbalanceAtMpiBarrier,
            WorkloadKind::Sweep3d8p,
        ] {
            let app = Workload::new(kind, SizePreset::Tiny).generate();
            let text = write_app_trace(&app);
            let parsed = parse_app_trace(&text).expect("round trip must parse");
            assert_eq!(parsed, app, "{kind:?}");
        }
    }

    #[test]
    fn reduced_trace_round_trips_exactly() {
        let app = Workload::new(WorkloadKind::EarlyGather, SizePreset::Tiny).generate();
        for method in [Method::AvgWave, Method::IterK, Method::RelDiff] {
            let reduced = Reducer::with_default_threshold(method).reduce_app(&app);
            let text = write_reduced_trace(&reduced);
            let parsed = parse_reduced_trace(&text).expect("round trip must parse");
            assert_eq!(parsed, reduced, "{method}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let commented: String = text
            .lines()
            .flat_map(|l| [l, "", "# a comment"])
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = parse_app_trace(&commented).expect("comments are ignored");
        assert_eq!(parsed, app);
    }

    #[test]
    fn wrong_header_is_rejected_with_line_number() {
        let err = parse_app_trace("BOGUS 9\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse_reduced_trace("TRACEFORMAT 1\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn truncated_input_reports_a_structural_error() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let truncated: String = text.lines().take(10).collect::<Vec<_>>().join("\n");
        let err = parse_app_trace(&truncated).unwrap_err();
        assert_eq!(err.line, 0, "end-of-input errors are structural: {err}");
    }

    #[test]
    fn malformed_records_are_rejected_with_their_line() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);

        // Corrupt the first EVENT line's region id into a huge number.
        let corrupted: Vec<String> = text
            .lines()
            .map(|l| {
                if l.starts_with("EVENT") {
                    let mut parts: Vec<&str> = l.split_whitespace().collect();
                    parts[1] = "9999";
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect();
        let err = parse_app_trace(&corrupted.join("\n")).unwrap_err();
        assert!(err.line > 0);
        assert!(err.message.contains("unknown region"), "{err}");
    }

    #[test]
    fn inverted_event_times_are_rejected() {
        let text = "\
TRACEFORMAT 1
TRACE RANKS 1 NAME bad
REGION 0 do_work
CONTEXT 0 main.1
RANK 0
SEG_BEGIN 0 0
EVENT 0 50 10 0 COMPUTE
SEG_END 0 60
END_RANK
END_TRACE
";
        let err = parse_app_trace(text).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.message.contains("precedes"), "{err}");
    }

    #[test]
    fn unknown_collective_and_event_kind_are_rejected() {
        let base = "\
TRACEFORMAT 1
TRACE RANKS 1 NAME bad
REGION 0 MPI_Bcast
CONTEXT 0 main.1
RANK 0
EVENT 0 0 10 0 COLLECTIVE MPI_Bogus 0 8 64
END_RANK
END_TRACE
";
        let err = parse_app_trace(base).unwrap_err();
        assert!(err.message.contains("unknown collective"), "{err}");

        let bad_kind = base.replace("COLLECTIVE MPI_Bogus 0 8 64", "TELEPORT 1 2 3");
        let err = parse_app_trace(&bad_kind).unwrap_err();
        assert!(err.message.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn rank_count_mismatch_is_detected() {
        let text = "\
TRACEFORMAT 1
TRACE RANKS 2 NAME short
REGION 0 do_work
CONTEXT 0 main.1
RANK 0
END_RANK
END_TRACE
";
        let err = parse_app_trace(text).unwrap_err();
        assert!(err.message.contains("rank sections"), "{err}");
    }

    #[test]
    fn exec_referencing_unknown_stored_segment_is_rejected() {
        let text = "\
TRACEFORMAT_REDUCED 1
TRACE RANKS 1 NAME bad
REGION 0 do_work
CONTEXT 0 main.1
RANK 0
EXEC 3 100
END_RANK
END_TRACE
";
        let err = parse_reduced_trace(text).unwrap_err();
        assert!(err.message.contains("unknown stored segment"), "{err}");
    }

    #[test]
    fn ids_above_32_bits_are_rejected_on_their_line() {
        let text = "\
TRACEFORMAT 1
TRACE RANKS 1 NAME wide
REGION 0 do_work
CONTEXT 0 main.1
RANK 4294967297
END_RANK
END_TRACE
";
        let err = parse_app_trace(text).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.message.contains("rank id 4294967297"), "{err}");

        let wide_region =
            text.replace("RANK 4294967297", "RANK 0\nEVENT 4294967296 0 10 0 COMPUTE");
        let err = parse_app_trace(&wide_region).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.message.contains("region id 4294967296"), "{err}");

        let reduced = text.replace("TRACEFORMAT 1", "TRACEFORMAT_REDUCED 1");
        let err = parse_reduced_trace(&reduced).unwrap_err();
        assert_eq!(err.line, 5);
    }

    #[test]
    fn huge_declared_counts_are_errors_not_allocations() {
        let text = "TRACEFORMAT 1\nTRACE RANKS 18446744073709551615 NAME x\nEND_TRACE\n";
        let err = parse_app_trace(text).unwrap_err();
        assert!(err.message.contains("rank sections"), "{err}");
        let reduced = "TRACEFORMAT_REDUCED 1\nTRACE RANKS 1 NAME x\nCONTEXT 0 main\n\
                       RANK 0\nSTORED 0 1 0 10 18446744073709551615\n";
        let err = parse_reduced_trace(reduced).unwrap_err();
        assert!(err.message.contains("expected EVENT line"), "{err}");
    }

    #[test]
    fn region_ids_must_be_dense() {
        let text = "\
TRACEFORMAT 1
TRACE RANKS 0 NAME sparse
REGION 0 a
REGION 2 b
END_TRACE
";
        let err = parse_app_trace(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("dense"), "{err}");
    }
}
