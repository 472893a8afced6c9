//! Cutting a rank trace into segments (Section 3.1).
//!
//! The tracer brackets every loop iteration (and the init/final phases) with
//! segment markers; the segmenter walks the raw record stream, collects the
//! events between a `SegmentBegin` and its matching `SegmentEnd`, and rebases
//! their time stamps to the segment start.

use trace_model::{RankTrace, Segment, Time, TraceRecord};

/// Statistics about a segmentation pass, used for trace-quality checks and
/// reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentationStats {
    /// Number of complete segments produced.
    pub segments: usize,
    /// Number of events that fell inside a segment.
    pub events_in_segments: usize,
    /// Number of events encountered outside any segment (dropped).
    pub orphan_events: usize,
    /// Number of `SegmentBegin` markers that never saw a matching end
    /// (closed implicitly at the last event).
    pub unterminated_segments: usize,
}

/// Online (record-at-a-time) segmenter.
///
/// The batch helpers below and the reduction driver
/// ([`crate::parallel::SectionReducer`]) both drive this state machine, so a record stream
/// is segmented identically whether it arrives from an in-memory
/// [`RankTrace`] or one line at a time from a file.  At most one segment is
/// in flight per segmenter — the bounded-memory guarantee the streaming
/// reducer relies on.
#[derive(Clone, Debug, Default)]
pub struct OnlineSegmenter {
    current: Option<(trace_model::ContextId, Time, Vec<trace_model::Event>)>,
    stats: SegmentationStats,
}

impl OnlineSegmenter {
    /// Creates a segmenter with no segment in flight.
    pub fn new() -> Self {
        OnlineSegmenter::default()
    }

    /// Feeds one record, returning a segment if this record completed one.
    pub fn push(&mut self, record: &TraceRecord) -> Option<Segment> {
        match record {
            TraceRecord::SegmentBegin { context, time } => {
                let closed = self.current.take().map(|(ctx, start, events)| {
                    // Unterminated segment: close it at the latest known time.
                    self.stats.unterminated_segments += 1;
                    let end = events.iter().map(|e| e.end).max().unwrap_or(start);
                    self.emit(ctx, start, end, events)
                });
                self.current = Some((*context, *time, Vec::new()));
                closed
            }
            TraceRecord::SegmentEnd { context, time } => {
                match self.current.take() {
                    Some((ctx, start, events)) => {
                        if ctx != *context {
                            // Mismatched end marker: close the open segment at
                            // the marker time anyway, attributing it to its
                            // own context.
                            self.stats.unterminated_segments += 1;
                        }
                        Some(self.emit(ctx, start, *time, events))
                    }
                    // End without a begin: ignore.
                    None => None,
                }
            }
            TraceRecord::Event(event) => {
                if let Some((_, _, events)) = self.current.as_mut() {
                    events.push(*event);
                } else {
                    self.stats.orphan_events += 1;
                }
                None
            }
        }
    }

    /// Closes the in-flight segment (if any) at its latest known time.  Call
    /// once at the end of the record stream.
    pub fn finish(&mut self) -> Option<Segment> {
        self.current.take().map(|(ctx, start, events)| {
            self.stats.unterminated_segments += 1;
            let end = events.iter().map(|e| e.end).max().unwrap_or(start);
            self.emit(ctx, start, end, events)
        })
    }

    /// True if a segment is currently in flight.
    pub fn has_open_segment(&self) -> bool {
        self.current.is_some()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SegmentationStats {
        self.stats
    }

    fn emit(
        &mut self,
        ctx: trace_model::ContextId,
        start: Time,
        end: Time,
        events: Vec<trace_model::Event>,
    ) -> Segment {
        self.stats.events_in_segments += events.len();
        self.stats.segments += 1;
        Segment::from_absolute(ctx, start, end, events)
    }
}

/// Cuts a rank trace into rebased segments; also returns statistics about
/// malformed marker structure (orphan events, unterminated segments).
pub fn segments_of_rank_with_stats(trace: &RankTrace) -> (Vec<Segment>, SegmentationStats) {
    let mut segmenter = OnlineSegmenter::new();
    let mut segments = Vec::new();
    for record in &trace.records {
        if let Some(segment) = segmenter.push(record) {
            segments.push(segment);
        }
    }
    if let Some(segment) = segmenter.finish() {
        segments.push(segment);
    }
    (segments, segmenter.stats())
}

/// Cuts a rank trace into rebased segments.
pub fn segments_of_rank(trace: &RankTrace) -> Vec<Segment> {
    segments_of_rank_with_stats(trace).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{ContextId, Event, Rank, RegionId};

    fn event(start: u64, end: u64) -> Event {
        Event::compute(RegionId(0), Time::from_nanos(start), Time::from_nanos(end))
    }

    #[test]
    fn well_formed_trace_segments_cleanly() {
        let mut rt = RankTrace::new(Rank(0));
        let ctx = ContextId(3);
        for base in [100u64, 300, 500] {
            rt.begin_segment(ctx, Time::from_nanos(base));
            rt.push_event(event(base + 10, base + 50));
            rt.push_event(event(base + 60, base + 120));
            rt.end_segment(ctx, Time::from_nanos(base + 150));
        }
        let (segments, stats) = segments_of_rank_with_stats(&rt);
        assert_eq!(segments.len(), 3);
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.events_in_segments, 6);
        assert_eq!(stats.orphan_events, 0);
        assert_eq!(stats.unterminated_segments, 0);
        for (i, seg) in segments.iter().enumerate() {
            assert_eq!(seg.start.as_nanos(), 100 + 200 * i as u64);
            assert_eq!(seg.end.as_nanos(), 150);
            assert_eq!(seg.events.len(), 2);
            assert_eq!(seg.events[0].start.as_nanos(), 10);
            assert_eq!(seg.events[1].end.as_nanos(), 120);
            assert!(seg.is_well_formed());
        }
    }

    #[test]
    fn orphan_events_are_counted_and_dropped() {
        let mut rt = RankTrace::new(Rank(0));
        rt.push_event(event(0, 5));
        rt.begin_segment(ContextId(0), Time::from_nanos(10));
        rt.push_event(event(11, 12));
        rt.end_segment(ContextId(0), Time::from_nanos(13));
        rt.push_event(event(20, 25));
        let (segments, stats) = segments_of_rank_with_stats(&rt);
        assert_eq!(segments.len(), 1);
        assert_eq!(stats.orphan_events, 2);
        assert_eq!(stats.events_in_segments, 1);
    }

    #[test]
    fn unterminated_segment_is_closed_at_last_event() {
        let mut rt = RankTrace::new(Rank(0));
        rt.begin_segment(ContextId(0), Time::from_nanos(10));
        rt.push_event(event(12, 40));
        // A new segment begins without the previous one ending.
        rt.begin_segment(ContextId(0), Time::from_nanos(50));
        rt.push_event(event(51, 60));
        let (segments, stats) = segments_of_rank_with_stats(&rt);
        assert_eq!(segments.len(), 2);
        assert_eq!(stats.unterminated_segments, 2);
        assert_eq!(
            segments[0].end.as_nanos(),
            30,
            "closed at last event end (40) - start (10)"
        );
        assert_eq!(segments[1].end.as_nanos(), 10);
    }

    #[test]
    fn empty_trace_produces_no_segments() {
        let rt = RankTrace::new(Rank(0));
        let (segments, stats) = segments_of_rank_with_stats(&rt);
        assert!(segments.is_empty());
        assert_eq!(stats, SegmentationStats::default());
    }

    #[test]
    fn mismatched_end_marker_closes_open_segment() {
        let mut rt = RankTrace::new(Rank(0));
        rt.begin_segment(ContextId(0), Time::from_nanos(0));
        rt.push_event(event(1, 5));
        rt.end_segment(ContextId(9), Time::from_nanos(6));
        let (segments, stats) = segments_of_rank_with_stats(&rt);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].context, ContextId(0));
        assert_eq!(stats.unterminated_segments, 1);
    }

    #[test]
    fn segments_of_simulated_trace_cover_all_events() {
        use trace_sim::{SizePreset, Workload, WorkloadKind};
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        for rank in &app.ranks {
            let (segments, stats) = segments_of_rank_with_stats(rank);
            assert_eq!(stats.orphan_events, 0);
            assert_eq!(stats.unterminated_segments, 0);
            assert_eq!(stats.events_in_segments, rank.event_count());
            assert_eq!(segments.len(), rank.segment_instance_count());
            assert!(segments.iter().all(Segment::is_well_formed));
        }
    }
}
