//! Reduced traces: representative segments plus a segment-execution log.
//!
//! The reduction keeps, per rank, a list of *stored segments* (one
//! representative per behaviour found by the similarity metric) and a list of
//! *segment executions* `(representative id, absolute start time)` — the
//! `storedSegments` and `segmentExecs` structures of Section 3.1.  A full
//! trace can be approximated again by replaying each execution's
//! representative at its recorded start time.

use std::collections::BTreeSet;
use std::fmt;

use crate::ids::{ContextTable, Rank, RegionTable};
use crate::segment::Segment;
use crate::time::Time;
use crate::trace::{AppTrace, RankTrace};

/// Identifier of a stored representative segment within one rank's reduced
/// trace.
pub type StoredSegmentId = u32;

/// A decoded reduced rank trace that breaks the id invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReducedTraceError {
    /// A stored segment's id is not its position in the stored list.
    SparseStoredId {
        /// The id the next stored segment must have.
        expected: usize,
        /// The id it has.
        found: StoredSegmentId,
    },
    /// An execution references a stored segment that does not exist.
    UnknownStoredSegment(StoredSegmentId),
}

impl fmt::Display for ReducedTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReducedTraceError::SparseStoredId { expected, found } => {
                write!(
                    f,
                    "stored ids must be dense; expected {expected} got {found}"
                )
            }
            ReducedTraceError::UnknownStoredSegment(id) => {
                write!(f, "execution references unknown stored segment {id}")
            }
        }
    }
}

impl std::error::Error for ReducedTraceError {}

/// A representative segment kept in the reduced trace.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSegment {
    /// Identifier referenced by [`SegmentExec`] entries.
    pub id: StoredSegmentId,
    /// The representative segment (rebased to its own start).
    pub segment: Segment,
    /// How many segment instances this representative stands for (including
    /// itself).  Used by the averaging reducer and by reporting.
    pub represented: u32,
}

/// One entry of the segment-execution log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentExec {
    /// Which stored segment executed.
    pub segment: StoredSegmentId,
    /// Absolute start time of this execution in the original trace.
    pub start: Time,
}

/// The reduced trace of a single rank.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReducedRankTrace {
    /// The rank this reduced trace belongs to.
    pub rank: Rank,
    /// Stored representative segments, indexed by their id.
    pub stored: Vec<StoredSegment>,
    /// Execution log in original trace order.
    pub execs: Vec<SegmentExec>,
}

impl ReducedRankTrace {
    /// Creates an empty reduced trace for `rank`.
    pub fn new(rank: Rank) -> Self {
        ReducedRankTrace {
            rank,
            stored: Vec::new(),
            execs: Vec::new(),
        }
    }

    /// Number of stored representative segments.
    pub fn stored_count(&self) -> usize {
        self.stored.len()
    }

    /// Number of segment executions (equals the number of segment instances
    /// in the original trace).
    pub fn exec_count(&self) -> usize {
        self.execs.len()
    }

    /// Number of matches that occurred: executions that reused an existing
    /// representative instead of storing a new one.
    pub fn match_count(&self) -> usize {
        self.exec_count().saturating_sub(self.stored_count())
    }

    /// Number of *possible* matches, limited by program structure: an
    /// execution can only possibly match if an earlier segment instance had
    /// the same context, events and call parameters (Section 4.3.2).
    pub fn possible_match_count(&self) -> usize {
        let distinct_keys: BTreeSet<_> = self.stored.iter().map(|s| s.segment.key()).collect();
        self.exec_count().saturating_sub(distinct_keys.len())
    }

    /// Degree of matching: matches / possible matches, in `[0, 1]`.
    /// Returns 1.0 when no matches are possible (nothing was missed).
    pub fn degree_of_matching(&self) -> f64 {
        let possible = self.possible_match_count();
        if possible == 0 {
            1.0
        } else {
            self.match_count() as f64 / possible as f64
        }
    }

    /// Looks up a stored segment by id.  Ids are dense (`stored[i].id ==
    /// i`): every reducer produces them so and every reader checks it
    /// ([`ReducedRankTrace::push_stored`]).  An id that
    /// [`ReducedRankTrace::check_exec`] accepts always resolves.
    pub fn stored_segment(&self, id: StoredSegmentId) -> Option<&StoredSegment> {
        self.stored.get(id as usize)
    }

    /// Appends a decoded stored segment, checking that its id is the next
    /// dense id.
    pub fn push_stored(&mut self, stored: StoredSegment) -> Result<(), ReducedTraceError> {
        if stored.id as usize != self.stored.len() {
            return Err(ReducedTraceError::SparseStoredId {
                expected: self.stored.len(),
                found: stored.id,
            });
        }
        self.stored.push(stored);
        Ok(())
    }

    /// Checks that a decoded execution references a stored segment of this
    /// rank.  Every format stores all representatives of a rank before its
    /// executions, so readers check each execution against the stored
    /// segments read so far, or all of them once the section ends.
    pub fn check_exec(&self, exec: &SegmentExec) -> Result<(), ReducedTraceError> {
        if exec.segment as usize >= self.stored.len() {
            return Err(ReducedTraceError::UnknownStoredSegment(exec.segment));
        }
        Ok(())
    }

    /// Reconstructs an approximate full rank trace by replaying each
    /// execution's representative segment at its recorded start time.
    ///
    /// Unknown segment ids are skipped; reducers and readers never produce
    /// them, so only a hand-built trace can hold one.
    pub fn reconstruct(&self) -> RankTrace {
        let mut trace = RankTrace::new(self.rank);
        for exec in &self.execs {
            let Some(stored) = self.stored_segment(exec.segment) else {
                continue;
            };
            let seg = &stored.segment;
            trace.begin_segment(seg.context, exec.start);
            for event in &seg.events {
                trace.push_event(event.offset(exec.start));
            }
            trace.end_segment(seg.context, exec.start + seg.end);
        }
        trace
    }
}

/// The reduced trace of a whole application run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReducedAppTrace {
    /// Name of the traced program.
    pub name: String,
    /// Region name table (shared with the full trace).
    pub regions: RegionTable,
    /// Context name table (shared with the full trace).
    pub contexts: ContextTable,
    /// Per-rank reduced traces.
    pub ranks: Vec<ReducedRankTrace>,
}

impl ReducedAppTrace {
    /// Creates an empty reduced application trace that shares the name
    /// tables of `full`.
    pub fn for_app(full: &AppTrace) -> Self {
        ReducedAppTrace {
            name: full.name.clone(),
            regions: full.regions.clone(),
            contexts: full.contexts.clone(),
            ranks: Vec::with_capacity(full.rank_count()),
        }
    }

    /// Number of ranks.
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Total stored representative segments across ranks.
    pub fn total_stored(&self) -> usize {
        self.ranks.iter().map(ReducedRankTrace::stored_count).sum()
    }

    /// Total segment executions across ranks.
    pub fn total_execs(&self) -> usize {
        self.ranks.iter().map(ReducedRankTrace::exec_count).sum()
    }

    /// Application-wide degree of matching: total matches over total
    /// possible matches (Section 4.3.2).
    pub fn degree_of_matching(&self) -> f64 {
        let matches: usize = self.ranks.iter().map(ReducedRankTrace::match_count).sum();
        let possible: usize = self
            .ranks
            .iter()
            .map(ReducedRankTrace::possible_match_count)
            .sum();
        if possible == 0 {
            1.0
        } else {
            matches as f64 / possible as f64
        }
    }

    /// Reconstructs an approximate full application trace.
    pub fn reconstruct(&self) -> AppTrace {
        AppTrace {
            name: self.name.clone(),
            regions: self.regions.clone(),
            contexts: self.contexts.clone(),
            ranks: self
                .ranks
                .iter()
                .map(ReducedRankTrace::reconstruct)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::ids::{ContextId, RegionId};

    fn segment(context: u32, duration: u64, event_end: u64) -> Segment {
        Segment {
            context: ContextId(context),
            start: Time::ZERO,
            end: Time::from_nanos(duration),
            events: vec![Event::compute(
                RegionId(0),
                Time::from_nanos(1),
                Time::from_nanos(event_end),
            )],
        }
    }

    fn reduced_with_two_reps() -> ReducedRankTrace {
        let mut r = ReducedRankTrace::new(Rank(0));
        r.stored.push(StoredSegment {
            id: 0,
            segment: segment(0, 50, 20),
            represented: 2,
        });
        r.stored.push(StoredSegment {
            id: 1,
            segment: segment(0, 80, 70),
            represented: 1,
        });
        r.execs = vec![
            SegmentExec {
                segment: 0,
                start: Time::from_nanos(0),
            },
            SegmentExec {
                segment: 1,
                start: Time::from_nanos(100),
            },
            SegmentExec {
                segment: 0,
                start: Time::from_nanos(200),
            },
        ];
        r
    }

    #[test]
    fn counting_matches_and_possible_matches() {
        let r = reduced_with_two_reps();
        assert_eq!(r.exec_count(), 3);
        assert_eq!(r.stored_count(), 2);
        assert_eq!(r.match_count(), 1);
        // Both representatives share the same key (same context and shape),
        // so 2 of the 3 instances could possibly have matched.
        assert_eq!(r.possible_match_count(), 2);
        assert!((r.degree_of_matching() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degree_of_matching_is_one_when_nothing_possible() {
        let mut r = ReducedRankTrace::new(Rank(0));
        r.stored.push(StoredSegment {
            id: 0,
            segment: segment(0, 10, 5),
            represented: 1,
        });
        r.execs.push(SegmentExec {
            segment: 0,
            start: Time::ZERO,
        });
        assert_eq!(r.possible_match_count(), 0);
        assert_eq!(r.degree_of_matching(), 1.0);
    }

    #[test]
    fn reconstruct_replays_segments_at_exec_starts() {
        let r = reduced_with_two_reps();
        let trace = r.reconstruct();
        assert_eq!(trace.segment_instance_count(), 3);
        assert_eq!(trace.event_count(), 3);
        let events: Vec<_> = trace.events().collect();
        assert_eq!(events[0].start.as_nanos(), 1);
        assert_eq!(events[1].start.as_nanos(), 101);
        assert_eq!(events[1].end.as_nanos(), 170);
        assert_eq!(events[2].start.as_nanos(), 201);
        assert!(trace.is_well_formed());
    }

    #[test]
    fn reconstruct_skips_unknown_ids() {
        let mut r = reduced_with_two_reps();
        r.execs.push(SegmentExec {
            segment: 99,
            start: Time::from_nanos(500),
        });
        let trace = r.reconstruct();
        assert_eq!(trace.segment_instance_count(), 3);
    }

    #[test]
    fn app_level_aggregation() {
        let mut app = ReducedAppTrace::default();
        app.ranks.push(reduced_with_two_reps());
        app.ranks.push(reduced_with_two_reps());
        assert_eq!(app.total_stored(), 4);
        assert_eq!(app.total_execs(), 6);
        assert!((app.degree_of_matching() - 0.5).abs() < 1e-12);
        let full = app.reconstruct();
        assert_eq!(full.rank_count(), 2);
    }
}
