//! The stored-segments reduction algorithm (Section 3.1).
//!
//! For every rank the reducer walks the segments in trace order and, for
//! each new segment, looks for an *eligible* stored representative (same
//! context, same events in the same order, same message-passing parameters)
//! that the configured similarity method accepts.  On a match only the
//! `(representative id, start time)` pair is appended to the execution log;
//! otherwise the segment is stored as a new representative.
//!
//! [`OnlineRankReducer`] runs this loop for every method of the catalogue
//! ([`ExtendedConfig`]: the nine paper methods and the five extensions).
//! The rule that decides a match is picked once per rank:
//!
//! * **Iteration.**  `iter_k` stores the first `k` instances of every
//!   segment pattern and maps later instances to the most recently stored
//!   one (the paper's footnote: missing executions are filled in with the
//!   last collected segment of the pattern); `iter_avg` stores exactly one
//!   instance per pattern whose measurements are the running average over
//!   all instances.
//! * **Cached features plus a kernel** ([`crate::features`]).  Each stored
//!   representative carries a [`SegmentFeatures`] cache computed once at
//!   store time, and the incoming segment's features are computed once per
//!   segment into a reusable [`MatchScratch`].  The paper distance methods
//!   search the candidate index ([`crate::index`]) with admissible
//!   prefilters and early-abandoning kernels; `cosine`, `normEuclidean`
//!   and `cdf97Wave` scan the bucket (`cosine` is scale-invariant, so no
//!   duration window is admissible for it).
//! * **Raw-segment predicate.**  `dtw` and `histogramDelta` read segment
//!   structure no cache holds, so each comparison calls
//!   [`segments_match_extended`] on the stored representative.
//!
//! The naive loop — one allocating [`segments_match_extended`] call per
//! comparison, no prefilters — survives as [`reduce_rank_reference`] for
//! equivalence testing; both paths produce bit-identical
//! [`ReducedRankTrace`]s.

use std::collections::BTreeMap;

use trace_model::{
    AppTrace, Rank, RankItems, RankTrace, ReducedAppTrace, ReducedRankTrace, Segment, SegmentExec,
    SegmentKey, StoredSegment, Time,
};

use crate::extended::{segments_match_extended, CachedKernel, ExtendedConfig, ExtendedMethod};
use crate::features::{
    segments_match_cached, FeatureKind, MatchScratch, MatchStats, SegmentFeatures,
};
use crate::index::{CandidateIndex, CandidateSearch};
use crate::method::{Method, MethodConfig};
use crate::parallel::SectionReducer;
use crate::segmenter::{segments_of_rank_with_stats, SegmentationStats};

/// The result of reducing one rank's trace.
#[derive(Clone, Debug, PartialEq)]
pub struct RankReduction {
    /// The reduced trace (stored representatives plus execution log).
    pub reduced: ReducedRankTrace,
    /// Statistics from the segmentation pass.
    pub segmentation: SegmentationStats,
    /// Similarity-matching counters (comparisons, prefilter hits, early
    /// abandons).  The naive reference path only fills the comparison and
    /// match counts — it has no prefilters to hit.
    pub matching: MatchStats,
}

/// Running-average accumulator used by `iter_avg`.
#[derive(Clone, Debug)]
struct AverageState {
    count: f64,
    end_sum: f64,
    event_sums: Vec<(f64, f64)>,
}

impl AverageState {
    fn new(segment: &Segment) -> Self {
        AverageState {
            count: 1.0,
            end_sum: segment.end.as_f64(),
            event_sums: segment
                .events
                .iter()
                .map(|e| (e.start.as_f64(), e.end.as_f64()))
                .collect(),
        }
    }

    fn accumulate(&mut self, segment: &Segment) {
        self.count += 1.0;
        self.end_sum += segment.end.as_f64();
        for (sum, event) in self.event_sums.iter_mut().zip(&segment.events) {
            sum.0 += event.start.as_f64();
            sum.1 += event.end.as_f64();
        }
    }

    /// Writes the averaged measurements into `segment`.
    fn finalize_into(&self, segment: &mut Segment) {
        segment.end = Time::from_f64(self.end_sum / self.count);
        for (event, sum) in segment.events.iter_mut().zip(&self.event_sums) {
            event.start = Time::from_f64(sum.0 / self.count);
            event.end = Time::from_f64(sum.1 / self.count);
            // Averaged events may drift past the averaged segment end by a
            // rounding error; clamp to keep the segment well formed.
            if event.end > segment.end {
                segment.end = event.end;
            }
        }
    }
}

/// The iteration-based methods pick a match by its position in the
/// same-shape bucket; they never run a similarity test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Iteration {
    /// `iter_k`: store the first `k` instances, then map to the last one.
    K(usize),
    /// `iter_avg`: one running-average instance per pattern.
    Average,
}

impl Iteration {
    /// The iteration rule of `config`, if it names an iteration method.
    fn of(config: &ExtendedConfig) -> Option<Iteration> {
        match config.method {
            ExtendedMethod::Paper(Method::IterK) => Some(Iteration::K(
                MethodConfig::new(Method::IterK, config.threshold).iter_k(),
            )),
            ExtendedMethod::Paper(Method::IterAvg) => Some(Iteration::Average),
            _ => None,
        }
    }

    /// The stored id an instance maps to, given its bucket in insertion
    /// order (`None` stores the instance).
    fn pick(self, ids: &[u32]) -> Option<u32> {
        match self {
            Iteration::Average => ids.first().copied(),
            Iteration::K(k) if ids.len() >= k => ids.last().copied(),
            Iteration::K(_) => None,
        }
    }
}

/// How a rank's reducer matches an incoming segment against the eligible
/// stored representatives; picked once, when the reducer is built.
#[derive(Clone, Copy, Debug)]
enum MatchRule {
    /// `iter_k` / `iter_avg`: position in the bucket decides.
    Iteration(Iteration),
    /// A paper distance method over cached features, searched through the
    /// bucket's candidate index.
    Indexed(MethodConfig),
    /// A cached-feature kernel over the bucket in insertion order.
    Scan(CachedKernel),
    /// A raw-segment predicate against each stored representative.
    Raw(ExtendedConfig),
}

impl MatchRule {
    fn new(config: ExtendedConfig, search: CandidateSearch) -> MatchRule {
        if let Some(iteration) = Iteration::of(&config) {
            return MatchRule::Iteration(iteration);
        }
        match (CachedKernel::of(&config), search) {
            (Some(CachedKernel::Paper(paper)), CandidateSearch::Indexed) => {
                MatchRule::Indexed(paper)
            }
            (Some(kernel), _) => MatchRule::Scan(kernel),
            (None, _) => MatchRule::Raw(config),
        }
    }

    /// The features the rule reads from every segment.
    fn feature_kind(self) -> FeatureKind {
        match self {
            MatchRule::Indexed(config) => CachedKernel::Paper(config).feature_kind(),
            MatchRule::Scan(kernel) => kernel.feature_kind(),
            MatchRule::Iteration(_) | MatchRule::Raw(_) => FeatureKind::None,
        }
    }
}

/// The reduced rank trace under construction: stored representatives, the
/// execution log and, for `iter_avg`, each representative's running
/// average.
#[derive(Clone, Debug)]
struct RankLog {
    reduced: ReducedRankTrace,
    averages: Option<Vec<AverageState>>,
}

impl RankLog {
    fn new(rank: Rank, iteration: Option<Iteration>) -> Self {
        RankLog {
            reduced: ReducedRankTrace::new(rank),
            averages: (iteration == Some(Iteration::Average)).then(Vec::new),
        }
    }

    /// Logs one execution of `segment`: as an instance of representative
    /// `matched`, or — when nothing matched — by storing `segment` as a new
    /// representative, whose id is returned.
    fn record(&mut self, matched: Option<u32>, mut segment: Segment) -> Option<u32> {
        let start = segment.start;
        if let Some(id) = matched {
            self.reduced.execs.push(SegmentExec { segment: id, start });
            self.reduced.stored[id as usize].represented += 1;
            if let Some(averages) = &mut self.averages {
                averages[id as usize].accumulate(&segment);
            }
            return None;
        }
        let id = self.reduced.stored.len() as u32;
        if let Some(averages) = &mut self.averages {
            averages.push(AverageState::new(&segment));
        }
        // Representatives are stored rebased; keep the absolute start only
        // in the execution log.  Cached features are unaffected: they only
        // read times that are already relative to the segment start.
        segment.start = Time::ZERO;
        self.reduced.stored.push(StoredSegment {
            id,
            segment,
            represented: 1,
        });
        self.reduced.execs.push(SegmentExec { segment: id, start });
        Some(id)
    }

    /// Finalizes the `iter_avg` running averages.
    fn finish(mut self) -> ReducedRankTrace {
        if let Some(averages) = &self.averages {
            for (stored, average) in self.reduced.stored.iter_mut().zip(averages) {
                average.finalize_into(&mut stored.segment);
            }
        }
        self.reduced
    }
}

/// One same-shape candidate bucket: stored-representative ids in insertion
/// order plus (on the indexed path) the sorted/pivoted candidate index
/// over their cached features.
#[derive(Clone, Debug, Default)]
struct Bucket {
    /// Stored ids in insertion order — the paper's scan order.
    ids: Vec<u32>,
    /// Candidate index; only maintained under [`MatchRule::Indexed`].
    index: CandidateIndex,
}

/// Online (segment-at-a-time) form of the stored-segments algorithm, for
/// every method of the catalogue.
///
/// The reduction driver ([`crate::parallel::SectionReducer`]) drives this
/// state machine for every input, so a rank is reduced identically whether
/// its segments arrive from an in-memory [`RankTrace`] or one at a time
/// from a file.  The state held between segments is exactly the reduced
/// trace under construction (stored representatives plus the execution
/// log) and the per-key match buckets — never the full segment stream.
#[derive(Clone, Debug)]
pub struct OnlineRankReducer {
    rule: MatchRule,
    // The features `rule` reads, computed once per incoming segment.
    kind: FeatureKind,
    log: RankLog,
    // Stored-representative ids grouped by segment key (structural
    // identity); scanning a bucket in insertion order is equivalent to
    // the paper's linear scan restricted to eligible segments.  The
    // indexed path visits the same candidates minus the ones its window /
    // pivot bounds prove unmatchable — in the same order.
    buckets: BTreeMap<SegmentKey, Bucket>,
    // Cached features per stored representative, indexed like
    // `log.reduced.stored`.  Empty unless the rule reads features.
    features: Vec<SegmentFeatures>,
    // Reusable buffers + counters for the matching kernels.
    scratch: MatchScratch,
}

impl OnlineRankReducer {
    /// Creates an empty reduction state for one rank.
    pub fn new(config: impl Into<ExtendedConfig>, rank: Rank) -> Self {
        OnlineRankReducer::with_scratch(config, rank, MatchScratch::new())
    }

    /// Creates an empty reduction state reusing the buffers of `scratch`
    /// (its counters are reset).  Loops that reduce many ranks pass the
    /// scratch from rank to rank via
    /// [`OnlineRankReducer::finish_with_scratch`] so feature buffers are
    /// allocated once per worker.
    pub fn with_scratch(
        config: impl Into<ExtendedConfig>,
        rank: Rank,
        scratch: MatchScratch,
    ) -> Self {
        OnlineRankReducer::with_scratch_and_search(
            config,
            rank,
            scratch,
            CandidateSearch::default(),
        )
    }

    /// Like [`OnlineRankReducer::with_scratch`] with an explicit candidate
    /// search strategy for the paper distance methods (the linear scan
    /// exists for benchmarks and equivalence tests; both strategies
    /// produce bit-identical output).
    pub fn with_scratch_and_search(
        config: impl Into<ExtendedConfig>,
        rank: Rank,
        mut scratch: MatchScratch,
        search: CandidateSearch,
    ) -> Self {
        let config = config.into();
        scratch.reset_stats();
        let rule = MatchRule::new(config, search);
        OnlineRankReducer {
            rule,
            kind: rule.feature_kind(),
            log: RankLog::new(rank, Iteration::of(&config)),
            buckets: BTreeMap::new(),
            features: Vec::new(),
            scratch,
        }
    }

    /// Feeds the next segment in trace order.
    pub fn push_segment(&mut self, segment: Segment) {
        self.push_segment_obs(segment, &mut trace_obs::ObsShard::disabled());
    }

    /// Like [`OnlineRankReducer::push_segment`], recording an
    /// [`trace_obs::Stage::Index`] span when a stored representative's
    /// features are cached (and indexed).  Store events are rare (one per
    /// representative, not one per segment), so the clock is only read on
    /// that path; with a disabled shard this is identical to
    /// [`OnlineRankReducer::push_segment`].
    pub fn push_segment_obs(&mut self, segment: Segment, obs: &mut trace_obs::ObsShard) {
        let cached = self.kind != FeatureKind::None;
        if cached {
            // Features are computed once per incoming segment and reused
            // for every candidate in the bucket — and, if the segment ends
            // up stored, cloned into its representative cache.
            self.scratch.prepare_incoming_kind(self.kind, &segment);
        }
        let bucket = self.buckets.entry(segment.key()).or_default();
        let MatchScratch {
            incoming,
            stats,
            index_buf,
            ..
        } = &mut self.scratch;
        let incoming = &*incoming;
        let features = &self.features;
        let matched = match self.rule {
            MatchRule::Iteration(iteration) => iteration.pick(&bucket.ids),
            MatchRule::Indexed(config) => {
                stats.eligible += bucket.ids.len();
                bucket.index.find_first(
                    &config,
                    incoming,
                    features,
                    stats,
                    index_buf,
                    |id, stats| {
                        segments_match_cached(&config, incoming, &features[id as usize], stats)
                    },
                )
            }
            MatchRule::Scan(kernel) => {
                stats.eligible += bucket.ids.len();
                bucket
                    .ids
                    .iter()
                    .copied()
                    .find(|&id| kernel.accepts(incoming, &features[id as usize], stats))
            }
            MatchRule::Raw(config) => {
                stats.eligible += bucket.ids.len();
                let stored = &self.log.reduced.stored;
                bucket.ids.iter().copied().find(|&id| {
                    let representative = &stored[id as usize].segment;
                    stats.full_kernel(segments_match_extended(&config, &segment, representative))
                })
            }
        };

        if let Some(id) = self.log.record(matched, segment) {
            bucket.ids.push(id);
            if cached {
                let span = obs.start();
                self.features.push(self.scratch.clone_incoming());
                if let MatchRule::Indexed(config) = self.rule {
                    bucket.index.insert(id, &config, &self.features);
                }
                obs.end(trace_obs::Stage::Index, span);
            }
        }
    }

    /// Number of stored representatives so far.
    pub fn stored_count(&self) -> usize {
        self.log.reduced.stored_count()
    }

    /// Number of segment executions so far.
    pub fn exec_count(&self) -> usize {
        self.log.reduced.exec_count()
    }

    /// The similarity-matching counters accumulated by this reducer.
    pub fn match_stats(&self) -> MatchStats {
        self.scratch.stats()
    }

    /// Completes the reduction (finalizing `iter_avg` running averages) and
    /// returns the reduced rank trace.
    pub fn finish(self) -> ReducedRankTrace {
        self.finish_with_scratch().0
    }

    /// Like [`OnlineRankReducer::finish`], but also hands the scratch back
    /// so the caller can thread it into the next rank's reducer.
    pub fn finish_with_scratch(self) -> (ReducedRankTrace, MatchScratch) {
        (self.log.finish(), self.scratch)
    }
}

/// Reduces traces with a configured similarity method from the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct Reducer {
    config: ExtendedConfig,
    search: CandidateSearch,
}

impl Reducer {
    /// Creates a reducer for the given method configuration (paper or
    /// extended; the paper distance methods use the default
    /// [`CandidateSearch::Indexed`] candidate search).
    pub fn new(config: impl Into<ExtendedConfig>) -> Self {
        Reducer::with_search(config, CandidateSearch::default())
    }

    /// Creates a reducer with an explicit candidate-search strategy.  The
    /// linear scan exists so benches and tests can measure/verify the
    /// index against PR 5's behaviour; both strategies are bit-identical.
    pub fn with_search(config: impl Into<ExtendedConfig>, search: CandidateSearch) -> Self {
        Reducer {
            config: config.into(),
            search,
        }
    }

    /// Convenience constructor using the method's default threshold.
    pub fn with_default_threshold(method: impl Into<ExtendedMethod>) -> Self {
        Reducer::new(ExtendedConfig::with_default_threshold(method.into()))
    }

    /// The method configuration in use.
    pub fn config(&self) -> ExtendedConfig {
        self.config
    }

    /// The candidate-search strategy in use.
    pub fn search(&self) -> CandidateSearch {
        self.search
    }

    /// Reduces a single rank trace.
    pub fn reduce_rank(&self, trace: &RankTrace) -> RankReduction {
        let mut ranks = self.reduce_ranks(std::slice::from_ref(trace));
        ranks.pop().expect("one rank in, one rank out")
    }

    /// Reduces every rank of an application trace sequentially.
    pub fn reduce_app(&self, app: &AppTrace) -> ReducedAppTrace {
        let mut reduced = ReducedAppTrace::for_app(app);
        reduced.ranks = self
            .reduce_ranks(&app.ranks)
            .into_iter()
            .map(|rank| rank.reduced)
            .collect();
        reduced
    }

    /// Runs the driver's record → segment → match loop over in-memory
    /// ranks on the calling thread.
    fn reduce_ranks(&self, ranks: &[RankTrace]) -> Vec<RankReduction> {
        let mut worker = SectionReducer::new(*self, trace_obs::ObsShard::disabled());
        match worker.reduce(&mut RankItems::new(ranks)) {
            Ok(reductions) => reductions,
            Err(never) => match never {},
        }
    }
}

/// Naive reference implementation of the stored-segments reduction: each
/// incoming segment is compared against each eligible stored
/// representative with the allocating [`segments_match_extended`]
/// predicate (measurement vectors and wavelet transforms recomputed per
/// comparison, no prefilters, no early abandoning, no index).
///
/// Kept — and exported — purely so property tests and benches can assert
/// that [`Reducer`] produces bit-identical output and measure the
/// speedup; production callers should use [`Reducer`].
pub fn reduce_rank_reference(
    config: impl Into<ExtendedConfig>,
    trace: &RankTrace,
) -> RankReduction {
    let config = config.into();
    reduce_rank_naive(trace, Iteration::of(&config), |a, b| {
        segments_match_extended(&config, a, b)
    })
}

/// Naive reference reduction of a whole application trace (see
/// [`reduce_rank_reference`]).
pub fn reduce_app_reference(config: impl Into<ExtendedConfig>, app: &AppTrace) -> ReducedAppTrace {
    let config = config.into();
    reduce_app_naive(app, Iteration::of(&config), |a, b| {
        segments_match_extended(&config, a, b)
    })
}

/// Reduces every rank of an application trace with a caller-supplied
/// similarity predicate.
///
/// This is the custom-metric entry point: the stored-segments algorithm is
/// exactly the paper's (same-shape eligibility, scan stored representatives
/// in insertion order, store a new representative on mismatch), but the
/// similarity test between a new segment and a stored representative is
/// `predicate(new, stored)` instead of a catalogue method.  It runs the
/// naive loop of [`reduce_rank_reference`].
pub fn reduce_app_with_predicate<F>(app: &AppTrace, predicate: F) -> ReducedAppTrace
where
    F: Fn(&Segment, &Segment) -> bool,
{
    reduce_app_naive(app, None, predicate)
}

fn reduce_app_naive<F>(
    app: &AppTrace,
    iteration: Option<Iteration>,
    predicate: F,
) -> ReducedAppTrace
where
    F: Fn(&Segment, &Segment) -> bool,
{
    let mut reduced = ReducedAppTrace::for_app(app);
    reduced.ranks = app
        .ranks
        .iter()
        .map(|rank| reduce_rank_naive(rank, iteration, &predicate).reduced)
        .collect();
    reduced
}

/// The naive stored-segments loop: iteration methods pick by position,
/// everything else tests `predicate(incoming, stored)` against each
/// eligible representative in insertion order.
fn reduce_rank_naive<F>(
    trace: &RankTrace,
    iteration: Option<Iteration>,
    predicate: F,
) -> RankReduction
where
    F: Fn(&Segment, &Segment) -> bool,
{
    let (segments, segmentation) = segments_of_rank_with_stats(trace);
    let mut log = RankLog::new(trace.rank, iteration);
    let mut buckets: BTreeMap<SegmentKey, Vec<u32>> = BTreeMap::new();
    let mut matching = MatchStats::default();

    for segment in segments {
        let bucket = buckets.entry(segment.key()).or_default();
        let matched = match iteration {
            Some(iteration) => iteration.pick(bucket),
            None => {
                matching.eligible += bucket.len();
                bucket.iter().copied().find(|&id| {
                    let stored = &log.reduced.stored[id as usize].segment;
                    matching.full_kernel(predicate(&segment, stored))
                })
            }
        };
        if let Some(id) = log.record(matched, segment) {
            bucket.push(id);
        }
    }

    RankReduction {
        reduced: log.finish(),
        segmentation,
        matching,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::segments_match;
    use trace_model::{ContextId, Event, RegionId};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    /// A rank trace with `n` iterations of one loop whose event duration is
    /// chosen per iteration by `durations`.
    fn looped_trace(durations: &[u64]) -> RankTrace {
        let mut rt = RankTrace::new(Rank(0));
        let ctx = ContextId(0);
        let mut now = 0u64;
        for &d in durations {
            rt.begin_segment(ctx, Time::from_nanos(now));
            rt.push_event(Event::compute(
                RegionId(0),
                Time::from_nanos(now + 10),
                Time::from_nanos(now + 10 + d),
            ));
            rt.end_segment(ctx, Time::from_nanos(now + 20 + d));
            now += 20 + d;
        }
        rt
    }

    #[test]
    fn identical_iterations_collapse_to_one_representative() {
        let rt = looped_trace(&[1000; 20]);
        for method in Method::ALL {
            let reducer = Reducer::with_default_threshold(method);
            let r = reducer.reduce_rank(&rt).reduced;
            assert_eq!(r.exec_count(), 20, "{method}");
            let expected_stored = if method == Method::IterK { 10 } else { 1 };
            assert_eq!(r.stored_count(), expected_stored, "{method}");
            // Every instance is represented exactly once across the stored
            // representatives; iter_k attributes the surplus to the last one.
            let represented: u32 = r.stored.iter().map(|s| s.represented).sum();
            assert_eq!(represented, 20, "{method}");
            if method != Method::IterK {
                assert_eq!(r.stored[0].represented, 20, "{method}");
            }
        }
    }

    #[test]
    fn dissimilar_iterations_are_kept_separate_by_distance_methods() {
        // Alternate short and 10x longer iterations.
        let durations: Vec<u64> = (0..20)
            .map(|i| if i % 2 == 0 { 1_000 } else { 10_000 })
            .collect();
        let rt = looped_trace(&durations);
        for method in [
            Method::RelDiff,
            Method::Manhattan,
            Method::Euclidean,
            Method::Chebyshev,
            Method::AvgWave,
            Method::HaarWave,
        ] {
            let reducer = Reducer::with_default_threshold(method);
            let r = reducer.reduce_rank(&rt).reduced;
            assert_eq!(
                r.stored_count(),
                2,
                "{method} should keep one representative per behaviour"
            );
            assert_eq!(r.exec_count(), 20);
        }
        // iter_avg merges everything regardless.
        let r = Reducer::with_default_threshold(Method::IterAvg)
            .reduce_rank(&rt)
            .reduced;
        assert_eq!(r.stored_count(), 1);
    }

    #[test]
    fn iter_k_keeps_exactly_k_instances_per_pattern() {
        let rt = looped_trace(&[1000; 25]);
        let reducer = Reducer::new(MethodConfig::new(Method::IterK, 5.0));
        let r = reducer.reduce_rank(&rt).reduced;
        assert_eq!(r.stored_count(), 5);
        assert_eq!(r.exec_count(), 25);
        // Later executions reference the last stored instance.
        assert!(r.execs[10..].iter().all(|e| e.segment == 4));
    }

    #[test]
    fn iter_avg_stores_running_average_measurements() {
        let rt = looped_trace(&[1000, 2000, 3000]);
        let reducer = Reducer::with_default_threshold(Method::IterAvg);
        let r = reducer.reduce_rank(&rt).reduced;
        assert_eq!(r.stored_count(), 1);
        assert_eq!(r.stored[0].represented, 3);
        let avg_event = r.stored[0].segment.events[0];
        // Event starts at 10 in every instance; ends at 10 + {1000,2000,3000}.
        assert_eq!(avg_event.start.as_nanos(), 10);
        assert_eq!(avg_event.end.as_nanos(), 2010);
        assert_eq!(r.stored[0].segment.end.as_nanos(), 2020);
    }

    #[test]
    fn exec_log_preserves_start_times_in_order() {
        let rt = looped_trace(&[500; 5]);
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let r = reducer.reduce_rank(&rt).reduced;
        let starts: Vec<u64> = r.execs.iter().map(|e| e.start.as_nanos()).collect();
        assert_eq!(starts, vec![0, 520, 1040, 1560, 2080]);
        // Reconstruction puts events back at their absolute times.
        let rebuilt = r.reconstruct();
        assert!(rebuilt.is_well_formed());
        assert_eq!(rebuilt.event_count(), 5);
        assert_eq!(rebuilt.events().next().unwrap().start.as_nanos(), 10);
    }

    #[test]
    fn segments_with_different_contexts_never_match() {
        let mut rt = RankTrace::new(Rank(0));
        for (ctx, base) in [(0u32, 0u64), (1, 100), (0, 200), (1, 300)] {
            rt.begin_segment(ContextId(ctx), Time::from_nanos(base));
            rt.push_event(Event::compute(
                RegionId(0),
                Time::from_nanos(base + 1),
                Time::from_nanos(base + 50),
            ));
            rt.end_segment(ContextId(ctx), Time::from_nanos(base + 60));
        }
        let r = Reducer::with_default_threshold(Method::IterAvg)
            .reduce_rank(&rt)
            .reduced;
        assert_eq!(r.stored_count(), 2, "one representative per context");
        assert_eq!(r.exec_count(), 4);
        assert_eq!(r.degree_of_matching(), 1.0);
    }

    #[test]
    fn reduce_app_covers_every_rank_and_reconstructs() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let reduced = reducer.reduce_app(&app);
        assert_eq!(reduced.rank_count(), app.rank_count());
        for (rrt, rt) in reduced.ranks.iter().zip(&app.ranks) {
            assert_eq!(rrt.exec_count(), rt.segment_instance_count());
        }
        let approx = reduced.reconstruct();
        // Note: the reconstruction is an *approximation* — a representative
        // segment may be slightly longer than the instance it stands in for,
        // so record times can locally overlap; we only require structural
        // equivalence here.
        assert_eq!(approx.rank_count(), app.rank_count());
        // Reconstruction preserves the number of events because every
        // execution replays a representative with the same event count
        // (segments only match when shapes are identical).
        assert_eq!(approx.total_events(), app.total_events());
    }

    #[test]
    fn tighter_thresholds_store_at_least_as_many_segments() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        for method in [Method::RelDiff, Method::Euclidean, Method::AvgWave] {
            let mut previous = usize::MAX;
            for threshold in [1.0, 0.6, 0.2, 0.05] {
                let reduced = Reducer::new(MethodConfig::new(method, threshold)).reduce_app(&app);
                let stored = reduced.total_stored();
                assert!(
                    stored <= previous.max(stored),
                    "{method}: tightening the threshold must not reduce stored segments"
                );
                // (monotonicity checked in the next assertion)
                assert!(stored >= 1);
                if previous != usize::MAX {
                    assert!(
                        stored >= previous,
                        "{method}: stored {stored} at threshold {threshold} must be >= {previous}"
                    );
                }
                previous = stored;
            }
        }
    }

    #[test]
    fn degree_of_matching_is_high_for_regular_trace() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
        assert!(
            reduced.degree_of_matching() > 0.9,
            "regular benchmark should match >90% of possible matches, got {}",
            reduced.degree_of_matching()
        );
    }

    #[test]
    fn rel_diff_stores_more_segments_than_minkowski_on_regular_trace() {
        // The paper finds relDiff to be the strictest practical metric on
        // the regular benchmarks (largest files, lowest degree of matching):
        // the tiny, highly variable time stamps near the segment start fail
        // the relative-difference test long before they matter to a
        // magnitude-scaled distance like Euclidean.
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Small).generate();
        let rel = Reducer::with_default_threshold(Method::RelDiff).reduce_app(&app);
        let euc = Reducer::with_default_threshold(Method::Euclidean).reduce_app(&app);
        assert!(
            rel.total_stored() >= euc.total_stored(),
            "relDiff ({}) should store at least as many representatives as Euclidean ({})",
            rel.total_stored(),
            euc.total_stored()
        );
        assert!(
            rel.degree_of_matching() <= euc.degree_of_matching(),
            "relDiff must not out-match Euclidean on a regular benchmark"
        );
    }

    #[test]
    fn predicate_reducer_with_always_true_matches_like_iter_avg_structure() {
        let rt = looped_trace(&[1000, 2000, 3000, 4000]);
        let r = reduce_rank_naive(&rt, None, |_, _| true).reduced;
        assert_eq!(r.stored_count(), 1);
        assert_eq!(r.exec_count(), 4);
        assert_eq!(r.stored[0].represented, 4);
    }

    #[test]
    fn predicate_reducer_with_always_false_stores_every_instance() {
        let rt = looped_trace(&[1000; 6]);
        let r = reduce_rank_naive(&rt, None, |_, _| false).reduced;
        assert_eq!(r.stored_count(), 6);
        assert_eq!(r.exec_count(), 6);
        assert_eq!(r.degree_of_matching(), 0.0);
    }

    #[test]
    fn predicate_reducer_never_mixes_shapes() {
        // Even an always-true predicate only sees same-shape candidates.
        let mut rt = RankTrace::new(Rank(0));
        for (ctx, base) in [(0u32, 0u64), (1, 100), (0, 200)] {
            rt.begin_segment(ContextId(ctx), Time::from_nanos(base));
            rt.push_event(Event::compute(
                RegionId(ctx),
                Time::from_nanos(base + 1),
                Time::from_nanos(base + 50),
            ));
            rt.end_segment(ContextId(ctx), Time::from_nanos(base + 60));
        }
        let r = reduce_rank_naive(&rt, None, |_, _| true).reduced;
        assert_eq!(r.stored_count(), 2);
    }

    #[test]
    fn predicate_matching_paper_metric_reproduces_reducer_output() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let config = MethodConfig::with_default_threshold(Method::Euclidean);
        let via_reducer = Reducer::new(config).reduce_app(&app);
        let via_predicate = reduce_app_with_predicate(&app, |a, b| segments_match(&config, a, b));
        assert_eq!(via_reducer.total_stored(), via_predicate.total_stored());
        assert_eq!(via_reducer.total_execs(), via_predicate.total_execs());
    }
}
