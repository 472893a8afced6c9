//! The reduction driver: one record → segment → match loop, run over
//! rank-section partitions on a scoped worker pool.
//!
//! The paper's technique is strictly intra-process: each rank's trace is
//! reduced independently and the per-rank results are merged afterwards.
//! [`SectionReducer`] is the one loop that does it — it pulls items from
//! any [`AppItemSource`], cuts segments with an [`OnlineSegmenter`] and
//! matches them with an [`OnlineRankReducer`], so a rank is reduced
//! identically whether its records come from memory, a text stream or a
//! container chunk.  [`reduce_sections`] runs that loop over independent
//! partitions (one per rank in memory, one per indexed container section)
//! on crossbeam scoped threads: workers claim the next unreduced partition,
//! and results are merged in partition order, so the worker count changes
//! wall-clock time, never the output.

use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::thread;
use parking_lot::Mutex;

use trace_model::{AppItem, AppItemSource, ReducedRankTrace, TraceRecord};

use crate::features::{MatchScratch, MatchStats};
use crate::reducer::{OnlineRankReducer, RankReduction, Reducer};
use crate::segmenter::OnlineSegmenter;

/// Instrumentation counters from one reduction run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Rank sections reduced.
    pub ranks: usize,
    /// Event records seen in reduced ranks.
    pub events: usize,
    /// Segments cut from the records and fed to the reducer.
    pub segments: usize,
    /// Stored representative segments in the output.
    pub stored: usize,
    /// Segment executions in the output.
    pub execs: usize,
    /// Peak number of segments resident at once: stored representatives
    /// accumulated so far plus in-flight segments.  The streaming guarantee
    /// is `peak_resident_segments ≤ total stored + active ranks`, however
    /// long the trace is.  For multi-worker runs this is the *sum* of the
    /// per-worker peaks — an upper bound on the true concurrent total,
    /// since workers generally peak at different moments.
    pub peak_resident_segments: usize,
    /// Events encountered outside any segment (dropped).
    pub orphan_events: usize,
    /// Segments closed implicitly (missing or mismatched end markers).
    pub unterminated_segments: usize,
    /// Largest single chunk buffer held by any one reader, in bytes: a
    /// stored payload or its decompressed form (row bytes for `lz`, column
    /// bytes for `delta-lz`; container readers build no row payload for
    /// the column codecs).  Zero for text and in-memory inputs; for
    /// monolithic v1 binary inputs this is the whole file, which is the
    /// point of the chunked container.
    /// Merging keeps the per-reader maximum, so the concurrent total of a
    /// multi-worker run is at most `workers ×` this value.
    pub peak_chunk_bytes: usize,
    /// Similarity-matching counters from the cached fast path: candidate
    /// comparisons, prefilter rejects, early abandons and matches across
    /// every reduced rank.
    pub matching: MatchStats,
}

impl StreamStats {
    /// Merges counters from another (concurrently collected) run.  Counts
    /// add up exactly; the peaks are also summed, which over-approximates
    /// the true concurrent peak (each worker's resident set coexists with
    /// the others', but their maxima need not coincide in time), so the
    /// merged value is a safe upper bound rather than an observation.
    pub fn absorb(&mut self, other: &StreamStats) {
        self.ranks += other.ranks;
        self.events += other.events;
        self.segments += other.segments;
        self.stored += other.stored;
        self.execs += other.execs;
        self.peak_resident_segments += other.peak_resident_segments;
        self.orphan_events += other.orphan_events;
        self.unterminated_segments += other.unterminated_segments;
        self.peak_chunk_bytes = self.peak_chunk_bytes.max(other.peak_chunk_bytes);
        self.matching.absorb(&other.matching);
    }

    /// Drains these counters into an observability shard under the
    /// canonical `stream.*` (and nested `match.*`) metric names.  Call once
    /// on the merged total — not per worker — so multi-worker runs don't
    /// double-count.
    pub fn record_into(&self, obs: &mut trace_obs::ObsShard) {
        if !obs.is_enabled() {
            return;
        }
        use trace_obs::names;
        obs.add(names::STREAM_RANKS, self.ranks as u64);
        obs.add(names::STREAM_EVENTS, self.events as u64);
        obs.add(names::STREAM_SEGMENTS, self.segments as u64);
        obs.add(names::STREAM_STORED, self.stored as u64);
        obs.add(names::STREAM_EXECS, self.execs as u64);
        obs.add(names::STREAM_ORPHAN_EVENTS, self.orphan_events as u64);
        obs.add(
            names::STREAM_UNTERMINATED_SEGMENTS,
            self.unterminated_segments as u64,
        );
        obs.gauge_max(
            names::STREAM_PEAK_RESIDENT_SEGMENTS,
            self.peak_resident_segments as u64,
        );
        obs.gauge_max(names::STREAM_PEAK_CHUNK_BYTES, self.peak_chunk_bytes as u64);
        self.matching.record_into(obs);
    }
}

/// The record → segment → match loop of one worker.
///
/// Resident segment state is the stored representatives of the ranks this
/// worker reduced plus at most one in-flight segment — never the full
/// record stream.  One [`MatchScratch`] is threaded from rank to rank, so
/// the matching loop stays allocation free however many ranks flow past.
/// Each rank is bracketed by a [`trace_obs::Stage::Rank`] span (two clock
/// reads per rank, nothing per record); with a disabled shard the
/// reduction is identical — recording never steers.
pub struct SectionReducer {
    reducer: Reducer,
    scratch: MatchScratch,
    obs: trace_obs::ObsShard,
    stats: StreamStats,
    // Stored representatives retained by already-finished ranks; the
    // output keeps them, so they count toward resident state.
    stored_retained: usize,
}

impl SectionReducer {
    /// A worker running `reducer`, recording into `obs`.
    pub fn new(reducer: Reducer, obs: trace_obs::ObsShard) -> Self {
        SectionReducer {
            reducer,
            scratch: MatchScratch::new(),
            obs,
            stats: StreamStats::default(),
            stored_retained: 0,
        }
    }

    /// Reduces every rank section `source` yields, in order.
    pub fn reduce<S: AppItemSource>(
        &mut self,
        source: &mut S,
    ) -> Result<Vec<RankReduction>, S::Error> {
        let mut out = Vec::new();
        let mut active: Option<(OnlineSegmenter, OnlineRankReducer, trace_obs::SpanStart)> = None;
        while let Some(item) = source.next_item()? {
            match item {
                AppItem::RankStart(rank) => {
                    let reducer = OnlineRankReducer::with_scratch_and_search(
                        self.reducer.config(),
                        rank,
                        std::mem::take(&mut self.scratch),
                        self.reducer.search(),
                    );
                    active = Some((OnlineSegmenter::new(), reducer, self.obs.start()));
                }
                AppItem::Record(record) => {
                    let (segmenter, reducer, _) = active
                        .as_mut()
                        .expect("records only arrive inside a rank section");
                    if matches!(record, TraceRecord::Event(_)) {
                        self.stats.events += 1;
                    }
                    if let Some(segment) = segmenter.push(&record) {
                        self.stats.segments += 1;
                        reducer.push_segment_obs(segment, &mut self.obs);
                    }
                    let resident = self.stored_retained
                        + reducer.stored_count()
                        + usize::from(segmenter.has_open_segment());
                    self.stats.peak_resident_segments =
                        self.stats.peak_resident_segments.max(resident);
                }
                AppItem::RankEnd(_) => {
                    let (segmenter, reducer, span) = active
                        .take()
                        .expect("a rank end only arrives inside a rank section");
                    out.push(self.finish_rank(segmenter, reducer, span));
                }
            }
        }
        self.stats.peak_chunk_bytes = self.stats.peak_chunk_bytes.max(source.peak_chunk_bytes());
        Ok(out)
    }

    fn finish_rank(
        &mut self,
        mut segmenter: OnlineSegmenter,
        mut reducer: OnlineRankReducer,
        span: trace_obs::SpanStart,
    ) -> RankReduction {
        if let Some(segment) = segmenter.finish() {
            self.stats.segments += 1;
            reducer.push_segment_obs(segment, &mut self.obs);
        }
        let segmentation = segmenter.stats();
        self.stats.orphan_events += segmentation.orphan_events;
        self.stats.unterminated_segments += segmentation.unterminated_segments;
        let matching = reducer.match_stats();
        self.stats.matching.absorb(&matching);
        let (reduced, scratch) = reducer.finish_with_scratch();
        self.scratch = scratch;
        self.stored_retained += reduced.stored_count();
        self.stats.peak_resident_segments =
            self.stats.peak_resident_segments.max(self.stored_retained);
        self.stats.ranks += 1;
        self.stats.stored += reduced.stored_count();
        self.stats.execs += reduced.exec_count();
        self.obs.end(trace_obs::Stage::Rank, span);
        RankReduction {
            reduced,
            segmentation,
            matching,
        }
    }

    /// Flushes the worker's spans and returns its counters.
    pub fn finish(self) -> StreamStats {
        self.obs.finish();
        self.stats
    }
}

/// Runs `work(worker_index)` on `workers` crossbeam scoped threads and
/// joins them all.  A worker count of 0 or 1 runs `work(0)` on the calling
/// thread.
///
/// # Panics
/// Propagates a panic from any worker.
fn scoped_workers<F>(workers: usize, work: F)
where
    F: Fn(usize) + Sync,
{
    if workers <= 1 {
        work(0);
        return;
    }
    thread::scope(|scope| {
        for worker in 0..workers {
            let work = &work;
            scope.spawn(move |_| work(worker));
        }
    })
    .expect("scoped worker panicked");
}

/// Reduces `sections` independent rank-section partitions on up to
/// `workers` threads (capped at `sections`; 0 or 1 runs on the calling
/// thread) and returns the reduced ranks in partition order with the
/// merged counters.
///
/// `open(i)` opens partition `i`.  Workers claim partitions in increasing
/// order, each with its own [`SectionReducer`] and recorder shard; the
/// output is identical for every worker count.  If any partition fails,
/// the error of the first failing partition is returned.
pub fn reduce_sections<S, E>(
    reducer: Reducer,
    sections: usize,
    workers: usize,
    recorder: &trace_obs::Recorder,
    open: impl Fn(usize) -> Result<S, E> + Sync,
) -> Result<(Vec<ReducedRankTrace>, StreamStats), E>
where
    S: AppItemSource,
    E: From<S::Error> + Send,
{
    type Slot<E> = Mutex<Option<Result<Vec<ReducedRankTrace>, E>>>;
    let slots: Vec<Slot<E>> = (0..sections).map(|_| Mutex::new(None)).collect();
    let totals = Mutex::new(StreamStats::default());
    let next = AtomicUsize::new(0);

    scoped_workers(workers.clamp(1, sections.max(1)), |_| {
        let mut worker = SectionReducer::new(reducer, recorder.shard());
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(index) else {
                break;
            };
            let result = open(index).and_then(|mut source| {
                let ranks = worker.reduce(&mut source)?;
                Ok(ranks.into_iter().map(|rank| rank.reduced).collect())
            });
            *slot.lock() = Some(result);
        }
        totals.lock().absorb(&worker.finish());
    });

    let mut ranks = Vec::with_capacity(sections);
    for slot in slots {
        ranks.extend(
            slot.into_inner()
                .expect("every partition is claimed by one worker")?,
        );
    }
    Ok((ranks, totals.into_inner()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use std::convert::Infallible;
    use trace_model::{AppTrace, RankItems};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    /// Reduces `app` with one partition per rank on `workers` threads.
    fn by_rank(
        reducer: &Reducer,
        app: &AppTrace,
        workers: usize,
    ) -> (Vec<ReducedRankTrace>, StreamStats) {
        let open = |i: usize| Ok::<_, Infallible>(RankItems::new(&app.ranks[i..=i]));
        let disabled = trace_obs::Recorder::disabled();
        match reduce_sections(*reducer, app.rank_count(), workers, &disabled, open) {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    #[test]
    fn parallel_reduction_matches_sequential_result() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        for method in [
            Method::AvgWave,
            Method::RelDiff,
            Method::IterAvg,
            Method::IterK,
        ] {
            let reducer = Reducer::with_default_threshold(method);
            let sequential = reducer.reduce_app(&app);
            let (_, one_worker) = by_rank(&reducer, &app, 1);
            for threads in [2, 4, 16] {
                let (parallel, stats) = by_rank(&reducer, &app, threads);
                assert_eq!(
                    sequential.ranks, parallel,
                    "{method} with {threads} threads"
                );
                assert_eq!(stats.matching, one_worker.matching, "{method}");
            }
        }
    }

    #[test]
    fn degenerate_thread_counts_fall_back_to_sequential() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reducer = Reducer::with_default_threshold(Method::Euclidean);
        let sequential = reducer.reduce_app(&app);
        assert_eq!(by_rank(&reducer, &app, 0).0, sequential.ranks);
        assert_eq!(by_rank(&reducer, &app, 1).0, sequential.ranks);
    }

    #[test]
    fn more_threads_than_ranks_is_fine() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reducer = Reducer::with_default_threshold(Method::Manhattan);
        let (parallel, stats) = by_rank(&reducer, &app, 64);
        assert_eq!(parallel.len(), app.rank_count());
        assert_eq!(stats.ranks, app.rank_count());
    }
}
