//! Where a trace's records come from: one header and one item stream for
//! every reader.
//!
//! Every full-trace reader — the text grammar, the chunked container
//! reader and in-memory rank traces ([`RankItems`]) — yields the same
//! [`AppItem`] stream through [`AppItemSource`], and the whole-file
//! readers describe the trace with the same [`TraceHeader`].  Consumers
//! (the reduction loop, [`AppItemSource::collect_ranks`]) therefore never
//! care where the records live.

use std::convert::Infallible;

use crate::ids::{ContextTable, Rank, RegionTable};
use crate::record::TraceRecord;
use crate::reduced::{ReducedAppTrace, ReducedRankTrace};
use crate::trace::{AppTrace, RankTrace};

/// What a trace file declares before its rank sections: program name,
/// declared rank count and the interned name tables every record is
/// validated against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceHeader {
    /// Human-readable name of the traced program.
    pub name: String,
    /// Number of rank sections the file declares.
    pub declared_ranks: usize,
    /// Region (function) name table.
    pub regions: RegionTable,
    /// Segment-context name table.
    pub contexts: ContextTable,
}

impl TraceHeader {
    /// The full trace made of `ranks` under this header.
    pub fn app(self, ranks: Vec<RankTrace>) -> AppTrace {
        AppTrace {
            name: self.name,
            regions: self.regions,
            contexts: self.contexts,
            ranks,
        }
    }

    /// The reduced trace made of `ranks` under this header.
    pub fn reduced(self, ranks: Vec<ReducedRankTrace>) -> ReducedAppTrace {
        ReducedAppTrace {
            name: self.name,
            regions: self.regions,
            contexts: self.contexts,
            ranks,
        }
    }
}

/// One item pulled from a full-trace stream.
#[derive(Clone, Debug, PartialEq)]
pub enum AppItem {
    /// A rank section opened.
    RankStart(Rank),
    /// A record inside the open rank section.
    Record(TraceRecord),
    /// The open rank section closed.
    RankEnd(Rank),
}

/// A pull source of [`AppItem`]s: rank boundaries and records, in stream
/// order.  Sources guarantee the structure: records only arrive between a
/// `RankStart` and its `RankEnd`.
pub trait AppItemSource {
    /// What pulling an item can fail with.
    type Error;

    /// Pulls the next item, or `Ok(None)` once the source is exhausted.
    fn next_item(&mut self) -> Result<Option<AppItem>, Self::Error>;

    /// Largest chunk payload buffered so far, in bytes.  Zero for sources
    /// that do not buffer chunks.
    fn peak_chunk_bytes(&self) -> usize {
        0
    }

    /// Drains the source into one [`RankTrace`] per rank section, in
    /// stream order.
    fn collect_ranks(&mut self) -> Result<Vec<RankTrace>, Self::Error> {
        let mut ranks: Vec<RankTrace> = Vec::new();
        while let Some(item) = self.next_item()? {
            match item {
                AppItem::RankStart(rank) => ranks.push(RankTrace::new(rank)),
                AppItem::Record(record) => ranks
                    .last_mut()
                    .expect("records only arrive inside a rank section")
                    .push(record),
                AppItem::RankEnd(_) => {}
            }
        }
        Ok(ranks)
    }
}

/// In-memory rank traces as an [`AppItemSource`] that cannot fail.
#[derive(Clone, Debug)]
pub struct RankItems<'a> {
    ranks: std::slice::Iter<'a, RankTrace>,
    open: Option<(Rank, std::slice::Iter<'a, TraceRecord>)>,
}

impl<'a> RankItems<'a> {
    /// Yields every rank of `ranks`, in order.
    pub fn new(ranks: &'a [RankTrace]) -> Self {
        RankItems {
            ranks: ranks.iter(),
            open: None,
        }
    }
}

impl AppItemSource for RankItems<'_> {
    type Error = Infallible;

    fn next_item(&mut self) -> Result<Option<AppItem>, Infallible> {
        if let Some((rank, records)) = &mut self.open {
            if let Some(record) = records.next() {
                return Ok(Some(AppItem::Record(*record)));
            }
            let rank = *rank;
            self.open = None;
            return Ok(Some(AppItem::RankEnd(rank)));
        }
        Ok(self.ranks.next().map(|trace| {
            self.open = Some((trace.rank, trace.records.iter()));
            AppItem::RankStart(trace.rank)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ContextId;
    use crate::time::Time;

    #[test]
    fn rank_items_collect_back_to_the_same_ranks() {
        let mut ranks = vec![RankTrace::new(Rank(0)), RankTrace::new(Rank(3))];
        ranks[1].begin_segment(ContextId(0), Time::from_nanos(5));
        ranks[1].end_segment(ContextId(0), Time::from_nanos(9));
        let collected = match RankItems::new(&ranks).collect_ranks() {
            Ok(collected) => collected,
            Err(never) => match never {},
        };
        assert_eq!(collected, ranks);
    }
}
