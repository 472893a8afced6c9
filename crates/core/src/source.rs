//! Where the reduction loop's records come from.
//!
//! The reduction loop ([`crate::parallel::SectionReducer`]) needs one
//! thing from its input: the next rank boundary or record, in stream
//! order.  [`AppItemSource`] captures exactly that, so the same loop
//! drives the text parser and the chunked container reader (both in the
//! `trace_stream` crate) and in-memory rank traces ([`RankItems`])
//! without caring where the records live.

use std::convert::Infallible;

use trace_model::{Rank, RankTrace, TraceRecord};

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
