//! Format-independent access to a stored trace.
//!
//! The suite has two trace containers: the line-oriented text format
//! (`.prv`, [`crate::trace_format`]) which must be parsed in full, and
//! the chunked binary store (`.mps`, crate `mempersp-store`) which
//! supports out-of-core, index-pruned scans. [`TraceSource`] is the
//! seam the consumers (folding, the analyses, the CLI) program
//! against so they accept either.
//!
//! A source separates the *header* — metadata, region names, symbol
//! map, object registry, resolution counters; small, always resident —
//! from the *event stream*, which may be orders of magnitude larger
//! and is only touched through [`TraceSource::scan_batches`] with a
//! [`Query`]: one [`EventBatch`] of decoded columns per surviving
//! chunk.
//!
//! The rule every consumer follows: **an analysis is a [`Query`] plus
//! a batch sink, and the header is the only thing it holds.** Folding,
//! the phase/profile/latency/reuse/object analyses and `convert` push
//! their filter (kinds, core, window, object) down as the query and
//! read the columns; none builds an event list.
//! [`TraceSource::filtered`] and [`TraceSource::materialize`] remain
//! for the consumers whose *output* is rows — `query`'s printed
//! records, the Paraver export — and for tests.

use crate::batch::{transpose_batches, EventBatch};
use crate::query::Query;
use crate::tracer::Trace;
use std::borrow::Borrow;
use std::io;

/// Cost accounting of one [`TraceSource::scan_batches`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Events that matched the query and were delivered to the sink.
    pub events_matched: u64,
    /// Events the scan had to inspect (decoded or iterated).
    pub events_scanned: u64,
    /// Chunks whose payload was decoded for this scan (0 for
    /// in-memory sources; cache hits do not count as decodes).
    pub chunks_decoded: u64,
    /// Chunks the footer index proved could not match — skipped
    /// without touching their bytes.
    pub chunks_skipped: u64,
    /// Chunks served from the block cache without decoding.
    pub chunks_cached: u64,
    /// Chunks skipped because they were damaged (checksum mismatch,
    /// truncation, decode failure) — nonzero only for salvage-mode
    /// scans over a corrupted store.
    pub chunks_damaged: u64,
    /// Payload-section bytes the decoder actually read (0 for
    /// in-memory sources). For a late-materializing scan (store v4)
    /// this is strictly less than a full materialization whenever the
    /// query's pushed-down predicates deselect whole columns.
    pub payload_bytes_decoded: u64,
}

impl ScanStats {
    /// Add another scan's costs to this one (phases of one analysis,
    /// shards of one store, workers of one parallel scan).
    pub fn merge(&mut self, other: &ScanStats) {
        self.events_matched += other.events_matched;
        self.events_scanned += other.events_scanned;
        self.chunks_decoded += other.chunks_decoded;
        self.chunks_skipped += other.chunks_skipped;
        self.chunks_cached += other.chunks_cached;
        self.chunks_damaged += other.chunks_damaged;
        self.payload_bytes_decoded += other.payload_bytes_decoded;
    }
}

/// The `--stats` line of the CLI.
impl std::fmt::Display for ScanStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} matched / {} scanned events; {} payload bytes; chunks: {} decoded, {} cached, {} skipped",
            self.events_matched,
            self.events_scanned,
            self.payload_bytes_decoded,
            self.chunks_decoded,
            self.chunks_cached,
            self.chunks_skipped,
        )?;
        if self.chunks_damaged > 0 {
            write!(f, ", {} DAMAGED", self.chunks_damaged)?;
        }
        Ok(())
    }
}

/// A trace opened for reading, independent of its container format.
pub trait TraceSource {
    /// The header as a [`Trace`] with an **empty** event list: meta,
    /// region names, source map, object registry and resolution stats
    /// are populated; `events` is empty.
    fn header(&mut self) -> io::Result<Trace>;

    /// Hand `sink` the events matching `query` as column batches — one
    /// per surviving chunk, in trace order, each fully decoded and
    /// validated before the sink sees it. Returns what the scan cost.
    fn scan_batches(
        &mut self,
        query: &Query,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<ScanStats>;

    /// A human-readable name of the backing container ("prv", "mps").
    fn format_name(&self) -> &'static str;

    /// Events in the trace. Containers that index their events (a
    /// store's footer, a parsed trace) answer without touching them;
    /// the default counts with a full scan.
    fn num_events(&mut self) -> io::Result<u64> {
        Ok(self.scan_batches(&Query::all(), &mut |_| {})?.events_matched)
    }

    /// Materialize the whole trace in memory: header + full scan.
    fn materialize(&mut self) -> io::Result<Trace> {
        let (trace, _) = self.filtered(&Query::all())?;
        Ok(trace)
    }

    /// Materialize a query-filtered trace: the full header plus only
    /// the matching events, for the consumers that print rows
    /// (`query`, the Paraver export).
    fn filtered(&mut self, query: &Query) -> io::Result<(Trace, ScanStats)> {
        let mut trace = self.header()?;
        let mut events = Vec::new();
        let stats = self.scan_batches(query, &mut |b| b.materialize_into(&mut events))?;
        trace.events = events;
        Ok((trace, stats))
    }
}

/// An in-memory trace is a source, owned or borrowed: the parsed
/// `.prv` ([`crate::trace_format::load_trace`]) boxes a [`Trace`], and
/// a live run's trace is read in place through `&mut &report.trace`.
impl<T: Borrow<Trace>> TraceSource for T {
    fn header(&mut self) -> io::Result<Trace> {
        let t = (*self).borrow();
        Ok(Trace {
            meta: t.meta.clone(),
            events: Vec::new(),
            source: t.source.clone(),
            objects: t.objects.clone(),
            region_names: t.region_names.clone(),
            resolution: t.resolution,
        })
    }

    fn scan_batches(
        &mut self,
        query: &Query,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<ScanStats> {
        Ok(scan_events(&(*self).borrow().events, query, sink))
    }

    fn format_name(&self) -> &'static str {
        "prv"
    }

    fn num_events(&mut self) -> io::Result<u64> {
        Ok((*self).borrow().events.len() as u64)
    }

    fn materialize(&mut self) -> io::Result<Trace> {
        Ok((*self).borrow().clone())
    }
}

/// Scan an in-memory event list: the events matching `query`,
/// transposed into column batches. The in-memory counterpart of a
/// store scan, shared by the in-memory [`TraceSource`] and folding's
/// `&Trace` entry points.
pub fn scan_events(
    events: &[crate::events::TraceEvent],
    query: &Query,
    sink: &mut dyn FnMut(&EventBatch<'_>),
) -> ScanStats {
    let mut stats = ScanStats { events_scanned: events.len() as u64, ..Default::default() };
    let matching = events.iter().filter(|e| query.matches(e)).inspect(|_| stats.events_matched += 1);
    transpose_batches(matching, sink);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::EventClass;
    use crate::tracer::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    fn trace() -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 2);
        let c = CounterSnapshot::default();
        for i in 0..10u64 {
            t.enter(0, "R", c, i * 100);
            t.user_event(1, 1, i, i * 100 + 10);
            t.exit(0, "R", c, i * 100 + 50);
        }
        t.finish("source test")
    }

    #[test]
    fn header_carries_no_events() {
        let mut s = trace();
        let h = s.header().unwrap();
        assert!(h.events.is_empty());
        assert_eq!(h.region_names, vec!["R"]);
        assert_eq!(h.meta.num_cores, 2);
    }

    #[test]
    fn materialize_round_trips() {
        let t = trace();
        let mut s = t.clone();
        let m = s.materialize().unwrap();
        assert_eq!(m.events, t.events);
        assert_eq!(m.region_names, t.region_names);
    }

    #[test]
    fn filtered_keeps_only_matches() {
        let mut s = trace();
        let q = Query::all().with_kinds(&[EventClass::User]).in_time(0, 550);
        let (t, stats) = s.filtered(&q).unwrap();
        assert_eq!(t.events.len(), 6, "user events at 10,110,...,510");
        assert_eq!(stats.events_matched, 6);
        assert_eq!(stats.events_scanned, 30);
        assert_eq!(stats.chunks_decoded, 0, "in-memory source decodes nothing");
        assert!(t.events.iter().all(|e| e.core == 1));
    }

    #[test]
    fn merge_sums_every_field_and_the_stats_line_flags_damage() {
        let part = ScanStats {
            events_matched: 1,
            events_scanned: 2,
            chunks_decoded: 3,
            chunks_skipped: 4,
            chunks_cached: 5,
            chunks_damaged: 6,
            payload_bytes_decoded: 7,
        };
        let mut sum = part;
        sum.merge(&part);
        assert_eq!(
            sum,
            ScanStats {
                events_matched: 2,
                events_scanned: 4,
                chunks_decoded: 6,
                chunks_skipped: 8,
                chunks_cached: 10,
                chunks_damaged: 12,
                payload_bytes_decoded: 14,
            }
        );
        assert_eq!(
            sum.to_string(),
            "2 matched / 4 scanned events; 14 payload bytes; chunks: 6 decoded, 10 cached, 8 skipped, 12 DAMAGED"
        );
        assert!(!ScanStats::default().to_string().contains("DAMAGED"));
    }

    #[test]
    fn a_borrowed_trace_is_a_source_too() {
        let t = trace();
        let mut s = &t;
        assert_eq!(s.format_name(), "prv");
        assert_eq!(TraceSource::num_events(&mut s).unwrap(), 30);
        assert_eq!(s.header().unwrap().region_names, t.region_names);
        let q = Query::all().with_kinds(&[EventClass::User]);
        assert_eq!(s.filtered(&q).unwrap().0.events.len(), 10);
    }

    /// The trait's default `num_events` is a counting scan.
    #[test]
    fn default_num_events_counts_with_a_scan() {
        struct Scanned(Trace);
        impl TraceSource for Scanned {
            fn header(&mut self) -> io::Result<Trace> {
                (&self.0).header()
            }
            fn scan_batches(
                &mut self,
                query: &Query,
                sink: &mut dyn FnMut(&EventBatch<'_>),
            ) -> io::Result<ScanStats> {
                Ok(scan_events(&self.0.events, query, sink))
            }
            fn format_name(&self) -> &'static str {
                "test"
            }
        }
        assert_eq!(Scanned(trace()).num_events().unwrap(), 30);
    }
}
