//! Cross-instance sample pooling.
//!
//! Every sample taken inside a kept instance is mapped to the folded
//! coordinate system: normalized time for all samples, plus normalized
//! counter progress for counter samples. PEBS samples contribute to
//! the *address* panel and (through their instruction pointer) to the
//! *source-line* panel; timer samples contribute to the source-line
//! and *performance* panels.
//!
//! Pooling is **single-pass and multi-region**: the `Pooler` column
//! kernel is fed the trace's sample rows once, batch by batch, and
//! dispatches every sample into the accumulators of all regions whose
//! instances contain it. Counter points are stored as
//! structure-of-arrays (`counter_xs` / `counter_ys`) so the binning
//! pass in the fold engine streams two flat `f64` buffers, and source
//! files are interned into a per-region string table ([`FileId`]) so a
//! dense code-line panel costs 4 bytes per sample instead of a cloned
//! `String`.

use crate::instances::RegionInstance;
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::{scan_events, EventBatch, Ip, ObjectId, RowView, SourceMap, Trace};
use mempersp_memsim::MemLevel;
use mempersp_pebs::EventKind;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::Arc;

const NKINDS: usize = EventKind::ALL.len();

/// One folded memory-access sample (middle panel of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AddrPoint {
    /// Normalized time within the folded instance.
    pub x: f64,
    pub addr: u64,
    /// Instruction pointer of the sampled access (resolvable through
    /// the trace's source map).
    pub ip: u64,
    pub is_store: bool,
    pub latency: u32,
    pub source: MemLevel,
    pub object: Option<ObjectId>,
    /// Index of the instance the sample came from.
    pub instance: usize,
}

/// Index into the interned source-file table of a [`PooledSamples`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FileId(pub u32);

/// One folded code-line sample (top panel of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinePoint {
    pub x: f64,
    pub ip: u64,
    /// Resolved source file, interned in the owning
    /// [`PooledSamples::files`] table (None for unknown ips).
    pub file: Option<FileId>,
    pub line: Option<u32>,
}

impl LinePoint {
    /// The resolved source-file name, looked up in the string table of
    /// the [`PooledSamples`] this point belongs to.
    pub fn file_name<'a>(&self, pooled: &'a PooledSamples) -> Option<&'a str> {
        self.file.map(|id| pooled.file_name(id))
    }
}

/// All pooled samples of one folded region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PooledSamples {
    /// Per counter kind (indexed by [`EventKind::index`]): normalized
    /// sample times. `counter_xs[k][i]` pairs with `counter_ys[k][i]`.
    pub(crate) counter_xs: Vec<Vec<f64>>,
    /// Normalized counter progress, parallel to `counter_xs`.
    pub(crate) counter_ys: Vec<Vec<f64>>,
    pub addr_points: Vec<AddrPoint>,
    pub line_points: Vec<LinePoint>,
    /// Interned source-file names referenced by [`LinePoint::file`].
    pub(crate) files: Vec<Arc<str>>,
}

impl Default for PooledSamples {
    fn default() -> Self {
        Self {
            counter_xs: vec![Vec::new(); NKINDS],
            counter_ys: vec![Vec::new(); NKINDS],
            addr_points: Vec::new(),
            line_points: Vec::new(),
            files: Vec::new(),
        }
    }
}

impl PooledSamples {
    /// The (times, progress) SoA buffers pooled for one counter.
    pub fn counter_xy(&self, kind: EventKind) -> (&[f64], &[f64]) {
        (&self.counter_xs[kind.index()], &self.counter_ys[kind.index()])
    }

    /// Iterate one counter's pooled points as (time, progress) pairs.
    pub fn counter_points(&self, kind: EventKind) -> impl Iterator<Item = (f64, f64)> + '_ {
        let (xs, ys) = self.counter_xy(kind);
        xs.iter().copied().zip(ys.iter().copied())
    }

    /// Number of points pooled for one counter.
    pub fn counter_len(&self, kind: EventKind) -> usize {
        self.counter_xs[kind.index()].len()
    }

    /// Append one counter point.
    pub(crate) fn push_counter(&mut self, kind: EventKind, x: f64, y: f64) {
        self.counter_xs[kind.index()].push(x);
        self.counter_ys[kind.index()].push(y);
    }

    /// Intern a source-file name, returning its id (existing entries
    /// are reused; the table is small — one entry per distinct file).
    pub fn intern_file(&mut self, name: &str) -> FileId {
        if let Some(i) = self.files.iter().position(|f| &**f == name) {
            return FileId(i as u32);
        }
        self.files.push(Arc::from(name));
        FileId((self.files.len() - 1) as u32)
    }

    /// Resolve an interned file id back to its name.
    pub fn file_name(&self, id: FileId) -> &str {
        &self.files[id.0 as usize]
    }

    /// The interned source-file table.
    pub fn files(&self) -> &[Arc<str>] {
        &self.files
    }

    /// Total pooled sample count (all panels).
    pub fn len(&self) -> usize {
        self.counter_xs.iter().map(Vec::len).sum::<usize>()
            + self.addr_points.len()
            + self.line_points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sort every panel into the deterministic order downstream
    /// consumers rely on: counter points by (x, y), address and line
    /// points by x (stable, preserving trace order among ties).
    pub fn sort_deterministic(&mut self) {
        for (xs, ys) in self.counter_xs.iter_mut().zip(&mut self.counter_ys) {
            sort_counter(xs, ys);
        }
        sort_by_x(&mut self.addr_points, |p| p.x);
        sort_by_x(&mut self.line_points, |p| p.x);
    }
}

/// Average number of points per bucket of `distribution_sort`.
const BUCKET_POINTS: usize = 8;
/// A bucket longer than this (many points on one `x`: a clock that
/// stood still, zero-duration instances) is ordered by `sort_by`
/// instead of by insertion.
const INSERTION_MAX: usize = 32;
/// `distribution_sort` orders a panel in this many rounds, each
/// through a scratch buffer of that fraction of the panel.
const ROUNDS: usize = 4;

/// Reorder `v` as a stable `sort_by(cmp)` would, in O(n) for keys
/// spread over `[0, 1]`: `x` is an item's normalized time, and `cmp`
/// must not contradict it (`cmp(a, b)` is `Less` only if
/// `x(a) <= x(b)`; no NaN).
///
/// `⌊x·B⌋` is monotone in `x`, so a stable counting pass into
/// `B = n / 8` buckets leaves every item in a bucket that sorts wholly
/// before the next one, its items still in input order, and a stable
/// insertion pass inside each bucket finishes the job. The panel stays
/// where it is: a round moves the topmost buckets still unordered (one
/// [`ROUNDS`]th of the items) to the scratch buffer, closing the
/// remainder up to the front in input order, and inserts them bucket
/// by bucket into the gap that opened behind the remainder. Only a
/// single bucket with more items than that makes the scratch buffer
/// any longer.
fn distribution_sort<T: Copy>(
    v: &mut [T],
    x: impl Fn(&T) -> f64,
    cmp: impl Fn(&T, &T) -> Ordering,
) {
    let n = v.len();
    let buckets = (n / BUCKET_POINTS).max(1);
    // `as usize` saturates, so any x ≥ 1.0 lands in the last bucket.
    let bucket_of = |item: &T| ((x(item) * buckets as f64) as usize).min(buckets - 1);

    // at[b]: where bucket b starts in the ordered panel — and, once
    // its items have been moved out, where it ends.
    let mut at = vec![0usize; buckets];
    for item in v.iter() {
        at[bucket_of(item)] += 1;
    }
    let mut start = 0;
    for a in &mut at {
        let count = *a;
        *a = start;
        start += count;
    }

    let room = n.div_ceil(ROUNDS);
    let mut scratch: Vec<T> = Vec::new();
    // v[..rest] holds the items of buckets ..hi, in input order.
    let (mut rest, mut hi) = (n, buckets);
    while rest > 0 {
        // This round: buckets lo..hi — as many as `room` items, but at
        // least one bucket —, which belong at v[base..rest].
        let mut lo = hi - 1;
        while lo > 0 && rest - at[lo - 1] <= room {
            lo -= 1;
        }
        let base = at[lo];
        if scratch.len() < rest - base {
            scratch.resize(rest - base, v[0]);
        }
        let mut kept = 0;
        for i in 0..rest {
            let item = v[i];
            let b = bucket_of(&item);
            if b < lo {
                v[kept] = item;
                kept += 1;
            } else {
                scratch[at[b] - base] = item;
                at[b] += 1;
            }
        }
        debug_assert_eq!(kept, base);

        // Back into the panel, each bucket put in order on the way.
        let mut from = base;
        for &to in &at[lo..hi] {
            let (bucket, ordered) = (&scratch[from - base..to - base], &mut v[from..to]);
            if bucket.len() > INSERTION_MAX {
                ordered.copy_from_slice(bucket);
                ordered.sort_by(&cmp);
            } else {
                for (i, item) in bucket.iter().enumerate() {
                    let mut j = i;
                    while j > 0 && cmp(&ordered[j - 1], item) == Ordering::Greater {
                        ordered[j] = ordered[j - 1];
                        j -= 1;
                    }
                    ordered[j] = *item;
                }
            }
            from = to;
        }
        (rest, hi) = (base, lo);
    }
}

/// Order one counter's parallel (xs, ys) buffers by (x, y), like a
/// `sort_by` of the pairs but in linear time for `x` spread over
/// `[0, 1]`. No NaN.
pub fn sort_counter(xs: &mut [f64], ys: &mut [f64]) {
    assert_eq!(xs.len(), ys.len(), "one y per x");
    let mut points: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
    distribution_sort(&mut points, |p| p.0, |a, b| a.partial_cmp(b).expect("no NaN coordinates"));
    for ((x, y), p) in xs.iter_mut().zip(ys.iter_mut()).zip(points) {
        (*x, *y) = p;
    }
}

/// Order a panel by `x`, ties staying in input (= trace) order, like
/// a stable `sort_by` but in linear time for `x` spread over `[0, 1]`.
/// No NaN.
pub fn sort_by_x<T: Copy>(points: &mut [T], x: impl Fn(&T) -> f64) {
    distribution_sort(points, &x, |a, b| x(a).partial_cmp(&x(b)).expect("no NaN coordinates"));
}

/// A maximal run of timestamps on one core with one answer: inside one
/// instance, or in one gap between instances.
#[derive(Clone, Copy)]
struct Span {
    lo: u64,
    hi: u64,
    /// Index into the instances slice; `None` in a gap.
    inst: Option<u32>,
}

/// Per-core interval index over one region's kept instances: a binary
/// search when a core's rows move to another span, a range check while
/// they stay in the one they were in.
struct InstanceIndex {
    /// Per core: (start, end, index into the instances slice), sorted
    /// by start. Top-level instances never overlap on one core.
    per_core: Vec<Vec<(u64, u64, u32)>>,
    /// Per core: the span its last looked-up row fell in.
    last: Vec<Span>,
}

impl InstanceIndex {
    fn new(instances: &[RegionInstance], num_cores: usize) -> Self {
        let mut per_core = vec![Vec::new(); num_cores];
        for (i, inst) in instances.iter().enumerate() {
            if inst.core < num_cores {
                per_core[inst.core].push((inst.start_cycles, inst.end_cycles, i as u32));
            }
        }
        for v in &mut per_core {
            v.sort_by_key(|&(s, e, _)| (s, e));
        }
        // An empty span: the first lookup on every core searches.
        Self { per_core, last: vec![Span { lo: 1, hi: 0, inst: None }; num_cores] }
    }

    /// The span holding (core, cycles), and in it the first instance
    /// containing the timestamp. On a shared boundary (one instance
    /// ends where the next starts) the earlier instance wins, matching
    /// the legacy first-containing linear scan — so a span starts past
    /// the end of the instance before it.
    fn find(&self, core: usize, cycles: u64) -> Span {
        let v = &self.per_core[core];
        let i = v.partition_point(|&(_, e, _)| e < cycles);
        // Every instance before `i` ends before `cycles`.
        let after_prev = if i == 0 { 0 } else { v[i - 1].1 + 1 };
        match v.get(i) {
            Some(&(s, e, idx)) if s <= cycles => Span { lo: s.max(after_prev), hi: e, inst: Some(idx) },
            Some(&(s, ..)) => Span { lo: after_prev, hi: s - 1, inst: None },
            None => Span { lo: after_prev, hi: u64::MAX, inst: None },
        }
    }

    /// [`find`](Self::find)'s instance, searched for only when the row
    /// left the span of the core's previous row (in either direction:
    /// rows of one core may step backwards).
    #[inline]
    fn lookup(&mut self, core: usize, cycles: u64) -> Option<usize> {
        let mut span = *self.last.get(core)?;
        if cycles < span.lo || cycles > span.hi {
            span = self.find(core, cycles);
            self.last[core] = span;
        }
        span.inst.map(|i| i as usize)
    }
}

/// Source coordinates of the statements one region has sampled so far,
/// by [`SourceMap::index_of`]; a statement is resolved and its file
/// interned the first time a sample names it (each region owns its
/// string table, so ids are region-local and in first-appearance
/// order).
type LineTable = Vec<Option<(FileId, u32)>>;

fn resolve_line(
    source: &SourceMap,
    table: &mut LineTable,
    samples: &mut PooledSamples,
    ip: u64,
) -> (Option<FileId>, Option<u32>) {
    let Some(i) = source.index_of(Ip(ip)) else {
        return (None, None);
    };
    let (file, line) = *table[i].get_or_insert_with(|| {
        let loc = source.resolve(Ip(ip)).expect("index_of found it");
        (samples.intern_file(&loc.file), loc.line)
    });
    (Some(file), Some(line))
}

/// The events pooling reads: counter and PEBS samples.
pub(crate) fn sample_query() -> Query {
    Query::all().with_kinds(&[EventClass::CounterSample, EventClass::Pebs])
}

/// Pool every in-instance sample of the trace into folded coordinates
/// for **all** regions in one pass over the events. `kept[s]` holds
/// region `s`'s kept instances; a sample contributes to every region
/// whose instance contains it (nested regions pool concurrently).
///
/// The returned panels are **unsorted** (trace order); callers sort
/// via [`PooledSamples::sort_deterministic`] or the fold engine's
/// per-panel work items.
pub fn pool_all(trace: &Trace, kept: &[&[RegionInstance]]) -> Vec<PooledSamples> {
    let mut pooler = Pooler::new(trace, kept);
    if !kept.is_empty() {
        scan_events(&trace.events, &sample_query(), &mut |b| pooler.push(b));
    }
    pooler.finish()
}

/// Pooling as a column kernel: fed the sample rows of a trace batch by
/// batch, **in trace order**, it appends to each slot's panels in that
/// order — which, with the stable per-panel sorts downstream, is what
/// keeps the address and line panels byte-identical across containers
/// and chunkings. The accumulators, per-core spans and per-slot line
/// tables carry across batches.
pub(crate) struct Pooler<'a> {
    source: &'a SourceMap,
    kept: &'a [&'a [RegionInstance]],
    indices: Vec<InstanceIndex>,
    /// Per slot, per kept instance: the counters that advanced in it,
    /// as (kind, value at entry, value at exit).
    advanced: Vec<Vec<Vec<(EventKind, u64, u64)>>>,
    lines: Vec<LineTable>,
    out: Vec<PooledSamples>,
}

impl<'a> Pooler<'a> {
    /// `header` supplies the source map and the core count.
    pub(crate) fn new(header: &'a Trace, kept: &'a [&'a [RegionInstance]]) -> Self {
        let advanced_in = |inst: &RegionInstance| {
            EventKind::ALL
                .into_iter()
                .map(|kind| (kind, inst.counters_in.get(kind), inst.counters_out.get(kind)))
                .filter(|&(_, c0, c1)| c1 > c0)
                .collect()
        };
        Self {
            source: &header.source,
            kept,
            indices: kept.iter().map(|k| InstanceIndex::new(k, header.meta.num_cores)).collect(),
            advanced: kept.iter().map(|k| k.iter().map(advanced_in).collect()).collect(),
            lines: vec![vec![None; header.source.len()]; kept.len()],
            out: kept.iter().map(|_| PooledSamples::default()).collect(),
        }
    }

    /// Consume the counter-sample and PEBS rows of one batch (other
    /// rows are ignored). Payload columns are read only for rows that
    /// fall inside a kept instance.
    pub(crate) fn push(&mut self, batch: &EventBatch<'_>) {
        for row in batch.rows() {
            match row.view {
                RowView::Sample(s) => {
                    let mut payload = None;
                    for slot in 0..self.kept.len() {
                        let Some(idx) = self.indices[slot].lookup(row.core, row.cycles) else {
                            continue;
                        };
                        let (ip, counters) = *payload.get_or_insert_with(|| (s.ip().0, s.counters()));
                        let out = &mut self.out[slot];
                        let x = self.kept[slot][idx].normalize(row.cycles);
                        for &(kind, c0, c1) in &self.advanced[slot][idx] {
                            let c = counters.get(kind).clamp(c0, c1);
                            let y = (c - c0) as f64 / (c1 - c0) as f64;
                            out.push_counter(kind, x, y);
                        }
                        let (file, line) = resolve_line(self.source, &mut self.lines[slot], out, ip);
                        out.line_points.push(LinePoint { x, ip, file, line });
                    }
                }
                RowView::Pebs(p) => {
                    let mut payload = None;
                    for slot in 0..self.kept.len() {
                        let Some(idx) = self.indices[slot].lookup(row.core, row.cycles) else {
                            continue;
                        };
                        let (sample, object) =
                            *payload.get_or_insert_with(|| (p.sample(), p.object()));
                        let out = &mut self.out[slot];
                        let x = self.kept[slot][idx].normalize(row.cycles);
                        out.addr_points.push(AddrPoint {
                            x,
                            addr: sample.addr,
                            ip: sample.ip,
                            is_store: sample.is_store,
                            latency: sample.latency,
                            source: sample.source,
                            object,
                            instance: idx,
                        });
                        let (file, line) =
                            resolve_line(self.source, &mut self.lines[slot], out, sample.ip);
                        out.line_points.push(LinePoint { x, ip: sample.ip, file, line });
                    }
                }
                _ => {}
            }
        }
    }

    pub(crate) fn finish(self) -> Vec<PooledSamples> {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{Tracer, TracerConfig};
    use mempersp_pebs::{CounterSnapshot, PebsSample};

    fn ctr(inst: u64) -> CounterSnapshot {
        let mut v = [0u64; EventKind::ALL.len()];
        v[EventKind::Instructions.index()] = inst;
        v[EventKind::Cycles.index()] = inst * 2;
        CounterSnapshot::from_values(v)
    }

    fn make_trace() -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let ip = t.location("k.cpp", 42, "k");
        // Two instances of R: [0,100] and [200,300], counters advance
        // by 1000 instructions each.
        t.enter(0, "R", ctr(0), 0);
        t.record_counter_sample(0, ip, ctr(250), 25);
        t.record_pebs(PebsSample {
            timestamp: 50,
            core: 0,
            ip: ip.0,
            addr: 0xAAAA,
            size: 8,
            is_store: true,
            latency: 12,
            source: MemLevel::L2,
            tlb_miss: false,
        });
        t.exit(0, "R", ctr(1000), 100);
        // A sample outside any instance must be dropped.
        t.record_counter_sample(0, ip, ctr(1100), 150);
        t.enter(0, "R", ctr(2000), 200);
        t.record_counter_sample(0, ip, ctr(2750), 275);
        t.exit(0, "R", ctr(3000), 300);
        t.finish("pool test")
    }

    fn instances_of(trace: &Trace, region: &str) -> Vec<RegionInstance> {
        let id = trace.region_id(region).unwrap();
        let filter = crate::instances::InstanceFilter::default();
        crate::instances::collect_instances_multi(trace, &[id], &[filter]).swap_remove(0).0
    }

    fn kept(trace: &Trace) -> Vec<RegionInstance> {
        instances_of(trace, "R")
    }

    /// One region's panels, deterministically sorted.
    fn pool_one(trace: &Trace, instances: &[RegionInstance]) -> PooledSamples {
        let mut out = pool_all(trace, &[instances]).swap_remove(0);
        out.sort_deterministic();
        out
    }

    #[test]
    fn normalizes_time_and_progress() {
        let tr = make_trace();
        let inst = kept(&tr);
        let p = pool_one(&tr, &inst);
        let pts: Vec<(f64, f64)> = p.counter_points(EventKind::Instructions).collect();
        assert_eq!(pts.len(), 2);
        // First instance: t=25 -> x=0.25, counters 250/1000.
        assert!((pts[0].0 - 0.25).abs() < 1e-12);
        assert!((pts[0].1 - 0.25).abs() < 1e-12);
        // Second: t=275 -> x=0.75, progress (2750-2000)/1000.
        assert!((pts[1].0 - 0.75).abs() < 1e-12);
        assert!((pts[1].1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn out_of_instance_samples_dropped() {
        let tr = make_trace();
        let inst = kept(&tr);
        let p = pool_one(&tr, &inst);
        // 2 counter samples inside instances (the t=150 one dropped).
        assert_eq!(p.counter_len(EventKind::Instructions), 2);
        // line points: 2 counter samples + 1 pebs = 3.
        assert_eq!(p.line_points.len(), 3);
    }

    #[test]
    fn pebs_points_carry_payload_and_instance() {
        let tr = make_trace();
        let inst = kept(&tr);
        let p = pool_one(&tr, &inst);
        assert_eq!(p.addr_points.len(), 1);
        let a = p.addr_points[0];
        assert_eq!(a.addr, 0xAAAA);
        assert!(a.is_store);
        assert_eq!(a.source, MemLevel::L2);
        assert_eq!(a.instance, 0);
        assert!((a.x - 0.5).abs() < 1e-12);
    }

    #[test]
    fn line_points_resolve_source() {
        let tr = make_trace();
        let inst = kept(&tr);
        let p = pool_one(&tr, &inst);
        let lp = p.line_points[0];
        assert_eq!(lp.file_name(&p), Some("k.cpp"));
        assert_eq!(lp.line, Some(42));
        assert_eq!(p.files().len(), 1, "one distinct file interned once");
    }

    #[test]
    fn stalled_counter_contributes_no_points() {
        let tr = make_trace();
        let inst = kept(&tr);
        let p = pool_one(&tr, &inst);
        // Branches never advance in the synthetic trace.
        assert_eq!(p.counter_len(EventKind::Branches), 0);
        assert!(!p.is_empty());
    }

    #[test]
    fn counter_values_clamped_to_instance_bounds() {
        // A sample whose counter exceeds the exit snapshot (possible
        // with multiplexed reads in real tools) is clamped, not > 1.
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let ip = t.location("k.cpp", 1, "k");
        t.enter(0, "R", ctr(0), 0);
        t.record_counter_sample(0, ip, ctr(5000), 50);
        t.exit(0, "R", ctr(1000), 100);
        let tr = t.finish("clamp");
        let inst = kept(&tr);
        let p = pool_one(&tr, &inst);
        let pts: Vec<(f64, f64)> = p.counter_points(EventKind::Instructions).collect();
        assert_eq!(pts.len(), 1);
        assert!(pts[0].1 <= 1.0);
    }

    #[test]
    fn pool_all_nested_regions_share_one_pass() {
        // inner nests inside outer; the one sample lands in both.
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let ip = t.location("k.cpp", 7, "k");
        t.enter(0, "outer", ctr(0), 0);
        t.enter(0, "inner", ctr(100), 40);
        t.record_counter_sample(0, ip, ctr(150), 50);
        t.exit(0, "inner", ctr(200), 60);
        t.exit(0, "outer", ctr(1000), 100);
        let tr = t.finish("nested");
        let outer = instances_of(&tr, "outer");
        let inner = instances_of(&tr, "inner");
        let pooled = pool_all(&tr, &[&outer, &inner]);
        assert_eq!(pooled.len(), 2);
        assert_eq!(pooled[0].counter_len(EventKind::Instructions), 1);
        assert_eq!(pooled[1].counter_len(EventKind::Instructions), 1);
        // outer: x = 50/100; inner: x = (50-40)/20.
        let (oxs, _) = pooled[0].counter_xy(EventKind::Instructions);
        let (ixs, _) = pooled[1].counter_xy(EventKind::Instructions);
        assert!((oxs[0] - 0.5).abs() < 1e-12);
        assert!((ixs[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memoised_lookup_equals_a_fresh_search_on_any_row_order() {
        let inst = |core: usize, start: u64, end: u64| RegionInstance {
            core,
            start_cycles: start,
            end_cycles: end,
            counters_in: ctr(0),
            counters_out: ctr(1),
        };
        // Core 0: a gap, three instances chained on shared boundary
        // cycles (one of them of zero duration), a gap, one more.
        // Core 1: an instance from cycle 0 and one up to u64::MAX.
        // Core 2: nothing. Core 3 is not in the header.
        let instances = vec![
            inst(0, 10, 20),
            inst(0, 20, 20),
            inst(0, 20, 30),
            inst(0, 40, 50),
            inst(1, 0, 5),
            inst(1, u64::MAX - 3, u64::MAX),
            inst(3, 0, 100),
        ];
        let first_containing = |core: usize, cycles: u64| {
            instances.iter().position(|i| core < 3 && i.core == core && i.contains(cycles))
        };
        let mut index = InstanceIndex::new(&instances, 3);
        let fresh = InstanceIndex::new(&instances, 3);

        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut cycles = [0u64; 5];
        for step in 0..20_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let core = (rng >> 8) as usize % 5;
            // Mostly the same timestamp again or a small step forward;
            // sometimes a step backwards, sometimes a jump anywhere.
            cycles[core] = match (rng >> 16) % 16 {
                0..=5 => cycles[core],
                6..=11 => cycles[core].saturating_add((rng >> 32) % 4),
                12 | 13 => cycles[core].saturating_sub((rng >> 32) % 25),
                14 => (rng >> 32) % 60,
                _ => u64::MAX - (rng >> 32) % 6,
            };
            let want = first_containing(core, cycles[core]);
            if core < 3 {
                assert_eq!(fresh.find(core, cycles[core]).inst.map(|i| i as usize), want);
            }
            assert_eq!(
                index.lookup(core, cycles[core]),
                want,
                "step {step}: core {core} at cycle {}",
                cycles[core]
            );
        }
        // Every boundary, from both sides, in both directions.
        let edges = [0u64, 9, 10, 11, 19, 20, 21, 29, 30, 31, 39, 40, 50, 51, u64::MAX];
        for &c in edges.iter().chain(edges.iter().rev()) {
            assert_eq!(index.lookup(0, c), first_containing(0, c), "cycle {c}");
        }
    }

    #[test]
    fn pool_all_matches_per_region_pooling() {
        let tr = make_trace();
        let inst = kept(&tr);
        let mut multi = pool_all(&tr, &[&inst, &inst]).swap_remove(1);
        multi.sort_deterministic();
        let single = pool_one(&tr, &inst);
        assert_eq!(format!("{multi:?}"), format!("{single:?}"));
    }
}
