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
//! instances contain it. Each sample is **stored once per fold**: the
//! first time a row lands in any kept instance, its payload becomes one
//! record of a fold-wide table (a PEBS sample's ip, address, latency,
//! store flag, source and object; a counter sample's ip), which the
//! fold's regions share. Each containing region then gets one 16-byte
//! entry `(x, sample, aux)`: the sample's folded time there, the record
//! it names, and the instance holding a PEBS sample or the index of a
//! counter sample in the region's [`CounterSamples`] (none where no
//! counter advanced). The address and line panels are **views** over a
//! region's entries ([`PooledSamples::addr_points`],
//! [`PooledSamples::line_points`]): the line panel is every entry, the
//! address panel the PEBS entries. The twelve counter panels are
//! derived from the counter samples as structure-of-arrays
//! (`counter_xs` / `counter_ys`), so the binning pass in the fold
//! engine streams two flat `f64` buffers. Source files are interned
//! into a per-region string table ([`FileId`]) as samples first name
//! them, so the table keeps first-appearance order.
//!
//! A performance-only fold pools only what that panel reads: its
//! sample scan delivers counter samples alone, the kernel records no
//! sample and resolves no source line, and the engine drops the
//! entries once it has ordered the counter samples, so the address
//! panel, the line panel and the file table stay empty.

use crate::instances::RegionInstance;
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::{scan_events, EventBatch, Ip, ObjectId, RowView, SourceMap, Trace};
use mempersp_memsim::MemLevel;
use mempersp_pebs::{EventKind, PebsSample};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
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

/// "None" in a `u32` field of an [`Entry`] or a record.
const NONE: u32 = u32::MAX;
/// The bit of [`Entry::sample`] that marks a PEBS record.
const PEBS: u32 = 1 << 31;
/// The [`Entry::sample`] of a counter sample a performance-only fold
/// pooled: it names no record.
const UNRECORDED: u32 = !PEBS;

/// A PEBS sample's payload, recorded once per fold.
#[derive(Debug, Clone, Copy)]
struct PebsRecord {
    ip: u64,
    addr: u64,
    object: Option<ObjectId>,
    latency: u32,
    /// The statement `ip` names ([`SourceMap::index_of`]), or [`NONE`].
    stmt: u32,
    is_store: bool,
    source: MemLevel,
}

/// A counter sample's code location, recorded once per fold.
#[derive(Debug, Clone, Copy)]
struct CounterRecord {
    ip: u64,
    /// As [`PebsRecord::stmt`].
    stmt: u32,
}

/// The sample rows one fold pooled, each recorded once however many
/// of its regions contain it. The fold's regions share it.
#[derive(Debug, Default)]
struct SampleTable {
    pebs: Vec<PebsRecord>,
    counter: Vec<CounterRecord>,
}

/// A sample table at least this large hands the allocator's free pages
/// back to the system when it is dropped. A smaller fold (the paper's
/// sampling pools a few thousand samples, in milliseconds) frees too
/// little to matter, and the release walks every free list and makes
/// the next allocations fault their pages in again.
const RELEASE_BYTES: usize = 4 << 20;

/// The table goes with the last region of its fold, after every other
/// buffer of that fold's result. Those buffers are tens of MiB below
/// glibc's dynamic mmap threshold, so glibc serves them from its heap
/// and, once they are freed, keeps them resident: up to twice that
/// threshold at the top of the heap, and any amount below a live
/// allocation. What a process held after a large fold then depended on
/// what it had allocated before; returning the free pages makes it the
/// same every time.
impl Drop for SampleTable {
    fn drop(&mut self) {
        let bytes = size_of_val(&*self.pebs) + size_of_val(&*self.counter);
        (self.pebs, self.counter) = (Vec::new(), Vec::new());
        if bytes >= RELEASE_BYTES {
            release_free_memory();
        }
    }
}

/// Return the allocator's free pages to the system: glibc's
/// `malloc_trim`; nothing where the allocator is another one.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and only gives back
        // pages of chunks that are already free.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One sample as pooled into one region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// The sample's normalized time in the instance holding it.
    pub(crate) x: f64,
    /// Index of its record: in [`SampleTable::pebs`] when the
    /// [`PEBS`] bit is set, else in [`SampleTable::counter`] (or
    /// [`UNRECORDED`]).
    sample: u32,
    /// A PEBS sample: the index of the instance holding it. A counter
    /// sample: its index in the region's [`CounterSamples`], or [`NONE`]
    /// where no counter advanced in its instance.
    aux: u32,
}

impl Entry {
    fn is_pebs(&self) -> bool {
        self.sample & PEBS != 0
    }

    /// The index of the counter sample this entry pools, if it pools
    /// one that some counter panel reads.
    pub(crate) fn counter_sample(&self) -> Option<usize> {
        (!self.is_pebs() && self.aux != NONE).then_some(self.aux as usize)
    }
}

/// All pooled samples of one folded region.
///
/// Equality compares the panels ([`Self::counter_xy`],
/// [`Self::addr_points`], [`Self::line_points`], [`Self::files`]), not
/// how they are stored: two regions of one fold share a sample table.
#[derive(Clone, Serialize, Deserialize)]
pub struct PooledSamples {
    /// Per counter kind (indexed by [`EventKind::index`]): normalized
    /// sample times. `counter_xs[k][i]` pairs with `counter_ys[k][i]`.
    pub(crate) counter_xs: Vec<Vec<f64>>,
    /// Normalized counter progress, parallel to `counter_xs`.
    pub(crate) counter_ys: Vec<Vec<f64>>,
    /// One per sample pooled into this region, in trace order until the
    /// fold orders them by `x`: the line panel, and where they name a
    /// PEBS record the address panel.
    pub(crate) entries: Vec<Entry>,
    /// The records `entries` name.
    table: Arc<SampleTable>,
    /// Per statement a sample of this region named: its interned file
    /// and line (indexed by a record's `stmt`).
    lines: Vec<Option<(FileId, u32)>>,
    /// Interned source-file names referenced by [`LinePoint::file`].
    pub(crate) files: Vec<Arc<str>>,
}

impl Default for PooledSamples {
    fn default() -> Self {
        Self {
            counter_xs: vec![Vec::new(); NKINDS],
            counter_ys: vec![Vec::new(); NKINDS],
            entries: Vec::new(),
            table: Arc::default(),
            lines: Vec::new(),
            files: Vec::new(),
        }
    }
}

/// A view printed as the `Vec` it stands for.
struct DebugList<I>(I);

impl<I: Iterator<Item: fmt::Debug> + Clone> fmt::Debug for DebugList<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.clone()).finish()
    }
}

/// The text a struct of the five panels prints: the views print as the
/// `Vec`s they stand for.
impl fmt::Debug for PooledSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledSamples")
            .field("counter_xs", &self.counter_xs)
            .field("counter_ys", &self.counter_ys)
            .field("addr_points", &DebugList(self.addr_points()))
            .field("line_points", &DebugList(self.line_points()))
            .field("files", &self.files)
            .finish()
    }
}

impl PartialEq for PooledSamples {
    fn eq(&self, other: &Self) -> bool {
        self.counter_xs == other.counter_xs
            && self.counter_ys == other.counter_ys
            && self.addr_points().eq(other.addr_points())
            && self.line_points().eq(other.line_points())
            && self.files == other.files
    }
}

impl PooledSamples {
    /// Panels built from explicit points, pooled as a fold would pool
    /// them: each address point is a PEBS sample, so it is also a point
    /// of the line panel (with its ip, and file and line unresolved),
    /// and each line point is a counter sample that advanced no
    /// counter. The line panel lists the address points' lines, then
    /// `line_points`. `files` is the table [`LinePoint::file`] indexes;
    /// a line point names both a file and a line, or neither.
    pub fn from_points(files: &[&str], addr_points: &[AddrPoint], line_points: &[LinePoint]) -> Self {
        let mut out = Self { files: files.iter().map(|&f| Arc::from(f)).collect(), ..Self::default() };
        let mut table = SampleTable::default();
        for (i, p) in addr_points.iter().enumerate() {
            table.pebs.push(PebsRecord {
                ip: p.ip,
                addr: p.addr,
                object: p.object,
                latency: p.latency,
                stmt: NONE,
                is_store: p.is_store,
                source: p.source,
            });
            out.entries.push(Entry { x: p.x, sample: PEBS | i as u32, aux: p.instance as u32 });
        }
        for (i, p) in line_points.iter().enumerate() {
            let stmt = match (p.file, p.line) {
                (Some(file), Some(line)) => {
                    out.lines.push(Some((file, line)));
                    (out.lines.len() - 1) as u32
                }
                (None, None) => NONE,
                _ => panic!("a line point names both a file and a line, or neither"),
            };
            table.counter.push(CounterRecord { ip: p.ip, stmt });
            out.entries.push(Entry { x: p.x, sample: i as u32, aux: NONE });
        }
        out.table = Arc::new(table);
        out
    }

    /// The (times, progress) SoA buffers pooled for one counter.
    pub fn counter_xy(&self, kind: EventKind) -> (&[f64], &[f64]) {
        (&self.counter_xs[kind.index()], &self.counter_ys[kind.index()])
    }

    /// Iterate one counter's pooled points as (time, progress) pairs.
    pub fn counter_points(&self, kind: EventKind) -> impl Iterator<Item = (f64, f64)> + '_ {
        let (xs, ys) = self.counter_xy(kind);
        xs.iter().copied().zip(ys.iter().copied())
    }

    /// The address panel: one point per PEBS sample pooled, ordered by
    /// `x` (ties in trace order) once the fold has run.
    pub fn addr_points(&self) -> impl Iterator<Item = AddrPoint> + Clone + '_ {
        self.entries.iter().filter(|e| e.is_pebs()).map(|e| {
            let r = &self.table.pebs[(e.sample & !PEBS) as usize];
            AddrPoint {
                x: e.x,
                addr: r.addr,
                ip: r.ip,
                is_store: r.is_store,
                latency: r.latency,
                source: r.source,
                object: r.object,
                instance: e.aux as usize,
            }
        })
    }

    /// The code-line panel: one point per sample pooled, PEBS and
    /// counter samples alike, ordered by `x` (ties in trace order) once
    /// the fold has run.
    pub fn line_points(&self) -> impl ExactSizeIterator<Item = LinePoint> + Clone + '_ {
        self.entries.iter().map(|e| {
            let index = (e.sample & !PEBS) as usize;
            let (ip, stmt) = if e.is_pebs() {
                let r = &self.table.pebs[index];
                (r.ip, r.stmt)
            } else {
                let r = &self.table.counter[index];
                (r.ip, r.stmt)
            };
            let (file, line) = match self.lines.get(stmt as usize) {
                Some(&Some((file, line))) => (Some(file), Some(line)),
                _ => (None, None),
            };
            LinePoint { x: e.x, ip, file, line }
        })
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
        let addr_len = self.entries.iter().filter(|e| e.is_pebs()).count();
        self.counter_xs.iter().map(Vec::len).sum::<usize>() + addr_len + self.entries.len()
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
        sort_by_x(&mut self.entries, |e| e.x);
    }
}

/// Per counter kind (indexed by [`EventKind::index`]): the (times,
/// progress) buffers of one region's counter panels.
pub type CounterPanels = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// One region's in-instance counter samples, each pooled once: its
/// normalized time, the counters that advanced in its instance (bit
/// `k` for [`EventKind::index`] `k`) and one progress value per counter
/// (`0.0`, and never read, where that counter did not advance). The
/// twelve counter panels are derived from it, all from one order of
/// the samples' times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSamples {
    xs: Vec<f64>,
    masks: Vec<u16>,
    /// `NKINDS` values per sample.
    ys: Vec<f64>,
}

impl CounterSamples {
    /// Append one sample: time `x`, advanced-counter `mask`, and
    /// `ys[k]`, counter `k`'s progress, wherever bit `k` is set.
    pub fn push(&mut self, x: f64, mask: u16, ys: &[f64; NKINDS]) {
        self.xs.push(x);
        self.masks.push(mask);
        self.ys.extend_from_slice(ys);
    }

    /// Number of samples pooled.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether no sample was pooled.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Empty panels, each reserved to its exact length: the number of
    /// samples whose mask has that counter's bit.
    pub fn reserve_panels(&self) -> CounterPanels {
        let (mut xs, mut ys): CounterPanels = (vec![Vec::new(); NKINDS], vec![Vec::new(); NKINDS]);
        for k in 0..NKINDS {
            let n = self.masks.iter().filter(|&&m| m & (1 << k) != 0).count();
            xs[k].reserve_exact(n);
            ys[k].reserve_exact(n);
        }
        (xs, ys)
    }

    /// The panels in trace order.
    pub fn into_panels(self) -> CounterPanels {
        let (mut panels, n) = (self.reserve_panels(), self.len());
        self.gather(0..n, &mut panels);
        panels
    }

    /// Append the panels to `panels` (empty, as [`Self::reserve_panels`]
    /// makes them) in [`sort_counter`]'s (x, y) order, freeing the
    /// samples. `by_x` lists every sample's index in a stable order of
    /// the samples by `x`, and each panel takes its points in that
    /// order, so it only has to order each run of equal `x` by `y`. A
    /// NaN-free multiset of pairs without `-0.0` has one sorted
    /// sequence, so this is exactly `sort_counter`'s result.
    pub fn sort_into(self, by_x: impl Iterator<Item = usize>, panels: &mut CounterPanels) {
        self.gather(by_x, panels);
        for (xs, ys) in panels.0.iter().zip(&mut panels.1) {
            let mut start = 0;
            for end in 1..=xs.len() {
                if end == xs.len() || xs[end] != xs[start] {
                    if end - start > 1 {
                        ys[start..end].sort_by(|a, b| a.partial_cmp(b).expect("no NaN coordinates"));
                    }
                    start = end;
                }
            }
        }
    }

    /// Append every counter's (x, y) points to `panels`, visiting the
    /// samples in `order`. The samples are freed on return.
    fn gather(self, order: impl Iterator<Item = usize>, (xs, ys): &mut CounterPanels) {
        for i in order {
            let (x, row) = (self.xs[i], &self.ys[i * NKINDS..][..NKINDS]);
            let mut mask = self.masks[i];
            while mask != 0 {
                let k = mask.trailing_zeros() as usize;
                xs[k].push(x);
                ys[k].push(row[k]);
                mask &= mask - 1;
            }
        }
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

/// Make sure region `out` knows the statement `stmt` names: the first
/// time one of its samples names it, resolve it and intern its file
/// (each region owns its string table, so ids are region-local and in
/// first-appearance order). A region with no statement table (a
/// performance-only fold) and a statement of [`NONE`] resolve nothing.
fn resolve_line(source: &SourceMap, out: &mut PooledSamples, ip: u64, stmt: u32) {
    if let Some(None) = out.lines.get(stmt as usize) {
        let loc = source.resolve(Ip(ip)).expect("index_of found it");
        let file = out.intern_file(&loc.file);
        out.lines[stmt as usize] = Some((file, loc.line));
    }
}

/// The panels a fold fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Panels {
    /// Code lines, addresses and performance.
    All,
    /// Performance only: the counter panels.
    Performance,
}

impl Panels {
    /// The events pooling reads for these panels: counter and PEBS
    /// samples, or counter samples alone.
    pub(crate) fn sample_query(self) -> Query {
        match self {
            Panels::All => Query::all().with_kinds(&[EventClass::CounterSample, EventClass::Pebs]),
            Panels::Performance => Query::all().with_kinds(&[EventClass::CounterSample]),
        }
    }
}

/// Pool every in-instance sample of the trace into folded coordinates
/// for **all** regions in one pass over the events. `kept[s]` holds
/// region `s`'s kept instances; a sample contributes to every region
/// whose instance contains it (nested regions pool concurrently).
///
/// The returned panels are **unsorted** (trace order); callers sort
/// via [`PooledSamples::sort_deterministic`].
pub fn pool_all(trace: &Trace, kept: &[&[RegionInstance]]) -> Vec<PooledSamples> {
    let mut pooler = Pooler::new(trace, kept, Panels::All);
    if !kept.is_empty() {
        scan_events(&trace.events, &Panels::All.sample_query(), &mut |b| pooler.push(b));
    }
    let (mut out, counters) = pooler.finish();
    for (p, c) in out.iter_mut().zip(counters) {
        (p.counter_xs, p.counter_ys) = c.into_panels();
    }
    out
}

/// Pooling as a column kernel: fed the sample rows of a trace batch by
/// batch, **in trace order**, it records each sample the first time it
/// lands in a kept instance and appends one entry per containing region
/// in that order — which, with the stable order by `x` downstream, is
/// what keeps the panels byte-identical across containers and
/// chunkings. The table, the per-core spans and the per-region
/// statement tables carry across batches.
pub(crate) struct Pooler<'a> {
    source: &'a SourceMap,
    /// Under [`Panels::Performance`] no sample is recorded.
    panels: Panels,
    kept: &'a [&'a [RegionInstance]],
    indices: Vec<InstanceIndex>,
    /// Per slot, per kept instance: the counters that advanced in it.
    advanced: Vec<Vec<Advanced>>,
    table: SampleTable,
    out: Vec<PooledSamples>,
    counters: Vec<CounterSamples>,
}

/// The counters that advanced in one instance: as a mask over
/// [`EventKind::index`], and as (kind, value at entry, value at exit).
struct Advanced {
    mask: u16,
    counters: Vec<(EventKind, u64, u64)>,
}

impl Advanced {
    fn new(inst: &RegionInstance) -> Self {
        let counters: Vec<(EventKind, u64, u64)> = EventKind::ALL
            .into_iter()
            .map(|kind| (kind, inst.counters_in.get(kind), inst.counters_out.get(kind)))
            .filter(|&(_, c0, c1)| c1 > c0)
            .collect();
        Self { mask: counters.iter().fold(0, |m, &(kind, ..)| m | 1 << kind.index()), counters }
    }
}

impl<'a> Pooler<'a> {
    /// `header` supplies the source map and the core count.
    pub(crate) fn new(header: &'a Trace, kept: &'a [&'a [RegionInstance]], panels: Panels) -> Self {
        let statements = if panels == Panels::All { header.source.len() } else { 0 };
        Self {
            source: &header.source,
            panels,
            kept,
            indices: kept.iter().map(|k| InstanceIndex::new(k, header.meta.num_cores)).collect(),
            advanced: kept.iter().map(|k| k.iter().map(Advanced::new).collect()).collect(),
            table: SampleTable::default(),
            out: kept
                .iter()
                .map(|_| PooledSamples { lines: vec![None; statements], ..PooledSamples::default() })
                .collect(),
            counters: kept.iter().map(|_| CounterSamples::default()).collect(),
        }
    }

    fn stmt(&self, ip: u64) -> u32 {
        self.source.index_of(Ip(ip)).map_or(NONE, |i| i as u32)
    }

    /// Record a counter sample: its `sample` field and statement
    /// ([`UNRECORDED`] and [`NONE`] under [`Panels::Performance`]).
    fn record_counter(&mut self, ip: u64) -> (u32, u32) {
        if self.panels == Panels::Performance {
            return (UNRECORDED, NONE);
        }
        let stmt = self.stmt(ip);
        self.table.counter.push(CounterRecord { ip, stmt });
        (record_index(self.table.counter.len()), stmt)
    }

    /// Record a PEBS sample: its `sample` field and statement.
    fn record_pebs(&mut self, sample: PebsSample, object: Option<ObjectId>) -> (u32, u32) {
        let stmt = self.stmt(sample.ip);
        self.table.pebs.push(PebsRecord {
            ip: sample.ip,
            addr: sample.addr,
            object,
            latency: sample.latency,
            stmt,
            is_store: sample.is_store,
            source: sample.source,
        });
        (PEBS | record_index(self.table.pebs.len()), stmt)
    }

    /// Consume the counter-sample and PEBS rows of one batch (other
    /// rows are ignored). Payload columns are read, and the sample
    /// recorded, only for rows that fall inside a kept instance.
    pub(crate) fn push(&mut self, batch: &EventBatch<'_>) {
        for row in batch.rows() {
            match row.view {
                RowView::Sample(s) => {
                    let mut payload = None;
                    for slot in 0..self.kept.len() {
                        let Some(idx) = self.indices[slot].lookup(row.core, row.cycles) else {
                            continue;
                        };
                        let (ip, counters, (sample, stmt)) = *payload.get_or_insert_with(|| {
                            let ip = s.ip().0;
                            (ip, s.counters(), self.record_counter(ip))
                        });
                        let x = self.kept[slot][idx].normalize(row.cycles);
                        let advanced = &self.advanced[slot][idx];
                        let mut aux = NONE;
                        if advanced.mask != 0 {
                            let mut ys = [0.0; NKINDS];
                            for &(kind, c0, c1) in &advanced.counters {
                                let c = counters.get(kind).clamp(c0, c1);
                                ys[kind.index()] = (c - c0) as f64 / (c1 - c0) as f64;
                            }
                            aux = self.counters[slot].len() as u32;
                            self.counters[slot].push(x, advanced.mask, &ys);
                        }
                        let out = &mut self.out[slot];
                        resolve_line(self.source, out, ip, stmt);
                        out.entries.push(Entry { x, sample, aux });
                    }
                }
                RowView::Pebs(p) => {
                    let mut payload = None;
                    for slot in 0..self.kept.len() {
                        let Some(idx) = self.indices[slot].lookup(row.core, row.cycles) else {
                            continue;
                        };
                        let (ip, (sample, stmt)) = *payload.get_or_insert_with(|| {
                            let sample = p.sample();
                            (sample.ip, self.record_pebs(sample, p.object()))
                        });
                        let out = &mut self.out[slot];
                        let x = self.kept[slot][idx].normalize(row.cycles);
                        resolve_line(self.source, out, ip, stmt);
                        out.entries.push(Entry { x, sample, aux: idx as u32 });
                    }
                }
                _ => {}
            }
        }
    }

    /// Per slot: the entries in trace order, sharing the fold's sample
    /// table, and the counter samples the counter panels are derived
    /// from. Each buffer first gives back its growth slack (a `Vec`
    /// grown by doubling may hold up to twice what it uses), so the
    /// counter panels are reserved next to buffers of their exact size
    /// and a fold's result holds no slack for as long as it lives.
    pub(crate) fn finish(mut self) -> (Vec<PooledSamples>, Vec<CounterSamples>) {
        self.table.pebs.shrink_to_fit();
        self.table.counter.shrink_to_fit();
        for p in &mut self.out {
            p.entries.shrink_to_fit();
        }
        for c in &mut self.counters {
            c.xs.shrink_to_fit();
            c.masks.shrink_to_fit();
            c.ys.shrink_to_fit();
        }
        let table = Arc::new(self.table);
        let out = self.out.into_iter().map(|p| PooledSamples { table: Arc::clone(&table), ..p }).collect();
        (out, self.counters)
    }
}

/// The index of the last of `len` records, which must leave the
/// [`PEBS`] bit clear.
fn record_index(len: usize) -> u32 {
    u32::try_from(len - 1).ok().filter(|&i| i & PEBS == 0).expect("fewer than 2^31 samples per fold")
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
        assert_eq!(p.counter_xy(EventKind::Instructions).0.len(), 2);
        // line points: 2 counter samples + 1 pebs = 3.
        assert_eq!(p.line_points().len(), 3);
    }

    #[test]
    fn pebs_points_carry_payload_and_instance() {
        let tr = make_trace();
        let inst = kept(&tr);
        let p = pool_one(&tr, &inst);
        assert_eq!(p.addr_points().count(), 1);
        let a = p.addr_points().next().unwrap();
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
        let lp = p.line_points().next().unwrap();
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
        assert_eq!(p.counter_xy(EventKind::Branches).0.len(), 0);
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
        assert_eq!(pooled[0].counter_xy(EventKind::Instructions).0.len(), 1);
        assert_eq!(pooled[1].counter_xy(EventKind::Instructions).0.len(), 1);
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

    /// `len()` counts one point per advancing counter per counter
    /// sample, plus the address and line points: the figure the
    /// benchmark reports as points pooled.
    #[test]
    fn pooled_len_counts_every_panel_point() {
        let tr = make_trace();
        let inst = kept(&tr);
        let lens: Vec<usize> = pool_all(&tr, &[&inst, &inst]).iter().map(PooledSamples::len).collect();
        // 2 samples × 2 advancing counters + 1 address + 3 line points.
        assert_eq!(lens, [8, 8]);

        let mut t = Tracer::new(TracerConfig::default(), 1);
        let ip = t.location("k.cpp", 7, "k");
        t.enter(0, "outer", ctr(0), 0);
        t.enter(0, "inner", ctr(100), 40);
        t.record_counter_sample(0, ip, ctr(150), 50);
        t.exit(0, "inner", ctr(200), 60);
        t.exit(0, "outer", ctr(1000), 100);
        let tr = t.finish("nested");
        let (outer, inner) = (instances_of(&tr, "outer"), instances_of(&tr, "inner"));
        let lens: Vec<usize> = pool_all(&tr, &[&outer, &inner]).iter().map(PooledSamples::len).collect();
        assert_eq!(lens, [3, 3]);
    }

    /// Two nested regions on one core: `inner` runs twice inside each
    /// of two `outer` instances, and both see counter samples (one in an
    /// instance where no counter advances) and PEBS samples from two
    /// source files, some outside `inner`.
    fn nested_trace() -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let (a, b) = (t.location("a.cpp", 1, "a"), t.location("b.cpp", 2, "b"));
        let pebs = |t: &mut Tracer, ip: mempersp_extrae::Ip, at: u64| {
            t.record_pebs(PebsSample {
                timestamp: at,
                core: 0,
                ip: ip.0,
                addr: 0x1000 + at,
                size: 8,
                is_store: at.is_multiple_of(3),
                latency: at as u32 % 50,
                source: MemLevel::L3,
                tlb_miss: false,
            })
        };
        for k in 0..2u64 {
            let (t0, c0) = (k * 1000, k * 10_000);
            t.enter(0, "outer", ctr(c0), t0);
            pebs(&mut t, b, t0 + 50);
            for j in 0..2u64 {
                let (s, c) = (t0 + 100 + j * 300, c0 + 1000 + j * 3000);
                // The second inner instance of each outer advances no
                // counter: its counter sample pools into no panel.
                let end = if j == 0 { c + 2000 } else { c };
                t.enter(0, "inner", ctr(c), s);
                t.record_counter_sample(0, a, ctr(c + if j == 0 { 500 } else { 0 }), s + 100);
                pebs(&mut t, a, s + 100);
                pebs(&mut t, b, s + 150);
                t.exit(0, "inner", ctr(end), s + 200);
            }
            t.record_counter_sample(0, b, ctr(c0 + 9000), t0 + 900);
            t.exit(0, "outer", ctr(c0 + 10_000), t0 + 1000);
        }
        t.finish("nested")
    }

    /// `{:?}` and `{:#?}` of a fold, and `==`, are what they were when
    /// the panels were fields: the views print as the `Vec`s they stand
    /// for, in the order of the derived `Debug` of those fields.
    #[test]
    fn debug_text_is_the_derived_text_of_the_five_panels() {
        mod mirror {
            use super::{AddrPoint, Arc, LinePoint};
            #[derive(Debug)]
            #[allow(dead_code)] // read only through Debug
            pub struct PooledSamples {
                pub counter_xs: Vec<Vec<f64>>,
                pub counter_ys: Vec<Vec<f64>>,
                pub addr_points: Vec<AddrPoint>,
                pub line_points: Vec<LinePoint>,
                pub files: Vec<Arc<str>>,
            }
        }
        let mirror = |p: &PooledSamples| mirror::PooledSamples {
            counter_xs: p.counter_xs.clone(),
            counter_ys: p.counter_ys.clone(),
            addr_points: p.addr_points().collect(),
            line_points: p.line_points().collect(),
            files: p.files.clone(),
        };
        let tr = nested_trace();
        let (outer, inner) = (instances_of(&tr, "outer"), instances_of(&tr, "inner"));
        for mut p in pool_all(&tr, &[&outer, &inner]) {
            p.sort_deterministic();
            assert!(p.addr_points().count() > 0 && p.line_points().len() > p.addr_points().count());
            assert!(!p.counter_xs[EventKind::Instructions.index()].is_empty());
            assert_eq!(p.files().len(), 2);
            assert_eq!(format!("{p:?}"), format!("{:?}", mirror(&p)));
            assert_eq!(format!("{p:#?}"), format!("{:#?}", mirror(&p)));
            assert_eq!(p, p.clone());
        }
        let empty = PooledSamples::default();
        assert_eq!(format!("{empty:?}"), format!("{:?}", mirror(&empty)));
        assert_eq!(format!("{empty:#?}"), format!("{:#?}", mirror(&empty)));
    }

    #[test]
    fn pool_all_matches_per_region_pooling() {
        let tr = make_trace();
        let inst = kept(&tr);
        let mut multi = pool_all(&tr, &[&inst, &inst]).swap_remove(1);
        multi.sort_deterministic();
        let single = pool_one(&tr, &inst);
        assert_eq!(format!("{multi:?}"), format!("{single:?}"));
        assert_eq!(multi, single);

        // `inner` pooled beside `outer` names records in a table that
        // also holds `outer`'s own samples; alone, it names its own.
        let tr = nested_trace();
        let (outer, inner) = (instances_of(&tr, "outer"), instances_of(&tr, "inner"));
        let mut both = pool_all(&tr, &[&outer, &inner]);
        assert!(Arc::ptr_eq(&both[0].table, &both[1].table));
        assert!(both[1].table.pebs.len() > both[1].addr_points().count());
        for (slot, instances) in [(0, &outer), (1, &inner)] {
            let shared = &mut both[slot];
            shared.sort_deterministic();
            let alone = pool_one(&tr, instances);
            assert_eq!(format!("{shared:?}"), format!("{alone:?}"));
            assert_eq!(*shared, alone);
        }
        assert_ne!(both[0], both[1]);
    }
}
