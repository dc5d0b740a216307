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
use mempersp_extrae::{scan_events, EventBatch, ObjectId, RowView, SourceMap, Trace};
use mempersp_memsim::MemLevel;
use mempersp_pebs::EventKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
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
        let mut order = Vec::new();
        let mut tmp = Vec::new();
        for k in 0..NKINDS {
            sort_pairs_with(&mut self.counter_xs[k], &mut self.counter_ys[k], &mut order, &mut tmp);
        }
        self.addr_points
            .sort_by(|a, b| a.x.partial_cmp(&b.x).expect("no NaN coordinates"));
        self.line_points
            .sort_by(|a, b| a.x.partial_cmp(&b.x).expect("no NaN coordinates"));
    }
}

/// Stable-sort the parallel (xs, ys) buffers by (x, y), reusing the
/// caller's index/scratch buffers to avoid per-counter allocation.
pub(crate) fn sort_pairs_with(
    xs: &mut [f64],
    ys: &mut [f64],
    order: &mut Vec<u32>,
    tmp: &mut Vec<f64>,
) {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n <= 1 {
        return;
    }
    order.clear();
    order.extend(0..n as u32);
    order.sort_by(|&a, &b| {
        let ka = (xs[a as usize], ys[a as usize]);
        let kb = (xs[b as usize], ys[b as usize]);
        ka.partial_cmp(&kb).expect("no NaN coordinates")
    });
    tmp.clear();
    tmp.extend(order.iter().map(|&i| xs[i as usize]));
    xs.copy_from_slice(tmp);
    tmp.clear();
    tmp.extend(order.iter().map(|&i| ys[i as usize]));
    ys.copy_from_slice(tmp);
}

/// Per-core interval index over one region's kept instances; replaces
/// the per-sample linear scan with a binary search.
struct InstanceIndex {
    /// Per core: (start, end, index into the instances slice), sorted
    /// by start. Top-level instances never overlap on one core.
    per_core: Vec<Vec<(u64, u64, u32)>>,
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
        Self { per_core }
    }

    /// First instance containing (core, cycles). On a shared boundary
    /// (one instance ends where the next starts) the earlier instance
    /// wins, matching the legacy first-containing linear scan.
    fn find(&self, core: usize, cycles: u64) -> Option<usize> {
        let v = self.per_core.get(core)?;
        let i = v.partition_point(|&(_, e, _)| e < cycles);
        let &(s, _, idx) = v.get(i)?;
        (s <= cycles).then_some(idx as usize)
    }
}

type LineMemo = HashMap<u64, (Option<FileId>, Option<u32>)>;

/// Resolve an ip to interned source coordinates, memoized per region
/// (each region owns its string table, so ids are region-local).
fn resolve_line(
    source: &SourceMap,
    memo: &mut LineMemo,
    samples: &mut PooledSamples,
    ip: u64,
) -> (Option<FileId>, Option<u32>) {
    if let Some(&r) = memo.get(&ip) {
        return r;
    }
    let r = match source.resolve(mempersp_extrae::Ip(ip)) {
        Some(loc) => (Some(samples.intern_file(&loc.file)), Some(loc.line)),
        None => (None, None),
    };
    memo.insert(ip, r);
    r
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
/// and chunkings. The accumulators and per-slot line memos carry
/// across batches.
pub(crate) struct Pooler<'a> {
    source: &'a SourceMap,
    kept: &'a [&'a [RegionInstance]],
    indices: Vec<InstanceIndex>,
    memos: Vec<LineMemo>,
    out: Vec<PooledSamples>,
}

impl<'a> Pooler<'a> {
    /// `header` supplies the source map and the core count.
    pub(crate) fn new(header: &'a Trace, kept: &'a [&'a [RegionInstance]]) -> Self {
        Self {
            source: &header.source,
            kept,
            indices: kept.iter().map(|k| InstanceIndex::new(k, header.meta.num_cores)).collect(),
            memos: vec![LineMemo::new(); kept.len()],
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
                        let Some(idx) = self.indices[slot].find(row.core, row.cycles) else {
                            continue;
                        };
                        let (ip, counters) = *payload.get_or_insert_with(|| (s.ip().0, s.counters()));
                        let inst = &self.kept[slot][idx];
                        let out = &mut self.out[slot];
                        let x = inst.normalize(row.cycles);
                        for kind in EventKind::ALL {
                            let c0 = inst.counters_in.get(kind);
                            let c1 = inst.counters_out.get(kind);
                            if c1 <= c0 {
                                continue; // counter did not advance in this instance
                            }
                            let c = counters.get(kind).clamp(c0, c1);
                            let y = (c - c0) as f64 / (c1 - c0) as f64;
                            out.push_counter(kind, x, y);
                        }
                        let (file, line) = resolve_line(self.source, &mut self.memos[slot], out, ip);
                        out.line_points.push(LinePoint { x, ip, file, line });
                    }
                }
                RowView::Pebs(p) => {
                    let mut payload = None;
                    for slot in 0..self.kept.len() {
                        let Some(idx) = self.indices[slot].find(row.core, row.cycles) else {
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
                            resolve_line(self.source, &mut self.memos[slot], out, sample.ip);
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

/// Pool every in-instance sample of the trace into folded coordinates
/// for one region, deterministically sorted.
pub fn pool_samples(trace: &Trace, instances: &[RegionInstance]) -> PooledSamples {
    let mut out = pool_all(trace, &[instances]).pop().expect("one slot");
    out.sort_deterministic();
    out
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

    fn kept(trace: &Trace) -> Vec<RegionInstance> {
        let id = trace.region_id("R").unwrap();
        crate::instances::collect_instances(trace, id, crate::instances::InstanceFilter::default()).0
    }

    #[test]
    fn normalizes_time_and_progress() {
        let tr = make_trace();
        let inst = kept(&tr);
        let p = pool_samples(&tr, &inst);
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
        let p = pool_samples(&tr, &inst);
        // 2 counter samples inside instances (the t=150 one dropped).
        assert_eq!(p.counter_len(EventKind::Instructions), 2);
        // line points: 2 counter samples + 1 pebs = 3.
        assert_eq!(p.line_points.len(), 3);
    }

    #[test]
    fn pebs_points_carry_payload_and_instance() {
        let tr = make_trace();
        let inst = kept(&tr);
        let p = pool_samples(&tr, &inst);
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
        let p = pool_samples(&tr, &inst);
        let lp = p.line_points[0];
        assert_eq!(lp.file_name(&p), Some("k.cpp"));
        assert_eq!(lp.line, Some(42));
        assert_eq!(p.files().len(), 1, "one distinct file interned once");
    }

    #[test]
    fn stalled_counter_contributes_no_points() {
        let tr = make_trace();
        let inst = kept(&tr);
        let p = pool_samples(&tr, &inst);
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
        let p = pool_samples(&tr, &inst);
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
        let get = |name: &str| {
            let id = tr.region_id(name).unwrap();
            crate::instances::collect_instances(
                &tr,
                id,
                crate::instances::InstanceFilter::default(),
            )
            .0
        };
        let outer = get("outer");
        let inner = get("inner");
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
    fn pool_all_matches_per_region_pooling() {
        let tr = make_trace();
        let inst = kept(&tr);
        let mut multi = pool_all(&tr, &[&inst, &inst]).swap_remove(1);
        multi.sort_deterministic();
        let single = pool_samples(&tr, &inst);
        assert_eq!(format!("{multi:?}"), format!("{single:?}"));
    }
}
