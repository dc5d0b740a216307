//! Column batches: what a [`TraceSource`](crate::TraceSource) scan
//! hands its consumer.
//!
//! An [`EventBatch`] is one chunk's worth of events in columnar form:
//! the per-row `cycles` / `cores` / `tags` envelope columns, a
//! **selection vector** naming the rows that matched the scan's query
//! (in row order), and per-class payload columns. The store borrows
//! all of it straight from its decode scratch; row containers (`.prv`,
//! an in-memory [`Trace`](crate::Trace)) reach the same type through
//! the [`Transposer`].
//!
//! Per-class numeric columns (`ClassColumns::cols`, indexed by field):
//!
//! * RegionEnter/Exit: `region`, 12 counters
//! * CounterSample: `ip`, 12 counters, `stack_len`, the flattened
//!   `stack`, and `stack_off` (exclusive prefix sums of `stack_len`)
//! * Pebs: `ip`, `addr`, `size`, `latency`, `object` (0 where absent),
//!   plus raw `flags` (`raw_a`) and `level` (`raw_b`) bytes
//! * Alloc: `base`, `size`, `callsite` — Free: `base`
//! * MuxSwitch: `event_index`, `label_len`, `label_off`, plus the
//!   concatenated label bytes (`raw_a`)
//! * User: `kind`, `value`
//!
//! A selected row is a `(row, occurrence)` pair: `row` indexes the
//! envelope columns, `occurrence` is the row's rank among the rows of
//! its class and indexes that class's payload columns (minus
//! [`ClassColumns::base`], so a range-decoded column need not start at
//! occurrence 0).
//!
//! [`EventBatch::new`] checks every index a selected row can reach, so
//! a batch built from hostile bytes is refused there and the accessors
//! — and [`EventBatch::materialize_into`], the one loop in the
//! workspace that builds [`TraceEvent`]s from columns — cannot fail.
//! PEBS rows take `timestamp`/`core` from the envelope: no container
//! stores them twice, so the envelope is the one value every path
//! agrees on.

use crate::events::{EventPayload, RegionId, TraceEvent};
use crate::objects::ObjectId;
use crate::query::EventClass;
use crate::source::Ip;
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, EventKind, PebsSample};

/// Counters carried by every region boundary and counter sample.
pub const NCOUNTERS: usize = EventKind::ALL.len();
const NCLASSES: usize = EventClass::ALL.len();

// Field positions inside `ClassColumns::cols`.
pub const STACK_LEN: usize = 1 + NCOUNTERS;
pub const STACK: usize = STACK_LEN + 1;
pub const STACK_OFF: usize = STACK + 1;
pub const PEBS_OBJECT: usize = 4;
pub const MUX_LABEL_LEN: usize = 1;
pub const MUX_LABEL_OFF: usize = 2;

/// PEBS flag bits (`raw_a`).
pub const PEBS_IS_STORE: u8 = 0b001;
pub const PEBS_TLB_MISS: u8 = 0b010;
pub const PEBS_HAS_OBJECT: u8 = 0b100;

/// Number of numeric columns a class carries.
pub const fn column_count(class: EventClass) -> usize {
    match class {
        EventClass::RegionEnter | EventClass::RegionExit => 1 + NCOUNTERS,
        EventClass::CounterSample => STACK_OFF + 1,
        EventClass::Pebs => 5,
        EventClass::Alloc => 3,
        EventClass::Free => 1,
        EventClass::MuxSwitch => 3,
        EventClass::User => 2,
    }
}

/// The memory level a stored code names, if it is one.
pub fn level_from_code(code: u8) -> Option<MemLevel> {
    match code {
        0 => Some(MemLevel::L1),
        1 => Some(MemLevel::L2),
        2 => Some(MemLevel::L3),
        3 => Some(MemLevel::Dram),
        _ => None,
    }
}

/// The on-disk / in-batch code of a memory level.
pub fn level_code(l: MemLevel) -> u8 {
    match l {
        MemLevel::L1 => 0,
        MemLevel::L2 => 1,
        MemLevel::L3 => 2,
        MemLevel::Dram => 3,
    }
}

/// The first value of `col` past 32 bits, with its index.
fn first_wide(col: &[u64]) -> Option<(usize, u64)> {
    // One vectorizable OR over the column; the search runs only on
    // failure.
    if col.iter().fold(0, |acc, &v| acc | v) >> 32 == 0 {
        return None;
    }
    col.iter().copied().enumerate().find(|&(_, v)| v >> 32 != 0)
}

fn wide(class: &str, field: &str, value: u64, occurrence: usize) -> String {
    format!("{class} {field} {value} of occurrence {occurrence} does not fit 32 bits")
}

/// The payload columns of one event class. Element 0 of every
/// per-occurrence column (numeric or raw) is occurrence `base`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassColumns<'a> {
    pub base: usize,
    pub cols: &'a [Vec<u64>],
    /// PEBS flags, one per occurrence — or, for MuxSwitch, the
    /// concatenated label bytes.
    pub raw_a: &'a [u8],
    /// PEBS memory-level codes, one per occurrence.
    pub raw_b: &'a [u8],
}

impl ClassColumns<'_> {
    /// Check that occurrences `lo..=hi` can be read through every
    /// accessor of `class`.
    fn check(&self, class: EventClass, lo: usize, hi: usize) -> Result<(), String> {
        let name = class.label();
        let (a, b) = match (lo.checked_sub(self.base), hi.checked_sub(self.base)) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(format!("{name} columns start past a selected row")),
        };
        if self.cols.len() < column_count(class) {
            return Err(format!("{name} is missing payload columns"));
        }
        let short = |len: usize| len <= b;
        let per_row = match class {
            EventClass::CounterSample => STACK_LEN + 1, // ip, counters, stack_len
            other => column_count(other),
        };
        if self.cols[..per_row].iter().any(|c| short(c.len())) {
            return Err(format!("{name} payload column is shorter than its selection"));
        }
        // Fields the accessors narrow to 32 bits: a wider stored value
        // would read as another id, size or kind.
        let narrow: &[(usize, &str)] = match class {
            EventClass::RegionEnter | EventClass::RegionExit => &[(0, "region")],
            EventClass::Pebs => &[(2, "size"), (3, "latency"), (PEBS_OBJECT, "object")],
            EventClass::User => &[(0, "kind")],
            _ => &[],
        };
        for &(col, field) in narrow {
            if let Some((i, v)) = first_wide(&self.cols[col][a..=b]) {
                return Err(wide(name, field, v, lo + i));
            }
        }
        match class {
            EventClass::Pebs => {
                if short(self.raw_a.len()) || short(self.raw_b.len()) {
                    return Err("PEBS byte column is shorter than its selection".into());
                }
                // One vectorizable max over the hull; codes are 0..=3.
                let worst = self.raw_b[a..=b].iter().copied().max().unwrap_or(0);
                if level_from_code(worst).is_none() {
                    return Err(format!("bad memory level code {worst}"));
                }
            }
            EventClass::CounterSample => {
                let (lens, offs) = (&self.cols[STACK_LEN], &self.cols[STACK_OFF]);
                if short(offs.len()) {
                    return Err("SAMP stack offsets are shorter than their selection".into());
                }
                let stack = self.cols[STACK].len() as u64;
                if (a..=b).any(|j| offs[j].checked_add(lens[j]).is_none_or(|end| end > stack)) {
                    return Err("SAMP stack overruns its column".into());
                }
                for j in a..=b {
                    let off = offs[j] as usize;
                    if let Some((_, v)) = first_wide(&self.cols[STACK][off..off + lens[j] as usize]) {
                        return Err(wide(name, "stack region", v, self.base + j));
                    }
                }
            }
            EventClass::MuxSwitch => {
                let (lens, offs) = (&self.cols[MUX_LABEL_LEN], &self.cols[MUX_LABEL_OFF]);
                for j in a..=b {
                    let label = usize::try_from(offs[j])
                        .ok()
                        .zip(usize::try_from(lens[j]).ok())
                        .and_then(|(o, l)| self.raw_a.get(o..o.checked_add(l)?))
                        .ok_or("MUX label overruns its column")?;
                    std::str::from_utf8(label).map_err(|_| "mux label is not UTF-8")?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    #[inline]
    fn counters(&self, j: usize) -> CounterSnapshot {
        let mut vals = [0u64; NCOUNTERS];
        for (v, col) in vals.iter_mut().zip(&self.cols[1..=NCOUNTERS]) {
            *v = col[j];
        }
        CounterSnapshot::from_values(vals)
    }
}

/// A region enter/exit row.
#[derive(Clone, Copy)]
pub struct BoundaryRow<'b> {
    pub enter: bool,
    c: &'b ClassColumns<'b>,
    j: usize,
}

impl BoundaryRow<'_> {
    #[inline]
    pub fn region(&self) -> RegionId {
        RegionId(self.c.cols[0][self.j] as u32)
    }

    /// The counter snapshot at the boundary (gathers 12 columns — ask
    /// only when the row is kept).
    #[inline]
    pub fn counters(&self) -> CounterSnapshot {
        self.c.counters(self.j)
    }
}

/// A timer-driven counter sample row.
#[derive(Clone, Copy)]
pub struct SampleRow<'b> {
    c: &'b ClassColumns<'b>,
    j: usize,
}

impl SampleRow<'_> {
    #[inline]
    pub fn ip(&self) -> Ip {
        Ip(self.c.cols[0][self.j])
    }

    #[inline]
    pub fn counters(&self) -> CounterSnapshot {
        self.c.counters(self.j)
    }

    /// The enclosing regions, outermost first.
    #[inline]
    pub fn stack(&self) -> impl ExactSizeIterator<Item = RegionId> + '_ {
        let off = self.c.cols[STACK_OFF][self.j] as usize;
        let len = self.c.cols[STACK_LEN][self.j] as usize;
        self.c.cols[STACK][off..off + len].iter().map(|&r| RegionId(r as u32))
    }
}

/// A PEBS memory-sample row.
#[derive(Clone, Copy)]
pub struct PebsRow<'b> {
    cycles: u64,
    core: usize,
    c: &'b ClassColumns<'b>,
    j: usize,
}

impl PebsRow<'_> {
    /// The sample, with `timestamp`/`core` from the row's envelope.
    #[inline]
    pub fn sample(&self) -> PebsSample {
        let (cols, j) = (self.c.cols, self.j);
        let flags = self.c.raw_a[j];
        PebsSample {
            timestamp: self.cycles,
            core: self.core,
            ip: cols[0][j],
            addr: cols[1][j],
            size: cols[2][j] as u32,
            is_store: flags & PEBS_IS_STORE != 0,
            latency: cols[3][j] as u32,
            source: level_from_code(self.c.raw_b[j]).expect("level codes checked by EventBatch::new"),
            tlb_miss: flags & PEBS_TLB_MISS != 0,
        }
    }

    /// The data object the address resolved to, if any.
    #[inline]
    pub fn object(&self) -> Option<ObjectId> {
        (self.c.raw_a[self.j] & PEBS_HAS_OBJECT != 0)
            .then(|| ObjectId(self.c.cols[PEBS_OBJECT][self.j] as u32))
    }
}

/// A row of a class folding does not read (Alloc, Free, MuxSwitch,
/// User); only [`EventBatch::materialize_into`] and the JSON record
/// writer look inside.
#[derive(Clone, Copy)]
pub struct OtherRow<'b> {
    class: EventClass,
    c: &'b ClassColumns<'b>,
    j: usize,
}

impl OtherRow<'_> {
    /// The row's payload: `Alloc`, `Free`, `MuxSwitch` or `User`.
    #[inline]
    pub fn payload(&self) -> EventPayload {
        let (cols, j) = (self.c.cols, self.j);
        match self.class {
            EventClass::Alloc => {
                EventPayload::Alloc { base: cols[0][j], size: cols[1][j], callsite: Ip(cols[2][j]) }
            }
            EventClass::Free => EventPayload::Free { base: cols[0][j] },
            EventClass::MuxSwitch => {
                let off = cols[MUX_LABEL_OFF][j] as usize;
                let len = cols[MUX_LABEL_LEN][j] as usize;
                let label = std::str::from_utf8(&self.c.raw_a[off..off + len])
                    .expect("labels checked by EventBatch::new");
                EventPayload::MuxSwitch { event_index: cols[0][j] as usize, label: label.to_string() }
            }
            _ => EventPayload::User { kind: cols[0][j] as u32, value: cols[1][j] },
        }
    }
}

/// The typed payload view of one selected row.
#[derive(Clone, Copy)]
pub enum RowView<'b> {
    Boundary(BoundaryRow<'b>),
    Sample(SampleRow<'b>),
    Pebs(PebsRow<'b>),
    Other(OtherRow<'b>),
}

/// One selected row: the envelope plus its payload view.
#[derive(Clone, Copy)]
pub struct Row<'b> {
    pub cycles: u64,
    pub core: usize,
    pub view: RowView<'b>,
}

/// One chunk of decoded events in columnar form. See the module docs.
pub struct EventBatch<'a> {
    cycles: &'a [u64],
    cores: &'a [u32],
    tags: &'a [u8],
    sel: &'a [(u32, u32)],
    classes: [ClassColumns<'a>; NCLASSES],
}

impl<'a> EventBatch<'a> {
    /// Assemble a batch, checking that every selected row's envelope
    /// and payload indices are in range, PEBS level codes are valid,
    /// sample stacks stay inside their column and mux labels are
    /// UTF-8. `tags` holds [`EventClass`] discriminants; `sel` lists
    /// `(row, occurrence)` pairs in row order.
    pub fn new(
        cycles: &'a [u64],
        cores: &'a [u32],
        tags: &'a [u8],
        sel: &'a [(u32, u32)],
        classes: [ClassColumns<'a>; NCLASSES],
    ) -> Result<EventBatch<'a>, String> {
        if cycles.len() != tags.len() || cores.len() != tags.len() {
            return Err("envelope columns disagree on the row count".into());
        }
        let mut lo = [usize::MAX; NCLASSES];
        let mut hi = [0usize; NCLASSES];
        for &(i, j) in sel {
            let k = match tags.get(i as usize) {
                Some(&t) if (t as usize) < NCLASSES => t as usize,
                Some(&t) => return Err(format!("unknown event tag {t}")),
                None => return Err("selected row is past the end of the chunk".into()),
            };
            lo[k] = lo[k].min(j as usize);
            hi[k] = hi[k].max(j as usize);
        }
        for (k, class) in EventClass::ALL.into_iter().enumerate() {
            if lo[k] != usize::MAX {
                classes[k].check(class, lo[k], hi[k])?;
            }
        }
        Ok(EventBatch { cycles, cores, tags, sel, classes })
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// The selected rows, in row (= trace) order.
    #[inline]
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> + '_ {
        self.sel.iter().map(move |&(i, j)| {
            let i = i as usize;
            let (cycles, core) = (self.cycles[i], self.cores[i] as usize);
            let class = EventClass::ALL[self.tags[i] as usize];
            let c = &self.classes[class as usize];
            let j = j as usize - c.base;
            let view = match class {
                EventClass::RegionEnter => RowView::Boundary(BoundaryRow { enter: true, c, j }),
                EventClass::RegionExit => RowView::Boundary(BoundaryRow { enter: false, c, j }),
                EventClass::CounterSample => RowView::Sample(SampleRow { c, j }),
                EventClass::Pebs => RowView::Pebs(PebsRow { cycles, core, c, j }),
                class => RowView::Other(OtherRow { class, c, j }),
            };
            Row { cycles, core, view }
        })
    }

    /// The class of each selected row, in row order (reads only the
    /// tag column).
    pub fn classes(&self) -> impl Iterator<Item = EventClass> + '_ {
        self.sel.iter().map(|&(i, _)| EventClass::ALL[self.tags[i as usize] as usize])
    }

    /// The first `n` selected rows (all of them when there are fewer)
    /// as a batch of their own.
    pub fn head(&self, n: usize) -> EventBatch<'a> {
        EventBatch { sel: &self.sel[..n.min(self.sel.len())], ..*self }
    }

    /// Append the selected rows to `out` as [`TraceEvent`]s.
    pub fn materialize_into(&self, out: &mut Vec<TraceEvent>) {
        // `extend` over the exact-size row iterator reserves once and
        // writes each event in place (measurably cheaper than `push`).
        out.extend(self.rows().map(|row| {
            let payload = match row.view {
                RowView::Boundary(b) if b.enter => {
                    EventPayload::RegionEnter { region: b.region(), counters: b.counters() }
                }
                RowView::Boundary(b) => {
                    EventPayload::RegionExit { region: b.region(), counters: b.counters() }
                }
                RowView::Sample(s) => EventPayload::CounterSample {
                    ip: s.ip(),
                    counters: s.counters(),
                    stack: s.stack().collect(),
                },
                RowView::Pebs(p) => EventPayload::Pebs { sample: p.sample(), object: p.object() },
                RowView::Other(o) => o.payload(),
            };
            TraceEvent { cycles: row.cycles, core: row.core, payload }
        }));
    }
}

/// Rows handed to the sink per batch by [`transpose_batches`].
const TRANSPOSE_ROWS: usize = 4096;

/// The row→column adapter: owns a set of column buffers, fills them
/// from [`TraceEvent`]s and lends them out as an [`EventBatch`] with
/// every row selected. Buffers keep their capacity across batches.
#[derive(Default)]
pub struct Transposer {
    cycles: Vec<u64>,
    cores: Vec<u32>,
    tags: Vec<u8>,
    sel: Vec<(u32, u32)>,
    cols: [Vec<Vec<u64>>; NCLASSES],
    pebs_flags: Vec<u8>,
    pebs_level: Vec<u8>,
    mux_labels: Vec<u8>,
}

impl Transposer {
    pub fn clear(&mut self) {
        self.cycles.clear();
        self.cores.clear();
        self.tags.clear();
        self.sel.clear();
        for col in self.cols.iter_mut().flatten() {
            col.clear();
        }
        self.pebs_flags.clear();
        self.pebs_level.clear();
        self.mux_labels.clear();
    }

    /// Rows pushed since the last [`Transposer::clear`].
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Append one event's fields to the columns.
    pub fn push(&mut self, e: &TraceEvent) {
        let class = EventClass::of(&e.payload);
        let cols = &mut self.cols[class as usize];
        cols.resize_with(column_count(class), Vec::new);
        let occurrence = cols[0].len() as u32;
        self.sel.push((self.tags.len() as u32, occurrence));
        self.cycles.push(e.cycles);
        // Core ids past u32 are out of range for any trace header;
        // saturate so they stay out of range.
        self.cores.push(u32::try_from(e.core).unwrap_or(u32::MAX));
        self.tags.push(class as u8);
        let mut put = |vals: &[u64]| {
            for (col, &v) in cols.iter_mut().zip(vals) {
                col.push(v);
            }
        };
        match &e.payload {
            EventPayload::RegionEnter { region, counters }
            | EventPayload::RegionExit { region, counters } => {
                put(&[u64::from(region.0)]);
                for (col, &v) in cols[1..].iter_mut().zip(counters.values()) {
                    col.push(v);
                }
            }
            EventPayload::CounterSample { ip, counters, stack } => {
                put(&[ip.0]);
                for (col, &v) in cols[1..=NCOUNTERS].iter_mut().zip(counters.values()) {
                    col.push(v);
                }
                let off = cols[STACK].len() as u64;
                cols[STACK_LEN].push(stack.len() as u64);
                cols[STACK_OFF].push(off);
                cols[STACK].extend(stack.iter().map(|r| u64::from(r.0)));
            }
            EventPayload::Pebs { sample, object } => {
                put(&[
                    sample.ip,
                    sample.addr,
                    u64::from(sample.size),
                    u64::from(sample.latency),
                    object.map_or(0, |o| u64::from(o.0)),
                ]);
                let flag = |on: bool, bit: u8| if on { bit } else { 0 };
                self.pebs_flags.push(
                    flag(sample.is_store, PEBS_IS_STORE)
                        | flag(sample.tlb_miss, PEBS_TLB_MISS)
                        | flag(object.is_some(), PEBS_HAS_OBJECT),
                );
                self.pebs_level.push(level_code(sample.source));
            }
            EventPayload::Alloc { base, size, callsite } => put(&[*base, *size, callsite.0]),
            EventPayload::Free { base } => put(&[*base]),
            EventPayload::MuxSwitch { event_index, label } => {
                put(&[*event_index as u64, label.len() as u64, self.mux_labels.len() as u64]);
                self.mux_labels.extend_from_slice(label.as_bytes());
            }
            EventPayload::User { kind, value } => put(&[u64::from(*kind), *value]),
        }
    }

    /// The buffered columns, unchecked: the envelope (`cycles`,
    /// `cores`, `tags`) and class `k`'s payload columns, as
    /// [`Transposer::batch`] lends them out.
    pub fn columns(&self, k: usize) -> (&[u64], &[u32], &[u8], ClassColumns<'_>) {
        let (raw_a, raw_b): (&[u8], &[u8]) = match EventClass::ALL[k] {
            EventClass::Pebs => (&self.pebs_flags, &self.pebs_level),
            EventClass::MuxSwitch => (&self.mux_labels, &[]),
            _ => (&[], &[]),
        };
        let class = ClassColumns { base: 0, cols: &self.cols[k], raw_a, raw_b };
        (&self.cycles, &self.cores, &self.tags, class)
    }

    /// The buffered rows as a batch, all selected.
    pub fn batch(&self) -> EventBatch<'_> {
        let classes = std::array::from_fn(|k| self.columns(k).3);
        EventBatch::new(&self.cycles, &self.cores, &self.tags, &self.sel, classes)
            .expect("transposed columns are consistent by construction")
    }
}

/// Feed `events` to `sink` as column batches of bounded size, in
/// order. The one way row containers reach a batch consumer.
pub fn transpose_batches<'e>(
    events: impl IntoIterator<Item = &'e TraceEvent>,
    sink: &mut dyn FnMut(&EventBatch<'_>),
) {
    let mut t = Transposer::default();
    for e in events {
        t.push(e);
        if t.len() == TRANSPOSE_ROWS {
            sink(&t.batch());
            t.clear();
        }
    }
    if !t.is_empty() {
        sink(&t.batch());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> Vec<TraceEvent> {
        let c = CounterSnapshot::from_values([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let pebs = |cycles, core, object: Option<ObjectId>| TraceEvent {
            cycles,
            core,
            payload: EventPayload::Pebs {
                sample: PebsSample {
                    timestamp: cycles,
                    core,
                    ip: 0x400020,
                    addr: 0xDEAD_BEEF,
                    size: 8,
                    is_store: object.is_some(),
                    latency: 233,
                    source: MemLevel::Dram,
                    tlb_miss: true,
                },
                object,
            },
        };
        vec![
            TraceEvent {
                cycles: 1_000,
                core: 0,
                payload: EventPayload::RegionEnter { region: RegionId(3), counters: c },
            },
            TraceEvent {
                cycles: 900,
                core: 1,
                payload: EventPayload::CounterSample {
                    ip: Ip(0x400010),
                    counters: c,
                    stack: vec![RegionId(0), RegionId(3)],
                },
            },
            pebs(1_100, 1, Some(ObjectId(7))),
            pebs(1_150, 2, None),
            TraceEvent {
                cycles: 1_200,
                core: 0,
                payload: EventPayload::Alloc { base: 1 << 40, size: 4096, callsite: Ip(0x400030) },
            },
            TraceEvent { cycles: 1_300, core: 0, payload: EventPayload::Free { base: 1 << 40 } },
            TraceEvent {
                cycles: 1_400,
                core: 2,
                payload: EventPayload::MuxSwitch { event_index: 1, label: "stores — ω".into() },
            },
            TraceEvent {
                cycles: 1_450,
                core: 2,
                payload: EventPayload::CounterSample { ip: Ip(1), counters: c, stack: vec![] },
            },
            TraceEvent { cycles: 1_500, core: 0, payload: EventPayload::User { kind: 9, value: u64::MAX } },
            TraceEvent {
                cycles: 1_600,
                core: 3,
                payload: EventPayload::RegionExit { region: RegionId(3), counters: c },
            },
        ]
    }

    #[test]
    fn transpose_then_materialize_round_trips_every_class() {
        let evs = events();
        let mut t = Transposer::default();
        for e in &evs {
            t.push(e);
        }
        let mut back = Vec::new();
        t.batch().materialize_into(&mut back);
        assert_eq!(back, evs);
        // A cleared transposer starts its occurrence counts over.
        t.clear();
        t.push(&evs[2]);
        back.clear();
        t.batch().materialize_into(&mut back);
        assert_eq!(back, evs[2..3]);
    }

    #[test]
    fn transpose_batches_splits_and_keeps_order() {
        let evs: Vec<TraceEvent> = (0..2 * TRANSPOSE_ROWS as u64 + 5)
            .map(|i| TraceEvent { cycles: i, core: 0, payload: EventPayload::User { kind: 1, value: i } })
            .collect();
        let mut sizes = Vec::new();
        let mut back = Vec::new();
        transpose_batches(&evs, &mut |b| {
            sizes.push(b.len());
            b.materialize_into(&mut back);
        });
        assert_eq!(sizes, vec![TRANSPOSE_ROWS, TRANSPOSE_ROWS, 5]);
        assert_eq!(back, evs);
    }

    #[test]
    fn typed_views_expose_the_folding_fields() {
        let evs = events();
        let mut t = Transposer::default();
        for e in &evs {
            t.push(e);
        }
        let b = t.batch();
        let rows: Vec<Row<'_>> = b.rows().collect();
        assert_eq!(rows.len(), evs.len());
        match rows[0].view {
            RowView::Boundary(r) => {
                assert!(r.enter);
                assert_eq!(r.region(), RegionId(3));
                assert_eq!(r.counters().values()[11], 12);
            }
            _ => panic!("row 0 is a region enter"),
        }
        match rows[2].view {
            RowView::Pebs(p) => {
                assert_eq!((p.sample().timestamp, p.sample().core), (1_100, 1));
                assert_eq!(p.object(), Some(ObjectId(7)));
            }
            _ => panic!("row 2 is a PEBS sample"),
        }
        assert!(matches!(rows[3].view, RowView::Pebs(p) if p.object().is_none()));
        assert!(matches!(rows[1].view, RowView::Sample(s) if s.ip() == Ip(0x400010)));
        assert!(matches!(rows[4].view, RowView::Other(_)));
    }

    /// Every way hostile columns can point a selected row out of
    /// range is refused by `new` with a message.
    #[test]
    fn new_refuses_out_of_range_columns() {
        let evs = events();
        let mut t = Transposer::default();
        for e in &evs {
            t.push(e);
        }
        let good = t.batch();
        let rebuild = |tags: &[u8], sel: &[(u32, u32)], classes| {
            EventBatch::new(good.cycles, good.cores, tags, sel, classes).map(|_| ()).unwrap_err()
        };

        let mut tags = good.tags.to_vec();
        tags[0] = 0xEE;
        assert!(rebuild(&tags, good.sel, good.classes).contains("unknown event tag"));
        assert!(rebuild(good.tags, &[(99, 0)], good.classes).contains("past the end"));
        assert!(rebuild(good.tags, &[(0, 5)], good.classes).contains("shorter"));
        assert!(EventBatch::new(&[], good.cores, good.tags, good.sel, good.classes).is_err());

        let pebs = EventClass::Pebs as usize;
        let mut classes = good.classes;
        classes[pebs].raw_b = &[3, 9];
        assert!(rebuild(good.tags, good.sel, classes).contains("bad memory level code 9"));
        classes = good.classes;
        classes[pebs].base = 1;
        assert!(rebuild(good.tags, good.sel, classes).contains("start past"));
        classes = good.classes;
        classes[pebs].cols = &classes[pebs].cols[..4];
        assert!(rebuild(good.tags, good.sel, classes).contains("missing"));

        let samp = EventClass::CounterSample as usize;
        let mut cols = good.classes[samp].cols.to_vec();
        cols[STACK_LEN][0] = u64::MAX;
        classes = good.classes;
        classes[samp].cols = &cols;
        assert!(rebuild(good.tags, good.sel, classes).contains("stack overruns"));

        let mux = EventClass::MuxSwitch as usize;
        classes = good.classes;
        classes[mux].raw_a = &classes[mux].raw_a[..5];
        assert!(rebuild(good.tags, good.sel, classes).contains("label overruns"));
        let mut labels = good.classes[mux].raw_a.to_vec();
        labels[0] = 0xFF;
        classes = good.classes;
        classes[mux].raw_a = &labels;
        assert!(rebuild(good.tags, good.sel, classes).contains("UTF-8"));
    }
}
