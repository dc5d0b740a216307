//! Trace-event predicates.
//!
//! A [`Query`] selects a subset of a trace's events by time window,
//! core set, event kind and resolved data object. It is the unit of
//! *predicate pushdown*: an in-memory [`crate::Trace`] filters event by
//! event, while the chunked binary store (`mempersp-store`) uses the
//! same query to skip whole chunks whose footer index proves they
//! cannot match.

use crate::events::{EventPayload, TraceEvent};
use crate::objects::ObjectId;
use serde::{Deserialize, Serialize};

/// The eight event classes a [`TraceEvent`] payload can take, each
/// mapped to one bit of a [`KindMask`]. The discriminants are part of
/// the on-disk chunk-index format — append only, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum EventClass {
    RegionEnter = 0,
    RegionExit = 1,
    CounterSample = 2,
    Pebs = 3,
    Alloc = 4,
    Free = 5,
    MuxSwitch = 6,
    User = 7,
}

impl EventClass {
    pub const ALL: [EventClass; 8] = [
        EventClass::RegionEnter,
        EventClass::RegionExit,
        EventClass::CounterSample,
        EventClass::Pebs,
        EventClass::Alloc,
        EventClass::Free,
        EventClass::MuxSwitch,
        EventClass::User,
    ];

    /// The class of a payload.
    pub fn of(payload: &EventPayload) -> EventClass {
        match payload {
            EventPayload::RegionEnter { .. } => EventClass::RegionEnter,
            EventPayload::RegionExit { .. } => EventClass::RegionExit,
            EventPayload::CounterSample { .. } => EventClass::CounterSample,
            EventPayload::Pebs { .. } => EventClass::Pebs,
            EventPayload::Alloc { .. } => EventClass::Alloc,
            EventPayload::Free { .. } => EventClass::Free,
            EventPayload::MuxSwitch { .. } => EventClass::MuxSwitch,
            EventPayload::User { .. } => EventClass::User,
        }
    }

    /// Bit position inside a [`KindMask`].
    pub fn bit(self) -> u8 {
        1u8 << (self as u8)
    }

    /// The record mnemonic of the text format (`E <t> <core> <KIND> ...`).
    pub fn label(self) -> &'static str {
        match self {
            EventClass::RegionEnter => "ENTER",
            EventClass::RegionExit => "EXIT",
            EventClass::CounterSample => "SAMP",
            EventClass::Pebs => "PEBS",
            EventClass::Alloc => "ALLOC",
            EventClass::Free => "FREE",
            EventClass::MuxSwitch => "MUX",
            EventClass::User => "USER",
        }
    }

    /// Parse a mnemonic (case-insensitive), e.g. for CLI `--kind`.
    pub fn parse(s: &str) -> Option<EventClass> {
        let up = s.to_ascii_uppercase();
        EventClass::ALL.iter().copied().find(|k| k.label() == up)
    }
}

/// Bitmap over [`EventClass`] values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindMask(pub u8);

impl KindMask {
    /// Every kind.
    pub const ALL: KindMask = KindMask(0xFF);
    /// No kind (matches nothing).
    pub const NONE: KindMask = KindMask(0);

    /// A mask of exactly the given kinds.
    pub fn of(kinds: &[EventClass]) -> KindMask {
        KindMask(kinds.iter().fold(0, |m, k| m | k.bit()))
    }

    pub fn contains(self, k: EventClass) -> bool {
        self.0 & k.bit() != 0
    }

    pub fn insert(&mut self, k: EventClass) {
        self.0 |= k.bit();
    }

    /// Do two masks share any kind?
    pub fn intersects(self, other: KindMask) -> bool {
        self.0 & other.0 != 0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Default for KindMask {
    fn default() -> Self {
        KindMask::ALL
    }
}

/// A predicate over trace events. Every field is a conjunct; `None`
/// (or [`KindMask::ALL`]) means "no constraint".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Inclusive cycle window `[lo, hi]`.
    pub time: Option<(u64, u64)>,
    /// Cores to keep (empty `Some` matches nothing).
    pub cores: Option<Vec<usize>>,
    /// Event kinds to keep.
    pub kinds: KindMask,
    /// Keep only PEBS samples resolved to this data object.
    pub object: Option<ObjectId>,
}

impl Default for Query {
    fn default() -> Self {
        Query::all()
    }
}

impl Query {
    /// The match-everything query (a full scan).
    pub fn all() -> Query {
        Query { time: None, cores: None, kinds: KindMask::ALL, object: None }
    }

    /// Restrict to an inclusive cycle window.
    pub fn in_time(mut self, lo: u64, hi: u64) -> Query {
        self.time = Some((lo, hi));
        self
    }

    /// Restrict to a set of cores.
    pub fn on_cores(mut self, cores: &[usize]) -> Query {
        self.cores = Some(cores.to_vec());
        self
    }

    /// Restrict to a set of event kinds.
    pub fn with_kinds(mut self, kinds: &[EventClass]) -> Query {
        self.kinds = KindMask::of(kinds);
        self
    }

    /// Restrict to PEBS samples touching one data object. Implies the
    /// PEBS kind: no other payload carries an object resolution.
    pub fn touching_object(mut self, id: ObjectId) -> Query {
        self.object = Some(id);
        self.kinds = KindMask::of(&[EventClass::Pebs]);
        self
    }

    /// Is this the unconstrained full-scan query?
    pub fn is_full_scan(&self) -> bool {
        self.time.is_none()
            && self.cores.is_none()
            && self.kinds == KindMask::ALL
            && self.object.is_none()
    }

    /// Does one event satisfy every conjunct?
    pub fn matches(&self, e: &TraceEvent) -> bool {
        if let Some((lo, hi)) = self.time {
            if e.cycles < lo || e.cycles > hi {
                return false;
            }
        }
        if let Some(cores) = &self.cores {
            if !cores.contains(&e.core) {
                return false;
            }
        }
        if !self.kinds.contains(EventClass::of(&e.payload)) {
            return false;
        }
        if let Some(want) = self.object {
            match &e.payload {
                EventPayload::Pebs { object: Some(o), .. } if *o == want => {}
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RegionId;
    use mempersp_pebs::{CounterSnapshot, PebsSample};

    fn enter(cycles: u64, core: usize) -> TraceEvent {
        TraceEvent {
            cycles,
            core,
            payload: EventPayload::RegionEnter {
                region: RegionId(0),
                counters: CounterSnapshot::default(),
            },
        }
    }

    fn pebs(cycles: u64, core: usize, object: Option<ObjectId>) -> TraceEvent {
        TraceEvent {
            cycles,
            core,
            payload: EventPayload::Pebs {
                sample: PebsSample {
                    timestamp: cycles,
                    core,
                    ip: 0x400000,
                    addr: 0x1000,
                    size: 8,
                    is_store: false,
                    latency: 10,
                    source: mempersp_memsim::MemLevel::L2,
                    tlb_miss: false,
                },
                object,
            },
        }
    }

    #[test]
    fn full_scan_matches_everything() {
        let q = Query::all();
        assert!(q.is_full_scan());
        assert!(q.matches(&enter(0, 0)));
        assert!(q.matches(&pebs(u64::MAX, 7, None)));
    }

    #[test]
    fn time_window_is_inclusive() {
        let q = Query::all().in_time(10, 20);
        assert!(!q.matches(&enter(9, 0)));
        assert!(q.matches(&enter(10, 0)));
        assert!(q.matches(&enter(20, 0)));
        assert!(!q.matches(&enter(21, 0)));
    }

    #[test]
    fn core_and_kind_filters() {
        let q = Query::all().on_cores(&[1, 3]).with_kinds(&[EventClass::Pebs]);
        assert!(!q.matches(&pebs(5, 0, None)), "wrong core");
        assert!(!q.matches(&enter(5, 1)), "wrong kind");
        assert!(q.matches(&pebs(5, 3, None)));
    }

    #[test]
    fn object_filter_implies_pebs() {
        let q = Query::all().touching_object(ObjectId(2));
        assert!(!q.matches(&enter(5, 0)));
        assert!(!q.matches(&pebs(5, 0, None)), "unresolved sample");
        assert!(!q.matches(&pebs(5, 0, Some(ObjectId(1)))));
        assert!(q.matches(&pebs(5, 0, Some(ObjectId(2)))));
    }

    #[test]
    fn kind_mask_bits_are_stable() {
        // On-disk format: these numbers are frozen.
        assert_eq!(EventClass::RegionEnter as u8, 0);
        assert_eq!(EventClass::User as u8, 7);
        let m = KindMask::of(&[EventClass::RegionEnter, EventClass::Pebs]);
        assert_eq!(m.0, 0b0000_1001);
        assert!(m.intersects(KindMask::of(&[EventClass::Pebs])));
        assert!(!m.intersects(KindMask::of(&[EventClass::Free])));
    }

    #[test]
    fn class_labels_parse_back() {
        for k in EventClass::ALL {
            assert_eq!(EventClass::parse(k.label()), Some(k));
            assert_eq!(EventClass::parse(&k.label().to_ascii_lowercase()), Some(k));
        }
        assert_eq!(EventClass::parse("bogus"), None);
    }
}
