//! Trace event model.
//!
//! A monitored run produces an ordered sequence of [`TraceEvent`]s.
//! Timestamps are core cycles (converted to nanoseconds for reports
//! via the trace's nominal frequency, as the real tools do).

use crate::source::Ip;
use mempersp_pebs::{CounterSnapshot, PebsSample};
use serde::{Deserialize, Serialize};

/// Interned region (instrumented routine) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(pub u32);

/// What happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventPayload {
    /// Instrumented routine entry, with the counters at that instant.
    RegionEnter { region: RegionId, counters: CounterSnapshot },
    /// Instrumented routine exit, with the counters at that instant.
    RegionExit { region: RegionId, counters: CounterSnapshot },
    /// Timer-driven sample: program counter + counters + the stack of
    /// open instrumented regions at capture time (outermost first) —
    /// real Extrae unwinds the call stack at each sample.
    CounterSample { ip: Ip, counters: CounterSnapshot, stack: Vec<RegionId> },
    /// A PEBS memory sample, with the data object the address resolved
    /// to (if any).
    Pebs { sample: PebsSample, object: Option<crate::objects::ObjectId> },
    /// A tracked dynamic allocation.
    Alloc { base: u64, size: u64, callsite: Ip },
    /// A free of a tracked allocation.
    Free { base: u64 },
    /// The PEBS multiplexer rotated to another event.
    MuxSwitch { event_index: usize, label: String },
    /// Free-form point event (Extrae "user event").
    User { kind: u32, value: u64 },
}

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Timestamp in core cycles.
    pub cycles: u64,
    /// Core the event belongs to.
    pub core: usize,
    pub payload: EventPayload,
}

impl TraceEvent {
    /// The PEBS sample carried, if any.
    pub fn pebs(&self) -> Option<&PebsSample> {
        match &self.payload {
            EventPayload::Pebs { sample, .. } => Some(sample),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_pebs_event_carries_a_sample() {
        let e = TraceEvent {
            cycles: 0,
            core: 0,
            payload: EventPayload::RegionEnter {
                region: RegionId(0),
                counters: CounterSnapshot::default(),
            },
        };
        assert!(e.pebs().is_none());
        let u = TraceEvent { cycles: 0, core: 0, payload: EventPayload::User { kind: 1, value: 2 } };
        assert!(u.pebs().is_none());
    }
}
