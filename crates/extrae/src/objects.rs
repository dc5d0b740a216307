//! The data-object registry: the map from sampled addresses to the
//! program's data objects.
//!
//! Three kinds of objects exist, with this resolution precedence:
//!
//! 1. **groups** — manually declared address ranges that wrap many
//!    tiny allocations (the paper's HPCG work-around); they win over
//!    everything because they were declared deliberately;
//! 2. **dynamic** — individual allocations at or above the tracer's
//!    size threshold, identified by their allocation call-site
//!    (`file:line`), as real Extrae identifies them by call-stack;
//! 3. **static** — named objects from the binary image (our workloads
//!    register them explicitly).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Stable object identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u32);

/// How an object was registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectKind {
    /// From the binary's symbol table.
    Static,
    /// A single tracked dynamic allocation.
    Dynamic,
    /// A manually-wrapped group of allocations.
    Group,
}

/// One registered object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectDesc {
    pub id: ObjectId,
    /// Display name: symbol name (static), allocation site `file:line`
    /// (dynamic), or the user-given group name.
    pub name: String,
    pub kind: ObjectKind,
    pub base: u64,
    pub size: u64,
    /// Bytes actually allocated within the range (== `size` except for
    /// groups, whose range may include allocator padding).
    pub allocated_bytes: u64,
}

impl ObjectDesc {
    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// The label the paper's figure uses: `name|size`, e.g.
    /// `124_GenerateProblem_ref.cpp|617 MB`.
    pub fn figure_label(&self) -> String {
        format!("{}|{}", self.name, human_bytes(self.allocated_bytes))
    }
}

/// Result of resolving an address.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolvedObject {
    pub id: ObjectId,
    pub name: String,
    pub kind: ObjectKind,
    /// Offset of the address within the object.
    pub offset: u64,
}

/// Interval registry of all known data objects.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ObjectRegistry {
    objects: Vec<ObjectDesc>,
    /// base → object index, per kind (distinct maps because precedence
    /// differs and ranges of different kinds may overlap).
    groups: BTreeMap<u64, u32>,
    dynamics: BTreeMap<u64, u32>,
    statics: BTreeMap<u64, u32>,
    /// Last successful resolution: `(base, end, object index)`.
    /// Consecutive PEBS samples overwhelmingly land in the same object,
    /// so this memo short-circuits the three-map lookup. Invalidated on
    /// any registry mutation (a later group registration outranks a
    /// memoized dynamic hit).
    memo: Option<(u64, u64, u32)>,
}

impl ObjectRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: String, kind: ObjectKind, base: u64, size: u64, allocated: u64) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(ObjectDesc { id, name, kind, base, size, allocated_bytes: allocated });
        let map = match kind {
            ObjectKind::Group => &mut self.groups,
            ObjectKind::Dynamic => &mut self.dynamics,
            ObjectKind::Static => &mut self.statics,
        };
        map.insert(base, id.0);
        self.memo = None;
        id
    }

    /// Register a static object by symbol name.
    pub fn register_static(&mut self, name: &str, base: u64, size: u64) -> ObjectId {
        self.push(name.to_string(), ObjectKind::Static, base, size, size)
    }

    /// Register a tracked dynamic allocation named after its call-site.
    pub fn register_dynamic(&mut self, callsite: &str, base: u64, size: u64) -> ObjectId {
        self.push(callsite.to_string(), ObjectKind::Dynamic, base, size, size)
    }

    /// Remove the dynamic object starting at `base` (freed).
    pub fn remove_dynamic(&mut self, base: u64) -> Option<ObjectId> {
        self.memo = None;
        self.dynamics.remove(&base).map(ObjectId)
    }

    /// Register a manually-wrapped group covering `[base, base+size)`.
    /// `allocated` is the sum of the member allocations' sizes.
    pub fn register_group(&mut self, name: &str, base: u64, size: u64, allocated: u64) -> ObjectId {
        self.push(name.to_string(), ObjectKind::Group, base, size, allocated)
    }

    fn lookup(map: &BTreeMap<u64, u32>, objects: &[ObjectDesc], addr: u64) -> Option<u32> {
        map.range(..=addr)
            .next_back()
            .map(|(_, &i)| i)
            .filter(|&i| addr < objects[i as usize].end())
    }

    fn lookup_any(&self, addr: u64) -> Option<u32> {
        Self::lookup(&self.groups, &self.objects, addr)
            .or_else(|| Self::lookup(&self.dynamics, &self.objects, addr))
            .or_else(|| Self::lookup(&self.statics, &self.objects, addr))
    }

    /// Resolve an address to `(object id, offset within it)` without
    /// touching the object's name — the allocation-free fast path the
    /// per-sample PEBS pipeline uses. Names are recovered lazily via
    /// [`get`](Self::get) at report time.
    pub fn resolve_id(&mut self, addr: u64) -> Option<(ObjectId, u64)> {
        if let Some((base, end, idx)) = self.memo {
            if addr >= base && addr < end {
                return Some((ObjectId(idx), addr - base));
            }
        }
        let idx = self.lookup_any(addr)?;
        let o = &self.objects[idx as usize];
        self.memo = Some((o.base, o.end(), idx));
        Some((o.id, addr - o.base))
    }

    /// Resolve an address to the covering object, if any. Clones the
    /// object's name; hot paths should prefer
    /// [`resolve_id`](Self::resolve_id).
    pub fn resolve(&self, addr: u64) -> Option<ResolvedObject> {
        let idx = self.lookup_any(addr)?;
        let o = &self.objects[idx as usize];
        Some(ResolvedObject { id: o.id, name: o.name.clone(), kind: o.kind, offset: addr - o.base })
    }

    /// Object descriptor by id.
    pub fn get(&self, id: ObjectId) -> Option<&ObjectDesc> {
        self.objects.get(id.0 as usize)
    }

    /// All registered objects (including freed dynamics, which stay in
    /// the table for post-mortem naming but are no longer resolvable).
    pub fn all(&self) -> &[ObjectDesc] {
        &self.objects
    }
}

/// Format a byte count the way the paper's figure labels do
/// (e.g. "617 MB", using decimal megabytes).
pub fn human_bytes(bytes: u64) -> String {
    const KB: f64 = 1e3;
    const MB: f64 = 1e6;
    const GB: f64 = 1e9;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.1} GB", b / GB)
    } else if b >= MB {
        format!("{:.0} MB", b / MB)
    } else if b >= KB {
        format!("{:.0} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_static() {
        let mut r = ObjectRegistry::new();
        r.register_static("ghost", 0x1000, 0x100);
        let got = r.resolve(0x1080).unwrap();
        assert_eq!(got.name, "ghost");
        assert_eq!(got.kind, ObjectKind::Static);
        assert_eq!(got.offset, 0x80);
        assert!(r.resolve(0x1100).is_none(), "end is exclusive");
        assert!(r.resolve(0xFFF).is_none());
    }

    #[test]
    fn dynamic_objects_named_by_callsite() {
        let mut r = ObjectRegistry::new();
        r.register_dynamic("GenerateProblem_ref.cpp:110", 0x2000, 216);
        let got = r.resolve(0x2000).unwrap();
        assert_eq!(got.name, "GenerateProblem_ref.cpp:110");
        assert_eq!(got.kind, ObjectKind::Dynamic);
    }

    #[test]
    fn freed_dynamic_is_unresolvable_but_still_listed() {
        let mut r = ObjectRegistry::new();
        let id = r.register_dynamic("f.cpp:1", 0x3000, 64);
        assert_eq!(r.remove_dynamic(0x3000), Some(id));
        assert!(r.resolve(0x3020).is_none());
        assert_eq!(r.all().len(), 1, "descriptor kept for post-mortem naming");
        assert!(r.remove_dynamic(0x3000).is_none());
    }

    #[test]
    fn group_wins_over_members() {
        let mut r = ObjectRegistry::new();
        r.register_dynamic("gen.cpp:110", 0x1000, 216);
        r.register_dynamic("gen.cpp:110", 0x10e0, 216);
        r.register_group("124_GenerateProblem_ref.cpp", 0x1000, 0x2000, 432);
        let got = r.resolve(0x10f0).unwrap();
        assert_eq!(got.kind, ObjectKind::Group);
        assert_eq!(got.name, "124_GenerateProblem_ref.cpp");
    }

    #[test]
    fn adjacent_objects_resolve_correctly() {
        let mut r = ObjectRegistry::new();
        r.register_dynamic("a:1", 0x1000, 0x100);
        r.register_dynamic("b:2", 0x1100, 0x100);
        assert_eq!(r.resolve(0x10FF).unwrap().name, "a:1");
        assert_eq!(r.resolve(0x1100).unwrap().name, "b:2");
    }

    #[test]
    fn figure_label_matches_paper_style() {
        let mut r = ObjectRegistry::new();
        let id = r.register_group("124_GenerateProblem_ref.cpp", 0x0, 650_000_000, 617_000_000);
        assert_eq!(r.get(id).unwrap().figure_label(), "124_GenerateProblem_ref.cpp|617 MB");
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(999), "999 B");
        assert_eq!(human_bytes(89_000_000), "89 MB");
        assert_eq!(human_bytes(1_500_000_000), "1.5 GB");
        assert_eq!(human_bytes(2_000), "2 KB");
    }

    #[test]
    fn resolve_id_matches_resolve() {
        let mut r = ObjectRegistry::new();
        r.register_static("s", 0x1000, 0x100);
        r.register_dynamic("d:1", 0x2000, 0x80);
        for addr in [0x1000u64, 0x10ff, 0x2000, 0x207f, 0x999, 0x2080] {
            let full = r.resolve(addr);
            let fast = r.resolve_id(addr);
            assert_eq!(full.as_ref().map(|o| (o.id, o.offset)), fast, "addr {addr:#x}");
        }
    }

    #[test]
    fn memo_repeated_hits_and_invalidation() {
        let mut r = ObjectRegistry::new();
        r.register_dynamic("d:1", 0x1000, 0x100);
        // Repeated hits exercise the memo path.
        assert_eq!(r.resolve_id(0x1010), Some((ObjectId(0), 0x10)));
        assert_eq!(r.resolve_id(0x1020), Some((ObjectId(0), 0x20)));
        // A group over the same range outranks the memoized dynamic.
        let gid = r.register_group("g", 0x1000, 0x100, 0x100);
        assert_eq!(r.resolve_id(0x1020), Some((gid, 0x20)));
        // Freeing kills the memo too.
        let mut r2 = ObjectRegistry::new();
        r2.register_dynamic("d:2", 0x4000, 0x40);
        assert!(r2.resolve_id(0x4000).is_some());
        r2.remove_dynamic(0x4000);
        assert_eq!(r2.resolve_id(0x4000), None);
    }
}
