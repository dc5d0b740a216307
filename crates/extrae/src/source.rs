//! Synthetic instruction pointers and the source map.
//!
//! Real Extrae resolves sampled instruction addresses to source lines
//! through the binary's DWARF line tables. The simulated workloads
//! instead *register* each instrumented statement once, receiving a
//! synthetic [`Ip`]; the [`SourceMap`] then answers ip → (file, line,
//! function) queries during analysis, playing the role of the line
//! table.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A synthetic instruction pointer.
///
/// Values start at a text-segment-looking base so reports resemble
/// real addresses; consecutive registrations get consecutive slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ip(pub u64);

/// Base of the synthetic text segment.
pub const TEXT_BASE: u64 = 0x0040_0000;
/// Bytes reserved per registered statement.
pub const IP_STRIDE: u64 = 0x10;

/// A source-code coordinate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CodeLocation {
    pub file: String,
    pub line: u32,
    pub function: String,
}

impl CodeLocation {
    pub fn new(file: &str, line: u32, function: &str) -> Self {
        Self { file: file.to_string(), line, function: function.to_string() }
    }

    /// The `file:line` form used in reports and object names.
    pub fn file_line(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }
}

/// Bidirectional ip ↔ source-location map.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SourceMap {
    locations: Vec<CodeLocation>,
    #[serde(skip)]
    by_location: HashMap<CodeLocation, Ip>,
}

impl SourceMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a statement, returning its synthetic ip.
    /// Registering the same location twice returns the same ip.
    pub fn intern(&mut self, loc: CodeLocation) -> Ip {
        if let Some(&ip) = self.by_location.get(&loc) {
            return ip;
        }
        let ip = Ip(TEXT_BASE + self.locations.len() as u64 * IP_STRIDE);
        self.by_location.insert(loc.clone(), ip);
        self.locations.push(loc);
        ip
    }

    /// Registration number (`0..self.len()`) of the statement `ip`
    /// names, if it names one: the key for a table kept per statement.
    pub fn index_of(&self, ip: Ip) -> Option<usize> {
        let off = ip.0.checked_sub(TEXT_BASE)?;
        let idx = usize::try_from(off / IP_STRIDE).ok()?;
        (off.is_multiple_of(IP_STRIDE) && idx < self.locations.len()).then_some(idx)
    }

    /// Resolve an ip back to its location.
    pub fn resolve(&self, ip: Ip) -> Option<&CodeLocation> {
        self.index_of(ip).map(|idx| &self.locations[idx])
    }

    /// Number of registered statements.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Iterate over (ip, location) pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (Ip, &CodeLocation)> {
        self.locations
            .iter()
            .enumerate()
            .map(|(i, l)| (Ip(TEXT_BASE + i as u64 * IP_STRIDE), l))
    }

    /// Rebuild the reverse index (needed after deserialization, where
    /// the HashMap is skipped).
    pub fn rebuild_index(&mut self) {
        self.by_location = self
            .locations
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), Ip(TEXT_BASE + i as u64 * IP_STRIDE)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut m = SourceMap::new();
        let a = m.intern(CodeLocation::new("ComputeSPMV_ref.cpp", 72, "ComputeSPMV_ref"));
        let b = m.intern(CodeLocation::new("ComputeSPMV_ref.cpp", 72, "ComputeSPMV_ref"));
        assert_eq!(a, b);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn distinct_lines_get_distinct_ips() {
        let mut m = SourceMap::new();
        let a = m.intern(CodeLocation::new("f.cpp", 1, "f"));
        let b = m.intern(CodeLocation::new("f.cpp", 2, "f"));
        assert_ne!(a, b);
        assert_eq!(b.0 - a.0, IP_STRIDE);
        assert_eq!((m.index_of(a), m.index_of(b)), (Some(0), Some(1)));
    }

    #[test]
    fn resolve_round_trip() {
        let mut m = SourceMap::new();
        let loc = CodeLocation::new("ComputeSYMGS_ref.cpp", 85, "ComputeSYMGS_ref");
        let ip = m.intern(loc.clone());
        assert_eq!(m.resolve(ip), Some(&loc));
    }

    #[test]
    fn resolve_unknown_ip_is_none() {
        let m = SourceMap::new();
        assert_eq!(m.resolve(Ip(0)), None);
        assert_eq!(m.resolve(Ip(TEXT_BASE)), None);
        assert_eq!(m.resolve(Ip(TEXT_BASE + 3)), None, "misaligned ip");
        assert_eq!(m.index_of(Ip(TEXT_BASE)), None, "past the last registration");
        assert_eq!(m.index_of(Ip(u64::MAX)), None);
    }

    #[test]
    fn iter_in_registration_order() {
        let mut m = SourceMap::new();
        m.intern(CodeLocation::new("a.cpp", 1, "a"));
        m.intern(CodeLocation::new("b.cpp", 2, "b"));
        let files: Vec<&str> = m.iter().map(|(_, l)| l.file.as_str()).collect();
        assert_eq!(files, vec!["a.cpp", "b.cpp"]);
    }

    #[test]
    fn rebuild_index_restores_interning() {
        // Simulate the post-deserialization state: `locations` intact
        // but the `#[serde(skip)]` reverse index empty.
        let mut m = SourceMap::new();
        let loc = CodeLocation::new("x.cpp", 3, "x");
        let ip = m.intern(loc.clone());
        let mut m2 = SourceMap {
            locations: m.locations.clone(),
            by_location: HashMap::new(),
        };
        m2.rebuild_index();
        assert_eq!(m2.intern(loc), ip);
        assert_eq!(m2.len(), 1, "re-interning must not duplicate");
    }
}
