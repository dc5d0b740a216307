//! Stable digests over fold requests, for result memoization.
//!
//! The analysis service caches fold results keyed by *(trace
//! identity, region set, fold config)*: the engine is deterministic —
//! byte-identical output at any thread count — so two requests with
//! equal digests are guaranteed equal answers, and the thread count is
//! deliberately **excluded** from the key. The digest is FNV-1a over a
//! canonical byte encoding of every field that can change the result,
//! each value prefixed so permuted field values cannot collide by
//! concatenation.

use crate::engine::RegionRequest;
use crate::fold::{FitModel, FoldingConfig};

/// Incremental FNV-1a (64-bit).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, so `"ab" + "c"` and `"a" + "bc"` differ.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Bit pattern, with every NaN canonicalized to one encoding.
    pub fn write_f64(&mut self, v: f64) {
        let bits = if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
        self.write_u64(bits);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn write_config(h: &mut Fnv64, cfg: &FoldingConfig) {
    h.write_u64(cfg.bins as u64);
    h.write_f64(cfg.filter.mad_k);
    h.write_f64(cfg.filter.min_fraction_of_max);
    h.write_u64(cfg.min_instances as u64);
    h.write_u64(match cfg.fit {
        FitModel::Isotonic => 0,
        FitModel::BinnedMean => 1,
    });
}

/// Digest of a full fold request: an opaque trace identity (the caller
/// encodes path/name, event count and format version) plus every
/// region request **in order** — per-region results come back in
/// request order, so order is part of the answer's identity.
pub fn fold_request_digest(trace_identity: &str, requests: &[RegionRequest]) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(trace_identity);
    h.write_u64(requests.len() as u64);
    for r in requests {
        h.write_str(&r.region);
        write_config(&mut h, &r.cfg);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::InstanceFilter;

    fn reqs() -> Vec<RegionRequest> {
        vec![RegionRequest::new("CG_ITERATION"), RegionRequest::new("SYMGS")]
    }

    fn digest_of(cfg: FoldingConfig) -> u64 {
        fold_request_digest("t", &[RegionRequest::with_cfg("r", cfg)])
    }

    #[test]
    fn digest_is_stable_for_equal_requests() {
        assert_eq!(
            fold_request_digest("t:100:3", &reqs()),
            fold_request_digest("t:100:3", &reqs())
        );
    }

    #[test]
    fn every_config_field_perturbs_the_digest() {
        let base = FoldingConfig::default();
        let base_d = digest_of(base);
        let variants = [
            FoldingConfig { bins: base.bins + 1, ..base },
            FoldingConfig { min_instances: base.min_instances + 1, ..base },
            FoldingConfig { fit: FitModel::BinnedMean, ..base },
            FoldingConfig {
                filter: InstanceFilter { mad_k: 3.0, ..base.filter },
                ..base
            },
            FoldingConfig {
                filter: InstanceFilter { min_fraction_of_max: 0.5, ..base.filter },
                ..base
            },
        ];
        for v in variants {
            assert_ne!(digest_of(v), base_d, "{v:?}");
        }
    }

    #[test]
    fn trace_identity_region_set_and_order_matter() {
        let d = fold_request_digest("a", &reqs());
        assert_ne!(d, fold_request_digest("b", &reqs()));
        assert_ne!(d, fold_request_digest("a", &reqs()[..1]));
        let mut rev = reqs();
        rev.reverse();
        assert_ne!(d, fold_request_digest("a", &rev));
    }

    #[test]
    fn concatenation_cannot_collide() {
        // "ab" + "c" vs "a" + "bc" as region names.
        let left = vec![RegionRequest::new("ab"), RegionRequest::new("c")];
        let right = vec![RegionRequest::new("a"), RegionRequest::new("bc")];
        assert_ne!(fold_request_digest("t", &left), fold_request_digest("t", &right));
    }

    #[test]
    fn infinity_and_nan_are_handled() {
        let inf = FoldingConfig {
            filter: InstanceFilter { mad_k: f64::INFINITY, min_fraction_of_max: 0.0 },
            ..FoldingConfig::default()
        };
        assert_ne!(digest_of(inf), digest_of(FoldingConfig::default()));
        assert_eq!(digest_of(inf), digest_of(inf));
    }
}
