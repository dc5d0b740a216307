//! Golden digests of the simulated results, recorded on the commit
//! before memsim's sets, replacement state and ownership tracking were
//! rebuilt (PR 21): whatever the host-side data structures do, the
//! counters, the clock and every trace byte stay what they were.
//!
//! To re-record after a *deliberate* model change, run
//! `cargo test --test memsim_golden -- --nocapture` and paste the
//! printed tuples.

mod common;

use common::{observe, sharing_config, Sharing};
use mempersp::core::MachineConfig;
use mempersp::hpcg::{HpcgConfig, HpcgWorkload};
use mempersp::memsim::ReplacementPolicy;

/// (FNV-1a of `SystemStats`' Debug text, `wall_cycles`, FNV-1a of the
/// serialized trace).
type Golden = (u64, u64, u64);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn digest(cfg: MachineConfig, workload: &mut dyn mempersp::extrae::Workload) -> Golden {
    let (trace, stats, wall_cycles) = observe(cfg, workload);
    (fnv1a(format!("{stats:?}").as_bytes()), wall_cycles, fnv1a(trace.as_bytes()))
}

/// Prints every tuple (so one `--nocapture` run re-records them all)
/// and reports whether it is the recorded one.
fn matches(what: &str, got: Golden, want: Golden) -> bool {
    println!("{what}: (0x{:016x}, {}, 0x{:016x})", got.0, got.1, got.2);
    got == want
}

const HPCG_SMALL: Golden = (0x63d80f1980634b58, 6975806, 0xdeb5410739a26382);
const HPCG_HASWELL: Golden = (0x1e7a40c8fbcc4cbf, 1912057, 0x004da997cf361b71);
/// Indexed like `CAPS`; one value per cap because `epoch_cap` moves the
/// results of a sharing workload (DESIGN §7) while `threads` never does.
const CAPS: [usize; 3] = [1, 64, 32_768];
const SHARING: [Golden; 3] = [
    (0x482c4dfd71a28c0a, 206103, 0xc1977d8d35dc84bf),
    (0xd51fdf20a12acce9, 205817, 0x3e367e58f478c32f),
    (0xa24346bc9f46b73d, 206119, 0xcfe2f3ebb8665a11),
];
const SHARING_POLICY: [(ReplacementPolicy, Golden); 3] = [
    (ReplacementPolicy::TreePlru, (0xb896cc10ad258aca, 206116, 0x2be532c983283ddc)),
    (ReplacementPolicy::Fifo, (0x70ef9a3767dfd362, 210095, 0xfb71adae54477738)),
    // The one tuple not recorded on the parent (which gave
    // (0x29b1d0972e444748, 246296, 0xc0edd919a43ac6c0)): a random L3
    // can evict a line in the very access that filled it into a core,
    // and the parent's line directory — synced only after the access —
    // then skipped that core's back-invalidation, 10 times in this run
    // (none under any other policy), leaving lines in an L1/L2 that the
    // inclusive L3 had dropped. Page ownership is claimed before the
    // fill, so the copy is now invalidated.
    (ReplacementPolicy::Random, (0xb423c6e5d53b366d, 245275, 0x7f94a6931f305406)),
];

fn hpcg() -> HpcgWorkload {
    HpcgWorkload::new(HpcgConfig { nx: 8, max_iters: 2, mg_levels: 3, group_allocations: true, use_mg: true })
}

#[test]
fn hpcg_nx8_matches_the_recorded_run() {
    let mut small = MachineConfig::small();
    small.cores = 4;
    let small_ok = matches("hpcg small", digest(small, &mut hpcg()), HPCG_SMALL);
    // The paper's hierarchy: tree-PLRU L1/L2, 24-way LRU L3, prefetcher on.
    let haswell_ok = matches("hpcg haswell", digest(MachineConfig::haswell(4), &mut hpcg()), HPCG_HASWELL);
    assert!(small_ok && haswell_ok, "simulated results moved (tuples printed above)");
}

#[test]
fn sharing_workload_matches_the_recorded_runs() {
    let mut ok = true;
    for (cap, want) in CAPS.into_iter().zip(SHARING) {
        for threads in [1, 2, 4] {
            let got = digest(sharing_config(threads, cap), &mut Sharing { rounds: 20_000 });
            ok &= matches(&format!("sharing cap {cap} threads {threads}"), got, want);
        }
    }
    assert!(ok, "simulated results moved (tuples printed above)");
}

/// The other three replacement policies, on every level, through the
/// same workload (LRU is the default above).
#[test]
fn sharing_workload_matches_under_every_replacement_policy() {
    let mut ok = true;
    for (policy, want) in SHARING_POLICY {
        let mut cfg = sharing_config(2, 64);
        cfg.hierarchy.l1d.replacement = policy;
        cfg.hierarchy.l2.replacement = policy;
        cfg.hierarchy.l3.replacement = policy;
        ok &= matches(&format!("sharing {policy:?}"), digest(cfg, &mut Sharing { rounds: 20_000 }), want);
    }
    assert!(ok, "simulated results moved (tuples printed above)");
}
