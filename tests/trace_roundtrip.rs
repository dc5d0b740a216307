//! Post-mortem parity: a trace written to disk and parsed back must
//! fold to exactly the same result as the in-memory trace — the
//! property that makes the monitor/analyzer split of the real tools
//! sound.

use mempersp::core::{Machine, MachineConfig};
use mempersp::extrae::trace_format::{load_trace, save_trace};
use mempersp::folding::{fold_region, FoldingConfig};
use mempersp::hpcg::{HpcgConfig, HpcgWorkload};
use mempersp::workloads::StreamTriad;

#[test]
fn stream_trace_roundtrip_preserves_folding() {
    let mut machine = Machine::new(MachineConfig::small());
    let report = machine.run(&mut StreamTriad::new(1 << 13, 6));

    let dir = std::env::temp_dir().join("mempersp_test_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.prv");
    save_trace(&path, &report.trace).unwrap();
    let loaded = load_trace(&path).unwrap();

    assert_eq!(loaded.num_events(), report.trace.num_events());
    assert_eq!(loaded.meta, report.trace.meta);

    let cfg = FoldingConfig::default();
    let a = fold_region(&report.trace, "triad", &cfg).unwrap();
    let b = fold_region(&loaded, "triad", &cfg).unwrap();
    assert_eq!(a.instances_used, b.instances_used);
    assert_eq!(a.avg_duration_cycles, b.avg_duration_cycles);
    assert_eq!(a.pooled.addr_points().collect::<Vec<_>>(), b.pooled.addr_points().collect::<Vec<_>>());
    for (ca, cb) in a.counters.iter().zip(&b.counters) {
        assert_eq!(ca.curve, cb.curve);
        assert_eq!(ca.avg_total, cb.avg_total);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn hpcg_trace_roundtrip_preserves_objects_and_resolution() {
    let mut machine = Machine::new(MachineConfig::small());
    let mut w = HpcgWorkload::new(HpcgConfig::tiny());
    let report = machine.run(&mut w);

    let dir = std::env::temp_dir().join("mempersp_test_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hpcg.prv");
    save_trace(&path, &report.trace).unwrap();
    let loaded = load_trace(&path).unwrap();

    assert_eq!(loaded.objects.all().len(), report.trace.objects.all().len());
    assert_eq!(loaded.resolution, report.trace.resolution);
    assert_eq!(loaded.region_names, report.trace.region_names);
    // Every PEBS sample's object annotation survives.
    for ((_, sa, oa), (_, sb, ob)) in report.trace.pebs_events().zip(loaded.pebs_events()) {
        assert_eq!(sa, sb);
        assert_eq!(oa, ob);
    }
    std::fs::remove_file(&path).ok();
}
