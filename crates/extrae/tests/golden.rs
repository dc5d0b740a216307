//! Golden-file compatibility test: `tests/fixtures/golden.prv` is a
//! checked-in trace covering every record type. If the parser or the
//! format ever changes incompatibly, this test fails — bump the format
//! version and migrate deliberately instead.

use mempersp_extrae::events::{EventPayload, RegionId};
use mempersp_extrae::trace_format::{parse_trace, write_trace};
use mempersp_extrae::{Ip, ObjectKind};
use mempersp_memsim::MemLevel;
use mempersp_pebs::EventKind;

const GOLDEN: &str = include_str!("fixtures/golden.prv");

#[test]
fn golden_trace_parses_with_expected_content() {
    let t = parse_trace(GOLDEN).expect("golden fixture must stay parseable");

    assert_eq!(t.meta.freq_mhz, 2500);
    assert_eq!(t.meta.num_cores, 2);
    assert_eq!(t.meta.aslr_slide, 0x0123_4567_89AB_CDEF);
    assert_eq!(t.meta.description, "golden fixture: HPCG-like mini trace");
    assert_eq!(t.resolution.resolved, 3);
    assert_eq!(t.resolution.unresolved, 1);

    assert_eq!(t.region_names, vec!["ComputeSPMV_ref", "CG_iteration"]);
    assert_eq!(
        t.source.resolve(Ip(4194304)).unwrap().file_line(),
        "ComputeSPMV_ref.cpp:62"
    );

    let objs = t.objects.all();
    assert_eq!(objs.len(), 3);
    assert_eq!(objs[0].kind, ObjectKind::Group);
    assert_eq!(objs[0].figure_label(), "124_GenerateProblem_ref.cpp|617 MB");
    assert_eq!(objs[2].kind, ObjectKind::Static);

    assert_eq!(t.num_events(), 11);
    // The one iteration's boundaries, on core 0.
    let iter = t.region_id("CG_iteration").unwrap();
    let bounds: Vec<(bool, u64)> = t
        .events
        .iter()
        .filter(|e| e.core == 0)
        .filter_map(|e| match e.payload {
            EventPayload::RegionEnter { region, .. } if region == iter => Some((true, e.cycles)),
            EventPayload::RegionExit { region, .. } if region == iter => Some((false, e.cycles)),
            _ => None,
        })
        .collect();
    assert_eq!(bounds, vec![(true, 100), (false, 300)]);

    // Sample stack parsed.
    let stacks: Vec<&Vec<RegionId>> = t
        .events
        .iter()
        .filter_map(|e| match &e.payload {
            EventPayload::CounterSample { stack, .. } => Some(stack),
            _ => None,
        })
        .collect();
    assert_eq!(stacks.len(), 2);
    assert_eq!(stacks[0], &vec![RegionId(1)]);
    assert!(stacks[1].is_empty());

    // PEBS records, including the unresolved one.
    let pebs: Vec<_> = t.pebs_events().collect();
    assert_eq!(pebs.len(), 3);
    assert_eq!(pebs[0].1.source, MemLevel::Dram);
    assert!(pebs[0].1.tlb_miss);
    assert!(pebs[0].2.is_some());
    assert!(pebs[1].1.is_store);
    assert_eq!(pebs[2].2, None, "object '-' = unresolved");

    // Counter snapshots carry all 12 counters.
    if let EventPayload::RegionExit { counters, .. } = &t.events.last().unwrap().payload {
        assert_eq!(counters.get(EventKind::Instructions), 20);
        assert_eq!(counters.get(EventKind::StallDram), 15);
    } else {
        panic!("last event must be the region exit");
    }

    // Round-trip stability: writing the parsed trace reproduces the
    // fixture byte-for-byte.
    assert_eq!(write_trace(&t), GOLDEN);
}
