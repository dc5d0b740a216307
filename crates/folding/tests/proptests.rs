//! Property-based tests for the Folding mechanism.

use mempersp_extrae::{CodeLocation, EventPayload, Ip, Trace, Tracer, TracerConfig};
use mempersp_folding::pava::pava_nondecreasing;
use mempersp_folding::pool::{sort_by_x, sort_counter, CounterSamples};
use mempersp_folding::{
    collect_instances_multi, fold_performance_source, fold_region, fold_regions, AddrPoint,
    FoldingConfig, InstanceFilter, MonotoneCurve, RegionRequest,
};
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, EventKind, PebsSample};
use proptest::prelude::*;

/// A folded coordinate: spread over [0, 1], or one of the values a
/// fold produces exactly and often — 0.0 (zero-duration instances),
/// 1.0 (a sample on the exit cycle), a few fractions that repeat (a
/// clock standing still) —, a subnormal, or crowded into the first
/// percent (one skewed bucket).
fn coordinate() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..0.01,
        (0u32..=8).prop_map(|k| f64::from(k) / 8.0),
        Just(0.0),
        Just(1.0),
        Just(5e-324),
        Just(f64::MIN_POSITIVE / 2.0),
    ]
}

/// Panels from empty to a few thousand points (several rounds, buckets
/// past the insertion limit when keys repeat), or all on one key.
fn coordinates() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        prop::collection::vec(coordinate(), 0..40),
        prop::collection::vec(coordinate(), 0..4000),
        (coordinate(), 0usize..2000).prop_map(|(x, n)| vec![x; n]),
    ]
}

const NKINDS: usize = EventKind::ALL.len();

/// One pooled counter sample: its time, the counters that advanced in
/// its instance — one, all twelve, or any mix — and a progress value
/// per counter (0.0 where the counter did not advance).
fn counter_sample() -> impl Strategy<Value = (f64, u16, [f64; NKINDS])> {
    let all = (1u16 << NKINDS) - 1;
    let mask = prop_oneof![(0..NKINDS).prop_map(|k| 1u16 << k), Just(all), 1..=all];
    let ys = prop::collection::vec(coordinate(), NKINDS..NKINDS + 1);
    (coordinate(), mask, ys).prop_map(|(x, mask, ys)| {
        let mut row = [0.0; NKINDS];
        for k in 0..NKINDS {
            if mask & (1 << k) != 0 {
                row[k] = ys[k];
            }
        }
        (x, mask, row)
    })
}

/// One sample of an `outer` instance: its offset from the instance's
/// entry cycle (0..=40; on the entry or exit cycle, or on an `inner`
/// boundary, often), whether it is a PEBS sample, which of three
/// statements it names (the third is not in the source map), and a
/// jitter on its counter readings.
type Sample = (u64, bool, usize, u64);

fn sample() -> impl Strategy<Value = Sample> {
    let offset = prop_oneof![
        0u64..41,
        0u64..41,
        Just(0),
        Just(40),
        Just(8),
        Just(24),
        Just(26),
        Just(38)
    ];
    (offset, any::<bool>(), 0usize..3, 0u64..3)
}

/// One `outer` instance: whether its counters stand still (then none
/// of its counter samples advances a counter, in `outer` or `inner`),
/// and its samples in time order.
fn outer_instance() -> impl Strategy<Value = (bool, Vec<Sample>)> {
    (
        (0u32..4).prop_map(|r| r == 0),
        prop::collection::vec(sample(), 0..14),
    )
        .prop_map(|(stalled, mut samples)| {
            samples.sort_by_key(|s| s.0);
            (stalled, samples)
        })
}

/// Two cores run the same number of `outer` instances, 100 cycles
/// apart and 3 cycles out of step, so their rows interleave and equal
/// folded times abound across cores. Each `outer` (40 cycles) holds
/// two `inner` instances, [8, 24] and [26, 38]. Counter `k` advances
/// `k % 3` per cycle, so four counters never advance.
fn nested_two_core_trace(outers: &[(bool, Vec<Sample>)]) -> Trace {
    let mut t = Tracer::new(TracerConfig::default(), 2);
    let ips = [
        t.location("a.cpp", 10, "a"),
        t.location("b.cpp", 20, "b"),
        Ip(0xdead_0000),
    ];
    let base = t.malloc(1 << 16, &CodeLocation::new("alloc.cpp", 5, "alloc"), 0);
    let per_core = outers.len().div_ceil(2);
    for k in 0..per_core {
        for core in 0..2 {
            let Some((stalled, samples)) = outers.get(2 * k + core) else {
                continue;
            };
            let t0 = k as u64 * 100 + core as u64 * 3;
            let reading = |at: u64, jitter: u64| {
                let mut v = [0u64; NKINDS];
                for (i, v) in v.iter_mut().enumerate() {
                    *v = 1000 * k as u64
                        + if *stalled {
                            0
                        } else {
                            (i % 3) as u64 * (at - t0) + jitter
                        };
                }
                CounterSnapshot::from_values(v)
            };
            // 0: enter outer, 1: enter inner, 2: exit inner, 3: exit outer.
            let events = [
                (t0, 0),
                (t0 + 8, 1),
                (t0 + 24, 2),
                (t0 + 26, 1),
                (t0 + 38, 2),
                (t0 + 40, 3),
            ];
            let mut samples = samples.iter().peekable();
            for (at, what) in events {
                // Samples on an entry cycle follow the entry; on an exit
                // cycle they precede the exit.
                while let Some(&&(off, pebs, ip, jitter)) = samples.peek() {
                    if t0 + off > at || (t0 + off == at && what == 0) {
                        break;
                    }
                    samples.next();
                    let now = t0 + off;
                    if pebs {
                        t.record_pebs(PebsSample {
                            timestamp: now,
                            core,
                            ip: ips[ip].0,
                            addr: if off % 2 == 0 {
                                base + off * 8
                            } else {
                                0x10 + off
                            },
                            size: 8,
                            is_store: jitter == 0,
                            latency: off as u32,
                            source: MemLevel::L2,
                            tlb_miss: false,
                        });
                    } else {
                        t.record_counter_sample(core, ips[ip], reading(now, jitter), now);
                    }
                }
                match what {
                    0 => drop(t.enter(core, "outer", reading(at, 0), at)),
                    1 => drop(t.enter(core, "inner", reading(at, 0), at)),
                    2 => t.exit(core, "inner", reading(at, 0), at),
                    _ => t.exit(core, "outer", reading(at, 0), at),
                }
            }
        }
    }
    t.finish("nested, two cores")
}

/// A code-line point with its file resolved to a name.
type Line = (f64, u64, Option<String>, Option<u32>);

/// One region's three panels.
struct Panels {
    addrs: Vec<AddrPoint>,
    lines: Vec<Line>,
    /// Per counter kind, (x, y) points.
    counters: Vec<Vec<(f64, f64)>>,
}

/// One region's three panels as independent stable sorts make them:
/// the address and line points by `x`, each counter's points by
/// (x, y), all starting from trace order.
fn stable_sorted_panels(trace: &Trace, region: &str) -> Panels {
    let id = trace.region_id(region).unwrap();
    let keep_all = InstanceFilter {
        mad_k: f64::INFINITY,
        min_fraction_of_max: 0.0,
    };
    let (instances, _) = collect_instances_multi(trace, &[id], &[keep_all]).swap_remove(0);
    let (mut addrs, mut lines, mut counters) = (Vec::new(), Vec::new(), vec![Vec::new(); NKINDS]);
    for e in &trace.events {
        let Some(instance) = instances
            .iter()
            .position(|i| i.core == e.core && i.contains(e.cycles))
        else {
            continue;
        };
        let inst = &instances[instance];
        let x = inst.normalize(e.cycles);
        let ip = match &e.payload {
            EventPayload::CounterSample {
                ip, counters: c, ..
            } => {
                for kind in EventKind::ALL {
                    let (c0, c1) = (inst.counters_in.get(kind), inst.counters_out.get(kind));
                    if c1 > c0 {
                        let y = (c.get(kind).clamp(c0, c1) - c0) as f64 / (c1 - c0) as f64;
                        counters[kind.index()].push((x, y));
                    }
                }
                ip.0
            }
            EventPayload::Pebs { sample, object } => {
                addrs.push(AddrPoint {
                    x,
                    addr: sample.addr,
                    ip: sample.ip,
                    is_store: sample.is_store,
                    latency: sample.latency,
                    source: sample.source,
                    object: *object,
                    instance,
                });
                sample.ip
            }
            _ => continue,
        };
        let loc = trace.source.resolve(Ip(ip));
        lines.push((x, ip, loc.map(|l| l.file.clone()), loc.map(|l| l.line)));
    }
    addrs.sort_by(|a, b| a.x.partial_cmp(&b.x).unwrap());
    lines.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for c in &mut counters {
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    Panels {
        addrs,
        lines,
        counters,
    }
}

proptest! {
    /// The distribution sort of a panel is the stable `sort_by` on x:
    /// the payload (the input position, and a word of ballast to make
    /// the item wider than its key) shows any tie that changed order.
    #[test]
    fn panel_sort_equals_stable_sort_by_x(xs in coordinates()) {
        let mut got: Vec<(f64, usize, u64)> =
            xs.iter().enumerate().map(|(i, &x)| (x, i, !(i as u64))).collect();
        let mut want = got.clone();
        want.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        sort_by_x(&mut got, |p| p.0);
        prop_assert_eq!(got, want);
    }

    /// A counter's parallel buffers come out as `sort_by` on (x, y)
    /// leaves the pairs; both repeat, so equal x are ordered by y.
    #[test]
    fn counter_sort_equals_sort_by_x_then_y(
        pairs in prop::collection::vec((coordinate(), coordinate()), 0..4000),
    ) {
        let mut want = pairs.clone();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (mut xs, mut ys): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        sort_counter(&mut xs, &mut ys);
        let got: Vec<(f64, f64)> = xs.into_iter().zip(ys).collect();
        prop_assert_eq!(got, want);
    }

    /// A region's twelve counter panels, built from one order of its
    /// samples, are each exactly what `sort_counter` makes of that
    /// counter's points. Times and progress values repeat (so do whole
    /// (x, y) pairs), masks range from one counter to all twelve, and
    /// in most cases one counter (`dead`) advances in no instance.
    #[test]
    fn shared_order_panels_equal_per_counter_sort(
        samples in prop_oneof![
            prop::collection::vec(counter_sample(), 0..40),
            prop::collection::vec(counter_sample(), 0..3000),
        ],
        dead in 0..NKINDS + 1,
    ) {
        let mut pooled = CounterSamples::default();
        let mut want: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); NKINDS];
        for (x, mask, ys) in &samples {
            let (mut mask, mut ys) = (*mask, *ys);
            if dead < NKINDS {
                mask &= !(1 << dead);
                ys[dead] = 0.0;
            }
            pooled.push(*x, mask, &ys);
            for (k, (xs, ks)) in want.iter_mut().enumerate() {
                if mask & (1 << k) != 0 {
                    xs.push(*x);
                    ks.push(ys[k]);
                }
            }
        }
        prop_assert_eq!(pooled.len(), samples.len());
        for (xs, ys) in &mut want {
            sort_counter(xs, ys);
        }
        let mut by_x: Vec<(f64, usize)> = samples.iter().map(|s| s.0).zip(0..).collect();
        by_x.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut panels = pooled.reserve_panels();
        pooled.sort_into(by_x.into_iter().map(|(_, i)| i), &mut panels);
        let got: Vec<(Vec<f64>, Vec<f64>)> = panels.0.into_iter().zip(panels.1).collect();
        if dead < NKINDS {
            prop_assert!(want[dead].0.is_empty());
        }
        prop_assert_eq!(got, want);
    }

    /// A fold orders each region once, and its three panels come out of
    /// that one order: the address panel, the line panel and the twelve
    /// counter panels of both nested regions each equal an independent
    /// stable sort of that panel, at one worker and at two. Folded times
    /// repeat (0.0, 1.0, inner boundaries, the same offset on both
    /// cores, a counter and a PEBS sample on one cycle), some counter
    /// samples advance no counter, and a PEBS sample in `inner` sits in
    /// `outer` too, in an instance of another index. A performance-only
    /// fold, which orders its counter samples the same way, has the same
    /// counter panels and no address or line panel.
    #[test]
    fn one_order_gives_three_panels(outers in prop::collection::vec(outer_instance(), 1..9)) {
        let trace = nested_two_core_trace(&outers);
        let keep_all = InstanceFilter { mad_k: f64::INFINITY, min_fraction_of_max: 0.0 };
        let cfg = FoldingConfig { filter: keep_all, ..FoldingConfig::default() };
        let requests = [RegionRequest::with_cfg("outer", cfg), RegionRequest::with_cfg("inner", cfg)];
        for threads in [1, 2] {
            let folds = fold_regions(&trace, &requests, threads);
            let (perf, _) = fold_performance_source(&mut &trace, &requests, threads).unwrap();
            for ((req, fold), perf) in requests.iter().zip(folds).zip(perf) {
                let (pooled, perf) = (fold.unwrap().pooled, perf.unwrap().pooled);
                let want = stable_sorted_panels(&trace, &req.region);
                let at = format!("{} at {threads} thread(s)", req.region);
                prop_assert_eq!(pooled.addr_points().collect::<Vec<_>>(), want.addrs, "{}", at);
                let got: Vec<Line> = pooled
                    .line_points()
                    .map(|l| (l.x, l.ip, l.file_name(&pooled).map(str::to_string), l.line))
                    .collect();
                prop_assert_eq!(got, want.lines, "{}", at);
                for kind in EventKind::ALL {
                    let got: Vec<(f64, f64)> = pooled.counter_points(kind).collect();
                    prop_assert_eq!(&got, &want.counters[kind.index()], "{} {:?}", at, kind);
                    prop_assert_eq!(perf.counter_xy(kind), pooled.counter_xy(kind), "{} {:?}", at, kind);
                }
                prop_assert_eq!(perf.addr_points().count() + perf.line_points().len(), 0);
                prop_assert!(perf.files().is_empty());
            }
        }
    }

    /// PAVA output is non-decreasing, length-preserving, and preserves
    /// the weighted mean.
    #[test]
    fn pava_invariants(
        pairs in prop::collection::vec((0.0f64..1.0, 0.1f64..10.0), 1..200),
    ) {
        let values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let weights: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let out = pava_nondecreasing(&values, &weights);
        prop_assert_eq!(out.len(), values.len());
        for w in out.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        let mean_in: f64 = values.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>()
            / weights.iter().sum::<f64>();
        let mean_out: f64 = out.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>()
            / weights.iter().sum::<f64>();
        prop_assert!((mean_in - mean_out).abs() < 1e-9, "PAVA preserves the weighted mean");
    }

    /// PAVA is idempotent: projecting an already-monotone sequence is
    /// the identity.
    #[test]
    fn pava_idempotent(
        pairs in prop::collection::vec((0.0f64..1.0, 0.1f64..10.0), 1..100),
    ) {
        let values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let weights: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let once = pava_nondecreasing(&values, &weights);
        let twice = pava_nondecreasing(&once, &weights);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Curves built from arbitrary knots stay within [0,1], are
    /// monotone, and hit their anchors.
    #[test]
    fn curve_stays_in_unit_box(
        raw in prop::collection::vec((0.001f64..0.999, 0.0f64..1.0), 0..50),
    ) {
        let mut knots = raw;
        knots.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        knots.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
        let (xs, ys): (Vec<f64>, Vec<f64>) = knots.into_iter().unzip();
        let c = MonotoneCurve::from_knots(&xs, &ys);
        prop_assert_eq!(c.eval(0.0), 0.0);
        prop_assert_eq!(c.eval(1.0), 1.0);
        let mut prev = -1e-12;
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            let y = c.eval(x);
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert!(y >= prev - 1e-12, "monotone");
            prop_assert!(c.slope(x) >= 0.0);
            prev = y;
        }
    }

    /// Folding a region whose counters advance *linearly* in time
    /// recovers (approximately) the identity progress curve and a flat
    /// rate, regardless of instance count, duration and sampling.
    #[test]
    fn fold_recovers_linear_progress(
        n_instances in 3usize..20,
        samples in 3usize..20,
        dur in 1_000u64..100_000,
        total in 1_000u64..1_000_000,
    ) {
        let mut t = Tracer::new(TracerConfig { freq_mhz: 2000, ..Default::default() }, 1);
        let ip = t.location("lin.cpp", 1, "lin");
        let mk = |inst: u64| {
            let mut v = [0u64; EventKind::ALL.len()];
            v[EventKind::Instructions.index()] = inst;
            CounterSnapshot::from_values(v)
        };
        let mut now = 0u64;
        let mut base = 0u64;
        for _ in 0..n_instances {
            t.enter(0, "R", mk(base), now);
            for s in 1..=samples {
                let x = s as f64 / (samples + 1) as f64;
                t.record_counter_sample(
                    0,
                    ip,
                    mk(base + (x * total as f64) as u64),
                    now + (x * dur as f64) as u64,
                );
            }
            t.exit(0, "R", mk(base + total), now + dur);
            base += total;
            now += dur + 17;
        }
        let tr = t.finish("linear");
        let f = fold_region(&tr, "R", &FoldingConfig::default()).unwrap();
        let c = f.counter(EventKind::Instructions);
        prop_assert!((c.avg_total - total as f64).abs() < 1.0);
        for x in [0.2, 0.5, 0.8] {
            prop_assert!((c.curve.eval(x) - x).abs() < 0.1, "eval({x}) = {}", c.curve.eval(x));
        }
        // Flat rate ⇒ MIPS ≈ mean MIPS everywhere.
        let mean = f.mean_mips();
        prop_assert!(mean > 0.0);
        let mid = f.mips_at(0.5);
        prop_assert!((mid - mean).abs() / mean < 0.35, "mid {mid} vs mean {mean}");
    }
}
