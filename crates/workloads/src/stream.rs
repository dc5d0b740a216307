//! The STREAM triad: `a[i] = b[i] + s · c[i]`.

use mempersp_extrae::{AppContext, CodeLocation, MemRequest, Workload};

/// Elements batched per [`AppContext::access_batch`] issue.
const CHUNK: usize = 256;

/// STREAM triad over three `n`-element vectors, repeated `reps` times.
#[derive(Debug, Clone)]
pub struct StreamTriad {
    n: usize,
    reps: usize,
    scalar: f64,
    /// Sum of `a` after the last repetition (set by `run`).
    pub checksum: f64,
}

impl StreamTriad {
    pub fn new(n: usize, reps: usize) -> Self {
        assert!(n > 0 && reps > 0);
        Self { n, reps, scalar: 3.0, checksum: 0.0 }
    }
}

impl Workload for StreamTriad {
    fn name(&self) -> String {
        format!("STREAM triad n={} reps={}", self.n, self.reps)
    }

    fn run(&mut self, ctx: &mut dyn AppContext) {
        let site = |line: u32| CodeLocation::new("stream.c", line, "triad");
        let ip_b = ctx.location("stream.c", 341, "triad");
        let ip_c = ctx.location("stream.c", 342, "triad");
        let ip_a = ctx.location("stream.c", 343, "triad");
        let ip_loop = ctx.location("stream.c", 340, "triad");

        let n = self.n;
        let a_base = ctx.malloc(0, (n * 8) as u64, &site(120));
        let b_base = ctx.malloc(0, (n * 8) as u64, &site(121));
        let c_base = ctx.malloc(0, (n * 8) as u64, &site(122));

        let mut a = vec![0.0f64; n];
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let c: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();

        ctx.set_overlap(0, 8.0);
        let mut buf: Vec<MemRequest> = Vec::with_capacity(3 * CHUNK);
        for _ in 0..self.reps {
            ctx.enter(0, "triad");
            let mut pending = 0u64;
            for i in 0..n {
                buf.push(MemRequest::load(ip_b, b_base + (i * 8) as u64, 8));
                buf.push(MemRequest::load(ip_c, c_base + (i * 8) as u64, 8));
                a[i] = b[i] + self.scalar * c[i];
                buf.push(MemRequest::store(ip_a, a_base + (i * 8) as u64, 8));
                pending += 1;
                if pending as usize == CHUNK {
                    ctx.access_batch(0, &buf);
                    buf.clear();
                    ctx.compute(0, ip_loop, 4 * pending, pending);
                    pending = 0;
                }
            }
            if pending > 0 {
                ctx.access_batch(0, &buf);
                buf.clear();
                ctx.compute(0, ip_loop, 4 * pending, pending);
            }
            ctx.exit(0, "triad");
        }
        self.checksum = a.iter().sum();
        ctx.free(0, a_base);
        ctx.free(0, b_base);
        ctx.free(0, c_base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{EventPayload, NullContext};

    #[test]
    fn triad_computes_correctly() {
        let mut ctx = NullContext::new(1);
        let mut w = StreamTriad::new(100, 2);
        w.run(&mut ctx);
        let expect: f64 = (0..100).map(|i| i as f64 + 3.0 * (i % 7) as f64).sum();
        assert_eq!(w.checksum, expect);
        let trace = ctx.finish("triad");
        let id = trace.region_id("triad").unwrap();
        let enters = trace.events.iter().filter(|e| {
            e.core == 0 && matches!(e.payload, EventPayload::RegionEnter { region, .. } if region == id)
        });
        assert_eq!(enters.count(), 2);
    }

    #[test]
    fn triad_emits_three_streams() {
        let mut ctx = NullContext::new(1);
        StreamTriad::new(64, 1).run(&mut ctx);
        let trace = ctx.finish("triad");
        use mempersp_extrae::events::EventPayload;
        let (mut loads, mut stores) = (0, 0);
        for e in &trace.events {
            match e.payload {
                EventPayload::Alloc { .. } | EventPayload::Free { .. } => {}
                EventPayload::RegionEnter { .. } | EventPayload::RegionExit { .. } => {}
                _ => {}
            }
        }
        // Counters live in the exit snapshot: 2 loads + 1 store per elem.
        let id = trace.region_id("triad").unwrap();
        for e in &trace.events {
            if let EventPayload::RegionExit { region, counters } = &e.payload {
                if *region == id {
                    loads = counters.get(mempersp_pebs::EventKind::Loads);
                    stores = counters.get(mempersp_pebs::EventKind::Stores);
                }
            }
        }
        assert_eq!(loads, 128);
        assert_eq!(stores, 64);
    }
}
