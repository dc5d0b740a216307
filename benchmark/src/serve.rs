//! `serve_mixed`: the resident service under two closed-loop clients.
//!
//! The repository holds three stores, one per block-cache regime:
//! `gen.mps` (Raw chunks, served from the mapping, bypassing the
//! cache), `hpcg.mps` (LZ chunks, fewer than the cache's 256 entries)
//! and `hpcg_fine.mps` (the same events in 16 KiB chunks, several
//! times the cache). Each client sends its next request only when the
//! previous one completed, in blocks of twenty: 16 window queries
//! spread over the three stores, 3 folds drawn from eight hot bodies
//! (memo hits) and 1 fold with a never-repeated `bins` (a memo miss),
//! in seeded order.

use crate::gen::Rng;
use crate::library::{ratio, THREADS};
use crate::oracle::PebsIndex;
use crate::spans::Spans;
use crate::stats::{best, median, percentile};
use crate::workloads::{
    bulk_config, hpcg_config, index_of_store, ingest, machine_config, simulate, BULK_OBJECT,
};
use crate::{host, Ctx};
use mempersp_extrae::trace_source::TraceSource;
use mempersp_folding::Fnv64;
use mempersp_hpcg::regions;
use mempersp_server::http::Request;
use mempersp_server::router::{self, App};
use mempersp_server::{start, ServerConfig};
use mempersp_store::{write_store_chunked, MpsSource};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

const STORES: [&str; 3] = ["gen.mps", "hpcg.mps", "hpcg_fine.mps"];
const FINE_CHUNK_BYTES: usize = 16 * 1024;
const MEMO_CAP: usize = 16;
/// A block: 16 queries, 3 hot folds, 1 cold fold.
const BLOCK: usize = 20;
/// Each client keeps going until it has this many queries, so the two
/// together always support a p99.
const MIN_QUERIES_PER_CLIENT: usize = 500;
/// Every n-th query response is compared byte for byte with the
/// in-process handler's after the window.
const VERIFY_EVERY: usize = 48;

/// The eight hot fold bodies: four region pairs on each HPCG store.
fn hot_bodies() -> Vec<String> {
    let pairs = [
        (regions::CG_ITERATION, regions::SYMGS),
        (regions::SPMV, regions::MG),
        (regions::DOT, regions::WAXPBY),
        (regions::RESTRICTION, regions::PROLONGATION),
    ];
    let mut out = Vec::new();
    for (a, b) in pairs {
        for store in &STORES[1..] {
            out.push(format!(r#"{{"trace":"{store}","regions":["{a}","{b}"]}}"#));
        }
    }
    out
}

/// A fold no one has asked before: `bins` is unique per (client, n).
/// The default is 32, so hot bodies never collide with these.
fn cold_body(client: usize, n: usize) -> String {
    let bins = 33 + (n * THREADS + client) % 4000;
    format!(
        r#"{{"trace":"hpcg.mps","regions":["{}","{}"],"bins":{bins}}}"#,
        regions::CG_ITERATION,
        regions::SYMGS
    )
}

struct Reply {
    status: u16,
    memo: Option<String>,
    body: Vec<u8>,
    wire_bytes: usize,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Undo the responder's framing: Content-Length or chunked.
fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let head_end = find(raw, b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let header = |name: &str| {
        head.lines().skip(1).find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
        })
    };
    let mut rest = &raw[head_end + 4..];
    let body = if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        let mut body = Vec::with_capacity(rest.len());
        loop {
            let line_end = find(rest, b"\r\n")?;
            let size =
                usize::from_str_radix(std::str::from_utf8(&rest[..line_end]).ok()?, 16).ok()?;
            rest = &rest[line_end + 2..];
            if size == 0 {
                break body;
            }
            body.extend_from_slice(rest.get(..size)?);
            rest = rest.get(size + 2..)?;
        }
    } else {
        rest.to_vec()
    };
    Some(Reply { status, memo: header("x-memo"), body, wire_bytes: raw.len() })
}

/// One request on a fresh connection (the service closes after one).
fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    parse_reply(&raw).ok_or_else(|| std::io::Error::other("unparseable response"))
}

/// The same request, answered by the router without a socket.
fn handle_in_process(app: &App, path: &str, body: &str) -> (u16, Vec<u8>) {
    let req = Request {
        method: "POST".into(),
        path: path.into(),
        query_string: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let (_, resp) = router::handle(app, &req);
    (resp.status, resp.body)
}

/// A body without its trailing `"stats"` object, which legitimately
/// differs with the block cache's state.
fn without_stats(body: &[u8]) -> &[u8] {
    let needle = b",\"stats\":";
    body.windows(needle.len()).rposition(|w| w == needle).map_or(body, |at| &body[..at])
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

fn field_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(key)? + key.len();
    let digits: String = text[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The window is read in this many equal time slices.
const SLICES: usize = 4;

/// The answered requests that completed in time slice `i`.
fn in_slice(
    done: &[(f64, Kind, f64)],
    wall: f64,
    i: usize,
) -> impl Iterator<Item = &(f64, Kind, f64)> {
    let (lo, hi) = (wall * i as f64 / SLICES as f64, wall * (i + 1) as f64 / SLICES as f64);
    done.iter().filter(move |r| r.0 > lo && r.0 <= hi)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Query,
    Hot,
    Cold,
}

/// What one client saw.
#[derive(Default)]
struct Seen {
    /// Every answered request: (completion time since the window
    /// opened, kind, latency).
    done: Vec<(f64, Kind, f64)>,
    block_traced_s: Vec<f64>,
    block_untraced_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    memo_hits: u64,
    rejected_429: u64,
    errors_5xx: u64,
    wire_bytes: u64,
    chunks: [u64; 3], // decoded, cached, skipped
    events: [u64; 2], // matched, scanned
    /// (path, body, digest of the response body without stats).
    to_verify: Vec<(&'static str, String, u64)>,
}

impl Seen {
    /// Latencies of the answered requests of one kind.
    fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.done.iter().filter(|r| r.1 == kind).map(|r| r.2).collect()
    }

    fn count(&self, kind: Kind) -> usize {
        self.done.iter().filter(|r| r.1 == kind).count()
    }

    fn absorb(&mut self, other: Seen) {
        self.done.extend(other.done);
        self.block_traced_s.extend(other.block_traced_s);
        self.block_untraced_s.extend(other.block_untraced_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.memo_hits += other.memo_hits;
        self.rejected_429 += other.rejected_429;
        self.errors_5xx += other.errors_5xx;
        self.wire_bytes += other.wire_bytes;
        for (mine, theirs) in self.chunks.iter_mut().zip(other.chunks) {
            *mine += theirs;
        }
        for (mine, theirs) in self.events.iter_mut().zip(other.events) {
            *mine += theirs;
        }
        self.to_verify.extend(other.to_verify);
    }
}

struct Client<'a> {
    id: usize,
    addr: SocketAddr,
    window: Instant,
    rng: Rng,
    indexes: &'a [&'a PebsIndex; 3],
    hot: &'a [String],
    seen: Seen,
    spans: Spans,
    hot_next: usize,
    cold_next: usize,
}

impl Client<'_> {
    fn fail(&mut self, what: String) {
        self.seen.failed += 1;
        if self.seen.failures.len() < 8 {
            self.seen.failures.push(what);
        }
    }

    fn one(&mut self, kind: Kind) {
        let (path, body, want_memo, want_count) = match kind {
            Kind::Query => {
                let store = self.rng.below(3) as usize;
                let w = self.indexes[store].window(&mut self.rng);
                let body = format!(
                    r#"{{"trace":"{}","query":{{"time":[{},{}],"kinds":["PEBS"],"cores":[{}]}},"limit":1000}}"#,
                    STORES[store], w.lo, w.hi, w.core
                );
                ("/v1/query", body, None, Some(self.indexes[store].expect(&w).0))
            }
            Kind::Hot => {
                self.hot_next += 1;
                ("/v1/fold", self.hot[self.hot_next % self.hot.len()].clone(), Some("hit"), None)
            }
            Kind::Cold => {
                self.cold_next += 1;
                ("/v1/fold", cold_body(self.id, self.cold_next), Some("miss"), None)
            }
        };
        let name = match kind {
            Kind::Query => "client.query",
            Kind::Hot => "client.fold_hit",
            Kind::Cold => "client.fold_miss",
        };
        self.seen.attempted += 1;
        let addr = self.addr;
        let (reply, secs) = self.spans.time(name, |_| post(addr, path, &body));
        let reply = match reply {
            Ok(r) => r,
            Err(e) => return self.fail(format!("{path}: {e}")),
        };
        self.seen.wire_bytes += reply.wire_bytes as u64;
        match reply.status {
            200 => {}
            429 => self.seen.rejected_429 += 1,
            500..=599 => self.seen.errors_5xx += 1,
            _ => {}
        }
        if reply.status != 200 {
            return self.fail(format!("{path} answered {}", reply.status));
        }
        self.seen.done.push((self.window.elapsed().as_secs_f64(), kind, secs));
        if reply.memo.as_deref() == Some("hit") {
            self.seen.memo_hits += 1;
        }
        if reply.memo.as_deref() != want_memo {
            self.fail(format!("{path} {body}: X-Memo {:?}, want {want_memo:?}", reply.memo));
        }
        let text = String::from_utf8_lossy(&reply.body);
        if let Some(want) = want_count {
            let got = field_u64(&text, "\"total_matched\":");
            if got != Some(want) {
                self.fail(format!("{body}: total_matched {got:?}, a linear filter finds {want}"));
            }
            if let Some(at) = text.rfind("\"stats\":") {
                let stats = &text[at..];
                for (slot, key) in
                    ["\"chunks_decoded\":", "\"chunks_cached\":", "\"chunks_skipped\":"]
                        .iter()
                        .enumerate()
                {
                    self.seen.chunks[slot] += field_u64(stats, key).unwrap_or(0);
                }
                self.seen.events[0] += field_u64(stats, "\"events_matched\":").unwrap_or(0);
                self.seen.events[1] += field_u64(stats, "\"events_scanned\":").unwrap_or(0);
            }
        }
        let nth = self.seen.count(kind);
        let sampled = if kind == Kind::Query { nth % VERIFY_EVERY == 1 } else { nth == 1 };
        if sampled {
            self.seen.to_verify.push((path, body, digest(without_stats(&reply.body))));
        }
    }

    /// Blocks of twenty until the window closes and the query quota is
    /// met.
    fn run(mut self, seconds: f64, traced: bool) -> (Seen, Spans) {
        let mut blocks = 0u64;
        while self.window.elapsed().as_secs_f64() < seconds
            || self.seen.count(Kind::Query) < MIN_QUERIES_PER_CLIENT
        {
            let mut slots = [Kind::Query; BLOCK];
            slots[..3].fill(Kind::Hot);
            slots[3] = Kind::Cold;
            for i in (1..BLOCK).rev() {
                slots.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
            self.spans.enabled = traced && blocks.is_multiple_of(2);
            self.spans.set_op(blocks * THREADS as u64 + self.id as u64);
            let open = self.spans.begin("client.block");
            for kind in slots {
                self.one(kind);
            }
            let secs = self.spans.end(open);
            let seen = &mut self.seen;
            let bucket = if self.spans.enabled {
                &mut seen.block_traced_s
            } else {
                &mut seen.block_untraced_s
            };
            bucket.push(secs);
            blocks += 1;
        }
        (self.seen, self.spans)
    }
}

pub fn run(ctx: &mut Ctx) {
    let entered = Instant::now();
    let calib = host::calibrate();
    let root = ctx.dir.join("root");
    std::fs::create_dir_all(&root).expect("create repository root");

    // Set-up: the three stores and their oracles.
    let mut silent = Spans::new(Instant::now(), false);
    let gen_cfg = bulk_config(ctx);
    let gen = ingest(&gen_cfg, &root.join(STORES[0]), &mut silent);
    let gen_index = PebsIndex::build(gen_cfg.events(), BULK_OBJECT);
    let hpcg_path = root.join(STORES[1]);
    let report = simulate(&machine_config(true, ctx.seed), &hpcg_config(ctx.quick), &hpcg_path);
    let hpcg_index = index_of_store(&hpcg_path);
    let trace = MpsSource::open(&hpcg_path).expect("open").materialize().expect("materialize");
    write_store_chunked(&root.join(STORES[2]), &trace, FINE_CHUNK_BYTES).expect("rewrite");
    drop(trace);
    let indexes = [&gen_index, &hpcg_index, &hpcg_index];
    let store_bytes: u64 =
        STORES.iter().map(|s| std::fs::metadata(root.join(s)).expect("store").len()).sum();
    let store_events = gen.events + 2 * report.events_streamed;

    let server = start(&ServerConfig {
        root: root.clone(),
        addr: "127.0.0.1:0".to_string(),
        max_inflight: 16,
        timeout_ms: 0,
        workers: THREADS,
        memo_cap: MEMO_CAP,
    })
    .expect("start server");
    let addr = server.addr();

    // Warm: every hot body computed once (so it is a hit from now on),
    // every store opened and touched.
    let hot = hot_bodies();
    for body in &hot {
        let reply = post(addr, "/v1/fold", body);
        let ok = reply.as_ref().is_ok_and(|r| r.status == 200 && r.memo.as_deref() == Some("miss"));
        ctx.run.check(ok, || format!("priming {body} failed"));
    }
    let mut warm = Client {
        id: 0,
        addr,
        window: Instant::now(),
        rng: Rng::new(ctx.seed ^ 0xAA),
        indexes: &indexes,
        hot: &hot,
        seen: Seen::default(),
        spans: ctx.spans.fork(),
        hot_next: 0,
        cold_next: 0,
    };
    for _ in 0..30 {
        warm.one(Kind::Query);
    }
    ctx.run.attempted += warm.seen.attempted;
    ctx.run.failed += warm.seen.failed;
    ctx.run.failures.extend(warm.seen.failures);
    ctx.run.set("setup_s", entered.elapsed().as_secs_f64(), 1);
    host::reset_peak_rss();

    // The window: two closed-loop clients, out of phase on the hot
    // bodies so the memo's LRU sees each one often.
    let window = Instant::now();
    let (seconds, traced, seed) = (ctx.seconds, ctx.trace, ctx.seed);
    let forks: Vec<Spans> = (0..THREADS).map(|_| ctx.spans.fork()).collect();
    let results: Vec<(Seen, Spans)> = std::thread::scope(|s| {
        let handles: Vec<_> = forks
            .into_iter()
            .enumerate()
            .map(|(id, spans)| {
                let client = Client {
                    id,
                    addr,
                    window,
                    rng: Rng::new(seed.wrapping_mul(31).wrapping_add(id as u64)),
                    indexes: &indexes,
                    hot: &hot,
                    seen: Seen::default(),
                    spans,
                    hot_next: id * hot.len() / THREADS,
                    cold_next: 0,
                };
                s.spawn(move || client.run(seconds, traced))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = window.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_bytes().unwrap_or(0);

    // Cache residency of the three stores, as the server saw it.
    let mut residency = Vec::new();
    for name in STORES {
        let src = server.app().repo.lookup(name).expect("store is open");
        let c = src.cache_stats();
        let chunks = src.reader().map_or(0, |r| r.chunks().len());
        residency.push(format!(
            "{name}: {chunks} chunks, cache hits {} misses {} insertions {} evictions {}",
            c.hits, c.misses, c.insertions, c.evictions
        ));
    }
    let cache = server.app().repo.cache_stats();
    server.shutdown();
    server.join();

    let mut all = Seen::default();
    for (seen, spans) in results {
        ctx.spans.absorb(spans);
        all.absorb(seen);
    }
    ctx.run.attempted += all.attempted;
    ctx.run.failed += all.failed;
    ctx.run.failures.append(&mut all.failures);

    // Sampled responses against the handler called without a socket,
    // on a second App with its own readers and an empty memo.
    let app = App::new(&root, None, MEMO_CAP).expect("in-process app");
    let mut handle_query_s = Vec::new();
    let mut handle_fold_s = Vec::new();
    for (path, body, want) in &all.to_verify {
        let t = Instant::now();
        let (status, reply) = handle_in_process(&app, path, body);
        let secs = t.elapsed().as_secs_f64();
        let bucket = if *path == "/v1/query" { &mut handle_query_s } else { &mut handle_fold_s };
        bucket.push(secs);
        ctx.run.check(status == 200 && digest(without_stats(&reply)) == *want, || {
            format!("{path} {body}: the socket's body differs from the in-process handler's")
        });
    }

    // The window in equal time slices, each reporting its own figure;
    // the run reports the best slice's (see `stats::best`).
    let requests = all.done.len();
    let (query_s, hot_s, cold_s) =
        (all.latencies(Kind::Query), all.latencies(Kind::Hot), all.latencies(Kind::Cold));
    let latencies = |slice: usize, kind: Kind| -> Vec<f64> {
        in_slice(&all.done, wall, slice).filter(|r| r.1 == kind).map(|r| r.2).collect()
    };
    let slice_s = wall / SLICES as f64;
    let per_request: Vec<f64> =
        (0..SLICES).map(|i| slice_s / in_slice(&all.done, wall, i).count() as f64).collect();
    let folds: Vec<f64> = (0..SLICES).map(|i| median(&latencies(i, Kind::Cold))).collect();
    let p50s: Vec<f64> = (0..SLICES).map(|i| median(&latencies(i, Kind::Query))).collect();
    let run = &mut ctx.run;
    run.set("work_per_s", 1.0 / best(&per_request), requests);
    run.set("fold_s", best(&folds), cold_s.len());
    run.set("query_p50_s", best(&p50s), query_s.len());
    run.set("store_bytes_per_event", store_bytes as f64 / store_events as f64, 1);
    run.set("peak_rss_bytes", peak_rss as f64, 1);
    for line in &residency {
        println!("  residency  {line}");
    }

    if ctx.trace {
        run.set("host.calib_s", calib, 1);
        run.set(
            "trace_overhead_ratio",
            median(&all.block_traced_s) / median(&all.block_untraced_s),
            all.block_traced_s.len().min(all.block_untraced_s.len()),
        );
        let handle_q = median(&handle_query_s);
        run.set("server.handle_query_s", handle_q, handle_query_s.len());
        run.set("server.handle_fold_miss_s", median(&handle_fold_s), handle_fold_s.len());
        run.set("server.http_overhead_s", median(&query_s) - handle_q, query_s.len());
        run.set("server.memo_hit_s", median(&hot_s), hot_s.len());
        let p99 = percentile(&query_s, 0.99).expect("two clients × 500 queries at least");
        run.set("server.query_p99_s", p99, query_s.len());
        let p90 = percentile(&cold_s, 0.90).unwrap_or(0.0);
        run.set("server.fold_miss_p90_s", p90, cold_s.len());
        let folds = (hot_s.len() + cold_s.len()) as u64;
        run.set("server.memo_hit_ratio", ratio(all.memo_hits, folds), folds as usize);
        run.set("server.rejected_429", all.rejected_429 as f64, requests);
        run.set("server.errors_5xx", all.errors_5xx as f64, requests);
        run.set("server.bytes_out_per_s", all.wire_bytes as f64 / wall, requests);
        run.set("server.requests", requests as f64, 1);
        let [decoded, cached, skipped] = all.chunks;
        run.set("store.chunks_decoded", decoded as f64, query_s.len());
        run.set("store.chunks_cached", cached as f64, query_s.len());
        run.set("store.chunks_skipped", skipped as f64, query_s.len());
        run.set("store.prune_ratio", ratio(skipped, decoded + cached + skipped), 1);
        run.set("store.select_ratio", ratio(all.events[0], all.events[1]), 1);
        run.set("store.cache_hit_ratio", ratio(cache.hits, cache.hits + cache.misses), 1);
    }
}
