//! End-to-end checks of the trace-analysis service: a real server on
//! an ephemeral port, driven by plain `TcpStream` clients.
//!
//! The acceptance criteria under test:
//!
//! * concurrent clients mixing `/v1/traces`, `/v1/query` and
//!   `/v1/fold` get answers **byte-identical** to the batch path
//!   (an `MpsSource` query rendered through the `event_to_json`
//!   reference of the schema `mempersp query --json` emits);
//! * `offset`/`limit` pages are windows over that same answer, byte
//!   for byte, wherever the window falls relative to chunks and shards;
//! * a repeated fold is answered from the memo (`X-Memo: hit`) with a
//!   byte-identical body;
//! * a corrupt store yields `502` plus a damage summary — the server
//!   must survive, never panic;
//! * overload yields `429` at admission, and the slot is reusable
//!   after the hogging client goes away;
//! * an expired deadline yields `503`, and a scan that fails part-way
//!   never yields a truncated `events` array;
//! * `Server-Timing` splits a request's time into scan and render.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;

use mempersp::core::{Machine, MachineConfig};
use mempersp::extrae::json::{event_to_json, query_from_json};
use mempersp::hpcg::{HpcgConfig, HpcgWorkload};
use mempersp::server::{start, ServerConfig};
use mempersp::store::{write_store_chunked, write_store_sharded, MpsSource, RecoveryMode};
use mempersp::workloads::StreamTriad;

/// Events per shard of `hpcg.mps.d`; not a multiple of [`PAGE`].
const SHARD_EVENTS: u64 = 2500;

/// One shared repository: an HPCG store (flat and sharded), a STREAM
/// store, and a deliberately corrupted copy of the HPCG store.
fn repo() -> &'static PathBuf {
    static CELL: OnceLock<PathBuf> = OnceLock::new();
    CELL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mempersp_srv_it_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let mut mcfg = MachineConfig::small();
        mcfg.cores = 2;
        mcfg.counter_sample_period = 20_000;
        let mut w = HpcgWorkload::new(HpcgConfig {
            nx: 8,
            max_iters: 3,
            mg_levels: 3,
            group_allocations: true,
            use_mg: true,
        });
        let hpcg = Machine::new(mcfg).run(&mut w);
        write_store_chunked(&dir.join("hpcg.mps"), &hpcg.trace, 8 * 1024).unwrap();
        write_store_sharded(&dir.join("hpcg.mps.d"), &hpcg.trace, 8 * 1024, 1, SHARD_EVENTS).unwrap();

        let stream = Machine::new(MachineConfig::small()).run(&mut StreamTriad::new(1 << 13, 3));
        write_store_chunked(&dir.join("stream.mps"), &stream.trace, 8 * 1024).unwrap();

        // A corrupt sibling: same bytes, one flipped in the chunk
        // region (far enough from the end to sit in a payload).
        std::fs::copy(dir.join("hpcg.mps"), dir.join("bad.mps")).unwrap();
        mempersp::server::repo::flip_byte_for_tests(&dir.join("bad.mps"), 2000).unwrap();

        // And one that opens clean and scans clean up to a late chunk:
        // the flipped byte sits in the middle of that chunk's payload.
        let flat = MpsSource::open(&dir.join("hpcg.mps")).unwrap();
        let chunks = flat.reader().unwrap().chunks();
        let victim = &chunks[chunks.len() * 2 / 3];
        let from_end = std::fs::metadata(dir.join("hpcg.mps")).unwrap().len()
            - (victim.offset + u64::from(victim.stored_len) / 2);
        std::fs::copy(dir.join("hpcg.mps"), dir.join("late.mps")).unwrap();
        mempersp::server::repo::flip_byte_for_tests(&dir.join("late.mps"), from_end).unwrap();
        dir
    })
}

fn launch(max_inflight: usize, workers: usize, timeout_ms: u64) -> mempersp::server::ServerHandle {
    let cfg = ServerConfig {
        root: repo().clone(),
        addr: "127.0.0.1:0".to_string(),
        max_inflight,
        timeout_ms,
        workers,
        memo_cap: 16,
    };
    start(&cfg).unwrap()
}

/// A minimal HTTP/1.1 client: one request, read to EOF (the server
/// closes every connection), de-chunk if needed.
fn http(addr: SocketAddr, method: &str, target: &str, body: Option<&str>) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    let body = body.unwrap_or("");
    write!(
        s,
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).unwrap();
    let (head, payload) = raw.split_once("\r\n\r\n").expect("no header terminator");
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    let body = if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        let mut rest = payload;
        let mut out = String::new();
        while let Some((size_line, tail)) = rest.split_once("\r\n") {
            let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
            if size == 0 {
                break;
            }
            out.push_str(&tail[..size]);
            rest = &tail[size + 2..];
        }
        out
    } else {
        payload.to_string()
    };
    (status, head.to_string(), body)
}

/// The reference answer for a query request: open the store directly
/// (the batch path) and serialize through the same canonical schema
/// as `mempersp query --json`.
fn reference_events(store: &str, query_json: &str) -> Vec<String> {
    let src = MpsSource::open_with_options(
        &repo().join(store),
        RecoveryMode::Strict,
        true,
    )
    .unwrap();
    let q = query_from_json(&serde_json::from_str(query_json).unwrap()).unwrap();
    let (events, _) = src.query(&q).unwrap();
    events.iter().map(|e| serde_json::to_string(&event_to_json(e)).unwrap()).collect()
}

/// Pull the serialized elements of the response's `events` array.
fn response_events(body: &str) -> Vec<String> {
    let v = serde_json::from_str(body).unwrap();
    v.get("events")
        .and_then(|e| e.as_array())
        .unwrap_or_else(|| panic!("no events array in {body}"))
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect()
}

/// The text between the brackets of the response's `events` array,
/// exactly as it came off the socket.
fn events_text(body: &str) -> &str {
    let open = "\"events\":[";
    let at = body.find(open).unwrap_or_else(|| panic!("no events array in {body}")) + open.len();
    let end = body.rfind("],\"stats\":").expect("stats follow the events");
    &body[at..end]
}

fn field(body: &str, key: &str) -> u64 {
    let v = serde_json::from_str(body).unwrap();
    v.get(key).and_then(|x| x.as_u64()).unwrap_or_else(|| panic!("no {key} in {body}"))
}

/// `(scan, render)` milliseconds of a `Server-Timing` header.
fn server_timing(head: &str) -> (f64, f64) {
    let value = head
        .lines()
        .find_map(|l| l.strip_prefix("Server-Timing: "))
        .unwrap_or_else(|| panic!("no Server-Timing header in {head}"));
    let dur = |metric: &str| -> f64 {
        value
            .split(", ")
            .find_map(|m| m.strip_prefix(metric)?.strip_prefix(";dur="))
            .unwrap_or_else(|| panic!("no {metric} in {value:?}"))
            .parse()
            .unwrap()
    };
    (dur("scan"), dur("render"))
}

#[test]
fn concurrent_clients_match_the_batch_path() {
    let handle = launch(16, 4, 30_000);
    let addr = handle.addr();

    // Four clients, each with its own predicate mix, all hammering
    // the same two stores concurrently.
    let cases: Vec<(&str, &str)> = vec![
        ("hpcg.mps", r#"{"kinds":["ENTER","EXIT"]}"#),
        ("hpcg.mps", r#"{"kinds":["PEBS"],"cores":[1]}"#),
        ("stream.mps", r#"{"kinds":["SAMP"]}"#),
        ("stream.mps", r#"{}"#),
    ];
    let threads: Vec<_> = cases
        .into_iter()
        .map(|(store, qjson)| {
            std::thread::spawn(move || {
                for round in 0..3 {
                    // The listing must always show all three stores.
                    let (status, _, body) = http(addr, "GET", "/v1/traces", None);
                    assert_eq!(status, 200);
                    assert!(body.contains("hpcg.mps") && body.contains("stream.mps"), "{body}");

                    let req = format!("{{\"trace\":\"{store}\",\"query\":{qjson}}}");
                    let (status, _, body) = http(addr, "POST", "/v1/query", Some(&req));
                    assert_eq!(status, 200, "round {round}: {body}");
                    let got = response_events(&body);
                    let want = reference_events(store, qjson);
                    assert_eq!(got.len(), want.len(), "round {round} {store} {qjson}");
                    assert_eq!(got, want, "server answer diverged from the batch path");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Pagination is a window over the same ordered result.
    let all = reference_events("hpcg.mps", r#"{"kinds":["ENTER","EXIT"]}"#);
    let req = r#"{"trace":"hpcg.mps","query":{"kinds":["ENTER","EXIT"]},"offset":5,"limit":7}"#;
    let (status, _, body) = http(addr, "POST", "/v1/query", Some(req));
    assert_eq!(status, 200);
    let page = response_events(&body);
    assert_eq!(page, all[5..12].to_vec());
    let v = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("total_matched").and_then(|x| x.as_u64()), Some(all.len() as u64));

    handle.shutdown();
    handle.join();
}

/// Rows per page below: more than any chunk holds, so every page ends
/// in a later chunk than it starts in.
const PAGE: usize = 700;

#[test]
fn pages_concatenate_to_the_unpaginated_answer_byte_for_byte() {
    let handle = launch(8, 2, 30_000);
    let addr = handle.addr();

    // The flat store's chunking, to show the windows really do start
    // inside one chunk and end in another (the sharded store uses the
    // same chunk target and also cuts at every shard end).
    let flat = MpsSource::open(&repo().join("hpcg.mps")).unwrap();
    let chunks: Vec<usize> =
        flat.reader().unwrap().chunks().iter().map(|c| c.events as usize).collect();
    assert!(chunks.iter().all(|&n| n < PAGE), "a chunk holds a whole page: {chunks:?}");
    let starts: Vec<usize> = chunks.iter().scan(0, |at, n| Some(std::mem::replace(at, *at + n))).collect();
    assert!(!starts.contains(&PAGE), "the second page starts on a chunk boundary");
    assert!(MpsSource::open(&repo().join("hpcg.mps.d")).unwrap().num_shards() > 2);

    for store in ["hpcg.mps", "hpcg.mps.d"] {
        for qjson in [r#"{}"#, r#"{"kinds":["PEBS","SAMP","ALLOC","FREE","MUX"]}"#] {
            let want = reference_events(store, qjson);
            assert!(want.len() > 3 * PAGE, "{store} {qjson}: only {} matches", want.len());
            let req = format!("{{\"trace\":\"{store}\",\"query\":{qjson}}}");
            let (status, _, whole) = http(addr, "POST", "/v1/query", Some(&req));
            assert_eq!(status, 200, "{whole}");
            assert_eq!(events_text(&whole), want.join(","), "{store} {qjson}");
            assert_eq!(field(&whole, "total_matched"), want.len() as u64);
            assert_eq!(field(&whole, "returned"), want.len() as u64);

            let mut pages = Vec::new();
            for offset in (0..want.len()).step_by(PAGE) {
                let req = format!(
                    "{{\"trace\":\"{store}\",\"query\":{qjson},\"offset\":{offset},\"limit\":{PAGE}}}"
                );
                let (status, _, body) = http(addr, "POST", "/v1/query", Some(&req));
                assert_eq!(status, 200, "{body}");
                assert_eq!(field(&body, "total_matched"), want.len() as u64);
                assert_eq!(field(&body, "returned"), PAGE.min(want.len() - offset) as u64);
                pages.push(events_text(&body).to_string());
            }
            assert_eq!(pages.join(","), events_text(&whole), "{store} {qjson}");
        }
    }

    handle.shutdown();
    handle.join();
}

/// `offset`/`limit` saturate: every corner is a `200` whose window is
/// the slice `skip(offset).take(limit)` would give.
#[test]
fn offset_and_limit_saturate() {
    let handle = launch(8, 2, 30_000);
    let addr = handle.addr();
    let qjson = r#"{"kinds":["ENTER","EXIT"]}"#;
    let all = reference_events("hpcg.mps", qjson);
    let n = all.len();
    let max = usize::MAX;

    let cases: Vec<(String, std::ops::Range<usize>)> = vec![
        (String::new(), 0..n),
        (r#","offset":5"#.into(), 5..n),
        (r#","limit":0"#.into(), 0..0),
        (r#","offset":5,"limit":0"#.into(), 0..0),
        (format!(r#","offset":{}"#, n - 1), n - 1..n),
        (format!(r#","offset":{n}"#), 0..0),
        (format!(r#","offset":{},"limit":3"#, n + 10), 0..0),
        (format!(r#","offset":3,"limit":{max}"#), 3..n),
        (format!(r#","offset":{max},"limit":{max}"#), 0..0),
        (format!(r#","offset":{},"limit":{max}"#, max - 1), 0..0),
        (format!(r#","limit":{}"#, n + 1), 0..n),
    ];
    for (window, range) in cases {
        let req = format!("{{\"trace\":\"hpcg.mps\",\"query\":{qjson}{window}}}");
        let (status, _, body) = http(addr, "POST", "/v1/query", Some(&req));
        assert_eq!(status, 200, "{req}: {body}");
        assert_eq!(field(&body, "total_matched"), n as u64, "{req}");
        assert_eq!(field(&body, "returned"), range.len() as u64, "{req}");
        assert_eq!(events_text(&body), all[range].join(","), "{req}");
    }

    handle.shutdown();
    handle.join();
}

/// `Server-Timing` carries a scan and a render duration that fit
/// inside the request's wall time as the client saw it.
#[test]
fn server_timing_splits_scan_and_render() {
    let handle = launch(8, 2, 60_000);
    let addr = handle.addr();
    let fold = r#"{"trace":"hpcg.mps","points":24}"#;
    for (path, body, memo) in [
        ("/v1/query", r#"{"trace":"hpcg.mps","limit":500}"#, None),
        ("/v1/fold", fold, Some("X-Memo: miss")),
        ("/v1/fold", fold, Some("X-Memo: hit")),
    ] {
        let sent = std::time::Instant::now();
        let (status, head, _) = http(addr, "POST", path, Some(body));
        let wall_ms = sent.elapsed().as_secs_f64() * 1e3;
        assert_eq!(status, 200);
        let (scan, render) = server_timing(&head);
        assert!(scan >= 0.0 && render >= 0.0, "{head}");
        assert!(scan + render <= wall_ms, "{path}: {scan} + {render} ms of a {wall_ms} ms request");
        match memo {
            Some(marker) => assert!(head.contains(marker), "{head}"),
            None => assert!(scan > 0.0 && render > 0.0, "a query scans and renders: {head}"),
        }
        if memo == Some("X-Memo: hit") {
            assert_eq!((scan, render), (0.0, 0.0), "a memo hit does neither");
        }
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn folds_are_memoized_and_byte_identical_across_clients() {
    let handle = launch(16, 4, 60_000);
    let addr = handle.addr();
    let req = r#"{"trace":"hpcg.mps","points":16}"#;

    // Cold fold: computed, marked as a miss.
    let (status, head, first_body) = http(addr, "POST", "/v1/fold", Some(req));
    assert_eq!(status, 200, "{first_body}");
    assert!(head.contains("X-Memo: miss"), "{head}");
    assert!(first_body.contains("\"regions\""));

    // Four concurrent repeats: every one a memo hit, every body
    // byte-identical to the cold result.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let expect = first_body.clone();
            std::thread::spawn(move || {
                let (status, head, body) = http(addr, "POST", "/v1/fold", Some(req));
                assert_eq!(status, 200);
                assert!(head.contains("X-Memo: hit"), "{head}");
                assert_eq!(body, expect, "memoized body must be byte-identical");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // A different region set (or resolution) is a different memo key.
    let (status, head, _) =
        http(addr, "POST", "/v1/fold", Some(r#"{"trace":"hpcg.mps","points":8}"#));
    assert_eq!(status, 200);
    assert!(head.contains("X-Memo: miss"), "{head}");

    // The memo hits are visible on /metrics.
    let (_, _, metrics) = http(addr, "GET", "/metrics", None);
    let hits: u64 = metrics
        .lines()
        .find(|l| l.starts_with("mempersp_fold_memo_hits_total"))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(hits >= 4, "expected >=4 memo hits, got {hits}\n{metrics}");
    assert!(metrics.contains("mempersp_block_cache_hits_total"));

    handle.shutdown();
    handle.join();
}

#[test]
fn corrupt_store_is_502_with_damage_summary_and_server_survives() {
    let handle = launch(8, 2, 30_000);
    let addr = handle.addr();

    let (status, _, body) = http(addr, "POST", "/v1/query", Some(r#"{"trace":"bad.mps"}"#));
    assert_eq!(status, 502, "{body}");
    assert!(body.contains("damage"), "{body}");
    assert!(body.contains("error"), "{body}");

    // `late.mps` is damaged two thirds in: the chunks before that scan
    // clean, so a full scan fails *after* rows were rendered. The
    // answer is the error JSON alone, not an `events` array cut short.
    let early = r#"{"trace":"late.mps","query":{"time":[0,1000]}}"#;
    let (status, _, body) = http(addr, "POST", "/v1/query", Some(early));
    assert_eq!(status, 200, "{body}");
    assert!(field(&body, "returned") > 0, "{body}");
    for window in ["", r#","limit":10"#, r#","offset":100,"limit":10"#] {
        let req = format!("{{\"trace\":\"late.mps\"{window}}}");
        let (status, _, body) = http(addr, "POST", "/v1/query", Some(&req));
        assert_eq!(status, 502, "{body}");
        let v = serde_json::from_str(&body).unwrap();
        assert!(v.get("error").is_some() && v.get("damage").is_some(), "{body}");
        assert_eq!(v.as_object().unwrap().len(), 2, "{body}");
    }

    // Folding the damaged store must degrade the same way.
    let (status, _, body) = http(addr, "POST", "/v1/fold", Some(r#"{"trace":"bad.mps"}"#));
    assert_eq!(status, 502, "{body}");

    // The service took the hit gracefully: still serving.
    let (status, _, _) = http(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let (status, _, body) = http(addr, "POST", "/v1/query", Some(r#"{"trace":"hpcg.mps","limit":1}"#));
    assert_eq!(status, 200, "{body}");

    handle.shutdown();
    handle.join();
}

#[test]
fn overload_is_429_and_the_slot_recovers() {
    let handle = launch(1, 1, 30_000);
    let addr = handle.addr();

    // Occupy the only slot: connect and send nothing. Admission
    // happens at accept, so the slot is taken the moment the server
    // accepts, even though no request bytes ever arrive.
    let hog = TcpStream::connect(addr).unwrap();
    // Give the accept loop time to take the slot.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut saw_429 = false;
    while std::time::Instant::now() < deadline {
        let (status, _, body) = http(addr, "GET", "/healthz", None);
        if status == 429 {
            assert!(body.contains("in-flight"), "{body}");
            saw_429 = true;
            break;
        }
        // The hog's accept may not have happened yet; retry.
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(saw_429, "never saw a 429 while the only slot was hogged");

    // Release the slot; the server must recover.
    drop(hog);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut recovered = false;
    while std::time::Instant::now() < deadline {
        let (status, _, _) = http(addr, "GET", "/healthz", None);
        if status == 200 {
            recovered = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(recovered, "slot never freed after the hogging client left");

    handle.shutdown();
    handle.join();
}

#[test]
fn expired_deadline_is_503() {
    // Deterministic deadline test: drive the router directly with an
    // already-expired per-request budget (the socket layer adds
    // nothing to this path).
    use mempersp::server::http::Request;
    use mempersp::server::router::{handle, App};

    let app = App::new(repo(), Some(std::time::Duration::ZERO), 4).unwrap();
    let req = Request {
        method: "POST".into(),
        path: "/v1/query".into(),
        query_string: String::new(),
        headers: Vec::new(),
        body: br#"{"trace":"hpcg.mps"}"#.to_vec(),
    };
    let (_, resp) = handle(&app, &req);
    assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
    assert!(String::from_utf8_lossy(&resp.body).contains("deadline"));

    let fold = Request {
        method: "POST".into(),
        path: "/v1/fold".into(),
        query_string: String::new(),
        headers: Vec::new(),
        body: br#"{"trace":"hpcg.mps"}"#.to_vec(),
    };
    let (_, resp) = handle(&app, &fold);
    assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));

    // Deadlines that expire somewhere *inside* the scan: sweep the
    // budget from nothing to twice an unhurried scan. Wherever it
    // lands, the answer is the whole page or the error, never a part.
    let unhurried = App::new(repo(), None, 4).unwrap();
    let started = std::time::Instant::now();
    let (_, whole) = handle(&unhurried, &req);
    let scan = started.elapsed();
    assert_eq!(whole.status, 200);
    let whole = String::from_utf8(whole.body).unwrap();
    let mut timed_out = 0;
    for step in 0..=80u32 {
        let app = App::new(repo(), Some(scan * step / 40), 4).unwrap();
        let (_, resp) = handle(&app, &req);
        let body = String::from_utf8(resp.body).unwrap();
        match resp.status {
            200 => {
                assert_eq!(events_text(&body), events_text(&whole), "budget {step}/40 of a scan")
            }
            503 => {
                let v = serde_json::from_str(&body).unwrap();
                assert!(v.get("error").is_some() && v.as_object().unwrap().len() == 1, "{body}");
                timed_out += 1;
            }
            other => panic!("budget {step}/40 of a scan answered {other}: {body}"),
        }
    }
    assert!(timed_out > 0, "a zero budget must time out");
}

#[test]
fn unknown_endpoints_and_bad_input_over_the_wire() {
    let handle = launch(8, 2, 30_000);
    let addr = handle.addr();

    let (status, _, _) = http(addr, "GET", "/v2/everything", None);
    assert_eq!(status, 404);
    let (status, _, _) = http(addr, "DELETE", "/v1/fold", None);
    assert_eq!(status, 405);
    let (status, _, body) = http(addr, "POST", "/v1/query", Some("{oops"));
    assert_eq!(status, 400);
    assert!(body.contains("invalid JSON"), "{body}");
    let (status, _, _) = http(addr, "POST", "/v1/query", Some(r#"{"trace":"nope.mps"}"#));
    assert_eq!(status, 404);

    handle.shutdown();
    handle.join();
}
