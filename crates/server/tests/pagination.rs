//! `/v1/query` pagination with the page pushed into the scan: a page
//! is byte for byte the window `skip(offset).take(limit)` of the
//! unpaged answer, `total_matched` and `stats.events_matched` stay the
//! full count, and `stats.payload_bytes_decoded` shows that rows
//! outside the page were never decoded.
//!
//! Driven through [`router::handle`], which is everything the socket
//! layer hands a request to. (The service opens stores strict; paging
//! over a salvaged store is `mempersp-store`'s `pages_over_a_damaged_chunk`.)

use std::path::{Path, PathBuf};

use mempersp_extrae::json::{event_to_json, query_from_json};
use mempersp_extrae::{Tracer, TracerConfig};
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, PebsSample};
use mempersp_server::http::Request;
use mempersp_server::router::{handle, App};
use mempersp_store::{write_store_chunked, write_store_sharded, MpsSource};
use serde_json::Value;

/// A repository holding one trace — region boundaries, user events
/// and PEBS samples over three objects on four cores — as `t.mps` and
/// as the four-shard `t.mps.d`, both with 1 KiB chunks.
fn repo() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempersp_srv_page_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut t = Tracer::new(TracerConfig::default(), 4);
    for i in 0..3u64 {
        t.register_static(&format!("array_{i}"), 0x10_0000 * (i + 1), 0x10_0000);
    }
    let c = CounterSnapshot::from_values([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
    for i in 0..20_000u64 {
        let (core, now) = ((i / 5 % 4) as usize, 1_000 + 40 * i);
        match i % 5 {
            0 => {
                t.enter(core, "R", c, now);
            }
            1 => t.exit(core, "R", c, now),
            2 => t.user_event(core, 7, i, now),
            // Two samples in five rows; one address in four resolves
            // to no object.
            _ => t.record_pebs(PebsSample {
                timestamp: now,
                core,
                ip: 0x40_0000 + i % 64,
                addr: 0x10_0000 * (1 + i % 4) + 8 * (i % 1_000),
                size: 8,
                is_store: i % 2 == 0,
                latency: (i % 300) as u32,
                source: MemLevel::L2,
                tlb_miss: false,
            }),
        }
    }
    let trace = t.finish("pagination test");
    write_store_chunked(&dir.join("t.mps"), &trace, 1024).unwrap();
    let per_shard = trace.events.len().div_ceil(4) as u64;
    write_store_sharded(&dir.join("t.mps.d"), &trace, 1024, per_shard).unwrap();
    dir
}

fn post(app: &App, body: &str) -> String {
    let req = Request {
        method: "POST".into(),
        path: "/v1/query".into(),
        query_string: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let (_, resp) = handle(app, &req);
    let text = String::from_utf8(resp.body).unwrap();
    assert_eq!(resp.status, 200, "{body}: {text}");
    text
}

/// The body up to its `stats` member, and the stats.
fn split_stats(body: &str) -> (&str, Value) {
    let at = body.rfind(",\"stats\":").expect("stats close the body");
    let stats = &body[at + ",\"stats\":".len()..body.len() - 1];
    (&body[..at], serde_json::from_str(stats).unwrap())
}

fn stat(stats: &Value, key: &str) -> u64 {
    stats.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("no {key} in {stats:?}"))
}

/// The batch path's answer, one serialized record per match.
fn reference(store: &Path, query_json: &str) -> Vec<String> {
    let q = query_from_json(&serde_json::from_str(query_json).unwrap()).unwrap();
    let (events, _) = MpsSource::open(store).unwrap().query(&q).unwrap();
    events.iter().map(|e| serde_json::to_string(&event_to_json(e)).unwrap()).collect()
}

#[test]
fn pages_are_windows_of_the_unpaged_answer_and_decode_only_themselves() {
    let dir = repo();
    let app = App::new(&dir, None, 4).unwrap();
    for store in ["t.mps", "t.mps.d"] {
        // A window of a third of any answer below spans several chunks.
        let src = MpsSource::open(&dir.join(store)).unwrap();
        let largest = src.shards().flat_map(|(_, r)| r.chunks()).map(|m| m.events as usize).max().unwrap();
        drop(src);
        for (qjson, by_object) in [
            (r#"{}"#, false),
            (r#"{"kinds":["PEBS"],"cores":[1],"time":[20000,600000]}"#, false),
            (r#"{"kinds":["PEBS","USER"]}"#, false),
            (r#"{"object":1}"#, true),
            (r#"{"object":2,"cores":[0,2]}"#, true),
        ] {
            let want = reference(&dir.join(store), qjson);
            let n = want.len();
            assert!(n > 6 * largest, "{store} {qjson}: {n} matches, {largest}-event chunks");
            let whole = post(&app, &format!("{{\"trace\":\"{store}\",\"query\":{qjson}}}"));
            let (_, whole_stats) = split_stats(&whole);
            let full_bytes = stat(&whole_stats, "payload_bytes_decoded");

            // offset, limit: nothing; inside the first chunk; across
            // chunks (and, sharded, across files); over and past the
            // end; everything, said three ways.
            let windows: [(usize, Option<usize>); 10] = [
                (0, Some(0)),
                (1, Some(3)),
                (2, Some(n / 2)),
                (n / 3, Some(n / 3)),
                (n - 2, Some(50)),
                (n, Some(5)),
                (n + 40, None),
                (7, None),
                (0, Some(n)),
                (0, None),
            ];
            for (offset, limit) in windows {
                let window = match limit {
                    Some(l) => format!(",\"offset\":{offset},\"limit\":{l}"),
                    None => format!(",\"offset\":{offset}"),
                };
                let body = post(&app, &format!("{{\"trace\":\"{store}\",\"query\":{qjson}{window}}}"));
                let cut = offset.min(n)..offset.saturating_add(limit.unwrap_or(usize::MAX)).min(n);
                let (head, stats) = split_stats(&body);

                // Everything ahead of `stats`, byte for byte.
                let echo = serde_json::to_string(&mempersp_extrae::json::query_to_json(
                    &query_from_json(&serde_json::from_str(qjson).unwrap()).unwrap(),
                ))
                .unwrap();
                let limit_json = limit.map_or("null".to_string(), |l| l.to_string());
                let expect = format!(
                    "{{\"trace\":\"{store}\",\"query\":{echo},\"total_matched\":{n},\"offset\":{offset},\
                     \"limit\":{limit_json},\"returned\":{},\"events\":[{}]",
                    cut.len(),
                    want[cut.clone()].join(",")
                );
                assert_eq!(head, expect, "{store} {qjson} {window}");

                // The stats account for the whole scan ...
                for key in ["events_matched", "events_scanned", "chunks_skipped", "chunks_damaged"] {
                    assert_eq!(stat(&stats, key), stat(&whole_stats, key), "{key}: {store} {qjson} {window}");
                }
                assert_eq!(stat(&stats, "events_matched"), n as u64);
                // ... and for the payload of the page alone.
                let paid = stat(&stats, "payload_bytes_decoded");
                if by_object || cut.len() == n {
                    assert_eq!(paid, full_bytes, "{store} {qjson} {window}");
                } else {
                    assert!(paid < full_bytes, "{store} {qjson} {window}: {paid} of {full_bytes}");
                    assert_eq!(paid == 0, cut.is_empty(), "{store} {qjson} {window}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
