//! JSON record schema for trace events, queries and scan stats.
//!
//! This is the wire format shared by `mempersp query --json` and the
//! analysis service's `/v1/query` endpoint: both sides render through
//! [`write_row`], so a CLI record and a server record for the same
//! event are **byte-identical** — tests and CI diff them directly.
//! `write_row` appends a batch row's text straight to the output
//! buffer; [`event_to_json`] builds the same record as a [`Value`]
//! tree and is kept as the slow reference the tests (and the
//! benchmark's render probe) compare against. Key order is fixed and
//! both are deterministic, so equality is textual, not structural.
//!
//! The schema mirrors the text format's `event_record` line: one flat
//! object per event, `cycles`/`core` first, then a `kind` mnemonic
//! (`ENTER`, `EXIT`, `SAMP`, `PEBS`, `ALLOC`, `FREE`, `MUX`, `USER` —
//! the same labels [`EventClass::label`] prints) and the
//! payload-specific fields.

use crate::batch::{Row, RowView};
use crate::events::{EventPayload, TraceEvent};
use crate::objects::ObjectId;
use crate::query::{EventClass, KindMask, Query};
use crate::trace_source::ScanStats;
use serde_json::{json, Value};
use std::fmt::Write as _;

/// `,"<key>":` — every key after `cycles` follows another member.
macro_rules! key {
    ($k:literal) => {
        concat!(",\"", $k, "\":")
    };
}

/// Append one selected batch row to `out` as the flat JSON object of
/// the record schema: the exact bytes of
/// `serde_json::to_string(&event_to_json(e))` for the event the row
/// holds, without building the event or a [`Value`].
pub fn write_row(out: &mut String, row: &Row<'_>) {
    out.push_str("{\"cycles\":");
    push_u64(out, row.cycles);
    field(out, key!("core"), row.core as u64);
    match row.view {
        RowView::Boundary(b) => {
            push_kind(out, if b.enter { EventClass::RegionEnter } else { EventClass::RegionExit });
            field(out, key!("region"), u64::from(b.region().0));
            out.push_str(key!("counters"));
            push_array(out, b.counters().values().iter().copied());
        }
        RowView::Sample(s) => {
            push_kind(out, EventClass::CounterSample);
            field(out, key!("ip"), s.ip().0);
            out.push_str(key!("counters"));
            push_array(out, s.counters().values().iter().copied());
            out.push_str(key!("stack"));
            push_array(out, s.stack().map(|r| u64::from(r.0)));
        }
        RowView::Pebs(p) => {
            let sample = p.sample();
            push_kind(out, EventClass::Pebs);
            field(out, key!("ip"), sample.ip);
            field(out, key!("addr"), sample.addr);
            field(out, key!("size"), u64::from(sample.size));
            out.push_str(if sample.is_store { ",\"op\":\"S\"" } else { ",\"op\":\"L\"" });
            field(out, key!("latency"), u64::from(sample.latency));
            out.push_str(key!("source"));
            push_label(out, sample.source.label());
            out.push_str(if sample.tlb_miss { ",\"tlb_miss\":true" } else { ",\"tlb_miss\":false" });
            out.push_str(key!("object"));
            match p.object() {
                Some(o) => push_u64(out, u64::from(o.0)),
                None => out.push_str("null"),
            }
        }
        RowView::Other(o) => match o.payload() {
            EventPayload::Alloc { base, size, callsite } => {
                push_kind(out, EventClass::Alloc);
                field(out, key!("base"), base);
                field(out, key!("size"), size);
                field(out, key!("callsite"), callsite.0);
            }
            EventPayload::Free { base } => {
                push_kind(out, EventClass::Free);
                field(out, key!("base"), base);
            }
            EventPayload::MuxSwitch { event_index, label } => {
                push_kind(out, EventClass::MuxSwitch);
                field(out, key!("event_index"), event_index as u64);
                out.push_str(key!("label"));
                escape(out, &label);
            }
            EventPayload::User { kind, value } => {
                push_kind(out, EventClass::User);
                field(out, key!("user_kind"), u64::from(kind));
                field(out, key!("value"), value);
            }
            other => unreachable!("{} is not an `OtherRow` class", EventClass::of(&other).label()),
        },
    }
    out.push('}');
}

fn field(out: &mut String, key: &str, v: u64) {
    out.push_str(key);
    push_u64(out, v);
}

fn push_kind(out: &mut String, class: EventClass) {
    out.push_str(key!("kind"));
    push_label(out, class.label());
}

/// A quoted mnemonic that needs no escaping (`PEBS`, `L3`, ...).
fn push_label(out: &mut String, label: &str) {
    out.push('"');
    out.push_str(label);
    out.push('"');
}

fn push_array(out: &mut String, vals: impl Iterator<Item = u64>) {
    out.push('[');
    for (i, v) in vals.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, v);
    }
    out.push(']');
}

/// Decimal digits of `v`, formatted on the stack.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Append `s` as a JSON string literal with the escapes
/// `serde_json::to_string` applies: `\"`, `\\`, `\n`, `\r`, `\t`, and
/// `\u00XX` for the other control characters. Everything else,
/// multi-byte UTF-8 included, is copied through in runs.
fn escape(out: &mut String, s: &str) {
    out.push('"');
    let mut from = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a character boundary.
        out.push_str(&s[from..i]);
        if short.is_empty() {
            write!(out, "\\u{b:04x}").expect("writing to a String");
        } else {
            out.push_str(short);
        }
        from = i + 1;
    }
    out.push_str(&s[from..]);
    out.push('"');
}

/// One event as a flat JSON object: the reference [`write_row`] is
/// tested against.
pub fn event_to_json(e: &TraceEvent) -> Value {
    let mut m: Vec<(String, Value)> = vec![
        ("cycles".into(), json!(e.cycles)),
        ("core".into(), json!(e.core)),
        ("kind".into(), json!(EventClass::of(&e.payload).label())),
    ];
    match &e.payload {
        EventPayload::RegionEnter { region, counters }
        | EventPayload::RegionExit { region, counters } => {
            m.push(("region".into(), json!(region.0)));
            m.push(("counters".into(), counters_json(counters)));
        }
        EventPayload::CounterSample { ip, counters, stack } => {
            m.push(("ip".into(), json!(ip.0)));
            m.push(("counters".into(), counters_json(counters)));
            m.push((
                "stack".into(),
                Value::Array(stack.iter().map(|r| json!(r.0)).collect()),
            ));
        }
        EventPayload::Pebs { sample, object } => {
            m.push(("ip".into(), json!(sample.ip)));
            m.push(("addr".into(), json!(sample.addr)));
            m.push(("size".into(), json!(sample.size)));
            m.push(("op".into(), json!(if sample.is_store { "S" } else { "L" })));
            m.push(("latency".into(), json!(sample.latency)));
            m.push(("source".into(), json!(sample.source.label())));
            m.push(("tlb_miss".into(), json!(sample.tlb_miss)));
            m.push(("object".into(), object.map(|o| json!(o.0)).unwrap_or(Value::Null)));
        }
        EventPayload::Alloc { base, size, callsite } => {
            m.push(("base".into(), json!(*base)));
            m.push(("size".into(), json!(*size)));
            m.push(("callsite".into(), json!(callsite.0)));
        }
        EventPayload::Free { base } => {
            m.push(("base".into(), json!(*base)));
        }
        EventPayload::MuxSwitch { event_index, label } => {
            m.push(("event_index".into(), json!(*event_index)));
            m.push(("label".into(), json!(label.as_str())));
        }
        EventPayload::User { kind, value } => {
            m.push(("user_kind".into(), json!(*kind)));
            m.push(("value".into(), json!(*value)));
        }
    }
    Value::Object(m)
}

fn counters_json(c: &mempersp_pebs::CounterSnapshot) -> Value {
    Value::Array(c.values().iter().map(|v| json!(*v)).collect())
}

/// Scan cost accounting as JSON (field order matches [`ScanStats`]).
pub fn scan_stats_to_json(s: &ScanStats) -> Value {
    json!({
        "events_matched": s.events_matched,
        "events_scanned": s.events_scanned,
        "chunks_decoded": s.chunks_decoded,
        "chunks_skipped": s.chunks_skipped,
        "chunks_cached": s.chunks_cached,
        "chunks_damaged": s.chunks_damaged,
        "payload_bytes_decoded": s.payload_bytes_decoded,
    })
}

/// A [`Query`] as JSON, the inverse of [`query_from_json`].
pub fn query_to_json(q: &Query) -> Value {
    let mut m: Vec<(String, Value)> = Vec::new();
    if let Some((lo, hi)) = q.time {
        m.push(("time".into(), json!([lo, hi])));
    }
    if let Some(cores) = &q.cores {
        m.push(("cores".into(), Value::Array(cores.iter().map(|c| json!(*c)).collect())));
    }
    if q.kinds != KindMask::ALL {
        let labels: Vec<Value> = EventClass::ALL
            .iter()
            .filter(|k| q.kinds.contains(**k))
            .map(|k| json!(k.label()))
            .collect();
        m.push(("kinds".into(), Value::Array(labels)));
    }
    if let Some(o) = q.object {
        m.push(("object".into(), json!(o.0)));
    }
    Value::Object(m)
}

/// Parse a query object. Strict: unknown keys, wrong types and
/// malformed kind labels are errors (the service maps them to `400`).
///
/// Accepted keys, all optional — an empty object is a full scan:
///
/// - `"time": [lo, hi]` — inclusive cycle window
/// - `"cores": [0, 2, ...]`
/// - `"kinds": ["PEBS", "ENTER", ...]` — `event_record` mnemonics
/// - `"object": id` — restricts to PEBS events touching the object;
///   implies `kinds = ["PEBS"]` unless `kinds` is given explicitly
///   (same semantics as `Query::touching_object`)
pub fn query_from_json(v: &Value) -> Result<Query, String> {
    let obj = v.as_object().ok_or("query must be a JSON object")?;
    let mut q = Query::all();
    let mut kinds_given = false;
    for (key, val) in obj {
        match key.as_str() {
            "time" => {
                let arr = val.as_array().ok_or("\"time\" must be [lo, hi]")?;
                if arr.len() != 2 {
                    return Err("\"time\" must be [lo, hi]".into());
                }
                let lo = arr[0].as_u64().ok_or("\"time\" bounds must be non-negative integers")?;
                let hi = arr[1].as_u64().ok_or("\"time\" bounds must be non-negative integers")?;
                if lo > hi {
                    return Err(format!("\"time\" window is inverted: [{lo}, {hi}]"));
                }
                q.time = Some((lo, hi));
            }
            "cores" => {
                let arr = val.as_array().ok_or("\"cores\" must be an array of core indices")?;
                let mut cores = Vec::with_capacity(arr.len());
                for c in arr {
                    let c = c.as_u64().ok_or("\"cores\" entries must be non-negative integers")?;
                    cores.push(usize::try_from(c).map_err(|_| "core index out of range")?);
                }
                q.cores = Some(cores);
            }
            "kinds" => {
                let arr = val.as_array().ok_or("\"kinds\" must be an array of kind labels")?;
                let mut kinds = Vec::with_capacity(arr.len());
                for k in arr {
                    let label = k.as_str().ok_or("\"kinds\" entries must be strings")?;
                    let kind = EventClass::parse(label).ok_or_else(|| {
                        format!(
                            "unknown kind \"{label}\" (expected one of {})",
                            EventClass::ALL.map(EventClass::label).join(", ")
                        )
                    })?;
                    kinds.push(kind);
                }
                q.kinds = KindMask::of(&kinds);
                kinds_given = true;
            }
            "object" => {
                let id = val.as_u64().ok_or("\"object\" must be a non-negative integer id")?;
                let id = u32::try_from(id).map_err(|_| "\"object\" id out of range")?;
                q.object = Some(ObjectId(id));
            }
            other => {
                return Err(format!(
                    "unknown query key \"{other}\" (expected time, cores, kinds, object)"
                ));
            }
        }
    }
    if q.object.is_some() && !kinds_given {
        q.kinds = KindMask::of(&[EventClass::Pebs]);
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RegionId;
    use crate::source::Ip;
    use mempersp_memsim::MemLevel;
    use mempersp_pebs::{CounterSnapshot, PebsSample};

    fn ev(payload: EventPayload) -> TraceEvent {
        TraceEvent { cycles: 123, core: 1, payload }
    }

    /// `e` through the production path: transposed, then written.
    fn written(e: &TraceEvent) -> String {
        let mut t = crate::batch::Transposer::default();
        t.push(e);
        let mut out = String::new();
        for row in t.batch().rows() {
            write_row(&mut out, &row);
        }
        out
    }

    #[test]
    fn every_payload_serializes_with_its_mnemonic() {
        let c = CounterSnapshot::from_values([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let cases: Vec<(EventPayload, &str)> = vec![
            (EventPayload::RegionEnter { region: RegionId(3), counters: c }, "ENTER"),
            (EventPayload::RegionExit { region: RegionId(3), counters: c }, "EXIT"),
            (
                EventPayload::CounterSample {
                    ip: Ip(77),
                    counters: c,
                    stack: vec![RegionId(1), RegionId(2)],
                },
                "SAMP",
            ),
            (
                EventPayload::Pebs {
                    sample: PebsSample {
                        timestamp: 123,
                        core: 1,
                        ip: 5,
                        addr: 4096,
                        size: 8,
                        is_store: true,
                        latency: 40,
                        source: MemLevel::Dram,
                        tlb_miss: true,
                    },
                    object: Some(ObjectId(9)),
                },
                "PEBS",
            ),
            (EventPayload::Alloc { base: 100, size: 64, callsite: Ip(5) }, "ALLOC"),
            (EventPayload::Free { base: 100 }, "FREE"),
            (EventPayload::MuxSwitch { event_index: 2, label: "stores".into() }, "MUX"),
            (EventPayload::User { kind: 7, value: 42 }, "USER"),
        ];
        for (payload, label) in cases {
            let e = ev(payload);
            let v = event_to_json(&e);
            assert_eq!(v["kind"], *label);
            assert_eq!(v["cycles"].as_u64(), Some(123));
            assert_eq!(v["core"].as_u64(), Some(1));
            // Every record must survive a text round trip unchanged.
            let text = serde_json::to_string(&v).unwrap();
            assert_eq!(serde_json::from_str(&text).unwrap(), v);
            assert_eq!(written(&e), text, "{label}");
        }
    }

    /// The writer against the reference at the edges of every field.
    #[test]
    fn writer_matches_the_reference_at_the_edges() {
        let max = CounterSnapshot::from_values([u64::MAX; 12]);
        let pebs = |object| EventPayload::Pebs {
            sample: PebsSample {
                timestamp: u64::MAX,
                core: u32::MAX as usize,
                ip: u64::MAX,
                addr: u64::MAX,
                size: u32::MAX,
                is_store: false,
                latency: u32::MAX,
                source: MemLevel::L1,
                tlb_miss: false,
            },
            object,
        };
        let mux = |label: &str| EventPayload::MuxSwitch { event_index: usize::MAX, label: label.into() };
        let payloads = vec![
            EventPayload::RegionEnter { region: RegionId(u32::MAX), counters: max },
            EventPayload::RegionExit { region: RegionId(0), counters: CounterSnapshot::default() },
            EventPayload::CounterSample { ip: Ip(u64::MAX), counters: max, stack: vec![] },
            EventPayload::CounterSample {
                ip: Ip(0),
                counters: max,
                stack: (0..64).map(|d| RegionId(u32::MAX - d)).collect(),
            },
            pebs(None),
            pebs(Some(ObjectId(0))),
            pebs(Some(ObjectId(u32::MAX))),
            EventPayload::Alloc { base: u64::MAX, size: u64::MAX, callsite: Ip(u64::MAX) },
            EventPayload::Free { base: 0 },
            mux(""),
            mux("say \"hi\" \\ back\\slash"),
            mux("line\nfeed\rreturn\ttab\u{0}nul\u{1}\u{8}\u{c}\u{1f}\u{7f}"),
            mux("stores — ω 日本 😀 \u{80}\u{7ff}\u{800}\u{ffff}\u{10ffff}"),
            mux("\"\\\n"),
            EventPayload::User { kind: u32::MAX, value: u64::MAX },
        ];
        for payload in payloads {
            let e = TraceEvent { cycles: u64::MAX, core: u32::MAX as usize, payload };
            assert_eq!(written(&e), serde_json::to_string(&event_to_json(&e)).unwrap());
        }
        let zero = TraceEvent { cycles: 0, core: 0, payload: EventPayload::User { kind: 0, value: 0 } };
        assert_eq!(written(&zero), r#"{"cycles":0,"core":0,"kind":"USER","user_kind":0,"value":0}"#);
    }

    #[test]
    fn pebs_fields_match_the_text_record() {
        let sample = PebsSample {
            timestamp: 123,
            core: 1,
            ip: 5,
            addr: 4096,
            size: 8,
            is_store: false,
            latency: 40,
            source: MemLevel::L3,
            tlb_miss: false,
        };
        let v = event_to_json(&ev(EventPayload::Pebs { sample, object: None }));
        assert_eq!(v["op"], "L");
        assert_eq!(v["source"], "L3");
        assert_eq!(v["tlb_miss"], false);
        assert!(v["object"].is_null());
    }

    #[test]
    fn query_round_trips_through_json() {
        let q = Query::all()
            .in_time(10, 500)
            .on_cores(&[0, 2])
            .with_kinds(&[EventClass::Pebs, EventClass::User]);
        let v = query_to_json(&q);
        assert_eq!(query_from_json(&v).unwrap(), q);
        // Full scan round-trips through the empty object.
        assert_eq!(query_from_json(&query_to_json(&Query::all())).unwrap(), Query::all());
    }

    #[test]
    fn object_implies_pebs_unless_kinds_given() {
        let v = serde_json::from_str(r#"{"object": 4}"#).unwrap();
        let q = query_from_json(&v).unwrap();
        assert_eq!(q.object, Some(ObjectId(4)));
        assert_eq!(q.kinds, KindMask::of(&[EventClass::Pebs]));

        let v = serde_json::from_str(r#"{"object": 4, "kinds": ["PEBS", "ALLOC"]}"#).unwrap();
        let q = query_from_json(&v).unwrap();
        assert_eq!(q.kinds, KindMask::of(&[EventClass::Pebs, EventClass::Alloc]));
    }

    #[test]
    fn malformed_queries_are_rejected_with_reasons() {
        for (body, needle) in [
            (r#"[1,2]"#, "must be a JSON object"),
            (r#"{"time": [5]}"#, "[lo, hi]"),
            (r#"{"time": [9, 2]}"#, "inverted"),
            (r#"{"time": [-1, 2]}"#, "non-negative"),
            (r#"{"cores": 3}"#, "array"),
            (r#"{"kinds": ["NOPE"]}"#, "unknown kind"),
            (r#"{"object": "x"}"#, "integer"),
            (r#"{"bogus": 1}"#, "unknown query key"),
        ] {
            let v = serde_json::from_str(body).unwrap();
            let err = query_from_json(&v).expect_err(body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn scan_stats_serialize_every_field() {
        let s = ScanStats {
            events_matched: 1,
            events_scanned: 2,
            chunks_decoded: 3,
            chunks_skipped: 4,
            chunks_cached: 5,
            chunks_damaged: 6,
            payload_bytes_decoded: 7,
        };
        let v = scan_stats_to_json(&s);
        assert_eq!(v["events_matched"].as_u64(), Some(1));
        assert_eq!(v["chunks_damaged"].as_u64(), Some(6));
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            r#"{"events_matched":1,"events_scanned":2,"chunks_decoded":3,"chunks_skipped":4,"chunks_cached":5,"chunks_damaged":6,"payload_bytes_decoded":7}"#
        );
    }
}
