//! Endpoint dispatch and handlers.
//!
//! | method | path              | purpose                                   |
//! |--------|-------------------|-------------------------------------------|
//! | GET    | `/healthz`        | liveness                                  |
//! | GET    | `/metrics`        | Prometheus-style text exposition          |
//! | GET    | `/v1/traces`      | enumerate the repository, with metadata   |
//! | POST   | `/v1/query`       | predicate-pushdown event scan, paginated  |
//! | POST   | `/v1/fold`        | multi-region folding, memoized            |
//! | POST   | `/admin/shutdown` | graceful drain                            |
//!
//! Status mapping is uniform: invalid input `400`, unknown trace
//! `404`, wrong method `405`, overload `429` (decided at accept time,
//! not here), deadline `503`, corrupt store `502` with an fsck-style
//! damage summary, anything else `500`. Error bodies are always
//! `{"error": ...}` JSON.
//!
//! Fold responses are memoized by content digest: a fold's result for
//! a given (trace identity, region set, config) is immutable — stores
//! are write-once and the engine is deterministic at any thread count
//! — so the finished body is kept as an `Arc<String>` in a one-shard
//! [`ShardedCache`] keyed by the request digest, LRU-bounded by
//! `--memo-cap` (many-region bodies reach megabytes). A repeat fold is
//! answered from the memo with the *byte-identical* body and an
//! `X-Memo: hit` header (the hit marker lives in a header precisely
//! so memoization can never change a body). A fold body carries the
//! performance panel alone, so the fold behind it is the
//! performance-only projection and its `"stats"` count only what that
//! fold read. Query and fold answers say where their time went the
//! same way: `Server-Timing: scan;dur=<ms>, render;dur=<ms>`.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mempersp_extrae::json::{query_from_json, query_to_json, scan_stats_to_json, write_row};
use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::Query;
use mempersp_folding::{
    fold_performance_source, fold_request_digest, FitModel, FoldError, FoldedRegion,
    FoldingConfig, Fnv64, RegionRequest,
};
use mempersp_store::{CancelToken, MpsSource, ShardedCache};
use serde_json::{json, to_string, Value};

use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::repo::{trace_identity, CancellableSource, TraceRepo};

/// Hard cap on folding worker threads a client may request.
pub const MAX_FOLD_THREADS: usize = 16;
/// Hard cap on performance-series points a client may request.
pub const MAX_FOLD_POINTS: usize = 4096;
/// Default performance-series resolution.
pub const DEFAULT_FOLD_POINTS: usize = 64;

/// Everything the handlers share. One per server, behind an `Arc`.
pub struct App {
    pub repo: TraceRepo,
    pub metrics: Metrics,
    /// Finished fold bodies by request digest.
    pub memo: ShardedCache<Arc<String>>,
    /// Per-request deadline; `None` disables it.
    pub timeout: Option<Duration>,
    /// Set by `/admin/shutdown` (and SIGTERM); the accept loop drains
    /// and exits once it flips.
    pub shutdown: Arc<AtomicBool>,
    /// Where a loopback connect can wake a blocking `accept()`; set by
    /// `start` once the listener is bound.
    wake: std::sync::OnceLock<std::net::SocketAddr>,
    pub started: Instant,
}

impl App {
    pub fn new(root: &Path, timeout: Option<Duration>, memo_cap: usize) -> io::Result<App> {
        Ok(App {
            repo: TraceRepo::new(root)?,
            metrics: Metrics::new(),
            memo: ShardedCache::new(1, memo_cap),
            timeout,
            shutdown: Arc::new(AtomicBool::new(false)),
            wake: std::sync::OnceLock::new(),
            started: Instant::now(),
        })
    }

    /// Record the bound address so [`App::request_shutdown`] can wake
    /// the accept loop out of its blocking `accept()`.
    pub fn set_wake_addr(&self, addr: std::net::SocketAddr) {
        let _ = self.wake.set(addr);
    }

    /// Flip the shutdown flag and poke the accept loop with a throwaway
    /// loopback connection so it notices immediately instead of waiting
    /// for the next real client.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(addr) = self.wake.get() {
            let mut addr = *addr;
            if addr.ip().is_unspecified() {
                addr.set_ip(if addr.is_ipv4() {
                    std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
                } else {
                    std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST)
                });
            }
            let _ = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
    }

    fn cancel_token(&self) -> CancelToken {
        match self.timeout {
            Some(t) => CancelToken::with_timeout(t),
            None => CancelToken::new(),
        }
    }
}

fn error_json(status: u16, message: impl std::fmt::Display) -> Response {
    Response::json(status, to_string(&json!({ "error": message.to_string() })).unwrap())
}

/// Map a failed store operation to a response. `damage` carries the
/// store's fsck-style report when the reader is at hand.
fn io_error_response(app: &App, trace: Option<&str>, src: Option<&MpsSource>, e: &io::Error) -> Response {
    match e.kind() {
        io::ErrorKind::InvalidInput => error_json(400, e),
        io::ErrorKind::NotFound => error_json(404, e),
        io::ErrorKind::TimedOut | io::ErrorKind::Interrupted => {
            error_json(503, format!("request deadline exceeded: {e}"))
        }
        io::ErrorKind::InvalidData => {
            // Evict the damaged reader so a repaired/replaced store is
            // reopened fresh on the next request.
            if let Some(name) = trace {
                app.repo.evict(name);
            }
            let damage: Vec<Value> = src
                .map(|s| s.damage_report().into_iter().map(Value::String).collect())
                .unwrap_or_default();
            let body = json!({
                "error": format!("trace store is damaged: {e}"),
                "damage": Value::Array(damage),
            });
            Response::json(502, to_string(&body).unwrap())
        }
        _ => error_json(500, e),
    }
}

/// Dispatch one request. Returns the endpoint label (a static string
/// for metrics) and the response.
pub fn handle(app: &App, req: &Request) -> (&'static str, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("/healthz", handle_healthz()),
        ("GET", "/metrics") => ("/metrics", handle_metrics(app)),
        ("GET", "/v1/traces") => ("/v1/traces", handle_traces(app)),
        ("POST", "/v1/query") => ("/v1/query", handle_query(app, req)),
        ("POST", "/v1/fold") => ("/v1/fold", handle_fold(app, req)),
        ("POST", "/admin/shutdown") => ("/admin/shutdown", handle_shutdown(app)),
        (_, "/healthz" | "/metrics" | "/v1/traces" | "/v1/query" | "/v1/fold" | "/admin/shutdown") => {
            ("(method)", error_json(405, format!("method {} not allowed here", req.method)))
        }
        _ => ("(unknown)", error_json(404, format!("no such endpoint {:?}", req.path))),
    }
}

fn handle_healthz() -> Response {
    Response::json(200, to_string(&json!({"status": "ok"})).unwrap())
}

fn handle_metrics(app: &App) -> Response {
    Response::text(200, app.metrics.render(app.started, app.repo.cache_stats(), &app.memo))
}

fn handle_shutdown(app: &App) -> Response {
    app.request_shutdown();
    Response::json(200, to_string(&json!({"status": "draining"})).unwrap())
}

fn handle_traces(app: &App) -> Response {
    let names = match app.repo.list_names() {
        Ok(n) => n,
        Err(e) => return error_json(500, format!("listing repository: {e}")),
    };
    let mut traces = Vec::with_capacity(names.len());
    for name in names {
        // A damaged store must not take the whole listing down; it is
        // reported in place.
        match app.repo.lookup(&name) {
            Ok(src) => {
                let header = src.store_header();
                traces.push(json!({
                    "name": name,
                    "format": TraceSource::format_name(&*src),
                    "format_version": src.format_version(),
                    "num_events": src.num_events(),
                    "num_shards": src.num_shards(),
                    "num_cores": header.meta.num_cores,
                    "freq_mhz": header.meta.freq_mhz,
                    "description": header.meta.description.clone(),
                    "regions": header.region_names.len(),
                }));
            }
            Err(e) => {
                app.repo.evict(&name);
                traces.push(json!({ "name": name, "error": e.to_string() }));
            }
        }
    }
    let count = traces.len();
    let body = json!({ "count": count, "traces": Value::Array(traces) });
    Response::json(200, to_string(&body).unwrap())
}

/// Parse the request body as a JSON object, or answer `400`.
fn parse_object(req: &Request) -> Result<Vec<(String, Value)>, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| error_json(400, "request body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(error_json(400, "request body must be a JSON object"));
    }
    let value = serde_json::from_str(text).map_err(|e| error_json(400, e))?;
    match value.as_object() {
        Some(obj) => Ok(obj.clone()),
        None => Err(error_json(400, "request body must be a JSON object")),
    }
}

fn field_usize(
    val: &Value,
    key: &str,
    range: std::ops::RangeInclusive<usize>,
) -> Result<usize, Response> {
    let n = val
        .as_u64()
        .ok_or_else(|| error_json(400, format!("{key:?} must be a non-negative integer")))?;
    let n = usize::try_from(n)
        .map_err(|_| error_json(400, format!("{key:?} is out of range")))?;
    if !range.contains(&n) {
        return Err(error_json(
            400,
            format!("{key:?} must be between {} and {}", range.start(), range.end()),
        ));
    }
    Ok(n)
}

fn handle_query(app: &App, req: &Request) -> Response {
    let obj = match parse_object(req) {
        Ok(o) => o,
        Err(resp) => return resp,
    };
    let mut trace_name: Option<String> = None;
    let mut query = Query::all();
    let mut limit: Option<usize> = None;
    let mut offset = 0usize;
    for (key, val) in &obj {
        match key.as_str() {
            "trace" => match val.as_str() {
                Some(s) => trace_name = Some(s.to_string()),
                None => return error_json(400, "\"trace\" must be a string"),
            },
            "query" => match query_from_json(val) {
                Ok(q) => query = q,
                Err(msg) => return error_json(400, msg),
            },
            "limit" => match field_usize(val, "limit", 0..=usize::MAX) {
                Ok(n) => limit = Some(n),
                Err(resp) => return resp,
            },
            "offset" => match field_usize(val, "offset", 0..=usize::MAX) {
                Ok(n) => offset = n,
                Err(resp) => return resp,
            },
            other => return error_json(400, format!("unknown query-request key {other:?}")),
        }
    }
    let Some(name) = trace_name else {
        return error_json(400, "missing required key \"trace\"");
    };
    let src = match app.repo.lookup(&name) {
        Ok(s) => s,
        Err(e) => return io_error_response(app, Some(&name), None, &e),
    };

    // The scan hands out only the matches ranked `offset..end` — and
    // decodes payload only for them — while its stats count them all.
    let page = offset..offset.saturating_add(limit.unwrap_or(usize::MAX));
    let mut returned = 0usize;
    let mut events = String::new();
    let mut render = Duration::ZERO;
    let cancel = app.cancel_token();
    let started = Instant::now();
    let scanned = src.scan_batches_cancel(&query, &page, &cancel, &mut |batch| {
        if batch.is_empty() {
            return;
        }
        let t = Instant::now();
        for row in batch.rows() {
            if returned > 0 {
                events.push(',');
            }
            write_row(&mut events, &row);
            returned += 1;
        }
        render += t.elapsed();
    });
    let scan = started.elapsed().saturating_sub(render);
    // A scan that failed part-way (deadline, corrupt chunk) answers
    // with the error alone; the rows rendered so far are dropped.
    let stats = match scanned {
        Ok(s) => s,
        Err(e) => return io_error_response(app, Some(&name), Some(&src), &e),
    };

    let t = Instant::now();
    // Echo the *normalized* query (what actually ran) so clients can
    // diff their intent against the server's interpretation.
    let head = json!({
        "trace": name,
        "query": query_to_json(&query),
        "total_matched": stats.events_matched,
        "offset": offset,
        "limit": match limit { Some(n) => json!(n), None => Value::Null },
        "returned": returned,
    });
    let stats = to_string(&scan_stats_to_json(&stats)).unwrap();
    let mut body = to_string(&head).unwrap();
    body.pop(); // reopen the object: "events" and "stats" follow
    body.reserve(events.len() + stats.len() + 32);
    body.push_str(",\"events\":[");
    body.push_str(&events);
    body.push_str("],\"stats\":");
    body.push_str(&stats);
    body.push('}');
    render += t.elapsed();
    Response::json(200, body).with_header("Server-Timing", &server_timing(scan, render))
}

/// The `Server-Timing` value of a query or fold: time spent producing
/// the result from the store, then time spent rendering it as JSON.
fn server_timing(scan: Duration, render: Duration) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    format!("scan;dur={:.3}, render;dur={:.3}", ms(scan), ms(render))
}

fn fit_from_str(s: &str) -> Result<FitModel, Response> {
    match s {
        "isotonic" => Ok(FitModel::Isotonic),
        "binned_mean" => Ok(FitModel::BinnedMean),
        other => Err(error_json(
            400,
            format!("unknown fit model {other:?}; expected \"isotonic\" or \"binned_mean\""),
        )),
    }
}

fn folded_region_to_json(fr: &FoldedRegion, points: usize) -> Value {
    let counters: Vec<Value> = fr
        .counters
        .iter()
        .map(|c| {
            json!({
                "kind": c.kind.label(),
                "avg_total": c.avg_total,
                "points": c.points,
            })
        })
        .collect();
    let performance: Vec<Value> = fr
        .performance_series(points)
        .iter()
        .map(|p| {
            let per_instruction: Vec<Value> =
                p.per_instruction.iter().map(|v| json!(*v)).collect();
            json!({
                "x": p.x,
                "t_ms": p.t_ms,
                "mips": p.mips,
                "ipc": p.ipc,
                "per_instruction": Value::Array(per_instruction),
            })
        })
        .collect();
    json!({
        "region": fr.region.clone(),
        "instances_used": fr.instances_used,
        "instances_rejected": fr.instances_rejected,
        "avg_duration_cycles": fr.avg_duration_cycles,
        "duration_ms": fr.duration_ms(),
        "freq_mhz": fr.freq_mhz,
        "mean_mips": fr.mean_mips(),
        "counters": Value::Array(counters),
        "performance": Value::Array(performance),
    })
}

/// The `/v1/fold` body: every requested region's performance panel, or
/// its error, in request order, then what the fold read.
fn fold_body(
    name: &str,
    points: usize,
    requests: &[RegionRequest],
    folded: &[Result<FoldedRegion, FoldError>],
    stats: &ScanStats,
) -> String {
    let regions_json: Vec<Value> = requests
        .iter()
        .zip(folded)
        .map(|(req, result)| match result {
            Ok(fr) => folded_region_to_json(fr, points),
            Err(e) => json!({ "region": req.region.clone(), "error": e.to_string() }),
        })
        .collect();
    let body = json!({
        "trace": name,
        "points": points,
        "regions": Value::Array(regions_json),
        "stats": scan_stats_to_json(stats),
    });
    to_string(&body).unwrap()
}

fn handle_fold(app: &App, req: &Request) -> Response {
    let obj = match parse_object(req) {
        Ok(o) => o,
        Err(resp) => return resp,
    };
    let mut trace_name: Option<String> = None;
    let mut regions: Option<Vec<String>> = None;
    let mut cfg = FoldingConfig::default();
    let mut points = DEFAULT_FOLD_POINTS;
    let mut threads = 1usize;
    for (key, val) in &obj {
        match key.as_str() {
            "trace" => match val.as_str() {
                Some(s) => trace_name = Some(s.to_string()),
                None => return error_json(400, "\"trace\" must be a string"),
            },
            "regions" => {
                let Some(arr) = val.as_array() else {
                    return error_json(400, "\"regions\" must be an array of region names");
                };
                let mut names = Vec::with_capacity(arr.len());
                for v in arr {
                    match v.as_str() {
                        Some(s) => names.push(s.to_string()),
                        None => return error_json(400, "\"regions\" must contain only strings"),
                    }
                }
                if names.is_empty() {
                    return error_json(400, "\"regions\" must not be empty");
                }
                regions = Some(names);
            }
            "bins" => match field_usize(val, "bins", 2..=4096) {
                Ok(n) => cfg.bins = n,
                Err(resp) => return resp,
            },
            "min_instances" => match field_usize(val, "min_instances", 1..=usize::MAX) {
                Ok(n) => cfg.min_instances = n,
                Err(resp) => return resp,
            },
            "fit" => match val.as_str() {
                Some(s) => match fit_from_str(s) {
                    Ok(f) => cfg.fit = f,
                    Err(resp) => return resp,
                },
                None => return error_json(400, "\"fit\" must be a string"),
            },
            "points" => match field_usize(val, "points", 2..=MAX_FOLD_POINTS) {
                Ok(n) => points = n,
                Err(resp) => return resp,
            },
            "threads" => match field_usize(val, "threads", 1..=MAX_FOLD_THREADS) {
                Ok(n) => threads = n,
                Err(resp) => return resp,
            },
            other => return error_json(400, format!("unknown fold-request key {other:?}")),
        }
    }
    let Some(name) = trace_name else {
        return error_json(400, "missing required key \"trace\"");
    };
    let src = match app.repo.lookup(&name) {
        Ok(s) => s,
        Err(e) => return io_error_response(app, Some(&name), None, &e),
    };

    // Default region set: every region the trace knows, in header
    // order — mirrors `mempersp fold-multi <trace> all`.
    let region_names = match regions {
        Some(r) => r,
        None => src.store_header().region_names.clone(),
    };
    if region_names.is_empty() {
        return error_json(400, format!("trace {name:?} has no instrumented regions"));
    }
    let requests: Vec<RegionRequest> =
        region_names.iter().map(|r| RegionRequest::with_cfg(r, cfg)).collect();

    // Memo key: trace identity + full request set + series resolution.
    // Thread count is deliberately excluded — the folding engine is
    // deterministic at any thread count, so the body cannot differ.
    let mut key = Fnv64::new();
    key.write_u64(fold_request_digest(&trace_identity(&name, &src), &requests));
    key.write_u64(points as u64);
    let digest = key.finish();
    if let Some(body) = app.memo.get(digest) {
        return Response::json(200, (*body).clone())
            .with_header("X-Memo", "hit")
            .with_header("Server-Timing", &server_timing(Duration::ZERO, Duration::ZERO));
    }

    let cancel = app.cancel_token();
    let mut csrc = CancellableSource::new(&src, &cancel);
    let started = Instant::now();
    // The body renders the performance panel only, so only it is folded.
    let (folded, stats) = match fold_performance_source(&mut csrc, &requests, threads) {
        Ok(r) => r,
        Err(e) => return io_error_response(app, Some(&name), Some(&src), &e),
    };
    let scan = started.elapsed();

    let started = Instant::now();
    let text = Arc::new(fold_body(&name, points, &requests, &folded, &stats));
    app.memo.insert(digest, Arc::clone(&text));
    Response::json(200, (*text).clone())
        .with_header("X-Memo", "miss")
        .with_header("Server-Timing", &server_timing(scan, started.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_folding::fold_regions_source;

    fn app() -> App {
        let dir = std::env::temp_dir().join(format!("mempersp-router-{:p}", &()));
        std::fs::create_dir_all(&dir).unwrap();
        App::new(&dir, None, 8).unwrap()
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query_string: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn healthz_is_ok() {
        let (endpoint, resp) = handle(&app(), &request("GET", "/healthz", ""));
        assert_eq!(endpoint, "/healthz");
        assert_eq!(resp.status, 200);
        assert_eq!(String::from_utf8(resp.body).unwrap(), "{\"status\":\"ok\"}");
    }

    #[test]
    fn unknown_path_is_404_and_wrong_method_is_405() {
        let app = app();
        let (_, resp) = handle(&app, &request("GET", "/nope", ""));
        assert_eq!(resp.status, 404);
        let (_, resp) = handle(&app, &request("DELETE", "/v1/query", ""));
        assert_eq!(resp.status, 405);
        let (_, resp) = handle(&app, &request("POST", "/healthz", ""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn malformed_bodies_are_400_with_reasons() {
        let app = app();
        for (body, needle) in [
            ("", "JSON object"),
            ("{not json", "invalid JSON"),
            ("[1,2]", "JSON object"),
            ("{\"trace\":42}", "must be a string"),
            ("{\"bogus\":1}", "unknown query-request key"),
            ("{}", "missing required key"),
            ("{\"trace\":\"x.mps\",\"limit\":-1}", "non-negative"),
            ("{\"trace\":\"x.mps\",\"query\":{\"flub\":1}}", "unknown query key"),
        ] {
            let (_, resp) = handle(&app, &request("POST", "/v1/query", body));
            assert_eq!(resp.status, 400, "{body}");
            let text = String::from_utf8(resp.body).unwrap();
            assert!(text.contains(needle), "{body}: {text}");
        }
    }

    #[test]
    fn unknown_trace_is_404_and_bad_name_is_400() {
        let app = app();
        let (_, resp) =
            handle(&app, &request("POST", "/v1/query", "{\"trace\":\"ghost.mps\"}"));
        assert_eq!(resp.status, 404);
        let (_, resp) =
            handle(&app, &request("POST", "/v1/fold", "{\"trace\":\"../../etc/x.mps\"}"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn fold_input_validation() {
        let app = app();
        for (body, needle) in [
            ("{\"trace\":\"x.mps\",\"regions\":[]}", "must not be empty"),
            ("{\"trace\":\"x.mps\",\"regions\":[3]}", "only strings"),
            ("{\"trace\":\"x.mps\",\"fit\":\"cubic\"}", "unknown fit model"),
            ("{\"trace\":\"x.mps\",\"points\":1}", "between 2 and"),
            ("{\"trace\":\"x.mps\",\"threads\":9999}", "between 1 and"),
        ] {
            let (_, resp) = handle(&app, &request("POST", "/v1/fold", body));
            assert_eq!(resp.status, 400, "{body}");
            assert!(String::from_utf8(resp.body).unwrap().contains(needle), "{body}");
        }
    }

    #[test]
    fn shutdown_flips_the_flag_and_traces_lists_empty_repo() {
        let app = app();
        assert!(!app.shutdown.load(Ordering::Acquire));
        let (_, resp) = handle(&app, &request("POST", "/admin/shutdown", ""));
        assert_eq!(resp.status, 200);
        assert!(app.shutdown.load(Ordering::Acquire));

        let (_, resp) = handle(&app, &request("GET", "/v1/traces", ""));
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"count\":0"));
    }

    /// A store shaped like an HPCG trace: on two cores, twelve
    /// `CG_iteration`s, each running `ComputeSYMGS_ref` then
    /// `ComputeSPMV_ref` with their own counter rates, sampled by
    /// counter and PEBS samples.
    fn hpcg_like_repo(dir: &Path) {
        use mempersp_extrae::{Tracer, TracerConfig};
        use mempersp_memsim::MemLevel;
        use mempersp_pebs::{CounterSnapshot, PebsSample};

        let mut t = Tracer::new(TracerConfig::default(), 2);
        let ips = [t.location("symgs.cpp", 70, "symgs"), t.location("spmv.cpp", 60, "spmv")];
        let mut counters = [[0u64; 12]; 2];
        let mut now = [0u64; 2];
        for iter in 0..12u64 {
            for core in 0..2 {
                let snap = |c: &[u64; 12]| CounterSnapshot::from_values(*c);
                t.enter(core, "CG_iteration", snap(&counters[core]), now[core]);
                for (phase, region) in ["ComputeSYMGS_ref", "ComputeSPMV_ref"].into_iter().enumerate() {
                    t.enter(core, region, snap(&counters[core]), now[core]);
                    for k in 0..40u64 {
                        let dt = 50 + (iter * 7 + k * 13 + core as u64) % 40;
                        now[core] += dt;
                        for (i, c) in counters[core].iter_mut().enumerate() {
                            *c += dt * (1 + (i as u64 + phase as u64 * 3 + k / 10) % 5);
                        }
                        if k % 3 == 0 {
                            t.record_counter_sample(core, ips[phase], snap(&counters[core]), now[core]);
                        } else {
                            t.record_pebs(PebsSample {
                                timestamp: now[core],
                                core,
                                ip: ips[phase].0,
                                addr: 0x10_0000 + 64 * (iter * 40 + k),
                                size: 8,
                                is_store: k % 4 == 0,
                                latency: (k * 17 % 200) as u32,
                                source: MemLevel::L2,
                                tlb_miss: false,
                            });
                        }
                    }
                    now[core] += 20;
                    t.exit(core, region, snap(&counters[core]), now[core]);
                }
                now[core] += 30;
                t.exit(core, "CG_iteration", snap(&counters[core]), now[core]);
            }
        }
        let trace = t.finish("hpcg-like router test");
        mempersp_store::write_store_chunked(&dir.join("hpcg.mps"), &trace, 4096).unwrap();
    }

    /// `/v1/fold` folds the performance panel only; its body up to the
    /// `"stats"` is the one the full fold renders, for every setting
    /// that changes the fold or its rendering. The stats show that it
    /// read less.
    #[test]
    fn fold_body_equals_the_full_fold_rendered() {
        let dir = std::env::temp_dir().join(format!("mempersp-router-fold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        hpcg_like_repo(&dir);
        let stat = |body: &str, name: &str| {
            serde_json::from_str(body).unwrap()["stats"][name].as_u64().unwrap()
        };
        let fit = FoldingConfig { fit: FitModel::BinnedMean, ..FoldingConfig::default() };
        for (extra, cfg, points, threads) in [
            ("", FoldingConfig::default(), DEFAULT_FOLD_POINTS, 1),
            (",\"bins\":7", FoldingConfig { bins: 7, ..FoldingConfig::default() }, DEFAULT_FOLD_POINTS, 1),
            (",\"fit\":\"binned_mean\"", fit, DEFAULT_FOLD_POINTS, 1),
            (",\"points\":9", FoldingConfig::default(), 9, 1),
            (",\"threads\":2", FoldingConfig::default(), DEFAULT_FOLD_POINTS, 2),
        ] {
            // A fresh app per body: the memo key leaves out the threads.
            let app = App::new(&dir, None, 8).unwrap();
            let body = format!("{{\"trace\":\"hpcg.mps\"{extra}}}");
            let (_, resp) = handle(&app, &request("POST", "/v1/fold", &body));
            assert_eq!(resp.status, 200, "{body}");
            assert!(resp.extra_headers.contains(&("X-Memo".into(), "miss".into())), "{body}");
            let got = String::from_utf8(resp.body).unwrap();

            let mut src = MpsSource::open(&dir.join("hpcg.mps")).unwrap();
            let names = src.store_header().region_names.clone();
            let requests: Vec<RegionRequest> = names.iter().map(|r| RegionRequest::with_cfg(r, cfg)).collect();
            let (folded, stats) = fold_regions_source(&mut src, &requests, threads).unwrap();
            assert!(folded.iter().all(Result::is_ok), "{body}");
            let want = fold_body("hpcg.mps", points, &requests, &folded, &stats);

            let cut = |s: &str| s[..s.find(",\"stats\":").unwrap()].to_string();
            assert_eq!(cut(&got), cut(&want), "{body}");
            assert!(stat(&got, "events_matched") < stat(&want, "events_matched"), "{body}");
            assert!(stat(&got, "payload_bytes_decoded") < stat(&want, "payload_bytes_decoded"), "{body}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_renders_without_traffic() {
        let (_, resp) = handle(&app(), &request("GET", "/metrics", ""));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("mempersp_uptime_seconds"));
        assert!(text.contains("mempersp_fold_memo_entries 0"));
    }
}
