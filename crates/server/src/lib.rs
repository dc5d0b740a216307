//! # mempersp-server — the resident trace-analysis service
//!
//! A long-running, multi-tenant HTTP/1.1 + JSON server over a
//! repository of `.mps` stores, built on `std::net` alone (the HTTP
//! layer is hand-rolled in [`http`]; there is deliberately no web
//! framework in the dependency tree).
//!
//! Why a service at all: the CLI pays the full open-parse-scan cost
//! per invocation. A resident server opens each store once, keeps the
//! sharded block cache warm across requests and across *clients*, and
//! memoizes finished fold results — so the interactive loop of an
//! analysis session (query, refine, fold, compare) stops re-paying
//! cold-start on every step.
//!
//! Operational shape:
//!
//! * **bounded worker pool** ([`worker`]) sized by `--workers`;
//! * **admission control** at accept time: more than `--max-inflight`
//!   concurrent requests → immediate `429`, the overloaded service
//!   degrades by refusing, never by stalling or dying;
//! * **deadlines**: `--timeout-ms` arms a [`mempersp_store::CancelToken`]
//!   per request, checked at chunk boundaries inside the scan loops →
//!   `503` instead of a runaway scan;
//! * **graceful shutdown**: SIGTERM or `POST /admin/shutdown` stops
//!   accepting, drains in-flight requests, then exits.
//!
//! See [`router`] for the endpoint table and status-code contract.

pub mod http;
pub mod metrics;
pub mod repo;
pub mod router;
pub mod worker;

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use router::App;

/// How long a worker waits for a peer to produce its request bytes
/// before answering `408`. Protects the pool from slow-loris peers.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll interval for the drain loop, the SIGTERM bridge, and the
/// accept loop's error backoff.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Upper bound on the shutdown drain; in-flight requests still
/// running after this are abandoned (their sockets die with the
/// process).
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Server configuration (the `mempersp serve` flags).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Trace repository directory.
    pub root: PathBuf,
    /// Bind address, e.g. `127.0.0.1:7230` (port 0 = ephemeral).
    pub addr: String,
    /// Maximum concurrent requests before `429`.
    pub max_inflight: usize,
    /// Per-request deadline in milliseconds; 0 disables it.
    pub timeout_ms: u64,
    /// Worker threads; 0 = one per available CPU.
    pub workers: usize,
    /// Maximum memoized fold bodies.
    pub memo_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            root: PathBuf::from("."),
            addr: "127.0.0.1:7230".to_string(),
            max_inflight: 64,
            timeout_ms: 30_000,
            workers: 0,
            memo_cap: 64,
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    }

    fn timeout(&self) -> Option<Duration> {
        (self.timeout_ms > 0).then(|| Duration::from_millis(self.timeout_ms))
    }
}

/// A running server. Dropping the handle does NOT stop the service;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    app: Arc<App>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared application state (tests read metrics through this).
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// Ask the accept loop to drain and exit.
    pub fn shutdown(&self) {
        self.app.request_shutdown();
    }

    /// Wait for the accept loop (and its workers) to finish.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind, spawn the accept loop + worker pool, and return immediately.
pub fn start(cfg: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let app = Arc::new(App::new(&cfg.root, cfg.timeout(), cfg.memo_cap)?);
    app.set_wake_addr(addr);
    let accept_app = Arc::clone(&app);
    let cfg = cfg.clone();
    let accept_thread = std::thread::Builder::new()
        .name("mempersp-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_app, &cfg))?;
    Ok(ServerHandle { addr, app, accept_thread: Some(accept_thread) })
}

fn bind(addr: &str) -> io::Result<TcpListener> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad --addr {addr:?}: {e}")))?
        .collect();
    TcpListener::bind(&addrs[..])
}

fn accept_loop(listener: &TcpListener, app: &Arc<App>, cfg: &ServerConfig) {
    // Blocking accept: zero added latency on the hot path. Shutdown
    // (admin endpoint, SIGTERM bridge, handle) flips the flag and then
    // pokes the listener with a loopback connect, so the loop never
    // sits in accept() past a shutdown request.
    let pool = worker::Pool::new(cfg.effective_workers());
    let max_inflight = cfg.max_inflight.max(1) as u64;

    while !app.shutdown.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                // Transient accept failure (ECONNABORTED, fd pressure);
                // back off briefly instead of spinning.
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        };
        // The shutdown wake-connection (and anything racing it) is
        // dropped unanswered.
        if app.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Admission control happens HERE, before any bytes are read:
        // over the cap the connection is answered 429 on the accept
        // thread and closed. The worker queue can therefore never hold
        // more than max_inflight jobs.
        if !app.metrics.try_enter(max_inflight) {
            reject_overloaded(stream, app);
            continue;
        }
        let app = Arc::clone(app);
        pool.execute(move || {
            serve_connection(stream, &app);
            app.metrics.exit();
        });
    }

    // Drain: stop accepting, let in-flight requests finish.
    let drain_start = Instant::now();
    while app.metrics.inflight() > 0 && drain_start.elapsed() < DRAIN_LIMIT {
        std::thread::sleep(POLL_INTERVAL);
    }
    pool.join();
}

fn reject_overloaded(mut stream: TcpStream, app: &Arc<App>) {
    app.metrics.record_rejected();
    let resp = http::Response::json(
        429,
        serde_json::to_string(&serde_json::json!({
            "error": "server is at its in-flight request limit, retry later"
        }))
        .unwrap(),
    )
    .with_header("Retry-After", "1");
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = http::write_response(&mut stream, &resp);
    close_gracefully(stream);
}

/// Close a connection whose request may not have been read in full: a
/// plain close (or `Shutdown::Both`) would RST the moment the peer's
/// remaining request bytes arrive, and an RST can destroy a response
/// that is still in the peer's receive buffer. Half-close the write
/// side instead and drain a bounded amount of the request, so the peer
/// gets to finish writing and then sees a clean EOF after the response.
fn close_gracefully(mut stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while let Ok(n) = stream.read(&mut sink) {
        if n == 0 {
            break;
        }
        drained += n;
        if drained > 64 * 1024 {
            break;
        }
    }
}

/// Serve exactly one request on `stream` and close it.
fn serve_connection(mut stream: TcpStream, app: &Arc<App>) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let start = Instant::now();

    let (endpoint, resp) = match http::read_request(&mut stream) {
        Ok(req) => router::handle(app, &req),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            // Peer connected and hung up without a request; nothing to
            // answer, nothing to record.
            return;
        }
        Err(e) if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) => (
            "(read)",
            http::Response::json(
                408,
                serde_json::to_string(&serde_json::json!({
                    "error": "timed out waiting for the request"
                }))
                .unwrap(),
            ),
        ),
        Err(e) => (
            "(parse)",
            http::Response::json(
                400,
                serde_json::to_string(&serde_json::json!({ "error": e.to_string() })).unwrap(),
            ),
        ),
    };

    let bytes = http::write_response(&mut stream, &resp).unwrap_or(0);
    let _ = stream.flush();
    // The request's latency ends with its last response byte: how long
    // the peer then takes to close its socket is not the service's time.
    app.metrics.record(endpoint, resp.status, start.elapsed(), bytes);
    // Error responses can be written before the request was consumed in
    // full (parse failures, oversized bodies); see close_gracefully.
    close_gracefully(stream);
}

// ---- blocking front-end (the `mempersp serve` verb) ----------------

/// Set by the SIGTERM handler; polled by [`serve_blocking`]'s accept
/// loop through the shared shutdown flag bridge below.
static SIGTERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    SIGTERM.store(true, Ordering::Release);
}

fn install_sigterm_handler() {
    // Vendored-only build: no libc crate, so bind signal(2) directly.
    // SIG_ERR is ignored — worst case the handler is not installed and
    // SIGTERM keeps its default (terminate), which is still correct,
    // just not graceful.
    #[cfg(unix)]
    {
        const SIGTERM_NO: i32 = 15;
        const SIGINT_NO: i32 = 2;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let handler = on_sigterm as *const () as usize;
        unsafe {
            signal(SIGTERM_NO, handler);
            signal(SIGINT_NO, handler);
        }
    }
}

/// Run the service in the foreground until SIGTERM/SIGINT or
/// `POST /admin/shutdown`. Prints the bound address on stdout (so
/// scripts driving `--addr 127.0.0.1:0` learn the real port).
pub fn serve_blocking(cfg: &ServerConfig) -> io::Result<()> {
    install_sigterm_handler();
    let handle = start(cfg)?;
    println!("mempersp-server listening on http://{}", handle.addr());
    println!(
        "repository: {} | workers: {} | max-inflight: {} | timeout: {}",
        cfg.root.display(),
        cfg.effective_workers(),
        cfg.max_inflight.max(1),
        match cfg.timeout() {
            Some(t) => format!("{}ms", t.as_millis()),
            None => "off".to_string(),
        }
    );
    io::stdout().flush().ok();

    // Bridge the signal flag into the app's shutdown flag.
    while !handle.app().shutdown.load(Ordering::Acquire) {
        if SIGTERM.load(Ordering::Acquire) {
            handle.shutdown();
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    handle.join();
    println!("mempersp-server drained, exiting");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn tmp_repo(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mempersp-srv-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let status: u16 = raw.split(' ').nth(1).unwrap().parse().unwrap();
        let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn starts_serves_and_shuts_down() {
        let root = tmp_repo("basic");
        let cfg = ServerConfig {
            root: root.clone(),
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerConfig::default()
        };
        let handle = start(&cfg).unwrap();
        let addr = handle.addr();
        assert_ne!(addr.port(), 0, "ephemeral port must be resolved");

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"status\":\"ok\"}");

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        // Shut down via the admin endpoint and verify the loop exits.
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200"));
        handle.join();

        // The listener is gone: new connections are refused (or reset).
        assert!(TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT race can still let connect succeed; a read
            // must then fail or return EOF immediately.
            true
        });
        std::fs::remove_dir_all(&root).ok();
    }

    /// A client that reads its answer and then sits on the open socket
    /// must not have that wait counted as request latency.
    #[test]
    fn latency_excludes_the_peers_time_to_close() {
        let root = tmp_repo("linger");
        let cfg = ServerConfig {
            root: root.clone(),
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        };
        let handle = start(&cfg).unwrap();
        let linger = Duration::from_millis(300);

        let mut s = TcpStream::connect(handle.addr()).unwrap();
        write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        // The server half-closes after the response, so this returns
        // while our side of the connection is still open.
        s.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        std::thread::sleep(linger);
        drop(s);

        // The worker releases its slot only once the peer has closed
        // (or the drain timed out), i.e. after the linger.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.app().metrics.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL_INTERVAL);
        }
        assert_eq!(handle.app().metrics.request_count("/healthz", 200), 1);
        let text = handle.app().metrics.render(
            handle.app().started,
            handle.app().repo.cache_stats(),
            &handle.app().memo,
        );
        let sum: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("mempersp_request_latency_seconds_sum{endpoint=\"/healthz\"} "))
            .expect("latency sum for /healthz")
            .parse()
            .unwrap();
        assert!(sum < linger.as_secs_f64() / 2.0, "latency {sum}s includes the client's linger");

        handle.shutdown();
        handle.join();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn malformed_request_line_gets_400() {
        let root = tmp_repo("malformed");
        let cfg = ServerConfig {
            root: root.clone(),
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        };
        let handle = start(&cfg).unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        write!(s, "gibberish\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        handle.shutdown();
        handle.join();
        std::fs::remove_dir_all(&root).ok();
    }
}
