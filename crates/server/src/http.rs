//! Minimal, robust HTTP/1.1: a request parser and a
//! chunked/Content-Length responder over plain `Read`/`Write`.
//!
//! The service speaks one request per connection (`Connection: close`
//! on every response) — clients here are analysis scripts and `curl`,
//! not browsers holding keep-alive pools, and one-shot connections
//! make admission control exact: one accepted connection == one
//! in-flight request.
//!
//! Hard limits protect the worker pool from hostile or broken peers:
//! the request head (request line + headers) is capped, the body is
//! capped, and both are enforced *while reading* — a peer streaming an
//! endless header section is cut off at the cap, not buffered.
//!
//! Parse failures are `io::Error`s with `ErrorKind::InvalidData` and a
//! human-readable reason; the router maps them to `400`. Read
//! timeouts surface as `TimedOut`/`WouldBlock` from the socket.

use std::io::{self, IoSlice, Read, Write};

/// Request head cap: request line + all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Request body cap. Query/fold bodies are small JSON; 2 MiB leaves
/// room for huge explicit core lists without letting a peer balloon
/// worker memory.
pub const MAX_BODY_BYTES: usize = 2 * 1024 * 1024;
/// Response bodies above this are sent with chunked transfer encoding
/// (each chunk a bounded write), below it with Content-Length.
pub const CHUNK_THRESHOLD: usize = 64 * 1024;
/// Chunk size of a chunked response.
pub const CHUNK_BYTES: usize = 64 * 1024;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Path with the query string stripped.
    pub path: String,
    /// Raw query string ("" when absent).
    pub query_string: String,
    /// Header names lowercased; values trimmed.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }
}

/// Read and parse one request. Enforces the head/body caps while
/// reading. `Content-Length` bodies only — a request with
/// `Transfer-Encoding` is rejected (the *responder* speaks chunked,
/// the clients this service has don't need to).
pub fn read_request(stream: &mut dyn Read) -> io::Result<Request> {
    let head = read_head(stream)?;
    let text = std::str::from_utf8(&head.bytes[..head.len])
        .map_err(|_| bad("request head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;

    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().ok_or_else(|| bad("malformed request line"))?;
    let version = parts.next().ok_or_else(|| bad("malformed request line"))?;
    if parts.next().is_some() {
        return Err(bad("malformed request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(bad(format!("malformed method {method:?}")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(bad(format!("unsupported protocol version {version:?}")));
    }
    if !target.starts_with('/') {
        return Err(bad(format!("request target must be an absolute path, got {target:?}")));
    }
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank line terminating the head
        }
        let (name, value) = line.split_once(':').ok_or_else(|| bad("malformed header line"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(bad("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let req = Request { method, path, query_string, headers, body: Vec::new() };
    if req.header("transfer-encoding").is_some() {
        return Err(bad("chunked request bodies are not supported; send Content-Length"));
    }
    let content_length = match req.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| bad(format!("malformed Content-Length {v:?}")))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(bad(format!(
            "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }

    let mut body = head.overflow;
    if body.len() > content_length {
        return Err(bad("more body bytes than Content-Length"));
    }
    let mut remaining = content_length - body.len();
    body.reserve(remaining);
    let mut buf = [0u8; 8 * 1024];
    while remaining > 0 {
        let want = remaining.min(buf.len());
        let n = stream.read(&mut buf[..want])?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&buf[..n]);
        remaining -= n;
    }
    Ok(Request { body, ..req })
}

struct Head {
    bytes: Vec<u8>,
    /// Length of the head including the terminating `\r\n\r\n`.
    len: usize,
    /// Bytes read past the head (the start of the body).
    overflow: Vec<u8>,
}

fn read_head(stream: &mut dyn Read) -> io::Result<Head> {
    let mut bytes = Vec::with_capacity(1024);
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            if bytes.is_empty() {
                // Peer connected and closed without sending anything.
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "empty connection"));
            }
            return Err(bad("connection closed before the request head completed"));
        }
        bytes.extend_from_slice(&buf[..n]);
        // Search only the tail (the terminator may straddle reads).
        let start = bytes.len().saturating_sub(n + 3);
        if let Some(at) = find_terminator(&bytes[start..]) {
            let len = start + at + 4;
            let overflow = bytes[len..].to_vec();
            return Ok(Head { bytes, len, overflow });
        }
        if bytes.len() > MAX_HEAD_BYTES {
            return Err(bad(format!(
                "request head exceeds the {MAX_HEAD_BYTES}-byte limit"
            )));
        }
    }
}

fn find_terminator(window: &[u8]) -> Option<usize> {
    window.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers, e.g. `("X-Memo", "hit")`.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers.push((name.to_string(), value.to_string()));
        self
    }
}

pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// `write_all` for a list of buffers: one `write_vectored` call when
/// the peer takes everything, more only after a short write.
fn write_all_vectored(stream: &mut dyn Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0); // drop leading empty buffers
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "failed to write the response"))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Serialize `resp`: Content-Length framing for small bodies, chunked
/// transfer encoding above [`CHUNK_THRESHOLD`]. Returns the total
/// bytes written (head + body + framing). Framing never costs a
/// syscall of its own (the socket keeps Nagle on): a small response is
/// one vectored write, a chunked one is one per chunk — the head rides
/// with the first, the terminator with the last.
pub fn write_response(stream: &mut dyn Write, resp: &Response) -> io::Result<u64> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: close\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type
    );
    for (name, value) in &resp.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    let mut written = 0u64;
    if resp.body.len() > CHUNK_THRESHOLD {
        head.push_str("Transfer-Encoding: chunked\r\n\r\n");
        let last = resp.body.len().div_ceil(CHUNK_BYTES) - 1;
        // What goes out ahead of a chunk: the head, then each earlier
        // chunk's closing CRLF; always followed by the size line.
        let mut lead = head;
        for (i, chunk) in resp.body.chunks(CHUNK_BYTES).enumerate() {
            lead.push_str(&format!("{:x}\r\n", chunk.len()));
            let tail: &[u8] = if i == last { b"\r\n0\r\n\r\n" } else { b"" };
            let mut bufs = [IoSlice::new(lead.as_bytes()), IoSlice::new(chunk), IoSlice::new(tail)];
            write_all_vectored(stream, &mut bufs)?;
            written += (lead.len() + chunk.len() + tail.len()) as u64;
            lead.clear();
            lead.push_str("\r\n");
        }
    } else {
        head.push_str(&format!("Content-Length: {}\r\n\r\n", resp.body.len()));
        let mut bufs = [IoSlice::new(head.as_bytes()), IoSlice::new(&resp.body)];
        write_all_vectored(stream, &mut bufs)?;
        written += head.len() as u64 + resp.body.len() as u64;
    }
    stream.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> io::Result<Request> {
        let mut cursor = raw;
        read_request(&mut cursor)
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let r = parse(raw).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/query");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_a_get_with_query_string() {
        let r = parse(b"GET /v1/traces?refresh=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.path, "/v1/traces");
        assert_eq!(r.query_string, "refresh=1");
        assert!(r.body.is_empty());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let r = parse(b"GET / HTTP/1.1\r\nX-ThInG: v\r\n\r\n").unwrap();
        assert_eq!(r.header("x-thing"), Some("v"));
        assert_eq!(r.header("X-THING"), Some("v"));
    }

    #[test]
    fn head_split_across_reads_is_reassembled() {
        // A reader that returns one byte at a time forces the
        // terminator to straddle read boundaries.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut r = OneByte(b"GET /x HTTP/1.1\r\nA: b\r\n\r\n");
        let req = read_request(&mut r).unwrap();
        assert_eq!(req.path, "/x");
        assert_eq!(req.header("a"), Some("b"));
    }

    #[test]
    fn malformed_requests_error_with_reasons() {
        for (raw, needle) in [
            (&b"FLOOP\r\n\r\n"[..], "request line"),
            (&b"GET /x HTTP/9.9\r\n\r\n"[..], "protocol version"),
            (&b"GET x HTTP/1.1\r\n\r\n"[..], "absolute path"),
            (&b"get /x HTTP/1.1\r\n\r\n"[..], "method"),
            (&b"GET /x HTTP/1.1\r\nbroken line\r\n\r\n"[..], "header"),
            (&b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..], "Content-Length"),
            (&b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..], "chunked"),
            (&b"POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort"[..], "closed mid-body"),
        ] {
            let err = parse(raw).expect_err(&String::from_utf8_lossy(raw));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(needle), "{raw:?}: {err}");
        }
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let mut huge = b"GET /x HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b"X-Pad: 0123456789\r\n".as_slice(), 2000).flatten());
        huge.extend_from_slice(b"\r\n");
        assert!(parse(&huge).unwrap_err().to_string().contains("head exceeds"));

        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(parse(raw.as_bytes()).unwrap_err().to_string().contains("exceeds"));
    }

    #[test]
    fn small_responses_use_content_length() {
        let mut out = Vec::new();
        let n = write_response(&mut out, &Response::json(200, "{\"ok\":true}".into())).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
        assert_eq!(n as usize, text.len());
    }

    #[test]
    fn large_responses_are_chunked_and_reassemble() {
        let body: String = "x".repeat(CHUNK_THRESHOLD + CHUNK_BYTES + 17);
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, body.clone())).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(!text.contains("Content-Length"));
        // De-chunk and compare.
        let payload = text.split("\r\n\r\n").nth(1).unwrap();
        let mut rest = payload;
        let mut got = String::new();
        while let Some((size_line, tail)) = rest.split_once("\r\n") {
            let size = usize::from_str_radix(size_line, 16).unwrap();
            if size == 0 {
                break;
            }
            got.push_str(&tail[..size]);
            rest = &tail[size + 2..];
        }
        assert_eq!(got, body);
    }

    /// A peer that counts calls and takes at most `cap` bytes of each.
    struct Counting {
        bytes: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.cap;
            for buf in bufs {
                let n = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.cap - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn framing_costs_no_write_of_its_own() {
        let small = Response::json(200, "{\"ok\":true}".into()).with_header("X-Memo", "hit");
        // 150 KB (a rendered query page): three chunks, the last short;
        // and a body that ends exactly on a chunk edge.
        let large = Response::json(200, "x".repeat(150_000));
        let edge = Response::json(200, "y".repeat(2 * CHUNK_BYTES));
        for (resp, writes) in [(&small, 1), (&large, 3), (&edge, 2)] {
            // The wire bytes, as an unbounded `Vec` takes them: past
            // the head, a chunked body is `size CRLF chunk CRLF` per
            // chunk and a zero-size terminator.
            let mut want = Vec::new();
            let n = write_response(&mut want, resp).unwrap();
            assert_eq!(n as usize, want.len());
            if resp.body.len() > CHUNK_THRESHOLD {
                let at = want.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
                let mut framed = Vec::new();
                for chunk in resp.body.chunks(CHUNK_BYTES) {
                    framed.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                    framed.extend_from_slice(chunk);
                    framed.extend_from_slice(b"\r\n");
                }
                framed.extend_from_slice(b"0\r\n\r\n");
                assert!(want[at..] == framed[..], "chunk framing changed");
            }

            let mut peer = Counting { bytes: Vec::new(), calls: 0, cap: usize::MAX };
            assert_eq!(write_response(&mut peer, resp).unwrap(), n);
            assert_eq!(peer.calls, writes);
            assert_eq!(peer.bytes, want);

            // Short writes cost more calls, never a byte.
            let mut slow = Counting { bytes: Vec::new(), calls: 0, cap: 1_000 };
            assert_eq!(write_response(&mut slow, resp).unwrap(), n);
            assert!(slow.calls >= want.len().div_ceil(1_000));
            assert_eq!(slow.bytes, want);
        }
        let mut dead = Counting { bytes: Vec::new(), calls: 0, cap: 0 };
        let err = write_response(&mut dead, &small).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn extra_headers_are_emitted() {
        let mut out = Vec::new();
        let resp = Response::json(200, "{}".into()).with_header("X-Memo", "hit");
        write_response(&mut out, &resp).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("X-Memo: hit\r\n"));
    }
}
