//! The live query/export surface: a hand-rolled, hardened HTTP/1.1
//! server.
//!
//! Six read-only GET endpoints over [`ObservatoryShared`]:
//!
//! | path       | body                                                |
//! |------------|-----------------------------------------------------|
//! | `/healthz` | scheduler liveness + epochs completed (JSON)        |
//! | `/readyz`  | readiness: 200 only when serving clean data (JSON)  |
//! | `/tables`  | latest epoch + cumulative transitions (JSON)        |
//! | `/trends`  | per-epoch series + consecutive deltas (JSON)        |
//! | `/metrics` | service + campaign telemetry (Prometheus text)      |
//! | `/tap`     | live capture-record stream (chunked NDJSON)         |
//!
//! `/tap` is the odd one out: instead of a snapshot body it subscribes
//! a bounded lane on the shared [`RecordBus`] and streams matching
//! records for as long as the client stays connected (`?match=` takes a
//! predicate, `?limit=` caps the line count). It still runs inside the
//! same per-connection thread, counted against `max_connections`, and
//! its writes are bounded by `write_timeout` — a stalled tap client is
//! disconnected, never waited on.
//!
//! [`RecordBus`]: orscope_core::RecordBus
//!
//! Deliberately minimal — `std::net::TcpListener`, a nonblocking accept
//! loop polling the shutdown flag, one short-lived thread per
//! connection, `Connection: close` on every response. No keep-alive, no
//! TLS, no routing table: the whole server is small enough to audit in
//! one sitting, and the repo's no-new-dependencies rule holds.
//!
//! Minimal is not naive, though. An unattended serve must survive the
//! open internet's background radiation, so every connection runs under
//! [`HttpConfig`] limits: a total deadline on reading the request head
//! (slow-loris drip-feeding gets `408` and a counter tick, not a pinned
//! thread), a bounded head size (`431`), a bounded declared body
//! (`413` — every endpoint is a GET), and a concurrent-connection cap
//! (`503` + `Retry-After` instead of unbounded thread spawn). Malformed
//! request lines get `400`, non-GET methods `405` with `Allow: GET`.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use orscope_core::{Infra, TapPredicate, TapSubscriber, DEFAULT_TAP_CAPACITY};
use orscope_json::Wire;

use crate::observatory::ObservatoryShared;

/// Hard limits and timeouts for the serve surface. The defaults suit an
/// unattended long-run; tests shrink them to exercise the rejection
/// paths deterministically.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Per-`read(2)` timeout while collecting the request head.
    pub read_timeout: Duration,
    /// Per-`write(2)` timeout while sending the response.
    pub write_timeout: Duration,
    /// Total wall-clock budget for the *whole* request head. A client
    /// dripping one byte per read-timeout never exhausts a thread: the
    /// head deadline fires and the connection gets `408`.
    pub(crate) head_deadline: Duration,
    /// Largest request head we accept (`431` beyond it); GETs are a few
    /// hundred bytes, so anything near this is garbage or abuse.
    pub(crate) max_head_bytes: usize,
    /// Largest declared `Content-Length` we accept (`413` beyond it).
    /// Every endpoint is a GET, so the default is zero tolerance.
    pub(crate) max_body_bytes: u64,
    /// Concurrent connections served; the accept loop answers `503`
    /// with `Retry-After` beyond this instead of spawning unboundedly.
    pub max_connections: usize,
    /// The `Retry-After` hint (seconds) sent with `503`.
    pub(crate) retry_after_secs: u64,
}

/// How long the accept loop sleeps when idle before re-polling the
/// socket and the shutdown flag, and how long a `/tap` stream waits on
/// its lane before checking for shutdown and the heartbeat.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            head_deadline: Duration::from_secs(5),
            max_head_bytes: 8 * 1024,
            max_body_bytes: 0,
            max_connections: 64,
            retry_after_secs: 1,
        }
    }
}

/// A running HTTP surface.
pub struct HttpHandle {
    addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl HttpHandle {
    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the accept loop to exit (it does so shortly after
    /// [`ObservatoryShared::request_shutdown`]).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Starts serving `shared` on `listener` with default [`HttpConfig`]
/// limits.
///
/// # Errors
///
/// Propagates [`serve_with`] failures.
pub fn serve(listener: TcpListener, shared: Arc<ObservatoryShared>) -> io::Result<HttpHandle> {
    serve_with(listener, shared, HttpConfig::default())
}

/// Starts serving `shared` on `listener` in a background thread with
/// explicit limits. The accept loop runs until shutdown is requested on
/// `shared`.
///
/// # Errors
///
/// Fails if the listener cannot be switched to nonblocking mode (the
/// accept loop doubles as the shutdown poller, so it must not block).
pub fn serve_with(
    listener: TcpListener,
    shared: Arc<ObservatoryShared>,
    config: HttpConfig,
) -> io::Result<HttpHandle> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let thread = thread::spawn(move || accept_loop(&listener, &shared, &config));
    Ok(HttpHandle { addr, thread })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ObservatoryShared>, config: &HttpConfig) {
    let active = Arc::new(AtomicUsize::new(0));
    while !shared.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                if active.load(Ordering::SeqCst) >= config.max_connections {
                    // Over the cap: turn the connection away cheaply on
                    // a transient thread so the accept loop never
                    // blocks on a slow victim.
                    shared.record_http_rejected();
                    let retry_after = config.retry_after_secs;
                    let write_timeout = config.write_timeout;
                    thread::spawn(move || reject_over_capacity(stream, retry_after, write_timeout));
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let active = active.clone();
                let shared = shared.clone();
                let config = config.clone();
                thread::spawn(move || {
                    let _ = handle_connection(stream, &shared, &config);
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            // Transient accept errors (ECONNABORTED and friends): back
            // off briefly and keep serving.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

fn reject_over_capacity(mut stream: TcpStream, retry_after_secs: u64, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let body = b"{\"error\":\"too many connections\"}\n";
    let head = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nRetry-After: {retry_after_secs}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body));
    lingering_close(&mut stream, write_timeout);
}

/// Closes a connection whose request we did not fully read. Closing
/// with unread bytes queued makes the kernel send `RST`, which can
/// destroy the response before the client reads it — so the status code
/// we went to the trouble of sending (`503`, `431`, ...) would never
/// arrive. Shut down our write side first, then drain (bounded) what
/// the client is still sending, and only then let the socket drop.
fn lingering_close(stream: &mut TcpStream, timeout: Duration) {
    const DRAIN_LIMIT: usize = 64 * 1024;
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(timeout));
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    while drained < DRAIN_LIMIT {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// How reading a request head failed.
enum HeadError {
    /// The client dribbled past the head deadline (or a read timed
    /// out): slow loris.
    TimedOut,
    /// The head outgrew the limit.
    TooLarge,
    /// Not decodable as a request head at all.
    Malformed,
    /// The connection died; nothing to answer.
    Gone,
}

fn handle_connection(
    mut stream: TcpStream,
    shared: &ObservatoryShared,
    config: &HttpConfig,
) -> io::Result<()> {
    // Accepted sockets don't inherit the listener's nonblocking mode on
    // every platform; force blocking-with-timeouts explicitly.
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let head = match read_head(&mut stream, config) {
        Ok(head) => head,
        Err(failure) => {
            let (status, body): (&str, &[u8]) = match failure {
                HeadError::TimedOut => {
                    shared.record_http_timeout();
                    (
                        "408 Request Timeout",
                        b"{\"error\":\"request head too slow\"}\n",
                    )
                }
                HeadError::TooLarge => (
                    "431 Request Header Fields Too Large",
                    b"{\"error\":\"request head too large\"}\n",
                ),
                HeadError::Malformed => ("400 Bad Request", b"{\"error\":\"malformed request\"}\n"),
                HeadError::Gone => return Ok(()),
            };
            // The request was never fully read on these paths, so a
            // plain close would RST the response away — linger instead.
            let result = write_response(&mut stream, status, "application/json", "", body);
            lingering_close(&mut stream, config.write_timeout);
            return result;
        }
    };
    shared.record_http_request();
    // `/tap` streams instead of answering with a snapshot body; route
    // it before `respond`. Only a well-formed in-limits GET takes the
    // streaming path — anything else falls through so `respond` can
    // issue the usual 405/413 taxonomy.
    if let Some(query) = tap_query(&head, config) {
        return stream_tap(stream, &query, shared, config);
    }
    let (status, content_type, extra_headers, body) = respond(&head, shared, config);
    let result = write_response(&mut stream, status, content_type, extra_headers, &body);
    // A declared body is never read (every endpoint is a GET), so those
    // connections need the same RST-avoiding linger.
    if declared_body_len(&head).unwrap_or(0) > 0 {
        lingering_close(&mut stream, config.write_timeout);
    }
    result
}

/// Where a request head stands after the bytes read so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// No terminator yet, and the head may still fit.
    Partial,
    /// The head and its blank-line terminator are in, within the limit.
    Complete,
    /// The head, terminator included, cannot fit in the limit.
    TooLarge,
}

/// Appends one read's `bytes` to `head` and frames it: [`Complete`]
/// once the `\r\n\r\n` that ends the head has arrived, with `head` cut
/// right after it (anything read past it is a body no endpoint takes),
/// and [`TooLarge`] as soon as the head up to and including its
/// terminator cannot be `max` bytes or fewer — however the bytes were
/// split into reads. Only the new bytes, and the three before them a
/// terminator may straddle, are searched.
///
/// [`Complete`]: Framing::Complete
/// [`TooLarge`]: Framing::TooLarge
fn frame_head(head: &mut Vec<u8>, bytes: &[u8], max: usize) -> Framing {
    let from = head.len().saturating_sub(3);
    head.extend_from_slice(bytes);
    match head[from..].windows(4).position(|w| w == b"\r\n\r\n") {
        Some(at) if from + at + 4 <= max => {
            head.truncate(from + at + 4);
            Framing::Complete
        }
        Some(_) => Framing::TooLarge,
        None if head.len() > max => Framing::TooLarge,
        None => Framing::Partial,
    }
}

/// Reads until the end of the request head (we ignore bodies: every
/// endpoint is a GET), under both a per-read timeout and a total
/// deadline.
fn read_head(stream: &mut TcpStream, config: &HttpConfig) -> Result<String, HeadError> {
    let started = Instant::now();
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let remaining = config
            .head_deadline
            .checked_sub(started.elapsed())
            .ok_or(HeadError::TimedOut)?;
        stream
            .set_read_timeout(Some(
                remaining
                    .min(config.read_timeout)
                    .max(Duration::from_millis(1)),
            ))
            .map_err(|_| HeadError::Gone)?;
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                // A per-read timeout inside the deadline just means the
                // client is slow; loop and let the deadline decide.
                if started.elapsed() >= config.head_deadline {
                    return Err(HeadError::TimedOut);
                }
                continue;
            }
            Err(_) => return Err(HeadError::Gone),
        };
        if n == 0 {
            break;
        }
        match frame_head(&mut head, &chunk[..n], config.max_head_bytes) {
            Framing::Partial => {}
            Framing::Complete => break,
            Framing::TooLarge => return Err(HeadError::TooLarge),
        }
    }
    if head.is_empty() {
        return Err(HeadError::Gone);
    }
    String::from_utf8(head).map_err(|_| HeadError::Malformed)
}

/// The declared `Content-Length`, if any header carries one.
fn declared_body_len(head: &str) -> Option<u64> {
    head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })
}

/// If `head` is a well-formed, in-limits `GET /tap` request, returns
/// its raw query string (possibly empty). Everything else returns
/// `None` and takes the ordinary [`respond`] path.
fn tap_query(head: &str, config: &HttpConfig) -> Option<String> {
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" || !target.starts_with('/') {
        return None;
    }
    if declared_body_len(head).is_some_and(|len| len > config.max_body_bytes) {
        return None;
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    (path == "/tap").then(|| query.to_string())
}

/// Decodes `%XX` escapes — two ASCII hex digits and nothing else — and
/// `+`-for-space in a query-string value. Invalid escapes pass through
/// literally — the predicate parser will reject anything that does not
/// make sense.
fn percent_decode(input: &str) -> String {
    let hex = |byte: u8| char::from(byte).to_digit(16);
    let mut out = Vec::with_capacity(input.len());
    let mut rest = input.as_bytes();
    while let [first, tail @ ..] = rest {
        rest = tail;
        out.push(match (first, tail) {
            (b'%', [high, low, after @ ..]) => match (hex(*high), hex(*low)) {
                (Some(high), Some(low)) => {
                    rest = after;
                    (high << 4 | low) as u8
                }
                _ => b'%',
            },
            (b'+', _) => b' ',
            _ => *first,
        });
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses the `/tap` query parameters: `match=` (predicate, default
/// match-all) and `limit=` (stop after N lines, default unbounded).
fn parse_tap_params(query: &str) -> Result<(TapPredicate, Option<u64>), String> {
    let mut predicate = TapPredicate::match_all();
    let mut limit = None;
    for pair in query.split('&').filter(|pair| !pair.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        let value = percent_decode(value);
        match key {
            "match" => {
                predicate = value
                    .parse()
                    .map_err(|err: orscope_core::PredicateError| err.0)?;
            }
            "limit" => {
                limit =
                    Some(value.parse::<u64>().map_err(|_| {
                        format!("limit must be a non-negative integer, got {value:?}")
                    })?);
            }
            other => {
                return Err(format!(
                    "unknown parameter {other:?} (expected match, limit)"
                ))
            }
        }
    }
    Ok((predicate, limit))
}

/// One HTTP/1.1 chunk: hex length, CRLF, payload, CRLF.
fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> io::Result<()> {
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")
}

/// Idle interval after which the tap stream emits a blank NDJSON line.
/// Keeps the stream visibly alive for the client and — more importantly
/// — makes the server notice a vanished client during quiet stretches
/// instead of holding the lane until the next matching record.
const TAP_HEARTBEAT: Duration = Duration::from_secs(5);

/// Serves one `GET /tap` connection: subscribes a bounded lane on the
/// shared bus and streams matching records as chunked NDJSON until the
/// client leaves, the limit is reached, or shutdown is requested.
///
/// The subscriber lane is bounded ([`DEFAULT_TAP_CAPACITY`]) and the
/// publisher never blocks on it, so however slow this connection is,
/// the campaign event loop is unaffected — the lane just drops and
/// counts. Writes here are bounded by `write_timeout`; a stalled client
/// errors out and the lane is reclaimed on the next publish.
fn stream_tap(
    mut stream: TcpStream,
    query: &str,
    shared: &ObservatoryShared,
    config: &HttpConfig,
) -> io::Result<()> {
    let (predicate, limit) = match parse_tap_params(query) {
        Ok(parsed) => parsed,
        Err(message) => {
            // The message echoes user input, so it goes through the
            // encoder's escaping.
            let body = Wire::obj(vec![("error", Wire::from(message))]).encode() + "\n";
            let result = write_response(
                &mut stream,
                "400 Bad Request",
                "application/json",
                "",
                body.as_bytes(),
            );
            lingering_close(&mut stream, config.write_timeout);
            return result;
        }
    };
    let tap = TapSubscriber::attach(
        shared.bus(),
        predicate,
        DEFAULT_TAP_CAPACITY,
        &Infra::default(),
    );
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
          Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    let mut sent = 0u64;
    let mut last_write = Instant::now();
    while !shared.shutdown_requested() && limit.is_none_or(|limit| sent < limit) {
        match tap.poll(POLL_INTERVAL) {
            Some(event) => {
                // One chunk per line: `to_ndjson` has no trailing
                // newline, the NDJSON framing adds it here.
                let mut line = event.to_ndjson();
                line.push('\n');
                write_chunk(&mut stream, line.as_bytes())?;
                last_write = Instant::now();
                sent += 1;
            }
            None if last_write.elapsed() >= TAP_HEARTBEAT => {
                write_chunk(&mut stream, b"\n")?;
                last_write = Instant::now();
            }
            None => {}
        }
    }
    // Terminal chunk: the stream ended on our terms (limit or
    // shutdown), so tell the client the body is complete.
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Routes one request to `(status line, content type, extra headers,
/// body)`.
fn respond(
    head: &str,
    shared: &ObservatoryShared,
    config: &HttpConfig,
) -> (&'static str, &'static str, &'static str, Vec<u8>) {
    const JSON: &str = "application/json";
    const PROM: &str = "text/plain; version=0.0.4";
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    // Strip any query string: `/tap` (with its `match=`/`limit=`
    // parameters) is routed upstream, the snapshot endpoints take no
    // parameters, and `/tables?pretty` should not 404.
    let target = parts.next().unwrap_or("");
    let path = target.split('?').next().unwrap_or("");
    if method.is_empty() || !target.starts_with('/') {
        return (
            "400 Bad Request",
            JSON,
            "",
            b"{\"error\":\"malformed request line\"}\n".to_vec(),
        );
    }
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            JSON,
            "Allow: GET\r\n",
            b"{\"error\":\"only GET is supported\"}\n".to_vec(),
        );
    }
    if declared_body_len(head).is_some_and(|len| len > config.max_body_bytes) {
        return (
            "413 Content Too Large",
            JSON,
            "",
            b"{\"error\":\"GET endpoints take no body\"}\n".to_vec(),
        );
    }
    match path {
        "/healthz" => ("200 OK", JSON, "", shared.healthz_bytes()),
        "/readyz" => {
            let status = if shared.is_ready() {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            (status, JSON, "", shared.readyz_bytes())
        }
        "/tables" => ("200 OK", JSON, "", shared.tables_bytes()),
        "/trends" => ("200 OK", JSON, "", shared.trends_bytes()),
        "/metrics" => ("200 OK", PROM, "", shared.metrics_bytes()),
        "/" => (
            "200 OK",
            JSON,
            "",
            b"{\"endpoints\":[\"/healthz\",\"/readyz\",\"/tables\",\"/trends\",\"/metrics\",\"/tap\"]}\n"
                .to_vec(),
        ),
        _ => (
            "404 Not Found",
            JSON,
            "",
            b"{\"error\":\"unknown path\"}\n".to_vec(),
        ),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n{extra_headers}Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
        )
    }

    #[test]
    fn serves_every_endpoint_then_shuts_down() {
        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(listener, shared.clone()).unwrap();
        let addr = handle.addr();

        let healthz = get(addr, "/healthz");
        assert!(healthz.starts_with("HTTP/1.1 200 OK"), "{healthz}");
        assert!(healthz.contains("epochs_completed"), "{healthz}");

        let tables = get(addr, "/tables?pretty");
        assert!(tables.starts_with("HTTP/1.1 200 OK"), "query string ok");
        assert!(tables.contains("cumulative_transitions"), "{tables}");

        let trends = get(addr, "/trends");
        assert!(trends.contains("\"series\""), "{trends}");

        let metrics = get(addr, "/metrics");
        assert!(
            metrics.contains("orscope_observe_http_requests"),
            "{metrics}"
        );
        assert!(metrics.contains("surface=\"service\""), "{metrics}");

        let index = get(addr, "/");
        assert!(index.contains("/tables"), "{index}");
        assert!(index.contains("/readyz"), "{index}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let post = request(
            addr,
            "POST /tables HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        );
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        assert!(post.contains("Allow: GET"), "{post}");

        shared.request_shutdown();
        handle.join();
    }

    #[test]
    fn content_length_matches_body() {
        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(listener, shared.clone()).unwrap();
        let response = get(handle.addr(), "/healthz");
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(length, body.len());
        shared.request_shutdown();
        handle.join();
    }

    #[test]
    fn readyz_is_unready_until_the_scheduler_says_otherwise() {
        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(listener, shared.clone()).unwrap();
        let addr = handle.addr();

        // Fresh shared state: Starting, not ready — but healthz is a
        // liveness probe and answers 200 regardless.
        let readyz = get(addr, "/readyz");
        assert!(readyz.starts_with("HTTP/1.1 503"), "{readyz}");
        assert!(readyz.contains("\"state\": \"starting\""), "{readyz}");

        shared.set_state(crate::observatory::ServiceState::Ready);
        let readyz = get(addr, "/readyz");
        assert!(readyz.starts_with("HTTP/1.1 200"), "{readyz}");
        assert!(readyz.contains("\"ready\": true"), "{readyz}");

        shared.set_state(crate::observatory::ServiceState::Degraded);
        let readyz = get(addr, "/readyz");
        assert!(readyz.starts_with("HTTP/1.1 503"), "{readyz}");
        assert!(readyz.contains("\"state\": \"degraded\""), "{readyz}");

        shared.request_shutdown();
        handle.join();
    }

    #[test]
    fn oversized_head_gets_431() {
        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = HttpConfig {
            max_head_bytes: 256,
            ..HttpConfig::default()
        };
        let handle = serve_with(listener, shared.clone(), config).unwrap();
        let huge = format!(
            "GET /healthz HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
            "a".repeat(4096)
        );
        let response = request(handle.addr(), &huge);
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");
        shared.request_shutdown();
        handle.join();
    }

    /// A `GET /healthz` head of exactly `len` bytes, terminator included.
    fn head_of(len: usize) -> String {
        let open = "GET /healthz HTTP/1.1\r\nX-Junk: ";
        format!("{open}{}\r\n\r\n", "a".repeat(len - open.len() - 4))
    }

    #[test]
    fn the_head_limit_holds_within_one_read() {
        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = HttpConfig {
            max_head_bytes: 256,
            ..HttpConfig::default()
        };
        let handle = serve_with(listener, shared.clone(), config).unwrap();
        // Terminator and all in the one read that crosses the limit.
        let response = request(handle.addr(), &head_of(730));
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");
        let response = request(handle.addr(), &head_of(257));
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");
        let response = request(handle.addr(), &head_of(256));
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        shared.request_shutdown();
        handle.join();
    }

    /// Frames `bytes` as `read_head` does when they arrive in reads that
    /// end at each of `cuts` and then at the end: the first verdict that
    /// is not [`Framing::Partial`], or `Partial` at end of stream, with
    /// the head it leaves.
    fn frame_reads(bytes: &[u8], cuts: &[usize], max: usize) -> (Framing, Vec<u8>) {
        let mut head = Vec::new();
        let mut start = 0;
        for &end in cuts.iter().chain([&bytes.len()]) {
            let verdict = frame_head(&mut head, &bytes[start..end], max);
            start = end;
            if verdict != Framing::Partial {
                return (verdict, head);
            }
        }
        (Framing::Partial, head)
    }

    #[test]
    fn head_framing_is_total_bounded_and_blind_to_how_reads_split() {
        const ALPHABET: &[u8] = b"\r\n\r\nGET /a:\xff";
        let mut seen = [0u32; 3];
        orscope_check::cases(20_000, |rng| {
            let bytes = match rng.range(0..3) {
                0 => rng.bytes(1..300),
                1 => rng.vec(1..300, |rng| *rng.choice(ALPHABET)),
                _ => {
                    let mut bytes = rng.choice(&HEADS).as_bytes().to_vec();
                    rng.mutate(&mut bytes, ALPHABET);
                    bytes.push(b'x');
                    bytes
                }
            };
            let max = rng.range(0..bytes.len() + 8);
            let mut cuts = rng.vec(0..8, |rng| rng.range(1..bytes.len().max(2)));
            cuts.retain(|&cut| cut < bytes.len());
            cuts.sort_unstable();
            cuts.dedup();
            let whole = frame_reads(&bytes, &[], max);
            let (verdict, head) = frame_reads(&bytes, &cuts, max);
            assert_eq!(verdict, whole.0, "{bytes:?} cut at {cuts:?}, limit {max}");
            if verdict != Framing::TooLarge {
                assert_eq!(head, whole.1, "{bytes:?} cut at {cuts:?}");
                assert!(
                    head.len() <= max,
                    "{} bytes accepted, limit {max}",
                    head.len()
                );
            }
            if verdict == Framing::Complete {
                assert!(head.ends_with(b"\r\n\r\n"));
            }
            seen[verdict as usize] += 1;
        });
        // Every verdict was reached, so every branch was compared.
        assert!(seen.iter().all(|&n| n > 1_000), "{seen:?}");
    }

    #[test]
    fn declared_body_gets_413() {
        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(listener, shared.clone()).unwrap();
        let response = request(
            handle.addr(),
            "GET /tables HTTP/1.1\r\nHost: test\r\nContent-Length: 4096\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        shared.request_shutdown();
        handle.join();
    }

    #[test]
    fn malformed_request_line_gets_400() {
        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(listener, shared.clone()).unwrap();
        let response = request(handle.addr(), "COMPLETE GARBAGE\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        shared.request_shutdown();
        handle.join();
    }

    #[test]
    fn slow_loris_gets_408_and_a_counter_tick() {
        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = HttpConfig {
            head_deadline: Duration::from_millis(150),
            read_timeout: Duration::from_millis(50),
            ..HttpConfig::default()
        };
        let handle = serve_with(listener, shared.clone(), config).unwrap();

        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Send an incomplete head and then just... wait.
        stream.write_all(b"GET /heal").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        let metrics = String::from_utf8(shared.metrics_bytes()).unwrap();
        assert!(
            metrics.contains(r#"orscope_observe_http_timeouts{surface="service",scope="shard"} 1"#),
            "{metrics}"
        );

        shared.request_shutdown();
        handle.join();
    }

    #[test]
    fn tap_streams_matching_records_as_chunked_ndjson() {
        use orscope_core::bus::R2Capture;
        use orscope_netsim::SimTime;

        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(listener, shared.clone()).unwrap();
        let addr = handle.addr();

        // Publish once the tap handler has actually subscribed its
        // lane, so nothing can be lost to startup ordering.
        let publisher = {
            let shared = shared.clone();
            thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(5);
                while shared.bus().stats().subscribers == 0 {
                    assert!(Instant::now() < deadline, "tap never subscribed");
                    thread::sleep(Duration::from_millis(5));
                }
                shared.bus().publish_r2(&R2Capture {
                    target: "198.51.100.7".parse().unwrap(),
                    label: None,
                    qname: "probe.example".parse().unwrap(),
                    at: SimTime::ZERO,
                    sent_at: SimTime::ZERO,
                    payload: b"x".to_vec().into(),
                });
            })
        };

        // `limit=1` ends the stream after the first matching record, so
        // a plain read-to-close sees the whole chunked body.
        let response = get(addr, "/tap?match=qname%3Dprobe.*&limit=1");
        publisher.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            response.contains("Transfer-Encoding: chunked"),
            "{response}"
        );
        assert!(response.contains("\"kind\":\"r2\""), "{response}");
        assert!(response.contains("\"src\":\"198.51.100.7\""), "{response}");
        assert!(
            response.contains("\"qname\":\"probe.example\""),
            "{response}"
        );
        // The terminal chunk closed the body cleanly.
        assert!(response.ends_with("0\r\n\r\n"), "{response}");

        let metrics = String::from_utf8(shared.metrics_bytes()).unwrap();
        assert!(
            metrics.contains("orscope_tap_subscribers_total{surface=\"service\"} 1"),
            "{metrics}"
        );

        shared.request_shutdown();
        handle.join();
    }

    #[test]
    fn tap_rejects_a_bad_predicate_with_400() {
        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = serve(listener, shared.clone()).unwrap();
        let addr = handle.addr();

        let bad_clause = get(addr, "/tap?match=frobnicate%3Dyes");
        assert!(bad_clause.starts_with("HTTP/1.1 400"), "{bad_clause}");

        let bad_limit = get(addr, "/tap?limit=soon");
        assert!(bad_limit.starts_with("HTTP/1.1 400"), "{bad_limit}");

        let bad_param = get(addr, "/tap?matcher=x");
        assert!(bad_param.starts_with("HTTP/1.1 400"), "{bad_param}");

        // A bad predicate must not leave a lane behind.
        assert_eq!(shared.bus().stats().attached_total, 0);

        shared.request_shutdown();
        handle.join();
    }

    #[test]
    fn connection_flood_gets_503_with_retry_after() {
        let shared = ObservatoryShared::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = HttpConfig {
            max_connections: 0, // every connection is over the cap
            retry_after_secs: 7,
            ..HttpConfig::default()
        };
        let handle = serve_with(listener, shared.clone(), config).unwrap();
        let response = get(handle.addr(), "/tables");
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("Retry-After: 7"), "{response}");
        let metrics = String::from_utf8(shared.metrics_bytes()).unwrap();
        assert!(
            metrics.contains(
                r#"orscope_observe_http_rejected_conns{surface="service",scope="shard"} 1"#
            ),
            "{metrics}"
        );
        shared.request_shutdown();
        handle.join();
    }

    #[test]
    fn percent_decode_takes_two_hex_digits_and_nothing_else() {
        for (input, want) in [
            ("%41", "A"),
            ("%4a%4A", "JJ"),
            ("a+b%20c", "a b c"),
            // Not escapes: one digit, no digits, a sign where a digit
            // belongs (`from_str_radix` would take it), nothing at all.
            ("%4", "%4"),
            ("%zz", "%zz"),
            ("%+F", "% F"),
            ("%-1", "%-1"),
            ("+", " "),
            ("%", "%"),
            ("100%", "100%"),
            ("%%41", "%A"),
            // An escape may spell a byte that is not UTF-8.
            ("%ff", "\u{fffd}"),
        ] {
            assert_eq!(percent_decode(input), want, "{input:?}");
        }
    }

    /// Request heads the mutations start from.
    const HEADS: [&str; 4] = [
        "GET /tap?match=rcode%3DNXDomain+class%3Dnxwall&limit=5 HTTP/1.1\r\nHost: a\r\n\r\n",
        "GET /tap HTTP/1.1\r\nHost: a\r\nContent-Length: 0\r\n\r\n",
        "GET /tables HTTP/1.1\r\nConnection: close\r\n\r\n",
        "POST /tap?limit=1 HTTP/1.1\r\ncontent-length : 12\r\n\r\n",
    ];

    #[test]
    fn hostile_heads_and_queries_never_panic() {
        const ALPHABET: &[u8] = b"GET /tap?match=&limit=%+:\r\n 0123456789abcdefXx\xff";
        let config = HttpConfig::default();
        let mut tapped = 0;
        orscope_check::cases(20_000, |rng| {
            let bytes = match rng.range(0..3) {
                0 => rng.bytes(0..200),
                1 => rng.vec(0..200, |rng| *rng.choice(ALPHABET)),
                _ => {
                    let mut bytes = rng.choice(&HEADS).as_bytes().to_vec();
                    rng.mutate(&mut bytes, ALPHABET);
                    bytes
                }
            };
            // `read_head` hands on only what is UTF-8.
            let head = String::from_utf8_lossy(&bytes);
            let _ = declared_body_len(&head);
            let decoded = percent_decode(&head);
            // Lossy UTF-8 replacement is the only expansion.
            assert!(decoded.len() <= 3 * head.len(), "{head:?}");
            let _ = parse_tap_params(&head);
            if let Some(query) = tap_query(&head, &config) {
                let _ = parse_tap_params(&query);
                tapped += 1;
            }
        });
        // The loop reached the query parser, not only the first `None`.
        assert!(tapped > 500, "only {tapped} heads were tap requests");
    }

    #[test]
    fn a_well_formed_tap_request_round_trips_to_its_predicate() {
        let config = HttpConfig::default();
        orscope_check::cases(2_000, |rng| {
            let text = rng
                .vec(0..4, |rng| match rng.range(0..5) {
                    0 => format!("qname=*.{}", rng.choice(&["example.net", "a-b.c", "x_y"])),
                    1 => format!("rcode={}", rng.choice(&["NXDomain", "NoError", "Refused"])),
                    2 => format!("class={}", rng.choice(&["honest", "nxwall", "silent"])),
                    3 => format!("src={}.{}", rng.range(0..=255), rng.range(0..=255)),
                    _ => format!("dst=10.{}.0.0/{}", rng.range(0..=255), rng.range(0..=32)),
                })
                .join(" ");
            let predicate: TapPredicate = text.parse().expect("canonical predicate");
            // Escape every reserved byte, and now and then one that
            // need not be, in either hex case; a space either way.
            let encoded: String = text
                .bytes()
                .map(|byte| match byte {
                    b' ' if rng.bool() => "+".to_string(),
                    b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'.' | b'-' | b'_'
                        if rng.chance(90) =>
                    {
                        char::from(byte).to_string()
                    }
                    _ if rng.bool() => format!("%{byte:02x}"),
                    _ => format!("%{byte:02X}"),
                })
                .collect();
            let limit = rng.next_u64() >> rng.range(0..64);
            let head = match rng.bool() {
                true => {
                    format!("GET /tap?match={encoded}&limit={limit} HTTP/1.1\r\nHost: a\r\n\r\n")
                }
                false => format!("GET /tap?limit={limit}&match={encoded} HTTP/1.1\r\n\r\n"),
            };
            let query = tap_query(&head, &config).expect("a tap request");
            assert_eq!(
                parse_tap_params(&query),
                Ok((predicate, Some(limit))),
                "{head}"
            );
        });
    }
}
