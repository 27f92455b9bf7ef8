//! Minimal HTTP/1.1 over `std::net`: enough for XML-RPC POSTs and bucket
//! GETs, nothing more.
//!
//! Connections are persistent on both sides. The server answers any number
//! of requests per connection (HTTP/1.1 keep-alive), honouring a client's
//! `Connection: close`; the client keeps a process-wide pool of open
//! connections keyed by authority and transparently retries once on a
//! stale pooled connection (one the server closed while it sat idle).
//! Persistent connections matter here for the same reason they matter in
//! any shuffle: a job issues O(tasks × partitions) bucket fetches and
//! O(tasks) control RPCs, and paying a TCP handshake for each turns the
//! data plane into a connection churn benchmark. With pooling, the number
//! of sockets is O(peers).
//!
//! The server counts payload bytes, requests, and *connections accepted* —
//! the last is the measurement hook for the keep-alive ablation (A4): with
//! pooling on, connections stay flat as request count grows.
//!
//! The server is thread-per-connection, and that is load-bearing for the
//! control plane: a handler may block — the long-poll `get_task` parks
//! its handler thread on the master's dispatch condvar until work appears
//! — and requests on other connections are still served concurrently.
//! Handlers must release well inside the client's I/O timeout
//! ([`IO_TIMEOUT`], 10s) or the held request reads as a dead server.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Absolute path, e.g. `/RPC2`.
    pub path: String,
    /// Request body (empty for GET).
    pub body: Vec<u8>,
}

/// A response body: either owned bytes or a shared reference-counted
/// buffer. The `Shared` arm is the zero-copy serve path — a cached
/// shuffle frame is handed to the socket writer without cloning, so N
/// readers of one bucket cost one serialization and zero re-copies.
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response.
    Vec(Vec<u8>),
    /// Bytes shared with a cache (and possibly other in-flight responses).
    Shared(Arc<[u8]>),
}

impl Body {
    /// The body bytes, wherever they live.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Vec(v) => v,
            Body::Shared(s) => s,
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the body is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Convert into owned bytes (copies only the `Shared` arm).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Body::Vec(v) => v,
            Body::Shared(s) => s.to_vec(),
        }
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Self {
        Body::Vec(v)
    }
}

impl From<Arc<[u8]>> for Body {
    fn from(s: Arc<[u8]>) -> Self {
        Body::Shared(s)
    }
}

/// An HTTP response to send.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 404, 500, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// A 200 response.
    pub fn ok(content_type: &str, body: impl Into<Body>) -> Self {
        Response { status: 200, content_type: content_type.into(), body: body.into() }
    }

    /// An error response with a plain-text body.
    pub fn error(status: u16, msg: &str) -> Self {
        Response {
            status,
            content_type: "text/plain".into(),
            body: Body::Vec(msg.as_bytes().to_vec()),
        }
    }
}

/// Handler invoked for each request.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Keep connections open between requests (HTTP/1.1 default). When
    /// false every response carries `Connection: close` — the pre-overhaul
    /// behaviour, kept for the keep-alive ablation.
    pub keep_alive: bool,
    /// Close the connection (without warning) after this many requests;
    /// 0 means unlimited. A nonzero value makes pooled client connections
    /// go stale deterministically, which is how the failover tests force
    /// the retry path.
    pub max_requests_per_connection: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { keep_alive: true, max_requests_per_connection: 0 }
    }
}

/// A running HTTP server.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    bytes_served: Arc<AtomicU64>,
    requests: Arc<AtomicU64>,
    connections: Arc<AtomicU64>,
    /// Live connection sockets; shut down hard on drop so no thread keeps
    /// serving this handler after the server object is gone.
    live: Arc<Mutex<Vec<TcpStream>>>,
}

const IO_TIMEOUT: Duration = Duration::from_secs(10);

impl HttpServer {
    /// Bind to `127.0.0.1:port` (0 = ephemeral) and start serving with
    /// default options (keep-alive on).
    pub fn bind(port: u16, handler: Handler) -> std::io::Result<HttpServer> {
        Self::bind_with(port, handler, ServerOptions::default())
    }

    /// [`HttpServer::bind`] with explicit [`ServerOptions`].
    pub fn bind_with(
        port: u16,
        handler: Handler,
        options: ServerOptions,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let bytes_served = Arc::new(AtomicU64::new(0));
        let requests = Arc::new(AtomicU64::new(0));
        let connections = Arc::new(AtomicU64::new(0));
        let live = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let bytes_served = Arc::clone(&bytes_served);
            let requests = Arc::clone(&requests);
            let connections = Arc::clone(&connections);
            let live = Arc::clone(&live);
            std::thread::Builder::new().name(format!("http-{}", addr.port())).spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Large responses are written as header + body segments;
                    // with Nagle on, the trailing segment waits out the
                    // peer's delayed ACK (~40 ms) — per-RPC poison for the
                    // long-poll control plane's round-trip latency.
                    let _ = stream.set_nodelay(true);
                    connections.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        let mut reg = live.lock().unwrap_or_else(|e| e.into_inner());
                        // Opportunistically drop entries whose connection
                        // thread already finished, keeping the registry
                        // proportional to live peers.
                        reg.retain(|s: &TcpStream| s.take_error().is_ok() && s.peer_addr().is_ok());
                        reg.push(clone);
                    }
                    let handler = Arc::clone(&handler);
                    let bytes_served = Arc::clone(&bytes_served);
                    let requests = Arc::clone(&requests);
                    std::thread::spawn(move || {
                        let _ =
                            serve_connection(&stream, &handler, &bytes_served, &requests, options);
                        // The registry above holds a duplicate fd, so merely
                        // dropping `stream` would not send FIN; shut the
                        // socket down so the peer sees the close promptly.
                        let _ = stream.shutdown(Shutdown::Both);
                    });
                }
            })?
        };
        Ok(HttpServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            bytes_served,
            requests,
            connections,
            live,
        })
    }

    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `host:port` string for building URLs.
    pub fn authority(&self) -> String {
        format!("{}", self.addr)
    }

    /// Total response-body bytes served so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served.load(Ordering::Relaxed)
    }

    /// Total requests handled so far.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Total TCP connections accepted so far. With keep-alive this grows
    /// with the number of *peers*, not the number of requests.
    pub fn connection_count(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the listener so `incoming()` returns and observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Hard-close persistent connections so their threads stop serving
        // this handler (otherwise a pooled client could keep talking to a
        // "dropped" server until the idle timeout).
        let live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        for s in live.iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

fn serve_connection(
    stream: &TcpStream,
    handler: &Handler,
    bytes_served: &AtomicU64,
    requests: &AtomicU64,
    options: ServerOptions,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut served = 0usize;
    loop {
        let Some((req, client_closes)) = read_request(&mut reader)? else {
            return Ok(()); // peer closed (or went idle past the timeout)
        };
        requests.fetch_add(1, Ordering::Relaxed);
        let resp = handler(req);
        bytes_served.fetch_add(resp.body.len() as u64, Ordering::Relaxed);
        served += 1;
        let keep = options.keep_alive && !client_closes;
        let budget_exhausted = options.max_requests_per_connection != 0
            && served >= options.max_requests_per_connection;
        // When the per-connection request budget runs out, close *without*
        // advertising it: the pooled client only discovers the connection
        // is stale on its next request, which is exactly the failover path
        // the tests need to exercise deterministically.
        write_response(stream, &resp, keep)?;
        if !keep || budget_exhausted {
            return Ok(());
        }
    }
}

/// Read one request. Returns `None` on a clean EOF before a request line.
/// The boolean is true when the client asked for `Connection: close` (or
/// spoke HTTP/1.0 without opting in to keep-alive).
fn read_request<R: BufRead>(reader: &mut R) -> std::io::Result<Option<(Request, bool)>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_owned(), p.to_owned()),
        _ => return Err(std::io::Error::other(format!("bad request line {line:?}"))),
    };
    let http10 = parts.next() == Some("HTTP/1.0");
    let mut content_length = 0usize;
    let mut connection = String::new();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|e| std::io::Error::other(format!("bad content-length: {e}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let closes = connection.contains("close") || (http10 && !connection.contains("keep-alive"));
    Ok(Some((Request { method, path, body }, closes)))
}

fn write_response(
    mut stream: &TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        500 => "Internal Server Error",
        _ => "Status",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        resp.status,
        reason,
        resp.content_type,
        resp.body.len(),
        connection,
    );
    write_message(&mut stream, head, resp.body.as_slice())
}

/// Bodies up to this size are copied behind the head so the whole message
/// leaves in one `write`: with `TCP_NODELAY`, head and body written apart
/// are two segments and two reader wake-ups per message. Control RPCs and
/// small buckets fit; larger bodies (shuffle frames shared with the
/// cache) are written in place instead of copied.
const COALESCE_MAX: usize = 16 * 1024;

/// Write one HTTP message (request or response) and flush it.
fn write_message<W: Write>(out: &mut W, head: String, body: &[u8]) -> std::io::Result<()> {
    if body.len() <= COALESCE_MAX {
        let mut message = head.into_bytes();
        message.extend_from_slice(body);
        out.write_all(&message)?;
    } else {
        out.write_all(head.as_bytes())?;
        out.write_all(body)?;
    }
    out.flush()
}

/// How many idle connections the pool keeps per authority. More than the
/// worst-case fan-in of one slave is wasted sockets.
const POOL_PER_AUTHORITY: usize = 4;

/// Process-wide pool of persistent client connections, keyed by
/// `host:port`. All [`HttpClient`] traffic flows through it, so the
/// control channel (every `get_task` poll) and the data plane (every
/// bucket fetch) reuse the same few sockets per peer.
struct ConnectionPool {
    idle: Mutex<HashMap<String, Vec<TcpStream>>>,
    opened: AtomicU64,
    reused: AtomicU64,
}

impl ConnectionPool {
    fn global() -> &'static ConnectionPool {
        static POOL: OnceLock<ConnectionPool> = OnceLock::new();
        POOL.get_or_init(|| ConnectionPool {
            idle: Mutex::new(HashMap::new()),
            opened: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        })
    }

    fn checkout(&self, authority: &str) -> Option<TcpStream> {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        let conn = idle.get_mut(authority)?.pop();
        if conn.is_some() {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
        conn
    }

    fn checkin(&self, authority: &str, conn: TcpStream) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        let slot = idle.entry(authority.to_owned()).or_default();
        if slot.len() < POOL_PER_AUTHORITY {
            slot.push(conn);
        }
        // else: drop, closing the socket.
    }

    fn dial(&self, authority: &str) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(authority)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        self.opened.fetch_add(1, Ordering::Relaxed);
        Ok(stream)
    }
}

/// Blocking HTTP client. Stateless to callers; connections persist in the
/// process-wide pool behind the scenes.
pub struct HttpClient;

impl HttpClient {
    /// Issue a request and return `(status, body)`.
    ///
    /// A request on a pooled connection that fails (the server closed it
    /// while idle, or it died with the server) is retried exactly once on
    /// a freshly dialled connection. Fresh-connection failures propagate:
    /// those are real errors, not staleness.
    pub fn request(
        authority: &str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let pool = ConnectionPool::global();
        if let Some(conn) = pool.checkout(authority) {
            if let Ok(result) = Self::request_on(&conn, authority, method, path, body) {
                return Self::finish(pool, authority, conn, result);
            }
            // Stale pooled connection: fall through to a fresh dial.
        }
        let conn = pool.dial(authority)?;
        let result = Self::request_on(&conn, authority, method, path, body)?;
        Self::finish(pool, authority, conn, result)
    }

    fn finish(
        pool: &ConnectionPool,
        authority: &str,
        conn: TcpStream,
        (status, body, reusable): (u16, Vec<u8>, bool),
    ) -> std::io::Result<(u16, Vec<u8>)> {
        if reusable {
            pool.checkin(authority, conn);
        }
        Ok((status, body))
    }

    /// One request/response exchange on an open connection. The extra
    /// boolean says whether the server agreed to keep the connection open.
    fn request_on(
        mut conn: &TcpStream,
        authority: &str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>, bool)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        write_message(&mut conn, head, body)?;

        // A fresh BufReader per request is safe: the server sends exactly
        // one response per request, and we consume it fully below, so no
        // buffered bytes are lost when the reader is dropped.
        let mut reader = BufReader::new(conn);
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        if status_line.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before response",
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {status_line:?}")))?;
        let mut content_length: Option<usize> = None;
        let mut keep_alive = status_line.starts_with("HTTP/1.1");
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                break;
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = !value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = Vec::new();
        match content_length {
            Some(n) => {
                body.resize(n, 0);
                reader.read_exact(&mut body)?;
            }
            None => {
                // Without a length the body runs to EOF, which also means
                // the connection cannot be reused.
                keep_alive = false;
                reader.read_to_end(&mut body)?;
            }
        }
        Ok((status, body, keep_alive))
    }

    /// GET a path.
    pub fn get(authority: &str, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        Self::request(authority, "GET", path, &[])
    }

    /// POST a body.
    pub fn post(authority: &str, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        Self::request(authority, "POST", path, body)
    }

    /// `(connections opened, requests served by a reused connection)` for
    /// the process-wide pool. Counters are cumulative; callers interested
    /// in one job take deltas.
    pub fn pool_stats() -> (u64, u64) {
        let pool = ConnectionPool::global();
        (pool.opened.load(Ordering::Relaxed), pool.reused.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        echo_server_with(ServerOptions::default())
    }

    fn echo_server_with(options: ServerOptions) -> HttpServer {
        HttpServer::bind_with(
            0,
            Arc::new(|req: Request| {
                if req.path == "/missing" {
                    Response::error(404, "nope")
                } else {
                    let mut body = format!("{} {} ", req.method, req.path).into_bytes();
                    body.extend_from_slice(&req.body);
                    Response::ok("text/plain", body)
                }
            }),
            options,
        )
        .unwrap()
    }

    #[test]
    fn get_roundtrip() {
        let server = echo_server();
        let (status, body) = HttpClient::get(&server.authority(), "/hello").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"GET /hello ");
    }

    #[test]
    fn post_roundtrip_with_binary_body() {
        let server = echo_server();
        let payload = vec![0u8, 1, 2, 253, 254, 255];
        let (status, body) = HttpClient::post(&server.authority(), "/p", &payload).unwrap();
        assert_eq!(status, 200);
        assert_eq!(&body[b"POST /p ".len()..], payload.as_slice());
    }

    #[test]
    fn not_found_status_propagates() {
        let server = echo_server();
        let (status, body) = HttpClient::get(&server.authority(), "/missing").unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, b"nope");
    }

    #[test]
    fn concurrent_requests_are_served() {
        let server = echo_server();
        let authority = server.authority();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let authority = authority.clone();
                std::thread::spawn(move || {
                    let (status, body) = HttpClient::get(&authority, &format!("/r{i}")).unwrap();
                    assert_eq!(status, 200);
                    assert_eq!(body, format!("GET /r{i} ").into_bytes());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.request_count(), 8);
    }

    #[test]
    fn byte_counter_tracks_payloads() {
        let server = echo_server();
        let before = server.bytes_served();
        let (_, body) = HttpClient::get(&server.authority(), "/x").unwrap();
        assert_eq!(server.bytes_served() - before, body.len() as u64);
    }

    #[test]
    fn server_shuts_down_cleanly() {
        let server = echo_server();
        let authority = server.authority();
        drop(server);
        // After drop the port no longer accepts requests (give the OS a moment).
        std::thread::sleep(Duration::from_millis(50));
        let r = HttpClient::get(&authority, "/x");
        assert!(r.is_err() || r.unwrap().0 != 200);
    }

    #[test]
    fn large_body_roundtrips() {
        let server = echo_server();
        let payload = vec![7u8; 1 << 20];
        let (status, body) = HttpClient::post(&server.authority(), "/big", &payload).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.len(), payload.len() + b"POST /big ".len());
    }

    #[test]
    fn sequential_requests_reuse_one_connection() {
        let server = echo_server();
        let authority = server.authority();
        const N: u64 = 12;
        for i in 0..N {
            let (status, _) = HttpClient::get(&authority, &format!("/seq{i}")).unwrap();
            assert_eq!(status, 200);
        }
        assert_eq!(server.request_count(), N);
        // All N requests came from this single (serial) client: one TCP
        // connection, reused throughout.
        assert_eq!(server.connection_count(), 1, "keep-alive should reuse the connection");
    }

    #[test]
    fn keep_alive_disabled_opens_one_connection_per_request() {
        let server =
            echo_server_with(ServerOptions { keep_alive: false, ..ServerOptions::default() });
        let authority = server.authority();
        const N: u64 = 5;
        for _ in 0..N {
            HttpClient::get(&authority, "/x").unwrap();
        }
        assert_eq!(server.connection_count(), N);
    }

    #[test]
    fn stale_pooled_connection_fails_over_to_a_fresh_dial() {
        // The server hangs up after every 2nd request on a connection; the
        // pooled client must notice mid-stream and transparently redial.
        let server =
            echo_server_with(ServerOptions { keep_alive: true, max_requests_per_connection: 2 });
        let authority = server.authority();
        for i in 0..10 {
            let (status, body) = HttpClient::get(&authority, &format!("/f{i}")).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("GET /f{i} ").into_bytes());
        }
        assert_eq!(server.request_count(), 10);
        assert!(server.connection_count() >= 5, "2-request budget forces at least 5 connections");
    }

    #[test]
    fn explicit_connection_close_is_honored() {
        let server = echo_server();
        let authority = server.authority();
        // Hand-rolled HTTP/1.1 request asking to close: the server must
        // not leave the connection half-open.
        let mut conn = TcpStream::connect(&authority).unwrap();
        conn.write_all(b"GET /bye HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut resp = Vec::new();
        conn.read_to_end(&mut resp).unwrap(); // EOF proves the server closed
        let text = String::from_utf8_lossy(&resp);
        assert!(text.contains("200 OK"));
        assert!(text.to_lowercase().contains("connection: close"));
    }

    /// Counts `write` calls and keeps what was written.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn small_message_leaves_in_one_write_large_body_is_not_copied() {
        let head = || "POST /RPC2 HTTP/1.1\r\n\r\n".to_owned();
        let mut small = CountingWriter::default();
        let body = vec![b'x'; COALESCE_MAX];
        write_message(&mut small, head(), &body).unwrap();
        assert_eq!(small.writes, 1, "head and body must share one write");
        assert_eq!(small.bytes, [head().as_bytes(), &body[..]].concat());

        let mut large = CountingWriter::default();
        let body = vec![b'y'; COALESCE_MAX + 1];
        write_message(&mut large, head(), &body).unwrap();
        assert_eq!(large.writes, 2, "a large body is written in place after the head");
        assert_eq!(large.bytes, [head().as_bytes(), &body[..]].concat());
    }

    #[test]
    fn pool_stats_reflect_reuse() {
        let server = echo_server();
        let authority = server.authority();
        let (o0, r0) = HttpClient::pool_stats();
        for _ in 0..6 {
            HttpClient::get(&authority, "/s").unwrap();
        }
        let (o1, r1) = HttpClient::pool_stats();
        // This client dialled once and reused five times (other tests may
        // add to the counters concurrently, so compare deltas loosely).
        assert!(o1 - o0 >= 1);
        assert!(r1 - r0 >= 5, "expected >=5 reuses, got {}", r1 - r0);
    }
}
