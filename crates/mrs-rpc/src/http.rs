//! Minimal HTTP/1.1 over `std::net`: enough for XML-RPC POSTs and bucket
//! GETs, nothing more.
//!
//! Connections are persistent on both sides. The server answers any number
//! of requests per connection (HTTP/1.1 keep-alive), honouring a client's
//! `Connection: close`; the client keeps a process-wide pool of open
//! connections keyed by authority and transparently retries once on a
//! stale pooled connection (one the server closed while it sat idle).
//!
//! The client pipelines. Every exchange is a [`Pipelined`] batch: its
//! requests are written back to back in one `write` on one connection
//! (at most 64 ahead of the answers read, so neither side can block
//! writing into a full buffer) and the answers are read in request order
//! through one buffer sized for the batch — plain HTTP/1.1 pipelining,
//! which the server gets for free by answering requests one after another
//! from one buffered reader. A
//! single `get`/`post` is a batch of one and puts the same bytes on the
//! wire as ever. The contract of a batch: answers come back in request
//! order; a request the server never answered (it closed the connection
//! mid-batch, announced or not) is written again on a fresh dial, an
//! answered one never is, so the batch must be idempotent beyond its
//! first request — [`HttpClient::get_many`] only offers GETs; and a
//! connection returns to the pool only when every request written on it
//! has been answered and the last answer kept it alive — a half-drained
//! connection (abandoned batch, error mid-answer) is closed instead.
//! Persistent connections matter here for the same reason they matter in
//! any shuffle: a job issues O(tasks × partitions) bucket fetches and
//! O(tasks) control RPCs, and paying a TCP handshake for each turns the
//! data plane into a connection churn benchmark. With pooling, the number
//! of sockets is O(peers).
//!
//! Every message leaves in one vectored write, head and body together,
//! and a body is read into a buffer that grows only with the bytes that
//! arrive: a `Content-Length` is a peer's claim, not an allocation, and
//! no body is zero-filled before its bytes land.
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
use std::io::{BufRead, BufReader, IoSlice, Read, Write};
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
/// buffer. The `Shared` arm is the zero-copy serve path — a shuffle frame,
/// cached or built for one GET, is handed to the socket writer in the
/// buffer it was written in, so N readers of one bucket cost one
/// serialization and zero re-copies.
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response.
    Vec(Vec<u8>),
    /// Bytes shared with a cache (and possibly other in-flight responses).
    Shared(Arc<Vec<u8>>),
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

    /// Convert into owned bytes (copies only a `Shared` buffer that is
    /// still shared).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Body::Vec(v) => v,
            Body::Shared(s) => Arc::unwrap_or_clone(s),
        }
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Self {
        Body::Vec(v)
    }
}

impl From<Arc<Vec<u8>>> for Body {
    fn from(s: Arc<Vec<u8>>) -> Self {
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
        Self::bind_named("http", port, handler, options)
    }

    /// [`HttpServer::bind_with`], its threads named `{name}-{port}`: the
    /// accept loop and every connection's.
    pub(crate) fn bind_named(
        name: &str,
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
            let name = format!("{name}-{}", addr.port());
            std::thread::Builder::new().name(name.clone()).spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // A response larger than a segment leaves as several;
                    // with Nagle on, the trailing one waits out the peer's
                    // delayed ACK (~40 ms) — per-RPC poison for the
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
                    let connection = move || {
                        let _ =
                            serve_connection(&stream, &handler, &bytes_served, &requests, options);
                        // The registry above holds a duplicate fd, so merely
                        // dropping `stream` would not send FIN; shut the
                        // socket down so the peer sees the close promptly.
                        let _ = stream.shutdown(Shutdown::Both);
                    };
                    std::thread::Builder::new()
                        .name(name.clone())
                        .spawn(connection)
                        .expect("spawn a connection thread");
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
fn read_request<R: Read>(reader: &mut BufReader<R>) -> std::io::Result<Option<(Request, bool)>> {
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
    let (content_length, connection) = read_headers(reader)?;
    let body = read_body(reader, content_length.unwrap_or(0))?;
    let closes = connection.contains("close") || (http10 && !connection.contains("keep-alive"));
    Ok(Some((Request { method, path, body }, closes)))
}

/// Read header lines up to the blank one, for the two headers either side
/// acts on: `(Content-Length, lower-cased Connection value)`.
fn read_headers<R: BufRead>(reader: &mut R) -> std::io::Result<(Option<usize>, String)> {
    let (mut content_length, mut connection) = (None, String::new());
    let mut line = String::new();
    while reader.read_line(&mut line)? != 0 && !line.trim_end().is_empty() {
        if let Some((name, value)) = line.trim_end().split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let length = value.trim().parse();
                content_length = Some(
                    length
                        .map_err(|e| std::io::Error::other(format!("bad content-length: {e}")))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            }
        }
        line.clear();
    }
    Ok((content_length, connection))
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
    write_message(
        &mut stream,
        &mut [IoSlice::new(head.as_bytes()), IoSlice::new(resp.body.as_slice())],
    )
}

/// Write one HTTP message (request or response), or several pipelined
/// ones, as `parts` in order, in one vectored write — one write call
/// where the socket takes it all, never a body copied behind its head —
/// and flush it. With `TCP_NODELAY`, head and body written apart would be
/// two segments and two reader wake-ups per message.
fn write_message<W: Write>(out: &mut W, mut parts: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match out.write_vectored(parts) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    out.flush()
}

/// Most of a body reserved before its bytes arrive; a longer body's
/// buffer grows as they do. The bound is what a claimed `Content-Length`
/// can cost before the peer sends anything.
const BODY_RESERVE: usize = 4 << 20;

/// A body of `n` bytes off `reader`, `n` being what the peer claimed:
/// what the reader holds buffered is copied out, the rest read straight
/// into the body as it arrives. The body is reserved up to
/// [`BODY_RESERVE`], grows only as bytes arrive and is never zero-filled;
/// a body that ends early is an error.
fn read_body<R: Read>(reader: &mut BufReader<R>, n: usize) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(n.min(BODY_RESERVE));
    let buffered = reader.buffer();
    body.extend_from_slice(&buffered[..buffered.len().min(n)]);
    reader.consume(body.len());
    let rest = (n - body.len()) as u64;
    reader.get_mut().take(rest).read_to_end(&mut body)?;
    if body.len() < n {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("body ended after {} of {n} bytes", body.len()),
        ));
    }
    Ok(body)
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
}

impl ConnectionPool {
    fn global() -> &'static ConnectionPool {
        static POOL: OnceLock<ConnectionPool> = OnceLock::new();
        POOL.get_or_init(|| ConnectionPool { idle: Mutex::new(HashMap::new()) })
    }

    fn checkout(&self, authority: &str) -> Option<TcpStream> {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        idle.get_mut(authority)?.pop()
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
        Ok(stream)
    }
}

/// Blocking HTTP client. Stateless to callers; connections persist in the
/// process-wide pool behind the scenes.
pub struct HttpClient;

impl HttpClient {
    /// Issue a request and return `(status, body)` — a [`Pipelined`] batch
    /// of one, with its rule for stale pooled connections.
    pub fn request(
        authority: &str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut out = Vec::with_capacity(1);
        Pipelined::send(authority, method, &[path], body)?.finish(&mut out)?;
        Ok(out.pop().expect("one answer per request"))
    }

    /// GET every path from one peer on one connection, answers in request
    /// order: [`HttpClient::send_gets`], then [`Pipelined::finish`]. An
    /// empty batch touches no socket.
    pub fn get_many(authority: &str, paths: &[&str]) -> std::io::Result<Vec<(u16, Vec<u8>)>> {
        let mut out = Vec::with_capacity(paths.len());
        Self::send_gets(authority, paths)?.finish(&mut out)?;
        Ok(out)
    }

    /// The write half of [`HttpClient::get_many`]: put the batch's request
    /// heads on the wire and return without reading, so a caller with
    /// several peers has every peer working before it waits for any.
    pub fn send_gets<'a>(
        authority: &'a str,
        paths: &'a [&'a str],
    ) -> std::io::Result<Pipelined<'a>> {
        Pipelined::send(authority, "GET", paths, &[])
    }

    /// GET a path.
    pub fn get(authority: &str, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        Self::request(authority, "GET", path, &[])
    }

    /// POST a body.
    pub fn post(authority: &str, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        Self::request(authority, "POST", path, body)
    }
}

/// Most requests written before their answers are read. Bounds the bytes
/// in flight towards the server (64 GET heads are a few KB, well inside a
/// socket buffer), so this side never blocks in `write` while the server
/// blocks writing large frames nobody is reading yet.
const PIPELINE_MAX: usize = 64;

/// Requests in flight on one connection (HTTP/1.1 pipelining): the first
/// `PIPELINE_MAX` of them written back to back in one `write`, answers
/// unread. Dropping it closes the connection — it is half-drained, and
/// only a fully drained connection may go back to the pool.
pub struct Pipelined<'a> {
    authority: &'a str,
    method: &'a str,
    paths: &'a [&'a str],
    /// Sent with every request (empty for GETs).
    body: &'a [u8],
    /// The connection carrying the batch; `None` for an empty batch.
    conn: Option<TcpStream>,
    /// How many of `paths` have their request written on `conn`, and how
    /// many have been answered (on any connection).
    sent: usize,
    answered: usize,
    /// `conn` was dialled for this batch, not taken from the pool.
    fresh: bool,
    /// See [`Pipelined::dials`].
    dials: (u64, u64),
}

impl<'a> Pipelined<'a> {
    /// Write the batch on a pooled connection, or on a fresh dial when
    /// there is none or it refuses the write.
    fn send(
        authority: &'a str,
        method: &'a str,
        paths: &'a [&'a str],
        body: &'a [u8],
    ) -> std::io::Result<Self> {
        let sent = paths.len().min(PIPELINE_MAX);
        let mut batch = Pipelined {
            authority,
            method,
            paths,
            body,
            conn: None,
            sent,
            answered: 0,
            fresh: false,
            dials: (0, 0),
        };
        if !paths.is_empty() {
            let pool = ConnectionPool::global();
            batch.conn = pool.checkout(authority).filter(|c| batch.write_from(c, 0).is_ok());
            batch.dials.1 = batch.conn.is_some() as u64;
            if batch.conn.is_none() {
                let conn = pool.dial(authority)?;
                batch.dials.0 += 1;
                batch.write_from(&conn, 0)?;
                (batch.conn, batch.fresh) = (Some(conn), true);
            }
        }
        Ok(batch)
    }

    /// How the batch reached its peer: `(connections dialled, whether it
    /// started on a pooled one)`, so a caller counts its own traffic.
    pub fn dials(&self) -> (u64, u64) {
        self.dials
    }

    /// Write the next (at most [`PIPELINE_MAX`]) requests, starting at
    /// `paths[from]`, in one vectored write: their heads, each followed by
    /// the body where there is one.
    fn write_from(&self, mut conn: &TcpStream, from: usize) -> std::io::Result<()> {
        let (method, authority, len) = (self.method, self.authority, self.body.len());
        let mut heads = Vec::new();
        let mut ends = Vec::new();
        for path in self.paths[from..].iter().take(PIPELINE_MAX) {
            write!(
                heads,
                "{method} {path} HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {len}\r\nConnection: keep-alive\r\n\r\n"
            )?;
            ends.push(heads.len());
        }
        let mut parts = vec![IoSlice::new(&heads)];
        if !self.body.is_empty() {
            parts.clear();
            let starts = std::iter::once(0).chain(ends.iter().copied());
            for (start, end) in starts.zip(ends.iter().copied()) {
                parts.extend([IoSlice::new(&heads[start..end]), IoSlice::new(self.body)]);
            }
        }
        write_message(&mut conn, &mut parts)
    }

    /// The read half: append `(status, body)` per path to `out`, in
    /// request order. A connection that ends before every answer arrived
    /// (gone stale in the pool — the server closed it while it sat idle,
    /// or died — or closed by the server mid-batch, with or without
    /// `Connection: close`) has its unanswered requests written again on
    /// a fresh dial; answered ones are never repeated. Fresh-connection
    /// failures with no answer propagate: those are real errors, not
    /// staleness, and `out` then holds the answers read so far.
    pub fn finish(&mut self, out: &mut Vec<(u16, Vec<u8>)>) -> std::io::Result<()> {
        let pool = ConnectionPool::global();
        while self.answered < self.paths.len() {
            let before = self.answered;
            let conn = match self.conn.take() {
                Some(conn) => conn,
                None => {
                    (self.sent, self.fresh) = (before, true);
                    let conn = pool.dial(self.authority)?;
                    self.dials.0 += 1;
                    conn
                }
            };
            match self.drain(&conn, out) {
                Ok(true) => pool.checkin(self.authority, conn),
                Ok(false) => {}
                Err(e) if self.fresh && self.answered == before => return Err(e),
                Err(_) => {}
            }
        }
        Ok(())
    }

    /// Read answers off `conn` until the batch is complete, writing the
    /// requests beyond `sent` in groups as the earlier answers are
    /// drained. One reader spans the batch: back-to-back answers share its
    /// buffer. `Ok(true)` means every answer was read and the server keeps
    /// the connection open — the only state in which it may be pooled.
    fn drain(&mut self, conn: &TcpStream, out: &mut Vec<(u16, Vec<u8>)>) -> std::io::Result<bool> {
        let answers = (self.paths.len() - self.answered).min(PIPELINE_MAX);
        let size = (answers * BATCH_READ_PER_ANSWER).min(BATCH_READ_MAX);
        let mut reader = BufReader::with_capacity(size, conn);
        while self.answered < self.paths.len() {
            if self.answered == self.sent {
                self.write_from(conn, self.sent)?;
                self.sent = self.paths.len().min(self.sent + PIPELINE_MAX);
            }
            let (status, body, keep_alive) = read_response(&mut reader)?;
            out.push((status, body));
            self.answered += 1;
            if !keep_alive {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Bytes of read buffer a batch asks for per answer it expects, up to
/// [`BATCH_READ_MAX`]: a batch of small answers then takes several of
/// them per `read`, and a large body is read past the buffer.
const BATCH_READ_PER_ANSWER: usize = 16 * 1024;
const BATCH_READ_MAX: usize = 256 * 1024;

/// Read one response: `(status, body, server keeps the connection open)`.
fn read_response<R: Read>(reader: &mut BufReader<R>) -> std::io::Result<(u16, Vec<u8>, bool)> {
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
    let (content_length, connection) = read_headers(reader)?;
    let mut keep_alive = status_line.starts_with("HTTP/1.1") && !connection.contains("close");
    let body = match content_length {
        Some(n) => read_body(reader, n)?,
        None => {
            // Without a length the body runs to EOF, which also means
            // the connection cannot be reused.
            keep_alive = false;
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    Ok((status, body, keep_alive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

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

    fn ok(path: &str) -> (u16, Vec<u8>) {
        (200, format!("GET {path} ").into_bytes())
    }

    #[test]
    fn get_many_answers_in_request_order_with_mixed_statuses() {
        let server = echo_server();
        let paths = ["/a", "/missing", "/b", "/missing", "/c"];
        let got = HttpClient::get_many(&server.authority(), &paths).unwrap();
        let missing = (404, b"nope".to_vec());
        assert_eq!(got, [ok("/a"), missing.clone(), ok("/b"), missing, ok("/c")]);
        assert_eq!(server.request_count(), 5);
        assert_eq!(server.connection_count(), 1, "one connection carries the batch");
    }

    #[test]
    fn empty_batch_touches_no_socket_and_a_batch_of_one_is_a_get() {
        let server = echo_server();
        let authority = server.authority();
        assert_eq!(HttpClient::get_many(&authority, &[]).unwrap(), []);
        assert_eq!(server.connection_count(), 0);
        assert_eq!(HttpClient::get_many(&authority, &["/one"]).unwrap(), [ok("/one")]);
        assert_eq!(HttpClient::get(&authority, "/one").unwrap(), ok("/one"));
        assert_eq!((server.request_count(), server.connection_count()), (2, 1));
    }

    #[test]
    fn server_closing_mid_batch_has_only_the_unanswered_paths_retried() {
        // The server hangs up, unannounced, after 3 requests per connection.
        let server =
            echo_server_with(ServerOptions { keep_alive: true, max_requests_per_connection: 3 });
        let authority = server.authority();
        let paths = ["/p0", "/p1", "/p2", "/p3", "/p4"];
        let got = HttpClient::get_many(&authority, &paths).unwrap();
        assert_eq!(got, paths.map(ok));
        assert_eq!(server.request_count(), 5, "answered paths are not requested again");
        assert_eq!(server.connection_count(), 2, "one fresh dial for the unanswered two");
        // The second connection was drained and is still open, so it was
        // pooled: the next request rides it (and uses up its budget).
        assert_eq!(HttpClient::get(&authority, "/p5").unwrap(), ok("/p5"));
        assert_eq!(server.connection_count(), 2);
    }

    #[test]
    fn connection_close_on_an_answer_ends_the_connection_not_the_batch() {
        // Every answer says `Connection: close`, the last one included.
        let server =
            echo_server_with(ServerOptions { keep_alive: false, ..ServerOptions::default() });
        let authority = server.authority();
        let paths = ["/c0", "/c1", "/c2"];
        assert_eq!(HttpClient::get_many(&authority, &paths).unwrap(), paths.map(ok));
        assert_eq!((server.request_count(), server.connection_count()), (3, 3));
        // None of those connections was pooled.
        assert_eq!(HttpClient::get(&authority, "/c3").unwrap(), ok("/c3"));
        assert_eq!(server.connection_count(), 4);
    }

    #[test]
    fn abandoned_batch_never_reaches_the_pool() {
        let server = echo_server();
        let authority = server.authority();
        // Heads written, answers never read: the connection is half-drained.
        drop(HttpClient::send_gets(&authority, &["/x", "/y"]).unwrap());
        // A pooled half-drained connection would answer this with "/x".
        assert_eq!(HttpClient::get(&authority, "/z").unwrap(), ok("/z"));
        assert_eq!(server.connection_count(), 2);
    }

    #[test]
    fn unreachable_peer_fails_the_batch() {
        // Port 1 is essentially never listening.
        assert!(HttpClient::get_many("127.0.0.1:1", &["/a", "/b"]).is_err());
    }

    /// A server, on a raw socket, that refuses to answer before it has
    /// seen that the client stopped writing: it reads `expect` request
    /// heads, checks that nothing more arrives, then answers them.
    #[test]
    fn request_heads_in_flight_are_capped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        const N: usize = 2 * PIPELINE_MAX + 22;
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut answered = 0;
            for expect in [PIPELINE_MAX, PIPELINE_MAX, 22] {
                let heads = |seen: &[u8]| seen.windows(4).filter(|w| w == b"\r\n\r\n").count();
                let mut buf = [0u8; 4096];
                conn.set_read_timeout(None).unwrap();
                while heads(&seen) < answered + expect {
                    let n = conn.read(&mut buf).unwrap();
                    assert!(n > 0, "client hung up early");
                    seen.extend_from_slice(&buf[..n]);
                }
                // Nothing beyond the cap follows until answers are read.
                conn.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
                assert!(conn.read(&mut buf).is_err(), "more than {PIPELINE_MAX} heads in flight");
                assert_eq!(heads(&seen), answered + expect);
                for i in answered..answered + expect {
                    let body = format!("r{i}");
                    let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
                    conn.write_all((head + &body).as_bytes()).unwrap();
                }
                answered += expect;
            }
        });
        let paths: Vec<String> = (0..N).map(|i| format!("/q{i}")).collect();
        let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
        let got = HttpClient::get_many(&authority, &refs).unwrap();
        let want: Vec<_> = (0..N).map(|i| (200, format!("r{i}").into_bytes())).collect();
        assert_eq!(got, want);
        server.join().unwrap();
    }

    /// Counts `write` calls, vectored or not, and keeps what was written.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Head and body leave in one vectored write at every size, the body
    /// written from where it lies; a writer that takes a little at a time
    /// is fed the rest, in order.
    #[test]
    fn small_message_leaves_in_one_write_large_body_is_not_copied() {
        let head = b"POST /RPC2 HTTP/1.1\r\n\r\n";
        for len in [0, 100, 16 * 1024, 16 * 1024 + 1, 1 << 20] {
            let body = vec![b'x'; len];
            let mut out = CountingWriter::default();
            write_message(&mut out, &mut [IoSlice::new(head), IoSlice::new(&body)]).unwrap();
            assert_eq!(out.writes, 1, "{len}-byte body: head and body must share one write");
            assert_eq!(out.bytes, [&head[..], &body[..]].concat());
        }

        /// Takes at most 7 bytes per call.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(7);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let body = vec![b'y'; 50];
        let mut out = Trickle(Vec::new());
        write_message(&mut out, &mut [IoSlice::new(head), IoSlice::new(&body)]).unwrap();
        assert_eq!(out.0, [&head[..], &body[..]].concat());
    }

    /// Each batch counts its own dials: against a fresh server the first
    /// of six dials and the other five reuse its pooled connection, and a
    /// batch whose pooled connection went stale counts the redial too.
    #[test]
    fn each_batch_counts_its_dial_or_its_reuse() {
        let server = echo_server();
        let authority = server.authority();
        let dials: Vec<(u64, u64)> = (0..6)
            .map(|_| {
                let mut batch = HttpClient::send_gets(&authority, &["/s"]).unwrap();
                batch.finish(&mut Vec::new()).unwrap();
                batch.dials()
            })
            .collect();
        assert_eq!(dials, [(1, 0), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1)]);

        let options = ServerOptions { max_requests_per_connection: 1, ..Default::default() };
        let closing = echo_server_with(options);
        let authority = closing.authority();
        let mut first = HttpClient::send_gets(&authority, &["/a"]).unwrap();
        first.finish(&mut Vec::new()).unwrap();
        let mut stale = HttpClient::send_gets(&authority, &["/b"]).unwrap();
        let mut out = Vec::new();
        stale.finish(&mut out).unwrap();
        assert_eq!(out[0].1, b"GET /b ");
        assert_eq!((first.dials(), stale.dials()), ((1, 0), (1, 1)));
    }
}
