//! The bucket data server: direct slave-to-slave intermediate data.
//!
//! "For data communicated directly, the writer opens and writes a file on a
//! local filesystem, and requests from readers are served by a built-in
//! HTTP server" (§IV-B). A [`DataServer`] exposes a provider callback over
//! HTTP GET; the companion [`fetch`] retrieves a bucket by URL.
//!
//! The provider answers a frame as the shared buffer it was written in,
//! which goes straight to the socket uncopied (see
//! [`crate::http::Body::Shared`]): a provider may hand every reader one
//! buffer it holds (a [`FrameCache`]) or build a frame per request (a
//! slave framing the bucket a peer asked for, in place). Beside
//! a frame it may answer that the bucket has no records, that there is no
//! such bucket, or — having held the request while the bucket's producer
//! runs — that it is not there yet ([`Served`]). A GET may name the task
//! attempt that reads the bucket (`?reader=N`, [`with_reader`]), which a
//! provider holding requests uses to hold it only for producers granted
//! before that reader. Paths are sanitized here —
//! empty paths and any `..` component 404 before the provider runs, so
//! providers backed by a real filesystem need no escaping logic of their
//! own.

use crate::http::{Handler, HttpClient, HttpServer, Pipelined, Request, Response};
use mrs_core::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A provider's answer for one bucket path, and what it is on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Served {
    /// The bucket's frame: 200 with the frame as the body.
    Frame(Arc<Vec<u8>>),
    /// The bucket has no records: 200 with an empty body, which a reader
    /// takes as the empty run (a frame is never empty).
    Empty,
    /// The bucket's producer is still running and the provider stopped
    /// holding the request: 503, ask again.
    NotYet,
    /// No such bucket: 404.
    Missing,
}

impl From<Option<Arc<Vec<u8>>>> for Served {
    fn from(frame: Option<Arc<Vec<u8>>>) -> Served {
        frame.map_or(Served::Missing, Served::Frame)
    }
}

/// The status a provider's "not yet" travels as.
const NOT_YET: u16 = 503;

/// Callback resolving a bucket path, and the reading attempt the GET
/// names if any, to what is served for it. It may block (a held
/// request), but must answer well inside the client's I/O timeout (10 s).
pub type Provider = Arc<dyn Fn(&str, Option<u32>) -> Served + Send + Sync>;

/// The request path of `path` read by task attempt `reader`.
pub fn with_reader(path: &str, reader: u32) -> String {
    format!("{path}?reader={reader}")
}

/// A shared cache of encoded frames keyed by bucket path: wire-ready
/// bytes inserted once, kept in the buffer they were written in, and
/// handed to every reader as the same `Arc`.
///
/// The master serves its source splits from one: a split is framed once
/// by `local_data` and read once per map attempt. A slave keeps no
/// frames; it frames a bucket per GET.
#[derive(Default)]
pub struct FrameCache {
    frames: Mutex<HashMap<String, Arc<Vec<u8>>>>,
}

impl FrameCache {
    /// An empty cache.
    pub fn new() -> Self {
        FrameCache::default()
    }

    /// Insert wire-ready bytes for `path`, returning the shared buffer:
    /// `bytes` itself, not a copy.
    pub fn insert(&self, path: &str, bytes: Vec<u8>) -> Arc<Vec<u8>> {
        let shared = Arc::new(bytes);
        self.frames.lock().insert(path.to_owned(), Arc::clone(&shared));
        shared
    }

    /// Look up the frame for `path`.
    pub fn get(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        self.frames.lock().get(path).cloned()
    }

    /// Drop every cached frame (end-of-job cleanup).
    pub fn clear(&self) {
        self.frames.lock().clear();
    }

    /// Drop every frame whose path starts with `prefix`, returning how
    /// many were removed. Dataset lifetime GC frees a whole dataset's
    /// buckets with one call (paths are laid out `.../d{data}/...`).
    pub fn remove_prefix(&self, prefix: &str) -> usize {
        let mut frames = self.frames.lock();
        let before = frames.len();
        frames.retain(|path, _| !path.starts_with(prefix));
        before - frames.len()
    }

    /// Number of cached frames.
    pub fn len(&self) -> usize {
        self.frames.lock().len()
    }

    /// True when no frames are cached.
    pub fn is_empty(&self) -> bool {
        self.frames.lock().is_empty()
    }

    /// Total bytes held across all cached frames.
    pub fn bytes(&self) -> usize {
        self.frames.lock().values().map(|f| f.len()).sum()
    }

    /// A [`Provider`] serving this cache.
    pub fn provider(self: &Arc<Self>) -> Provider {
        let cache = Arc::clone(self);
        Arc::new(move |path: &str, _| cache.get(path).into())
    }
}

/// True for paths safe to hand to a provider: non-empty and free of `..`
/// components (providers may be backed by a real directory tree, and a
/// crafted `../../etc/...` path must die here, not there).
fn path_is_clean(path: &str) -> bool {
    !path.is_empty() && path.split('/').all(|c| c != "..")
}

/// A bucket request's path and the reader it names (`?reader=N`); `None`
/// for an unclean path or any other query.
fn bucket_request(request: &str) -> Option<(&str, Option<u32>)> {
    let (path, reader) = match request.split_once('?') {
        Some((path, query)) => (path, Some(query.strip_prefix("reader=")?.parse().ok()?)),
        None => (request, None),
    };
    path_is_clean(path).then_some((path, reader))
}

/// Callback serving non-bucket pages (`/status`, `/metrics`, …). Gets
/// the request path without its leading slash; `None` means 404.
pub type Pages = Arc<dyn Fn(&str) -> Option<Response> + Send + Sync>;

/// One routing decision for every request: parse the method and path
/// segments, then dispatch. Bucket fetches (`GET /data/<path>`) and
/// pages (`GET /<page>`) share the method check and the `..`/empty
/// rejection lives on the bucket route only — page names are a closed
/// set the `pages` callback controls.
fn route(req: &Request, provider: &Provider, pages: &Pages) -> Response {
    if req.method != "GET" {
        return Response::error(400, "data server only answers GET");
    }
    let path = req.path.strip_prefix('/').unwrap_or(&req.path);
    match path.split_once('/') {
        Some(("data", request)) => {
            let Some((bucket, reader)) = bucket_request(request) else {
                return Response::error(404, "malformed bucket path");
            };
            match provider(bucket, reader) {
                Served::Frame(bytes) => Response::ok("application/octet-stream", bytes),
                Served::Empty => Response::ok("application/octet-stream", Vec::new()),
                Served::NotYet => Response::error(NOT_YET, "not yet"),
                Served::Missing => Response::error(404, "no such bucket"),
            }
        }
        _ => match pages(path) {
            Some(response) => response,
            None => Response::error(404, "paths live under /data/"),
        },
    }
}

/// An HTTP GET server for bucket data (and, optionally, live pages).
pub struct DataServer {
    http: HttpServer,
}

impl DataServer {
    /// Serve buckets from `provider` on `127.0.0.1:port` (0 = ephemeral).
    /// Paths are served under `/data/`.
    pub fn serve(port: u16, provider: Provider) -> std::io::Result<DataServer> {
        DataServer::serve_with_pages(port, provider, Arc::new(|_| None))
    }

    /// Like [`DataServer::serve`], additionally answering top-level GETs
    /// (e.g. `/status`, `/metrics`) from the `pages` callback.
    pub fn serve_with_pages(
        port: u16,
        provider: Provider,
        pages: Pages,
    ) -> std::io::Result<DataServer> {
        let handler: Handler = Arc::new(move |req: Request| route(&req, &provider, &pages));
        let http = HttpServer::bind_named("mrs-data", port, handler, Default::default())?;
        Ok(DataServer { http })
    }

    /// `host:port` of the server.
    pub fn authority(&self) -> String {
        self.http.authority()
    }

    /// Full URL for a bucket path on this server.
    pub fn url_for(&self, path: &str) -> String {
        url(&self.authority(), path)
    }

    /// Total bucket bytes served (the direct-shuffle wire-volume metric).
    pub fn bytes_served(&self) -> u64 {
        self.http.bytes_served()
    }
}

/// The URL under which the data server at `authority` serves bucket
/// `path`.
pub fn url(authority: &str, path: &str) -> String {
    format!("http://{authority}/data/{path}")
}

/// Fetch a bucket from a peer's data server given `host:port` and the
/// absolute path component of its URL. A bucket with no records is the
/// empty vector; one that is not there yet is missing data.
pub fn fetch(authority: &str, path: &str) -> Result<Vec<u8>> {
    let answer = HttpClient::get(authority, path).map_err(|e| no_answer(authority, path, &e))?;
    bucket_of(authority, path, answer)?
        .ok_or_else(|| Error::MissingData(format!("{authority}{path}: not yet")))
}

fn no_answer(authority: &str, path: &str, e: &std::io::Error) -> Error {
    Error::Rpc(format!("fetch {authority}{path}: {e}"))
}

/// A bucket as a peer answered it: its bytes, or `None` for "not yet".
pub type Answered = Result<Option<Vec<u8>>>;

/// The bucket a peer answered with.
fn bucket_of(authority: &str, path: &str, (status, body): (u16, Vec<u8>)) -> Answered {
    if status == NOT_YET {
        return Ok(None);
    }
    if status != 200 {
        // The error body is the peer's own diagnosis ("no such bucket",
        // "malformed bucket path", a provider panic message…) — losing it
        // turns every peer failure into an opaque status code.
        let reason = String::from_utf8_lossy(&body);
        return Err(Error::MissingData(format!("{authority}{path}: http {status}: {reason}")));
    }
    Ok(Some(body))
}

/// [`fetch`] for several buckets of one peer, in two halves: this one
/// puts the pipelined GETs on the wire ([`HttpClient::send_gets`]) and
/// returns; [`FetchMany::finish`] reads the answers. A caller with
/// several peers sends to all of them before it waits for any.
pub fn fetch_many<'a>(authority: &'a str, paths: &'a [&'a str]) -> FetchMany<'a> {
    FetchMany { authority, paths, batch: HttpClient::send_gets(authority, paths) }
}

/// Buckets requested from one peer and not yet read.
pub struct FetchMany<'a> {
    authority: &'a str,
    paths: &'a [&'a str],
    batch: std::io::Result<Pipelined<'a>>,
}

impl FetchMany<'_> {
    /// One result per path, in request order, each what [`fetch`] would
    /// have returned for it — but `None` where the peer said "not yet";
    /// a transport failure is the result of every path it left
    /// unanswered. Beside them, the batch's [`Pipelined::dials`].
    pub fn finish(self) -> (Vec<Answered>, (u64, u64)) {
        let FetchMany { authority, paths, batch } = self;
        let mut answers = Vec::with_capacity(paths.len());
        let (failed, dials) = match batch {
            Ok(mut batch) => (batch.finish(&mut answers).err(), batch.dials()),
            Err(e) => (Some(e), (0, 0)),
        };
        let mut out: Vec<_> =
            paths.iter().zip(answers).map(|(p, a)| bucket_of(authority, p, a)).collect();
        if let Some(e) = failed {
            out.extend(paths[out.len()..].iter().map(|p| Err(no_answer(authority, p, &e))));
        }
        (out, dials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with(files: Vec<(&str, Vec<u8>)>) -> DataServer {
        let cache = Arc::new(FrameCache::new());
        for (k, v) in files {
            cache.insert(k, v);
        }
        DataServer::serve(0, cache.provider()).unwrap()
    }

    #[test]
    fn fetch_existing_bucket() {
        let s = server_with(vec![("op0/b1", vec![1, 2, 3])]);
        let got = fetch(&s.authority(), "/data/op0/b1").unwrap();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn missing_bucket_is_missing_data() {
        let s = server_with(vec![]);
        let err = fetch(&s.authority(), "/data/none").unwrap_err();
        assert!(matches!(err, Error::MissingData(_)));
    }

    #[test]
    fn error_message_carries_the_peer_body() {
        let s = server_with(vec![]);
        let err = fetch(&s.authority(), "/data/none").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("http 404"), "{msg}");
        assert!(msg.contains("no such bucket"), "missing peer diagnosis in {msg:?}");
    }

    #[test]
    fn dotdot_and_empty_paths_never_reach_the_provider() {
        let calls = Arc::new(Mutex::new(Vec::<String>::new()));
        let provider: Provider = {
            let calls = Arc::clone(&calls);
            Arc::new(move |p: &str, _| {
                calls.lock().push(p.to_owned());
                Served::Frame(Arc::new(b"leak".to_vec()))
            })
        };
        let s = DataServer::serve(0, provider).unwrap();
        for path in ["/data/", "/data/../secret", "/data/a/../../b", "/data/.."] {
            let err = fetch(&s.authority(), path).unwrap_err();
            assert!(matches!(err, Error::MissingData(_)), "{path} should 404");
        }
        assert!(calls.lock().is_empty(), "provider saw {:?}", calls.lock().clone());
        // Benign dots ('.', '..double', 'a..b') are not rejected.
        assert_eq!(fetch(&s.authority(), "/data/a..b/..c/v1").unwrap(), b"leak");
    }

    #[test]
    fn url_for_is_fetchable() {
        let s = server_with(vec![("x", b"payload".to_vec())]);
        let url = s.url_for("x");
        let parsed = mrs_fs_like_parse(&url);
        let got = fetch(&parsed.0, &parsed.1).unwrap();
        assert_eq!(got, b"payload");
    }

    // Minimal inline URL split to avoid a dependency on mrs-fs from here.
    fn mrs_fs_like_parse(url: &str) -> (String, String) {
        let rest = url.strip_prefix("http://").unwrap();
        let (auth, path) = rest.split_once('/').unwrap();
        (auth.to_owned(), format!("/{path}"))
    }

    #[test]
    fn non_get_rejected() {
        let s = server_with(vec![("x", vec![1])]);
        let (status, _) = HttpClient::post(&s.authority(), "/data/x", b"").unwrap();
        assert_eq!(status, 400);
    }

    #[test]
    fn pages_share_the_router_with_bucket_fetches() {
        let cache = Arc::new(FrameCache::new());
        cache.insert("b", vec![7]);
        let pages: Pages = Arc::new(|page: &str| match page {
            "status" => Some(Response::ok("text/plain", Arc::new(b"live".to_vec()))),
            _ => None,
        });
        let s = DataServer::serve_with_pages(0, cache.provider(), pages).unwrap();
        // Pages answer at the top level…
        let (status, body) = HttpClient::get(&s.authority(), "/status").unwrap();
        assert_eq!((status, body.as_slice()), (200, b"live".as_slice()));
        // …bucket fetches still work beside them…
        assert_eq!(fetch(&s.authority(), "/data/b").unwrap(), vec![7]);
        // …unknown pages 404, and pages are GET-only like everything else.
        assert_eq!(HttpClient::get(&s.authority(), "/nope").unwrap().0, 404);
        assert_eq!(HttpClient::post(&s.authority(), "/status", b"").unwrap().0, 400);
        // Page names never shadow the data route: /data/status is a bucket.
        assert!(matches!(
            fetch(&s.authority(), "/data/status").unwrap_err(),
            Error::MissingData(_)
        ));
    }

    #[test]
    fn bytes_served_accumulates() {
        let s = server_with(vec![("a", vec![0; 100]), ("b", vec![0; 50])]);
        fetch(&s.authority(), "/data/a").unwrap();
        fetch(&s.authority(), "/data/b").unwrap();
        assert_eq!(s.bytes_served(), 150);
    }

    #[test]
    fn empty_bucket_fetches_as_empty() {
        let s = server_with(vec![("e", vec![])]);
        assert!(fetch(&s.authority(), "/data/e").unwrap().is_empty());
    }

    /// Each answer a provider can give, as one pipelined batch reads it
    /// and as a single fetch does: a frame is its bytes, an empty bucket
    /// the empty body, "not yet" a `None` in the batch (a missing bucket
    /// to a single fetch), and a missing bucket a 404. The reader a GET
    /// names reaches the provider; any other query is a malformed path.
    #[test]
    fn every_served_answer_reaches_the_reader_as_itself() {
        let provider: Provider = Arc::new(|p: &str, reader| match (p, reader) {
            ("frame", None) => Served::Frame(Arc::new(b"abc".to_vec())),
            ("frame", Some(7)) => Served::Frame(Arc::new(b"read by 7".to_vec())),
            ("empty", None) => Served::Empty,
            ("later", None) => Served::NotYet,
            _ => Served::Missing,
        });
        let s = DataServer::serve(0, provider).unwrap();
        let by_7 = with_reader("/data/frame", 7);
        let paths = ["/data/frame", "/data/empty", "/data/later", "/data/gone", &by_7];
        let (got, _) = fetch_many(&s.authority(), &paths).finish();
        assert!(matches!(&got[0], Ok(Some(b)) if b == b"abc"), "{got:?}");
        assert!(matches!(&got[1], Ok(Some(b)) if b.is_empty()), "{got:?}");
        assert!(matches!(&got[2], Ok(None)), "{got:?}");
        assert!(matches!(&got[3], Err(Error::MissingData(m)) if m.contains("http 404")), "{got:?}");
        assert!(matches!(&got[4], Ok(Some(b)) if b == b"read by 7"), "{got:?}");
        assert_eq!(fetch(&s.authority(), "/data/empty").unwrap(), b"");
        let later = fetch(&s.authority(), "/data/later").unwrap_err();
        assert!(matches!(&later, Error::MissingData(m) if m.contains("not yet")), "{later}");
        for bad in ["/data/frame?reader=x", "/data/frame?reader=-1", "/data/frame?other=7"] {
            let err = fetch(&s.authority(), bad).unwrap_err();
            assert!(err.to_string().contains("malformed bucket path"), "{bad}: {err}");
        }
    }

    #[test]
    fn frame_cache_shares_one_buffer() {
        let cache = Arc::new(FrameCache::new());
        let bytes = vec![9u8; 64];
        let written = bytes.as_ptr();
        let inserted = cache.insert("p", bytes);
        assert_eq!(inserted.as_ptr(), written, "the cache holds the frame it was given, uncopied");
        let got = cache.get("p").unwrap();
        assert!(Arc::ptr_eq(&inserted, &got), "get must return the inserted buffer");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 64);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get("p"), None);
    }
}
