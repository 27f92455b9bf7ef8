//! Typed request/response RPC over HTTP POST + XML-RPC.
//!
//! This is the master↔slave control channel (§IV-B): the master runs an
//! [`RpcServer`] with registered methods (`signin`, `get_task`,
//! `task_failed`, …) and slaves call them through [`RpcClient`].

use crate::http::{Handler, HttpServer, Request, Response};
use crate::xmlrpc::{self, Reader, Value};
use mrs_core::{Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result type for method handlers: `Err((code, message))` becomes an
/// XML-RPC fault.
pub type MethodResult = std::result::Result<Value, (i64, String)>;

/// A registered RPC method: it reads its parameters off the request
/// document, and the end of the document, and answers with a whole
/// response document (`Err((code, message))`: a fault).
pub type Method =
    Box<dyn Fn(Reader<'_>) -> std::result::Result<String, (i64, String)> + Send + Sync>;

/// Builder for the method table.
#[derive(Default)]
pub struct Dispatch {
    methods: HashMap<String, Method>,
}

impl Dispatch {
    /// An empty dispatch table.
    pub fn new() -> Self {
        Dispatch::default()
    }

    /// Register a method by name that takes its parameters as [`Value`]s;
    /// a document they cannot be read from is fault 1.
    pub fn register<F>(self, name: &str, f: F) -> Self
    where
        F: Fn(&[Value]) -> MethodResult + Send + Sync + 'static,
    {
        self.register_doc(name, move |mut r| {
            let malformed = |e: xmlrpc::XmlError| (1, format!("malformed request: {e}"));
            let mut params = Vec::new();
            while r.more().map_err(malformed)? {
                params.push(r.read().map_err(malformed)?);
            }
            r.finish().map_err(malformed)?;
            f(&params).map(|v| xmlrpc::encode_response(&v))
        })
    }

    /// Register a method that decodes its own parameters from the
    /// request's [`Reader`] (and checks the document's end) and encodes
    /// its own response: no [`Value`] is built for either.
    pub fn register_doc<F>(mut self, name: &str, f: F) -> Self
    where
        F: Fn(Reader<'_>) -> std::result::Result<String, (i64, String)> + Send + Sync + 'static,
    {
        self.methods.insert(name.to_owned(), Box::new(f));
        self
    }
}

/// An XML-RPC server bound to `/RPC2`.
pub struct RpcServer {
    http: HttpServer,
}

impl RpcServer {
    /// Start serving the dispatch table on `127.0.0.1:port` (0 = ephemeral).
    pub fn serve(port: u16, dispatch: Dispatch) -> std::io::Result<RpcServer> {
        let methods = Arc::new(dispatch.methods);
        let handler: Handler = Arc::new(move |req: Request| {
            if req.method != "POST" || req.path != "/RPC2" {
                return Response::error(404, "rpc endpoint is POST /RPC2");
            }
            let xml = match std::str::from_utf8(&req.body) {
                Ok(s) => s,
                Err(_) => return rpc_fault(1, "request body is not utf-8"),
            };
            let (name, params) = match Reader::request(xml) {
                Ok(x) => x,
                Err(e) => return rpc_fault(1, &format!("malformed request: {e}")),
            };
            let Some(method) = methods.get(&*name) else {
                return rpc_fault(2, &format!("unknown method {name:?}"));
            };
            match method(params) {
                Ok(doc) => Response::ok("text/xml", doc.into_bytes()),
                Err((code, msg)) => rpc_fault(code, &msg),
            }
        });
        Ok(RpcServer { http: HttpServer::bind(port, handler)? })
    }

    /// `host:port` of the server.
    pub fn authority(&self) -> String {
        self.http.authority()
    }

    /// Port the server is listening on.
    pub fn port(&self) -> u16 {
        self.http.addr().port()
    }

    /// Total RPC requests served so far. The control-plane bench reads
    /// this to count round trips per job.
    pub fn request_count(&self) -> u64 {
        self.http.request_count()
    }
}

fn rpc_fault(code: i64, msg: &str) -> Response {
    Response::ok("text/xml", xmlrpc::encode_fault(code, msg).into_bytes())
}

/// Client side of the control channel.
#[derive(Clone, Debug)]
pub struct RpcClient {
    authority: String,
    /// Request plus response body bytes of every call that was answered,
    /// shared by the client's clones.
    moved: Arc<AtomicU64>,
}

impl RpcClient {
    /// A client for `host:port`.
    pub fn new(authority: impl Into<String>) -> Self {
        RpcClient { authority: authority.into(), moved: Arc::default() }
    }

    /// The body bytes, request plus response, of the calls answered since
    /// the last take.
    pub fn take_moved(&self) -> u64 {
        self.moved.swap(0, Ordering::Relaxed)
    }

    /// POST the request document `body` of a call of `method`; the
    /// response document, fault or not, undecoded. Transport errors
    /// surface as [`Error::Rpc`].
    pub fn post(&self, method: &str, body: &str) -> Result<String> {
        let (status, resp) =
            crate::http::HttpClient::post(&self.authority, "/RPC2", body.as_bytes())
                .map_err(|e| Error::Rpc(format!("{method} -> {}: {e}", self.authority)))?;
        self.moved.fetch_add((body.len() + resp.len()) as u64, Ordering::Relaxed);
        if status != 200 {
            return Err(Error::Rpc(format!("{method}: http status {status}")));
        }
        String::from_utf8(resp).map_err(|_| Error::Rpc(format!("{method}: non-utf8 response")))
    }

    /// Call a remote method. Transport errors and faults both surface as
    /// [`Error::Rpc`].
    pub fn call(&self, method: &str, params: &[Value]) -> Result<Value> {
        let xml = self.post(method, &xmlrpc::encode_request(method, params))?;
        match xmlrpc::parse_response(&xml)
            .map_err(|e| Error::Rpc(format!("{method}: bad response: {e}")))?
        {
            Ok(v) => Ok(v),
            Err(fault) => {
                Err(Error::Rpc(format!("{method}: fault {}: {}", fault.code, fault.message)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder_server() -> RpcServer {
        let dispatch = Dispatch::new()
            .register("add", |params| {
                let a =
                    params.first().and_then(Value::as_int).ok_or((3, "missing a".to_owned()))?;
                let b = params.get(1).and_then(Value::as_int).ok_or((3, "missing b".to_owned()))?;
                Ok(Value::Int(a + b))
            })
            .register("echo_bytes", |params| {
                let b = params
                    .first()
                    .and_then(Value::as_bytes)
                    .ok_or((3, "missing bytes".to_owned()))?;
                Ok(Value::Bytes(b.to_vec()))
            })
            .register("boom", |_| Err((42, "kaboom".to_owned())));
        RpcServer::serve(0, dispatch).unwrap()
    }

    #[test]
    fn call_roundtrip() {
        let server = adder_server();
        let client = RpcClient::new(server.authority());
        let v = client.call("add", &[Value::Int(2), Value::Int(40)]).unwrap();
        assert_eq!(v, Value::Int(42));
    }

    #[test]
    fn binary_payloads_survive() {
        let server = adder_server();
        let client = RpcClient::new(server.authority());
        let payload: Vec<u8> = (0..=255).collect();
        let v = client.call("echo_bytes", &[Value::Bytes(payload.clone())]).unwrap();
        assert_eq!(v.as_bytes().unwrap(), payload.as_slice());
    }

    #[test]
    fn fault_is_an_error_with_message() {
        let server = adder_server();
        let client = RpcClient::new(server.authority());
        let err = client.call("boom", &[]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("42") && msg.contains("kaboom"), "{msg}");
    }

    #[test]
    fn unknown_method_is_a_fault() {
        let server = adder_server();
        let client = RpcClient::new(server.authority());
        let err = client.call("nope", &[]).unwrap_err();
        assert!(err.to_string().contains("unknown method"), "{err}");
    }

    #[test]
    fn bad_argument_fault() {
        let server = adder_server();
        let client = RpcClient::new(server.authority());
        let err = client.call("add", &[Value::Str("x".into())]).unwrap_err();
        assert!(err.to_string().contains("missing a"), "{err}");
    }

    #[test]
    fn connection_refused_is_rpc_error() {
        // Port 1 is essentially never listening.
        let client = RpcClient::new("127.0.0.1:1");
        assert!(matches!(client.call("x", &[]), Err(Error::Rpc(_))));
    }

    #[test]
    fn handler_may_block_without_stalling_other_connections() {
        // Long-poll dispatch parks `get_task` handlers server-side. Each
        // connection gets its own handler thread, so one held request must
        // not delay requests arriving on other connections.
        use std::sync::mpsc;
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let dispatch = Dispatch::new()
            .register("park", move |_| {
                let rx = release_rx.lock().unwrap();
                rx.recv_timeout(std::time::Duration::from_secs(5)).ok();
                Ok(Value::Str("released".into()))
            })
            .register("ping", |_| Ok(Value::Bool(true)));
        let server = RpcServer::serve(0, dispatch).unwrap();
        let authority = server.authority();

        let parked = {
            let authority = authority.clone();
            std::thread::spawn(move || RpcClient::new(authority).call("park", &[]).unwrap())
        };
        // While `park` is held, a second connection is served immediately.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let start = std::time::Instant::now();
        let v = RpcClient::new(authority).call("ping", &[]).unwrap();
        assert_eq!(v, Value::Bool(true));
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        release_tx.send(()).unwrap();
        assert_eq!(parked.join().unwrap(), Value::Str("released".into()));
        assert_eq!(server.request_count(), 2);
    }

    #[test]
    fn concurrent_clients() {
        let server = adder_server();
        let authority = server.authority();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let authority = authority.clone();
                std::thread::spawn(move || {
                    let client = RpcClient::new(authority);
                    let v = client.call("add", &[Value::Int(i), Value::Int(1)]).unwrap();
                    assert_eq!(v, Value::Int(i + 1));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
