//! Control- and data-plane networking, written against the standard library
//! only — the Rust analogue of the paper's decision to build on Python's
//! stdlib `xmlrpclib` and a built-in HTTP server (§IV-B):
//!
//! * [`base64`] — RFC 4648 codec (XML-RPC's binary payload encoding),
//! * [`xmlrpc`] — the XML-RPC value model, serializer, and parser,
//! * [`http`] — a minimal HTTP/1.1 server and client over `std::net`,
//! * [`rpc`] — typed request/response dispatch on top of both,
//! * [`dataserver`] — the HTTP GET server slaves use to hand buckets to
//!   each other directly ("small short-lived files … served and removed
//!   without ever being flushed").

pub mod base64;
pub mod dataserver;
pub mod http;
pub mod rpc;
pub mod xmlrpc;

pub use dataserver::{DataServer, FrameCache, Pages, Provider, Served};
pub use http::{Body, HttpClient, HttpServer, Request, Response, ServerOptions};
pub use rpc::{RpcClient, RpcServer};
pub use xmlrpc::Value;
