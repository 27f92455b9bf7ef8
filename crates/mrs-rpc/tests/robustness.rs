//! Adversarial-input robustness of the network layer: a malformed or
//! malicious peer must get an error response (or a dropped connection),
//! never crash the server or corrupt other requests.

use mrs_rpc::rpc::{Dispatch, RpcServer};
use mrs_rpc::{DataServer, HttpClient, RpcClient, Value};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

fn echo_rpc() -> RpcServer {
    RpcServer::serve(
        0,
        Dispatch::new()
            .register("echo", |params| Ok(params.first().cloned().unwrap_or(Value::Int(0)))),
    )
    .unwrap()
}

#[test]
fn garbage_post_body_yields_fault_not_crash() {
    let server = echo_rpc();
    let (status, body) =
        HttpClient::post(&server.authority(), "/RPC2", b"\xff\xfe not xml").unwrap();
    assert_eq!(status, 200); // XML-RPC faults ride on 200
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("fault"), "{text}");

    // Server still works afterwards.
    let client = RpcClient::new(server.authority());
    assert_eq!(client.call("echo", &[Value::Int(5)]).unwrap(), Value::Int(5));
}

#[test]
fn wrong_method_and_path_rejected() {
    let server = echo_rpc();
    let (status, _) = HttpClient::get(&server.authority(), "/RPC2").unwrap();
    assert_eq!(status, 404);
    let (status, _) = HttpClient::post(&server.authority(), "/other", b"x").unwrap();
    assert_eq!(status, 404);
}

#[test]
fn half_open_connection_does_not_wedge_server() {
    let server = echo_rpc();
    // Open a connection, send half a request line, and leave it hanging.
    let mut s = TcpStream::connect(server.authority()).unwrap();
    s.write_all(b"POST /RPC").unwrap();
    // Meanwhile a well-behaved client must still be served promptly.
    let client = RpcClient::new(server.authority());
    assert_eq!(client.call("echo", &[Value::Int(1)]).unwrap(), Value::Int(1));
    drop(s);
}

#[test]
fn lying_content_length_is_survivable() {
    let server = echo_rpc();
    let mut s = TcpStream::connect(server.authority()).unwrap();
    // Claims 10 bytes, sends 2, closes.
    s.write_all(b"POST /RPC2 HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi").unwrap();
    drop(s);
    let client = RpcClient::new(server.authority());
    assert_eq!(client.call("echo", &[Value::Int(2)]).unwrap(), Value::Int(2));
}

/// 2^40 bytes: far more than any machine could allocate.
const HUGE: u64 = 1 << 40;

/// A request claiming 2^40 body bytes, followed by a few and a close,
/// costs the server an error on that connection, not an allocation of
/// the claim: the connection ends unanswered and the server serves on.
#[test]
fn a_claimed_request_length_is_not_an_allocation() {
    let server = echo_rpc();
    let mut s = TcpStream::connect(server.authority()).unwrap();
    write!(s, "POST /RPC2 HTTP/1.1\r\nContent-Length: {HUGE}\r\n\r\n<methodCall>").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut answer = Vec::new();
    s.read_to_end(&mut answer).unwrap();
    assert!(answer.is_empty(), "{}", String::from_utf8_lossy(&answer));
    let client = RpcClient::new(server.authority());
    assert_eq!(client.call("echo", &[Value::Int(4)]).unwrap(), Value::Int(4));
}

/// An answer claiming 2^40 body bytes, followed by a few and a close, is
/// an error for the client that asked — a single GET, a bucket fetch and
/// a pipelined batch alike — not an allocation of the claim.
#[test]
fn a_claimed_response_length_is_not_an_allocation() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let authority = listener.local_addr().unwrap().to_string();
    let liar = std::thread::spawn(move || {
        for _ in 0..3 {
            let (mut conn, _) = listener.accept().unwrap();
            let mut head = [0u8; 1024];
            let _ = conn.read(&mut head).unwrap();
            write!(conn, "HTTP/1.1 200 OK\r\nContent-Length: {HUGE}\r\n\r\nMRSF1").unwrap();
        }
    });
    let err = HttpClient::get(&authority, "/data/a").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert!(mrs_rpc::dataserver::fetch(&authority, "/data/b").is_err());
    assert!(HttpClient::get_many(&authority, &["/data/c", "/data/d"]).is_err());
    liar.join().unwrap();
}

#[test]
fn deeply_nested_xml_is_rejected_cleanly() {
    let server = echo_rpc();
    // 10k nested arrays: the recursive-descent parser must error (or
    // succeed) without blowing the stack in a way that kills the server.
    let mut body = String::from("<methodCall><methodName>echo</methodName><params><param>");
    for _ in 0..10_000 {
        body.push_str("<value><array><data>");
    }
    let (status, _) = HttpClient::post(&server.authority(), "/RPC2", body.as_bytes()).unwrap();
    // Either a fault (200) or a dropped/errored response is fine; the
    // server must keep serving.
    let _ = status;
    let client = RpcClient::new(server.authority());
    assert_eq!(client.call("echo", &[Value::Int(3)]).unwrap(), Value::Int(3));
}

#[test]
fn data_server_rejects_path_traversal() {
    // Provider only serves the "secret" key; traversal-looking paths just
    // miss. The provider interface never touches the real filesystem.
    let server = DataServer::serve(
        0,
        Arc::new(|p: &str, _| (p == "ok").then(|| Arc::new(b"fine".to_vec())).into()),
    )
    .unwrap();
    let (status, body) = HttpClient::get(&server.authority(), "/data/ok").unwrap();
    assert_eq!((status, body.as_slice()), (200, b"fine".as_slice()));
    for path in ["/data/../etc/passwd", "/etc/passwd", "/data/", "/data/nope"] {
        let (status, _) = HttpClient::get(&server.authority(), path).unwrap();
        assert_ne!(status, 200, "{path} should not be served");
    }
}

#[test]
fn concurrent_mixed_good_and_bad_clients() {
    let server = echo_rpc();
    let authority = server.authority();
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let authority = authority.clone();
            std::thread::spawn(move || {
                if i % 3 == 0 {
                    // hostile: garbage bytes
                    let _ = HttpClient::post(&authority, "/RPC2", &[0u8; 64]);
                } else {
                    let client = RpcClient::new(authority);
                    let v = client.call("echo", &[Value::Int(i)]).unwrap();
                    assert_eq!(v, Value::Int(i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
