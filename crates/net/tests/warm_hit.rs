//! A warm hit over the wire builds no data: the statics are scanned
//! straight to the cache key's bytes, so a hit whose statics name a
//! symbol nothing else in the process has interned leaves the intern
//! table as it was. The table is global, so this check lives in a test
//! binary of its own.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use two4one::{Datum, Division, Pgg, BT};
use two4one_net::wire::SpecWireRequest;
use two4one_net::{wire, NetConfig, NetServer};
use two4one_server::SpecService;
use two4one_syntax::symbol::interned_count;

const PICK: &str = "(define (pick s d) (if (symbol? s) 'sym 'int))";

/// The symbol the snapshot is built with, as long as the probe's name,
/// which differs in its first letter.
const PLACEHOLDER: &str = "xarm-hit-probe-2f9c";

/// The symbol the hit's statics name. It is assembled at run time, so no
/// literal in this binary interns it first.
fn probe_name() -> String {
    format!("w{}", &PLACEHOLDER[1..])
}

fn pick_service() -> Arc<SpecService> {
    let pgg = Pgg::new();
    let program = pgg.parse(PICK).expect("parse pick");
    let ext = pgg
        .cogen(&program, "pick", &Division::new([BT::Static, BT::Dynamic]))
        .expect("cogen pick");
    let service = Arc::new(SpecService::new());
    service.register("pick", &ext);
    service
}

/// `snapshot`, whose one record's statics are the symbol `PLACEHOLDER`,
/// with the symbol renamed `to` (as long) and the record's checksum
/// recomputed: a cache entry keyed by a symbol this process never
/// interned. A snapshot is the magic, version and count (16 bytes), then
/// each record's length and CRC-32 (8 bytes) and payload.
fn renamed(snapshot: &[u8], to: &str) -> Vec<u8> {
    assert_eq!(PLACEHOLDER.len(), to.len());
    let mut bytes = snapshot.to_vec();
    let at = bytes
        .windows(PLACEHOLDER.len())
        .position(|w| w == PLACEHOLDER.as_bytes())
        .expect("the placeholder is in the record");
    bytes[at..at + to.len()].copy_from_slice(to.as_bytes());
    let crc = two4one::crc32(&bytes[24..]);
    bytes[20..24].copy_from_slice(&crc.to_le_bytes());
    bytes
}

fn connect(server: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    stream
}

#[test]
fn a_warm_wire_hit_interns_no_symbol() {
    let builder = pick_service();
    builder
        .specialize_named("pick", &[Datum::sym(PLACEHOLDER)])
        .expect("placeholder");
    let probe = probe_name();
    let snapshot = renamed(&builder.snapshot_bytes(), &probe);

    let service = pick_service();
    assert_eq!(service.restore_bytes(&snapshot).restored, 1);
    let server = NetServer::bind(service.clone(), NetConfig::default()).expect("bind");
    let mut conn = connect(&server);
    let request = SpecWireRequest {
        token: String::new(),
        name: "pick".into(),
        statics: probe.clone(),
        deadline_ms: 0,
        want: wire::WANT_META,
    };
    let body = format!(r#"{{"name": "pick", "statics": "{probe}"}}"#);
    let http = format!(
        "POST /spec HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );

    let before = interned_count();
    conn.write_all(&wire::encode_frame(wire::REQ_SPEC, &request.encode()))
        .expect("send");
    let resp = wire::read_frame(&mut conn, 1 << 20)
        .expect("read")
        .expect("frame");
    let mut http_conn = connect(&server);
    http_conn.write_all(http.as_bytes()).expect("send http");
    let mut http_resp = Vec::new();
    http_conn.read_to_end(&mut http_resp).expect("read http");
    let after = interned_count();

    assert_eq!(resp.ftype, wire::RESP_META);
    assert!(http_resp.starts_with(b"HTTP/1.1 200"));
    let stats = service.stats();
    assert_eq!((stats.hits, stats.spec_runs), (2, 0), "both were warm hits");
    assert_eq!(after, before, "a warm hit interned a symbol");
    drop(conn);
    server.shutdown();
}
