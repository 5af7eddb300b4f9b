//! `wire-warm`: a live `NetServer` on loopback whose whole working set is
//! cached, restored at set-up from `.t4os`/`.t4og` snapshots made before
//! the timed region. One thread drives two keep-alive connections — one
//! binary, one HTTP — with a fixed seeded mix: mostly binary metadata
//! requests, a fixed minority of binary object fetches the client decodes
//! (every fourth executed and checked against the interpreter), and a
//! fixed minority of HTTP `POST /spec`.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use two4one::{decode_image, obs, Datum, Image};
use two4one_net::{wire, NetConfig, NetServer};
use two4one_server::{ServeConfig, SpecService};

use crate::catalog::{self, Lang};
use crate::report::{self, Counters, Samples};
use crate::stream::{wire_working_set, WireKind, WireOp, WireStream, WIRE_BIASES, WIRE_KEYS};
use crate::trace::{self, span};
use crate::{check, closed_loop, exec, measure, timed, Config, Done, Outcome, Slice};

/// Largest response frame the client accepts.
const MAX_FRAME: usize = 16 << 20;

/// One working-set entry as the client sees it.
struct Key {
    lang: Lang,
    bias: i64,
    /// Expected `code_size` in every response for this key.
    code_size: usize,
    meta_frame: Vec<u8>,
    object_frame: Vec<u8>,
    http_request: Vec<u8>,
}

struct State {
    service: Arc<SpecService>,
    server: Option<NetServer>,
    bin: TcpStream,
    http: TcpStream,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = self.bin.shutdown(std::net::Shutdown::Both);
            let _ = self.http.shutdown(std::net::Shutdown::Both);
            server.shutdown();
        }
    }
}

fn register_all(service: &SpecService) {
    for lang in Lang::ALL {
        let ext = lang.genext();
        span("server.register", || service.register(lang.name(), &ext));
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        max_entries: 2 * WIRE_KEYS,
        ..ServeConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    s
}

fn setup(snapshot: &Path, genexts: &Path) -> State {
    let service = Arc::new(SpecService::with_config(config()));
    register_all(&service);
    let (restored, genexts_restored) = span("server.restore", || {
        let r = service.restore(snapshot).expect("restore snapshot");
        let g = service.restore_genexts(genexts).expect("restore gen-exts");
        (r, g)
    });
    assert_eq!(restored.restored as usize, WIRE_KEYS, "{restored:?}");
    assert_eq!(genexts_restored.restored, 2, "{genexts_restored:?}");
    let server = NetServer::bind(
        Arc::clone(&service),
        NetConfig {
            request_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let mut bin = connect(server.addr());
    let http = connect(server.addr());
    bin.write_all(&wire::encode_frame(wire::REQ_PING, &[]))
        .expect("ping");
    let pong = wire::read_frame(&mut bin, MAX_FRAME)
        .expect("pong")
        .expect("pong frame");
    assert_eq!(pong.ftype, wire::RESP_PONG);
    State {
        service,
        server: Some(server),
        bin,
        http,
    }
}

/// Reads one keep-alive HTTP response; returns `(status line, body)`.
fn read_http(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(String, Vec<u8>), String> {
    buf.clear();
    let mut chunk = [0u8; 16 << 10];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("http read: {e}"))?;
        if n == 0 {
            return Err("http connection closed".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or("http response without content-length")?;
    while buf.len() < head_end + len {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("http read: {e}"))?;
        if n == 0 {
            return Err("short http body".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let status = head.lines().next().unwrap_or_default().to_string();
    Ok((status, buf[head_end..head_end + len].to_vec()))
}

/// The `code_size` member of a metadata response.
fn code_size_of(body: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"code_size\":")? + "\"code_size\":".len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn check_size(got: Option<usize>, want: usize) -> Result<(), String> {
    match got {
        Some(n) if n == want => Ok(()),
        other => Err(format!("code_size {other:?}, cached entry has {want}")),
    }
}

/// Builds the working set in a service of its own, writes its snapshots
/// to `snapshot` and `genexts`, and returns each entry as the client sends
/// it. Runs before set-up; the builder is gone when it returns.
fn build_working_set(seed: u64, snapshot: &Path, genexts: &Path) -> Vec<Key> {
    let builder = SpecService::with_config(config());
    register_all(&builder);
    let keys = wire_working_set(seed)
        .into_iter()
        .map(|(lang, bias, salt)| {
            let statics = lang.program(bias, salt);
            let outcome = builder
                .specialize_named(lang.name(), std::slice::from_ref(&statics))
                .expect("build working set");
            let text = statics.to_string();
            let spec = |want| {
                let req = wire::SpecWireRequest {
                    token: String::new(),
                    name: lang.name().to_string(),
                    statics: text.clone(),
                    deadline_ms: 0,
                    want,
                };
                wire::encode_frame(wire::REQ_SPEC, &req.encode())
            };
            let body = format!(
                "{{\"name\": \"{}\", \"statics\": \"{}\", \"want\": \"meta\"}}",
                lang.name(),
                text.replace('\\', "\\\\").replace('"', "\\\"")
            );
            Key {
                lang,
                bias,
                code_size: outcome.code_size(),
                meta_frame: spec(wire::WANT_META),
                object_frame: spec(wire::WANT_OBJECT),
                http_request: format!(
                    "POST /spec HTTP/1.1\r\nHost: ledger\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes(),
            }
        })
        .collect();
    builder.snapshot(snapshot).expect("write snapshot");
    builder
        .snapshot_genexts(genexts)
        .expect("write gen-ext snapshot");
    keys
}

pub fn run(cfg: &Config) -> Outcome {
    let started = Instant::now();
    let work = crate::work_dir();
    let tag = format!("wire-{}", std::process::id());
    let snapshot = work.join(format!("{tag}.t4os"));
    let genexts = work.join(format!("{tag}.t4og"));
    let keys = build_working_set(cfg.seed, &snapshot, &genexts);
    let oracle = catalog::oracle(WIRE_BIASES);
    let prepare_s = started.elapsed().as_secs_f64();

    let mut stream = WireStream::new(cfg.seed);
    let mut next_id = 0;
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut obs_off = Samples::default();
    let mut resp_bytes = 0u64;
    let mut deltas = Counters::default();
    let mut http_buf = Vec::with_capacity(1 << 14);
    let kinds = [Slice::Untraced, Slice::Traced, Slice::ObsOff];
    let setup = || setup(&snapshot, &genexts);
    let (mut state, setup_times) = measure(cfg, &kinds, setup, |state, kind, budget| {
        let c0 = Counters::read(&state.service);
        let on = kind == Slice::Traced;
        let samples = closed_loop(budget, &mut next_id, &mut stream, |op: WireOp| {
            let key = &keys[op.key];
            let ((reply, bytes), latency) = timed(|| round_trip(state, key, op, &mut http_buf));
            if on {
                resp_bytes += bytes;
            }
            Done {
                class: op.class(),
                latency,
                result: reply.and_then(|reply| verify(key, op, reply, &oracle)),
            }
        });
        match kind {
            Slice::Traced => {
                deltas.add(&Counters::read(&state.service).since(&c0));
                traced.extend(samples);
            }
            Slice::Untraced => untraced.extend(samples),
            Slice::ObsOff => obs_off.extend(samples),
        }
    });
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_file(&genexts);

    let mut layers = BTreeMap::new();
    if cfg.trace {
        let ops = traced.lat_ns.len() as f64;
        let rtt_ns: u64 = ["net.bin_rtt", "net.bin_object_rtt", "net.http_rtt"]
            .iter()
            .map(|name| trace::agg(name).total_ns)
            .sum();
        layers.insert("server.restore_us", trace::agg("server.restore").mean_us());
        layers.insert("server.hit_us", report::mean_us(deltas.serve));
        layers.insert("net.bin_rtt_us", trace::agg("net.bin_rtt").mean_us());
        layers.insert("net.http_rtt_us", trace::agg("net.http_rtt").mean_us());
        layers.insert(
            "net.server_self_us",
            report::ratio(rtt_ns.saturating_sub(deltas.serve.0) as f64, ops * 1e3),
        );
        layers.insert(
            "net.object_decode_us",
            trace::agg("net.object_decode").mean_us(),
        );
        layers.insert(
            "net.resp_bytes_per_op",
            report::ratio(resp_bytes as f64, ops),
        );
        layers.insert(
            "obs.overhead_frac",
            1.0 - report::ratio(untraced.ops_per_s(), obs_off.ops_per_s()),
        );
        crate::common_layers(&mut layers, &deltas, &untraced, &traced);
        untraced.extend(traced);
        untraced.extend(obs_off);
    }
    let stats = state.service.stats();
    let net = state
        .server
        .take()
        .map(|server| {
            let _ = state.bin.shutdown(std::net::Shutdown::Both);
            let _ = state.http.shutdown(std::net::Shutdown::Both);
            server.shutdown()
        })
        .expect("server still running");
    let meta = format!(
        "\"prepare_s\": {prepare_s:.3}, \"working_set\": {WIRE_KEYS}, \"obs_enabled\": {}, \"service\": {}, \"net\": {}",
        obs::enabled(),
        stats.to_json(),
        net.to_json()
    );
    Outcome {
        samples: untraced,
        setup_samples: setup_times,
        layers,
        meta,
    }
}

/// A response as the client received it.
enum Reply {
    /// A metadata body, binary or HTTP.
    Meta(Vec<u8>),
    /// A decoded object fetch.
    Object(Image),
}

/// Sends one request and reads its response, decoding an object fetch.
/// Returns the response and its size in bytes.
fn round_trip(
    state: &mut State,
    key: &Key,
    op: WireOp,
    http_buf: &mut Vec<u8>,
) -> (Result<Reply, String>, u64) {
    match op.kind {
        WireKind::BinMeta | WireKind::BinObject => {
            let (frame, want, span_name) = if op.kind == WireKind::BinMeta {
                (&key.meta_frame, wire::RESP_META, "net.bin_rtt")
            } else {
                (&key.object_frame, wire::RESP_OBJECT, "net.bin_object_rtt")
            };
            let resp = span(span_name, || {
                state
                    .bin
                    .write_all(frame)
                    .map_err(|e| format!("send: {e}"))?;
                wire::read_frame(&mut state.bin, MAX_FRAME)
                    .map_err(|e| format!("read: {e}"))?
                    .ok_or_else(|| "connection closed".to_string())
            });
            let resp = match resp {
                Ok(r) => r,
                Err(e) => return (Err(e), 0),
            };
            let bytes = (wire::HEADER_LEN + resp.payload.len()) as u64;
            if resp.ftype != want {
                let msg = String::from_utf8_lossy(&resp.payload).to_string();
                return (Err(format!("frame {:#x}: {msg}", resp.ftype)), bytes);
            }
            if op.kind == WireKind::BinMeta {
                return (Ok(Reply::Meta(resp.payload)), bytes);
            }
            let image = span("net.object_decode", || decode_image(&resp.payload));
            (
                image
                    .map(Reply::Object)
                    .map_err(|e| format!("decode: {e}")),
                bytes,
            )
        }
        WireKind::Http => {
            let resp = span("net.http_rtt", || {
                state
                    .http
                    .write_all(&key.http_request)
                    .map_err(|e| format!("send: {e}"))?;
                read_http(&mut state.http, http_buf)
            });
            match resp {
                Ok((status, body)) => {
                    let bytes = body.len() as u64;
                    if !status.starts_with("HTTP/1.1 200") {
                        return (Err(status), bytes);
                    }
                    (Ok(Reply::Meta(body)), bytes)
                }
                Err(e) => (Err(e), 0),
            }
        }
    }
}

/// Checks a response: its `code_size` against the cached entry's, and a
/// sampled object's result on its input against the interpreter's.
fn verify(
    key: &Key,
    op: WireOp,
    reply: Reply,
    oracle: &HashMap<(Lang, i64, i64), Datum>,
) -> Result<(), String> {
    match reply {
        Reply::Meta(body) => check_size(code_size_of(&body), key.code_size),
        Reply::Object(image) => {
            check_size(Some(image.code_size()), key.code_size)?;
            match op.exec_size {
                Some(size) => check(
                    exec(&image, &key.lang.input(size)),
                    &oracle[&(key.lang, key.bias, size)],
                ),
                None => Ok(()),
            }
        }
    }
}
