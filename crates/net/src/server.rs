//! The socket front end: accept loops, per-connection handlers, the
//! reaper, and graceful drain.
//!
//! # Threading model
//!
//! A small pool of accept threads shares one non-blocking listener
//! (thread-per-core, capped); each accepted connection gets its own named
//! handler thread whose top frame is a `catch_unwind` barrier — a bug in
//! one connection can never take down the process or any other
//! connection. A single reaper thread owns deadline enforcement and
//! disconnect detection for connections that are busy specializing.
//!
//! # Failure domains
//!
//! Every read and write runs under a deadline (`SO_RCVTIMEO`-style ticks
//! against an absolute budget), so slow-loris peers, stalled writers, and
//! half-open connections are *reaped*, never waited on. Protocol garbage
//! is answered with a typed error and a close; the accept loop — and
//! every other connection — keeps serving. Client disconnects noticed
//! mid-request fire the request's [`CancelToken`] child so the
//! specializer stops burning fuel for an answer nobody will read.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use two4one::{encode_image, obs, CancelToken, Division, Limits, Pgg, BT};
use two4one_langs::grammar as langs_grammar;
use two4one_server::{ServeError, SpecRequest, SpecService, Statics};

use crate::http;
use crate::json::{self, Json};
use crate::stats::{NetSnapshot, NetStats};
use crate::tenants::{TenantDenied, TenantGuard, TenantTable};
use crate::wire::{self, ProtocolError, WireError};

/// Tuning for a [`NetServer`]. The defaults are production-shaped:
/// bounded everywhere, generous nowhere.
#[derive(Debug)]
pub struct NetConfig {
    /// Listen address, e.g. `"127.0.0.1:4174"`; port `0` picks a free one.
    pub listen: String,
    /// Accept threads; `0` means `min(available cores, 8)`.
    pub accept_threads: usize,
    /// Global open-connection budget; connections beyond it are refused
    /// at accept (before any handler thread is spawned).
    pub max_conns: usize,
    /// Socket poll granularity: how often blocked reads/writes re-check
    /// their deadline, and how often the reaper sweeps.
    pub io_tick: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before it is reaped.
    pub idle_timeout: Duration,
    /// Budget for reading one request once its first byte arrived, for
    /// serving it, and (separately) for writing its response. This is the
    /// slow-loris bound: a peer trickling one byte per tick still hits it.
    pub request_deadline: Duration,
    /// How long drain waits for in-flight connections before shedding
    /// the stragglers.
    pub drain_timeout: Duration,
    /// Largest accepted binary-protocol payload.
    pub max_frame: usize,
    /// Largest accepted HTTP request head.
    pub max_http_head: usize,
    /// Largest accepted HTTP request body.
    pub max_http_body: usize,
    /// Tenant table; `None` runs the server in open (unauthenticated)
    /// mode.
    pub tenants: Option<TenantTable>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            listen: "127.0.0.1:0".to_string(),
            accept_threads: 0,
            max_conns: 256,
            io_tick: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            max_frame: 16 << 20,
            max_http_head: 16 << 10,
            max_http_body: 1 << 20,
            tenants: None,
        }
    }
}

/// Connection lifecycle states (for the reaper's benefit).
const READING: u8 = 0;
/// The handler is inside the service — doing no socket I/O — so the
/// reaper may probe the socket for a client disconnect.
const SERVING: u8 = 1;
const WRITING: u8 = 2;

/// What the reaper knows about one live connection.
struct ConnWatch {
    /// A `try_clone` of the connection socket (shares the fd).
    stream: TcpStream,
    /// Current lifecycle state (`READING` / `SERVING` / `WRITING`).
    state: AtomicU8,
    /// Connection-scoped cancel token; requests derive children from it,
    /// so firing it stops whatever the connection is working on.
    cancel: CancelToken,
    /// Set once a disconnect has been counted (the reaper sweeps every
    /// tick; the counter must move once per connection, not per tick).
    disconnect_noted: AtomicBool,
}

struct ServerInner {
    service: Arc<SpecService>,
    config: NetConfig,
    listener: TcpListener,
    addr: SocketAddr,
    draining: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    accept_stop: AtomicBool,
    reaper_stop: AtomicBool,
    next_conn_id: AtomicU64,
    active_conns: AtomicUsize,
    conns: Mutex<HashMap<u64, Arc<ConnWatch>>>,
    stats: NetStats,
    registry: obs::MetricsRegistry,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServerInner {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

/// A running network front end over one [`SpecService`].
///
/// Bind with [`NetServer::bind`]; stop with [`NetServer::drain`] +
/// [`NetServer::join`] (or [`NetServer::shutdown`] for both at once).
pub struct NetServer {
    inner: Arc<ServerInner>,
    accept_handles: Vec<thread::JoinHandle<()>>,
    reaper_handle: Option<thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds the listener and starts the accept pool and reaper.
    ///
    /// # Errors
    ///
    /// Socket-level failures from binding or configuring the listener.
    pub fn bind(service: Arc<SpecService>, config: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let registry = obs::MetricsRegistry::new();
        let stats = NetStats::register(&registry);
        let threads = if config.accept_threads == 0 {
            thread::available_parallelism()
                .map_or(2, usize::from)
                .min(8)
        } else {
            config.accept_threads
        };
        let inner = Arc::new(ServerInner {
            service,
            config,
            listener,
            addr,
            draining: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            accept_stop: AtomicBool::new(false),
            reaper_stop: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(1),
            active_conns: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            stats,
            registry,
        });
        let mut accept_handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let inner = Arc::clone(&inner);
            let handle = thread::Builder::new()
                .name(format!("t4o-net-accept-{i}"))
                .spawn(move || accept_loop(&inner))
                .map_err(|e| io::Error::other(format!("cannot spawn accept thread: {e}")))?;
            accept_handles.push(handle);
        }
        let reaper_inner = Arc::clone(&inner);
        let reaper_handle = thread::Builder::new()
            .name("t4o-net-reaper".to_string())
            .spawn(move || reaper_loop(&reaper_inner))
            .map_err(|e| io::Error::other(format!("cannot spawn reaper thread: {e}")))?;
        Ok(NetServer {
            inner,
            accept_handles,
            reaper_handle: Some(reaper_handle),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The service this front end exposes.
    pub fn service(&self) -> &Arc<SpecService> {
        &self.inner.service
    }

    /// True once [`drain`](NetServer::drain) has been called.
    pub fn draining(&self) -> bool {
        self.inner.draining()
    }

    /// A point-in-time copy of the network counters.
    pub fn net_snapshot(&self) -> NetSnapshot {
        self.inner.stats.snapshot()
    }

    /// The network-layer metrics merged with the service's (which already
    /// include the process-global families) — the exact content of the
    /// `/metrics` endpoint.
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        self.inner
            .registry
            .snapshot()
            .merge(self.inner.service.metrics())
    }

    /// Begins a graceful drain: stop accepting, let in-flight work finish
    /// within the drain timeout, shed whatever remains. Idempotent.
    pub fn drain(&self) {
        if !self.inner.draining.swap(true, Ordering::AcqRel) {
            self.inner.stats.drain_events.inc();
            *lock(&self.inner.drain_deadline) =
                Some(Instant::now() + self.inner.config.drain_timeout);
        }
    }

    /// Waits for the drain to complete (all accept threads exited, all
    /// connections closed or shed, reaper stopped) and returns the final
    /// counters. Call [`drain`](NetServer::drain) first.
    pub fn join(mut self) -> NetSnapshot {
        self.drain();
        // In-flight connections get the drain timeout plus a grace period
        // for the reaper's forced shed to take effect. The accept threads
        // stay alive through this window, fast-closing any new arrivals.
        let give_up = Instant::now() + self.inner.config.drain_timeout + Duration::from_secs(2);
        while self.inner.active_conns.load(Ordering::Acquire) > 0 && Instant::now() < give_up {
            thread::sleep(Duration::from_millis(5));
        }
        self.inner.accept_stop.store(true, Ordering::Release);
        for handle in self.accept_handles.drain(..) {
            let _ = handle.join();
        }
        self.inner.reaper_stop.store(true, Ordering::Release);
        if let Some(handle) = self.reaper_handle.take() {
            let _ = handle.join();
        }
        self.inner.stats.snapshot()
    }

    /// [`drain`](NetServer::drain) + [`join`](NetServer::join).
    pub fn shutdown(self) -> NetSnapshot {
        self.drain();
        self.join()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // A dropped (not joined) server must not leave threads spinning.
        self.drain();
        self.inner.accept_stop.store(true, Ordering::Release);
        self.inner.reaper_stop.store(true, Ordering::Release);
    }
}

// ---- accept ------------------------------------------------------------

fn accept_loop(inner: &Arc<ServerInner>) {
    loop {
        if inner.accept_stop.load(Ordering::Acquire) {
            return;
        }
        match inner.listener.accept() {
            // While draining, keep accepting but shed immediately: a new
            // client gets a fast close instead of rotting in the TCP
            // backlog until the process exits.
            Ok((stream, _peer)) if inner.draining() => {
                inner.stats.conns_rejected.inc();
                let _ = stream.shutdown(Shutdown::Both);
            }
            Ok((stream, _peer)) => handle_accept(inner, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failures (EMFILE, ECONNABORTED, …)
                // must not kill the accept loop — back off and retry.
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn handle_accept(inner: &Arc<ServerInner>, stream: TcpStream) {
    inner.stats.conns_accepted.inc();
    let prev = inner.active_conns.fetch_add(1, Ordering::AcqRel);
    if prev >= inner.config.max_conns || inner.draining() {
        inner.active_conns.fetch_sub(1, Ordering::AcqRel);
        inner.stats.conns_rejected.inc();
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let watch_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            inner.active_conns.fetch_sub(1, Ordering::AcqRel);
            inner.stats.conns_rejected.inc();
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
    let watch = Arc::new(ConnWatch {
        stream: watch_stream,
        state: AtomicU8::new(READING),
        cancel: CancelToken::new(),
        disconnect_noted: AtomicBool::new(false),
    });
    lock(&inner.conns).insert(id, Arc::clone(&watch));
    let spawn_inner = Arc::clone(inner);
    let spawned = thread::Builder::new()
        .name(format!("t4o-net-conn-{id}"))
        .spawn(move || {
            spawn_inner.stats.open_conns.add(1);
            // The catch_unwind barrier is the crate's last line of
            // defense: handler code is written panic-free, and the storm
            // tests assert this counter stays at zero.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                serve_conn(&spawn_inner, &stream, &watch);
            }));
            if outcome.is_err() {
                spawn_inner.stats.worker_panics.inc();
            }
            let _ = stream.shutdown(Shutdown::Both);
            lock(&spawn_inner.conns).remove(&id);
            spawn_inner.stats.open_conns.add(-1);
            spawn_inner.active_conns.fetch_sub(1, Ordering::AcqRel);
        });
    if spawned.is_err() {
        lock(&inner.conns).remove(&id);
        inner.active_conns.fetch_sub(1, Ordering::AcqRel);
        inner.stats.conns_rejected.inc();
    }
}

// ---- reaper ------------------------------------------------------------

fn reaper_loop(inner: &Arc<ServerInner>) {
    loop {
        if inner.reaper_stop.load(Ordering::Acquire) {
            return;
        }
        let watches: Vec<Arc<ConnWatch>> = lock(&inner.conns).values().cloned().collect();
        for watch in &watches {
            if watch.state.load(Ordering::Acquire) != SERVING {
                continue;
            }
            // The handler does no socket I/O while SERVING, so the reaper
            // may briefly flip the shared fd non-blocking to probe for a
            // client disconnect. (All handler I/O loops tolerate a stray
            // `WouldBlock` anyway, so the race on the flag is benign.)
            let mut probe = [0u8; 1];
            let _ = watch.stream.set_nonblocking(true);
            let gone = match watch.stream.peek(&mut probe) {
                Ok(0) => true,
                Ok(_) => false,
                Err(e) => e.kind() != io::ErrorKind::WouldBlock,
            };
            let _ = watch.stream.set_nonblocking(false);
            if gone && !watch.disconnect_noted.swap(true, Ordering::AcqRel) {
                watch.cancel.cancel();
                inner.stats.disconnects.inc();
            }
        }
        // Past the drain deadline, shed everything still open: cancel the
        // work and sever the sockets so blocked reads/writes fail fast.
        let past_drain =
            inner.draining() && lock(&inner.drain_deadline).is_some_and(|d| Instant::now() >= d);
        if past_drain {
            for watch in &watches {
                watch.cancel.cancel();
                if !watch.disconnect_noted.swap(true, Ordering::AcqRel) {
                    inner.stats.conns_reaped.inc();
                }
                let _ = watch.stream.shutdown(Shutdown::Both);
            }
        }
        thread::sleep(inner.config.io_tick);
    }
}

// ---- deadline-bounded socket I/O ---------------------------------------

/// An [`io::Read`] adapter that turns a ticking socket into
/// deadline-bounded reads: waiting for the *first* byte is governed by
/// the idle budget (and cut short by drain), while finishing a started
/// request is governed by the much tighter request budget — which is
/// exactly the slow-loris bound.
struct TickReader<'a> {
    stream: &'a TcpStream,
    draining: &'a AtomicBool,
    idle_until: Instant,
    budget: Duration,
    hard_deadline: Option<Instant>,
}

impl<'a> TickReader<'a> {
    fn new(
        stream: &'a TcpStream,
        draining: &'a AtomicBool,
        idle_until: Instant,
        budget: Duration,
    ) -> Self {
        TickReader {
            stream,
            draining,
            idle_until,
            budget,
            hard_deadline: None,
        }
    }
}

impl Read for TickReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    if self.hard_deadline.is_none() {
                        self.hard_deadline = Some(Instant::now() + self.budget);
                    }
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    let now = Instant::now();
                    match self.hard_deadline {
                        // Mid-request: the peer has the request budget to
                        // deliver the rest, trickling or not.
                        Some(hard) if now >= hard => {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "request read deadline exceeded",
                            ))
                        }
                        Some(_) => {}
                        // Between requests: drain closes the connection
                        // cleanly; idle expiry reaps it.
                        None if self.draining.load(Ordering::Acquire) => return Ok(0),
                        None if now >= self.idle_until => {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "idle deadline exceeded",
                            ))
                        }
                        None => {}
                    }
                    // SO_RCVTIMEO already blocked for a tick; the sleep
                    // only bounds the spin if the fd is momentarily
                    // non-blocking (reaper probe).
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Writes all of `bytes`, retrying `WouldBlock`/`TimedOut` ticks until
/// `deadline` — the stalled-writer bound.
fn write_all_deadline(mut out: impl Write, bytes: &[u8], deadline: Instant) -> io::Result<()> {
    let mut at = 0;
    while at < bytes.len() {
        match out.write(&bytes[at..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "response write deadline exceeded",
                    ));
                }
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---- connection handling -----------------------------------------------

fn serve_conn(inner: &Arc<ServerInner>, stream: &TcpStream, watch: &Arc<ConnWatch>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.config.io_tick));
    let _ = stream.set_write_timeout(Some(inner.config.io_tick));
    // Protocol sniff: a binary-protocol client's first bytes are the
    // frame magic; anything else is treated as HTTP.
    let idle_until = Instant::now() + inner.config.idle_timeout;
    let mut first = [0u8; 4];
    let is_binary = loop {
        match stream.peek(&mut first) {
            Ok(0) => return,
            Ok(n) => {
                if first[..n] != wire::MAGIC[..n] {
                    break false;
                }
                if n == 4 {
                    break true;
                }
                // A true prefix of the magic: wait for more bytes (the
                // idle deadline still applies below).
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
        if inner.draining() {
            return;
        }
        if Instant::now() >= idle_until {
            inner.stats.conns_reaped.inc();
            return;
        }
        thread::sleep(Duration::from_millis(1));
    };
    if is_binary {
        serve_binary(inner, stream, watch);
    } else {
        serve_http(inner, stream, watch);
    }
}

/// What a successful request produced: gen-ext payloads stay behind the
/// extension's shared `Arc` until the response frame is encoded, the one
/// copy they take.
enum Payload {
    Empty,
    Bytes(Vec<u8>),
    GenExt(Arc<[u8]>),
}

impl Payload {
    fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Empty => &[],
            Payload::Bytes(b) => b,
            Payload::GenExt(g) => g,
        }
    }
}

fn serve_binary(inner: &Arc<ServerInner>, stream: &TcpStream, watch: &Arc<ConnWatch>) {
    loop {
        watch.state.store(READING, Ordering::Release);
        if watch.cancel.is_cancelled() {
            return;
        }
        let idle_until = Instant::now() + inner.config.idle_timeout;
        let mut reader = TickReader::new(
            stream,
            &inner.draining,
            idle_until,
            inner.config.request_deadline,
        );
        let frame = match wire::read_frame(&mut reader, inner.config.max_frame) {
            // A clean close (or drain boundary) — unless the peer reset
            // the connection under our last response, which it left
            // without reading. The read reports the close, not the reset.
            Ok(None) => {
                if matches!(stream.take_error(), Ok(Some(_))) {
                    inner.stats.disconnects.inc();
                }
                return;
            }
            Ok(Some(frame)) => frame,
            Err(ProtocolError::Io(e)) => {
                if e.kind() == io::ErrorKind::TimedOut {
                    inner.stats.conns_reaped.inc();
                } else {
                    inner.stats.disconnects.inc();
                }
                return;
            }
            Err(e) => {
                // Framing is unrecoverable — the stream has lost sync.
                // Report the typed error (best effort) and close; the
                // accept loop and every other connection keep going.
                let err = bad_request(inner, &e).encode();
                let _ = write_response(inner, watch, |by| {
                    send_frame(stream, wire::RESP_ERROR, &err, by)
                });
                return;
            }
        };
        inner.stats.requests_bin.inc();
        let answer = dispatch_frame(inner, watch, &frame);
        let write_ok = match answer {
            Ok((ftype, payload)) => {
                let ok = write_response(inner, watch, |by| {
                    send_frame(stream, ftype, payload.as_slice(), by)
                });
                if ok {
                    inner.stats.responses_ok.inc();
                }
                ok
            }
            Err(err) => write_response(inner, watch, |by| {
                send_frame(stream, wire::RESP_ERROR, &err.encode(), by)
            }),
        };
        if !write_ok || inner.draining() {
            return;
        }
    }
}

/// Writes one response, binary frame or HTTP, with the connection in the
/// writing state: `write` gets the write deadline. `false` means the
/// connection is no longer usable — a write that stalled past the
/// deadline counts as reaped, any other failure as a disconnect.
fn write_response(
    inner: &ServerInner,
    watch: &ConnWatch,
    write: impl FnOnce(Instant) -> io::Result<()>,
) -> bool {
    watch.state.store(WRITING, Ordering::Release);
    match write(Instant::now() + inner.config.request_deadline) {
        Ok(()) => true,
        Err(e) => {
            if e.kind() == io::ErrorKind::TimedOut {
                inner.stats.conns_reaped.inc();
            } else {
                inner.stats.disconnects.inc();
            }
            false
        }
    }
}

/// Sends one frame as the one buffer [`wire::encode_frame`] builds: under
/// `TCP_NODELAY` a header written apart from its payload leaves as a
/// segment of its own, which costs the client a second wakeup.
fn send_frame(out: impl Write, ftype: u8, payload: &[u8], deadline: Instant) -> io::Result<()> {
    write_all_deadline(out, &wire::encode_frame(ftype, payload), deadline)
}

fn dispatch_frame(
    inner: &Arc<ServerInner>,
    watch: &Arc<ConnWatch>,
    frame: &wire::Frame,
) -> Result<(u8, Payload), WireError> {
    match frame.ftype {
        wire::REQ_PING => Ok((wire::RESP_PONG, Payload::Empty)),
        wire::REQ_SPEC => {
            let req = SpecWire::decode(&frame.payload).map_err(|e| bad_request(inner, &e))?;
            spec_call(
                inner,
                watch,
                &req.token,
                &req.name,
                &req.statics,
                u64::from(req.deadline_ms),
                req.want,
            )
        }
        wire::REQ_REGISTER => {
            let req = wire::RegisterWireRequest::decode(&frame.payload)
                .map_err(|e| bad_request(inner, &e))?;
            register_call(inner, watch, &req)
        }
        wire::REQ_GRAMMAR => {
            let req = wire::GrammarWireRequest::decode(&frame.payload)
                .map_err(|e| bad_request(inner, &e))?;
            grammar_call(inner, watch, &req)
        }
        // A well-formed frame of an unexpected type: sync is intact, so
        // answer the typed error and keep the connection.
        other => Err(bad_request(inner, &ProtocolError::UnknownType(other))),
    }
}

/// The counted 400 for a binary request that does not decode: a framing
/// error, a malformed payload, or a frame type nothing answers.
fn bad_request(inner: &ServerInner, e: &ProtocolError) -> WireError {
    inner.stats.protocol_errors.inc();
    WireError {
        code: 400,
        retry_after_ms: 0,
        message: e.to_string(),
    }
}

// Local alias so the decode call sites stay short.
use wire::SpecWireRequest as SpecWire;

/// Admits the request at the tenant layer (when one is configured).
fn admit_tenant(inner: &ServerInner, token: &str) -> Result<Option<TenantGuard>, WireError> {
    let Some(table) = &inner.config.tenants else {
        return Ok(None);
    };
    match table.admit(token) {
        Ok(guard) => Ok(Some(guard)),
        Err(TenantDenied::UnknownToken) => {
            inner.stats.auth_failures.inc();
            Err(WireError {
                code: 401,
                retry_after_ms: 0,
                message: "unknown tenant token".to_string(),
            })
        }
        Err(TenantDenied::OverQuota {
            name,
            retry_after_ms,
        }) => {
            inner.stats.tenant_rejections.inc();
            inner.stats.overloaded.inc();
            Err(WireError {
                code: 429,
                retry_after_ms,
                message: format!("tenant `{name}` is over its fair-share quota"),
            })
        }
    }
}

/// The shared specialize path behind both protocols: tenant admission,
/// scanning the statics, a per-request cancel child, the service call,
/// and the error mapping.
fn spec_call(
    inner: &Arc<ServerInner>,
    watch: &Arc<ConnWatch>,
    token: &str,
    name: &str,
    statics_text: &str,
    deadline_ms: u64,
    want: u8,
) -> Result<(u8, Payload), WireError> {
    // The guard holds the tenant's quota slot for the whole call.
    let _tenant = admit_tenant(inner, token)?;
    // The statics are scanned straight to the cache key's bytes: a hit
    // builds no data, and a miss decodes them on its fill thread, so this
    // thread's stack never holds more than the scan's loop.
    let statics = Statics::scan(statics_text, &Limits::default()).map_err(|e| WireError {
        code: 400,
        retry_after_ms: 0,
        message: format!("bad statics: {e}"),
    })?;
    // The service arms the deadline on the token it is handed, and a
    // token's expiry is first-call-wins — so every request gets a fresh
    // child of the connection token: client disconnect (parent) still
    // cancels it, but its deadline is its own.
    let cancel = watch.cancel.child();
    let deadline = if deadline_ms > 0 {
        inner
            .config
            .request_deadline
            .min(Duration::from_millis(deadline_ms))
    } else {
        inner.config.request_deadline
    };
    let request = SpecRequest::named(name, statics)
        .with_deadline(deadline)
        .with_cancel(cancel);
    watch.state.store(SERVING, Ordering::Release);
    let started = Instant::now();
    let outcome = inner.service.specialize_request(&request);
    inner
        .stats
        .request_latency
        .record_duration(started.elapsed());
    watch.state.store(READING, Ordering::Release);
    let outcome = outcome.map_err(|e| serve_error_to_wire(inner, &e))?;
    match want {
        wire::WANT_OBJECT => Ok((
            wire::RESP_OBJECT,
            Payload::Bytes(encode_image(&outcome.image)),
        )),
        wire::WANT_GENEXT => match inner.service.genext_of(name).map(|g| g.to_bytes()) {
            Some(Ok(bytes)) => Ok((wire::RESP_GENEXT, Payload::GenExt(bytes))),
            _ => Err(WireError {
                code: 404,
                retry_after_ms: 0,
                message: format!("no compiled generating extension for `{name}`"),
            }),
        },
        _ => Ok((
            wire::RESP_META,
            Payload::Bytes(meta_json(name, &outcome).into_bytes()),
        )),
    }
}

fn register_call(
    inner: &Arc<ServerInner>,
    watch: &Arc<ConnWatch>,
    req: &wire::RegisterWireRequest,
) -> Result<(u8, Payload), WireError> {
    let _tenant = admit_tenant(inner, &req.token)?;
    let bad = |message: String| WireError {
        code: 400,
        retry_after_ms: 0,
        message,
    };
    let mut division = Vec::new();
    for c in req.division.chars() {
        match c.to_ascii_uppercase() {
            'S' => division.push(BT::Static),
            'D' => division.push(BT::Dynamic),
            other => return Err(bad(format!("bad division letter `{other}` (use S/D)"))),
        }
    }
    watch.state.store(SERVING, Ordering::Release);
    // Parsing and the binding-time analysis recurse over the program, so
    // they run on a big stack, not on this connection thread: a long
    // `cond` must not overflow it.
    let (source, entry) = (req.source.clone(), req.entry.clone());
    let built = two4one::with_stack(move || {
        let pgg = Pgg::new();
        let program = pgg.parse(&source).map_err(|e| e.to_string())?;
        pgg.cogen(&program, &entry, &Division::new(division))
            .map_err(|e| e.to_string())
    });
    watch.state.store(READING, Ordering::Release);
    let genext = built.map_err(bad)?;
    let epoch = inner.service.register(&req.name, &genext);
    let body = format!(
        "{{\"registered\": {}, \"epoch\": {}}}",
        obs::json_escape(&req.name),
        epoch.get()
    );
    Ok((wire::RESP_META, Payload::Bytes(body.into_bytes())))
}

/// The [`wire::REQ_GRAMMAR`] path: validate the grammar text, splice it
/// into the matcher interpreter (grammar static, input word dynamic),
/// build the generating extension under the matcher's unfold/memoize
/// policies, and register it like any other named program — so redefining
/// a grammar bumps its epoch and invalidates every cached recognizer, and
/// [`wire::REQ_SPEC`] with no statics serves the compiled recognizer.
fn grammar_call(
    inner: &Arc<ServerInner>,
    watch: &Arc<ConnWatch>,
    req: &wire::GrammarWireRequest,
) -> Result<(u8, Payload), WireError> {
    let _tenant = admit_tenant(inner, &req.token)?;
    let grammar = match langs_grammar::parse(&req.text) {
        Ok(g) => g,
        Err(e) => {
            // A grammar outside the LL(1) subset is a client error with a
            // typed explanation, never a server fault.
            inner.stats.match_rejected.inc();
            return Err(WireError {
                code: 400,
                retry_after_ms: 0,
                message: format!("bad grammar: {e}"),
            });
        }
    };
    watch.state.store(SERVING, Ordering::Release);
    let built = (|| {
        let pgg = langs_grammar::grammar_policies()
            .iter()
            .fold(Pgg::new(), |p, (name, pol)| p.policy(name, *pol));
        let source = langs_grammar::workload_source(&grammar);
        let program = pgg.parse(&source).map_err(|e| WireError {
            code: 500,
            retry_after_ms: 0,
            message: format!("matcher workload does not parse: {e}"),
        })?;
        pgg.cogen(
            &program,
            langs_grammar::WORKLOAD_ENTRY,
            &Division::new(vec![BT::Dynamic]),
        )
        .map_err(|e| WireError {
            code: 500,
            retry_after_ms: 0,
            message: format!("matcher workload does not analyze: {e}"),
        })
    })();
    watch.state.store(READING, Ordering::Release);
    let genext = built?;
    let epoch = inner.service.register(&req.name, &genext);
    inner.stats.match_registered.inc();
    let body = format!(
        "{{\"registered\": {}, \"epoch\": {}, \"start\": {}, \"rules\": {}}}",
        obs::json_escape(&req.name),
        epoch.get(),
        obs::json_escape(grammar.start()),
        grammar.rule_names().len(),
    );
    Ok((wire::RESP_META, Payload::Bytes(body.into_bytes())))
}

/// Maps a [`ServeError`] onto the shared HTTP-style code table (see
/// [`WireError`]).
fn serve_error_to_wire(inner: &ServerInner, e: &ServeError) -> WireError {
    let (code, retry_after_ms) = match e {
        ServeError::Overloaded { retry_after_ms, .. } => {
            inner.stats.overloaded.inc();
            (429, *retry_after_ms)
        }
        ServeError::DeadlineExceeded => (408, 0),
        ServeError::Cancelled => (499, 0),
        ServeError::UnknownProgram(_) => (404, 0),
        ServeError::BreakerOpen(_) => (503, 0),
        _ => (500, 0),
    };
    WireError {
        code,
        retry_after_ms,
        message: e.to_string(),
    }
}

/// The RESP_META / `POST /spec` success body.
fn meta_json(name: &str, outcome: &two4one_server::SpecOutcome) -> String {
    format!(
        concat!(
            "{{\"name\": {name}, \"entry\": {entry}, \"code_size\": {code}, ",
            "\"templates\": {templates}, \"degraded\": {degraded}, ",
            "\"unfolds\": {unfolds}, \"memo_hits\": {hits}}}"
        ),
        name = obs::json_escape(name),
        entry = obs::json_escape(outcome.image.entry.as_str()),
        code = outcome.code_size(),
        templates = outcome.image.templates.len(),
        degraded = outcome.stats.degraded(),
        unfolds = outcome.stats.unfolds,
        hits = outcome.stats.memo_hits,
    )
}

// ---- HTTP --------------------------------------------------------------

enum HeadRead {
    Closed,
    Reaped,
    TooLarge,
    Ok { head: String, leftover: Vec<u8> },
}

/// Reads one HTTP request head (everything through `\r\n\r\n`) under the
/// idle/request deadlines, returning any body bytes read past the
/// terminator.
fn read_http_head(inner: &ServerInner, stream: &TcpStream) -> HeadRead {
    let idle_until = Instant::now() + inner.config.idle_timeout;
    let mut reader = TickReader::new(
        stream,
        &inner.draining,
        idle_until,
        inner.config.request_deadline,
    );
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => return HeadRead::Closed,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some(end) = find_terminator(&buf) {
                    let leftover = buf.split_off(end + 4);
                    buf.truncate(end);
                    // Lossy decoding keeps hostile bytes from wedging the
                    // parser; the parse itself will reject what matters.
                    let head = String::from_utf8_lossy(&buf).into_owned();
                    return HeadRead::Ok { head, leftover };
                }
                if buf.len() > inner.config.max_http_head {
                    return HeadRead::TooLarge;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::TimedOut => return HeadRead::Reaped,
            Err(_) => return HeadRead::Closed,
        }
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn serve_http(inner: &Arc<ServerInner>, stream: &TcpStream, watch: &Arc<ConnWatch>) {
    loop {
        watch.state.store(READING, Ordering::Release);
        if watch.cancel.is_cancelled() {
            return;
        }
        let (head_text, leftover) = match read_http_head(inner, stream) {
            HeadRead::Closed => return,
            HeadRead::Reaped => {
                inner.stats.conns_reaped.inc();
                return;
            }
            HeadRead::TooLarge => {
                inner.stats.protocol_errors.inc();
                let body = b"{\"error\": \"request head too large\"}";
                let resp = http::response(431, "application/json", 0, body, false);
                let _ = write_response(inner, watch, |by| write_all_deadline(stream, &resp, by));
                return;
            }
            HeadRead::Ok { head, leftover } => (head, leftover),
        };
        inner.stats.requests_http.inc();
        let head = match http::parse_head(&head_text) {
            Ok(head) => head,
            Err(e) => {
                inner.stats.protocol_errors.inc();
                let body = format!("{{\"error\": {}}}", obs::json_escape(&e.to_string()));
                let resp = http::response(400, "application/json", 0, body.as_bytes(), false);
                let _ = write_response(inner, watch, |by| write_all_deadline(stream, &resp, by));
                return;
            }
        };
        if head.content_length > inner.config.max_http_body {
            inner.stats.protocol_errors.inc();
            let body = b"{\"error\": \"request body too large\"}";
            let resp = http::response(413, "application/json", 0, body, false);
            let _ = write_response(inner, watch, |by| write_all_deadline(stream, &resp, by));
            return;
        }
        let mut body = leftover;
        if body.len() < head.content_length {
            let mut reader = TickReader::new(
                stream,
                &inner.draining,
                Instant::now() + inner.config.request_deadline,
                inner.config.request_deadline,
            );
            let mut at = body.len();
            body.resize(head.content_length, 0);
            while at < body.len() {
                match reader.read(&mut body[at..]) {
                    Ok(0) => {
                        inner.stats.disconnects.inc();
                        return;
                    }
                    Ok(n) => at += n,
                    Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                        inner.stats.conns_reaped.inc();
                        return;
                    }
                    Err(_) => return,
                }
            }
        } else {
            body.truncate(head.content_length);
        }
        let keep_alive = head.keep_alive && !inner.draining();
        let resp = route_http(inner, watch, &head, &body, keep_alive);
        if !write_response(inner, watch, |by| write_all_deadline(stream, &resp, by)) || !keep_alive
        {
            return;
        }
    }
}

fn route_http(
    inner: &Arc<ServerInner>,
    watch: &Arc<ConnWatch>,
    head: &http::Head,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let path = head.path.split('?').next().unwrap_or("");
    match (head.method.as_str(), path) {
        ("GET", "/healthz") => {
            if inner.draining() {
                http::response(
                    503,
                    "text/plain; charset=utf-8",
                    0,
                    b"draining\n",
                    keep_alive,
                )
            } else {
                http::response(200, "text/plain; charset=utf-8", 0, b"ok\n", keep_alive)
            }
        }
        ("GET", "/metrics") => {
            let page = inner
                .registry
                .snapshot()
                .merge(inner.service.metrics())
                .to_prometheus();
            http::response(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                0,
                page.as_bytes(),
                keep_alive,
            )
        }
        ("GET", "/stats") => {
            let page = format!(
                "{{\"net\": {}, \"metrics\": {}}}",
                inner.stats.snapshot().to_json(),
                inner
                    .registry
                    .snapshot()
                    .merge(inner.service.metrics())
                    .to_json()
            );
            http::response(200, "application/json", 0, page.as_bytes(), keep_alive)
        }
        ("POST", "/spec") => http_spec(inner, watch, head, body, keep_alive),
        ("GET" | "POST", _) => http::response(
            404,
            "application/json",
            0,
            b"{\"error\": \"no such endpoint\"}",
            keep_alive,
        ),
        _ => http::response(
            405,
            "application/json",
            0,
            b"{\"error\": \"method not allowed\"}",
            keep_alive,
        ),
    }
}

/// `POST /spec`: the JSON shape is
/// `{"name": "...", "statics": "..." | ["...", ...], "deadline_ms": N,
///   "want": "meta"|"object"|"genext", "token": "..."}` — the token may
/// instead arrive as `Authorization: Bearer`.
fn http_spec(
    inner: &Arc<ServerInner>,
    watch: &Arc<ConnWatch>,
    head: &http::Head,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let error = |status: u16, retry_ms: u64, msg: &str| {
        let body = format!(
            "{{\"error\": {}, \"retry_after_ms\": {retry_ms}}}",
            obs::json_escape(msg)
        );
        http::response(
            status,
            "application/json",
            retry_ms,
            body.as_bytes(),
            keep_alive,
        )
    };
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return error(400, 0, "body is not UTF-8"),
    };
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(e) => return error(400, 0, &e.to_string()),
    };
    let Some(name) = doc.get("name").and_then(Json::as_str) else {
        return error(400, 0, "missing \"name\"");
    };
    let statics = match doc.get("statics") {
        None => String::new(),
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Arr(items)) => {
            let mut parts = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(s) => parts.push(s),
                    None => return error(400, 0, "\"statics\" array must hold strings"),
                }
            }
            parts.join(" ")
        }
        Some(_) => return error(400, 0, "\"statics\" must be a string or array"),
    };
    let deadline_ms = doc
        .get("deadline_ms")
        .and_then(Json::as_int)
        .map_or(0, |n| n.max(0) as u64);
    let want = match doc.get("want").and_then(Json::as_str) {
        None | Some("meta") => wire::WANT_META,
        Some("object") => wire::WANT_OBJECT,
        Some("genext") => wire::WANT_GENEXT,
        Some(other) => return error(400, 0, &format!("unknown \"want\": {other}")),
    };
    let token = doc
        .get("token")
        .and_then(Json::as_str)
        .or_else(|| head.bearer_token())
        .unwrap_or("");
    match spec_call(inner, watch, token, name, &statics, deadline_ms, want) {
        Ok((ftype, payload)) => {
            inner.stats.responses_ok.inc();
            let content_type = if ftype == wire::RESP_META {
                "application/json"
            } else {
                "application/octet-stream"
            };
            http::response(200, content_type, 0, payload.as_slice(), keep_alive)
        }
        Err(e) => error(e.code, e.retry_after_ms, &e.message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call a response takes.
    #[derive(Default)]
    struct Recorder {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_frame_is_one_write() {
        let deadline = Instant::now() + Duration::from_secs(5);
        for (ftype, payload) in [
            (wire::RESP_PONG, &[][..]),
            (wire::RESP_META, &b"{\"code_size\":7}"[..]),
            (wire::RESP_OBJECT, &[0x5a; 4096][..]),
        ] {
            let mut out = Recorder::default();
            send_frame(&mut out, ftype, payload, deadline).expect("in-memory write");
            assert_eq!(
                out.writes, 1,
                "frame {ftype:#04x} took {} writes",
                out.writes
            );
            assert_eq!(out.bytes, wire::encode_frame(ftype, payload));
        }
    }
}
