//! The length-prefixed binary protocol.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"T4OW"
//! 4       1     version (currently 1)
//! 5       1     frame type
//! 6       2     reserved (must be zero)
//! 8       4     payload length
//! 12      4     CRC-32 of the payload
//! 16      len   payload
//! ```
//!
//! The payload of a successful [`RESP_OBJECT`] / [`RESP_GENEXT`] frame is
//! the raw `.t4o` / `.t4og` object bytes. The server sends every response
//! frame, header and payload, as one buffer built by [`encode_frame`], so
//! with `TCP_NODELAY` a response leaves as one write, not two segments.
//!
//! Every decoding failure is a typed [`ProtocolError`], never a panic:
//! torn frames, garbage magic, checksum mismatches, and oversized lengths
//! all map to distinct variants, mirroring the `.t4os` snapshot
//! quarantine discipline. After a framing error the byte stream can no
//! longer be trusted (the decoder has lost sync), so the connection loop
//! reports the error and closes; the *accept* loop — and every other
//! connection — keeps serving.

use std::fmt;
use std::io::{self, Read};
use two4one::objfile::{put_str, Reader};
use two4one::{crc32, ObjError};

/// Frame magic: the first four bytes of every binary-protocol frame (and
/// how the server tells the binary protocol from HTTP on a new
/// connection).
pub const MAGIC: [u8; 4] = *b"T4OW";

/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;

/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Specialize a registered program (payload: [`SpecWireRequest`]).
pub const REQ_SPEC: u8 = 0x01;
/// Register (or redefine) a program under a logical name (payload:
/// [`RegisterWireRequest`]).
pub const REQ_REGISTER: u8 = 0x02;
/// Liveness probe; the server answers [`RESP_PONG`].
pub const REQ_PING: u8 = 0x03;
/// Register (or redefine) a *grammar* under a logical name (payload:
/// [`GrammarWireRequest`]). The server compiles the grammar text into a
/// matcher workload — the grammar embedded static, the input word dynamic
/// — so a subsequent [`REQ_SPEC`] for the name (with no statics) answers
/// with the compiled recognizer.
pub const REQ_GRAMMAR: u8 = 0x04;

/// Success: payload is raw `.t4o` object bytes.
pub const RESP_OBJECT: u8 = 0x81;
/// Success: payload is a JSON document describing the outcome.
pub const RESP_META: u8 = 0x82;
/// Success: payload is raw `.t4og` compiled gen-ext bytes.
pub const RESP_GENEXT: u8 = 0x83;
/// Answer to [`REQ_PING`]; empty payload.
pub const RESP_PONG: u8 = 0x84;
/// Failure: payload is code + retry hint + message (see [`WireError`]).
pub const RESP_ERROR: u8 = 0x7f;

/// `want` value: the client asks for JSON metadata ([`RESP_META`]).
pub const WANT_META: u8 = 0;
/// `want` value: the client asks for `.t4o` object bytes ([`RESP_OBJECT`]).
pub const WANT_OBJECT: u8 = 1;
/// `want` value: the client asks for the registered program's compiled
/// generating extension as `.t4og` bytes ([`RESP_GENEXT`]).
pub const WANT_GENEXT: u8 = 2;

/// A typed wire-protocol failure. The decoding path can produce every
/// variant; none of them can panic the server.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The first four bytes of a frame were not [`MAGIC`] — the peer is
    /// speaking some other protocol or sent garbage.
    BadMagic([u8; 4]),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame type for this direction.
    UnknownType(u8),
    /// Declared payload length exceeds the configured cap. Checked
    /// *before* allocating, so a hostile length cannot OOM the server.
    FrameTooLarge {
        /// Declared payload length.
        len: u64,
        /// The configured cap.
        max: u64,
    },
    /// The peer closed (or the stream ended) mid-frame.
    Torn {
        /// Bytes still needed to complete the frame part being read.
        needed: usize,
        /// Bytes actually received for that part.
        got: usize,
    },
    /// Payload CRC-32 mismatch: the frame arrived complete but corrupt.
    BadChecksum {
        /// CRC the header declared.
        declared: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// The frame decoded but its payload is malformed for its type.
    BadPayload(&'static str),
    /// The underlying socket failed (reset, timeout, …).
    Io(io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap {max}")
            }
            ProtocolError::Torn { needed, got } => {
                write!(f, "torn frame: needed {needed} more bytes, got {got}")
            }
            ProtocolError::BadChecksum { declared, computed } => write!(
                f,
                "payload checksum mismatch (declared {declared:#010x}, computed {computed:#010x})"
            ),
            ProtocolError::BadPayload(what) => write!(f, "malformed payload: {what}"),
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// A payload field that does not decode: cut short, or not UTF-8.
impl From<ObjError> for ProtocolError {
    fn from(e: ObjError) -> Self {
        ProtocolError::BadPayload(match e {
            ObjError::BadUtf8 => "non-UTF-8 string",
            _ => "truncated field",
        })
    }
}

/// One decoded frame: its type byte and verified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame-type byte (`REQ_*` / `RESP_*`).
    pub ftype: u8,
    /// The payload, already CRC-verified.
    pub payload: Vec<u8>,
}

/// Encodes a complete frame (header + payload) into one buffer, which
/// clients and the server alike write to the socket in one call.
pub fn encode_frame(ftype: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&header_bytes(ftype, payload));
    out.extend_from_slice(payload);
    out
}

/// The 16-byte header for a frame of type `ftype` carrying `payload`.
fn header_bytes(ftype: u8, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4] = VERSION;
    h[5] = ftype;
    // bytes 6..8 reserved, zero
    h[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Reads exactly `buf.len()` bytes, reporting a clean end-of-stream
/// (`Ok(n < len)`) instead of an error so the caller can tell a torn
/// frame from a peer that closed between frames.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Reads one frame. Returns `Ok(None)` when the peer closed cleanly at a
/// frame boundary (zero header bytes read) — the normal end of a
/// keep-alive connection.
///
/// # Errors
///
/// Every malformed input maps to a typed [`ProtocolError`]; `max_payload`
/// is enforced before any allocation.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Option<Frame>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    let got = read_full(r, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    if got < HEADER_LEN {
        return Err(ProtocolError::Torn {
            needed: HEADER_LEN - got,
            got,
        });
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&header[0..4]);
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(ProtocolError::BadVersion(header[4]));
    }
    if header[6] != 0 || header[7] != 0 {
        return Err(ProtocolError::BadPayload("nonzero reserved header bytes"));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let declared = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    if len > max_payload {
        return Err(ProtocolError::FrameTooLarge {
            len: len as u64,
            max: max_payload as u64,
        });
    }
    let mut payload = vec![0u8; len];
    let got = read_full(r, &mut payload)?;
    if got < len {
        return Err(ProtocolError::Torn {
            needed: len - got,
            got,
        });
    }
    let computed = crc32(&payload);
    if computed != declared {
        return Err(ProtocolError::BadChecksum { declared, computed });
    }
    Ok(Some(Frame {
        ftype: header[5],
        payload,
    }))
}

// ---- request payloads --------------------------------------------------

/// A [`REQ_SPEC`] payload: specialize the program registered under
/// `name` to the rendered `statics`, answering with what `want` asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecWireRequest {
    /// Tenant auth token (empty in open mode).
    pub token: String,
    /// Logical program name (see [`REQ_REGISTER`]).
    pub name: String,
    /// Static arguments as rendered datums separated by whitespace, e.g.
    /// `"5"` or `"5 (a b)"` — one datum per static slot of the division.
    pub statics: String,
    /// Per-request deadline in milliseconds; `0` means "server default".
    pub deadline_ms: u32,
    /// One of [`WANT_META`], [`WANT_OBJECT`], [`WANT_GENEXT`].
    pub want: u8,
}

impl SpecWireRequest {
    /// Renders the payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_str(&mut out, &self.token);
        put_str(&mut out, &self.name);
        put_str(&mut out, &self.statics);
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.push(self.want);
        out
    }

    /// Parses a [`REQ_SPEC`] payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadPayload`] on any malformed field.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let token = r.str()?.to_string();
        let name = r.str()?.to_string();
        let statics = r.str()?.to_string();
        let deadline_ms = r.u32()?;
        let want = r.u8()?;
        if want > WANT_GENEXT {
            return Err(ProtocolError::BadPayload("unknown `want` selector"));
        }
        if r.remaining() != 0 {
            return Err(ProtocolError::BadPayload("trailing bytes after request"));
        }
        Ok(SpecWireRequest {
            token,
            name,
            statics,
            deadline_ms,
            want,
        })
    }
}

/// A [`REQ_REGISTER`] payload: register (or redefine) `source` under the
/// logical `name`, specializing `entry` with the binding-time `division`
/// (a string of `S`/`D` letters, one per parameter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterWireRequest {
    /// Tenant auth token (empty in open mode).
    pub token: String,
    /// Logical name to register under.
    pub name: String,
    /// Program source text.
    pub source: String,
    /// Entry procedure name.
    pub entry: String,
    /// Binding-time division letters, e.g. `"SD"`.
    pub division: String,
}

impl RegisterWireRequest {
    /// Renders the payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_str(&mut out, &self.token);
        put_str(&mut out, &self.name);
        put_str(&mut out, &self.source);
        put_str(&mut out, &self.entry);
        put_str(&mut out, &self.division);
        out
    }

    /// Parses a [`REQ_REGISTER`] payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadPayload`] on any malformed field.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let token = r.str()?.to_string();
        let name = r.str()?.to_string();
        let source = r.str()?.to_string();
        let entry = r.str()?.to_string();
        let division = r.str()?.to_string();
        if r.remaining() != 0 {
            return Err(ProtocolError::BadPayload("trailing bytes after request"));
        }
        Ok(RegisterWireRequest {
            token,
            name,
            source,
            entry,
            division,
        })
    }
}

/// A [`REQ_GRAMMAR`] payload: register (or redefine) the grammar `text`
/// under the logical `name`. Unlike [`REQ_REGISTER`], the server owns the
/// program construction: it validates the grammar (typed 400 on anything
/// outside the LL(1) subset), splices it into the matcher interpreter,
/// and applies the matcher's unfold/memoize policies — none of which the
/// generic register frame can carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrammarWireRequest {
    /// Tenant auth token (empty in open mode).
    pub token: String,
    /// Logical name to register under.
    pub name: String,
    /// Grammar source text (one rule-list datum).
    pub text: String,
}

impl GrammarWireRequest {
    /// Renders the payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_str(&mut out, &self.token);
        put_str(&mut out, &self.name);
        put_str(&mut out, &self.text);
        out
    }

    /// Parses a [`REQ_GRAMMAR`] payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadPayload`] on any malformed field.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let token = r.str()?.to_string();
        let name = r.str()?.to_string();
        let text = r.str()?.to_string();
        if r.remaining() != 0 {
            return Err(ProtocolError::BadPayload("trailing bytes after request"));
        }
        Ok(GrammarWireRequest { token, name, text })
    }
}

// ---- error responses ---------------------------------------------------

/// A decoded [`RESP_ERROR`] payload. `code` reuses HTTP semantics so one
/// table covers both protocols: 400 bad request, 401 bad token, 404
/// unknown program, 408 deadline, 429 overloaded (with `retry_after_ms`),
/// 499 cancelled, 500 specialization failure, 503 draining/breaker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// HTTP-style status code.
    pub code: u16,
    /// Backoff hint in milliseconds; `0` when not applicable.
    pub retry_after_ms: u64,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    /// Renders the payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.code.to_le_bytes());
        out.extend_from_slice(&self.retry_after_ms.to_le_bytes());
        put_str(&mut out, &self.message);
        out
    }

    /// Parses a [`RESP_ERROR`] payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadPayload`] on any malformed field.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let code = r.u16()?;
        let retry_after_ms = r.u64()?;
        let message = r.str()?.to_string();
        if r.remaining() != 0 {
            return Err(ProtocolError::BadPayload("trailing bytes after error"));
        }
        Ok(WireError {
            code,
            retry_after_ms,
            message,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let req = SpecWireRequest {
            token: "tok".into(),
            name: "pow".into(),
            statics: "5".into(),
            deadline_ms: 250,
            want: WANT_OBJECT,
        };
        let bytes = encode_frame(REQ_SPEC, &req.encode());
        let frame = read_frame(&mut Cursor::new(&bytes), 1 << 20)
            .expect("decode")
            .expect("not eof");
        assert_eq!(frame.ftype, REQ_SPEC);
        assert_eq!(
            SpecWireRequest::decode(&frame.payload).expect("payload"),
            req
        );
    }

    #[test]
    fn clean_close_between_frames_is_none() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut Cursor::new(empty), 1024)
            .expect("clean eof")
            .is_none());
    }

    #[test]
    fn torn_header_and_payload_are_typed() {
        let bytes = encode_frame(REQ_PING, &[]);
        let torn = &bytes[..HEADER_LEN - 3];
        assert!(matches!(
            read_frame(&mut Cursor::new(torn), 1024),
            Err(ProtocolError::Torn { needed: 3, .. })
        ));
        let req = WireError {
            code: 400,
            retry_after_ms: 0,
            message: "x".into(),
        };
        let full = encode_frame(RESP_ERROR, &req.encode());
        let torn = &full[..full.len() - 2];
        assert!(matches!(
            read_frame(&mut Cursor::new(torn), 1024),
            Err(ProtocolError::Torn { needed: 2, .. })
        ));
    }

    #[test]
    fn bad_magic_version_checksum_and_length() {
        let mut bytes = encode_frame(REQ_PING, b"abc");
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes), 1024),
            Err(ProtocolError::BadMagic(_))
        ));
        let mut bytes = encode_frame(REQ_PING, b"abc");
        bytes[4] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes), 1024),
            Err(ProtocolError::BadVersion(9))
        ));
        let mut bytes = encode_frame(REQ_PING, b"abc");
        bytes[HEADER_LEN] ^= 0x40; // flip a payload bit
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes), 1024),
            Err(ProtocolError::BadChecksum { .. })
        ));
        let bytes = encode_frame(REQ_PING, &[0u8; 64]);
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes), 16),
            Err(ProtocolError::FrameTooLarge { len: 64, max: 16 })
        ));
    }

    #[test]
    fn hostile_length_is_rejected_before_allocation() {
        // A header declaring a 4 GiB payload must fail on the cap check,
        // not attempt the allocation.
        let mut h = header_bytes(REQ_PING, &[]);
        h[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&h[..]), 1 << 20),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn grammar_payload_roundtrip_and_truncations() {
        let req = GrammarWireRequest {
            token: String::new(),
            name: "ident".into(),
            text: "((w (star a) b))".into(),
        };
        assert_eq!(
            GrammarWireRequest::decode(&req.encode()).expect("grammar"),
            req
        );
        assert!(GrammarWireRequest::decode(&[]).is_err());
        let mut p = req.encode();
        p.push(0); // trailing byte
        assert!(matches!(
            GrammarWireRequest::decode(&p),
            Err(ProtocolError::BadPayload("trailing bytes after request"))
        ));
    }

    #[test]
    fn register_and_error_payload_roundtrip() {
        let reg = RegisterWireRequest {
            token: "t".into(),
            name: "pow".into(),
            source: "(define (f x) x)".into(),
            entry: "f".into(),
            division: "SD".into(),
        };
        assert_eq!(
            RegisterWireRequest::decode(&reg.encode()).expect("register"),
            reg
        );
        let err = WireError {
            code: 429,
            retry_after_ms: 70,
            message: "overloaded".into(),
        };
        assert_eq!(WireError::decode(&err.encode()).expect("error"), err);
    }

    #[test]
    fn malformed_payloads_are_typed_not_panics() {
        // Truncations, bogus lengths, and bad UTF-8 all land in
        // BadPayload.
        assert!(SpecWireRequest::decode(&[]).is_err());
        assert!(SpecWireRequest::decode(&[0xff; 3]).is_err());
        let mut p = Vec::new();
        p.extend_from_slice(&u32::MAX.to_le_bytes()); // string "longer than payload"
        assert!(matches!(
            SpecWireRequest::decode(&p),
            Err(ProtocolError::BadPayload(_))
        ));
        let mut p = Vec::new();
        p.extend_from_slice(&2u32.to_le_bytes());
        p.extend_from_slice(&[0xc3, 0x28]); // invalid UTF-8
        assert!(matches!(
            SpecWireRequest::decode(&p),
            Err(ProtocolError::BadPayload("non-UTF-8 string"))
        ));
        assert!(WireError::decode(&[1]).is_err());
        assert!(RegisterWireRequest::decode(&[9, 9]).is_err());
    }
}
