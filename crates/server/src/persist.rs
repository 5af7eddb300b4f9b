//! Crash-safe cache snapshots (`.t4os` files).
//!
//! Format, following the object-file discipline (magic, version, CRC-32,
//! length-validated decode):
//!
//! ```text
//! magic   8 bytes   "t4osnap\0"
//! version u32 LE    3
//! count   u32 LE    number of records that follow
//! record  ×count:
//!   len   u32 LE    payload length in bytes
//!   crc   u32 LE    CRC-32 (IEEE) of the payload
//!   payload:
//!     program  u32 len + UTF-8     (rendered annotated program + options)
//!     entry    u32 len + UTF-8
//!     statics  u32 len + UTF-8     (rendered static arguments)
//!     name     u32 len + UTF-8     (logical registry name; "" = anonymous)
//!     epoch    u64 LE              (registration epoch; 0 = anonymous)
//!     stats    6 × u64 LE + 1 tag byte (fallback kind, 0 = none)
//!     image    u32 len + VERSION=2 object-file bytes (self-checksummed)
//! ```
//!
//! VERSION=3 added the `name`/`epoch` backedge so restore can judge a
//! record against the live registry (see
//! [`SpecService::restore_bytes`](crate::SpecService::restore_bytes)).
//! Earlier snapshot versions quarantine wholesale at the header check —
//! they cannot say what their entries were derived from.
//!
//! Decoding never panics and never fails as a whole (except that a bad
//! header quarantines the entire file): each record is independently
//! CRC-checked and length-validated, a corrupt record is skipped and
//! counted, and a torn final record (crash mid-write) truncates cleanly —
//! the missing records are counted as quarantined. Every length read is
//! bounded by the bytes actually remaining, so a corrupted length field
//! cannot cause an oversized allocation.

use std::sync::Arc;

use two4one::{decode_image, encode_image, Image, LimitKind, SpecStats};

const MAGIC: &[u8; 8] = b"t4osnap\0";
const VERSION: u32 = 3;
const HEADER_LEN: usize = 8 + 4 + 4;

/// One cache entry in transit between the shard map and a snapshot file.
#[derive(Debug)]
pub(crate) struct SnapRecord {
    pub(crate) program: String,
    pub(crate) entry: String,
    pub(crate) statics: String,
    /// Logical registry name the entry was specialized under; empty for
    /// anonymous entries.
    pub(crate) name: String,
    /// Registration epoch of the backedge; 0 for anonymous entries.
    pub(crate) epoch: u64,
    pub(crate) stats: SpecStats,
    pub(crate) image: Arc<Image>,
}

/// What a decode pass recovered.
#[derive(Debug, Default)]
pub(crate) struct DecodeOutcome {
    pub(crate) records: Vec<SnapRecord>,
    /// Records (or whole-file structures) rejected: CRC mismatch, torn
    /// tail, bad header, undecodable payload, trailing garbage.
    pub(crate) quarantined: u64,
}

// ---- CRC-32 (IEEE 802.3, reflected — same discipline as .t4o files) ----

fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for b in bytes {
        crc ^= u32::from(*b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

// ---- encoding ----------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn kind_tag(kind: Option<LimitKind>) -> u8 {
    match kind {
        None => 0,
        Some(LimitKind::Deadline) => 1,
        Some(LimitKind::Cancelled) => 2,
        Some(LimitKind::StepFuel) => 3,
        Some(LimitKind::UnfoldFuel) => 4,
        Some(LimitKind::Depth) => 5,
        Some(LimitKind::MemoEntries) => 6,
        Some(LimitKind::CodeSize) => 7,
        Some(LimitKind::InputNodes) => 8,
        Some(LimitKind::InputDepth) => 9,
    }
}

fn kind_from_tag(tag: u8) -> Option<Option<LimitKind>> {
    Some(match tag {
        0 => None,
        1 => Some(LimitKind::Deadline),
        2 => Some(LimitKind::Cancelled),
        3 => Some(LimitKind::StepFuel),
        4 => Some(LimitKind::UnfoldFuel),
        5 => Some(LimitKind::Depth),
        6 => Some(LimitKind::MemoEntries),
        7 => Some(LimitKind::CodeSize),
        8 => Some(LimitKind::InputNodes),
        9 => Some(LimitKind::InputDepth),
        _ => return None,
    })
}

fn encode_record(r: &SnapRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    put_str(&mut payload, &r.program);
    put_str(&mut payload, &r.entry);
    put_str(&mut payload, &r.statics);
    put_str(&mut payload, &r.name);
    payload.extend_from_slice(&r.epoch.to_le_bytes());
    for n in [
        r.stats.unfolds,
        r.stats.memo_hits,
        r.stats.memo_misses,
        r.stats.residual_defs,
        r.stats.fallbacks,
        r.stats.generic_defs,
    ] {
        payload.extend_from_slice(&n.to_le_bytes());
    }
    payload.push(kind_tag(r.stats.fallback_kind));
    let image = encode_image(&r.image);
    payload.extend_from_slice(&(image.len() as u32).to_le_bytes());
    payload.extend_from_slice(&image);
    payload
}

/// Encodes a snapshot. Records are written in the order given; the
/// caller sorts them for deterministic output.
pub(crate) fn encode(records: &[SnapRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        let payload = encode_record(r);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

// ---- decoding ----------------------------------------------------------

/// A bounds-checked little-endian reader; every accessor returns `None`
/// instead of running past the end.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.remaining() {
            return None;
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// A length-prefixed string; the length is validated against the
    /// bytes actually present before anything is allocated.
    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

fn parse_record(payload: &[u8]) -> Option<SnapRecord> {
    let mut r = Reader::new(payload);
    let program = r.string()?;
    let entry = r.string()?;
    let statics = r.string()?;
    let name = r.string()?;
    let epoch = r.u64()?;
    let stats = SpecStats {
        unfolds: r.u64()?,
        memo_hits: r.u64()?,
        memo_misses: r.u64()?,
        residual_defs: r.u64()?,
        fallbacks: r.u64()?,
        generic_defs: r.u64()?,
        fallback_kind: kind_from_tag(r.u8()?)?,
    };
    let image_len = r.u32()? as usize;
    let image_bytes = r.take(image_len)?;
    let image = decode_image(image_bytes).ok()?;
    if r.remaining() != 0 {
        // Trailing garbage inside a CRC-valid payload: structurally
        // impossible for files we wrote, so treat it as corruption.
        return None;
    }
    Some(SnapRecord {
        program,
        entry,
        statics,
        name,
        epoch,
        stats,
        image: Arc::new(image),
    })
}

/// Decodes a snapshot, recovering every intact record and quarantining
/// the rest. Never panics, never allocates beyond the input size.
pub(crate) fn decode(bytes: &[u8]) -> DecodeOutcome {
    let mut out = DecodeOutcome::default();
    if bytes.len() < HEADER_LEN
        || &bytes[..8] != MAGIC
        || u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) != VERSION
    {
        // Bad header: nothing in the file can be trusted.
        out.quarantined = 1;
        return out;
    }
    let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as u64;
    let mut r = Reader::new(&bytes[HEADER_LEN..]);
    let mut seen: u64 = 0;
    while seen < count {
        let header = match (r.u32(), r.u32()) {
            (Some(len), Some(crc)) => Some((len as usize, crc)),
            // Torn tail: the crash hit mid-record-header. Everything the
            // count still promised is gone.
            _ => None,
        };
        let Some((len, crc)) = header else {
            out.quarantined += count - seen;
            return out;
        };
        let Some(payload) = r.take(len) else {
            // Torn tail: the final record was cut short mid-payload.
            out.quarantined += count - seen;
            return out;
        };
        seen += 1;
        if crc32(payload) != crc {
            out.quarantined += 1;
            continue;
        }
        match parse_record(payload) {
            Some(rec) => out.records.push(rec),
            None => out.quarantined += 1,
        }
    }
    if r.remaining() != 0 {
        // More bytes than the count admits: the count (or the tail) is
        // corrupt. The parsed records are individually CRC-valid and
        // kept; the excess is flagged.
        out.quarantined += 1;
    }
    out
}

// ---- gen-ext snapshots (`.t4og` containers) ----------------------------
//
// The same discipline as the `.t4os` cache snapshot, but the payload is a
// generation's staged program (the staged-code IR in its `.t4og` wire
// form, itself self-checksummed) instead of a residual image. Records
// carry the registration facts restore needs to judge them against the
// live registry: the logical name, the *source* extension's cache
// identity and entry (what `Registry::live_for_identity` compares), and
// the epoch the program was staged under (informational — epochs are
// per-process, identity is what travels).

const GENEXT_MAGIC: &[u8; 8] = b"t4ogsnp\0";
const GENEXT_VERSION: u32 = 1;

/// One staged gen-ext in transit between the registry and a snapshot.
#[derive(Debug)]
pub(crate) struct GenextSnapRecord {
    pub(crate) name: String,
    /// Cache identity of the [`GenExt`](two4one::GenExt) the program was
    /// staged from (rendered annotated program + options).
    pub(crate) identity: String,
    pub(crate) entry: String,
    pub(crate) epoch: u64,
    /// The `.t4og` wire form of the staged program.
    pub(crate) genext: Vec<u8>,
}

/// What a gen-ext snapshot decode recovered.
#[derive(Debug, Default)]
pub(crate) struct GenextDecodeOutcome {
    pub(crate) records: Vec<GenextSnapRecord>,
    pub(crate) quarantined: u64,
}

fn encode_genext_record(r: &GenextSnapRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    put_str(&mut payload, &r.name);
    put_str(&mut payload, &r.identity);
    put_str(&mut payload, &r.entry);
    payload.extend_from_slice(&r.epoch.to_le_bytes());
    payload.extend_from_slice(&(r.genext.len() as u32).to_le_bytes());
    payload.extend_from_slice(&r.genext);
    payload
}

/// Encodes a gen-ext snapshot; the caller sorts records for determinism.
pub(crate) fn encode_genexts(records: &[GenextSnapRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(GENEXT_MAGIC);
    out.extend_from_slice(&GENEXT_VERSION.to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        let payload = encode_genext_record(r);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

fn parse_genext_record(payload: &[u8]) -> Option<GenextSnapRecord> {
    let mut r = Reader::new(payload);
    let name = r.string()?;
    let identity = r.string()?;
    let entry = r.string()?;
    let epoch = r.u64()?;
    let len = r.u32()? as usize;
    let genext = r.take(len)?.to_vec();
    if r.remaining() != 0 {
        return None;
    }
    Some(GenextSnapRecord {
        name,
        identity,
        entry,
        epoch,
        genext,
    })
}

/// Decodes a gen-ext snapshot with the same recovery semantics as
/// [`decode`]: bad header quarantines the file, bad records are skipped
/// and counted, a torn tail truncates cleanly.
pub(crate) fn decode_genexts(bytes: &[u8]) -> GenextDecodeOutcome {
    let mut out = GenextDecodeOutcome::default();
    if bytes.len() < HEADER_LEN
        || &bytes[..8] != GENEXT_MAGIC
        || u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) != GENEXT_VERSION
    {
        out.quarantined = 1;
        return out;
    }
    let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as u64;
    let mut r = Reader::new(&bytes[HEADER_LEN..]);
    let mut seen: u64 = 0;
    while seen < count {
        let header = match (r.u32(), r.u32()) {
            (Some(len), Some(crc)) => Some((len as usize, crc)),
            _ => None,
        };
        let Some((len, crc)) = header else {
            out.quarantined += count - seen;
            return out;
        };
        let Some(payload) = r.take(len) else {
            out.quarantined += count - seen;
            return out;
        };
        seen += 1;
        if crc32(payload) != crc {
            out.quarantined += 1;
            continue;
        }
        match parse_genext_record(payload) {
            Some(rec) => out.records.push(rec),
            None => out.quarantined += 1,
        }
    }
    if r.remaining() != 0 {
        out.quarantined += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one::{Image, Symbol};

    fn record(tag: &str) -> SnapRecord {
        SnapRecord {
            program: format!("(define (f x) {tag})"),
            entry: "f".to_string(),
            statics: "(1 2)".to_string(),
            name: String::new(),
            epoch: 0,
            stats: SpecStats {
                unfolds: 7,
                fallback_kind: Some(LimitKind::UnfoldFuel),
                ..SpecStats::default()
            },
            image: Arc::new(Image {
                templates: Vec::new(),
                entry: Symbol::new("f"),
            }),
        }
    }

    fn named_record(name: &str, epoch: u64) -> SnapRecord {
        SnapRecord {
            name: name.to_string(),
            epoch,
            ..record(name)
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let records = vec![record("a"), record("b"), named_record("p", 3)];
        let bytes = encode(&records);
        let out = decode(&bytes);
        assert_eq!(out.quarantined, 0);
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0].program, records[0].program);
        assert_eq!(out.records[0].stats, records[0].stats);
        assert_eq!(out.records[2].name, "p");
        assert_eq!(out.records[2].epoch, 3);
        // Re-encoding reproduces the bytes exactly.
        assert_eq!(encode(&out.records), bytes);
    }

    #[test]
    fn older_snapshot_version_quarantines_wholesale() {
        // A VERSION=2 snapshot has no backedges — nothing in it can be
        // judged against the live registry, so the whole file is
        // rejected at the header, not record by record.
        let mut bytes = encode(&[record("a"), record("b")]);
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        let out = decode(&bytes);
        assert_eq!(out.quarantined, 1);
        assert!(out.records.is_empty());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let bytes = encode(&[]);
        let out = decode(&bytes);
        assert_eq!(out.quarantined, 0);
        assert!(out.records.is_empty());
    }

    #[test]
    fn bad_header_quarantines_whole_file() {
        assert_eq!(decode(b"").quarantined, 1);
        assert_eq!(decode(b"not a snapshot at all").quarantined, 1);
        let mut bytes = encode(&[record("a")]);
        bytes[0] ^= 0xff;
        let out = decode(&bytes);
        assert_eq!(out.quarantined, 1);
        assert!(out.records.is_empty());
    }

    #[test]
    fn flipped_record_byte_is_quarantined_others_survive() {
        let bytes = encode(&[record("a"), record("b")]);
        // Flip a byte inside the first record's payload (just past the
        // header and record header).
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 8 + 6] ^= 0x40;
        let out = decode(&bad);
        assert_eq!(out.quarantined, 1);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].program, record("b").program);
    }

    #[test]
    fn torn_tail_truncates_cleanly() {
        let bytes = encode(&[record("a"), record("b")]);
        for cut in [bytes.len() - 1, bytes.len() - 10, HEADER_LEN + 3] {
            let out = decode(&bytes[..cut]);
            assert!(out.quarantined >= 1, "cut at {cut} not quarantined");
            assert!(out.records.len() <= 1);
        }
    }

    #[test]
    fn oversized_length_field_does_not_allocate_or_panic() {
        let mut bytes = encode(&[record("a")]);
        // Claim a 4 GiB record.
        bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let out = decode(&bytes);
        assert!(out.records.is_empty());
        assert_eq!(out.quarantined, 1);
    }

    fn genext_record(name: &str, epoch: u64) -> GenextSnapRecord {
        GenextSnapRecord {
            name: name.to_string(),
            identity: format!("identity-of-{name}"),
            entry: "f".to_string(),
            epoch,
            genext: vec![0xde, 0xad, 0xbe, 0xef, epoch as u8],
        }
    }

    #[test]
    fn genext_snapshot_round_trips() {
        let records = vec![genext_record("p", 1), genext_record("q", 3)];
        let bytes = encode_genexts(&records);
        let out = decode_genexts(&bytes);
        assert_eq!(out.quarantined, 0);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[0].name, "p");
        assert_eq!(out.records[1].epoch, 3);
        assert_eq!(out.records[1].genext, records[1].genext);
        assert_eq!(encode_genexts(&out.records), bytes);
    }

    #[test]
    fn genext_snapshot_rejects_corruption_per_record() {
        let bytes = encode_genexts(&[genext_record("p", 1), genext_record("q", 2)]);
        // Whole-file: wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_genexts(&bad).quarantined, 1);
        assert!(decode_genexts(&bad).records.is_empty());
        // A cache snapshot is not a gen-ext snapshot.
        assert_eq!(decode_genexts(&encode(&[record("a")])).quarantined, 1);
        // Per-record: flip a payload byte, the other record survives.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 8 + 5] ^= 0x20;
        let out = decode_genexts(&bad);
        assert_eq!(out.quarantined, 1);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].name, "q");
        // Torn tail truncates cleanly.
        let out = decode_genexts(&bytes[..bytes.len() - 3]);
        assert!(out.quarantined >= 1);
        assert_eq!(out.records.len(), 1);
    }
}
