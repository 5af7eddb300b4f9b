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

use two4one::objfile::{put_str, Reader};
use two4one::{crc32, decode_image, encode_image, Image, LimitKind, ObjError, SpecStats};

const MAGIC: &[u8; 8] = b"t4osnap\0";
const VERSION: u32 = 3;

/// One cache entry in transit between the shard map and a snapshot file.
/// Its text borrows from the cache keys being written or the snapshot
/// bytes being read: a restore of thousands of records copies none of
/// their identities just to compare them with the live registry.
#[derive(Debug)]
pub(crate) struct SnapRecord<'a> {
    pub(crate) program: &'a str,
    pub(crate) entry: &'a str,
    pub(crate) statics: &'a str,
    /// Logical registry name the entry was specialized under; empty for
    /// anonymous entries.
    pub(crate) name: &'a str,
    /// Registration epoch of the backedge; 0 for anonymous entries.
    pub(crate) epoch: u64,
    pub(crate) stats: SpecStats,
    pub(crate) image: Arc<Image>,
}

/// What a decode pass recovered from a `.t4os` or `.t4og` container.
#[derive(Debug)]
pub(crate) struct Decoded<T> {
    pub(crate) records: Vec<T>,
    /// Records (or whole-file structures) rejected: CRC mismatch, torn
    /// tail, bad header, undecodable payload, trailing garbage.
    pub(crate) quarantined: u64,
}

/// The tag byte of a fallback kind: 0 for none, otherwise 1 plus the
/// kind's index in [`LimitKind::ALL`].
fn kind_tag(kind: Option<LimitKind>) -> u8 {
    kind.and_then(|k| LimitKind::ALL.iter().position(|&a| a == k))
        .map_or(0, |i| i as u8 + 1)
}

fn kind_from_tag(tag: u8) -> Result<Option<LimitKind>, ObjError> {
    match tag {
        0 => Ok(None),
        t => LimitKind::ALL
            .get(usize::from(t) - 1)
            .map(|&k| Some(k))
            .ok_or(ObjError::BadTag("limit kind", t)),
    }
}

// ---- encoding ----------------------------------------------------------

fn encode_record(r: &SnapRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    put_str(&mut payload, r.program);
    put_str(&mut payload, r.entry);
    put_str(&mut payload, r.statics);
    put_str(&mut payload, r.name);
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

/// Frames `payloads` into a container: the header (`magic`, `version`,
/// record count), then each payload behind its length and CRC-32.
/// Payloads are written in the order given; callers sort them for
/// deterministic output.
fn encode_container(
    magic: &[u8; 8],
    version: u32,
    payloads: impl ExactSizeIterator<Item = Vec<u8>>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for payload in payloads {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Encodes a snapshot.
pub(crate) fn encode(records: &[SnapRecord]) -> Vec<u8> {
    encode_container(MAGIC, VERSION, records.iter().map(encode_record))
}

// ---- decoding ----------------------------------------------------------

fn parse_record(payload: &[u8]) -> Result<SnapRecord<'_>, ObjError> {
    let mut r = Reader::new(payload);
    let program = r.str()?;
    let entry = r.str()?;
    let statics = r.str()?;
    let name = r.str()?;
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
    let image = decode_image(r.take(image_len)?)?;
    if r.remaining() != 0 {
        // Trailing garbage inside a CRC-valid payload: structurally
        // impossible for files we wrote, so treat it as corruption.
        return Err(ObjError::TrailingBytes(r.remaining()));
    }
    Ok(SnapRecord {
        program,
        entry,
        statics,
        name,
        epoch,
        stats,
        image: Arc::new(image),
    })
}

/// Decodes a container written by [`encode_container`] with the same
/// `magic` and `version`, recovering every record `parse` accepts and
/// quarantining the rest. Never panics, never allocates beyond the input
/// size.
fn decode_container<'a, T>(
    magic: &[u8; 8],
    version: u32,
    bytes: &'a [u8],
    parse: impl Fn(&'a [u8]) -> Result<T, ObjError>,
) -> Decoded<T> {
    let mut out = Decoded {
        records: Vec::new(),
        quarantined: 0,
    };
    let mut r = Reader::new(bytes);
    let count = match (r.take(8), r.u32(), r.u32()) {
        (Ok(m), Ok(v), Ok(count)) if m == magic && v == version => u64::from(count),
        _ => {
            // Bad header: nothing in the file can be trusted.
            out.quarantined = 1;
            return out;
        }
    };
    for seen in 0..count {
        let Ok((crc, payload)) = r
            .u32()
            .and_then(|len| Ok((r.u32()?, r.take(len as usize)?)))
        else {
            // Torn tail: the crash hit mid-record. Everything the count
            // still promised is gone.
            out.quarantined += count - seen;
            return out;
        };
        match (crc32(payload) == crc).then(|| parse(payload)) {
            Some(Ok(rec)) => out.records.push(rec),
            _ => out.quarantined += 1,
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

/// Decodes a snapshot, recovering every intact record and quarantining
/// the rest.
pub(crate) fn decode(bytes: &[u8]) -> Decoded<SnapRecord<'_>> {
    decode_container(MAGIC, VERSION, bytes, parse_record)
}

// ---- gen-ext snapshots (`.t4og` containers) ----------------------------
//
// The same container as the `.t4os` cache snapshot, but the payload is a
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

/// Encodes a gen-ext snapshot.
pub(crate) fn encode_genexts(records: &[GenextSnapRecord]) -> Vec<u8> {
    encode_container(
        GENEXT_MAGIC,
        GENEXT_VERSION,
        records.iter().map(encode_genext_record),
    )
}

fn parse_genext_record(payload: &[u8]) -> Result<GenextSnapRecord, ObjError> {
    let mut r = Reader::new(payload);
    let name = r.str()?.to_string();
    let identity = r.str()?.to_string();
    let entry = r.str()?.to_string();
    let epoch = r.u64()?;
    let len = r.u32()? as usize;
    let genext = r.take(len)?.to_vec();
    if r.remaining() != 0 {
        return Err(ObjError::TrailingBytes(r.remaining()));
    }
    Ok(GenextSnapRecord {
        name,
        identity,
        entry,
        epoch,
        genext,
    })
}

/// Decodes a gen-ext snapshot.
pub(crate) fn decode_genexts(bytes: &[u8]) -> Decoded<GenextSnapRecord> {
    decode_container(GENEXT_MAGIC, GENEXT_VERSION, bytes, parse_genext_record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one::{Image, Symbol};

    /// Magic, version and record count.
    const HEADER_LEN: usize = 8 + 4 + 4;

    fn record(program: &str) -> SnapRecord<'_> {
        SnapRecord {
            program,
            entry: "f",
            statics: "(1 2)",
            name: "",
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

    fn named_record(name: &str, epoch: u64) -> SnapRecord<'_> {
        SnapRecord {
            name,
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

    #[test]
    fn fallback_kinds_keep_their_tags() {
        use LimitKind::*;
        // Pinned: a reordered `LimitKind::ALL` would change every tag.
        let pinned = [
            (None, 0),
            (Some(Deadline), 1),
            (Some(Cancelled), 2),
            (Some(StepFuel), 3),
            (Some(UnfoldFuel), 4),
            (Some(Depth), 5),
            (Some(MemoEntries), 6),
            (Some(CodeSize), 7),
            (Some(InputNodes), 8),
            (Some(InputDepth), 9),
        ];
        assert_eq!(pinned.len(), LimitKind::ALL.len() + 1);
        // The tag is the byte before the image length and image, which
        // end the file's one record.
        let mut rec = record("a");
        let at = encode(std::slice::from_ref(&rec)).len() - 4 - encode_image(&rec.image).len() - 1;
        for (kind, tag) in pinned {
            rec.stats.fallback_kind = kind;
            let bytes = encode(std::slice::from_ref(&rec));
            assert_eq!(bytes[at], tag, "{kind:?}");
            let out = decode(&bytes);
            assert_eq!(out.quarantined, 0, "{kind:?}");
            assert_eq!(out.records[0].stats.fallback_kind, kind);
        }
        // An unknown tag, under a valid CRC, quarantines the record.
        let mut bytes = encode(&[record("a")]);
        bytes[at] = 10;
        let crc = crc32(&bytes[HEADER_LEN + 8..]);
        bytes[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&crc.to_le_bytes());
        let out = decode(&bytes);
        assert_eq!(out.quarantined, 1);
        assert!(out.records.is_empty());
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
