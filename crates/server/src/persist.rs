//! Crash-safe cache snapshots (`.t4os` files).
//!
//! Format, following the object-file discipline (magic, version, CRC-32,
//! length-validated decode):
//!
//! ```text
//! magic   8 bytes   "t4osnap\0"
//! version u32 LE    5
//! count   u32 LE    number of records that follow
//! record  ×count:
//!   len   u32 LE    payload length in bytes
//!   crc   u32 LE    CRC-32 (IEEE) of the payload
//!   payload:
//!     program  u32 len + UTF-8     (rendered annotated program + options)
//!     entry    u32 len + UTF-8
//!     statics  u32 len + bytes     (the key's canonical statics bytes)
//!     name     u32 len + UTF-8     (logical registry name; "" = anonymous)
//!     epoch    u64 LE              (registration epoch; 0 = anonymous)
//!     stats    6 × u64 LE + 1 tag byte (fallback kind, 0 = none)
//!     image    u32 len + `.t4o` object-file bytes (self-checksummed)
//! ```
//!
//! A record embeds its image in the current object-file format, so the
//! snapshot version moves with it: VERSION=5 records carry version-3
//! object bytes, which add the in-place instruction forms, and a
//! VERSION=4 snapshot (version-2 object bytes) is refused at the header.
//! VERSION=4 stores the statics as the cache key holds them: the
//! canonical bytes of each datum ([`two4one_syntax::codec`]), so a
//! restore keys a record without parsing it, and the symbol `12` and the
//! integer `12` never share a record. VERSION=3 stored the rendered text,
//! under which the two collided. VERSION=3 added the `name`/`epoch`
//! backedge so restore can judge a record against the live registry (see
//! [`SpecService::restore_bytes`](crate::SpecService::restore_bytes)).
//! Earlier snapshot versions quarantine wholesale at the header check:
//! their records cannot be keyed alike.
//!
//! Reading never panics and never fails as a whole (except that a bad
//! header quarantines the entire file): records are read one at a time
//! into one buffer and handed on before the next is read, each is
//! independently CRC-checked and length-validated, a corrupt record is
//! skipped and counted, and a torn final record (crash mid-write)
//! truncates cleanly — the missing records are counted as quarantined. A
//! record's buffer grows only as its bytes arrive, so a corrupted length
//! field cannot cause an oversized allocation. Records whose images are
//! byte-equal share one decoded image.
//!
//! Writing mirrors reading: [`write()`] encodes and writes one record at a
//! time, so a snapshot written to a file never holds the file's bytes;
//! [`encode()`] writes the same bytes into a `Vec`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::Arc;

use two4one::objfile::{put_str, Reader};
use two4one::{crc32, decode_image, encode_image, Image, LimitKind, ObjError, SpecStats};

const MAGIC: &[u8; 8] = b"t4osnap\0";
const VERSION: u32 = 5;

/// One cache entry in transit between the shard map and a snapshot file.
/// Its fields borrow from the cache keys being written or the record
/// being read: a restore of thousands of records copies none of their
/// identities just to compare them with the live registry.
#[derive(Debug)]
pub(crate) struct SnapRecord<'a> {
    pub(crate) program: &'a str,
    pub(crate) entry: &'a str,
    /// The canonical bytes of the static arguments.
    pub(crate) statics: &'a [u8],
    /// Logical registry name the entry was specialized under; empty for
    /// anonymous entries.
    pub(crate) name: &'a str,
    /// Registration epoch of the backedge; 0 for anonymous entries.
    pub(crate) epoch: u64,
    pub(crate) stats: SpecStats,
    pub(crate) image: Arc<Image>,
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

/// Writes `bytes` behind their `u32` length.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn encode_record(r: &SnapRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    put_str(&mut payload, r.program);
    put_str(&mut payload, r.entry);
    put_bytes(&mut payload, r.statics);
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
    put_bytes(&mut payload, &encode_image(&r.image));
    payload
}

/// Writes a container to `out`: the header (`magic`, `version`, record
/// count), then each payload behind its length and CRC-32. Payloads are
/// built and written one at a time, in the order given; callers sort
/// them for deterministic output.
///
/// # Errors
///
/// Only what writing to `out` fails with.
fn write_container(
    magic: &[u8; 8],
    version: u32,
    payloads: impl ExactSizeIterator<Item = Vec<u8>>,
    mut out: impl Write,
) -> io::Result<()> {
    out.write_all(magic)?;
    out.write_all(&version.to_le_bytes())?;
    out.write_all(&(payloads.len() as u32).to_le_bytes())?;
    for payload in payloads {
        out.write_all(&(payload.len() as u32).to_le_bytes())?;
        out.write_all(&crc32(&payload).to_le_bytes())?;
        out.write_all(&payload)?;
    }
    Ok(())
}

/// Writes a snapshot of `records` to `out`, one record at a time.
///
/// # Errors
///
/// Only what writing to `out` fails with.
pub(crate) fn write(records: &[SnapRecord], out: impl Write) -> io::Result<()> {
    write_container(MAGIC, VERSION, records.iter().map(encode_record), out)
}

/// Encodes a snapshot.
pub(crate) fn encode(records: &[SnapRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    // Writing to a `Vec` cannot fail.
    let _ = write(records, &mut out);
    out
}

// ---- decoding ----------------------------------------------------------

/// Parses one record. Its image is decoded unless `images` already holds
/// an image decoded from equal bytes, which it then shares.
fn parse_record<'a>(
    payload: &'a [u8],
    images: &mut HashMap<Box<[u8]>, Arc<Image>>,
) -> Result<SnapRecord<'a>, ObjError> {
    let mut r = Reader::new(payload);
    let program = r.str()?;
    let entry = r.str()?;
    let statics_len = r.u32()? as usize;
    let statics = r.take(statics_len)?;
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
    let bytes = r.take(image_len)?;
    if r.remaining() != 0 {
        // Trailing garbage inside a CRC-valid payload: structurally
        // impossible for files we wrote, so treat it as corruption.
        return Err(ObjError::TrailingBytes(r.remaining()));
    }
    let image = match images.get(bytes) {
        Some(image) => image.clone(),
        None => {
            let image = Arc::new(decode_image(bytes)?);
            images.insert(bytes.into(), image.clone());
            image
        }
    };
    Ok(SnapRecord {
        program,
        entry,
        statics,
        name,
        epoch,
        stats,
        image,
    })
}

/// Reads a container written by [`write_container`] with the same
/// `magic` and `version` from `src`, one record at a time into one
/// reused buffer, and hands each CRC-valid payload to `each`, which says
/// whether it parsed. Returns how many records were quarantined: a bad
/// header (the whole file), a CRC mismatch or a payload `each` refused,
/// a torn tail (every record the count still promised), and bytes past
/// the last record. A payload's buffer grows only as its bytes arrive,
/// so a corrupt length cannot force a large allocation.
///
/// # Errors
///
/// Only what reading `src` fails with, other than its end.
fn read_container(
    magic: &[u8; 8],
    version: u32,
    mut src: impl Read,
    mut each: impl FnMut(&[u8]) -> bool,
) -> io::Result<u64> {
    let mut header = [0u8; 16];
    if !fill(&mut src, &mut header)?
        || header[..8] != magic[..]
        || header[8..12] != version.to_le_bytes()
    {
        // Bad header: nothing in the file can be trusted.
        return Ok(1);
    }
    let count = u64::from(u32::from_le_bytes([
        header[12], header[13], header[14], header[15],
    ]));
    let mut quarantined = 0;
    let mut payload = Vec::new();
    for seen in 0..count {
        let mut frame = [0u8; 8];
        let torn = if fill(&mut src, &mut frame)? {
            let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
            payload.clear();
            (&mut src).take(len as u64).read_to_end(&mut payload)? < len
        } else {
            true
        };
        if torn {
            // Torn tail: the crash hit mid-record. Everything the count
            // still promised is gone.
            return Ok(quarantined + count - seen);
        }
        let crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        if crc32(&payload) != crc || !each(&payload) {
            quarantined += 1;
        }
    }
    if !at_end(&mut src)? {
        // More bytes than the count admits: the count (or the tail) is
        // corrupt. The records read are individually CRC-valid and kept;
        // the excess is flagged.
        quarantined += 1;
    }
    Ok(quarantined)
}

/// Fills `buf` from `src`: `false` when `src` ends first.
fn fill(src: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match src.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Whether `src` has no byte left.
fn at_end(src: &mut impl Read) -> io::Result<bool> {
    let mut byte = [0u8; 1];
    fill(src, &mut byte).map(|more| !more)
}

/// Reads a snapshot from `src`, handing every intact record to `each`
/// before the next is read. Returns how many records were quarantined.
/// Records whose images are byte-equal (keys whose statics differ only
/// where the residual program does not look) share one decoded image;
/// the distinct images' bytes are kept until the read ends to find them.
///
/// # Errors
///
/// Only what reading `src` fails with.
pub(crate) fn read(src: impl Read, mut each: impl FnMut(SnapRecord<'_>)) -> io::Result<u64> {
    let mut images = HashMap::new();
    read_container(MAGIC, VERSION, src, |payload| {
        match parse_record(payload, &mut images) {
            Ok(rec) => {
                each(rec);
                true
            }
            Err(_) => false,
        }
    })
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

/// Writes a gen-ext snapshot of `records` to `out`, one record at a time.
///
/// # Errors
///
/// Only what writing to `out` fails with.
pub(crate) fn write_genexts(records: &[GenextSnapRecord], out: impl Write) -> io::Result<()> {
    write_container(
        GENEXT_MAGIC,
        GENEXT_VERSION,
        records.iter().map(encode_genext_record),
        out,
    )
}

/// Encodes a gen-ext snapshot.
pub(crate) fn encode_genexts(records: &[GenextSnapRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    // Writing to a `Vec` cannot fail.
    let _ = write_genexts(records, &mut out);
    out
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

/// Reads a gen-ext snapshot from `src` as [`read`] reads a cache
/// snapshot.
///
/// # Errors
///
/// Only what reading `src` fails with.
pub(crate) fn read_genexts(
    src: impl Read,
    mut each: impl FnMut(GenextSnapRecord),
) -> io::Result<u64> {
    read_container(
        GENEXT_MAGIC,
        GENEXT_VERSION,
        src,
        |payload| match parse_genext_record(payload) {
            Ok(rec) => {
                each(rec);
                true
            }
            Err(_) => false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use two4one::{Image, Symbol};

    /// Magic, version and record count.
    const HEADER_LEN: usize = 8 + 4 + 4;

    /// The canonical bytes of the statics `(1 2)`.
    const STATICS: &[u8] = &[
        8, 4, 1, 0, 0, 0, 0, 0, 0, 0, 8, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0,
    ];

    /// A record as [`read`] hands it over, copied out of the buffer it
    /// borrows from.
    struct Owned {
        program: String,
        entry: String,
        statics: Vec<u8>,
        name: String,
        epoch: u64,
        stats: SpecStats,
        image: Arc<Image>,
    }

    impl Owned {
        fn record(&self) -> SnapRecord<'_> {
            SnapRecord {
                program: &self.program,
                entry: &self.entry,
                statics: &self.statics,
                name: &self.name,
                epoch: self.epoch,
                stats: self.stats.clone(),
                image: self.image.clone(),
            }
        }
    }

    /// What one read pass recovered.
    struct Decoded<T> {
        records: Vec<T>,
        quarantined: u64,
    }

    fn decode(bytes: &[u8]) -> Decoded<Owned> {
        let mut records = Vec::new();
        let quarantined = read(bytes, |r| {
            records.push(Owned {
                program: r.program.to_string(),
                entry: r.entry.to_string(),
                statics: r.statics.to_vec(),
                name: r.name.to_string(),
                epoch: r.epoch,
                stats: r.stats,
                image: r.image,
            })
        })
        .expect("a slice reads");
        Decoded {
            records,
            quarantined,
        }
    }

    fn reencode(records: &[Owned]) -> Vec<u8> {
        encode(&records.iter().map(Owned::record).collect::<Vec<_>>())
    }

    fn decode_genexts(bytes: &[u8]) -> Decoded<GenextSnapRecord> {
        let mut records = Vec::new();
        let quarantined = read_genexts(bytes, |r| records.push(r)).expect("a slice reads");
        Decoded {
            records,
            quarantined,
        }
    }

    fn record(program: &str) -> SnapRecord<'_> {
        SnapRecord {
            program,
            entry: "f",
            statics: STATICS,
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
        assert_eq!(out.records[1].statics, STATICS);
        // Re-encoding reproduces the bytes exactly.
        assert_eq!(reencode(&out.records), bytes);
    }

    #[test]
    fn older_snapshot_version_quarantines_wholesale() {
        // A VERSION=2 snapshot has no backedges, so nothing in it can be
        // judged against the live registry; a VERSION=3 one keys its
        // records by rendered text, which `Sym "12"` and `Int 12` share;
        // a VERSION=4 one embeds version-2 object bytes, which this
        // build no longer decodes. Each is rejected at the header, not
        // record by record.
        for old in [2u32, 3, 4] {
            let mut bytes = encode(&[record("a"), record("b")]);
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let out = decode(&bytes);
            assert_eq!(out.quarantined, 1, "version {old}");
            assert!(out.records.is_empty(), "version {old}");
        }
    }

    #[test]
    fn byte_equal_images_are_decoded_once() {
        let other = Arc::new(Image {
            templates: Vec::new(),
            entry: Symbol::new("g"),
        });
        let records = vec![
            record("a"),
            record("b"),
            SnapRecord {
                image: other,
                ..record("c")
            },
        ];
        let out = decode(&encode(&records));
        assert_eq!(out.quarantined, 0);
        let [a, b, c] = &out.records[..] else {
            panic!("three records")
        };
        assert!(Arc::ptr_eq(&a.image, &b.image));
        assert!(!Arc::ptr_eq(&a.image, &c.image));
        assert_eq!(c.image.entry.as_str(), "g");
    }

    /// A source that hands out at most one byte per read, and counts
    /// what it has handed out.
    struct Trickle<'a> {
        bytes: &'a [u8],
        pos: &'a std::cell::Cell<usize>,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let at = self.pos.get();
            match (self.bytes.get(at), buf.first_mut()) {
                (Some(&b), Some(slot)) => {
                    *slot = b;
                    self.pos.set(at + 1);
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn records_are_handed_on_one_at_a_time() {
        let records = vec![record("a"), named_record("p", 3), record("b")];
        let bytes = encode(&records);
        let pos = std::cell::Cell::new(0);
        let src = Trickle {
            bytes: &bytes,
            pos: &pos,
        };
        let mut read_when_handed = Vec::new();
        let quarantined = read(src, |r| {
            read_when_handed.push((r.program.to_string(), pos.get()))
        })
        .expect("reads");
        assert_eq!(quarantined, 0);
        // Each record is handed on as soon as its last byte is read, and
        // before a byte of the next one is.
        let mut end = HEADER_LEN;
        for (rec, (program, at)) in records.iter().zip(&read_when_handed) {
            end += 8 + encode_record(rec).len();
            assert_eq!((program.as_str(), *at), (rec.program, end));
        }
        assert_eq!(read_when_handed.len(), 3);
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
        assert_eq!(out.records[0].program, "b");
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
