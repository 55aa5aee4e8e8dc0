//! The shared wire layer: the workspace's one LEB128 varint codec
//! ([`put_varint`], [`get_varint`] and the bounded readers built on
//! it), zigzag signed integers, and the `SPFS` envelope every snapshot
//! blob travels in.
//!
//! Both binary formats — `SPFT` traces ([`crate::trace`]) and `SPFS`
//! snapshots — share its conventions: a four-byte magic, unsigned LEB128
//! varints in their shortest encoding, element counts bounded by the
//! bytes left, and errors that carry exact byte offsets. Snapshots add a
//! **trailing digest**: the
//! last eight bytes of every blob are the FNV-1a 64 hash of everything
//! before them, and [`SnapshotReader::open`] verifies the digest *before*
//! any payload parsing. A single flipped bit anywhere in the blob is
//! therefore rejected up front with a digest error, and a corrupted
//! length field can never drive a huge allocation — the payload is only
//! parsed once it is known to be the payload that was written.
//!
//! ## Envelope
//!
//! ```text
//! blob := magic "SPFS" (4 bytes) | version (u16 LE) | kind (1 byte)
//!       | payload | fnv1a64(everything before) (8 bytes LE)
//! ```
//!
//! Payload grammars are owned by the types they serialize (see
//! DESIGN.md §1g); this module only frames them.

/// The four magic bytes every snapshot starts with.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SPFS";

/// The current snapshot wire-format version. Version 2: a `SESSION`
/// payload is a session name, its request counters and a workload
/// driver. Versions 3 to 6 followed the engine's label cache into the
/// world's payload (stale sets, the cut record, the force-global byte)
/// and dropped the simulated and charged round counters, which derived
/// from the round counter and a charge log. Version 7: a world's payload
/// holds the model state only (pins, beeps, deliveries, accounting,
/// stuck pins); decode derives every circuit label. Version 8: the
/// charge log is gone, and the round counter counts ticks only. Version
/// 9: a `DYNAMIC_WORLD` payload stores its structure once, as the
/// editor's cells and lists; decode derives the editor's index and
/// neighbor table and the world's topology from them. The standalone
/// world kind (tag 2) left later without a bump, since the
/// `DYNAMIC_WORLD` and `SESSION` layouts stayed as they were.
pub const SNAPSHOT_VERSION: u16 = 9;

/// Payload kind tags (one per snapshottable type). Tags 1 (a bare
/// structure) and 2 (a standalone world) are retired: only tests wrote
/// or read them, and a world is stored with the editor it derives its
/// topology from.
pub mod kind {
    /// A `DynamicWorld`: the editor's cells and lists, then the world's
    /// state section.
    pub const DYNAMIC_WORLD: u8 = 3;
    /// A `scenario-server` session (workload params + dynamic world).
    pub const SESSION: u8 = 4;
}

/// Envelope and payload length: magic + version + kind, and the digest.
const HEADER_LEN: usize = 4 + 2 + 1;
const DIGEST_LEN: usize = 8;

/// A decoding failure, with the byte offset where it was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// Offset of the first mismatching magic byte.
        offset: usize,
    },
    /// Unsupported wire-format version.
    BadVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The kind byte does not match the expected payload kind.
    BadKind {
        /// The kind found in the header.
        found: u8,
        /// The kind the caller expected.
        expected: u8,
    },
    /// The blob ends in the middle of a field.
    Truncated {
        /// Offset where the field started.
        offset: usize,
    },
    /// A varint uses more bytes than a `u64` can hold.
    Overlong {
        /// Offset where the varint started.
        offset: usize,
    },
    /// The trailing digest does not match the blob contents.
    BadDigest {
        /// Offset of the digest field.
        offset: usize,
    },
    /// A structurally valid field holds a semantically invalid value.
    BadValue {
        /// What was being decoded.
        what: &'static str,
        /// Offset where the field started.
        offset: usize,
    },
    /// Decoding finished with unconsumed payload bytes left over.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireError::BadMagic { offset } => {
                write!(f, "not a snapshot: bad magic at byte {offset}")
            }
            WireError::BadVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            WireError::BadKind { found, expected } => {
                write!(
                    f,
                    "snapshot kind {found} where kind {expected} was expected"
                )
            }
            WireError::Truncated { offset } => {
                write!(f, "truncated inside the field at byte {offset}")
            }
            WireError::Overlong { offset } => {
                write!(f, "overlong varint at byte {offset}")
            }
            WireError::BadDigest { offset } => {
                write!(f, "digest mismatch (digest at byte {offset})")
            }
            WireError::BadValue { what, offset } => {
                write!(f, "invalid {what} at byte {offset}")
            }
            WireError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after the payload at byte {offset}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 64 over `bytes` — the snapshot integrity digest. Not
/// cryptographic; it exists to reject accidental corruption (truncated
/// writes, bit rot, concatenated files) loudly and cheaply.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends `v` to `buf` as an unsigned LEB128 varint, in its shortest
/// encoding: the only one [`get_varint`] accepts.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads the unsigned LEB128 varint at `*pos` and advances past it.
/// Only the shortest encoding decodes: a zero last byte after the first
/// is padding [`put_varint`] never writes, and accepting it would decode
/// two encodings of one value, so a re-encode would not reproduce the
/// blob.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let start = *pos;
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(WireError::Truncated { offset: start });
        };
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(WireError::Overlong { offset: start });
        }
        out |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(WireError::Overlong { offset: start });
            }
            return Ok(out);
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::Overlong { offset: start });
        }
    }
}

/// [`get_varint`] for a field that must fit `T` (`u32`, `u16`, ...).
pub fn get_int<T: TryFrom<u64>>(
    buf: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<T, WireError> {
    let offset = *pos;
    T::try_from(get_varint(buf, pos)?).map_err(|_| WireError::BadValue { what, offset })
}

/// Reads an element count. Every element costs at least one byte, so a
/// count beyond the bytes left after it is invalid: this bounds what a
/// decoder reserves by the blob's size, whatever the blob claims.
pub fn get_len(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<usize, WireError> {
    let offset = *pos;
    let v = get_varint(buf, pos)?;
    if v > (buf.len() - *pos) as u64 {
        return Err(WireError::BadValue { what, offset });
    }
    Ok(v as usize)
}

/// The encoding half: header up front, digest appended by
/// [`SnapshotWriter::finish`].
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// A writer with the envelope header (magic, version, `kind`)
    /// already emitted.
    pub fn new(kind: u8) -> SnapshotWriter {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.push(kind);
        SnapshotWriter { buf }
    }

    /// Appends an unsigned LEB128 varint ([`put_varint`]).
    pub fn varint(&mut self, v: u64) {
        put_varint(&mut self.buf, v);
    }

    /// Appends a zigzag-encoded signed varint.
    pub fn signed(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends one raw byte.
    pub fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Seals the blob: appends the FNV-1a 64 digest of everything
    /// written so far and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let digest = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&digest.to_le_bytes());
        self.buf
    }
}

/// The decoding half: [`SnapshotReader::open`] verifies the envelope and
/// digest, then the field readers walk the payload with offset-carrying
/// errors.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    /// The payload slice (header included, digest excluded).
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Verifies magic, version, kind and the trailing digest, in that
    /// order, and returns a reader positioned at the first payload byte.
    /// The digest is checked before any payload field is parsed, so a
    /// corrupted blob can never drive payload-shaped allocations.
    pub fn open(bytes: &'a [u8], expected_kind: u8) -> Result<SnapshotReader<'a>, WireError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() {
            return Err(WireError::BadMagic {
                offset: bytes.len(),
            });
        }
        for (i, &m) in SNAPSHOT_MAGIC.iter().enumerate() {
            if bytes[i] != m {
                return Err(WireError::BadMagic { offset: i });
            }
        }
        if bytes.len() < HEADER_LEN + DIGEST_LEN {
            return Err(WireError::Truncated {
                offset: bytes.len(),
            });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAPSHOT_VERSION {
            return Err(WireError::BadVersion { found: version });
        }
        let body_len = bytes.len() - DIGEST_LEN;
        // spf-lint: allow(panic-surface) — invariant: the length check above guarantees 8 trailing bytes
        let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 digest bytes"));
        if fnv1a64(&bytes[..body_len]) != stored {
            return Err(WireError::BadDigest { offset: body_len });
        }
        let kind = bytes[6];
        if kind != expected_kind {
            return Err(WireError::BadKind {
                found: kind,
                expected: expected_kind,
            });
        }
        Ok(SnapshotReader {
            buf: &bytes[..body_len],
            pos: HEADER_LEN,
        })
    }

    /// The current byte offset (for error construction by callers).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left in the payload.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads an unsigned LEB128 varint ([`get_varint`]).
    pub fn varint(&mut self) -> Result<u64, WireError> {
        get_varint(self.buf, &mut self.pos)
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn signed(&mut self) -> Result<i64, WireError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads one raw byte.
    pub fn byte(&mut self) -> Result<u8, WireError> {
        if self.pos >= self.buf.len() {
            return Err(WireError::Truncated { offset: self.pos });
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads a varint that must fit a `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        get_int(self.buf, &mut self.pos, what)
    }

    /// Reads a varint that must fit a `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        get_int(self.buf, &mut self.pos, what)
    }

    /// Reads a varint that must fit an `i32` after zigzag decoding.
    pub fn i32(&mut self, what: &'static str) -> Result<i32, WireError> {
        let offset = self.pos;
        let v = self.signed()?;
        i32::try_from(v).map_err(|_| WireError::BadValue { what, offset })
    }

    /// Reads an element count ([`get_len`]): the bound holds even for
    /// hand-crafted blobs that pass the digest check.
    pub fn len(&mut self, what: &'static str) -> Result<usize, WireError> {
        get_len(self.buf, &mut self.pos, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let offset = self.pos;
        let n = self.len(what)?;
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadValue { what, offset })
    }

    /// Declares the payload fully decoded: errors if bytes remain.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::TrailingBytes { offset: self.pos });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(kind: u8, fill: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
        let mut w = SnapshotWriter::new(kind);
        fill(&mut w);
        w.finish()
    }

    #[test]
    fn round_trips_every_field_shape() {
        let blob = sealed(kind::DYNAMIC_WORLD, |w| {
            w.varint(0);
            w.varint(300);
            w.varint(u64::MAX);
            w.signed(-5);
            w.signed(i64::MIN);
            w.byte(0xAB);
            w.str("hex/2");
        });
        let mut r = SnapshotReader::open(&blob, kind::DYNAMIC_WORLD).unwrap();
        assert_eq!(r.varint().unwrap(), 0);
        assert_eq!(r.varint().unwrap(), 300);
        assert_eq!(r.varint().unwrap(), u64::MAX);
        assert_eq!(r.signed().unwrap(), -5);
        assert_eq!(r.signed().unwrap(), i64::MIN);
        assert_eq!(r.byte().unwrap(), 0xAB);
        assert_eq!(r.str("label").unwrap(), "hex/2");
        r.finish().unwrap();
    }

    #[test]
    fn envelope_rejections_carry_diagnostics() {
        let blob = sealed(kind::DYNAMIC_WORLD, |w| w.varint(7));
        // Wrong magic.
        let mut bad = blob.clone();
        bad[1] ^= 0xFF;
        assert_eq!(
            SnapshotReader::open(&bad, kind::DYNAMIC_WORLD).err(),
            Some(WireError::BadMagic { offset: 1 })
        );
        // Wrong version (re-sealed so the digest is valid).
        let mut bad = blob.clone();
        let wrong = SNAPSHOT_VERSION + 1;
        bad[4..6].copy_from_slice(&wrong.to_le_bytes());
        let body = bad.len() - 8;
        let digest = fnv1a64(&bad[..body]).to_le_bytes();
        bad[body..].copy_from_slice(&digest);
        assert_eq!(
            SnapshotReader::open(&bad, kind::DYNAMIC_WORLD).err(),
            Some(WireError::BadVersion { found: wrong })
        );
        // Wrong kind (re-sealed): digest passes, kind does not.
        let other = sealed(kind::SESSION, |w| w.varint(7));
        assert_eq!(
            SnapshotReader::open(&other, kind::DYNAMIC_WORLD).err(),
            Some(WireError::BadKind {
                found: kind::SESSION,
                expected: kind::DYNAMIC_WORLD
            })
        );
        // Too short for an envelope at all.
        assert!(matches!(
            SnapshotReader::open(b"SPFS", kind::DYNAMIC_WORLD),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_rejected_before_parsing() {
        let blob = sealed(kind::DYNAMIC_WORLD, |w| {
            w.varint(42);
            w.str("payload");
            w.signed(-1);
        });
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[byte] ^= 1 << bit;
                let err = SnapshotReader::open(&bad, kind::DYNAMIC_WORLD)
                    .err()
                    .unwrap_or_else(|| panic!("flip at byte {byte} bit {bit} accepted"));
                // Every rejection carries a diagnostic that names an
                // offset or the offending value.
                let text = err.to_string();
                assert!(!text.is_empty());
            }
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let blob = sealed(kind::SESSION, |w| w.varint(1000));
        // Any proper prefix fails (digest or envelope length).
        for cut in 0..blob.len() {
            assert!(SnapshotReader::open(&blob[..cut], kind::SESSION).is_err());
        }
        // Undrained payload is an error at finish.
        let r = SnapshotReader::open(&blob, kind::SESSION).unwrap();
        assert!(matches!(
            r.finish(),
            Err(WireError::TrailingBytes { offset: 7 })
        ));
        let mut r = SnapshotReader::open(&blob, kind::SESSION).unwrap();
        r.varint().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn varints_cover_the_u64_range_in_their_shortest_form() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
        // Past ten bytes, or past the u64 range, a varint is overlong.
        let mut too_big = vec![0xFFu8; 9];
        too_big.push(0x7F);
        assert_eq!(
            get_varint(&too_big, &mut 0),
            Err(WireError::Overlong { offset: 0 })
        );
        assert_eq!(
            get_varint(&[0x80; 9], &mut 0),
            Err(WireError::Truncated { offset: 0 })
        );
        // So is a zero-padded one: 5 as `85 00` or `85 80 00`.
        for padded in [&[0x85u8, 0x00][..], &[0x85, 0x80, 0x00]] {
            assert_eq!(
                get_varint(padded, &mut 0),
                Err(WireError::Overlong { offset: 0 })
            );
        }
    }

    #[test]
    fn length_reads_are_bounded_by_the_blob() {
        // A length field claiming more elements than there are bytes left
        // is rejected even though the digest is valid.
        let blob = sealed(kind::DYNAMIC_WORLD, |w| w.varint(1 << 40));
        let mut r = SnapshotReader::open(&blob, kind::DYNAMIC_WORLD).unwrap();
        assert!(matches!(
            r.len("element count"),
            Err(WireError::BadValue {
                what: "element count",
                ..
            })
        ));
    }
}
