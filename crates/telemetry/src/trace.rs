//! The compact binary round-trace format.
//!
//! A trace is **self-contained**: the header carries everything needed to
//! rebuild the starting world (links per edge plus the full port
//! topology), so replay needs no scenario generator, no RNG, and no
//! algorithm logic — only the circuit engine itself.
//!
//! ## Wire format (version 2)
//!
//! Every integer is an unsigned LEB128 varint in its shortest encoding,
//! read and written by [`crate::wire`]'s codec (a zero-padded varint is
//! rejected), except the digest: 8 bytes, little-endian.
//!
//! ```text
//! header  := magic "SPFT" (4 bytes) | version | c
//!          | node_count | ports[node_count]
//!          | edge_count | (v p w q)[edge_count]
//! event   := tag (1 byte) | payload
//!   1 ConfigDelta  gid pset
//!   2 Beep         gid
//!   3 AddNode      ports
//!   4 Connect      v p w q
//!   5 Disconnect   v p
//!   6 Isolate      v
//!   7 ChurnTag     index inserted removed
//!   8 RoundEnd     round beeps delivered digest(8 bytes LE)
//!   9 FaultDrop    gid
//!  10 FaultInject  gid
//!  11 FaultTag     index dropped injected disabled wiped
//!  12 FlightKey    plan_seed scenario_seed event
//! footer  := tag 0 | rounds | wall_micros
//! blob    := header | event* | footer | fnv1a64(everything before) (8 bytes LE)
//! ```
//!
//! A `RoundEnd` records only what the model observes: the beeps and the
//! partition sets they reached, never how the engine labelled the
//! circuits. So no round check catches a corrupted header field that no
//! beep observes (`c`, or a vacant port of a node); the trailing digest,
//! the one `SPFS` snapshots carry, does, and [`TraceReader::open`]
//! checks it before any field is parsed.
//!
//! The footer is mandatory, and its round count must equal the
//! `RoundEnd` events before it. A node or edge count above the bytes
//! left is rejected before anything is reserved. Decoding reports
//! truncation, unknown tags and trailing garbage with exact byte
//! offsets, so a corrupted blob is rejected loudly rather than silently
//! mis-replayed, and every blob the reader accepts re-encodes
//! byte-identically through [`TraceWriter`].

use crate::recorder::{Recorder, RoundSummary};
use crate::wire::{fnv1a64, get_int, get_len, get_varint, put_varint, WireError};

/// The four magic bytes every trace starts with.
pub const TRACE_MAGIC: [u8; 4] = *b"SPFT";

/// The current wire-format version.
pub const TRACE_VERSION: u16 = 2;

const TAG_END: u8 = 0;
const TAG_CONFIG_DELTA: u8 = 1;
const TAG_BEEP: u8 = 2;
const TAG_ADD_NODE: u8 = 3;
const TAG_CONNECT: u8 = 4;
const TAG_DISCONNECT: u8 = 5;
const TAG_ISOLATE: u8 = 6;
const TAG_CHURN_TAG: u8 = 7;
const TAG_ROUND_END: u8 = 8;
const TAG_FAULT_DROP: u8 = 9;
const TAG_FAULT_INJECT: u8 = 10;
const TAG_FAULT_TAG: u8 = 11;
const TAG_FLIGHT_KEY: u8 = 12;

/// A decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Pin `gid` moved to partition set `pset`.
    ConfigDelta {
        /// Global pin index.
        gid: u32,
        /// New local partition set.
        pset: u16,
    },
    /// Partition-set `gid` beeped into the upcoming tick.
    Beep {
        /// Global partition-set index.
        gid: u32,
    },
    /// A node with `ports` port slots was appended.
    AddNode {
        /// Port slot count.
        ports: u32,
    },
    /// Edge `(v, p)`–`(w, q)` was wired.
    Connect {
        /// First endpoint node.
        v: u32,
        /// First endpoint port.
        p: u32,
        /// Second endpoint node.
        w: u32,
        /// Second endpoint port.
        q: u32,
    },
    /// The edge behind port `p` of `v` was severed.
    Disconnect {
        /// Endpoint node.
        v: u32,
        /// Endpoint port.
        p: u32,
    },
    /// Node `v` was isolated.
    Isolate {
        /// The isolated node.
        v: u32,
    },
    /// Churn event `index` applied `inserted` joins and `removed` leaves.
    ChurnTag {
        /// Schedule event index.
        index: u32,
        /// Amoebots that joined.
        inserted: u32,
        /// Amoebots that left.
        removed: u32,
    },
    /// One tick completed.
    RoundEnd(RoundSummary),
    /// The adversary suppressed the beep sent on partition-set `gid`
    /// this round (the send itself is still a [`TraceEvent::Beep`]).
    FaultDrop {
        /// Global partition-set index.
        gid: u32,
    },
    /// The adversary spuriously injected a beep on partition-set `gid`
    /// (also recorded as a [`TraceEvent::Beep`]; this attributes it).
    FaultInject {
        /// Global partition-set index.
        gid: u32,
    },
    /// Fault event `index` staged the given adversary actions.
    FaultTag {
        /// Fault-plan event index.
        index: u32,
        /// Beep suppressions staged.
        dropped: u32,
        /// Spurious beeps staged.
        injected: u32,
        /// Node activations withheld this round.
        disabled: u32,
        /// Crash-recovery state wipes.
        wiped: u32,
    },
    /// The full reproduction key of the failure a flight record
    /// documents (plan seed, scenario seed, schedule event index),
    /// stamped by [`TraceWriter::flight_key`] when a ring-buffer dump is
    /// framed. Metadata only: replay skips it.
    FlightKey {
        /// Churn/fault plan seed (0 when the failure has no plan).
        plan_seed: u64,
        /// The failing scenario's seed.
        scenario_seed: u64,
        /// Schedule event index the failure named (0 when none).
        event: u64,
    },
}

/// The decoded trace header: enough to rebuild the starting world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Wire-format version (always [`TRACE_VERSION`] after a successful
    /// open).
    pub version: u16,
    /// External links per edge.
    pub c: u32,
    /// Port slot count per node, in node-id order.
    pub node_ports: Vec<u32>,
    /// Every starting edge as `(v, p, w, q)`.
    pub edges: Vec<(u32, u32, u32, u32)>,
}

/// The decoded trace footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceFooter {
    /// Rounds recorded.
    pub rounds: u64,
    /// Wall-clock microseconds of the recorded run (0 if unknown).
    pub wall_micros: u64,
}

/// A decoding failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The blob does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The version tag is not [`TRACE_VERSION`].
    BadVersion(u16),
    /// The shared wire layer rejected the trailing digest or a field: a
    /// truncated, overlong or zero-padded varint, or a value outside its
    /// domain (a pset over `u16::MAX`, a count above the bytes left, a
    /// footer round count that disagrees).
    Wire(WireError),
    /// An unknown event tag.
    BadTag {
        /// The offending tag byte.
        tag: u8,
        /// Its byte offset.
        offset: usize,
    },
    /// Bytes remain after the footer.
    TrailingBytes {
        /// Offset of the first surplus byte.
        offset: usize,
    },
    /// The event stream continued past the footer tag position — i.e.
    /// the footer was never found before the blob ended.
    MissingFooter,
}

impl From<WireError> for TraceError {
    fn from(e: WireError) -> TraceError {
        TraceError::Wire(e)
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a trace: bad magic bytes"),
            TraceError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (expected {TRACE_VERSION})"
                )
            }
            TraceError::Wire(e) => e.fmt(f),
            TraceError::BadTag { tag, offset } => {
                write!(f, "unknown event tag {tag} at byte {offset}")
            }
            TraceError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after the footer at byte {offset}")
            }
            TraceError::MissingFooter => write!(f, "trace ended without a footer"),
        }
    }
}

/// The recording side: implements [`Recorder`] by appending wire events.
/// [`TraceWriter::finish`] seals the blob with the footer.
#[derive(Debug, Clone, Default)]
pub struct TraceWriter {
    buf: Vec<u8>,
    rounds: u64,
    attached: bool,
}

impl TraceWriter {
    /// An empty writer; the header is written by the first (mandatory)
    /// [`Recorder::topology`] emission.
    pub fn new() -> TraceWriter {
        TraceWriter::default()
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Encoded bytes so far (header + events, no footer or digest).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Stamps the reproduction key of the failure this blob documents
    /// (see [`TraceEvent::FlightKey`]). Not a [`Recorder`] sink: the
    /// engine never emits it; the flight-record framer calls it once,
    /// right after the topology header.
    pub fn flight_key(&mut self, plan_seed: u64, scenario_seed: u64, event: u64) {
        self.event(TAG_FLIGHT_KEY, &[plan_seed, scenario_seed, event]);
    }

    /// Seals the trace: appends the footer (round count and the recorded
    /// run's wall microseconds) and the digest, and returns the blob.
    ///
    /// # Panics
    ///
    /// Panics if no topology was ever attached — such a trace could not
    /// be replayed.
    pub fn finish(mut self, wall_micros: u64) -> Vec<u8> {
        assert!(self.attached, "trace has no topology header");
        self.event(TAG_END, &[self.rounds, wall_micros]);
        let digest = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&digest.to_le_bytes());
        self.buf
    }

    /// Appends a decoded event as the sink that emitted it would: the
    /// inverse of [`TraceReader::next_event`].
    pub fn write_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::ConfigDelta { gid, pset } => self.config_delta(gid, pset),
            TraceEvent::Beep { gid } => self.beep(gid),
            TraceEvent::AddNode { ports } => self.add_node(ports),
            TraceEvent::Connect { v, p, w, q } => self.connect(v, p, w, q),
            TraceEvent::Disconnect { v, p } => self.disconnect(v, p),
            TraceEvent::Isolate { v } => self.isolate(v),
            TraceEvent::ChurnTag {
                index,
                inserted,
                removed,
            } => self.churn_tag(index, inserted, removed),
            TraceEvent::RoundEnd(s) => self.round_end(&s),
            TraceEvent::FaultDrop { gid } => self.beep_dropped(gid),
            TraceEvent::FaultInject { gid } => self.beep_injected(gid),
            TraceEvent::FaultTag {
                index,
                dropped,
                injected,
                disabled,
                wiped,
            } => self.fault_tag(index, dropped, injected, disabled, wiped),
            TraceEvent::FlightKey {
                plan_seed,
                scenario_seed,
                event,
            } => self.flight_key(plan_seed, scenario_seed, event),
        }
    }

    /// Appends one tag and its integer fields.
    fn event(&mut self, tag: u8, fields: &[u64]) {
        self.buf.push(tag);
        for &f in fields {
            put_varint(&mut self.buf, f);
        }
    }
}

impl Recorder for TraceWriter {
    const TRACE: bool = true;
    const TIMED: bool = true;

    fn topology(&mut self, c: u32, node_ports: &[u32], edges: &[(u32, u32, u32, u32)]) {
        assert!(!self.attached, "topology attached twice");
        self.attached = true;
        self.buf.extend_from_slice(&TRACE_MAGIC);
        for v in [TRACE_VERSION as u64, c as u64, node_ports.len() as u64] {
            put_varint(&mut self.buf, v);
        }
        for &ports in node_ports {
            put_varint(&mut self.buf, ports as u64);
        }
        put_varint(&mut self.buf, edges.len() as u64);
        for &(v, p, w, q) in edges {
            for x in [v, p, w, q] {
                put_varint(&mut self.buf, x as u64);
            }
        }
    }

    fn config_delta(&mut self, gid: u32, pset: u16) {
        self.event(TAG_CONFIG_DELTA, &[gid as u64, pset as u64]);
    }

    fn beep(&mut self, gid: u32) {
        self.event(TAG_BEEP, &[gid as u64]);
    }

    fn add_node(&mut self, ports: u32) {
        self.event(TAG_ADD_NODE, &[ports as u64]);
    }

    fn connect(&mut self, v: u32, p: u32, w: u32, q: u32) {
        self.event(TAG_CONNECT, &[v as u64, p as u64, w as u64, q as u64]);
    }

    fn disconnect(&mut self, v: u32, p: u32) {
        self.event(TAG_DISCONNECT, &[v as u64, p as u64]);
    }

    fn isolate(&mut self, v: u32) {
        self.event(TAG_ISOLATE, &[v as u64]);
    }

    fn churn_tag(&mut self, index: u32, inserted: u32, removed: u32) {
        self.event(
            TAG_CHURN_TAG,
            &[index as u64, inserted as u64, removed as u64],
        );
    }

    fn beep_dropped(&mut self, gid: u32) {
        self.event(TAG_FAULT_DROP, &[gid as u64]);
    }

    fn beep_injected(&mut self, gid: u32) {
        self.event(TAG_FAULT_INJECT, &[gid as u64]);
    }

    fn fault_tag(&mut self, index: u32, dropped: u32, injected: u32, disabled: u32, wiped: u32) {
        let fields = [index, dropped, injected, disabled, wiped].map(u64::from);
        self.event(TAG_FAULT_TAG, &fields);
    }

    fn round_end(&mut self, s: &RoundSummary) {
        self.event(TAG_ROUND_END, &[s.round, s.beeps as u64, s.delivered]);
        self.buf.extend_from_slice(&s.digest.to_le_bytes());
        self.rounds += 1;
    }
}

/// The decoding side: [`TraceReader::open`] validates the header, then
/// [`TraceReader::next_event`] streams events until the footer.
#[derive(Debug, Clone)]
pub struct TraceReader<'a> {
    /// The blob without its digest.
    buf: &'a [u8],
    pos: usize,
    header: TraceHeader,
    /// `RoundEnd` events decoded so far (the footer must agree).
    rounds: u64,
    footer: Option<TraceFooter>,
}

impl<'a> TraceReader<'a> {
    /// Validates magic, version and the trailing digest, in that order,
    /// then decodes the header.
    pub fn open(blob: &'a [u8]) -> Result<TraceReader<'a>, TraceError> {
        if blob.get(..4) != Some(&TRACE_MAGIC[..]) {
            return Err(TraceError::BadMagic);
        }
        let mut pos = 4usize;
        let version = get_varint(blob, &mut pos)?;
        if version != TRACE_VERSION as u64 {
            return Err(TraceError::BadVersion(version.min(u16::MAX as u64) as u16));
        }
        let body = blob.len().saturating_sub(8).max(pos);
        let (buf, digest) = blob.split_at(body);
        if digest.len() < 8 {
            return Err(WireError::Truncated { offset: body }.into());
        }
        if fnv1a64(buf).to_le_bytes() != digest {
            return Err(WireError::BadDigest { offset: body }.into());
        }
        let pos = &mut pos;
        let c = get_int(buf, pos, "links per edge")?;
        let n = get_len(buf, pos, "node count")?;
        let mut node_ports = Vec::with_capacity(n);
        for _ in 0..n {
            node_ports.push(get_int(buf, pos, "port count")?);
        }
        let m = get_len(buf, pos, "edge count")?;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            edges.push((
                get_int(buf, pos, "edge endpoint")?,
                get_int(buf, pos, "edge port")?,
                get_int(buf, pos, "edge endpoint")?,
                get_int(buf, pos, "edge port")?,
            ));
        }
        Ok(TraceReader {
            buf,
            pos: *pos,
            header: TraceHeader {
                version: version as u16,
                c,
                node_ports,
                edges,
            },
            rounds: 0,
            footer: None,
        })
    }

    /// The decoded header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The footer; populated once [`TraceReader::next_event`] has
    /// returned `Ok(None)`.
    pub fn footer(&self) -> Option<TraceFooter> {
        self.footer
    }

    /// Byte offset of the next undecoded byte (for diagnostics).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Decodes the next event; `Ok(None)` after the footer was reached
    /// (and the blob verified to end there).
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        if self.footer.is_some() {
            return Ok(None);
        }
        let tag_offset = self.pos;
        let Some(&tag) = self.buf.get(tag_offset) else {
            return Err(TraceError::MissingFooter);
        };
        self.pos += 1;
        let buf = self.buf;
        let pos = &mut self.pos;
        let ev = match tag {
            TAG_END => {
                let offset = *pos;
                let rounds = get_varint(buf, pos)?;
                if rounds != self.rounds {
                    let what = "footer round count";
                    return Err(WireError::BadValue { what, offset }.into());
                }
                let wall_micros = get_varint(buf, pos)?;
                if *pos != buf.len() {
                    return Err(TraceError::TrailingBytes { offset: *pos });
                }
                self.footer = Some(TraceFooter {
                    rounds,
                    wall_micros,
                });
                return Ok(None);
            }
            TAG_CONFIG_DELTA => TraceEvent::ConfigDelta {
                gid: get_int(buf, pos, "pin gid")?,
                pset: get_int(buf, pos, "partition set")?,
            },
            TAG_BEEP => TraceEvent::Beep {
                gid: get_int(buf, pos, "beep gid")?,
            },
            TAG_ADD_NODE => TraceEvent::AddNode {
                ports: get_int(buf, pos, "port count")?,
            },
            TAG_CONNECT => TraceEvent::Connect {
                v: get_int(buf, pos, "edge endpoint")?,
                p: get_int(buf, pos, "edge port")?,
                w: get_int(buf, pos, "edge endpoint")?,
                q: get_int(buf, pos, "edge port")?,
            },
            TAG_DISCONNECT => TraceEvent::Disconnect {
                v: get_int(buf, pos, "edge endpoint")?,
                p: get_int(buf, pos, "edge port")?,
            },
            TAG_ISOLATE => TraceEvent::Isolate {
                v: get_int(buf, pos, "node id")?,
            },
            TAG_CHURN_TAG => TraceEvent::ChurnTag {
                index: get_int(buf, pos, "churn index")?,
                inserted: get_int(buf, pos, "churn insert count")?,
                removed: get_int(buf, pos, "churn remove count")?,
            },
            TAG_ROUND_END => {
                let round = get_varint(buf, pos)?;
                let beeps = get_int(buf, pos, "beep count")?;
                let delivered = get_varint(buf, pos)?;
                let Some(digest) = buf.get(*pos..*pos + 8) else {
                    return Err(WireError::Truncated { offset: *pos }.into());
                };
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(digest);
                *pos += 8;
                self.rounds += 1;
                TraceEvent::RoundEnd(RoundSummary {
                    round,
                    beeps,
                    delivered,
                    digest: u64::from_le_bytes(bytes),
                })
            }
            TAG_FAULT_DROP => TraceEvent::FaultDrop {
                gid: get_int(buf, pos, "dropped beep gid")?,
            },
            TAG_FAULT_INJECT => TraceEvent::FaultInject {
                gid: get_int(buf, pos, "injected beep gid")?,
            },
            TAG_FAULT_TAG => TraceEvent::FaultTag {
                index: get_int(buf, pos, "fault index")?,
                dropped: get_int(buf, pos, "fault drop count")?,
                injected: get_int(buf, pos, "fault inject count")?,
                disabled: get_int(buf, pos, "fault disable count")?,
                wiped: get_int(buf, pos, "fault wipe count")?,
            },
            TAG_FLIGHT_KEY => TraceEvent::FlightKey {
                plan_seed: get_varint(buf, pos)?,
                scenario_seed: get_varint(buf, pos)?,
                event: get_varint(buf, pos)?,
            },
            other => {
                return Err(TraceError::BadTag {
                    tag: other,
                    offset: tag_offset,
                })
            }
        };
        Ok(Some(ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<u8> {
        let mut w = TraceWriter::new();
        w.topology(2, &[6, 6, 6], &[(0, 0, 1, 3), (1, 1, 2, 4)]);
        w.add_node(6);
        w.connect(2, 0, 3, 3);
        w.config_delta(7, 0);
        w.config_delta(13, 2);
        w.beep(0);
        w.round_end(&RoundSummary {
            round: 1,
            beeps: 1,
            delivered: 5,
            digest: 0xDEAD_BEEF_0BAD_F00D,
        });
        w.disconnect(2, 0);
        w.isolate(3);
        w.churn_tag(0, 1, 1);
        w.beep(4);
        w.round_end(&RoundSummary {
            round: 2,
            beeps: 1,
            delivered: 2,
            digest: 42,
        });
        w.finish(123_456)
    }

    #[test]
    fn encode_decode_round_trip() {
        let blob = sample_trace();
        let mut r = TraceReader::open(&blob).unwrap();
        assert_eq!(r.header().c, 2);
        assert_eq!(r.header().node_ports, vec![6, 6, 6]);
        assert_eq!(r.header().edges.len(), 2);
        let mut events = Vec::new();
        while let Some(ev) = r.next_event().unwrap() {
            events.push(ev);
        }
        assert_eq!(events.len(), 11);
        assert_eq!(events[0], TraceEvent::AddNode { ports: 6 });
        assert!(matches!(events[5], TraceEvent::RoundEnd(s) if s.delivered == 5));
        assert_eq!(
            r.footer(),
            Some(TraceFooter {
                rounds: 2,
                wall_micros: 123_456
            })
        );
        // Idempotent after the footer.
        assert_eq!(r.next_event().unwrap(), None);
    }

    #[test]
    fn flight_key_round_trips_through_the_codec() {
        let mut w = TraceWriter::new();
        w.topology(1, &[4, 4], &[(0, 0, 1, 2)]);
        w.flight_key(0xFEED_F00D, 777, 3);
        w.beep(1);
        w.round_end(&RoundSummary::default());
        let blob = w.finish(0);
        let mut r = TraceReader::open(&blob).unwrap();
        assert_eq!(
            r.next_event().unwrap(),
            Some(TraceEvent::FlightKey {
                plan_seed: 0xFEED_F00D,
                scenario_seed: 777,
                event: 3
            })
        );
        let mut rest = 0;
        while r.next_event().unwrap().is_some() {
            rest += 1;
        }
        assert_eq!(rest, 2);
        assert_eq!(r.footer().map(|f| f.rounds), Some(1));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut blob = sample_trace();
        blob[0] ^= 0x40;
        assert_eq!(TraceReader::open(&blob).unwrap_err(), TraceError::BadMagic);
        let mut blob = sample_trace();
        blob[4] = 9; // version varint
        assert_eq!(
            TraceReader::open(&blob).unwrap_err(),
            TraceError::BadVersion(9)
        );
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        let blob = sample_trace();
        for len in 0..blob.len() {
            let cut = &blob[..len];
            let outcome = match TraceReader::open(cut) {
                Err(_) => Err(()),
                Ok(mut r) => loop {
                    match r.next_event() {
                        Err(_) => break Err(()),
                        Ok(None) => break Ok(()),
                        Ok(Some(_)) => {}
                    }
                },
            };
            assert_eq!(outcome, Err(()), "prefix of {len} bytes decoded cleanly");
        }
    }

    /// `blob` with its body edited by `edit` and its digest recomputed,
    /// so the edit reaches the field decoders.
    fn resealed(blob: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = blob[..blob.len() - 8].to_vec();
        edit(&mut body);
        let digest = fnv1a64(&body);
        body.extend_from_slice(&digest.to_le_bytes());
        body
    }

    #[test]
    fn every_bit_flip_fails_the_digest() {
        let blob = sample_trace();
        // Past magic and version, whose flips fail their own checks.
        for byte in 5..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[byte] ^= 1 << bit;
                assert!(matches!(
                    TraceReader::open(&bad),
                    Err(TraceError::Wire(WireError::BadDigest { .. }))
                ));
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let blob = resealed(&sample_trace(), |body| body.push(0));
        let mut r = TraceReader::open(&blob).unwrap();
        let err = loop {
            match r.next_event() {
                Err(e) => break e,
                Ok(None) => panic!("trailing byte accepted"),
                Ok(Some(_)) => {}
            }
        };
        assert!(matches!(err, TraceError::TrailingBytes { .. }));
    }

    #[test]
    fn unknown_tags_carry_their_offset() {
        let mut w = TraceWriter::new();
        w.topology(1, &[2], &[]);
        let header_len = w.len();
        // Clobber the footer tag.
        let blob = resealed(&w.finish(0), |body| body[header_len] = 0x7F);
        let mut r = TraceReader::open(&blob).unwrap();
        assert_eq!(
            r.next_event().unwrap_err(),
            TraceError::BadTag {
                tag: 0x7F,
                offset: header_len
            }
        );
    }

    #[test]
    fn writer_without_topology_cannot_finish() {
        let result = std::panic::catch_unwind(|| TraceWriter::new().finish(0));
        assert!(result.is_err());
    }

    /// Decodes `blob` to its footer, or to the first error.
    fn decode(blob: &[u8]) -> Result<Vec<TraceEvent>, TraceError> {
        let mut r = TraceReader::open(blob)?;
        let mut events = Vec::new();
        while let Some(ev) = r.next_event()? {
            events.push(ev);
        }
        Ok(events)
    }

    /// A zero-padded varint decodes to the same value as the shortest
    /// one, so accepting it would give one trace two encodings: it is
    /// rejected at its offset, in the header and in an event alike.
    #[test]
    fn zero_padded_varints_are_rejected() {
        let blob = sample_trace();
        assert_eq!(blob[5], 2, "c = 2 right after magic and version");
        let padded = resealed(&blob, |body| {
            body.splice(5..6, [0x82, 0x00]);
        });
        assert_eq!(
            decode(&padded).unwrap_err(),
            TraceError::Wire(WireError::Overlong { offset: 5 })
        );
        // The footer's wall time, 123 456 = `C0 C4 07`, padded to four
        // bytes.
        let end = blob.len() - 8;
        assert_eq!(blob[end - 3..end], [0xC0, 0xC4, 0x07]);
        let padded = resealed(&blob, |body| {
            body.splice(end - 1..end, [0x87, 0x00]);
        });
        assert_eq!(
            decode(&padded).unwrap_err(),
            TraceError::Wire(WireError::Overlong { offset: end - 3 })
        );
        assert!(decode(&blob).is_ok());
    }

    /// Header counts are bounded by the bytes left: a blob whose 9-byte
    /// body claims 2^20 nodes is rejected before anything is reserved.
    #[test]
    fn header_counts_above_the_bytes_left_are_rejected() {
        let blob = resealed(&[0; 8], |body| {
            body.extend_from_slice(&TRACE_MAGIC);
            for v in [TRACE_VERSION as u64, 1, 1 << 20] {
                put_varint(body, v);
            }
        });
        assert_eq!(
            TraceReader::open(&blob).unwrap_err(),
            TraceError::Wire(WireError::BadValue {
                what: "node count",
                offset: 6
            })
        );
    }

    /// The footer must count the rounds the stream carried.
    #[test]
    fn a_footer_that_miscounts_rounds_is_rejected() {
        let mut w = TraceWriter::new();
        w.topology(1, &[2], &[]);
        w.round_end(&RoundSummary::default());
        let blob = w.finish(0);
        let at = blob.len() - 10;
        assert_eq!(blob[at], 1, "the footer's round count");
        let blob = resealed(&blob, |body| body[at] = 2);
        assert_eq!(
            decode(&blob).unwrap_err(),
            TraceError::Wire(WireError::BadValue {
                what: "footer round count",
                offset: at
            })
        );
    }
}
