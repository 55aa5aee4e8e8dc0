//! SPFT decoder fuzz, modelled on `snapshot_fuzz.rs`. Recorded
//! `blob-broadcast` and `blob-churn-broadcast` traces and a flight-record
//! dump, all of 64 amoebots, are mutated and resealed with a valid
//! digest, so every mutation reaches the field decoders:
//!
//! * random splices: a slice of one body replaces a slice of another;
//! * inflated varints: a varint is rewritten as a large value, so counts
//!   claim far more than the blob holds;
//! * zero-padded varints: every varint field of every seed, padded;
//! * truncations: every proper prefix of every body;
//! * cross-format blobs: `SPFS` snapshots fed to the trace reader.
//!
//! Decoding to the footer must never panic, every accepted blob must
//! re-encode byte-identically through [`TraceWriter`], and one decode may
//! allocate at most [`ALLOC_PER_BYTE`] bytes per blob byte, measured by a
//! counting allocator that this test binary installs. Every mutant is
//! also replayed, for panics only: replay builds a world of the header's
//! `c × ports` pins, which a 64-amoebot seed keeps small.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use amoebot_circuits::{replay_trace, World};
use amoebot_dynamics::{derive_rng, ChurnFamily, ChurnPlan, DynamicWorld};
use amoebot_grid::{shapes, AmoebotStructure};
use amoebot_scenarios::{default_registry, record_scenario, run_scenario_with};
use amoebot_telemetry::wire::{fnv1a64, put_varint, WireError};
use amoebot_telemetry::{
    FlightRecorder, Recorder, TraceError, TraceEvent, TraceReader, TraceWriter,
};
use rand::rngs::StdRng;
use rand::Rng;

/// The most one decode may allocate per byte of its blob. A decode
/// reserves the header's port counts (4 bytes each) and edges (16 bytes
/// each) only after checking that each count fits in the bytes left, so
/// no blob can make it allocate more than 16 bytes per byte.
const ALLOC_PER_BYTE: usize = 16;

/// Mutations per seed blob and mutation kind.
const ROUNDS: usize = 400;

/// Amoebots per seed trace.
const SIZE: usize = 64;

thread_local! {
    /// Bytes this thread has asked the allocator for (fresh blocks and
    /// growth of reallocated ones).
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s contract, and `System` gets
    // the same layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim (see above).
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim (see above).
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from this allocator, which is `System`
    // underneath, with this layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim (see above).
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
    // `realloc`'s contract for `new_size`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded verbatim (see above).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most pins a replayed mutant's starting world may have: what a
/// 64-amoebot header could ask for with every port count and `c` at
/// their bound of 64.
const REPLAY_PINS: u64 = 64 * 64 * 64;

/// A blob without its digest.
fn body(blob: &[u8]) -> &[u8] {
    &blob[..blob.len() - 8]
}

/// Seals `body` with a valid digest.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&fnv1a64(body).to_le_bytes());
    out
}

/// Decodes `blob` to its footer, dropping the events.
fn decode(blob: &[u8]) -> Result<(), TraceError> {
    let mut r = TraceReader::open(blob)?;
    while r.next_event()?.is_some() {}
    Ok(())
}

/// Re-encodes a blob the reader accepts through [`TraceWriter`].
fn reencode(blob: &[u8]) -> Vec<u8> {
    let mut r = TraceReader::open(blob).unwrap();
    let h = r.header().clone();
    let mut w = TraceWriter::new();
    w.topology(h.c, &h.node_ports, &h.edges);
    while let Some(ev) = r.next_event().unwrap() {
        w.event(ev);
    }
    w.finish(r.footer().unwrap().wall_micros)
}

/// Decodes `blob`, asserting the allocation bound and that an accepted
/// blob re-encodes to itself, then replays it for panics. Returns
/// whether the decode accepted it.
fn check(blob: &[u8], what: &str) -> bool {
    let before = ALLOCATED.with(Cell::get);
    let decoded = decode(blob);
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert!(
        allocated <= ALLOC_PER_BYTE * blob.len(),
        "{what}: decoding {} bytes allocated {allocated}",
        blob.len()
    );
    if decoded.is_ok() {
        let bytes = reencode(blob);
        let at = bytes.iter().zip(blob).position(|(a, b)| a != b);
        assert!(
            bytes == blob,
            "{what}: an accepted blob re-encodes differently (first at {at:?}, lengths {} and {})",
            bytes.len(),
            blob.len()
        );
    }
    if let Ok(r) = TraceReader::open(blob) {
        let h = r.header();
        let pins = h.c as u64 * h.node_ports.iter().map(|&p| p as u64).sum::<u64>();
        if pins <= REPLAY_PINS {
            let _ = replay_trace(blob);
        }
    }
    decoded.is_ok()
}

/// The seed blobs: two recorded traces and a flight-record dump.
fn seeds() -> Vec<Vec<u8>> {
    let registry = default_registry();
    let scenario = |family: &str| registry.get(family).unwrap().build_sized(3, SIZE).unwrap();
    let mut out = Vec::new();
    for family in ["blob-broadcast", "blob-churn-broadcast"] {
        let (result, bytes) = record_scenario(&scenario(family)).unwrap();
        assert!(result.pass, "{family}: the recorded run passes");
        replay_trace(&bytes).unwrap_or_else(|e| panic!("{family}: seed replay: {e}"));
        out.push(bytes);
    }
    let mut flight: FlightRecorder = FlightRecorder::default();
    run_scenario_with(&scenario("blob-churn-broadcast"), &mut flight);
    out.push(
        flight
            .to_trace_bytes(1, 2, 3)
            .expect("the recorder attached"),
    );
    out
}

/// Where every varint of `blob` starts: the header's fields and every
/// event's fields after its tag, minus a `RoundEnd`'s raw digest.
fn varint_starts(blob: &[u8]) -> Vec<usize> {
    let mut regions = Vec::new();
    let mut r = TraceReader::open(blob).unwrap();
    regions.push((4, r.offset()));
    loop {
        let start = r.offset();
        let ev = r.next_event().unwrap();
        let end = if ev.is_some() {
            r.offset()
        } else {
            blob.len() - 8
        };
        let digest = if matches!(ev, Some(TraceEvent::RoundEnd(_))) {
            8
        } else {
            0
        };
        regions.push((start + 1, end - digest));
        if ev.is_none() {
            break;
        }
    }
    let mut starts = Vec::new();
    for (from, to) in regions {
        starts.extend((from..to).filter(|&i| i == from || blob[i - 1] & 0x80 == 0));
    }
    starts
}

#[test]
fn seed_blobs_round_trip() {
    for (i, blob) in seeds().iter().enumerate() {
        assert!(check(blob, "seed blob"), "seed {i} rejected");
    }
}

#[test]
fn snapshots_are_not_traces() {
    let coords = shapes::random_blob(SIZE, &mut derive_rng(5, 0));
    let mut dw = DynamicWorld::new(&AmoebotStructure::new(coords).unwrap(), 2);
    let plan = ChurnPlan::new(11, ChurnFamily::RandomDetach, 2, 2);
    plan.apply(&mut dw, 0);
    dw.world_mut().tick();
    let world: &World = dw.world();
    for blob in [world.snapshot_bytes(), dw.snapshot_bytes()] {
        assert!(!check(&blob, "snapshot blob"));
        assert_eq!(TraceReader::open(&blob).unwrap_err(), TraceError::BadMagic);
    }
}

#[test]
fn random_splices_never_panic() {
    let seeds = seeds();
    let mut rng: StdRng = derive_rng(1, 0);
    for (i, blob) in seeds.iter().enumerate() {
        for round in 0..ROUNDS {
            let base = body(blob);
            let donor = body(&seeds[rng.gen_range(0..seeds.len())]);
            let at = rng.gen_range(0..=base.len());
            let cut = rng.gen_range(0..=(base.len() - at).min(64));
            let from = rng.gen_range(0..donor.len());
            let take = rng.gen_range(0..=(donor.len() - from).min(64));
            let mut spliced = base[..at].to_vec();
            spliced.extend_from_slice(&donor[from..from + take]);
            spliced.extend_from_slice(&base[at + cut..]);
            check(
                &seal(&spliced),
                &format!("seed {i} splice #{round} at {at}"),
            );
        }
    }
}

/// Every header varint takes every large value (the node and edge counts
/// among them), then random varints anywhere do.
#[test]
fn inflated_varints_never_panic() {
    let mut rng: StdRng = derive_rng(2, 0);
    let huge = [u32::MAX as u64, 1 << 31, 1 << 40, u64::MAX];
    for (i, blob) in seeds().iter().enumerate() {
        let starts = varint_starts(blob);
        let header_end = TraceReader::open(blob).unwrap().offset();
        let mut cases: Vec<(usize, u64)> = starts
            .iter()
            .filter(|&&at| at < header_end)
            .flat_map(|&at| huge.map(|v| (at, v)))
            .collect();
        cases.extend((0..ROUNDS).map(|_| {
            let at = starts[rng.gen_range(0..starts.len())];
            (
                at,
                huge[rng.gen_range(0..huge.len())] >> rng.gen_range(0..8),
            )
        }));
        let base = body(blob);
        for (round, &(at, v)) in cases.iter().enumerate() {
            let mut end = at;
            while base[end] & 0x80 != 0 {
                end += 1;
            }
            let mut inflated = base[..at].to_vec();
            put_varint(&mut inflated, v);
            inflated.extend_from_slice(&base[end + 1..]);
            check(
                &seal(&inflated),
                &format!("seed {i} varint #{round} at {at}"),
            );
        }
    }
}

/// A padded varint decodes to the value of the shortest one, so a reader
/// that took it would accept two encodings of one trace.
#[test]
fn zero_padded_varints_are_rejected() {
    for (i, blob) in seeds().iter().enumerate() {
        let base = body(blob);
        for at in varint_starts(blob) {
            let mut end = at;
            while base[end] & 0x80 != 0 {
                end += 1;
            }
            let mut padded = base[..=end].to_vec();
            padded[end] |= 0x80;
            padded.push(0);
            padded.extend_from_slice(&base[end + 1..]);
            let padded = seal(&padded);
            assert!(!check(&padded, "padded varint"), "seed {i}: padded at {at}");
            let err = decode(&padded).unwrap_err();
            assert_eq!(
                err,
                TraceError::Wire(WireError::Overlong { offset: at }),
                "seed {i}: padded at {at}"
            );
        }
    }
}

#[test]
fn truncations_are_rejected() {
    for (i, blob) in seeds().iter().enumerate() {
        for len in 0..blob.len() {
            let what = format!("seed {i} cut to {len}");
            assert!(!check(&blob[..len], &what), "{what}");
            if len < blob.len() - 8 {
                assert!(!check(&seal(&body(blob)[..len]), &what), "{what} resealed");
            }
        }
    }
}
