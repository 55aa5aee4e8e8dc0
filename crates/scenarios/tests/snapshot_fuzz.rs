//! SPFS decoder fuzz beyond bit flips. `DYNAMIC_WORLD` and `SESSION`
//! blobs, taken between a churn event and its tick, are mutated and
//! resealed with a valid digest, so every mutation reaches the payload
//! decoders:
//!
//! * random splices: a slice of one payload replaces a slice of another,
//!   of the same kind or not;
//! * inflated varints: a varint is rewritten as a large value, so length
//!   fields claim far more than the blob holds;
//! * cross-kind payloads: each payload sealed under every other kind.
//!
//! Decoding must never panic, every accepted blob must re-encode to the
//! same bytes, and one decode may allocate at most [`ALLOC_PER_BYTE`]
//! bytes per blob byte, measured by a counting allocator that this test
//! binary installs. Every accepted `DYNAMIC_WORLD` blob must also be
//! self-consistent: its circuit count is a naive union-find count over
//! its own pins, a round with a beep on every node delivers exactly what
//! [`World::tick_reference`] delivers, and it passes the rebuild oracle
//! ([`verify_against_rebuild`]). A structure edited off its invariants,
//! or lying on the edge of the `i32` range, must be rejected for its
//! cells.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use amoebot_circuits::World;
use amoebot_dynamics::{derive_rng, verify_against_rebuild, ChurnFamily, ChurnPlan, DynamicWorld};
use amoebot_grid::{shapes, AmoebotStructure, Coord};
use amoebot_scenarios::server::Session;
use amoebot_telemetry::wire::{self, fnv1a64, WireError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use rand::rngs::StdRng;
use rand::Rng;

/// The most one decode may allocate per byte of its blob. A
/// `DYNAMIC_WORLD` decode (a `SESSION` embeds one) derives its topology
/// from the editor's cells, 8 bytes per port slot and 4 per id, and
/// builds its world with `World::new`. That allocates 57 bytes per pin
/// (pin tables, labels, bucket bounds, digest caches, the beep, delivery
/// and dirty-pin lists, bitsets) and 4 per id, and only after checking
/// that the bytes left can hold the pins, at least one byte each. Each
/// editor id has 6 slots and `6c` pins, and costs at least `3 + 6c`
/// bytes (its coordinate, one list entry and its pins). Decode allocates
/// about `342c + 178` bytes per id: the world's `342c + 56`, about 58 for
/// the editor's coordinates, liveness, lists, derived index and neighbor
/// table, and up to about 64 for its cell map, which holds 1 KiB for each
/// 16×16-cell chunk the live cells meet (a line meets one per 16 cells, a
/// blob fewer). That is at most about 58 bytes per byte.
///
/// Over these fuzz inputs the most was 50, from a spliced `DYNAMIC_WORLD`.
const ALLOC_PER_BYTE: usize = 64;

/// Mutations per seed blob and mutation kind.
const ROUNDS: usize = 1000;

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

/// Envelope header length: magic, version, kind.
const HEADER: usize = 4 + 2 + 1;

/// The payload of a sealed blob.
fn payload(blob: &[u8]) -> &[u8] {
    &blob[HEADER..blob.len() - 8]
}

/// Seals `payload` under `kind` with a valid digest.
fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len() + 8);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    let digest = fnv1a64(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Decodes `blob` as `kind`, asserting the allocation bound and that an
/// accepted blob re-encodes to itself. Returns whether it was accepted.
fn check(kind: u8, blob: &[u8], what: &str) -> bool {
    fn run<T>(
        blob: &[u8],
        decode: fn(&[u8]) -> Result<T, WireError>,
        encode: fn(&T) -> Vec<u8>,
    ) -> (Option<Vec<u8>>, usize) {
        let before = ALLOCATED.with(Cell::get);
        let decoded = decode(blob);
        let allocated = ALLOCATED.with(Cell::get) - before;
        (decoded.ok().map(|t| encode(&t)), allocated)
    }
    let (encoded, allocated) = match kind {
        wire::kind::DYNAMIC_WORLD => run(
            blob,
            DynamicWorld::from_snapshot_bytes,
            DynamicWorld::snapshot_bytes,
        ),
        _ => run(blob, Session::from_snapshot_bytes, Session::snapshot_bytes),
    };
    assert!(
        allocated <= ALLOC_PER_BYTE * blob.len() + 4096,
        "{what}: decoding {} bytes allocated {allocated}",
        blob.len()
    );
    if let Some(bytes) = &encoded {
        let at = bytes.iter().zip(blob).position(|(a, b)| a != b);
        assert!(
            bytes == blob,
            "{what}: an accepted blob re-encodes differently (first at {at:?}, lengths {} and {})",
            bytes.len(),
            blob.len()
        );
        if kind == wire::kind::DYNAMIC_WORLD {
            let dw = DynamicWorld::from_snapshot_bytes(blob).unwrap();
            if let Err(e) = verify_against_rebuild(&dw) {
                panic!("{what}: an accepted dynamic world fails the rebuild oracle: {e}");
            }
            assert_consistent(dw.world().clone(), what);
        }
    }
    encoded.is_some()
}

/// Naive circuit count from the public pin reads alone: union-find over
/// every link, then the distinct roots of the referenced sets.
fn naive_circuit_count(w: &World) -> usize {
    let topo = w.topology();
    let c = w.links_per_edge();
    let mut base = vec![0usize];
    for v in 0..topo.len() {
        base.push(base[v] + topo.ports_len(v) * c);
    }
    let mut parent: Vec<usize> = (0..base[topo.len()]).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for v in 0..topo.len() {
        for (p, u, q) in topo.neighbors(v) {
            for link in 0..c {
                let a = find(&mut parent, base[v] + w.pin_config(v, p, link) as usize);
                let b = find(&mut parent, base[u] + w.pin_config(u, q, link) as usize);
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    let mut roots: Vec<usize> = Vec::new();
    for (v, &node_base) in base.iter().enumerate().take(topo.len()) {
        for p in 0..topo.ports_len(v) {
            for link in 0..c {
                let set = node_base + w.pin_config(v, p, link) as usize;
                roots.push(find(&mut parent, set));
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

/// Asserts that a decoded world agrees with its own pins: its circuit
/// count is the naive one, and one round with a beep on every node (on
/// the set of its first pin) delivers what the full-recompute engine
/// delivers on a clone.
fn assert_consistent(world: World, what: &str) {
    let naive = naive_circuit_count(&world);
    assert_eq!(
        world.clone().circuit_count(),
        naive,
        "{what}: an accepted world miscounts its circuits"
    );
    let mut lazy = world;
    let n = lazy.topology().len();
    for v in 0..n {
        if lazy.pset_capacity(v) > 0 {
            let pset = lazy.pin_config(v, 0, 0);
            lazy.beep(v, pset);
        }
    }
    let mut reference = lazy.clone();
    lazy.tick();
    reference.tick_reference();
    for v in 0..n {
        for pset in 0..lazy.pset_capacity(v) as u16 {
            assert_eq!(
                lazy.received(v, pset),
                reference.received(v, pset),
                "{what}: an accepted world delivers to node {v} set {pset} unlike the reference"
            );
        }
    }
}

/// The two seed blobs, each taken after a detach event's edits and
/// before its tick, with the last round's deliveries on record.
fn seeds() -> Vec<(u8, Vec<u8>)> {
    let coords = shapes::random_blob(120, &mut derive_rng(5, 0));
    let mut dw = DynamicWorld::new(&AmoebotStructure::new(coords).unwrap(), 2);
    for v in 0..dw.world().topology().len() {
        dw.world_mut().global_pin_config(v);
    }
    dw.world_mut().circuit_count();
    let plan = ChurnPlan::new(11, ChurnFamily::RandomDetach, 2, 2);
    plan.apply(&mut dw, 0);
    let origin = dw.editor().live_ids()[0] as usize;
    dw.world_mut().beep(origin, 0);
    dw.world_mut().tick();
    let removed = plan.apply(&mut dw, 1).removed.len();
    assert!(removed > 0 && dw.world().relabel_pending(), "cuts pending");

    let mut session = Session::create("fuzz", "blob-churn-broadcast", 150, 9, 6, 3).unwrap();
    session.step(2).unwrap();
    session.mutate(false).unwrap();
    vec![
        (wire::kind::DYNAMIC_WORLD, dw.snapshot_bytes()),
        (wire::kind::SESSION, session.snapshot_bytes()),
    ]
}

const KINDS: [u8; 2] = [wire::kind::DYNAMIC_WORLD, wire::kind::SESSION];

#[test]
fn seed_blobs_round_trip() {
    for (kind, blob) in seeds() {
        assert!(check(kind, &blob, "seed blob"), "kind {kind} seed rejected");
    }
}

#[test]
fn cross_kind_payloads_are_rejected_cleanly() {
    for (kind, blob) in seeds() {
        for other in KINDS {
            if other != kind {
                let what = format!("kind {kind} payload sealed as {other}");
                check(other, &seal(other, payload(&blob)), &what);
            }
        }
    }
}

#[test]
fn random_splices_never_panic() {
    let seeds = seeds();
    let mut rng: StdRng = derive_rng(1, 0);
    for (kind, blob) in &seeds {
        for round in 0..ROUNDS {
            let base = payload(blob);
            let (_, donor) = &seeds[rng.gen_range(0..seeds.len())];
            let donor = payload(donor);
            let at = rng.gen_range(0..=base.len());
            let cut = rng.gen_range(0..=(base.len() - at).min(64));
            let from = rng.gen_range(0..donor.len());
            let take = rng.gen_range(0..=(donor.len() - from).min(64));
            let mut spliced = base[..at].to_vec();
            spliced.extend_from_slice(&donor[from..from + take]);
            spliced.extend_from_slice(&base[at + cut..]);
            let what = format!("kind {kind} splice #{round} at {at}");
            check(*kind, &seal(*kind, &spliced), &what);
        }
    }
}

#[test]
fn inflated_varints_never_panic() {
    let seeds = seeds();
    let mut rng: StdRng = derive_rng(2, 0);
    let huge = [u32::MAX as u64, 1 << 31, 1 << 40, u64::MAX];
    for (kind, blob) in &seeds {
        let base = payload(blob);
        // Varint starts: the byte after one without a continuation bit.
        let starts: Vec<usize> = (0..base.len())
            .filter(|&i| i == 0 || base[i - 1] & 0x80 == 0)
            .collect();
        for round in 0..ROUNDS {
            let at = starts[rng.gen_range(0..starts.len())];
            let mut end = at;
            while end < base.len() && base[end] & 0x80 != 0 {
                end += 1;
            }
            let mut v = huge[rng.gen_range(0..huge.len())] >> rng.gen_range(0..8u32);
            let mut inflated = base[..at].to_vec();
            loop {
                let byte = (v & 0x7F) as u8;
                v >>= 7;
                if v == 0 {
                    inflated.push(byte);
                    break;
                }
                inflated.push(byte | 0x80);
            }
            inflated.extend_from_slice(&base[(end + 1).min(base.len())..]);
            let what = format!("kind {kind} varint #{round} at {at}");
            check(*kind, &seal(*kind, &inflated), &what);
        }
    }
}

/// The byte span of editor id `id`'s cell in a `DYNAMIC_WORLD` payload,
/// which opens with the editor's capacity and then every id's cell as
/// two zigzag varints.
fn cell_span(payload: &[u8], id: usize) -> std::ops::Range<usize> {
    let mut pos = 0;
    for _ in 0..1 + 2 * id {
        wire::get_varint(payload, &mut pos).expect("a cell varint");
    }
    let start = pos;
    for _ in 0..2 {
        wire::get_varint(payload, &mut pos).expect("a cell varint");
    }
    start..pos
}

/// A resealed editor whose live cells break the structure's invariants
/// is rejected for its cells: restoring it would panic the first rebuild
/// oracle that reads it.
#[test]
fn structures_off_their_invariants_are_rejected_by_their_cells() {
    let (_, blob) = seeds()
        .into_iter()
        .find(|&(kind, _)| kind == wire::kind::DYNAMIC_WORLD)
        .expect("a DYNAMIC_WORLD seed");
    let live = DynamicWorld::from_snapshot_bytes(&blob)
        .expect("the seed decodes")
        .editor()
        .live_ids()
        .to_vec();
    let (a, b) = (live[0] as usize, live[1] as usize);
    let base = payload(&blob);
    let with_cell = |id: usize, cell: &[u8]| {
        let mut edited = base.to_vec();
        edited.splice(cell_span(base, id), cell.iter().copied());
        seal(wire::kind::DYNAMIC_WORLD, &edited)
    };
    let mut far = Vec::new();
    wire::put_varint(&mut far, 2000); // q = 1000, zigzag-encoded
    wire::put_varint(&mut far, 2000); // r = 1000
                                      // A hexagon whose east side lies on the last column of the `i32`
                                      // range: its growth would wrap around to the first.
    let hexagon = shapes::hexagon(3);
    let shift = i32::MAX - hexagon.iter().map(|c| c.q).max().unwrap();
    let edge = hexagon.iter().map(|c| Coord::new(c.q + shift, c.r));
    let edge = DynamicWorld::new(&AmoebotStructure::new(edge).unwrap(), 2);
    let hostile = [
        ("a live cell moved off the structure", with_cell(a, &far)),
        (
            "two live ids on one cell",
            with_cell(b, &base[cell_span(base, a)]),
        ),
        ("a structure on the i32 edge", edge.snapshot_bytes()),
    ];
    for (what, blob) in hostile {
        match DynamicWorld::from_snapshot_bytes(&blob) {
            Err(WireError::BadValue {
                what: "editor cells",
                ..
            }) => {}
            other => panic!("{what}: {:?}", other.map(|dw| dw.len())),
        }
    }
}
