//! Request-frame fuzz: the server's frame reader and JSON parser on
//! hostile input. Recorded request frames, one of every op as a client
//! renders it, are mutated:
//!
//! * random splices: a slice of one payload replaces a slice of another,
//!   and the result is framed with its true length, so it reaches the
//!   parser;
//! * inflated length prefixes: a frame's prefix claims up to
//!   [`MAX_FRAME`] bytes, or more, while the stream holds only the
//!   recorded payload;
//! * truncations: the framed stream is cut at every byte;
//! * deep nesting: a request field nested past [`MAX_DEPTH`] in arrays
//!   and objects, next to the deepest nesting the parser accepts.
//!
//! Each input is read with [`read_frame`] until EOF or an error, and each
//! frame read is parsed with [`Json::parse`] after a UTF-8 check, as the
//! server's connection loop does. Nothing may panic, and reading and
//! parsing one input may allocate at most [`ALLOC_PER_BYTE`] bytes per
//! input byte plus the reader's up-front reserve, measured by a counting
//! allocator that this test binary installs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use amoebot_scenarios::json::{Json, MAX_DEPTH};
use amoebot_scenarios::server::{read_frame, write_frame, MAX_FRAME};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The most reading and parsing may allocate per input byte. The
/// parser's costliest value is an array holding one value: its first
/// push reserves four `Json` slots (32 bytes each) for the array's two
/// bracket bytes, 64 bytes per byte, and nesting such arrays repeats
/// that at every level. A one-field object reserves four 56-byte
/// `(String, Json)` slots for the five bytes of `{"":` and `}`, and a
/// string's buffer is at most twice its bytes or eight bytes for three
/// (`"a"`). The reader keeps at most twice the bytes it received.
const ALLOC_PER_BYTE: usize = 2 * size_of::<Json>() + 2;

/// What [`read_frame`] may reserve before a payload arrives, whatever
/// the length prefix claims; error messages fit the same slack.
const RESERVE: usize = 64 << 10;

/// Mutations per mutation kind.
const ROUNDS: usize = 2000;

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

/// Reads every frame of `input` and parses each, asserting the
/// allocation bound. Returns how many frames parsed as JSON.
fn check(input: &[u8], what: &str) -> usize {
    let before = ALLOCATED.with(Cell::get);
    let mut parsed = 0;
    let mut r = input;
    while let Ok(Some(frame)) = read_frame(&mut r) {
        if std::str::from_utf8(&frame)
            .map_err(|e| e.to_string())
            .and_then(Json::parse)
            .is_ok()
        {
            parsed += 1;
        }
    }
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert!(
        allocated <= ALLOC_PER_BYTE * input.len() + RESERVE,
        "{what}: reading {} bytes allocated {allocated}",
        input.len()
    );
    parsed
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).unwrap();
    out
}

/// One request payload of every op, as clients render them.
fn recorded() -> Vec<Vec<u8>> {
    let session = |op: &str| Json::object().field("op", op).field("session", "fuzz-1");
    [
        session("create")
            .field("family", "blob-churn-broadcast")
            .field("size", 150u64)
            .field("seed", 9u64)
            .field("events", 6u64)
            .field("per_event", 3u64),
        session("step").field("n", 3u64),
        session("mutate").field("verify", true),
        session("fault").field("verify", false),
        session("query").field("timing", false),
        session("stats"),
        session("watch").field("frames", 2u64),
        session("snapshot"),
        session("restore"),
        session("close"),
        Json::object().field("op", "shutdown"),
        Json::object()
            .field("op", "create")
            .field("session", "é→😀 \"quoted\"\n\u{1}")
            .field(
                "tags",
                Json::Array(vec![Json::Null, Json::I64(-7), Json::object()]),
            ),
    ]
    .iter()
    .map(|doc| doc.render_compact().into_bytes())
    .collect()
}

#[test]
fn recorded_frames_parse() {
    let payloads = recorded();
    let stream: Vec<u8> = payloads.iter().flat_map(|p| framed(p)).collect();
    assert_eq!(check(&stream, "recorded stream"), payloads.len());
}

#[test]
fn random_splices_never_panic() {
    let payloads = recorded();
    let mut rng = StdRng::seed_from_u64(1);
    for round in 0..ROUNDS {
        let base = &payloads[rng.gen_range(0..payloads.len())];
        let donor = &payloads[rng.gen_range(0..payloads.len())];
        let at = rng.gen_range(0..=base.len());
        let cut = rng.gen_range(0..=(base.len() - at).min(32));
        let from = rng.gen_range(0..donor.len());
        let take = rng.gen_range(0..=(donor.len() - from).min(32));
        let mut spliced = base[..at].to_vec();
        spliced.extend_from_slice(&donor[from..from + take]);
        spliced.extend_from_slice(&base[at + cut..]);
        check(&framed(&spliced), &format!("splice #{round} at {at}"));
    }
}

#[test]
fn inflated_length_prefixes_never_panic() {
    let payloads = recorded();
    let mut rng = StdRng::seed_from_u64(2);
    let huge = [MAX_FRAME as u32, MAX_FRAME as u32 + 1, u32::MAX, 1 << 20];
    for round in 0..ROUNDS {
        let payload = &payloads[rng.gen_range(0..payloads.len())];
        let claim = huge[rng.gen_range(0..huge.len())] >> rng.gen_range(0..12u32);
        let claim = claim.max(payload.len() as u32 + 1);
        // A complete frame first, so the inflated one is not the first
        // the reader meets.
        let mut input = framed(&payloads[0]);
        input.extend_from_slice(&claim.to_le_bytes());
        input.extend_from_slice(payload);
        let parsed = check(&input, &format!("prefix #{round} claiming {claim}"));
        assert_eq!(parsed, 1, "the inflated frame must not be read");
    }
}

#[test]
fn truncations_never_panic() {
    let payloads = recorded();
    let stream: Vec<u8> = payloads.iter().flat_map(|p| framed(p)).collect();
    for cut in 0..stream.len() {
        check(&stream[..cut], &format!("truncation at {cut}"));
    }
}

#[test]
fn nesting_past_the_limit_never_panics() {
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 4 * MAX_DEPTH] {
        let arrays = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        let objects = format!("{}0{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        let unclosed = "[{\"a\":".repeat(depth);
        for nested in [arrays, objects, unclosed] {
            let request = format!("{{\"op\":\"step\",\"session\":\"s\",\"n\":{nested}}}");
            let parsed = check(&framed(request.as_bytes()), &format!("depth {depth}"));
            // The request adds one level: its field nests `depth + 1` deep.
            let closed = !nested.ends_with(':');
            assert_eq!(
                parsed,
                usize::from(closed && depth < MAX_DEPTH),
                "depth {depth}"
            );
        }
    }
}
