//! The [`Recorder`] trait: the event sink the engine's hot paths emit
//! into, designed so that the no-op implementation compiles to nothing.
//!
//! Three associated consts gate the cost classes independently:
//!
//! * [`Recorder::TRACE`] — per-event emission (beeps, structure edits,
//!   churn/fault tags, round summaries). Emission sites are written
//!   `if R::TRACE { rec.event(...) }`, so with [`NullRecorder`] the
//!   branch folds away at monomorphization.
//! * [`Recorder::REPLAY`] — replay-grade detail on top of `TRACE`: the
//!   per-pin config-delta stream and the round delivery digests. These
//!   are what makes a trace re-verifiable, but they cost O(dirty pins)
//!   emissions + O(delivered) digest mixing per reconfigured tick —
//!   ruinous for an *always-on* sink on relabel-heavy workloads. The
//!   flight recorder keeps `REPLAY = false` (its records are windows,
//!   not replayable runs); `TraceWriter` keeps it `true`. Defaults to
//!   `true` so `TRACE` alone means "full detail".
//! * [`Recorder::TIMED`] — phase timers on the tick path. Each timer
//!   costs two `Instant::now()` per phase, which matters at millions of
//!   clean ticks per second, so every timer is gated here.
//!   [`TimedRecorder`] turns them on without recording.
//!
//! None of the three chooses how a tick labels its circuits: every
//! recorder's ticks take the one labelling path.

/// What one simulated round did, in replay-verifiable form: only what
/// the model observes — the beeps and the partition sets they reached —
/// never which labelling path the engine took to find them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundSummary {
    /// The engine's round counter after this tick.
    pub round: u64,
    /// Distinct partition-set gids that beeped into this tick.
    pub beeps: u32,
    /// Number of partition sets the beeps were delivered to.
    pub delivered: u64,
    /// Order-independent round digest: XOR of [`mix64`]`(gid)` over
    /// every delivered gid, further XORed with
    /// [`mix64`]`(gid ^ `[`BEEP_DIGEST_SALT`]`)` over every beeping gid.
    /// Replay recomputes it from the live engine's labeling without
    /// materializing the delivery set. The salted beep term pins down
    /// *which* partition set beeped — without it, a corrupted beep gid
    /// landing on another member of the same circuit would deliver
    /// identically and slip through.
    pub digest: u64,
}

/// The engine event sink. All sinks have empty defaults; implementors
/// override what they care about. See the module docs for the gating
/// contract.
pub trait Recorder {
    /// Whether event emission is live (see module docs).
    const TRACE: bool;
    /// Whether per-tick phase timers are live (see module docs).
    const TIMED: bool;
    /// Whether replay-grade detail (config deltas, round digests) is
    /// emitted too; only consulted when [`Recorder::TRACE`] is on (see
    /// module docs).
    const REPLAY: bool = true;

    /// The world this recording starts from: links per edge, per-node
    /// port counts, and every edge as `(v, p, w, q)`. Emitted once,
    /// before any other event.
    fn topology(&mut self, _c: u32, _node_ports: &[u32], _edges: &[(u32, u32, u32, u32)]) {}

    /// Pin `gid`'s partition set changed to `pset` since the last tick
    /// (the net change; intermediate writes are not observable).
    fn config_delta(&mut self, _gid: u32, _pset: u16) {}

    /// Partition-set `gid` beeped into the upcoming tick.
    fn beep(&mut self, _gid: u32) {}

    /// A node with `ports` port slots was appended.
    fn add_node(&mut self, _ports: u32) {}

    /// An edge `(v, p)`–`(w, q)` was wired.
    fn connect(&mut self, _v: u32, _p: u32, _w: u32, _q: u32) {}

    /// The edge behind port `p` of `v` was severed.
    fn disconnect(&mut self, _v: u32, _p: u32) {}

    /// Node `v` was isolated (all edges severed, pins reset to
    /// singletons).
    fn isolate(&mut self, _v: u32) {}

    /// Churn event `index` applied `inserted` joins and `removed` leaves.
    fn churn_tag(&mut self, _index: u32, _inserted: u32, _removed: u32) {}

    /// The adversary suppressed a beep that partition-set `gid` sent
    /// into the upcoming tick (the send is still recorded via
    /// [`Recorder::beep`]; this marks it undelivered).
    fn beep_dropped(&mut self, _gid: u32) {}

    /// The adversary spuriously injected a beep on partition-set `gid`
    /// into the upcoming tick (also recorded via [`Recorder::beep`];
    /// this attributes it to the fault plan rather than the algorithm).
    fn beep_injected(&mut self, _gid: u32) {}

    /// Fault event `index` staged `dropped` beep suppressions,
    /// `injected` spurious beeps, `disabled` node activations withheld
    /// and `wiped` crash-recovery state wipes.
    fn fault_tag(
        &mut self,
        _index: u32,
        _dropped: u32,
        _injected: u32,
        _disabled: u32,
        _wiped: u32,
    ) {
    }

    /// One tick completed.
    fn round_end(&mut self, _summary: &RoundSummary) {}
}

/// The no-op recorder: every emission site compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const TRACE: bool = false;
    const TIMED: bool = false;
}

/// Phase timers on, event emission off — what a `--metrics-json` run
/// uses: full per-phase timing without paying for trace digests.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimedRecorder;

impl Recorder for TimedRecorder {
    const TRACE: bool = false;
    const TIMED: bool = true;
}

/// Salt XORed into a beeping gid before mixing it into the round digest
/// (see [`RoundSummary::digest`]), keeping the beep terms disjoint from
/// the delivery terms of the same gid.
pub const BEEP_DIGEST_SALT: u64 = 0xB5EE_7D16_E571_AC3D;

/// SplitMix64 finalizer: the mixing function behind the delivery digest.
/// Gid sets are XOR-combined after mixing, so the digest is independent
/// of delivery order but sensitive to any membership difference.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_inert_and_inactive() {
        let mut r = NullRecorder;
        r.beep(3);
        r.round_end(&RoundSummary::default());
        const {
            assert!(!NullRecorder::TRACE && !NullRecorder::TIMED);
            assert!(!TimedRecorder::TRACE && TimedRecorder::TIMED);
        }
    }

    #[test]
    fn mix64_separates_membership() {
        // XOR of mixed gids distinguishes sets that plain XOR confuses:
        // {0, 3} vs {1, 2} collide unmixed (0^3 == 1^2) but not mixed.
        assert_ne!(mix64(0) ^ mix64(3), mix64(1) ^ mix64(2));
    }
}
