//! Deterministic fault injection for the bulk-synchronous SMVP.
//!
//! The paper's central claim is that the BSP SMVP is *latency-bound*: every
//! barrier waits for the worst-case PE, so one straggling, silent, or dead
//! PE defines `T_comm` (Eq. 1/2 and the β bound of §3.4). A perfect-machine
//! executor can only ever measure the best case. This module supplies the
//! other half: a seeded, fully deterministic **fault plan** — per-step,
//! per-PE events — that an executor injects at precise points in the
//! assemble→compute→exchange→fold cycle and then *recovers from*, so the
//! realized efficiency under faults can be compared against the clean
//! Eq. (1) prediction.
//!
//! Determinism is the load-bearing property. A [`FaultPlan`] is a pure
//! function of `(seed, steps, pes, rates)`: the same plan replays the same
//! chaos every run, which is what makes "every recovered run is bitwise
//! equal to a fault-free run" a testable statement rather than a hope.
//!
//! Two fault kinds model what a PE of the paper's machine can do wrong:
//!
//! * [`FaultKind::Straggle`] — one PE's compute phase is delayed (per-PE
//!   jitter; the barrier absorbs it, and barrier-wait accounting sees it);
//! * [`FaultKind::Crash`] — the PE dies mid-step; recovery re-runs its
//!   compute inside the same step (the step is a pure function of `x`).
//!
//! Blocks fail only where bytes really travel: on the proc transport's
//! sockets, sampled by [`WireFaultPlan`] (corrupt, truncate, delay, reset,
//! stall) and healed by that transport's own protocol. An in-process
//! mailbox cannot lose or damage a block, so no block fault is simulated
//! there.
//!
//! [`FaultReport`] accounts for every event three ways — injected,
//! detected, recovered — plus the recovery work performed (inline crash
//! re-runs, and the wire layer's resends, reconnects and respawns). The
//! three counts must balance; [`FaultReport::balanced`] is the invariant
//! the chaos tests assert.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Duration;

/// SplitMix64 finalizer — the stateless mixer behind [`WireFaultPlan`]
/// sampling and [`RetryBackoff`] jitter. Pure: same input, same output.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform draw in `[0, 1)` from a mixed hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The PE's compute phase is delayed by `delay_us` microseconds —
    /// per-PE jitter that every barrier in the step must absorb.
    Straggle {
        /// Injected delay in microseconds.
        delay_us: u32,
    },
    /// The PE crashes mid-step (modeled as a worker panic while executing
    /// the PE's compute shard).
    Crash,
}

impl FaultKind {
    /// Short lower-case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Straggle { .. } => "straggle",
            FaultKind::Crash => "crash",
        }
    }
}

/// One kind of injected *wire* fault — damage applied to the live byte
/// stream between shard processes, the only place a block can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFaultKind {
    /// A payload byte of the outgoing frame is bit-flipped; the receiver's
    /// frame checksum detects it and requests a resend.
    Corrupt {
        /// Deterministic selector for the flipped byte/bit.
        salt: u64,
    },
    /// The tail of the outgoing frame is zeroed from a cut point (a runt
    /// frame with an intact length prefix, so the stream stays framed);
    /// detected exactly like corruption.
    Truncate {
        /// Deterministic selector for the cut point.
        cut: u64,
    },
    /// The outgoing frame is held back before hitting the socket.
    Delay {
        /// Injected delay in microseconds.
        delay_us: u32,
    },
    /// The connection is torn down mid-run; both sides must reconnect and
    /// replay their block caches.
    Reset,
    /// The sender goes silent while holding the connection open — the
    /// hung-but-alive peer the heartbeat/deadline layer exists to unmask.
    Stall,
}

impl WireFaultKind {
    /// Short lower-case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            WireFaultKind::Corrupt { .. } => "corrupt",
            WireFaultKind::Truncate { .. } => "truncate",
            WireFaultKind::Delay { .. } => "delay",
            WireFaultKind::Reset => "reset",
            WireFaultKind::Stall => "stall",
        }
    }
}

/// Per-kind wire-fault event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireFaultCounts {
    /// Bit-flipped frames.
    pub corrupt: u64,
    /// Runt (tail-zeroed) frames.
    pub truncate: u64,
    /// Artificially delayed frames.
    pub delay: u64,
    /// Torn-down connections.
    pub reset: u64,
    /// Hung-peer stalls.
    pub stall: u64,
}

impl WireFaultCounts {
    /// Adds `n` events of `kind`.
    pub fn add(&mut self, kind: &WireFaultKind, n: u64) {
        match kind {
            WireFaultKind::Corrupt { .. } => self.corrupt += n,
            WireFaultKind::Truncate { .. } => self.truncate += n,
            WireFaultKind::Delay { .. } => self.delay += n,
            WireFaultKind::Reset => self.reset += n,
            WireFaultKind::Stall => self.stall += n,
        }
    }

    /// Total events across kinds.
    pub fn total(&self) -> u64 {
        self.corrupt + self.truncate + self.delay + self.reset + self.stall
    }
}

impl fmt::Display for WireFaultCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (corrupt {}, truncate {}, delay {}, reset {}, stall {})",
            self.total(),
            self.corrupt,
            self.truncate,
            self.delay,
            self.reset,
            self.stall
        )
    }
}

/// A seeded, deterministic wire-fault sampler.
///
/// Unlike [`FaultPlan`] (which pre-generates events for a known `steps ×
/// pes` grid), the wire layer cannot enumerate frames up front — frame
/// counts depend on topology and recovery traffic. So the plan is a *pure
/// sampling function*: `sample(from, to, seq)` hashes the connection
/// identity and the per-connection ghost-frame sequence number against the
/// seed. The same `(seed, rate, from, to, seq)` always yields the same
/// verdict, which keeps wire chaos replayable without shared RNG state.
///
/// Transient kinds (corrupt, truncate, delay) each fire at `rate`; the
/// disruptive kinds are rarer — reset at `rate/4`, stall at `rate/10` —
/// mirroring how [`FaultRates::uniform`] treats crashes. Callers cap
/// resets/stalls per connection; the sampler itself is stateless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireFaultPlan {
    seed: u64,
    rate: f64,
}

impl WireFaultPlan {
    /// No wire faults (sampling always misses).
    pub fn none() -> Self {
        WireFaultPlan { seed: 0, rate: 0.0 }
    }

    /// The CLI's one-knob preset over `--wire-fault-rate/--wire-fault-seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        WireFaultPlan { seed, rate }
    }

    /// True if sampling can ever fire.
    pub fn is_armed(&self) -> bool {
        self.rate > 0.0
    }

    /// The verdict for ghost frame `seq` on the directed connection
    /// `from → to`. Rare kinds are checked first so the transients cannot
    /// shadow them.
    pub fn sample(&self, from: usize, to: usize, seq: u64) -> Option<WireFaultKind> {
        if self.rate <= 0.0 {
            return None;
        }
        let conn = ((from as u64) << 32) | to as u64;
        let mut h = mix64(self.seed ^ mix64(conn) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut draw = || {
            h = mix64(h);
            unit(h)
        };
        if draw() < self.rate / 10.0 {
            return Some(WireFaultKind::Stall);
        }
        if draw() < self.rate / 4.0 {
            return Some(WireFaultKind::Reset);
        }
        if draw() < self.rate {
            h = mix64(h);
            return Some(WireFaultKind::Corrupt { salt: h });
        }
        if draw() < self.rate {
            h = mix64(h);
            return Some(WireFaultKind::Truncate { cut: h });
        }
        if draw() < self.rate {
            h = mix64(h);
            let delay_us = 100 + (h % 700) as u32;
            return Some(WireFaultKind::Delay { delay_us });
        }
        None
    }
}

/// Bounded exponential backoff with deterministic *decorrelated jitter*
/// (`sleep = min(cap, base + rand_between(0, 3·prev − base))`), seeded so
/// the schedule is reproducible and redialing peers don't synchronize.
/// Used by the wire layer's reconnect dialer.
#[derive(Debug, Clone)]
pub struct RetryBackoff {
    state: u64,
    base_us: u64,
    cap_us: u64,
    prev_us: u64,
}

impl RetryBackoff {
    /// Backoff over `[base_us, cap_us]` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `base_us` is zero or exceeds `cap_us`.
    pub fn with_bounds(seed: u64, base_us: u64, cap_us: u64) -> Self {
        assert!(base_us > 0 && base_us <= cap_us, "need 0 < base <= cap");
        RetryBackoff {
            state: mix64(seed),
            base_us,
            cap_us,
            prev_us: base_us,
        }
    }

    /// The next delay in the schedule: always within `[base, cap]`, grows
    /// roughly geometrically, and is a pure function of `(seed, call #)`.
    pub fn next_delay(&mut self) -> Duration {
        self.state = mix64(self.state);
        let span = (self.prev_us.saturating_mul(3)).max(self.base_us + 1) - self.base_us;
        let next = (self.base_us + self.state % span).min(self.cap_us);
        self.prev_us = next;
        Duration::from_micros(next)
    }
}

/// One scheduled fault: a kind firing at `(step, pe)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Zero-based SMVP step at which the fault fires.
    pub step: u64,
    /// The victim PE.
    pub pe: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Per-kind injection probabilities, sampled once per `(step, pe, kind)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a PE straggles in a given step.
    pub straggle: f64,
    /// Probability a PE crashes in a given step (usually much smaller than
    /// the straggle rate).
    pub crash: f64,
    /// Hard cap on generated crash events across the whole plan (crashes
    /// are the expensive faults to recover from; `u32::MAX` means no cap).
    pub max_crashes: u32,
}

impl FaultRates {
    /// No faults at all.
    pub fn none() -> Self {
        FaultRates {
            straggle: 0.0,
            crash: 0.0,
            max_crashes: 0,
        }
    }

    /// The CLI's one-knob preset: stragglers at `rate`, crashes at a
    /// tenth of it capped to one — the paper's "one bad PE" scenario.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        FaultRates {
            straggle: rate,
            crash: rate / 10.0,
            max_crashes: 1,
        }
    }

    /// True if every rate is zero (the plan will be empty).
    pub fn is_zero(&self) -> bool {
        self.straggle == 0.0 && self.crash == 0.0
    }
}

/// A seeded, deterministic schedule of faults: the chaos layer's script.
///
/// Events are stored sorted by `(step, pe)` so an executor can look up the
/// faults for the cell it is about to execute in `O(log n)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (no faults; executors treat it as "chaos disabled").
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events (tests and targeted experiments);
    /// events are sorted into canonical `(step, pe)` order.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.step, e.pe));
        FaultPlan { events }
    }

    /// Generates the deterministic plan for `steps × pes` cells: for each
    /// cell, each fault kind fires independently with its
    /// [`FaultRates`] probability. Identical `(seed, steps, pes, rates)`
    /// always yield the identical plan.
    pub fn generate(seed: u64, steps: u64, pes: usize, rates: &FaultRates) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut crashes = 0u32;
        for step in 0..steps {
            for pe in 0..pes {
                if rates.straggle > 0.0 && rng.gen_bool(rates.straggle) {
                    let delay_us = rng.gen_range(30u32..=300);
                    events.push(FaultEvent {
                        step,
                        pe,
                        kind: FaultKind::Straggle { delay_us },
                    });
                }
                if rates.crash > 0.0 && crashes < rates.max_crashes && rng.gen_bool(rates.crash) {
                    crashes += 1;
                    events.push(FaultEvent {
                        step,
                        pe,
                        kind: FaultKind::Crash,
                    });
                }
            }
        }
        // Generation order is already (step, pe)-sorted.
        FaultPlan { events }
    }

    /// All scheduled events, sorted by `(step, pe)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Global indices of the events scheduled for `(step, pe)` — the
    /// contiguous sorted range, so the executor can pair each event with
    /// its own consumed-flag.
    pub fn at(&self, step: u64, pe: usize) -> std::ops::Range<usize> {
        let lo = self.events.partition_point(|e| (e.step, e.pe) < (step, pe));
        let hi = self
            .events
            .partition_point(|e| (e.step, e.pe) <= (step, pe));
        lo..hi
    }

    /// Count of scheduled events per kind.
    pub fn counts(&self) -> FaultCounts {
        let mut c = FaultCounts::default();
        for e in &self.events {
            c.add(&e.kind, 1);
        }
        c
    }
}

/// Per-kind event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Straggler delays.
    pub straggle: u64,
    /// PE crashes.
    pub crash: u64,
}

impl FaultCounts {
    /// Adds `n` events of `kind`.
    pub fn add(&mut self, kind: &FaultKind, n: u64) {
        match kind {
            FaultKind::Straggle { .. } => self.straggle += n,
            FaultKind::Crash => self.crash += n,
        }
    }

    /// Total events across kinds.
    pub fn total(&self) -> u64 {
        self.straggle + self.crash
    }
}

impl fmt::Display for FaultCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (straggle {}, crash {})",
            self.total(),
            self.straggle,
            self.crash
        )
    }
}

/// The chaos layer's ledger: every fault accounted for three ways, plus
/// the recovery work it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Events the plan actually fired during executed steps.
    pub injected: FaultCounts,
    /// Events the recovery machinery noticed (caught panic, observed
    /// delay).
    pub detected: FaultCounts,
    /// Events fully recovered from (output provably unaffected).
    pub recovered: FaultCounts,
    /// Inline crash re-runs: a crashed worker's compute re-executed on the
    /// calling thread within the same step.
    pub degraded_shards: u64,
    /// Wire faults injected on the socket byte stream (proc transport).
    pub wire_injected: WireFaultCounts,
    /// Wire faults the receiving side (or the supervisor) noticed.
    pub wire_detected: WireFaultCounts,
    /// Wire faults fully healed (resend, reconnect, or shard respawn).
    pub wire_recovered: WireFaultCounts,
    /// Cache replays served after a frame-checksum mismatch on the wire.
    pub wire_resends: u64,
    /// Socket connections re-established after a reset.
    pub reconnects: u64,
    /// Deadline escalations: a peer went silent past the conn timeout and
    /// was reported to the supervisor as suspect.
    pub suspects: u64,
    /// Shard processes respawned individually by the supervisor.
    pub respawned_shards: u64,
    /// Whole-ensemble retries (the last-resort fallback).
    pub ensemble_restarts: u64,
    /// Log2 histogram of injected wire delays and reconnect backoff waits,
    /// in microseconds (bucket `i` counts waits in `[2^i, 2^(i+1))` µs;
    /// the last bucket absorbs the tail).
    pub wire_delay_us_hist: [u64; 16],
    /// Exact total of the waits recorded into `wire_delay_us_hist`, in
    /// microseconds — the Prometheus `_sum` companion the log2 buckets
    /// alone cannot reconstruct.
    pub wire_delay_us_sum: u64,
}

/// Records a wait of `us` microseconds into a ledger's wire-delay
/// histogram (and its exact running sum).
pub fn record_delay_us(fr: &mut FaultReport, us: u64) {
    let bucket = if us == 0 {
        0
    } else {
        (63 - us.leading_zeros() as usize).min(15)
    };
    fr.wire_delay_us_hist[bucket] += 1;
    fr.wire_delay_us_sum += us;
}

impl FaultReport {
    /// The healing invariant: every injected fault was detected, and every
    /// detected fault was recovered — in-process *and* on the wire. Holds
    /// for any run that completes.
    pub fn balanced(&self) -> bool {
        self.injected == self.detected
            && self.detected == self.recovered
            && self.wire_injected == self.wire_detected
            && self.wire_detected == self.wire_recovered
    }

    /// Folds another report into this one (elementwise sums).
    pub fn merge(&mut self, other: &FaultReport) {
        for (mine, theirs) in [
            (&mut self.injected, &other.injected),
            (&mut self.detected, &other.detected),
            (&mut self.recovered, &other.recovered),
        ] {
            mine.straggle += theirs.straggle;
            mine.crash += theirs.crash;
        }
        self.degraded_shards += other.degraded_shards;
        for (mine, theirs) in [
            (&mut self.wire_injected, &other.wire_injected),
            (&mut self.wire_detected, &other.wire_detected),
            (&mut self.wire_recovered, &other.wire_recovered),
        ] {
            mine.corrupt += theirs.corrupt;
            mine.truncate += theirs.truncate;
            mine.delay += theirs.delay;
            mine.reset += theirs.reset;
            mine.stall += theirs.stall;
        }
        self.wire_resends += other.wire_resends;
        self.reconnects += other.reconnects;
        self.suspects += other.suspects;
        self.respawned_shards += other.respawned_shards;
        self.ensemble_restarts += other.ensemble_restarts;
        for (mine, theirs) in self
            .wire_delay_us_hist
            .iter_mut()
            .zip(other.wire_delay_us_hist.iter())
        {
            *mine += *theirs;
        }
        self.wire_delay_us_sum += other.wire_delay_us_sum;
    }

    /// Compact single-line JSON for machine consumption (CI assertions,
    /// sweep tooling). Hand-rolled: the counts are all integers, so no
    /// escaping is needed.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"injected\":{},\"detected\":{},\"recovered\":{},",
                "\"injected_by_kind\":{{\"straggle\":{},\"crash\":{}}},",
                "\"degraded_shards\":{},",
                "\"wire_injected\":{},\"wire_detected\":{},\"wire_recovered\":{},",
                "\"wire_injected_by_kind\":{{\"corrupt\":{},\"truncate\":{},\"delay\":{},",
                "\"reset\":{},\"stall\":{}}},",
                "\"wire_resends\":{},\"reconnects\":{},\"suspects\":{},",
                "\"respawned_shards\":{},\"ensemble_restarts\":{},\"balanced\":{}}}"
            ),
            self.injected.total(),
            self.detected.total(),
            self.recovered.total(),
            self.injected.straggle,
            self.injected.crash,
            self.degraded_shards,
            self.wire_injected.total(),
            self.wire_detected.total(),
            self.wire_recovered.total(),
            self.wire_injected.corrupt,
            self.wire_injected.truncate,
            self.wire_injected.delay,
            self.wire_injected.reset,
            self.wire_injected.stall,
            self.wire_resends,
            self.reconnects,
            self.suspects,
            self.respawned_shards,
            self.ensemble_restarts,
            self.balanced(),
        )
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fault report:")?;
        writeln!(f, "  injected:  {}", self.injected)?;
        writeln!(f, "  detected:  {}", self.detected)?;
        writeln!(f, "  recovered: {}", self.recovered)?;
        writeln!(
            f,
            "  recovery work: {} degraded shards",
            self.degraded_shards
        )?;
        if self.wire_injected.total() > 0
            || self.wire_resends > 0
            || self.reconnects > 0
            || self.suspects > 0
            || self.respawned_shards > 0
            || self.ensemble_restarts > 0
        {
            writeln!(f, "  wire injected:  {}", self.wire_injected)?;
            writeln!(f, "  wire detected:  {}", self.wire_detected)?;
            writeln!(f, "  wire recovered: {}", self.wire_recovered)?;
            writeln!(
                f,
                "  wire recovery work: {} resends, {} reconnects, {} suspects, \
                 {} shard respawns, {} ensemble restarts",
                self.wire_resends,
                self.reconnects,
                self.suspects,
                self.respawned_shards,
                self.ensemble_restarts
            )?;
        }
        write!(
            f,
            "  balance: {}",
            if self.balanced() {
                "injected == detected == recovered"
            } else {
                "UNBALANCED"
            }
        )
    }
}

/// Incremental FNV-1a over `f64` bit patterns — the per-sub-block digest
/// the proc transport's merged-batch codec checks on socket input. Bit-exact: any single flipped mantissa
/// or exponent bit changes the sum.
#[derive(Debug, Clone, Copy)]
pub struct BlockChecksum(u64);

impl Default for BlockChecksum {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockChecksum {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh (empty-input) checksum state.
    pub fn new() -> Self {
        BlockChecksum(Self::OFFSET)
    }

    /// Feeds one word's bit pattern.
    pub fn write_f64(&mut self, w: f64) {
        for b in w.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot [`BlockChecksum`] over a word slice.
pub fn block_checksum(words: &[f64]) -> u64 {
    let mut h = BlockChecksum::new();
    for &w in words {
        h.write_f64(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_rates() -> FaultRates {
        FaultRates {
            straggle: 0.3,
            crash: 0.05,
            max_crashes: u32::MAX,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FaultPlan::generate(42, 50, 8, &dense_rates());
        let b = FaultPlan::generate(42, 50, 8, &dense_rates());
        assert_eq!(a, b);
        assert!(!a.is_empty(), "dense rates over 400 cells must fire");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, 50, 8, &dense_rates());
        let b = FaultPlan::generate(2, 50, 8, &dense_rates());
        assert_ne!(a, b, "seeds must steer the plan");
    }

    #[test]
    fn zero_rates_yield_empty_plan() {
        let plan = FaultPlan::generate(7, 100, 16, &FaultRates::none());
        assert!(plan.is_empty());
        assert_eq!(plan.counts().total(), 0);
    }

    #[test]
    fn events_are_sorted_and_lookup_finds_them() {
        let plan = FaultPlan::generate(9, 30, 6, &dense_rates());
        assert!(plan
            .events()
            .windows(2)
            .all(|w| (w[0].step, w[0].pe) <= (w[1].step, w[1].pe)));
        // Every event is found by its cell lookup, and only there.
        let mut seen = 0;
        for step in 0..30 {
            for pe in 0..6 {
                for i in plan.at(step, pe) {
                    let e = plan.events()[i];
                    assert_eq!((e.step, e.pe), (step, pe));
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, plan.len());
        assert!(plan.at(1000, 0).is_empty());
    }

    #[test]
    fn rates_scale_event_volume() {
        let sparse = FaultPlan::generate(3, 200, 8, &FaultRates::uniform(0.01));
        let dense = FaultPlan::generate(3, 200, 8, &FaultRates::uniform(0.3));
        assert!(
            dense.len() > sparse.len(),
            "30x the rate must fire more events ({} vs {})",
            dense.len(),
            sparse.len()
        );
    }

    #[test]
    fn crash_cap_is_honored() {
        let mut rates = dense_rates();
        rates.crash = 1.0;
        rates.max_crashes = 3;
        let plan = FaultPlan::generate(5, 100, 4, &rates);
        assert_eq!(plan.counts().crash, 3);
        // uniform() caps at one crash.
        let plan = FaultPlan::generate(5, 400, 4, &FaultRates::uniform(0.5));
        assert!(plan.counts().crash <= 1);
    }

    #[test]
    fn from_events_sorts() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                step: 5,
                pe: 1,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                step: 0,
                pe: 3,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                step: 5,
                pe: 0,
                kind: FaultKind::Straggle { delay_us: 1 },
            },
        ]);
        assert_eq!(plan.events()[0].step, 0);
        assert_eq!(plan.events()[1].pe, 0);
        assert_eq!(plan.at(5, 1), 2..3);
    }

    #[test]
    fn counts_and_balance() {
        let mut report = FaultReport::default();
        let kinds = [FaultKind::Straggle { delay_us: 10 }, FaultKind::Crash];
        for k in &kinds {
            report.injected.add(k, 2);
            report.detected.add(k, 2);
            report.recovered.add(k, 2);
        }
        assert_eq!(report.injected.total(), 4);
        assert!(report.balanced());
        report.recovered.crash -= 1;
        assert!(!report.balanced());
    }

    #[test]
    fn report_json_is_parsable_shape() {
        let report = FaultReport::default();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"injected\":",
            "\"detected\":",
            "\"recovered\":",
            "\"degraded_shards\":",
            "\"balanced\":true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn wire_plan_sampling_is_deterministic_and_rate_scaled() {
        let plan = WireFaultPlan::uniform(0x5eed, 0.3);
        let a: Vec<_> = (0..200).map(|s| plan.sample(0, 1, s)).collect();
        let b: Vec<_> = (0..200).map(|s| plan.sample(0, 1, s)).collect();
        assert_eq!(a, b, "sampling must be a pure function");
        let fired = a.iter().flatten().count();
        assert!(fired > 10, "rate 0.3 over 200 frames fired only {fired}");
        // Direction matters: a → b and b → a are independent streams.
        let rev: Vec<_> = (0..200).map(|s| plan.sample(1, 0, s)).collect();
        assert_ne!(a, rev);
        // Other seeds steer the schedule.
        let other = WireFaultPlan::uniform(0x0ddba11, 0.3);
        assert_ne!(
            a,
            (0..200).map(|s| other.sample(0, 1, s)).collect::<Vec<_>>()
        );
        // Disarmed plans never fire.
        assert!((0..500).all(|s| WireFaultPlan::none().sample(0, 1, s).is_none()));
    }

    #[test]
    fn wire_plan_covers_every_kind() {
        let plan = WireFaultPlan::uniform(7, 0.5);
        let mut counts = WireFaultCounts::default();
        for from in 0..4usize {
            for to in 0..4usize {
                if from == to {
                    continue;
                }
                for seq in 0..400 {
                    if let Some(k) = plan.sample(from, to, seq) {
                        counts.add(&k, 1);
                    }
                }
            }
        }
        assert!(counts.corrupt > 0, "{counts}");
        assert!(counts.truncate > 0, "{counts}");
        assert!(counts.delay > 0, "{counts}");
        assert!(counts.reset > 0, "{counts}");
        assert!(counts.stall > 0, "{counts}");
        // Disruptive kinds stay rarer than transients.
        assert!(counts.reset < counts.corrupt, "{counts}");
        assert!(counts.stall < counts.reset, "{counts}");
    }

    #[test]
    fn backoff_schedule_is_seed_reproducible_and_bounded() {
        let schedule = |seed: u64| -> Vec<u64> {
            let mut b = RetryBackoff::with_bounds(seed, 5, 4000);
            (0..64).map(|_| b.next_delay().as_micros() as u64).collect()
        };
        assert_eq!(schedule(42), schedule(42), "same seed, same schedule");
        assert_ne!(schedule(42), schedule(43), "seeds must decorrelate");
        for d in schedule(42) {
            assert!((5..=4000).contains(&d), "delay {d}µs escaped [base, cap]");
        }
    }

    #[test]
    fn wire_ledger_balance_and_merge() {
        let mut report = FaultReport::default();
        report
            .wire_injected
            .add(&WireFaultKind::Corrupt { salt: 0 }, 2);
        assert!(!report.balanced(), "injected without detection is a leak");
        report
            .wire_detected
            .add(&WireFaultKind::Corrupt { salt: 0 }, 2);
        report
            .wire_recovered
            .add(&WireFaultKind::Corrupt { salt: 0 }, 2);
        assert!(report.balanced());

        let mut other = FaultReport::default();
        other.wire_injected.add(&WireFaultKind::Reset, 1);
        other.wire_detected.add(&WireFaultKind::Reset, 1);
        other.wire_recovered.add(&WireFaultKind::Reset, 1);
        other.reconnects = 1;
        other.respawned_shards = 2;
        record_delay_us(&mut other, 300);
        report.merge(&other);
        assert_eq!(report.wire_injected.total(), 3);
        assert_eq!(report.reconnects, 1);
        assert_eq!(report.respawned_shards, 2);
        assert_eq!(report.wire_delay_us_hist[8], 1, "300µs lands in [256,512)");
        assert_eq!(report.wire_delay_us_sum, 300, "merge carries the exact sum");
        assert!(report.balanced());

        let json = report.to_json();
        for key in [
            "\"wire_injected\":3",
            "\"wire_resends\":0",
            "\"respawned_shards\":2",
            "\"reconnects\":1",
            "\"balanced\":true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let shown = report.to_string();
        assert!(shown.contains("wire injected"), "{shown}");
        assert!(shown.contains("shard respawns"), "{shown}");
    }

    #[test]
    fn delay_histogram_buckets_are_log2() {
        let mut fr = FaultReport::default();
        record_delay_us(&mut fr, 0);
        record_delay_us(&mut fr, 1);
        record_delay_us(&mut fr, 2);
        record_delay_us(&mut fr, 3);
        record_delay_us(&mut fr, 1 << 20); // beyond the last bucket
        assert_eq!(fr.wire_delay_us_hist[0], 2);
        assert_eq!(fr.wire_delay_us_hist[1], 2);
        assert_eq!(fr.wire_delay_us_hist[15], 1);
        assert_eq!(fr.wire_delay_us_sum, 6 + (1 << 20));
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let words = [1.5f64, -2.25, 1e-300, 0.0, 6000.0];
        let clean = block_checksum(&words);
        for i in 0..words.len() {
            for bit in [0u32, 17, 31, 52, 63] {
                let mut corrupted = words;
                corrupted[i] = f64::from_bits(corrupted[i].to_bits() ^ (1u64 << bit));
                assert_ne!(
                    block_checksum(&corrupted),
                    clean,
                    "flip of word {i} bit {bit} must change the checksum"
                );
            }
        }
        assert_eq!(block_checksum(&words), clean, "checksum is pure");
    }
}
