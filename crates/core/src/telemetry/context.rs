//! The cross-process telemetry snapshot: what one shard child ships to the
//! supervising parent so per-process span rings can be merged into one
//! coherent timeline.
//!
//! A `--transport proc` run forks one OS process per shard, and each child
//! owns a full [`Telemetry`] — spans, histograms, fault instants — recorded
//! against *its own* monotonic epoch. This module defines the package that
//! crosses the process boundary at run end (and after every respawn):
//!
//! * [`TraceContext`] — the identity the parent hands each child at `Go`
//!   time (run id, shard, supervision generation) and that the child stamps
//!   on its snapshot, so generations of a respawned shard stay separable;
//! * [`FlowRec`] — one endpoint of a cross-shard block transfer (a post on
//!   the sender or an acquire on the receiver), the raw material for the
//!   Chrome flow events (`ph:"s"/"t"`) that make the irregular exchange
//!   visible in Perfetto;
//! * [`TelemetrySnapshot`] — the whole package with a self-contained binary
//!   codec. The codec is hand-rolled little-endian like the rest of the
//!   workspace (no serde): a version byte, fixed-width scalars, and
//!   length-prefixed sequences with hard caps so a corrupt length cannot
//!   allocate unbounded memory.
//!
//! The snapshot is *data only*: clock-domain alignment (the RTT-midpoint
//! offset measured at handshake) is the parent's knowledge and travels
//! separately — see `merge.rs`.

use super::histogram::{Log2Histogram, BUCKETS};
use super::span::{PhaseId, Span};
use super::Telemetry;

/// Codec version byte; bump on any layout change.
const SNAPSHOT_VERSION: u8 = 3;

/// Decode-side caps: a corrupt or adversarial length prefix must not turn
/// into a multi-gigabyte allocation. Generous multiples of the real
/// capacities (span ring 65 536, instants 4 096).
const MAX_SEQ: usize = 1 << 22;
const MAX_NAME: usize = 1 << 10;

/// The tracing identity a shard child runs under, propagated through the
/// frame codec at `Go` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies one `smvp-run` invocation across all its shard processes.
    pub run_id: u64,
    /// Shard index within the ensemble.
    pub shard: u32,
    /// Supervision generation: 0 for the first launch, +1 per respawn.
    pub generation: u32,
}

/// Which end of a block transfer a [`FlowRec`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Sender side: the block left this shard (recorded at post time).
    Post,
    /// Receiver side: the block was consumed here (recorded at acquire).
    Acquire,
}

/// One endpoint of a cross-shard ghost-block transfer.
///
/// The merge layer pairs the k-th `Post` with the k-th `Acquire` for the
/// same `(step, from, to)` edge to synthesize a Chrome flow event from the
/// sender's track to the receiver's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRec {
    /// Post (sender) or acquire (receiver).
    pub kind: FlowKind,
    /// BSP step the block belongs to.
    pub step: u64,
    /// Producing PE (global id).
    pub from: u32,
    /// Consuming PE (global id).
    pub to: u32,
    /// Nanoseconds since the recording shard's epoch.
    pub at_ns: u64,
    /// Receiver only: nanoseconds the acquire spent blocked waiting.
    pub waited_ns: u64,
}

/// An owned fault/recovery point event. [`super::TraceInstant`] names are
/// `&'static str` for the zero-allocation hot path; a string that crossed a
/// process boundary has no static home, so snapshots carry owned names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantRec {
    /// Event name (e.g. `wire:stall`, `recover:rerun`).
    pub name: String,
    /// PE the event is attributed to.
    pub pe: u32,
    /// BSP step.
    pub step: u64,
    /// Nanoseconds since the recording shard's epoch.
    pub at_ns: u64,
}

/// Everything one shard process knows about its own execution, packaged for
/// the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Identity stamp: which run, which shard, which generation.
    pub ctx: TraceContext,
    /// First global PE this shard owns.
    pub pe_lo: u32,
    /// One past the last global PE this shard owns.
    pub pe_hi: u32,
    /// BSP steps the shard observed.
    pub steps: u64,
    /// Accumulated wall ns per phase, indexed by `PhaseId as usize` (the
    /// same layout [`Telemetry`] uses internally).
    pub phase_wall_ns: [u64; PhaseId::ALL.len()],
    /// The retained span window, oldest-first.
    pub spans: Vec<Span>,
    /// Spans the ring overwrote before the snapshot was taken.
    pub spans_dropped: u64,
    /// Retained fault/recovery instants.
    pub instants: Vec<InstantRec>,
    /// Instants dropped at capacity.
    pub instants_dropped: u64,
    /// Per-block exchange fetch latency, ns.
    pub block_latency_ns: Log2Histogram,
    /// Per-block message size, words.
    pub block_words: Log2Histogram,
    /// Per-PE compute-phase time, ns.
    pub compute_ns: Log2Histogram,
    /// Node-aggregated exchange: merged per-(node, node) block size, words.
    pub node_block_words: Log2Histogram,
    /// Cross-shard transfer endpoints recorded by this shard.
    pub flows: Vec<FlowRec>,
    /// Flow endpoints dropped once the bounded buffer filled.
    pub flows_dropped: u64,
}

impl TelemetrySnapshot {
    /// Captures `telemetry` (plus the transport's flow endpoints) under the
    /// identity `ctx`, for the global PE range `pe_lo..pe_hi`.
    pub fn capture(
        telemetry: &Telemetry,
        ctx: TraceContext,
        pe_lo: u32,
        pe_hi: u32,
        flows: Vec<FlowRec>,
        flows_dropped: u64,
    ) -> Self {
        let mut phase_wall_ns = [0u64; PhaseId::ALL.len()];
        for phase in PhaseId::ALL {
            phase_wall_ns[phase as usize] = telemetry.phase_wall_ns(phase);
        }
        TelemetrySnapshot {
            ctx,
            pe_lo,
            pe_hi,
            steps: telemetry.steps,
            phase_wall_ns,
            spans: telemetry.spans.iter().copied().collect(),
            spans_dropped: telemetry.spans.dropped(),
            instants: telemetry
                .instants()
                .iter()
                .map(|i| InstantRec {
                    name: i.name.to_string(),
                    pe: i.pe,
                    step: i.step,
                    at_ns: i.at_ns,
                })
                .collect(),
            instants_dropped: telemetry.instants_dropped(),
            block_latency_ns: telemetry.block_latency_ns.clone(),
            block_words: telemetry.block_words.clone(),
            compute_ns: telemetry.compute_ns.clone(),
            node_block_words: telemetry.node_block_words.clone(),
            flows,
            flows_dropped,
        }
    }

    /// Serializes the snapshot for the `Telemetry` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(64 + 29 * self.spans.len() + 33 * self.flows.len());
        w.push(SNAPSHOT_VERSION);
        put_u64(&mut w, self.ctx.run_id);
        put_u32(&mut w, self.ctx.shard);
        put_u32(&mut w, self.ctx.generation);
        put_u32(&mut w, self.pe_lo);
        put_u32(&mut w, self.pe_hi);
        put_u64(&mut w, self.steps);
        put_u32(&mut w, self.phase_wall_ns.len() as u32);
        for &ns in &self.phase_wall_ns {
            put_u64(&mut w, ns);
        }
        put_u32(&mut w, self.spans.len() as u32);
        for s in &self.spans {
            w.push(s.phase as u8);
            put_u32(&mut w, s.pe);
            put_u64(&mut w, s.step);
            put_u64(&mut w, s.start_ns);
            put_u64(&mut w, s.dur_ns);
        }
        put_u64(&mut w, self.spans_dropped);
        put_u32(&mut w, self.instants.len() as u32);
        for i in &self.instants {
            put_str(&mut w, &i.name);
            put_u32(&mut w, i.pe);
            put_u64(&mut w, i.step);
            put_u64(&mut w, i.at_ns);
        }
        put_u64(&mut w, self.instants_dropped);
        for h in [
            &self.block_latency_ns,
            &self.block_words,
            &self.compute_ns,
            &self.node_block_words,
        ] {
            put_histogram(&mut w, h);
        }
        put_u32(&mut w, self.flows.len() as u32);
        for f in &self.flows {
            w.push(match f.kind {
                FlowKind::Post => 0,
                FlowKind::Acquire => 1,
            });
            put_u64(&mut w, f.step);
            put_u32(&mut w, f.from);
            put_u32(&mut w, f.to);
            put_u64(&mut w, f.at_ns);
            put_u64(&mut w, f.waited_ns);
        }
        put_u64(&mut w, self.flows_dropped);
        w
    }

    /// Decodes a snapshot payload. Errors name the first malformed field;
    /// the frame layer has already checksummed the bytes, so an error here
    /// means a version or logic mismatch, not line noise.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Cursor { buf: bytes, pos: 0 };
        let version = r.u8("version")?;
        if version != SNAPSHOT_VERSION {
            return Err(format!(
                "telemetry snapshot version {version} (expected {SNAPSHOT_VERSION})"
            ));
        }
        let ctx = TraceContext {
            run_id: r.u64("run_id")?,
            shard: r.u32("shard")?,
            generation: r.u32("generation")?,
        };
        let pe_lo = r.u32("pe_lo")?;
        let pe_hi = r.u32("pe_hi")?;
        let steps = r.u64("steps")?;
        let wall_len = r.len("phase_wall len", PhaseId::ALL.len() * 4)?;
        let mut phase_wall_ns = [0u64; PhaseId::ALL.len()];
        for i in 0..wall_len {
            let ns = r.u64("phase_wall")?;
            // A snapshot from a build with extra phases still decodes; the
            // surplus walls have no local phase to land on and are summed
            // into the last slot rather than silently vanishing.
            let slot = i.min(PhaseId::ALL.len() - 1);
            phase_wall_ns[slot] += ns;
        }
        let span_count = r.len("span count", MAX_SEQ)?;
        let mut spans = Vec::with_capacity(span_count);
        for _ in 0..span_count {
            let raw = r.u8("span phase")?;
            let phase =
                PhaseId::from_u8(raw).ok_or_else(|| format!("unknown span phase byte {raw}"))?;
            spans.push(Span {
                phase,
                pe: r.u32("span pe")?,
                step: r.u64("span step")?,
                start_ns: r.u64("span start")?,
                dur_ns: r.u64("span dur")?,
            });
        }
        let spans_dropped = r.u64("spans_dropped")?;
        let instant_count = r.len("instant count", MAX_SEQ)?;
        let mut instants = Vec::with_capacity(instant_count);
        for _ in 0..instant_count {
            instants.push(InstantRec {
                name: r.str("instant name")?,
                pe: r.u32("instant pe")?,
                step: r.u64("instant step")?,
                at_ns: r.u64("instant at")?,
            });
        }
        let instants_dropped = r.u64("instants_dropped")?;
        let block_latency_ns = take_histogram(&mut r)?;
        let block_words = take_histogram(&mut r)?;
        let compute_ns = take_histogram(&mut r)?;
        let node_block_words = take_histogram(&mut r)?;
        let flow_count = r.len("flow count", MAX_SEQ)?;
        let mut flows = Vec::with_capacity(flow_count);
        for _ in 0..flow_count {
            let kind = match r.u8("flow kind")? {
                0 => FlowKind::Post,
                1 => FlowKind::Acquire,
                other => return Err(format!("unknown flow kind byte {other}")),
            };
            flows.push(FlowRec {
                kind,
                step: r.u64("flow step")?,
                from: r.u32("flow from")?,
                to: r.u32("flow to")?,
                at_ns: r.u64("flow at")?,
                waited_ns: r.u64("flow waited")?,
            });
        }
        let flows_dropped = r.u64("flows_dropped")?;
        if r.pos != bytes.len() {
            return Err(format!(
                "telemetry snapshot has {} trailing bytes",
                bytes.len() - r.pos
            ));
        }
        Ok(TelemetrySnapshot {
            ctx,
            pe_lo,
            pe_hi,
            steps,
            phase_wall_ns,
            spans,
            spans_dropped,
            instants,
            instants_dropped,
            block_latency_ns,
            block_words,
            compute_ns,
            node_block_words,
            flows,
            flows_dropped,
        })
    }
}

fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_str(w: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let take = bytes.len().min(MAX_NAME);
    put_u32(w, take as u32);
    w.extend_from_slice(&bytes[..take]);
}

fn put_histogram(w: &mut Vec<u8>, h: &Log2Histogram) {
    for &c in h.buckets() {
        put_u64(w, c);
    }
    let sum = h.sum();
    put_u64(w, sum as u64);
    put_u64(w, (sum >> 64) as u64);
    put_u64(w, h.min());
    put_u64(w, h.max());
}

fn take_histogram(r: &mut Cursor<'_>) -> Result<Log2Histogram, String> {
    let mut counts = [0u64; BUCKETS];
    for c in counts.iter_mut() {
        *c = r.u64("hist bucket")?;
    }
    let lo = r.u64("hist sum lo")?;
    let hi = r.u64("hist sum hi")?;
    let sum = (u128::from(hi) << 64) | u128::from(lo);
    let min = r.u64("hist min")?;
    let max = r.u64("hist max")?;
    Ok(Log2Histogram::from_raw(counts, sum, min, max))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn bytes(&mut self, n: usize, what: &str) -> Result<&[u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!("telemetry snapshot truncated reading {what}"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8, what)?.try_into().unwrap()))
    }

    /// A length prefix, validated against `cap` before any allocation.
    fn len(&mut self, what: &str, cap: usize) -> Result<usize, String> {
        let n = self.u32(what)? as usize;
        if n > cap {
            return Err(format!("telemetry snapshot {what} {n} exceeds cap {cap}"));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> Result<String, String> {
        let n = self.len(what, MAX_NAME)?;
        let raw = self.bytes(n, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{TelemetryConfig, TraceInstant};
    use super::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut t = Telemetry::new(2, vec![(30, 1), (28, 1)], TelemetryConfig::default());
        for step in 0..4u64 {
            for pe in 0..2u32 {
                t.span(Span {
                    phase: PhaseId::Compute,
                    pe: 4 + pe,
                    step,
                    start_ns: step * 1_000 + u64::from(pe),
                    dur_ns: 400,
                });
                t.span(Span {
                    phase: PhaseId::Wait,
                    pe: 4 + pe,
                    step,
                    start_ns: step * 1_000 + 500,
                    dur_ns: 40,
                });
            }
            t.add_phase_wall(PhaseId::Compute, 800);
            t.add_phase_wall(PhaseId::Wait, 80);
            t.block_latency_ns.record(120 + step);
            t.block_words.record(30);
            t.steps += 1;
        }
        t.instant(TraceInstant {
            name: "wire:stall",
            pe: 5,
            step: 2,
            at_ns: 2_450,
        });
        let flows = vec![
            FlowRec {
                kind: FlowKind::Post,
                step: 1,
                from: 4,
                to: 2,
                at_ns: 1_100,
                waited_ns: 0,
            },
            FlowRec {
                kind: FlowKind::Acquire,
                step: 1,
                from: 1,
                to: 5,
                at_ns: 1_600,
                waited_ns: 250,
            },
        ];
        TelemetrySnapshot::capture(
            &t,
            TraceContext {
                run_id: 0xDEAD_BEEF_0042,
                shard: 1,
                generation: 2,
            },
            4,
            6,
            flows,
            3,
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = TelemetrySnapshot::decode(&bytes).expect("decode");
        assert_eq!(snap, back);
        assert_eq!(back.ctx.generation, 2);
        assert_eq!(back.spans.len(), 16);
        assert_eq!(back.instants.len(), 1);
        assert_eq!(back.instants[0].name, "wire:stall");
        assert_eq!(back.flows.len(), 2);
        assert_eq!(back.flows_dropped, 3);
        assert_eq!(back.block_latency_ns.count(), 4);
        assert_eq!(back.phase_wall_ns[PhaseId::Wait as usize], 320);
    }

    #[test]
    fn truncation_at_every_byte_errors_cleanly() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            let err = TelemetrySnapshot::decode(&bytes[..cut]);
            assert!(err.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_snapshot().encode();
        bytes.push(0);
        assert!(TelemetrySnapshot::decode(&bytes)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn bad_version_and_bad_enums_are_rejected() {
        let mut bytes = sample_snapshot().encode();
        bytes[0] = 99;
        assert!(TelemetrySnapshot::decode(&bytes)
            .unwrap_err()
            .contains("version"));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // Corrupt the span count (offset: 1 version + 8 + 4 + 4 + 4 + 4 + 8
        // bytes of header + 4 len + 10 walls * 8).
        let mut bytes = sample_snapshot().encode();
        let off = 1 + 8 + 4 + 4 + 4 + 4 + 8 + 4 + PhaseId::ALL.len() * 8;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(TelemetrySnapshot::decode(&bytes)
            .unwrap_err()
            .contains("cap"));
    }

    #[test]
    fn empty_telemetry_snapshot_roundtrips() {
        let t = Telemetry::new(1, vec![(0, 0)], TelemetryConfig::default());
        let snap = TelemetrySnapshot::capture(
            &t,
            TraceContext {
                run_id: 1,
                shard: 0,
                generation: 0,
            },
            0,
            1,
            Vec::new(),
            0,
        );
        let back = TelemetrySnapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(snap, back);
        assert_eq!(back.block_latency_ns.count(), 0);
        // The empty-histogram min sentinel survives the trip: merging the
        // decoded histogram must not poison the min.
        let mut merged = back.block_latency_ns.clone();
        let mut other = Log2Histogram::new();
        other.record(7);
        merged.merge(&other);
        assert_eq!(merged.min(), 7);
    }
}
