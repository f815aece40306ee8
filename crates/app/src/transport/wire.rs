//! Wire formats for the proc transport: the run specification a parent
//! hands its shard children, and the payload codecs that ride inside
//! [`super::frame`] frames.
//!
//! Children never receive the mesh or matrix over the wire. They receive
//! a [`RunSpec`] — the full set of knobs `smvp-run` resolved — and
//! re-derive the identical `DistributedSystem` deterministically (mesh
//! generation, partitioning and assembly are all pure functions of the
//! spec). Only ghost blocks and final results cross the sockets.

use quake_core::fault::{BlockChecksum, FaultCounts, FaultReport};
use quake_sparse::dense::Vec3;

use super::TransportError;

// ---------------------------------------------------------------------------
// Byte-level helpers.
// ---------------------------------------------------------------------------

/// Little-endian payload writer.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// The finished payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian payload reader with typed out-of-data errors.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TransportError> {
        if self.pos + n > self.buf.len() {
            return Err(TransportError::Protocol(format!(
                "payload underrun: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a u32.
    pub fn u32(&mut self) -> Result<u32, TransportError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a u64.
    pub fn u64(&mut self) -> Result<u64, TransportError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an f64 bit pattern.
    pub fn f64(&mut self) -> Result<f64, TransportError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// True when every byte has been consumed.
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Ghost-block payloads.
// ---------------------------------------------------------------------------

/// A decoded ghost payload: one posted block for one directed edge.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostPayload {
    /// BSP step the block belongs to.
    pub step: u64,
    /// Sending PE.
    pub from: usize,
    /// Receiving PE.
    pub to: usize,
    /// The packed boundary partials.
    pub block: Vec<Vec3>,
}

/// Encodes a posted ghost block.
pub fn encode_ghost(step: u64, from: usize, to: usize, block: &[Vec3]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(step);
    w.u32(from as u32);
    w.u32(to as u32);
    w.u32(block.len() as u32);
    for v in block {
        w.f64(v.x);
        w.f64(v.y);
        w.f64(v.z);
    }
    w.finish()
}

/// Decodes a ghost payload.
///
/// # Errors
///
/// Returns [`TransportError::Protocol`] on a malformed payload.
pub fn decode_ghost(payload: &[u8]) -> Result<GhostPayload, TransportError> {
    let mut r = ByteReader::new(payload);
    let step = r.u64()?;
    let from = r.u32()? as usize;
    let to = r.u32()? as usize;
    let count = r.u32()? as usize;
    let mut block = Vec::with_capacity(count);
    for _ in 0..count {
        block.push(Vec3::new(r.f64()?, r.f64()?, r.f64()?));
    }
    if !r.exhausted() {
        return Err(TransportError::Protocol(
            "trailing bytes after ghost block".into(),
        ));
    }
    Ok(GhostPayload {
        step,
        from,
        to,
        block,
    })
}

// ---------------------------------------------------------------------------
// Merged node-level batches.
// ---------------------------------------------------------------------------

/// FNV-1a digest of a ghost block, word by word (x, y, z per entry): a
/// merged batch's per-sub-block digest.
fn block_checksum_vec3(block: &[Vec3]) -> u64 {
    let mut ck = BlockChecksum::new();
    for v in block {
        ck.write_f64(v.x);
        ck.write_f64(v.y);
        ck.write_f64(v.z);
    }
    ck.finish()
}

/// Encodes a merged node-level batch: several directed-edge ghost blocks
/// gathered on one node, crossing the slow link as one frame.
///
/// Layout: `count u32`, then per sub-block a manifest entry
/// `(step u64, from u32, to u32, len u32)` followed by the block words and
/// an FNV-1a digest of them (`block_checksum_vec3`). The frame codec's
/// whole-payload checksum guards the wire; the per-sub-block digests let
/// the receiver verify each constituent block independently — the
/// property the wire layer's resend path relies on when a batch is
/// replayed after a corruption or reconnect.
pub fn encode_ghost_batch(subs: &[(u64, usize, usize, &[Vec3])]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(subs.len() as u32);
    for &(step, from, to, block) in subs {
        w.u64(step);
        w.u32(from as u32);
        w.u32(to as u32);
        w.u32(block.len() as u32);
        for v in block {
            w.f64(v.x);
            w.f64(v.y);
            w.f64(v.z);
        }
        w.u64(block_checksum_vec3(block));
    }
    w.finish()
}

/// Decodes a merged batch into its constituent ghost blocks, verifying
/// every sub-block digest.
///
/// # Errors
///
/// Returns [`TransportError::Protocol`] on a malformed payload or a
/// sub-block whose digest does not match its words.
pub fn decode_ghost_batch(payload: &[u8]) -> Result<Vec<GhostPayload>, TransportError> {
    let mut r = ByteReader::new(payload);
    let count = r.u32()? as usize;
    let mut subs = Vec::with_capacity(count.min(1 << 16));
    for i in 0..count {
        let step = r.u64()?;
        let from = r.u32()? as usize;
        let to = r.u32()? as usize;
        let len = r.u32()? as usize;
        let mut block = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            block.push(Vec3::new(r.f64()?, r.f64()?, r.f64()?));
        }
        let declared = r.u64()?;
        let got = block_checksum_vec3(&block);
        if got != declared {
            return Err(TransportError::Protocol(format!(
                "batch sub-block {i} ({from}->{to} step {step}) checksum \
                 mismatch: declared {declared:#018x}, got {got:#018x}"
            )));
        }
        subs.push(GhostPayload {
            step,
            from,
            to,
            block,
        });
    }
    if !r.exhausted() {
        return Err(TransportError::Protocol(
            "trailing bytes after ghost batch".into(),
        ));
    }
    Ok(subs)
}

// ---------------------------------------------------------------------------
// Child result payloads.
// ---------------------------------------------------------------------------

/// One owned PE's contribution to the merged run report.
#[derive(Debug, Clone, PartialEq)]
pub struct PeResult {
    /// Global node index per local slot (the PE's gather list, in the
    /// executor's possibly-renumbered local order).
    pub gather: Vec<usize>,
    /// The PE's post-exchange partials, same local order.
    pub exchanged: Vec<Vec3>,
    /// Counter snapshot: flops, words/blocks sent+received, phase times.
    pub counters: [u64; 5],
    /// Per-phase seconds: assemble, compute, exchange, barrier.
    pub times: [f64; 4],
    /// Boundary-row count when the overlap schedule ran.
    pub boundary_rows: Option<usize>,
}

/// A shard child's complete result bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// The reporting shard.
    pub shard: usize,
    /// First owned PE.
    pub pe_lo: usize,
    /// One past the last owned PE.
    pub pe_hi: usize,
    /// Phase wall-clocks as the shard saw them: assemble, compute,
    /// exchange, fold.
    pub phases: [f64; 4],
    /// Per owned PE, in PE order.
    pub pes: Vec<PeResult>,
    /// The shard's fault ledger, when the chaos layer was armed.
    pub fault: Option<FaultReport>,
}

fn encode_fault(w: &mut ByteWriter, fr: &FaultReport) {
    for c in [&fr.injected, &fr.detected, &fr.recovered] {
        w.u64(c.straggle);
        w.u64(c.crash);
    }
    w.u64(fr.degraded_shards);
    for c in [&fr.wire_injected, &fr.wire_detected, &fr.wire_recovered] {
        w.u64(c.corrupt);
        w.u64(c.truncate);
        w.u64(c.delay);
        w.u64(c.reset);
        w.u64(c.stall);
    }
    for v in [
        fr.wire_resends,
        fr.reconnects,
        fr.suspects,
        fr.respawned_shards,
        fr.ensemble_restarts,
    ] {
        w.u64(v);
    }
    for b in fr.wire_delay_us_hist {
        w.u64(b);
    }
    w.u64(fr.wire_delay_us_sum);
}

fn decode_fault(r: &mut ByteReader<'_>) -> Result<FaultReport, TransportError> {
    let mut counts = [FaultCounts::default(); 3];
    for c in counts.iter_mut() {
        c.straggle = r.u64()?;
        c.crash = r.u64()?;
    }
    let mut fr = FaultReport {
        injected: counts[0],
        detected: counts[1],
        recovered: counts[2],
        degraded_shards: r.u64()?,
        ..FaultReport::default()
    };
    for c in [
        &mut fr.wire_injected,
        &mut fr.wire_detected,
        &mut fr.wire_recovered,
    ] {
        c.corrupt = r.u64()?;
        c.truncate = r.u64()?;
        c.delay = r.u64()?;
        c.reset = r.u64()?;
        c.stall = r.u64()?;
    }
    fr.wire_resends = r.u64()?;
    fr.reconnects = r.u64()?;
    fr.suspects = r.u64()?;
    fr.respawned_shards = r.u64()?;
    fr.ensemble_restarts = r.u64()?;
    for b in fr.wire_delay_us_hist.iter_mut() {
        *b = r.u64()?;
    }
    fr.wire_delay_us_sum = r.u64()?;
    Ok(fr)
}

/// Encodes a shard's result bundle.
pub fn encode_result(res: &ShardResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(res.shard as u32);
    w.u32(res.pe_lo as u32);
    w.u32(res.pe_hi as u32);
    for p in res.phases {
        w.f64(p);
    }
    for pe in &res.pes {
        w.u32(pe.gather.len() as u32);
        for &g in &pe.gather {
            w.u32(g as u32);
        }
        for v in &pe.exchanged {
            w.f64(v.x);
            w.f64(v.y);
            w.f64(v.z);
        }
        for c in pe.counters {
            w.u64(c);
        }
        for t in pe.times {
            w.f64(t);
        }
        match pe.boundary_rows {
            Some(b) => {
                w.u32(1);
                w.u32(b as u32);
            }
            None => w.u32(0),
        }
    }
    match &res.fault {
        Some(fr) => {
            w.u32(1);
            encode_fault(&mut w, fr);
        }
        None => w.u32(0),
    }
    w.finish()
}

/// Decodes a shard's result bundle.
///
/// # Errors
///
/// Returns [`TransportError::Protocol`] on a malformed payload.
pub fn decode_result(payload: &[u8]) -> Result<ShardResult, TransportError> {
    let mut r = ByteReader::new(payload);
    let shard = r.u32()? as usize;
    let pe_lo = r.u32()? as usize;
    let pe_hi = r.u32()? as usize;
    if pe_hi < pe_lo || pe_hi - pe_lo > 1 << 20 {
        return Err(TransportError::Protocol(format!(
            "implausible owned range {pe_lo}..{pe_hi}"
        )));
    }
    let mut phases = [0.0; 4];
    for p in phases.iter_mut() {
        *p = r.f64()?;
    }
    let mut pes = Vec::with_capacity(pe_hi - pe_lo);
    for _ in pe_lo..pe_hi {
        let n = r.u32()? as usize;
        let mut gather = Vec::with_capacity(n);
        for _ in 0..n {
            gather.push(r.u32()? as usize);
        }
        let mut exchanged = Vec::with_capacity(n);
        for _ in 0..n {
            exchanged.push(Vec3::new(r.f64()?, r.f64()?, r.f64()?));
        }
        let mut counters = [0u64; 5];
        for c in counters.iter_mut() {
            *c = r.u64()?;
        }
        let mut times = [0.0f64; 4];
        for t in times.iter_mut() {
            *t = r.f64()?;
        }
        let boundary_rows = match r.u32()? {
            0 => None,
            _ => Some(r.u32()? as usize),
        };
        pes.push(PeResult {
            gather,
            exchanged,
            counters,
            times,
            boundary_rows,
        });
    }
    let fault = match r.u32()? {
        0 => None,
        _ => Some(decode_fault(&mut r)?),
    };
    if !r.exhausted() {
        return Err(TransportError::Protocol(
            "trailing bytes after shard result".into(),
        ));
    }
    Ok(ShardResult {
        shard,
        pe_lo,
        pe_hi,
        phases,
        pes,
        fault,
    })
}

// ---------------------------------------------------------------------------
// The run specification.
// ---------------------------------------------------------------------------

/// Everything a shard child needs to rebuild the run deterministically.
/// Serialized as `key value` lines in a spec file the parent writes to
/// the shard rendezvous directory.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Basin period (seconds) — sets the mesh name `sf<period>`.
    pub period: f64,
    /// Mesh refinement scale.
    pub scale: f64,
    /// Mesh generation seed.
    pub seed: u64,
    /// PE (subdomain) count.
    pub parts: usize,
    /// Worker threads per shard pool.
    pub threads: usize,
    /// BSP steps.
    pub steps: u64,
    /// Partitioner name (the CLI spelling).
    pub partitioner: String,
    /// Reverse Cuthill-McKee renumbering.
    pub rcm: bool,
    /// Latency-hiding overlap schedule.
    pub overlap: bool,
    /// Chaos layer rate (0 disarms it).
    pub fault_rate: f64,
    /// Fault plan seed.
    pub fault_seed: u64,
    /// Arm the telemetry layer in each shard.
    pub trace: bool,
    /// Drift monitor threshold.
    pub drift_threshold: f64,
    /// Telemetry span ring capacity.
    pub span_capacity: usize,
    /// Shard process count for the proc transport.
    pub shards: usize,
    /// Input-vector generator: `trig` (the CLI's formula) or `rng`.
    pub x_kind: String,
    /// Seed for the `rng` input generator.
    pub x_seed: u64,
    /// Connection deadline in seconds: bounds the bootstrap rendezvous,
    /// the steady-state peer-silence window, and the degraded wait while
    /// a shard respawns.
    pub conn_timeout: f64,
    /// Wire chaos rate (0 disarms the socket-stream injector).
    pub wire_fault_rate: f64,
    /// Wire fault sampler seed.
    pub wire_fault_seed: u64,
    /// How many times the supervisor may respawn each individual shard
    /// before falling back to the whole-ensemble retry (0 disables
    /// per-shard respawn entirely).
    pub restart_budget: u64,
    /// Node count for the two-level node-aware exchange: PEs/shards are
    /// chunked contiguously onto this many nodes and boundary partials are
    /// gathered intra-node before one merged block per (node, node) pair
    /// crosses the slow link. `0` (the legacy default) disables
    /// aggregation — the flat one-block-per-PE-pair exchange.
    pub nodes: usize,
    /// Whether a `nodes >= 1` topology actually aggregates (`true`, the
    /// default) or only places shards on nodes while the exchange stays
    /// flat (`false`) — the ablation arm for pricing aggregation against
    /// the identical placement.
    pub aggregate: bool,
    /// Emulated inter-node link latency in seconds (netem-style: every
    /// ghost frame between shards on *different* nodes is held this long
    /// on the sender before hitting the socket). `0` (default) leaves
    /// the raw socket; requires a `nodes >= 1` topology to take effect.
    pub wire_latency: f64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            period: 10.0,
            scale: 8.0,
            seed: 0x5eed,
            parts: 4,
            threads: 4,
            steps: 25,
            partitioner: "rib".into(),
            rcm: false,
            overlap: false,
            fault_rate: 0.0,
            fault_seed: 0,
            trace: false,
            drift_threshold: 2.0,
            span_capacity: 65_536,
            shards: 2,
            x_kind: "trig".into(),
            x_seed: 0,
            conn_timeout: 30.0,
            wire_fault_rate: 0.0,
            wire_fault_seed: 0,
            restart_budget: 2,
            nodes: 0,
            aggregate: true,
            wire_latency: 0.0,
        }
    }
}

impl RunSpec {
    /// Serializes to `key value` lines. `{:?}` float formatting round
    /// trips f64 exactly.
    pub fn serialize(&self) -> String {
        format!(
            "period {:?}\nscale {:?}\nseed {}\nparts {}\nthreads {}\nsteps {}\n\
             partitioner {}\nrcm {}\noverlap {}\nfault_rate {:?}\nfault_seed {}\n\
             trace {}\ndrift_threshold {:?}\n\
             span_capacity {}\nshards {}\nx_kind {}\nx_seed {}\n\
             conn_timeout {:?}\nwire_fault_rate {:?}\nwire_fault_seed {}\n\
             restart_budget {}\nnodes {}\naggregate {}\nwire_latency {:?}\n",
            self.period,
            self.scale,
            self.seed,
            self.parts,
            self.threads,
            self.steps,
            self.partitioner,
            self.rcm,
            self.overlap,
            self.fault_rate,
            self.fault_seed,
            self.trace,
            self.drift_threshold,
            self.span_capacity,
            self.shards,
            self.x_kind,
            self.x_seed,
            self.conn_timeout,
            self.wire_fault_rate,
            self.wire_fault_seed,
            self.restart_budget,
            self.nodes,
            self.aggregate,
            self.wire_latency,
        )
    }

    /// Parses [`RunSpec::serialize`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn deserialize(text: &str) -> Result<RunSpec, String> {
        fn set<T: std::str::FromStr>(slot: &mut T, key: &str, val: &str) -> Result<(), String> {
            *slot = val
                .parse()
                .map_err(|_| format!("bad spec value '{val}' for {key}"))?;
            Ok(())
        }
        let mut spec = RunSpec::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, val) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad spec line '{line}'"))?;
            match key {
                "period" => set(&mut spec.period, key, val)?,
                "scale" => set(&mut spec.scale, key, val)?,
                "seed" => set(&mut spec.seed, key, val)?,
                "parts" => set(&mut spec.parts, key, val)?,
                "threads" => set(&mut spec.threads, key, val)?,
                "steps" => set(&mut spec.steps, key, val)?,
                "partitioner" => spec.partitioner = val.to_string(),
                "rcm" => set(&mut spec.rcm, key, val)?,
                "overlap" => set(&mut spec.overlap, key, val)?,
                "fault_rate" => set(&mut spec.fault_rate, key, val)?,
                "fault_seed" => set(&mut spec.fault_seed, key, val)?,
                "trace" => set(&mut spec.trace, key, val)?,
                "drift_threshold" => set(&mut spec.drift_threshold, key, val)?,
                "span_capacity" => set(&mut spec.span_capacity, key, val)?,
                "shards" => set(&mut spec.shards, key, val)?,
                "x_kind" => spec.x_kind = val.to_string(),
                "x_seed" => set(&mut spec.x_seed, key, val)?,
                "conn_timeout" => set(&mut spec.conn_timeout, key, val)?,
                "wire_fault_rate" => set(&mut spec.wire_fault_rate, key, val)?,
                "wire_fault_seed" => set(&mut spec.wire_fault_seed, key, val)?,
                "restart_budget" => set(&mut spec.restart_budget, key, val)?,
                "nodes" => set(&mut spec.nodes, key, val)?,
                "aggregate" => set(&mut spec.aggregate, key, val)?,
                "wire_latency" => set(&mut spec.wire_latency, key, val)?,
                other => return Err(format!("unknown spec key '{other}'")),
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn run_spec_round_trips() {
        let mut spec = RunSpec {
            period: 2.5,
            scale: 12.0,
            parts: 6,
            threads: 3,
            steps: 7,
            rcm: true,
            overlap: true,
            fault_rate: 0.125,
            shards: 3,
            x_kind: "rng".into(),
            x_seed: 42,
            conn_timeout: 1.25,
            wire_fault_rate: 0.375,
            wire_fault_seed: 0xbead,
            restart_budget: 3,
            nodes: 2,
            aggregate: false,
            wire_latency: 2.5e-4,
            ..RunSpec::default()
        };
        spec.drift_threshold = 1.75;
        let text = spec.serialize();
        assert_eq!(RunSpec::deserialize(&text).unwrap(), spec);
    }

    #[test]
    fn legacy_specs_without_wire_keys_still_parse() {
        // PR 6 spec files predate the wire-chaos knobs; missing keys must
        // fall back to defaults so old rendezvous dirs stay readable.
        let spec = RunSpec::deserialize("parts 6\nshards 3\n").unwrap();
        assert_eq!(spec.parts, 6);
        assert_eq!(spec.conn_timeout, 30.0);
        assert_eq!(spec.wire_fault_rate, 0.0);
        assert_eq!(spec.restart_budget, 2);
        // Node aggregation postdates PR 9 spec files: absent means flat,
        // aggregating, over the raw socket.
        assert_eq!(spec.nodes, 0);
        assert!(spec.aggregate);
        assert_eq!(spec.wire_latency, 0.0);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(RunSpec::deserialize("nonsense").is_err());
        assert!(RunSpec::deserialize("parts four\n").is_err());
        assert!(RunSpec::deserialize("quux 3\n").is_err());
    }

    proptest! {
        #[test]
        fn ghost_payloads_round_trip(
            step in 0u64..1000,
            from in 0usize..64,
            to in 0usize..64,
            words in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ) {
            let block: Vec<Vec3> = words
                .chunks(3)
                .filter(|c| c.len() == 3)
                .map(|c| Vec3::new(c[0], c[1], c[2]))
                .collect();
            let bytes = encode_ghost(step, from, to, &block);
            let back = decode_ghost(&bytes).expect("round trip");
            prop_assert_eq!(back.step, step);
            prop_assert_eq!(back.from, from);
            prop_assert_eq!(back.to, to);
            prop_assert_eq!(back.block.len(), block.len());
            for (a, b) in back.block.iter().zip(&block) {
                prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
                prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
                prop_assert_eq!(a.z.to_bits(), b.z.to_bits());
            }
        }

        #[test]
        fn truncated_ghost_payloads_error_cleanly(
            cut in 0usize..30,
        ) {
            let block = [Vec3::new(1.0, 2.0, 3.0)];
            let bytes = encode_ghost(9, 1, 2, &block);
            let cut = cut.min(bytes.len() - 1);
            prop_assert!(decode_ghost(&bytes[..cut]).is_err());
        }

        #[test]
        fn ghost_batches_round_trip(
            step in 0u64..1000,
            blocks in proptest::collection::vec(
                proptest::collection::vec(-1e12f64..1e12, 0..12), 0..8),
        ) {
            let typed: Vec<Vec<Vec3>> = blocks
                .iter()
                .map(|ws| {
                    ws.chunks(3)
                        .filter(|c| c.len() == 3)
                        .map(|c| Vec3::new(c[0], c[1], c[2]))
                        .collect()
                })
                .collect();
            let subs: Vec<(u64, usize, usize, &[Vec3])> = typed
                .iter()
                .enumerate()
                .map(|(i, b)| (step, i, i + 1, b.as_slice()))
                .collect();
            let bytes = encode_ghost_batch(&subs);
            let back = decode_ghost_batch(&bytes).expect("round trip");
            prop_assert_eq!(back.len(), subs.len());
            for (g, &(s, f, t, b)) in back.iter().zip(&subs) {
                prop_assert_eq!(g.step, s);
                prop_assert_eq!(g.from, f);
                prop_assert_eq!(g.to, t);
                prop_assert_eq!(g.block.len(), b.len());
                for (x, y) in g.block.iter().zip(b) {
                    prop_assert_eq!(x.x.to_bits(), y.x.to_bits());
                    prop_assert_eq!(x.y.to_bits(), y.y.to_bits());
                    prop_assert_eq!(x.z.to_bits(), y.z.to_bits());
                }
            }
        }

        #[test]
        fn corrupted_batch_sub_blocks_are_caught(
            pos_frac in 0.0f64..1.0,
            bit in 0usize..8,
        ) {
            // Flip one bit anywhere inside a sub-block's words: the
            // per-sub-block digest must catch what the frame checksum
            // would have caught on the wire — the property the replay
            // path needs when a cached batch is re-sent after chaos.
            let b0 = [Vec3::new(1.5, -2.5, 3.5)];
            let b1 = [Vec3::new(4.0, 5.0, 6.0), Vec3::new(7.0, 8.0, 9.0)];
            let subs: Vec<(u64, usize, usize, &[Vec3])> =
                vec![(3, 0, 2, &b0), (3, 1, 2, &b1)];
            let mut bytes = encode_ghost_batch(&subs);
            // Words of sub-block 0 start after count(4) + manifest(20).
            let lo = 4 + 20;
            let hi = lo + 24;
            let pos = lo + (((hi - lo - 1) as f64) * pos_frac) as usize;
            bytes[pos] ^= 1 << bit;
            prop_assert!(decode_ghost_batch(&bytes).is_err());
        }

        #[test]
        fn truncated_batches_error_cleanly(cut_frac in 0.0f64..1.0) {
            let b0 = [Vec3::new(1.0, 2.0, 3.0)];
            let subs: Vec<(u64, usize, usize, &[Vec3])> = vec![(1, 0, 1, &b0)];
            let bytes = encode_ghost_batch(&subs);
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(decode_ghost_batch(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn empty_batches_round_trip() {
        let bytes = encode_ghost_batch(&[]);
        assert_eq!(decode_ghost_batch(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn batch_trailing_bytes_are_rejected() {
        let b0 = [Vec3::new(1.0, 2.0, 3.0)];
        let subs: Vec<(u64, usize, usize, &[Vec3])> = vec![(1, 0, 1, &b0)];
        let mut bytes = encode_ghost_batch(&subs);
        bytes.push(0);
        assert!(decode_ghost_batch(&bytes).is_err());
    }

    #[test]
    fn shard_results_round_trip() {
        let res = ShardResult {
            shard: 1,
            pe_lo: 2,
            pe_hi: 4,
            phases: [0.1, 0.2, 0.3, 0.4],
            pes: vec![
                PeResult {
                    gather: vec![5, 9, 11],
                    exchanged: vec![
                        Vec3::new(1.0, -2.0, 3.0),
                        Vec3::new(0.0, 0.5, -0.5),
                        Vec3::new(9.0, 9.0, 9.0),
                    ],
                    counters: [100, 6, 6, 2, 2],
                    times: [1e-3, 2e-3, 3e-4, 5e-5],
                    boundary_rows: Some(2),
                },
                PeResult {
                    gather: vec![0],
                    exchanged: vec![Vec3::ZERO],
                    counters: [7, 0, 0, 0, 0],
                    times: [0.0; 4],
                    boundary_rows: None,
                },
            ],
            fault: Some({
                let mut fr = FaultReport {
                    degraded_shards: 3,
                    wire_resends: 2,
                    reconnects: 1,
                    suspects: 1,
                    respawned_shards: 1,
                    ensemble_restarts: 1,
                    ..FaultReport::default()
                };
                fr.wire_injected.truncate = 4;
                fr.wire_detected.truncate = 4;
                fr.wire_recovered.truncate = 4;
                fr.wire_delay_us_hist[7] = 9;
                fr.wire_delay_us_sum = 9 * 200;
                fr
            }),
        };
        let bytes = encode_result(&res);
        assert_eq!(decode_result(&bytes).unwrap(), res);
    }

    #[test]
    fn truncated_results_error_cleanly() {
        let res = ShardResult {
            shard: 0,
            pe_lo: 0,
            pe_hi: 1,
            phases: [0.0; 4],
            pes: vec![PeResult {
                gather: vec![1, 2],
                exchanged: vec![Vec3::ZERO, Vec3::ZERO],
                counters: [0; 5],
                times: [0.0; 4],
                boundary_rows: None,
            }],
            fault: None,
        };
        let bytes = encode_result(&res);
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_result(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
