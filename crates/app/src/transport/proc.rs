//! The multi-process transport: shard processes over Unix-domain sockets.
//!
//! `--transport proc` forks `shards` child processes of the current
//! executable. Each child rebuilds the identical problem from the spec
//! file (see [`super::run::build`]), runs a [`BspExecutor`] over its
//! contiguous slice of PEs with one `WorkerPool` per process, and carries
//! ghost blocks to remote PEs as length-prefixed [`frame`](super::frame)
//! frames over a full mesh of Unix-domain sockets. Locally owned edges
//! stay in the in-process [`Mailbox`]; one reader thread per peer
//! connection drains remote ghost frames into the same mailbox, so the
//! executor's acquire path is byte-for-byte the shared-memory path.
//!
//! # Bootstrap protocol
//!
//! The parent binds `parent.sock` in a private rendezvous directory,
//! writes the spec file and spawns the children (`QUAKE_PROC_ROLE=shard`
//! plus id/dir in the environment — [`shard_host_hook`] intercepts them at
//! the top of the host binary's `main`). Each child dials the parent and
//! sends `Hello`, binds its own `shard<k>.sock`, dials every lower shard
//! and accepts every higher one (every child binds before it dials, so
//! the mesh cannot deadlock), then sends `Ready`. The parent runs the
//! socket microbenchmark against shard 0 — 64 `Ping`/`Pong` round trips
//! give Eq. (2)'s `T_l` (half the median RTT) and eight 128-KiB
//! `Bulk`/`BulkAck` transfers give `T_w` — and releases everyone with a
//! `Go` frame carrying the measured parameters. The reported link is
//! therefore *measured on this run's fabric*, never a preset.
//!
//! # Fault domain
//!
//! The socket fabric is a supervised fault domain with a five-rung
//! recovery ladder: resend → deadline + backoff → shard respawn →
//! ensemble retry → typed failure.
//!
//! *Wire chaos.* With `--wire-fault-rate` nonzero, a seeded
//! [`WireFaultPlan`] samples every outgoing ghost frame and the injector
//! mangles the live byte stream: payload corruption and tail-zeroing
//! truncation (caught by the frame checksum, recovered by `Resend` +
//! cache replay), artificial delays (billed to the delay histogram), one
//! connection reset per peer (recovered by redial + cache replay), and
//! one hung-peer stall per process (recovered by shard respawn). Every
//! injected event lands in the [`FaultReport`] ledger on the injecting
//! side, so `injected == detected == recovered` holds per process and
//! survives summation — a shard that dies takes its whole ledger with
//! it, never a partial triple.
//!
//! *Deadlines + heartbeats.* Every shard heartbeats its peers and the
//! parent at `conn-timeout / 4`. Steady-state reads carry `conn-timeout`
//! deadlines (the parent's result readers included — a hung-but-alive
//! peer can no longer block the ensemble forever). An acquire that times
//! out checks the heartbeat clock: a peer that is dead or silent past
//! the deadline is reported to the parent with a `Suspect` frame, and
//! only after every degraded-wait round expires does the waiter fail
//! with a typed [`TransportError::PeerSuspect`].
//!
//! *Per-shard supervised restart.* The parent respawns only the dead or
//! suspect shard (within `--restart-budget`), replays the stored `Go`,
//! and the survivors hold in degraded waits: their posts keep landing in
//! the resend caches, the respawned child replays to the current step
//! from the spec (the run is a pure function of it), and reconnecting
//! sides replay their caches — the constant-`x` replay invariant makes
//! every superseding re-delivery bitwise-harmless. Only when the budget
//! is exhausted does the parent fall back to the one-shot whole-ensemble
//! retry, and past that to a typed error.

use super::frame::{self, read_frame, write_frame, FrameError, FrameKind};
use super::wire::{
    decode_ghost, decode_ghost_batch, decode_result, encode_ghost, encode_ghost_batch,
    encode_result, ByteReader, ByteWriter, PeResult, RunSpec, ShardResult,
};
use super::{ghost_edges, LinkParams, Mailbox, Transport, TransportError, TransportKind};
use crate::executor::{BspExecutor, ExecutionReport, PeCounters, PhaseWalls};
use crate::transport::run::{Built, Incident, RunOutput};
use quake_core::fault::{
    mix64, record_delay_us, FaultReport, RetryBackoff, WireFaultKind, WireFaultPlan,
};
use quake_core::model::maxrate::node_of;
use quake_core::telemetry::{FlowKind, FlowRec, ShardTrace, TelemetrySnapshot, TraceContext};
use quake_sparse::dense::Vec3;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::ErrorKind;
use std::net::Shutdown;
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Environment marker selecting the shard-child entry point.
const ENV_ROLE: &str = "QUAKE_PROC_ROLE";
/// The child's shard id.
const ENV_ID: &str = "QUAKE_PROC_ID";
/// The rendezvous directory holding the spec file and sockets.
const ENV_DIR: &str = "QUAKE_PROC_DIR";
/// Respawn generation (0 = first launch). Nonzero disarms wire chaos so
/// a recovery run cannot re-injure itself.
const ENV_ATTEMPT: &str = "QUAKE_PROC_ATTEMPT";
/// Test knob: `"<shard>:<step>"` makes that shard exit hard at that step.
const ENV_KILL: &str = "QUAKE_PROC_KILL";
/// Test knob: marker-file path making [`ENV_KILL`] fire only once.
const ENV_KILL_ONCE: &str = "QUAKE_PROC_KILL_ONCE";

/// Shard `k`'s contiguous owned-PE slice — the same near-equal chunking
/// the executor uses for its worker assignment.
pub fn shard_pe_range(parts: usize, shards: usize, k: usize) -> Range<usize> {
    (parts * k / shards)..(parts * (k + 1) / shards)
}

fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Io(e.to_string())
}

/// The steady-state mailbox deadline: the test override when set, the
/// spec's `--conn-timeout` otherwise.
fn steady_timeout(conn_timeout: Duration) -> Duration {
    std::env::var("QUAKE_TRANSPORT_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(conn_timeout)
}

fn attempt_from_env() -> u64 {
    std::env::var(ENV_ATTEMPT)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Intercepts shard-child invocations. Must be the first statement of
/// `main` in every binary that hosts a proc parent (the CLI, the
/// conformance suite, the bench harness): the parent re-executes
/// `current_exe()`, and this hook routes those children into the shard
/// protocol before any argument parsing can run. Returns immediately in
/// every other process.
pub fn shard_host_hook() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("shard") {
        return;
    }
    let code = match child_main() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("quake proc shard: {e}");
            1
        }
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// Child-side fabric: peers, chaos injector, reconnects, heartbeats.
// ---------------------------------------------------------------------------

/// One peer connection: swappable serialized writer, per-edge resend
/// cache, liveness/heartbeat state and the injector's per-connection
/// bookkeeping.
struct Peer {
    /// The reporting shard id of the peer.
    shard: usize,
    /// The writer half; `None` while disconnected. Replaced in place on
    /// reconnect so every handle stays valid across epochs.
    conn: Mutex<Option<UnixStream>>,
    /// Latest posted frame (kind + payload) per resend-cache key on this
    /// connection: directed `(from, to)` PE edges carry `Ghost` frames,
    /// and `(usize::MAX, dest node)` keys carry the node relay's merged
    /// `GhostBatch` frames (PE indices never reach `usize::MAX`, so the
    /// key spaces are disjoint). A `Resend` request — and every
    /// (re)connect — replays the whole cache with each entry's own kind;
    /// superseded steps are bitwise-identical by the constant-`x`
    /// invariant, so over-delivery is harmless.
    cache: Mutex<ResendCache>,
    alive: AtomicBool,
    /// The peer sent an orderly `Bye`: its posted blocks stay
    /// acquirable and nothing further is expected from it.
    done: AtomicBool,
    /// Bumped on every (re)connect; a reader of a superseded epoch
    /// stands down without touching the fresh connection's state.
    epoch: AtomicU64,
    /// Heartbeat clock: milliseconds (on the fabric origin) of the last
    /// frame heard from this peer.
    last_heard_ms: AtomicU64,
    /// Ghost-frame sequence number driving the wire-fault sampler.
    seq: AtomicU64,
    /// Injected corrupt/truncate events whose `Resend` credit is still
    /// in flight (FIFO — frames are ordered per connection).
    pending_damage: Mutex<VecDeque<WireFaultKind>>,
    /// An injected reset awaiting its reconnect credit.
    pending_reset: AtomicBool,
    /// At most one injected reset per peer connection.
    reset_used: AtomicBool,
    /// `epoch + 1` of the last `Suspect` escalation — one per epoch.
    suspected_epoch: AtomicU64,
    /// A redial thread for this peer is already running.
    redialing: AtomicBool,
}

impl Peer {
    fn new(shard: usize) -> Self {
        Peer {
            shard,
            conn: Mutex::new(None),
            cache: Mutex::new(HashMap::new()),
            alive: AtomicBool::new(false),
            done: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            last_heard_ms: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            pending_damage: Mutex::new(VecDeque::new()),
            pending_reset: AtomicBool::new(false),
            reset_used: AtomicBool::new(false),
            suspected_epoch: AtomicU64::new(0),
            redialing: AtomicBool::new(false),
        }
    }

    fn send(&self, kind: FrameKind, payload: &[u8]) -> Result<(), TransportError> {
        let mut g = self.conn.lock().unwrap_or_else(|p| p.into_inner());
        let Some(w) = g.as_mut() else {
            return Err(TransportError::PeerDisconnected { shard: self.shard });
        };
        write_frame(w, kind, payload).map_err(|_| {
            self.alive.store(false, Ordering::Release);
            TransportError::PeerDisconnected { shard: self.shard }
        })
    }

    /// Writes pre-encoded (injector-mangled) frame bytes.
    fn send_raw(&self, bytes: &[u8]) -> Result<(), TransportError> {
        use std::io::Write as _;
        let mut g = self.conn.lock().unwrap_or_else(|p| p.into_inner());
        let Some(w) = g.as_mut() else {
            return Err(TransportError::PeerDisconnected { shard: self.shard });
        };
        w.write_all(bytes).map_err(|_| {
            self.alive.store(false, Ordering::Release);
            TransportError::PeerDisconnected { shard: self.shard }
        })
    }
}

/// `(edge index, scheduled length)` by directed edge — shared by the link
/// and its reader threads.
type EdgeMap = HashMap<(usize, usize), (usize, usize)>;

/// Resend-cache key namespace for the relay's merged batches: `(BATCH_KEY,
/// dest node)` can never collide with a `(from, to)` PE-edge key.
const BATCH_KEY: usize = usize::MAX;

/// The two-level exchange topology of a `--nodes N` run: shards chunk
/// contiguously into nodes, the lowest shard of each node is its leader,
/// and cross-node ghost blocks route member → leader → remote leader →
/// remote member, with the leader-to-leader hop carrying exactly one
/// merged [`FrameKind::GhostBatch`] per (node, node) pair per step.
/// Intra-node edges keep the direct per-edge path.
struct NodeRelay {
    /// Our shard's node.
    node: usize,
    /// Our node's leader shard (we are the leader iff it is our id).
    leader: usize,
    /// Shard -> node.
    shard_node: Vec<usize>,
    /// Node -> leader shard.
    leaders: Vec<usize>,
    /// PE -> owning shard.
    pe_owner: Vec<usize>,
    /// Leader only: per remote node, the statically known set of directed
    /// cross edges our node injects into it — the merged block's
    /// manifest, complete when every edge has contributed a step.
    expected: Vec<HashSet<(usize, usize)>>,
    /// Leader only: partial merged blocks keyed `(step, dest node)`.
    /// Replays may recreate flushed entries; the constant-`x` invariant
    /// makes the duplicate flush harmless, and each flush GCs stale
    /// partials of older steps for the same destination.
    pending: Mutex<HashMap<(u64, usize), MergedBlock>>,
}

/// One partial merged block at a leader: per directed cross edge, the
/// contributed boundary values, in deterministic (BTreeMap) edge order so
/// the flushed frame is byte-stable across replays.
type MergedBlock = BTreeMap<(usize, usize), Vec<Vec3>>;

/// Per-connection resend cache: latest posted frame (kind + payload)
/// keyed by directed `(from, to)` PE edge, or `(usize::MAX, dest node)`
/// for the node relay's merged batches.
type ResendCache = HashMap<(usize, usize), (FrameKind, Vec<u8>)>;

impl NodeRelay {
    /// Builds the relay topology for this shard, or `None` for flat runs
    /// (`nodes == 0`), single-shard runs, and one-node-per-shard cases
    /// where no aggregation is possible.
    fn build(
        id: usize,
        parts: usize,
        shards: usize,
        nodes: usize,
        edge_list: &[super::GhostEdge],
    ) -> Option<NodeRelay> {
        if nodes == 0 || shards < 2 || nodes > shards {
            return None;
        }
        let pe_owner: Vec<usize> = (0..parts).map(|q| node_of(parts, shards, q)).collect();
        let shard_node: Vec<usize> = (0..shards).map(|k| node_of(shards, nodes, k)).collect();
        let leaders: Vec<usize> = (0..nodes)
            .map(|n| {
                shard_node
                    .iter()
                    .position(|&m| m == n)
                    .expect("node chunks are non-empty")
            })
            .collect();
        let node = shard_node[id];
        let leader = leaders[node];
        let mut expected: Vec<HashSet<(usize, usize)>> = vec![HashSet::new(); nodes];
        if leader == id {
            for e in edge_list {
                let a = shard_node[pe_owner[e.from]];
                let b = shard_node[pe_owner[e.to]];
                if a == node && b != node {
                    expected[b].insert((e.from, e.to));
                }
            }
        }
        Some(NodeRelay {
            node,
            leader,
            shard_node,
            leaders,
            pe_owner,
            expected,
            pending: Mutex::new(HashMap::new()),
        })
    }

    /// The node owning the shard that owns PE `pe`.
    fn node_of_pe(&self, pe: usize) -> Option<usize> {
        self.pe_owner.get(pe).map(|&k| self.shard_node[k])
    }
}

/// Folds one cross-node contribution into the leader's aggregation
/// buffer and, when the merged (node, node) block for this step is
/// complete, emits exactly one `GhostBatch` frame to the remote node's
/// leader (caching it for replay under the batch key namespace).
fn relay_contribution(
    fabric: &Fabric,
    step: u64,
    from: usize,
    to: usize,
    block: &[Vec3],
) -> Result<(), TransportError> {
    let relay = fabric
        .relay
        .as_ref()
        .expect("relay routing gated by caller");
    let dest = relay
        .node_of_pe(to)
        .ok_or(TransportError::UnknownEdge { from, to })?;
    let complete = {
        let mut pending = relay.pending.lock().unwrap_or_else(|p| p.into_inner());
        let entry = pending.entry((step, dest)).or_default();
        entry.insert((from, to), block.to_vec());
        if entry.len() < relay.expected[dest].len() {
            None
        } else {
            let subs = pending.remove(&(step, dest)).expect("entry just filled");
            // A flush at this step supersedes any stale partials the
            // replay machinery left behind for older steps.
            pending.retain(|&(s, d), _| d != dest || s > step);
            Some(subs)
        }
    };
    let Some(subs) = complete else { return Ok(()) };
    let refs: Vec<(u64, usize, usize, &[Vec3])> = subs
        .iter()
        .map(|(&(f, t), b)| (step, f, t, b.as_slice()))
        .collect();
    let payload = encode_ghost_batch(&refs);
    let peer = fabric.peer(relay.leaders[dest])?;
    peer.cache
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert((BATCH_KEY, dest), (FrameKind::GhostBatch, payload.clone()));
    ghost_send(fabric, peer, FrameKind::GhostBatch, &payload)
}

/// Everything the connection machinery shares: the peer table, the
/// mailbox the readers deliver into, the chaos plan, and the wire-fault
/// ledger. One per shard process.
struct Fabric {
    /// Our shard id.
    id: usize,
    /// The rendezvous directory (redial targets live here).
    dir: PathBuf,
    /// The `--conn-timeout` deadline governing bootstrap, heartbeats,
    /// staleness and degraded waits.
    conn_timeout: Duration,
    /// Whether the supervised-restart machinery (degraded waits, redial,
    /// rejoin accepts) is armed.
    respawn: bool,
    restart_budget: u64,
    /// The seeded wire-fault plan (rate 0 when disarmed).
    plan: WireFaultPlan,
    /// Epoch for the heartbeat clock.
    origin: Instant,
    /// The wire-fault ledger this process injects into.
    wire: Mutex<FaultReport>,
    /// Serialized writer to the parent (`None` in unit tests).
    parent: Option<Mutex<UnixStream>>,
    /// At most one injected stall per process.
    stall_used: AtomicBool,
    /// Run teardown: stops heartbeat/accept/redial threads.
    stop: AtomicBool,
    /// Peer table by shard id (`None` at our own slot).
    peers: Vec<Option<Arc<Peer>>>,
    mailbox: Arc<Mailbox>,
    edges: Arc<EdgeMap>,
    /// The two-level node topology (`--nodes N`); `None` runs flat.
    relay: Option<NodeRelay>,
    /// Emulated inter-node link latency (`--wire-latency`): every ghost
    /// frame to a shard on a different node is held this long on the
    /// sender, netem-style, so a single host can price a fabric whose
    /// inter-node leg is genuinely slower than its intra-node leg.
    /// `None` leaves the raw socket. Carries the shard → node map so the
    /// no-aggregation ablation arm (`aggregate false`) prices the same
    /// placement without a relay.
    wire_delay: Option<(Duration, Vec<usize>)>,
    /// Cross-process flow endpoints (ghost post/acquire instants on the
    /// fabric clock) for the merged trace. Empty when tracing is off.
    flows: Mutex<Vec<FlowRec>>,
    /// Whether [`Fabric::note_flow`] records anything (`spec.trace`).
    flows_enabled: bool,
    /// Flow endpoints discarded past [`MAX_FLOWS`].
    flows_dropped: AtomicU64,
}

/// Flow-endpoint retention cap per shard process; past it endpoints are
/// counted in `flows_dropped` instead of growing without bound.
const MAX_FLOWS: usize = 1 << 20;

impl Fabric {
    fn peer(&self, shard: usize) -> Result<&Arc<Peer>, TransportError> {
        match self.peers.get(shard) {
            Some(Some(p)) => Ok(p),
            _ => Err(TransportError::PeerDisconnected { shard }),
        }
    }

    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    /// The peer has been silent past the deadline.
    fn stale(&self, peer: &Peer) -> bool {
        let heard = peer.last_heard_ms.load(Ordering::Relaxed);
        self.now_ms().saturating_sub(heard) > self.conn_timeout.as_millis() as u64
    }

    fn ledger<R>(&self, f: impl FnOnce(&mut FaultReport) -> R) -> R {
        let mut l = self.wire.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut l)
    }

    fn send_parent(&self, kind: FrameKind, payload: &[u8]) -> Result<(), TransportError> {
        let Some(p) = &self.parent else { return Ok(()) };
        let mut w = p.lock().unwrap_or_else(|e| e.into_inner());
        write_frame(&mut *w, kind, payload).map_err(TransportError::Frame)
    }

    /// Records one cross-process flow endpoint on the fabric clock — the
    /// same epoch the telemetry spans and the parent's handshake offset
    /// measurement use, so the merged trace can align all three.
    fn note_flow(&self, kind: FlowKind, step: u64, from: usize, to: usize, waited_ns: u64) {
        if !self.flows_enabled {
            return;
        }
        let at_ns = self.origin.elapsed().as_nanos() as u64;
        let mut flows = self.flows.lock().unwrap_or_else(|p| p.into_inner());
        if flows.len() >= MAX_FLOWS {
            self.flows_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        flows.push(FlowRec {
            kind,
            step,
            from: from as u32,
            to: to as u32,
            at_ns,
            waited_ns,
        });
    }
}

/// Replays the whole resend cache to the peer's current connection —
/// the recovery step behind both `Resend` requests and reconnects.
fn replay_cache(peer: &Peer) {
    let frames: Vec<(FrameKind, Vec<u8>)> = {
        let cache = peer.cache.lock().unwrap_or_else(|p| p.into_inner());
        cache.values().cloned().collect()
    };
    for (kind, payload) in frames {
        if peer.send(kind, &payload).is_err() {
            return;
        }
    }
}

/// Installs a (re)connected stream into the peer slot: swaps the writer,
/// bumps the epoch, credits a pending reset, spawns the reader for the
/// new connection and replays the resend cache across it.
fn install_conn(
    fabric: &Arc<Fabric>,
    peer: &Arc<Peer>,
    stream: UnixStream,
) -> Result<(), TransportError> {
    let rs = stream.try_clone().map_err(io_err)?;
    let epoch = {
        let mut g = peer.conn.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(old) = g.take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        *g = Some(stream);
        peer.epoch.fetch_add(1, Ordering::SeqCst) + 1
    };
    peer.alive.store(true, Ordering::Release);
    peer.done.store(false, Ordering::Release);
    peer.last_heard_ms.store(fabric.now_ms(), Ordering::Relaxed);
    if peer.pending_reset.swap(false, Ordering::SeqCst) {
        fabric.ledger(|l| {
            l.wire_detected.reset += 1;
            l.wire_recovered.reset += 1;
        });
    }
    {
        let (f, p) = (Arc::clone(fabric), Arc::clone(peer));
        std::thread::spawn(move || reader_loop(f, p, rs, epoch));
    }
    replay_cache(peer);
    Ok(())
}

/// The connection died under this epoch: mark the peer down, settle the
/// injector's books (damage whose `Resend` can no longer arrive is
/// recovered by the reconnect replay instead) and, when we are the
/// designated initiator (the higher id dials the lower one's listener —
/// the bootstrap rule), start redialing.
fn conn_down(fabric: &Arc<Fabric>, peer: &Arc<Peer>, epoch: u64) {
    if peer.epoch.load(Ordering::SeqCst) != epoch {
        return; // superseded: a fresh connection is already installed
    }
    peer.alive.store(false, Ordering::Release);
    let drained: Vec<WireFaultKind> = {
        let mut dmg = peer
            .pending_damage
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        dmg.drain(..).collect()
    };
    if !drained.is_empty() {
        fabric.ledger(|l| {
            for k in &drained {
                l.wire_detected.add(k, 1);
                l.wire_recovered.add(k, 1);
            }
        });
    }
    if fabric.respawn && !fabric.stop.load(Ordering::Acquire) && peer.shard < fabric.id {
        spawn_redial(Arc::clone(fabric), Arc::clone(peer));
    }
}

/// Redials a lower peer's listener with decorrelated-jitter backoff until
/// it answers (a reset heals, a respawned shard rejoins) or the budgeted
/// window closes.
fn spawn_redial(fabric: Arc<Fabric>, peer: Arc<Peer>) {
    if peer.redialing.swap(true, Ordering::SeqCst) {
        return;
    }
    std::thread::spawn(move || {
        let give_up = Instant::now()
            + fabric
                .conn_timeout
                .mul_f64(fabric.restart_budget as f64 + 3.0);
        let seed = mix64(((fabric.id as u64) << 32) | peer.shard as u64);
        let mut backoff = RetryBackoff::with_bounds(seed, 500, 100_000);
        let path = fabric.dir.join(format!("shard{}.sock", peer.shard));
        while !fabric.stop.load(Ordering::Acquire) && Instant::now() < give_up {
            if let Ok(mut s) = UnixStream::connect(&path) {
                if write_frame(&mut s, FrameKind::Hello, &hello_payload(fabric.id)).is_ok()
                    && install_conn(&fabric, &peer, s).is_ok()
                {
                    fabric.ledger(|l| l.reconnects += 1);
                    break;
                }
            }
            std::thread::sleep(backoff.next_delay());
        }
        peer.redialing.store(false, Ordering::SeqCst);
    });
}

/// Accepts rejoin dials for the rest of the run: a respawned shard (or a
/// reset-healing higher peer) dials our listener exactly like bootstrap.
fn spawn_accept(fabric: Arc<Fabric>, listener: UnixListener) {
    let _ = listener.set_nonblocking(true);
    std::thread::spawn(move || loop {
        if fabric.stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((mut s, _)) => {
                if s.set_nonblocking(false).is_err() {
                    continue;
                }
                let _ = s.set_read_timeout(Some(fabric.conn_timeout));
                let Ok(j) = expect_hello(&mut s) else {
                    continue;
                };
                let _ = s.set_read_timeout(None);
                if j == fabric.id {
                    continue;
                }
                if let Some(Some(peer)) = fabric.peers.get(j) {
                    let _ = install_conn(&fabric, peer, s);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    });
}

/// Heartbeats every live peer and the parent at a quarter of the
/// deadline, so silence is a signal and not just slowness. Skipping a
/// held writer mutex is deliberate: a stalled connection must fall
/// silent for its peer's staleness check to fire.
fn spawn_heartbeats(fabric: Arc<Fabric>) {
    std::thread::spawn(move || {
        let interval =
            (fabric.conn_timeout / 4).clamp(Duration::from_millis(25), Duration::from_secs(2));
        loop {
            std::thread::sleep(interval);
            if fabric.stop.load(Ordering::Acquire) {
                return;
            }
            for peer in fabric.peers.iter().flatten() {
                if !peer.alive.load(Ordering::Acquire) || peer.done.load(Ordering::Acquire) {
                    continue;
                }
                if let Ok(mut g) = peer.conn.try_lock() {
                    if let Some(w) = g.as_mut() {
                        let _ = write_frame(w, FrameKind::Heartbeat, &[]);
                    }
                }
            }
            let _ = fabric.send_parent(FrameKind::Heartbeat, &[]);
        }
    });
}

/// Holds a cross-node ghost frame on the sender for the emulated
/// inter-node latency (`--wire-latency`), netem-style. A spin wait
/// rather than `sleep` keeps sub-100us holds accurate; frames between
/// shards on the same node — and all control traffic — ride the raw
/// socket untouched, so the hold prices exactly the slow leg that
/// node-level aggregation is supposed to cross less often.
fn emulate_wire_latency(fabric: &Fabric, dest: usize) {
    let Some((latency, shard_node)) = &fabric.wire_delay else {
        return;
    };
    if shard_node.get(dest) == shard_node.get(fabric.id) {
        return;
    }
    let until = Instant::now() + *latency;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Sends a ghost-bearing frame (`Ghost` or a merged `GhostBatch`)
/// through the chaos injector. The payload is already in the resend
/// cache under its kind, so a send that cannot complete while the
/// respawn machinery is armed is *held*, not failed: the reconnect
/// replay delivers it.
fn ghost_send(
    fabric: &Fabric,
    peer: &Arc<Peer>,
    frame_kind: FrameKind,
    payload: &[u8],
) -> Result<(), TransportError> {
    emulate_wire_latency(fabric, peer.shard);
    let inject = fabric.plan.is_armed()
        && peer.alive.load(Ordering::Acquire)
        && !peer.done.load(Ordering::Acquire);
    if !inject {
        return send_or_hold(fabric, peer, frame_kind, payload);
    }
    let seq = peer.seq.fetch_add(1, Ordering::Relaxed);
    match fabric.plan.sample(fabric.id, peer.shard, seq) {
        None => send_or_hold(fabric, peer, frame_kind, payload),
        Some(WireFaultKind::Delay { delay_us }) => {
            std::thread::sleep(Duration::from_micros(u64::from(delay_us)));
            fabric.ledger(|l| {
                l.wire_injected.delay += 1;
                l.wire_detected.delay += 1;
                l.wire_recovered.delay += 1;
                record_delay_us(l, u64::from(delay_us));
            });
            send_or_hold(fabric, peer, frame_kind, payload)
        }
        Some(kind @ WireFaultKind::Corrupt { salt }) => {
            let mut bytes = frame::encode(frame_kind, payload);
            let pos = frame::HEADER_LEN + (salt as usize) % payload.len().max(1);
            bytes[pos] ^= 0x5a;
            fabric.ledger(|l| l.wire_injected.corrupt += 1);
            push_damage(peer, kind);
            raw_send_or_hold(fabric, peer, &bytes)
        }
        Some(kind @ WireFaultKind::Truncate { cut }) => {
            // The truncation model keeps the stream framed: the declared
            // length still arrives, but everything past the cut —
            // including the checksum trailer — is zeroed, and the last
            // trailer byte is flipped so the mismatch is guaranteed.
            let mut bytes = frame::encode(frame_kind, payload);
            let start = frame::HEADER_LEN + (cut as usize) % (payload.len() + 8);
            for b in &mut bytes[start..] {
                *b = 0;
            }
            let last = bytes.len() - 1;
            bytes[last] ^= 0xa5;
            fabric.ledger(|l| l.wire_injected.truncate += 1);
            push_damage(peer, kind);
            raw_send_or_hold(fabric, peer, &bytes)
        }
        Some(WireFaultKind::Reset) => {
            if !fabric.respawn || peer.reset_used.swap(true, Ordering::SeqCst) {
                return send_or_hold(fabric, peer, frame_kind, payload);
            }
            fabric.ledger(|l| l.wire_injected.reset += 1);
            peer.pending_reset.store(true, Ordering::SeqCst);
            {
                let g = peer.conn.lock().unwrap_or_else(|p| p.into_inner());
                if let Some(s) = g.as_ref() {
                    let _ = s.shutdown(Shutdown::Both);
                }
            }
            // The frame is lost with the connection; the reconnect
            // replay carries its cached payload across.
            Ok(())
        }
        Some(WireFaultKind::Stall) => {
            if !fabric.respawn || fabric.stall_used.swap(true, Ordering::SeqCst) {
                return send_or_hold(fabric, peer, frame_kind, payload);
            }
            // Announce to the parent (its ledger owns the stall triple:
            // this process usually dies mid-nap), then go silent holding
            // the writer mutex — heartbeats to this peer stop, its
            // staleness check fires, and a Suspect escalation follows.
            // The nap must outlive the victim's staleness deadline but
            // stay well inside every recovery deadline: a stall that is
            // never escalated must release the mutex before it can jam
            // the reconnect replay of some *other* shard's respawn.
            let _ = fabric.send_parent(FrameKind::WireEvent, &[0]);
            let hold = fabric.conn_timeout.mul_f64(2.5);
            let mut g = peer.conn.lock().unwrap_or_else(|p| p.into_inner());
            std::thread::sleep(hold);
            // Only reached when the supervisor never killed us (budget
            // spent elsewhere): resume, the parent credits the stall on
            // our late Result.
            if let Some(w) = g.as_mut() {
                if write_frame(w, frame_kind, payload).is_err() {
                    peer.alive.store(false, Ordering::Release);
                }
            }
            Ok(())
        }
    }
}

fn push_damage(peer: &Peer, kind: WireFaultKind) {
    peer.pending_damage
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push_back(kind);
}

fn send_or_hold(
    fabric: &Fabric,
    peer: &Arc<Peer>,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), TransportError> {
    match peer.send(kind, payload) {
        Err(e) if !fabric.respawn => Err(e),
        _ => Ok(()), // held: the reconnect replay delivers the cache
    }
}

fn raw_send_or_hold(fabric: &Fabric, peer: &Arc<Peer>, bytes: &[u8]) -> Result<(), TransportError> {
    match peer.send_raw(bytes) {
        Err(e) if !fabric.respawn => Err(e),
        _ => Ok(()),
    }
}

/// Routes one received per-edge ghost block: validates it against the
/// schedule, then either delivers it into the mailbox (its target PE
/// lives on this node — ours or a sibling member's slot, both harmless)
/// or, on a node leader, folds a member's cross-node contribution into
/// the aggregation buffer. Returns `false` on a protocol violation.
fn route_ghost(fabric: &Arc<Fabric>, step: u64, from: usize, to: usize, block: &[Vec3]) -> bool {
    let Some(&(edge, len)) = fabric.edges.get(&(from, to)) else {
        return false;
    };
    if block.len() != len {
        return false;
    }
    if let Some(relay) = &fabric.relay {
        if relay.node_of_pe(to) != Some(relay.node) {
            // Destined for a remote node: only a leader aggregates.
            return relay.leader == fabric.id
                && relay_contribution(fabric, step, from, to, block).is_ok();
        }
    }
    fabric.mailbox.deliver(edge, step, block);
    true
}

/// Scatters one sub-block of a merged inbound (node, node) batch: own
/// PEs land in the mailbox, other members of our node get a per-edge
/// `Ghost` forward (cached for replay; a send the member cannot take
/// right now rides its reconnect replay). Returns `false` on a
/// protocol violation — a sub-block not addressed to this node.
fn scatter_merged(fabric: &Arc<Fabric>, step: u64, from: usize, to: usize, block: &[Vec3]) -> bool {
    let Some(&(edge, len)) = fabric.edges.get(&(from, to)) else {
        return false;
    };
    if block.len() != len {
        return false;
    }
    let Some(relay) = &fabric.relay else {
        return false;
    };
    if relay.node_of_pe(to) != Some(relay.node) {
        return false;
    }
    let owner = relay.pe_owner[to];
    if owner == fabric.id {
        fabric.mailbox.deliver(edge, step, block);
        return true;
    }
    let Ok(peer) = fabric.peer(owner) else {
        // Member slot missing entirely is a topology violation; a
        // merely-down member is handled by hold + replay below.
        return false;
    };
    let payload = encode_ghost(step, from, to, block);
    peer.cache
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert((from, to), (FrameKind::Ghost, payload.clone()));
    let _ = ghost_send(fabric, peer, FrameKind::Ghost, &payload);
    true
}

/// Drains one peer connection into the mailbox until the peer says `Bye`
/// (on a node relay: until it hangs up after its `Bye`), the socket dies,
/// or a fresh connection supersedes this epoch.
/// Checksum-mismatched frames leave the stream framed and trigger a
/// `Resend` request; `Resend` requests from the peer replay our cache and
/// settle one outstanding injected-damage credit.
fn reader_loop(fabric: Arc<Fabric>, peer: Arc<Peer>, mut stream: UnixStream, epoch: u64) {
    loop {
        match read_frame(&mut stream) {
            Ok(f) => {
                peer.last_heard_ms.store(fabric.now_ms(), Ordering::Relaxed);
                match f.kind {
                    FrameKind::Ghost => {
                        let Ok(g) = decode_ghost(&f.payload) else {
                            break;
                        };
                        if !route_ghost(&fabric, g.step, g.from, g.to, &g.block) {
                            break;
                        }
                    }
                    FrameKind::GhostBatch => {
                        // A merged (node, node) block from a remote
                        // leader: split it back into per-edge deliveries
                        // — own PEs into the mailbox, sibling members'
                        // PEs forwarded over the fast intra-node hop.
                        let Ok(subs) = decode_ghost_batch(&f.payload) else {
                            break;
                        };
                        if fabric.relay.is_none()
                            || !subs
                                .iter()
                                .all(|g| scatter_merged(&fabric, g.step, g.from, g.to, &g.block))
                        {
                            break;
                        }
                    }
                    FrameKind::Resend => {
                        let popped = peer
                            .pending_damage
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .pop_front();
                        fabric.ledger(|l| {
                            if let Some(kind) = &popped {
                                l.wire_detected.add(kind, 1);
                                l.wire_recovered.add(kind, 1);
                            }
                            l.wire_resends += 1;
                        });
                        replay_cache(&peer);
                    }
                    FrameKind::Heartbeat => {}
                    // An orderly goodbye: the peer finished its run. Its
                    // posted blocks stay acquirable, so `alive` stays up.
                    // A node relay keeps reading: the peer's reader
                    // threads may still forward a merged batch or member
                    // frame that its main thread's `Bye` overtook.
                    FrameKind::Bye => {
                        peer.done.store(true, Ordering::Release);
                        if fabric.relay.is_none() {
                            return;
                        }
                    }
                    _ => break,
                }
            }
            Err(FrameError::ChecksumMismatch { .. }) => {
                // Stream still framed: ask for a replay of everything
                // this peer posted us.
                if peer.send(FrameKind::Resend, &[]).is_err() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    if !peer.done.load(Ordering::Acquire) {
        conn_down(&fabric, &peer, epoch);
    }
}

// ---------------------------------------------------------------------------
// The socket-backed Transport.
// ---------------------------------------------------------------------------

/// The socket-backed [`Transport`] a shard child runs over: local edges
/// through the shared [`Mailbox`], remote edges as `Ghost` frames through
/// the chaos injector, with the remote side's reader thread delivering
/// into the same mailbox.
pub struct ProcLink {
    shard: usize,
    fabric: Arc<Fabric>,
    /// PE -> owning shard.
    pe_owner: Vec<usize>,
    params: LinkParams,
    /// Fault-injection knob: hard-exit when posting this step.
    kill_at: Option<u64>,
}

impl ProcLink {
    fn owner_of(&self, pe: usize, peer_pe: usize) -> Result<usize, TransportError> {
        self.pe_owner
            .get(pe)
            .copied()
            .ok_or(TransportError::UnknownEdge {
                from: pe.min(peer_pe),
                to: pe.max(peer_pe),
            })
    }

    /// Sends an orderly goodbye to every peer (errors ignored — a peer
    /// that already left closed the socket first).
    fn farewell(&self) {
        for peer in self.fabric.peers.iter().flatten() {
            let _ = peer.send(FrameKind::Bye, &[]);
        }
    }
}

impl Transport for ProcLink {
    fn kind(&self) -> TransportKind {
        TransportKind::Proc
    }

    fn post(
        &self,
        step: u64,
        from: usize,
        to: usize,
        block: &[Vec3],
    ) -> Result<(), TransportError> {
        if let Some(kill) = self.kill_at {
            if step >= kill {
                // The chaos knob: die exactly like a SIGKILLed shard,
                // with sockets closing mid-protocol.
                std::process::exit(101);
            }
        }
        if self.owner_of(to, from)? == self.shard {
            return self.fabric.mailbox.post(step, from, to, block);
        }
        let &(_, len) = self
            .fabric
            .edges
            .get(&(from, to))
            .ok_or(TransportError::UnknownEdge { from, to })?;
        if block.len() != len {
            return Err(TransportError::LengthMismatch {
                expected: len,
                got: block.len(),
            });
        }
        let owner = self.owner_of(to, from)?;
        // Cross-node blocks route through the node leaders; intra-node
        // (and flat-run) blocks keep the direct per-edge path.
        let target = match &self.fabric.relay {
            Some(relay) if relay.shard_node[owner] != relay.node => {
                if relay.leader == self.shard {
                    relay_contribution(&self.fabric, step, from, to, block)?;
                    self.fabric.note_flow(FlowKind::Post, step, from, to, 0);
                    return Ok(());
                }
                relay.leader
            }
            _ => owner,
        };
        let peer = self.fabric.peer(target)?;
        let payload = encode_ghost(step, from, to, block);
        peer.cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert((from, to), (FrameKind::Ghost, payload.clone()));
        ghost_send(&self.fabric, peer, FrameKind::Ghost, &payload)?;
        self.fabric.note_flow(FlowKind::Post, step, from, to, 0);
        Ok(())
    }

    fn acquire(
        &self,
        step: u64,
        from: usize,
        to: usize,
        out: &mut [Vec3],
    ) -> Result<f64, TransportError> {
        let owner = self.owner_of(from, to)?;
        if owner == self.shard {
            return self.fabric.mailbox.acquire(step, from, to, out);
        }
        let peer = self.fabric.peer(owner)?;
        if !self.fabric.respawn {
            // Legacy path: a dead peer fails the acquire immediately.
            let alive = Arc::clone(peer);
            return self
                .fabric
                .mailbox
                .acquire_watch(step, from, to, out, || alive.alive.load(Ordering::Acquire))
                .inspect(|&waited_s| {
                    self.fabric.note_flow(
                        FlowKind::Acquire,
                        step,
                        from,
                        to,
                        (waited_s.max(0.0) * 1e9) as u64,
                    );
                })
                .map_err(|e| match e {
                    TransportError::PeerDisconnected { .. } => {
                        TransportError::PeerDisconnected { shard: owner }
                    }
                    other => other,
                });
        }
        // Degraded wait: hold through `restart_budget + 2` deadline
        // rounds — the frame may be riding a reconnect replay, or the
        // peer may be respawning under the parent's supervision. A peer
        // that is dead or silent past the deadline is escalated to the
        // parent once per connection epoch.
        let rounds = self.fabric.restart_budget + 2;
        let mut silent = Duration::ZERO;
        let blocked_from = Instant::now();
        for _ in 0..rounds {
            match self
                .fabric
                .mailbox
                .acquire_watch(step, from, to, out, || true)
            {
                Ok(waited_s) => {
                    // Timed-out rounds blocked this PE just as surely as
                    // the final successful watch did: report the whole
                    // degraded wait, or the profiler would book recovery
                    // stalls as apply time (and blame the wrong shard).
                    let waited_s = waited_s.max(blocked_from.elapsed().as_secs_f64());
                    self.fabric.note_flow(
                        FlowKind::Acquire,
                        step,
                        from,
                        to,
                        (waited_s.max(0.0) * 1e9) as u64,
                    );
                    return Ok(waited_s);
                }
                Err(TransportError::Timeout { waited, .. }) => {
                    silent += waited;
                    let dead = !peer.alive.load(Ordering::Acquire);
                    if (dead || self.fabric.stale(peer)) && !peer.done.load(Ordering::Acquire) {
                        let ep = peer.epoch.load(Ordering::SeqCst) + 1;
                        if peer.suspected_epoch.swap(ep, Ordering::SeqCst) != ep {
                            let mut w = ByteWriter::new();
                            w.u32(owner as u32);
                            let _ = self.fabric.send_parent(FrameKind::Suspect, &w.finish());
                        }
                    }
                }
                Err(other) => return Err(other),
            }
        }
        Err(TransportError::PeerSuspect {
            shard: owner,
            silent,
        })
    }

    fn link(&self) -> LinkParams {
        self.params
    }

    fn shutdown(&self) -> Result<(), TransportError> {
        self.farewell();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Child process.
// ---------------------------------------------------------------------------

fn connect_retry(path: &Path, deadline: Instant) -> Result<UnixStream, TransportError> {
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(TransportError::Io(format!(
                        "connect {} timed out: {e}",
                        path.display()
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

fn env_usize(key: &str) -> Result<usize, TransportError> {
    std::env::var(key)
        .map_err(|_| TransportError::Protocol(format!("missing {key}")))?
        .parse()
        .map_err(|_| TransportError::Protocol(format!("bad {key}")))
}

/// Parses the kill knob for this shard. Creating the once-marker at plan
/// time is deliberate: this process will deterministically die at the
/// planned step, and the marker must already exist when the respawned
/// (or retried) shard re-reads the environment.
fn kill_plan(shard: usize) -> Option<u64> {
    let spec = std::env::var(ENV_KILL).ok()?;
    let (victim, step) = spec.split_once(':')?;
    if victim.parse::<usize>().ok()? != shard {
        return None;
    }
    let step = step.parse().ok()?;
    if let Ok(marker) = std::env::var(ENV_KILL_ONCE) {
        if Path::new(&marker).exists() {
            return None;
        }
        let _ = std::fs::write(&marker, b"fired\n");
    }
    Some(step)
}

fn expect_hello(stream: &mut UnixStream) -> Result<usize, TransportError> {
    let f = read_frame(stream)?;
    if f.kind != FrameKind::Hello {
        return Err(TransportError::Protocol(format!(
            "expected Hello, got {:?}",
            f.kind
        )));
    }
    let mut r = ByteReader::new(&f.payload);
    let id = r.u32()? as usize;
    Ok(id)
}

fn hello_payload(id: usize) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(id as u32);
    w.finish()
}

/// The shard-child entry point: join the socket mesh, rebuild the
/// problem, serve the microbenchmark, run the owned PE slice, report.
fn child_main() -> Result<(), TransportError> {
    let id = env_usize(ENV_ID)?;
    let dir = PathBuf::from(
        std::env::var(ENV_DIR)
            .map_err(|_| TransportError::Protocol(format!("missing {ENV_DIR}")))?,
    );
    let spec_text = std::fs::read_to_string(dir.join("spec.txt")).map_err(io_err)?;
    let spec = RunSpec::deserialize(&spec_text).map_err(TransportError::Protocol)?;
    let shards = spec.shards;
    let conn_timeout = Duration::from_secs_f64(spec.conn_timeout.max(0.001));
    let attempt = attempt_from_env();
    let respawn = spec.restart_budget > 0 && shards > 1;
    // Wire chaos arms only on a shard's first launch: a respawned or
    // retried generation must not re-injure the recovery it exists for.
    let plan = if attempt == 0 && spec.wire_fault_rate > 0.0 {
        WireFaultPlan::uniform(spec.wire_fault_seed, spec.wire_fault_rate)
    } else {
        WireFaultPlan::none()
    };
    let deadline = Instant::now() + conn_timeout;

    // Dial the parent before the (slow) problem build: a respawned shard
    // must announce itself within the supervisor's accept window.
    let mut parent = connect_retry(&dir.join("parent.sock"), deadline)?;
    write_frame(&mut parent, FrameKind::Hello, &hello_payload(id))?;
    let built = super::run::build(&spec).map_err(TransportError::Protocol)?;

    // Peer mesh: bind first, then dial down, then accept from above — the
    // bind-before-dial order makes the mesh deadlock-free. A respawned
    // shard unlinks its stale socket file from the previous generation.
    let sock_path = dir.join(format!("shard{id}.sock"));
    let _ = std::fs::remove_file(&sock_path);
    let listener = UnixListener::bind(&sock_path).map_err(io_err)?;
    let mesh_deadline = Instant::now() + conn_timeout;
    let mut streams: Vec<Option<UnixStream>> = (0..shards).map(|_| None).collect();
    for j in 0..id {
        let mut s = connect_retry(&dir.join(format!("shard{j}.sock")), mesh_deadline)?;
        write_frame(&mut s, FrameKind::Hello, &hello_payload(id))?;
        streams[j] = Some(s);
    }
    for _ in id + 1..shards {
        let (mut s, _) = listener.accept().map_err(io_err)?;
        let j = expect_hello(&mut s)?;
        if j <= id || j >= shards || streams[j].is_some() {
            return Err(TransportError::Protocol(format!(
                "unexpected Hello from shard {j}"
            )));
        }
        streams[j] = Some(s);
    }
    // The shard's one clock: Pong samples, telemetry spans, flow
    // endpoints and the heartbeat epoch all count nanoseconds from this
    // instant, so the parent's handshake offset aligns every trace
    // timestamp this process ever emits.
    let clock_origin = Instant::now();
    write_frame(&mut parent, FrameKind::Ready, &[])?;

    // Serve the parent's microbenchmark and clock probes until the Go
    // carrying the run id and the measured link parameters. Every Pong
    // echoes the ping payload and appends our clock (u64 nanoseconds
    // since `clock_origin`) for the offset measurement.
    let (run_id, t_l, t_w) = loop {
        let f = read_frame(&mut parent)?;
        match f.kind {
            FrameKind::Ping => {
                let mut pong = f.payload.clone();
                let now_ns = clock_origin.elapsed().as_nanos() as u64;
                pong.extend_from_slice(&now_ns.to_le_bytes());
                write_frame(&mut parent, FrameKind::Pong, &pong)?;
            }
            FrameKind::Bulk => write_frame(&mut parent, FrameKind::BulkAck, &[])?,
            FrameKind::Go => {
                let mut r = ByteReader::new(&f.payload);
                break (r.u64()?, r.f64()?, r.f64()?);
            }
            other => {
                return Err(TransportError::Protocol(format!(
                    "expected Ping/Bulk/Go, got {other:?}"
                )))
            }
        }
    };

    // Assemble the fabric and its reader threads.
    let parts = spec.parts;
    let owned = shard_pe_range(parts, shards, id);
    let edge_list = ghost_edges(&built.system);
    let mailbox = Arc::new(Mailbox::new(&edge_list, steady_timeout(conn_timeout)));
    let edges: Arc<EdgeMap> = Arc::new(
        edge_list
            .iter()
            .enumerate()
            .map(|(i, e)| ((e.from, e.to), (i, e.len)))
            .collect(),
    );
    let pe_owner: Vec<usize> = (0..parts)
        .map(|q| (0..shards).find(|&k| shard_pe_range(parts, shards, k).contains(&q)))
        .map(|k| k.expect("shard ranges tile the PE space"))
        .collect();
    let peers: Vec<Option<Arc<Peer>>> = (0..shards)
        .map(|j| (j != id).then(|| Arc::new(Peer::new(j))))
        .collect();
    let fabric = Arc::new(Fabric {
        id,
        dir: dir.clone(),
        conn_timeout,
        respawn,
        restart_budget: spec.restart_budget,
        plan,
        origin: clock_origin,
        wire: Mutex::new(FaultReport::default()),
        parent: Some(Mutex::new(parent.try_clone().map_err(io_err)?)),
        stall_used: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        peers,
        mailbox,
        edges,
        relay: if spec.aggregate {
            NodeRelay::build(id, parts, shards, spec.nodes, &edge_list)
        } else {
            None
        },
        wire_delay: (spec.wire_latency > 0.0 && spec.nodes >= 1 && spec.nodes <= shards).then(
            || {
                (
                    Duration::from_secs_f64(spec.wire_latency),
                    (0..shards)
                        .map(|k| node_of(shards, spec.nodes, k))
                        .collect(),
                )
            },
        ),
        flows: Mutex::new(Vec::new()),
        flows_enabled: spec.trace,
        flows_dropped: AtomicU64::new(0),
    });
    for (j, slot) in streams.iter_mut().enumerate() {
        let Some(s) = slot.take() else { continue };
        let peer = fabric.peer(j)?;
        install_conn(&fabric, &Arc::clone(peer), s)?;
    }
    if respawn {
        spawn_accept(Arc::clone(&fabric), listener);
    }
    spawn_heartbeats(Arc::clone(&fabric));
    let link = Arc::new(ProcLink {
        shard: id,
        fabric: Arc::clone(&fabric),
        pe_owner,
        params: LinkParams {
            t_l,
            t_w,
            measured: true,
        },
        kill_at: kill_plan(id),
    });

    // Run the owned slice. Transport faults surface as panics out of the
    // worker pool; catch them so a peer death exits this child cleanly
    // (nonzero) instead of aborting mid-unwind.
    let mut exec = BspExecutor::with_transport(
        &built.system,
        spec.threads,
        spec.rcm,
        spec.overlap,
        owned.clone(),
        Arc::clone(&link) as Arc<dyn Transport>,
    );
    super::run::arm_at(&mut exec, &spec, Some(clock_origin));
    let ran = catch_unwind(AssertUnwindSafe(|| exec.run(&built.x, spec.steps)));
    if let Err(panic) = ran {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "worker panic".into());
        return Err(TransportError::Protocol(format!(
            "shard {id} run failed: {msg}"
        )));
    }

    // Let the injector's books settle before snapshotting the ledger:
    // outstanding damage credits ride on peers' Resend requests, which
    // may still be in flight right after the last step.
    if fabric.plan.is_armed() {
        let settle = Instant::now() + conn_timeout;
        while Instant::now() < settle {
            let outstanding = fabric.peers.iter().flatten().any(|p| {
                !p.pending_damage
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .is_empty()
                    || p.pending_reset.load(Ordering::SeqCst)
            });
            if !outstanding {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Report: gather lists + post-exchange partials per owned PE, plus
    // counters, phase walls and the fault ledger (with this process's
    // wire-chaos triple folded in).
    let report = exec.report();
    let boundary = exec.overlap_boundary_rows().map(|b| b.to_vec());
    let wire = fabric.ledger(|l| *l);
    let mut fault = report.fault;
    if wire.wire_injected.total() > 0 || wire.wire_resends > 0 || wire.reconnects > 0 {
        match fault.as_mut() {
            Some(acc) => acc.merge(&wire),
            None => fault = Some(wire),
        }
    }
    let pes: Vec<PeResult> = owned
        .clone()
        .map(|q| {
            let c = report.pe[q];
            PeResult {
                gather: exec.gather_of(q).to_vec(),
                exchanged: exec.exchanged_of(q).to_vec(),
                counters: [
                    c.flops,
                    c.words_sent,
                    c.words_received,
                    c.blocks_sent,
                    c.blocks_received,
                ],
                times: [c.t_assemble, c.t_compute, c.t_exchange, c.t_barrier],
                boundary_rows: boundary.as_ref().map(|b| b[q]),
            }
        })
        .collect();
    let result = ShardResult {
        shard: id,
        pe_lo: owned.start,
        pe_hi: owned.end,
        phases: [
            report.phases.assemble,
            report.phases.compute,
            report.phases.exchange,
            report.phases.fold,
        ],
        pes,
        fault,
    };
    // Trace runs ship the shard's whole telemetry picture just before
    // the Result: the parent pairs it with the handshake-measured clock
    // offset for this generation. Same serialized writer, so a reader
    // that sees Result has already seen the snapshot.
    if let Some(telemetry) = exec.telemetry() {
        let flows = std::mem::take(&mut *fabric.flows.lock().unwrap_or_else(|p| p.into_inner()));
        let snap = TelemetrySnapshot::capture(
            telemetry,
            TraceContext {
                run_id,
                shard: id as u32,
                generation: attempt as u32,
            },
            owned.start as u32,
            owned.end as u32,
            flows,
            fabric.flows_dropped.load(Ordering::Relaxed),
        );
        let bytes = snap.encode();
        if bytes.len() <= frame::MAX_PAYLOAD as usize {
            fabric.send_parent(FrameKind::Telemetry, &bytes)?;
        } else {
            eprintln!(
                "quake proc shard {id}: telemetry snapshot of {} bytes exceeds the frame cap; dropped",
                bytes.len()
            );
        }
    }
    fabric.send_parent(FrameKind::Result, &encode_result(&result))?;
    link.farewell();
    if respawn || fabric.relay.is_some() {
        // Hold the mesh open for laggards: a survivor that exits now
        // would strand a respawned peer's rejoin dial, and a node relay
        // whose own run is done may still owe the last step's merged
        // batch or member forwards from its reader threads. The parent's
        // Bye releases everyone after the last Result lands.
        parent
            .set_read_timeout(Some(conn_timeout.mul_f64(spec.restart_budget as f64 + 4.0)))
            .map_err(io_err)?;
        loop {
            match read_frame(&mut parent) {
                Ok(f) if f.kind == FrameKind::Bye => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
    } else {
        // The parent stops reading the moment the Result frame lands, so
        // this courtesy Bye can race the dropped socket — not a failure.
        let _ = write_frame(&mut parent, FrameKind::Bye, &[]);
    }
    fabric.stop.store(true, Ordering::Release);
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent process.
// ---------------------------------------------------------------------------

/// Kills and reaps the children and removes the rendezvous directory,
/// whatever state the ensemble died in.
struct Ensemble {
    children: Vec<Child>,
    dir: PathBuf,
}

impl Drop for Ensemble {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
        }
        for c in &mut self.children {
            let _ = c.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn rendezvous_dir() -> Result<PathBuf, TransportError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "quake-proc-{}-{}-{nanos}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir(&dir).map_err(io_err)?;
    Ok(dir)
}

fn any_child_dead(children: &mut [Child], done: &[bool]) -> Option<usize> {
    for (k, c) in children.iter_mut().enumerate() {
        if done[k] {
            continue;
        }
        if let Ok(Some(status)) = c.try_wait() {
            if !status.success() {
                return Some(k);
            }
        }
    }
    None
}

/// Runs the Eq. (2) microbenchmark against one child: `T_l` from 64
/// ping/pong RTTs (median, halved), `T_w` from eight 128-KiB bulk
/// transfers with the latency share subtracted.
fn microbench(conn: &mut UnixStream) -> Result<LinkParams, TransportError> {
    const PINGS: usize = 64;
    const ROUNDS: usize = 8;
    const BULK_BYTES: usize = 128 * 1024;
    let mut rtts = Vec::with_capacity(PINGS);
    for i in 0..PINGS {
        let t0 = Instant::now();
        write_frame(conn, FrameKind::Ping, &(i as u64).to_le_bytes())?;
        let f = read_frame(conn)?;
        if f.kind != FrameKind::Pong {
            return Err(TransportError::Protocol(format!(
                "expected Pong, got {:?}",
                f.kind
            )));
        }
        rtts.push(t0.elapsed().as_secs_f64());
    }
    rtts.sort_by(|a, b| a.partial_cmp(b).expect("RTTs are finite"));
    let t_l = (rtts[PINGS / 2] / 2.0).max(1e-9);
    let payload = vec![0u8; BULK_BYTES];
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        write_frame(conn, FrameKind::Bulk, &payload)?;
        let f = read_frame(conn)?;
        if f.kind != FrameKind::BulkAck {
            return Err(TransportError::Protocol(format!(
                "expected BulkAck, got {:?}",
                f.kind
            )));
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let words = (ROUNDS * BULK_BYTES / 8) as f64;
    let t_w = ((elapsed - (ROUNDS as f64) * 2.0 * t_l) / words).max(1e-12);
    Ok(LinkParams {
        t_l,
        t_w,
        measured: true,
    })
}

/// Measures one shard's clock offset against the parent's `epoch` with a
/// handful of Ping round trips. The child's Pong appends its own clock
/// (nanoseconds since its trace origin); the probe with the smallest RTT
/// anchors `offset = parent midpoint − child clock`, so adding the offset
/// to any child-clock nanosecond lands it on the parent's timeline.
fn clock_probe(conn: &mut UnixStream, epoch: Instant) -> Result<i64, TransportError> {
    const PROBES: u64 = 5;
    let mut best_rtt = u64::MAX;
    let mut offset = 0i64;
    for i in 0..PROBES {
        let t0 = epoch.elapsed().as_nanos() as u64;
        write_frame(conn, FrameKind::Ping, &i.to_le_bytes())?;
        let f = read_frame(conn)?;
        let t1 = epoch.elapsed().as_nanos() as u64;
        if f.kind != FrameKind::Pong {
            return Err(TransportError::Protocol(format!(
                "expected Pong, got {:?}",
                f.kind
            )));
        }
        // The child's clock rides the last eight payload bytes, after the
        // echoed ping payload.
        if f.payload.len() < 16 {
            return Err(TransportError::Protocol(
                "Pong carries no clock sample".into(),
            ));
        }
        let mut child = [0u8; 8];
        child.copy_from_slice(&f.payload[f.payload.len() - 8..]);
        let child_ns = u64::from_le_bytes(child);
        let rtt = t1.saturating_sub(t0);
        if rtt < best_rtt {
            best_rtt = rtt;
            offset = (t0 + rtt / 2) as i64 - child_ns as i64;
        }
    }
    Ok(offset)
}

fn spawn_child(exe: &Path, dir: &Path, k: usize, attempt: u64) -> Result<Child, TransportError> {
    Command::new(exe)
        .env(ENV_ROLE, "shard")
        .env(ENV_ID, k.to_string())
        .env(ENV_DIR, dir)
        .env(ENV_ATTEMPT, attempt.to_string())
        .stdin(Stdio::null())
        .spawn()
        .map_err(io_err)
}

/// What one shard's result reader tells the supervisor.
enum Ev {
    Result(Box<ShardResult>),
    /// The shard's encoded telemetry snapshot (`Telemetry` frame, trace
    /// runs only — always arrives before the shard's Result).
    Telemetry(Vec<u8>),
    /// The shard accuses another of hanging (`Suspect` frame).
    Suspect(usize),
    /// The shard announced an injected stall (`WireEvent` frame).
    Stall,
    /// Nothing heard for a whole deadline — not even a heartbeat.
    Silent,
    /// The connection or the protocol died with this error.
    Gone(TransportError),
}

/// `(shard, generation, event)` — stale generations are dropped.
type EvMsg = (usize, u64, Ev);

/// One blocking reader per live shard connection. The read deadline is
/// the supervision clock: heartbeats reset it, and a full deadline of
/// silence surfaces as [`Ev::Silent`] instead of blocking forever (the
/// hung-peer hazard the old unbounded reader had).
fn parent_reader(mut s: UnixStream, k: usize, gen: u64, tx: mpsc::Sender<EvMsg>) {
    loop {
        match read_frame(&mut s) {
            Ok(f) => match f.kind {
                FrameKind::Result => {
                    let ev = match decode_result(&f.payload) {
                        Ok(res) => Ev::Result(Box::new(res)),
                        Err(e) => Ev::Gone(e),
                    };
                    let _ = tx.send((k, gen, ev));
                    return;
                }
                FrameKind::Heartbeat => {}
                FrameKind::Telemetry => {
                    let _ = tx.send((k, gen, Ev::Telemetry(f.payload)));
                }
                FrameKind::Suspect => {
                    let mut r = ByteReader::new(&f.payload);
                    if let Ok(victim) = r.u32() {
                        let _ = tx.send((k, gen, Ev::Suspect(victim as usize)));
                    }
                }
                FrameKind::WireEvent => {
                    let _ = tx.send((k, gen, Ev::Stall));
                }
                FrameKind::Bye => {
                    let _ = tx.send((
                        k,
                        gen,
                        Ev::Gone(TransportError::Protocol("Bye before Result".into())),
                    ));
                    return;
                }
                _ => {}
            },
            Err(FrameError::TimedOut) => {
                let _ = tx.send((k, gen, Ev::Silent));
            }
            Err(FrameError::Closed) => {
                let _ = tx.send((
                    k,
                    gen,
                    Ev::Gone(TransportError::PeerDisconnected { shard: k }),
                ));
                return;
            }
            Err(e) => {
                let _ = tx.send((k, gen, Ev::Gone(TransportError::Frame(e))));
                return;
            }
        }
    }
}

/// The supervision state the parent threads share per ensemble attempt.
struct Supervisor<'a> {
    spec: &'a RunSpec,
    exe: &'a Path,
    dir: &'a Path,
    listener: &'a UnixListener,
    conn_timeout: Duration,
    attempt_base: u64,
    respawn_mode: bool,
    /// The stored Go frame a respawned shard is released with.
    go: Vec<u8>,
    tx: mpsc::Sender<EvMsg>,
    /// Respawn generation per shard; stale reader events are dropped.
    gen: Vec<u64>,
    writers: Vec<UnixStream>,
    /// The parent's own supervision ledger (stall triple, suspects,
    /// respawns) merged into the run's fault report at the end.
    ledger: FaultReport,
    incidents: Vec<Incident>,
    /// A shard announced an injected stall and has not resolved yet.
    pending_stall: Vec<bool>,
    /// Post-respawn grace window: stale Suspect/Silent events for a
    /// shard that is rebuilding are expected, not re-escalated.
    grace: Vec<Option<Instant>>,
    respawns_used: u64,
    t0: Instant,
    /// The parent-side trace timeline: clock offsets and incident stamps
    /// count nanoseconds from here.
    epoch: Instant,
    /// Handshake-measured clock offset per `(shard, generation)` — a
    /// fresh probe runs before every Go, initial and respawn alike.
    offsets: Vec<(usize, u32, i64)>,
}

impl Supervisor<'_> {
    fn t_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn in_grace(&self, k: usize) -> bool {
        matches!(self.grace[k], Some(g) if Instant::now() < g)
    }

    /// Credits a pending stall: the injured shard either respawned or
    /// delivered a late Result, so the stall is detected and recovered.
    fn settle_stall(&mut self, k: usize) {
        if std::mem::take(&mut self.pending_stall[k]) {
            self.ledger.wire_detected.stall += 1;
            self.ledger.wire_recovered.stall += 1;
        }
    }

    /// Escalation: respawn the victim — and, in the same batch, every
    /// other result-less child that has already died — within budget,
    /// else return the cause as the attempt's failure. Batching is what
    /// makes concurrent deaths recoverable: a lone rejoiner's mesh
    /// bootstrap blocks on every peer's listener, so respawning one
    /// shard at a time would deadlock against a second corpse.
    fn try_respawn(
        &mut self,
        ens: &mut Ensemble,
        k: usize,
        done: &[bool],
        cause: TransportError,
    ) -> Option<TransportError> {
        if !self.respawn_mode {
            return Some(cause);
        }
        let mut dead = vec![k];
        for (j, c) in ens.children.iter_mut().enumerate() {
            if j != k && !done[j] && matches!(c.try_wait(), Ok(Some(_))) {
                dead.push(j);
            }
        }
        if self.respawns_used + dead.len() as u64 > self.spec.restart_budget {
            return Some(cause);
        }
        self.respawns_used += dead.len() as u64;
        self.respawn_shards(ens, &dead).err()
    }

    /// Kills and relaunches a batch of shards, walks each through the
    /// bootstrap handshake (Hello, Ready, stored Go) and hands its
    /// connection to a fresh generation-tagged reader. All replacements
    /// are spawned before any handshake completes, so their mesh
    /// bootstraps can re-knit against each other; the survivors'
    /// redial/accept threads handle their side on their own.
    fn respawn_shards(&mut self, ens: &mut Ensemble, dead: &[usize]) -> Result<(), TransportError> {
        for &k in dead {
            self.gen[k] += 1;
            let _ = ens.children[k].kill();
            let _ = ens.children[k].wait();
            ens.children[k] = spawn_child(self.exe, self.dir, k, self.attempt_base + self.gen[k])?;
        }
        // Accept the replacements' Hellos in whatever order they dial in.
        let deadline = Instant::now() + self.conn_timeout.mul_f64(2.0);
        let mut conns: Vec<Option<UnixStream>> = (0..self.spec.shards).map(|_| None).collect();
        let mut missing = dead.len();
        while missing > 0 {
            match self.listener.accept() {
                Ok((mut s, _)) => {
                    s.set_nonblocking(false).map_err(io_err)?;
                    s.set_read_timeout(Some(self.conn_timeout))
                        .map_err(io_err)?;
                    match expect_hello(&mut s) {
                        Ok(id) if dead.contains(&id) && conns[id].is_none() => {
                            conns[id] = Some(s);
                            missing -= 1;
                        }
                        // A stale dial from a dead generation: drop it.
                        _ => continue,
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    for &k in dead {
                        if conns[k].is_none() {
                            if let Ok(Some(status)) = ens.children[k].try_wait() {
                                if !status.success() {
                                    return Err(TransportError::PeerDisconnected { shard: k });
                                }
                            }
                        }
                    }
                    if Instant::now() >= deadline {
                        return Err(TransportError::Io("respawn accept timed out".into()));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(io_err(e)),
            }
        }
        // The rebuild happens between Hello and Ready; the waits are
        // sequential but the children proceed concurrently.
        for &k in dead {
            let mut conn = conns[k].take().expect("accepted above");
            conn.set_read_timeout(Some(self.conn_timeout.mul_f64(4.0)))
                .map_err(io_err)?;
            loop {
                let f = read_frame(&mut conn)?;
                match f.kind {
                    FrameKind::Ready => break,
                    FrameKind::Heartbeat => continue,
                    other => {
                        return Err(TransportError::Protocol(format!(
                            "respawned shard {k}: expected Ready, got {other:?}"
                        )))
                    }
                }
            }
            let off = clock_probe(&mut conn, self.epoch)?;
            self.offsets
                .push((k, (self.attempt_base + self.gen[k]) as u32, off));
            write_frame(&mut conn, FrameKind::Go, &self.go)?;
            conn.set_read_timeout(Some(self.conn_timeout))
                .map_err(io_err)?;
            let rs = conn.try_clone().map_err(io_err)?;
            self.writers[k] = conn;
            let (gen, tx) = (self.gen[k], self.tx.clone());
            std::thread::spawn(move || parent_reader(rs, k, gen, tx));
            self.ledger.respawned_shards += 1;
            self.settle_stall(k);
            self.grace[k] = Some(Instant::now() + self.conn_timeout.mul_f64(1.5));
            self.incidents.push(Incident {
                t_s: self.t_s(),
                kind: "shard-respawn",
                shard: k,
            });
        }
        Ok(())
    }
}

/// Launches the shard ensemble for a spec and merges its results. Inside
/// an attempt the supervisor recovers per shard (respawn within
/// `--restart-budget`); a failed attempt is then retried once whole — the
/// run is a pure function of the spec, so the retry is exact.
///
/// # Errors
///
/// Returns a typed error on any spawn, protocol, or child failure.
pub fn run_parent(spec: &RunSpec, built: &Built) -> Result<RunOutput, TransportError> {
    if spec.shards == 0 {
        return Err(TransportError::Protocol("shards must be at least 1".into()));
    }
    let attempts = 2;
    // The run id stamped into every shard's trace context. Uniqueness
    // per invocation is all that matters; it survives ensemble retries.
    let run_id = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64
        ^ (std::process::id() as u64) << 32;
    let mut last = None;
    for attempt in 0..attempts {
        match run_ensemble(spec, built, attempt, run_id) {
            Ok(mut out) => {
                if attempt > 0 {
                    let f = out.report.fault.get_or_insert_with(FaultReport::default);
                    f.ensemble_restarts += attempt;
                    out.incidents.push(Incident {
                        t_s: 0.0,
                        kind: "ensemble-restart",
                        shard: 0,
                    });
                }
                return Ok(out);
            }
            Err(e) => {
                if attempt + 1 < attempts {
                    eprintln!("quake: ensemble attempt {attempt} failed ({e}); retrying whole");
                }
                last = Some(e);
            }
        }
    }
    Err(last.expect("at least one attempt ran"))
}

fn run_ensemble(
    spec: &RunSpec,
    built: &Built,
    attempt_base: u64,
    run_id: u64,
) -> Result<RunOutput, TransportError> {
    let conn_timeout = Duration::from_secs_f64(spec.conn_timeout.max(0.001));
    let respawn_mode = spec.restart_budget > 0 && spec.shards > 1;
    let dir = rendezvous_dir()?;
    std::fs::write(dir.join("spec.txt"), spec.serialize()).map_err(io_err)?;
    let listener = UnixListener::bind(dir.join("parent.sock")).map_err(io_err)?;
    listener.set_nonblocking(true).map_err(io_err)?;
    let exe = std::env::current_exe().map_err(io_err)?;
    let mut ensemble = Ensemble {
        children: Vec::new(),
        dir: dir.clone(),
    };
    for k in 0..spec.shards {
        ensemble
            .children
            .push(spawn_child(&exe, &dir, k, attempt_base)?);
    }

    // Collect Hellos (children dial before their problem build).
    let deadline = Instant::now() + conn_timeout.mul_f64(2.0);
    let mut conns: Vec<Option<UnixStream>> = (0..spec.shards).map(|_| None).collect();
    let mut connected = 0;
    while connected < spec.shards {
        match listener.accept() {
            Ok((mut s, _)) => {
                s.set_nonblocking(false).map_err(io_err)?;
                s.set_read_timeout(Some(conn_timeout)).map_err(io_err)?;
                let id = expect_hello(&mut s)?;
                if id >= spec.shards || conns[id].is_some() {
                    return Err(TransportError::Protocol(format!(
                        "unexpected Hello from shard {id}"
                    )));
                }
                conns[id] = Some(s);
                connected += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let none_done = vec![false; spec.shards];
                if let Some(k) = any_child_dead(&mut ensemble.children, &none_done) {
                    return Err(TransportError::PeerDisconnected { shard: k });
                }
                if Instant::now() >= deadline {
                    return Err(TransportError::Io("bootstrap accept timed out".into()));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    let mut conns: Vec<UnixStream> = conns
        .into_iter()
        .map(|c| c.expect("all shards connected"))
        .collect();

    // Readies (the slow rebuild happens before these), then the
    // microbenchmark, then Go.
    for (k, conn) in conns.iter_mut().enumerate() {
        conn.set_read_timeout(Some(conn_timeout.mul_f64(4.0)))
            .map_err(io_err)?;
        let f = read_frame(conn)?;
        if f.kind != FrameKind::Ready {
            return Err(TransportError::Protocol(format!(
                "shard {k}: expected Ready, got {:?}",
                f.kind
            )));
        }
    }
    let params = microbench(&mut conns[0])?;
    // The trace timeline's zero. Per-shard clock probes run against it
    // just before each Go (here and on every respawn), so all trace
    // timestamps — spans, flows, incidents — land on one axis.
    let epoch = Instant::now();
    let mut offsets: Vec<(usize, u32, i64)> = Vec::with_capacity(spec.shards);
    for (k, conn) in conns.iter_mut().enumerate() {
        offsets.push((k, attempt_base as u32, clock_probe(conn, epoch)?));
    }
    let mut go = ByteWriter::new();
    go.u64(run_id);
    go.f64(params.t_l);
    go.f64(params.t_w);
    let go = go.finish();
    for conn in conns.iter_mut() {
        write_frame(conn, FrameKind::Go, &go)?;
    }

    // One deadline-bounded reader per child; the main thread supervises:
    // results, suspects, stall announcements, silence and deaths.
    let (tx, rx) = mpsc::channel::<EvMsg>();
    let mut sup = Supervisor {
        spec,
        exe: &exe,
        dir: &dir,
        listener: &listener,
        conn_timeout,
        attempt_base,
        respawn_mode,
        go,
        tx,
        gen: vec![0; spec.shards],
        writers: Vec::new(),
        ledger: FaultReport::default(),
        incidents: Vec::new(),
        pending_stall: vec![false; spec.shards],
        grace: vec![None; spec.shards],
        respawns_used: 0,
        t0: Instant::now(),
        epoch,
        offsets,
    };
    for (k, s) in conns.into_iter().enumerate() {
        s.set_read_timeout(Some(conn_timeout)).map_err(io_err)?;
        let rs = s.try_clone().map_err(io_err)?;
        sup.writers.push(s);
        let tx = sup.tx.clone();
        std::thread::spawn(move || parent_reader(rs, k, 0, tx));
    }
    let mut results: Vec<Option<ShardResult>> = (0..spec.shards).map(|_| None).collect();
    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    let mut failure: Option<TransportError> = None;
    let mut pending = spec.shards;
    while pending > 0 && failure.is_none() {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok((k, gen, _)) if gen != sup.gen[k] => {} // stale generation
            Ok((k, _, Ev::Result(res))) => {
                if res.shard != k
                    || (res.pe_lo..res.pe_hi) != shard_pe_range(spec.parts, spec.shards, k)
                {
                    failure = Some(TransportError::Protocol(format!(
                        "shard {k} reported foreign range {}..{}",
                        res.pe_lo, res.pe_hi
                    )));
                } else {
                    sup.settle_stall(k); // a late Result resolves a stall
                    results[k] = Some(*res);
                    pending -= 1;
                }
            }
            Ok((k, _, Ev::Telemetry(bytes))) => {
                let _ = k;
                snapshots.push(bytes);
            }
            Ok((k, _, Ev::Suspect(victim))) => {
                let actionable =
                    victim < spec.shards && results[victim].is_none() && !sup.in_grace(victim);
                if actionable {
                    sup.ledger.suspects += 1;
                    sup.incidents.push(Incident {
                        t_s: sup.t_s(),
                        kind: "suspect",
                        shard: victim,
                    });
                    let done: Vec<bool> = results.iter().map(|r| r.is_some()).collect();
                    failure = sup.try_respawn(
                        &mut ensemble,
                        victim,
                        &done,
                        TransportError::PeerSuspect {
                            shard: victim,
                            silent: conn_timeout,
                        },
                    );
                }
                let _ = k;
            }
            Ok((k, _, Ev::Stall)) => {
                sup.ledger.wire_injected.stall += 1;
                sup.pending_stall[k] = true;
                sup.incidents.push(Incident {
                    t_s: sup.t_s(),
                    kind: "wire-stall",
                    shard: k,
                });
            }
            Ok((k, _, Ev::Silent)) => {
                if results[k].is_none() && !sup.in_grace(k) {
                    sup.ledger.suspects += 1;
                    sup.incidents.push(Incident {
                        t_s: sup.t_s(),
                        kind: "suspect",
                        shard: k,
                    });
                    let done: Vec<bool> = results.iter().map(|r| r.is_some()).collect();
                    failure = sup.try_respawn(
                        &mut ensemble,
                        k,
                        &done,
                        TransportError::PeerSuspect {
                            shard: k,
                            silent: conn_timeout,
                        },
                    );
                }
            }
            Ok((k, _, Ev::Gone(e))) => {
                if results[k].is_none() {
                    let done: Vec<bool> = results.iter().map(|r| r.is_some()).collect();
                    failure = sup.try_respawn(&mut ensemble, k, &done, e);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let done: Vec<bool> = results.iter().map(|r| r.is_some()).collect();
                if let Some(k) = any_child_dead(&mut ensemble.children, &done) {
                    if !sup.in_grace(k) {
                        failure = sup.try_respawn(
                            &mut ensemble,
                            k,
                            &done,
                            TransportError::PeerDisconnected { shard: k },
                        );
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                failure = Some(TransportError::Protocol(
                    "result readers exited without reporting".into(),
                ));
            }
        }
    }
    if let Some(e) = failure {
        // Ensemble::drop kills the survivors; the closed sockets and the
        // read deadlines unwind the reader threads on their own.
        drop(ensemble);
        return Err(e);
    }
    // Release: the respawn-mode children hold the mesh open until this
    // Bye so a late rejoiner always finds its peers.
    for w in sup.writers.iter_mut() {
        let _ = write_frame(w, FrameKind::Bye, &[]);
    }

    // Merge: counters per owned slot, phase walls elementwise max (the
    // ensemble's critical path), fault ledgers summed, and the global
    // fold replayed first-writer-wins in ascending shard/PE order — the
    // exact order the in-process executor folds in.
    let nodes = built.system.global_nodes();
    let mut y = vec![Vec3::ZERO; nodes];
    let mut written = vec![false; nodes];
    let mut pe = vec![PeCounters::default(); spec.parts];
    let mut phases = PhaseWalls::default();
    let mut fault: Option<FaultReport> = None;
    let mut boundary: Option<Vec<usize>> = spec.overlap.then(|| vec![0usize; spec.parts]);
    for res in results.iter().map(|r| r.as_ref().expect("all reported")) {
        for (i, pr) in res.pes.iter().enumerate() {
            let q = res.pe_lo + i;
            if pr.gather.len() != pr.exchanged.len() {
                return Err(TransportError::Protocol(format!(
                    "PE {q}: gather/exchanged length mismatch"
                )));
            }
            for (l, &g) in pr.gather.iter().enumerate() {
                if g >= nodes {
                    return Err(TransportError::Protocol(format!(
                        "PE {q}: gather index {g} out of {nodes} nodes"
                    )));
                }
                if !written[g] {
                    written[g] = true;
                    y[g] = pr.exchanged[l];
                }
            }
            pe[q] = PeCounters {
                flops: pr.counters[0],
                words_sent: pr.counters[1],
                words_received: pr.counters[2],
                blocks_sent: pr.counters[3],
                blocks_received: pr.counters[4],
                t_assemble: pr.times[0],
                t_compute: pr.times[1],
                t_exchange: pr.times[2],
                t_barrier: pr.times[3],
            };
            if let (Some(b), Some(br)) = (boundary.as_mut(), pr.boundary_rows) {
                b[q] = br;
            }
        }
        phases.assemble = phases.assemble.max(res.phases[0]);
        phases.compute = phases.compute.max(res.phases[1]);
        phases.exchange = phases.exchange.max(res.phases[2]);
        phases.fold = phases.fold.max(res.phases[3]);
        if let Some(fr) = &res.fault {
            match fault.as_mut() {
                Some(acc) => acc.merge(fr),
                None => fault = Some(*fr),
            }
        }
    }
    if !written.iter().all(|&w| w) {
        return Err(TransportError::Protocol(
            "shard results do not cover every global node".into(),
        ));
    }
    // Fold in the parent's own supervision ledger (stall triple,
    // suspects, respawns).
    let supervised = sup.ledger.respawned_shards > 0
        || sup.ledger.suspects > 0
        || sup.ledger.wire_injected.total() > 0;
    if supervised {
        match fault.as_mut() {
            Some(acc) => acc.merge(&sup.ledger),
            None => fault = Some(sup.ledger),
        }
    }
    // Pair each shard's telemetry snapshot with the clock offset the
    // handshake measured for that exact generation; a snapshot whose
    // probe is missing aligns at offset 0 rather than being discarded.
    let mut shard_telemetry: Vec<ShardTrace> = Vec::with_capacity(snapshots.len());
    for bytes in &snapshots {
        match TelemetrySnapshot::decode(bytes) {
            Ok(snap) => {
                let clock_offset_ns = sup
                    .offsets
                    .iter()
                    .find(|(s, g, _)| *s == snap.ctx.shard as usize && *g == snap.ctx.generation)
                    .map_or(0, |&(_, _, o)| o);
                shard_telemetry.push(ShardTrace {
                    snap,
                    clock_offset_ns,
                });
            }
            Err(e) => eprintln!("quake: discarding malformed shard telemetry snapshot: {e}"),
        }
    }
    shard_telemetry.sort_by_key(|t| (t.snap.ctx.shard, t.snap.ctx.generation));
    // Every shard gets a ledger entry even on clean runs (a zeroed one):
    // the shard/generation-labeled metric series must exist whenever the
    // run was sharded, or dashboards built on them go blank between
    // incidents and a grep for a shard's series cannot distinguish
    // "healthy" from "unreported".
    let shard_faults: Vec<(usize, u32, FaultReport)> = results
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let res = r.as_ref().expect("all reported");
            (
                k,
                (attempt_base + sup.gen[k]) as u32,
                res.fault.unwrap_or_default(),
            )
        })
        .collect();
    Ok(RunOutput {
        y,
        report: ExecutionReport {
            threads: spec.threads,
            steps: spec.steps,
            pe,
            phases,
            fault,
        },
        boundary_rows: boundary,
        link: params,
        modeled_exchange_s: None,
        incidents: sup.incidents,
        shard_telemetry,
        shard_faults,
        telemetry: None,
        pool_stats: None,
        plan_s: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::frame;
    use crate::transport::GhostEdge;

    #[test]
    fn shard_ranges_tile_the_pe_space() {
        for parts in 1..12 {
            for shards in 1..=parts {
                let mut covered = 0;
                let mut expect_start = 0;
                for k in 0..shards {
                    let r = shard_pe_range(parts, shards, k);
                    assert_eq!(r.start, expect_start, "contiguous tiling");
                    expect_start = r.end;
                    covered += r.len();
                }
                assert_eq!(expect_start, parts);
                assert_eq!(covered, parts);
            }
        }
    }

    fn test_edges() -> Vec<GhostEdge> {
        vec![
            GhostEdge {
                from: 0,
                to: 1,
                len: 2,
            },
            GhostEdge {
                from: 1,
                to: 0,
                len: 2,
            },
        ]
    }

    /// A two-shard fabric whose only remote peer (shard 1) is a bare
    /// socketpair end — no parent, no respawn machinery.
    fn test_fabric(plan: WireFaultPlan) -> (Arc<Fabric>, Arc<Peer>) {
        let edges = test_edges();
        let mailbox = Arc::new(Mailbox::new(&edges, Duration::from_secs(2)));
        let map: Arc<EdgeMap> = Arc::new(
            edges
                .iter()
                .enumerate()
                .map(|(i, e)| ((e.from, e.to), (i, e.len)))
                .collect(),
        );
        let peer = Arc::new(Peer::new(1));
        let fabric = Arc::new(Fabric {
            id: 0,
            dir: std::env::temp_dir(),
            conn_timeout: Duration::from_secs(2),
            respawn: false,
            restart_budget: 0,
            plan,
            origin: Instant::now(),
            wire: Mutex::new(FaultReport::default()),
            parent: None,
            stall_used: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            peers: vec![None, Some(Arc::clone(&peer))],
            mailbox,
            edges: map,
            relay: None,
            wire_delay: None,
            flows: Mutex::new(Vec::new()),
            flows_enabled: true,
            flows_dropped: AtomicU64::new(0),
        });
        (fabric, peer)
    }

    /// Wires a socketpair end into the peer slot and spawns its reader
    /// under epoch 0, returning the join handle.
    fn wire_up(
        fabric: &Arc<Fabric>,
        peer: &Arc<Peer>,
        stream: UnixStream,
    ) -> std::thread::JoinHandle<()> {
        *peer.conn.lock().unwrap() = Some(stream.try_clone().unwrap());
        peer.alive.store(true, Ordering::Release);
        peer.last_heard_ms.store(fabric.now_ms(), Ordering::Relaxed);
        let (f, p) = (Arc::clone(fabric), Arc::clone(peer));
        std::thread::spawn(move || reader_loop(f, p, stream, 0))
    }

    /// Whether two blocks hold the same words, bit for bit.
    fn same_bits(a: &[Vec3], b: &[Vec3]) -> bool {
        let bits = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
    }

    fn test_link(fabric: &Arc<Fabric>) -> ProcLink {
        ProcLink {
            shard: 0,
            fabric: Arc::clone(fabric),
            pe_owner: vec![0, 1],
            params: LinkParams {
                t_l: 0.0,
                t_w: 0.0,
                measured: false,
            },
            kill_at: None,
        }
    }

    #[test]
    fn reader_delivers_remote_ghost_blocks_into_the_mailbox() {
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        let (fabric, peer) = test_fabric(WireFaultPlan::none());
        let h = wire_up(&fabric, &peer, theirs);
        let block = [Vec3::new(1.5, -2.5, 3.5), Vec3::new(0.25, 0.5, 0.75)];
        let payload = encode_ghost(3, 0, 1, &block);
        write_frame(&mut ours, FrameKind::Ghost, &payload).unwrap();
        let mut out = [Vec3::ZERO; 2];
        fabric.mailbox.acquire(3, 0, 1, &mut out).unwrap();
        assert!(same_bits(&out, &block));
        assert!(peer.alive.load(Ordering::Acquire));
        write_frame(&mut ours, FrameKind::Bye, &[]).unwrap();
        h.join().unwrap();
        // An orderly Bye leaves posted blocks acquirable.
        assert!(peer.alive.load(Ordering::Acquire));
        assert!(peer.done.load(Ordering::Acquire));
        assert!(fabric.mailbox.acquire(3, 0, 1, &mut out).is_ok());
    }

    #[test]
    fn checksum_mismatch_triggers_resend_and_stream_stays_framed() {
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        let (fabric, peer) = test_fabric(WireFaultPlan::none());
        let h = wire_up(&fabric, &peer, theirs);
        let block = [Vec3::new(9.0, 8.0, 7.0), Vec3::new(6.0, 5.0, 4.0)];
        let payload = encode_ghost(0, 0, 1, &block);
        // Corrupt one payload byte after framing: the frame checksum now
        // mismatches but the length prefix keeps the stream in sync.
        let mut bytes = frame::encode(FrameKind::Ghost, &payload);
        let flip = frame::HEADER_LEN + payload.len() / 2;
        bytes[flip] ^= 0xff;
        use std::io::Write as _;
        ours.write_all(&bytes).unwrap();
        // The reader must answer with a Resend request...
        let f = read_frame(&mut ours).unwrap();
        assert_eq!(f.kind, FrameKind::Resend);
        // ...and accept the clean replay on the still-framed stream.
        write_frame(&mut ours, FrameKind::Ghost, &payload).unwrap();
        let mut out = [Vec3::ZERO; 2];
        fabric.mailbox.acquire(0, 0, 1, &mut out).unwrap();
        assert!(same_bits(&out, &block));
        drop(ours);
        h.join().unwrap();
    }

    #[test]
    fn peer_resends_its_cache_on_request() {
        // Post through a minimal ProcLink, then ask for a resend.
        let (ours, theirs) = UnixStream::pair().unwrap();
        let (fabric, peer) = test_fabric(WireFaultPlan::none());
        let reader = wire_up(&fabric, &peer, theirs);
        let link = test_link(&fabric);
        let block = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        link.post(5, 0, 1, &block).unwrap();
        let mut ours_r = ours.try_clone().unwrap();
        let f = read_frame(&mut ours_r).unwrap();
        assert_eq!(f.kind, FrameKind::Ghost);
        // Simulate a receiver that lost the frame: request a resend.
        let mut ours_w = ours;
        write_frame(&mut ours_w, FrameKind::Resend, &[]).unwrap();
        let f = read_frame(&mut ours_r).unwrap();
        assert_eq!(f.kind, FrameKind::Ghost);
        let g = decode_ghost(&f.payload).unwrap();
        assert_eq!(g.step, 5);
        assert_eq!((g.from, g.to), (0, 1));
        assert_eq!(g.block[1].y.to_bits(), block[1].y.to_bits());
        assert_eq!(fabric.ledger(|l| l.wire_resends), 1);
        // Typed errors on bad posts, never panics.
        assert!(matches!(
            link.post(5, 0, 1, &block[..1]),
            Err(TransportError::LengthMismatch { .. })
        ));
        assert!(matches!(
            link.post(5, 0, 9, &block),
            Err(TransportError::UnknownEdge { .. })
        ));
        drop(ours_w);
        drop(ours_r);
        reader.join().unwrap();
    }

    #[test]
    fn dead_peer_turns_acquires_into_typed_disconnects() {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let (fabric, peer) = test_fabric(WireFaultPlan::none());
        let h = wire_up(&fabric, &peer, theirs);
        let link = test_link(&fabric);
        drop(ours); // peer dies without Bye
        h.join().unwrap();
        let mut out = [Vec3::ZERO; 2];
        assert_eq!(
            link.acquire(0, 1, 0, &mut out).unwrap_err(),
            TransportError::PeerDisconnected { shard: 1 }
        );
    }

    #[test]
    fn injected_wire_damage_is_resent_and_the_ledger_balances() {
        // A hot plan (rate 0.9) over a legacy fabric: resets and stalls
        // fall through to clean sends (they need the respawn machinery),
        // so every injection is a delay, a corruption or a truncation —
        // all recoverable on a bare socketpair via Resend + replay.
        let (ours, theirs) = UnixStream::pair().unwrap();
        let (fabric, peer) = test_fabric(WireFaultPlan::uniform(7, 0.9));
        let reader = wire_up(&fabric, &peer, theirs);
        let link = test_link(&fabric);
        let block = [Vec3::new(2.0, 4.0, 8.0), Vec3::new(1.0, 3.0, 9.0)];
        for step in 0..40u64 {
            link.post(step, 0, 1, &block).unwrap();
        }
        let injected = fabric.ledger(|l| l.wire_injected);
        assert!(injected.total() > 0, "a 0.9 plan over 40 frames injects");
        assert!(
            injected.corrupt + injected.truncate > 0,
            "damage kinds sampled"
        );
        assert_eq!(injected.reset + injected.stall, 0, "gated off respawn");
        // Far side: drain ghosts, answer every mismatch with Resend,
        // until the injector's books settle.
        ours.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut ours_r = ours.try_clone().unwrap();
        let mut ours_w = ours;
        let settle = Instant::now() + Duration::from_secs(10);
        loop {
            match read_frame(&mut ours_r) {
                Ok(_) => {}
                Err(FrameError::ChecksumMismatch { .. }) => {
                    write_frame(&mut ours_w, FrameKind::Resend, &[]).unwrap();
                }
                Err(FrameError::TimedOut) | Err(FrameError::Io(_)) => {
                    let l = fabric.ledger(|l| *l);
                    if l.wire_detected.total() == l.wire_injected.total() {
                        break;
                    }
                    assert!(Instant::now() < settle, "ledger never balanced: {l:?}");
                }
                Err(e) => panic!("far side lost framing: {e}"),
            }
        }
        let l = fabric.ledger(|l| *l);
        assert!(l.balanced(), "wire triple balances: {l:?}");
        assert_eq!(l.wire_detected.total(), l.wire_injected.total());
        assert_eq!(l.wire_recovered.total(), l.wire_injected.total());
        assert!(
            l.wire_resends >= l.wire_injected.corrupt + l.wire_injected.truncate,
            "every damaged frame drew a Resend"
        );
        drop(ours_w);
        drop(ours_r);
        reader.join().unwrap();
    }

    /// A four-shard, two-node fabric seen from shard 0 (leader of node 0
    /// = shards {0, 1}; node 1 = shards {2, 3}, led by shard 2). One PE
    /// per shard; peers 1..=3 are bare socketpair ends.
    fn relay_edges() -> Vec<GhostEdge> {
        vec![
            GhostEdge {
                from: 0,
                to: 2,
                len: 2,
            },
            GhostEdge {
                from: 1,
                to: 2,
                len: 1,
            },
            GhostEdge {
                from: 2,
                to: 0,
                len: 2,
            },
            GhostEdge {
                from: 2,
                to: 1,
                len: 1,
            },
        ]
    }

    fn relay_fabric() -> (Arc<Fabric>, Vec<Arc<Peer>>) {
        let edges = relay_edges();
        let mailbox = Arc::new(Mailbox::new(&edges, Duration::from_secs(2)));
        let map: Arc<EdgeMap> = Arc::new(
            edges
                .iter()
                .enumerate()
                .map(|(i, e)| ((e.from, e.to), (i, e.len)))
                .collect(),
        );
        let peers: Vec<Arc<Peer>> = (1..4).map(|j| Arc::new(Peer::new(j))).collect();
        let relay = NodeRelay::build(0, 4, 4, 2, &edges).expect("two-node topology");
        assert_eq!(relay.node, 0);
        assert_eq!(relay.leader, 0);
        assert_eq!(relay.leaders, vec![0, 2]);
        let fabric = Arc::new(Fabric {
            id: 0,
            dir: std::env::temp_dir(),
            conn_timeout: Duration::from_secs(2),
            respawn: false,
            restart_budget: 0,
            plan: WireFaultPlan::none(),
            origin: Instant::now(),
            wire: Mutex::new(FaultReport::default()),
            parent: None,
            stall_used: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            peers: std::iter::once(None)
                .chain(peers.iter().map(|p| Some(Arc::clone(p))))
                .collect(),
            mailbox,
            edges: map,
            relay: Some(relay),
            wire_delay: None,
            flows: Mutex::new(Vec::new()),
            flows_enabled: false,
            flows_dropped: AtomicU64::new(0),
        });
        (fabric, peers)
    }

    #[test]
    fn leader_merges_contributions_into_one_batch_frame() {
        let (fabric, peers) = relay_fabric();
        let (leader2_ours, leader2_theirs) = UnixStream::pair().unwrap();
        let h = wire_up(&fabric, &peers[1], leader2_theirs);
        let link = ProcLink {
            shard: 0,
            fabric: Arc::clone(&fabric),
            pe_owner: vec![0, 1, 2, 3],
            params: LinkParams {
                t_l: 0.0,
                t_w: 0.0,
                measured: false,
            },
            kill_at: None,
        };
        // The leader's own cross-node edge stages but does not flush: the
        // merged (0 -> 1) block still misses PE 1's contribution.
        let b02 = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        link.post(5, 0, 2, &b02).unwrap();
        leader2_ours
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut rd = leader2_ours.try_clone().unwrap();
        assert!(
            matches!(read_frame(&mut rd), Err(FrameError::TimedOut)),
            "half-built merged block must not cross the node boundary"
        );
        // The member's contribution (as its reader thread would route it)
        // completes the manifest: exactly one GhostBatch crosses.
        let b12 = [Vec3::new(-7.0, 8.0, -9.0)];
        assert!(route_ghost(&fabric, 5, 1, 2, &b12));
        let f = read_frame(&mut rd).unwrap();
        assert_eq!(f.kind, FrameKind::GhostBatch);
        let subs = decode_ghost_batch(&f.payload).unwrap();
        assert_eq!(subs.len(), 2, "both riders in one frame");
        assert_eq!((subs[0].from, subs[0].to, subs[0].step), (0, 2, 5));
        assert_eq!((subs[1].from, subs[1].to, subs[1].step), (1, 2, 5));
        assert_eq!(subs[0].block[1].y.to_bits(), b02[1].y.to_bits());
        assert_eq!(subs[1].block[0].x.to_bits(), b12[0].x.to_bits());
        assert!(
            matches!(read_frame(&mut rd), Err(FrameError::TimedOut)),
            "exactly one frame per (node, node) pair per step"
        );
        // The merged frame sits in the replay cache under the batch key,
        // kind-tagged so a replay re-sends it as a batch.
        {
            let cache = peers[1].cache.lock().unwrap();
            let (kind, _) = cache.get(&(BATCH_KEY, 1)).expect("batch cached");
            assert_eq!(*kind, FrameKind::GhostBatch);
        }
        // A Resend replays it (and nothing of another kind) on request.
        let mut wr = leader2_ours.try_clone().unwrap();
        write_frame(&mut wr, FrameKind::Resend, &[]).unwrap();
        let f = read_frame(&mut rd).unwrap();
        assert_eq!(f.kind, FrameKind::GhostBatch);
        assert!(decode_ghost_batch(&f.payload).is_ok());
        drop(wr);
        drop(rd);
        drop(leader2_ours);
        h.join().unwrap();
    }

    #[test]
    fn inbound_merged_batches_scatter_to_mailbox_and_members() {
        let (fabric, peers) = relay_fabric();
        // Member 1's connection (to receive the forward)...
        let (member1_ours, member1_theirs) = UnixStream::pair().unwrap();
        let h1 = wire_up(&fabric, &peers[0], member1_theirs);
        // ...and remote leader 2's connection (to inject the batch).
        let (mut leader2_ours, leader2_theirs) = UnixStream::pair().unwrap();
        let h2 = wire_up(&fabric, &peers[1], leader2_theirs);
        let b20 = [Vec3::new(10.0, 20.0, 30.0), Vec3::new(40.0, 50.0, 60.0)];
        let b21 = [Vec3::new(-1.5, 2.5, -3.5)];
        let payload = encode_ghost_batch(&[(7, 2, 0, &b20[..]), (7, 2, 1, &b21[..])]);
        write_frame(&mut leader2_ours, FrameKind::GhostBatch, &payload).unwrap();
        // Our own PE's sub-block lands in the mailbox...
        let mut out = [Vec3::ZERO; 2];
        fabric.mailbox.acquire(7, 2, 0, &mut out).unwrap();
        assert!(same_bits(&out, &b20));
        // ...and the sibling member's rides a per-edge Ghost forward.
        member1_ours
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut rd = member1_ours.try_clone().unwrap();
        let f = read_frame(&mut rd).unwrap();
        assert_eq!(f.kind, FrameKind::Ghost);
        let g = decode_ghost(&f.payload).unwrap();
        assert_eq!((g.step, g.from, g.to), (7, 2, 1));
        assert_eq!(g.block[0].z.to_bits(), b21[0].z.to_bits());
        // The forward is cached on the member's connection for replay.
        {
            let cache = peers[0].cache.lock().unwrap();
            let (kind, _) = cache.get(&(2, 1)).expect("forward cached");
            assert_eq!(*kind, FrameKind::Ghost);
        }
        drop(rd);
        drop(member1_ours);
        drop(leader2_ours);
        h1.join().unwrap();
        h2.join().unwrap();
    }

    #[test]
    fn relay_reader_keeps_draining_after_a_bye() {
        // A remote leader's Bye can overtake the merged batch one of its
        // reader threads is still relaying: the batch must land all the
        // same, and the hang-up after the Bye is no connection failure.
        let (fabric, peers) = relay_fabric();
        let (mut leader2_ours, leader2_theirs) = UnixStream::pair().unwrap();
        let h = wire_up(&fabric, &peers[1], leader2_theirs);
        write_frame(&mut leader2_ours, FrameKind::Bye, &[]).unwrap();
        let b20 = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        let payload = encode_ghost_batch(&[(3, 2, 0, &b20[..])]);
        write_frame(&mut leader2_ours, FrameKind::GhostBatch, &payload).unwrap();
        let mut out = [Vec3::ZERO; 2];
        fabric
            .mailbox
            .acquire(3, 2, 0, &mut out)
            .expect("the batch behind the Bye is delivered");
        assert_eq!(out[1].y.to_bits(), b20[1].y.to_bits());
        drop(leader2_ours);
        h.join().unwrap();
        assert!(peers[1].done.load(Ordering::Acquire));
        assert!(peers[1].alive.load(Ordering::Acquire));
    }

    #[test]
    fn relay_topology_is_inert_for_flat_and_single_node_runs() {
        assert!(NodeRelay::build(0, 4, 4, 0, &relay_edges()).is_none());
        assert!(NodeRelay::build(0, 4, 1, 2, &relay_edges()).is_none());
        assert!(NodeRelay::build(0, 4, 2, 3, &relay_edges()).is_none());
        // nodes == 1: every cross-shard edge is intra-node, so leaders
        // have nothing to aggregate and posts stay direct.
        let relay = NodeRelay::build(1, 4, 4, 1, &relay_edges()).expect("one-node topology");
        assert_eq!(relay.node, 0);
        assert_eq!(relay.leader, 0);
        assert!(relay.expected.iter().all(|s| s.is_empty()));
        assert_eq!(relay.node_of_pe(3), Some(0));
    }

    #[test]
    fn damage_credits_survive_a_dying_connection() {
        // A corrupted frame whose Resend never comes back must still
        // settle when the connection dies: the drain-credit at conn_down
        // keeps the shard's ledger a full triple.
        let (ours, theirs) = UnixStream::pair().unwrap();
        let (fabric, peer) = test_fabric(WireFaultPlan::none());
        let h = wire_up(&fabric, &peer, theirs);
        push_damage(&peer, WireFaultKind::Corrupt { salt: 3 });
        fabric.ledger(|l| l.wire_injected.corrupt += 1);
        drop(ours); // the peer dies before requesting a resend
        h.join().unwrap();
        let l = fabric.ledger(|l| *l);
        assert!(l.balanced(), "drain-credit balanced the triple: {l:?}");
        assert_eq!(l.wire_detected.corrupt, 1);
        assert_eq!(l.wire_recovered.corrupt, 1);
    }
}
