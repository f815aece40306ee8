//! Pluggable ghost-block transport for the BSP executor.
//!
//! Every exchange the executor performs — barrier schedule or
//! latency-hiding overlap schedule, clean, traced or under chaos — moves
//! whole *ghost blocks* (one packed `Vec3` block per directed neighbor
//! edge per step). The [`Transport`] trait captures exactly that contract:
//! a sender **posts** the packed block for a directed edge, a receiver
//! **acquires** it (blocking until posted), and `shutdown` tears the
//! fabric down. A clean exchange moves the block and nothing else: blocks
//! can only fail on the proc backend's sockets, whose frame checksums,
//! resends, reconnects and respawns heal them below this trait. The
//! executor is written against this trait alone, so the same schedules,
//! PE-fault recovery and telemetry spans run unchanged over:
//!
//! * [`SharedTransport`] — the in-process path: per-edge double-buffered
//!   mailboxes in shared memory, synchronized by Release/Acquire flags.
//!   This is the pre-existing `WorkerPool` execution model with the ghost
//!   hand-off made explicit.
//! * [`NetsimTransport`] — the same mailboxes plus the netsim cost model:
//!   every acquired block is billed `T_l + words·T_w` against a preset
//!   [`Network`](quake_core::machine::Network), so a run reports what the
//!   paper's postal model *predicts* the exchange should have cost.
//! * [`proc::ProcLink`] — a real multi-process backend: shard processes
//!   connected by Unix-domain sockets, ghost blocks as length-prefixed
//!   frames ([`frame`]), and Eq. (2) parameters *measured* from socket
//!   ping/throughput microbenchmarks instead of presets.
//!
//! # Wait contract
//!
//! Every blocking acquire — on a shared-memory flag or a socket-fed
//! mailbox slot — escalates identically: a short spin catches the
//! cache-hot hand-off, a few yields catch a runnable producer, then
//! exponentially growing sleeps (5 µs doubling to a 160 µs cap) take the
//! waiter off the runqueue. [`wait_action`] is that schedule as a pure
//! function, shared by every backend and unit-tested directly, so the
//! socket path provably mirrors the shared-memory path's spin→yield→sleep
//! contract.
//!
//! # Step parity and replay
//!
//! Mailbox slots are double-buffered by step parity: step `s` lands in
//! slot `s % 2`. A sender is never more than one step ahead of a receiver
//! on the same edge (its own acquire of step `s` gates its post of
//! `s + 2`), so a slot is never overwritten before its reader is done.
//! Posted flags advance monotonically (`fetch_max`), which makes proc shard
//! respawn safe: the respawned child replays to the current step from the
//! spec, and its peers replay their resend caches to it. A replayed step
//! re-posts bitwise-identical blocks (each SMVP step is a pure function of
//! the run's constant `x`) and never regresses a flag a reader already
//! observed.

use quake_core::machine::Network;
use quake_core::model::maxrate;
use quake_sparse::dense::Vec3;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod frame;
pub mod proc;
pub mod run;
pub mod wire;

/// Which transport fabric carries the ghost blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process shared-memory mailboxes (the `WorkerPool` path).
    Shared,
    /// Shared mailboxes plus the netsim postal-model cost accounting.
    Netsim,
    /// Shard processes over Unix-domain sockets.
    Proc,
}

impl TransportKind {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Shared => "shared",
            TransportKind::Netsim => "netsim",
            TransportKind::Proc => "proc",
        }
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "shared" => Ok(TransportKind::Shared),
            "netsim" => Ok(TransportKind::Netsim),
            "proc" => Ok(TransportKind::Proc),
            other => Err(format!("unknown transport '{other}'")),
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors surfaced by a transport backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No such directed edge in the exchange schedule.
    UnknownEdge {
        /// Sending PE.
        from: usize,
        /// Receiving PE.
        to: usize,
    },
    /// The posted block's length does not match the edge schedule.
    LengthMismatch {
        /// Expected `Vec3` count.
        expected: usize,
        /// Offered `Vec3` count.
        got: usize,
    },
    /// An acquire exceeded its deadline with the peer still alive.
    Timeout {
        /// Sending PE waited on.
        from: usize,
        /// Receiving PE.
        to: usize,
        /// Step waited for.
        step: u64,
        /// Time spent waiting.
        waited: Duration,
    },
    /// The peer process owning the sender side died or closed its socket.
    PeerDisconnected {
        /// The dead peer's shard id.
        shard: usize,
    },
    /// The peer held its connection open but stayed silent past every
    /// deadline and degraded-wait round — hung, not slow. Raised only
    /// after the heartbeat layer stopped hearing from it and the
    /// supervisor was given the chance to respawn it.
    PeerSuspect {
        /// The suspect peer's shard id.
        shard: usize,
        /// How long the peer has been silent.
        silent: Duration,
    },
    /// A malformed frame on the wire (see [`frame::FrameError`]).
    Frame(frame::FrameError),
    /// A socket-level I/O failure.
    Io(String),
    /// The peer violated the bootstrap/result protocol.
    Protocol(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownEdge { from, to } => {
                write!(f, "no ghost edge {from} -> {to} in the exchange schedule")
            }
            TransportError::LengthMismatch { expected, got } => {
                write!(f, "ghost block length {got} != scheduled {expected}")
            }
            TransportError::Timeout {
                from,
                to,
                step,
                waited,
            } => write!(
                f,
                "acquire of edge {from} -> {to} timed out after {:.3} s at step {step}",
                waited.as_secs_f64()
            ),
            TransportError::PeerDisconnected { shard } => {
                write!(f, "shard {shard} disconnected (peer process died)")
            }
            TransportError::PeerSuspect { shard, silent } => {
                write!(
                    f,
                    "shard {shard} suspected hung (silent for {:.3} s past every deadline)",
                    silent.as_secs_f64()
                )
            }
            TransportError::Frame(e) => write!(f, "frame error: {e}"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Protocol(e) => write!(f, "transport protocol error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<frame::FrameError> for TransportError {
    fn from(e: frame::FrameError) -> Self {
        TransportError::Frame(e)
    }
}

/// The postal-model parameters a transport runs at: Eq. (2)'s block
/// latency `T_l` and per-word time `T_w`, and whether they were measured
/// on the live fabric or taken from a preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Block latency, seconds.
    pub t_l: f64,
    /// Per-64-bit-word time, seconds.
    pub t_w: f64,
    /// `true` if measured by a microbenchmark on this run's fabric,
    /// `false` for a model preset (or the shared path's nominal zeros).
    pub measured: bool,
}

/// One directed edge of the ghost-exchange schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhostEdge {
    /// Sending PE.
    pub from: usize,
    /// Receiving PE.
    pub to: usize,
    /// Block length in `Vec3` entries (3 words each).
    pub len: usize,
}

/// The directed ghost-edge schedule of a distributed system, in the
/// canonical order both ends of every transport agree on.
pub fn ghost_edges(system: &crate::distributed::DistributedSystem) -> Vec<GhostEdge> {
    let mut edges = Vec::new();
    for ex in system.exchanges() {
        edges.push(GhostEdge {
            from: ex.b,
            to: ex.a,
            len: ex.pairs.len(),
        });
        edges.push(GhostEdge {
            from: ex.a,
            to: ex.b,
            len: ex.pairs.len(),
        });
    }
    edges
}

/// The PE → node map of a node-aware two-level exchange: PEs sharing a
/// node gather their boundary partials locally and exactly one merged
/// block per (node, node) pair crosses the slow inter-node link. `None`
/// at the call sites means flat — every PE is its own injection port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMap {
    nodes: usize,
    of: Vec<usize>,
}

impl NodeMap {
    /// A map from an explicit per-PE node vector.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is zero or any entry is out of range.
    pub fn new(nodes: usize, of: Vec<usize>) -> Self {
        assert!(nodes >= 1, "need at least one node");
        assert!(
            of.iter().all(|&n| n < nodes),
            "node index out of {nodes} nodes"
        );
        NodeMap { nodes, of }
    }

    /// The canonical map every backend agrees on: `parts` PEs chunk
    /// contiguously into `shards` shard slices (the proc backend's
    /// process boundaries) and shards chunk contiguously into `nodes`
    /// nodes, both under [`maxrate::node_of`]'s balanced chunking. The
    /// unsharded backends use the same `shards` value from the spec, so
    /// which PEs share an injection port never depends on the fabric.
    pub fn for_shards(parts: usize, shards: usize, nodes: usize) -> Self {
        let of = (0..parts)
            .map(|q| {
                let shard = maxrate::node_of(parts, shards, q);
                maxrate::node_of(shards, nodes, shard)
            })
            .collect();
        NodeMap { nodes, of }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of mapped PEs.
    pub fn pes(&self) -> usize {
        self.of.len()
    }

    /// The node owning PE `pe`.
    pub fn node_of(&self, pe: usize) -> usize {
        self.of[pe]
    }

    /// Whether two PEs share a node (and thus the fast intra-node path).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.of[a] == self.of[b]
    }
}

/// A transport carrying ghost blocks between PEs. Methods take `&self`:
/// pool workers post and acquire concurrently, so implementations use
/// interior mutability with per-edge single-writer discipline.
pub trait Transport: Send + Sync {
    /// Which fabric this is.
    fn kind(&self) -> TransportKind;

    /// Publishes the packed ghost block for directed edge `from -> to` at
    /// `step`. The block must match the edge's scheduled length.
    fn post(&self, step: u64, from: usize, to: usize, block: &[Vec3])
        -> Result<(), TransportError>;

    /// Blocks until the `from -> to` block for `step` is posted, then
    /// copies it into `out` and returns the seconds spent blocked (0.0
    /// when it was already up).
    fn acquire(
        &self,
        step: u64,
        from: usize,
        to: usize,
        out: &mut [Vec3],
    ) -> Result<f64, TransportError>;

    /// The Eq. (2) parameters this fabric runs at.
    fn link(&self) -> LinkParams;

    /// Tears the fabric down (closes sockets, reaps peers). Idempotent.
    fn shutdown(&self) -> Result<(), TransportError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The shared wait contract.
// ---------------------------------------------------------------------------

/// What a blocked acquire does on its `round`-th failed poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitAction {
    /// Busy-spin (`spin_loop` hint) — the cache-hot hand-off window.
    Spin,
    /// `yield_now` — give a runnable producer the core.
    Yield,
    /// Sleep for the given duration — off the runqueue entirely.
    Sleep(Duration),
}

/// The escalation schedule every transport wait follows: spin for rounds
/// `0..128`, yield for `128..144`, then exponential sleeps starting at
/// 5 µs and doubling to a 160 µs cap. This is the executor's historical
/// `wait_for_post` contract, extracted so the socket backend provably
/// runs the same policy as the shared-memory flags.
pub fn wait_action(round: u32) -> WaitAction {
    if round < 128 {
        WaitAction::Spin
    } else if round < 144 {
        WaitAction::Yield
    } else {
        let exp = (round - 144).min(5);
        WaitAction::Sleep(Duration::from_micros(5 << exp))
    }
}

/// Polls `ready` under the [`wait_action`] escalation schedule until it
/// returns `true` (Ok: seconds waited) or `deadline` elapses (Err:
/// seconds waited). The deadline is only checked once the wait has
/// escalated past the spin phase, so the hot path stays clock-free.
pub fn escalating_wait(deadline: Duration, mut ready: impl FnMut() -> bool) -> Result<f64, f64> {
    if ready() {
        return Ok(0.0);
    }
    let t0 = Instant::now();
    let mut round = 0u32;
    while !ready() {
        match wait_action(round) {
            WaitAction::Spin => std::hint::spin_loop(),
            WaitAction::Yield => std::thread::yield_now(),
            WaitAction::Sleep(d) => {
                if t0.elapsed() >= deadline {
                    return Err(t0.elapsed().as_secs_f64());
                }
                std::thread::sleep(d);
            }
        }
        round += 1;
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// The default acquire deadline, overridable (milliseconds) through
/// `QUAKE_TRANSPORT_TIMEOUT_MS` — tests shrink it to exercise the
/// timeout path without waiting half a minute.
pub fn default_timeout() -> Duration {
    std::env::var("QUAKE_TRANSPORT_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(30))
}

// ---------------------------------------------------------------------------
// The double-buffered mailbox shared by the in-process backends (and the
// proc backend's local + socket-fed slots).
// ---------------------------------------------------------------------------

/// One directed edge's mailbox: two step-parity slots, each a fixed-size
/// block buffer plus a monotonic posted flag (`step + 1` of the newest
/// block in the slot).
struct Slot {
    posted: [AtomicU64; 2],
    buf: [UnsafeCell<Vec<Vec3>>; 2],
}

/// Per-edge double-buffered ghost mailboxes. Single-writer per edge (the
/// owning sender PE's worker, or the one socket reader thread that feeds
/// the edge); readers are gated by the slot's Acquire-loaded posted flag,
/// which the writer stores with Release ordering after filling the
/// buffer — a reader that observes `posted >= step + 1` therefore also
/// observes the block bytes.
pub(crate) struct Mailbox {
    slots: Vec<Slot>,
    index: HashMap<(usize, usize), usize>,
    lens: Vec<usize>,
    timeout: Duration,
}

// SAFETY: see the struct docs — the UnsafeCell buffers follow a
// single-writer, flag-gated protocol.
unsafe impl Sync for Mailbox {}
unsafe impl Send for Mailbox {}

impl Mailbox {
    pub(crate) fn new(edges: &[GhostEdge], timeout: Duration) -> Self {
        let mut index = HashMap::with_capacity(edges.len());
        let mut slots = Vec::with_capacity(edges.len());
        let mut lens = Vec::with_capacity(edges.len());
        for (i, e) in edges.iter().enumerate() {
            index.insert((e.from, e.to), i);
            slots.push(Slot {
                posted: [AtomicU64::new(0), AtomicU64::new(0)],
                buf: [
                    UnsafeCell::new(vec![Vec3::ZERO; e.len]),
                    UnsafeCell::new(vec![Vec3::ZERO; e.len]),
                ],
            });
            lens.push(e.len);
        }
        Mailbox {
            slots,
            index,
            lens,
            timeout,
        }
    }

    fn edge(&self, from: usize, to: usize) -> Result<usize, TransportError> {
        self.index
            .get(&(from, to))
            .copied()
            .ok_or(TransportError::UnknownEdge { from, to })
    }

    pub(crate) fn post(
        &self,
        step: u64,
        from: usize,
        to: usize,
        block: &[Vec3],
    ) -> Result<(), TransportError> {
        let i = self.edge(from, to)?;
        if block.len() != self.lens[i] {
            return Err(TransportError::LengthMismatch {
                expected: self.lens[i],
                got: block.len(),
            });
        }
        self.deliver(i, step, block);
        Ok(())
    }

    /// Writes a block into the edge's parity slot and raises the posted
    /// flag. Used by `post` and by the proc backend's socket reader
    /// threads.
    pub(crate) fn deliver(&self, edge: usize, step: u64, block: &[Vec3]) {
        let slot = &self.slots[edge];
        let parity = (step % 2) as usize;
        // A delivery that skips ahead of everything this mailbox has seen
        // (a peer's cache replay into a freshly respawned shard, which
        // carries only the newest step per edge) must satisfy acquires of
        // *both* parities: by the constant-x replay invariant the bytes
        // are valid for every step, so mirror them into the other slot.
        let newest = slot.posted[0]
            .load(Ordering::Acquire)
            .max(slot.posted[1].load(Ordering::Acquire));
        // SAFETY: single writer per edge; readers are gated by `posted`.
        unsafe {
            (*slot.buf[parity].get()).copy_from_slice(block);
        }
        // Monotonic: a replayed (older) step never regresses the flag, and
        // its bytes are identical by the constant-x replay invariant.
        slot.posted[parity].fetch_max(step + 1, Ordering::Release);
        if step > newest {
            let other = parity ^ 1;
            // SAFETY: same single-writer protocol as above.
            unsafe {
                (*slot.buf[other].get()).copy_from_slice(block);
            }
            // `step` is exactly "step - 1, the other parity, plus one".
            slot.posted[other].fetch_max(step, Ordering::Release);
        }
    }

    pub(crate) fn acquire(
        &self,
        step: u64,
        from: usize,
        to: usize,
        out: &mut [Vec3],
    ) -> Result<f64, TransportError> {
        self.acquire_watch(step, from, to, out, || true)
    }

    /// `acquire`, aborting early (PeerDisconnected is diagnosed by the
    /// caller) when `alive` turns false.
    pub(crate) fn acquire_watch(
        &self,
        step: u64,
        from: usize,
        to: usize,
        out: &mut [Vec3],
        mut alive: impl FnMut() -> bool,
    ) -> Result<f64, TransportError> {
        let i = self.edge(from, to)?;
        if out.len() != self.lens[i] {
            return Err(TransportError::LengthMismatch {
                expected: self.lens[i],
                got: out.len(),
            });
        }
        let slot = &self.slots[i];
        let parity = (step % 2) as usize;
        let flag = &slot.posted[parity];
        let mut dead = false;
        let waited_s = escalating_wait(self.timeout, || {
            if flag.load(Ordering::Acquire) > step {
                return true;
            }
            if !alive() {
                dead = true;
                return true;
            }
            false
        })
        .map_err(|waited| TransportError::Timeout {
            from,
            to,
            step,
            waited: Duration::from_secs_f64(waited),
        })?;
        if dead && flag.load(Ordering::Acquire) < step + 1 {
            return Err(TransportError::PeerDisconnected { shard: usize::MAX });
        }
        // SAFETY: the Acquire load above pairs with the writer's Release
        // store; the writer will not touch this parity slot again before
        // our own step-parity progression allows it.
        unsafe {
            out.copy_from_slice(&*slot.buf[parity].get());
        }
        Ok(waited_s)
    }

    /// Merged-arrival acquire for node-aggregated fabrics: the cross-node
    /// block travels as one unit per (node, node) pair, so the acquire is
    /// gated on *every* edge of its group being posted for `step` before
    /// this edge's slot is copied out. Data and counters are untouched —
    /// only the wait semantics model the aggregation.
    ///
    /// Deadlock-free because the executor's exchange posts all outbound
    /// edges before acquiring any inbound one, and posting never blocks.
    pub(crate) fn acquire_group(
        &self,
        step: u64,
        from: usize,
        to: usize,
        out: &mut [Vec3],
        group: &[usize],
    ) -> Result<f64, TransportError> {
        let i = self.edge(from, to)?;
        if out.len() != self.lens[i] {
            return Err(TransportError::LengthMismatch {
                expected: self.lens[i],
                got: out.len(),
            });
        }
        let parity = (step % 2) as usize;
        let waited_s = escalating_wait(self.timeout, || {
            group
                .iter()
                .all(|&g| self.slots[g].posted[parity].load(Ordering::Acquire) > step)
        })
        .map_err(|waited| TransportError::Timeout {
            from,
            to,
            step,
            waited: Duration::from_secs_f64(waited),
        })?;
        let slot = &self.slots[i];
        // SAFETY: the group's Acquire loads pair with each writer's
        // Release store; our own edge's flag is among them.
        unsafe {
            out.copy_from_slice(&*slot.buf[parity].get());
        }
        Ok(waited_s)
    }
}

/// The directed (node, node) merged-arrival groups of an edge schedule:
/// `groups[i]` holds every edge index riding the same cross-node merged
/// block as edge `i`, or `None` for intra-node edges.
fn edge_groups(edges: &[GhostEdge], map: &NodeMap) -> Vec<Option<Arc<Vec<usize>>>> {
    let mut by_pair: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for (i, e) in edges.iter().enumerate() {
        let (a, b) = (map.node_of(e.from), map.node_of(e.to));
        if a != b {
            by_pair.entry((a, b)).or_default().push(i);
        }
    }
    let by_pair: HashMap<(usize, usize), Arc<Vec<usize>>> =
        by_pair.into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
    edges
        .iter()
        .map(|e| {
            let (a, b) = (map.node_of(e.from), map.node_of(e.to));
            (a != b).then(|| Arc::clone(&by_pair[&(a, b)]))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Backend (a): shared memory.
// ---------------------------------------------------------------------------

/// The in-process transport: ghost blocks cross PEs through shared-memory
/// mailboxes, the execution model the repo has always run.
///
/// With a [`NodeMap`], cross-node acquires are gated on the whole merged
/// (node, node) block being up (the hierarchical mailbox): PEs of one
/// node gather locally at full speed, while an inter-node block is only
/// observable once every edge riding it has been posted — the
/// shared-memory rendering of "one aggregated block crosses the slow
/// link". Data and counters are bitwise those of a flat run.
pub struct SharedTransport {
    mailbox: Mailbox,
    /// Per-edge merged-arrival group; `None` for intra-node (and all
    /// flat-run) edges.
    groups: Vec<Option<Arc<Vec<usize>>>>,
}

impl SharedTransport {
    /// A flat shared-memory fabric over the given edge schedule.
    pub fn new(edges: &[GhostEdge]) -> Self {
        SharedTransport {
            mailbox: Mailbox::new(edges, default_timeout()),
            groups: vec![None; edges.len()],
        }
    }

    /// A node-aggregated fabric: cross-node edges wait for their merged
    /// (node, node) block as one unit.
    pub fn with_nodes(edges: &[GhostEdge], map: &NodeMap) -> Self {
        SharedTransport {
            mailbox: Mailbox::new(edges, default_timeout()),
            groups: edge_groups(edges, map),
        }
    }
}

impl Transport for SharedTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Shared
    }

    fn post(
        &self,
        step: u64,
        from: usize,
        to: usize,
        block: &[Vec3],
    ) -> Result<(), TransportError> {
        self.mailbox.post(step, from, to, block)
    }

    fn acquire(
        &self,
        step: u64,
        from: usize,
        to: usize,
        out: &mut [Vec3],
    ) -> Result<f64, TransportError> {
        let i = self.mailbox.edge(from, to)?;
        match &self.groups[i] {
            Some(group) => self.mailbox.acquire_group(step, from, to, out, group),
            None => self.mailbox.acquire(step, from, to, out),
        }
    }

    fn link(&self) -> LinkParams {
        // Nominal: the shared path pays no modeled message cost.
        LinkParams {
            t_l: 0.0,
            t_w: 0.0,
            measured: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Backend (b): netsim cost model.
// ---------------------------------------------------------------------------

/// The netsim-model transport: data moves through the same shared
/// mailboxes (so outputs and counters are bitwise/exactly identical), and
/// every acquired block is additionally billed `T_l + words·T_w` against
/// a preset [`Network`] — the paper's postal model riding along with the
/// live run.
pub struct NetsimTransport {
    mailbox: Mailbox,
    network: Network,
    /// Modeled cost in nanoseconds per directed edge per step. Flat runs
    /// bill the postal model per block; node-aggregated runs bill
    /// intra-node edges at the fast local link and cross-node edges as
    /// their share of one merged (node, node) block — `T_l·w_e/W +
    /// w_e·T_w`, so the shares of a pair sum to exactly `T_l + W·T_w`.
    edge_cost_ns: Vec<u64>,
    /// Modeled exchange nanoseconds accumulated per receiving PE.
    modeled_ns: Vec<AtomicU64>,
}

impl NetsimTransport {
    /// A flat modeled fabric over the given edges with `pes` receiving
    /// PEs: every acquired block bills `T_l + words·T_w`.
    pub fn new(edges: &[GhostEdge], pes: usize, network: Network) -> Self {
        let edge_cost_ns = edges
            .iter()
            .map(|e| (network.block_transfer_time(3 * e.len as u64) * 1e9) as u64)
            .collect();
        NetsimTransport {
            mailbox: Mailbox::new(edges, default_timeout()),
            network,
            edge_cost_ns,
            modeled_ns: (0..pes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A node-aggregated modeled fabric with two-tier link billing:
    /// intra-node edges ride `local`, cross-node edges split one merged
    /// block per (node, node) pair over `network`.
    pub fn with_nodes(
        edges: &[GhostEdge],
        pes: usize,
        network: Network,
        local: Network,
        map: &NodeMap,
    ) -> Self {
        // Total merged words per directed (node, node) pair.
        let mut pair_words: HashMap<(usize, usize), u64> = HashMap::new();
        for e in edges {
            let (a, b) = (map.node_of(e.from), map.node_of(e.to));
            if a != b {
                *pair_words.entry((a, b)).or_default() += 3 * e.len as u64;
            }
        }
        let edge_cost_ns = edges
            .iter()
            .map(|e| {
                let (a, b) = (map.node_of(e.from), map.node_of(e.to));
                let words = 3 * e.len as u64;
                let cost_s = if a == b {
                    local.block_transfer_time(words)
                } else {
                    let total = pair_words[&(a, b)] as f64;
                    network.t_l * words as f64 / total + words as f64 * network.t_w
                };
                (cost_s * 1e9) as u64
            })
            .collect();
        NetsimTransport {
            mailbox: Mailbox::new(edges, default_timeout()),
            network,
            edge_cost_ns,
            modeled_ns: (0..pes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The preset network this model bills against.
    pub fn network(&self) -> Network {
        self.network
    }

    /// Modeled exchange seconds accumulated per PE (all steps).
    pub fn modeled_exchange_s(&self) -> Vec<f64> {
        self.modeled_ns
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed) as f64 / 1e9)
            .collect()
    }
}

impl Transport for NetsimTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Netsim
    }

    fn post(
        &self,
        step: u64,
        from: usize,
        to: usize,
        block: &[Vec3],
    ) -> Result<(), TransportError> {
        self.mailbox.post(step, from, to, block)
    }

    fn acquire(
        &self,
        step: u64,
        from: usize,
        to: usize,
        out: &mut [Vec3],
    ) -> Result<f64, TransportError> {
        let i = self.mailbox.edge(from, to)?;
        let waited_s = self.mailbox.acquire(step, from, to, out)?;
        if let Some(acc) = self.modeled_ns.get(to) {
            acc.fetch_add(self.edge_cost_ns[i], Ordering::Relaxed);
        }
        Ok(waited_s)
    }

    fn link(&self) -> LinkParams {
        LinkParams {
            t_l: self.network.t_l,
            t_w: self.network.t_w,
            measured: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges2() -> Vec<GhostEdge> {
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

    #[test]
    fn wait_action_contract_is_spin_yield_sleep() {
        for round in 0..128 {
            assert_eq!(wait_action(round), WaitAction::Spin, "round {round}");
        }
        for round in 128..144 {
            assert_eq!(wait_action(round), WaitAction::Yield, "round {round}");
        }
        // Exponential sleeps: 5 µs doubling to the 160 µs cap.
        for (i, want_us) in [(0u32, 5u64), (1, 10), (2, 20), (3, 40), (4, 80), (5, 160)] {
            assert_eq!(
                wait_action(144 + i),
                WaitAction::Sleep(Duration::from_micros(want_us))
            );
        }
        for round in [150, 200, 1_000_000] {
            assert_eq!(
                wait_action(round),
                WaitAction::Sleep(Duration::from_micros(160)),
                "sleep must stay capped at round {round}"
            );
        }
    }

    #[test]
    fn escalating_wait_returns_immediately_when_ready() {
        assert_eq!(escalating_wait(Duration::from_secs(1), || true), Ok(0.0));
    }

    #[test]
    fn escalating_wait_times_out_against_a_never_ready_condition() {
        let waited =
            escalating_wait(Duration::from_millis(5), || false).expect_err("must time out");
        assert!(waited >= 0.005, "reported wait {waited} below the deadline");
        assert!(waited < 5.0, "timeout took absurdly long: {waited}");
    }

    #[test]
    fn mailbox_round_trips_blocks_bitwise() {
        let mb = Mailbox::new(&edges2(), Duration::from_secs(1));
        let block = [Vec3::new(1.0, -0.0, 3.0), Vec3::new(-4.0, 0.5, 9.0)];
        mb.post(0, 0, 1, &block).unwrap();
        let mut out = [Vec3::ZERO; 2];
        assert_eq!(mb.acquire(0, 0, 1, &mut out).unwrap(), 0.0, "already up");
        for (got, want) in out.iter().zip(&block) {
            for (g, w) in [(got.x, want.x), (got.y, want.y), (got.z, want.z)] {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
        // Unknown edges and wrong lengths are typed errors, not panics.
        assert!(matches!(
            mb.post(0, 0, 7, &block),
            Err(TransportError::UnknownEdge { .. })
        ));
        assert!(matches!(
            mb.post(0, 0, 1, &block[..1]),
            Err(TransportError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn mailbox_acquire_times_out_when_nothing_is_posted() {
        let mb = Mailbox::new(&edges2(), Duration::from_millis(5));
        let mut out = [Vec3::ZERO; 2];
        let err = mb.acquire(3, 0, 1, &mut out).expect_err("nothing posted");
        let TransportError::Timeout {
            step: 3, waited, ..
        } = err
        else {
            panic!("expected a step-3 timeout, got {err:?}");
        };
        assert!(
            waited >= Duration::from_millis(5),
            "reported wait {waited:?} below the 5 ms deadline"
        );
        // Printed with ms precision, not truncated to whole seconds.
        let shown = format!("after {:.3} s", waited.as_secs_f64());
        assert!(err.to_string().contains(&shown), "{err}");
    }

    #[test]
    fn mailbox_parity_slots_hold_two_steps_in_flight() {
        let mb = Mailbox::new(&edges2(), Duration::from_secs(1));
        let b0 = [Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO];
        let b1 = [Vec3::new(2.0, 0.0, 0.0), Vec3::ZERO];
        mb.post(0, 0, 1, &b0).unwrap();
        mb.post(1, 0, 1, &b1).unwrap();
        let mut out = [Vec3::ZERO; 2];
        mb.acquire(0, 0, 1, &mut out).unwrap();
        assert_eq!(out[0].x, 1.0, "step 0 slot intact with step 1 posted");
        mb.acquire(1, 0, 1, &mut out).unwrap();
        assert_eq!(out[0].x, 2.0);
    }

    #[test]
    fn replayed_posts_never_regress_the_flag() {
        let mb = Mailbox::new(&edges2(), Duration::from_secs(1));
        let b = [Vec3::new(5.0, 5.0, 5.0), Vec3::ZERO];
        mb.post(4, 0, 1, &b).unwrap();
        // A late replayed re-post of step 2 (same parity) must not make
        // step 4 unacquirable.
        mb.post(2, 0, 1, &b).unwrap();
        let mut out = [Vec3::ZERO; 2];
        assert!(mb.acquire(4, 0, 1, &mut out).is_ok());
    }

    #[test]
    fn skip_ahead_deliveries_satisfy_both_parities() {
        // A respawned shard's fresh mailbox is fed by peer cache replay,
        // which carries only the newest step per edge. The replay must
        // unblock acquires of either parity, or the respawned shard would
        // deadlock replaying odd steps from an even-step cache entry.
        let mb = Mailbox::new(&edges2(), Duration::from_secs(1));
        let b = [Vec3::new(7.0, 8.0, 9.0), Vec3::ZERO];
        mb.deliver(0, 5, &b);
        let mut out = [Vec3::ZERO; 2];
        for step in 0..=5 {
            out[0] = Vec3::ZERO;
            mb.acquire(step, 0, 1, &mut out)
                .unwrap_or_else(|e| panic!("step {step} blocked: {e}"));
            assert_eq!(out[0].x.to_bits(), b[0].x.to_bits(), "step {step}");
        }
        // Steps past the replayed frontier still block.
        let mb2 = Mailbox::new(&edges2(), Duration::from_millis(5));
        mb2.deliver(0, 5, &b);
        assert!(matches!(
            mb2.acquire(6, 0, 1, &mut out),
            Err(TransportError::Timeout { .. })
        ));
    }

    #[test]
    fn netsim_transport_bills_the_postal_model() {
        let net = Network::cray_t3e();
        let t = NetsimTransport::new(&edges2(), 2, net);
        let block = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        t.post(0, 0, 1, &block).unwrap();
        let mut out = [Vec3::ZERO; 2];
        t.acquire(0, 0, 1, &mut out).unwrap();
        let modeled = t.modeled_exchange_s();
        let expect = net.block_transfer_time(6);
        assert!((modeled[1] - expect).abs() < 1e-9, "{modeled:?}");
        assert_eq!(modeled[0], 0.0);
        assert!(!t.link().measured, "presets are not measurements");
    }

    /// Three PEs, nodes {0,1} and {2}: two cross-node edges into PE 2,
    /// one back, plus an intra-node pair.
    fn edges3() -> Vec<GhostEdge> {
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
                from: 0,
                to: 1,
                len: 3,
            },
        ]
    }

    fn map3() -> NodeMap {
        NodeMap::new(2, vec![0, 0, 1])
    }

    #[test]
    fn node_map_for_shards_matches_shard_chunking() {
        // 10 PEs over 4 shards over 2 nodes: shards {0,1} are node 0.
        let m = NodeMap::for_shards(10, 4, 2);
        assert_eq!(m.nodes(), 2);
        assert_eq!(m.pes(), 10);
        for q in 0..10 {
            let shard = (0..4)
                .find(|&k| (10 * k / 4..10 * (k + 1) / 4).contains(&q))
                .unwrap();
            let node = if shard < 2 { 0 } else { 1 };
            assert_eq!(m.node_of(q), node, "pe {q} (shard {shard})");
        }
        assert!(m.same_node(0, 4));
        assert!(!m.same_node(4, 5));
        // One PE per node degenerates to the identity.
        let flat = NodeMap::for_shards(4, 4, 4);
        for q in 0..4 {
            assert_eq!(flat.node_of(q), q);
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn node_map_rejects_zero_nodes() {
        let _ = NodeMap::new(0, vec![]);
    }

    #[test]
    fn edge_groups_split_cross_from_intra() {
        let groups = edge_groups(&edges3(), &map3());
        // Edges 0 and 1 ride the same (0 -> 1) merged block.
        let g01 = groups[0].as_ref().expect("cross edge grouped");
        assert_eq!(g01.as_slice(), &[0, 1]);
        assert!(Arc::ptr_eq(g01, groups[1].as_ref().unwrap()));
        // Edge 2 is the lone (1 -> 0) block; edge 3 is intra-node.
        assert_eq!(groups[2].as_ref().unwrap().as_slice(), &[2]);
        assert!(groups[3].is_none());
    }

    #[test]
    fn grouped_acquire_waits_for_the_whole_merged_block() {
        let t = Arc::new(SharedTransport::with_nodes(&edges3(), &map3()));
        let b02 = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        let b12 = [Vec3::new(-7.0, 8.0, -9.0)];
        t.post(0, 0, 2, &b02).unwrap();
        // Only half the merged block is up: the acquire must keep
        // blocking until the straggler edge posts.
        let t2 = Arc::clone(&t);
        let poster = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            t2.post(0, 1, 2, &b12).unwrap();
        });
        let mut out = [Vec3::ZERO; 2];
        let waited = t.acquire(0, 0, 2, &mut out).unwrap();
        poster.join().unwrap();
        assert!(
            waited >= 0.02,
            "acquire returned before the merged block was whole (waited {waited} s)"
        );
        // Data are the flat run's, bit for bit.
        assert_eq!(out[1].z.to_bits(), b02[1].z.to_bits());
        // The second rider of the now-complete block returns immediately.
        let mut out1 = [Vec3::ZERO; 1];
        assert_eq!(t.acquire(0, 1, 2, &mut out1).unwrap(), 0.0);
        assert_eq!(out1[0].x.to_bits(), b12[0].x.to_bits());
        // Intra-node edges never gate on the cross-node group.
        let b01 = [Vec3::ZERO; 3];
        t.post(0, 0, 1, &b01).unwrap();
        let mut out01 = [Vec3::ZERO; 3];
        assert_eq!(t.acquire(0, 0, 1, &mut out01).unwrap(), 0.0);
    }

    #[test]
    fn netsim_two_tier_billing_sums_to_one_merged_block() {
        let slow = Network {
            name: "slow",
            t_l: 20e-6,
            t_w: 50e-9,
        };
        let fast = Network {
            name: "fast",
            t_l: 2e-6,
            t_w: 5e-9,
        };
        let t = NetsimTransport::with_nodes(&edges3(), 3, slow, fast, &map3());
        let b02 = [Vec3::ZERO; 2];
        let b12 = [Vec3::ZERO; 1];
        let b01 = [Vec3::ZERO; 3];
        t.post(0, 0, 2, &b02).unwrap();
        t.post(0, 1, 2, &b12).unwrap();
        t.post(0, 0, 1, &b01).unwrap();
        let mut o2 = [Vec3::ZERO; 2];
        let mut o1 = [Vec3::ZERO; 1];
        let mut o3 = [Vec3::ZERO; 3];
        t.acquire(0, 0, 2, &mut o2).unwrap();
        t.acquire(0, 1, 2, &mut o1).unwrap();
        t.acquire(0, 0, 1, &mut o3).unwrap();
        let modeled = t.modeled_exchange_s();
        // PE 2 drained one merged block of 6 + 3 = 9 words: exactly one
        // slow latency plus nine slow word times, not two latencies.
        let merged = slow.t_l + 9.0 * slow.t_w;
        assert!(
            (modeled[2] - merged).abs() < 2e-9,
            "merged billing {} != {merged}",
            modeled[2]
        );
        // PE 1's inbound edge is intra-node: fast-link postal cost.
        let intra = fast.t_l + 9.0 * fast.t_w;
        assert!(
            (modeled[1] - intra).abs() < 2e-9,
            "intra billing {} != {intra}",
            modeled[1]
        );
        // A flat fabric over the same edges pays two slow latencies in.
        let flat = NetsimTransport::new(&edges3(), 3, slow);
        flat.post(0, 0, 2, &b02).unwrap();
        flat.post(0, 1, 2, &b12).unwrap();
        flat.acquire(0, 0, 2, &mut o2).unwrap();
        flat.acquire(0, 1, 2, &mut o1).unwrap();
        let flat_cost = flat.modeled_exchange_s()[2];
        assert!(
            flat_cost > modeled[2] + slow.t_l * 0.9,
            "aggregation must shave a whole block latency: flat {flat_cost}, merged {}",
            modeled[2]
        );
    }

    #[test]
    fn shared_transport_acquires_a_private_copy() {
        let t = SharedTransport::new(&edges2());
        let block = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        t.post(7, 1, 0, &block).unwrap();
        let mut out = [Vec3::ZERO; 2];
        t.acquire(7, 1, 0, &mut out).unwrap();
        assert_eq!(out[0].x.to_bits(), block[0].x.to_bits());
        // The receiver owns its copy: changing it leaves the posted block
        // intact for the next acquire of the same step.
        out[0].x = -out[0].x;
        let mut again = [Vec3::ZERO; 2];
        t.acquire(7, 1, 0, &mut again).unwrap();
        assert_eq!(again[0].x.to_bits(), block[0].x.to_bits());
        assert_ne!(again[0].x.to_bits(), out[0].x.to_bits());
    }
}
