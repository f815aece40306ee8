//! Instrumented bulk-synchronous SMVP executor.
//!
//! [`DistributedSystem::smvp`](crate::distributed::DistributedSystem::smvp)
//! models the paper's distributed product but runs serially and reports
//! nothing. [`BspExecutor`] runs the same assemble→compute→exchange→fold
//! phases over a persistent [`WorkerPool`] — PEs striped across workers,
//! with the pool's broadcast barrier and the transport's per-block waits
//! standing in for the machine's synchronization — and *measures* what
//! the characterization layer only *predicts*: per-PE flops, words and
//! blocks sent/received, per-phase wall times, and per-PE barrier wait.
//!
//! Observed `F_i`/`C_i`/`B_i` are counted from the data structures the
//! kernel actually traverses, so for a correct build they match
//! [`CommAnalysis`](quake_partition::comm::CommAnalysis) *exactly* — that
//! exact match (checked in tests and by `quake smvp-run`) is the executor's
//! reason to exist: it closes the loop between the paper's Figure 7
//! characterization and a live parallel execution, and its phase times feed
//! the Eq. (1)/(2) validation in `quake_core::model::validate`.
//!
//! # The local kernel and the one step body
//!
//! The SMVP is bound by data movement, so the executor streams as few
//! matrix bytes as it can. The layout follows the schedule. The barrier
//! schedules (natural or RCM order) keep each PE's stiffness as
//! [`SymTiles`]: the upper triangle only, each symmetric pair of blocks
//! streamed once. The overlap schedule keeps full [`Bcsr3Tiles`], because
//! its boundary-first rows keep an entry order a row-ordered scatter
//! cannot reproduce. Both run AVX where the CPU has it, and both give the
//! scalar microkernel's product bit for bit.
//!
//! The system already holds every PE's stiffness in half storage, and the
//! natural barrier schedule streams those matrices themselves: a plan
//! takes a reference, never a copy, so any number of executors built from
//! one system hold its matrices once. The RCM and overlap plans renumber
//! full rows. They expand one PE at a time ([`SymTiles::to_bcsr`], word
//! for word the assembled matrix), renumber it, build their own layout
//! and drop the expansion. RCM reads its block graph off the upper
//! triangle, so a PE the plan does not own is never expanded.
//!
//! Every step, whatever its schedule, tracing or fault mode, runs one body,
//! `run_step`, generic over a small hooks trait and monomorphized per mode.
//! Each worker runs three stages for the PEs it owns:
//!
//! 1. per PE: gather `x`, compute the *posted rows*, then pack and post
//!    them;
//! 2. under overlap only, per PE: compute the interior rows;
//! 3. per PE: acquire and apply the inbound blocks in schedule order, then
//!    fold the PE's nodes into `y`.
//!
//! The posted rows are all rows under the barrier schedule and the
//! boundary rows under overlap. Posting all its PEs before acquiring any
//! keeps the schedule deadlock-free however PEs are striped across workers
//! and shards. Each global node is folded by the first owned PE whose
//! gather holds it, precomputed at plan time, so workers write disjoint
//! parts of `y` and no serial fold remains. A clean or traced step is ONE
//! pool broadcast.
//!
//! Each stage boundary is stamped once into per-PE scratch, and one
//! billing pass turns the stamps into [`PeCounters`] and [`PhaseWalls`]:
//! the slowest worker's own assemble, compute and fold, with the rest of
//! the dispatch wall as exchange. The hooks add the rest: the clean hooks
//! are empty and compile away; the traced hooks time each fetch and record
//! spans, histograms and the drift feed from the same stamps and the same
//! bill, so a traced step is billed exactly like an untraced one; the
//! chaos hooks inject and heal PE faults (below).
//!
//! # Allocation-free steady state
//!
//! The paper's time loop repeats this product 6000 times, so the executor
//! owns every per-step buffer (`x_local`, kernel scratch, partials,
//! exchanged copies, timing scratch) and each [`BspExecutor::step_into`]
//! reuses them: after the first step nothing allocates, dispatch goes
//! through [`WorkerPool::broadcast`] (one shared closure per dispatch,
//! nothing boxed), and the measured phase walls reflect memory-system
//! behaviour instead of allocator traffic.
//! [`BspExecutor::buffer_fingerprint`] exposes buffer pointers/capacities
//! so tests can assert the steady state really is allocation-free.
//!
//! # RCM locality pre-pass
//!
//! [`BspExecutor::with_rcm`] renumbers each PE's local nodes with reverse
//! Cuthill–McKee before executing: the local stiffness is permuted
//! (`P K Pᵀ`), the gather list and exchange pair indices are remapped to
//! match, and everything downstream runs over the bandwidth-reduced
//! matrices. The permutation relabels rows within each PE, so flop and
//! communication counters are invariant — the `CommAnalysis` match stays
//! exact — while the `x[col]` gather of the compute phase touches a
//! compact window of the local vector (the paper's "irregular memory
//! reference" mitigation, executed rather than simulated).
//!
//! # Latency-hiding overlap
//!
//! [`BspExecutor::with_options`] can replace the strict compute→exchange
//! barrier with a latency-hiding schedule. At build time each PE's local
//! rows are split: a row is **boundary** if it appears in an exchange pair
//! (a neighbor consumes its partial), **interior** otherwise; a stable
//! boundary-first permutation makes the boundary rows contiguous at the
//! front without disturbing any row's entry order. At step time the
//! boundary rows are the posted rows: every worker computes and posts its
//! PEs' boundary rows, computes the interior rows while other workers are
//! still posting, then runs the exchange, blocking per inbound message
//! only until that sender's post lands. The interior SMVP is the work the
//! schedule hides the exchange latency behind — the paper's overlap
//! opportunity, executed rather than simulated — and
//! [`OverlapAnalysis`](quake_partition::comm::OverlapAnalysis) prices
//! exactly this schedule (`T_step = max(T_interior, T_exchange) +
//! T_boundary`). Because rows are independent, the permutation is
//! entry-order-stable, and inbound pairs apply in the barrier order, the
//! overlapped product is **bitwise-equal** to the barrier product and
//! every flop/word/block counter is unchanged, with or without faults
//! (asserted by the `overlap_equivalence` tests).
//!
//! # Fault injection & recovery
//!
//! [`BspExecutor::enable_faults`] arms a seeded
//! [`FaultPlan`](quake_core::fault::FaultPlan) and runs every step under the
//! chaos hooks. Its faults are PE faults: per-step, per-PE straggler
//! delays and PE crashes fire just before a PE's compute. A straggle is
//! absorbed by the step's barrier; a crashed PE is healed inside its own
//! step: each step is a pure function of `x`, so the caller thread re-runs
//! the crashed worker's compute before the exchange begins.
//!
//! Blocks fail only on the wire. The exchange moves each block through
//! `Transport::acquire` untouched on every backend; the proc transport's
//! socket layer injects and heals its own block faults (frame checksum,
//! resend, cache replay, reconnect, respawn) below the trait, where real
//! bytes travel. An in-process mailbox cannot lose or damage a block, so
//! the executor simulates no block fault.
//!
//! Chaos keeps exactly one barrier: it runs stages 1 and 2 without posting
//! in one dispatch, then posts, acquires, applies and folds in a second. In
//! a single dispatch a crashed worker's PEs would never post, so the
//! surviving workers would block in `acquire` until the transport deadline.
//! Splitting before the first post also means a re-run never posts a block
//! twice; it recomputes only the PEs whose compute had not finished. The
//! pool worker survives its panic, so no thread is replaced.
//!
//! Because every injected event is one-shot and every recovery re-executes
//! exactly the deterministic work the fault interrupted, a recovered run is
//! **bitwise-equal** to a fault-free run (asserted by the chaos tests).
//! A step is billed once, after it completes, so the accumulated
//! `F`/`C`/`B` counters stay exactly equal to the fault-free
//! characterization. With faults disabled the clean hooks run: zero
//! overhead, identical counters.

use crate::distributed::DistributedSystem;
use crate::transport::{ghost_edges, SharedTransport, Transport};
use quake_core::fault::{FaultKind, FaultPlan, FaultReport};
use quake_core::model::validate::MeasuredSmvp;
use quake_core::telemetry::{PhaseId, Span, Telemetry, TelemetryConfig, TraceInstant};
use quake_spark::pool::WorkerPool;
use quake_spark::tile_kernels::{bmv_sym_into, bmv_tiles_range_into};
use quake_sparse::dense::Vec3;
use quake_sparse::pattern::Pattern;
use quake_sparse::reorder::rcm;
use quake_sparse::tiles::{Bcsr3Tiles, LaneBlock, SymTiles};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observability counters for one PE, accumulated over all executed steps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PeCounters {
    /// Flops executed by this PE's local SMVPs (18 per traversed 3×3 block,
    /// the paper's `F_i = 2·m_i`).
    pub flops: u64,
    /// Words this PE sent during exchange phases.
    pub words_sent: u64,
    /// Words this PE received during exchange phases.
    pub words_received: u64,
    /// Messages (blocks under maximal aggregation) this PE sent.
    pub blocks_sent: u64,
    /// Messages this PE received.
    pub blocks_received: u64,
    /// Seconds spent gathering local `x` (assemble phase).
    pub t_assemble: f64,
    /// Seconds spent in local SMVP (compute phase).
    pub t_compute: f64,
    /// Seconds spent summing neighbor contributions (exchange phase).
    pub t_exchange: f64,
    /// Seconds spent waiting for the rest of the step: each step's
    /// dispatch wall minus this PE's own assemble, compute, exchange and
    /// fold, summed over steps.
    pub t_barrier: f64,
}

impl PeCounters {
    /// Words sent + received (the paper's `C_i`).
    pub fn words(&self) -> u64 {
        self.words_sent + self.words_received
    }

    /// Blocks sent + received (the paper's `B_i`).
    pub fn blocks(&self) -> u64 {
        self.blocks_sent + self.blocks_received
    }
}

/// Wall-clock seconds per phase, accumulated over all executed steps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseWalls {
    /// Assemble (gather local `x`) phase.
    pub assemble: f64,
    /// Compute (local SMVP) phase.
    pub compute: f64,
    /// Exchange (pairwise sum) phase.
    pub exchange: f64,
    /// Fold (replicated results → global vector) phase.
    pub fold: f64,
}

impl PhaseWalls {
    /// Total wall-clock across phases.
    pub fn total(&self) -> f64 {
        self.assemble + self.compute + self.exchange + self.fold
    }
}

/// Structured measurement report of an executor run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Worker threads in the pool.
    pub threads: usize,
    /// SMVP steps executed.
    pub steps: u64,
    /// Per-PE counters (accumulated over all steps).
    pub pe: Vec<PeCounters>,
    /// Per-phase wall times (accumulated over all steps).
    pub phases: PhaseWalls,
    /// Chaos-layer ledger, present when fault injection was enabled.
    pub fault: Option<FaultReport>,
}

impl ExecutionReport {
    /// Observed max per-PE flops per SMVP (the paper's `F`).
    pub fn f_max(&self) -> u64 {
        self.per_step_max(|c| c.flops)
    }

    /// Observed max per-PE words per SMVP (`C_max`).
    pub fn c_max(&self) -> u64 {
        self.per_step_max(|c| c.words())
    }

    /// Observed max per-PE blocks per SMVP (`B_max`).
    pub fn b_max(&self) -> u64 {
        self.per_step_max(|c| c.blocks())
    }

    /// Observed per-PE `(C_i, B_i)` loads per SMVP, the β-bound input.
    pub fn comm_loads(&self) -> Vec<(u64, u64)> {
        let steps = self.steps.max(1);
        self.pe
            .iter()
            .map(|c| (c.words() / steps, c.blocks() / steps))
            .collect()
    }

    /// Compute-phase wall seconds per SMVP step.
    pub fn t_compute_per_step(&self) -> f64 {
        self.phases.compute / self.steps.max(1) as f64
    }

    /// Exchange-phase wall seconds per SMVP step.
    pub fn t_exchange_per_step(&self) -> f64 {
        self.phases.exchange / self.steps.max(1) as f64
    }

    /// Measured parallel efficiency proxy: compute wall over compute +
    /// exchange wall (the paper's `E` with communication as the only
    /// overhead).
    pub fn efficiency(&self) -> f64 {
        let c = self.phases.compute;
        let x = self.phases.exchange;
        if c + x == 0.0 {
            return 1.0;
        }
        c / (c + x)
    }

    /// Per-PE exchange seconds per step (for fitting effective `t_l`/`t_w`).
    pub fn exchange_times_per_step(&self) -> Vec<f64> {
        let steps = self.steps.max(1) as f64;
        self.pe.iter().map(|c| c.t_exchange / steps).collect()
    }

    /// The per-SMVP measurements in the shape
    /// [`quake_core::model::validate`] consumes.
    pub fn measured(&self) -> MeasuredSmvp {
        let steps = self.steps.max(1);
        MeasuredSmvp {
            per_pe_flops: self.pe.iter().map(|c| c.flops / steps).collect(),
            per_pe_loads: self.comm_loads(),
            per_pe_exchange: self.exchange_times_per_step(),
            t_compute: self
                .pe
                .iter()
                .map(|c| c.t_compute / steps as f64)
                .fold(0.0, f64::max),
        }
    }

    fn per_step_max(&self, f: impl Fn(&PeCounters) -> u64) -> u64 {
        let steps = self.steps.max(1);
        self.pe.iter().map(|c| f(c) / steps).max().unwrap_or(0)
    }
}

/// Per-PE slice of the exchange schedule: what PE `q` receives, from whom.
struct Inbound {
    neighbor: usize,
    /// `(local index on q, local index on neighbor)` per shared node.
    pairs: Vec<(usize, usize)>,
}

/// Per-PE slice of the outbound schedule: what PE `q` posts, to whom.
/// `send_idx` lists q's local slots in the *receiver's* pair order, so a
/// packed block applies on the far side index-for-index — that shared
/// order is what keeps every transport bitwise-equal to the in-memory
/// exchange.
struct Outbound {
    to: usize,
    send_idx: Vec<usize>,
}

/// A PE's local stiffness in the layout its schedule runs. Both layouts
/// reproduce the scalar microkernel's product bit for bit.
enum PeMatrix {
    /// Barrier schedules: half storage, streaming each symmetric pair of
    /// blocks once. Needs rows whose columns strictly ascend, which the
    /// natural and RCM orders both give. The natural order shares the
    /// system's own matrix.
    Sym(Arc<SymTiles>),
    /// The overlap schedule: full tiles. Its boundary-first reorder keeps
    /// each row's stage-1 entry order, which a row-ordered scatter cannot
    /// reproduce.
    Full(Bcsr3Tiles),
}

impl PeMatrix {
    /// Flops of one local product: 18 per block of the full matrix, the
    /// paper's `F_i = 2·m_i`, in either layout.
    fn smvp_flops(&self) -> u64 {
        match self {
            PeMatrix::Sym(s) => s.smvp_flops(),
            PeMatrix::Full(t) => 18 * t.block_nnz() as u64,
        }
    }

    /// Full local SMVP, overwriting `out`. `acc` is the half-storage
    /// kernel's scratch (one lane block per row; unused by full tiles).
    fn mult_full(&self, xl: &[Vec3], acc: &mut [LaneBlock], out: &mut [Vec3]) {
        match self {
            PeMatrix::Sym(s) => bmv_sym_into(s, xl, acc, out),
            PeMatrix::Full(t) => bmv_tiles_range_into(t, xl, 0..t.block_rows(), out),
        }
    }

    /// Local SMVP over the block-row range `rows`; `out[i - rows.start]`
    /// receives row `i`. Only the overlap schedule splits rows, and it
    /// runs full tiles.
    fn mult_range(&self, xl: &[Vec3], rows: Range<usize>, out: &mut [Vec3]) {
        match self {
            PeMatrix::Full(t) => bmv_tiles_range_into(t, xl, rows, out),
            PeMatrix::Sym(_) => unreachable!("row ranges run on full tiles"),
        }
    }
}

/// One PE's executable state: the gather list and stiffness it actually
/// traverses (identical to the subdomain's, or renumbered), plus the
/// nodes it folds into the global result.
struct PeState {
    /// `gather[l]`: global node id held in local slot `l`.
    gather: Vec<usize>,
    /// The local stiffness, present exactly for the owned PEs.
    matrix: Option<PeMatrix>,
    /// `(local slot, global node)` for each node this PE folds into `y`:
    /// every global node belongs to the first owned PE whose gather holds
    /// it, so each node is written exactly once per step.
    fold: Vec<(usize, usize)>,
}

impl PeState {
    fn matrix(&self) -> &PeMatrix {
        self.matrix.as_ref().expect("only owned PEs are computed")
    }
}

/// A raw pointer that may cross thread boundaries; each dispatch
/// dereferences it only for the PEs its worker owns (disjoint indices), and
/// the broadcast barrier orders every access.
struct SendPtr<T>(*mut T);

// Manual impls: the derived ones would demand `T: Copy`, but copying the
// *pointer* never copies the pointee.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: see the type's doc comment — all dereferences are to disjoint
// per-PE elements between barriers.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(self) -> *mut T {
        self.0
    }
}

/// The `w`-th of `workers` near-equal contiguous chunks of `0..p` — the
/// static PE-to-worker assignment, computed arithmetically so dispatches
/// never allocate.
fn pe_chunk(p: usize, workers: usize, w: usize) -> std::ops::Range<usize> {
    (p * w / workers)..(p * (w + 1) / workers)
}

/// [`pe_chunk`] over an executor's owned PE range: the `w`-th chunk of
/// `owned`, in global PE ids. With full ownership (`0..p`, the in-process
/// backends) this is exactly `pe_chunk`.
fn owned_chunk(owned: &Range<usize>, workers: usize, w: usize) -> Range<usize> {
    let r = pe_chunk(owned.len(), workers, w);
    (owned.start + r.start)..(owned.start + r.end)
}

/// Bills one step's exchange to `c`: every inbound message is matched by
/// an equal outbound one (the exchange is symmetric), so both directions
/// count.
fn count_exchange(c: &mut PeCounters, inbound: &[Inbound]) {
    for msg in inbound {
        let words = 3 * msg.pairs.len() as u64;
        c.words_received += words;
        c.words_sent += words;
        c.blocks_received += 1;
        c.blocks_sent += 1;
    }
}

/// Per-PE chaos scratch, written by the chaos hooks through disjoint
/// [`SendPtr`] slots and folded into the [`FaultReport`] on the caller
/// thread after each step's dispatches (consumed by `std::mem::take`).
#[derive(Debug, Clone, Copy, Default)]
struct PeFaultScratch {
    straggles: u64,
    straggle_delay_s: f64,
    crashes: u64,
}

/// Everything the chaos layer owns while armed.
struct FaultState {
    plan: FaultPlan,
    /// One consumed-flag per plan event. Events are one-shot: a shard
    /// re-executed during recovery skips everything that already fired,
    /// which is what makes every recovery loop converge.
    fired: Vec<AtomicBool>,
    report: FaultReport,
    scratch: Vec<PeFaultScratch>,
}

/// One inline crash re-run of a crashed worker's chunk: the PE it crashed
/// on, which the re-run starts from, and when the re-run started and ended.
struct Rerun {
    pe: usize,
    start: Instant,
    end: Instant,
}

/// Everything the telemetry layer owns while armed: the core recorder plus
/// the fetch-latency scratch the traced hooks write through.
struct TelemetryState {
    /// The shared clock zero every span offset is measured from.
    epoch: Instant,
    data: Telemetry,
    /// Per-PE, per-inbound-message fetch latency scratch (ns), sized to the
    /// exchange schedule at arm time so recording never allocates.
    msg_ns: Vec<Vec<u64>>,
    /// Per-PE crash re-run time of the current step not spent on the
    /// PE's own stages, ns: written by the chaos hooks, drained by
    /// `record_trace`, and zero on clean traced steps.
    rerun_ns: Vec<u64>,
}

/// Node-placement view of a two-level (node-aware) run, used by the traced
/// step paths for attribution only. The exchange schedule never consults
/// it: aggregation happens entirely inside the transport, so arming a node
/// map changes no output, no counter, and no acquire order.
struct NodeView {
    /// PE → node placement (matches the transport's `NodeMap`).
    node_of: Vec<usize>,
    /// Words of each merged cross-node (node, node) block whose sending
    /// node's leader PE this executor owns — the blocks this shard's relay
    /// actually puts on the slow link, recorded once per traced step.
    pair_words: Vec<u64>,
}

/// Seconds to integer nanoseconds for span durations.
fn secs_to_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// Nanoseconds of `t` since `epoch`.
fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// Bulk-synchronous instrumented executor over a [`DistributedSystem`].
pub struct BspExecutor {
    pool: WorkerPool,
    pe: Vec<PeState>,
    /// `inbound[q]`: messages PE q receives each exchange phase.
    inbound: Vec<Vec<Inbound>>,
    /// `outbound[q]`: blocks PE q posts each exchange phase.
    outbound: Vec<Vec<Outbound>>,
    /// The PEs this executor instance actually runs: all of them for the
    /// in-process transports, one shard's contiguous slice under `proc`.
    owned: Range<usize>,
    /// The ghost-block transport every exchange phase goes through.
    link: Arc<dyn Transport>,
    global_nodes: usize,
    rcm: bool,
    /// Armed chaos layer, or `None` for the untouched clean path.
    fault: Option<Box<FaultState>>,
    /// Armed telemetry layer, or `None` for the untouched clean path.
    telemetry: Option<Box<TelemetryState>>,
    /// `boundary_rows[q]`: PE q's rows `0..nb` are boundary rows (consumed
    /// by a neighbor's exchange), `nb..n` interior. `None` for the barrier
    /// schedule.
    boundary_rows: Option<Vec<usize>>,
    /// Node placement of a two-level run, or `None` when flat. Telemetry
    /// attribution only (see [`NodeView`]).
    node_view: Option<NodeView>,
    // Persistent per-step buffers: sized once in `build`, reused by every
    // `step_into` so the steady-state step never touches the allocator.
    x_local: Vec<Vec<Vec3>>,
    /// Per-PE half-storage kernel scratch: one lane block per local row
    /// for owned barrier-schedule PEs, empty otherwise.
    acc: Vec<Vec<LaneBlock>>,
    partials: Vec<Vec<Vec3>>,
    exchanged: Vec<Vec<Vec3>>,
    /// Per-PE send packing buffer, sized to the largest outbound edge.
    pack: Vec<Vec<Vec3>>,
    /// Per-PE receive buffer each inbound block is acquired into, sized to
    /// the largest inbound edge.
    stage: Vec<Vec<Vec3>>,
    /// Per-PE stage stamps of the current step.
    clock: Vec<StageClock>,
    /// Per-PE exchange seconds net of transport waits, capped by the PE
    /// thread's CPU time over the same stamps: the drift monitor's feed on
    /// traced steps. Blocking in `acquire` tracks the sender's progress,
    /// and a descheduled thread the host's load, so neither may read as
    /// per-PE load skew.
    wait_scratch: Vec<f64>,
    counters: Vec<PeCounters>,
    phases: PhaseWalls,
    steps: u64,
}

impl BspExecutor {
    /// Creates an executor running `system`'s PEs on `threads` pooled
    /// workers, in the subdomains' natural node order.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(system: &DistributedSystem, threads: usize) -> Self {
        Self::build(system, threads, false, false)
    }

    /// Like [`BspExecutor::new`], but renumbers each PE's local nodes with
    /// reverse Cuthill–McKee first (see the module docs). Numerics and
    /// counters are unchanged; only the traversal order (and hence cache
    /// behaviour) differs.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_rcm(system: &DistributedSystem, threads: usize) -> Self {
        Self::build(system, threads, true, false)
    }

    /// Creates an executor with both locality options explicit: `use_rcm`
    /// for the reverse Cuthill–McKee pre-pass and `use_overlap` for the
    /// latency-hiding interior/boundary schedule (see the module docs).
    /// The options compose; either way output is bitwise-equal to
    /// [`BspExecutor::new`] with the same `use_rcm`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_options(
        system: &DistributedSystem,
        threads: usize,
        use_rcm: bool,
        use_overlap: bool,
    ) -> Self {
        Self::build(system, threads, use_rcm, use_overlap)
    }

    fn build(system: &DistributedSystem, threads: usize, use_rcm: bool, use_overlap: bool) -> Self {
        let p = system.subdomains().len();
        let link: Arc<dyn Transport> = Arc::new(SharedTransport::new(&ghost_edges(system)));
        Self::with_transport(system, threads, use_rcm, use_overlap, 0..p, link)
    }

    /// Creates an executor that runs only the PEs in `owned` and routes
    /// every ghost-block exchange through `link`. This is the fully general
    /// constructor the transport backends use: the in-process constructors
    /// above are `owned = 0..p` over a [`SharedTransport`], the `proc`
    /// backend builds one executor per shard process with that shard's PE
    /// slice and a socket-backed link. Non-owned PEs are never computed,
    /// exchanged, or folded — their ghost blocks arrive through the link.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `owned` is out of `0..p` bounds.
    pub fn with_transport(
        system: &DistributedSystem,
        threads: usize,
        use_rcm: bool,
        use_overlap: bool,
        owned: Range<usize>,
        link: Arc<dyn Transport>,
    ) -> Self {
        let subdomains = system.subdomains();
        let p = subdomains.len();
        assert!(
            owned.start <= owned.end && owned.end <= p,
            "owned PE range {owned:?} out of bounds for {p} PEs"
        );
        // Boundary flags in the subdomains' natural numbering: a local node
        // is boundary iff it appears in some exchange pair (a neighbor PE
        // holds a replica and will consume its partial), interior otherwise.
        let mut boundary_old: Vec<Vec<bool>> = subdomains
            .iter()
            .map(|sd| vec![false; sd.node_count()])
            .collect();
        if use_overlap {
            for ex in system.exchanges() {
                for &(la, lb) in &ex.pairs {
                    boundary_old[ex.a][la] = true;
                    boundary_old[ex.b][lb] = true;
                }
            }
        }
        // Per-PE: composed local permutation (`perm[old] = new`, or None
        // for the natural order), executable state, boundary row count.
        let mut perms: Vec<Option<Vec<usize>>> = Vec::with_capacity(p);
        let mut pe: Vec<PeState> = Vec::with_capacity(p);
        let mut boundary_rows: Vec<usize> = Vec::with_capacity(p);
        for (q, sd) in subdomains.iter().enumerate() {
            let n = sd.node_count();
            // Stage 1: RCM bandwidth reduction — the column-sorted
            // permutation `with_rcm` always applied. The block graph's
            // edges are the upper tiles off the diagonal, in row order.
            let p1: Option<Vec<usize>> = use_rcm.then(|| {
                let upper = sd.stiffness.upper();
                let (row_ptr, col_idx) = (upper.row_ptr(), upper.col_idx());
                let mut edges = Vec::new();
                for i in 0..n {
                    for &j in &col_idx[row_ptr[i]..row_ptr[i + 1]] {
                        if j as usize > i {
                            edges.push((i, j as usize));
                        }
                    }
                }
                let pattern =
                    Pattern::from_edges(n, &edges).expect("block adjacency indices are in range");
                rcm(&pattern)
            });
            // The natural barrier schedule streams the system's own half
            // storage. Every other plan renumbers full rows: it expands
            // this PE's matrix, bit for bit the assembled one, and drops
            // the expansion before the next PE.
            let full = (owned.contains(&q) && (use_rcm || use_overlap)).then(|| {
                let k = sd.stiffness.to_bcsr();
                match &p1 {
                    Some(a) => k
                        .permute_symmetric(a)
                        .expect("RCM yields a valid permutation"),
                    None => k,
                }
            });
            // Stage 2: boundary-first reorder, stable within each class so
            // every row keeps its stage-1 entry order — and with it its
            // floating-point summation order. That stability is what keeps
            // the overlapped schedule bitwise-equal to the barrier one.
            let (p2, nb): (Option<Vec<usize>>, usize) = if use_overlap {
                let mut b1 = vec![false; n];
                for (old, &flag) in boundary_old[q].iter().enumerate() {
                    if flag {
                        b1[p1.as_ref().map_or(old, |pm| pm[old])] = true;
                    }
                }
                let nb = b1.iter().filter(|&&b| b).count();
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| (!b1[i], i));
                let mut p2 = vec![0usize; n];
                for (rank, &i) in order.iter().enumerate() {
                    p2[i] = rank;
                }
                (Some(p2), nb)
            } else {
                (None, 0)
            };
            let composed: Option<Vec<usize>> = match (&p1, &p2) {
                (None, None) => None,
                (Some(a), None) => Some(a.clone()),
                (None, Some(b)) => Some(b.clone()),
                (Some(a), Some(b)) => Some(a.iter().map(|&s1| b[s1]).collect()),
            };
            // The layout follows the schedule (see `PeMatrix`).
            let matrix = owned.contains(&q).then(|| match (full, &p2) {
                (None, _) => PeMatrix::Sym(Arc::clone(sd.stiffness.shared())),
                (Some(k), None) => PeMatrix::Sym(Arc::new(
                    SymTiles::from_bcsr_owned(k)
                        .expect("FE stiffness is bitwise symmetric with sorted rows"),
                )),
                (Some(k), Some(b)) => PeMatrix::Full(Bcsr3Tiles::from_bcsr(
                    &k.permute_symmetric_stable(b)
                        .expect("boundary-first reorder is a valid permutation"),
                )),
            });
            let gather = match &composed {
                None => sd.global_nodes.clone(),
                Some(f) => {
                    let mut gather = vec![0usize; n];
                    for (old, &g) in sd.global_nodes.iter().enumerate() {
                        gather[f[old]] = g;
                    }
                    gather
                }
            };
            perms.push(composed);
            pe.push(PeState {
                gather,
                matrix,
                fold: Vec::new(),
            });
            boundary_rows.push(nb);
        }
        // Exchange pair indices are local slots, so they follow the
        // renumbering.
        let map = |q: usize, l: usize| perms[q].as_ref().map_or(l, |pm| pm[l]);
        let mut inbound: Vec<Vec<Inbound>> = (0..p).map(|_| Vec::new()).collect();
        for ex in system.exchanges() {
            inbound[ex.a].push(Inbound {
                neighbor: ex.b,
                pairs: ex
                    .pairs
                    .iter()
                    .map(|&(la, lb)| (map(ex.a, la), map(ex.b, lb)))
                    .collect(),
            });
            inbound[ex.b].push(Inbound {
                neighbor: ex.a,
                pairs: ex
                    .pairs
                    .iter()
                    .map(|&(la, lb)| (map(ex.b, lb), map(ex.a, la)))
                    .collect(),
            });
        }
        let mut outbound: Vec<Vec<Outbound>> = (0..p).map(|_| Vec::new()).collect();
        for ex in system.exchanges() {
            // Mirror of `inbound`: the entry feeding inbound[a]'s pairs is
            // outbound[b], packed in the exact same ex.pairs order.
            outbound[ex.b].push(Outbound {
                to: ex.a,
                send_idx: ex.pairs.iter().map(|&(_, lb)| map(ex.b, lb)).collect(),
            });
            outbound[ex.a].push(Outbound {
                to: ex.b,
                send_idx: ex.pairs.iter().map(|&(la, _)| map(ex.a, la)).collect(),
            });
        }
        if use_overlap {
            // The overlap schedule posts right after the boundary pass, so
            // every sent slot must be a boundary row.
            for (q, obs) in outbound.iter().enumerate() {
                for ob in obs {
                    debug_assert!(
                        ob.send_idx.iter().all(|&l| l < boundary_rows[q]),
                        "PE {q} would post interior rows before computing them"
                    );
                }
            }
        }
        let pack: Vec<Vec<Vec3>> = outbound
            .iter()
            .map(|obs| {
                let max = obs.iter().map(|o| o.send_idx.len()).max().unwrap_or(0);
                vec![Vec3::ZERO; max]
            })
            .collect();
        let stage: Vec<Vec<Vec3>> = inbound
            .iter()
            .map(|msgs| {
                let max = msgs.iter().map(|m| m.pairs.len()).max().unwrap_or(0);
                vec![Vec3::ZERO; max]
            })
            .collect();
        // Each global node folds from the first owned PE whose gather
        // holds it: the replica the serial fold has always picked.
        let mut taken = vec![false; system.global_nodes()];
        for s in &mut pe[owned.clone()] {
            s.fold = s
                .gather
                .iter()
                .enumerate()
                .filter(|&(_, &g)| !std::mem::replace(&mut taken[g], true))
                .map(|(l, &g)| (l, g))
                .collect();
        }
        let acc = pe
            .iter()
            .map(|s| match &s.matrix {
                Some(PeMatrix::Sym(m)) => vec![LaneBlock::default(); m.block_rows()],
                _ => Vec::new(),
            })
            .collect();
        let local_buf = || {
            pe.iter()
                .map(|s| vec![Vec3::ZERO; s.gather.len()])
                .collect::<Vec<_>>()
        };
        BspExecutor {
            pool: WorkerPool::new(threads),
            x_local: local_buf(),
            acc,
            partials: local_buf(),
            exchanged: local_buf(),
            pack,
            stage,
            clock: vec![StageClock::new(Instant::now()); p],
            wait_scratch: vec![0.0; p],
            global_nodes: system.global_nodes(),
            pe,
            inbound,
            outbound,
            owned,
            link,
            rcm: use_rcm,
            fault: None,
            telemetry: None,
            boundary_rows: use_overlap.then_some(boundary_rows),
            node_view: None,
            counters: vec![PeCounters::default(); p],
            phases: PhaseWalls::default(),
            steps: 0,
        }
    }

    /// Arms the chaos layer: from the next step on, `plan`'s events fire at
    /// their scheduled (step, PE) slots and the executor recovers from each
    /// within the step it hits. With an empty plan the chaos path still
    /// runs (useful for invariance tests) but injects nothing.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        let p = self.pe.len();
        self.fault = Some(Box::new(FaultState {
            fired: (0..plan.len()).map(|_| AtomicBool::new(false)).collect(),
            plan,
            report: FaultReport::default(),
            scratch: vec![PeFaultScratch::default(); p],
        }));
    }

    /// The chaos ledger so far, or `None` if faults were never armed.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.fault.as_ref().map(|f| f.report)
    }

    /// Arms the telemetry layer: from the next step on, every phase records
    /// per-PE spans, the exchange feeds the block latency/size histograms,
    /// and (if configured) the drift monitor checks each step against the
    /// Eq. (2) model. With telemetry off the clean `step_into` path is
    /// untouched — zero overhead, bitwise-identical output (and the traced
    /// path performs the exact same arithmetic in the exact same order, so
    /// tracing never changes results either).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.enable_telemetry_at(config, Instant::now());
    }

    /// [`Self::enable_telemetry`] with an explicit epoch. A shard child
    /// passes its transport fabric's origin instant so every span timestamp
    /// is already expressed on the clock the parent's handshake-time offset
    /// measurement refers to — the merged timeline needs no post-hoc shift.
    pub fn enable_telemetry_at(&mut self, config: TelemetryConfig, epoch: Instant) {
        // Per-*owned*-PE (C_i, B_i) per step, counting both directions like
        // `PeCounters::words()`/`blocks()` — the drift monitor must use the
        // same convention as the validation layer, and under a partial
        // ownership it only ever observes the owned slice.
        let loads: Vec<(u64, u64)> = self.inbound[self.owned.clone()]
            .iter()
            .map(|msgs| {
                let words: u64 = msgs.iter().map(|m| 3 * m.pairs.len() as u64).sum();
                (2 * words, 2 * msgs.len() as u64)
            })
            .collect();
        let msg_ns = self
            .inbound
            .iter()
            .map(|msgs| vec![0u64; msgs.len()])
            .collect();
        self.telemetry = Some(Box::new(TelemetryState {
            epoch,
            data: Telemetry::new(self.owned.len(), loads, config),
            msg_ns,
            rerun_ns: vec![0; self.pe.len()],
        }));
    }

    /// The telemetry recorded so far, or `None` if telemetry was never
    /// armed.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref().map(|t| &t.data)
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The worker pool's lifetime dispatch counters.
    pub fn pool_stats(&self) -> quake_spark::PoolStats {
        self.pool.stats()
    }

    /// True if this executor runs over RCM-renumbered subdomains.
    pub fn rcm_enabled(&self) -> bool {
        self.rcm
    }

    /// True if this executor runs the latency-hiding overlap schedule.
    pub fn overlap_enabled(&self) -> bool {
        self.boundary_rows.is_some()
    }

    /// Hands the executor the PE → node placement of a node-aware run
    /// (`node_of[q]` = the node PE q lives on, matching the transport's
    /// `NodeMap`). Telemetry attribution only: traced steps emit an
    /// intra-node `gather` span inside each exchange and feed the merged
    /// per-(node, node) block-size histogram. The exchange itself never
    /// consults the map — aggregation lives in the transport — so output,
    /// counters, and acquire order are bitwise-unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `node_of` does not cover every PE.
    pub fn set_node_map(&mut self, node_of: &[usize]) {
        let p = self.pe.len();
        assert_eq!(node_of.len(), p, "node map must cover every PE");
        let nodes = node_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut merged = vec![0u64; nodes * nodes];
        for (q, msgs) in self.inbound.iter().enumerate() {
            for msg in msgs {
                let (src, dst) = (node_of[msg.neighbor], node_of[q]);
                if src != dst {
                    merged[src * nodes + dst] += 3 * msg.pairs.len() as u64;
                }
            }
        }
        // A node's leader is its lowest PE; keeping only leader-owned
        // source nodes counts each merged block exactly once across `proc`
        // shards — the same shard whose relay puts it on the slow link.
        let mut leader = vec![usize::MAX; nodes];
        for (q, &n) in node_of.iter().enumerate().rev() {
            leader[n] = q;
        }
        let mut pair_words = Vec::new();
        for src in 0..nodes {
            if !self.owned.contains(&leader[src]) {
                continue;
            }
            for dst in 0..nodes {
                let w = merged[src * nodes + dst];
                if w > 0 {
                    pair_words.push(w);
                }
            }
        }
        self.node_view = Some(NodeView {
            node_of: node_of.to_vec(),
            pair_words,
        });
    }

    /// The armed PE → node placement, or `None` on flat runs.
    pub fn node_map(&self) -> Option<&[usize]> {
        self.node_view.as_ref().map(|nv| nv.node_of.as_slice())
    }

    /// Per-PE boundary row counts of the overlap split, or `None` when the
    /// executor runs the barrier schedule. Matches
    /// [`OverlapAnalysis`](quake_partition::comm::OverlapAnalysis) exactly
    /// (checked in tests): the split the executor runs is the split the
    /// model prices.
    pub fn overlap_boundary_rows(&self) -> Option<&[usize]> {
        self.boundary_rows.as_deref()
    }

    /// `(pointer, capacity)` of every persistent per-step buffer. Steady
    /// state means this is identical before and after a `step_into` — the
    /// step reallocated nothing.
    pub fn buffer_fingerprint(&self) -> Vec<(usize, usize)> {
        let mut fp = Vec::new();
        for group in [
            &self.x_local,
            &self.partials,
            &self.exchanged,
            &self.pack,
            &self.stage,
        ] {
            for v in group {
                fp.push((v.as_ptr() as usize, v.capacity()));
            }
        }
        for v in &self.acc {
            fp.push((v.as_ptr() as usize, v.capacity()));
        }
        fp.push((self.clock.as_ptr() as usize, self.clock.capacity()));
        fp.push((
            self.wait_scratch.as_ptr() as usize,
            self.wait_scratch.capacity(),
        ));
        if let Some(t) = &self.telemetry {
            for v in &t.msg_ns {
                fp.push((v.as_ptr() as usize, v.capacity()));
            }
        }
        fp
    }

    /// The PE range this executor runs (see [`BspExecutor::with_transport`]).
    pub fn owned_range(&self) -> Range<usize> {
        self.owned.clone()
    }

    /// PE `q`'s gather list (local slot → global node), post-renumbering.
    /// The `proc` shard host sends these alongside the exchanged vectors so
    /// the parent can fold without rebuilding the permutations.
    pub(crate) fn gather_of(&self, q: usize) -> &[usize] {
        &self.pe[q].gather
    }

    /// PE `q`'s post-exchange partial vector after the last executed step.
    pub(crate) fn exchanged_of(&self, q: usize) -> &[Vec3] {
        &self.exchanged[q]
    }

    /// Executes one bulk-synchronous SMVP `y = Kx` for a global input
    /// vector, updating the counters. Allocation-free: every buffer
    /// (including `y`) is caller- or executor-owned and reused. One pool
    /// dispatch, two with faults armed (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` does not match the mesh node count.
    pub fn step_into(&mut self, x: &[Vec3], y: &mut [Vec3]) {
        assert_eq!(x.len(), self.global_nodes, "x length must match mesh nodes");
        assert_eq!(y.len(), self.global_nodes, "y length must match mesh nodes");
        let step = self.steps;
        if let Some(fault) = self.fault.take() {
            let mut chaos = Chaos::new(fault, self.telemetry.take());
            self.run_step(x, y, step, &mut chaos);
            self.fault = Some(chaos.fault);
            self.telemetry = chaos.trace.map(|mut t| {
                t.telem.data.steps += 1;
                t.telem
            });
        } else if let Some(telem) = self.telemetry.take() {
            let mut traced = Traced::new(telem);
            self.run_step(x, y, step, &mut traced);
            traced.telem.data.steps += 1;
            self.telemetry = Some(traced.telem);
        } else {
            self.run_step(x, y, step, &mut Clean);
        }
        self.steps += 1;
    }

    /// The one step body (see the module docs): every worker runs stages 1
    /// and 2, then stage 3, for the PEs it owns, in one dispatch, or in two
    /// when `H::SPLIT`, with any crashed worker's stages 1 and 2 re-run on
    /// this thread in between.
    fn run_step<H: StepHooks>(&mut self, x: &[Vec3], y: &mut [Vec3], step: u64, hooks: &mut H) {
        let t0 = Instant::now();
        let mut reruns = Vec::new();
        {
            let ctx = StepCtx {
                hooks: &*hooks,
                link: &*self.link,
                pe: &self.pe,
                inbound: &self.inbound,
                outbound: &self.outbound,
                boundary: self.boundary_rows.as_deref(),
                owned: self.owned.clone(),
                threads: self.pool.threads(),
                step,
                t0,
                x,
                y: SendPtr(y.as_mut_ptr()),
                x_local: SendPtr(self.x_local.as_mut_ptr()),
                acc: SendPtr(self.acc.as_mut_ptr()),
                partials: SendPtr(self.partials.as_mut_ptr()),
                exchanged: SendPtr(self.exchanged.as_mut_ptr()),
                pack: SendPtr(self.pack.as_mut_ptr()),
                stage: SendPtr(self.stage.as_mut_ptr()),
                clock: SendPtr(self.clock.as_mut_ptr()),
            };
            if !H::SPLIT {
                self.pool.broadcast(&|w| {
                    ctx.compute(w);
                    ctx.exchange(w);
                });
            } else {
                if let Err(failure) = self.pool.try_broadcast(&|w| ctx.compute(w)) {
                    // Re-run each crashed chunk inline on this thread. The
                    // products fully overwrite their output, so the re-run
                    // is bitwise what the worker would have produced;
                    // remaining one-shot events may fire (and panic) again,
                    // hence the loop.
                    for &w in &failure.panicked {
                        loop {
                            let pe = ctx.crashed(w);
                            let start = Instant::now();
                            let ok = catch_unwind(AssertUnwindSafe(|| ctx.compute(w))).is_ok();
                            reruns.push(Rerun {
                                pe,
                                start,
                                end: Instant::now(),
                            });
                            if ok {
                                break;
                            }
                        }
                    }
                }
                self.pool.broadcast(&|w| ctx.exchange(w));
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        hooks.after_dispatch(self, step, &reruns);
        let bill = self.bill(wall);
        hooks.after_step(self, step, wall, &bill);
    }

    /// Bills one finished step from the stage clocks: every owned PE's own
    /// seconds go to its counters, with the rest of `wall` as its barrier
    /// wait, and the slowest worker's own assemble, compute and fold go to
    /// [`PhaseWalls`], with the rest of `wall` as exchange. Returns those
    /// phase walls; the trace hooks record exactly these numbers.
    fn bill(&mut self, wall: f64) -> PeSecs {
        let overlap = self.boundary_rows.is_some();
        let threads = self.pool.threads();
        let mut slowest = PeSecs::default();
        for w in 0..threads {
            // The worker's own work; its exchange stays zero here.
            let mut sum = PeSecs::default();
            for q in owned_chunk(&self.owned, threads, w) {
                let s = self.clock[q].secs(overlap);
                sum.assemble += s.assemble;
                sum.post += s.post;
                sum.compute += s.compute;
                sum.fold += s.fold;
                let c = &mut self.counters[q];
                c.t_assemble += s.assemble;
                c.t_compute += s.post + s.compute;
                c.t_exchange += s.exchange;
                c.t_barrier += (wall - s.busy()).max(0.0);
                c.flops += self.pe[q].matrix().smvp_flops();
                count_exchange(c, &self.inbound[q]);
            }
            if sum.busy() > slowest.busy() {
                slowest = sum;
            }
        }
        slowest.exchange = (wall - slowest.busy()).max(0.0);
        self.phases.assemble += slowest.assemble;
        self.phases.compute += slowest.post + slowest.compute;
        self.phases.exchange += slowest.exchange;
        self.phases.fold += slowest.fold;
        slowest
    }

    /// Records one billed step into `telem`. The phase walls are `bill`'s,
    /// Post plus Compute being the billed compute. Every owned PE gets an
    /// Assemble, (under overlap) Post, Compute, Exchange and Fold span at
    /// its stamps, the transport Wait nested at the tail of its exchange,
    /// and a Barrier span for the rest of `wall`. On node-aware runs each
    /// exchange also nests a Gather span: the share of its fetch time
    /// spent on same-node neighbors, the intra-node leg of the two-level
    /// exchange. A PE that crashed carries Recover spans (recorded by the
    /// chaos hooks) for the re-run time not spent on its own stages, and
    /// that time leaves its barrier residual, so its spans still sum to
    /// `wall`. The drift monitor sees exchange time net of transport
    /// waits: blocking in `acquire` tracks the sender's progress, not this
    /// PE's load. It takes the PE thread's CPU time over the same stamps
    /// instead where that is lower, so a PE preempted mid-exchange does not
    /// read as drift.
    fn record_trace(&mut self, telem: &mut TelemetryState, step: u64, wall: f64, bill: &PeSecs) {
        let overlap = self.boundary_rows.is_some();
        let epoch = telem.epoch;
        let data = &mut telem.data;
        let post_ns = secs_to_ns(bill.post);
        for (phase, ns) in [
            (PhaseId::Assemble, secs_to_ns(bill.assemble)),
            (PhaseId::Post, post_ns),
            (
                PhaseId::Compute,
                secs_to_ns(bill.post + bill.compute) - post_ns,
            ),
            (PhaseId::Exchange, secs_to_ns(bill.exchange)),
            (PhaseId::Fold, secs_to_ns(bill.fold)),
        ] {
            data.add_phase_wall(phase, ns);
        }
        for q in self.owned.clone() {
            let clk = &self.clock[q];
            let s = clk.secs(overlap);
            let at = |t: Instant| ns_since(epoch, t);
            let rerun_ns = std::mem::take(&mut telem.rerun_ns[q]);
            let idle = wall - s.busy() - rerun_ns as f64 * 1e-9;
            let exchange_ns = secs_to_ns(s.exchange);
            let wait_ns = secs_to_ns(clk.wait.clamp(0.0, s.exchange));
            let gather_ns = self.node_view.as_ref().map_or(0, |nv| {
                let intra_ns: u64 = self.inbound[q]
                    .iter()
                    .zip(&telem.msg_ns[q])
                    .filter(|(m, _)| nv.node_of[m.neighbor] == nv.node_of[q])
                    .map(|(_, &ns)| ns)
                    .sum();
                intra_ns.min(exchange_ns)
            });
            let compute_at = if overlap { clk.interior } else { clk.compute };
            for (phase, start_ns, dur_ns) in [
                (PhaseId::Assemble, at(clk.gather), secs_to_ns(s.assemble)),
                (PhaseId::Post, at(clk.compute), secs_to_ns(s.post)),
                (PhaseId::Compute, at(compute_at), secs_to_ns(s.compute)),
                (PhaseId::Exchange, at(clk.exchange), exchange_ns),
                (PhaseId::Fold, at(clk.fold), secs_to_ns(s.fold)),
                // Nested or trailing spans, recorded only when nonzero and
                // added to their own phase walls.
                (
                    PhaseId::Wait,
                    at(clk.exchange) + exchange_ns - wait_ns,
                    wait_ns,
                ),
                (PhaseId::Barrier, at(clk.done), secs_to_ns(idle.max(0.0))),
                (PhaseId::Gather, at(clk.exchange), gather_ns),
            ] {
                match phase {
                    PhaseId::Post if !overlap => continue,
                    PhaseId::Wait | PhaseId::Barrier | PhaseId::Gather => {
                        if dur_ns == 0 {
                            continue;
                        }
                        data.add_phase_wall(phase, dur_ns);
                    }
                    _ => {}
                }
                data.span(Span {
                    phase,
                    pe: q as u32,
                    step,
                    start_ns,
                    dur_ns,
                });
            }
            data.compute_ns.record(secs_to_ns(s.post + s.compute));
            for (msg, &ns) in self.inbound[q].iter().zip(&telem.msg_ns[q]) {
                data.block_latency_ns.record(ns);
                data.block_words.record(3 * msg.pairs.len() as u64);
            }
            // A PE descheduled mid-exchange reads milliseconds of wall
            // time it never ran; its CPU clock did not advance meanwhile.
            let cpu = clk.exchange_cpu + if overlap { 0.0 } else { clk.post_cpu };
            self.wait_scratch[q] = (s.exchange - clk.wait).min(cpu).max(0.0);
        }
        if let Some(nv) = &self.node_view {
            for &w in &nv.pair_words {
                data.node_block_words.record(w);
            }
        }
        let flagged = data
            .drift
            .as_mut()
            .and_then(|m| m.observe(step, &self.wait_scratch[self.owned.clone()]));
        if flagged.is_some() {
            data.instant(TraceInstant {
                name: "drift:flagged",
                pe: self.pe.len() as u32,
                step,
                at_ns: ns_since(epoch, Instant::now()),
            });
        }
    }

    /// Executes one bulk-synchronous SMVP `y = Kx`, allocating the result.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the mesh node count.
    pub fn step(&mut self, x: &[Vec3]) -> Vec<Vec3> {
        let mut y = vec![Vec3::ZERO; self.global_nodes];
        self.step_into(x, &mut y);
        y
    }

    /// Runs `steps` SMVPs of the same input (the paper's repeated time-loop
    /// product) and returns the final result. The output buffer is
    /// allocated once and reused by every step.
    pub fn run(&mut self, x: &[Vec3], steps: u64) -> Vec<Vec3> {
        let mut y = vec![Vec3::ZERO; self.global_nodes];
        for _ in 0..steps {
            self.step_into(x, &mut y);
        }
        y
    }

    /// The accumulated measurement report.
    pub fn report(&self) -> ExecutionReport {
        ExecutionReport {
            threads: self.pool.threads(),
            steps: self.steps,
            pe: self.counters.clone(),
            phases: self.phases,
            fault: self.fault.as_ref().map(|f| f.report),
        }
    }
}

/// One PE's stage stamps for the current step, each boundary taken once.
/// Stamps of a stage the schedule skips keep their build-time value, so
/// that stage measures zero.
#[derive(Clone, Copy)]
struct StageClock {
    gather: Instant,
    compute: Instant,
    computed: Instant,
    post: Instant,
    posted: Instant,
    interior: Instant,
    interior_done: Instant,
    exchange: Instant,
    fold: Instant,
    done: Instant,
    /// Seconds of the exchange spent blocked in transport waits.
    wait: f64,
    /// Seconds the running thread's CPU clock advanced over posting and
    /// over the exchange stage. The clock stops while the thread is
    /// descheduled; read on traced steps only, infinite otherwise.
    post_cpu: f64,
    exchange_cpu: f64,
}

/// Seconds billed to one PE (or summed over a worker's PEs) for a step.
#[derive(Debug, Clone, Copy, Default)]
struct PeSecs {
    assemble: f64,
    /// Boundary compute plus posting, under overlap only.
    post: f64,
    compute: f64,
    exchange: f64,
    fold: f64,
}

impl PeSecs {
    fn busy(&self) -> f64 {
        self.assemble + self.post + self.compute + self.exchange + self.fold
    }
}

impl StageClock {
    fn new(t: Instant) -> Self {
        StageClock {
            gather: t,
            compute: t,
            computed: t,
            post: t,
            posted: t,
            interior: t,
            interior_done: t,
            exchange: t,
            fold: t,
            done: t,
            wait: 0.0,
            post_cpu: f64::INFINITY,
            exchange_cpu: f64::INFINITY,
        }
    }

    /// The stamps as billed seconds. Under overlap the boundary compute
    /// plus posting is `post` and the interior is `compute`; under the
    /// barrier schedule posting is exchange, as the profiler expects.
    fn secs(&self, overlap: bool) -> PeSecs {
        let d = |a: Instant, b: Instant| (b - a).as_secs_f64();
        let head = d(self.compute, self.computed);
        let posting = d(self.post, self.posted);
        let exchange = d(self.exchange, self.fold);
        let (post, compute, exchange) = if overlap {
            (
                head + posting,
                d(self.interior, self.interior_done),
                exchange,
            )
        } else {
            (0.0, head, posting + exchange)
        };
        PeSecs {
            assemble: d(self.gather, self.compute),
            post,
            compute,
            exchange,
            fold: d(self.fold, self.done),
        }
    }
}

/// What varies between a clean, a traced and a chaos step; the step body
/// itself is [`BspExecutor::run_step`]. `before_compute` and `fetch` run on
/// the thread running a PE's stages (its pool worker, or the caller when it
/// re-runs a crashed worker's chunk); the rest run on the caller.
trait StepHooks: Sync {
    /// Run stages 1 and 2 without posting in one dispatch, then post,
    /// acquire, apply and fold in a second (see the module docs).
    const SPLIT: bool = false;

    /// Runs before PE `q`'s compute, inside its compute stamp.
    ///
    /// # Safety
    ///
    /// Only the thread running PE `q`'s stages may call this, and no other
    /// thread may touch PE `q`'s state meanwhile.
    #[inline]
    unsafe fn before_compute(&self, _step: u64, _q: usize) {}

    /// The calling thread's CPU clock in seconds, on steps whose timings
    /// are recorded; `None` on the others, which never read it.
    #[inline]
    fn thread_cpu(&self) -> Option<f64> {
        None
    }

    /// Runs `acquire`, the fetch of PE `q`'s `mi`-th inbound block, and
    /// returns its seconds spent blocked in transport waits.
    ///
    /// # Safety
    ///
    /// As for [`StepHooks::before_compute`].
    #[inline]
    unsafe fn fetch(&self, _q: usize, _mi: usize, acquire: impl FnOnce() -> f64) -> f64 {
        acquire()
    }

    /// After the dispatches, before billing; `reruns` are the step's
    /// inline crash re-runs, empty unless a worker crashed.
    #[inline]
    fn after_dispatch(&mut self, _exec: &BspExecutor, _step: u64, _reruns: &[Rerun]) {}

    /// After the step was billed; `bill` is its phase walls.
    #[inline]
    fn after_step(&mut self, _exec: &mut BspExecutor, _step: u64, _wall: f64, _bill: &PeSecs) {}
}

/// The CPU time the calling thread has run, in seconds, from its own
/// clock (`CLOCK_THREAD_CPUTIME_ID`); `None` where that clock cannot be
/// read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_secs() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let ok = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0;
    ok.then_some(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_secs() -> Option<f64> {
    None
}

/// Seconds between two CPU-clock readings; infinite unless both exist.
fn cpu_between(start: Option<f64>, end: Option<f64>) -> f64 {
    start.zip(end).map_or(f64::INFINITY, |(a, b)| b - a)
}

/// The clean step: no hooks, compiled away.
struct Clean;

impl StepHooks for Clean {}

/// Telemetry hooks: time every fetch, then record the billed step.
struct Traced {
    telem: Box<TelemetryState>,
    /// `telem.msg_ns`, row q written only by the worker that owns PE q.
    lat: SendPtr<Vec<u64>>,
}

impl Traced {
    fn new(mut telem: Box<TelemetryState>) -> Self {
        let lat = SendPtr(telem.msg_ns.as_mut_ptr());
        Traced { telem, lat }
    }
}

impl StepHooks for Traced {
    fn thread_cpu(&self) -> Option<f64> {
        thread_cpu_secs()
    }

    /// Records the fetch's latency as PE `q`'s `mi`-th message.
    unsafe fn fetch(&self, q: usize, mi: usize, acquire: impl FnOnce() -> f64) -> f64 {
        let t = Instant::now();
        let waited = acquire();
        // SAFETY: row q is written only by the thread running PE q.
        let row = unsafe { &mut *self.lat.get().add(q) };
        row[mi] = t.elapsed().as_nanos() as u64;
        waited
    }

    fn after_step(&mut self, exec: &mut BspExecutor, step: u64, wall: f64, bill: &PeSecs) {
        exec.record_trace(&mut self.telem, step, wall, bill);
    }
}

/// Chaos hooks: straggle and crash events fire before a PE's compute. The
/// per-PE ledger scratch and the optional telemetry are drained on the
/// caller after the dispatches.
struct Chaos {
    fault: Box<FaultState>,
    trace: Option<Traced>,
    /// `fault.scratch`, slot q written only by the worker that owns PE q.
    scratch: SendPtr<PeFaultScratch>,
}

impl Chaos {
    fn new(mut fault: Box<FaultState>, telem: Option<Box<TelemetryState>>) -> Self {
        let scratch = SendPtr(fault.scratch.as_mut_ptr());
        Chaos {
            fault,
            trace: telem.map(Traced::new),
            scratch,
        }
    }
}

impl StepHooks for Chaos {
    const SPLIT: bool = true;

    unsafe fn before_compute(&self, step: u64, q: usize) {
        let (plan, fired) = (&self.fault.plan, &self.fault.fired);
        // SAFETY: slot q is touched only by the thread running PE q, which
        // the caller is.
        let sc = unsafe { &mut *self.scratch.get().add(q) };
        // Crash first, so a straggle that fires always shows in a finished
        // compute stamp.
        for e in plan.at(step, q) {
            if matches!(plan.events()[e].kind, FaultKind::Crash)
                && !fired[e].swap(true, Ordering::Relaxed)
            {
                sc.crashes += 1;
                panic!("injected fault: PE {q} crash at step {step}");
            }
        }
        for e in plan.at(step, q) {
            if let FaultKind::Straggle { delay_us } = plan.events()[e].kind {
                if !fired[e].swap(true, Ordering::Relaxed) {
                    let delay = Duration::from_micros(u64::from(delay_us));
                    sc.straggles += 1;
                    sc.straggle_delay_s += delay.as_secs_f64();
                    std::thread::sleep(delay);
                }
            }
        }
    }

    fn thread_cpu(&self) -> Option<f64> {
        self.trace.as_ref().and_then(Traced::thread_cpu)
    }

    unsafe fn fetch(&self, q: usize, mi: usize, acquire: impl FnOnce() -> f64) -> f64 {
        match &self.trace {
            // SAFETY: the caller runs q's stages.
            Some(t) => unsafe { t.fetch(q, mi, acquire) },
            None => acquire(),
        }
    }

    /// Drains the per-PE ledger into the fault report and, when traced,
    /// into fault instants, plus a Recover span and a `recover:rerun`
    /// instant on the crashed PE's lane for each crash re-run. The span
    /// holds the re-run time not spent on the PE's own stages, which nest
    /// in the re-run and are billed as themselves, and ends with the
    /// re-run. Straggle detection is observational: the PE's compute stamp
    /// must show the injected delay.
    fn after_dispatch(&mut self, exec: &BspExecutor, step: u64, reruns: &[Rerun]) {
        let (fault, mut telem) = (&mut *self.fault, self.trace.as_mut().map(|t| &mut t.telem));
        let report = &mut fault.report;
        report.degraded_shards += reruns.len() as u64;
        if let Some(t) = telem.as_deref_mut() {
            for r in reruns {
                let clk = &exec.clock[r.pe];
                let nested = |a: Instant, b: Instant| {
                    if a >= r.start && b <= r.end {
                        b - a
                    } else {
                        Duration::ZERO
                    }
                };
                let own =
                    nested(clk.gather, clk.computed) + nested(clk.interior, clk.interior_done);
                let dur_ns = (r.end - r.start).saturating_sub(own).as_nanos() as u64;
                let end_ns = ns_since(t.epoch, r.end);
                t.data.span(Span {
                    phase: PhaseId::Recover,
                    pe: r.pe as u32,
                    step,
                    start_ns: end_ns - dur_ns,
                    dur_ns,
                });
                t.data.add_phase_wall(PhaseId::Recover, dur_ns);
                t.data.instant(TraceInstant {
                    name: "recover:rerun",
                    pe: r.pe as u32,
                    step,
                    at_ns: ns_since(t.epoch, r.start),
                });
                t.rerun_ns[r.pe] += dur_ns;
            }
        }
        let mut crashes = 0u64;
        for (q, slot) in fault.scratch.iter_mut().enumerate() {
            let sc = std::mem::take(slot);
            let clk = &exec.clock[q];
            if sc.straggles > 0 {
                report.injected.straggle += sc.straggles;
                if (clk.computed - clk.compute).as_secs_f64() >= sc.straggle_delay_s * 0.999 {
                    report.detected.straggle += sc.straggles;
                    // The barrier absorbs the delay; nothing else to heal.
                    report.recovered.straggle += sc.straggles;
                }
            }
            crashes += sc.crashes;
            let Some(t) = telem.as_deref_mut() else {
                continue;
            };
            let at_ns = ns_since(t.epoch, Instant::now());
            for (name, n) in [
                ("fault:straggle", sc.straggles),
                ("fault:crash", sc.crashes),
            ] {
                for _ in 0..n {
                    t.data.instant(TraceInstant {
                        name,
                        pe: q as u32,
                        step,
                        at_ns,
                    });
                }
            }
        }
        // Detection = the pool caught the panic; the inline re-run healed
        // it before the exchange began.
        report.injected.crash += crashes;
        report.detected.crash += crashes;
        report.recovered.crash += crashes;
    }

    fn after_step(&mut self, exec: &mut BspExecutor, step: u64, wall: f64, bill: &PeSecs) {
        if let Some(t) = &mut self.trace {
            t.after_step(exec, step, wall, bill);
        }
    }
}

/// What one step's dispatches share: the plan, read-only, and the per-PE
/// buffers, reached through [`SendPtr`] by the one worker that owns each PE.
struct StepCtx<'a, H> {
    hooks: &'a H,
    link: &'a dyn Transport,
    pe: &'a [PeState],
    inbound: &'a [Vec<Inbound>],
    outbound: &'a [Vec<Outbound>],
    /// Boundary row counts under overlap, `None` under the barrier schedule.
    boundary: Option<&'a [usize]>,
    owned: Range<usize>,
    threads: usize,
    step: u64,
    /// When the step's first dispatch began.
    t0: Instant,
    x: &'a [Vec3],
    y: SendPtr<Vec3>,
    x_local: SendPtr<Vec<Vec3>>,
    acc: SendPtr<Vec<LaneBlock>>,
    partials: SendPtr<Vec<Vec3>>,
    exchanged: SendPtr<Vec<Vec3>>,
    pack: SendPtr<Vec<Vec3>>,
    stage: SendPtr<Vec<Vec3>>,
    clock: SendPtr<StageClock>,
}

/// One PE's slot of every per-step buffer.
struct PeBufs<'b> {
    clock: &'b mut StageClock,
    x_local: &'b mut [Vec3],
    acc: &'b mut [LaneBlock],
    partials: &'b mut [Vec3],
    exchanged: &'b mut [Vec3],
    pack: &'b mut [Vec3],
    stage: &'b mut [Vec3],
}

impl<H: StepHooks> StepCtx<'_, H> {
    /// PE `q`'s buffers.
    ///
    /// # Safety
    ///
    /// The caller runs PE `q`'s stages (see [`StepHooks::before_compute`])
    /// and holds no other reference into its buffers.
    unsafe fn bufs(&self, q: usize) -> PeBufs<'_> {
        PeBufs {
            clock: &mut *self.clock.get().add(q),
            x_local: &mut *self.x_local.get().add(q),
            acc: &mut *self.acc.get().add(q),
            partials: &mut *self.partials.get().add(q),
            exchanged: &mut *self.exchanged.get().add(q),
            pack: &mut *self.pack.get().add(q),
            stage: &mut *self.stage.get().add(q),
        }
    }

    /// The PE worker `w` crashed on: the first in its chunk whose compute
    /// has not finished this step (the chunk's first PE if all have).
    fn crashed(&self, w: usize) -> usize {
        let chunk = owned_chunk(&self.owned, self.threads, w);
        chunk
            .clone()
            // SAFETY: only this thread runs chunk `w` (its worker is dead).
            .find(|&q| unsafe { (*self.clock.get().add(q)).computed < self.t0 })
            .unwrap_or(chunk.start)
    }

    /// Stages 1 and 2 for worker `w`'s PEs. Under `H::SPLIT` a crash re-run
    /// skips the PEs whose stage 1 already finished this step.
    fn compute(&self, w: usize) {
        let chunk = owned_chunk(&self.owned, self.threads, w);
        for q in chunk.clone() {
            // SAFETY: q is in chunk `w`, which no other thread runs: a pool
            // worker in a dispatch, or the caller re-running a dead worker.
            let b = unsafe { self.bufs(q) };
            if H::SPLIT && b.clock.computed >= self.t0 {
                continue;
            }
            // Stage 1: gather, compute the posted rows, post (unless split).
            b.clock.gather = Instant::now();
            for (slot, &g) in b.x_local.iter_mut().zip(&self.pe[q].gather) {
                *slot = self.x[g];
            }
            b.clock.compute = Instant::now();
            // SAFETY: this thread runs q's stages.
            unsafe { self.hooks.before_compute(self.step, q) };
            let m = self.pe[q].matrix();
            match self.boundary {
                None => m.mult_full(b.x_local, b.acc, b.partials),
                Some(nb) => m.mult_range(b.x_local, 0..nb[q], &mut b.partials[..nb[q]]),
            }
            let t = Instant::now();
            b.clock.computed = t;
            if !H::SPLIT {
                self.post(q, b.partials, b.pack, b.clock, t);
            }
        }
        // Stage 2, overlap only: the interior rows, hiding the neighbors'
        // posts.
        if let Some(nb) = self.boundary {
            for q in chunk {
                // SAFETY: as in stage 1.
                let b = unsafe { self.bufs(q) };
                b.clock.interior = Instant::now();
                let rows = nb[q]..b.partials.len();
                self.pe[q]
                    .matrix()
                    .mult_range(b.x_local, rows.clone(), &mut b.partials[rows]);
                b.clock.interior_done = Instant::now();
            }
        }
    }

    /// Packs PE `q`'s outbound blocks in each receiver's pair order and
    /// posts them. Under overlap every posted slot is a boundary row
    /// (checked at build), so the blocks are complete after stage 1.
    fn post(&self, q: usize, part: &[Vec3], pack: &mut [Vec3], clk: &mut StageClock, at: Instant) {
        clk.post = at;
        let cpu = self.hooks.thread_cpu();
        for ob in &self.outbound[q] {
            let blk = &mut pack[..ob.send_idx.len()];
            for (slot, &l) in blk.iter_mut().zip(&ob.send_idx) {
                *slot = part[l];
            }
            self.link
                .post(self.step, q, ob.to, blk)
                .expect("transport post");
        }
        clk.posted = Instant::now();
        clk.post_cpu = cpu_between(cpu, self.hooks.thread_cpu());
    }

    /// Stage 3 for worker `w`'s PEs, posting them all first when split.
    /// Posting ALL its PEs before acquiring ANY keeps the schedule
    /// deadlock-free however PEs are striped across workers and shards.
    fn exchange(&self, w: usize) {
        let chunk = owned_chunk(&self.owned, self.threads, w);
        if H::SPLIT {
            for q in chunk.clone() {
                // SAFETY: as in `compute`.
                let b = unsafe { self.bufs(q) };
                self.post(q, b.partials, b.pack, b.clock, Instant::now());
            }
        }
        for q in chunk {
            // SAFETY: as in `compute`.
            let b = unsafe { self.bufs(q) };
            b.clock.exchange = Instant::now();
            let cpu = self.hooks.thread_cpu();
            // Acquire and apply in schedule order, the serial product's
            // summation order, so every transport is bitwise-equivalent.
            b.exchanged.copy_from_slice(b.partials);
            let inbound = &self.inbound[q];
            let mut waited = 0.0;
            for (mi, msg) in inbound.iter().enumerate() {
                let block = &mut b.stage[..msg.pairs.len()];
                let acquire = || {
                    self.link
                        .acquire(self.step, msg.neighbor, q, block)
                        .expect("transport acquire")
                };
                // SAFETY: this thread runs q's stages.
                waited += unsafe { self.hooks.fetch(q, mi, acquire) };
                for (&(m, _), v) in msg.pairs.iter().zip(block.iter()) {
                    b.exchanged[m] += *v;
                }
            }
            b.clock.fold = Instant::now();
            b.clock.exchange_cpu = cpu_between(cpu, self.hooks.thread_cpu());
            for &(l, g) in &self.pe[q].fold {
                // SAFETY: each global node is in exactly one owned PE's
                // fold list, so workers write disjoint slots of `y`.
                unsafe { *self.y.get().add(g) = b.exchanged[l] };
            }
            b.clock.done = Instant::now();
            b.clock.wait = waited;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{AppConfig, QuakeApp};
    use quake_fem::assembly::UniformMaterial;
    use quake_mesh::ground::Material;
    use quake_mesh::mesh::TetMesh;
    use quake_partition::comm::CommAnalysis;
    use quake_partition::geometric::{Partitioner, RecursiveBisection};
    use quake_partition::partition::Partition;
    use quake_spark::tile_kernels::{force_scalar, simd_active};
    use quake_sparse::bcsr::Bcsr3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Mutex;

    fn setup(parts: usize) -> (TetMesh, Partition, DistributedSystem) {
        let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).unwrap();
        let partition = RecursiveBisection::inertial()
            .partition(&app.mesh, parts)
            .unwrap();
        let mat = Material {
            vs: 1000.0,
            vp: 2000.0,
            rho: 2000.0,
        };
        let sys = DistributedSystem::build(&app.mesh, &partition, &UniformMaterial(mat)).unwrap();
        (app.mesh, partition, sys)
    }

    fn random_x(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn assert_matches_serial(serial: &[Vec3], pooled: &[Vec3], what: &str) {
        let scale: f64 = serial.iter().map(|v| v.norm()).fold(0.0, f64::max);
        for (i, (a, b)) in serial.iter().zip(pooled).enumerate() {
            assert!(
                (*a - *b).norm() <= 1e-12 * (1.0 + scale),
                "node {i} ({what}): serial {a} vs pooled {b}"
            );
        }
    }

    #[test]
    fn executor_matches_serial_distributed_smvp() {
        let (mesh, _, sys) = setup(6);
        let x = random_x(mesh.node_count(), 11);
        let serial = sys.smvp(&x);
        for threads in [1, 4] {
            let mut exec = BspExecutor::new(&sys, threads);
            let pooled = exec.step(&x);
            assert_matches_serial(&serial, &pooled, &format!("{threads} threads"));
        }
    }

    #[test]
    fn rcm_executor_matches_serial_and_counters() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 13);
        let serial = sys.smvp(&x);
        let mut exec = BspExecutor::with_rcm(&sys, 3);
        assert!(exec.rcm_enabled());
        let pooled = exec.step(&x);
        assert_matches_serial(&serial, &pooled, "rcm");
        // Renumbering is PE-local, so the characterization match stays
        // exact.
        let report = exec.report();
        assert_eq!(report.f_max(), analysis.f_max(), "F mismatch under RCM");
        assert_eq!(report.c_max(), analysis.c_max(), "C_max mismatch under RCM");
        assert_eq!(report.b_max(), analysis.b_max(), "B_max mismatch under RCM");
    }

    #[test]
    fn steady_state_steps_do_not_reallocate() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 17);
        for traced in [false, true] {
            let mut exec = BspExecutor::new(&sys, 2);
            if traced {
                exec.enable_telemetry(TelemetryConfig::default());
            }
            let mut y = vec![Vec3::ZERO; mesh.node_count()];
            // Warmup step, then the buffers must be pinned.
            exec.step_into(&x, &mut y);
            let fp = exec.buffer_fingerprint();
            for v in &exec.acc {
                assert!(!v.is_empty() && fp.contains(&(v.as_ptr() as usize, v.capacity())));
            }
            let mut scratch = vec![
                (exec.clock.as_ptr() as usize, exec.clock.capacity()),
                (
                    exec.wait_scratch.as_ptr() as usize,
                    exec.wait_scratch.capacity(),
                ),
            ];
            if let Some(t) = &exec.telemetry {
                scratch.extend(t.msg_ns.iter().map(|v| (v.as_ptr() as usize, v.capacity())));
            }
            for (ptr, cap) in scratch {
                assert!(fp.contains(&(ptr, cap)), "timing scratch is fingerprinted");
            }
            let y_fp = (y.as_ptr() as usize, y.capacity());
            for _ in 0..100 {
                exec.step_into(&x, &mut y);
            }
            assert_eq!(
                exec.buffer_fingerprint(),
                fp,
                "executor buffers moved or regrew during steady-state steps (traced {traced})"
            );
            assert_eq!(
                (y.as_ptr() as usize, y.capacity()),
                y_fp,
                "output buffer moved during steady-state steps"
            );
            assert_eq!(exec.report().steps, 101);
        }
    }

    #[test]
    fn overlap_executor_matches_serial_distributed_smvp() {
        let (mesh, _, sys) = setup(6);
        let x = random_x(mesh.node_count(), 19);
        let serial = sys.smvp(&x);
        for threads in [1, 4] {
            let mut exec = BspExecutor::with_options(&sys, threads, false, true);
            assert!(exec.overlap_enabled());
            let pooled = exec.step(&x);
            assert_matches_serial(&serial, &pooled, &format!("overlap, {threads} threads"));
        }
    }

    /// Serializes the tests that flip the global `force_scalar` switch.
    static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

    fn assert_counters_eq(a: &ExecutionReport, b: &ExecutionReport, what: &str) {
        for (ca, cb) in a.pe.iter().zip(&b.pe) {
            assert_eq!(ca.flops, cb.flops, "flops ({what})");
            assert_eq!(ca.words_sent, cb.words_sent, "words_sent ({what})");
            assert_eq!(
                ca.words_received, cb.words_received,
                "words_received ({what})"
            );
            assert_eq!(ca.blocks_sent, cb.blocks_sent, "blocks_sent ({what})");
            assert_eq!(
                ca.blocks_received, cb.blocks_received,
                "blocks_received ({what})"
            );
        }
    }

    #[test]
    fn simd_kernel_is_bitwise_equal_across_schedules_with_exact_counters() {
        let _guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (mesh, _, sys) = setup(5);
        let x = random_x(mesh.node_count(), 29);
        for (threads, use_rcm, use_overlap) in [
            (1, false, false),
            (4, false, false),
            (3, true, false),
            (2, false, true),
            (4, true, true),
        ] {
            let what = format!("threads {threads}, rcm {use_rcm}, overlap {use_overlap}");
            let mut scalar = BspExecutor::with_options(&sys, threads, use_rcm, use_overlap);
            let mut simd = BspExecutor::with_options(&sys, threads, use_rcm, use_overlap);
            force_scalar(true);
            let a = scalar.run(&x, 3);
            force_scalar(false);
            let b = simd.run(&x, 3);
            assert_bitwise_equal(&a, &b, &what);
            // Both paths traverse the same layout, so every counter is
            // identical — not merely close.
            assert_counters_eq(&scalar.report(), &simd.report(), &what);
        }
    }

    #[test]
    fn force_scalar_round_trips_the_dispatch() {
        let _guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let hardware = simd_active();
        force_scalar(true);
        assert!(
            !simd_active(),
            "force_scalar(true) must select the fallback"
        );
        force_scalar(false);
        assert_eq!(
            simd_active(),
            hardware,
            "force_scalar(false) restores detection"
        );
        // The kernel is no longer a run option, on the CLI or the wire.
        assert!(crate::transport::wire::RunSpec::deserialize("kernel micro-simd\n").is_err());
    }

    #[test]
    fn layout_follows_the_schedule_and_dispatch_keeps_the_bits() {
        let _guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (mesh, _, sys) = setup(2);
        let x = random_x(mesh.node_count(), 31);
        for use_rcm in [false, true] {
            let mut exec = BspExecutor::with_options(&sys, 2, use_rcm, false);
            assert!(exec
                .pe
                .iter()
                .all(|s| matches!(s.matrix, Some(PeMatrix::Sym(_)))));
            let a = exec.step(&x);
            force_scalar(true);
            let b = exec.step(&x);
            force_scalar(false);
            assert_bitwise_equal(&a, &b, &format!("rcm {use_rcm}, vector then scalar"));
        }
        let overlap = BspExecutor::with_options(&sys, 2, false, true);
        assert!(overlap
            .pe
            .iter()
            .all(|s| matches!(s.matrix, Some(PeMatrix::Full(_)))));
        assert!(overlap.acc.iter().all(|a| a.is_empty()));
    }

    #[test]
    fn barrier_plans_share_the_systems_half_storage_and_others_release_it() {
        let (_, _, sys) = setup(4);
        let p = sys.parts();
        let refs = || -> Vec<usize> {
            sys.subdomains()
                .iter()
                .map(|sd| Arc::strong_count(sd.stiffness.shared()))
                .collect()
        };
        let shared = |exec: &BspExecutor| -> Vec<bool> {
            exec.pe
                .iter()
                .zip(sys.subdomains())
                .map(|(s, sd)| {
                    matches!(&s.matrix, Some(PeMatrix::Sym(m)) if Arc::ptr_eq(m, sd.stiffness.shared()))
                })
                .collect()
        };
        assert_eq!(refs(), vec![1; p], "the system holds each matrix once");
        let first = BspExecutor::new(&sys, 2);
        assert_eq!(shared(&first), vec![true; p]);
        assert_eq!(refs(), vec![2; p]);
        // A second plan, as `smvp-run`'s clean-reference rerun builds it,
        // adds a reference and no copy.
        let link: Arc<dyn Transport> = Arc::new(SharedTransport::new(&ghost_edges(&sys)));
        let rerun = BspExecutor::with_transport(&sys, 2, false, false, 0..p, link);
        assert_eq!(shared(&rerun), vec![true; p]);
        assert_eq!(refs(), vec![3; p]);
        // A shard's plan holds only the PEs it owns.
        let link: Arc<dyn Transport> = Arc::new(SharedTransport::new(&ghost_edges(&sys)));
        let shard = BspExecutor::with_transport(&sys, 2, false, false, 0..p / 2, link);
        assert_eq!(refs(), [vec![4; p / 2], vec![3; p - p / 2]].concat());
        drop(shard);
        // RCM and overlap plans build their own layouts from an expansion
        // and hold no reference once built.
        for (use_rcm, use_overlap) in [(true, false), (false, true), (true, true)] {
            let exec = BspExecutor::with_options(&sys, 2, use_rcm, use_overlap);
            assert_eq!(shared(&exec), vec![false; p]);
            assert_eq!(refs(), vec![3; p], "rcm {use_rcm}, overlap {use_overlap}");
        }
        drop((first, rerun));
        assert_eq!(refs(), vec![1; p]);
    }

    #[test]
    fn renumbered_plans_from_the_expansion_match_plans_from_the_assembled_matrices() {
        // The configuration of the `overlap_equivalence` and
        // `chaos_recovery` suites. A plan renumbers the expansion of each
        // PE's half storage; renumbering the assembled matrix instead must
        // give the same permutation and the same tile words.
        let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).unwrap();
        let partition = RecursiveBisection::inertial()
            .partition(&app.mesh, 6)
            .unwrap();
        let field = UniformMaterial(Material {
            vs: 1000.0,
            vp: 2000.0,
            rho: 2000.0,
        });
        let sys = DistributedSystem::build(&app.mesh, &partition, &field).unwrap();
        let assembled = crate::distributed::assembled_pes(&app.mesh, &partition, &field);
        // `perm[old] = new`, read off a plan's gather list.
        let perm = |exec: &BspExecutor, q: usize| -> Vec<usize> {
            let sd = &sys.subdomains()[q];
            let mut new_of = vec![0; sys.global_nodes()];
            for (new, &g) in exec.pe[q].gather.iter().enumerate() {
                new_of[g] = new;
            }
            sd.global_nodes.iter().map(|&g| new_of[g]).collect()
        };
        let same_tiles = |got: &Bcsr3Tiles, want: &Bcsr3Tiles, what: &str| {
            assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
            assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
            assert!(
                got.values()
                    .iter()
                    .zip(want.values())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && got.values().len() == want.values().len(),
                "{what}: values"
            );
        };
        // The reference RCM permutation, from the assembled matrix's rows.
        let rcm_of = |full: &Bcsr3| -> Vec<usize> {
            let (row_ptr, col_idx) = (full.row_ptr(), full.col_idx());
            let n = full.block_rows();
            let edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| {
                    col_idx[row_ptr[i]..row_ptr[i + 1]]
                        .iter()
                        .map(move |&j| (i, j))
                })
                .filter(|&(i, j)| j > i)
                .collect();
            rcm(&Pattern::from_edges(n, &edges).unwrap())
        };
        let rcm_plan = BspExecutor::with_rcm(&sys, 2);
        let overlap_plan = BspExecutor::with_options(&sys, 2, false, true);
        let both_plan = BspExecutor::with_options(&sys, 2, true, true);
        for (q, full) in assembled.iter().enumerate() {
            let p1 = rcm_of(full);
            assert_eq!(perm(&rcm_plan, q), p1, "PE {q}: RCM permutation");
            let Some(PeMatrix::Sym(got)) = &rcm_plan.pe[q].matrix else {
                panic!("PE {q}: RCM runs half storage");
            };
            let want = SymTiles::from_bcsr(&full.permute_symmetric(&p1).unwrap()).unwrap();
            assert_eq!(got.block_nnz(), want.block_nnz());
            same_tiles(got.upper(), want.upper(), &format!("PE {q}, RCM"));
            let Some(PeMatrix::Full(got)) = &overlap_plan.pe[q].matrix else {
                panic!("PE {q}: overlap runs full tiles");
            };
            let want = Bcsr3Tiles::from_bcsr(
                &full
                    .permute_symmetric_stable(&perm(&overlap_plan, q))
                    .unwrap(),
            );
            same_tiles(got, &want, &format!("PE {q}, overlap"));
            // RCM then the boundary-first reorder: `p2[p1[old]]` is the
            // composed plan's `perm[old]`.
            let Some(PeMatrix::Full(got)) = &both_plan.pe[q].matrix else {
                panic!("PE {q}: overlap runs full tiles");
            };
            let mut p2 = vec![0; p1.len()];
            for (old, &new) in perm(&both_plan, q).iter().enumerate() {
                p2[p1[old]] = new;
            }
            let want = Bcsr3Tiles::from_bcsr(
                &full
                    .permute_symmetric(&p1)
                    .unwrap()
                    .permute_symmetric_stable(&p2)
                    .unwrap(),
            );
            same_tiles(got, &want, &format!("PE {q}, RCM and overlap"));
        }
    }

    /// Runs `steps` products on two executors that each own half of the
    /// PEs over one shared transport, as two `proc` shards do, and merges
    /// their folds as the `proc` parent does: a node takes the lowest PE's
    /// replica, so the first half wins wherever both fold it.
    fn run_split(
        sys: &DistributedSystem,
        threads: usize,
        use_rcm: bool,
        traced: bool,
        x: &[Vec3],
        steps: u64,
    ) -> Vec<Vec3> {
        let p = sys.subdomains().len();
        let link: Arc<dyn Transport> = Arc::new(SharedTransport::new(&ghost_edges(sys)));
        let halves = std::thread::scope(|scope| {
            let handles: Vec<_> = [0..p / 2, p / 2..p]
                .into_iter()
                .map(|owned| {
                    let link = Arc::clone(&link);
                    scope.spawn(move || {
                        let mut exec =
                            BspExecutor::with_transport(sys, threads, use_rcm, false, owned, link);
                        if traced {
                            exec.enable_telemetry(TelemetryConfig::default());
                        }
                        let y = exec.run(x, steps);
                        let folded: Vec<usize> = exec
                            .pe
                            .iter()
                            .flat_map(|s| s.fold.iter().map(|&(_, g)| g))
                            .collect();
                        (y, folded)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("half run"))
                .collect::<Vec<_>>()
        });
        let mut y = vec![Vec3::ZERO; x.len()];
        let mut taken = vec![false; x.len()];
        for (part, folded) in &halves {
            for &g in folded {
                if !std::mem::replace(&mut taken[g], true) {
                    y[g] = part[g];
                }
            }
        }
        y
    }

    #[test]
    fn one_dispatch_step_equals_the_traced_step_bitwise() {
        let (mesh, _, sys) = setup(5);
        let x = random_x(mesh.node_count(), 37);
        for use_rcm in [false, true] {
            for threads in 1..=4 {
                let what = format!("threads {threads}, rcm {use_rcm}");
                let mut clean = BspExecutor::with_options(&sys, threads, use_rcm, false);
                let mut traced = BspExecutor::with_options(&sys, threads, use_rcm, false);
                traced.enable_telemetry(TelemetryConfig::default());
                let a = clean.run(&x, 2);
                let b = traced.run(&x, 2);
                assert_bitwise_equal(&a, &b, &what);
                assert_counters_eq(&clean.report(), &traced.report(), &what);
                // Partial ownership, as under `proc`: each half folds only
                // its own nodes, and together they give the same bits.
                let split = run_split(&sys, threads, use_rcm, false, &x, 2);
                assert_bitwise_equal(&split, &a, &format!("split one-dispatch, {what}"));
                let split = run_split(&sys, threads, use_rcm, true, &x, 2);
                assert_bitwise_equal(&split, &a, &format!("split traced, {what}"));
            }
        }
    }

    #[test]
    fn every_mode_keeps_one_step_shape_and_traced_walls_match_the_billing() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 71);
        let steps = 3u64;
        for use_overlap in [false, true] {
            for (mode, dispatches) in [("clean", 1), ("traced", 1), ("chaos", 2)] {
                let what = format!("{mode}, overlap {use_overlap}");
                let mut exec = BspExecutor::with_options(&sys, 2, false, use_overlap);
                match mode {
                    "traced" => exec.enable_telemetry(TelemetryConfig::default()),
                    "chaos" => exec.enable_faults(FaultPlan::none()),
                    _ => {}
                }
                let before = exec.pool_stats().broadcasts;
                exec.run(&x, steps);
                assert_eq!(
                    exec.pool_stats().broadcasts - before,
                    dispatches * steps,
                    "dispatches per step ({what})"
                );
                let Some(t) = exec.telemetry() else {
                    continue;
                };
                // A traced step is billed like an untraced one: its phase
                // walls are the report's, up to one truncated ns per step.
                let billed = exec.report().phases;
                for (phase, ns, secs) in [
                    (
                        "assemble",
                        t.phase_wall_ns(PhaseId::Assemble),
                        billed.assemble,
                    ),
                    (
                        "compute",
                        t.phase_wall_ns(PhaseId::Compute) + t.phase_wall_ns(PhaseId::Post),
                        billed.compute,
                    ),
                    (
                        "exchange",
                        t.phase_wall_ns(PhaseId::Exchange),
                        billed.exchange,
                    ),
                    ("fold", t.phase_wall_ns(PhaseId::Fold), billed.fold),
                ] {
                    let gap = (ns as f64 - secs * 1e9).abs();
                    assert!(
                        gap <= steps as f64,
                        "{phase} ({what}): traced {ns} ns vs billed {} ns",
                        secs * 1e9
                    );
                }
            }
        }
    }

    #[test]
    fn every_global_node_is_folded_once_and_replicas_agree() {
        let (mesh, _, sys) = setup(6);
        let n = mesh.node_count();
        let x = random_x(n, 41);
        for (use_rcm, use_overlap) in [(false, false), (true, false), (false, true)] {
            let mut exec = BspExecutor::with_options(&sys, 3, use_rcm, use_overlap);
            let y = exec.step(&x);
            let mut folds = vec![0u32; n];
            for s in &exec.pe {
                for &(l, g) in &s.fold {
                    assert_eq!(s.gather[l], g, "fold slot holds its node");
                    folds[g] += 1;
                }
            }
            assert!(
                folds.iter().all(|&c| c == 1),
                "each node folded exactly once"
            );
            // Every replica of a node agrees with the folded value.
            for (s, part) in exec.pe.iter().zip(&exec.exchanged) {
                for (l, &g) in s.gather.iter().enumerate() {
                    assert!(
                        (y[g] - part[l]).norm() <= 1e-9 * (1.0 + y[g].norm()),
                        "replicas disagree at node {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_single_pe_is_all_interior_and_still_correct() {
        let (mesh, _, sys) = setup(1);
        let x = random_x(mesh.node_count(), 23);
        let serial = sys.smvp(&x);
        let mut exec = BspExecutor::with_options(&sys, 2, false, true);
        assert_eq!(
            exec.overlap_boundary_rows(),
            Some(&[0usize][..]),
            "a lone PE exchanges nothing, so nothing is boundary"
        );
        let pooled = exec.step(&x);
        assert_matches_serial(&serial, &pooled, "overlap, single PE");
    }

    #[test]
    fn overlap_steady_state_steps_do_not_reallocate() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 29);
        for traced in [false, true] {
            let mut exec = BspExecutor::with_options(&sys, 2, false, true);
            if traced {
                exec.enable_telemetry(TelemetryConfig::default());
            }
            let mut y = vec![Vec3::ZERO; mesh.node_count()];
            exec.step_into(&x, &mut y);
            let fp = exec.buffer_fingerprint();
            for _ in 0..100 {
                exec.step_into(&x, &mut y);
            }
            assert_eq!(
                exec.buffer_fingerprint(),
                fp,
                "overlap buffers moved or regrew during steady-state steps (traced {traced})"
            );
            assert_eq!(exec.report().steps, 101);
        }
    }

    #[test]
    fn measured_counters_match_characterization_exactly() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 3);
        let mut exec = BspExecutor::new(&sys, 4);
        exec.run(&x, 3);
        let report = exec.report();
        assert_eq!(report.steps, 3);
        assert_eq!(report.f_max(), analysis.f_max(), "F mismatch");
        assert_eq!(report.c_max(), analysis.c_max(), "C_max mismatch");
        assert_eq!(report.b_max(), analysis.b_max(), "B_max mismatch");
        for (q, (c, predicted)) in report.pe.iter().zip(analysis.per_pe()).enumerate() {
            assert_eq!(c.flops / 3, predicted.flops, "PE {q} flops");
            assert_eq!(c.words() / 3, predicted.words, "PE {q} words");
            assert_eq!(c.blocks() / 3, predicted.blocks, "PE {q} blocks");
            assert_eq!(c.words_sent, c.words_received, "exchange is symmetric");
        }
    }

    #[test]
    fn phase_times_accumulate() {
        let (mesh, _, sys) = setup(2);
        let x = random_x(mesh.node_count(), 5);
        let mut exec = BspExecutor::new(&sys, 2);
        exec.run(&x, 2);
        let report = exec.report();
        assert!(report.phases.compute > 0.0);
        assert!(report.phases.exchange > 0.0);
        assert!(report.phases.total() > 0.0);
        assert!(report.efficiency() > 0.0 && report.efficiency() <= 1.0);
        for c in &report.pe {
            assert!(c.t_compute > 0.0);
            assert!(c.t_barrier >= 0.0);
        }
    }

    #[test]
    fn single_pe_has_no_communication() {
        let (mesh, _, _) = setup(2);
        let partition = RecursiveBisection::inertial().partition(&mesh, 1).unwrap();
        let mat = Material {
            vs: 1000.0,
            vp: 2000.0,
            rho: 2000.0,
        };
        let sys = DistributedSystem::build(&mesh, &partition, &UniformMaterial(mat)).unwrap();
        let x = random_x(mesh.node_count(), 7);
        let mut exec = BspExecutor::new(&sys, 2);
        exec.step(&x);
        let report = exec.report();
        assert_eq!(report.c_max(), 0);
        assert_eq!(report.b_max(), 0);
        assert_eq!(report.efficiency(), report.efficiency().clamp(0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let (_, _, sys) = setup(2);
        let mut exec = BspExecutor::new(&sys, 2);
        let _ = exec.step(&[Vec3::ZERO]);
    }

    // --- Chaos layer ---

    use quake_core::fault::{FaultEvent, FaultRates};

    fn assert_bitwise_equal(want: &[Vec3], got: &[Vec3], what: &str) {
        assert_eq!(want.len(), got.len());
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits(), a.z.to_bits()),
                (b.x.to_bits(), b.y.to_bits(), b.z.to_bits()),
                "node {i} ({what}): outputs differ"
            );
        }
    }

    /// A hand-built plan exercising both fault kinds: three stragglers
    /// and one PE crash.
    fn all_kinds_plan() -> FaultPlan {
        FaultPlan::from_events(vec![
            FaultEvent {
                step: 0,
                pe: 0,
                kind: FaultKind::Straggle { delay_us: 200 },
            },
            FaultEvent {
                step: 1,
                pe: 1,
                kind: FaultKind::Straggle { delay_us: 50 },
            },
            FaultEvent {
                step: 3,
                pe: 3,
                kind: FaultKind::Straggle { delay_us: 120 },
            },
            FaultEvent {
                step: 2,
                pe: 3,
                kind: FaultKind::Crash,
            },
        ])
    }

    #[test]
    fn empty_plan_chaos_path_is_bitwise_invariant() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 23);
        let steps = 3;

        let mut clean = BspExecutor::new(&sys, 4);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut armed = BspExecutor::new(&sys, 4);
        armed.enable_faults(FaultPlan::none());
        let mut y_armed = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            armed.step_into(&x, &mut y_armed);
        }

        assert_bitwise_equal(&y_clean, &y_armed, "empty plan");
        let report = armed.report();
        assert_eq!(report.f_max(), analysis.f_max());
        assert_eq!(report.c_max(), analysis.c_max());
        assert_eq!(report.b_max(), analysis.b_max());
        let fr = report.fault.expect("armed executor reports faults");
        assert!(fr.balanced());
        assert_eq!(fr.injected.total(), 0);
        assert_eq!(fr.degraded_shards, 0);
    }

    #[test]
    fn chaos_run_recovers_bitwise_equal() {
        let (mesh, partition, sys) = setup(6);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 29);
        let steps = 5;

        let mut clean = BspExecutor::new(&sys, 4);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::new(&sys, 4);
        chaos.enable_faults(all_kinds_plan());
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "all kinds");
        let report = chaos.report();
        assert_eq!(report.steps, steps as u64);
        // Even with a crash and its re-run in the middle, the measured
        // characterization stays exact.
        assert_eq!(report.f_max(), analysis.f_max(), "F under chaos");
        assert_eq!(report.c_max(), analysis.c_max(), "C_max under chaos");
        assert_eq!(report.b_max(), analysis.b_max(), "B_max under chaos");
        let fr = report.fault.expect("fault report present");
        assert!(fr.balanced(), "unbalanced ledger: {fr}");
        assert_eq!(fr.injected.straggle, 3);
        assert_eq!(fr.detected.straggle, 3, "every delay shows in its stamp");
        assert_eq!(fr.injected.crash, 1);
        assert_eq!(fr.degraded_shards, 1, "one inline re-run");
    }

    #[test]
    fn crash_heals_inline() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 37);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            step: 1,
            pe: 2,
            kind: FaultKind::Crash,
        }]);

        let mut clean = BspExecutor::new(&sys, 2);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..3 {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::new(&sys, 2);
        chaos.enable_faults(plan);
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..3 {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "inline re-run");
        let fr = chaos.fault_report().unwrap();
        assert!(fr.balanced(), "unbalanced ledger: {fr}");
        assert_eq!(fr.injected.crash, 1);
        assert!(fr.degraded_shards >= 1, "shard re-executed inline");
    }

    #[test]
    fn crash_recovery_round_trip_under_rcm() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 43);
        let steps = 4;
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                step: 1,
                pe: 0,
                kind: FaultKind::Straggle { delay_us: 100 },
            },
            FaultEvent {
                step: 2,
                pe: 2,
                kind: FaultKind::Crash,
            },
        ]);

        let mut clean = BspExecutor::with_rcm(&sys, 3);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::with_rcm(&sys, 3);
        chaos.enable_faults(plan);
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "rcm + crash");
        let report = chaos.report();
        assert_eq!(report.f_max(), analysis.f_max(), "F under RCM chaos");
        assert_eq!(report.c_max(), analysis.c_max(), "C_max under RCM chaos");
        assert_eq!(report.b_max(), analysis.b_max(), "B_max under RCM chaos");
        let fr = report.fault.unwrap();
        assert!(fr.balanced(), "unbalanced ledger: {fr}");
        assert_eq!(fr.degraded_shards, 1);
    }

    #[test]
    fn generated_plan_runs_to_completion_balanced() {
        let (mesh, _, sys) = setup(6);
        let x = random_x(mesh.node_count(), 47);
        let steps = 8;
        let plan = FaultPlan::generate(99, steps, 6, &FaultRates::uniform(0.3));
        assert!(!plan.is_empty(), "rates high enough to schedule events");

        let mut clean = BspExecutor::new(&sys, 4);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::new(&sys, 4);
        chaos.enable_faults(plan);
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "generated plan");
        let fr = chaos.fault_report().unwrap();
        assert!(fr.balanced(), "unbalanced ledger: {fr}");
        assert!(fr.injected.total() > 0, "something actually fired");
    }

    // --- Telemetry layer ---

    #[test]
    fn traced_run_is_bitwise_equal_and_records_every_phase() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 53);
        let steps = 3;

        let mut plain = BspExecutor::new(&sys, 3);
        let mut y_plain = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            plain.step_into(&x, &mut y_plain);
        }
        assert!(plain.telemetry().is_none());

        let mut traced = BspExecutor::new(&sys, 3);
        // Drift floor raised past CI scheduler noise: this test asserts
        // wiring, not the monitor's sensitivity (unit-tested in quake-core
        // over synthetic times).
        traced.enable_telemetry(TelemetryConfig {
            drift: Some(quake_core::telemetry::DriftConfig {
                min_time_s: 1.0,
                ..Default::default()
            }),
            ..TelemetryConfig::default()
        });
        let mut y_traced = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            traced.step_into(&x, &mut y_traced);
        }

        assert_bitwise_equal(&y_plain, &y_traced, "traced vs untraced");
        let t = traced.telemetry().expect("telemetry armed");
        assert_eq!(t.steps, steps as u64);
        // Clean-path phases all have spans and wall time.
        for phase in [
            PhaseId::Assemble,
            PhaseId::Compute,
            PhaseId::Exchange,
            PhaseId::Fold,
        ] {
            assert!(
                t.spans.iter().any(|s| s.phase == phase),
                "no {} span recorded",
                phase.name()
            );
            assert!(t.phase_wall_ns(phase) > 0, "no {} wall", phase.name());
        }
        // 4 PEs × 3 steps of compute samples; every inbound block sampled.
        assert_eq!(t.compute_ns.count(), 4 * steps as u64);
        assert_eq!(t.block_latency_ns.count(), t.block_words.count());
        assert!(t.block_latency_ns.count() > 0, "sf10/4 communicates");
        let summary = t.block_latency_ns.summary();
        assert!(summary.p50 <= summary.p90 && summary.p99 <= summary.max);
        // A clean run never trips the drift monitor.
        let drift = t.drift.as_ref().expect("drift armed by default");
        assert_eq!(drift.steps_observed(), steps as u64);
        assert_eq!(
            drift.flagged_total(),
            0,
            "clean run flagged drift (worst: {:?})",
            drift.worst()
        );
        assert!(t.instants().is_empty(), "clean run has no fault instants");
    }

    #[test]
    fn thread_cpu_clock_stops_while_the_thread_is_off_cpu() {
        let Some(t0) = thread_cpu_secs() else {
            eprintln!("skipping: no thread CPU clock on this host");
            return;
        };
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu_secs().unwrap() - t0;
        assert!(slept < 0.015, "a sleeping thread ran {slept} s of CPU");
        // Spinning advances it.
        let t1 = thread_cpu_secs().unwrap();
        while thread_cpu_secs().unwrap() - t1 < 2e-3 {}
        assert_eq!(cpu_between(Some(t1), None), f64::INFINITY);
        assert_eq!(cpu_between(Some(1.0), Some(1.5)), 0.5);
    }

    #[test]
    fn telemetry_drift_loads_match_counter_convention() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        let x = random_x(mesh.node_count(), 59);
        let mut exec = BspExecutor::new(&sys, 2);
        exec.enable_telemetry(TelemetryConfig::default());
        exec.step(&x);
        let report = exec.report();
        // The loads armed into the drift monitor use the sent+received
        // convention, so observed per-step counters must agree with them
        // (and with the characterization).
        assert_eq!(report.c_max(), analysis.c_max());
        let t = exec.telemetry().unwrap();
        let words_recorded: u64 = t.block_words.sum() as u64;
        let words_counted: u64 = report.pe.iter().map(|c| c.words_received).sum();
        assert_eq!(words_recorded, words_counted, "histogram covers all blocks");
    }

    #[test]
    fn chaos_run_with_telemetry_records_faults_and_recovery() {
        let (mesh, _, sys) = setup(6);
        let x = random_x(mesh.node_count(), 61);
        let steps = 5;

        let mut clean = BspExecutor::new(&sys, 4);
        let mut y_clean = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            clean.step_into(&x, &mut y_clean);
        }

        let mut chaos = BspExecutor::new(&sys, 4);
        chaos.enable_faults(all_kinds_plan());
        chaos.enable_telemetry(TelemetryConfig::default());
        let mut y_chaos = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..steps {
            chaos.step_into(&x, &mut y_chaos);
        }

        assert_bitwise_equal(&y_clean, &y_chaos, "chaos + telemetry");
        let t = chaos.telemetry().expect("telemetry armed");
        assert_eq!(t.steps, steps as u64);
        // The chaos path re-runs the crash once, and every injected fault
        // leaves an instant in the trace. The re-run is booked on the crashed PE's lane (PE 3, step 2),
        // and nowhere else.
        let recovers: Vec<(u32, u64)> = t
            .spans
            .iter()
            .filter(|s| s.phase == PhaseId::Recover)
            .map(|s| (s.pe, s.step))
            .collect();
        assert_eq!(recovers, [(3, 2)], "one re-run, on the crashed PE");
        assert!(t
            .instants()
            .iter()
            .any(|i| i.name == "recover:rerun" && i.pe == 3 && i.step == 2));
        let names: Vec<&str> = t.instants().iter().map(|i| i.name).collect();
        for expected in ["fault:straggle", "fault:crash", "recover:rerun"] {
            assert!(names.contains(&expected), "missing instant {expected}");
        }
        assert!(t.block_latency_ns.count() > 0);
    }

    #[test]
    fn telemetry_span_ring_respects_configured_capacity() {
        let (mesh, _, sys) = setup(4);
        let x = random_x(mesh.node_count(), 67);
        let mut exec = BspExecutor::new(&sys, 2);
        exec.enable_telemetry(TelemetryConfig {
            span_capacity: 8,
            instant_capacity: 4,
            drift: None,
        });
        let mut y = vec![Vec3::ZERO; mesh.node_count()];
        for _ in 0..5 {
            exec.step_into(&x, &mut y);
        }
        let t = exec.telemetry().unwrap();
        assert_eq!(t.spans.capacity(), 8);
        assert_eq!(t.spans.len(), 8);
        assert!(t.spans.dropped() > 0, "ring wrapped");
        assert!(t.drift.is_none());
    }
}
