//! Zero-allocation-in-steady-state span recording for the BSP phases.
//!
//! The executor runs the same phase sequence thousands of times, so span
//! storage is a preallocated ring: once warm, recording a span is an index
//! write and a cursor bump — no allocator, no lock, no syscall. When the
//! ring fills, the oldest spans are overwritten (and counted), which keeps
//! the *most recent* window of execution for the Chrome-trace export — the
//! part a person debugging a drifting run actually wants to see.

/// The fixed span vocabulary: every phase the executor can attribute time
/// to, including the chaos layer's crash recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PhaseId {
    /// Gather replicated local `x` per PE.
    Assemble,
    /// Local SMVP per PE.
    Compute,
    /// Pairwise exchange-and-sum of neighbor contributions.
    Exchange,
    /// Wait at a phase barrier (phase wall minus this PE's own work).
    Barrier,
    /// Replicated results folded into the global vector.
    Fold,
    /// Fault recovery: a crashed worker's compute re-run inline.
    Recover,
    /// Overlapped step only: computing and publishing the boundary-row
    /// partials that neighbors consume (the "post outgoing blocks" window).
    Post,
    /// Transport wait: seconds the exchange spent blocked in
    /// `Transport::acquire` (sender progress, not this PE's load). Recorded
    /// nested inside the `Exchange` span so the profiler can split the
    /// exchange into apply work vs waiting on the wire.
    Wait,
    /// Node-aggregated exchange only: intra-node gather of boundary partials
    /// into the merged per-(node, node) block before it crosses the slow
    /// link. Recorded nested inside the `Exchange` span, like `Wait`.
    Gather,
}

impl PhaseId {
    /// Every phase, in execution order.
    pub const ALL: [PhaseId; 9] = [
        PhaseId::Assemble,
        PhaseId::Post,
        PhaseId::Compute,
        PhaseId::Exchange,
        PhaseId::Gather,
        PhaseId::Wait,
        PhaseId::Barrier,
        PhaseId::Fold,
        PhaseId::Recover,
    ];

    /// The stable lowercase name used in trace and metrics output.
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::Assemble => "assemble",
            PhaseId::Compute => "compute",
            PhaseId::Exchange => "exchange",
            PhaseId::Barrier => "barrier",
            PhaseId::Fold => "fold",
            PhaseId::Recover => "recover",
            PhaseId::Post => "post",
            PhaseId::Wait => "wait",
            PhaseId::Gather => "gather",
        }
    }

    /// Inverse of the snapshot codec's `phase as u8` encoding. Returns
    /// `None` for bytes no phase maps to (corrupt or future snapshots).
    pub fn from_u8(byte: u8) -> Option<PhaseId> {
        PhaseId::ALL.iter().copied().find(|p| *p as u8 == byte)
    }
}

/// One recorded span: a phase executed by one PE during one step.
///
/// Times are nanosecond offsets from the recorder's epoch (the executor's
/// construction instant), so spans from different PEs share one clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which phase.
    pub phase: PhaseId,
    /// Executing PE (or the driver lane, numbered after the last PE).
    pub pe: u32,
    /// BSP step the span belongs to.
    pub step: u64,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A point event (zero duration): injected faults, detections, restores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInstant {
    /// Stable event name (e.g. `fault:crash`, `recover:rerun`).
    pub name: &'static str,
    /// PE the event is attributed to.
    pub pe: u32,
    /// BSP step.
    pub step: u64,
    /// Nanoseconds since the recorder epoch.
    pub at_ns: u64,
}

/// A fixed-capacity overwrite-oldest ring of [`Span`]s.
///
/// # Examples
///
/// ```
/// use quake_core::telemetry::{PhaseId, Span, SpanRing};
/// let mut ring = SpanRing::new(2);
/// for step in 0..3 {
///     ring.push(Span { phase: PhaseId::Compute, pe: 0, step, start_ns: step * 10, dur_ns: 5 });
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.dropped(), 1);
/// // The oldest span (step 0) was overwritten.
/// assert_eq!(ring.iter().map(|s| s.step).collect::<Vec<_>>(), vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct SpanRing {
    buf: Vec<Span>,
    /// Index of the next write (== index of the oldest element when full).
    head: usize,
    len: usize,
    dropped: u64,
}

impl SpanRing {
    /// A ring holding at most `capacity` spans, fully preallocated.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span ring needs capacity >= 1");
        SpanRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Records a span, overwriting the oldest if full.
    #[inline]
    pub fn push(&mut self, span: Span) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(span);
            self.len += 1;
        } else {
            self.buf[self.head] = span;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.buf.capacity();
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum spans the ring can hold.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Accounts for `n` spans lost before they reached this ring (e.g.
    /// overwritten in a shard-local ring before its snapshot was merged).
    pub fn note_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Iterates the retained spans oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        let split = if self.len == self.buf.capacity() {
            self.head
        } else {
            0
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn span(step: u64) -> Span {
        Span {
            phase: PhaseId::Compute,
            pe: 0,
            step,
            start_ns: step,
            dur_ns: 1,
        }
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut r = SpanRing::new(3);
        assert!(r.is_empty());
        for s in 0..5 {
            r.push(span(s));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.iter().map(|s| s.step).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn phase_names_are_stable_and_distinct() {
        let names: std::collections::BTreeSet<&str> =
            PhaseId::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), PhaseId::ALL.len());
        for required in ["compute", "exchange", "barrier", "recover"] {
            assert!(names.contains(required), "missing span id {required:?}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = SpanRing::new(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wraparound_keeps_exactly_the_last_capacity_spans(
            capacity in 1usize..32,
            pushes in 0usize..200,
        ) {
            let mut r = SpanRing::new(capacity);
            for s in 0..pushes {
                r.push(span(s as u64));
            }
            prop_assert_eq!(r.len(), pushes.min(capacity));
            prop_assert_eq!(r.dropped(), pushes.saturating_sub(capacity) as u64);
            let kept: Vec<u64> = r.iter().map(|s| s.step).collect();
            let expect: Vec<u64> =
                (pushes.saturating_sub(capacity)..pushes).map(|s| s as u64).collect();
            prop_assert_eq!(kept, expect);
            // Steady state: the ring never grows past its preallocation.
            prop_assert!(r.capacity() == capacity);
        }
    }
}
