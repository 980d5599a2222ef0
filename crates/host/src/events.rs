//! The typed host-event stream that decouples functional emulation from
//! its observers.
//!
//! The software layer retires host instructions and performs
//! module-level activities (translation, chaining, code-cache
//! management, IBTC resolution) millions of times per run. Rather than
//! calling an observer closure once per retired instruction — which
//! couples the emulation loop to every consumer and forbids batching or
//! overlap — the layer pushes typed [`HostEvent`]s into an
//! [`EventBuffer`] and delivers them to a [`HostEventSink`] in batches.
//! Consumers (timing pipelines, the co-simulation checker, trace
//! statistics) implement the sink trait and receive whole batches; the
//! *order* of events inside and across batches is exactly retire order,
//! so where a batch ends is invisible to every consumer.

use crate::stream::DynInst;
use darco_guest::CpuState;
use serde::{Deserialize, Serialize};

/// The [`EventBuffer`] capacity the software layer stages with (events
/// per delivered batch).
pub const EVENT_BATCH: usize = 4096;

/// Execution mode of the software layer (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecMode {
    /// Interpretation.
    Im,
    /// Basic-block translation mode.
    Bbm,
    /// Superblock mode.
    Sbm,
}

impl ExecMode {
    /// Index into `[IM, BBM, SBM]` arrays.
    pub fn index(self) -> usize {
        match self {
            ExecMode::Im => 0,
            ExecMode::Bbm => 1,
            ExecMode::Sbm => 2,
        }
    }
}

/// What kind of translation a code-cache block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TranslationKind {
    /// A basic block (BBM).
    Bb,
    /// An optimized superblock (SBM).
    Sb,
}

/// One event on the host retirement stream.
///
/// `Retire` dominates the stream by orders of magnitude; the remaining
/// variants are module-level markers that let sinks reconstruct the
/// layer's control flow without touching the engine.
#[derive(Debug, Clone)]
pub enum HostEvent {
    /// A host instruction retired.
    Retire(DynInst),
    /// The dispatcher entered an execution mode for the next unit.
    ModeEnter(ExecMode),
    /// A region was translated (BBM) or formed + optimized (SBM).
    Translated {
        /// Guest entry address of the region.
        entry: u32,
        /// Block kind produced.
        kind: TranslationKind,
        /// Host instructions emitted into the code cache.
        host_len: u32,
    },
    /// A direct exit was patched to jump straight to its successor.
    Chained {
        /// Host PC of the patched exit instruction.
        site: u64,
    },
    /// A translation was installed into the code cache.
    CacheInsert {
        /// Guest entry address.
        entry: u32,
        /// Whether installing forced a full cache flush (eviction).
        flushed: bool,
    },
    /// A translation was evicted from the code cache — capacity
    /// pressure or a same-entry replacement under a partial-eviction
    /// policy, or a self-modifying-code invalidation under any policy.
    /// Whole-cache flushes are reported via
    /// [`HostEvent::CacheInsert`]`::flushed`, not per-block evictions.
    Evict {
        /// Guest entry address of the evicted translation.
        entry: u32,
        /// Whether a guest write to translated code forced the eviction.
        smc: bool,
    },
    /// A chain link into an evicted translation was unpatched, so the
    /// chaining site exits to the software layer again.
    Unchain {
        /// Host PC of the unpatched exit instruction.
        site: u64,
    },
    /// An indirect-branch target was looked up in the IBTC.
    IbtcResolve {
        /// Guest target address.
        target: u32,
        /// Whether the IBTC held the translation.
        hit: bool,
    },
    /// A dispatch-unit boundary: the controller finished one engine step.
    /// Carries the layer's emulated architectural state so a
    /// co-simulation sink can compare it against the authoritative
    /// emulator without reaching back into the engine.
    StepBoundary {
        /// Total guest instructions retired so far.
        guest_insts: u64,
        /// The emulated guest state at the boundary.
        emulated: Box<CpuState>,
    },
    /// A timeline-window boundary requested by the controller.
    WindowMark {
        /// Total guest instructions retired so far.
        guest_insts: u64,
    },
}

impl HostEvent {
    /// The retired instruction, if this is a [`HostEvent::Retire`] — for
    /// patching events an [`EventBuffer`] has staged in place.
    #[inline]
    pub fn as_retire_mut(&mut self) -> Option<&mut DynInst> {
        match self {
            HostEvent::Retire(d) => Some(d),
            _ => None,
        }
    }
}

/// A consumer of the host-event stream.
///
/// Sinks receive events in batches; within and across batches the order
/// is exactly retire/emission order, so any per-instruction consumer can
/// be expressed as a batch consumer with identical results.
pub trait HostEventSink {
    /// Consumes one ordered batch of events.
    fn consume(&mut self, batch: &[HostEvent]);
}

/// Collects every event (useful in tests).
impl HostEventSink for Vec<HostEvent> {
    fn consume(&mut self, batch: &[HostEvent]) {
        self.extend_from_slice(batch);
    }
}

/// Discards the stream (functional-only runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl HostEventSink for NullSink {
    fn consume(&mut self, _batch: &[HostEvent]) {}
}

/// Adapts a per-retired-instruction closure to the batched interface,
/// ignoring non-retire events. Handy for counters and filters.
#[derive(Debug)]
pub struct RetireSink<F: FnMut(&DynInst)>(pub F);

impl<F: FnMut(&DynInst)> HostEventSink for RetireSink<F> {
    fn consume(&mut self, batch: &[HostEvent]) {
        for e in batch {
            if let HostEvent::Retire(d) = e {
                (self.0)(d);
            }
        }
    }
}

/// What a staging slot holds before its first event (no heap state).
const FILLER: HostEvent = HostEvent::ModeEnter(ExecMode::Im);

/// Slots an [`EventBuffer`] adds at a time while its vector grows.
const GROW: usize = 64;

/// Fixed-capacity staging buffer between an event producer and a sink.
///
/// Three invariants hold for every way of appending:
///
/// 1. **Order is retire order**, within and across batches.
/// 2. **A batch never exceeds the capacity**: an append that finds the
///    buffer full delivers the staged batch *first*, then writes slot 0.
/// 3. **Nothing handed out in place is delivered before its patch**:
///    [`retire_in_place`](Self::retire_in_place) and
///    [`retire_stream`](Self::retire_stream) lend out freshly written
///    slots, and no append calls the sink once a slot is out.
///
/// Producers flush explicitly at natural boundaries (budget expiry,
/// control returning to the dispatcher), so a batch never crosses a
/// point where the controller needs the stream drained.
///
/// Slots are written by index. The vector behind them grows — 64
/// fillers at a time, inside the one allocation made up front — only
/// while slots are used for the first time: the buffer has all of them
/// after its first full batch, and from then on an append is a compare
/// and a 48-byte store.
pub struct EventBuffer<'a> {
    /// `buf[..len]` is the staged batch; anything behind it has been
    /// delivered already.
    buf: Vec<HostEvent>,
    len: usize,
    capacity: usize,
    sink: &'a mut dyn HostEventSink,
}

impl<'a> EventBuffer<'a> {
    /// Creates a buffer delivering batches of at most `capacity` events.
    pub fn new(capacity: usize, sink: &'a mut dyn HostEventSink) -> EventBuffer<'a> {
        EventBuffer::from_storage(Vec::new(), capacity, sink)
    }

    /// Creates a buffer reusing an existing allocation (producers keep
    /// the storage across steps to avoid re-allocating per dispatch).
    /// Nothing left in `storage` is ever delivered.
    pub fn from_storage(
        mut storage: Vec<HostEvent>,
        capacity: usize,
        sink: &'a mut dyn HostEventSink,
    ) -> EventBuffer<'a> {
        let capacity = capacity.max(1);
        storage.truncate(capacity);
        storage.reserve_exact(capacity - storage.len());
        EventBuffer { buf: storage, len: 0, capacity, sink }
    }

    /// Makes slots `len..len + n` exist (`n` ≤ capacity), delivering the
    /// staged batch first if they do not fit behind it. Once every slot
    /// has been used, this runs once per batch.
    #[cold]
    fn make_room(&mut self, n: usize) {
        if n > self.capacity - self.len {
            self.flush();
        }
        let want = (self.len + n.max(GROW)).min(self.capacity);
        let missing = want.saturating_sub(self.buf.len());
        self.buf.extend((0..missing).map(|_| FILLER));
    }

    /// The next free slot.
    #[inline]
    fn slot(&mut self) -> &mut HostEvent {
        if self.len == self.buf.len() {
            self.make_room(1);
        }
        self.len += 1;
        &mut self.buf[self.len - 1]
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, e: HostEvent) {
        *self.slot() = e;
    }

    /// Appends a retired host instruction built by the caller.
    #[inline]
    pub fn retire(&mut self, d: DynInst) {
        self.push(HostEvent::Retire(d));
    }

    /// Appends a copy of `template` and lends it out for patching in
    /// the slot. (Pushing a patched stack copy re-reads bytes the patch
    /// has only just stored: a store-forwarding stall per event.)
    #[inline]
    pub fn retire_in_place(&mut self, template: &DynInst) -> &mut DynInst {
        let slot = self.slot();
        *slot = HostEvent::Retire(*template);
        slot.as_retire_mut().expect("the slot was just written as a retirement")
    }

    /// Appends a whole retirement stream by block copy, then hands the
    /// appended events to `patch`. A stream that does not fit the room
    /// left starts a new batch; one longer than a whole batch is patched
    /// in a side buffer and appended event by event.
    #[inline]
    pub fn retire_stream(&mut self, stream: &[DynInst], patch: impl FnOnce(&mut [HostEvent])) {
        if self.len + stream.len() > self.buf.len() {
            if stream.len() > self.capacity {
                let mut side: Vec<HostEvent> =
                    stream.iter().map(|d| HostEvent::Retire(*d)).collect();
                patch(&mut side);
                side.into_iter().for_each(|e| self.push(e));
                return;
            }
            self.make_room(stream.len());
        }
        let slots = &mut self.buf[self.len..self.len + stream.len()];
        for (slot, d) in slots.iter_mut().zip(stream) {
            *slot = HostEvent::Retire(*d);
        }
        patch(slots);
        self.len += stream.len();
    }

    /// Delivers all buffered events to the sink, preserving order; the
    /// storage is reused for the next batch.
    pub fn flush(&mut self) {
        let n = std::mem::take(&mut self.len);
        if n > 0 {
            self.sink.consume(&self.buf[..n]);
        }
    }

    /// Flushes and returns the storage for reuse.
    pub fn into_storage(mut self) -> Vec<HostEvent> {
        self.flush();
        self.buf
    }

    /// Events currently staged.
    pub fn pending(&self) -> usize {
        self.len
    }
}

impl std::fmt::Debug for EventBuffer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBuffer")
            .field("pending", &self.len)
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// Aggregate statistics over the event stream, independent of any
/// timing model — what the controller's report exposes as the
/// trace-level view of a run.
///
/// `Serialize`/`Deserialize` are implemented by hand (not derived)
/// because the batch-accounting fields (`batches`, `max_batch`) stay
/// *out* of the serialized form: they are delivery accounting, not
/// simulation — where a batch ends depends on [`EVENT_BATCH`] and on
/// where the producer flushes, and no simulated quantity does.
/// Deserialized stats carry zeros there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Host instructions retired.
    pub retired: u64,
    /// Retired host instructions per [`Component`], in
    /// [`Component::ALL`] order.
    ///
    /// [`Component`]: crate::stream::Component
    /// [`Component::ALL`]: crate::stream::Component::ALL
    pub component_insts: [u64; 7],
    /// Dispatch-unit entries per mode `[IM, BBM, SBM]`.
    pub mode_enters: [u64; 3],
    /// Basic-block translations performed.
    pub bb_translations: u64,
    /// Superblocks formed and optimized.
    pub sb_translations: u64,
    /// Host instructions emitted into the code cache by translations.
    pub translated_host_insts: u64,
    /// Exit-chaining patches.
    pub chains: u64,
    /// Code-cache installs.
    pub cache_inserts: u64,
    /// Code-cache flushes triggered by installs.
    pub cache_flushes: u64,
    /// Per-block code-cache evictions (partial eviction + SMC).
    pub evictions: u64,
    /// Evictions forced by guest writes to translated code.
    pub smc_evictions: u64,
    /// Chain links unpatched because their target was evicted.
    pub unchains: u64,
    /// IBTC lookups that hit.
    pub ibtc_hits: u64,
    /// IBTC lookups that missed.
    pub ibtc_misses: u64,
    /// Dispatch-unit boundaries observed.
    pub step_boundaries: u64,
    /// Timeline-window marks observed.
    pub window_marks: u64,
    /// Batches delivered. Not serialized (see the type docs).
    pub batches: u64,
    /// Largest single batch. Not serialized (see the type docs).
    pub max_batch: u64,
}

/// `(name, get, set)` triples for the *serialized* subset of
/// [`TraceStats`] — everything except the batch accounting.
macro_rules! trace_stats_serialized_fields {
    ($m:ident) => {
        $m!(
            retired,
            component_insts,
            mode_enters,
            bb_translations,
            sb_translations,
            translated_host_insts,
            chains,
            cache_inserts,
            cache_flushes,
            evictions,
            smc_evictions,
            unchains,
            ibtc_hits,
            ibtc_misses,
            step_boundaries,
            window_marks
        )
    };
}

impl Serialize for TraceStats {
    fn to_value(&self) -> serde::Value {
        macro_rules! obj {
            ($($f:ident),*) => {
                serde::Value::Obj(vec![
                    $((stringify!($f).to_string(), Serialize::to_value(&self.$f)),)*
                ])
            };
        }
        trace_stats_serialized_fields!(obj)
    }
}

impl Deserialize for TraceStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        macro_rules! de {
            ($($f:ident),*) => {
                Ok(TraceStats {
                    $($f: Deserialize::from_value(serde::field(v, stringify!($f))?)?,)*
                    batches: 0,
                    max_batch: 0,
                })
            };
        }
        trace_stats_serialized_fields!(de)
    }
}

/// A sink that reduces the stream to [`TraceStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStatsSink {
    /// The running totals.
    pub stats: TraceStats,
}

impl TraceStatsSink {
    /// Accounts for one delivered batch of `len` events.
    #[inline]
    pub fn batch(&mut self, len: usize) {
        self.stats.batches += 1;
        self.stats.max_batch = self.stats.max_batch.max(len as u64);
    }

    /// Tallies one event.
    #[inline(always)]
    pub fn event(&mut self, e: &HostEvent) {
        let s = &mut self.stats;
        match e {
            HostEvent::Retire(d) => {
                s.retired += 1;
                s.component_insts[d.component.index()] += 1;
            }
            HostEvent::ModeEnter(m) => s.mode_enters[m.index()] += 1,
            HostEvent::Translated { kind, host_len, .. } => {
                match kind {
                    TranslationKind::Bb => s.bb_translations += 1,
                    TranslationKind::Sb => s.sb_translations += 1,
                }
                s.translated_host_insts += u64::from(*host_len);
            }
            HostEvent::Chained { .. } => s.chains += 1,
            HostEvent::CacheInsert { flushed, .. } => {
                s.cache_inserts += 1;
                s.cache_flushes += u64::from(*flushed);
            }
            HostEvent::Evict { smc, .. } => {
                s.evictions += 1;
                s.smc_evictions += u64::from(*smc);
            }
            HostEvent::Unchain { .. } => s.unchains += 1,
            HostEvent::IbtcResolve { hit, .. } => {
                if *hit {
                    s.ibtc_hits += 1;
                } else {
                    s.ibtc_misses += 1;
                }
            }
            HostEvent::StepBoundary { .. } => s.step_boundaries += 1,
            HostEvent::WindowMark { .. } => s.window_marks += 1,
        }
    }
}

impl HostEventSink for TraceStatsSink {
    fn consume(&mut self, batch: &[HostEvent]) {
        self.batch(batch.len());
        for e in batch {
            self.event(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Component, ExecClass};

    fn retire_at(pc: u64) -> HostEvent {
        HostEvent::Retire(DynInst::plain(pc, ExecClass::SimpleInt, Component::AppCode))
    }

    #[test]
    fn host_event_stays_48_bytes() {
        // The benchmark reports `host.event_bytes` as an exact metric.
        assert_eq!(std::mem::size_of::<HostEvent>(), 48);
    }

    #[test]
    fn event_buffer_flush_preserves_retire_order() {
        // Push far more events than one batch holds; the delivered
        // stream must be the exact per-instruction retire order, with
        // batch boundaries invisible to the consumer.
        let mut out: Vec<HostEvent> = Vec::new();
        {
            let mut buf = EventBuffer::new(8, &mut out);
            for pc in 0..100u64 {
                buf.retire(DynInst::plain(pc * 4, ExecClass::SimpleInt, Component::AppCode));
            }
            assert!(buf.pending() < 8, "capacity flushes keep the buffer bounded");
            buf.flush();
        }
        assert_eq!(out.len(), 100);
        for (i, e) in out.iter().enumerate() {
            match e {
                HostEvent::Retire(d) => assert_eq!(d.pc, i as u64 * 4, "order broken at {i}"),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn event_buffer_batches_at_capacity() {
        let mut sink = TraceStatsSink::default();
        {
            let mut buf = EventBuffer::new(16, &mut sink);
            for pc in 0..40u64 {
                buf.push(retire_at(pc));
            }
            buf.flush();
        }
        assert_eq!(sink.stats.retired, 40);
        assert_eq!(sink.stats.batches, 3, "16 + 16 + 8");
        assert_eq!(sink.stats.max_batch, 16);
    }

    #[test]
    fn storage_round_trip_reuses_allocation() {
        // The storage comes back with its slots still written (it is
        // index-addressed, not cleared); what must hold is that the next
        // buffer built on it neither reallocates nor delivers any of
        // them again.
        let mut out: Vec<HostEvent> = Vec::new();
        let mut buf = EventBuffer::new(1024, &mut out);
        buf.push(retire_at(0));
        let storage = buf.into_storage();
        let allocation = (storage.as_ptr(), storage.capacity());
        let mut buf = EventBuffer::from_storage(storage, 1024, &mut out);
        assert_eq!(buf.pending(), 0, "a delivered event is not staged again");
        buf.push(retire_at(4));
        let storage = buf.into_storage();
        assert_eq!((storage.as_ptr(), storage.capacity()), allocation, "allocation survives");
        let pcs: Vec<u64> = out
            .iter()
            .map(|e| match e {
                HostEvent::Retire(d) => d.pc,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(pcs, [0, 4], "each event exactly once");
    }

    #[test]
    fn trace_stats_classify_events() {
        let mut sink = TraceStatsSink::default();
        sink.consume(&[
            retire_at(0),
            HostEvent::ModeEnter(ExecMode::Bbm),
            HostEvent::Translated { entry: 0x1000, kind: TranslationKind::Sb, host_len: 12 },
            HostEvent::Chained { site: 0x2_0000_0000 },
            HostEvent::CacheInsert { entry: 0x1000, flushed: true },
            HostEvent::Evict { entry: 0x1040, smc: false },
            HostEvent::Evict { entry: 0x1080, smc: true },
            HostEvent::Unchain { site: 0x2_0000_0010 },
            HostEvent::IbtcResolve { target: 0x1010, hit: true },
            HostEvent::IbtcResolve { target: 0x1014, hit: false },
            HostEvent::WindowMark { guest_insts: 10 },
        ]);
        let s = sink.stats;
        assert_eq!(s.retired, 1);
        assert_eq!(s.mode_enters, [0, 1, 0]);
        assert_eq!(s.sb_translations, 1);
        assert_eq!(s.translated_host_insts, 12);
        assert_eq!(s.chains, 1);
        assert_eq!((s.cache_inserts, s.cache_flushes), (1, 1));
        assert_eq!((s.evictions, s.smc_evictions, s.unchains), (2, 1, 1));
        assert_eq!((s.ibtc_hits, s.ibtc_misses), (1, 1));
        assert_eq!(s.window_marks, 1);
    }

    #[test]
    fn retire_sink_filters_non_retires() {
        let mut n = 0u64;
        let mut sink = RetireSink(|_d: &DynInst| n += 1);
        sink.consume(&[retire_at(0), HostEvent::ModeEnter(ExecMode::Im), retire_at(4)]);
        assert_eq!(n, 2);
    }

    #[test]
    fn trace_stats_serialization_omits_batch_accounting() {
        // Batch boundaries are delivery accounting; serialized reports
        // must not expose them.
        let mut sink = TraceStatsSink::default();
        {
            let mut buf = EventBuffer::new(4, &mut sink);
            for pc in 0..10u64 {
                buf.push(retire_at(pc * 4));
            }
            buf.flush();
        }
        let stats = sink.stats;
        assert!(stats.batches > 0 && stats.max_batch > 0);
        let back = TraceStats::from_value(&stats.to_value()).expect("round trip");
        assert_eq!((back.batches, back.max_batch), (0, 0), "not serialized");
        assert_eq!(TraceStats { batches: 0, max_batch: 0, ..stats }, back, "everything else is");
    }
}
