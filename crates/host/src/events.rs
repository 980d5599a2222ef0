//! The typed host-event stream that decouples functional emulation from
//! its observers.
//!
//! The software layer retires host instructions millions of times per
//! run, each tagged with the component — a TOL module or the
//! application — that executed it. Rather than calling an observer
//! closure once per retired instruction — which couples the emulation
//! loop to every consumer and forbids batching — the layer stages
//! [`HostEvent::Retire`]s in an [`EventBuffer`] and delivers them to a
//! [`HostEventSink`] in batches; the controller adds its step boundaries
//! between engine steps. Consumers (timing pipelines, the co-simulation
//! checker, delivery accounting) implement the sink trait and receive
//! whole batches; the *order* of events inside and across batches is
//! exactly retire order, so where a batch ends is invisible to every
//! consumer that acts on an event. A stream appended in one piece (an
//! interpreter template, a few dozen events) never spans two batches.

use crate::stream::{DynInst, DynOp};
use darco_guest::CpuState;
use serde::Serialize;

/// The [`EventBuffer`] capacity the software layer stages with (events
/// per delivered batch).
pub const EVENT_BATCH: usize = 4096;

/// One event on the host retirement stream.
///
/// The software layer puts only retirements on the bus; what a TOL
/// module did is told by the component tag of the instructions it
/// retired. The controller puts a step boundary between engine steps,
/// for the co-simulation checker.
#[derive(Debug, Clone)]
pub enum HostEvent {
    /// A host instruction retired.
    Retire(DynInst),
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
const FILLER: HostEvent =
    HostEvent::Retire(DynInst::plain(0, crate::ExecClass::SimpleInt, crate::Component::AppCode));

/// The retirement in a slot: every slot an [`EventBuffer`] writes holds
/// one, since it stages nothing else.
#[inline]
fn retirement(slot: &mut HostEvent) -> &mut DynInst {
    match slot {
        HostEvent::Retire(d) => d,
        _ => unreachable!("an EventBuffer stages retirements only"),
    }
}

/// An [`EventBuffer`]'s slots between two buffers, so that a producer
/// keeps one allocation across steps. Only
/// [`EventBuffer::into_storage`] fills one, with retirements.
#[derive(Debug, Default)]
pub struct EventStorage(Vec<HostEvent>);

impl EventStorage {
    /// Heap bytes of the slots: every one of the last buffer's capacity,
    /// as [`EventBuffer::from_storage`] makes them all.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.0[..])
    }

    /// Address and capacity of the slots' allocation, for tests.
    #[doc(hidden)]
    pub fn allocation(&self) -> (*const HostEvent, usize) {
        (self.0.as_ptr(), self.0.capacity())
    }
}

/// The events one [`EventBuffer::retire_stream`] call has just staged,
/// lent out for patching.
#[derive(Debug)]
pub struct Staged<'s>(&'s mut [HostEvent]);

impl Staged<'_> {
    /// The `i`-th retirement of the stream.
    #[inline]
    pub fn retired(&mut self, i: usize) -> &mut DynInst {
        retirement(&mut self.0[i])
    }

    /// Retirements in the stream.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for an empty stream.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Fixed-capacity staging buffer between an event producer and a sink.
/// It stages retirements only: the controller hands its step boundaries
/// to the sink itself.
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
/// Slots are written by index. All of them are made when the buffer is
/// built (fillers, unless the storage already holds them), so an append
/// is a compare and a 24-byte store.
pub struct EventBuffer<'a> {
    /// One slot per event of a batch: `buf[..len]` is the staged batch;
    /// anything behind it has been delivered already.
    buf: Vec<HostEvent>,
    len: usize,
    sink: &'a mut dyn HostEventSink,
}

impl<'a> EventBuffer<'a> {
    /// Creates a buffer delivering batches of at most `capacity` events.
    pub fn new(capacity: usize, sink: &'a mut dyn HostEventSink) -> EventBuffer<'a> {
        EventBuffer::from_storage(EventStorage::default(), capacity, sink)
    }

    /// Creates a buffer reusing an existing allocation (producers keep
    /// the storage across steps to avoid re-allocating per dispatch).
    /// Nothing left in `storage` is ever delivered.
    pub fn from_storage(
        EventStorage(mut storage): EventStorage,
        capacity: usize,
        sink: &'a mut dyn HostEventSink,
    ) -> EventBuffer<'a> {
        let capacity = capacity.max(1);
        storage.truncate(capacity);
        storage.reserve_exact(capacity - storage.len());
        storage.resize(capacity, FILLER);
        EventBuffer { buf: storage, len: 0, sink }
    }

    /// Delivers the staged batch when an append finds no room behind
    /// it: once per full batch.
    #[cold]
    fn make_room(&mut self) {
        self.flush();
    }

    /// The next free slot.
    #[inline]
    fn slot(&mut self) -> &mut HostEvent {
        if self.len == self.buf.len() {
            self.make_room();
        }
        self.len += 1;
        &mut self.buf[self.len - 1]
    }

    /// Appends a retired host instruction built by the caller.
    #[inline]
    pub fn retire(&mut self, d: DynInst) {
        *self.slot() = HostEvent::Retire(d);
    }

    /// Appends `template` retiring at `pc` — an 8-byte store and a
    /// 16-byte copy — and lends it out for patching in the slot.
    /// (Pushing a patched stack copy re-reads bytes the patch has only
    /// just stored: a store-forwarding stall per event.)
    /// Every slot holds a retirement, so the slot is overwritten in
    /// place: one tag test, nothing dropped.
    #[inline]
    pub fn retire_in_place(&mut self, pc: u64, template: &DynOp) -> &mut DynInst {
        let d = retirement(self.slot());
        *d = template.at(pc);
        d
    }

    /// Appends a whole retirement stream by block copy, then hands the
    /// appended events to `patch`. A stream that does not fit the room
    /// left starts a new batch.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is longer than the capacity: a stream must fit
    /// one batch (the interpreter's templates, its one producer, are a
    /// few dozen events against [`EVENT_BATCH`]).
    #[inline]
    pub fn retire_stream(&mut self, stream: &[DynInst], patch: impl FnOnce(Staged<'_>)) {
        if self.len + stream.len() > self.buf.len() {
            self.make_room();
        }
        let slots = &mut self.buf[self.len..self.len + stream.len()];
        for (slot, d) in slots.iter_mut().zip(stream) {
            *slot = HostEvent::Retire(*d);
        }
        patch(Staged(slots));
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
    pub fn into_storage(mut self) -> EventStorage {
        self.flush();
        EventStorage(self.buf)
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
            .field("capacity", &self.buf.len())
            .finish()
    }
}

/// Delivery accounting of the event stream: how many events the bus
/// carried, in how many batches. Where a batch ends depends only on
/// [`EVENT_BATCH`] and on where the producer and the controller flush,
/// so the accounting is as deterministic as the stream and is part of
/// the serialized report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TraceStats {
    /// Events delivered.
    pub events: u64,
    /// Batches delivered.
    pub batches: u64,
    /// Largest single batch.
    pub max_batch: u64,
}

/// A sink that reduces the stream to [`TraceStats`], once per batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStatsSink {
    /// The running totals.
    pub stats: TraceStats,
}

impl TraceStatsSink {
    /// Accounts for one delivered batch of `len` events.
    #[inline]
    pub fn batch(&mut self, len: usize) {
        let s = &mut self.stats;
        s.events += len as u64;
        s.batches += 1;
        s.max_batch = s.max_batch.max(len as u64);
    }
}

impl HostEventSink for TraceStatsSink {
    fn consume(&mut self, batch: &[HostEvent]) {
        self.batch(batch.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Component, ExecClass};

    fn at(pc: u64) -> DynInst {
        DynInst::plain(pc, ExecClass::SimpleInt, Component::AppCode)
    }

    fn retire_at(pc: u64) -> HostEvent {
        HostEvent::Retire(at(pc))
    }

    #[test]
    fn host_event_is_one_retirement_record() {
        // The benchmark reports `host.event_bytes` as an exact metric;
        // the other variants live in the record's spare class values.
        assert_eq!(std::mem::size_of::<HostEvent>(), std::mem::size_of::<DynInst>());
        assert_eq!(std::mem::size_of::<HostEvent>(), 24);
        assert_eq!(std::mem::size_of::<DynInst>(), 24);
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
                buf.retire(at(pc * 4));
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
                buf.retire(at(pc));
            }
            buf.flush();
        }
        assert_eq!(sink.stats.events, 40);
        assert_eq!(sink.stats.batches, 3, "16 + 16 + 8");
        assert_eq!(sink.stats.max_batch, 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_stream_longer_than_a_batch_panics() {
        let mut out: Vec<HostEvent> = Vec::new();
        EventBuffer::new(2, &mut out).retire_stream(&[at(0), at(4), at(8)], |_| {});
    }

    #[test]
    fn storage_round_trip_reuses_allocation() {
        // The storage comes back with its slots still written (it is
        // index-addressed, not cleared); what must hold is that the next
        // buffer built on it neither reallocates nor delivers any of
        // them again.
        let mut out: Vec<HostEvent> = Vec::new();
        let mut buf = EventBuffer::new(1024, &mut out);
        buf.retire(at(0));
        let storage = buf.into_storage();
        let allocation = storage.allocation();
        let mut buf = EventBuffer::from_storage(storage, 1024, &mut out);
        assert_eq!(buf.pending(), 0, "a delivered event is not staged again");
        buf.retire(at(4));
        let storage = buf.into_storage();
        assert_eq!(storage.allocation(), allocation, "allocation survives");
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
    fn trace_stats_count_every_variant_once_per_batch() {
        let mut sink = TraceStatsSink::default();
        sink.consume(&[
            retire_at(0),
            HostEvent::StepBoundary { guest_insts: 1, emulated: Box::new(CpuState::at(0)) },
        ]);
        sink.consume(&[retire_at(4)]);
        assert_eq!(sink.stats, TraceStats { events: 3, batches: 2, max_batch: 2 });
    }

    #[test]
    fn retire_sink_filters_non_retires() {
        let mut n = 0u64;
        let mut sink = RetireSink(|_d: &DynInst| n += 1);
        sink.consume(&[
            retire_at(0),
            HostEvent::StepBoundary { guest_insts: 1, emulated: Box::new(CpuState::at(0)) },
            retire_at(4),
        ]);
        assert_eq!(n, 2);
    }
}
