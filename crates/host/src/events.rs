//! The typed host-event stream that decouples functional emulation from
//! its observers.
//!
//! The software layer retires host instructions millions of times per
//! run, each tagged with the component — a TOL module or the
//! application — that executed it. Rather than calling an observer
//! closure once per retired instruction — which couples the emulation
//! loop to every consumer and forbids batching — the layer stages
//! [`HostEvent::Retire`]s in an [`EventBuffer`] and delivers them to a
//! [`HostEventSink`] in batches; the controller adds its own two marks
//! between engine steps. Consumers (timing pipelines, the co-simulation
//! checker, delivery accounting) implement the sink trait and receive
//! whole batches; the *order* of events inside and across batches is
//! exactly retire order, so where a batch ends is invisible to every
//! consumer that acts on an event.

use crate::stream::DynInst;
use darco_guest::CpuState;
use serde::Serialize;

/// The [`EventBuffer`] capacity the software layer stages with (events
/// per delivered batch).
pub const EVENT_BATCH: usize = 4096;

/// One event on the host retirement stream.
///
/// The software layer puts only retirements on the bus; what a TOL
/// module did is told by the component tag of the instructions it
/// retired. The other two variants are injected by the controller
/// between engine steps, for the observers that act on them.
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
const FILLER: HostEvent = HostEvent::WindowMark { guest_insts: 0 };

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
        assert_eq!(sink.stats.events, 40);
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
    fn trace_stats_count_every_variant_once_per_batch() {
        let mut sink = TraceStatsSink::default();
        sink.consume(&[
            retire_at(0),
            HostEvent::StepBoundary { guest_insts: 1, emulated: Box::new(CpuState::at(0)) },
            HostEvent::WindowMark { guest_insts: 10 },
        ]);
        sink.consume(&[retire_at(4)]);
        assert_eq!(sink.stats, TraceStats { events: 4, batches: 2, max_batch: 3 });
    }

    #[test]
    fn retire_sink_filters_non_retires() {
        let mut n = 0u64;
        let mut sink = RetireSink(|_d: &DynInst| n += 1);
        sink.consume(&[retire_at(0), HostEvent::WindowMark { guest_insts: 1 }, retire_at(4)]);
        assert_eq!(n, 2);
    }
}
