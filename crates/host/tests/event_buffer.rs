//! The [`EventBuffer`] contract, against a plain `Vec` model.
//!
//! Whatever mix of by-value pushes, in-place single appends, in-place
//! streams, explicit flushes and storage round trips a producer makes,
//! the sink must see exactly the appended events, patched, in order, in
//! batches no longer than the capacity.

use darco_guest::CpuState;
use darco_host::events::{EventBuffer, ExecMode};
use darco_host::{Component, DynInst, ExecClass, HostEvent, HostEventSink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Records every batch it is handed.
#[derive(Default)]
struct Recorder {
    batches: Vec<Vec<HostEvent>>,
    /// Address of the state inside every `StepBoundary`, as delivered.
    boundary_states: Vec<*const CpuState>,
}

impl HostEventSink for Recorder {
    fn consume(&mut self, batch: &[HostEvent]) {
        for e in batch {
            if let HostEvent::StepBoundary { emulated, .. } = e {
                self.boundary_states.push(&**emulated);
            }
        }
        self.batches.push(batch.to_vec());
    }
}

/// `HostEvent` has no `PartialEq` (a `StepBoundary` owns a boxed
/// `CpuState`); retirements compare by value, the rest by text.
fn same(a: &HostEvent, b: &HostEvent) -> bool {
    match (a, b) {
        (HostEvent::Retire(x), HostEvent::Retire(y)) => x == y,
        _ => format!("{a:?}") == format!("{b:?}"),
    }
}

fn load(pc: u64) -> DynInst {
    DynInst::plain(pc, ExecClass::Load, Component::TolIm).with_mem(0, 8, false)
}

fn retired(e: &mut HostEvent) -> &mut DynInst {
    e.as_retire_mut().expect("in-place slots are retirements")
}

/// What one scripted run delivered.
struct Outcome {
    model: Vec<HostEvent>,
    sink: Recorder,
    /// Address of the state inside every `StepBoundary`, as pushed.
    pushed_states: Vec<*const CpuState>,
}

/// Drives one random script of appends against `capacity`, mirroring
/// every appended (and patched) event into a plain `Vec`.
fn run_script(capacity: usize, seed: u64, ops: usize) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sink = Recorder::default();
    let mut model: Vec<HostEvent> = Vec::new();
    let mut pushed_states = Vec::new();
    let mut next = 0u64; // a value no earlier event carries
    let mut fresh = || {
        next += 1;
        next
    };
    let stream_lens = [1, capacity.saturating_sub(1), capacity, capacity + 1, 40];

    let mut storage: Vec<HostEvent> = Vec::new();
    let mut allocation = None;
    let mut ops_left = ops;
    while ops_left > 0 {
        let mut ev = EventBuffer::from_storage(std::mem::take(&mut storage), capacity, &mut sink);
        assert_eq!(ev.pending(), 0, "a round trip must not carry staged events over");
        // One "step": a handful of appends, then the storage goes back.
        for _ in 0..rng.gen_range(1..12usize).min(ops_left) {
            ops_left -= 1;
            match rng.gen_range(0..10u32) {
                0 => {
                    let e = HostEvent::Translated {
                        entry: fresh() as u32,
                        kind: darco_host::events::TranslationKind::Bb,
                        host_len: 3,
                    };
                    model.push(e.clone());
                    ev.push(e);
                }
                1 => {
                    let e = HostEvent::ModeEnter(ExecMode::Sbm);
                    model.push(e.clone());
                    ev.push(e);
                }
                2 | 3 => {
                    let d = load(fresh());
                    model.push(HostEvent::Retire(d));
                    ev.retire(d);
                }
                4 | 5 => {
                    let tpl = load(fresh());
                    let addr = fresh();
                    let d = ev.retire_in_place(&tpl);
                    assert_eq!(*d, tpl, "the slot holds the template until patched");
                    d.mem.as_mut().expect("a load").addr = addr;
                    let mut want = tpl;
                    want.mem.as_mut().expect("a load").addr = addr;
                    model.push(HostEvent::Retire(want));
                }
                6 | 7 => {
                    let len = stream_lens[rng.gen_range(0..stream_lens.len())].max(1);
                    let base = fresh();
                    let tpl: Vec<DynInst> = (0..len as u64).map(|i| load(base << 16 | i)).collect();
                    // Patch the first, the last and one in the middle.
                    let marks = [0, len / 2, len - 1];
                    let addr = fresh();
                    ev.retire_stream(&tpl, |evs| {
                        assert_eq!(evs.len(), len, "the whole stream is handed out at once");
                        for m in marks {
                            retired(&mut evs[m]).mem.as_mut().expect("a load").addr = addr;
                        }
                    });
                    let mut want = tpl;
                    for m in marks {
                        want[m].mem.as_mut().expect("a load").addr = addr;
                    }
                    model.extend(want.into_iter().map(HostEvent::Retire));
                }
                8 => {
                    let guest_insts = fresh();
                    let state = Box::new(CpuState::at(guest_insts as u32));
                    pushed_states.push(&*state as *const CpuState);
                    model.push(HostEvent::StepBoundary { guest_insts, emulated: state.clone() });
                    ev.push(HostEvent::StepBoundary { guest_insts, emulated: state });
                }
                _ => {
                    ev.flush();
                    assert_eq!(ev.pending(), 0);
                    ev.flush(); // on empty: must not deliver an empty batch
                }
            }
            assert!(ev.pending() <= capacity, "staged events exceed the capacity");
        }
        storage = ev.into_storage();
        // The buffer keeps the allocation it started with.
        let now = (storage.as_ptr(), storage.capacity());
        assert_eq!(*allocation.get_or_insert(now), now, "the buffer reallocated");
    }
    Outcome { model, sink, pushed_states }
}

fn check(capacity: usize, seed: u64, ops: usize) {
    let out = run_script(capacity, seed, ops);
    let ctx = format!("capacity {capacity}, seed {seed}");
    let lens: Vec<usize> = out.sink.batches.iter().map(Vec::len).collect();
    assert!(lens.iter().all(|&n| (1..=capacity).contains(&n)), "{ctx}: batch lengths {lens:?}");
    let delivered: Vec<&HostEvent> = out.sink.batches.iter().flatten().collect();
    assert_eq!(delivered.len(), out.model.len(), "{ctx}: event count");
    for (i, (got, want)) in delivered.iter().zip(&out.model).enumerate() {
        assert!(same(got, want), "{ctx}: event {i} is {got:?}, the model says {want:?}");
    }
    // A boundary's boxed state is moved into the buffer and lent on to
    // the sink — one owner throughout, so one drop.
    assert_eq!(out.sink.boundary_states, out.pushed_states, "{ctx}: boxed states were copied");
}

#[test]
fn random_interleavings_match_the_vec_model() {
    for capacity in [1, 2, 3, 64] {
        for seed in 0..40 {
            check(capacity, seed, 300);
        }
    }
    // Streams of 4 095 / 4 096 / 4 097 events make these scripts long.
    for seed in 0..6 {
        check(4096, seed, 60);
    }
}

#[test]
fn zero_capacity_means_one() {
    let mut sink = Recorder::default();
    let mut ev = EventBuffer::new(0, &mut sink);
    ev.retire(load(1));
    ev.retire_stream(&[load(2), load(3)], |_| {});
    ev.flush();
    let lens: Vec<usize> = sink.batches.iter().map(Vec::len).collect();
    assert_eq!(lens, [1, 1, 1]);
}
