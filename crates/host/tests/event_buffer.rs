//! The [`EventBuffer`] contract, against a plain `Vec` model.
//!
//! Whatever mix of by-value retirements, in-place single appends,
//! in-place streams, explicit flushes and storage round trips a producer
//! makes, the sink must see exactly the appended retirements, patched,
//! in order, in batches no longer than the capacity.

use darco_host::events::{EventBuffer, EventStorage};
use darco_host::{Component, DynInst, ExecClass, HostEvent, HostEventSink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Records every batch it is handed, as the retirements it holds.
#[derive(Default)]
struct Recorder {
    batches: Vec<Vec<DynInst>>,
}

impl HostEventSink for Recorder {
    fn consume(&mut self, batch: &[HostEvent]) {
        let retired = batch.iter().map(|e| match e {
            HostEvent::Retire(d) => *d,
            other => panic!("the buffer delivered a non-retirement: {other:?}"),
        });
        self.batches.push(retired.collect());
    }
}

fn load(pc: u64) -> DynInst {
    DynInst::plain(pc, ExecClass::Load, Component::TolIm).with_mem(0, 8, false)
}

/// What one scripted run delivered.
struct Outcome {
    model: Vec<DynInst>,
    sink: Recorder,
}

/// Drives one random script of appends against `capacity`, mirroring
/// every appended (and patched) event into a plain `Vec`.
fn run_script(capacity: usize, seed: u64, ops: usize) -> Outcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sink = Recorder::default();
    let mut model: Vec<DynInst> = Vec::new();
    let mut next = 0u64; // a value no earlier event carries
    let mut fresh = || {
        next += 1;
        next
    };
    // A stream must fit one batch: every length is clamped to the capacity.
    let stream_lens = [1, capacity - 1, capacity, capacity + 1, 40].map(|n| n.clamp(1, capacity));

    let mut storage = EventStorage::default();
    let mut allocation = None;
    let mut ops_left = ops;
    while ops_left > 0 {
        let mut ev = EventBuffer::from_storage(std::mem::take(&mut storage), capacity, &mut sink);
        assert_eq!(ev.pending(), 0, "a round trip must not carry staged events over");
        // One "step": a handful of appends, then the storage goes back.
        for _ in 0..rng.gen_range(1..12usize).min(ops_left) {
            ops_left -= 1;
            match rng.gen_range(0..9u32) {
                0..=3 => {
                    let d = load(fresh());
                    model.push(d);
                    ev.retire(d);
                }
                4 | 5 => {
                    let tpl = load(fresh());
                    let addr = fresh();
                    let d = ev.retire_in_place(tpl.pc, &tpl);
                    assert_eq!(*d, tpl, "the slot holds the template until patched");
                    *d.mem_addr_mut().expect("a load") = addr;
                    let mut want = tpl;
                    *want.mem_addr_mut().expect("a load") = addr;
                    model.push(want);
                }
                6 | 7 => {
                    let len = stream_lens[rng.gen_range(0..stream_lens.len())];
                    let base = fresh();
                    let tpl: Vec<DynInst> = (0..len as u64).map(|i| load(base << 16 | i)).collect();
                    // Patch the first, the last and one in the middle.
                    let marks = [0, len / 2, len - 1];
                    let addr = fresh();
                    ev.retire_stream(&tpl, |mut evs| {
                        assert_eq!(evs.len(), len, "the whole stream is handed out at once");
                        for m in marks {
                            *evs.retired(m).mem_addr_mut().expect("a load") = addr;
                        }
                    });
                    let mut want = tpl;
                    for m in marks {
                        *want[m].mem_addr_mut().expect("a load") = addr;
                    }
                    model.extend(want);
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
        let now = storage.allocation();
        assert_eq!(*allocation.get_or_insert(now), now, "the buffer reallocated");
    }
    Outcome { model, sink }
}

fn check(capacity: usize, seed: u64, ops: usize) {
    let out = run_script(capacity, seed, ops);
    let ctx = format!("capacity {capacity}, seed {seed}");
    let lens: Vec<usize> = out.sink.batches.iter().map(Vec::len).collect();
    assert!(lens.iter().all(|&n| (1..=capacity).contains(&n)), "{ctx}: batch lengths {lens:?}");
    let delivered: Vec<&DynInst> = out.sink.batches.iter().flatten().collect();
    assert_eq!(delivered.len(), out.model.len(), "{ctx}: event count");
    for (i, (got, want)) in delivered.iter().zip(&out.model).enumerate() {
        assert_eq!(*got, want, "{ctx}: event {i}");
    }
}

#[test]
fn random_interleavings_match_the_vec_model() {
    for capacity in [1, 2, 3, 64] {
        for seed in 0..40 {
            check(capacity, seed, 300);
        }
    }
    // Streams of 4 095 / 4 096 events make these scripts long.
    for seed in 0..6 {
        check(4096, seed, 60);
    }
}

#[test]
fn zero_capacity_means_one() {
    let mut sink = Recorder::default();
    let mut ev = EventBuffer::new(0, &mut sink);
    ev.retire(load(1));
    ev.retire_stream(&[load(2)], |_| {});
    ev.flush();
    let lens: Vec<usize> = sink.batches.iter().map(Vec::len).collect();
    assert_eq!(lens, [1, 1]);
}
