//! Timing-layer throughput: how fast the timing layer digests a
//! prerecorded host-event stream, isolated from functional emulation.
//!
//! The recorded stream and replay harness live in
//! [`darco_bench::replay`]; every benchmark replays the identical
//! batches, so the comparison measures exactly the timing layer:
//!
//! * `timing_sink/{1,3}p` — `TimingSink::consume`, one pipeline vs all
//!   three.
//!
//! Throughput is host events consumed per iteration.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use darco_bench::replay::{record_stream, replay_sink};

fn bench(c: &mut Criterion) {
    let batches = record_stream();
    let events: u64 = batches.iter().map(|b| b.len() as u64).sum();

    let mut g = c.benchmark_group("timing_sink");
    g.throughput(Throughput::Elements(events));
    g.bench_function("1p", |b| b.iter(|| black_box(replay_sink(&batches, 1))));
    g.bench_function("3p", |b| b.iter(|| black_box(replay_sink(&batches, 3))));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
