//! Timing-backend throughput: how fast the timing layer digests a
//! prerecorded host-event stream, isolated from functional emulation.
//!
//! The recorded stream and replay harness live in
//! [`darco_bench::replay`]; every benchmark replays the identical
//! `Arc<[HostEvent]>` batches, so the comparisons below measure exactly
//! the timing layer:
//!
//! * `timing_sink/{1,3}p_fast`   — `TimingSink::consume` with the
//!   shipping memory model (flat tag layout + last-line/last-page
//!   shortcuts), one pipeline vs all three,
//! * `timing_sink/{1,3}p_oracle` — the same stream through the legacy
//!   per-set layout with shortcuts off (`flat_mem = false`,
//!   `mem_shortcuts = false`), the configuration PR 3 shipped,
//! * `timing_backend/{inline,fanout}_3p` — the full backend
//!   (spawn, zero-copy broadcast, join) on the 3-pipeline set.
//!
//! Throughput is host events consumed per iteration; scripts/bench.sh
//! summarizes the same replay into the `timing` block of
//! BENCH_report.json, and the numbers land in EXPERIMENTS.md.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use darco_bench::replay::{record_stream, replay_backend, replay_sink};
use darco_core::TimingBackendKind;

fn bench(c: &mut Criterion) {
    let batches = record_stream();
    let events: u64 = batches.iter().map(|b| b.len() as u64).sum();

    // The replay must be schedule-independent before it is worth timing.
    let inline = replay_backend(&batches, TimingBackendKind::Inline);
    assert_eq!(inline, replay_backend(&batches, TimingBackendKind::Fanout));
    assert_eq!(
        replay_sink(&batches, 3, true),
        replay_sink(&batches, 3, false),
        "fast and oracle memory paths must cycle-match"
    );

    let mut g = c.benchmark_group("timing_sink");
    g.throughput(Throughput::Elements(events));
    g.bench_function("1p_fast", |b| b.iter(|| black_box(replay_sink(&batches, 1, true))));
    g.bench_function("1p_oracle", |b| b.iter(|| black_box(replay_sink(&batches, 1, false))));
    g.bench_function("3p_fast", |b| b.iter(|| black_box(replay_sink(&batches, 3, true))));
    g.bench_function("3p_oracle", |b| b.iter(|| black_box(replay_sink(&batches, 3, false))));
    g.finish();

    let mut g = c.benchmark_group("timing_backend");
    g.throughput(Throughput::Elements(events));
    g.bench_function("inline_3p", |b| {
        b.iter(|| black_box(replay_backend(&batches, TimingBackendKind::Inline)))
    });
    g.bench_function("fanout_3p", |b| {
        b.iter(|| black_box(replay_backend(&batches, TimingBackendKind::Fanout)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
