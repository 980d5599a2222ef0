//! Timing-layer replay harness, shared by the `timing_throughput`
//! criterion bench and the `timing` block of `bench_report`.
//!
//! One functional run of the quicktest profile is recorded into
//! `Arc<[HostEvent]>` batches (with periodic `WindowMark`s so timeline
//! sampling stays on the measured path); replaying those identical
//! batches through a [`TimingSink`] or a full [`TimingBackend`] then
//! measures exactly the timing layer — no functional emulation, no
//! translation, no event-bus production cost.

use std::sync::Arc;

use darco_core::{SystemConfig, TimingBackend, TimingBackendKind, TimingSink};
use darco_host::{HostEvent, HostEventSink};
use darco_tol::Tol;
use darco_workloads::{generate, suites};

/// Workload scale for the recorded stream (matches `retire_throughput`).
pub const SCALE: f64 = 0.05;

/// Guest instructions between injected `WindowMark`s (the default
/// `SystemConfig::window_guest_insts` is the same order of magnitude).
const WINDOW_EVERY: u64 = 20_000;

/// Records the quicktest profile's host-event stream once, chunked into
/// shared batches with a `WindowMark` after every `WINDOW_EVERY` retired
/// events, mirroring what the controller feeds the sinks.
pub fn record_stream() -> Vec<Arc<[HostEvent]>> {
    let w = generate(&suites::quicktest_profile(), SCALE);
    let mut mem = w.mem.clone();
    let mut tol = Tol::new(SystemConfig::default().tol, w.entry);
    tol.set_state(&w.initial);
    let mut raw: Vec<HostEvent> = Vec::new();
    tol.run(&mut mem, &mut raw, u64::MAX).expect("tol run");

    let mut batches = Vec::new();
    let mut batch = Vec::with_capacity(darco_host::events::EVENT_BATCH);
    let mut retired = 0u64;
    let mut next_mark = WINDOW_EVERY;
    for e in raw {
        if matches!(e, HostEvent::Retire(_)) {
            retired += 1;
        }
        batch.push(e);
        if retired >= next_mark {
            batch.push(HostEvent::WindowMark { guest_insts: retired });
            next_mark += WINDOW_EVERY;
        }
        if batch.len() >= darco_host::events::EVENT_BATCH {
            batches.push(Arc::from(std::mem::take(&mut batch).into_boxed_slice()));
        }
    }
    if !batch.is_empty() {
        batches.push(Arc::from(batch.into_boxed_slice()));
    }
    batches
}

/// A system configuration with `pipelines` timing pipelines (1 or 3) and
/// the memory-model fast paths toggled together (`fast = false` is the
/// legacy-layout full-probe oracle, the configuration PR 3 shipped).
pub fn replay_config(pipelines: usize, fast: bool) -> SystemConfig {
    let mut cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: pipelines == 3,
        tol_only_pipeline: pipelines == 3,
        ..SystemConfig::default()
    };
    cfg.timing.flat_mem = fast;
    cfg.timing.mem_shortcuts = fast;
    cfg
}

/// Replays the recorded stream through a bare [`TimingSink`] (the inline
/// consume path) and returns total cycles, so the work cannot be elided.
pub fn replay_sink(batches: &[Arc<[HostEvent]>], pipelines: usize, fast: bool) -> u64 {
    let cfg = replay_config(pipelines, fast);
    let mut sink = TimingSink::new(&cfg);
    for b in batches {
        sink.consume(b);
    }
    let (stats, _, _, windows) = sink.into_parts();
    stats.total_cycles + windows.len() as u64
}

/// Replays the recorded stream through a full backend — spawn, shared
/// `Arc` broadcast, join — on the 3-pipeline set; returns total cycles.
pub fn replay_backend(batches: &[Arc<[HostEvent]>], kind: TimingBackendKind) -> u64 {
    let mut cfg = replay_config(3, true);
    cfg.timing_backend = kind;
    let mut backend = TimingBackend::new(&cfg);
    for b in batches {
        backend.consume_shared(b.clone());
    }
    let (stats, _, _, _) = backend.finish().into_parts();
    stats.total_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_schedule_and_layout_independent() {
        let batches = record_stream();
        assert!(batches.iter().map(|b| b.len()).sum::<usize>() > 10_000);
        let inline = replay_backend(&batches, TimingBackendKind::Inline);
        assert_eq!(inline, replay_backend(&batches, TimingBackendKind::Fanout));
        assert_eq!(replay_sink(&batches, 3, true), replay_sink(&batches, 3, false));
    }
}
