//! Timing-layer replay harness for the `timing_throughput` criterion
//! bench.
//!
//! One functional run of the quicktest profile is recorded into batches
//! (with periodic `WindowMark`s so timeline sampling stays on the
//! measured path); replaying those identical batches through a
//! [`TimingSink`] then measures exactly the timing layer — no functional
//! emulation, no translation, no event-bus production cost.

use darco_core::{SystemConfig, TimingSink};
use darco_host::events::EVENT_BATCH;
use darco_host::{HostEvent, HostEventSink};
use darco_tol::Tol;
use darco_workloads::{generate, suites};

/// Workload scale for the recorded stream (matches `retire_throughput`).
pub const SCALE: f64 = 0.05;

/// Guest instructions between injected `WindowMark`s (the default
/// `SystemConfig::window_guest_insts` is the same order of magnitude).
const WINDOW_EVERY: u64 = 20_000;

/// Records the quicktest profile's host-event stream once, chunked into
/// batches with a `WindowMark` after every `WINDOW_EVERY` retired
/// events, mirroring what the controller feeds the sinks.
pub fn record_stream() -> Vec<Vec<HostEvent>> {
    let w = generate(&suites::quicktest_profile(), SCALE);
    let mut mem = w.mem.clone();
    let mut tol = Tol::new(SystemConfig::default().tol, w.entry);
    tol.set_state(&w.initial);
    let mut raw: Vec<HostEvent> = Vec::new();
    tol.run(&mut mem, &mut raw, u64::MAX).expect("tol run");

    let mut batches = Vec::new();
    let mut batch = Vec::with_capacity(EVENT_BATCH);
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
        if batch.len() >= EVENT_BATCH {
            batches.push(std::mem::replace(&mut batch, Vec::with_capacity(EVENT_BATCH)));
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    batches
}

/// A system configuration with `pipelines` timing pipelines (1 or 3).
pub fn replay_config(pipelines: usize) -> SystemConfig {
    SystemConfig {
        cosim: false,
        app_only_pipeline: pipelines == 3,
        tol_only_pipeline: pipelines == 3,
        ..SystemConfig::default()
    }
}

/// Replays the recorded stream through a [`TimingSink`] and returns
/// total cycles plus windows, so the work cannot be elided.
pub fn replay_sink(batches: &[Vec<HostEvent>], pipelines: usize) -> u64 {
    let mut sink = TimingSink::new(&replay_config(pipelines));
    for b in batches {
        sink.consume(b);
    }
    let (stats, _, _, windows) = sink.into_parts();
    stats.total_cycles + windows.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_repeats_exactly() {
        let batches = record_stream();
        assert!(batches.iter().map(Vec::len).sum::<usize>() > 10_000);
        let once = replay_sink(&batches, 3);
        assert!(once > 0);
        assert_eq!(once, replay_sink(&batches, 3));
    }
}
