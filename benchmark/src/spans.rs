//! In-memory span aggregation for the traced run.
//!
//! The traced controller loop opens a span around each call into a
//! layer. Millions of spans close per run, so they are folded by name as
//! they close — count, total time, and self time (duration minus the
//! time covered by child spans) — and written out once at exit.

use std::time::Instant;

/// Totals of every closed span that shares a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The open-span stack and the per-name totals. Names are fixed up
/// front and spans close under an index into them, which keeps the
/// per-span cost to two clock reads and a few additions.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    /// `(start, time covered by already-closed children)` per open span.
    open: Vec<(u64, u64)>,
    names: &'static [&'static str],
    totals: Vec<SpanTotals>,
}

impl Spans {
    pub fn new(names: &'static [&'static str]) -> Spans {
        Spans {
            origin: Instant::now(),
            open: Vec::new(),
            names,
            totals: vec![SpanTotals::default(); names.len()],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    #[inline]
    pub fn enter(&mut self) {
        let t = self.now_ns();
        self.enter_at(t);
    }

    /// Closes the innermost open span under `names[name]`. The name is
    /// given at exit because a `Tol::step` only reports its mode when it
    /// returns.
    #[inline]
    pub fn exit(&mut self, name: usize) {
        let t = self.now_ns();
        self.exit_at(name, t);
    }

    fn enter_at(&mut self, t_ns: u64) {
        self.open.push((t_ns, 0));
    }

    fn exit_at(&mut self, name: usize, t_ns: u64) {
        let (start, children) = self.open.pop().expect("exit without a matching enter");
        let duration = t_ns - start;
        let totals = &mut self.totals[name];
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration - children;
        if let Some(parent) = self.open.last_mut() {
            parent.1 += duration;
        }
    }

    /// The per-name totals; every span must be closed.
    pub fn finish(self) -> Vec<(&'static str, SpanTotals)> {
        assert!(self.open.is_empty(), "{} spans still open", self.open.len());
        self.names.iter().copied().zip(self.totals).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["run", "step", "consume", "finish"];
    const RUN: usize = 0;
    const STEP: usize = 1;
    const CONSUME: usize = 2;
    const FINISH: usize = 3;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new(NAMES);
        s.enter_at(0); // run
        s.enter_at(10); // step
        s.enter_at(20); // consume
        s.exit_at(CONSUME, 50);
        s.enter_at(60); // consume
        s.exit_at(CONSUME, 70);
        s.exit_at(STEP, 100);
        s.enter_at(100); // finish
        s.exit_at(FINISH, 130);
        s.exit_at(RUN, 200);
        assert_eq!(
            s.finish(),
            [
                ("run", SpanTotals { count: 1, total_ns: 200, self_ns: 80 }),
                ("step", SpanTotals { count: 1, total_ns: 90, self_ns: 50 }),
                ("consume", SpanTotals { count: 2, total_ns: 40, self_ns: 40 }),
                ("finish", SpanTotals { count: 1, total_ns: 30, self_ns: 30 }),
            ]
        );
    }

    #[test]
    fn self_times_add_up_to_the_root_total() {
        let mut s = Spans::new(NAMES);
        s.enter_at(5);
        for i in 0..100u64 {
            let t = 10 + i * 10;
            s.enter_at(t);
            s.enter_at(t + 2);
            s.exit_at(CONSUME, t + 5);
            s.exit_at(if i % 2 == 0 { STEP } else { FINISH }, t + 9);
        }
        s.exit_at(RUN, 2000);
        let t = s.finish();
        let self_sum: u64 = t.iter().map(|(_, x)| x.self_ns).sum();
        assert_eq!(self_sum, t[RUN].1.total_ns);
        assert_eq!(t[STEP].1.count + t[FINISH].1.count, t[CONSUME].1.count);
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn finish_rejects_open_spans() {
        let mut s = Spans::new(NAMES);
        s.enter_at(0);
        s.finish();
    }
}
