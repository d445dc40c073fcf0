//! Benchmark-side spans for the traced run.
//!
//! Each span wraps one call into a layer's public function. Spans nest:
//! the per-operation parent span (`op.*`) encloses the layer calls the
//! engine would have made, and a span's self time is its duration minus
//! the time its child spans cover. Spans are aggregated in memory and
//! read out when the run ends. Times are the thread's CPU time.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::CpuTimer;

/// The per-operation parent spans.
pub const OP_SPANS: [&str; 6] = [
    "op.rsl",
    "op.explain",
    "op.mwp",
    "op.mqp",
    "op.sr",
    "op.mwq",
];

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Times the span was entered.
    pub calls: u64,
    /// Summed self time, in nanoseconds.
    pub self_ns: u64,
    /// Summed inclusive time, in nanoseconds.
    pub total_ns: u64,
}

impl SpanTotals {
    /// Mean self time per call, in milliseconds.
    #[must_use]
    pub fn self_ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

struct Open {
    start: CpuTimer,
    child_ns: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Default)]
pub struct Tracer {
    open: Vec<Open>,
    spans: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::exit`]. Spans opened in
    /// between nest inside it.
    pub fn enter(&mut self) {
        self.open.push(Open {
            start: CpuTimer::thread(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span under `name` and returns its
    /// inclusive duration.
    pub fn exit(&mut self, name: &'static str) -> Duration {
        let open = self.open.pop().expect("exit() matches an enter()");
        let took = open.start.elapsed();
        let total = took.as_nanos() as u64;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += total;
        }
        let t = self.spans.entry(name).or_default();
        t.calls += 1;
        t.total_ns += total;
        t.self_ns += total.saturating_sub(open.child_ns);
        took
    }

    /// Runs `f` as a leaf span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter();
        let out = f();
        self.exit(name);
        out
    }

    /// The totals of span `name` (zero if never entered).
    #[must_use]
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Summed inclusive time of the spans `names`, in milliseconds.
    #[must_use]
    pub fn totals_ms(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.totals(n).total_ns as f64 / 1e6)
            .sum()
    }

    /// Mean self time per call of span `name`, in milliseconds.
    #[must_use]
    pub fn self_ms(&self, name: &str) -> f64 {
        self.totals(name).self_ms_per_call()
    }
}

/// The per-layer metrics the two engine workloads' traces share: mean
/// self time of each layer span and mean size per call of the reverse
/// skylines, culprit windows, dynamic skylines and safe regions.
#[must_use]
pub fn engine_layers(
    t: &Tracer,
    [rsl, window, dsl, boxes]: [&MeanCount; 4],
) -> Vec<(&'static str, f64)> {
    vec![
        ("reverse_skyline.bbrs_ms", t.self_ms("reverse_skyline.bbrs")),
        ("reverse_skyline.rsl_size", rsl.mean()),
        (
            "reverse_skyline.window_ms",
            t.self_ms("reverse_skyline.window"),
        ),
        ("reverse_skyline.window_size", window.mean()),
        ("skyline.dsl_ms", t.self_ms("skyline.dsl")),
        ("skyline.dsl_size", dsl.mean()),
        ("core.safe_region_ms", t.self_ms("core.safe_region")),
        ("geometry.intersect_ms", t.self_ms("geometry.intersect")),
        ("geometry.sr_boxes", boxes.mean()),
        ("core.mwq_given_sr_ms", t.self_ms("core.mwq_given_sr")),
        ("core.mwp_ms", t.self_ms("core.mwp")),
        ("core.mqp_ms", t.self_ms("core.mqp")),
    ]
}

/// Mean of a per-call size, or 0 when never recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanCount {
    sum: u64,
    n: u64,
}

impl MeanCount {
    /// Records one observation.
    pub fn add(&mut self, v: usize) {
        self.sum += v as u64;
        self.n += 1;
    }

    /// The summed observations (a deterministic count).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The mean observation.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = CpuTimer::thread();
        while t.elapsed() < d {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.enter();
        t.span("child", || spin(Duration::from_millis(20)));
        t.exit("parent");
        let parent = t.totals("parent");
        let child = t.totals("child");
        assert_eq!((parent.calls, child.calls), (1, 1));
        assert!(child.self_ns >= 20_000_000);
        assert!(parent.total_ns >= child.total_ns);
        assert!(parent.self_ns < child.self_ns);
    }
}
