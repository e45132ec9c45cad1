//! Per-layer figures from the spans and counters the program already
//! records (`RunTrace`), plus the benchmark's own timers.

use std::time::Duration;

use autofeat::core::RunTrace;
use autofeat::obs::PhaseNode;

/// Totals over every span of one name, wherever it sits in the tree.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub self_time: Duration,
}

fn walk(nodes: &[PhaseNode], name: &str, acc: &mut SpanTotals) {
    for n in nodes {
        if n.name == name {
            acc.count += n.count;
            acc.wall += n.wall;
            acc.cpu += n.cpu;
            acc.self_time += n.self_time;
        }
        walk(&n.children, name, acc);
    }
}

/// Totals of span `name` over several traces.
pub fn span<'a>(traces: impl IntoIterator<Item = &'a RunTrace>, name: &str) -> SpanTotals {
    let mut acc = SpanTotals::default();
    for t in traces {
        walk(&t.phases, name, &mut acc);
    }
    acc
}

/// Busy time of the workers under every span `name` (the summed time of
/// its children, across threads) and the span's own wall time.
pub fn fanout<'a>(
    traces: impl IntoIterator<Item = &'a RunTrace>,
    name: &str,
) -> (Duration, Duration) {
    fn find(nodes: &[PhaseNode], name: &str, acc: &mut (Duration, Duration)) {
        for n in nodes {
            if n.name == name {
                acc.0 += n.children.iter().map(|c| c.cpu).sum::<Duration>();
                acc.1 += n.wall;
            }
            find(&n.children, name, acc);
        }
    }
    let mut acc = (Duration::ZERO, Duration::ZERO);
    for t in traces {
        find(&t.phases, name, &mut acc);
    }
    acc
}

/// Sum of counter `name` over several traces.
pub fn counter<'a>(traces: impl IntoIterator<Item = &'a RunTrace>, name: &str) -> u64 {
    traces.into_iter().filter_map(|t| t.counter(name)).sum()
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofeat::obs::{self, with_tracer, Tracer};

    #[test]
    fn totals_find_nested_spans_by_name() {
        let tracer = Tracer::enabled();
        with_tracer(&tracer, || {
            let _a = obs::span("outer");
            for _ in 0..3 {
                let _b = obs::span("inner");
                obs::add("rows", 10);
            }
        });
        let t = tracer.snapshot();
        let inner = span([&t], "inner");
        assert_eq!(inner.count, 3);
        assert!(span([&t], "outer").wall >= inner.wall);
        assert_eq!(counter([&t, &t], "rows"), 60);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
