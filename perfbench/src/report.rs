//! End-to-end metrics, the human-readable report, and the result line.

use std::fmt::Write;

use crate::stats::{median, Ratio};
use crate::workload::{Class, Outcome, Phase, Workload};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count behind the value, where it is a statistic.
    pub samples: Option<usize>,
    /// What the value is taken over (its base, phase or percentile).
    pub note: String,
}

/// The end-to-end metrics `BENCHMARK.json` gates on, in its order. The
/// report also prints `repeat_ask_p50_ms` and `register_p50_ms`, which
/// are not gated: on a shared 2-vCPU host their p50s (sub-millisecond
/// answer-cache hits; two registers per run) spread 0.13–0.19 of their
/// median across ten seeds, too close to the largest allowed bound.
pub const GATED: [&str; 5] = [
    "setup_s",
    "cold_ask_p50_ms",
    "warm_ask_p50_ms",
    "asks_per_s",
    "peak_heap_mb",
];

/// Builds the end-to-end metrics of an untraced run, gated or not.
pub fn end_to_end(wl: Workload, out: &Outcome) -> Vec<Metric> {
    let mut metrics = Vec::new();
    metrics.push(Metric {
        name: "setup_s".into(),
        value: median(&out.setup_s).unwrap_or(0.0),
        unit: "s",
        samples: Some(out.setup_s.len()),
        note: "median of the run's set-ups".into(),
    });
    for (name, class) in [
        ("cold_ask_p50_ms", Class::Cold),
        ("warm_ask_p50_ms", Class::Warm),
        ("repeat_ask_p50_ms", Class::Repeat),
        ("register_p50_ms", Class::Register),
    ] {
        let (phase, samples) = out.class_samples(class);
        let summary = samples.summary();
        metrics.push(Metric {
            name: name.into(),
            value: summary.map_or(0.0, |s| s.p50),
            unit: "ms",
            samples: Some(samples.len()),
            note: match (phase, class) {
                (_, Class::Cold) => "set-up warm-ups and timed cold asks".into(),
                (Phase::Timed, _) => "timed ops".into(),
                (Phase::Setup, _) => format!("set-up ops: {} times no {class:?} op", wl.name()),
            },
        });
    }
    let asks = out.timed_asks as f64;
    metrics.push(Metric {
        name: "asks_per_s".into(),
        value: if out.timed_s > 0.0 {
            asks / out.timed_s
        } else {
            0.0
        },
        unit: "1/s",
        samples: Some(out.timed_asks as usize),
        note: format!("{asks} asks over {:.3} s of timed wall", out.timed_s),
    });
    metrics.push(Metric {
        name: "peak_heap_mb".into(),
        value: out.peak_heap_bytes as f64 / (1u64 << 20) as f64,
        unit: "MiB",
        samples: None,
        note: "peak live heap over the timed phase".into(),
    });
    metrics
}

/// The human-readable lines printed before the result line: every
/// end-to-end metric with unit and sample count, the tail percentile
/// where the sample count supports one, the failed-op ratio, and the
/// workload's measured properties.
pub fn describe(wl: Workload, out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "workload {} — {}", wl.name(), crate::why(wl));
    for m in metrics {
        let n = m.samples.map_or(String::new(), |n| format!("n={n}, "));
        let gated = if GATED.contains(&m.name.as_str()) {
            ""
        } else {
            "; report only"
        };
        let _ = writeln!(
            s,
            "  {:<22} {:>14.4} {:<5} ({n}{}{gated})",
            m.name, m.value, m.unit, m.note
        );
    }
    // Tails: the highest percentile with at least ten samples beyond it.
    for (label, class) in [
        ("cold_ask", Class::Cold),
        ("warm_ask", Class::Warm),
        ("repeat_ask", Class::Repeat),
        ("register", Class::Register),
    ] {
        let (_, samples) = out.class_samples(class);
        if let Some(sum) = samples.summary() {
            match sum.tail {
                Some(t) => {
                    let _ = writeln!(
                        s,
                        "  {label} tail: p{:.0} = {:.3} ms (n={}, {} beyond)",
                        t.q * 100.0,
                        t.value,
                        sum.n,
                        t.beyond
                    );
                }
                None => {
                    let _ = writeln!(
                        s,
                        "  {label} tail: none reported (n={} leaves fewer than 10 samples beyond p75)",
                        sum.n
                    );
                }
            }
        }
    }
    if let Some(sum) = out
        .samples
        .get(&(Phase::Timed, Class::Warm))
        .and_then(|x| x.summary())
    {
        let _ = writeln!(
            s,
            "  warm_ask_p90_ms        {:>14.4} ms    (n={}, {} beyond p90{})",
            sum.p90,
            sum.n,
            sum.p90_beyond,
            if sum.p90_beyond < crate::stats::MIN_BEYOND {
                "; fewer than 10, indicative only"
            } else {
                ""
            }
        );
    }
    let failed = Ratio::new(out.failed as f64, out.attempted as f64);
    let _ = writeln!(
        s,
        "  failed_op_ratio        {failed} ratio (failed / attempted ops)"
    );
    let timed = |c: Class| out.samples.get(&(Phase::Timed, c)).map_or(0, |x| x.len()) as f64;
    let asks = out.timed_asks as f64;
    let cold_ms: f64 = out
        .samples
        .get(&(Phase::Timed, Class::Cold))
        .and_then(|x| x.summary())
        .map_or(0.0, |x| x.sum);
    let ask_ms: f64 = [Class::Cold, Class::Warm, Class::Repeat]
        .iter()
        .filter_map(|c| {
            out.samples
                .get(&(Phase::Timed, *c))
                .and_then(|x| x.summary())
        })
        .map(|x| x.sum)
        .sum();
    let _ = writeln!(s, "  properties (timed phase, {} rounds):", out.rounds);
    let _ = writeln!(
        s,
        "    repeat share            {}",
        Ratio::new(timed(Class::Repeat), asks)
    );
    let _ = writeln!(
        s,
        "    answer-hit ratio        {}",
        Ratio::new(out.timed_answer_hits as f64, asks)
    );
    let _ = writeln!(
        s,
        "    cold share of asks      {}",
        Ratio::new(timed(Class::Cold), asks)
    );
    let _ = writeln!(
        s,
        "    cold share of ask wall  {}",
        Ratio::new(cold_ms, ask_ms)
    );
    let _ = writeln!(
        s,
        "    APT hit ratio           {}",
        Ratio::hit_ratio(out.timed_apt.0, out.timed_apt.1)
    );
    let _ = writeln!(
        s,
        "    re-materializations     {:.2} APTs per warm ask ({} over {} warm asks)",
        if timed(Class::Warm) > 0.0 {
            out.timed_warm_apt_misses as f64 / timed(Class::Warm)
        } else {
            0.0
        },
        out.timed_warm_apt_misses,
        timed(Class::Warm)
    );
    for f in &out.failures {
        let _ = writeln!(s, "  FAILED: {f}");
    }
    for m in &out.mismatches {
        let _ = writeln!(s, "  CHECK FAILED: {m}");
    }
    s
}

/// p50 of the timed warm asks, with their count: the class every
/// workload has, so the traced and untraced runs compare like for like.
pub fn warm_ask_p50(out: &Outcome) -> Option<(f64, usize)> {
    out.samples
        .get(&(Phase::Timed, Class::Warm))
        .and_then(|s| s.summary())
        .map(|s| (s.p50, s.n))
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            body,
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    format!("{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}")
}
