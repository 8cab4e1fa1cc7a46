//! The benchmark's own arithmetic: percentile selection, medians, and
//! ratios that carry their base.

use std::fmt;

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// smallest sample with at least `q·n` samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when `n` supports none of them.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// Conventional median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Latency samples of one op class. A failed op is recorded as an
/// infinite sample: it misses every latency limit, so it moves the
/// percentiles the way a user would feel it.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Records one measured value.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Records a failed (or unanswered) op.
    pub fn push_missed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Sample count, failed ones included.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True without samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Summary at p50 and the highest supported tail percentile.
    pub fn summary(&self) -> Option<Summary> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Some(Summary {
            n,
            p50: percentile(&sorted, 0.5),
            tail: tail_quantile(n).map(|q| Tail {
                q,
                value: percentile(&sorted, q),
                beyond: beyond(n, q),
            }),
            p90: percentile(&sorted, 0.9),
            p90_beyond: beyond(n, 0.9),
            sum: sorted.iter().sum(),
        })
    }
}

/// A tail percentile with the sample count beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile, e.g. `0.9`.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// Percentile summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The highest tail percentile with enough samples beyond it.
    pub tail: Option<Tail>,
    /// Nearest-rank p90, whether or not enough samples lie beyond it.
    pub p90: f64,
    /// Samples strictly beyond p90.
    pub p90_beyond: usize,
    /// Sum of the samples.
    pub sum: f64,
}

/// A ratio that keeps its base, so every printed share says what it is
/// a share of.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// Hits over lookups.
    pub fn hit_ratio(hits: u64, misses: u64) -> Ratio {
        Ratio::new(hits as f64, (hits + misses) as f64)
    }

    /// Part over (part + rest): e.g. pruned over (pruned + evaluated).
    pub fn share(part: f64, rest: f64) -> Ratio {
        Ratio::new(part, part + rest)
    }

    /// Busy time over the capacity of `workers` threads for `wall`.
    pub fn efficiency(busy: f64, wall: f64, workers: usize) -> Ratio {
        Ratio::new(busy, wall * workers as f64)
    }

    /// The value, 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.den > 0.0 {
            self.num / self.den
        } else {
            0.0
        }
    }

    /// Adds another ratio's numerator and base (pooling, not averaging).
    pub fn add(&mut self, other: Ratio) {
        self.num += other.num;
        self.den += other.den;
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ({}/{})",
            self.value(),
            trim(self.num),
            trim(self.den)
        )
    }
}

/// Renders a count without a trailing `.0`, a non-integer with 1 decimal.
fn trim(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.1}")
    }
}
