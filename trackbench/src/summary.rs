//! Order statistics and the result line.

/// The value at 1-based `rank` of `values` in ascending order (0 when
/// empty).
fn ranked(values: &[f64], rank: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied().unwrap_or(0.0)
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    ranked(values, values.len().div_ceil(2))
}

/// A tail latency: the highest whole percentile (or p99.9) with at least
/// ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile it resolved to, in `[0, 1]` (1, the maximum, when
    /// there are ten samples or fewer).
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
    /// Samples above its rank.
    pub beyond: usize,
}

/// Resolves the tail of `values` (see [`Tail`]).
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    // Percentiles in per-mille, so ranks are exact integer arithmetic.
    let rank = |milli: usize| (milli * n).div_ceil(1000);
    let milli = if n <= 10 {
        1000
    } else if n - rank(999) >= 10 {
        999
    } else {
        10 * (100 * (n - 10) / n)
    };
    Tail {
        p: milli as f64 / 1000.0,
        value: ranked(values, rank(milli)),
        samples: n,
        beyond: n - rank(milli),
    }
}

/// `num / den`, or 0 with an empty base (every ratio is printed with its
/// base count, so a 0 over 0 is visible as such).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0.iter().filter(|(_, v, _)| !v.is_finite()).map(|(n, _, _)| n.as_str()).collect()
    }

    /// One line per metric, for the log.
    pub fn table(&self) -> String {
        self.0.iter().map(|(n, v, u)| format!("  {n:<36} {v:>16.6} {u}\n")).collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.p, t.value, t.beyond), (0.9, 90.0, 10));
        let t = tail(&v[..25]);
        assert_eq!((t.p, t.value, t.beyond), (0.6, 15.0, 10));
        assert_eq!(tail(&v[..10]).p, 1.0);
        let many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&many).p, 0.999);
        assert_eq!(median(&v), 50.0);
    }
}
