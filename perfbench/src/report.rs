//! Percentiles, named metrics and the result line.

use std::fmt::Write;

/// Nearest-rank quantile of `values` (`q` in 0..=1); `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail percentile reported for latencies: p90, the highest that the
/// smallest sample (`scenario-grid`, about 11 grids a second) supports
/// with ten samples beyond it in a 10-second run.
pub const TAIL: f64 = 0.90;

/// Samples a tail percentile needs to have ten beyond it.
pub fn tail_samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// Metrics in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Pushes the median of `values` (skipped when there are none).
    pub fn p50(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        if let Some(v) = quantile(values, 0.5) {
            self.push(name, unit, v, values.len());
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// One `metric <name> = <value> <unit> (n=<samples>)` line each.
    pub fn print(&self, prefix: &str) {
        for m in &self.0 {
            println!(
                "{prefix} {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
}

/// A JSON number with all its digits; an infinite latency (a failed
/// request) is written as the largest finite double.
fn number(v: f64) -> String {
    let v = if v.is_finite() {
        v
    } else {
        f64::MAX.copysign(v)
    };
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The result object: `correct`, `attempted`, `failed` and the metrics
/// named in `names`, in that order.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
    names: &[&str],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for name in names {
        if let Some(m) = metrics.get(name) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
    }
    out.push_str("}}");
    out
}

/// Microseconds of a duration, as a float.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
