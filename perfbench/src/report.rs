//! The result line and the statistics behind it.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one benchmark run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (app evaluations or mapping requests) attempted.
    pub attempted: u64,
    /// Operations that panicked or failed a correctness gate.
    pub failed: u64,
    /// The metrics on the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed for people only: the workload-specific end-to-end
    /// figures that not every workload has.
    pub extra: Vec<Metric>,
}

impl Outcome {
    /// Records a metric for the result line.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a metric printed above the result line.
    pub fn push_extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Every gate passed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .metrics
                .iter()
                .chain(&self.extra)
                .all(|m| m.value.is_finite())
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`, which any reader
/// rejects as a metric value rather than taking it for a figure.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The `q`-quantile of `values` by linear interpolation (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of pass times, which `wall_s` reports.
///
/// Not the median: on a shared host each pass runs at one of two speeds
/// about 1.5x apart, and the median of the four to fourteen passes a run
/// holds jumps between the two, while the mean moves smoothly with the
/// share of slow passes. Over ten runs that halves the spread.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_carries_names_and_units() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("wall_s", 1.5, "s");
        assert!(o.correct());
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        o.push("bad", f64::NAN, "s");
        assert!(!o.correct());
    }
}
