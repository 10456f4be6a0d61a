//! The result of one benchmark run and its printed form: one
//! human-readable line per metric, then the JSON result line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, matching [`valid_name`].
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether `name` follows the metric-name grammar `[A-Za-z0-9_.-]+`
/// (at most 64 characters, starting with a letter or digit).
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted in the measured window (plus any output
    /// check made outside it).
    pub attempted: u64,
    /// Operations whose output was wrong, that returned an error or
    /// that panicked.
    pub failed: u64,
    /// The metrics reported in the JSON result line.
    pub metrics: Vec<Metric>,
    /// Extra lines printed before the result (never parsed).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Whether every checked output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single JSON result line.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable lines, one per metric, then the notes.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(s, "{:<34} {:>16} {}", m.name, json_number(m.value), m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        s
    }
}

/// A finite number as JSON, all digits kept (non-finite values, which
/// no metric should produce, print as 0 and are flagged by tests).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "p50_ms",
            "alg.collect_ms",
            "serve.eval_us.socket-of",
            "sort.merge_ns_per_elem.auto",
            "0x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "a b",
            "a/b",
            "p99%",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push("ops_s", 12.5, "1/s");
        r.push("peak_rss_mb", 40.0, "MB");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"ops_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"peak_rss_mb\": {\"value\": 40, \"unit\": \"MB\"}}}"
        );
        r.failed = 1;
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
