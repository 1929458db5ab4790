//! The result line: one JSON object on the last line of standard output.

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

/// Whether `name` is a valid metric name: 1..=64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The benchmark's declaration, compiled in so every run can check that
/// it prints exactly the metrics the declaration promises.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// The `name` values inside one top-level list of the declaration
/// (`"workloads"`, `"end_to_end"` or `"per_layer"`).
pub fn declared(section: &str) -> Vec<String> {
    let key = format!("\"{section}\"");
    let Some((_, rest)) = DECLARATION.split_once(&key) else {
        return Vec::new();
    };
    let list = rest.split(']').next().unwrap_or("");
    list.split("\"name\"")
        .skip(1)
        .filter_map(|entry| entry.split('"').nth(1))
        .map(str::to_string)
        .collect()
}

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(name, _, _)| name.as_str())
    }

    /// Metrics whose value is not a finite number (a bug in the benchmark).
    pub fn non_finite(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, value, _)| !value.is_finite())
            .map(|(name, _, _)| name.as_str())
            .collect()
    }

    /// The result object. Values print with every digit Rust's shortest
    /// round-trip formatting gives; a non-finite value prints as 0.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated() {
        assert!(valid_name("serve.cache.nbags.hit_pct"));
        assert!(valid_name("workloads.profile_ms.HoG"));
        assert!(valid_name("p50_us"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn every_declared_metric_name_is_valid_and_unique() {
        let workloads = declared("workloads");
        assert_eq!(workloads, ["pair-hot", "features-cold", "loop-mixed"]);
        let end_to_end = declared("end_to_end");
        assert!(end_to_end.iter().any(|n| n == "setup_s"));
        let per_layer = declared("per_layer");
        assert!(
            per_layer.len() > 40,
            "found {} per-layer names",
            per_layer.len()
        );
        let names: Vec<String> = [workloads, end_to_end, per_layer].concat();
        for name in &names {
            assert!(valid_name(name), "invalid metric name `{name}`");
        }
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name repeats");
    }

    #[test]
    fn json_has_the_result_shape() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("broken", f64::NAN, "s");
        assert_eq!(m.non_finite(), vec!["broken"]);
        assert_eq!(
            m.json(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"broken\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
