//! The worker's result: the BENCHMARK.json metrics, the named readings behind
//! them, and the configuration, written as one JSON line.

use serde::{Serialize, Value};

/// One measured value with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted: mines, or requests.
    pub attempted: u64,
    /// Operations that failed, checks included.
    pub failed: u64,
    /// Reasons for the first few failures.
    pub errors: Vec<String>,
    /// The metrics BENCHMARK.json lists, by name.
    pub metrics: Vec<Reading>,
    /// Readings under their workload-specific names (`mine_s`, `serve_p50_ms`, …).
    pub named: Vec<Reading>,
    /// The workload configuration.
    pub config: Vec<(String, Value)>,
    /// Raw per-repetition samples behind the medians, by name.
    pub series: Vec<(String, Vec<f64>)>,
}

/// A prepared tree for `serde_json`, which renders any `Serialize`.
struct Tree(Value);

impl Serialize for Tree {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl Run {
    /// Records a metric BENCHMARK.json lists.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Reading {
            name: name.into(),
            value,
            unit,
            samples,
            note: String::new(),
        });
    }

    /// Records a named reading with a note on how it was taken.
    pub fn named(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        self.named.push(Reading {
            name: name.into(),
            value,
            unit,
            samples,
            note: note.into(),
        });
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`, plus `details`.
    /// Non-finite values render as `null`.
    pub fn to_json(&self) -> String {
        let readings = |rs: &[Reading]| {
            Value::Array(
                rs.iter()
                    .map(|r| {
                        object([
                            ("name", r.name.to_value()),
                            ("value", r.value.to_value()),
                            ("unit", r.unit.to_value()),
                            ("samples", r.samples.to_value()),
                            ("note", r.note.to_value()),
                        ])
                    })
                    .collect(),
            )
        };
        let metrics = self.metrics.iter().map(|r| {
            (
                r.name.clone(),
                object([("value", r.value.to_value()), ("unit", r.unit.to_value())]),
            )
        });
        let series = self.series.iter().map(|(k, v)| (k.clone(), v.to_value()));
        let tree = object([
            ("correct", (self.failed == 0).to_value()),
            ("attempted", self.attempted.max(1).to_value()),
            ("failed", self.failed.to_value()),
            ("metrics", object(metrics)),
            (
                "details",
                object([
                    ("samples", readings(&self.metrics)),
                    ("named", readings(&self.named)),
                    ("config", Value::Object(self.config.clone())),
                    ("series", object(series)),
                    ("errors", self.errors.to_value()),
                ]),
            ),
        ]);
        serde_json::to_string(&Tree(tree)).expect("a value tree always renders")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_json() {
        let mut run = Run {
            attempted: 3,
            ..Run::default()
        };
        run.metric("latency_ms", 1.25, "ms", 3);
        run.config
            .push(("why".into(), "a \"quoted\"\nline".to_value()));
        let text = run.to_json();
        let value = serde_json::parse_value(&text).unwrap();
        let fields = value.as_object().unwrap();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["correct", "attempted", "failed", "metrics", "details"]
        );
        assert!(text.contains("\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}"));
    }
}
