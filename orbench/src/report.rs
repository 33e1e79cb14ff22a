//! What a run reports: named metrics with units, the operations it
//! attempted and failed, and the one-line JSON result.

use serde_json::{json, Value};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric reading.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The metrics of this mode (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Operations whose result was checked (campaigns or serve runs,
    /// HTTP requests).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Facts printed beside the metrics but not gated: how many
    /// operations ran, their own times, the report checksum, event
    /// totals.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The reading called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|metric| metric.name == name)
            .map(|metric| metric.value)
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics = self.metrics.iter().map(|metric| {
            (
                metric.name.to_owned(),
                json!({ "value": metric.value, "unit": metric.unit }),
            )
        });
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics.collect()),
        })
        .to_string()
    }

    /// Prints every note and metric by name with its unit, then the
    /// result line (which must stay the last line of standard output).
    pub fn print(&self, workload: &str) {
        for (key, value) in &self.notes {
            println!("{workload}: {key} = {value}");
        }
        for metric in &self.metrics {
            println!(
                "{workload}: {:<34} {:>16.6} {}",
                metric.name, metric.value, metric.unit
            );
        }
        println!(
            "{workload}: failed_share = {} ({} of {} operations)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!("{}", self.json_line());
    }
}

/// Parses a result line back (the `aa` harness reads its children's).
pub fn parse_result_line(line: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let correct = value["correct"]
        .as_bool()
        .ok_or("result line lacks `correct`")?;
    let metrics = value["metrics"]
        .as_object()
        .ok_or("result line lacks `metrics`")?;
    let readings = metrics
        .iter()
        .map(|(name, reading)| {
            reading["value"]
                .as_f64()
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((correct, readings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let outcome = Outcome {
            metrics: vec![
                Metric::new("wall_s", "s", 1.2034),
                Metric::new("setup_s", "s", 0.8127),
            ],
            attempted: 12,
            failed: 0,
            notes: vec![("reps", "12".to_owned())],
        };
        let line = outcome.json_line();
        let value: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(key, _)| key)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            value["metrics"]["wall_s"],
            json!({ "value": 1.2034, "unit": "s" })
        );
        let (correct, readings) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(
            readings,
            [
                ("setup_s".to_owned(), 0.8127),
                ("wall_s".to_owned(), 1.2034)
            ]
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let outcome = Outcome {
            metrics: Vec::new(),
            attempted: 3,
            failed: 1,
            notes: Vec::new(),
        };
        assert!(!outcome.correct());
        assert!(outcome.json_line().contains("\"correct\":false"));
    }
}
