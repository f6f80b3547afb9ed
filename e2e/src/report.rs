//! What one run of one workload produces, and how it is printed: a table a person
//! reads, then, as the last line of standard output, the JSON object the driver reads.

use crate::json::Json;
use crate::spec::{Metric, END_TO_END, PER_LAYER};

/// Result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed, were shed or refused, or (training) produced a
    /// non-finite loss.
    pub failed: u64,
    /// `(metric name, value)` pairs.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form lines for the reader: gate results, sample counts, layer shares.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(!self.metrics.iter().any(|(n, _)| *n == name), "{name} reported twice");
        self.metrics.push((name, value));
    }

    /// Adds several metrics.
    pub fn put_all(&mut self, metrics: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in metrics {
            self.put(name, value);
        }
    }

    /// Value of a metric already added.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Records a failed gate.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("GATE FAILED: {why}"));
    }

    /// Adds a note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Notes each layer's share of an operation, largest first.
pub fn note_shares(out: &mut Outcome, shares: &mut [(&'static str, f64)], op_ms: f64, of: &str) {
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite share"));
    out.note(format!("share of {of} ({op_ms:.4} ms), per layer, largest first:"));
    for (name, ms) in shares.iter() {
        out.note(format!("  {name:<38} {ms:>10.4} ms  {:>5.1}%", 100.0 * ms / op_ms));
    }
}

/// The metric list a pass must report.
pub fn expected(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Prints the human-readable table and then the result line. Per-layer metrics a
/// workload does not produce read 0; a missing end-to-end metric or a name outside
/// the contract is a bug in the benchmark and panics.
pub fn print(workload: &str, seed: u64, traced: bool, outcome: &Outcome) {
    let list = expected(traced);
    for (name, _) in &outcome.metrics {
        assert!(list.iter().any(|m| m.name == *name), "metric {name} is not in the contract");
    }
    println!(
        "workload {workload}  seed {seed}  pass {}",
        if traced { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let mut metrics = Vec::with_capacity(list.len());
    for m in list {
        let value = match outcome.get(m.name) {
            Some(v) => v,
            None if traced => 0.0,
            None => panic!("end-to-end metric {} was not measured", m.name),
        };
        let bound = if traced {
            String::new()
        } else {
            format!("  (better: {}, bound {:.0}%)", m.better.as_str(), m.bound * 100.0)
        };
        println!("  {:<34} {:>16.6} {}{}", m.name, value, m.unit, bound);
        metrics
            .push((m.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))])));
    }
    let line = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::count(outcome.attempted.max(1))),
        ("failed", Json::count(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.compact());
}
