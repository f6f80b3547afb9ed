//! Whole-suite modes. Every workload runs in a fresh child process of `e2e`, so peak
//! memory, buffer pools and plan caches of one never reach the next.
//!
//! `suite` runs each workload untraced and then traced. `self_test` (`--check`) is
//! the A/A test: the untraced suite twice with one seed and once with another, the
//! relative difference per metric × workload, and a non-zero exit when a same-seed
//! pair differs by more than half the metric's bound. `spread` (`--spread <runs>`)
//! repeats the untraced suite over consecutive seeds and prints, per metric ×
//! workload, the inter-quartile spread the driver holds against the bound.

use std::process::{Command, ExitCode, Stdio};

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_spread, median, worse_by};

/// Runs one pass of one workload in a child process, echoing its output, and returns
/// its result line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let line = text.lines().last().ok_or(format!("{workload} printed nothing"))?;
    if !line.contains("\"correct\":true") {
        return Err(format!("{workload} reported an incorrect run"));
    }
    Ok(line.to_string())
}

/// Reads one metric's value out of a result line written by `report::print`. The
/// format is the benchmark's own, so this looks for `"<name>":{"value":<number>`
/// rather than parsing JSON in general.
fn read_metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// Every workload, untraced then traced.
pub fn suite(seed: u64, seconds: f64) -> ExitCode {
    let mut failures = Vec::new();
    for w in &WORKLOADS {
        for traced in [false, true] {
            if let Err(e) = child(w.name, seed, seconds, traced) {
                failures.push(e);
            }
            println!();
        }
    }
    for f in &failures {
        eprintln!("e2e: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One untraced pass over every workload: `values[workload][metric]`.
fn untraced_pass(seed: u64, seconds: f64) -> Result<Vec<Vec<f64>>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let line = child(w.name, seed, seconds, false)?;
            END_TO_END
                .iter()
                .map(|m| read_metric(&line, m.name).ok_or(format!("{}: no {}", w.name, m.name)))
                .collect()
        })
        .collect()
}

/// The A/A self-test.
pub fn self_test(seed: u64, seconds: f64) -> ExitCode {
    let other_seed = seed.wrapping_add(1);
    let passes = [seed, seed, other_seed].map(|s| untraced_pass(s, seconds));
    let [a, b, c] = match passes {
        [Ok(a), Ok(b), Ok(c)] => [a, b, c],
        other => {
            for e in other.into_iter().filter_map(Result::err) {
                eprintln!("e2e: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    println!("A/A self-test: seed {seed} twice (A, A'), seed {other_seed} once (B); relative differences");
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7} {:>6}   {:>14} {:>9}",
        "workload", "metric", "A", "A'", "A' worse", "bound/2", "", "B", "B worse"
    );
    let mut unsteady = 0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let (x, y, z) = (a[wi][mi], b[wi][mi], c[wi][mi]);
            let same = worse_by(x, y, m.better);
            let ok = same.abs() <= m.bound / 2.0;
            unsteady += usize::from(!ok);
            println!(
                "{:<20} {:<16} {:>14.5} {:>14.5} {:>+8.2}% {:>6.1}% {:>6}   {:>14.5} {:>+8.2}%",
                w.name,
                m.name,
                x,
                y,
                same * 100.0,
                m.bound * 50.0,
                if ok { "ok" } else { "WIDE" },
                z,
                worse_by(x, z, m.better) * 100.0
            );
        }
    }
    if unsteady == 0 {
        println!("every same-seed pair agrees within half its bound");
        ExitCode::SUCCESS
    } else {
        println!("{unsteady} same-seed pairs differ by more than half their bound");
        ExitCode::FAILURE
    }
}

/// The driver's steadiness test: `runs` untraced passes over consecutive seeds, and
/// for each metric × workload the distance between the first and third quartile as a
/// share of the median. Exits non-zero when a spread (other than that of `setup_s`,
/// which the driver exempts) reaches the metric's bound.
pub fn spread(seed: u64, seconds: f64, runs: usize) -> ExitCode {
    let mut passes = Vec::with_capacity(runs);
    for i in 0..runs {
        match untraced_pass(seed.wrapping_add(i as u64), seconds) {
            Ok(pass) => passes.push(pass),
            Err(e) => {
                eprintln!("e2e: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("spread over {runs} seeds from {seed}: (q3 - q1) / median per metric");
    println!("{:<20} {:<16} {:>14} {:>9} {:>7}", "workload", "metric", "median", "spread", "bound");
    let mut wide = 0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = passes.iter().map(|p| p[wi][mi]).collect();
            let spread = iqr_spread(&values);
            let verdict = if spread < m.bound / 3.0 {
                "steady"
            } else if spread < m.bound {
                "within"
            } else if m.name == "setup_s" {
                "exempt"
            } else {
                wide += 1;
                "WIDE"
            };
            println!(
                "{:<20} {:<16} {:>14.5} {:>8.2}% {:>6.0}% {verdict}",
                w.name,
                m.name,
                median(&values),
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    if wide == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{wide} spreads reach their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_metric_from_a_result_line() {
        let line = "{\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":{\"setup_s\":\
                    {\"value\":0.8127,\"unit\":\"s\"},\"op_ms_p50\":{\"value\":1e-3,\"unit\":\"ms\"}}}";
        assert_eq!(read_metric(line, "setup_s"), Some(0.8127));
        assert_eq!(read_metric(line, "op_ms_p50"), Some(0.001));
        assert_eq!(read_metric(line, "op_ms_p90"), None);
    }
}
