//! `e2e` — the repository's benchmark: one command that measures training and serving
//! end to end and attributes the time to each crate. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how to read the output.
//!
//! ```text
//! e2e --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--trace-out <path>]
//! e2e --seed <u64> [--seconds <s>]            every workload, untraced then traced
//! e2e --check --seed <u64> [--seconds <s>]    A/A self-test of the end-to-end metrics
//! e2e --spread <runs> --seed <u64>            spread of each metric over <runs> seeds
//! e2e --print-benchmark-json                  the contents of BENCHMARK.json
//! ```
//!
//! The benchmark only calls `pub` items of the library crates; nothing in them is
//! instrumented or switched for it.

mod check;
mod json;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod sys;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::Span;

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Seed of every model's initial weights. The model under test is a fixed artefact,
/// not an input: `--seed` varies the data, the request order and the arrival times.
/// With seed-dependent weights the step time of `train_long` moved by ±8 % with the
/// seed alone (the same seed repeated within ±2 %), which would have been read as
/// noise of the box.
pub const MODEL_SEED: u64 = 0x5249_5441;

/// A workload's definition: which surface it drives and with what.
enum Workload {
    Train(train::TrainSpec),
    Serve(serve::ServeSpec),
}

impl Workload {
    fn named(name: &str) -> Option<Workload> {
        Some(match name {
            "train_long" => Workload::Train(train::train_long()),
            "train_short_varlen" => Workload::Train(train::train_short_varlen()),
            "serve_closed_low" => Workload::Serve(serve::serve_closed_low()),
            "serve_open_mixed" => Workload::Serve(serve::serve_open_mixed()),
            _ => return None,
        })
    }
}

/// Parsed command line.
struct Args {
    workload: Option<(String, Workload)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    check: bool,
    spread: Option<usize>,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        trace_out: None,
        check: false,
        spread: None,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let Some(workload) = Workload::named(&name) else {
                    let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; known: {}", known.join(", ")));
                };
                args.workload = Some((name, workload));
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("--seconds {v:?} is not a time in (0, 3600]"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--check" => args.check = true,
            "--spread" => {
                let v = value("--spread")?;
                let runs = v.parse().ok().filter(|r| (2..=100).contains(r));
                args.spread =
                    Some(runs.ok_or(format!("--spread {v:?} is not a count in 2..=100"))?);
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where the span dump goes when `--trace-out` is not given: under the build
/// directory, which `.gitignore` names.
fn default_trace_out(workload: &str) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or("e2e/target".into(), PathBuf::from);
    dir.join(format!("e2e-trace-{workload}.jsonl"))
}

fn write_spans(path: &PathBuf, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace::write_jsonl(spans, &mut file)
}

/// Runs one pass of one workload in this process and prints its result.
fn run_workload(args: &Args, name: &str, workload: &Workload) -> ExitCode {
    let traced = |run: (report::Outcome, Vec<Span>)| {
        let (mut outcome, spans) = run;
        let path = args.trace_out.clone().unwrap_or_else(|| default_trace_out(name));
        match write_spans(&path, &spans) {
            Ok(()) => outcome.note(format!("{} spans written to {}", spans.len(), path.display())),
            Err(e) => outcome.fail(format!("could not write spans to {}: {e}", path.display())),
        }
        outcome
    };
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match (workload, args.trace) {
        (Workload::Train(spec), false) => train::run_untraced(spec, seed, seconds),
        (Workload::Train(spec), true) => traced(train::run_traced(spec, seed, seconds)),
        (Workload::Serve(spec), false) => serve::run_untraced(spec, seed, seconds),
        (Workload::Serve(spec), true) => traced(serve::run_traced(spec, seed, seconds)),
    };
    report::print(name, seed, args.trace, &outcome);
    // An incorrect run still exits 0 with `"correct": false`, so the driver reads why.
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json().pretty(2));
        return ExitCode::SUCCESS;
    }
    match (&args.workload, args.check, args.spread) {
        (Some((name, workload)), false, None) => run_workload(&args, name, workload),
        (None, true, None) => check::self_test(args.seed, args.seconds),
        (None, false, Some(runs)) => check::spread(args.seed, args.seconds, runs),
        (None, false, None) => check::suite(args.seed, args.seconds),
        _ => {
            eprintln!(
                "e2e: --check and --spread run every workload; pass at most one of the three"
            );
            ExitCode::from(2)
        }
    }
}
