//! Table 4: the adaptive scheduler vs. a fixed number of groups N — accuracy / MSE and
//! training time, varying the error bound ε for the dynamic scheduler and N for the fixed
//! baseline. "Final N" is the group count the run ended on: the scheduler's per-layer
//! target after training for the dynamic rows, the configured N for the fixed ones.

use rand::SeedableRng;
use rita_bench::experiments::{generate_split, rita_config};
use rita_bench::table::{fmt_f32, fmt_pct, fmt_secs};
use rita_bench::{Scale, Table};
use rita_core::attention::AttentionKind;
use rita_core::tasks::{Classifier, Imputer, TrainConfig};
use rita_data::DatasetKind;
use rita_tensor::SeedableRng64;

/// What one training run reports: the per-layer scheduler targets read after `train`
/// and **before** `evaluate` (evaluation forwards run the scheduler too), the formatted
/// validation metric, and the training seconds.
type Run = (Vec<Option<f32>>, String, f64);

/// Adds one dataset's rows: three error bounds for the dynamic scheduler, then four
/// fixed group counts. `run` trains and evaluates a fresh model with the given attention.
fn add_rows(
    table: &mut Table,
    dataset: &str,
    task: &str,
    windows: usize,
    run: impl Fn(AttentionKind) -> Run,
) {
    let dynamic = [1.5f32, 2.0, 3.0].map(|epsilon| {
        let attention =
            AttentionKind::Group { epsilon, initial_groups: windows / 2, adaptive: true };
        (true, format!("{epsilon}"), attention)
    });
    let fixed = [windows / 8, windows / 4, windows / 2, windows].map(|n| {
        let attention =
            AttentionKind::Group { epsilon: 2.0, initial_groups: n.max(2), adaptive: false };
        (false, n.max(2).to_string(), attention)
    });
    for (adaptive, parameter, attention) in dynamic.into_iter().chain(fixed) {
        let scheduler = if adaptive { "Dynamic" } else { "Fixed" };
        eprintln!("[table4] {dataset} {scheduler} {parameter}");
        let (targets, metric, seconds) = run(attention);
        let final_n = if adaptive {
            let layers: Vec<String> = targets.iter().flatten().map(|t| format!("{t:.1}")).collect();
            layers.join(" / ")
        } else {
            parameter.clone()
        };
        table.add_row(vec![
            dataset.into(),
            task.into(),
            scheduler.into(),
            parameter,
            final_n,
            metric,
            fmt_secs(seconds),
        ]);
    }
}

fn main() {
    let scale = Scale::from_args();
    let cfg = TrainConfig {
        epochs: scale.epochs(),
        batch_size: scale.batch_size(),
        lr: 1e-3,
        ..Default::default()
    };
    let mut table =
        Table::new(&["Dataset", "Task", "Scheduler", "Parameter", "Final N", "Metric", "Time/s"]);

    // --- ECG classification ---
    let split = generate_split(DatasetKind::Ecg, scale, 55);
    add_rows(&mut table, "ECG", "Class.", scale.length(DatasetKind::Ecg) / 5, |attention| {
        let mut rng = SeedableRng64::seed_from_u64(4);
        let mut clf = Classifier::new(rita_config(DatasetKind::Ecg, scale, attention), 9, &mut rng);
        let report = clf.train(&split.train, &cfg, &mut rng);
        let targets = clf.model.scheduler_state();
        let acc = clf.evaluate(&split.valid, cfg.batch_size, &mut rng);
        (targets, fmt_pct(acc), report.total_seconds())
    });

    // --- MGH imputation ---
    let split = generate_split(DatasetKind::Mgh, scale, 56);
    add_rows(&mut table, "MGH", "Imput.", scale.length(DatasetKind::Mgh) / 5, |attention| {
        let mut rng = SeedableRng64::seed_from_u64(4);
        let mut imp = Imputer::new(rita_config(DatasetKind::Mgh, scale, attention), &mut rng);
        let report = imp.train(&split.train, &cfg, &mut rng);
        let targets = imp.model.scheduler_state();
        let mse = imp.evaluate(&split.valid, cfg.batch_size, cfg.mask_rate, &mut rng);
        (targets, fmt_f32(mse), report.total_seconds())
    });
    table.print("Table 4: adaptive scheduling vs fixed N");
}
