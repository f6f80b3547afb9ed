//! Figure 5: comparison against the non-deep-learning baseline GRAIL on the three
//! univariate datasets — accuracy and training time.

use rita_baselines::AttentionVariant;
use rita_bench::experiments::{generate_split, run_classification, run_grail};
use rita_bench::table::{fmt_pct, fmt_secs};
use rita_bench::{Scale, Table};
use rita_core::attention::AttentionKind;
use rita_data::{DataSplit, DatasetKind};

fn main() {
    let scale = Scale::from_args();
    let mut table =
        Table::new(&["Dataset", "GRAIL acc", "RITA acc", "GRAIL time/s", "RITA time/s"]);
    for (multi, uni) in [
        (DatasetKind::Wisdm, DatasetKind::WisdmUni),
        (DatasetKind::Hhar, DatasetKind::HharUni),
        (DatasetKind::Rwhar, DatasetKind::RwharUni),
    ] {
        eprintln!("[fig5] running {} ...", uni.name());
        let split = generate_split(multi, scale, 33);
        let uni_split =
            DataSplit { train: split.train.to_univariate(0), valid: split.valid.to_univariate(0) };
        let (grail_acc, grail_secs) = run_grail(&uni_split, 3);
        let attention = AttentionKind::Group { epsilon: 2.0, initial_groups: 16, adaptive: true };
        let rita = run_classification(uni, scale, AttentionVariant::Rita(attention), &uni_split, 3);
        table.add_row(vec![
            uni.name().into(),
            fmt_pct(grail_acc),
            fmt_pct(rita.accuracy),
            fmt_secs(grail_secs),
            fmt_secs(rita.epoch_seconds * scale.epochs() as f64),
        ]);
    }
    table.print(
        "Fig. 5: RITA (Group Attn.) vs GRAIL on uni-variate data (accuracy, total training time)",
    );
}
