//! Table 3: self-supervised pretraining + few-label fine-tuning vs. training from scratch,
//! for TST and the four RITA-architecture attention variants.

use rand::SeedableRng;
use rita_bench::experiments::{
    attention_variants, generate_split, rita_model, run_tst_classification,
};
use rita_bench::table::fmt_pct;
use rita_bench::{Scale, Table};
use rita_core::tasks::{finetune_classifier, Classifier, Imputer, TrainConfig};
use rita_data::DatasetKind;
use rita_tensor::SeedableRng64;

fn main() {
    let scale = Scale::from_args();
    let datasets = [DatasetKind::Wisdm, DatasetKind::Hhar, DatasetKind::Rwhar, DatasetKind::Ecg];
    let few_labels_per_class = match scale {
        Scale::Reduced => 4,
        Scale::Full => 100,
    };
    let mut table = Table::new(&["Dataset", "Method", "Scratch", "Pretrained"]);
    for kind in datasets {
        eprintln!("[table3] running {} ...", kind.name());
        let split = generate_split(kind, scale, 21);
        let few = split.train.few_labels_per_class(few_labels_per_class);
        let classes = kind.paper_spec().num_classes;
        let windows = scale.length(kind) / 5;
        let cfg = TrainConfig {
            epochs: scale.epochs(),
            batch_size: scale.batch_size(),
            lr: 1e-3,
            ..Default::default()
        };

        // TST row: scratch only at reduced scale (its pretraining objective is the same
        // cloze task; we report scratch twice the paper's gap is driven by the RITA rows).
        let tst = run_tst_classification(kind, scale, &split, 5);
        table.add_row(vec![kind.name().into(), "TST".into(), fmt_pct(tst.accuracy), "-".into()]);

        for (name, attention) in attention_variants(windows) {
            // Scratch: a fresh classifier trained on the few labels only.
            let mut rng = SeedableRng64::seed_from_u64(5);
            let model = rita_model(kind, scale, attention, &mut rng);
            let mut scratch_clf = Classifier::from_model(model, classes, &mut rng);
            scratch_clf.train(&few, &cfg, &mut rng);
            let scratch_acc = scratch_clf.evaluate(&split.valid, cfg.batch_size, &mut rng);

            // Pretrained: the cloze task on every training series, then fine-tuning.
            let mut rng = SeedableRng64::seed_from_u64(5);
            let model = rita_model(kind, scale, attention, &mut rng);
            let mut imputer = Imputer::from_model(model, &mut rng);
            imputer.train(&split.train, &cfg, &mut rng);
            let (mut pre_clf, _) =
                finetune_classifier(imputer.model, classes, &few, &cfg, &mut rng);
            let pre_acc = pre_clf.evaluate(&split.valid, cfg.batch_size, &mut rng);

            table.add_row(vec![
                kind.name().into(),
                name.into(),
                fmt_pct(scratch_acc),
                fmt_pct(pre_acc),
            ]);
        }
    }
    table.print("Table 3: pretrain + few-label finetuning accuracy (scratch vs. pretrained)");
}
