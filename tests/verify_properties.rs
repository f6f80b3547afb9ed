//! The static analyzer's own contract, pinned by its fault-injection oracle.
//!
//! Two halves:
//! 1. **Soundness of acceptance** — every served model (vanilla, fixed and adaptive group
//!    attention × both task heads) verifies with zero error diagnostics, end-to-end from the
//!    checkpoint, and its compiled plans verify clean per shape bucket.
//! 2. **Rejection completeness** — every [`Corruption`] class the mutator can inject
//!    (ten: swapped/dropped schedule entries, perturbed AOT shape, shrunk arena,
//!    truncated lifetime, an unsafe in-place mark, swapped `Linear` weights, retargeted param path, perturbed
//!    dequantization scale, record dtype mismatch) is rejected with an error
//!    diagnostic from the *matching* analysis, across several injection sites.
//!
//! A verifier that fails either half has a blind spot the serving tier would inherit.

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::Checkpoint;
use rita::core::graph::{build_graph, POSITIONAL};
use rita::core::model::RitaConfig;
use rita::core::tasks::{Classifier, Imputer};
use rita::tensor::SeedableRng64;
use rita::verify::{verify_checkpoint, verify_plan, verify_with_graph, Target, ALL};

fn attention_kinds() -> Vec<(&'static str, AttentionKind)> {
    vec![
        ("vanilla", AttentionKind::Vanilla),
        ("group", AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: false }),
        (
            "group_adaptive",
            AttentionKind::Group { epsilon: 2.0, initial_groups: 6, adaptive: true },
        ),
    ]
}

fn config_for(kind: AttentionKind) -> RitaConfig {
    RitaConfig::tiny(2, 50, kind)
}

fn checkpoints_for(kind: AttentionKind) -> Vec<(&'static str, Checkpoint)> {
    let mut rng = SeedableRng64::seed_from_u64(7);
    let config = config_for(kind);
    vec![
        ("classifier", Checkpoint::of_classifier(&Classifier::new(config, 4, &mut rng), None)),
        ("imputer", Checkpoint::of_imputer(&Imputer::new(config, &mut rng), None)),
    ]
}

/// The serving graph for a checkpoint, exactly as `InferModel::from_checkpoint`
/// builds it, plus the shape lookup the compiler and the verifier share.
fn serving_graph(
    ckpt: &Checkpoint,
) -> (rita::nn::graph::Graph, std::collections::HashMap<String, Vec<usize>>) {
    let g = build_graph(&ckpt.config, ckpt.task, &ckpt.scheduler).unwrap();
    let mut shapes: std::collections::HashMap<String, Vec<usize>> =
        ckpt.tensors.iter().map(|(p, t)| (p.clone(), t.shape().to_vec())).collect();
    shapes.insert(POSITIONAL.to_string(), vec![ckpt.config.max_windows() + 1, ckpt.config.d_model]);
    (g, shapes)
}

/// Half 1: every shipped model verifies clean across the full attention × head grid.
#[test]
fn all_shipped_models_verify_clean() {
    for (kind_name, kind) in attention_kinds() {
        for (head, ckpt) in checkpoints_for(kind) {
            let report = verify_checkpoint(&ckpt);
            assert!(!report.has_errors(), "{kind_name}/{head} should verify clean, got:\n{report}");
        }
    }
}

/// Half 1, version-3 dtypes: the int8 twin of every shipped model also verifies
/// clean — the dtype analysis must reject damage, not healthy quantized records.
#[test]
fn quantized_checkpoints_verify_clean() {
    for (kind_name, kind) in attention_kinds() {
        for (head, ckpt) in checkpoints_for(kind) {
            let report = verify_checkpoint(&ckpt.quantize());
            assert!(
                !report.has_errors(),
                "{kind_name}/{head} (quantized) should verify clean, got:\n{report}"
            );
        }
    }
}

/// Compiled plans — per shape bucket, including a non-maximal length — verify clean.
#[test]
fn compiled_plans_verify_clean_per_shape_bucket() {
    for (kind_name, kind) in attention_kinds() {
        let (_, ckpt) = checkpoints_for(kind).remove(0);
        let (g, shapes) = serving_graph(&ckpt);
        let lookup = |name: &str| shapes.get(name).cloned();
        for input in [[3, 2, 50], [1, 2, 25], [2, 2, 5]] {
            let plan = g.compile(&input, &lookup).unwrap_or_else(|e| {
                panic!("{kind_name}: plan for {input:?} failed to compile: {e}")
            });
            let report = verify_plan(&g, &plan, &lookup);
            assert!(
                !report.has_errors(),
                "{kind_name} plan for {input:?} should verify clean, got:\n{report}"
            );
        }
    }
}

/// Half 2: the mutation-class property sweep. Every corruption class, injected at
/// several sites, over every attention kind, must be rejected with an error
/// diagnostic from the analysis the class claims to defeat.
#[test]
fn every_corruption_class_is_rejected_by_the_matching_analysis() {
    for (kind_name, kind) in attention_kinds() {
        let (_, ckpt) = checkpoints_for(kind).remove(0);
        let (g, shapes) = serving_graph(&ckpt);
        let lookup = |name: &str| shapes.get(name).cloned();
        let clean_plan = g.compile(&[2, 2, 50], &lookup).expect("clean plan compiles");
        // The checkpoint-record classes only have sites on the v3 dtypes, so they
        // sweep over the quantized twin of the same checkpoint.
        let quantized = ckpt.quantize();

        for corruption in ALL {
            let expected = corruption.expected_analysis();
            for site in 0..3 {
                let report = match corruption.target() {
                    Target::Plan => {
                        let mut plan = clean_plan.clone();
                        if !corruption.apply_to_plan(&g, &mut plan, site) {
                            panic!("{kind_name}: no site {site} for {corruption:?}");
                        }
                        verify_plan(&g, &plan, &lookup)
                    }
                    Target::Graph => {
                        let mut mutated = g.clone();
                        if !corruption.apply_to_graph(&mut mutated, site) {
                            panic!("{kind_name}: no site {site} for {corruption:?}");
                        }
                        verify_with_graph(&ckpt, &mutated)
                    }
                    Target::Checkpoint => {
                        let mut mutated = quantized.clone();
                        if !corruption.apply_to_checkpoint(&mut mutated, site) {
                            panic!("{kind_name}: no site {site} for {corruption:?}");
                        }
                        verify_checkpoint(&mutated)
                    }
                };
                assert!(
                    report.has_error_in(expected),
                    "{kind_name}: {corruption:?} at site {site} must be rejected by the \
                     {} analysis, got:\n{report}",
                    expected.name(),
                );
            }
        }
    }
}

/// The config gate: an inconsistent configuration is a typed diagnostic, not a panic.
#[test]
fn bad_config_is_diagnosed_not_panicked() {
    let (_, mut ckpt) = checkpoints_for(AttentionKind::Vanilla).remove(0);
    ckpt.config.n_heads = 3; // 16 % 3 != 0
    let report = verify_checkpoint(&ckpt);
    assert!(report.has_error_in(rita::verify::Analysis::Config), "got:\n{report}");
}
