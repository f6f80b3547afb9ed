//! The approximate-attention baselines of §6 — Performer and Linformer — and the variant
//! type that builds a RITA backbone around any of the compared mechanisms.
//!
//! The paper builds every attention baseline by swapping the attention module of an
//! otherwise identical RITA model. [`AttentionVariant::model`] does exactly that through
//! [`RitaModel::with_attention`]: the embedding, projections, norms and feed-forward
//! blocks are drawn from the generator in the same order for every variant, and only
//! the attention module differs. Task heads attach through `Classifier::from_model` and
//! `Imputer::from_model`.
//!
//! A baseline model trains and evaluates but is never checkpointed: `rita-core`'s
//! format records only the attention kinds it serves, so `Checkpoint::of_*` refuses a
//! model whose layers run anything else.

pub mod linformer;
pub mod performer;

use rand::Rng;
use rita_core::attention::AttentionKind;
use rita_core::model::{RitaConfig, RitaModel};

pub use linformer::LinformerAttention;
pub use performer::PerformerAttention;

/// One attention mechanism of the §6 comparison inside the RITA architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttentionVariant {
    /// A mechanism `rita-core` builds itself (vanilla or group attention).
    Rita(AttentionKind),
    /// Performer (FAVOR+ positive random features).
    Performer {
        /// Number of random features.
        features: usize,
    },
    /// Linformer (learned low-rank projection of keys and values along the sequence).
    Linformer {
        /// Projected sequence length.
        proj_dim: usize,
    },
}

impl AttentionVariant {
    /// Builds a RITA backbone for `config` whose every layer runs this variant's
    /// attention; `config.attention` is replaced by the variant's kind, which is
    /// `Vanilla` for the two baselines.
    pub fn model<R: Rng>(self, config: RitaConfig, rng: &mut R) -> RitaModel {
        let baseline = RitaConfig { attention: AttentionKind::Vanilla, ..config };
        match self {
            AttentionVariant::Rita(attention) => {
                RitaModel::new(RitaConfig { attention, ..config }, rng)
            }
            AttentionVariant::Performer { features } => {
                let head_dim = config.head_dim();
                RitaModel::with_attention(
                    baseline,
                    |rng| Box::new(PerformerAttention::new(head_dim, features, rng)),
                    rng,
                )
            }
            AttentionVariant::Linformer { proj_dim } => {
                // One projection column per window plus the `[CLS]` token.
                let units = config.max_windows() + 1;
                RitaModel::with_attention(
                    baseline,
                    |rng| Box::new(LinformerAttention::new(units, proj_dim, rng)),
                    rng,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rita_core::checkpoint::Checkpoint;
    use rita_core::tasks::Classifier;
    use rita_nn::Module;
    use rita_tensor::{NdArray, SeedableRng64};

    const PERFORMER: AttentionVariant = AttentionVariant::Performer { features: 8 };
    const LINFORMER: AttentionVariant = AttentionVariant::Linformer { proj_dim: 4 };

    fn model(variant: AttentionVariant, seed: u64) -> RitaModel {
        let config = RitaConfig::tiny(3, 40, AttentionKind::default_group());
        variant.model(config, &mut SeedableRng64::seed_from_u64(seed))
    }

    fn params(model: &RitaModel) -> Vec<(String, NdArray)> {
        model.named_parameters().into_iter().map(|(p, v)| (p.to_string(), v.to_array())).collect()
    }

    /// The baselines draw their attention state exactly where `RitaModel::new` would
    /// have built the core attention: after layer 0's four projections, before its
    /// feed-forward block. Everything drawn before that point is bit-identical to a
    /// vanilla model from the same seed, and every draw after it is shifted.
    #[test]
    fn baselines_draw_their_attention_between_the_projections_and_the_feed_forward() {
        let vanilla = params(&model(AttentionVariant::Rita(AttentionKind::Vanilla), 5));
        let shared = |path: &str| {
            path.starts_with("embedding.")
                || ["q_proj", "k_proj", "v_proj", "out_proj"]
                    .iter()
                    .any(|p| path.starts_with(&format!("encoder.layers.0.{p}.")))
        };
        let drawn_after = |path: &str| {
            path.starts_with("encoder.layers.0.ff.") || path.starts_with("encoder.layers.1.")
        };
        for variant in [PERFORMER, LINFORMER] {
            let theirs: Vec<_> = params(&model(variant, 5))
                .into_iter()
                .filter(|(p, _)| !p.contains("attention"))
                .collect();
            assert_eq!(theirs.len(), vanilla.len(), "{variant:?}");
            let (mut same, mut moved) = (0, 0);
            for ((pa, a), (pb, b)) in vanilla.iter().zip(&theirs) {
                assert_eq!(pa, pb);
                if shared(pa) {
                    assert_eq!(a.as_slice(), b.as_slice(), "{variant:?}: {pa} moved");
                    same += 1;
                } else if drawn_after(pa) && pa.ends_with(".weight") && !pa.contains("norm") {
                    assert_ne!(a.as_slice(), b.as_slice(), "{variant:?}: {pa} did not move");
                    moved += 1;
                }
            }
            assert!(same >= 10 && moved >= 6, "{variant:?}: {same} shared, {moved} moved");
        }
    }

    #[test]
    fn variants_build_their_mechanism_into_every_layer() {
        let group = AttentionVariant::Rita(AttentionKind::default_group());
        for (variant, name) in
            [(group, "Group Attn."), (PERFORMER, "Performer"), (LINFORMER, "Linformer")]
        {
            let m = model(variant, 1);
            assert!(m.encoder.layers.iter().all(|l| l.attention.name() == name), "{name}");
            let expected = if name == "Group Attn." { name } else { "Vanilla" };
            assert_eq!(m.config.attention.name(), expected);
        }
    }

    #[test]
    fn linformer_layers_expose_projection_parameters() {
        let plain = model(AttentionVariant::Rita(AttentionKind::Vanilla), 3);
        let linformer = model(LINFORMER, 3);
        // Two (proj_dim, windows + 1) projections per layer: 2 layers × 2 × 4 × 9.
        assert_eq!(linformer.num_parameters(), plain.num_parameters() + 2 * 2 * 4 * 9);
    }

    /// A factory-built model must never be written as a checkpoint that loads as
    /// something else: without Performer's ω its file would restore as Vanilla.
    #[test]
    #[should_panic(expected = "runs Performer attention")]
    fn a_performer_classifier_cannot_be_checkpointed() {
        let mut rng = SeedableRng64::seed_from_u64(2);
        let clf = Classifier::from_model(model(PERFORMER, 2), 4, &mut rng);
        let _ = Checkpoint::of_classifier(&clf, None);
    }
}
