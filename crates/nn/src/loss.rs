//! Loss functions used by the RITA downstream tasks: cross entropy for classification
//! (Appendix A.7.1), mean squared error and masked MSE for imputation / forecasting /
//! the cloze pretraining task (Appendix A.7.2).

use crate::var::Var;
use rita_tensor::NdArray;

/// Cross-entropy loss from raw logits.
///
/// `logits` has shape `(batch, classes)`; `targets` holds one class index per row.
/// Returns the mean negative log-likelihood as a scalar [`Var`]. The gradient is the
/// classic `(softmax − one-hot) / batch`, implemented as a single fused backward for
/// numerical stability.
pub fn cross_entropy_logits(logits: &Var, targets: &[usize]) -> Var {
    let shape = logits.shape();
    assert_eq!(shape.len(), 2, "cross entropy expects (batch, classes) logits, got {shape:?}");
    let (batch, classes) = (shape[0], shape[1]);
    assert_eq!(batch, targets.len(), "logits batch {batch} != targets {}", targets.len());
    assert!(targets.iter().all(|&t| t < classes), "target class out of range");

    let log_probs = logits.value().log_softmax_last().expect("log softmax");
    let mut nll = 0.0f32;
    for (i, &t) in targets.iter().enumerate() {
        nll -= log_probs.as_slice()[i * classes + t];
    }
    let value = NdArray::scalar(nll / batch as f32);
    let targets_owned = targets.to_vec();
    Var::from_op(
        value,
        vec![logits.clone()],
        Box::new(move |g, parents| {
            let logits_val = parents[0].value();
            let mut grad = logits_val.softmax_last().expect("softmax in ce backward");
            {
                let gs = grad.as_mut_slice();
                for (i, &t) in targets_owned.iter().enumerate() {
                    gs[i * classes + t] -= 1.0;
                }
            }
            vec![grad.scale(g.item() / batch as f32)]
        }),
    )
}

/// `Σ weight·(pred − target)² / denom` as one tape node: one pass forward, one pass
/// backward writing `2·weight·(pred − target)/denom` (`weight` is 1 when `mask` is
/// `None`).
fn squared_error(pred: &Var, target: &NdArray, mask: Option<&NdArray>, denom: f32) -> Var {
    let target = target.materialize();
    let mask = mask.map(NdArray::materialize);
    let value = {
        let p = pred.value().materialize();
        let diffs = p.as_slice().iter().zip(target.as_slice()).map(|(&p, &t)| p - t);
        let sum: f32 = match &mask {
            Some(m) => diffs.zip(m.as_slice()).map(|(d, &m)| d * d * m).sum(),
            None => diffs.map(|d| d * d).sum(),
        };
        NdArray::scalar(sum / denom)
    };
    Var::from_op(
        value,
        vec![pred.clone()],
        Box::new(move |g, parents| {
            let p = parents[0].value().materialize();
            let scale = 2.0 * g.item() / denom;
            let diffs = p.as_slice().iter().zip(target.as_slice()).map(|(&p, &t)| p - t);
            let grad: Vec<f32> = match &mask {
                Some(m) => diffs.zip(m.as_slice()).map(|(d, &m)| scale * m * d).collect(),
                None => diffs.map(|d| scale * d).collect(),
            };
            vec![NdArray::from_vec(grad, p.shape()).expect("squared error gradient shape")]
        }),
    )
}

/// Mean squared error between a prediction and a constant target.
pub fn mse(pred: &Var, target: &NdArray) -> Var {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    squared_error(pred, target, None, pred.len().max(1) as f32)
}

/// Mean squared error restricted to positions where `mask == 1`
/// (the loss of the paper's mask-and-predict pretraining and imputation tasks:
/// `L = 1/|M| Σ_{(i,j)∈M} (Y − T)²`).
pub fn masked_mse(pred: &Var, target: &NdArray, mask: &NdArray) -> Var {
    assert_eq!(pred.shape(), target.shape(), "masked_mse: pred/target shape mismatch");
    assert_eq!(pred.shape(), mask.shape().to_vec(), "masked_mse: mask shape mismatch");
    squared_error(pred, target, Some(mask), mask.sum_all().max(1.0))
}

/// Classification accuracy of logits against integer targets (evaluation helper).
pub fn accuracy(logits: &NdArray, targets: &[usize]) -> f32 {
    if targets.is_empty() {
        return 0.0;
    }
    let pred = logits.argmax_last();
    let correct = pred.iter().zip(targets.iter()).filter(|(p, t)| p == t).count();
    correct as f32 / targets.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rita_tensor::allclose;

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Var::constant(
            NdArray::from_vec(vec![10.0, -10.0, -10.0, -10.0, 10.0, -10.0], &[2, 3]).unwrap(),
        );
        let loss = cross_entropy_logits(&logits, &[0, 1]);
        assert!(loss.item() < 1e-3);
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_ln_c() {
        let logits = Var::constant(NdArray::zeros(&[4, 5]));
        let loss = cross_entropy_logits(&logits, &[0, 1, 2, 3]);
        assert!((loss.item() - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_softmax_minus_onehot() {
        let x0 = NdArray::from_vec(vec![0.5, -0.2, 1.0, 0.0, 2.0, -1.0], &[2, 3]).unwrap();
        let logits = Var::parameter(x0.clone());
        cross_entropy_logits(&logits, &[2, 0]).backward();
        let g = logits.grad().unwrap();
        let sm = x0.softmax_last().unwrap();
        let mut expect = sm.clone();
        expect.as_mut_slice()[2] -= 1.0;
        expect.as_mut_slice()[3] -= 1.0;
        let expect = expect.scale(0.5);
        assert!(allclose(g.as_slice(), expect.as_slice(), 1e-5, 1e-5));
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let x0 =
            NdArray::from_vec(vec![0.3, -0.7, 0.2, 1.4, -0.1, 0.0, 0.9, -2.0], &[2, 4]).unwrap();
        let targets = [3usize, 1usize];
        let logits = Var::parameter(x0.clone());
        cross_entropy_logits(&logits, &targets).backward();
        let g = logits.grad().unwrap();
        let eps = 1e-3f32;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x0.clone();
            minus.as_mut_slice()[i] -= eps;
            let fp = cross_entropy_logits(&Var::constant(plus), &targets).item();
            let fm = cross_entropy_logits(&Var::constant(minus), &targets).item();
            assert!((g.as_slice()[i] - (fp - fm) / (2.0 * eps)).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_targets() {
        let logits = Var::constant(NdArray::zeros(&[1, 3]));
        let _ = cross_entropy_logits(&logits, &[3]);
    }

    #[test]
    fn mse_is_zero_for_identical_inputs() {
        let target = NdArray::from_slice(&[1.0, 2.0, 3.0]);
        let pred = Var::constant(target.clone());
        assert_eq!(mse(&pred, &target).item(), 0.0);
        let pred2 = Var::constant(NdArray::from_slice(&[2.0, 2.0, 3.0]));
        assert!((mse(&pred2, &target).item() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn masked_mse_ignores_unmasked_positions() {
        let target = NdArray::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let pred = Var::constant(NdArray::from_slice(&[0.0, 2.0, 0.0, 4.0]));
        // only positions 0 and 1 are in the mask; error only at position 0
        let mask = NdArray::from_slice(&[1.0, 1.0, 0.0, 0.0]);
        let loss = masked_mse(&pred, &target, &mask);
        assert!((loss.item() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn masked_mse_gradient_only_on_masked_positions() {
        let target = NdArray::zeros(&[4]);
        let mask = NdArray::from_slice(&[1.0, 0.0, 1.0, 0.0]);
        let pred = Var::parameter(NdArray::from_slice(&[1.0, 1.0, 1.0, 1.0]));
        masked_mse(&pred, &target, &mask).backward();
        let g = pred.grad().unwrap();
        assert_eq!(g.as_slice()[1], 0.0);
        assert_eq!(g.as_slice()[3], 0.0);
        assert!(g.as_slice()[0] > 0.0);
    }

    #[test]
    fn squared_error_nodes_match_the_composed_chains() {
        use rand::SeedableRng;
        let mut rng = rita_tensor::SeedableRng64::seed_from_u64(3);
        let shape = [2usize, 3, 17];
        let target = NdArray::randn(&shape, 1.0, &mut rng);
        let mask = NdArray::bernoulli(&shape, 0.3, &mut rng);
        let x0 = NdArray::randn(&shape, 1.0, &mut rng);
        // The forms these losses had before they became single nodes.
        let mse_composed = |p: &Var| p.sub(&Var::constant(target.clone())).square().mean_all();
        let masked_composed = |p: &Var| {
            let diff = p.sub(&Var::constant(target.clone()));
            diff.square().mul_mask(&mask).sum_all().scale(1.0 / mask.sum_all().max(1.0))
        };
        let both = |fused: &dyn Fn(&Var) -> Var, composed: &dyn Fn(&Var) -> Var| {
            // Also through a permuted view of the prediction.
            for x in [
                x0.clone(),
                x0.permute(&[0, 2, 1]).unwrap().materialize().permute(&[0, 2, 1]).unwrap(),
            ] {
                let (a, b) = (Var::parameter(x.clone()), Var::parameter(x));
                let (la, lb) = (fused(&a), composed(&b));
                assert!((la.item() - lb.item()).abs() <= 1e-5 * lb.item().abs());
                la.scale(3.0).backward();
                lb.scale(3.0).backward();
                let (ga, gb) = (a.grad().unwrap(), b.grad().unwrap());
                assert!(allclose(ga.as_slice(), gb.as_slice(), 1e-7, 1e-5));
            }
        };
        both(&|p| mse(p, &target), &mse_composed);
        both(&|p| masked_mse(p, &target, &mask), &masked_composed);
        let report = crate::gradcheck::gradcheck(|p| masked_mse(p, &target, &mask), &x0, 1e-2);
        assert!(report.passes(1e-2, 1e-2), "{report:?}");
        let report = crate::gradcheck::gradcheck(|p| mse(p, &target), &x0, 1e-2);
        assert!(report.passes(1e-2, 1e-2), "{report:?}");
        // An empty mask divides by 1, not 0.
        assert_eq!(
            masked_mse(&Var::constant(x0.clone()), &target, &NdArray::zeros(&shape)).item(),
            0.0
        );
    }

    #[test]
    fn accuracy_counts_correct_argmax() {
        let logits = NdArray::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
        assert_eq!(accuracy(&NdArray::zeros(&[0, 2]), &[]), 0.0);
    }
}
