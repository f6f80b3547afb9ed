//! Helpers shared by the integration tests (each `tests/*.rs` is its own crate).

use rita::core::tasks::Classifier;
use rita::nn::optim::AdamW;
use rita::nn::Module;

/// Every parameter, scheduler target and AdamW moment of two training runs equal to
/// the last bit.
pub fn assert_same_training_state(a: &Classifier, a_opt: &AdamW, b: &Classifier, b_opt: &AdamW) {
    let (a_params, b_params) = (a.named_parameters(), b.named_parameters());
    assert_eq!(a_params.len(), b_params.len());
    for ((pa, va), (pb, vb)) in a_params.iter().zip(&b_params) {
        assert_eq!(pa, pb);
        assert_eq!(va.to_array().as_slice(), vb.to_array().as_slice(), "parameter '{pa}' diverged");
    }
    assert_eq!(a.model.scheduler_state(), b.model.scheduler_state());
    let (sa, sb) = (a_opt.state(), b_opt.state());
    assert_eq!(sa.steps, sb.steps);
    for ((pa, ma, va), (pb, mb, vb)) in sa.moments.iter().zip(&sb.moments) {
        assert_eq!(pa, pb);
        assert_eq!(ma.as_slice(), mb.as_slice(), "first moment '{pa}' diverged");
        assert_eq!(va.as_slice(), vb.as_slice(), "second moment '{pa}' diverged");
    }
}
