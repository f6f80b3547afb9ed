//! The AdamW optimiser (decoupled weight decay) plus global gradient-norm clipping. The
//! RITA experiments use AdamW with lr = 1e-4 and weight decay = 1e-4, matching the
//! paper's configuration (Appendix A.1).
//!
//! AdamW manages a set of **named, deduplicated** parameter slots: moment state
//! is keyed by the parameter's [`ParamPath`] (so it can round-trip through checkpoints),
//! and a `Var` appearing under several paths (tied weights) is collapsed — by node
//! identity — into one slot, so it is stepped and weight-decayed exactly once per
//! [`Optimizer::step`] no matter how many modules share it.

use std::collections::HashSet;

use crate::module::{Module, ParamPath};
use crate::var::Var;
use rita_tensor::NdArray;

/// A first-order optimiser over a fixed set of parameters.
pub trait Optimizer {
    /// Applies one update step from the currently accumulated gradients.
    fn step(&mut self);
    /// Clears gradients of all managed parameters.
    fn zero_grad(&self);
    /// The (deduplicated) parameters managed by this optimiser.
    fn parameters(&self) -> Vec<Var>;
}

/// Deduplicates `(path, var)` pairs by node identity: the first path a shared `Var`
/// appears under wins, later occurrences are dropped.
fn dedupe_named(named: Vec<(ParamPath, Var)>) -> Vec<(ParamPath, Var)> {
    let mut seen: HashSet<usize> = HashSet::with_capacity(named.len());
    named.into_iter().filter(|(_, var)| seen.insert(var.id())).collect()
}

/// Wraps anonymous parameters in positional paths (`param.0`, `param.1`, …) so the
/// plain-`Vec<Var>` constructors keep working for ad-hoc use.
fn positional_named(params: Vec<Var>) -> Vec<(ParamPath, Var)> {
    params
        .into_iter()
        .enumerate()
        .map(|(i, var)| (ParamPath::root().join("param").join(&i.to_string()), var))
        .collect()
}

/// AdamW: Adam with decoupled weight decay (Loshchilov & Hutter, 2017).
pub struct AdamW {
    slots: Vec<AdamSlot>,
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
    t: usize,
}

struct AdamSlot {
    path: ParamPath,
    var: Var,
    m: NdArray,
    v: NdArray,
}

/// Serialisable snapshot of an [`AdamW`]'s moment state, keyed by parameter path —
/// what a checkpoint stores so that resumed training continues step-for-step.
#[derive(Debug, Clone)]
pub struct AdamWState {
    /// Number of steps taken.
    pub steps: usize,
    /// Learning rate at capture time.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
    /// Per-parameter `(path, first moment, second moment)` triples.
    pub moments: Vec<(ParamPath, NdArray, NdArray)>,
}

impl AdamW {
    /// Creates an AdamW optimiser over anonymous parameters (deduplicated by identity)
    /// with the paper's defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(params: Vec<Var>, lr: f32, weight_decay: f32) -> Self {
        Self::with_named(positional_named(params), lr, weight_decay)
    }

    /// Creates an AdamW optimiser over a module's named parameter tree, so the moment
    /// state is keyed by stable paths (checkpointable) and tied weights collapse into
    /// one slot.
    pub fn for_module(module: &(impl Module + ?Sized), lr: f32, weight_decay: f32) -> Self {
        Self::with_named(module.named_parameters(), lr, weight_decay)
    }

    /// Creates an AdamW optimiser over named parameters (deduplicated by identity).
    pub fn with_named(named: Vec<(ParamPath, Var)>, lr: f32, weight_decay: f32) -> Self {
        let slots = dedupe_named(named)
            .into_iter()
            .map(|(path, var)| {
                let m = NdArray::zeros(&var.shape());
                let v = NdArray::zeros(&var.shape());
                AdamSlot { path, var, m, v }
            })
            .collect();
        Self { slots, lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay, t: 0 }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> usize {
        self.t
    }

    /// Snapshots the moment state (for checkpoints).
    pub fn state(&self) -> AdamWState {
        AdamWState {
            steps: self.t,
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            moments: self
                .slots
                .iter()
                .map(|s| (s.path.clone(), s.m.clone(), s.v.clone()))
                .collect(),
        }
    }

    /// Restores moment state captured by [`AdamW::state`]. Slots are matched by path;
    /// every managed slot must be present in `state` with a matching shape.
    pub fn load_state(&mut self, state: &AdamWState) -> Result<(), String> {
        let by_path: std::collections::HashMap<&str, (&NdArray, &NdArray)> =
            state.moments.iter().map(|(p, m, v)| (p.as_str(), (m, v))).collect();
        if by_path.len() > self.slots.len() {
            let known: std::collections::HashSet<&str> =
                self.slots.iter().map(|s| s.path.as_str()).collect();
            let extra: Vec<&str> = by_path.keys().copied().filter(|p| !known.contains(p)).collect();
            return Err(format!(
                "optimizer state holds moments for unknown parameters {extra:?} \
                 (architecture drift)"
            ));
        }
        for slot in &mut self.slots {
            let Some((m, v)) = by_path.get(slot.path.as_str()) else {
                return Err(format!("optimizer state missing moments for '{}'", slot.path));
            };
            if m.shape() != slot.var.shape() || v.shape() != slot.var.shape() {
                return Err(format!(
                    "optimizer moment shape mismatch for '{}': parameter {:?} vs state {:?}/{:?}",
                    slot.path,
                    slot.var.shape(),
                    m.shape(),
                    v.shape()
                ));
            }
            slot.m = (*m).clone();
            slot.v = (*v).clone();
        }
        self.t = state.steps;
        self.lr = state.lr;
        self.beta1 = state.beta1;
        self.beta2 = state.beta2;
        self.eps = state.eps;
        self.weight_decay = state.weight_decay;
        Ok(())
    }
}

impl Optimizer for AdamW {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for slot in &mut self.slots {
            let Some(g) = slot.var.grad() else { continue };
            slot.m = slot.m.scale(self.beta1).add(&g.scale(1.0 - self.beta1)).expect("adamw m");
            slot.v = slot
                .v
                .scale(self.beta2)
                .add(&g.mul(&g).expect("adamw g^2").scale(1.0 - self.beta2))
                .expect("adamw v");
            let m_hat = slot.m.scale(1.0 / bc1);
            let v_hat = slot.v.scale(1.0 / bc2);
            let eps = self.eps;
            let update = m_hat.div(&v_hat.sqrt().add_scalar(eps)).expect("adamw update");
            let lr = self.lr;
            let wd = self.weight_decay;
            slot.var.update_value(|w| {
                if wd > 0.0 {
                    // decoupled weight decay: w ← w − lr · wd · w
                    let decayed = w.scale(1.0 - lr * wd);
                    *w = decayed;
                }
                w.axpy(-lr, &update).expect("adamw step");
            });
        }
    }

    fn zero_grad(&self) {
        for slot in &self.slots {
            slot.var.zero_grad();
        }
    }

    fn parameters(&self) -> Vec<Var> {
        self.slots.iter().map(|s| s.var.clone()).collect()
    }
}

/// Rescales all gradients so their global L2 norm does not exceed `max_norm`.
/// Returns the pre-clipping norm.
pub fn clip_grad_norm(params: &[Var], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        if let Some(g) = p.grad() {
            total += g.sq_norm();
        }
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if let Some(g) = p.grad() {
                p.set_grad(Some(g.scale(scale)));
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ParamVisitor;

    /// Minimises f(w) = ||w - target||² and checks convergence.
    fn quadratic_converges(mut opt: impl Optimizer, w: Var, target: NdArray, iters: usize) -> f32 {
        for _ in 0..iters {
            opt.zero_grad();
            let diff = w.sub(&Var::constant(target.clone()));
            let loss = diff.square().sum_all();
            loss.backward();
            opt.step();
        }
        let diff = w.to_array().sub(&target).unwrap();
        diff.norm()
    }

    #[test]
    fn adamw_converges_on_quadratic() {
        let w = Var::parameter(NdArray::zeros(&[4]));
        let target = NdArray::from_slice(&[1.0, -2.0, 3.0, 0.5]);
        let opt = AdamW::new(vec![w.clone()], 0.05, 0.0);
        let err = quadratic_converges(opt, w, target, 300);
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn adamw_weight_decay_shrinks_weights() {
        // With zero gradient signal, weight decay alone should shrink the weights.
        let w = Var::parameter(NdArray::full(&[4], 10.0));
        let mut opt = AdamW::new(vec![w.clone()], 0.1, 0.5);
        for _ in 0..10 {
            opt.zero_grad();
            // loss independent of w: gradient is 0 but a grad entry must exist for the step
            let loss = w.mul(&Var::constant(NdArray::zeros(&[4]))).sum_all();
            loss.backward();
            opt.step();
        }
        assert!(w.to_array().as_slice().iter().all(|&x| x < 10.0 && x > 0.0));
        assert_eq!(opt.steps(), 10);
    }

    #[test]
    fn skips_params_without_gradients() {
        let used = Var::parameter(NdArray::ones(&[2]));
        let unused = Var::parameter(NdArray::ones(&[2]));
        let mut opt = AdamW::new(vec![used.clone(), unused.clone()], 0.5, 0.5);
        opt.zero_grad();
        used.scale(2.0).sum_all().backward();
        opt.step();
        assert_eq!(unused.to_array().as_slice(), &[1.0, 1.0]);
        assert_ne!(used.to_array().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn clip_grad_norm_bounds_global_norm() {
        let a = Var::parameter(NdArray::ones(&[2]));
        let b = Var::parameter(NdArray::ones(&[2]));
        a.scale(3.0).sum_all().backward();
        b.scale(4.0).sum_all().backward();
        // grads: [3,3] and [4,4]; global norm = sqrt(9+9+16+16) = sqrt(50)
        let pre = clip_grad_norm(&[a.clone(), b.clone()], 1.0);
        assert!((pre - 50.0f32.sqrt()).abs() < 1e-4);
        let mut total = 0.0;
        for p in [&a, &b] {
            total += p.grad().unwrap().sq_norm();
        }
        assert!((total.sqrt() - 1.0).abs() < 1e-4);
    }

    /// A module reporting the same `Var` under two paths — the tied-weight setting.
    struct TiedModule {
        w: Var,
    }

    impl Module for TiedModule {
        fn visit_params(&self, v: &mut ParamVisitor<'_>) {
            v.scope("embed", |v| v.leaf("weight", &self.w));
            v.scope("decode", |v| v.leaf("weight", &self.w));
        }
    }

    /// Regression: a tied weight used to be stepped (and weight-decayed) once per
    /// occurrence in `parameters()`. The deduplicated registry must step it exactly once.
    #[test]
    fn tied_weights_are_stepped_once() {
        let tied = TiedModule { w: Var::parameter(NdArray::full(&[3], 2.0)) };
        let mut opt = AdamW::for_module(&tied, 0.1, 0.5);
        assert_eq!(opt.parameters().len(), 1, "tied weight must occupy one slot");

        // Reference: the same initial weight managed once, same gradient.
        let reference = Var::parameter(NdArray::full(&[3], 2.0));
        let mut ref_opt = AdamW::new(vec![reference.clone()], 0.1, 0.5);

        for _ in 0..3 {
            opt.zero_grad();
            ref_opt.zero_grad();
            tied.w.scale(3.0).sum_all().backward();
            reference.scale(3.0).sum_all().backward();
            opt.step();
            ref_opt.step();
        }
        assert_eq!(
            tied.w.to_array().as_slice(),
            reference.to_array().as_slice(),
            "tied weight must receive exactly one update (and one decay) per step"
        );
    }

    #[test]
    fn adamw_state_roundtrips_by_path() {
        let tied = TiedModule { w: Var::parameter(NdArray::full(&[2], 5.0)) };
        let mut opt = AdamW::for_module(&tied, 0.05, 0.01);
        for _ in 0..4 {
            opt.zero_grad();
            tied.w.square().sum_all().backward();
            opt.step();
        }
        let state = opt.state();
        assert_eq!(state.steps, 4);
        assert_eq!(state.moments.len(), 1);
        assert_eq!(state.moments[0].0.as_str(), "embed.weight");

        // A fresh optimiser over a structurally identical module accepts the state.
        let clone = TiedModule { w: Var::parameter(tied.w.to_array()) };
        let mut resumed = AdamW::for_module(&clone, 0.05, 0.01);
        resumed.load_state(&state).unwrap();
        assert_eq!(resumed.steps(), 4);

        // Both take one more identical step and agree bit-for-bit.
        opt.zero_grad();
        resumed.zero_grad();
        tied.w.square().sum_all().backward();
        clone.w.square().sum_all().backward();
        opt.step();
        resumed.step();
        assert_eq!(tied.w.to_array().as_slice(), clone.w.to_array().as_slice());
    }

    #[test]
    fn load_state_rejects_missing_and_mismatched_paths() {
        let tied = TiedModule { w: Var::parameter(NdArray::zeros(&[2])) };
        let opt = AdamW::for_module(&tied, 0.1, 0.0);
        let mut other = AdamW::new(vec![Var::parameter(NdArray::zeros(&[2]))], 0.1, 0.0);
        let err = other.load_state(&opt.state()).unwrap_err();
        assert!(err.contains("missing moments"), "{err}");

        let mut bad_state = opt.state();
        bad_state.moments[0].1 = NdArray::zeros(&[3]);
        let mut resumed = AdamW::for_module(&tied, 0.1, 0.0);
        let err = resumed.load_state(&bad_state).unwrap_err();
        assert!(err.contains("shape mismatch"), "{err}");

        // State from a *larger* model (extra paths) must be rejected, not silently
        // truncated — symmetric with the checkpoint loader's leftover-tensor check.
        let mut oversized = opt.state();
        oversized.moments.push((
            ParamPath::new("ghost.weight"),
            NdArray::zeros(&[2]),
            NdArray::zeros(&[2]),
        ));
        let mut resumed = AdamW::for_module(&tied, 0.1, 0.0);
        let err = resumed.load_state(&oversized).unwrap_err();
        assert!(err.contains("unknown parameters"), "{err}");
    }
}
