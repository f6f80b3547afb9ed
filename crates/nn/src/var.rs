//! The reverse-mode automatic-differentiation engine.
//!
//! A [`Var`] is a cheaply clonable handle (an `Rc`) to a node in a dynamically built
//! computation graph. Every operation on `Var`s records its inputs and a backward closure;
//! calling [`Var::backward`] performs a topological sweep and accumulates gradients into
//! every node with `requires_grad == true`.
//!
//! The engine is single-threaded by design (training loops in this workspace parallelise
//! *inside* tensor kernels, not across graph nodes), which keeps the implementation small
//! and easy to audit.

use std::cell::{Cell, Ref, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use rita_tensor::NdArray;

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Returns whether gradient recording is currently enabled on this thread.
pub fn is_grad_enabled() -> bool {
    GRAD_ENABLED.with(|g| g.get())
}

/// Runs a closure with gradient recording disabled (inference / evaluation mode).
///
/// Operations executed inside the closure produce leaf `Var`s that carry no graph edges,
/// so large evaluation batches do not retain activation memory.
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    GRAD_ENABLED.with(|g| {
        let prev = g.get();
        g.set(false);
        let out = f();
        g.set(prev);
        out
    })
}

/// Gradient function: given the gradient flowing into a node and the node's parents,
/// produce one gradient per parent (same shapes as the parents' values).
pub(crate) type BackwardFn = Box<dyn Fn(&NdArray, &[Var]) -> Vec<NdArray>>;

pub(crate) struct VarNode {
    pub(crate) id: usize,
    pub(crate) value: RefCell<NdArray>,
    pub(crate) grad: RefCell<Option<NdArray>>,
    pub(crate) requires_grad: bool,
    pub(crate) parents: Vec<Var>,
    pub(crate) backward: Option<BackwardFn>,
}

/// A node in the autograd graph: a value, an optional gradient, and the recipe for
/// propagating gradients to its parents.
#[derive(Clone)]
pub struct Var(pub(crate) Rc<VarNode>);

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.0.id)
            .field("shape", &self.shape())
            .field("requires_grad", &self.0.requires_grad)
            .finish()
    }
}

impl Var {
    /// Creates a constant (no gradient) from an array.
    pub fn constant(value: NdArray) -> Self {
        Self::leaf(value, false)
    }

    /// Creates a trainable parameter (gradient accumulated on backward).
    pub fn parameter(value: NdArray) -> Self {
        Self::leaf(value, true)
    }

    /// Creates a leaf node.
    pub fn leaf(value: NdArray, requires_grad: bool) -> Self {
        Var(Rc::new(VarNode {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RefCell::new(value),
            grad: RefCell::new(None),
            requires_grad,
            parents: Vec::new(),
            backward: None,
        }))
    }

    /// Creates a scalar constant.
    pub fn scalar(value: f32) -> Self {
        Self::constant(NdArray::scalar(value))
    }

    /// Internal constructor for op results.
    pub(crate) fn from_op(value: NdArray, parents: Vec<Var>, backward: BackwardFn) -> Self {
        let grad_enabled = is_grad_enabled();
        let requires_grad = grad_enabled && parents.iter().any(|p| p.0.requires_grad);
        if !requires_grad {
            return Self::leaf(value, false);
        }
        Var(Rc::new(VarNode {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RefCell::new(value),
            grad: RefCell::new(None),
            requires_grad,
            parents,
            backward: Some(backward),
        }))
    }

    /// Unique node id (useful for debugging graphs).
    pub fn id(&self) -> usize {
        self.0.id
    }

    /// Whether this node accumulates a gradient.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad
    }

    /// Borrow the value.
    pub fn value(&self) -> Ref<'_, NdArray> {
        self.0.value.borrow()
    }

    /// Clones the value out of the node.
    pub fn to_array(&self) -> NdArray {
        self.0.value.borrow().clone()
    }

    /// Shape of the value.
    pub fn shape(&self) -> Vec<usize> {
        self.0.value.borrow().shape().to_vec()
    }

    /// Number of elements in the value.
    pub fn len(&self) -> usize {
        self.0.value.borrow().len()
    }

    /// `true` if the value holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scalar value of a single-element node.
    pub fn item(&self) -> f32 {
        self.0.value.borrow().item()
    }

    /// Clones the accumulated gradient, if any.
    pub fn grad(&self) -> Option<NdArray> {
        self.0.grad.borrow().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.0.grad.borrow_mut() = None;
    }

    /// Replaces the accumulated gradient wholesale (gradient clipping, manual seeding).
    /// Unlike the accumulation performed by [`Var::backward`], this overwrites whatever
    /// was stored; pass `None` to clear (equivalent to [`Var::zero_grad`]).
    pub fn set_grad(&self, grad: Option<NdArray>) {
        if let Some(g) = &grad {
            debug_assert_eq!(g.shape(), self.0.value.borrow().shape(), "set_grad shape mismatch");
        }
        *self.0.grad.borrow_mut() = grad;
    }

    /// Replaces the value in place (used by optimisers; does not touch the graph).
    pub fn set_value(&self, value: NdArray) {
        *self.0.value.borrow_mut() = value;
    }

    /// Applies an in-place update `f(&mut value)` (used by optimisers).
    pub fn update_value(&self, f: impl FnOnce(&mut NdArray)) {
        f(&mut self.0.value.borrow_mut());
    }

    /// Runs reverse-mode differentiation from this node.
    ///
    /// The node must hold a single element (a scalar loss). Gradients are *accumulated*
    /// into every reachable node with `requires_grad`; call [`Var::zero_grad`] (or
    /// `Optimizer::zero_grad`) between steps.
    pub fn backward(&self) {
        let seed = NdArray::ones(self.0.value.borrow().shape());
        assert_eq!(
            seed.len(),
            1,
            "backward() requires a scalar output, got shape {:?}",
            self.shape()
        );
        self.backward_with(seed);
    }

    /// Runs reverse-mode differentiation seeding the output gradient with `seed`
    /// (must match this node's shape). Useful for Jacobian-vector products in tests.
    pub fn backward_with(&self, seed: NdArray) {
        assert_eq!(seed.shape(), self.0.value.borrow().shape(), "backward seed shape mismatch");
        // Topological order via iterative post-order DFS.
        let order = topo_order(self);

        // Seed this node.
        accumulate(self, &seed);

        // Propagate in reverse topological order.
        for node in order.iter().rev() {
            if node.0.backward.is_none() {
                continue;
            }
            let grad_out = match node.0.grad.borrow().clone() {
                Some(g) => g,
                None => continue, // no gradient reached this node
            };
            let backward = node.0.backward.as_ref().expect("checked above");
            let parent_grads = backward(&grad_out, &node.0.parents);
            debug_assert_eq!(parent_grads.len(), node.0.parents.len());
            for (parent, pgrad) in node.0.parents.iter().zip(parent_grads) {
                if parent.0.requires_grad {
                    debug_assert_eq!(
                        pgrad.shape(),
                        parent.0.value.borrow().shape(),
                        "backward produced gradient with wrong shape"
                    );
                    accumulate(parent, &pgrad);
                }
            }
            // Free intermediate gradients (non-leaf nodes won't be read again).
            if node.0.backward.is_some() && node.0.id != self.0.id {
                *node.0.grad.borrow_mut() = None;
            }
        }
    }
}

fn accumulate(node: &Var, grad: &NdArray) {
    let mut slot = node.0.grad.borrow_mut();
    match slot.as_mut() {
        Some(existing) => {
            // add_assign is stride-aware in `grad` and copy-on-write in `existing`, so a
            // gradient that is a view aliasing some forward value is accumulated safely.
            existing.add_assign(grad).expect("gradient accumulation shape mismatch");
        }
        // Store gradients contiguously: optimisers and user code read them with
        // as_slice(), and views produced by backward closures (permute/transpose of the
        // output gradient) may alias graph intermediates we do not want to retain.
        None => *slot = Some(grad.materialize()),
    }
}

/// Iterative post-order DFS producing a topological ordering of the graph rooted at `root`
/// (parents appear before children in the returned vector).
fn topo_order(root: &Var) -> Vec<Var> {
    let mut order = Vec::new();
    let mut visited: HashSet<usize> = HashSet::new();
    // stack of (node, parents_pushed)
    let mut stack: Vec<(Var, bool)> = vec![(root.clone(), false)];
    while let Some((node, expanded)) = stack.pop() {
        if expanded {
            order.push(node);
            continue;
        }
        if visited.contains(&node.0.id) {
            continue;
        }
        visited.insert(node.0.id);
        stack.push((node.clone(), true));
        for p in &node.0.parents {
            if !visited.contains(&p.0.id) && p.0.requires_grad {
                stack.push((p.clone(), false));
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_properties() {
        let c = Var::constant(NdArray::ones(&[2, 2]));
        assert!(!c.requires_grad());
        let p = Var::parameter(NdArray::ones(&[2, 2]));
        assert!(p.requires_grad());
        assert_eq!(p.shape(), vec![2, 2]);
        assert_eq!(p.len(), 4);
        assert!(p.grad().is_none());
    }

    #[test]
    fn backward_through_simple_chain() {
        // y = sum(2 * x) => dy/dx = 2 everywhere
        let x = Var::parameter(NdArray::from_slice(&[1.0, 2.0, 3.0]));
        let y = x.scale(2.0).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn gradient_accumulates_across_backward_calls() {
        let x = Var::parameter(NdArray::from_slice(&[1.0]));
        let y = x.scale(3.0).sum_all();
        y.backward();
        let y2 = x.scale(3.0).sum_all();
        y2.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[6.0]);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // y = sum(x*x + x) ; dy/dx = 2x + 1
        let x = Var::parameter(NdArray::from_slice(&[2.0, -1.0]));
        let y = x.mul(&x).add(&x).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[5.0, -1.0]);
    }

    #[test]
    fn no_grad_skips_graph_construction() {
        let x = Var::parameter(NdArray::from_slice(&[1.0, 2.0]));
        let y = no_grad(|| x.scale(2.0).sum_all());
        assert!(!y.requires_grad());
        assert!(is_grad_enabled());
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let x = Var::parameter(NdArray::ones(&[2]));
        let y = x.scale(1.0);
        y.backward();
    }

    #[test]
    fn set_grad_overwrites_and_clears() {
        let x = Var::parameter(NdArray::from_slice(&[1.0, 2.0]));
        x.scale(2.0).sum_all().backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[2.0, 2.0]);
        x.set_grad(Some(NdArray::from_slice(&[5.0, -1.0])));
        assert_eq!(x.grad().unwrap().as_slice(), &[5.0, -1.0]);
        x.set_grad(None);
        assert!(x.grad().is_none());
        // Subsequent backward accumulates from the cleared slot, not the overwritten one.
        x.scale(3.0).sum_all().backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn backward_with_seed() {
        let x = Var::parameter(NdArray::from_slice(&[1.0, 2.0]));
        let y = x.scale(4.0);
        y.backward_with(NdArray::from_slice(&[1.0, 0.5]));
        assert_eq!(x.grad().unwrap().as_slice(), &[4.0, 2.0]);
    }
}
