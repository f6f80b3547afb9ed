//! Zero-copy view semantics: the acceptance tests of the shared-buffer/strided-view
//! tensor refactor.
//!
//! Three layers of guarantees are pinned down here:
//!
//! 1. **Zero copies** — `reshape` (contiguous), `permute`/`transpose_last2`,
//!    `slice_axis`, `index_axis0`, `chunk_axis0`, `squeeze`/`unsqueeze`, `flatten`,
//!    `broadcast_to`, and the attention-layer `split_heads`/`merge_heads` round trip all
//!    alias the input's storage (asserted via `shares_storage`, i.e. `Arc::ptr_eq`).
//! 2. **View/copy equivalence** — every strided-view op produces results identical to
//!    running the same computation on a materialised copy, over many seeded random
//!    layouts (the property-test replacement for aliasing bugs).
//! 3. **Autograd through views** — gradients flow correctly through
//!    `permute → reshape → matmul` chains and broadcast views (the classic
//!    copy-on-write/aliasing traps), checked against finite differences.

use rand::SeedableRng;
use rita::core::attention::{merge_heads, split_heads};
use rita::nn::gradcheck::gradcheck;
use rita::nn::Var;
use rita::tensor::{allclose, NdArray, SeedableRng64};

fn randn(shape: &[usize], seed: u64) -> NdArray {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    NdArray::randn(shape, 1.0, &mut rng)
}

// ------------------------------------------------------------------ 1. zero-copy

#[test]
fn shape_ops_share_storage() {
    let a = randn(&[2, 3, 4], 1);

    assert!(a.shares_storage(&a.reshape(&[6, 4]).unwrap()), "reshape of contiguous");
    assert!(a.shares_storage(&a.permute(&[2, 0, 1]).unwrap()), "permute");
    assert!(a.shares_storage(&a.transpose_last2().unwrap()), "transpose_last2");
    assert!(a.shares_storage(&a.slice_axis(1, 1, 3).unwrap()), "slice_axis");
    assert!(a.shares_storage(&a.index_axis0(1).unwrap()), "index_axis0");
    assert!(a.shares_storage(&a.unsqueeze(0).unwrap()), "unsqueeze");
    assert!(a.shares_storage(&a.unsqueeze(0).unwrap().squeeze(0).unwrap()), "squeeze");
    assert!(a.shares_storage(&a.flatten()), "flatten of contiguous");
    assert!(a.shares_storage(&a.broadcast_to(&[5, 2, 3, 4]).unwrap()), "broadcast_to");
    for chunk in a.chunk_axis0(2).unwrap() {
        assert!(a.shares_storage(&chunk), "chunk_axis0");
    }

    // storage_id agrees with shares_storage.
    assert_eq!(a.storage_id(), a.permute(&[1, 0, 2]).unwrap().storage_id());
    assert_ne!(a.storage_id(), a.materialize().map(|x| x).storage_id());
}

#[test]
fn view_chains_stay_zero_copy() {
    // A chain of metadata edits must never touch the data.
    let a = randn(&[4, 6, 8], 2);
    let chained = a
        .permute(&[1, 0, 2])
        .unwrap()
        .slice_axis(0, 1, 5)
        .unwrap()
        .unsqueeze(0)
        .unwrap()
        .squeeze(0)
        .unwrap()
        .transpose_last2()
        .unwrap();
    assert!(a.shares_storage(&chained));
    assert_eq!(chained.shape(), &[4, 8, 4]);
}

#[test]
fn split_and_merge_heads_are_zero_copy() {
    let x = Var::constant(randn(&[2, 10, 16], 3));
    let split = split_heads(&x, 4);
    assert_eq!(split.shape(), vec![2, 4, 10, 4]);
    assert!(
        x.to_array().shares_storage(&split.to_array()),
        "split_heads must be a zero-copy view of the projection"
    );

    let merged = merge_heads(&split);
    assert_eq!(merged.shape(), vec![2, 10, 16]);
    assert!(
        x.to_array().shares_storage(&merged.to_array()),
        "merge_heads of a split-heads view must restore the original layout without a copy"
    );
    assert_eq!(merged.to_array(), x.to_array());
}

#[test]
fn reshape_of_noncontiguous_copies_exactly_once() {
    let a = randn(&[3, 5], 4);
    let t = a.transpose_last2().unwrap();
    let r = t.reshape(&[15]).unwrap();
    // The compaction is real (new storage) and correct (logical order preserved).
    assert!(!a.shares_storage(&r));
    assert_eq!(r, t.materialize().flatten());
}

// ------------------------------------------------------------------ 2. view == copy

/// Every strided-view op result must equal its materialised-copy counterpart.
#[test]
fn view_ops_match_materialized_counterparts_property() {
    for seed in 0..24u64 {
        let a = randn(&[3, 4, 5], 100 + seed);
        let b = randn(&[3, 5, 4], 200 + seed);

        // Permutations: elementwise and reductions.
        for axes in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]] {
            let v = a.permute(&axes).unwrap();
            let m = v.materialize();
            assert!(!m.shares_storage(&a) || v.is_contiguous());
            assert_eq!(v.exp(), m.exp(), "map under permute {axes:?} seed {seed}");
            for axis in 0..3 {
                assert_eq!(
                    v.sum_axis(axis, false).unwrap(),
                    m.sum_axis(axis, false).unwrap(),
                    "sum_axis {axis} under permute {axes:?} seed {seed}"
                );
            }
            assert!(allclose(
                v.softmax_last().unwrap().materialize().as_slice(),
                m.softmax_last().unwrap().as_slice(),
                1e-7,
                1e-7
            ));
        }

        // Slices along every axis.
        for axis in 0..3 {
            let hi = a.shape()[axis];
            let v = a.slice_axis(axis, 1, hi).unwrap();
            let m = v.materialize();
            assert_eq!(v.scale(2.0), m.scale(2.0), "slice axis {axis} seed {seed}");
            assert_eq!(v.sum_all(), m.sum_all(), "slice sum axis {axis} seed {seed}");
        }

        // Transposed matmul operands (the attention hot path).
        let bt = b.transpose_last2().unwrap(); // (3, 4, 5)
        let prod_view = bt.matmul(&b).unwrap();
        let prod_copy = bt.materialize().matmul(&b).unwrap();
        assert!(
            allclose(prod_view.as_slice(), prod_copy.as_slice(), 1e-5, 1e-5),
            "transposed-lhs matmul seed {seed}"
        );
        let nt_view = a.matmul_nt(&bt).unwrap(); // rhs (3,4,5) transposed -> (3,5,4)
        let nt_copy = a.matmul(&bt.transpose_last2().unwrap().materialize()).unwrap();
        assert!(
            allclose(nt_view.as_slice(), nt_copy.as_slice(), 1e-5, 1e-5),
            "matmul_nt seed {seed}"
        );

        // Broadcast views in arithmetic.
        let bias = randn(&[5], 300 + seed);
        let bview = bias.broadcast_to(&[3, 4, 5]).unwrap();
        assert_eq!(a.add(&bview).unwrap(), a.add(&bias).unwrap(), "broadcast add seed {seed}");
        assert_eq!(
            bview.materialize().sum_axis(0, false).unwrap(),
            bview.sum_axis(0, false).unwrap(),
            "broadcast reduce seed {seed}"
        );
    }
}

/// In-place accumulation into a view must never corrupt the aliased source (CoW).
#[test]
fn copy_on_write_protects_aliases_property() {
    for seed in 0..16u64 {
        let a = randn(&[4, 4], 400 + seed);
        let frozen = a.materialize();

        // Mutating a clone leaves the original untouched.
        let mut b = a.clone();
        b.map_inplace(|x| x + 1.0);
        assert_eq!(a, frozen, "clone mutation leaked into source, seed {seed}");

        // Mutating through a transposed view leaves the original untouched.
        let mut t = a.transpose_last2().unwrap();
        t.add_assign(&randn(&[4, 4], 500 + seed)).unwrap();
        assert_eq!(a, frozen, "view mutation leaked into source, seed {seed}");

        // Accumulating an alias of the same storage into itself is well-defined.
        let mut c = a.clone();
        let alias = c.clone();
        c.add_assign(&alias).unwrap();
        assert_eq!(c, frozen.scale(2.0), "self-aliased add_assign, seed {seed}");
        assert_eq!(alias, frozen, "alias operand mutated, seed {seed}");
    }
}

// ------------------------------------------------------------------ 3. autograd

#[test]
fn gradcheck_through_permute_reshape_matmul_chain() {
    let x0 = randn(&[2, 3, 4], 7).scale(0.5);
    let w = randn(&[6, 5], 8).scale(0.5);
    let report = gradcheck(
        |x| {
            // permute -> reshape (forces the compaction path) -> matmul -> softmax
            x.permute(&[2, 0, 1])
                .reshape(&[4, 6])
                .matmul(&Var::constant(w.clone()))
                .softmax_last()
                .square()
                .sum_all()
        },
        &x0,
        1e-2,
    );
    assert!(report.passes(2e-2, 5e-2), "{report:?}");
}

#[test]
fn gradcheck_through_transposed_matmul() {
    // Q·Kᵀ pattern: gradients must flow through the zero-copy transposed operand.
    let q0 = randn(&[2, 3, 4], 9).scale(0.5);
    let k = Var::constant(randn(&[2, 5, 4], 10).scale(0.5));
    let report = gradcheck(|q| q.matmul_nt(&k).square().sum_all(), &q0, 1e-2);
    assert!(report.passes(2e-2, 5e-2), "{report:?}");

    let k0 = randn(&[2, 5, 4], 11).scale(0.5);
    let q = Var::constant(randn(&[2, 3, 4], 12).scale(0.5));
    let report = gradcheck(|k| q.matmul_nt(k).square().sum_all(), &k0, 1e-2);
    assert!(report.passes(2e-2, 5e-2), "{report:?}");
}

#[test]
fn gradcheck_through_broadcast_views() {
    // A (3,) bias broadcast into a (4, 3) sum: the backward must reduce over the
    // broadcast dimension (the adjoint of the stride-0 view).
    let b0 = randn(&[3], 13);
    let x = Var::constant(randn(&[4, 3], 14));
    let report = gradcheck(|b| x.add(b).square().sum_all(), &b0, 1e-2);
    assert!(report.passes(2e-2, 5e-2), "{report:?}");

    // Broadcasting with a size-1 middle axis.
    let c0 = randn(&[4, 1, 3], 15);
    let y = Var::constant(randn(&[4, 2, 3], 16));
    let report = gradcheck(|c| y.mul(c).sum_all(), &c0, 1e-2);
    assert!(report.passes(2e-2, 5e-2), "{report:?}");
}

#[test]
fn gradients_accumulate_correctly_through_aliased_views() {
    // The same parameter feeds the loss through two different views of its value; the
    // accumulated gradient must be the sum of both paths' gradients.
    let x = Var::parameter(NdArray::arange(1.0, 1.0, 6).reshape(&[2, 3]).unwrap());
    let through_transpose = x.transpose_last2().sum_axis(0).scale(2.0).sum_all();
    let direct = x.scale(3.0).sum_all();
    through_transpose.add(&direct).backward();
    let g = x.grad().unwrap();
    assert!(g.as_slice().iter().all(|&v| (v - 5.0).abs() < 1e-6), "{g:?}");
}

#[test]
fn optimizer_step_does_not_corrupt_view_graph() {
    use rita::nn::optim::{AdamW, Optimizer};
    // A parameter whose forward pass produced views of its storage: stepping the
    // optimiser mutates the parameter (CoW) without disturbing the view values read
    // during backward.
    let w = Var::parameter(randn(&[3, 3], 17));
    let before = w.to_array();
    let loss = w.transpose_last2().matmul(&w).sum_all();
    loss.backward();
    let mut opt = AdamW::new(vec![w.clone()], 0.1, 0.0);
    opt.step();
    let after = w.to_array();
    assert_ne!(before, after, "step must update the parameter");
    assert_eq!(before.shape(), after.shape());
    // The gradient of sum(WᵀW) is W(1ᵀ+1) summed appropriately; just assert finiteness
    // and that a second backward/step round trip still works on the mutated storage.
    let loss2 = w.transpose_last2().matmul(&w).sum_all();
    loss2.backward();
    opt.step();
    assert!(!w.to_array().has_non_finite());
}
