//! The register-blocked, packed GEMM engine shared by every matrix product in the crate.
//!
//! The design follows the classic BLIS decomposition:
//!
//! * an `MR × NR` **micro-kernel** keeps a tile of independent accumulators in registers
//!   and walks the reduction dimension once, so the compiler can keep `MR × NR / lanes`
//!   vector FMAs in flight instead of the single running row the old streaming kernels
//!   exposed;
//! * both operands are **packed into panels** (`MR`-row strips of the lhs, `NR`-column
//!   strips of the rhs, reduction-major within each strip) so the micro-kernel reads
//!   contiguous, aligned, zero-padded memory regardless of the source view's strides —
//!   packing replaces the old "compact the whole tensor" fallback and consumes any
//!   `(row_stride, col_stride)` layout, including transposed and broadcast views;
//! * **cache blocking** (`KC`/`MC`/`NC`) sizes the packed panels so the lhs block stays
//!   resident in L1/L2 while an `NC`-wide rhs panel streams through it.
//!
//! The micro-kernel is compiled twice: once for the build's baseline target and once
//! under `target_feature(avx2,fma)`, selected at run time via
//! [`simd_accelerated`] — release builds keep the portable x86-64 baseline, yet the hot
//! loop still issues 8-wide FMAs on machines that have them.
//!
//! An `alpha` scale factor is folded into the lhs packing, so `alpha · A · B` costs no
//! extra pass over the output (the `1/√d` of attention scores rides along for free).

use std::cell::RefCell;

/// Micro-kernel rows (independent accumulator rows held in registers).
pub(crate) const MR: usize = 4;
/// Micro-kernel columns (one or two vector registers wide on all supported targets).
pub(crate) const NR: usize = 16;
/// Reduction-dimension cache block: one packed lhs panel strip is `MR × KC` floats.
pub(crate) const KC: usize = 256;
/// Output-row cache block: the packed lhs block is `MC × KC` floats (64 KiB, L2-resident).
pub(crate) const MC: usize = 64;
/// Output-column cache block: the packed rhs panel is `KC × NC` floats (512 KiB max).
pub(crate) const NC: usize = 512;

/// Whether the runtime CPU supports the AVX2+FMA micro-kernel build. Detected once.
#[cfg(target_arch = "x86_64")]
pub(crate) fn simd_accelerated() -> bool {
    static CACHED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// Non-x86 targets always use the portable kernel build.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn simd_accelerated() -> bool {
    false
}

/// Compiles `fn $name(..)` twice — once for the build's baseline target, once under
/// `target_feature(avx2,fma)` — and emits `$name::run(..)` which picks the widest build
/// the CPU supports (via [`simd_accelerated`], detected once). The body is an
/// `#[inline(always)]` function, so each clone inlines it and re-vectorises it under its
/// own feature set; this is how the hot loops issue 8-wide FMAs without changing the
/// portable build flags. `body` is visible to the parent module, or as far as a
/// visibility written before `fn` says (so another kernel can inline it).
macro_rules! simd_dispatch {
    (fn $($rest:tt)*) => {
        $crate::gemm::simd_dispatch! { pub(super) fn $($rest)* }
    };
    ($vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        #[allow(clippy::too_many_arguments)]
        pub(crate) mod $name {
            #[allow(unused_imports)]
            use super::*;

            /// The kernel itself. Called directly (as the tests do) it is the baseline
            /// build, which they pin [`run`] to bit for bit; inlined into another
            /// dispatched kernel it takes on that kernel's build.
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            $vis fn body($($arg: $ty),*) $body

            // `unsafe` only because of `target_feature`: calling this on a CPU
            // without avx2+fma would execute illegal instructions. The body itself
            // is plain safe Rust (slice-indexed loops, no raw pointers).
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn accelerated($($arg: $ty),*) {
                body($($arg),*)
            }

            /// Runs the kernel, picking the widest build the CPU supports.
            #[allow(clippy::too_many_arguments)]
            pub(super) fn run($($arg: $ty),*) {
                #[cfg(target_arch = "x86_64")]
                if crate::gemm::simd_accelerated() {
                    // SAFETY: the only precondition of `accelerated` is that the
                    // CPU actually supports avx2+fma (it has no memory-safety
                    // preconditions of its own); `simd_accelerated` verified both
                    // features at run time via `is_x86_feature_detected!`.
                    return unsafe { accelerated($($arg),*) };
                }
                body($($arg),*)
            }
        }
    };
}

pub(crate) use simd_dispatch;

/// Packs an `m × kc` lhs block into `MR`-row panels, reduction-major within each panel:
/// `buf[panel * MR * kc + p * MR + i] = alpha * a[(panel * MR + i) * rs + p * cs]`,
/// zero-padded to a whole panel so the micro-kernel never branches on the row edge.
///
/// `rs`/`cs` are the element strides of the source block's rows/columns; any layout —
/// row-major, transposed, or fully general (including broadcast stride 0) — packs the
/// same way.
#[inline(always)]
pub(crate) fn pack_lhs(
    a: &[f32],
    rs: usize,
    cs: usize,
    m: usize,
    kc: usize,
    alpha: f32,
    buf: &mut [f32],
) {
    for panel in 0..m.div_ceil(MR) {
        let out = &mut buf[panel * MR * kc..(panel + 1) * MR * kc];
        let rows = MR.min(m - panel * MR);
        for p in 0..kc {
            for i in 0..rows {
                out[p * MR + i] = alpha * a[(panel * MR + i) * rs + p * cs];
            }
            for i in rows..MR {
                out[p * MR + i] = 0.0;
            }
        }
    }
}

/// Packs a `kc × n` rhs block into `NR`-column panels, reduction-major within each panel:
/// `buf[panel * NR * kc + p * NR + j] = b[p * rs + (panel * NR + j) * cs]`, zero-padded
/// to a whole panel. A unit column stride takes a contiguous-copy fast path (the common
/// row-major rhs).
#[inline(always)]
pub(crate) fn pack_rhs(b: &[f32], rs: usize, cs: usize, kc: usize, n: usize, buf: &mut [f32]) {
    for panel in 0..n.div_ceil(NR) {
        let out = &mut buf[panel * NR * kc..(panel + 1) * NR * kc];
        let cols = NR.min(n - panel * NR);
        if cs == 1 && cols == NR {
            for p in 0..kc {
                out[p * NR..(p + 1) * NR].copy_from_slice(&b[p * rs + panel * NR..][..NR]);
            }
        } else {
            for p in 0..kc {
                for j in 0..cols {
                    out[p * NR + j] = b[p * rs + (panel * NR + j) * cs];
                }
                for j in cols..NR {
                    out[p * NR + j] = 0.0;
                }
            }
        }
    }
}

/// The `MR × NR` register-tile micro-kernel: `out[..mr, ..nr] += apanel · bpanel` over a
/// reduction of length `kc`. The accumulator tile lives entirely in registers
/// (`MR × NR = 64` floats — 8 AVX2 vectors), giving the independent FMA chains the old
/// single-accumulator loops lacked; panels are read contiguously, padded positions
/// multiply against zero.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn micro_kernel(
    apanel: &[f32],
    bpanel: &[f32],
    out: &mut [f32],
    pitch: usize,
    kc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let bv = &bpanel[p * NR..(p + 1) * NR];
        let av = &apanel[p * MR..(p + 1) * MR];
        for i in 0..MR {
            let a = av[i];
            for j in 0..NR {
                acc[i][j] += a * bv[j];
            }
        }
    }
    for i in 0..mr {
        let row = &mut out[i * pitch..i * pitch + nr];
        for (o, a) in row.iter_mut().zip(&acc[i][..nr]) {
            *o += a;
        }
    }
}

thread_local! {
    /// Per-thread packing scratch, reused across GEMM calls so steady-state products
    /// allocate nothing. (Each pool worker keeps its own copy across fan-outs.)
    static SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// One blocked 2-D GEMM: `out[m × n] += alpha · a · b` where `a` is read through
/// `(ars, acs)` row/column strides and `b` through `(brs, bcs)` — both operands may be
/// arbitrary strided views; packing normalises them. `out` is dense row-major with row
/// pitch `n`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_strided(
    a: &[f32],
    ars: usize,
    acs: usize,
    b: &[f32],
    brs: usize,
    bcs: usize,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (apack, bpack) = &mut *scratch;
        let kcap = KC.min(k);
        apack.resize(MC.div_ceil(MR) * MR * kcap, 0.0);
        bpack.resize(NC.min(n.next_multiple_of(NR)).div_ceil(NR) * NR * kcap, 0.0);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let mut jc = 0;
            while jc < n {
                let nc = NC.min(n - jc);
                pack_rhs(&b[pc * brs + jc * bcs..], brs, bcs, kc, nc, bpack);
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    pack_lhs(&a[ic * ars + pc * acs..], ars, acs, mc, kc, alpha, apack);
                    macro_kernel::run(apack, bpack, &mut out[ic * n + jc..], n, kc, mc, nc);
                    ic += mc;
                }
                jc += nc;
            }
            pc += kc;
        }
    });
}

simd_dispatch! {
    pub(crate) fn macro_kernel(
        apack: &[f32],
        bpack: &[f32],
        out: &mut [f32],
        pitch: usize,
        kc: usize,
        mc: usize,
        nc: usize
    ) {
        for pj in 0..nc.div_ceil(NR) {
            let nr = NR.min(nc - pj * NR);
            for pi in 0..mc.div_ceil(MR) {
                let mr = MR.min(mc - pi * MR);
                micro_kernel(
                    &apack[pi * MR * kc..],
                    &bpack[pj * NR * kc..],
                    &mut out[pi * MR * pitch + pj * NR..],
                    pitch,
                    kc,
                    mr,
                    nr,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, alpha: f32) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = alpha * s;
            }
        }
        out
    }

    #[test]
    fn blocked_matches_naive_across_block_edges() {
        // Sizes straddling every blocking boundary: below MR/NR, at the edges, and
        // crossing KC/MC/NC so partial panels and partial k-blocks all run.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 2, 5),
            (4, 16, 16),
            (5, 17, 19),
            (MR + 1, KC + 3, NR + 1),
            (MC + 5, 33, NC + 7),
            (65, KC + KC / 2 + 1, 47),
        ] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i % 23) as f32 - 11.0) * 0.13).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i % 19) as f32 - 9.0) * 0.07).collect();
            for &alpha in &[1.0f32, -0.5] {
                let mut out = vec![0.0f32; m * n];
                gemm_strided(&a, k, 1, &b, n, 1, &mut out, m, k, n, alpha);
                let expect = naive(&a, &b, m, k, n, alpha);
                for (x, y) in out.iter().zip(&expect) {
                    assert!((x - y).abs() < 1e-3, "({m},{k},{n}) alpha {alpha}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn strided_operands_match_contiguous() {
        // Feed the same logical matrices through transposed strides: a as (k, m)
        // column-major, b as (n, k) column-major.
        let (m, k, n) = (7usize, 9usize, 11usize);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.01).collect();
        let b: Vec<f32> = (0..k * n).map(|i| 1.0 - (i as f32) * 0.005).collect();
        // at[p * m + i] = a[i * k + p]
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut bt = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let expect = naive(&a, &b, m, k, n, 1.0);
        let mut out = vec![0.0f32; m * n];
        gemm_strided(&at, 1, m, &bt, 1, k, &mut out, m, k, n, 1.0);
        for (x, y) in out.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4);
        }
        // Broadcast rhs: a column vector with column stride 0 behaves as repeated columns.
        let col: Vec<f32> = (0..k).map(|p| 0.5 - p as f32 * 0.1).collect();
        let bb: Vec<f32> = (0..k * n).map(|i| col[i / n]).collect();
        let expect_b = naive(&a, &bb, m, k, n, 1.0);
        let mut out_b = vec![0.0f32; m * n];
        gemm_strided(&a, k, 1, &col, 1, 0, &mut out_b, m, k, n, 1.0);
        for (x, y) in out_b.iter().zip(&expect_b) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_accumulates_into_output() {
        let (m, k, n) = (3usize, 4usize, 5usize);
        let a = vec![1.0f32; m * k];
        let b = vec![2.0f32; k * n];
        let mut out = vec![10.0f32; m * n];
        gemm_strided(&a, k, 1, &b, n, 1, &mut out, m, k, n, 1.0);
        for &x in &out {
            assert!((x - (10.0 + 8.0)).abs() < 1e-5);
        }
    }
}
