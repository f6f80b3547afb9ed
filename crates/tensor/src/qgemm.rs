//! The int8 quantized GEMM engine: per-channel weights, per-row dynamic activations,
//! i32 accumulators, f32 dequant fused into the writeback.
//!
//! This is the quantized sibling of the f32 engine in `gemm.rs`, built for the
//! inference pattern `out += alpha · X · W` where `W` is a weight matrix known long
//! before the call:
//!
//! * **Weights are quantized per output channel** (one scale per column of the
//!   `(k, n)` matrix, `scale_j = max|W[·,j]| / 127`) and **pre-packed** into the same
//!   `NR`-column reduction-major panels the f32 kernel streams — once, at model load.
//!   A quantized call therefore skips the rhs packing pass entirely and reads weight
//!   panels at 1 byte/element instead of 4, which is where the bandwidth win comes
//!   from on the memory-bound inference shapes; the compute win comes from the
//!   `vpmaddwd` panel layout (see [`QuantMatrix`]).
//! * **Activations are quantized per row, dynamically**, during the lhs pack:
//!   `scale_i = max|X[i,·]| / 127`, nearest-integer quantization into `MR`-row
//!   panels. One extra max-abs sweep per row buys an error bound that adapts to each
//!   request's actual magnitude.
//! * The micro-kernel keeps an `MR × NR` tile of **`i32` accumulators**: an
//!   i8×i8 product needs 15 bits, so a k-long reduction is exact up to
//!   `k < 2^31 / 127² ≈ 1.3e5` — far beyond any model dimension here, hence no
//!   per-block requantization and no saturation anywhere inside the loop.
//! * **Dequantization happens once, in the writeback**: `out[i,j] += alpha ·
//!   a_scale[i] · w_scale[j] · acc[i,j]`. Nothing downstream ever sees an integer.
//!
//! The kernel is compiled through the same [`simd_dispatch!`] probe as the f32 path
//! (baseline + AVX2 clone selected at run time), and the packing scratch comes from
//! the thread-local byte pool (`pool::pool_i16`), so steady-state quantized calls
//! allocate nothing.

use crate::gemm::{MC, MR, NR};
use crate::pool::pool_i16;

/// Largest reduction depth the i32 accumulator tile is exact for. Products are
/// bounded by 127² < 2¹⁴, so `k` summands need `14 + ⌈log₂ k⌉` bits.
pub const MAX_QUANT_K: usize = (i32::MAX / (127 * 127)) as usize;

/// Quantizes one row-major `(k, n)` f32 weight matrix to int8 with one scale per
/// output column (`scale_j = max|W[·,j]| / 127`, or `1.0` for an all-zero column).
/// Returns the row-major quantized values and the `n` scales. This is the single
/// quantization routine shared by the offline checkpoint pass and load-time
/// quantization, so both produce bit-identical payloads.
pub fn quantize_columns(w: &[f32], k: usize, n: usize) -> (Vec<i8>, Vec<f32>) {
    assert_eq!(w.len(), k * n, "weight slice must be dense row-major (k, n)");
    let mut scales = vec![1.0f32; n];
    let mut inv = vec![0.0f32; n];
    for j in 0..n {
        let mut mx = 0.0f32;
        for p in 0..k {
            mx = mx.max(w[p * n + j].abs());
        }
        if mx > 0.0 {
            scales[j] = mx / 127.0;
            inv[j] = 127.0 / mx;
        }
    }
    let mut q = vec![0i8; k * n];
    for p in 0..k {
        for j in 0..n {
            q[p * n + j] = (w[p * n + j] * inv[j]).round() as i8;
        }
    }
    (q, scales)
}

/// Dequantizes a row-major `(k, n)` int8 payload back to f32: `w[p,j] = q[p,j] ·
/// scale_j`. The exact inverse view of [`quantize_columns`]'s rounding — used by the
/// f32 fallback binding and the round-trip property tests.
pub fn dequantize_columns(q: &[i8], scales: &[f32], k: usize, n: usize) -> Vec<f32> {
    assert_eq!(q.len(), k * n);
    assert_eq!(scales.len(), n);
    let mut w = vec![0.0f32; k * n];
    for p in 0..k {
        for j in 0..n {
            w[p * n + j] = q[p * n + j] as f32 * scales[j];
        }
    }
    w
}

/// A weight matrix quantized per output channel and pre-packed into `NR`-column
/// panels, ready for [`qgemm`]. Building one is the load-time cost of the int8 path;
/// every subsequent product reuses the panels untouched (the struct is immutable and
/// `Sync`, so one instance serves all worker threads).
///
/// ## Panel layout: interleaved k-pairs
///
/// Within each `NR`-column panel, values are stored as **pairs of consecutive
/// reduction steps per column**: `panels[panel·NR·kk + p2·2·NR + 2·j + t]` holds
/// `W[2·p2 + t, panel·NR + j]` (with `kk` = `k` rounded up to even, zero-padded).
/// This is exactly the operand order of the AVX2 `vpmaddwd` instruction — multiply
/// 16 adjacent i16 lanes pairwise and add each pair into 8 i32 lanes — so the hot
/// loop turns two straight panel loads into 2 reduction steps across 16 columns with
/// no in-register shuffling. The scalar twin walks the same layout, so both builds
/// are bit-identical.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    k: usize,
    n: usize,
    /// `k` rounded up to even: the padded reduction depth of the panel layout.
    kk: usize,
    /// `n.div_ceil(NR)` panels of `NR × kk` int8-valued codes, interleaved k-pairs
    /// (see the struct docs), zero-padded on both the column and the reduction edge.
    /// Stored widened to `i16` — the exact operand width of `vpmaddwd` — so the hot
    /// loop is two straight loads per k-pair with no in-register sign extension;
    /// still half the f32 engine's panel traffic.
    panels: Vec<i16>,
    /// One f32 dequantization scale per output column (`n` of them).
    scales: Vec<f32>,
}

impl QuantMatrix {
    /// Quantizes and packs a dense row-major `(k, n)` f32 weight matrix.
    pub fn quantize(w: &[f32], k: usize, n: usize) -> Self {
        let (q, scales) = quantize_columns(w, k, n);
        Self::from_quantized(&q, scales, k, n)
    }

    /// Packs an already-quantized row-major `(k, n)` int8 payload (e.g. straight from
    /// a v3 checkpoint record) with its per-column scales. No requantization: serving
    /// a checkpoint quantized offline is bit-identical to quantizing at load.
    pub fn from_quantized(q: &[i8], scales: Vec<f32>, k: usize, n: usize) -> Self {
        assert_eq!(q.len(), k * n, "payload must be dense row-major (k, n)");
        assert_eq!(scales.len(), n, "one scale per output column");
        assert!(k <= MAX_QUANT_K, "reduction depth {k} overflows the i32 accumulator");
        let kk = k.next_multiple_of(2);
        let mut panels = vec![0i16; n.div_ceil(NR) * NR * kk];
        for panel in 0..n.div_ceil(NR) {
            let cols = NR.min(n - panel * NR);
            let out = &mut panels[panel * NR * kk..(panel + 1) * NR * kk];
            for p in 0..k {
                for j in 0..cols {
                    out[(p / 2) * 2 * NR + 2 * j + (p % 2)] = q[p * n + panel * NR + j] as i16;
                }
            }
        }
        Self { k, n, kk, panels, scales }
    }

    /// Reduction depth (`k`): rows of the original weight matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output channels (`n`): columns of the original weight matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-output-column dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// Packs an `m × k` f32 lhs block into `MR`-row panels of interleaved k-pairs,
/// quantizing each row against its own dynamic scale (`max|row| / 127`) during the
/// pack: `apack[panel·MR·kk + p2·2·MR + 2·i + t]` holds the int8 code of
/// `A[panel·MR + i, 2·p2 + t]`, widened to `i16` so a `(2·i)`-offset pair is exactly
/// the 32-bit lane `vpmaddwd` broadcasts. `ascales[i]` receives row `i`'s
/// dequantization scale; zero rows get scale 1 and all-zero codes. The caller
/// provides `apack` zeroed (padding rows/steps stay zero).
#[allow(clippy::too_many_arguments)]
fn pack_lhs_q(
    a: &[f32],
    rs: usize,
    cs: usize,
    m: usize,
    k: usize,
    kk: usize,
    apack: &mut [i16],
    ascales: &mut [f32],
) {
    for panel in 0..m.div_ceil(MR) {
        let out = &mut apack[panel * MR * kk..(panel + 1) * MR * kk];
        let rows = MR.min(m - panel * MR);
        for i in 0..rows {
            let row = panel * MR + i;
            let mut mx = 0.0f32;
            for p in 0..k {
                mx = mx.max(a[row * rs + p * cs].abs());
            }
            let (scale, inv) = if mx > 0.0 { (mx / 127.0, 127.0 / mx) } else { (1.0, 0.0) };
            ascales[row] = scale;
            for p in 0..k {
                let q = (a[row * rs + p * cs] * inv).round() as i8;
                out[(p / 2) * 2 * MR + 2 * i + (p % 2)] = q as i16;
            }
        }
    }
}

/// Shared dequantizing writeback: `out[i,j] += alpha · ascale[i] · wscale[j] ·
/// acc[i,j]`, identical between the scalar and AVX2 builds so their results match
/// bit-for-bit (the integer tiles they spill are exact).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dequant_writeback(
    acc: &[[i32; NR]; MR],
    ascales: &[f32],
    wscales: &[f32],
    out: &mut [f32],
    pitch: usize,
    mr: usize,
    nr: usize,
    alpha: f32,
) {
    for i in 0..mr {
        let f = alpha * ascales[i];
        let row = &mut out[i * pitch..i * pitch + nr];
        for j in 0..nr {
            row[j] += f * wscales[j] * acc[i][j] as f32;
        }
    }
}

/// The portable int8 macro-kernel: whole-`kk` reduction per `MR × NR` tile (with
/// 1-to-2-byte panels even a deep reduction block stays cache-resident, so unlike the
/// f32 engine there is no `KC` loop), walking the interleaved k-pair layout exactly as
/// `vpmaddwd` would. Doubles as the exactness oracle for the AVX2 build: i32
/// accumulation is exact in both, and the writeback is shared.
#[allow(clippy::too_many_arguments)]
fn qmacro_scalar(
    apack: &[i16],
    ascales: &[f32],
    bpanels: &[i16],
    wscales: &[f32],
    out: &mut [f32],
    pitch: usize,
    kk: usize,
    m: usize,
    n: usize,
    alpha: f32,
) {
    // Row blocking (`MC`) keeps the packed lhs block L2-resident while every column
    // panel streams over it — same role as the f32 engine's `ic` loop.
    let row_panels = m.div_ceil(MR);
    for ib in 0..row_panels.div_ceil(MC / MR) {
        let pi_end = row_panels.min((ib + 1) * (MC / MR));
        for pj in 0..n.div_ceil(NR) {
            let nr = NR.min(n - pj * NR);
            let bpanel = &bpanels[pj * NR * kk..(pj + 1) * NR * kk];
            for pi in ib * (MC / MR)..pi_end {
                let mr = MR.min(m - pi * MR);
                let apanel = &apack[pi * MR * kk..(pi + 1) * MR * kk];
                let mut acc = [[0i32; NR]; MR];
                for p2 in 0..kk / 2 {
                    let av = &apanel[p2 * 2 * MR..(p2 + 1) * 2 * MR];
                    let bv = &bpanel[p2 * 2 * NR..(p2 + 1) * 2 * NR];
                    for i in 0..MR {
                        let a0 = av[2 * i] as i32;
                        let a1 = av[2 * i + 1] as i32;
                        for j in 0..NR {
                            acc[i][j] += a0 * bv[2 * j] as i32 + a1 * bv[2 * j + 1] as i32;
                        }
                    }
                }
                dequant_writeback(
                    &acc,
                    &ascales[pi * MR..],
                    &wscales[pj * NR..],
                    &mut out[pi * MR * pitch + pj * NR..],
                    pitch,
                    mr,
                    nr,
                    alpha,
                );
            }
        }
    }
}

/// The AVX2 int8 macro-kernel: one 32-byte panel load per 2 reduction steps across
/// all 16 columns, `vpmaddwd` (16 i16 products pairwise-added into 8 i32 lanes) as
/// the multiply-accumulate, 8 YMM accumulator registers for the `MR × NR` tile. The
/// integer tile is exact, then spilled and dequantized by the same writeback as the
/// scalar build — so the two builds agree bit-for-bit.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the CPU supports AVX2 (checked via
    /// [`crate::gemm::simd_accelerated`]). Slice layout preconditions are the same as
    /// the scalar kernel's and are asserted.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn qmacro(
        apack: &[i16],
        ascales: &[f32],
        bpanels: &[i16],
        wscales: &[f32],
        out: &mut [f32],
        pitch: usize,
        kk: usize,
        m: usize,
        n: usize,
        alpha: f32,
    ) {
        assert_eq!(kk % 2, 0);
        assert!(bpanels.len() >= n.div_ceil(NR) * NR * kk);
        assert!(apack.len() >= m.div_ceil(MR) * MR * kk);
        // Same `MC` row blocking as the scalar twin.
        let row_panels = m.div_ceil(MR);
        for ib in 0..row_panels.div_ceil(MC / MR) {
            let pi_end = row_panels.min((ib + 1) * (MC / MR));
            for pj in 0..n.div_ceil(NR) {
                let nr = NR.min(n - pj * NR);
                let bpanel = &bpanels[pj * NR * kk..(pj + 1) * NR * kk];
                for pi in ib * (MC / MR)..pi_end {
                    let mr = MR.min(m - pi * MR);
                    let apanel = &apack[pi * MR * kk..(pi + 1) * MR * kk];
                    // SAFETY: all pointer reads below stay inside `apanel`/`bpanel`:
                    // per k-pair `p2 < kk/2`, the two b loads touch i16 elements
                    // `[p2·2·NR, p2·2·NR + 2·NR)` ⊆ `[0, kk·NR)` and each a read
                    // touches bytes `[p2·4·MR + 4·i, … + 4)` ⊆ `[0, 2·kk·MR)`.
                    unsafe {
                        let mut acc = [_mm256_setzero_si256(); 2 * MR];
                        let bptr = bpanel.as_ptr();
                        let aptr = apanel.as_ptr() as *const i32;
                        for p2 in 0..kk / 2 {
                            let b0 = _mm256_loadu_si256(bptr.add(p2 * 2 * NR) as *const __m256i);
                            let b1 =
                                _mm256_loadu_si256(bptr.add(p2 * 2 * NR + NR) as *const __m256i);
                            for i in 0..MR {
                                let va = _mm256_set1_epi32(aptr.add(p2 * MR + i).read_unaligned());
                                acc[2 * i] =
                                    _mm256_add_epi32(acc[2 * i], _mm256_madd_epi16(va, b0));
                                acc[2 * i + 1] =
                                    _mm256_add_epi32(acc[2 * i + 1], _mm256_madd_epi16(va, b1));
                            }
                        }
                        let mut tile = [[0i32; NR]; MR];
                        for i in 0..MR {
                            _mm256_storeu_si256(tile[i].as_mut_ptr() as *mut __m256i, acc[2 * i]);
                            _mm256_storeu_si256(
                                tile[i].as_mut_ptr().add(8) as *mut __m256i,
                                acc[2 * i + 1],
                            );
                        }
                        dequant_writeback(
                            &tile,
                            &ascales[pi * MR..],
                            &wscales[pj * NR..],
                            &mut out[pi * MR * pitch + pj * NR..],
                            pitch,
                            mr,
                            nr,
                            alpha,
                        );
                    }
                }
            }
        }
    }
}

/// One blocked int8 GEMM: `out[m × n] += alpha · quant(a) · wq`, where `a` is an f32
/// lhs read through `(ars, acs)` element strides (any layout, like the f32 engine) and
/// `wq` a pre-packed [`QuantMatrix`]. `out` is dense row-major with row pitch `n`.
///
/// The lhs is quantized per row against dynamic scales during packing; accumulation is
/// exact in i32; the only rounding beyond the two quantizations is the final f32
/// dequant multiply. Inputs are assumed finite (the serving tier rejects NaN at
/// admission) — a non-finite row would poison its own row scale.
pub fn qgemm(
    a: &[f32],
    ars: usize,
    acs: usize,
    m: usize,
    wq: &QuantMatrix,
    out: &mut [f32],
    alpha: f32,
) {
    let (k, n, kk) = (wq.k, wq.n, wq.kk);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    debug_assert!(out.len() >= m * n);
    let mut apack = pool_i16::alloc_zeroed(m.div_ceil(MR) * MR * kk);
    let mut ascales = vec![0.0f32; m.next_multiple_of(MR)];
    pack_lhs_q(a, ars, acs, m, k, kk, &mut apack, &mut ascales);
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::simd_accelerated() {
        // SAFETY: `simd_accelerated` verified AVX2 support at run time.
        unsafe {
            avx2::qmacro(&apack, &ascales, &wq.panels, &wq.scales, out, n, kk, m, n, alpha);
        }
        pool_i16::give_back(apack);
        return;
    }
    qmacro_scalar(&apack, &ascales, &wq.panels, &wq.scales, out, n, kk, m, n, alpha);
    pool_i16::give_back(apack);
}

#[cfg(test)]
mod tests {
    use super::*;

    impl QuantMatrix {
        /// The dense row-major f32 matrix the packed panels represent (`q · scale`): the
        /// oracle the packing tests compare against.
        pub(crate) fn dequantize(&self) -> Vec<f32> {
            let mut w = vec![0.0f32; self.k * self.n];
            for panel in 0..self.n.div_ceil(NR) {
                let cols = NR.min(self.n - panel * NR);
                let src = &self.panels[panel * NR * self.kk..];
                for p in 0..self.k {
                    for j in 0..cols {
                        let col = panel * NR + j;
                        let q = src[(p / 2) * 2 * NR + 2 * j + (p % 2)];
                        w[p * self.n + col] = q as f32 * self.scales[col];
                    }
                }
            }
            w
        }
    }

    fn gemm_f64(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, alpha: f32) -> Vec<f64> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for p in 0..k {
                    s += a[i * k + p] as f64 * b[p * n + j] as f64;
                }
                out[i * n + j] = alpha as f64 * s;
            }
        }
        out
    }

    fn test_matrices(m: usize, k: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        // Deterministic, scale-diverse data: columns of b span ~3 orders of magnitude
        // so per-channel scales genuinely differ.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let a: Vec<f32> = (0..m * k).map(|_| next() * 4.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| next() * 10f32.powi((i % n % 4) as i32 - 2)).collect();
        (a, b)
    }

    #[test]
    fn quantize_dequantize_round_trip_is_within_half_scale() {
        // Property sweep: |w - deq(quant(w))| ≤ scale_j / 2 elementwise, every shape.
        for &(k, n) in &[(1usize, 1usize), (5, 3), (16, 16), (33, 47), (257, 19)] {
            let (_, w) = test_matrices(1, k, n, 7 + (k * n) as u64);
            let (q, scales) = quantize_columns(&w, k, n);
            let back = dequantize_columns(&q, &scales, k, n);
            for p in 0..k {
                for j in 0..n {
                    let err = (w[p * n + j] - back[p * n + j]).abs();
                    assert!(
                        err <= scales[j] * 0.5 + 1e-12,
                        "({k},{n}) at ({p},{j}): err {err} vs scale {}",
                        scales[j]
                    );
                }
            }
            // The packed form dequantizes to the same values.
            let wq = QuantMatrix::from_quantized(&q, scales, k, n);
            assert_eq!(wq.dequantize(), back);
        }
    }

    #[test]
    fn zero_column_gets_unit_scale_and_zero_codes() {
        let w = vec![0.0f32; 6]; // (3, 2), both columns zero
        let (q, scales) = quantize_columns(&w, 3, 2);
        assert_eq!(scales, vec![1.0, 1.0]);
        assert!(q.iter().all(|&v| v == 0));
    }

    /// The int8 product against an exact f64 reference of the *original* f32
    /// matrices, with the analytic error bound as a function of the per-channel
    /// scales: with â = sa·qa (|a−â| ≤ sa/2) and ŵ = sw·qw (|w−ŵ| ≤ sw/2),
    ///
    ///   |Σₚ aw − Σₚ âŵ| ≤ Σₚ (|a−â|·|w| + |â|·|w−ŵ|)
    ///                   ≤ k · (sa_i/2 · max|W[·,j]| + (max|A[i,·]| + sa_i/2) · sw_j/2).
    #[test]
    fn int8_gemm_matches_f64_reference_within_scale_bound() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 7, 5),
            (4, 16, 16),
            (5, 33, 19),
            (MR + 1, 64, NR + 1),
            (17, 300, 37),
        ] {
            let (a, w) = test_matrices(m, k, n, 1 + (m * k * n) as u64);
            for &alpha in &[1.0f32, -0.5] {
                let wq = QuantMatrix::quantize(&w, k, n);
                let mut out = vec![0.0f32; m * n];
                qgemm(&a, k, 1, m, &wq, &mut out, alpha);
                let expect = gemm_f64(&a, &w, m, k, n, alpha);
                for i in 0..m {
                    let row_max = (0..k).map(|p| a[i * k + p].abs()).fold(0.0f32, f32::max);
                    let sa = if row_max > 0.0 { row_max / 127.0 } else { 1.0 };
                    for j in 0..n {
                        let col_max = (0..k).map(|p| w[p * n + j].abs()).fold(0.0f32, f32::max);
                        let sw = wq.scales()[j];
                        let bound = alpha.abs() as f64
                            * k as f64
                            * (0.5 * sa as f64 * col_max as f64
                                + (row_max as f64 + 0.5 * sa as f64) * 0.5 * sw as f64)
                            + 1e-5;
                        let err = (out[i * n + j] as f64 - expect[i * n + j]).abs();
                        assert!(
                            err <= bound,
                            "({m},{k},{n}) α={alpha} at ({i},{j}): err {err} > bound {bound}"
                        );
                    }
                }
            }
        }
    }

    /// Against an f64 oracle over the *quantized* integers the kernel is near-exact:
    /// the i32 accumulation is exact, so only the final f32 dequant multiply rounds.
    #[test]
    fn int8_gemm_is_exact_over_the_quantized_operands() {
        let (m, k, n) = (9usize, 70usize, 21usize);
        let (a, w) = test_matrices(m, k, n, 42);
        let wq = QuantMatrix::quantize(&w, k, n);
        let mut out = vec![0.0f32; m * n];
        qgemm(&a, k, 1, m, &wq, &mut out, 1.0);

        // Re-derive the quantized operands exactly as the kernel does.
        let (qw, sw) = quantize_columns(&w, k, n);
        for i in 0..m {
            let mx = (0..k).map(|p| a[i * k + p].abs()).fold(0.0f32, f32::max);
            let (sa, inv) = if mx > 0.0 { (mx / 127.0, 127.0 / mx) } else { (1.0, 0.0) };
            for j in 0..n {
                let mut acc = 0i64;
                for p in 0..k {
                    let qa = (a[i * k + p] * inv).round() as i8;
                    acc += qa as i64 * qw[p * n + j] as i64;
                }
                let expect = sa as f64 * sw[j] as f64 * acc as f64;
                let err = (out[i * n + j] as f64 - expect).abs();
                assert!(err <= expect.abs() * 1e-5 + 1e-6, "({i},{j}): {err}");
            }
        }
    }

    #[test]
    fn strided_lhs_matches_contiguous() {
        let (m, k, n) = (6usize, 11usize, 13usize);
        let (a, w) = test_matrices(m, k, n, 99);
        let wq = QuantMatrix::quantize(&w, k, n);
        let mut expect = vec![0.0f32; m * n];
        qgemm(&a, k, 1, m, &wq, &mut expect, 1.0);
        // Transposed storage of the same logical lhs: at[p * m + i] = a[i * k + p].
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut out = vec![0.0f32; m * n];
        qgemm(&at, 1, m, m, &wq, &mut out, 1.0);
        assert_eq!(out, expect, "quantization and product are layout-invariant");
    }

    #[test]
    fn qgemm_accumulates_into_output() {
        let (m, k, n) = (3usize, 4usize, 5usize);
        let a = vec![1.0f32; m * k];
        let w = vec![2.0f32; k * n];
        let wq = QuantMatrix::quantize(&w, k, n);
        let mut out = vec![10.0f32; m * n];
        qgemm(&a, k, 1, m, &wq, &mut out, 1.0);
        for &x in &out {
            assert!((x - 18.0).abs() < 1e-4, "{x}");
        }
    }
}
