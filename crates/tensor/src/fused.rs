//! Fused streaming attention: flash-attention-style tiled `softmax(α·Q·Kᵀ)·V` that never
//! materialises the score matrix.
//!
//! The unfused chain `Q·Kᵀ → softmax → ·V` builds an `(b, h, n, m)` score tensor (and a
//! second one for the probabilities) — 67 MB twice at `n = m = 4096` — and streams both
//! through memory. The fused kernel instead walks keys in [`K_BLOCK`]-sized tiles per
//! [`Q_BLOCK`] query rows, carrying the **online softmax** running maximum `mᵢ`, running
//! denominator `lᵢ`, and output accumulator per query row, so the working set is a few
//! KiB regardless of sequence length. Both tile products run on the packed
//! [`crate::gemm`] micro-kernel, and so do the backward's five.
//!
//! **Weighted (group) softmax.** Group attention (§4.2 of the RITA paper) normalises by
//! `Σⱼ countⱼ · exp(sᵢⱼ)` — each group's exponential weighted by its member count — while
//! the numerator keeps the unweighted exponential against the aggregated values. The
//! kernel folds an optional per-key weight vector into the running denominator only, so
//! the same code serves vanilla (`w ≡ 1`, `m = n`) and group (`w = count`, `m = N`)
//! attention.
//!
//! **Residuals and backward.** The forward returns the per-row log-sum-exp
//! `lseᵢ = mᵢ + ln lᵢ` alongside the output. The backward recomputes each score tile from
//! `Q`/`K` (probabilities are `exp(sᵢⱼ − lseᵢ)`) instead of storing the `n × m`
//! probability matrix, exactly like the forward never stored it; only the `O(n)`
//! residuals and the output survive between the passes. Per tile it forms
//! `S = (αQ)·Kᵀ`, `dV += Pᵀ·g`, `dP = g·Vᵀ`, `dQ += (α·ds)·K` and `dK += (α·dsᵀ)·Q`
//! from packed panels: `Kᵀ`, `K` and `Vᵀ` packed once per (batch, head) matrix straight
//! from the strided views, the query and gradient blocks once per query block, and
//! `Pᵀ`, `α·ds` and `α·dsᵀ` once per tile.
//!
//! **Masked rows.** A query row whose scores are all `−∞` has `lᵢ = 0`; the kernel emits
//! a zero output row and `lse = −∞` (the unfused softmax would produce NaN), and the
//! backward propagates zero gradient through such rows.
//!
//! **Underflow.** A key more than ≈ 87 below its row's `lse` (or masked to `−∞`) has
//! probability exactly `0.0` — not a subnormal, not a tiny floor — and contributes
//! nothing to the output or to any gradient; `fast_exp` says why that matters for speed.
//! The backward cuts higher: a probability it restores below `2⁻⁶⁴` (`P_CUTOFF`) is
//! exactly `0.0` too, so that its products with gradients are normal floats; a key below
//! it in every row gets `dK` and `dV` rows of exactly `0.0`. The forward keeps every
//! bit: its outputs and `lse` are what serving answers with.

use std::ops::Range;

use crate::gemm::{macro_kernel, micro_kernel, pack_lhs, pack_rhs, simd_dispatch, MR, NR};
use crate::parallel::{fan_out_threads, scoped_chunks_mut};
use crate::{NdArray, Result, TensorError};

/// Query rows processed per block (one accumulator/statistics set per row in the block).
const Q_BLOCK: usize = 32;
/// Keys streamed per tile; one `Q_BLOCK × K_BLOCK` score tile lives in L1 at a time.
const K_BLOCK: usize = 128;

const _: () = assert!(
    Q_BLOCK.is_multiple_of(MR) && K_BLOCK.is_multiple_of(NR),
    "tiles must cover whole panels"
);

/// Branch-free `exp` for the online-softmax inner loops.
///
/// Range-reduces to `2^k · e^f` with `f ∈ [−½ ln 2, ½ ln 2]` and a degree-6 Taylor
/// polynomial; max relative error ≈ 4e-6 over the attention domain (inputs ≤ 0 after the
/// running-max shift). Unlike libm's `expf` there are no branches or table loads, so the
/// tile loops auto-vectorise. Saturates at `2¹²⁶` instead of overflowing.
///
/// **Underflows exactly.** Below `x = −126·ln 2 ≈ −87.34` (where `eˣ < 2⁻¹²⁶`, the
/// smallest normal `f32`) the result is `0.0`, `−∞` included; every other result is a
/// normal float, never a subnormal. A floor at `2⁻¹²⁶` would be just as negligible in
/// a softmax sum, but the backward multiplies each probability by gradients below 1,
/// and every such product with a floored probability is a subnormal that costs a CPU
/// microcode assist — on peaked rows (most keys more than 87 below the row's `lse`)
/// that was a third of a long-series training step.
#[inline(always)]
fn fast_exp(x: f32) -> f32 {
    let t = x * std::f32::consts::LOG2_E;
    let z = t.clamp(-126.0, 126.0);
    let kf = z.round();
    let f = (z - kf) * std::f32::consts::LN_2;
    let p = 1.0
        + f * (1.0
            + f * (0.5
                + f * (1.0 / 6.0 + f * (1.0 / 24.0 + f * (1.0 / 120.0 + f * (1.0 / 720.0))))));
    // 2^kf: `kf + 127` sits in the low mantissa bits of a float in [2²³, 2²⁴); the shift
    // moves it into the exponent field and everything above it out.
    let scale = f32::from_bits((kf + (127.0 + 8_388_608.0)).to_bits() << 23);
    // Compiles to a select; NaN fails the comparison and comes out of `p * scale`.
    if t < -126.0 {
        0.0
    } else {
        p * scale
    }
}

/// Output of the fused forward pass.
#[derive(Debug, Clone)]
pub struct FusedAttention {
    /// Attention output, shape `(b, h, n, d_v)`.
    pub out: NdArray,
    /// Per-query-row log-sum-exp of the (weighted) scores, shape `(b, h, n)` — the
    /// residual the backward pass needs to recompute probabilities tile by tile.
    pub lse: NdArray,
}

/// Validated problem dimensions shared by forward and backward.
#[derive(Clone, Copy)]
struct Dims {
    b: usize,
    h: usize,
    n: usize,
    m: usize,
    d: usize,
    dv: usize,
}

fn check_shapes(q: &NdArray, k: &NdArray, v: &NdArray, weights: Option<&NdArray>) -> Result<Dims> {
    let mismatch = |lhs: &NdArray, rhs: &NdArray| TensorError::MatmulMismatch {
        lhs: lhs.shape().to_vec(),
        rhs: rhs.shape().to_vec(),
    };
    if q.ndim() != 4 || k.ndim() != 4 || v.ndim() != 4 {
        return Err(mismatch(q, k));
    }
    let (b, h, n, d) = (q.shape()[0], q.shape()[1], q.shape()[2], q.shape()[3]);
    let (m, dv) = (k.shape()[2], v.shape()[3]);
    if k.shape()[0] != b || k.shape()[1] != h || k.shape()[3] != d {
        return Err(mismatch(q, k));
    }
    if v.shape() != [b, h, m, dv] {
        return Err(mismatch(k, v));
    }
    if let Some(w) = weights {
        if w.shape() != [b, h, m] {
            return Err(mismatch(k, w));
        }
    }
    Ok(Dims { b, h, n, m, d, dv })
}

/// Read-only view context for one operand: storage slice plus the strides needed to
/// locate `(bh, row, col)` elements.
#[derive(Clone, Copy)]
struct Op<'a> {
    data: &'a [f32],
    off0: usize,
    sb: usize,
    sh: usize,
    sr: usize,
    sc: usize,
}

impl<'a> Op<'a> {
    fn new(a: &'a NdArray) -> Self {
        Op {
            data: &a.storage,
            off0: a.offset,
            sb: a.strides[0],
            sh: a.strides[1],
            sr: a.strides[2],
            sc: a.strides[3],
        }
    }

    /// Storage offset of the `(bh)`-th matrix (bh = batch * heads + head).
    fn offset(&self, bh: usize, heads: usize) -> usize {
        self.off0 + (bh / heads) * self.sb + (bh % heads) * self.sh
    }
}

/// Computes fused attention.
///
/// `q` is `(b, h, n, d)`, `k` is `(b, h, m, d)`, `v` is `(b, h, m, d_v)`; all three may
/// be arbitrary strided views (head splits, slices). `scale` multiplies the raw scores
/// (attention's `1/√d`). `weights`, when given, is the `(b, h, m)` per-key weight folded
/// into the softmax denominator (group attention's `count_k`).
pub fn fused_attention(
    q: &NdArray,
    k: &NdArray,
    v: &NdArray,
    scale: f32,
    weights: Option<&NdArray>,
) -> Result<FusedAttention> {
    let dims = check_shapes(q, k, v, weights)?;
    let work = dims.b * dims.h * dims.n * dims.m * (dims.d + dims.dv);
    fused_attention_threaded(q, k, v, scale, weights, fan_out_threads(work))
}

/// [`fused_attention`] with an explicit worker count (1 = serial). Exposed at crate
/// level so tests can force the fan-out paths on machines whose `worker_budget` is 1 —
/// the same escape hatch the grouping fan-out provides.
pub(crate) fn fused_attention_threaded(
    q: &NdArray,
    k: &NdArray,
    v: &NdArray,
    scale: f32,
    weights: Option<&NdArray>,
    threads: usize,
) -> Result<FusedAttention> {
    let dims = check_shapes(q, k, v, weights)?;
    let Dims { b, h, n, m: _, d: _, dv } = dims;
    let bh = b * h;
    let wmat = weights.map(|w| w.materialize());
    let wdata: Option<&[f32]> = wmat.as_ref().map(|w| w.as_slice());

    let mut out = crate::pool::alloc_zeroed(bh * n * dv);
    let mut lse = crate::pool::alloc_zeroed(bh * n);
    let (qop, kop, vop) = (Op::new(q), Op::new(k), Op::new(v));
    let threads = threads.max(1);

    if bh < threads && n > Q_BLOCK {
        // Fewer matrices than workers (including the single-matrix b1 h1 case) with
        // long sequences: pack K/V once per matrix, then split its query blocks across
        // the workers (the packs are shared read-only), so every core still serves the
        // product — the same fallback the batched matmul driver uses.
        let rows_per = n.div_ceil(Q_BLOCK).div_ceil(threads) * Q_BLOCK;
        let mut packs = BhPacks::new(&dims);
        for bhi in 0..bh {
            packs.fill(&dims, h, bhi, kop, vop);
            let packs = &packs;
            let out_b = &mut out[bhi * n * dv..(bhi + 1) * n * dv];
            let lse_b = &mut lse[bhi * n..(bhi + 1) * n];
            scoped_chunks_mut(n, rows_per, [(out_b, dv), (lse_b, 1)], |rows, [o, l]| {
                let mut scratch = FwdScratch::new(&dims);
                forward_rows(&dims, h, bhi, rows, qop, scale, packs, wdata, o, l, &mut scratch);
            });
        }
    } else {
        // Whole (batch, head) matrices per chunk: enough matrices to saturate the
        // workers, sequences too short to split, or one chunk when serial. Each chunk
        // packs its own K/V panels.
        let split = [(&mut out[..], n * dv), (&mut lse[..], n)];
        scoped_chunks_mut(bh, bh.div_ceil(threads), split, |mats, [oc, lc]| {
            let mut packs = BhPacks::new(&dims);
            let mut scratch = FwdScratch::new(&dims);
            for (i, bhi) in mats.enumerate() {
                packs.fill(&dims, h, bhi, kop, vop);
                let ob = &mut oc[i * n * dv..(i + 1) * n * dv];
                let lb = &mut lc[i * n..(i + 1) * n];
                forward_rows(&dims, h, bhi, 0..n, qop, scale, &packs, wdata, ob, lb, &mut scratch);
            }
        });
    }

    Ok(FusedAttention {
        out: NdArray::try_from_buffer(out, &[b, h, n, dv])?,
        lse: NdArray::try_from_buffer(lse, &[b, h, n])?,
    })
}

/// Per-(batch, head) packed operands for the forward pass: `Kᵀ` in `NR`-column panels
/// (score product) and `V` in `NR`-column panels (output product).
struct BhPacks {
    kt: Vec<f32>,
    v: Vec<f32>,
}

impl BhPacks {
    fn new(dims: &Dims) -> Self {
        BhPacks {
            kt: vec![0.0; dims.m.div_ceil(NR) * NR * dims.d],
            v: vec![0.0; dims.dv.div_ceil(NR) * NR * dims.m],
        }
    }

    fn fill(&mut self, dims: &Dims, heads: usize, bhi: usize, kop: Op<'_>, vop: Op<'_>) {
        // Kᵀ is (d × m): element (p, j) = K[j, p] → row stride = K's column stride.
        let koff = kop.offset(bhi, heads);
        pack_rhs(&kop.data[koff..], kop.sc, kop.sr, dims.d, dims.m, &mut self.kt);
        let voff = vop.offset(bhi, heads);
        pack_rhs(&vop.data[voff..], vop.sr, vop.sc, dims.m, dims.dv, &mut self.v);
    }
}

/// Reusable per-worker scratch for the forward pass (all bounded by the tile sizes).
struct FwdScratch {
    /// Packed, pre-scaled query block (`Q_BLOCK × d` in `MR`-row panels).
    qp: Vec<f32>,
    /// Score tile, `Q_BLOCK × K_BLOCK` row-major.
    s: Vec<f32>,
    /// Probability tile repacked for the `P·V` product (`MR`-row panels).
    pp: Vec<f32>,
    /// Output accumulator, `Q_BLOCK × d_v` row-major.
    acc: Vec<f32>,
    /// Running maxima / denominators, one per query row in the block.
    mrow: Vec<f32>,
    lrow: Vec<f32>,
}

impl FwdScratch {
    fn new(dims: &Dims) -> Self {
        FwdScratch {
            qp: vec![0.0; Q_BLOCK.div_ceil(MR) * MR * dims.d],
            s: vec![0.0; Q_BLOCK * K_BLOCK],
            pp: vec![0.0; Q_BLOCK.div_ceil(MR) * MR * K_BLOCK],
            acc: vec![0.0; Q_BLOCK * dims.dv],
            mrow: vec![0.0; Q_BLOCK],
            lrow: vec![0.0; Q_BLOCK],
        }
    }
}

/// Runs the fused forward for query rows `rows` of one (batch, head) matrix, writing
/// dense `rows.len() × d_v` outputs and `rows.len()` log-sum-exps.
#[allow(clippy::too_many_arguments)]
fn forward_rows(
    dims: &Dims,
    heads: usize,
    bhi: usize,
    rows: Range<usize>,
    qop: Op<'_>,
    scale: f32,
    packs: &BhPacks,
    wdata: Option<&[f32]>,
    out_rows: &mut [f32],
    lse_rows: &mut [f32],
    scratch: &mut FwdScratch,
) {
    let qoff = qop.offset(bhi, heads);
    let w_bh = wdata.map(|w| &w[bhi * dims.m..(bhi + 1) * dims.m]);
    let mut i0 = 0;
    while i0 < rows.len() {
        let bq = Q_BLOCK.min(rows.len() - i0);
        let qblock = &qop.data[qoff + (rows.start + i0) * qop.sr..];
        forward_q_block::run(
            dims.m,
            dims.d,
            dims.dv,
            qblock,
            qop.sr,
            qop.sc,
            bq,
            scale,
            packs,
            w_bh,
            &mut out_rows[i0 * dims.dv..(i0 + bq) * dims.dv],
            &mut lse_rows[i0..i0 + bq],
            scratch,
        );
        i0 += bq;
    }
}

simd_dispatch! {
    fn forward_q_block(
        m: usize,
        d: usize,
        dv: usize,
        qblock: &[f32],
        qrs: usize,
        qcs: usize,
        bq: usize,
        scale: f32,
        packs: &BhPacks,
        w: Option<&[f32]>,
        out_rows: &mut [f32],
        lse_rows: &mut [f32],
        scratch: &mut FwdScratch
    ) {
        let FwdScratch { qp, s, pp, acc, mrow, lrow } = scratch;
        // Fold the 1/√d scale into the query packing: one multiply per q element
        // instead of one per score.
        pack_lhs(qblock, qrs, qcs, bq, d, scale, qp);
        acc[..bq * dv].fill(0.0);
        mrow[..bq].fill(f32::NEG_INFINITY);
        lrow[..bq].fill(0.0);

        let mut p0 = 0;
        while p0 < m {
            let bk = K_BLOCK.min(m - p0);

            // --- score tile: s[i][j] = scaled q_i · k_{p0+j} ---
            s[..bq * K_BLOCK].fill(0.0);
            let mut pj = p0 / NR;
            while pj * NR < p0 + bk {
                let nr = NR.min(m - pj * NR);
                let jl = pj * NR - p0;
                let mut pi = 0;
                while pi * MR < bq {
                    let mr = MR.min(bq - pi * MR);
                    let st = &mut s[pi * MR * K_BLOCK + jl..];
                    micro_kernel(
                        &qp[pi * MR * d..],
                        &packs.kt[pj * NR * d..],
                        st,
                        K_BLOCK,
                        d,
                        mr,
                        nr,
                    );
                    pi += 1;
                }
                pj += 1;
            }

            // --- online softmax update per query row ---
            for i in 0..bq {
                let srow = &mut s[i * K_BLOCK..i * K_BLOCK + bk];
                let tile_max = srow.iter().fold(f32::NEG_INFINITY, |a, &x| a.max(x));
                let new_m = mrow[i].max(tile_max);
                if new_m == f32::NEG_INFINITY {
                    // Every score so far is -inf (fully masked): leave l = 0, acc = 0,
                    // and keep srow as written — it is all -inf, and exponentiating it
                    // through the subtraction below would produce NaN. Zero it so the
                    // P·V product adds nothing.
                    srow.fill(0.0);
                    continue;
                }
                let corr = fast_exp(mrow[i] - new_m);
                lrow[i] *= corr;
                for a in &mut acc[i * dv..(i + 1) * dv] {
                    *a *= corr;
                }
                let mut sum = 0.0f32;
                if let Some(w) = w {
                    let wtile = &w[p0..p0 + bk];
                    for (x, &wj) in srow.iter_mut().zip(wtile) {
                        let e = fast_exp(*x - new_m);
                        *x = e;
                        sum += wj * e;
                    }
                } else {
                    for x in srow.iter_mut() {
                        let e = fast_exp(*x - new_m);
                        *x = e;
                        sum += e;
                    }
                }
                lrow[i] += sum;
                mrow[i] = new_m;
            }

            // --- accumulate acc += P_tile · V_tile ---
            pack_lhs(s, K_BLOCK, 1, bq, bk, 1.0, pp);
            let mut pjv = 0;
            while pjv * NR < dv {
                let nr = NR.min(dv - pjv * NR);
                let mut pi = 0;
                while pi * MR < bq {
                    let mr = MR.min(bq - pi * MR);
                    let at = &mut acc[pi * MR * dv + pjv * NR..];
                    micro_kernel(
                        &pp[pi * MR * bk..],
                        &packs.v[pjv * NR * m + p0 * NR..],
                        at,
                        dv,
                        bk,
                        mr,
                        nr,
                    );
                    pi += 1;
                }
                pjv += 1;
            }

            p0 += bk;
        }

        // --- finalise: out = acc / l, lse = m + ln l ---
        for i in 0..bq {
            let l = lrow[i];
            let orow = &mut out_rows[i * dv..(i + 1) * dv];
            if l > 0.0 {
                let inv = 1.0 / l;
                for (o, &a) in orow.iter_mut().zip(&acc[i * dv..(i + 1) * dv]) {
                    *o = a * inv;
                }
            } else {
                orow.fill(0.0);
            }
            lse_rows[i] = mrow[i] + l.ln();
        }
    }
}

/// Gradients of [`fused_attention`] with respect to `q`, `k` and `v`.
///
/// Recomputes each `Q_BLOCK × K_BLOCK` score tile from `q`/`k` and restores the
/// probabilities as `exp(s − lse)` — the `n × m` probability matrix is never stored,
/// mirroring the forward. A restored probability below `2⁻⁶⁴` counts as exactly `0.0`,
/// so no product of a kept one is subnormal; the gradients move by the absolute bounds
/// `P_CUTOFF` gives, and a key below it in every row gets zero `dK`/`dV` rows.
/// `out`/`lse` are the forward's results; `gout` is the gradient flowing into the
/// output. Returns dense `(dq, dk, dv)` with the operands' logical shapes. Each
/// gradient is a function of its own (batch, head) matrix alone, whatever the thread
/// count.
#[allow(clippy::too_many_arguments)]
pub fn fused_attention_backward(
    q: &NdArray,
    k: &NdArray,
    v: &NdArray,
    weights: Option<&NdArray>,
    scale: f32,
    out: &NdArray,
    lse: &NdArray,
    gout: &NdArray,
) -> Result<(NdArray, NdArray, NdArray)> {
    let dims = check_shapes(q, k, v, weights)?;
    let work = dims.b * dims.h * dims.n * dims.m * (dims.d + dims.dv);
    let threads = fan_out_threads(work);
    fused_attention_backward_threaded(q, k, v, weights, scale, out, lse, gout, threads)
}

/// [`fused_attention_backward`] with an explicit worker count (1 = serial); see
/// [`fused_attention_threaded`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn fused_attention_backward_threaded(
    q: &NdArray,
    k: &NdArray,
    v: &NdArray,
    weights: Option<&NdArray>,
    scale: f32,
    out: &NdArray,
    lse: &NdArray,
    gout: &NdArray,
    threads: usize,
) -> Result<(NdArray, NdArray, NdArray)> {
    let dims = check_shapes(q, k, v, weights)?;
    let Dims { b, h, n, m, d, dv } = dims;
    let bh = b * h;
    if out.shape() != [b, h, n, dv] || gout.shape() != [b, h, n, dv] || lse.shape() != [b, h, n] {
        return Err(TensorError::MatmulMismatch {
            lhs: out.shape().to_vec(),
            rhs: gout.shape().to_vec(),
        });
    }
    let wmat = weights.map(|w| w.materialize());
    let wdata: Option<&[f32]> = wmat.as_ref().map(|w| w.as_slice());
    let out_c = out.materialize();
    let gout_c = gout.materialize();
    let lse_c = lse.materialize();
    let (odata, gdata, ldata) = (out_c.as_slice(), gout_c.as_slice(), lse_c.as_slice());
    let (qop, kop, vop) = (Op::new(q), Op::new(k), Op::new(v));

    let mut dq = crate::pool::alloc_zeroed(bh * n * d);
    let mut dk = crate::pool::alloc_zeroed(bh * m * d);
    let mut dval = crate::pool::alloc_zeroed(bh * m * dv);

    // The split is over (batch, head) matrices only: dK/dV tiles accumulate across
    // query blocks, so splitting a single matrix's query blocks would race (it would
    // need per-worker dK/dV accumulators reduced at the end — a future refinement for
    // the b·h = 1 training case; real training shapes run batch×heads ≥ the budget).
    let split = [(&mut dq[..], n * d), (&mut dk[..], m * d), (&mut dval[..], m * dv)];
    scoped_chunks_mut(bh, bh.div_ceil(threads.max(1)), split, |mats, [dqc, dkc, dvc]| {
        let mut packs = BwdPacks::new(&dims);
        for (i, bhi) in mats.enumerate() {
            backward_matrix::run(
                &dims,
                h,
                bhi,
                qop,
                kop,
                vop,
                wdata,
                scale,
                odata,
                gdata,
                ldata,
                &mut dqc[i * n * d..(i + 1) * n * d],
                &mut dkc[i * m * d..(i + 1) * m * d],
                &mut dvc[i * m * dv..(i + 1) * m * dv],
                &mut packs,
            );
        }
    });

    Ok((
        NdArray::try_from_buffer(dq, &[b, h, n, d])?,
        NdArray::try_from_buffer(dk, &[b, h, m, d])?,
        NdArray::try_from_buffer(dval, &[b, h, m, dv])?,
    ))
}

/// A probability the backward restores below this (`2⁻⁶⁴`) counts as exact `0.0`: every
/// product of a kept probability with a factor ≥ `2⁻⁶²` is then a normal float. Each
/// dropped term is below `2⁻⁶⁴` times its other factors, so a `dV` entry moves by less
/// than `n·2⁻⁶⁴·max|g|`, a `dK` entry by less than `n·2⁻⁶⁴·α·max|dP − w·D|·max|q|` and a
/// `dQ` entry by less than `m·2⁻⁶⁴·α·max|dP − w·D|·max|k|`. A key whose every probability
/// lies below the cutoff gets `dK` and `dV` rows of exactly `0.0`, however small they
/// should have been.
const P_CUTOFF: f32 = f32::from_bits((127 - 64) << 23);

/// Per-worker packed operands and tiles for the backward pass. `kt`, `k` and `vt` are
/// packed once per (batch, head) matrix straight from the strided views, the query and
/// gradient blocks once per `Q_BLOCK` query rows, and `lhs` once per tile product. `k`
/// is packed one `K_BLOCK` key block after another, so each block's panels lie
/// `NR · bk` floats apart, as [`macro_kernel`] reads them.
struct BwdPacks {
    /// `Kᵀ`, `K` and `Vᵀ` in `NR`-column panels: the rhs of `S = (αQ)·Kᵀ`,
    /// `dQ += (α·ds)·K` and `dP = g·Vᵀ`.
    kt: Vec<f32>,
    k: Vec<f32>,
    vt: Vec<f32>,
    /// `Dᵢ = gᵢ · outᵢ`, one per query row of the matrix.
    dvec: Vec<f32>,
    /// The query block as lhs (`αQ`, `MR`-row panels) and as rhs (`Q`, `NR`-column
    /// panels, for `dK += (α·dsᵀ)·Q`).
    ql: Vec<f32>,
    qr: Vec<f32>,
    /// The gradient block as lhs (`dP = g·Vᵀ`) and as rhs (`dV += Pᵀ·g`).
    gl: Vec<f32>,
    gr: Vec<f32>,
    /// Probability (then `ds`) tile and `dP` tile, `Q_BLOCK × K_BLOCK` row-major.
    s: Vec<f32>,
    dp: Vec<f32>,
    /// `Pᵀ`, `α·ds` or `α·dsᵀ` of the current tile, packed as lhs.
    lhs: Vec<f32>,
}

impl BwdPacks {
    fn new(dims: &Dims) -> Self {
        let Dims { n, m, d, dv, .. } = *dims;
        let cols = |c: usize| c.div_ceil(NR) * NR;
        BwdPacks {
            kt: vec![0.0; cols(m) * d],
            k: vec![0.0; cols(d) * m],
            vt: vec![0.0; cols(m) * dv],
            dvec: vec![0.0; n],
            ql: vec![0.0; Q_BLOCK * d],
            qr: vec![0.0; cols(d) * Q_BLOCK],
            gl: vec![0.0; Q_BLOCK * dv],
            gr: vec![0.0; cols(dv) * Q_BLOCK],
            s: vec![0.0; Q_BLOCK * K_BLOCK],
            dp: vec![0.0; Q_BLOCK * K_BLOCK],
            lhs: vec![0.0; Q_BLOCK * K_BLOCK],
        }
    }
}

simd_dispatch! {
    fn backward_matrix(
        dims: &Dims,
        heads: usize,
        bhi: usize,
        qop: Op<'_>,
        kop: Op<'_>,
        vop: Op<'_>,
        wdata: Option<&[f32]>,
        scale: f32,
        odata: &[f32],
        gdata: &[f32],
        ldata: &[f32],
        dq: &mut [f32],
        dk: &mut [f32],
        dval: &mut [f32],
        packs: &mut BwdPacks
    ) {
        let Dims { n, m, d, dv, .. } = *dims;
        let BwdPacks { kt, k, vt, dvec, ql, qr, gl, gr, s, dp, lhs } = packs;
        let qoff = qop.offset(bhi, heads);
        let kmat = &kop.data[kop.offset(bhi, heads)..];
        pack_rhs(kmat, kop.sc, kop.sr, d, m, kt);
        for p0 in (0..m).step_by(K_BLOCK) {
            let kblock = &mut k[p0 * d.next_multiple_of(NR)..];
            pack_rhs(&kmat[p0 * kop.sr..], kop.sr, kop.sc, K_BLOCK.min(m - p0), d, kblock);
        }
        pack_rhs(&vop.data[vop.offset(bhi, heads)..], vop.sc, vop.sr, dv, m, vt);
        let o_bh = &odata[bhi * n * dv..(bhi + 1) * n * dv];
        let g_bh = &gdata[bhi * n * dv..(bhi + 1) * n * dv];
        let lse_bh = &ldata[bhi * n..(bhi + 1) * n];
        let w_bh = wdata.map(|w| &w[bhi * m..(bhi + 1) * m]);
        for i in 0..n {
            let orow = &o_bh[i * dv..(i + 1) * dv];
            let grow = &g_bh[i * dv..(i + 1) * dv];
            dvec[i] = orow.iter().zip(grow).map(|(&a, &b)| a * b).sum();
        }

        let mut i0 = 0;
        while i0 < n {
            let bq = Q_BLOCK.min(n - i0);
            let qblock = &qop.data[qoff + i0 * qop.sr..];
            let gblock = &g_bh[i0 * dv..];
            pack_lhs(qblock, qop.sr, qop.sc, bq, d, scale, ql);
            pack_rhs(qblock, qop.sr, qop.sc, bq, d, qr);
            pack_lhs(gblock, dv, 1, bq, dv, 1.0, gl);
            pack_rhs(gblock, dv, 1, bq, dv, gr);
            let mut p0 = 0;
            while p0 < m {
                let bk = K_BLOCK.min(m - p0);

                // --- S = (αQ)·Kᵀ restored to p = exp(s − lse), below P_CUTOFF exactly 0 ---
                s[..bq * K_BLOCK].fill(0.0);
                macro_kernel::body(ql, &kt[p0 * d..], s, K_BLOCK, d, bq, bk);
                for i in 0..bq {
                    let lse_i = lse_bh[i0 + i];
                    let srow = &mut s[i * K_BLOCK..i * K_BLOCK + bk];
                    if lse_i.is_finite() {
                        for x in srow.iter_mut() {
                            let p = fast_exp(*x - lse_i);
                            *x = if p < P_CUTOFF { 0.0 } else { p };
                        }
                    } else {
                        // Fully masked row: zero probabilities, zero gradient.
                        srow.fill(0.0);
                    }
                }

                // --- dV += Pᵀ·g ---
                pack_lhs(s, 1, K_BLOCK, bk, bq, 1.0, lhs);
                macro_kernel::body(lhs, gr, &mut dval[p0 * dv..], dv, bq, bk, dv);

                // --- dP = g·Vᵀ, then ds = p ∘ (dP − w ⊗ D) in place, into s ---
                dp[..bq * K_BLOCK].fill(0.0);
                macro_kernel::body(gl, &vt[p0 * dv..], dp, K_BLOCK, dv, bq, bk);
                for i in 0..bq {
                    let di = dvec[i0 + i];
                    let srow = &mut s[i * K_BLOCK..i * K_BLOCK + bk];
                    let dprow = &dp[i * K_BLOCK..i * K_BLOCK + bk];
                    if let Some(w) = w_bh {
                        let wtile = &w[p0..p0 + bk];
                        for ((x, &dpij), &wj) in srow.iter_mut().zip(dprow).zip(wtile) {
                            *x *= dpij - wj * di;
                        }
                    } else {
                        for (x, &dpij) in srow.iter_mut().zip(dprow) {
                            *x *= dpij - di;
                        }
                    }
                }

                // --- dQ += (α·ds)·K, dK += (α·dsᵀ)·Q ---
                pack_lhs(s, K_BLOCK, 1, bq, bk, scale, lhs);
                let kblock = &k[p0 * d.next_multiple_of(NR)..];
                macro_kernel::body(lhs, kblock, &mut dq[i0 * d..], d, bk, bq, d);
                pack_lhs(s, 1, K_BLOCK, bk, bq, scale, lhs);
                macro_kernel::body(lhs, qr, &mut dk[p0 * d..], d, bq, bk, d);

                p0 += bk;
            }
            i0 += bq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allclose;
    use crate::SeedableRng64;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SeedableRng64 {
        SeedableRng64::seed_from_u64(seed)
    }

    /// Unfused reference for contiguous operands, accumulated in `f64` (scores rounded
    /// through `f32` only to decide overflow to `−∞`): `[out, lse, dq, dk, dv]` under
    /// the upstream gradient `g`, plus the number of live `(row, key)` pairs whose
    /// probability is below `2⁻¹²⁶` and the number whose probability is a normal float
    /// so small (`< e⁻⁶⁰`) that its product with a gradient could still be subnormal.
    fn reference(
        q: &NdArray,
        k: &NdArray,
        v: &NdArray,
        scale: f32,
        weights: Option<&NdArray>,
        g: &NdArray,
    ) -> ([Vec<f32>; 5], usize, usize) {
        let (bh, n, d) = (q.shape()[0] * q.shape()[1], q.shape()[2], q.shape()[3]);
        let (m, dv) = (k.shape()[2], v.shape()[3]);
        let (qa, ka, va, ga) = (q.as_slice(), k.as_slice(), v.as_slice(), g.as_slice());
        let mut out = vec![0.0f32; bh * n * dv];
        let mut lse = vec![f32::NEG_INFINITY; bh * n];
        let mut dq = vec![0.0f64; bh * n * d];
        let mut dk = vec![0.0f64; bh * m * d];
        let mut dval = vec![0.0f64; bh * m * dv];
        let (mut underflowed, mut tiny) = (0, 0);
        for b in 0..bh {
            for i in 0..n {
                let qrow = &qa[(b * n + i) * d..(b * n + i + 1) * d];
                let grow = &ga[(b * n + i) * dv..(b * n + i + 1) * dv];
                let scores: Vec<f64> = (0..m)
                    .map(|j| {
                        let krow = &ka[(b * m + j) * d..(b * m + j + 1) * d];
                        let s: f64 =
                            qrow.iter().zip(krow).map(|(&a, &b)| a as f64 * b as f64).sum();
                        let s = scale as f64 * s;
                        if (s as f32).is_finite() {
                            s
                        } else {
                            (s as f32) as f64
                        }
                    })
                    .collect();
                let mx = scores.iter().fold(f64::NEG_INFINITY, |a, &x| a.max(x));
                if mx == f64::NEG_INFINITY {
                    continue;
                }
                let w = |j: usize| weights.map_or(1.0, |w| w.as_slice()[b * m + j] as f64);
                let denom: f64 = (0..m).map(|j| w(j) * (scores[j] - mx).exp()).sum();
                let row_lse = mx + denom.ln();
                lse[b * n + i] = row_lse as f32;
                let probs: Vec<f64> = scores.iter().map(|&s| (s - row_lse).exp()).collect();
                for &s in scores.iter().filter(|s| s.is_finite()) {
                    underflowed += usize::from(s - row_lse < -87.4);
                    tiny += usize::from((-87.4..-60.0).contains(&(s - row_lse)));
                }
                let vrow = |j: usize| &va[(b * m + j) * dv..(b * m + j + 1) * dv];
                let mut o = vec![0.0f64; dv];
                for (j, &p) in probs.iter().enumerate() {
                    for (oc, &vc) in o.iter_mut().zip(vrow(j)) {
                        *oc += p * vc as f64;
                    }
                }
                let dsum: f64 = o.iter().zip(grow).map(|(&oc, &gc)| oc * gc as f64).sum();
                for (c, &oc) in o.iter().enumerate() {
                    out[(b * n + i) * dv + c] = oc as f32;
                }
                for (j, &p) in probs.iter().enumerate() {
                    let dp: f64 =
                        grow.iter().zip(vrow(j)).map(|(&gc, &vc)| gc as f64 * vc as f64).sum();
                    let ds = p * (dp - w(j) * dsum) * scale as f64;
                    for c in 0..dv {
                        dval[(b * m + j) * dv + c] += p * grow[c] as f64;
                    }
                    for c in 0..d {
                        dq[(b * n + i) * d + c] += ds * ka[(b * m + j) * d + c] as f64;
                        dk[(b * m + j) * d + c] += ds * qrow[c] as f64;
                    }
                }
            }
        }
        let narrow = |x: Vec<f64>| x.into_iter().map(|x| x as f32).collect();
        ([out, lse, narrow(dq), narrow(dk), narrow(dval)], underflowed, tiny)
    }

    /// Scratch of the packed backward's test twin [`backward_bh`]: contiguous (scaled)
    /// operand copies for one (batch, head) matrix plus the two recomputation tiles.
    struct BwdScratch {
        /// `scale · Q`, `n × d` row-major — provides the single score scale factor in the
        /// recomputation and the `scale` factor of `dK = Σ ds · (scale·q)`.
        qs: Vec<f32>,
        /// Raw `Kᵀ`, `d × m` row-major (score recomputation streams its rows).
        kt: Vec<f32>,
        /// `scale · K`, `m × d` row-major (`dQ = Σ ds · (scale·k)`).
        ks: Vec<f32>,
        /// Raw `Vᵀ`, `d_v × m` row-major (`dP = g · Vᵀ` streams its rows).
        vt: Vec<f32>,
        /// `Dᵢ = gᵢ · outᵢ`, one per query row.
        dvec: Vec<f32>,
        /// Score/probability tile and dP tile, `Q_BLOCK × K_BLOCK` row-major.
        s: Vec<f32>,
        dp: Vec<f32>,
    }

    impl BwdScratch {
        fn new(dims: &Dims) -> Self {
            BwdScratch {
                qs: vec![0.0; dims.n * dims.d],
                kt: vec![0.0; dims.d * dims.m],
                ks: vec![0.0; dims.m * dims.d],
                vt: vec![0.0; dims.dv * dims.m],
                dvec: vec![0.0; dims.n],
                s: vec![0.0; Q_BLOCK * K_BLOCK],
                dp: vec![0.0; Q_BLOCK * K_BLOCK],
            }
        }
    }

    /// Test twin of [`backward_matrix`]: the same per-matrix gradients from plain
    /// vectorised loops, with every restored probability kept.
    #[allow(clippy::too_many_arguments)]
    fn backward_bh(
        dims: &Dims,
        heads: usize,
        bhi: usize,
        qop: Op<'_>,
        kop: Op<'_>,
        vop: Op<'_>,
        wdata: Option<&[f32]>,
        scale: f32,
        odata: &[f32],
        gdata: &[f32],
        ldata: &[f32],
        dq: &mut [f32],
        dk: &mut [f32],
        dval: &mut [f32],
        scratch: &mut BwdScratch,
    ) {
        let Dims { n, m, d, dv, .. } = *dims;
        let BwdScratch { qs, kt, ks, vt, dvec, s, dp } = scratch;
        let qoff = qop.offset(bhi, heads);
        let koff = kop.offset(bhi, heads);
        let voff = vop.offset(bhi, heads);
        for i in 0..n {
            for p in 0..d {
                qs[i * d + p] = scale * qop.data[qoff + i * qop.sr + p * qop.sc];
            }
        }
        for j in 0..m {
            for p in 0..d {
                let x = kop.data[koff + j * kop.sr + p * kop.sc];
                kt[p * m + j] = x;
                ks[j * d + p] = scale * x;
            }
        }
        for j in 0..m {
            for c in 0..dv {
                vt[c * m + j] = vop.data[voff + j * vop.sr + c * vop.sc];
            }
        }
        let o_bh = &odata[bhi * n * dv..(bhi + 1) * n * dv];
        let g_bh = &gdata[bhi * n * dv..(bhi + 1) * n * dv];
        let lse_bh = &ldata[bhi * n..(bhi + 1) * n];
        let w_bh = wdata.map(|w| &w[bhi * m..(bhi + 1) * m]);
        for i in 0..n {
            let orow = &o_bh[i * dv..(i + 1) * dv];
            let grow = &g_bh[i * dv..(i + 1) * dv];
            dvec[i] = orow.iter().zip(grow).map(|(&a, &b)| a * b).sum();
        }

        let mut i0 = 0;
        while i0 < n {
            let bq = Q_BLOCK.min(n - i0);
            let mut p0 = 0;
            while p0 < m {
                let bk = K_BLOCK.min(m - p0);

                // --- recompute probability tile: p = exp(scale·q·kᵀ − lse) ---
                s[..bq * K_BLOCK].fill(0.0);
                for i in 0..bq {
                    let qrow = &qs[(i0 + i) * d..(i0 + i + 1) * d];
                    let srow = &mut s[i * K_BLOCK..i * K_BLOCK + bk];
                    for (p, &qv) in qrow.iter().enumerate() {
                        let ktrow = &kt[p * m + p0..p * m + p0 + bk];
                        for (x, &kv) in srow.iter_mut().zip(ktrow) {
                            *x += qv * kv;
                        }
                    }
                }
                for i in 0..bq {
                    let lse_i = lse_bh[i0 + i];
                    let srow = &mut s[i * K_BLOCK..i * K_BLOCK + bk];
                    if lse_i.is_finite() {
                        for x in srow.iter_mut() {
                            *x = fast_exp(*x - lse_i);
                        }
                    } else {
                        // Fully masked row: zero probabilities, zero gradient.
                        srow.fill(0.0);
                    }
                }

                // --- dV += Pᵀ · g ---
                for i in 0..bq {
                    let grow = &g_bh[(i0 + i) * dv..(i0 + i + 1) * dv];
                    let prow = &s[i * K_BLOCK..i * K_BLOCK + bk];
                    for (j, &pij) in prow.iter().enumerate() {
                        let drow = &mut dval[(p0 + j) * dv..(p0 + j + 1) * dv];
                        for (o, &g) in drow.iter_mut().zip(grow) {
                            *o += pij * g;
                        }
                    }
                }

                // --- dP = g · Vᵀ ---
                dp[..bq * K_BLOCK].fill(0.0);
                for i in 0..bq {
                    let grow = &g_bh[(i0 + i) * dv..(i0 + i + 1) * dv];
                    let dprow = &mut dp[i * K_BLOCK..i * K_BLOCK + bk];
                    for (c, &g) in grow.iter().enumerate() {
                        let vtrow = &vt[c * m + p0..c * m + p0 + bk];
                        for (x, &vv) in dprow.iter_mut().zip(vtrow) {
                            *x += g * vv;
                        }
                    }
                }

                // --- ds = p ∘ (dp − w ⊗ D) (in place, into s) ---
                for i in 0..bq {
                    let di = dvec[i0 + i];
                    let srow = &mut s[i * K_BLOCK..i * K_BLOCK + bk];
                    let dprow = &dp[i * K_BLOCK..i * K_BLOCK + bk];
                    if let Some(w) = w_bh {
                        let wtile = &w[p0..p0 + bk];
                        for ((x, &dpij), &wj) in srow.iter_mut().zip(dprow).zip(wtile) {
                            *x *= dpij - wj * di;
                        }
                    } else {
                        for (x, &dpij) in srow.iter_mut().zip(dprow) {
                            *x *= dpij - di;
                        }
                    }
                }

                // --- dQ += ds · (scale·K), dK += dsᵀ · (scale·Q) ---
                for i in 0..bq {
                    let srow = &s[i * K_BLOCK..i * K_BLOCK + bk];
                    let dqrow = &mut dq[(i0 + i) * d..(i0 + i + 1) * d];
                    for (j, &ds) in srow.iter().enumerate() {
                        let ksrow = &ks[(p0 + j) * d..(p0 + j + 1) * d];
                        for (o, &kv) in dqrow.iter_mut().zip(ksrow) {
                            *o += ds * kv;
                        }
                    }
                    let qsrow = &qs[(i0 + i) * d..(i0 + i + 1) * d];
                    for (j, &ds) in srow.iter().enumerate() {
                        let dkrow = &mut dk[(p0 + j) * d..(p0 + j + 1) * d];
                        for (o, &qv) in dkrow.iter_mut().zip(qsrow) {
                            *o += ds * qv;
                        }
                    }
                }

                p0 += bk;
            }
            i0 += bq;
        }
    }

    /// `fast_exp` as it was before it underflowed exactly: the same range reduction and
    /// polynomial, floored at `2⁻¹²⁶`. The bit-equality oracle for the live domain.
    fn fast_exp_floored(x: f32) -> f32 {
        let z = (x * std::f32::consts::LOG2_E).clamp(-126.0, 126.0);
        let kf = z.round();
        let f = (z - kf) * std::f32::consts::LN_2;
        let p = 1.0
            + f * (1.0
                + f * (0.5
                    + f * (1.0 / 6.0 + f * (1.0 / 24.0 + f * (1.0 / 120.0 + f * (1.0 / 720.0))))));
        p * f32::from_bits(((kf as i32 + 127) as u32) << 23)
    }

    #[test]
    fn fast_exp_is_accurate_above_the_cutoff_and_exactly_zero_below_it() {
        // Inputs after the running-max shift are ≤ 0. Down to the f32 underflow cutoff
        // (x ≈ −87.34, where exp(x) < 2⁻¹²⁶) the approximation tracks libm and keeps the
        // bits of the floored formula, so live softmax rows are unchanged …
        let mut max_rel = 0.0f32;
        for i in 0..=87_000 {
            let x = -(i as f32) * 0.001;
            let (a, b) = (x.exp(), fast_exp(x));
            max_rel = max_rel.max(((a - b) / a).abs());
            assert_eq!(b.to_bits(), fast_exp_floored(x).to_bits(), "bits at {x}");
        }
        assert!(max_rel < 4e-6, "max rel err {max_rel}");
        assert_eq!(fast_exp(0.0), 1.0);
        // … and below it the result is a true zero, not a floor: a floored probability
        // times any gradient below 1 is a subnormal.
        for x in [-88.0, -100.0, -1e4, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(fast_exp(x).to_bits(), 0, "exact underflow at {x}");
        }
        // No subnormal anywhere, in particular not in the band (−87.7, −87.3) where the
        // polynomial times 2⁻¹²⁶ would be one.
        for i in 0..=1_100_000 {
            let x = -(i as f32) * 1e-4;
            let e = fast_exp(x);
            assert!(e == 0.0 || e.is_normal(), "fast_exp({x}) = {e:e}");
        }
        assert!(fast_exp(f32::NAN).is_nan());
    }

    #[test]
    fn matches_reference_across_odd_shapes() {
        // Shapes straddle every tile boundary: n/m below, at, and beyond
        // Q_BLOCK/K_BLOCK, head dims down to 1.
        for &(b, h, n, m, d, dv, weighted) in &[
            (1usize, 1usize, 1usize, 1usize, 1usize, 1usize, false),
            (1, 1, 5, 7, 3, 3, false),
            (2, 3, 33, 29, 7, 7, false),
            (1, 2, 67, 67, 1, 1, false),
            (1, 1, Q_BLOCK + 1, K_BLOCK + 1, 4, 4, false),
            (1, 1, 9, 4, 5, 5, true),
            (2, 2, 40, 6, 8, 8, true),
            (1, 1, K_BLOCK + 3, K_BLOCK + K_BLOCK / 2, 2, 2, true),
        ] {
            let mut r = rng(7 * (n + m + d) as u64);
            let q = NdArray::randn(&[b, h, n, d], 1.0, &mut r);
            let k = NdArray::randn(&[b, h, m, d], 1.0, &mut r);
            let v = NdArray::randn(&[b, h, m, dv], 1.0, &mut r);
            let w = weighted.then(|| {
                let counts: Vec<f32> = (0..b * h * m).map(|i| 1.0 + (i % 5) as f32).collect();
                NdArray::from_vec(counts, &[b, h, m]).unwrap()
            });
            let scale = 1.0 / (d as f32).sqrt();
            let fused = fused_attention(&q, &k, &v, scale, w.as_ref()).unwrap();
            let no_grad = NdArray::zeros(&[b, h, n, dv]);
            let ([expect, expect_lse, ..], ..) = reference(&q, &k, &v, scale, w.as_ref(), &no_grad);
            assert!(
                allclose(fused.out.as_slice(), &expect, 1e-4, 1e-4),
                "out mismatch at ({b},{h},{n},{m},{d},{dv}) weighted={weighted}"
            );
            assert!(
                allclose(fused.lse.as_slice(), &expect_lse, 1e-4, 1e-4),
                "lse mismatch at ({b},{h},{n},{m},{d},{dv})"
            );
        }
    }

    #[test]
    fn consumes_strided_views_in_place() {
        // Build q/k/v as permuted + sliced views and compare against their
        // materialized copies.
        let (b, h, n, d) = (2usize, 2usize, 19usize, 6usize);
        let mut r = rng(11);
        let base = NdArray::randn(&[b, n + 3, h, d], 1.0, &mut r);
        // (b, h, n+3, d) view, then slice windows to n — non-contiguous throughout.
        let qv = base.permute(&[0, 2, 1, 3]).unwrap().slice_axis(2, 1, n + 1).unwrap();
        let kv = base.permute(&[0, 2, 1, 3]).unwrap().slice_axis(2, 2, n + 2).unwrap();
        let vv = base.permute(&[0, 2, 1, 3]).unwrap().slice_axis(2, 0, n).unwrap();
        let scale = 0.37;
        let via_view = fused_attention(&qv, &kv, &vv, scale, None).unwrap();
        let via_copy =
            fused_attention(&qv.materialize(), &kv.materialize(), &vv.materialize(), scale, None)
                .unwrap();
        assert!(allclose(via_view.out.as_slice(), via_copy.out.as_slice(), 1e-6, 1e-6));
        assert!(allclose(via_view.lse.as_slice(), via_copy.lse.as_slice(), 1e-6, 1e-6));
    }

    #[test]
    fn masked_rows_stay_finite() {
        // d = 1 with huge-magnitude operands drives scores to ±inf: rows with a mix of
        // -inf and finite scores must match the softmax limit (ignore the -inf keys);
        // fully -inf rows must produce zero output and -inf lse, not NaN (the unfused
        // softmax NaNs here).
        let n = 3;
        let m = 4;
        let q = NdArray::from_vec(vec![1e20, 1e20, 0.0], &[1, 1, n, 1]).unwrap();
        // keys: one +1 (→ +inf score for row 0/1? no: q=1e20 * k) …
        // k rows: [-1e20, -1e20, -1e20, -1e20] for a fully masked q row? scores for
        // q_i = 1e20: s = q_i * k_j; choose k = [-1e20, -1e20, 1.0, 2.0]:
        //   rows 0/1 (q = 1e20): scores = [-inf, -inf, 1e20, 2e20] → finite softmax over
        //   the last two (2e20 dominates).
        let k = NdArray::from_vec(vec![-1e20, -1e20, 1.0, 2.0], &[1, 1, m, 1]).unwrap();
        let v = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, m, 1]).unwrap();
        let res = fused_attention(&q, &k, &v, 1.0, None).unwrap();
        assert!(!res.out.has_non_finite(), "out must stay finite");
        // Rows 0/1: score of key 3 (2e20) dominates → output ≈ v_3 = 4.
        assert!((res.out.as_slice()[0] - 4.0).abs() < 1e-4);
        assert!((res.out.as_slice()[1] - 4.0).abs() < 1e-4);

        // Fully masked: all scores -inf.
        let q2 = NdArray::from_vec(vec![1e20], &[1, 1, 1, 1]).unwrap();
        let k2 = NdArray::from_vec(vec![-1e20, -1e20], &[1, 1, 2, 1]).unwrap();
        let v2 = NdArray::from_vec(vec![5.0, 6.0], &[1, 1, 2, 1]).unwrap();
        let res2 = fused_attention(&q2, &k2, &v2, 1.0, None).unwrap();
        assert_eq!(res2.out.as_slice(), &[0.0]);
        assert_eq!(res2.lse.as_slice()[0], f32::NEG_INFINITY);
        // … and the backward of such a row is zero, not NaN.
        let g = NdArray::ones(&[1, 1, 1, 1]);
        let (dq, dk, dv) =
            fused_attention_backward(&q2, &k2, &v2, None, 1.0, &res2.out, &res2.lse, &g).unwrap();
        assert!(dq.as_slice().iter().all(|&x| x == 0.0));
        assert!(dk.as_slice().iter().all(|&x| x == 0.0));
        assert!(dv.as_slice().iter().all(|&x| x == 0.0));
    }

    /// Pins the cause of the peaked-row slowdown by counting, not timing: on rows whose
    /// `lse` is ≈ 110 and whose other keys sit ≥ 87 below it, every vanishing
    /// probability must be an exact zero, so that no gradient entry is a subnormal
    /// (at a `2⁻¹²⁶` floor, every `dv` entry of an unattended key was one).
    #[test]
    fn peaked_rows_underflow_to_exact_zeros() {
        // Off-tile n and m, two key tiles and one, with and without group weights;
        // b·h ≥ 2 so the threaded backward really splits.
        for &(b, h, n, m, weighted) in &[
            (1usize, 2usize, Q_BLOCK + 5, K_BLOCK + 9, false),
            (2, 1, Q_BLOCK + 5, K_BLOCK + 9, true),
            (1, 2, 2 * Q_BLOCK + 6, 11, true),
        ] {
            // Channels 0..4 carry the scores: query i and key j point along axis i % 4
            // and j % 4, so scale·q·k is ≈ ±112 within a class and ≈ 0 across classes —
            // a spread of 224 with nothing in between. Channel 4 masks keys j % 6 == 0
            // for rows i % 5 == 1 and channel 5 masks every key for row 3 (the products
            // overflow to −∞). The ±3e38 entries only ever meet a `ds` of exactly zero —
            // keys j % 6 == 0 are −112 keys, row 3 is dead — so no gradient is scaled
            // by them.
            let (d, dv) = (6usize, 5usize);
            let scale = 1.0 / (d as f32).sqrt();
            let mut r = rng(5000 + (n * m) as u64);
            let mut q = NdArray::randn(&[b, h, n, d], 0.3, &mut r);
            let mut k = NdArray::randn(&[b, h, m, d], 0.3, &mut r);
            let v = NdArray::randn(&[b, h, m, dv], 1.0, &mut r);
            let g = NdArray::randn(&[b, h, n, dv], 0.05, &mut r);
            for (idx, row) in q.as_mut_slice().chunks_mut(d).enumerate() {
                let i = idx % n;
                row[i % 4] += 11.0;
                row[4] = if i % 5 == 1 { 4.0 } else { 0.0 };
                row[5] = if i == 3 { 3e38 } else { 0.0 };
            }
            for (idx, row) in k.as_mut_slice().chunks_mut(d).enumerate() {
                let j = idx % m;
                row[j % 4] += if j % 3 == 0 { -25.0 } else { 25.0 };
                row[4] = if j % 6 == 0 { -3e38 } else { 0.0 };
                row[5] = -4.0;
            }
            let w = weighted.then(|| {
                let counts: Vec<f32> = (0..b * h * m).map(|i| 1.0 + (i % 5) as f32).collect();
                NdArray::from_vec(counts, &[b, h, m]).unwrap()
            });
            let w = w.as_ref();

            let fwd = fused_attention_threaded(&q, &k, &v, scale, w, 1).unwrap();
            let (dq, dk, dval) =
                fused_attention_backward_threaded(&q, &k, &v, w, scale, &fwd.out, &fwd.lse, &g, 1)
                    .unwrap();
            let label = format!("(b={b}, h={h}, n={n}, m={m}, weighted={weighted})");

            // The inputs are in the regime the test is about: most live pairs underflow,
            // none lands among the tiny normals.
            let (expect, underflowed, tiny) = reference(&q, &k, &v, scale, w, &g);
            assert!(underflowed > b * h * n * m / 2, "{label}: {underflowed} underflowed pairs");
            assert_eq!(tiny, 0, "{label}: pairs with a tiny normal probability");
            let top = fwd.lse.as_slice().iter().fold(f32::MIN, |a, &x| a.max(x));
            assert!((100.0..130.0).contains(&top), "{label}: largest lse {top}");

            for (name, grad) in [("dq", &dq), ("dk", &dk), ("dv", &dval)] {
                let subnormal =
                    grad.as_slice().iter().filter(|x| **x != 0.0 && !x.is_normal()).count();
                assert_eq!(subnormal, 0, "{label}: entries of {name} neither 0.0 nor normal");
            }
            let got = [&fwd.out, &fwd.lse, &dq, &dk, &dval];
            for ((name, got), expect) in
                ["out", "lse", "dq", "dk", "dv"].iter().zip(got).zip(&expect)
            {
                for (i, (&x, &y)) in got.as_slice().iter().zip(expect).enumerate() {
                    assert!(
                        x == y || (x - y).abs() <= 1e-4 + 1e-4 * y.abs(),
                        "{label} {name}[{i}]: {x} vs reference {y}"
                    );
                }
            }
            for bh in 0..b * h {
                let masked = bh * n + 3;
                assert!(fwd.out.as_slice()[masked * dv..(masked + 1) * dv]
                    .iter()
                    .all(|&x| x == 0.0));
                assert_eq!(fwd.lse.as_slice()[masked], f32::NEG_INFINITY);
                assert!(dq.as_slice()[masked * d..(masked + 1) * d].iter().all(|&x| x == 0.0));
            }

            let fwd_t = fused_attention_threaded(&q, &k, &v, scale, w, 3).unwrap();
            assert_eq!(fwd.out.as_slice(), fwd_t.out.as_slice(), "{label}: threaded out");
            assert_eq!(fwd.lse.as_slice(), fwd_t.lse.as_slice(), "{label}: threaded lse");
            let threaded =
                fused_attention_backward_threaded(&q, &k, &v, w, scale, &fwd.out, &fwd.lse, &g, 3)
                    .unwrap();
            assert_eq!(dq.as_slice(), threaded.0.as_slice(), "{label}: threaded dq");
            assert_eq!(dk.as_slice(), threaded.1.as_slice(), "{label}: threaded dk");
            assert_eq!(dval.as_slice(), threaded.2.as_slice(), "{label}: threaded dv");
        }
    }

    /// Numerical-gradient check of the raw kernel backward (independent of the autograd
    /// layer): wiggle every q/k/v element and compare the loss delta against the
    /// analytic gradient under an arbitrary fixed upstream gradient.
    #[test]
    fn backward_matches_finite_differences() {
        for &(n, m, d, weighted) in
            &[(5usize, 4usize, 3usize, false), (6, 3, 2, true), (2, 7, 1, false)]
        {
            let (b, h) = (1usize, 2usize);
            let dv = d;
            let mut r = rng(400 + (n * m) as u64);
            let q = NdArray::randn(&[b, h, n, d], 0.7, &mut r);
            let k = NdArray::randn(&[b, h, m, d], 0.7, &mut r);
            let v = NdArray::randn(&[b, h, m, dv], 0.7, &mut r);
            let g = NdArray::randn(&[b, h, n, dv], 1.0, &mut r);
            let w = weighted.then(|| {
                let counts: Vec<f32> = (0..b * h * m).map(|i| 1.0 + (i % 3) as f32).collect();
                NdArray::from_vec(counts, &[b, h, m]).unwrap()
            });
            let scale = 1.0 / (d as f32).sqrt();
            let fwd = fused_attention(&q, &k, &v, scale, w.as_ref()).unwrap();
            let (dq, dk, dv_grad) =
                fused_attention_backward(&q, &k, &v, w.as_ref(), scale, &fwd.out, &fwd.lse, &g)
                    .unwrap();
            let loss = |q: &NdArray, k: &NdArray, v: &NdArray| -> f32 {
                let out = fused_attention(q, k, v, scale, w.as_ref()).unwrap().out;
                out.as_slice().iter().zip(g.as_slice()).map(|(&o, &gi)| o * gi).sum()
            };
            let eps = 1e-2f32;
            let check =
                |arr: &NdArray, grad: &NdArray, which: &str, f: &dyn Fn(&NdArray) -> f32| {
                    for i in 0..arr.len() {
                        let mut plus = arr.materialize();
                        plus.as_mut_slice()[i] += eps;
                        let mut minus = arr.materialize();
                        minus.as_mut_slice()[i] -= eps;
                        let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
                        let analytic = grad.as_slice()[i];
                        assert!(
                            (analytic - numeric).abs() < 1e-2 + 2e-2 * numeric.abs(),
                            "{which}[{i}]: analytic {analytic} vs numeric {numeric} \
                         (n={n}, m={m}, d={d}, weighted={weighted})"
                        );
                    }
                };
            check(&q, &dq, "dq", &|qq| loss(qq, &k, &v));
            check(&k, &dk, "dk", &|kk| loss(&q, kk, &v));
            check(&v, &dv_grad, "dv", &|vv| loss(&q, &k, vv));
        }
    }

    /// Forces every fan-out path (which a single-CPU box never reaches through
    /// `worker_budget`) and checks each reproduces the serial results exactly — the
    /// chunking only decides which thread computes which block, so the arithmetic is
    /// identical.
    #[test]
    fn threaded_paths_match_serial() {
        // (b, h, n, m, threads): covers matrix fan-out with bh >= threads, matrix
        // fan-out for short sequences with bh < threads, and the query-block split for
        // 1 <= bh < threads with long sequences.
        for &(b, h, n, m, threads) in &[
            (2usize, 3usize, 40usize, 40usize, 3usize), // bh >= threads: matrix fan-out
            (2, 2, 16, 16, 8),                          // short n, bh < threads: matrix fan-out
            (1, 2, 100, 100, 8),                        // bh < threads, long n: q-block split
            (1, 1, 70, 70, 4),                          // single matrix: q-block split
        ] {
            let d = 5;
            let mut r = rng(1000 + (b * h * n + threads) as u64);
            let q = NdArray::randn(&[b, h, n, d], 0.9, &mut r);
            let k = NdArray::randn(&[b, h, m, d], 0.9, &mut r);
            let v = NdArray::randn(&[b, h, m, d], 0.9, &mut r);
            let w = NdArray::from_vec(
                (0..b * h * m).map(|i| 1.0 + (i % 3) as f32).collect(),
                &[b, h, m],
            )
            .unwrap();
            for weights in [None, Some(&w)] {
                let serial = fused_attention_threaded(&q, &k, &v, 0.4, weights, 1).unwrap();
                let parallel = fused_attention_threaded(&q, &k, &v, 0.4, weights, threads).unwrap();
                assert_eq!(
                    serial.out.as_slice(),
                    parallel.out.as_slice(),
                    "out (b={b}, h={h}, n={n}, threads={threads})"
                );
                assert_eq!(serial.lse.as_slice(), parallel.lse.as_slice(), "lse");

                let g = NdArray::randn(&[b, h, n, d], 1.0, &mut r);
                let sb = fused_attention_backward_threaded(
                    &q,
                    &k,
                    &v,
                    weights,
                    0.4,
                    &serial.out,
                    &serial.lse,
                    &g,
                    1,
                )
                .unwrap();
                let pb = fused_attention_backward_threaded(
                    &q,
                    &k,
                    &v,
                    weights,
                    0.4,
                    &serial.out,
                    &serial.lse,
                    &g,
                    threads,
                )
                .unwrap();
                assert_eq!(sb.0.as_slice(), pb.0.as_slice(), "dq threads={threads}");
                assert_eq!(sb.1.as_slice(), pb.1.as_slice(), "dk threads={threads}");
                assert_eq!(sb.2.as_slice(), pb.2.as_slice(), "dv threads={threads}");
            }
        }
    }

    /// `(dq, dk, dv)` of contiguous operands from a per-matrix backward kernel, called
    /// serially as `kernel(bhi, dq, dk, dv)` for every (batch, head) matrix.
    fn per_matrix(
        dims: &Dims,
        mut kernel: impl FnMut(usize, &mut [f32], &mut [f32], &mut [f32]),
    ) -> [Vec<f32>; 3] {
        let Dims { b, h, n, m, d, dv } = *dims;
        let mut grads =
            [vec![0.0; b * h * n * d], vec![0.0; b * h * m * d], vec![0.0; b * h * m * dv]];
        let [dq, dk, dval] = &mut grads;
        for bhi in 0..b * h {
            kernel(
                bhi,
                &mut dq[bhi * n * d..(bhi + 1) * n * d],
                &mut dk[bhi * m * d..(bhi + 1) * m * d],
                &mut dval[bhi * m * dv..(bhi + 1) * m * dv],
            );
        }
        grads
    }

    /// Attention operands `(q, k, v, g, weights, scale)` of shape `(b, h, n, d)` /
    /// `(b, h, m, d)` in one of three score regimes: `flat` (unit-variance queries and
    /// keys), `peaked` (the same scaled by 6: scores of deviation ≈ 36, most keys of a row
    /// more than 87 below its `lse`) and `band` (every fourth key near the top, the others
    /// 45–87 below `lse`: probabilities in `(2⁻¹²⁶, 2⁻⁶⁴)`, which the twin keeps as normal
    /// floats and the packed backward drops).
    #[allow(clippy::type_complexity)]
    fn regime(
        inputs: &str,
        (b, h, n, m, d): (usize, usize, usize, usize, usize),
        seed: u64,
    ) -> (NdArray, NdArray, NdArray, NdArray, NdArray, f32) {
        let mut r = rng(seed);
        let spread = if inputs == "band" { 0.3 } else { 1.0 };
        let mut q = NdArray::randn(&[b, h, n, d], spread, &mut r);
        let mut k = NdArray::randn(&[b, h, m, d], spread, &mut r);
        let v = NdArray::randn(&[b, h, m, d], 1.0, &mut r);
        let g = NdArray::randn(&[b, h, n, d], 0.05, &mut r);
        let w =
            NdArray::from_vec((0..b * h * m).map(|i| 1.0 + (i % 5) as f32).collect(), &[b, h, m])
                .unwrap();
        let mut scale = 1.0 / (d as f32).sqrt();
        match inputs {
            "peaked" => {
                q = q.scale(6.0);
                k = k.scale(6.0);
            }
            "band" => {
                // Score = k[.., 0] + noise of deviation < 0.2 at scale 1; `lse` is ln of
                // the live keys' total weight (3.5–4.7 at m ≤ 149), so the others sit
                // 47–85 below it.
                scale = 1.0;
                for row in q.as_mut_slice().chunks_mut(d) {
                    row[0] = 1.0;
                }
                for (idx, row) in k.as_mut_slice().chunks_mut(d).enumerate() {
                    let j = idx % m;
                    row[0] =
                        if j % 4 == 0 { 0.0 } else { -44.0 - 36.0 * ((j * 7) % 13) as f32 / 12.0 };
                }
            }
            _ => {}
        }
        (q, k, v, g, w, scale)
    }

    /// The packed backward against its twin, the loop kernel it replaced: the two differ
    /// in summation order and in the probabilities below `P_CUTOFF` the packed kernel
    /// drops. Largest differences measured (printed with `--nocapture`): absolute 6.0e-8
    /// (peaked `dq`, largest entry 0.79); as a fraction of the largest entry of the
    /// twin's tensor, flat 3.7e-7, peaked 1.0e-7, band 3.6e-7; elementwise, on entries
    /// at least 1e-3 of that largest entry, 4.0e-5 relative.
    #[test]
    fn packed_backward_matches_its_twin() {
        let shapes = [(1usize, 2usize, 2 * Q_BLOCK + 7, K_BLOCK + 21, 8usize), (2, 1, 45, 64, 32)];
        for (si, &shape) in shapes.iter().enumerate() {
            let (b, h, n, m, d) = shape;
            let dims = Dims { b, h, n, m, d, dv: d };
            for inputs in ["flat", "peaked", "band"] {
                let (q, k, v, g, w, scale) = regime(inputs, shape, 60 + si as u64);
                for weights in [None, Some(&w)] {
                    let label = format!("{inputs} {shape:?} weighted={}", weights.is_some());
                    let (_, underflowed, band) = reference(&q, &k, &v, scale, weights, &g);
                    match inputs {
                        "peaked" => assert!(underflowed > b * h * n * m / 3, "{label}"),
                        // `reference` counts the part of the band more than 60 below `lse`.
                        "band" => assert!(underflowed == 0 && band > b * h * n * m / 3, "{label}"),
                        _ => assert_eq!(underflowed + band, 0, "{label}"),
                    }
                    let fwd = fused_attention_threaded(&q, &k, &v, scale, weights, 1).unwrap();
                    let (got_q, got_k, got_v) = fused_attention_backward_threaded(
                        &q, &k, &v, weights, scale, &fwd.out, &fwd.lse, &g, 1,
                    )
                    .unwrap();
                    let wd = weights.map(|w| w.as_slice());
                    let (out, lse) = (fwd.out.as_slice(), fwd.lse.as_slice());
                    let mut scratch = BwdScratch::new(&dims);
                    let twin = per_matrix(&dims, |bhi, dq, dk, dval| {
                        let (qo, ko, vo) = (Op::new(&q), Op::new(&k), Op::new(&v));
                        let gs = g.as_slice();
                        backward_bh(
                            &dims,
                            h,
                            bhi,
                            qo,
                            ko,
                            vo,
                            wd,
                            scale,
                            out,
                            gs,
                            lse,
                            dq,
                            dk,
                            dval,
                            &mut scratch,
                        );
                    });
                    for ((name, got), want) in
                        [("dq", &got_q), ("dk", &got_k), ("dv", &got_v)].into_iter().zip(&twin)
                    {
                        let top = want.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
                        let (mut abs, mut rel) = (0.0f32, 0.0f32);
                        for (&x, &y) in got.as_slice().iter().zip(want) {
                            abs = abs.max((x - y).abs());
                            if y.abs() >= 1e-3 * top {
                                rel = rel.max(((x - y) / y).abs());
                            }
                        }
                        println!("{label} {name}: max |Δ| {abs:e} = {:e} of max |twin| {top:e}; rel {rel:e}", abs / top);
                        assert!(
                            abs <= 1e-6 * top,
                            "{label} {name}: |Δ| {abs:e} against max {top:e}"
                        );
                        assert!(rel <= 1e-4, "{label} {name}: relative Δ {rel:e}");
                    }
                }
            }
        }
    }

    /// Pins `P_CUTOFF` at the kernel's output: a key whose every probability lies in
    /// `[2⁻¹²⁶, 2⁻⁶⁴)` gets exactly-zero `dK` and `dV` rows (the twin's are normal floats
    /// of order `2⁻⁶⁴·g`), a key at `2⁻⁶³` still contributes, and no gradient entry is a
    /// subnormal.
    #[test]
    fn probabilities_below_two_to_the_minus_64_drop_out_of_the_backward() {
        let (n, d) = (Q_BLOCK + 3, 2usize);
        // Scores (scale 1, q = (1, noise)): key 0 leads at 0, so every row's `lse` is 0
        // up to far below an f32 ulp; keys 1–3 sit at 2⁻¹²⁵, 2⁻¹⁰⁰ and 2⁻⁶⁴·⁵ of it, key 4
        // at 2⁻⁶³, key 5 at 2⁻³⁰.
        let log2 = [0.0f32, -125.0, -100.0, -64.5, -63.0, -30.0];
        let m = log2.len();
        let mut r = rng(77);
        let mut q = NdArray::randn(&[1, 1, n, d], 1e-6, &mut r);
        let mut k = NdArray::randn(&[1, 1, m, d], 1e-6, &mut r);
        for row in q.as_mut_slice().chunks_mut(d) {
            row[0] = 1.0;
        }
        for (row, &e) in k.as_mut_slice().chunks_mut(d).zip(&log2) {
            row[0] = e * std::f32::consts::LN_2;
        }
        let v = NdArray::randn(&[1, 1, m, d], 1.0, &mut r);
        let g = NdArray::randn(&[1, 1, n, d], 1.0, &mut r);
        // Key 0 has weight 1, so weighting keeps `lse` at 0.
        let w = NdArray::from_vec(vec![1.0, 4.0, 2.0, 3.0, 5.0, 2.0], &[1, 1, m]).unwrap();
        for weights in [None, Some(&w)] {
            let fwd = fused_attention(&q, &k, &v, 1.0, weights).unwrap();
            assert!(fwd.lse.as_slice().iter().all(|&l| l.abs() < 2.0), "lse {:?}", fwd.lse);
            let (dq, dk, dval) =
                fused_attention_backward(&q, &k, &v, weights, 1.0, &fwd.out, &fwd.lse, &g).unwrap();
            let row = |a: &NdArray, j: usize| a.as_slice()[j * d..(j + 1) * d].to_vec();
            for j in 1..=3 {
                assert_eq!(row(&dk, j), [0.0; 2], "dK row of key {j}");
                assert_eq!(row(&dval, j), [0.0; 2], "dV row of key {j}");
            }
            for j in [4, 5] {
                assert!(row(&dk, j).iter().all(|&x| x != 0.0), "dK row of key {j}");
                assert!(row(&dval, j).iter().all(|&x| x != 0.0), "dV row of key {j}");
            }
            for (name, grad) in [("dq", &dq), ("dk", &dk), ("dv", &dval)] {
                assert!(
                    grad.as_slice().iter().all(|&x| x == 0.0 || x.is_normal()),
                    "{name}: {:?}",
                    grad.as_slice()
                );
            }
        }
    }

    /// A head width of 0 makes every score 0 and every row uniform. Across more than one
    /// key block the backward returns empty `dq`/`dk` and the reference `dv`.
    #[test]
    fn zero_head_width_spans_key_blocks() {
        let (n, m, dv) = (Q_BLOCK + 3, K_BLOCK + 1, 5);
        let mut r = rng(5);
        let q = NdArray::zeros(&[1, 2, n, 0]);
        let k = NdArray::zeros(&[1, 2, m, 0]);
        let v = NdArray::randn(&[1, 2, m, dv], 1.0, &mut r);
        let g = NdArray::randn(&[1, 2, n, dv], 1.0, &mut r);
        let w = NdArray::from_vec((0..2 * m).map(|j| 1.0 + (j % 3) as f32).collect(), &[1, 2, m])
            .unwrap();
        for weights in [None, Some(&w)] {
            let fwd = fused_attention(&q, &k, &v, 1.0, weights).unwrap();
            let (dq, dk, dval) =
                fused_attention_backward(&q, &k, &v, weights, 1.0, &fwd.out, &fwd.lse, &g).unwrap();
            assert_eq!(dq.shape(), [1, 2, n, 0]);
            assert_eq!(dk.shape(), [1, 2, m, 0]);
            let ([.., want_v], _, _) = reference(&q, &k, &v, 1.0, weights, &g);
            assert!(
                allclose(dval.as_slice(), &want_v, 1e-6, 1e-5),
                "weighted={}",
                weights.is_some()
            );
        }
    }

    #[test]
    fn backward_matrix_dispatch_matches_the_portable_build() {
        type Kernel = fn(
            &Dims,
            usize,
            usize,
            Op<'_>,
            Op<'_>,
            Op<'_>,
            Option<&[f32]>,
            f32,
            &[f32],
            &[f32],
            &[f32],
            &mut [f32],
            &mut [f32],
            &mut [f32],
            &mut BwdPacks,
        );
        let shapes = [
            (1usize, 1usize, 1usize, 1usize, 1usize),
            (2, 1, Q_BLOCK + 5, K_BLOCK + 9, 7),
            (1, 2, 45, 64, 32),
        ];
        for (si, &shape) in shapes.iter().enumerate() {
            let (b, h, n, m, d) = shape;
            let dims = Dims { b, h, n, m, d, dv: d };
            for inputs in ["flat", "peaked", "band"] {
                let (q, k, v, g, w, scale) = regime(inputs, shape, 90 + si as u64);
                let fwd = fused_attention_threaded(&q, &k, &v, scale, Some(&w), 1).unwrap();
                let (out, lse) = (fwd.out.as_slice(), fwd.lse.as_slice());
                let grads = |kernel: Kernel| {
                    let mut packs = BwdPacks::new(&dims);
                    per_matrix(&dims, |bhi, dq, dk, dval| {
                        let (qo, ko, vo) = (Op::new(&q), Op::new(&k), Op::new(&v));
                        let (ws, gs) = (Some(w.as_slice()), g.as_slice());
                        kernel(
                            &dims, h, bhi, qo, ko, vo, ws, scale, out, gs, lse, dq, dk, dval,
                            &mut packs,
                        );
                    })
                };
                let (a, b) = (grads(backward_matrix::run), grads(backward_matrix::body));
                for (x, y) in a.iter().zip(&b) {
                    assert!(
                        x.iter().zip(y).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{inputs} {shape:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_mismatched_shapes() {
        let q = NdArray::zeros(&[1, 1, 4, 3]);
        let k = NdArray::zeros(&[1, 1, 5, 2]); // wrong head dim
        let v = NdArray::zeros(&[1, 1, 5, 3]);
        assert!(fused_attention(&q, &k, &v, 1.0, None).is_err());
        let k2 = NdArray::zeros(&[1, 1, 5, 3]);
        let wbad = NdArray::zeros(&[1, 1, 4]); // wrong key count
        assert!(fused_attention(&q, &k2, &v, 1.0, Some(&wbad)).is_err());
        let q3 = NdArray::zeros(&[4, 3]);
        assert!(fused_attention(&q3, &k2, &v, 1.0, None).is_err());
    }
}
