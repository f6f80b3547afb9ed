//! The verifier's own shape calculus — an independent re-statement of every op's
//! typing rule.
//!
//! This module deliberately shares **no code** with `rita_nn::graph::Op::infer_shape`:
//! the rules are re-derived from the op semantics (what the kernels actually do) and
//! implemented with a different structure, so a bug in the compiler's inference cannot
//! hide here by being the *same* bug. Where the two disagree on any value of any plan,
//! the shape analysis reports a mismatch.

use rita_nn::graph::Op;

/// Result of typing one node: the output shape, or why the inputs are inconsistent.
pub(crate) type ShapeResult = Result<Vec<usize>, String>;

fn want_rank(s: &[usize], rank: usize, what: &str) -> Result<(), String> {
    if s.len() == rank {
        Ok(())
    } else {
        Err(format!("{what} must be rank {rank}, got {s:?}"))
    }
}

fn want_arity(ins: &[&[usize]], arity: usize) -> Result<(), String> {
    if ins.len() == arity {
        Ok(())
    } else {
        Err(format!("takes {arity} inputs, got {}", ins.len()))
    }
}

/// Right-aligned broadcast join, built by walking both shapes from the trailing axis.
fn join_broadcast(a: &[usize], b: &[usize]) -> Result<Vec<usize>, String> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let mut ai = a.iter().rev();
    let mut bi = b.iter().rev();
    loop {
        match (ai.next(), bi.next()) {
            (None, None) => break,
            (Some(&x), None) | (None, Some(&x)) => out.push(x),
            (Some(&x), Some(&y)) if x == y || y == 1 => out.push(x),
            (Some(&1), Some(&y)) => out.push(y),
            (Some(_), Some(_)) => return Err(format!("shapes {a:?} and {b:?} do not broadcast")),
        }
    }
    out.reverse();
    Ok(out)
}

/// Batched matrix-product typing: trailing `(m, k) × (k, n) → (m, n)`, leading axes
/// broadcast.
fn mul_shape(a: &[usize], b: &[usize]) -> ShapeResult {
    if a.len() < 2 || b.len() < 2 {
        return Err(format!("matmul needs rank ≥ 2 operands, got {a:?} × {b:?}"));
    }
    let (m, ka) = (a[a.len() - 2], a[a.len() - 1]);
    let (kb, n) = (b[b.len() - 2], b[b.len() - 1]);
    if ka != kb {
        return Err(format!("contraction dims differ: {a:?} × {b:?}"));
    }
    let mut out = join_broadcast(&a[..a.len() - 2], &b[..b.len() - 2])?;
    out.push(m);
    out.push(n);
    Ok(out)
}

/// A rank-1 bias must match the target's trailing axis; the target shape passes
/// through.
fn bias_shape(y: &[usize], b: &[usize]) -> ShapeResult {
    match y.last() {
        Some(&last) if b == [last] => Ok(y.to_vec()),
        Some(&last) => Err(format!("bias {b:?} does not match trailing axis {last}")),
        None => Err("bias target is rank 0".to_string()),
    }
}

/// Windows produced by a `(window, stride)` sweep over `len` timestamps.
fn windows_of(len: usize, window: usize, stride: usize) -> Result<usize, String> {
    if window == 0 {
        return Err("window must be positive".to_string());
    }
    let Some(span) = len.checked_sub(window) else {
        return Err(format!("length {len} shorter than window {window}"));
    };
    Ok(span / stride.max(1) + 1)
}

fn unfolded(x: &[usize], window: usize, stride: usize) -> ShapeResult {
    want_rank(x, 3, "unfold input")?;
    let n = windows_of(x[2], window, stride)?;
    Ok(vec![x[0], n, x[1] * window])
}

fn attention(ins: &[&[usize]]) -> ShapeResult {
    want_arity(ins, 3)?;
    let q = ins[0];
    want_rank(q, 4, "query")?;
    if ins[1] != q || ins[2] != q {
        return Err(format!("q {q:?} / k {:?} / v {:?} disagree", ins[1], ins[2]));
    }
    Ok(q.to_vec())
}

/// Types one node from its input shapes. `run_input` is the plan's graph-input shape
/// (needed by [`Op::Fold1d`], whose output length is the run's series length).
pub(crate) fn derive(op: &Op, ins: &[&[usize]], run_input: &[usize]) -> ShapeResult {
    match op {
        Op::Linear => {
            want_arity(ins, 3)?;
            bias_shape(&mul_shape(ins[0], ins[1])?, ins[2])
        }
        Op::WindowEmbed { window, stride } => {
            want_arity(ins, 3)?;
            let w = unfolded(ins[0], *window, *stride)?;
            bias_shape(&mul_shape(&w, ins[1])?, ins[2])
        }
        Op::ClsConcatPos => {
            want_arity(ins, 3)?;
            let (e, cls, pos) = (ins[0], ins[1], ins[2]);
            want_rank(e, 3, "embedded windows")?;
            let (b, n, d) = (e[0], e[1], e[2]);
            if cls != [d] {
                return Err(format!("cls token {cls:?} is not [{d}]"));
            }
            want_rank(pos, 2, "positional table")?;
            if pos[1] != d {
                return Err(format!("positional width {} is not d_model {d}", pos[1]));
            }
            if pos[0] < n + 1 {
                return Err(format!("positional table has {} rows, need {}", pos[0], n + 1));
            }
            Ok(vec![b, n + 1, d])
        }
        Op::LayerNorm { .. } => {
            want_arity(ins, 3)?;
            let x = ins[0];
            match x.last() {
                Some(&last) if ins[1] == [last] && ins[2] == [last] => Ok(x.to_vec()),
                Some(&last) => {
                    Err(format!("gamma {:?} / beta {:?} are not [{last}]", ins[1], ins[2]))
                }
                None => Err("layer-norm input is rank 0".to_string()),
            }
        }
        Op::Gelu => {
            want_arity(ins, 1)?;
            Ok(ins[0].to_vec())
        }
        Op::Add => {
            want_arity(ins, 2)?;
            join_broadcast(ins[0], ins[1])
        }
        Op::SplitHeads { heads } => {
            want_arity(ins, 1)?;
            let x = ins[0];
            want_rank(x, 3, "split-heads input")?;
            if *heads == 0 || !x[2].is_multiple_of(*heads) {
                return Err(format!("{} features do not split into {heads} heads", x[2]));
            }
            Ok(vec![x[0], *heads, x[1], x[2] / heads])
        }
        Op::MergeHeads => {
            want_arity(ins, 1)?;
            let x = ins[0];
            want_rank(x, 4, "merge-heads input")?;
            Ok(vec![x[0], x[2], x[1] * x[3]])
        }
        Op::Attention(_) => attention(ins),
        Op::ClsPool => {
            want_arity(ins, 1)?;
            let h = ins[0];
            want_rank(h, 3, "cls-pool input")?;
            Ok(vec![h[0], h[2]])
        }
        Op::SliceWindows => {
            want_arity(ins, 1)?;
            let h = ins[0];
            want_rank(h, 3, "slice-windows input")?;
            if h[1] < 2 {
                return Err(format!("need at least 2 rows to drop the CLS row, got {}", h[1]));
            }
            Ok(vec![h[0], h[1] - 1, h[2]])
        }
        Op::Fold1d { channels, window, stride } => {
            want_arity(ins, 1)?;
            let w = ins[0];
            want_rank(w, 3, "fold input")?;
            want_rank(run_input, 3, "run input")?;
            if w[2] != channels * window {
                return Err(format!(
                    "fold features {} are not channels·window = {}",
                    w[2],
                    channels * window
                ));
            }
            let len = run_input[2];
            let expect = windows_of(len, *window, *stride)?;
            if w[1] != expect {
                return Err(format!("{} windows cannot fold a length-{len} series", w[1]));
            }
            Ok(vec![w[0], *channels, len])
        }
    }
}
