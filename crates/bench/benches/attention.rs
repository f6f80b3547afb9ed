//! Micro-benchmarks for the attention mechanisms: forward-pass cost as the number of
//! windows grows. This is the micro-level version of Fig. 4(b) and the §6.3.2 speed-up
//! claim — group attention's advantage over vanilla attention should widen with the
//! sequence length.
//!
//! The `attention_fused_fwd_bwd` group times the fused kernel's forward **and backward**
//! at the shape of one long-series training step (2 heads, `n × n` vanilla and `n × 64`
//! group), on `flat` inputs (unit-variance queries and keys, every probability within
//! a few e-folds of the others) and on `peaked` ones (the same draws scaled so each
//! row's `lse` is ≈ 100 and most keys sit more than 87 below it — what trained
//! attention looks like). The kernel does the same arithmetic on both, so the two rows
//! of a variant differ only if its speed depends on the values it is given.
//!
//! Every row is timed by [`rita_bench::sample`]. Besides the human-readable lines on
//! stdout, the run writes every row to `BENCH_attention.json` (config, variant, n, and
//! the median and quartiles of the per-iteration time) so the perf trajectory tracked in
//! `CHANGES.md` is diffable across PRs. `RITA_QUICK=1` shrinks the sweep to
//! seconds-scale smoke sizes (CI runs it on every push and uploads the JSON artifact).

use rand::SeedableRng;
use rita_bench::{sample, Sample};
use rita_core::attention::{
    Attention, GroupAttention, GroupAttentionConfig, LinformerAttention, PerformerAttention,
    VanillaAttention,
};
use rita_nn::{no_grad, Var};
use rita_tensor::{fused_attention, fused_attention_backward, NdArray, SeedableRng64};

fn quick() -> bool {
    std::env::var("RITA_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn qkv(n: usize, dh: usize, seed: u64) -> (Var, Var, Var) {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    // Periodic-looking keys: a handful of prototypes plus small noise, the regime group
    // attention exploits.
    let prototypes = NdArray::randn(&[8, dh], 1.0, &mut rng);
    let mut kdata = Vec::with_capacity(n * dh);
    for i in 0..n {
        let p = i % 8;
        for j in 0..dh {
            kdata.push(prototypes.as_slice()[p * dh + j] + 0.05 * (i as f32 % 3.0));
        }
    }
    let k = Var::constant(NdArray::from_vec(kdata, &[1, 1, n, dh]).unwrap());
    let q = Var::constant(NdArray::randn(&[1, 1, n, dh], 1.0, &mut rng));
    let v = Var::constant(NdArray::randn(&[1, 1, n, dh], 1.0, &mut rng));
    (q, k, v)
}

fn group_config(initial_groups: usize) -> GroupAttentionConfig {
    GroupAttentionConfig { initial_groups, adaptive: false, ..Default::default() }
}

/// One measured row of `BENCH_attention.json`.
struct Row {
    config: &'static str,
    variant: String,
    n: usize,
    sample: Sample,
}

/// Timed samples per row.
fn samples() -> usize {
    if quick() {
        3
    } else {
        10
    }
}

/// Times `routine` and records it as one row.
fn bench<O>(
    rows: &mut Vec<Row>,
    config: &'static str,
    variant: String,
    n: usize,
    routine: impl FnMut() -> O,
) {
    let s = sample(samples(), routine);
    let (median, q1, q3) = (s.median_ns / 1e3, s.q1_ns / 1e3, s.q3_ns / 1e3);
    println!("{config} {variant}/{n}: median {median:.1} us (q1 {q1:.1}, q3 {q3:.1})");
    rows.push(Row { config, variant, n, sample: s });
}

fn bench_attention_forward(rows: &mut Vec<Row>) {
    let dh = 32;
    let ns: &[usize] = if quick() { &[64, 256] } else { &[256, 1024, 4096] };
    for &n in ns {
        let (q, k, v) = qkv(n, dh, 1);
        let seeded = SeedableRng64::seed_from_u64;
        let attentions: [(&str, Box<dyn Attention>); 4] = [
            ("vanilla", Box::new(VanillaAttention::new())),
            ("group", Box::new(GroupAttention::new(group_config(16.min(n))))),
            ("performer", Box::new(PerformerAttention::new(dh, 32, &mut seeded(2)))),
            ("linformer", Box::new(LinformerAttention::new(n, 32, &mut seeded(3)))),
        ];
        for (variant, mut attn) in attentions {
            bench(rows, "b1 h1 dh32", variant.into(), n, || {
                no_grad(|| attn.forward(&q, &k, &v).to_array())
            });
        }
    }
}

/// Multi-head configuration: exercises the head-split views and the batched kernels'
/// batch×heads parallelism (batch 4 × heads 8), the regime the encoder actually runs.
fn qkv_multihead(b: usize, h: usize, n: usize, dh: usize, seed: u64) -> (Var, Var, Var) {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    let prototypes = NdArray::randn(&[8, dh], 1.0, &mut rng);
    let mut kdata = Vec::with_capacity(b * h * n * dh);
    for _ in 0..b * h {
        for i in 0..n {
            let p = i % 8;
            for j in 0..dh {
                kdata.push(prototypes.as_slice()[p * dh + j] + 0.05 * (i as f32 % 3.0));
            }
        }
    }
    let k = Var::constant(NdArray::from_vec(kdata, &[b, h, n, dh]).unwrap());
    let q = Var::constant(NdArray::randn(&[b, h, n, dh], 1.0, &mut rng));
    let v = Var::constant(NdArray::randn(&[b, h, n, dh], 1.0, &mut rng));
    (q, k, v)
}

fn bench_attention_forward_multihead(rows: &mut Vec<Row>) {
    let (b, h, dh) = (4, 8, 32);
    let ns: &[usize] = if quick() { &[64] } else { &[256, 1024] };
    for &n in ns {
        let (q, k, v) = qkv_multihead(b, h, n, dh, 1);
        let attentions: [(&str, Box<dyn Attention>); 2] = [
            ("vanilla", Box::new(VanillaAttention::new())),
            ("group", Box::new(GroupAttention::new(group_config(16.min(n))))),
        ];
        for (variant, mut attn) in attentions {
            bench(rows, "b4 h8 dh32", variant.into(), n, || {
                no_grad(|| attn.forward(&q, &k, &v).to_array())
            });
        }
    }
}

/// Multiplier on the `peaked` queries and keys: unit-variance scores become scores of
/// standard deviation 36, so a row's maximum over ≥ 64 keys — and with it `lse` — lands
/// near 100 and most other keys more than 87 below it.
const PEAK: f32 = 6.0;

fn bench_fused_forward_backward(rows: &mut Vec<Row>) {
    let (h, dh, n_groups) = (2, 32, 64);
    let scale = 1.0 / (dh as f32).sqrt();
    let ns: &[usize] = if quick() { &[128] } else { &[512, 2048] };
    for &n in ns {
        let mut rng = SeedableRng64::seed_from_u64(n as u64);
        let q = NdArray::randn(&[1, h, n, dh], 1.0, &mut rng);
        let k = NdArray::randn(&[1, h, n, dh], 1.0, &mut rng);
        let v = NdArray::randn(&[1, h, n, dh], 1.0, &mut rng);
        // Upstream gradients well below 1, as a mean-reduced loss produces them.
        let g = NdArray::randn(&[1, h, n, dh], 0.05, &mut rng);
        // Group attention's operands: N aggregated keys/values and their member counts.
        let kg = k.slice_axis(2, 0, n_groups).unwrap();
        let vg = v.slice_axis(2, 0, n_groups).unwrap();
        let counts = NdArray::full(&[1, h, n_groups], (n / n_groups) as f32);
        for (inputs, mult) in [("flat", 1.0), ("peaked", PEAK)] {
            let (q, k, kg) = (q.scale(mult), k.scale(mult), kg.scale(mult));
            for (variant, k, v, w) in
                [("vanilla", &k, &v, None), ("group", &kg, &vg, Some(&counts))]
            {
                bench(rows, "b1 h2 dh32 N64", format!("{variant}_{inputs}"), n, || {
                    let f = fused_attention(&q, k, v, scale, w).unwrap();
                    fused_attention_backward(&q, k, v, w, scale, &f.out, &f.lse, &g).unwrap()
                });
            }
        }
    }
}

/// Serialises the rows to `BENCH_attention.json` (no JSON dependency in the workspace,
/// so the writer is hand-rolled; every emitted value is a number or a string without
/// escapes).
fn write_json(rows: &[Row]) -> std::io::Result<()> {
    use std::io::Write;
    // Cargo runs bench binaries from the package directory; anchor the default output
    // at the workspace root so CI and humans find one canonical file. Quick-mode runs
    // (CI smoke, local sanity checks) write a sibling file instead of truncating the
    // committed full-mode rows that CHANGES.md tracks across PRs.
    let default_name = if quick() { "BENCH_attention.quick.json" } else { "BENCH_attention.json" };
    let path = std::env::var("RITA_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../{default_name}", env!("CARGO_MANIFEST_DIR")));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"benchmark\": \"attention_forward\",")?;
    writeln!(f, "  \"quick\": {},", quick())?;
    writeln!(f, "  \"results\": [")?;
    for (i, Row { config, variant, n, sample: s }) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"config\": \"{config}\", \"variant\": \"{variant}\", \"n\": {n}, \
             \"median_ns\": {:.0}, \"q1_ns\": {:.0}, \"q3_ns\": {:.0}, \"samples\": {}}}{comma}",
            s.median_ns,
            s.q1_ns,
            s.q3_ns,
            samples()
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    println!("\nwrote {} ({} results)", path, rows.len());
    Ok(())
}

fn main() {
    let mut rows = Vec::new();
    bench_attention_forward(&mut rows);
    bench_attention_forward_multihead(&mut rows);
    bench_fused_forward_backward(&mut rows);
    if let Err(e) = write_json(&rows) {
        eprintln!("failed to write BENCH_attention.json: {e}");
        std::process::exit(1);
    }
}
