//! Criterion micro-benchmarks for the attention mechanisms: forward-pass cost as the
//! number of windows grows. This is the micro-level version of Fig. 4(b) and the §6.3.2
//! speed-up claim — group attention's advantage over vanilla attention should widen with
//! the sequence length.
//!
//! The `attention_fused_fwd_bwd` group times the fused kernel's forward **and backward**
//! at the shape of one long-series training step (2 heads, `n × n` vanilla and `n × 64`
//! group), on `flat` inputs (unit-variance queries and keys, every probability within
//! a few e-folds of the others) and on `peaked` ones (the same draws scaled so each
//! row's `lse` is ≈ 100 and most keys sit more than 87 below it — what trained
//! attention looks like). The kernel does the same arithmetic on both, so the two rows
//! of a variant differ only if its speed depends on the values it is given.
//!
//! Besides the human-readable table on stdout, the run writes every measurement to
//! `BENCH_attention.json` (config, n, mean, min per variant) so the perf trajectory
//! tracked in `CHANGES.md` is diffable across PRs. `RITA_QUICK=1` shrinks the sweep to
//! seconds-scale smoke sizes (CI runs it on every push and uploads the JSON artifact).

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::SeedableRng;
use rita_core::attention::{
    Attention, AttentionKind, GroupAttention, GroupAttentionConfig, LinformerAttention,
    PerformerAttention, VanillaAttention,
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

fn bench_attention_forward(c: &mut Criterion) {
    let dh = 32;
    let mut group = c.benchmark_group("attention_forward");
    group.sample_size(if quick() { 3 } else { 10 });
    let ns: &[usize] = if quick() { &[64, 256] } else { &[256, 1024, 4096] };
    for &n in ns {
        let (q, k, v) = qkv(n, dh, 1);
        let groups = 16.min(n);
        group.bench_with_input(BenchmarkId::new("vanilla", n), &n, |b, _| {
            let mut attn = VanillaAttention::new();
            b.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
        group.bench_with_input(BenchmarkId::new("group", n), &n, |b, _| {
            let mut attn = GroupAttention::new(group_config(groups));
            b.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
        group.bench_with_input(BenchmarkId::new("performer", n), &n, |b, _| {
            let mut rng = SeedableRng64::seed_from_u64(2);
            let mut attn = PerformerAttention::new(dh, 32, &mut rng);
            b.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
        group.bench_with_input(BenchmarkId::new("linformer", n), &n, |b, _| {
            let mut rng = SeedableRng64::seed_from_u64(3);
            let mut attn = LinformerAttention::new(n, 32, &mut rng);
            b.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
    }
    group.finish();
    // Silence "unused" warnings for the kinds enum re-export used only at compile time.
    let _ = AttentionKind::Vanilla.name();
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

fn bench_attention_forward_multihead(c: &mut Criterion) {
    let (b, h, dh) = (4, 8, 32);
    let mut group = c.benchmark_group("attention_forward_b4h8");
    group.sample_size(if quick() { 3 } else { 10 });
    let ns: &[usize] = if quick() { &[64] } else { &[256, 1024] };
    for &n in ns {
        let (q, k, v) = qkv_multihead(b, h, n, dh, 1);
        let groups = 16.min(n);
        group.bench_with_input(BenchmarkId::new("vanilla", n), &n, |bch, _| {
            let mut attn = VanillaAttention::new();
            bch.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
        group.bench_with_input(BenchmarkId::new("group", n), &n, |bch, _| {
            let mut attn = GroupAttention::new(group_config(groups));
            bch.iter(|| no_grad(|| attn.forward(&q, &k, &v).to_array()));
        });
    }
    group.finish();
}

/// Multiplier on the `peaked` queries and keys: unit-variance scores become scores of
/// standard deviation 36, so a row's maximum over ≥ 64 keys — and with it `lse` — lands
/// near 100 and most other keys more than 87 below it.
const PEAK: f32 = 6.0;

fn bench_fused_forward_backward(c: &mut Criterion) {
    let (h, dh, n_groups) = (2, 32, 64);
    let scale = 1.0 / (dh as f32).sqrt();
    let mut group = c.benchmark_group("attention_fused_fwd_bwd");
    group.sample_size(if quick() { 3 } else { 10 });
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
            let mut run = |variant: &str, k: &NdArray, v: &NdArray, w: Option<&NdArray>| {
                let id = BenchmarkId::new(format!("{variant}_{inputs}"), n);
                group.bench_with_input(id, &n, |b, _| {
                    b.iter(|| {
                        let f = fused_attention(&q, k, v, scale, w).unwrap();
                        fused_attention_backward(&q, k, v, w, scale, &f.out, &f.lse, &g).unwrap()
                    });
                });
            };
            run("vanilla", &k, &v, None);
            run("group", &kg, &vg, Some(&counts));
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_attention_forward,
    bench_attention_forward_multihead,
    bench_fused_forward_backward
);

/// Human-readable config label for a benchmark group name.
fn config_label(group: &str) -> &'static str {
    match group {
        "attention_forward" => "b1 h1 dh32",
        "attention_forward_b4h8" => "b4 h8 dh32",
        "attention_fused_fwd_bwd" => "b1 h2 dh32 N64",
        _ => "unknown",
    }
}

/// Serialises the recorded measurements to `BENCH_attention.json` (no JSON dependency in
/// the workspace, so the writer is hand-rolled; every emitted value is a number or a
/// string without escapes).
fn write_json(records: &[criterion::BenchRecord]) -> std::io::Result<()> {
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
    for (i, r) in records.iter().enumerate() {
        let (variant, n) = r.name.split_once('/').unwrap_or((r.name.as_str(), "0"));
        let comma = if i + 1 < records.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"config\": \"{}\", \"variant\": \"{}\", \"n\": {}, \
             \"mean_ns\": {}, \"min_ns\": {}, \"samples\": {}}}{}",
            config_label(&r.group),
            variant,
            n,
            r.mean_ns,
            r.min_ns,
            r.samples,
            comma
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    println!("\nwrote {} ({} results)", path, records.len());
    Ok(())
}

fn main() {
    benches();
    let records = criterion::take_records();
    if let Err(e) = write_json(&records) {
        eprintln!("failed to write BENCH_attention.json: {e}");
        std::process::exit(1);
    }
}
