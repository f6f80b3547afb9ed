//! Serving demo: train a small classifier, persist it, then run the **continuous-
//! batching serving core** over it — a versioned model registry, a multi-tenant
//! `Server` with admission control and SLO-aware batching, a mid-traffic hot-swap to
//! a retrained checkpoint (and a rollback), a mixed-precision rollout (quantize the
//! live weights to int8, shift traffic, roll back to f32), and a metrics snapshot at
//! the end.
//!
//! Run with: `cargo run --release --example serve`
//! (set `RITA_QUICK=1` for a seconds-scale smoke run, as CI does)

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::Checkpoint;
use rita::core::model::RitaConfig;
use rita::core::tasks::{timed, Classifier, TrainConfig};
use rita::data::{DatasetKind, TimeseriesDataset};
use rita::infer::{ModelRegistry, ServeError, Server, ServerConfig, TenantPolicy};
use rita::tensor::{NdArray, SeedableRng64};

fn main() {
    let quick = std::env::var_os("RITA_QUICK").is_some();
    let (n_train, n_requests, epochs) = if quick { (16, 48, 1) } else { (80, 400, 3) };
    let mut rng = SeedableRng64::seed_from_u64(0);

    // 1. Train a classifier (group attention, adaptive scheduler) and persist it.
    let data = TimeseriesDataset::generate_reduced(DatasetKind::Hhar, n_train, 0, 120, &mut rng);
    let config = RitaConfig {
        channels: 3,
        max_len: 120,
        d_model: 32,
        n_layers: 2,
        ff_hidden: 64,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 8, adaptive: true },
        ..Default::default()
    };
    let mut classifier = Classifier::new(config, 5, &mut rng);
    let train_cfg = TrainConfig { epochs, batch_size: 8, lr: 1e-3, ..Default::default() };
    let report = classifier.train(&data, &train_cfg, &mut rng);
    println!("trained {} epochs, final loss {:.4}", report.epochs.len(), report.final_loss());

    let ckpt_path = std::env::temp_dir().join("rita-serve.ckpt");
    Checkpoint::of_classifier(&classifier, None).save(&ckpt_path).expect("save checkpoint");
    let size = std::fs::metadata(&ckpt_path).map(|m| m.len()).unwrap_or(0);
    println!("checkpoint written: {} ({size} bytes)", ckpt_path.display());

    // 2. "Fresh process": publish the checkpoint into a registry and start the server.
    let ckpt = Checkpoint::load(&ckpt_path).expect("load checkpoint");
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry.publish(&ckpt).expect("publish v1");
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 2,
            max_batch: 6,
            slo: Duration::from_millis(50),
            linger: Duration::from_micros(200),
            ..Default::default()
        },
    );
    println!(
        "serving {} checkpoint version {v1} ({} tenants' traffic incoming)",
        ckpt.config.attention.name(),
        3
    );
    // One tenant is rate-limited hard so admission control has something to shed.
    server.set_tenant_policy(
        "metered",
        TenantPolicy { rate_per_sec: Some(20.0), burst: 4.0, max_queue_depth: 32 },
    );

    // 3. Multi-tenant mixed-length traffic from concurrent client threads, with a
    //    hot-swap to a retrained checkpoint mid-stream and a rollback after it.
    let lengths = [60usize, 90, 120];
    let requests: Vec<NdArray> = (0..n_requests)
        .map(|i| {
            let len = lengths[i % lengths.len()];
            rita::data::generators::har(
                rita::data::generators::HarFlavour::Hhar,
                i % 5,
                3,
                len,
                &mut rng,
            )
        })
        .collect();

    let retrained_ckpt = {
        // Brief fine-tune: the v2 weights the hot-swap publishes while traffic flows.
        let mut rng = SeedableRng64::seed_from_u64(1);
        let more = TrainConfig { epochs: 1, batch_size: 8, lr: 5e-4, ..Default::default() };
        classifier.train(&data, &more, &mut rng);
        Checkpoint::of_classifier(&classifier, None)
    };

    let (outcome, seconds) = timed(|| {
        std::thread::scope(|s| {
            let server = &server;
            let requests = &requests;
            let clients: Vec<_> = (0..3)
                .map(|c| {
                    s.spawn(move || {
                        let tenant = ["tenant-a", "tenant-b", "metered"][c];
                        let (mut served, mut shed, mut versions) = (0usize, 0usize, [0usize; 2]);
                        // Contiguous chunk per client: every client walks the same
                        // length cycle out of phase, so concurrent requests overlap in
                        // length and the batcher gets buckets to fill.
                        let chunk = requests.len().div_ceil(3);
                        for r in requests.iter().skip(c * chunk).take(chunk) {
                            match server.classify(tenant, r.clone()) {
                                Ok(resp) => {
                                    served += 1;
                                    versions[(resp.model_version as usize - 1).min(1)] += 1;
                                }
                                Err(ServeError::Overloaded { .. }) => shed += 1,
                                Err(e) => panic!("unexpected serve error: {e}"),
                            }
                        }
                        (served, shed, versions)
                    })
                })
                .collect();
            // Mid-traffic: publish the retrained weights (atomic per batch), then roll
            // back — in-flight batches always finish on the version they snapshotted.
            std::thread::sleep(Duration::from_millis(if quick { 4 } else { 100 }));
            let v2 = registry.publish(&retrained_ckpt).expect("publish v2");
            std::thread::sleep(Duration::from_millis(if quick { 4 } else { 100 }));
            let back = registry.rollback().expect("rollback to v1");
            println!("hot-swapped to version {v2}, then rolled back to version {back}");
            clients.into_iter().map(|c| c.join().expect("client")).collect::<Vec<_>>()
        })
    });

    let served: usize = outcome.iter().map(|(s, _, _)| s).sum();
    let shed: usize = outcome.iter().map(|(_, d, _)| d).sum();
    let v1_served: usize = outcome.iter().map(|(_, _, v)| v[0]).sum();
    let v2_served: usize = outcome.iter().map(|(_, _, v)| v[1]).sum();
    println!(
        "served {served} requests in {:.1} ms ({:.0} requests/s): {v1_served} on v1, \
         {v2_served} on v2, {shed} shed by admission control",
        seconds * 1e3,
        served as f64 / seconds.max(1e-9),
    );

    // 4. Fault drill: inject one worker panic mid-stream. The crashed batch fails
    //    with a typed error instead of hanging its clients, the worker counts the
    //    crash and restarts on its own thread, and traffic continues on the same
    //    weights.
    {
        use rita::infer::chaos::{self, ChaosConfig, Injection};
        let _chaos =
            chaos::inject(ChaosConfig { worker_panic: Injection::once(), ..Default::default() });
        let drill = if quick { 12 } else { 60 };
        let (mut ok, mut crashed) = (0usize, 0usize);
        for r in requests.iter().take(drill) {
            match server.classify("tenant-a", r.clone()) {
                Ok(_) => ok += 1,
                Err(ServeError::Internal { .. }) => crashed += 1,
                Err(e) => panic!("unexpected serve error during the fault drill: {e}"),
            }
        }
        let faults = server.metrics().snapshot().faults;
        println!(
            "fault drill: {crashed} request(s) failed on an injected worker panic, {ok} served \
             through recovery ({} panic(s) caught, {} worker respawn(s) so far)",
            faults.worker_panics, faults.worker_respawns
        );
        assert!(crashed >= 1, "the injected panic never fired");
        assert!(ok >= drill - 2, "recovery lost more than the crashed batch");
    }

    // 5. Mixed-precision rollout: quantize the live f32 weights offline (the same
    //    `Checkpoint::quantize` pass a deployment runs), publish the int8 artifact as
    //    a new version — the registry binds it straight to the quantized kernels, and
    //    the publish path verifies its scales before activation — shift traffic onto
    //    it, then roll back to f32. Every step is observable: the metrics snapshot
    //    names each version's precision.
    {
        let quantized = ckpt.quantize();
        let v_int8 = registry.publish(&quantized).expect("publish quantized checkpoint");
        let current = registry.current().expect("serving version");
        println!(
            "published version {v_int8} ({}, {} int8 params) over the {} f32 baseline",
            current.model.precision().as_str(),
            current.model.quantized_params(),
            ckpt.config.attention.name(),
        );
        let rollout = if quick { 12 } else { 60 };
        let mut on_int8 = 0usize;
        let ((), secs) = timed(|| {
            for r in requests.iter().take(rollout) {
                let resp = server.classify("tenant-b", r.clone()).expect("serve quantized");
                if resp.model_version == v_int8 {
                    on_int8 += 1;
                }
            }
        });
        assert!(on_int8 > 0, "traffic never reached the quantized version");
        let snap = server.metrics().snapshot();
        let precisions: Vec<String> =
            snap.versions.iter().map(|(v, p)| format!("v{v}={p}")).collect();
        println!(
            "rollout: {on_int8}/{rollout} requests answered by v{v_int8} at {:.0} requests/s \
             (served precisions: {})",
            on_int8 as f64 / secs.max(1e-9),
            precisions.join(", "),
        );
        let back = registry.rollback().expect("rollback to f32");
        let restored = registry.current().expect("serving version");
        println!(
            "rolled back to version {back} ({}) — the precision swap is reversible mid-traffic",
            restored.model.precision().as_str(),
        );
    }

    let snap = server.metrics().snapshot();
    println!(
        "batches: {} (mean size {:.1}, {} early closes), latency p50 {}us p99 {}us",
        snap.batches,
        snap.batch_size.mean,
        snap.early_closes,
        snap.latency_us.p50,
        snap.latency_us.p99
    );
    println!("metrics snapshot: {}", snap.to_json());
    server.shutdown();
    let _ = std::fs::remove_file(&ckpt_path);
}
