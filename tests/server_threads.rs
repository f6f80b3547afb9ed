//! A server runs on its worker threads alone: `Server::start` adds exactly `workers`
//! threads to the process, a worker panic restarts the drain loop on the thread that
//! crashed instead of spawning a replacement, and `shutdown` leaves no thread behind.
//!
//! Threads are counted in `/proc/self/task`, so this suite is Linux only. It holds a
//! single test so that no other test of this binary starts threads while it counts.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::Checkpoint;
use rita::core::model::RitaConfig;
use rita::core::tasks::Classifier;
use rita::infer::chaos::{self, ChaosConfig, Injection};
use rita::infer::{ModelRegistry, ServeError, Server, ServerConfig};
use rita::tensor::{NdArray, SeedableRng64};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs is mounted").count()
}

/// The thread count once it reaches `expected`, or whatever it reads after a second.
/// A joined thread can linger in `/proc/self/task` for a moment while the kernel
/// reaps it; a thread that should not exist at all never goes away.
fn settled_threads(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let n = threads();
        if n == expected || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_server_runs_exactly_its_workers_through_a_crash() {
    let _guard =
        chaos::inject(ChaosConfig { worker_panic: Injection::once(), ..Default::default() });
    let config = RitaConfig {
        channels: 2,
        max_len: 64,
        d_model: 16,
        n_layers: 1,
        ff_hidden: 32,
        dropout: 0.0,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: false },
        ..Default::default()
    };
    let mut rng = SeedableRng64::seed_from_u64(7);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .publish(&Checkpoint::of_classifier(&Classifier::new(config, 4, &mut rng), None))
        .unwrap();
    let request = NdArray::randn(&[2, 32], 1.0, &mut rng);

    let baseline = threads();
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 2,
            linger: Duration::from_millis(1),
            // A fixed throughput: no calibration probe runs.
            bytes_per_sec: Some(1e12),
            ..Default::default()
        },
    );
    assert_eq!(settled_threads(baseline + 2), baseline + 2, "an idle server runs its 2 workers");

    let err = server.classify("t", request.clone()).unwrap_err();
    assert!(matches!(err, ServeError::Internal { .. }), "the injected panic must fire: {err}");
    server.classify("t", request).unwrap();
    assert_eq!(server.metrics().snapshot().faults.worker_respawns, 1);
    assert_eq!(
        settled_threads(baseline + 2),
        baseline + 2,
        "a crashed worker resumes on its own thread"
    );

    server.shutdown();
    assert_eq!(settled_threads(baseline), baseline, "shutdown joins every thread");
}
