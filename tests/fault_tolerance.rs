//! The fault-tolerance contract, pinned by deterministic chaos injection
//! (`rita::infer::chaos`): across every injected fault class — worker panics, slow
//! batches, poisoned logits, corrupted checkpoint publishes — no admitted request is
//! ever lost or answered twice, every *successful* answer stays bit-identical to the
//! single-call [`InferSession`], and the serving tier restores full throughput once
//! the fault clears.
//!
//! Each test arms its own [`ChaosGuard`]; the guard holds a process-wide lock, so the
//! tests serialize rather than cross-contaminate each other's fault schedules.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::{Checkpoint, CheckpointError};
use rita::core::model::RitaConfig;
use rita::core::tasks::Classifier;
use rita::infer::chaos::{self, ChaosConfig, Injection};
use rita::infer::{
    BreakerPolicy, InferSession, ModelRegistry, PublishError, ServeError, Server, ServerConfig,
};
use rita::tensor::{NdArray, SeedableRng64};

fn test_config() -> RitaConfig {
    RitaConfig {
        channels: 2,
        max_len: 64,
        d_model: 16,
        n_layers: 1,
        ff_hidden: 32,
        dropout: 0.0,
        attention: AttentionKind::Group { epsilon: 2.0, initial_groups: 4, adaptive: false },
        ..Default::default()
    }
}

fn checkpoint(seed: u64) -> Checkpoint {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    Checkpoint::of_classifier(&Classifier::new(test_config(), 4, &mut rng), None)
}

fn mixed_requests(seed: u64, lengths: &[usize]) -> Vec<NdArray> {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    lengths.iter().map(|&l| NdArray::randn(&[2, l], 1.0, &mut rng)).collect()
}

/// No calibration probe (explicit throughput), tiny linger: the chaos schedules
/// below count *served* batches only, deterministically.
fn fast_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        max_batch: 8,
        slo: Duration::from_secs(2),
        linger: Duration::from_millis(1),
        bytes_per_sec: Some(1e12),
        ..Default::default()
    }
}

fn expected_logits(ckpt: &Checkpoint, requests: &[NdArray]) -> Vec<Vec<f32>> {
    let session = InferSession::from_checkpoint(ckpt).unwrap();
    requests
        .iter()
        .map(|r| session.classify_logits(std::slice::from_ref(r)).unwrap()[0].as_slice().to_vec())
        .collect()
}

fn tmp_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Worker panics must cost exactly the in-flight batch — a typed `Internal` error per
/// request, never a hung ticket — and every crashed worker must restart, restoring
/// full throughput once the schedule is exhausted.
#[test]
fn worker_panic_storm_loses_no_requests_and_recovers() {
    let _guard = chaos::inject(ChaosConfig {
        // Kill every third batch, three times.
        worker_panic: Injection { every: 3, limit: 3 },
        ..Default::default()
    });
    let ckpt = checkpoint(7);
    let requests = mixed_requests(11, &[24, 40, 56, 24, 40, 56]);
    let expected = expected_logits(&ckpt, &requests);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&ckpt).unwrap();
    let mut config = fast_config(2);
    // This test is about isolation + restart; keep the breaker out of the way.
    config.breaker = BreakerPolicy { threshold: 0, ..Default::default() };
    let server = Server::start(registry, config);

    // Sequential client: each request is its own batch, so the schedule fires on
    // requests 3, 6 and 9 exactly.
    let mut failed_at = Vec::new();
    for round in 0..5 {
        for (i, r) in requests.iter().enumerate() {
            let n = round * requests.len() + i;
            match server.classify("storm", r.clone()) {
                Ok(got) => assert_eq!(
                    got.logits.as_slice(),
                    expected[i].as_slice(),
                    "request {n}: success diverged from the single-call session"
                ),
                Err(ServeError::Internal { detail }) => {
                    assert!(
                        detail.contains("crashed"),
                        "request {n}: unexpected internal detail {detail:?}"
                    );
                    failed_at.push(n);
                }
                Err(e) => panic!("request {n}: unexpected error {e}"),
            }
        }
    }
    assert_eq!(failed_at, vec![2, 5, 8], "the fault schedule is deterministic");
    assert_eq!(chaos::stats().worker_panics, 3);

    // A crash is counted before its tickets are answered: nothing to wait for.
    let f = server.metrics().snapshot().faults;
    assert_eq!((f.worker_panics, f.worker_respawns), (3, 3), "{f:?}");

    // Conservation: every admitted request was answered exactly once, as either a
    // success or a typed failure.
    let snap = server.metrics().snapshot();
    let (accepted, served, failed) = snap
        .tenants
        .iter()
        .map(|(_, t)| (t.accepted, t.served, t.failed))
        .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    assert_eq!(accepted, 30);
    assert_eq!(failed, 3);
    assert_eq!(served + failed, accepted, "requests lost or double-answered");
    assert_eq!(snap.faults.internal_errors, 3);
    server.shutdown();
}

/// Recurring crashes trip the breaker open: submissions reject fast with a
/// `retry_after` hint instead of feeding a crash loop, and a surviving half-open
/// probe closes it again.
#[test]
fn breaker_opens_on_crash_loop_and_closes_after_probe() {
    let _guard =
        chaos::inject(ChaosConfig { worker_panic: Injection::times(2), ..Default::default() });
    let ckpt = checkpoint(7);
    let requests = mixed_requests(13, &[32, 32, 32, 32]);
    let expected = expected_logits(&ckpt, &requests);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&ckpt).unwrap();
    let mut config = fast_config(1);
    config.breaker = BreakerPolicy {
        threshold: 2,
        window: Duration::from_secs(10),
        cooldown: Duration::from_millis(100),
        max_cooldown: Duration::from_secs(1),
        probes: 1,
    };
    let server = Server::start(registry, config);

    // The first two batches crash.
    for n in 0..2 {
        let err = server.classify("loop", requests[0].clone()).unwrap_err();
        assert!(matches!(err, ServeError::Internal { .. }), "crash {n}: got {err}");
    }

    // The second crash tripped the breaker before its ticket was answered, so the
    // very next submission is rejected at admission.
    let retry_after = match server.submit("loop", requests[0].clone()) {
        Err(ServeError::Unavailable { retry_after }) => retry_after,
        other => panic!("expected the open breaker to reject, got {other:?}"),
    };
    assert!(retry_after > Duration::ZERO && retry_after <= Duration::from_millis(100));

    // Past the cooldown a probe is admitted; the fault schedule is exhausted, so it
    // survives and closes the breaker for good.
    std::thread::sleep(Duration::from_millis(120));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match server.classify("loop", requests[1].clone()) {
            Ok(got) => {
                assert_eq!(got.logits.as_slice(), expected[1].as_slice());
                break;
            }
            Err(ServeError::Unavailable { .. }) => {
                assert!(Instant::now() < deadline, "breaker never let a probe through");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("probe failed with {e}"),
        }
    }
    for (i, r) in requests.iter().enumerate() {
        let got = server.classify("loop", r.clone()).unwrap();
        assert_eq!(got.logits.as_slice(), expected[i].as_slice(), "post-recovery request {i}");
    }

    let f = server.metrics().snapshot().faults;
    assert!(f.breaker_opens >= 1, "no breaker trip recorded: {f:?}");
    assert!(f.breaker_rejections >= 1);
    assert!(f.last_retry_after_us > 0);
    assert_eq!(f.worker_panics, 2);
    server.shutdown();
}

/// A corrupted checkpoint must be rejected at publish by the CRC trailer — the
/// registry keeps serving the pinned last-good version, bit-identically.
#[test]
fn corrupt_publish_is_rejected_and_traffic_stays_on_last_good() {
    let _guard =
        chaos::inject(ChaosConfig { corrupt_publish: Injection::once(), ..Default::default() });
    let v1 = checkpoint(7);
    let v2 = checkpoint(13);
    let requests = mixed_requests(17, &[24, 48]);
    let expected_v1 = expected_logits(&v1, &requests);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&v1).unwrap();
    let server = Server::start(Arc::clone(&registry), fast_config(1));

    let path = tmp_path("chaos_publish.rita");
    v2.save(&path).unwrap();

    // First publish attempt: chaos flips one mid-file byte of the bytes read back.
    let err = registry.publish_path(&path).unwrap_err();
    assert!(
        matches!(err, PublishError::Checkpoint(CheckpointError::ChecksumMismatch { .. })),
        "corruption must surface as a checksum mismatch, got {err}"
    );
    assert_eq!(chaos::stats().corrupted_publishes, 1);
    assert_eq!(registry.current_version(), Some(1), "failed publish must not move traffic");
    assert_eq!(registry.last_good(), Some(1));
    assert_eq!(registry.versions(), vec![1]);

    // Traffic rides out the failed publish on the last-good version.
    for (i, r) in requests.iter().enumerate() {
        let got = server.classify("pub", r.clone()).unwrap();
        assert_eq!(got.model_version, 1);
        assert_eq!(got.logits.as_slice(), expected_v1[i].as_slice(), "request {i}");
    }

    // Belt and braces beyond the chaos point: a handful of direct single-byte flips
    // across the file must all be rejected the same way (the exhaustive any-byte
    // sweep lives in the checkpoint unit tests).
    let clean = v2.to_bytes();
    for site in (0..clean.len()).step_by((clean.len() / 5).max(1)) {
        let mut corrupted = clean.clone();
        assert!(rita::verify::flip_byte(&mut corrupted, site));
        std::fs::write(&path, &corrupted).unwrap();
        // Early flips land in the magic/header and fail structurally; everything
        // else is caught by the CRC trailer. Either way publish must refuse.
        let err = registry.publish_path(&path).unwrap_err();
        assert!(
            matches!(err, PublishError::Checkpoint(_)),
            "flipped byte {site} slipped past publish: {err}"
        );
        assert_eq!(registry.current_version(), Some(1));
    }

    // The schedule is exhausted: the same file now publishes cleanly and serves.
    std::fs::write(&path, &clean).unwrap();
    assert_eq!(registry.publish_path(&path).unwrap(), 2);
    assert_eq!(registry.current_version(), Some(2));
    let expected_v2 = expected_logits(&v2, &requests);
    let got = server.classify("pub", requests[0].clone()).unwrap();
    assert_eq!(got.model_version, 2);
    assert_eq!(got.logits.as_slice(), expected_v2[0].as_slice());
    server.shutdown();
}

/// Non-finite logits quarantine the serving version and roll traffic back to the
/// exact pinned last-good checkpoint, automatically.
#[test]
fn poisoned_logits_roll_back_to_exact_last_good_version() {
    let _guard =
        chaos::inject(ChaosConfig { poison_logits: Injection::once(), ..Default::default() });
    let v1 = checkpoint(7);
    let v2 = checkpoint(13);
    let requests = mixed_requests(19, &[24, 40, 56]);
    let expected_v1 = expected_logits(&v1, &requests);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&v1).unwrap();
    registry.publish(&v2).unwrap();
    assert_eq!(registry.current_version(), Some(2));
    let server = Server::start(Arc::clone(&registry), fast_config(1));

    // The poisoned batch fails with a typed error — NaN is never served...
    let err = server.classify("poison", requests[0].clone()).unwrap_err();
    match err {
        ServeError::Internal { detail } => {
            assert!(detail.contains("non-finite"), "got {detail:?}")
        }
        e => panic!("expected an internal fault, got {e}"),
    }
    // ...and the faulty version is quarantined with traffic back on last-good v1.
    assert_eq!(registry.current_version(), Some(1), "no rollback happened");
    assert_eq!(registry.last_good(), Some(1));
    assert!(registry.is_quarantined(2));

    for (i, r) in requests.iter().enumerate() {
        let got = server.classify("poison", r.clone()).unwrap();
        assert_eq!(got.model_version, 1, "request {i} not on the rolled-back version");
        assert_eq!(got.logits.as_slice(), expected_v1[i].as_slice(), "request {i}");
    }
    let f = server.metrics().snapshot().faults;
    assert!(f.model_faults >= 1);
    assert!(f.rollbacks >= 1);
    server.shutdown();
}

/// A request past its hard deadline is cancelled with a typed error, never served
/// stale — whether it expires in the queue or inside a slow batch.
#[test]
fn hard_deadlines_cancel_rather_than_serve_stale() {
    let _guard = chaos::inject(ChaosConfig {
        slow_batch: Injection::once(),
        slow_batch_delay: Duration::from_millis(120),
        ..Default::default()
    });
    let ckpt = checkpoint(7);
    let requests = mixed_requests(23, &[32, 48]);
    let expected = expected_logits(&ckpt, &requests);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&ckpt).unwrap();
    let server = Server::start(registry, fast_config(1));

    // Expires inside the injected 120ms stall: caught by the post-compute check.
    let err = server
        .submit_with_deadline("slo", requests[0].clone(), Duration::from_millis(40))
        .unwrap()
        .wait()
        .unwrap_err();
    match err {
        ServeError::DeadlineExceeded { late_by } => assert!(late_by > Duration::ZERO),
        e => panic!("expected a deadline cancellation, got {e}"),
    }

    // Already expired at admission: swept before ever reaching a batch.
    let err = server
        .submit_with_deadline("slo", requests[0].clone(), Duration::ZERO)
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "got {err}");

    // With the stall over, generous deadlines are met and answers are exact.
    for (i, r) in requests.iter().enumerate() {
        let got =
            server.submit_with_deadline("slo", r.clone(), Duration::from_secs(5)).unwrap().wait();
        assert_eq!(got.unwrap().logits.as_slice(), expected[i].as_slice(), "request {i}");
    }
    let snap = server.metrics().snapshot();
    assert_eq!(snap.faults.deadline_expired, 2);
    assert_eq!(chaos::stats().slow_batches, 1);
    server.shutdown();
}
