//! The serving-core contract: every answer the continuous-batching [`Server`] produces
//! is bit-identical to a single-call [`InferSession`] on the same checkpoint, under
//! forced multi-worker configurations, SLO-pressured early closes, admission-control
//! shedding, and concurrent hot-swaps.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rita::core::attention::AttentionKind;
use rita::core::checkpoint::{Checkpoint, TensorRecord};
use rita::core::model::RitaConfig;
use rita::core::tasks::Classifier;
use rita::infer::{
    InferModel, InferSession, ModelRegistry, Precision, PublishError, RequestError, ServeError,
    Server, ServerConfig, ShedReason, TenantPolicy,
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

fn registry_with(seed: u64) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&checkpoint(seed)).unwrap();
    registry
}

fn mixed_requests(seed: u64, lengths: &[usize]) -> Vec<NdArray> {
    let mut rng = SeedableRng64::seed_from_u64(seed);
    lengths.iter().map(|&l| NdArray::randn(&[2, l], 1.0, &mut rng)).collect()
}

/// A fast-batching config: no calibration (explicit throughput), generous SLO, tiny
/// linger so tests never wait on the batching window.
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

/// The acceptance-criterion core, forced onto a given worker count: concurrent
/// mixed-length, mixed-tenant traffic through the server must reproduce the
/// single-call `InferSession` logits bit-for-bit, request by request.
fn assert_bit_parity_with_workers(workers: usize) {
    let ckpt = checkpoint(7);
    let session = InferSession::from_checkpoint(&ckpt).unwrap();
    let lengths = [24usize, 40, 64, 40, 24, 56, 64, 24, 40, 56, 64, 24, 40, 40, 56, 24];
    let requests = mixed_requests(11, &lengths);
    let expected: Vec<Vec<f32>> = requests
        .iter()
        .map(|r| {
            let logits = session.classify_logits(std::slice::from_ref(r)).unwrap();
            logits[0].as_slice().to_vec()
        })
        .collect();
    let classes: Vec<usize> = requests
        .iter()
        .map(|r| session.classify(std::slice::from_ref(r)).unwrap()[0].class)
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&ckpt).unwrap();
    let server = Server::start(registry, fast_config(workers));
    // Several client threads per tenant, each replaying the request set: batches form
    // from whatever mix is queued at close time, across tenants and lengths.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|client| {
                let server = &server;
                let requests = &requests;
                let expected = &expected;
                let classes = &classes;
                s.spawn(move || {
                    let tenant = if client % 2 == 0 { "tenant-a" } else { "tenant-b" };
                    for (i, r) in requests.iter().enumerate() {
                        let got = server.classify(tenant, r.clone()).unwrap();
                        assert_eq!(
                            got.logits.as_slice(),
                            expected[i].as_slice(),
                            "client {client} request {i}: served logits diverged from the \
                             single-call session"
                        );
                        assert_eq!(got.class, classes[i], "client {client} request {i} class");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let snap = server.metrics().snapshot();
    assert_eq!(snap.served(), (3 * lengths.len()) as u64);
    assert_eq!(snap.latency_us.count, (3 * lengths.len()) as u64);
    assert!(snap.batches >= 1);
    assert_eq!(snap.shed(), 0);
    server.shutdown();
}

#[test]
fn two_workers_serve_bit_identical_to_single_call_session() {
    assert_bit_parity_with_workers(2);
}

#[test]
fn four_workers_serve_bit_identical_to_single_call_session() {
    assert_bit_parity_with_workers(4);
}

#[test]
fn slo_pressure_closes_batches_early() {
    // A 10-second linger would hold a lone request half the test's life; the SLO slack
    // must close the batch instead, well inside the deadline.
    let config = ServerConfig {
        workers: 1,
        max_batch: 8,
        slo: Duration::from_millis(100),
        linger: Duration::from_secs(10),
        bytes_per_sec: Some(1e12),
        ..Default::default()
    };
    let server = Server::start(registry_with(3), config);
    let request = mixed_requests(5, &[48]).pop().unwrap();
    let start = Instant::now();
    let got = server.classify("solo", request).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(got.model_version, 1);
    assert!(
        elapsed < Duration::from_secs(5),
        "request waited {elapsed:?}: the SLO early close never fired"
    );
    let snap = server.metrics().snapshot();
    assert!(snap.early_closes >= 1, "no early close recorded: {snap:?}");
    server.shutdown();
}

#[test]
fn batches_fill_to_the_exact_latency_bound() {
    // A 2 s SLO at compute fraction 0.5 and 30 000 cost-model bytes/s is a 30 000-byte
    // compute slice. The serve cost of length-24 requests on this model admits exactly
    // 7 of them, so 7 queued at once (with a linger long enough never to fire) must be
    // served as one batch of 7 — no fewer.
    let config = ServerConfig {
        workers: 1,
        max_batch: 8,
        slo: Duration::from_secs(2),
        linger: Duration::from_secs(10),
        bytes_per_sec: Some(30_000.0),
        ..Default::default()
    };
    let registry = registry_with(3);
    let model = registry.current().unwrap().model;
    let (memory, groups) = (model.memory_model(), model.mean_groups().unwrap() as usize);
    assert!(memory.serve_bytes_for(7, 24, groups) <= 30_000);
    assert!(memory.serve_bytes_for(8, 24, groups) > 30_000);

    let server = Server::start(registry, config);
    let tickets: Vec<_> = mixed_requests(13, &[24; 7])
        .into_iter()
        .map(|r| server.submit("bound", r).unwrap())
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let snap = server.metrics().snapshot();
    assert_eq!((snap.batches, snap.batch_size.max), (1, 7), "{snap:?}");
    server.shutdown();
}

#[test]
fn pressured_batches_still_fill_to_the_exact_latency_bound() {
    // The same 7-request bound, reached with the queue held near its limit: six of a
    // bound of eight wait 150 ms before the seventh arrives. Queue depth does not
    // move the latency budget, so the seven are still served as one batch of 7, each
    // answer bit-equal to the single-call session.
    let config = ServerConfig {
        workers: 1,
        max_batch: 8,
        slo: Duration::from_secs(2),
        linger: Duration::from_secs(10),
        max_queue_depth: 8,
        bytes_per_sec: Some(30_000.0),
        ..Default::default()
    };
    let ckpt = checkpoint(3);
    let session = InferSession::from_checkpoint(&ckpt).unwrap();
    let requests = mixed_requests(13, &[24; 7]);
    let expected = session.classify_logits(&requests).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&ckpt).unwrap();

    let server = Server::start(registry, config);
    let mut tickets: Vec<_> =
        requests[..6].iter().map(|r| server.submit("pressed", r.clone()).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(server.queue_depth(), 6, "a batch closed under the bound");
    tickets.push(server.submit("pressed", requests[6].clone()).unwrap());
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t.wait().unwrap();
        assert_eq!(got.logits.as_slice(), expected[i].as_slice(), "request {i}");
    }
    let snap = server.metrics().snapshot();
    assert_eq!((snap.batches, snap.batch_size.max), (1, 7), "{snap:?}");
    server.shutdown();
}

#[test]
fn same_tenant_same_length_requests_are_served_fifo() {
    // One worker, batch size forced to 1: every batch is exactly the oldest queued
    // request, so completions must follow submission order. The check is
    // deadlock-free deterministic: when the *last* ticket resolves, every earlier
    // ticket must already hold its answer.
    let config = ServerConfig {
        workers: 1,
        max_batch: 1,
        slo: Duration::from_secs(5),
        linger: Duration::from_millis(1),
        bytes_per_sec: Some(1e12),
        ..Default::default()
    };
    let server = Server::start(registry_with(9), config);
    for round in 0..3 {
        let requests = mixed_requests(20 + round, &[32; 6]);
        let mut tickets: Vec<_> =
            requests.into_iter().map(|r| server.submit("fifo-tenant", r).unwrap()).collect();
        let last = tickets.pop().unwrap();
        last.wait().unwrap();
        for (i, t) in tickets.into_iter().enumerate() {
            assert!(
                t.try_wait().is_some(),
                "round {round}: request {i} unserved after a later submission completed"
            );
        }
    }
    server.shutdown();
}

#[test]
fn hot_swap_is_atomic_and_rollback_restores_old_answers() {
    let ckpt_v1 = checkpoint(41);
    let ckpt_v2 = checkpoint(42);
    let session_v1 = InferSession::from_checkpoint(&ckpt_v1).unwrap();
    let session_v2 = InferSession::from_checkpoint(&ckpt_v2).unwrap();
    let requests = mixed_requests(50, &[40, 64, 24, 40]);
    let expected: Vec<[Vec<f32>; 2]> = requests
        .iter()
        .map(|r| {
            let one = session_v1.classify_logits(std::slice::from_ref(r)).unwrap();
            let two = session_v2.classify_logits(std::slice::from_ref(r)).unwrap();
            [one[0].as_slice().to_vec(), two[0].as_slice().to_vec()]
        })
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&ckpt_v1).unwrap();
    let server = Server::start(Arc::clone(&registry), fast_config(2));
    // Every response must match the *exact* logits of the version it claims — a torn
    // swap (half-old half-new weights) would match neither.
    let check = |server: &Server, i: usize| -> u64 {
        let got = server.classify("swapper", requests[i].clone()).unwrap();
        let version = got.model_version;
        assert!((1..=2).contains(&version), "unknown version {version}");
        assert_eq!(
            got.logits.as_slice(),
            expected[i][(version - 1) as usize].as_slice(),
            "request {i}: logits do not match the claimed version {version}"
        );
        version
    };
    let wait_for_version = |server: &Server, want: u64| {
        // At most one in-flight batch can still run on the previously-snapshotted
        // version; after it drains every new batch must see the swap.
        for _ in 0..50 {
            if check(server, 0) == want {
                return;
            }
        }
        panic!("version {want} never became visible");
    };

    for i in 0..requests.len() {
        assert_eq!(check(&server, i), 1);
    }
    // Hot-swap under load: responses stay version-consistent while clients hammer.
    std::thread::scope(|s| {
        let server = &server;
        let check = &check;
        let n = requests.len();
        let worker = s.spawn(move || {
            for round in 0..30 {
                check(server, round % n);
            }
        });
        registry.publish(&ckpt_v2).unwrap();
        worker.join().unwrap();
    });
    wait_for_version(&server, 2);
    for i in 0..requests.len() {
        assert_eq!(check(&server, i), 2);
    }
    // Rollback repoints to v1 without reloading; served answers flip back bit-exactly.
    assert_eq!(registry.rollback(), Some(1));
    wait_for_version(&server, 1);
    for i in 0..requests.len() {
        assert_eq!(check(&server, i), 1);
    }
    assert!(server.metrics().snapshot().model_swaps >= 1);
    server.shutdown();
}

/// The mixed-precision rollout, observed from the serving tier: an f32 version and
/// its int8 canary serve side by side, a precision override at publish quantizes the
/// canary, and the metrics JSON names each served version's precision.
#[test]
fn mixed_precision_rollout_is_observable_in_metrics() {
    let ckpt = checkpoint(61);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&ckpt).unwrap();
    let server = Server::start(Arc::clone(&registry), fast_config(1));
    let requests = mixed_requests(62, &[40, 64]);
    assert_eq!(server.classify("mixed", requests[0].clone()).unwrap().model_version, 1);

    // Roll out the canary while serving: forcing Int8 publishes the same f32
    // checkpoint with its eligible weights quantized at load.
    let v2 = registry.publish_with(&ckpt, Precision::Int8).unwrap();
    assert_eq!(registry.get(v2).unwrap().model.precision(), Precision::Int8);
    assert!(registry.get(v2).unwrap().model.quantized_params() > 0);
    let mut served_v2 = false;
    for _ in 0..50 {
        if server.classify("mixed", requests[1].clone()).unwrap().model_version == v2 {
            served_v2 = true;
            break;
        }
    }
    assert!(served_v2, "the int8 canary never served a batch");

    let snap = server.metrics().snapshot();
    assert!(snap.versions.contains(&(1, "f32")), "got {:?}", snap.versions);
    assert!(snap.versions.contains(&(v2, "int8")), "got {:?}", snap.versions);
    assert!(
        snap.to_json().contains(r#""versions": {"1": "f32", "2": "int8"}"#),
        "per-version precision missing from metrics JSON:\n{}",
        snap.to_json()
    );
    server.shutdown();
}

/// A statically-rejected checkpoint can never become the active version: publish runs
/// the independent analyzer *before* the swap, refuses with the report attached,
/// archives nothing — and traffic in flight during the rejected publish keeps serving
/// the old version with bit-identical answers throughout.
#[test]
fn rejected_checkpoint_never_activates_while_traffic_continues() {
    let ckpt_v1 = checkpoint(91);
    let session_v1 = InferSession::from_checkpoint(&ckpt_v1).unwrap();
    let requests = mixed_requests(20, &[40, 64, 24]);
    let expected: Vec<Vec<f32>> = requests
        .iter()
        .map(|r| {
            session_v1.classify_logits(std::slice::from_ref(r)).unwrap()[0].as_slice().to_vec()
        })
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&ckpt_v1).unwrap();
    let server = Server::start(Arc::clone(&registry), fast_config(2));

    // A NaN dequantization scale: the records bind, so only the static analyzer can
    // refuse the version before it activates.
    let mut bad = checkpoint(92).quantize();
    let scales = bad
        .tensors
        .iter_mut()
        .find_map(|(_, t)| match t {
            TensorRecord::Int8 { scales, .. } => Some(scales),
            TensorRecord::F32(_) => None,
        })
        .expect("a quantized checkpoint has int8 records");
    scales[0] = f32::NAN;
    std::thread::scope(|s| {
        let server = &server;
        let requests = &requests;
        let expected = &expected;
        let worker = s.spawn(move || {
            for round in 0..40 {
                let i = round % requests.len();
                let got = server.classify("steady", requests[i].clone()).unwrap();
                assert_eq!(got.model_version, 1, "rejected checkpoint leaked into serving");
                assert_eq!(
                    got.logits.as_slice(),
                    expected[i].as_slice(),
                    "answers drifted during the rejected publish"
                );
            }
        });
        match registry.publish(&bad) {
            Err(PublishError::Rejected(report)) => {
                assert!(report.has_errors());
            }
            other => panic!("expected static rejection, got {other:?}"),
        }
        worker.join().unwrap();
    });
    assert_eq!(registry.current_version(), Some(1));
    assert_eq!(registry.versions(), vec![1], "a rejected checkpoint must not be archived");
    let got = server.classify("steady", requests[0].clone()).unwrap();
    assert_eq!(got.model_version, 1);
    assert_eq!(got.logits.as_slice(), expected[0].as_slice());
    server.shutdown();
}

#[test]
fn admission_control_sheds_with_typed_reasons() {
    // Token bucket: burst of 1, no refill — the second immediate submission sheds.
    let server = Server::start(registry_with(13), fast_config(1));
    server.set_tenant_policy(
        "metered",
        TenantPolicy { rate_per_sec: Some(0.0), burst: 1.0, max_queue_depth: 64 },
    );
    let reqs = mixed_requests(60, &[32, 32, 32]);
    let first = server.submit("metered", reqs[0].clone()).unwrap();
    match server.submit("metered", reqs[1].clone()) {
        Err(ServeError::Overloaded { tenant, reason, retry_after }) => {
            assert_eq!(tenant, "metered");
            assert_eq!(reason, ShedReason::RateLimited);
            // rate 0.0: no refill time is derivable, so no hint.
            assert_eq!(retry_after, None);
        }
        other => panic!("expected rate-limit shed, got {other:?}"),
    }
    // Re-setting the policy with a larger burst keeps the drained bucket drained: a
    // policy update never hands out a free burst.
    server.set_tenant_policy(
        "metered",
        TenantPolicy { rate_per_sec: Some(0.0), burst: 4.0, max_queue_depth: 64 },
    );
    match server.submit("metered", reqs[1].clone()) {
        Err(ServeError::Overloaded { reason, .. }) => assert_eq!(reason, ShedReason::RateLimited),
        other => panic!("expected the re-set tenant to stay drained, got {other:?}"),
    }
    // An unmetered tenant is unaffected.
    server.classify("open", reqs[2].clone()).unwrap();
    first.wait().unwrap();

    // Tenant queue slice of zero: shed before the global queue is even consulted.
    server.set_tenant_policy(
        "depthless",
        TenantPolicy { rate_per_sec: None, burst: 1.0, max_queue_depth: 0 },
    );
    match server.submit("depthless", reqs[0].clone()) {
        Err(ServeError::Overloaded { reason, .. }) => {
            assert_eq!(reason, ShedReason::TenantQueueFull)
        }
        other => panic!("expected tenant-depth shed, got {other:?}"),
    }
    let snap = server.metrics().snapshot();
    assert_eq!(snap.shed(), 3);
    let metered = snap.tenants.iter().find(|(n, _)| n == "metered").unwrap();
    assert_eq!((metered.1.accepted, metered.1.shed_rate), (1, 2));
    server.shutdown();

    // Global queue bound: a zero-depth server sheds everything as QueueFull.
    let config = ServerConfig { max_queue_depth: 0, ..fast_config(1) };
    let server = Server::start(registry_with(13), config);
    match server.submit("anyone", reqs[0].clone()) {
        Err(ServeError::Overloaded { reason, .. }) => assert_eq!(reason, ShedReason::QueueFull),
        other => panic!("expected global-queue shed, got {other:?}"),
    }
    assert_eq!(server.metrics().snapshot().shed_queue_full, 1);
    server.shutdown();
}

/// Satellite (PR 9): a rate-limit shed carries a `retry_after` hint derived from the
/// token bucket's refill rate, and the hint is surfaced in the metrics JSON.
#[test]
fn rate_limit_sheds_carry_retry_after_hints() {
    let server = Server::start(registry_with(13), fast_config(1));
    // 10 req/s sustained, burst 1: the second immediate submission sheds and the
    // bucket needs ~1/10 s to refill one token.
    server.set_tenant_policy(
        "hinted",
        TenantPolicy { rate_per_sec: Some(10.0), burst: 1.0, max_queue_depth: 64 },
    );
    let reqs = mixed_requests(77, &[32, 32]);
    let first = server.submit("hinted", reqs[0].clone()).unwrap();
    match server.submit("hinted", reqs[1].clone()) {
        Err(ServeError::Overloaded { reason, retry_after, .. }) => {
            assert_eq!(reason, ShedReason::RateLimited);
            let hint = retry_after.expect("a finite rate must yield a refill hint");
            assert!(
                hint > Duration::ZERO && hint <= Duration::from_millis(100),
                "hint {hint:?} outside one token's refill time at 10 req/s"
            );
        }
        other => panic!("expected rate-limit shed with hint, got {other:?}"),
    }
    first.wait().unwrap();
    let snap = server.metrics().snapshot();
    let hinted = snap.tenants.iter().find(|(n, _)| n == "hinted").unwrap();
    assert!(hinted.1.retry_after_us > 0, "hint gauge never recorded");
    assert!(snap.to_json().contains("\"retry_after_us\""), "hint missing from metrics JSON");
    server.shutdown();
}

/// Satellite (PR 9): regression for the `mean_groups()` fallback. A non-group
/// (vanilla-attention) checkpoint reports no groups; startup calibration used to
/// plug `usize::MAX` into the cost model's byte estimate, overflowing it. The
/// fallback must clamp to the memory model's window count and serve normally.
#[test]
fn vanilla_attention_calibrates_and_serves_without_group_counts() {
    let mut rng = SeedableRng64::seed_from_u64(71);
    let config = RitaConfig { attention: AttentionKind::Vanilla, ..test_config() };
    let ckpt = Checkpoint::of_classifier(&Classifier::new(config, 4, &mut rng), None);
    let session = InferSession::from_checkpoint(&ckpt).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&ckpt).unwrap();
    assert!(registry.current().unwrap().model.mean_groups().is_none(), "vanilla has no groups");

    // bytes_per_sec: None forces the probe-forward calibration that hit the bug.
    let server_config = ServerConfig {
        workers: 1,
        max_batch: 8,
        slo: Duration::from_secs(2),
        linger: Duration::from_millis(1),
        bytes_per_sec: None,
        ..Default::default()
    };
    let server = Server::start(registry, server_config);
    let requests = mixed_requests(72, &[32, 48, 64]);
    for r in &requests {
        let got = server.classify("vanilla", r.clone()).unwrap();
        let expected = session.classify_logits(std::slice::from_ref(r)).unwrap();
        assert_eq!(got.logits.as_slice(), expected[0].as_slice(), "calibration broke parity");
    }
    server.shutdown();
}

#[test]
fn invalid_requests_are_rejected_at_admission() {
    let server = Server::start(registry_with(17), fast_config(1));
    // NaN poisoning is caught before the request can join a batch.
    let mut poisoned = vec![0.5f32; 2 * 32];
    poisoned[17] = f32::NAN;
    let nan_req = NdArray::from_vec(poisoned, &[2, 32]).unwrap();
    match server.submit("t", nan_req) {
        Err(ServeError::Invalid(RequestError::NonFinite { index: 0 })) => {}
        other => panic!("expected NonFinite rejection, got {other:?}"),
    }
    let inf_req = NdArray::full(&[2, 32], f32::INFINITY);
    assert!(matches!(
        server.submit("t", inf_req),
        Err(ServeError::Invalid(RequestError::NonFinite { .. }))
    ));
    // Shape and length validation run at admission too.
    let short = NdArray::full(&[2, 1], 0.0);
    assert!(matches!(
        server.submit("t", short),
        Err(ServeError::Invalid(RequestError::BadLength { .. }))
    ));
    let wrong_rank = NdArray::full(&[2, 4, 8], 0.0);
    assert!(matches!(
        server.submit("t", wrong_rank),
        Err(ServeError::Invalid(RequestError::BadRank { .. }))
    ));
    let snap = server.metrics().snapshot();
    let t = snap.tenants.iter().find(|(n, _)| n == "t").unwrap();
    assert_eq!(t.1.invalid, 4, "every validation rejection counts against the tenant");
    server.shutdown();
}

#[test]
fn serving_an_empty_registry_reports_no_model() {
    let server = Server::start(Arc::new(ModelRegistry::new()), fast_config(1));
    let req = mixed_requests(1, &[32]).pop().unwrap();
    assert_eq!(server.submit("t", req.clone()).err(), Some(ServeError::NoModel));
    // After the first publish the same server starts serving.
    server.registry().publish(&checkpoint(23)).unwrap();
    assert!(server.classify("t", req).is_ok());
    server.shutdown();
}

#[test]
fn batch_invariance_is_bitwise() {
    // The property the whole serving core leans on: the tape-free forward gives every
    // request the same logits regardless of which batch it rides in.
    let ckpt = checkpoint(3);
    let model = InferModel::from_checkpoint(&ckpt).unwrap();
    let session = InferSession::from_checkpoint(&ckpt).unwrap();
    let lengths = [24usize, 40, 56, 64, 40, 24, 64, 56, 40, 40, 24, 64];
    let requests = mixed_requests(33, &lengths);

    let singles: Vec<Vec<f32>> = requests
        .iter()
        .map(|r| {
            let batch = NdArray::stack(&[r]).unwrap();
            model.logits(&batch).as_slice().to_vec()
        })
        .collect();

    // Through the session's bucketed mixed batches.
    let via_session = session.classify_logits(&requests).unwrap();
    for (i, (one, many)) in singles.iter().zip(&via_session).enumerate() {
        assert_eq!(one.as_slice(), many.as_slice(), "request {i} diverged");
    }

    // And through a hand-built batch of arbitrary size and order.
    let batch = NdArray::stack(&[&requests[1], &requests[4], &requests[8], &requests[9]]).unwrap();
    let logits = model.logits(&batch);
    for (row, req) in [1usize, 4, 8, 9].iter().enumerate() {
        let got = logits.index_axis(0, row).unwrap().materialize();
        assert_eq!(got.as_slice(), singles[*req].as_slice(), "row {row} (request {req}) diverged");
    }
}

#[test]
fn shutdown_drains_every_admitted_request() {
    let server = Server::start(registry_with(29), fast_config(2));
    let requests = mixed_requests(70, &[32; 10]);
    let tickets: Vec<_> =
        requests.into_iter().map(|r| server.submit("drain", r).unwrap()).collect();
    let answers = Arc::new(Mutex::new(0usize));
    std::thread::scope(|s| {
        for t in tickets {
            let answers = Arc::clone(&answers);
            s.spawn(move || {
                t.wait().unwrap();
                *answers.lock().unwrap() += 1;
            });
        }
        server.shutdown();
    });
    assert_eq!(*answers.lock().unwrap(), 10, "shutdown dropped admitted requests");
}

/// Regression for a lost wake-up: `shutdown` used to set its flag and notify without
/// holding the queue lock, so a worker between its `shutdown` check and its condvar
/// wait in `next_batch` never woke and `shutdown` hung joining the workers. Workers
/// are racing towards exactly that window right after `start`; a watchdog turns a
/// hang into a failure instead of a stuck test run.
#[test]
fn immediate_shutdown_after_start_never_hangs() {
    let registry = registry_with(31);
    let (done, finished) = std::sync::mpsc::channel();
    let cycles = std::thread::spawn(move || {
        for _ in 0..500 {
            Server::start(Arc::clone(&registry), fast_config(2)).shutdown();
        }
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("Server::start → shutdown hung: a worker missed the shutdown wake-up");
    cycles.join().unwrap();
}

/// The plan cache composes with hot-swap: each loaded model version keeps its own
/// compiled plans, so publish/activate/rollback with plans cached mid-flight never
/// mixes versions — every response's logits are bit-identical to the single-call
/// session of the version it stamps — and rollback repoints to the *same* loaded v1
/// (warm plan cache included) instead of reloading and recompiling.
#[test]
fn cached_plans_survive_hot_swap_and_rollback() {
    let ckpt_v1 = checkpoint(61);
    let ckpt_v2 = checkpoint(62);
    let session_v1 = InferSession::from_checkpoint(&ckpt_v1).unwrap();
    let session_v2 = InferSession::from_checkpoint(&ckpt_v2).unwrap();
    let requests = mixed_requests(70, &[24, 40, 24, 64, 40, 24]);
    let expected: Vec<[Vec<f32>; 2]> = requests
        .iter()
        .map(|r| {
            let one = session_v1.classify_logits(std::slice::from_ref(r)).unwrap();
            let two = session_v2.classify_logits(std::slice::from_ref(r)).unwrap();
            [one[0].as_slice().to_vec(), two[0].as_slice().to_vec()]
        })
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(&ckpt_v1).unwrap();
    let server = Server::start(Arc::clone(&registry), fast_config(2));
    let check = |i: usize| -> u64 {
        let got = server.classify("cache-tenant", requests[i].clone()).unwrap();
        let version = got.model_version;
        assert!((1..=2).contains(&version), "unknown version {version}");
        assert_eq!(
            got.logits.as_slice(),
            expected[i][(version - 1) as usize].as_slice(),
            "request {i}: logits do not match the claimed version {version}"
        );
        version
    };
    let wait_for_version = |want: u64| {
        for _ in 0..50 {
            if check(0) == want {
                return;
            }
        }
        panic!("version {want} never became visible");
    };

    // Warm v1's plan cache across every (batch, length) bucket in the traffic.
    for i in 0..requests.len() {
        assert_eq!(check(i), 1);
    }
    let v1 = registry.get(1).unwrap();
    let warmed = v1.model.cached_plans();
    assert!(warmed >= 3, "expected a compiled plan per length bucket, got {warmed}");

    // Swap to v2 while v1's plans sit in its cache: answers flip to v2's bits, v2
    // compiles its own plans, v1's cache is untouched.
    registry.publish(&ckpt_v2).unwrap();
    wait_for_version(2);
    for i in 0..requests.len() {
        assert_eq!(check(i), 2);
    }
    let v2 = registry.get(2).unwrap();
    assert!(v2.model.cached_plans() >= 3, "v2 never compiled its own plans");
    assert_eq!(v1.model.cached_plans(), warmed, "the swap disturbed v1's plan cache");

    // Rollback repoints to the same loaded model — Arc-identical, plan cache warm —
    // and the served bits flip back to v1's for the version each response stamps.
    assert_eq!(registry.rollback(), Some(1));
    wait_for_version(1);
    for i in 0..requests.len() {
        assert_eq!(check(i), 1);
    }
    let current = registry.current().unwrap();
    assert!(Arc::ptr_eq(&current.model, &v1.model), "rollback reloaded the model");
    assert_eq!(
        v1.model.cached_plans(),
        warmed,
        "served traffic after rollback should hit the warm plan cache, not recompile"
    );
    server.shutdown();
}
