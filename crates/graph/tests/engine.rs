//! Concurrency contract of the Engine/Session API: interleaved sessions
//! serialize through the shared executor and stay bit-identical to the
//! same passes run serially from a single thread.

use deep500_graph::models::{self, feed_refs as as_refs};
use deep500_graph::{Engine, ExecutorKind};
use deep500_tensor::Tensor;
use std::collections::HashMap;

const FEATURES: usize = 10;
const TENANTS: usize = 4;
const PASSES: usize = 6;

fn feeds(tenant: usize, pass: usize) -> Vec<(String, Tensor)> {
    let batch = 1 + (tenant + pass) % 3;
    let x: Vec<f32> = (0..batch * FEATURES)
        .map(|j| ((tenant * 131 + pass * 17 + j) as f32 * 0.23).cos())
        .collect();
    let labels: Vec<f32> = (0..batch).map(|b| ((tenant + b) % 3) as f32).collect();
    vec![
        (
            "x".to_string(),
            Tensor::from_vec([batch, FEATURES], x).unwrap(),
        ),
        ("labels".to_string(), Tensor::from_slice(&labels)),
    ]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn interleaved_sessions_are_bit_identical_to_serial_execution() {
    for kind in [
        ExecutorKind::Reference,
        ExecutorKind::Wavefront,
        ExecutorKind::Planned,
    ] {
        let net = models::mlp(FEATURES, &[12, 8], 3, 29).unwrap();

        // Serial ground truth: every (tenant, pass) on a fresh engine,
        // one thread.
        let serial_engine = Engine::builder(net.clone_structure())
            .executor(kind)
            .build()
            .unwrap();
        let serial_session = serial_engine.session();
        let mut expected: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
        for tenant in 0..TENANTS {
            for pass in 0..PASSES {
                let out = serial_session
                    .infer(&as_refs(&feeds(tenant, pass)))
                    .unwrap();
                expected.insert((tenant, pass), bits(&out["logits"]));
            }
        }

        // Concurrent run: one shared engine, one session per tenant
        // thread, passes interleaving however the scheduler likes.
        let engine = Engine::builder(net).executor(kind).build().unwrap();
        std::thread::scope(|scope| {
            for tenant in 0..TENANTS {
                let session = engine.session();
                let expected = &expected;
                scope.spawn(move || {
                    for pass in 0..PASSES {
                        let out = session.infer(&as_refs(&feeds(tenant, pass))).unwrap();
                        assert_eq!(
                            bits(&out["logits"]),
                            expected[&(tenant, pass)],
                            "{kind:?}: tenant {tenant} pass {pass} diverged under interleaving"
                        );
                    }
                });
            }
        });
        assert_eq!(engine.sessions(), TENANTS);
    }
}

#[test]
fn sessions_share_one_executor_not_replicas() {
    let net = models::mlp(FEATURES, &[8], 3, 7).unwrap();
    let engine = Engine::builder(net).build().unwrap();
    let (s0, s1) = (engine.session(), engine.session());
    // A pass through one session is visible to the other tenant's view of
    // the network (same value store), proving they share the executor.
    s0.infer(&as_refs(&feeds(0, 0))).unwrap();
    let peak_after_s0 = engine.lock().peak_memory();
    s1.infer(&as_refs(&feeds(1, 0))).unwrap();
    assert!(engine.lock().peak_memory() >= peak_after_s0);
    assert_eq!(engine.sessions(), 2);
}
