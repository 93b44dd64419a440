//! The request hand-offs under a shutdown racing a burst and a worker that
//! dies mid-batch. (Their timings — a reply before, during and after the
//! client's poll, a request after every worker parked — are unit tests in
//! `server.rs`, which can see who parked.)

use deep500_graph::models::{self, feed_refs as as_refs};
use deep500_graph::{ExecutorKind, Network};
use deep500_ops::registry::{register_op, Attributes};
use deep500_ops::Operator;
use deep500_serve::{BatchPolicy, ModelConfig, ServeError, Server};
use deep500_tensor::{Result, Shape, Tensor};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const FEATURES: usize = 8;

#[test]
fn shutdown_right_after_a_burst_returns_promptly_and_answers_everyone() {
    for policy in [
        BatchPolicy::Single,
        BatchPolicy::Dynamic {
            max_batch: 4,
            max_delay: Duration::from_millis(20),
        },
    ] {
        let config = ModelConfig::new(models::mlp(FEATURES, &[16], 4, 5).unwrap())
            .executor(ExecutorKind::Planned)
            .batched_input("x", &[FEATURES])
            .batched_input("labels", &[])
            .policy(policy)
            .workers(2);
        let server = Server::builder().model("mlp", config).build().unwrap();
        let tickets: Vec<_> = (0..64)
            .map(|i| {
                let feeds = vec![
                    ("x".to_string(), Tensor::ones([1, FEATURES])),
                    ("labels".to_string(), Tensor::from_slice(&[(i % 4) as f32])),
                ];
                server.submit("mlp", &as_refs(&feeds)).unwrap()
            })
            .collect();
        let start = Instant::now();
        server.shutdown();
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "{policy:?}: {took:?}");
        // The workers drain what was admitted before they exit.
        for t in tickets {
            t.wait().unwrap();
        }
    }
}

/// The identity, except that its forward panics.
struct Explodes;

impl Operator for Explodes {
    fn name(&self) -> &str {
        "Explodes"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        Ok(vec![s[0].clone()])
    }
    fn forward(&self, _: &[&Tensor]) -> Result<Vec<Tensor>> {
        panic!("operator failure injected by the test");
    }
    fn backward(&self, grads: &[&Tensor], _: &[&Tensor], _: &[&Tensor]) -> Result<Vec<Tensor>> {
        Ok(vec![grads[0].clone()])
    }
}

#[test]
fn an_operator_panic_fails_its_batch_instead_of_stranding_the_waiters() {
    register_op("Explodes", |_: &Attributes| {
        Ok(Box::new(Explodes) as Box<dyn Operator>)
    });
    let mut net = Network::new("explodes");
    net.add_input("x");
    net.add_node("boom", "Explodes", Attributes::new(), &["x"], &["y"])
        .unwrap();
    net.add_output("y");
    let config = ModelConfig::new(net).fixed_input("x", &[1, FEATURES]);
    let server = Server::builder().model("boom", config).build().unwrap();
    let feeds = [("x", Tensor::ones([1, FEATURES]))];
    let first = server.submit("boom", &feeds).unwrap();
    let second = server.submit("boom", &feeds).unwrap();

    // Ten seconds is the failure path: the parent build never answers.
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || tx.send(first.wait()));
    let got = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the panicking batch's ticket was stranded");
    assert!(matches!(got, Err(ServeError::Execution(_))), "{got:?}");
    waiter.join().unwrap().unwrap();

    // The shard's only worker is gone; shutdown fails what is queued
    // behind it instead of hanging.
    server.shutdown();
    assert_eq!(second.wait().unwrap_err(), ServeError::Shutdown);
}
