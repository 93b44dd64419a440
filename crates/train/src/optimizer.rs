//! The optimizer abstractions and the training-step driver.
//!
//! The paper divides an optimizer's execution into three steps "to
//! facilitate automatic distribution of optimization": ¶ input sampling
//! (`new_input`), · adjusting parameters prior to inference
//! (`prepare_param`), and ¸ applying an update rule (`update_rule`).
//! Plain update-rule optimizers (Algorithm 1's `U`) simply leave the first
//! two as no-ops. Level-3 distributed optimizers wrap any
//! [`ThreeStepOptimizer`] and splice communication between backpropagation
//! and the update rule — exactly the paper's Listing 9.

use deep500_data::Minibatch;
use deep500_graph::{grad_name, GraphExecutor};
use deep500_metrics::{EventList, Phase};
use deep500_ops::loss::accuracy;
use deep500_tensor::{Error, Result, Tensor};

/// The three-step optimizer interface (paper §IV-E).
pub trait ThreeStepOptimizer: Send {
    /// Optimizer name for reports.
    fn name(&self) -> &str;

    /// Step ¶: called once per iteration before anything else (e.g.
    /// advance the step counter, recompute step-size coefficients).
    fn new_input(&mut self) {}

    /// Step ·: optionally replace `param` before inference (e.g.
    /// AcceleGrad's interpolation between its `y` and `z` sequences).
    /// Returning `None` leaves the parameter unchanged.
    fn prepare_param(&mut self, name: &str, param: &Tensor) -> Option<Tensor> {
        let _ = (name, param);
        None
    }

    /// Step ¸: the update rule — new parameter value from the gradient and
    /// the (possibly adjusted) old parameter.
    fn update_rule(&mut self, grad: &Tensor, old_param: &Tensor, name: &str) -> Result<Tensor>;

    /// Reset internal state (moment buffers, step counters).
    fn reset(&mut self) {}
}

/// Result of one training step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Scalar training loss of the minibatch.
    pub loss: f32,
    /// Minibatch training accuracy (from the `logits` output, if present).
    pub accuracy: Option<f64>,
}

/// Execute one three-step training iteration: prepare parameters, run
/// inference + backprop on the minibatch, then apply the update rule to
/// every parameter. This is the nondistributed core that Level 3 wraps.
pub fn train_step(
    opt: &mut dyn ThreeStepOptimizer,
    executor: &mut dyn GraphExecutor,
    batch: &Minibatch,
) -> Result<StepResult> {
    let mut events = EventList::new();
    train_step_traced(opt, executor, batch, &mut events, 0)
}

/// [`train_step`] with event instrumentation: the optimizer's own work —
/// batch assembly (prepare + feed construction, [`Phase::BatchAssembly`])
/// and the parameter update sweep ([`Phase::OptimizerUpdate`]) — is
/// reported as spans to `events`, keyed by the iteration number `step`.
/// Runners pass their event list so whole-run attribution can account for
/// the time between operator spans; `train_step` itself delegates here
/// with a throwaway list. The step is [`backprop_half`] followed by one
/// [`apply_update`] per parameter with its local gradient; a Level-3 scheme
/// calls the same two with communication in between.
pub fn train_step_traced(
    opt: &mut dyn ThreeStepOptimizer,
    executor: &mut dyn GraphExecutor,
    batch: &Minibatch,
    events: &mut EventList,
    step: usize,
) -> Result<StepResult> {
    let result = backprop_half(opt, executor, batch, Some(events), step)?;
    let update_start = std::time::Instant::now();
    for pname in executor.network().get_params().to_vec() {
        let grad = executor.network().fetch_tensor(&grad_name(&pname))?.clone();
        apply_update(opt, executor, &pname, &grad)?;
    }
    events.span(
        Phase::OptimizerUpdate,
        step,
        update_start.elapsed().as_secs_f64(),
    );
    Ok(result)
}

/// The first half of a training step: steps ¶ and · of the optimizer,
/// feed construction (together one [`Phase::BatchAssembly`] span), then
/// inference + backprop with the checks on what comes back — a network
/// without a `loss` output is [`Error::NotFound`], non-finite logits are
/// [`Error::Validation`]. Parameter gradients are left in the network.
/// The span goes to `events`, or — for a caller with no event list of its
/// own, `None` — to the executor's hooks.
pub fn backprop_half(
    opt: &mut dyn ThreeStepOptimizer,
    executor: &mut dyn GraphExecutor,
    batch: &Minibatch,
    events: Option<&mut EventList>,
    step: usize,
) -> Result<StepResult> {
    let assembly_start = std::time::Instant::now();
    opt.new_input();
    let params: Vec<String> = executor.network().get_params().to_vec();
    for pname in &params {
        let param = executor.network().fetch_tensor(pname)?;
        if let Some(adjusted) = opt.prepare_param(pname, param) {
            executor.network_mut().feed_tensor(pname.clone(), adjusted);
        }
    }
    let feeds = batch.feeds();
    let assembly = assembly_start.elapsed().as_secs_f64();
    match events {
        Some(events) => events.span(Phase::BatchAssembly, step, assembly),
        None => executor
            .events_mut()
            .span(Phase::BatchAssembly, step, assembly),
    }
    let outputs = executor.inference_and_backprop(&feeds, "loss")?;
    let loss = outputs
        .get("loss")
        .ok_or_else(|| Error::NotFound("'loss' output".into()))?
        .data()[0];
    if let Some(logits) = outputs.get("logits") {
        if logits.has_non_finite() {
            return Err(Error::Validation(
                "non-finite logits: training has diverged".into(),
            ));
        }
    }
    let acc = outputs
        .get("logits")
        .and_then(|l| accuracy(l, &batch.labels).ok());
    Ok(StepResult {
        loss,
        accuracy: acc,
    })
}

/// The second half of a training step, for one parameter: step ¸, the
/// update rule, applied with `grad` — the local gradient, or whatever a
/// Level-3 scheme made of it — and the result fed back, after checking the
/// rule kept the parameter's shape.
pub fn apply_update(
    opt: &mut dyn ThreeStepOptimizer,
    executor: &mut dyn GraphExecutor,
    pname: &str,
    grad: &Tensor,
) -> Result<()> {
    let old = executor.network().fetch_tensor(pname)?;
    let updated = opt.update_rule(grad, old, pname)?;
    if updated.shape() != old.shape() {
        return Err(Error::ShapeMismatch(format!(
            "{}: update changed shape of '{pname}': {} -> {}",
            opt.name(),
            old.shape(),
            updated.shape()
        )));
    }
    executor
        .network_mut()
        .feed_tensor(pname.to_string(), updated);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_graph::{models, Engine};

    /// Minimal update rule for trait-machinery tests: plain SGD.
    pub struct PlainSgd {
        pub lr: f32,
    }
    impl ThreeStepOptimizer for PlainSgd {
        fn name(&self) -> &str {
            "plain-sgd"
        }
        fn update_rule(&mut self, grad: &Tensor, old: &Tensor, _n: &str) -> Result<Tensor> {
            let mut p = old.clone();
            p.axpy(-self.lr, grad)?;
            Ok(p)
        }
    }

    fn batch() -> Minibatch {
        // Distinguishable inputs so the labels are actually fittable.
        let mut x = Tensor::zeros([4, 8]);
        for i in 0..4 {
            x.data_mut()[i * 8 + i] = 1.0;
            x.data_mut()[i * 8 + i + 4] = -1.0;
        }
        Minibatch {
            x,
            labels: Tensor::from_slice(&[0.0, 1.0, 2.0, 0.0]),
        }
    }

    #[test]
    fn train_step_updates_parameters_and_reports_loss() {
        let net = models::mlp(8, &[6], 3, 1).unwrap();
        let before = net.fetch_tensor("fc1.w").unwrap().clone();
        let engine = Engine::builder(net).build().unwrap();
        let mut ex = engine.lock();
        let mut opt = PlainSgd { lr: 0.1 };
        let r = train_step(&mut opt, &mut *ex, &batch()).unwrap();
        assert!(r.loss > 0.0 && r.loss.is_finite());
        assert!(r.accuracy.is_some());
        let after = ex.network().fetch_tensor("fc1.w").unwrap();
        assert_ne!(&before, after, "parameters must move");
    }

    #[test]
    fn repeated_steps_reduce_loss_on_a_fixed_batch() {
        let net = models::mlp(8, &[16], 3, 2).unwrap();
        let engine = Engine::builder(net).build().unwrap();
        let mut ex = engine.lock();
        let mut opt = PlainSgd { lr: 0.5 };
        let b = batch();
        let first = train_step(&mut opt, &mut *ex, &b).unwrap().loss;
        let mut last = first;
        for _ in 0..20 {
            last = train_step(&mut opt, &mut *ex, &b).unwrap().loss;
        }
        assert!(
            last < first * 0.5,
            "overfitting a fixed batch must drive loss down: {first} -> {last}"
        );
    }

    #[test]
    fn shape_changing_update_is_rejected() {
        struct Bad;
        impl ThreeStepOptimizer for Bad {
            fn name(&self) -> &str {
                "bad"
            }
            fn update_rule(&mut self, _g: &Tensor, _o: &Tensor, _n: &str) -> Result<Tensor> {
                Ok(Tensor::zeros([1]))
            }
        }
        let net = models::mlp(8, &[], 3, 3).unwrap();
        let engine = Engine::builder(net).build().unwrap();
        let mut ex = engine.lock();
        assert!(train_step(&mut Bad, &mut *ex, &batch()).is_err());
    }

    #[test]
    fn default_hooks_are_noops() {
        let mut opt = PlainSgd { lr: 0.1 };
        opt.new_input();
        assert!(opt.prepare_param("p", &Tensor::zeros([2])).is_none());
        opt.reset();
    }
}
