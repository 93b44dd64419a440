//! Level-1 validation: `test_executor` and `test_executor_backprop`.
//!
//! The paper validates "the accuracy and performance of Network and
//! GraphExecutor" by comparing any executor against the reference executor
//! on identical feeds: outputs must agree within an ℓ∞ tolerance for
//! inference, and parameter gradients must agree for backpropagation.

use crate::executor::GraphExecutor;
use crate::grad_name;
use deep500_metrics::norms::DiffNorms;
use deep500_metrics::stats::Summary;
use deep500_metrics::trace::OpAttribution;
use deep500_metrics::Timer;
use deep500_tensor::{Error, PoolStats, Result, Tensor};

/// Result of comparing two executors.
#[derive(Debug, Clone)]
pub struct ExecutorReport {
    /// Per-output difference norms (`name`, norms), sorted by name.
    pub output_norms: Vec<(String, DiffNorms)>,
    /// Per-parameter gradient norms (backprop validation only).
    pub gradient_norms: Vec<(String, DiffNorms)>,
    /// Wallclock summary of the candidate executor.
    pub candidate_time: Summary,
    /// Wallclock summary of the reference executor.
    pub reference_time: Summary,
    /// Per-operator attribution rows of the candidate (wall time, FLOPs,
    /// bytes moved), sorted by descending total time; empty if the
    /// candidate does not track totals.
    pub candidate_attribution: Vec<OpAttribution>,
    /// Dynamic buffer-pool counters of the candidate, if it is
    /// pool-backed ([`GraphExecutor::buffer_pool_stats`]).
    pub candidate_pool: Option<PoolStats>,
    /// Static memory-plan bytes of the candidate, if it runs an
    /// ahead-of-time plan ([`GraphExecutor::static_plan_bytes`]). Reported
    /// alongside the pool stats so plan-vs-pool memory comparisons come
    /// straight out of validation runs.
    pub candidate_plan_bytes: Option<usize>,
}

/// Candidate/reference runtime ratio with an explicit degeneracy marker.
///
/// On sub-microsecond graphs the reference median can quantize to `0.0`;
/// the old behavior silently reported a ratio of `1.0`, hiding real
/// slowdowns. The ratio here is always NaN-free: `candidate/reference` when
/// the reference is measurable, `+inf` when only the candidate took
/// measurable time, and `1.0` when *neither* side was measurable — with
/// `degenerate` set so callers can tell a real 1.0 from an unmeasurable one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// Candidate/reference median-runtime ratio (>1 = candidate slower).
    /// Never NaN.
    pub ratio: f64,
    /// True when `reference_time.median == 0.0`, i.e. the ratio is a guard
    /// value rather than a measurement.
    pub degenerate: bool,
}

impl ExecutorReport {
    /// Pass criterion: every compared tensor within `tol` in ℓ∞.
    pub fn passes(&self, tol: f64) -> bool {
        self.output_norms.iter().all(|(_, n)| n.within(tol))
            && self.gradient_norms.iter().all(|(_, n)| n.within(tol))
    }

    /// Candidate/reference median-runtime ratio (>1 = candidate slower).
    /// Shorthand for [`Self::slowdown_detail`]`.ratio`; check the detail's
    /// `degenerate` flag before trusting a ratio from sub-microsecond runs.
    pub fn slowdown(&self) -> f64 {
        self.slowdown_detail().ratio
    }

    /// The full, NaN-free ratio + degeneracy marker.
    pub fn slowdown_detail(&self) -> Slowdown {
        slowdown_of(self.candidate_time.median, self.reference_time.median)
    }
}

/// Shared NaN-free ratio guard (also used by `deep500-train`'s optimizer
/// reports): `cand/ref` when the reference is measurable, `+inf` when only
/// the candidate measured, `1.0` (degenerate) when neither did.
pub fn slowdown_of(candidate: f64, reference: f64) -> Slowdown {
    if reference > 0.0 {
        Slowdown {
            ratio: candidate / reference,
            degenerate: false,
        }
    } else if candidate > 0.0 {
        Slowdown {
            ratio: f64::INFINITY,
            degenerate: true,
        }
    } else {
        Slowdown {
            ratio: 1.0,
            degenerate: true,
        }
    }
}

/// Compare inference outputs of `candidate` against `reference` over
/// `reruns` repetitions of the same feeds.
pub fn test_executor(
    candidate: &mut dyn GraphExecutor,
    reference: &mut dyn GraphExecutor,
    feeds: &[(&str, Tensor)],
    reruns: usize,
) -> Result<ExecutorReport> {
    if reruns == 0 {
        return Err(Error::Invalid("test_executor requires reruns >= 1".into()));
    }
    let mut cand_times = Vec::with_capacity(reruns);
    let mut ref_times = Vec::with_capacity(reruns);
    let mut cand_out = None;
    let mut ref_out = None;
    for _ in 0..reruns {
        let (c, t) = Timer::time(|| candidate.inference(feeds));
        cand_times.push(t);
        cand_out = Some(c?);
        let (r, t) = Timer::time(|| reference.inference(feeds));
        ref_times.push(t);
        ref_out = Some(r?);
    }
    let cand_out = cand_out.expect("reruns >= 1");
    let ref_out = ref_out.expect("reruns >= 1");
    let mut output_norms = Vec::new();
    for (name, rt) in &ref_out {
        let ct = cand_out
            .get(name)
            .ok_or_else(|| Error::Validation(format!("candidate missing output '{name}'")))?;
        if ct.shape() != rt.shape() {
            return Err(Error::ShapeMismatch(format!(
                "output '{name}': {} vs {}",
                ct.shape(),
                rt.shape()
            )));
        }
        output_norms.push((name.clone(), DiffNorms::of(ct.data(), rt.data())));
    }
    output_norms.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(ExecutorReport {
        output_norms,
        gradient_norms: Vec::new(),
        candidate_time: Summary::of(&cand_times),
        reference_time: Summary::of(&ref_times),
        candidate_attribution: candidate.op_attribution(),
        candidate_pool: candidate.buffer_pool_stats(),
        candidate_plan_bytes: candidate.static_plan_bytes(),
    })
}

/// Compare inference + backpropagation of two executors: outputs *and*
/// parameter gradients must agree.
pub fn test_executor_backprop(
    candidate: &mut dyn GraphExecutor,
    reference: &mut dyn GraphExecutor,
    feeds: &[(&str, Tensor)],
    loss: &str,
    reruns: usize,
) -> Result<ExecutorReport> {
    if reruns == 0 {
        return Err(Error::Invalid(
            "test_executor_backprop requires reruns >= 1".into(),
        ));
    }
    let mut cand_times = Vec::with_capacity(reruns);
    let mut ref_times = Vec::with_capacity(reruns);
    let mut cand_out = None;
    let mut ref_out = None;
    for _ in 0..reruns {
        let (c, t) = Timer::time(|| candidate.inference_and_backprop(feeds, loss));
        cand_times.push(t);
        cand_out = Some(c?);
        let (r, t) = Timer::time(|| reference.inference_and_backprop(feeds, loss));
        ref_times.push(t);
        ref_out = Some(r?);
    }
    let cand_out = cand_out.expect("reruns >= 1");
    let ref_out = ref_out.expect("reruns >= 1");
    let mut output_norms = Vec::new();
    for (name, rt) in &ref_out {
        let ct = cand_out
            .get(name)
            .ok_or_else(|| Error::Validation(format!("candidate missing output '{name}'")))?;
        output_norms.push((name.clone(), DiffNorms::of(ct.data(), rt.data())));
    }
    output_norms.sort_by(|a, b| a.0.cmp(&b.0));

    let mut gradient_norms = Vec::new();
    let params: Vec<String> = reference.network().get_params().to_vec();
    for p in params {
        let gname = grad_name(&p);
        let rg = reference.network().fetch_tensor(&gname)?;
        let cg = candidate
            .network()
            .fetch_tensor(&gname)
            .map_err(|_| Error::Validation(format!("candidate missing gradient '{gname}'")))?;
        gradient_norms.push((p, DiffNorms::of(cg.data(), rg.data())));
    }
    gradient_norms.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(ExecutorReport {
        output_norms,
        gradient_norms,
        candidate_time: Summary::of(&cand_times),
        reference_time: Summary::of(&ref_times),
        candidate_attribution: candidate.op_attribution(),
        candidate_pool: candidate.buffer_pool_stats(),
        candidate_plan_bytes: candidate.static_plan_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ReferenceExecutor;
    use crate::models;

    #[test]
    fn executor_agrees_with_itself() {
        let net = models::mlp(8, &[6], 3, 5).unwrap();
        let mut a = ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
        let mut b = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let x = Tensor::ones([2, 8]);
        let labels = Tensor::from_slice(&[0.0, 1.0]);
        let report = test_executor(
            &mut a,
            &mut b,
            &[("x", x.clone()), ("labels", labels.clone())],
            3,
        )
        .unwrap();
        assert!(report.passes(0.0));
        let report =
            test_executor_backprop(&mut a, &mut b, &[("x", x), ("labels", labels)], "loss", 3)
                .unwrap();
        assert!(report.passes(0.0));
        assert!(!report.gradient_norms.is_empty());
        assert!(report.slowdown() > 0.0);
    }

    #[test]
    fn divergent_parameters_fail_validation() {
        let net_a = models::mlp(4, &[4], 2, 1).unwrap();
        let net_b = models::mlp(4, &[4], 2, 2).unwrap(); // different seed
        let mut a = ReferenceExecutor::construct(net_a, usize::MAX).unwrap();
        let mut b = ReferenceExecutor::construct(net_b, usize::MAX).unwrap();
        let x = Tensor::ones([1, 4]);
        let labels = Tensor::from_slice(&[0.0]);
        let report = test_executor(&mut a, &mut b, &[("x", x), ("labels", labels)], 2).unwrap();
        assert!(!report.passes(1e-6));
    }

    #[test]
    fn zero_reruns_rejected() {
        let net = models::mlp(4, &[], 2, 1).unwrap();
        let mut a = ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
        let mut b = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        assert!(test_executor(&mut a, &mut b, &[], 0).is_err());
    }

    #[test]
    fn slowdown_of_is_nan_free_on_degenerate_timings() {
        // Measurable reference: plain ratio, not degenerate.
        let s = slowdown_of(2.0, 4.0);
        assert_eq!(
            s,
            Slowdown {
                ratio: 0.5,
                degenerate: false
            }
        );
        // Reference quantized to zero but candidate measured: +inf, flagged.
        let s = slowdown_of(1e-6, 0.0);
        assert!(s.ratio.is_infinite() && s.ratio > 0.0);
        assert!(s.degenerate);
        // Neither side measured: the 1.0 guard value, flagged.
        let s = slowdown_of(0.0, 0.0);
        assert_eq!(s.ratio, 1.0);
        assert!(s.degenerate);
        // Never NaN, in every branch.
        for (c, r) in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (3.0, 2.0)] {
            assert!(!slowdown_of(c, r).ratio.is_nan());
        }
    }

    #[test]
    fn report_slowdown_detail_flags_zero_reference_median() {
        let mk = |cand: f64, reference: f64| ExecutorReport {
            output_norms: Vec::new(),
            gradient_norms: Vec::new(),
            candidate_time: deep500_metrics::stats::Summary::of(&[cand]),
            reference_time: deep500_metrics::stats::Summary::of(&[reference]),
            candidate_attribution: Vec::new(),
            candidate_pool: None,
            candidate_plan_bytes: None,
        };
        let r = mk(3.0, 0.0);
        assert!(r.slowdown_detail().degenerate);
        assert!(r.slowdown() > 0.0, "guard keeps legacy positivity contract");
        let r = mk(3.0, 1.5);
        assert!(!r.slowdown_detail().degenerate);
        assert_eq!(r.slowdown(), 2.0);
    }

    #[test]
    fn report_carries_pool_stats_and_plan_bytes() {
        let net = models::mlp(6, &[6], 2, 8).unwrap();
        let feeds = [
            ("x", Tensor::ones([2, 6])),
            ("labels", Tensor::from_slice(&[0.0, 1.0])),
        ];
        // Reference candidate: neither a pool nor a plan.
        let mut a = ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
        let mut b = ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
        let r = test_executor(&mut a, &mut b, &feeds, 1).unwrap();
        assert!(r.candidate_pool.is_none() && r.candidate_plan_bytes.is_none());
        // Plan-interpreter candidate: both reported, bit-identical outputs.
        let mut p = crate::compile::PlannedExecutor::construct(net, usize::MAX).unwrap();
        let r = test_executor(&mut p, &mut b, &feeds, 2).unwrap();
        assert!(r.passes(0.0), "planned executor is bit-identical");
        assert!(r.candidate_pool.is_some());
        assert!(r.candidate_plan_bytes.unwrap() > 0);
    }

    #[test]
    fn passes_tolerance_boundary_is_inclusive() {
        let norms = DiffNorms::of(&[1.0, 2.0], &[1.0, 2.5]);
        let report = ExecutorReport {
            output_norms: vec![("y".into(), norms)],
            gradient_norms: Vec::new(),
            candidate_time: deep500_metrics::stats::Summary::of(&[1.0]),
            reference_time: deep500_metrics::stats::Summary::of(&[1.0]),
            candidate_attribution: Vec::new(),
            candidate_pool: None,
            candidate_plan_bytes: None,
        };
        assert!(report.passes(0.5), "linf == tol must pass");
        assert!(!report.passes(0.49));
        // An empty report vacuously passes at any tolerance.
        let empty = ExecutorReport {
            output_norms: Vec::new(),
            gradient_norms: Vec::new(),
            candidate_time: deep500_metrics::stats::Summary::of(&[1.0]),
            reference_time: deep500_metrics::stats::Summary::of(&[1.0]),
            candidate_attribution: Vec::new(),
            candidate_pool: None,
            candidate_plan_bytes: None,
        };
        assert!(empty.passes(0.0));
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::executor::ReferenceExecutor;
    use crate::models;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Swapping candidate and reference must leave every difference
        /// norm unchanged: `DiffNorms::of` is symmetric, and the report
        /// construction must not privilege either side.
        #[test]
        fn executor_report_norms_symmetric_under_swap(
            seed_a in 1u64..200,
            seed_b in 200u64..400,
            batch in 1usize..4,
        ) {
            let net_a = models::mlp(6, &[5], 3, seed_a).unwrap();
            let net_b = models::mlp(6, &[5], 3, seed_b).unwrap();
            let mut ea = ReferenceExecutor::construct(net_a.clone_structure(), usize::MAX).unwrap();
            let mut eb = ReferenceExecutor::construct(net_b.clone_structure(), usize::MAX).unwrap();
            let x = Tensor::ones([batch, 6]);
            let labels = Tensor::from_slice(&vec![0.0; batch]);
            let feeds = [("x", x), ("labels", labels)];
            let fwd = test_executor(&mut ea, &mut eb, &feeds, 1).unwrap();
            let rev = test_executor(&mut eb, &mut ea, &feeds, 1).unwrap();
            prop_assert_eq!(fwd.output_norms.len(), rev.output_norms.len());
            for ((nf, f), (nr, r)) in fwd.output_norms.iter().zip(&rev.output_norms) {
                prop_assert_eq!(nf, nr);
                prop_assert_eq!(f, r);
            }
            // Same symmetry for gradient norms under backprop comparison.
            let fwd =
                test_executor_backprop(&mut ea, &mut eb, &feeds, "loss", 1).unwrap();
            let rev =
                test_executor_backprop(&mut eb, &mut ea, &feeds, "loss", 1).unwrap();
            prop_assert_eq!(fwd.gradient_norms.len(), rev.gradient_norms.len());
            for ((nf, f), (nr, r)) in fwd.gradient_norms.iter().zip(&rev.gradient_norms) {
                prop_assert_eq!(nf, nr);
                prop_assert_eq!(f, r);
            }
        }
    }
}
