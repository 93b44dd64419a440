//! Schedule-level scaling simulation (Fig. 12).
//!
//! Fig. 12 sweeps 8–256 Piz Daint nodes training ResNet-50 on ImageNet —
//! beyond what threads-on-a-laptop can execute for real. This module
//! therefore simulates each scheme's **communication schedule** round by
//! round against the α-β [`NetworkModel`], while compute time comes from a
//! [`WorkloadModel`]. Volumes are exact properties of the schedules; times
//! follow the model. The same schedules run for real (with data) in
//! [`crate::optimizers`] at small scale, which is what ties the simulation
//! to ground truth.

use crate::netmodel::NetworkModel;

/// The trained workload's cost parameters (ResNet-50-like defaults).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadModel {
    /// Model size in bytes (ResNet-50 ≈ 25.6 M params ≈ 102 MB fp32).
    pub param_bytes: usize,
    /// Per-image forward+backward compute seconds (P100-class).
    pub compute_s_per_image: f64,
    /// Python-reference per-message overhead (interpreter + NumPy glue).
    pub python_message_overhead_s: f64,
    /// Python-reference conversion bandwidth (f32↔NumPy round trip), B/s.
    pub conversion_bps: f64,
    /// Horovod coordination overhead per step, seconds.
    pub horovod_coordination_s: f64,
    /// Top-k selection cost per gradient element (SparCML filter).
    pub topk_select_s_per_elem: f64,
    /// SparCML gradient density (fraction of entries kept).
    pub sparse_density: f64,
}

impl Default for WorkloadModel {
    fn default() -> Self {
        WorkloadModel {
            param_bytes: 102_400_000,
            compute_s_per_image: 4.3e-3,
            python_message_overhead_s: 120e-6,
            conversion_bps: 1.5e9,
            horovod_coordination_s: 0.5e-3,
            topk_select_s_per_elem: 2.0e-9,
            sparse_density: 0.1,
        }
    }
}

/// The distributed schemes of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    TfPs,
    Horovod,
    Cdsgd,
    RefDsgd,
    RefPssgd,
    RefAsgd,
    RefDpsgd,
    RefMavg,
    SparCml,
}

impl Scheme {
    /// Display name matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::TfPs => "TF-PS",
            Scheme::Horovod => "Horovod",
            Scheme::Cdsgd => "CDSGD",
            Scheme::RefDsgd => "REF-dsgd",
            Scheme::RefPssgd => "REF-pssgd",
            Scheme::RefAsgd => "REF-asgd",
            Scheme::RefDpsgd => "REF-dpsgd",
            Scheme::RefMavg => "REF-mavg",
            Scheme::SparCml => "SparCML",
        }
    }

    /// The strong-scaling lineup (Fig. 12 left).
    pub fn strong_set() -> Vec<Scheme> {
        vec![
            Scheme::Cdsgd,
            Scheme::Horovod,
            Scheme::RefAsgd,
            Scheme::RefDpsgd,
            Scheme::RefDsgd,
            Scheme::RefMavg,
            Scheme::RefPssgd,
            Scheme::SparCml,
            Scheme::TfPs,
        ]
    }

    /// The weak-scaling lineup (Fig. 12 right).
    pub fn weak_set() -> Vec<Scheme> {
        vec![
            Scheme::Cdsgd,
            Scheme::Horovod,
            Scheme::SparCml,
            Scheme::TfPs,
        ]
    }
}

/// One simulated operating point.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    pub scheme: Scheme,
    pub nodes: usize,
    /// Aggregate images/second, `None` when the scheme fails at this scale
    /// (TF-PS crash, Horovod divergence — §V-E).
    pub throughput: Option<f64>,
    /// Bytes sent per node per step.
    pub sent_bytes_per_step: u64,
    /// Seconds per step (compute + communication under the model).
    pub step_time_s: f64,
    /// Failure note when `throughput` is `None`.
    pub note: Option<&'static str>,
}

/// Ring-allreduce schedule: `2(n−1)` messages of `S/n` per node.
fn ring_time(net: &NetworkModel, n: usize, bytes: usize) -> (f64, u64) {
    if n <= 1 {
        return (0.0, 0);
    }
    let chunk = bytes / n;
    let steps = 2 * (n - 1);
    let time = steps as f64 * net.message_s(chunk);
    (time, (steps * chunk) as u64)
}

/// Parameter-server schedule: the server serially ingests `n` gradients
/// and emits `n` parameter copies; a worker's step waits for the server.
fn ps_time(net: &NetworkModel, n: usize, bytes: usize) -> (f64, u64) {
    let per_msg = net.message_s(bytes);
    let server = 2.0 * n as f64 * per_msg;
    (server, 2 * bytes as u64)
}

/// Simulate one training step of `scheme` on `nodes` nodes with the given
/// per-node minibatch.
pub fn simulate_step(
    scheme: Scheme,
    nodes: usize,
    per_node_batch: usize,
    w: &WorkloadModel,
    net: &NetworkModel,
) -> ScalingPoint {
    let s = w.param_bytes;
    let compute = per_node_batch as f64 * w.compute_s_per_image;
    let elems = s / 4;
    let fail = |note: &'static str| ScalingPoint {
        scheme,
        nodes,
        throughput: None,
        sent_bytes_per_step: 0,
        step_time_s: f64::INFINITY,
        note: Some(note),
    };

    let (comm, sent): (f64, u64) = match scheme {
        Scheme::Cdsgd => ring_time(net, nodes, s),
        Scheme::Horovod => {
            let (t, v) = ring_time(net, nodes, s);
            if nodes >= 256 {
                // §V-E: at 256 nodes Horovod "produced exploding loss
                // values", an incorrect-gradient-accumulation failure.
                return fail("exploding loss (incorrect gradient accumulation)");
            }
            (t + w.horovod_coordination_s, v)
        }
        Scheme::RefDsgd => {
            // Same ring, plus per-message Python overhead and NumPy
            // conversions of the whole buffer on both sides of the call.
            let (t, v) = ring_time(net, nodes, s);
            let msgs = if nodes > 1 { 2 * (nodes - 1) } else { 0 };
            let python =
                msgs as f64 * w.python_message_overhead_s + 2.0 * s as f64 / w.conversion_bps;
            (t + python, v)
        }
        Scheme::TfPs => {
            if nodes >= 256 {
                // §V-E: "For TF-PS, the application crashed."
                return fail("application crashed");
            }
            ps_time(net, nodes, s)
        }
        Scheme::RefPssgd => {
            let (t, v) = ps_time(net, nodes, s);
            let python = 2.0 * w.python_message_overhead_s + 2.0 * s as f64 / w.conversion_bps;
            (t + python, v)
        }
        Scheme::RefAsgd => {
            // Centralized without collectives: the server eagerly pushes
            // fresh parameters to every worker after every application, so
            // each worker receives ~n parameter copies per step and the
            // server serializes n(1+n) messages.
            let per_msg = net.message_s(s);
            let server = (nodes + nodes * nodes) as f64 * per_msg / nodes as f64;
            let python = 2.0 * w.python_message_overhead_s + s as f64 / w.conversion_bps;
            (
                server + python,
                (s + nodes * s) as u64, // grad out + n param copies in
            )
        }
        Scheme::RefDpsgd => {
            // Two neighbor exchanges of the full model, constant in n.
            let t = 2.0 * net.message_s(s)
                + 2.0 * w.python_message_overhead_s
                + 2.0 * s as f64 / w.conversion_bps;
            (t, 2 * s as u64)
        }
        Scheme::RefMavg => {
            // Parameter allreduce (ring) once per step plus Python glue —
            // fewer per-tensor crossings than REF-dsgd, so cheaper.
            let (t, v) = ring_time(net, nodes, s);
            let python = 2.0 * w.python_message_overhead_s + s as f64 / w.conversion_bps;
            (t + python, v)
        }
        Scheme::SparCml => {
            // log2(n) recursive-doubling rounds; the sparse vector starts
            // at density d (8 bytes/entry: index+value) and doubles per
            // round until dense. Plus the top-k filter over the gradient.
            let rounds = (nodes.max(2) as f64).log2().ceil() as u32;
            let mut time = w.topk_select_s_per_elem * elems as f64;
            let mut sent = 0u64;
            let mut entries = (elems as f64 * w.sparse_density) as usize;
            for _ in 0..rounds {
                let bytes = (entries * 8).min(s);
                time += net.message_s(bytes);
                sent += bytes as u64;
                entries = (entries * 2).min(elems);
            }
            (time, sent)
        }
    };

    let step_time = compute + comm;
    ScalingPoint {
        scheme,
        nodes,
        throughput: Some(nodes as f64 * per_node_batch as f64 / step_time),
        sent_bytes_per_step: sent,
        step_time_s: step_time,
        note: None,
    }
}

/// Strong scaling: a fixed global minibatch split across nodes (the paper
/// uses 1,024 images on 8–64 nodes).
pub fn strong_scaling(
    schemes: &[Scheme],
    nodes_list: &[usize],
    global_batch: usize,
    w: &WorkloadModel,
    net: &NetworkModel,
) -> Vec<ScalingPoint> {
    let mut out = Vec::new();
    for &scheme in schemes {
        for &nodes in nodes_list {
            let per_node = (global_batch / nodes).max(1);
            out.push(simulate_step(scheme, nodes, per_node, w, net));
        }
    }
    out
}

/// Expected transmissions per delivered message under i.i.d. drop
/// probability `p` with up to `k` retransmissions — the truncated
/// geometric series `E = (1 − p^{k+1}) / (1 − p)`.
fn expected_attempts(p: f64, k: u32) -> f64 {
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        return (k + 1) as f64;
    }
    (1.0 - p.powi(k as i32 + 1)) / (1.0 - p)
}

/// [`simulate_step`] under a lossy network: every message drops with
/// probability `drop_rate` and is retransmitted up to `max_retries` times,
/// so communication time and volume scale by `expected_attempts`. A
/// message that exhausts its budget is permanently lost (probability
/// `p^{k+1}`); the synchronous centralized schedules (TF-PS, PSSGD, ASGD)
/// cannot complete a step without every message, so they abort once the
/// expected permanent losses per step (≈ `2n` messages) become
/// non-negligible. Loss-tolerant schedules degrade in time only.
pub fn simulate_step_faulty(
    scheme: Scheme,
    nodes: usize,
    per_node_batch: usize,
    w: &WorkloadModel,
    net: &NetworkModel,
    drop_rate: f64,
    max_retries: u32,
) -> ScalingPoint {
    let base = simulate_step(scheme, nodes, per_node_batch, w, net);
    if base.throughput.is_none() || drop_rate <= 0.0 {
        return base;
    }
    let attempts = expected_attempts(drop_rate, max_retries);
    let loss_p = drop_rate.powi(max_retries as i32 + 1);
    let centralized = matches!(scheme, Scheme::TfPs | Scheme::RefPssgd | Scheme::RefAsgd);
    if centralized && 2.0 * nodes as f64 * loss_p > 0.1 {
        return ScalingPoint {
            scheme,
            nodes,
            throughput: None,
            sent_bytes_per_step: 0,
            step_time_s: f64::INFINITY,
            note: Some("retry budget exhausted (dropped synchronous message)"),
        };
    }
    let compute = per_node_batch as f64 * w.compute_s_per_image;
    let comm = (base.step_time_s - compute).max(0.0);
    let step_time = compute + comm * attempts;
    ScalingPoint {
        scheme,
        nodes,
        throughput: Some(nodes as f64 * per_node_batch as f64 / step_time),
        sent_bytes_per_step: (base.sent_bytes_per_step as f64 * attempts) as u64,
        step_time_s: step_time,
        note: None,
    }
}

/// Weak scaling: a fixed per-node minibatch (1–256 nodes in the paper).
pub fn weak_scaling(
    schemes: &[Scheme],
    nodes_list: &[usize],
    per_node_batch: usize,
    w: &WorkloadModel,
    net: &NetworkModel,
) -> Vec<ScalingPoint> {
    let mut out = Vec::new();
    for &scheme in schemes {
        for &nodes in nodes_list {
            out.push(simulate_step(scheme, nodes, per_node_batch, w, net));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(scheme: Scheme, nodes: usize) -> ScalingPoint {
        simulate_step(
            scheme,
            nodes,
            128,
            &WorkloadModel::default(),
            &NetworkModel::aries(),
        )
    }

    #[test]
    fn cdsgd_beats_the_python_reference_by_a_wide_margin() {
        // §V-E: the C++ DSGD "is almost an order of magnitude faster than
        // its Python counterpart" (in communication cost).
        let c = point(Scheme::Cdsgd, 32);
        let r = point(Scheme::RefDsgd, 32);
        let c_comm = c.step_time_s - 128.0 * WorkloadModel::default().compute_s_per_image;
        let r_comm = r.step_time_s - 128.0 * WorkloadModel::default().compute_s_per_image;
        assert!(r_comm > 3.0 * c_comm, "ref {r_comm} vs c {c_comm}");
        // Identical schedules => identical volume.
        assert_eq!(c.sent_bytes_per_step, r.sent_bytes_per_step);
    }

    #[test]
    fn ring_scales_better_than_ps() {
        for nodes in [16usize, 32, 64] {
            let ring = point(Scheme::Cdsgd, nodes);
            let ps = point(Scheme::TfPs, nodes);
            assert!(
                ring.throughput.unwrap() > ps.throughput.unwrap(),
                "at {nodes} nodes"
            );
        }
    }

    #[test]
    fn asgd_degrades_with_node_count() {
        // Normalized per-node throughput falls as workers queue at the PS.
        let t8 = point(Scheme::RefAsgd, 8).throughput.unwrap() / 8.0;
        let t64 = point(Scheme::RefAsgd, 64).throughput.unwrap() / 64.0;
        assert!(t64 < t8 * 0.65, "{t8} -> {t64}");
        // And its volume grows linearly with n.
        let v8 = point(Scheme::RefAsgd, 8).sent_bytes_per_step;
        let v64 = point(Scheme::RefAsgd, 64).sent_bytes_per_step;
        assert!(v64 > 6 * v8);
    }

    #[test]
    fn dpsgd_volume_is_constant() {
        let v8 = point(Scheme::RefDpsgd, 8).sent_bytes_per_step;
        let v64 = point(Scheme::RefDpsgd, 64).sent_bytes_per_step;
        assert_eq!(v8, v64);
    }

    #[test]
    fn sparse_volume_smaller_at_low_node_counts_then_densifies() {
        let dense8 = point(Scheme::Cdsgd, 8).sent_bytes_per_step;
        let sparse8 = point(Scheme::SparCml, 8).sent_bytes_per_step;
        assert!(sparse8 < dense8, "{sparse8} !< {dense8}");
        let sparse128 = point(Scheme::SparCml, 128).sent_bytes_per_step;
        assert!(sparse128 > sparse8 * 2, "densification with node count");
    }

    #[test]
    fn sparse_is_slower_than_cdsgd_despite_less_volume() {
        // §V-E: the filter cost and densification keep SparCML's runtime
        // above the plain allreduce here.
        let c = point(Scheme::Cdsgd, 8);
        let s = point(Scheme::SparCml, 8);
        assert!(s.step_time_s > c.step_time_s);
    }

    #[test]
    fn failures_at_256_nodes() {
        let tf = point(Scheme::TfPs, 256);
        assert!(tf.throughput.is_none());
        assert!(tf.note.unwrap().contains("crash"));
        let hvd = point(Scheme::Horovod, 256);
        assert!(hvd.throughput.is_none());
        assert!(hvd.note.unwrap().contains("exploding"));
        let cd = point(Scheme::Cdsgd, 256);
        assert!(cd.throughput.is_some(), "CDSGD survives 256 nodes");
    }

    #[test]
    fn weak_scaling_grows_throughput_for_ring() {
        let pts = weak_scaling(
            &[Scheme::Cdsgd],
            &[1, 4, 16, 64],
            128,
            &WorkloadModel::default(),
            &NetworkModel::aries(),
        );
        let tp: Vec<f64> = pts.iter().map(|p| p.throughput.unwrap()).collect();
        for w in tp.windows(2) {
            assert!(w[1] > w[0], "weak scaling should grow: {tp:?}");
        }
    }

    #[test]
    fn strong_scaling_splits_the_batch() {
        let pts = strong_scaling(
            &[Scheme::Cdsgd],
            &[8, 16],
            1024,
            &WorkloadModel::default(),
            &NetworkModel::aries(),
        );
        assert_eq!(pts.len(), 2);
        // 16 nodes halve per-node compute: throughput must rise.
        assert!(pts[1].throughput.unwrap() > pts[0].throughput.unwrap());
        assert_eq!(Scheme::Cdsgd.label(), "CDSGD");
        assert!(Scheme::strong_set().len() >= 8);
        assert_eq!(Scheme::weak_set().len(), 4);
    }

    #[test]
    fn expected_attempts_is_the_truncated_geometric_series() {
        assert_eq!(expected_attempts(0.0, 5), 1.0);
        assert_eq!(expected_attempts(0.5, 0), 1.0); // no retries: one shot
        assert!((expected_attempts(0.5, 1) - 1.5).abs() < 1e-12);
        assert!((expected_attempts(0.5, 2) - 1.75).abs() < 1e-12);
        // Monotone in both the drop rate and the retry budget.
        assert!(expected_attempts(0.3, 3) > expected_attempts(0.1, 3));
        assert!(expected_attempts(0.3, 5) > expected_attempts(0.3, 1));
        // k → ∞ limit is 1/(1−p).
        assert!((expected_attempts(0.25, 60) - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn faulty_step_degrades_gracefully_or_aborts() {
        let w = WorkloadModel::default();
        let net = NetworkModel::aries();
        let clean = simulate_step(Scheme::Cdsgd, 16, 128, &w, &net);
        // Zero drop rate is exactly the fault-free model.
        let zero = simulate_step_faulty(Scheme::Cdsgd, 16, 128, &w, &net, 0.0, 3);
        assert_eq!(zero.step_time_s, clean.step_time_s);
        // Drops cost time and retransmitted bytes, but the ring completes.
        let lossy = simulate_step_faulty(Scheme::Cdsgd, 16, 128, &w, &net, 0.3, 3);
        assert!(lossy.throughput.unwrap() < clean.throughput.unwrap());
        assert!(lossy.sent_bytes_per_step > clean.sent_bytes_per_step);
        // A synchronous PS without a retry budget loses messages for good
        // and aborts with a note instead of fabricating a throughput.
        let ps = simulate_step_faulty(Scheme::RefPssgd, 16, 128, &w, &net, 0.3, 0);
        assert!(ps.throughput.is_none());
        assert!(ps.note.unwrap().contains("retry budget"));
        // With a deep retry budget the same scheme survives, slower.
        let ps_retry = simulate_step_faulty(Scheme::RefPssgd, 16, 128, &w, &net, 0.3, 8);
        let ps_clean = simulate_step(Scheme::RefPssgd, 16, 128, &w, &net);
        assert!(ps_retry.throughput.unwrap() < ps_clean.throughput.unwrap());
    }
}
