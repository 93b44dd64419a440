//! # deep500-graph — Level 1: Network Processing
//!
//! The paper's Level 1 "is dedicated to the construction, modification,
//! evaluation, and backpropagation of entire neural networks", deliberately
//! separated from file formats, operators, and training. This crate
//! provides:
//!
//! * [`network::Network`] — the object-oriented DAG representation
//!   (nodes connected by named tensors, ONNX-style), with the paper's graph
//!   API: add/remove nodes, feed/fetch tensors, parameter enumeration,
//!   topological ordering,
//! * [`executor::GraphExecutor`] — the execution interface
//!   with `inference` and `inference_and_backprop`, and its two loops: the
//!   [`executor::ReferenceExecutor`], a serial topological-sort
//!   interpreter with reverse-mode autodiff, event hooks, a per-node hook
//!   seam and a memory accountant (which reproduces the paper's
//!   out-of-memory behaviour for the micro-batching experiment) — the
//!   oracle — and the level-parallel plan interpreter
//!   [`compile::PlannedExecutor`], both built through [`Engine`],
//! * the [`d5nx`](mod@format) binary exchange format — our ONNX substitute —
//!   with the two-step load pipeline of the paper's Fig. 4 (parse → OO
//!   representation → visitor),
//! * the [`visitor::NetworkVisitor`] pattern used to lower
//!   a portable network onto backend executors,
//! * graph [`transforms`]: the micro-batch convolution transformation
//!   (Oyama et al., evaluated in §V-C) with its memory-constrained split
//!   solver,
//! * the ahead-of-time [`compile`](mod@compile) pipeline: GEMM-epilogue
//!   fusion gated by the transform-safety harness, and the plan
//!   interpreter,
//! * a [model zoo](models): LeNet-style CNNs, MLPs, an AlexNet-style conv
//!   stack, and residual blocks,
//! * Level-1 validation: [`test_executor`](validate::test_executor) and
//!   [`test_executor_backprop`](validate::test_executor_backprop).

pub mod builder;
pub mod compile;
pub mod engine;
pub mod executor;
pub mod format;
pub mod models;
pub mod network;
pub mod transforms;
pub mod validate;
pub mod visitor;

pub use compile::{compile, CompileOptions, CompileReport, ExecutionPlan, PlannedExecutor};
pub use engine::{Engine, EngineBuilder, EngineGuard, ExecutorKind, Session};
pub use executor::{GraphExecutor, MemoryAccountant, NodeHook, ReferenceExecutor};
pub use network::{Network, Node, NodeId};
pub use visitor::NetworkVisitor;

/// Naming convention for gradient tensors: the gradient of tensor `t` is
/// stored under `grad::t` in the network's value map.
pub fn grad_name(tensor: &str) -> String {
    format!("grad::{tensor}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn grad_name_convention() {
        assert_eq!(super::grad_name("w1"), "grad::w1");
    }
}
