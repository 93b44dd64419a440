//! # deep500-ops — Level 0: Operators
//!
//! The paper's Level 0 "enables implementing, computing, and benchmarking
//! individual operators, which are the building blocks of DNNs". This crate
//! provides:
//!
//! * the [`Operator`] trait — the Rust analogue of the paper's
//!   `CustomOperator` C++/Python interface, with `forward(inputs)` and
//!   `backward(grad_outputs, fwd_inputs, fwd_outputs)`,
//! * an [operator registry](registry) mirroring `D500_REGISTER_OP`, through
//!   which user code registers custom operators by name so that networks
//!   and the d5nx format can reference them,
//! * reference implementations of every operator needed by the paper's
//!   networks: [GEMM](gemm) (naive / blocked / parallel), 2-D
//!   [convolution](conv) (direct / im2col), [pooling](pool)
//!   (max / average / **median** — the paper's running custom-operator
//!   example), [activations](activation), [batch normalization](norm_ops),
//!   [losses](loss), [elementwise ops](elementwise), [shape ops](shape_ops),
//!   and a GEMM-backed [fully-connected layer](linear),
//! * [`par`] — the one fork-or-inline decision every kernel (and the plan
//!   interpreter) takes before handing work to the thread pool,
//! * Level-0 validation: [`test_forward`](validate::test_forward) and
//!   [`test_gradient`](grad_check::test_gradient) (numerical
//!   differentiation via central finite differences),
//! * the [DeepBench problem-size suites](deepbench) used by the paper's
//!   Fig. 6 operator benchmarks.

pub mod activation;
pub mod conv;
pub mod deepbench;
pub mod elementwise;
pub mod gemm;
pub mod global_pool;
pub mod grad_check;
pub mod linear;
pub mod loss;
mod memo;
pub mod norm_ops;
pub mod operator;
pub mod par;
pub mod pool;
pub mod registry;
pub mod shape_ops;
pub mod validate;

pub use operator::{OpEffects, Operator};
