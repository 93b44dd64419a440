//! Static shape & dtype inference over the IR.
//!
//! Shapes propagate through the registered operators' own `output_shapes`
//! functions, so the static verdict agrees with what `checked_forward` would
//! enforce at runtime — for *every* registered op, built-in or custom. A
//! mismatch (GEMM inner dims, conv channels, non-broadcastable elementwise
//! operands, ...) becomes a [`LintCode::ShapeMismatch`] naming the offending
//! node and its input edges with their inferred shapes.
//!
//! **Symbolic batch dimension.** The engine represents a dimension as
//! `a·N + b` in a symbolic batch size `N` ([`SymDim`]) and verifies it by
//! *dual concrete evaluation*: the graph is inferred at two distinct batch
//! sizes (N=4 and N=6) and each result dimension is solved back to the
//! affine form from the two samples. A dimension whose two samples are not
//! consistent with any affine form (impossible for two points) or whose
//! affine form has non-integer slope gets a [`LintCode::NonAffineBatch`]
//! warning, meaning conclusions drawn at one batch size do not transfer.

use crate::ir::GraphIr;
use crate::lint::{Lint, LintCode};
use deep500_ops::registry;
use deep500_tensor::{DataType, Shape};
use std::collections::HashMap;

/// The two batch sizes used for dual evaluation. Distinct, small, and both
/// even (pooling/stride ops stay well-defined where the user's real batch
/// would be).
pub const PROBE_BATCHES: [usize; 2] = [4, 6];

/// One dimension of a symbolic shape: `scale·N + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymDim {
    /// Independent of the batch size.
    Const(usize),
    /// Affine in the symbolic batch size `N`.
    Affine { scale: i64, offset: i64 },
}

impl SymDim {
    /// The symbolic batch dimension `N` itself.
    pub fn batch() -> SymDim {
        SymDim::Affine {
            scale: 1,
            offset: 0,
        }
    }

    /// Evaluate at a concrete batch size.
    pub fn at(self, n: usize) -> usize {
        match self {
            SymDim::Const(c) => c,
            SymDim::Affine { scale, offset } => (scale * n as i64 + offset).max(0) as usize,
        }
    }

    /// Solve the affine form from two samples `(n0, d0)`, `(n1, d1)`;
    /// `None` when the slope is not an integer (non-affine evidence).
    fn solve(n0: usize, d0: usize, n1: usize, d1: usize) -> Option<SymDim> {
        if d0 == d1 {
            return Some(SymDim::Const(d0));
        }
        let dn = n1 as i64 - n0 as i64;
        let dd = d1 as i64 - d0 as i64;
        if dd % dn != 0 {
            return None;
        }
        let scale = dd / dn;
        let offset = d0 as i64 - scale * n0 as i64;
        Some(SymDim::Affine { scale, offset })
    }
}

impl std::fmt::Display for SymDim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymDim::Const(c) => write!(f, "{c}"),
            SymDim::Affine {
                scale: 1,
                offset: 0,
            } => write!(f, "N"),
            SymDim::Affine { scale, offset: 0 } => write!(f, "{scale}N"),
            SymDim::Affine { scale: 1, offset } => write!(f, "N{offset:+}"),
            SymDim::Affine { scale, offset } => write!(f, "{scale}N{offset:+}"),
        }
    }
}

/// A shape whose dimensions may depend on the symbolic batch size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymShape {
    pub dims: Vec<SymDim>,
}

impl SymShape {
    /// All-constant shape.
    pub fn fixed(dims: &[usize]) -> SymShape {
        SymShape {
            dims: dims.iter().map(|&d| SymDim::Const(d)).collect(),
        }
    }

    /// `[N, rest...]` — the common batched layout.
    pub fn batched(rest: &[usize]) -> SymShape {
        let mut dims = vec![SymDim::batch()];
        dims.extend(rest.iter().map(|&d| SymDim::Const(d)));
        SymShape { dims }
    }

    /// Substitute a concrete batch size.
    pub fn at(&self, n: usize) -> Shape {
        let dims: Vec<usize> = self.dims.iter().map(|d| d.at(n)).collect();
        Shape::new(&dims)
    }

    /// Whether any dimension depends on `N`.
    pub fn is_batch_dependent(&self) -> bool {
        self.dims.iter().any(|d| matches!(d, SymDim::Affine { .. }))
    }
}

impl std::fmt::Display for SymShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Parse a `dtype` node attribute.
fn parse_dtype(s: &str) -> Option<DataType> {
    match s {
        "f32" | "float32" => Some(DataType::Float32),
        "f64" | "float64" => Some(DataType::Float64),
        "f16" | "float16" => Some(DataType::Float16),
        "i8" | "int8" => Some(DataType::Int8),
        "i32" | "int32" => Some(DataType::Int32),
        "i64" | "int64" => Some(DataType::Int64),
        "u8" | "uint8" => Some(DataType::Uint8),
        "bool" => Some(DataType::Bool),
        "bitset" => Some(DataType::Bitset),
        _ => None,
    }
}

/// Concrete inference: propagate `input_shapes` (plus parameter shapes)
/// through every node reachable in topological order. Returns the inferred
/// shapes; defects are appended to `lints`. Nodes whose inputs could not be
/// inferred (upstream failure, undefined input) are skipped — the upstream
/// lint already covers them.
pub fn infer(
    ir: &GraphIr,
    input_shapes: &[(&str, Shape)],
    input_dtypes: &[(&str, DataType)],
    lints: &mut Vec<Lint>,
) -> HashMap<String, Shape> {
    let mut shapes: HashMap<String, Shape> = HashMap::new();
    let mut dtypes: HashMap<String, DataType> = HashMap::new();
    for (name, s) in input_shapes {
        shapes.insert(name.to_string(), s.clone());
    }
    for (name, t) in input_dtypes {
        dtypes.insert(name.to_string(), *t);
    }
    for (name, s) in &ir.params {
        shapes.insert(name.clone(), s.clone());
    }

    let (order, _) = ir.topo_order_lenient();
    for idx in order {
        let node = &ir.nodes[idx];
        let op = match registry::create_op(&node.op_type, &node.attrs) {
            Ok(op) => op,
            Err(e) => {
                lints.push(
                    Lint::new(
                        LintCode::UnknownOp,
                        format!(
                            "node '{}': cannot instantiate operator '{}': {e}",
                            node.name, node.op_type
                        ),
                    )
                    .with_node(node.name.as_str()),
                );
                continue;
            }
        };
        if op.num_inputs() != node.inputs.len() || op.num_outputs() != node.outputs.len() {
            lints.push(
                Lint::new(
                    LintCode::ArityMismatch,
                    format!(
                        "node '{}': operator {} expects {} inputs / {} outputs, node \
                         lists {} / {}",
                        node.name,
                        node.op_type,
                        op.num_inputs(),
                        op.num_outputs(),
                        node.inputs.len(),
                        node.outputs.len()
                    ),
                )
                .with_node(node.name.as_str()),
            );
            continue;
        }

        // Dtype check: all inferred input dtypes must agree (default f32).
        let in_dtypes: Vec<DataType> = node
            .inputs
            .iter()
            .map(|n| dtypes.get(n).copied().unwrap_or_default())
            .collect();
        if let Some(&first) = in_dtypes.first() {
            if let Some((pos, &bad)) = in_dtypes.iter().enumerate().find(|&(_, &d)| d != first) {
                lints.push(
                    Lint::new(
                        LintCode::DtypeMismatch,
                        format!(
                            "node '{}': input '{}' is {:?} but input '{}' is {:?}",
                            node.name, node.inputs[0], first, node.inputs[pos], bad
                        ),
                    )
                    .with_node(node.name.as_str())
                    .with_tensor(node.inputs[pos].as_str()),
                );
            }
        }
        let out_dtype = node
            .attrs
            .get("dtype")
            .and_then(|v| match v {
                deep500_ops::registry::AttrValue::Str(s) => parse_dtype(s),
                _ => None,
            })
            .or_else(|| in_dtypes.first().copied())
            .unwrap_or_default();
        for o in &node.outputs {
            dtypes.insert(o.clone(), out_dtype);
        }

        // Shape propagation through the operator's own shape function.
        let in_shapes: Option<Vec<&Shape>> = node.inputs.iter().map(|n| shapes.get(n)).collect();
        let Some(in_shapes) = in_shapes else {
            continue; // upstream already linted (use-before-def / failed node)
        };
        match op.output_shapes(&in_shapes) {
            Ok(outs) => {
                for (name, s) in node.outputs.iter().zip(outs) {
                    shapes.insert(name.clone(), s);
                }
            }
            Err(e) => {
                let edges: Vec<String> = node
                    .inputs
                    .iter()
                    .zip(&in_shapes)
                    .map(|(n, s)| format!("'{n}': {s}"))
                    .collect();
                lints.push(
                    Lint::new(
                        LintCode::ShapeMismatch,
                        format!(
                            "node '{}' ({}): {e}; input edges {}",
                            node.name,
                            node.op_type,
                            edges.join(", ")
                        ),
                    )
                    .with_node(node.name.as_str())
                    .with_tensor(node.inputs.first().cloned().unwrap_or_default()),
                );
            }
        }
    }
    shapes
}

/// Symbolic inference by dual concrete evaluation at [`PROBE_BATCHES`].
/// Returns the symbolic shape of every tensor inferred at *both* probe
/// sizes. Lints from the first probe are kept (the second evaluates the
/// same graph; duplicating its findings would double-report).
pub fn infer_symbolic(
    ir: &GraphIr,
    input_shapes: &[(&str, SymShape)],
    lints: &mut Vec<Lint>,
) -> HashMap<String, SymShape> {
    let [n0, n1] = PROBE_BATCHES;
    let lo: Vec<(&str, Shape)> = input_shapes.iter().map(|(n, s)| (*n, s.at(n0))).collect();
    let hi: Vec<(&str, Shape)> = input_shapes.iter().map(|(n, s)| (*n, s.at(n1))).collect();
    let shapes0 = infer(ir, &lo, &[], lints);
    let mut scratch = Vec::new();
    let shapes1 = infer(ir, &hi, &[], &mut scratch);

    let mut sym: HashMap<String, SymShape> = HashMap::new();
    // A tensor inferable at one probe size but not the other means some
    // batch-pinned construct (e.g. a fixed-target Reshape) broke: symbolic
    // conclusions do not transfer across batch sizes.
    let mut one_sided: Vec<&String> = shapes0
        .keys()
        .filter(|n| !shapes1.contains_key(*n))
        .chain(shapes1.keys().filter(|n| !shapes0.contains_key(*n)))
        .collect();
    one_sided.sort_unstable();
    for name in one_sided {
        lints.push(
            Lint::new(
                LintCode::NonAffineBatch,
                format!(
                    "tensor '{name}' has a shape at batch N={n0} xor N={n1}: a \
                     batch-pinned construct (fixed reshape/split) blocks symbolic \
                     batch propagation"
                ),
            )
            .with_tensor(name.as_str()),
        );
    }
    for (name, s0) in &shapes0 {
        let Some(s1) = shapes1.get(name) else {
            continue;
        };
        if s0.rank() != s1.rank() {
            lints.push(
                Lint::new(
                    LintCode::NonAffineBatch,
                    format!(
                        "tensor '{name}' changes rank with the batch size: {s0} at N={n0} \
                         vs {s1} at N={n1}"
                    ),
                )
                .with_tensor(name.as_str()),
            );
            continue;
        }
        let mut dims = Vec::with_capacity(s0.rank());
        let mut affine = true;
        for (d0, d1) in s0.dims().iter().zip(s1.dims()) {
            match SymDim::solve(n0, *d0, n1, *d1) {
                Some(d) => dims.push(d),
                None => {
                    lints.push(
                        Lint::new(
                            LintCode::NonAffineBatch,
                            format!(
                                "tensor '{name}' has a non-affine batch dimension: {s0} at \
                                 N={n0} vs {s1} at N={n1}"
                            ),
                        )
                        .with_tensor(name.as_str()),
                    );
                    affine = false;
                    break;
                }
            }
        }
        if affine {
            sym.insert(name.clone(), SymShape { dims });
        }
    }
    sym
}
