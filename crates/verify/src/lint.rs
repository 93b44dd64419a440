//! The lint model: typed diagnostics with severities and `--explain`-style
//! rendering.
//!
//! `deep500-verify` is a lint engine for *models*, not a boolean check: every
//! pass emits [`Lint`]s carrying a stable [`LintCode`], the offending node
//! and edge (tensor) names, and a one-line message. A [`VerifyReport`]
//! aggregates the lints of a pipeline run; executors gate on
//! [`VerifyReport::deny_count`].

use std::collections::HashMap;
use std::fmt;

/// How a lint affects the verification verdict, mirroring rustc lint levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Severity {
    /// Suppressed: recorded for completeness but never rendered by default.
    Allow,
    /// Suspicious but not provably wrong; does not fail the gate.
    #[default]
    Warn,
    /// Provably wrong; the gate rejects the graph.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Allow => write!(f, "allow"),
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// Stable identifier of each static-analysis finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintCode {
    /// A node consumes a tensor that no node produces and that is neither a
    /// graph input, a parameter, nor a pre-fed value.
    UseBeforeDef,
    /// The dataflow graph contains a dependency cycle.
    Cycle,
    /// Two nodes write the same tensor name.
    DuplicateWriter,
    /// A declared graph output is never produced.
    DanglingFetch,
    /// A declared graph input is never consumed.
    DanglingFeed,
    /// A node whose outputs are neither consumed nor fetched.
    DeadNode,
    /// An operator rejected its input shapes (GEMM/conv/elementwise
    /// mismatch) or produced fewer outputs than the node declares.
    ShapeMismatch,
    /// Mixed element types flowing into one node.
    DtypeMismatch,
    /// The node's input/output count disagrees with the operator's arity.
    ArityMismatch,
    /// The node's operator type is not in the registry, or the registry
    /// factory rejected its attributes.
    UnknownOp,
    /// A tensor dimension does not vary affinely with the symbolic batch
    /// size (shape inference cannot summarize it as `a·N + b`).
    NonAffineBatch,
    /// Wavefront aliasing: a tensor is written and read (or written twice)
    /// within one concurrent level, so pooled buffers could alias live data.
    SameLevelHazard,
    /// Transform safety: a tensor surviving a graph transform changed its
    /// inferred shape.
    ShapeDrift,
    /// Transform safety: the transform changed the declared graph
    /// inputs/outputs.
    InterfaceDrift,
    /// Transform safety: the transform dropped or reshaped parameters.
    ParamDrift,
    /// Plan soundness: a step reads an environment tensor after the plan
    /// already recycled its buffer (death level before the read), or a
    /// value is read before any ordered step defines it.
    PlanLivenessGap,
}

impl LintCode {
    /// Stable short code, `V###`, for rendering and CLI filters.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UseBeforeDef => "V001",
            LintCode::Cycle => "V002",
            LintCode::DuplicateWriter => "V003",
            LintCode::DanglingFetch => "V004",
            LintCode::DanglingFeed => "V005",
            LintCode::DeadNode => "V006",
            LintCode::ShapeMismatch => "V007",
            LintCode::DtypeMismatch => "V008",
            LintCode::ArityMismatch => "V009",
            LintCode::UnknownOp => "V010",
            LintCode::NonAffineBatch => "V011",
            LintCode::SameLevelHazard => "V012",
            LintCode::ShapeDrift => "V013",
            LintCode::InterfaceDrift => "V014",
            LintCode::ParamDrift => "V015",
            // V016 is retired with the ahead-of-time filter layout it
            // checked, V017 and V019 with the static slot plan, V020 with
            // the operator memo annotations whose clauses V018 subsumed or
            // never had an input to check.
            LintCode::PlanLivenessGap => "V018",
        }
    }

    /// Every lint code, in `V###` order — rendering and explain-coverage
    /// tests iterate this so a newly added code cannot ship without its
    /// `code()`/`explain()` entries.
    pub fn all() -> &'static [LintCode] {
        &[
            LintCode::UseBeforeDef,
            LintCode::Cycle,
            LintCode::DuplicateWriter,
            LintCode::DanglingFetch,
            LintCode::DanglingFeed,
            LintCode::DeadNode,
            LintCode::ShapeMismatch,
            LintCode::DtypeMismatch,
            LintCode::ArityMismatch,
            LintCode::UnknownOp,
            LintCode::NonAffineBatch,
            LintCode::SameLevelHazard,
            LintCode::ShapeDrift,
            LintCode::InterfaceDrift,
            LintCode::ParamDrift,
            LintCode::PlanLivenessGap,
        ]
    }

    /// The severity every lint of this code carries.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::UseBeforeDef
            | LintCode::Cycle
            | LintCode::DuplicateWriter
            | LintCode::DanglingFetch
            | LintCode::ShapeMismatch
            | LintCode::DtypeMismatch
            | LintCode::ArityMismatch
            | LintCode::UnknownOp
            | LintCode::SameLevelHazard
            | LintCode::ShapeDrift
            | LintCode::InterfaceDrift
            | LintCode::PlanLivenessGap => Severity::Deny,
            LintCode::DanglingFeed | LintCode::DeadNode | LintCode::NonAffineBatch => {
                Severity::Warn
            }
            LintCode::ParamDrift => Severity::Warn,
        }
    }

    /// Long-form `--explain` text: what the lint means, why it is a defect,
    /// and what usually causes it.
    pub fn explain(self) -> &'static str {
        match self {
            LintCode::UseBeforeDef => {
                "A node reads a tensor name that nothing defines: it is not produced by \
                 any node and is not a graph input, parameter, or pre-fed value. At \
                 execution time the environment lookup for this edge would fail. Usual \
                 cause: a typo in an input name or a node that was removed without \
                 rewiring its consumers."
            }
            LintCode::Cycle => {
                "The tensor-name dataflow graph has a dependency cycle, so no \
                 topological execution order exists. Deep500 graphs are DAGs (ONNX \
                 semantics); recurrence must be expressed by unrolling."
            }
            LintCode::DuplicateWriter => {
                "Two nodes produce the same tensor name. Execution order would silently \
                 decide which value consumers observe, and the plan interpreter could \
                 even run both writers concurrently. Every tensor name must have exactly \
                 one producer (SSA discipline)."
            }
            LintCode::DanglingFetch => {
                "A declared graph output is never produced by any node, so fetching it \
                 after a pass would fail with NotFound."
            }
            LintCode::DanglingFeed => {
                "A declared graph input is never consumed by any node. The feed is dead \
                 weight: it is accounted against the memory limit but cannot influence \
                 any output."
            }
            LintCode::DeadNode => {
                "None of this node's outputs are consumed or fetched; the node burns \
                 FLOPs and memory without observable effect. Remove it or fetch its \
                 output."
            }
            LintCode::ShapeMismatch => {
                "Static shape inference rejected this node: the operator's shape \
                 function errored on the inferred input shapes (e.g. GEMM inner \
                 dimensions disagree, conv channel counts mismatch, or elementwise \
                 operands are not broadcast-compatible). The diagnostic names the node \
                 and the offending input edges with their inferred shapes."
            }
            LintCode::DtypeMismatch => {
                "Inputs of different element types flow into one node without an \
                 explicit cast. Deep500 tensors are f32 by default; a node may override \
                 its output dtype with a `dtype` attribute, and downstream consumers \
                 must then agree."
            }
            LintCode::ArityMismatch => {
                "The node lists a different number of inputs or outputs than its \
                 operator expects. instantiate_ops would reject this graph at executor \
                 construction."
            }
            LintCode::UnknownOp => {
                "The node's operator type is not registered (or its attributes were \
                 rejected by the factory), so no shape function or kernel exists for \
                 it."
            }
            LintCode::NonAffineBatch => {
                "The tensor's inferred dimensions do not vary affinely (a·N + b) with \
                 the symbolic batch size N. The shape engine verifies symbolic shapes \
                 by evaluating the graph at two batch sizes; a non-affine dimension \
                 means batch-size-dependent reshapes or attributes pin the shape, so \
                 symbolic conclusions do not transfer to other batch sizes."
            }
            LintCode::SameLevelHazard => {
                "A tensor is written and read (or written twice) by nodes scheduled in \
                 the same wavefront level. Levels run concurrently over pooled buffers; \
                 a same-level def/use pair would race on the buffer. A valid level \
                 partition places every producer strictly before its consumers."
            }
            LintCode::ShapeDrift => {
                "A tensor that survives a graph transform changed its inferred shape, \
                 so the transformed graph computes something dimensionally different \
                 from the original."
            }
            LintCode::InterfaceDrift => {
                "The transform changed the declared graph inputs or outputs; callers \
                 feeding/fetching by name would break."
            }
            LintCode::ParamDrift => {
                "The transform dropped or reshaped parameter tensors; optimizer state \
                 keyed by parameter name would silently desynchronize."
            }
            LintCode::PlanLivenessGap => {
                "A step reads an environment tensor outside the window in which the \
                 plan guarantees its buffer holds that value: either the tensor's \
                 death level precedes the reading step's level (the buffer may \
                 already be back in the pool), the tensor is never defined by \
                 any step ordered before the read, or a pinned graph output appears \
                 in a death list. Usual cause: a death list or level assignment \
                 edited out of sync with the dispatch schedule."
            }
        }
    }
}

/// One diagnostic from a verification pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Lint {
    pub code: LintCode,
    pub severity: Severity,
    /// Offending node name, when the lint is anchored to a node.
    pub node: Option<String>,
    /// Offending edge (tensor name), when anchored to an edge.
    pub tensor: Option<String>,
    /// One-line, sourced description of the finding.
    pub message: String,
}

impl Lint {
    pub fn new(code: LintCode, message: impl Into<String>) -> Lint {
        Lint {
            code,
            severity: code.default_severity(),
            node: None,
            tensor: None,
            message: message.into(),
        }
    }

    pub fn with_node(mut self, node: impl Into<String>) -> Lint {
        self.node = Some(node.into());
        self
    }

    pub fn with_tensor(mut self, tensor: impl Into<String>) -> Lint {
        self.tensor = Some(tensor.into());
        self
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code.code())?;
        if let Some(n) = &self.node {
            write!(f, " node '{n}'")?;
        }
        if let Some(t) = &self.tensor {
            write!(f, " edge '{t}'")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Aggregated result of running the pass pipeline.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    pub lints: Vec<Lint>,
    /// Inferred concrete shapes (tensor name -> rendered shape), when the
    /// shape pass ran.
    pub shapes: HashMap<String, String>,
    /// Pool-size lower bound in bytes from the aliasing pass, when it ran.
    pub pool_lower_bound: Option<usize>,
}

impl VerifyReport {
    /// Number of `Deny` lints — the gate criterion.
    pub fn deny_count(&self) -> usize {
        self.lints
            .iter()
            .filter(|l| l.severity == Severity::Deny)
            .count()
    }

    /// Number of `Warn` lints.
    pub fn warn_count(&self) -> usize {
        self.lints
            .iter()
            .filter(|l| l.severity == Severity::Warn)
            .count()
    }

    /// True when no lint denies the graph.
    pub fn passes(&self) -> bool {
        self.deny_count() == 0
    }

    /// Lints of a given code (for tests and targeted reporting).
    pub fn with_code(&self, code: LintCode) -> Vec<&Lint> {
        self.lints.iter().filter(|l| l.code == code).collect()
    }

    /// Render the report; with `explain`, each distinct lint code is
    /// followed by its long-form description (the `--explain` style).
    pub fn render(&self, explain: bool) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let mut seen: Vec<LintCode> = Vec::new();
        for lint in &self.lints {
            if lint.severity == Severity::Allow {
                continue;
            }
            let _ = writeln!(out, "{lint}");
            if explain && !seen.contains(&lint.code) {
                seen.push(lint.code);
                let _ = writeln!(
                    out,
                    "    = explain({}): {}",
                    lint.code.code(),
                    lint.code.explain()
                );
            }
        }
        let _ = writeln!(
            out,
            "verify: {} deny, {} warn ({} lints total)",
            self.deny_count(),
            self.warn_count(),
            self.lints.len()
        );
        out
    }

    /// Merge another report's findings into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        self.lints.extend(other.lints);
        self.shapes.extend(other.shapes);
        if other.pool_lower_bound.is_some() {
            self.pool_lower_bound = other.pool_lower_bound;
        }
    }
}
