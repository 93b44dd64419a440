//! The custom-operator registry — the Rust analogue of `D500_REGISTER_OP`.
//!
//! The paper's Level 0 "allows to integrate new custom operators with real
//! datasets, networks, or frameworks, without having to implement other
//! operators". Here, an operator type registers a *factory* under its name;
//! networks and the d5nx format then instantiate operators by
//! `(name, attributes)` pairs, so user-defined operators are
//! indistinguishable from built-ins.

use crate::activation::{ActivationOp, SoftmaxOp};
use crate::conv::{Conv2dOp, ConvAlgorithm};
use crate::elementwise::{BinaryOp, ScaleOp, SqrtOp};
use crate::gemm::{Algorithm, MatMulOp};
use crate::global_pool::GlobalAvgPoolOp;
use crate::linear::LinearOp;
use crate::loss::{MseLossOp, SoftmaxCrossEntropyOp};
use crate::norm_ops::BatchNormOp;
use crate::operator::Operator;
use crate::pool::Pool2dOp;
use crate::shape_ops::{ConcatOp, DropoutOp, FlattenOp, ReshapeOp, SplitOp};
use deep500_tensor::{Error, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// An attribute value attached to an operator instance (mirrors ONNX node
/// attributes).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Int(i64),
    Float(f64),
    Ints(Vec<i64>),
    Str(String),
}

/// A set of named attributes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attributes {
    map: HashMap<String, AttrValue>,
}

impl Attributes {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, key: &str, value: AttrValue) -> Self {
        self.map.insert(key.to_string(), value);
        self
    }

    /// Builder-style integer attribute.
    pub fn with_int(self, key: &str, v: i64) -> Self {
        self.with(key, AttrValue::Int(v))
    }

    /// Builder-style float attribute.
    pub fn with_float(self, key: &str, v: f64) -> Self {
        self.with(key, AttrValue::Float(v))
    }

    /// Builder-style integer-list attribute.
    pub fn with_ints(self, key: &str, v: &[i64]) -> Self {
        self.with(key, AttrValue::Ints(v.to_vec()))
    }

    /// Builder-style string attribute.
    pub fn with_str(self, key: &str, v: &str) -> Self {
        self.with(key, AttrValue::Str(v.to_string()))
    }

    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.map.get(key)
    }

    /// Integer attribute with default.
    pub fn int_or(&self, key: &str, default: i64) -> i64 {
        match self.map.get(key) {
            Some(AttrValue::Int(v)) => *v,
            _ => default,
        }
    }

    /// Float attribute with default.
    pub fn float_or(&self, key: &str, default: f64) -> f64 {
        match self.map.get(key) {
            Some(AttrValue::Float(v)) => *v,
            Some(AttrValue::Int(v)) => *v as f64,
            _ => default,
        }
    }

    /// String attribute with default.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        match self.map.get(key) {
            Some(AttrValue::Str(v)) => v,
            _ => default,
        }
    }

    /// Integer-list attribute (empty if absent).
    pub fn ints(&self, key: &str) -> Vec<i64> {
        match self.map.get(key) {
            Some(AttrValue::Ints(v)) => v.clone(),
            _ => Vec::new(),
        }
    }

    /// Iterate over `(name, value)` pairs in deterministic (sorted) order —
    /// required by the d5nx encoder for reproducible bytes.
    pub fn iter_sorted(&self) -> Vec<(&String, &AttrValue)> {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Operator factory: builds an operator instance from attributes.
type OpFactory = Arc<dyn Fn(&Attributes) -> Result<Box<dyn Operator>> + Send + Sync>;

struct Registry {
    factories: RwLock<HashMap<String, OpFactory>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let r = Registry {
            factories: RwLock::new(HashMap::new()),
        };
        register_builtins(&r);
        r
    })
}

/// Register a custom operator factory under `name` (the Rust
/// `D500_REGISTER_OP`). Re-registering a name replaces the factory, which
/// lets experiments shadow built-ins with custom implementations.
pub fn register_op(
    name: &str,
    factory: impl Fn(&Attributes) -> Result<Box<dyn Operator>> + Send + Sync + 'static,
) {
    registry()
        .factories
        .write()
        .insert(name.to_string(), Arc::new(factory));
}

/// Instantiate a registered operator.
pub fn create_op(name: &str, attrs: &Attributes) -> Result<Box<dyn Operator>> {
    let factory = registry()
        .factories
        .read()
        .get(name)
        .cloned()
        .ok_or_else(|| Error::NotFound(format!("operator '{name}' is not registered")))?;
    factory(attrs)
}

/// Whether an operator name is registered.
pub fn is_registered(name: &str) -> bool {
    registry().factories.read().contains_key(name)
}

fn parse_gemm_algo(attrs: &Attributes) -> Result<Algorithm> {
    match attrs.str_or("algorithm", "packed") {
        "naive" => Ok(Algorithm::Naive),
        "blocked" => Ok(Algorithm::Blocked),
        "parallel" => Ok(Algorithm::Parallel),
        "packed" => Ok(Algorithm::Packed),
        other => Err(Error::Invalid(format!(
            "GEMM attribute algorithm = \"{other}\" names no tier (naive, blocked, parallel, packed)"
        ))),
    }
}

/// `epilogue = "relu"` folds a downstream ReLU into the GEMM write-back
/// (installed by the graph crate's epilogue-fusion transform).
fn parse_gemm_epilogue(attrs: &Attributes) -> bool {
    attrs.str_or("epilogue", "") == "relu"
}

fn register_builtins(r: &Registry) {
    let mut f = r.factories.write();
    let mut reg = |name: &str, factory: OpFactory| {
        f.insert(name.to_string(), factory);
    };
    reg(
        "MatMul",
        Arc::new(|a: &Attributes| {
            Ok(
                Box::new(MatMulOp::new(parse_gemm_algo(a)?).with_relu(parse_gemm_epilogue(a)))
                    as Box<dyn Operator>,
            )
        }),
    );
    reg(
        "Linear",
        Arc::new(|a: &Attributes| {
            Ok(
                Box::new(LinearOp::new(parse_gemm_algo(a)?).with_relu(parse_gemm_epilogue(a)))
                    as Box<dyn Operator>,
            )
        }),
    );
    reg(
        "Conv2d",
        Arc::new(|a: &Attributes| {
            Ok(Box::new(
                Conv2dOp::new(
                    a.int_or("stride", 1) as usize,
                    a.int_or("pad", 0) as usize,
                    ConvAlgorithm::parse(a.str_or("algorithm", "direct"))?,
                )
                .with_relu(parse_gemm_epilogue(a)),
            ) as Box<dyn Operator>)
        }),
    );
    reg(
        "MaxPool2d",
        Arc::new(|a: &Attributes| {
            Ok(Box::new(Pool2dOp::max(
                a.int_or("kernel", 2) as usize,
                a.int_or("stride", 2) as usize,
            )) as Box<dyn Operator>)
        }),
    );
    reg(
        "AvgPool2d",
        Arc::new(|a: &Attributes| {
            Ok(Box::new(Pool2dOp::average(
                a.int_or("kernel", 2) as usize,
                a.int_or("stride", 2) as usize,
            )) as Box<dyn Operator>)
        }),
    );
    reg(
        "MedianPool2d",
        Arc::new(|a: &Attributes| {
            Ok(Box::new(Pool2dOp::median(
                a.int_or("kernel", 2) as usize,
                a.int_or("stride", 2) as usize,
            )) as Box<dyn Operator>)
        }),
    );
    reg(
        "Relu",
        Arc::new(|_| Ok(Box::new(ActivationOp::relu()) as _)),
    );
    reg(
        "Sigmoid",
        Arc::new(|_| Ok(Box::new(ActivationOp::sigmoid()) as _)),
    );
    reg(
        "Tanh",
        Arc::new(|_| Ok(Box::new(ActivationOp::tanh()) as _)),
    );
    reg("Softmax", Arc::new(|_| Ok(Box::new(SoftmaxOp) as _)));
    reg("Add", Arc::new(|_| Ok(Box::new(BinaryOp::add()) as _)));
    reg("Sub", Arc::new(|_| Ok(Box::new(BinaryOp::sub()) as _)));
    reg("Mul", Arc::new(|_| Ok(Box::new(BinaryOp::mul()) as _)));
    reg("Div", Arc::new(|_| Ok(Box::new(BinaryOp::div()) as _)));
    reg("Sqrt", Arc::new(|_| Ok(Box::new(SqrtOp) as _)));
    reg(
        "Scale",
        Arc::new(|a: &Attributes| {
            Ok(Box::new(ScaleOp::new(
                a.float_or("alpha", 1.0) as f32,
                a.float_or("beta", 0.0) as f32,
            )) as _)
        }),
    );
    reg(
        "BatchNorm",
        Arc::new(|a: &Attributes| {
            Ok(Box::new(BatchNormOp {
                eps: a.float_or("eps", 1e-5) as f32,
            }) as _)
        }),
    );
    reg(
        "SoftmaxCrossEntropy",
        Arc::new(|_| Ok(Box::new(SoftmaxCrossEntropyOp) as _)),
    );
    reg("MseLoss", Arc::new(|_| Ok(Box::new(MseLossOp) as _)));
    reg("Flatten", Arc::new(|_| Ok(Box::new(FlattenOp) as _)));
    reg(
        "GlobalAvgPool",
        Arc::new(|_| Ok(Box::new(GlobalAvgPoolOp) as _)),
    );
    reg(
        "Reshape",
        Arc::new(|a: &Attributes| {
            let target: Vec<usize> = a.ints("shape").iter().map(|&v| v as usize).collect();
            if target.is_empty() {
                return Err(Error::Invalid("Reshape requires 'shape' attribute".into()));
            }
            Ok(Box::new(ReshapeOp::new(&target)) as _)
        }),
    );
    reg(
        "Split",
        Arc::new(|a: &Attributes| {
            let sizes: Vec<usize> = a.ints("sizes").iter().map(|&v| v as usize).collect();
            if sizes.is_empty() {
                return Err(Error::Invalid("Split requires 'sizes' attribute".into()));
            }
            Ok(Box::new(SplitOp::new(&sizes)) as _)
        }),
    );
    reg(
        "Concat",
        Arc::new(|a: &Attributes| {
            Ok(Box::new(ConcatOp::new(a.int_or("num_inputs", 2) as usize)) as _)
        }),
    );
    reg(
        "Dropout",
        Arc::new(|a: &Attributes| {
            // A graph file is untrusted: refuse what `DropoutOp::new`
            // would assert on (NaN included) instead of panicking.
            let ratio = a.float_or("ratio", 0.5) as f32;
            if !(0.0..1.0).contains(&ratio) {
                return Err(Error::Invalid(format!(
                    "Dropout ratio {ratio} is outside [0, 1)"
                )));
            }
            Ok(Box::new(DropoutOp::new(ratio, a.int_or("seed", 0) as u64)) as _)
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_tensor::{Shape, Tensor};

    #[test]
    fn builtins_are_registered() {
        for name in [
            "MatMul",
            "Conv2d",
            "Linear",
            "MaxPool2d",
            "MedianPool2d",
            "Relu",
            "Softmax",
            "Add",
            "SoftmaxCrossEntropy",
            "Split",
            "Concat",
            "BatchNorm",
            "Dropout",
        ] {
            assert!(is_registered(name), "{name} missing");
        }
        assert!(!is_registered("Nonexistent"));
        assert!(registry().factories.read().len() >= 20);
    }

    #[test]
    fn create_conv_with_attributes() {
        let attrs = Attributes::new()
            .with_int("stride", 2)
            .with_int("pad", 1)
            .with_str("algorithm", "direct");
        let op = create_op("Conv2d", &attrs).unwrap();
        let x = Shape::new(&[1, 1, 5, 5]);
        let w = Shape::new(&[1, 1, 3, 3]);
        let b = Shape::new(&[1]);
        let out = op.output_shapes(&[&x, &w, &b]).unwrap();
        assert_eq!(out[0], Shape::new(&[1, 1, 3, 3]));
    }

    #[test]
    fn unknown_op_errors() {
        assert!(create_op("NoSuchOp", &Attributes::new()).is_err());
    }

    #[test]
    fn custom_registration_mirrors_d500_register_op() {
        struct Negate;
        impl Operator for Negate {
            fn name(&self) -> &str {
                "Negate"
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn output_shapes(&self, s: &[&Shape]) -> deep500_tensor::Result<Vec<Shape>> {
                Ok(vec![s[0].clone()])
            }
            fn forward(&self, inputs: &[&Tensor]) -> deep500_tensor::Result<Vec<Tensor>> {
                Ok(vec![inputs[0].scale(-1.0)])
            }
            fn backward(
                &self,
                g: &[&Tensor],
                _i: &[&Tensor],
                _o: &[&Tensor],
            ) -> deep500_tensor::Result<Vec<Tensor>> {
                Ok(vec![g[0].scale(-1.0)])
            }
        }
        register_op("Negate", |_| Ok(Box::new(Negate)));
        assert!(is_registered("Negate"));
        let op = create_op("Negate", &Attributes::new()).unwrap();
        let x = Tensor::from_slice(&[1.0, -2.0]);
        let y = op.forward(&[&x]).unwrap();
        assert_eq!(y[0].data(), &[-1.0, 2.0]);
    }

    #[test]
    fn attribute_accessors() {
        let a = Attributes::new()
            .with_int("i", 3)
            .with_float("f", 2.5)
            .with_str("s", "hello")
            .with_ints("l", &[1, 2]);
        assert_eq!(a.int_or("i", 0), 3);
        assert_eq!(a.int_or("missing", 7), 7);
        assert_eq!(a.float_or("f", 0.0), 2.5);
        assert_eq!(a.float_or("i", 0.0), 3.0); // int coerces
        assert_eq!(a.str_or("s", ""), "hello");
        assert_eq!(a.ints("l"), vec![1, 2]);
        assert_eq!(a.len(), 4);
        let sorted = a.iter_sorted();
        assert_eq!(sorted[0].0, "f");
    }

    #[test]
    fn reshape_requires_shape_attr() {
        assert!(create_op("Reshape", &Attributes::new()).is_err());
        let op = create_op("Reshape", &Attributes::new().with_ints("shape", &[2, 2])).unwrap();
        assert_eq!(op.name(), "Reshape");
    }
}
