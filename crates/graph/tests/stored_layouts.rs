//! Stored graphs that use the retired ahead-of-time filter layout — a
//! `Conv2d` tagged `weights_packed` / `w_dims`, a rank-1 filter edge, a
//! `PackConv2dFilter` node — a node of another retired operator type, or
//! an `algorithm` attribute that is missing, the retired `auto` selector,
//! or no tier at all, are untrusted bytes like any other. Each case
//! round-trips through d5nx and either runs exactly like its
//! natural-layout (or explicitly tiered) twin or fails with a typed error;
//! none panics.

use deep500_graph::compile::{compile, CompileOptions};
use deep500_graph::format::{decode, encode};
use deep500_graph::models::zoo;
use deep500_graph::{Engine, ExecutorKind, Network};
use deep500_ops::registry::Attributes;
use deep500_tensor::{Error, Result, Shape, Tensor};

const X: [usize; 4] = [2, 2, 6, 6];

fn conv_attrs() -> Attributes {
    Attributes::new()
        .with_int("stride", 1)
        .with_int("pad", 1)
        .with_str("algorithm", "direct")
}

/// `x` through one conv with filter `w` and the given attributes.
fn conv_net(attrs: Attributes, w: Tensor) -> Network {
    let mut net = Network::new("stored");
    net.add_input("x");
    net.add_parameter("w", w);
    net.add_parameter("b", Tensor::from_slice(&[0.1, -0.2, 0.3]));
    net.add_node("c", "Conv2d", attrs, &["x", "w", "b"], &["y"])
        .unwrap();
    net.add_output("y");
    net
}

fn filter(dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
    Tensor::from_vec(Shape::new(dims), data).unwrap()
}

fn x() -> Tensor {
    let n: usize = X.iter().product();
    Tensor::from_vec(X, (0..n).map(|i| (i as f32 * 0.11).cos()).collect()).unwrap()
}

fn roundtrip(net: &Network) -> Result<Network> {
    decode(&encode(net))
}

fn run(net: Network, kind: ExecutorKind) -> Result<Vec<u32>> {
    let engine = Engine::builder(net).executor(kind).build()?;
    let y = engine.session().infer(&[("x", x())])?.remove("y").unwrap();
    Ok(y.data().iter().map(|v| v.to_bits()).collect())
}

#[test]
fn a_leftover_weights_packed_attribute_runs_like_the_natural_conv() {
    let natural = conv_net(conv_attrs(), filter(&[3, 2, 3, 3]));
    let leftover = conv_attrs()
        .with_int("weights_packed", 1)
        .with_ints("w_dims", &[3, 2, 3, 3]);
    let stored = conv_net(leftover, filter(&[3, 2, 3, 3]));
    for kind in [ExecutorKind::Reference, ExecutorKind::Planned] {
        let want = run(roundtrip(&natural).unwrap(), kind).unwrap();
        let got = run(roundtrip(&stored).unwrap(), kind).unwrap();
        assert_eq!(got, want, "{kind:?}");
    }
}

#[test]
fn a_rank_1_filter_edge_is_refused_at_build() {
    let len = deep500_ops::conv::direct::packed_filter_len(3, 2 * 3 * 3);
    let attrs = conv_attrs()
        .with_int("weights_packed", 1)
        .with_ints("w_dims", &[3, 2, 3, 3]);
    let stored = roundtrip(&conv_net(attrs, filter(&[len]))).unwrap();
    let Err(err) = Engine::builder(stored.clone_structure())
        .input_shape("x", Shape::new(&X))
        .compile(CompileOptions::default())
        .build()
    else {
        panic!("a rank-1 filter must be refused");
    };
    assert!(matches!(err, Error::Validation(_)), "{err}");
    // Built without the compile gate, the pass itself refuses the filter.
    for kind in [ExecutorKind::Reference, ExecutorKind::Planned] {
        let err = run(stored.clone_structure(), kind).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch(_)), "{kind:?}: {err}");
    }
}

/// Decode a stored graph holding a one-input node of type `op`, which
/// must be refused as an unknown operator.
fn assert_refused_on_decode(op: &str) {
    // The encoder writes only registered operators, so store a `Flatten`
    // node (same arity) and rename it in the bytes: every d5nx string is
    // length-prefixed, so the splice leaves a well-formed file.
    assert!(op.len() < 0x80, "the splice writes a one-byte length");
    let mut net = conv_net(conv_attrs(), filter(&[3, 2, 3, 3]));
    net.add_node("pack", "Flatten", Attributes::new(), &["w"], &["w::packed"])
        .unwrap();
    let bytes = encode(&net);
    let old = [&[7u8][..], b"Flatten"].concat();
    let at = bytes
        .windows(old.len())
        .position(|w| w == old)
        .expect("the Flatten op type is in the encoding");
    let spliced = [
        &bytes[..at],
        &[op.len() as u8][..],
        op.as_bytes(),
        &bytes[at + old.len()..],
    ]
    .concat();
    let Err(err) = decode(&spliced) else {
        panic!("{op} is not an operator");
    };
    assert!(matches!(err, Error::NotFound(_)), "{err}");
    assert!(err.to_string().contains(op), "{err}");
}

#[test]
fn a_pack_conv2d_filter_node_is_refused_on_decode() {
    assert_refused_on_decode("PackConv2dFilter");
}

/// Compiling registers no operator, so what a decode accepts does not
/// depend on whether the process compiled a graph before.
#[test]
fn a_fused_elementwise_node_is_refused_on_decode_after_a_compile() {
    let case = zoo().swap_remove(0);
    let mut net = case.net.clone_structure();
    compile(&mut net, &case.input_shapes(), &CompileOptions::default()).unwrap();
    assert_refused_on_decode("FusedElementwise");
}

#[test]
fn a_stored_unknown_conv_tier_decodes_and_is_refused_at_build() {
    let attrs = conv_attrs().with_str("algorithm", "winograd");
    let stored = roundtrip(&conv_net(attrs, filter(&[3, 2, 3, 3]))).unwrap();
    for kind in [ExecutorKind::Reference, ExecutorKind::Planned] {
        let err = run(stored.clone_structure(), kind).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{kind:?}: {err}");
        assert!(
            err.to_string().contains("algorithm = \"winograd\""),
            "{kind:?}: {err}"
        );
    }
}

#[test]
fn a_stored_auto_conv_runs_like_an_explicit_direct_one() {
    let direct = conv_net(conv_attrs(), filter(&[3, 2, 3, 3]));
    let auto = conv_net(
        conv_attrs().with_str("algorithm", "auto"),
        filter(&[3, 2, 3, 3]),
    );
    for kind in [ExecutorKind::Reference, ExecutorKind::Planned] {
        let want = run(roundtrip(&direct).unwrap(), kind).unwrap();
        let got = run(roundtrip(&auto).unwrap(), kind).unwrap();
        assert_eq!(got, want, "{kind:?}");
    }
}

#[test]
fn a_conv_without_an_algorithm_attribute_runs_like_an_explicit_direct_one() {
    let direct = conv_net(conv_attrs(), filter(&[3, 2, 3, 3]));
    let bare = Attributes::new().with_int("stride", 1).with_int("pad", 1);
    let bare = conv_net(bare, filter(&[3, 2, 3, 3]));
    for kind in [ExecutorKind::Reference, ExecutorKind::Planned] {
        let want = run(roundtrip(&direct).unwrap(), kind).unwrap();
        let got = run(roundtrip(&bare).unwrap(), kind).unwrap();
        assert_eq!(got, want, "{kind:?}");
    }
}

#[test]
fn an_unknown_gemm_tier_is_refused_and_a_missing_one_means_packed() {
    let linear = |attrs: Attributes| {
        let mut net = Network::new("stored_linear");
        net.add_input("x");
        net.add_parameter("w", filter(&[3, 4]));
        net.add_parameter("b", Tensor::from_slice(&[0.1, -0.2, 0.3]));
        net.add_node("fc", "Linear", attrs, &["x", "w", "b"], &["y"])
            .unwrap();
        net.add_output("y");
        roundtrip(&net).unwrap()
    };
    let run_linear = |net: Network, kind| -> Result<Vec<u32>> {
        let engine = Engine::builder(net).executor(kind).build()?;
        let x = Tensor::from_vec([2, 4], (0..8).map(|i| (i as f32 * 0.3).cos()).collect())?;
        let y = engine.session().infer(&[("x", x)])?.remove("y").unwrap();
        Ok(y.data().iter().map(|v| v.to_bits()).collect())
    };
    for kind in [ExecutorKind::Reference, ExecutorKind::Planned] {
        let unknown = Attributes::new().with_str("algorithm", "strassen");
        let err = run_linear(linear(unknown), kind).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{kind:?}: {err}");
        assert!(
            err.to_string().contains("algorithm = \"strassen\""),
            "{kind:?}: {err}"
        );
        let packed = Attributes::new().with_str("algorithm", "packed");
        let want = run_linear(linear(packed), kind).unwrap();
        assert_eq!(
            run_linear(linear(Attributes::new()), kind).unwrap(),
            want,
            "{kind:?}"
        );
    }
}
