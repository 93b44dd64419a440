//! Stored graphs that use the retired ahead-of-time filter layout — a
//! `Conv2d` tagged `weights_packed` / `w_dims`, a rank-1 filter edge, a
//! `PackConv2dFilter` node — are untrusted bytes like any other. Each case
//! round-trips through d5nx and either runs exactly like its natural-layout
//! twin or fails with a typed error; none panics.

use deep500_graph::compile::CompileOptions;
use deep500_graph::format::{decode, encode};
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
        .compile(CompileOptions::inference())
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

#[test]
fn a_pack_conv2d_filter_node_is_refused_on_decode() {
    // The encoder writes only registered operators, so store a `Flatten`
    // node (same arity) and rename it in the bytes: every d5nx string is
    // length-prefixed, so the splice leaves a well-formed file.
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
        &[16u8][..],
        b"PackConv2dFilter",
        &bytes[at + old.len()..],
    ]
    .concat();
    let Err(err) = decode(&spliced) else {
        panic!("PackConv2dFilter is not an operator");
    };
    assert!(matches!(err, Error::NotFound(_)), "{err}");
    assert!(err.to_string().contains("PackConv2dFilter"), "{err}");
}
