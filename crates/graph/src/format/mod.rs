//! The **d5nx** binary network-exchange format (our ONNX substitute).
//!
//! The paper stores DNNs reproducibly in ONNX and extends it with loss /
//! optimization operators plus user-defined operators. d5nx plays that
//! role here: a compact, versioned, deterministic binary encoding of a
//! [`Network`] — nodes with attributes, initializers (parameters), and
//! declared graph inputs/outputs. Loading follows the two-step pipeline of
//! the paper's Fig. 4: bytes → object-oriented [`Network`] → (optionally) a
//! backend-specific lowering via the
//! [`NetworkVisitor`](crate::visitor::NetworkVisitor).
//!
//! Layout (all integers LEB128 varints, strings length-prefixed UTF-8,
//! floats little-endian):
//!
//! ```text
//! "D5NX" | format_version | opset_version | name
//! inputs: count, name*        outputs: count, name*
//! params: count, (name, rank, dim*, f32_data*)*
//! nodes:  count, (name, op_type, attr_count,
//!                 (key, tag, value)*, in_count, in*, out_count, out*)*
//! ```

pub mod varint;

use crate::network::Network;
use deep500_ops::registry::{AttrValue, Attributes};
use deep500_tensor::{Error, Result, Shape, Tensor};
use varint::{
    read_count, read_string, read_u64, write_string, write_u64, zigzag_decode, zigzag_encode,
};

/// Magic bytes at the start of every d5nx file.
pub const MAGIC: &[u8; 4] = b"D5NX";
/// Current format version.
pub const FORMAT_VERSION: u64 = 1;
/// Operator-set version (bumped when built-in operator semantics change).
pub const OPSET_VERSION: u64 = 3;

fn write_attr(buf: &mut Vec<u8>, key: &str, value: &AttrValue) {
    write_string(buf, key);
    match value {
        AttrValue::Int(v) => {
            buf.push(0);
            write_u64(buf, zigzag_encode(*v));
        }
        AttrValue::Float(v) => {
            buf.push(1);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        AttrValue::Ints(vs) => {
            buf.push(2);
            write_u64(buf, vs.len() as u64);
            for v in vs {
                write_u64(buf, zigzag_encode(*v));
            }
        }
        AttrValue::Str(s) => {
            buf.push(3);
            write_string(buf, s);
        }
    }
}

fn read_attr(buf: &[u8], pos: &mut usize) -> Result<(String, AttrValue)> {
    let key = read_string(buf, pos)?;
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| Error::Format("truncated attribute tag".into()))?;
    *pos += 1;
    let value = match tag {
        0 => AttrValue::Int(zigzag_decode(read_u64(buf, pos)?)),
        1 => {
            if *pos + 8 > buf.len() {
                return Err(Error::Format("truncated float attribute".into()));
            }
            let v = f64::from_le_bytes(buf[*pos..*pos + 8].try_into().unwrap());
            *pos += 8;
            AttrValue::Float(v)
        }
        2 => {
            let n = read_count(buf, pos)?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(zigzag_decode(read_u64(buf, pos)?));
            }
            AttrValue::Ints(vs)
        }
        3 => AttrValue::Str(read_string(buf, pos)?),
        t => return Err(Error::Format(format!("unknown attribute tag {t}"))),
    };
    Ok((key, value))
}

/// Serialize a network to d5nx bytes. Deterministic: attributes are written
/// in sorted key order, parameters in registration order.
pub fn encode(net: &Network) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    write_u64(&mut buf, FORMAT_VERSION);
    write_u64(&mut buf, OPSET_VERSION);
    write_string(&mut buf, &net.name);

    write_u64(&mut buf, net.graph_inputs().len() as u64);
    for name in net.graph_inputs() {
        write_string(&mut buf, name);
    }
    write_u64(&mut buf, net.graph_outputs().len() as u64);
    for name in net.graph_outputs() {
        write_string(&mut buf, name);
    }

    let params = net.get_params();
    write_u64(&mut buf, params.len() as u64);
    for pname in params {
        let t = net.fetch_tensor(pname).expect("registered parameter");
        write_string(&mut buf, pname);
        write_u64(&mut buf, t.shape().rank() as u64);
        for &d in t.shape().dims() {
            write_u64(&mut buf, d as u64);
        }
        for v in t.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    let nodes: Vec<_> = net.nodes().collect();
    write_u64(&mut buf, nodes.len() as u64);
    for (_, node) in nodes {
        write_string(&mut buf, &node.name);
        write_string(&mut buf, &node.op_type);
        let attrs = node.attrs.iter_sorted();
        write_u64(&mut buf, attrs.len() as u64);
        for (k, v) in attrs {
            write_attr(&mut buf, k, v);
        }
        write_u64(&mut buf, node.inputs.len() as u64);
        for i in &node.inputs {
            write_string(&mut buf, i);
        }
        write_u64(&mut buf, node.outputs.len() as u64);
        for o in &node.outputs {
            write_string(&mut buf, o);
        }
    }
    buf
}

/// Parse d5nx bytes back into an object-oriented [`Network`]. All operator
/// types must be registered (built-ins are; custom ops must be registered
/// before decoding, exactly like the paper's user-defined ONNX extensions).
pub fn decode(buf: &[u8]) -> Result<Network> {
    let mut pos = 0usize;
    if buf.len() < 4 || &buf[..4] != MAGIC {
        return Err(Error::Format("missing D5NX magic".into()));
    }
    pos += 4;
    let version = read_u64(buf, &mut pos)?;
    if version > FORMAT_VERSION {
        return Err(Error::Format(format!(
            "d5nx format version {version} is newer than supported {FORMAT_VERSION}"
        )));
    }
    let _opset = read_u64(buf, &mut pos)?;
    let name = read_string(buf, &mut pos)?;
    let mut net = Network::new(name);

    let n_inputs = read_u64(buf, &mut pos)? as usize;
    for _ in 0..n_inputs {
        let s = read_string(buf, &mut pos)?;
        net.add_input(s);
    }
    let n_outputs = read_u64(buf, &mut pos)? as usize;
    for _ in 0..n_outputs {
        let s = read_string(buf, &mut pos)?;
        net.add_output(s);
    }

    let n_params = read_u64(buf, &mut pos)? as usize;
    for _ in 0..n_params {
        let pname = read_string(buf, &mut pos)?;
        let rank = read_count(buf, &mut pos)?;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            let d = read_u64(buf, &mut pos)?;
            let too_big = |_| Error::Format(format!("dimension {d} of '{pname}'"));
            dims.push(usize::try_from(d).map_err(too_big)?);
        }
        // The dims are the file's word: their product, its byte length and
        // where that payload ends must each fit before anything is sized
        // by them.
        let payload = dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .and_then(|numel| numel.checked_mul(4))
            .and_then(|bytes| pos.checked_add(bytes))
            .and_then(|end| buf.get(pos..end))
            .ok_or_else(|| Error::Format(format!("truncated parameter '{pname}'")))?;
        pos += payload.len();
        let data = payload
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("four bytes")))
            .collect();
        net.add_parameter(pname, Tensor::from_vec(Shape::new(&dims), data)?);
    }

    let n_nodes = read_u64(buf, &mut pos)? as usize;
    for _ in 0..n_nodes {
        let nname = read_string(buf, &mut pos)?;
        let op_type = read_string(buf, &mut pos)?;
        let n_attrs = read_u64(buf, &mut pos)? as usize;
        let mut attrs = Attributes::new();
        for _ in 0..n_attrs {
            let (k, v) = read_attr(buf, &mut pos)?;
            attrs = attrs.with(&k, v);
        }
        let n_in = read_count(buf, &mut pos)?;
        let mut inputs = Vec::with_capacity(n_in);
        for _ in 0..n_in {
            inputs.push(read_string(buf, &mut pos)?);
        }
        let n_out = read_count(buf, &mut pos)?;
        let mut outputs = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            outputs.push(read_string(buf, &mut pos)?);
        }
        let in_refs: Vec<&str> = inputs.iter().map(|s| s.as_str()).collect();
        let out_refs: Vec<&str> = outputs.iter().map(|s| s.as_str()).collect();
        net.add_node(nname, op_type, attrs, &in_refs, &out_refs)?;
    }
    Ok(net)
}

/// Write a network to a file.
pub fn save(net: &Network, path: &std::path::Path) -> Result<()> {
    std::fs::write(path, encode(net))?;
    Ok(())
}

/// Load a network from a file.
pub fn load(path: &std::path::Path) -> Result<Network> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{GraphExecutor, ReferenceExecutor};

    fn sample_net() -> Network {
        let mut net = Network::new("sample");
        net.add_input("x");
        net.add_parameter(
            "W",
            Tensor::from_vec([2, 3], vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]).unwrap(),
        );
        net.add_parameter("b", Tensor::from_slice(&[0.5, -0.5]));
        net.add_node("fc", "Linear", Attributes::new(), &["x", "W", "b"], &["h"])
            .unwrap();
        net.add_node("act", "Relu", Attributes::new(), &["h"], &["y"])
            .unwrap();
        net.add_node(
            "drop",
            "Dropout",
            Attributes::new()
                .with_float("ratio", 0.25)
                .with_int("seed", 7),
            &["y"],
            &["z"],
        )
        .unwrap();
        net.add_output("z");
        net
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let net = sample_net();
        let bytes = encode(&net);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.name, "sample");
        assert_eq!(back.num_nodes(), 3);
        assert_eq!(back.get_params(), net.get_params());
        assert_eq!(back.graph_inputs(), net.graph_inputs());
        assert_eq!(back.graph_outputs(), net.graph_outputs());
        assert_eq!(
            back.fetch_tensor("W").unwrap(),
            net.fetch_tensor("W").unwrap()
        );
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let net = sample_net();
        let bytes = encode(&net);
        let back = decode(&bytes).unwrap();
        let x = Tensor::from_vec([1, 3], vec![1.0, -2.0, 0.5]).unwrap();
        let mut e1 = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let mut e2 = ReferenceExecutor::construct(back, usize::MAX).unwrap();
        let o1 = e1.inference(&[("x", x.clone())]).unwrap();
        let o2 = e2.inference(&[("x", x)]).unwrap();
        assert_eq!(o1["z"], o2["z"]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encode(&sample_net());
        let b = encode(&sample_net());
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(decode(b"NOPE").is_err());
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = encode(&sample_net());
        for cut in [5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    /// A well-formed file up to the parameter count: no inputs, no outputs.
    fn header() -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        write_u64(&mut buf, FORMAT_VERSION);
        write_u64(&mut buf, OPSET_VERSION);
        write_string(&mut buf, "hostile");
        write_u64(&mut buf, 0);
        write_u64(&mut buf, 0);
        buf
    }

    /// [`header`], no parameters, and one `Relu` node up to its attributes.
    fn node_header(n_attrs: u64) -> Vec<u8> {
        let mut buf = header();
        write_u64(&mut buf, 0);
        write_u64(&mut buf, 1);
        write_string(&mut buf, "n");
        write_string(&mut buf, "Relu");
        write_u64(&mut buf, n_attrs);
        buf
    }

    /// [`header`], one parameter `p` with these dims, and `payload` bytes.
    fn param(dims: &[u64], payload: usize) -> Vec<u8> {
        let mut buf = header();
        write_u64(&mut buf, 1);
        write_string(&mut buf, "p");
        write_u64(&mut buf, dims.len() as u64);
        for &d in dims {
            write_u64(&mut buf, d);
        }
        buf.resize(buf.len() + payload, 0);
        buf
    }

    fn assert_format_error(bytes: &[u8], what: &str) {
        assert!(
            matches!(decode(bytes), Err(Error::Format(_))),
            "{what}: {:?}",
            decode(bytes).map(|_| ())
        );
    }

    #[test]
    fn a_huge_count_is_refused_before_it_is_allocated() {
        const HUGE: u64 = 1 << 60;
        let mut ints = node_header(1);
        write_string(&mut ints, "list");
        ints.push(2);
        write_u64(&mut ints, HUGE);
        assert_format_error(&ints, "Ints attribute length");

        let mut rank = header();
        write_u64(&mut rank, 1);
        write_string(&mut rank, "p");
        write_u64(&mut rank, HUGE);
        assert_format_error(&rank, "parameter rank");

        let mut n_in = node_header(0);
        write_u64(&mut n_in, HUGE);
        assert_format_error(&n_in, "node input count");

        let mut n_out = node_header(0);
        write_u64(&mut n_out, 0);
        write_u64(&mut n_out, HUGE);
        assert_format_error(&n_out, "node output count");
    }

    #[test]
    fn parameter_dims_that_overflow_are_refused() {
        assert_format_error(&param(&[1 << 40, 1 << 40], 64), "dims product");
        // The product fits, four bytes per element do not.
        assert_format_error(&param(&[1 << 62], 64), "payload length");
        // The length fits, the position it is added to tips it over.
        assert_format_error(&param(&[(1 << 62) - 1], 64), "payload end");
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = encode(&sample_net());
        bytes[4] = 99; // format version varint
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("d5nx-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.d5nx");
        save(&sample_net(), &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.num_nodes(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_attr_types_roundtrip() {
        let mut net = Network::new("attrs");
        net.add_input("x");
        net.add_node(
            "n",
            "Conv2d",
            Attributes::new()
                .with_int("stride", 2)
                .with_int("pad", 1)
                .with_str("algorithm", "direct")
                .with_float("dummy", -2.75)
                .with_ints("list", &[-1, 0, 7]),
            &["x", "w", "b"],
            &["y"],
        )
        .unwrap();
        let back = decode(&encode(&net)).unwrap();
        let (_, node) = back.nodes().next().unwrap();
        assert_eq!(node.attrs.int_or("stride", 0), 2);
        assert_eq!(node.attrs.str_or("algorithm", ""), "direct");
        assert_eq!(node.attrs.float_or("dummy", 0.0), -2.75);
        assert_eq!(node.attrs.ints("list"), vec![-1, 0, 7]);
    }
}
