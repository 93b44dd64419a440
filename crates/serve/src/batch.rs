//! Batch coalescing: policy, feed concatenation and output splitting.
//!
//! Dynamic batching amortizes one executor pass over many queued
//! requests. Soundness is delegated to the verifier's
//! [`BatchContract`](deep500_verify::BatchContract): only tensors it
//! classifies `PerSample` (shape exactly `[N, rest...]` under the
//! dual-probe symbolic shape engine) are concatenated along dim 0 on the
//! way in and sliced back into per-request rows on the way out. `Fixed`
//! inputs are shared state and must be bit-identical across the coalesced
//! requests; `Fixed` outputs are batch aggregates (e.g. a mean loss) that
//! cannot be attributed to a single request and are therefore excluded
//! from replies. Any `Entangled` interface tensor disqualifies the model
//! from dynamic batching at server-build time.

use crate::error::{ServeError, ServeResult};
use deep500_tensor::Tensor;
use std::time::Duration;

/// How a model's worker pool assembles requests into executor passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// One request per pass, feeds forwarded verbatim, every declared
    /// graph output (aggregates included) in the reply. Works for any
    /// model, batchable or not.
    Single,
    /// Work-conserving coalescing: a worker that picks up a request takes
    /// every queued request behind it that fits under `max_batch` rows,
    /// runs them as one pass at once, and splits per-sample outputs back
    /// out. Nothing waits for company, so requests coalesce only while
    /// every worker is busy. Requires a batchable
    /// [`BatchContract`](deep500_verify::BatchContract).
    Dynamic {
        /// Upper bound on coalesced rows per pass.
        max_batch: usize,
        /// Not read; kept because the frozen spine constructs it. Only
        /// [`label`](BatchPolicy::label) prints it.
        max_delay: Duration,
    },
}

impl BatchPolicy {
    /// Short stable label for reports and benchmark JSON.
    pub fn label(&self) -> String {
        match self {
            BatchPolicy::Single => "single".into(),
            BatchPolicy::Dynamic {
                max_batch,
                max_delay,
            } => format!("dynamic(b{},{}us)", max_batch, max_delay.as_micros()),
        }
    }
}

/// The concrete (probe-independent) slice of a model's batch contract the
/// workers need on the hot path: which feeds carry rows, their expected
/// trailing shapes, and which outputs split.
#[derive(Debug, Clone)]
pub(crate) struct WireContract {
    /// Per-sample inputs and the trailing dims each row must have.
    pub per_sample_inputs: Vec<(String, Vec<usize>)>,
    /// Inputs with batch-independent shape (shared across the batch).
    pub fixed_inputs: Vec<String>,
    /// Outputs sliced back into per-request rows. Aggregate (`Fixed`)
    /// outputs are simply absent: they never reach replies.
    pub per_sample_outputs: Vec<String>,
}

impl WireContract {
    /// Validate one request's feeds against the contract and return its
    /// row count (the leading dim shared by all its per-sample feeds).
    pub fn validate(&self, feeds: &[(String, Tensor)]) -> ServeResult<usize> {
        let find = |name: &str| feeds.iter().find(|(n, _)| n == name).map(|(_, t)| t);
        let mut rows: Option<usize> = None;
        for (name, rest) in &self.per_sample_inputs {
            let t = find(name)
                .ok_or_else(|| ServeError::BadRequest(format!("missing input '{name}'")))?;
            let dims = t.shape().dims();
            let (lead, tail) = dims
                .split_first()
                .ok_or_else(|| ServeError::BadRequest(format!("input '{name}' is 0-d")))?;
            if tail != rest.as_slice() {
                return Err(ServeError::BadRequest(format!(
                    "input '{name}' has trailing shape {tail:?}, model expects {rest:?}"
                )));
            }
            if *lead == 0 {
                return Err(ServeError::BadRequest(format!("input '{name}' has 0 rows")));
            }
            match rows {
                None => rows = Some(*lead),
                Some(r) if r != *lead => {
                    return Err(ServeError::BadRequest(format!(
                        "inconsistent row counts: '{name}' has {lead}, expected {r}"
                    )))
                }
                Some(_) => {}
            }
        }
        for name in &self.fixed_inputs {
            if find(name).is_none() {
                return Err(ServeError::BadRequest(format!(
                    "missing shared input '{name}'"
                )));
            }
        }
        rows.ok_or_else(|| ServeError::BadRequest("model has no per-sample inputs".into()))
    }

    /// Concatenate the per-sample feeds of `requests` along dim 0 and
    /// borrow shared feeds from the first request. Callers must have
    /// [`validate`](Self::validate)d each request already; shared-input
    /// divergence across requests is reported here.
    pub fn coalesce(&self, requests: &[&[(String, Tensor)]]) -> ServeResult<Vec<(String, Tensor)>> {
        let mut feeds = Vec::with_capacity(self.per_sample_inputs.len() + self.fixed_inputs.len());
        for (name, _) in &self.per_sample_inputs {
            let parts: Vec<Tensor> = requests.iter().map(|f| lookup(f, name).clone()).collect();
            feeds.push((name.clone(), Tensor::concat_axis0(&parts)?));
        }
        for name in &self.fixed_inputs {
            let first = lookup(requests[0], name);
            for other in &requests[1..] {
                let t = lookup(other, name);
                if t.shape() != first.shape() || t.data() != first.data() {
                    return Err(ServeError::BadRequest(format!(
                        "shared input '{name}' differs across coalesced requests"
                    )));
                }
            }
            feeds.push((name.clone(), first.clone()));
        }
        Ok(feeds)
    }

    /// Slice the batched outputs back into per-request maps, one per
    /// entry of `rows`. Aggregate outputs are dropped (a batch mean is
    /// nobody's answer).
    pub fn split(
        &self,
        outputs: &std::collections::HashMap<String, Tensor>,
        rows: &[usize],
    ) -> ServeResult<Vec<std::collections::HashMap<String, Tensor>>> {
        let total: usize = rows.iter().sum();
        let mut replies: Vec<std::collections::HashMap<String, Tensor>> =
            rows.iter().map(|_| Default::default()).collect();
        for name in &self.per_sample_outputs {
            let t = outputs.get(name).ok_or_else(|| {
                ServeError::Execution(deep500_tensor::Error::NotFound(format!(
                    "batched pass produced no output '{name}'"
                )))
            })?;
            let lead = t.shape().dims().first().copied().unwrap_or(0);
            if lead != total {
                return Err(ServeError::Execution(deep500_tensor::Error::ShapeMismatch(
                    format!("output '{name}' has {lead} rows, batch assembled {total}"),
                )));
            }
            let mut offset = 0;
            for (reply, &n) in replies.iter_mut().zip(rows) {
                reply.insert(name.clone(), t.slice_axis0(offset, n)?);
                offset += n;
            }
        }
        Ok(replies)
    }
}

fn lookup<'a>(feeds: &'a [(String, Tensor)], name: &str) -> &'a Tensor {
    feeds
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, t)| t)
        .expect("validated feed present")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn contract() -> WireContract {
        WireContract {
            per_sample_inputs: vec![("x".into(), vec![3])],
            fixed_inputs: vec!["w".into()],
            per_sample_outputs: vec!["y".into()],
        }
    }

    fn req(rows: usize, fill: f32) -> Vec<(String, Tensor)> {
        vec![
            ("x".into(), Tensor::full([rows, 3], fill)),
            ("w".into(), Tensor::ones([2, 2])),
        ]
    }

    #[test]
    fn validate_checks_names_shapes_and_rows() {
        let c = contract();
        assert_eq!(c.validate(&req(2, 1.0)).unwrap(), 2);
        let missing = vec![("w".to_string(), Tensor::ones([2, 2]))];
        assert!(matches!(
            c.validate(&missing),
            Err(ServeError::BadRequest(_))
        ));
        let bad_tail = vec![
            ("x".to_string(), Tensor::ones([2, 4])),
            ("w".to_string(), Tensor::ones([2, 2])),
        ];
        assert!(matches!(
            c.validate(&bad_tail),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn coalesce_concats_rows_and_shares_fixed_feeds() {
        let c = contract();
        let (a, b) = (req(1, 1.0), req(2, 2.0));
        let feeds = c.coalesce(&[&a, &b]).unwrap();
        let x = &feeds.iter().find(|(n, _)| n == "x").unwrap().1;
        assert_eq!(x.shape().dims(), &[3, 3]);
        assert_eq!(&x.data()[..3], &[1.0; 3]);
        assert_eq!(&x.data()[3..], &[2.0; 6]);
    }

    #[test]
    fn coalesce_rejects_divergent_shared_inputs() {
        let c = contract();
        let mut b = req(1, 2.0);
        b[1].1 = Tensor::zeros([2, 2]);
        let a = req(1, 1.0);
        let err = c.coalesce(&[&a, &b]).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
    }

    #[test]
    fn split_hands_back_rows_and_drops_aggregates() {
        let c = contract();
        let mut outputs = HashMap::new();
        outputs.insert(
            "y".to_string(),
            Tensor::from_vec([3, 1], vec![10.0, 20.0, 30.0]).unwrap(),
        );
        outputs.insert("loss".to_string(), Tensor::scalar(7.0));
        let replies = c.split(&outputs, &[1, 2]).unwrap();
        assert_eq!(replies[0]["y"].data(), &[10.0]);
        assert_eq!(replies[1]["y"].data(), &[20.0, 30.0]);
        assert!(!replies[0].contains_key("loss"), "aggregates are excluded");
    }

    #[test]
    fn split_detects_row_miscount() {
        let c = contract();
        let mut outputs = HashMap::new();
        outputs.insert("y".to_string(), Tensor::ones([2, 1]));
        assert!(c.split(&outputs, &[1, 2]).is_err());
    }
}
