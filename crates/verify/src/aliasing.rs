//! Buffer-aliasing analysis for wavefront (level-parallel) execution.
//!
//! The plan interpreter runs all nodes of a level concurrently over
//! buffers drawn from a shared [`BufferPool`]. That is only sound if no
//! tensor is *written* in the same level where it is *read* (or written
//! again): a same-level def/use pair would race on the buffer. This pass
//! proves the property for a level partition of node indices — by default
//! [`compute_levels`], the one partition both of the graph crate's
//! execution loops walk — and reports a [`LintCode::SameLevelHazard`] for
//! every violation.
//!
//! The same liveness information builds an interference graph over produced
//! tensors (edges between tensors whose live ranges overlap), whose maximum
//! weighted clique-by-level is a *lower bound on the pool bytes* any
//! level-parallel schedule needs: at the end of each level, every tensor
//! defined at or before it and consumed strictly after it is simultaneously
//! live. The bound is reported as a metric and checked against the
//! executor's observed high-water mark in the graph crate's tests.
//!
//! [`BufferPool`]: deep500_tensor::BufferPool

use crate::ir::GraphIr;
use crate::lint::{Lint, LintCode};
use deep500_tensor::Shape;
use std::collections::HashMap;

/// Result of the aliasing analysis.
#[derive(Debug, Clone, Default)]
pub struct AliasReport {
    /// Number of wavefront levels analyzed.
    pub num_levels: usize,
    /// Edges in the tensor interference graph (live-range overlaps).
    pub interference_edges: usize,
    /// Lower bound, in bytes, on simultaneously-live produced-tensor
    /// storage for this level partition — a floor for any buffer pool
    /// serving the forward pass.
    pub pool_lower_bound: usize,
    /// Live bytes at the end of each level (the per-level terms whose max
    /// is `pool_lower_bound`).
    pub level_bytes: Vec<usize>,
}

/// Live range of one produced tensor over a level partition.
#[derive(Debug, Clone)]
pub struct LiveRange {
    /// Produced tensor name.
    pub tensor: String,
    /// Level whose execution defines the tensor.
    pub def: usize,
    /// Inclusive: the tensor is accounted live at the end of levels
    /// `def..=end` (its last consumer runs at level `end + 1`; graph
    /// outputs and never-consumed tensors stay live to the last level).
    pub end: usize,
    /// Buffer size (0 when the shape pass could not infer a shape).
    pub bytes: usize,
}

/// Compute the live ranges of all produced tensors under the given level
/// partition, sorted by tensor name (deterministic). Semantics match the
/// executors exactly: consumption at level `cl` keeps the buffer live
/// through the end of level `cl - 1`; fetched (graph-output) and
/// never-consumed tensors are pinned to the final level.
pub fn live_ranges(
    ir: &GraphIr,
    levels: &[Vec<usize>],
    shapes: &HashMap<String, Shape>,
) -> Vec<LiveRange> {
    let num_levels = levels.len();
    let level_of = level_of_node(ir, levels);
    let mut def_of: HashMap<&str, usize> = HashMap::new();
    for (n, level) in ir.nodes.iter().zip(&level_of) {
        let Some(l) = *level else {
            continue; // stuck in a cycle; dataflow pass denies separately
        };
        for o in &n.outputs {
            def_of.entry(o.as_str()).or_insert(l);
        }
    }
    let fetched: std::collections::HashSet<&str> = ir.outputs.iter().map(|s| s.as_str()).collect();
    let mut ranges = Vec::with_capacity(def_of.len());
    for (tensor, &def) in &def_of {
        let consumers = ir.consumers_of(tensor);
        let mut end = def; // live at least through its def level
        if fetched.contains(tensor) || consumers.is_empty() {
            end = num_levels.saturating_sub(1);
        } else {
            for c in consumers {
                if let Some(cl) = level_of[c] {
                    // Consumed at level cl => still accounted at the end of
                    // every level strictly before cl.
                    end = end.max(cl.saturating_sub(1));
                }
            }
        }
        let bytes = shapes
            .get(*tensor)
            .map(|s| s.numel() * std::mem::size_of::<f32>())
            .unwrap_or(0);
        ranges.push(LiveRange {
            tensor: tensor.to_string(),
            def,
            end,
            bytes,
        });
    }
    ranges.sort_by(|a, b| a.tensor.cmp(&b.tensor));
    ranges
}

/// The level of each node index under `levels`; `None` for a node the
/// partition omits.
fn level_of_node(ir: &GraphIr, levels: &[Vec<usize>]) -> Vec<Option<usize>> {
    let mut level_of = vec![None; ir.nodes.len()];
    for (l, level) in levels.iter().enumerate() {
        for &i in level {
            level_of[i] = Some(l);
        }
    }
    level_of
}

/// The level partition — the one schedule order: a node's level is one
/// more than the deepest level among its input producers, and within a
/// level nodes keep [`GraphIr::topo_order_lenient`]'s order. Returns levels
/// of node indices. Both of the graph crate's execution loops walk these
/// levels concatenated (`Network::topological_order`), so a reverse walk
/// of either is the same sequence. Nodes stuck in cycles are omitted (the
/// dataflow pass denies the graph separately).
pub fn compute_levels(ir: &GraphIr) -> Vec<Vec<usize>> {
    let (order, _) = ir.topo_order_lenient();
    let mut level_of: HashMap<usize, usize> = HashMap::new();
    let mut levels: Vec<Vec<usize>> = Vec::new();
    for idx in order {
        let node = &ir.nodes[idx];
        let mut level = 0;
        for input in &node.inputs {
            if let Some(p) = ir.producer_of(input) {
                if let Some(&pl) = level_of.get(&p) {
                    level = level.max(pl + 1);
                }
            }
        }
        level_of.insert(idx, level);
        if levels.len() <= level {
            levels.resize_with(level + 1, Vec::new);
        }
        levels[level].push(idx);
    }
    levels
}

/// Analyze a level partition of node indices ([`compute_levels`], or a
/// hand-built one in tests). `shapes` supplies concrete tensor shapes from
/// the shape pass; tensors without an inferred shape contribute 0 bytes to
/// the bound (conservative for a lower bound).
pub fn analyze(
    ir: &GraphIr,
    levels: &[Vec<usize>],
    shapes: &HashMap<String, Shape>,
    lints: &mut Vec<Lint>,
) -> AliasReport {
    let num_levels = levels.len();
    let level_of = level_of_node(ir, levels);

    // Def level of each produced tensor, and the writer node's name.
    let mut def_of: HashMap<&str, (usize, &str)> = HashMap::new();
    for (n, level) in ir.nodes.iter().zip(&level_of) {
        let Some(l) = *level else {
            continue; // stuck in a cycle; dataflow pass already denied it
        };
        for o in &n.outputs {
            if let Some(&(dl, dn)) = def_of.get(o.as_str()) {
                if dl == l {
                    lints.push(
                        Lint::new(
                            LintCode::SameLevelHazard,
                            format!(
                                "tensor '{o}' is written by '{dn}' and '{}' in the same \
                                 wavefront level {l}; concurrent writers race on the \
                                 pooled buffer",
                                n.name
                            ),
                        )
                        .with_node(n.name.as_str())
                        .with_tensor(o.as_str()),
                    );
                }
            } else {
                def_of.insert(o.as_str(), (l, n.name.as_str()));
            }
        }
    }

    // Same-level (or earlier) read of a written tensor: every consumer must
    // sit in a strictly later level than the producer.
    for (n, level) in ir.nodes.iter().zip(&level_of) {
        let Some(l) = *level else {
            continue;
        };
        for i in &n.inputs {
            if let Some(&(dl, dn)) = def_of.get(i.as_str()) {
                if dl >= l && dn != n.name.as_str() {
                    lints.push(
                        Lint::new(
                            LintCode::SameLevelHazard,
                            format!(
                                "node '{}' (level {l}) reads '{i}' written by '{dn}' \
                                 (level {dl}); a producer must finish strictly before \
                                 its consumers' level",
                                n.name
                            ),
                        )
                        .with_node(n.name.as_str())
                        .with_tensor(i.as_str()),
                    );
                }
            }
        }
    }

    // Live ranges of produced tensors: graph outputs and never-consumed
    // tensors stay live to the end (the executor pins fetched outputs and
    // never releases unconsumed buffers mid-pass).
    let ranges = live_ranges(ir, levels, shapes);

    // Interference edges + per-level live bytes.
    let mut interference_edges = 0;
    for (i, a) in ranges.iter().enumerate() {
        for b in ranges.iter().skip(i + 1) {
            if a.def <= b.end && b.def <= a.end {
                interference_edges += 1;
            }
        }
    }
    let mut level_bytes = vec![0usize; num_levels];
    for r in &ranges {
        for lb in level_bytes.iter_mut().take(r.end + 1).skip(r.def) {
            *lb += r.bytes;
        }
    }
    let pool_lower_bound = level_bytes.iter().copied().max().unwrap_or(0);

    AliasReport {
        num_levels,
        interference_edges,
        pool_lower_bound,
        level_bytes,
    }
}
