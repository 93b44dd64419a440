//! Stage 2: deduplicate brick instances across a model zoo.
//!
//! The whole point of brick-level benchmarking is that identical bricks
//! recur — within one model (stacked residual blocks) and across the zoo
//! (every classifier ends in the same softmax head at a given batch).
//! Unioning instances into a set of unique bricks means each is measured
//! once, and the *dedup ratio* (total instances / unique bricks) is the
//! speedup the micro-runner gets over benchmarking every node of every
//! model.

use super::decompose::{BrickInstance, BrickKey};
use std::collections::HashMap;

/// A unique brick with its zoo-wide multiplicity.
#[derive(Debug, Clone)]
pub struct Brick {
    pub key: BrickKey,
    /// One concrete instance to rebuild a micro-network from. All
    /// instances sharing a key are interchangeable for benchmarking: the
    /// key pins op kind, attributes, shapes, dtype, and tier.
    pub exemplar: BrickInstance,
    /// How many nodes across the zoo collapse onto this brick.
    pub count: usize,
}

/// The deduplicated union of every model's bricks.
#[derive(Debug, Clone, Default)]
pub struct BrickSet {
    /// Unique bricks in first-seen order (stable across runs: models and
    /// their nodes are walked in input order).
    pub bricks: Vec<Brick>,
    /// Total node instances the set was built from.
    pub total_instances: usize,
    index: HashMap<BrickKey, usize>,
}

impl BrickSet {
    /// Instances-per-unique-brick; 1.0 means nothing deduplicated.
    pub fn dedup_ratio(&self) -> f64 {
        if self.bricks.is_empty() {
            return 1.0;
        }
        self.total_instances as f64 / self.bricks.len() as f64
    }

    pub fn len(&self) -> usize {
        self.bricks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bricks.is_empty()
    }
}

/// Union per-model brick lists into a deduplicated [`BrickSet`].
pub fn dedup(models: &[(String, Vec<BrickInstance>)]) -> BrickSet {
    let mut set = BrickSet::default();
    for (_, instances) in models {
        for inst in instances {
            set.total_instances += 1;
            match set.index.get(&inst.key) {
                Some(&i) => set.bricks[i].count += 1,
                None => {
                    set.index.insert(inst.key.clone(), set.bricks.len());
                    set.bricks.push(Brick {
                        key: inst.key.clone(),
                        exemplar: inst.clone(),
                        count: 1,
                    });
                }
            }
        }
    }
    set
}
