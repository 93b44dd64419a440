//! The happens-before relation of a level-partitioned schedule.
//!
//! The plan interpreter runs a plan level by level: every step of level
//! `l` is dispatched concurrently, and level `l + 1` starts only after
//! level `l` joins. That barrier structure induces a partial order over
//! steps — the *happens-before* relation the plan-soundness analysis
//! ([`crate::plan_check`]) reasons under:
//!
//! * step `a` happens-before step `b`  ⇔  `level(a) < level(b)`,
//! * two steps of the same level are **unordered** — neither's writes are
//!   visible to the other, and their buffer accesses race unless they
//!   touch disjoint memory.
//!
//! This is deliberately the *weakest* order the runtime guarantees. The
//! planned executor additionally chunks a level into sequential groups
//! when it has fewer worker threads than steps, but that refinement is a
//! scheduling accident, not a contract — an analysis sound under the
//! barrier-only order stays sound for every chunking.

/// Happens-before over the steps of a level-partitioned schedule.
#[derive(Debug, Clone)]
pub struct HappensBefore {
    /// Level index per step, in step order.
    level_of_step: Vec<usize>,
    /// Total number of levels (levels may be empty).
    level_count: usize,
}

impl HappensBefore {
    /// Build from an explicit per-step level assignment. `level_count`
    /// must bound every entry; returns `None` when it does not (a plan
    /// whose levels do not form a valid partition cannot be reasoned
    /// about, and the caller reports it as a structural defect).
    pub fn from_step_levels(
        level_of_step: Vec<usize>,
        level_count: usize,
    ) -> Option<HappensBefore> {
        if level_of_step.iter().any(|&l| l >= level_count) {
            return None;
        }
        Some(HappensBefore {
            level_of_step,
            level_count,
        })
    }

    /// Build from contiguous `steps[lo..hi]` level ranges (the frozen
    /// `ExecutionPlan` encoding). The ranges must tile `0..num_steps` in
    /// order — any gap, overlap, or truncation returns `None`.
    pub fn from_level_ranges(ranges: &[(usize, usize)], num_steps: usize) -> Option<HappensBefore> {
        let mut level_of_step = Vec::with_capacity(num_steps);
        let mut cursor = 0usize;
        for (l, &(lo, hi)) in ranges.iter().enumerate() {
            if lo != cursor || hi < lo {
                return None;
            }
            for _ in lo..hi {
                level_of_step.push(l);
            }
            cursor = hi;
        }
        if cursor != num_steps {
            return None;
        }
        Some(HappensBefore {
            level_of_step,
            level_count: ranges.len(),
        })
    }

    /// Number of steps in the schedule.
    pub fn num_steps(&self) -> usize {
        self.level_of_step.len()
    }

    /// Number of levels in the partition.
    pub fn num_levels(&self) -> usize {
        self.level_count
    }

    /// Level of step `s`.
    pub fn level_of(&self, s: usize) -> usize {
        self.level_of_step[s]
    }

    /// `a` happens-before `b`: every write of `a` is visible to `b`.
    pub fn ordered_before(&self, a: usize, b: usize) -> bool {
        self.level_of_step[a] < self.level_of_step[b]
    }

    /// `a` and `b` are unordered: they may run concurrently.
    pub fn unordered(&self, a: usize, b: usize) -> bool {
        a != b && self.level_of_step[a] == self.level_of_step[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_into_step_levels() {
        let hb = HappensBefore::from_level_ranges(&[(0, 2), (2, 2), (2, 5)], 5).expect("valid");
        assert_eq!(hb.num_steps(), 5);
        assert_eq!(hb.num_levels(), 3);
        assert_eq!(hb.level_of(0), 0);
        assert_eq!(hb.level_of(1), 0);
        assert_eq!(hb.level_of(2), 2, "the empty level 1 is skipped over");
        assert!(hb.ordered_before(0, 2));
        assert!(!hb.ordered_before(2, 0));
        assert!(hb.unordered(0, 1));
        assert!(!hb.unordered(3, 3), "a step is ordered with itself");
    }

    #[test]
    fn malformed_ranges_are_rejected() {
        // Gap between ranges.
        assert!(HappensBefore::from_level_ranges(&[(0, 2), (3, 4)], 4).is_none());
        // Overlap.
        assert!(HappensBefore::from_level_ranges(&[(0, 2), (1, 4)], 4).is_none());
        // Truncation: ranges cover fewer steps than the schedule has.
        assert!(HappensBefore::from_level_ranges(&[(0, 2)], 4).is_none());
        // Inverted range.
        assert!(HappensBefore::from_level_ranges(&[(0, 2), (2, 1)], 2).is_none());
        // Out-of-bounds explicit level.
        assert!(HappensBefore::from_step_levels(vec![0, 3], 2).is_none());
    }
}
