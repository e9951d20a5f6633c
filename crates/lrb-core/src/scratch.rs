//! Reusable scratch arenas for the rebalancing hot paths.
//!
//! Solving one instance allocates a handful of short-lived buffers: sorted
//! per-processor job stacks, prefix-sum profiles, heap storage, removal
//! lists, the candidate-threshold ladder. A batch executor solving thousands
//! of instances per second pays that allocator traffic on every call. A
//! [`Scratch`] owns all of those buffers so a worker can clear-and-refill
//! them across calls: after the first solve of a given shape, the GREEDY /
//! M-PARTITION hot paths perform no heap allocation beyond the returned
//! assignment itself (and, for cost-PARTITION, its knapsack plans).
//!
//! The scratch's [`Profiles`] also keep the jobs in ascending `(size, id)`
//! order across calls: M-PARTITION's candidate thresholds depend on that
//! placement-independent order (doubled sizes) and on the placement
//! (prefix sums). A solve reuses the cached order after an exact `O(n)`
//! check, so a batch of instances over the same jobs (e.g. under many
//! candidate placements) sorts once instead of per instance, and every
//! solve builds its per-processor lists in one pass over that order. See
//! DESIGN.md §9 for the memory layout and invalidation rules.

use std::cmp::Reverse;

use crate::model::{JobId, ProcId, Size};
use crate::profiles::Profiles;

/// Per-worker reusable buffers for the core solvers.
///
/// Create one per thread (it is deliberately `!Sync`-agnostic plain data —
/// share nothing, reuse everything) and pass it to the `*_scratch` entry
/// points of [`crate::greedy`], [`crate::mpartition`], [`crate::partition`],
/// and [`crate::cost_partition`]. Buffers grow to the largest instance seen
/// and stay at that capacity; call sites never need to size anything.
#[derive(Debug, Default)]
pub struct Scratch {
    pub(crate) greedy: GreedyScratch,
    pub(crate) partition: PartitionScratch,
    pub(crate) profiles: Profiles,
    pub(crate) candidates: Vec<Size>,
    pub(crate) hetero: HeteroScratch,
}

impl Scratch {
    /// A fresh scratch with empty (unallocated) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many M-PARTITION solves found the job-size multiset of the
    /// previous one.
    pub fn ladder_hits(&self) -> u64 {
        self.profiles.ladder.hits
    }

    /// How many M-PARTITION solves brought a new job-size multiset.
    pub fn ladder_misses(&self) -> u64 {
        self.profiles.ladder.misses
    }

    /// The profiles built by the last M-PARTITION solve.
    pub fn profiles(&self) -> &Profiles {
        &self.profiles
    }
}

/// Buffers for GREEDY's removal and reinsertion phases.
#[derive(Debug, Default)]
pub(crate) struct GreedyScratch {
    /// Live per-processor loads.
    pub loads: Vec<Size>,
    /// Per-processor job stacks, ascending by size (largest popped first).
    pub per_proc: Vec<Vec<JobId>>,
    /// Backing storage for the removal-phase lazy max-heap.
    pub max_heap: Vec<(Size, ProcId)>,
    /// Backing storage for the reinsertion min-heap.
    pub min_heap: Vec<Reverse<(Size, ProcId)>>,
    /// Jobs removed in phase 1, in removal order.
    pub removed: Vec<JobId>,
    /// Removed jobs re-sorted into the requested reinsertion order.
    pub order_buf: Vec<JobId>,
}

/// Buffers for the speed-scaled (uniform-machine) solvers in
/// [`crate::hetero`]: GREEDY's removal/reinsertion state plus the
/// threshold-probe capacities and shed list.
#[derive(Debug, Default)]
pub(crate) struct HeteroScratch {
    /// Live per-processor raw loads.
    pub loads: Vec<Size>,
    /// Per-processor job stacks, ascending by size (largest popped first).
    pub per_proc: Vec<Vec<JobId>>,
    /// Jobs removed by GREEDY phase 1, in removal order.
    pub removed: Vec<JobId>,
    /// Removed jobs re-sorted into reinsertion order.
    pub order_buf: Vec<JobId>,
    /// Per-processor raw capacities `⌊x·v_q / v⌋` at the probed threshold.
    pub caps: Vec<Size>,
    /// Jobs shed by overfull processors at the probed threshold.
    pub shed: Vec<JobId>,
}

/// Buffers for PARTITION's six steps (shared by the cost variant).
#[derive(Debug, Default)]
pub(crate) struct PartitionScratch {
    /// Live per-processor loads.
    pub loads: Vec<Size>,
    /// Step 1: the kept (smallest) large job per processor, if any.
    pub kept_large: Vec<Option<JobId>>,
    /// Steps 1-4: each processor's `(small_count, a_i, b_i)` at the guess.
    pub evals: Vec<(usize, usize, usize)>,
    /// Step 2/3 ranking buffer: `(c_i, no-large tiebreak, proc)`.
    pub cs: Vec<(i64, bool, ProcId)>,
    /// Step 3 selection flags.
    pub is_selected: Vec<bool>,
    /// Cost variant: which selected processors keep their large job.
    pub keeps_large: Vec<bool>,
    /// Large jobs awaiting a Step 5 slot.
    pub homeless_large: Vec<JobId>,
    /// Small jobs awaiting Step 6 reinsertion.
    pub removed_small: Vec<JobId>,
    /// Step 5: selected large-free processors.
    pub free_procs: Vec<ProcId>,
    /// Backing storage for the Step 6 min-heap.
    pub min_heap: Vec<Reverse<(Size, ProcId)>>,
}

impl PartitionScratch {
    /// Reset the per-run buffers for an instance with `m` processors.
    pub(crate) fn reset(&mut self, m: usize) {
        self.kept_large.clear();
        self.kept_large.resize(m, None);
        self.is_selected.clear();
        self.is_selected.resize(m, false);
        self.keeps_large.clear();
        self.keeps_large.resize(m, false);
        self.evals.clear();
        self.cs.clear();
        self.homeless_large.clear();
        self.removed_small.clear();
        self.free_procs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Instance;

    #[test]
    fn scratch_reuse_grows_but_never_shrinks_buffers() {
        let mut scratch = Scratch::new();
        let big = Instance::from_sizes(&[9, 8, 7, 6, 5, 4, 3, 2], vec![0; 8], 4).unwrap();
        let small = Instance::from_sizes(&[2, 1], vec![0, 0], 2).unwrap();
        crate::greedy::rebalance_scratch(&big, 4, &mut scratch).unwrap();
        let cap = scratch.greedy.removed.capacity();
        crate::greedy::rebalance_scratch(&small, 1, &mut scratch).unwrap();
        assert!(scratch.greedy.removed.capacity() >= cap);
    }
}
