//! Per-processor size profiles and the discrete threshold set of §3.1.
//!
//! For a makespan guess `T`, the paper classifies a job as **large** when its
//! size is strictly greater than `T/2` (evaluated here as `size > ⌊T/2⌋`,
//! which is `2·size > T` in integers without forming a product that can
//! overflow). Sorting each processor's jobs in ascending size order
//! makes the small jobs a *prefix* of the list for every `T`, so all the
//! quantities PARTITION needs are prefix-sum lookups:
//!
//! * `a_i(T)` — the minimum number of small jobs to remove so the remaining
//!   small jobs total at most `T/2`;
//! * `b_i(T)` — the minimum number of removals (counting a mandatory large
//!   job removal) after which the processor is **large-free** with total
//!   load at most `T`;
//! * `L_T`, `m_L`, `L_E` — the global large-job counts of Definition 1.
//!
//! [`ProcProfile::eval`] returns a processor's small-job count, `a_i` and
//! `b_i` from one small-count search, so PARTITION and every threshold
//! probe visit each processor once per guess. The search is skipped when
//! the processor's largest job is small ([`ProcProfile::has_large`] is one
//! subtraction), since then every job is.
//!
//! **Large-free guesses.** Once `T ≥ 2·p_max` no job is large, so
//! `L_T = 0` and nothing is selected: PARTITION's planned move count is
//! `Σ b_i`, and on a processor without a large job `b_i` is just the number
//! of its prefix sums above `T` ([`ProcProfile::b_large_free`]: zero when
//! the load fits, else one binary search). The threshold probe takes that
//! path; see [`crate::partition`] and DESIGN.md §5. The default threshold
//! search skips the probes altogether in that regime: it selects from the
//! prefix sums above `2·p_max` ([`Profiles::large_free_sums_into`]).
//!
//! `b_i` here is the "forced large removal" variant: the paper defines `b_i`
//! without forcing the large job out when the load already fits, and then
//! relies on tie-breaking to ensure such processors are selected. Forcing
//! the removal gives the *exact* minimum cost of the requirement a
//! non-selected processor must meet in a half-optimal configuration
//! (load ≤ T and large-free), so the Lemma 3 lower-bound argument holds
//! verbatim and no fragile tie-break reasoning is needed. See DESIGN.md §5.
//!
//! Lemma 5: all of `L_T`, `a_i`, `b_i` change only when `T` crosses one of
//! the discrete [`candidates`](Profiles::candidates): doubled job sizes
//! (large/small flips), per-processor ascending prefix sums (`b_i` steps),
//! and doubled prefix sums (`a_i` steps).
//!
//! Construction sorts the whole job list once by `(size, id)` and deals it
//! out to the processors in one pass, so every processor's list arrives
//! already sorted. The sorted order depends only on the jobs, not on the
//! placement, and [`Profiles::rebuild`] reuses it across instances over the
//! same job vector after an exact `O(n)` check (see `ThresholdLadder` and
//! DESIGN.md §9).

use crate::model::{Instance, Job, JobId, ProcId, Size};

/// Size profile of one processor: its jobs in ascending size order plus
/// prefix sums.
#[derive(Debug, Clone, Default)]
pub struct ProcProfile {
    /// Job ids on this processor, ascending by size (ties by id).
    pub jobs_asc: Vec<JobId>,
    /// `prefix[l]` = total size of the `l` smallest jobs; `prefix[0] = 0`.
    pub prefix: Vec<Size>,
}

impl ProcProfile {
    /// Number of jobs on the processor.
    pub fn len(&self) -> usize {
        self.jobs_asc.len()
    }

    /// True if the processor starts empty.
    pub fn is_empty(&self) -> bool {
        self.jobs_asc.is_empty()
    }

    /// Total initial load.
    pub fn load(&self) -> Size {
        *self.prefix.last().unwrap_or(&0)
    }

    /// `(small_count, a_i, b_i)` at guess `t` — everything PARTITION needs
    /// from one processor — from a single small-count search. The processor
    /// holds a large job iff `small_count < len()`.
    ///
    /// * `a_i(t)`: the minimum number of small jobs to remove so the
    ///   remaining small jobs total at most `t/2`. Removing largest-first is
    ///   optimal for minimizing the count, and the smalls are a prefix, so
    ///   this is `small_count − max{l : prefix[l] ≤ ⌊t/2⌋}`.
    /// * `b_i(t)`, forced variant: the number of removals after which the
    ///   processor (in its post-Step-1 state, i.e. at most one large job) is
    ///   large-free with total load at most `t` — one removal for the kept
    ///   large job if any, plus largest-first small removals until the small
    ///   total is at most `t`.
    pub fn eval(&self, t: Size) -> (usize, usize, usize) {
        let half = t / 2;
        // The small jobs form a prefix of the ascending job list. The size
        // of the job at index i is prefix[i+1] − prefix[i]; sizes ascend
        // with i, so when the largest job is small every job is, and
        // otherwise binary search for the first large one.
        let sc = if self.has_large(t) {
            let (mut lo, mut hi) = (0usize, self.len() - 1);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.prefix[mid + 1] - self.prefix[mid] <= half {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        } else {
            self.len()
        };
        let smalls = &self.prefix[..=sc];
        // Both keep counts index the same ascending prefix sums, and
        // s ≤ t/2 implies s ≤ t, so the full-load keep count starts its
        // search at the half-load one.
        let keep_half = smalls.partition_point(|&s| s <= half);
        let keep_full = keep_half.saturating_add(smalls[keep_half..].partition_point(|&s| s <= t));
        let a = sc.saturating_sub(keep_half.saturating_sub(1));
        let b = sc
            .saturating_sub(keep_full.saturating_sub(1))
            .saturating_add(usize::from(sc < self.len()));
        (sc, a, b)
    }

    /// Whether the processor holds a large job at guess `t`, i.e. whether
    /// its largest job has `size > t/2` — one subtraction, no search.
    pub fn has_large(&self, t: Size) -> bool {
        match self.prefix.len().checked_sub(2) {
            Some(i) => self.prefix[i + 1] - self.prefix[i] > t / 2,
            None => false,
        }
    }

    /// `b_i(t)` of a processor that holds no large job at `t` (see
    /// [`has_large`](Self::has_large)): the number of its prefix sums
    /// above `t`, which is how many largest-first removals bring the load
    /// to at most `t`. Zero without a search when the whole load fits.
    /// Equals `eval(t).2` on such a processor.
    pub fn b_large_free(&self, t: Size) -> usize {
        if self.load() <= t {
            0
        } else {
            self.prefix.len() - self.prefix.partition_point(|&s| s <= t)
        }
    }
}

/// Precomputed profiles for a whole instance, supporting `O(log n)` queries
/// of every PARTITION quantity at any makespan guess.
#[derive(Debug, Clone, Default)]
pub struct Profiles {
    per_proc: Vec<ProcProfile>,
    /// The first processor whose load does not fit in a `Size`, if any;
    /// its prefix sums saturate and PARTITION refuses to run on them.
    pub(crate) overflow: Option<ProcId>,
    /// Every job in ascending `(size, id)` order, kept across rebuilds.
    pub(crate) ladder: ThresholdLadder,
}

impl Profiles {
    /// Build profiles for an instance (`O(n log n)`).
    pub fn new(inst: &Instance) -> Self {
        let mut profiles = Profiles::default();
        profiles.rebuild(inst);
        profiles
    }

    /// Rebuild the profiles for `inst` in place, reusing this value's
    /// buffers and, when the job sizes are unchanged, its cached
    /// `(size, id)` order (see [`crate::scratch::Scratch`]). Equivalent to
    /// [`Profiles::new`] but allocation-free once the buffers have grown to
    /// the instance shape.
    pub fn rebuild(&mut self, inst: &Instance) {
        self.ladder.refresh(inst.jobs());
        let m = inst.num_procs();
        self.per_proc.truncate(m);
        self.per_proc.resize_with(m, ProcProfile::default);
        for prof in &mut self.per_proc {
            prof.jobs_asc.clear();
            prof.prefix.clear();
            prof.prefix.push(0);
        }
        // One pass in the global (size, id) order: filtering it by
        // processor leaves each processor's jobs in (size, id) order, which
        // is exactly what sorting each processor's list would give.
        let initial = inst.initial();
        let mut overflow = None;
        for &(size, j) in &self.ladder.order {
            let p = initial[j];
            let prof = &mut self.per_proc[p];
            let acc = prof.load().checked_add(size).unwrap_or_else(|| {
                overflow = overflow.or(Some(p));
                Size::MAX
            });
            prof.jobs_asc.push(j);
            prof.prefix.push(acc);
        }
        self.overflow = overflow;
    }

    /// Profile of processor `p`.
    pub fn proc(&self, p: ProcId) -> &ProcProfile {
        &self.per_proc[p]
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Global number of large jobs `L_T` at guess `t`.
    pub fn l_t(&self, t: Size) -> usize {
        // Large iff size > t/2; sizes_asc is sorted, so count the suffix.
        let sizes_asc = &self.ladder.sizes_asc;
        let half = t / 2;
        let boundary = sizes_asc.partition_point(|&s| s <= half);
        sizes_asc.len().saturating_sub(boundary)
    }

    /// Sorted, deduplicated candidate thresholds (Lemma 5): between two
    /// consecutive values every `L_T`, `a_i`, `b_i` is constant. Contains
    /// `2·p_j` for every job and `B_l`, `2·B_l` for every per-processor
    /// ascending prefix sum.
    pub fn candidates(&self) -> Vec<Size> {
        let mut cands = Vec::new();
        self.ladder_into(0, &mut cands);
        cands
    }

    /// The candidates M-PARTITION searches from `floor` into a caller-owned
    /// buffer (cleared first): every [candidate](Self::candidates) at or
    /// above `floor` plus the [first rung](Self::first_rung) below it,
    /// sorted and deduplicated — i.e. `candidates()[start..]` where `start`
    /// indexes the last candidate below `floor` (0 if there is none).
    ///
    /// Every source list (the doubled sizes, each processor's prefix sums
    /// and their doubles) ascends, so the part below `floor` is skipped by
    /// binary search rather than built and sorted.
    pub fn ladder_into(&self, floor: Size, out: &mut Vec<Size>) {
        out.clear();
        for (asc, scale) in self.candidate_sources() {
            let cut = cut_below(asc, scale, floor);
            out.extend(asc[cut..].iter().map(|&v| scale.saturating_mul(v)));
        }
        out.extend(self.first_rung(floor));
        out.sort_unstable();
        out.dedup();
    }

    /// The largest [candidate](Self::candidates) strictly below `floor`,
    /// if any: the first rung of the ladder searched from `floor`. One
    /// binary search per source list, `O(m log n)`.
    pub fn first_rung(&self, floor: Size) -> Option<Size> {
        self.candidate_sources()
            .filter_map(|(asc, scale)| {
                let cut = cut_below(asc, scale, floor);
                cut.checked_sub(1).map(|i| scale.saturating_mul(asc[i]))
            })
            .max()
    }

    /// Every prefix sum `B_{i,l}` (`l ≥ 1`) strictly above `2·p_max` into a
    /// caller-owned buffer (cleared first), in no particular order. At a
    /// guess `T ≥ 2·p_max` no job is large and PARTITION plans `Σ_i b_i(T)`
    /// moves, which is the number of these values above `T`; see
    /// [`crate::mpartition::ThresholdSearch::Select`].
    pub fn large_free_sums_into(&self, out: &mut Vec<Size>) {
        out.clear();
        let p_max = self.ladder.sizes_asc.last().copied().unwrap_or(0);
        let lim = p_max.saturating_mul(2);
        for prof in &self.per_proc {
            if prof.load() > lim {
                let sums = &prof.prefix[1..];
                out.extend_from_slice(&sums[sums.partition_point(|&s| s <= lim)..]);
            }
        }
    }

    /// The ascending lists every candidate comes from, each as
    /// `(values, scale)`: the doubled sizes, then each processor's prefix
    /// sums and their doubles.
    fn candidate_sources(&self) -> impl Iterator<Item = (&[Size], Size)> {
        std::iter::once((&self.ladder.sizes_asc[..], 2)).chain(
            self.per_proc
                .iter()
                .flat_map(|prof| [(&prof.prefix[1..], 1), (&prof.prefix[1..], 2)]),
        )
    }
}

/// How many values of the ascending `asc`, each scaled by `scale`, lie
/// strictly below `floor`. A doubled value past `Size::MAX` saturates:
/// every guess is below it, so the quantity it would step never changes
/// within range.
fn cut_below(asc: &[Size], scale: Size, floor: Size) -> usize {
    asc.partition_point(|&v| scale.saturating_mul(v) < floor)
}

/// The placement-independent half of the profiles: every job in ascending
/// `(size, id)` order, and the size multiset as an ascending array.
///
/// The order depends only on the job sizes, so consecutive rebuilds over
/// the same job vector (a batch of candidate placements, an epoch of
/// what-if probes) reuse it. Reuse is never trusted, only checked: a
/// lookup keeps the cached order when one `O(n)` pass shows it is exactly
/// what a fresh sort would return. Otherwise it re-sorts, and the
/// re-sorted sizes are compared with the cached multiset to tell a new job
/// order over the same multiset (a hit) from a new multiset (a miss).
/// See DESIGN.md §9.
#[derive(Debug, Clone, Default)]
pub(crate) struct ThresholdLadder {
    /// Whether `sizes_asc` holds a multiset yet; a fresh ladder caches
    /// nothing, so its first lookup is a miss.
    filled: bool,
    /// `(size, id)` of every job, ascending; its sizes are `sizes_asc`.
    order: Vec<(Size, JobId)>,
    /// The cached size multiset, ascending.
    sizes_asc: Vec<Size>,
    /// Lookups over the cached size multiset.
    pub(crate) hits: u64,
    /// Lookups over a new size multiset.
    pub(crate) misses: u64,
}

impl ThresholdLadder {
    /// Whether the cached order is exactly the `(size, id)` sort of `jobs`.
    /// `order` only ever holds the sorted keys of some `n`-job list, so its
    /// ids are `0..n`; if `jobs` has `n` jobs and each id still has its
    /// recorded size, the keys are `jobs`' own and still sorted.
    fn order_matches(&self, jobs: &[Job]) -> bool {
        self.filled
            && self.order.len() == jobs.len()
            && self
                .order
                .iter()
                .all(|&(size, j)| jobs.get(j).is_some_and(|job| job.size == size))
    }

    /// Bring `order` and `sizes_asc` up to date for `jobs`, counting a hit
    /// when the size multiset is the cached one and a miss otherwise.
    fn refresh(&mut self, jobs: &[Job]) {
        if self.order_matches(jobs) {
            self.hits += 1;
            debug_assert!(
                {
                    let mut fresh: Vec<(Size, JobId)> = jobs
                        .iter()
                        .enumerate()
                        .map(|(j, job)| (job.size, j))
                        .collect();
                    fresh.sort_unstable();
                    fresh == self.order
                },
                "verified job order differs from a fresh sort"
            );
            return;
        }
        self.order.clear();
        self.order
            .extend(jobs.iter().enumerate().map(|(j, job)| (job.size, j)));
        // The keys are distinct, so the unstable sort is deterministic.
        self.order.sort_unstable();
        let sizes = self.order.iter().map(|&(size, _)| size);
        if self.filled && sizes.clone().eq(self.sizes_asc.iter().copied()) {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.sizes_asc.clear();
            self.sizes_asc.extend(sizes);
            self.filled = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// proc 0: sizes `[2, 3, 7]`; proc 1: sizes `[4]`.
    fn inst() -> Instance {
        Instance::from_sizes(&[7, 2, 3, 4], vec![0, 0, 0, 1], 2).unwrap()
    }

    fn small_count(p: &Profiles, proc: ProcId, t: Size) -> usize {
        p.proc(proc).eval(t).0
    }

    fn a(p: &Profiles, proc: ProcId, t: Size) -> usize {
        p.proc(proc).eval(t).1
    }

    fn b(p: &Profiles, proc: ProcId, t: Size) -> usize {
        p.proc(proc).eval(t).2
    }

    #[test]
    fn profiles_sorted_with_prefix_sums() {
        let p = Profiles::new(&inst());
        assert_eq!(p.proc(0).prefix, vec![0, 2, 5, 12]);
        assert_eq!(p.proc(1).prefix, vec![0, 4]);
        assert_eq!(p.proc(0).load(), 12);
    }

    #[test]
    fn large_job_counts() {
        let p = Profiles::new(&inst());
        // t=6: large iff 2s > 6 <=> s > 3: sizes 7 and 4 are large.
        assert_eq!(p.l_t(6), 2);
        // t=8: large iff s > 4: only 7.
        assert_eq!(p.l_t(8), 1);
        // t=14: none large (2*7=14 <= 14).
        assert_eq!(p.l_t(14), 0);
        // Processor 0 keeps 7 large at t=8 (small_count 2 of 3 jobs);
        // processor 1's 4 is small there (2·4 = 8).
        assert_eq!(p.proc(0).eval(8).0, 2);
        assert_eq!(p.proc(1).eval(8).0, p.proc(1).len());
    }

    #[test]
    fn small_counts_are_prefixes() {
        let p = Profiles::new(&inst());
        // proc0 ascending sizes [2,3,7]; t=6 -> smalls {2,3}.
        assert_eq!(small_count(&p, 0, 6), 2);
        assert_eq!(small_count(&p, 0, 14), 3);
        assert_eq!(small_count(&p, 1, 8), 1);
    }

    #[test]
    fn small_count_boundary_is_strict() {
        let p = Profiles::new(&inst());
        // size s is small iff 2s <= t. At t = 4, size 2 is small (4<=4),
        // size 3 is large (6>4).
        assert_eq!(small_count(&p, 0, 4), 1);
        // At t = 3, size 2 is large (4 > 3).
        assert_eq!(small_count(&p, 0, 3), 0);
    }

    #[test]
    fn a_counts_small_removals_to_half() {
        let p = Profiles::new(&inst());
        // t=10: smalls on proc0 = {2,3} (7 is large), small total 5 <= 5 = t/2: a=0.
        assert_eq!(a(&p, 0, 10), 0);
        // t=8: smalls {2,3} total 5 > 4; removing 3 leaves 2 <= 4: a=1.
        assert_eq!(a(&p, 0, 8), 1);
        // t=14: smalls {2,3,7} total 12 > 7; remove 7 -> 5 <= 7: a=1.
        assert_eq!(a(&p, 0, 14), 1);
    }

    #[test]
    fn b_forces_large_removal() {
        let p = Profiles::new(&inst());
        // t=8: proc0 has large 7 (forced removal) + smalls {2,3} total 5 <= 8: b=1.
        assert_eq!(b(&p, 0, 8), 1);
        // t=4: smalls {2}, larges {3,7}: post-Step-1 one large kept -> forced 1;
        // small total 2 <= 4: b=1.
        assert_eq!(b(&p, 0, 4), 1);
        // t=14: no larges; total 12 <= 14: b=0.
        assert_eq!(b(&p, 0, 14), 0);
        // proc1 t=8: large 4? 2*4=8 <= 8 -> small. total 4 <= 8: b=0.
        assert_eq!(b(&p, 1, 8), 0);
    }

    #[test]
    fn a_can_be_below_b_only_with_large() {
        let p = Profiles::new(&inst());
        // t=10: proc 0 keeps its large 7, so a = 0 < b = 1.
        assert_eq!(p.proc(0).eval(10), (2, 0, 1));
        // Large-free processors have a >= b.
        assert!(a(&p, 1, 10) >= b(&p, 1, 10));
    }

    #[test]
    fn ladder_is_the_candidate_suffix_from_the_last_one_below_the_floor() {
        let p = Profiles::new(&inst());
        let all = p.candidates();
        let mut ladder = Vec::new();
        for floor in 0..=all.last().unwrap() + 1 {
            p.ladder_into(floor, &mut ladder);
            let start = all.partition_point(|&t| t < floor).saturating_sub(1);
            assert_eq!(ladder, all[start..], "floor={floor}");
        }
    }

    #[test]
    fn candidates_cover_changes() {
        let p = Profiles::new(&inst());
        let cands = p.candidates();
        // Sorted and deduped.
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
        // Contains doubled sizes and prefix sums.
        for v in [4, 6, 8, 14, 2, 5, 12, 10, 24] {
            assert!(cands.contains(&v), "missing {v}");
        }
        // Every quantity is constant between consecutive candidates: probe
        // midpoints (here: integer t between candidates) and endpoints.
        for w in cands.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi - lo >= 2 {
                let mid = lo + 1;
                assert_eq!(p.l_t(lo), p.l_t(mid), "L_T changed inside ({lo},{hi})");
                for proc in 0..2 {
                    assert_eq!(
                        a(&p, proc, lo),
                        a(&p, proc, mid),
                        "a changed inside ({lo},{hi})"
                    );
                    assert_eq!(
                        b(&p, proc, lo),
                        b(&p, proc, mid),
                        "b changed inside ({lo},{hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn largest_candidate_needs_no_moves() {
        let p = Profiles::new(&inst());
        let t = *p.candidates().last().unwrap();
        assert_eq!(p.l_t(t), 0);
        for proc in 0..2 {
            assert_eq!(a(&p, proc, t), 0);
            assert_eq!(b(&p, proc, t), 0);
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_construction() {
        let mut p = Profiles::default();
        let a = inst();
        // A different placement of the same size multiset, then a different
        // multiset entirely; each rebuild must match a fresh build.
        let b = Instance::from_sizes(&[7, 2, 3, 4], vec![1, 1, 0, 0], 2).unwrap();
        let c = Instance::from_sizes(&[5, 5], vec![0, 1], 3).unwrap();
        for inst in [&a, &b, &c] {
            p.rebuild(inst);
            let fresh = Profiles::new(inst);
            assert_eq!(p.candidates(), fresh.candidates());
            for proc in 0..inst.num_procs() {
                assert_eq!(p.proc(proc).jobs_asc, fresh.proc(proc).jobs_asc);
                assert_eq!(p.proc(proc).prefix, fresh.proc(proc).prefix);
            }
            for t in [0u64, 3, 7, 10, 24] {
                assert_eq!(p.l_t(t), fresh.l_t(t), "t={t}");
            }
        }
    }

    fn jobs_of(sizes: &[u64]) -> Vec<Job> {
        sizes.iter().map(|&s| Job::unit(s)).collect()
    }

    fn counts(ladder: &ThresholdLadder) -> (u64, u64) {
        (ladder.hits, ladder.misses)
    }

    #[test]
    fn ladder_verifies_reorders_and_misses() {
        let mut ladder = ThresholdLadder::default();
        ladder.refresh(&jobs_of(&[4, 2, 9, 2]));
        assert_eq!(ladder.order, vec![(2, 1), (2, 3), (4, 0), (9, 2)]);
        assert_eq!(ladder.sizes_asc, vec![2, 2, 4, 9]);
        assert_eq!(counts(&ladder), (0, 1));

        // Same job vector: the cached order verifies, a hit.
        ladder.refresh(&jobs_of(&[4, 2, 9, 2]));
        assert_eq!(ladder.order, vec![(2, 1), (2, 3), (4, 0), (9, 2)]);
        assert_eq!(counts(&ladder), (1, 1));

        // Same multiset, permuted jobs: re-sorted order, still a hit.
        ladder.refresh(&jobs_of(&[9, 2, 2, 4]));
        assert_eq!(ladder.order, vec![(2, 1), (2, 2), (4, 3), (9, 0)]);
        assert_eq!(ladder.sizes_asc, vec![2, 2, 4, 9]);
        assert_eq!(counts(&ladder), (2, 1));

        // One size changed with the ascending order kept: a miss.
        ladder.refresh(&jobs_of(&[9, 2, 2, 5]));
        assert_eq!(ladder.order, vec![(2, 1), (2, 2), (5, 3), (9, 0)]);
        assert_eq!(ladder.sizes_asc, vec![2, 2, 5, 9]);
        assert_eq!(counts(&ladder), (2, 2));
    }

    #[test]
    fn empty_job_list_misses_on_a_fresh_ladder() {
        let mut ladder = ThresholdLadder::default();
        ladder.refresh(&[]);
        ladder.refresh(&[]);
        assert_eq!(counts(&ladder), (1, 1));
        // A cached non-empty multiset is not the empty one.
        ladder.refresh(&jobs_of(&[3]));
        ladder.refresh(&[]);
        assert_eq!(counts(&ladder), (1, 3));
    }

    #[test]
    fn empty_processor_profile() {
        let inst = Instance::from_sizes(&[5], vec![0], 3).unwrap();
        let p = Profiles::new(&inst);
        assert!(p.proc(1).is_empty());
        assert_eq!(a(&p, 1, 10), 0);
        assert_eq!(b(&p, 1, 10), 0);
    }
}
