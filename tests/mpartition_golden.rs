//! Golden digest of M-PARTITION's observable output.
//!
//! A seeded corpus (random instances with n ≤ 40, m ≤ 6 under budgets
//! `k ∈ {0, 1, n/4, n}`, plus the `standard_ladder(1, 4)` bench rungs) is
//! solved under every [`ThresholdSearch`] strategy, both from a fresh
//! scratch and through one shared [`Scratch`] (so threshold-ladder cache
//! hits are covered). Every run folds its threshold, probe count, selected
//! processors, planned moves and assignment into one FNV-1a digest, and the
//! `mpartition.candidates_{total,examined,skipped}` counters are folded in
//! per strategy. Any change to what the search probes, which threshold it
//! settles on, or what PARTITION builds there changes the digest; a pure
//! speed-up must leave it equal to [`GOLDEN`]. [`GOLDEN`] covers the
//! scan, incremental and binary searches; the selection (which probes
//! nothing on its fast path) has its own digest, [`GOLDEN_SELECT`], which
//! also folds in `mpartition.select_fallbacks`.

use lrb_obs::AtomicRecorder;
use rand::{Rng, SeedableRng};

use load_rebalance::core::model::{Budget, Instance};
use load_rebalance::core::mpartition::{self, MPartitionRun, ThresholdSearch};
use load_rebalance::core::scratch::Scratch;
use load_rebalance::harness::bench::standard_ladder;

/// The digest of the corpus below.
const GOLDEN: u64 = 0x289b_57e3_06dd_0b82;

/// The digest of the corpus below under [`ThresholdSearch::Select`] alone,
/// with its fallback counter folded in next to the candidate counters.
const GOLDEN_SELECT: u64 = 0x51f5_bc24_9dc2_40fa;

const SEARCHES: [ThresholdSearch; 3] = [
    ThresholdSearch::Binary,
    ThresholdSearch::Scan,
    ThresholdSearch::Incremental,
];

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        let mut len = 0u64;
        for w in ws {
            self.word(w);
            len += 1;
        }
        self.word(len);
    }

    fn run(&mut self, run: &MPartitionRun) {
        self.word(run.threshold);
        self.word(run.probes as u64);
        self.word(run.stats.planned_moves as u64);
        self.words(run.stats.selected.iter().map(|&p| p as u64));
        self.words(run.outcome.assignment().iter().map(|&p| p as u64));
    }
}

/// `count` random instances: n ≤ 40 jobs on m ≤ 6 processors, with size
/// ranges from tie-heavy (1..=4) to wide (1..=10_000).
fn random_corpus(seed: u64, count: usize) -> Vec<Instance> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let n = rng.gen_range(0..=40usize);
            let m = rng.gen_range(1..=6usize);
            let max_size = [4u64, 100, 10_000][rng.gen_range(0..3usize)];
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=max_size)).collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            Instance::from_sizes(&sizes, initial, m).expect("well-formed instance")
        })
        .collect()
}

fn budgets(inst: &Instance) -> Vec<usize> {
    let n = inst.num_jobs();
    vec![0, 1, n / 4, n]
}

fn corpus() -> Vec<(Instance, Vec<usize>)> {
    let mut corpus: Vec<(Instance, Vec<usize>)> = random_corpus(0x601D, 400)
        .into_iter()
        .map(|inst| {
            let ks = budgets(&inst);
            (inst, ks)
        })
        .collect();
    for rung in standard_ladder(1, 4) {
        let Budget::Moves(rung_k) = rung.budget else {
            panic!("bench rungs use move budgets");
        };
        for inst in rung.instances {
            let mut ks = budgets(&inst);
            ks.push(rung_k);
            corpus.push((inst, ks));
        }
    }
    corpus
}

/// The corpus digest under each of `searches` in turn, folding in the
/// named counters after each.
fn corpus_digest(searches: &[ThresholdSearch], counters: &[&str]) -> u64 {
    let corpus = corpus();
    let mut digest = Digest::new();
    for &search in searches {
        let rec = AtomicRecorder::new();
        let mut shared = Scratch::new();
        for (inst, ks) in &corpus {
            for &k in ks {
                let fresh = mpartition::rebalance_with(inst, k, search).expect("solve");
                let reused =
                    mpartition::rebalance_scratch_recorded(inst, k, search, &rec, &mut shared)
                        .expect("solve");
                digest.run(&fresh);
                digest.run(&reused);
            }
        }
        let snap = rec.snapshot();
        for &name in counters {
            digest.word(snap.counter(name).unwrap_or(0));
        }
    }
    digest.0
}

const CANDIDATE_COUNTERS: [&str; 3] = [
    "mpartition.candidates_total",
    "mpartition.candidates_examined",
    "mpartition.candidates_skipped",
];

#[test]
fn mpartition_outputs_match_the_golden_digest() {
    let digest = corpus_digest(&SEARCHES, &CANDIDATE_COUNTERS);
    assert_eq!(
        digest, GOLDEN,
        "M-PARTITION output digest changed: got {digest:#018x}"
    );
}

/// Every corpus cell: the selection settles on the binary search's
/// threshold, `PartitionStats` and assignment.
#[test]
fn select_equals_binary_on_the_corpus() {
    for (inst, ks) in &corpus() {
        for &k in ks {
            let sel = mpartition::rebalance_with(inst, k, ThresholdSearch::Select).expect("solve");
            let bin = mpartition::rebalance_with(inst, k, ThresholdSearch::Binary).expect("solve");
            assert_eq!(sel.threshold, bin.threshold, "{inst:?} k={k}");
            assert_eq!(sel.stats, bin.stats, "{inst:?} k={k}");
            assert_eq!(sel.outcome.assignment(), bin.outcome.assignment());
        }
    }
}

#[test]
fn select_outputs_match_their_golden_digest() {
    let mut counters = CANDIDATE_COUNTERS.to_vec();
    counters.push("mpartition.select_fallbacks");
    let digest = corpus_digest(&[ThresholdSearch::Select], &counters);
    assert_eq!(
        digest, GOLDEN_SELECT,
        "Select output digest changed: got {digest:#018x}"
    );
}
