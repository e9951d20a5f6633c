//! Parallel experiment sweeps over std scoped threads.
//!
//! Experiments are embarrassingly parallel — independent (instance, seed)
//! cells — so the runner just hands out cell indices from an atomic counter
//! across a bounded number of worker threads. Each worker writes its output
//! straight into the cell's own pre-allocated slot, so no lock is held
//! around the result buffer and outputs come back in input order by
//! construction. Scoped threads let workers borrow the experiment closure
//! without `'static` gymnastics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lrb_obs::{names, NoopRecorder, Recorder};

/// Run `f` over every input cell, in parallel, returning outputs in input
/// order. `threads = 0` or `1` runs inline (useful under test).
pub fn run_parallel<I, O, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    run_parallel_recorded(inputs, threads, &NoopRecorder, f)
}

/// [`run_parallel`] with instrumentation: records per-cell wall time
/// (histogram `harness.cell_nanos`), time each worker spends waiting between
/// finishing one cell and starting the next (histogram
/// `harness.queue_wait_nanos`), cell/worker counters, and the overall
/// `harness.run_parallel` phase.
pub fn run_parallel_recorded<I, O, F, R>(inputs: Vec<I>, threads: usize, rec: &R, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
    R: Recorder + Sync,
{
    let _phase = rec.time(names::HARNESS_RUN_PARALLEL);
    rec.incr(names::HARNESS_CELLS, inputs.len() as u64);

    if threads <= 1 || inputs.len() <= 1 {
        rec.incr(names::HARNESS_WORKERS, 1);
        return inputs
            .iter()
            .map(|input| {
                let _cell = rec.time(names::HARNESS_CELL);
                let start = R::ENABLED.then(Instant::now);
                let out = f(input);
                if let Some(t) = start {
                    let nanos = (t.elapsed().as_nanos() as u64).max(1);
                    rec.observe(names::HARNESS_CELL_NANOS, nanos);
                }
                out
            })
            .collect();
    }

    let n = inputs.len();
    let threads = threads.min(n);
    rec.incr(names::HARNESS_WORKERS, threads as u64);
    let next = AtomicUsize::new(0);

    // Workers claim cell indices from the atomic counter and buffer
    // (index, output) pairs locally; outputs land in their input-order slot
    // at join time. No lock is ever taken around shared results.
    let mut results: Vec<Option<O>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, O)> = Vec::new();
                    let mut idle_since = R::ENABLED.then(Instant::now);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if let Some(t) = idle_since {
                            rec.observe(
                                names::HARNESS_QUEUE_WAIT_NANOS,
                                t.elapsed().as_nanos() as u64,
                            );
                        }
                        let out = {
                            let _cell = rec.time(names::HARNESS_CELL);
                            let start = R::ENABLED.then(Instant::now);
                            let out = f(&inputs[i]);
                            if let Some(t) = start {
                                let nanos = (t.elapsed().as_nanos() as u64).max(1);
                                rec.observe(names::HARNESS_CELL_NANOS, nanos);
                            }
                            out
                        };
                        local.push((i, out));
                        idle_since = R::ENABLED.then(Instant::now);
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, out) in handle.join().expect("worker panicked") {
                results[i] = Some(out);
            }
        }
    });

    results
        .into_iter()
        .map(|o| o.expect("every cell computed"))
        .collect()
}

/// Default thread count: the available parallelism, capped at 16 (the
/// sweeps here saturate memory bandwidth long before 16 cores).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(16)
}

/// Derive independent per-cell seeds from a master seed (splitmix64 so
/// neighboring cells get uncorrelated streams).
pub fn seed_for(master: u64, cell: u64) -> u64 {
    let mut z = master ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_obs::AtomicRecorder;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = run_parallel(inputs.clone(), 8, |&x| x * 2);
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn preserves_input_order_under_contention() {
        // Uneven cell costs shuffle completion order; outputs must still
        // come back in input order across many parallel rounds.
        for round in 0..20u64 {
            let inputs: Vec<u64> = (0..257).map(|x| x + round).collect();
            let out = run_parallel(inputs.clone(), 8, |&x| {
                if x % 7 == 0 {
                    std::thread::yield_now();
                }
                x.wrapping_mul(31)
            });
            let expected: Vec<u64> = inputs.iter().map(|x| x.wrapping_mul(31)).collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn inline_and_parallel_agree() {
        let inputs: Vec<u64> = (0..50).collect();
        let seq = run_parallel(inputs.clone(), 1, |&x| x * x);
        let par = run_parallel(inputs, 4, |&x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_empty_and_tiny() {
        let out: Vec<u64> = run_parallel(Vec::<u64>::new(), 8, |&x| x);
        assert!(out.is_empty());
        let out = run_parallel(vec![7u64], 8, |&x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let out = run_parallel(vec![1u64, 2], 64, |&x| x);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn recorded_run_counts_cells_and_times_them() {
        let rec = AtomicRecorder::new();
        let inputs: Vec<u64> = (0..40).collect();
        let out = run_parallel_recorded(inputs, 4, &rec, |&x| x + 1);
        assert_eq!(out.len(), 40);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(names::HARNESS_CELLS), Some(40));
        assert_eq!(snap.counter(names::HARNESS_WORKERS), Some(4));
        assert_eq!(snap.histogram(names::HARNESS_CELL_NANOS).unwrap().count, 40);
        assert_eq!(snap.phase(names::HARNESS_RUN_PARALLEL).unwrap().calls, 1);
        assert!(snap.phase(names::HARNESS_RUN_PARALLEL).unwrap().total_nanos > 0);
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|c| seed_for(42, c)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(seed_for(1, 0), seed_for(2, 0));
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
