//! Order-preserving indexed fan-out: the one worker-pool primitive the
//! whole workspace's deterministic parallelism is built on.
//!
//! [`fan_out_indexed`] runs `count` independent jobs on scoped worker
//! threads that steal job indices off a shared atomic counter, and returns
//! the results **in index order** regardless of which worker computed
//! which job or when it finished. Callers combine the ordered results with
//! whatever (possibly order-sensitive, compensated) fold they need, so the
//! final value is a pure function of the inputs — one worker or
//! sixty-four. The sampling streams of [`crate::parallel::stream_sum`],
//! the per-descriptor partials of ws-descriptor elimination and the
//! per-tuple batch confidence workers of `uprob-query` all reduce to this
//! primitive.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `run(0), …, run(count − 1)` on up to `workers` scoped threads and
/// returns the results in index order.
///
/// With one worker (or at most one job) the jobs run inline on the calling
/// thread, in order, with zero scheduling overhead — so a sequential call
/// is not merely equivalent but literally the same loop. `run` must be
/// oblivious to *which* thread invokes it; determinism of the output is
/// then exactly determinism of the individual jobs.
pub fn fan_out_indexed<T, F>(count: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, count.max(1));
    if workers <= 1 {
        return (0..count).map(run).collect();
    }
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(count).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            break;
                        }
                        local.push((index, run(index)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            #[expect(
                clippy::expect_used,
                reason = "panic propagation: a panicked fan-out worker must abort the caller"
            )]
            #[expect(
                clippy::indexing_slicing,
                reason = "workers only claim indices below the job count `slots` was sized with"
            )]
            for (index, value) in handle.join().expect("fan-out worker panicked") {
                slots[index] = Some(value);
            }
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "the atomic job counter hands out each index exactly once"
    )]
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index must be claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_every_worker_count() {
        let reference: Vec<usize> = (0..100).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = fan_out_indexed(100, workers, |i| i * i);
            assert_eq!(got, reference, "workers {workers}");
        }
    }

    #[test]
    fn empty_and_single_job_counts() {
        assert_eq!(fan_out_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out_indexed(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn errors_travel_as_values() {
        let results = fan_out_indexed(10, 4, |i| if i == 7 { Err("seven") } else { Ok(i) });
        assert_eq!(results[7], Err("seven"));
        assert_eq!(results[3], Ok(3));
    }
}
