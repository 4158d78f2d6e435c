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
//! the subtree jobs of `uprob-core`'s parallel fold and the per-tuple batch
//! confidence workers of `uprob-query` all reduce to this primitive.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `run(0), …, run(count − 1)` on up to `workers` scoped threads and
/// returns the results in index order.
///
/// With one worker (or at most one job) the jobs run inline on the calling
/// thread, in order, with zero scheduling overhead — so a sequential call
/// is not merely equivalent but literally the same loop. `run` must be
/// oblivious to *which* thread invokes it; determinism of the output is
/// then exactly determinism of the individual jobs. This is the only place
/// the product crates spawn threads.
///
/// # Panics
///
/// A panic inside `run` is re-raised on the calling thread with the job's
/// own payload once every worker has stopped.
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
            // A panicking job unwinds through its worker; re-raise the
            // job's own payload on the calling thread, so whoever contains
            // the panic (e.g. `ProbDbService`) reports the job's message.
            let local = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            #[expect(
                clippy::indexing_slicing,
                reason = "workers only claim indices below the job count `slots` was sized with"
            )]
            for (index, value) in local {
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
    fn one_worker_runs_every_job_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = fan_out_indexed(4, 1, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_job_panic_reaches_the_caller_with_its_own_message() {
        let caught = std::panic::catch_unwind(|| {
            fan_out_indexed(8, 2, |i| {
                if i == 5 {
                    panic!("boom at job {i}");
                }
                i
            })
        })
        .expect_err("job 5 panics");
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("boom at job 5")
        );
    }

    #[test]
    fn errors_travel_as_values() {
        let results = fan_out_indexed(10, 4, |i| if i == 7 { Err("seven") } else { Ok(i) });
        assert_eq!(results[7], Err("seven"));
        assert_eq!(results[3], Ok(3));
    }
}
