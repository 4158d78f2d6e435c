//! The Karp–Luby coverage estimator for ws-set confidence.
//!
//! The probability of a union of world-sets `ω(d_1) ∪ … ∪ ω(d_m)` is
//! estimated by importance sampling over the *multiset cover*
//! `U = {(i, w) | w ∈ ω(d_i)}` whose total weight `M = Σ_i P(d_i)` is easy
//! to compute: sample a descriptor `i` with probability `P(d_i)/M`, sample a
//! world `w` from the conditional distribution given `d_i`, and record
//! `Z = 1 / |{j : w ∈ ω(d_j)}|`. Then `E[M · Z] = P(⋃_i ω(d_i))`, and
//! `Z ∈ (0, 1]`, which makes the estimator an FPRAS with
//! `O(m · log(1/δ)/ε²)` iterations (Karp & Luby 1983; the unbiased-estimator
//! form follows Vazirani's presentation and the self-adjusting coverage
//! algorithm of Karp, Luby & Madras 1989).

use rand::rngs::StdRng;
use uprob_wsd::{NeumaierSum, WorldTable, WsSet};

use crate::parallel::stream_sum;
use crate::sampler::SetSampler;
use crate::{ApproximationOptions, Result};

/// A prepared Karp–Luby estimator for one ws-set.
pub struct KarpLuby {
    sampler: SetSampler,
}

/// Result of an (ε, δ) estimation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KarpLubyResult {
    /// The probability estimate.
    pub estimate: f64,
    /// Number of Monte-Carlo iterations performed.
    pub iterations: u64,
}

impl KarpLuby {
    /// Prepares the estimator (computes descriptor weights, the sampling
    /// tables and the coverage index).
    ///
    /// # Errors
    ///
    /// Fails if the set refers to variables unknown to `table`.
    pub fn new(set: &WsSet, table: &WorldTable) -> Result<Self> {
        Ok(KarpLuby {
            sampler: SetSampler::new(set, table)?,
        })
    }

    /// The scaling factor `M = Σ_i P(d_i)`.
    pub fn total_weight(&self) -> f64 {
        self.sampler.total_weight()
    }

    /// Number of descriptors (the `m` in the iteration bound).
    pub fn num_descriptors(&self) -> usize {
        self.sampler.num_descriptors()
    }

    /// A scratch world vector of the right length for [`KarpLuby::sample`].
    pub(crate) fn scratch(&self) -> Vec<uprob_wsd::ValueIndex> {
        self.sampler.scratch()
    }

    /// Draws one sample of the `[0, 1]`-valued estimator variable `Z`
    /// (so that `E[M · Z]` is the confidence). Callers short-circuit an
    /// empty set first ([`KarpLuby::degenerate`]): it has no descriptor to
    /// draw.
    pub(crate) fn sample(&self, rng: &mut StdRng, world: &mut [uprob_wsd::ValueIndex]) -> f64 {
        let descriptor = self.sampler.sample_descriptor(rng);
        self.sampler
            .sample_world_given_descriptor(descriptor, rng, world);
        let coverage = self.sampler.coverage(world);
        debug_assert!(coverage >= 1, "the conditioning descriptor always covers");
        1.0 / coverage as f64
    }

    /// The classic iteration bound `⌈4 · m · ln(2/δ) / ε²⌉` that makes the
    /// estimator an (ε, δ)-FPRAS.
    pub fn iteration_bound(&self, epsilon: f64, delta: f64) -> u64 {
        let m = self.num_descriptors().max(1) as f64;
        (4.0 * m * (2.0 / delta).ln() / (epsilon * epsilon)).ceil() as u64
    }

    /// Degenerate short-circuit shared by the fixed estimators: `Some(p)` if
    /// the estimate is known without sampling.
    pub(crate) fn degenerate(&self, iterations: u64) -> Option<f64> {
        if self.sampler.num_descriptors() == 0 || iterations == 0 {
            return Some(0.0);
        }
        if self.sampler.num_variables() == 0 {
            // Only nullary descriptors: the set covers all worlds.
            return Some(1.0);
        }
        None
    }

    /// The sum of `iterations` samples of `Z` drawn over deterministic RNG
    /// streams (see [`crate::parallel`]): stream `s` uses
    /// `options.rng_for_stream(stream_base + s)`. The result is a pure
    /// function of `(options.seed, stream_base, iterations)` — it does not
    /// depend on the worker count.
    pub(crate) fn sample_sum_streams(
        &self,
        iterations: u64,
        options: &ApproximationOptions,
        stream_base: u64,
        workers: usize,
    ) -> f64 {
        stream_sum(
            iterations,
            workers,
            |stream| options.rng_for_stream(stream_base + stream),
            |rng, count| {
                let mut world = self.scratch();
                let mut sum = NeumaierSum::new();
                for _ in 0..count {
                    sum.add(self.sample(rng, &mut world));
                }
                sum.value()
            },
        )
    }

    /// Runs a fixed number of iterations fanned out over up to `workers`
    /// sampling threads with per-stream deterministic RNGs and returns the
    /// estimate.
    ///
    /// The result depends only on `options.seed` and `iterations`, never on
    /// the worker count. Degenerate inputs short-circuit: an empty set (or
    /// zero iterations) gives 0, a set of nullary descriptors gives 1.
    pub fn estimate_fixed_parallel(
        &self,
        iterations: u64,
        options: &ApproximationOptions,
        workers: usize,
    ) -> f64 {
        if let Some(p) = self.degenerate(iterations) {
            return p;
        }
        let sum = self.sample_sum_streams(iterations, options, 0, workers);
        (self.total_weight() * sum / iterations as f64).min(1.0)
    }
}

/// Runs the Karp–Luby estimator with the classic (ε, δ) iteration bound,
/// fanning the sampling loop out over up to `workers` threads with
/// deterministic per-stream RNGs (the result is independent of the worker
/// count).
///
/// # Errors
///
/// Fails if ε or δ are invalid or the set refers to unknown variables.
pub fn karp_luby_epsilon_delta(
    set: &WsSet,
    table: &WorldTable,
    options: &ApproximationOptions,
    workers: usize,
) -> Result<KarpLubyResult> {
    options.validate()?;
    let estimator = KarpLuby::new(set, table)?;
    let iterations = estimator.iteration_bound(options.epsilon, options.delta);
    let estimate = estimator.estimate_fixed_parallel(iterations, options, workers);
    Ok(KarpLubyResult {
        estimate,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_wsd::{VarId, WsDescriptor};

    fn independent_booleans(n: usize, p: f64) -> (WorldTable, Vec<VarId>, WsSet) {
        let mut w = WorldTable::new();
        let vars: Vec<VarId> = (0..n)
            .map(|i| w.add_boolean(&format!("t{i}"), p).unwrap())
            .collect();
        let set: WsSet = vars
            .iter()
            .map(|&v| WsDescriptor::from_pairs(&w, &[(v, 1)]).unwrap())
            .collect();
        (w, vars, set)
    }

    #[test]
    fn estimates_union_of_independent_events() {
        // P(t1 ∨ … ∨ t5) = 1 - (1 - 0.3)^5 ≈ 0.83193.
        let (w, _, set) = independent_booleans(5, 0.3);
        let estimator = KarpLuby::new(&set, &w).unwrap();
        let options = ApproximationOptions::default().with_seed(17);
        let estimate = estimator.estimate_fixed_parallel(40_000, &options, 1);
        let exact = 1.0 - 0.7f64.powi(5);
        assert!(
            (estimate - exact).abs() < 0.01,
            "estimate {estimate}, exact {exact}"
        );
    }

    #[test]
    fn estimates_overlapping_descriptors() {
        // The Figure 3 ws-set with exact probability 0.7578.
        let mut w = WorldTable::new();
        let x = w
            .add_variable("x", &[(1, 0.1), (2, 0.4), (3, 0.5)])
            .unwrap();
        let y = w.add_variable("y", &[(1, 0.2), (2, 0.8)]).unwrap();
        let z = w.add_variable("z", &[(1, 0.4), (2, 0.6)]).unwrap();
        let u = w.add_variable("u", &[(1, 0.7), (2, 0.3)]).unwrap();
        let v = w.add_variable("v", &[(1, 0.5), (2, 0.5)]).unwrap();
        let s = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (z, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 1), (v, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 2)]).unwrap(),
        ]);
        let estimator = KarpLuby::new(&s, &w).unwrap();
        let options = ApproximationOptions::default().with_seed(23);
        let estimate = estimator.estimate_fixed_parallel(60_000, &options, 1);
        assert!((estimate - 0.7578).abs() < 0.01, "estimate {estimate}");
    }

    #[test]
    fn epsilon_delta_wrapper_meets_its_bound() {
        let (w, _, set) = independent_booleans(4, 0.5);
        let exact = 1.0 - 0.5f64.powi(4);
        for seed in 0..5 {
            let options = ApproximationOptions::default()
                .with_epsilon(0.05)
                .with_delta(0.05)
                .with_seed(seed);
            let result = karp_luby_epsilon_delta(&set, &w, &options, 2).unwrap();
            assert!(result.iterations >= 4 * 4);
            assert!(
                (result.estimate - exact).abs() <= 0.05 * exact + 1e-9,
                "seed {seed}: estimate {} vs exact {exact}",
                result.estimate
            );
        }
    }

    #[test]
    fn iteration_bound_scales_with_descriptors_and_epsilon() {
        let (w, _, set) = independent_booleans(10, 0.5);
        let estimator = KarpLuby::new(&set, &w).unwrap();
        let loose = estimator.iteration_bound(0.1, 0.01);
        let tight = estimator.iteration_bound(0.01, 0.01);
        assert!(tight > loose * 50);
        assert_eq!(loose, (4.0 * 10.0 * (200.0f64).ln() / 0.01).ceil() as u64);
    }

    #[test]
    fn degenerate_inputs() {
        let (w, _, _) = independent_booleans(2, 0.5);
        let empty = KarpLuby::new(&WsSet::empty(), &w).unwrap();
        let options = ApproximationOptions::default();
        assert_eq!(empty.estimate_fixed_parallel(100, &options, 1), 0.0);
        let universal = KarpLuby::new(&WsSet::universal(), &w).unwrap();
        assert_eq!(universal.estimate_fixed_parallel(100, &options, 1), 1.0);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let (w, _, set) = independent_booleans(2, 0.5);
        let options = ApproximationOptions::default().with_epsilon(0.0);
        assert!(karp_luby_epsilon_delta(&set, &w, &options, 2).is_err());
    }

    #[test]
    fn parallel_estimate_is_worker_count_independent_and_accurate() {
        let (w, _, set) = independent_booleans(5, 0.3);
        let exact = 1.0 - 0.7f64.powi(5);
        let estimator = KarpLuby::new(&set, &w).unwrap();
        let base = ApproximationOptions::default().with_seed(77);
        let reference = estimator.estimate_fixed_parallel(60_000, &base, 1);
        assert!(
            (reference - exact).abs() < 0.01,
            "estimate {reference}, exact {exact}"
        );
        for workers in [2usize, 4, 16] {
            let got = estimator.estimate_fixed_parallel(60_000, &base, workers);
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "workers {workers}: {got} != {reference}"
            );
        }
        // Degenerate inputs short-circuit before any thread is spawned.
        let empty = KarpLuby::new(&WsSet::empty(), &w).unwrap();
        assert_eq!(empty.estimate_fixed_parallel(1_000, &base, 4), 0.0);
        let universal = KarpLuby::new(&WsSet::universal(), &w).unwrap();
        assert_eq!(universal.estimate_fixed_parallel(1_000, &base, 4), 1.0);
    }
}
