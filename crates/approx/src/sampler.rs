//! Shared sampling machinery for the Monte-Carlo estimators.
//!
//! Both the Karp–Luby estimator and naive Monte-Carlo need to (a) sample
//! assignments of the variables relevant to a ws-set according to the world
//! table's distributions and (b) check how many descriptors of the set a
//! sampled (partial) world satisfies. Only the variables that actually occur
//! in the ws-set matter for those checks, so worlds are sampled over that
//! restricted variable set.

#![expect(
    clippy::indexing_slicing,
    reason = "documented caller contract: `world` buffers are sized by `scratch()` to `variables.len()`, descriptor indices come from `sample_descriptor`, and compiled positions were resolved against `variables` at construction"
)]

use uprob_wsd::FxHashMap;

use rand::rngs::StdRng;
use rand::RngExt;
use uprob_wsd::{ValueIndex, VarId, WorldTable, WsDescriptor, WsSet};

use crate::Result;

/// A sampling context for one ws-set: the relevant variables with their
/// cumulative distributions, plus the descriptors in a check-friendly form.
pub struct SetSampler<'a> {
    table: &'a WorldTable,
    /// The variables occurring in the set, in a fixed order.
    variables: Vec<VarId>,
    /// Position of each variable in `variables`.
    positions: FxHashMap<VarId, usize>,
    /// Cumulative probabilities per variable, for inverse-CDF sampling.
    cumulative: Vec<Vec<f64>>,
    /// Each descriptor as `(position, value)` pairs.
    descriptors: Vec<Vec<(usize, ValueIndex)>>,
    /// Probability of each descriptor's world-set.
    descriptor_probabilities: Vec<f64>,
    /// Cumulative descriptor probabilities for sampling a descriptor
    /// proportionally to its weight.
    descriptor_cumulative: Vec<f64>,
    /// Sum of all descriptor probabilities (the `M` of the estimator).
    total_weight: f64,
}

impl<'a> SetSampler<'a> {
    /// Builds a sampler for `set` over `table`.
    ///
    /// # Errors
    ///
    /// Fails if a descriptor refers to a variable unknown to the table.
    pub fn new(set: &WsSet, table: &'a WorldTable) -> Result<Self> {
        let variables: Vec<VarId> = set.variables().into_iter().collect();
        let positions: FxHashMap<VarId, usize> =
            variables.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut cumulative = Vec::with_capacity(variables.len());
        for &var in &variables {
            let info = table.variable(var)?;
            let mut acc = 0.0;
            let cdf: Vec<f64> = info
                .probabilities
                .iter()
                .map(|p| {
                    // uprob-lint: allow(num-raw-accum) -- CDF prefix sums: bits are pinned by the seeded statistical suites, and per-variable domains are tiny
                    acc += p;
                    acc
                })
                .collect();
            cumulative.push(cdf);
        }
        let mut descriptors = Vec::with_capacity(set.len());
        let mut descriptor_probabilities = Vec::with_capacity(set.len());
        let mut descriptor_cumulative = Vec::with_capacity(set.len());
        let mut total_weight = 0.0;
        for d in set.iter() {
            let compiled: Vec<(usize, ValueIndex)> =
                d.iter().map(|a| (positions[&a.var], a.value)).collect();
            let p = descriptor_probability(d, table)?;
            descriptors.push(compiled);
            descriptor_probabilities.push(p);
            // uprob-lint: allow(num-raw-accum) -- proposal-weight tally: bits are pinned by the seeded statistical suites; Monte-Carlo error dominates rounding
            total_weight += p;
            descriptor_cumulative.push(total_weight);
        }
        Ok(SetSampler {
            table,
            variables,
            positions,
            cumulative,
            descriptors,
            descriptor_probabilities,
            descriptor_cumulative,
            total_weight,
        })
    }

    /// Number of descriptors.
    pub fn num_descriptors(&self) -> usize {
        self.descriptors.len()
    }

    /// Number of relevant variables.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// The sum `M = Σ_d P(d)` of descriptor probabilities (an upper bound on
    /// the probability of the union and the scaling factor of the Karp–Luby
    /// estimator).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Probability of descriptor `index`.
    pub fn descriptor_probability(&self, index: usize) -> f64 {
        self.descriptor_probabilities[index]
    }

    /// Samples a value for every relevant variable according to the world
    /// table's distributions, writing into `world` (indexed like
    /// `variables`).
    pub fn sample_world(&self, rng: &mut StdRng, world: &mut [ValueIndex]) {
        for (i, cdf) in self.cumulative.iter().enumerate() {
            world[i] = sample_cdf(cdf, rng);
        }
    }

    /// Samples a descriptor index proportionally to descriptor probability.
    pub fn sample_descriptor(&self, rng: &mut StdRng) -> usize {
        let target = rng.random_range(0.0..self.total_weight.max(f64::MIN_POSITIVE));
        match self.descriptor_cumulative.binary_search_by(|acc| {
                #[expect(clippy::expect_used, reason = "cumulative weights are finite sums of table probabilities; the rng target is finite too")]
            acc.partial_cmp(&target)
                .expect("cumulative weights are finite")
        }) {
            Ok(i) | Err(i) => i.min(self.descriptors.len() - 1),
        }
    }

    /// Overwrites the variables fixed by descriptor `index` in `world` and
    /// samples the remaining relevant variables (i.e. samples a world from
    /// the conditional distribution given the descriptor).
    pub fn sample_world_given_descriptor(
        &self,
        index: usize,
        rng: &mut StdRng,
        world: &mut [ValueIndex],
    ) {
        self.sample_world(rng, world);
        for &(position, value) in &self.descriptors[index] {
            world[position] = value;
        }
    }

    /// Number of descriptors satisfied by `world`.
    pub fn coverage(&self, world: &[ValueIndex]) -> usize {
        self.descriptors
            .iter()
            .filter(|d| d.iter().all(|&(position, value)| world[position] == value))
            .count()
    }

    /// True if at least one descriptor is satisfied by `world`
    /// (cheaper than [`SetSampler::coverage`] when only membership matters).
    pub fn covered(&self, world: &[ValueIndex]) -> bool {
        self.descriptors
            .iter()
            .any(|d| d.iter().all(|&(position, value)| world[position] == value))
    }

    /// A scratch world vector of the right length.
    pub fn scratch(&self) -> Vec<ValueIndex> {
        vec![ValueIndex(0); self.variables.len()]
    }

    /// The world table this sampler draws from.
    pub fn table(&self) -> &'a WorldTable {
        self.table
    }

    /// Position of a variable in the sampled world vector, if relevant.
    pub fn position(&self, var: VarId) -> Option<usize> {
        self.positions.get(&var).copied()
    }
}

/// Probability of a single descriptor, validating against the table.
fn descriptor_probability(d: &WsDescriptor, table: &WorldTable) -> Result<f64> {
    let mut p = 1.0;
    for a in d.iter() {
        p *= table.probability(a.var, a.value)?;
    }
    Ok(p)
}

/// Inverse-CDF sampling of a value index.
fn sample_cdf(cdf: &[f64], rng: &mut StdRng) -> ValueIndex {
    let target: f64 = rng.random_range(0.0..1.0);
    for (i, &acc) in cdf.iter().enumerate() {
        if target < acc {
            return ValueIndex(i as u16);
        }
    }
    ValueIndex((cdf.len() - 1) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use uprob_wsd::WsDescriptor;

    fn setup() -> (WorldTable, WsSet) {
        let mut w = WorldTable::new();
        let a = w.add_boolean("a", 0.3).unwrap();
        let b = w.add_boolean("b", 0.6).unwrap();
        let c = w.add_uniform("c", 4).unwrap();
        let s = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(a, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(b, 1), (c, 0)]).unwrap(),
        ]);
        (w, s)
    }

    #[test]
    fn sampler_restricts_to_relevant_variables() {
        let (w, s) = setup();
        let sampler = SetSampler::new(&s, &w).unwrap();
        assert_eq!(sampler.num_variables(), 3);
        assert_eq!(sampler.num_descriptors(), 2);
        assert!((sampler.total_weight() - (0.3 + 0.6 * 0.25)).abs() < 1e-12);
        assert!((sampler.descriptor_probability(0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn coverage_counts_satisfied_descriptors() {
        let (w, s) = setup();
        let sampler = SetSampler::new(&s, &w).unwrap();
        let a_pos = sampler.position(w.variable_by_name("a").unwrap()).unwrap();
        let b_pos = sampler.position(w.variable_by_name("b").unwrap()).unwrap();
        let c_pos = sampler.position(w.variable_by_name("c").unwrap()).unwrap();
        let mut world = sampler.scratch();
        // a = 1 (true), b = 1 (true), c = 0: both descriptors covered.
        world[a_pos] = ValueIndex(0); // value label 1 is at index 0 for booleans
        world[b_pos] = ValueIndex(0);
        world[c_pos] = ValueIndex(0);
        assert_eq!(sampler.coverage(&world), 2);
        assert!(sampler.covered(&world));
        // a = 0, b = 0: nothing covered.
        world[a_pos] = ValueIndex(1);
        world[b_pos] = ValueIndex(1);
        assert_eq!(sampler.coverage(&world), 0);
        assert!(!sampler.covered(&world));
    }

    #[test]
    fn sampled_worlds_follow_the_distribution() {
        let (w, s) = setup();
        let sampler = SetSampler::new(&s, &w).unwrap();
        let a_pos = sampler.position(w.variable_by_name("a").unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut world = sampler.scratch();
        let samples = 20_000;
        let mut a_true = 0usize;
        for _ in 0..samples {
            sampler.sample_world(&mut rng, &mut world);
            if world[a_pos] == ValueIndex(0) {
                a_true += 1;
            }
        }
        let frequency = a_true as f64 / samples as f64;
        assert!((frequency - 0.3).abs() < 0.02, "frequency {frequency}");
    }

    #[test]
    fn conditional_sampling_fixes_descriptor_assignments() {
        let (w, s) = setup();
        let sampler = SetSampler::new(&s, &w).unwrap();
        let b_pos = sampler.position(w.variable_by_name("b").unwrap()).unwrap();
        let c_pos = sampler.position(w.variable_by_name("c").unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut world = sampler.scratch();
        for _ in 0..100 {
            sampler.sample_world_given_descriptor(1, &mut rng, &mut world);
            assert_eq!(world[b_pos], ValueIndex(0));
            assert_eq!(world[c_pos], ValueIndex(0));
        }
    }

    #[test]
    fn skewed_domain_frequencies_match_the_distribution() {
        // Audit companion to the vendored `rand` bias fix: sampling a
        // variable with a strongly skewed domain must reproduce every
        // alternative's probability, including the rare ones — a modulo- or
        // truncation-biased integer/CDF path would systematically shift
        // mass between neighbouring buckets.
        let mut w = WorldTable::new();
        let skewed = w
            .add_variable(
                "skewed",
                &[
                    (0, 0.5),
                    (1, 0.25),
                    (2, 0.125),
                    (3, 0.1),
                    (4, 0.02),
                    (5, 0.005),
                ],
            )
            .unwrap();
        let s =
            WsSet::from_descriptors(vec![WsDescriptor::from_pairs(&w, &[(skewed, 0)]).unwrap()]);
        let sampler = SetSampler::new(&s, &w).unwrap();
        let position = sampler.position(skewed).unwrap();
        let mut world = sampler.scratch();
        let samples = 200_000;
        let mut counts = [0usize; 6];
        let mut rng = StdRng::seed_from_u64(2008);
        for _ in 0..samples {
            sampler.sample_world(&mut rng, &mut world);
            counts[world[position].index()] += 1;
        }
        let expected = [0.5, 0.25, 0.125, 0.1, 0.02, 0.005];
        for (value, (&count, &p)) in counts.iter().zip(&expected).enumerate() {
            let frequency = count as f64 / samples as f64;
            // Allow ~5 standard deviations of binomial noise.
            let tolerance = 5.0 * (p * (1.0 - p) / samples as f64).sqrt() + 1e-4;
            assert!(
                (frequency - p).abs() < tolerance,
                "value {value}: frequency {frequency}, expected {p}"
            );
        }
    }

    #[test]
    fn descriptor_sampling_is_weight_proportional() {
        let (w, s) = setup();
        let sampler = SetSampler::new(&s, &w).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let samples = 20_000;
        let mut first = 0usize;
        for _ in 0..samples {
            if sampler.sample_descriptor(&mut rng) == 0 {
                first += 1;
            }
        }
        let expected = 0.3 / (0.3 + 0.15);
        let frequency = first as f64 / samples as f64;
        assert!((frequency - expected).abs() < 0.02, "frequency {frequency}");
    }
}
