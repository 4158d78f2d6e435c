//! Sampling machinery of the Karp–Luby estimator.
//!
//! The estimator needs to (a) sample assignments of the variables relevant
//! to a ws-set according to the world table's distributions and (b) count
//! how many descriptors of the set a sampled (partial) world satisfies. Only
//! the variables that actually occur in the ws-set matter for those checks,
//! so worlds are sampled over that restricted variable set.
//!
//! The count (b) is answered from a *pivot index*. Every non-nullary
//! descriptor is filed under its least likely assignment, its pivot, in a
//! CSR table over `(position, value)` slots. A world can only satisfy a
//! descriptor whose pivot it agrees with, so a trial visits the one bucket
//! of `(p, world[p])` per position `p` and checks the remaining assignments
//! of those candidates: Σ_d P(pivot_d) of them in expectation, instead of
//! every descriptor. Nullary descriptors cover every world and are a
//! constant.

#![expect(
    clippy::indexing_slicing,
    reason = "documented caller contract: `world` buffers are sized by `scratch()` to the relevant variables, descriptor indices come from `sample_descriptor`, and every position, slot and filing rank was resolved against the tables at construction"
)]

use rand::rngs::StdRng;
use rand::RngExt;
use uprob_wsd::{ValueIndex, VarId, WorldTable, WsSet};

use crate::Result;

/// A sampling context for one ws-set: the relevant variables with their
/// cumulative distributions, plus the descriptors filed by pivot.
pub(crate) struct SetSampler {
    /// The variables occurring in the set, in `VarId` order; a variable's
    /// index here is its position in a sampled world.
    variables: Vec<VarId>,
    /// Cumulative probabilities per variable, for inverse-CDF sampling.
    cumulative: Vec<Vec<f64>>,
    /// The slot of `(position, value)` is `slot_base[position] + value`.
    slot_base: Vec<usize>,
    /// Filed descriptors `bucket_start[s]..bucket_start[s + 1]` have their
    /// pivot in slot `s`. The bucket after the last slot holds the nullary
    /// descriptors.
    bucket_start: Vec<usize>,
    /// Filed descriptor `k` is
    /// `assignments[descriptor_start[k]..descriptor_start[k + 1]]`.
    descriptor_start: Vec<usize>,
    /// Every descriptor's `(position, value)` pairs, pivot first, in filing
    /// order.
    assignments: Vec<(u32, ValueIndex)>,
    /// The filing rank of each descriptor, in set order.
    filed: Vec<usize>,
    /// Number of nullary descriptors (each covers every world).
    nullary: usize,
    /// Cumulative descriptor probabilities, in set order, for sampling a
    /// descriptor proportionally to its weight.
    descriptor_cumulative: Vec<f64>,
    /// Sum of all descriptor probabilities (the `M` of the estimator).
    total_weight: f64,
}

impl SetSampler {
    /// Builds a sampler for `set` over `table`.
    ///
    /// # Errors
    ///
    /// Fails if a descriptor refers to a variable or value unknown to the
    /// table.
    pub(crate) fn new(set: &WsSet, table: &WorldTable) -> Result<Self> {
        let variables: Vec<VarId> = set.variables().into_iter().collect();
        // Dense `VarId` → position table, used while compiling descriptors.
        let mut position = vec![0u32; variables.last().map_or(0, |v| v.index() + 1)];
        let mut cumulative = Vec::with_capacity(variables.len());
        let mut slot_base = Vec::with_capacity(variables.len());
        let mut slots = 0;
        for (p, &var) in variables.iter().enumerate() {
            position[var.index()] = p as u32;
            let info = table.variable(var)?;
            let mut acc = 0.0;
            let cdf: Vec<f64> = info
                .probabilities
                .iter()
                .map(|p| {
                    acc += p;
                    acc
                })
                .collect();
            slot_base.push(slots);
            slots += cdf.len();
            cumulative.push(cdf);
        }

        // First pass: weights, pivots and bucket sizes. The nullary bucket
        // is slot `slots`.
        let mut pivot_slot = Vec::with_capacity(set.len());
        let mut bucket_start = vec![0usize; slots + 2];
        let mut descriptor_cumulative = Vec::with_capacity(set.len());
        let mut total_weight = 0.0;
        for d in set.iter() {
            let mut p = 1.0;
            let mut pivot = (f64::INFINITY, slots);
            for a in d.iter() {
                let q = table.probability(a.var, a.value)?;
                p *= q;
                if q < pivot.0 {
                    let slot = slot_base[position[a.var.index()] as usize] + a.value.index();
                    pivot = (q, slot);
                }
            }
            pivot_slot.push(pivot.1);
            bucket_start[pivot.1 + 1] += 1;
            total_weight += p;
            descriptor_cumulative.push(total_weight);
        }
        running_sum(&mut bucket_start);

        // Second pass: filing ranks (stable within a bucket), then each
        // descriptor's pairs at its rank, pivot first.
        let mut next = bucket_start.clone();
        let mut filed = Vec::with_capacity(set.len());
        let mut descriptor_start = vec![0usize; set.len() + 1];
        for (d, &slot) in set.iter().zip(&pivot_slot) {
            filed.push(next[slot]);
            descriptor_start[next[slot] + 1] = d.len();
            next[slot] += 1;
        }
        running_sum(&mut descriptor_start);
        let mut assignments = vec![(0u32, ValueIndex(0)); descriptor_start[set.len()]];
        for ((d, &slot), &rank) in set.iter().zip(&pivot_slot).zip(&filed) {
            let mut rest = descriptor_start[rank] + 1;
            for a in d.iter() {
                let p = position[a.var.index()];
                if slot_base[p as usize] + a.value.index() == slot {
                    assignments[descriptor_start[rank]] = (p, a.value);
                } else {
                    assignments[rest] = (p, a.value);
                    rest += 1;
                }
            }
        }
        Ok(SetSampler {
            variables,
            cumulative,
            slot_base,
            nullary: bucket_start[slots + 1] - bucket_start[slots],
            bucket_start,
            descriptor_start,
            assignments,
            filed,
            descriptor_cumulative,
            total_weight,
        })
    }

    /// Number of descriptors.
    pub(crate) fn num_descriptors(&self) -> usize {
        self.filed.len()
    }

    /// Number of relevant variables.
    pub(crate) fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// The sum `M = Σ_d P(d)` of descriptor probabilities (an upper bound on
    /// the probability of the union and the scaling factor of the Karp–Luby
    /// estimator).
    pub(crate) fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Samples a value for every relevant variable according to the world
    /// table's distributions, writing into `world` (indexed by position).
    pub(crate) fn sample_world(&self, rng: &mut StdRng, world: &mut [ValueIndex]) {
        for (i, cdf) in self.cumulative.iter().enumerate() {
            world[i] = sample_cdf(cdf, rng);
        }
    }

    /// Samples a descriptor index proportionally to descriptor probability.
    /// The set must not be empty.
    pub(crate) fn sample_descriptor(&self, rng: &mut StdRng) -> usize {
        let target = rng.random_range(0.0..self.total_weight.max(f64::MIN_POSITIVE));
        match self.descriptor_cumulative.binary_search_by(|acc| {
                #[expect(clippy::expect_used, reason = "cumulative weights are finite sums of table probabilities; the rng target is finite too")]
            acc.partial_cmp(&target)
                .expect("cumulative weights are finite")
        }) {
            Ok(i) | Err(i) => i.min(self.filed.len() - 1),
        }
    }

    /// Overwrites the variables fixed by descriptor `index` in `world` and
    /// samples the remaining relevant variables (i.e. samples a world from
    /// the conditional distribution given the descriptor).
    pub(crate) fn sample_world_given_descriptor(
        &self,
        index: usize,
        rng: &mut StdRng,
        world: &mut [ValueIndex],
    ) {
        self.sample_world(rng, world);
        let rank = self.filed[index];
        let pairs = &self.assignments[self.descriptor_start[rank]..self.descriptor_start[rank + 1]];
        for &(position, value) in pairs {
            world[position as usize] = value;
        }
    }

    /// Number of descriptors satisfied by `world`.
    pub(crate) fn coverage(&self, world: &[ValueIndex]) -> usize {
        let mut count = self.nullary;
        for (&base, value) in self.slot_base.iter().zip(world) {
            let slot = base + value.index();
            let bucket =
                &self.descriptor_start[self.bucket_start[slot]..=self.bucket_start[slot + 1]];
            for bounds in bucket.windows(2) {
                let rest = &self.assignments[bounds[0] + 1..bounds[1]];
                let covers = rest
                    .iter()
                    .fold(true, |covers, &(p, v)| covers & (world[p as usize] == v));
                count += usize::from(covers);
            }
        }
        count
    }

    /// A scratch world vector of the right length.
    pub(crate) fn scratch(&self) -> Vec<ValueIndex> {
        vec![ValueIndex(0); self.variables.len()]
    }

    /// Position of a variable in the sampled world vector, if relevant.
    #[cfg(test)]
    fn position(&self, var: VarId) -> Option<usize> {
        self.variables.binary_search(&var).ok()
    }
}

/// Turns counts into CSR offsets in place (each entry becomes the sum of
/// itself and every entry before it).
fn running_sum(offsets: &mut [usize]) {
    let mut sum = 0;
    for offset in offsets {
        sum += *offset;
        *offset = sum;
    }
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

    /// The linear scan the pivot index replaced: every descriptor of the
    /// set, every assignment. The oracle of the coverage differential.
    fn coverage_by_scan(set: &WsSet, sampler: &SetSampler, world: &[ValueIndex]) -> usize {
        set.iter()
            .filter(|d| {
                d.iter()
                    .all(|a| world[sampler.position(a.var).unwrap()] == a.value)
            })
            .count()
    }

    /// Checks the index against the scan on `worlds` unconditioned worlds
    /// and on `worlds` worlds sampled given each descriptor (where the count
    /// is at least one: the conditioning descriptor covers its world).
    fn assert_coverage_matches_the_scan(set: &WsSet, table: &WorldTable, seed: u64, worlds: usize) {
        let sampler = SetSampler::new(set, table).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut world = sampler.scratch();
        for _ in 0..worlds {
            sampler.sample_world(&mut rng, &mut world);
            assert_eq!(
                sampler.coverage(&world),
                coverage_by_scan(set, &sampler, &world),
                "world {world:?} of {set:?}"
            );
        }
        for index in 0..set.len() {
            for _ in 0..worlds {
                sampler.sample_world_given_descriptor(index, &mut rng, &mut world);
                let expected = coverage_by_scan(set, &sampler, &world);
                assert!(expected >= 1, "descriptor {index} must cover its world");
                assert_eq!(
                    sampler.coverage(&world),
                    expected,
                    "world {world:?} given descriptor {index} of {set:?}"
                );
            }
        }
    }

    /// A seed-pinned random instance: 1–8 variables of 1–4 alternatives with
    /// skewed (sometimes zero) probabilities, and 0–40 descriptors of
    /// length 0–4 (nullary and duplicate descriptors included).
    fn random_instance(rng: &mut StdRng) -> (WorldTable, WsSet) {
        let mut table = WorldTable::new();
        let variables: Vec<VarId> = (0..rng.random_range(1..9usize))
            .map(|i| {
                let weights: Vec<f64> = (0..rng.random_range(1..5usize))
                    .map(|_| match rng.random_range(0..4u32) {
                        0 => 0.0,
                        _ => rng.random_range(0.01..1.0),
                    })
                    .collect();
                let total: f64 = weights.iter().sum();
                let alternatives: Vec<(i64, f64)> = weights
                    .iter()
                    .enumerate()
                    .map(|(v, &p)| {
                        let p = if total > 0.0 {
                            p / total
                        } else {
                            1.0 / weights.len() as f64
                        };
                        (v as i64, p)
                    })
                    .collect();
                table.add_variable(&format!("x{i}"), &alternatives).unwrap()
            })
            .collect();
        let mut set = WsSet::empty();
        for _ in 0..rng.random_range(0..41usize) {
            let mut d = WsDescriptor::empty();
            for _ in 0..rng.random_range(0..5usize) {
                let var = variables[rng.random_range(0..variables.len())];
                let size = table.domain_size(var).unwrap();
                // A clash with an earlier pick of the same variable is skipped.
                let _ = d.assign(var, ValueIndex(rng.random_range(0..size) as u16));
            }
            set.push(d);
        }
        (table, set)
    }

    #[test]
    fn pivot_index_coverage_matches_the_linear_scan_on_random_sets() {
        let mut rng = StdRng::seed_from_u64(2008);
        for case in 0..300u64 {
            let (table, set) = random_instance(&mut rng);
            assert_coverage_matches_the_scan(&set, &table, case, 8);
        }
    }

    #[test]
    fn pivot_index_coverage_matches_the_linear_scan_on_edge_cases() {
        let mut w = WorldTable::new();
        let a = w.add_variable("a", &[(0, 0.7), (1, 0.3)]).unwrap();
        let b = w
            .add_variable("b", &[(0, 0.5), (1, 0.0), (2, 0.5)])
            .unwrap();
        let c = w.add_variable("c", &[(0, 1.0)]).unwrap();
        let e = w
            .add_variable("e", &[(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)])
            .unwrap();
        let d = |pairs: &[(VarId, i64)]| WsDescriptor::from_pairs(&w, pairs).unwrap();
        let cases = [
            // A nullary descriptor beside others.
            vec![d(&[]), d(&[(a, 1)]), d(&[(a, 0), (e, 2)])],
            // Duplicate descriptors.
            vec![d(&[(a, 1), (e, 0)]), d(&[(a, 1), (e, 0)]), d(&[(e, 0)])],
            // A zero-probability value as pivot: never sampled freely, but
            // written by conditioning on its descriptor.
            vec![d(&[(b, 1), (a, 0)]), d(&[(b, 1)]), d(&[(b, 0), (e, 3)])],
            // A single-alternative variable (P = 1): the pivot only where it
            // stands alone.
            vec![d(&[(c, 0)]), d(&[(c, 0), (a, 1)]), d(&[(c, 0), (e, 1)])],
            // Many descriptors sharing one pivot slot (e = 0, P = 0.1).
            (0..12)
                .map(|i| d(&[(e, 0), (a, i % 2), (b, [0, 2][(i / 2 % 2) as usize])]))
                .chain([d(&[(e, 0)]), d(&[(a, 1), (e, 0), (c, 0)])])
                .collect(),
        ];
        for (case, descriptors) in cases.into_iter().enumerate() {
            let set = WsSet::from_descriptors(descriptors);
            assert_coverage_matches_the_scan(&set, &w, case as u64, 200);
        }
    }

    #[test]
    fn sampler_restricts_to_relevant_variables() {
        let (w, s) = setup();
        let sampler = SetSampler::new(&s, &w).unwrap();
        assert_eq!(sampler.num_variables(), 3);
        assert_eq!(sampler.num_descriptors(), 2);
        assert!((sampler.total_weight() - (0.3 + 0.6 * 0.25)).abs() < 1e-12);
        assert!((sampler.descriptor_cumulative[0] - 0.3).abs() < 1e-12);
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
        // a = 0, b = 0: nothing covered.
        world[a_pos] = ValueIndex(1);
        world[b_pos] = ValueIndex(1);
        assert_eq!(sampler.coverage(&world), 0);
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
