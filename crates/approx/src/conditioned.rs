//! Conditioned confidence estimation: `P(Q | C) = P(Q ∧ C) / P(C)`.
//!
//! Exact conditioning rewrites the database; when that blows up, queries
//! over the *posterior* can still be answered on the *prior* database by
//! estimating a ratio of two ws-set probabilities: the worlds satisfying
//! both the query and the condition (`Intersect(Q, C)`, Section 3.2) and
//! the worlds satisfying the condition.
//!
//! Both probabilities are estimated with the Karp–Luby estimator driven by
//! the Dagum et al. optimal stopping rule at tightened parameters
//! `(ε/3, δ/2)`. The guarantee composes: if `n̂ ∈ (1 ± ε/3)·P(Q ∧ C)` and
//! `d̂ ∈ (1 ± ε/3)·P(C)`, then
//! `n̂/d̂ ∈ [(1 − ε/3)/(1 + ε/3), (1 + ε/3)/(1 − ε/3)] · P(Q | C)`, and
//! `(1 + ε/3)/(1 − ε/3) = 1 + (2ε/3)/(1 − ε/3) ≤ 1 + ε` for every
//! `ε ∈ (0, 1)` (similarly for the lower end); by the union bound both
//! estimates land in their bands with probability at least `1 − δ`.

use uprob_wsd::{WorldTable, WsSet};

use crate::dagum::{optimal_monte_carlo, StoppingRuleResult};
use crate::error::ApproxError;
use crate::{ApproximationOptions, Result};

/// RNG stream indexes reserved for the two sub-estimates; each sub-run
/// re-derives its own phase streams from the derived seed.
const CONDITION_STREAM: u64 = 101;
const JOINT_STREAM: u64 = 102;

/// Result of a conditioned (ε, δ) estimation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConditionedEstimate {
    /// The estimate of `P(Q | C)`, clamped to `[0, 1]`.
    pub estimate: f64,
    /// The sub-run estimating the joint probability `P(Q ∧ C)`.
    pub joint: StoppingRuleResult,
    /// The sub-run estimating the condition probability `P(C)`.
    pub condition: StoppingRuleResult,
}

impl ConditionedEstimate {
    /// Total Monte-Carlo iterations across both sub-estimates.
    pub fn total_iterations(&self) -> u64 {
        self.joint.total_iterations() + self.condition.total_iterations()
    }
}

/// Estimates `P(query | condition)` on `table` with an overall (ε, δ)
/// relative-error guarantee (see the module docs for the composition
/// argument). The two sub-estimates draw from disjoint deterministic RNG
/// streams derived from `options.seed`, each fanned out over up to
/// `workers` sampling threads (the estimate does not depend on the count).
///
/// # Errors
///
/// * [`ApproxError::InvalidParameter`] if ε or δ are out of range;
/// * [`ApproxError::ImpossibleCondition`] if the condition's estimated
///   probability is zero (conditioning is undefined);
/// * any error of the underlying estimator (unknown variables).
pub fn conditioned_monte_carlo(
    query: &WsSet,
    condition: &WsSet,
    table: &WorldTable,
    options: &ApproximationOptions,
    workers: usize,
) -> Result<ConditionedEstimate> {
    options.validate()?;
    let sub = ApproximationOptions {
        epsilon: options.epsilon / 3.0,
        delta: options.delta / 2.0,
        ..*options
    };
    let condition_run = optimal_monte_carlo(
        condition,
        table,
        &sub.with_seed(options.stream_seed(CONDITION_STREAM)),
        workers,
    )?;
    // A NaN estimate is treated like zero: a condition whose sampled
    // probability vanishes makes the posterior undefined — the typed
    // error, never a NaN/Inf ratio.
    if condition_run.estimate <= 0.0 || condition_run.estimate.is_nan() {
        return Err(ApproxError::ImpossibleCondition);
    }
    let joint_set = query.intersect(condition).normalized();
    let joint_run = optimal_monte_carlo(
        &joint_set,
        table,
        &sub.with_seed(options.stream_seed(JOINT_STREAM)),
        workers,
    )?;
    Ok(ConditionedEstimate {
        estimate: (joint_run.estimate / condition_run.estimate).min(1.0),
        joint: joint_run,
        condition: condition_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_wsd::{VarId, WsDescriptor};

    fn independent_booleans(n: usize, p: f64) -> (WorldTable, Vec<VarId>) {
        let mut w = WorldTable::new();
        let vars = (0..n)
            .map(|i| w.add_boolean(&format!("t{i}"), p).unwrap())
            .collect();
        (w, vars)
    }

    fn singleton(w: &WorldTable, var: VarId) -> WsDescriptor {
        WsDescriptor::from_pairs(w, &[(var, 1)]).unwrap()
    }

    #[test]
    fn conditional_of_independent_events_is_the_marginal() {
        // Q = {a}, C = {b}: independence makes P(Q | C) = P(a) = 0.3.
        let (w, vars) = independent_booleans(2, 0.3);
        let q = WsSet::from_descriptors(vec![singleton(&w, vars[0])]);
        let c = WsSet::from_descriptors(vec![singleton(&w, vars[1])]);
        let options = ApproximationOptions::default()
            .with_epsilon(0.05)
            .with_delta(0.05)
            .with_seed(5);
        let result = conditioned_monte_carlo(&q, &c, &w, &options, 2).unwrap();
        assert!(
            (result.estimate - 0.3).abs() <= 0.05 * 0.3 + 0.01,
            "estimate {}",
            result.estimate
        );
        assert!(result.total_iterations() > 0);
    }

    #[test]
    fn conditional_on_overlapping_union_matches_bayes() {
        // Q = {a}, C = {a} ∪ {b}, all p = 0.5:
        // P(Q | C) = 0.5 / 0.75 = 2/3.
        let (w, vars) = independent_booleans(2, 0.5);
        let q = WsSet::from_descriptors(vec![singleton(&w, vars[0])]);
        let c = WsSet::from_descriptors(vec![singleton(&w, vars[0]), singleton(&w, vars[1])]);
        let exact = 0.5 / 0.75;
        let options = ApproximationOptions::default()
            .with_epsilon(0.05)
            .with_delta(0.05)
            .with_seed(8);
        let result = conditioned_monte_carlo(&q, &c, &w, &options, 2).unwrap();
        assert!(
            (result.estimate - exact).abs() <= 0.05 * exact + 0.01,
            "estimate {} vs exact {exact}",
            result.estimate
        );
    }

    #[test]
    fn query_subsumed_by_condition_never_exceeds_one() {
        // Q = C: the ratio estimate must clamp to at most 1.
        let (w, vars) = independent_booleans(3, 0.4);
        let c: WsSet = vars.iter().map(|&v| singleton(&w, v)).collect();
        let options = ApproximationOptions::default().with_seed(11);
        let result = conditioned_monte_carlo(&c, &c, &w, &options, 2).unwrap();
        assert!(result.estimate <= 1.0);
        assert!(result.estimate > 0.9, "estimate {}", result.estimate);
    }

    #[test]
    fn impossible_conditions_are_rejected() {
        let (w, vars) = independent_booleans(1, 0.5);
        let q = WsSet::from_descriptors(vec![singleton(&w, vars[0])]);
        let err =
            conditioned_monte_carlo(&q, &WsSet::empty(), &w, &ApproximationOptions::default(), 1)
                .unwrap_err();
        assert_eq!(err, ApproxError::ImpossibleCondition);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let (w, vars) = independent_booleans(2, 0.5);
        let q = WsSet::from_descriptors(vec![singleton(&w, vars[0])]);
        let c = WsSet::from_descriptors(vec![singleton(&w, vars[0]), singleton(&w, vars[1])]);
        let options = ApproximationOptions::default().with_seed(77);
        let a = conditioned_monte_carlo(&q, &c, &w, &options, 2).unwrap();
        let b = conditioned_monte_carlo(&q, &c, &w, &options, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let (w, vars) = independent_booleans(1, 0.5);
        let q = WsSet::from_descriptors(vec![singleton(&w, vars[0])]);
        let options = ApproximationOptions::default().with_epsilon(1.5);
        assert!(conditioned_monte_carlo(&q, &q, &w, &options, 2).is_err());
    }
}
