//! Statistical (ε, δ)-guarantee tests: run the estimators many times over a
//! pinned seed matrix on fixtures with *known exact* confidence and assert
//! that the fraction of runs falling outside the relative ε-band stays
//! below δ — with a 2× slack factor so the (fully deterministic) CI runs
//! never flap while still catching a broken guarantee by a wide margin.
//!
//! The seed matrix is `0..N` with `N` pinned in CI through the
//! `UPROB_STAT_SEEDS` environment variable (default 60); every run is a
//! pure function of its seed, so a reported violation count reproduces
//! exactly.

use uprob::prelude::*;
use uprob::wsd::VarId;

/// Size of the pinned seed matrix (`UPROB_STAT_SEEDS` overrides).
fn seed_matrix() -> u64 {
    std::env::var("UPROB_STAT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60)
}

/// The allowed number of out-of-band runs: `2 · δ · N`, rounded up, and at
/// least 1 so tiny matrices don't demand perfection.
fn allowed_violations(delta: f64, runs: u64) -> u64 {
    ((2.0 * delta * runs as f64).ceil() as u64).max(1)
}

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

/// The Figure 3 ws-set with exact probability 0.7578.
fn figure3() -> (WorldTable, WsSet) {
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
    (w, s)
}

/// Runs `estimate` over the seed matrix and returns the number of runs
/// whose result falls outside the relative ε-band around `exact`.
fn count_violations(
    exact: f64,
    epsilon: f64,
    runs: u64,
    estimate: impl Fn(u64) -> f64,
) -> (u64, f64) {
    let mut violations = 0;
    let mut worst: f64 = 0.0;
    for seed in 0..runs {
        let got = estimate(seed);
        let relative_error = (got - exact).abs() / exact;
        worst = worst.max(relative_error);
        if relative_error > epsilon {
            violations += 1;
        }
    }
    (violations, worst)
}

#[test]
fn dagum_aa_estimator_meets_its_epsilon_delta_guarantee() {
    let epsilon = 0.1;
    let delta = 0.1;
    let runs = seed_matrix();
    let (w3, _, near_certain) = independent_booleans(10, 0.3);
    let near_certain_exact = 1.0 - 0.7f64.powi(10);
    let (w_rare, _, rare) = independent_booleans(2, 0.01);
    let rare_exact = 1.0 - 0.99f64.powi(2);
    let (w_fig3, fig3_set) = figure3();
    for (name, table, set, exact) in [
        ("near-certain union", &w3, &near_certain, near_certain_exact),
        ("rare union", &w_rare, &rare, rare_exact),
        ("figure 3", &w_fig3, &fig3_set, 0.7578),
    ] {
        let (violations, worst) = count_violations(exact, epsilon, runs, |seed| {
            optimal_monte_carlo(
                set,
                table,
                &ApproximationOptions::default()
                    .with_epsilon(epsilon)
                    .with_delta(delta)
                    .with_seed(seed),
                available_workers(),
            )
            .unwrap()
            .estimate
        });
        let allowed = allowed_violations(delta, runs);
        assert!(
            violations <= allowed,
            "{name}: {violations}/{runs} runs outside the ε-band \
             (allowed {allowed}, worst relative error {worst:.4})"
        );
    }
}

#[test]
fn karp_luby_worst_case_bound_meets_its_epsilon_delta_guarantee() {
    let epsilon = 0.1;
    let delta = 0.1;
    let runs = seed_matrix();
    let (w, _, set) = independent_booleans(6, 0.25);
    let exact = 1.0 - 0.75f64.powi(6);
    let (violations, worst) = count_violations(exact, epsilon, runs, |seed| {
        karp_luby_epsilon_delta(
            &set,
            &w,
            &ApproximationOptions::default()
                .with_epsilon(epsilon)
                .with_delta(delta)
                .with_seed(seed),
            available_workers(),
        )
        .unwrap()
        .estimate
    });
    let allowed = allowed_violations(delta, runs);
    assert!(
        violations <= allowed,
        "{violations}/{runs} runs outside the ε-band \
         (allowed {allowed}, worst relative error {worst:.4})"
    );
}

#[test]
fn conditioned_estimator_meets_its_composed_epsilon_delta_guarantee() {
    // Q = {a}, C = {a} ∪ {b}, all p = 0.5: P(Q | C) = (1/2) / (3/4) = 2/3.
    let epsilon = 0.1;
    let delta = 0.1;
    let runs = seed_matrix();
    let (w, vars, _) = independent_booleans(2, 0.5);
    let q = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(&w, &[(vars[0], 1)]).unwrap()]);
    let c = WsSet::from_descriptors(vec![
        WsDescriptor::from_pairs(&w, &[(vars[0], 1)]).unwrap(),
        WsDescriptor::from_pairs(&w, &[(vars[1], 1)]).unwrap(),
    ]);
    let exact = (0.5) / 0.75;
    let (violations, worst) = count_violations(exact, epsilon, runs, |seed| {
        conditioned_monte_carlo(
            &q,
            &c,
            &w,
            &ApproximationOptions::default()
                .with_epsilon(epsilon)
                .with_delta(delta)
                .with_seed(seed),
            available_workers(),
        )
        .unwrap()
        .estimate
    });
    let allowed = allowed_violations(delta, runs);
    assert!(
        violations <= allowed,
        "{violations}/{runs} runs outside the ε-band \
         (allowed {allowed}, worst relative error {worst:.4})"
    );
}

#[test]
fn hybrid_fallback_inherits_the_sampling_guarantee() {
    // Ten variable-disjoint pairs under a tiny budget: every hybrid run
    // falls back to sampling, and the fallback estimates must meet the same
    // ε-band bookkeeping as the direct sampling runs.
    let epsilon = 0.1;
    let delta = 0.1;
    let runs = seed_matrix().min(30); // the fallback spends two runs' worth of sampling
    let mut w = WorldTable::new();
    let mut set = WsSet::empty();
    for i in 0..10 {
        let x = w.add_boolean(&format!("x{i}"), 0.5).unwrap();
        let y = w.add_boolean(&format!("y{i}"), 0.5).unwrap();
        set.push(WsDescriptor::from_pairs(&w, &[(x, 1), (y, 1)]).unwrap());
    }
    let exact = 1.0 - 0.75f64.powi(10);
    let (violations, worst) = count_violations(exact, epsilon, runs, |seed| {
        let report = estimate_confidence(
            &set,
            &w,
            &DecompositionOptions::ve_minlog(),
            &ConfidenceStrategy::Hybrid {
                budget: 5,
                approx: ApproximationOptions::default()
                    .with_epsilon(epsilon)
                    .with_delta(delta)
                    .with_seed(seed),
            },
            None,
        )
        .unwrap();
        assert_eq!(report.path, ResolvedPath::Sampled { fell_back: true });
        report.probability
    });
    let allowed = allowed_violations(delta, runs);
    assert!(
        violations <= allowed,
        "{violations}/{runs} fallback runs outside the ε-band \
         (allowed {allowed}, worst relative error {worst:.4})"
    );
}
