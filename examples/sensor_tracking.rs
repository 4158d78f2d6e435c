//! Tracking moving objects with uncertain sensor readings.
//!
//! A set of RFID readers observes tagged objects; each observation is
//! uncertain about the zone the object is in (the classic probabilistic
//! database motivation of tracking moving objects and sensor data). New
//! evidence arrives — a security sweep establishes that no two objects share
//! a zone, and object 0 is definitely not in the loading dock — and the
//! database is *conditioned* on it. The example reports the decomposition
//! of the evidence's probability, compares the prior and posterior zone
//! distributions and shows, by enumerating the posterior's possible worlds
//! with the `uprob-reference` oracle crate, that their weights sum to one.
//!
//! The second half turns the motivation into a *stream*: a fixed fleet of
//! uncertain sensors receives batches of uncertain readings through the
//! snapshot-isolated [`ProbDbService`] — `ingest()` accumulates deltas
//! without publishing (readers keep a bounded-stale snapshot), and
//! `assert_all_delta()` re-conditions incrementally and publishes a
//! posterior whose decomposition cache *inherits* the warm entries over
//! the never-mutated fleet relation, so the standing zone-coverage query
//! keeps answering from cache across publishes.
//!
//! Run with `cargo run --example sensor_tracking`.

use uprob::prelude::*;
use uprob_datagen::{SensorConfig, SensorWorkload};
use uprob_reference::worlds::TableWorlds;

const ZONES: [&str; 4] = ["dock", "aisle", "office", "yard"];

fn main() {
    // ----------------------------------------------------------------- //
    // 1. The prior: each object's zone is a distribution over readings.  //
    // ----------------------------------------------------------------- //
    let mut db = ProbDb::new();
    let readings: [&[(i64, f64)]; 3] = [
        // Object 0 was seen near the dock but the reading is weak.
        &[(0, 0.5), (1, 0.3), (3, 0.2)],
        // Object 1 is almost certainly in the aisle.
        &[(1, 0.7), (2, 0.2), (0, 0.1)],
        // Object 2 oscillates between office and yard.
        &[(2, 0.45), (3, 0.45), (1, 0.1)],
    ];
    let mut vars = Vec::new();
    for (object, distribution) in readings.iter().enumerate() {
        let var = db
            .world_table_mut()
            .add_variable(&format!("loc{object}"), distribution)
            .expect("valid distribution");
        vars.push(var);
    }
    let schema = Schema::new(
        "location",
        &[("OBJECT", ColumnType::Int), ("ZONE", ColumnType::Str)],
    );
    let mut relation = db.create_relation(schema).expect("fresh relation");
    for (object, distribution) in readings.iter().enumerate() {
        for &(zone, _) in distribution.iter() {
            relation.push(
                Tuple::new(vec![
                    Value::Int(object as i64),
                    Value::str(ZONES[zone as usize]),
                ]),
                WsDescriptor::from_pairs(db.world_table(), &[(vars[object], zone)])
                    .expect("valid descriptor"),
            );
        }
    }
    db.insert_relation(relation).expect("relation is valid");

    println!("== Prior zone distributions ==");
    print_zone_distributions(&db);

    // ----------------------------------------------------------------- //
    // 2. Evidence as a ws-set, and the decomposition of its probability. //
    // ----------------------------------------------------------------- //
    // Evidence A: no two objects share a zone (a key constraint on ZONE).
    let exclusive = Constraint::key("location", &["ZONE"]);
    // Evidence B: object 0 is not in the dock.
    let not_dock = Constraint::row_filter(
        "location",
        Predicate::col_eq("OBJECT", 0i64).not().or(Predicate::cmp(
            Expr::col("ZONE"),
            Comparison::Ne,
            Expr::val("dock"),
        )),
    );
    let evidence = exclusive
        .satisfying_ws_set(&db)
        .expect("well-formed constraint");
    println!("\n== Evidence: no two objects share a zone ==");
    println!(
        "satisfying ws-set: {} descriptors over {} variables",
        evidence.len(),
        evidence.variables().len()
    );
    // `confidence` folds Figure 7 over the ws-tree of Figure 4 without
    // building it; its counters are the nodes of that tree. A one-descriptor
    // sub-set is priced in closed form, with the nodes its chain of ⊕ steps
    // would have taken (no weight here is zero, so no chain stops early).
    let evidence_confidence = confidence(
        &evidence,
        db.world_table(),
        &DecompositionOptions::indve_minlog(),
    )
    .expect("decomposition succeeds");
    let stats = evidence_confidence.stats;
    println!("P(evidence) = {:.4}", evidence_confidence.probability);
    println!(
        "decomposition: {} nodes ({} ⊕, {} ⊗), depth {}\n",
        stats.total_nodes(),
        stats.choice_nodes,
        stats.independent_nodes,
        stats.max_depth
    );

    // ----------------------------------------------------------------- //
    // 3. Condition on both pieces of evidence.                           //
    // ----------------------------------------------------------------- //
    let options = ConditioningOptions::default();
    let step1 = assert_constraint(&db, &exclusive, &options).expect("evidence is satisfiable");
    let posterior =
        assert_constraint(&step1.db, &not_dock, &options).expect("evidence is satisfiable");
    println!("== Conditioning ==");
    println!(
        "P(no shared zone)                  = {:.4}",
        step1.confidence
    );
    println!(
        "P(object 0 not in dock | above)    = {:.4}",
        posterior.confidence
    );

    println!("\n== Posterior zone distributions ==");
    print_zone_distributions(&posterior.db);

    // The posterior is a proper probability distribution.
    let total: f64 = posterior
        .db
        .world_table()
        .enumerate_worlds()
        .map(|(_, p)| p)
        .sum();
    println!("\nposterior world weights sum to {total:.6}");
    assert!((total - 1.0).abs() < 1e-9);

    // Certain facts after conditioning.
    let zones = posterior
        .db
        .query(&Plan::scan("location").project(&["OBJECT", "ZONE"]))
        .expect("valid plan");
    let certain = certain_tuples(
        &zones,
        posterior.db.world_table(),
        &DecompositionOptions::default(),
    )
    .expect("confidence computation succeeds");
    println!("\n== Facts that became certain ==");
    if certain.is_empty() {
        println!("  (none)");
    }
    for t in &certain {
        println!(
            "  object {} is in the {}",
            t.get(0).expect("col"),
            t.get(1).expect("col")
        );
    }

    // ----------------------------------------------------------------- //
    // 4. Continuous ingest through the serving layer.                    //
    // ----------------------------------------------------------------- //
    // A fleet of uncertain sensors streams uncertain readings. Ingest
    // batches accumulate on the writer's prior line without publishing;
    // every second batch a delta conditioning pass re-checks the
    // constraints (reusing memoized violation ws-sets for relations that
    // did not change) and publishes a posterior snapshot that inherits
    // the warm decomposition-cache entries over the never-mutated
    // `sensors` relation.
    println!("\n== Continuous ingest through the serving layer ==");
    let workload = SensorWorkload::generate(&SensorConfig::default());
    let service = ProbDbService::new(workload.db.clone());
    // The standing query: which zones have an operational sensor.
    let coverage = Plan::scan("sensors").project(&["ZONE"]);
    let prior_answer = service.conf(&coverage).expect("coverage decomposes");
    println!(
        "P(some sensor operational) = {:.4} over {} zones",
        prior_answer.boolean,
        prior_answer.tuples.len()
    );
    let mut next_reading = 4usize; // after the seed readings
    for (index, batch) in workload.batches.iter().enumerate() {
        let report = service
            .ingest(|delta| {
                for reading in batch {
                    let var =
                        delta.add_boolean(&format!("r{next_reading}"), reading.reliability)?;
                    next_reading += 1;
                    let descriptor = WsDescriptor::from_pairs(delta.world_table(), &[(var, 1)])?;
                    delta.append("readings", reading.tuple(), descriptor)?;
                }
                Ok(())
            })
            .expect("the generated batch applies cleanly");
        println!(
            "batch {}: ingested {} readings (stale until publish: {})",
            index + 1,
            batch.len(),
            report.touched("readings"),
        );
        if (index + 1) % 2 == 0 {
            let outcome = service
                .assert_all_delta(&workload.constraints)
                .expect("the stream satisfies the constraints");
            let answer = service.conf(&coverage).expect("coverage decomposes");
            let cache = service.snapshot().cache_stats();
            println!(
                "  publish: P(constraints) = {:.4}, reused violation sets = {}, \
                 inherited cache entries = {} (hits {}), coverage = {:.4}",
                outcome.confidence,
                outcome.reused_violations,
                cache.inherited_entries,
                cache.inherited_hits,
                answer.boolean,
            );
        }
    }
    let final_cache = service.snapshot().cache_stats();
    assert!(
        final_cache.inherited_hits > 0,
        "the standing query must keep hitting inherited entries"
    );
    println!(
        "final snapshot: {} cache entries, {} inherited, {} inherited hits",
        final_cache.entries, final_cache.inherited_entries, final_cache.inherited_hits
    );
}

/// Prints, for every object, the confidence of each zone.
fn print_zone_distributions(db: &ProbDb) {
    for object in 0..3i64 {
        let zones = db
            .query(
                &Plan::scan("location")
                    .select(Predicate::col_eq("OBJECT", object))
                    .project(&["ZONE"]),
            )
            .expect("valid plan");
        let mut confidences =
            tuple_confidences(&zones, db.world_table(), &DecompositionOptions::default())
                .expect("confidence computation succeeds");
        confidences.sort_by(|a, b| b.1.total_cmp(&a.1));
        let rendered: Vec<String> = confidences
            .iter()
            .map(|(t, p)| format!("{}: {:.3}", t.get(0).expect("one column"), p))
            .collect();
        println!("  object {object}: {}", rendered.join(", "));
    }
}
