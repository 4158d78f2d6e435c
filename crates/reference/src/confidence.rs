//! The batch confidence path of `uprob_query` against the sequential
//! per-tuple fold [`crate::query::tuple_confidences`]: the same tuples in
//! the same order, with the same probability bits, at every worker count.

mod tests {
    use crate::fixtures::ssn_db;
    use uprob_core::{DecompositionOptions, ParallelOptions, SharedDecompositionCache};
    use uprob_query::{
        answer_confidences_with_options, boolean_confidence, tuple_confidences, AnswerConfidences,
    };
    use uprob_urel::{Plan, ProbDb, URelation};

    /// The exact batch over a fresh cache at the given worker count.
    fn exact_batch(answer: &URelation, db: &ProbDb, workers: usize) -> AnswerConfidences {
        answer_confidences_with_options(
            answer,
            db.world_table(),
            &DecompositionOptions::default(),
            &ParallelOptions::new(workers),
            &SharedDecompositionCache::new(),
        )
        .unwrap()
    }

    #[test]
    fn batch_path_matches_the_sequential_path() {
        let db = ssn_db();
        let options = DecompositionOptions::default();
        for projection in [&["SSN"][..], &["NAME"][..], &["SSN", "NAME"][..]] {
            let answer = db.query(&Plan::scan("R").project(projection)).unwrap();
            let sequential =
                crate::query::tuple_confidences(&answer, db.world_table(), &options).unwrap();
            let batched = tuple_confidences(&answer, db.world_table(), &options).unwrap();
            assert_eq!(sequential.len(), batched.len());
            for ((t1, p1), (t2, p2)) in sequential.iter().zip(&batched) {
                assert_eq!(t1, t2, "batch must preserve the deterministic order");
                assert_eq!(
                    p1.to_bits(),
                    p2.to_bits(),
                    "tuple {t1:?}: sequential {p1}, batch {p2}"
                );
            }
            // Explicit worker counts (including more workers than tuples)
            // agree as well.
            for workers in [1, 2, 16] {
                let full = exact_batch(&answer, &db, workers);
                assert_eq!(sequential.len(), full.tuples.len());
                for ((t1, p1), (t2, p2)) in sequential.iter().zip(&full.tuples) {
                    assert_eq!(t1, t2);
                    assert_eq!(p1.to_bits(), p2.to_bits(), "workers {workers}");
                }
                let boolean = boolean_confidence(&answer, db.world_table(), &options).unwrap();
                assert_eq!(full.boolean.to_bits(), boolean.to_bits());
            }
        }
    }
}
