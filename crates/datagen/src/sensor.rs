//! Continuous-ingest sensor workload for the delta-conditioning serving
//! benchmark workload (`sensor_ingest_serve`) and the `sensor_tracking`
//! example.
//!
//! The scenario is the paper's sensor-data motivation turned into a
//! stream: a fixed fleet of uncertain sensors (`sensors(SID, ZONE)`, one
//! Boolean "operational" variable per sensor) receives batches of
//! uncertain readings (`readings(SID, T, VALUE)`, one fresh Boolean
//! reliability variable per reading). The fleet relation is **never
//! mutated** by ingest — exactly the situation cross-snapshot cache
//! inheritance exploits: on every publish, warm decomposition-cache
//! entries over the sensor variables survive and keep answering.
//!
//! The canonical constraint set is clean by construction (readings are
//! generated inside the plausible range, sensor ids are unique), so
//! `assert_all_delta` conditions on a universal satisfying set and the
//! posterior world table extends the prior — the streaming steady state
//! in which inherited entries are also *hit*, not merely carried.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uprob_query::Constraint;
use uprob_urel::{ColumnType, Comparison, Expr, Predicate, ProbDb, Schema, Tuple, Value};
use uprob_wsd::WsDescriptor;

/// The plausible reading range enforced by the canonical constraint set.
pub const VALUE_RANGE: (f64, f64) = (0.0, 100.0);

/// Configuration of the sensor ingest workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SensorConfig {
    /// Number of sensors in the (ingest-invariant) fleet relation.
    pub sensors: usize,
    /// Readings appended per ingest batch.
    pub readings_per_batch: usize,
    /// Number of ingest batches in the stream.
    pub batches: usize,
    /// Readings already present in the base database.
    pub seed_readings: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            sensors: 6,
            readings_per_batch: 8,
            batches: 6,
            seed_readings: 4,
            seed: 2008,
        }
    }
}

/// One uncertain reading to ingest: present with probability
/// `reliability` (a fresh Boolean world variable per reading).
#[derive(Clone, Debug, PartialEq)]
pub struct SensorReading {
    /// Id of the observed sensor.
    pub sensor: i64,
    /// Observation timestamp (monotone over the stream).
    pub at: i64,
    /// Measured value, inside [`VALUE_RANGE`].
    pub value: f64,
    /// Probability that the reading is real.
    pub reliability: f64,
}

impl SensorReading {
    /// The `readings` tuple of this observation.
    pub fn tuple(&self) -> Tuple {
        Tuple::new(vec![
            Value::Int(self.sensor),
            Value::Int(self.at),
            Value::Float(self.value),
        ])
    }
}

/// A generated stream: the base database, the canonical constraint set
/// and the batches to ingest.
pub struct SensorWorkload {
    /// Base database: the full `sensors` fleet plus a few seed readings.
    pub db: ProbDb,
    /// Canonical constraints, clean over the generated stream:
    /// `key(sensors.SID)` and `check(VALUE in VALUE_RANGE)` on `readings`.
    pub constraints: Vec<Constraint>,
    /// The ingest stream, in arrival order.
    pub batches: Vec<Vec<SensorReading>>,
}

impl SensorWorkload {
    /// Generates the workload deterministically from `config.seed`.
    pub fn generate(config: &SensorConfig) -> SensorWorkload {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut db = ProbDb::new();

        // The fleet: one Boolean "operational" variable per sensor. The
        // relation is never mutated by ingest, so confidence queries over
        // it produce exactly the ws-sets inheritance carries forward.
        let zones = ["dock", "aisle", "office", "yard"];
        let mut sensors = db
            .create_relation(Schema::new(
                "sensors",
                &[("SID", ColumnType::Int), ("ZONE", ColumnType::Str)],
            ))
            .expect("fresh schema");
        for sid in 0..config.sensors {
            let p = 0.85 + 0.1 * rng.random_range(0.0..1.0);
            let var = db
                .world_table_mut()
                .add_boolean(&format!("s{sid}"), p)
                .expect("valid probability");
            sensors.push(
                Tuple::new(vec![
                    Value::Int(sid as i64),
                    Value::str(zones[sid % zones.len()]),
                ]),
                WsDescriptor::from_pairs(db.world_table(), &[(var, 1)]).expect("valid descriptor"),
            );
        }
        db.insert_relation(sensors).expect("valid relation");

        let mut readings = db
            .create_relation(Schema::new(
                "readings",
                &[
                    ("SID", ColumnType::Int),
                    ("T", ColumnType::Int),
                    ("VALUE", ColumnType::Float),
                ],
            ))
            .expect("fresh schema");
        let mut clock = 0i64;
        let draw = |rng: &mut StdRng, clock: &mut i64| -> SensorReading {
            *clock += 1;
            SensorReading {
                sensor: rng.random_range(0..config.sensors) as i64,
                at: *clock,
                value: rng.random_range(VALUE_RANGE.0..VALUE_RANGE.1),
                reliability: 0.5 + 0.45 * rng.random_range(0.0..1.0),
            }
        };
        for index in 0..config.seed_readings {
            let reading = draw(&mut rng, &mut clock);
            let var = db
                .world_table_mut()
                .add_boolean(&format!("r{index}"), reading.reliability)
                .expect("valid probability");
            readings.push(
                reading.tuple(),
                WsDescriptor::from_pairs(db.world_table(), &[(var, 1)]).expect("valid descriptor"),
            );
        }
        db.insert_relation(readings).expect("valid relation");

        let batches = (0..config.batches)
            .map(|_| {
                (0..config.readings_per_batch)
                    .map(|_| draw(&mut rng, &mut clock))
                    .collect()
            })
            .collect();

        let constraints = vec![
            Constraint::key("sensors", &["SID"]),
            Constraint::row_filter(
                "readings",
                Predicate::cmp(Expr::col("VALUE"), Comparison::Ge, Expr::val(VALUE_RANGE.0)).and(
                    Predicate::cmp(Expr::col("VALUE"), Comparison::Le, Expr::val(VALUE_RANGE.1)),
                ),
            ),
        ];

        SensorWorkload {
            db,
            constraints,
            batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_clean() {
        let config = SensorConfig::default();
        let a = SensorWorkload::generate(&config);
        let b = SensorWorkload::generate(&config);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.db.relation_names(), vec!["readings", "sensors"]);
        assert_eq!(a.batches.len(), config.batches);
        for batch in &a.batches {
            assert_eq!(batch.len(), config.readings_per_batch);
            for reading in batch {
                assert!((VALUE_RANGE.0..VALUE_RANGE.1).contains(&reading.value));
                assert!((0.0..=1.0).contains(&reading.reliability));
            }
        }
        // The canonical constraints hold in every world of the base db.
        for constraint in &a.constraints {
            let violations = constraint.violation_ws_set(&a.db).unwrap();
            assert!(violations.is_empty(), "{}", constraint.describe());
        }
    }
}
