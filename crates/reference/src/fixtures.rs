//! The database the unit tests of this crate share.

use uprob_urel::{ColumnType, ProbDb, Schema, Tuple, Value};
use uprob_wsd::WsDescriptor;

/// The SSN database of Figures 1/2: John's SSN is 1 (`j`, .2) or 7 (.8),
/// Bill's is 4 (`b`, .3) or 7 (.7).
pub(crate) fn ssn_db() -> ProbDb {
    let mut db = ProbDb::new();
    let j = db
        .world_table_mut()
        .add_variable("j", &[(1, 0.2), (7, 0.8)])
        .unwrap();
    let b = db
        .world_table_mut()
        .add_variable("b", &[(4, 0.3), (7, 0.7)])
        .unwrap();
    let schema = Schema::new("R", &[("SSN", ColumnType::Int), ("NAME", ColumnType::Str)]);
    let mut r = db.create_relation(schema).unwrap();
    {
        let w = db.world_table();
        r.push(
            Tuple::new(vec![Value::Int(1), Value::str("John")]),
            WsDescriptor::from_pairs(w, &[(j, 1)]).unwrap(),
        );
        r.push(
            Tuple::new(vec![Value::Int(7), Value::str("John")]),
            WsDescriptor::from_pairs(w, &[(j, 7)]).unwrap(),
        );
        r.push(
            Tuple::new(vec![Value::Int(4), Value::str("Bill")]),
            WsDescriptor::from_pairs(w, &[(b, 4)]).unwrap(),
        );
        r.push(
            Tuple::new(vec![Value::Int(7), Value::str("Bill")]),
            WsDescriptor::from_pairs(w, &[(b, 7)]).unwrap(),
        );
    }
    db.insert_relation(r).unwrap();
    db
}
