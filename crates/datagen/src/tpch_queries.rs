//! The two Boolean TPC-H queries of Figure 10.
//!
//! * **Q1**: `select true from customer c, orders o, lineitem l where
//!   c.mktsegment = 'BUILDING' and c.custkey = o.custkey and
//!   o.orderkey = l.orderkey and o.orderdate > '1995-03-15'` — an
//!   equi-join chain whose answer descriptors combine three Boolean tuple
//!   variables and therefore *share* variables across descriptors.
//! * **Q2**: `select true from lineitem where shipdate between '1994-01-01'
//!   and '1996-01-01' and discount between 0.05 and 0.08 and quantity < 24`
//!   — a selection whose answer descriptors are pairwise independent (this
//!   is the safe/hierarchical query; INDVE exploits the independence).
//!
//! Each query is provided twice: a hand-written hash-join evaluation
//! tuned for the benchmark sweeps, and a logical [`Plan`] for
//! [`uprob_urel::ProbDb::query`] — whose eager interpretation
//! ([`uprob_urel::reference::execute_plan`]) is the
//! reference the hand-written evaluation is cross-checked against on
//! small instances.

use std::collections::HashMap;

use uprob_urel::{ColumnType, Comparison, Expr, Plan, Predicate, Schema, Tuple, URelation, Value};
use uprob_wsd::{WsDescriptor, WsSet};

use crate::tpch::{customer_columns, dates, lineitem_columns, orders_columns, TpchDatabase};

/// The answer of a Boolean query: the ws-set of the answer tuples plus the
/// workload statistics reported in Figure 10.
#[derive(Clone, Debug)]
pub struct QueryAnswer {
    /// The ws-set of the descriptors of all answer tuples.
    pub ws_set: WsSet,
    /// Number of Boolean input variables of the database.
    pub input_variables: usize,
}

impl QueryAnswer {
    /// Size of the answer ws-set (the "Size of ws-set" column of Figure 10).
    pub fn ws_set_size(&self) -> usize {
        self.ws_set.len()
    }
}

/// Evaluates Q1 with a hash-join plan and returns the answer as a
/// U-relation keyed by `orderkey`: one row per qualifying lineitem, so the
/// distinct tuples group the lineitems of each order. This is the per-tuple
/// `conf()` form of the Figure 10 workload used by the batch confidence
/// path and the cache-reuse benchmarks.
pub fn q1_answer_relation(data: &TpchDatabase) -> URelation {
    let schema = Schema::new("q1", &[("orderkey", ColumnType::Int)]);
    let mut relation = URelation::new(schema);
    for (orderkey, descriptor) in q1_rows(data) {
        relation.push(Tuple::new(vec![Value::Int(orderkey)]), descriptor);
    }
    relation
}

/// Evaluates Q2 and returns the answer as a U-relation keyed by
/// `orderkey`: one row per qualifying lineitem (lineitems of the same order
/// group into one distinct tuple).
pub fn q2_answer_relation(data: &TpchDatabase) -> URelation {
    let schema = Schema::new("q2", &[("orderkey", ColumnType::Int)]);
    let mut relation = URelation::new(schema);
    let lineitem = data.db.relation("lineitem").expect("lineitem exists");
    for (tuple, descriptor) in lineitem.iter() {
        if q2_predicate_holds(tuple) {
            let orderkey = tuple
                .get(lineitem_columns::ORDERKEY)
                .and_then(Value::as_int)
                .expect("orderkey is an integer");
            relation.push(Tuple::new(vec![Value::Int(orderkey)]), descriptor.clone());
        }
    }
    relation
}

/// The hash-join evaluation of Q1: qualifying lineitems as
/// `(orderkey, combined descriptor)` pairs.
fn q1_rows(data: &TpchDatabase) -> Vec<(i64, WsDescriptor)> {
    let db = &data.db;
    let customer = db.relation("customer").expect("customer exists");
    let orders = db.relation("orders").expect("orders exists");
    let lineitem = db.relation("lineitem").expect("lineitem exists");

    // Building customers: custkey -> tuple variable descriptor.
    let mut building: HashMap<i64, &WsDescriptor> = HashMap::new();
    for (tuple, descriptor) in customer.iter() {
        let segment = tuple
            .get(customer_columns::MKTSEGMENT)
            .and_then(Value::as_str)
            .expect("mktsegment is a string");
        if segment == "BUILDING" {
            let custkey = tuple
                .get(customer_columns::CUSTKEY)
                .and_then(Value::as_int)
                .expect("custkey is an integer");
            building.insert(custkey, descriptor);
        }
    }

    // Qualifying orders of building customers: orderkey -> combined
    // customer+order descriptor.
    let mut qualifying_orders: HashMap<i64, WsDescriptor> = HashMap::new();
    for (tuple, descriptor) in orders.iter() {
        let orderdate = tuple
            .get(orders_columns::ORDERDATE)
            .and_then(Value::as_int)
            .expect("orderdate is an integer");
        if orderdate <= dates::DATE_1995_03_15 {
            continue;
        }
        let custkey = tuple
            .get(orders_columns::CUSTKEY)
            .and_then(Value::as_int)
            .expect("custkey is an integer");
        if let Some(customer_descriptor) = building.get(&custkey) {
            let orderkey = tuple
                .get(orders_columns::ORDERKEY)
                .and_then(Value::as_int)
                .expect("orderkey is an integer");
            let combined = descriptor
                .union(customer_descriptor)
                .expect("distinct Boolean variables are always consistent");
            qualifying_orders.insert(orderkey, combined);
        }
    }

    // Lineitems of qualifying orders: each answer descriptor combines the
    // three tuple variables.
    let mut rows = Vec::new();
    for (tuple, descriptor) in lineitem.iter() {
        let orderkey = tuple
            .get(lineitem_columns::ORDERKEY)
            .and_then(Value::as_int)
            .expect("orderkey is an integer");
        if let Some(order_descriptor) = qualifying_orders.get(&orderkey) {
            let combined = descriptor
                .union(order_descriptor)
                .expect("distinct Boolean variables are always consistent");
            rows.push((orderkey, combined));
        }
    }
    rows
}

/// Evaluates Q1 with a hash-join plan.
pub fn q1_answer(data: &TpchDatabase) -> QueryAnswer {
    let mut ws_set = WsSet::empty();
    for (_, descriptor) in q1_rows(data) {
        ws_set.push(descriptor);
    }
    QueryAnswer {
        ws_set,
        input_variables: data.input_variables(),
    }
}

/// Evaluates Q2 (a selection on `lineitem`).
pub fn q2_answer(data: &TpchDatabase) -> QueryAnswer {
    let lineitem = data.db.relation("lineitem").expect("lineitem exists");
    let mut ws_set = WsSet::empty();
    for (tuple, descriptor) in lineitem.iter() {
        if q2_predicate_holds(tuple) {
            ws_set.push(descriptor.clone());
        }
    }
    QueryAnswer {
        ws_set,
        input_variables: data.input_variables(),
    }
}

fn q2_predicate_holds(tuple: &Tuple) -> bool {
    let shipdate = tuple
        .get(lineitem_columns::SHIPDATE)
        .and_then(Value::as_int)
        .expect("shipdate is an integer");
    let discount = tuple
        .get(lineitem_columns::DISCOUNT)
        .and_then(Value::as_float)
        .expect("discount is a float");
    let quantity = tuple
        .get(lineitem_columns::QUANTITY)
        .and_then(Value::as_int)
        .expect("quantity is an integer");
    (dates::DATE_1994_01_01..=dates::DATE_1996_01_01).contains(&shipdate)
        && (0.05..=0.08).contains(&discount)
        && quantity < 24
}

/// Q1 as a logical query [`Plan`], in the textbook unoptimized shape the
/// SQL of Figure 10 parses to: a selection over the cross product of the
/// three relations, projected onto the order key. Run through
/// [`uprob_urel::ProbDb::query`] the optimizer pushes the single-table
/// conjuncts below the products, recognizes the two equi-joins and
/// executes them as hash joins — producing exactly the rows of
/// [`q1_answer_relation`] (same schema, set-equal rows).
pub fn q1_plan() -> Plan {
    Plan::scan("customer")
        .product(Plan::scan("orders"))
        .product(Plan::scan("lineitem"))
        .select(
            Predicate::col_eq("mktsegment", "BUILDING")
                .and(Predicate::cols_eq("custkey", "orders.custkey"))
                .and(Predicate::cmp(
                    Expr::col("orderdate"),
                    Comparison::Gt,
                    Expr::val(dates::DATE_1995_03_15),
                ))
                .and(Predicate::cols_eq("orderkey", "lineitem.orderkey")),
        )
        .project(&["orderkey"])
        .rename("q1")
}

/// Q2 as a logical query [`Plan`]: the safe selection on `lineitem`,
/// projected onto the order key (the per-tuple `conf()` form of
/// [`q2_answer_relation`]).
pub fn q2_plan() -> Plan {
    Plan::scan("lineitem")
        .select(
            Predicate::between("shipdate", dates::DATE_1994_01_01, dates::DATE_1996_01_01)
                .and(Predicate::between("discount", 0.05, 0.08))
                .and(Predicate::cmp(
                    Expr::col("quantity"),
                    Comparison::Lt,
                    Expr::val(24i64),
                )),
        )
        .project(&["orderkey"])
        .rename("q2")
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::tpch::TpchConfig;

    fn tiny() -> TpchDatabase {
        TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.02).with_seed(42))
    }

    /// The descriptors of a ws-set as a set (order-free comparison).
    fn descriptor_set(ws: &WsSet) -> HashSet<WsDescriptor> {
        ws.iter().cloned().collect()
    }

    /// True if the answer contains exactly the descriptors of the answer
    /// ws-set of `plan` under the eager reference interpreter.
    fn same_answer(answer: &QueryAnswer, data: &TpchDatabase, plan: &Plan) -> bool {
        let reference = uprob_urel::reference::execute_plan(&data.db, plan)
            .unwrap()
            .answer_ws_set();
        answer.ws_set_size() == reference.len()
            && descriptor_set(&answer.ws_set) == descriptor_set(&reference)
    }

    #[test]
    fn q1_hash_join_matches_algebra_plan() {
        // Small instance: the eager reference materialises the unoptimized
        // cross-product chain of the q1 plan.
        let data =
            TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.005).with_seed(42));
        let fast = q1_answer(&data);
        assert!(fast.ws_set_size() > 0, "the instance has Q1 answers");
        assert!(same_answer(&fast, &data, &q1_plan()));
    }

    #[test]
    fn q2_scan_matches_algebra_plan() {
        let data = tiny();
        let fast = q2_answer(&data);
        assert!(fast.ws_set_size() > 0, "the instance has Q2 answers");
        assert!(same_answer(&fast, &data, &q2_plan()));
    }

    #[test]
    fn q1_descriptors_combine_three_tuple_variables() {
        let data = tiny();
        let answer = q1_answer(&data);
        assert!(
            answer.ws_set_size() > 0,
            "tiny instance should have matches"
        );
        for d in answer.ws_set.iter() {
            assert_eq!(d.len(), 3);
        }
        assert_eq!(answer.input_variables, data.input_variables());
    }

    #[test]
    fn q2_descriptors_are_single_variables_and_pairwise_independent() {
        let data = tiny();
        let answer = q2_answer(&data);
        assert!(
            answer.ws_set_size() > 0,
            "tiny instance should have matches"
        );
        for d in answer.ws_set.iter() {
            assert_eq!(d.len(), 1);
        }
        // Pairwise independence: the independent partition splits the set
        // into singletons.
        let parts = answer.ws_set.independent_partition();
        assert_eq!(parts.len(), answer.ws_set_size());
    }

    #[test]
    fn selectivities_are_in_the_expected_ballpark() {
        // On a slightly larger instance, Q1 should select roughly
        // 1/5 (BUILDING) x 1/2 (orderdate) of the lineitems and Q2 roughly
        // 30% x 36% x 46% ≈ 5%.
        let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.2).with_seed(7));
        let lineitems = data.db.relation("lineitem").unwrap().len() as f64;
        let q1 = q1_answer(&data).ws_set_size() as f64 / lineitems;
        let q2 = q2_answer(&data).ws_set_size() as f64 / lineitems;
        assert!((0.05..0.20).contains(&q1), "Q1 selectivity {q1}");
        assert!((0.02..0.10).contains(&q2), "Q2 selectivity {q2}");
    }

    #[test]
    fn q1_plan_matches_the_hand_written_hash_join() {
        let data = tiny();
        let planned = data.db.query(&q1_plan()).unwrap();
        let reference = q1_answer_relation(&data);
        assert_eq!(planned.schema(), reference.schema());
        let as_set = |rel: &URelation| -> HashSet<(Tuple, WsDescriptor)> {
            rel.rows().iter().cloned().collect()
        };
        assert_eq!(planned.len(), reference.len());
        assert_eq!(as_set(&planned), as_set(&reference));
        // The optimizer recognized both equi-joins: no cross product
        // survives in the optimized plan.
        let optimized = uprob_urel::optimize_plan(&q1_plan(), &data.db).unwrap();
        fn has_product(plan: &Plan) -> bool {
            match plan {
                Plan::Product { .. } => true,
                Plan::Scan { .. } | Plan::Empty { .. } => false,
                Plan::Select { input, .. }
                | Plan::Project { input, .. }
                | Plan::Rename { input, .. }
                | Plan::Distinct { input } => has_product(input),
                Plan::Join { left, right, .. } | Plan::Union { left, right } => {
                    has_product(left) || has_product(right)
                }
            }
        }
        assert!(!has_product(&optimized), "products remain:\n{optimized}");
        // And all three execution paths agree — on a smaller instance,
        // because the eager reference materialises the full cross-product
        // chain of the unoptimized plan.
        let small =
            TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.005).with_seed(42));
        let eager = uprob_urel::reference::execute_plan(&small.db, &q1_plan()).unwrap();
        let unoptimized = small.db.query_unoptimized(&q1_plan()).unwrap();
        let planned_small = small.db.query(&q1_plan()).unwrap();
        assert_eq!(as_set(&eager), as_set(&planned_small));
        assert_eq!(eager.rows(), unoptimized.rows());
    }

    #[test]
    fn q2_plan_matches_the_scan_evaluation() {
        let data = tiny();
        let planned = data.db.query(&q2_plan()).unwrap();
        let reference = q2_answer_relation(&data);
        assert_eq!(planned.schema(), reference.schema());
        assert_eq!(planned.rows(), reference.rows());
    }

    #[test]
    fn q1_selects_only_building_customers_after_the_cutoff() {
        let data = tiny();
        let answer = q1_answer(&data);
        // Re-derive the qualifying lineitems by brute force over the three
        // relations and compare counts.
        let db = &data.db;
        let customer = db.relation("customer").unwrap();
        let orders = db.relation("orders").unwrap();
        let lineitem = db.relation("lineitem").unwrap();
        let mut expected = 0usize;
        for (c, _) in customer.iter() {
            if c.get(customer_columns::MKTSEGMENT).unwrap() != &Value::str("BUILDING") {
                continue;
            }
            for (o, _) in orders.iter() {
                if o.get(orders_columns::CUSTKEY) != c.get(customer_columns::CUSTKEY) {
                    continue;
                }
                let date = o.get(orders_columns::ORDERDATE).unwrap().as_int().unwrap();
                if date <= dates::DATE_1995_03_15 {
                    continue;
                }
                for (l, _) in lineitem.iter() {
                    if l.get(lineitem_columns::ORDERKEY) == o.get(orders_columns::ORDERKEY) {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(answer.ws_set_size(), expected);
    }
}
