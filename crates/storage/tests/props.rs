//! Property tests for the storage substrate: index/scan equivalence,
//! dedup and ordering invariants, operator laws that the engine's
//! pipelined joins rely on.

use mp_storage::{ops, tuple, KeyIndex, Relation, Selection, Tuple, Value};
use proptest::prelude::*;

/// A value drawn from a small mixed domain: four integers, four symbols.
fn mixed(code: u8) -> Value {
    if code < 4 {
        Value::int(i64::from(code))
    } else {
        Value::str(format!("s{code}"))
    }
}

/// Row-at-a-time reference for [`Relation::summary`]: the scan the
/// catalogue replaced (one hash set per column, one counting map per
/// column), kept here only to check it. Returns, per column, the sorted
/// distinct values and the largest multiplicity.
fn reference_summary(rel: &Relation) -> Vec<(Vec<Value>, usize)> {
    use std::collections::{BTreeMap, HashSet};
    let mut seen: Vec<HashSet<&Value>> = vec![HashSet::new(); rel.arity()];
    let mut counts: Vec<BTreeMap<&Value, usize>> = vec![BTreeMap::new(); rel.arity()];
    for t in rel.iter() {
        for c in 0..rel.arity() {
            seen[c].insert(&t[c]);
            *counts[c].entry(&t[c]).or_insert(0) += 1;
        }
    }
    seen.iter()
        .zip(&counts)
        .map(|(s, n)| {
            let mut values: Vec<Value> = s.iter().map(|v| **v).collect();
            values.sort();
            (values, n.values().copied().max().unwrap_or(0))
        })
        .collect()
}

fn rel3(rows: &[(i64, i64, i64)]) -> Relation {
    let mut r = Relation::new(3);
    for &(a, b, c) in rows {
        r.insert(tuple![a, b, c]).unwrap();
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_lookup_equals_scan(
        rows in prop::collection::vec((0i64..5, 0i64..5, 0i64..5), 0..40),
        key in (0i64..5, 0i64..5),
        cols in prop::sample::subsequence(vec![0usize, 1, 2], 2),
    ) {
        let r = rel3(&rows);
        let idx = KeyIndex::build(&r, &cols).unwrap();
        let key_t: Tuple = vec![Value::from(key.0), Value::from(key.1)]
            .into_iter().collect();
        let via_index: Vec<&Tuple> = idx
            .probe_in(&r, key_t.values())
            .map(|i| &r.rows()[i as usize])
            .collect();
        let via_scan: Vec<&Tuple> =
            r.iter().filter(|t| t.matches_on(&cols, &key_t)).collect();
        prop_assert_eq!(via_index, via_scan);
    }

    #[test]
    fn incremental_index_equals_batch_index(
        rows in prop::collection::vec((0i64..5, 0i64..5, 0i64..5), 0..40),
        key in 0i64..5,
    ) {
        // Maintain the index while inserting vs building it afterwards.
        let mut inc = Relation::new(3);
        inc.ensure_index(&[1]).unwrap();
        for &(a, b, c) in &rows {
            inc.insert(tuple![a, b, c]).unwrap();
        }
        let batch = rel3(&rows);
        let idx = KeyIndex::build(&batch, &[1]).unwrap();
        let k = tuple![key];
        let mut from_inc: Vec<Tuple> =
            inc.lookup(&[1], &k).into_iter().cloned().collect();
        let mut from_batch: Vec<Tuple> = idx
            .probe_in(&batch, k.values())
            .map(|i| batch.rows()[i as usize].clone())
            .collect();
        from_inc.sort();
        from_batch.sort();
        prop_assert_eq!(from_inc, from_batch);
    }

    #[test]
    fn insertion_order_is_first_occurrence_order(
        rows in prop::collection::vec((0i64..4, 0i64..4), 0..30),
    ) {
        let mut r = Relation::new(2);
        let mut expected: Vec<Tuple> = Vec::new();
        for &(a, b) in &rows {
            let t = tuple![a, b];
            if r.insert(t.clone()).unwrap() {
                expected.push(t);
            }
        }
        prop_assert_eq!(r.rows(), expected.as_slice());
        prop_assert_eq!(r.len(), expected.len());
    }

    #[test]
    fn join_then_project_is_semijoin(
        xs in prop::collection::vec((0i64..5, 0i64..5), 0..25),
        ys in prop::collection::vec((0i64..5, 0i64..5), 0..25),
    ) {
        let mut l = Relation::new(2);
        for &(a, b) in &xs { l.insert(tuple![a, b]).unwrap(); }
        let mut r = Relation::new(2);
        for &(a, b) in &ys { r.insert(tuple![a, b]).unwrap(); }
        let j = ops::join(&l, &r, &[(0, 1)]).unwrap();
        let p = ops::project(&j, &[0, 1]).unwrap();
        let s = ops::semijoin(&l, &r, &[(0, 1)]).unwrap();
        prop_assert!(p.set_eq(&s));
    }

    #[test]
    fn cross_size_is_product(
        xs in prop::collection::vec(0i64..10, 0..12),
        ys in prop::collection::vec(0i64..10, 0..12),
    ) {
        let mut l = Relation::new(1);
        for &a in &xs { l.insert(tuple![a]).unwrap(); }
        let mut r = Relation::new(1);
        for &a in &ys { r.insert(tuple![a]).unwrap(); }
        let c = ops::cross(&l, &r);
        prop_assert_eq!(c.len(), l.len() * r.len());
    }

    #[test]
    fn distinct_column_matches_projection(
        rows in prop::collection::vec((0i64..5, 0i64..5), 0..30),
    ) {
        let mut ir = Relation::new(2);
        for &(a, b) in &rows { ir.insert(tuple![a, b]).unwrap(); }
        let direct: Vec<Value> = ir.distinct_column(0);
        let mut via_project: Vec<Value> = Vec::new();
        let mut base = Relation::new(2);
        for &(a, b) in &rows { base.insert(tuple![a, b]).unwrap(); }
        for t in ops::project(&base, &[0]).unwrap().iter() {
            via_project.push(t[0]);
        }
        prop_assert_eq!(direct, via_project);
    }

    #[test]
    fn catalogue_matches_reference_scan(
        arity in 0usize..=3,
        rows in prop::collection::vec((0u8..8, 0u8..8, 0u8..8), 0..40),
    ) {
        let mut rel = Relation::new(arity);
        for &(a, b, c) in &rows {
            let t: Tuple = [a, b, c][..arity].iter().map(|&v| mixed(v)).collect();
            rel.insert(t).unwrap();
        }
        let reference = reference_summary(&rel);
        let summary = rel.summary();
        prop_assert_eq!(summary.len(), arity);
        for (col, (values, max)) in summary.iter().zip(&reference) {
            prop_assert_eq!(&col.values, values);
            prop_assert_eq!(col.distinct(), values.len());
            prop_assert_eq!(col.max_multiplicity, *max);
            prop_assert_eq!(col.has_ints(), values.iter().any(|v| v.as_int().is_some()));
            prop_assert_eq!(col.has_syms(), values.iter().any(|v| v.as_str().is_some()));
        }
        if arity == 2 {
            // Max out- and in-degree of the relation read as an edge set.
            let degree = |c: usize| {
                rel.distinct_column(c)
                    .iter()
                    .map(|v| rel.iter().filter(|t| t[c] == *v).count())
                    .max()
                    .unwrap_or(0)
            };
            prop_assert_eq!(summary[0].max_multiplicity, degree(0));
            prop_assert_eq!(summary[1].max_multiplicity, degree(1));
        }
    }

    #[test]
    fn select_ids_equals_row_filter(
        rows in prop::collection::vec((0u8..6, 0u8..6, 0u8..6), 0..40),
        const_cols in prop::sample::subsequence(vec![0usize, 1, 2], 0..=2),
        key in (0u8..6, 0u8..6),
        eq_cols in prop::sample::subsequence(vec![0usize, 1, 2], 0..=2),
    ) {
        let mut rel = Relation::new(3);
        for &(a, b, c) in &rows {
            rel.insert([a, b, c].iter().map(|&v| mixed(v)).collect()).unwrap();
        }
        let consts: Vec<(usize, Value)> = const_cols
            .iter()
            .zip([key.0, key.1])
            .map(|(&c, v)| (c, mixed(v)))
            .collect();
        let eqs: Vec<(usize, usize)> = match eq_cols[..] {
            [a, b] => vec![(a, b)],
            _ => Vec::new(),
        };
        let by_filter: Vec<u32> = rel
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                consts.iter().all(|(c, v)| t[*c] == *v) && eqs.iter().all(|&(a, b)| t[a] == t[b])
            })
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(rel.select_ids(&Selection { consts, eqs }).unwrap(), by_filter);
    }
}
