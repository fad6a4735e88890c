//! Relational algebra operators over columnar kernels.
//!
//! "Rule nodes combine their subgoal relations using join, select, and
//! project" (§2.2 of the paper); class-`d` arguments "function as a
//! semi-join operand" (§1.2). These operators are the batch forms; the
//! engine's pipelined per-tuple forms live in `mp-engine` and are tested
//! against these as oracles.
//!
//! Batch and pipelined forms share one probe kernel: hash-bucket
//! candidates from a [`KeyIndex`] verified against the owning relation's
//! column mirror — the same entry point ([`KeyIndex::probe_in`] /
//! [`Relation::probe`]) the engine's rule nodes call per tuple — reusing
//! a [`Relation::ensure_index`]-prepared index when the operand has one
//! and building a transient index otherwise. The batch forms here add
//! the columnar refinement: probe-key hashes for the whole left operand
//! are computed in batched column-at-a-time passes
//! (`Relation::key_hashes`), and selection scans run as tight loops over
//! [`Relation::column`] slices. Nothing nested-loops over the right
//! operand and nothing dereferences a row `Arc` to decide a mismatch.
//!
//! All operators preserve determinism: outputs are produced in the
//! insertion order induced by scanning the left operand.

use crate::{FastMap, FastSet, KeyIndex, Relation, StorageError, Tuple, Value};
use std::borrow::Cow;

/// An aggregate fold function over one column (set semantics: the fold
/// ranges over the *distinct* aggregated values per group, matching the
/// duplicate-free data plane).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AggFunc {
    /// Number of distinct aggregated values per group.
    Count,
    /// Sum of the distinct integer values per group.
    Sum,
    /// Minimum integer value per group.
    Min,
    /// Maximum integer value per group.
    Max,
}

impl AggFunc {
    /// The surface-syntax keyword (`count<X>`, …).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Parse a surface keyword.
    pub fn parse(s: &str) -> Option<AggFunc> {
        match s {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

impl std::fmt::Display for AggFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from the aggregate kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggError {
    /// `sum`/`min`/`max` met a non-integer value (symbol ordering is
    /// interner-id order, which is not a semantic order, so only `count`
    /// accepts symbols).
    NonInt {
        /// The fold that rejected the value.
        func: AggFunc,
        /// The offending value.
        value: Value,
    },
    /// A `sum` overflowed the 64-bit integer domain.
    Overflow,
    /// Column bookkeeping failed (out-of-bounds group or aggregate
    /// column).
    Storage(StorageError),
}

impl std::fmt::Display for AggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggError::NonInt { func, value } => {
                write!(f, "{func} aggregate over non-integer value {value}")
            }
            AggError::Overflow => write!(f, "sum aggregate overflowed i64"),
            AggError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AggError {}

impl From<StorageError> for AggError {
    fn from(e: StorageError) -> Self {
        AggError::Storage(e)
    }
}

/// The probe side of a join-like operator: the operand's own prepared
/// index on exactly `cols` when present, else a transient one built for
/// this call.
fn index_on<'a>(rel: &'a Relation, cols: &[usize]) -> Result<Cow<'a, KeyIndex>, StorageError> {
    match rel.index_for(cols) {
        Some(idx) => Ok(Cow::Borrowed(idx)),
        None => Ok(Cow::Owned(KeyIndex::build(rel, cols)?)),
    }
}

/// Select rows where column `col` equals `value`: an index probe when
/// one is prepared, else one tight pass over the column slice.
pub fn select_eq(rel: &Relation, col: usize, value: &Value) -> Result<Relation, StorageError> {
    rel.check_cols(&[col])?;
    let mut out = Relation::new(rel.arity());
    if let Some(idx) = rel.index_for(&[col]) {
        for id in idx.probe_in(rel, std::slice::from_ref(value)) {
            out.insert(rel.rows()[id as usize].clone())?;
        }
    } else {
        let rows = rel.rows();
        for (i, v) in rel.column(col).iter().enumerate() {
            if v == value {
                out.insert(rows[i].clone())?;
            }
        }
    }
    Ok(out)
}

/// Select rows matching `key` on `cols`.
pub fn select_on(rel: &Relation, cols: &[usize], key: &Tuple) -> Result<Relation, StorageError> {
    rel.check_cols(cols)?;
    let mut out = Relation::new(rel.arity());
    for t in rel.probe(cols, key.values()) {
        out.insert(t.clone())?;
    }
    Ok(out)
}

/// Select rows satisfying an arbitrary predicate.
pub fn select_where(rel: &Relation, pred: impl Fn(&Tuple) -> bool) -> Relation {
    let mut out = Relation::new(rel.arity());
    for t in rel.iter() {
        if pred(t) {
            out.insert(t.clone()).expect("same arity");
        }
    }
    out
}

/// Project onto `cols` (deduplicating).
pub fn project(rel: &Relation, cols: &[usize]) -> Result<Relation, StorageError> {
    rel.check_cols(cols)?;
    let mut out = Relation::new(cols.len());
    for t in rel.iter() {
        out.insert(t.project(cols))?;
    }
    Ok(out)
}

/// One left row's verified matches in the right operand, driven by the
/// batched hash column. Gathers the probe key from the left's column
/// slices only when the bucket is non-empty (a hash miss touches no row
/// data at all), then verifies each candidate against the right's column
/// mirror.
fn probe_matches(
    idx: &KeyIndex,
    right: &Relation,
    lslices: &[&[Value]],
    i: usize,
    hash: u64,
    key: &mut Vec<Value>,
    mut on_match: impl FnMut(u32) -> Result<(), StorageError>,
) -> Result<bool, StorageError> {
    let cands = idx.candidates(hash);
    if cands.is_empty() {
        return Ok(false);
    }
    key.clear();
    key.extend(lslices.iter().map(|s| s[i]));
    let mut any = false;
    for &rid in cands {
        if idx.verify(right, rid, key) {
            any = true;
            on_match(rid)?;
        }
    }
    Ok(any)
}

/// Equi-join on column pairs `(left_col, right_col)`.
///
/// Output schema is the concatenation of the left and right schemas (the
/// right join columns are retained; callers project afterwards). Probes a
/// hash index on the right operand — the right's own prepared index when
/// it has one on exactly the join columns — with the probe hashes for
/// every left row computed up front in batched per-column passes.
pub fn join(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
) -> Result<Relation, StorageError> {
    let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    left.check_cols(&lcols)?;
    let idx = index_on(right, &rcols)?;
    let mut out = Relation::new(left.arity() + right.arity());
    let hashes = left.key_hashes(&lcols);
    let lslices: Vec<&[Value]> = lcols.iter().map(|&c| left.column(c)).collect();
    let (lrows, rrows) = (left.rows(), right.rows());
    let mut key: Vec<Value> = Vec::with_capacity(lcols.len());
    for (i, &h) in hashes.iter().enumerate() {
        probe_matches(&idx, right, &lslices, i, h, &mut key, |rid| {
            out.insert(lrows[i].concat(&rrows[rid as usize]))
                .map(|_| ())
        })?;
    }
    Ok(out)
}

/// Semi-join: rows of `left` that match at least one row of `right` on the
/// column pairs. Same batched-hash probe as [`join`], but a left row is
/// emitted once on its first verified match.
pub fn semijoin(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
) -> Result<Relation, StorageError> {
    let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    left.check_cols(&lcols)?;
    let idx = index_on(right, &rcols)?;
    let mut out = Relation::new(left.arity());
    let hashes = left.key_hashes(&lcols);
    let lslices: Vec<&[Value]> = lcols.iter().map(|&c| left.column(c)).collect();
    let lrows = left.rows();
    let mut key: Vec<Value> = Vec::with_capacity(lcols.len());
    for (i, &h) in hashes.iter().enumerate() {
        if probe_matches(&idx, right, &lslices, i, h, &mut key, |_| Ok(()))? {
            out.insert(lrows[i].clone())?;
        }
    }
    Ok(out)
}

/// Anti-join: rows of `left` with no match in `right`.
pub fn antijoin(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
) -> Result<Relation, StorageError> {
    let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    left.check_cols(&lcols)?;
    let idx = index_on(right, &rcols)?;
    let mut out = Relation::new(left.arity());
    let hashes = left.key_hashes(&lcols);
    let lslices: Vec<&[Value]> = lcols.iter().map(|&c| left.column(c)).collect();
    let lrows = left.rows();
    let mut key: Vec<Value> = Vec::with_capacity(lcols.len());
    for (i, &h) in hashes.iter().enumerate() {
        if !probe_matches(&idx, right, &lslices, i, h, &mut key, |_| Ok(()))? {
            out.insert(lrows[i].clone())?;
        }
    }
    Ok(out)
}

/// Union (deduplicating, left rows first).
pub fn union(left: &Relation, right: &Relation) -> Result<Relation, StorageError> {
    if left.arity() != right.arity() {
        return Err(StorageError::ArityMismatch {
            expected: left.arity(),
            got: right.arity(),
        });
    }
    let mut out = Relation::new(left.arity());
    for t in left.iter().chain(right.iter()) {
        out.insert(t.clone())?;
    }
    Ok(out)
}

/// Set difference `left − right`.
pub fn difference(left: &Relation, right: &Relation) -> Result<Relation, StorageError> {
    if left.arity() != right.arity() {
        return Err(StorageError::ArityMismatch {
            expected: left.arity(),
            got: right.arity(),
        });
    }
    let mut out = Relation::new(left.arity());
    for t in left.iter() {
        if !right.contains(t) {
            out.insert(t.clone())?;
        }
    }
    Ok(out)
}

/// Group-and-fold: group `rel` by `group` columns and fold the distinct
/// values of column `agg_col` in each group with `func`. Output schema is
/// the group columns followed by one aggregate column; groups appear in
/// the insertion order of their first contributing row (deterministic,
/// like every other operator here). Empty input yields the empty relation
/// — in stratified Datalog a group only exists once some body tuple
/// witnesses it.
pub fn aggregate(
    rel: &Relation,
    group: &[usize],
    agg_col: usize,
    func: AggFunc,
) -> Result<Relation, AggError> {
    rel.check_cols(group)?;
    rel.check_cols(&[agg_col])?;
    // Group order = first-occurrence order; per-group distinct values.
    let mut order: Vec<Tuple> = Vec::new();
    let mut seen: FastMap<Tuple, FastSet<Value>> = FastMap::default();
    for t in rel.iter() {
        let key = t.project(group);
        let set = seen.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            FastSet::default()
        });
        set.insert(t[agg_col]);
    }
    let mut out = Relation::new(group.len() + 1);
    for key in order {
        let vals = &seen[&key];
        let folded = match func {
            AggFunc::Count => Value::int(vals.len() as i64),
            AggFunc::Sum => {
                let mut acc = 0i64;
                for v in vals.iter() {
                    let i = v.as_int().ok_or(AggError::NonInt { func, value: *v })?;
                    acc = acc.checked_add(i).ok_or(AggError::Overflow)?;
                }
                Value::int(acc)
            }
            AggFunc::Min | AggFunc::Max => {
                let mut acc: Option<i64> = None;
                for v in vals.iter() {
                    let i = v.as_int().ok_or(AggError::NonInt { func, value: *v })?;
                    acc = Some(match acc {
                        None => i,
                        Some(a) if func == AggFunc::Min => a.min(i),
                        Some(a) => a.max(i),
                    });
                }
                // A group exists only because at least one row fed it.
                Value::int(acc.unwrap_or(0))
            }
        };
        let mut row: Vec<Value> = key.values().to_vec();
        row.push(folded);
        out.insert(Tuple::new(row))?;
    }
    Ok(out)
}

/// Cartesian product.
pub fn cross(left: &Relation, right: &Relation) -> Relation {
    let mut out = Relation::new(left.arity() + right.arity());
    for lt in left.iter() {
        for rt in right.iter() {
            out.insert(lt.concat(rt)).expect("same arity");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn r(rows: Vec<Tuple>) -> Relation {
        Relation::from_tuples(rows.first().map_or(0, Tuple::arity), rows)
            .expect("test rows share an arity")
    }

    #[test]
    fn select_eq_filters() {
        let rel = r(vec![tuple![1, 10], tuple![2, 20], tuple![1, 11]]);
        let out = select_eq(&rel, 0, &Value::int(1)).unwrap();
        assert_eq!(out.rows(), &[tuple![1, 10], tuple![1, 11]]);
        assert!(select_eq(&rel, 7, &Value::int(1)).is_err());
    }

    #[test]
    fn select_eq_uses_prepared_index() {
        let mut rel = r(vec![tuple![1, 10], tuple![2, 20], tuple![1, 11]]);
        rel.ensure_index(&[0]).unwrap();
        let out = select_eq(&rel, 0, &Value::int(1)).unwrap();
        assert_eq!(out.rows(), &[tuple![1, 10], tuple![1, 11]]);
    }

    #[test]
    fn select_eq_rejects_column_zero_on_zero_arity() {
        // Regression: the old carve-out accepted column 0 on a zero-arity
        // relation and indexed out of bounds on its first row.
        let mut rel = Relation::new(0);
        rel.insert(Tuple::unit()).unwrap();
        assert_eq!(
            select_eq(&rel, 0, &Value::int(1)),
            Err(StorageError::ColumnOutOfBounds {
                column: 0,
                arity: 0
            })
        );
    }

    #[test]
    fn select_on_multi_column() {
        let rel = r(vec![tuple![1, 10, 5], tuple![1, 11, 5], tuple![1, 10, 6]]);
        let out = select_on(&rel, &[0, 2], &tuple![1, 5]).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn select_where_predicate() {
        let rel = r(vec![tuple![1], tuple![2], tuple![3]]);
        let out = select_where(&rel, |t| t[0].as_int().unwrap() > 1);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn project_dedups() {
        let rel = r(vec![tuple![1, 10], tuple![1, 11], tuple![2, 20]]);
        let out = project(&rel, &[0]).unwrap();
        assert_eq!(out.rows(), &[tuple![1], tuple![2]]);
        assert!(project(&rel, &[9]).is_err());
    }

    #[test]
    fn join_basic() {
        let l = r(vec![tuple![1, 2], tuple![2, 3]]);
        let rr = r(vec![tuple![2, 30], tuple![3, 40], tuple![3, 41]]);
        let out = join(&l, &rr, &[(1, 0)]).unwrap();
        assert_eq!(
            out.sorted_rows(),
            vec![
                tuple![1, 2, 2, 30],
                tuple![2, 3, 3, 40],
                tuple![2, 3, 3, 41]
            ]
        );
    }

    #[test]
    fn join_mixed_value_kinds() {
        // Ints and symbols in the key columns: the tagged key words must
        // keep them apart through the hash fold and the verification.
        let l = r(vec![tuple![1, "x"], tuple![2, "y"], tuple![3, "z"]]);
        let rr = r(vec![tuple!["x", 10], tuple!["z", 30]]);
        let out = join(&l, &rr, &[(1, 0)]).unwrap();
        assert_eq!(
            out.sorted_rows(),
            vec![tuple![1, "x", "x", 10], tuple![3, "z", "z", 30]]
        );
    }

    #[test]
    fn join_reuses_prepared_index() {
        let l = r(vec![tuple![1, 2], tuple![2, 3]]);
        let mut rr = r(vec![tuple![2, 30], tuple![3, 40]]);
        rr.ensure_index(&[0]).unwrap();
        let with_idx = join(&l, &rr, &[(1, 0)]).unwrap();
        let without = join(&l, &r(vec![tuple![2, 30], tuple![3, 40]]), &[(1, 0)]).unwrap();
        assert_eq!(with_idx, without);
    }

    #[test]
    fn join_on_no_columns_is_cross() {
        let l = r(vec![tuple![1], tuple![2]]);
        let rr = r(vec![tuple![10], tuple![20]]);
        let out = join(&l, &rr, &[]).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out, cross(&l, &rr));
    }

    #[test]
    fn semijoin_and_antijoin_partition() {
        let l = r(vec![tuple![1, 2], tuple![2, 3], tuple![4, 5]]);
        let rr = r(vec![tuple![2], tuple![5]]);
        let semi = semijoin(&l, &rr, &[(1, 0)]).unwrap();
        let anti = antijoin(&l, &rr, &[(1, 0)]).unwrap();
        assert_eq!(semi.rows(), &[tuple![1, 2], tuple![4, 5]]);
        assert_eq!(anti.rows(), &[tuple![2, 3]]);
        assert_eq!(union(&semi, &anti).unwrap(), l);
    }

    #[test]
    fn union_requires_same_arity() {
        let a = r(vec![tuple![1]]);
        let b = r(vec![tuple![1, 2]]);
        assert!(union(&a, &b).is_err());
    }

    #[test]
    fn difference_removes() {
        let a = r(vec![tuple![1], tuple![2], tuple![3]]);
        let b = r(vec![tuple![2]]);
        assert_eq!(difference(&a, &b).unwrap().rows(), &[tuple![1], tuple![3]]);
    }

    #[test]
    fn aggregate_count_and_sum_group_in_first_occurrence_order() {
        let rel = r(vec![
            tuple![1, 10],
            tuple![2, 5],
            tuple![1, 20],
            tuple![2, 5], // dedup'd by the relation already
            tuple![1, 10],
        ]);
        let cnt = aggregate(&rel, &[0], 1, AggFunc::Count).unwrap();
        assert_eq!(cnt.rows(), &[tuple![1, 2], tuple![2, 1]]);
        let sum = aggregate(&rel, &[0], 1, AggFunc::Sum).unwrap();
        assert_eq!(sum.rows(), &[tuple![1, 30], tuple![2, 5]]);
    }

    #[test]
    fn aggregate_min_max() {
        let rel = r(vec![tuple![1, 7], tuple![1, 3], tuple![2, 9]]);
        let mn = aggregate(&rel, &[0], 1, AggFunc::Min).unwrap();
        assert_eq!(mn.rows(), &[tuple![1, 3], tuple![2, 9]]);
        let mx = aggregate(&rel, &[0], 1, AggFunc::Max).unwrap();
        assert_eq!(mx.rows(), &[tuple![1, 7], tuple![2, 9]]);
    }

    #[test]
    fn aggregate_empty_group_key_is_global() {
        let rel = r(vec![tuple![4], tuple![7], tuple![1]]);
        let out = aggregate(&rel, &[], 0, AggFunc::Max).unwrap();
        assert_eq!(out.rows(), &[tuple![7]]);
        assert!(aggregate(&Relation::new(1), &[], 0, AggFunc::Count)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn aggregate_rejects_symbols_except_count() {
        let rel = r(vec![tuple![1, "a"], tuple![1, "b"]]);
        assert_eq!(
            aggregate(&rel, &[0], 1, AggFunc::Count).unwrap().rows(),
            &[tuple![1, 2]]
        );
        assert!(matches!(
            aggregate(&rel, &[0], 1, AggFunc::Sum),
            Err(AggError::NonInt { .. })
        ));
        assert!(matches!(
            aggregate(&rel, &[0], 1, AggFunc::Min),
            Err(AggError::NonInt { .. })
        ));
    }

    #[test]
    fn aggregate_sum_overflow_is_typed() {
        let rel = r(vec![tuple![1, i64::MAX], tuple![1, 1]]);
        assert_eq!(
            aggregate(&rel, &[0], 1, AggFunc::Sum),
            Err(AggError::Overflow)
        );
    }

    #[test]
    fn aggregate_checks_columns() {
        let rel = r(vec![tuple![1, 2]]);
        assert!(matches!(
            aggregate(&rel, &[5], 1, AggFunc::Count),
            Err(AggError::Storage(_))
        ));
    }
}
